"""Weighted regular tree grammars over ranked alphabets.

Weights live in the tropical semiring: a derivation costs the sum of
the weights of its rules, and a tree costs the minimum over all of its
derivations.  Rules without an explicit weight cost 0.  Weights are
exact fractions, and the N-best search compares them as integers over
their common denominator, so tie handling is reproducible.
"""

from __future__ import annotations

import heapq
import math
import re
import warnings
from fractions import Fraction
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple, TypeVar

from ._record import Record
from .gvio import strip_comment


T = TypeVar("T")


class RtgSyntaxError(ValueError):
    def __init__(self, message: str, line: int) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line


class RankConflictError(ValueError):
    pass


class EmptyLanguageWarning(UserWarning):
    """The grammar generates no trees at all."""


class BudgetExceededError(RuntimeError):
    """N-best search popped more candidates than the expansion budget."""


class Production(Record):
    """A rule ``lhs -> symbol(rhs) # weight``; ``symbol`` is a terminal
    name, whose rank is ``len(rhs)``, ``rhs`` a tuple of nonterminals
    and ``weight`` a non-negative ``Fraction``."""

    __slots__ = ("lhs", "symbol", "rhs", "weight")
    _defaults = {"weight": Fraction(0)}

    def __post_init__(self) -> None:
        if self.weight < 0:
            raise ValueError("weights must be non-negative")


class WeightedRtg(Record):
    """A grammar: a frozenset of nonterminals, terminal ranks by name,
    a tuple of productions and the start nonterminal."""

    __slots__ = ("nonterminals", "terminals", "productions", "start")

    def __post_init__(self) -> None:
        if self.start not in self.nonterminals:
            raise ValueError(f"start symbol {self.start!r} is not a nonterminal")
        overlap = self.nonterminals & self.terminals.keys()
        if overlap:
            raise RankConflictError(
                f"symbols used as both nonterminal and terminal: {sorted(overlap)}"
            )
        for p in self.productions:
            for v in (p.lhs, *p.rhs):
                if v not in self.nonterminals:
                    raise ValueError(f"rule for {p.lhs!r} names {v!r}, "
                                     f"which is not a nonterminal")
            rank = self.terminals.get(p.symbol)
            if rank != len(p.rhs):
                declared = ("is not a terminal" if rank is None
                            else f"has rank {rank} in the terminals")
                raise RankConflictError(
                    f"rule for {p.lhs!r} uses {p.symbol!r} with rank "
                    f"{len(p.rhs)}, but {p.symbol!r} {declared}")


class DerivationTree(Record):
    __slots__ = ("label", "children")
    _defaults = {"children": ()}

    # Equality, hashing and repr run on an explicit stack like every
    # other traversal.  The preorder (label, rank) sequence determines
    # the tree; the serialization does not, since a label may itself
    # look like ``f(a)``.
    def _preorder(self) -> List[Tuple[str, int]]:
        return [(node.label, len(node.children)) for node in self.walk()]

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._preorder() == other._preorder()

    def __hash__(self) -> int:
        return hash(tuple(self._preorder()))

    def __repr__(self) -> str:
        return f"DerivationTree({self.serialize()})"

    @property
    def rank(self) -> int:
        return len(self.children)

    def walk(
        self, seen: Optional[Set[int]] = None
    ) -> Iterator["DerivationTree"]:
        """Every node in preorder, children left to right.

        With ``seen``, a set of ``id(node)`` values, a node object
        already in ``seen`` is skipped together with its subtree, and
        every node yielded is added: each distinct node object is
        yielded once, at its first occurrence, however often it occurs
        in this tree or in any other walked with the same set.  The
        caller keeps the walked nodes alive while ``seen`` is in use.
        """
        stack = [self]
        while stack:
            node = stack.pop()
            if seen is not None:
                if id(node) in seen:
                    continue
                seen.add(id(node))
            yield node
            stack.extend(reversed(node.children))

    def fold(
        self,
        step: Callable[["DerivationTree", str, List[T]], T],
        memo: Optional[Dict[int, T]] = None,
        shared: Optional[Callable[["DerivationTree"], bool]] = None,
    ) -> T:
        """Evaluate the tree bottom-up and return the root's value.

        ``step(node, path, values)`` runs in post-order with children
        left to right; ``values`` holds what the steps of the node's
        children returned, and ``path`` is the position the step runs
        at: the root's path is ``r`` and the i-th child of the node at
        path ``p`` has path ``p.i``.  Without ``memo`` every node runs
        one step at each of its positions.

        With ``memo``, a dict keyed by ``id(node)``, the value a step
        returns is stored, and a node already in ``memo`` is not
        descended into: its stored value is used, so a stored node
        object runs one step, at its first position, however often it
        occurs in this tree or in any other folded with the same memo.
        ``shared(node)``, if given, decides which values are stored;
        any other node runs its step at each of its positions, with
        that position's path.  The caller keeps the folded nodes alive
        while ``memo`` is in use.
        """
        values: List[T] = []
        # (node, path, None) on the way down; (node, path, rank) once the
        # node's children are on the stack above it.
        stack = [(self, "r", None)]
        while stack:
            node, path, rank = stack.pop()
            if memo is not None and rank is None and id(node) in memo:
                values.append(memo[id(node)])
                continue
            children = node.children
            if not children:
                value = step(node, path, [])
            elif rank is None:
                stack.append((node, path, len(children)))
                for i in range(len(children) - 1, -1, -1):
                    stack.append((children[i], f"{path}.{i}", None))
                continue
            else:
                args = values[-rank:]
                del values[-rank:]
                value = step(node, path, args)
            if memo is not None and (shared is None or shared(node)):
                memo[id(node)] = value
            values.append(value)
        return values[0]

    def size(self) -> int:
        return sum(1 for _ in self.walk())

    def serialize(self) -> str:
        # A stack of nodes and literal tokens rather than recursion, so
        # that a tree deeper than the recursion limit serializes too,
        # in time linear in its size.
        parts = []
        stack = [self]
        while stack:
            item = stack.pop()
            if item.__class__ is str:
                parts.append(item)
            elif item.children:
                parts.append(item.label + "(")
                stack.append(")")
                for child in reversed(item.children):
                    stack.append(child)
                    stack.append(" ")
                stack.pop()
            else:
                parts.append(item.label)
        return "".join(parts)

    def __str__(self) -> str:
        return self.serialize()


def tree(label: str, *children: DerivationTree) -> DerivationTree:
    return DerivationTree(label, tuple(children))


_RULE_RE = re.compile(
    r"^(?P<lhs>[^\s()#,]+)\s*->\s*(?P<sym>[^\s()#,\[\]]+)"
    r"(?:\s*\(\s*(?P<args>[^()#]*)\))?\s*(?:#\s*(?P<weight>\S+))?\s*$"
)


def parse_rtg(text: str) -> WeightedRtg:
    """Parse the rtg format: first line the start nonterminal, then one
    ``A -> f(B C) # w`` rule per line."""
    start: Optional[str] = None
    nonterminals = set()
    terminal_ranks: Dict[str, int] = {}
    productions: List[Production] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = strip_comment(raw)
        if not line:
            continue
        if start is None:
            if "->" in line or any(c in line for c in "()#"):
                raise RtgSyntaxError("start line missing before first rule", lineno)
            if len(line.split()) != 1:
                raise RtgSyntaxError("start line must be a single nonterminal", lineno)
            start = line
            nonterminals.add(start)
            continue
        m = _RULE_RE.match(line)
        if m is None:
            raise RtgSyntaxError(f"cannot parse rule: {line!r}", lineno)
        lhs = m.group("lhs")
        sym = m.group("sym")
        args = tuple((m.group("args") or "").replace(",", " ").split())
        if m.group("weight") is not None:
            try:
                weight = Fraction(m.group("weight"))
            except (ValueError, ZeroDivisionError):
                raise RtgSyntaxError(f"bad weight {m.group('weight')!r}", lineno)
            if weight < 0:
                raise RtgSyntaxError("weights must be non-negative", lineno)
        else:
            weight = Fraction(0)
        if sym in terminal_ranks and terminal_ranks[sym] != len(args):
            raise RankConflictError(
                f"line {lineno}: terminal {sym!r} used with ranks "
                f"{terminal_ranks[sym]} and {len(args)}"
            )
        terminal_ranks[sym] = len(args)
        nonterminals.add(lhs)
        nonterminals.update(args)
        productions.append(Production(lhs, sym, args, weight))
    if start is None:
        raise RtgSyntaxError("start line missing", max(1, text.count("\n") + 1))
    return WeightedRtg(
        frozenset(nonterminals), terminal_ranks, tuple(productions), start
    )


def _derivation_weights(g: WeightedRtg, t: DerivationTree) -> Dict[str, Fraction]:
    """Minimum derivation weight of ``t`` from each nonterminal that
    derives it."""
    by_symbol: Dict[Tuple[str, int], List[Production]] = {}
    for p in g.productions:
        by_symbol.setdefault((p.symbol, len(p.rhs)), []).append(p)

    def step(node, _path, children) -> Dict[str, Fraction]:
        best: Dict[str, Fraction] = {}
        for p in by_symbol.get((node.label, node.rank), ()):
            total = p.weight
            for child, child_nt in zip(children, p.rhs):
                w = child.get(child_nt)
                if w is None:
                    break
                total += w
            else:
                if p.lhs not in best or total < best[p.lhs]:
                    best[p.lhs] = total
        return best

    return t.fold(step)


def language_contains(g: WeightedRtg, t: DerivationTree) -> bool:
    """Membership in the tree language generated from the start symbol."""
    return g.start in _derivation_weights(g, t)


def min_tree_weight(g: WeightedRtg, t: DerivationTree) -> Optional[Fraction]:
    """Minimum over all derivations of the sum of rule weights; None if
    the tree is not in the language."""
    return _derivation_weights(g, t).get(g.start)


def _best_completions(g: WeightedRtg) -> Dict[str, Optional[Tuple[Fraction, int]]]:
    """Least (weight, node count) pair, in lexicographic order, of a
    tree derivable from each nonterminal (Knuth fixpoint); None marks
    unproductive nonterminals.

    Adding pairs componentwise preserves their lexicographic order, so
    the pair of a production is the sum of its children's least pairs,
    and a pair bounds every completion of a partial derivation from
    below.
    """
    best: Dict[str, Optional[Tuple[Fraction, int]]] = {
        a: None for a in g.nonterminals
    }
    changed = True
    while changed:
        changed = False
        for p in g.productions:
            parts = [best[b] for b in p.rhs]
            if any(part is None for part in parts):
                continue
            cand = (p.weight + sum((w for w, _s in parts), Fraction(0)),
                    1 + sum(s for _w, s in parts))
            if best[p.lhs] is None or cand < best[p.lhs]:
                best[p.lhs] = cand
                changed = True
    return best


def reachable_nonterminals(g: WeightedRtg) -> Set[str]:
    """The nonterminals that derivations from the start nonterminal use."""
    uses: Dict[str, Set[str]] = {}
    for p in g.productions:
        uses.setdefault(p.lhs, set()).update(p.rhs)
    reached = {g.start}
    todo = [g.start]
    while todo:
        fresh = uses.get(todo.pop(), set()) - reached
        reached |= fresh
        todo.extend(fresh)
    return reached


def n_best_trees(
    g: WeightedRtg, n: int, budget: int = 10**6
) -> List[Tuple[DerivationTree, Fraction]]:
    """The ``n`` pairwise distinct least-weight trees of the grammar.

    Trees come in non-decreasing weight order; ties go to smaller trees
    (fewer nodes), remaining ties to the lexicographically least
    preorder serialization.  Equal trees reachable by several
    derivations are reported once, at their minimum weight.

    ``budget`` caps the partial derivations popped.  They are counted
    over the grammar with identical ``(lhs, symbol, rhs)`` productions
    merged, so a production written twice costs no extra pops.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    best = _best_completions(g)
    if best[g.start] is None:
        warnings.warn("grammar generates the empty language", EmptyLanguageWarning)
        return []
    # Identical productions give the same trees, so each one is kept
    # once, at its least weight; otherwise every copy would multiply
    # the derivations the search pops.
    merged: Dict[tuple, Fraction] = {}
    for p in g.productions:
        key = (p.lhs, p.symbol, p.rhs)
        if key not in merged or p.weight < merged[key]:
            merged[key] = p.weight
    # Bounds are exact integers: every weight times the least common
    # multiple of the rule weights' denominators.
    scale = math.lcm(*(w.denominator for w in merged.values()))
    least = {a: (int(b[0] * scale), b[1])
             for a, b in best.items() if b is not None}
    # Expanding a nonterminal by a productive production moves the
    # completion bound by the production's own pair plus its children's
    # least pairs minus its left-hand side's least pair.
    steps: Dict[str, List[tuple]] = {}
    for (lhs, name, rhs), weight in merged.items():
        if all(b in least for b in rhs):
            w = int(weight * scale) - least[lhs][0]
            s = 1 - least[lhs][1]
            for b in rhs:
                w += least[b][0]
                s += least[b][1]
            steps.setdefault(lhs, []).append(
                (w, s, (name, len(rhs)), rhs[::-1]))

    # A leftmost partial derivation is (weight, size, 0, counter, chain,
    # stack): the chain links the symbols applied so far, latest first,
    # and the stack the open nonterminals, leftmost on top.  A complete
    # one comes back as (weight, size, 1, serialization), so each bound
    # pops its open derivations first and then its trees in
    # serialization order.  Only open pops count toward the budget, and
    # the search ends on the first open pop after the n-th tree.
    counter = 0
    heap = [(*least[g.start], 0, counter, None, (g.start, None))]
    results: List[Tuple[DerivationTree, Fraction]] = []
    seen = set()
    # Each distinct subtree is built once, keyed in ``trees`` by its
    # serialization; ``built`` finds that string, one object per
    # subtree, from the label and the children's strings.
    built: Dict[tuple, str] = {}
    trees: Dict[str, DerivationTree] = {}
    pops = 0
    while heap:
        item = heapq.heappop(heap)
        if item[2]:
            if len(results) < n and item[3] not in seen:
                seen.add(item[3])
                results.append((trees[item[3]], Fraction(item[0], scale)))
            continue
        pops += 1
        if pops > budget:
            raise BudgetExceededError(
                f"n-best search exceeded its budget of {budget} candidate "
                f"pops"
            )
        if len(results) >= n:
            break
        w, s, _, _, chain, stack = item
        if stack is None:
            # The chain lists the tree in reverse preorder, so each
            # node's children are on top of the stack, leftmost last.
            nodes: List[str] = []
            while chain is not None:
                (name, k), chain = chain
                key = (name, *nodes[:-k - 1:-1])
                del nodes[len(nodes) - k:]
                text = built.get(key)
                if text is None:
                    text = built[key] = (
                        f"{name}({' '.join(key[1:])})" if k else name)
                    trees[text] = DerivationTree(
                        name, tuple(trees[x] for x in key[1:]))
                nodes.append(text)
            heapq.heappush(heap, (w, s, 1, text))
            continue
        a, rest = stack
        for dw, ds, symbol, rhs in steps[a]:
            top = rest
            for b in rhs:
                top = (b, top)
            counter += 1
            heapq.heappush(
                heap, (w + dw, s + ds, 0, counter, (symbol, chain), top))
    return results


_TREE_TOKEN = re.compile(r"[()\[\],]|[^\s()\[\],]+")


def parse_tree(text: str) -> DerivationTree:
    """Parse one tree in functional ``f(a b)`` or bracket ``f[a, b]``
    notation; an error names line 1."""
    return _parse_tree(text, 1, {})


def _parse_tree(
    text: str, lineno: int, interned: Dict[tuple, DerivationTree]
) -> DerivationTree:
    """``parse_tree`` that builds each node through ``interned``, keyed
    by its label and its children's identities, so that equal subtrees
    parsed with one dict are one object."""

    def node(label: str, children: Tuple[DerivationTree, ...]) -> DerivationTree:
        key = (label, *map(id, children))
        t = interned.get(key)
        if t is None:
            t = interned[key] = DerivationTree(label, children)
        return t

    tokens = _TREE_TOKEN.findall(text)
    end = len(tokens)
    pos = 0
    root: List[DerivationTree] = []
    # Nodes whose argument list is open: (label, closing token, children).
    open_nodes: List[Tuple[str, str, List[DerivationTree]]] = []
    while not root:
        if pos >= end:
            raise RtgSyntaxError("unexpected end of tree", lineno)
        label = tokens[pos]
        if label in "()[],":
            raise RtgSyntaxError(f"unexpected token {label!r}", lineno)
        pos += 1
        if pos < end and tokens[pos] in "([":
            open_nodes.append((label, ")" if tokens[pos] == "(" else "]", []))
            pos += 1
        else:
            (open_nodes[-1][2] if open_nodes else root).append(
                node(label, ()))
        # Skip separators and close every argument list that ends here.
        while open_nodes:
            parent, closing, children = open_nodes[-1]
            while pos < end and tokens[pos] == ",":
                pos += 1
            if pos >= end:
                raise RtgSyntaxError(f"missing {closing!r}", lineno)
            if tokens[pos] != closing:
                break
            pos += 1
            open_nodes.pop()
            (open_nodes[-1][2] if open_nodes else root).append(
                node(parent, tuple(children)))
    if pos != end:
        raise RtgSyntaxError(f"trailing tokens after tree: {tokens[pos:]}", lineno)
    return root[0]


def parse_tree_file(text: str) -> List[DerivationTree]:
    """One tree per non-empty line; symbol ranks must be consistent
    across the whole file.  Equal subtrees, on one line or on several,
    are one object."""
    trees: List[DerivationTree] = []
    ranks: Dict[str, Tuple[int, int]] = {}
    interned: Dict[tuple, DerivationTree] = {}
    # A subtree object met before holds only nodes already checked,
    # whose first lines are already recorded, so it is skipped.
    checked: Set[int] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = strip_comment(raw)
        if not line:
            continue
        t = _parse_tree(line, lineno, interned)
        trees.append(t)
        for node in t.walk(checked):
            if node.label in ranks and ranks[node.label][0] != node.rank:
                prev_rank, prev_line = ranks[node.label]
                raise RankConflictError(
                    f"line {lineno}: symbol {node.label!r} has rank "
                    f"{node.rank} here but rank {prev_rank} at line {prev_line}"
                )
            ranks.setdefault(node.label, (node.rank, lineno))
    return trees
