"""Independent reference implementations used as test oracles.

These deliberately use the most naive correct strategy (exhaustive
bijection search, the unpruned canonical search, full derivation
enumeration, bottom-up enumeration of trees by height, the nested-tuple
n-best search, undeduplicated recursive set evaluation, sample and
enumerate evaluation of every node of every tree, union-find fusion)
and stay independent of the code paths they check.
"""

import hashlib
import heapq
import math
import sys
from fractions import Fraction
from itertools import permutations, product
from typing import Dict, Iterable, List, Mapping, Optional

from gexpand import (
    Algebra,
    BudgetExceededError,
    DerivationTree,
    EmptyConstant,
    ExpansionOperation,
    ExpansionTypeError,
    Graph,
    Production,
    UnionOperation,
    WeightedRtg,
    EvalConfig,
    ResultCapExceededError,
    apply_expansion,
    apply_expansion_all,
    canonical_key,
    context_candidates,
    disjoint_union,
    empty_graph,
    enumerate_context_assignments,
)


def brute_force_isomorphic(g: Graph, h: Graph) -> bool:
    """Try every bijection between the node sets.

    Ports must map onto each other positionally, so only the non-port
    nodes are permuted (intended for graphs with at most ~8 non-port
    nodes).
    """
    if len(g.nodes) != len(h.nodes) or len(g.edges) != len(h.edges):
        return False
    if g.type != h.type:
        return False
    port_map = dict(zip(g.ports, h.ports))
    if any(g.labels[p] != h.labels[port_map[p]] for p in g.ports):
        return False
    g_rest = sorted(g.nodes - set(g.ports))
    h_rest = sorted(h.nodes - set(h.ports))
    for perm in permutations(h_rest):
        m = dict(zip(g_rest, perm))
        if any(g.labels[v] != h.labels[m[v]] for v in g_rest):
            continue
        m.update(port_map)
        if {(m[s], l, m[t]) for s, l, t in g.edges} == h.edges:
            return True
    return False


def _naive_wl_colors(g: Graph) -> dict:
    """Stable 1-WL colouring, scanning every edge for every node."""
    port_index = {p: i for i, p in enumerate(g.ports)}
    out_deg = {v: 0 for v in g.nodes}
    in_deg = {v: 0 for v in g.nodes}
    for s, _l, t in g.edges:
        out_deg[s] += 1
        in_deg[t] += 1
    init = {
        v: (g.labels[v] or "", port_index.get(v, -1), out_deg[v], in_deg[v])
        for v in g.nodes
    }
    rank = {s: i for i, s in enumerate(sorted(set(init.values())))}
    color = {v: rank[init[v]] for v in g.nodes}
    for _round in range(len(g.nodes)):
        sig = {}
        for v in g.nodes:
            outs = sorted((l, color[t]) for s, l, t in g.edges if s == v)
            ins = sorted((l, color[s]) for s, l, t in g.edges if t == v)
            sig[v] = (color[v], tuple(outs), tuple(ins))
        rank = {s: i for i, s in enumerate(sorted(set(sig.values())))}
        new = {v: rank[sig[v]] for v in g.nodes}
        if len(set(new.values())) == len(set(color.values())):
            color = new
            break
        color = new
    return color


def _naive_certificate(g: Graph, order) -> tuple:
    pos = {v: i for i, v in enumerate(order)}
    labels = tuple(g.labels[v] or "" for v in order)
    edges = tuple(sorted((pos[s], l, pos[t]) for s, l, t in g.edges))
    return (len(order), g.type, labels, edges)


def naive_canonical_order(g: Graph):
    """The canonical order by a search without pruning: every level
    branches on every remaining node of the least signature, and the
    first leaf reaching the least certificate wins (factorial on graphs
    with k interchangeable nodes)."""
    fixed = list(g.ports)
    rest = sorted(g.nodes - set(fixed))
    if not rest:
        return tuple(fixed)

    color = _naive_wl_colors(g)
    out_adj = {v: [] for v in g.nodes}
    in_adj = {v: [] for v in g.nodes}
    for s, l, t in g.edges:
        out_adj[s].append((l, t))
        in_adj[t].append((l, s))

    best_cert = [None]
    best_order = [None]

    def node_sig(v, placed_pos):
        outs = sorted(
            (placed_pos[t], l) for l, t in out_adj[v] if t in placed_pos
        )
        ins = sorted(
            (placed_pos[s], l) for l, s in in_adj[v] if s in placed_pos
        )
        return (color[v], g.labels[v] or "", tuple(outs), tuple(ins))

    def search(order, placed_pos, remaining):
        if not remaining:
            cert = _naive_certificate(g, order)
            if best_cert[0] is None or cert < best_cert[0]:
                best_cert[0] = cert
                best_order[0] = tuple(order)
            return
        sigs = {v: node_sig(v, placed_pos) for v in remaining}
        min_sig = min(sigs.values())
        for v in sorted(u for u in remaining if sigs[u] == min_sig):
            placed_pos[v] = len(order)
            order.append(v)
            remaining.remove(v)
            search(order, placed_pos, remaining)
            remaining.add(v)
            order.pop()
            del placed_pos[v]

    placed = {v: i for i, v in enumerate(fixed)}
    search(list(fixed), placed, set(rest))
    return best_order[0]


def naive_canonical_key(g: Graph) -> str:
    """The canonical key from ``naive_canonical_order``."""
    return repr(_naive_certificate(g, naive_canonical_order(g)))


def enumerate_derivations(g: WeightedRtg, max_height: int):
    """All (tree, derivation weight) pairs derivable from the start
    nonterminal with height at most ``max_height``.  One pair per
    derivation, so the same tree may appear several times."""

    memo = {}

    def derive(nt: str, height: int):
        key = (nt, height)
        if key in memo:
            return memo[key]
        out = []
        if height >= 1:
            for p in g.productions:
                if p.lhs != nt:
                    continue
                child_lists = [derive(b, height - 1) for b in p.rhs]
                for combo in product(*child_lists):
                    t = DerivationTree(
                        p.symbol, tuple(c for c, _w in combo)
                    )
                    w = p.weight + sum(
                        (cw for _c, cw in combo), Fraction(0)
                    )
                    out.append((t, w))
        memo[key] = out
        return out

    return derive(g.start, max_height)


def derivation_count(g: WeightedRtg, max_height: int) -> int:
    """How many derivations enumerate_derivations would produce, via a
    cheap counting recurrence (used to skip intractable instances)."""
    memo = {}

    def count(nt: str, height: int) -> int:
        key = (nt, height)
        if key in memo:
            return memo[key]
        total = 0
        if height >= 1:
            for p in g.productions:
                if p.lhs != nt:
                    continue
                prod = 1
                for b in p.rhs:
                    prod *= count(b, height - 1)
                total += prod
        memo[key] = total
        return total

    return count(g.start, max_height)


def merge_identical_productions(g: WeightedRtg) -> WeightedRtg:
    """``g`` with each ``(lhs, symbol, rhs)`` production kept once, at
    its least weight: the grammar ``n_best_trees`` counts pops over."""
    least: Dict[tuple, Fraction] = {}
    for p in g.productions:
        key = (p.lhs, p.symbol, p.rhs)
        least[key] = min(least.get(key, p.weight), p.weight)
    return WeightedRtg(g.nonterminals, g.terminals, tuple(
        Production(lhs, symbol, rhs, w)
        for (lhs, symbol, rhs), w in least.items()), g.start)


def best_trees_by_enumeration(g: WeightedRtg, n: int, max_height: int,
                              max_weight: Optional[Fraction] = None):
    """The ``n`` least trees of height at most ``max_height`` derivable
    from the start nonterminal, each at the least weight of its
    derivations, sorted by (weight, node count, serialization); with
    ``max_weight``, only trees of at most that weight.

    Trees are enumerated bottom-up per (nonterminal, height bound), one
    entry per distinct serialization with its least weight: a tree's
    least derivation weight from ``A`` is a rule's weight plus the least
    weights of the children from its right-hand side.  Weights are
    non-negative, so a subtree above ``max_weight`` is dropped before it
    is combined.  Weights are integers over the common denominator of
    the rule weights."""
    scale = math.lcm(*(p.weight.denominator for p in g.productions))
    limit = None if max_weight is None else max_weight * scale
    by_lhs: Dict[str, list] = {}
    for p in g.productions:
        by_lhs.setdefault(p.lhs, []).append(p)
    memo: Dict[tuple, dict] = {}

    def trees(nt: str, height: int) -> dict:
        """Serialization -> (least weight, node count, tree)."""
        key = (nt, height)
        if key in memo:
            return memo[key]
        best = {}
        if height >= 1:
            for p in by_lhs.get(nt, ()):
                weight = int(p.weight * scale)
                kids = [list(trees(b, height - 1).items()) for b in p.rhs]
                for combo in product(*kids):
                    ser = (f"{p.symbol}({' '.join(s for s, _e in combo)})"
                           if combo else p.symbol)
                    w = weight + sum(e[0] for _s, e in combo)
                    if limit is not None and w > limit:
                        continue
                    if ser not in best or w < best[ser][0]:
                        best[ser] = (
                            w, 1 + sum(e[1] for _s, e in combo),
                            DerivationTree(p.symbol,
                                           tuple(e[2] for _s, e in combo)))
        memo[key] = best
        return best

    ranked = sorted((w, size, ser, t)
                    for ser, (w, size, t) in trees(g.start, max_height).items())
    return [(t, Fraction(w, scale)) for w, _size, _ser, t in ranked[:n]]


def _naive_best_completions(g: WeightedRtg):
    """Least (weight, node count) pair of a tree derivable from each
    nonterminal; None marks unproductive nonterminals."""
    best = {a: None for a in g.nonterminals}
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


# The best-first search over nested partial derivations, kept as it was
# before the search moved to flat derivation chains.  Unexpanded
# nonterminals appear as ("?", name) and applied productions as
# ("!", weight, symbol_name, children).


def _partial_bound(node, best):
    if node[0] == "?":
        return best[node[1]]
    w = node[1]
    s = 1
    for child in node[3]:
        cw, cs = _partial_bound(child, best)
        w += cw
        s += cs
    return (w, s)


def _expand_leftmost(node, by_lhs, best):
    if node[0] == "?":
        for p in by_lhs.get(node[1], ()):
            if any(best[b] is None for b in p.rhs):
                continue
            children = tuple(("?", b) for b in p.rhs)
            yield ("!", p.weight, p.symbol, children)
        return
    for i, child in enumerate(node[3]):
        if _has_open(child):
            for new_child in _expand_leftmost(child, by_lhs, best):
                yield (
                    "!",
                    node[1],
                    node[2],
                    node[3][:i] + (new_child,) + node[3][i + 1:],
                )
            return


def _has_open(node) -> bool:
    if node[0] == "?":
        return True
    return any(_has_open(c) for c in node[3])


def _to_tree(node) -> DerivationTree:
    return DerivationTree(node[2], tuple(_to_tree(c) for c in node[3]))


def naive_n_best_trees(g: WeightedRtg, n: int, budget: int = 10**6):
    """(the n best (tree, weight) pairs, heap pops) from the nested
    search; raises BudgetExceededError on pop ``budget + 1``."""
    best = _naive_best_completions(g)
    if best.get(g.start) is None:
        return [], 0
    by_lhs = {}
    for p in g.productions:
        by_lhs.setdefault(p.lhs, []).append(p)

    root = ("?", g.start)
    counter = 0
    heap = [(best[g.start], counter, root)]
    results = []
    seen = set()
    pending_level = None
    pending = []
    pops = 0

    def flush():
        nonlocal pending, pending_level
        for ser, t in sorted(pending):
            if ser in seen:
                continue
            seen.add(ser)
            results.append((t, pending_level[0]))
            if len(results) >= n:
                break
        pending = []
        pending_level = None

    while heap and len(results) < n:
        bound, _c, node = heapq.heappop(heap)
        pops += 1
        if pops > budget:
            raise BudgetExceededError(
                f"n-best search exceeded its budget of {budget} candidate "
                f"pops"
            )
        if pending_level is not None and bound > pending_level:
            flush()
            if len(results) >= n:
                break
        if not _has_open(node):
            t = _to_tree(node)
            if pending_level is None:
                pending_level = bound
            pending.append((t.serialize(), t))
            continue
        for succ in _expand_leftmost(node, by_lhs, best):
            counter += 1
            heapq.heappush(heap, (_partial_bound(succ, best), counter, succ))
    if pending and len(results) < n:
        flush()
    return results[:n], pops


def naive_evaluate(t: DerivationTree, a: Algebra):
    """Straight-from-definition recursive set evaluation without any
    intermediate deduplication."""
    op = a[t.label]
    if isinstance(op, EmptyConstant):
        return [empty_graph()]
    if isinstance(op, UnionOperation):
        left = naive_evaluate(t.children[0], a)
        right = naive_evaluate(t.children[1], a)
        return [
            disjoint_union(g, h)
            for g in left
            if g.type == op.left_arity
            for h in right
            if h.type == op.right_arity
        ]
    args = naive_evaluate(t.children[0], a) if t.children else [empty_graph()]
    out = []
    for g in args:
        if g.type != len(op.docks):
            continue
        for assignment in enumerate_context_assignments(op, g):
            out.append(apply_expansion(op, g, assignment))
    return out


def _draw(seed: int, tree_index: int, path: str, ctx_index: int, n: int) -> int:
    key = f"{seed}|{tree_index}|{path}|{ctx_index}".encode()
    digest = hashlib.sha256(key).digest()
    return int.from_bytes(digest[:8], "big") % n


def naive_sample(t: DerivationTree, a: Algebra, cfg: EvalConfig,
                 tree_index: int = 0, path: str = "r", diags=None):
    """(the graph sample mode draws for ``t``, or None; the
    ``zero-result:`` lines of its nodes in post-order), found by
    running the sample step on every node, as sample mode did before
    it skipped trees that yield no graph."""
    if diags is None:
        diags = []
    args = [naive_sample(c, a, cfg, tree_index, f"{path}.{i}", diags)[0]
            for i, c in enumerate(t.children)]
    op = a[t.label]
    if isinstance(op, EmptyConstant):
        return empty_graph(), diags
    if isinstance(op, UnionOperation):
        left, right = args
        if left is None or right is None:
            return None, diags
        if left.type != op.left_arity or right.type != op.right_arity:
            diags.append(
                f"zero-result: union {op.name!r} got argument types "
                f"({left.type}, {right.type}), expected "
                f"({op.left_arity}, {op.right_arity})"
            )
            return None, diags
        return disjoint_union(left, right), diags
    arg = args[0] if args else empty_graph()
    if arg is None:
        return None, diags
    if arg.type != len(op.docks):
        diags.append(
            f"zero-result: operation {op.name!r} needs an argument of "
            f"type {len(op.docks)}, got {arg.type}"
        )
        return None, diags
    assignment: Dict[str, str] = {}
    for i, (u, candidates) in enumerate(
        zip(op.context, context_candidates(op, arg))
    ):
        if cfg.injective_contexts:
            candidates = [v for v in candidates if v not in assignment.values()]
        if not candidates:
            diags.append(
                f"zero-result: operation {op.name!r} found no context "
                f"candidate with label {op.template.labels[u]!r}"
            )
            return None, diags
        pick = _draw(cfg.seed, tree_index, path, i, len(candidates))
        assignment[u] = candidates[pick]
    return apply_expansion(op, arg, assignment), diags


def _naive_check(t: DerivationTree, a: Algebra) -> Optional[str]:
    """The message of the first faulty node in preorder, if any."""
    stack = [t]
    while stack:
        node = stack.pop()
        if node.label not in a:
            return f"no operation defined for symbol {node.label!r}"
        op = a[node.label]
        if isinstance(op, UnionOperation):
            ranks = (2,)
        elif isinstance(op, EmptyConstant):
            ranks = (0,)
        elif op.docks:
            ranks = (1,)
        else:
            ranks = (0, 1)  # rank 0: applied to the empty graph
        if node.rank not in ranks:
            return (f"symbol {node.label!r} has rank {node.rank} but the "
                    f"operation allows ranks {ranks}")
        stack.extend(reversed(node.children))
    return None


def _naive_prefiltered(t: DerivationTree, a: Algebra, cfg: EvalConfig):
    """The (graphs, diagnostics) of a tree that the tree check or the
    required-operation filter drops before it is evaluated, or None."""
    problem = _naive_check(t, a)
    if problem is not None:
        return (), (f"error: {problem}",)
    if cfg.required_op is not None and all(
            node.label != cfg.required_op for node in t.walk()):
        return (), (
            f"required-op: tree does not use operation {cfg.required_op!r}",)
    return None


def _naive_size_filtered(t: DerivationTree, graphs, diags, cfg: EvalConfig):
    """(graphs, diagnostics) of a tree that yields ``graphs``: its
    ``zero-result:`` lines ``diags`` if it yields none, else the graphs
    whose node count, or with ``cfg.tree_size_bounds`` the tree's, lies
    inside ``-L``/``-H``, or the line that says which bound every one
    of them misses."""
    if not graphs:
        return (), tuple(diags)
    low, high = cfg.min_nodes, cfg.max_nodes

    def inside(n):
        return (low is None or n >= low) and (high is None or n <= high)

    if cfg.tree_size_bounds:
        what, n = "tree", len(list(t.walk()))
        kept = tuple(graphs) if inside(n) else ()
    else:
        what, n = "every graph", len(graphs[0].nodes)
        kept = tuple(g for g in graphs if inside(len(g.nodes)))
    if kept:
        return kept, tuple(diags)
    bound = (f"minimum is {low}" if low is not None and n < low
             else f"maximum is {high}")
    return (), (f"size-filtered: {what} has {n} nodes, {bound}",)


def naive_sample_corpus(trees, a: Algebra, cfg: EvalConfig):
    """Sample-mode ``evaluate_corpus`` as (graphs, diagnostics) per
    tree: the tree check and the required-operation filter, then
    ``naive_sample`` on every tree that passes them and the size filter
    on what it yields."""
    outcomes = []
    for index, t in enumerate(trees):
        dropped = _naive_prefiltered(t, a, cfg)
        if dropped is not None:
            outcomes.append(dropped)
            continue
        g, diags = naive_sample(t, a, cfg, index)
        outcomes.append(
            _naive_size_filtered(t, [] if g is None else [g], diags, cfg))
    return outcomes


def naive_enumerate(t: DerivationTree, a: Algebra, cfg: EvalConfig,
                    diags: List[str]) -> List[Graph]:
    """The graphs enumerate mode yields for ``t``, deduplicated by
    canonical key at every node, appending the ``zero-result:`` lines of
    its nodes to ``diags`` in post-order: every node of the tree is
    evaluated, as enumerate mode did before a pre-pass decided its
    diagnostics.  A node whose arguments yield graphs but none of the
    right type, or none with a candidate for every context node, gets
    the line ``naive_sample`` gives its first such argument graph.
    Raises ResultCapExceededError at the first set, in post-order,
    larger than ``cfg.result_cap``."""
    args = [naive_enumerate(c, a, cfg, diags) for c in t.children]
    op = a[t.label]
    if isinstance(op, EmptyConstant):
        return [empty_graph()]
    if isinstance(op, UnionOperation):
        left, right = args
        combined = [
            disjoint_union(g, h)
            for g in left
            if g.type == op.left_arity
            for h in right
            if h.type == op.right_arity
        ]
        if left and right and not combined:
            diags.append(
                f"zero-result: union {op.name!r} got argument types "
                f"({left[0].type}, {right[0].type}), expected "
                f"({op.left_arity}, {op.right_arity})")
        return _naive_capped(combined, cfg, t.label)
    arg_sets = args[0] if args else [empty_graph()]
    typed = [g for g in arg_sets if g.type == len(op.docks)]
    results: List[Graph] = []
    for g in typed:
        results.extend(
            apply_expansion_all(op, g, injective=cfg.injective_contexts))
    results = _naive_capped(results, cfg, t.label)
    if arg_sets and not typed:
        diags.append(
            f"zero-result: operation {op.name!r} needs an argument of "
            f"type {len(op.docks)}, got {arg_sets[0].type}")
    elif typed and not results:
        diags.append(
            f"zero-result: operation {op.name!r} found no context "
            f"candidate with label {_missing_label(op, typed[0], cfg)!r}")
    return results


def _missing_label(op, g: Graph, cfg: EvalConfig) -> Optional[str]:
    """The label of the first context node of ``op`` left without a
    candidate in ``g`` when each earlier one takes its first candidate,
    which under injectivity no later one may take."""
    taken = set()
    for u, candidates in zip(op.context, context_candidates(op, g)):
        if cfg.injective_contexts:
            candidates = [v for v in candidates if v not in taken]
        if not candidates:
            return op.template.labels[u]
        taken.add(candidates[0])
    return None


def _naive_capped(graphs, cfg: EvalConfig, symbol: str) -> List[Graph]:
    out: Dict[str, Graph] = {}
    for g in graphs:
        out.setdefault(canonical_key(g), g)
    if len(out) > cfg.result_cap:
        raise ResultCapExceededError(
            f"intermediate set at symbol {symbol!r} has {len(out)} graphs, "
            f"exceeding the cap of {cfg.result_cap}")
    return list(out.values())


def naive_enumerate_corpus(trees, a: Algebra, cfg: EvalConfig):
    """Enumerate-mode ``evaluate_corpus`` as (graphs, diagnostics) per
    tree: the tree check and the required-operation filter, the size
    filter on the one graph ``naive_sample`` draws, if any, then
    ``naive_enumerate`` on every tree that passes them, each tree
    evaluated alone, and the size filter on what it yields.  A tree
    that yields nothing is evaluated all the same, for the
    ``zero-result:`` lines of ``naive_enumerate``; one that yields
    graphs outside the bounds is not, since its sets can grow
    exponentially with its size.  A blown result cap is an error only
    for a tree that, evaluated again without the cap, yields a graph
    inside the size bounds; any other tree gets that evaluation's
    diagnostics."""
    uncapped = cfg.replace(result_cap=sys.maxsize)
    outcomes = []
    for t in trees:
        dropped = _naive_prefiltered(t, a, cfg)
        if dropped is None:
            drawn, _lines = naive_sample(t, a, cfg)
            if drawn is not None:
                kept, lines = _naive_size_filtered(t, [drawn], [], cfg)
                dropped = None if kept else (kept, lines)
        if dropped is not None:
            outcomes.append(dropped)
            continue
        diags: List[str] = []
        try:
            graphs = naive_enumerate(t, a, cfg, diags)
        except ResultCapExceededError as exc:
            diags = []
            kept, lines = _naive_size_filtered(
                t, naive_enumerate(t, a, uncapped, diags), diags, cfg)
            outcomes.append(((), (f"error: {exc}",)) if kept else (kept, lines))
            continue
        outcomes.append(_naive_size_filtered(t, graphs, diags, cfg))
    return outcomes


class _UnionFind:
    def __init__(self, items: Iterable[str]) -> None:
        self.parent = {x: x for x in items}

    def find(self, x: str) -> str:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: str, b: str) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            # Deterministic representative: smaller name wins.
            if rb < ra:
                ra, rb = rb, ra
            self.parent[rb] = ra


def union_find_apply_expansion(
    op: ExpansionOperation,
    arg: Graph,
    assignment: Mapping[str, str],
) -> Graph:
    """``apply_expansion`` as it was before fusion classes were built
    as stars: a union-find over all nodes, whose representative (the
    smaller name wins each union) names each class.  Kept verbatim but
    for the label-conflict error mode, which ``apply_expansion`` no
    longer has.

    Apply an expansion operation to an argument graph under a fixed
    context assignment.

    A labelled dock keeps its template label after fusion; an
    unlabelled (wildcard) dock inherits the argument port's label.  When
    a repeated wildcard dock merges argument ports whose labels differ,
    the earliest merged port's label wins.
    """
    if arg.type != len(op.docks):
        raise ExpansionTypeError(
            f"operation {op.name!r} needs an argument with {len(op.docks)} "
            f"ports, got {arg.type}"
        )
    used = set(arg.nodes)
    rename: Dict[str, str] = {}
    for i, v in enumerate(op.template.nodes):
        fresh = f"+{i}"
        while fresh in used:
            fresh = fresh + "'"
        rename[v] = fresh
        used.add(fresh)

    uf = _UnionFind(list(arg.nodes) + list(rename.values()))
    for i, dock in enumerate(op.docks):
        uf.union(rename[dock], arg.ports[i])
    for u, v in assignment.items():
        if v in set(arg.ports):
            raise ValueError(
                f"context node {u!r} mapped to argument port {v!r}"
            )
        if arg.labels[v] != op.template.labels[u]:
            raise ValueError(
                f"context node {u!r} mapped to node {v!r} with a "
                f"different label"
            )
        uf.union(rename[u], v)

    classes: Dict[str, List[str]] = {}
    for x in list(arg.nodes) + list(rename.values()):
        classes.setdefault(uf.find(x), []).append(x)

    template_labels = {rename[v]: op.template.labels[v] for v in op.template.nodes}
    arg_port_pos = {p: i for i, p in enumerate(arg.ports)}
    labels: Dict[str, Optional[str]] = {}
    for rep, members in classes.items():
        tmpl = sorted(
            {template_labels[m] for m in members if m in template_labels}
            - {None}
        )
        if tmpl:
            labels[rep] = tmpl[0]
            continue
        arg_members = [m for m in members if m in arg.nodes]
        port_members = sorted(
            (m for m in arg_members if m in arg_port_pos),
            key=lambda m: arg_port_pos[m],
        )
        ordered = port_members + sorted(set(arg_members) - set(port_members))
        labels[rep] = arg.labels[ordered[0]]

    edges = set()
    for s, l, t in arg.edges:
        edges.add((uf.find(s), l, uf.find(t)))
    for s, l, t in op.template.edges:
        edges.add((uf.find(rename[s]), l, uf.find(rename[t])))
    ports = tuple(uf.find(rename[p]) for p in op.ports)
    return Graph(edges, labels, ports)


def same_graph_set(xs, ys) -> bool:
    """Equality of two graph collections up to isomorphism (compared as
    sets, ignoring multiplicity)."""
    from gexpand import canonical_key

    return {canonical_key(g) for g in xs} == {canonical_key(g) for g in ys}


def dedup_brute_force(graphs):
    """Deduplicate a graph list using only the all-bijections check."""
    kept = []
    for g in graphs:
        if not any(brute_force_isomorphic(g, h) for h in kept):
            kept.append(g)
    return kept


def same_graph_set_brute_force(xs, ys) -> bool:
    """Set equality up to isomorphism using only the all-bijections
    check; quadratic, for small instances."""
    xs = dedup_brute_force(list(xs))
    ys = dedup_brute_force(list(ys))
    if len(xs) != len(ys):
        return False
    return all(any(brute_force_isomorphic(x, y) for y in ys) for x in xs)
