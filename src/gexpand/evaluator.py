"""Bottom-up evaluation of derivation trees over a graph expansion
algebra.

Enumerate mode materializes the full set-valued semantics (deduplicated
up to isomorphism at every level) and evaluates each distinct subtree
object once per corpus; sample mode draws one admissible context choice
per context node from a seeded, replayable stream.  In both modes one
pre-pass checks each distinct subtree once per corpus and decides its
diagnostics: it computes the node count every graph of the subtree has
and whether the required operation occurs, which the filters read, and
abstracts the subtree to its sample shape: port labels and non-port
label counts, which decide whether the subtree yields any graph and,
if not, the ``zero-result:`` lines.  Evaluation only builds graphs,
and either mode folds only the trees that yield a graph inside the
size bounds; any other tree gets the pre-pass's lines, even if a
subtree of it would exceed the result cap.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .algebra import (
    Algebra,
    EmptyConstant,
    ExpansionOperation,
    Operation,
    UnionOperation,
)
from .algebra import apply_expansion, apply_expansion_all, context_candidates
from .grammar import DerivationTree
from .graphs import Graph, canonical_key, disjoint_union, empty_graph


class EvaluationError(ValueError):
    pass


class ResultCapExceededError(RuntimeError):
    """An intermediate result set outgrew the configured cap."""


@dataclass(frozen=True)
class EvalConfig:
    mode: str = "sample"
    seed: int = 0
    result_cap: int = 10_000
    min_nodes: Optional[int] = None
    max_nodes: Optional[int] = None
    required_op: Optional[str] = None
    tree_size_bounds: bool = False
    injective_contexts: bool = False

    def __post_init__(self) -> None:
        if self.mode not in ("enumerate", "sample"):
            raise ValueError(f"bad mode: {self.mode!r}")
        # The messages name the command line's flags as well.
        if self.result_cap < 1:
            raise ValueError(
                f"result_cap must be at least 1 (--result-cap "
                f"{self.result_cap})")
        if (
            self.min_nodes is not None
            and self.max_nodes is not None
            and self.min_nodes > self.max_nodes
        ):
            raise ValueError(
                f"min_nodes exceeds max_nodes (-L/--min-nodes "
                f"{self.min_nodes} > -H/--max-nodes {self.max_nodes})")


@dataclass(frozen=True)
class EvalOutcome:
    source_tree: DerivationTree
    graphs: Tuple[Graph, ...]
    diagnostics: Tuple[str, ...] = ()


def _draw(seed: int, tree_index: int, path: str, ctx_index: int, n: int) -> int:
    """Counter-based uniform draw in range(n), keyed so that unrelated
    trees do not perturb each other's streams."""
    key = f"{seed}|{tree_index}|{path}|{ctx_index}".encode()
    digest = hashlib.sha256(key).digest()
    return int.from_bytes(digest[:8], "big") % n


def _dedup(graphs: Sequence[Graph]) -> List[Graph]:
    out: Dict[str, Graph] = {}
    for g in graphs:
        out.setdefault(canonical_key(g), g)
    return list(out.values())


def _enumerate_node(
    a: Algebra, cfg: EvalConfig, t: DerivationTree, _path: None, kids: list,
) -> Union[List[Graph], str]:
    """Memoized fold step of enumerate mode: every graph of node ``t``,
    given the graph sets of its children, or the message of the first
    result cap blown in its subtree, in post-order.  Only trees whose
    sample shape is not empty are folded, so every argument graph has
    the type the operation needs."""
    for kid in kids:
        if kid.__class__ is str:
            return kid
    op = a[t.label]
    if isinstance(op, EmptyConstant):
        return [empty_graph()]
    if isinstance(op, UnionOperation):
        left, right = kids
        graphs = _dedup([disjoint_union(g, h) for g in left for h in right])
    else:
        graphs = _dedup([
            r
            for g in (kids[0] if kids else [empty_graph()])
            for r in apply_expansion_all(op, g, injective=cfg.injective_contexts)
        ])
    if len(graphs) > cfg.result_cap:
        return (f"intermediate set at symbol {t.label!r} has {len(graphs)} "
                f"graphs, exceeding the cap of {cfg.result_cap}")
    return graphs


def _check_node(
    a: Algebra, cfg: EvalConfig, t: DerivationTree, _path: None, kids: list,
) -> Union[Tuple[int, int, int, bool, tuple], str]:
    """Memoized fold step of the pre-pass: for node ``t``'s subtree,
    (tree size, node count of every graph it yields, upper bound on
    that count from template sizes, uses ``cfg.required_op``, sample
    shape), or the check message of its first faulty node in preorder.

    The count is exact in both modes: an expansion's docks take exactly
    the argument's ports, and its context nodes fuse into non-ports the
    argument already has, so it adds its ports and docks as a set and
    loses one node per dock."""
    if t.label not in a:
        return f"unknown symbol {t.label!r} in tree"
    ranks = a.term_ranks(t.label)
    if t.rank not in ranks:
        return (f"symbol {t.label!r} used with {t.rank} children, "
                f"algebra allows {ranks}")
    size, count, upper, uses = 1, 0, 0, t.label == cfg.required_op
    op = a[t.label]
    if isinstance(op, ExpansionOperation):
        upper = len(op.template.nodes)
        count = len(set(op.ports) | set(op.docks)) - len(op.docks)
    for kid in kids:
        if kid.__class__ is str:
            return kid
        size += kid[0]
        count += kid[1]
        upper += kid[2]
        uses = uses or kid[3]
    return size, count, upper, uses, _shape(op, cfg, [kid[4] for kid in kids])


_NO_NODES: tuple = ((), {})


def _shape(op: Operation, cfg: EvalConfig, args: List[tuple]) -> tuple:
    """The sample shape of a node applying ``op`` to subtrees of the
    given shapes: (the labels of its ports in order, the label counts
    of its non-port nodes), which every graph the subtree yields has in
    either mode; or, when it yields none, (None, the ``zero-result:``
    lines ``cfg.mode`` reports, in post-order).  The label counts are
    never mutated, since memoized shapes are shared."""
    empty = [lines for ports, lines in args if ports is None]
    if empty:
        return None, tuple(line for lines in empty for line in lines)
    if isinstance(op, EmptyConstant):
        return _NO_NODES
    sample = cfg.mode == "sample"
    if isinstance(op, UnionOperation):
        (left, left_counts), (right, right_counts) = args
        if len(left) != op.left_arity or len(right) != op.right_arity:
            if not sample:
                return None, ()  # enumerate mode reports nothing here
            return None, (
                f"zero-result: union {op.name!r} got argument types "
                f"({len(left)}, {len(right)}), expected "
                f"({op.left_arity}, {op.right_arity})",)
        counts = dict(left_counts)
        for label, n in right_counts.items():
            counts[label] = counts.get(label, 0) + n
        return left + right, counts
    port_labels, arg_counts = args[0] if args else _NO_NODES
    if len(port_labels) != len(op.docks):
        if not sample:
            return None, (
                f"zero-result: operation {op.name!r} received no argument "
                f"of type {len(op.docks)}",)
        return None, (
            f"zero-result: operation {op.name!r} needs an argument of "
            f"type {len(op.docks)}, got {len(port_labels)}",)
    # Under injectivity the j-th context node with label l has the
    # count(l) - j candidates the earlier ones with label l left.
    drawn: Dict[str, int] = {}
    for u in op.context:
        label = op.template.labels[u]
        taken = drawn.get(label, 0) if cfg.injective_contexts else 0
        if arg_counts.get(label, 0) <= taken:
            if not sample:
                needed = ", ".join(
                    sorted({op.template.labels[v] or "?" for v in op.context}))
                return None, (
                    f"zero-result: operation {op.name!r} found no context "
                    f"candidate (labels needed: {needed})",)
            return None, (
                f"zero-result: operation {op.name!r} found no context "
                f"candidate with label {label!r}",)
        drawn[label] = drawn.get(label, 0) + 1

    def label_of(v: str) -> str:
        # A wildcard dock takes the label of the first port fused in.
        label = op.template.labels[v]
        return port_labels[op.docks.index(v)] if label is None else label

    counts = dict(arg_counts)
    for v in set(op.docks) - set(op.ports):
        label = label_of(v)
        counts[label] = counts.get(label, 0) + 1
    return tuple(label_of(v) for v in op.ports), counts


def _sample_node(
    a: Algebra,
    cfg: EvalConfig,
    tree_index: int,
    t: DerivationTree,
    path: str,
    args: List[Graph],
) -> Graph:
    """Fold step of sample mode: one graph of node ``t``, given one
    graph per child; draws are keyed by the node's path.  Only trees
    whose sample shape is not empty are folded, so every argument has
    the right type and every context node a candidate."""
    op = a[t.label]
    if isinstance(op, EmptyConstant):
        return empty_graph()
    if isinstance(op, UnionOperation):
        return disjoint_union(*args)
    arg = args[0] if args else empty_graph()
    assignment: Dict[str, str] = {}
    for i, (u, candidates) in enumerate(
        zip(op.context, context_candidates(op, arg))
    ):
        # Injectivity drops targets already drawn before each draw;
        # enumerate mode drops whole non-injective combinations instead.
        if cfg.injective_contexts:
            candidates = [v for v in candidates if v not in assignment.values()]
        pick = _draw(cfg.seed, tree_index, path, i, len(candidates))
        assignment[u] = candidates[pick]
    return apply_expansion(op, arg, assignment)


def evaluate(
    t: DerivationTree, a: Algebra, cfg: EvalConfig, tree_index: int = 0
) -> EvalOutcome:
    """Evaluate one derivation tree into graphs.

    Zero graphs is a valid outcome (reported through diagnostics, never
    a hard error); unknown symbols, arity mismatches, and a result cap
    blown in a tree that yields a graph inside the size bounds do raise.
    """
    return _evaluate(t, a, cfg, tree_index, {}, {})


def _evaluate(
    t: DerivationTree, a: Algebra, cfg: EvalConfig, tree_index: int,
    checks: dict, memo: dict,
) -> EvalOutcome:
    """``evaluate``, sharing the pre-pass values of subtrees through
    ``checks`` and their enumerate-mode values through ``memo``."""
    info = t.fold(partial(_check_node, a, cfg), checks)
    if info.__class__ is str:
        raise EvaluationError(info)
    size, count, upper, uses_required_op, (ports, lines) = info
    low, high = cfg.min_nodes, cfg.max_nodes

    if cfg.required_op is not None and not uses_required_op:
        return EvalOutcome(t, (), (
            f"required-op: tree does not use operation {cfg.required_op!r}",))
    if cfg.tree_size_bounds:
        if low is not None and size < low:
            return EvalOutcome(t, (), (
                f"size-filtered: tree has {size} nodes, minimum is {low}",))
        if high is not None and size > high:
            return EvalOutcome(t, (), (
                f"size-filtered: tree has {size} nodes, maximum is {high}",))
    elif high is not None and count > high:
        return EvalOutcome(t, (), (
            f"size-filtered: every result has at least {count} nodes, "
            f"maximum is {high}",))
    elif low is not None and upper < low:
        return EvalOutcome(t, (), (
            f"size-filtered: every result has at most {upper} nodes, "
            f"minimum is {low}",))

    if ports is None:
        return EvalOutcome(t, (), lines)
    if not cfg.tree_size_bounds and low is not None and count < low:
        return EvalOutcome(t, (), (
            f"size-filtered: all evaluated graphs fall outside "
            f"[{low}, {high}]",))
    if cfg.mode == "sample":
        graphs = [t.fold(partial(_sample_node, a, cfg, tree_index))]
    else:
        graphs = t.fold(partial(_enumerate_node, a, cfg), memo)
        if graphs.__class__ is str:
            raise ResultCapExceededError(graphs)
    return EvalOutcome(t, tuple(graphs))


def evaluate_corpus(
    trees: Sequence[DerivationTree],
    a: Algebra,
    cfg: EvalConfig,
    parallel: bool = False,
    dedup_across_trees: bool = False,
) -> List[EvalOutcome]:
    """Evaluate trees independently, preserving input order.

    Each distinct subtree object is checked once for the whole corpus,
    and in enumerate mode each one that a yielding tree holds is
    evaluated once; the outcomes equal those of ``evaluate`` on each
    tree alone.  Per-tree evaluation errors become diagnostics instead
    of aborting the corpus.  ``parallel`` is accepted for compatibility
    and has no effect: trees are evaluated one after another.
    """
    # ``trees`` keeps every node alive, so the ids in the memos stay valid.
    checks: dict = {}
    memo: dict = {}
    outcomes = []
    for index, t in enumerate(trees):
        try:
            outcomes.append(_evaluate(t, a, cfg, index, checks, memo))
        except (EvaluationError, ResultCapExceededError) as exc:
            outcomes.append(EvalOutcome(t, (), (f"error: {exc}",)))

    if dedup_across_trees:
        seen = set()
        deduped = []
        for outcome in outcomes:
            kept = []
            for g in outcome.graphs:
                key = canonical_key(g)
                if key in seen:
                    continue
                seen.add(key)
                kept.append(g)
            deduped.append(replace(outcome, graphs=tuple(kept)))
        outcomes = deduped
    return outcomes
