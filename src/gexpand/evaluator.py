"""Bottom-up evaluation of derivation trees over a graph expansion
algebra.

Enumerate mode materializes the full set-valued semantics (deduplicated
up to isomorphism at every level) and evaluates each distinct subtree
object once per corpus; sample mode draws one admissible context choice
per context node from a seeded, replayable stream.  In both modes one
pre-pass checks each distinct subtree once per corpus, sums what the
size and required-operation filters read, and abstracts the subtree to
its sample shape: port labels and non-port label counts, which decide
whether sample mode yields a graph.  Sample mode only draws on trees
that do.
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
        if self.result_cap < 1:
            raise ValueError("result_cap must be at least 1")
        if (
            self.min_nodes is not None
            and self.max_nodes is not None
            and self.min_nodes > self.max_nodes
        ):
            raise ValueError("min_nodes exceeds max_nodes")


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
    a: Algebra,
    cfg: EvalConfig,
    diags: List[str],
    t: DerivationTree,
    args: List[List[Graph]],
) -> List[Graph]:
    """Step of enumerate mode: every graph of node ``t``, given the
    graph sets of its children."""
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
        return _capped(_dedup(combined), cfg, t.label)
    arg_sets = args[0] if args else [empty_graph()]
    results: List[Graph] = []
    any_type_ok = False
    for g in arg_sets:
        if g.type != len(op.docks):
            continue
        any_type_ok = True
        results.extend(
            apply_expansion_all(op, g, injective=cfg.injective_contexts)
        )
    results = _capped(_dedup(results), cfg, t.label)
    if not results:
        if any_type_ok and op.context:
            missing = ", ".join(
                sorted({op.template.labels[u] or "?" for u in op.context})
            )
            diags.append(
                f"zero-result: operation {op.name!r} found no context "
                f"candidate (labels needed: {missing})"
            )
        elif not any_type_ok and arg_sets:
            diags.append(
                f"zero-result: operation {op.name!r} received no argument "
                f"of type {len(op.docks)}"
            )
    return results


def _enumerate_step(
    a: Algebra,
    cfg: EvalConfig,
    t: DerivationTree,
    _path: None,
    kids: list,
) -> Union[Tuple[List[Graph], Tuple[str, ...]], str]:
    """Memoized fold step of enumerate mode: node ``t``'s graphs and the
    diagnostics of its whole subtree in post-order, or the message of
    the first result cap blown in its subtree, in post-order."""
    for kid in kids:
        if kid.__class__ is str:
            return kid
    own: List[str] = []
    try:
        graphs = _enumerate_node(a, cfg, own, t, [g for g, _d in kids])
    except ResultCapExceededError as exc:
        return str(exc)
    return graphs, tuple(d for _g, ds in kids for d in ds) + tuple(own)


def _check_node(
    a: Algebra, cfg: EvalConfig, t: DerivationTree, _path: None, kids: list,
) -> Union[Tuple[int, int, int, bool, tuple], str]:
    """Memoized fold step of the pre-pass: for node ``t``'s subtree,
    (tree size, lower and upper bound on output node count from
    template sizes, uses ``cfg.required_op``, sample shape), or the
    check message of its first faulty node in preorder.

    The sample shape is what the graph sample mode draws for the
    subtree has in common whatever the draws: (the labels of its ports
    in order, the label counts of its non-port nodes); or, when sample
    mode yields no graph, (None, the ``zero-result:`` lines it reports,
    in post-order)."""
    if t.label not in a:
        return f"unknown symbol {t.label!r} in tree"
    ranks = a.term_ranks(t.label)
    if t.rank not in ranks:
        return (f"symbol {t.label!r} used with {t.rank} children, "
                f"algebra allows {ranks}")
    size, lower, upper, uses = 1, 0, 0, t.label == cfg.required_op
    op = a[t.label]
    if isinstance(op, ExpansionOperation):
        upper = len(op.template.nodes)
        dups = len(op.docks) - len(set(op.docks))
        lower = max(0, len(op.new_nodes) - dups)
    for kid in kids:
        if kid.__class__ is str:
            return kid
        size += kid[0]
        lower += kid[1]
        upper += kid[2]
        uses = uses or kid[3]
    return size, lower, upper, uses, _shape(
        op, cfg.injective_contexts, [kid[4] for kid in kids])


_NO_NODES: tuple = ((), {})


def _shape(op: Operation, injective: bool, args: List[tuple]) -> tuple:
    """The sample shape of a node applying ``op`` to subtrees of the
    given shapes; the non-port label counts are never mutated, since
    memoized shapes are shared."""
    empty = [lines for ports, lines in args if ports is None]
    if empty:
        return None, tuple(line for lines in empty for line in lines)
    if isinstance(op, EmptyConstant):
        return _NO_NODES
    if isinstance(op, UnionOperation):
        (left, left_counts), (right, right_counts) = args
        if len(left) != op.left_arity or len(right) != op.right_arity:
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
        return None, (
            f"zero-result: operation {op.name!r} needs an argument of "
            f"type {len(op.docks)}, got {len(port_labels)}",)
    # Under injectivity the j-th context node with label l has the
    # count(l) - j candidates the earlier ones with label l left.
    drawn: Dict[str, int] = {}
    for u in op.context:
        label = op.template.labels[u]
        taken = drawn.get(label, 0) if injective else 0
        if arg_counts.get(label, 0) <= taken:
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


def _capped(graphs: List[Graph], cfg: EvalConfig, symbol: str) -> List[Graph]:
    if cfg.mode == "enumerate" and len(graphs) > cfg.result_cap:
        raise ResultCapExceededError(
            f"intermediate set at symbol {symbol!r} has {len(graphs)} "
            f"graphs, exceeding the cap of {cfg.result_cap}"
        )
    return graphs


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
    a hard error); unknown symbols, arity mismatches, and a blown
    result cap do raise.
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
    size, lower, upper, uses_required_op, (ports, lines) = info
    diags: List[str] = []

    if cfg.required_op is not None and not uses_required_op:
        diags.append(
            f"required-op: tree does not use operation {cfg.required_op!r}"
        )
        return EvalOutcome(t, (), tuple(diags))

    if cfg.tree_size_bounds:
        if cfg.min_nodes is not None and size < cfg.min_nodes:
            diags.append(f"size-filtered: tree has {size} nodes, minimum is {cfg.min_nodes}")
            return EvalOutcome(t, (), tuple(diags))
        if cfg.max_nodes is not None and size > cfg.max_nodes:
            diags.append(f"size-filtered: tree has {size} nodes, maximum is {cfg.max_nodes}")
            return EvalOutcome(t, (), tuple(diags))
    else:
        if cfg.max_nodes is not None and lower > cfg.max_nodes:
            diags.append(
                f"size-filtered: every result has at least {lower} nodes, "
                f"maximum is {cfg.max_nodes}"
            )
            return EvalOutcome(t, (), tuple(diags))
        if cfg.min_nodes is not None and upper < cfg.min_nodes:
            diags.append(
                f"size-filtered: every result has at most {upper} nodes, "
                f"minimum is {cfg.min_nodes}"
            )
            return EvalOutcome(t, (), tuple(diags))

    if cfg.mode == "enumerate":
        # An empty sample shape means no graph here either, but enumerate
        # mode still evaluates the tree: a subtree below the node that
        # yields nothing may exceed the result cap, and that makes the
        # outcome an error.
        value = t.fold(partial(_enumerate_step, a, cfg), memo)
        if value.__class__ is str:
            raise ResultCapExceededError(value)
        graphs, subtree_diags = value
        diags.extend(subtree_diags)
    elif ports is None:
        diags.extend(lines)
        graphs = []
    else:
        graphs = [t.fold(partial(_sample_node, a, cfg, tree_index))]

    if not cfg.tree_size_bounds:
        kept = []
        for g in graphs:
            n = len(g.nodes)
            if cfg.min_nodes is not None and n < cfg.min_nodes:
                continue
            if cfg.max_nodes is not None and n > cfg.max_nodes:
                continue
            kept.append(g)
        if graphs and not kept:
            diags.append(
                "size-filtered: all evaluated graphs fall outside "
                f"[{cfg.min_nodes}, {cfg.max_nodes}]"
            )
        graphs = kept
    return EvalOutcome(t, tuple(graphs), tuple(diags))


def evaluate_corpus(
    trees: Sequence[DerivationTree],
    a: Algebra,
    cfg: EvalConfig,
    parallel: bool = False,
    dedup_across_trees: bool = False,
) -> List[EvalOutcome]:
    """Evaluate trees independently, preserving input order.

    Each distinct subtree object is checked, and in enumerate mode
    evaluated, once for the whole corpus; the outcomes equal those of
    ``evaluate`` on each tree alone.  Per-tree evaluation errors become
    diagnostics instead of aborting the corpus.  ``parallel`` is
    accepted for compatibility and has no effect: trees are evaluated
    one after another.
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
