"""Bottom-up evaluation of derivation trees over a graph expansion
algebra.

Enumerate mode materializes the full set-valued semantics (deduplicated
up to isomorphism at every level) and evaluates each distinct subtree
object once per corpus; sample mode draws one admissible context choice
per context node from a seeded, replayable stream, keyed by the node's
position, and evaluates each distinct forced subtree (one in which no
context node has more than one candidate, so nothing is drawn) once per
corpus.  In both modes one pre-pass checks each distinct subtree once
per corpus and abstracts it to its sample shape: port labels and
non-port label counts, which decide whether the subtree yields any
graph and, if not, the ``zero-result:`` lines, and whether it is
forced; its port count plus its label counts is the node count of
every graph of the subtree.  ``required_op`` and ``tree_size_bounds``
read the tree itself.  Evaluation only builds graphs, and either mode
folds only the trees that yield a graph inside the size bounds; any
other tree gets the same lines in both modes, even if a subtree of it
would exceed the result cap: a ``required-op:`` line, else its
``zero-result:`` lines, else a ``size-filtered:`` line.
"""

from __future__ import annotations

import sys
from functools import partial
from typing import Dict, List, Sequence, Tuple, Union

from ._record import Record
from .algebra import (
    Algebra,
    Operation,
    UnionOperation,
    apply_expansion,
    apply_expansion_all,
    context_candidates,
    dedup,
)
from .grammar import DerivationTree
from .graphs import Graph, canonical_key, disjoint_union, empty_graph


class EvaluationError(ValueError):
    pass


class ResultCapExceededError(RuntimeError):
    """An intermediate result set outgrew the configured cap."""


class ConfigError(ValueError):
    """A setting no run can take, or an input the CLI refuses."""


class EvalConfig(Record):
    """The evaluation settings; every field has a default."""

    __slots__ = ("mode", "seed", "result_cap", "min_nodes", "max_nodes",
                 "required_op", "tree_size_bounds", "injective_contexts",
                 "dedup_across_trees")
    _defaults = {"mode": "sample", "seed": 0, "result_cap": 10_000,
                 "min_nodes": None, "max_nodes": None, "required_op": None,
                 "tree_size_bounds": False, "injective_contexts": False,
                 "dedup_across_trees": False}

    def __post_init__(self) -> None:
        if self.mode not in ("enumerate", "sample"):
            raise ConfigError(f"bad mode: {self.mode!r}")
        # The messages name the command line's flags as well.
        if self.result_cap < 1:
            raise ConfigError(
                f"result_cap must be at least 1 (--result-cap "
                f"{self.result_cap})")
        if (
            self.min_nodes is not None
            and self.max_nodes is not None
            and self.min_nodes > self.max_nodes
        ):
            raise ConfigError(
                f"min_nodes exceeds max_nodes (-L/--min-nodes "
                f"{self.min_nodes} > -H/--max-nodes {self.max_nodes})")


class EvalOutcome(Record):
    """The graphs one tree yields, as a tuple, and the tuple of its
    diagnostic lines."""

    __slots__ = ("source_tree", "graphs", "diagnostics")
    _defaults = {"diagnostics": ()}


def _builtin_sha256():
    """The interpreter's builtin SHA-256 constructor, the one ``hashlib``
    falls back to without OpenSSL: the digests are the same, but the
    import maps no libcrypto.  ``hashlib`` serves only a build that
    lacks the builtin module.  Looked up at each draw, so that a run
    that draws nothing imports neither."""
    try:
        if sys.version_info >= (3, 12):
            from _sha2 import sha256
        else:
            from _sha256 import sha256
    except ImportError:
        from hashlib import sha256
    return sha256


def _draw(seed: int, tree_index: int, path: str, ctx_index: int, n: int) -> int:
    """Counter-based uniform draw in range(n), keyed so that unrelated
    trees do not perturb each other's streams."""
    key = f"{seed}|{tree_index}|{path}|{ctx_index}".encode()
    digest = _builtin_sha256()(key).digest()
    return int.from_bytes(digest[:8], "big") % n


def _enumerate_node(
    a: Algebra, cfg: EvalConfig, t: DerivationTree, _path: str, kids: list,
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
    if isinstance(op, UnionOperation):
        left, right = kids
        graphs = dedup([disjoint_union(g, h) for g in left for h in right])
    else:
        graphs = dedup([
            r
            for g in (kids[0] if kids else [empty_graph()])
            for r in apply_expansion_all(op, g, injective=cfg.injective_contexts)
        ])
    if len(graphs) > cfg.result_cap:
        return (f"intermediate set at symbol {t.label!r} has {len(graphs)} "
                f"graphs, exceeding the cap of {cfg.result_cap}")
    return graphs


def _check_node(
    a: Algebra, cfg: EvalConfig, t: DerivationTree, _path: str, kids: list,
) -> Union[Tuple[tuple, bool], str]:
    """Memoized fold step of the pre-pass: for node ``t``'s subtree,
    (sample shape, forced), or the check message of its first faulty
    node in preorder.  A subtree is forced when every context node of
    every expansion in it has exactly one candidate: sample mode then
    draws nothing in it, and it yields the same graph, node names
    included, at every position of every tree."""
    fault = a.fault(t.label, t.rank)
    if fault is not None:
        return fault
    for kid in kids:
        if kid.__class__ is str:
            return kid
    shape, single = _shape(a[t.label], cfg, [kid[0] for kid in kids])
    return shape, single and all(kid[1] for kid in kids)


_NO_NODES: tuple = ((), {})


def _shape(
    op: Operation, cfg: EvalConfig, args: List[tuple]
) -> Tuple[tuple, bool]:
    """The sample shape of a node applying ``op`` to subtrees of the
    given shapes: (the labels of its ports in order, the label counts
    of its non-port nodes), which every graph the subtree yields has in
    either mode; or, when it yields none, (None, its ``zero-result:``
    lines in post-order).  Paired with it, whether
    each of the node's context nodes has exactly one candidate.  The
    label counts are never mutated, since memoized shapes are shared."""
    empty = [shape for shape in args if shape[0] is None]
    if len(empty) == 1:
        # Shared, not rebuilt at each ancestor.
        return empty[0], False
    if empty:
        # Both arguments of a union.
        return (None, empty[0][1] + empty[1][1]), False
    if isinstance(op, UnionOperation):
        (left, left_counts), (right, right_counts) = args
        if len(left) != op.left_arity or len(right) != op.right_arity:
            return (None, (
                f"zero-result: union {op.name!r} got argument types "
                f"({len(left)}, {len(right)}), expected "
                f"({op.left_arity}, {op.right_arity})",)), False
        counts = dict(left_counts)
        for label, n in right_counts.items():
            counts[label] = counts.get(label, 0) + n
        return (left + right, counts), True
    port_labels, arg_counts = args[0] if args else _NO_NODES
    if len(port_labels) != len(op.docks):
        return (None, (
            f"zero-result: operation {op.name!r} needs an argument of "
            f"type {len(op.docks)}, got {len(port_labels)}",)), False
    # Under injectivity the j-th context node with label l has the
    # count(l) - j candidates the earlier ones with label l left.
    drawn: Dict[str, int] = {}
    single = True
    for u in op.context:
        label = op.template.labels[u]
        taken = drawn.get(label, 0) if cfg.injective_contexts else 0
        candidates = arg_counts.get(label, 0) - taken
        if candidates < 1:
            return (None, (
                f"zero-result: operation {op.name!r} found no context "
                f"candidate with label {label!r}",)), False
        single = single and candidates == 1
        drawn[label] = drawn.get(label, 0) + 1

    def label_of(v: str) -> str:
        # A wildcard dock takes the label of the first port fused in.
        label = op.template.labels[v]
        return port_labels[op.docks.index(v)] if label is None else label

    counts = dict(arg_counts)
    for v in set(op.docks) - set(op.ports):
        label = label_of(v)
        counts[label] = counts.get(label, 0) + 1
    return (tuple(label_of(v) for v in op.ports), counts), single


def _sample_node(
    a: Algebra,
    cfg: EvalConfig,
    tree_index: int,
    t: DerivationTree,
    path: str,
    args: List[Graph],
) -> Graph:
    """Fold step of sample mode: one graph of node ``t``, given one
    graph per child; draws are keyed by the node's path, and a context
    node with one candidate takes it without a draw.  Only trees whose
    sample shape is not empty are folded, so every argument has the
    right type and every context node a candidate."""
    op = a[t.label]
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
        # A draw among one candidate is 0, so it is skipped.
        pick = (0 if len(candidates) == 1 else
                _draw(cfg.seed, tree_index, path, i, len(candidates)))
        assignment[u] = candidates[pick]
    return apply_expansion(op, arg, assignment)


def evaluate(
    t: DerivationTree, a: Algebra, cfg: EvalConfig, tree_index: int = 0
) -> EvalOutcome:
    """Evaluate one derivation tree into graphs.

    Zero graphs is a valid outcome (reported through diagnostics, never
    a hard error); a node that ``Algebra.fault`` rejects and a result cap
    blown in a tree that yields a graph inside the size bounds do raise.
    """
    return _evaluate(t, a, cfg, tree_index, {}, {})


def _evaluate(
    t: DerivationTree, a: Algebra, cfg: EvalConfig, tree_index: int,
    checks: dict, memo: dict,
) -> EvalOutcome:
    """``evaluate``, sharing the pre-pass values of subtrees through
    ``checks``, and through ``memo`` their enumerate-mode values or the
    sample-mode values of forced subtrees."""
    info = t.fold(partial(_check_node, a, cfg), checks)
    if info.__class__ is str:
        raise EvaluationError(info)
    (ports, counts), _forced = info
    if cfg.required_op is not None and all(
            node.label != cfg.required_op for node in t.walk()):
        return EvalOutcome(t, (), (
            f"required-op: tree does not use operation {cfg.required_op!r}",))
    if ports is None:
        # An empty shape holds the tree's ``zero-result:`` lines.
        return EvalOutcome(t, (), counts)
    what, n = (("tree", t.size()) if cfg.tree_size_bounds
               else ("every graph", len(ports) + sum(counts.values())))
    low, high = cfg.min_nodes, cfg.max_nodes
    if low is not None and n < low:
        return EvalOutcome(t, (), (
            f"size-filtered: {what} has {n} nodes, minimum is {low}",))
    if high is not None and n > high:
        return EvalOutcome(t, (), (
            f"size-filtered: {what} has {n} nodes, maximum is {high}",))
    if cfg.mode == "sample":
        # A forced subtree draws nothing, so its graph is shared; any
        # other node's draws are keyed by its path in this tree.
        graphs = [t.fold(partial(_sample_node, a, cfg, tree_index), memo,
                         lambda node: checks[id(node)][1])]
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
) -> List[EvalOutcome]:
    """Evaluate trees independently, preserving input order.

    Each distinct subtree object is checked once for the whole corpus,
    and each one that a yielding tree holds is evaluated once, in
    enumerate mode, or in sample mode when it is forced; the outcomes
    equal those of ``evaluate`` on each tree alone.  A subtree's memo
    entries are dropped once the last tree that holds it is done.
    Per-tree evaluation errors become diagnostics instead of aborting
    the corpus.  With ``cfg.dedup_across_trees``, each tree's graphs are
    filtered as soon as it is evaluated: one isomorphic to a graph an
    earlier tree yields is dropped; ``evaluate`` ignores that field.
    Trees are evaluated one after another: ``parallel`` is ignored, and
    kept only because the benchmark passes it.
    """
    # ``trees`` keeps every node alive, so the ids in the memos stay valid.
    checks: dict = {}
    memo: dict = {}
    last_uses = _last_uses(trees)
    seen = set()
    outcomes = []
    for index, t in enumerate(trees):
        try:
            outcome = _evaluate(t, a, cfg, index, checks, memo)
        except (EvaluationError, ResultCapExceededError) as exc:
            outcome = EvalOutcome(t, (), (f"error: {exc}",))
        for node_id in last_uses.pop():
            del checks[node_id]
            memo.pop(node_id, None)
        if cfg.dedup_across_trees:
            kept = []
            for g in outcome.graphs:
                key = canonical_key(g)
                if key not in seen:
                    seen.add(key)
                    kept.append(g)
            outcome = outcome.replace(graphs=tuple(kept))
        outcomes.append(outcome)
    return outcomes


def _last_uses(trees: Sequence[DerivationTree]) -> List[List[int]]:
    """For each tree, last to first, the ids of the distinct subtree
    objects that no later tree holds: a walk of the trees from the end
    meets each subtree object first in the last tree that holds it."""
    seen: set = set()
    return [[id(node) for node in t.walk(seen)] for t in reversed(trees)]
