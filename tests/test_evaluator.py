"""Tests for bottom-up evaluation in enumerate and sample modes."""

import random
import re
import warnings
from functools import partial
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gexpand import (
    BudgetExceededError,
    DerivationTree,
    EvalConfig,
    EvaluationError,
    ExpansionOperation,
    ResultCapExceededError,
    canonical_key,
    emit_gv,
    evaluate,
    evaluate_corpus,
    is_isomorphic,
    n_best_trees,
    parse_operation_file,
    parse_rtg,
    parse_tree,
    parse_tree_file,
)
from gexpand import evaluator, graphs
from fixtures import (
    BRANCHING_OPS,
    BRANCHING_TREE_TEXT,
    EMPTY_OPS,
    MERGE_OPS,
    RUNNING_OPS,
    RUNNING_TREE_TEXT,
    running_result_graph,
)
from generators import (
    random_algebra_and_tree,
    random_algebra_for,
    random_grammar,
    total_context_nodes,
)
from oracles import (
    naive_enumerate_corpus,
    naive_evaluate,
    naive_sample,
    naive_sample_corpus,
    same_graph_set,
)

seeds = st.integers(0, 10**9)

RUNNING_TREE = parse_tree_file(RUNNING_TREE_TEXT)[0]

BRANCHING_TREE = parse_tree_file(BRANCHING_TREE_TEXT)[0]


def running_algebra():
    return parse_operation_file(RUNNING_OPS)


def branching_algebra():
    return parse_operation_file(BRANCHING_OPS)


class TestEnumerate:
    def test_running_example_yields_exactly_the_expected_graph(self):
        out = evaluate(RUNNING_TREE, running_algebra(), EvalConfig(mode="enumerate"))
        assert len(out.graphs) == 1
        assert is_isomorphic(out.graphs[0], running_result_graph())

    def test_union_subtree_gives_two_port_pair(self):
        out = evaluate(
            parse_tree("op3(op4 op5)"),
            running_algebra(),
            EvalConfig(mode="enumerate"),
        )
        (g,) = out.graphs
        assert len(g.nodes) == 2 and not g.edges
        assert [g.labels[p] for p in g.ports] == ["she", "they"]

    def test_branching_algebra_yields_two_graphs(self):
        out = evaluate(
            BRANCHING_TREE, branching_algebra(), EvalConfig(mode="enumerate")
        )
        assert len(out.graphs) == 2
        keys = {canonical_key(g) for g in out.graphs}
        assert len(keys) == 2

    def test_result_cap_exceeded_raises(self):
        with pytest.raises(ResultCapExceededError):
            evaluate(
                BRANCHING_TREE,
                branching_algebra(),
                EvalConfig(mode="enumerate", result_cap=1),
            )

    def test_unknown_symbol_raises(self):
        with pytest.raises(EvaluationError):
            evaluate(parse_tree("nope"), running_algebra(), EvalConfig())

    def test_arity_mismatch_raises(self):
        with pytest.raises(EvaluationError):
            evaluate(parse_tree("op3(op4)"), running_algebra(), EvalConfig())

    @pytest.mark.parametrize("mode", ["enumerate", "sample"])
    @pytest.mark.parametrize("text, message", [
        ("bad1(bad2)", "no operation defined for symbol 'bad1'"),
        ("op2(op3(op4 bad op5))",
         r"symbol 'op3' has rank 3 but the operation allows ranks \(2,\)"),
        ("op3(op2(bad) bad2)", "no operation defined for symbol 'bad'"),
    ])
    def test_first_faulty_node_in_preorder_is_reported(
            self, mode, text, message):
        with pytest.raises(EvaluationError, match=f"^{message}$"):
            evaluate(parse_tree(text), running_algebra(), EvalConfig(mode=mode))

    def test_missing_context_label_warns_with_zero_graphs(self):
        # op1's context node is labelled she, but the argument comes
        # from op5/op5, which only produces they-nodes.
        tree = parse_tree("op1(op2(op3(op5 op5)))")
        out = evaluate(tree, running_algebra(), EvalConfig(mode="enumerate"))
        assert out.graphs == ()
        assert any(
            "zero-result" in d and "op1" in d and "she" in d
            for d in out.diagnostics
        )

    @given(seeds)
    @settings(max_examples=120, deadline=None)
    def test_matches_naive_recursive_evaluation(self, s):
        rng = random.Random(s)
        algebra, tree = random_algebra_and_tree(rng)
        expected = naive_evaluate(tree, algebra)
        out = evaluate(
            tree, algebra, EvalConfig(mode="enumerate", result_cap=100_000)
        )
        assert same_graph_set(out.graphs, expected)


class TestSample:
    def test_equal_seeds_give_identical_outputs(self):
        runs = [
            evaluate(
                BRANCHING_TREE,
                branching_algebra(),
                EvalConfig(mode="sample", seed=17),
            )
            for _ in range(10)
        ]
        keys = {canonical_key(r.graphs[0]) for r in runs}
        assert len(keys) == 1

    def test_sampled_graph_is_in_the_enumerate_set(self):
        enum = evaluate(
            BRANCHING_TREE, branching_algebra(), EvalConfig(mode="enumerate")
        )
        enum_keys = {canonical_key(g) for g in enum.graphs}
        for seed in range(20):
            out = evaluate(
                BRANCHING_TREE,
                branching_algebra(),
                EvalConfig(mode="sample", seed=seed),
            )
            assert len(out.graphs) == 1
            assert canonical_key(out.graphs[0]) in enum_keys

    def test_different_seeds_reach_both_results(self):
        keys = set()
        for seed in range(20):
            out = evaluate(
                BRANCHING_TREE,
                branching_algebra(),
                EvalConfig(mode="sample", seed=seed),
            )
            keys.add(canonical_key(out.graphs[0]))
        assert len(keys) == 2

    def test_running_example_sample_equals_enumerate(self):
        out = evaluate(RUNNING_TREE, running_algebra(), EvalConfig(mode="sample"))
        assert len(out.graphs) == 1
        assert is_isomorphic(out.graphs[0], running_result_graph())

    def test_missing_candidate_warns_never_raises(self):
        tree = parse_tree("op1(op2(op3(op5 op5)))")
        out = evaluate(tree, running_algebra(), EvalConfig(mode="sample"))
        assert out.graphs == ()
        assert any("zero-result" in d for d in out.diagnostics)

    @given(seeds, st.integers(0, 100))
    @settings(max_examples=60, deadline=None)
    def test_sample_is_sound_for_random_algebras(self, s, seed):
        rng = random.Random(s)
        algebra, tree = random_algebra_and_tree(rng)
        enum = evaluate(
            tree, algebra, EvalConfig(mode="enumerate", result_cap=100_000)
        )
        out = evaluate(tree, algebra, EvalConfig(mode="sample", seed=seed))
        assert len(out.graphs) <= 1
        if out.graphs:
            key = canonical_key(out.graphs[0])
            assert key in {canonical_key(g) for g in enum.graphs}


class TestFilters:
    def test_max_nodes_filters_out_the_running_graph(self):
        out = evaluate(
            RUNNING_TREE,
            running_algebra(),
            EvalConfig(mode="enumerate", max_nodes=3),
        )
        assert out.graphs == ()
        # The pre-pass count is the node count of every graph the tree
        # yields.
        assert out.diagnostics == (
            "size-filtered: every graph has 4 nodes, maximum is 3",)

    def test_min_nodes_keeps_the_running_graph(self):
        out = evaluate(
            RUNNING_TREE,
            running_algebra(),
            EvalConfig(mode="enumerate", min_nodes=4, max_nodes=4),
        )
        assert len(out.graphs) == 1

    def test_min_nodes_above_size_filters(self):
        out = evaluate(
            RUNNING_TREE,
            running_algebra(),
            EvalConfig(mode="enumerate", min_nodes=5),
        )
        assert out.graphs == ()
        assert any("size-filtered" in d for d in out.diagnostics)

    def test_required_op_present_keeps_graphs(self):
        out = evaluate(
            RUNNING_TREE,
            running_algebra(),
            EvalConfig(mode="enumerate", required_op="op3"),
        )
        assert len(out.graphs) == 1

    def test_required_op_absent_drops_graphs(self):
        out = evaluate(
            RUNNING_TREE,
            running_algebra(),
            EvalConfig(mode="enumerate", required_op="op9"),
        )
        assert out.graphs == ()
        assert any("required-op" in d for d in out.diagnostics)

    def test_tree_size_bounds_use_tree_node_counts(self):
        # The running tree has 5 nodes; its graph has 4.
        cfg = EvalConfig(mode="enumerate", max_nodes=4, tree_size_bounds=True)
        out = evaluate(RUNNING_TREE, running_algebra(), cfg)
        assert out.graphs == ()
        cfg = EvalConfig(mode="enumerate", min_nodes=5, tree_size_bounds=True)
        out = evaluate(RUNNING_TREE, running_algebra(), cfg)
        assert len(out.graphs) == 1

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            EvalConfig(min_nodes=5, max_nodes=3)
        with pytest.raises(ValueError):
            EvalConfig(mode="both")


class TestEvaluateCorpus:
    def test_outcomes_preserve_input_order(self):
        trees = [parse_tree("op4"), parse_tree("op5")]
        outcomes = evaluate_corpus(trees, running_algebra(), EvalConfig())
        assert [o.source_tree for o in outcomes] == trees
        assert outcomes[0].graphs[0].labels[outcomes[0].graphs[0].ports[0]] == "she"

    def test_empty_tree_list(self):
        assert evaluate_corpus([], running_algebra(), EvalConfig()) == []

    def test_per_tree_errors_become_diagnostics(self):
        trees = [parse_tree("op4"), parse_tree("mystery")]
        outcomes = evaluate_corpus(trees, running_algebra(), EvalConfig())
        assert len(outcomes) == 2
        assert outcomes[0].graphs
        assert outcomes[1].graphs == ()
        assert any("error" in d for d in outcomes[1].diagnostics)

    def test_parallel_equals_serial(self):
        trees = [BRANCHING_TREE] * 6 + [parse_tree("two_leaves")]
        cfg = EvalConfig(mode="sample", seed=3)
        serial = evaluate_corpus(trees, branching_algebra(), cfg)
        parallel = evaluate_corpus(
            trees, branching_algebra(), cfg, parallel=True
        )
        assert [
            [canonical_key(g) for g in o.graphs] for o in serial
        ] == [[canonical_key(g) for g in o.graphs] for o in parallel]

    def test_seed_stream_is_keyed_per_tree(self):
        cfg = EvalConfig(mode="sample", seed=9)
        alone = evaluate_corpus([BRANCHING_TREE], branching_algebra(), cfg)
        # The same tree at the same index samples identically regardless
        # of what follows it in the corpus.
        padded = evaluate_corpus(
            [BRANCHING_TREE, BRANCHING_TREE], branching_algebra(), cfg
        )
        assert canonical_key(alone[0].graphs[0]) == canonical_key(
            padded[0].graphs[0]
        )

    def test_dedup_across_trees(self):
        trees = [parse_tree("op4"), parse_tree("op4")]
        cfg = EvalConfig(mode="enumerate")
        plain = evaluate_corpus(trees, running_algebra(), cfg)
        assert [len(o.graphs) for o in plain] == [1, 1]
        deduped = evaluate_corpus(
            trees, running_algebra(), cfg.replace(dedup_across_trees=True))
        assert [len(o.graphs) for o in deduped] == [1, 0]

    @given(seeds, st.sampled_from([5, 20]),
           st.sampled_from(["enumerate", "sample"]), st.booleans(),
           st.sampled_from([1, 2, 10_000]), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_dedup_across_trees_keeps_first_seen_keys(
            self, s, n, mode, injective, cap, crowded):
        # Crowded algebras make the small caps fire, so outcomes with
        # ``error:`` lines occur; as in the crowded enumerate test,
        # trees whose sets could grow past 100 graphs are left out.
        corpus = random_corpus(s, n, crowded=crowded)
        assume(corpus is not None)
        _rng, _grammar, algebra, trees = corpus
        cfg = EvalConfig(mode=mode, seed=s % 97, result_cap=cap,
                         injective_contexts=injective)
        trees = [t for t in trees if set_size_bound(t, algebra, cfg) <= 100]
        seen = set()
        want = []
        for o in evaluate_corpus(trees, algebra, cfg):
            kept = []
            for g in o.graphs:
                if canonical_key(g) not in seen:
                    seen.add(canonical_key(g))
                    kept.append(g)
            want.append((o.source_tree, exact(kept), o.diagnostics))
        got = evaluate_corpus(trees, algebra,
                              cfg.replace(dedup_across_trees=True))
        assert [(o.source_tree, exact(o.graphs), o.diagnostics)
                for o in got] == want


BENCH_INPUTS = Path(__file__).resolve().parents[1] / "bench" / "inputs"


def unshared(t):
    """``t`` rebuilt with a fresh object at every position."""
    return t.fold(
        lambda node, _path, children: DerivationTree(node.label, tuple(children)))


def unshared_corpus(trees, algebra, cfg):
    """``evaluate_corpus`` without any subtree sharing: each tree is
    copied node by node and evaluated alone."""
    outcomes = []
    for index, t in enumerate(trees):
        try:
            out = evaluate(unshared(t), algebra, cfg, tree_index=index)
        except (EvaluationError, ResultCapExceededError) as exc:
            outcomes.append(((), (f"error: {exc}",)))
        else:
            outcomes.append((out.graphs, out.diagnostics))
    return outcomes


def assert_same_as_unshared(trees, algebra, cfg):
    """Outcome by outcome: the same graphs, node names included, and
    the same diagnostics."""
    def exact(graphs):
        return [(g.nodes, g.edges, g.labels, g.ports) for g in graphs]

    got = evaluate_corpus(trees, algebra, cfg)
    want = unshared_corpus(trees, algebra, cfg)
    assert [o.source_tree for o in got] == list(trees)
    for outcome, (graphs, diagnostics) in zip(got, want, strict=True):
        assert exact(outcome.graphs) == exact(graphs)
        assert outcome.diagnostics == diagnostics


def bench_corpus(name, n):
    algebra = parse_operation_file((BENCH_INPUTS / f"{name}.ops").read_text())
    grammar = parse_rtg((BENCH_INPUTS / f"{name}.rtg").read_text())
    return algebra, [t for t, _w in n_best_trees(grammar, n)]


@pytest.fixture()
def checks(monkeypatch):
    """Records the node of every pre-pass step."""
    calls = []
    real = evaluator._check_node

    def counted(a, cfg, t, path, kids):
        calls.append(t)
        return real(a, cfg, t, path, kids)

    monkeypatch.setattr(evaluator, "_check_node", counted)
    return calls


@pytest.fixture()
def steps(monkeypatch):
    """Records the node of every enumerate-mode step."""
    calls = []
    real = evaluator._enumerate_node

    def counted(a, cfg, t, path, kids):
        calls.append(t)
        return real(a, cfg, t, path, kids)

    monkeypatch.setattr(evaluator, "_enumerate_node", counted)
    return calls


class TestSharedSubtrees:
    """Each distinct subtree object is checked once per corpus, and in
    enumerate mode evaluated at most once; the outcomes equal
    evaluating every tree alone."""

    @given(seeds, st.sampled_from([5, 20, 60]), st.booleans(),
           st.sampled_from([1, 2, 10_000]),
           st.sampled_from(["enumerate", "sample"]),
           st.none() | st.integers(0, 12), st.none() | st.integers(0, 12),
           st.booleans(), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_memo_equals_evaluation_without_sharing(
            self, s, n, injective, cap, mode, low, high, on_trees, want_op):
        rng = random.Random(s)
        grammar = random_grammar(rng)
        algebra = random_algebra_for(rng, grammar)
        if low is not None and high is not None and low > high:
            low, high = high, low
        required_op = rng.choice(sorted(grammar.terminals)) if want_op else None
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                trees = [t for t, _w in n_best_trees(grammar, n, budget=5000)]
            except BudgetExceededError:
                assume(False)
        assert_same_as_unshared(trees, algebra, EvalConfig(
            mode=mode, result_cap=cap, injective_contexts=injective,
            min_nodes=low, max_nodes=high, required_op=required_op,
            tree_size_bounds=on_trees))

    @pytest.mark.parametrize("mode, cap", [
        ("enumerate", 1), ("enumerate", 2), ("enumerate", 10_000),
        ("sample", 10_000),
    ])
    @pytest.mark.parametrize("injective", [False, True])
    @pytest.mark.parametrize("filters", [
        {},
        # The exact node count drops trees on both sides of the bounds:
        # above 9 before evaluation, below 6 as evaluated graphs.
        {"min_nodes": 6, "max_nodes": 9},
        {"required_op": "and", "tree_size_bounds": True, "max_nodes": 9},
    ], ids=["unfiltered", "node-bounds", "op-and-tree-size"])
    @pytest.mark.parametrize("name, n", [("amr", 300), ("symmetric", 43)])
    def test_bench_corpora_equal_evaluation_without_sharing(
            self, name, n, filters, injective, mode, cap):
        algebra, trees = bench_corpus(name, n)
        assert_same_as_unshared(trees, algebra, EvalConfig(
            mode=mode, result_cap=cap, injective_contexts=injective,
            **filters))

    def test_shared_error_is_reported_for_every_tree(self):
        trees = [BRANCHING_TREE, parse_tree("pick_context(drop_ports(two_leaves))"),
                 parse_tree("two_leaves"), BRANCHING_TREE]
        cfg = EvalConfig(mode="enumerate", result_cap=1)
        outcomes = evaluate_corpus(trees, branching_algebra(), cfg)
        errors = [o.diagnostics for o in outcomes]
        message = ("error: intermediate set at symbol 'pick_context' has 2 "
                   "graphs, exceeding the cap of 1",)
        assert errors == [message, message, (), message]
        assert len(outcomes[2].graphs) == 1

    def test_evaluate_shares_within_one_tree(self, steps):
        leaf = parse_tree("op4")
        pair = DerivationTree("op3", (leaf, leaf))
        out = evaluate(DerivationTree("op2", (pair,)), running_algebra(),
                       EvalConfig(mode="enumerate"))
        assert len(out.graphs) == 1
        assert len(steps) == 3

    @pytest.mark.parametrize("name, n, distinct, yielding, nodes", [
        # 171 of the 740 amr trees yield a graph; they hold 251 of the
        # distinct subtrees.  Every symmetric tree yields one.
        ("amr", 740, 1_022, 251, 6_322),
        ("symmetric", 43, 51, 51, 722),
    ])
    def test_steps_run_once_per_distinct_subtree(
            self, steps, checks, name, n, distinct, yielding, nodes):
        algebra, trees = bench_corpus(name, n)
        assert sum(t.size() for t in trees) == nodes
        evaluate_corpus(trees, algebra, EvalConfig(mode="enumerate"))
        assert len(checks) == distinct
        assert len(steps) == yielding
        checks.clear()
        evaluate_corpus(trees, algebra, EvalConfig(mode="sample"))
        assert len(checks) == distinct
        assert len(steps) == yielding

    @pytest.mark.parametrize("mode", ["enumerate", "sample"])
    def test_subtree_kept_until_the_last_tree_that_holds_it(
            self, checks, mode):
        """Trees 0 and 5 hold one subtree object, and only tree 5 its
        parent: the subtree is checked once and its values are still
        there for tree 5."""
        shared = parse_tree("op3(op4 op5)")
        trees = [shared, *parse_tree_file("op4\nop5\nop4\nop5\n"),
                 DerivationTree("op1", (DerivationTree("op2", (shared,)),))]
        assert_same_as_unshared(trees, running_algebra(),
                                EvalConfig(mode=mode))
        checks.clear()
        evaluate_corpus(trees, running_algebra(), EvalConfig(mode=mode))
        assert len(checks) == len({id(n) for t in trees for n in t.walk()})

    @pytest.mark.parametrize("mode", ["enumerate", "sample"])
    def test_memos_hold_only_subtrees_still_to_come(self, monkeypatch, mode):
        """When tree i is evaluated, the memos hold exactly the subtrees
        that an earlier tree held and tree i or a later one holds."""
        algebra, trees = bench_corpus("amr", 300)
        held = []
        real = evaluator._evaluate

        def spy(t, a, cfg, tree_index, checks, memo):
            held.append((set(checks), set(memo)))
            return real(t, a, cfg, tree_index, checks, memo)

        monkeypatch.setattr(evaluator, "_evaluate", spy)
        evaluate_corpus(trees, algebra, EvalConfig(mode=mode))
        later = [set()]
        for t in reversed(trees):
            later.append(later[-1] | {id(n) for n in t.walk()})
        later.reverse()
        earlier = set()
        for i, (checked, memoized) in enumerate(held):
            assert checked == earlier & later[i]
            assert memoized <= checked
            earlier |= {id(n) for n in trees[i].walk()}
        assert len(held) == len(trees)

    def test_tree_file_subtrees_are_shared(self, steps):
        trees = parse_tree_file("op3(op4 op5)\nop1(op2(op3(op4 op5)))\n")
        evaluate_corpus(trees, running_algebra(), EvalConfig(mode="enumerate"))
        assert len(steps) == 5


@pytest.fixture()
def canonical_work(monkeypatch):
    """Counts the certificates built and the canonical searches run."""
    calls = {"certificates": 0, "searches": 0}

    def counted(name, real):
        def call(*args):
            calls[name] += 1
            return real(*args)
        return call

    monkeypatch.setattr(graphs, "_certificate",
                        counted("certificates", graphs._certificate))
    monkeypatch.setattr(graphs, "_canonical_search",
                        counted("searches", graphs._canonical_search))
    return calls


class TestCanonicalWork:
    """Enumerate mode keys every graph it deduplicates, once; emission
    reuses the canonical order that the key was built from."""

    @pytest.mark.parametrize("name, n, certificates, searches", [
        ("amr", 740, 333, 333),
        # 51 keys, and 11 certificates of search leaves on graphs
        # whose colours leave ties.
        ("symmetric", 43, 62, 51),
    ])
    def test_canonical_work_on_bench_corpora(
            self, canonical_work, name, n, certificates, searches):
        algebra, trees = bench_corpus(name, n)
        outcomes = evaluate_corpus(trees, algebra,
                                   EvalConfig(mode="enumerate"))
        assert canonical_work == {"certificates": certificates,
                                  "searches": searches}
        for outcome in outcomes:
            for g in outcome.graphs:
                emit_gv(g)
        assert canonical_work == {"certificates": certificates,
                                  "searches": searches}

    def test_two_results_are_compared_by_key(self):
        out = evaluate(BRANCHING_TREE, branching_algebra(),
                       EvalConfig(mode="enumerate"))
        assert len(out.graphs) == 2
        assert all(g._key is not None for g in out.graphs)


def exact(graphs):
    return [(g.nodes, g.edges, g.labels, g.ports) for g in graphs]


def assert_same_as_naive_sample(trees, algebra, cfg):
    """Outcome by outcome, sample mode equals running the sample step
    on every node: the same graphs, node names included, and the same
    diagnostics."""
    got = evaluate_corpus(trees, algebra, cfg)
    want = naive_sample_corpus(trees, algebra, cfg)
    for outcome, (graphs, diagnostics) in zip(got, want, strict=True):
        assert exact(outcome.graphs) == exact(graphs)
        assert outcome.diagnostics == diagnostics


def random_corpus(s, n, crowded=False):
    """A random grammar's N-best trees and a random algebra over it
    with up to three context nodes per operation, or None when the
    search runs out of budget."""
    rng = random.Random(s)
    grammar = random_grammar(rng)
    algebra = random_algebra_for(rng, grammar, max_context=3,
                                 crowded=crowded)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            trees = [t for t, _w in n_best_trees(grammar, n, budget=5000)]
        except BudgetExceededError:
            return None
    return rng, grammar, algebra, trees


NEEDS_TWO_OPS = """\
operation needs_two {
  0 [label="r"];
  1;
  2;
  port 0;
  dock 1 2;
}
"""

UNION_PROBE_OPS = """\
operation u { 1 1 }
operation c { empty }
operation p {
  0 [label="x"];
  port 0;
}
"""


def sample_shape(t, algebra, cfg):
    return t.fold(partial(evaluator._check_node, algebra, cfg))[0]


def sample_shape_forced(t, algebra, cfg):
    return t.fold(partial(evaluator._check_node, algebra, cfg))[1]


@pytest.fixture()
def sample_steps(monkeypatch):
    """Records the node of every sample-mode step."""
    calls = []
    real = evaluator._sample_node

    def counted(a, cfg, tree_index, t, path, args):
        calls.append(t)
        return real(a, cfg, tree_index, t, path, args)

    monkeypatch.setattr(evaluator, "_sample_node", counted)
    return calls


class TestSampleShape:
    """Sample mode only draws on trees whose sample shape is not empty;
    its outcomes equal sampling every node of every tree."""

    @given(seeds, st.sampled_from([5, 20, 60]), st.booleans(),
           st.integers(0, 1000),
           st.none() | st.integers(0, 12), st.none() | st.integers(0, 12),
           st.booleans(), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_corpus_equals_sampling_every_node(
            self, s, n, injective, seed, low, high, on_trees, want_op):
        corpus = random_corpus(s, n)
        assume(corpus is not None)
        rng, grammar, algebra, trees = corpus
        if low is not None and high is not None and low > high:
            low, high = high, low
        required_op = rng.choice(sorted(grammar.terminals)) if want_op else None
        assert_same_as_naive_sample(trees, algebra, EvalConfig(
            mode="sample", seed=seed, injective_contexts=injective,
            min_nodes=low, max_nodes=high, required_op=required_op,
            tree_size_bounds=on_trees))

    @given(seeds, st.sampled_from([5, 20, 60]), st.booleans(),
           st.integers(0, 1000),
           st.none() | st.integers(0, 12), st.none() | st.integers(0, 12))
    @settings(max_examples=150, deadline=None)
    def test_crowded_corpus_equals_sampling_every_node(
            self, s, n, injective, seed, low, high):
        # Crowded algebras give context nodes several candidates, so
        # the per-position draws of subtrees that are not forced run.
        corpus = random_corpus(s, n, crowded=True)
        assume(corpus is not None)
        _rng, _grammar, algebra, trees = corpus
        if low is not None and high is not None and low > high:
            low, high = high, low
        assert_same_as_naive_sample(trees, algebra, EvalConfig(
            mode="sample", seed=seed, injective_contexts=injective,
            min_nodes=low, max_nodes=high))

    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("injective", [False, True])
    @pytest.mark.parametrize("name, n", [("amr", 740), ("symmetric", 43)])
    def test_bench_corpora_equal_sampling_every_node(
            self, name, n, injective, seed):
        algebra, trees = bench_corpus(name, n)
        assert_same_as_naive_sample(trees, algebra, EvalConfig(
            mode="sample", seed=seed, injective_contexts=injective))

    @given(seeds, st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_shape_is_empty_exactly_when_sampling_yields_nothing(
            self, s, injective):
        corpus = random_corpus(s, 20)
        assume(corpus is not None)
        _rng, _grammar, algebra, trees = corpus
        # Also a tree of type 0 to 2 with one context node per operation.
        other_algebra, other_tree = random_algebra_and_tree(random.Random(s))
        cfg = EvalConfig(mode="sample", seed=s % 97,
                         injective_contexts=injective)
        pairs = [(t, algebra) for t in trees] + [(other_tree, other_algebra)]
        for t, a in pairs:
            ports, rest = sample_shape(t, a, cfg)
            g, lines = naive_sample(t, a, cfg)
            assert (ports is None) == (g is None)
            if g is None:
                assert rest == tuple(lines)
            else:
                # The shape is the drawn graph's port labels and
                # non-port label counts.
                assert ports == tuple(g.labels[p] for p in g.ports)
                counts = {}
                for v in g.nodes - set(g.ports):
                    counts[g.labels[v]] = counts.get(g.labels[v], 0) + 1
                assert rest == counts

    def test_lone_empty_child_shares_its_lines(self):
        ops = parse_operation_file(UNION_PROBE_OPS)
        cfg = EvalConfig()
        empty = sample_shape(parse_tree("u(c p)"), ops, cfg)
        assert empty[0] is None
        shape, _single = evaluator._shape(ops["p"], cfg, [empty])
        assert shape[1] is empty[1]
        # Two empty children's lines are joined in order.
        shape, _single = evaluator._shape(ops["u"], cfg, [empty, empty])
        assert shape == (None, empty[1] * 2)

    def test_injective_contexts_count_earlier_draws(self):
        # drop_ports(two_leaves) has two non-port c-nodes: enough for
        # three context c-nodes unless they must map to distinct nodes.
        ops = parse_operation_file(BRANCHING_OPS + """\
operation three_c {
  0 [label="a"];
  1;
  2 [label="c"];
  3 [label="c"];
  4 [label="c"];
  0 -> 2 [label="x"];
  0 -> 3 [label="y"];
  0 -> 4 [label="z"];
  port 0;
  dock 1;
}
""")
        t = parse_tree("three_c(drop_ports(two_leaves))")
        for injective, graphs, diagnostics in [
            (False, 1, ()),
            (True, 0, ("zero-result: operation 'three_c' found no context "
                       "candidate with label 'c'",)),
        ]:
            cfg = EvalConfig(mode="sample", injective_contexts=injective)
            out = evaluate(t, ops, cfg)
            assert len(out.graphs) == graphs
            assert out.diagnostics == diagnostics
            assert (sample_shape(t, ops, cfg)[0] is None) == (not graphs)

    @pytest.mark.parametrize("ops_text, tree, line", [
        # The root needs an argument of type 2 and gets type 1.
        (BRANCHING_OPS + NEEDS_TWO_OPS,
         "needs_two(pick_context(drop_ports(two_leaves)))",
         "zero-result: operation 'needs_two' needs an argument of type 2, "
         "got 1"),
        # The union's left argument has type 0, not 1.
        (UNION_PROBE_OPS, "u(c p)",
         "zero-result: union 'u' got argument types (0, 1), expected (1, 1)"),
    ], ids=["argument-type", "union-types"])
    def test_enumerate_mode_skips_an_empty_tree(
            self, steps, sample_steps, ops_text, tree, line):
        # Neither mode folds a node of the tree, so a result cap that a
        # subtree would exceed goes unnoticed, and both print one line,
        # which a size bound the tree also misses does not replace.
        ops = parse_operation_file(ops_text)
        trees = [parse_tree(tree)]
        for mode in ["sample", "enumerate"]:
            for bounds in [{}, {"max_nodes": 0},
                           {"tree_size_bounds": True, "max_nodes": 1}]:
                cfg = EvalConfig(mode=mode, result_cap=1, **bounds)
                outcome, = evaluate_corpus(trees, ops, cfg)
                assert outcome.diagnostics == (line,)
        assert steps == [] and sample_steps == []

    def test_enumerate_mode_skips_a_tree_below_min_nodes(self, steps):
        # Every graph of the tree has 4 nodes and the template bound is
        # 8, so only the pre-pass count drops it under -L 5; folding it
        # would exceed the cap of 1 at the root.
        algebra = branching_algebra()
        assert node_count(BRANCHING_TREE, algebra, EvalConfig()) == 4
        out = evaluate_corpus([BRANCHING_TREE], algebra, EvalConfig(
            mode="enumerate", min_nodes=5, result_cap=1))
        assert out[0].graphs == ()
        assert out[0].diagnostics == (
            "size-filtered: every graph has 4 nodes, minimum is 5",)
        assert steps == []

    def test_shared_subtree_that_draws_runs_once_per_tree(
            self, sample_steps):
        # The root of BRANCHING_TREE draws between two c-nodes; its
        # argument drop_ports(two_leaves) draws nothing.
        algebra = branching_algebra()
        cfg = EvalConfig(mode="sample")
        assert sample_shape_forced(BRANCHING_TREE, algebra, cfg) is False
        assert sample_shape_forced(BRANCHING_TREE.children[0], algebra, cfg)
        trees = [BRANCHING_TREE, BRANCHING_TREE]
        picks = set()
        for seed in range(8):
            sample_steps.clear()
            out = evaluate_corpus(trees, algebra, cfg.replace(seed=seed))
            assert [t.label for t in sample_steps] == [
                "two_leaves", "drop_ports", "pick_context", "pick_context"]
            first, second = (exact(o.graphs) for o in out)
            picks.add(first == second)
            assert_same_as_naive_sample(trees, algebra, cfg.replace(seed=seed))
        assert picks == {False, True}

    def test_sample_steps_run_on_yielding_trees_only(
            self, sample_steps, checks):
        algebra, trees = bench_corpus("amr", 740)
        outcomes = evaluate_corpus(trees, algebra, EvalConfig(mode="sample"))
        yielding = [t for t, o in zip(trees, outcomes) if o.graphs]
        assert len(yielding) == 171
        assert sum(t.size() for t in yielding) == 1_595
        # 1,540 of those nodes lie in forced subtrees, which are 215
        # distinct objects, one step each; the other 55 nodes run one
        # step per position.
        assert len(sample_steps) == 215 + 55
        assert len(checks) == 1_022


def node_count(t, algebra, cfg):
    """The node count of every graph ``t`` yields, read off its sample
    shape: the port count plus the non-port label counts; None when the
    shape is empty."""
    ports, counts = sample_shape(t, algebra, cfg)
    return None if ports is None else len(ports) + sum(counts.values())


def set_size_bound(t, algebra, cfg):
    """An upper bound on the size of every graph set enumerate mode
    builds for ``t``: the product of the candidate counts of all the
    context nodes in it, read from the sample shapes of their
    arguments."""
    checks = {}
    t.fold(partial(evaluator._check_node, algebra, cfg), checks)
    bound = 1
    for node in t.walk():
        op = algebra[node.label]
        if isinstance(op, ExpansionOperation) and node.children:
            ports, counts = checks[id(node.children[0])][0]
            if ports is not None:
                for u in op.context:
                    bound *= max(1, counts.get(op.template.labels[u], 0))
    return bound


def assert_same_as_naive_enumerate(trees, algebra, cfg):
    """Outcome by outcome, enumerate mode equals evaluating every node
    of every tree alone: the same graphs, node names included, and the
    same diagnostics."""
    got = evaluate_corpus(trees, algebra, cfg)
    want = naive_enumerate_corpus(trees, algebra, cfg)
    for outcome, (graphs, diagnostics) in zip(got, want, strict=True):
        assert exact(outcome.graphs) == exact(graphs)
        assert outcome.diagnostics == diagnostics


class TestNodeCount:
    """Every graph a subtree yields has the node count the pre-pass
    computes, in both modes, so ``-L``/``-H`` are decided before
    evaluation; the pre-pass also decides the ``zero-result:`` lines,
    the same in both modes."""

    @pytest.mark.parametrize("mode", ["enumerate", "sample"])
    def test_merged_ports_keep_the_one_node_graph(self, mode):
        ops = parse_operation_file(MERGE_OPS)
        cfg = EvalConfig(mode=mode, max_nodes=1)
        out = evaluate(parse_tree("merge(pair)"), ops, cfg)
        (g,) = out.graphs
        assert len(g.nodes) == 1 and g.labels[g.ports[0]] == "x"
        assert out.diagnostics == ()
        out = evaluate(parse_tree("pair"), ops, cfg)
        assert out.graphs == ()
        assert out.diagnostics == (
            "size-filtered: every graph has 2 nodes, maximum is 1",)

    @given(seeds, st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_every_graph_has_the_pre_pass_count(self, s, injective):
        # Enumerate mode runs on the small tree only: on deeper N-best
        # trees its canonical search can take exponential time.
        corpus = random_corpus(s, 20)
        assume(corpus is not None)
        _rng, _grammar, algebra, trees = corpus
        other_algebra, other_tree = random_algebra_and_tree(random.Random(s))
        small = [(other_tree, other_algebra)]
        for mode, pairs in [
            ("enumerate", small),
            ("sample", [(t, algebra) for t in trees] + small),
        ]:
            cfg = EvalConfig(mode=mode, seed=s % 97, result_cap=100_000,
                             injective_contexts=injective)
            for t, a in pairs:
                count = node_count(t, a, cfg)
                assert all(len(g.nodes) == count
                           for g in evaluate(t, a, cfg).graphs)

    @pytest.mark.parametrize("mode", ["enumerate", "sample"])
    @pytest.mark.parametrize("name, n", [("amr", 740), ("symmetric", 43)])
    def test_bench_graphs_have_the_pre_pass_count(self, name, n, mode):
        algebra, trees = bench_corpus(name, n)
        cfg = EvalConfig(mode=mode)
        outcomes = evaluate_corpus(trees, algebra, cfg)
        assert any(o.graphs for o in outcomes)
        for t, outcome in zip(trees, outcomes):
            count = node_count(t, algebra, cfg)
            assert all(len(g.nodes) == count for g in outcome.graphs)

    @given(seeds, st.sampled_from([5, 20, 60]), st.booleans(),
           st.sampled_from([1, 2, 10_000]),
           st.none() | st.integers(0, 12), st.none() | st.integers(0, 12),
           st.booleans(), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_enumerate_corpus_equals_evaluating_every_node(
            self, s, n, injective, cap, low, high, on_trees, want_op):
        corpus = random_corpus(s, n)
        assume(corpus is not None)
        rng, grammar, algebra, trees = corpus
        if low is not None and high is not None and low > high:
            low, high = high, low
        required_op = rng.choice(sorted(grammar.terminals)) if want_op else None
        assert_same_as_naive_enumerate(trees, algebra, EvalConfig(
            mode="enumerate", result_cap=cap, injective_contexts=injective,
            min_nodes=low, max_nodes=high, required_op=required_op,
            tree_size_bounds=on_trees))

    @given(seeds, st.sampled_from([5, 20]), st.booleans(),
           st.sampled_from([1, 2, 10_000]),
           st.none() | st.integers(0, 12), st.none() | st.integers(0, 12),
           st.booleans(), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_both_modes_give_the_same_diagnostics(
            self, s, n, injective, cap, low, high, on_trees, want_op):
        # Only enumerate mode has a result cap; it is an error only for
        # a tree that yields a graph inside the bounds.
        corpus = random_corpus(s, n)
        assume(corpus is not None)
        rng, grammar, algebra, trees = corpus
        if low is not None and high is not None and low > high:
            low, high = high, low
        required_op = rng.choice(sorted(grammar.terminals)) if want_op else None
        cfg = EvalConfig(mode="sample", result_cap=cap,
                         injective_contexts=injective, min_nodes=low,
                         max_nodes=high, required_op=required_op,
                         tree_size_bounds=on_trees)
        sample = evaluate_corpus(trees, algebra, cfg)
        enum = evaluate_corpus(trees, algebra, cfg.replace(mode="enumerate"))
        for got, want in zip(enum, sample, strict=True):
            if got.diagnostics and "exceeding the cap" in got.diagnostics[0]:
                assert want.graphs and want.diagnostics == ()
            else:
                assert got.diagnostics == want.diagnostics
                assert bool(got.graphs) == bool(want.graphs)

    @given(seeds, st.sampled_from([5, 20]), st.booleans(),
           st.sampled_from([1, 2, 10_000]))
    @settings(max_examples=300, deadline=None)
    def test_crowded_enumerate_corpus_equals_evaluating_every_node(
            self, s, n, injective, cap):
        # Several candidates per context node make the sets grow, so
        # the small caps fire.  The oracle evaluates a tree that blows
        # the cap again without one, so trees whose sets could grow
        # past 100 graphs are left out.
        corpus = random_corpus(s, n, crowded=True)
        assume(corpus is not None)
        _rng, _grammar, algebra, trees = corpus
        cfg = EvalConfig(mode="enumerate", result_cap=cap,
                         injective_contexts=injective)
        assert_same_as_naive_enumerate(
            [t for t in trees if set_size_bound(t, algebra, cfg) <= 100],
            algebra, cfg)

    @pytest.mark.parametrize("cap", [1, 2, 10_000])
    @pytest.mark.parametrize("injective", [False, True])
    @pytest.mark.parametrize("filters", [
        {},
        {"min_nodes": 6, "max_nodes": 9},
        {"required_op": "and", "tree_size_bounds": True, "max_nodes": 9},
    ], ids=["unfiltered", "node-bounds", "op-and-tree-size"])
    @pytest.mark.parametrize("name, n", [("amr", 740), ("symmetric", 43)])
    def test_bench_corpora_equal_evaluating_every_node(
            self, name, n, filters, injective, cap):
        algebra, trees = bench_corpus(name, n)
        assert_same_as_naive_enumerate(trees, algebra, EvalConfig(
            mode="enumerate", result_cap=cap, injective_contexts=injective,
            **filters))

    @pytest.mark.parametrize("mode", ["enumerate", "sample"])
    def test_sample_mode_skips_trees_outside_the_bounds(
            self, sample_steps, mode):
        # Of the 171 amr trees that yield a graph, 95 yield one below 9
        # nodes; the pre-pass count drops them without a draw.  A tree
        # that yields nothing gets its zero-result lines instead.
        algebra, trees = bench_corpus("amr", 740)
        outcomes = evaluate_corpus(trees, algebra,
                                   EvalConfig(mode=mode, min_nodes=9))
        lines = [d for o in outcomes for d in o.diagnostics]
        below = [d for d in lines
                 if re.fullmatch(r"size-filtered: every graph has [0-8] "
                                 r"nodes, minimum is 9", d)]
        assert len(below) == 95
        assert all(d in below or d.startswith("zero-result:") for d in lines)
        kept = [t for t, o in zip(trees, outcomes) if o.graphs]
        assert len(kept) == 76
        assert sum(t.size() for t in kept) == 809
        assert len(sample_steps) == (221 if mode == "sample" else 0)


@pytest.mark.parametrize("mode", ["enumerate", "sample"])
class TestEmptyConstant:
    """The empty-graph constant ``nil`` evaluates to the graph with no
    nodes, in either mode."""

    @staticmethod
    def graphs(text, mode):
        out = evaluate(parse_tree(text), parse_operation_file(EMPTY_OPS),
                       EvalConfig(mode=mode))
        assert out.diagnostics == ()
        return [(g.labels, g.edges, g.ports) for g in out.graphs]

    def test_nil_alone_is_one_graph_without_nodes(self, mode):
        assert self.graphs("nil", mode) == [({}, frozenset(), ())]

    def test_union_with_nil_adds_nothing(self, mode):
        (labels, edges, ports), = self.graphs("u(nil dot)", mode)
        assert list(labels.values()) == ["x"]
        assert not edges and ports == tuple(labels)

    def test_zero_dock_expansion_over_nil_is_the_one_at_rank_0(self, mode):
        assert self.graphs("dot(nil)", mode) == self.graphs("dot", mode)

    def test_pre_pass_gives_no_nodes_and_forces_nil(self, mode):
        algebra, cfg = parse_operation_file(EMPTY_OPS), EvalConfig(mode=mode)
        t = parse_tree("nil")
        assert sample_shape(t, algebra, cfg) == ((), {})
        assert sample_shape_forced(t, algebra, cfg)

    def test_nil_with_a_child_is_a_fault(self, mode):
        with pytest.raises(EvaluationError, match=re.escape(
                "symbol 'nil' has rank 1 but the operation allows ranks "
                "(0,)")):
            evaluate(parse_tree("nil(dot)"), parse_operation_file(EMPTY_OPS),
                     EvalConfig(mode=mode))
