"""Tests for bottom-up evaluation in enumerate and sample modes."""

import random
import warnings
from functools import partial
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gexpand import (
    Algebra,
    BudgetExceededError,
    DerivationTree,
    EvalConfig,
    EvaluationError,
    ExpansionOperation,
    ResultCapExceededError,
    UnionOperation,
    canonical_key,
    evaluate,
    evaluate_corpus,
    is_isomorphic,
    n_best_trees,
    parse_operation_file,
    parse_rtg,
    parse_tree,
    parse_tree_file,
)
from gexpand import evaluator
from fixtures import (
    MERGE_OPS,
    RUNNING_OPS,
    RUNNING_TREE_TEXT,
    running_result_graph,
)
from generators import (
    random_algebra_and_tree,
    random_expansion_operation,
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

# A small algebra whose top operation has one context node with two
# distinguishable candidates, so enumerate mode yields two graphs.
BRANCHING_OPS = """\
operation two_leaves {
  0 [label="c"];
  1 [label="c"];
  port 0 1;
}
operation drop_ports {
  0 [label="b"];
  1;
  2;
  0 -> 1 [label="e"];
  0 -> 2 [label="f"];
  port 0;
  dock 1 2;
}
operation pick_context {
  0 [label="a"];
  1;
  2 [label="c"];
  0 -> 1 [label="x"];
  0 -> 2 [label="y"];
  port 0;
  dock 1;
}
"""

BRANCHING_TREE = parse_tree("pick_context(drop_ports(two_leaves))")


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
        ("bad1(bad2)", "unknown symbol 'bad1' in tree"),
        ("op2(op3(op4 bad op5))",
         r"symbol 'op3' used with 3 children, algebra allows \(2,\)"),
        ("op3(op2(bad) bad2)", "unknown symbol 'bad' in tree"),
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
            "size-filtered: every result has at least 4 nodes, maximum is 3",)

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
            trees, running_algebra(), cfg, dedup_across_trees=True
        )
        assert [len(o.graphs) for o in deduped] == [1, 0]


BENCH_INPUTS = Path(__file__).resolve().parents[1] / "bench" / "inputs"


def random_algebra_for(rng, grammar, max_context=2):
    """An algebra over a grammar's terminals: unions at rank 2, random
    expansion operations with up to ``max_context`` context nodes
    otherwise.

    Each nonterminal gets a random type in {1, 2}, and an operation's
    dock and port counts are the types of the first production that
    uses it, so that most trees are well typed.  Leaves get no context
    nodes: their argument is the empty graph, which no context node
    matches."""
    nt_type = {a: rng.randint(1, 2) for a in sorted(grammar.nonterminals)}
    ops = {}
    for p in grammar.productions:
        name = p.symbol.name
        if name in ops:
            continue
        arg_types = [nt_type[b] for b in p.rhs]
        if p.symbol.rank == 2:
            ops[name] = UnionOperation(name, *arg_types)
        else:
            ops[name] = random_expansion_operation(
                rng, name, dock_count=sum(arg_types),
                port_count=nt_type[p.lhs],
                max_context=max_context if p.symbol.rank else 0)
    return Algebra(ops)


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
        # Both template-bound prefilters fire, and so does the filter on
        # evaluated graphs.
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

    def test_tree_file_subtrees_are_shared(self, steps):
        trees = parse_tree_file("op3(op4 op5)\nop1(op2(op3(op4 op5)))\n")
        evaluate_corpus(trees, running_algebra(), EvalConfig(mode="enumerate"))
        assert len(steps) == 5


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


def random_corpus(s, n):
    """A random grammar's N-best trees and a random algebra over it
    with up to three context nodes per operation, or None when the
    search runs out of budget."""
    rng = random.Random(s)
    grammar = random_grammar(rng)
    algebra = random_algebra_for(rng, grammar, max_context=3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            trees = [t for t, _w in n_best_trees(grammar, n, budget=5000)]
        except BudgetExceededError:
            return None
    return rng, grammar, algebra, trees


def sample_shape(t, algebra, cfg):
    return t.fold(partial(evaluator._check_node, algebra, cfg))[4]


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

    def test_enumerate_mode_skips_an_empty_tree(self, steps):
        # The root needs an argument of type 2 and gets type 1, so
        # neither mode evaluates the tree, and a result cap its subtree
        # would exceed goes unnoticed.
        ops = parse_operation_file(BRANCHING_OPS + """\
operation needs_two {
  0 [label="r"];
  1;
  2;
  port 0;
  dock 1 2;
}
""")
        trees = [parse_tree("needs_two(pick_context(drop_ports(two_leaves)))")]
        sample = evaluate_corpus(trees, ops, EvalConfig(mode="sample"))
        assert sample[0].diagnostics == (
            "zero-result: operation 'needs_two' needs an argument of "
            "type 2, got 1",)
        enum = evaluate_corpus(trees, ops, EvalConfig(mode="enumerate",
                                                      result_cap=1))
        assert enum[0].diagnostics == (
            "zero-result: operation 'needs_two' received no argument of "
            "type 2",)
        assert steps == []

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
            "size-filtered: all evaluated graphs fall outside [5, None]",)
        assert steps == []

    def test_sample_steps_run_on_yielding_trees_only(
            self, sample_steps, checks):
        algebra, trees = bench_corpus("amr", 740)
        outcomes = evaluate_corpus(trees, algebra, EvalConfig(mode="sample"))
        yielding = [t for t, o in zip(trees, outcomes) if o.graphs]
        assert len(yielding) == 171
        assert len(sample_steps) == sum(t.size() for t in yielding) == 1_595
        assert len(checks) == 1_022


def node_count(t, algebra, cfg):
    return t.fold(partial(evaluator._check_node, algebra, cfg))[1]


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
    evaluation; the pre-pass also decides enumerate mode's
    ``zero-result:`` lines."""

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
            "size-filtered: every result has at least 2 nodes, maximum is 1",)

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

    def test_sample_mode_skips_trees_outside_the_bounds(self, sample_steps):
        # Of the 171 amr trees that yield a graph, 95 yield one below 9
        # nodes; the pre-pass count drops them without a draw.
        algebra, trees = bench_corpus("amr", 740)
        outcomes = evaluate_corpus(trees, algebra,
                                   EvalConfig(mode="sample", min_nodes=9))
        kept = [t for t, o in zip(trees, outcomes) if o.graphs]
        assert len(kept) == 76
        assert len(sample_steps) == sum(t.size() for t in kept) == 809
