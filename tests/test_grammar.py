"""Tests for weighted regular tree grammars and N-best extraction."""

import itertools
import random
import warnings
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gexpand import (
    BudgetExceededError,
    DerivationTree,
    EmptyLanguageWarning,
    Production,
    RankConflictError,
    RtgSyntaxError,
    WeightedRtg,
    language_contains,
    min_tree_weight,
    n_best_trees,
    parse_rtg,
    parse_tree,
    parse_tree_file,
    tree,
)
from gexpand.grammar import reachable_nonterminals
from fixtures import DUPLICATE_RULE_GRAMMAR, RUNNING_GRAMMAR, RUNNING_TREE_TEXT
from generators import random_grammar
from oracles import (
    best_trees_by_enumeration,
    derivation_count,
    enumerate_derivations,
    merge_identical_productions,
    naive_n_best_trees,
)


def tractable_grammar(rng, depth, limit=2000, **kwargs):
    """A random grammar whose derivation enumeration to ``depth`` stays
    below ``limit`` entries (resampled until that holds)."""
    while True:
        g = random_grammar(rng, **kwargs)
        if derivation_count(g, depth) <= limit:
            return g

seeds = st.integers(0, 10**9)

# The published form of the running-example grammar reuses the start
# symbol on the right-hand side, which makes the language infinite; the
# corrected fixture introduces a second leaf nonterminal instead.
PUBLISHED_GRAMMAR = """\
S
S -> op1(C)
C -> op2(U)
U -> op3(S' S)
S' -> op4
S -> op5
"""

RUNNING_TREE = tree(
    "op1", tree("op2", tree("op3", tree("op4"), tree("op5")))
)


def all_trees_up_to_size(terminal_ranks, max_size):
    """Every well-ranked tree over the alphabet with <= max_size nodes."""
    by_size = {n: [] for n in range(max_size + 1)}
    for n in range(1, max_size + 1):
        for name, rank in terminal_ranks.items():
            if rank == 0:
                if n == 1:
                    by_size[n].append(DerivationTree(name))
            else:
                child_budget = n - 1
                splits = (
                    [(child_budget,)]
                    if rank == 1
                    else [
                        (i, child_budget - i)
                        for i in range(1, child_budget)
                    ]
                )
                for split in splits:
                    pools = [by_size[k] for k in split]
                    for combo in itertools.product(*pools):
                        by_size[n].append(DerivationTree(name, combo))
    return [t for n in range(1, max_size + 1) for t in by_size[n]]


class TestParseRtg:
    def test_published_running_grammar(self):
        g = parse_rtg(PUBLISHED_GRAMMAR)
        assert g.start == "S"
        assert g.nonterminals == {"S", "C", "U", "S'"}
        assert g.terminals == {"op1": 1, "op2": 1, "op3": 2, "op4": 0, "op5": 0}
        assert all(p.weight == 0 for p in g.productions)

    def test_single_nullary_rule(self):
        g = parse_rtg("S\nS -> a")
        (p,) = g.productions
        assert p.symbol == "a" and p.rhs == ()
        assert p.weight == 0

    def test_weight_syntax(self):
        g = parse_rtg("S\nS -> f(S S) # 1.5\nS -> a # 0")
        weights = {p.symbol: p.weight for p in g.productions}
        assert weights == {"f": Fraction(3, 2), "a": Fraction(0)}

    def test_comments_and_blank_lines_ignored(self):
        g = parse_rtg("// header\n\nS\n// rule\nS -> a // trailing\n")
        assert len(g.productions) == 1

    def test_quoted_comment_marker_starts_no_comment(self):
        # The comment rule of every input format: a ``//`` inside a
        # quoted string is text, as in an operation named "x//y".
        g = parse_rtg('S // the start "\nS -> "x//y" // a rule\n')
        assert [p.symbol for p in g.productions] == ['"x//y"']
        (t,) = parse_tree_file('"x//y" // a tree\n')
        assert t.label == '"x//y"'

    def test_rank_conflict_rejected(self):
        with pytest.raises(RankConflictError, match="^line 3: terminal 'f'"):
            parse_rtg("S\nS -> f(S S)\nS -> f(S)")

    def test_missing_start_line_rejected(self):
        with pytest.raises(RtgSyntaxError):
            parse_rtg("S -> a")

    def test_empty_file_rejected(self):
        with pytest.raises(RtgSyntaxError):
            parse_rtg("")

    def test_symbol_as_both_nonterminal_and_terminal_rejected(self):
        with pytest.raises(RankConflictError):
            parse_rtg("S\nS -> a(a)")

    def test_negative_weight_rejected(self):
        with pytest.raises(RtgSyntaxError):
            parse_rtg("S\nS -> a # -1")

    @pytest.mark.parametrize("weight", ["inf", "1/0"])
    def test_weight_that_is_no_fraction_rejected(self, weight):
        with pytest.raises(RtgSyntaxError) as exc:
            parse_rtg(f"S\nS -> a # {weight}")
        assert str(exc.value) == f"line 2: bad weight '{weight}'"

    @pytest.mark.parametrize("parse, text, message", [
        (parse_rtg, "S T\nS -> a",
         "line 1: start line must be a single nonterminal"),
        (parse_rtg, "S\nS a", "line 2: cannot parse rule: 'S a'"),
        (parse_tree, "", "line 1: unexpected end of tree"),
        (parse_tree, ")", "line 1: unexpected token ')'"),
    ], ids=["start-line", "rule", "tree-end", "tree-token"])
    def test_syntax_error_texts(self, parse, text, message):
        with pytest.raises(RtgSyntaxError) as exc:
            parse(text)
        assert str(exc.value) == message


class TestHandBuiltGrammar:
    """A grammar built without the parser uses only declared symbols."""

    def test_start_that_is_no_nonterminal_rejected(self):
        with pytest.raises(ValueError, match=(
                "^start symbol 'T' is not a nonterminal$")):
            WeightedRtg(frozenset({"S"}), {}, (), "T")

    @pytest.mark.parametrize("rule, name", [
        (Production("S", "f", ("T",)), "T"), (Production("T", "f", ("S",)), "T")])
    def test_undeclared_nonterminal_rejected(self, rule, name):
        with pytest.raises(ValueError, match=(
                f"names '{name}', which is not a nonterminal")):
            WeightedRtg(frozenset({"S"}), {"f": 1}, (rule,), "S")

    @pytest.mark.parametrize("terminals, message", [
        ({"a": 1}, "'b' is not a terminal"),
        ({"a": 0, "b": 0}, "'a' has rank 0 in the terminals")])
    def test_terminal_missing_or_of_another_rank_rejected(
            self, terminals, message):
        rules = (Production("S", "a", ("S",)), Production("S", "b", ()))
        with pytest.raises(RankConflictError, match=message):
            WeightedRtg(frozenset({"S"}), terminals, rules, "S")


class TestLanguageContains:
    def test_running_tree_is_in_the_language(self):
        g = parse_rtg(RUNNING_GRAMMAR)
        assert language_contains(g, RUNNING_TREE)

    def test_leaf_alone_is_not_derivable_from_start(self):
        g = parse_rtg(RUNNING_GRAMMAR)
        assert not language_contains(g, tree("op4"))

    def test_exhaustive_enumeration_finds_exactly_one_member(self):
        g = parse_rtg(RUNNING_GRAMMAR)
        members = [
            t
            for t in all_trees_up_to_size(g.terminals, 8)
            if language_contains(g, t)
        ]
        assert members == [RUNNING_TREE]


class TestMinTreeWeight:
    def test_running_tree_has_weight_zero(self):
        g = parse_rtg(RUNNING_GRAMMAR)
        assert min_tree_weight(g, RUNNING_TREE) == 0

    def test_minimum_over_two_derivations(self):
        g = parse_rtg("S\nS -> a # 2\nS -> a # 5")
        assert min_tree_weight(g, tree("a")) == 2

    def test_none_outside_the_language(self):
        g = parse_rtg("S\nS -> a")
        assert min_tree_weight(g, tree("b")) is None

    @given(seeds)
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_derivation_enumeration(self, s):
        g = tractable_grammar(
            random.Random(s), 5, max_nonterminals=3, max_rules=6
        )
        by_tree = {}
        for t, w in enumerate_derivations(g, 5):
            if t not in by_tree or w < by_tree[t]:
                by_tree[t] = w
        for t, w in by_tree.items():
            assert min_tree_weight(g, t) == w


class TestNBestTrees:
    def test_running_grammar_has_a_unique_tree(self):
        g = parse_rtg(RUNNING_GRAMMAR)
        best = n_best_trees(g, 5)
        assert best == [(RUNNING_TREE, Fraction(0))]

    def test_n_below_1_rejected(self):
        with pytest.raises(ValueError, match="^n must be at least 1$"):
            n_best_trees(parse_rtg(RUNNING_GRAMMAR), 0)

    def test_linear_chain_order(self):
        g = parse_rtg("S\nS -> f(S) # 1\nS -> a # 0")
        best = n_best_trees(g, 3)
        assert [(t.serialize(), w) for t, w in best] == [
            ("a", 0),
            ("f(a)", 1),
            ("f(f(a))", 2),
        ]

    def test_duplicate_derivations_merge_at_min_weight(self):
        g = parse_rtg("S\nS -> a # 3\nS -> a # 1\nS -> b # 2")
        best = n_best_trees(g, 5)
        assert [(t.serialize(), w) for t, w in best] == [("a", 1), ("b", 2)]

    def test_duplicated_production_costs_no_extra_pops(self):
        g = parse_rtg(DUPLICATE_RULE_GRAMMAR)
        got = n_best_trees(g, 40, budget=1_000)
        # t7r0, then t5r2(t0r1^k(t5r1(t5r1(t6r0))) t6r0) for k = 0..38,
        # all of weight 16 and at most 43 nodes.  A tree the oracle
        # leaves out weighs more or is over 43 high, so it has more
        # nodes: either way it ranks after all 40.
        assert len(got) == 40 and got[-1][1] == 16
        assert max(t.size() for t, _w in got) == 43
        expected = best_trees_by_enumeration(
            merge_identical_productions(g), 40, 43, max_weight=Fraction(16))
        assert [(t.serialize(), w) for t, w in got] == [
            (t.serialize(), w) for t, w in expected]

    def test_ties_prefer_smaller_then_lexicographic(self):
        g = parse_rtg("S\nS -> f(S) # 0\nS -> b # 1\nS -> a # 1")
        best = n_best_trees(g, 4)
        assert [t.serialize() for t, _ in best] == ["a", "b", "f(a)", "f(b)"]

    def test_empty_language_warns_and_returns_nothing(self):
        g = parse_rtg("S\nS -> f(S)")
        with pytest.warns(EmptyLanguageWarning):
            assert n_best_trees(g, 3) == []

    def test_budget_exhaustion_raises(self):
        g = parse_rtg("S\nS -> f(S S)\nS -> a")
        with pytest.raises(BudgetExceededError):
            n_best_trees(g, 10_000, budget=50)

    def test_infinite_language_with_all_zero_weights_terminates(self):
        g = parse_rtg(PUBLISHED_GRAMMAR)
        best = n_best_trees(g, 4)
        assert [t.serialize() for t, _ in best][:2] == [
            "op5",
            "op1(op2(op3(op4 op5)))",
        ]
        assert len(best) == 4

    @given(seeds)
    @settings(max_examples=40, deadline=None)
    def test_weights_non_decreasing_and_members(self, s):
        g = random_grammar(random.Random(s))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", EmptyLanguageWarning)
            best = n_best_trees(g, 8)
        for (t1, w1), (t2, w2) in zip(best, best[1:]):
            assert w1 <= w2
        for t, w in best:
            assert language_contains(g, t)
            assert min_tree_weight(g, t) == w
        assert len({t.serialize() for t, _ in best}) == len(best)

    @given(seeds)
    @settings(max_examples=30, deadline=None)
    def test_finite_language_is_returned_in_full_sorted(self, s):
        rng = random.Random(s)
        # Grammars without rank >= 1 rules have finite languages.
        g = random_grammar(rng, max_nonterminals=3, max_rules=6)
        if any(p.rhs for p in g.productions):
            return
        expected = best_trees_by_enumeration(g, 50, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", EmptyLanguageWarning)
            got = n_best_trees(g, 50)
        assert [(t.serialize(), w) for t, w in got] == [
            (t.serialize(), w) for t, w in expected
        ]

    @given(seeds, seeds)
    @settings(max_examples=25, deadline=None)
    def test_weight_increase_is_monotone(self, s, pick):
        rng = random.Random(s)
        g = tractable_grammar(rng, 4, max_nonterminals=3, max_rules=6)
        trees_and_weights = {}
        for t, w in enumerate_derivations(g, 4):
            if t not in trees_and_weights or w < trees_and_weights[t]:
                trees_and_weights[t] = w
        if not g.productions:
            return
        index = pick % len(g.productions)
        from gexpand import Production, WeightedRtg

        bumped = tuple(
            Production(p.lhs, p.symbol, p.rhs, p.weight + (2 if i == index else 0))
            for i, p in enumerate(g.productions)
        )
        g2 = WeightedRtg(g.nonterminals, g.terminals, bumped, g.start)
        for t, w in trees_and_weights.items():
            w2 = min_tree_weight(g2, t)
            assert w2 is not None and w2 >= w


# Rule weights with denominators 2, 3, 4 and 10, beside zeros and
# integers, so that ties across fractions are common.
FRACTIONAL_WEIGHTS = (0, 1, 2, Fraction(1, 2), Fraction(1, 3),
                      Fraction(3, 4), Fraction(7, 10), Fraction(5, 2))
ORACLE_BUDGET = 4000
BENCH_INPUTS = Path(__file__).resolve().parents[1] / "bench" / "inputs"


class TestNBestAgainstNestedSearch:
    """The flat search returns what the nested-tuple search returned and
    fails on the same pop."""

    @given(seeds, st.sampled_from([1, 2, 7, 40]), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_same_trees_weights_and_budget(self, s, n, fractional):
        rng = random.Random(s)
        g = random_grammar(rng, weight_choices=FRACTIONAL_WEIGHTS
                           if fractional else (0, 1, 2, 3, 4, 5))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", EmptyLanguageWarning)
            try:
                expected, pops = naive_n_best_trees(
                    merge_identical_productions(g), n, ORACLE_BUDGET)
            except BudgetExceededError:
                with pytest.raises(BudgetExceededError):
                    n_best_trees(g, n, ORACLE_BUDGET)
                return
            got = n_best_trees(g, n, budget=pops)
            assert [(t.serialize(), w) for t, w in got] == [
                (t.serialize(), w) for t, w in expected
            ]
            for t, w in got:
                assert type(w) is Fraction and min_tree_weight(g, t) == w
            if pops:
                for budget in {pops - 1, rng.randrange(pops)}:
                    with pytest.raises(BudgetExceededError):
                        n_best_trees(g, n, budget=budget)

    @pytest.mark.parametrize("name, n", [("amr", 740), ("symmetric", 43)])
    def test_bench_grammars(self, name, n):
        g = parse_rtg((BENCH_INPUTS / f"{name}.rtg").read_text())
        expected, pops = naive_n_best_trees(g, n)
        assert [(t.serialize(), w) for t, w in n_best_trees(g, n, pops)] == [
            (t.serialize(), w) for t, w in expected
        ]
        with pytest.raises(BudgetExceededError):
            n_best_trees(g, n, pops - 1)


class TestReachableNonterminals:
    def test_running_grammar(self):
        g = parse_rtg(RUNNING_GRAMMAR)
        assert reachable_nonterminals(g) == g.nonterminals

    @given(st.integers(0, 10**9))
    @settings(max_examples=100, deadline=None)
    def test_agrees_with_a_fixpoint_over_all_rules(self, s):
        g = random_grammar(random.Random(s))
        reached = {g.start}
        changed = True
        while changed:
            changed = False
            for p in g.productions:
                if p.lhs in reached and not reached.issuperset(p.rhs):
                    reached.update(p.rhs)
                    changed = True
        assert reachable_nonterminals(g) == reached


class TestParseTrees:
    def test_functional_notation(self):
        (t,) = parse_tree_file(RUNNING_TREE_TEXT)
        assert t == RUNNING_TREE

    def test_bracket_notation(self):
        assert parse_tree("op1[op2[op3[op4, op5]]]") == RUNNING_TREE

    def test_empty_file_gives_empty_list(self):
        assert parse_tree_file("") == []

    def test_cross_line_rank_conflict(self):
        with pytest.raises(RankConflictError):
            parse_tree_file("f(a a)\nf(a)\n")

    def test_syntax_error_reports_line(self):
        with pytest.raises(RtgSyntaxError):
            parse_tree_file("f(a\n")

    def test_trailing_tokens_rejected(self):
        with pytest.raises(RtgSyntaxError):
            parse_tree("f(a) b")

    def test_equal_subtrees_across_lines_are_one_object(self):
        first, second = parse_tree_file("f(g(a))\nh(g(a))\n")
        assert first.children[0] is second.children[0]
        assert str(first) == "f(g(a))" and str(second) == "h(g(a))"

    def test_equal_subtrees_on_one_line_are_one_object(self):
        (t,) = parse_tree_file("p(g(a) g(a))\n")
        left, right = t.children
        assert left is right and left.children[0] is right.children[0]
        # Same label, different children: different objects.
        (u,) = parse_tree_file("p(g(a) g(b))\n")
        assert u.children[0] is not u.children[1]

    def test_rank_conflict_message_is_unchanged_by_sharing(self):
        with pytest.raises(RankConflictError, match=(
                r"line 2: symbol 'g' has rank 2 here but rank 1 at line 1")):
            parse_tree_file("f(g(a))\nh(g(a) g(a a))\n")
        # The rank check skips the shared f(a) on line 2, not the a(b)
        # after it.
        with pytest.raises(RankConflictError, match=(
                r"line 2: symbol 'a' has rank 1 here but rank 0 at line 1")):
            parse_tree_file("f(a)\ng(f(a) a(b))\n")

    def test_rank_check_visits_each_node_object_once(self, monkeypatch):
        grammar = parse_rtg((BENCH_INPUTS / "amr.rtg").read_text())
        text = "".join(f"{t}\n" for t, _w in n_best_trees(grammar, 3000))
        visits = []
        real = DerivationTree.walk

        def counted(self, *args):
            for node in real(self, *args):
                visits.append(node)
                yield node

        monkeypatch.setattr(DerivationTree, "walk", counted)
        trees = parse_tree_file(text)
        assert len(visits) == len({id(node) for node in visits}) == 4_204
        assert sum(1 for t in trees for _node in real(t)) == 30_348


def _term(node, _path, values):
    """Fold step that rebuilds the serialization of the subtree."""
    return f"{node.label}({' '.join(values)})" if values else node.label


class TestFold:
    def test_walk_with_seen_skips_nodes_met_before(self):
        (first, second) = parse_tree_file("f(g(a) g(a))\nh(g(a) b)\n")
        seen = set()
        assert [n.label for n in first.walk(seen)] == ["f", "g", "a"]
        assert [n.label for n in second.walk(seen)] == ["h", "b"]
        assert [n.label for n in second.walk()] == ["h", "g", "a", "b"]

    def test_paths_without_memo(self):
        seen = []
        parse_tree("f(g(a) b)").fold(
            lambda node, path, _values: seen.append((node.label, path)))
        assert seen == [("a", "r.0.0"), ("g", "r.0"), ("b", "r.1"), ("f", "r")]

    def test_memo_runs_one_step_per_distinct_node(self):
        (t,) = parse_tree_file("p(g(a) g(a) h(g(a) b))\n")
        steps = []

        def step(node, path, values):
            steps.append((node, path))
            return _term(node, path, values)

        memo = {}
        assert t.fold(step, memo) == t.fold(_term) == t.serialize()
        assert [node.serialize() for node, _path in steps] == [
            "a", "g(a)", "b", "h(g(a) b)", "p(g(a) g(a) h(g(a) b))"]
        # Each step gets the path of the position it runs at.
        assert [path for _node, path in steps] == [
            "r.0.0", "r.0", "r.2.1", "r.2", "r"]
        assert t.size() == 9 and len(memo) == 5
        # A second fold with the same memo runs no step at all.
        assert t.fold(step, memo) == t.serialize() and len(steps) == 5

    def test_shared_decides_which_nodes_are_stored(self):
        (t,) = parse_tree_file("p(g(a) g(a) h(g(a) b))\n")
        steps = []

        def step(node, path, values):
            steps.append((node.serialize(), path))
            return _term(node, path, values)

        memo = {}
        # Only the a and h(g(a) b) nodes are stored, so every other node
        # runs its step at each of its positions.
        shared = lambda node: node.label in ("a", "h")
        assert t.fold(step, memo, shared) == t.serialize()
        assert steps == [
            ("a", "r.0.0"), ("g(a)", "r.0"), ("g(a)", "r.1"),
            ("g(a)", "r.2.0"), ("b", "r.2.1"), ("h(g(a) b)", "r.2"),
            ("p(g(a) g(a) h(g(a) b))", "r")]
        assert sorted(memo) == sorted({id(t.children[0].children[0]),
                                       id(t.children[2])})
        steps.clear()
        assert t.fold(step, memo, shared) == t.serialize()
        assert steps == [("g(a)", "r.0"), ("g(a)", "r.1"),
                         ("p(g(a) g(a) h(g(a) b))", "r")]

    @given(seeds)
    @settings(max_examples=40, deadline=None)
    def test_memo_over_a_corpus_equals_unmemoized(self, s):
        g = random_grammar(random.Random(s))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", EmptyLanguageWarning)
            trees = [t for t, _w in n_best_trees(g, 8)]
        steps = []

        def step(node, path, values):
            steps.append(path)
            return _term(node, path, values)

        memo = {}
        for t in trees:
            assert t.fold(step, memo) == t.fold(_term)
        assert len(steps) == len(
            {id(node) for t in trees for node in t.walk()})
