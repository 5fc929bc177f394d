"""Tests for definition files and abstract-label instantiation."""

import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gexpand import (
    DefinitionError,
    DefinitionTable,
    Graph,
    InstantiationCapError,
    canonical_key,
    disjoint_union,
    instantiate_all,
    instantiation_count,
    is_isomorphic,
    parse_definitions,
)
from gexpand import substitution
from generators import NODE_LABELS, random_graph

seeds = st.integers(0, 10**9)


def table(**entries) -> DefinitionTable:
    return DefinitionTable({k: tuple(v) for k, v in entries.items()})


def random_table(rng: random.Random) -> DefinitionTable:
    entries = {}
    for label in NODE_LABELS:
        if rng.random() < 0.5:
            entries[label] = tuple(
                f"{label}{i}" for i in range(rng.randint(1, 3))
            )
    return DefinitionTable(entries)


class TestParseDefinitions:
    def test_single_entry(self):
        d = parse_definitions("she: she, he\n")
        assert d.entries == {"she": ("she", "he")}

    def test_empty_file(self):
        assert len(parse_definitions("")) == 0

    def test_comments_ignored(self):
        d = parse_definitions("// intro\nx: a // trailing\n")
        assert d.entries == {"x": ("a",)}

    def test_duplicate_key_rejected(self):
        with pytest.raises(DefinitionError):
            parse_definitions("x: a\nx: b\n")

    def test_empty_replacement_list_rejected(self):
        with pytest.raises(DefinitionError):
            parse_definitions("x:\n")

    def test_missing_colon_rejected(self):
        with pytest.raises(DefinitionError):
            parse_definitions("x a b\n")

    def test_chained_definitions_rejected(self):
        with pytest.raises(DefinitionError):
            parse_definitions("x: a\ny: x, b\n")

    def test_value_ending_in_backslash_rejected(self):
        with pytest.raises(DefinitionError, match="line 2.*backslash"):
            parse_definitions("x: a\ny: b, c\\\n")
        assert parse_definitions("y: b\\c\n").entries == {"y": ("b\\c",)}


class TestInstantiateAll:
    def test_two_by_two_product(self):
        g = Graph(
            ["s", "t"],
            [("s", "e", "t")],
            {"s": "she", "t": "they"},
            ("s",),
        )
        d = table(she=["she", "he"], they=["they", "all"])
        out = instantiate_all(g, d)
        assert len(out) == 4
        combos = {
            (h.labels["s"], h.labels["t"]) for h in out
        }
        assert combos == set(product(("she", "he"), ("they", "all")))

    def test_empty_table_is_identity(self):
        g = random_graph(random.Random(0))
        out = instantiate_all(g, table())
        assert len(out) == 1
        assert is_isomorphic(out[0], g)

    def test_per_occurrence_independence(self):
        g = Graph(
            ["a", "b"], [], {"a": "sing-pronoun", "b": "sing-pronoun"}
        )
        d = table(**{"sing-pronoun": ["he", "she", "it"]})
        assert len(instantiate_all(g, d)) == 9

    def test_per_label_coupling(self):
        g = Graph(
            ["a", "b"], [], {"a": "sing-pronoun", "b": "sing-pronoun"}
        )
        d = table(**{"sing-pronoun": ["he", "she", "it"]})
        out = instantiate_all(g, d, per_label=True)
        assert len(out) == 3
        for h in out:
            assert h.labels["a"] == h.labels["b"]

    def test_untouched_labels_pass_through(self):
        g = Graph(["a", "b"], [], {"a": "x", "b": "keep"})
        out = instantiate_all(g, table(x=["p", "q"]))
        assert all(h.labels["b"] == "keep" for h in out)

    def test_structure_and_ports_preserved(self):
        g = Graph(
            ["a", "b"],
            [("a", "e", "b")],
            {"a": "x", "b": "y"},
            ("b", "a"),
        )
        for h in instantiate_all(g, table(x=["p", "q"], y=["r"])):
            assert h.nodes == g.nodes
            assert h.edges == g.edges
            assert h.ports == g.ports

    def test_output_order_is_deterministic(self):
        g = Graph(["a", "b"], [], {"a": "x", "b": "x"})
        d = table(x=["p", "q"])
        first = [h.labels for h in instantiate_all(g, d)]
        second = [h.labels for h in instantiate_all(g, d)]
        assert first == second

    def test_cap_errors_with_the_computed_count(self):
        g = Graph(
            [f"v{i}" for i in range(5)],
            [],
            {f"v{i}": "x" for i in range(5)},
        )
        d = table(x=["a", "b", "c"])
        with pytest.raises(InstantiationCapError) as exc:
            instantiate_all(g, d, cap=100)
        assert exc.value.count == 3**5

    @pytest.mark.parametrize("per_label", [False, True])
    def test_count_and_cap_need_no_canonical_order(self, monkeypatch,
                                                  per_label):
        def unused(g):
            raise AssertionError("canonical order computed")

        monkeypatch.setattr(substitution, "canonical_order", unused)
        g = Graph(["v0", "v1", "v2"], [("v0", "e", "v1")],
                  {"v0": "x", "v1": "x", "v2": "y"})
        d = table(x=["p", "q", "r"], y=["s", "t"])
        assert instantiation_count(g, d, per_label) == (6 if per_label else 18)
        with pytest.raises(InstantiationCapError):
            instantiate_all(g, d, per_label, cap=5)

    @given(seeds)
    @settings(max_examples=80, deadline=None)
    def test_count_matches_analytic_product(self, s):
        rng = random.Random(s)
        g = random_graph(rng, 5)
        d = random_table(rng)
        expected = 1
        for v in g.nodes:
            if g.labels[v] in d:
                expected *= len(d.entries[g.labels[v]])
        assert instantiation_count(g, d) == expected
        assert len(instantiate_all(g, d, cap=10**9)) == expected

    @given(seeds)
    @settings(max_examples=50, deadline=None)
    def test_per_label_count_matches_distinct_label_product(self, s):
        rng = random.Random(s)
        g = random_graph(rng, 5)
        d = random_table(rng)
        expected = 1
        for label in {g.labels[v] for v in g.nodes}:
            if label in d:
                expected *= len(d.entries[label])
        assert instantiation_count(g, d, per_label=True) == expected
        assert len(instantiate_all(g, d, per_label=True, cap=10**9)) == expected

    @given(seeds)
    @settings(max_examples=40, deadline=None)
    def test_outputs_are_structure_isomorphic_to_input(self, s):
        rng = random.Random(s)
        g = random_graph(rng, 4)
        d = random_table(rng)

        def erase(h):
            return Graph(h.nodes, h.edges, {v: "_" for v in h.nodes}, h.ports)

        for h in instantiate_all(g, d, cap=10**6):
            assert is_isomorphic(erase(h), erase(g))

    @given(seeds, seeds)
    @settings(max_examples=25, deadline=None)
    def test_commutes_with_disjoint_union(self, s1, s2):
        rng = random.Random(s1)
        g = random_graph(rng, 3)
        h = random_graph(random.Random(s2), 3)
        d = random_table(rng)
        direct = instantiate_all(disjoint_union(g, h), d, cap=10**6)
        paired = [
            disjoint_union(gi, hi)
            for gi in instantiate_all(g, d, cap=10**6)
            for hi in instantiate_all(h, d, cap=10**6)
        ]
        assert {canonical_key(x) for x in direct} == {
            canonical_key(x) for x in paired
        }
