"""Tests for the graph core: construction, union, isomorphism, keys."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gexpand import (
    Graph,
    GraphError,
    canonical_key,
    canonical_order,
    disjoint_union,
    empty_graph,
    is_isomorphic,
    rename_nodes,
)
from generators import random_graph
from oracles import brute_force_isomorphic

seeds = st.integers(0, 10**9)


def graph_from_seed(seed: int, max_nodes: int = 8) -> Graph:
    return random_graph(random.Random(seed), max_nodes)


def single(label: str, name: str = "v") -> Graph:
    return Graph([], {name: label}, (name,))


class TestConstruction:
    def test_edge_endpoint_must_be_node(self):
        with pytest.raises(GraphError):
            Graph([("a", "e", "b")], {"a": "x"})

    def test_ports_must_be_nodes_without_repetition(self):
        with pytest.raises(GraphError):
            Graph([], {"a": "x"}, ("a", "a"))
        with pytest.raises(GraphError):
            Graph([], {"a": "x"}, ("b",))

    def test_parallel_edges_with_same_label_coalesce(self):
        g = Graph(
            [("a", "e", "b"), ("a", "e", "b")],
            {"a": "x", "b": "y"},
        )
        assert len(g.edges) == 1

    def test_graphs_are_immutable(self):
        g = single("x")
        with pytest.raises(AttributeError,
                           match="^cannot assign to field 'ports'$"):
            g.ports = ()
        # A deleted field, even a cached one, would break later reads.
        for name in Graph.__slots__:
            with pytest.raises(AttributeError,
                               match=f"^cannot delete field '{name}'$"):
                delattr(g, name)
        assert canonical_order(g) == ("v",)


class TestNodeSet:
    """A graph's nodes are the keys of its label map."""

    def test_no_node_set_is_stored(self):
        assert "nodes" not in Graph.__slots__

    @given(seeds)
    def test_nodes_are_the_label_keys(self, s):
        rng = random.Random(s)
        g = random_graph(rng)
        items = list(g.labels.items())
        rng.shuffle(items)
        h = Graph(g.edges, dict(items), g.ports)
        assert list(h.nodes) == [v for v, _lab in items]
        assert h.nodes == set(g.labels)


class TestEmptyGraph:
    def test_empty_graph_has_nothing(self):
        g = empty_graph()
        assert not g.nodes and not g.edges and not g.ports

    def test_type_of_empty_is_zero(self):
        assert empty_graph().type == 0

    def test_union_of_empties_is_empty(self):
        assert is_isomorphic(
            disjoint_union(empty_graph(), empty_graph()), empty_graph()
        )


class TestTypeOf:
    def test_single_port_node(self):
        assert single("she").type == 1

    def test_union_of_two_one_port_graphs_has_type_two(self):
        assert disjoint_union(single("she"), single("they")).type == 2


class TestDisjointUnion:
    def test_she_they_union(self):
        g = disjoint_union(single("she"), single("they"))
        assert len(g.nodes) == 2 and not g.edges
        assert [g.labels[p] for p in g.ports] == ["she", "they"]

    def test_empty_left_operand_is_identity(self):
        h = graph_from_seed(7)
        u = disjoint_union(empty_graph(), h)
        assert is_isomorphic(u, h)
        assert [u.labels[p] for p in u.ports] == [h.labels[p] for p in h.ports]

    def test_node_and_port_counts_add(self):
        g = Graph(
            [("a", "e", "b")],
            {"a": "x", "b": "y", "c": "z"},
            ("a", "b"),
        )
        h = Graph([], {"a": "q", "b": "r"}, ("b",))
        u = disjoint_union(g, h)
        assert len(u.nodes) == 5
        assert u.type == 3
        assert [u.labels[p] for p in u.ports] == ["x", "y", "r"]

    def test_name_collisions_are_renamed(self):
        g = single("x", "n")
        h = single("y", "n")
        u = disjoint_union(g, h)
        assert len(u.nodes) == 2
        assert sorted(u.labels.values()) == ["x", "y"]

    @given(seeds, seeds)
    def test_type_and_size_additivity(self, s1, s2):
        g, h = graph_from_seed(s1), graph_from_seed(s2)
        u = disjoint_union(g, h)
        assert u.type == g.type + h.type
        assert len(u.nodes) == len(g.nodes) + len(h.nodes)
        assert len(u.edges) == len(g.edges) + len(h.edges)

    @given(seeds, seeds)
    def test_union_shares_every_edge_whose_ends_keep_their_names(self, s1, s2):
        g, h = graph_from_seed(s1), graph_from_seed(s2)
        # About half of the nodes of h get names g has not, so they keep
        # them.
        rng = random.Random(s2)
        h = rename_nodes(
            h, {v: f"h{v}" if rng.random() < 0.5 else v for v in h.nodes})
        held = {id(e) for e in disjoint_union(g, h).edges}
        assert all(id(e) in held for e in g.edges)
        assert all(id(e) in held for e in h.edges
                   if e[0] not in g.nodes and e[2] not in g.nodes)

    @given(seeds, seeds, seeds)
    @settings(max_examples=30, deadline=None)
    def test_associative_up_to_isomorphism(self, s1, s2, s3):
        g, h, k = (graph_from_seed(s, 5) for s in (s1, s2, s3))
        left = disjoint_union(disjoint_union(g, h), k)
        right = disjoint_union(g, disjoint_union(h, k))
        assert is_isomorphic(left, right)

    def test_not_commutative_with_distinguishable_ports(self):
        g, h = single("x"), single("y")
        assert not is_isomorphic(disjoint_union(g, h), disjoint_union(h, g))


class TestIsomorphism:
    def test_renamed_copy_is_isomorphic(self):
        g = graph_from_seed(11)
        mapping = {v: f"r_{v}" for v in g.nodes}
        assert is_isomorphic(g, rename_nodes(g, mapping))

    def test_port_swap_breaks_isomorphism(self):
        g = Graph(
            [("a", "e", "b")], {"a": "x", "b": "y"}, ("a", "b")
        )
        h = Graph(
            [("a", "e", "b")], {"a": "x", "b": "y"}, ("b", "a")
        )
        assert not is_isomorphic(g, h)

    def test_extra_isolated_node_breaks_isomorphism(self):
        g = single("x")
        h = Graph([], {"v": "x", "w": "x"}, ("v",))
        assert not is_isomorphic(g, h)

    @given(seeds, seeds)
    @settings(max_examples=150, deadline=None)
    def test_agrees_with_brute_force(self, s1, s2):
        g, h = graph_from_seed(s1, 5), graph_from_seed(s2, 5)
        assert is_isomorphic(g, h) == brute_force_isomorphic(g, h)

    @given(seeds)
    @settings(max_examples=60, deadline=None)
    def test_renamed_copy_agrees_with_brute_force(self, s):
        g = graph_from_seed(s, 6)
        h = rename_nodes(g, {v: f"q{i}" for i, v in enumerate(sorted(g.nodes))})
        assert is_isomorphic(g, h)
        assert brute_force_isomorphic(g, h)

    @given(seeds, seeds, seeds)
    @settings(max_examples=40, deadline=None)
    def test_equivalence_relation(self, s1, s2, s3):
        g, h, k = (graph_from_seed(s, 5) for s in (s1, s2, s3))
        assert is_isomorphic(g, g)
        assert is_isomorphic(g, h) == is_isomorphic(h, g)
        if is_isomorphic(g, h) and is_isomorphic(h, k):
            assert is_isomorphic(g, k)


class TestCanonicalKey:
    def test_equal_for_renamed_copies(self):
        g = graph_from_seed(3)
        h = rename_nodes(g, {v: f"z{i}" for i, v in enumerate(sorted(g.nodes))})
        assert canonical_key(g) == canonical_key(h)

    def test_differs_with_extra_node(self):
        g = single("x")
        h = Graph([], {"v": "x", "w": "x"}, ("v",))
        assert canonical_key(g) != canonical_key(h)

    @given(seeds, seeds)
    @settings(max_examples=100, deadline=None)
    def test_key_equality_iff_isomorphic(self, s1, s2):
        g, h = graph_from_seed(s1, 5), graph_from_seed(s2, 5)
        assert (canonical_key(g) == canonical_key(h)) == brute_force_isomorphic(g, h)

    @given(seeds)
    def test_canonical_order_starts_with_ports(self, s):
        g = graph_from_seed(s)
        order = canonical_order(g)
        assert order[: g.type] == g.ports
        assert sorted(order) == sorted(g.nodes)


class TestRenameNodes:
    def test_non_bijective_renaming_rejected(self):
        g = Graph([], {"a": "x", "b": "y"})
        with pytest.raises(GraphError, match="renaming is not a bijection"):
            rename_nodes(g, {"a": "c", "b": "c"})

    @pytest.mark.parametrize("mapping", [
        {"a": "p", "c": "q"},
        {"a": "p"},
        {"a": "p", "b": "q", "c": "r"},
    ])
    def test_mapping_must_cover_exactly_the_nodes(self, mapping):
        g = Graph([("a", "e", "b")], {"a": "x", "b": "y"})
        with pytest.raises(GraphError, match="does not map exactly"):
            rename_nodes(g, mapping)
