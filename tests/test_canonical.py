"""Canonical labelling: the WL colours order nodes as the naive
refinement does, the pruned search returns exactly the order of the
unpruned one, and symmetric graphs cost one leaf of the search."""

import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gexpand import (
    EvalConfig, Graph, canonical_key, canonical_order, disjoint_union,
    emit_gv, evaluate_corpus, rename_nodes, tree,
)
from gexpand import graphs
from generators import (
    EDGE_LABELS, NODE_LABELS, random_algebra_for, random_grammar, random_graph,
)
from oracles import (
    _naive_wl_colors,
    naive_canonical_key,
    naive_canonical_order,
)

seeds = st.integers(0, 10**9)


def shuffled_names(rng: random.Random, g: Graph) -> Graph:
    """``g`` with its nodes renamed in a random order, so that ties in
    the search are broken by different names."""
    names = [f"u{i}" for i in range(len(g.nodes))]
    rng.shuffle(names)
    return rename_nodes(g, dict(zip(sorted(g.nodes), names)))


def star(k: int, hub_port: bool = False, leaf_loops: bool = False,
         rng: random.Random = None) -> Graph:
    """A hub with ``k`` leaves; with ``rng``, leaf labels and spoke labels
    are drawn from two values each, so only some leaves are twins."""
    nodes = ["hub"] + [f"leaf{i}" for i in range(k)]
    labels = {"hub": "hub"}
    edges = set()
    for v in nodes[1:]:
        labels[v] = rng.choice(["leaf", "twig"]) if rng else "leaf"
        edges.add(("hub", rng.choice(EDGE_LABELS) if rng else "spoke", v))
        if leaf_loops:
            edges.add((v, "loop", v))
    return Graph(edges, labels, ("hub",) if hub_port else ())


def path(n: int, ported: bool = True) -> Graph:
    nodes = [f"p{i}" for i in range(n)]
    edges = [(nodes[i], "next", nodes[i + 1]) for i in range(n - 1)]
    return Graph(edges, {v: "node" for v in nodes},
                 (nodes[0],) if ported else ())


def plant_twins(rng: random.Random, g: Graph) -> Graph:
    """``g`` plus copies of one of its non-port nodes: each copy has the
    node's label and its labelled in- and out-neighbours.  Sometimes the
    node and the copies get self-loops, sometimes one copy is joined to
    the node by an edge (then the two are no longer twins), and some
    labels become wildcards or empty."""
    nodes = set(g.nodes) or {"v0"}
    labels = dict(g.labels) or {"v0": rng.choice(NODE_LABELS)}
    edges = set(g.edges)
    ports = g.ports
    v = rng.choice(sorted(nodes - set(ports)) or [None])
    if v is None:
        v = "extra"
        nodes.add(v)
        labels[v] = rng.choice(NODE_LABELS)
    copies = [f"{v}c{i}" for i in range(rng.randint(1, 3))]
    loops = rng.random() < 0.3
    for w in copies:
        nodes.add(w)
        labels[w] = labels[v]
        for s, l, t in g.edges:
            if s == v:
                edges.add((w, l, w if t == v else t))
            elif t == v:
                edges.add((s, l, w))
        if loops:
            edges.add((w, "e", w))
    if loops:
        edges.add((v, "e", v))
    if rng.random() < 0.3:
        edges.add((v, rng.choice(EDGE_LABELS), copies[0]))
    for u in sorted(nodes):
        if rng.random() < 0.1:
            labels[u] = rng.choice([None, ""])
    return Graph(edges, labels, ports)


def cycles(rng: random.Random) -> Graph:
    """Directed cycles of lengths 1 to 3 with one node label, and on
    every cycle node either nothing, an edge to a sink of its own or an
    edge from a source of its own.  1-WL gives all cycle nodes one
    colour, although only nodes on cycles of the same length are
    automorphic: ties the search must break by trying them all."""
    lengths, total = [], 0
    while total < 4:
        lengths.append(rng.randint(1, 3))
        total += lengths[-1]
    pendant = rng.choice([None, "sink", "source"])
    nodes, edges = [], set()
    for c, n in enumerate(lengths):
        ring = [f"c{c}n{i}" for i in range(n)]
        nodes += ring
        for i, v in enumerate(ring):
            edges.add((v, "next", ring[(i + 1) % n]))
            if pendant:
                end = f"{v}{pendant}"
                nodes.append(end)
                edges.add((v, "to", end) if pendant == "sink" else (end, "to", v))
    return Graph(edges, {v: "x" for v in nodes})


def assert_same_as_naive(g: Graph) -> None:
    assert canonical_order(g) == naive_canonical_order(g)
    assert canonical_key(g) == naive_canonical_key(g)


class TestExactness:
    @given(seeds)
    @settings(max_examples=300, deadline=None)
    def test_random_graphs(self, s):
        assert_same_as_naive(random_graph(random.Random(s)))

    @given(seeds)
    @settings(max_examples=300, deadline=None)
    def test_random_graphs_with_planted_twins(self, s):
        rng = random.Random(s)
        g = plant_twins(rng, random_graph(rng, 6))
        assert_same_as_naive(shuffled_names(rng, g))

    @given(seeds, st.integers(0, 6), st.booleans(), st.booleans(),
           st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_stars(self, s, k, hub_port, leaf_loops, mixed):
        rng = random.Random(s)
        g = star(k, hub_port, leaf_loops, rng if mixed else None)
        assert_same_as_naive(shuffled_names(rng, g))

    @given(seeds, st.integers(2, 3), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_repeated_components(self, s, k, hub):
        # k copies of one graph are not twins, so only the automorphisms
        # the search finds prune it; a hub joined to one node of each
        # copy keeps them interchangeable.  The unpruned search takes up
        # to 20 s on four copies, so the pins below go further.
        rng = random.Random(s)
        part = random_graph(rng, 4)
        g = part
        for _ in range(k - 1):
            g = disjoint_union(g, part)
        if hub and part.nodes:
            first = sorted(part.nodes)[0]
            firsts = [v for v in g.nodes if v.startswith(first)]
            g = Graph(set(g.edges) | {("hub", "spoke", v) for v in firsts},
                      {**g.labels, "hub": "hub"}, g.ports)
        assert_same_as_naive(shuffled_names(rng, g))

    @given(seeds, st.integers(2, 5))
    @settings(max_examples=50, deadline=None)
    def test_joined_twin_looking_pair_is_not_pruned(self, s, k):
        # Leaves a and b have equal labels and neighbourhoods apart from
        # the edge between them, so swapping them is no automorphism.
        rng = random.Random(s)
        g = star(k, hub_port=rng.random() < 0.5)
        g = Graph(set(g.edges) | {("leaf0", "spoke", "leaf1")},
                  g.labels, g.ports)
        assert_same_as_naive(shuffled_names(rng, g))

    @given(seeds)
    @settings(max_examples=100, deadline=None)
    def test_wildcard_labels(self, s):
        rng = random.Random(s)
        g = random_graph(rng, 7)
        labels = {v: (None if rng.random() < 0.5 else lab)
                  for v, lab in g.labels.items()}
        assert_same_as_naive(Graph(g.edges, labels, g.ports))

    @given(seeds)
    @settings(max_examples=50, deadline=None)
    def test_cycles_that_wl_cannot_tell_apart(self, s):
        rng = random.Random(s)
        assert_same_as_naive(shuffled_names(rng, cycles(rng)))

    def test_path_without_ports(self):
        assert_same_as_naive(path(30, ported=False))

    @given(seeds)
    @settings(max_examples=300, deadline=None)
    def test_only_graphs_with_a_coarse_partition_are_searched(self, s):
        rng = random.Random(s)
        g = random_graph(rng)
        if rng.random() < 0.3:
            g = plant_twins(rng, g)
        g = shuffled_names(rng, g)
        rest = g.nodes - set(g.ports)
        color = graphs._wl_colors(g, *graphs._adjacency(g))
        discrete = len({color[v] for v in rest}) == len(rest)
        with mock.patch.object(graphs, "_least_leaf",
                               wraps=graphs._least_leaf) as search:
            assert_same_as_naive(g)
        assert search.called == (bool(rest) and not discrete)


class TestInsertionOrder:
    """A graph's nodes iterate in the order its labels were given, so
    nothing the canonical search or the gv writer returns may depend on
    that order."""

    @given(seeds, st.sampled_from(["random", "twins", "star", "cycles"]))
    @settings(max_examples=200, deadline=None)
    def test_shuffled_insertion_gives_the_same_outputs(self, s, kind):
        rng = random.Random(s)
        g = {
            "random": lambda: random_graph(rng),
            "twins": lambda: plant_twins(rng, random_graph(rng, 6)),
            "star": lambda: star(rng.randint(0, 6), rng.random() < 0.5,
                                 rng.random() < 0.5, rng),
            "cycles": lambda: cycles(rng),
        }[kind]()
        # The gv writer needs every node labelled.
        labels = {v: lab or "" for v, lab in g.labels.items()}
        edges, items = list(g.edges), list(labels.items())
        for seq in (edges, items):
            rng.shuffle(seq)
        built = Graph(g.edges, labels, g.ports)
        shuffled = Graph(edges, dict(items), g.ports)
        assert canonical_order(shuffled) == canonical_order(built)
        assert canonical_key(shuffled) == canonical_key(built)
        assert emit_gv(shuffled) == emit_gv(built)


class TestWlColors:
    """``_wl_colors`` refines classes in place; its colours must be an
    order-preserving renaming of the naive refinement's, so that every
    order the search derives from them stays the same."""

    @staticmethod
    def assert_renames_naive(g: Graph) -> None:
        color = graphs._wl_colors(g, *graphs._adjacency(g))
        pairs = sorted({(n, color[v]) for v, n in _naive_wl_colors(g).items()})
        assert len(pairs) == len({n for n, _c in pairs}) == len(
            {c for _n, c in pairs})
        assert [c for _n, c in pairs] == sorted(c for _n, c in pairs)

    @given(seeds, st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_random_graphs_with_planted_twins(self, s, twins):
        rng = random.Random(s)
        g = random_graph(rng)
        self.assert_renames_naive(plant_twins(rng, g) if twins else g)

    @given(st.integers(1, 40), st.booleans(), st.integers(0, 12),
           st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_paths_and_stars(self, n, ported, k, hub_port):
        self.assert_renames_naive(path(n, ported))
        self.assert_renames_naive(star(k, hub_port))


@pytest.fixture()
def certificates(monkeypatch):
    """Records the size of every certificate built: one per leaf the
    canonical search reaches, and one for the canonical key."""
    calls = []
    real = graphs._certificate

    def counted(g, order):
        calls.append(len(order))
        return real(g, order)

    monkeypatch.setattr(graphs, "_certificate", counted)
    return calls


class TestWork:
    @pytest.mark.parametrize("k", [8, 12, 50])
    @pytest.mark.parametrize("hub_port", [False, True])
    def test_star_reaches_one_leaf(self, certificates, k, hub_port):
        canonical_order(star(k, hub_port))
        assert len(certificates) == 1

    @pytest.mark.parametrize("k", [7, 10])
    def test_disjoint_copies_reach_k_leaves(self, certificates, k):
        # Each copy the first node may come from is one leaf; every
        # other branch lies in the orbit of one already taken.
        nodes = [f"n{i}" for i in range(2 * k)]
        edges = {(nodes[2 * i], "e", nodes[2 * i + 1]) for i in range(k)}
        g = Graph(edges, {v: "x" for v in nodes}, ())
        canonical_order(g)
        assert certificates == [2 * k] * k

    def test_dock_forgetting_chain_reaches_linear_leaves(self, certificates):
        # The t2r1 chain of random_corpus(192478, 20, crowded=True) in
        # tests/test_evaluator.py: each step adds two swappable nodes,
        # and the unpruned search took k! time on them.
        rng = random.Random(192478)
        algebra = random_algebra_for(rng, random_grammar(rng), max_context=3,
                                     crowded=True)
        t = tree("t6r0")
        for _ in range(19):
            t = tree("t2r1", t)
        (outcome,) = evaluate_corpus([t], algebra, EvalConfig(mode="enumerate"))
        (g,) = outcome.graphs
        # Each depth d has 2d + 2 nodes.  Up to depth 2 the WL colours
        # are discrete and only the key is built; from depth 3 on, the
        # search reaches d - 1 leaves and the key adds one certificate.
        assert certificates == [2, 4, 6] + [
            n for d in range(3, 20) for n in [2 * d + 2] * d]
        certificates.clear()
        canonical_order(Graph(g.edges, g.labels, g.ports))
        assert certificates == [40] * 18

    def test_ported_path_reaches_one_leaf(self, certificates):
        canonical_key(path(200))
        assert certificates == [200]

    def test_order_and_key_come_from_one_search(self, certificates):
        g = star(5, hub_port=True)
        key = canonical_key(g)
        order = canonical_order(g)
        emit_gv(g)
        assert canonical_key(g) == key and canonical_order(g) is order
        # One leaf of one search, then the key's certificate.
        assert certificates == [len(g.nodes)] * 2

    def test_order_alone_builds_no_key(self, certificates):
        g = path(30, ported=False)
        canonical_order(g)
        assert g._key is None and certificates == []
        assert canonical_key(g) == naive_canonical_key(g)
        assert certificates == [30]

    @pytest.mark.parametrize("g", [
        path(200), path(30, ported=False),
    ], ids=["ported", "unported"])
    def test_discrete_graph_enters_no_search_level(
            self, monkeypatch, certificates, g):
        rest = g.nodes - set(g.ports)
        color = graphs._wl_colors(g, *graphs._adjacency(g))
        assert len({color[v] for v in rest}) == len(rest)

        def no_search(*_args):
            raise AssertionError("searched a discrete graph")

        monkeypatch.setattr(graphs, "_least_leaf", no_search)
        assert canonical_order(g) == naive_canonical_order(g)
        assert certificates == []

    def test_search_deeper_than_the_recursion_limit(self):
        nodes = [f"v{i:04d}" for i in range(1500)]
        g = Graph([], {v: v for v in nodes})
        assert canonical_order(g) == tuple(nodes)
