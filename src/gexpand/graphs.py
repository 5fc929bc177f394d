"""Node- and edge-labelled directed graphs with an ordered port sequence.

Graphs are immutable after construction: assigning or deleting an
attribute raises ``AttributeError``, as for a record.  A graph is built
from its edges, its label map and its ports: the nodes are the label
map's keys, ``nodes`` is a view of them, and it iterates in the order
the labels were given.  Edges are triples (source, edge label, target)
kept in a set, so parallel edges with the same label coalesce; a graph
derived from another (a union, an expansion) shares the edge triples
whose ends keep their names.  The port sequence is the graph's external
interface; its length is the graph's type.

Node labels are strings.  A label of ``None`` marks a wildcard node and
is only legal inside operation templates (dock nodes); ordinary graphs
produced by evaluation are always fully labelled.
"""

from __future__ import annotations

from typing import (Iterable, KeysView, List, Mapping, Optional, Sequence,
                    Set, Tuple)

from ._record import Record


Edge = Tuple[str, str, str]


class GraphError(ValueError):
    """A graph violates a structural invariant."""


class Graph:
    """An immutable directed labelled graph with ports."""

    __slots__ = ("edges", "labels", "ports", "_key", "_order")

    def __init__(
        self,
        edges: Iterable[Edge],
        labels: Mapping[str, Optional[str]],
        ports: Sequence[str] = (),
    ) -> None:
        edge_set = frozenset(tuple(e) for e in edges)
        port_seq = tuple(ports)
        label_map = dict(labels)

        for src, _lab, tgt in edge_set:
            if src not in label_map or tgt not in label_map:
                raise GraphError(f"edge endpoint not a node: {src!r} -> {tgt!r}")
        if len(set(port_seq)) != len(port_seq):
            raise GraphError(f"repeated node in port sequence: {port_seq}")
        unknown_ports = [p for p in port_seq if p not in label_map]
        if unknown_ports:
            raise GraphError(f"port is not a node: {unknown_ports}")

        object.__setattr__(self, "edges", edge_set)
        object.__setattr__(self, "labels", label_map)
        object.__setattr__(self, "ports", port_seq)
        object.__setattr__(self, "_key", None)
        object.__setattr__(self, "_order", None)

    # Equality and hashing stay by identity; the guard is the records'.
    __setattr__ = Record.__setattr__
    __delattr__ = Record.__delattr__

    def __reduce__(self):
        # Loading checks the graph again; the caches start empty.
        return Graph, (self.edges, self.labels, self.ports)

    @property
    def nodes(self) -> KeysView[str]:
        """The node set, as a view of the label map's keys."""
        return self.labels.keys()

    @property
    def type(self) -> int:
        return len(self.ports)

    def __repr__(self) -> str:
        return (
            f"Graph(nodes={len(self.nodes)}, edges={len(self.edges)}, "
            f"type={self.type})"
        )


def empty_graph() -> Graph:
    """The graph with no nodes, no edges, and an empty port sequence."""
    return Graph((), {}, ())


def _fresh(name: str, used: set) -> str:
    while name in used:
        name = name + "'"
    return name


def disjoint_union(g: Graph, h: Graph) -> Graph:
    """Place two graphs side by side and concatenate their port sequences.

    Colliding node names on the right operand are renamed to fresh
    names, deterministically.
    """
    used = set(g.nodes)
    rename = {}
    for v in sorted(h.nodes):
        fresh = _fresh(v, used)
        rename[v] = fresh
        used.add(fresh)
    # The renamed nodes of ``h`` are fresh, so no edge of ``h`` coalesces
    # with one of ``g``.
    edges = _renamed_edges(h.edges, rename)
    edges.update(g.edges)
    labels = dict(g.labels)
    labels.update({rename[v]: lab for v, lab in h.labels.items()})
    ports = g.ports + tuple(rename[p] for p in h.ports)
    return Graph(edges, labels, ports)


def _renamed_edges(
    edges: Iterable[Edge], name: Mapping[str, str]
) -> Set[Edge]:
    """The edges with both ends renamed through ``name``.  An edge whose
    ends keep their names is kept as the same tuple, not a copy, also
    when a renamed edge coalesces with it."""
    kept, moved = set(), []
    for e in edges:
        s, l, t = e
        new_s, new_t = name[s], name[t]
        if new_s is s and new_t is t:
            kept.add(e)
        else:
            moved.append((new_s, l, new_t))
    kept.update(moved)
    return kept


def _adjacency(g: Graph) -> Tuple[dict, dict]:
    """Per node, its (edge label, target) and (edge label, source) lists."""
    out_adj = {v: [] for v in g.nodes}
    in_adj = {v: [] for v in g.nodes}
    for s, l, t in g.edges:
        out_adj[s].append((l, t))
        in_adj[t].append((l, s))
    return out_adj, in_adj


def _wl_colors(g: Graph, out_adj: dict, in_adj: dict) -> dict:
    """Stable 1-WL colouring; port positions and labels seed the colours."""
    port_index = {p: i for i, p in enumerate(g.ports)}
    parts: dict = {}
    for v in g.nodes:
        init = (g.labels[v] or "", port_index.get(v, -1), len(out_adj[v]),
                len(in_adj[v]))
        parts.setdefault(init, []).append(v)
    # The colour classes in colour order; a node's colour is the position
    # of its class.  A round splits each class of two or more nodes by
    # its nodes' neighbour signatures and puts the parts in signature
    # order, so colours refine in place and keep their order.
    classes = [parts[s] for s in sorted(parts)]
    while True:
        color = {v: i for i, part in enumerate(classes) for v in part}
        refined = []
        for part in classes:
            if len(part) > 1:
                parts = {}
                for v in part:
                    outs = sorted([(l, color[t]) for l, t in out_adj[v]])
                    ins = sorted([(l, color[s]) for l, s in in_adj[v]])
                    parts.setdefault((tuple(outs), tuple(ins)), []).append(v)
                if len(parts) > 1:
                    refined.extend(parts[s] for s in sorted(parts))
                    continue
            refined.append(part)
        if len(refined) == len(classes):
            return color
        classes = refined


def _twin_key(g: Graph, v: str, out_adj: dict, in_adj: dict) -> tuple:
    """Equal for two nodes that a swap of the two maps onto each other;
    a self-loop is written with ``None`` as its other end."""
    return (
        g.labels[v],
        frozenset((l, None if t == v else t) for l, t in out_adj[v]),
        frozenset((l, None if s == v else s) for l, s in in_adj[v]),
    )


def _canonical_search(g: Graph) -> Tuple[str, ...]:
    """The canonical order of ``g``.

    Ports come first in port order (isomorphisms must preserve port
    positions); the remaining nodes are placed by a depth-first search
    for the least certificate, guided by WL colours.  When the colours
    of the remaining nodes are pairwise distinct, the partition is
    discrete and already a leaf of that search: every level would have
    one candidate, the node of the least remaining colour.
    """
    order = list(g.ports)
    remaining = g.nodes - set(order)
    if not remaining:
        return tuple(order)

    out_adj, in_adj = _adjacency(g)
    color = _wl_colors(g, out_adj, in_adj)
    if len({color[v] for v in remaining}) == len(remaining):
        order.extend(sorted(remaining, key=color.__getitem__))
        return tuple(order)
    return _least_leaf(g, order, set(remaining), color, out_adj, in_adj)


def _least_leaf(
    g: Graph, order: List[str], remaining: Set[str], color: dict,
    out_adj: dict, in_adj: dict,
) -> Tuple[str, ...]:
    """The search of ``_canonical_search`` below the nodes already in
    ``order``: the order of its least leaf.

    Each level branches, in name order, on the nodes of the least
    remaining colour whose edges to the placed nodes have the least
    signature.  Of several twins among them (non-port nodes with the
    same label and the same labelled in- and out-neighbours) only the
    first is branched on: swapping two twins is an automorphism fixing
    every other node, so their subtrees reach the same certificates,
    and the first leaf that reaches the least one lies under the first
    twin.  A node is skipped too when automorphisms that fix the placed
    nodes map an earlier branch of its level onto it; two leaves with
    equal certificates give one (McKay and Piperno, *Practical graph
    isomorphism, II*, 2014).
    """
    placed = {v: i for i, v in enumerate(order)}
    twin = {}

    def branches():
        least = min(color[v] for v in remaining)
        # Colour and label are the same across one colour class, so the
        # edges to placed nodes decide the signature.
        sigs = {
            v: (
                sorted((placed[t], l) for l, t in out_adj[v] if t in placed),
                sorted((placed[s], l) for l, s in in_adj[v] if s in placed),
            )
            for v in remaining
            if color[v] == least
        }
        least_sig = min(sigs.values())
        ties = sorted(v for v, s in sigs.items() if s == least_sig)
        if len(ties) == 1:
            return iter(ties)
        if not twin:
            twin.update(
                (v, _twin_key(g, v, out_adj, in_adj))
                for v in g.nodes - set(g.ports)
            )
        seen, firsts = set(), []
        for v in ties:
            if twin[v] not in seen:
                seen.add(twin[v])
                firsts.append(v)
        return iter(firsts)

    best_cert = best_order = None
    automorphisms: List[dict] = []  # each as {node: image} of what it moves
    base = len(order)
    levels = [(branches(), [])]
    while levels:
        level, tried = levels[-1]
        # Take back the choices of this level and of any level dropped.
        while len(order) - base >= len(levels):
            v = order.pop()
            del placed[v]
            remaining.add(v)
        v = next(level, None)
        if v is None:
            levels.pop()
            continue
        if tried and v in _orbit(tried, automorphisms, placed):
            continue
        tried.append(v)
        placed[v] = len(order)
        order.append(v)
        remaining.remove(v)
        if remaining:
            levels.append((branches(), []))
        else:
            cert = _certificate(g, order)
            if best_cert is None or cert < best_cert:
                best_cert, best_order = cert, tuple(order)
            elif cert == best_cert:
                # The map from the best leaf to this one takes the branch
                # of the best leaf onto this branch, so nothing below the
                # level where the two part is less.
                moved = {u: w for u, w in zip(best_order, order) if u != w}
                automorphisms.append(moved)
                del levels[min(map(placed.get, moved.values())) - base + 1:]
    return best_order


def _orbit(nodes: List[str], automorphisms: List[dict], placed) -> set:
    """The images of ``nodes`` under the group that the automorphisms
    fixing every node in ``placed`` generate."""
    fixing = [a for a in automorphisms if a.keys().isdisjoint(placed)]
    orbit, stack = set(nodes), list(nodes)
    while stack:
        u = stack.pop()
        for w in {a.get(u, u) for a in fixing} - orbit:
            orbit.add(w)
            stack.append(w)
    return orbit


def _certificate(g: Graph, order: Sequence[str]) -> tuple:
    pos = {v: i for i, v in enumerate(order)}
    labels = tuple(g.labels[v] or "" for v in order)
    edges = tuple(sorted((pos[s], l, pos[t]) for s, l, t in g.edges))
    return (len(order), g.type, labels, edges)


def canonical_order(g: Graph) -> Tuple[str, ...]:
    """A node ordering equal, up to renaming, for isomorphic graphs.

    Ports come first in port order.  Computed once per graph.
    """
    if g._order is None:
        object.__setattr__(g, "_order", _canonical_search(g))
    return g._order


def canonical_key(g: Graph) -> str:
    """A string equal for two graphs iff they are isomorphic: the
    certificate of the canonical order.  Computed once per graph, and
    only for a graph whose key is asked for."""
    if g._key is None:
        object.__setattr__(
            g, "_key", repr(_certificate(g, canonical_order(g))))
    return g._key


def is_isomorphic(g: Graph, h: Graph) -> bool:
    """Label-, edge- and port-position-preserving isomorphism check."""
    if (
        len(g.nodes) != len(h.nodes)
        or len(g.edges) != len(h.edges)
        or g.type != h.type
    ):
        return False
    return canonical_key(g) == canonical_key(h)


def rename_nodes(g: Graph, mapping: Mapping[str, str]) -> Graph:
    """A copy of ``g`` with nodes renamed through a bijection, whose
    keys are exactly the nodes of ``g``."""
    if mapping.keys() != g.nodes:
        raise GraphError("renaming does not map exactly the graph's nodes")
    if len(set(mapping.values())) != len(mapping):
        raise GraphError("renaming is not a bijection")
    return Graph(
        ((mapping[s], l, mapping[t]) for s, l, t in g.edges),
        {mapping[v]: lab for v, lab in g.labels.items()},
        tuple(mapping[p] for p in g.ports),
    )
