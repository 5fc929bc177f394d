"""Independent reference evaluation for the benchmark's correctness check.

Evaluates a derivation tree straight from the definition of expansion
and union, with no deduplication, no canonical labelling and none of
``gexpand``'s evaluation code, and compares graphs by a backtracking
search for a label-, edge- and port-preserving bijection.  Meant for
small trees only.
"""

from __future__ import annotations

from itertools import count, product
from typing import Dict, List, Tuple

from gexpand import EmptyConstant, UnionOperation

# A graph is (labels: {node: label}, edges: frozenset of (s, l, t), ports).
G = Tuple[Dict[int, str], frozenset, Tuple[int, ...]]


def evaluate(tree, algebra) -> List[G]:
    """Every graph the tree denotes, one per context choice."""
    return _eval(tree, algebra, count())


def _eval(tree, algebra, fresh) -> List[G]:
    op = algebra[tree.label]
    if isinstance(op, EmptyConstant):
        return [({}, frozenset(), ())]
    if isinstance(op, UnionOperation):
        left = _eval(tree.children[0], algebra, fresh)
        right = _eval(tree.children[1], algebra, fresh)
        return [
            _union(g, h, fresh)
            for g in left if len(g[2]) == op.left_arity
            for h in right if len(h[2]) == op.right_arity
        ]
    args = (_eval(tree.children[0], algebra, fresh) if tree.children
            else [({}, frozenset(), ())])
    return [r for g in args for r in _expand(op, g, fresh)]


def _union(g: G, h: G, fresh) -> G:
    ren = {v: next(fresh) for v in h[0]}
    labels = dict(g[0])
    labels.update({ren[v]: lab for v, lab in h[0].items()})
    edges = g[1] | {(ren[s], l, ren[t]) for s, l, t in h[1]}
    return labels, edges, g[2] + tuple(ren[p] for p in h[2])


def _expand(op, arg: G, fresh) -> List[G]:
    labels, edges, ports = arg
    if len(ports) != len(op.docks):
        return []
    if len(set(op.docks)) != len(op.docks):
        raise ValueError(f"oracle does not support repeated docks ({op.name})")
    tl = op.template.labels
    non_ports = sorted(set(labels) - set(ports))
    context = op.context
    choices = [[v for v in non_ports if labels[v] == tl[u]] for u in context]
    out = []
    for combo in product(*choices):
        m = dict(zip(op.docks, ports))
        m.update(zip(context, combo))
        new_labels = dict(labels)
        for u in op.template.nodes:
            if u not in m:
                m[u] = next(fresh)
            if tl[u] is not None:
                new_labels[m[u]] = tl[u]
        new_edges = edges | {(m[s], l, m[t]) for s, l, t in op.template.edges}
        out.append((new_labels, new_edges, tuple(m[p] for p in op.ports)))
    return out


def from_graph(g) -> G:
    """Convert a ``gexpand`` Graph into the oracle's representation."""
    ids = {v: i for i, v in enumerate(sorted(g.nodes))}
    return (
        {ids[v]: g.labels[v] for v in g.nodes},
        frozenset((ids[s], l, ids[t]) for s, l, t in g.edges),
        tuple(ids[p] for p in g.ports),
    )


def relabel(g: G, mapping: Dict[str, str]) -> G:
    return {v: mapping.get(l, l) for v, l in g[0].items()}, g[1], g[2]


def isomorphic(g: G, h: G) -> bool:
    """Backtracking search for a bijection preserving labels, edges and
    port positions."""
    (gl, ge, gp), (hl, he, hp) = g, h
    if len(gl) != len(hl) or len(ge) != len(he) or len(gp) != len(hp):
        return False
    if sorted(gl.values()) != sorted(hl.values()):
        return False
    m = dict(zip(gp, hp))
    if any(gl[v] != hl[w] for v, w in m.items()):
        return False
    rest = _bfs_order(gl, ge, gp)
    free = set(hl) - set(hp)

    def consistent(v) -> bool:
        for s, l, t in ge:
            if v in (s, t) and s in m and t in m:
                if (m[s], l, m[t]) not in he:
                    return False
        return True

    def search(i: int) -> bool:
        if i == len(rest):
            return {(m[s], l, m[t]) for s, l, t in ge} == he
        v = rest[i]
        for w in sorted(free):
            if hl[w] != gl[v]:
                continue
            m[v] = w
            free.remove(w)
            if consistent(v) and search(i + 1):
                return True
            free.add(w)
            del m[v]
        return False

    return all(
        (m[s], l, m[t]) in he for s, l, t in ge if s in m and t in m
    ) and search(0)


def _bfs_order(labels, edges, ports) -> List[int]:
    """Non-port nodes in breadth-first order from the ports, so that the
    search mostly places nodes next to placed ones."""
    adj = {v: set() for v in labels}
    for s, _l, t in edges:
        adj[s].add(t)
        adj[t].add(s)
    seen = set(ports)
    order: List[int] = []
    for root in [*ports, *sorted(labels)]:
        if root in seen and root not in ports:
            continue
        if root not in seen:
            seen.add(root)
            order.append(root)
        queue = [root]
        while queue:
            v = queue.pop(0)
            for w in sorted(adj[v] - seen):
                seen.add(w)
                order.append(w)
                queue.append(w)
    return order


def dedup(graphs: List[G]) -> List[G]:
    kept: List[G] = []
    for g in graphs:
        if not any(isomorphic(g, h) for h in kept):
            kept.append(g)
    return kept
