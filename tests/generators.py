"""Seeded random generators for graphs, grammars, and algebras."""

import random
from fractions import Fraction
from typing import Sequence

from gexpand import (
    Algebra,
    DerivationTree,
    ExpansionOperation,
    Graph,
    Production,
    UnionOperation,
    WeightedRtg,
)

NODE_LABELS = ["a", "b", "c", "d"]
EDGE_LABELS = ["e", "f"]


def random_graph(rng: random.Random, max_nodes: int = 8) -> Graph:
    n = rng.randint(0, max_nodes)
    nodes = [f"v{i}" for i in range(n)]
    labels = {v: rng.choice(NODE_LABELS) for v in nodes}
    edges = set()
    for s in nodes:
        for t in nodes:
            if rng.random() < 0.25:
                edges.add((s, rng.choice(EDGE_LABELS), t))
    k = rng.randint(0, n)
    ports = tuple(rng.sample(nodes, k))
    return Graph(edges, labels, ports)


def random_grammar(
    rng: random.Random,
    max_nonterminals: int = 6,
    max_rules: int = 12,
    weight_choices=(0, 1, 2, 3, 4, 5),
    leaf_weight_choices=None,
) -> WeightedRtg:
    """A random weighted RTG; terminal ranks at most 2.

    ``weight_choices`` applies to rules of rank >= 1, and
    ``leaf_weight_choices`` (default: same) to rank-0 rules.
    """
    if leaf_weight_choices is None:
        leaf_weight_choices = weight_choices
    nts = [f"N{i}" for i in range(rng.randint(1, max_nonterminals))]
    n_rules = rng.randint(len(nts), max_rules)
    productions = []
    terminal_ranks = {}
    for i in range(n_rules):
        lhs = rng.choice(nts)
        if i == 0:
            # Guarantee at least one nullary start rule so the language
            # can be non-empty.
            rank = 0
            lhs = nts[0]
        else:
            rank = rng.choice([0, 1, 1, 2])
        name = f"t{rng.randint(0, 7)}r{rank}"
        if name in terminal_ranks and terminal_ranks[name] != rank:
            continue
        terminal_ranks[name] = rank
        rhs = tuple(rng.choice(nts) for _ in range(rank))
        weight = rng.choice(weight_choices if rank else leaf_weight_choices)
        productions.append(
            Production(lhs, name, rhs, Fraction(weight))
        )
    return WeightedRtg(
        frozenset(nts), terminal_ranks, tuple(productions), nts[0]
    )


def random_expansion_operation(
    rng: random.Random,
    name: str,
    dock_count: int,
    port_count: int,
    max_context: int = 1,
    extension_only: bool = False,
    node_labels: Sequence[str] = NODE_LABELS,
) -> ExpansionOperation:
    """A random expansion operation with exactly the given dock-sequence
    length and port count.

    With ``extension_only`` the template satisfies (R1) and (R2) and has
    no context nodes: all edges run from new nodes to old ones and every
    forgotten dock has an incoming edge.  The dock sequence is then also
    repetition-free: a repeated dock merges argument ports, and merging
    two ports already connected by a path creates a cycle, so the
    acyclicity invariant only holds without repetitions.
    """
    # Distinct dock nodes; the dock sequence covers each at least once.
    if extension_only:
        n_distinct = dock_count
    else:
        n_distinct = rng.randint(1, dock_count) if dock_count else 0
    dock_nodes = [f"d{i}" for i in range(n_distinct)]
    docks = list(dock_nodes)
    while len(docks) < dock_count:
        docks.append(rng.choice(dock_nodes))
    rng.shuffle(docks)
    docks = tuple(docks)

    # Some ports may be dock nodes; the rest are fresh new nodes.  In
    # extension mode keep at least one new node whenever a dock would be
    # forgotten, so (R2) is satisfiable under (R1).
    if extension_only and n_distinct and port_count == 0:
        raise ValueError(
            "an extension operation with docks must have at least one port"
        )
    shared = rng.randint(0, min(port_count, n_distinct))
    if extension_only and shared == port_count and shared < n_distinct:
        shared -= 1
    shared_docks = rng.sample(dock_nodes, shared)
    new_nodes = [f"p{i}" for i in range(port_count - shared)]
    ports = list(new_nodes) + shared_docks
    rng.shuffle(ports)
    ports = tuple(ports)

    n_ctx = 0 if extension_only else rng.randint(0, max_context)
    ctx_nodes = [f"c{i}" for i in range(n_ctx)]

    node_order = tuple(new_nodes + dock_nodes + ctx_nodes)
    new_set = set(ports) - set(docks)
    labels = {}
    for v in node_order:
        if v in dock_nodes and v not in new_set:
            labels[v] = None if rng.random() < 0.5 else rng.choice(node_labels)
        else:
            labels[v] = rng.choice(node_labels)

    edges = set()
    if extension_only:
        old = [v for v in node_order if v not in new_set]
        forgotten = sorted(set(docks) - set(ports))
        for v in forgotten:
            edges.add((rng.choice(sorted(new_set)), rng.choice(EDGE_LABELS), v))
        for s in sorted(new_set):
            for t in old:
                if rng.random() < 0.4:
                    edges.add((s, rng.choice(EDGE_LABELS), t))
    else:
        for s in node_order:
            for t in node_order:
                if rng.random() < 0.3:
                    edges.add((s, rng.choice(EDGE_LABELS), t))

    template = Graph(edges, labels, ports)
    return ExpansionOperation(name, template, docks)


def random_algebra_for(rng: random.Random, grammar: WeightedRtg,
                       max_context: int = 2, crowded: bool = False) -> Algebra:
    """An algebra over a grammar's terminals: unions at rank 2, random
    expansion operations with up to ``max_context`` context nodes
    otherwise.

    Each nonterminal gets a random type in {1, 2}, and an operation's
    dock and port counts are the types of the first production that
    uses it, so that most trees are well typed.  Leaves get no context
    nodes: their argument is the empty graph, which no context node
    matches.

    With ``crowded``, every labelled template node has label ``a``.
    Then every non-port node of an argument, a dock forgotten below, is
    a candidate of every context node, so deeper context nodes have
    several candidates and enumerate-mode sets grow toward the caps."""
    nt_type = {a: rng.randint(1, 2) for a in sorted(grammar.nonterminals)}
    ops = {}
    for p in grammar.productions:
        name = p.symbol
        if name in ops:
            continue
        arg_types = [nt_type[b] for b in p.rhs]
        if len(p.rhs) == 2:
            ops[name] = UnionOperation(name, *arg_types)
        else:
            ops[name] = random_expansion_operation(
                rng, name, dock_count=sum(arg_types),
                port_count=nt_type[p.lhs],
                max_context=max_context if p.rhs else 0,
                node_labels=["a"] if crowded else NODE_LABELS)
    return Algebra(ops)


def random_algebra_and_tree(rng: random.Random, max_depth: int = 3):
    """A random small algebra together with a type-correct derivation
    tree over it (types chosen from {0, 1, 2})."""
    ops = {}
    counter = [0]

    def fresh(prefix):
        counter[0] += 1
        return f"{prefix}{counter[0]}"

    def build(depth: int, want_type: int) -> DerivationTree:
        choice = rng.random()
        if depth >= max_depth or choice < 0.35:
            name = fresh("leaf")
            ops[name] = random_expansion_operation(
                rng, name, dock_count=0, port_count=want_type, max_context=1
            )
            return DerivationTree(name)
        if choice < 0.6 and want_type >= 1:
            name = fresh("u")
            lt = rng.randint(0, want_type)
            ops[name] = UnionOperation(name, lt, want_type - lt)
            return DerivationTree(
                name,
                (build(depth + 1, lt), build(depth + 1, want_type - lt)),
            )
        name = fresh("x")
        arg_type = rng.randint(0, 2)
        ops[name] = random_expansion_operation(
            rng, name, dock_count=arg_type, port_count=want_type, max_context=1
        )
        return DerivationTree(name, (build(depth + 1, arg_type),))

    t = build(0, rng.randint(0, 2))
    return Algebra(ops), t


def total_context_nodes(algebra: Algebra) -> int:
    return sum(
        len(op.context)
        for op in algebra.operations.values()
        if isinstance(op, ExpansionOperation)
    )


def random_extension_geg(rng: random.Random):
    """A random typed grammar whose operations are all extension
    operations (r1 and r2 hold) with no context nodes, plus unions.

    Every generated tree evaluates to exactly one graph, so the
    acyclicity and port-reachability invariants can be checked on
    non-empty output.
    """
    nts = [f"N{i}" for i in range(rng.randint(2, 4))]
    nt_type = {a: rng.choice([1, 1, 2]) for a in nts}
    productions = []
    ops = {}
    counter = [0]

    def fresh() -> str:
        counter[0] += 1
        return f"t{counter[0]}"

    for a in nts:
        # Base rule: a leaf extension operation (all nodes are ports).
        name = fresh()
        ops[name] = random_expansion_operation(
            rng, name, dock_count=0, port_count=nt_type[a], extension_only=True
        )
        productions.append(
            Production(a, name, (), Fraction(rng.randint(0, 3)))
        )
    for _ in range(rng.randint(1, 6)):
        a = rng.choice(nts)
        if nt_type[a] == 2 and rng.random() < 0.3:
            b, c = rng.choice(nts), rng.choice(nts)
            if nt_type[b] + nt_type[c] != 2:
                continue
            name = fresh()
            ops[name] = UnionOperation(name, nt_type[b], nt_type[c])
            productions.append(
                Production(
                    a, name, (b, c),
                    Fraction(rng.randint(0, 3)),
                )
            )
        else:
            b = rng.choice(nts)
            name = fresh()
            ops[name] = random_expansion_operation(
                rng, name, dock_count=nt_type[b], port_count=nt_type[a],
                extension_only=True,
            )
            productions.append(
                Production(
                    a, name, (b,),
                    Fraction(rng.randint(0, 3)),
                )
            )
    terminal_ranks = {p.symbol: len(p.rhs) for p in productions}
    grammar = WeightedRtg(
        frozenset(nts), terminal_ranks, tuple(productions), nts[0]
    )
    return grammar, Algebra(ops)
