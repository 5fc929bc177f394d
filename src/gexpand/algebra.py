"""The graph expansion algebra: expansion operations, union operations,
and the empty-graph constant.

An expansion operation stacks a template graph on top of an argument
graph: the template's dock sequence is fused positionally with the
argument's port sequence (repeated docks merge argument ports), every
context node (a template node that is neither port nor dock) is fused
with some equally labelled non-port node of the argument, and the
template's ports become the ports of the result.
"""

from __future__ import annotations

import itertools
import re
from typing import Dict, List, Mapping, Optional, Tuple, Union

from ._record import Record, _set
from .graphs import Graph, _fresh, _renamed_edges, canonical_key
from .gvio import GvSyntaxError, parse_statements, split_blocks


class OperationFileError(ValueError):
    pass


class ExpansionTypeError(TypeError):
    """Argument type (port count) does not match the dock count."""


class ExpansionOperation(Record):
    """An expansion: a name, a template graph, whose ports are the
    operation's and whose nodes are in declaration order, and its dock
    sequence."""

    __slots__ = ("name", "template", "docks", "_context")

    def __post_init__(self) -> None:
        for v in self.docks:
            if v not in self.template.nodes:
                raise OperationFileError(
                    f"operation {self.name!r}: {v!r} is not a template node"
                )
        # Unlabelled nodes are wildcards, legal only as docks: a
        # label-free context node would match every node, and a
        # label-free new port would yield an unlabelled output node.
        for v, lab in self.template.labels.items():
            if lab is None and v not in self.docks:
                raise OperationFileError(
                    f"operation {self.name!r}: node {v!r} has no label and "
                    f"is not a dock"
                )
        outside = set(self.ports) | set(self.docks)
        _set(self, "_context",
             tuple(v for v in self.template.nodes if v not in outside))

    @property
    def ports(self) -> Tuple[str, ...]:
        return self.template.ports

    @property
    def context(self) -> Tuple[str, ...]:
        """Context nodes, in template declaration order."""
        return self._context

    @property
    def new_nodes(self) -> frozenset:
        return frozenset(self.ports) - frozenset(self.docks)


class UnionOperation(Record):
    """A union of a graph of type ``left_arity`` and one of type
    ``right_arity``."""

    __slots__ = ("name", "left_arity", "right_arity")

    def __post_init__(self) -> None:
        if self.left_arity < 0 or self.right_arity < 0:
            raise OperationFileError(
                f"operation {self.name!r}: negative arity"
            )


class EmptyConstant(Record):
    """The constant for the empty graph."""

    __slots__ = ("name",)


Operation = Union[ExpansionOperation, UnionOperation, EmptyConstant]


class Algebra(Record):
    """The operations, by name."""

    __slots__ = ("operations",)

    def __getitem__(self, name: str) -> Operation:
        return self.operations[name]

    def __contains__(self, name: str) -> bool:
        return name in self.operations

    def fault(self, symbol: str, rank: int) -> Optional[str]:
        """Why a derivation tree node labelled ``symbol`` with ``rank``
        children cannot be evaluated, or None when it can."""
        op = self.operations.get(symbol)
        if op is None:
            return f"no operation defined for symbol {symbol!r}"
        # A zero-dock expansion used at rank 0 is applied to the empty
        # graph.
        ranks = ((2,) if isinstance(op, UnionOperation)
                 else (0,) if isinstance(op, EmptyConstant)
                 else (1,) if op.docks else (0, 1))
        if rank not in ranks:
            return (f"symbol {symbol!r} has rank {rank} but the operation "
                    f"allows ranks {ranks}")
        return None


def context_candidates(op: ExpansionOperation, arg: Graph) -> List[List[str]]:
    """For each context node of ``op``, in order, the sorted non-port
    nodes of ``arg`` that carry its label."""
    non_ports = arg.nodes - set(arg.ports)
    wanted = [op.template.labels[u] for u in op.context]
    return [
        sorted(v for v in non_ports if arg.labels[v] == lab) for lab in wanted
    ]


def enumerate_context_assignments(
    op: ExpansionOperation, arg: Graph, injective: bool = False
) -> List[Dict[str, str]]:
    """All total maps from context nodes to equally labelled non-port
    nodes of the argument, in deterministic order.

    Two context nodes may map to the same argument node unless
    ``injective`` is set.
    """
    ctx = op.context
    assignments = []
    for combo in itertools.product(*context_candidates(op, arg)):
        if injective and len(set(combo)) != len(combo):
            continue
        assignments.append(dict(zip(ctx, combo)))
    return assignments


def apply_expansion(
    op: ExpansionOperation,
    arg: Graph,
    assignment: Mapping[str, str],
) -> Graph:
    """Apply an expansion operation to an argument graph under a fixed
    context assignment.

    A labelled dock keeps its template label after fusion; an
    unlabelled (wildcard) dock inherits the argument port's label.  When
    a repeated wildcard dock merges argument ports whose labels differ,
    the earliest merged port's label wins.
    """
    if arg.type != len(op.docks):
        raise ExpansionTypeError(
            f"operation {op.name!r} needs an argument with {len(op.docks)} "
            f"ports, got {arg.type}"
        )

    used = set(arg.nodes)
    rename: Dict[str, str] = {}
    for i, v in enumerate(op.template.nodes):
        rename[v] = _fresh(f"+{i}", used)
        used.add(rename[v])

    context = set(op.context)
    arg_ports = set(arg.ports)
    for u, v in assignment.items():
        if u not in context:
            raise ValueError(
                f"{u!r} is not a context node of operation {op.name!r}"
            )
        if v not in arg.labels:
            raise ValueError(
                f"context node {u!r} mapped to {v!r}, which is not a node "
                f"of the argument"
            )
        if v in arg_ports:
            raise ValueError(
                f"context node {u!r} mapped to argument port {v!r}"
            )
        if arg.labels[v] != op.template.labels[u]:
            raise ValueError(
                f"context node {u!r} mapped to node {v!r} with a "
                f"different label"
            )
    if len(assignment) != len(context):
        raise ValueError(
            f"context nodes {[u for u in op.context if u not in assignment]} "
            f"of operation {op.name!r} are not assigned"
        )

    # Every fusion class is a star: a dock with the argument ports fused
    # to it, or an argument non-port with the context nodes mapped to
    # it.  The hub gives the class its label, its least member its name.
    labels: Dict[str, Optional[str]] = dict(arg.labels)
    labels.update((rename[v], lab) for v, lab in op.template.labels.items())
    stars: Dict[str, List[str]] = {}
    for dock, port in zip(op.docks, arg.ports):
        stars.setdefault(rename[dock], []).append(port)
    for hub, fused in stars.items():
        if labels[hub] is None:
            labels[hub] = arg.labels[fused[0]]
    for u, v in assignment.items():
        stars.setdefault(v, []).append(rename[u])

    name = {x: x for x in labels}
    for hub, leaves in stars.items():
        least = min(hub, *leaves)
        name[hub] = least
        for x in leaves:
            name[x] = least
            del labels[x]
    edges = _renamed_edges(arg.edges, name)
    edges.update((name[rename[s]], l, name[rename[t]])
                 for s, l, t in op.template.edges)
    labels = {name[x]: lab for x, lab in labels.items()}
    ports = tuple(name[rename[p]] for p in op.ports)
    return Graph(edges, labels, ports)


def apply_expansion_all(
    op: ExpansionOperation,
    arg: Graph,
    injective: bool = False,
) -> List[Graph]:
    """All results of applying ``op`` to ``arg`` over every admissible
    context assignment, deduplicated up to isomorphism.

    Returns the empty list when the argument type mismatches or no
    assignment exists.
    """
    if arg.type != len(op.docks):
        return []
    return dedup([apply_expansion(op, arg, a)
                  for a in enumerate_context_assignments(op, arg, injective)])


def dedup(graphs: List[Graph]) -> List[Graph]:
    """The first graph of each isomorphism class, in order."""
    out: Dict[str, Graph] = {}
    for g in graphs:
        out.setdefault(canonical_key(g), g)
    return list(out.values())


class ExtensionReport(Record):
    """The template edges that violate condition (R1) and the docks that
    violate (R2); a condition holds when nothing violates it."""

    __slots__ = ("r1_violations", "r2_violations")

    @property
    def r1(self) -> bool:
        return not self.r1_violations

    @property
    def r2(self) -> bool:
        return not self.r2_violations


def check_extension(op: ExpansionOperation) -> ExtensionReport:
    """Report whether an expansion operation is an extension operation.

    r1: every template edge runs from a new node (port that is not a
    dock) to a non-new node.  r2: every forgotten dock (dock that is
    not a port) has an incoming template edge.
    """
    new = op.new_nodes
    bad_edges = tuple(
        sorted(
            (s, l, t)
            for s, l, t in op.template.edges
            if s not in new or t in new
        )
    )
    has_incoming = {t for _s, _l, t in op.template.edges}
    bad_docks = tuple(
        sorted(set(op.docks) - set(op.ports) - has_incoming)
    )
    return ExtensionReport(bad_edges, bad_docks)


_OP_HEADER_RE = re.compile(r"operation\s+(?P<name>[^\s{]+)\s*\{")
_UNION_BODY_RE = re.compile(r"(\d+)\s+(\d+)\s*;?")


def _parse_expansion_body(
    name: str, lines: List[Tuple[int, str]]
) -> ExpansionOperation:
    body = parse_statements(lines, ("port", "dock", "// ports:"))
    if "// ports:" in body.lists:
        raise GvSyntaxError(
            "a '// ports:' comment sets no ports in an operation; list "
            "them in a 'port' line", body.lists["// ports:"][0])
    ports = body.ids("port", unique=True)
    docks = body.ids("dock")
    # The record checks the wildcard rule too; this check names the line.
    for v, lab in body.declared.items():
        if lab is None and v not in docks:
            raise GvSyntaxError(
                f"node {v!r} has no label and is not a dock",
                body.decl_line[v])
    template = Graph(body.edges, body.declared, ports)
    return ExpansionOperation(name, template, docks)


def parse_operation_file(text: str) -> Algebra:
    """Parse an operation file into an algebra.

    A body of two integers on one line is a union operation; the
    literal body ``empty`` is the empty-graph constant; anything else
    is an expansion body of gv statements plus port/dock lines.
    """
    try:
        blocks = split_blocks(text, _OP_HEADER_RE, "operation <name> {")
    except GvSyntaxError as exc:
        raise OperationFileError(str(exc)) from exc
    operations: Dict[str, Operation] = {}
    for start_line, header, body in blocks:
        name = header.group("name")
        if name in operations:
            raise OperationFileError(
                f"line {start_line}: duplicate operation name {name!r}"
            )
        content = [l for _ln, l in body if l and not l.startswith("//")]
        only = content[0] if len(content) == 1 else ""
        m = _UNION_BODY_RE.fullmatch(only)
        if m:
            operations[name] = UnionOperation(name, int(m.group(1)), int(m.group(2)))
        elif only.rstrip(";") == "empty":
            operations[name] = EmptyConstant(name)
        else:
            try:
                operations[name] = _parse_expansion_body(name, body)
            except GvSyntaxError as exc:
                raise OperationFileError(f"operation {name!r}: {exc}") from exc
    return Algebra(operations)
