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
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Mapping, Optional, Tuple, Union

from .graphs import Graph, _fresh, canonical_key
from .gvio import GvSyntaxError, parse_statements


class OperationFileError(ValueError):
    pass


class ExpansionTypeError(TypeError):
    """Argument type (port count) does not match the dock count."""


@dataclass(frozen=True)
class ExpansionOperation:
    name: str
    template: Graph
    ports: Tuple[str, ...]
    docks: Tuple[str, ...]
    node_order: Tuple[str, ...]

    def __post_init__(self) -> None:
        for v in self.ports + self.docks:
            if v not in self.template.nodes:
                raise OperationFileError(
                    f"operation {self.name!r}: {v!r} is not a template node"
                )
        if len(set(self.ports)) != len(self.ports):
            raise OperationFileError(
                f"operation {self.name!r}: repeated node in port sequence"
            )
        if self.template.ports != self.ports:
            raise OperationFileError(
                f"operation {self.name!r}: template ports disagree with "
                f"port sequence"
            )

    @cached_property
    def context(self) -> Tuple[str, ...]:
        """Context nodes, in template declaration order."""
        outside = set(self.ports) | set(self.docks)
        return tuple(v for v in self.node_order if v not in outside)

    @property
    def new_nodes(self) -> frozenset:
        return frozenset(self.ports) - frozenset(self.docks)


@dataclass(frozen=True)
class UnionOperation:
    name: str
    left_arity: int
    right_arity: int

    def __post_init__(self) -> None:
        if self.left_arity < 0 or self.right_arity < 0:
            raise OperationFileError(
                f"operation {self.name!r}: negative arity"
            )


@dataclass(frozen=True)
class EmptyConstant:
    name: str


Operation = Union[ExpansionOperation, UnionOperation, EmptyConstant]


@dataclass(frozen=True)
class Algebra:
    operations: Dict[str, Operation]

    def __getitem__(self, name: str) -> Operation:
        return self.operations[name]

    def __contains__(self, name: str) -> bool:
        return name in self.operations

    def term_ranks(self, name: str) -> Tuple[int, ...]:
        """Ranks at which the symbol may appear in a derivation tree."""
        op = self.operations[name]
        if isinstance(op, UnionOperation):
            return (2,)
        if isinstance(op, EmptyConstant):
            return (0,)
        if not op.docks:
            # A zero-dock expansion used at rank 0 is applied to the
            # empty graph.
            return (0, 1)
        return (1,)


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
    for i, v in enumerate(op.node_order):
        rename[v] = _fresh(f"+{i}", used)
        used.add(rename[v])

    context = set(op.context)
    arg_ports = set(arg.ports)
    for u, v in assignment.items():
        if u not in context:
            raise ValueError(
                f"{u!r} is not a context node of operation {op.name!r}"
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

    # Every fusion class is a star: a dock with the argument ports fused
    # to it, or an argument non-port with the context nodes mapped to
    # it.  The hub gives the class its label, its least member its name.
    labels: Dict[str, Optional[str]] = dict(arg.labels)
    labels.update((rename[v], op.template.labels[v]) for v in op.node_order)
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
    edges = {(name[s], l, name[t]) for s, l, t in arg.edges}
    edges.update((name[rename[s]], l, name[rename[t]])
                 for s, l, t in op.template.edges)
    labels = {name[x]: lab for x, lab in labels.items()}
    ports = tuple(name[rename[p]] for p in op.ports)
    return Graph(set(name.values()), edges, labels, ports)


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
    results: Dict[str, Graph] = {}
    for assignment in enumerate_context_assignments(op, arg, injective):
        g = apply_expansion(op, arg, assignment)
        results.setdefault(canonical_key(g), g)
    return list(results.values())


@dataclass(frozen=True)
class ExtensionReport:
    r1: bool
    r2: bool
    r1_violations: Tuple[Tuple[str, str, str], ...] = ()
    r2_violations: Tuple[str, ...] = ()

    @property
    def is_extension(self) -> bool:
        return self.r1 and self.r2


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
    return ExtensionReport(
        r1=not bad_edges,
        r2=not bad_docks,
        r1_violations=bad_edges,
        r2_violations=bad_docks,
    )


_OP_HEADER_RE = re.compile(r"^operation\s+(?P<name>[^\s{]+)\s*\{(?P<rest>.*)$")
_UNION_BODY_RE = re.compile(r"^\s*(\d+)\s+(\d+)\s*;?\s*$")


def _split_operations(text: str) -> List[Tuple[str, int, List[Tuple[int, str]]]]:
    blocks = []
    name = None
    start_line = 0
    body: List[Tuple[int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if name is None:
            if not line or line.startswith("//"):
                continue
            m = _OP_HEADER_RE.match(line)
            if m is None:
                raise OperationFileError(
                    f"line {lineno}: expected 'operation <name> {{'"
                )
            name = m.group("name")
            start_line = lineno
            rest = m.group("rest").strip()
            if rest.endswith("}"):
                inner = rest[:-1].strip()
                blocks.append(
                    (name, lineno, [(lineno, inner)] if inner else [])
                )
                name = None
            elif rest:
                body = [(lineno, rest)]
            else:
                body = []
            continue
        if line == "}":
            blocks.append((name, start_line, body))
            name = None
            body = []
        else:
            body.append((lineno, raw))
    if name is not None:
        raise OperationFileError(
            f"line {start_line}: operation {name!r} is missing its closing brace"
        )
    return blocks


def _parse_expansion_body(
    name: str, body: List[Tuple[int, str]]
) -> ExpansionOperation:
    gv_lines = []
    port_args: Optional[List[str]] = None
    dock_args: List[str] = []
    dock_seen = False
    for lineno, raw in body:
        line = raw.strip()
        first = line.split(None, 1)[0] if line else ""
        if first == "port":
            if port_args is not None:
                raise OperationFileError(
                    f"line {lineno}: duplicate port line in operation {name!r}"
                )
            port_args = line.rstrip(";").split()[1:]
            port_line = lineno
        elif first == "dock":
            if dock_seen:
                raise OperationFileError(
                    f"line {lineno}: duplicate dock line in operation {name!r}"
                )
            dock_args = line.rstrip(";").split()[1:]
            dock_seen = True
        else:
            gv_lines.append((lineno, raw))
    try:
        parsed = parse_statements(gv_lines)
    except GvSyntaxError as exc:
        raise OperationFileError(f"operation {name!r}: {exc}") from exc
    node_order = tuple(parsed.declared)
    ports = tuple(port_args or ())
    docks = tuple(dock_args)
    declared = set(parsed.declared)
    for v in ports:
        if v not in declared:
            raise OperationFileError(
                f"line {port_line}: port references unknown node {v!r} "
                f"in operation {name!r}"
            )
    if len(set(ports)) != len(ports):
        raise OperationFileError(
            f"operation {name!r}: repeated node in port line"
        )
    for v in docks:
        if v not in declared:
            raise OperationFileError(
                f"operation {name!r}: dock references unknown node {v!r}"
            )
    # Unlabelled nodes are wildcards, legal only as docks: a label-free
    # context node would match every node, and a label-free new port
    # would yield an unlabelled output node.
    labels: Dict[str, Optional[str]] = {}
    for v, lab in parsed.declared.items():
        if lab is None and v not in docks:
            raise OperationFileError(
                f"operation {name!r}: node {v!r} has no label and is not "
                f"a dock"
            )
        labels[v] = lab
    template = Graph(declared, parsed.edges, labels, ports)
    return ExpansionOperation(name, template, ports, docks, node_order)


def parse_operation_file(text: str) -> Algebra:
    """Parse an operation file into an algebra.

    A body of two integers on one line is a union operation; the
    literal body ``empty`` is the empty-graph constant; anything else
    is an expansion body of gv statements plus port/dock lines.
    """
    operations: Dict[str, Operation] = {}
    for name, start_line, body in _split_operations(text):
        if name in operations:
            raise OperationFileError(
                f"line {start_line}: duplicate operation name {name!r}"
            )
        content = [
            (ln, l.strip()) for ln, l in body
            if l.strip() and not l.strip().startswith("//")
        ]
        if len(content) == 1 and _UNION_BODY_RE.match(content[0][1]):
            m = _UNION_BODY_RE.match(content[0][1])
            operations[name] = UnionOperation(name, int(m.group(1)), int(m.group(2)))
        elif len(content) == 1 and content[0][1].rstrip(";") == "empty":
            operations[name] = EmptyConstant(name)
        else:
            operations[name] = _parse_expansion_body(name, body)
    return Algebra(operations)
