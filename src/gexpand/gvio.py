"""Reading and writing graphs in the gv (DOT digraph) text format.

The only extension over plain DOT is a trailing comment line

    // ports: n0 n1

listing the port node identifiers in sequence order.  Standard
renderers ignore it, so emitted files feed straight into Graphviz.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

from .graphs import Graph, canonical_order


class GvSyntaxError(ValueError):
    """Malformed gv text; carries the offending line number."""

    def __init__(self, message: str, line: int, column: int = 0) -> None:
        where = f"line {line}" + (f", column {column}" if column else "")
        super().__init__(f"{where}: {message}")
        self.line = line
        self.column = column


# The text of a quoted DOT string.  As in Graphviz, a backslash before a
# quote escapes it and any other backslash stands for itself, so a
# string cannot end in a backslash.
_QUOTED = r'(?:[^"\\]|\\"|\\(?!"))*'
_NODE_ID = (r'(?:"(?P<q%s>' + _QUOTED
            + r')"|(?P<b%s>[A-Za-z0-9_.][A-Za-z0-9_.\-]*))')
_ATTRS = r'(?:\s*\[(?P<attrs>(?:[^\]"]|"' + _QUOTED + r'")*)\])?'


_EDGE_RE = re.compile(_NODE_ID % ("1", "1") + r"\s*->\s*" + _NODE_ID % ("2", "2")
                      + _ATTRS + r"\s*;?\s*$")
_NODE_RE = re.compile(_NODE_ID % ("1", "1") + _ATTRS + r"\s*;?\s*$")
# One ``key=value`` attribute, else one quoted string or other
# character, so that text inside a quoted value never reads as a key.
_ATTR_RE = re.compile(
    r'(?:"(?P<qk>' + _QUOTED + r')"|(?P<bk>[A-Za-z0-9_.\-]+))\s*=\s*'
    r'(?:"(?P<qv>' + _QUOTED + r')"|(?P<bv>[A-Za-z0-9_.\-]+))'
    r'|"' + _QUOTED + r'"|[^"]')


def _unquote(text: str) -> str:
    return text.replace('\\"', '"')


def _get_id(m: "re.Match", which: str) -> str:
    quoted = m.group("q" + which)
    return _unquote(quoted) if quoted is not None else m.group("b" + which)


def _parse_label(attrs: Optional[str]) -> Optional[str]:
    """The value of the ``label`` attribute; as in Graphviz, the last
    one wins."""
    label = None
    for m in _ATTR_RE.finditer(attrs or ""):
        if _get_id(m, "k") == "label":
            label = _get_id(m, "v")
    return label


class _Body:
    """Accumulated statements of a digraph body."""

    def __init__(self) -> None:
        self.declared: Dict[str, Optional[str]] = {}
        self.decl_line: Dict[str, int] = {}
        self.edges: List[Tuple[str, str, str]] = []
        self.ports: Optional[List[str]] = None
        self.port_line = 0

    def declare(self, node: str, label: Optional[str], lineno: int) -> None:
        if node in self.declared:
            old = self.declared[node]
            if label is not None and old is not None and label != old:
                raise GvSyntaxError(
                    f"node {node!r} redeclared with label {label!r} "
                    f"(was {old!r} at line {self.decl_line[node]})",
                    lineno,
                )
            if label is not None:
                self.declared[node] = label
        else:
            self.declared[node] = label
            self.decl_line[node] = lineno


def parse_statements(lines: List[Tuple[int, str]]) -> _Body:
    """Parse node and edge statements shared by gv files and operation
    bodies."""
    body = _Body()
    for lineno, raw in lines:
        line = raw.strip()
        if not line:
            continue
        if line.startswith("//"):
            comment = line[2:].strip()
            if comment.startswith("ports:"):
                if body.ports is not None:
                    raise GvSyntaxError("duplicate ports comment", lineno)
                body.ports = comment[len("ports:"):].split()
                body.port_line = lineno
            continue
        m = _EDGE_RE.match(line)
        if m:
            src, tgt = _get_id(m, "1"), _get_id(m, "2")
            label = _parse_label(m.group("attrs"))
            if label is None:
                raise GvSyntaxError("edge statement without a label attribute", lineno)
            body.declare(src, None, lineno)
            body.declare(tgt, None, lineno)
            body.edges.append((src, label, tgt))
            continue
        m = _NODE_RE.match(line)
        if m:
            node = _get_id(m, "1")
            body.declare(node, _parse_label(m.group("attrs")), lineno)
            continue
        raise GvSyntaxError(f"cannot parse statement: {line!r}", lineno)
    return body


def _split_digraph(text: str) -> List[Tuple[int, str]]:
    lines = text.splitlines()
    inner: List[Tuple[int, str]] = []
    opened = closed = False
    for i, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not opened:
            if not line or line.startswith("//"):
                continue
            m = re.match(r"digraph(\s+[A-Za-z0-9_.]+)?\s*\{\s*(.*)$", line)
            if m is None:
                raise GvSyntaxError("expected 'digraph {'", i, 1)
            opened = True
            rest = m.group(2)
            if rest.endswith("}"):
                inner.append((i, rest[:-1]))
                closed = True
            elif rest:
                inner.append((i, rest))
            continue
        if closed:
            if line:
                raise GvSyntaxError("text after closing brace", i)
            continue
        if line == "}":
            closed = True
        elif line.endswith("}"):
            inner.append((i, line[:-1]))
            closed = True
        else:
            inner.append((i, raw))
    if not opened:
        raise GvSyntaxError("empty input, expected 'digraph {'", max(1, len(lines)))
    if not closed:
        raise GvSyntaxError("missing closing brace", len(lines))
    return inner


def parse_gv(text: str) -> Graph:
    """Parse a gv digraph into a Graph.

    Node statements without a label attribute get their identifier as
    label.  The ``// ports:`` comment sets the port sequence.
    """
    body = parse_statements(_split_digraph(text))
    labels = {v: (lab if lab is not None else v) for v, lab in body.declared.items()}
    ports = body.ports or []
    seen = set()
    for p in ports:
        if p not in labels:
            raise GvSyntaxError(
                f"port references unknown node {p!r}", body.port_line
            )
        if p in seen:
            raise GvSyntaxError(f"repeated node {p!r} in port list", body.port_line)
        seen.add(p)
    return Graph(labels.keys(), body.edges, labels, ports)


def _quote(s: str) -> str:
    if s.endswith("\\") or s.splitlines() not in ([], [s]):
        raise ValueError(
            f"cannot write {s!r} as a gv string: it ends in a backslash "
            f"or holds a line break"
        )
    return '"' + s.replace('"', r"\"") + '"'


def emit_gv(g: Graph) -> str:
    """Deterministic gv text for a graph.

    Nodes are renamed n0, n1, ... in canonical order (ports first), so
    isomorphic graphs serialize to byte-identical text.
    """
    order = canonical_order(g)
    pos = {v: i for i, v in enumerate(order)}
    quoted: Dict[str, str] = {}
    out = ["digraph {"]
    for i, v in enumerate(order):
        lab = g.labels[v]
        if lab is None:
            raise ValueError(f"cannot emit wildcard-labelled node {v!r}")
        if lab not in quoted:
            quoted[lab] = _quote(lab)
        out.append(f'  "n{i}" [label={quoted[lab]}];')
    for s, l, t in sorted((pos[s], l, pos[t]) for s, l, t in g.edges):
        if l not in quoted:
            quoted[l] = _quote(l)
        out.append(f'  "n{s}" -> "n{t}" [label={quoted[l]}];')
    ports = "".join(f" n{pos[p]}" for p in g.ports)
    out.append(f"  // ports:{ports}")
    out.append("}")
    return "\n".join(out) + "\n"
