"""Reading and writing graphs in the gv (DOT digraph) text format.

The only extension over plain DOT is a comment line

    // ports: n0 n1

listing the port node identifiers, quoted or bare, in sequence order.
Standard renderers ignore it, so emitted files feed straight into
Graphviz.  Operation files read their braced bodies with the same
block splitter and statement reader.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

from .graphs import Graph, canonical_order


class GvSyntaxError(ValueError):
    """Malformed gv text; carries the offending line number."""

    def __init__(self, message: str, line: int) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line


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
# One id of a list.  The lookahead keeps the list pattern from reading
# one bare id as several, which would also make it backtrack
# exponentially on a line that is no list.
_ID_RE = re.compile(_NODE_ID % ("", "") + r"(?![A-Za-z0-9_.\-])")
_ID_LIST_RE = re.compile(r"(?:\s*" + _ID_RE.pattern + r")*\s*;?\s*")
# A line that may list ids: a bare ``port`` or ``dock`` keyword, or the
# gv ``// ports:`` comment.
_KEYWORD_RE = re.compile(
    r"(?:(?P<kw>port|dock)(?![A-Za-z0-9_.\-])|//\s*ports:)(?P<ids>.*)")
# The text of a line before a ``//`` that lies outside quoted strings;
# a ``"`` that no later ``"`` on the line closes is plain text.
_CODE_RE = re.compile(r'(?:[^"/]|"' + _QUOTED + r'"|"|/(?!/))*')
_DIGRAPH_RE = re.compile(r"digraph(?:\s+[A-Za-z0-9_.]+)?\s*\{")


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


def parse_ids(text: str) -> Optional[List[str]]:
    """The ids, quoted or bare, of a whitespace-separated list that a
    ``;`` may end, or None when ``text`` is no such list."""
    if _ID_LIST_RE.fullmatch(text) is None:
        return None
    return [_get_id(m, "") for m in _ID_RE.finditer(text)]


def strip_comment(line: str) -> str:
    """``line`` stripped, without the comment that a ``//`` outside
    quoted strings starts.  Every input format shares this rule."""
    m = _CODE_RE.match(line)
    return (line[:m.end()] if line.startswith("//", m.end()) else line).strip()


def split_blocks(
    text: str, header_re: "re.Pattern", expected: str
) -> List[Tuple[int, "re.Match", List[Tuple[int, str]]]]:
    """Split text into braced blocks: (header line, header match, body
    lines) for each.

    A block opens on a line that ``header_re`` matches and closes on
    the first line, its header line included, that ends in ``}``.  A
    ``//`` outside quoted strings starts a comment that runs to the end
    of the line.  Blank and comment lines may lie between blocks.  Body
    lines come stripped and without their comment, except that a line
    that is all comment comes whole.
    """
    blocks: List[Tuple[int, "re.Match", List[Tuple[int, str]]]] = []
    body: Optional[List[Tuple[int, str]]] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        code = strip_comment(line)
        if body is None:
            if not code:
                continue
            m = header_re.match(code)
            if m is None:
                raise GvSyntaxError(f"expected {expected!r}", lineno)
            body = []
            blocks.append((lineno, m, body))
            code = line = code[m.end():].strip()
        if code.endswith("}"):
            body.append((lineno, code[:-1].rstrip()))
            body = None
        else:
            body.append((lineno, code or line))
    if body is not None:
        lineno, m, _lines = blocks[-1]
        raise GvSyntaxError(f"{m.group()!r} is missing its closing brace",
                            lineno)
    return blocks


class _Body:
    """Accumulated statements of a block body."""

    def __init__(self) -> None:
        self.declared: Dict[str, Optional[str]] = {}
        self.decl_line: Dict[str, int] = {}
        self.edges: List[Tuple[str, str, str]] = []
        # Keyword -> (line, ids) of each id-list line.
        self.lists: Dict[str, Tuple[int, List[str]]] = {}

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

    def ids(self, key: str, unique: bool = False) -> Tuple[str, ...]:
        """The ids of the ``key`` line, each a declared node and, with
        ``unique``, listed once."""
        lineno, ids = self.lists.get(key, (0, []))
        for i, v in enumerate(ids):
            if v not in self.declared:
                raise GvSyntaxError(
                    f"unknown node {v!r} in {key!r} line", lineno)
            if unique and v in ids[:i]:
                raise GvSyntaxError(
                    f"repeated node {v!r} in {key!r} line", lineno)
        return tuple(ids)


def parse_statements(
    lines: List[Tuple[int, str]], keywords: Tuple[str, ...]
) -> _Body:
    """Parse the body lines of a block: node and edge statements,
    comments, and the id-list lines of ``keywords``.

    A line is an id-list line when it starts with a keyword of
    ``keywords`` (``port`` or ``dock`` as a bare word, or the comment
    ``// ports:``) and the rest of it is an id list; any other line is
    a statement or a comment.
    """
    body = _Body()
    for lineno, line in lines:
        m = _KEYWORD_RE.match(line)
        key = m and (m.group("kw") or "// ports:")
        ids = parse_ids(m.group("ids")) if key in keywords else None
        if ids is not None:
            if key in body.lists:
                raise GvSyntaxError(f"duplicate {key!r} line", lineno)
            body.lists[key] = (lineno, ids)
            continue
        if not line or (line.startswith("//") and key is None):
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


def parse_gv(text: str) -> Graph:
    """Parse a gv digraph into a Graph.

    Node statements without a label attribute get their identifier as
    label.  The ``// ports:`` comment sets the port sequence.
    """
    blocks = split_blocks(text, _DIGRAPH_RE, "digraph {")
    if not blocks:
        raise GvSyntaxError("empty input, expected 'digraph {'",
                            max(1, len(text.splitlines())))
    if len(blocks) > 1:
        raise GvSyntaxError("text after closing brace", blocks[1][0])
    body = parse_statements(blocks[0][2], ("// ports:",))
    labels = {v: (lab if lab is not None else v) for v, lab in body.declared.items()}
    return Graph(body.edges, labels, body.ids("// ports:", unique=True))


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
