"""Abstract-label instantiation.

A definition table maps an abstract node label to a non-empty list of
concrete replacements; every generated graph is expanded into all
combinations of the replacements.
"""

from __future__ import annotations

import re
from itertools import product
from typing import Dict, List, Tuple

from ._record import Record
from .graphs import Graph, canonical_order
from .gvio import _QUOTED, _get_id, strip_comment

# A key or a replacement and the separator after it: a quoted gv string,
# or else bare text, stripped.
_FIELD = r'\s*(?:"(?P<q>' + _QUOTED + r')"|(?P<b>[^%s]*?))\s*(?:%s)'
_KEY_RE = re.compile(_FIELD % (":", ":"))
_VALUE_RE = re.compile(_FIELD % (",", ",|$"))


class DefinitionError(ValueError):
    pass


class InstantiationCapError(RuntimeError):
    """The combination count exceeds the configured cap."""

    def __init__(self, count: int, cap: int) -> None:
        super().__init__(
            f"instantiation would produce {count} graphs, exceeding the "
            f"cap of {cap}"
        )
        self.count = count
        self.cap = cap


class DefinitionTable(Record):
    """The replacements of each abstract label, as a dict of tuples."""

    __slots__ = ("entries",)

    def __post_init__(self) -> None:
        for key, values in self.entries.items():
            if not values:
                raise DefinitionError(f"empty replacement list for {key!r}")
        # Single-pass semantics: a key appearing inside another key's
        # replacement list would suggest chained rewriting, which is
        # not supported.
        for key, values in self.entries.items():
            for other, other_values in self.entries.items():
                if other != key and key in other_values:
                    raise DefinitionError(
                        f"definition for {key!r} also appears in the "
                        f"replacements of {other!r}; chained definitions "
                        f"are not supported"
                    )

    def __contains__(self, label: str) -> bool:
        return label in self.entries

    def __len__(self) -> int:
        return len(self.entries)


def parse_definitions(text: str) -> DefinitionTable:
    """Parse ``key: v1, v2`` lines into a definition table.  A key or a
    replacement is a gv quoted string, or else bare text up to the next
    ``:`` or ``,``; a ``//`` outside quoted strings starts a comment."""
    entries: Dict[str, Tuple[str, ...]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = strip_comment(raw)
        if not line:
            continue
        m = _KEY_RE.match(line)
        if m is None:
            raise DefinitionError(f"line {lineno}: expected 'key: v1, v2, ...'")
        key = _get_id(m, "")
        if not key:
            raise DefinitionError(f"line {lineno}: empty key")
        if key in entries:
            raise DefinitionError(f"line {lineno}: duplicate key {key!r}")
        # An empty bare replacement is skipped, an empty quoted one kept.
        values = tuple(_get_id(v, "") for v in _VALUE_RE.finditer(line, m.end())
                       if v.group("b") != "")
        if not values:
            raise DefinitionError(
                f"line {lineno}: empty replacement list for {key!r}"
            )
        for v in values:
            if v.endswith("\\"):
                raise DefinitionError(
                    f"line {lineno}: replacement {v!r} for {key!r} ends in "
                    f"a backslash, which a gv string cannot hold"
                )
        entries[key] = values
    return DefinitionTable(entries)


def instantiation_count(g: Graph, d: DefinitionTable, per_label: bool = False) -> int:
    """How many graphs instantiate_all would produce: the product of the
    replacement counts of the abstract labels of ``g``'s nodes (each
    distinct label once with ``per_label``), read from the labels alone."""
    labels = g.labels.values()
    count = 1
    for label in set(labels) if per_label else labels:
        if label in d:
            count *= len(d.entries[label])
    return count


def instantiate_all(
    g: Graph,
    d: DefinitionTable,
    per_label: bool = False,
    cap: int = 10_000,
) -> List[Graph]:
    """All instantiations of a graph's abstract labels.

    By default every node occurrence is substituted independently; with
    ``per_label`` all occurrences of one abstract label receive the
    same replacement.  Labels absent from the table pass through
    unchanged.  Output order is deterministic: the Cartesian product
    over the abstract nodes in canonical node order (respectively over
    the abstract labels in sorted order) with each replacement list in
    file order.  ``InstantiationCapError`` is raised, before any graph
    is built, when ``instantiation_count`` exceeds ``cap``.
    """
    count = instantiation_count(g, d, per_label)
    if count > cap:
        raise InstantiationCapError(count, cap)
    # Each group of nodes takes one replacement: the nodes of one
    # abstract label with ``per_label``, else one abstract node.
    if per_label:
        abstract = sorted({label for label in g.labels.values() if label in d})
        groups = [[v for v in g.nodes if g.labels[v] == label]
                  for label in abstract]
    else:
        groups = [[v] for v in canonical_order(g) if g.labels[v] in d]
    out = []
    for combo in product(*(d.entries[g.labels[nodes[0]]] for nodes in groups)):
        labels = dict(g.labels)
        for nodes, value in zip(groups, combo):
            for v in nodes:
                labels[v] = value
        out.append(Graph(g.edges, labels, g.ports))
    return out
