"""Abstract-label instantiation.

A definition table maps an abstract node label to a non-empty list of
concrete replacements; every generated graph is expanded into all
combinations of the replacements.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Dict, List, Tuple

from .graphs import Graph, canonical_order


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


@dataclass(frozen=True)
class DefinitionTable:
    entries: Dict[str, Tuple[str, ...]]

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
    """Parse ``key: v1, v2`` lines into a definition table."""
    entries: Dict[str, Tuple[str, ...]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("//", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise DefinitionError(f"line {lineno}: expected 'key: v1, v2, ...'")
        key, _, rest = line.partition(":")
        key = key.strip()
        if not key:
            raise DefinitionError(f"line {lineno}: empty key")
        if key in entries:
            raise DefinitionError(f"line {lineno}: duplicate key {key!r}")
        values = tuple(v.strip() for v in rest.split(",") if v.strip())
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


def _shared(
    g: Graph, d: DefinitionTable, per_label: bool, ordered: bool = False,
) -> List[Tuple[Tuple[str, ...], List[str]]]:
    """(replacements, nodes) for each group of nodes of ``g`` that take
    one replacement together: with ``per_label`` the nodes of one
    abstract label, in sorted label order; otherwise one node with an
    abstract label, in canonical node order if ``ordered`` and in no
    fixed order if not, which spares the count a canonical order."""
    nodes = canonical_order(g) if ordered and not per_label else g.nodes
    groups: Dict[str, List[str]] = {}
    for v in nodes:
        if g.labels[v] in d:
            groups.setdefault(g.labels[v] if per_label else v, []).append(v)
    keys = sorted(groups) if per_label else groups
    return [(d.entries[g.labels[groups[k][0]]], groups[k]) for k in keys]


def instantiation_count(g: Graph, d: DefinitionTable, per_label: bool = False) -> int:
    """How many graphs instantiate_all would produce."""
    count = 1
    for choices, _nodes in _shared(g, d, per_label):
        count *= len(choices)
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
    unchanged.  Output order is deterministic: the Cartesian product in
    canonical node order (respectively sorted label order) with each
    replacement list in file order.
    """
    count = instantiation_count(g, d, per_label)
    if count > cap:
        raise InstantiationCapError(count, cap)
    groups = _shared(g, d, per_label, ordered=True)
    out = []
    for combo in product(*(choices for choices, _nodes in groups)):
        labels = dict(g.labels)
        for (_choices, nodes), value in zip(groups, combo):
            for v in nodes:
                labels[v] = value
        out.append(Graph(g.nodes, g.edges, labels, g.ports))
    return out
