"""Correctness checks on a corpus the CLI wrote, run outside timed regions.

``scan`` is cheap and runs on every corpus: the files on disk must be
exactly the manifest's list plus ``manifest.json``, and it returns the
corpus digest and counters.  ``deep_check`` runs once per run set, on
one corpus whose digest every other corpus of the set must match: every
file parses back with the manifest's node and edge counts and re-emits
to the same bytes, and every tree is evaluated by the independent
oracle and compared up to isomorphism.
"""

from __future__ import annotations

import hashlib
import json
import re
from collections import defaultdict
from dataclasses import dataclass
from math import prod
from pathlib import Path

from gexpand import (
    emit_gv,
    n_best_trees,
    parse_definitions,
    parse_gv,
    parse_operation_file,
    parse_rtg,
)

import oracle

_ERROR = re.compile(r"^tree (\d+): error:")


class CheckError(Exception):
    pass


@dataclass(frozen=True)
class Scan:
    digest: str
    files: int
    bytes: int
    error_trees: int
    manifest: dict


def scan(out_dir: Path) -> Scan:
    try:
        manifest = json.loads((out_dir / "manifest.json").read_text())
    except (OSError, ValueError) as exc:
        raise CheckError(f"no readable manifest in {out_dir}: {exc}") from exc
    listed = sorted([r["file"] for r in manifest["graphs"]] + ["manifest.json"])
    on_disk = sorted(p.name for p in out_dir.iterdir())
    if listed != on_disk:
        extra = sorted(set(on_disk) - set(listed))[:3]
        missing = sorted(set(listed) - set(on_disk))[:3]
        raise CheckError(
            f"files on disk differ from the manifest: extra {extra}, "
            f"missing {missing}"
        )
    h = hashlib.sha256()
    size = 0
    for name in on_disk:
        data = (out_dir / name).read_bytes()
        size += len(data)
        h.update(name.encode() + b"\0" + data + b"\0")
    errors = {
        m.group(1) for w in manifest["warnings"] if (m := _ERROR.match(w))
    }
    return Scan(h.hexdigest(), len(listed) - 1, size, len(errors), manifest)


def deep_check(out_dir: Path, manifest: dict, inputs, root: Path) -> str:
    """Round-trip every file and compare every tree's graphs with the
    oracle's; returns a one-line summary or raises CheckError."""
    by_tree = defaultdict(list)
    for rec in manifest["graphs"]:
        text = (out_dir / rec["file"]).read_text()
        g = parse_gv(text)
        if (len(g.nodes), len(g.edges)) != (rec["nodes"], rec["edges"]):
            raise CheckError(f"{rec['file']}: counts differ from the manifest")
        if emit_gv(g) != text:
            raise CheckError(f"{rec['file']}: re-emitting changes the bytes")
        by_tree[rec["tree_index"]].append((rec, text, g))

    algebra = parse_operation_file((root / inputs.ops).read_text())
    grammar = parse_rtg((root / inputs.rtg).read_text())
    trees = [t for t, _w in n_best_trees(grammar, inputs.trees)]
    for i, found in by_tree.items():
        if any(rec["tree"] != trees[i].serialize() for rec, _t, _g in found):
            raise CheckError(f"tree {i}: manifest tree is not the {i}-th best")
    defs = None
    if inputs.defs is not None:
        defs = parse_definitions((root / inputs.defs).read_text()).entries
    for i, tree in enumerate(trees):
        expected = oracle.dedup(oracle.evaluate(tree, algebra))
        got = [oracle.from_graph(g) for _r, _t, g in by_tree.get(i, [])]
        _compare(i, inputs.workload.mode, defs, expected, got,
                 [t for _r, t, _g in by_tree.get(i, [])])
    return (f"{len(manifest['graphs'])} files round-trip; "
            f"{len(trees)} trees match the oracle")


def _compare(i, mode, defs, expected, got, texts) -> None:
    def fail(what: str):
        raise CheckError(f"tree {i}: {what} (oracle has {len(expected)} "
                         f"graphs, corpus has {len(got)})")

    if mode == "enumerate":
        if len(got) != len(expected) or len(oracle.dedup(got)) != len(got):
            fail("graph set size differs")
        if not all(any(oracle.isomorphic(g, e) for e in expected) for g in got):
            fail("graph not produced by the oracle")
        return
    if not expected:
        if got:
            fail("corpus has graphs for a tree without any")
        return
    if not got:
        fail("corpus has no graph for the tree")
    inverse = {c: a for a, cs in (defs or {}).items() for c in cs}
    abstract = [oracle.relabel(g, inverse) for g in got]
    match = [e for e in expected if oracle.isomorphic(abstract[0], e)]
    if not match or not all(oracle.isomorphic(a, match[0]) for a in abstract):
        fail("sampled graph not produced by the oracle")
    want = prod(len((defs or {}).get(l, (l,))) for l in match[0][0].values())
    if len(got) != want or len(set(texts)) != len(texts):
        fail(f"expected {want} distinct instances")
