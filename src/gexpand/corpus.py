"""The corpus on disk: the output directory and the names and bytes of
the files in it, each created as soon as its text is built.

Opening a ``Corpus`` creates the directory and removes every
``manifest.json`` and ``g<i>_<j>.gv`` entry in it that is not a
directory, and no other entry.  The caller opens it once every check
that can stop a run has passed: a stopped run leaves an earlier corpus
as it was, and a failed one leaves only its own files and no manifest.
The graphs' manifest records are kept as text in one buffer, which the
manifest is written from.
"""

from __future__ import annotations

import os
import re
from typing import List

from . import __version__

try:
    from _json import encode_basestring_ascii
except ImportError:  # an interpreter without json's C accelerator
    from json.encoder import encode_basestring_ascii

_CORPUS_NAME = re.compile(r"manifest\.json|g[0-9]+_[0-9]+\.gv")


class CorpusWriteError(RuntimeError):
    """The corpus cannot be written; the message names the path."""


def _gv_name(tree_index: int, variant: int) -> str:
    """The file of a tree's ``variant``-th graph: a name that
    ``_CORPUS_NAME`` matches, so that a rerun removes it."""
    return f"g{tree_index}_{variant}.gv"


class Corpus:
    """The corpus in the directory ``out``: one gv file per ``add`` and
    ``manifest.json`` from ``write_manifest``, each created before the
    call returns.  Opening it creates and clears ``out``: a symlink is
    removed, not followed, and the old manifest goes first, so that it
    never names a file that is gone.  Each file takes one open, one or
    more writes and one close, relative to a descriptor of ``out``,
    which leaving the ``with`` block closes.  The manifest records of
    the graphs added are one growing buffer of text, each after its
    separator.  An ``OSError`` on the directory or a file raises
    ``CorpusWriteError``, which names the path; a file whose write or
    close fails is removed first."""

    def __init__(self, out: str) -> None:
        try:
            os.makedirs(out, exist_ok=True)
        except OSError as exc:
            raise CorpusWriteError(
                f"cannot create output directory {out}: "
                f"{exc.strerror or exc}") from None
        self._out = out
        dir_fd = None
        name = ""
        try:
            dir_fd = os.open(out, os.O_RDONLY | os.O_DIRECTORY)
            with os.scandir(dir_fd) as entries:
                stale = [e.name for e in entries
                         if _CORPUS_NAME.fullmatch(e.name)
                         and not e.is_dir(follow_symlinks=False)]
            for name in sorted(stale, key="manifest.json".__ne__):
                os.unlink(name, dir_fd=dir_fd)
        except OSError as exc:
            if dir_fd is not None:
                os.close(dir_fd)
            raise self._write_error(name, exc) from None
        self._dir_fd = dir_fd
        self._records = bytearray()  # ",\n    " and a record, per graph
        self._count = 0

    def _write_error(self, name: str, exc: OSError) -> CorpusWriteError:
        """The error for an ``OSError`` on the entry ``name``."""
        return CorpusWriteError(f"cannot write {os.path.join(self._out, name)}"
                                f": {exc.strerror or exc}")

    def _create(self, name: str, *parts: bytes | memoryview) -> None:
        """Create the file ``name`` in ``out`` with ``parts`` joined as
        its bytes; each write goes on from the first byte not taken."""
        try:
            fd = os.open(name, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666,
                         dir_fd=self._dir_fd)
        except OSError as exc:
            raise self._write_error(name, exc) from None
        try:
            try:
                for part in parts:
                    view = memoryview(part)
                    while view:
                        view = view[os.write(fd, view):]
            finally:
                os.close(fd)
        except OSError as exc:
            try:  # a partial file would look written
                os.unlink(name, dir_fd=self._dir_fd)
            except OSError:
                pass
            raise self._write_error(name, exc) from None

    def add(self, text: str, tree_index: int, variant: int, tree: str,
            weight: str, nodes: int, edges: int) -> None:
        """Write the gv file ``text`` of the ``variant``-th graph of the
        tree ``tree_index``, and keep the graph's manifest record, with
        the serialized ``tree``, its ``weight`` and the node and edge
        counts, as its text in manifest.json."""
        name = _gv_name(tree_index, variant)
        self._create(name, text.encode("utf-8"))
        self._records += b",\n    " + _json_text(
            {"file": name, "tree_index": tree_index, "variant": variant,
             "tree": tree, "tree_weight": weight, "nodes": nodes,
             "edges": edges}, "    ").encode("ascii")
        self._count += 1

    def write_manifest(self, config: dict, warnings: List[str]) -> int:
        """Write ``manifest.json`` for the run settings ``config``, the
        graphs added and ``warnings``; no graph may follow it.  Returns
        the number of graphs.  The bytes are ``json.dumps(manifest,
        indent=2, sort_keys=True) + "\\n"``: a head, the record buffer
        past its first comma, and a tail."""
        head = f'{{\n  "config": {_json_text(config, "  ")},\n  "graphs": ['
        close = "\n  ]" if self._count else "]"
        tail = (f'{close},\n  "tool": "gexpand",\n'
                f'  "version": {_json_text(__version__, "  ")},\n'
                f'  "warnings": {_json_text(warnings, "  ")}\n}}\n')
        self._create("manifest.json", head.encode("ascii"),
                     memoryview(self._records)[1:], tail.encode("ascii"))
        return self._count

    def __enter__(self) -> "Corpus":
        return self

    def __exit__(self, _exc_type, _exc, _tb) -> None:
        os.close(self._dir_fd)


def _json_text(value, indent: str) -> str:
    """``json.dumps(value, indent=2, sort_keys=True)`` for the types a
    manifest holds, with ``indent`` the indent of the line ``value``
    starts on.  Builds one string per value, where ``json.dumps`` keeps
    a list of every token until the end."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = indent + "  "
    if isinstance(value, dict):  # a key that is no str raises TypeError
        items = [f"{encode_basestring_ascii(k)}: {_json_text(value[k], inner)}"
                 for k in sorted(value)]
        brackets = "{}"
    elif isinstance(value, (list, tuple)):
        items = [_json_text(item, inner) for item in value]
        brackets = "[]"
    else:
        raise TypeError(f"no manifest text for a {type(value).__name__}")
    if not items:
        return brackets
    return (f"{brackets[0]}\n{inner}" + f",\n{inner}".join(items)
            + f"\n{indent}{brackets[1]}")
