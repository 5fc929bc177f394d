"""The corpus on disk: a writer thread that owns the output directory,
and the names and bytes of the files in it.

At the first file, the writer creates the directory and removes every
``manifest.json`` and ``g<i>_<j>.gv`` entry in it that is not a
directory, and no other entry.  Every check that can stop a run comes
before its first file: a stopped run leaves an earlier corpus as it
was, and a failed one leaves only its own files and no manifest.
"""

from __future__ import annotations

import os
import queue
import re
import threading
from typing import Iterable, List, Tuple

from . import __version__

try:
    from _json import encode_basestring_ascii
except ImportError:  # an interpreter without json's C accelerator
    from json.encoder import encode_basestring_ascii

_CORPUS_NAME = re.compile(r"manifest\.json|g[0-9]+_[0-9]+\.gv")
# The most buffers one ``os.writev`` takes (1024 on Linux and macOS).
_IOV_MAX = os.sysconf("SC_IOV_MAX")
# The most files that wait for the writer, about 1 MB of amr graphs: a
# writer that falls behind the caller would otherwise hold most of a
# large corpus in memory until the end of the run.
_QUEUED_FILES = 1024


class CorpusWriteError(RuntimeError):
    """The corpus cannot be written; the message names the path."""


def _gv_name(tree_index: int, variant: int) -> str:
    """The file of a tree's ``variant``-th graph: a name that
    ``_CORPUS_NAME`` matches, so that a rerun removes it."""
    return f"g{tree_index}_{variant}.gv"


def _write_parts(fd: int, parts: List[bytes]) -> None:
    """Write ``parts`` joined to ``fd`` without joining them: one
    ``os.writev`` takes up to IOV_MAX parts, and a write that takes
    fewer bytes than offered goes on from the first byte not taken."""
    first = skip = 0  # parts[first][:skip] is written
    while first < len(parts):
        batch = parts[first:first + _IOV_MAX]
        if skip:
            batch[0] = memoryview(batch[0])[skip:]
        written = skip + os.writev(fd, batch)
        while first < len(parts) and written >= len(parts[first]):
            written -= len(parts[first])
            first += 1
        skip = written


def _create_files(out: str,
                  files: Iterable[Tuple[str, List[bytes]]]) -> None:
    """Create the files ``(name, parts)`` of ``files`` in the directory
    ``out``, each with the content ``parts`` joined.  Each file takes
    one open, one or more writes and one close, its name resolved
    against one descriptor of the directory, which is created, opened
    and cleared at the first file.  A symlink is removed, not followed,
    and the old manifest goes first: it never names a file that is
    gone.  ``name`` is the entry an ``OSError`` concerns."""
    dir_fd = None
    name = ""
    try:
        for file in files:
            if dir_fd is None:
                try:
                    os.makedirs(out, exist_ok=True)
                except OSError as exc:
                    raise CorpusWriteError(
                        f"cannot create output directory {out}: "
                        f"{exc.strerror or exc}") from None
                dir_fd = os.open(out, os.O_RDONLY | os.O_DIRECTORY)
                with os.scandir(dir_fd) as entries:
                    stale = [e.name for e in entries
                             if _CORPUS_NAME.fullmatch(e.name)
                             and not e.is_dir(follow_symlinks=False)]
                for name in sorted(stale, key="manifest.json".__ne__):
                    os.unlink(name, dir_fd=dir_fd)
            name, parts = file
            fd = os.open(name, os.O_WRONLY | os.O_CREAT | os.O_TRUNC,
                         0o666, dir_fd=dir_fd)
            try:
                _write_parts(fd, parts)
            finally:
                os.close(fd)
    except OSError as exc:
        raise CorpusWriteError(f"cannot write {os.path.join(out, name)}: "
                               f"{exc.strerror or exc}") from None
    finally:
        if dir_fd is not None:
            os.close(dir_fd)


class _CorpusWriter:
    """A thread that creates the corpus files in ``out`` while the
    caller builds their text.  It creates and clears ``out`` at the
    first file.  Leaving the ``with`` block waits for the thread to
    finish and, unless the block raised, raises whatever the thread
    raised, ``CorpusWriteError`` if it could not write."""

    def __init__(self, out: str) -> None:
        self._files = queue.Queue(_QUEUED_FILES)
        self._error = None
        self._thread = threading.Thread(target=self._run, args=(out,),
                                        name="gexpand corpus writer")
        self._thread.start()

    def _run(self, out: str) -> None:
        files = iter(self._files.get, None)
        try:
            _create_files(out, files)
        except BaseException as exc:  # raised again in the caller
            self._error = exc
            for _file in files:  # a send waiting for room raises next
                pass

    def send(self, name: str, parts: List[bytes]) -> None:
        """Queue the file ``name`` whose content is ``parts`` joined;
        raise the writer's error if it has stopped."""
        if self._error is not None:
            raise self._error
        self._files.put((name, parts))

    def close(self, failed: bool) -> None:
        self._files.put(None)
        self._thread.join()
        if self._error is not None and not failed:
            raise self._error

    def __enter__(self) -> "_CorpusWriter":
        return self

    def __exit__(self, exc_type, _exc, _tb) -> None:
        self.close(failed=exc_type is not None)


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


def _manifest_parts(config: dict, records: List[bytes],
                    warnings: List[str]) -> List[bytes]:
    """The bytes of ``manifest.json`` as parts that, joined, are
    ``json.dumps(manifest, indent=2, sort_keys=True) + "\\n"`` for the
    manifest of ``config``, the graph records and ``warnings``: a head,
    the records with the separators between them, and a tail.
    ``records`` are the records' texts, each ``_json_text(record,
    "    ")`` as ASCII, so the parts share them and the manifest is
    never copied."""
    head = f'{{\n  "config": {_json_text(config, "  ")},\n  "graphs": '
    tail = (f',\n  "tool": "gexpand",\n'
            f'  "version": {_json_text(__version__, "  ")},\n'
            f'  "warnings": {_json_text(warnings, "  ")}\n}}\n')
    if not records:
        return [f"{head}[]{tail}".encode("ascii")]
    parts = [f"{head}[\n    ".encode("ascii")]
    separator = b",\n    "
    for text in records:
        parts += (text, separator)
    parts[-1] = f"\n  ]{tail}".encode("ascii")
    return parts
