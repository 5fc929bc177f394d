"""The corpus on disk: a forked writer process that owns the output
directory, and the bytes of ``manifest.json``.

At the first file, the writer creates the directory and removes every
``manifest.json`` and ``g<i>_<j>.gv`` entry in it that is not a
directory, and no other entry.  Every check that can stop a run comes
before its first file: a stopped run leaves an earlier corpus as it
was, and a failed one leaves only its own files and no manifest.
"""

from __future__ import annotations

import fcntl
import gc
import os
import re
from typing import List

from . import __version__

try:
    from _json import encode_basestring_ascii
except ImportError:  # an interpreter without json's C accelerator
    from json.encoder import encode_basestring_ascii

_CORPUS_NAME = re.compile(r"manifest\.json|g[0-9]+_[0-9]+\.gv")
# The most buffers one ``os.writev`` takes (1024 on Linux and macOS).
_IOV_MAX = os.sysconf("SC_IOV_MAX")


class CorpusWriteError(RuntimeError):
    """The corpus cannot be written; the message names the path."""


def _create_files(out: str, records: int) -> None:
    """Create the files whose records arrive on the pipe ``records``, in
    the directory ``out``, until the pipe ends.  A record is the line
    ``<size> <name>`` and then ``size`` bytes of content.  Each file
    takes one open, write and close, its name resolved against one
    descriptor of the directory, which is created, opened and cleared
    when the first record arrives.  A symlink is removed, not followed,
    and the old manifest goes first: it never names a file that is
    gone.  ``name`` is the entry an ``OSError`` concerns."""
    dir_fd = None
    name = ""
    try:
        with open(records, "rb") as reader:
            for line in reader:
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
                size, name = line.decode().split()
                data = reader.read(int(size))
                if len(data) < int(size):
                    return  # the sender stopped inside this record
                fd = os.open(name, os.O_WRONLY | os.O_CREAT | os.O_TRUNC,
                             0o666, dir_fd=dir_fd)
                try:
                    data = memoryview(data)
                    while data:  # a regular file takes it in one write
                        data = data[os.write(fd, data):]
                finally:
                    os.close(fd)
    except OSError as exc:
        raise CorpusWriteError(f"cannot write {os.path.join(out, name)}: "
                               f"{exc.strerror or exc}") from None


class _CorpusWriter:
    """A forked child process that creates the corpus files in ``out``
    while the parent builds their text.  Leaving the ``with`` block
    reaps it and, unless the block raised, raises ``CorpusWriteError``
    if it could not write.  The child creates and clears ``out`` at the
    first file and always ends in ``os._exit``: it never returns into
    the caller or flushes the stdio buffers it inherited.  Fork only
    from a single-threaded process."""

    def __init__(self, out: str) -> None:
        records, self._records = os.pipe()
        # A pipe that holds most of a corpus spares the parent sleeps on
        # a full pipe, which made building the text slower (Linux only).
        if hasattr(fcntl, "F_SETPIPE_SZ"):
            try:
                fcntl.fcntl(self._records, fcntl.F_SETPIPE_SZ, 1 << 20)
            except OSError:
                pass  # above the host's limit for pipe buffers
        errors, report = os.pipe()
        try:
            self._pid = os.fork()
        except OSError as exc:
            for fd in (records, self._records, errors, report):
                os.close(fd)
            raise CorpusWriteError(f"cannot start a writer for {out}: "
                                   f"{exc.strerror or exc}") from None
        if self._pid == 0:
            status = 1
            try:
                # An inherited object collected here could run a
                # finalizer that flushes the parent's buffers.
                gc.disable()
                os.close(self._records)
                os.close(errors)
                try:
                    _create_files(out, records)
                    status = 0
                except CorpusWriteError as exc:
                    os.write(report, str(exc).encode())
            finally:
                os._exit(status)
        os.close(records)
        os.close(report)
        self._errors = errors

    def send(self, name: str, parts: List[bytes]) -> None:
        """Send the file ``name`` whose content is ``parts`` joined,
        without joining them: one ``os.writev`` takes up to IOV_MAX
        parts."""
        buffers = [b"%d %s\n" % (sum(map(len, parts)), name.encode()),
                   *parts]
        first = 0
        try:
            while first < len(buffers):
                written = os.writev(self._records,
                                    buffers[first:first + _IOV_MAX])
                while first < len(buffers) and written >= len(buffers[first]):
                    written -= len(buffers[first])
                    first += 1
                if written:  # a pipe may take a part in pieces
                    buffers[first] = memoryview(buffers[first])[written:]
        except BrokenPipeError:
            self.close(failed=False)  # the child has ended: raise its error
            raise

    def close(self, failed: bool) -> None:
        if self._pid is None:
            return
        os.close(self._records)
        try:
            _pid, status = os.waitpid(self._pid, 0)
            message = os.read(self._errors, 1 << 16).decode()
        finally:
            os.close(self._errors)
            self._pid = None
        if status and not failed:
            raise CorpusWriteError(
                message or f"the corpus writer ended with exit status "
                           f"{os.waitstatus_to_exitcode(status)}")

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
