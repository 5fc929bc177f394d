"""End-to-end tests of the command-line pipeline and corpus writer."""

import errno
import gc
import importlib.util
import json
import os
import re
import subprocess
import sys
import threading
import tracemalloc
from functools import partial
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gexpand
import gexpand.cli
from gexpand.cli import (
    ConfigError,
    RunConfig,
    _build_parser,
    config_from_args,
    main,
    run,
)
from gexpand.corpus import (
    _CORPUS_NAME,
    Corpus,
    _gv_name,
    _json_text,
)
from gexpand import (
    DerivationTree,
    ExpansionOperation,
    Graph,
    is_isomorphic,
    n_best_trees,
    parse_gv,
    parse_operation_file,
    parse_rtg,
    parse_tree_file,
)
from fixtures import (
    DUPLICATE_RULE_GRAMMAR,
    EMPTY_OPS,
    MERGE_OPS,
    RUNNING_GRAMMAR,
    RUNNING_OPS,
    RUNNING_TREE_TEXT,
)
from fixtures import running_result_graph

BENCH_INPUTS = Path(__file__).resolve().parents[1] / "bench" / "inputs"
AMR = ["-g", str(BENCH_INPUTS / "amr.ops"),
       "--rtg", str(BENCH_INPUTS / "amr.rtg")]
# The amr-sample-defs benchmark run: 930 files and a manifest larger
# than a pipe's buffer.
AMR_SAMPLE_DEFS = AMR + ["-N", "740", "-d", str(BENCH_INPUTS / "amr.defs")]


def run_cli(args, stdout=subprocess.PIPE, command=("-m", "gexpand.cli"),
            **env):
    """``python -m gexpand.cli args`` (or ``python *command args``) in a
    child process.  ``PYTHONUNBUFFERED`` is dropped from its environment,
    so that its stdout is buffered as it is for any user when
    redirected; ``env`` adds variables."""
    child_env = {k: v for k, v in os.environ.items()
                 if k != "PYTHONUNBUFFERED"}
    child_env.update(
        PYTHONPATH=str(Path(gexpand.cli.__file__).resolve().parents[1]),
        **env)
    return subprocess.run([sys.executable, *command, *args],
                          env=child_env, stdout=stdout,
                          stderr=subprocess.PIPE, text=True, timeout=120)


def assert_no_child_process():
    """The run left no child process behind."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture()
def nothing_left_open():
    """The test ends with as many threads as it began with and, where
    ``/dev/fd`` lists them, as many open descriptors."""
    has_fd_dir = os.path.isdir("/dev/fd")
    threads = threading.active_count()
    fds = len(os.listdir("/dev/fd")) if has_fd_dir else None
    yield
    assert threading.active_count() == threads
    if has_fd_dir:
        assert len(os.listdir("/dev/fd")) == fds


@pytest.fixture()
def inputs(tmp_path):
    ops = tmp_path / "ops.txt"
    ops.write_text(RUNNING_OPS)
    trees = tmp_path / "trees.txt"
    trees.write_text(RUNNING_TREE_TEXT)
    rtg = tmp_path / "grammar.rtg"
    rtg.write_text(RUNNING_GRAMMAR)
    return tmp_path, ops, trees, rtg


def corpus_bytes(out_dir):
    return {
        p.name: p.read_bytes() for p in sorted(out_dir.iterdir())
    }


class TestRun:
    def test_tree_route_produces_the_expected_graph(self, inputs, capsys):
        tmp, ops, trees, _rtg = inputs
        out = tmp / "corpus"
        status = main(["-g", str(ops), "-t", str(trees), "--out", str(out)])
        assert status == 0
        files = sorted(p.name for p in out.iterdir())
        assert files == ["g0_0.gv", "manifest.json"]
        g = parse_gv((out / "g0_0.gv").read_text())
        assert is_isomorphic(g, running_result_graph())

    def test_grammar_route_matches_tree_route(self, inputs):
        tmp, ops, trees, rtg = inputs
        out_t = tmp / "via_trees"
        out_g = tmp / "via_grammar"
        assert main(["-g", str(ops), "-t", str(trees), "--out", str(out_t)]) == 0
        assert main(
            ["-g", str(ops), "--rtg", str(rtg), "-N", "1", "--out", str(out_g)]
        ) == 0
        left = corpus_bytes(out_t)
        right = corpus_bytes(out_g)
        assert left.keys() == right.keys()
        assert left["g0_0.gv"] == right["g0_0.gv"]

    def test_max_nodes_filter_emits_warning_and_no_files(self, inputs, capsys):
        tmp, ops, trees, _rtg = inputs
        out = tmp / "corpus"
        status = main(
            ["-g", str(ops), "-t", str(trees), "-H", "3", "--out", str(out)]
        )
        assert status == 0
        assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]
        err = capsys.readouterr().err
        assert "size-filtered" in err

    @pytest.mark.parametrize("mode", ["enumerate", "sample"])
    def test_max_nodes_keeps_a_graph_whose_ports_merge(self, tmp_path, mode):
        ops = tmp_path / "ops.txt"
        ops.write_text(MERGE_OPS)
        trees = tmp_path / "trees.txt"
        trees.write_text("merge(pair)\npair\n")
        out = tmp_path / "corpus"
        assert main(["-g", str(ops), "-t", str(trees), "-H", "1",
                     "--mode", mode, "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "g0_0.gv", "manifest.json"]
        assert len(parse_gv((out / "g0_0.gv").read_text()).nodes) == 1

    def test_quoted_comment_marker_is_text_in_every_input(self, tmp_path):
        # One comment rule: an operation, rule, tree and definition may
        # hold a ``//`` inside a quoted string.
        ops = tmp_path / "ops.txt"
        ops.write_text('operation "x//y" {\n  0 [label="a//b"];\n'
                       '  port 0; // the port\n}\n')
        rtg = tmp_path / "grammar.rtg"
        rtg.write_text('S // the start\nS -> "x//y" // a rule\n')
        trees = tmp_path / "trees.txt"
        trees.write_text('"x//y" // a tree\n')
        defs = tmp_path / "defs.txt"
        defs.write_text('"a//b": "http://x", "c, d" // two\n')
        for route in (["--rtg", str(rtg)], ["-t", str(trees)]):
            out = tmp_path / route[0].strip("-")
            assert main(["-g", str(ops), *route, "-d", str(defs),
                         "--out", str(out)]) == 0
            assert [parse_gv((out / f"g0_{i}.gv").read_text()).labels
                    for i in range(2)] == [{"n0": "http://x"},
                                           {"n0": "c, d"}]

    def test_required_op_present(self, inputs):
        tmp, ops, trees, _rtg = inputs
        out = tmp / "corpus"
        assert main(
            ["-g", str(ops), "-t", str(trees), "-k", "op3", "--out", str(out)]
        ) == 0
        assert (out / "g0_0.gv").exists()

    def test_required_op_absent_gives_zero_graphs(self, inputs, capsys):
        tmp, ops, trees, _rtg = inputs
        out = tmp / "corpus"
        status = main(
            ["-g", str(ops), "-t", str(trees), "-k", "op9", "--out", str(out)]
        )
        assert status == 0
        assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]
        assert "required-op" in capsys.readouterr().err

    def test_manifest_records_match_files(self, inputs):
        tmp, ops, trees, _rtg = inputs
        out = tmp / "corpus"
        main(["-g", str(ops), "-t", str(trees), "--out", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        gv_files = sorted(
            p.name for p in out.iterdir() if p.suffix == ".gv"
        )
        assert sorted(r["file"] for r in manifest["graphs"]) == gv_files
        record = manifest["graphs"][0]
        assert record["tree"] == "op1(op2(op3(op4 op5)))"
        assert record["nodes"] == 4
        assert record["edges"] == 5

    @pytest.mark.usefixtures("nothing_left_open")
    def test_run_leaves_no_thread_or_descriptor_open(self, inputs):
        tmp, ops, _trees, rtg = inputs
        assert main(["-g", str(ops), "--rtg", str(rtg), "-N", "3",
                     "--out", str(tmp / "corpus")]) == 0

    def test_run_leaves_no_child_process(self, inputs):
        tmp, ops, _trees, rtg = inputs
        assert main(["-g", str(ops), "--rtg", str(rtg), "-N", "3",
                     "--out", str(tmp / "corpus")]) == 0
        assert_no_child_process()

    def test_each_output_line_appears_once_through_pipes(self, tmp_path):
        out = tmp_path / "corpus"
        result = run_cli([*AMR_SAMPLE_DEFS, "--out", str(out)])
        assert result.returncode == 0, result.stderr
        manifest = json.loads((out / "manifest.json").read_text())
        names = [r["file"] for r in manifest["graphs"]]
        assert result.stdout == f"wrote {len(names)} graph(s) to {out}\n"
        assert result.stderr.splitlines() == [
            f"warning: {w}" for w in manifest["warnings"]]
        assert manifest["warnings"]
        assert sorted(p.name for p in out.iterdir()) == sorted(
            names + ["manifest.json"])

    def test_repeated_runs_are_byte_identical(self, inputs):
        tmp, ops, trees, _rtg = inputs
        out1, out2 = tmp / "one", tmp / "two"
        argv = ["-g", str(ops), "-t", str(trees)]
        main(argv + ["--out", str(out1)])
        main(argv + ["--out", str(out2)])
        assert corpus_bytes(out1) == corpus_bytes(out2)

    def test_definitions_expand_the_corpus(self, inputs):
        tmp, ops, trees, _rtg = inputs
        defs = tmp / "defs.txt"
        defs.write_text("she: she, he\nthey: they, all\n")
        out = tmp / "corpus"
        assert main(
            ["-g", str(ops), "-t", str(trees), "-d", str(defs),
             "--out", str(out)]
        ) == 0
        gv_files = [p for p in out.iterdir() if p.suffix == ".gv"]
        assert len(gv_files) == 4

    def test_emitted_files_satisfy_filters(self, inputs):
        tmp, ops, trees, _rtg = inputs
        out = tmp / "corpus"
        main(
            ["-g", str(ops), "-t", str(trees), "-L", "2", "-H", "10",
             "--out", str(out)]
        )
        for p in out.iterdir():
            if p.suffix == ".gv":
                g = parse_gv(p.read_text())
                assert 2 <= len(g.nodes) <= 10

    def test_enumerate_mode_flag(self, inputs):
        tmp, ops, trees, _rtg = inputs
        out = tmp / "corpus"
        assert main(
            ["-g", str(ops), "-t", str(trees), "--mode", "enumerate",
             "--out", str(out)]
        ) == 0
        assert (out / "g0_0.gv").exists()


class TestExit:
    """How ``python -m gexpand.cli`` leaves: its output flushed, then
    ``os._exit`` with the status of ``main``; argparse's exits and
    uncaught exceptions go through the interpreter."""

    def test_input_error_exits_1_with_its_line(self, tmp_path):
        ops = tmp_path / "missing.ops"
        result = run_cli(["-g", str(ops), "-t", str(ops)])
        assert result.returncode == 1
        assert result.stderr == f"error: operation file not found: {ops}\n"
        assert result.stdout == ""

    def test_usage_error_exits_2(self, inputs):
        _tmp, ops, _trees, _rtg = inputs
        result = run_cli(["-g", str(ops)])
        assert result.returncode == 2
        assert result.stderr.splitlines()[-1] == (
            "gexpand: error: one of the arguments -t/--trees --rtg is "
            "required")

    @pytest.mark.skipif(not os.path.exists("/dev/full"),
                        reason="needs a device whose writes fail")
    def test_stdout_that_cannot_be_written_exits_120(self, inputs):
        tmp, ops, trees, _rtg = inputs
        with open("/dev/full", "w") as full:
            result = run_cli(["-g", str(ops), "-t", str(trees),
                              "--out", str(tmp / "corpus")], stdout=full)
        assert result.returncode == 120
        assert "Traceback" not in result.stderr
        assert (tmp / "corpus" / "manifest.json").is_file()

    @pytest.mark.skipif(not os.path.exists("/dev/full"),
                        reason="needs a device whose writes fail")
    @pytest.mark.parametrize("validate", [False, True],
                             ids=["run", "validate"])
    def test_unbuffered_stdout_that_cannot_be_written_exits_120(
            self, inputs, validate):
        tmp, ops, trees, _rtg = inputs
        args = ["-g", str(ops), "-t", str(trees)]
        args += ["--validate"] if validate else ["--out", str(tmp / "corpus")]
        with open("/dev/full", "w") as full:
            result = run_cli(args, stdout=full, PYTHONUNBUFFERED="1")
        assert result.returncode == 120
        assert result.stderr == (f"error: cannot write to <stdout>: "
                                 f"[Errno {errno.ENOSPC}] "
                                 f"{os.strerror(errno.ENOSPC)}\n")

    def test_no_atexit_handler_runs(self, inputs):
        tmp, ops, trees, _rtg = inputs
        code = ("import atexit\n"
                "from gexpand.cli import entry\n"
                "atexit.register(print, 'atexit ran')\n"
                "entry()\n")
        result = run_cli(["-g", str(ops), "-t", str(trees),
                          "--out", str(tmp / "corpus")], command=("-c", code))
        assert result.returncode == 0, result.stderr
        assert result.stdout == f"wrote 1 graph(s) to {tmp / 'corpus'}\n"


class TestEncoding:
    """Input files are read as UTF-8 whatever the locale."""

    def test_c_locale_writes_the_same_corpus(self, tmp_path):
        ops = tmp_path / "ops.txt"
        ops.write_text(RUNNING_OPS.replace("persuade", "überzeugen"),
                       encoding="utf-8")
        trees = tmp_path / "trees.txt"
        trees.write_text(RUNNING_TREE_TEXT, encoding="utf-8")
        defs = tmp_path / "defs.txt"
        defs.write_text("she: she, sie\nthey: they, illés\n",
                        encoding="utf-8")
        args = ["-g", str(ops), "-t", str(trees), "-d", str(defs)]
        default = run_cli([*args, "--out", str(tmp_path / "default")])
        c_locale = run_cli([*args, "--out", str(tmp_path / "c")],
                           LC_ALL="C", PYTHONCOERCECLOCALE="0",
                           PYTHONUTF8="0")
        assert default.returncode == 0, default.stderr
        assert c_locale.returncode == 0, c_locale.stderr
        corpus = corpus_bytes(tmp_path / "default")
        assert len(corpus) == 5
        assert "überzeugen".encode() in corpus["g0_0.gv"]
        assert corpus_bytes(tmp_path / "c") == corpus

    def test_c_locale_validate_escapes_a_non_ascii_symbol(self, inputs):
        _tmp, ops, trees, _rtg = inputs
        trees.write_text(RUNNING_TREE_TEXT.replace("op4", "öp4"),
                         encoding="utf-8")
        result = run_cli(["-g", str(ops), "-t", str(trees), "--validate"],
                         LC_ALL="C", PYTHONCOERCECLOCALE="0",
                         PYTHONUTF8="0")
        assert result.returncode == 1
        assert result.stdout.splitlines() == [
            "fatal: no operation defined for symbol '\\xf6p4'"]
        assert "Traceback" not in result.stderr

    def test_file_that_is_not_utf8_is_one_error_line(self, inputs):
        tmp, ops, _trees, _rtg = inputs
        trees = tmp / "latin1.txt"
        trees.write_bytes(b"op1(op2(op3(op4 op5)))\n\xff\n")
        result = run_cli(["-g", str(ops), "-t", str(trees),
                          "--out", str(tmp / "corpus")])
        assert result.returncode == 1
        assert result.stderr == (
            f"error: tree file is not UTF-8: {trees}: invalid start byte "
            f"at byte 23\n")
        assert not (tmp / "corpus").exists()

    @pytest.mark.parametrize("what",
                             ["operation", "tree", "grammar", "definition"])
    def test_every_input_is_decoded_as_utf8(self, inputs, capsys, what):
        tmp, ops, trees, _rtg = inputs
        bad = tmp / "bad.txt"
        bad.write_bytes(b"\xff")
        argv = {
            "operation": ["-g", bad, "-t", trees],
            "tree": ["-g", ops, "-t", bad],
            "grammar": ["-g", ops, "--rtg", bad],
            "definition": ["-g", ops, "-t", trees, "-d", bad],
        }[what]
        assert main([str(x) for x in argv]
                    + ["--out", str(tmp / "corpus")]) == 1
        assert capsys.readouterr().err == (
            f"error: {what} file is not UTF-8: {bad}: invalid start byte "
            f"at byte 0\n")

    @pytest.mark.parametrize("what",
                             ["operation", "tree", "grammar", "definition"])
    def test_unreadable_input_is_one_error_line(self, inputs, capsys,
                                                monkeypatch, what):
        tmp, ops, trees, _rtg = inputs
        locked = tmp / "locked.txt"
        locked.write_text("")
        real_read_text = Path.read_text

        def read_text(path, *args, **kwargs):
            if path == locked:
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES),
                                      str(path))
            return real_read_text(path, *args, **kwargs)

        monkeypatch.setattr(Path, "read_text", read_text)
        argv = {
            "operation": ["-g", locked, "-t", trees],
            "tree": ["-g", ops, "-t", locked],
            "grammar": ["-g", ops, "--rtg", locked],
            "definition": ["-g", ops, "-t", trees, "-d", locked],
        }[what]
        assert main([str(x) for x in argv]
                    + ["--out", str(tmp / "corpus")]) == 1
        assert capsys.readouterr().err == (
            f"error: {what} file cannot be read: {locked}: "
            f"{os.strerror(errno.EACCES)}\n")
        assert not (tmp / "corpus").exists()

    @pytest.mark.parametrize("what",
                             ["operation", "tree", "grammar", "definition"])
    def test_directory_input_is_one_error_line(self, inputs, capsys, what):
        # A directory exists, so it is not "not found": reading it fails.
        tmp, ops, trees, _rtg = inputs
        folder = tmp / "folder"
        folder.mkdir()
        argv = {
            "operation": ["-g", folder, "-t", trees],
            "tree": ["-g", ops, "-t", folder],
            "grammar": ["-g", ops, "--rtg", folder],
            "definition": ["-g", ops, "-t", trees, "-d", folder],
        }[what]
        assert main([str(x) for x in argv]
                    + ["--out", str(tmp / "corpus")]) == 1
        assert capsys.readouterr().err == (
            f"error: {what} file cannot be read: {folder}: "
            f"{os.strerror(errno.EISDIR)}\n")
        assert not (tmp / "corpus").exists()


# Manifest values: strings with non-ASCII and control characters, ints,
# bools, None, and nested dicts, lists and tuples, empty ones included.
MANIFEST_STRINGS = st.text(st.sampled_from("aZ0 \"\\/\x00\x1f\n\t\x7f"
                                           "\u00e9\u00f6\u2028\U0001f600"))
MANIFEST_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | MANIFEST_STRINGS
    | st.text(),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(MANIFEST_STRINGS, inner, max_size=4)),
    max_leaves=25)


def manifest_bytes(config, records, warnings):
    """What ``manifest.json`` holds for these config, records and
    warnings: ``json.dumps`` of the manifest and a newline."""
    manifest = {"tool": "gexpand", "version": gexpand.__version__,
                "config": config, "graphs": records, "warnings": warnings}
    return (json.dumps(manifest, indent=2, sort_keys=True)
            + "\n").encode("ascii")


def graph_record(tree_index, variant, tree, weight, nodes, edges):
    """The manifest record of a graph that ``Corpus.add`` was given."""
    return {"file": f"g{tree_index}_{variant}.gv", "tree_index": tree_index,
            "variant": variant, "tree": tree, "tree_weight": weight,
            "nodes": nodes, "edges": edges}


class TestManifestText:
    @given(MANIFEST_VALUES)
    @settings(max_examples=300, deadline=None)
    def test_equals_json_dumps(self, value):
        assert _json_text(value, "") == json.dumps(value, indent=2,
                                                   sort_keys=True)

    @pytest.mark.parametrize("value", [1.5, {1: "a"}, {"a": {b"x"}}, set()])
    def test_other_types_raise(self, value):
        with pytest.raises(TypeError):
            _json_text(value, "")

    @given(config=st.dictionaries(MANIFEST_STRINGS, MANIFEST_VALUES,
                                  max_size=6),
           graphs=st.lists(st.tuples(
               st.integers(0, 10**6), st.integers(0, 10**6),
               MANIFEST_STRINGS | st.text(), MANIFEST_STRINGS | st.text(),
               st.integers(), st.integers()), max_size=5),
           warnings=st.lists(MANIFEST_STRINGS | st.text(), max_size=5))
    @example(config={}, graphs=[], warnings=[])
    @example(config={"seed": 0}, graphs=[(0, 0, "a", "0", 1, 0)],
             warnings=[])
    @example(config={}, graphs=[], warnings=["tree 0: \u00e9\x00\n"])
    @example(config={}, graphs=[(0, 0, "\u00e9", "-1.5", 2, 1)] * 2,
             warnings=["tree 1: \u2028\U0001f600"])
    @settings(max_examples=100, deadline=None)
    def test_written_manifest_is_json_dumps(self, tmp_path_factory, config,
                                            graphs, warnings):
        """The manifest that ``Corpus`` writes from the records of the
        graphs added is ``json.dumps`` of the manifest, for any number
        of graphs, zero included."""
        out = tmp_path_factory.mktemp("corpus")
        with Corpus(str(out)) as corpus:
            for graph in graphs:
                corpus.add("", *graph)
            assert corpus.write_manifest(config, warnings) == len(graphs)
        assert (out / "manifest.json").read_bytes() == manifest_bytes(
            config, [graph_record(*graph) for graph in graphs], warnings)


@given(st.integers(min_value=0), st.integers(min_value=0))
def test_every_gv_name_is_a_corpus_name(tree_index, variant):
    """A rerun removes every graph file an earlier run wrote."""
    assert _CORPUS_NAME.fullmatch(_gv_name(tree_index, variant))


class TestSend:
    def test_manifest_is_held_once(self, tmp_path):
        """Adding 20,000 graphs, whose record texts the corpus keeps in
        one buffer, and writing the manifest from that buffer peaks
        below 1.2 times the manifest's size: the manifest is never
        copied whole (joining it or encoding it would be a copy), and
        the records are not held as one object each."""
        out = tmp_path / "corpus"
        config = {"best_count": 20_000, "mode": "sample", "seed": 0}
        warnings = [f"tree {i}: zero-result: no candidate" for i in range(50)]
        graph = ("want-01(boy, go-02(girl, she))", "-12.5", 9, 8)
        tracemalloc.start()
        try:
            with Corpus(str(out)) as corpus:
                for i in range(20_000):
                    corpus.add("", i, 0, *graph)
                assert corpus.write_manifest(config, warnings) == 20_000
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        manifest = (out / "manifest.json").read_bytes()
        assert peak < 1.2 * len(manifest)
        assert manifest == manifest_bytes(
            config, [graph_record(i, 0, *graph) for i in range(20_000)],
            warnings)

    def test_short_writes_are_finished(self, tmp_path, monkeypatch):
        """A write may take fewer bytes than it is offered, here 5 a
        call, and stop inside a part; the corpus goes on from the first
        byte not taken, for a gv file, an empty one and the manifest."""
        real_write = os.write
        writes = []

        def short_write(fd, data):
            writes.append(len(data))
            return real_write(fd, data[:5])

        out = tmp_path / "corpus"
        graphs = [("abcdefghij" + "k" * 3000, 0, 0, "t", "0", 1, 0),
                  ("", 0, 1, "t", "0", 0, 0)]
        monkeypatch.setattr(os, "write", short_write)
        with Corpus(str(out)) as corpus:
            for graph in graphs:
                corpus.add(*graph)
            corpus.write_manifest({"seed": 0}, ["tree 1: no graph"])
        assert writes[:3] == [3010, 3005, 3000]
        assert (out / "g0_0.gv").read_bytes() == b"abcdefghij" + b"k" * 3000
        assert (out / "g0_1.gv").read_bytes() == b""
        assert (out / "manifest.json").read_bytes() == manifest_bytes(
            {"seed": 0}, [graph_record(*graph[1:]) for graph in graphs],
            ["tree 1: no graph"])


@pytest.mark.usefixtures("nothing_left_open")
class TestWrites:
    def test_any_writer_exception_reaches_the_caller(self, inputs,
                                                     monkeypatch):
        real_open = os.open

        def gv_open(path, flags, mode=0o777, *, dir_fd=None):
            if str(path).endswith(".gv"):
                raise RuntimeError("no gv file today")
            return real_open(path, flags, mode, dir_fd=dir_fd)

        monkeypatch.setattr(os, "open", gv_open)
        tmp, ops, trees, _rtg = inputs
        with pytest.raises(RuntimeError, match="^no gv file today$"):
            main(["-g", str(ops), "-t", str(trees),
                  "--out", str(tmp / "corpus")])

    def test_run_beside_another_thread_writes_the_same_bytes(self, inputs):
        tmp, ops, _trees, rtg = inputs
        argv = ["-g", str(ops), "--rtg", str(rtg), "-N", "3"]
        assert main(argv + ["--out", str(tmp / "plain")]) == 0
        done = threading.Event()
        other = threading.Thread(target=done.wait)
        other.start()
        try:
            assert main(argv + ["--out", str(tmp / "beside")]) == 0
        finally:
            done.set()
            other.join()
        assert corpus_bytes(tmp / "beside") == corpus_bytes(tmp / "plain")

    def test_failing_file_stops_the_run_at_that_file(self, tmp_path,
                                                     capsys, monkeypatch):
        """Each file is written as soon as its text is built, so the
        first file that cannot be written ends the run: one gv text is
        built, and nothing after it."""
        texts = []

        def counted_emit_gv(g):
            texts.append(g)
            return real_emit_gv(g)

        real_emit_gv = gexpand.cli.emit_gv
        monkeypatch.setattr(gexpand.cli, "emit_gv", counted_emit_gv)
        out = tmp_path / "corpus"
        (out / "g0_0.gv").mkdir(parents=True)
        assert main(AMR_SAMPLE_DEFS + ["--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: cannot write {out / 'g0_0.gv'}: "
            f"{os.strerror(errno.EISDIR)}\n")
        assert listing(out) == ["g0_0.gv"]
        assert len(texts) == 1

    def test_stale_entry_that_cannot_be_removed_is_one_error(
            self, inputs, capsys, monkeypatch):
        """Opening the corpus removes the old manifest first; a stale
        gv file it cannot remove stops the run with one error line, and
        the directory descriptor is closed."""
        real_unlink = os.unlink

        def unlink(path, *, dir_fd=None):
            if path == "g0_0.gv":
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES))
            return real_unlink(path, dir_fd=dir_fd)

        tmp, ops, trees, _rtg = inputs
        out = tmp / "corpus"
        out.mkdir()
        for name in ["g0_0.gv", "manifest.json"]:
            (out / name).write_text("stale\n")
        monkeypatch.setattr(os, "unlink", unlink)
        assert main(["-g", str(ops), "-t", str(trees),
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: cannot write {out / 'g0_0.gv'}: "
            f"{os.strerror(errno.EACCES)}\n")
        assert listing(out) == ["g0_0.gv"]

    @pytest.mark.parametrize("target", ["manifest.json", "g2_0.gv"])
    def test_failed_write_leaves_no_partial_file(self, tmp_path, capsys,
                                                 monkeypatch, target):
        """A file whose write fails after its first 7 bytes is removed:
        the run ends with one error line, and only the gv files written
        before it stay, whole."""
        real_open, real_write = os.open, os.write
        failing = {}  # the target's descriptor: the writes it took

        def tracked_open(path, flags, mode=0o777, *, dir_fd=None):
            fd = real_open(path, flags, mode, dir_fd=dir_fd)
            if path == target:
                failing[fd] = 0
            return fd

        def failing_write(fd, data):
            if fd not in failing:
                return real_write(fd, data)
            failing[fd] += 1
            if failing[fd] == 1:
                return real_write(fd, data[:7])
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        out = tmp_path / "corpus"
        argv = AMR + ["-N", "20", "--mode", "enumerate"]
        assert main(argv + ["--out", str(tmp_path / "whole")]) == 0
        capsys.readouterr()
        whole = corpus_bytes(tmp_path / "whole")
        monkeypatch.setattr(os, "open", tracked_open)
        monkeypatch.setattr(os, "write", failing_write)
        assert main(argv + ["--out", str(out)]) == 1
        assert list(failing.values()) == [2]
        assert capsys.readouterr().err == (
            f"error: cannot write {out / target}: "
            f"{os.strerror(errno.ENOSPC)}\n")
        files = corpus_bytes(out)
        assert target not in files and "manifest.json" not in files
        assert files == {name: whole[name] for name in files}
        earlier = [g["file"] for g in json.loads(whole["manifest.json"])[
            "graphs"]]  # in the order they were written
        if target != "manifest.json":
            earlier = earlier[:earlier.index(target)]
        assert sorted(files) == sorted(earlier)


class TestRelease:
    """A run lets go of each tree's graphs once their files are written,
    and leaves the lists its library calls returned as they were."""

    # Sample mode yields one graph per tree, which the definitions turn
    # into its instances; without definitions each instance is its graph.
    @pytest.mark.parametrize("mode_args, graphs_besides_instances", [
        (["-d", str(BENCH_INPUTS / "amr.defs")], 1),
        (["--mode", "enumerate"], 0),
    ], ids=["sample-with-definitions", "enumerate"])
    def test_only_the_last_trees_graphs_are_alive_at_the_manifest(
            self, tmp_path, monkeypatch, capsys, mode_args,
            graphs_besides_instances):
        """When the manifest is written, the run holds no ``Graph`` but
        the operation templates and the last tree's graphs and
        instances."""
        def live_graphs():
            return sum(isinstance(o, Graph) for o in gc.get_objects())

        counts = []
        real = Corpus.write_manifest

        def counted(corpus, config, warnings):
            counts.append(live_graphs())
            return real(corpus, config, warnings)

        monkeypatch.setattr(Corpus, "write_manifest", counted)
        out = tmp_path / "corpus"
        gc.collect()
        before = live_graphs()
        assert main(AMR + ["-N", "740", *mode_args, "--out", str(out)]) == 0
        (count,) = counts
        records = json.loads((out / "manifest.json").read_text())["graphs"]
        last = [r for r in records
                if r["tree_index"] == records[-1]["tree_index"]]
        templates = sum(
            isinstance(op, ExpansionOperation) for op in parse_operation_file(
                (BENCH_INPUTS / "amr.ops").read_text()).operations.values())
        assert count - before <= (templates + graphs_besides_instances
                                  + len(last))

    @pytest.mark.parametrize("mode", ["sample", "enumerate"])
    def test_returned_lists_are_left_as_they_were(self, tmp_path,
                                                  monkeypatch, capsys, mode):
        returned = {}

        def keep(name, fn):
            def kept(*args):
                result = fn(*args)
                returned[name] = (result, list(result))
                return result
            monkeypatch.setattr(gexpand.cli, name, kept)

        keep("n_best_trees", gexpand.cli.n_best_trees)
        keep("evaluate_corpus", gexpand.cli.evaluate_corpus)
        assert main(AMR + ["-N", "40", "--mode", mode,
                           "--out", str(tmp_path / "corpus")]) == 0
        best, best_then = returned["n_best_trees"]
        outcomes, outcomes_then = returned["evaluate_corpus"]
        assert len(best) == len(best_then) == 40
        assert all(a is b for a, b in zip(best, best_then))
        assert len(outcomes) == len(outcomes_then) == 40
        assert [o.graphs for o in outcomes] == [
            o.graphs for o in outcomes_then]
        assert sum(len(o.graphs) for o in outcomes) > 0


class TestErrors:
    def test_unknown_operation_for_symbol_is_fatal(self, inputs, capsys):
        tmp, ops, _trees, _rtg = inputs
        trees = tmp / "bad_trees.txt"
        trees.write_text("op9\n")
        assert main(["-g", str(ops), "-t", str(trees)]) == 1
        assert "op9" in capsys.readouterr().err

    def test_rank_mismatch_is_fatal(self, inputs, capsys):
        tmp, ops, _trees, _rtg = inputs
        trees = tmp / "bad_trees.txt"
        trees.write_text("op3(op4 op5 op4)\n")
        assert main(["-g", str(ops), "-t", str(trees)]) == 1

    def test_symbol_findings_are_one_error_line_each(self, inputs, capsys):
        """``run`` raises its fatal findings as one ``ConfigError``,
        one finding a line, and ``main`` writes each as an ``error:``
        line; no corpus is made."""
        tmp, ops, _trees, _rtg = inputs
        trees = tmp / "bad_trees.txt"
        trees.write_text("op3(op4 op9 op4)\nop8\n")
        out = tmp / "corpus"
        argv = ["-g", str(ops), "-t", str(trees), "--out", str(out)]
        findings = [  # by symbol
            "fatal: symbol 'op3' has rank 3 but the operation allows "
            "ranks (2,)",
            "fatal: no operation defined for symbol 'op8'",
            "fatal: no operation defined for symbol 'op9'",
        ]
        assert main(argv) == 1
        assert capsys.readouterr() == (
            "", "".join(f"error: {line}\n" for line in findings))
        with pytest.raises(ConfigError) as exc:
            run(config_from_args(argv)[0])
        assert str(exc.value).split("\n") == findings
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["enumerate", "sample"])
    @pytest.mark.parametrize("tree, status, err", [
        ("nil", 0, ""),
        ("nil(dot)", 1, "error: fatal: symbol 'nil' has rank 1 but the "
                        "operation allows ranks (0,)\n"),
    ])
    def test_empty_constant(self, tmp_path, capsys, mode, tree, status, err):
        ops = tmp_path / "ops.txt"
        ops.write_text(EMPTY_OPS)
        trees = tmp_path / "trees.txt"
        trees.write_text(tree + "\n")
        out = tmp_path / "corpus"
        assert main(["-g", str(ops), "-t", str(trees), "--mode", mode,
                     "--out", str(out)]) == status
        assert capsys.readouterr().err == err
        if status == 0:
            assert (out / "g0_0.gv").read_text() == (
                "digraph {\n  // ports:\n}\n")

    def test_missing_operation_file(self, inputs, capsys):
        tmp, _ops, trees, _rtg = inputs
        assert main(["-g", str(tmp / "absent.txt"), "-t", str(trees)]) == 1
        assert "not found" in capsys.readouterr().err

    def test_both_tree_and_grammar_rejected(self, inputs, capsys):
        _tmp, ops, trees, rtg = inputs
        with pytest.raises(SystemExit):
            main(["-g", str(ops), "-t", str(trees), "--rtg", str(rtg)])

    def test_neither_tree_nor_grammar_rejected(self, inputs):
        _tmp, ops, _trees, _rtg = inputs
        with pytest.raises(SystemExit):
            main(["-g", str(ops)])

    def test_nonpositive_best_count_rejected(self, inputs, capsys):
        _tmp, ops, _trees, rtg = inputs
        assert main(["-g", str(ops), "--rtg", str(rtg), "-N", "0"]) == 1

    def test_syntax_error_in_operations(self, inputs, tmp_path, capsys):
        tmp, _ops, trees, _rtg = inputs
        bad = tmp / "bad_ops.txt"
        bad.write_text("operation broken {\n")
        assert main(["-g", str(bad), "-t", str(trees)]) == 1

    def test_definition_ending_in_backslash_writes_nothing(self, inputs, capsys):
        tmp, ops, trees, _rtg = inputs
        defs = tmp / "defs.txt"
        defs.write_text("she: she, he\\\n")
        out = tmp / "corpus"
        assert main(
            ["-g", str(ops), "-t", str(trees), "-d", str(defs),
             "--out", str(out)]
        ) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "backslash" in err
        assert "Traceback" not in err
        assert not out.exists() or not any(out.iterdir())


@pytest.mark.usefixtures("nothing_left_open")
class TestUnwritableCorpus:
    """A corpus that cannot be written ends in one ``error:`` line that
    names the path, with exit status 1, and leaves no process behind."""

    def run_failing(self, argv, out, capsys):
        assert main(argv + ["--out", str(out)]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert_no_child_process()
        return line

    def test_out_is_a_regular_file(self, inputs, capsys):
        tmp, ops, trees, _rtg = inputs
        out = tmp / "corpus"
        out.write_text("taken\n")
        line = self.run_failing(["-g", str(ops), "-t", str(trees)], out,
                                capsys)
        assert line == (f"error: cannot create output directory {out}: "
                        + os.strerror(errno.EEXIST))
        assert out.read_text() == "taken\n"

    def test_out_is_a_regular_file_stops_before_any_graph_text(
            self, inputs, capsys, monkeypatch):
        """The corpus opens, and fails, before the first graph's text
        is built."""
        texts = []
        monkeypatch.setattr(gexpand.cli, "emit_gv", texts.append)
        tmp, _ops, _trees, _rtg = inputs
        out = tmp / "corpus"
        out.write_text("taken\n")
        line = self.run_failing(AMR_SAMPLE_DEFS, out, capsys)
        assert line == (f"error: cannot create output directory {out}: "
                        + os.strerror(errno.EEXIST))
        assert texts == []

    # Either run stops at its first file.
    @pytest.mark.parametrize("amr", [False, True],
                             ids=["running-example", "amr-sample-defs"])
    def test_out_holds_a_directory_named_like_a_graph(self, inputs, capsys,
                                                      amr):
        tmp, ops, trees, _rtg = inputs
        out = tmp / "corpus"
        (out / "g0_0.gv").mkdir(parents=True)
        argv = AMR_SAMPLE_DEFS if amr else ["-g", str(ops), "-t", str(trees)]
        line = self.run_failing(argv, out, capsys)
        assert line == (f"error: cannot write {out / 'g0_0.gv'}: "
                        f"{os.strerror(errno.EISDIR)}")
        assert not (out / "manifest.json").exists()


def manifest_files(out):
    manifest = json.loads((out / "manifest.json").read_text())
    return [r["file"] for r in manifest["graphs"]]


def listing(out):
    return sorted(os.listdir(out))


class TestRerun:
    """A run into the ``--out`` of an earlier one leaves the directory
    in step with its own manifest, and touches no name it does not
    write."""

    def test_smaller_rerun_leaves_only_its_files(self, tmp_path, capsys):
        out = tmp_path / "corpus"
        assert main(AMR + ["-N", "40", "--out", str(out)]) == 0
        assert len(listing(out)) == 16
        victim = tmp_path / "victim"
        victim.write_bytes(b"not a graph\n")
        (out / "notes.txt").write_text("keep me\n")
        (out / "g99_0.gv").mkdir()
        (out / "g98_0.gv").symlink_to(Path("..") / "victim")
        assert main(AMR + ["-N", "5", "--out", str(out)]) == 0
        assert listing(out) == sorted(
            manifest_files(out) + ["manifest.json", "notes.txt", "g99_0.gv"])
        assert len(manifest_files(out)) == 3
        assert (out / "notes.txt").read_text() == "keep me\n"
        assert victim.read_bytes() == b"not a graph\n"

    def test_failed_rerun_leaves_no_manifest(self, tmp_path, capsys):
        out = tmp_path / "corpus"
        argv = AMR + ["-N", "40", "-d", str(BENCH_INPUTS / "amr.defs"),
                      "--out", str(out)]
        assert main(argv) == 0
        first, second = manifest_files(out)[:2]
        (out / second).unlink()
        (out / second).mkdir()
        capsys.readouterr()
        assert main(argv + ["--seed", "7"]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line == (f"error: cannot write {out / second}: "
                        f"{os.strerror(errno.EISDIR)}")
        assert_no_child_process()
        assert listing(out) == [first, second]
        (out / second).rmdir()
        assert main(argv + ["--seed", "7"]) == 0
        assert listing(out) == sorted(manifest_files(out) + ["manifest.json"])

    def test_rerun_stopped_by_a_check_changes_nothing(self, tmp_path, capsys):
        out = tmp_path / "corpus"
        argv = AMR + ["-N", "20", "-d", str(BENCH_INPUTS / "amr.defs"),
                      "--out", str(out)]
        assert main(argv) == 0
        before = corpus_bytes(out)
        capsys.readouterr()
        assert main(argv + ["--instantiation-cap", "1"]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert "exceeding the cap of 1" in line
        assert corpus_bytes(out) == before


class TestTracingTargets:
    def test_every_traced_name_is_an_attribute_of_its_module(self):
        # The benchmark wraps these names from outside the package; one
        # that moved would silently lose its span.
        path = BENCH_INPUTS.parent / "tracing.py"
        spec = importlib.util.spec_from_file_location("bench_tracing", path)
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        assert tracing.TARGETS
        for module, name, span in tracing.TARGETS:
            assert hasattr(importlib.import_module(module), name), span


DUPLICATE_RULE_OPS = "".join(
    f"operation {name} {{\n  0 [label=\"{name}\"];\n  port 0;\n}}\n"
    for name in ("t7r0", "t6r0")
) + "".join(
    f"operation {name} {{\n  0;\n  port 0;\n  dock 0;\n}}\n"
    for name in ("t0r1", "t5r1", "t3r1")
) + "operation t5r2 { 1 1 }\n"


@pytest.mark.usefixtures("nothing_left_open")
class TestOneErrorLine:
    """Bad settings, runaway searches and cap hits end in exactly one
    ``error:`` line and exit status 1, before the output directory
    exists."""

    def run_failing(self, tmp, capsys, argv):
        out = tmp / "corpus"
        assert main(argv + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        (line,) = err.splitlines()
        assert line.startswith("error:")
        assert not out.exists()
        assert_no_child_process()
        return err

    def test_min_nodes_above_max_nodes(self, inputs, capsys):
        tmp, ops, trees, _rtg = inputs
        err = self.run_failing(
            tmp, capsys, ["-g", str(ops), "-t", str(trees),
                          "-L", "5", "-H", "3"])
        assert "min_nodes exceeds max_nodes" in err

    def test_zero_result_cap(self, inputs, capsys):
        tmp, ops, trees, _rtg = inputs
        err = self.run_failing(
            tmp, capsys, ["-g", str(ops), "-t", str(trees),
                          "--result-cap", "0"])
        assert "result_cap" in err

    @pytest.mark.parametrize("flags, message", [
        (["-L", "5", "-H", "3"], "error: min_nodes exceeds max_nodes "
                                 "(-L/--min-nodes 5 > -H/--max-nodes 3)"),
        (["--result-cap", "0"],
         "error: result_cap must be at least 1 (--result-cap 0)"),
    ])
    def test_config_errors_name_the_flags(self, inputs, capsys, flags,
                                          message):
        tmp, ops, trees, _rtg = inputs
        err = self.run_failing(
            tmp, capsys, ["-g", str(ops), "-t", str(trees)] + flags)
        assert err == message + "\n"

    def test_zero_instantiation_cap(self, inputs, capsys):
        tmp, ops, trees, _rtg = inputs
        defs = tmp / "defs.txt"
        defs.write_text("she: she, he\n")
        err = self.run_failing(
            tmp, capsys, ["-g", str(ops), "-t", str(trees), "-d", str(defs),
                          "--instantiation-cap", "0"])
        assert "--instantiation-cap must be at least 1" in err

    def test_n_best_budget_overflow(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(gexpand.cli, "n_best_trees",
                            partial(n_best_trees, budget=5))
        ops = tmp_path / "ops.txt"
        ops.write_text(DUPLICATE_RULE_OPS)
        rtg = tmp_path / "dup.rtg"
        rtg.write_text(DUPLICATE_RULE_GRAMMAR)
        err = self.run_failing(
            tmp_path, capsys, ["-g", str(ops), "--rtg", str(rtg), "-N", "40"])
        assert "budget of 5" in err

    def test_instantiation_cap_hit_after_earlier_graphs(
            self, tmp_path, capsys):
        # The first trees instantiate within the cap; a later one does not.
        err = self.run_failing(
            tmp_path, capsys,
            ["-g", str(BENCH_INPUTS / "amr.ops"),
             "--rtg", str(BENCH_INPUTS / "amr.rtg"),
             "-N", "20", "-d", str(BENCH_INPUTS / "amr.defs"),
             "--instantiation-cap", "2"])
        assert "exceeding the cap of 2" in err

    def test_argparse_adds_no_default_of_its_own(self):
        cfg, validate_only = config_from_args(["-g", "o", "--rtg", "r"])
        assert cfg == RunConfig(operations="o", rtg="r")
        assert not validate_only


class TestParser:
    def test_defaults(self):
        args = vars(_build_parser().parse_args(["-g", "o", "--rtg", "r"]))
        assert args == {
            "operations": "o", "trees": None, "rtg": "r", "best_count": 1,
            "definitions": None, "min_nodes": None, "max_nodes": None,
            "required_op": None, "mode": "sample", "seed": 0,
            "out": "./corpus", "result_cap": 10000,
            "instantiation_cap": 10000, "tree_size_bounds": False,
            "per_label": False, "injective_contexts": False,
            "dedup_across_trees": False, "validate": False,
        }

    def test_parallel_flag_is_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["-g", "o", "--rtg", "r", "--parallel"])
        assert exc.value.code == 2
        assert "--parallel" in capsys.readouterr().err

    def test_help_names_the_defaults(self, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit):
            main(["--help"])
        text = " ".join(capsys.readouterr().out.split())
        assert re.findall(r"\bdefault:? ([^)]*)\)", text) == [
            "1", "sample", "0", "./corpus", "10000", "10000"]


class TestValidate:
    def test_symbol_ranks_read_each_node_object_once(self, monkeypatch):
        algebra = parse_operation_file(
            (BENCH_INPUTS / "amr.ops").read_text())
        grammar = parse_rtg((BENCH_INPUTS / "amr.rtg").read_text())
        trees = parse_tree_file(
            "".join(f"{t}\n" for t, _w in n_best_trees(grammar, 3000)))
        visits = []
        real = DerivationTree.walk

        def counted(self, *args):
            for node in real(self, *args):
                visits.append(node)
                yield node

        monkeypatch.setattr(DerivationTree, "walk", counted)
        assert gexpand.cli._symbol_rank_findings(algebra, None, trees) == []
        assert len(visits) == 4_204

    def test_clean_fixture_reports_no_findings(self, inputs, capsys):
        _tmp, ops, trees, _rtg = inputs
        assert main(["-g", str(ops), "-t", str(trees), "--validate"]) == 0
        out = capsys.readouterr().out
        assert "ok: no findings" in out

    def test_missing_operation_is_fatal_finding(self, inputs, capsys):
        tmp, ops, _trees, _rtg = inputs
        trees = tmp / "bad_trees.txt"
        trees.write_text("op9\n")
        assert main(["-g", str(ops), "-t", str(trees), "--validate"]) == 1
        assert "fatal" in capsys.readouterr().out

    def test_r1_violation_reported_as_info(self, inputs, capsys):
        tmp, _ops, trees, _rtg = inputs
        # An operation with an edge between two new nodes violates (R1).
        ops = tmp / "r1_ops.txt"
        ops.write_text(
            "operation op4 {\n"
            '  0 [label="she"];\n'
            '  1 [label="extra"];\n'
            '  0 -> 1 [label="e"];\n'
            "  port 0 1;\n"
            "}\n"
        )
        trees.write_text("op4\n")
        assert main(["-g", str(ops), "-t", str(trees), "--validate"]) == 0
        assert "(R1)" in capsys.readouterr().out

    def test_unsatisfiable_context_label_warned(self, inputs, capsys):
        tmp, _ops, trees, _rtg = inputs
        ops = tmp / "ctx_ops.txt"
        ops.write_text(
            "operation op4 {\n"
            '  0 [label="she"];\n'
            '  1 [label="unicorn"];\n'
            "  port 0;\n"
            "}\n"
        )
        trees.write_text("op4\n")
        assert main(["-g", str(ops), "-t", str(trees), "--validate"]) == 0
        out = capsys.readouterr().out
        assert "unsatisfiable context" in out

    def test_unreachable_and_unproductive_nonterminals(self, inputs, capsys):
        tmp, ops, _trees, _rtg = inputs
        rtg = tmp / "odd.rtg"
        rtg.write_text("S\nS -> op4\nX -> op5\nY -> op1(Y)\n")
        assert main(["-g", str(ops), "--rtg", str(rtg), "--validate"]) == 0
        out = capsys.readouterr().out
        assert "unreachable" in out
        assert "unproductive" in out

    @pytest.mark.parametrize("workload, lines", [
        ("amr", [
            "info: operation 'base' violates (R1): edges "
            "[('0', 'arg0', '1')] do not run from new nodes to old ones",
            "info: operation 'base2' violates (R1): edges "
            "[('0', 'arg0', '1')] do not run from new nodes to old ones",
            "info: operation 'close' violates (R2): forgotten docks ['1'] "
            "have no incoming edge"]),
        ("symmetric", [
            "info: operation 'attach' violates (R1): edges "
            "[('0', 'spoke', '1')] do not run from new nodes to old ones"]),
    ])
    def test_bench_inputs_report(self, workload, lines, capsys):
        argv = ["-g", str(BENCH_INPUTS / f"{workload}.ops"),
                "--rtg", str(BENCH_INPUTS / f"{workload}.rtg"), "--validate"]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines() == lines
        assert captured.err == ""
