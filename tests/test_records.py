"""The package's immutable records and what the command line loads.

Every record class keeps the constructor, checks, immutability,
equality and hashing it had as a frozen dataclass, and importing or
running the package loads neither ``dataclasses``, ``inspect`` nor
``json``: the manifest is escaped by ``_json``'s C function.  No run
loads ``hashlib`` where the interpreter has its builtin SHA-256
module (``_sha2`` or ``_sha256``): sample draws hash with that module,
which maps no OpenSSL library and gives the digests of
``hashlib.sha256``.
"""

import copy
import hashlib
import importlib.util
import inspect
import pickle
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import gexpand
from gexpand import (
    Algebra,
    DefinitionTable,
    DerivationTree,
    EmptyConstant,
    EvalConfig,
    EvalOutcome,
    ExpansionOperation,
    ExtensionReport,
    Graph,
    Production,
    UnionOperation,
    WeightedRtg,
    evaluate,
    is_isomorphic,
    parse_operation_file,
    parse_tree,
    tree,
)
from gexpand.cli import RunConfig
from gexpand.evaluator import ConfigError, _builtin_sha256
from fixtures import (
    BRANCHING_OPS,
    BRANCHING_TREE_TEXT,
    RUNNING_GRAMMAR,
    RUNNING_OPS,
    RUNNING_TREE_TEXT,
    running_result_graph,
)

BENCH_INPUTS = Path(__file__).resolve().parents[1] / "bench" / "inputs"

CHILD = """\
import sys

WATCHED = ("dataclasses", "inspect", "hashlib", "json", "threading", "queue")


def loaded():
    return [m for m in WATCHED if m in sys.modules]


seen = [loaded()]
import gexpand
seen.append(loaded())
import gexpand.cli
seen.append(loaded())
draws = []
real_draw = gexpand.evaluator._draw
gexpand.evaluator._draw = lambda *key: draws.append(key) or real_draw(*key)
status = gexpand.cli.main(sys.argv[1:])
seen.append(loaded())
print(repr((status, seen, len(draws))))
"""

BUILTIN_SHA256 = any(importlib.util.find_spec(name)
                     for name in ("_sha2", "_sha256"))


@pytest.mark.parametrize("ops,mode_args,draws", [
    (RUNNING_OPS, ["--rtg", "{rtg}", "-N", "3", "--mode", "enumerate"], 0),
    # Every context node of the running tree has one candidate, so
    # sample mode draws nothing.
    (RUNNING_OPS, ["-t", "{trees}", "--mode", "sample"], 0),
    # The root of the branching tree draws between two c-nodes.
    (BRANCHING_OPS, ["-t", "{branching}", "--mode", "sample"], 1),
], ids=["enumerate", "sample-without-draws", "sample-with-draws"])
def test_cli_start_up_loads_no_dataclasses_inspect_or_hashlib(
        tmp_path, ops, mode_args, draws):
    if draws and not BUILTIN_SHA256:
        pytest.skip("this interpreter has no builtin SHA-256 module")
    paths = {"ops": tmp_path / "ops.txt", "rtg": tmp_path / "grammar.rtg",
             "trees": tmp_path / "trees.txt",
             "branching": tmp_path / "branching.txt",
             "defs": tmp_path / "defs.txt"}
    paths["ops"].write_text(ops)
    paths["rtg"].write_text(RUNNING_GRAMMAR)
    paths["trees"].write_text(RUNNING_TREE_TEXT)
    paths["branching"].write_text(BRANCHING_TREE_TEXT)
    paths["defs"].write_text("she: she, he\nc: c, d\n")
    src = Path(gexpand.__file__).resolve().parents[1]
    out = tmp_path / "corpus"
    # -S keeps modules that site hooks load out of the picture, and the
    # child leaves no bytecode in the source tree.
    result = subprocess.run(
        [sys.executable, "-S", "-c", CHILD, "-g", str(paths["ops"]),
         *[a.format(**paths) for a in mode_args], "-d", str(paths["defs"]),
         "--out", str(out)],
        env={"PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == repr(
        (0, [[], [], [], []], draws))
    assert (out / "g0_1.gv").is_file()


@pytest.mark.parametrize("seed", [0, 1, 2**40])
def test_draws_hash_with_the_digests_of_hashlib(seed):
    sha256 = _builtin_sha256()
    if BUILTIN_SHA256:
        assert sha256.__module__ in ("_sha2", "_sha256")
    for tree_index, path in [(0, ""), (7, "0.1"), (12_345, "0.0.0.1.0")]:
        for ctx_index in range(3):
            key = f"{seed}|{tree_index}|{path}|{ctx_index}".encode()
            assert sha256(key).digest() == hashlib.sha256(key).digest()


def small_records():
    """One record of each class but the configs, and a different one."""
    return [
        (Production("S", "f", ("S",), Fraction(1)),
         Production("S", "f", ("S",))),
        (WeightedRtg(frozenset({"S"}), {"a": 0},
                     (Production("S", "a", ()),), "S"),
         WeightedRtg(frozenset({"S"}), {"a": 0}, (), "S")),
        (tree("f", tree("a")), tree("f", tree("b"))),
        (UnionOperation("u", 1, 2), UnionOperation("u", 2, 1)),
        (EmptyConstant("e"), EmptyConstant("z")),
        (ExtensionReport((), ("d",)), ExtensionReport((), ())),
        (DefinitionTable({"she": ("she", "he")}),
         DefinitionTable({"she": ("he",)})),
        (EvalOutcome(tree("a"), (), ("x",)), EvalOutcome(tree("a"), ())),
        (EvalConfig(), EvalConfig(seed=1)),
        (RunConfig(operations="o", rtg="r"),
         RunConfig(operations="o", trees="t")),
    ]


@pytest.mark.parametrize("record,other", small_records(),
                         ids=lambda r: type(r).__name__)
class TestRecord:
    def test_equality_is_by_field_values(self, record, other):
        copy = pickle.loads(pickle.dumps(record))
        assert copy == record and copy is not record
        assert record != other
        assert record != object()

    def test_hash_follows_equality(self, record, other):
        try:
            h = hash(record)
        except TypeError:
            # A record with a dict field is unhashable, as it was.
            assert any(isinstance(v, dict) for v in record.asdict().values())
            return
        assert hash(pickle.loads(pickle.dumps(record))) == h

    def test_assignment_raises(self, record, other):
        name = record._fields[0]
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(other, name))
        with pytest.raises(AttributeError):
            delattr(record, name)
        with pytest.raises(AttributeError):
            record.extra = 1


def copies(value):
    """``value`` through pickle, ``copy.copy`` and ``copy.deepcopy``."""
    return [pickle.loads(pickle.dumps(value)), copy.copy(value),
            copy.deepcopy(value)]


def assert_same_graph(copied, g):
    """Equal fields and isomorphic: graphs compare by identity."""
    assert (copied.edges, copied.labels, copied.ports) == (
        g.edges, g.labels, g.ports)
    assert is_isomorphic(copied, g)


def assert_same_operation(copied, op):
    if not isinstance(op, ExpansionOperation):
        assert copied == op
        return
    assert copied.__class__ is op.__class__
    assert (copied.name, copied.docks, copied.context) == (
        op.name, op.docks, op.context)
    assert_same_graph(copied.template, op.template)


class TestCopies:
    """Graphs, and the records that hold graphs, pickle and copy."""

    def test_graph(self):
        g = running_result_graph()
        for copied in copies(g):
            assert copied is not g
            assert_same_graph(copied, g)

    @pytest.mark.parametrize("name", ["op1", "op2", "op3", "op4"])
    def test_running_operation(self, name):
        op = parse_operation_file(RUNNING_OPS)[name]
        for copied in copies(op):
            assert_same_operation(copied, op)

    def test_empty_constant_copies_share_its_template(self):
        for copied in copies(EmptyConstant("nil")):
            assert copied == EmptyConstant("nil")

    def test_amr_algebra(self):
        algebra = parse_operation_file((BENCH_INPUTS / "amr.ops").read_text())
        for copied in copies(algebra):
            assert list(copied.operations) == list(algebra.operations)
            for name, op in algebra.operations.items():
                assert_same_operation(copied[name], op)

    def test_outcome(self):
        outcome = evaluate(parse_tree(RUNNING_TREE_TEXT),
                           parse_operation_file(RUNNING_OPS), EvalConfig())
        assert len(outcome.graphs) == 1
        for copied in copies(outcome):
            assert copied.source_tree == outcome.source_tree
            assert copied.diagnostics == outcome.diagnostics
            assert len(copied.graphs) == 1
            assert_same_graph(copied.graphs[0], outcome.graphs[0])


def test_operation_checks_and_context_survive():
    algebra = parse_operation_file(RUNNING_OPS)
    assert isinstance(algebra, Algebra)
    op = algebra["op2"]
    assert op.replace() == op and op.replace().context == op.context
    with pytest.raises(gexpand.OperationFileError, match="is not a template"):
        op.replace(docks=("nowhere",))


def test_each_fact_is_one_field():
    # The nodes are the label keys, the node order the template's, and
    # whether (R1) and (R2) hold is whether nothing violates them.
    assert list(inspect.signature(Graph).parameters) == [
        "edges", "labels", "ports"]
    assert ExpansionOperation._fields == ("name", "template", "docks")
    assert ExtensionReport._fields == ("r1_violations", "r2_violations")


def test_production_checks_its_weight():
    with pytest.raises(ValueError, match="non-negative"):
        Production("S", "a", (), Fraction(-1))


def test_config_signatures():
    defaults = {"mode": "sample", "seed": 0, "result_cap": 10_000,
                "min_nodes": None, "max_nodes": None, "required_op": None,
                "tree_size_bounds": False, "injective_contexts": False,
                "dedup_across_trees": False}
    params = inspect.signature(EvalConfig).parameters
    assert {n: p.default for n, p in params.items()} == defaults
    assert {p.kind for p in params.values()} == {
        inspect.Parameter.POSITIONAL_OR_KEYWORD}
    params = inspect.signature(RunConfig).parameters
    kw_only = {n: p.default for n, p in params.items()
               if p.kind is inspect.Parameter.KEYWORD_ONLY}
    assert kw_only == {
        "operations": inspect.Parameter.empty, "trees": None, "rtg": None,
        "best_count": 1, "definitions": None, "out": "./corpus",
        "instantiation_cap": 10_000, "per_label": False}
    assert list(params)[:len(defaults)] == list(defaults)
    assert RunConfig.__match_args__ == EvalConfig.__match_args__ == tuple(
        defaults)


def test_run_config_arguments():
    cfg = RunConfig("enumerate", 3, operations="o", rtg="r")
    assert (cfg.mode, cfg.seed, cfg.best_count) == ("enumerate", 3, 1)
    with pytest.raises(TypeError):
        RunConfig(rtg="r")
    with pytest.raises(TypeError):
        RunConfig(*EvalConfig().asdict().values(), "o", rtg="r")
    with pytest.raises(TypeError):
        EvalConfig(colour="red")
    with pytest.raises(ValueError, match="exactly one of -t and --rtg"):
        RunConfig(operations="o")


@pytest.mark.parametrize("make, message", [
    (lambda: EvalConfig(result_cap=0), "--result-cap 0"),
    (lambda: EvalConfig(min_nodes=5, max_nodes=3), "-L/--min-nodes 5"),
    (lambda: EvalConfig(mode="all"), "bad mode: 'all'"),
    (lambda: RunConfig(operations="o"), "exactly one of -t and --rtg"),
    (lambda: RunConfig(operations="o", rtg="r", best_count=0),
     "-N must be at least 1"),
    (lambda: RunConfig(operations="o", rtg="r", instantiation_cap=0),
     "--instantiation-cap must be at least 1"),
], ids=["result_cap", "bounds", "mode", "source", "best_count",
        "instantiation_cap"])
def test_bad_setting_raises_config_error(make, message):
    """A bad setting is an input error, a ``ValueError`` still, and the
    CLI's ``ConfigError`` is the same class."""
    assert gexpand.cli.ConfigError is ConfigError
    assert issubclass(ConfigError, ValueError)
    with pytest.raises(ConfigError, match=re.escape(message)):
        make()


def test_replace_and_asdict():
    cfg = RunConfig(operations="o", rtg="r")
    assert list(cfg.asdict()) == [*EvalConfig().asdict(), "operations",
                                  "trees", "rtg", "best_count", "definitions",
                                  "out", "instantiation_cap", "per_label"]
    changed = cfg.replace(seed=5)
    assert type(changed) is RunConfig and changed.seed == 5
    assert changed.replace(seed=0) == cfg
    with pytest.raises(ValueError, match="--result-cap 0"):
        cfg.replace(result_cap=0)
    with pytest.raises(TypeError):
        cfg.replace(colour="red")


def test_repr():
    assert repr(EvalConfig()) == (
        "EvalConfig(mode='sample', seed=0, result_cap=10000, "
        "min_nodes=None, max_nodes=None, required_op=None, "
        "tree_size_bounds=False, injective_contexts=False, "
        "dedup_across_trees=False)")
    assert repr(Production("S", "a", ())) == (
        "Production(lhs='S', symbol='a', rhs=(), weight=Fraction(0, 1))")
    assert repr(tree("f", tree("a"))) == "DerivationTree(f(a))"


def test_derivation_tree_keeps_its_positional_children():
    assert DerivationTree("f", (tree("a"),)) == tree("f", tree("a"))
    assert DerivationTree("a").children == ()
    assert str(inspect.signature(DerivationTree)) == "(label, children=())"
