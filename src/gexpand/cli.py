"""Command-line pipeline: grammar -> N-best trees -> evaluation ->
label instantiation -> gv corpus on disk.

Either a tree file (-t) or a weighted grammar (--rtg, with -N) feeds
the evaluator; the operation file (-g) is always required.  Each final
graph lands in one gv file named g<tree-index>_<variant-index>.gv next
to a deterministic manifest.json.  The ``Corpus`` of ``corpus`` names
and writes them; the run opens it once every check that can stop the
run has passed, and hands it each graph's gv text as it is built.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings
from pathlib import Path
from typing import List, NoReturn, Optional, Sequence, Tuple

from . import __version__
from .algebra import (
    Algebra,
    ExpansionOperation,
    OperationFileError,
    check_extension,
    parse_operation_file,
)
from .corpus import Corpus, CorpusWriteError
from .evaluator import EvalConfig, evaluate_corpus
from .grammar import (
    BudgetExceededError,
    DerivationTree,
    RankConflictError,
    RtgSyntaxError,
    WeightedRtg,
    _best_completions,
    n_best_trees,
    parse_rtg,
    parse_tree_file,
    reachable_nonterminals,
)
from .gvio import GvSyntaxError, emit_gv
from .substitution import (
    DefinitionError,
    DefinitionTable,
    InstantiationCapError,
    instantiate_all,
    instantiation_count,
    parse_definitions,
)


class RunConfig(EvalConfig, kw_only=True):
    """One pipeline run: the evaluation settings it inherits plus the
    inputs and corpus options, which are keyword-only and, but for
    ``operations``, have defaults.  Field names are the argparse
    destinations and the keys of the manifest's ``config`` block; the
    defaults here are the command line's."""

    __slots__ = ("operations", "trees", "rtg", "best_count", "definitions",
                 "out", "instantiation_cap", "per_label")
    _defaults = {"trees": None, "rtg": None, "best_count": 1,
                 "definitions": None, "out": "./corpus",
                 "instantiation_cap": 10_000, "per_label": False}

    def __post_init__(self) -> None:
        super().__post_init__()
        if (self.trees is None) == (self.rtg is None):
            raise ValueError("exactly one of -t and --rtg must be given")
        if self.rtg is not None and self.best_count < 1:
            raise ValueError("-N must be at least 1")
        if self.instantiation_cap < 1:
            raise ValueError("--instantiation-cap must be at least 1")


class ConfigError(ValueError):
    pass


# What bad inputs or settings, or an output directory that cannot be
# written, make a run raise; ``main`` reports each line of the message,
# one finding a line, as one ``error:`` line.
_INPUT_ERRORS = (
    ConfigError, OperationFileError, RtgSyntaxError, RankConflictError,
    GvSyntaxError, DefinitionError, BudgetExceededError,
    InstantiationCapError, CorpusWriteError,
)


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="gexpand",
        description=(
            "Generate a corpus of semantic graphs from a graph expansion "
            "grammar: a weighted regular tree grammar plus a file of "
            "graph operations."
        ),
    )
    p.add_argument("-g", "--operations", required=True, metavar="FILE",
                   help="operation file defining the graph algebra (mandatory)")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("-t", "--trees", metavar="FILE",
                     help="file of derivation trees, one per line")
    src.add_argument("--rtg", metavar="FILE",
                     help="weighted regular tree grammar in rtg format")
    p.add_argument("-N", "--best", dest="best_count", type=int, metavar="N",
                   help="number of best trees to extract from the grammar "
                        "(with --rtg; default %(default)s)")
    p.add_argument("-d", "--definitions", metavar="FILE",
                   help="definition file of one-to-many label replacements")
    p.add_argument("-L", "--min-nodes", type=int, metavar="N",
                   help="minimum number of nodes in a generated graph")
    p.add_argument("-H", "--max-nodes", type=int, metavar="N",
                   help="maximum number of nodes in a generated graph")
    p.add_argument("-k", "--required-op", metavar="NAME",
                   help="only keep graphs whose derivation uses this "
                        "operation at least once")
    p.add_argument("--mode", choices=("enumerate", "sample"),
                   help="emit all context choices per tree, or one seeded "
                        "sample (default: %(default)s)")
    p.add_argument("--seed", type=int,
                   help="seed for sample mode (default %(default)s)")
    p.add_argument("--out", metavar="DIR",
                   help="output directory (default %(default)s)")
    p.add_argument("--result-cap", type=int,
                   help="in enumerate mode, report an error for a tree "
                        "that yields a graph inside the bounds and has an "
                        "intermediate set of more graphs than this "
                        "(default %(default)s)")
    p.add_argument("--instantiation-cap", type=int,
                   help="per-graph cap on definition-file combinations "
                        "(default %(default)s)")
    p.add_argument("--tree-size-bounds", action="store_true",
                   help="apply -L/-H to derivation tree node counts "
                        "instead of graph node counts")
    p.add_argument("--per-label", action="store_true",
                   help="couple all occurrences of one abstract label to "
                        "the same replacement")
    p.add_argument("--injective-contexts", action="store_true",
                   help="forbid two context nodes from mapping to the same "
                        "argument node")
    p.add_argument("--dedup-across-trees", action="store_true",
                   help="drop graphs isomorphic to one emitted for an "
                        "earlier tree")
    p.add_argument("--validate", action="store_true",
                   help="check the inputs and report findings without "
                        "generating anything")
    p.add_argument("--version", action="version",
                   version=f"%(prog)s {__version__}")
    p.set_defaults(**RunConfig._defaults)
    return p


def config_from_args(argv: Sequence[str]) -> Tuple[RunConfig, bool]:
    args = vars(_build_parser().parse_args(argv))
    validate_only = args.pop("validate")
    return RunConfig(**args), validate_only


def _read(path: str, what: str) -> str:
    """The text of an input file, decoded as UTF-8 whatever the locale:
    the encoding the corpus is written in."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ConfigError(f"{what} file not found: {path}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{what} file is not UTF-8: {path}: {exc.reason} "
                          f"at byte {exc.start}") from None
    except OSError as exc:
        raise ConfigError(f"{what} file cannot be read: {path}: "
                          f"{exc.strerror or exc}") from None


def _load_inputs(cfg: RunConfig):
    algebra = parse_operation_file(_read(cfg.operations, "operation"))
    grammar: Optional[WeightedRtg] = None
    trees: Optional[List[DerivationTree]] = None
    if cfg.rtg is not None:
        grammar = parse_rtg(_read(cfg.rtg, "grammar"))
    else:
        trees = parse_tree_file(_read(cfg.trees, "tree"))
    definitions: Optional[DefinitionTable] = None
    if cfg.definitions is not None:
        definitions = parse_definitions(_read(cfg.definitions, "definition"))
    return algebra, grammar, trees, definitions


def _symbol_rank_findings(
    algebra: Algebra, grammar: Optional[WeightedRtg], trees
) -> List[str]:
    findings = []
    if grammar is not None:
        symbol_ranks = grammar.terminals
    else:
        # ``parse_tree_file`` made the ranks consistent and shares
        # equal subtrees, so each node object is read once.
        symbol_ranks = {}
        seen: set = set()
        for t in trees or []:
            for node in t.walk(seen):
                symbol_ranks[node.label] = node.rank
    for name, rank in sorted(symbol_ranks.items()):
        fault = algebra.fault(name, rank)
        if fault is not None:
            findings.append(f"fatal: {fault}")
    return findings


def validate(cfg: RunConfig) -> Tuple[List[str], bool]:
    """Check the inputs without generating; returns (report lines,
    fatal)."""
    algebra, grammar, trees, _definitions = _load_inputs(cfg)
    report = _symbol_rank_findings(algebra, grammar, trees)
    fatal = bool(report)  # every symbol-rank finding is fatal

    producible = template_labels_producible(algebra)
    for name in sorted(algebra.operations):
        op = algebra.operations[name]
        if not isinstance(op, ExpansionOperation):
            continue
        ext = check_extension(op)
        if not ext.r1:
            report.append(
                f"info: operation {name!r} violates (R1): edges "
                f"{list(ext.r1_violations)} do not run from new nodes to "
                f"old ones"
            )
        if not ext.r2:
            report.append(
                f"info: operation {name!r} violates (R2): forgotten docks "
                f"{list(ext.r2_violations)} have no incoming edge"
            )
        missing = sorted(
            {op.template.labels[u] for u in op.context} - producible
        )
        if missing:
            report.append(
                f"warning: operation {name!r} has unsatisfiable context "
                f"labels {missing}; every tree using it will contribute "
                f"zero graphs"
            )

    if grammar is not None:
        best = _best_completions(grammar)
        dead = sorted(a for a, pair in best.items() if pair is None)
        if dead:
            report.append(f"info: unproductive nonterminals: {dead}")
        unreachable = sorted(
            grammar.nonterminals - reachable_nonterminals(grammar))
        if unreachable:
            report.append(f"info: unreachable nonterminals: {unreachable}")
    return report, fatal


def template_labels_producible(algebra: Algebra) -> set:
    """Node labels that some operation can materialize.

    Context nodes are excluded: they only fuse with nodes the argument
    graph already contains, so they never introduce their label.
    """
    labels = set()
    for op in algebra.operations.values():
        if isinstance(op, ExpansionOperation):
            context = set(op.context)
            labels.update(
                lab
                for v, lab in op.template.labels.items()
                if lab is not None and v not in context
            )
    return labels


def _write_out(text: str, status: int) -> int:
    """Write ``text`` to stdout and return ``status``, or 120 as in
    ``entry``: unbuffered stdout fails here, buffered at its flush."""
    try:
        sys.stdout.write(text)
    except OSError as exc:
        return _cannot_write(sys.stdout, exc)
    return status


def _cannot_write(stream, exc: OSError) -> int:
    """Report that ``stream`` cannot be written; returns status 120."""
    try:
        print(f"error: cannot write to {stream.name}: {exc}",
              file=sys.stderr, flush=True)
    except OSError:
        pass  # stderr itself cannot be written
    return 120


def run(cfg: RunConfig) -> int:
    """Execute the pipeline; returns the process exit status.  Faults
    in the inputs and an unwritable corpus raise one of
    ``_INPUT_ERRORS``."""
    algebra, grammar, trees, definitions = _load_inputs(cfg)

    rank_findings = _symbol_rank_findings(algebra, grammar, trees)
    if rank_findings:
        raise ConfigError("\n".join(rank_findings))

    all_warnings: List[str] = []
    if grammar is not None:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            best = n_best_trees(grammar, cfg.best_count)
        all_warnings.extend(str(w.message) for w in caught)
        trees = [t for t, _w in best]
        weights = [str(w) for _t, w in best]
        del best
    else:
        weights = ["0"] * len(trees)

    outcomes = evaluate_corpus(trees, algebra, cfg)
    del trees

    if definitions is not None:
        for outcome in outcomes:
            for g in outcome.graphs:
                count = instantiation_count(g, definitions, cfg.per_label)
                if count > cfg.instantiation_cap:
                    raise InstantiationCapError(count, cfg.instantiation_cap)

    # Each outcome is popped, and so let go, once its files are written;
    # the list ``evaluate_corpus`` returned is left as it was.
    pending = outcomes[::-1]
    del outcomes
    # Every check that can stop the run has passed: the corpus opens.
    with Corpus(cfg.out) as corpus:
        for tree_index, weight in enumerate(weights):
            outcome = pending.pop()
            for diag in outcome.diagnostics:
                all_warnings.append(f"tree {tree_index}: {diag}")
            if not outcome.graphs:
                continue
            source = outcome.source_tree.serialize()
            variant = 0
            for g in outcome.graphs:
                if definitions is None:
                    instances = [g]
                else:
                    instances = instantiate_all(g, definitions,
                                                per_label=cfg.per_label,
                                                cap=cfg.instantiation_cap)
                for inst in instances:
                    corpus.add(emit_gv(inst), tree_index, variant, source,
                               weight, len(inst.nodes), len(inst.edges))
                    variant += 1
        config = cfg.asdict()
        del config["out"]
        if cfg.rtg is None:
            config["best_count"] = None  # -N only applies to --rtg
        count = corpus.write_manifest(config, all_warnings)
    sys.stderr.write("".join(f"warning: {line}\n" for line in all_warnings))
    return _write_out(f"wrote {count} graph(s) to {Path(cfg.out)}\n", 0)


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        cfg, validate_only = config_from_args(
            sys.argv[1:] if argv is None else argv
        )
    except ValueError as exc:
        # Every config check fires here, before any file is touched.
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        if not validate_only:
            return run(cfg)
        report, fatal = validate(cfg)
    except _INPUT_ERRORS as exc:
        sys.stderr.write("".join(f"error: {line}\n"
                                 for line in str(exc).split("\n")))
        return 1
    # Symbols come from UTF-8 files, so a report line may hold characters
    # that stdout's encoding cannot write: escape them, as stderr does.
    encoding = sys.stdout.encoding or "utf-8"
    text = "".join(f"{line}\n" for line in report or ["ok: no findings"])
    return _write_out(text.encode(encoding, "backslashreplace")
                      .decode(encoding), 1 if fatal else 0)


def entry() -> NoReturn:
    """The ``gexpand`` command: ``main``, then flush stdout and stderr
    and leave through ``os._exit``, so that no ``atexit`` handler,
    finalizer, garbage collection or module teardown runs.  A flush
    that fails ends the process with status 120, as the interpreter's
    own exit does.  ``SystemExit`` from the parser (``--help``, usage
    errors) and uncaught exceptions leave through the interpreter."""
    status = main()
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except OSError as exc:
            status = _cannot_write(stream, exc)
    os._exit(status)


if __name__ == "__main__":  # pragma: no cover
    entry()
