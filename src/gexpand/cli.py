"""Command-line pipeline: grammar -> N-best trees -> evaluation ->
label instantiation -> gv corpus on disk.

Either a tree file (-t) or a weighted grammar (--rtg, with -N) feeds
the evaluator; the operation file (-g) is always required.  Each final
graph lands in one gv file named g<tree-index>_<variant-index>.gv next
to a deterministic manifest.json.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from dataclasses import MISSING, asdict, dataclass, fields
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from . import __version__
from .algebra import (
    Algebra,
    ExpansionOperation,
    OperationFileError,
    check_extension,
    parse_operation_file,
)
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
    parse_definitions,
)


@dataclass(frozen=True, kw_only=True)
class RunConfig(EvalConfig):
    """One pipeline run: the evaluation settings it inherits plus the
    inputs and corpus options.  Field names are the argparse
    destinations and the keys of the manifest's ``config`` block; the
    defaults here are the command line's."""

    operations: str
    trees: Optional[str] = None
    rtg: Optional[str] = None
    best_count: int = 1
    definitions: Optional[str] = None
    out: str = "./corpus"
    instantiation_cap: int = 10_000
    per_label: bool = False
    dedup_across_trees: bool = False

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


# What bad inputs or settings make a run raise; ``main`` reports each
# as one ``error:`` line.
_INPUT_ERRORS = (
    ConfigError, OperationFileError, RtgSyntaxError, RankConflictError,
    GvSyntaxError, DefinitionError, BudgetExceededError,
    InstantiationCapError,
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
    p.add_argument("--parallel", action="store_true",
                   help="accepted for compatibility; has no effect (trees "
                        "are evaluated serially)")
    p.add_argument("--validate", action="store_true",
                   help="check the inputs and report findings without "
                        "generating anything")
    p.add_argument("--version", action="version",
                   version=f"%(prog)s {__version__}")
    p.set_defaults(**{f.name: f.default for f in fields(RunConfig)
                      if f.default is not MISSING})
    return p


def config_from_args(argv: Sequence[str]) -> Tuple[RunConfig, bool]:
    args = vars(_build_parser().parse_args(argv))
    del args["parallel"]
    validate_only = args.pop("validate")
    return RunConfig(**args), validate_only


def _read(path: str, what: str) -> str:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"{what} file not found: {path}")
    return p.read_text()


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
        if name not in algebra:
            findings.append(f"fatal: no operation defined for symbol {name!r}")
        elif rank not in algebra.term_ranks(name):
            findings.append(
                f"fatal: symbol {name!r} has rank {rank} but the operation "
                f"allows ranks {algebra.term_ranks(name)}"
            )
    return findings


def validate(cfg: RunConfig) -> Tuple[List[str], bool]:
    """Check the inputs without generating; returns (report lines,
    fatal)."""
    algebra, grammar, trees, _definitions = _load_inputs(cfg)
    report = _symbol_rank_findings(algebra, grammar, trees)
    fatal = any(line.startswith("fatal:") for line in report)

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


def run(cfg: RunConfig) -> int:
    """Execute the pipeline; returns the process exit status.  Faults
    in the inputs raise one of ``_INPUT_ERRORS``."""
    algebra, grammar, trees, definitions = _load_inputs(cfg)

    rank_findings = _symbol_rank_findings(algebra, grammar, trees)
    if rank_findings:
        for line in rank_findings:
            print(f"error: {line}", file=sys.stderr)
        return 1

    all_warnings: List[str] = []
    if grammar is not None:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            best = n_best_trees(grammar, cfg.best_count)
        all_warnings.extend(str(w.message) for w in caught)
        trees = [t for t, _w in best]
        weights = [str(w) for _t, w in best]
    else:
        weights = ["0"] * len(trees)

    outcomes = evaluate_corpus(
        trees, algebra, cfg, dedup_across_trees=cfg.dedup_across_trees)

    # Every instance and its text is built before anything is written,
    # so a cap hit leaves no partial corpus behind.
    files = []
    records = []
    for tree_index, (outcome, weight) in enumerate(zip(outcomes, weights)):
        for diag in outcome.diagnostics:
            all_warnings.append(f"tree {tree_index}: {diag}")
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
                filename = f"g{tree_index}_{variant}.gv"
                files.append((filename, emit_gv(inst)))
                records.append(
                    {
                        "file": filename,
                        "tree_index": tree_index,
                        "variant": variant,
                        "tree": source,
                        "tree_weight": weight,
                        "nodes": len(inst.nodes),
                        "edges": len(inst.edges),
                    }
                )
                variant += 1

    config = asdict(cfg)
    del config["out"]
    if cfg.rtg is None:
        config["best_count"] = None  # -N only applies to --rtg
    manifest = {
        "tool": "gexpand",
        "version": __version__,
        "config": config,
        "warnings": all_warnings,
        "graphs": records,
    }
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for filename, text in files:
        (out_dir / filename).write_text(text)
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )
    for line in all_warnings:
        print(f"warning: {line}", file=sys.stderr)
    print(f"wrote {len(records)} graph(s) to {out_dir}")
    return 0


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
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for line in report:
        print(line)
    if not report:
        print("ok: no findings")
    return 1 if fatal else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
