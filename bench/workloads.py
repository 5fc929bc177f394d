"""Benchmark workloads: committed inputs plus the seed -> input rule.

Seed 0 gives the committed inputs unchanged.  Any other seed scales
every non-zero rule weight of the grammar by a factor drawn uniformly
from [1 - JITTER, 1 + JITTER].  That breaks the many weight ties of the
grammars differently, so the N-best tree set (or, on ``symmetric``, the
tree order) differs from seed to seed, while the amount of work stays
about the same.  Sample mode also passes the seed to the CLI as
``--seed``.
"""

from __future__ import annotations

import random
import re
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional

INPUTS = Path(__file__).resolve().parent / "inputs"

# Small enough that the jitter only moves trees within, or between
# neighbouring, weight classes of the grammar: on the amr grammar the 740
# best trees are the 730 of weight at most 8 plus 10 of the 416 of weight
# 8.5, and on symmetric the 8-leaf star and the 36-node path never enter
# the 43 best trees.  Seeds thus change a few trees (on symmetric, only
# the order) and the corpus size by about 1 %.
JITTER = 0.01

_WEIGHT = re.compile(r"^(?P<rule>.*->.*#\s*)(?P<weight>[0-9.]+)\s*$")


@dataclass(frozen=True)
class Workload:
    """A workload; BENCHMARK.json and README.md say why it was chosen."""

    name: str
    ops: str
    rtg: str
    trees: int
    smoke_trees: int
    mode: str
    defs: Optional[str] = None


WORKLOADS = {
    w.name: w
    for w in (
        Workload("amr-enumerate", "amr.ops", "amr.rtg", trees=740,
                 smoke_trees=30, mode="enumerate"),
        Workload("amr-sample-defs", "amr.ops", "amr.rtg", trees=740,
                 smoke_trees=30, mode="sample", defs="amr.defs"),
        Workload("symmetric", "symmetric.ops", "symmetric.rtg", trees=43,
                 smoke_trees=12, mode="enumerate"),
    )
}


def jitter_rtg(text: str, seed: int) -> str:
    """The rtg text with every non-zero rule weight jittered by seed."""
    if seed == 0:
        return text
    rng = random.Random(seed)
    out = []
    for line in text.splitlines():
        m = _WEIGHT.match(line)
        if m and float(m.group("weight")) != 0:
            w = float(m.group("weight")) * rng.uniform(1 - JITTER, 1 + JITTER)
            line = f"{m.group('rule')}{w:.4f}"
        out.append(line)
    return "\n".join(out) + "\n"


@dataclass(frozen=True)
class Inputs:
    """One workload's input files for one seed, and the CLI arguments
    that use them (paths relative to the checkout root)."""

    workload: Workload
    seed: int
    trees: int
    ops: str
    rtg: str
    defs: Optional[str]

    def cli_args(self, out_dir: str) -> List[str]:
        args = ["-g", self.ops, "--rtg", self.rtg, "-N", str(self.trees),
                "--mode", self.workload.mode]
        if self.workload.mode == "sample":
            args += ["--seed", str(self.seed)]
        if self.defs is not None:
            args += ["-d", self.defs]
        return args + ["--out", out_dir]


def prepare(w: Workload, seed: int, trees: int, root: Path, work: Path) -> Inputs:
    """Write the inputs for (workload, seed) under ``work``."""
    work.mkdir(parents=True, exist_ok=True)
    ops = work / w.ops
    shutil.copyfile(INPUTS / w.ops, ops)
    rtg = work / w.rtg
    rtg.write_text(jitter_rtg((INPUTS / w.rtg).read_text(), seed))
    defs = None
    if w.defs is not None:
        defs = work / w.defs
        shutil.copyfile(INPUTS / w.defs, defs)
    rel = lambda p: str(p.relative_to(root))  # noqa: E731
    return Inputs(w, seed, trees, rel(ops), rel(rtg),
                  None if defs is None else rel(defs))
