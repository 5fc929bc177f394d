"""Golden corpus digests: the same inputs must keep giving the same bytes.

Each case runs the CLI from a fresh working directory with relative
paths, so the paths recorded in ``manifest.json`` do not depend on where
the test runs.  A case's digest is one sha256 over the sorted
(file name, file bytes) pairs of the output directory, manifest
included; a ``--validate`` case hashes its exit status and stdout.
A digest may change only together with a version bump and a
changelog entry that says which output changed.
"""

import hashlib
import re
from pathlib import Path

import pytest

import gexpand
from gexpand.cli import main

# A small copy of the AMR-style workload in the ROADMAP appendix.
AMR_OPS = """\
operation base {
  0 [label="sleep"];
  1 [label="she"];
  0 -> 1 [label="arg0"];
  port 0 1;
}
operation base2 {
  0 [label="run"];
  1 [label="they"];
  0 -> 1 [label="arg0"];
  port 0 1;
}
operation close {
  0;
  1;
  port 0;
  dock 0 1;
}
operation bel {
  0 [label="believe"];
  1;
  2 [label="she"];
  0 -> 1 [label="arg1"];
  0 -> 2 [label="arg0"];
  port 0;
  dock 1;
}
operation tell {
  0 [label="tell"];
  1;
  2 [label="they"];
  3 [label="she"];
  0 -> 1 [label="arg1"];
  0 -> 2 [label="arg0"];
  0 -> 3 [label="arg2"];
  port 0;
  dock 1;
}
operation and { 1 1 }
operation conj {
  0 [label="and"];
  1;
  2;
  0 -> 1 [label="op1"];
  0 -> 2 [label="op2"];
  port 0;
  dock 1 2;
}
"""

AMR_RTG = """\
S
S -> bel(S) # 1
S -> tell(S) # 1.5
S -> conj(P) # 2
S -> close(B) # 1
P -> and(S S) # 0
B -> base # 0
B -> base2 # 0
"""

AMR_DEFS = """\
she: woman, girl
they: people, children
"""

# Trees with graphs, with zero-result diagnostics, and with a union.
AMR_TREES = """\
bel(close(base))
tell(close(base))
tell(bel(close(base2)))
conj(and(close(base) close(base2)))
tell(conj(and(bel(close(base)) close(base2))))
bel(conj(and(close(base2) tell(close(base)))))
"""

# A copy of the symmetric workload: stars and paths, whose canonical
# labelling has many ties.
SYMMETRIC_OPS = """\
// Stars and paths: graphs whose canonical labelling is costly.
// A star is a hub with k interchangeable leaves (k! search branches);
// a path is a chain grown from a start node.
operation hub {
  0 [label="hub"];
  port 0;
}
operation leaf {
  0 [label="leaf"];
  port 0;
}
operation and { 1 1 }
operation attach {
  0;
  1;
  0 -> 1 [label="spoke"];
  port 0;
  dock 0 1;
}
operation start {
  0 [label="node"];
  port 0;
}
operation ext {
  0 [label="node"];
  1;
  0 -> 1 [label="next"];
  port 0;
  dock 1;
}
"""

SYMMETRIC_RTG = """\
S
S -> attach(Q) # 4.6
S -> hub # 0
S -> ext(P) # 1
S -> start # 0
Q -> and(H L) # 0
H -> attach(Q) # 4.6
H -> hub # 0
L -> leaf # 0
P -> ext(P) # 1
P -> start # 0
"""

GRAMMAR = ["-g", "amr.ops", "--rtg", "amr.rtg", "-N", "80"]

CASES = {
    "enumerate": (
        GRAMMAR + ["--mode", "enumerate"],
        "770f4b1bd67c1de4b0b0e3f35314242ff1eb1366366b851067c38cd617b30047",
    ),
    "sample-defs": (
        GRAMMAR + ["--mode", "sample", "--seed", "7", "-d", "amr.defs"],
        "1f6e58c7e45d5e5ae35a17e74af4b651729f9cb4857b0f5a622e19bf614255f2",
    ),
    "sample-injective-bounds-required": (
        GRAMMAR + ["--mode", "sample", "--injective-contexts",
                   "-L", "3", "-H", "9", "-k", "tell"],
        "dd1b5d7298e0fcbd137a383110cabd4389b668a93977a79f538fe33c3b79584b",
    ),
    "enumerate-tree-bounds-dedup-per-label": (
        GRAMMAR + ["--mode", "enumerate", "--tree-size-bounds",
                   "-L", "2", "-H", "8", "--dedup-across-trees",
                   "--per-label", "-d", "amr.defs"],
        "e5cb5a109c1321d6d049e0939a5968582ba3ffea37a8e2eb14d3caf8baf7466b",
    ),
    "symmetric": (
        ["-g", "symmetric.ops", "--rtg", "symmetric.rtg", "-N", "43",
         "--mode", "enumerate"],
        "70f53cf1a8286bf554b540f86280c826f7e63998ce840ba9686c7812b3fcf9b6",
    ),
    "tree-file": (
        ["-g", "amr.ops", "-t", "amr.trees", "--mode", "enumerate"],
        "6759b4106bc0b06b5038a14e0fd7f6342a6110a646417ed0bc576451c72b7f18",
    ),
}

# Validation findings: the appendix inputs, a grammar with unproductive
# and unreachable nonterminals, and a tree file with a fatal symbol.
VALIDATE_CASES = {
    "grammar": (
        GRAMMAR,
        "497e8eb8f4941e979976522a468b7fdce54f27b48762e02f1c222d9bdbef12d1",
    ),
    "dead-nonterminals": (
        ["-g", "amr.ops", "--rtg", "dead.rtg"],
        "ca563db4042595bb73f88e5353473908af96207921f55a2ddfc875dc6caa931f",
    ),
    "tree-file": (
        ["-g", "amr.ops", "-t", "bad.trees"],
        "512e9ad17be39d6f885f0e8937ed0a268beb0cb24acb9d235aa7fd9b37852bd9",
    ),
}


def digest(pairs):
    h = hashlib.sha256()
    for name, data in sorted(pairs):
        for part in (name.encode(), data):
            h.update(len(part).to_bytes(8, "big"))
            h.update(part)
    return h.hexdigest()


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    for name, text in [("amr.ops", AMR_OPS), ("amr.rtg", AMR_RTG),
                       ("amr.defs", AMR_DEFS), ("amr.trees", AMR_TREES),
                       ("symmetric.ops", SYMMETRIC_OPS),
                       ("symmetric.rtg", SYMMETRIC_RTG)]:
        (tmp_path / name).write_text(text)
    (tmp_path / "dead.rtg").write_text(
        AMR_RTG + "S -> tell(D) # 1\nD -> bel(D) # 1\nU -> close(B) # 0\n")
    (tmp_path / "bad.trees").write_text(AMR_TREES + "bel(sing(base))\n")
    monkeypatch.chdir(tmp_path)
    return tmp_path


@pytest.mark.parametrize("case", sorted(CASES))
def test_corpus_digest(workdir, case, capsys):
    argv, expected = CASES[case]
    assert main(argv + ["--out", "out"]) == 0
    files = [(p.name, p.read_bytes()) for p in (workdir / "out").iterdir()]
    assert len(files) > 1
    assert digest(files) == expected


@pytest.mark.parametrize("case", sorted(VALIDATE_CASES))
def test_validate_digest(workdir, case, capsys):
    argv, expected = VALIDATE_CASES[case]
    status = main(argv + ["--validate"])
    out = capsys.readouterr().out
    assert digest([("status", str(status).encode()),
                   ("stdout", out.encode())]) == expected


def test_pyproject_version_is_the_package_version():
    # The manifest records __version__, and a digest changes only with a
    # version bump; read with a regex, since Python 3.10 has no tomllib.
    text = (Path(__file__).parent.parent / "pyproject.toml").read_text()
    m = re.search(r'^version = "([^"]*)"$', text, re.MULTILINE)
    assert m is not None and m.group(1) == gexpand.__version__
