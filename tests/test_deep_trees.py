"""Trees far deeper than the interpreter's recursion limit.

Every traversal of a derivation tree runs on an explicit stack, so a
chain of a few thousand operations parses, prints, evaluates and goes
through the CLI like a shallow one, and the N-best search reaches it.
The graphs stay one or two nodes.
"""

import json

import pytest

from gexpand import (
    EvalConfig,
    evaluate,
    n_best_trees,
    parse_operation_file,
    parse_rtg,
    parse_tree,
    tree,
)
from gexpand.cli import main

DEPTH = 3000

DEEP_OPS = """\
operation dot {
  v [label="x"];
  port v;
}
operation pass {
  v;
  port v;
  dock v;
}
operation pair { 1 1 }
"""

CHAIN = "pass(" * DEPTH + "dot" + ")" * DEPTH
TREES = {"chain": CHAIN, "union": f"pair({CHAIN} dot)"}
SIZES = {"chain": DEPTH + 1, "union": DEPTH + 3}
PORTS = {"chain": 1, "union": 2}


@pytest.mark.parametrize("name", sorted(TREES))
def test_parse_serialize_size_round_trip(name):
    t = parse_tree(TREES[name])
    assert t.serialize() == TREES[name]
    assert t.size() == SIZES[name]
    assert sum(1 for _ in t.walk()) == SIZES[name]
    assert parse_tree(t.serialize()).size() == SIZES[name]


def test_hash():
    assert hash(parse_tree(CHAIN)) == hash(parse_tree(CHAIN))


def test_equality():
    assert parse_tree(CHAIN) == parse_tree(CHAIN)
    assert parse_tree(CHAIN) != parse_tree(TREES["union"])
    assert parse_tree(CHAIN) != parse_tree(CHAIN.replace("dot", "pass"))


def test_repr():
    assert repr(parse_tree(CHAIN)) == f"DerivationTree({CHAIN})"


def test_set_of_trees():
    assert len({parse_tree(CHAIN), parse_tree(CHAIN)}) == 1
    assert parse_tree(CHAIN) in {parse_tree(CHAIN), parse_tree("dot")}


def test_equality_is_structural_not_textual():
    # One leaf labelled "f(a)" serializes like f applied to a.
    assert tree("f(a)").serialize() == tree("f", tree("a")).serialize()
    assert tree("f(a)") != tree("f", tree("a"))
    assert tree("f", tree("a")) == parse_tree("f(a)")


@pytest.mark.parametrize("mode", ["enumerate", "sample"])
@pytest.mark.parametrize("name", sorted(TREES))
def test_evaluate(name, mode):
    a = parse_operation_file(DEEP_OPS)
    out = evaluate(parse_tree(TREES[name]), a, EvalConfig(mode=mode))
    assert out.diagnostics == ()
    assert [(len(g.nodes), g.type) for g in out.graphs] == [
        (PORTS[name], PORTS[name])
    ]


@pytest.mark.parametrize("mode", ["enumerate", "sample"])
def test_cli_tree_file(tmp_path, mode, capsys):
    (tmp_path / "ops.txt").write_text(DEEP_OPS)
    (tmp_path / "trees.txt").write_text(CHAIN + "\n" + TREES["union"] + "\n")
    out = tmp_path / "out"
    status = main(["-g", str(tmp_path / "ops.txt"),
                   "-t", str(tmp_path / "trees.txt"),
                   "--mode", mode, "--out", str(out)])
    assert status == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "g0_0.gv", "g1_0.gv", "manifest.json"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert [r["tree"] for r in manifest["graphs"]] == [CHAIN, TREES["union"]]


@pytest.mark.parametrize("n", [1200, 3000])
def test_n_best_reaches_deep_trees(n):
    g = parse_rtg("S\nS -> f(S) # 1\nS -> a # 1\n")
    best = n_best_trees(g, n)
    # The only tree of weight k is f^(k-1)(a).
    assert [w for _t, w in best] == list(range(1, n + 1))
    assert best[-1][0].serialize() == "f(" * (n - 1) + "a" + ")" * (n - 1)
    assert best[-1][0].size() == n
