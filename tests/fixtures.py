"""Shared fixture data for the test suite: the persuade/believe running
example, the repeated-dock expansion example, the branching algebra
(whose tree sample mode draws in) and the port-merging algebra."""

from gexpand import ExpansionOperation, Graph

RUNNING_GRAMMAR = """\
S
S -> op1(C)
C -> op2(U)
U -> op3(S' S2)
S' -> op4
S2 -> op5
"""

RUNNING_TREE_TEXT = "op1(op2(op3(op4 op5)))\n"

# A small algebra whose top operation has one context node with two
# distinguishable candidates, so enumerate mode yields two graphs and
# sample mode draws.
BRANCHING_OPS = """\
operation two_leaves {
  0 [label="c"];
  1 [label="c"];
  port 0 1;
}
operation drop_ports {
  0 [label="b"];
  1;
  2;
  0 -> 1 [label="e"];
  0 -> 2 [label="f"];
  port 0;
  dock 1 2;
}
operation pick_context {
  0 [label="a"];
  1;
  2 [label="c"];
  0 -> 1 [label="x"];
  0 -> 2 [label="y"];
  port 0;
  dock 1;
}
"""

BRANCHING_TREE_TEXT = "pick_context(drop_ports(two_leaves))\n"

# A grammar with one production written twice.  Unmerged, every tree
# has 2^k derivations at one bound: N=40 ran a budget of 10**5 pops out.
DUPLICATE_RULE_GRAMMAR = """\
N0
N0 -> t7r0 # 5
N0 -> t5r2(N4 N2) # 4
N4 -> t0r1(N4) # 0
N4 -> t0r1(N4) # 0
N4 -> t5r1(N3) # 2
N3 -> t5r1(N2) # 2
N2 -> t6r0 # 4
N2 -> t3r1(N0) # 5
"""

# ``merge`` fuses both ports of its argument into one node: its repeated
# dock takes two argument ports, so ``merge(pair)`` has one node.
MERGE_OPS = """\
operation pair {
  0 [label="x"];
  1 [label="x"];
  port 0 1;
}
operation merge {
  m;
  port m;
  dock m m;
}
"""

# ``nil`` is the empty-graph constant and ``dot`` a zero-dock expansion,
# which may stand at rank 0 or over a graph of type 0.
EMPTY_OPS = """\
operation nil { empty }
operation dot {
  0 [label="x"];
  port 0;
}
operation u { 0 1 }
"""

RUNNING_OPS = """\
operation op1 {
  0 [label="persuade"];
  1 [label="she"];
  2;
  3;
  0 -> 1 [label="arg0"];
  0 -> 2 [label="arg1"];
  0 -> 3 [label="arg2"];
  port 0;
  dock 2 3;
}
operation op2 {
  0 [label="believe"];
  1;
  2;
  0 -> 1 [label="arg0"];
  0 -> 2 [label="arg1"];
  port 2 0;
  dock 1 2;
}
operation op3 {
  1 1
}
operation op4 {
  0 [label="she"];
  port 0;
}
operation op5 {
  0 [label="they"];
  port 0;
}
"""


def running_result_graph() -> Graph:
    """The evaluated persuade/believe graph: 4 nodes, 5 edges, one port."""
    return Graph(
        [
            ("p", "arg0", "s"),
            ("p", "arg1", "t"),
            ("p", "arg2", "b"),
            ("b", "arg0", "s"),
            ("b", "arg1", "t"),
        ],
        {"p": "persuade", "b": "believe", "s": "she", "t": "they"},
        ("p",),
    )


RUNNING_RESULT_GV = """\
digraph {
  "n0" [label="persuade"];
  "n1" [label="believe"];
  "n2" [label="she"];
  "n3" [label="they"];
  "n0" -> "n2" [label="arg0"];
  "n0" -> "n3" [label="arg1"];
  "n0" -> "n1" [label="arg2"];
  "n1" -> "n2" [label="arg0"];
  "n1" -> "n3" [label="arg1"];
  // ports: n0
}
"""


def repeated_dock_operation() -> ExpansionOperation:
    """Expansion operation with 4 ports, docks (y1, y4, y4), and two
    context nodes labelled c and b."""
    return ExpansionOperation(
        name="phi",
        template=Graph(
            [
                ("x1", "e", "x2"),
                ("x1", "e", "y1"),
                ("x1", "e", "y2"),
                ("x2", "e", "y2"),
                ("x2", "e", "y3"),
                ("x2", "e", "y4"),
            ],
            {
                "x1": "b",
                "x2": "a",
                "x3": "b",
                "y1": None,
                "y2": "c",
                "y3": "b",
                "y4": None,
            },
            ("x1", "x2", "y4", "x3"),
        ),
        docks=("y1", "y4", "y4"),
    )


def repeated_dock_argument() -> Graph:
    """Ten-node argument graph with three ports for the repeated-dock
    operation: non-port c-nodes u1/v2/v3, non-port b-nodes w1/w2."""
    return Graph(
        [
            ("z1", "e", "u1"),
            ("z2", "e", "v3"),
            ("u1", "e", "v1"),
            ("u1", "e", "v2"),
            ("u2", "e", "w1"),
            ("v2", "e", "w1"),
            ("v2", "e", "w2"),
            ("v3", "e", "w2"),
            ("v3", "e", "w3"),
        ],
        {
            "z1": "c",
            "z2": "a",
            "u1": "c",
            "u2": "b",
            "v1": "a",
            "v2": "c",
            "v3": "c",
            "w1": "b",
            "w2": "b",
            "w3": "a",
        },
        ("z1", "u2", "z2"),
    )


def repeated_dock_expected(y2_target: str, y3_target: str) -> Graph:
    """Hand-built expected result of applying the repeated-dock
    operation under a given context choice.  Ports 2 and 3 of the
    argument merge into one node (the merged node keeps the label b of
    the earliest merged port)."""
    arg = repeated_dock_argument()
    merged = "m"
    sub = {"z2": merged, "u2": merged}
    labels = {
        "x1": "b",
        "x2": "a",
        "x3": "b",
        merged: "b",
    }
    labels.update({v: arg.labels[v] for v in arg.nodes - {"z2", "u2"}})
    edges = {(sub.get(s, s), l, sub.get(t, t)) for s, l, t in arg.edges}
    edges |= {
        ("x1", "e", "x2"),
        ("x1", "e", "z1"),
        ("x1", "e", y2_target),
        ("x2", "e", y2_target),
        ("x2", "e", y3_target),
        ("x2", "e", merged),
    }
    return Graph(edges, labels, ("x1", "x2", merged, "x3"))
