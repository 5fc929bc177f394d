"""Tests for expansion operations, unions, the operation-file parser,
and the extension (r1/r2) validator."""

import itertools
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gexpand import (
    Algebra,
    EmptyConstant,
    ExpansionOperation,
    ExpansionTypeError,
    ExtensionReport,
    Graph,
    GraphError,
    OperationFileError,
    UnionOperation,
    apply_expansion,
    apply_expansion_all,
    check_extension,
    disjoint_union,
    empty_graph,
    enumerate_context_assignments,
    is_isomorphic,
    parse_operation_file,
    rename_nodes,
)
from gexpand.gvio import _quote
from fixtures import (
    RUNNING_OPS,
    repeated_dock_argument,
    repeated_dock_expected,
    repeated_dock_operation,
    running_result_graph,
)
from generators import random_expansion_operation, random_graph
from oracles import (
    same_graph_set,
    same_graph_set_brute_force,
    union_find_apply_expansion,
)

seeds = st.integers(0, 10**9)


def op_from_seed(s: int) -> ExpansionOperation:
    rng = random.Random(s)
    return random_expansion_operation(
        rng, "op", rng.randint(0, 3), rng.randint(0, 3), max_context=2
    )


class TestContextNodes:
    def test_repeated_dock_operation_has_two_context_nodes(self):
        op = repeated_dock_operation()
        assert frozenset(op.context) == {"y2", "y3"}
        assert {op.template.labels[v] for v in op.context} == {"b", "c"}

    def test_fully_covered_template_has_no_context(self):
        op = ExpansionOperation(
            "op",
            Graph([], {"a": "x"}, ("a",)),
            (),
        )
        assert frozenset(op.context) == frozenset()

    @given(seeds)
    def test_equals_set_difference(self, s):
        op = op_from_seed(s)
        expected = op.template.nodes - set(op.ports) - set(op.docks)
        assert frozenset(op.context) == expected


class TestOperationPorts:
    """An expansion's ports are its template's."""

    def test_ports_are_the_template_ports(self):
        op = repeated_dock_operation()
        assert op.ports == op.template.ports == ("x1", "x2", "y4", "x3")
        assert "ports" not in op.asdict()

    @pytest.mark.parametrize("ports, message", [
        (("a", "a"), "repeated node in port sequence"),
        (("b",), "port is not a node")])
    def test_bad_ports_fail_when_the_template_is_built(self, ports, message):
        with pytest.raises(GraphError, match=message):
            ExpansionOperation("op", Graph([], {"a": "x"}, ports), ())


class TestEnumerateContextAssignments:
    def test_count_is_product_of_candidate_counts(self):
        op = repeated_dock_operation()
        arg = repeated_dock_argument()
        non_ports = arg.nodes - set(arg.ports)
        c_count = sum(1 for v in non_ports if arg.labels[v] == "c")
        b_count = sum(1 for v in non_ports if arg.labels[v] == "b")
        assignments = enumerate_context_assignments(op, arg)
        assert c_count == 3 and b_count == 2
        assert len(assignments) == c_count * b_count

    def test_empty_context_yields_one_empty_assignment(self):
        op = ExpansionOperation(
            "op",
            Graph([], {"a": "x"}, ("a",)),
            (),
        )
        assert enumerate_context_assignments(op, empty_graph()) == [{}]

    def test_absent_label_yields_no_assignment(self):
        op = ExpansionOperation(
            "op",
            Graph([], {"a": "x", "u": "zz"}, ("a",)),
            (),
        )
        arg = Graph([], {"v": "x"}, ())
        assert enumerate_context_assignments(op, arg) == []

    def test_context_nodes_never_map_to_ports(self):
        op = repeated_dock_operation()
        arg = repeated_dock_argument()
        ports = set(arg.ports)
        for assignment in enumerate_context_assignments(op, arg):
            assert not set(assignment.values()) & ports

    def test_injective_mode_drops_shared_targets(self):
        template = Graph(
            [],
            {"p": "x", "u1": "c", "u2": "c"},
            ("p",),
        )
        op = ExpansionOperation("op", template, ())
        arg = Graph([], {"a": "c", "b": "c"})
        loose = enumerate_context_assignments(op, arg)
        strict = enumerate_context_assignments(op, arg, injective=True)
        assert len(loose) == 4
        assert len(strict) == 2
        for assignment in strict:
            assert len(set(assignment.values())) == len(assignment)


class TestApplyExpansion:
    def test_template_nodes_are_named_in_order_of_first_mention(self):
        # An edge names n and c before their node statements, so the
        # template's node order, and the +i names, are n, c, d.
        (op,) = parse_operation_file(
            "operation late {\n"
            '  n -> c [label="arg0"];\n'
            '  c [label="she"];\n'
            '  n [label="believe"];\n'
            "  d;\n"
            '  n -> d [label="arg1"];\n'
            "  port n;\n"
            "  dock d;\n"
            "}\n"
        ).operations.values()
        assert list(op.template.nodes) == ["n", "c", "d"]
        assert op.context == ("c",)
        arg = Graph([], {"v": "they", "s": "she"}, ("v",))
        result = apply_expansion(op, arg, {"c": "s"})
        assert {v: result.labels[v] for v in sorted(result.nodes)} == {
            "+0": "believe", "+1": "she", "+2": "they"}
        assert result.edges == {("+0", "arg0", "+1"), ("+0", "arg1", "+2")}
        assert result.ports == ("+0",)

    def test_believe_step_of_the_running_example(self):
        algebra = parse_operation_file(RUNNING_OPS)
        she = apply_expansion_all(algebra["op4"], empty_graph())[0]
        they = apply_expansion_all(algebra["op5"], empty_graph())[0]
        pair = disjoint_union(she, they)
        (result,) = apply_expansion_all(algebra["op2"], pair)
        assert result.type == 2
        # The she-node is deliberately not a port: the next operation's
        # context node must be able to match it (context nodes may only
        # map to non-ports).
        assert [result.labels[p] for p in result.ports] == ["they", "believe"]
        out = {(result.labels[s], l, result.labels[t]) for s, l, t in result.edges}
        assert out == {
            ("believe", "arg0", "she"),
            ("believe", "arg1", "they"),
        }
        assert len(result.nodes) == 3

    def test_zero_dock_no_context_copies_the_template(self):
        op = ExpansionOperation(
            "op",
            Graph(
                [("a", "e", "b")],
                {"a": "x", "b": "y"},
                ("a", "b"),
            ),
            (),
        )
        result = apply_expansion(op, empty_graph(), {})
        assert is_isomorphic(result, op.template)

    def test_repeated_docks_fuse_argument_ports(self):
        op = repeated_dock_operation()
        arg = repeated_dock_argument()
        results = apply_expansion_all(op, arg)
        # 10 argument + 7 template nodes, minus 3 dock/port fusions
        # (ports 2 and 3 merge into one node) and 2 context fusions.
        for g in results:
            assert len(g.nodes) == 12
            assert g.type == 4

    def test_three_fixture_results_are_members(self):
        op = repeated_dock_operation()
        arg = repeated_dock_argument()
        results = apply_expansion_all(op, arg)
        for y2, y3 in [("u1", "w2"), ("v2", "w2"), ("v3", "w1")]:
            expected = repeated_dock_expected(y2, y3)
            assert any(is_isomorphic(g, expected) for g in results)

    def test_type_mismatch_raises_typed_error(self):
        op = repeated_dock_operation()
        with pytest.raises(ExpansionTypeError):
            apply_expansion(op, empty_graph(), {})

    def test_type_mismatch_gives_empty_result_set(self):
        op = repeated_dock_operation()
        assert apply_expansion_all(op, empty_graph()) == []

    def test_labelled_dock_keeps_template_label(self):
        template = Graph(
            [("p", "e", "d")],
            {"p": "x", "d": "fixed"},
            ("p",),
        )
        op = ExpansionOperation("op", template, ("d",))
        arg = Graph([], {"v": "other"}, ("v",))
        result = apply_expansion(op, arg, {})
        assert sorted(result.labels.values()) == ["fixed", "x"]

    def test_wildcard_dock_inherits_argument_label(self):
        template = Graph(
            [("p", "e", "d")], {"p": "x", "d": None}, ("p",)
        )
        op = ExpansionOperation("op", template, ("d",))
        arg = Graph([], {"v": "kept"}, ("v",))
        result = apply_expansion(op, arg, {})
        assert sorted(result.labels.values()) == ["kept", "x"]

    def test_wildcard_merge_conflict_takes_first_port_label(self):
        op = repeated_dock_operation()
        arg = repeated_dock_argument()
        # Argument ports 2 and 3 carry labels b and a; the merged node
        # keeps b, the label of the earlier port.
        (some,) = [
            apply_expansion(op, arg, a)
            for a in enumerate_context_assignments(op, arg)[:1]
        ]
        merged = some.ports[2]
        assert some.labels[merged] == "b"

    def test_result_type_equals_port_count(self):
        op = repeated_dock_operation()
        arg = repeated_dock_argument()
        for g in apply_expansion_all(op, arg):
            assert g.type == len(op.ports)

    def test_matches_union_find_fusion_node_for_node(self):
        # Node names must not change (sample-mode draws index sorted
        # names), so the comparison is on the raw graphs.  Argument
        # names sort before ("*"), at ("+", colliding) and after ("v")
        # the template's fresh names "+0", "+1", ...
        checked = 0
        for s in range(400):
            op = op_from_seed(s)
            rng = random.Random(s)
            for _ in range(6):
                base = random_graph(rng, 6)
                if base.type != len(op.docks):
                    continue
                for prefix in ("v", "+", "*"):
                    arg = rename_nodes(base, {
                        v: prefix + v[1:] for v in base.nodes})
                    for a in enumerate_context_assignments(op, arg):
                        want = union_find_apply_expansion(op, arg, a)
                        got = apply_expansion(op, arg, a)
                        assert (got.nodes, got.edges, got.labels,
                                got.ports) == (want.nodes, want.edges,
                                               want.labels, want.ports)
                        checked += 1
        assert checked > 1000

    def test_assignment_key_must_be_a_context_node(self):
        op = repeated_dock_operation()
        arg = repeated_dock_argument()
        assignment = enumerate_context_assignments(op, arg)[0]
        target = next(iter(assignment.values()))
        for key in set(op.docks) | set(op.ports):
            with pytest.raises(ValueError, match="not a context node"):
                apply_expansion(op, arg, {**assignment, key: target})
        with pytest.raises(ValueError, match="not a context node"):
            apply_expansion(op, arg, {"absent": target})

    @pytest.mark.parametrize("assignment, message", [
        ({"y2": "missing", "y3": "w1"},
         "context node 'y2' mapped to 'missing', which is not a node of "
         "the argument"),
        ({"y2": "u1", "y3": "u2"},
         "context node 'y3' mapped to argument port 'u2'"),
        ({"y2": "w1", "y3": "w2"},
         "context node 'y2' mapped to node 'w1' with a different label"),
        ({}, "context nodes ['y2', 'y3'] of operation 'phi' are not "
             "assigned"),
        ({"y2": "u1"}, "context nodes ['y3'] of operation 'phi' are not "
                       "assigned"),
    ], ids=["absent-node", "port", "other-label", "empty", "partial"])
    def test_bad_assignment_is_named(self, assignment, message):
        # Context nodes y2 (label c) and y3 (label b); the argument's
        # ports are z1, u2 and z2.
        with pytest.raises(ValueError) as exc:
            apply_expansion(repeated_dock_operation(),
                            repeated_dock_argument(), assignment)
        assert str(exc.value) == message

    @given(seeds, seeds)
    @settings(max_examples=60, deadline=None)
    def test_node_count_law(self, s1, s2):
        op = op_from_seed(s1)
        rng = random.Random(s2)
        arg = random_graph(rng, 6)
        if arg.type != len(op.docks):
            return
        for assignment in enumerate_context_assignments(op, arg)[:4]:
            result = apply_expansion(op, arg, assignment)
            # Independent fusion count: connected components of the
            # dock/port and context/target identifications.
            parent = {}

            def find(x):
                parent.setdefault(x, x)
                while parent[x] != x:
                    x = parent[x]
                return x

            pairs = [
                (("t", d), ("a", arg.ports[i]))
                for i, d in enumerate(op.docks)
            ] + [(("t", u), ("a", v)) for u, v in assignment.items()]
            merges = 0
            for x, y in pairs:
                rx, ry = find(x), find(y)
                if rx != ry:
                    parent[rx] = ry
                    merges += 1
            assert len(result.nodes) == (
                len(arg.nodes) + len(op.template.nodes) - merges
            )

    @given(seeds, seeds)
    @settings(max_examples=60, deadline=None)
    def test_result_shares_every_edge_whose_ends_keep_their_names(
            self, s1, s2):
        op = op_from_seed(s1)
        arg = random_graph(random.Random(s2), 6)
        if arg.type != len(op.docks):
            return
        for assignment in enumerate_context_assignments(op, arg)[:4]:
            result = apply_expansion(op, arg, assignment)
            held = {id(e) for e in result.edges}
            # An argument node is in the result under its own name
            # exactly when no fusion gave its class another name.
            assert all(id(e) in held for e in arg.edges
                       if e[0] in result.nodes and e[2] in result.nodes)

    def test_kept_edge_is_shared_when_a_renamed_one_coalesces_with_it(self):
        # The dock, named +0' beside the argument, fuses ports +0 and +1:
        # the class takes the least name, +0, so edge +1 -> x becomes a
        # copy of edge +0 -> x, which the result holds itself.
        (op,) = parse_operation_file(
            "operation merge {\n  0;\n  port 0;\n  dock 0 0;\n}\n"
        ).operations.values()
        arg = Graph([("+0", "e", "x"), ("+1", "e", "x")],
                    {"+0": "p", "+1": "p", "x": "q"}, ("+0", "+1"))
        result = apply_expansion(op, arg, {})
        (edge,) = result.edges
        assert edge is next(e for e in arg.edges if e[0] == "+0")

    @given(seeds, seeds)
    @settings(max_examples=40, deadline=None)
    def test_isomorphic_arguments_give_isomorphic_result_sets(self, s1, s2):
        op = op_from_seed(s1)
        arg = random_graph(random.Random(s2), 5)
        renamed = rename_nodes(
            arg, {v: f"other_{v}" for v in arg.nodes}
        )
        left = apply_expansion_all(op, arg)
        right = apply_expansion_all(op, renamed)
        assert same_graph_set(left, right)

    @given(seeds, seeds)
    @settings(max_examples=30, deadline=None)
    def test_apply_expansion_all_matches_brute_force_dedup(self, s1, s2):
        op = op_from_seed(s1)
        arg = random_graph(random.Random(s2), 4)
        if arg.type != len(op.docks):
            return
        if len(arg.nodes) + len(op.template.nodes) > 8:
            return
        raw = [
            apply_expansion(op, arg, a)
            for a in enumerate_context_assignments(op, arg)
        ]
        assert same_graph_set_brute_force(apply_expansion_all(op, arg), raw)


class TestCheckExtension:
    def test_running_example_operations_are_extensions(self):
        algebra = parse_operation_file(RUNNING_OPS)
        for name in ("op1", "op2", "op4", "op5"):
            report = check_extension(algebra[name])
            assert report.r1 and report.r2, name

    def test_repeated_dock_operation_violates_r1(self):
        report = check_extension(repeated_dock_operation())
        assert not report.r1
        assert ("x1", "e", "x2") in report.r1_violations
        assert report.r2

    def test_vacuously_true_without_edges_or_forgotten_docks(self):
        op = ExpansionOperation(
            "op",
            Graph([], {"a": "x"}, ("a",)),
            ("a",),
        )
        report = check_extension(op)
        assert report.r1 and report.r2

    def test_forgotten_dock_without_incoming_edge_violates_r2(self):
        op = ExpansionOperation(
            "op",
            Graph([], {"p": "x", "d": None}, ("p",)),
            ("d",),
        )
        report = check_extension(op)
        assert report.r1 and not report.r2
        assert report.r2_violations == ("d",)

    def test_a_condition_holds_when_nothing_violates_it(self):
        report = ExtensionReport((), ("d",))
        assert report.r1 and not report.r2


class TestParseOperationFile:
    def test_persuade_operation_structure(self):
        algebra = parse_operation_file(RUNNING_OPS)
        op = algebra["op1"]
        assert isinstance(op, ExpansionOperation)
        assert len(op.template.nodes) == 4
        assert op.template.labels["0"] == "persuade"
        assert op.template.labels["1"] == "she"
        assert op.template.labels["2"] is None
        assert op.template.labels["3"] is None
        assert op.ports == ("0",)
        assert op.docks == ("2", "3")
        assert {l for _s, l, _t in op.template.edges} == {
            "arg0",
            "arg1",
            "arg2",
        }

    def test_union_body(self):
        algebra = parse_operation_file("operation u {\n  1 1\n}\n")
        op = algebra["u"]
        assert isinstance(op, UnionOperation)
        assert (op.left_arity, op.right_arity) == (1, 1)

    def test_empty_constant_body(self):
        algebra = parse_operation_file("operation phi {\n  empty\n}\n")
        op = algebra["phi"]
        assert isinstance(op, EmptyConstant)
        # The expansion with no template node, allowed at rank 0 only.
        assert isinstance(op, ExpansionOperation)
        assert not op.template.nodes and not op.template.edges
        assert (op.docks, op.ports, op.context) == ((), (), ())
        assert op.template is EmptyConstant("psi").template
        assert repr(op) == ("EmptyConstant(name='phi', template=Graph("
                            "nodes=0, edges=0, type=0), docks=())")
        assert algebra.fault("phi", 0) is None
        assert algebra.fault("phi", 1) == (
            "symbol 'phi' has rank 1 but the operation allows ranks (0,)")
        with pytest.raises(OperationFileError, match="has no node"):
            EmptyConstant("phi", Graph((), {"0": "x"}, ("0",)))
        with pytest.raises(OperationFileError, match="is not a template"):
            EmptyConstant("phi", docks=("0",))

    def test_duplicate_name_rejected(self):
        text = "operation a {\n 1 1\n}\noperation a {\n 2 2\n}\n"
        with pytest.raises(OperationFileError):
            parse_operation_file(text)

    def test_unlabelled_non_dock_node_rejected(self):
        text = (
            "operation bad {\n"
            '  0 [label="x"];\n'
            "  1;\n"
            "  port 0;\n"
            "}\n"
        )
        with pytest.raises(OperationFileError, match=(
                "^operation 'bad': line 3: node '1' has no label")):
            parse_operation_file(text)

    def test_hand_built_unlabelled_non_dock_node_rejected(self):
        for labels, ports in [({"p": "x", "u": None}, ("p",)),
                              ({"p": None}, ("p",))]:
            bad = list(labels)[-1]
            with pytest.raises(OperationFileError, match=(
                    f"^operation 'bad': node '{bad}' has no label and is "
                    f"not a dock$")):
                ExpansionOperation("bad", Graph([], labels, ports), ())
        op = ExpansionOperation("ok", Graph([], {"d": None}), ("d",))
        assert op.context == ()

    def test_unknown_node_in_dock_line_rejected(self):
        text = 'operation bad {\n  0 [label="x"];\n  port 0;\n  dock 9;\n}\n'
        with pytest.raises(OperationFileError, match=(
                "^operation 'bad': line 4: unknown node '9' in 'dock' line")):
            parse_operation_file(text)

    def test_repeated_node_in_port_line_rejected(self):
        text = 'operation bad {\n  0 [label="x"];\n  port 0 0;\n}\n'
        with pytest.raises(OperationFileError, match=(
                "^operation 'bad': line 3: repeated node '0' in 'port' line")):
            parse_operation_file(text)

    def test_missing_closing_brace_rejected(self):
        with pytest.raises(OperationFileError):
            parse_operation_file('operation a {\n  0 [label="x"];\n')

    def test_repeated_docks_parse(self):
        text = (
            "operation f {\n"
            '  0 [label="x"];\n'
            "  1;\n"
            "  0 -> 1 [label=\"e\"];\n"
            "  port 0;\n"
            "  dock 1 1;\n"
            "}\n"
        )
        op = parse_operation_file(text)["f"]
        assert op.docks == ("1", "1")

    @pytest.mark.parametrize("port, dock", [
        ("port;", "dock;"), ("port ;", "dock ;")])
    def test_empty_port_and_dock_lines_parse_with_or_without_space(
            self, port, dock):
        text = f'operation f {{\n  0 [label="x"];\n  {port}\n  {dock}\n}}\n'
        op = parse_operation_file(text)["f"]
        assert (op.ports, op.docks, op.template.nodes) == ((), (), {"0"})

    def test_operation_without_port_line_has_type_zero_result(self):
        text = 'operation f {\n  0 [label="x"];\n  dock 0;\n}\n'
        op = parse_operation_file(text)["f"]
        assert op.ports == ()

    def test_quoted_ids_in_port_and_dock_lines(self):
        text = (
            "operation f {\n"
            '  "a" [label="x"];\n'
            '  "b c";\n'
            '  "a" -> "b c" [label="e"];\n'
            '  port "a";\n'
            '  dock "b c" "b c";\n'
            "}\n"
        )
        op = parse_operation_file(text)["f"]
        assert (op.ports, op.docks) == (("a",), ("b c", "b c"))

    def test_node_named_port_or_dock(self):
        # Only a bare keyword followed by an id list is a keyword line.
        text = (
            "operation f {\n"
            '  port [label="x"];\n'
            '  "dock";\n'
            "  port port;\n"
            "  dock dock;\n"
            "}\n"
        )
        op = parse_operation_file(text)["f"]
        assert (op.ports, op.docks) == (("port",), ("dock",))
        assert op.template.labels == {"port": "x", "dock": None}

    def test_statement_line_ending_in_brace_closes_the_block(self):
        text = 'operation f {\n  0 [label="x"];\n  port 0; }\n'
        assert parse_operation_file(text)["f"].ports == ("0",)

    def test_trailing_comments(self):
        text = (
            "operation f { // a comment may hold } and \"\n"
            '  0 [label="http://x"]; // not part of the label\n'
            "  port 0; // }\n"
            "} // end\n"
            "operation u { 1 1 } // union\n"
        )
        algebra = parse_operation_file(text)
        assert algebra["f"].template.labels == {"0": "http://x"}
        assert algebra["f"].ports == ("0",)
        assert isinstance(algebra["u"], UnionOperation)

    def test_keyword_line_that_is_no_list_is_read_in_linear_time(self):
        # A list pattern that could split the long bare id into several
        # ids would try 2**9999 ways before giving up.
        text = "operation f {\n  port " + "a" * 10000 + " [;\n}\n"
        with pytest.raises(OperationFileError, match="cannot parse statement"):
            parse_operation_file(text)

    def test_readme_operation_file_parses(self):
        readme = (Path(__file__).parent.parent / "README.md").read_text()
        section = readme.split("**Operation file**", 1)[1]
        text = section.split("```text\n", 1)[1].split("```", 1)[0]
        algebra = parse_operation_file(text)
        assert sorted(algebra.operations) == ["name", "nil", "pair"]
        op = algebra["name"]
        assert op.template.labels == {"0": "persuade", "1": None}
        assert (op.ports, op.docks) == (("0",), ("1", "1"))
        assert algebra["pair"] == UnionOperation("pair", 1, 1)
        assert algebra["nil"] == EmptyConstant("nil")

    @pytest.mark.parametrize("lines, line, message", [
        (["0 [label=\"x\"];", "// ports: 0"], 3, "'port' line"),
        (["0 [label=\"x\"];", "port 9;"], 3, "unknown node '9'"),
        (["0 [label=\"x\"];", "port 0;", "port 0;"], 4, "duplicate 'port'"),
    ], ids=["ports-comment", "unknown-port", "duplicate-port"])
    def test_body_errors_name_their_line(self, lines, line, message):
        text = "operation f {\n" + "".join(f"  {l}\n" for l in lines) + "}\n"
        with pytest.raises(OperationFileError,
                           match=f"^operation 'f': line {line}: .*{message}"):
            parse_operation_file(text)


# Node ids that the file can only hold quoted, and the two keywords.
node_ids = st.sampled_from(["port", "dock"]) | st.text(
    st.sampled_from(['"', "\\", " ", "/", "}", ";", "a", "é"]), max_size=5,
).filter(lambda v: not v.endswith("\\"))


def operation_text(op: ExpansionOperation) -> str:
    t = op.template
    lines = [f"operation {op.name} {{"]
    lines += [f"  {_quote(v)}" + ("" if t.labels[v] is None
                                  else f" [label={_quote(t.labels[v])}]")
              + ";" for v in t.nodes]
    lines += [f"  {_quote(s)} -> {_quote(d)} [label={_quote(l)}];"
              for s, l, d in sorted(t.edges)]
    lines.append("  port" + "".join(f" {_quote(v)}" for v in op.ports) + ";")
    lines.append("  dock" + "".join(f" {_quote(v)}" for v in op.docks) + ";")
    return "\n".join(lines + ["}"]) + "\n"


class TestOperationFileRoundTrip:
    @given(seeds, st.integers(0, 3), st.integers(0, 3),
           st.lists(node_ids, min_size=8, max_size=8, unique=True))
    @settings(max_examples=200, deadline=None)
    def test_parse_after_write_keeps_the_operation(self, s, docks, ports,
                                                   names):
        op = random_expansion_operation(random.Random(s), "op", docks, ports,
                                        max_context=2)
        name = dict(zip(op.template.nodes, names))
        op = ExpansionOperation(op.name, rename_nodes(op.template, name),
                                tuple(name[v] for v in op.docks))
        (parsed,) = parse_operation_file(operation_text(op)).operations.values()
        assert (parsed.name, parsed.ports, parsed.docks, parsed.context) == (
            op.name, op.ports, op.docks, op.context)
        assert list(parsed.template.nodes) == list(op.template.nodes)
        assert parsed.template.labels == op.template.labels
        assert parsed.template.edges == op.template.edges


class TestUnionOperation:
    def test_negative_arity_rejected(self):
        with pytest.raises(OperationFileError):
            UnionOperation("u", -1, 0)


class TestAlgebra:
    def test_operation_listed_under_another_name_rejected(self):
        # A tree symbol names the key, diagnostics the operation's name.
        with pytest.raises(OperationFileError,
                           match="operation 'u' is listed as 'f'"):
            Algebra({"f": UnionOperation("u", 1, 1)})
