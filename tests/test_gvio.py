"""Tests for gv (DOT digraph) parsing and emission."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gexpand import (
    Graph,
    GvSyntaxError,
    OperationFileError,
    emit_gv,
    empty_graph,
    is_isomorphic,
    parse_definitions,
    parse_gv,
    parse_operation_file,
    parse_rtg,
)
from gexpand import gvio
from fixtures import RUNNING_RESULT_GV, running_result_graph
from generators import random_graph

seeds = st.integers(0, 10**9)


class TestParseGv:
    def test_four_node_result_graph(self):
        g = parse_gv(RUNNING_RESULT_GV)
        assert len(g.nodes) == 4
        assert len(g.edges) == 5
        assert g.type == 1
        assert g.labels[g.ports[0]] == "persuade"
        assert is_isomorphic(g, running_result_graph())

    def test_empty_digraph(self):
        g = parse_gv("digraph { }")
        assert is_isomorphic(g, empty_graph())

    def test_identifier_becomes_label_when_unlabelled(self):
        g = parse_gv('digraph {\n  "she";\n}')
        (v,) = g.nodes
        assert g.labels[v] == "she"

    def test_edge_implicitly_declares_nodes(self):
        g = parse_gv('digraph {\n  a -> b [label="e"];\n}')
        assert len(g.nodes) == 2
        assert ("a", "e", "b") in g.edges

    def test_ports_comment_sets_port_order(self):
        g = parse_gv(
            'digraph {\n  "x" [label="a"];\n  "y" [label="b"];\n'
            "  // ports: y x\n}"
        )
        assert [g.labels[p] for p in g.ports] == ["b", "a"]

    def test_syntax_error_reports_line(self):
        with pytest.raises(GvSyntaxError) as exc:
            parse_gv('digraph {\n  "a" [label="x"];\n  @@nonsense@@\n}')
        assert exc.value.line == 3

    @pytest.mark.parametrize("text, message", [
        ("graph {\n}\n", "line 1: expected 'digraph {'"),
        ("", "line 1: empty input, expected 'digraph {'"),
        ("digraph {\n}\ndigraph {\n}\n", "line 3: text after closing brace"),
        ('digraph {\n  a [label="x"];\n  a [label="y"];\n}\n',
         "line 3: node 'a' redeclared with label 'y' (was 'x' at line 2)"),
    ], ids=["header", "empty", "second-digraph", "relabel"])
    def test_error_texts(self, text, message):
        with pytest.raises(GvSyntaxError) as exc:
            parse_gv(text)
        assert str(exc.value) == message

    def test_operation_file_header_error_text(self):
        with pytest.raises(OperationFileError) as exc:
            parse_operation_file("nonsense {\n}\n")
        assert str(exc.value) == "line 1: expected 'operation <name> {'"

    def test_port_referencing_unknown_node_rejected(self):
        with pytest.raises(GvSyntaxError):
            parse_gv('digraph {\n  "a" [label="x"];\n  // ports: b\n}')

    def test_repeated_port_rejected(self):
        with pytest.raises(GvSyntaxError):
            parse_gv('digraph {\n  "a" [label="x"];\n  // ports: a a\n}')

    @pytest.mark.parametrize("attrs, label", [
        ('xlabel="q", label="r"', "r"),
        ('tooltip="label=z", label="r"', "r"),
        ('label="x", label=y', "y"),
        ('label="x" label="y"', "y"),
        ('"label"="k"', "k"),
        ('tooltip="a \\" label=z"', "a"),
        ('xlabel="q"', "a"),
    ])
    def test_node_label_is_the_last_label_attribute(self, attrs, label):
        g = parse_gv(f"digraph {{\n  a [{attrs}];\n}}")
        assert g.labels == {"a": label}

    @pytest.mark.parametrize("attrs, label", [
        ('taillabel="t", label="e"', "e"),
        ('headlabel="h" label=e', "e"),
        ('label="e1", label="e2"', "e2"),
    ])
    def test_edge_label_is_the_last_label_attribute(self, attrs, label):
        g = parse_gv(f"digraph {{\n  a -> b [{attrs}];\n}}")
        assert g.edges == {("a", label, "b")}

    def test_edge_with_only_other_labels_rejected(self):
        with pytest.raises(GvSyntaxError):
            parse_gv('digraph {\n  a -> b [taillabel="t"];\n}')

    def test_ports_comment_reads_quoted_ids(self):
        g = parse_gv('digraph {\n  "a b" [label="x"];\n  c;\n'
                     '  // ports: "a b" c\n}')
        assert g.ports == ("a b", "c")

    @pytest.mark.parametrize("last", [
        '"n0" [label="x"]; }', '"n0" [label="x"]; }  // end'])
    def test_statement_line_ending_in_brace_closes_the_digraph(self, last):
        g = parse_gv(f"digraph {{\n  // ports: n0\n  {last}\n")
        assert (g.labels, g.ports) == ({"n0": "x"}, ("n0",))

    def test_trailing_comment_outside_quotes_is_dropped(self):
        g = parse_gv('digraph { // a } here does not close\n'
                     '  a [label="http://x"]; // ports: a\n'
                     '  b -> a [label="//"];\n}')
        assert g.labels == {"a": "http://x", "b": "b"}
        assert g.edges == {("b", "//", "a")} and g.ports == ()

    def test_ports_comment_that_lists_no_ids_rejected(self):
        with pytest.raises(GvSyntaxError, match="^line 3: cannot parse"):
            parse_gv('digraph {\n  a [label="x"];\n  // ports: a "b\n}')



class TestUnclosedQuote:
    """A ``"`` that no later ``"`` on its line closes is plain text, so
    a ``//`` after it starts a comment in every input format."""

    def test_definition_line(self):
        assert parse_definitions('she: "he // note').entries == {
            "she": ('"he',)}

    def test_grammar_rule(self):
        g = parse_rtg('S\nS -> a" // x\n')
        assert [p.symbol for p in g.productions] == ['a"']

    def test_operation_line(self):
        # The statement is bad either way; the error quotes it without
        # its comment.
        with pytest.raises(OperationFileError,
                           match="""^operation 'op': line 3: cannot parse """
                                 """statement: 'b";'$"""):
            parse_operation_file('operation op {\n  a [label="x"];\n'
                                 '  b"; // note\n  port a;\n}\n')

    def test_closed_quote_still_holds_a_comment_marker(self):
        assert gvio.strip_comment('a "b // c" d" // e') == 'a "b // c" d"'


class TestEmitGv:
    def test_running_result_matches_expected_text(self):
        assert emit_gv(running_result_graph()) == RUNNING_RESULT_GV

    def test_empty_graph_emits_empty_body(self):
        text = emit_gv(empty_graph())
        assert text.startswith("digraph {")
        assert "// ports:" in text
        assert is_isomorphic(parse_gv(text), empty_graph())

    def test_emit_is_deterministic(self):
        g = random_graph(random.Random(5))
        assert emit_gv(g) == emit_gv(g)

    def test_isomorphic_graphs_emit_identical_text(self):
        g = running_result_graph()
        from gexpand import rename_nodes

        h = rename_nodes(g, {v: f"zz{v}" for v in g.nodes})
        assert emit_gv(g) == emit_gv(h)

    def test_wildcard_labels_rejected(self):
        from gexpand import Graph

        g = Graph([], {"a": None})
        with pytest.raises(ValueError):
            emit_gv(g)


class TestRoundTrip:
    @given(seeds)
    @settings(max_examples=100, deadline=None)
    def test_parse_after_emit_preserves_graph(self, s):
        g = random_graph(random.Random(s))
        h = parse_gv(emit_gv(g))
        assert is_isomorphic(g, h)

    @given(seeds)
    @settings(max_examples=50, deadline=None)
    def test_emit_is_a_fixed_point(self, s):
        g = random_graph(random.Random(s))
        text = emit_gv(g)
        assert emit_gv(parse_gv(text)) == text


# Label text that DOT syntax gives a meaning to, plus non-ASCII text.
label_text = st.text(
    st.sampled_from(['"', "\\", "/", "-", ">", "[", "]", "=", ";", "{", "}",
                     " ", "a", "é", "→", "😀"]) | st.characters(),
    max_size=12,
)


def writable(label: str) -> bool:
    return not label.endswith("\\") and label.splitlines() in ([], [label])


class TestLabelText:
    def test_quotes_come_back(self):
        g = Graph([("a", 'says "so"', "b")],
                  {"a": 'say "hi"', "b": 'back\\"slash'}, ("a",))
        text = emit_gv(g)
        assert '[label="say \\"hi\\""]' in text
        h = parse_gv(text)
        assert sorted(h.labels.values()) == ['back\\"slash', 'say "hi"']
        assert [l for _s, l, _t in h.edges] == ['says "so"']

    @given(st.lists(label_text.filter(writable), min_size=1, max_size=4),
           label_text.filter(writable))
    @settings(max_examples=200, deadline=None)
    def test_emit_then_parse_keeps_labels(self, node_labels, edge_label):
        nodes = [f"v{i}" for i in range(len(node_labels))]
        g = Graph([(nodes[0], edge_label, nodes[-1])],
                  dict(zip(nodes, node_labels)), nodes[:1])
        text = emit_gv(g)
        h = parse_gv(text)
        assert is_isomorphic(g, h)
        assert emit_gv(h) == text

    @pytest.mark.parametrize("label", ["ends in \\", "two\nlines", "cr\r"])
    def test_unwritable_label_rejected(self, label):
        with pytest.raises(ValueError):
            emit_gv(Graph([], {"a": label}))
        with pytest.raises(ValueError):
            emit_gv(Graph([("a", label, "a")], {"a": "x"}))

    def test_each_distinct_label_is_quoted_once(self, monkeypatch):
        quoted = []
        real = gvio._quote

        def counted(text):
            quoted.append(text)
            return real(text)

        monkeypatch.setattr(gvio, "_quote", counted)
        nodes = [f"v{i}" for i in range(6)]
        g = Graph([(v, "e", w) for v, w in zip(nodes, nodes[1:])]
                  + [(nodes[0], 'say "x"', nodes[0])],
                  {v: "ab"[i % 2] for i, v in enumerate(nodes)}, nodes[:1])
        text = emit_gv(g)
        assert sorted(quoted) == ["a", "b", "e", 'say "x"']
        assert '[label="say \\"x\\""]' in text
