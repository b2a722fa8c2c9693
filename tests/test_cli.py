"""End-to-end tests for the text formats and the command line."""

from __future__ import annotations

import gc
import itertools
import json
import math
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from orbitcsp.cli import (
    ARITY_LIMIT,
    SUPERSET_LIMIT,
    _COMMANDS,
    _build_parser,
    _HomogReader,
    _format_signed,
    main,
    parse_instance,
    parse_template,
    run,
)
from orbitcsp.errors import ArityMismatch, OrbitCspError, ParseError
from orbitcsp.homog import GRAPH, TOURNAMENT, HomogTemplate, Label, kfree, type_set_relation
from orbitcsp.polyengine import WNU, OpTable, preserves_op, satisfies_identities
from orbitcsp.temporal import TemporalTemplate, WeakOrderType, build_afin

from oracles import (
    format_instance,
    format_template,
    from_pair_labels,
    is_injective,
    pair_label,
    reference_read_homog_type,
)

TEMPORAL_TEXT = "base: temporal\nrel Betw/3: 1<2<3; 3<2<1\nrel LT/2: 1<2\n"
LT_TEXT = "base: temporal\nrel LT/2: 1<2\n"
ARC_TEXT = "base: tournament\nrel ARC/2: 1->2\n"
GRAPH_TEXT = "base: graph\nrel E/2: E(1,2)\nrel N/2: -\n"
GOLDEN = Path(__file__).parent / "golden"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestParseTemplate:
    def test_temporal_relations_and_types(self):
        template = parse_template(TEMPORAL_TEXT)
        assert isinstance(template, TemporalTemplate)
        assert set(template.relations) == {"Betw", "LT"}
        betw = template.relations["Betw"]
        assert betw.arity == 3
        assert set(betw.types) == {
            WeakOrderType((0, 1, 2)),
            WeakOrderType((2, 1, 0)),
        }

    def test_tournament_arcs(self):
        template = parse_template(ARC_TEXT)
        assert isinstance(template, HomogTemplate)
        (t,) = template.relations["ARC"].sorted_types()
        assert pair_label(t, 0, 1) is Label.FWD
        assert pair_label(t, 1, 0) is Label.BWD

    def test_graph_edges_default_to_non_edges(self):
        template = parse_template(
            "base: graph\nrel R/3: E(1,2)\n"
        )
        (t,) = template.relations["R"].sorted_types()
        assert pair_label(t, 0, 1) is Label.E
        assert pair_label(t, 0, 2) is Label.N
        assert pair_label(t, 1, 2) is Label.N

    def test_merged_positions(self):
        template = parse_template("base: tournament\nrel R/3: 1=3, 1->2\n")
        (t,) = template.relations["R"].sorted_types()
        assert t.partition == ((0, 2), (1,))
        assert pair_label(t, 0, 1) is Label.FWD
        assert pair_label(t, 2, 1) is Label.FWD

    def test_dash_is_the_identity_literal(self):
        template = parse_template("base: graph\nrel N/2: -\n")
        (t,) = template.relations["N"].sorted_types()
        assert is_injective(t) and pair_label(t, 0, 1) is Label.N

    def test_comments_and_blank_lines_skipped(self):
        decorated = "# order\n\nbase: temporal\n\n# the relation\nrel LT/2: 1<2\n"
        assert format_template(parse_template(decorated)) == LT_TEXT

    def test_kfree_header(self):
        template = parse_template("base: kfree(4)\nrel EDGE/2: E(1,2)\n")
        assert template.base.forbidden == 4

    @pytest.mark.parametrize(
        "text",
        [
            "rel LT/2: 1<2\n",                            # missing header
            "base: rings\nrel LT/2: 1<2\n",               # unknown base
            "base: temporal\nLT: 1<2\n",                  # malformed rel line
            "base: temporal\nrel LT/2: 1<2\nrel LT/2: 1<2\n",  # duplicate
            "base: temporal\nrel LT/2: 1<3\n",            # position out of range
            "base: temporal\nrel LT/2: 1<2;\n",           # empty literal
            "base: temporal\nrel LT/2: 1<1\n",            # position twice
            "base: temporal\nrel R/3: 1<2\nrel LT/2: 1<2\n",  # missing position
            "base: tournament\nrel R/2: 1<2\n",           # wrong literal kind
            "base: tournament\nrel R/3: 1->2\n",          # missing arc
            "base: tournament\nrel R/2: 1->2, 2->1\n",    # opposite arcs
            "base: tournament\nrel R/2: 1=2, 1->2\n",     # arc inside a block
            "base: graph\nrel R/2: 1->2\n",               # arcs need orientation
            "base: kfree(2)\nrel R/2: E(1,2)\n",          # forbidden size too small
        ],
    )
    def test_rejects(self, text):
        with pytest.raises(ParseError):
            parse_template(text)

    def test_kfree_clique_literal_rejected(self):
        text = "base: kfree(3)\nrel R/3: E(1,2), E(1,3), E(2,3)\n"
        with pytest.raises(ParseError):
            parse_template(text)

    def test_errors_carry_positions(self):
        with pytest.raises(ParseError) as info:
            parse_template("base: temporal\nrel LT/2: 1<2\nrel R/2: 2<9\n")
        assert info.value.line == 3
        assert "line 3" in str(info.value)


class TestParseInstance:
    def test_constraints_resolved(self):
        template = parse_template(LT_TEXT)
        instance = parse_instance("vars x y z\nLT(x,y)\nLT(y,z)\n", template)
        assert instance.variables == ("x", "y", "z")
        assert instance.constraints == (("LT", ("x", "y")), ("LT", ("y", "z")))

    def test_repeated_scope_variable_allowed(self):
        template = parse_template(LT_TEXT)
        instance = parse_instance("vars x\nLT(x,x)\n", template)
        assert instance.constraints == (("LT", ("x", "x")),)

    @pytest.mark.parametrize(
        "text",
        [
            "LT(x,y)\n",                   # missing vars header
            "varsity x y\nLT(x,y)\n",      # vars is a whole word
            "vars\nLT(x,y)\n",             # no variables
            "vars x x\n",                  # duplicate variable
            "vars x y\nGT(x,y)\n",         # unknown relation
            "vars x y\nLT(x,w)\n",         # unknown variable
            "vars x y\nLT x y\n",          # malformed constraint
        ],
    )
    def test_rejects(self, text):
        template = parse_template(LT_TEXT)
        with pytest.raises(ParseError):
            parse_instance(text, template)

    def test_arity_mismatch(self):
        template = parse_template(LT_TEXT)
        with pytest.raises(ArityMismatch):
            parse_instance("vars x y\nLT(x,y,y)\n", template)


class TestRoundTrip:
    @pytest.mark.parametrize(
        "text",
        [
            TEMPORAL_TEXT,
            LT_TEXT,
            ARC_TEXT,
            GRAPH_TEXT,
            "base: tournament\nrel R/3: 1=3, 1->2; 1->2, 1->3, 2->3\n",
            "base: graph\nrel S/3: -; 1=2, E(1,3)\n",
            "base: kfree(4)\nrel EDGE/2: -; E(1,2)\n",
            "base: temporal\nrel LT/2: 1<2\nrel R/3: 1<2=3; 2=3<1\n",
        ],
    )
    def test_format_parse_fixpoint(self, text):
        canonical = format_template(parse_template(text))
        assert format_template(parse_template(canonical)) == canonical

    def test_canonical_form_sorts_relations(self):
        scrambled = "base: temporal\nrel LT/2: 1<2\nrel A/2: 2<1\n"
        lines = format_template(parse_template(scrambled)).splitlines()
        assert lines[1].startswith("rel A/2") and lines[2].startswith("rel LT/2")

    def test_instance_round_trip(self):
        template = parse_template(ARC_TEXT)
        text = "vars a b c\nARC(a,b)\nARC(c,a)\n"
        instance = parse_instance(text, template)
        assert format_instance(instance) == text
        again = parse_instance(format_instance(instance), template)
        assert again == instance

    def test_homog_structural_round_trip(self):
        template = parse_template(GRAPH_TEXT)
        again = parse_template(format_template(template))
        assert again.base == template.base
        for name, rel in template.relations.items():
            assert again.relations[name].types == rel.types


@pytest.mark.parametrize("base", [TOURNAMENT, GRAPH], ids=str)
@settings(derandomize=True, max_examples=300, deadline=None)
@given(data=st.data())
def test_type_literal_reads_the_pairwise_definition(base, data):
    # Merges and labeled pairs rendered as one literal in a drawn item
    # order.  The parsed type, or its first error, must be the pairwise
    # definition over roots computed here: merges first, then each label
    # in item order, then the missing arcs.
    arity = data.draw(st.integers(1, 5))
    position = st.integers(0, arity - 1)
    labels = st.sampled_from(base.labels)
    merges = data.draw(st.lists(st.tuples(position, position), max_size=3))
    root = list(range(arity))  # the least position of each position's block
    for a, b in merges:
        low = min(root[a], root[b])
        root = [low if r in (root[a], root[b]) else r for r in root]
    pairs = data.draw(st.lists(st.tuples(position, position, labels), max_size=4))
    if data.draw(st.booleans()):
        # Also label every pair across blocks, so that most types are complete.
        pairs += [(a, b, data.draw(labels)) for a, b in itertools.combinations(range(arity), 2)
                  if root[a] != root[b]]
    items = [f"{a + 1}={b + 1}" for a, b in merges]
    arcs = []  # (a, b): the item labels the pair from a toward b
    for a, b, drawn in pairs:
        if drawn is Label.N:
            continue  # a non-edge is the default and has no item
        if drawn is Label.BWD:
            a, b = b, a
        arcs.append((a, b))
        items.append(f"{a + 1}->{b + 1}" if base.oriented else f"E({a + 1},{b + 1})")
    order = data.draw(st.permutations(range(len(items))))
    literal = ", ".join(items[i] for i in order) or "-"

    label = Label.FWD if base.oriented else Label.E
    default = None if base.oriented else Label.N
    given = {}

    def label_of(i, j):
        if root[i] == root[j]:
            return Label.EQ
        found = given.get((root[i], root[j]), default)
        if found is None:
            low, high = sorted((root[i], root[j]))
            raise ParseError(f"missing arc between {low + 1} and {high + 1}", 1, 1)
        return found

    def expected():
        for a, b in (arcs[i - len(merges)] for i in order if i >= len(merges)):
            ra, rb = root[a], root[b]
            if ra == rb:
                raise ParseError("pair label within a merged block", 1, 1)
            if given.setdefault((ra, rb), label) is not label:
                raise ParseError(f"conflicting labels between {a + 1} and {b + 1}", 1, 1)
            given[(rb, ra)] = label.flipped
        return from_pair_labels(arity, label_of)

    try:
        want = expected()
    except ParseError as exc:
        with pytest.raises(ParseError) as info:
            _HomogReader(arity, base, 1, 1).read(literal)
        assert str(info.value) == str(exc)
    else:
        got = _HomogReader(arity, base, 1, 1).read(literal)
        assert got == want
        assert got._block_index == want._block_index


def _relation_literals(data, base):
    """An arity and 2-8 literals over it that share items: arcs or edges
    on a few position pairs, '=' items, now and then a position above the
    arity, and stray characters."""
    arity = data.draw(st.integers(1, 5))
    position = st.sampled_from([*range(1, arity + 1)] * 3 + [arity + 1])
    merge = st.lists(position, min_size=2, max_size=3).map(lambda ps: "=".join(map(str, ps)))
    if base.oriented:
        arc = st.tuples(position, position).map(lambda ab: f"{ab[0]}->{ab[1]}")
    else:
        arc = st.tuples(position, position).map(lambda ab: f"E({ab[0]},{ab[1]})")
    pool = data.draw(st.lists(st.one_of(arc, arc, merge), min_size=1, max_size=6))
    literals = []
    for _ in range(data.draw(st.integers(2, 8))):
        items = data.draw(st.lists(st.sampled_from(pool), max_size=3))
        if data.draw(st.booleans()):
            # Also an item on every position pair, so that most types are complete.
            for a, b in itertools.combinations(range(1, arity + 1), 2):
                if data.draw(st.booleans()):
                    a, b = b, a
                if base.oriented:
                    items.append(f"{a}->{b}")
                elif data.draw(st.booleans()):
                    items.append(f"E({a},{b})")
        order = data.draw(st.permutations(range(len(items))))
        literal = data.draw(st.sampled_from([", ", ","])).join(items[i] for i in order) or "-"
        for _ in range(data.draw(st.integers(0, 2)) if data.draw(st.booleans()) else 0):
            at = data.draw(st.integers(0, len(literal)))
            stray = data.draw(st.sampled_from(list("0123456789->=,E()²")))
            literal = literal[:at] + stray + literal[at:]
        literals.append(literal)
    return arity, literals


@pytest.mark.parametrize("base", [TOURNAMENT, GRAPH, kfree(3)], ids=str)
@settings(derandomize=True, max_examples=200, deadline=None)
@given(data=st.data())
def test_reader_reads_each_literal_as_the_reference(base, data):
    # One reader per relation reads every literal, on past an error too,
    # and each must read as the reference reads it alone: the same type,
    # block vector and fingerprint, or the same error.  The template of
    # these relations must parse to the reference's relations, or stop at
    # the reference's first error.
    relations = [_relation_literals(data, base) for _ in range(data.draw(st.integers(1, 3)))]
    text = f"base: {base}\n" + "".join(f"rel R{r}/{arity}: {'; '.join(literals)}\n"
                                        for r, (arity, literals) in enumerate(relations))
    first_error, reference = None, {}
    for r, (arity, literals) in enumerate(relations):
        line = text.splitlines()[r + 1]
        line_no, column = r + 2, line.index(":") + 2
        reader = _HomogReader(arity, base, line_no, column)
        types = []
        for literal in (lit.strip() for lit in literals):
            try:
                want = reference_read_homog_type(literal, arity, base, line_no, column)
            except ParseError as exc:
                first_error = first_error or str(exc)
                with pytest.raises(ParseError) as info:
                    reader.read(literal)
                assert str(info.value) == str(exc)
                continue
            got = reader.read(literal)
            assert (got.partition, got.labels, got._block_index, got.fingerprint) == (
                want.partition, want.labels, want._block_index, want.fingerprint)
            types.append(want)
        if first_error is None:
            try:
                reference[f"R{r}"] = type_set_relation(arity, base, types).types
            except OrbitCspError as exc:
                first_error = str(ParseError(str(exc), line_no, column))
    if first_error is not None:
        with pytest.raises(ParseError) as info:
            parse_template(text)
        assert str(info.value) == first_error
    else:
        template = parse_template(text)
        assert {name: rel.types for name, rel in template.relations.items()} == reference


class CliFiles:
    """Runs commands against files materialised under tmp_path."""

    def __init__(self, tmp_path):
        self.tmp_path = tmp_path
        self.counter = 0

    def path(self, text):
        self.counter += 1
        target = self.tmp_path / f"input{self.counter}.txt"
        target.write_text(text)
        return str(target)


@pytest.fixture
def files(tmp_path):
    return CliFiles(tmp_path)


class TestClassifyCommand:
    def test_order_with_betweenness_is_hard(self, files):
        report, code = run(["classify", files.path(TEMPORAL_TEXT)])
        lines = report.splitlines()
        assert lines[0] == "verdict: NP_COMPLETE"
        assert code == 1
        labels = [line.split()[1] for line in lines[1:]]
        assert labels == ["PP", "DUAL_PP", "LL", "DUAL_LL"]

    def test_counterexample_marks_each_sign_against_the_zero_point(self):
        # The last position is the zero point: 1 sits on it, 2 above, 3 below.
        assert _format_signed(WeakOrderType((1, 2, 0, 1))) == "3<1<2 [0+-]"

    def test_plain_order_is_polynomial(self, files):
        report, code = run(["classify", files.path(LT_TEXT)])
        assert report == "verdict: P\nmode: PP\n"
        assert code == 0

    def test_tournament_arc_has_bounded_width(self, files):
        report, code = run(["classify", files.path(ARC_TEXT)])
        lines = report.splitlines()
        assert lines[0] == "verdict: P_BOUNDED_WIDTH"
        assert lines[1] == "shape: TERNARY_MAJORITY"
        assert "behavior EQ,EQ,EQ: EQ" in lines
        assert code == 0

    def test_graph_edge_has_bounded_width(self, files):
        report, code = run(["classify", files.path(GRAPH_TEXT)])
        assert report.splitlines()[0] == "verdict: P_BOUNDED_WIDTH"
        assert code == 0

    def test_hard_tournament_reduct(self, files):
        text = "base: tournament\nrel R/3: 1->2, 3->1, 3->2; 2->1, 1->3, 3->2; 2->1, 3->1, 2->3\n"
        report, code = run(["classify", files.path(text)])
        assert report.splitlines()[0] == "verdict: NP_COMPLETE"
        assert code == 1

    def test_classify_rejects_clique_free_bases(self, files):
        text = "base: kfree(3)\nrel EDGE/2: E(1,2)\n"
        report, code = run(["classify", files.path(text)])
        assert report.startswith("error:")
        assert code == 2


class TestSolveCommand:
    def test_chain_is_satisfiable(self, files):
        template = files.path(LT_TEXT)
        instance = files.path("vars x y z\nLT(x,y)\nLT(y,z)\n")
        report, code = run(["solve", template, instance])
        assert report == "mode: PP\nresult: SAT\nlevels: [x][y][z]\n"
        assert code == 0

    def test_cycle_is_unsat(self, files):
        template = files.path(LT_TEXT)
        instance = files.path("vars x y\nLT(x,y)\nLT(y,x)\n")
        report, code = run(["solve", template, instance])
        assert "result: UNSAT" in report
        assert code == 1

    def test_mode_flag_and_oracle_flag(self, files):
        template = files.path(LT_TEXT)
        instance = files.path("vars x y\nLT(x,y)\n")
        report, code = run(["solve", template, instance, "--mode", "ll", "--oracle"])
        lines = report.splitlines()
        assert lines[0] == "mode: LL"
        assert "oracle: AGREE" in lines
        assert code == 0

    def test_hard_template_falls_back_to_oracle(self, files):
        template = files.path(TEMPORAL_TEXT)
        instance = files.path("vars x y z\nBetw(x,y,z)\n")
        report, code = run(["solve", template, instance])
        lines = report.splitlines()
        assert lines[0] == "mode: ORACLE"
        assert lines[1] == "result: SAT"
        assert code == 0

    def test_tournament_three_cycle(self, files):
        template = files.path(ARC_TEXT)
        instance = files.path("vars a b c\nARC(a,b)\nARC(b,c)\nARC(c,a)\n")
        report, code = run(["solve", template, instance])
        lines = report.splitlines()
        assert lines[0] == "result: SAT"
        assert lines[1].startswith("labeling: ")
        assert code == 0

    def test_antisymmetry_unsat(self, files):
        template = files.path(ARC_TEXT)
        instance = files.path("vars a b\nARC(a,b)\nARC(b,a)\n")
        report, code = run(["solve", template, instance])
        assert report == "result: UNSAT\n"
        assert code == 1

    def test_flags_do_not_leak_between_calls(self, files):
        # Several run() calls in one process share no flag state.
        template = files.path(LT_TEXT)
        instance = files.path("vars x y\nLT(x,y)\n")
        report, code = run(["solve", template, instance, "--mode", "ll"])
        assert (report.splitlines()[0], code) == ("mode: LL", 0)
        report, code = run(["solve", template, instance])
        assert report == "mode: PP\nresult: SAT\nlevels: [x][y]\n"
        assert code == 0
        assert run(["solve", template, instance, "--mode", "lex"]) == ("", 2)
        assert run(["solve", template, instance]) == (report, 0)

    def test_mode_flag_rejected_for_tournaments(self, files):
        template = files.path(ARC_TEXT)
        instance = files.path("vars a b\nARC(a,b)\n")
        report, code = run(["solve", template, instance, "--mode", "pp"])
        assert report.startswith("error:")
        assert code == 2


class TestFreesetsCommand:
    def test_reports_one_line_per_variable(self, files):
        template = files.path(LT_TEXT)
        instance = files.path("vars x y\nLT(x,y)\n")
        report, code = run(["freesets", template, instance])
        assert report == "free x: {x}\nfree y: NONE\n"
        assert code == 0

    def test_rejects_homogeneous_templates(self, files):
        template = files.path(ARC_TEXT)
        instance = files.path("vars a b\nARC(a,b)\n")
        report, code = run(["freesets", template, instance])
        assert code == 2


class TestAfinCommand:
    def test_plain_order(self, files):
        report, code = run(["afin", files.path(LT_TEXT)])
        assert report == "LT: (Z,P) (P,P)\nZ: (Z)\nP: (P)\n"
        assert code == 0

    def test_min_relation(self, files):
        text = "base: temporal\nrel LT/2: 1<2\nrel Rmin/3: 1<2=3; 1<2<3; 1<3<2\n"
        report, code = run(["afin", files.path(text)])
        assert "LT: (Z,P) (P,P)" in report
        rmin_line = next(l for l in report.splitlines() if l.startswith("Rmin:"))
        assert "(Z,P,P)" in rmin_line and "(P,P,P)" in rmin_line
        assert code == 0


class TestPolysearchCommand:
    def test_temporal_semilattice(self, files):
        report, code = run(
            ["polysearch", files.path(LT_TEXT), "--identity", "semilattice"]
        )
        assert report == "op: FOUND\narity: 2\ntable: 0,0,0,1\n"
        assert code == 0

    def test_temporal_cyclic_requires_arity(self, files):
        report, code = run(
            ["polysearch", files.path(LT_TEXT), "--identity", "cyclic"]
        )
        assert code == 2
        report, code = run(
            ["polysearch", files.path(LT_TEXT), "--identity", "cyclic", "--arity", "2"]
        )
        assert report.splitlines()[0] == "op: FOUND"
        assert code == 0

    def test_temporal_wnu(self, files):
        report, code = run(
            ["polysearch", files.path(LT_TEXT), "--identity", "wnu", "--arity", "3"]
        )
        assert report == "op: FOUND\narity: 3\ntable: 0,0,0,0,0,0,0,1\n"
        assert code == 0
        # The ternary minimum: a weak near-unanimity operation of Afin(LT).
        table = OpTable(3, 2, (0, 0, 0, 0, 0, 0, 0, 1))
        assert satisfies_identities(table, WNU)
        assert preserves_op(table, build_afin(parse_template(LT_TEXT)))

    @pytest.mark.parametrize("text,flags,error", [
        (LT_TEXT, [], "polysearch needs --identity for temporal templates"),
        (ARC_TEXT, [], "polysearch needs --shape for tournament and graph templates"),
        (LT_TEXT, ["--identity", "wnu"], "wnu needs --arity"),
        (LT_TEXT, ["--identity", "idempotent"], "idempotent needs --arity"),
    ])
    def test_missing_flag_is_a_one_line_error(self, files, text, flags, error):
        report, code = run(["polysearch", files.path(text)] + flags)
        assert report == f"error: {error}\n"
        assert code == 2

    @pytest.mark.parametrize("arity", ["0", "-1"])
    @pytest.mark.parametrize("identity,error", [
        ("idempotent", "arity must be at least 1, got {}"),
        ("siggers", "arity must be at least 1, got {}"),
        ("majority", "arity must be at least 1, got {}"),
        ("cyclic", "cyclic needs arity >= 2, got {}"),
    ])
    def test_arity_below_one_is_a_one_line_error(self, files, identity, error, arity):
        # --arity 0 is an arity, not a missing flag.
        report, code = run(["polysearch", files.path(LT_TEXT), "--identity", identity,
                            "--arity", arity])
        assert report == f"error: {error.format(arity)}\n"
        assert code == 2

    @pytest.mark.parametrize("arity", ["5", "4000", "100000", "1000000", "100000000"])
    @pytest.mark.parametrize("identity", ["idempotent", "cyclic"])
    def test_search_arity_over_budget_is_a_one_line_error(self, files, identity, arity):
        # The quotient of R has 3 rows; 3 ** 100000 row choices would be a
        # count of over 47 000 digits.
        template = files.path(LT_TEXT + "rel R/3: 1<2<3; 1=2<3; 1<2=3\n")
        assert run(["polysearch", template, "--identity", identity, "--arity", arity]) == (
            "error: table search budget is domain <= 4, arity <= 4\n", 2)

    def test_shape_search_on_tournament(self, files):
        report, code = run(
            ["polysearch", files.path(ARC_TEXT), "--shape", "majority"]
        )
        lines = report.splitlines()
        assert lines[0] == "op: FOUND"
        assert "behavior FWD,FWD,BWD: FWD" in lines
        assert code == 0

    def test_shape_search_failure_exits_one(self, files):
        text = "base: tournament\nrel R/3: 1->2, 3->1, 3->2; 2->1, 1->3, 3->2; 2->1, 3->1, 2->3\n"
        report, code = run(["polysearch", files.path(text), "--shape", "majority"])
        assert report == "op: NONE\n"
        assert code == 1

    def test_flag_base_mismatch(self, files):
        report, code = run(
            ["polysearch", files.path(ARC_TEXT), "--identity", "majority"]
        )
        assert code == 2
        report, code = run(
            ["polysearch", files.path(LT_TEXT), "--shape", "majority"]
        )
        assert code == 2


class TestConsistencyCommand:
    def test_consistent_state_reports_subsets(self, files):
        template = files.path(LT_TEXT)
        instance = files.path("vars x y z\nLT(x,y)\nLT(y,z)\n")
        report, code = run(["consistency", template, instance])
        assert report == "kl: 2,3\nstate: CONSISTENT\nsubsets: 6\n"
        assert code == 0

    def test_empty_derivation_exits_one(self, files):
        template = files.path(LT_TEXT)
        instance = files.path("vars x y\nLT(x,y)\nLT(y,x)\n")
        report, code = run(["consistency", template, instance])
        assert "state: EMPTY_DERIVED" in report
        assert code == 1

    def test_kl_flag(self, files):
        template = files.path(ARC_TEXT)
        instance = files.path("vars a b c\nARC(a,b)\nARC(b,c)\n")
        report, code = run(["consistency", template, instance, "--kl", "3,4"])
        assert report.splitlines()[0] == "kl: 3,4"
        assert code == 0

    def test_bad_kl_value(self, files):
        template = files.path(LT_TEXT)
        instance = files.path("vars x y\nLT(x,y)\n")
        report, code = run(["consistency", template, instance, "--kl", "wide"])
        assert code == 2

    def test_non_ascii_kl_is_a_one_line_error(self, files):
        # U+0662 and U+0663 are digits to int(), not to the --kl grammar.
        template = files.path(LT_TEXT)
        instance = files.path("vars x y\nLT(x,y)\n")
        report, code = run(["consistency", template, instance, "--kl", "\u0662,\u0663"])
        assert (report, code) == ("error: --kl expects K,L\n", 2)

    @pytest.mark.parametrize("kl", ["1," + "9" * 5000, "9" * 5000 + ",3", f"2,{ARITY_LIMIT + 1}"],
                             ids=["huge-l", "huge-k", "above-limit"])
    def test_oversized_kl_is_a_one_line_error(self, files, kl):
        # 5000 digits is more than int() accepts.
        template = files.path(LT_TEXT)
        instance = files.path("vars x y\nLT(x,y)\n")
        report, code = run(["consistency", template, instance, "--kl", kl])
        assert (report, code) == (f"error: --kl needs K,L <= {ARITY_LIMIT}\n", 2)

    @pytest.mark.parametrize("text,relation,n,kl", [
        (ARC_TEXT, "ARC", 7, "2,7"),
        (LT_TEXT, "LT", 9, "2,9"),
    ])
    def test_over_budget_kl_is_a_one_line_error(self, files, text, relation, n, kl):
        names = [f"v{i}" for i in range(n)]
        chain = "".join(f"{relation}({a},{b})\n" for a, b in zip(names, names[1:]))
        instance = files.path(f"vars {' '.join(names)}\n{chain}")
        report, code = run(["consistency", files.path(text), instance, "--kl", kl])
        assert code == 2
        assert report.startswith(f"error: (k,l) = ({kl}) needs patterns of arity {n}: ")
        assert report.count("\n") == 1

    @staticmethod
    def arc_chain(files, n):
        names = [f"v{i}" for i in range(n)]
        chain = "".join(f"ARC({a},{b})\n" for a, b in zip(names, names[1:]))
        return files.path(f"vars {' '.join(names)}\n{chain}")

    @staticmethod
    def supersets(n, l):
        return sum(math.comb(n, m) for m in range(1, min(l, n) + 1))

    @pytest.mark.parametrize("n,l", [(85, 3), (40, 6)])
    def test_too_many_supersets_is_a_one_line_error(self, files, n, l):
        # 40 variables at (2,6) make 4 598 478 supersets; refused at once.
        assert self.supersets(n, l) > SUPERSET_LIMIT
        instance = self.arc_chain(files, n)
        report, code = run(["consistency", files.path(ARC_TEXT), instance, "--kl", f"2,{l}"])
        assert (report, code) == (
            f"error: (k,l) = (2,{l}) on {n} variables needs more than {SUPERSET_LIMIT} "
            "supersets\n", 2)

    def test_superset_count_at_the_limit_is_accepted(self, files):
        assert self.supersets(84, 3) <= SUPERSET_LIMIT < self.supersets(85, 3)
        instance = self.arc_chain(files, 84)
        report, code = run(["consistency", files.path(ARC_TEXT), instance])
        assert (report, code) == ("kl: 2,3\nstate: CONSISTENT\nsubsets: 3570\n", 0)


class TestOracleCommand:
    def test_temporal(self, files):
        template = files.path(LT_TEXT)
        instance = files.path("vars x y\nLT(x,y)\n")
        report, code = run(["oracle", template, instance])
        assert report == "result: SAT\nlevels: [x][y]\n"
        assert code == 0

    def test_clique_free_triangle(self, files):
        template = files.path("base: kfree(3)\nrel EDGE/2: E(1,2)\n")
        instance = files.path("vars a b c\nEDGE(a,b)\nEDGE(b,c)\nEDGE(c,a)\n")
        report, code = run(["oracle", template, instance])
        assert report == "result: UNSAT\n"
        assert code == 1


class TestRunHarness:
    def test_deterministic_output(self, files):
        template = files.path(TEMPORAL_TEXT)
        first = run(["classify", template])
        second = run(["classify", template])
        assert first == second

    def test_missing_file(self):
        report, code = run(["classify", "/nonexistent/template.txt"])
        assert report.startswith("error:")
        assert code == 2

    def test_parse_error_reported_with_position(self, files):
        template = files.path("base: temporal\nrel LT/2: 1<9\n")
        report, code = run(["classify", template])
        assert report.startswith("error: line 2")
        assert code == 2

    @pytest.mark.parametrize("command,template,instance,error", [
        ("classify", "base: temporal\nrel LT/2: 1<x\n", None,
         "line 2, column 10: expected a position number, got 'x'"),
        ("classify", "base: graph\nrel R/0: -\n", None,
         "line 2, column 5: relations need arity >= 1"),
        ("oracle", LT_TEXT, "vars x 1y\nLT(x,x)\n",
         "line 1, column 5: bad variable name '1y'"),
        # Not the variables ity, x and y.
        ("oracle", ARC_TEXT, "varsity x y\nARC(x,y)\n",
         "line 1, column 1: expected a 'vars' header"),
        # An empty argument list holds no argument, not one empty name.
        ("solve", LT_TEXT, "vars x y\nLT()\n", "line 2: LT has arity 2, got 0"),
        ("solve", LT_TEXT + "rel U/1: 1\n", "vars x y\nU( )\n",
         "line 2: U has arity 1, got 0"),
        # Digits that int() refuses: '²', and more than 4300 of them.
        ("classify", "base: temporal\nrel R/2: 1<²\n", None,
         "line 2, column 9: expected a position number, got '²'"),
        ("classify", "base: tournament\nrel R/2: 1->²\n", None,
         "line 2, column 9: expected a position number, got '²'"),
        ("classify", f"base: temporal\nrel R/2: 1<{'9' * 5000}\n", None,
         f"line 2, column 9: position {'9' * 5000} outside 1..2"),
        ("classify", f"base: graph\nrel R/2: E(1,{'9' * 5000})\n", None,
         f"line 2, column 9: position {'9' * 5000} outside 1..2"),
        # Digits that int() reads but the grammar refuses: only ASCII 0-9.
        # U+0662 and U+0663 are the Arabic-Indic digits two and three.
        ("classify", LT_TEXT + "rel R/\u0662: 1<\u0662\n", None,
         "line 3, column 1: expected 'rel NAME/ARITY: types'"),
        ("classify", "base: kfree(\u0663)\nrel R/2: E(1,2)\n", None,
         "line 1, column 7: unknown base 'kfree(\u0663)'"),
        ("classify", "base: graph\nrel R/2: E(1,\u0662)\n", None,
         "line 2, column 9: expected an edge, got 'E(1,\u0662)'"),
        ("classify", "base: temporal\nrel R/2: 1<\u0662\n", None,
         "line 2, column 9: expected a position number, got '\u0662'"),
    ])
    def test_malformed_input_is_a_one_line_error(self, files, command, template,
                                                 instance, error):
        argv = [command, files.path(template)]
        if instance is not None:
            argv.append(files.path(instance))
        report, code = run(argv)
        assert report == f"error: {error}\n"
        assert code == 2

    @pytest.mark.parametrize("text,error", [
        ("base: tournament\nrel R/2: 1->2, 2->1\n",
         "line 2, column 9: conflicting labels between 2 and 1"),
        ("base: tournament\nrel R/3: 1=2, 1->2, 1->3\n",
         "line 2, column 9: pair label within a merged block"),
        ("base: tournament\nrel R/2: E(1,2)\n",
         "line 2, column 9: expected an arc, got 'E(1,2)'"),
        ("base: graph\nrel R/2: 1->2\n",
         "line 2, column 9: expected an edge, got '1->2'"),
        ("base: tournament\nrel R/3: 1->2, 2->3\n",
         "line 2, column 9: missing arc between 1 and 3"),
        ("base: kfree(3)\nrel R/3: E(1,2), E(2,3), E(1,3)\n",
         "line 2, column 9: type contains a forbidden clique"),
        ("base: temporal\nrel LT/2: 1<2\nrel R/3: 1<2=1<3\n",
         "line 3, column 9: position 1 listed twice"),
    ], ids=["conflict", "merged-block", "arc-expected", "edge-expected", "missing-arc",
            "forbidden-clique", "listed-twice"])
    def test_type_literal_error_is_one_exact_line(self, files, text, error):
        assert run(["classify", files.path(text)]) == (f"error: {error}\n", 2)

    @pytest.mark.parametrize("command,template,instance", [
        ("classify", b"base: temporal\nrel LT/2: 1<2\xff", None),
        ("solve", LT_TEXT.encode(), b"vars x y\nLT(x,y)\xff\n"),
    ])
    def test_non_utf8_input_is_a_one_line_error(self, tmp_path, command,
                                                template, instance):
        argv = [command]
        for name, data in (("template", template), ("instance", instance)):
            if data is not None:
                (tmp_path / name).write_bytes(data)
                argv.append(str(tmp_path / name))
        # The undecodable file is the last one given.
        report, code = run(argv)
        assert report.startswith(f"error: {argv[-1]}: 'utf-8' codec can't decode byte 0xff")
        assert report.count("\n") == 1
        assert code == 2

    def test_unknown_command(self):
        report, code = run(["improvise"])
        assert code == 2

    @pytest.mark.parametrize("columns", ["40", "80", "200"])
    @pytest.mark.parametrize("argv", [
        [], ["--help"], ["-h"], *([command, "--help"] for command in _COMMANDS),
        ["improvise"], ["classify"], ["solve", "t"], ["consistency"],
        ["solve", "t", "i", "--mode", "lex"], ["polysearch", "t", "--shape", "round"],
        ["polysearch", "t", "--identity", "wnu", "--arity", "z"],
        # --arity takes ASCII digits and a minus sign only.
        *(["polysearch", "t", "--identity", "wnu", "--arity", arity]
          for arity in ["\u0663", " 3", "+3", "3_0", "3 ", "9" * 5000]),
        ["classify", "t", "--kl", "2,3"],
    ], ids=lambda argv: " ".join(argv)[:60])
    def test_help_and_usage_match_a_fresh_parser(self, files, capsys, monkeypatch,
                                                 columns, argv):
        # The shared parser prints what a parser built for this call would,
        # at this call's width, before and after a successful command.
        monkeypatch.setenv("COLUMNS", columns)
        with pytest.raises(SystemExit) as exit_info:
            _build_parser().parse_args(argv)
        expected = ("", exit_info.value.code or 0, *capsys.readouterr())
        template, instance = files.path(LT_TEXT), files.path("vars x y\nLT(x,y)\n")
        for _ in range(2):
            assert (*run(argv), *capsys.readouterr()) == expected
            assert run(["solve", template, instance])[1] == 0
            capsys.readouterr()

    def test_run_leaves_no_cyclic_garbage(self, files):
        lt = files.path(LT_TEXT)
        instance = files.path("vars x y z\nLT(x,y)\nLT(y,z)\n")
        calls = [["classify", files.path(ARC_TEXT)], ["consistency", lt, instance],
                 ["solve", lt, instance]]
        # The brute searches: solve and oracle over each homogeneous base,
        # and the weak-order scan of the temporal oracle.
        for text, constraints in ((ARC_TEXT, "ARC(x,y)\nARC(y,z)\n"),
                                  (GRAPH_TEXT, "E(x,y)\nN(y,z)\n"),
                                  ("base: kfree(3)\nrel E/2: E(1,2)\n", "E(x,y)\nE(y,z)\n")):
            template = files.path(text)
            homog_instance = files.path("vars x y z\n" + constraints)
            calls += [["solve", template, homog_instance], ["oracle", template, homog_instance]]
        calls.append(["oracle", files.path(TEMPORAL_TEXT),
                      files.path("vars a b c\nBetw(a,b,c)\nLT(a,b)\n")])
        for argv in calls:  # fills the process-wide caches
            run(argv)
        gc.collect()
        gc.disable()
        try:
            for argv in calls:
                for _ in range(20):
                    assert run(argv)[1] == 0
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize("command,template,instance,flags,error", [
        ("freesets", ARC_TEXT, "vars a b\nARC(a,b)\n", [],
         "freesets applies to temporal templates"),
        ("afin", ARC_TEXT, None, [], "afin applies to temporal templates"),
        ("solve", ARC_TEXT, "vars a b\nARC(a,b)\n", ["--mode", "ll"],
         "--mode applies to temporal templates"),
        ("polysearch", LT_TEXT, None, ["--shape", "majority"],
         "--shape applies to tournament and graph templates"),
        ("polysearch", ARC_TEXT, None, ["--identity", "majority"],
         "--identity applies to temporal templates"),
        # The instance is read before the command checks the base.
        ("freesets", ARC_TEXT, "vars a b\nNOPE(a,b)\n", [],
         "line 2, column 1: unknown relation NOPE"),
        ("polysearch", ARC_TEXT, None, ["--shape", "majority", "--arity", "3"],
         "--arity applies to temporal templates"),
        ("polysearch", GRAPH_TEXT, None, ["--shape", "sl_e", "--arity", "2"],
         "--arity applies to temporal templates"),
    ])
    def test_command_base_mismatch_is_a_one_line_error(self, files, command, template,
                                                       instance, flags, error):
        argv = [command, files.path(template)]
        if instance is not None:
            argv.append(files.path(instance))
        assert run(argv + flags) == (f"error: {error}\n", 2)

    @pytest.mark.parametrize("text", [
        "base: temporal\nrel BIG/2000000000: 1<2\nrel LT/2: 1<2\n",
        "base: tournament\nrel BIG/2000000000: 1->2\n",
        "base: graph\nrel BIG/2000000000: E(1,2)\n",
        "base: temporal\nrel BIG/" + "9" * 5000 + ": 1<2\n",
    ])
    def test_huge_arity_rejected_before_allocation(self, files, text):
        report, code = run(["classify", files.path(text)])
        assert report == f"error: line 2, column 5: relations need arity <= {ARITY_LIMIT}\n"
        assert code == 2

    def test_arity_limit_is_inclusive(self):
        wide = "<".join(str(p) for p in range(1, ARITY_LIMIT + 1))
        template = parse_template(f"base: temporal\nrel R/{ARITY_LIMIT}: {wide}\n"
                                  "rel LT/0002: 1<2\n")
        assert template.relations["R"].arity == ARITY_LIMIT
        assert template.relations["LT"].arity == 2

    @pytest.mark.parametrize("command", [["classify"], ["polysearch", "--shape", "minority"]])
    def test_too_many_closure_checks_are_a_one_line_error(self, files, command):
        # 128 five-ary tournament types: 128^3 = 2^21 checks per ternary shape.
        pairs = [(i, j) for i in range(1, 6) for j in range(i + 1, 6)]
        literals = [
            ", ".join(f"{i}->{j}" if bits >> b & 1 else f"{j}->{i}"
                      for b, (i, j) in enumerate(pairs))
            for bits in range(128)
        ]
        template = files.path("base: tournament\nrel WIDE/5: " + "; ".join(literals) + "\n")
        report, code = run([command[0], template] + command[1:])
        assert report == ("error: relation WIDE needs 2097152 closure checks at arity 3; "
                          "the cap is 1048576\n")
        assert code == 2

    @staticmethod
    def bottom_first(k):
        # One type per nonempty position set B: B at the bottom, then the
        # other positions in ascending order.  The quotient holds all 2^k rows.
        literals = []
        for size in range(1, k + 1):
            for bottom in itertools.combinations(range(1, k + 1), size):
                rest = [p for p in range(1, k + 1) if p not in bottom]
                literals.append("=".join(map(str, bottom)) + "".join(f"<{p}" for p in rest))
        return f"base: temporal\nrel LT/2: 1<2\nrel R/{k}: " + "; ".join(literals) + "\n"

    @pytest.mark.parametrize("command,k,flags,error", [
        # The siggers shortcut's own check would read 32^6 row choices.
        ("polysearch", 5, ["--identity", "siggers"],
         "a relation of 32 rows needs 1073741824 row choices at arity 6; the cap is 262144"),
        # One 9-ary constraint: classifying its quotient reads 512^3.
        ("freesets", 9, [],
         "a relation of 512 rows needs 134217728 row choices at arity 3; the cap is 262144"),
        ("polysearch", 9, ["--identity", "idempotent", "--arity", "3"],
         "a relation of 512 rows needs 134217728 row choices at arity 3; the cap is 262144"),
    ])
    def test_over_budget_quotient_is_a_one_line_error(self, files, command, k, flags, error):
        argv = [command, files.path(self.bottom_first(k))]
        if command == "freesets":
            names = [f"x{i}" for i in range(k)]
            argv.append(files.path(f"vars {' '.join(names)}\nR({','.join(names)})\n"))
        assert run(argv + flags) == (f"error: {error}\n", 2)

    @pytest.mark.parametrize("command,flags", [
        ("classify", []), ("solve", []), ("solve", ["--mode", "pp"]),
    ])
    def test_temporal_relation_over_the_preservation_budget_is_a_one_line_error(
            self, files, command, flags):
        argv = [command, files.path(LT_TEXT + "rel W/7: 1<2<3<4<5<6<7\n")]
        if command == "solve":
            argv.append(files.path("vars x y\nLT(x,y)\n"))
        assert run(argv + flags) == (
            "error: relation W has arity 7; preservation tests take arity <= 6\n", 2)

    @pytest.mark.parametrize("text,error", [
        ("base: graph\nrel R/4096: -\n",
         "line 2, column 12: relation R holds 8386560 pair labels; the cap is 65536"),
        ("base: graph\nrel R/1024: -\n",
         "line 2, column 12: relation R holds 523776 pair labels; the cap is 65536"),
        ("base: graph\nrel R/363: -\n",
         "line 2, column 11: relation R holds 65703 pair labels; the cap is 65536"),
        ("base: tournament\nrel R/2000: " + "=".join(map(str, range(1, 2001))) + "\n",
         "line 2, column 12: relation R holds 1999000 pair labels; the cap is 65536"),
        ("base: kfree(3)\nrel R/400: -\n",
         "line 2, column 11: relation R holds 79800 pair labels; the cap is 65536"),
        ("base: kfree(3)\nrel R/4096: -\n",
         "line 2, column 12: relation R holds 8386560 pair labels; the cap is 65536"),
        # 101 types of arity 80.
        ("base: graph\nrel R/80: " + "; ".join(f"E(1,{j})" for j in range(2, 81))
         + "; " + "; ".join(f"E(2,{j})" for j in range(3, 25)) + "\n",
         "line 2, column 10: relation R holds 319160 pair labels; the cap is 65536"),
        # 20 types of arity 80: 20^3 checks of 3160 position pairs each.
        ("base: graph\nrel R/80: " + "; ".join(f"E(1,{j})" for j in range(2, 22)) + "\n",
         "the closure checks at arity 3 read 25280000 table cells; the cap is 4194304"),
        # K(91,90) has no triangle, but its test reads 91 * C(90, 2) pairs.
        ("base: kfree(3)\nrel R/181: " + ", ".join(
            f"E({i},{j})" for i in range(1, 91) for j in range(91, 182)) + "\n",
         "line 2, column 11: the 3-clique tests of the types read 364455 block sets; "
         "the cap is 262144"),
        ("base: kfree(4097)\nrel R/2: E(1,2)\n", "line 1, column 7: kfree(n) needs n <= 4096"),
        ("base: kfree(" + "9" * 5000 + ")\nrel R/2: E(1,2)\n",
         "line 1, column 7: kfree(n) needs n <= 4096"),
    ], ids=["graph-4096", "graph-1024", "graph-363", "tournament-2000", "kfree-400",
            "kfree-4096", "graph-101x80", "graph-20x80", "kfree-bipartite-181",
            "kfree-bound-4097", "kfree-bound-5000-digits"])
    def test_oversized_homogeneous_template_is_a_one_line_error(self, files, text, error):
        assert run(["classify", files.path(text)]) == (f"error: {error}\n", 2)

    def test_pair_label_limit_is_inclusive(self):
        # 362 * 361 / 2 = 65341 pair labels, the most an identity literal
        # may hold under the cap.
        template = parse_template("base: graph\nrel R/362: -\n")
        assert template.relations["R"].arity == 362

    def test_arity_error_reported(self, files):
        template = files.path(LT_TEXT)
        instance = files.path("vars x y\nLT(x)\n")
        report, code = run(["solve", template, instance])
        assert report.startswith("error:")
        assert code == 2


@pytest.mark.parametrize("command,template,instance,flags,code", [
    ("classify", "rmin.tmpl", None, [], 0),
    ("consistency", "arc.tmpl", "arc_sat.inst", ["--kl", "two"], 2),
])
def test_main_writes_the_golden_report_and_exits_with_its_code(
        monkeypatch, capsys, command, template, instance, flags, code):
    cases = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))
    (case,) = [case for case in cases if (case["command"], case["template"], case["instance"],
                                          case["flags"]) == (command, template, instance, flags)]
    assert case["exit"] == code
    files = [template] + ([instance] if instance else [])
    monkeypatch.setattr(sys, "argv", ["orbitcsp", command, *(str(GOLDEN / f) for f in files),
                                      *flags])
    with pytest.raises(SystemExit) as exit_info:
        main()
    assert (capsys.readouterr().out, exit_info.value.code) == (case["report"], code)
