"""Tests for labeled types, behavior search, and the reduct classifier."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from orbitcsp import homog
from orbitcsp.consistency import EMPTY_DERIVED, establish_kl
from orbitcsp.errors import (
    ArityMismatch,
    BudgetExceeded,
    DomainMismatch,
    MalformedPattern,
    ParameterError,
    ShapeUnsupported,
    SignatureMismatch,
    UnsupportedBase,
)
from orbitcsp.homog import (
    GRAPH,
    TOURNAMENT,
    Base,
    HomogPatterns,
    HomogTemplate,
    Label,
    LabeledType,
    PairBehavior,
    Shape,
    Verdict,
    VerdictKind,
    behavior_preserves,
    classify_reduct,
    confirm_no_behavior,
    enumerate_types,
    kfree,
    search_behavior,
    solve_instance_brute,
    type_set_relation,
)
from orbitcsp.relstruct import make_instance

from oracles import (
    G2_BEHAVIOR,
    behavior_image,
    from_pair_labels,
    labeled_type_count,
    reference_enumerate_types,
    reference_search_behavior,
    reference_solve_instance_brute,
)

EQ, F, B, E, N = Label.EQ, Label.FWD, Label.BWD, Label.E, Label.N


def inj(labels, k=None):
    """Injective type from its pair labels in lexicographic pair order."""
    labels = tuple(labels)
    if k is None:
        k = {1: 2, 3: 3, 6: 4}[len(labels)]
    return LabeledType(k, tuple((p,) for p in range(k)), labels)


def arc_relation():
    return type_set_relation(2, TOURNAMENT, [inj((F,))])


def parity_relation(base=TOURNAMENT):
    """Injective 4-types with an even number of first-label edges."""
    first = base.labels[0]
    types = [
        t
        for t in enumerate_types(4, base)
        if t.is_injective and sum(1 for l in t.labels if l is first) % 2 == 0
    ]
    return type_set_relation(4, base, types)


def one_of_three_relation(base):
    """Injective ternary types with exactly one first-label pair."""
    first = base.labels[0]
    types = [
        t
        for t in enumerate_types(3, base)
        if t.is_injective and sum(1 for l in t.labels if l is first) == 1
    ]
    return type_set_relation(3, base, types)


def naive_preserves(behavior, rel):
    """Direct definition of preservation, bypassing fingerprint sets."""
    for ts in itertools.product(sorted(rel.types), repeat=behavior.arity):
        if behavior_image(behavior, ts) not in rel.types:
            return False
    return True


def majority_of(labels):
    """First-biased majority: flip-equivariant even on two-label ties."""
    return labels[0] if labels.count(labels[0]) * 2 >= len(labels) else labels[1]


def random_relation(rng, base, arity, count):
    pool = enumerate_types(arity, base)
    return type_set_relation(arity, base, rng.sample(pool, min(count, len(pool))))


def random_instance(rng, template, max_vars=5, max_constraints=6):
    names = sorted(template.relations)
    n = rng.randint(2, max_vars)
    variables = tuple(f"v{i}" for i in range(n))
    constraints = []
    for _ in range(rng.randint(1, max_constraints)):
        name = rng.choice(names)
        arity = template.relations[name].arity
        constraints.append((name, tuple(rng.choice(variables) for _ in range(arity))))
    return make_instance(variables, constraints)


class TestLabel:
    def test_flip_is_an_involution(self):
        for label in Label:
            assert label.flipped.flipped is label

    def test_flip_swaps_arcs_and_fixes_graph_labels(self):
        assert F.flipped is B
        assert E.flipped is E
        assert N.flipped is N
        assert EQ.flipped is EQ


class TestBase:
    def test_alphabets(self):
        assert TOURNAMENT.labels == (F, B)
        assert GRAPH.labels == (E, N)
        assert kfree(3).labels == (E, N)
        assert TOURNAMENT.oriented and not GRAPH.oriented

    def test_invalid_bases(self):
        with pytest.raises(ParameterError):
            Base("ring")
        with pytest.raises(ParameterError):
            kfree(2)
        with pytest.raises(ParameterError):
            Base("graph", 3)


class TestLabeledType:
    def test_validation(self):
        with pytest.raises(MalformedPattern):
            LabeledType(2, ((0,),), ())  # missing position
        with pytest.raises(MalformedPattern):
            LabeledType(2, ((1,), (0,)), (F,))  # blocks out of order
        with pytest.raises(MalformedPattern):
            LabeledType(2, ((0,), (1,)), ())  # missing label
        with pytest.raises(MalformedPattern):
            LabeledType(2, ((0,), (1,)), (EQ,))  # EQ between blocks

    def test_label_orientation(self):
        t = inj((F,))
        assert t.label(0, 1) is F
        assert t.label(1, 0) is B
        assert t.label(0, 0) is EQ

    def test_fingerprint_block_order_flip(self):
        # blocks {0,3} and {1,2}: position pair (1,3) crosses the blocks in
        # the opposite order from the block indices, so the label flips
        t = LabeledType(4, ((0, 3), (1, 2)), (F,))
        assert t.label(0, 1) is F
        assert t.label(1, 3) is B
        assert t.label(0, 3) is EQ

    def test_from_pair_labels_round_trip(self):
        for t in enumerate_types(4, TOURNAMENT):
            rebuilt = from_pair_labels(4, t.label)
            assert rebuilt == t

    def test_from_pair_labels_rejects_intransitive_equalities(self):
        pairs = {(0, 1): EQ, (1, 2): EQ, (0, 2): E}
        with pytest.raises(MalformedPattern):
            from_pair_labels(3, lambda i, j: pairs[(i, j)])

    def test_from_pair_labels_rejects_inconsistent_merges(self):
        pairs = {(0, 1): EQ, (0, 2): E, (1, 2): N}
        with pytest.raises(MalformedPattern):
            from_pair_labels(3, lambda i, j: pairs[(i, j)])

    def test_permute_reverses_arcs(self):
        t = inj((F,))
        assert t.project((1, 0)) == inj((B,))
        assert t.project((1, 0)).project((1, 0)) == t

    def test_project_merges_repeats(self):
        t = inj((F, F, F))
        assert t.project((0, 0)) == LabeledType.all_equal(2)
        assert t.project((2, 0)) == inj((B,))

    def test_project_matches_pointwise_labels(self):
        rng = random.Random(11)
        types = enumerate_types(4, GRAPH)
        for _ in range(50):
            t = rng.choice(types)
            positions = tuple(rng.randrange(4) for _ in range(3))
            p = t.project(positions)
            for a, b in itertools.combinations(range(3), 2):
                assert p.label(a, b) is t.label(positions[a], positions[b])

    @pytest.mark.parametrize("base", [TOURNAMENT, GRAPH], ids=str)
    def test_project_equals_the_checked_construction(self, base):
        # project skips __post_init__'s checks; the parts it builds must
        # pass them and equal those of the pairwise construction.
        for t in enumerate_types(4, base):
            for m in (1, 2, 3):
                for positions in itertools.product(range(4), repeat=m):
                    p = t.project(positions)
                    expected = from_pair_labels(
                        m, lambda a, b: t.label(positions[a], positions[b]))
                    assert p == expected
                    assert hash(p) == hash(expected)
                    assert LabeledType(p.arity, p.partition, p.labels) == p

    @pytest.mark.parametrize("positions,error", [
        ((), MalformedPattern), ((0, 2), ParameterError), ((-1,), ParameterError)])
    def test_project_rejects_bad_positions(self, positions, error):
        with pytest.raises(error):
            inj((F,)).project(positions)

    def test_clique_detection(self):
        triangle = inj((E, E, E))
        assert triangle.has_clique(3)
        assert not inj((E, E, N)).has_clique(3)
        with pytest.raises(MalformedPattern):
            type_set_relation(3, kfree(3), [triangle])


class TestEnumerateTypes:
    def test_pair_alphabet(self):
        types = set(enumerate_types(2, TOURNAMENT))
        assert types == {LabeledType.all_equal(2), inj((F,)), inj((B,))}

    def test_injective_counts(self):
        def injective(k, base):
            return [t for t in enumerate_types(k, base) if t.is_injective]

        assert len(injective(3, GRAPH)) == 8
        assert len(injective(3, kfree(3))) == 7
        assert len(injective(4, TOURNAMENT)) == 64

    def test_counts_match_partition_formula(self):
        for k in range(1, 6):
            assert len(enumerate_types(k, GRAPH)) == labeled_type_count(k)
            assert len(enumerate_types(k, TOURNAMENT)) == labeled_type_count(k)

    def test_kfree_filters_full_enumeration(self):
        # at arity 3 only the injective all-E type has a triangle
        assert len(enumerate_types(3, kfree(3))) == labeled_type_count(3) - 1

    def test_types_are_unique_and_valid(self):
        types = enumerate_types(4, GRAPH)
        assert len(set(types)) == len(types) == labeled_type_count(4)

    @pytest.mark.parametrize("base", [TOURNAMENT, GRAPH, kfree(3), kfree(4)], ids=str)
    @pytest.mark.parametrize("injective_only", [False, True])
    def test_order_is_partition_major(self, base, injective_only):
        # Filtering to injective types keeps the partition-major order.
        for k in range(1, 6):
            types = tuple(t for t in enumerate_types(k, base)
                          if t.is_injective or not injective_only)
            assert types == reference_enumerate_types(k, base, injective_only)

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            enumerate_types(7, GRAPH)
        with pytest.raises(ParameterError):
            enumerate_types(0, GRAPH)


class TestPairBehavior:
    def test_g2_cells(self):
        assert G2_BEHAVIOR(F, B) is F
        assert G2_BEHAVIOR(B, F) is B
        assert G2_BEHAVIOR(EQ, F) is F
        assert G2_BEHAVIOR(B, EQ) is B
        assert G2_BEHAVIOR(EQ, EQ) is EQ

    def test_rejects_eq_output_on_mixed_cell(self):
        def bad(a, b):
            return EQ if EQ in (a, b) else a

        with pytest.raises(MalformedPattern):
            PairBehavior.from_function(2, (EQ, E, N), bad)

    def test_rejects_non_eq_on_all_eq(self):
        with pytest.raises(MalformedPattern):
            PairBehavior.from_function(2, (EQ, E, N), lambda a, b: E)

    def test_rejects_flip_equivariance_violation(self):
        def biased(a, b):
            return F if EQ in (a, b) else (a if a is not EQ else b)

        with pytest.raises(MalformedPattern):
            PairBehavior.from_function(2, (EQ, F, B), biased)

    def test_graph_alphabet_has_no_flip_constraint(self):
        sl = PairBehavior.from_function(
            2, (EQ, E, N), lambda a, b: EQ if a is b is EQ else (E if E in (a, b) else N)
        )
        assert sl(E, N) is E
        assert sl(EQ, N) is N

    def test_call_validates(self):
        with pytest.raises(ArityMismatch):
            G2_BEHAVIOR(F)
        with pytest.raises(DomainMismatch):
            G2_BEHAVIOR(E, N)


def pointwise(base, fn, arity=3):
    """Behavior acting pointwise by ``fn`` on non-EQ inputs, EQ-dominated."""

    def cell(*labels):
        present = [l for l in labels if l is not EQ]
        if not present:
            return EQ
        return fn(present)

    return PairBehavior.from_function(arity, (EQ,) + base.labels, cell)


class TestBehaviorImage:
    def test_three_copies_under_majority(self):
        maj = pointwise(TOURNAMENT, majority_of)
        for t in enumerate_types(3, TOURNAMENT):
            assert behavior_image(maj, (t, t, t)) == t

    def test_e_dominated_semilattice(self):
        sl = pointwise(GRAPH, lambda ls: E if E in ls else N, arity=2)
        edge, non_edge = inj((E,)), inj((N,))
        assert behavior_image(sl, (edge, non_edge)) == edge
        assert behavior_image(sl, (non_edge, non_edge)) == non_edge

    def test_pairs_merged_everywhere_stay_merged(self):
        maj = pointwise(TOURNAMENT, majority_of)
        merged = LabeledType(3, ((0, 1), (2,)), (F,))
        image = behavior_image(maj, (merged, merged, merged))
        assert image.label(0, 1) is EQ
        # a pair merged in only some inputs is labeled, not merged
        other = LabeledType(3, ((0,), (1, 2)), (F,))
        mixed = behavior_image(maj, (merged, merged, other))
        assert mixed.is_injective
        assert mixed.label(0, 1) is F

    def test_mixed_eq_cells_consult_the_table(self):
        first = pointwise(TOURNAMENT, lambda ls: ls[0])
        merged = LabeledType(2, ((0, 1),), ())
        image = behavior_image(first, (merged, inj((F,)), inj((B,))))
        assert image == inj((F,))

    def test_arity_mismatch(self):
        maj = pointwise(TOURNAMENT, majority_of)
        with pytest.raises(ArityMismatch):
            behavior_image(maj, (inj((F,)), inj((F,))))
        with pytest.raises(ArityMismatch):
            behavior_image(maj, (inj((F,)), inj((F,)), inj((F, F, F))))
        with pytest.raises(DomainMismatch):
            behavior_image(maj, (inj((E,)), inj((E,)), inj((E,))))


class TestBehaviorPreserves:
    def test_majority_preserves_singleton_arc(self):
        maj = pointwise(TOURNAMENT, majority_of)
        assert behavior_preserves(maj, arc_relation())

    def test_parity_relation_splits_minority_from_majority(self):
        def xor(ls):
            if len(ls) % 2 == 0:
                return ls[0]  # flip-equivariant filler for EQ-mixed cells
            return F if ls.count(F) % 2 == 1 else B

        minority = pointwise(TOURNAMENT, xor)
        maj = pointwise(TOURNAMENT, majority_of)
        r4 = parity_relation()
        assert behavior_preserves(minority, r4)
        assert not behavior_preserves(maj, r4)

    def test_majority_violation_has_a_concrete_witness(self):
        maj = pointwise(TOURNAMENT, majority_of)
        r4 = parity_relation()
        witness = next(
            ts
            for ts in itertools.product(sorted(r4.types), repeat=3)
            if behavior_image(maj, ts) not in r4.types
        )
        image = behavior_image(maj, witness)
        assert sum(1 for l in image.labels if l is F) % 2 == 1

    def test_agrees_with_naive_definition(self):
        rng = random.Random(23)
        for base in (TOURNAMENT, GRAPH):
            shapes = [
                pointwise(base, majority_of),
                pointwise(base, lambda ls: ls[0], arity=2),
            ]
            for _ in range(12):
                rel = random_relation(rng, base, rng.randint(2, 3), rng.randint(1, 5))
                for behavior in shapes:
                    assert behavior_preserves(behavior, rel) == naive_preserves(
                        behavior, rel
                    )

    @pytest.mark.parametrize("base", [TOURNAMENT, GRAPH], ids=str)
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_the_image_definition_on_random_tables(self, base, data):
        # A table that reads the first non-EQ input label, changed on a few
        # cells (and on their arc reversals), against types of every partition.
        n = data.draw(st.integers(2, 3))
        symbols = (EQ,) + base.labels
        cells = list(itertools.product(symbols, repeat=n))[1:]
        table = {(EQ,) * n: EQ}
        table.update((cell, next(l for l in cell if l is not EQ)) for cell in cells)
        for cell in data.draw(st.lists(st.sampled_from(cells), max_size=3)):
            table[cell] = data.draw(st.sampled_from(base.labels))
            table[tuple(l.flipped for l in cell)] = table[cell].flipped
        behavior = PairBehavior.from_function(n, symbols, lambda *cell: table[cell])
        pool = enumerate_types(data.draw(st.integers(2, 4)), base)
        types = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6,
                                   unique=True))
        rel = type_set_relation(pool[0].arity, base, types)
        assert behavior_preserves(behavior, rel) == naive_preserves(behavior, rel)


class TestSearchBehavior:
    def test_tournament_arc_majority(self):
        found = search_behavior([arc_relation()], Shape.TERNARY_MAJORITY)
        assert found is not None
        assert found(F, F, B) is F
        assert behavior_preserves(found, arc_relation())

    def test_parity_majority_none_minority_found(self):
        r4 = parity_relation()
        assert search_behavior([r4], Shape.TERNARY_MAJORITY) is None
        found = search_behavior([r4], Shape.TERNARY_MINORITY)
        assert found is not None
        assert found(F, B, B) is F
        assert behavior_preserves(found, r4)

    def test_semilattice_on_split_graph_template(self):
        template = [
            type_set_relation(2, GRAPH, [inj((E,))]),
            type_set_relation(2, GRAPH, [inj((N,))]),
        ]
        found = search_behavior(template, Shape.BINARY_SL_E)
        assert found is not None
        assert found(E, N) is E and found(N, N) is N
        assert all(behavior_preserves(found, rel) for rel in template)

    def test_tournament_semilattice_unsupported(self):
        with pytest.raises(ShapeUnsupported):
            search_behavior([arc_relation()], Shape.BINARY_SL_E)

    def test_eq_cells_are_genuinely_constrained(self):
        # "arc or equal": mixed inputs like (EQ, FWD, FWD) must produce FWD,
        # since BWD would leave the relation
        arc_or_eq = type_set_relation(
            2, TOURNAMENT, [inj((F,)), LabeledType.all_equal(2)]
        )
        found = search_behavior([arc_or_eq], Shape.TERNARY_MAJORITY)
        assert found is not None
        assert found(EQ, F, F) is F
        assert found(F, EQ, F) is F
        assert found(EQ, B, B) is B

    def test_search_is_deterministic(self):
        r4 = parity_relation()
        first = search_behavior([r4], Shape.TERNARY_MINORITY)
        second = search_behavior([r4], Shape.TERNARY_MINORITY)
        assert first == second

    def test_mixed_bases_rejected(self):
        with pytest.raises(DomainMismatch):
            search_behavior(
                [arc_relation(), type_set_relation(2, GRAPH, [inj((E,))])],
                Shape.TERNARY_MAJORITY,
            )

    def test_a_free_cell_read_at_two_pairs_takes_one_value(self):
        # With the merged type in a tuple, pairs (0,3), (1,3) and (2,3) can
        # read one free cell; fingerprints labeling them differently must
        # not allow either label for it.
        types = [inj((E, E, E, E, E, N)), inj((E, E, E, N, E, E)),
                 LabeledType(4, ((0, 1, 2), (3,)), (E,))]
        rel = type_set_relation(4, GRAPH, types)
        for shape in (Shape.TERNARY_MAJORITY, Shape.TERNARY_MINORITY):
            assert search_behavior([rel], shape) == reference_search_behavior([rel], shape)

    @pytest.mark.parametrize("base", [TOURNAMENT, GRAPH], ids=str)
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_the_check_object_reference(self, base, data):
        # Types of every partition, so checks read free cells and, over the
        # tournament, cells paired with their arc reversal.
        template = []
        for _ in range(data.draw(st.integers(1, 2))):
            k = data.draw(st.integers(1, 4))
            types = data.draw(st.lists(st.sampled_from(enumerate_types(k, base)),
                                       min_size=1, max_size=6, unique=True))
            template.append(type_set_relation(k, base, types))
        shapes = [Shape.TERNARY_MAJORITY, Shape.TERNARY_MINORITY]
        if not base.oriented:
            shapes += [Shape.BINARY_SL_E, Shape.BINARY_SL_N]
        for shape in shapes:
            found = search_behavior(template, shape)
            assert found == reference_search_behavior(template, shape)
            if found is not None:
                assert all(behavior_preserves(found, rel) for rel in template)


class TestCompileCount:
    """Closure checks compiled per ``classify_reduct`` call: each behavior
    arity at most once, shared by the shapes of that arity."""

    def compiled(self, monkeypatch, template):
        arities = []
        compile_checks = homog._compile_checks

        def counted(base, named, n):
            arities.append(n)
            return compile_checks(base, named, n)

        monkeypatch.setattr(homog, "_compile_checks", counted)
        return classify_reduct(template).kind, arities

    def test_tournament_parity_compiles_arity_three_once(self, monkeypatch):
        assert self.compiled(monkeypatch, [parity_relation()]) == (
            VerdictKind.P_NOT_BOUNDED_WIDTH, [3])

    def test_graph_parity_compiles_each_arity_once(self, monkeypatch):
        assert self.compiled(monkeypatch, [parity_relation(GRAPH)]) == (
            VerdictKind.P_NOT_BOUNDED_WIDTH, [2, 3])


class TestConfirmNoBehavior:
    def test_agrees_with_search_on_samples(self):
        rng = random.Random(7)
        shapes = {
            TOURNAMENT: [Shape.TERNARY_MAJORITY, Shape.TERNARY_MINORITY],
            GRAPH: [
                Shape.BINARY_SL_E,
                Shape.BINARY_SL_N,
                Shape.TERNARY_MAJORITY,
                Shape.TERNARY_MINORITY,
            ],
        }
        for base in (TOURNAMENT, GRAPH):
            for _ in range(8):
                rel = random_relation(rng, base, rng.randint(2, 3), rng.randint(1, 6))
                for shape in shapes[base]:
                    found = search_behavior([rel], shape)
                    assert confirm_no_behavior([rel], shape) == (found is None)

    def test_certifies_the_parity_majority_gap(self):
        assert confirm_no_behavior([parity_relation()], Shape.TERNARY_MAJORITY)
        assert not confirm_no_behavior([parity_relation()], Shape.TERNARY_MINORITY)


class TestClassifyReduct:
    def test_base_tournament_has_bounded_width(self):
        verdict = classify_reduct([arc_relation()])
        assert verdict.kind is VerdictKind.P_BOUNDED_WIDTH
        assert verdict.shape is Shape.TERNARY_MAJORITY
        assert behavior_preserves(verdict.witness, arc_relation())

    def test_parity_reduct_is_tractable_without_width(self):
        for template in ([parity_relation()], [arc_relation(), parity_relation()]):
            verdict = classify_reduct(template)
            assert verdict.kind is VerdictKind.P_NOT_BOUNDED_WIDTH
            assert verdict.shape is Shape.TERNARY_MINORITY
            assert all(behavior_preserves(verdict.witness, r) for r in template)

    def test_one_in_three_tournament_is_np_complete(self):
        verdict = classify_reduct([one_of_three_relation(TOURNAMENT)])
        assert verdict.kind is VerdictKind.NP_COMPLETE
        assert verdict.witness is None

    def test_graph_edge_templates_have_bounded_width(self):
        edge = type_set_relation(2, GRAPH, [inj((E,))])
        non_edge = type_set_relation(2, GRAPH, [inj((N,))])
        for template in ([edge], [edge, non_edge]):
            verdict = classify_reduct(template)
            assert verdict.kind is VerdictKind.P_BOUNDED_WIDTH
            assert verdict.shape is Shape.BINARY_SL_E

    def test_graph_parity_and_one_in_three(self):
        assert (
            classify_reduct([parity_relation(GRAPH)]).kind
            is VerdictKind.P_NOT_BOUNDED_WIDTH
        )
        assert (
            classify_reduct([one_of_three_relation(GRAPH)]).kind
            is VerdictKind.NP_COMPLETE
        )

    def test_constant_escape(self):
        reflexive = type_set_relation(
            2, TOURNAMENT, [LabeledType.all_equal(2), inj((F,))]
        )
        assert classify_reduct([reflexive]).kind is VerdictKind.P_CONSTANT
        # adding a relation without its all-equal type disables the escape
        verdict = classify_reduct([reflexive, arc_relation()])
        assert verdict.kind is not VerdictKind.P_CONSTANT

    def test_equality_escape_tractable(self):
        neq = type_set_relation(2, TOURNAMENT, [inj((F,)), inj((B,))])
        assert classify_reduct([neq]).kind is VerdictKind.EQUALITY_P

    def test_equality_escape_hard(self):
        # "x=y or y=z": partitions {01|2, 0|12} with all labelings, but the
        # common refinement (all singletons) is missing
        types = [
            LabeledType(3, ((0, 1), (2,)), (lbl,)) for lbl in (F, B)
        ] + [LabeledType(3, ((0,), (1, 2)), (lbl,)) for lbl in (F, B)]
        rel = type_set_relation(3, TOURNAMENT, types)
        assert classify_reduct([rel]).kind is VerdictKind.EQUALITY_NPC

    def test_kfree_unsupported(self):
        rel = type_set_relation(2, kfree(3), [inj((E,))])
        with pytest.raises(UnsupportedBase):
            classify_reduct([rel])

    def test_verdict_witness_invariant(self):
        with pytest.raises(ParameterError):
            Verdict(VerdictKind.P_BOUNDED_WIDTH)

    def test_g2_preserved_whenever_a_witness_exists(self):
        templates = [
            [arc_relation()],
            [parity_relation()],
            [arc_relation(), parity_relation()],
        ]
        for template in templates:
            verdict = classify_reduct(template)
            assert verdict.witness is not None
            assert all(behavior_preserves(G2_BEHAVIOR, r) for r in template)

    def test_flip_equivariance_of_emitted_witnesses(self):
        verdict = classify_reduct([parity_relation()])
        behavior = verdict.witness
        for cell, value in behavior.cells():
            flipped = tuple(l.flipped for l in cell)
            assert behavior.values[behavior.index(flipped)] is value.flipped


class TestSolveInstanceBrute:
    def setup_method(self):
        self.tournament = HomogTemplate(TOURNAMENT, {"ARC": arc_relation()})
        edge = type_set_relation(2, kfree(3), [inj((E,))])
        self.kfree = HomogTemplate(kfree(3), {"ED": edge})

    def test_antisymmetry(self):
        inst = make_instance("xy", [("ARC", "xy"), ("ARC", "yx")])
        assert solve_instance_brute(inst, self.tournament) is None

    def test_three_cycle(self):
        inst = make_instance("xyz", [("ARC", "xy"), ("ARC", "yz"), ("ARC", "zx")])
        solution = solve_instance_brute(inst, self.tournament)
        assert solution is not None
        assert solution.label(0, 1) is F
        assert solution.label(1, 2) is F
        assert solution.label(2, 0) is F

    def test_kfree_triangle(self):
        inst = make_instance("xyz", [("ED", "xy"), ("ED", "yz"), ("ED", "xz")])
        assert solve_instance_brute(inst, self.kfree) is None
        path = make_instance("xyz", [("ED", "xy"), ("ED", "yz")])
        solution = solve_instance_brute(path, self.kfree)
        assert solution is not None
        assert not solution.has_clique(3)

    def test_repeated_scope_variable(self):
        inst = make_instance("x", [("ARC", "xx")])
        assert solve_instance_brute(inst, self.tournament) is None

    def test_unconstrained_first_witness_is_all_equal(self):
        inst = make_instance("abc", [])
        assert solve_instance_brute(inst, self.tournament) == LabeledType.all_equal(3)

    def test_budget(self):
        inst = make_instance(tuple(f"v{i}" for i in range(7)), [])
        with pytest.raises(BudgetExceeded):
            solve_instance_brute(inst, self.tournament)

    def test_unknown_relation(self):
        inst = make_instance("xy", [("EDGE", "xy")])
        with pytest.raises(SignatureMismatch):
            solve_instance_brute(inst, self.tournament)

    def test_a_wrong_placement_is_caught(self, monkeypatch):
        # The SAT check is an explicit raise, so it also runs under python -O.
        inst = make_instance("xy", [("ARC", "xy")])
        monkeypatch.setattr(
            homog, "_placements", lambda n, base, ok: iter([inj((B,))])
        )
        with pytest.raises(AssertionError):
            solve_instance_brute(inst, self.tournament)

    @pytest.mark.parametrize("base", [TOURNAMENT, GRAPH, kfree(3)], ids=str)
    @settings(derandomize=True, max_examples=120, deadline=None)
    @given(data=st.data())
    def test_matches_the_recursive_reference(self, base, data):
        # Relations of every partition or of injective types only, and
        # scopes drawn with replacement, so constraints read merged
        # positions and repeat variables.  Above arity 1 the pool's first
        # type is left out; over every partition that is the all-equal type,
        # so witnesses need several blocks.
        relations = {}
        for r in range(data.draw(st.integers(1, 3))):
            of_arity = enumerate_types(data.draw(st.integers(1, 3)), base)
            injective_only = data.draw(st.booleans())
            pool = [t for t in of_arity if t.is_injective or not injective_only]
            types = data.draw(st.lists(st.sampled_from(pool[1:] or pool),
                                       min_size=1, unique=True))
            relations[f"R{r}"] = type_set_relation(pool[0].arity, base, types)
        template = HomogTemplate(base, relations)
        variables = [f"v{i}" for i in range(data.draw(st.integers(1, 6)))]
        constraints = []
        for _ in range(data.draw(st.integers(0, 8))):
            name = data.draw(st.sampled_from(sorted(relations)))
            scope = data.draw(st.lists(st.sampled_from(variables),
                                       min_size=relations[name].arity,
                                       max_size=relations[name].arity))
            constraints.append((name, tuple(scope)))
        inst = make_instance(variables, constraints)
        found = solve_instance_brute(inst, template)
        expected = reference_solve_instance_brute(inst, template)
        assert found == expected

    def test_agrees_with_type_enumeration(self):
        # independent oracle: try every complete type over the variables
        rng = random.Random(31)
        graph = HomogTemplate(
            GRAPH,
            {
                "ED": type_set_relation(2, GRAPH, [inj((E,))]),
                "NEQ": type_set_relation(2, GRAPH, [inj((E,)), inj((N,))]),
            },
        )
        for template in (self.tournament, graph, self.kfree):
            for _ in range(30):
                inst = random_instance(rng, template, max_vars=4)
                position = {v: i for i, v in enumerate(inst.variables)}
                expected = any(
                    all(
                        t.project(tuple(position[v] for v in scope))
                        in template.relations[name].types
                        for name, scope in inst.constraints
                    )
                    for t in enumerate_types(len(inst.variables), template.base)
                )
                found = solve_instance_brute(inst, template)
                assert (found is not None) == expected
                if found is not None:
                    for name, scope in inst.constraints:
                        rel = template.relations[name]
                        assert found.project(
                            tuple(position[v] for v in scope)
                        ) in rel.types


def arc_cycle(n):
    """ARC constraints around a cycle of ``n`` variables."""
    variables = [f"v{i}" for i in range(n)]
    return make_instance(variables, [("ARC", (variables[i], variables[(i + 1) % n]))
                                     for i in range(n)])


class CountedFreshTypes(HomogPatterns):
    """A homogeneous space that builds a new pattern list on every call, so
    that each call starts with empty tables, and counts ``project`` calls."""

    calls = 0

    def patterns(self, arity):
        return list(super().patterns(arity))

    def project(self, pattern, positions):
        self.calls += 1
        return super().project(pattern, positions)


class TestHomogPatterns:
    def setup_method(self):
        self.template = HomogTemplate(TOURNAMENT, {"ARC": arc_relation()})
        self.space = HomogPatterns(self.template)

    def test_two_cycle_rejected_at_23(self):
        inst = make_instance("xy", [("ARC", "xy"), ("ARC", "yx")])
        assert establish_kl(inst, self.space, 2, 3) is EMPTY_DERIVED

    def test_chain_passes_and_counts_types(self):
        inst = make_instance("xyz", [("ARC", "xy"), ("ARC", "yz")])
        state = establish_kl(inst, self.space, 2, 3)
        assert state is not EMPTY_DERIVED
        assert len(state.allowed[("x", "y")]) == 1

    def test_consistency_soundness_on_random_instances(self):
        rng = random.Random(47)
        rejected = 0
        for _ in range(60):
            inst = random_instance(rng, self.template, max_vars=5)
            state = establish_kl(inst, self.space, 2, 3)
            if state is EMPTY_DERIVED:
                rejected += 1
                assert solve_instance_brute(inst, self.template) is None
        assert rejected > 5

    def test_six_variable_escalation(self):
        inst = arc_cycle(6)
        state = establish_kl(inst, self.space, 3, 9)
        assert state is not EMPTY_DERIVED
        assert solve_instance_brute(inst, self.template) is not None

    def test_project_calls_of_the_six_variable_escalation(self):
        # The 6-variable superset leaves the binary ARC constraints to its
        # 3-subsets, so it starts with all 53 071 types; each table it reads
        # is filled over the types that passed the tables read before it.
        space = CountedFreshTypes(self.template)
        assert establish_kl(arc_cycle(6), space, 3, 9) is not EMPTY_DERIVED
        assert space.calls == 115786

    def test_width_coherence_sample(self):
        rng = random.Random(53)
        for _ in range(25):
            inst = random_instance(rng, self.template, max_vars=5)
            brute_sat = solve_instance_brute(inst, self.template) is not None
            if establish_kl(inst, self.space, 2, 3) is EMPTY_DERIVED:
                rejected = True
            else:
                rejected = establish_kl(inst, self.space, 3, 9) is EMPTY_DERIVED
            assert rejected == (not brute_sat)
