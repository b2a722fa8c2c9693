"""Tests for the dense-linear-order pipeline."""

import hashlib
import os
import random
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from orbitcsp import cli, temporal
from orbitcsp.cli import parse_instance, parse_template

from orbitcsp.consistency import EMPTY_DERIVED, establish_kl
from orbitcsp.errors import (
    BudgetExceeded,
    MalformedPattern,
    ParameterError,
    PreconditionFailed,
    SignatureMismatch,
)
from orbitcsp.polyengine import AND2, BooleanClass, _solver_class, boolean_classify, preserves_op
from orbitcsp.relstruct import make_instance
from orbitcsp.temporal import (
    LT,
    LT_TYPE,
    TemporalOp,
    TemporalRelation,
    TemporalTemplate,
    WeakOrderType,
    apply_temporal_op,
    brute_oracle,
    build_afin,
    classify_temporal,
    enumerate_weak_orders,
    free_sets,
    preserves_temporal,
    solve_master,
    TemporalPatterns,
    temporal_relation,
)

from oracles import (
    NotFree,
    is_free_set,
    minimal_free_set,
    reference_apply,
    reference_run_master,
    weak_order_counts,
)


def wot(*ranks):
    return WeakOrderType(tuple(ranks))


EQ_TYPE = wot(0, 0)
LE = temporal_relation(2, [LT_TYPE, EQ_TYPE])
NEQ = temporal_relation(2, [wot(0, 1), wot(1, 0)])
EQ = temporal_relation(2, [EQ_TYPE])
BETW = temporal_relation(3, [wot(0, 1, 2), wot(2, 1, 0)])
R_MIN = temporal_relation(3, [t for t in enumerate_weak_orders(3)
                              if t.ranks[1] < t.ranks[0] or t.ranks[2] < t.ranks[0]])
R_MAX = R_MIN.reverse()

Q_LT = TemporalTemplate({"LT": LT})
Q_LE = TemporalTemplate({"LT": LT, "LE": LE})
Q_RMIN = TemporalTemplate({"LT": LT, "RMIN": R_MIN})
Q_RMAX = TemporalTemplate({"LT": LT, "RMAX": R_MAX})
Q_BETW = TemporalTemplate({"LT": LT, "BETW": BETW})
Q_EQ = TemporalTemplate({"LT": LT, "EQ": EQ})
# Types 1=2<3 and 2=3<1: a relation whose quotient has no polymorphism class.
Q_SPLIT = TemporalTemplate({"LT": LT, "S": temporal_relation(3, [wot(0, 0, 1), wot(1, 0, 0)])})
# Types 1=2<3, 2=3<1 and 1=3<2: the quotient rows are the even-parity
# vectors, closed under minority alone.
Q_PARITY = TemporalTemplate({"LT": LT, "R": temporal_relation(
    3, [wot(0, 0, 1), wot(1, 0, 0), wot(0, 1, 0)])})
# Templates preserved by one mode whose master quotient changes solver
# between levels: a DUAL_HORN_OR level before HORN_AND ones (pp and
# dual_pp), and TRIVIAL levels, searched, before HORN_AND ones (pp).
Q_OR_THEN_AND = TemporalTemplate({"LT": LT, "R": temporal_relation(
    3, [wot(0, 1, 1), wot(0, 2, 1), wot(0, 0, 0), wot(0, 1, 0), wot(1, 0, 0)])})
Q_DUAL_OR_THEN_AND = TemporalTemplate({"LT": LT, "R": temporal_relation(
    3, [wot(0, 2, 1), wot(0, 0, 0), wot(0, 1, 0), wot(1, 0, 1), wot(1, 2, 0),
        wot(1, 1, 0)])})
Q_SEARCH_THEN_AND = TemporalTemplate({"LT": LT, "R": temporal_relation(
    3, [wot(0, 0, 1), wot(1, 0, 0), wot(1, 1, 0), wot(2, 1, 0)])})
# x<y<z: committing x leaves y<z, so a projected constraint blocks z.
Q_CHAIN3 = TemporalTemplate({"LT": LT, "C3": temporal_relation(3, [wot(0, 1, 2)])})


def realize(pattern: WeakOrderType) -> list[Fraction]:
    """Concrete rationals with the pattern's order, its last position 0."""
    return [Fraction(r - pattern.ranks[-1]) for r in pattern.ranks]


def signs(pattern: WeakOrderType) -> tuple[int, ...]:
    """The sign of each position but the last, the zero point."""
    *ranks, zero = pattern.ranks
    return tuple((r > zero) - (r < zero) for r in ranks)


def dense(ranks):
    mapping = {r: i for i, r in enumerate(sorted(set(ranks)))}
    return tuple(mapping[r] for r in ranks)


@lru_cache(maxsize=None)
def dense_vectors(n: int) -> list[tuple[int, ...]]:
    """Every dense rank vector on n positions, filtered from all vectors."""
    return [ranks for ranks in product(range(n), repeat=n)
            if set(ranks) == set(range(max(ranks) + 1))]


def preserves_by_joint_scan(op: TemporalOp, rel: TemporalRelation) -> bool:
    """Independent oracle: enumerate every joint weak order whose halves lie
    in the relation, insert the zero point below, on, between and above its
    levels, and evaluate on concrete rationals."""
    k = rel.arity
    member = {t.ranks for t in rel.types}
    for ranks in dense_vectors(2 * k):
        if dense(ranks[:k]) not in member or dense(ranks[k:]) not in member:
            continue
        # Doubled ranks are odd; the zero point takes each value between.
        for cut in range(2 * max(ranks) + 3):
            values = [Fraction(2 * r + 1 - cut) for r in ranks]
            image, _ = reference_apply(op.name, values[:k], values[k:])
            if dense(image) not in member:
                return False
    return True


class TestWeakOrderType:
    def test_dense_validation(self):
        with pytest.raises(MalformedPattern):
            wot(0, 2)
        with pytest.raises(MalformedPattern):
            wot(1, 1)
        with pytest.raises(MalformedPattern):
            WeakOrderType(())

    def test_blocks_and_str(self):
        t = wot(1, 0, 1)
        assert t.blocks == ((1,), (0, 2))
        assert str(t) == "2<1=3"
        assert t.num_blocks == 2

    def test_from_values_and_restrict(self):
        t = WeakOrderType.from_values([7, 3, 7, 9])
        assert t == wot(1, 0, 1, 2)
        assert t.restrict([3, 0]) == wot(1, 0)
        assert t.restrict([1, 1, 0]) == wot(0, 0, 1)

    def test_reverse(self):
        assert wot(0, 1, 2).reverse() == wot(2, 1, 0)
        assert wot(0, 0).reverse() == wot(0, 0)

    def test_respects(self):
        assert wot(0, 0, 1).respects(("x", "x", "y"))
        assert not wot(0, 1, 2).respects(("x", "x", "y"))


class TestEnumeration:
    def test_small_counts(self):
        assert [t.ranks for t in enumerate_weak_orders(1)] == [(0,)]
        assert [t.ranks for t in enumerate_weak_orders(2)] == [(0, 0), (0, 1), (1, 0)]
        assert len(enumerate_weak_orders(3)) == 13

    def test_counts_match_recurrence(self):
        counts = weak_order_counts(6)
        for k in range(1, 7):
            assert len(enumerate_weak_orders(k)) == counts[k]

    def test_sorted_and_unique(self):
        orders = enumerate_weak_orders(4)
        vectors = [t.ranks for t in orders]
        assert vectors == sorted(vectors)
        assert len(set(vectors)) == len(vectors)

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            enumerate_weak_orders(9)
        with pytest.raises(ParameterError):
            enumerate_weak_orders(0)


class TestApplyTemporalOp:
    def test_pp_keeps_nonpositive_argument(self):
        # a negative, b positive: a < 0 < b, the zero point last
        out = apply_temporal_op(TemporalOp.PP, wot(0, 2, 1))
        assert out == wot(0, 1)
        assert signs(out) == (-1,)

    def test_ll_of_two_zeros_is_zero(self):
        out = apply_temporal_op(TemporalOp.LL, wot(0, 0, 0))
        assert signs(out) == (0,)

    def test_pp_mixed_signs_worked_example(self):
        # a = (1, 0, 2), b = (2, 5, 1): the zero coordinate stays at the
        # bottom, the positive ones are reordered by b.
        out = apply_temporal_op(TemporalOp.PP, wot(1, 0, 2, 2, 3, 1, 0))
        assert out == wot(2, 0, 1, 0)
        assert signs(out) == (1, 0, 1)

    def test_even_arity_rejected(self):
        # Two halves and the zero point make an odd arity.
        for ranks in [(0, 1), (0, 1, 2, 0)]:
            with pytest.raises(MalformedPattern):
                apply_temporal_op(TemporalOp.PP, wot(*ranks))

    @pytest.mark.parametrize("op", list(TemporalOp))
    def test_agrees_with_concrete_evaluation(self, op):
        for k in (1, 2):
            for joint in enumerate_weak_orders(2 * k + 1):
                values = realize(joint)
                ranks, want = reference_apply(op.name, values[:k], values[k:2 * k])
                got = apply_temporal_op(op, joint)
                assert got.restrict(range(k)).ranks == ranks, (op, joint)
                if want is not None:
                    assert signs(got) == want, (op, joint)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.sampled_from(list(TemporalOp)),
           st.lists(st.integers(0, 6), min_size=7, max_size=7))
    def test_agrees_with_concrete_evaluation_on_triples(self, op, values):
        joint = WeakOrderType.from_values(values)
        rationals = realize(joint)
        ranks, want = reference_apply(op.name, rationals[:3], rationals[3:6])
        got = apply_temporal_op(op, joint)
        assert got.restrict(range(3)).ranks == ranks
        if want is not None:
            assert signs(got) == want

    def test_dual_is_conjugation(self):
        for joint in enumerate_weak_orders(5):
            for base, dual in [(TemporalOp.PP, TemporalOp.DUAL_PP),
                               (TemporalOp.LL, TemporalOp.DUAL_LL)]:
                direct = apply_temporal_op(dual, joint)
                conjugated = apply_temporal_op(base, joint.reverse()).reverse()
                assert direct == conjugated


class TestPreserves:
    def test_order_relation_is_preserved_by_everything(self):
        for op in TemporalOp:
            assert preserves_temporal(op, LT) is True

    def test_betweenness_breaks_pp(self):
        witness = preserves_temporal(TemporalOp.PP, BETW)
        assert witness is not True and not witness
        assert witness.image.restrict(range(3)) not in BETW.types
        # Re-derive the image from concrete rationals.
        values = realize(witness.joint)
        ranks, _ = reference_apply("PP", values[:3], values[3:6])
        assert dense(ranks) == witness.image.restrict(range(3)).ranks

    def test_r_min_is_pp_preserved(self):
        assert preserves_temporal(TemporalOp.PP, R_MIN) is True

    def test_le_is_pp_and_ll_preserved(self):
        assert preserves_temporal(TemporalOp.PP, LE) is True
        assert preserves_temporal(TemporalOp.LL, LE) is True

    def test_budget(self):
        wide = temporal_relation(7, [WeakOrderType(tuple(range(7)))])
        with pytest.raises(BudgetExceeded):
            preserves_temporal(TemporalOp.PP, wide)

    def test_counterexample_halves_match_reported_types(self):
        witness = preserves_temporal(TemporalOp.LL, BETW)
        assert not witness
        k = BETW.arity
        joint_ranks = witness.joint.ranks
        assert dense(joint_ranks[:k]) == witness.left.ranks
        assert dense(joint_ranks[k:2 * k]) == witness.right.ranks

    @pytest.mark.parametrize("op", list(TemporalOp))
    def test_binary_relations_against_joint_scan(self, op):
        pair_types = enumerate_weak_orders(2)
        for size in (1, 2, 3):
            for combo in combinations(pair_types, size):
                rel = temporal_relation(2, combo)
                assert (preserves_temporal(op, rel) is True) == \
                    preserves_by_joint_scan(op, rel), (op, combo)

    def test_ternary_relations_against_joint_scan(self):
        rng = random.Random(7)
        types3 = enumerate_weak_orders(3)
        samples = [BETW, R_MIN, R_MAX, temporal_relation(3, [wot(0, 0, 1)])]
        for _ in range(10):
            size = rng.randint(1, 3)
            samples.append(temporal_relation(3, rng.sample(types3, size)))
        for op in (TemporalOp.PP, TemporalOp.LL, TemporalOp.DUAL_LL):
            for rel in samples:
                assert (preserves_temporal(op, rel) is True) == \
                    preserves_by_joint_scan(op, rel), (op, rel)


class TestBuildAfin:
    def test_order_template_exact(self):
        fin = build_afin(Q_LT)
        assert fin.domain_size == 2
        assert set(fin.relations) == {"LT", "Z", "P"}
        assert fin.relations["LT"].tuples == {(1, 0), (0, 0)}  # (Z,P), (P,P)
        assert fin.relations["Z"].tuples == {(1,)}
        assert fin.relations["P"].tuples == {(0,)}

    def test_equality_and_unary(self):
        point = TemporalTemplate({
            "LT": LT,
            "EQ": EQ,
            "U": temporal_relation(1, [wot(0)]),
        })
        fin = build_afin(point)
        assert fin.relations["EQ"].tuples == {(0, 0), (1, 1)}
        assert fin.relations["U"].tuples == {(0,), (1,)}

    def test_reserved_names(self):
        with pytest.raises(SignatureMismatch):
            build_afin(TemporalTemplate({"LT": LT, "Z": EQ}))

    @pytest.mark.parametrize("first", [("x", "x"), ("x", "y")])
    def test_memoised_patterns_follow_the_scope(self, first):
        # Memoised by which scope positions repeat: the two scopes below
        # must not share an entry, whichever of them is computed first.
        temporal._fin_patterns_of.cache_clear()
        other = ("x", "y") if first == ("x", "x") else ("x", "x")
        for scope in (first, other, first):
            want = set()
            for t in LE.types:
                if t.respects(scope):
                    want.add((temporal.P_VALUE,) * 2)
                    want.add(tuple(temporal.Z_VALUE if r == 0 else temporal.P_VALUE
                                   for r in t.ranks))
            assert temporal._fin_patterns(LE, scope) == want
        assert temporal._fin_patterns(LE, ("x", "x")) != temporal._fin_patterns(LE, ("x", "y"))

    def test_ll_templates_inherit_meet(self):
        # Whenever ll preserves every relation, the conjunction table is a
        # polymorphism of the quotient structure.
        for template in (Q_LT, Q_LE, Q_EQ):
            assert all(preserves_temporal(TemporalOp.LL, rel) is True
                       for rel in template.relations.values())
            assert preserves_op(AND2, build_afin(template))


def free_by_definition(instance, template, subset):
    """The free-set condition, checked straight from the definition."""
    subset = frozenset(subset)
    if not subset:
        return False
    for name, scope in instance.constraints:
        rel = template.relations[name]
        positions = {i for i, v in enumerate(scope) if v in subset}
        if not positions:
            continue
        good = False
        for t in rel.types:
            values = {}
            if not all(values.setdefault(v, t.ranks[i]) == t.ranks[i]
                       for i, v in enumerate(scope)):
                continue
            if {i for i in range(len(scope)) if t.ranks[i] == 0} == positions:
                good = True
                break
        if not good:
            return False
    return True


def outside_constraints_realisable(instance, template, subset):
    """Constraints the definition skips must still be satisfiable on their
    own for the set to correspond to a quotient solution."""
    for name, scope in instance.constraints:
        if any(v in subset for v in scope):
            continue
        if not any(t.respects(scope) for t in template.relations[name].types):
            return False
    return True


def random_instance(rng, template, max_vars=6, max_constraints=6):
    n = rng.randint(2, max_vars)
    names = [f"v{i}" for i in range(n)]
    constraints = []
    rels = sorted(template.relations)
    for _ in range(rng.randint(1, max_constraints)):
        name = rng.choice(rels)
        arity = template.relations[name].arity
        constraints.append((name, tuple(rng.choice(names) for _ in range(arity))))
    return make_instance(names, constraints)


def free_set_of(instance, template, x):
    """The free set that :func:`free_sets` finds for the variable x."""
    return free_sets(instance, template)[instance.variables.index(x)]


class TestFreeSets:
    def chain(self):
        return make_instance("xy", [("LT", "xy")])

    def test_chain_examples(self):
        assert free_sets(self.chain(), Q_LT) == ({"x"}, None)

    def test_unconstrained(self):
        inst = make_instance("abc", [])
        got = free_set_of(inst, Q_LT, "b")
        assert got is not None and "b" in got
        assert free_by_definition(inst, Q_LT, got)

    def test_repeated_variables_block_unrealisable_types(self):
        chain3 = temporal_relation(3, [wot(0, 1, 2)])
        template = TemporalTemplate({"LT": LT, "C3": chain3})
        inst = make_instance("vw", [("C3", ("v", "v", "w"))])
        assert not is_free_set(inst, template, {"v"})
        assert free_set_of(inst, template, "v") is None
        assert brute_oracle(inst, template) is None

    def test_is_free_set_matches_definition_randomly(self):
        rng = random.Random(23)
        for _ in range(120):
            template = rng.choice([Q_LT, Q_LE, Q_RMIN, Q_EQ])
            inst = random_instance(rng, template, max_vars=5)
            names = list(inst.variables)
            for _ in range(3):
                size = rng.randint(1, len(names))
                subset = frozenset(rng.sample(names, size))
                assert is_free_set(inst, template, subset) == \
                    free_by_definition(inst, template, subset)

    def test_free_sets_sound_and_complete(self):
        rng = random.Random(37)
        checked_some = 0
        checked_none = 0
        for _ in range(200):
            template = rng.choice([Q_LT, Q_LE, Q_RMIN, Q_RMAX, Q_EQ])
            inst = random_instance(rng, template)
            x = rng.choice(inst.variables)
            got = free_set_of(inst, template, x)
            names = [v for v in inst.variables if v != x]
            candidates = [frozenset(rest) | {x}
                          for r in range(len(names) + 1)
                          for rest in combinations(names, r)]
            any_usable = any(
                free_by_definition(inst, template, s)
                and outside_constraints_realisable(inst, template, s)
                for s in candidates)
            if got is None:
                assert not any_usable
                checked_none += 1
            else:
                assert x in got
                assert free_by_definition(inst, template, got)
                assert any_usable
                checked_some += 1
        assert checked_some > 30 and checked_none > 30

    def test_free_sets_match_one_quotient_per_variable(self):
        # One compiled quotient answers every variable as a fresh one would.
        rng = random.Random(41)
        for _ in range(60):
            template = rng.choice([Q_LT, Q_LE, Q_RMIN, Q_RMAX, Q_EQ, Q_SPLIT])
            inst = random_instance(rng, template)
            fresh = []
            for x in inst.variables:
                quotient = temporal._Quotient(
                    inst.variables, temporal._constraint_list(inst, template))
                fresh.append(temporal._solve_afin(quotient, {x: temporal.Z_VALUE}))
            assert free_sets(inst, template) == tuple(fresh)

    def test_quotient_without_a_class_is_searched(self):
        # S's quotient rows 000, 110, 011 are closed under none of the
        # fixed tables, so its quotient solves go through backtracking
        # search.  R's are closed under minority alone, so they go through
        # Gaussian elimination.
        for template, classes in ((Q_SPLIT, {BooleanClass.TRIVIAL}),
                                  (Q_PARITY, {BooleanClass.MINORITY_AFFINE})):
            assert boolean_classify(build_afin(template)) == classes
            rng = random.Random(43)
            for _ in range(80):
                inst = random_instance(rng, template, max_vars=5)
                x = rng.choice(inst.variables)
                got = free_set_of(inst, template, x)
                names = [v for v in inst.variables if v != x]
                usable = [frozenset(rest) | {x}
                          for r in range(len(names) + 1)
                          for rest in combinations(names, r)
                          if free_by_definition(inst, template, frozenset(rest) | {x})
                          and outside_constraints_realisable(
                              inst, template, frozenset(rest) | {x})]
                assert (got is None) == (not usable)
                if got is not None:
                    assert x in got and free_by_definition(inst, template, got)

    def test_golden_search_case_against_the_definition(self):
        # The golden freesets case on trivial.tmpl, whose quotient no fixed
        # table preserves: every listed set is free, and no set containing
        # a variable reported NONE is.
        golden = Path(__file__).parent / "golden"
        template = parse_template((golden / "trivial.tmpl").read_text(encoding="utf-8"))
        inst = parse_instance((golden / "trivial.inst").read_text(encoding="utf-8"), template)
        assert boolean_classify(build_afin(template)) == {BooleanClass.TRIVIAL}
        subsets = [frozenset(c) for r in range(1, len(inst.variables) + 1)
                   for c in combinations(inst.variables, r)]
        found = free_sets(inst, template)
        assert None in found and len(set(found)) > 2
        for x, got in zip(inst.variables, found):
            if got is None:
                assert not any(x in s and is_free_set(inst, template, s) for s in subsets)
            else:
                assert x in got and is_free_set(inst, template, got)

    def test_affine_equations_are_derived_once_per_row_set(self, monkeypatch):
        # Forty solves of one affine quotient derive the equations of each
        # distinct constraint row set once: R's rows.  Pins are reduced
        # into the pin-free system directly, so no row set is derived for
        # them.
        from orbitcsp import polyengine

        rng = random.Random(1)
        names = [f"v{i}" for i in range(40)]
        inst = make_instance(names, [("R", rng.sample(names, 3)) for _ in range(40)])
        calls = []
        derive = polyengine._affine_equations

        def counted(rows):
            calls.append(rows)
            return derive(rows)

        monkeypatch.setattr(polyengine, "_affine_equations", counted)
        found = temporal.free_sets(inst, Q_PARITY)
        assert len(calls) == len(set(calls)) == 1
        assert sum(s is not None for s in found) == 7
        for x, got in zip(names, found):
            if got is not None:
                assert x in got and is_free_set(inst, Q_PARITY, got)

    def test_minimal_examples(self):
        assert minimal_free_set(self.chain(), Q_LT, {"x"}) == {"x"}
        free_pair = make_instance("xy", [])
        assert minimal_free_set(free_pair, Q_LT, {"x", "y"}) == {"x"}
        glued = make_instance("xy", [("EQ", "xy")])
        assert minimal_free_set(glued, Q_EQ, {"x", "y"}) == {"x", "y"}

    def test_minimal_requires_free(self):
        with pytest.raises(NotFree):
            minimal_free_set(self.chain(), Q_LT, {"y"})

    def test_shrink_can_drop_the_seed_variable(self):
        # The least quotient solution pins y under x here, so the minimal
        # free subset of {x, y} omits x entirely.
        inst = make_instance("xy", [("LE", "yx")])
        start = free_set_of(inst, Q_LE, "x")
        assert start == {"x", "y"}
        assert minimal_free_set(inst, Q_LE, start) == {"y"}

    def test_minimal_is_minimal(self):
        rng = random.Random(53)
        shrunk = 0
        for _ in range(120):
            template = rng.choice([Q_LT, Q_LE, Q_EQ])
            inst = random_instance(rng, template, max_vars=5)
            x = rng.choice(inst.variables)
            start = free_set_of(inst, template, x)
            if start is None:
                continue
            got = minimal_free_set(inst, template, start)
            assert got <= start
            if got < start:
                shrunk += 1
            assert free_by_definition(inst, template, got)
            # no proper subset may qualify
            members = sorted(got)
            for r in range(1, len(members)):
                for sub in combinations(members, r):
                    assert not (free_by_definition(inst, template, frozenset(sub))
                                and outside_constraints_realisable(
                                    inst, template, frozenset(sub)))
        assert shrunk >= 1


@st.composite
def quotient_cases(draw):
    """Variables and constraints of random temporal relations of arity 1-4,
    on scopes that may repeat a variable.  A quotient row depends only on
    a type's bottom block, so a relation takes one random type for each of
    a uniform random set of bottom blocks.  Relations and scopes come from
    a drawn seed: hypothesis's own small draws give relations that are
    nearly always AND-closed."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    names = [f"v{i}" for i in range(draw(st.integers(1, 5)))]
    constraints = []
    for _ in range(draw(st.integers(1, 3))):
        k = rng.randint(1, 4)
        by_bottom = {}
        for t in enumerate_weak_orders(k):
            by_bottom.setdefault(t.blocks[0], []).append(t)
        types = [rng.choice(ts) for ts in by_bottom.values() if rng.random() < 0.5]
        scope = tuple(rng.choice(names) for _ in range(k))
        constraints.append((temporal_relation(k, types), scope))
    return tuple(names), constraints


class TestQuotientSolverClass:
    """Every quotient relation is empty or holds the all-P row, and both
    points are named.  So no constant class holds, and majority closure
    implies AND closure (maj(a, b, all-P) = a AND b): a quotient is always
    solved by a Horn engine, Gaussian elimination or backtracking search,
    never by the majority or constant branches of ``_boolean_solver``."""

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(quotient_cases())
    def test_quotient_class_is_horn_affine_or_search(self, case):
        variables, constraints = case
        quotient = temporal._Quotient(variables, constraints)
        for (_, scope), patterns in zip(constraints, quotient.patterns):
            assert not patterns or (temporal.P_VALUE,) * len(scope) in patterns
        classes = quotient._classes(frozenset(quotient.counts))
        assert not classes & {BooleanClass.CONSTANT0, BooleanClass.CONSTANT1}
        if BooleanClass.MAJORITY_2SAT in classes:
            assert BooleanClass.HORN_AND in classes
        assert _solver_class(classes) in (BooleanClass.HORN_AND, BooleanClass.DUAL_HORN_OR,
                                          BooleanClass.MINORITY_AFFINE, BooleanClass.TRIVIAL)


def preserving_modes(template):
    return [m for m in (TemporalOp.PP, TemporalOp.LL,
                        TemporalOp.DUAL_PP, TemporalOp.DUAL_LL)
            if all(preserves_temporal(m, rel) is True
                   for rel in template.relations.values())]


def reference_solve_master(instance, template, mode):
    """solve_master's answer through the recompile-per-level reference loop."""
    constraints = temporal._constraint_list(instance, template)
    if mode.is_dual:
        constraints = [(rel.reverse(), scope) for rel, scope in constraints]
    levels = reference_run_master(instance.variables, constraints,
                                  mode.base is TemporalOp.LL)
    if levels is not None and mode.is_dual:
        levels = tuple(reversed(levels))
    return levels


def levels_satisfy(levels, instance, template):
    rank = {v: i for i, level in enumerate(levels) for v in level}
    if sorted(rank) != sorted(instance.variables):
        return False
    for name, scope in instance.constraints:
        induced = WeakOrderType.from_values([rank[v] for v in scope])
        if induced not in template.relations[name].types:
            return False
    return True


@st.composite
def master_cases(draw, templates=(Q_RMIN, Q_RMAX, Q_LE)):
    """A template, a mode preserving it, and an instance of 2 to 7 variables."""
    template = draw(st.sampled_from(templates))
    mode = draw(st.sampled_from(preserving_modes(template)))
    names = [f"v{i}" for i in range(draw(st.integers(2, 7)))]
    relation = st.sampled_from(sorted(template.relations))
    constraints = draw(st.lists(relation.flatmap(lambda name: st.tuples(
        st.just(name),
        st.lists(st.sampled_from(names),
                 min_size=template.relations[name].arity,
                 max_size=template.relations[name].arity))),
        min_size=1, max_size=8))
    return template, mode, make_instance(names, constraints)


def planted_instance(rng, template, n):
    """2n constraints of the template that a planted ranking of n
    variables, with ties, satisfies; scopes may repeat a variable, and the
    variables are declared in a shuffled order."""
    names = [f"v{i}" for i in range(n)]
    rank = {v: rng.randrange(n // 2) for v in names}
    relations = sorted(template.relations)
    constraints = []
    while len(constraints) < 2 * n:
        name = rng.choice(relations)
        rel = template.relations[name]
        scope = tuple(rng.choice(names) for _ in range(rel.arity))
        if WeakOrderType.from_values([rank[v] for v in scope]) in rel.types:
            constraints.append((name, scope))
    rng.shuffle(names)
    return make_instance(names, constraints)


@st.composite
def planted_cases(draw, templates=(Q_RMIN, Q_RMAX, Q_LE)):
    """A template, a mode preserving it, and a planted instance of 20 to 80
    variables.  Q_LE admits all four modes."""
    template = draw(st.sampled_from(templates))
    mode = draw(st.sampled_from(preserving_modes(template)))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    return template, mode, planted_instance(rng, template, draw(st.integers(20, 80)))


def planted_rmin(rng, n):
    """A satisfiable {LT, RMIN} instance in which every level of the
    master's answer holds one variable: vi has rank i, and each vi but v0
    gets one constraint that puts it above an earlier variable."""
    names = [f"v{i}" for i in range(n)]
    order = names[:]
    rng.shuffle(order)
    constraints = []
    for i in range(1, n):
        if rng.random() < 0.5:
            constraints.append(("LT", (names[rng.randrange(i)], names[i])))
        else:
            y, z = names[rng.randrange(i)], names[rng.randrange(n)]
            constraints.append(("RMIN", (names[i], y, z)))
    constraints.append(("LT", (names[0], names[1])))
    return make_instance(order, constraints)


def blocked_recount(quotient):
    """Per remaining variable, the live constraints of the quotient with no
    row that puts it at Z at all of its positions."""
    counts = dict.fromkeys(quotient.variables, 0)
    for constraint, patterns in zip(quotient.constraints, quotient.patterns):
        if constraint is None:
            continue
        scope = constraint[1]
        for v in set(scope):
            if not any(all(row[i] == temporal.Z_VALUE for i, w in enumerate(scope) if w == v)
                       for row in patterns):
                counts[v] += 1
    return counts


class TestSolveMaster:
    def test_chain(self):
        inst = make_instance("xyz", [("LT", "xy"), ("LT", "yz")])
        assert solve_master(inst, Q_LT, TemporalOp.PP) == (("x",), ("y",), ("z",))

    def test_contradiction(self):
        inst = make_instance("xy", [("LT", "xy"), ("LT", "yx")])
        assert solve_master(inst, Q_LT, TemporalOp.PP) is None

    def test_r_min_instance(self):
        inst = make_instance("xyz", [("RMIN", "xyz"), ("LT", "yz")])
        levels = solve_master(inst, Q_RMIN, TemporalOp.PP)
        assert levels is not None
        assert levels_satisfy(levels, inst, Q_RMIN)
        assert brute_oracle(inst, Q_RMIN) is not None

    def test_precondition(self):
        inst = make_instance("xyz", [("BETW", "xyz")])
        with pytest.raises(PreconditionFailed):
            solve_master(inst, Q_BETW, TemporalOp.PP)

    def test_precondition_after_classify(self):
        # classify_temporal memoises preservation verdicts; the master's own
        # precondition loop must still see the counterexample.
        assert classify_temporal(Q_BETW).polynomial is False
        inst = make_instance("xyz", [("BETW", "xyz")])
        with pytest.raises(PreconditionFailed):
            solve_master(inst, Q_BETW, TemporalOp.PP)

    def test_wrong_levels_raise_under_optimize(self):
        # The final check must survive ``python -O``, which strips asserts.
        script = (
            "import sys\n"
            "if not sys.flags.optimize:\n"
            "    sys.exit('asserts are not stripped')\n"
            "from orbitcsp import temporal\n"
            "from orbitcsp.relstruct import make_instance\n"
            "temporal._run_master = lambda *args: (('y',), ('x',))\n"
            "inst = make_instance('xy', [('LT', 'xy')])\n"
            "tpl = temporal.TemporalTemplate({'LT': temporal.LT})\n"
            "try:\n"
            "    temporal.solve_master(inst, tpl, temporal.TemporalOp.PP)\n"
            "except AssertionError:\n"
            "    print('raised')\n"
        )
        src = Path(temporal.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        done = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "raised\n"

    def test_dual_pp_on_reversed_min(self):
        assert preserves_temporal(TemporalOp.DUAL_PP, R_MAX) is True
        inst = make_instance("xyz", [("RMAX", "xyz"), ("LT", "zy")])
        levels = solve_master(inst, Q_RMAX, TemporalOp.DUAL_PP)
        assert levels is not None
        assert levels_satisfy(levels, inst, Q_RMAX)

    @pytest.mark.parametrize("template,mode", [
        (Q_LT, TemporalOp.PP),
        (Q_LT, TemporalOp.LL),
        (Q_LT, TemporalOp.DUAL_PP),
        (Q_LT, TemporalOp.DUAL_LL),
        (Q_LE, TemporalOp.PP),
        (Q_LE, TemporalOp.LL),
        (Q_RMIN, TemporalOp.PP),
        (Q_RMAX, TemporalOp.DUAL_PP),
        (Q_EQ, TemporalOp.LL),
    ])
    def test_agrees_with_oracle(self, template, mode):
        rng = random.Random(str(sorted(template.relations)) + mode.value)
        sat = unsat = 0
        for _ in range(60):
            inst = random_instance(rng, template)
            got = solve_master(inst, template, mode)
            want = brute_oracle(inst, template)
            assert (got is None) == (want is None), inst
            if got is None:
                unsat += 1
            else:
                assert levels_satisfy(got, inst, template)
                sat += 1
        assert sat > 5 and unsat > 5

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(master_cases())
    def test_agrees_with_oracle_property(self, case):
        template, mode, inst = case
        got = solve_master(inst, template, mode)
        want = brute_oracle(inst, template)
        assert (got is None) == (want is None)
        if got is not None:
            assert levels_satisfy(got, inst, template)


SWITCH_TEMPLATES = (Q_OR_THEN_AND, Q_DUAL_OR_THEN_AND, Q_SEARCH_THEN_AND)


class TestIncrementalMaster:
    """solve_master narrows one quotient per call; the reference loop
    compiles a fresh quotient at every level.  Levels must agree exactly."""

    def test_modes_are_covered(self):
        covered = {m for t in (Q_RMIN, Q_RMAX, Q_LE) + SWITCH_TEMPLATES
                   for m in preserving_modes(t)}
        assert covered == {TemporalOp.PP, TemporalOp.LL,
                           TemporalOp.DUAL_PP, TemporalOp.DUAL_LL}

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(master_cases((Q_RMIN, Q_RMAX, Q_LE) + SWITCH_TEMPLATES))
    def test_matches_the_recompiling_reference(self, case):
        template, mode, inst = case
        assert solve_master(inst, template, mode) == \
            reference_solve_master(inst, template, mode)

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(planted_cases())
    def test_planted_instances_match_the_recompiling_reference(self, case):
        template, mode, inst = case
        got = solve_master(inst, template, mode)
        assert got is not None and levels_satisfy(got, inst, template)
        assert got == reference_solve_master(inst, template, mode)

    @pytest.mark.parametrize("mode", list(TemporalOp))
    def test_projections_are_memoised_for_the_process(self, mode):
        # A second identical call projects nothing afresh, also in the dual
        # modes, whose reversed relations are new objects on every call.
        # Deltas, not totals, so that earlier tests do not matter.
        inst = planted_instance(random.Random(7), Q_LE, 40)
        first = solve_master(inst, Q_LE, mode)
        before = temporal._project.cache_info()
        assert solve_master(inst, Q_LE, mode) == first
        after = temporal._project.cache_info()
        assert after.misses == before.misses
        assert after.hits > before.hits

    def test_a_changed_class_set_builds_a_fresh_solver(self, monkeypatch):
        builds = []
        build = temporal._boolean_solver

        def counted(n, constraints, classes):
            builds.append(_solver_class(classes))
            return build(n, constraints, classes)

        monkeypatch.setattr(temporal, "_boolean_solver", counted)
        rng = random.Random(53)
        switched = {}
        for template in SWITCH_TEMPLATES:
            (mode,) = preserving_modes(template)
            for _ in range(60):
                inst = random_instance(rng, template, max_vars=7, max_constraints=8)
                builds.clear()
                got = solve_master(inst, template, mode)
                assert got == reference_solve_master(inst, template, mode), inst
                if len(builds) > 1:
                    switched.setdefault(template, set()).add(tuple(builds))
        # Each template reached the fresh-solver path, from the solver it
        # was built to exercise on to a Horn engine.
        for template, first in ((Q_OR_THEN_AND, BooleanClass.DUAL_HORN_OR),
                                (Q_DUAL_OR_THEN_AND, BooleanClass.DUAL_HORN_OR),
                                (Q_SEARCH_THEN_AND, BooleanClass.TRIVIAL)):
            assert any(b[0] is first and BooleanClass.HORN_AND in b[1:]
                       for b in switched[template])

    def test_a_starved_constraint_still_raises(self, monkeypatch):
        # A level that is not a free set must not be committed silently.
        inst = make_instance("xyz", [("LT", "xy"), ("LT", "yz")])
        quotient = temporal._Quotient(inst.variables,
                                      temporal._constraint_list(inst, Q_LT))
        with pytest.raises(AssertionError):
            quotient.commit(("y",))

    def test_a_member_set_outside_the_level_raises(self, monkeypatch):
        # In the ll modes a member's least free set lies inside the level;
        # one that does not is a solver fault, never a set to skip.
        inst = make_instance("xyz", [("LE", "xy"), ("LE", "yx"), ("LT", "yz")])
        assert solve_master(inst, Q_LE, TemporalOp.LL) == (("x", "y"), ("z",))
        free_set = temporal._free_set
        monkeypatch.setattr(temporal, "_free_set", lambda quotient, x: (
            frozenset("yz") if x == "y" else free_set(quotient, x)))
        with pytest.raises(AssertionError):
            solve_master(inst, Q_LE, TemporalOp.LL)


class TestBlockedCandidates:
    """The master skips a variable that a live constraint forbids at Z on
    its own; the skip must follow every commit and drop only failing
    solves."""

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.one_of(master_cases((Q_RMIN, Q_RMAX, Q_LE, Q_CHAIN3) + SWITCH_TEMPLATES),
                     planted_cases((Q_RMIN, Q_RMAX, Q_LE, Q_CHAIN3))))
    def test_counts_follow_every_commit_and_skipped_solves_fail(self, case):
        template, mode, inst = case
        constraints = temporal._constraint_list(inst, template)
        if mode.is_dual:
            constraints = [(rel.reverse(), scope) for rel, scope in constraints]
        quotient = temporal._Quotient(inst.variables, constraints)
        level = ()
        while level is not None and quotient.variables:
            counts = blocked_recount(quotient)
            assert {v: quotient.blocked[v] for v in quotient.variables} == counts
            for v in quotient.variables:
                if counts[v]:
                    assert temporal._solve_afin(quotient, {v: temporal.Z_VALUE}) is None
            pinned = []
            solve = temporal._solve_afin

            def recorded(quotient, pins):
                pinned.extend(v for v, value in pins.items() if value == temporal.Z_VALUE)
                return solve(quotient, pins)

            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(temporal, "_solve_afin", recorded)
                level = temporal._next_level(quotient, mode.base is TemporalOp.LL)
            # The pass pins to Z only variables that no live constraint blocks.
            assert not [v for v in pinned if counts[v]]
            if level is not None:
                quotient.commit(level)

    def test_free_sets_skip_blocked_variables(self, monkeypatch):
        # LT(x, y) forbids y at Z on its own: free_sets answers None for y
        # without a solve.
        solved = []
        solve = temporal._solve_afin

        def counted(quotient, pins):
            solved.append(pins)
            return solve(quotient, pins)

        monkeypatch.setattr(temporal, "_solve_afin", counted)
        inst = make_instance("xyz", [("LT", "xy")])
        assert free_sets(inst, Q_LT) == ({"x"}, None, {"z"})
        assert solved == [{"x": temporal.Z_VALUE}, {"z": temporal.Z_VALUE}]


class TestQuotientSolveCount:
    """The number of quotient solves (``temporal._solve_afin`` calls) a
    master solve makes, on fixed golden instances.  A faster quotient
    solver must change what each solve costs, not which solves run."""

    GOLDEN = Path(__file__).parent / "golden"

    def count(self, monkeypatch, template_file, instance_file, mode):
        from orbitcsp.cli import parse_instance, parse_template

        template = parse_template((self.GOLDEN / template_file).read_text(encoding="utf-8"))
        instance = parse_instance((self.GOLDEN / instance_file).read_text(encoding="utf-8"),
                                  template)
        return self.count_solves(monkeypatch, instance, template, mode)

    def count_solves(self, monkeypatch, instance, template, mode):
        calls = []
        solve = temporal._solve_afin

        def counted(*args):
            calls.append(args)
            return solve(*args)

        monkeypatch.setattr(temporal, "_solve_afin", counted)
        levels = solve_master(instance, template, mode)
        return len(calls), None if levels is None else len(levels)

    def test_pp_on_rmin(self, monkeypatch):
        assert self.count(monkeypatch, "rmin.tmpl", "rmin40_sat.inst",
                          TemporalOp.PP) == (40, 40)

    def test_ll_on_le(self, monkeypatch):
        assert self.count(monkeypatch, "le.tmpl", "le80_sat.inst",
                          TemporalOp.LL) == (160, 80)

    def test_dual_ll_on_le(self, monkeypatch):
        assert self.count(monkeypatch, "le.tmpl", "le80_sat.inst",
                          TemporalOp.DUAL_LL) == (144, 80)

    @pytest.mark.parametrize("mode,solves", [(TemporalOp.LL, 40),
                                             (TemporalOp.DUAL_LL, 94)])
    def test_large_levels(self, monkeypatch, mode, solves):
        # Four blocks of ten variables, each glued into one level by an LE
        # cycle and chained to the next by LT.  A level costs one solve per
        # member, plus, in dual ll, one per lower block's variable that the
        # scan finds in no free set before it reaches the level.  Dual ll
        # reverses the relations, so the last variable of a lower block,
        # which LT puts below the next block, is blocked and never solved:
        # nine such solves per lower block and level, 54 in all.
        names = [f"v{i}" for i in range(40)]
        constraints = []
        for b in range(0, 40, 10):
            block = names[b:b + 10]
            constraints += [("LE", (v, block[(i + 1) % 10])) for i, v in enumerate(block)]
            if b:
                constraints.append(("LT", (names[b - 1], block[0])))
        instance = make_instance(names, constraints)
        assert self.count_solves(monkeypatch, instance, Q_LE, mode) == (solves, 4)

    @pytest.mark.parametrize("mode", [TemporalOp.PP, TemporalOp.LL])
    def test_a_planted_chain_takes_at_most_two_solves_per_variable(self, monkeypatch, mode):
        # Every level holds one variable, and every variable but the
        # lowest remaining one is blocked until the variables below it are
        # committed.  Scanning every candidate took 282 487 solves here.
        n = 1280
        instance = planted_rmin(random.Random(n), n)
        solves, levels = self.count_solves(monkeypatch, instance, Q_RMIN, mode)
        assert levels == n and solves <= 2 * n

    @pytest.mark.parametrize("template_file,instance_file,mode,lookups", [
        ("rmin.tmpl", "rmin40_sat.inst", TemporalOp.PP, 101),
        ("le.tmpl", "le80_sat.inst", TemporalOp.LL, 160),
        ("le.tmpl", "le80_sat.inst", TemporalOp.DUAL_LL, 160),
    ])
    def test_pattern_lookups(self, monkeypatch, template_file, instance_file,
                             mode, lookups):
        # One lookup per constraint, plus one per constraint a committed
        # level narrows but does not drop.
        calls = []
        lookup = temporal._fin_patterns

        def counted(*args):
            calls.append(args)
            return lookup(*args)

        monkeypatch.setattr(temporal, "_fin_patterns", counted)
        self.count(monkeypatch, template_file, instance_file, mode)
        assert len(calls) == lookups


class TestBruteOracle:
    def test_examples(self):
        assert brute_oracle(make_instance("xy", [("LT", "xy")]), Q_LT) == (("x",), ("y",))
        assert brute_oracle(make_instance("xy", [("LT", "xy"), ("LT", "yx")]), Q_LT) is None
        inst = make_instance("xyz", [("BETW", "xyz"), ("LT", "xz")])
        assert brute_oracle(inst, Q_BETW) == (("x",), ("y",), ("z",))

    def test_first_witness_is_lexicographic(self):
        # With no constraints the all-equal order has the smallest vector.
        assert brute_oracle(make_instance("abc", []), Q_LT) == (("a", "b", "c"),)

    def test_budget(self):
        inst = make_instance([f"v{i}" for i in range(8)], [])
        with pytest.raises(BudgetExceeded):
            brute_oracle(inst, Q_LT)

    def test_a_wrong_order_is_caught(self, monkeypatch):
        # The SAT check is an explicit raise, so it also runs under python -O.
        monkeypatch.setattr(
            temporal, "_dense_rank_vectors", lambda k, ok: iter([(1, 0)])
        )
        with pytest.raises(AssertionError):
            brute_oracle(make_instance("xy", [("LT", "xy")]), Q_LT)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(data=st.data())
    def test_returns_the_first_weak_order_that_passes_every_constraint(self, data):
        n = data.draw(st.integers(1, 6))
        variables = [f"v{i}" for i in range(n)]
        relations = {"LT": LT}
        for r in range(data.draw(st.integers(1, 3))):
            arity = data.draw(st.integers(1, 4))
            relations[f"R{r}"] = temporal_relation(
                arity, data.draw(st.sets(st.sampled_from(enumerate_weak_orders(arity)))))
        constraints = []
        for _ in range(data.draw(st.integers(0, 5))):
            name = data.draw(st.sampled_from(sorted(relations)))
            arity = relations[name].arity
            # Drawn with replacement, so a scope may repeat a variable.
            scope = data.draw(st.lists(st.sampled_from(variables),
                                       min_size=arity, max_size=arity))
            constraints.append((name, scope))
        inst = make_instance(variables, constraints)
        first = next(
            (t for t in enumerate_weak_orders(n)
             if all(t.restrict([variables.index(v) for v in scope]) in relations[name].types
                    for name, scope in constraints)),
            None)
        want = None if first is None else tuple(
            tuple(variables[p] for p in block) for block in first.blocks)
        assert brute_oracle(inst, TemporalTemplate(relations)) == want

    def test_a_relation_wider_than_the_pair_table(self):
        # A 9-ary relation on two variables: its fingerprints compare the
        # ranks of its own positions, which the table of ranks below
        # ENUMERATION_LIMIT does not hold.
        wide = temporal_relation(9, [WeakOrderType((0,) * 8 + (1,))])
        template = TemporalTemplate({"LT": LT, "R": wide})
        inst = make_instance("ab", [("R", "aaaaaaaab")])
        assert brute_oracle(inst, template) == (("a",), ("b",))


class TestClassify:
    def test_order_alone(self):
        verdict = classify_temporal(Q_LT)
        assert verdict.polynomial and verdict.mode is TemporalOp.PP

    def test_r_min(self):
        verdict = classify_temporal(Q_RMIN)
        assert verdict.polynomial and verdict.mode is TemporalOp.PP

    def test_betweenness_np_complete(self):
        verdict = classify_temporal(Q_BETW)
        assert not verdict.polynomial and verdict.mode is None
        modes = [mode for mode, _, _ in verdict.counterexamples]
        assert modes == [TemporalOp.PP, TemporalOp.DUAL_PP,
                         TemporalOp.LL, TemporalOp.DUAL_LL]
        for mode, name, witness in verdict.counterexamples:
            assert name == "BETW"
            rel = Q_BETW.relations[name]
            k = rel.arity
            values = realize(witness.joint)
            ranks, _ = reference_apply(mode.name, values[:k], values[k:2 * k])
            assert dense(ranks) == witness.image.restrict(range(k)).ranks
            assert dense(ranks) not in {t.ranks for t in rel.types}

    def test_deterministic(self):
        one = classify_temporal(Q_BETW)
        two = classify_temporal(Q_BETW)
        assert one == two

    def test_template_requires_order(self):
        with pytest.raises(ParameterError):
            TemporalTemplate({"LE": LE})

    def test_ternary_census_reports(self):
        # R ranges over the nonempty sets of ternary types, mask bit i
        # standing for enumerate_weak_orders(3)[i].  A seeded sample of the
        # 8 191 masks keeps the test short; the digest pins every sampled
        # report and exit code of `classify` on {LT, R} byte for byte.  The
        # same recipe over all masks 1..8191 gives 37cbe9438da72eb6...
        types3 = enumerate_weak_orders(3)
        masks = sorted(random.Random(13).sample(range(1, 1 << len(types3)), 400))
        digest = hashlib.sha256()
        for mask in masks:
            rel = temporal_relation(3, [t for i, t in enumerate(types3) if mask >> i & 1])
            lines, code = cli._cmd_classify(TemporalTemplate({"LT": LT, "R": rel}), None, None)
            digest.update(("\n".join(lines) + f"\n{code}\n").encode())
        assert digest.hexdigest() == \
            "51c1bfb37ec0dc7de987062a4ba19f0c9fdc33ae19809a3811880c4bab5c6568"


class TestDiscovery:
    def test_ll_preserved_ternary_relations_exist(self):
        found = []
        types3 = enumerate_weak_orders(3)
        for size in (2, 3, 4):
            for combo in combinations(types3, size):
                rel = temporal_relation(3, combo)
                if preserves_temporal(TemporalOp.LL, rel) is True:
                    found.append(rel)
            if len(found) >= 5:
                break
        assert len(found) >= 5
        # each induces a tractable template usable by the ll master
        rng = random.Random(99)
        for rel in found[:5]:
            template = TemporalTemplate({"LT": LT, "R": rel})
            for _ in range(15):
                inst = random_instance(rng, template, max_vars=5)
                got = solve_master(inst, template, TemporalOp.LL)
                want = brute_oracle(inst, template)
                assert (got is None) == (want is None)
                if got is not None:
                    assert levels_satisfy(got, inst, template)


class TestConsistencyAdapter:
    def test_order_cycle_rejected(self):
        inst = make_instance("xyz", [("LT", "xy"), ("LT", "yz"), ("LT", "zx")])
        assert establish_kl(inst, TemporalPatterns(Q_LT), 2, 3) is EMPTY_DERIVED

    def test_chain_passes(self):
        inst = make_instance("xyz", [("LT", "xy"), ("LT", "yz")])
        state = establish_kl(inst, TemporalPatterns(Q_LT), 2, 3)
        assert state is not EMPTY_DERIVED
        assert len(state.allowed[("x", "y")]) == 1  # only x<y survives

    def test_betweenness_gap(self):
        # (2,3)-consistency alone cannot see that the 4-cycle of
        # betweenness constraints below is unsatisfiable; the oracle can.
        inst = make_instance(
            "abcd",
            [("BETW", "abc"), ("BETW", "bcd"), ("BETW", "cda"), ("BETW", "dab")])
        state = establish_kl(inst, TemporalPatterns(Q_BETW), 2, 3)
        verdict = brute_oracle(inst, Q_BETW)
        # document whichever way it falls; both must be sound
        if state is EMPTY_DERIVED:
            assert verdict is None
