"""Acceptance suite: one test per release criterion.

Each test prints a single ``criterion N: PASS`` line on success (visible
with ``pytest -s`` or in captured output); a failing criterion shows up as
the corresponding failed test.  Random data is seeded, so every run checks
the same 3000+ generated cases.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from itertools import combinations, product

from oracles import behavior_preserves, is_injective, pair_label, reference_apply

from orbitcsp.consistency import EMPTY_DERIVED, establish_kl
from orbitcsp.homog import (
    GRAPH,
    TOURNAMENT,
    HomogPatterns,
    HomogTemplate,
    Label,
    LabeledType,
    Shape,
    VerdictKind,
    classify_reduct,
    confirm_no_behavior,
    enumerate_types,
    kfree,
    search_behavior,
    solve_instance_brute,
    type_set_relation,
)
from orbitcsp.polyengine import (
    AND2,
    MAJ3,
    XOR3,
    BooleanClass,
    boolean_classify,
    preserves_op,
    schaefer_solve,
)
from orbitcsp.relstruct import FiniteStructure, Relation, hom_search, make_instance
from orbitcsp.temporal import (
    LT,
    LT_TYPE,
    TemporalOp,
    TemporalPatterns,
    TemporalRelation,
    TemporalTemplate,
    WeakOrderType,
    brute_oracle,
    build_afin,
    classify_temporal,
    enumerate_weak_orders,
    free_sets,
    preserves_temporal,
    solve_master,
    temporal_relation,
)

FIVE_MINUTES = 300.0


def report(number: int, detail: str) -> None:
    print(f"criterion {number}: PASS — {detail}")


# --- temporal fixtures -------------------------------------------------------

EQ_TYPE = WeakOrderType((0, 0))
Q_LT = TemporalTemplate({"LT": LT})
Q_LE = TemporalTemplate({"LT": LT, "LE": temporal_relation(2, [LT_TYPE, EQ_TYPE])})
R_MIN = temporal_relation(
    3,
    [t for t in enumerate_weak_orders(3) if t.ranks[1] < t.ranks[0] or t.ranks[2] < t.ranks[0]],
)
Q_RMIN = TemporalTemplate({"LT": LT, "RMIN": R_MIN})
BETW = temporal_relation(3, [WeakOrderType((0, 1, 2)), WeakOrderType((2, 1, 0))])
Q_BETW = TemporalTemplate({"LT": LT, "BETW": BETW})


def random_temporal_instance(rng, template, max_vars, max_constraints):
    names = [f"v{i}" for i in range(rng.randint(2, max_vars))]
    rels = sorted(template.relations)
    constraints = []
    for _ in range(rng.randint(1, max_constraints)):
        name = rng.choice(rels)
        arity = template.relations[name].arity
        constraints.append((name, tuple(rng.choice(names) for _ in range(arity))))
    return make_instance(names, constraints)


def levels_satisfy(levels, instance, template):
    rank = {v: i for i, level in enumerate(levels) for v in level}
    if sorted(rank) != sorted(instance.variables):
        return False
    return all(
        WeakOrderType.from_values([rank[v] for v in scope])
        in template.relations[name].types
        for name, scope in instance.constraints
    )


def discover_ll_preserved_templates(count: int) -> list[TemporalTemplate]:
    """Randomly generated relations (arity <= 3, at most 4 types) that the
    ll operation preserves, each packaged with the order relation."""
    rng = random.Random(61)
    found: list[TemporalTemplate] = []
    seen: set[frozenset[WeakOrderType]] = set()
    while len(found) < count:
        arity = rng.choice((2, 3))
        pool = enumerate_weak_orders(arity)
        types = frozenset(rng.sample(pool, rng.randint(1, min(4, len(pool)))))
        if types in seen:
            continue
        seen.add(types)
        rel = temporal_relation(arity, types)
        if preserves_temporal(TemporalOp.LL, rel):
            found.append(TemporalTemplate({"LT": LT, "R": rel}))
    return found


LL_TEMPLATES = discover_ll_preserved_templates(5)


def test_criterion_01_temporal_master_vs_oracle():
    started = time.monotonic()
    rng = random.Random(101)
    jobs = [(t, classify_temporal(t).mode) for t in (Q_LT, Q_RMIN, Q_LE)]
    jobs += [(t, TemporalOp.LL) for t in LL_TEMPLATES]
    checked = 0
    for template, mode in jobs:
        assert mode is not None
        for _ in range(200):
            instance = random_temporal_instance(rng, template, 7, 8)
            got = solve_master(instance, template, mode)
            want = brute_oracle(instance, template)
            assert (got is None) == (want is None), (template.relations.keys(), instance)
            if got is not None:
                assert levels_satisfy(got, instance, template)
            checked += 1
    elapsed = time.monotonic() - started
    assert elapsed < FIVE_MINUTES
    report(1, f"{checked} instances across {len(jobs)} templates, 0 disagreements, {elapsed:.1f}s")


def realize(pattern) -> list[Fraction]:
    """Concrete rationals carrying the pattern's order, its last position 0."""
    return [Fraction(r - pattern.ranks[-1]) for r in pattern.ranks]


def test_criterion_02_betweenness_counterexamples():
    verdict = classify_temporal(Q_BETW)
    assert not verdict.polynomial
    witnessed = {op for op, _, _ in verdict.counterexamples}
    assert witnessed == {
        TemporalOp.PP,
        TemporalOp.DUAL_PP,
        TemporalOp.LL,
        TemporalOp.DUAL_LL,
    }
    for op, name, counter in verdict.counterexamples:
        rel = Q_BETW.relations[name]
        assert counter.left in rel.types and counter.right in rel.types
        values = realize(counter.joint)
        k = rel.arity
        ranks, _ = reference_apply(op.name, values[:k], values[k:2 * k])
        assert WeakOrderType.from_values(ranks) == counter.image.restrict(range(k))
        assert WeakOrderType.from_values(ranks) not in rel.types
    report(2, "NP_COMPLETE with concrete rational counterexamples for PP, DUAL_PP, LL, DUAL_LL")


def min_positions(ranks) -> set[int]:
    lowest = min(ranks)
    return {i for i, r in enumerate(ranks) if r == lowest}


def free_by_direct_enumeration(instance, template, subset) -> bool:
    for name, scope in instance.constraints:
        inside = {i for i, v in enumerate(scope) if v in subset}
        if not inside:
            continue
        types = template.relations[name].types
        if not any(min_positions(t.ranks) == inside for t in types):
            return False
    return True


def test_criterion_03_afin_and_free_sets():
    structure = build_afin(Q_LT)
    assert structure.domain_size == 2
    assert set(structure.relations) == {"LT", "Z", "P"}
    assert structure.relations["LT"].tuples == {(1, 0), (0, 0)}
    assert structure.relations["Z"].tuples == {(1,)}
    assert structure.relations["P"].tuples == {(0,)}

    instance = make_instance(("x", "y"), [("LT", ("x", "y"))])
    assert free_sets(instance, Q_LT) == (frozenset({"x"}), None)
    assert free_by_direct_enumeration(instance, Q_LT, {"x"})
    assert not free_by_direct_enumeration(instance, Q_LT, {"y"})
    assert not free_by_direct_enumeration(instance, Q_LT, {"x", "y"})
    report(3, "A^fin of the order matches exactly; free sets on {x<y} verified by enumeration")


def test_criterion_04_ll_templates_inherit_semilattice():
    templates = [Q_LT, Q_RMIN, Q_LE] + LL_TEMPLATES
    inherited = 0
    for template in templates:
        if not all(
            preserves_temporal(TemporalOp.LL, rel)
            for rel in template.relations.values()
        ):
            continue
        assert preserves_op(AND2, build_afin(template))
        inherited += 1
    assert inherited >= len(LL_TEMPLATES) + 1  # the discovered ones plus the order
    report(4, f"AND is a polymorphism of A^fin for all {inherited} ll-preserved templates")


# --- homogeneous fixtures ----------------------------------------------------


def injective_relation(base, arity, keep):
    return type_set_relation(
        arity, base, [t for t in enumerate_types(arity, base) if is_injective(t) and keep(t)]
    )


def parity_relation(base):
    lead = base.labels[0]
    return injective_relation(
        GRAPH if base is GRAPH else TOURNAMENT,
        4,
        lambda t: sum(pair_label(t, i, j) is lead for i, j in combinations(range(4), 2)) % 2 == 0,
    )


def one_of_three_relation(base):
    lead = base.labels[0]
    return injective_relation(
        base, 3,
        lambda t: sum(pair_label(t, i, j) is lead for i, j in combinations(range(3), 2)) == 1,
    )


ARC = type_set_relation(
    2, TOURNAMENT, [t for t in enumerate_types(2, TOURNAMENT) if t.fingerprint == (Label.FWD,)]
)
EDGE = type_set_relation(
    2, GRAPH, [t for t in enumerate_types(2, GRAPH) if t.fingerprint == (Label.E,)]
)
NON_EDGE = type_set_relation(
    2, GRAPH, [t for t in enumerate_types(2, GRAPH) if t.fingerprint == (Label.N,)]
)

T_ARC = HomogTemplate(TOURNAMENT, {"ARC": ARC})
T_PARITY = HomogTemplate(TOURNAMENT, {"R4": parity_relation(TOURNAMENT)})
T_ONE = HomogTemplate(TOURNAMENT, {"R": one_of_three_relation(TOURNAMENT)})
G_EDGE = HomogTemplate(GRAPH, {"E": EDGE})
G_BOTH = HomogTemplate(GRAPH, {"E": EDGE, "N": NON_EDGE})
G_PARITY = HomogTemplate(GRAPH, {"R4": parity_relation(GRAPH)})
G_ONE = HomogTemplate(GRAPH, {"R": one_of_three_relation(GRAPH)})


def assert_witness_preserves(verdict, template):
    assert verdict.witness is not None
    for rel in template.relations.values():
        assert behavior_preserves(verdict.witness, rel)


def test_criterion_05_tournament_classifier():
    arc = classify_reduct(T_ARC)
    assert arc.kind is VerdictKind.P_BOUNDED_WIDTH
    assert arc.shape is Shape.TERNARY_MAJORITY
    assert_witness_preserves(arc, T_ARC)

    parity = classify_reduct(T_PARITY)
    assert parity.kind is VerdictKind.P_NOT_BOUNDED_WIDTH
    assert parity.shape is Shape.TERNARY_MINORITY
    assert_witness_preserves(parity, T_PARITY)
    assert search_behavior(T_PARITY, Shape.TERNARY_MAJORITY) is None
    assert confirm_no_behavior(T_PARITY, Shape.TERNARY_MAJORITY)

    hard = classify_reduct(T_ONE)
    assert hard.kind is VerdictKind.NP_COMPLETE
    assert confirm_no_behavior(T_ONE, Shape.TERNARY_MAJORITY)
    assert confirm_no_behavior(T_ONE, Shape.TERNARY_MINORITY)
    report(5, "arc bounded width, parity minority-only, one-arc reduct NP-complete (certified)")


def test_criterion_06_graph_classifier():
    for template in (G_EDGE, G_BOTH):
        verdict = classify_reduct(template)
        assert verdict.kind is VerdictKind.P_BOUNDED_WIDTH
        assert_witness_preserves(verdict, template)

    parity = classify_reduct(G_PARITY)
    assert parity.kind is VerdictKind.P_NOT_BOUNDED_WIDTH
    assert parity.shape is Shape.TERNARY_MINORITY
    assert_witness_preserves(parity, G_PARITY)
    for shape in (Shape.TERNARY_MAJORITY, Shape.BINARY_SL_E, Shape.BINARY_SL_N):
        assert confirm_no_behavior(G_PARITY, shape)

    hard = classify_reduct(G_ONE)
    assert hard.kind is VerdictKind.NP_COMPLETE
    for shape in Shape:
        assert confirm_no_behavior(G_ONE, shape)
    report(6, "edge reducts bounded width; parity and one-edge verdicts exhaustively certified")


def random_homog_instance(rng, template, max_vars, max_constraints):
    names = [f"v{i}" for i in range(rng.randint(2, max_vars))]
    rels = sorted(template.relations)
    constraints = []
    for _ in range(rng.randint(1, max_constraints)):
        name = rng.choice(rels)
        arity = template.relations[name].arity
        constraints.append((name, tuple(rng.choice(names) for _ in range(arity))))
    return make_instance(names, constraints)


def consistency_rejects(instance, template) -> bool:
    space = HomogPatterns(template)
    if establish_kl(instance, space, 2, 3) is EMPTY_DERIVED:
        return True
    return establish_kl(instance, space, 3, 9) is EMPTY_DERIVED


def test_criterion_07_width_coherence():
    started = time.monotonic()
    rng = random.Random(77)
    bounded = [T_ARC, G_EDGE, G_BOTH]
    rejected = accepted = 0
    for template in bounded:
        for _ in range(200):
            instance = random_homog_instance(rng, template, 5, 6)
            rejects = consistency_rejects(instance, template)
            unsat = solve_instance_brute(instance, template) is None
            assert rejects == unsat, instance
            rejected += rejects
            accepted += not rejects
    elapsed = time.monotonic() - started
    assert elapsed < FIVE_MINUTES
    assert rejected and accepted
    report(7, f"600 instances: {rejected} rejected, {accepted} accepted, all matching the oracle, {elapsed:.1f}s")


def test_criterion_08_consistency_soundness():
    rng = random.Random(88)
    kfree_edge = type_set_relation(
        2, kfree(3), [t for t in enumerate_types(2, kfree(3)) if t.fingerprint == (Label.E,)]
    )
    rounds = [
        ("temporal", Q_RMIN, TemporalPatterns(Q_RMIN)),
        ("tournament", HomogTemplate(TOURNAMENT, {"ARC": ARC, "R4": T_PARITY.relations["R4"]}), None),
        ("graph", G_BOTH, None),
        ("kfree", HomogTemplate(kfree(3), {"EDGE": kfree_edge}), None),
    ]
    empties = 0
    for kind, template, space in rounds:
        if space is None:
            space = HomogPatterns(template)
        for _ in range(125):
            if kind == "temporal":
                instance = random_temporal_instance(rng, template, 5, 6)
                sat = brute_oracle(instance, template) is not None
            else:
                instance = random_homog_instance(rng, template, 5, 6)
                sat = solve_instance_brute(instance, template) is not None
            if establish_kl(instance, space, 2, 3) is EMPTY_DERIVED:
                empties += 1
                assert not sat, (kind, instance)
    assert empties > 0
    report(8, f"500 instances over four bases; {empties} empty derivations, none satisfiable")


# --- boolean fixtures --------------------------------------------------------

U0 = Relation(1, frozenset({(0,)}))
U1 = Relation(1, frozenset({(1,)}))


def pair_graph_relation(edges):
    tuples = set()
    for u, v in edges:
        tuples.add(u + v)
        tuples.add(v + u)
    return Relation(4, frozenset(tuples))


def random_odd_cycle_graph(rng):
    vertices = [(0, 0), (0, 1), (1, 0), (1, 1)]
    triangle = rng.sample(vertices, 3)
    edges = {
        frozenset((triangle[0], triangle[1])),
        frozenset((triangle[1], triangle[2])),
        frozenset((triangle[0], triangle[2])),
    }
    for u in vertices:
        for v in vertices:
            if u < v and rng.random() < 0.3:
                edges.add(frozenset((u, v)))
    return [tuple(sorted(e)) for e in sorted(tuple(sorted(x)) for x in edges)]


def test_criterion_09_odd_cycle_invariant_is_trivial():
    rng = random.Random(99)
    for _ in range(20):
        edges = random_odd_cycle_graph(rng)
        template = FiniteStructure(
            2, {"G": pair_graph_relation(edges), "U0": U0, "U1": U1}
        )
        assert boolean_classify(template) == frozenset({BooleanClass.TRIVIAL})
    report(9, "20 idempotent templates with loopless odd-cycle invariants all classify TRIVIAL")


def random_closed_relation(rng, closure, arity):
    pool = list(product(range(2), repeat=arity))
    rows = set(rng.sample(pool, rng.randint(1, len(pool))))
    changed = True
    while changed:
        changed = False
        for combo in list(product(rows, repeat=closure.arity)):
            image = tuple(closure(*(t[j] for t in combo)) for j in range(arity))
            if image not in rows:
                rows.add(image)
                changed = True
    return Relation(arity, frozenset(rows))


def test_criterion_10_schaefer_dispatch_agrees_with_search():
    cases = [
        (BooleanClass.HORN_AND, AND2),
        (BooleanClass.MAJORITY_2SAT, MAJ3),
        (BooleanClass.MINORITY_AFFINE, XOR3),
    ]
    for cls, table in cases:
        rng = random.Random(1000 + table.arity)
        for _ in range(200):
            relations = {
                f"R{i}": random_closed_relation(rng, table, rng.randint(1, 3))
                for i in range(rng.randint(1, 3))
            }
            template = FiniteStructure(2, relations)
            assert cls in boolean_classify(template)
            names = [f"x{i}" for i in range(rng.randint(1, 5))]
            constraints = []
            for _ in range(rng.randint(0, 6)):
                name = rng.choice(sorted(relations))
                constraints.append(
                    (name, tuple(rng.choice(names) for _ in range(relations[name].arity)))
                )
            instance = make_instance(names, constraints)
            got = schaefer_solve(instance, template, cls)
            want = hom_search(instance, template)
            assert (got is None) == (want is None)
            if got is not None:
                for name, scope in instance.constraints:
                    assert tuple(got[v] for v in scope) in relations[name].tuples
    report(10, "600 instances across Horn, majority, and affine classes agree with direct search")
