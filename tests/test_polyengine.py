"""Tests for the polymorphism engine and boolean dispatch solving."""

import random
from itertools import product

import pytest

from orbitcsp.errors import BudgetExceeded, ClassMismatch, DomainMismatch, ParameterError
from orbitcsp.polyengine import (
    AND2,
    MAJ3,
    OR2,
    XOR3,
    BooleanClass,
    IDEMPOTENT,
    IdentitySystem,
    MAJORITY,
    MINORITY,
    SEMILATTICE,
    SIGGERS,
    OpTable,
    boolean_classify,
    cyclic,
    find_polymorphism,
    preserves_op,
    boolean_classify as classify,
    satisfies_identities,
    schaefer_solve,
    wnu,
)
from orbitcsp.relstruct import FiniteStructure, make_instance, relation

from oracles import all_op_tables, exhaustive_hom

U0 = relation(1, [(0,)])
U1 = relation(1, [(1,)])
ONE_IN_THREE = relation(3, [(0, 0, 1), (0, 1, 0), (1, 0, 0)])
IMPLIES = relation(2, [(0, 0), (0, 1), (1, 1)])
XOR_REL = relation(2, [(0, 1), (1, 0)])
EVEN3 = relation(3, [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)])


def structure(**rels):
    return FiniteStructure(2, dict(rels))


class TestFixedTables:
    def test_fixed_tables_shapes(self):
        assert MAJ3(0, 1, 1) == 1 and MAJ3(0, 1, 0) == 0
        assert XOR3(0, 1, 1) == 0 and XOR3(1, 1, 1) == 1
        assert AND2(1, 0) == 0 and OR2(1, 0) == 1

    def test_preserves_op_domain_check(self):
        with pytest.raises(DomainMismatch):
            preserves_op(AND2, FiniteStructure(3, {}))


class TestBooleanClassify:
    def test_horn_template(self):
        got = classify(structure(IMP=IMPLIES, U0=U0, U1=U1))
        assert BooleanClass.HORN_AND in got
        assert BooleanClass.TRIVIAL not in got

    def test_one_in_three_with_constants_is_trivial(self):
        got = classify(structure(R=ONE_IN_THREE, U0=U0, U1=U1))
        assert got == frozenset({BooleanClass.TRIVIAL})

    def test_binary_relations_are_majority_closed(self):
        rng = random.Random(4)
        for _ in range(20):
            pool = [(0, 0), (0, 1), (1, 0), (1, 1)]
            rels = {
                f"B{i}": relation(2, [t for t in pool if rng.random() < 0.7])
                for i in range(3)
            }
            got = classify(FiniteStructure(2, rels))
            assert BooleanClass.MAJORITY_2SAT in got

    def test_affine_template(self):
        got = classify(structure(P=EVEN3, U1=U1))
        assert BooleanClass.MINORITY_AFFINE in got
        assert BooleanClass.HORN_AND not in got


def pair_graph_relation(edges):
    """A 4-ary relation encoding an undirected graph on the four pairs
    {0,1}^2: each edge (u, v) contributes the concatenated tuples u+v and
    v+u."""
    tuples = set()
    for u, v in edges:
        tuples.add(u + v)
        tuples.add(v + u)
    return relation(4, tuples)


def random_odd_cycle_graph(rng):
    """A loopless graph on {0,1}^2 that contains a triangle (hence an odd
    cycle), plus some random extra edges."""
    vertices = [(0, 0), (0, 1), (1, 0), (1, 1)]
    tri = rng.sample(vertices, 3)
    edges = {frozenset((tri[0], tri[1])), frozenset((tri[1], tri[2])),
             frozenset((tri[0], tri[2]))}
    for u in vertices:
        for v in vertices:
            if u < v and rng.random() < 0.3:
                edges.add(frozenset((u, v)))
    return [tuple(sorted(e)) for e in sorted(e_ for e_ in (tuple(sorted(x)) for x in edges))]


def test_loopless_odd_cycle_invariant_forces_triviality():
    # An idempotent template (both constants named) preserving a symmetric
    # loopless pair-graph with an odd cycle admits none of the four tables.
    rng = random.Random(2024)
    for _ in range(20):
        edges = random_odd_cycle_graph(rng)
        tpl = structure(G=pair_graph_relation(edges), U0=U0, U1=U1)
        assert classify(tpl) == frozenset({BooleanClass.TRIVIAL})


class TestFindPolymorphism:
    def test_majority_on_two_sat_template(self):
        tpl = structure(X=XOR_REL, IMP=IMPLIES)
        table = find_polymorphism(tpl, MAJORITY, 3)
        assert table == MAJ3  # the majority table on {0,1} is unique

    def test_majority_excluded_on_xor_template(self):
        tpl = structure(P=EVEN3, U1=U1)
        assert find_polymorphism(tpl, MAJORITY, 3) is None
        # Independent confirmation: no ternary table preserving the template
        # satisfies the majority equations.
        for op in all_op_tables(2, 3):
            if satisfies_identities(op, MAJORITY):
                assert not preserves_op(op, tpl)

    def test_wnu3_on_two_sat_template(self):
        tpl = structure(X=XOR_REL)
        table = find_polymorphism(tpl, wnu(3), 3)
        assert table is not None
        assert satisfies_identities(table, wnu(3))
        assert preserves_op(table, tpl)

    def test_empty_signature_majority(self):
        tpl = FiniteStructure(3, {})
        table = find_polymorphism(tpl, MAJORITY, 3)
        assert table is not None
        assert satisfies_identities(table, MAJORITY)

    def test_cyclic_on_three_element_domain(self):
        # The directed 3-cycle is preserved by rotation-invariant operations.
        rot = relation(2, [(0, 1), (1, 2), (2, 0)])
        tpl = FiniteStructure(3, {"C": rot})
        table = find_polymorphism(tpl, cyclic(2), 2)
        if table is not None:
            assert satisfies_identities(table, cyclic(2))
            assert preserves_op(table, tpl)

    def test_semilattice_includes_associativity(self):
        tpl = structure(IMP=IMPLIES)
        table = find_polymorphism(tpl, SEMILATTICE, 2)
        assert table is not None
        assert satisfies_identities(table, SEMILATTICE)
        d = table.domain_size
        for x, y, z in product(range(d), repeat=3):
            assert table(table(x, y), z) == table(x, table(y, z))

    def test_arity_validation(self):
        with pytest.raises(ParameterError):
            find_polymorphism(structure(X=XOR_REL), MAJORITY, 4)

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            find_polymorphism(FiniteStructure(3, {}), SIGGERS, 6)
        with pytest.raises(BudgetExceeded):
            find_polymorphism(FiniteStructure(2, {}), IdentitySystem("wnu", 5), 5)

    def test_siggers_boolean_delegation(self):
        sat = structure(X=XOR_REL)
        table = find_polymorphism(sat, SIGGERS, 6)
        assert table is not None
        assert satisfies_identities(table, SIGGERS)
        assert preserves_op(table, sat)
        hard = structure(R=ONE_IN_THREE, U0=U0, U1=U1)
        assert find_polymorphism(hard, SIGGERS, 6) is None

    def test_first_found_is_first_enumerated_table(self):
        # The search must return the lexicographically first table (cell 0
        # most significant) that satisfies the identities and preserves the
        # template, i.e. the first one full enumeration meets.
        shapes = [
            (2, 2, [IDEMPOTENT, SEMILATTICE, cyclic(2), wnu(2)]),
            (2, 3, [IDEMPOTENT, MAJORITY, MINORITY, cyclic(3), wnu(3)]),
            # On binary tables wnu(2) and cyclic(2) are both commutativity.
            (3, 2, [IDEMPOTENT, SEMILATTICE, cyclic(2)]),
        ]
        rng = random.Random(31)
        for d, n, systems in shapes:
            candidates = {ids: [op for op in all_op_tables(d, n)
                                if satisfies_identities(op, ids)]
                          for ids in systems}
            for _ in range(6 if d == 2 else 3):
                rels = {}
                for i in range(rng.randint(1, 2)):
                    arity = rng.randint(1, 3 if d == 2 else 2)
                    pool = list(product(range(d), repeat=arity))
                    rels[f"R{i}"] = relation(
                        arity, [t for t in pool if rng.random() < 0.6])
                tpl = FiniteStructure(d, rels)
                for ids in systems:
                    want = next((op for op in candidates[ids]
                                 if preserves_op(op, tpl)), None)
                    assert find_polymorphism(tpl, ids, n) == want, (tpl, ids)


class TestSchaeferSolve:
    def horn_template(self):
        return structure(IMP=IMPLIES, U0=U0, U1=U1,
                         AND3=relation(3, [(0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 1)]))

    def test_class_mismatch(self):
        tpl = structure(R=ONE_IN_THREE, U0=U0, U1=U1)
        inst = make_instance("xyz", [("R", "xyz")])
        with pytest.raises(ClassMismatch):
            schaefer_solve(inst, tpl, BooleanClass.HORN_AND)

    def test_horn_least_solution(self):
        tpl = self.horn_template()
        inst = make_instance("abc", [("U1", "a"), ("IMP", "ab"), ("IMP", "bc")])
        assert schaefer_solve(inst, tpl, BooleanClass.HORN_AND) == {"a": 1, "b": 1, "c": 1}
        inst2 = make_instance("abc", [("IMP", "ab")])
        assert schaefer_solve(inst2, tpl, BooleanClass.HORN_AND) == {"a": 0, "b": 0, "c": 0}

    def test_two_sat_triangle_unsat(self):
        tpl = structure(NEQ=XOR_REL)
        inst = make_instance("xyz", [("NEQ", "xy"), ("NEQ", "yz"), ("NEQ", "xz")])
        assert schaefer_solve(inst, tpl, BooleanClass.MAJORITY_2SAT) is None

    def test_affine_chain(self):
        tpl = structure(P=EVEN3, U1=U1)
        inst = make_instance("xyz", [("P", "xyz"), ("U1", "x"), ("U1", "y")])
        got = schaefer_solve(inst, tpl, BooleanClass.MINORITY_AFFINE)
        assert got == {"x": 1, "y": 1, "z": 0}

    def test_constant_dispatch(self):
        tpl = structure(IMP=IMPLIES)
        inst = make_instance("xy", [("IMP", "xy")])
        assert schaefer_solve(inst, tpl, BooleanClass.CONSTANT0) == {"x": 0, "y": 0}

    def _random_closed_relation(self, rng, closure, arity):
        pool = list(product(range(2), repeat=arity))
        rows = set(rng.sample(pool, rng.randint(1, len(pool))))
        changed = True
        while changed:
            changed = False
            for combo in list(product(rows, repeat=3 if closure in (MAJ3, XOR3) else 2)):
                img = tuple(closure(*(t[j] for t in combo)) for j in range(arity))
                if img not in rows:
                    rows.add(img)
                    changed = True
        return relation(arity, rows)

    @pytest.mark.parametrize("cls,table", [
        (BooleanClass.HORN_AND, AND2),
        (BooleanClass.DUAL_HORN_OR, OR2),
        (BooleanClass.MAJORITY_2SAT, MAJ3),
        (BooleanClass.MINORITY_AFFINE, XOR3),
    ])
    def test_dispatch_agrees_with_exhaustive(self, cls, table):
        rng = random.Random(hash(cls.value) % 100000)
        for _ in range(60):
            rels = {
                f"R{i}": self._random_closed_relation(rng, table, rng.randint(1, 3))
                for i in range(rng.randint(1, 3))
            }
            tpl = FiniteStructure(2, rels)
            assert cls in boolean_classify(tpl)
            n = rng.randint(1, 5)
            names = [f"x{i}" for i in range(n)]
            cons = []
            for _ in range(rng.randint(0, 5)):
                name = rng.choice(sorted(rels))
                cons.append((name, tuple(rng.choice(names)
                                         for _ in range(rels[name].arity))))
            inst = make_instance(names, cons)
            got = schaefer_solve(inst, tpl, cls)
            want = exhaustive_hom(inst, tpl)
            assert (got is None) == (want is None)
            if got is not None:
                for name, scope in inst.constraints:
                    assert tuple(got[v] for v in scope) in rels[name].tuples
