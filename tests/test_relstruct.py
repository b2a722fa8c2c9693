"""Tests for finite structures and the deterministic homomorphism search."""

import random
from itertools import product

import pytest

from orbitcsp.errors import (
    ArityMismatch,
    BudgetExceeded,
    DomainMismatch,
    ParameterError,
    SignatureMismatch,
    UnknownVariable,
)
from orbitcsp.relstruct import (
    FiniteStructure,
    Instance,
    Relation,
    encode_tuple,
    hom_search,
    make_instance,
    relation,
)

from oracles import decode_tuple, exhaustive_hom, power_structure


def clique(n: int) -> FiniteStructure:
    edges = frozenset((i, j) for i in range(n) for j in range(n) if i != j)
    return FiniteStructure(n, {"E": Relation(2, edges)})


def cycle_instance(n: int) -> Instance:
    names = [f"v{i}" for i in range(n)]
    cons = [("E", (names[i], names[(i + 1) % n])) for i in range(n)]
    return make_instance(names, cons)


ONE_IN_THREE = FiniteStructure(
    2, {"R": relation(3, [(0, 0, 1), (0, 1, 0), (1, 0, 0)])}
)


class TestHomSearch:
    def test_triangle_into_triangle(self):
        result = hom_search(cycle_instance(3), clique(3))
        assert result is not None
        # Canonical witness: first assignment in search order.
        assert result == exhaustive_hom(cycle_instance(3), clique(3))

    def test_odd_cycle_into_edge_unsat(self):
        assert hom_search(cycle_instance(5), clique(2)) is None

    def test_even_cycle_into_edge_sat(self):
        assert hom_search(cycle_instance(4), clique(2)) is not None

    def test_repeated_variable_scope(self):
        # R(x,y,z) & R(x,x,y) forces x=0, y=1, and then z=0 works.
        inst = make_instance("xyz", [("R", "xyz"), ("R", "xxy")])
        got = hom_search(inst, ONE_IN_THREE)
        assert got == exhaustive_hom(inst, ONE_IN_THREE)
        assert got == {"x": 0, "y": 1, "z": 0}

    def test_conflicting_repeated_scopes_unsat(self):
        # R(x,x,y) forces x=0,y=1; R(y,y,x) forces y=0,x=1.
        inst = make_instance("xy", [("R", "xxy"), ("R", "yyx")])
        assert hom_search(inst, ONE_IN_THREE) is None
        assert exhaustive_hom(inst, ONE_IN_THREE) is None

    def test_empty_relation_unsat(self):
        tpl = FiniteStructure(2, {"R": relation(1, [])})
        inst = make_instance("x", [("R", "x")])
        assert hom_search(inst, tpl) is None

    def test_long_path_beyond_recursion_limit(self):
        # Search depth is the number of variables; it must not be bounded by
        # the interpreter's recursion limit.
        n = 3000
        names = [f"v{i}" for i in range(n)]
        inst = make_instance(names, [("E", (names[i], names[i + 1]))
                                     for i in range(n - 1)])
        got = hom_search(inst, clique(2))
        assert got == {v: i % 2 for i, v in enumerate(names)}

    def test_unknown_relation_rejected(self):
        inst = make_instance("xy", [("Q", "xy")])
        with pytest.raises(SignatureMismatch):
            hom_search(inst, clique(2))

    def test_wrong_arity_rejected(self):
        inst = make_instance("xyz", [("E", "xyz")])
        with pytest.raises(SignatureMismatch):
            hom_search(inst, clique(2))

    @pytest.mark.parametrize("make,error", [
        (lambda: Relation(0, frozenset()), ParameterError),
        (lambda: relation(2, [(0,)]), ArityMismatch),
        (lambda: FiniteStructure(0, {}), ParameterError),
        (lambda: FiniteStructure(2, {"U": relation(1, [(2,)])}), DomainMismatch),
        (lambda: make_instance("xx", []), ParameterError),
        (lambda: make_instance("x", [("U", "y")]), UnknownVariable),
    ])
    def test_malformed_structures_raise_package_errors(self, make, error):
        with pytest.raises(error):
            make()

    def test_agrees_with_exhaustive_on_random_instances(self):
        rng = random.Random(20210)
        for trial in range(300):
            dom = rng.randint(1, 4)
            rels = {}
            for r in range(rng.randint(1, 3)):
                arity = rng.randint(1, 3)
                size = rng.randint(0, dom ** arity)
                tuples = rng.sample(list(product(range(dom), repeat=arity)), size)
                rels[f"R{r}"] = relation(arity, tuples)
            tpl = FiniteStructure(dom, rels)
            n = rng.randint(1, 6)
            names = [f"x{i}" for i in range(n)]
            cons = []
            for _ in range(rng.randint(0, 6)):
                name = rng.choice(sorted(rels))
                scope = tuple(rng.choice(names) for _ in range(rels[name].arity))
                cons.append((name, scope))
            inst = make_instance(names, cons)
            assert hom_search(inst, tpl) == exhaustive_hom(inst, tpl)


class TestPower:
    def test_codes_round_trip(self):
        for code in range(27):
            assert encode_tuple(decode_tuple(code, 3, 3), 3) == code

    def test_square_of_two_element_domain(self):
        tpl = FiniteStructure(2, {"R": relation(2, [(0, 1)])})
        sq = power_structure(tpl, 2)
        assert sq.domain_size == 4
        # The only section pairs are ((0,1),(0,1)): element (0,0) -> (1,1).
        assert sq.relations["R"].tuples == frozenset({(0, 3)})

    def test_empty_relation_stays_empty(self):
        tpl = FiniteStructure(2, {"R": relation(2, [])})
        assert power_structure(tpl, 3).relations["R"].tuples == frozenset()

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            power_structure(clique(5), 6)

    def test_power_hom_matches_table_search(self):
        # A binary polymorphism is the same thing as a homomorphism from the
        # square presented as an instance.
        from orbitcsp.polyengine import preserves_op

        from oracles import all_op_tables

        rng = random.Random(7)
        for _ in range(25):
            tuples = [t for t in [(0, 0), (0, 1), (1, 0), (1, 1)] if rng.random() < 0.6]
            tpl = FiniteStructure(2, {"R": relation(2, tuples)})
            # The square as an instance: one variable per element, one
            # constraint per tuple.
            square = power_structure(tpl, 2)
            inst = make_instance(
                [f"t{i}" for i in range(square.domain_size)],
                [("R", [f"t{v}" for v in t]) for t in square.relations["R"].sorted_tuples()],
            )
            hom = hom_search(inst, tpl)
            some_op = any(preserves_op(op, tpl) for op in all_op_tables(2, 2))
            assert (hom is not None) == some_op
