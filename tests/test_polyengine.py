"""Tests for the polymorphism engine and boolean solving."""

import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from orbitcsp.errors import BudgetExceeded, ClassMismatch, DomainMismatch, ParameterError
from orbitcsp.polyengine import (
    AND2,
    MAJ3,
    OR2,
    XOR3,
    BooleanClass,
    CYCLIC,
    IDEMPOTENT,
    IdentitySystem,
    MAJORITY,
    MINORITY,
    SEMILATTICE,
    SIGGERS,
    WNU,
    OpTable,
    boolean_classify,
    find_polymorphism,
    preserves_op,
    boolean_classify as classify,
    satisfies_identities,
    schaefer_solve,
)
from orbitcsp import polyengine
from orbitcsp.polyengine import _boolean_solver, _HornEngine, _narrow_solver
from orbitcsp.relstruct import FiniteStructure, make_instance, relation

from oracles import (
    HORN_FAULT,
    all_op_tables,
    exhaustive_hom,
    reference_affine_solve,
    reference_horn_solve,
    sweep_horn,
)

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

    def test_row_choice_cap_is_inclusive(self):
        # 512 rows read 2^18 = ROW_CHOICE_LIMIT pairs; 513 rows read more.
        for rows, refused in ((512, False), (513, True)):
            template = structure(R=relation(10, list(product((0, 1), repeat=10))[:rows]))
            if refused:
                with pytest.raises(BudgetExceeded, match="513 rows needs 263169 row choices"):
                    polyengine._check_row_choices(template, 2)
            else:
                polyengine._check_row_choices(template, 2)
        assert polyengine.ROW_CHOICE_LIMIT == 512 ** 2

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
        table = find_polymorphism(tpl, WNU, 3)
        assert table is not None
        assert satisfies_identities(table, WNU)
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
        table = find_polymorphism(tpl, CYCLIC, 2)
        if table is not None:
            assert satisfies_identities(table, CYCLIC)
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
        for arity in (0, -1):
            with pytest.raises(ParameterError):
                find_polymorphism(structure(X=XOR_REL), IDEMPOTENT, arity)
        for system in (CYCLIC, WNU):
            for arity in (1, 0):
                with pytest.raises(ParameterError,
                                   match=f"{system.kind} needs arity >= 2, got {arity}$"):
                    find_polymorphism(structure(X=XOR_REL), system, arity)

    def test_each_system_states_its_arity_once(self):
        assert [s.kind for s in polyengine.IDENTITIES] == [
            "idempotent", "majority", "minority", "semilattice", "siggers", "cyclic", "wnu"]
        assert [s.required_arity() for s in polyengine.IDENTITIES] == [
            None, 3, 3, 2, 6, None, None]
        assert IdentitySystem("cyclic") == CYCLIC

    @pytest.mark.parametrize("make,error", [
        (lambda: IdentitySystem("bogus"), ParameterError),
        (lambda: OpTable(2, 2, (0, 1)), ParameterError),
        (lambda: OpTable(1, 2, (0, 2)), DomainMismatch),
    ])
    def test_malformed_systems_and_tables_raise_package_errors(self, make, error):
        with pytest.raises(error):
            make()

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            find_polymorphism(FiniteStructure(3, {}), SIGGERS, 6)
        with pytest.raises(BudgetExceeded):
            find_polymorphism(FiniteStructure(2, {}), WNU, 5)

    @pytest.mark.parametrize("system", [IDEMPOTENT, CYCLIC, WNU])
    def test_search_budget_is_read_before_the_row_choices(self, system):
        # 2 ** 10**6 row choices would be a count of over 300 000 digits.
        with pytest.raises(BudgetExceeded,
                           match="^table search budget is domain <= 4, arity <= 4$"):
            find_polymorphism(structure(X=XOR_REL), system, 10 ** 6)

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
            (2, 2, [IDEMPOTENT, SEMILATTICE, CYCLIC, WNU]),
            (2, 3, [IDEMPOTENT, MAJORITY, MINORITY, CYCLIC, WNU]),
            # On binary tables WNU and CYCLIC are both commutativity.
            (3, 2, [IDEMPOTENT, SEMILATTICE, CYCLIC]),
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

    def test_class_mismatch_on_a_tractable_template(self):
        # Horn but not affine: the public entry checks the requested class,
        # not merely that the template has one.
        tpl = self.horn_template()
        inst = make_instance("ab", [("IMP", "ab")])
        with pytest.raises(ClassMismatch):
            schaefer_solve(inst, tpl, BooleanClass.MINORITY_AFFINE)

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
        rng = random.Random(cls.value)
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


# --- the watch-list Horn engine against the sweeping reference ---------------


@st.composite
def closed_relation(draw, op=None, arity=None):
    """A random row set closed under the fixed table op (not closed when op
    is None), of the given arity or of 1 to 3; may be empty."""
    if arity is None:
        arity = draw(st.integers(1, 3))
    rows = set(draw(st.sets(st.tuples(*[st.integers(0, 1)] * arity), max_size=5)))
    changed = op is not None
    while changed:
        changed = False
        for choice in list(product(rows, repeat=op.arity)):
            image = tuple(op(*column) for column in zip(*choice))
            if image not in rows:
                rows.add(image)
                changed = True
    return relation(arity, rows)


@st.composite
def horn_cases(draw):
    """A meet-closed (bottom-up) or join-closed (top-down) template, an
    instance whose scopes may repeat variables, and a few pin sets."""
    top_down = draw(st.booleans())
    rels = {f"R{i}": draw(closed_relation(OR2 if top_down else AND2))
            for i in range(draw(st.integers(1, 3)))}
    n = draw(st.integers(1, 6))
    names = [f"x{i}" for i in range(n)]
    constraints = draw(st.lists(
        st.sampled_from(sorted(rels)).flatmap(lambda name: st.tuples(
            st.just(name),
            st.lists(st.sampled_from(names), min_size=rels[name].arity,
                     max_size=rels[name].arity).map(tuple))),
        max_size=8))
    pin_sets = draw(st.lists(
        st.dictionaries(st.sampled_from(names), st.integers(0, 1)),
        min_size=1, max_size=4))
    return top_down, FiniteStructure(2, rels), make_instance(names, constraints), pin_sets


def engine_answer(engine, instance, pins):
    index = {v: i for i, v in enumerate(instance.variables)}
    ones = engine.solve({index[v]: value for v, value in pins.items()})
    return None if ones is None else {v: int(i in ones) for v, i in index.items()}


def ones_of(values):
    """A solution vector as a solver answers it: the variables set to 1."""
    return None if values is None else {v for v, value in enumerate(values) if value}


def reference_answer(instance, template, pins, top_down):
    """The reference on the instance with each pin as a unary Z or P
    constraint, as the quotient solver once posed it."""
    rels = dict(template.relations, Z=relation(1, [(1,)]), P=relation(1, [(0,)]))
    pinned = [("Z" if pins[v] else "P", (v,)) for v in instance.variables if v in pins]
    return reference_horn_solve(make_instance(instance.variables,
                                              list(instance.constraints) + pinned),
                                FiniteStructure(2, rels), top_down)


def horn_class(top_down):
    return BooleanClass.DUAL_HORN_OR if top_down else BooleanClass.HORN_AND


class TestHornEngine:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(case=horn_cases())
    def test_matches_the_sweeping_reference(self, case):
        top_down, template, instance, pin_sets = case
        index = {v: i for i, v in enumerate(instance.variables)}
        engine = _HornEngine(len(index), [
            (template.relations[name].tuples, tuple(index[v] for v in scope))
            for name, scope in instance.constraints], top_down)
        assert schaefer_solve(instance, template, horn_class(top_down)) == \
            reference_horn_solve(instance, template, top_down)
        # One engine answers every pin set from its one pin-free fixpoint.
        for pins in pin_sets + [{}]:
            assert engine_answer(engine, instance, pins) == \
                reference_answer(instance, template, pins, top_down), pins

    def test_unsatisfiable_without_pins(self):
        tpl = structure(IMP=IMPLIES, U0=U0, U1=U1)
        inst = make_instance("abc", [("U1", "a"), ("IMP", "ab"), ("IMP", "bc"),
                                     ("U0", "c")])
        for top_down in (False, True):
            assert reference_horn_solve(inst, tpl, top_down) is None
            assert schaefer_solve(inst, tpl, horn_class(top_down)) is None
            engine = _HornEngine(3, [(tpl.relations[name].tuples,
                                      tuple("abc".index(v) for v in scope))
                                     for name, scope in inst.constraints], top_down)
            assert engine.solve({}) is None
            assert engine.solve({0: 1}) is None

    def test_pins_start_from_the_pin_free_fixpoint(self):
        # IMP(a,b), IMP(b,c) bottom-up: the pin-free least solution is all
        # 0; pinning a to 1 moves b and c, and the engine keeps its base.
        tpl = structure(IMP=IMPLIES)
        engine = _HornEngine(3, [(IMPLIES.tuples, (0, 1)), (IMPLIES.tuples, (1, 2))],
                             top_down=False)
        assert engine.solve({}) == set()
        assert engine.solve({0: 1}) == {0, 1, 2}
        assert engine.solve({0: 1, 2: 0}) is None
        assert engine.solve({1: 1}) == {1, 2}
        assert engine.solve({}) == set()
        inst = make_instance("abc", [("IMP", "ab"), ("IMP", "bc")])
        assert reference_answer(inst, tpl, {"a": 1, "c": 0}, False) is None

    @pytest.mark.parametrize("cls", [BooleanClass.HORN_AND, BooleanClass.DUAL_HORN_OR])
    def test_row_masks_are_memoised_for_the_process(self, cls):
        # A second solver on the same constraints reads every row set's
        # masks from the memo the first one filled.
        constraints = [(IMPLIES.tuples, (0, 1)), (IMPLIES.tuples, (1, 2))]
        _boolean_solver(3, constraints, {cls})
        before = polyengine._row_masks.cache_info()
        _boolean_solver(3, constraints, {cls})
        after = polyengine._row_masks.cache_info()
        assert (after.hits - before.hits, after.misses - before.misses) == (2, 0)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(case=horn_cases(), data=st.data())
    def test_narrowing_matches_a_fresh_engine(self, case, data):
        # Each constraint is kept, dropped, or replaced by closed rows on
        # some of its variables; the narrowed engine must answer as one
        # built on what is left.
        top_down, template, instance, pin_sets = case
        index = {v: i for i, v in enumerate(instance.variables)}
        constraints = [(template.relations[name].tuples, tuple(index[v] for v in scope))
                       for name, scope in instance.constraints]
        solve = _boolean_solver(len(index), constraints, {horn_class(top_down)})
        changes = {}
        for c, (rows, scope) in enumerate(constraints):
            choice = data.draw(st.sampled_from(("keep", "drop", "replace")))
            if choice == "drop":
                changes[c] = None
            elif choice == "replace":
                keep = data.draw(st.lists(st.sampled_from(range(len(scope))),
                                          min_size=1, unique=True))
                narrowed = data.draw(closed_relation(OR2 if top_down else AND2, len(keep)))
                changes[c] = (narrowed.tuples, tuple(scope[i] for i in keep))
        assert _narrow_solver(solve, {horn_class(top_down)}, changes)
        left = [changes.get(c, constraint) for c, constraint in enumerate(constraints)]
        fresh = _HornEngine(len(index), [c for c in left if c is not None], top_down)
        for pins in pin_sets + [{}]:
            pins = {index[v]: value for v, value in pins.items()}
            assert solve(pins) == fresh.solve(pins), pins

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(case=horn_cases(), data=st.data())
    def test_narrowing_to_any_rows_matches_the_sweep(self, case, data):
        # As above, but the replacement rows need not be closed, and a
        # second narrowing follows the first.  The sweep gives each
        # outcome: a fixpoint outside some constraint's rows is a fault,
        # raised by every solve once the pin-free fixpoint has had one.
        top_down, template, instance, pin_sets = case
        index = {v: i for i, v in enumerate(instance.variables)}
        n = len(index)
        left = [(template.relations[name].tuples, tuple(index[v] for v in scope))
                for name, scope in instance.constraints]
        solve = _boolean_solver(n, left, {horn_class(top_down)})
        faulty = False
        for _ in range(2):
            changes = {}
            for c, constraint in enumerate(left):
                choice = data.draw(st.sampled_from(("keep", "drop", "replace")))
                if constraint is None or choice == "keep":
                    continue
                if choice == "drop":
                    changes[c] = None
                else:
                    scope = constraint[1]
                    keep = data.draw(st.lists(st.sampled_from(range(len(scope))),
                                              min_size=1, unique=True))
                    rows = data.draw(closed_relation(None, len(keep)))
                    changes[c] = (rows.tuples, tuple(scope[i] for i in keep))
            assert _narrow_solver(solve, {horn_class(top_down)}, changes)
            left = [changes.get(c, constraint) for c, constraint in enumerate(left)]
            live = [c for c in left if c is not None]
            faulty = faulty or sweep_horn(n, live, top_down) == HORN_FAULT
            for pins in pin_sets + [{}]:
                pins = {index[v]: value for v, value in pins.items()}
                want = HORN_FAULT if faulty else sweep_horn(n, live, top_down, pins)
                if want == HORN_FAULT:
                    with pytest.raises(AssertionError, match="horn solution violated"):
                        solve(pins)
                else:
                    assert solve(pins) == want, pins

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(case=horn_cases(), data=st.data())
    def test_trail_answers_match_a_fresh_engine_through_narrowings(self, case, data):
        # A solve moves variables on the engine's own pin-free fixpoint and
        # undoes them, and a narrowing keeps that fixpoint while no
        # constraint lacks the start row.  Through a sequence of
        # narrowings, some of which give a constraint closed rows without
        # the start row (those that fix its first position off the start
        # value), so that the fixpoint moves, every answer must equal that
        # of a fresh engine built on what is left, and no solve may leave
        # the fixpoint changed.
        top_down, template, instance, pin_sets = case
        index = {v: i for i, v in enumerate(instance.variables)}
        n = len(index)
        start = 1 if top_down else 0
        left = [(template.relations[name].tuples, tuple(index[v] for v in scope))
                for name, scope in instance.constraints]
        engine = _HornEngine(n, left, top_down)
        for _ in range(data.draw(st.integers(1, 4))):
            changes = {}
            for c, constraint in enumerate(left):
                choice = data.draw(st.sampled_from(("keep", "drop", "replace", "lacking")))
                if constraint is None or choice == "keep":
                    continue
                if choice == "drop":
                    changes[c] = None
                    continue
                scope = constraint[1]
                keep = data.draw(st.lists(st.sampled_from(range(len(scope))),
                                          min_size=1, unique=True))
                rows = data.draw(closed_relation(OR2 if top_down else AND2, len(keep))).tuples
                if choice == "lacking":
                    rows = frozenset(row for row in rows if row[0] != start)
                changes[c] = (rows, tuple(scope[i] for i in keep))
            engine.narrow(changes)
            left = [changes.get(c, constraint) for c, constraint in enumerate(left)]
            fresh = _HornEngine(n, [c for c in left if c is not None], top_down)
            base = None if engine.base is None else bytes(engine.base)
            for pins in pin_sets + [{}]:
                pins = {index[v]: value for v, value in pins.items()}
                assert engine.solve(pins) == fresh.solve(pins), pins
                assert (None if engine.base is None else bytes(engine.base)) == base

    def test_narrowing_away_the_start_row_moves_the_fixpoint(self):
        # IMP(a, b) holds the all-0 row; narrowed to U1 on a, it forces a
        # from the start at the pin-free fixpoint, top-down U0 likewise.
        for top_down, rows, moved in ((False, U1.tuples, {0}), (True, U0.tuples, {1})):
            cls = horn_class(top_down)
            solve = _boolean_solver(2, [(IMPLIES.tuples, (0, 1))], {cls})
            assert _narrow_solver(solve, {cls}, {0: (rows, (0,))})
            assert solve({}) == moved

    def test_only_the_same_horn_algorithm_narrows(self):
        constraints = [(IMPLIES.tuples, (0, 1))]
        for built, asked, narrows in (
                (BooleanClass.HORN_AND, BooleanClass.HORN_AND, True),
                (BooleanClass.HORN_AND, BooleanClass.DUAL_HORN_OR, False),
                (BooleanClass.DUAL_HORN_OR, BooleanClass.HORN_AND, False),
                (BooleanClass.MAJORITY_2SAT, BooleanClass.MAJORITY_2SAT, False),
                (BooleanClass.HORN_AND, BooleanClass.MAJORITY_2SAT, False)):
            solve = _boolean_solver(2, constraints, {built})
            assert _narrow_solver(solve, {asked}, {0: None}) is narrows
            # A refused narrowing leaves the solver as it was.
            assert solve({0: 1}) == ({0, 1} if not narrows else {0})


# --- the one boolean solver entry point under pins ----------------------------

CLOSURES = {
    BooleanClass.HORN_AND: AND2,
    BooleanClass.DUAL_HORN_OR: OR2,
    BooleanClass.MAJORITY_2SAT: MAJ3,
    BooleanClass.MINORITY_AFFINE: XOR3,
    BooleanClass.TRIVIAL: None,
}


@st.composite
def pinned_cases(draw):
    """A class, a template closed under its fixed table (TRIVIAL: not
    closed), an instance whose scopes may repeat variables, and pin sets."""
    cls = draw(st.sampled_from(sorted(CLOSURES, key=lambda c: c.value)))
    rels = {f"R{i}": draw(closed_relation(CLOSURES[cls]))
            for i in range(draw(st.integers(1, 3)))}
    n = draw(st.integers(1, 6))
    constraints = draw(st.lists(
        st.sampled_from(sorted(rels)).flatmap(lambda name: st.tuples(
            st.just(name),
            st.lists(st.integers(0, n - 1), min_size=rels[name].arity,
                     max_size=rels[name].arity).map(tuple))),
        max_size=8))
    pin_sets = draw(st.lists(
        st.dictionaries(st.integers(0, n - 1), st.integers(0, 1)),
        min_size=1, max_size=4))
    return cls, rels, n, constraints, pin_sets


@st.composite
def xor_closed_rows(draw):
    """An arity of 0-4 and a row set of that arity: a random point plus
    the span of random differences, which is closed under xor of three
    rows, or now and then the empty set."""
    k = draw(st.integers(0, 4))
    if draw(st.integers(0, 5)) == 0:
        return k, frozenset()
    vector = st.tuples(*[st.integers(0, 1)] * k)
    rows = {draw(vector)}
    for step in draw(st.lists(vector, max_size=3)):
        rows |= {tuple(a ^ b for a, b in zip(row, step)) for row in rows}
    return k, frozenset(rows)


class TestBooleanSolver:
    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(data=st.data())
    def test_affine_matches_dense_elimination(self, data):
        # Scopes may repeat variables, and with no variables only arity-0
        # row sets can be used.
        n = data.draw(st.integers(0, 7))
        row_sets = [r for r in data.draw(st.lists(xor_closed_rows(), min_size=1, max_size=3))
                    if n or r[0] == 0]
        constraints = []
        for _ in range(data.draw(st.integers(0, 8)) if row_sets else 0):
            k, rows = data.draw(st.sampled_from(row_sets))
            scope = data.draw(st.lists(st.integers(0, max(n - 1, 0)), min_size=k, max_size=k))
            constraints.append((rows, tuple(scope)))
        solve = _boolean_solver(n, constraints, {BooleanClass.MINORITY_AFFINE})
        pin_sets = data.draw(st.lists(
            st.dictionaries(st.integers(0, n - 1), st.integers(0, 1)) if n else st.just({}),
            min_size=1, max_size=4))
        for pins in pin_sets + [{}]:
            assert solve(pins) == ones_of(reference_affine_solve(n, constraints, pins)), pins

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(case=pinned_cases())
    def test_pinned_solves_match_exhaustive_search(self, case):
        cls, rels, n, constraints, pin_sets = case
        solve = _boolean_solver(n, [(rels[name].tuples, scope) for name, scope in constraints],
                                {cls})
        names = [f"x{i}" for i in range(n)]
        template = FiniteStructure(2, dict(rels, P=U0, Z=U1))
        for pins in pin_sets + [{}]:
            pinned = list(constraints) + [("Z" if value else "P", (v,))
                                          for v, value in pins.items()]
            want = exhaustive_hom(make_instance(
                names, [(name, [names[v] for v in scope]) for name, scope in pinned]),
                template)
            got = solve(pins)
            assert (got is None) == (want is None), pins
            if got is None:
                continue
            for name, scope in pinned:
                assert tuple(int(v in got) for v in scope) in template.relations[name].tuples
            if cls in (BooleanClass.MAJORITY_2SAT, BooleanClass.TRIVIAL):
                # The greedy extension and the search both assign variables in
                # index order and try 0 first: the first solution in order.
                assert got == ones_of(want[v] for v in names), pins

    def test_first_class_in_table_order_wins(self):
        # IMP is closed under all four fixed tables: the Horn engine answers
        # with the least solution, not a constant or search.
        solve = _boolean_solver(2, [(IMPLIES.tuples, (0, 1))], {
            BooleanClass.CONSTANT1, BooleanClass.MAJORITY_2SAT, BooleanClass.HORN_AND})
        assert solve({}) == set()
        assert solve({0: 1}) == {0, 1}

    def test_a_failed_constant_is_no_solution(self):
        solve = _boolean_solver(2, [(IMPLIES.tuples, (0, 1))], {BooleanClass.CONSTANT1})
        assert solve({}) == {0, 1}
        assert solve({0: 0}) is None

    def test_a_wrong_affine_answer_is_caught(self, monkeypatch):
        # The check is an explicit raise, so it also runs under python -O.
        monkeypatch.setattr(polyengine, "_affine_pinned", lambda n, system, pins: [1] * n)
        solve = _boolean_solver(2, [(XOR_REL.tuples, (0, 1))], {BooleanClass.MINORITY_AFFINE})
        with pytest.raises(AssertionError):
            solve({})

    def test_a_failed_horn_check_is_a_solver_fault(self):
        # XOR rows are not meet-closed, so the least fixpoint (0, 0) falls
        # outside them: a fault to raise, not an UNSAT answer.
        engine = _HornEngine(2, [(frozenset({(0, 1), (1, 0)}), (0, 1))], top_down=False)
        with pytest.raises(AssertionError, match="horn solution violated a constraint"):
            engine.solve({})

    def test_a_narrowing_to_rows_its_base_fails_is_a_solver_fault(self):
        # Narrowed to XOR rows, IMP(a, b) leaves the base (0, 0) in place,
        # outside the new rows.  Every later solve raises, also once the
        # constraint is dropped again.
        solve = _boolean_solver(2, [(IMPLIES.tuples, (0, 1))], {BooleanClass.HORN_AND})
        assert solve({}) == set()
        assert _narrow_solver(solve, {BooleanClass.HORN_AND},
                              {0: (frozenset({(0, 1), (1, 0)}), (0, 1))})
        for pins, changes in (({}, None), ({0: 1}, None), ({}, {0: None})):
            if changes is not None:
                assert _narrow_solver(solve, {BooleanClass.HORN_AND}, changes)
            with pytest.raises(AssertionError, match="horn solution violated a constraint"):
                solve(pins)

    def test_a_pinned_solve_outside_unclosed_rows_is_a_solver_fault(self):
        # 000, 110 and 101 are not meet-closed.  The base 000 lies in them,
        # but with a pinned to 1 neither b nor c is forced, and the
        # fixpoint 100 falls outside: the check of the constraints watching
        # a must raise.
        rows = frozenset({(0, 0, 0), (1, 1, 0), (1, 0, 1)})
        engine = _HornEngine(3, [(rows, (0, 1, 2))], top_down=False)
        assert engine.solve({}) == set()
        with pytest.raises(AssertionError, match="horn solution violated a constraint"):
            engine.solve({0: 1})

    def test_a_narrowing_that_moves_the_base_out_of_unclosed_rows_is_a_solver_fault(self):
        # The unclosed rows of the test above hold at the base 000 until a
        # narrowing of another constraint moves a to 1.
        rows = frozenset({(0, 0, 0), (1, 1, 0), (1, 0, 1)})
        engine = _HornEngine(3, [(rows, (0, 1, 2)), (IMPLIES.tuples, (1, 0))], top_down=False)
        assert engine.solve({}) == set()
        engine.narrow({1: (U1.tuples, (0,))})
        with pytest.raises(AssertionError, match="horn solution violated a constraint"):
            engine.solve({})

    def test_no_variables(self):
        for cls in CLOSURES:
            assert _boolean_solver(0, [], {cls})({}) == set()
