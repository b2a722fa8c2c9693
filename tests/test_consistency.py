"""Tests for the (k,l)-consistency fixpoint over every pattern space."""

import hashlib
import random
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from orbitcsp import consistency
from orbitcsp.consistency import (
    _MEMO,
    EMPTY_DERIVED,
    ConsistencyState,
    FinitePatterns,
    _KLState,
    establish_kl,
)
from orbitcsp.errors import BudgetExceeded, ParameterError, SignatureMismatch
from orbitcsp.homog import (
    GRAPH,
    TOURNAMENT,
    HomogPatterns,
    HomogTemplate,
    Label,
    enumerate_types,
    kfree,
    type_set_relation,
)
from orbitcsp.relstruct import FiniteStructure, make_instance, relation
from orbitcsp.temporal import (
    LT,
    TemporalPatterns,
    TemporalTemplate,
    enumerate_weak_orders,
    temporal_relation,
)

from oracles import (
    exhaustive_hom,
    pair_label,
    reference_establish_kl,
    reference_initial_masks,
    reference_translated,
)

TWO_COLORING = FiniteStructure(2, {"E": relation(2, [(0, 1), (1, 0)])})
ONE_IN_THREE = FiniteStructure(2, {"R": relation(3, [(0, 0, 1), (0, 1, 0), (1, 0, 0)])})


def cycle_instance(n):
    names = [f"v{i}" for i in range(n)]
    return make_instance(names, [("E", (names[i], names[(i + 1) % n])) for i in range(n)])


def random_instance(rng, template, max_vars=6, max_cons=6):
    n = rng.randint(1, max_vars)
    names = [f"x{i}" for i in range(n)]
    cons = []
    for _ in range(rng.randint(0, max_cons)):
        name = rng.choice(sorted(template.relations))
        arity = template.relations[name].arity
        cons.append((name, tuple(rng.choice(names) for _ in range(arity))))
    return make_instance(names, cons)


def random_template(rng):
    dom = rng.randint(2, 3)
    rels = {}
    for r in range(rng.randint(1, 3)):
        arity = rng.randint(1, 3)
        pool = list(product(range(dom), repeat=arity))
        rels[f"R{r}"] = relation(arity, rng.sample(pool, rng.randint(0, len(pool))))
    return FiniteStructure(dom, rels)


def test_parameter_validation():
    inst = make_instance("xy", [])
    with pytest.raises(ParameterError):
        establish_kl(inst, TWO_COLORING, 3, 2)
    with pytest.raises(ParameterError):
        establish_kl(inst, TWO_COLORING, 0, 2)


def test_unconstrained_instance_keeps_everything():
    inst = make_instance("ab", [])
    state = establish_kl(inst, TWO_COLORING, 2, 3)
    assert isinstance(state, ConsistencyState)
    assert len(state.allowed[("a",)]) == 2
    assert len(state.allowed[("a", "b")]) == 4


def test_odd_cycle_two_coloring_rejected_at_2_3():
    # Hand-derived: distance-2 pairs collapse to equality and then any
    # independent triple of cycle vertices is contradictory.
    assert establish_kl(cycle_instance(5), TWO_COLORING, 2, 3) is EMPTY_DERIVED


def test_even_cycle_survives():
    state = establish_kl(cycle_instance(6), TWO_COLORING, 2, 3)
    assert state is not EMPTY_DERIVED


def test_loop_edge_rejected():
    inst = make_instance("x", [("E", "xx")])
    assert establish_kl(inst, TWO_COLORING, 2, 3) is EMPTY_DERIVED


def find_consistent_but_unsat_one_in_three():
    """Deterministic search for a small 1-in-3 instance that is (2,3)-
    consistent yet unsatisfiable (an unsatisfiable parity-style system)."""
    rng = random.Random(11)
    for _ in range(4000):
        inst = random_instance(rng, ONE_IN_THREE, max_vars=6, max_cons=4)
        if len(inst.constraints) != 4:
            continue
        if exhaustive_hom(inst, ONE_IN_THREE) is not None:
            continue
        if establish_kl(inst, ONE_IN_THREE, 2, 3) is not EMPTY_DERIVED:
            return inst
    return None


def test_one_in_three_width_gap():
    inst = find_consistent_but_unsat_one_in_three()
    assert inst is not None, "expected a (2,3)-consistent unsatisfiable instance"
    # ... and the stronger probe also documents where the gap closes (if at
    # all): soundness is what matters here.
    assert exhaustive_hom(inst, ONE_IN_THREE) is None
    assert establish_kl(inst, ONE_IN_THREE, 2, 3) is not EMPTY_DERIVED


def test_soundness_on_random_instances():
    rng = random.Random(515)
    rejected = satisfied = 0
    for _ in range(250):
        tpl = random_template(rng)
        inst = random_instance(rng, tpl)
        result = establish_kl(inst, tpl, 2, 3)
        solution = exhaustive_hom(inst, tpl)
        if result is EMPTY_DERIVED:
            rejected += 1
            assert solution is None, "rejected a satisfiable instance"
        elif solution is not None:
            satisfied += 1
    assert rejected > 10 and satisfied > 10  # both branches exercised


def test_monotonicity_in_k_l():
    rng = random.Random(99)
    checked = 0
    for _ in range(150):
        tpl = random_template(rng)
        inst = random_instance(rng, tpl, max_vars=5, max_cons=5)
        if establish_kl(inst, tpl, 2, 3) is EMPTY_DERIVED:
            checked += 1
            assert establish_kl(inst, tpl, 2, 4) is EMPTY_DERIVED
            assert establish_kl(inst, tpl, 3, 4) is EMPTY_DERIVED
    assert checked > 5


# --- every pattern space ----------------------------------------------------

FWD, E, N, EQ = Label.FWD, Label.E, Label.N, Label.EQ


def homog_relation(base, arity, fingerprints):
    return type_set_relation(arity, base, [
        t for t in enumerate_types(arity, base) if t.fingerprint in fingerprints
    ])


FINITE = FiniteStructure(2, {**TWO_COLORING.relations, **ONE_IN_THREE.relations})
TEMPORAL = TemporalTemplate({
    "LT": LT,
    "RMIN": temporal_relation(3, [t for t in enumerate_weak_orders(3)
                                  if t.ranks[0] > min(t.ranks[1:])]),
})
TOURNAMENT_TEMPLATE = HomogTemplate(TOURNAMENT, {
    "ARC": homog_relation(TOURNAMENT, 2, {(FWD,)}),
    "AEQ": homog_relation(TOURNAMENT, 2, {(FWD,), (EQ,)}),
    "TR": homog_relation(TOURNAMENT, 3, {(FWD, FWD, FWD)}),
})
GRAPH_TEMPLATE = HomogTemplate(GRAPH, {
    "E": homog_relation(GRAPH, 2, {(E,)}),
    "N": homog_relation(GRAPH, 2, {(N,)}),
    "SAME": homog_relation(GRAPH, 2, {(EQ,)}),
    "ONE": homog_relation(GRAPH, 3, {(E, N, N), (N, E, N), (N, N, E)}),
})

# name -> (pattern space, every pattern on n positions, projection)
SPACES = {
    "finite": (FinitePatterns(FINITE),
               lambda n: product(range(2), repeat=n),
               lambda p, pos: tuple(p[i] for i in pos)),
    "temporal": (TemporalPatterns(TEMPORAL), enumerate_weak_orders,
                 lambda p, pos: p.restrict(pos)),
    "tournament": (HomogPatterns(TOURNAMENT_TEMPLATE),
                   lambda n: enumerate_types(n, TOURNAMENT),
                   lambda p, pos: p.project(pos)),
    "graph": (HomogPatterns(GRAPH_TEMPLATE),
              lambda n: enumerate_types(n, GRAPH),
              lambda p, pos: p.project(pos)),
}


def members(template, name):
    rel = template.relations[name]
    return rel.tuples if isinstance(template, FiniteStructure) else rel.types


@st.composite
def instances(draw, relations, max_vars=5):
    """Up to six constraints on at most ``max_vars`` variables; scopes may
    repeat variables."""
    n = draw(st.integers(1, max_vars))
    names = [f"x{i}" for i in range(n)]
    constraints = draw(st.lists(
        st.sampled_from(sorted(relations)).flatmap(lambda name: st.tuples(
            st.just(name),
            st.lists(st.sampled_from(names), min_size=relations[name].arity,
                     max_size=relations[name].arity).map(tuple))),
        max_size=6))
    return make_instance(names, constraints)


@st.composite
def kl_cases(draw, kind):
    instance = draw(instances(SPACES[kind][0].template.relations))
    kl = draw(st.sampled_from([(2, 3), (2, 4)]))
    return instance, kl


@pytest.mark.parametrize("kind", sorted(SPACES))
@settings(derandomize=True, max_examples=40, deadline=None)
@given(data=st.data())
def test_allowed_holds_every_solution(kind, data):
    instance, (k, l) = data.draw(kl_cases(kind))
    space, every, project = SPACES[kind]
    at = {v: i for i, v in enumerate(instance.variables)}
    solutions = [
        p for p in every(len(instance.variables))
        if all(project(p, tuple(at[v] for v in scope)) in members(space.template, name)
               for name, scope in instance.constraints)
    ]
    state = establish_kl(instance, space, k, l)
    if state is EMPTY_DERIVED:
        assert not solutions
        return
    for size in range(1, min(k, len(at)) + 1):
        for subset in combinations(instance.variables, size):
            positions = tuple(at[v] for v in subset)
            for p in solutions:
                assert project(p, positions) in state.allowed[subset]


@pytest.mark.parametrize("kind", sorted(SPACES))
def test_signature_is_checked_for_every_space(kind):
    space = SPACES[kind][0]
    binary = min(name for name, rel in space.template.relations.items() if rel.arity == 2)
    for constraint in [("MISSING", ("x", "y")), (binary, ("x", "y", "z"))]:
        with pytest.raises(SignatureMismatch):
            establish_kl(make_instance("xyz", [constraint]), space, 2, 3)


def chain(relation_name, n):
    names = [f"v{i}" for i in range(n)]
    return make_instance(names, [(relation_name, (a, b)) for a, b in zip(names, names[1:])])


@pytest.mark.parametrize("kind,instance,k,l,arity", [
    ("tournament", chain("ARC", 7), 2, 7, 7),
    ("temporal", chain("LT", 9), 2, 9, 9),
    ("temporal", chain("LT", 9), 3, 12, 9),
])
def test_over_budget_kl_fails_before_any_work(kind, instance, k, l, arity):
    with pytest.raises(BudgetExceeded, match=rf"\({k},{l}\) needs patterns of arity {arity}:"):
        establish_kl(instance, SPACES[kind][0], k, l)


# --- the numbered engine against the object-based reference -----------------

KFREE3_TEMPLATE = HomogTemplate(kfree(3), {
    "E": homog_relation(kfree(3), 2, {(E,)}),
    "N": homog_relation(kfree(3), 2, {(N,)}),
    "PATH": homog_relation(kfree(3), 3, {(E, N, E), (E, E, N), (N, E, E)}),
})
# Each space has a relation of arity 4, above l = 3.
REFERENCE_SPACES = {
    "finite": FinitePatterns(FiniteStructure(2, {
        **FINITE.relations,
        "EVEN4": relation(4, [t for t in product(range(2), repeat=4) if sum(t) % 2 == 0]),
    })),
    "temporal": TemporalPatterns(TemporalTemplate({
        **TEMPORAL.relations,
        "R4": temporal_relation(4, [t for t in enumerate_weak_orders(4)
                                    if t.ranks[0] < t.ranks[3] or t.ranks[1] == t.ranks[2]]),
    })),
    "tournament": HomogPatterns(HomogTemplate(TOURNAMENT, {
        **TOURNAMENT_TEMPLATE.relations,
        "CHAIN4": homog_relation(TOURNAMENT, 4, {
            t.fingerprint for t in enumerate_types(4, TOURNAMENT)
            if pair_label(t, 0, 1) is pair_label(t, 2, 3)}),
    })),
    "graph": HomogPatterns(HomogTemplate(GRAPH, {
        **GRAPH_TEMPLATE.relations,
        "MATCH4": homog_relation(GRAPH, 4, {
            t.fingerprint for t in enumerate_types(4, GRAPH)
            if pair_label(t, 0, 1) is not N and pair_label(t, 2, 3) is not E}),
    })),
    "kfree3": HomogPatterns(KFREE3_TEMPLATE),
}
REFERENCE_KL = [(1, 2), (2, 3), (2, 4), (3, 4)]

COMPOSITION_SPACES = {
    "finite2": FinitePatterns(FINITE),
    "finite3": FinitePatterns(FiniteStructure(3, {})),
    "temporal": SPACES["temporal"][0],
    "tournament": SPACES["tournament"][0],
    "graph": SPACES["graph"][0],
    "kfree3": REFERENCE_SPACES["kfree3"],
}


@pytest.mark.parametrize("kind", sorted(COMPOSITION_SPACES))
@settings(derandomize=True, max_examples=100, deadline=None)
@given(data=st.data())
def test_projections_compose(kind, data):
    # The engine reads narrow subsets through k-subsets, and permuted or
    # repeated scopes through their distinct positions, by the composition
    # law; it translates relations to scopes by reading members back, which
    # also needs the identity law.
    space = COMPOSITION_SPACES[kind]
    arity = data.draw(st.integers(1, 4))
    p = data.draw(st.sampled_from(space.patterns(arity)))
    P = tuple(data.draw(st.lists(st.integers(0, arity - 1), min_size=1, max_size=5)))
    Q = tuple(data.draw(st.lists(st.integers(0, len(P) - 1), min_size=1, max_size=5)))
    assert space.project(space.project(p, P), Q) == space.project(p, tuple(P[q] for q in Q))
    assert space.project(p, tuple(range(arity))) == p


def translations(space, name, scope):
    """The kernel's and the whole-arity reference's translation of relation
    ``name`` to ``scope``, a tuple of variable numbers below 4 (repeats
    allowed), read at its ascending distinct variables."""
    distinct = sorted(set(scope))
    positions = tuple(map(distinct.index, scope))
    state = _KLState(make_instance("abcd", []), space, 1, 4)
    return state._translated(name, positions), reference_translated(space, name, positions)


@pytest.mark.parametrize("kind", sorted(REFERENCE_SPACES))
@settings(derandomize=True, max_examples=60, deadline=None)
@given(data=st.data())
def test_translation_matches_the_whole_arity_reference(kind, data):
    space = REFERENCE_SPACES[kind]
    relations = space.template.relations
    name = data.draw(st.sampled_from(sorted(relations)))
    arity = relations[name].arity
    scope = tuple(data.draw(st.lists(st.integers(0, 3), min_size=arity, max_size=arity)))
    kernel, reference = translations(space, name, scope)
    assert kernel == reference


@pytest.mark.parametrize("kind,name,scope,empty", [
    ("temporal", "LT", (0, 1), False),  # in order
    ("temporal", "LT", (1, 0), False),  # permuted
    ("temporal", "LT", (0, 0), True),  # x < x: no member reads back
    ("temporal", "RMIN", (2, 0, 2), False),  # repeated and permuted
    ("temporal", "R4", (1, 1, 0, 1), False),
    ("finite", "EVEN4", (3, 0, 3, 1), False),
    ("tournament", "CHAIN4", (2, 3, 1, 0), False),
    ("tournament", "ARC", (2, 2), True),
    ("graph", "MATCH4", (0, 2, 2, 0), False),
    ("kfree3", "PATH", (1, 2, 0), False),
])
def test_translation_of_chosen_scopes(kind, name, scope, empty):
    kernel, reference = translations(REFERENCE_SPACES[kind], name, scope)
    assert kernel == reference
    assert (kernel == 0) == empty


@pytest.mark.parametrize("kind", sorted(REFERENCE_SPACES))
@settings(derandomize=True, max_examples=40, deadline=None)
@given(data=st.data())
def test_matches_the_object_based_reference(kind, data):
    space = REFERENCE_SPACES[kind]
    instance = data.draw(instances(space.template.relations))
    k, l = data.draw(st.sampled_from(REFERENCE_KL))
    # Equal allowed dicts, or EMPTY_DERIVED from both.
    assert establish_kl(instance, space, k, l) == reference_establish_kl(instance, space, k, l)


@pytest.mark.parametrize("scope,expect_empty", [
    (("x", "x", "y", "z"), False),
    (("x", "y", "z", "x"), True),  # x < x fails, and y = z is ruled out
])
def test_wide_relation_on_repeated_variables(scope, expect_empty):
    space = REFERENCE_SPACES["temporal"]
    instance = make_instance("xyz", [("R4", scope), ("LT", ("y", "z"))])
    result = establish_kl(instance, space, 2, 3)
    assert (result is EMPTY_DERIVED) == expect_empty
    assert result == reference_establish_kl(instance, space, 2, 3)


# --- the bitset kernel and its state -------------------------------------------

def seeded_instance(rng, relations, n, m):
    """``m`` random constraints on ``n`` variables; scopes may repeat variables."""
    names = [f"x{i}" for i in range(n)]
    return make_instance(names, [
        (name, tuple(rng.choice(names) for _ in range(relations[name].arity)))
        for name in rng.choices(sorted(relations), k=m)])


@pytest.mark.parametrize("kind", sorted(REFERENCE_SPACES))
def test_kernel_matches_the_reference_on_six_and_seven_variables(kind):
    space = REFERENCE_SPACES[kind]
    rng = random.Random(f"kernel-{kind}")
    consistent = 0
    for n, (k, l) in [(6, (2, 3)), (6, (3, 4)), (7, (2, 4)), (7, (2, 5)), (6, (3, 5))]:
        instance = seeded_instance(rng, space.template.relations, n, n // 2)
        result = establish_kl(instance, space, k, l)
        assert result == reference_establish_kl(instance, space, k, l)
        consistent += result is not EMPTY_DERIVED
    assert consistent


# (variables, k, l), interleaved so that a later call meets a shape seen
# before, right after one it has not seen.
DIGEST_CASES = [(6, 2, 3), (10, 2, 3), (8, 2, 4), (14, 2, 3), (6, 3, 5), (8, 2, 3),
                (12, 2, 3), (6, 2, 4), (8, 3, 5), (6, 2, 3), (10, 2, 3), (14, 2, 3),
                (8, 2, 4), (12, 2, 3), (6, 3, 5), (8, 2, 3)]
DIGEST_SPACES = {"temporal": SPACES["temporal"][0], "tournament": SPACES["tournament"][0],
                 "graph": SPACES["graph"][0], "kfree3": REFERENCE_SPACES["kfree3"]}


def test_full_states_match_a_pinned_digest():
    # The kl-consistency reports show only the subset count, so a wrong
    # fixpoint that keeps the verdict shows here: one SHA-256 over every
    # subset's allowed pattern numbers, pinned when the kernel rebuilt its
    # superset index and translated relations on every call.
    rng = random.Random("digest")
    digest, consistent = hashlib.sha256(), 0
    for n, k, l in DIGEST_CASES:
        for kind, space in DIGEST_SPACES.items():
            relations = space.template.relations
            for m in (n // 2, n):
                instance = seeded_instance(rng, relations, n, m)
                result = establish_kl(instance, space, k, l)
                digest.update(f"{kind} {n} {k},{l} {m}\n".encode())
                if result is EMPTY_DERIVED:
                    digest.update(b"EMPTY_DERIVED\n")
                    continue
                consistent += 1
                for S, patterns in result.allowed.items():
                    number = {p: i for i, p in enumerate(space.patterns(len(S)))}
                    digest.update(f"{S} {sorted(map(number.__getitem__, patterns))}\n".encode())
    assert consistent > 20
    assert digest.hexdigest() == "d63e655f0168cb9bddeb58866956ed0cf75ca2cb28cd207bf89ca6f25eec8dc9"


def with_relation(space, name, arity, patterns):
    """The same kind of space, on its template plus relation ``name``."""
    template = space.template
    if isinstance(space, FinitePatterns):
        return FinitePatterns(FiniteStructure(template.domain_size, {
            **template.relations, name: relation(arity, patterns)}))
    if isinstance(space, TemporalPatterns):
        return TemporalPatterns(TemporalTemplate({
            **template.relations, name: temporal_relation(arity, patterns)}))
    return HomogPatterns(HomogTemplate(template.base, {
        **template.relations, name: type_set_relation(arity, template.base, patterns)}))


@pytest.mark.parametrize("kind", sorted(REFERENCE_SPACES))
@settings(derandomize=True, max_examples=25, deadline=None)
@given(data=st.data())
def test_narrow_and_propagate_matches_a_pinned_fixpoint(kind, data):
    space = REFERENCE_SPACES[kind]
    instance = data.draw(instances(space.template.relations))
    k, l = data.draw(st.sampled_from([(2, 3), (2, 4)]))
    state = _KLState(instance, space, k, l)
    if not state.propagate():
        return
    wide = [S for S, patterns in state.result().allowed.items() if len(patterns) > 1]
    if not wide:
        return
    S = data.draw(st.sampled_from(wide))
    patterns = space.patterns(len(S))
    numbers = sorted(patterns.index(p) for p in state.result().allowed[S])
    keep = sorted(data.draw(st.sets(st.sampled_from(numbers), min_size=1,
                                    max_size=len(numbers) - 1)))
    state.narrow(S, keep)
    state.propagate([S])
    pinned = with_relation(space, "PIN", len(S), [patterns[i] for i in keep])
    fresh = establish_kl(make_instance(instance.variables, [*instance.constraints, ("PIN", S)]),
                         pinned, k, l)
    assert state.result() == fresh


@pytest.mark.parametrize("k,l", [(2, 3), (3, 4)])
def test_wide_supersets_read_only_their_k_subsets(k, l):
    state = _KLState(make_instance("abcde", [("LT", ("a", "b"))]), SPACES["temporal"][0], k, l)
    # Supersets are numbered in size-then-lexicographic order.
    supersets = [L for size in range(1, l + 1) for L in combinations(range(5), size)]
    assert len(state.subsets) == len(supersets)
    for L, subsets in zip(supersets, state.subsets):
        sizes = [k] if len(L) > k else range(1, len(L) + 1)
        assert [state.keys[s] for s in subsets] == [
            S for size in sizes for S in combinations(L, size)]


@st.composite
def support_instances(draw, relations):
    """One to six constraints on at most five variables.  Each scope is
    drawn with replacement, or as distinct variables in any order, so that
    a relation as wide as the instance spans that many variables."""
    names = [f"x{i}" for i in range(draw(st.integers(1, 5)))]
    constraints = []
    for name in draw(st.lists(st.sampled_from(sorted(relations)), min_size=1, max_size=6)):
        arity = relations[name].arity
        if arity <= len(names) and draw(st.booleans()):
            scope = draw(st.permutations(names))[:arity]
        else:
            scope = draw(st.lists(st.sampled_from(names), min_size=arity, max_size=arity))
        constraints.append((name, tuple(scope)))
    return make_instance(names, constraints)


@pytest.mark.parametrize("k,l", [(1, 1), (1, 3), (2, 2), (2, 3), (2, 5), (3, 4)])
@pytest.mark.parametrize("kind", sorted(REFERENCE_SPACES))
@settings(derandomize=True, max_examples=40, deadline=None)
@given(data=st.data())
def test_initial_masks_match_the_superset_scan(kind, k, l, data):
    # Each constraint support is admitted only at the supersets that read
    # it.  Supports come narrower than k, wider than k and wider than l, from
    # permuted and repeated scopes; the masks before the fixpoint must be
    # those that scanning each superset gives.
    space = REFERENCE_SPACES[kind]
    instance = data.draw(support_instances(space.template.relations))
    state = _KLState(instance, space, k, l)
    viable, allowed = reference_initial_masks(instance, space, k, l)
    assert (state.viable, state.allowed, state.empty) == (viable, allowed, 0 in viable)


class CountedFreshWeakOrders(TemporalPatterns):
    """A temporal space that builds a new pattern list on every call, so
    that each call starts with empty tables, and counts ``project`` calls."""

    calls = 0

    def patterns(self, arity):
        return list(super().patterns(arity))

    def project(self, pattern, positions):
        self.calls += 1
        return super().project(pattern, positions)


def planted_temporal_instance(rng, n, m):
    """``m`` constraints of TEMPORAL that a planted ranking satisfies;
    scopes may be permuted and may repeat variables."""
    names = [f"x{i}" for i in range(n)]
    rank = {v: rng.randrange(n) for v in names}
    holds = {"LT": lambda x, y: rank[x] < rank[y],
             "RMIN": lambda x, y, z: rank[x] > min(rank[y], rank[z])}
    constraints = []
    while len(constraints) < m:
        name = rng.choice(sorted(holds))
        scope = tuple(rng.choice(names) for _ in range(TEMPORAL.relations[name].arity))
        if holds[name](*scope):
            constraints.append((name, scope))
    return make_instance(names, constraints)


@pytest.mark.parametrize("n,k,l,calls", [(10, 2, 5, 11044), (8, 3, 5, 5857)])
def test_project_calls_of_a_cold_call(n, k, l, calls):
    # Each pattern is projected once per table it fills.  A permuted or
    # repeated scope shares the table of its distinct positions, and a
    # superset wider than k leaves a constraint on fewer than k variables
    # to its k-subsets, so it fills no table for it.  Each member of a
    # relation is projected twice per positions it is read back at.
    instance = planted_temporal_instance(random.Random(2), n, n)
    scopes = [scope for name, scope in instance.constraints if name == "RMIN"]
    assert any(len(set(scope)) < 3 for scope in scopes)
    assert any(len(set(scope)) == 3 and list(scope) != sorted(scope) for scope in scopes)
    space = CountedFreshWeakOrders(TEMPORAL)
    result = establish_kl(instance, space, k, l)
    assert result == establish_kl(instance, TemporalPatterns(TEMPORAL), k, l) != EMPTY_DERIVED
    assert space.calls == calls


def test_out_of_order_scopes_project_as_much_as_in_order_ones():
    # A scope is translated by reading each member of its relation back,
    # whatever the order of its variables, not by projecting every pattern
    # of the arity.  At (2,5) the one 5-ary superset takes R in through its
    # translation alone, so either order costs the same.
    chain5 = TemporalTemplate({"LT": LT, "R": temporal_relation(
        5, [t for t in enumerate_weak_orders(5) if t.ranks == (0, 1, 2, 3, 4)])})
    calls = []
    for scope in ("abcde", "bacde"):
        space = CountedFreshWeakOrders(chain5)
        assert establish_kl(make_instance("abcde", [("R", tuple(scope))]), space, 2, 5)
        calls.append(space.calls)
    assert calls == [511, 511]


class OwnWeakOrders(TemporalPatterns):
    """A temporal space with pattern sequences of its own, the same on every
    call, so that its tables start empty and persist across calls."""

    def __init__(self, template):
        super().__init__(template)
        self.listed = {}

    def patterns(self, arity):
        if arity not in self.listed:
            self.listed[arity] = tuple(list(super().patterns(arity)))
        return self.listed[arity]


def test_a_table_filled_further_by_a_later_call():
    # The first call fills the tables over its own viable patterns and
    # caches unions; the second fills them further, and a union cached
    # before that fill would lack the new patterns.
    space = OwnWeakOrders(TEMPORAL)
    for constraints in ([("LT", ("x", "y")), ("LT", ("y", "z"))], [("LT", ("y", "x"))]):
        instance = make_instance("xyz", constraints)
        assert establish_kl(instance, space, 2, 3) == reference_establish_kl(instance, space, 2, 3)


def test_a_fill_drops_the_images_it_makes_stale():
    # An image holds the readings of a mask's filled patterns, so a fill
    # that adds patterns of the mask must drop it.  The fixpoint asks only
    # for images of masks its tables are filled over, so this reads one
    # table of fresh patterns directly.
    space = OwnWeakOrders(TEMPORAL)
    arities = consistency._numbered(space, {m: space.patterns(m) for m in (2, 3)})
    table = consistency._projection(arities, 3, (0, 1))
    triples, pairs = space.patterns(3), space.patterns(2)

    def image(numbers):
        return consistency._mask({pairs.index(triples[i].restrict((0, 1))) for i in numbers},
                                 len(pairs))

    below = [i for i, t in enumerate(triples) if t.ranks[0] < t.ranks[1]]
    table.fill(consistency._mask(below, len(triples)), space.project)
    everything = (1 << len(triples)) - 1
    assert table.image(everything) == image(below) != image(range(len(triples)))
    table.fill(everything, space.project)
    assert table.image(everything) == image(range(len(triples)))


def test_a_table_keeps_at_most_image_limit_images(monkeypatch):
    monkeypatch.setattr(consistency, "IMAGE_LIMIT", 2)
    space = OwnWeakOrders(TEMPORAL)
    arities = consistency._numbered(space, {m: space.patterns(m) for m in (2, 3)})
    table = consistency._projection(arities, 3, (0, 1))
    table.fill(arities[3].full, space.project)
    for mask in range(1, 6):
        table.image(mask)
        assert 1 <= len(table.images) <= 2
    assert table.image(5) == table.image(1) | table.image(4)


class CountedOwnWeakOrders(OwnWeakOrders):
    """:class:`OwnWeakOrders` that counts ``project`` calls."""

    calls = 0

    def project(self, pattern, positions):
        self.calls += 1
        return super().project(pattern, positions)


def test_a_second_call_projects_nothing():
    # The tables were filled over what the first call read, and the
    # translated relations read through per-positions tables on the shared
    # patterns, so the same call again projects no pattern.
    instance = planted_temporal_instance(random.Random(2), 8, 8)
    scopes = [scope for name, scope in instance.constraints if name == "RMIN"]
    assert any(len(set(scope)) < 3 for scope in scopes)
    assert any(len(set(scope)) == 3 and list(scope) != sorted(scope) for scope in scopes)
    space = CountedOwnWeakOrders(TEMPORAL)
    first = establish_kl(instance, space, 2, 4)
    assert first != EMPTY_DERIVED and space.calls
    space.calls = 0
    assert establish_kl(instance, space, 2, 4) == first
    assert space.calls == 0


def test_calls_with_one_shape_share_it():
    space = SPACES["temporal"][0]
    instance = make_instance("wxyz", [("LT", ("x", "w")), ("RMIN", ("y", "z", "y"))])
    first, second = _KLState(instance, space, 2, 3), _KLState(instance, space, 2, 3)
    assert first.subsets is second.subsets and first.containing is second.containing
    assert first.propagate()
    s = first.subset(("w", "y"))
    first.narrow(("w", "y"), [(first.allowed[s] & -first.allowed[s]).bit_length() - 1])
    first.propagate([("w", "y")])
    # Narrowing one state leaves the shared shape as it was.
    expected = reference_establish_kl(instance, space, 2, 3)
    assert first.result() != expected
    assert second.propagate() and second.result() == expected
    assert establish_kl(instance, space, 2, 3) == expected


def test_kept_shapes_stay_within_the_limit(monkeypatch):
    monkeypatch.setattr(consistency, "SUPERSET_LIMIT", 100)
    monkeypatch.setattr(consistency, "_SHAPES", {})
    space = SPACES["temporal"][0]
    rng = random.Random("limit")
    # 41, 63, 41 (again), 129 (more than the limit) and 56 supersets.
    for n, k, l in [(6, 2, 3), (7, 2, 3), (6, 2, 3), (9, 2, 3), (6, 1, 2), (7, 2, 3)]:
        instance = seeded_instance(rng, space.template.relations, n, n // 2)
        assert establish_kl(instance, space, k, l) == reference_establish_kl(instance, space, k, l)
        assert sum(len(shape.sizes) for shape in consistency._SHAPES.values()) <= 100
        assert (9, 2, 3) not in consistency._SHAPES
    assert set(consistency._SHAPES) == {(7, 2, 3)}


def test_propagate_rejects_an_unknown_subset():
    state = _KLState(make_instance("xyz", [("LT", ("x", "y"))]), SPACES["temporal"][0], 2, 3)
    assert state.propagate()
    with pytest.raises(ParameterError):
        state.propagate([("x", "y", "z")])


def test_narrow_that_removes_nothing_leaves_the_fixpoint():
    # Every superset that contains the subset is revisited; its viable mask
    # and the image it projects onto each of its subsets are unchanged.
    space = SPACES["temporal"][0]
    state = _KLState(make_instance("xyz", [("LT", ("x", "y"))]), space, 2, 3)
    assert state.propagate()
    allowed, viable = list(state.allowed), list(state.viable)
    state.narrow(("x", "z"), range(len(space.patterns(2))))
    assert state.propagate([("x", "z")])
    assert (state.allowed, state.viable) == (allowed, viable)


@pytest.mark.parametrize("first,second", [
    (TOURNAMENT_TEMPLATE, HomogTemplate(TOURNAMENT, {
        # The same names as TOURNAMENT_TEMPLATE, other contents.
        "ARC": homog_relation(TOURNAMENT, 2, {(FWD,), (EQ,)}),
        "AEQ": homog_relation(TOURNAMENT, 2, {(FWD,)}),
        "TR": homog_relation(TOURNAMENT, 3, {
            t.fingerprint for t in enumerate_types(3, TOURNAMENT)
            if pair_label(t, 0, 2) is not FWD}),
    })),
    (TEMPORAL, TemporalTemplate({
        "LT": LT,
        "RMIN": temporal_relation(3, [t for t in enumerate_weak_orders(3)
                                      if t.ranks[0] < max(t.ranks[1:])]),
    })),
])
def test_alternating_templates_on_one_base(first, second):
    relations = first.relations
    names = [f"v{i}" for i in range(6)]
    instance = make_instance(names, [
        (name, tuple(names[(i + j) % 6] for j in range(relations[name].arity)))
        for i, name in enumerate(sorted(relations) * 2)])
    spaces = [HomogPatterns(t) if hasattr(t, "base") else TemporalPatterns(t)
              for t in (first, second)]
    expected = [reference_establish_kl(instance, space, 2, 3) for space in spaces]
    assert expected[0] != expected[1]
    for _ in range(3):
        for space, result in zip(spaces, expected):
            assert establish_kl(instance, space, 2, 3) == result


def memo_size():
    """Memo entries, their projection tables and the positions they read
    members back at."""
    return (len(_MEMO), sum(len(entry.tables) for entry in _MEMO.values()),
            sum(len(entry.readbacks) for entry in _MEMO.values()))


def test_finite_templates_do_not_grow_the_memo():
    # The cycle's closing edge reads its relation against variable order,
    # so every call translates it; no table may be kept per relation name
    # or contents.
    establish_kl(cycle_instance(5), TWO_COLORING, 2, 3)
    before = memo_size()
    assert before[2]
    rng = random.Random(7)
    for i in range(100):
        name = f"E{i}"
        names = [f"v{j}" for j in range(5)]
        instance = make_instance(names, [(name, (names[j], names[(j + 1) % 5])) for j in range(5)])
        template = FiniteStructure(2, {name: relation(2, rng.sample(list(product(range(2), repeat=2)), 2))})
        assert establish_kl(instance, template, 2, 3) == reference_establish_kl(instance, template, 2, 3)
    assert memo_size() == before


class FreshLists(FinitePatterns):
    """A space that builds a new pattern list on every call."""

    def patterns(self, arity):
        return list(super().patterns(arity))


def test_fresh_pattern_lists_stay_out_of_the_memo():
    before = memo_size()
    space = FreshLists(FINITE)
    for n in (3, 4, 5):
        instance = cycle_instance(n)
        assert establish_kl(instance, space, 2, 3) == reference_establish_kl(instance, space, 2, 3)
    assert memo_size() == before
