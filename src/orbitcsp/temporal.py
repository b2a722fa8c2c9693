"""Constraint solving over the dense linear order of the rationals.

Relations are unions of order types: a k-tuple of rationals determines a
weak order on its positions (which coordinates are equal, which are
smaller), and a first-order definable k-ary relation is exactly a set of
such weak-order types.  Templates are expansions of (Q;<) by finitely many
relations of this kind.

Tractability hinges on four binary operations given by order and sign
conditions only:

    pp(x, y)  = x for x <= 0, and eps(y) > 0 for x > 0
    ll(0, 0)  = 0;  ll groups x <= 0 below x > 0, ordering the lower
                group lexicographically by (x, y) and the upper group
                by (y, x)

plus the duals (x, y) -> -f(-x, -y).  Since only order and sign matter,
the module never materialises rational values: operations are evaluated on
weak orders with the zero point as one more position, so a sign is a
comparison with that position and negation is reversal, and instance
solutions are weak orders on the variable set (tuples of levels, bottom
first).

Weak orders are generated as dense rank vectors by ``_dense_rank_vectors``,
whose prefix callback gets the rank vector and the pair table ``_ORDER``.
The brute-force oracle is one call to ``relstruct._first_placement``, the
exhaustive search shared with the homogeneous bases: it reads the position
pair (p, q) as ``_ORDER[ranks[p]][ranks[q]]``, and a relation's
fingerprints are the same comparisons over each type's position pairs.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, compress
from typing import Callable, Iterable, Iterator, KeysView, Mapping, Optional, Sequence

from .errors import (
    BudgetExceeded,
    MalformedPattern,
    ParameterError,
    PreconditionFailed,
    SignatureMismatch,
)
from .polyengine import (
    BooleanClass,
    _boolean_solver,
    _narrow_solver,
    boolean_classify,
)
from .relstruct import FiniteStructure, Instance, _first_placement, check_signature, relation

ENUMERATION_LIMIT = 8       # weak orders on more positions get huge
PRESERVE_ARITY_LIMIT = 6    # pattern budget for preservation tests
ORACLE_VARIABLE_LIMIT = 7   # 47293 weak orders on 7 points

#: Solution shape: variables grouped into levels, bottom level first.
Levels = tuple[tuple[str, ...], ...]


def _canon(ranks: Sequence[int]) -> tuple[int, ...]:
    """Densely renumber comparable keys, preserving their order."""
    mapping = {r: i for i, r in enumerate(sorted(set(ranks)))}
    return tuple(mapping[r] for r in ranks)


@dataclass(frozen=True)
class WeakOrderType:
    """The order type of a tuple of rationals.

    ``ranks[i]`` is the 0-based level of position i, counted from the
    bottom; rank vectors are kept dense (every level up to the maximum is
    used), which makes them canonical.
    """

    ranks: tuple[int, ...]

    def __post_init__(self):
        if not self.ranks:
            raise MalformedPattern("a type needs at least one position")
        levels = set(self.ranks)
        if levels != set(range(len(levels))):
            raise MalformedPattern(f"rank vector {self.ranks} is not dense")

    @classmethod
    def from_values(cls, values: Sequence) -> "WeakOrderType":
        return cls(_canon(values))

    @property
    def arity(self) -> int:
        return len(self.ranks)

    @property
    def num_blocks(self) -> int:
        return max(self.ranks) + 1

    @property
    def blocks(self) -> tuple[tuple[int, ...], ...]:
        """Positions grouped by level, bottom block first."""
        out: list[list[int]] = [[] for _ in range(self.num_blocks)]
        for pos, r in enumerate(self.ranks):
            out[r].append(pos)
        return tuple(tuple(b) for b in out)

    def restrict(self, positions: Sequence[int]) -> "WeakOrderType":
        """The induced type on a selection of positions (repeats allowed)."""
        return WeakOrderType(_canon([self.ranks[p] for p in positions]))

    def reverse(self) -> "WeakOrderType":
        """The type of (-x_1, ..., -x_k): block order swapped."""
        top = self.num_blocks - 1
        return WeakOrderType(tuple(top - r for r in self.ranks))

    def respects(self, scope: Sequence[str]) -> bool:
        """Equal scope variables must sit on equal levels."""
        seen: dict[str, int] = {}
        for pos, var in enumerate(scope):
            if var in seen and seen[var] != self.ranks[pos]:
                return False
            seen.setdefault(var, self.ranks[pos])
        return True

    def __str__(self) -> str:
        return "<".join("=".join(str(p + 1) for p in block)
                        for block in self.blocks)


#: ``_ORDER[r][s]`` is -1, 0 or 1 as rank r is below, equal to or above
#: rank s: the pair table of every weak order, whose ranks are its blocks.
_ORDER = tuple(tuple((r > s) - (r < s) for s in range(ENUMERATION_LIMIT))
               for r in range(ENUMERATION_LIMIT))

_PrefixOk = Callable[[list[int], Sequence[Sequence[int]], int], bool]


def _comparisons(rel: "TemporalRelation") -> frozenset[tuple[int, ...]]:
    """Per type of the relation, its ``_ORDER`` readings over the position
    pairs in lexicographic order.  They are computed from the ranks, since a
    relation may be wider than the table; the readings fix the weak order."""
    pairs = list(combinations(range(rel.arity), 2))
    return frozenset(
        tuple((ranks[p] > ranks[q]) - (ranks[p] < ranks[q]) for p, q in pairs)
        for ranks in (t.ranks for t in rel.types))


def _dense_rank_vectors(k: int, prefix_ok: _PrefixOk) -> Iterator[tuple[int, ...]]:
    """Rank vectors of the weak orders on k positions, ascending.

    ``prefix_ok(ranks, _ORDER, i)`` is called once after position i is
    placed; a false answer skips every completion of ``ranks[:i + 1]``.
    """
    return _rank_completions(0, -1, 0, [0] * k, [0] * k, prefix_ok)


def _rank_completions(
        i: int, top: int, missing: int, ranks: list[int], counts: list[int],
        prefix_ok: _PrefixOk,
) -> Iterator[tuple[int, ...]]:
    """The dense completions of ``ranks[:i]`` for ``_dense_rank_vectors``.

    top: highest rank used so far (-1 initially); missing: unused levels
    below it; counts: how many placed positions hold each rank.  Dense
    completions need missing <= slots left, so none is missing once every
    position is placed.  A module function, not a closure that names
    itself, so a finished search leaves no reference cycle behind.
    """
    k = len(ranks)
    if i == k:
        yield tuple(ranks)
        return
    slots = k - i - 1
    for r in range(k):
        if r > top:
            gap = missing + (r - top - 1)
            new_top = r
        else:
            gap = missing - (1 if counts[r] == 0 else 0)
            new_top = top
        if gap > slots:
            continue
        ranks[i] = r
        if not prefix_ok(ranks, _ORDER, i):
            continue
        counts[r] += 1
        yield from _rank_completions(i + 1, new_top, gap, ranks, counts, prefix_ok)
        counts[r] -= 1


@lru_cache(maxsize=None)
def enumerate_weak_orders(k: int) -> tuple[WeakOrderType, ...]:
    """All weak-order types of arity k, sorted by rank vector."""
    if k > ENUMERATION_LIMIT:
        raise BudgetExceeded(f"weak orders on {k} > {ENUMERATION_LIMIT} positions")
    if k < 1:
        raise ParameterError("arity must be positive")
    return tuple(WeakOrderType(ranks)
                 for ranks in _dense_rank_vectors(k, lambda ranks, table, i: True))


@dataclass(frozen=True)
class TemporalRelation:
    """A finite union of weak-order types of a fixed arity."""

    arity: int
    types: frozenset[WeakOrderType]

    def __post_init__(self):
        if self.arity < 1:
            raise ParameterError("relation arity must be positive")
        for t in self.types:
            if t.arity != self.arity:
                raise MalformedPattern(f"type {t} has wrong arity")

    def sorted_types(self) -> list[WeakOrderType]:
        return sorted(self.types, key=lambda t: t.ranks)

    def reverse(self) -> "TemporalRelation":
        return TemporalRelation(self.arity,
                                frozenset(t.reverse() for t in self.types))


def temporal_relation(arity: int, types: Iterable[WeakOrderType]) -> TemporalRelation:
    return TemporalRelation(arity, frozenset(types))


#: The order type of a strictly increasing pair, and the relation {<}.
LT_TYPE = WeakOrderType((0, 1))
LT = temporal_relation(2, [LT_TYPE])


@dataclass(frozen=True, eq=False)
class TemporalTemplate:
    """An expansion of (Q;<): named relations, one of them exactly {<}."""

    relations: Mapping[str, TemporalRelation]

    def __post_init__(self):
        if not any(rel == LT for rel in self.relations.values()):
            raise ParameterError("template must contain the order relation <")


class TemporalOp(enum.Enum):
    PP = "pp"
    LL = "ll"
    DUAL_PP = "dual_pp"
    DUAL_LL = "dual_ll"

    @property
    def is_dual(self) -> bool:
        return self.value.startswith("dual_")

    @property
    def base(self) -> "TemporalOp":
        return TemporalOp(self.value[5:]) if self.is_dual else self


def apply_temporal_op(op: TemporalOp, joint: WeakOrderType) -> WeakOrderType:
    """Evaluate a binary operation componentwise on a joint pattern.

    The joint pattern is a weak order on 2k + 1 positions: positions 1..k
    are the first argument a, positions k+1..2k the second argument b, and
    the last one is the zero point, so a position's sign is its comparison
    with the last rank.  The result is the weak order of (op(a_1,b_1), ...,
    op(a_k,b_k), 0), its last position again the zero point, since
    op(0, 0) = 0.  Duals are evaluated by conjugation: reverse the joint,
    apply the base operation, reverse the result.
    """
    if not joint.arity % 2:
        raise MalformedPattern("joint pattern needs odd arity: a, b and the zero point")
    if op.is_dual:
        return apply_temporal_op(op.base, joint.reverse()).reverse()
    k = joint.arity // 2
    ranks = joint.ranks
    zero = ranks[-1]
    # Only a-to-a and b-to-b comparisons, the zero point counted in both
    # halves, matter below; how the halves interleave is irrelevant.
    pairs = [*zip(ranks[:k], ranks[k:-1]), (zero, zero)]
    if op is TemporalOp.PP:
        # pp(x, y) = x for x <= 0, else a positive value ordered by y.
        keys = [(0, x, 0) if x <= zero else (1, y, 0) for x, y in pairs]
    else:
        # ll: x <= 0 sorts below x > 0; ordered by (x, y) below and by
        # (y, x) above.
        keys = [(0, x, y) if x <= zero else (1, y, x) for x, y in pairs]
    return WeakOrderType.from_values(keys)


@dataclass(frozen=True)
class TemporalCounterexample:
    """A joint pattern whose image escapes the relation.  Falsy.  Both are
    weak orders whose last position is the zero point."""

    op: TemporalOp
    left: WeakOrderType
    right: WeakOrderType
    joint: WeakOrderType
    image: WeakOrderType

    def __bool__(self) -> bool:
        return False


@lru_cache(maxsize=None)
def preserves_temporal(op: TemporalOp, rel: TemporalRelation):
    """True, or a falsy counterexample pattern.  Memoised: both arguments
    and both kinds of answer are frozen values.

    Every componentwise application to members of the relation is covered
    by enumerating type pairs and the place of the zero point among the
    blocks of the first argument, bottom first: the image order never
    depends on how the two halves interleave nor on the signs of the second
    half, so one canonical joint per choice (all b-blocks above the a-blocks
    and the zero point) suffices.  In doubled ranks the a-blocks are odd and
    the zero point takes every cut from 0 to 2 * blocks.
    """
    if rel.arity > PRESERVE_ARITY_LIMIT:
        raise BudgetExceeded(f"arity {rel.arity} > {PRESERVE_ARITY_LIMIT}")
    k = rel.arity
    for ta in rel.sorted_types():
        shift = ta.num_blocks
        for cut in range(2 * shift + 1):
            for tb in rel.sorted_types():
                joint = WeakOrderType.from_values(
                    [2 * r + 1 for r in ta.ranks]
                    + [2 * (r + shift) + 1 for r in tb.ranks] + [cut])
                image = apply_temporal_op(op, joint)
                if image.restrict(range(k)) not in rel.types:
                    return TemporalCounterexample(op, ta, tb, joint, image)
    return True


# ---------------------------------------------------------------------------
# The two-element quotient structure and free sets.
#
# Restricting a template to the nonnegative rationals and collapsing the
# positives to a single point leaves the two-element domain {Z, P}; a
# k-tuple over {Z, P} belongs to the image of a relation iff some type
# admits a nonnegative realisation whose zero set is marked Z.  Zeros are
# minimal and mutually equal, so the possible zero sets of a type are
# the empty set and its bottom block.  Z is encoded as 1 and P as 0, which
# makes the induced action of ll the boolean AND.
#
# The master picks each level in one pass of pinned solves (_next_level):
# the first free set found in declaration order, which in the ll modes each
# later member's least free set replaces when smaller.  A variable that
# some live constraint forbids at Z on its own, with no quotient row that
# puts it at Z, lies in no free set, and the pass skips it unsolved; the
# quotient keeps these blocked counts up to date as levels are committed.
# Then it commits the level and asks again of what is left.  So one
# _Quotient is compiled per solve_master call: one pattern lookup per
# constraint, scopes as variable indices, a variable-to-constraint index,
# the class set, and the solver that polyengine._boolean_solver picks for
# it.  The class set is kept as a count of (arity, patterns) pairs and
# memoised on them for the process.  Committing a level (_Quotient.commit)
# visits only the constraints whose scope meets it and recounts the blocked
# variables of those alone; constraints keep their ids in the instance.
# Each is projected past the level by _project, memoised for the process,
# so the same (relation, positions) gives the same relation object and the
# pattern lookup hits by identity.  Then polyengine._narrow_solver narrows
# a Horn engine in place when the classes still pick its algorithm (a
# scope only shrinks to remaining variables, so its watch lists stay
# valid, and the pin-free fixpoint is recomputed once per level);
# otherwise a fresh solver is built on the remaining variables.  A pin is
# a solver index mapped to Z or P; a Horn quotient answers it from the
# pin-free fixpoint.  Every quotient solve is a call of _solve_afin, under
# that global name, so that it can be counted.
# ---------------------------------------------------------------------------

Z_VALUE = 1
P_VALUE = 0

#: The named points of the quotient, as unary relations.
_POINTS = {"Z": relation(1, [(Z_VALUE,)]), "P": relation(1, [(P_VALUE,)])}

_Constraint = tuple[TemporalRelation, tuple[str, ...]]


def _fin_patterns(rel: TemporalRelation, scope: Sequence[object],
                  ) -> frozenset[tuple[int, ...]]:
    """Zero/positive patterns realised by the relation's types on a scope.

    Types that assign distinct levels to repeated scope entries cannot be
    realised by a valuation and are skipped; a scope of distinct entries,
    such as the relation's own positions, keeps every type.  Only which
    positions repeat matters, so the scope is reduced to the index of each
    entry's first occurrence, e.g. ``(0, 0, 2)`` for ``(x, x, y)``, and the
    patterns are memoised on that.
    """
    return _fin_patterns_of(rel, tuple(scope.index(v) for v in scope))


@lru_cache(maxsize=None)
def _fin_patterns_of(rel: TemporalRelation, repeats: tuple[int, ...],
                     ) -> frozenset[tuple[int, ...]]:
    patterns: set[tuple[int, ...]] = set()
    for t in rel.types:
        if not t.respects(repeats):
            continue
        patterns.add(tuple(P_VALUE for _ in range(rel.arity)))
        bottom = set(t.blocks[0])
        patterns.add(tuple(Z_VALUE if i in bottom else P_VALUE
                           for i in range(rel.arity)))
    return frozenset(patterns)


def build_afin(template: TemporalTemplate) -> FiniteStructure:
    """The two-element quotient template, with both points named."""
    rels = {}
    for name in sorted(template.relations):
        if name in ("Z", "P"):
            raise SignatureMismatch(f"relation name {name} is reserved")
        rel = template.relations[name]
        rels[name] = relation(rel.arity, _fin_patterns(rel, range(rel.arity)))
    return FiniteStructure(2, {**rels, **_POINTS})


def _constraint_list(instance: Instance,
                     template: TemporalTemplate) -> list[_Constraint]:
    check_signature(instance, template)
    return [(template.relations[name], scope) for name, scope in instance.constraints]


@lru_cache(maxsize=None)
def _never_zero(patterns: frozenset[tuple[int, ...]], arity: int) -> tuple[int, ...]:
    """The positions that no row of ``patterns`` puts at Z."""
    return tuple(i for i in range(arity) if all(row[i] != Z_VALUE for row in patterns))


def _blocked(patterns: frozenset[tuple[int, ...]],
             scope: tuple[str, ...]) -> tuple[str, ...]:
    """The variables of the scope that no row of ``patterns`` puts at Z at
    all of their positions: a constraint on this scope forbids each of
    them at Z on its own.  A row on the scope gives a repeated variable
    one value at all of its positions (:func:`_fin_patterns` skips the
    types that do not), so the positions never at Z name them."""
    return tuple(dict.fromkeys(scope[i] for i in _never_zero(patterns, len(scope))))


@lru_cache(maxsize=None)
def _project(rel: TemporalRelation, positions: tuple[int, ...],
             ) -> tuple[Optional[TemporalRelation], tuple[int, ...]]:
    """The relation left once the positions sit on the committed level,
    and the positions it keeps; no relation when it keeps none."""
    keep = [t for t in rel.types if t.blocks[0] == positions]
    rest = tuple(i for i in range(rel.arity) if i not in positions)
    if not rest:
        if not keep:
            raise AssertionError("level contradicts a fully covered constraint")
        return None, rest
    types = frozenset(t.restrict(rest) for t in keep)
    if not types:
        raise AssertionError("level starves an intersecting constraint")
    return TemporalRelation(len(rest), types), rest


class _Quotient:
    """A quotient instance compiled for repeated solves under pins and
    narrowed one committed level at a time.  ``variables`` are the
    remaining variables, ``index`` maps each to its solver index, ``names``
    maps a solver index back to its variable, None once committed, and
    ``solve`` maps pins on solver indices to a solution vector, or None.

    ``blocked`` counts, per remaining variable, the live constraints that
    forbid it at Z on their own (:func:`_blocked`); no free set contains a
    variable with a count above 0, so :func:`_next_level` skips those in
    its scan of ``variables``."""

    def __init__(self, variables: tuple[str, ...],
                 constraints: Sequence[_Constraint]):
        self.index = {v: i for i, v in enumerate(variables)}
        # Per constraint id: the relation and scope, None once dropped, and
        # the zero/positive patterns of the relation on that scope; per
        # variable, the ids of the constraints whose scope holds it.
        self.constraints: list[Optional[_Constraint]] = list(constraints)
        self.patterns = [_fin_patterns(rel, scope) for rel, scope in constraints]
        self.blocked = dict.fromkeys(variables, 0)
        self.touching: dict[str, list[int]] = {v: [] for v in variables}
        for c, (_, scope) in enumerate(constraints):
            for v in _blocked(self.patterns[c], scope):
                self.blocked[v] += 1
            for v in dict.fromkeys(scope):
                self.touching[v].append(c)
        # The class key: a count of live constraints per (arity, patterns).
        self.counts = Counter((len(scope), patterns) for (_, scope), patterns
                              in zip(constraints, self.patterns))
        self._build(self._classes(frozenset(self.counts)))

    @property
    def variables(self) -> KeysView[str]:
        """The remaining variables, in declaration order."""
        return self.index.keys()

    @staticmethod
    @lru_cache(maxsize=None)
    def _classes(key: frozenset) -> frozenset[BooleanClass]:
        """The classes of the quotient structure whose relations are the
        (arity, patterns) pairs of ``key``; they recur across master
        rounds, so they are memoised."""
        rels = {f"R{i}": relation(arity, patterns)
                for i, (arity, patterns) in enumerate(key)}
        return boolean_classify(FiniteStructure(2, {**rels, **_POINTS}))

    def _build(self, classes: frozenset[BooleanClass]) -> None:
        """A fresh solver on the remaining variables and live constraints."""
        index = self.index = {v: i for i, v in enumerate(self.index)}
        self.names: list[Optional[str]] = list(index)
        live = [c for c, constraint in enumerate(self.constraints) if constraint is not None]
        self.solve = _boolean_solver(
            len(index),
            [(self.patterns[c], tuple(index[v] for v in self.constraints[c][1]))
             for c in live],
            classes)
        self.solver_id = {c: k for k, c in enumerate(live)}

    def commit(self, level: tuple[str, ...]) -> None:
        """Remove a level of remaining variables: project every constraint
        whose scope meets it past it, dropping those it covers, update the
        blocked counts of their variables, and narrow the solver, or build
        a fresh one when the classes pick another."""
        members = frozenset(level)
        touched = list(dict.fromkeys(c for v in level for c in self.touching[v]))
        counts, blocked = self.counts, self.blocked
        for c in touched:
            rel, scope = self.constraints[c]
            old = (len(scope), self.patterns[c])
            counts[old] -= 1
            if not counts[old]:
                del counts[old]
            for v in _blocked(self.patterns[c], scope):
                blocked[v] -= 1
            rel, rest = _project(
                rel, tuple(i for i, v in enumerate(scope) if v in members))
            if rel is None:
                self.constraints[c] = None
                continue
            scope = tuple(scope[i] for i in rest)
            self.constraints[c] = (rel, scope)
            self.patterns[c] = patterns = _fin_patterns(rel, scope)
            for v in _blocked(patterns, scope):
                blocked[v] += 1
            counts[len(scope), patterns] += 1
        index = self.index
        for v in level:
            self.names[index.pop(v)] = None
            del blocked[v]
        changes = {self.solver_id[c]: None if self.constraints[c] is None else
                   (self.patterns[c], tuple(index[v] for v in self.constraints[c][1]))
                   for c in touched}
        classes = self._classes(frozenset(counts))
        if not _narrow_solver(self.solve, classes, changes):
            self._build(classes)


def _solve_afin(quotient: _Quotient,
                pins: Mapping[str, int]) -> Optional[frozenset[str]]:
    """Solve the compiled quotient instance with the pinned variables fixed
    to Z or P: the remaining variables at Z, or None.  Z is 1 and P is 0,
    so the solution vector selects them; a committed variable, named None,
    may sit at either."""
    index = quotient.index
    values = quotient.solve({index[v]: value for v, value in pins.items()})
    if values is None:
        return None
    zeros = set(compress(quotient.names, values))
    zeros.discard(None)
    return frozenset(zeros)


def free_sets(instance: Instance, template: TemporalTemplate,
              ) -> tuple[Optional[frozenset[str]], ...]:
    """A free set containing each variable, or None, in declaration order,
    on one compiled quotient.

    Free sets containing x correspond exactly to solutions of the quotient
    instance with x pinned to Z; each returned set is the Z-preimage of the
    canonical solution.  A blocked variable has none, and is not solved.
    """
    quotient = _Quotient(instance.variables, _constraint_list(instance, template))
    return tuple(None if quotient.blocked[x] else _free_set(quotient, x)
                 for x in instance.variables)


def _free_set(quotient: _Quotient, x: str) -> Optional[frozenset[str]]:
    return _solve_afin(quotient, {x: Z_VALUE})


def _next_level(quotient: _Quotient,
                minimal: bool) -> Optional[tuple[str, ...]]:
    """The next level, in declaration order, or None when no remaining
    variable lies in a free set.

    One pass over the remaining variables in declaration order that skips
    those with a blocked count above 0: a blocked variable lies in no free
    set, so skipping it changes no level.  The first variable whose free
    set exists gives the level.  With ``minimal`` (the ll modes) the
    quotient is AND-closed, and its Horn engine's least solution with x
    pinned to Z is the least free set containing x.  So each later member
    whose set is smaller replaces the level, which ends minimal.  A member
    passed over lies in no later replacement, since its least free set was
    the whole level then; so the pass needs no restart.
    """
    blocked = quotient.blocked
    for x in quotient.variables:
        if not blocked[x]:
            level = _free_set(quotient, x)
            if level is not None:
                break
    else:
        return None
    # No member comes before the first variable: its free set would exist.
    # Solver indices follow declaration order.
    members = sorted(level, key=quotient.index.__getitem__)
    if minimal:
        for x in members[1:]:
            if x in level:
                found = _free_set(quotient, x)
                if found is None or not found <= level:
                    raise AssertionError(
                        "least free set of a level member is not inside the level")
                level = found
    return tuple(v for v in members if v in level)


def _run_master(variables: tuple[str, ...],
                constraints: Sequence[_Constraint],
                use_minimal: bool) -> Optional[Levels]:
    quotient = _Quotient(variables, constraints)
    levels: list[tuple[str, ...]] = []
    while quotient.variables:
        level = _next_level(quotient, use_minimal)
        if level is None:
            # A satisfying weak order would make its bottom level a free
            # set, so the search failing for every variable refutes it.
            return None
        levels.append(level)
        quotient.commit(level)
    return tuple(levels)


def solve_master(instance: Instance, template: TemporalTemplate,
                 mode: TemporalOp) -> Optional[Levels]:
    """Level-by-level solver for templates preserved by the chosen mode.

    Repeatedly commits a free set as the next level and projects all
    constraints past it: the first found in declaration order, shrunk in
    the same pass to a minimal one in the ll modes.  Dual modes run the
    base mode on the reversed relations and flip the resulting order.
    Returns the levels bottom-up, or None when unsatisfiable.
    """
    failed = _first_unpreserved(mode, template)
    if failed is not None:
        raise PreconditionFailed(f"{mode.value} does not preserve {failed[0]}")
    constraints = searched = _constraint_list(instance, template)
    if mode.is_dual:
        # One reversed object per relation, so that projections and pattern
        # lookups of its constraints hit by identity.
        reverse = {rel: rel.reverse() for rel in template.relations.values()}
        searched = [(reverse[rel], scope) for rel, scope in constraints]
    levels = _run_master(instance.variables, searched, mode.base is TemporalOp.LL)
    if levels is None:
        return None
    if mode.is_dual:
        levels = tuple(reversed(levels))
    rank = {v: i for i, lvl in enumerate(levels) for v in lvl}
    for rel, scope in constraints:
        induced = WeakOrderType.from_values([rank[v] for v in scope])
        if induced not in rel.types:
            raise AssertionError("levels fail the original instance")
    return levels


def brute_oracle(instance: Instance,
                 template: TemporalTemplate) -> Optional[Levels]:
    """Scan all weak orders on the variables, smallest rank vector first,
    by ``relstruct._first_placement`` reading pairs off ``_ORDER``."""
    order = _first_placement(
        instance, TemporalPatterns(template), ORACLE_VARIABLE_LIMIT,
        lambda n, prefix_ok: map(WeakOrderType, _dense_rank_vectors(n, prefix_ok)),
        _comparisons)
    return None if order is None else tuple(
        tuple(instance.variables[p] for p in block) for block in order.blocks)


@dataclass(frozen=True)
class TemporalVerdict:
    """Outcome of the tractability test for a temporal template."""

    polynomial: bool
    mode: Optional[TemporalOp]
    counterexamples: tuple[tuple[TemporalOp, str, TemporalCounterexample], ...]


def _first_unpreserved(mode: TemporalOp, template: TemporalTemplate,
                       ) -> Optional[tuple[str, TemporalCounterexample]]:
    """The first relation in name order that ``mode`` does not preserve,
    with its counterexample; None when it preserves them all.  Raises
    BudgetExceeded, naming the relation, on one above the arity that
    :func:`preserves_temporal` takes."""
    for name in sorted(template.relations):
        rel = template.relations[name]
        if rel.arity > PRESERVE_ARITY_LIMIT:
            raise BudgetExceeded(f"relation {name} has arity {rel.arity}; preservation "
                                 f"tests take arity <= {PRESERVE_ARITY_LIMIT}")
        result = preserves_temporal(mode, rel)
        if result is not True:
            return name, result
    return None


def classify_temporal(template: TemporalTemplate) -> TemporalVerdict:
    """First preserved mode wins; otherwise NP-complete with witnesses."""
    found: list[tuple[TemporalOp, str, TemporalCounterexample]] = []
    for mode in (TemporalOp.PP, TemporalOp.DUAL_PP,
                 TemporalOp.LL, TemporalOp.DUAL_LL):
        failed = _first_unpreserved(mode, template)
        if failed is None:
            return TemporalVerdict(True, mode, tuple(found))
        found.append((mode, *failed))
    return TemporalVerdict(False, None, tuple(found))


class TemporalPatterns:
    """Pattern space of a temporal template: patterns are weak-order types."""

    def __init__(self, template: TemporalTemplate):
        self.template = template

    def patterns(self, arity):
        return enumerate_weak_orders(arity)

    def project(self, pattern, positions):
        return pattern.restrict(positions)

    def members(self, name):
        return self.template.relations[name].types
