"""Polymorphism tables, identity-driven search, and boolean solving.

The two-element analysis rests on four fixed tables: conjunction,
disjunction, ternary majority, and ternary minority (xor of three).  A
boolean template is equationally non-trivial exactly when it is preserved by
one of those four or by a constant map; testing the fixed tables is therefore
both the classifier and the choice of solver.  Identity-driven table search
(cyclic, weak near-unanimity, ...) is available for small non-boolean
domains; it compiles the identities and the template's power into
constraints and runs the backtracker in ``relstruct``, which owns all
finite-domain search.  The six-ary condition is answered on booleans by
delegation to the fixed tables rather than by searching a 64-cell table.

Boolean solving has one entry point, ``_boolean_solver``.  It takes
``(rows, variable indices)`` constraints and a class set, picks the first
class in table order, and returns ``solve(pins)``, whose answer is the
set of variables a solution sets to 1, or None.  Both Horn classes share
``_HornEngine``, a watch-list fixpoint that keeps the pin-free fixpoint
and answers each pin set from the trail of the variables its pins move,
in time linear in what they touch.  Affine builds one reduced GF(2)
system with the solver, and a solve reduces only its pins into a copy of
it.  The other classes take the pins as unary constraints: majority runs
(2,3)-consistency on binary projections, a constant class tries its
constant, and no class means backtracking search.  Every answer is
checked against every constraint: the Horn engine keeps every
constraint holding at its pin-free fixpoint and checks only the
constraints without the start row and those watching a variable a
fixpoint or a solve moved, the other solvers check every constraint on
every answer.
``schaefer_solve`` indexes a named instance and
solves it once; ``temporal`` compiles one solver per master call, solves
it under many pin sets, and narrows it with ``_narrow_solver`` as levels
are committed: a Horn engine in place, any other solver by building
afresh.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress, product
from typing import Callable, Iterable, Mapping, Optional, Sequence

from .consistency import EMPTY_DERIVED, establish_kl
from .errors import BudgetExceeded, ClassMismatch, DomainMismatch, ParameterError
from .relstruct import (
    FiniteStructure,
    Instance,
    Relation,
    _assignments,
    check_signature,
    encode_tuple,
)

SEARCH_DOMAIN_LIMIT = 4
SEARCH_ARITY_LIMIT = 4
#: Most row choices, rows ** arity, that one relation may ask of a closure
#: check (:func:`preserves_op`) or of a table search
#: (:func:`find_polymorphism`).  64^3 admits the ternary tables on all 64
#: rows of a 6-ary boolean relation, the quotient of a temporal relation
#: of the largest arity that preservation tests take.  Classifying it, the
#: largest accepted case, takes 3.1 s on a 2-core Xeon.
ROW_CHOICE_LIMIT = 2 ** 18


@dataclass(frozen=True)
class OpTable:
    """A finitary operation on {0..domain_size-1}, stored as a flat value
    vector indexed by the row-major code of the argument tuple."""

    arity: int
    domain_size: int
    values: tuple[int, ...]

    def __post_init__(self):
        if len(self.values) != self.domain_size ** self.arity:
            raise ParameterError("value vector length does not match arity/domain")
        if any(not (0 <= v < self.domain_size) for v in self.values):
            raise DomainMismatch("operation value leaves the domain")

    def __call__(self, *args: int) -> int:
        if len(args) != self.arity:
            raise ParameterError(f"expected {self.arity} arguments, got {len(args)}")
        return self.values[encode_tuple(args, self.domain_size)]

    @classmethod
    def from_function(cls, arity: int, domain_size: int, fn) -> "OpTable":
        vals = tuple(fn(*args) for args in product(range(domain_size), repeat=arity))
        return cls(arity, domain_size, vals)


AND2 = OpTable.from_function(2, 2, lambda x, y: x & y)
OR2 = OpTable.from_function(2, 2, lambda x, y: x | y)
MAJ3 = OpTable.from_function(3, 2, lambda x, y, z: (x & y) | (y & z) | (x & z))
XOR3 = OpTable.from_function(3, 2, lambda x, y, z: x ^ y ^ z)
CONST0 = OpTable.from_function(1, 2, lambda x: 0)
CONST1 = OpTable.from_function(1, 2, lambda x: 1)


class BooleanClass(enum.Enum):
    HORN_AND = "HORN_AND"
    DUAL_HORN_OR = "DUAL_HORN_OR"
    MAJORITY_2SAT = "MAJORITY_2SAT"
    MINORITY_AFFINE = "MINORITY_AFFINE"
    CONSTANT0 = "CONSTANT0"
    CONSTANT1 = "CONSTANT1"
    TRIVIAL = "TRIVIAL"


_CLASS_TABLES: list[tuple[BooleanClass, OpTable]] = [
    (BooleanClass.HORN_AND, AND2),
    (BooleanClass.DUAL_HORN_OR, OR2),
    (BooleanClass.MAJORITY_2SAT, MAJ3),
    (BooleanClass.MINORITY_AFFINE, XOR3),
    (BooleanClass.CONSTANT0, CONST0),
    (BooleanClass.CONSTANT1, CONST1),
]


def _check_row_choices(template: FiniteStructure, arity: int) -> None:
    """Raise BudgetExceeded, before any work, when a relation asks for more
    than ROW_CHOICE_LIMIT choices of ``arity`` rows."""
    for rel in template.relations.values():
        count = len(rel.tuples) ** arity
        if count > ROW_CHOICE_LIMIT:
            raise BudgetExceeded(
                f"a relation of {len(rel.tuples)} rows needs {count} row choices "
                f"at arity {arity}; the cap is {ROW_CHOICE_LIMIT}"
            )


def preserves_op(op: OpTable, template: FiniteStructure) -> bool:
    """True iff applying op componentwise to any choice of relation rows
    always lands back in the relation."""
    if op.domain_size != template.domain_size:
        raise DomainMismatch(
            f"operation domain {op.domain_size} != template domain {template.domain_size}"
        )
    _check_row_choices(template, op.arity)
    values, d = op.values, op.domain_size
    for rel in template.relations.values():
        for choice in product(rel.sorted_tuples(), repeat=op.arity):
            image = tuple(values[encode_tuple(column, d)] for column in zip(*choice))
            if image not in rel.tuples:
                return False
    return True


def boolean_classify(template: FiniteStructure) -> frozenset[BooleanClass]:
    """Which of the six fixed tables preserve the template; {TRIVIAL} when
    none does."""
    if template.domain_size != 2:
        raise DomainMismatch("boolean classification needs a 2-element domain")
    # Refused before any table is checked, rather than at the first ternary one.
    _check_row_choices(template, max(table.arity for _, table in _CLASS_TABLES))
    found = {cls for cls, table in _CLASS_TABLES if preserves_op(table, template)}
    return frozenset(found) if found else frozenset({BooleanClass.TRIVIAL})


# --- identity systems -------------------------------------------------------


@dataclass(frozen=True)
class IdentitySystem:
    """A named system of height-one identities constraining an operation
    table.  The arity of the table is :func:`find_polymorphism`'s argument;
    a system of fixed arity states it in :meth:`required_arity`."""

    kind: str

    IDEMPOTENT_KIND = "idempotent"
    SIGGERS_KIND = "siggers"
    CYCLIC_KIND = "cyclic"
    WNU_KIND = "wnu"
    MAJORITY_KIND = "majority"
    MINORITY_KIND = "minority"
    SEMILATTICE_KIND = "semilattice"
    # Each kind and its fixed arity, None for any arity (at least 2 for
    # cyclic and wnu), in the order the command line lists the kinds.
    _ARITIES = {IDEMPOTENT_KIND: None, MAJORITY_KIND: 3, MINORITY_KIND: 3,
                SEMILATTICE_KIND: 2, SIGGERS_KIND: 6, CYCLIC_KIND: None, WNU_KIND: None}

    def __post_init__(self):
        if self.kind not in self._ARITIES:
            raise ParameterError(f"unknown identity system {self.kind!r}")

    def required_arity(self) -> Optional[int]:
        return self._ARITIES[self.kind]


#: Every identity system, in the order the command line lists them.
IDENTITIES = tuple(map(IdentitySystem, IdentitySystem._ARITIES))
IDEMPOTENT, MAJORITY, MINORITY, SEMILATTICE, SIGGERS, CYCLIC, WNU = IDENTITIES


class _Cells:
    """Union-find over table cells with optional forced values.  A class's
    root is its smallest cell, and ``forced`` is keyed by roots."""

    def __init__(self, size: int):
        self.parent = list(range(size))
        self.forced: dict[int, int] = {}
        self.conflict = False

    def find(self, i: int) -> int:
        while self.parent[i] != i:
            self.parent[i] = self.parent[self.parent[i]]
            i = self.parent[i]
        return i

    def union(self, i: int, j: int) -> None:
        ri, rj = self.find(i), self.find(j)
        if ri == rj:
            return
        if rj < ri:
            ri, rj = rj, ri
        self.parent[rj] = ri
        if rj in self.forced:
            val = self.forced.pop(rj)
            if self.forced.setdefault(ri, val) != val:
                self.conflict = True

    def force(self, i: int, value: int) -> None:
        r = self.find(i)
        if self.forced.setdefault(r, value) != value:
            self.conflict = True


def _compile_identities(identities: IdentitySystem, arity: int, d: int) -> _Cells:
    cells = _Cells(d ** arity)

    def code(args: tuple[int, ...]) -> int:
        return encode_tuple(args, d)

    kind = identities.kind
    if kind == IdentitySystem.IDEMPOTENT_KIND:
        for x in range(d):
            cells.force(code((x,) * arity), x)
    elif kind in (IdentitySystem.MAJORITY_KIND, IdentitySystem.MINORITY_KIND):
        for x in range(d):
            for y in range(d):
                target = x if kind == IdentitySystem.MAJORITY_KIND else y
                for args in ((x, x, y), (x, y, x), (y, x, x)):
                    cells.force(code(args), target)
    elif kind == IdentitySystem.WNU_KIND:
        for x in range(d):
            for y in range(d):
                first = code(tuple(y if i == 0 else x for i in range(arity)))
                for pos in range(1, arity):
                    cells.union(first, code(tuple(y if i == pos else x for i in range(arity))))
    elif kind == IdentitySystem.CYCLIC_KIND:
        for args in product(range(d), repeat=arity):
            rotated = args[1:] + args[:1]
            cells.union(code(args), code(rotated))
    elif kind == IdentitySystem.SIGGERS_KIND:
        for x in range(d):
            for y in range(d):
                for z in range(d):
                    cells.union(code((x, y, x, z, y, z)), code((y, x, z, x, z, y)))
    elif kind == IdentitySystem.SEMILATTICE_KIND:
        for x in range(d):
            cells.force(code((x, x)), x)
            for y in range(d):
                cells.union(code((x, y)), code((y, x)))
    return cells


def _siggers_from_boolean(template: FiniteStructure) -> Optional[OpTable]:
    """Boolean shortcut: build a six-ary table from the first fixed table
    that preserves the template.  s(a1..a6) = o(a1, a5, a4) for a ternary
    table o, o(o(a1, a5), a4) for a binary one, and the constant for a
    unary one; each satisfies the six-ary condition."""
    classes = boolean_classify(template)
    op = next((op for cls, op in _CLASS_TABLES if cls in classes), None)
    if op is None:
        return None

    def siggers(*a: int) -> int:
        if op.arity == 3:
            return op(a[0], a[4], a[3])
        if op.arity == 2:
            return op(op(a[0], a[4]), a[3])
        return op(a[0])

    return OpTable.from_function(6, 2, siggers)


def satisfies_identities(op: OpTable, identities: IdentitySystem) -> bool:
    """Direct check of the identity system on a concrete table (including the
    associativity part of SEMILATTICE, which is not cell-local)."""
    cells = _compile_identities(identities, op.arity, op.domain_size)
    if cells.conflict:
        return False
    classes: dict[int, int] = {}
    for idx, value in enumerate(op.values):
        root = cells.find(idx)
        if classes.setdefault(root, value) != value:
            return False
        if root in cells.forced and cells.forced[root] != value:
            return False
    if identities.kind == IdentitySystem.SEMILATTICE_KIND:
        d = op.domain_size
        for x in range(d):
            for y in range(d):
                for z in range(d):
                    if op(op(x, y), z) != op(x, op(y, z)):
                        return False
    return True


def find_polymorphism(template: FiniteStructure, identities: IdentitySystem,
                      arity: int) -> Optional[OpTable]:
    """Search for an operation table of the given arity satisfying the
    identity system and preserving every relation: a homomorphism from the
    arity-th power of the template into the template, with the cells glued by
    the identities.  Deterministic: cell classes are filled in ascending order
    of their smallest cell, values ascending, and the first complete table
    found is returned.  Returns None when no table exists."""
    if identities.kind in (IdentitySystem.CYCLIC_KIND, IdentitySystem.WNU_KIND) and arity < 2:
        raise ParameterError(f"{identities.kind} needs arity >= 2, got {arity}")
    if arity < 1:
        raise ParameterError(f"arity must be at least 1, got {arity}")
    required = identities.required_arity()
    if required is not None and arity != required:
        raise ParameterError(
            f"{identities.kind} requires arity {required}, got {arity}"
        )
    d = template.domain_size
    siggers = identities.kind == IdentitySystem.SIGGERS_KIND
    # Before rows ** arity is counted: at a huge arity it is a huge integer.
    if not siggers and (d > SEARCH_DOMAIN_LIMIT or arity > SEARCH_ARITY_LIMIT):
        raise BudgetExceeded(
            f"table search budget is domain <= {SEARCH_DOMAIN_LIMIT}, "
            f"arity <= {SEARCH_ARITY_LIMIT}"
        )
    _check_row_choices(template, arity)
    if siggers:
        # Six-ary tables are out of search budget; the boolean case reduces
        # to the fixed tables.
        if d == 2:
            table = _siggers_from_boolean(template)
            if table is not None and not preserves_op(table, template):
                raise AssertionError("shortcut table must preserve the template")
            return table
        raise BudgetExceeded("six-ary search is only available on a 2-element domain")

    cells = _compile_identities(identities, arity, d)
    if cells.conflict:
        return None
    # Variables are the identity classes of table cells, numbered by their
    # smallest cell; each choice of one row per argument feeds the cells
    # named by the columns of those rows (a tuple of the power relation),
    # and its image must land in the base relation.
    roots = sorted({cells.find(i) for i in range(d ** arity)})
    root_slot = {r: i for i, r in enumerate(roots)}
    slot_of_cell = [root_slot[cells.find(i)] for i in range(d ** arity)]
    constraints = [(frozenset({(val,)}), (root_slot[root],))
                   for root, val in cells.forced.items()]
    for rel in template.relations.values():
        scopes = {tuple(slot_of_cell[encode_tuple(column, d)]
                        for column in zip(*rows))
                  for rows in product(rel.sorted_tuples(), repeat=arity)}
        constraints.extend((rel.tuples, scope) for scope in scopes)
    for slots in _assignments(len(roots), d, constraints):
        table = OpTable(arity, d, tuple(slots[s] for s in slot_of_cell))
        # Associativity is not expressible as cell equalities; validate whole
        # candidate tables when the system demands it.
        if (identities.kind != IdentitySystem.SEMILATTICE_KIND
                or satisfies_identities(table, identities)):
            return table
    return None


# --- boolean solving --------------------------------------------------------

#: Boolean constraints on variable indices: (allowed rows, scope).
_Constraints = Sequence[tuple[frozenset, tuple[int, ...]]]


@lru_cache(maxsize=None)
def _row_masks(rows: frozenset, start: int) -> tuple[int, ...]:
    """Each row as a bit mask of the positions where it leaves ``start``."""
    return tuple(sum(1 << i for i, x in enumerate(row) if x != start) for row in rows)


class _HornEngine:
    """Watch-list Horn fixpoint on boolean ``(rows, indices)`` constraints
    over variables ``0..n-1``, for meet-closed rows (bottom-up, least
    solution) or join-closed rows (top-down, greatest solution).

    Every variable starts at the start value (0 bottom-up, 1 top-down) and
    moves to the other value at most once, when every still-feasible row of
    some constraint has the other value at one of its positions.  Each
    constraint is watched by the variables in its scope and revisited only
    when one of them moves, so a fixpoint costs time linear in the instance
    size (Dowling and Gallier, 1984).  The pin-free fixpoint, ``base``, and
    the variables it moved from the start, ``shifted``, are computed when
    the engine is built.  :meth:`narrow` narrows or drops constraints in
    place; it keeps ``base`` when no constraint lacks the start row and
    ``base`` is the all-start row, which is then the fixpoint again, and
    recomputes it from the start otherwise.  :meth:`solve` moves only the
    variables its pins force, on ``base`` itself, keeps them on a trail,
    reads its answer off the trail and undoes it, so a solve costs what
    its pins touch.  A constraint reads its rows as bit masks of the
    positions off the start value, memoised for the process per row set
    (:func:`_row_masks`), so an engine rebuilt on the same rows computes
    none.

    The answers are checked through one invariant: every constraint holds
    at ``base``.  A constraint with the start row holds at the all-start
    row, so each time ``base`` is computed only the ``lacking`` constraints
    and those watching a variable ``base`` moved are checked; a solve checks
    its pins and the constraints watching a variable it moved, and every
    other constraint sees the values it held at ``base``.  Rows that are
    not closed can fail a check, a solver fault: the solve raises, and once
    a ``base`` has failed, every later solve does.  Every nonempty relation
    of the temporal quotient holds the all-P row, 0: there a bottom-up
    engine has no ``lacking`` constraint, its ``base`` stays all 0 and no
    narrowing recomputes it; only a top-down ``base`` moves.
    """

    def __init__(self, n: int, constraints: _Constraints, top_down: bool):
        self.start = 1 if top_down else 0
        self.constraints = list(constraints)
        self.masks = [_row_masks(rows, self.start) for rows, _ in self.constraints]
        self.watch: list[list[int]] = [[] for _ in range(n)]
        for c, (_, scope) in enumerate(self.constraints):
            for v in dict.fromkeys(scope):
                self.watch[v].append(c)
        # The constraints without the start row: only these force a move
        # from the start.
        self.lacking = {c for c, masks in enumerate(self.masks) if 0 not in masks}
        self.base: Optional[bytearray] = None
        self.shifted: frozenset[int] = frozenset()
        self.faulty = False
        self._fixpoint()

    def narrow(self, changes: Mapping[int, Optional[tuple[frozenset, tuple[int, ...]]]],
               ) -> None:
        """Give each changed constraint its new ``(rows, scope)``, whose
        variables must all lie in its current scope so that the watch lists
        stay valid, or drop it (None).  Then keep the pin-free fixpoint if
        it is the all-start row and no constraint lacks the start row: every
        constraint holds there, and nothing moves from it.  Otherwise
        recompute it from the all-start row."""
        for c, constraint in changes.items():
            if constraint is None:
                # An empty scope always holds and is always stable, so the
                # watch lists may still queue and check it.
                constraint = (frozenset({()}), ())
            self.constraints[c] = constraint
            self.masks[c] = masks = _row_masks(constraint[0], self.start)
            if 0 in masks:
                self.lacking.discard(c)
            else:
                self.lacking.add(c)
        if self.lacking or self.shifted or self.base is None:
            self._fixpoint()

    def _fixpoint(self) -> None:
        """Recompute the pin-free fixpoint every solve starts from, None
        when even that fails, and check the constraints it may break: the
        ``lacking`` ones and those watching a variable it moved.  Every
        other constraint has the start row and reads it at ``base``."""
        base = bytearray([self.start]) * len(self.watch)
        moved: list[int] = []
        if not self._propagate(base, (), list(self.lacking), moved):
            self.base, self.shifted = None, frozenset()
            return
        self.base, self.shifted = base, frozenset(moved)
        check = [*self.lacking, *(c for v in moved for c in self.watch[v])]
        if not self._holds(base, check):
            self.faulty = True

    def _holds(self, bound: bytearray, check: Iterable[int]) -> bool:
        constraints = self.constraints
        for c in check:
            rows, scope = constraints[c]
            if tuple(map(bound.__getitem__, scope)) not in rows:
                return False
        return True

    def _propagate(self, bound: bytearray, frozen, queue: list[int],
                   moved: list[int]) -> bool:
        """Move variables, appending each to ``moved``, until every queued
        constraint is stable; False when a constraint runs out of feasible
        rows or a frozen variable would move."""
        start, moved_to = self.start, 1 - self.start
        constraints, masks, watch = self.constraints, self.masks, self.watch
        while queue:
            c = queue.pop()
            scope = constraints[c][1]
            have = 0
            for i, v in enumerate(scope):
                if bound[v] != start:
                    have |= 1 << i
            forced = -1
            for row in masks[c]:
                if row & have == have:
                    forced &= row
            if forced < 0:
                return False
            new = forced & ~have
            if new:
                for i, v in enumerate(scope):
                    if new >> i & 1 and bound[v] == start:
                        if v in frozen:
                            return False
                        bound[v] = moved_to
                        moved.append(v)
                        queue.extend(watch[v])
        return True

    def solve(self, pins: Mapping[int, int]) -> Optional[frozenset[int]]:
        """The variables set to 1 in the least (greatest) solution with the
        pinned variables fixed to their values, or None.

        The solve moves variables on ``base`` itself, keeps them on a
        trail, ``moved``, and sets them back to the start value before it
        returns, so ``base`` is the same after every solve.  Bottom-up the
        answer is ``shifted`` and the trail: the variables at 1 are those
        the pin-free fixpoint or the pins moved from 0.  Top-down the start
        value is 1, and the ones are the complement of what moved: the
        variables that neither ``base`` nor the pins moved to 0.  They are
        read off the bound before the trail is undone, so the answer is the
        solution itself, at a cost linear in n."""
        if self.faulty:
            raise AssertionError("horn solution violated a constraint")
        bound = self.base
        if bound is None:
            return None
        start = self.start
        frozen = set()
        queue: list[int] = []
        moved: list[int] = []
        try:
            for v, value in pins.items():
                if value == start:
                    if bound[v] != value:
                        return None
                    frozen.add(v)
                elif bound[v] != value:
                    bound[v] = value
                    moved.append(v)
                    queue.extend(self.watch[v])
            if not self._propagate(bound, frozen, queue, moved):
                return None
            # At the fixpoint the meet (join) of each constraint's feasible
            # rows equals the bound on its scope, and closure puts it inside
            # the rows.
            for v in moved:
                if not self._holds(bound, self.watch[v]):
                    raise AssertionError("horn solution violated a constraint")
            if any(bound[v] != value for v, value in pins.items()):
                raise AssertionError("horn solution violated a pin")
            if start:
                return frozenset(compress(range(len(bound)), bound))
            return self.shifted.union(moved)
        finally:
            for v in moved:
                bound[v] = start


def _majority_solve(n: int, constraints: _Constraints) -> Optional[list[int]]:
    """Greedy extension of the (2,3)-consistent binary projections.  Exact
    for majority-closed constraints, which their binary projections
    determine."""
    relations: dict[tuple[int, frozenset], str] = {}
    projected = []
    for rows, scope in constraints:
        k = len(scope)
        pairs = [(i, j) for i in range(k) for j in range(i + 1, k)] if k > 2 else [tuple(range(k))]
        for positions in pairs:
            rel = (len(positions), frozenset(tuple(row[p] for p in positions) for row in rows))
            projected.append((relations.setdefault(rel, f"R{len(relations)}"),
                              tuple(scope[p] for p in positions)))
    template = FiniteStructure(2, {name: Relation(*rel) for rel, name in relations.items()})
    # Variables are their indices, so subset keys are ascending index tuples.
    state = establish_kl(Instance(tuple(range(n)), tuple(projected)), template, 2, 3)
    if state is EMPTY_DERIVED:
        return None
    values: list[int] = []
    for v in range(n):
        value = next((x for x in (0, 1) if (x,) in state.allowed[(v,)]
                      and all((y, x) in state.allowed[(u, v)] for u, y in enumerate(values))),
                     None)
        if value is None:
            return None
        values.append(value)
    return values


def _gf2_reduce(system: dict[int, tuple[int, int]], mask: int, rhs: int) -> bool:
    """Reduce the GF(2) equation ``mask . x = rhs``, bit v of ``mask``
    standing for variable v, into ``system`` in place.  ``system`` maps each
    pivot, the lowest set bit of its equation, to ``(mask, rhs)``, and no
    other equation has that bit: reduced row-echelon form in ascending
    variable order, which is unique.  False when the equation contradicts
    the system."""
    for pivot, (row, value) in system.items():
        if mask >> pivot & 1:
            mask ^= row
            rhs ^= value
    if not mask:
        return not rhs
    pivot = (mask & -mask).bit_length() - 1
    for p, (row, value) in system.items():
        if row >> pivot & 1:
            system[p] = (row ^ mask, rhs ^ value)
    system[pivot] = (mask, rhs)
    return True


def _gf2_span(masks: Sequence[int]) -> dict[int, tuple[int, int]]:
    """The differences ``mask ^ masks[0]`` reduced into one system, in
    ``_gf2_reduce``'s form: the span of the differences, whose rank is the
    number of pivots.  The masks lie in the coset ``masks[0] ^ span``, so
    they fill it exactly when, distinct, they number 2 ** rank."""
    span: dict[int, tuple[int, int]] = {}
    for mask in masks:
        _gf2_reduce(span, mask ^ masks[0], 0)
    return span


def _affine_equations(rows: frozenset) -> Optional[list[tuple[int, int]]]:
    """Equations ``(mask, rhs)`` on positions that define the affine hull
    of a row set: the row differences reduced, then one equation per
    position that is not a pivot.  None for the empty set."""
    if not rows:
        return None
    masks = [sum(x << i for i, x in enumerate(row)) for row in rows]
    span = _gf2_span(masks)
    equations = []
    for c in range(len(next(iter(rows)))):
        if c not in span:
            mask = 1 << c | sum(1 << p for p, (row, _) in span.items() if row >> c & 1)
            equations.append((mask, bin(mask & masks[0]).count("1") & 1))
    return equations


def _affine_system(constraints: _Constraints) -> Optional[dict[int, tuple[int, int]]]:
    """The pin-free reduced system of xor-closed constraints: the equations
    of each distinct row set derived once, folded onto each scope, where a
    repeated variable cancels, and reduced together.  None when the system
    is inconsistent."""
    equations_of = {rows: _affine_equations(rows)
                    for rows in dict.fromkeys(rows for rows, _ in constraints)}
    system: dict[int, tuple[int, int]] = {}
    for rows, scope in constraints:
        if equations_of[rows] is None:
            return None
        for mask, rhs in equations_of[rows]:
            folded = 0
            for i, v in enumerate(scope):
                folded ^= (mask >> i & 1) << v
            if not _gf2_reduce(system, folded, rhs):
                return None
    return system


def _affine_pinned(n: int, system: Optional[dict[int, tuple[int, int]]],
                   pins: Mapping[int, int]) -> Optional[list[int]]:
    """Reduce one equation per pin into a copy of the pin-free system and
    read the solution: the rhs at each pivot, 0 everywhere else."""
    if system is None:
        return None
    system = dict(system)
    for v, value in pins.items():
        if not _gf2_reduce(system, 1 << v, value):
            return None
    values = [0] * n
    for pivot, (_, rhs) in system.items():
        values[pivot] = rhs
    return values


#: The row set of a pin to 0 and to 1, as a unary constraint.
_PIN_ROWS = (frozenset({(0,)}), frozenset({(1,)}))


@lru_cache(maxsize=None)
def _solver_class(classes: frozenset[BooleanClass]) -> BooleanClass:
    """The class whose algorithm :func:`_boolean_solver` runs: the first of
    ``classes`` in table order, TRIVIAL when none is given.  Memoised per
    class set, which recurs at every level of a master solve."""
    return next((c for c, _ in _CLASS_TABLES if c in classes), BooleanClass.TRIVIAL)


#: A solver's answer to a pin set: the variables set to 1, or None.
_Solve = Callable[[Mapping[int, int]], Optional[frozenset[int]]]


def _boolean_solver(n: int, constraints: _Constraints,
                    classes: Iterable[BooleanClass]) -> _Solve:
    """The solver of boolean constraints on variables ``0..n-1`` for the
    first of ``classes`` in table order; backtracking search when none is
    given.  The returned ``solve(pins)`` fixes each pinned variable to its
    value and returns the variables that a solution sets to 1, or None:
    one answer for every algorithm, so that a caller reads a Horn engine's
    trail and a full solution vector alike.

    This and :func:`_narrow_solver` are the only code that maps a class to
    its algorithm.  Both Horn classes answer from one :class:`_HornEngine`.
    The affine solver builds one reduced GF(2) system here
    (:func:`_affine_system`), and a solve reduces only its pins
    (:func:`_affine_pinned`).  Majority and search get the pins as unary
    constraints.  Every answer is checked against every constraint and
    pin, by the Horn engine through its pin-free fixpoint: a constant
    answer that fails means no constant solution, any other that fails is
    a solver fault.
    """
    cls = _solver_class(frozenset(classes))
    if cls in (BooleanClass.HORN_AND, BooleanClass.DUAL_HORN_OR):
        return _HornEngine(n, constraints, top_down=cls is BooleanClass.DUAL_HORN_OR).solve
    if cls is BooleanClass.MINORITY_AFFINE:
        system = _affine_system(constraints)

    def solve(pins: Mapping[int, int]) -> Optional[frozenset[int]]:
        pinned = [*constraints, *((_PIN_ROWS[value], (v,)) for v, value in pins.items())]
        if cls is BooleanClass.MAJORITY_2SAT:
            values = _majority_solve(n, pinned)
        elif cls is BooleanClass.MINORITY_AFFINE:
            values = _affine_pinned(n, system, pins)
        elif cls is BooleanClass.TRIVIAL:
            values = next(_assignments(n, 2, pinned), None)
        else:
            values = [0 if cls is BooleanClass.CONSTANT0 else 1] * n
        if values is None:
            return None
        if all(tuple(values[v] for v in scope) in tuples for tuples, scope in pinned):
            return frozenset(compress(range(n), values))
        if cls in (BooleanClass.CONSTANT0, BooleanClass.CONSTANT1):
            return None
        raise AssertionError(f"{cls.value} solution violated a constraint")

    return solve


def _narrow_solver(solve: _Solve, classes: Iterable[BooleanClass],
                   changes: Mapping[int, Optional[tuple[frozenset, tuple[int, ...]]]],
                   ) -> bool:
    """Narrow a solver that :func:`_boolean_solver` returned in place, as
    :meth:`_HornEngine.narrow` does, when it is a Horn engine and
    ``classes`` pick its algorithm.  ``changes`` are keyed by constraint
    position.  False, with the solver unchanged, when a fresh solver must
    be built."""
    engine = getattr(solve, "__self__", None)
    cls = _solver_class(frozenset(classes))
    if (not isinstance(engine, _HornEngine)
            or cls not in (BooleanClass.HORN_AND, BooleanClass.DUAL_HORN_OR)
            or engine.start != (cls is BooleanClass.DUAL_HORN_OR)):
        return False
    engine.narrow(changes)
    return True


def schaefer_solve(instance: Instance, template: FiniteStructure,
                   cls: BooleanClass) -> Optional[dict[str, int]]:
    """Solve a boolean instance with the algorithm matching a detected
    class.  Raises ClassMismatch unless cls is in boolean_classify(template)
    and is not TRIVIAL.  Returns a satisfying assignment or None."""
    check_signature(instance, template)
    if cls not in boolean_classify(template):
        raise ClassMismatch(f"{cls.value} is not a class of this template")
    if cls is BooleanClass.TRIVIAL:
        raise ClassMismatch(f"{cls.value} is not solvable")
    index = {v: i for i, v in enumerate(instance.variables)}
    constraints = [(template.relations[name].tuples, tuple(index[v] for v in scope))
                   for name, scope in instance.constraints]
    ones = _boolean_solver(len(index), constraints, {cls})({})
    return None if ones is None else {v: int(i in ones) for v, i in index.items()}
