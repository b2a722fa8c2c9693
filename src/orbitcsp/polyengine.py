"""Polymorphism tables, identity-driven search, and boolean dispatch solving.

The two-element analysis rests on four fixed tables: conjunction,
disjunction, ternary majority, and ternary minority (xor of three).  A
boolean template is equationally non-trivial exactly when it is preserved by
one of those four or by a constant map; testing the fixed tables is therefore
both the classifier and the solver dispatch.  Identity-driven table search
(cyclic, weak near-unanimity, ...) is available for small non-boolean
domains; it compiles the identities and the template's power into
constraints and runs the backtracker in ``relstruct``, which owns all
finite-domain search.  The six-ary condition is answered on booleans by
delegation to the fixed tables rather than by searching a 64-cell table.

Both Horn classes are solved by one engine, ``_HornEngine``: a watch-list
fixpoint on ``(rows, variable indices)`` constraints that computes the
pin-free fixpoint once and answers each set of pinned variables from it,
in time linear in the instance size.  ``schaefer_solve`` reaches it through
``_horn_solve``; ``temporal`` builds one per quotient level and solves it
under many pin sets.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import product
from typing import Iterable, Mapping, Optional, Sequence

from .consistency import EMPTY_DERIVED, establish_kl
from .errors import BudgetExceeded, ClassMismatch, DomainMismatch, ParameterError
from .relstruct import (
    FiniteStructure,
    Instance,
    Relation,
    _assignments,
    check_signature,
    power_structure,
)

SEARCH_DOMAIN_LIMIT = 4
SEARCH_ARITY_LIMIT = 4


@dataclass(frozen=True)
class OpTable:
    """A finitary operation on {0..domain_size-1}, stored as a flat value
    vector indexed by the row-major code of the argument tuple."""

    arity: int
    domain_size: int
    values: tuple[int, ...]

    def __post_init__(self):
        if len(self.values) != self.domain_size ** self.arity:
            raise ValueError("value vector length does not match arity/domain")
        if any(not (0 <= v < self.domain_size) for v in self.values):
            raise ValueError("operation value leaves the domain")

    def index(self, args: tuple[int, ...]) -> int:
        code = 0
        for a in args:
            code = code * self.domain_size + a
        return code

    def __call__(self, *args: int) -> int:
        if len(args) != self.arity:
            raise ParameterError(f"expected {self.arity} arguments, got {len(args)}")
        return self.values[self.index(args)]

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


def preserves_op(op: OpTable, template: FiniteStructure) -> bool:
    """True iff applying op componentwise to any choice of relation rows
    always lands back in the relation."""
    if op.domain_size != template.domain_size:
        raise DomainMismatch(
            f"operation domain {op.domain_size} != template domain {template.domain_size}"
        )
    for rel in template.relations.values():
        rows = rel.sorted_tuples()
        for choice in product(rows, repeat=op.arity):
            image = tuple(op(*(row[j] for row in choice)) for j in range(rel.arity))
            if image not in rel.tuples:
                return False
    return True


def boolean_classify(template: FiniteStructure) -> frozenset[BooleanClass]:
    """Which of the six fixed tables preserve the template; {TRIVIAL} when
    none does."""
    if template.domain_size != 2:
        raise DomainMismatch("boolean classification needs a 2-element domain")
    found = {cls for cls, table in _CLASS_TABLES if preserves_op(table, template)}
    return frozenset(found) if found else frozenset({BooleanClass.TRIVIAL})


# --- identity systems -------------------------------------------------------


@dataclass(frozen=True)
class IdentitySystem:
    """A named system of height-one identities constraining an operation
    table.  ``param`` is the arity parameter for the parametrized families."""

    kind: str
    param: Optional[int] = None

    IDEMPOTENT_KIND = "idempotent"
    SIGGERS_KIND = "siggers"
    CYCLIC_KIND = "cyclic"
    WNU_KIND = "wnu"
    MAJORITY_KIND = "majority"
    MINORITY_KIND = "minority"
    SEMILATTICE_KIND = "semilattice"

    def __post_init__(self):
        if self.kind in (self.CYCLIC_KIND, self.WNU_KIND):
            if self.param is None or self.param < 2:
                raise ParameterError(f"{self.kind} needs a parameter >= 2")

    def required_arity(self) -> Optional[int]:
        return {
            self.SIGGERS_KIND: 6,
            self.MAJORITY_KIND: 3,
            self.MINORITY_KIND: 3,
            self.SEMILATTICE_KIND: 2,
            self.CYCLIC_KIND: self.param,
            self.WNU_KIND: self.param,
            self.IDEMPOTENT_KIND: None,
        }[self.kind]


IDEMPOTENT = IdentitySystem(IdentitySystem.IDEMPOTENT_KIND)
SIGGERS = IdentitySystem(IdentitySystem.SIGGERS_KIND)
MAJORITY = IdentitySystem(IdentitySystem.MAJORITY_KIND)
MINORITY = IdentitySystem(IdentitySystem.MINORITY_KIND)
SEMILATTICE = IdentitySystem(IdentitySystem.SEMILATTICE_KIND)


def cyclic(n: int) -> IdentitySystem:
    return IdentitySystem(IdentitySystem.CYCLIC_KIND, n)


def wnu(m: int) -> IdentitySystem:
    return IdentitySystem(IdentitySystem.WNU_KIND, m)


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
        c = 0
        for a in args:
            c = c * d + a
        return c

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
    else:
        raise ParameterError(f"unknown identity system {kind!r}")
    return cells


def _siggers_from_boolean(template: FiniteStructure) -> Optional[OpTable]:
    """Boolean shortcut: build a six-ary table from whichever fixed table
    preserves the template.  s(a1..a6) = o(a1, a5, a4) turns the fixed
    symmetric ternary tables (and, via repetition, the binary ones) into a
    table satisfying the six-ary condition; constants work directly."""
    classes = boolean_classify(template)
    builders = [
        (BooleanClass.HORN_AND, lambda a: AND2(AND2(a[0], a[4]), a[3])),
        (BooleanClass.DUAL_HORN_OR, lambda a: OR2(OR2(a[0], a[4]), a[3])),
        (BooleanClass.MAJORITY_2SAT, lambda a: MAJ3(a[0], a[4], a[3])),
        (BooleanClass.MINORITY_AFFINE, lambda a: XOR3(a[0], a[4], a[3])),
        (BooleanClass.CONSTANT0, lambda a: 0),
        (BooleanClass.CONSTANT1, lambda a: 1),
    ]
    for cls, fn in builders:
        if cls in classes:
            return OpTable.from_function(6, 2, lambda *a, fn=fn: fn(a))
    return None


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
    required = identities.required_arity()
    if required is not None and arity != required:
        raise ParameterError(
            f"{identities.kind} requires arity {required}, got {arity}"
        )
    d = template.domain_size
    if identities.kind == IdentitySystem.SIGGERS_KIND:
        # Six-ary tables are out of search budget; the boolean case reduces
        # to the fixed tables.
        if d == 2:
            table = _siggers_from_boolean(template)
            if table is not None and not preserves_op(table, template):
                raise AssertionError("shortcut table must preserve the template")
            return table
        raise BudgetExceeded("six-ary search is only available on a 2-element domain")
    if d > SEARCH_DOMAIN_LIMIT or arity > SEARCH_ARITY_LIMIT:
        raise BudgetExceeded(
            f"table search budget is domain <= {SEARCH_DOMAIN_LIMIT}, "
            f"arity <= {SEARCH_ARITY_LIMIT}"
        )

    cells = _compile_identities(identities, arity, d)
    if cells.conflict:
        return None
    # Variables are the identity classes of table cells, numbered by their
    # smallest cell; each tuple of a power relation names the cells one
    # choice of rows feeds, and its image must land in the base relation.
    roots = sorted({cells.find(i) for i in range(d ** arity)})
    root_slot = {r: i for i, r in enumerate(roots)}
    slot_of_cell = [root_slot[cells.find(i)] for i in range(d ** arity)]
    constraints = [(frozenset({(val,)}), (root_slot[root],))
                   for root, val in cells.forced.items()]
    power = power_structure(template, arity)
    for name, rel in template.relations.items():
        scopes = {tuple(slot_of_cell[c] for c in cell_codes)
                  for cell_codes in power.relations[name].tuples}
        constraints.extend((rel.tuples, scope) for scope in scopes)
    for slots in _assignments(len(roots), d, constraints):
        table = OpTable(arity, d, tuple(slots[s] for s in slot_of_cell))
        # Associativity is not expressible as cell equalities; validate whole
        # candidate tables when the system demands it.
        if (identities.kind != IdentitySystem.SEMILATTICE_KIND
                or satisfies_identities(table, identities)):
            return table
    return None


# --- dispatch solving -------------------------------------------------------


class _HornEngine:
    """Watch-list Horn fixpoint on boolean ``(rows, indices)`` constraints
    over variables ``0..n-1``, for meet-closed rows (bottom-up, least
    solution) or join-closed rows (top-down, greatest solution).

    Every variable starts at the start value (0 bottom-up, 1 top-down) and
    moves to the other value at most once, when every still-feasible row of
    some constraint has the other value at one of its positions.  Each
    constraint is watched by the variables in its scope and revisited only
    when one of them moves, so a fixpoint costs time linear in the instance
    size (Dowling and Gallier, 1984).  The pin-free fixpoint is computed
    once, when the engine is built; :meth:`solve` starts from it and queues
    only the constraints of the variables its pins move.
    """

    def __init__(self, n: int,
                 constraints: Sequence[tuple[frozenset, tuple[int, ...]]],
                 top_down: bool):
        start = 1 if top_down else 0
        self.start = start
        self.constraints = constraints
        # Per constraint: each row as a bit mask of the positions where it
        # leaves the start value, computed once per distinct row set.
        masks_of: dict[frozenset, tuple[int, ...]] = {}
        self.masks = []
        for rows, _ in constraints:
            masks = masks_of.get(rows)
            if masks is None:
                masks = masks_of[rows] = tuple(
                    sum(1 << i for i, x in enumerate(row) if x != start)
                    for row in rows)
            self.masks.append(masks)
        self.watch: list[list[int]] = [[] for _ in range(n)]
        for c, (_, scope) in enumerate(constraints):
            for v in dict.fromkeys(scope):
                self.watch[v].append(c)
        # Only constraints without the start row force a move from the start.
        queue = [c for c, masks in enumerate(self.masks) if 0 not in masks]
        self.base: Optional[bytearray] = bytearray([start]) * n
        if not self._propagate(self.base, (), queue):
            self.base = None

    def _propagate(self, bound: bytearray, frozen, queue: list[int]) -> bool:
        """Move variables until every queued constraint is stable; False
        when a constraint runs out of feasible rows or a frozen variable
        would move."""
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
                        queue.extend(watch[v])
        return True

    def solve(self, pins: Mapping[int, int]) -> Optional[list[int]]:
        """The least (greatest) solution with the pinned variables fixed to
        their values, or None."""
        if self.base is None:
            return None
        bound = bytearray(self.base)
        frozen = set()
        queue: list[int] = []
        for v, value in pins.items():
            if value == self.start:
                if bound[v] != value:
                    return None
                frozen.add(v)
            elif bound[v] != value:
                bound[v] = value
                queue.extend(self.watch[v])
        if not self._propagate(bound, frozen, queue):
            return None
        # At the fixpoint the meet (join) of each constraint's feasible rows
        # equals the bound on its scope, and closure puts it inside the rows.
        for rows, scope in self.constraints:
            if tuple(bound[v] for v in scope) not in rows:
                return None
        if any(bound[v] != value for v, value in pins.items()):
            return None
        return list(bound)


def _horn_solve(instance: Instance, template: FiniteStructure,
                top_down: bool) -> Optional[dict[str, int]]:
    """Least (or, for the dual, greatest) solution of a meet-closed
    (join-closed) instance, through :class:`_HornEngine` with no pins."""
    index = {v: i for i, v in enumerate(instance.variables)}
    constraints = [(template.relations[name].tuples,
                    tuple(index[v] for v in scope))
                   for name, scope in instance.constraints]
    values = _HornEngine(len(index), constraints, top_down).solve({})
    return None if values is None else dict(zip(instance.variables, values))


def _binary_projections(instance: Instance, template: FiniteStructure):
    """Rewrite constraints of arity >= 3 into their binary projections.
    Exact for templates with a majority polymorphism (every relation is then
    determined by its binary projections)."""
    relations: dict[str, Relation] = {}
    constraints: list[tuple[str, tuple[str, ...]]] = []
    for name, scope in instance.constraints:
        rel = template.relations[name]
        if rel.arity <= 2:
            relations.setdefault(name, rel)
            constraints.append((name, scope))
            continue
        for i in range(rel.arity):
            for j in range(i + 1, rel.arity):
                pname = f"{name}@{i}.{j}"
                if pname not in relations:
                    proj = frozenset((t[i], t[j]) for t in rel.tuples)
                    relations[pname] = Relation(2, proj)
                constraints.append((pname, (scope[i], scope[j])))
    return (Instance(instance.variables, tuple(constraints)),
            FiniteStructure(template.domain_size, relations))


def _majority_solve(instance: Instance, template: FiniteStructure) -> Optional[dict[str, int]]:
    binst, btmpl = _binary_projections(instance, template)
    state = establish_kl(binst, btmpl, 2, 3)
    if state is EMPTY_DERIVED:
        return None
    order = {v: i for i, v in enumerate(instance.variables)}
    assignment: dict[str, int] = {}
    for v in instance.variables:
        picked = None
        for value in range(template.domain_size):
            if (value,) not in state.allowed[(v,)]:
                continue
            ok = True
            for u, uval in assignment.items():
                # Subset keys follow variable declaration order.
                if order[u] < order[v]:
                    pair, pattern = (u, v), (uval, value)
                else:
                    pair, pattern = (v, u), (value, uval)
                if pattern not in state.allowed[pair]:
                    ok = False
                    break
            if ok:
                picked = value
                break
        if picked is None:
            return None
        assignment[v] = picked
    for name, scope in instance.constraints:
        if tuple(assignment[v] for v in scope) not in template.relations[name].tuples:
            raise AssertionError("pairwise-consistent extension violated a constraint")
    return assignment


def _affine_rows(rel: Relation) -> Optional[list[tuple[tuple[int, ...], int]]]:
    """Defining linear equations (coeffs, rhs) over GF(2) of a xor-closed
    relation; None for the empty relation."""
    rows = rel.sorted_tuples()
    if not rows:
        return None
    k = rel.arity
    t0 = rows[0]
    diffs = [tuple(a ^ b for a, b in zip(t, t0)) for t in rows[1:]]
    # Row-reduce the difference vectors to find pivot columns.
    basis: list[tuple[int, ...]] = []
    pivots: list[int] = []
    for vec in diffs:
        v = list(vec)
        for b, p in zip(basis, pivots):
            if v[p]:
                v = [x ^ y for x, y in zip(v, b)]
        for p in range(k):
            if v[p]:
                basis.append(tuple(v))
                pivots.append(p)
                break
    free_cols = [c for c in range(k) if c not in pivots]
    # Null space basis: one equation per free column.
    equations = []
    for c in free_cols:
        coeff = [0] * k
        coeff[c] = 1
        # Back-substitute pivots so that coeff is orthogonal to every basis vector.
        for b, p in zip(reversed(basis), reversed(pivots)):
            if sum(coeff[j] & b[j] for j in range(k)) % 2:
                coeff[p] ^= 1
        rhs = sum(coeff[j] & t0[j] for j in range(k)) % 2
        equations.append((tuple(coeff), rhs))
    return equations


def _gf2_solve(n_vars: int, rows: list[tuple[list[int], int]]) -> Optional[list[int]]:
    """Gaussian elimination over GF(2); free variables default to 0."""
    matrix = [(list(coeffs), rhs) for coeffs, rhs in rows]
    pivot_of_col: dict[int, int] = {}
    row_at = 0
    for col in range(n_vars):
        pivot = None
        for r in range(row_at, len(matrix)):
            if matrix[r][0][col]:
                pivot = r
                break
        if pivot is None:
            continue
        matrix[row_at], matrix[pivot] = matrix[pivot], matrix[row_at]
        prow, prhs = matrix[row_at]
        for r in range(len(matrix)):
            if r != row_at and matrix[r][0][col]:
                coeffs, rhs = matrix[r]
                matrix[r] = ([a ^ b for a, b in zip(coeffs, prow)], rhs ^ prhs)
        pivot_of_col[col] = row_at
        row_at += 1
    for coeffs, rhs in matrix:
        if rhs and not any(coeffs):
            return None
    solution = [0] * n_vars
    for col, r in pivot_of_col.items():
        coeffs, rhs = matrix[r]
        # All other columns of a reduced pivot row are free (set to 0).
        solution[col] = rhs
    return solution


def _affine_solve(instance: Instance, template: FiniteStructure) -> Optional[dict[str, int]]:
    variables = instance.variables
    index = {v: i for i, v in enumerate(variables)}
    rows: list[tuple[list[int], int]] = []
    for name, scope in instance.constraints:
        equations = _affine_rows(template.relations[name])
        if equations is None:
            return None
        for coeffs, rhs in equations:
            folded = [0] * len(variables)
            for pos, v in enumerate(scope):
                folded[index[v]] ^= coeffs[pos]
            rows.append((folded, rhs))
    solution = _gf2_solve(len(variables), rows)
    if solution is None:
        return None
    assignment = {v: solution[index[v]] for v in variables}
    for name, scope in instance.constraints:
        if tuple(assignment[v] for v in scope) not in template.relations[name].tuples:
            raise AssertionError("affine solution violated a source relation")
    return assignment


def _constant_solve(instance: Instance, template: FiniteStructure,
                    value: int) -> Optional[dict[str, int]]:
    assignment = {v: value for v in instance.variables}
    for name, scope in instance.constraints:
        if tuple(assignment[v] for v in scope) not in template.relations[name].tuples:
            return None
    return assignment


def schaefer_solve(instance: Instance, template: FiniteStructure,
                   cls: BooleanClass) -> Optional[dict[str, int]]:
    """Solve a boolean instance with the algorithm matching a detected
    class.  Raises ClassMismatch unless cls is in boolean_classify(template).
    Returns a satisfying assignment or None."""
    check_signature(instance, template)
    if cls not in boolean_classify(template):
        raise ClassMismatch(f"{cls.value} is not a class of this template")
    return _dispatch(instance, template, cls)


def _dispatch(instance: Instance, template: FiniteStructure,
              cls: BooleanClass) -> Optional[dict[str, int]]:
    """The solver for cls, run without checking the signature or the class:
    the caller vouches for both (``temporal`` classifies its quotients once
    and caches the class set)."""
    if cls == BooleanClass.HORN_AND:
        return _horn_solve(instance, template, top_down=False)
    if cls == BooleanClass.DUAL_HORN_OR:
        return _horn_solve(instance, template, top_down=True)
    if cls == BooleanClass.MAJORITY_2SAT:
        return _majority_solve(instance, template)
    if cls == BooleanClass.MINORITY_AFFINE:
        return _affine_solve(instance, template)
    if cls == BooleanClass.CONSTANT0:
        return _constant_solve(instance, template, 0)
    if cls == BooleanClass.CONSTANT1:
        return _constant_solve(instance, template, 1)
    raise ClassMismatch(f"{cls.value} is not solvable")
