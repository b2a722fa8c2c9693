"""Independent brute-force reference implementations used by the tests.

Everything here is deliberately naive: exhaustive enumeration, concrete
rational arithmetic, direct definitions.  The point is to have a second
route to every answer the library computes cleverly.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import comb
from typing import Optional, Sequence

from orbitcsp.cli import _EDGE_ITEM, _format_homog_type, _parse_position
from orbitcsp.errors import (
    ArityMismatch,
    BudgetExceeded,
    DomainMismatch,
    MalformedPattern,
    OrbitCspError,
    ParseError,
    UnknownVariable,
)
from orbitcsp.homog import Label, LabeledType, PairBehavior, Shape, _pair_index
from orbitcsp.relstruct import FiniteStructure, Instance, Relation, encode_tuple
from orbitcsp.temporal import (
    P_VALUE,
    Z_VALUE,
    TemporalRelation,
    TemporalTemplate,
    _constraint_list,
    _Quotient,
    _solve_afin,
)


class NotFree(OrbitCspError):
    """A set claimed to be free fails the free-set definition."""


def exhaustive_hom(instance: Instance, template: FiniteStructure) -> Optional[dict[str, int]]:
    """First satisfying assignment under full enumeration (variables in
    declaration order, values ascending), or None."""
    variables = instance.variables
    for combo in product(range(template.domain_size), repeat=len(variables)):
        assignment = dict(zip(variables, combo))
        ok = True
        for name, scope in instance.constraints:
            if tuple(assignment[v] for v in scope) not in template.relations[name].tuples:
                ok = False
                break
        if ok:
            return assignment
    return None


def decode_tuple(code: int, domain_size: int, length: int) -> tuple[int, ...]:
    """The inverse of :func:`orbitcsp.relstruct.encode_tuple`: the digits of
    ``code`` in base ``domain_size``, most significant first."""
    out = []
    for _ in range(length):
        out.append(code % domain_size)
        code //= domain_size
    return tuple(reversed(out))


def all_op_tables(domain_size: int, arity: int):
    """Every operation table of the given shape (generator)."""
    from orbitcsp.polyengine import OpTable

    cells = domain_size ** arity
    for values in product(range(domain_size), repeat=cells):
        yield OpTable(arity, domain_size, values)


# --- concrete rational evaluation of the temporal operations ----------------
#
# The binary temporal operations are defined up to order isomorphism, so a
# "value" is represented by a sortable key rather than a rational number:
# keys compare equal exactly when the corresponding outputs are equal, and
# their order matches the output order.  A sign in {-1, 0, 1} accompanies
# each key where the operation pins one down.


def pp_key(x: Fraction, y: Fraction):
    # Low group: value is x itself (x <= 0).  High group: an increasing image
    # of y, always positive.
    if x <= 0:
        return (0, x, Fraction(0))
    return (1, y, Fraction(0))


def pp_sign(x: Fraction, y: Fraction) -> int:
    if x <= 0:
        return -1 if x < 0 else 0
    return 1


def ll_key(x: Fraction, y: Fraction):
    if x <= 0:
        return (0, x, y)
    return (1, y, x)


def ll_sign(x: Fraction, y: Fraction) -> int:
    if x < 0:
        return -1
    if x == 0:
        return -1 if y < 0 else (0 if y == 0 else 1)
    return 1


BASE_KEYS = {"PP": (pp_key, pp_sign), "LL": (ll_key, ll_sign)}


def reference_apply(op_name: str, a: Sequence[Fraction], b: Sequence[Fraction]):
    """Evaluate a binary temporal operation coordinatewise on concrete
    rationals; return (rank_vector, sign_vector or None).

    Dual operations negate inputs, evaluate the base operation, and negate
    the result (reversing the comparison order and flipping signs).
    """
    dual = op_name.startswith("DUAL_")
    base = op_name[5:] if dual else op_name
    key_fn, sign_fn = BASE_KEYS[base]
    if dual:
        xs = [-v for v in a]
        ys = [-v for v in b]
    else:
        xs, ys = list(a), list(b)
    keys = [key_fn(x, y) for x, y in zip(xs, ys)]
    distinct = sorted(set(keys), reverse=dual)
    ranks = tuple(distinct.index(k) for k in keys)
    if sign_fn is None:
        return ranks, None
    signs = [sign_fn(x, y) for x, y in zip(xs, ys)]
    if dual:
        signs = [-s for s in signs]
    return ranks, tuple(signs)


def weak_order_counts(limit: int) -> list[int]:
    """Number of weak orders on n labeled points, via the classic recurrence
    a(n) = sum_j C(n,j) a(n-j)."""
    counts = [1]
    for n in range(1, limit + 1):
        counts.append(sum(comb(n, j) * counts[n - j] for j in range(1, n + 1)))
    return counts


def stirling2(n: int, m: int) -> int:
    """Stirling numbers of the second kind via the standard recurrence."""
    if n == 0:
        return 1 if m == 0 else 0
    if m == 0:
        return 0
    return m * stirling2(n - 1, m) + stirling2(n - 1, m - 1)


def labeled_type_count(k: int, alphabet: int = 2) -> int:
    """Number of complete k-types over a binary language with ``alphabet``
    edge labels: partitions into m blocks times labelings of block pairs."""
    return sum(
        stirling2(k, m) * alphabet ** (m * (m - 1) // 2) for m in range(1, k + 1)
    )


def reference_establish_kl(instance, template, k=2, l=3):
    """The object-based (k,l)-consistency fixpoint, kept as a differential
    reference for :func:`orbitcsp.consistency.establish_kl`: every superset's
    patterns are pattern objects, and every projection calls the space's
    ``project``."""
    from orbitcsp.consistency import (
        EMPTY_DERIVED,
        ConsistencyState,
        FinitePatterns,
    )
    from orbitcsp.errors import BudgetExceeded, ParameterError
    from orbitcsp.relstruct import check_signature

    if k < 1 or l < k:
        raise ParameterError(f"need 1 <= k <= l, got ({k}, {l})")
    space = FinitePatterns(template) if isinstance(template, FiniteStructure) else template
    check_signature(instance, space.template)

    variables = instance.variables
    n = len(variables)
    k_eff = min(k, n)
    l_eff = min(l, n)
    # Largest arity first, so that an over-budget (k,l) fails before any work.
    try:
        by_arity = {m: space.patterns(m) for m in range(l_eff, 0, -1)}
    except BudgetExceeded as exc:
        raise BudgetExceeded(
            f"(k,l) = ({k},{l}) needs patterns of arity {l_eff}: {exc}"
        ) from exc

    # Per superset L, in size-then-lexicographic order: its patterns that
    # satisfy every constraint inside L, and the positions in L of each of
    # its at-most-k subsets.  For |L| <= k the filtered list seeds allowed[L].
    project = space.project
    allowed: dict[tuple[str, ...], set] = {}
    sweeps = []
    for size in range(1, l_eff + 1):
        for L in combinations(variables, size):
            at = {v: i for i, v in enumerate(L)}
            inside = [(tuple(at[v] for v in scope), space.members(name))
                      for name, scope in instance.constraints
                      if all(v in at for v in scope)]
            candidates = [p for p in by_arity[size]
                          if all(project(p, pos) in rel for pos, rel in inside)]
            if size <= k_eff:
                if not candidates:
                    return EMPTY_DERIVED
                allowed[L] = set(candidates)
            subs = [(tuple(L[i] for i in pos), pos)
                    for m in range(1, min(size, k_eff) + 1)
                    for pos in combinations(range(size), m)]
            sweeps.append((candidates, subs))

    changed = True
    while changed:
        changed = False
        for candidates, subs in sweeps:
            viable = [p for p in candidates
                      if all(project(p, pos) in allowed[S] for S, pos in subs)]
            for S, pos in subs:
                projected = {project(p, pos) for p in viable}
                if projected != allowed[S]:
                    # Each viable pattern projects into allowed[S], so this
                    # is a strict shrink.
                    allowed[S] = projected
                    changed = True
                    if not projected:
                        return EMPTY_DERIVED
    return ConsistencyState(k, l, variables, allowed)


def reference_initial_masks(instance, space, k=2, l=3):
    """Each superset's candidate mask and each subset's allowed mask before
    the (k,l) fixpoint runs, found superset by superset, as the kernel did
    before it admitted each constraint only at the supersets that read its
    support.  Supersets of at most l variables come in size-then-
    lexicographic order.  A superset L takes in every constraint whose
    variables all lie in L, except that L takes none on fewer than k
    variables when L has more than k (its k-subsets carry those): its mask
    holds the patterns whose reading at the scope's positions in L is a
    member.  Returns ``(viable, allowed)``, the masks of all supersets and
    those of the subsets, of at most k variables."""
    variables = instance.variables
    n = len(variables)
    widest, top = min(k, n), min(l, n)
    admitted = {}
    viable = []
    for size in range(1, top + 1):
        patterns = space.patterns(size)
        for L in combinations(variables, size):
            at = {v: i for i, v in enumerate(L)}
            mask = (1 << len(patterns)) - 1
            for name, scope in instance.constraints:
                support = set(scope)
                if not support <= at.keys() or len(support) < widest < size:
                    continue
                key = (size, tuple(at[v] for v in scope), name)
                if key not in admitted:
                    members = space.members(name)
                    admitted[key] = sum(1 << i for i, p in enumerate(patterns)
                                        if space.project(p, key[1]) in members)
                mask &= admitted[key]
            viable.append(mask)
    return viable, viable[:sum(comb(n, m) for m in range(1, widest + 1))]


def reference_translated(space, name: str, positions: Sequence[int]) -> int:
    """The mask of the patterns of arity ``max(positions) + 1`` whose reading
    at ``positions`` is a member of relation ``name``, found by projecting
    every pattern of that arity: the whole-arity translation that
    :meth:`orbitcsp.consistency._KLState._translated` replaces by reading
    each member back."""
    members = space.members(name)
    patterns = space.patterns(max(positions) + 1)
    return sum(1 << i for i, p in enumerate(patterns) if space.project(p, positions) in members)


def reference_horn_solve(instance: Instance, template: FiniteStructure,
                         top_down: bool) -> Optional[dict[str, int]]:
    """The sweeping Horn fixpoint, kept as a differential reference for the
    watch-list engine ``orbitcsp.polyengine._HornEngine``.

    Least (or, for the dual, greatest) fixpoint solving for meet-closed
    (join-closed) templates: maintain a bound vector and tighten each
    constraint to the meet (join) of its still-feasible rows."""
    from orbitcsp.relstruct import Relation

    variables = instance.variables
    bound = {v: (1 if top_down else 0) for v in variables}

    def feasible_rows(rel: Relation, scope):
        rows = []
        for t in rel.tuples:
            if top_down:
                ok = all(t[i] <= bound[v] for i, v in enumerate(scope))
            else:
                ok = all(t[i] >= bound[v] for i, v in enumerate(scope))
            if ok:
                rows.append(t)
        return rows

    changed = True
    while changed:
        changed = False
        for name, scope in instance.constraints:
            rel = template.relations[name]
            rows = feasible_rows(rel, scope)
            if not rows:
                return None
            for i, v in enumerate(scope):
                col = [t[i] for t in rows]
                # Tighten monotonically (a variable may occur at several
                # positions of the scope).
                agg = min(bound[v], max(col)) if top_down else max(bound[v], min(col))
                if agg != bound[v]:
                    bound[v] = agg
                    changed = True
    # At the fixpoint the aggregated row of each constraint equals the bound
    # restricted to its scope, and closure puts it inside the relation.
    for name, scope in instance.constraints:
        if tuple(bound[v] for v in scope) not in template.relations[name].tuples:
            return None
    return dict(bound)


#: The outcome of :func:`sweep_horn` when the fixpoint breaks a constraint.
HORN_FAULT = "fault"


def sweep_horn(n: int, constraints, top_down: bool, pins=None):
    """The sweeping Horn fixpoint on ``(rows, scope)`` constraints over
    variables ``0..n-1``, with each pin as a unary constraint, for any rows,
    closed or not: a reference for ``orbitcsp.polyengine._HornEngine``.

    Every variable starts at 0 (1 top-down), and each sweep raises (lowers)
    every position of every constraint to the meet (join) of its feasible
    rows, the rows on or above (below) the bound.  The operator is
    monotone, so the fixpoint does not depend on the order.  Returns the
    variables the fixpoint sets to 1, as the boolean solvers answer, None
    when a constraint runs out of feasible rows, or HORN_FAULT when the
    fixpoint falls outside some constraint's rows, which closed rows never
    allow."""
    start = 1 if top_down else 0
    pinned = [*constraints, *((frozenset({(value,)}), (v,)) for v, value in (pins or {}).items())]
    bound = [start] * n
    changed = True
    while changed:
        changed = False
        for rows, scope in pinned:
            feasible = [row for row in rows
                        if all((x <= bound[v]) if top_down else (x >= bound[v])
                               for x, v in zip(row, scope))]
            if not feasible:
                return None
            for i, v in enumerate(scope):
                # Monotone even when v sits at several positions of the scope.
                column = [row[i] for row in feasible]
                value = min(bound[v], max(column)) if top_down else max(bound[v], min(column))
                if value != bound[v]:
                    bound[v] = value
                    changed = True
    if any(tuple(bound[v] for v in scope) not in rows for rows, scope in pinned):
        return HORN_FAULT
    return {v for v in range(n) if bound[v]}


def affine_rows(tuples: frozenset) -> Optional[list[tuple[tuple[int, ...], int]]]:
    """Defining linear equations (coeffs, rhs) over GF(2) of a xor-closed
    row set; None for the empty set."""
    rows = sorted(tuples)
    if not rows:
        return None
    t0 = rows[0]
    k = len(t0)
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


def gf2_solve(n_vars: int, rows: list[tuple[list[int], int]]) -> Optional[list[int]]:
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


def reference_affine_solve(n, constraints, pins):
    """Dense Gaussian elimination of the whole pinned system, kept as a
    differential reference for the affine solver of
    ``orbitcsp.polyengine._boolean_solver``: each ``(rows, scope)``
    constraint and each pin, as a unary constraint, gives the equations
    :func:`affine_rows` derives, folded onto its scope, and
    :func:`gf2_solve` solves them all, free variables 0."""
    pinned = [*constraints, *((frozenset({(value,)}), (v,)) for v, value in pins.items())]
    rows: list[tuple[list[int], int]] = []
    for tuples, scope in pinned:
        equations = affine_rows(tuples)
        if equations is None:
            return None
        for coeffs, rhs in equations:
            folded = [0] * n
            for pos, v in enumerate(scope):
                folded[v] ^= coeffs[pos]
            rows.append((folded, rhs))
    return gf2_solve(n, rows)


def shape_value(shape, cell):
    """The label a shape's behaviour gives an injective cell, read off the
    definition on labels: a semilattice gives its label when the cell holds
    it, majority the label that occurs twice, and minority the label that
    occurs once, or the one label of a constant cell.  The reference for
    :func:`orbitcsp.homog._pinned_table`, which derives the same cells
    from one bit operation per shape."""
    if shape is Shape.BINARY_SL_E:
        return Label.E if Label.E in cell else Label.N
    if shape is Shape.BINARY_SL_N:
        return Label.N if Label.N in cell else Label.E
    a, b, c = cell
    if shape is Shape.TERNARY_MAJORITY:
        return a if b == a or c == a else b
    if a == b:
        return c
    if a == c:
        return b
    return a


def reference_search_behavior(template, shape):
    """The check-object behaviour search, kept as a differential reference
    for :func:`orbitcsp.homog.search_behavior`: one closure check per tuple
    of relation types, built from :func:`pair_label`, and a recursive
    search over the free cells that tests each check once its last free
    cell is assigned."""
    from orbitcsp.errors import DomainMismatch, ParameterError, ShapeUnsupported
    from orbitcsp.homog import HomogTemplate, Label, PairBehavior, Shape

    if isinstance(template, HomogTemplate):
        relations = [template.relations[n] for n in sorted(template.relations)]
        base = template.base
    else:
        relations = list(template)
        if not relations:
            raise ParameterError("empty template")
        base = relations[0].base
    if any(rel.base != base for rel in relations):
        raise DomainMismatch("relations must share the base")
    if base.oriented and shape in (Shape.BINARY_SL_E, Shape.BINARY_SL_N):
        raise ShapeUnsupported("a semilattice on arcs would break flip-equivariance")

    symbols = (Label.EQ,) + base.labels
    n = shape.arity
    cells = list(product(symbols, repeat=n))
    index_of = {cell: i for i, cell in enumerate(cells)}
    table = [None] * len(cells)
    for i, cell in enumerate(cells):
        if all(l is Label.EQ for l in cell):
            table[i] = Label.EQ
        elif all(l is not Label.EQ for l in cell):
            table[i] = shape_value(shape, cell)
    flip_index = None
    if base.oriented:
        flip_index = [index_of[tuple(l.flipped for l in cell)] for cell in cells]
    free = [i for i in range(len(cells))
            if table[i] is None and (flip_index is None or i <= flip_index[i])]

    # A check: the fingerprint template (EQ on merged pairs, None elsewhere),
    # the (position, cell) pairs that fill it, and the relation's fingerprints.
    checks = []
    for rel in relations:
        pairs = [(i, j) for i in range(rel.arity) for j in range(i + 1, rel.arity)]
        for ts in product(rel.sorted_types(), repeat=n):
            template_fp, pair_cells = [], []
            for pos, (i, j) in enumerate(pairs):
                vec = tuple(pair_label(t, i, j) for t in ts)
                if all(l is Label.EQ for l in vec):
                    template_fp.append(Label.EQ)
                else:
                    template_fp.append(None)
                    pair_cells.append((pos, index_of[vec]))
            checks.append((template_fp, pair_cells, rel.fingerprints))

    def passes(check):
        template_fp, pair_cells, fingerprints = check
        fp = list(template_fp)
        for pos, cell in pair_cells:
            fp[pos] = table[cell]
        return tuple(fp) in fingerprints

    rep_position = {}
    for pos, idx in enumerate(free):
        rep_position[idx] = pos
        if flip_index is not None:
            rep_position[flip_index[idx]] = pos
    by_last = {}
    for check in checks:
        last = max((rep_position[cell] for _, cell in check[1] if table[cell] is None),
                   default=-1)
        by_last.setdefault(last, []).append(check)
    if not all(passes(check) for check in by_last.get(-1, [])):
        return None

    def assign(pos, value):
        idx = free[pos]
        table[idx] = value
        if flip_index is not None and flip_index[idx] != idx:
            table[flip_index[idx]] = None if value is None else value.flipped

    def dfs(pos):
        if pos == len(free):
            return True
        for value in base.labels:
            assign(pos, value)
            if all(passes(check) for check in by_last.get(pos, [])) and dfs(pos + 1):
                return True
        assign(pos, None)
        return False

    if not dfs(0):
        return None
    return PairBehavior(n, symbols, tuple(table))


def has_clique(t, size):
    """Whether ``size`` blocks of ``t`` are pairwise labeled E, over every
    block set: the definition ``LabeledType.has_clique`` is tested against."""
    m = len(t.partition)
    return any(
        all(t.labels[_pair_index(m, a, b)] is Label.E for a, b in combinations(combo, 2))
        for combo in combinations(range(m), size)
    )


def reference_enumerate_types(k, base, injective_only=False):
    """Complete types of arity k in partition-major order: set partitions
    as restricted growth strings in lexicographic order, then the block-pair
    labels in ``itertools.product`` order, dropping types with a forbidden
    clique.  The order :func:`orbitcsp.homog.enumerate_types` must keep."""
    from orbitcsp.homog import LabeledType

    out = []
    for growth in product(range(k), repeat=k):
        if any(b > max(growth[:p], default=-1) + 1 for p, b in enumerate(growth)):
            continue
        m = max(growth) + 1
        if injective_only and m < k:
            continue
        partition = tuple(tuple(p for p in range(k) if growth[p] == b) for b in range(m))
        for labels in product(base.labels, repeat=m * (m - 1) // 2):
            t = LabeledType(k, partition, labels)
            if base.kind != "kfree" or not has_clique(t, base.forbidden):
                out.append(t)
    return tuple(out)


def reference_solve_instance_brute(instance, template):
    """The recursive labeled-partition search, kept as a differential
    reference for :func:`orbitcsp.homog.solve_instance_brute`: variables are
    placed one at a time -- joining an existing block or opening a new one
    -- with the state undone by hand, and each constraint is checked as soon
    as its scope is placed."""
    import itertools

    from orbitcsp.errors import BudgetExceeded, SignatureMismatch
    from orbitcsp.homog import BRUTE_VARIABLE_LIMIT, Label, LabeledType

    def _constraint_indices(instance, template):
        position = {v: i for i, v in enumerate(instance.variables)}
        out = []
        for name, scope in instance.constraints:
            rel = template.relations.get(name)
            if rel is None:
                raise SignatureMismatch(f"instance uses unknown relation {name}")
            if rel.arity != len(scope):
                raise SignatureMismatch(f"constraint {name} has arity {rel.arity}")
            out.append((rel, tuple(position[v] for v in scope)))
        return out

    n = len(instance.variables)
    if n > BRUTE_VARIABLE_LIMIT:
        raise BudgetExceeded(
            f"brute search capped at {BRUTE_VARIABLE_LIMIT} variables"
        )
    constraints = _constraint_indices(instance, template)
    by_last = {}
    for rel, scope in constraints:
        by_last.setdefault(max(scope), []).append((rel, scope))
    base = template.base
    block_of = []
    blocks = []
    labels = {}

    def state_label(p, q):
        bp, bq = block_of[p], block_of[q]
        if bp == bq:
            return Label.EQ
        lbl = labels[(min(bp, bq), max(bp, bq))]
        return lbl if bp < bq else lbl.flipped

    def satisfied(rel, scope):
        fp = tuple(
            state_label(scope[a], scope[b])
            for a, b in itertools.combinations(range(len(scope)), 2)
        )
        return fp in rel.fingerprints

    def creates_clique(vec):
        neighbours = [b for b, lbl in enumerate(vec) if lbl is Label.E]
        for combo in itertools.combinations(neighbours, base.forbidden - 1):
            if all(
                labels[(x, y)] is Label.E
                for x, y in itertools.combinations(combo, 2)
            ):
                return True
        return False

    def place(i):
        if i == n:
            return LabeledType(
                n,
                tuple(tuple(b) for b in blocks),
                tuple(
                    labels[(b1, b2)]
                    for b1, b2 in itertools.combinations(range(len(blocks)), 2)
                ),
            )
        options = [None] * len(blocks)
        options += list(itertools.product(base.labels, repeat=len(blocks)))
        for choice_index, choice in enumerate(options):
            if choice is None:
                blocks[choice_index].append(i)
                block_of.append(choice_index)
                added = []
            else:
                if base.kind == "kfree" and creates_clique(choice):
                    continue
                added = [(b, len(blocks)) for b in range(len(blocks))]
                for (b, _), lbl in zip(added, choice):
                    labels[(b, len(blocks))] = lbl
                blocks.append([i])
                block_of.append(len(blocks) - 1)
            if all(satisfied(rel, scope) for rel, scope in by_last.get(i, [])):
                found = place(i + 1)
                if found is not None:
                    return found
            block_of.pop()
            if choice is None:
                blocks[choice_index].pop()
            else:
                blocks.pop()
                for key in added:
                    del labels[key]
        return None

    return place(0)


def blocked_variables(patterns, scope):
    """The variables of the scope that no row of ``patterns`` puts at Z at
    all of their positions: a constraint on this scope forbids each of
    them at Z on its own.  A reference for the ``never_zero`` positions of
    ``orbitcsp.temporal._State``, read from the scope's first occurrences:
    a row on the scope gives a repeated variable one value at all of its
    positions, since ``_fin_patterns_of`` skips the types that do not."""
    never_zero = [i for i in range(len(scope))
                  if all(row[i] != Z_VALUE for row in patterns)]
    return tuple(dict.fromkeys(scope[i] for i in never_zero))


def shrink_free_set(quotient, start):
    """Shrink a free set by pairwise pinning until no proper free subset
    remains: keep some x at Z and push some other member y and everything
    outside the set to P, take any solution's Z-set, and start over.  No
    least-solution property is used, so it checks the master's one-pass
    level rule."""
    variables = quotient.variables
    current = [v for v in variables if v in start]
    improved = True
    while improved:
        improved = False
        outside = {w: P_VALUE for w in variables if w not in current}
        for x in current:
            for y in current:
                if y == x:
                    continue
                pins = {x: Z_VALUE, y: P_VALUE, **outside}
                solution = _solve_afin(quotient, pins)
                if solution is not None:
                    current = [v for v in variables if v in solution]
                    improved = True
                    break
            if improved:
                break
    return frozenset(current)


def reference_run_master(variables, constraints, use_minimal):
    """The master loop that compiles a fresh quotient at every level and
    shrinks its first free set pairwise, kept as a differential reference
    for ``orbitcsp.temporal._run_master``, which compiles one quotient per
    call, narrows it level by level, and picks each level in one pass."""
    remaining = list(variables)
    current = list(constraints)
    levels: list[tuple[str, ...]] = []
    while remaining:
        quotient = _Quotient(tuple(remaining), current)
        solution = None
        for x in remaining:
            solution = _solve_afin(quotient, {x: Z_VALUE})
            if solution is not None:
                break
        if solution is None:
            # A satisfying weak order would make its bottom level a free
            # set, so the search failing for every variable refutes it.
            return None
        level = solution
        if use_minimal:
            level = shrink_free_set(quotient, level)
        levels.append(tuple(v for v in remaining if v in level))
        projected = []
        for rel, scope in current:
            positions = frozenset(i for i, v in enumerate(scope)
                                  if v in level)
            if not positions:
                projected.append((rel, scope))
                continue
            keep = [t for t in rel.types
                    if frozenset(t.blocks[0]) == positions]
            rest = [i for i in range(len(scope)) if i not in positions]
            if not rest:
                if not keep:
                    raise AssertionError(
                        "level contradicts a fully covered constraint")
                continue
            types = frozenset(t.restrict(rest) for t in keep)
            if not types:
                raise AssertionError("level starves an intersecting constraint")
            projected.append((TemporalRelation(len(rest), types),
                              tuple(scope[i] for i in rest)))
        current = projected
        remaining = [v for v in remaining if v not in level]
    return tuple(levels)


def is_free_set(instance, template, subset):
    """Definition check: every intersecting constraint admits a valuation
    whose minimum is attained exactly on the subset's variables."""
    sub = frozenset(subset)
    for v in sub:
        if v not in instance.variables:
            raise UnknownVariable(v)
    if not sub:
        return False
    for rel, scope in _constraint_list(instance, template):
        positions = frozenset(i for i, v in enumerate(scope) if v in sub)
        if not positions:
            continue
        if not any(t.respects(scope) and frozenset(t.blocks[0]) == positions
                   for t in rel.types):
            return False
    return True


def minimal_free_set(instance, template, subset):
    """Shrink a free set until no proper free subset remains, as the
    master's ll modes do."""
    sub = frozenset(subset)
    if not is_free_set(instance, template, sub):
        raise NotFree(f"{sorted(sub)} is not a free set")
    quotient = _Quotient(instance.variables, _constraint_list(instance, template))
    return shrink_free_set(quotient, sub)


# --- definitions the tests compare the package against -----------------------


def is_injective(t):
    """Whether the complete type ``t`` merges no positions."""
    return len(t.partition) == t.arity


def reference_fingerprint(t):
    """label(i, j) for every position pair i < j of the complete type ``t``,
    read off its partition and block-pair labels: the general loop that
    ``LabeledType.fingerprint`` skips for a type with one position per
    block."""
    m = len(t.partition)
    block_of = {p: b for b, block in enumerate(t.partition) for p in block}
    out = []
    for i, j in combinations(range(t.arity), 2):
        bi, bj = block_of[i], block_of[j]
        if bi == bj:
            out.append(Label.EQ)
        else:
            stored = t.labels[_pair_index(m, min(bi, bj), max(bi, bj))]
            out.append(stored if bi < bj else stored.flipped)
    return tuple(out)


def pair_label(t, i, j):
    """The label of the ordered position pair (i, j) of the complete type
    ``t``, read from its fingerprint; EQ when i and j are merged."""
    if i == j:
        return Label.EQ
    if i < j:
        return t.fingerprint[_pair_index(t.arity, i, j)]
    return t.fingerprint[_pair_index(t.arity, j, i)].flipped


def behavior_from_function(arity, symbols, fn):
    """The behavior whose table holds ``fn(*cell)`` at every cell of the
    symbols, in row-major order."""
    symbols = tuple(symbols)
    values = tuple(fn(*cell) for cell in product(symbols, repeat=arity))
    return PairBehavior(arity, symbols, values)


def from_pair_labels(arity, label_of):
    """The complete type of a pairwise labeling; EQ entries merge positions.

    ``label_of(i, j)`` is read for every position pair i < j.  Raises
    MalformedPattern when the EQ pattern is not an equivalence or the labels
    disagree across merged positions.  This is the pairwise definition that
    ``LabeledType.project`` and the template parser are tested against.
    """
    if arity < 1:
        raise MalformedPattern("types need arity >= 1")
    parent = list(range(arity))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    given = {}
    for i, j in combinations(range(arity), 2):
        given[(i, j)] = label_of(i, j)
        if given[(i, j)] is Label.EQ:
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[max(ri, rj)] = min(ri, rj)
    blocks = {}
    for p in range(arity):
        blocks.setdefault(find(p), []).append(p)
    partition = tuple(tuple(blocks[r]) for r in sorted(blocks))
    reps = [block[0] for block in partition]
    block_of = {p: b for b, block in enumerate(partition) for p in block}
    labels = [given[(reps[b1], reps[b2])]
              for b1, b2 in combinations(range(len(partition)), 2)]
    for (i, j), lbl in given.items():
        bi, bj = block_of[i], block_of[j]
        if bi == bj:
            if lbl is not Label.EQ:
                raise MalformedPattern("equalities are not transitive")
            continue
        if lbl is Label.EQ:
            raise MalformedPattern("equalities are not transitive")
        stored = labels[_pair_index(len(partition), min(bi, bj), max(bi, bj))]
        expected = stored if bi < bj else stored.flipped
        if lbl is not expected:
            raise MalformedPattern("labels disagree across merged positions")
    return LabeledType(arity, partition, tuple(labels))


def reference_read_homog_type(literal, arity, base, line, column):
    """A tournament or graph type literal read on its own: the '=' items
    merge positions, then each arc or edge item labels its pair of blocks
    in a full block-by-block table.  Errors come in that order: merges,
    labels in item order, then missing arcs.  The reference that
    ``cli._HomogReader``, which reads each distinct item of a relation once
    and writes labels in pair order, is tested against."""
    items, depth, start = [], 0, 0
    if literal != "-":
        for i, ch in enumerate(literal):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            elif ch == "," and depth == 0:
                items.append(literal[start:i].strip())
                start = i + 1
        items.append(literal[start:].strip())
    parent = list(range(arity))  # a union-find whose roots are least positions

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for item in items:
        if "=" in item:
            first, *others = [_parse_position(t.strip(), arity, line, column)
                              for t in item.split("=")]
            for p in others:
                ra, rb = find(first), find(p)
                parent[max(ra, rb)] = min(ra, rb)
    reps = [p for p in range(arity) if parent[p] == p]
    number = {r: x for x, r in enumerate(reps)}
    block_of = [number[find(p)] for p in range(arity)]
    default = None if base.oriented else Label.N
    table = [[default] * len(reps) for _ in reps]
    for item in items:
        if "=" in item:
            continue
        if base.oriented:
            if "->" not in item:
                raise ParseError(f"expected an arc, got {item!r}", line, column)
            ends, label = item.split("->", 1), Label.FWD
        else:
            match = _EDGE_ITEM.fullmatch(item)
            if not match:
                raise ParseError(f"expected an edge, got {item!r}", line, column)
            ends, label = match.groups(), Label.E
        a = _parse_position(ends[0].strip(), arity, line, column)
        b = _parse_position(ends[1].strip(), arity, line, column)
        x, y = block_of[a], block_of[b]
        if x == y:
            raise ParseError("pair label within a merged block", line, column)
        if table[x][y] not in (label, default):
            raise ParseError(f"conflicting labels between {a + 1} and {b + 1}", line, column)
        table[x][y], table[y][x] = label, label.flipped
    for x, y in combinations(range(len(reps)), 2):
        if table[x][y] is None:
            raise ParseError(f"missing arc between {reps[x] + 1} and {reps[y] + 1}", line, column)
    partition = tuple(tuple(p for p in range(arity) if block_of[p] == x) for x in range(len(reps)))
    labels = tuple(table[x][y] for x, y in combinations(range(len(reps)), 2))
    return LabeledType(arity, partition, labels)


def format_template(template):
    """Render a template canonically: sorted names, sorted type literals.
    ``orbitcsp.cli.parse_template`` must read it back to the same template."""
    if isinstance(template, TemporalTemplate):
        out, format_type = ["base: temporal"], str
    else:
        out, format_type = [f"base: {template.base}"], _format_homog_type
    for name in sorted(template.relations):
        rel = template.relations[name]
        body = "; ".join(format_type(t) for t in rel.sorted_types())
        out.append(f"rel {name}/{rel.arity}: {body}")
    return "\n".join(out) + "\n"


def format_instance(instance):
    """Render an instance in the file format ``orbitcsp.cli.parse_instance``
    reads."""
    out = ["vars " + " ".join(instance.variables)]
    for name, scope in instance.constraints:
        out.append(f"{name}({','.join(scope)})")
    return "\n".join(out) + "\n"


def behavior_preserves(behavior, rel):
    """Whether every tuple of relation types has its image in the relation:
    one ordered tuple at a time, reading the behavior's cell of the inputs'
    labels at each position pair.  The table maps only the all-EQ cell to
    EQ, so a pair stays merged exactly where every input merges it."""
    if any(l not in behavior.symbols for l in rel.base.labels):
        raise DomainMismatch("relation base outside the behavior alphabet")
    value_of = dict(behavior.cells()).__getitem__
    fingerprints = [t.fingerprint for t in rel.sorted_types()]
    for inputs in product(fingerprints, repeat=behavior.arity):
        if tuple(map(value_of, zip(*inputs))) not in rel.fingerprints:
            return False
    return True


def behavior_image(behavior, types):
    """Apply a behavior to a tuple of types of equal arity: the definition
    :func:`behavior_preserves` is tested against.

    Positions merge in the image iff they are merged in every input; every
    surviving pair is labeled by the behavior applied to the input labels,
    reading EQ from inputs that merge the pair.
    """
    types = tuple(types)
    if len(types) != behavior.arity:
        raise ArityMismatch("behavior arity does not match the tuple length")
    if len({t.arity for t in types}) != 1:
        raise ArityMismatch("input types must share the arity")
    for t in types:
        if any(l not in behavior.symbols for l in t.labels):
            raise DomainMismatch("type labels outside the behavior alphabet")
    k = types[0].arity
    if all(map(is_injective, types)):
        labels = tuple(
            behavior.values[behavior.index([pair_label(t, i, j) for t in types])]
            for i, j in combinations(range(k), 2)
        )
        return LabeledType(k, tuple((p,) for p in range(k)), labels)

    def label_of(i, j):
        vec = [pair_label(t, i, j) for t in types]
        if all(l is Label.EQ for l in vec):
            return Label.EQ
        return behavior.values[behavior.index(vec)]

    return from_pair_labels(k, label_of)


def _g2(a, b):
    return b if a is Label.EQ else a


# First projection on arcs; an equality in either argument defers to the
# other argument.  This is the binary operation every tournament reduct with
# a majority or minority behavior must also admit.
G2_BEHAVIOR = behavior_from_function(2, (Label.EQ, Label.FWD, Label.BWD), _g2)

POWER_DOMAIN_LIMIT = 4096


def power_structure(template, n, limit=POWER_DOMAIN_LIMIT):
    """The n-th direct power.  Domain elements are codes of n-tuples under
    ``orbitcsp.relstruct.encode_tuple``; a tuple of codes is in a power
    relation iff every coordinate-wise section is in the base relation."""
    if n < 1:
        raise ValueError("power exponent must be positive")
    size = template.domain_size ** n
    if size > limit:
        raise BudgetExceeded(f"power domain {size} exceeds limit {limit}")
    relations = {}
    for name, rel in template.relations.items():
        rows = rel.sorted_tuples()
        # sections[j] supplies coordinate j of every power element, so the
        # elements are the columns of the chosen rows.
        tuples = frozenset(
            tuple(encode_tuple(column, template.domain_size)
                  for column in zip(*sections))
            for sections in product(rows, repeat=n)
        )
        relations[name] = Relation(rel.arity, tuples)
    return FiniteStructure(size, relations)
