"""Independent brute-force reference implementations used by the tests.

Everything here is deliberately naive: exhaustive enumeration, concrete
rational arithmetic, direct definitions.  The point is to have a second
route to every answer the library computes cleverly.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import comb
from typing import Optional, Sequence

from orbitcsp.relstruct import FiniteStructure, Instance


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


def lex_key(x: Fraction, y: Fraction):
    return (0, x, y)


BASE_KEYS = {"PP": (pp_key, pp_sign), "LL": (ll_key, ll_sign), "LEX": (lex_key, None)}


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
    from itertools import combinations

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


def reference_horn_solve(instance: Instance, template: FiniteStructure,
                         top_down: bool) -> Optional[dict[str, int]]:
    """The sweeping Horn fixpoint, kept as a differential reference for the
    watch-list engine behind ``orbitcsp.polyengine._horn_solve``.

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
