"""Finite relational structures, instances over them, and the package's
finite-domain backtracking search.

A :class:`FiniteStructure` is a template: a domain ``{0, ..., domain_size-1}``
together with named relations.  An :class:`Instance` is a conjunctive query
over such a template; :func:`hom_search` decides whether the instance maps
homomorphically into the template and returns the first witness found under a
fixed search order (variables in declaration order, values ascending).

Search lives here, in one private generator over integer variables and
``(tuple set, scope)`` constraints.  :func:`hom_search` takes its first
answer; ``polyengine.find_polymorphism`` runs it on the identity-glued cells
of a power of the template, since a polymorphism is a homomorphism from a
power into the template.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .errors import SignatureMismatch


@dataclass(frozen=True)
class Relation:
    """A named relation's content: arity plus the set of allowed tuples."""

    arity: int
    tuples: frozenset[tuple[int, ...]]

    def __post_init__(self):
        if self.arity < 1:
            raise ValueError("relation arity must be at least 1")
        for t in self.tuples:
            if len(t) != self.arity:
                raise ValueError(f"tuple {t} does not match arity {self.arity}")

    def sorted_tuples(self) -> list[tuple[int, ...]]:
        return sorted(self.tuples)


def relation(arity: int, tuples: Iterable[tuple[int, ...]]) -> Relation:
    return Relation(arity, frozenset(tuple(t) for t in tuples))


@dataclass(frozen=True, eq=False)
class FiniteStructure:
    """A finite template over the domain {0, ..., domain_size - 1}."""

    domain_size: int
    relations: Mapping[str, Relation]

    def __post_init__(self):
        if self.domain_size < 1:
            raise ValueError("domain_size must be positive")
        for name, rel in self.relations.items():
            for t in rel.tuples:
                if any(not (0 <= v < self.domain_size) for v in t):
                    raise ValueError(
                        f"relation {name}: tuple {t} leaves the domain"
                    )


@dataclass(frozen=True)
class Instance:
    """A conjunctive instance: ordered variables plus constraints naming
    template relations.  Declaration order of variables is the search order
    used by every deterministic solver in this package."""

    variables: tuple[str, ...]
    constraints: tuple[tuple[str, tuple[str, ...]], ...]

    def __post_init__(self):
        seen = set()
        for v in self.variables:
            if v in seen:
                raise ValueError(f"duplicate variable {v!r}")
            seen.add(v)
        for name, scope in self.constraints:
            for v in scope:
                if v not in seen:
                    raise ValueError(f"constraint {name}{scope} names unknown variable {v!r}")


def make_instance(variables: Iterable[str],
                  constraints: Iterable[tuple[str, Iterable[str]]]) -> Instance:
    return Instance(tuple(variables),
                    tuple((name, tuple(scope)) for name, scope in constraints))


def check_signature(instance: Instance, template: FiniteStructure) -> None:
    """Raise SignatureMismatch unless every constraint names a declared
    relation with the right arity.  Any template whose ``relations`` map
    names to objects with an ``arity`` will do: the temporal and homogeneous
    templates are checked here too."""
    for name, scope in instance.constraints:
        rel = template.relations.get(name)
        if rel is None:
            raise SignatureMismatch(f"instance uses undeclared relation {name!r}")
        if rel.arity != len(scope):
            raise SignatureMismatch(
                f"constraint {name}{scope}: arity {len(scope)} != declared {rel.arity}"
            )


def _assignments(n: int, domain_size: int,
                 constraints: Sequence[tuple[frozenset, tuple[int, ...]]],
                 ) -> Iterator[tuple[int, ...]]:
    """Every assignment of values in ``range(domain_size)`` to variables
    ``0..n-1`` that puts each constraint's scope inside its tuple set, in
    lexicographic order (variables in index order, values ascending).

    This is the package's one finite-domain backtracker.  Constraints over a
    single variable filter its initial domain.  Every other constraint is
    forward-checked when the variable before its last one is assigned: the
    last variable, the hole, keeps the values whose tuple is a member, so the
    constraint holds whatever value the hole takes later.  Prunings are
    undone through a trail.
    """
    domains = [list(range(domain_size)) for _ in range(n)]
    # checks[i]: (tuples, scope, hole, positions of the hole in the scope)
    # for each constraint that assigning variable i leaves one hole in.
    checks: list[list] = [[] for _ in range(n)]
    for tuples, scope in constraints:
        distinct = sorted(set(scope))
        hole = distinct[-1]
        if len(distinct) == 1:
            domains[hole] = [v for v in domains[hole]
                             if (v,) * len(scope) in tuples]
            continue
        positions = tuple(p for p, u in enumerate(scope) if u == hole)
        checks[distinct[-2]].append((tuples, scope, hole, positions))
    if not all(domains):
        return
    assignment = [0] * n
    trail: list[tuple[int, list[int]]] = []

    def consistent(var: int) -> bool:
        for tuples, scope, hole, positions in checks[var]:
            row = [assignment[u] for u in scope]
            kept = []
            for v in domains[hole]:
                for p in positions:
                    row[p] = v
                if tuple(row) in tuples:
                    kept.append(v)
            if len(kept) < len(domains[hole]):
                trail.append((hole, domains[hole]))
                domains[hole] = kept
                if not kept:
                    return False
        return True

    # An explicit stack, so the depth is not bounded by the recursion limit.
    marks = [0] * (n + 1)  # trail length when each variable was reached
    tried = [0] * n        # how many values of its domain each has taken
    var = 0
    while var >= 0:
        if var == n:
            yield tuple(assignment)
            var -= 1
            continue
        while len(trail) > marks[var]:
            hole, saved = trail.pop()
            domains[hole] = saved
        if tried[var] == len(domains[var]):
            tried[var] = 0
            var -= 1
            continue
        assignment[var] = domains[var][tried[var]]
        tried[var] += 1
        if consistent(var):
            var += 1
            marks[var] = len(trail)


def hom_search(instance: Instance, template: FiniteStructure) -> Optional[dict[str, int]]:
    """The first homomorphism found by the backtracker, or None when the
    instance has none into the template.

    Deterministic: variables are assigned in declaration order and values are
    tried in ascending order, so the returned witness is canonical.
    """
    check_signature(instance, template)
    index = {v: i for i, v in enumerate(instance.variables)}
    cons = [(template.relations[name].tuples, tuple(index[v] for v in scope))
            for name, scope in instance.constraints]
    first = next(_assignments(len(index), template.domain_size, cons), None)
    return None if first is None else dict(zip(instance.variables, first))


def encode_tuple(values: tuple[int, ...], domain_size: int) -> int:
    """Row-major mixed-radix code of a tuple (first coordinate most
    significant)."""
    code = 0
    for v in values:
        code = code * domain_size + v
    return code

