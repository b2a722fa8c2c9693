"""(k,l)-local-consistency fixpoint over pluggable local-pattern spaces.

The engine derives, for every at-most-k-element set of instance variables,
the strongest constraint implied by looking at at most l variables at a time.
It is agnostic about what a "local pattern" is: assignments into a finite
domain, weak orders, or labeled partitions all plug in through the small
positional :class:`PatternSpace` contract -- the patterns of an arity, the
projection of a pattern to a list of positions, and the set of patterns of a
relation -- so the same fixpoint serves finite, temporal, and
homogeneous-base instances.  Only the engine knows variable names: it turns
every sub-tuple and constraint scope into positions once per superset,
before the fixpoint runs.

Rejection is reported through the :data:`EMPTY_DERIVED` sentinel: some
subset's constraint became empty, which soundly implies the instance has no
solution.  The converse holds only for templates of bounded width.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from typing import Any, Collection, Protocol, Sequence, Union

from .errors import BudgetExceeded, ParameterError
from .relstruct import FiniteStructure, Instance, check_signature


class PatternSpace(Protocol):
    """What the fixpoint needs to know about local solution fragments.

    ``template`` is the structure the space belongs to; the engine reads the
    declared arity of each relation from it.
    """

    template: Any

    def patterns(self, arity: int) -> Sequence[object]:
        """All candidate patterns on ``arity`` positions."""

    def project(self, pattern: object, positions: Sequence[int]) -> object:
        """The pattern read at ``positions`` (repeats allowed)."""

    def members(self, name: str) -> Collection[object]:
        """The patterns of relation ``name``."""


class FinitePatterns:
    """Pattern space of a finite template: patterns are value tuples."""

    def __init__(self, template: FiniteStructure):
        self.template = template

    def patterns(self, arity):
        return list(product(range(self.template.domain_size), repeat=arity))

    def project(self, pattern, positions):
        return tuple(pattern[i] for i in positions)

    def members(self, name):
        return self.template.relations[name].tuples


class _EmptyDerived:
    """Singleton result: some derived constraint became empty."""

    __slots__ = ()

    def __repr__(self):
        return "EMPTY_DERIVED"

    def __bool__(self):
        return False


EMPTY_DERIVED = _EmptyDerived()


@dataclass
class ConsistencyState:
    """Fixpoint state: for each at-most-k variable tuple (in declaration
    order), the set of surviving local patterns."""

    k: int
    l: int
    variables: tuple[str, ...]
    allowed: dict[tuple[str, ...], set]

    def key(self, subset) -> tuple[str, ...]:
        order = {v: i for i, v in enumerate(self.variables)}
        return tuple(sorted(set(subset), key=order.__getitem__))

    def count(self, subset) -> int:
        return len(self.allowed[self.key(subset)])


def establish_kl(instance: Instance,
                 template: Union[FiniteStructure, PatternSpace],
                 k: int = 2, l: int = 3):
    """Run the (k,l)-consistency fixpoint.

    Returns a :class:`ConsistencyState`, or :data:`EMPTY_DERIVED` as soon as
    some subset's pattern set becomes empty.  Raises BudgetExceeded, naming
    (k,l), before any work when the space cannot enumerate the patterns of
    the largest superset.  The fixpoint is independent of processing order;
    supersets are swept in lexicographic order for reproducibility of the
    work done.
    """
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
