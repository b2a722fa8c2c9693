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

The fixpoint runs on pattern numbers: a pattern's number is its index in
``space.patterns(arity)``.  Two kinds of lazily filled tables stand in for
the space's methods.  A projection table maps a pattern number of one arity
to the number of its projection to fixed positions; a reading of fewer than
k positions goes through the k-position reading that covers it, so each
pattern is projected once per k-subset.  A membership table says whether a
pattern, read at fixed positions, lies in a relation; it reads the number of
the projection and looks it up in the relation's numbered members.  The
tables belong to one call and go with it, so memory is bounded by the
patterns of that call.  The state is mapped back to pattern objects once,
at the end.

Rejection is reported through the :data:`EMPTY_DERIVED` sentinel: some
subset's constraint became empty, which soundly implies the instance has no
solution.  The converse holds only for templates of bounded width.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations, compress, product
from typing import Any, Collection, Protocol, Sequence, Union

from .errors import BudgetExceeded, ParameterError
from .relstruct import FiniteStructure, Instance, check_signature


class PatternSpace(Protocol):
    """What the fixpoint needs to know about local solution fragments.

    ``template`` is the structure the space belongs to; the engine reads the
    declared arity of each relation from it.  Within one call the engine
    numbers patterns by their index in ``patterns(arity)``, so ``project``
    and ``members`` must return patterns equal to listed ones.
    """

    template: Any

    def patterns(self, arity: int) -> Sequence[object]:
        """All candidate patterns on ``arity`` positions, in a fixed order."""

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


class _Table(dict):
    """A table on pattern numbers, filled by ``fill`` on first lookup."""

    __slots__ = ("fill",)

    def __init__(self, fill):
        super().__init__()
        self.fill = fill

    def __missing__(self, number):
        value = self[number] = self.fill(number)
        return value


class _Numbering:
    """The numbered patterns of one call and the tables built on them."""

    def __init__(self, space: PatternSpace, patterns: dict[int, Sequence[object]],
                 widest: int):
        self.space = space
        self.patterns = patterns
        self.widest = widest  # k: the fixpoint fills every k-position reading
        self._index: dict[int, dict[object, int]] = {}
        self._projections: dict[tuple, _Table] = {}
        self._memberships: dict[tuple, _Table] = {}
        self._members: dict[str, set[int]] = {}

    def number(self, arity: int) -> dict[object, int]:
        """Pattern of ``arity`` -> its number."""
        index = self._index.get(arity)
        if index is None:
            index = self._index[arity] = {p: i for i, p in enumerate(self.patterns[arity])}
        return index

    def projection(self, arity: int, positions: tuple[int, ...]) -> _Table:
        """Pattern number of ``arity`` -> number of its ``positions`` reading.

        A reading is looked up through the ascending reading of its distinct
        positions, padded to ``widest`` positions when that is fewer than
        ``arity``.  The fixpoint fills those ``widest``-position readings
        anyway, so one ``project`` call per pattern and k-subset serves the
        narrower, permuted and repeated readings inside it.
        """
        table = self._projections.get((arity, positions))
        if table is None:
            wider = sorted(set(positions))
            if len(wider) <= self.widest < arity:
                # Pad with the first positions not read.
                wider += [i for i in range(arity) if i not in wider][:self.widest - len(wider)]
            wider = tuple(sorted(wider))
            if wider != positions and len(wider) < arity:
                outer = self.projection(arity, wider)
                inner = self.projection(len(wider), tuple(map(wider.index, positions)))
                table = _Table(lambda number: inner[outer[number]])
            else:
                index = self.number(len(positions))
                source, project = self.patterns[arity], self.space.project
                table = _Table(lambda number: index[project(source[number], positions)])
            self._projections[arity, positions] = table
        return table

    def membership(self, arity: int, positions: tuple[int, ...], name: str) -> _Table:
        """Pattern number of ``arity`` -> whether its ``positions`` reading
        lies in relation ``name``."""
        key = (arity, positions, name)
        table = self._memberships.get(key)
        if table is None:
            if len(positions) in self.patterns:
                numbers = self._members.get(name)
                if numbers is None:
                    numbers = self._members[name] = set(
                        map(self.number(len(positions)).get, self.space.members(name)))
                    numbers.discard(None)
                if positions == tuple(range(arity)):
                    table = _Table(numbers.__contains__)
                else:
                    reading = self.projection(arity, positions)
                    table = _Table(lambda number: reading[number] in numbers)
            else:
                # A relation wider than l, on repeated variables: its
                # readings are not numbered.
                source, project = self.patterns[arity], self.space.project
                members = self.space.members(name)
                table = _Table(lambda number: project(source[number], positions) in members)
            self._memberships[key] = table
        return table


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

    @cached_property
    def _order(self) -> dict[str, int]:
        return {v: i for i, v in enumerate(self.variables)}

    def key(self, subset) -> tuple[str, ...]:
        return tuple(sorted(set(subset), key=self._order.__getitem__))

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
        patterns = {m: space.patterns(m) for m in range(l_eff, 0, -1)}
    except BudgetExceeded as exc:
        raise BudgetExceeded(
            f"(k,l) = ({k},{l}) needs patterns of arity {l_eff}: {exc}"
        ) from exc
    numbering = _Numbering(space, patterns, k_eff)

    # Per superset size: the projection table onto each at-most-k subset,
    # in the order in which combinations() lists the subsets.
    projections = {size: [numbering.projection(size, pos)
                          for m in range(1, min(size, k_eff) + 1)
                          for pos in combinations(range(size), m)]
                   for size in range(1, l_eff + 1)}
    constraints = [(name, scope, frozenset(scope)) for name, scope in instance.constraints]

    # Per superset L, in size-then-lexicographic order: the numbers of its
    # patterns that satisfy every constraint inside L, and each of its
    # at-most-k subsets with its projection table.  For |L| <= k the
    # filtered numbers seed allowed[L].
    allowed: dict[tuple[str, ...], set[int]] = {}
    sweeps = []
    for size in range(1, l_eff + 1):
        for L in combinations(variables, size):
            at = {v: i for i, v in enumerate(L)}
            inside = at.keys()
            candidates = range(len(patterns[size]))
            for name, scope, support in constraints:
                if not support <= inside:
                    continue
                test = numbering.membership(size, tuple(map(at.__getitem__, scope)), name)
                candidates = list(compress(candidates, map(test.__getitem__, candidates)))
            candidates = list(candidates)
            if size <= k_eff:
                if not candidates:
                    return EMPTY_DERIVED
                allowed[L] = set(candidates)
            subs = list(zip(
                chain.from_iterable(combinations(L, m) for m in range(1, min(size, k_eff) + 1)),
                projections[size]))
            sweeps.append([candidates, subs])

    changed = True
    while changed:
        changed = False
        for sweep in sweeps:
            viable, subs = sweep
            for S, table in subs:
                viable = list(compress(viable, map(
                    allowed[S].__contains__, map(table.__getitem__, viable))))
            # Allowed sets only shrink, so a pattern that is not viable now
            # never becomes viable again.
            sweep[0] = viable
            for S, table in subs:
                projected = set(map(table.__getitem__, viable))
                if len(projected) != len(allowed[S]):
                    # Each viable pattern projects into allowed[S], so this
                    # is a strict shrink.
                    allowed[S] = projected
                    changed = True
                    if not projected:
                        return EMPTY_DERIVED
    return ConsistencyState(k, l, variables, {
        S: {patterns[len(S)][p] for p in numbers} for S, numbers in allowed.items()})
