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
``space.patterns(arity)``, and a set of patterns is an ``int`` mask whose
bit ``i`` stands for pattern ``i``.  A projection table reads the patterns
of one arity at fixed ascending, distinct positions, and holds one
preimage mask per reading: the patterns filled so far that read to it.
Filling projects each pattern once, lazily, so the masks are exact on the
filled patterns and serve every pattern set inside them.  A table also
caches, per allowed mask, the union of its readings' masks, and per
pattern mask its image, the mask of the readings of its patterns; so a
pass over a superset costs a few integer operations and two dictionary
lookups per subset.  A fill empties both caches, and a table drops its
images once it holds :data:`IMAGE_LIMIT` of them.

The engine relies on projections composing:
``project(project(p, P), Q) == project(p, [P[q] for q in Q])``.  So a
superset L of more than k variables reads only its k-subsets, and takes in
only the constraints on at least k variables: a smaller subset or
constraint support S lies in some k-subset T of L, T reads S and itself,
and the chain L -> T -> S enforces every condition L -> S would, with the
same greatest fixpoint.  For the same reason a constraint on a permuted or
repeated scope is read through the table of its ascending distinct
positions D, and its relation is translated instead, to the arity-|D|
patterns whose reading at ``P = map(D.index, scope)`` is a member.  Every
scope, in order or not, is translated by one rule, which also needs the
identity law ``project(p, range(arity)) == p``: read each member p back at
F, the first index in P of each position of D.  If a pattern q reads to
p, then ``project(p, F) == project(q, [P[f] for f in F])``, which is
``project(q, range(|D|)) == q``; so ``project(p, F)`` is the only
candidate, and it is one exactly when its reading at P is p.  The
translation projects each member twice and no other pattern, and no table
of all readings is built.

The projection tables and the read-back numbers depend only on the pattern
sequence, not on the template or the instance, so they live as long as the
process.  They are keyed on the identity of the sequence ``space.patterns``
returns (the memoised tuples of ``homog.enumerate_types``,
``temporal.enumerate_weak_orders`` and :class:`FinitePatterns`) and hold a
reference to it; a space that builds a fresh sequence on every call gets
them for that call only.  A projection table is filled where it is read,
over the mask it is read with, and a later call fills more; a member is
read back at P on first use.  Relation memberships, keyed by relation name,
depend on the template and belong to one call.

The superset index depends only on n, min(k, n) and min(l, n): a
:class:`_Shape` numbers the supersets and lists, for each, the subsets it
reads and, for each subset, the supersets that read it.  Shapes are shared
by every call with the same three numbers, up to :data:`SUPERSET_LIMIT`
supersets in all.  A call builds a :class:`_KLState` on its shape: per
superset the mask of its patterns that satisfy every constraint inside it,
and per subset its allowed mask.  These are found from the constraints'
supports (their sets of variables), not by scanning each superset's
subsets: a support S is admitted only at the supersets that read it, the
supersets of S's subset when S has at most k variables, else every
superset of at most l variables around S.  :meth:`_KLState.propagate`
runs a FIFO worklist of supersets (AC-3, Mackworth 1977) that revisits a
superset only when the allowed set of one of its subsets shrank.  The greatest fixpoint does not
depend on the order of visits.  The state is mapped back to pattern objects
once, at the end.

Rejection is reported through the :data:`EMPTY_DERIVED` sentinel: some
subset's constraint became empty, which soundly implies the instance has no
solution.  The converse holds only for templates of bounded width.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations, compress, count, product
from typing import Any, Collection, Iterable, Optional, Protocol, Sequence, Union

from .errors import BudgetExceeded, ParameterError
from .relstruct import FiniteStructure, Instance, check_signature

#: Largest number of supersets the ``consistency`` command lets a (k,l) call
#: build, and the most that the superset shapes kept between calls hold
#: together.  An 80-variable chain at (2,3) makes 85 400 supersets and takes
#: about 0.4 s, with a 38 MB peak RSS, cold on a 2-core Xeon with CPython
#: 3.11; time and memory grow with the count.  A shape near the limit keeps
#: 18-27 MB ((2,3) on 84 variables and (2,4) on 39, measured with
#: tracemalloc).
SUPERSET_LIMIT = 100_000

#: Most images one projection table keeps between fills; a table that holds
#: this many drops them all before it adds another.  An image is keyed by a
#: mask of the table's source arity, so a table's images take at most
#: IMAGE_LIMIT such masks and as many of its readings' masks (about 80 KB
#: for 100-bit masks).  The kl-consistency benchmark corpora of seeds 1-20,
#: run in one process, leave at most 157 images in a table.
IMAGE_LIMIT = 1024


def superset_count(n: int, l: int) -> int:
    """The number of nonempty sets of at most ``l`` of ``n`` variables,
    counted only until it passes :data:`SUPERSET_LIMIT`."""
    count = 0
    for m in range(1, min(l, n) + 1):
        count += math.comb(n, m)
        if count > SUPERSET_LIMIT:
            break
    return count


class PatternSpace(Protocol):
    """What the fixpoint needs to know about local solution fragments.

    ``template`` is the structure the space belongs to; the engine reads the
    declared arity of each relation from it.  The engine numbers patterns by
    their index in ``patterns(arity)``, so ``project`` and ``members`` must
    return patterns equal to listed ones.  A space whose ``patterns`` returns
    the same sequence object on every call shares the engine's projection
    tables with every other call on that sequence, so ``project`` must then
    depend on the pattern and the positions only.  Projections must compose,
    ``project(project(p, P), Q) == project(p, [P[q] for q in Q])`` for
    every position list ``P`` (repeats allowed) and ``Q`` into ``P``, and
    reading every position in order must give the pattern back,
    ``project(p, range(arity)) == p``.  The engine reads narrow subsets and
    permuted or repeated scopes through the first law, and translates a
    relation to a scope's positions through both.
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
        return _value_tuples(self.template.domain_size, arity)

    def project(self, pattern, positions):
        return tuple(pattern[i] for i in positions)

    def members(self, name):
        return self.template.relations[name].tuples


@lru_cache(maxsize=None)
def _value_tuples(domain_size: int, arity: int) -> tuple[tuple[int, ...], ...]:
    """One shared tuple per (domain size, arity), so that the engine keys
    one set of tables on it however many templates use it."""
    return tuple(product(range(domain_size), repeat=arity))


_DIGITS = bytes.maketrans(b"01", b"\x00\x01")


def _numbers(mask: int) -> list[int]:
    """The numbers whose bits are set in ``mask``, ascending."""
    return list(compress(count(), bin(mask)[:1:-1].encode().translate(_DIGITS)))


def _mask(numbers: Iterable[int], size: int) -> int:
    """The mask of ``numbers``, all below ``size``, built in linear time
    (setting one bit at a time would copy the int at every step)."""
    digits = bytearray(b"0") * size
    for number in numbers:
        digits[number] = 49  # ord("1")
    digits.reverse()
    return int(digits, 2) if size else 0


class _Projection:
    """The patterns of one arity read at fixed positions: ``masks[q]`` is
    the mask of the filled patterns that read to number ``q``, ``filled``
    masks the numbers filled so far, ``unions`` caches, per allowed mask,
    the union of its readings' masks, and ``images`` caches, per pattern
    mask, the mask of the readings of its filled patterns.  A fill adds
    patterns to some readings' masks, so it empties both caches; the
    images are also dropped once there are :data:`IMAGE_LIMIT` of them."""

    __slots__ = ("masks", "unions", "images", "filled", "full", "_source", "_index", "_positions")

    def __init__(self, source: _Arity, target: _Arity, positions: tuple[int, ...]):
        self.masks = [0] * target.size
        self.unions: dict[int, int] = {}
        self.images: dict[int, int] = {}
        self.filled = 0
        self.full = source.full
        self._source, self._index, self._positions = source, target.index, positions

    def fill(self, mask: int, project) -> None:
        """Project the patterns of ``mask`` not filled yet, each once."""
        missing = mask & ~self.filled
        if not missing:
            return
        source, index, positions = self._source.patterns, self._index, self._positions
        groups: dict[int, list[int]] = {}
        for number in _numbers(missing):
            groups.setdefault(index[project(source[number], positions)], []).append(number)
        masks, size = self.masks, self._source.size
        for q, group in groups.items():
            masks[q] |= _mask(group, size)
        self.filled |= missing
        # A union or image cached before this fill lacks the new numbers.
        self.unions.clear()
        self.images.clear()

    def union(self, allowed: int) -> int:
        union = self.unions.get(allowed)
        if union is None:
            masks, union, rest = self.masks, 0, allowed
            while rest:
                low = rest & -rest
                union |= masks[low.bit_length() - 1]
                rest ^= low
            self.unions[allowed] = union
        return union

    def image(self, mask: int) -> int:
        """The mask of the readings of the filled patterns of ``mask``."""
        image = self.images.get(mask)
        if image is None:
            if len(self.images) >= IMAGE_LIMIT:
                self.images.clear()
            image = self.images[mask] = _mask(
                compress(count(), [m & mask for m in self.masks]), len(self.masks))
        return image


class _Arity:
    """The numbered patterns of one arity, the number of each pattern
    (``index``), the projection tables read out of them, keyed by
    positions, and per positions P read back (``readbacks``) the number
    of the one pattern that reads to each member met so far at P, or None.

    A member p is read back at F, the first index in P of each position
    below the arity.  By the composition and identity laws, a pattern q
    with ``project(q, P) == p`` is ``project(p, F)``, so that is the only
    candidate, and it counts when its reading at P is p."""

    __slots__ = ("patterns", "size", "full", "index", "tables", "readbacks")

    def __init__(self, patterns: Sequence[object]):
        self.patterns = patterns
        self.size = len(patterns)
        self.full = (1 << self.size) - 1
        self.index = {p: i for i, p in enumerate(patterns)}
        self.tables: dict[tuple[int, ...], _Projection] = {}
        self.readbacks: dict[tuple[int, ...], dict[object, Optional[int]]] = {}


# (space class, id of a patterns sequence) -> its numbered patterns and
# tables.  Each entry holds its sequence, so the id is never reused.
_MEMO: dict[tuple[type, int], _Arity] = {}


def _numbered(space: PatternSpace, patterns: dict[int, Sequence[object]]) -> dict[int, _Arity]:
    """The numbered patterns per arity: from the process-wide memo when the
    space returns the same sequences on every call, else for one call."""
    if not all(space.patterns(m) is listed for m, listed in patterns.items()):
        return {m: _Arity(listed) for m, listed in patterns.items()}
    numbered = {}
    for m, listed in patterns.items():
        entry = _MEMO.get((type(space), id(listed)))
        if entry is None:
            entry = _MEMO[type(space), id(listed)] = _Arity(listed)
        numbered[m] = entry
    return numbered


def _projection(arities: dict[int, _Arity], arity: int, positions: tuple[int, ...]) -> _Projection:
    """The table that reads patterns of ``arity`` at the ascending, distinct
    ``positions``; its readers fill it."""
    source = arities[arity]
    table = source.tables.get(positions)
    if table is None:
        table = source.tables[positions] = _Projection(source, arities[len(positions)], positions)
    return table


class _Shape:
    """The supersets of at most ``top`` of ``n`` variables, numbered in
    size-then-lexicographic order; the first ones, of at most ``widest``
    variables, are the subsets.  ``keys[s]`` is subset ``s``, ``index`` maps
    a subset to its number, ``sizes[i]`` is superset ``i``'s size,
    ``subsets[i]`` the subsets it reads in the order of ``widths[size]``
    and :func:`~itertools.combinations`, ``containing[s]`` the supersets
    that read subset ``s``, and ``ends[size]`` the number of supersets of
    at most ``size`` variables.  Nothing here is changed after it is built,
    so every call with the same shape shares it."""

    __slots__ = ("n", "keys", "index", "sizes", "widths", "subsets", "containing", "ends")

    def __init__(self, n: int, widest: int, top: int):
        self.n = n
        # Per superset size, the sizes of the subsets it reads.
        self.widths = {size: (widest,) if size > widest else range(1, size + 1)
                       for size in range(1, top + 1)}
        self.keys = tuple(chain.from_iterable(
            combinations(range(n), size) for size in range(1, widest + 1)))
        self.index = {S: s for s, S in enumerate(self.keys)}
        index, sizes, subsets = self.index, [], []
        containing: list[list[int]] = [[] for _ in self.keys]
        self.ends: dict[int, int] = {}
        for size, widths in self.widths.items():
            for L in combinations(range(n), size):
                read = tuple(map(index.__getitem__, chain.from_iterable(
                    combinations(L, m) for m in widths)))
                for s in read:
                    containing[s].append(len(sizes))
                sizes.append(size)
                subsets.append(read)
            self.ends[size] = len(sizes)
        self.sizes, self.subsets = tuple(sizes), tuple(subsets)
        self.containing = tuple(map(tuple, containing))

    def around(self, support: tuple[int, ...]) -> Iterable[tuple[int, tuple[int, ...]]]:
        """Each superset that contains the ascending ``support``, as its
        number and the positions of ``support`` in it.  Of the
        size-t combinations of n variables, ``sum(comb(n - 1 - L[j], t - j))``
        come after L, so L is numbered that many before ``ends[t] - 1``."""
        n = self.n
        rest = [v for v in range(n) if v not in support]
        for size in range(len(support), len(self.ends) + 1):
            last = self.ends[size] - 1
            for extra in combinations(rest, size - len(support)):
                L = sorted(support + extra)
                yield (last - sum(math.comb(n - 1 - v, size - j) for j, v in enumerate(L)),
                       tuple(map(L.index, support)))


# (n, widest, top) -> its shape; at most SUPERSET_LIMIT supersets in all.
_SHAPES: dict[tuple[int, int, int], _Shape] = {}


def _shape(n: int, widest: int, top: int) -> _Shape:
    """The shared shape, built on first use.  A shape that would take the
    kept ones past :data:`SUPERSET_LIMIT` clears them first, and one larger
    than the limit serves its call only."""
    key = (n, widest, top)
    shape = _SHAPES.get(key)
    if shape is None:
        shape = _Shape(n, widest, top)
        count = len(shape.sizes)
        if count <= SUPERSET_LIMIT:
            if count + sum(len(kept.sizes) for kept in _SHAPES.values()) > SUPERSET_LIMIT:
                _SHAPES.clear()
            _SHAPES[key] = shape
    return shape


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


class _KLState:
    """The (k,l) fixpoint state of one instance, on pattern masks.

    Supersets of at most l variables are numbered in size-then-lexicographic
    order; the first ones, of at most k variables, are also the subsets, and
    ``allowed[s]`` is subset ``s``'s mask.  ``viable[i]`` is the mask of
    superset ``i``'s patterns that still project into every allowed set of
    the subsets it reads, ``subsets[i]`` lists those subsets in the order of
    ``readings[size]``, and ``containing[s]`` the supersets that read
    subset ``s``.  ``keys``, ``sizes``, ``subsets`` and ``containing`` are
    the shared :class:`_Shape`'s tuples and are never changed; only the
    masks belong to the state.  ``empty`` is set once some mask is found
    empty.

    A superset of at most k variables reads all its nonempty subsets,
    itself included, so at the fixpoint its allowed and viable masks agree;
    a wider one reads only its k-subsets, and its candidates skip the
    constraints on fewer than k variables.  Since
    ``project(project(p, P), Q) == project(p, [P[q] for q in Q])``, the
    k-subsets carry every narrower reading and constraint, and the fixpoint
    is the one that reading every subset gives.

    The candidates are found from the supports: the constraints on one
    support S (its ascending distinct variables) are translated to S and
    met in one mask, which is admitted only at the supersets that read S,
    through the table that reads S in each (at S itself, directly).  These
    are ``containing[s]`` when S is subset ``s``, else the supersets around
    S (:meth:`_Shape.around`).  Supports come in size-then-lexicographic
    order, so each superset admits its constraints in the order that
    scanning its own subsets would, and every table fills over the same
    candidates.

    A table is filled where it is read, over the mask it is read with: a
    support's over the candidates, a reading's over the visiting superset's
    mask, which shrinks with each reading before it.
    """

    def __init__(self, instance: Instance, space: PatternSpace, k: int, l: int):
        self.k, self.l = k, l
        self.space = space
        self.variables = instance.variables
        n = len(self.variables)
        widest = min(k, n)
        # Largest arity first, so that an over-budget (k,l) fails before any work.
        try:
            patterns = {m: space.patterns(m) for m in range(min(l, n), 0, -1)}
        except BudgetExceeded as exc:
            raise BudgetExceeded(
                f"(k,l) = ({k},{l}) needs patterns of arity {min(l, n)}: {exc}"
            ) from exc
        arities = self._arities = _numbered(space, dict(sorted(patterns.items())))
        shape = _shape(n, widest, min(l, n))
        self.keys, self._index, self.sizes = shape.keys, shape.index, shape.sizes
        self.subsets, self.containing = shape.subsets, shape.containing
        self._widest = widest
        self._members: dict[tuple[str, tuple[int, ...]], int] = {}

        position = self._position = {v: i for i, v in enumerate(self.variables)}
        # Per support, its constraints with their scopes as positions in it.
        by_support: dict[tuple[int, ...], list[tuple[str, tuple[int, ...]]]] = {}
        for name, scope in instance.constraints:
            scope = tuple(map(position.__getitem__, scope))
            support = tuple(sorted(set(scope)))
            by_support.setdefault(support, []).append((name, tuple(map(support.index, scope))))

        # Per superset size, the table of each reading, in combinations() order.
        readings = self.readings = {
            size: [_projection(arities, size, positions) for m in shape.widths[size]
                   for positions in combinations(range(size), m)] for size in arities}
        viable = self.viable = [arities[size].full for size in self.sizes]
        sizes, subsets, project = self.sizes, self.subsets, space.project
        for support in sorted(by_support, key=lambda S: (len(S), S)):
            if len(support) > len(arities):
                break  # no superset holds it
            members = -1
            for name, positions in by_support[support]:
                members &= self._translated(name, positions)
            # Each superset that reads the support, with the table it reads
            # the support through, or None at the support itself.
            if len(support) <= widest:
                s = shape.index[support]
                at = [(i, readings[sizes[i]][subsets[i].index(s)] if i != s else None)
                      for i in shape.containing[s]]
            else:
                at = [(i, _projection(arities, sizes[i], positions)
                       if len(positions) < sizes[i] else None)
                      for i, positions in shape.around(support)]
            for i, table in at:
                candidates = viable[i]
                if table is None:
                    viable[i] = candidates & members
                    continue
                if table.filled != table.full:
                    table.fill(candidates, project)
                union = table.unions.get(members)
                viable[i] = candidates & (table.union(members) if union is None else union)
        self.allowed = viable[:len(self.keys)]
        # A superset wider than k with an empty mask would end the fixpoint
        # on its first visit, so the state is empty already.
        self.empty = 0 in viable

    def _translated(self, name: str, positions: tuple[int, ...]) -> int:
        """The mask of the patterns of arity ``max(positions) + 1`` whose
        ``positions`` reading lies in relation ``name``; ``positions`` uses
        every position below its maximum."""
        key = (name, positions)
        mask = self._members.get(key)
        if mask is None:
            arity, project = max(positions) + 1, self.space.project
            source, members = self._arities[arity], self.space.members(name)
            first = tuple(map(positions.index, range(arity)))
            numbers = source.readbacks.setdefault(positions, {})
            for p in members:
                if p not in numbers:
                    q = project(p, first)
                    numbers[p] = source.index.get(q) if project(q, positions) == p else None
            mask = _mask((i for i in map(numbers.get, members) if i is not None), source.size)
            self._members[key] = mask
        return mask

    def subset(self, variables: Sequence[str]) -> int:
        """The number of the subset on ``variables``."""
        key = tuple(sorted({self._position[v] for v in variables}))
        if key not in self._index:
            raise ParameterError(f"no subset of at most {self._widest} variables on {variables!r}")
        return self._index[key]

    def narrow(self, variables: Sequence[str], numbers: Iterable[int]) -> None:
        """Keep only the patterns numbered ``numbers`` on ``variables``;
        :meth:`propagate` with that subset restores the fixpoint."""
        s = self.subset(variables)
        self.allowed[s] &= _mask(numbers, self._arities[len(self.keys[s])].size)

    def propagate(self, changed: Optional[Iterable[Sequence[str]]] = None) -> bool:
        """Run the fixpoint; False once some mask is empty.

        With ``changed`` unset, every superset is visited, in
        size-then-lexicographic order; else only the supersets that read
        one of the ``changed`` subsets (variable tuples), and then those
        whose subsets shrink in turn.  Every visit narrows the superset's
        mask by its readings and then cuts each subset it reads down to the
        image of that mask, which each table keeps per mask; after the first
        visit a superset is queued again only when one of those images loses
        a pattern, so its mask shrinks.
        """
        if self.empty:
            return False
        allowed, viable, sizes, subsets = self.allowed, self.viable, self.sizes, self.subsets
        containing, readings, project = self.containing, self.readings, self.space.project
        if changed is None:
            queue = deque(range(len(viable)))
            queued = bytearray(b"\x01") * len(viable)
        else:
            queue, queued = deque(), bytearray(len(viable))
            for variables in changed:
                for i in containing[self.subset(variables)]:
                    if not queued[i]:
                        queued[i] = 1
                        queue.append(i)
        while queue:
            i = queue.popleft()
            mine = viable[i]
            read = list(zip(subsets[i], readings[sizes[i]]))
            # The caches are read inline: a method is called only on a miss.
            for s, table in read:
                if table.filled != table.full:
                    table.fill(mine, project)
                union = table.unions.get(allowed[s])
                mine &= table.union(allowed[s]) if union is None else union
            if not mine:
                self.empty = True
                return False
            viable[i] = mine
            for s, table in read:
                image = table.images.get(mine)
                kept = allowed[s] & (table.image(mine) if image is None else image)
                if kept != allowed[s]:
                    # Every pattern of ``mine`` reads into allowed[s], so
                    # kept is not empty, and it is the image of ``mine``:
                    # superset i needs no second visit.
                    allowed[s] = kept
                    for j in containing[s]:
                        if not queued[j]:
                            queued[j] = 1
                            queue.append(j)
            queued[i] = 0
        return True

    def result(self):
        """The state as pattern objects, or :data:`EMPTY_DERIVED`."""
        if self.empty:
            return EMPTY_DERIVED
        names, arities = self.variables, self._arities
        return ConsistencyState(self.k, self.l, names, {
            tuple(names[v] for v in S): {arities[len(S)].patterns[p] for p in _numbers(mask)}
            for S, mask in zip(self.keys, self.allowed)})


def establish_kl(instance: Instance,
                 template: Union[FiniteStructure, PatternSpace],
                 k: int = 2, l: int = 3):
    """Run the (k,l)-consistency fixpoint.

    Returns a :class:`ConsistencyState`, or :data:`EMPTY_DERIVED` as soon as
    some subset's pattern set becomes empty.  Raises BudgetExceeded, naming
    (k,l), before any work when the space cannot enumerate the patterns of
    the largest superset.  The fixpoint is independent of processing order;
    supersets are first visited in size-then-lexicographic order for
    reproducibility of the work done.
    """
    if k < 1 or l < k:
        raise ParameterError(f"need 1 <= k <= l, got ({k}, {l})")
    space = FinitePatterns(template) if isinstance(template, FiniteStructure) else template
    check_signature(instance, space.template)
    state = _KLState(instance, space, k, l)
    state.propagate()
    return state.result()
