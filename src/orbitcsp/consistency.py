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
bit ``i`` stands for pattern ``i``.  A projection table maps each pattern
number of one arity to the number of its reading at fixed positions, in an
int32 image (a ``memoryview`` cast to ``"i"``, 4 bytes a pattern) filled
lazily; a reading of fewer than k positions goes through the k-position
reading that covers it, so each pattern is projected once per k-subset.
Beside the image, a table keeps one preimage mask per reading and caches,
per allowed mask, the union of its preimages, so that a pass over a
superset costs a few integer operations per subset.

The tables depend only on the pattern sequence, not on the template or the
instance, so they live as long as the process.  They are keyed on the
identity of the sequence ``space.patterns`` returns (the memoised tuples of
``homog.enumerate_types``, ``temporal.enumerate_weak_orders`` and
:class:`FinitePatterns`) and hold a reference to it; a space that builds a
fresh sequence on every call gets tables for that call only.  Preimage masks
are kept only once a table's image is complete; until then each call builds
them over its own candidates.  Relation memberships depend on the template
and belong to one call.

A call builds a :class:`_KLState`: per superset of at most l variables the
mask of its patterns that satisfy every constraint inside it, found through
an index of constraints by variable set, and per subset of at most k
variables its allowed mask.  :meth:`_KLState.propagate` runs a FIFO worklist
of supersets (AC-3, Mackworth 1977) that revisits a superset only when the
allowed set of one of its subsets shrank.  The greatest fixpoint does not
depend on the order of visits.  The state is mapped back to pattern objects
once, at the end.

Rejection is reported through the :data:`EMPTY_DERIVED` sentinel: some
subset's constraint became empty, which soundly implies the instance has no
solution.  The converse holds only for templates of bounded width.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations, compress, count, product
from typing import Any, Collection, Iterable, Optional, Protocol, Sequence, Union

from .errors import BudgetExceeded, ParameterError
from .relstruct import FiniteStructure, Instance, check_signature


class PatternSpace(Protocol):
    """What the fixpoint needs to know about local solution fragments.

    ``template`` is the structure the space belongs to; the engine reads the
    declared arity of each relation from it.  The engine numbers patterns by
    their index in ``patterns(arity)``, so ``project`` and ``members`` must
    return patterns equal to listed ones.  A space whose ``patterns`` returns
    the same sequence object on every call shares the engine's projection
    tables with every other call on that sequence, so ``project`` must then
    depend on the pattern and the positions only.
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


class _Preimages:
    """Per reading number, the mask of the patterns that read to it; and
    per allowed mask, the union of its readings' preimages."""

    __slots__ = ("masks", "unions")

    def __init__(self, image: memoryview, numbers: Iterable[int], targets: int):
        groups: list[list[int]] = [[] for _ in range(targets)]
        for number in numbers:
            groups[image[number]].append(number)
        self.masks = [_mask(group, len(image)) for group in groups]
        self.unions: dict[int, int] = {}

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


class _Projection:
    """Pattern number of one arity -> number of its reading at fixed
    positions, filled lazily; ``filled`` masks the numbers filled so far.

    A direct table projects each pattern; a composed one reads through a
    wider reading of the same arity (``outer``) and a table on that
    reading's arity (``inner``).
    """

    __slots__ = ("image", "filled", "full", "targets", "_direct", "_composed", "_complete")

    def __init__(self, size: int, targets: int, direct=None, composed=None):
        self.image = memoryview(bytearray(4 * size)).cast("i")
        self.filled = 0
        self.full = (1 << size) - 1
        self.targets = targets
        self._direct = direct  # (source patterns, reading index, positions)
        self._composed = composed  # (outer, inner)
        self._complete: Optional[_Preimages] = None

    def fill(self, mask: int, project) -> None:
        missing = mask & ~self.filled
        if not missing:
            return
        image = self.image
        if self._direct is not None:
            source, index, positions = self._direct
            for number in _numbers(missing):
                image[number] = index[project(source[number], positions)]
        else:
            outer, inner = self._composed
            outer.fill(missing, project)
            inner.fill(inner.full, project)
            wide, narrow = outer.image, inner.image
            for number in _numbers(missing):
                image[number] = narrow[wide[number]]
        self.filled |= missing

    def preimages(self, cover: int, project) -> _Preimages:
        """Preimage masks valid for every pattern in ``cover``.  Once the
        image is complete they are built over every pattern and kept."""
        self.fill(cover, project)
        if self.filled != self.full:
            return _Preimages(self.image, _numbers(cover), self.targets)
        if self._complete is None:
            self._complete = _Preimages(self.image, range(len(self.image)), self.targets)
        return self._complete


class _Arity:
    """The numbered patterns of one arity and the projection tables read
    out of them, keyed by positions."""

    __slots__ = ("patterns", "size", "full", "tables", "_index")

    def __init__(self, patterns: Sequence[object]):
        self.patterns = patterns
        self.size = len(patterns)
        self.full = (1 << self.size) - 1
        self.tables: dict[tuple[int, ...], _Projection] = {}
        self._index: Optional[dict[object, int]] = None

    @property
    def index(self) -> dict[object, int]:
        """Pattern -> its number."""
        if self._index is None:
            self._index = {p: i for i, p in enumerate(self.patterns)}
        return self._index


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


def _projection(arities: dict[int, _Arity], widest: int, arity: int,
                positions: tuple[int, ...]) -> _Projection:
    """The table from patterns of ``arity`` to their ``positions`` reading.

    A reading is looked up through the ascending reading of its distinct
    positions, padded to ``widest`` positions when that is fewer than
    ``arity``.  The fixpoint fills those ``widest``-position readings
    anyway, so one ``project`` call per pattern and k-subset serves the
    narrower, permuted and repeated readings inside it.
    """
    source = arities[arity]
    table = source.tables.get(positions)
    if table is None:
        wider = sorted(set(positions))
        if len(wider) <= widest < arity:
            # Pad with the first positions not read.
            wider += [i for i in range(arity) if i not in wider][:widest - len(wider)]
        wider = tuple(sorted(wider))
        targets = arities[len(positions)]
        if wider != positions and len(wider) < arity:
            table = _Projection(source.size, targets.size, composed=(
                _projection(arities, widest, arity, wider),
                _projection(arities, widest, len(wider), tuple(map(wider.index, positions)))))
        else:
            table = _Projection(source.size, targets.size,
                                direct=(source.patterns, targets.index, positions))
        source.tables[positions] = table
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


class _KLState:
    """The (k,l) fixpoint state of one instance, on pattern masks.

    Supersets of at most l variables are numbered in size-then-lexicographic
    order; the first ones, of at most k variables, are also the subsets, and
    ``allowed[s]`` is subset ``s``'s mask.  ``viable[i]`` is the mask of
    superset ``i``'s patterns that still project into every allowed set of
    its subsets, ``subsets[i]`` lists those subsets in the order of
    ``readings[size]``, and ``containing[s]`` the supersets that contain
    subset ``s``.  ``empty`` is set once some mask is found empty.
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
        self._widest = widest
        self._members: dict[tuple[str, int], set[int]] = {}
        self._admitted: dict[tuple[int, tuple[int, ...], str], int] = {}
        self.empty = False

        position = self._position = {v: i for i, v in enumerate(self.variables)}
        by_support: dict[tuple[int, ...], list[tuple[str, tuple[int, ...]]]] = {}
        for name, scope in instance.constraints:
            scope = tuple(map(position.__getitem__, scope))
            by_support.setdefault(tuple(sorted(set(scope))), []).append((name, scope))
        support_sizes = sorted({len(support) for support in by_support})

        self.keys: list[tuple[int, ...]] = []
        self._index: dict[tuple[int, ...], int] = {}
        self.allowed: list[int] = []
        self.viable: list[int] = []
        self.sizes: list[int] = []
        self.subsets: list[tuple[int, ...]] = []
        cover: dict[int, int] = {}
        for size in arities:
            reach = min(size, widest)
            covered = 0
            for L in combinations(range(n), size):
                candidates = arities[size].full
                at = None
                for m in support_sizes:
                    if m > size:
                        break
                    for support in combinations(L, m):
                        for name, scope in by_support.get(support, ()):
                            if at is None:
                                at = {v: i for i, v in enumerate(L)}
                            candidates = self._admit(
                                candidates, size, tuple(map(at.__getitem__, scope)), name)
                if size <= widest:
                    if not candidates:
                        self.empty = True
                        return
                    self._index[L] = len(self.keys)
                    self.keys.append(L)
                    self.allowed.append(candidates)
                self.viable.append(candidates)
                self.sizes.append(size)
                self.subsets.append(tuple(map(self._index.__getitem__, chain.from_iterable(
                    combinations(L, m) for m in range(1, reach + 1)))))
                covered |= candidates
            cover[size] = covered
        self.containing: list[list[int]] = [[] for _ in self.keys]
        for i, subsets in enumerate(self.subsets):
            for s in subsets:
                self.containing[s].append(i)
        # Per superset size, the preimages of each at-most-k reading, in the
        # order combinations() lists them.
        self.readings = {size: [
            _projection(arities, widest, size, positions).preimages(cover[size], space.project)
            for m in range(1, min(size, widest) + 1)
            for positions in combinations(range(size), m)] for size in cover}
        # Supersets whose subsets have not been projected from them yet.
        self._unvisited = bytearray(b"\x01") * len(self.viable)

    def _numbers_of(self, name: str, arity: int) -> set[int]:
        numbers = self._members.get((name, arity))
        if numbers is None:
            numbers = self._members[name, arity] = set(
                map(self._arities[arity].index.get, self.space.members(name)))
            numbers.discard(None)
        return numbers

    def _admit(self, candidates: int, size: int, positions: tuple[int, ...], name: str) -> int:
        """The candidates whose ``positions`` reading lies in relation ``name``.

        Once the reading's table is complete, the answer is one mask per
        call, kept for the other supersets of this size."""
        key = (size, positions, name)
        admitted = self._admitted.get(key)
        if admitted is not None:
            return candidates & admitted
        arities, project = self._arities, self.space.project
        source = arities[size]
        if len(positions) not in arities:
            # A relation wider than l, on repeated variables: its readings
            # are not numbered.
            numbers, members = _numbers(candidates), self.space.members(name)
            return _mask(compress(numbers, (project(source.patterns[p], positions) in members
                                            for p in numbers)), source.size)
        members = self._numbers_of(name, len(positions))
        if positions == tuple(range(size)):
            admitted = _mask(members, source.size)
        else:
            table = _projection(arities, self._widest, size, positions)
            table.fill(candidates, project)
            if table.filled != table.full:
                numbers = _numbers(candidates)
                return _mask(compress(numbers, map(members.__contains__,
                                                   map(table.image.__getitem__, numbers))),
                             source.size)
            masks = table.preimages(table.full, project).masks
            admitted = 0
            for q in members:
                admitted |= masks[q]
        self._admitted[key] = admitted
        return candidates & admitted

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
        size-then-lexicographic order; else only the supersets that contain
        one of the ``changed`` subsets (variable tuples), and then those
        whose subsets shrink in turn.
        """
        if self.empty:
            return False
        allowed, viable, sizes, subsets = self.allowed, self.viable, self.sizes, self.subsets
        containing, readings, unvisited = self.containing, self.readings, self._unvisited
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
            for s, preimages in zip(subsets[i], readings[sizes[i]]):
                mine &= preimages.union(allowed[s])
            if mine == viable[i] and not unvisited[i]:
                # Each subset's allowed set is already this superset's image.
                queued[i] = 0
                continue
            if not mine:
                self.empty = True
                return False
            viable[i] = mine
            unvisited[i] = 0
            for s, preimages in zip(subsets[i], readings[sizes[i]]):
                masks = preimages.masks
                kept = rest = allowed[s]
                while rest:
                    low = rest & -rest
                    if not masks[low.bit_length() - 1] & mine:
                        kept ^= low
                    rest ^= low
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
