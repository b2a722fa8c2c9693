"""Reducts of the generic tournament and the random graph.

Relations over these structures are finite unions of complete types: a type
of arity ``k`` records which positions coincide and an edge label for every
pair of distinct blocks.  Because the base structures are homogeneous in a
binary language, an operation is summarised exactly by its *behavior* -- a
finite table mapping tuples of pair labels to a pair label -- and a relation
is preserved by an operation iff its type set is closed under the pointwise
behavior action.  That reduces the dichotomy questions to finite searches
over behavior tables, which this module implements together with a
brute-force instance oracle and a pattern-space adapter for the local
consistency engine.

A behavior search compiles the closure checks of a template once per
behavior arity (``_compile_checks``).  The checks depend on the arity, not
on the shape, so ``classify_reduct`` shares one compile between the shapes
of an arity.  A tuple of types of one partition reads only cells the shape
pins: the all-EQ cell and injective cells.  On a base's two labels each
shape acts there as one Boolean operation on one bit per position pair
(``_SHAPE_OPS``: bitwise majority, x ^ y ^ z, AND, OR), and the images of a
partition class stay in its partition.  So a class passes its pinned checks
exactly when its types, as bit masks, are closed under that operation,
Schaefer's closure test (``_closed``): one rank computation for minority
(``polyengine._gf2_span``, the span the affine solver reduces too), and one
image per distinct pair or triple of masks for the other shapes.  A tuple
that mixes partitions reads a free cell, which mixes EQ with base labels
and need not be symmetric, so it stays one check per ordered tuple: each
type's fingerprint becomes a vector of symbol indices, the tuple reads, at
each position pair, the table cell of its symbols there, and the checks
form a finite constraint over the free cells, solved by
``relstruct._assignments``, the package's one backtracker.

Complete types are built by one generator, ``_placements``: it places one
position at a time, joining each existing block and then opening a new
block under every labeling toward the earlier blocks, and a prefix callback
prunes every completion of a rejected prefix.  ``enumerate_types`` sorts
its output into partition-major order, and ``solve_instance_brute`` is one
call to ``relstruct._first_placement``, the exhaustive search shared with
the temporal oracle: its prefix callback reads the position pair (p, q) off
the label table as ``table[block_of[p]][block_of[q]]`` and compares the
readings with the relations' fingerprints.  Each placement is built
by ``_type_of`` from a block vector and its block-pair labels in
lexicographic pair order, and so is each type literal the template parser
reads (``cli._HomogReader``): one builder for both.  ``_place`` reads the
pair labels off its label table at each leaf; the parser writes them in
pair order as it reads the arc or edge items.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
from dataclasses import dataclass
from enum import Enum, IntEnum
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence, Union

from .errors import (
    ArityMismatch,
    BudgetExceeded,
    DomainMismatch,
    MalformedPattern,
    ParameterError,
    ShapeUnsupported,
    UnsupportedBase,
)
from .polyengine import _gf2_span
from .relstruct import Instance, _assignments, _first_placement, encode_tuple

TYPE_ARITY_LIMIT = 6
BRUTE_VARIABLE_LIMIT = 6
RECHECK_CELL_LIMIT = 20
#: Most closure checks one relation may ask of one arity: the ordered tuples
#: of types that mix partition classes, and apart from them the distinct
#: tuples of masks the closure test of a shape other than minority reads.
#: A majority-closed class of 162 five-ary tournament types reads all
#: C(162, 3) = 695 520 triples: classify takes 0.13 s and peaks at 18 MB on
#: a 2-core Xeon.
CHECK_LIMIT = 2 ** 20
#: Most table cells the free checks of one arity may read, one per check
#: and position pair, over all relations.  20 graph types of arity 32, each
#: of its own partition (one merged pair), read 20^3 - 20 = 7 980 mixing
#: triples of 496 pairs, 3 958 080 cells, at arity 3: classify takes 0.3 s
#: and peaks at 80 MB on a 2-core Xeon.
CELL_LIMIT = 2 ** 22
#: Most block sets the clique tests of one clique-free relation may read.
#: A 150-block K(75,75) type over kfree(3) reads 208 125 and is checked in
#: 0.3 s on a 2-core Xeon.
CLIQUE_LIMIT = 2 ** 18
#: Largest n of ``kfree(n)``, as the template parser enforces.  The clique
#: tests pass n - 1 to itertools.combinations, which needs a C ssize_t.
KFREE_LIMIT = 4096


class Label(IntEnum):
    """Pair labels: equality plus the two edge labels of either base."""

    EQ = 0
    FWD = 1
    BWD = 2
    E = 3
    N = 4

    def __str__(self) -> str:
        return self.name

    @property
    def flipped(self) -> "Label":
        """Reverse arc orientation; equality and graph labels are symmetric."""
        return _FLIP[self]


_FLIP = {
    Label.EQ: Label.EQ,
    Label.FWD: Label.BWD,
    Label.BWD: Label.FWD,
    Label.E: Label.E,
    Label.N: Label.N,
}


@dataclass(frozen=True)
class Base:
    """One of the three base structures; ``forbidden`` is the clique bound."""

    kind: str
    forbidden: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in ("tournament", "graph", "kfree"):
            raise ParameterError(f"unknown base kind {self.kind!r}")
        if self.kind == "kfree":
            if self.forbidden is None or self.forbidden < 3:
                raise ParameterError("kfree base needs a clique bound >= 3")
            if self.forbidden > KFREE_LIMIT:
                raise ParameterError(f"kfree base needs a clique bound <= {KFREE_LIMIT}")
        elif self.forbidden is not None:
            raise ParameterError(f"{self.kind} base takes no clique bound")

    @property
    def labels(self) -> tuple[Label, Label]:
        if self.kind == "tournament":
            return (Label.FWD, Label.BWD)
        return (Label.E, Label.N)

    @property
    def oriented(self) -> bool:
        return self.kind == "tournament"

    def __str__(self) -> str:
        if self.kind == "kfree":
            return f"kfree({self.forbidden})"
        return self.kind


TOURNAMENT = Base("tournament")
GRAPH = Base("graph")


def kfree(n: int) -> Base:
    """The universal homogeneous K_n-free graph."""
    return Base("kfree", n)


def _pair_index(k: int, i: int, j: int) -> int:
    """Index of the pair (i, j), i < j, in lexicographic pair order."""
    return i * (2 * k - i - 1) // 2 + (j - i - 1)


@dataclass(frozen=True, order=True)
class LabeledType:
    """A complete type: a partition of positions plus labels on block pairs.

    Blocks are ordered by least position and ascending internally; ``labels``
    holds one entry per block pair (b1 < b2) in lexicographic order.  An
    oriented label is stated relative to the ascending order of the block
    representatives, i.e. FWD at (b1, b2) is an arc from b1's least position
    toward b2's least position.
    """

    arity: int
    partition: tuple[tuple[int, ...], ...]
    labels: tuple[Label, ...]

    def __post_init__(self) -> None:
        if self.arity < 1:
            raise MalformedPattern("types need arity >= 1")
        seen = sorted(p for block in self.partition for p in block)
        if seen != list(range(self.arity)):
            raise MalformedPattern("partition must cover each position once")
        for block in self.partition:
            if list(block) != sorted(block):
                raise MalformedPattern("block members must ascend")
        firsts = [block[0] for block in self.partition]
        if firsts != sorted(firsts):
            raise MalformedPattern("blocks must be ordered by least position")
        m = len(self.partition)
        if len(self.labels) != m * (m - 1) // 2:
            raise MalformedPattern("need one label per block pair")
        if any(lbl is Label.EQ for lbl in self.labels):
            raise MalformedPattern("distinct blocks cannot be labeled EQ")

    @classmethod
    def all_equal(cls, arity: int) -> "LabeledType":
        return cls(arity, (tuple(range(arity)),), ())

    @cached_property
    def _block_index(self) -> tuple[int, ...]:
        out = [0] * self.arity
        for b, block in enumerate(self.partition):
            for p in block:
                out[p] = b
        return tuple(out)

    @cached_property
    def fingerprint(self) -> tuple[Label, ...]:
        """label(i, j) for every position pair i < j, in lexicographic order.
        When every position is its own block, block pairs are position pairs
        and the fingerprint is ``labels`` itself."""
        m = len(self.partition)
        if m == self.arity:
            return self.labels
        block_of = self._block_index
        out = []
        for i, j in itertools.combinations(range(self.arity), 2):
            bi, bj = block_of[i], block_of[j]
            if bi == bj:
                out.append(Label.EQ)
            else:
                stored = self.labels[_pair_index(m, min(bi, bj), max(bi, bj))]
                out.append(stored if bi < bj else stored.flipped)
        return tuple(out)

    def project(self, positions: Sequence[int]) -> "LabeledType":
        """The type of the reordered tuple; repeated positions merge."""
        if not positions:
            raise MalformedPattern("types need arity >= 1")
        block_of = self._block_index
        # Old block -> new block, numbered by first occurrence, so new
        # blocks are ordered by least position.
        renumber: dict[int, int] = {}
        partition: list[list[int]] = []
        for a, p in enumerate(positions):
            if not 0 <= p < self.arity:
                raise ParameterError("position out of range")
            c = renumber.setdefault(block_of[p], len(partition))
            if c == len(partition):
                partition.append([a])
            else:
                partition[c].append(a)
        m, labels = len(self.partition), self.labels
        return _unchecked(
            LabeledType,
            arity=len(positions),
            partition=tuple(map(tuple, partition)),
            labels=tuple(
                labels[_pair_index(m, b1, b2)] if b1 < b2
                else labels[_pair_index(m, b2, b1)].flipped
                for b1, b2 in itertools.combinations(renumber, 2)))

    @cached_property
    def _joined_earlier(self) -> tuple[list[int], ...]:
        """Per block, the earlier blocks it is labeled E with."""
        m, labels = len(self.partition), self.labels
        return tuple(
            [a for a in range(b) if labels[_pair_index(m, a, b)] is Label.E]
            for b in range(m)
        )

    def _clique_sets(self, size: int) -> int:
        """How many block sets ``has_clique(size)`` tests at most."""
        return sum(math.comb(len(earlier), size - 1) for earlier in self._joined_earlier)

    def has_clique(self, size: int) -> bool:
        """Whether ``size`` >= 1 blocks are pairwise labeled E: whether some
        block closes such a clique with the earlier blocks it is joined to,
        the test ``_placements`` runs on each new block."""
        m, labels = len(self.partition), self.labels

        def joined(a: int, b: int) -> bool:
            return labels[_pair_index(m, a, b)] is Label.E

        return any(_closes_clique(joined, earlier, size) for earlier in self._joined_earlier)


def _unchecked(cls: type, **fields):
    """A ``LabeledType`` or ``PairBehavior`` from parts that are valid by
    construction, so __post_init__'s checks are skipped; the instance is
    frozen, hence the ``__dict__`` update.  ``fields`` may also fill a
    cached property."""
    made = object.__new__(cls)
    made.__dict__.update(fields)
    return made


def _type_of(block_of: Sequence[int], labels: Sequence[Label]) -> LabeledType:
    """The type whose position p lies in block ``block_of[p]`` and whose
    block pairs b < c, in lexicographic order, are labeled ``labels``, each
    the label from block b toward block c.  Both callers, ``_placements``
    and the template parser, number blocks by least position and label
    every block pair with a base label, so the parts are valid by
    construction."""
    blocks: list[list[int]] = []
    for p, b in enumerate(block_of):
        if b == len(blocks):
            blocks.append([p])
        else:
            blocks[b].append(p)
    return _unchecked(
        LabeledType,
        arity=len(block_of),
        partition=tuple(map(tuple, blocks)),
        labels=tuple(labels),
        _block_index=tuple(block_of))


def _closes_clique(
    joined: Callable[[int, int], bool], neighbours: Sequence[int], size: int
) -> bool:
    """Whether a block joined to each of ``neighbours`` closes a ``size``
    clique with them: whether ``size - 1`` of them are pairwise joined."""
    return any(
        all(joined(a, b) for a, b in itertools.combinations(combo, 2))
        for combo in itertools.combinations(neighbours, size - 1)
    )


@dataclass(frozen=True, eq=False)
class TypeSetRelation:
    """A relation given as the set of complete types it contains."""

    arity: int
    base: Base
    types: frozenset[LabeledType]

    def __post_init__(self) -> None:
        allowed = set(self.base.labels)
        if self.base.kind == "kfree":
            size = self.base.forbidden
            sets = sum(t._clique_sets(size) for t in self.types)
            if sets > CLIQUE_LIMIT:
                raise BudgetExceeded(
                    f"the {size}-clique tests of the types read {sets} block sets; "
                    f"the cap is {CLIQUE_LIMIT}"
                )
        for t in self.types:
            if t.arity != self.arity:
                raise ArityMismatch("relation types must share the arity")
            if not set(t.labels) <= allowed:
                raise DomainMismatch("type labels do not match the base")
            if self.base.kind == "kfree" and t.has_clique(self.base.forbidden):
                raise MalformedPattern("type contains a forbidden clique")

    def sorted_types(self) -> list[LabeledType]:
        return sorted(self.types)

    @cached_property
    def fingerprints(self) -> frozenset[tuple[Label, ...]]:
        return frozenset(t.fingerprint for t in self.types)


def type_set_relation(
    arity: int, base: Base, types: Iterable[LabeledType]
) -> TypeSetRelation:
    return TypeSetRelation(arity, base, frozenset(types))


@dataclass(frozen=True, eq=False)
class HomogTemplate:
    """A named family of relations over one base structure."""

    base: Base
    relations: Mapping[str, TypeSetRelation]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "relations", MappingProxyType(dict(self.relations))
        )
        for name, rel in self.relations.items():
            if rel.base != self.base:
                raise DomainMismatch(f"relation {name} uses a different base")


def _placements(
    n: int,
    base: Base,
    prefix_ok: Callable[[list[int], list[tuple[Label, ...]], int], bool],
) -> Iterator[LabeledType]:
    """Complete types of arity ``n`` over the base, one position at a time.

    Position i joins block 0, 1, ... in turn, then opens a new block whose
    labels toward the earlier blocks run through ``product(base.labels)``;
    over a clique-free base a new block that closes a forbidden clique is
    skipped.  ``block_of[p]`` is the block of position p and ``table[b][c]``
    the label from block b toward block c (EQ when b == c), so the position
    pair (p, q) reads ``table[block_of[p]][block_of[q]]``.  Once position i
    is placed, ``prefix_ok(block_of, table, i)`` is called; a false answer
    skips every completion of ``block_of[:i + 1]``.
    """
    return _place(0, [], [0] * n, base, prefix_ok)


def _place(
    i: int,
    table: list[tuple[Label, ...]],
    block_of: list[int],
    base: Base,
    prefix_ok: Callable[[list[int], list[tuple[Label, ...]], int], bool],
) -> Iterator[LabeledType]:
    """The completions of ``block_of[:i]`` for ``_placements``.  A module
    function, not a closure that names itself, so a finished search leaves
    no reference cycle behind."""
    n, m = len(block_of), len(table)
    if i == n:
        yield _type_of(block_of, [table[b][c] for b, c in itertools.combinations(range(m), 2)])
        return
    for b in range(m):
        block_of[i] = b
        if prefix_ok(block_of, table, i):
            yield from _place(i + 1, table, block_of, base, prefix_ok)
    for choice in itertools.product(base.labels, repeat=m):
        if base.kind == "kfree" and _closes_clique(
            lambda a, b: table[a][b] is Label.E,
            [b for b, lbl in enumerate(choice) if lbl is Label.E],
            base.forbidden,
        ):
            continue
        block_of[i] = m
        grown = [row + (lbl,) for row, lbl in zip(table, choice)]
        grown.append(tuple(lbl.flipped for lbl in choice) + (Label.EQ,))
        if prefix_ok(block_of, grown, i):
            yield from _place(i + 1, grown, block_of, base, prefix_ok)


@lru_cache(maxsize=None)
def enumerate_types(k: int, base: Base) -> tuple[LabeledType, ...]:
    """All complete types of arity ``k`` over the base, in a fixed order:
    partitions as restricted growth strings, then labels in product order.

    The tuple is shared between calls; a refused arity is not cached."""
    if k < 1:
        raise ParameterError("arity must be at least 1")
    if k > TYPE_ARITY_LIMIT:
        raise BudgetExceeded(f"type enumeration capped at arity {TYPE_ARITY_LIMIT}")
    return tuple(sorted(
        _placements(k, base, lambda block_of, table, i: True),
        key=lambda t: (t._block_index, t.labels),
    ))


@dataclass(frozen=True)
class PairBehavior:
    """A finite operation on pair labels.

    ``symbols`` lists the alphabet with EQ first; ``values`` is the table in
    row-major order (last argument varies fastest).  The table maps the
    all-EQ input to EQ and nothing else to EQ, and it commutes with
    reversing all arcs, so the symbols are closed under reversal; graph
    labels are their own reversal.
    """

    arity: int
    symbols: tuple[Label, ...]
    values: tuple[Label, ...]

    def __post_init__(self) -> None:
        if self.arity < 1:
            raise ParameterError("behaviors need arity >= 1")
        if len(set(self.symbols)) != len(self.symbols) or self.symbols[0] is not Label.EQ:
            raise MalformedPattern("symbols must be distinct and start with EQ")
        if any(_FLIP.get(s) not in self.symbols for s in self.symbols):
            raise MalformedPattern("symbols must be closed under reversal")
        if len(self.values) != len(self.symbols) ** self.arity:
            raise MalformedPattern("behavior table has the wrong size")
        if any(v not in self.symbols for v in self.values):
            raise MalformedPattern("behavior values must come from the symbols")
        if self.values[0] is not Label.EQ:
            raise MalformedPattern("the all-EQ input must map to EQ")
        if any(v is Label.EQ for v in self.values[1:]):
            raise MalformedPattern("only the all-EQ input may map to EQ")
        flip_index = _alphabet(self.symbols[1:], self.arity)[2]
        if list(map(self.values.__getitem__, flip_index)) != list(map(_FLIP.get, self.values)):
            raise MalformedPattern("behavior is not flip-equivariant")

    @cached_property
    def _symbol_index(self) -> dict[Label, int]:
        return {s: i for i, s in enumerate(self.symbols)}

    def index(self, labels: Sequence[Label]) -> int:
        idx = 0
        for lbl in labels:
            idx = idx * len(self.symbols) + self._symbol_index[lbl]
        return idx

    def __call__(self, *labels: Label) -> Label:
        if len(labels) != self.arity:
            raise ArityMismatch("wrong number of arguments")
        if any(l not in self._symbol_index for l in labels):
            raise DomainMismatch("label outside the behavior alphabet")
        return self.values[self.index(labels)]

    def cells(self) -> Iterable[tuple[tuple[Label, ...], Label]]:
        for i, cell in enumerate(itertools.product(self.symbols, repeat=self.arity)):
            yield cell, self.values[i]


class Shape(Enum):
    """The injective actions worth searching for on a two-label alphabet."""

    TERNARY_MAJORITY = "majority"
    TERNARY_MINORITY = "minority"
    BINARY_SL_E = "sl_e"
    BINARY_SL_N = "sl_n"

    @property
    def arity(self) -> int:
        return 3 if self in (Shape.TERNARY_MAJORITY, Shape.TERNARY_MINORITY) else 2


#: Each shape's action on one bit per position pair, a base's second label
#: being bit 1 and its first bit 0: the injective cells of the shape's
#: table, and the operation a partition class's masks must be closed under.
_SHAPE_OPS: dict[Shape, Callable[..., int]] = {
    Shape.TERNARY_MAJORITY: lambda x, y, z: x & y | x & z | y & z,
    Shape.TERNARY_MINORITY: lambda x, y, z: x ^ y ^ z,
    Shape.BINARY_SL_E: operator.and_,
    Shape.BINARY_SL_N: operator.or_,
}

#: A ``bytes.translate`` table that reads a fingerprint as a mask's bits:
#: the second labels (BWD, N) are 1, EQ and the first labels 0.
_BIT = bytes.maketrans(bytes(Label), b"00101")


TemplateLike = Union[HomogTemplate, Sequence[TypeSetRelation]]


def _template_relations(
    template: TemplateLike,
) -> tuple[Base, list[tuple[str, TypeSetRelation]]]:
    """The base and the named relations; a bare sequence names them #1, #2..."""
    if isinstance(template, HomogTemplate):
        named = [(n, template.relations[n]) for n in sorted(template.relations)]
        base = template.base
    else:
        named = [(f"#{i}", rel) for i, rel in enumerate(template, start=1)]
        if not named:
            raise ParameterError("empty template")
        base = named[0][1].base
    if any(rel.base != base for _, rel in named):
        raise DomainMismatch("relations must share the base")
    return base, named


def _require_shape(base: Base, shape: Shape) -> None:
    if base.oriented and shape in (Shape.BINARY_SL_E, Shape.BINARY_SL_N):
        raise ShapeUnsupported(
            "a semilattice on arcs would break flip-equivariance"
        )


@lru_cache(maxsize=None)
def _alphabet(
    labels: tuple[Label, ...], n: int
) -> tuple[tuple[Label, ...], tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """The table cells of arity ``n`` over labels closed under reversal (a
    base's, or a behavior's symbols after EQ): the symbols (EQ, then the
    labels), the symbol of each reversed symbol, the cell of the
    reversed arcs of each cell and the free cells, ascending, keeping the
    lower cell of each flip pair.  Graph labels are symmetric, so there
    each cell is its own reversal and every free cell is kept."""
    symbols = (Label.EQ,) + labels
    q = len(symbols)
    flip_symbol = tuple(symbols.index(s.flipped) for s in symbols)
    digits = list(itertools.product(range(q), repeat=n))
    flip_index = tuple(
        encode_tuple(tuple(flip_symbol[s] for s in d), q) for d in digits
    )
    free = tuple(
        c for c, d in enumerate(digits) if 0 in d and any(d) and c <= flip_index[c]
    )
    return symbols, flip_symbol, flip_index, free


@lru_cache(maxsize=None)
def _pinned_table(n: int, shape: Shape) -> tuple[Optional[int], ...]:
    """The shape's table of arity ``n`` as symbol indices (EQ, then a
    base's two labels): EQ on the all-EQ cell, the shape's bit operation on
    each injective cell, None on the free cells that mix EQ with base
    labels."""
    op = _SHAPE_OPS[shape]
    return tuple(
        1 + op(*(s - 1 for s in cell)) if all(cell) else None if any(cell) else 0
        for cell in itertools.product(range(3), repeat=n)
    )


def _closed(masks: Sequence[int], shape: Shape) -> bool:
    """Whether one partition class, as the distinct bit masks of its types,
    is closed under the shape's bit operation: whether it passes every
    pinned check.  The EQ pairs of the class are bit 0 in every mask and in
    every image.  A set of masks is closed under x ^ y ^ z exactly when it
    is a coset of a GF(2) subspace, and distinct masks fill the coset of
    the span of their differences exactly when they number 2 ** rank.  The
    other operations are symmetric and map a tuple that repeats a mask to
    a member (majority keeps the repeated mask, a semilattice is
    idempotent), so each distinct pair or triple of masks is read once."""
    if shape is Shape.TERNARY_MINORITY:
        return len(masks) == 1 << len(_gf2_span(masks))
    return all(map(set(masks).__contains__, itertools.starmap(
        _SHAPE_OPS[shape], itertools.combinations(masks, shape.arity))))


@dataclass(frozen=True, eq=False)
class _Checks:
    """The closure checks of one template for behaviors of one arity.

    A table cell is a tuple of symbols (EQ, then the base labels), numbered
    in ``itertools.product`` order, so cell 0 is all-EQ; labels are stored
    as symbol indices.  A check is a tuple of relation types: at each
    position pair it reads the cell of the pair's labels across the tuple,
    and it passes when the table's values there form a fingerprint of the
    relation.  Cells mixing EQ with base labels are free; the others are
    pinned by the shape.  None of this depends on the shape.

    The checks whose types share one partition read only pinned cells, so
    they are one closure test per partition class, kept as the bit masks of
    the class's types (``pinned``; ``_closed``).  A check whose types differ
    in partition reads a free cell, where the table need not be symmetric,
    so it stays one check per ordered tuple, in product order
    (``free_checks``).
    """

    arity: int
    symbols: tuple[Label, ...]
    flip_symbol: tuple[int, ...]
    # Per cell, the cell of the reversed arcs; the cell itself over a graph.
    flip_index: tuple[int, ...]
    # The free cells, ascending, keeping the lower cell of each flip pair.
    free: tuple[int, ...]
    # Per relation: its name and, per partition class, the masks of its types.
    pinned: tuple[tuple[str, tuple[tuple[int, ...], ...]], ...]
    # Per relation with types of more than one partition: its fingerprints,
    # its type vectors and the partition class of each type.
    split: tuple[tuple[frozenset, list[tuple[int, ...]], list[int]], ...]

    @cached_property
    def free_checks(self) -> list[tuple[tuple[int, ...], frozenset]]:
        """(cells, fingerprints) of every check that reads a free cell: each
        tuple of types from more than one partition class, relation by
        relation, in product order.  Built on first use, since a pass that
        fails a pinned check never reads them."""
        q, n = len(self.symbols), self.arity
        out = []
        for fingerprints, vectors, classes in self.split:
            columns = []
            for p in range(len(vectors[0])):
                column = [0]
                for _ in range(n):
                    column = [c * q + v[p] for c in column for v in vectors]
                columns.append(column)
            mixing = [len(set(t)) > 1 for t in itertools.product(classes, repeat=n)]
            out.extend(
                (cells, fingerprints)
                for cells in itertools.compress(zip(*columns), mixing)
            )
        return out


def _compile_checks(
    base: Base, named: Sequence[tuple[str, TypeSetRelation]], n: int
) -> _Checks:
    """Set up every closure check for behaviors of arity ``n``.

    The types of each relation are split by partition.  Each class becomes
    the bit masks of its types, one C-level read of each fingerprint, and
    each type of a relation with several classes a vector of symbol
    indices for the free checks; no cell is built here.  Raises
    BudgetExceeded before any fingerprint is read when a relation asks for
    more than CHECK_LIMIT free checks, or the free checks would read more
    than CELL_LIMIT cells in all (one per check and position pair).  Both
    count the ordered tuples of types that mix partition classes, the
    checks ``free_checks`` builds; the pinned pass has its own budget
    (``_pinned_closed``).
    """
    grouped = []
    cells = 0
    for name, rel in named:
        types = rel.sorted_types()
        classes: dict[tuple[tuple[int, ...], ...], list[LabeledType]] = {}
        for t in types:
            classes.setdefault(t.partition, []).append(t)
        count = len(types) ** n - sum(len(members) ** n for members in classes.values())
        if count > CHECK_LIMIT:
            raise BudgetExceeded(
                f"relation {name} needs {count} closure checks at arity {n}; "
                f"the cap is {CHECK_LIMIT}"
            )
        cells += count * (rel.arity * (rel.arity - 1) // 2)
        grouped.append((name, types, classes))
    if cells > CELL_LIMIT:
        raise BudgetExceeded(
            f"the closure checks at arity {n} read {cells} table cells; "
            f"the cap is {CELL_LIMIT}"
        )
    symbols, flip_symbol, flip_index, free = _alphabet(base.labels, n)
    symbol_of = {s: i for i, s in enumerate(symbols)}.__getitem__
    pinned = []
    split = []
    for name, types, classes in grouped:
        # The leading b"0" reads a type of arity 1, which has no pair, as 0.
        pinned.append((name, tuple(
            tuple(int(b"0" + bytes(t.fingerprint).translate(_BIT), 2) for t in members)
            for members in classes.values())))
        if len(classes) > 1:
            vectors = [tuple(map(symbol_of, t.fingerprint)) for t in types]
            class_of = {partition: c for c, partition in enumerate(classes)}
            split.append(
                (frozenset(vectors), vectors, [class_of[t.partition] for t in types])
            )
    return _Checks(
        n, symbols, flip_symbol, flip_index, free, tuple(pinned), tuple(split)
    )


def _pinned_closed(checks: _Checks, shape: Shape) -> bool:
    """Whether every partition class passes its pinned checks under
    ``shape`` (``_closed``).  Raises BudgetExceeded before it reads any
    class when a relation's classes hold more than CHECK_LIMIT distinct
    tuples of ``shape.arity`` masks; the rank test of minority reads none."""
    if shape is not Shape.TERNARY_MINORITY:
        for name, classes in checks.pinned:
            count = sum(math.comb(len(masks), shape.arity) for masks in classes)
            if count > CHECK_LIMIT:
                raise BudgetExceeded(
                    f"relation {name} needs {count} closure checks at arity "
                    f"{shape.arity}; the cap is {CHECK_LIMIT}"
                )
    return all(_closed(masks, shape) for _, classes in checks.pinned for masks in classes)


def _free_constraint(
    readings: Sequence[int], fingerprints: frozenset, flip_symbol: Sequence[int]
) -> tuple[frozenset, tuple[int, ...]]:
    """One check as a ``(tuple set, scope)`` constraint over free variables.

    A reading ``r >= 0`` is the symbol of a fixed cell; ``-1 - (2x + f)``
    reads variable x, flipped when f is 1.  A variable's value is the index
    of its representative cell's label in ``base.labels``.
    """
    scope = sorted({(-1 - r) >> 1 for r in readings if r < 0})
    slot = {x: i for i, x in enumerate(scope)}
    tuples = set()
    for fp in fingerprints:
        values: list[Optional[int]] = [None] * len(scope)
        for r, s in zip(readings, fp):
            if r >= 0:
                if r != s:
                    break
                continue
            if s == 0:
                break
            x, flipped = divmod(-1 - r, 2)
            value = (flip_symbol[s] if flipped else s) - 1
            i = slot[x]
            if values[i] is None:
                values[i] = value
            elif values[i] != value:
                break
        else:
            tuples.add(tuple(values))
    return frozenset(tuples), tuple(scope)


def _search(checks: _Checks, shape: Shape) -> Optional[PairBehavior]:
    """The first behavior acting as ``shape`` that passes every check.

    The pinned checks are one closure test per partition class
    (``_pinned_closed``), which is exact: the pinned cells hold the shape's
    bit operation, and a class's images stay in its partition.  A failed
    class ends the search before any free check is built.  The witness's
    table is flip-equivariant by construction, so it skips
    ``PairBehavior``'s checks.
    """
    if not _pinned_closed(checks, shape):
        return None
    table = list(_pinned_table(checks.arity, shape))
    readings: list = list(table)
    for x, c in enumerate(checks.free):
        readings[c] = -1 - 2 * x
        readings[checks.flip_index[c]] = -2 - 2 * x
    # Checks with the same readings of the same relation are one constraint.
    constraints: dict[tuple, tuple[frozenset, tuple[int, ...]]] = {}
    for cells, fingerprints in checks.free_checks:
        key = (tuple(map(readings.__getitem__, cells)), fingerprints)
        if key not in constraints:
            constraints[key] = _free_constraint(*key, checks.flip_symbol)
            if not constraints[key][0]:
                return None
    first = next(
        _assignments(
            len(checks.free), len(checks.symbols) - 1, list(constraints.values())
        ),
        None,
    )
    if first is None:
        return None
    for c, value in zip(checks.free, first):
        table[c] = value + 1
        table[checks.flip_index[c]] = checks.flip_symbol[value + 1]
    return _unchecked(
        PairBehavior, arity=shape.arity, symbols=checks.symbols,
        values=tuple(checks.symbols[s] for s in table))


def search_behavior(
    template: TemplateLike, shape: Shape
) -> Optional[PairBehavior]:
    """Find a behavior acting as ``shape`` on the injective alphabet.

    The injective cells are pinned by the shape and the all-EQ cell maps to
    EQ; the EQ-mixed cells are search variables (paired up by arc reversal
    over the tournament).  Every tuple of relation types is one closure
    check.  The checks whose types share one partition read only pinned
    cells, where the shape acts as one bit operation on the two labels
    (majority, x ^ y ^ z, AND or OR), so a partition class passes them
    exactly when the bit masks of its types are closed under it: a rank
    computation for minority, one image per distinct pair or triple of
    masks otherwise, and the first failure ends the search.  Each other
    check reads a free cell and stays one per ordered tuple: it becomes a
    finite constraint over the variables it reads, and the first solution
    of ``relstruct._assignments`` (variables in cell order, values in
    ``base.labels`` order) fills the table, so an exhausted search is a
    proof that no such behavior exists.
    """
    base, named = _template_relations(template)
    _require_shape(base, shape)
    return _search(_compile_checks(base, named, shape.arity), shape)


def confirm_no_behavior(template: TemplateLike, shape: Shape) -> bool:
    """Re-check a failed search by enumerating the free-cell assignments.

    Returns True when no assignment passes all closure checks.  This is the
    hardness certificate.  It shares the compiled checks and the pinned
    closure test (``_pinned_closed``) with ``search_behavior``, so its
    independence is the enumeration of the free cells, which replaces the
    search's constraint solver.  The pinned test's independent reference is
    ``reference_search_behavior`` in ``tests/oracles.py``, which reads every
    tuple of types off each shape's label-level definition.  A
    failed partition class fails every assignment.  The free checks are
    read once per ordered tuple, in the order of the last free cell they
    read, and the assignments run in product order.  When a check fails,
    every later assignment that agrees with the current one up to that
    last free cell fails it too, so the enumeration moves past all of
    them.  The checks before the failed one still pass, so each step reads
    on from the first check whose last free cell changed.
    """
    base, named = _template_relations(template)
    _require_shape(base, shape)
    checks = _compile_checks(base, named, shape.arity)
    free, flip_index, flip_symbol = checks.free, checks.flip_index, checks.flip_symbol
    if len(free) > RECHECK_CELL_LIMIT:
        raise BudgetExceeded(
            f"full enumeration capped at {RECHECK_CELL_LIMIT} free cells"
        )
    if not _pinned_closed(checks, shape):
        return True
    table = list(_pinned_table(checks.arity, shape))
    read = table.__getitem__
    # The free cell each table cell is, -1 on the pinned cells.
    variable = [-1] * len(table)
    for x, c in enumerate(free):
        variable[c] = x
        variable[flip_index[c]] = x
    every = sorted(
        ((max(map(variable.__getitem__, cells)), cells, fingerprints)
         for cells, fingerprints in checks.free_checks),
        key=operator.itemgetter(0),
    )
    lasts = [last for last, _, _ in every]
    top = len(checks.symbols) - 1
    values = [1] * len(free)
    changed = start = 0  # the first free cell and the first check to redo
    while True:
        for c, s in zip(free[changed:], values[changed:]):
            table[c] = s
            table[flip_index[c]] = flip_symbol[s]
        for i in range(start, len(every)):
            last, cells, fingerprints = every[i]
            if tuple(map(read, cells)) not in fingerprints:
                break
        else:
            return False
        changed = last
        while changed >= 0 and values[changed] == top:
            changed -= 1
        if changed < 0:
            return True
        values[changed] += 1
        values[changed + 1:] = [1] * (len(values) - changed - 1)
        start = bisect.bisect_left(lasts, changed)


class VerdictKind(Enum):
    NP_COMPLETE = "NP_COMPLETE"
    P_BOUNDED_WIDTH = "P_BOUNDED_WIDTH"
    P_NOT_BOUNDED_WIDTH = "P_NOT_BOUNDED_WIDTH"
    P_CONSTANT = "P_CONSTANT"
    EQUALITY_P = "EQUALITY_P"
    EQUALITY_NPC = "EQUALITY_NPC"


@dataclass(frozen=True)
class Verdict:
    kind: VerdictKind
    witness: Optional[PairBehavior] = None
    shape: Optional[Shape] = None

    def __post_init__(self) -> None:
        needs_witness = self.kind in (
            VerdictKind.P_BOUNDED_WIDTH,
            VerdictKind.P_NOT_BOUNDED_WIDTH,
        )
        if needs_witness and (self.witness is None or self.shape is None):
            raise ParameterError("tractable width verdicts carry a witness")


def _partition_determined(rel: TypeSetRelation) -> bool:
    """Whether membership depends only on the equality pattern."""
    counts: dict[tuple[tuple[int, ...], ...], int] = {}
    for t in rel.types:
        counts[t.partition] = counts.get(t.partition, 0) + 1
    return all(
        count == 2 ** (len(partition) * (len(partition) - 1) // 2)
        for partition, count in counts.items()
    )


def _meet(
    p: tuple[tuple[int, ...], ...], q: tuple[tuple[int, ...], ...]
) -> tuple[tuple[int, ...], ...]:
    block_p = {pos: b for b, block in enumerate(p) for pos in block}
    block_q = {pos: b for b, block in enumerate(q) for pos in block}
    classes: dict[tuple[int, int], list[int]] = {}
    arity = sum(len(block) for block in p)
    for pos in range(arity):
        classes.setdefault((block_p[pos], block_q[pos]), []).append(pos)
    return tuple(
        tuple(block) for block in sorted(classes.values(), key=lambda b: b[0])
    )


def _meet_closed(rel: TypeSetRelation) -> bool:
    partitions = {t.partition for t in rel.types}
    return all(
        _meet(p, q) in partitions
        for p, q in itertools.product(partitions, repeat=2)
    )


def classify_reduct(template: TemplateLike) -> Verdict:
    """Decide complexity and width for a tournament or graph template.

    The cascade first catches the degenerate cases (a constant solution;
    relations that only constrain equalities), then searches behaviors: any
    majority or semilattice behavior gives bounded width, a minority
    behavior alone gives tractability without bounded width, and an
    exhausted search certifies NP-completeness.  The shapes are tried in
    one loop, the semilattices (graph only) and the majority first, so the
    first witness found decides the verdict; shapes of one arity are
    adjacent in that order and share one compile of the closure checks.
    """
    base, named = _template_relations(template)
    relations = [rel for _, rel in named]
    if base.kind == "kfree":
        raise UnsupportedBase(
            "no finite classification criterion for clique-free bases"
        )
    if all(LabeledType.all_equal(r.arity) in r.types for r in relations):
        return Verdict(VerdictKind.P_CONSTANT)
    if all(_partition_determined(r) for r in relations):
        if all(_meet_closed(r) for r in relations):
            return Verdict(VerdictKind.EQUALITY_P)
        return Verdict(VerdictKind.EQUALITY_NPC)
    width = () if base.oriented else (Shape.BINARY_SL_E, Shape.BINARY_SL_N)
    checks: Optional[_Checks] = None
    for shape in (*width, Shape.TERNARY_MAJORITY, Shape.TERNARY_MINORITY):
        if checks is None or checks.arity != shape.arity:
            checks = _compile_checks(base, named, shape.arity)
        witness = _search(checks, shape)
        if witness is not None:
            kind = (VerdictKind.P_NOT_BOUNDED_WIDTH if shape is Shape.TERNARY_MINORITY
                    else VerdictKind.P_BOUNDED_WIDTH)
            return Verdict(kind, witness, shape)
    return Verdict(VerdictKind.NP_COMPLETE)


def solve_instance_brute(
    instance: Instance, template: HomogTemplate
) -> Optional[LabeledType]:
    """Exhaustive solver: search a labeled partition of the variables.

    A solution is exactly a complete type over the variable tuple whose
    projection to every constraint scope lies in the constraint's relation
    (and which avoids forbidden cliques over a clique-free base).  The first
    placement of ``_placements`` that passes every constraint is returned,
    by ``relstruct._first_placement`` reading pairs off the label table.
    """
    return _first_placement(
        instance, HomogPatterns(template), BRUTE_VARIABLE_LIMIT,
        lambda n, prefix_ok: _placements(n, template.base, prefix_ok),
        operator.attrgetter("fingerprints"))


@dataclass(frozen=True, eq=False)
class HomogPatterns:
    """Pattern space of a homogeneous template: patterns are complete types."""

    template: HomogTemplate

    def patterns(self, arity: int) -> tuple[LabeledType, ...]:
        return enumerate_types(arity, self.template.base)

    def project(self, pattern: LabeledType, positions: Sequence[int]) -> LabeledType:
        return pattern.project(positions)

    def members(self, name: str) -> frozenset[LabeledType]:
        return self.template.relations[name].types
