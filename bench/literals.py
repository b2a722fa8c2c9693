"""Type literals of the template grammar, written and read apart from orbitcsp.

The benchmark generates its corpus as text and checks every report against
its own reading of that text, so nothing here imports the library.

A temporal type is a dense rank tuple: ``(0, 1, 1)`` is the literal
``1<2=3``.  A homogeneous type (tournament, graph, kfree) is a fingerprint:
the label of every position pair ``i < j`` in lexicographic pair order, one
of ``EQ`` (merged), ``FWD`` (arc from i to j), ``BWD`` (arc from j to i),
``E`` (edge) and ``N`` (non-edge).
"""

from __future__ import annotations

import itertools
import re
from typing import Optional, Sequence

EQ, FWD, BWD, E, N = "EQ", "FWD", "BWD", "E", "N"
FLIP = {EQ: EQ, FWD: BWD, BWD: FWD, E: E, N: N}
ORIENTED_LABELS = (FWD, BWD)
GRAPH_LABELS = (E, N)


# --- temporal weak orders -----------------------------------------------------


def canon(values: Sequence) -> tuple[int, ...]:
    """Dense ranks of comparable values, preserving their order."""
    rank = {v: i for i, v in enumerate(sorted(set(values)))}
    return tuple(rank[v] for v in values)


def weak_orders(k: int) -> list[tuple[int, ...]]:
    """Every dense rank tuple of length k, ascending."""
    return sorted({canon(r) for r in itertools.product(range(k), repeat=k)})


def order_literal(ranks: Sequence[int]) -> str:
    levels: dict[int, list[str]] = {}
    for position, r in enumerate(ranks):
        levels.setdefault(r, []).append(str(position + 1))
    return "<".join("=".join(levels[r]) for r in sorted(levels))


def parse_order(literal: str, arity: int) -> tuple[int, ...]:
    ranks = [-1] * arity
    for level, group in enumerate(literal.split("<")):
        for token in group.split("="):
            position = int(token.strip()) - 1
            if not 0 <= position < arity or ranks[position] != -1:
                raise ValueError(f"bad weak order literal {literal!r}")
            ranks[position] = level
    if -1 in ranks:
        raise ValueError(f"weak order literal {literal!r} misses a position")
    return tuple(ranks)


# --- homogeneous fingerprints -------------------------------------------------


def pairs(k: int) -> list[tuple[int, int]]:
    return list(itertools.combinations(range(k), 2))


def label(fp: Sequence[str], k: int, i: int, j: int) -> str:
    """Label of the ordered position pair (i, j) in a fingerprint."""
    if i == j:
        return EQ
    if i < j:
        return fp[i * (2 * k - i - 1) // 2 + (j - i - 1)]
    return FLIP[fp[j * (2 * k - j - 1) // 2 + (i - j - 1)]]


def project(fp: Sequence[str], k: int, positions: Sequence[int]) -> tuple[str, ...]:
    """Fingerprint of the tuple read at ``positions`` (repeats read EQ)."""
    return tuple(label(fp, k, positions[a], positions[b]) for a, b in pairs(len(positions)))


def _set_partitions(k: int):
    if k == 0:
        yield []
        return
    for rest in _set_partitions(k - 1):
        for b in range(len(rest)):
            yield rest[:b] + [rest[b] + [k - 1]] + rest[b + 1 :]
        yield rest + [[k - 1]]


def has_clique(fp: Sequence[str], k: int, size: int) -> bool:
    return any(
        all(label(fp, k, a, b) == E for a, b in itertools.combinations(combo, 2))
        for combo in itertools.combinations(range(k), size)
    )


def homog_types(
    k: int, oriented: bool, forbidden: Optional[int] = None, injective: bool = False
) -> list[tuple[str, ...]]:
    """Every fingerprint of arity k over the base, sorted."""
    labels = ORIENTED_LABELS if oriented else GRAPH_LABELS
    out = set()
    for partition in _set_partitions(k):
        if injective and len(partition) < k:
            continue
        block_of = {p: b for b, block in enumerate(partition) for p in block}
        block_pairs = pairs(len(partition))
        for choice in itertools.product(labels, repeat=len(block_pairs)):
            between = dict(zip(block_pairs, choice))
            fp = []
            for i, j in pairs(k):
                bi, bj = block_of[i], block_of[j]
                if bi == bj:
                    fp.append(EQ)
                elif bi < bj:
                    fp.append(between[(bi, bj)])
                else:
                    fp.append(FLIP[between[(bj, bi)]])
            if forbidden is not None and has_clique(fp, k, forbidden):
                continue
            out.add(tuple(fp))
    return sorted(out)


def type_literal(fp: Sequence[str], k: int, names: Optional[Sequence[str]] = None) -> str:
    """Literal of a fingerprint: merge items, then one item per block pair."""
    names = names or [str(i + 1) for i in range(k)]
    blocks: list[list[int]] = []
    for p in range(k):
        for block in blocks:
            if label(fp, k, block[0], p) == EQ:
                block.append(p)
                break
        else:
            blocks.append([p])
    items = ["=".join(names[p] for p in b) for b in blocks if len(b) > 1]
    for b1, b2 in itertools.combinations(blocks, 2):
        lbl = label(fp, k, b1[0], b2[0])
        if lbl == FWD:
            items.append(f"{names[b1[0]]}->{names[b2[0]]}")
        elif lbl == BWD:
            items.append(f"{names[b2[0]]}->{names[b1[0]]}")
        elif lbl == E:
            items.append(f"E({names[b1[0]]},{names[b2[0]]})")
    return ", ".join(items) if items else "-"


_ITEM = re.compile(r"\s*(?:E\(\s*(\w+)\s*,\s*(\w+)\s*\)|(\w+)\s*->\s*(\w+)|(\w+(?:\s*=\s*\w+)+))\s*")


def parse_type(literal: str, names: Sequence[str], oriented: bool) -> tuple[str, ...]:
    """Fingerprint of a literal over ``names``; ValueError when it is not a
    complete, consistent type of the base."""
    k = len(names)
    index = {name: i for i, name in enumerate(names)}
    parent = list(range(k))

    def find(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    arcs: list[tuple[int, int, str]] = []
    text = literal.strip()
    items = [] if text == "-" else _split_items(text)
    for item in items:
        m = _ITEM.fullmatch(item)
        if m is None:
            raise ValueError(f"bad item {item!r}")
        try:
            if m.group(1) is not None:
                if oriented:
                    raise ValueError("edge item over a tournament")
                arcs.append((index[m.group(1)], index[m.group(2)], E))
            elif m.group(3) is not None:
                if not oriented:
                    raise ValueError("arc item over a graph")
                arcs.append((index[m.group(3)], index[m.group(4)], FWD))
            else:
                members = [index[t.strip()] for t in m.group(5).split("=")]
                for p in members[1:]:
                    ra, rb = find(members[0]), find(p)
                    parent[max(ra, rb)] = min(ra, rb)
        except KeyError as exc:
            raise ValueError(f"unknown name in {item!r}") from exc
    between: dict[tuple[int, int], str] = {}
    for a, b, lbl in arcs:
        ra, rb = find(a), find(b)
        if ra == rb:
            raise ValueError("label inside a merged block")
        key, oriented_lbl = ((ra, rb), lbl) if ra < rb else ((rb, ra), FLIP[lbl])
        if between.setdefault(key, oriented_lbl) != oriented_lbl:
            raise ValueError("conflicting labels")
    fp = []
    for i, j in pairs(k):
        ri, rj = find(i), find(j)
        if ri == rj:
            fp.append(EQ)
            continue
        key = (min(ri, rj), max(ri, rj))
        lbl = between.get(key)
        if lbl is None:
            if oriented:
                raise ValueError(f"missing arc between {names[i]} and {names[j]}")
            lbl = N
        fp.append(lbl if ri < rj else FLIP[lbl])
    return tuple(fp)


def _split_items(text: str) -> list[str]:
    items, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        depth += ch == "("
        depth -= ch == ")"
        if ch == "," and depth == 0:
            items.append(text[start:i])
            start = i + 1
    items.append(text[start:])
    return items
