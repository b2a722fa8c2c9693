"""Independent report checker.

Every report is read back with the benchmark's own parsers and checked
against the template and instance text as the benchmark itself reads it:

- ``levels:`` and ``labeling:`` lines must satisfy every constraint;
- ``subsets:`` must equal the number of non-empty variable sets of size at
  most k;
- behavior tables must act as their shape on injective cells and be closed
  over every relation's types; ``table:`` lines must satisfy their identities
  and preserve the two-element quotient;
- temporal modes must be the first of PP, DUAL_PP, LL, DUAL_LL whose
  operation preserves every relation, by a closure test on concrete values;
- statuses (``UNSAT``, ``EMPTY_DERIVED``, ``NP_COMPLETE``, ``NONE``, ...)
  must match the status known by construction, and, where the benchmark can
  decide it itself, its own decision.

Nothing here imports orbitcsp.  ``check`` returns None for a correct report
and a one-line reason otherwise; ``self_test`` corrupts correct reports and
returns the corruptions the checker failed to reject.
"""

from __future__ import annotations

import itertools
import re
from math import comb
from typing import Optional

from corpus import SHAPE_ARITY, Corpus, Op, close_injective, shape_value
from literals import (
    EQ,
    FLIP,
    GRAPH_LABELS,
    ORIENTED_LABELS,
    canon,
    has_clique,
    pairs,
    parse_order,
    parse_type,
    project,
)

TEMPORAL_MODES = ("PP", "DUAL_PP", "LL", "DUAL_LL")
SHAPE_NAMES = {
    "TERNARY_MAJORITY": "majority",
    "TERNARY_MINORITY": "minority",
    "BINARY_SL_E": "sl_e",
    "BINARY_SL_N": "sl_n",
}
IDENTITY_ARITY = {"semilattice": 2, "majority": 3, "minority": 3}


class Reject(Exception):
    """A report that does not match what the benchmark knows or computes."""


def _require(condition: bool, reason: str) -> None:
    if not condition:
        raise Reject(reason)


# --- reading the corpus text ------------------------------------------------------


class ReadTemplate:
    """A template file as read by the benchmark: base plus type sets."""

    def __init__(self, text: str):
        lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
        self.base = lines[0].split(":", 1)[1].strip()
        self.relations: dict[str, tuple[int, frozenset]] = {}
        for line in lines[1:]:
            m = re.fullmatch(r"rel (\w+)/(\d+): (.*)", line)
            name, arity = m.group(1), int(m.group(2))
            literals = [lit.strip() for lit in m.group(3).split(";")]
            if self.base == "temporal":
                types = frozenset(parse_order(lit, arity) for lit in literals)
            else:
                positions = [str(i + 1) for i in range(arity)]
                types = frozenset(parse_type(lit, positions, self.oriented) for lit in literals)
            self.relations[name] = (arity, types)

    @property
    def oriented(self) -> bool:
        return self.base == "tournament"

    @property
    def labels(self) -> tuple[str, str]:
        return ORIENTED_LABELS if self.oriented else GRAPH_LABELS


def read_instance(text: str) -> tuple[list[str], list[tuple[str, tuple[str, ...]]]]:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    variables = lines[0].split()[1:]
    constraints = []
    for line in lines[1:]:
        m = re.fullmatch(r"(\w+)\((.*)\)", line)
        constraints.append((m.group(1), tuple(v.strip() for v in m.group(2).split(","))))
    return variables, constraints


# --- temporal operations on concrete values ------------------------------------------


def _op_keys(mode: str, a, b):
    """Sortable keys of mode(a_i, b_i): equal keys mean equal values and key
    order is value order.  pp(x, y) is x for x <= 0 and a positive increasing
    image of y otherwise; ll puts x <= 0 below x > 0, ordering the lower
    group by (x, y) and the upper group by (y, x).  A dual is x, y ->
    -f(-x, -y), so its order is the reverse of f's on the negated inputs."""
    if mode.startswith("DUAL_"):
        keys = _op_keys(mode[5:], [-x for x in a], [-y for y in b])
        return [tuple(-part for part in key) for key in keys]
    if mode == "PP":
        return [(0, x, 0) if x <= 0 else (1, y, 0) for x, y in zip(a, b)]
    return [(0, x, y) if x <= 0 else (1, y, x) for x, y in zip(a, b)]


def _realisations(ranks):
    """Integer tuples of the given order type with zero below, on, between
    and above the levels."""
    for shift in range(2 * max(ranks) + 3):
        yield [2 * r - shift + 1 for r in ranks]


def mode_preserves(mode: str, types) -> bool:
    for ta, tb in itertools.product(sorted(types), repeat=2):
        for a in _realisations(ta):
            for b in _realisations(tb):
                if canon(_op_keys(mode, a, b)) not in types:
                    return False
    return True


def temporal_mode(template: ReadTemplate) -> Optional[str]:
    """The first mode whose operation preserves every relation, or None."""
    for mode in TEMPORAL_MODES:
        if all(mode_preserves(mode, types) for _, types in template.relations.values()):
            return mode
    return None


def quotient(template: ReadTemplate) -> dict[str, tuple[int, frozenset]]:
    """The two-element quotient (Z = 1, P = 0): a relation holds a 0/1 tuple
    iff some type has a nonnegative realisation whose zeros are its ones.
    Zeros are minimal, so they are the bottom level or nothing."""
    out = {}
    for name, (arity, types) in template.relations.items():
        rows = set()
        for t in types:
            rows.add((0,) * arity)
            rows.add(tuple(1 if r == 0 else 0 for r in t))
        out[name] = (arity, frozenset(rows))
    out["Z"] = (1, frozenset({(1,)}))
    out["P"] = (1, frozenset({(0,)}))
    return out


def table_ok(identity: str, arity: int, values, relations) -> bool:
    """Identity test and preservation test of a 0/1 operation table stored
    row-major (first argument most significant)."""

    def f(*args):
        return values[int("".join(map(str, args)), 2)]

    if identity == "semilattice":
        for x, y, z in itertools.product((0, 1), repeat=3):
            if f(x, x) != x or f(x, y) != f(y, x) or f(f(x, y), z) != f(x, f(y, z)):
                return False
    else:
        for x, y in itertools.product((0, 1), repeat=2):
            want = x if identity == "majority" else y
            if not f(x, x, y) == f(x, y, x) == f(y, x, x) == want:
                return False
    for rel_arity, rows in relations.values():
        for combo in itertools.product(sorted(rows), repeat=arity):
            if tuple(f(*col) for col in zip(*combo)) not in rows:
                return False
    return True


# --- homogeneous behaviors --------------------------------------------------------------


def behavior_closed(table, arity_of_shape: int, template: ReadTemplate) -> bool:
    """Whether the pointwise action of a behavior keeps every relation's
    types inside the relation; merged pairs stay merged only when every
    input merges them."""
    for k, types in template.relations.values():
        for combo in itertools.product(sorted(types), repeat=arity_of_shape):
            image = tuple(
                EQ if all(lbl == EQ for lbl in cell) else table[cell] for cell in zip(*combo)
            )
            if image not in types:
                return False
    return True


def _injective_only(template: ReadTemplate) -> bool:
    return all(EQ not in t for _, types in template.relations.values() for t in types)


def homog_verdict(template: ReadTemplate) -> tuple[str, tuple[str, ...]]:
    """Verdict and admissible witness shapes of an injective-only template.

    Inputs never merge, so only the shape-pinned injective cells act, and a
    shape exists iff every relation is closed under its injective action.
    """
    width = ("majority",) if template.oriented else ("sl_e", "sl_n", "majority")
    found = tuple(shape for shape in width if shape_exists(template, shape))
    if found:
        return "P_BOUNDED_WIDTH", found
    if shape_exists(template, "minority"):
        return "P_NOT_BOUNDED_WIDTH", ("minority",)
    return "NP_COMPLETE", ()


def shape_exists(template: ReadTemplate, shape: str) -> bool:
    """Whether a behavior of the shape preserves an injective-only template."""
    _require(_injective_only(template), "shape search needs an injective-only template")
    return all(close_injective(sorted(t), k, shape) == sorted(t) for k, t in template.relations.values())


# --- the checker ---------------------------------------------------------------------------


class Checker:
    def __init__(self, corpus: Corpus):
        self.templates = {k: ReadTemplate(t.text()) for k, t in corpus.templates.items()}
        self.instances = {k: read_instance(i.text()) for k, i in corpus.instances.items()}
        self._memo: dict = {}
        self._seen: dict[tuple, Optional[str]] = {}

    def check(self, op: Op, report: str, code: int) -> Optional[str]:
        key = (op.label, report, code)
        if key not in self._seen:
            try:
                self._check(op, report.split("\n"), code)
                self._seen[key] = None
            except Reject as exc:
                self._seen[key] = str(exc)
            except (ValueError, KeyError, IndexError, AttributeError) as exc:
                self._seen[key] = f"unreadable report: {exc!r}"
        return self._seen[key]

    def memo(self, key, compute):
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    # Each command's reader consumes the report lines in order.
    def _check(self, op: Op, lines: list[str], code: int) -> None:
        _require(lines and lines[-1] == "", "report does not end with a newline")
        lines = lines[:-1]
        template = self.templates[op.template]
        status, want_code = getattr(self, "_" + op.command)(op, template, lines)
        if op.expect is not None:
            _require(status == op.expect, f"status {status}, expected {op.expect}")
        expected_code = op.code if op.code is not None else want_code
        _require(code == expected_code, f"exit code {code}, expected {expected_code}")

    def _field(self, lines: list[str], index: int, key: str) -> str:
        _require(len(lines) > index, f"missing {key} line")
        prefix = f"{key}: "
        _require(lines[index].startswith(prefix), f"expected {key!r}, got {lines[index]!r}")
        return lines[index][len(prefix):]

    def _end(self, lines: list[str], count: int) -> None:
        _require(len(lines) == count, f"{len(lines)} report lines, expected {count}")

    def _solution(self, op: Op, template: ReadTemplate, lines: list[str], at: int):
        result = self._field(lines, at, "result")
        _require(result in ("SAT", "UNSAT"), f"bad result {result!r}")
        if result == "UNSAT":
            self._end(lines, at + 1)
            return "UNSAT", 1
        variables, constraints = self.instances[op.instance]
        if template.base == "temporal":
            levels = re.findall(r"\[([^\]]*)\]", self._field(lines, at + 1, "levels"))
            rank = {}
            for r, level in enumerate(levels):
                for v in level.split(","):
                    _require(v not in rank, f"{v} listed twice")
                    rank[v] = r
            _require(sorted(rank) == sorted(variables), "levels do not cover the variables")
            for name, scope in constraints:
                _require(canon([rank[v] for v in scope]) in template.relations[name][1],
                         f"levels violate {name}{scope}")
        else:
            fp = parse_type(self._field(lines, at + 1, "labeling"), variables, template.oriented)
            if template.base == "kfree(3)":
                _require(not has_clique(fp, len(variables), 3), "labeling has a triangle")
            index = {v: i for i, v in enumerate(variables)}
            for name, scope in constraints:
                seen = project(fp, len(variables), [index[v] for v in scope])
                _require(seen in template.relations[name][1], f"labeling violates {name}{scope}")
        self._end(lines, at + 2)
        return "SAT", 0

    def _solve(self, op, template, lines):
        if template.base == "temporal":
            mode = self._field(lines, 0, "mode")
            if "--mode" in op.flags:
                want = op.flags[op.flags.index("--mode") + 1].upper()
            else:
                want = self.memo(("mode", op.template), lambda: temporal_mode(template)) or "ORACLE"
            _require(mode == want, f"mode {mode}, expected {want}")
            return self._solution(op, template, lines, 1)
        return self._solution(op, template, lines, 0)

    def _oracle(self, op, template, lines):
        return self._solution(op, template, lines, 0)

    def _consistency(self, op, template, lines):
        k, l = (int(x) for x in op.flags[op.flags.index("--kl") + 1].split(","))
        _require(self._field(lines, 0, "kl") == f"{k},{l}", "wrong kl line")
        state = self._field(lines, 1, "state")
        if state == "EMPTY_DERIVED":
            self._end(lines, 2)
            return state, 1
        _require(state == "CONSISTENT", f"bad state {state!r}")
        n = len(self.instances[op.instance][0])
        want = sum(comb(n, i) for i in range(1, min(k, n) + 1))
        _require(self._field(lines, 2, "subsets") == str(want), f"subsets should be {want}")
        self._end(lines, 3)
        return state, 0

    def _classify(self, op, template, lines):
        verdict = self._field(lines, 0, "verdict")
        if template.base == "temporal":
            mode = self.memo(("mode", op.template), lambda: temporal_mode(template))
            if mode is not None:
                _require(verdict == "P", f"verdict {verdict}, but {mode} preserves the template")
                _require(self._field(lines, 1, "mode") == mode, f"mode should be {mode}")
                self._end(lines, 2)
                return "P", 0
            _require(verdict == "NP_COMPLETE", f"verdict {verdict}, but no mode preserves the template")
            self._end(lines, 1 + len(TEMPORAL_MODES))
            for line, mode in zip(lines[1:], TEMPORAL_MODES):
                m = re.fullmatch(rf"counterexample {mode} (\w+): joint=.* image=.*", line)
                _require(m is not None, f"expected a {mode} counterexample, got {line!r}")
                arity_types = template.relations.get(m.group(1))
                _require(arity_types is not None and not mode_preserves(mode, arity_types[1]),
                         f"{mode} preserves {m.group(1)}")
            return "NP_COMPLETE", 1
        want, shapes = self.memo(("verdict", op.template), lambda: homog_verdict(template))
        _require(verdict == want, f"verdict {verdict}, own closure test gives {want}")
        if want == "NP_COMPLETE":
            self._end(lines, 1)
            return want, 1
        shape = SHAPE_NAMES.get(self._field(lines, 1, "shape"))
        _require(shape in shapes, f"shape {lines[1]!r} is not a witness shape here")
        self._behavior(template, shape, lines[2:])
        return want, 0

    def _behavior(self, template: ReadTemplate, shape: str, lines: list[str]) -> None:
        """Identity test of a full behavior table, then its closure test."""
        n = SHAPE_ARITY[shape]
        alphabet = (EQ,) + template.labels
        cells = list(itertools.product(alphabet, repeat=n))
        _require(len(lines) == len(cells), f"{len(lines)} behavior lines, expected {len(cells)}")
        table = {}
        for line, cell in zip(lines, cells):
            m = re.fullmatch(r"behavior ([\w,]+): (\w+)", line)
            _require(m is not None and tuple(m.group(1).split(",")) == cell, f"bad behavior line {line!r}")
            table[cell] = m.group(2)
        for cell, value in table.items():
            if all(lbl == EQ for lbl in cell):
                _require(value == EQ, "all-EQ cell must map to EQ")
            elif EQ not in cell:
                _require(value == shape_value(shape, cell), f"cell {cell} does not act as {shape}")
            else:
                _require(value in template.labels, f"cell {cell} maps outside the labels")
            if template.oriented:
                _require(table[tuple(FLIP[x] for x in cell)] == FLIP[value], "not flip-equivariant")
        key = (id(template), shape, tuple(table.items()))
        _require(self.memo(key, lambda: behavior_closed(table, n, template)),
                 "behavior does not preserve the template")

    def _polysearch(self, op, template, lines):
        found = self._field(lines, 0, "op")
        _require(found in ("FOUND", "NONE"), f"bad op line {found!r}")
        if template.base != "temporal":
            shape = op.flags[op.flags.index("--shape") + 1]
            exists = self.memo(("shape", op.template, shape), lambda: shape_exists(template, shape))
            _require((found == "FOUND") == exists, f"op {found}, own closure test says {exists}")
            if found == "NONE":
                self._end(lines, 1)
                return found, 1
            self._behavior(template, shape, lines[1:])
            return found, 0
        identity = op.flags[op.flags.index("--identity") + 1]
        arity = IDENTITY_ARITY[identity]
        relations = self.memo(("quotient", op.template), lambda: quotient(template))
        exists = self.memo(("identity", op.template, identity), lambda: any(
            table_ok(identity, arity, values, relations)
            for values in itertools.product((0, 1), repeat=2 ** arity)))
        _require((found == "FOUND") == exists, f"op {found}, own enumeration says {exists}")
        if found == "NONE":
            self._end(lines, 1)
            return found, 1
        _require(self._field(lines, 1, "arity") == str(arity), "wrong arity line")
        values = tuple(int(v) for v in self._field(lines, 2, "table").split(","))
        _require(len(values) == 2 ** arity and set(values) <= {0, 1}, "table has the wrong shape")
        _require(table_ok(identity, arity, values, relations), "table fails its identities or the quotient")
        self._end(lines, 3)
        return found, 0


# --- self-test -------------------------------------------------------------------------------

_FLIPS = {
    "SAT": "UNSAT", "UNSAT": "SAT", "CONSISTENT": "EMPTY_DERIVED", "EMPTY_DERIVED": "CONSISTENT",
    "FOUND": "NONE", "NONE": "FOUND", "P": "NP_COMPLETE", "NP_COMPLETE": "P_BOUNDED_WIDTH",
    "P_BOUNDED_WIDTH": "P_NOT_BOUNDED_WIDTH", "P_NOT_BOUNDED_WIDTH": "P_BOUNDED_WIDTH",
}


def corruptions(checker: Checker, op: Op, report: str, code: int):
    """Wrong variants of a correct report, each wrong by construction."""
    lines = report.rstrip("\n").split("\n")

    def text(ls):
        return "\n".join(ls) + "\n"

    yield "exit code", report, 1 - code if code in (0, 1) else 0
    for i, line in enumerate(lines):
        key, _, value = line.partition(": ")
        if key in ("result", "state", "op", "verdict") and value in _FLIPS:
            yield "status", text(lines[:i] + [f"{key}: {_FLIPS[value]}"] + lines[i + 1:]), code
        elif key == "mode":
            other = "DUAL_LL" if value != "DUAL_LL" else "PP"
            yield "mode", text(lines[:i] + [f"mode: {other}"] + lines[i + 1:]), code
        elif key == "subsets":
            yield "subsets", text(lines[:i] + [f"subsets: {int(value) + 1}"] + lines[i + 1:]), code
        elif key == "table":
            values = value.split(",")
            values[0] = "1" if values[0] == "0" else "0"  # f(0,...,0) must be 0
            yield "table", text(lines[:i] + ["table: " + ",".join(values)] + lines[i + 1:]), code
        elif key in ("levels", "labeling"):
            variables, constraints = checker.instances[op.instance]
            template = checker.templates[op.template]
            # Every variable on one level (in one block) violates any
            # constraint whose relation excludes the all-equal type.
            if any(_excludes_all_equal(template, name) for name, _ in constraints):
                merged = f"[{','.join(variables)}]" if key == "levels" else "=".join(variables)
                yield key, text(lines[:i] + [f"{key}: {merged}"] + lines[i + 1:]), code
            if key == "levels":
                levels = [lv.split(",") for lv in re.findall(r"\[([^\]]*)\]", value)]
                short = "".join(f"[{','.join(lv)}]" for lv in (levels[:-1] + [levels[-1][1:]]) if lv)
                yield "levels missing a variable", text(lines[:i] + [f"levels: {short}"] + lines[i + 1:]), code
        elif line.startswith("behavior ") and EQ not in line.split(":")[0]:
            cell, _, value = line.partition(": ")
            other = {"FWD": "BWD", "BWD": "FWD", "E": "N", "N": "E"}[value]
            yield "behavior", text(lines[:i] + [f"{cell}: {other}"] + lines[i + 1:]), code
            break
    if len(lines) > 1:
        yield "truncated", text(lines[:-1]), code


def _excludes_all_equal(template: ReadTemplate, name: str) -> bool:
    arity, types = template.relations[name]
    return (0,) * arity not in types if template.base == "temporal" else (EQ,) * len(pairs(arity)) not in types


def self_test(checker: Checker, samples) -> tuple[int, list[str]]:
    """Feed corrupted variants of correct reports; returns how many were
    tried and a description of each one the checker accepted."""
    tried, missed = 0, []
    for op, report, code in samples:
        if checker.check(op, report, code) is not None:
            continue
        for what, bad_report, bad_code in corruptions(checker, op, report, code):
            tried += 1
            if checker.check(op, bad_report, bad_code) is None:
                missed.append(f"{op.label}: corrupted {what} accepted")
    return tried, missed
