"""Text formats and the command-line front end.

Template files start with a ``base:`` header and one ``rel NAME/ARITY:``
line per relation; the type literal syntax depends on the base.  Instance
files hold a ``vars`` line followed by ``NAME(x,y)`` constraints.  Reports
are line-oriented ``key: value`` blocks with deterministic, byte-identical
output; exit code 0 means completed, 1 a negative outcome (UNSAT, an
NP-complete classification, an empty consistency state, a failed search),
and 2 an input error.
"""

from __future__ import annotations

import argparse
import itertools
import re
import sys
from typing import Callable, Optional, Sequence, Union

from . import homog, polyengine, temporal
from .consistency import EMPTY_DERIVED, SUPERSET_LIMIT, establish_kl, superset_count
from .errors import ArityMismatch, BudgetExceeded, OrbitCspError, ParseError
from .homog import (
    GRAPH,
    TOURNAMENT,
    HomogPatterns,
    HomogTemplate,
    Label,
    LabeledType,
    Shape,
    TypeSetRelation,
    VerdictKind,
    _pair_index,
    kfree,
)
from .relstruct import Instance, make_instance
from .temporal import (
    TemporalOp,
    TemporalPatterns,
    TemporalTemplate,
    WeakOrderType,
    Z_VALUE,
    temporal_relation,
)

Template = Union[TemporalTemplate, HomogTemplate]

_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_REL_LINE = re.compile(r"rel\s+([A-Za-z_][A-Za-z0-9_]*)/([0-9]+)\s*:\s*(.*)")
_CONSTRAINT = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)\s*\(\s*([^)]*)\)\s*")
_EDGE_ITEM = re.compile(r"E\s*\(\s*([0-9]+)\s*,\s*([0-9]+)\s*\)")
_VARS_HEADER = re.compile(r"vars(\s|$)")

#: Largest declared relation arity, largest n of ``kfree(n)``, and largest
#: k or l of ``--kl``.
#: Parsing sizes per-position tables by the arity, so a larger arity is
#: refused before anything is sized by it.
ARITY_LIMIT = 4096

#: Most pair labels one homogeneous relation may hold.  A type holds a
#: label for each of its k(k-1)/2 position pairs, so a relation's literals
#: are counted, and refused above this, before any of them is parsed.
#: ``rel R/362: -`` over the graph base holds 65 341: classify takes 0.3 s
#: and peaks at 36 MB on a 2-core Xeon.
PAIR_LABEL_LIMIT = 2 ** 16


def _content_lines(text: str) -> list[tuple[int, str]]:
    out = []
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            out.append((number, line))
    return out


def _parse_position(token: str, arity: int, line: int, column: int) -> int:
    # ASCII digits only: int() refuses a digit such as '²' and reads '٢'.
    if not (token.isascii() and token.isdecimal()):
        raise ParseError(f"expected a position number, got {token!r}", line, column)
    try:
        value = int(token)
    except ValueError:  # int() refuses more than 4300 digits
        value = _bounded_int(token)
        if value is None:
            raise ParseError(
                f"position {token.lstrip('0')} outside 1..{arity}", line, column) from None
    if not 1 <= value <= arity:
        raise ParseError(f"position {value} outside 1..{arity}", line, column)
    return value - 1


def _parse_weak_order(literal: str, arity: int, line: int, column: int) -> WeakOrderType:
    ranks = [-1] * arity
    seen = 0
    for level, group in enumerate(literal.split("<")):
        for token in group.split("="):
            position = _parse_position(token.strip(), arity, line, column)
            if ranks[position] != -1:
                raise ParseError(f"position {position + 1} listed twice", line, column)
            ranks[position] = level
            seen += 1
    if seen != arity:
        raise ParseError(
            f"type lists {seen} positions but the relation has arity {arity}",
            line,
            column,
        )
    return WeakOrderType(tuple(ranks))


def _split_items(literal: str) -> list[str]:
    """The items of a literal, cut at the commas outside parentheses."""
    if "(" not in literal and ")" not in literal:
        return [item.strip() for item in literal.split(",")]
    items, depth, start = [], 0, 0
    for i, ch in enumerate(literal):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            items.append(literal[start:i].strip())
            start = i + 1
    items.append(literal[start:].strip())
    return items


class _HomogReader:
    """Reads the tournament or graph type literals of one relation: the '='
    items merge positions, then each arc or edge item labels its pair of
    blocks.  Errors come in that order: merges, labels in item order, then
    missing arcs.

    Each distinct item text is read once per reader: a '=' item to its
    positions, an arc or edge item to its ordered pair.  What an item reads
    to depends only on the arity and the base, fixed per reader, and an item
    that raises is not stored.
    """

    def __init__(self, arity: int, base: homog.Base, line: int, column: int) -> None:
        self.arity, self.line, self.column = arity, line, column
        self.oriented = base.oriented
        self.label = Label.FWD if self.oriented else Label.E
        self.default = None if self.oriented else Label.N
        self._items: dict[str, tuple[int, ...]] = {}

    def _item(self, item: str) -> tuple[int, ...]:
        """The positions of a '=' item, or the ordered pair of an arc or edge item."""
        found = self._items.get(item)
        if found is None:
            if "=" in item:
                tokens = item.split("=")
            elif self.oriented:
                if "->" not in item:
                    raise ParseError(f"expected an arc, got {item!r}", self.line, self.column)
                tokens = item.split("->", 1)
            else:
                match = _EDGE_ITEM.fullmatch(item)
                if not match:
                    raise ParseError(f"expected an edge, got {item!r}", self.line, self.column)
                tokens = match.groups()
            found = self._items[item] = tuple(
                _parse_position(t.strip(), self.arity, self.line, self.column) for t in tokens)
        return found

    def read(self, literal: str) -> LabeledType:
        """The type of one literal of the relation."""
        items = [] if literal == "-" else _split_items(literal)
        arcs = [item for item in items if "=" not in item]
        # Blocks numbered by least position: reps[x] is block x's least
        # position, block_of[p] the block of position p.
        reps = block_of = range(self.arity)
        if len(arcs) < len(items):
            parent = list(reps)  # a union-find whose roots are least positions

            def find(x: int) -> int:
                while parent[x] != x:
                    x = parent[x]
                return x

            for first, *others in [self._item(item) for item in items if "=" in item]:
                for p in others:
                    ra, rb = find(first), find(p)
                    parent[max(ra, rb)] = min(ra, rb)
            reps = [p for p in reps if parent[p] == p]
            number = {r: x for x, r in enumerate(reps)}
            block_of = [number[find(p)] for p in block_of]
        # labels[i]: the label of the i-th block pair x < y in lexicographic
        # order, from block x toward block y.
        m, label, default = len(reps), self.label, self.default
        labels: list[Optional[Label]] = [default] * (m * (m - 1) // 2)
        for item in arcs:
            a, b = self._item(item)
            x, y = block_of[a], block_of[b]
            if x == y:
                raise ParseError("pair label within a merged block", self.line, self.column)
            if x < y:
                i, got = _pair_index(m, x, y), label
            else:
                i, got = _pair_index(m, y, x), label.flipped
            if labels[i] not in (got, default):
                raise ParseError(
                    f"conflicting labels between {a + 1} and {b + 1}", self.line, self.column)
            labels[i] = got
        if None in labels:
            x, y = next(pair for pair, got in zip(itertools.combinations(range(m), 2), labels)
                        if got is None)
            raise ParseError(
                f"missing arc between {reps[x] + 1} and {reps[y] + 1}", self.line, self.column)
        return homog._type_of(block_of, labels)


def _parse_base(value: str, line: int) -> Union[str, homog.Base]:
    if value == "temporal":
        return "temporal"
    if value == "tournament":
        return TOURNAMENT
    if value == "graph":
        return GRAPH
    match = re.fullmatch(r"kfree\(([0-9]+)\)", value)
    if match:
        n = _bounded_int(match.group(1))
        if n is None:
            raise ParseError(f"kfree(n) needs n <= {ARITY_LIMIT}", line, 7)
        if n >= 3:
            return kfree(n)
    raise ParseError(f"unknown base {value!r}", line, 7)


def _bounded_int(digits: str) -> Optional[int]:
    """The value of a digit string, or None above ARITY_LIMIT.  Lengths are
    compared first: int() refuses very long digit strings."""
    digits = digits.lstrip("0") or "0"
    if len(digits) > len(str(ARITY_LIMIT)) or int(digits) > ARITY_LIMIT:
        return None
    return int(digits)


def parse_template(text: str) -> Template:
    """Parse a template file into its temporal or homogeneous form."""
    lines = _content_lines(text)
    if not lines or not lines[0][1].startswith("base:"):
        raise ParseError("expected a 'base:' header", lines[0][0] if lines else 1, 1)
    header_line, header = lines[0]
    base = _parse_base(header[5:].strip(), header_line)
    relations: dict[str, Union[temporal.TemporalRelation, TypeSetRelation]] = {}
    for line_no, line in lines[1:]:
        match = _REL_LINE.fullmatch(line)
        if not match:
            raise ParseError("expected 'rel NAME/ARITY: types'", line_no, 1)
        name, digits, body = match.groups()
        if name in relations:
            raise ParseError(f"relation {name} declared twice", line_no, 5)
        arity = _bounded_int(digits)
        if arity is None:
            raise ParseError(f"relations need arity <= {ARITY_LIMIT}", line_no, 5)
        if arity < 1:
            raise ParseError("relations need arity >= 1", line_no, 5)
        literals = [lit.strip() for lit in body.split(";")]
        if not body.strip() or any(not lit for lit in literals):
            raise ParseError("empty type literal", line_no, len(line))
        column = line.index(":") + 2
        pair_labels = len(literals) * (arity * (arity - 1) // 2)
        if base != "temporal" and pair_labels > PAIR_LABEL_LIMIT:
            raise ParseError(
                f"relation {name} holds {pair_labels} pair labels; "
                f"the cap is {PAIR_LABEL_LIMIT}", line_no, column)
        try:
            if base == "temporal":
                types = [
                    _parse_weak_order(lit, arity, line_no, column)
                    for lit in literals
                ]
                relations[name] = temporal_relation(arity, types)
            else:
                reader = _HomogReader(arity, base, line_no, column)
                relations[name] = homog.type_set_relation(
                    arity, base, [reader.read(lit) for lit in literals])
        except ParseError:
            raise
        except OrbitCspError as exc:
            raise ParseError(str(exc), line_no, column) from exc
    if base == "temporal":
        return TemporalTemplate(relations)
    return HomogTemplate(base, relations)


def parse_instance(text: str, template: Template) -> Instance:
    """Parse an instance file, checking names and arities against the template."""
    lines = _content_lines(text)
    if not lines or not _VARS_HEADER.match(lines[0][1]):
        raise ParseError("expected a 'vars' header", lines[0][0] if lines else 1, 1)
    header_line, header = lines[0]
    variables = tuple(header[4:].split())
    if not variables:
        raise ParseError("no variables declared", header_line, 5)
    for v in variables:
        if not _NAME.fullmatch(v):
            raise ParseError(f"bad variable name {v!r}", header_line, 5)
    declared = set(variables)
    if len(declared) != len(variables):
        raise ParseError("duplicate variable", header_line, 5)
    constraints = []
    for line_no, line in lines[1:]:
        match = _CONSTRAINT.fullmatch(line)
        if not match:
            raise ParseError("expected 'NAME(x,y,...)'", line_no, 1)
        name = match.group(1)
        args = match.group(2)
        # "()" holds no argument, not one empty name.
        scope = tuple(tok.strip() for tok in args.split(",")) if args else ()
        rel = template.relations.get(name)
        if rel is None:
            raise ParseError(f"unknown relation {name}", line_no, 1)
        if rel.arity != len(scope):
            raise ArityMismatch(
                f"line {line_no}: {name} has arity {rel.arity}, got {len(scope)}"
            )
        for v in scope:
            if v not in declared:
                raise ParseError(f"unknown variable {v!r}", line_no, 1)
        constraints.append((name, scope))
    return make_instance(variables, constraints)


def _format_homog_type(t: LabeledType, names: Optional[Sequence[str]] = None) -> str:
    if names is None:
        names = [str(i + 1) for i in range(t.arity)]
    items = []
    for block in t.partition:
        if len(block) > 1:
            items.append("=".join(names[p] for p in block))
    reps = [block[0] for block in t.partition]
    for (a, b), label in zip(itertools.combinations(reps, 2), t.labels):
        if label is Label.FWD:
            items.append(f"{names[a]}->{names[b]}")
        elif label is Label.BWD:
            items.append(f"{names[b]}->{names[a]}")
        elif label is Label.E:
            items.append(f"E({names[a]},{names[b]})")
    return ", ".join(items) if items else "-"


def _levels_result(levels: Optional[Sequence[Sequence[str]]]) -> list[str]:
    """The report lines of a temporal answer: UNSAT, or SAT and its levels."""
    if levels is None:
        return ["result: UNSAT"]
    return ["result: SAT", "levels: " + "".join("[" + ",".join(level) + "]" for level in levels)]


def _labeling_result(solution: Optional[LabeledType], instance: Instance) -> list[str]:
    """The report lines of a homogeneous answer: UNSAT, or SAT and its labeling."""
    if solution is None:
        return ["result: UNSAT"]
    return ["result: SAT", f"labeling: {_format_homog_type(solution, instance.variables)}"]


def _format_afin_tuple(values: Sequence[int]) -> str:
    return "(" + ",".join("Z" if v == Z_VALUE else "P" for v in values) + ")"


def _format_signed(pattern: WeakOrderType) -> str:
    """A weak order whose last position is the zero point, as the order of
    the other positions and their signs: ``1<3<2 [0++]``."""
    *ranks, zero = pattern.ranks
    signs = "".join("-" if r < zero else "0" if r == zero else "+" for r in ranks)
    return f"{pattern.restrict(range(len(ranks)))} [{signs}]"


def _behavior_lines(behavior: homog.PairBehavior) -> list[str]:
    name = {s: s.name for s in behavior.symbols}
    return [
        f"behavior {','.join(map(name.__getitem__, cell))}: {name[value]}"
        for cell, value in behavior.cells()
    ]


def _cmd_classify(
    template: Template, instance: None, args: argparse.Namespace
) -> tuple[list[str], int]:
    if isinstance(template, TemporalTemplate):
        verdict = temporal.classify_temporal(template)
        if verdict.polynomial:
            return ["verdict: P", f"mode: {verdict.mode.name}"], 0
        lines = ["verdict: NP_COMPLETE"]
        for mode, name, counter in verdict.counterexamples:
            lines.append(
                f"counterexample {mode.name} {name}: "
                f"joint={_format_signed(counter.joint)} "
                f"image={_format_signed(counter.image)}"
            )
        return lines, 1
    verdict = homog.classify_reduct(template)
    lines = [f"verdict: {verdict.kind.value}"]
    if verdict.kind is VerdictKind.EQUALITY_P:
        lines.append("width: UNDETERMINED")
    if verdict.witness is not None:
        lines.append(f"shape: {verdict.shape.name}")
        lines.extend(_behavior_lines(verdict.witness))
    failed = verdict.kind in (VerdictKind.NP_COMPLETE, VerdictKind.EQUALITY_NPC)
    return lines, 1 if failed else 0


def _temporal_solution(
    template: TemporalTemplate, instance: Instance, mode_flag: Optional[str]
) -> tuple[str, Optional[temporal.Levels]]:
    if mode_flag:
        mode = TemporalOp(mode_flag)
        return mode.name, temporal.solve_master(instance, template, mode)
    verdict = temporal.classify_temporal(template)
    if verdict.polynomial:
        mode = verdict.mode
        return mode.name, temporal.solve_master(instance, template, mode)
    return "ORACLE", temporal.brute_oracle(instance, template)


def _cmd_solve(
    template: Template, instance: Instance, args: argparse.Namespace
) -> tuple[list[str], int]:
    if isinstance(template, TemporalTemplate):
        mode_name, levels = _temporal_solution(template, instance, args.mode)
        lines = [f"mode: {mode_name}", *_levels_result(levels)]
        if args.oracle:
            reference = temporal.brute_oracle(instance, template)
            agree = (reference is None) == (levels is None)
            lines.append(f"oracle: {'AGREE' if agree else 'DISAGREE'}")
            if not agree:
                return lines, 2
        return lines, 0 if levels is not None else 1
    if args.mode:
        raise ParseError("--mode applies to temporal templates")
    lines, code = _cmd_oracle(template, instance, args)
    if args.oracle:
        lines.append("oracle: AGREE")
    return lines, code


def _cmd_freesets(
    template: TemporalTemplate, instance: Instance, args: argparse.Namespace
) -> tuple[list[str], int]:
    lines = []
    found_sets = temporal.free_sets(instance, template)
    for variable, found in zip(instance.variables, found_sets):
        if found is None:
            lines.append(f"free {variable}: NONE")
        else:
            ordered = [v for v in instance.variables if v in found]
            lines.append(f"free {variable}: {{{','.join(ordered)}}}")
    return lines, 0


def _cmd_afin(
    template: TemporalTemplate, instance: None, args: argparse.Namespace
) -> tuple[list[str], int]:
    structure = temporal.build_afin(template)
    lines = []
    for name, rel in structure.relations.items():
        patterns = sorted(rel.tuples, reverse=True)
        lines.append(
            f"{name}: " + " ".join(_format_afin_tuple(p) for p in patterns)
        )
    return lines, 0


def _cmd_polysearch(
    template: Template, instance: None, args: argparse.Namespace
) -> tuple[list[str], int]:
    if isinstance(template, TemporalTemplate):
        if args.shape:
            raise ParseError("--shape applies to tournament and graph templates")
        if not args.identity:
            raise ParseError("polysearch needs --identity for temporal templates")
        system = next(s for s in polyengine.IDENTITIES if s.kind == args.identity)
        arity = system.required_arity() if args.arity is None else args.arity
        if arity is None:
            raise ParseError(f"{args.identity} needs --arity")
        structure = temporal.build_afin(template)
        table = polyengine.find_polymorphism(structure, system, arity)
        if table is None:
            return ["op: NONE"], 1
        values = ",".join(str(v) for v in table.values)
        return ["op: FOUND", f"arity: {table.arity}", f"table: {values}"], 0
    if args.identity:
        raise ParseError("--identity applies to temporal templates")
    if args.arity is not None:
        raise ParseError("--arity applies to temporal templates")
    if not args.shape:
        raise ParseError("polysearch needs --shape for tournament and graph templates")
    behavior = homog.search_behavior(template, Shape(args.shape))
    if behavior is None:
        return ["op: NONE"], 1
    return ["op: FOUND"] + _behavior_lines(behavior), 0


def _cmd_consistency(
    template: Template, instance: Instance, args: argparse.Namespace
) -> tuple[list[str], int]:
    match = re.fullmatch(r"([0-9]+),([0-9]+)", args.kl)
    if not match:
        raise ParseError("--kl expects K,L")
    k, l = map(_bounded_int, match.groups())
    if k is None or l is None:
        raise ParseError(f"--kl needs K,L <= {ARITY_LIMIT}")
    # More than SUPERSET_LIMIT supersets are refused before any pattern work.
    n = len(instance.variables)
    if superset_count(n, l) > SUPERSET_LIMIT:
        raise BudgetExceeded(
            f"(k,l) = ({k},{l}) on {n} variables needs more than {SUPERSET_LIMIT} supersets")
    if isinstance(template, TemporalTemplate):
        space = TemporalPatterns(template)
    else:
        space = HomogPatterns(template)
    state = establish_kl(instance, space, k, l)
    lines = [f"kl: {k},{l}"]
    if state is EMPTY_DERIVED:
        lines.append("state: EMPTY_DERIVED")
        return lines, 1
    lines.append("state: CONSISTENT")
    lines.append(f"subsets: {len(state.allowed)}")
    return lines, 0


def _cmd_oracle(
    template: Template, instance: Instance, args: argparse.Namespace
) -> tuple[list[str], int]:
    if isinstance(template, TemporalTemplate):
        levels = temporal.brute_oracle(instance, template)
        return _levels_result(levels), 0 if levels is not None else 1
    solution = homog.solve_instance_brute(instance, template)
    return _labeling_result(solution, instance), 0 if solution is not None else 1


# Each command: its handler, whether it reads an instance, and whether it
# applies to temporal templates only.  Declared in the order the parser
# lists them.
_COMMANDS: dict[str, tuple[Callable[..., tuple[list[str], int]], bool, bool]] = {
    "classify": (_cmd_classify, False, False),
    "solve": (_cmd_solve, True, False),
    "freesets": (_cmd_freesets, True, True),
    "afin": (_cmd_afin, False, True),
    "polysearch": (_cmd_polysearch, False, False),
    "consistency": (_cmd_consistency, True, False),
    "oracle": (_cmd_oracle, True, False),
}


def _arity_argument(value: str) -> int:
    """The value of ``--arity``: ASCII digits with an optional minus sign,
    so that 0 and -1 reach the search's own errors, while ``٣``, `` 3``,
    ``+3`` and ``3_0`` are usage errors, as ``z`` is."""
    try:
        if re.fullmatch(r"-?[0-9]+", value):
            return int(value)
    except ValueError:  # more digits than int() reads
        pass
    raise argparse.ArgumentTypeError(f"invalid int value: {value!r}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="orbitcsp", add_help=True)
    commands = parser.add_subparsers(dest="command", required=True)
    subparsers = {}
    for name, (_, reads_instance, _) in _COMMANDS.items():
        sub = subparsers[name] = commands.add_parser(name)
        sub.add_argument("template")
        if reads_instance:
            sub.add_argument("instance")
    subparsers["solve"].add_argument("--mode", choices=["pp", "ll", "dual_pp", "dual_ll"])
    subparsers["solve"].add_argument("--oracle", action="store_true")
    subparsers["polysearch"].add_argument("--shape", choices=sorted(s.value for s in Shape))
    subparsers["polysearch"].add_argument(
        "--identity", choices=[s.kind for s in polyengine.IDENTITIES])
    subparsers["polysearch"].add_argument("--arity", type=_arity_argument)
    subparsers["consistency"].add_argument("--kl", default="2,3")
    return parser


# One parser per process: parse_args makes a fresh Namespace on every call.
_PARSER = _build_parser()


def _read(path: str) -> str:
    """The text of the file ``path``; bytes that are not UTF-8 are an
    input error that names the file."""
    with open(path, encoding="utf-8") as handle:
        try:
            return handle.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: {exc}") from exc


def run(argv: Sequence[str]) -> tuple[str, int]:
    """Execute one command; returns the report text and the exit code."""
    try:
        args = _PARSER.parse_args(list(argv))
    except SystemExit as exc:
        return "", int(exc.code or 0)
    handler, reads_instance, temporal_only = _COMMANDS[args.command]
    try:
        template = parse_template(_read(args.template))
        instance = parse_instance(_read(args.instance), template) if reads_instance else None
        if temporal_only and not isinstance(template, TemporalTemplate):
            raise ParseError(f"{args.command} applies to temporal templates")
        lines, code = handler(template, instance, args)
    except (OrbitCspError, OSError) as exc:
        return f"error: {exc}\n", 2
    return "\n".join(lines) + "\n", code


def main() -> None:
    report, code = run(sys.argv[1:])
    if report:
        sys.stdout.write(report)
    sys.exit(code)
