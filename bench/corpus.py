"""Seeded corpus generator: template and instance text plus the expected
outcome of every operation, known by construction.

Nothing here calls orbitcsp.  Satisfiable instances are built around a
planted solution (a weak order, or a labeled structure on the variables) and
only receive constraints that solution satisfies.  Unsatisfiable instances
are a planted instance plus an embedded core: a handful of constraints on at
most three variables that no assignment satisfies.  Random tournament and
graph reducts are closed under a fixed shape action, or contain a relation
whose hardness is known, so their verdicts are known too.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from literals import (
    BWD,
    E,
    EQ,
    FLIP,
    FWD,
    N,
    canon,
    homog_types,
    order_literal,
    pairs,
    project,
    type_literal,
    weak_orders,
)

WORKLOADS = ("temporal-solve", "kl-consistency", "template-classify", "small-solve")


@dataclass(frozen=True)
class Template:
    """A template as the benchmark sees it: its text and its own reading."""

    base: str  # "temporal", "tournament", "graph" or "kfree(3)"
    relations: dict  # name -> (arity, sorted list of rank tuples or fingerprints)

    def text(self) -> str:
        out = [f"base: {self.base}"]
        for name, (arity, types) in self.relations.items():
            if self.base == "temporal":
                body = "; ".join(order_literal(t) for t in types)
            else:
                body = "; ".join(type_literal(t, arity) for t in types)
            out.append(f"rel {name}/{arity}: {body}")
        return "\n".join(out) + "\n"


@dataclass(frozen=True)
class Instance:
    variables: tuple[str, ...]
    constraints: tuple[tuple[str, tuple[str, ...]], ...]

    def text(self) -> str:
        lines = ["vars " + " ".join(self.variables)]
        lines += [f"{name}({','.join(scope)})" for name, scope in self.constraints]
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Op:
    """One ``orbitcsp.cli.run`` call and the outcome known for it.

    ``expect`` is the status the report must carry (``SAT``, ``UNSAT``,
    ``CONSISTENT``, ``EMPTY_DERIVED``, a verdict, ``FOUND`` or ``NONE``);
    ``None`` leaves the status to the checker's own exhaustive decision.
    """

    label: str
    command: str
    template: str
    instance: Optional[str]
    flags: tuple[str, ...]
    expect: Optional[str]
    code: Optional[int]


@dataclass
class Corpus:
    templates: dict[str, Template]
    instances: dict[str, Instance]
    ops: list[Op]

    def write(self, directory: Path) -> dict[str, list[str]]:
        """Write every file; returns the argv of each op, keyed by label."""
        directory.mkdir(parents=True, exist_ok=True)
        paths = {}
        for key, template in self.templates.items():
            paths[key] = directory / f"{key}.tmpl"
            paths[key].write_text(template.text(), encoding="utf-8")
        for key, instance in self.instances.items():
            paths[key] = directory / f"{key}.inst"
            paths[key].write_text(instance.text(), encoding="utf-8")
        argvs = {}
        for op in self.ops:
            argv = [op.command, str(paths[op.template])]
            if op.instance is not None:
                argv.append(str(paths[op.instance]))
            argvs[op.label] = argv + list(op.flags)
        return argvs


# --- temporal templates -------------------------------------------------------

W2, W3 = weak_orders(2), weak_orders(3)
LT = (2, [(0, 1)])
TEMPORAL_TEMPLATES = {
    # x > min(y, z): preserved by pp and ll (classified mode PP).
    "rmin": {"LT": LT, "RMIN": (3, [t for t in W3 if t[0] > min(t[1], t[2])])},
    # x < max(y, z), the dual: preserved by dual_pp and dual_ll.
    "rmax": {"LT": LT, "RMAX": (3, [t for t in W3 if t[0] < max(t[1], t[2])])},
    "le": {"LT": LT, "LE": (2, [t for t in W2 if t[0] <= t[1]])},
    # Betweenness: NP-complete, solved through the exhaustive oracle.
    "betw": {"LT": LT, "BETW": (3, [(0, 1, 2), (2, 1, 0)])},
}
TEMPORAL_TEMPLATES["rmaxle"] = {**TEMPORAL_TEMPLATES["rmax"], "LE": TEMPORAL_TEMPLATES["le"]["LE"]}
TEMPORAL_TEMPLATES["rminle"] = {**TEMPORAL_TEMPLATES["rmin"], "LE": TEMPORAL_TEMPLATES["le"]["LE"]}
# No mode preserves both RMIN and RMAX: NP-complete.
TEMPORAL_TEMPLATES["minmax"] = {**TEMPORAL_TEMPLATES["rmin"], "RMAX": TEMPORAL_TEMPLATES["rmax"]["RMAX"]}

# Three constraints on (x, y, z) that no weak order satisfies.
TEMPORAL_CORES = {
    "rmin": [("LT", (0, 1)), ("LT", (0, 2)), ("RMIN", (0, 1, 2))],
    "rmax": [("LT", (1, 0)), ("LT", (2, 0)), ("RMAX", (0, 1, 2))],
    "le": [("LT", (0, 1)), ("LE", (1, 2)), ("LE", (2, 0))],
    "betw": [("BETW", (0, 1, 2)), ("LT", (0, 1)), ("LT", (2, 1))],
}


def _names(rng: random.Random, n: int) -> list[str]:
    names = [f"v{i}" for i in range(n)]
    rng.shuffle(names)
    return names


def _with_core(rng, names, constraints, core, core_first):
    """Add three fresh variables that carry the core, declared last (solvers
    meet the contradiction after the planted part) or first (they meet it at
    once); the core's constraints go to random places in the list."""
    fresh = [f"v{len(names) + i}" for i in range(3)]
    out = list(constraints)
    for rel, positions in core:
        out.insert(rng.randrange(len(out) + 1), (rel, tuple(fresh[p] for p in positions)))
    variables = fresh + list(names) if core_first else list(names) + fresh
    return Instance(tuple(variables), tuple(out))


# --- homogeneous templates ----------------------------------------------------


def _fps(arity, oriented, pick, forbidden=None, injective=False):
    return (arity, [t for t in homog_types(arity, oriented, forbidden, injective) if pick(t)])


def _lead_count(t, lead):
    return sum(1 for lbl in t if lbl == lead)


HOMOG_SOLVE_TEMPLATES = {
    "tour": ("tournament", {
        "ARC": _fps(2, True, lambda t: t == (FWD,)),
        "AEQ": _fps(2, True, lambda t: t in ((FWD,), (EQ,))),
        # a transitive triangle 1 -> 2 -> 3 with 1 -> 3
        "TR": _fps(3, True, lambda t: t == (FWD, FWD, FWD)),
    }),
    "graph": ("graph", {
        "E": _fps(2, False, lambda t: t == (E,)),
        "N": _fps(2, False, lambda t: t == (N,)),
        "SAME": _fps(2, False, lambda t: t == (EQ,)),
    }),
    "kfree": ("kfree(3)", {
        "E": _fps(2, False, lambda t: t == (E,), forbidden=3),
        "N": _fps(2, False, lambda t: t == (N,), forbidden=3),
        # an induced path 1 - 2 - 3
        "P3": _fps(3, False, lambda t: t == (E, N, E), forbidden=3),
    }),
}

HOMOG_CORES = {
    "tour": [("TR", (0, 1, 2)), ("ARC", (2, 0))],
    "graph": [("SAME", (0, 1)), ("SAME", (1, 2)), ("E", (0, 2))],
    "kfree": [("E", (0, 1)), ("E", (1, 2)), ("E", (0, 2))],
}


def planted_structure(rng, n, oriented, forbidden):
    """A random fingerprint on n points: a few merges, random labels, and
    no triangle of edges when ``forbidden`` is 3."""
    block = [0]
    for _ in range(1, n):
        block.append(rng.randrange(max(block) + 1) if rng.random() < 0.2 else max(block) + 1)
    m = max(block) + 1
    between: dict[tuple[int, int], str] = {}

    def edge(x, y):
        return between.get((min(x, y), max(x, y))) == E

    for b1, b2 in itertools.combinations(range(m), 2):
        lbl = rng.choice((FWD, BWD) if oriented else (E, N))
        if forbidden and lbl == E and any(edge(b0, b1) and edge(b0, b2) for b0 in range(m)):
            lbl = N
        between[(b1, b2)] = lbl
    fp = []
    for i, j in pairs(n):
        bi, bj = block[i], block[j]
        if bi == bj:
            fp.append(EQ)
        else:
            fp.append(between[(bi, bj)] if bi < bj else FLIP[between[(bj, bi)]])
    return tuple(fp)


def make_instance(rng, key, n, m, sat, core_first=False):
    """m random constraints that a random planted solution satisfies;
    unsatisfiable instances plant on n - 3 variables and add the core."""
    size = n if sat else n - 3
    if key in TEMPORAL_TEMPLATES:
        relations, core = TEMPORAL_TEMPLATES[key], TEMPORAL_CORES[key]
        names = _names(rng, size)
        rank = dict(zip(names, canon([rng.randrange(size) for _ in names])))

        def planted(scope):
            return canon([rank[v] for v in scope])
    else:
        (base, relations), core = HOMOG_SOLVE_TEMPLATES[key], HOMOG_CORES[key]
        fp = planted_structure(rng, size, base == "tournament", 3 if base == "kfree(3)" else None)
        names = _names(rng, size)
        index = {v: i for i, v in enumerate(names)}

        def planted(scope):
            return project(fp, size, [index[v] for v in scope])

    rel_names = [r for r in sorted(relations) if relations[r][0] <= size]
    constraints = []
    for _ in range(100 * m if rel_names else 0):
        if len(constraints) == m:
            break
        name = rng.choice(rel_names)
        arity, types = relations[name]
        scope = tuple(rng.sample(names, arity))
        if planted(scope) in types:
            constraints.append((name, scope))
    if sat:
        return Instance(tuple(names), tuple(constraints))
    return _with_core(rng, names, constraints, core, core_first)


# --- random reducts with verdicts known by construction ------------------------


def shape_value(shape, cell):
    if shape == "sl_e":
        return E if E in cell else N
    if shape == "sl_n":
        return N if N in cell else E
    a, b, c = cell
    if shape == "majority":
        return a if a in (b, c) else b
    return c if a == b else (b if a == c else a)


SHAPE_ARITY = {"majority": 3, "minority": 3, "sl_e": 2, "sl_n": 2}


def close_injective(types, k, shape):
    """Closure of injective fingerprints under the pointwise shape action."""
    closed = set(types)
    while True:
        images = {
            tuple(shape_value(shape, cell) for cell in zip(*combo))
            for combo in itertools.product(sorted(closed), repeat=SHAPE_ARITY[shape])
        }
        if images <= closed:
            return sorted(closed)
        closed |= images


def parity(k, oriented):
    lead = FWD if oriented else E
    return _fps(k, oriented, lambda t: _lead_count(t, lead) % 2 == 0, injective=True)


def one_of_three(oriented):
    lead = FWD if oriented else E
    return _fps(3, oriented, lambda t: _lead_count(t, lead) == 1, injective=True)


def random_closed_relation(rng, oriented, shape):
    """A shape-closed injective relation of arity 3 or 4, neither empty nor
    full (a full one would only constrain equalities)."""
    while True:
        k = rng.choice((3, 4))
        pool = homog_types(k, oriented, injective=True)
        # Up to two types are closed under every shape, so start from three.
        closed = close_injective(rng.sample(pool, 3), k, shape)
        if len(closed) < len(pool):
            return (k, closed)


def minority_only_relation(rng, oriented):
    """A minority-closed injective relation that no width shape preserves."""
    width = ("majority",) if oriented else ("sl_e", "sl_n", "majority")
    while True:
        k, types = random_closed_relation(rng, oriented, "minority")
        if all(close_injective(types, k, shape) != types for shape in width):
            return (k, types)


# --- workloads ------------------------------------------------------------------


class _Draft:
    """Collects templates, instances and operations while a mix is generated."""

    def __init__(self):
        self.templates: dict[str, Template] = {}
        self.instances: dict[str, Instance] = {}
        self.ops: list[Op] = []

    def template(self, key, base, relations):
        self.templates[key] = Template(base, dict(relations))
        return key

    def instance(self, key, n, sat, instance):
        name = f"{key}{n}{'s' if sat else 'u'}{len(self.instances)}"
        self.instances[name] = instance
        return name

    def op(self, command, template, instance=None, flags=(), expect=None, code=None):
        label = f"{len(self.ops):03d}-{command}-{template}"
        if instance is not None:
            label += f"-{instance}"
        if flags:
            label += "-" + "-".join(f.lstrip("-") for f in flags)
        self.ops.append(Op(label, command, template, instance, tuple(flags), expect, code))

    def corpus(self):
        return Corpus(self.templates, self.instances, self.ops)


# Each round of a workload runs REPLICAS copies of its mix, each copy with
# instances of its own, so that one round of the slow workloads takes about
# 15 seconds on a 2-core Xeon and a run is about one round.
REPLICAS = {"temporal-solve": 4, "kl-consistency": 4, "template-classify": 3, "small-solve": 12}

SAT_STATUS = {True: ("SAT", 0), False: ("UNSAT", 1)}
BOTH = (True, False)

# temporal-solve: (variables, template, --mode or None for the classified
# mode, satisfiable?) per instance; constraints are half the variables.  The
# median falls among the 20-variable solves, the 90th percentile among the
# 40-variable ones and the 80-variable {LT,LE} ones.  {LT,RMIN} stops at 60
# variables: at 80 one solve takes 1 to 2 s depending on the seed, and a few
# of them would set the whole round's time.
TEMPORAL_MIX = (
    [(12, key, mode, sat) for key, mode in (("rmax", "dual_ll"), ("le", "ll")) for sat in BOTH]
    + [(n, key, mode, sat) for n in (12, 20) for key, mode in
       (("rmin", None), ("rmin", "ll"), ("rmax", None), ("le", None)) for sat in BOTH]
    + [(30, key, mode, sat) for key, mode in
       (("rmin", None), ("rmin", "ll"), ("rmax", None)) for sat in BOTH]
    + [(40, key, None, sat) for key in ("rmin", "rmax") for sat in BOTH]
    + [(60, "rmin", None, True)] + [(80, "le", None, sat) for sat in BOTH]
)


def temporal_solve(rng: random.Random) -> Corpus:
    b = _Draft()
    for key in ("rmin", "rmax", "le"):
        b.template(key, "temporal", TEMPORAL_TEMPLATES[key])
    for _ in range(REPLICAS["temporal-solve"]):
        for n, key, mode, sat in TEMPORAL_MIX:
            inst = b.instance(key, n, sat, make_instance(rng, key, n, n // 2, sat))
            status, code = SAT_STATUS[sat]
            b.op("solve", key, inst, ("--mode", mode) if mode else (), status, code)
    return b.corpus()


# kl-consistency: (variables, template, satisfiable?); constraints equal the
# variables.  Unsatisfiable instances stop after one sweep, at a cost that
# hardly depends on the seed, so the mix puts the median in a block of
# 8-variable ones and the 90th percentile in a block of 12- and 14-variable
# ones; satisfiable instances run the fixpoint to stability.
HOMOG_KEYS = ("tour", "graph", "kfree")
KL_MIX = (
    [(6, key, True) for key in ("graph", "kfree", "rmin")]
    + [(6, key, False) for key in HOMOG_KEYS + ("rmin",)]
    + [(8, "rmin", True), (8, "rmin", False)]
    + [(8, key, False) for key in HOMOG_KEYS] * 3
    + [(10, "rmin", False)] * 3
    + [(8, key, True) for key in HOMOG_KEYS]
    + [(14, key, False) for key in HOMOG_KEYS] + [(12, "tour", False)]
    + [(12, "graph", True)]
)


def kl_consistency(rng: random.Random) -> Corpus:
    b = _Draft()
    for key, (base, relations) in HOMOG_SOLVE_TEMPLATES.items():
        b.template(key, base, relations)
    b.template("rmin", "temporal", TEMPORAL_TEMPLATES["rmin"])
    for _ in range(REPLICAS["kl-consistency"]):
        for n, key, sat in KL_MIX:
            inst = b.instance(key, n, sat, make_instance(rng, key, n, n, sat))
            status, code = ("CONSISTENT", 0) if sat else ("EMPTY_DERIVED", 1)
            b.op("consistency", key, inst, ("--kl", "2,3"), status, code)
    return b.corpus()


def template_classify(rng: random.Random) -> Corpus:
    b = _Draft()
    for _ in range(REPLICAS["template-classify"]):
        _classify_mix(b, rng)
    return b.corpus()


def _classify_mix(b: _Draft, rng: random.Random) -> None:
    named = [
        ("arc", "tournament", {"ARC": _fps(2, True, lambda t: t == (FWD,))}, "P_BOUNDED_WIDTH"),
        ("edge", "graph", {"E": _fps(2, False, lambda t: t == (E,))}, "P_BOUNDED_WIDTH"),
        ("tparity", "tournament", {"R4": parity(4, True)}, "P_NOT_BOUNDED_WIDTH"),
        ("gparity", "graph", {"R4": parity(4, False)}, "P_NOT_BOUNDED_WIDTH"),
        ("tone", "tournament", {"R": one_of_three(True)}, "NP_COMPLETE"),
        ("gone", "graph", {"R": one_of_three(False)}, "NP_COMPLETE"),
    ]
    for key, base, relations, verdict in named:
        b.template(key, base, relations)
        b.op("classify", key, expect=verdict, code=1 if verdict == "NP_COMPLETE" else 0)
    # Shape searches whose outcome the paper and the acceptance suite settle.
    for key, shape, found in (
        ("arc", "majority", True), ("edge", "sl_e", True), ("tparity", "majority", False),
        ("gparity", "sl_n", False), ("gparity", "sl_e", False), ("tone", "minority", False),
        ("gone", "sl_e", False),
    ):
        b.op("polysearch", key, flags=("--shape", shape),
             expect="FOUND" if found else "NONE", code=0 if found else 1)
    # Seeded random reducts of injective relations: two majority-closed
    # relations (bounded width), a minority-closed relation closed under no
    # width shape (minority only), or one-of-three plus a random closed
    # relation (NP-complete, since one-of-three alone is).
    for base, oriented in (("tournament", True), ("graph", False)) * 5:
        key = f"rmaj{len(b.templates)}"
        b.template(key, base, {f"R{j}": random_closed_relation(rng, oriented, "majority") for j in range(2)})
        b.op("classify", key, expect="P_BOUNDED_WIDTH", code=0)
        b.op("polysearch", key, flags=("--shape", "majority"), expect="FOUND", code=0)
        key = f"rminor{len(b.templates)}"
        b.template(key, base, {"S": minority_only_relation(rng, oriented)})
        b.op("classify", key, expect="P_NOT_BOUNDED_WIDTH", code=0)
        key = f"rnpc{len(b.templates)}"
        b.template(key, base, {"R": one_of_three(oriented), "S": random_closed_relation(rng, oriented, "majority")})
        b.op("classify", key, expect="NP_COMPLETE", code=1)
    # Temporal templates: known verdicts, and identity searches on their
    # two-element quotients, decided by the checker's own table enumeration.
    # The 15 ms classify and sl searches form the block in which the 90th
    # percentile falls; the random reducts hold the median.
    for key in ("rmin", "le", "betw", "rmax", "rmaxle", "rminle", "minmax"):
        b.template(key, "temporal", TEMPORAL_TEMPLATES[key])
        npc = key in ("betw", "minmax")
        b.op("classify", key, expect="NP_COMPLETE" if npc else "P", code=1 if npc else 0)
        for identity in ("semilattice", "majority", "minority") if key in ("rmin", "le", "betw", "rmax") else ():
            b.op("polysearch", key, flags=("--identity", identity))


# small-solve: sizes of the tournament, graph and kfree(3) instances, and of
# the betweenness instances solved through the exhaustive oracle.  Cores are
# declared first: how long an exhaustive search runs before it meets a core
# declared last depends on the seed by a factor of 25, which no run length
# averages out.  For the same reason satisfiable betweenness instances stop at
# 6 variables: at 7 the oracle's scan to the first solution takes 3 to 63 ms.
SMALL_SIZES = (4, 5, 6)
BETW_SIZES = ((5, True), (6, True), (5, False), (6, False), (7, False))


def small_solve(rng: random.Random) -> Corpus:
    b = _Draft()
    for key, (base, relations) in HOMOG_SOLVE_TEMPLATES.items():
        b.template(key, base, relations)
    b.template("betw", "temporal", TEMPORAL_TEMPLATES["betw"])
    cases = [(key, n, sat) for n in SMALL_SIZES for key in HOMOG_SOLVE_TEMPLATES for sat in BOTH]
    cases += [("betw", n, sat) for n, sat in BETW_SIZES]
    for _ in range(REPLICAS["small-solve"]):
        for key, n, sat in cases:
            inst = b.instance(key, n, sat, make_instance(rng, key, n, n, sat, core_first=True))
            status, code = SAT_STATUS[sat]
            b.op("solve", key, inst, (), status, code)
            b.op("oracle", key, inst, (), status, code)
    return b.corpus()


MIXES = {
    "temporal-solve": temporal_solve,
    "kl-consistency": kl_consistency,
    "template-classify": template_classify,
    "small-solve": small_solve,
}


def generate(workload: str, seed: int) -> Corpus:
    return MIXES[workload](random.Random(f"{workload}:{seed}"))
