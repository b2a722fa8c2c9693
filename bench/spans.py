"""Spans around the calls into each orbitcsp layer, recorded from outside.

``Tracer.install`` rebinds every traced function in every loaded orbitcsp
module that holds it (``establish_kl`` is bound in ``consistency``,
``polyengine``, ``cli`` and the package itself), so no call escapes the
count.  Each call becomes a span with its operation id, span id, parent span
id, name, start and end.  Self time is a span's duration minus the time its
child spans cover.  Spans stay in memory (up to SPAN_CAP; later ones are
only aggregated) and are written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path

# (module, attribute path) of every traced layer function.
LAYERS = (
    ("cli", "run"),
    ("cli", "parse_template"),
    ("cli", "parse_instance"),
    ("temporal", "solve_master"),
    ("temporal", "preserves_temporal"),
    ("temporal", "classify_temporal"),
    ("temporal", "build_afin"),
    ("temporal", "brute_oracle"),
    ("polyengine", "boolean_classify"),
    ("polyengine", "schaefer_solve"),
    ("polyengine", "find_polymorphism"),
    ("consistency", "establish_kl"),
    ("homog", "LabeledType.project"),
    ("homog", "enumerate_types"),
    ("homog", "classify_reduct"),
    ("homog", "search_behavior"),
    ("homog", "solve_instance_brute"),
    ("relstruct", "hom_search"),
)
SPAN_CAP = 200_000  # spans kept in memory; later ones are only aggregated

# The quotient solve of the temporal master loop: counted, for the ratio of
# levels committed to quotient solves, but not reported as a layer.
QUOTIENT_SOLVE = ("temporal", "_solve_afin")


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.dropped = 0
        self.calls: dict[str, int] = {f"{m}.{a}": 0 for m, a in LAYERS}
        self.self_s: dict[str, float] = {f"{m}.{a}": 0.0 for m, a in LAYERS}
        self.levels = 0  # levels returned by satisfiable solve_master calls
        self.quotient_solves = 0
        self.sat_quotient_solves = 0  # quotient solves under those calls
        self.op_id = 0  # one operation per cli.run call
        self._stack: list[list] = []  # [span id, child time, quotient solves] of open spans
        self._next_id = 1
        self._originals: list[tuple[object, str, object]] = []
        self.missing: set[str] = set()

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "orbitcsp" or n.startswith("orbitcsp.")]
        for module_name, path in LAYERS + (QUOTIENT_SOLVE,):
            home = sys.modules.get(f"orbitcsp.{module_name}")
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(home, owner_name) if owner_name else home
            original = getattr(owner, attr, None)
            if original is None:
                self.missing.add(f"{module_name}.{path}")
                continue
            name = f"{module_name}.{path}"
            wrapper = self._wrap_quotient(original) if path == QUOTIENT_SOLVE[1] else self._wrap(name, original)
            if owner_name:
                self._rebind(owner, attr, original, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, key, original, wrapper)

    def _rebind(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._originals.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    # -- spans ------------------------------------------------------------------

    def _wrap(self, name: str, fn):
        calls, self_s, stack, spans = self.calls, self.self_s, self._stack, self.spans
        clock = time.perf_counter
        count_levels = name == "temporal.solve_master"
        new_op = name == "cli.run"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if new_op:
                self.op_id += 1
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else 0
            frame = [span_id, 0.0, self.quotient_solves]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                calls[name] += 1
                self_s[name] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if len(spans) < SPAN_CAP:
                    spans.append((self.op_id, span_id, parent, name, start, end))
                else:
                    self.dropped += 1
            if count_levels and result is not None:
                self.levels += len(result)
                self.sat_quotient_solves += self.quotient_solves - frame[2]
            return result

        return traced

    def _wrap_quotient(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.quotient_solves += 1
            return fn(*args, **kwargs)

        return counted

    # -- results ------------------------------------------------------------------

    def layer_metrics(self, rounds: int) -> dict[str, tuple[float, str]]:
        """Per-round calls and self seconds of every layer, plus the ratio of
        levels committed to quotient solves in satisfiable master solves."""
        out: dict[str, tuple[float, str]] = {}
        for name in self.calls:
            out[f"{name}.calls"] = (self.calls[name] / rounds, "count")
            out[f"{name}.self_s"] = (self.self_s[name] / rounds, "s")
        solves = self.sat_quotient_solves
        ratio = self.levels / solves if solves else 0.0
        out["temporal.levels_per_quotient_solve"] = (ratio, "ratio")
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            out.write(json.dumps({"spans": len(self.spans), "dropped": self.dropped}) + "\n")
            for op_id, span_id, parent, name, start, end in self.spans:
                out.write(json.dumps({"op": op_id, "id": span_id, "parent": parent,
                                      "name": name, "start": start, "end": end}) + "\n")
