"""Run one benchmark workload against the orbitcsp sources of this checkout.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process, one caller, no threads: a closed loop of ``orbitcsp.cli.run``
calls on template and instance files generated from the seed during set-up.
Every report and exit code is checked by ``check.py``; a wrong one counts as
a failed operation.  The loop repeats whole rounds over the corpus until S
seconds have passed and at least MIN_OPS operations were attempted.

Times are corrected for the machine's speed of the moment: a fixed
pure-Python probe runs between operations, and each operation's time is
scaled by REFERENCE_PROBE_S over the mean of the probes just before and just
after it.  The probe does not touch orbitcsp, so a change to the program
moves the corrected times as it moves the raw ones, while a shared machine
that slows down for a while does not.  Raw figures go to standard error.

With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
separate traced run, whose spans go to ``.bench_work/spans-*.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
sys.path.insert(0, str(BENCH))

from check import Checker, self_test  # noqa: E402
from corpus import WORKLOADS, generate  # noqa: E402
from spans import Tracer  # noqa: E402

MIN_OPS = 100
SETUP_REPEATS = 5
PROBE_LOOPS = 20_000
REFERENCE_PROBE_S = 0.0015  # the probe's time at the reference speed


def probe() -> float:
    """Time a fixed pure-Python loop: the machine's speed right now."""
    start = time.perf_counter()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i * i % 7
    return time.perf_counter() - start


def corrected(elapsed: float, before: float, after: float) -> float:
    return elapsed * REFERENCE_PROBE_S * 2 / (before + after)


def import_cli():
    """Import orbitcsp afresh from this checkout's sources (never from an
    installed copy) and return its ``cli`` module."""
    if not (SRC / "orbitcsp" / "__init__.py").is_file():
        raise SystemExit(f"error: no orbitcsp sources in {SRC}")
    for name in [n for n in sys.modules if n == "orbitcsp" or n.startswith("orbitcsp.")]:
        del sys.modules[name]
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    import orbitcsp.cli

    if Path(orbitcsp.cli.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"error: imported orbitcsp from {orbitcsp.cli.__file__}")
    return orbitcsp.cli


def set_up(workload: str, seed: int, directory: Path):
    """Import the package and generate and write the corpus; returns the
    corrected and the raw time with the results."""
    before = probe()
    start = time.perf_counter()
    cli = import_cli()
    corpus = generate(workload, seed)
    argvs = corpus.write(directory)
    elapsed = time.perf_counter() - start
    return corrected(elapsed, before, probe()), elapsed, cli, corpus, argvs


class Loop:
    """Runs rounds over the corpus, timing and checking every operation."""

    def __init__(self, cli, corpus, argvs, checker: Checker):
        self.cli, self.corpus, self.argvs, self.checker = cli, corpus, argvs, checker
        self.latencies: list[float] = []  # corrected
        self.raw: list[float] = []
        self.failed = 0
        self.reasons: list[str] = []
        self.first_round: list[tuple] = []

    def round(self) -> float:
        """One pass over the corpus; returns its summed corrected time."""
        total = 0.0
        keep = not self.first_round
        before = probe()
        for op in self.corpus.ops:
            argv = self.argvs[op.label]
            start = time.perf_counter()
            try:
                report, code = self.cli.run(argv)
            except Exception as exc:  # a crash is a failed operation, not the end of the run
                report, code = f"crash: {exc!r}\n", -1
            elapsed = time.perf_counter() - start
            after = probe()
            latency = corrected(elapsed, before, after)
            before = after
            total += latency
            self.latencies.append(latency)
            self.raw.append(elapsed)
            reason = self.checker.check(op, report, code)
            if reason is not None:
                self.failed += 1
                if len(self.reasons) < 5:
                    self.reasons.append(f"{op.label}: {reason}")
            if keep:
                self.first_round.append((op, report, code))
        return total


def latency_metrics(lat: list[float]) -> dict:
    return {
        "ops_per_s": (len(lat) / sum(lat), "ops/s"),
        "op_ms_p50": (statistics.median(lat) * 1e3, "ms"),
        "op_ms_p90": (statistics.quantiles(lat, n=10)[8] * 1e3, "ms"),
    }


def measure(loop: Loop, seconds: float) -> dict:
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(loop.latencies) < MIN_OPS:
        loop.round()
    metrics = latency_metrics(loop.latencies)
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    return metrics


def measure_traced(loop: Loop, seconds: float, spans_path: Path) -> dict:
    """An untraced first round, then traced and untraced rounds in turn; the
    overhead is the traced minus the untraced round time, per round."""
    tracer = Tracer()
    loop.round()
    traced, untraced = [], []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or not untraced:
        tracer.install()
        try:
            traced.append(loop.round())
        finally:
            tracer.uninstall()
        untraced.append(loop.round())
    tracer.write(spans_path)
    if tracer.missing:
        print(f"warning: not found, reported as 0: {', '.join(sorted(tracer.missing))}", file=sys.stderr)
    metrics = tracer.layer_metrics(len(traced))
    overhead = (sum(traced) - sum(untraced)) / len(traced)
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.overhead_pct"] = (100 * overhead / (sum(untraced) / len(untraced)), "%")
    return metrics


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    directory = WORK / f"corpus-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setups = [set_up(args.workload, args.seed, directory) for _ in range(SETUP_REPEATS)]
        _, _, cli, corpus, argvs = setups[-1]
        checker = Checker(corpus)
        loop = Loop(cli, corpus, argvs, checker)
        if args.trace:
            spans = WORK / f"spans-{args.workload}-{args.seed}.jsonl"
            metrics = measure_traced(loop, args.seconds, spans)
        else:
            metrics = measure(loop, args.seconds)
            metrics["setup_s"] = (statistics.median(s[0] for s in setups), "s")
            raw = latency_metrics(loop.raw)
            raw["setup_s"] = (statistics.median(s[1] for s in setups), "s")
            print("uncorrected: " + " ".join(f"{k}={v:.4g}" for k, (v, _) in raw.items()), file=sys.stderr)
        tried, missed = self_test(checker, loop.first_round)
    finally:
        shutil.rmtree(directory, ignore_errors=True)

    for line in loop.reasons + missed:
        print(f"failed: {line}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {len(corpus.ops)} ops per round, "
          f"{len(loop.latencies)} timed, self-test rejected {tried - len(missed)}/{tried} corruptions",
          file=sys.stderr)
    result = {
        "correct": loop.failed == 0 and not missed and tried > 0,
        "attempted": len(loop.latencies),
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
