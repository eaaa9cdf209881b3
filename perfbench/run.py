"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload construct --seed 0 --seconds 10 --trace 0

Run from the root of a checkout; the library is imported from ``src``.
The load is closed-loop: one process runs one task at a time.  The run
repeats rounds until the timed phase has lasted ``--seconds`` at the
reference speed (below; at least three rounds); each round builds a fresh
task set (set-up), then runs it (timed phase), then checks every answer.

Times are scaled to a reference machine speed.  A short fixed probe (pure
Python ``Fraction`` arithmetic, no library code) runs before set-up and
after set-up and after every task, outside the timed intervals; each
interval is multiplied by ``REF_PROBE_S`` over the mean probe time on its
two sides.  The shared machine's speed drifts by up to 2x within a
minute; the scaling cancels most of that drift, and a change to the
library still moves the scaled times as it moves the raw ones.  The run
length is counted in scaled time too, so the number of rounds, and with it
the percentile that ``task_tail_s`` falls on, does not follow the
machine's speed.  The run record keeps the raw times beside the scaled
ones.

With ``--trace 0`` the last stdout line reports the end-to-end metrics;
with ``--trace 1`` the first half of the time runs untraced and the second
half under the tracer, and the line reports the per-layer metrics.  The
exit code is 1 when any task fails: an exception, a non-zero exit code, a
wrong answer, or a golden digest mismatch on the default seed.
"""

import argparse
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from fractions import Fraction
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
GOLDEN = os.path.join(HERE, "golden.json")
DEFAULT_SEED = 0
MIN_ROUNDS = 3
DIGEST_ROUNDS = 3  # the printed digest covers this many rounds, so two commits compare
GOLDEN_ROUNDS = 8  # golden.json pins this many rounds of the default seed
REF_PROBE_S = 0.004  # the probe's time on the reference machine
PROBE_REPEATS = 5


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-golden", action="store_true",
                   help=f"record the golden digests of {GOLDEN_ROUNDS} rounds of the default seed")
    return p.parse_args(argv)


def import_library():
    """Import monoidring from this checkout's ``src``, and nothing else."""
    init = os.path.join(SRC, "monoidring", "__init__.py")
    if not os.path.isfile(init):
        raise SystemExit(f"error: no library at {init}; run from a full checkout")
    sys.path.insert(0, SRC)
    import monoidring

    if os.path.abspath(monoidring.__file__) != init:
        raise SystemExit(f"error: imported monoidring from {monoidring.__file__}")


def probe_work():
    s = Fraction(0)
    for i in range(1, 800):
        s += Fraction(1, i) if i % 7 else Fraction(-3, i + 1)
    return s


def probe():
    """The probe's time now: the median of a few short runs."""
    times = []
    for _ in range(PROBE_REPEATS):
        t = perf_counter()
        probe_work()
        times.append(perf_counter() - t)
    return statistics.median(times)


def scale(before, after):
    """The factor from raw seconds to reference seconds for an interval
    between two probes."""
    return 2 * REF_PROBE_S / (before + after)


def sha(data):
    return hashlib.sha256(data).hexdigest()


class Runner:
    """Rounds of one workload; keeps every measurement of the run."""

    def __init__(self, workload, seed, golden):
        self.workload = workload
        self.seed = seed
        self.golden = golden if seed == DEFAULT_SEED else {}
        self.tracer = None  # set for the traced half of a traced run
        self.rounds = 0
        self.setup_s = []  # scaled to the reference speed, as are round_s and task_s
        self.round_s = []
        self.task_s = []
        self.raw_setup_s = []
        self.raw_round_s = []
        self.raw_task_s = []
        self.probe_s = []
        self.attempted = 0
        self.failed = 0
        self.digests = []  # per round, per task

    def round(self):
        r = self.rounds
        self.rounds += 1
        rng = random.Random(f"{self.workload.name}:{self.seed}:{r}")
        before = self.probe()
        t0 = perf_counter()
        tasks = self.workload.setup(rng, r)
        raw = perf_counter() - t0
        p = self.probe()
        self.raw_setup_s.append(raw)
        self.setup_s.append(raw * scale(before, p))

        tracer = self.tracer
        outputs = []
        probing = 0.0
        start = perf_counter()
        for i, task in enumerate(tasks):
            if tracer:
                tracer.current_task = len(self.task_s)
                tracer.active = True
            error = None
            t = perf_counter()
            try:
                outputs.append(self.workload.run(task))
            except Exception:  # noqa: BLE001 - a failed task, reported below
                outputs.append(None)
                error = traceback.format_exc(limit=3)
            raw = perf_counter() - t
            if tracer:
                tracer.active = False
            t = perf_counter()
            after = self.probe()
            probing += perf_counter() - t
            self.raw_task_s.append(raw)
            self.task_s.append(raw * scale(p, after))
            p = after
            if error is not None:
                print(f"task {r}.{i} raised:\n{error}", file=sys.stderr)
        raw = perf_counter() - start - probing
        n = len(tasks)
        self.raw_round_s.append(raw)
        self.round_s.append(raw * sum(self.task_s[-n:]) / sum(self.raw_task_s[-n:]))

        expected = self.golden.get(self.workload.name, [])
        expected = expected[r] if r < len(expected) else None
        digests = []
        for i, (task, out) in enumerate(zip(tasks, outputs)):
            self.attempted += 1
            if out is None:
                self.failed += 1
                digests.append(None)
                continue
            digest = sha(self.workload.digest(task, out))
            digests.append(digest)
            try:
                error = self.workload.check(task, out)
            except Exception as exc:  # noqa: BLE001 - an answer the check cannot read
                error = f"unreadable answer: {exc!r}"
            if error is None and expected is not None and expected[i] != digest:
                error = f"golden digest mismatch ({digest[:12]} != {expected[i][:12]})"
            if error is not None:
                self.failed += 1
                print(f"task {r}.{i} ({task.get('label', '')}) wrong: {error}", file=sys.stderr)
        self.digests.append(digests)

    def probe(self):
        t = probe()
        self.probe_s.append(t)
        return t

    def run_for(self, seconds, min_rounds):
        first = self.rounds
        while self.rounds - first < min_rounds or sum(self.round_s[first:]) < seconds:
            self.round()

    def digest(self):
        h = hashlib.sha256()
        for digests in self.digests[:DIGEST_ROUNDS]:
            for d in digests:
                h.update((d or "failed").encode())
        return h.hexdigest()


def tail(values):
    """The highest-percentile value with at least ten values beyond it."""
    ordered = sorted(values)
    return ordered[max(len(ordered) - 11, 0)]


def end_to_end(runner):
    return {
        "setup_s": (statistics.median(runner.setup_s), "s"),
        # the mean: on recorded runs it spread less across seeds than the median
        "wall_s": (statistics.mean(runner.round_s), "s"),
        "task_p50_s": (statistics.median(runner.task_s), "s"),
        "task_tail_s": (tail(runner.task_s), "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }


def per_layer(runner, tracer, untraced_rounds):
    traced_rounds = runner.rounds - untraced_rounds
    untraced_s = runner.round_s[:untraced_rounds]
    traced_s = runner.round_s[untraced_rounds:]
    raw_traced_s = runner.raw_round_s[untraced_rounds:]
    # self times are scaled by the traced rounds' own factor
    factor = sum(traced_s) / sum(raw_traced_s)
    summary = tracer.summary()
    metrics = {}
    for name in tracer.names:
        metrics[f"{name}.calls"] = (summary["calls"][name] / traced_rounds, "count")
        metrics[f"{name}.self_s"] = (summary["self_s"][name] * factor / traced_rounds, "s")
    counts = tracer.counts
    calls = summary["calls"]
    metrics["polyhedral.faces"] = (counts["polyhedral.faces"] / traced_rounds, "count")
    metrics["typology.fibers"] = (counts["typology.fibers"] / traced_rounds, "count")
    metrics["typology.distinct_filters"] = (
        counts["typology.distinct_filters"] / traced_rounds, "count")
    metrics["typology.filter_reuse_ratio"] = (
        counts["typology.distinct_filters"] / counts["typology.fibers"]
        if counts["typology.fibers"] else 0.0, "ratio")
    constructs = calls["constructions.delta_construct"]
    metrics["constructions.attempts"] = (
        counts["constructions.attempts"] / constructs if constructs else 0.0, "count")
    metrics["trace.overhead_ratio"] = (
        statistics.median(traced_s) / statistics.median(untraced_s) - 1, "ratio")
    metrics["trace.coverage_ratio"] = (summary["top_level_s"] / sum(raw_traced_s), "ratio")
    return metrics, summary


def record_golden(workload_cls):
    golden = {}
    if os.path.exists(GOLDEN):
        with open(GOLDEN) as fh:
            golden = json.load(fh)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        workload = workload_cls(tmp, {})
        runner = Runner(workload, DEFAULT_SEED, {})
        for _ in range(GOLDEN_ROUNDS):
            runner.round()
        invariants = workload.reference_invariants()
    if runner.failed:
        raise SystemExit("error: refusing to record a run with failed tasks")
    golden.setdefault("seed", DEFAULT_SEED)
    golden.setdefault("digests", {})[workload.name] = runner.digests
    golden.setdefault("invariants", {})[workload.name] = invariants
    with open(GOLDEN, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {GOLDEN_ROUNDS} rounds of {workload.name} into {GOLDEN}")


def main(argv=None):
    args = parse_args(argv)
    import_library()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    workload_cls = workloads.WORKLOADS[args.workload]
    os.makedirs(OUT, exist_ok=True)
    if args.record_golden:
        record_golden(workload_cls)
        return 0

    with open(GOLDEN) as fh:
        golden = json.load(fh)
    invariants = golden.get("invariants", {}).get(args.workload, {})
    tmp = tempfile.mkdtemp(dir=OUT)
    try:
        workload = workload_cls(tmp, invariants)
        if args.trace:
            from tracer import Tracer

            runner = Runner(workload, args.seed, golden.get("digests", {}))
            runner.run_for(args.seconds / 2, 2)
            untraced_rounds = runner.rounds
            runner.tracer = tracer = Tracer()
            tracer.install()
            try:
                runner.run_for(args.seconds / 2, 2)
            finally:
                tracer.uninstall()
            metrics, summary = per_layer(runner, tracer, untraced_rounds)
            extra = {"traced_rounds": runner.rounds - untraced_rounds,
                     "inclusive_s": summary["inclusive_s"], "spans": summary["spans"]}
            spans = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.bin")
            tracer.write(spans)
        else:
            runner = Runner(workload, args.seed, golden.get("digests", {}))
            runner.run_for(args.seconds, MIN_ROUNDS)
            metrics = end_to_end(runner)
            extra = {}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": runner.rounds,
        "tasks": len(runner.task_s),
        "tail_percentile": round(max(0.0, 100 * (1 - 10 / len(runner.task_s))), 2),
        "digest": runner.digest(),
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
    }
    run_file = os.path.join(OUT, f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(run_file, "w") as fh:
        json.dump({**record, "setup_s": runner.setup_s, "round_s": runner.round_s,
                   "task_s": runner.task_s, "raw_setup_s": runner.raw_setup_s,
                   "raw_round_s": runner.raw_round_s, "raw_task_s": runner.raw_task_s,
                   "probe_s": runner.probe_s,
                   "metrics": {k: v for k, (v, _) in metrics.items()}, **extra}, fh, indent=1)
    print(" ".join(f"{k}={v}" for k, v in record.items()))
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if runner.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
