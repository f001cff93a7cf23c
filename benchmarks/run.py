"""sargkit benchmark: cold CLI processes, one at a time, with checked outputs.

    python3 benchmarks/run.py --workload certify --seed 1 --seconds 36 --trace 0

Runs the workload's command sequence (see workloads.py) again and again for
--seconds, each command a fresh `python -m sargkit.cli` interpreter on the
source tree under src/, never two at once (a closed loop with one client).
Every output is checked; a nonzero exit or a rejected output is a failed
operation.  The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json; with
--trace 1 every command of alternate iterations runs under the tracing
bootstrap (tracer.py) and the metrics are the per-layer ones.  Lines before
the last describe the machine and the run.  See BENCHMARK.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

from tracer import LAYERS, ProcessTrace
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
TRACER = os.path.join(HERE, "tracer.py")

# Fresh interpreters timed to `import sargkit.cli` before each iteration, so
# that set-up is sampled across the whole run.
SETUP_PER_ITERATION = 2
MIN_ITERATIONS = 3  # untraced; a traced run makes at least 2 of each kind

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


@dataclass
class Proc:
    code: int
    wall_s: float
    rss_kb: int
    cpu_s: float


def run_process(argv: list[str], cwd: str, stdout: str, stderr: str) -> Proc:
    """Run one child to completion; time it and read its resource usage."""
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=cwd,
                                env=_child_env())
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(proc.returncode, wall, usage.ru_maxrss,
                usage.ru_utime + usage.ru_stime)


@dataclass
class OpResult:
    name: str
    proc: Proc
    reason: str | None  # None when the operation succeeded
    trials: int
    trace: object = None  # tracer.ProcessTrace of a traced command


def run_op(op, workdir: str, traced: bool) -> OpResult:
    stdout = os.path.join(workdir, "stdout.txt")
    stderr = os.path.join(workdir, "stderr.txt")
    spans = os.path.join(workdir, "spans.npz")
    for stale in (op.out, spans):
        if stale and os.path.exists(stale):
            os.remove(stale)
    if traced:
        argv = [sys.executable, TRACER, spans, *op.argv]
    else:
        argv = [sys.executable, "-m", "sargkit.cli", *op.argv]
    proc = run_process(argv, workdir, stdout, stderr)
    reason = trace = None
    if proc.code != 0:
        with open(stderr, errors="replace") as fh:
            last = fh.read().strip().splitlines()[-1:] or [""]
        reason = "exit code %d: %s" % (proc.code, last[0])
    else:
        try:
            with open(op.out or stdout) as fh:
                reason = op.check(fh.read())
        except Exception as exc:  # any unreadable output is a failed check
            reason = "unreadable output: %r" % (exc,)
        if traced:
            trace = ProcessTrace(spans)
    return OpResult(op.name, proc, reason, op.trials, trace)


def run_iteration(ops, workdir: str, traced: bool) -> list[OpResult]:
    results = [run_op(op, workdir, traced) for op in ops]
    for r in results:
        if r.reason is not None:
            print("FAILED %s: %s" % (r.name, r.reason), file=sys.stderr)
    return results


def time_setup(workdir: str) -> float:
    """Wall time of a fresh interpreter that imports sargkit.cli and exits."""
    proc = run_process([sys.executable, "-c", "import sargkit.cli"], workdir,
                       os.path.join(workdir, "setup.out"),
                       os.path.join(workdir, "setup.err"))
    if proc.code != 0:
        raise RuntimeError("import sargkit.cli failed (exit %d)" % proc.code)
    return proc.wall_s


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def _wall(it: list[OpResult]) -> float:
    return sum(r.proc.wall_s for r in it)


def tail(samples: list[float]) -> tuple[float, float] | None:
    """Highest of p75/p90/p95/p99/p99.9 with at least ten samples above it."""
    s = sorted(samples)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0):
        if len(s) * (1.0 - p / 100.0) >= 10:
            return p, s[math.ceil(p / 100.0 * len(s)) - 1]
    return None


def _describe(name: str, unit: str, samples: list[float]) -> str:
    t = tail(samples)
    tail_txt = ("p%g %.6g" % t) if t else "no tail (n < 11)"
    return "%-16s median %.6g %s, min %.6g, %s, n=%d" % (
        name, statistics.median(samples), unit, min(samples), tail_txt,
        len(samples))


def end_to_end(iters: list[list[OpResult]], setup: list[float]) -> dict:
    # wall_s adds up each command's median, so that a burst of load from
    # elsewhere on the machine costs one sample of one command rather than
    # a whole iteration.
    per_command = [[r.proc.wall_s for r in col] for col in zip(*iters)]
    wall = sum(statistics.median(c) for c in per_command)
    rss = max(r.proc.rss_kb for it in iters for r in it) / 1024.0
    print("wall_s           %.6g s (sum of command medians)" % wall)
    print(_describe("iteration wall", "s", [_wall(it) for it in iters]))
    print(_describe("setup_s", "s", setup))
    print("peak_rss_mb      %.6g MB" % rss)
    sim = [statistics.median(c) for r, c in zip(iters[0], per_command)
           if r.trials]
    if sim:
        print("mc_trials_per_s  %.6g 1/s (trials / sum of simulate medians)"
              % (sum(r.trials for r in iters[0]) / sum(sim)))
    for r, samples in zip(iters[0], per_command):
        print(_describe("  " + r.name, "s", samples))
    return {
        "wall_s": {"value": wall, "unit": "s"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
    }


# The per-layer metrics of the result.  A time here is one that every
# workload measures as nonzero: layer self times include the layer's module
# import.  Function-level times, which are exactly 0 on workloads that never
# call the function, are printed in the span table instead.
PER_LAYER_UNITS = {
    "qmath.self_s": "s", "attack_forms.self_s": "s", "bounds.self_s": "s",
    "keyrate.self_s": "s", "simulate.self_s": "s", "reports.self_s": "s",
    "cli.self_s": "s", "cli.import_s": "s", "reports.render.s": "s",
    "qmath.min_eigenvalue.calls": "count",
    "attack_forms.all_forms.compiles": "count",
    "attack_forms.conditional_pair_state.calls": "count",
    "bounds.frontier.calls": "count",
    "bounds.frontier.eigh_per_point": "calls/point",
    "bounds.psd_margin.calls": "count",
    "keyrate.ephase_bound_two.calls": "count",
    "simulate.run_monte_carlo.calls": "count",
    "simulate.trials": "count",
    "process.cpu_s": "s", "process.cpu_over_wall": "ratio",
    "trace.wall_s": "s", "trace.overhead_s": "s", "trace.spans": "count",
}

# Exact counters: equal on every traced iteration of one seed.
EXACT = tuple(k for k, u in PER_LAYER_UNITS.items() if u in ("count",
                                                             "calls/point"))


class IterationTrace:
    """Span totals of one traced iteration, summed over its processes."""

    def __init__(self, it: list[OpResult]):
        traces = [r.trace for r in it]
        self.wall_s = _wall(it)
        self.trials = sum(r.trials for r in it)
        self.spans = sum(t.spans for t in traces)
        self.frontier_eigh = sum(t.frontier_eigh for t in traces)
        self.import_s = statistics.median(t.total_s["cli.import"]
                                          for t in traces)
        self.table: dict[str, dict[str, float]] = {}
        for field in ("count", "total_s", "self_s", "calls", "misses"):
            agg = self.table.setdefault(field, {})
            for t in traces:
                for name, v in getattr(t, field).items():
                    agg[name] = agg.get(name, 0) + v
        self.layer_self_s = {
            ly: sum(v for name, v in self.table["self_s"].items()
                    if name.split(".")[0] == ly)
            for ly in LAYERS}

    def get(self, field: str, name: str) -> float:
        return self.table[field].get(name, 0)

    def metrics(self) -> dict[str, float]:
        frontier_calls = self.get("count", "bounds.frontier")
        out = {"%s.self_s" % ly: v for ly, v in self.layer_self_s.items()}
        out.update({
            # Everything the layers do not cover: interpreter start-up,
            # imports outside sargkit, argument handling, writing output and
            # the spans themselves.
            "cli.self_s": self.wall_s - sum(self.layer_self_s.values()),
            "cli.import_s": self.import_s,
            "reports.render.s": self.get("total_s", "reports.render_csv")
            + self.get("total_s", "reports.render_json"),
            "qmath.min_eigenvalue.calls":
                self.get("count", "qmath.min_eigenvalue"),
            "attack_forms.all_forms.compiles":
                self.get("misses", "attack_forms.all_forms"),
            "attack_forms.conditional_pair_state.calls":
                self.get("calls", "attack_forms.conditional_pair_state"),
            "bounds.frontier.calls": frontier_calls,
            "bounds.frontier.eigh_per_point":
                self.frontier_eigh / frontier_calls if frontier_calls else 0,
            "bounds.psd_margin.calls": self.get("count", "bounds.psd_margin"),
            "keyrate.ephase_bound_two.calls":
                self.get("count", "keyrate.ephase_bound_two"),
            "simulate.run_monte_carlo.calls":
                self.get("count", "simulate.run_monte_carlo"),
            "simulate.trials": self.trials,
            "trace.wall_s": self.wall_s,
            "trace.spans": self.spans,
        })
        return out

    def derived(self) -> dict[str, float]:
        """Function-level figures, printed with the span table."""
        run_mc = self.get("total_s", "simulate.run_monte_carlo")
        return {
            "qmath.min_eigenvalue.s": self.get("total_s",
                                               "qmath.min_eigenvalue"),
            "attack_forms.all_forms.self_s":
                self.get("self_s", "attack_forms.all_forms"),
            "bounds.frontier.self_s": self.get("self_s", "bounds.frontier"),
            "keyrate.thresholds.self_s": sum(
                self.get("self_s", "keyrate." + f) for f in
                ("threshold_single", "threshold_two", "sixstate_thresholds")),
            "simulate.run_monte_carlo.s": run_mc,
            "simulate.trials_per_s": self.trials / run_mc if run_mc else 0.0,
            "simulate.exact_channel_stats.s":
                self.get("total_s", "simulate.exact_channel_stats"),
        }


DERIVED_UNITS = {"simulate.trials_per_s": "1/s"}


def _print_span_table(its: list[IterationTrace]) -> None:
    """Per-span calls and medians of total and self time, then derived figures."""
    print("span                                  calls     total_s      self_s")
    for name in sorted(its[0].table["count"]):
        print("%-34s %8d %11.6f %11.6f" % (
            name, its[0].get("count", name),
            statistics.median(i.get("total_s", name) for i in its),
            statistics.median(i.get("self_s", name) for i in its)))
    for name, calls in sorted(its[0].table["calls"].items()):
        print("%-34s %8d %11s %11s" % (name, calls, "-", "-"))
    derived = [i.derived() for i in its]
    for name in derived[0]:
        print("%-34s %.6g %s" % (name, statistics.median(d[name]
                                                         for d in derived),
                                 DERIVED_UNITS.get(name, "s")))


def per_layer(traced: list[list[OpResult]],
              untraced: list[list[OpResult]]) -> tuple[dict, list[str]]:
    """Medians over traced iterations, plus a list of counter mismatches."""
    its = [IterationTrace(it) for it in traced]
    _print_span_table(its)
    per_it = [i.metrics() for i in its]
    mismatched = [k for k in EXACT if len({m[k] for m in per_it}) > 1]
    values = {k: per_it[0][k] if k in EXACT else
              statistics.median(m[k] for m in per_it) for k in per_it[0]}
    cpu = [sum(r.proc.cpu_s for r in it) for it in untraced]
    values["process.cpu_s"] = statistics.median(cpu)
    values["process.cpu_over_wall"] = statistics.median(
        c / _wall(it) for c, it in zip(cpu, untraced))
    values["trace.overhead_s"] = values["trace.wall_s"] - statistics.median(
        _wall(it) for it in untraced)
    return ({k: {"value": values[k], "unit": PER_LAYER_UNITS[k]}
             for k in PER_LAYER_UNITS}, mismatched)


# ---------------------------------------------------------------------------
# Run record
# ---------------------------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> dict:
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        return {k: {f: deps[k].get(f) for f in ("name", "version")}
                for k in ("blas", "lapack") if k in deps}
    except (TypeError, KeyError, AttributeError):
        return {}


def _git() -> dict:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return {"commit": None, "dirty": None}
    env = dict(os.environ, GIT_OPTIONAL_LOCKS="0")  # read-only status

    def git(*args):
        return subprocess.run(["git", *args], cwd=ROOT, env=env, text=True,
                              capture_output=True).stdout.strip()

    return {"commit": git("rev-parse", "HEAD") or None,
            "dirty": bool(git("status", "--porcelain"))}


def run_record(args, iterations: int) -> dict:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "git": _git(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "iterations": iterations,
        "setup_repeats": 0 if args.trace else SETUP_PER_ITERATION * iterations,
    }


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def measure(workload: str, seed: int, seconds: float, trace: bool,
            workdir: str, quick: bool = False) -> tuple[dict, int]:
    """Run one workload for `seconds`; return (result object, iterations)."""
    ops = WORKLOADS[workload](seed, workdir, quick)
    setup: list[float] = []
    untraced, traced, spent = [], [], []
    t0 = time.perf_counter()
    while True:
        if trace:
            short = len(traced) < 2 or len(untraced) < 2
        else:
            short = len(untraced) < MIN_ITERATIONS
        # Start an iteration only when it should end within `seconds`.
        cost = statistics.median(spent) if spent else 0.0
        if not short and time.perf_counter() - t0 + cost > seconds:
            break
        started = time.perf_counter()
        if not trace:
            setup += [time_setup(workdir) for _ in range(SETUP_PER_ITERATION)]
        is_traced = trace and len(traced) < len(untraced)
        (traced if is_traced else untraced).append(
            run_iteration(ops, workdir, is_traced))
        spent.append(time.perf_counter() - started)

    everything = [r for it in untraced + traced for r in it]
    failed = sum(r.reason is not None for r in everything)
    correct = failed == 0
    print("fail_rate        %.6g (%d of %d ops)" % (
        failed / len(everything), failed, len(everything)))
    if not trace:
        metrics = end_to_end(untraced, setup)
    elif all(r.trace for it in traced for r in it):
        metrics, mismatched = per_layer(traced, untraced)
        if mismatched:
            correct = False
            print("exact counters differ between repeats: %s"
                  % ", ".join(mismatched), file=sys.stderr)
    else:
        metrics = {}  # a traced command failed, so its spans are missing
    result = {"correct": correct, "attempted": len(everything),
              "failed": failed, "metrics": metrics}
    return result, len(untraced) + len(traced)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "sargkit", "cli.py")):
        print("benchmark: no sargkit source tree under %s" % SRC,
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)  # the sweep reference reads the compiled forms

    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORK)
    try:
        result, iterations = measure(args.workload, args.seed, args.seconds,
                                     bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass  # another run still uses it
    print("record: " + json.dumps(run_record(args, iterations), sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
