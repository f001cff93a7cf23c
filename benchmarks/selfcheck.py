"""Quick self-check of the benchmark (about a minute).

    python3 benchmarks/selfcheck.py

Runs each workload at reduced size (workloads' quick mode) and checks that

* BENCHMARK.json names only valid metrics, each with a unit, and that an
  untraced run emits every end-to-end metric and a traced run every
  per-layer metric, with those units;
* the exact counters (*.calls, *.compiles) are equal on two traced runs of
  one seed;
* a corrupted output counts as a failed operation, for every command of
  every workload, and a y* off by 1e-5 fails the sweep's reference check.

Exits 0 when all hold, else 1 with the failures on stderr.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import sys
import tempfile

import run
from workloads import WORKLOADS

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SEED = 7

def expect(problems: list[str], ok: bool, what: str) -> None:
    print("%s  %s" % ("ok  " if ok else "FAIL", what))
    if not ok:
        problems.append(what)


def check_spec(problems: list[str], spec: dict) -> None:
    for kind in ("end_to_end", "per_layer"):
        for m in spec[kind]:
            valid = bool(NAME.match(m["name"])) and bool(UNIT.match(m["unit"]))
            expect(problems, valid, "%s metric %r has a valid name and unit"
                   % (kind, m["name"]))


def check_emitted(problems: list[str], spec: dict, workdir: str) -> dict:
    """Run every workload untraced and traced; return the traced results."""
    traced = {}
    for workload in WORKLOADS:
        for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
            result, _ = run.measure(workload, SEED, 0, trace, workdir,
                                    quick=True)
            want = {m["name"]: m["unit"] for m in spec[kind]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(problems, result["correct"] and got == want,
                   "%s --trace %d: correct, emits every %s metric with its "
                   "unit" % (workload, trace, kind))
            if trace:
                traced[workload] = result
    return traced


def check_counters(problems: list[str], traced: dict,
                   workdir: str) -> None:
    for workload, first in traced.items():
        again, _ = run.measure(workload, SEED, 0, True, workdir, quick=True)
        same = all(first["metrics"][k] == again["metrics"][k]
                   for k in run.EXACT)
        expect(problems, same,
               "%s: exact counters equal on two traced runs" % workload)


def _drop_last_line(text: str) -> str:
    return "\n".join(text.rstrip("\n").splitlines()[:-1]) + "\n"


def _bump_first_y(text: str) -> str:
    lines = text.splitlines()
    k = next(i for i, ln in enumerate(lines) if ln.startswith("x,")) + 1
    cells = lines[k].split(",")
    cells[1] = repr(float(cells[1]) + 1e-5)
    lines[k] = ",".join(cells)
    return "\n".join(lines) + "\n"


def check_corruption(problems: list[str], workdir: str) -> None:
    for workload, make in WORKLOADS.items():
        ops = make(SEED, workdir, True)
        for op in ops:
            op.check = (lambda c: lambda text: c(_drop_last_line(text)))(
                op.check)
        results = run.run_iteration(ops, workdir, False)
        expect(problems, all(r.reason is not None for r in results),
               "%s: a truncated output fails each of its %d commands"
               % (workload, len(ops)))
    op = WORKLOADS["sweep"](SEED, workdir, True)[0]
    op.check = (lambda c: lambda text: c(_bump_first_y(text)))(op.check)
    result = run.run_op(op, workdir, False)
    expect(problems,
           result.reason is not None and "reference" in result.reason,
           "sweep: y* off by 1e-5 fails the reference check")


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    sys.path.insert(0, run.SRC)
    problems: list[str] = []
    os.makedirs(run.WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=run.WORK)
    try:
        check_spec(problems, spec)
        check_counters(problems, check_emitted(problems, spec, workdir),
                       workdir)
        check_corruption(problems, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(run.WORK)
        except OSError:
            pass
    for p in problems:
        print("self-check failed: %s" % p, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
