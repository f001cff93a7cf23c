"""The benchmark's workloads: sargkit CLI command sequences and their output checks.

A workload is a list of operations.  One operation is one `sargkit` CLI
command, run as a fresh interpreter; it fails on a nonzero exit or when its
check rejects the output.  The same list is run once per iteration, so a
check can compare an output with the one it saw in an earlier iteration.

Every input is derived from the benchmark seed (`derive`); the program only
ever sees the generated command lines and config files.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

# A check takes the operation's output text (stdout, or the --out file) and
# returns None when the output is correct, else a one-line reason.
Check = Callable[[str], "str | None"]


@dataclass
class Op:
    """One CLI command of a workload."""

    name: str
    argv: list[str]
    check: Check
    out: str | None = None  # file the command writes with --out, else stdout
    trials: int = 0  # Monte Carlo trials the command simulates


# Monte Carlo seeds for the fixed-photon-number runs.  Each passes the 3-sigma
# compare of both fixed-nu configs below (MC_FIXED) on the commit that defined
# the benchmark; `python3 benchmarks/vet_seeds.py` regenerates the list.  A
# 3-sigma z-test rejects about 0.3% of correct runs per test, so drawing from
# this pool keeps fail_rate a measure of defects rather than of chance.  A
# change that biases the statistics still moves z; a change that alters the
# counter-based stream changes the tallies and is caught by the repeat check
# and, when it is biased, by the z-tests.
MC_SEED_POOL = (
    0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15,
    16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31,
    32, 33, 34, 35, 36, 37, 38, 39, 40, 43, 44, 45, 46, 47, 48, 49,
)  # 41 and 42 fail a compare

MC_COHERENT = {"protocol": "six-state", "mu": 0.5, "p": 0.02, "eta": 0.6,
               "trials": 1_000_000}
MC_FIXED = (
    {"protocol": "four-state", "nu": 1, "p": 0.03, "eta": 0.5,
     "trials": 2_000_000},
    {"protocol": "four-state", "nu": 2, "p": 0.03, "eta": 0.5,
     "trials": 2_000_000},
)


def derive(workload: str, seed: int) -> int:
    """A 64-bit value fixed by (workload, seed) on every platform and commit."""
    digest = hashlib.sha256(("%s:%d" % (workload, seed)).encode()).digest()
    return int.from_bytes(digest[:8], "big")


# ---------------------------------------------------------------------------
# Output parsers shared by the checks
# ---------------------------------------------------------------------------

def _check_table(text: str) -> str | None:
    """verify / constants-check: every row PASS and the summary PASS."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if len(lines) < 2 or lines[-1] != "summary: PASS":
        return "summary line is not 'summary: PASS'"
    bad = [ln for ln in lines[:-1] if not ln.rstrip().endswith("PASS")]
    if bad:
        return "row not PASS: %s" % bad[0].strip()
    return None


def _csv_rows(text: str) -> list[dict]:
    body = "\n".join(ln for ln in text.splitlines() if not ln.startswith("#"))
    return list(csv.DictReader(io.StringIO(body)))


def _json_results(text: str) -> dict:
    return json.loads(text)["results"]


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

def _check_four_state_thresholds(text: str) -> str | None:
    rows = _csv_rows(text)
    if [r["nu"] for r in rows] != ["1", "2"]:
        return "expected rows nu=1, 2"
    for r in rows:
        if r["within_tolerance"] != "True":
            return "nu=%s threshold outside tolerance" % r["nu"]
    return None


def _check_six_state_thresholds(text: str) -> str | None:
    rows = [r for r in _csv_rows(text) if r["label"] == "six-state"]
    if [r["nu"] for r in rows] != ["1", "2", "3", "4"]:
        return "expected six-state rows nu=1..4"
    es = [float(r["e_threshold"]) for r in rows]
    if not all(0.0 <= e <= 0.5 for e in es):
        return "six-state threshold outside [0, 0.5]"
    if any(b > a for a, b in zip(es, es[1:])):
        return "six-state thresholds increase with nu"
    return None


def certify(seed: int, workdir: str, quick: bool = False) -> list[Op]:
    """The paper's full certificate set; the seed fixes the command order."""
    ops = [
        Op("constants-check", ["constants-check"], _check_table),
        Op("verify four-state", ["verify", "--protocol", "four-state"],
           _check_table),
        Op("verify six-state", ["verify", "--protocol", "six-state"],
           _check_table),
        Op("thresholds four-state",
           ["thresholds", "--protocol", "four-state"],
           _check_four_state_thresholds),
        Op("thresholds six-state", ["thresholds", "--protocol", "six-state"],
           _check_six_state_thresholds),
    ]
    if quick:
        ops = [ops[0], ops[3],
               Op("verify four-state nu=1",
                  ["verify", "--protocol", "four-state", "--nu", "1"],
                  _check_table)]
    random.Random(derive("certify", seed)).shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

X_MAX = 10.0

# y*(x) at fixed abscissae, from the bisection frontier of the commit that
# defined the benchmark.  They pin the compiled forms that the in-harness
# reference below is built from.
ANCHORS = {
    ("four-state", 2): ((0.0, 0.9082482870826645), (2.747, 0.18236175128859883),
                        (10.0, 0.15342998222064433)),
    ("six-state", 3): ((0.0, 0.7499999946666661), (2.747, 0.24999998400000067),
                       (10.0, 0.24999998400000378)),
}

REFERENCE_TOL = 1e-6


def reference_frontier(protocol: str, nu: int, xs) -> np.ndarray:
    """y*(x) by one eigen-solve per point, independent of the bisection.

    H_bit and H_ph vanish on the kernel of H_fil, so on R = range(H_fil)
    y*(x) = max(0, lambda_max(F^-1/2 R^dag (H_ph - x H_bit) R F^-1/2)).
    Imports sargkit only for the compiled forms.
    """
    from sargkit import attack_forms

    forms = attack_forms.all_forms(protocol, nu)
    h_bit, h_fil, h_ph = (forms[k].matrix for k in ("bit", "fil", "ph"))
    w, v = np.linalg.eigh(h_fil)
    keep = w > 1e-12 * w.max()
    r = v[:, keep] / np.sqrt(w[keep])
    a, b = r.conj().T @ h_ph @ r, r.conj().T @ h_bit @ r
    return np.array([max(0.0, float(np.linalg.eigvalsh(a - x * b)[-1]))
                     for x in xs])


def check_anchors() -> str | None:
    for (protocol, nu), pts in ANCHORS.items():
        xs, ys = zip(*pts)
        dev = np.abs(reference_frontier(protocol, nu, xs) - ys).max()
        if dev > REFERENCE_TOL:
            return "%s nu=%d reference off its anchors by %.2e" % (
                protocol, nu, dev)
    return None


def _grid(x_min: float, x_step: float) -> list[float]:
    # The grid rule of `sargkit frontier`.
    n = int(math.floor((X_MAX - x_min) / x_step + 1e-9)) + 1
    return [x_min + k * x_step for k in range(n)]


def _frontier_check(protocol: str, nu: int, xs: list[float],
                    ref: np.ndarray, anchored: str | None) -> Check:
    asserted = protocol == "four-state" and nu == 2

    def check(text: str) -> str | None:
        if anchored is not None:
            return anchored
        rows = _csv_rows(text)
        if len(rows) != len(xs):
            return "expected %d rows, got %d" % (len(xs), len(rows))
        got_x = np.array([float(r["x"]) for r in rows])
        if np.abs(got_x - xs).max() > 1e-12:
            return "x column differs from the requested grid"
        y = np.array([float(r["y_star"]) for r in rows])
        if y.min() < 0.0 or y.max() > 1.0:
            return "y* outside [0, 1]"
        if np.diff(y).max() > 1e-9:
            return "y* increases with x"
        dev = np.abs(y - ref).max()
        if dev > REFERENCE_TOL:
            return "y* off the reference by %.2e" % dev
        if asserted:
            if min(float(r["margin_at_g"]) for r in rows) < -1e-9:
                return "negative margin at g"
            if min(float(r["gap"]) for r in rows) < -1e-6:
                return "frontier above g"
        return None

    return check


def sweep(seed: int, workdir: str, quick: bool = False) -> list[Op]:
    """Fine-grid frontier sweeps; the seed fixes the grid offset."""
    frac = derive("sweep", seed) / 2.0 ** 64
    anchored = check_anchors()
    ops = []
    for protocol, nu, step in (("four-state", 2, 0.01), ("six-state", 3, 0.02)):
        if quick:
            step = 0.5
        x_min = frac * step
        xs = _grid(x_min, step)
        out = os.path.join(workdir, "frontier-%s-%d.csv" % (protocol, nu))
        ops.append(Op(
            "frontier %s nu=%d" % (protocol, nu),
            ["frontier", "--protocol", protocol, "--nu", str(nu),
             "--x-min", repr(x_min), "--x-max", repr(X_MAX),
             "--x-step", repr(step), "--out", out],
            _frontier_check(protocol, nu, xs,
                            reference_frontier(protocol, nu, xs), anchored),
            out=out))
    return ops


# ---------------------------------------------------------------------------
# montecarlo
# ---------------------------------------------------------------------------

def _write_yaml(path: str, doc: dict) -> None:
    # JSON is a subset of YAML, so the configs need no YAML writer.
    with open(path, "w") as fh:
        json.dump(doc, fh)


def _repeatable(check: Check) -> Check:
    """Also require the payload to equal the one seen in earlier iterations."""
    first: list[dict] = []

    def wrapped(text: str) -> str | None:
        reason = check(text)
        if reason is not None:
            return reason
        results = _json_results(text)
        if not first:
            first.append(results)
        elif results != first[0]:
            return "tallies differ from an earlier repeat at the same seed"
        return None

    return wrapped


def _check_coherent(text: str) -> str | None:
    res = _json_results(text)
    per_nu = res["per_nu"]
    if not per_nu:
        return "coherent run lacks per-nu tallies"
    for key in ("sifted", "conclusive", "errors"):
        if sum(r[key] for r in per_nu) != res[key]:
            return "per-nu %s do not sum to the total" % key
    return None


def _check_fixed(text: str) -> str | None:
    res = _json_results(text)
    if res["compare"] is None or res["compare"]["passed"] is not True:
        return "compare against exact enumeration did not pass"
    return None


def _keyrate_check(sim_out: str) -> Check:
    def check(text: str) -> str | None:
        res = _json_results(text)
        with open(sim_out) as fh:
            sim = _json_results(fh.read())
        by_nu = {r["nu"]: r for r in sim["per_nu"]}
        xi1 = by_nu[1]["conclusive"] / sim["sifted"]
        if res["inputs"]["xi1"] != xi1:
            return "keyrate did not read xi1 from the simulate report"
        terms = (res["error_correction_term"] + res["single_photon_term"]
                 + res["two_photon_term"])
        if not math.isclose(res["total_rate"], terms, rel_tol=0,
                            abs_tol=1e-12):
            return "total rate is not the sum of its terms"
        return None

    return check


def montecarlo(seed: int, workdir: str, quick: bool = False) -> list[Op]:
    """Coherent six-state run + keyrate, then fixed-nu runs with exact compare."""
    mc_seed = MC_SEED_POOL[derive("montecarlo", seed) % len(MC_SEED_POOL)]
    scale = 50 if quick else 1
    ops = []

    def simulate(tag: str, cfg: dict, check: Check) -> str:
        cfg = dict(cfg, trials=cfg["trials"] // scale, seed=mc_seed)
        conf = os.path.join(workdir, "sim-%s.yaml" % tag)
        out = os.path.join(workdir, "sim-%s.json" % tag)
        _write_yaml(conf, cfg)
        ops.append(Op("simulate %s" % tag,
                      ["simulate", "--config", conf, "--out", out],
                      _repeatable(check), out=out, trials=cfg["trials"]))
        return out

    sim_out = simulate("coherent", MC_COHERENT, _check_coherent)
    conf = os.path.join(workdir, "keyrate.yaml")
    _write_yaml(conf, {"from_simulate": sim_out})
    out = os.path.join(workdir, "keyrate.json")
    ops.append(Op("keyrate", ["keyrate", "--config", conf, "--out", out],
                  _keyrate_check(sim_out), out=out))
    for cfg in MC_FIXED:
        simulate("nu%d" % cfg["nu"], cfg, _check_fixed)
    return ops


WORKLOADS = {"certify": certify, "sweep": sweep, "montecarlo": montecarlo}
