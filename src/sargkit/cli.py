"""Command-line front end: verification suites, thresholds, sweeps, runs.

Exit codes: 0 all checks passed, 1 a mathematical check failed, 2 usage or
configuration error or output that cannot be written.  Report columns and
JSON field names are frozen in docs/report_formats.md; simulation/keyrate
configs are YAML documents whose schema lives in docs/config_schema.md.

Importing this module loads argparse, a few stdlib modules and
``reports`` only.  Each command imports the layers it computes with:
verify and constants-check build the certificate table (``checks``) and
with it numpy, ``qmath``, ``attack_forms``, ``bounds`` and ``keyrate``;
frontier imports ``bounds`` once its grid is valid; simulate imports YAML
and ``simulate``; keyrate imports YAML and ``keyrate``; thresholds imports
``keyrate``, which reads ``bounds`` for the six-state table only.  So
``--help``, ``--version``, every usage error, ``keyrate`` and four-state
``thresholds`` run without numpy.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import operator
import os
import sys
from dataclasses import asdict, fields
from functools import lru_cache
from typing import Callable, NamedTuple

from . import PROTOCOLS, SUPPORTED_NU, __version__, reports

# ---------------------------------------------------------------------------
# Shared plumbing
# ---------------------------------------------------------------------------

def _print_checks(rows: list[tuple[str, float, str, bool]]) -> bool:
    """Print a check table; return True iff every row passed."""
    width = max(len(r[0]) for r in rows)
    all_ok = True
    for name, value, requirement, ok in rows:
        all_ok &= ok
        print("%-*s  % .3e  %-18s  %s" % (
            width, name, value, requirement, "PASS" if ok else "FAIL"))
    print("summary: %s" % ("PASS" if all_ok else "FAIL"))
    return all_ok


def _report(args, fieldnames: list[str], rows: list[dict], results,
            manifest: reports.RunManifest) -> None:
    """Write ``results`` as JSON, or the ``fieldnames`` columns of ``rows``
    as CSV, to the open --out file or to stdout."""
    out = args.out or sys.stdout
    if args.format == "json":
        out.write(reports.render_json(results, manifest))
    else:
        out.write(reports.render_csv(fieldnames, rows, manifest))


# ---------------------------------------------------------------------------
# Certificates: verify and constants-check
# ---------------------------------------------------------------------------

class Check(NamedTuple):
    """One certificate row.

    A verify row (``nus`` set) prints as ``nu=<nu> <name>`` for each of its
    protocols and photon numbers; a constants-check row (``nus`` None) as
    ``<protocol> <name>``.  ``compute(protocol, nu)`` looks the library up
    when it runs and returns the measured value; the row passes when
    ``value <op> bound``, where a dict bound is looked up by protocol.
    """

    name: str
    protocols: tuple[str, ...]
    nus: tuple[int, ...] | None
    compute: Callable
    op: str
    bound: float | dict[str, float]


_OPS = {"<": operator.lt, "<=": operator.le, ">=": operator.ge,
        "==": operator.eq}
_FOUR, _SIX, _BOTH = ("four-state",), ("six-state",), PROTOCOLS


@lru_cache(maxsize=None)
def checks() -> tuple[Check, ...]:
    """Every certificate, in print order.

    Built on first use, so that only verify and constants-check import the
    numerical layers it reads.
    """
    import numpy as np

    from . import attack_forms, bounds, keyrate, qmath

    def max_abs(a) -> float:
        return float(np.max(np.abs(a)))

    def twist_unitarity(protocol: str, nu: int | None) -> float:
        t = qmath.twist_t()
        return max_abs(qmath.dagger(t) @ t - qmath.I2)

    def filter_eigenvalues(protocol: str, nu: int | None) -> float:
        eigs = qmath.eigh_checked(qmath.filter_op())[0]
        return max_abs(eigs - np.array([qmath.SIN_PI_8, qmath.COS_PI_8]))

    def filtered_pair(protocol: str, nu: int | None) -> float:
        f = qmath.filter_op()
        filtered = np.kron(qmath.I2, f) @ qmath.pair_source_ket()
        return max_abs(filtered - 0.5 * qmath.bell_ket("chi0+"))

    struct = qmath.STRUCTURAL_TOL
    return (
        Check("phase = 1.5 x bit identity", _BOTH, (1,),
              lambda p, nu: bounds.identity_check_single(p),
              "<", bounds.IDENTITY_TOL),
        Check("correlation chi0- >= 2 chi1+", _FOUR, (1,),
              lambda p, nu: bounds.correlation_psd_check()[0],
              ">=", -bounds.IDENTITY_TOL),
        Check("correlation 2 chi1- >= chi0-", _FOUR, (1,),
              lambda p, nu: bounds.correlation_psd_check()[1],
              ">=", -bounds.IDENTITY_TOL),
        Check("event forms PSD", _FOUR, (1,),
              lambda p, nu: min(
                  qmath.min_eigenvalue(form.matrix)
                  for form in attack_forms.all_forms(p, nu).values()),
              ">=", -bounds.IDENTITY_TOL),
        Check("margin at analytic bound", _FOUR, (2,),
              lambda p, nu: float(bounds.psd_margin(
                  bounds.DEFAULT_X_GRID,
                  [bounds.g_of_x(x) for x in bounds.DEFAULT_X_GRID],
                  p, nu).min()),
              ">=", -bounds.PSD_TOL),
        Check("frontier dominance gap", _FOUR, (2,),
              lambda p, nu: min(bounds.g_of_x(x) - y for x, y in zip(
                  bounds.DEFAULT_X_GRID, bounds.frontier_table(p, nu))),
              ">=", -bounds.SHAPE_TOL),
        Check("frontier floor vs sin^2(pi/8)", _FOUR, (2,),
              lambda p, nu: bounds.zero_rate_check(p, nu),
              "<=", keyrate.SIN2_PI_8 + bounds.PSD_TOL),
        Check("closed form = tangent bound", _FOUR, (2,),
              lambda p, nu: max(abs(keyrate.ephase_bound_two(e)[0]
                                    - keyrate.ephase_bound_frontier(e, p, nu))
                                for e in (0.01, 0.0271, 0.1, 0.3)),
              "<=", bounds.IDENTITY_TOL),
        Check("no-key floor", _FOUR, (3, 4),
              lambda p, nu: bounds.zero_rate_check(p, nu),
              ">=", 0.5 - bounds.PSD_TOL),
        # y_star >= 0 by its clip and never increases with x (the reduced
        # H_bit is PSD: next row), so y_star(0) is its maximum over x >= 0.
        Check("frontier in [0, 1]", _SIX, SUPPORTED_NU,
              lambda p, nu: bounds.frontier(0.0, p, nu),
              "<=", 1.0 + bounds.PSD_TOL),
        Check("reduced H_bit PSD", _SIX, SUPPORTED_NU,
              lambda p, nu: qmath.min_eigenvalue(
                  bounds._reduced_pencil(p, nu)[1]),
              ">=", -bounds.IDENTITY_TOL),
        Check("frontier floor below 1/2", _SIX, (4,),
              lambda p, nu: bounds.zero_rate_check(p, nu), "<", 0.5),
        Check("rotation count", _BOTH, None,
              lambda p, nu: float(len(qmath.constants(p))),
              "==", {"four-state": 4, "six-state": 24}),
        Check("distinct signal states", _BOTH, None,
              lambda p, nu: float(len(qmath.distinct_bloch_vectors(p))),
              "==", {"four-state": 4, "six-state": 6}),
        Check("rotation maps phi1 to phi0", _BOTH, None,
              lambda p, nu: max_abs(qmath.rotation_r() @ qmath.signal_ket(1)
                                    - qmath.signal_ket(0)),
              "<", struct),
        Check("rotation fourth power = -1", _BOTH, None,
              lambda p, nu: max_abs(
                  np.linalg.matrix_power(qmath.rotation_r(), 4) + qmath.I2),
              "<", struct),
        Check("twist unitary", _BOTH, None, twist_unitarity, "<", struct),
        Check("filter eigenvalues", _BOTH, None, filter_eigenvalues,
              "<", struct),
        Check("filter/measurement identity", _BOTH, None,
              lambda p, nu: qmath.filter_measurement_identity_check(),
              "<", struct),
        Check("filtered pair = half chi0+", _BOTH, None, filtered_pair,
              "<", struct),
    )


def _check_row(check: Check, label: str, protocol: str,
               nu: int | None) -> tuple[str, float, str, bool]:
    """One table row.  A library check that fails inside the computation
    (ArithmeticError) is a FAIL row with value nan and one stderr line."""
    name = "%s %s" % (label, check.name)
    bound = check.bound
    if isinstance(bound, dict):
        bound = bound[protocol]
    # "%g" pads exponents to two digits; the table prints 1e-9, not 1e-09.
    requirement = ("%s %g" % (check.op, bound)).replace("e-0", "e-")
    try:
        value = check.compute(protocol, nu)
    except ArithmeticError as exc:
        print("%s: %s" % (name, exc), file=sys.stderr)
        return name, math.nan, requirement, False
    return name, value, requirement, _OPS[check.op](value, bound)


def cmd_verify(args) -> int:
    nus = SUPPORTED_NU if args.nu is None else (args.nu,)
    rows = [_check_row(c, "nu=%d" % nu, args.protocol, nu)
            for nu in nus for c in checks()
            if c.nus is not None and nu in c.nus and args.protocol in c.protocols]
    return 0 if _print_checks(rows) else 1


def cmd_constants_check(args) -> int:
    protocols = PROTOCOLS if args.protocol is None else (args.protocol,)
    rows = [_check_row(c, p, p, None) for p in protocols for c in checks()
            if c.nus is None and p in c.protocols]
    return 0 if _print_checks(rows) else 1


# ---------------------------------------------------------------------------
# thresholds
# ---------------------------------------------------------------------------

THRESHOLD_FIELDS = [
    "label", "nu", "e_threshold", "p_threshold", "e_reference", "p_reference",
    "e_deviation", "p_deviation", "e_display", "p_display", "within_tolerance",
]


def _threshold_row(row, r) -> dict:
    """A keyrate.THRESHOLDS row beside r, its computed threshold or None."""
    label, nu, e_ref, p_ref, tolerance = row
    e, p = (None, None) if r is None else (r.e_threshold, r.p_threshold)
    e_dev = None if e_ref is None or e is None else e - e_ref
    p_dev = None if p_ref is None or p is None else p - p_ref
    return dict(zip(THRESHOLD_FIELDS, (
        label, nu, e, p, e_ref, p_ref, e_dev, p_dev,
        None if e is None else round(e, 4),
        None if p is None else round(p, 4),
        None if tolerance is None else
        abs(e_dev) <= tolerance[0] and abs(p_dev) <= tolerance[1])))


def cmd_thresholds(args) -> int:
    from . import keyrate

    manifest = reports.start_manifest(
        "thresholds", {"protocol": args.protocol, "format": args.format},
        __version__)
    rows = [_threshold_row(row, None if row[1] is None
                           else keyrate.threshold(args.protocol, row[1]))
            for row in keyrate.THRESHOLDS[args.protocol]]

    failed = any(row["within_tolerance"] is False for row in rows)
    manifest = reports.finish_manifest(manifest, "FAIL" if failed else "PASS")
    _report(args, THRESHOLD_FIELDS, rows, rows, manifest)
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# frontier
# ---------------------------------------------------------------------------

FRONTIER_FIELDS = [
    "x", "y_star", "y_star_display", "g_x", "gap", "margin_at_g",
]


# Every margin is certified at any x, but y_star itself carries roundoff of
# about n * eps * x * ||B||_2 (B the reduced H_bit, n its side): about 1e-9 at
# x = 1e6, growing to 1e-6 at 1e9.  The cap keeps it far below the 6-decimal
# `y_star_display`.
FRONTIER_X_MAX = 1e6


def _build_grid(x_min: float, x_max: float, x_step: float) -> list[float]:
    if x_min < 0.0 or x_step <= 0.0 or x_max < x_min:
        raise ValueError("grid requires 0 <= x-min <= x-max and x-step > 0")
    if x_max > FRONTIER_X_MAX:
        raise ValueError("grid requires x-max <= %g" % FRONTIER_X_MAX)
    span = (x_max - x_min) / x_step + 1e-9
    if not math.isfinite(span):
        raise ValueError("grid point count is not finite")
    n = int(math.floor(span)) + 1
    if n > 10000:
        raise ValueError("grid too large (%d points)" % n)
    return [x_min + k * x_step for k in range(n)]


def cmd_frontier(args) -> int:
    try:
        grid = _build_grid(args.x_min, args.x_max, args.x_step)
    except ValueError as exc:
        print("frontier: %s" % exc, file=sys.stderr)
        return 2
    from . import bounds

    manifest = reports.start_manifest(
        "frontier",
        {"protocol": args.protocol, "nu": args.nu, "x_min": args.x_min,
         "x_max": args.x_max, "x_step": args.x_step, "format": args.format},
        __version__)

    ys = bounds.frontier_table(args.protocol, args.nu, grid)
    gs = [bounds.g_of_x(x) for x in grid]
    margins = bounds.psd_margin(grid, gs, args.protocol, args.nu).tolist()
    rows = [{
        "x": x,
        "y_star": y,
        "y_star_display": round(y, 6),
        "g_x": gx,
        "gap": gx - y,
        "margin_at_g": margin,
    } for x, y, gx, margin in zip(grid, ys, gs, margins)]

    asserted = args.protocol == "four-state" and args.nu == 2
    failed = asserted and (
        min(r["margin_at_g"] for r in rows) < -bounds.PSD_TOL
        or min(r["gap"] for r in rows) < -bounds.SHAPE_TOL
    )
    manifest = reports.finish_manifest(manifest, "FAIL" if failed else "PASS")
    _report(args, FRONTIER_FIELDS, rows, rows, manifest)
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

SIMULATE_FIELDS = [
    "protocol", "nu", "mu", "p", "eta", "trials", "seed", "sifted", "detected",
    "conclusive", "errors", "conclusive_fraction", "conclusive_se", "e_bit",
    "e_bit_se", "exact_conclusive", "exact_e_bit", "z_conclusive", "z_ebit",
    "compare_pass",
]

def _load_config(path: str) -> dict:
    """Read a YAML mapping; a YAML error is a one-line ValueError."""
    import yaml

    with open(path) as fh:
        try:
            doc = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ValueError(" ".join(str(exc).split())) from exc
    if not isinstance(doc, dict):
        raise ValueError("config must be a mapping")
    return doc


def _sim_config(doc: dict, seed_flag: int | None) -> simulate.SimConfig:
    from . import simulate

    unknown = set(doc) - {f.name for f in fields(simulate.SimConfig)}
    if unknown:
        raise ValueError("unknown config keys: %s" % sorted(unknown))
    if "protocol" not in doc or "trials" not in doc:
        raise ValueError("config requires 'protocol' and 'trials'")
    doc = dict(doc)
    if seed_flag is not None:
        doc["seed"] = seed_flag
    doc.setdefault("seed", 0)
    return simulate.SimConfig(**doc)


def cmd_simulate(args) -> int:
    from . import simulate

    try:
        cfg = _sim_config(_load_config(args.config), args.seed)
    except (OSError, ValueError, TypeError) as exc:
        print("simulate: bad config: %s" % exc, file=sys.stderr)
        return 2

    manifest = reports.start_manifest(
        "simulate",
        {"config": args.config, "format": args.format,
         **{k: v for k, v in asdict(cfg).items() if k != "seed"}},
        __version__, seed=cfg.seed)

    stats = simulate.run_monte_carlo(cfg)
    exact = simulate.exact_channel_stats(cfg.protocol, cfg.nu, cfg.p, cfg.eta,
                                         cfg.mu)
    comp = simulate.compare(stats, exact)
    results = {
        **asdict(stats),
        "exact": {"conclusive_prob": exact.conclusive_prob, "e_bit": exact.e_bit},
        "compare": asdict(comp),
    }
    row = {**results["config"], **results,
           "exact_conclusive": exact.conclusive_prob, "exact_e_bit": exact.e_bit,
           "z_conclusive": comp.z_conclusive, "z_ebit": comp.z_ebit,
           "compare_pass": comp.passed}

    status = {None: "OK", True: "PASS", False: "FAIL"}[comp.passed]
    manifest = reports.finish_manifest(manifest, status)
    _report(args, SIMULATE_FIELDS, [row], results, manifest)
    return 1 if comp.passed is False else 0


# ---------------------------------------------------------------------------
# keyrate
# ---------------------------------------------------------------------------

KEYRATE_FIELDS = [
    "p_conc", "e_bit", "xi1", "e1", "xi2", "e2", "error_correction_term",
    "single_photon_term", "two_photon_term", "total_rate", "total_rate_display",
]


def _count(value, name: str) -> int:
    """A simulate report's tally or nu: a nonnegative int, not a bool."""
    if type(value) is not int or value < 0:
        raise ValueError("%s must be a nonnegative integer count, got %r"
                         % (name, value))
    return value


def _decoy_from_simulate(path: str) -> keyrate.DecoyInputs:
    from . import keyrate

    if not isinstance(path, str):
        raise ValueError("'from_simulate' must be a path to a simulate "
                         "JSON report")
    with open(path) as fh:
        doc = json.load(fh)
    results = doc.get("results", doc) if isinstance(doc, dict) else doc
    if not isinstance(results, dict):
        raise ValueError("%s is not a simulate JSON report (expected an "
                         "object with an object 'results')" % path)
    per_nu = results.get("per_nu")
    if not per_nu:
        raise ValueError(
            "simulate output lacks a per-photon-number breakdown "
            "(coherent-source run required)")
    sifted = _count(results["sifted"], "sifted")
    if sifted == 0:
        raise ValueError("simulate output has no sifted trials")
    tallies = {}
    for entry in per_nu:
        nu, conclusive, errors = (
            _count(entry[key], key) for key in ("nu", "conclusive", "errors"))
        if nu in tallies:
            raise ValueError("per_nu lists nu=%d twice" % nu)
        if not errors <= conclusive <= sifted:
            raise ValueError("nu=%d tallies must satisfy errors <= conclusive "
                             "<= sifted = %d" % (nu, sifted))
        tallies[nu] = (conclusive, errors)

    def fraction(nu: int) -> tuple[float, float]:
        conclusive, errors = tallies.get(nu, (0, 0))
        return conclusive / sifted, errors / conclusive if conclusive else 0.0

    xi1, e1 = fraction(1)
    xi2, e2 = fraction(2)
    return keyrate.DecoyInputs(
        p_conc=results["conclusive_fraction"], e_bit=results["e_bit"],
        xi1=xi1, e1=e1, xi2=xi2, e2=e2)


def _decoy_inputs(doc: dict) -> keyrate.DecoyInputs:
    from . import keyrate

    if ("decoy" in doc) == ("from_simulate" in doc):
        raise ValueError("config requires exactly one of 'decoy' and "
                         "'from_simulate'")
    if "from_simulate" in doc:
        return _decoy_from_simulate(doc["from_simulate"])
    decoy = doc["decoy"]
    keys = {f.name for f in fields(keyrate.DecoyInputs)}
    if not isinstance(decoy, dict) or set(decoy) != keys:
        raise ValueError("'decoy' must map exactly the keys %s" % sorted(keys))
    return keyrate.DecoyInputs(**decoy)


def cmd_keyrate(args) -> int:
    from . import keyrate

    try:
        doc = _load_config(args.config)
        unknown = set(doc) - {"decoy", "from_simulate"}
        if unknown:
            raise ValueError("unknown config keys: %s" % sorted(unknown))
        d = _decoy_inputs(doc)
    except (OSError, ValueError, TypeError, KeyError) as exc:
        print("keyrate: bad config: %s" % exc, file=sys.stderr)
        return 2

    manifest = reports.start_manifest(
        "keyrate", {"config": args.config, "format": args.format}, __version__)
    ec, single, two = keyrate.decoy_rate_terms(d)
    results = {
        "inputs": asdict(d),
        "error_correction_term": ec,
        "single_photon_term": single,
        "two_photon_term": two,
        "total_rate": ec + single + two,
    }
    row = {**results["inputs"], **results,
           "total_rate_display": round(results["total_rate"], 6)}
    manifest = reports.finish_manifest(manifest, "OK")
    _report(args, KEYRATE_FIELDS, [row], results, manifest)
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_protocol(sub, default="four-state"):
    sub.add_argument("--protocol", choices=list(PROTOCOLS),
                     default=default)


def _add_report_flags(sub, default_format: str) -> None:
    sub.add_argument("--out", default=None, help="output path (default stdout)")
    sub.add_argument("--format", choices=("csv", "json"),
                     default=default_format)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sargkit",
        description="Multi-photon security toolkit for polarization-encoded "
                    "key distribution.")
    parser.add_argument("--version", action="version",
                        version="sargkit %s" % __version__)
    sub = parser.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run the inequality/identity checks")
    _add_protocol(v)
    v.add_argument("--nu", type=int, default=None,
                   help="photon number (default: all of %d..%d)"
                   % (SUPPORTED_NU[0], SUPPORTED_NU[-1]))
    v.set_defaults(func=cmd_verify)

    t = sub.add_parser("thresholds", help="threshold table vs reference values")
    _add_protocol(t)
    _add_report_flags(t, "csv")
    t.set_defaults(func=cmd_thresholds)

    f = sub.add_parser("frontier", help="feasibility frontier sweep")
    _add_protocol(f)
    f.add_argument("--nu", type=int, default=2)
    f.add_argument("--x-min", type=float, default=0.0)
    f.add_argument("--x-max", type=float, default=10.0)
    f.add_argument("--x-step", type=float, default=0.25)
    _add_report_flags(f, "csv")
    f.set_defaults(func=cmd_frontier)

    s = sub.add_parser("simulate", help="Monte Carlo session run")
    s.add_argument("--config", required=True)
    s.add_argument("--seed", type=int, default=None,
                   help="override the config seed")
    _add_report_flags(s, "json")
    s.set_defaults(func=cmd_simulate)

    k = sub.add_parser("keyrate", help="decoy-method total key rate")
    k.add_argument("--config", required=True)
    _add_report_flags(k, "json")
    k.set_defaults(func=cmd_keyrate)

    c = sub.add_parser("constants-check", help="structural constant table")
    c.add_argument("--protocol", choices=list(PROTOCOLS), default=None)
    c.set_defaults(func=cmd_constants_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    nus = SUPPORTED_NU
    if getattr(args, "nu", None) is not None and args.nu not in nus:
        print("%s: unsupported photon number %d (supported: %d..%d)"
              % (args.command, args.nu, nus[0], nus[-1]), file=sys.stderr)
        return 2
    out = getattr(args, "out", None)
    if out is not None:
        # Opened before any work, so an unwritable path is a usage error.
        try:
            out = args.out = open(out, "w", newline="")
        except OSError as exc:
            print("%s: cannot write --out: %s" % (args.command, exc),
                  file=sys.stderr)
            return 2
    # One stderr line each: a library check that fails inside a command
    # (ArithmeticError) exits 1; an OSError (commands catch their own read
    # errors) is a failed write, close or flush of the output: exit 2.
    try:
        with out or contextlib.nullcontext():
            code = args.func(args)
        sys.stdout.flush()
        return code
    except ArithmeticError as exc:
        print("%s: %s" % (args.command, exc), file=sys.stderr)
        return 1
    except OSError as exc:
        print("%s: cannot write output: %s" % (args.command, exc),
              file=sys.stderr)
        if out is None:
            # The flush at exit would fail again on the unwritten buffer:
            # point stdout's descriptor, if it has one, at the null device.
            with (contextlib.suppress(AttributeError, OSError, ValueError),
                  open(os.devnull, "w") as null):
                os.dup2(null.fileno(), sys.stdout.fileno())
        return 2


if __name__ == "__main__":
    sys.exit(main())
