"""Command-line front end: verification suites, thresholds, sweeps, runs.

Exit codes: 0 all checks passed, 1 a mathematical check failed, 2 usage or
configuration error.  Report columns and JSON field names are frozen in
docs/report_formats.md; simulation/keyrate configs are YAML documents whose
schema lives in docs/config_schema.md.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np
import yaml

from . import __version__, attack_forms, bounds, keyrate, qmath, reports, simulate

SUPPORTED_NU = (1, 2, 3, 4)


# ---------------------------------------------------------------------------
# Shared plumbing
# ---------------------------------------------------------------------------

def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", newline="") as fh:
            fh.write(text)


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
    if args.format == "json":
        _emit(reports.render_json(results, manifest), args.out)
    else:
        _emit(reports.render_csv(fieldnames, rows, manifest), args.out)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _verify_four_state(nu: int) -> list[tuple[str, float, str, bool]]:
    checks = []
    if nu == 1:
        dev = bounds.identity_check_single("four-state")
        checks.append(("nu=1 phase = 1.5 x bit identity", dev, "< 1e-10",
                       dev < 1e-10))
        lo1, lo2 = bounds.correlation_psd_check()
        checks.append(("nu=1 correlation chi0- >= 2 chi1+", lo1, ">= -1e-10",
                       lo1 >= -1e-10))
        checks.append(("nu=1 correlation 2 chi1- >= chi0-", lo2, ">= -1e-10",
                       lo2 >= -1e-10))
        worst = min(
            qmath.min_eigenvalue(form.matrix)
            for form in attack_forms.all_forms("four-state", 1).values()
        )
        checks.append(("nu=1 event forms PSD", worst, ">= -1e-10",
                       worst >= -1e-10))
    elif nu == 2:
        table = bounds.frontier_table("four-state", 2)
        worst_margin = min(pt.margin_at_g for pt in table)
        checks.append(("nu=2 margin at analytic bound", worst_margin,
                       ">= -1e-9", worst_margin >= -1e-9))
        worst_gap = min(pt.gap for pt in table)
        checks.append(("nu=2 frontier dominance gap", worst_gap, ">= -1e-6",
                       worst_gap >= -1e-6))
        floor = bounds.zero_rate_check("four-state", 2)
        limit = bounds.SIN2_PI_8 + 1e-3
        checks.append(("nu=2 frontier floor vs sin^2(pi/8)", floor,
                       "<= %.6f" % limit, floor <= limit))
    else:
        floor = bounds.zero_rate_check("four-state", nu)
        checks.append(("nu=%d no-key floor" % nu, floor, ">= 0.499",
                       floor >= 0.5 - 1e-3))
    return checks


def _verify_six_state(nu: int) -> list[tuple[str, float, str, bool]]:
    checks = []
    if nu == 1:
        dev = bounds.identity_check_single("six-state")
        checks.append(("nu=1 phase = 1.5 x bit identity", dev, "< 1e-10",
                       dev < 1e-10))
    table = bounds.frontier_table("six-state", nu)
    ys = [pt.y_star for pt in table]
    in_range = min(ys) >= 0.0 and max(ys) <= 1.0
    checks.append(("nu=%d frontier in [0, 1]" % nu,
                   float(max(ys)), "range", in_range))
    worst_rise = max(
        ys[i + 1] - ys[i] for i in range(len(ys) - 1)
    )
    checks.append(("nu=%d frontier nonincreasing" % nu, worst_rise,
                   "<= 1e-6", worst_rise <= 1e-6))
    if nu == 4:
        floor = min(ys)
        checks.append(("nu=4 frontier floor below 1/2", floor, "< 0.5",
                       floor < 0.5))
    return checks


def cmd_verify(args) -> int:
    nus = SUPPORTED_NU if args.nu is None else (args.nu,)
    rows = []
    for nu in nus:
        if args.protocol == "four-state":
            rows.extend(_verify_four_state(nu))
        else:
            rows.extend(_verify_six_state(nu))
    return 0 if _print_checks(rows) else 1


# ---------------------------------------------------------------------------
# thresholds
# ---------------------------------------------------------------------------

THRESHOLD_FIELDS = [
    "label", "nu", "e_threshold", "p_threshold", "e_reference", "p_reference",
    "e_deviation", "p_deviation", "e_display", "p_display", "within_tolerance",
]


def _threshold_row(label, nu, e, p, e_ref, p_ref, asserted) -> dict:
    e_dev = None if e_ref is None or e is None else e - e_ref
    p_dev = None if p_ref is None or p is None else p - p_ref
    ok = True
    if asserted:
        ok = abs(e_dev) <= 2e-4 and abs(p_dev) <= 5e-4
    return {
        "label": label,
        "nu": nu,
        "e_threshold": e,
        "p_threshold": p,
        "e_reference": e_ref,
        "p_reference": p_ref,
        "e_deviation": e_dev,
        "p_deviation": p_dev,
        "e_display": None if e is None else round(e, 4),
        "p_display": None if p is None else round(p, 4),
        "within_tolerance": ok if asserted else None,
    }


def cmd_thresholds(args) -> int:
    manifest = reports.start_manifest(
        "thresholds", {"protocol": args.protocol, "format": args.format},
        __version__)
    rows = []
    if args.protocol == "four-state":
        for nu, fn in ((1, keyrate.threshold_single), (2, keyrate.threshold_two)):
            r = fn()
            e_ref, p_ref = keyrate.FOUR_STATE_REFERENCE[nu]
            rows.append(_threshold_row(
                "four-state", nu, r.e_threshold, r.p_threshold, e_ref, p_ref,
                asserted=True))
    else:
        for nu in SUPPORTED_NU:
            r = keyrate.sixstate_thresholds(nu)
            rows.append(_threshold_row(
                "six-state", nu, r.e_threshold, r.p_threshold,
                keyrate.SIX_STATE_REFERENCE[nu], None, asserted=False))
        rows.append(_threshold_row(
            "bb84-reference", None, None, None, None,
            keyrate.REFERENCE_BB84_P, asserted=False))
        rows.append(_threshold_row(
            "six-state-original-reference", None, None, None, None,
            keyrate.REFERENCE_SIX_STATE_ORIGINAL_P, asserted=False))

    failed = any(row["within_tolerance"] is False for row in rows)
    manifest = reports.finish_manifest(manifest, "FAIL" if failed else "PASS")
    csv_rows = [
        {k: ("" if row[k] is None else row[k]) for k in THRESHOLD_FIELDS}
        for row in rows
    ]
    _report(args, THRESHOLD_FIELDS, csv_rows, rows, manifest)
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# frontier
# ---------------------------------------------------------------------------

FRONTIER_FIELDS = [
    "x", "y_star", "y_star_display", "g_x", "gap", "margin_at_g",
]


def _build_grid(x_min: float, x_max: float, x_step: float) -> list[float]:
    if x_min < 0.0 or x_step <= 0.0 or x_max < x_min:
        raise ValueError("grid requires 0 <= x-min <= x-max and x-step > 0")
    n = int(math.floor((x_max - x_min) / x_step + 1e-9)) + 1
    if n > 10000:
        raise ValueError("grid too large (%d points)" % n)
    return [x_min + k * x_step for k in range(n)]


def cmd_frontier(args) -> int:
    try:
        grid = _build_grid(args.x_min, args.x_max, args.x_step)
    except ValueError as exc:
        print("frontier: %s" % exc, file=sys.stderr)
        return 2
    manifest = reports.start_manifest(
        "frontier",
        {"protocol": args.protocol, "nu": args.nu, "x_min": args.x_min,
         "x_max": args.x_max, "x_step": args.x_step, "format": args.format},
        __version__)

    rows = []
    for x in grid:
        pt = bounds.frontier(x, args.protocol, args.nu)
        gx = bounds.g_of_x(x)
        margin = bounds.psd_margin(x, gx, args.protocol, args.nu)
        rows.append({
            "x": x,
            "y_star": pt.y_star,
            "y_star_display": round(pt.y_star, 6),
            "g_x": gx,
            "gap": gx - pt.y_star,
            "margin_at_g": margin,
        })

    asserted = args.protocol == "four-state" and args.nu == 2
    failed = asserted and (
        min(r["margin_at_g"] for r in rows) < -1e-9
        or min(r["gap"] for r in rows) < -1e-6
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

_SIM_KEYS = {"protocol", "trials", "seed", "p", "eta", "nu", "mu"}


def _load_config(path: str) -> dict:
    with open(path) as fh:
        doc = yaml.safe_load(fh)
    if not isinstance(doc, dict):
        raise ValueError("config must be a mapping")
    return doc


def _sim_config(doc: dict, seed_flag: int | None) -> simulate.SimConfig:
    unknown = set(doc) - _SIM_KEYS
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
    try:
        cfg = _sim_config(_load_config(args.config), args.seed)
    except (OSError, ValueError, TypeError, yaml.YAMLError) as exc:
        print("simulate: bad config: %s" % exc, file=sys.stderr)
        return 2

    manifest = reports.start_manifest(
        "simulate",
        {"config": args.config, "protocol": cfg.protocol, "nu": cfg.nu,
         "mu": cfg.mu, "p": cfg.p, "eta": cfg.eta, "trials": cfg.trials,
         "format": args.format},
        __version__, seed=cfg.seed)

    stats = simulate.run_monte_carlo(cfg)
    exact = comp = None
    if cfg.nu in (1, 2):
        exact = simulate.exact_channel_stats(cfg.protocol, cfg.nu, cfg.p, cfg.eta)
        comp = simulate.compare(stats, exact)

    results = {
        "config": {"protocol": cfg.protocol, "nu": cfg.nu, "mu": cfg.mu,
                   "p": cfg.p, "eta": cfg.eta, "trials": cfg.trials,
                   "seed": cfg.seed},
        "sifted": stats.sifted,
        "detected": stats.detected,
        "conclusive": stats.conclusive,
        "errors": stats.errors,
        "conclusive_fraction": stats.conclusive_fraction,
        "conclusive_se": stats.conclusive_se,
        "e_bit": stats.e_bit,
        "e_bit_se": stats.e_bit_se,
        "per_nu": None if stats.per_nu is None else [
            {"nu": r.nu, "sifted": r.sifted, "conclusive": r.conclusive,
             "errors": r.errors}
            for r in stats.per_nu
        ],
        "exact": None if exact is None else {
            "conclusive_prob": exact.conclusive_prob, "e_bit": exact.e_bit},
        "compare": None if comp is None else {
            "z_conclusive": comp.z_conclusive, "z_ebit": comp.z_ebit,
            "passed": comp.passed},
    }
    row = {
        "protocol": cfg.protocol, "nu": cfg.nu, "mu": cfg.mu, "p": cfg.p,
        "eta": cfg.eta, "trials": cfg.trials, "seed": cfg.seed,
        "sifted": stats.sifted, "detected": stats.detected,
        "conclusive": stats.conclusive, "errors": stats.errors,
        "conclusive_fraction": stats.conclusive_fraction,
        "conclusive_se": stats.conclusive_se,
        "e_bit": stats.e_bit, "e_bit_se": stats.e_bit_se,
        "exact_conclusive": None if exact is None else exact.conclusive_prob,
        "exact_e_bit": None if exact is None else exact.e_bit,
        "z_conclusive": None if comp is None else comp.z_conclusive,
        "z_ebit": None if comp is None else comp.z_ebit,
        "compare_pass": None if comp is None else comp.passed,
    }
    row = {k: ("" if v is None else v) for k, v in row.items()}

    passed = None if comp is None else comp.passed
    failed = passed is False
    status = "OK" if passed is None else ("PASS" if passed else "FAIL")
    manifest = reports.finish_manifest(manifest, status)
    _report(args, SIMULATE_FIELDS, [row], results, manifest)
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# keyrate
# ---------------------------------------------------------------------------

KEYRATE_FIELDS = [
    "p_conc", "e_bit", "xi1", "e1", "xi2", "e2", "error_correction_term",
    "single_photon_term", "two_photon_term", "total_rate", "total_rate_display",
]

_DECOY_KEYS = {"p_conc", "e_bit", "xi1", "e1", "xi2", "e2"}


def _decoy_from_simulate(path: str) -> keyrate.DecoyInputs:
    if not isinstance(path, str):
        raise ValueError("'from_simulate' must be a path to a simulate "
                         "JSON report")
    with open(path) as fh:
        doc = json.load(fh)
    results = doc.get("results", doc)
    per_nu = results.get("per_nu")
    if not per_nu:
        raise ValueError(
            "simulate output lacks a per-photon-number breakdown "
            "(coherent-source run required)")
    sifted = results["sifted"]
    if sifted == 0:
        raise ValueError("simulate output has no sifted trials")
    by_nu = {entry["nu"]: entry for entry in per_nu}

    def fraction(nu: int) -> tuple[float, float]:
        entry = by_nu.get(nu)
        if entry is None:
            return 0.0, 0.0
        xi = entry["conclusive"] / sifted
        err = (entry["errors"] / entry["conclusive"]
               if entry["conclusive"] else 0.0)
        return xi, err

    xi1, e1 = fraction(1)
    xi2, e2 = fraction(2)
    return keyrate.DecoyInputs(
        p_conc=results["conclusive_fraction"], e_bit=results["e_bit"],
        xi1=xi1, e1=e1, xi2=xi2, e2=e2)


def _decoy_inputs(doc: dict) -> keyrate.DecoyInputs:
    if ("decoy" in doc) == ("from_simulate" in doc):
        raise ValueError("config requires exactly one of 'decoy' and "
                         "'from_simulate'")
    if "from_simulate" in doc:
        return _decoy_from_simulate(doc["from_simulate"])
    decoy = doc["decoy"]
    if not isinstance(decoy, dict) or set(decoy) != _DECOY_KEYS:
        raise ValueError("'decoy' must map exactly the keys %s"
                         % sorted(_DECOY_KEYS))
    return keyrate.DecoyInputs(**decoy)


def cmd_keyrate(args) -> int:
    try:
        doc = _load_config(args.config)
        if set(doc) - {"decoy", "from_simulate"}:
            raise ValueError("unknown config keys: %s"
                             % sorted(set(doc) - {"decoy", "from_simulate"}))
        d = _decoy_inputs(doc)
    except (OSError, ValueError, TypeError, KeyError, yaml.YAMLError,
            json.JSONDecodeError) as exc:
        print("keyrate: bad config: %s" % exc, file=sys.stderr)
        return 2

    manifest = reports.start_manifest(
        "keyrate", {"config": args.config, "format": args.format}, __version__)
    ec, single, two = keyrate.decoy_rate_terms(d)
    total = ec + single + two
    results = {
        "inputs": {"p_conc": d.p_conc, "e_bit": d.e_bit, "xi1": d.xi1,
                   "e1": d.e1, "xi2": d.xi2, "e2": d.e2},
        "error_correction_term": ec,
        "single_photon_term": single,
        "two_photon_term": two,
        "total_rate": total,
    }
    row = {
        "p_conc": d.p_conc, "e_bit": d.e_bit, "xi1": d.xi1, "e1": d.e1,
        "xi2": d.xi2, "e2": d.e2, "error_correction_term": ec,
        "single_photon_term": single, "two_photon_term": two,
        "total_rate": total, "total_rate_display": round(total, 6),
    }
    manifest = reports.finish_manifest(manifest, "OK")
    _report(args, KEYRATE_FIELDS, [row], results, manifest)
    return 0


# ---------------------------------------------------------------------------
# constants-check
# ---------------------------------------------------------------------------

def _constants_checks(protocol: str) -> list[tuple[str, float, str, bool]]:
    cs = qmath.constants(protocol)
    tol = qmath.STRUCTURAL_TOL
    expected_rotations = 4 if protocol == "four-state" else 24
    expected_states = 4 if protocol == "four-state" else 6
    checks = [
        ("%s rotation count" % protocol,
         float(cs.n_rotations), "== %d" % expected_rotations,
         cs.n_rotations == expected_rotations),
        ("%s distinct signal states" % protocol,
         float(len(cs.distinct_bloch_vectors())), "== %d" % expected_states,
         len(cs.distinct_bloch_vectors()) == expected_states),
    ]

    r = qmath.rotation_r()
    dev = float(np.max(np.abs(r @ qmath.signal_ket(1) - qmath.signal_ket(0))))
    checks.append(("%s rotation maps phi1 to phi0" % protocol, dev,
                   "< 1e-12", dev < tol))
    dev = float(np.max(np.abs(np.linalg.matrix_power(r, 4) + qmath.I2)))
    checks.append(("%s rotation fourth power = -1" % protocol, dev,
                   "< 1e-12", dev < tol))
    t = qmath.twist_t()
    dev = float(np.max(np.abs(qmath.dagger(t) @ t - qmath.I2)))
    checks.append(("%s twist unitary" % protocol, dev, "< 1e-12", dev < tol))

    eigs = np.linalg.eigvalsh(cs.filter_f)
    dev = float(np.max(np.abs(eigs - np.array([qmath.SIN_PI_8, qmath.COS_PI_8]))))
    checks.append(("%s filter eigenvalues" % protocol, dev, "< 1e-12",
                   dev < tol))

    dev = qmath.filter_measurement_identity_check()
    checks.append(("%s filter/measurement identity" % protocol, dev,
                   "< 1e-12", dev < tol))

    psi = qmath.pair_source_ket(1)
    filtered = qmath.tensor(qmath.I2, cs.filter_f) @ psi
    dev = float(np.max(np.abs(filtered - 0.5 * qmath.bell_ket("chi0+"))))
    checks.append(("%s filtered pair = half chi0+" % protocol, dev,
                   "< 1e-12", dev < tol))
    return checks


def cmd_constants_check(args) -> int:
    protocols = qmath.PROTOCOLS if args.protocol is None else (args.protocol,)
    rows = []
    for protocol in protocols:
        rows.extend(_constants_checks(protocol))
    return 0 if _print_checks(rows) else 1


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_protocol(sub, default="four-state"):
    sub.add_argument("--protocol", choices=list(qmath.PROTOCOLS),
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
                   help="photon number (default: all of 1..4)")
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
    c.add_argument("--protocol", choices=list(qmath.PROTOCOLS), default=None)
    c.set_defaults(func=cmd_constants_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if getattr(args, "nu", None) is not None and args.nu not in SUPPORTED_NU:
        print("%s: unsupported photon number %d (supported: 1..4)"
              % (args.command, args.nu), file=sys.stderr)
        return 2
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
