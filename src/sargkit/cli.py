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
``keyrate`` only, whose tables verify proves.  So ``--help``, ``--version``,
every usage error, ``keyrate`` and ``thresholds`` (every tag) run without
numpy.  verify and thresholds take every protocol record's tag
(``RECORD_TAGS``); the other commands take the SARG04 tags (``PROTOCOLS``).
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
from typing import Callable, NamedTuple

from . import (FRONTIER_X_MAX, PROTOCOLS, RECORD_TAGS, SUPPORTED_NU,
               __version__, reports)

# ---------------------------------------------------------------------------
# Shared plumbing
# ---------------------------------------------------------------------------

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
    """One certificate row, printed once for each of its ``keys``.

    A verify row's keys are (protocol, nu) pairs, each printed as
    ``nu=<nu> <name>``; a constants-check row's are (protocol, None), each
    printed as ``<protocol> <name>``.  ``compute(protocol, nu)`` returns the
    measured value; the row passes when ``value <op> bound``, where a
    callable bound is called with the protocol.
    """

    name: str
    keys: tuple[tuple[str, int | None], ...]
    compute: Callable
    op: str
    bound: float | Callable[[str], float]


_OPS = {"<": operator.lt, "<=": operator.le, ">=": operator.ge,
        "==": operator.eq}


def checks() -> tuple[Check, ...]:
    """Every certificate, in print order: built once by each of verify and
    constants-check, so that only they import the numerical layers it reads.
    Beside the paper's rows at literal keys, every scope is read from
    keyrate's PIECES, BELL_VERTICES, FLOORS and THRESHOLDS (the rated keys).
    The three ``nu >= K-1`` rows of constants-check are verify rows taken at
    their worst over the no-key window of PIECES keys (``over_window``).
    """
    import numpy as np

    from . import attack_forms, bounds, keyrate, qmath

    def max_abs(a) -> float:
        return float(np.max(np.abs(a)))

    def twist_unitarity(protocol: str, nu: int | None) -> float:
        t = qmath.twist_t()
        return max_abs(qmath.dagger(t) @ t - qmath.I2)

    def filter_eigenvalues(protocol: str, nu: int | None) -> float:
        eigs = qmath.eigh_checked(qmath.protocol_record(protocol).filter)[0]
        return max_abs(eigs - np.array([qmath.SIN_PI_8, qmath.COS_PI_8]))

    def filter_rank_ratio(protocol: str, nu: int | None) -> float:
        # H_fil's cached solve at nu = K - 1, cut by bounds._kernel_split.
        k = len(qmath.signal_kets(protocol).kets)
        w = bounds._range_map(protocol, k - 1)[0]
        return float(w[0] / w[-1])

    def window(protocol: str) -> list[tuple[str, int]]:
        # One phase period from nu = K - 1 on, every key a PIECES row.
        table = qmath.signal_kets(protocol)
        first = len(table.kets) - 1
        keys = [(protocol, n) for n in range(first, first + table.period)]
        for key in keys:
            if key not in keyrate.PIECES:
                raise ArithmeticError("floor window has no table row at nu=%d"
                                      % key[1])
        return keys

    def over_window(name: str, row: Check) -> Check:
        # The verify row's worst value over the window, under its own bound.
        worst = min if row.op == ">=" else max
        return row._replace(name=name, keys=constants, compute=lambda p, nu: (
            worst(row.compute(*key) for key in window(p))))

    def tangent_gap(protocol: str, nu: int) -> float:
        # The table's phase-error bound against the certified one, per e.
        root = keyrate.threshold(protocol, nu)
        return max(abs(keyrate.phase_bound(protocol, nu, e)
                       - keyrate.ephase_bound_frontier(e, protocol, nu))
                   for e in (0.01, 0.0271, 0.1, 0.3, root,
                             math.nextafter(root, 1.0)))

    def filtered_pair(protocol: str, nu: int | None) -> float:
        f = qmath.protocol_record(protocol).filter
        filtered = np.kron(qmath.I2, f) @ qmath.pair_source_ket(protocol)
        return max_abs(filtered - 0.5 * qmath.bell_ket("chi0+"))

    struct = qmath.STRUCTURAL_TOL
    pieces, bell = tuple(keyrate.PIECES), tuple(keyrate.BELL_VERTICES)
    floors = tuple(keyrate.FLOORS)
    rated = {row[:2] for table in keyrate.THRESHOLDS.values() for row in table}
    independent = tuple(k for k in pieces if k in rated and k not in bell)
    constants = tuple((p, None) for p in PROTOCOLS)
    piece_table = Check("piece table = forms", pieces,
                        bounds.piece_table_check, "<", bounds.IDENTITY_TOL)
    # The floor a table read returns (keyrate.FLOORS, the exact floor
    # rounded up) against the forms' own floor.
    table_floor = Check("floor = exact table floor", floors,
                        lambda p, nu: abs(bounds.zero_rate_check(p, nu)
                                          - keyrate.FLOORS[p, nu]),
                        "<", bounds.IDENTITY_TOL)
    no_key = Check("no-key floor", tuple(k for k in floors if k not in rated),
                   bounds.zero_rate_check, ">=", 0.5 - bounds.PSD_TOL)
    return (
        Check("phase = 1.5 x bit identity", tuple((p, 1) for p in PROTOCOLS),
              lambda p, nu: bounds.identity_check_single(p),
              "<", bounds.IDENTITY_TOL),
        Check("Bell vertex table", bell, bounds.bell_vertex_check,
              "<", bounds.IDENTITY_TOL),
        Check("correlation chi0- >= 2 chi1+", (("four-state", 1),),
              lambda p, nu: bounds.correlation_psd_check()[0],
              ">=", -bounds.IDENTITY_TOL),
        Check("correlation 2 chi1- >= chi0-", (("four-state", 1),),
              lambda p, nu: bounds.correlation_psd_check()[1],
              ">=", -bounds.IDENTITY_TOL),
        Check("event forms PSD", pieces,
              lambda p, nu: float(min(
                  bounds._range_map(p, nu)[0][0],  # H_fil's solve
                  qmath.min_eigenvalue(np.stack([  # one solve of the others
                      form.matrix for tag, form
                      in attack_forms.all_forms(p, nu).items()
                      if tag != "fil"])).min())),
              ">=", -bounds.IDENTITY_TOL),
        piece_table,
        table_floor,
        Check("margin at analytic bound", (("four-state", 2),),
              lambda p, nu: float(bounds.psd_margin(
                  bounds.DEFAULT_X_GRID,
                  [bounds.g_of_x(x) for x in bounds.DEFAULT_X_GRID],
                  p, nu).min()),
              ">=", -bounds.PSD_TOL),
        # The table row that piece table = forms proves is y_star = g: its
        # one curve is g, and its line 1/2 - x/2 lies below g.
        Check("frontier = g exactly", (("four-state", 2),),
              bounds.piece_table_check, "<=", bounds.IDENTITY_TOL),
        Check("frontier floor vs sin^2(pi/8)", (("four-state", 2),),
              bounds.zero_rate_check,
              "<=", keyrate.FLOORS["four-state", 2] + bounds.PSD_TOL),
        Check("closed form = tangent bound", independent, tangent_gap,
              "<=", bounds.IDENTITY_TOL),
        no_key,
        # y_star >= 0 by its clip and never increases with x (the reduced
        # H_bit is PSD: next row), so y_star(0) is its maximum over x >= 0.
        Check("frontier in [0, 1]", pieces,
              lambda p, nu: bounds.frontier(0.0, p, nu),
              "<=", 1.0 + bounds.PSD_TOL),
        Check("reduced H_bit PSD", pieces,
              lambda p, nu: qmath.min_eigenvalue(
                  bounds._reduced_pencil(p, nu)[1]),
              ">=", -bounds.IDENTITY_TOL),
        Check("frontier floor below 1/2", independent, bounds.zero_rate_check,
              "<", 0.5),
        Check("rotation count", constants,
              lambda p, nu: float(len(qmath.constants(p))),
              "==", lambda p: qmath.protocol_record(p).group_order),
        Check("distinct signal states", constants,
              lambda p, nu: float(len(qmath.signal_kets(p).kets)),
              "==", lambda p: qmath.protocol_record(p).k),
        # For nu >= K - 1 the powers s_k^(x)nu are independent, so every
        # form depends on nu only through the phases c^nu, i.e. nu mod P.
        Check("phase period", constants,
              lambda p, nu: float(qmath.signal_kets(p).period),
              "==", lambda p: qmath.protocol_record(p).period),
        Check("H_fil full rank at nu=K-1", constants, filter_rank_ratio,
              ">=", math.sqrt(bounds.RANK_TOL)),
        over_window("piece table, nu >= K-1", piece_table),
        over_window("table floor, nu >= K-1", table_floor),
        over_window("no-key floor, nu >= K-1", no_key),
        Check("rotation maps phi1 to phi0", constants,
              lambda p, nu: max_abs(qmath.rotation_r() @ qmath.signal_ket(1)
                                    - qmath.signal_ket(0)),
              "<", struct),
        Check("rotation fourth power = -1", constants,
              lambda p, nu: max_abs(
                  np.linalg.matrix_power(qmath.rotation_r(), 4) + qmath.I2),
              "<", struct),
        Check("twist unitary", constants, twist_unitarity, "<", struct),
        Check("filter eigenvalues", constants, filter_eigenvalues,
              "<", struct),
        Check("filter/measurement identity", constants,
              lambda p, nu: qmath.filter_measurement_identity_check(),
              "<", struct),
        Check("filtered pair = half chi0+", constants, filtered_pair,
              "<", struct),
    )


def _check_row(check: Check, label: str, protocol: str,
               nu: int | None) -> tuple[str, float, str, bool]:
    """One table row.  A library check that fails inside the computation
    (ArithmeticError) is a FAIL row with value nan and one stderr line."""
    name = "%s %s" % (label, check.name)
    bound = check.bound(protocol) if callable(check.bound) else check.bound
    # "%g" pads exponents to two digits; the table prints 1e-9, not 1e-09.
    requirement = ("%s %g" % (check.op, bound)).replace("e-0", "e-")
    try:
        value = check.compute(protocol, nu)
    except ArithmeticError as exc:
        print("%s: %s" % (name, exc), file=sys.stderr)
        return name, math.nan, requirement, False
    return name, value, requirement, _OPS[check.op](value, bound)


def _check_table(keys, chosen, label: Callable) -> int:
    """Print every row of ``checks()`` at a key in ``chosen``, key by key in
    the order of ``keys``, each named ``label(protocol, nu)`` and its
    check's name, then a summary line; exit code 0 iff every row passed.
    The name column is as wide as the longest name at any of ``keys`` (every
    key the command can print), so a row's line does not depend on the rows
    printed beside it."""
    table = checks()
    printable = [(key, c) for key in keys for c in table if key in c.keys]
    rows = [_check_row(c, label(*key), *key)
            for key, c in printable if key in chosen]
    width = max(len("%s %s" % (label(*key), c.name)) for key, c in printable)
    for name, value, requirement, ok in rows:
        print("%-*s  % .3e  %-18s  %s" % (
            width, name, value, requirement, "PASS" if ok else "FAIL"))
    all_ok = all(row[-1] for row in rows)
    print("summary: %s" % ("PASS" if all_ok else "FAIL"))
    return 0 if all_ok else 1


def cmd_verify(args) -> int:
    keys = [(args.protocol, nu) for nu in SUPPORTED_NU]
    chosen = [(p, nu) for p, nu in keys if args.nu in (None, nu)]
    return _check_table(keys, chosen, lambda p, nu: "nu=%d" % nu)


def cmd_constants_check(args) -> int:
    keys = [(p, None) for p in PROTOCOLS]
    chosen = [(p, nu) for p, nu in keys if args.protocol in (None, p)]
    return _check_table(keys, chosen, lambda p, nu: p)


# ---------------------------------------------------------------------------
# thresholds
# ---------------------------------------------------------------------------

THRESHOLD_FIELDS = [
    "label", "nu", "e_threshold", "p_threshold", "e_reference", "p_reference",
    "e_deviation", "p_deviation", "e_display", "p_display", "within_tolerance",
]


def _threshold_row(row, e, p) -> dict:
    """A keyrate.THRESHOLDS row beside its computed threshold e and
    depolarizing rate p."""
    label, nu, e_ref, p_ref, tolerance = row
    e_dev = None if e_ref is None else e - e_ref
    p_dev = None if p_ref is None else p - p_ref
    return dict(zip(THRESHOLD_FIELDS, (
        label, nu, e, p, e_ref, p_ref, e_dev, p_dev, round(e, 4), round(p, 4),
        None if tolerance is None else
        all(abs(dev) <= tol for dev, tol in zip((e_dev, p_dev), tolerance)
            if tol is not None))))


def cmd_thresholds(args) -> int:
    from . import keyrate

    manifest = reports.start_manifest(
        "thresholds", {"protocol": args.protocol, "format": args.format},
        __version__)
    rows = []
    for row in keyrate.THRESHOLDS[args.protocol]:
        e = keyrate.threshold(*row[:2])
        rows.append(_threshold_row(row, e, keyrate.depol_p(e, row[0])))

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


def _build_grid(x_min: float, x_max: float, x_step: float) -> list[float]:
    if x_min < 0.0 or not 0.0 < x_step < math.inf or x_max < x_min:
        raise ValueError("grid requires 0 <= x-min <= x-max and "
                         "0 < x-step < inf")
    if x_max > FRONTIER_X_MAX:
        raise ValueError("grid requires x-max <= %g" % FRONTIER_X_MAX)
    span = (x_max - x_min) / x_step + 1e-9
    if not math.isfinite(span):
        raise ValueError("grid point count is not finite")
    n = int(math.floor(span)) + 1
    if n > 10000:
        raise ValueError("grid too large (%.3g points)" % n)
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
    rows = [dict(zip(FRONTIER_FIELDS, (x, y, round(y, 6), gx, gx - y, margin)))
            for x, y, gx, margin in zip(grid, ys, gs, margins)]

    # y_star = g to IDENTITY_TOL at four-state nu=2 (frontier = g exactly).
    asserted = args.protocol == "four-state" and args.nu == 2
    failed = asserted and (
        min(r["margin_at_g"] for r in rows) < -bounds.PSD_TOL
        or min(r["gap"] for r in rows) < -bounds.IDENTITY_TOL
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
    except (OSError, ValueError, TypeError, RecursionError) as exc:
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


def _decoy_from_simulate(path: str) -> tuple[keyrate.DecoyInputs, str]:
    """A coherent report's decoy inputs and its ``config.protocol``."""
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
    # A report with no config is rated as four-state, as a decoy: config is.
    config = results.get("config", {"protocol": "four-state"})
    protocol = (config if isinstance(config, dict) else {}).get("protocol")
    if protocol not in PROTOCOLS:
        raise ValueError("simulate report's config.protocol must be %s, got "
                         "%r" % (" or ".join(PROTOCOLS), protocol))
    per_nu = results.get("per_nu")
    if not per_nu:
        raise ValueError(
            "simulate output lacks a per-photon-number breakdown "
            "(coherent-source run required)")
    if not isinstance(per_nu, list):
        raise ValueError("'per_nu' must be a list, got %r" % (per_nu,))
    for key in ("sifted", "conclusive_fraction", "e_bit"):
        if key not in results:
            raise ValueError("simulate report lacks %r" % (key,))
    sifted = _count(results["sifted"], "sifted")
    if sifted == 0:
        raise ValueError("simulate output has no sifted trials")
    tallies = {}
    keys = ("nu", "conclusive", "errors")
    for i, entry in enumerate(per_nu):
        if not isinstance(entry, dict):
            raise ValueError("per_nu entry %d must be an object, got %r"
                             % (i, entry))
        for key in keys:
            if key not in entry:
                raise ValueError("per_nu entry %d lacks %r" % (i, key))
        nu, conclusive, errors = (_count(entry[key], key) for key in keys)
        if nu in tallies:
            raise ValueError("per_nu lists nu=%d twice" % nu)
        if not errors <= conclusive <= sifted:
            raise ValueError("nu=%d tallies must satisfy errors <= conclusive "
                             "<= sifted = %d" % (nu, sifted))
        tallies[nu] = (conclusive, errors)
    # The divisions simulate makes, so a real report passes exactly.
    conclusive = sum(c for c, _ in tallies.values())
    errors = sum(e for _, e in tallies.values())
    if conclusive / sifted != results["conclusive_fraction"]:
        raise ValueError(
            "per_nu tallies give conclusive/sifted = %d/%d, not "
            "conclusive_fraction %r"
            % (conclusive, sifted, results["conclusive_fraction"]))
    if (errors / conclusive if conclusive else 0.0) != results["e_bit"]:
        raise ValueError("per_nu tallies give errors/conclusive = %d/%d, not "
                         "e_bit %r" % (errors, conclusive, results["e_bit"]))

    def fraction(nu: int) -> tuple[float, float]:
        conclusive, errors = tallies.get(nu, (0, 0))
        return conclusive / sifted, errors / conclusive if conclusive else 0.0

    xi1, e1 = fraction(1)
    xi2, e2 = fraction(2)
    return keyrate.DecoyInputs(
        p_conc=results["conclusive_fraction"], e_bit=results["e_bit"],
        xi1=xi1, e1=e1, xi2=xi2, e2=e2), protocol


def _decoy_inputs(doc: dict) -> tuple[keyrate.DecoyInputs, str]:
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
    return keyrate.DecoyInputs(**decoy), "four-state"


def cmd_keyrate(args) -> int:
    from . import keyrate

    try:
        doc = _load_config(args.config)
        unknown = set(doc) - {"decoy", "from_simulate"}
        if unknown:
            raise ValueError("unknown config keys: %s" % sorted(unknown))
        d, protocol = _decoy_inputs(doc)
        ec, single, two = keyrate.decoy_rate_terms(d, protocol)
    except (OSError, ValueError, TypeError, KeyError, RecursionError) as exc:
        print("keyrate: bad config: %s" % exc, file=sys.stderr)
        return 2

    manifest = reports.start_manifest(
        "keyrate", {"config": args.config, "format": args.format}, __version__)
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

def _add_protocol(sub, default="four-state", tags=PROTOCOLS):
    sub.add_argument("--protocol", choices=list(tags), default=default)


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
    _add_protocol(v, tags=RECORD_TAGS)
    v.add_argument("--nu", type=int, default=None,
                   help="photon number (default: all of %d..%d)"
                   % (SUPPORTED_NU[0], SUPPORTED_NU[-1]))
    v.set_defaults(func=cmd_verify)

    t = sub.add_parser("thresholds", help="threshold table vs reference values")
    _add_protocol(t, tags=RECORD_TAGS)
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
    _add_protocol(c, default=None)
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
