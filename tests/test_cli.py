"""End-to-end command-line behavior: exit codes, reports, and stability."""

import csv
import dataclasses
import errno
import importlib
import io
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import oracles
import sargkit
import sargkit.bounds
from sargkit import cli, simulate

SRC = os.path.dirname(os.path.dirname(sargkit.__file__))


def run_process(*argv: str) -> subprocess.CompletedProcess:
    """A fresh `python -m sargkit.cli` process on this source tree."""
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, "-m", "sargkit.cli", *argv],
                          env=env, capture_output=True, text=True)


def run(capsys, *argv) -> tuple[int, str]:
    rc = cli.main(list(argv))
    return rc, capsys.readouterr().out


def read_csv(text: str) -> list[dict]:
    return list(csv.DictReader(oracles.payload_lines(text)))


def check_rows(out: str) -> list[list[str]]:
    """[name, value, requirement, PASS/FAIL] per row of a check table."""
    lines = out.splitlines()
    assert lines[-1].startswith("summary: ")
    return [re.split(r"\s{2,}", line) for line in lines[:-1]]


# ---------------------------------------------------------------------------
# Exit-code contract
# ---------------------------------------------------------------------------

def test_verify_four_state_single_photon_passes(capsys):
    rc, out = run(capsys, "verify", "--protocol", "four-state", "--nu", "1")
    assert rc == 0
    assert "summary: PASS" in out
    assert out.count("PASS") >= 4


def test_verify_four_state_two_photon_passes(capsys):
    rc, out = run(capsys, "verify", "--protocol", "four-state", "--nu", "2")
    assert rc == 0
    assert "dominance" in out


def test_verify_six_state_all_passes(capsys):
    rc, out = run(capsys, "verify", "--protocol", "six-state")
    assert rc == 0
    assert "floor below 1/2" in out


# Every verify row, by protocol and photon number, in print order.
VERIFY_ROWS = {
    ("four-state", 1): ["nu=1 phase = 1.5 x bit identity",
                        "nu=1 correlation chi0- >= 2 chi1+",
                        "nu=1 correlation 2 chi1- >= chi0-",
                        "nu=1 event forms PSD"],
    ("four-state", 2): ["nu=2 margin at analytic bound",
                        "nu=2 frontier dominance gap",
                        "nu=2 frontier floor vs sin^2(pi/8)",
                        "nu=2 closed form = tangent bound"],
    ("four-state", 3): ["nu=3 no-key floor"],
    ("four-state", 4): ["nu=4 no-key floor"],
    ("six-state", 1): ["nu=1 phase = 1.5 x bit identity",
                       "nu=1 frontier in [0, 1]",
                       "nu=1 reduced H_bit PSD"],
    ("six-state", 2): ["nu=2 frontier in [0, 1]",
                       "nu=2 reduced H_bit PSD"],
    ("six-state", 3): ["nu=3 frontier in [0, 1]",
                       "nu=3 reduced H_bit PSD"],
    ("six-state", 4): ["nu=4 frontier in [0, 1]",
                       "nu=4 reduced H_bit PSD",
                       "nu=4 frontier floor below 1/2"],
}

CONSTANT_ROWS = [
    "rotation count", "distinct signal states", "rotation maps phi1 to phi0",
    "rotation fourth power = -1", "twist unitary", "filter eigenvalues",
    "filter/measurement identity", "filtered pair = half chi0+",
]


@pytest.mark.parametrize("protocol", ["four-state", "six-state"])
@pytest.mark.parametrize("nu", [None, 1, 2, 3, 4])
def test_verify_prints_every_certificate_in_order(capsys, protocol, nu):
    argv = ["verify", "--protocol", protocol]
    if nu is not None:
        argv += ["--nu", str(nu)]
    rc, out = run(capsys, *argv)
    assert rc == 0
    rows = check_rows(out)
    nus = [1, 2, 3, 4] if nu is None else [nu]
    assert [r[0] for r in rows] == [
        name for n in nus for name in VERIFY_ROWS[protocol, n]]
    assert all(r[-1] == "PASS" for r in rows)


def test_verify_failed_certificate_exits_1(capsys, monkeypatch):
    # The table looks bounds.zero_rate_check up when it runs, so a floor
    # patched below 1/2 fails the no-key certificate and the whole run.
    monkeypatch.setattr(sargkit.bounds, "zero_rate_check", lambda p, nu: 0.3)
    rc, out = run(capsys, "verify", "--protocol", "four-state", "--nu", "3")
    assert rc == 1
    assert check_rows(out) == [
        ["nu=3 no-key floor", "3.000e-01", ">= 0.5", "FAIL"]]
    assert out.splitlines()[-1] == "summary: FAIL"


def test_verify_fails_the_range_row_on_a_frontier_above_one(capsys,
                                                            monkeypatch):
    # H_ph scaled by 1.5 breaks p_ph <= p_fil, so y_star exceeds 1.  The
    # frontier is clipped only at 0, so the row reads it and fails instead
    # of the margin check raising.  The uncached pencil keeps the scaled
    # forms out of its cache.
    forms = sargkit.bounds._forms
    monkeypatch.setattr(sargkit.bounds, "_forms", lambda p, nu: (
        forms(p, nu)[0], forms(p, nu)[1], 1.5 * forms(p, nu)[2]))
    monkeypatch.setattr(sargkit.bounds, "_reduced_pencil",
                        sargkit.bounds._reduced_pencil.__wrapped__)
    rc, out = run(capsys, "verify", "--protocol", "six-state", "--nu", "1")
    assert rc == 1
    rows = {r[0]: r for r in check_rows(out)}
    assert rows["nu=1 frontier in [0, 1]"][-1] == "FAIL"
    assert float(rows["nu=1 frontier in [0, 1]"][1]) > 1.0


@pytest.mark.parametrize("nu", [1, 2, 3, 4])
def test_verify_fails_the_psd_row_on_an_indefinite_reduced_bit_form(
        capsys, monkeypatch, nu):
    # B - 1e-6*I has lambda_min(B) - 1e-6 < -IDENTITY_TOL.  The frontier row
    # reads y_star(0), which does not depend on B, and still passes.
    pencil = sargkit.bounds._reduced_pencil
    monkeypatch.setattr(sargkit.bounds, "_reduced_pencil", lambda p, n: (
        pencil(p, n)[0], pencil(p, n)[1] - 1e-6 * np.eye(len(pencil(p, n)[1]))))
    rc, out = run(capsys, "verify", "--protocol", "six-state", "--nu", str(nu))
    assert rc == 1
    rows = {r[0]: r[1:] for r in check_rows(out)}
    value, *verdict = rows["nu=%d reduced H_bit PSD" % nu]
    assert verdict == [">= -1e-10", "FAIL"]
    assert -1.1e-6 < float(value) < -0.9e-6
    assert rows["nu=%d frontier in [0, 1]" % nu][-1] == "PASS"
    assert out.splitlines()[-1] == "summary: FAIL"


def test_six_state_verify_reads_no_x_grid(capsys, monkeypatch):
    # Every six-state row is grid-free: no frontier is solved on the
    # verification grid DEFAULT_X_GRID (frontier_table's default).
    solved = []
    table = sargkit.bounds.frontier_table

    def spy(protocol, nu, grid=sargkit.bounds.DEFAULT_X_GRID):
        solved.append(tuple(grid))
        return table(protocol, nu, grid)

    monkeypatch.setattr(sargkit.bounds, "frontier_table", spy)
    rc, out = run(capsys, "verify", "--protocol", "six-state")
    assert rc == 0
    assert solved and sargkit.bounds.DEFAULT_X_GRID not in solved


@pytest.fixture
def unclear_filter_kernel(monkeypatch):
    """Every H_fil gets one eigenvalue at 1e-9 of its largest, within the six
    decades above the kernel cut, so the frontier's reduction raises
    ArithmeticError.  The pencil cache built on the forms is cleared before
    and after."""
    forms = sargkit.bounds._forms

    def squeezed(protocol, nu):
        h_bit, h_fil, h_ph = forms(protocol, nu)
        w, v = np.linalg.eigh(h_fil)
        w[0] = 1e-9 * w[-1]
        return h_bit, (v * w) @ v.conj().T, h_ph

    monkeypatch.setattr(sargkit.bounds, "_forms", squeezed)
    sargkit.bounds._reduced_pencil.cache_clear()
    yield
    sargkit.bounds._reduced_pencil.cache_clear()


def test_verify_prints_a_fail_row_for_a_failed_internal_check(
        capsys, unclear_filter_kernel):
    rc = cli.main(["verify", "--protocol", "six-state", "--nu", "1"])
    captured = capsys.readouterr()
    assert rc == 1
    rows = check_rows(captured.out)
    assert rows[0][0] == "nu=1 phase = 1.5 x bit identity"
    assert rows[0][-1] == "PASS"
    assert [r[1:] for r in rows[1:]] == [["nan", "<= 1", "FAIL"],
                                         ["nan", ">= -1e-10", "FAIL"]]
    assert captured.out.splitlines()[-1] == "summary: FAIL"
    err = captured.err.splitlines()
    assert [line.split(": ")[0] for line in err] == [r[0] for r in rows[1:]]
    assert all("H_fil eigenvalue" in line for line in err)


@pytest.mark.parametrize("out", [False, True])
def test_thresholds_failed_internal_check_is_one_stderr_line(
        capsys, tmp_path, unclear_filter_kernel, out):
    argv = ["thresholds", "--protocol", "six-state"]
    if out:
        argv += ["--out", str(tmp_path / "t.csv")]
    rc = cli.main(argv)
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err.startswith("thresholds: H_fil eigenvalue ")
    assert captured.err.count("\n") == 1


def test_verify_unsupported_photon_number(capsys):
    assert cli.main(["verify", "--protocol", "four-state", "--nu", "9"]) == 2


def test_unknown_protocol_is_usage_error(capsys):
    assert cli.main(["verify", "--protocol", "five-state"]) == 2


def test_unknown_command_is_usage_error(capsys):
    assert cli.main(["frobnicate"]) == 2


def test_version_flag(capsys):
    assert cli.main(["--version"]) == 0
    assert "sargkit" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# thresholds
# ---------------------------------------------------------------------------

def test_thresholds_four_state_table(capsys):
    rc, out = run(capsys, "thresholds", "--protocol", "four-state")
    assert rc == 0
    rows = read_csv(out)
    assert [r["nu"] for r in rows] == ["1", "2"]
    for row in rows:
        assert row["within_tolerance"] == "True"
        assert abs(float(row["e_deviation"])) <= 2e-4
        assert abs(float(row["p_deviation"])) <= 5e-4


def test_thresholds_six_state_table_with_reference_constants(capsys):
    rc, out = run(capsys, "thresholds", "--protocol", "six-state")
    assert rc == 0
    rows = read_csv(out)
    assert len(rows) == 6  # four photon numbers + two reference constants
    labels = [r["label"] for r in rows]
    assert labels[:4] == ["six-state"] * 4
    assert "bb84-reference" in labels
    ref = {r["label"]: r for r in rows}
    assert float(ref["bb84-reference"]["p_reference"]) == 0.165
    assert float(ref["six-state-original-reference"]["p_reference"]) == 0.190
    # informational rows never trip the exit code
    assert all(r["within_tolerance"] == "" for r in rows)


# Every thresholds row, by protocol, in print order: (label, nu, e_reference,
# p_reference, within_tolerance, e_threshold, p_threshold).
THRESHOLD_ROWS = {
    "four-state": [
        ("four-state", 1, 0.0968, 0.0804, True,
         0.0968921661376953, 0.08046561205486256),
        ("four-state", 2, 0.0271, 0.0208, True,
         0.027100606918334963, 0.020891631070269468),
    ],
    "six-state": [
        ("six-state", 1, 0.112, None, None,
         0.08898885628339477, 0.07326106016690821),
        ("six-state", 2, 0.056, None, None,
         0.04886156111690551, 0.03852874549020656),
        ("six-state", 3, 0.0237, None, None,
         0.023701099508617818, 0.018207359060341655),
        ("six-state", 4, 0.00788, None, None,
         0.00788304009934157, 0.005959257137483246),
        ("bb84-reference", None, None, 0.165, None, None, None),
        ("six-state-original-reference", None, None, 0.19, None, None, None),
    ],
}


@pytest.mark.parametrize("protocol", ["four-state", "six-state"])
def test_thresholds_tables_are_pinned_row_by_row(capsys, protocol):
    rc, out = run(capsys, "thresholds", "--protocol", protocol,
                  "--format", "json")
    assert rc == 0
    rows = json.loads(out)["results"]
    assert [(r["label"], r["nu"], r["e_reference"], r["p_reference"],
             r["within_tolerance"]) for r in rows] == [
        row[:5] for row in THRESHOLD_ROWS[protocol]]
    for r, (*_, e, p) in zip(rows, THRESHOLD_ROWS[protocol]):
        for value, pinned in ((r["e_threshold"], e), (r["p_threshold"], p)):
            assert (value is None) == (pinned is None)
            assert pinned is None or abs(value - pinned) <= 1e-9


def test_thresholds_json_format(capsys):
    rc, out = run(capsys, "thresholds", "--protocol", "four-state",
                  "--format", "json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["manifest"]["status"] == "PASS"
    assert len(doc["results"]) == 2
    assert doc["results"][0]["within_tolerance"] is True


def test_thresholds_read_the_tolerance_from_keyrate(capsys, monkeypatch):
    # |e deviation| is ~9e-5 at nu=1 and ~6e-7 at nu=2: a 1e-6 bound on e
    # fails the first row only.
    from sargkit import keyrate
    monkeypatch.setitem(keyrate.THRESHOLDS, "four-state", tuple(
        (*row[:4], (1e-6, row[4][1]))
        for row in keyrate.THRESHOLDS["four-state"]))
    rc, out = run(capsys, "thresholds", "--protocol", "four-state",
                  "--format", "json")
    assert rc == 1
    doc = json.loads(out)
    assert doc["manifest"]["status"] == "FAIL"
    assert [r["within_tolerance"] for r in doc["results"]] == [False, True]


# ---------------------------------------------------------------------------
# frontier
# ---------------------------------------------------------------------------

def test_frontier_default_grid_is_41_rows(capsys, tmp_path):
    out_file = tmp_path / "frontier.csv"
    rc = cli.main(["frontier", "--out", str(out_file)])
    assert rc == 0
    rows = read_csv(out_file.read_text())
    assert len(rows) == 41
    xs = [float(r["x"]) for r in rows]
    assert xs == sorted(xs) and xs[0] == 0.0 and xs[-1] == 10.0
    assert all(float(r["margin_at_g"]) >= -1e-9 for r in rows)
    assert all(float(r["gap"]) >= -1e-6 for r in rows)


def test_frontier_custom_grid(capsys):
    rc, out = run(capsys, "frontier", "--x-min", "1", "--x-max", "2",
                  "--x-step", "0.5")
    assert rc == 0
    assert [float(r["x"]) for r in read_csv(out)] == [1.0, 1.5, 2.0]


@pytest.mark.parametrize("flags", [
    ("--x-step", "-0.5"),
    ("--x-step", "0"),
    ("--x-min", "-1"),
    ("--x-min", "5", "--x-max", "1"),
    ("--x-step", "1e-9"),
    ("--x-max", "inf"),
    ("--x-max", "1e308", "--x-step", "1e-300"),
    ("--x-max", "1e6", "--x-step", "1e-320"),  # point count overflows
    ("--x-min", "1e7", "--x-max", "1e7", "--x-step", "1"),  # over the x cap
])
def test_frontier_malformed_grid(capsys, flags):
    assert cli.main(["frontier", *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("frontier: ") and err.count("\n") == 1


@pytest.mark.parametrize("protocol", ["four-state", "six-state"])
@pytest.mark.parametrize("nu", [1, 2, 3, 4])
def test_frontier_runs_up_to_the_x_cap(capsys, protocol, nu):
    # x * H_bit at x = 1e6 is Hermitian only to its own roundoff, which the
    # Hermitian check allows for by scaling with max|H|.
    rc, out = run(capsys, "frontier", "--protocol", protocol, "--nu", str(nu),
                  "--x-max", "%r" % cli.FRONTIER_X_MAX,
                  "--x-step", "%r" % cli.FRONTIER_X_MAX)
    assert rc == 0
    rows = read_csv(out)
    assert [float(r["x"]) for r in rows] == [0.0, cli.FRONTIER_X_MAX]
    assert all(0.0 <= float(r["y_star"]) <= 1.0 for r in rows)


def test_frontier_six_state_is_informational(capsys):
    rc, out = run(capsys, "frontier", "--protocol", "six-state", "--nu", "3",
                  "--x-max", "2")
    assert rc == 0
    rows = read_csv(out)
    assert all(0.0 <= float(r["y_star"]) <= 1.0 for r in rows)


@pytest.mark.parametrize("protocol,nu,step", [
    ("four-state", 2, "0.01"),   # 1001 points
    ("six-state", 3, "0.02"),
    ("four-state", 1, "0.125"),  # y_star clips to 0 for x > 1.5
])
def test_frontier_payload_equals_the_per_point_oracle(capsys, protocol, nu, step):
    rc, out = run(capsys, "frontier", "--protocol", protocol, "--nu", str(nu),
                  "--x-step", step)
    assert rc == 0
    grid = cli._build_grid(0.0, 10.0, float(step))
    assert oracles.payload_lines(out) == oracles.frontier_payload(
        cli.FRONTIER_FIELDS, protocol, nu, grid)
    assert ",-0.0," not in out


def test_frontier_byte_stable(capsys):
    _, a = run(capsys, "frontier", "--x-max", "3")
    _, b = run(capsys, "frontier", "--x-max", "3")
    assert oracles.payload_lines(a) == oracles.payload_lines(b)


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

SIM_YAML = """\
protocol: four-state
nu: 1
p: 0.05
eta: 0.5
trials: 40000
seed: 99
"""


def write_config(tmp_path, text, name="config.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_simulate_json_report(capsys, tmp_path):
    rc, out = run(capsys, "simulate", "--config",
                  write_config(tmp_path, SIM_YAML))
    assert rc == 0
    doc = json.loads(out)
    results = doc["results"]
    assert results["config"]["seed"] == 99
    assert results["sifted"] > 0
    assert results["compare"]["passed"] is True
    assert abs(results["compare"]["z_ebit"]) <= 3
    assert doc["manifest"]["status"] == "PASS"


def test_simulate_csv_report(capsys, tmp_path):
    rc, out = run(capsys, "simulate", "--config",
                  write_config(tmp_path, SIM_YAML), "--format", "csv")
    assert rc == 0
    (row,) = read_csv(out)
    assert row["protocol"] == "four-state"
    assert row["compare_pass"] == "True"


def test_simulate_seed_flag_overrides_config(capsys, tmp_path):
    cfg = write_config(tmp_path, SIM_YAML)
    _, a = run(capsys, "simulate", "--config", cfg)
    _, b = run(capsys, "simulate", "--config", cfg, "--seed", "123")
    ra, rb = json.loads(a)["results"], json.loads(b)["results"]
    assert ra["config"]["seed"] == 99 and rb["config"]["seed"] == 123
    assert ra["conclusive"] != rb["conclusive"]


def test_simulate_reruns_are_byte_stable(capsys, tmp_path):
    cfg = write_config(tmp_path, SIM_YAML)
    _, a = run(capsys, "simulate", "--config", cfg)
    _, b = run(capsys, "simulate", "--config", cfg)
    assert json.loads(a)["results"] == json.loads(b)["results"]


def test_simulate_coherent_has_breakdown_no_compare(capsys, tmp_path):
    cfg = write_config(tmp_path, SIM_YAML.replace("nu: 1", "mu: 0.5"))
    rc, out = run(capsys, "simulate", "--config", cfg)
    assert rc == 0
    results = json.loads(out)["results"]
    assert results["compare"]["passed"] is True
    assert len(results["per_nu"]) == 7


@pytest.mark.parametrize("source", ["nu: 3", "nu: 4", "mu: 0.5"])
def test_simulate_compares_every_photon_source(capsys, tmp_path, source):
    cfg = write_config(tmp_path, SIM_YAML.replace("nu: 1", source))
    rc, out = run(capsys, "simulate", "--config", cfg)
    assert rc == 0
    doc = json.loads(out)
    results = doc["results"]
    assert set(results["exact"]) == {"conclusive_prob", "e_bit"}
    assert results["compare"]["passed"] is True
    assert abs(results["compare"]["z_conclusive"]) <= 3
    assert abs(results["compare"]["z_ebit"]) <= 3
    assert doc["manifest"]["status"] == "PASS"


def json_field(results: dict, path: tuple[str, ...]):
    """The JSON field at path, None below a null block."""
    for key in path:
        if results is None:
            return None
        results = results[key]
    return results


def csv_cell(value) -> str:
    return "" if value is None else str(value)


# The JSON field each simulate CSV column copies.
SIMULATE_CSV_SOURCES = {
    **{k: ("config", k)
       for k in ("protocol", "nu", "mu", "p", "eta", "trials", "seed")},
    **{k: (k,) for k in ("sifted", "detected", "conclusive", "errors",
                         "conclusive_fraction", "conclusive_se", "e_bit",
                         "e_bit_se")},
    "exact_conclusive": ("exact", "conclusive_prob"),
    "exact_e_bit": ("exact", "e_bit"),
    "z_conclusive": ("compare", "z_conclusive"),
    "z_ebit": ("compare", "z_ebit"),
    "compare_pass": ("compare", "passed"),
}


@pytest.mark.parametrize("source", ["nu: 1", "nu: 2", "mu: 0.5"])
def test_simulate_csv_columns_equal_json_fields(capsys, tmp_path, source):
    cfg = write_config(tmp_path, SIM_YAML.replace("nu: 1", source))
    _, js = run(capsys, "simulate", "--config", cfg)
    _, cs = run(capsys, "simulate", "--config", cfg, "--format", "csv")
    results = json.loads(js)["results"]
    (row,) = read_csv(cs)
    assert list(row) == list(SIMULATE_CSV_SOURCES)
    assert row == {col: csv_cell(json_field(results, path))
                   for col, path in SIMULATE_CSV_SOURCES.items()}


@pytest.mark.parametrize("mangle", [
    lambda s: s.replace("nu: 1", "nu: 7"),
    lambda s: s.replace("nu: 1", ""),
    lambda s: s + "extra_knob: 3\n",
    lambda s: s.replace("p: 0.05", "p: 0.9"),
    lambda s: "- just\n- a list\n",
    lambda s: s.replace("nu: 1", "mu: true"),
])
def test_simulate_config_schema_violations(capsys, tmp_path, mangle):
    cfg = write_config(tmp_path, mangle(SIM_YAML))
    assert cli.main(["simulate", "--config", cfg]) == 2


@pytest.mark.parametrize("key,value", [
    ("seed", "18446744073709551616"),
    ("seed", "true"),
    ("nu", "2.0"),
    ("nu", "true"),
    ("trials", "true"),
    ("p", "1e-3"),
    ("eta", "true"),
])
def test_simulate_rejects_mistyped_values_with_one_line(capsys, tmp_path, key,
                                                         value):
    lines = [ln for ln in SIM_YAML.splitlines() if not ln.startswith(key + ":")]
    cfg = write_config(tmp_path, "\n".join(lines + ["%s: %s" % (key, value)]))
    assert cli.main(["simulate", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("simulate: bad config:") and err.count("\n") == 1


def test_simulate_rejects_mu_above_one_with_one_line(capsys, tmp_path):
    cfg = write_config(tmp_path, SIM_YAML.replace("nu: 1", "mu: 1.5"))
    assert cli.main(["simulate", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("simulate: bad config:") and err.count("\n") == 1
    assert "coherent intensity" in err


def test_simulate_single_trial_reports_null_z_without_traceback(tmp_path):
    cfg = write_config(tmp_path, SIM_YAML.replace("trials: 40000", "trials: 1"))
    proc = run_process("simulate", "--config", cfg)
    assert proc.returncode == 0 and proc.stderr == ""
    doc = json.loads(proc.stdout)
    assert doc["results"]["compare"] == {
        "z_conclusive": None, "z_ebit": None, "passed": None}
    assert doc["manifest"]["status"] == "OK"
    proc = run_process("simulate", "--config", cfg, "--format", "csv")
    assert proc.returncode == 0 and proc.stderr == ""
    (row,) = read_csv(proc.stdout)
    assert row["z_conclusive"] == row["z_ebit"] == row["compare_pass"] == ""


@pytest.mark.parametrize("source", ["nu: 1", "mu: 0.5"])
def test_simulate_zeroed_error_tally_fails_with_exit_1(capsys, tmp_path,
                                                       monkeypatch, source):
    # A defect that drops every error from the tally must fail the run, at a
    # fixed photon number and from a coherent source alike.
    run_monte_carlo = simulate.run_monte_carlo

    def zeroed(cfg):
        stats = run_monte_carlo(cfg)
        return dataclasses.replace(stats, errors=0, e_bit=0.0, e_bit_se=0.0)

    monkeypatch.setattr(simulate, "run_monte_carlo", zeroed)
    text = SIM_YAML.replace("40000", "400000").replace("nu: 1", source)
    rc, out = run(capsys, "simulate", "--config", write_config(tmp_path, text))
    assert rc == 1
    doc = json.loads(out)
    assert doc["results"]["errors"] == 0
    assert doc["results"]["compare"]["passed"] is False
    assert doc["results"]["compare"]["z_ebit"] < -3
    assert doc["manifest"]["status"] == "FAIL"


def test_cli_import_loads_no_numerical_layer():
    # Each command imports the layers it computes with: the thread pool only
    # a Monte Carlo run that uses it, YAML only the commands that read a
    # config, and numpy with the numerical layers only the commands that
    # compute with them.
    code = ("import sys, sargkit.cli; print(*sorted(set(sys.argv[1:]) "
            "& set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", code, "numpy", "yaml",
                           "concurrent.futures", "sargkit.qmath",
                           "sargkit.attack_forms", "sargkit.bounds",
                           "sargkit.keyrate", "sargkit.simulate"],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stdout == "\n"


# Runs each argv of the JSON list in argv[1] through cli.main with numpy
# unimportable; prints [exit code, stdout, stderr] for each.
NO_NUMPY_RUNNER = """\
import contextlib, io, json, sys
sys.modules["numpy"] = None
from sargkit import cli
runs = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    runs.append([rc, out.getvalue(), err.getvalue()])
print(json.dumps(runs))
"""


def payload(out: str):
    """A report without its manifest: the results of a JSON report, else
    the non-comment lines."""
    try:
        return json.loads(out)["results"]
    except (ValueError, TypeError, KeyError):
        return oracles.payload_lines(out)


def test_numpy_free_commands_run_without_numpy(capsys, monkeypatch, tmp_path):
    sim_cfg = write_config(
        tmp_path, "protocol: six-state\nmu: 0.5\np: 0.02\neta: 0.6\n"
                  "trials: 2000\nseed: 0\n", "sim.yaml")
    sim_out = str(tmp_path / "sim.json")
    assert cli.main(["simulate", "--config", sim_cfg, "--out", sim_out]) == 0
    decoy = write_config(tmp_path, DECOY_YAML, "decoy.yaml")
    from_sim = write_config(tmp_path, "from_simulate: %s\n" % sim_out,
                            "kr.yaml")
    argvs = [
        ["keyrate", "--config", decoy],
        ["keyrate", "--config", from_sim, "--format", "csv"],
        ["thresholds", "--protocol", "four-state"],
        ["thresholds", "--protocol", "four-state", "--format", "json"],
        ["--version"],
        ["--help"],
        ["verify", "--nu", "9"],
        ["thresholds", "--out", str(tmp_path / "missing" / "t.csv")],
        ["frontier", "--x-step", "0"],
    ]
    monkeypatch.setenv("COLUMNS", "80")  # the --help line width
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", NO_NUMPY_RUNNER,
                           json.dumps(argvs)],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    runs = json.loads(proc.stdout)
    for argv, (rc, out, err) in zip(argvs, runs):
        expected_rc = cli.main(argv)
        expected = capsys.readouterr()
        assert rc == expected_rc, argv
        assert payload(out) == payload(expected.out), argv
        assert err == expected.err, argv
    assert [rc for rc, _, _ in runs] == [0, 0, 0, 0, 0, 0, 2, 2, 2]


@pytest.mark.parametrize("command", ["simulate", "keyrate"])
def test_yaml_syntax_error_is_one_stderr_line(capsys, tmp_path, command):
    cfg = write_config(tmp_path, "protocol: [four-state\ntrials: 5\n")
    assert cli.main([command, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith(command + ": bad config: while parsing")
    assert err.count("\n") == 1


def refuse(*args, **kwargs):
    raise AssertionError("computed before --out was opened")


@pytest.mark.parametrize("command,compute", [
    ("thresholds", "keyrate.threshold_single"),
    ("simulate", "simulate.run_monte_carlo"),
])
def test_unwritable_out_is_a_usage_error_before_any_work(capsys, tmp_path,
                                                        monkeypatch, command,
                                                        compute):
    module, name = compute.split(".")
    monkeypatch.setattr(importlib.import_module("sargkit." + module), name,
                        refuse)
    argv = [command, "--out", str(tmp_path / "missing" / "report.csv")]
    if command == "simulate":
        argv += ["--config", write_config(tmp_path, SIM_YAML)]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(command + ": ")
    assert captured.err.count("\n") == 1


class FullStream(io.StringIO):
    """A stdout on a full device: every write fails with ENOSPC."""

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


NO_SPACE = "cannot write output: [Errno 28] %s\n" % os.strerror(errno.ENOSPC)
HAS_DEV_FULL = pytest.mark.skipif(not os.path.exists("/dev/full"),
                                  reason="no /dev/full on this platform")


@pytest.mark.parametrize("argv", [
    ["verify", "--protocol", "six-state"],  # a check table
    ["thresholds", "--protocol", "four-state"],  # a report
])
def test_a_failed_stdout_write_is_exit_2_with_one_line(capsys, monkeypatch,
                                                       argv):
    monkeypatch.setattr(sys, "stdout", FullStream())
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == argv[0] + ": " + NO_SPACE


@HAS_DEV_FULL
def test_a_failed_out_write_is_exit_2_with_one_line(capsys):
    argv = ["frontier", "--format", "json", "--out", "/dev/full"]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "frontier: " + NO_SPACE


@HAS_DEV_FULL
@pytest.mark.parametrize("command", ["verify", "thresholds"])
def test_a_full_stdout_is_not_flushed_again_at_exit(command):
    # The buffer that failed to flush is dropped, so interpreter exit adds
    # no second message and keeps exit code 2.  Stdout is block-buffered, as
    # in a default interpreter.
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("PYTHONUNBUFFERED", None)
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "sargkit.cli", command],
                              env=env, stdout=full, stderr=subprocess.PIPE,
                              text=True)
    assert proc.returncode == 2
    assert proc.stderr == command + ": " + NO_SPACE


def test_simulate_missing_config_file(capsys, tmp_path):
    assert cli.main(["simulate", "--config", str(tmp_path / "nope.yaml")]) == 2


# ---------------------------------------------------------------------------
# keyrate
# ---------------------------------------------------------------------------

DECOY_YAML = """\
decoy:
  p_conc: 0.25
  e_bit: 0.0
  xi1: 0.1
  e1: 0.0
  xi2: 0.05
  e2: 0.0
"""


def test_keyrate_csv_columns_equal_json_fields(capsys, tmp_path):
    cfg = write_config(tmp_path, DECOY_YAML.replace("e1: 0.0", "e1: 0.03")
                       .replace("e_bit: 0.0", "e_bit: 0.02"))
    _, js = run(capsys, "keyrate", "--config", cfg)
    _, cs = run(capsys, "keyrate", "--config", cfg, "--format", "csv")
    results = json.loads(js)["results"]
    (row,) = read_csv(cs)
    inputs = ["p_conc", "e_bit", "xi1", "e1", "xi2", "e2"]
    terms = ["error_correction_term", "single_photon_term", "two_photon_term",
             "total_rate"]
    assert list(row) == inputs + terms + ["total_rate_display"]
    for col in inputs:
        assert row[col] == csv_cell(results["inputs"][col])
    for col in terms:
        assert row[col] == csv_cell(results[col])
    assert row["total_rate_display"] == str(round(results["total_rate"], 6))


def test_keyrate_zero_error_composition(capsys, tmp_path):
    rc, out = run(capsys, "keyrate", "--config",
                  write_config(tmp_path, DECOY_YAML))
    assert rc == 0
    results = json.loads(out)["results"]
    sin2 = math.sin(math.pi / 8) ** 2
    h = -sin2 * math.log2(sin2) - (1 - sin2) * math.log2(1 - sin2)
    assert results["total_rate"] == pytest.approx(0.1 + 0.05 * (1 - h), abs=1e-12)


@pytest.mark.parametrize("source", ["decoy", "from_simulate"])
def test_keyrate_zero_error_correction_cost_is_positive_zero(capsys, tmp_path,
                                                             source):
    # e_bit = 0 (decoy) or p_conc = 0 (50 six-state trials, none conclusive)
    # costs nothing: the term is 0.0, never -0.0.
    text = DECOY_YAML
    if source == "from_simulate":
        sim_cfg = write_config(
            tmp_path, "protocol: six-state\nmu: 0.5\np: 0.02\neta: 0.6\n"
                      "trials: 50\nseed: 0\n", "sim.yaml")
        sim_out = tmp_path / "sim.json"
        assert cli.main(["simulate", "--config", sim_cfg, "--out",
                         str(sim_out)]) == 0
        text = "from_simulate: %s\n" % sim_out
    cfg = write_config(tmp_path, text)
    rc, js = run(capsys, "keyrate", "--config", cfg)
    _, cs = run(capsys, "keyrate", "--config", cfg, "--format", "csv")
    assert rc == 0
    assert math.copysign(1.0, json.loads(js)["results"][
        "error_correction_term"]) == 1.0
    assert '"error_correction_term": -0.0' not in js
    assert ",-0.0," not in cs


def test_keyrate_error_correction_only(capsys, tmp_path):
    text = DECOY_YAML.replace("xi1: 0.1", "xi1: 0.0").replace(
        "xi2: 0.05", "xi2: 0.0").replace("e_bit: 0.0", "e_bit: 0.05")
    rc, out = run(capsys, "keyrate", "--config", write_config(tmp_path, text))
    assert rc == 0
    assert json.loads(out)["results"]["total_rate"] <= 0.0


def test_keyrate_from_simulate_output(capsys, tmp_path):
    sim_cfg = write_config(
        tmp_path, "protocol: four-state\nmu: 0.6\np: 0.02\neta: 0.9\n"
                  "trials: 60000\nseed: 4\n", "sim.yaml")
    sim_out = tmp_path / "sim.json"
    assert cli.main(["simulate", "--config", sim_cfg, "--out",
                     str(sim_out)]) == 0
    kr_cfg = write_config(
        tmp_path, "from_simulate: %s\n" % sim_out, "kr.yaml")
    rc, out = run(capsys, "keyrate", "--config", kr_cfg)
    assert rc == 0
    results = json.loads(out)["results"]
    sim_results = json.loads(sim_out.read_text())["results"]
    assert results["inputs"]["p_conc"] == sim_results["conclusive_fraction"]
    assert results["inputs"]["xi1"] > 0


def test_keyrate_rejects_a_report_outside_the_rate_domain(capsys, tmp_path):
    # At p = 0.75 the exact e_bit is 0.5, so the one-photon e1 exceeds the
    # 0.4 domain of the single-photon rate.
    sim_cfg = write_config(
        tmp_path, "protocol: six-state\nmu: 0.5\np: 0.75\neta: 0.6\n"
                  "trials: 20000\nseed: 0\n", "sim.yaml")
    sim_out = tmp_path / "sim.json"
    assert cli.main(["simulate", "--config", sim_cfg, "--out",
                     str(sim_out)]) == 0
    capsys.readouterr()
    kr_cfg = write_config(tmp_path, "from_simulate: %s\n" % sim_out, "kr.yaml")
    assert cli.main(["keyrate", "--config", kr_cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("keyrate: bad config: e1 ") and err.count("\n") == 1


def test_keyrate_rejects_fixed_photon_simulate_output(capsys, tmp_path):
    sim_cfg = write_config(tmp_path, SIM_YAML, "sim.yaml")
    sim_out = tmp_path / "sim.json"
    assert cli.main(["simulate", "--config", sim_cfg, "--out",
                     str(sim_out)]) == 0
    kr_cfg = write_config(tmp_path, "from_simulate: %s\n" % sim_out, "kr.yaml")
    assert cli.main(["keyrate", "--config", kr_cfg]) == 2


@pytest.mark.parametrize("report", ["[1, 2]", '{"results": [1, 2]}', "3"])
def test_keyrate_rejects_a_report_that_is_not_an_object(capsys, tmp_path,
                                                        report):
    sim_out = tmp_path / "sim.json"
    sim_out.write_text(report)
    kr_cfg = write_config(tmp_path, "from_simulate: %s\n" % sim_out, "kr.yaml")
    assert cli.main(["keyrate", "--config", kr_cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("keyrate: bad config: ") and err.count("\n") == 1


# A coherent simulate report cut to what keyrate reads, its tallies left
# as JSON text.
TALLY_REPORT = ('{"results": {"conclusive_fraction": 0.5, "e_bit": 0.04, '
                '"sifted": %s, "per_nu": [%s]}}')
TALLY_ENTRY = '{"nu": %s, "conclusive": %s, "errors": %s}'
COUNT = "must be a nonnegative integer count"
ORDER = "must satisfy errors <= conclusive <= sifted"


@pytest.mark.parametrize("sifted,entries,message", [
    ("10", [("1", "3", "1")], None),                 # the valid counts
    ("1e309", [("1", "3", "1")], COUNT),             # read as inf: xi1 = 0
    ("10.5", [("1", "2.5", "true")], COUNT),         # read as e1 = 0.4
    ("10", [("1", "3", "true")], COUNT),
    ("true", [("1", "0", "0")], COUNT),
    ("10", [("1", "3.0", "1")], COUNT),
    ("10", [("1", "-3", "1")], COUNT),
    ("10", [("1", "3", '"1"')], COUNT),
    ("10", [("true", "3", "1")], COUNT),             # read as nu = 1
    ("10", [('"1"', "3", "1")], COUNT),
    ("1", [("1", "1" + "0" * 400, "0")], ORDER),     # xi1 overflows a float
    ("10", [("1", "3", "4")], ORDER),
    ("10", [("1", "3", "3"), ("1", "3", "0")], "lists nu=1 twice"),
])
def test_keyrate_from_simulate_reads_only_integer_counts(
        capsys, tmp_path, sifted, entries, message):
    sim_out = tmp_path / "sim.json"
    sim_out.write_text(TALLY_REPORT % (
        sifted, ", ".join(TALLY_ENTRY % entry for entry in entries)))
    kr_cfg = write_config(tmp_path, "from_simulate: %s\n" % sim_out, "kr.yaml")
    rc = cli.main(["keyrate", "--config", kr_cfg])
    err = capsys.readouterr().err
    if message is None:
        assert (rc, err) == (0, "")
        return
    assert rc == 2
    assert err.startswith("keyrate: bad config: ") and err.count("\n") == 1
    assert message in err


@pytest.mark.parametrize("text", [
    "decoy: {p_conc: 0.2}\n",                       # missing keys
    DECOY_YAML + "from_simulate: other.json\n",     # both sources
    "nothing: here\n",                              # neither source
    DECOY_YAML.replace("xi1: 0.1", "xi1: 0.3"),     # xi sum exceeds p_conc
    DECOY_YAML.replace("e1: 0.0", "e1: 0.45"),      # outside the R1 domain
    DECOY_YAML.replace("e2: 0.0", "e2: 0.6"),       # outside the e_ph domain
    DECOY_YAML.replace("e1: 0.0", "e1: 1e-2"),      # YAML reads a string
])
def test_keyrate_schema_violations(capsys, tmp_path, text):
    assert cli.main(["keyrate", "--config", write_config(tmp_path, text)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("keyrate: bad config: ") and err.count("\n") == 1


# ---------------------------------------------------------------------------
# constants-check
# ---------------------------------------------------------------------------

def test_constants_check_passes(capsys):
    rc, out = run(capsys, "constants-check")
    assert rc == 0
    assert "six-state rotation count" in out
    assert "summary: PASS" in out


def test_constants_check_prints_every_certificate_in_order(capsys):
    rc, out = run(capsys, "constants-check")
    assert rc == 0
    rows = check_rows(out)
    assert [r[0] for r in rows] == [
        "%s %s" % (p, name) for p in ("four-state", "six-state")
        for name in CONSTANT_ROWS]
    assert all(r[-1] == "PASS" for r in rows)


def test_constants_check_single_protocol(capsys):
    rc, out = run(capsys, "constants-check", "--protocol", "four-state")
    assert rc == 0
    assert "six-state" not in out
