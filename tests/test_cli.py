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
from functools import lru_cache

import numpy as np
import pytest

import oracles
import sargkit
import sargkit.bounds
from sargkit import attack_forms, cli, qmath, simulate

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
    assert "nu=2 frontier = g exactly" in out


def test_verify_six_state_all_passes(capsys):
    rc, out = run(capsys, "verify", "--protocol", "six-state")
    assert rc == 0
    assert "floor below 1/2" in out


@pytest.mark.parametrize("protocol", sargkit.PROTOCOLS)
def test_verify_lines_do_not_depend_on_nu(capsys, protocol):
    # The name column is as wide as the protocol's longest row at any nu, so
    # each --nu run prints its rows' lines of the full run byte for byte.
    _, full = run(capsys, "verify", "--protocol", protocol)
    parts = []
    for nu in sargkit.SUPPORTED_NU:
        _, out = run(capsys, "verify", "--protocol", protocol, "--nu", str(nu))
        parts += out.splitlines()[:-1]
    assert parts == full.splitlines()[:-1]


def test_constants_check_lines_do_not_depend_on_protocol(capsys):
    # The name column is as wide as the longest row of any protocol, so each
    # --protocol run prints its rows' lines of the full run byte for byte.
    _, full = run(capsys, "constants-check")
    parts = []
    for protocol in sargkit.PROTOCOLS:
        _, out = run(capsys, "constants-check", "--protocol", protocol)
        parts += out.splitlines()[:-1]
    assert parts == full.splitlines()[:-1]


# Every verify row, by protocol and photon number, in print order.
VERIFY_ROWS = {
    ("four-state", 1): ["nu=1 phase = 1.5 x bit identity",
                        "nu=1 Bell vertex table",
                        "nu=1 correlation chi0- >= 2 chi1+",
                        "nu=1 correlation 2 chi1- >= chi0-",
                        "nu=1 event forms PSD",
                        "nu=1 piece table = forms",
                        "nu=1 floor = exact table floor",
                        "nu=1 frontier in [0, 1]",
                        "nu=1 reduced H_bit PSD"],
    ("four-state", 2): ["nu=2 event forms PSD",
                        "nu=2 piece table = forms",
                        "nu=2 floor = exact table floor",
                        "nu=2 margin at analytic bound",
                        "nu=2 frontier = g exactly",
                        "nu=2 frontier floor vs sin^2(pi/8)",
                        "nu=2 closed form = tangent bound",
                        "nu=2 frontier in [0, 1]",
                        "nu=2 reduced H_bit PSD",
                        "nu=2 frontier floor below 1/2"],
    ("four-state", 3): ["nu=3 event forms PSD", "nu=3 piece table = forms",
                        "nu=3 floor = exact table floor",
                        "nu=3 no-key floor", "nu=3 frontier in [0, 1]",
                        "nu=3 reduced H_bit PSD"],
    ("four-state", 4): ["nu=4 event forms PSD", "nu=4 piece table = forms",
                        "nu=4 floor = exact table floor",
                        "nu=4 no-key floor", "nu=4 frontier in [0, 1]",
                        "nu=4 reduced H_bit PSD"],
    ("six-state", 1): ["nu=1 phase = 1.5 x bit identity",
                       "nu=1 Bell vertex table",
                       "nu=1 event forms PSD",
                       "nu=1 piece table = forms",
                       "nu=1 floor = exact table floor",
                       "nu=1 frontier in [0, 1]",
                       "nu=1 reduced H_bit PSD"],
    ("six-state", 2): ["nu=2 Bell vertex table",
                       "nu=2 event forms PSD",
                       "nu=2 piece table = forms",
                       "nu=2 floor = exact table floor",
                       "nu=2 frontier in [0, 1]",
                       "nu=2 reduced H_bit PSD"],
    ("six-state", 3): ["nu=3 event forms PSD",
                       "nu=3 piece table = forms",
                       "nu=3 floor = exact table floor",
                       "nu=3 closed form = tangent bound",
                       "nu=3 frontier in [0, 1]",
                       "nu=3 reduced H_bit PSD",
                       "nu=3 frontier floor below 1/2"],
    ("six-state", 4): ["nu=4 event forms PSD",
                       "nu=4 piece table = forms",
                       "nu=4 floor = exact table floor",
                       "nu=4 closed form = tangent bound",
                       "nu=4 frontier in [0, 1]",
                       "nu=4 reduced H_bit PSD",
                       "nu=4 frontier floor below 1/2"],
    # BB84 and the original six-state protocol: a Bell polytope at nu=1 and
    # an exact floor with no piece row at nu = 2..4, none of them rated.
    **{(tag, nu): (["nu=1 Bell vertex table"] if nu == 1 else
                   ["nu=%d floor = exact table floor" % nu,
                    "nu=%d no-key floor" % nu])
       for tag in ("bb84", "six-state-original") for nu in (1, 2, 3, 4)},
}

CONSTANT_ROWS = [
    "rotation count", "distinct signal states", "phase period",
    "H_fil full rank at nu=K-1", "piece table, nu >= K-1",
    "table floor, nu >= K-1", "no-key floor, nu >= K-1",
    "rotation maps phi1 to phi0",
    "rotation fourth power = -1", "twist unitary", "filter eigenvalues",
    "filter/measurement identity", "filtered pair = half chi0+",
]


@pytest.mark.parametrize("protocol", sargkit.RECORD_TAGS)
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


# The rows that prove a PIECES row's frontier: its forms, its pieces, its
# range and the monotonicity the floor rows read.
STRUCTURAL_ROWS = ("event forms PSD", "piece table = forms",
                   "floor = exact table floor", "frontier in [0, 1]",
                   "reduced H_bit PSD")
# The constants-check rows that take piece table = forms and floor = exact
# table floor at their worst over the no-key window.
WINDOW_ROWS = ("piece table, nu >= K-1", "table floor, nu >= K-1")
# The PIECES keys and the FLOORS keys that verify prints.
VERIFIED_PIECES = sorted(key for key in sargkit.keyrate.PIECES
                         if key[1] in sargkit.SUPPORTED_NU)
VERIFIED_FLOORS = sorted(key for key in sargkit.keyrate.FLOORS
                         if key[1] in sargkit.SUPPORTED_NU)


@pytest.mark.parametrize("protocol", sargkit.PROTOCOLS)
def test_verify_proves_every_piece_row_of_the_table(capsys, protocol):
    # Every PIECES row is proved: by verify's structural rows at nu <= 4,
    # and by constants-check's window rows over the no-key window.
    passed = set()
    for argv in (["verify"], ["constants-check"]):
        rc, out = run(capsys, *argv, "--protocol", protocol)
        assert rc == 0
        passed |= {r[0] for r in check_rows(out) if r[-1] == "PASS"}
    nus = {nu for p, nu in sargkit.keyrate.PIECES if p == protocol}
    verified = nus & set(sargkit.SUPPORTED_NU)
    assert verified and nus == verified | set(oracles.no_key_window(protocol))
    expected = {"nu=%d %s" % (nu, name)
                for nu in verified for name in STRUCTURAL_ROWS}
    expected |= {"%s %s" % (protocol, name) for name in WINDOW_ROWS}
    assert expected <= passed


def test_verify_scopes_follow_the_tables(capsys, monkeypatch):
    # Without its Bell vertex table, the six-state nu=2 row is rated by the
    # independent rule on its PIECES row: its threshold is that rule's root,
    # and verify proves the tangent and floor rows in place of the Bell row.
    monkeypatch.delitem(sargkit.keyrate.BELL_VERTICES, ("six-state", 2))
    assert sargkit.keyrate.threshold("six-state", 2) == 0.048861565170106716
    rc, out = run(capsys, "verify", "--protocol", "six-state", "--nu", "2")
    assert rc == 0
    rows = check_rows(out)
    assert [r[0] for r in rows] == ["nu=2 event forms PSD",
                                    "nu=2 piece table = forms",
                                    "nu=2 floor = exact table floor",
                                    "nu=2 closed form = tangent bound",
                                    "nu=2 frontier in [0, 1]",
                                    "nu=2 reduced H_bit PSD",
                                    "nu=2 frontier floor below 1/2"]
    assert all(r[-1] == "PASS" for r in rows)


def test_verify_failed_certificate_exits_1(capsys, monkeypatch):
    # The table looks bounds.zero_rate_check up when it runs, so a floor
    # patched below 1/2 fails the no-key certificate, the exact table floor
    # (1) and the whole run.
    monkeypatch.setattr(sargkit.bounds, "zero_rate_check", lambda p, nu: 0.3)
    rc, out = run(capsys, "verify", "--protocol", "four-state", "--nu", "3")
    assert rc == 1
    assert [r for r in check_rows(out) if r[-1] != "PASS"] == [
        ["nu=3 floor = exact table floor", "7.000e-01", "< 1e-10", "FAIL"],
        ["nu=3 no-key floor", "3.000e-01", ">= 0.5", "FAIL"]]
    assert out.splitlines()[-1] == "summary: FAIL"


def test_verify_fails_the_range_row_on_a_frontier_above_one(capsys,
                                                            monkeypatch):
    # H_ph scaled by 1.5 breaks p_ph <= p_fil, so y_star exceeds 1.  The
    # frontier is clipped only at 0, so the row reads it and fails instead
    # of the margin check raising.  Caches that end with the test keep the
    # scaled forms out of the shared ones.
    forms = sargkit.bounds._forms
    monkeypatch.setattr(sargkit.bounds, "_forms", lambda p, nu: (
        forms(p, nu)[0], forms(p, nu)[1], 1.5 * forms(p, nu)[2]))
    oracles.fresh_caches(monkeypatch)
    rc, out = run(capsys, "verify", "--protocol", "six-state", "--nu", "1")
    assert rc == 1
    rows = {r[0]: r for r in check_rows(out)}
    assert rows["nu=1 frontier in [0, 1]"][-1] == "FAIL"
    assert float(rows["nu=1 frontier in [0, 1]"][1]) > 1.0


@pytest.mark.parametrize("nu", [1, 2, 3, 4])
def test_verify_fails_the_psd_row_on_an_indefinite_reduced_bit_form(
        capsys, monkeypatch, nu):
    # B - 1e-6*I has lambda_min(B) - 1e-6 < -IDENTITY_TOL.  The PSD row reads
    # it and fails; pencil_blocks, with a cache that starts empty, cuts B's
    # kernel and raises, so every row that reads the blocks is a nan FAIL
    # row with one stderr line.  The identity and event-form rows read the
    # forms, not the pencil, and pass.
    oracles.fresh_caches(monkeypatch)
    pencil = sargkit.bounds._reduced_pencil
    monkeypatch.setattr(sargkit.bounds, "_reduced_pencil", lambda p, n: (
        pencil(p, n)[0], pencil(p, n)[1] - 1e-6 * np.eye(len(pencil(p, n)[1]))))
    rc = cli.main(["verify", "--protocol", "six-state", "--nu", str(nu)])
    captured = capsys.readouterr()
    assert rc == 1
    rows = {r[0]: r[1:] for r in check_rows(captured.out)}
    failed = sorted(name for name, r in rows.items() if r[-1] == "FAIL")
    assert failed == sorted(name for name in VERIFY_ROWS["six-state", nu]
                            if "identity" not in name
                            and "event forms" not in name)
    value, *verdict = rows.pop("nu=%d reduced H_bit PSD" % nu)
    assert verdict == [">= -1e-10", "FAIL"]
    assert -1.1e-6 < float(value) < -0.9e-6
    on_blocks = [name for name in failed if name in rows]
    assert all(rows[name][0] == "nan" for name in on_blocks)
    err = captured.err.splitlines()
    assert sorted(line.split(": ")[0] for line in err) == on_blocks
    assert all("reduced H_bit eigenvalue" in line for line in err)
    assert captured.out.splitlines()[-1] == "summary: FAIL"


BELL_ROWS = sorted(sargkit.keyrate.BELL_VERTICES)


def assert_only_the_bell_row_fails(capsys, protocol: str, nu: int) -> None:
    """verify exits 1, and its one FAIL row is the Bell vertex table."""
    rc, out = run(capsys, "verify", "--protocol", protocol)
    assert rc == 1
    failed = [r for r in check_rows(out) if r[-1] != "PASS"]
    assert [r[0] for r in failed] == ["nu=%d Bell vertex table" % nu]
    assert 0.9e-9 < float(failed[0][1]) < 1.1e-9


@pytest.mark.parametrize("protocol,nu", BELL_ROWS)
def test_verify_fails_the_bell_row_on_a_moved_vertex(capsys, monkeypatch,
                                                     protocol, nu):
    table = dict(sargkit.keyrate.BELL_VERTICES)
    first, *rest = table[protocol, nu]
    table[protocol, nu] = ((first[0] - 1e-9, *first[1:]), *rest)
    monkeypatch.setattr(sargkit.keyrate, "BELL_VERTICES", table)
    assert_only_the_bell_row_fails(capsys, protocol, nu)


@pytest.mark.parametrize("protocol,nu", BELL_ROWS)
def test_verify_fails_the_bell_row_on_a_coherence_between_blocks(
        capsys, monkeypatch, protocol, nu):
    # A 1e-9 coherence in the chi0+ form between the first and the last
    # block coordinate u_0, u_-1 of range(H_fil): H_fil (u_0 u_-1^dag + h.c.)
    # H_fil reduces to exactly that coherence, since u^dag H_fil u = I, and
    # chi0+ enters neither A nor B, so the basis stays put while the forms
    # no longer commute.
    forms = attack_forms.all_forms(protocol, nu)
    u = (sargkit.bounds._range_map(protocol, nu)[1]
         @ sargkit.bounds.pencil_blocks(protocol, nu).basis)
    first, last = (forms["fil"].matrix @ u[:, k] for k in (0, -1))
    chi = forms["bell:chi0+"].matrix + 1e-9 * (
        np.outer(first, last.conj()) + np.outer(last, first.conj()))
    coherent = {**forms, "bell:chi0+": attack_forms.EventForm(chi)}
    all_forms = attack_forms.all_forms
    monkeypatch.setattr(attack_forms, "all_forms", lambda p, n: (
        coherent if (p, n) == (protocol, nu) else all_forms(p, n)))
    assert_only_the_bell_row_fails(capsys, protocol, nu)


@pytest.mark.parametrize("protocol,nu", VERIFIED_PIECES)
def test_verify_fails_the_piece_row_on_a_moved_coefficient(
        capsys, monkeypatch, protocol, nu):
    # The first piece of the row moved by 1e-9 in alpha: no block piece lies
    # within IDENTITY_TOL of it, so piece table = forms fails at its gap.
    table = dict(sargkit.keyrate.PIECES)
    first, *rest = table[protocol, nu]
    table[protocol, nu] = ((first[0] + 1e-9, *first[1:]), *rest)
    monkeypatch.setattr(sargkit.keyrate, "PIECES", table)
    rc, out = run(capsys, "verify", "--protocol", protocol, "--nu", str(nu))
    assert rc == 1
    rows = {r[0]: r[1:] for r in check_rows(out)}
    value, *verdict = rows["nu=%d piece table = forms" % nu]
    assert verdict == ["< 1e-10", "FAIL"] and 0.9e-9 < float(value) < 1.1e-9


@pytest.mark.parametrize("protocol,nu", VERIFIED_FLOORS)
def test_verify_fails_the_floor_row_on_a_moved_table_floor(
        capsys, monkeypatch, protocol, nu):
    # The row's FLOORS entry moved by 1e-9: the forms' floor lies 1e-9 from
    # it, so floor = exact table floor fails, and only it.
    monkeypatch.setitem(sargkit.keyrate.FLOORS, (protocol, nu),
                        sargkit.keyrate.FLOORS[protocol, nu] + 1e-9)
    rc, out = run(capsys, "verify", "--protocol", protocol, "--nu", str(nu))
    assert rc == 1
    failed = [r for r in check_rows(out) if r[-1] != "PASS"]
    assert [r[0] for r in failed] == ["nu=%d floor = exact table floor" % nu]
    assert failed[0][2] == "< 1e-10" and 0.9e-9 < float(failed[0][1]) < 1.1e-9
    assert out.splitlines()[-1] == "summary: FAIL"


@pytest.mark.parametrize("protocol,nus", [("four-state", (2,)),
                                           ("six-state", (3, 4))])
def test_verify_fails_the_tangent_rows_on_a_moved_certified_bound(
        capsys, monkeypatch, protocol, nus):
    # ephase_bound_frontier moved up by 1e-9: each closed form = tangent
    # bound row reads it, so each fails at that gap, and only they.
    bound = sargkit.keyrate.ephase_bound_frontier
    monkeypatch.setattr(sargkit.keyrate, "ephase_bound_frontier",
                        lambda e, p, nu: bound(e, p, nu) + 1e-9)
    rc, out = run(capsys, "verify", "--protocol", protocol)
    assert rc == 1
    assert [r for r in check_rows(out) if r[-1] != "PASS"] == [
        ["nu=%d closed form = tangent bound" % nu, "1.000e-09", "<= 1e-10",
         "FAIL"] for nu in nus]
    assert out.splitlines()[-1] == "summary: FAIL"


def test_verify_fails_the_g_row_on_a_coherence_between_pencil_blocks(
        capsys, monkeypatch):
    # A 1e-9 coherence in the reduced H_ph between two pencil blocks at
    # four-state nu=2: pencil_blocks raises, and so every row that reads the
    # blocks (the piece table row, the g row, the closed-form row and the
    # range row) fails with one stderr line each, while the rows on the
    # forms, and the floor rows, which compress A onto ker B with no block
    # split, still pass.
    oracles.fresh_caches(monkeypatch)
    pencil = oracles.couple_two_photon_blocks(1e-9)
    reduced = sargkit.bounds._reduced_pencil
    monkeypatch.setattr(sargkit.bounds, "_reduced_pencil", lambda p, n: (
        pencil if (p, n) == ("four-state", 2) else reduced(p, n)))
    rc = cli.main(["verify", "--protocol", "four-state"])
    captured = capsys.readouterr()
    assert rc == 1
    failed = [r for r in check_rows(captured.out) if r[-1] != "PASS"]
    assert [r[0] for r in failed] == ["nu=2 piece table = forms",
                                      "nu=2 frontier = g exactly",
                                      "nu=2 closed form = tangent bound",
                                      "nu=2 frontier in [0, 1]"]
    assert all(r[1] == "nan" for r in failed)
    err = captured.err.splitlines()
    assert len(err) == 4 and all("pencil block residual" in e for e in err)


def test_six_state_verify_reads_no_x_grid(capsys, monkeypatch):
    # Every six-state row is grid-free: no frontier is solved on the
    # verification grid DEFAULT_X_GRID.
    solved = []
    table = sargkit.bounds.frontier_table

    def spy(protocol, nu, grid):
        solved.append(tuple(grid))
        return table(protocol, nu, grid)

    monkeypatch.setattr(sargkit.bounds, "frontier_table", spy)
    rc, out = run(capsys, "verify", "--protocol", "six-state")
    assert rc == 0
    assert solved and sargkit.bounds.DEFAULT_X_GRID not in solved


# Checked eigen-solves of each command run with empty caches.  Each verify
# counts one one-point margin solve per e of every closed form = tangent
# bound row: six at four-state nu=2, twelve at six-state nu=3, 4.  Each
# floor row counts two, one of the reduced H_bit and one of its compression,
# each time it is read: 8 floor reads in four-state verify, 6 in six-state,
# 6 in BB84's and 20 in constants-check's window rows.
COLD_SOLVES = {("constants-check",): 62,
               ("verify", "--protocol", "four-state"): 45,
               ("verify", "--protocol", "six-state"): 44,
               ("verify", "--protocol", "bb84"): 17,
               ("thresholds", "--protocol", "four-state"): 0,
               ("thresholds", "--protocol", "six-state"): 0,
               ("thresholds", "--protocol", "bb84"): 0,
               ("thresholds", "--protocol", "six-state-original"): 0}


def test_each_filter_form_is_solved_once_per_command(capsys, monkeypatch):
    # bounds._range_map caches the one checked solve of H_fil per (protocol,
    # nu); the pencil, the Bell rows, the event-form PSD row and the
    # full-rank row all read it.
    filters = {attack_forms.all_forms(p, nu)["fil"].matrix.tobytes(): (p, nu)
               for p in sargkit.RECORD_TAGS
               for nu in range(1, attack_forms.MAX_NU + 1)}
    solve = qmath.eigh_checked
    for argv, count in COLD_SOLVES.items():
        oracles.fresh_caches(monkeypatch)
        solved = []
        monkeypatch.setattr(qmath, "eigh_checked", lambda h: (
            solved.append(np.asarray(h).tobytes()) or solve(h)))
        assert cli.main(list(argv)) == 0
        capsys.readouterr()
        rows = [filters[h] for h in solved if h in filters]
        assert len(rows) == len(set(rows)), argv
        assert len(solved) == count, argv


@pytest.fixture
def unclear_filter_kernel(monkeypatch):
    """Every H_fil gets one eigenvalue at 1e-9 of its largest, within the six
    decades above the kernel cut, so the frontier's reduction raises
    ArithmeticError, in caches that start empty and end with the test."""
    forms = sargkit.bounds._forms

    def squeezed(protocol, nu):
        h_bit, h_fil, h_ph = forms(protocol, nu)
        w, v = np.linalg.eigh(h_fil)
        w[0] = 1e-9 * w[-1]
        return h_bit, (v * w) @ v.conj().T, h_ph

    monkeypatch.setattr(sargkit.bounds, "_forms", squeezed)
    oracles.fresh_caches(monkeypatch)


def test_verify_prints_a_fail_row_for_a_failed_internal_check(
        capsys, unclear_filter_kernel):
    rc = cli.main(["verify", "--protocol", "six-state", "--nu", "1"])
    captured = capsys.readouterr()
    assert rc == 1
    rows = check_rows(captured.out)
    # The identity row reads the compiled forms, not H_fil's kernel; the
    # Bell vertex table reduces the Bell forms to range(H_fil), the event
    # form row reads H_fil's cut solve, and the piece table, floor and
    # frontier rows reduce the pencil.
    assert rows[0][0] == "nu=1 phase = 1.5 x bit identity"
    assert rows[0][-1] == "PASS"
    assert [r[1:] for r in rows[1:]] == [["nan", "< 1e-10", "FAIL"],
                                         ["nan", ">= -1e-10", "FAIL"],
                                         ["nan", "< 1e-10", "FAIL"],
                                         ["nan", "< 1e-10", "FAIL"],
                                         ["nan", "<= 1", "FAIL"],
                                         ["nan", ">= -1e-10", "FAIL"]]
    assert captured.out.splitlines()[-1] == "summary: FAIL"
    err = captured.err.splitlines()
    assert [line.split(": ")[0] for line in err] == [r[0] for r in rows[1:]]
    assert all("H_fil eigenvalue" in line for line in err)


@pytest.mark.parametrize("protocol", ["four-state", "six-state"])
def test_thresholds_read_no_form(capsys, unclear_filter_kernel, protocol):
    # Every threshold is float arithmetic on keyrate's tables, which verify
    # proves against the forms: an H_fil whose kernel cut is unclear does
    # not reach the thresholds command.
    assert cli.main(["thresholds", "--protocol", protocol]) == 0


@pytest.mark.parametrize("out", [False, True])
def test_thresholds_failed_internal_check_is_one_stderr_line(
        capsys, tmp_path, monkeypatch, out):
    # An internal check that raises inside the command (no forms are read:
    # the failure is injected into the table's phase-error minimum).
    def failing(pieces, e):
        raise ArithmeticError("phase-error minimum failed")

    monkeypatch.setattr(sargkit.keyrate, "phase_minimum", failing)
    argv = ["thresholds", "--protocol", "six-state"]
    if out:
        argv += ["--out", str(tmp_path / "t.csv")]
    rc = cli.main(argv)
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err == "thresholds: phase-error minimum failed\n"


@pytest.mark.parametrize("protocol", ["four-state", "six-state"])
def test_thresholds_exit_1_when_the_exact_rate_cannot_separate_the_signs(
        capsys, monkeypatch, protocol):
    # An exact rate that never clears its error bound proves no sign, so the
    # first row's root certificate fails: exit 1, one stderr line, no table.
    monkeypatch.setattr(sargkit.keyrate, "exact_rate",
                        lambda p, nu, e: sargkit.keyrate.RATE_ERROR / 2)
    rc = cli.main(["thresholds", "--protocol", protocol])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("thresholds: exact rate 5.000e-31 at e=")
    assert line.endswith("is within its error bound 1E-30 of 0")


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
    # The six-state table holds its four photon numbers, each asserted; the
    # paper's reference constants, BB84's p = 0.165 (asserted) and the
    # original six-state protocol's p = 0.190 (informational, an empty
    # cell), are computed rows of their own tags' tables.
    rc, out = run(capsys, "thresholds", "--protocol", "six-state")
    assert rc == 0
    rows = read_csv(out)
    assert [(r["label"], r["nu"], r["within_tolerance"]) for r in rows] == [
        ("six-state", str(nu), "True") for nu in (1, 2, 3, 4)]
    for tag, p_ref, verdict in [("bb84", 0.165, "True"),
                                ("six-state-original", 0.190, "")]:
        rc, out = run(capsys, "thresholds", "--protocol", tag)
        assert rc == 0
        (row,) = read_csv(out)
        assert (row["label"], row["nu"]) == (tag, "1")
        assert float(row["p_reference"]) == p_ref
        assert row["within_tolerance"] == verdict


# Every thresholds row, by protocol, in print order: (label, nu, e_reference,
# p_reference, within_tolerance, e_threshold, p_threshold), each computed
# row's threshold and p the shared pins of test_keyrate.
THRESHOLD_ROWS = {
    "four-state": [
        ("four-state", 1, 0.0968, 0.0804, True,
         *oracles.FLOAT_ROOTS["four-state", 1]),
        ("four-state", 2, 0.0271, 0.0208, True,
         *oracles.FLOAT_ROOTS["four-state", 2]),
    ],
    "six-state": [
        *[("six-state", nu, e_ref, None, True,
           *oracles.FLOAT_ROOTS["six-state", nu])
          for nu, e_ref in ((1, 0.112), (2, 0.056), (3, 0.0237),
                            (4, 0.00788))],
    ],
    "bb84": [("bb84", 1, None, 0.165, True, *oracles.FLOAT_ROOTS["bb84", 1])],
    "six-state-original": [
        ("six-state-original", 1, None, 0.19, None,
         *oracles.FLOAT_ROOTS["six-state-original", 1])],
}


@pytest.mark.parametrize("protocol", sargkit.RECORD_TAGS)
def test_thresholds_tables_are_pinned_row_by_row(capsys, protocol):
    rc, out = run(capsys, "thresholds", "--protocol", protocol,
                  "--format", "json")
    assert rc == 0
    rows = json.loads(out)["results"]
    assert [(r["label"], r["nu"], r["e_reference"], r["p_reference"],
             r["within_tolerance"]) for r in rows] == [
        row[:5] for row in THRESHOLD_ROWS[protocol]]
    assert [(r["e_threshold"], r["p_threshold"]) for r in rows] == [
        row[5:] for row in THRESHOLD_ROWS[protocol]]


def test_thresholds_json_format(capsys):
    rc, out = run(capsys, "thresholds", "--protocol", "four-state",
                  "--format", "json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["manifest"]["status"] == "PASS"
    assert len(doc["results"]) == 2
    assert doc["results"][0]["within_tolerance"] is True


def test_thresholds_read_the_tolerance_from_keyrate(capsys, monkeypatch):
    # |e deviation| is ~9e-5 at nu=1 and 9.3e-7 at nu=2: a 1e-6 bound on e
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


def test_six_state_thresholds_check_the_e_deviation_only(capsys, monkeypatch):
    # The six-state rows quote no p, so only |e deviation| is held to the
    # tolerance: 3.6e-4, 2.8e-5, 1.1e-6 and 3.1e-6 against a 2e-6 bound fail
    # every row but nu=3.
    from sargkit import keyrate
    monkeypatch.setitem(keyrate.THRESHOLDS, "six-state", tuple(
        (*row[:4], (2e-6, None)) for row in keyrate.THRESHOLDS["six-state"]))
    rc, out = run(capsys, "thresholds", "--protocol", "six-state",
                  "--format", "json")
    assert rc == 1
    assert [r["within_tolerance"] for r in json.loads(out)["results"]] == [
        False, False, True, False]


@pytest.mark.parametrize("command", ["frontier", "constants-check"])
@pytest.mark.parametrize("tag", ["bb84", "six-state-original"])
def test_sarg04_commands_reject_the_compared_tags(capsys, command, tag):
    # Only verify and thresholds read BB84 and the original six-state
    # protocol: no frontier or constants table is written for them.
    assert cli.main([command, "--protocol", tag]) == 2
    err = capsys.readouterr().err
    assert "invalid choice: %r" % tag in err


def test_bb84_threshold_checks_the_p_deviation_only(capsys, monkeypatch):
    # BB84 quotes p only: |p deviation| is 4.2e-5, so a 4e-5 bound fails it.
    from sargkit import keyrate
    monkeypatch.setitem(keyrate.THRESHOLDS, "bb84",
                        (("bb84", 1, None, 0.165, (None, 4e-5)),))
    rc, out = run(capsys, "thresholds", "--protocol", "bb84", "--format",
                  "json")
    assert rc == 1
    (row,) = json.loads(out)["results"]
    assert row["within_tolerance"] is False and row["e_deviation"] is None
    assert 4.1e-5 < row["p_deviation"] < 4.2e-5


def test_thresholds_solve_only_their_own_tags_roots(capsys, monkeypatch):
    # The SARG04 tables, which certify commands print, root only their own
    # keys: BB84's root, which bisects an interior Bell maximum in Decimal,
    # stays off them.  BB84's own table imports no numpy and writes the same
    # results without it.
    from sargkit import keyrate
    called = []
    threshold = keyrate.threshold
    monkeypatch.setattr(keyrate, "threshold", lambda p, nu: (
        called.append((p, nu)) or threshold(p, nu)))
    for tag, nus in [("four-state", [1, 2]), ("six-state", [1, 2, 3, 4])]:
        called.clear()
        assert run(capsys, "thresholds", "--protocol", tag)[0] == 0
        assert called == [(tag, nu) for nu in nus]
    monkeypatch.undo()
    argvs = [["thresholds", "--protocol", tag, "--format", "json"]
             for tag in ("bb84", "six-state-original")]
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", NO_NUMPY_RUNNER,
                           json.dumps(argvs)],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    for argv, (rc, out, err) in zip(argvs, json.loads(proc.stdout)):
        assert (rc, err) == (0, "")
        assert payload(out) == payload(run(capsys, *argv)[1])


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


def test_frontier_fails_a_frontier_above_g(capsys, monkeypatch):
    # y_star 1e-9 above g: every gap is -1e-9, below -IDENTITY_TOL, the
    # slack of verify's frontier = g exactly, so the asserted report fails.
    table = sargkit.bounds.frontier_table
    monkeypatch.setattr(sargkit.bounds, "frontier_table", lambda p, nu, grid: (
        tuple(y + 1e-9 for y in table(p, nu, grid))))
    rc, out = run(capsys, "frontier", "--protocol", "four-state", "--nu", "2",
                  "--format", "json")
    assert rc == 1
    doc = json.loads(out)
    assert doc["manifest"]["status"] == "FAIL"
    assert all(-1.1e-9 < r["gap"] < -0.9e-9 for r in doc["results"])


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
    ("--x-step", "inf"),  # a grid of 0 + 0*inf, nan
])
def test_frontier_malformed_grid(capsys, flags):
    assert cli.main(["frontier", *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("frontier: ") and err.count("\n") == 1


def test_frontier_grid_too_large_prints_a_short_count(capsys):
    assert cli.main(["frontier", "--x-step", "1e-300"]) == 2
    assert capsys.readouterr().err == (
        "frontier: grid too large (1e+301 points)\n")


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
    # y_star(0) is exactly 1 at four-state nu=3, which its closed form meets
    # to roundoff (1 + 2.2e-16).
    assert all(0.0 <= float(r["y_star"]) <= 1.0 + 1e-15 for r in rows)


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
    # Every cell but y_star and gap is the oracle's own bytes; those two are
    # the blocks' closed form, within roundoff of the per-point eigen-solve.
    rc, out = run(capsys, "frontier", "--protocol", protocol, "--nu", str(nu),
                  "--x-step", step)
    assert rc == 0
    grid = cli._build_grid(0.0, 10.0, float(step))
    got = [line.split(",") for line in oracles.payload_lines(out)]
    want = [line.split(",") for line in oracles.frontier_payload(
        cli.FRONTIER_FIELDS, protocol, nu, grid)]
    assert got[0] == want[0] == cli.FRONTIER_FIELDS and len(got) == len(want)
    near = [cli.FRONTIER_FIELDS.index(k) for k in ("y_star", "gap")]
    for row, ref in zip(got[1:], want[1:]):
        assert [c for i, c in enumerate(row) if i not in near] == [
            c for i, c in enumerate(ref) if i not in near]
        assert all(abs(float(row[i]) - float(ref[i]))
                   <= 1e-12 * max(1.0, float(row[0])) for i in near)
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


@pytest.mark.parametrize("command,report", [
    ("simulate", False), ("keyrate", False), ("keyrate", True)])
def test_deeply_nested_config_is_one_stderr_line(capsys, tmp_path, command,
                                                 report):
    # 3000 YAML brackets, or a report of 100000 JSON brackets, nest past the
    # recursion limit of the YAML composer or the JSON decoder.
    text = "[" * 3000
    if report:
        text = "from_simulate: %s\n" % write_config(tmp_path, "[" * 100000,
                                                    "report.json")
    cfg = write_config(tmp_path, text)
    assert cli.main([command, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith(command + ": bad config: maximum recursion depth")
    assert err.count("\n") == 1


def refuse(*args, **kwargs):
    raise AssertionError("computed before --out was opened")


@pytest.mark.parametrize("command,compute", [
    ("thresholds", "keyrate.threshold"),
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
    # In a 200-trial run at p = 0.75 the one-photon tally is one conclusive
    # event, an error: e1 = 1, past the single-photon polytope's 2/3.
    sim_cfg = write_config(
        tmp_path, "protocol: six-state\nmu: 0.5\np: 0.75\neta: 0.6\n"
                  "trials: 200\nseed: 1\n", "sim.yaml")
    sim_out = tmp_path / "sim.json"
    assert cli.main(["simulate", "--config", sim_cfg, "--out",
                     str(sim_out)]) == 0
    capsys.readouterr()
    kr_cfg = write_config(tmp_path, "from_simulate: %s\n" % sim_out, "kr.yaml")
    assert cli.main(["keyrate", "--config", kr_cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("keyrate: bad config: e1 ") and err.count("\n") == 1


def test_keyrate_rates_a_report_with_e2_above_one_half(capsys, tmp_path):
    # At p = 0.7 sampling noise takes the two-photon e2 past 0.5 (0.50588).
    # The six-state nu=2 Bell polytope's bit weights reach 3/5, so the report
    # is rated, with that key's secrecy term there (0.0991).
    sim_cfg = write_config(
        tmp_path, "protocol: six-state\nmu: 0.5\np: 0.7\neta: 0.6\n"
                  "trials: 200000\nseed: 1\n", "sim.yaml")
    sim_out = tmp_path / "sim.json"
    assert cli.main(["simulate", "--config", sim_cfg, "--out",
                     str(sim_out)]) == 0
    capsys.readouterr()
    kr_cfg = write_config(tmp_path, "from_simulate: %s\n" % sim_out, "kr.yaml")
    rc, out = run(capsys, "keyrate", "--config", kr_cfg)
    assert rc == 0
    results = json.loads(out)["results"]
    inputs = results["inputs"]
    assert 0.5 < inputs["e2"] < 0.51
    secrecy = sargkit.keyrate.secrecy_term("six-state", 2, inputs["e2"])
    assert 0.099 < secrecy < 0.0992
    assert results["two_photon_term"] == inputs["xi2"] * secrecy


def test_keyrate_rates_a_report_with_e1_above_the_threshold_bracket(
        capsys, tmp_path):
    # simulate accepts p <= 0.75; at p = 0.6 the one-photon e1 (0.4295) is
    # past the thresholds' bracket end 0.4 but inside the six-state nu=1
    # polytope, whose bit weights reach 4/7, so the report is rated.
    sim_cfg = write_config(
        tmp_path, "protocol: six-state\nmu: 0.5\np: 0.6\neta: 0.6\n"
                  "trials: 1000000\nseed: 1\n", "sim.yaml")
    sim_out = tmp_path / "sim.json"
    assert cli.main(["simulate", "--config", sim_cfg, "--out",
                     str(sim_out)]) == 0
    capsys.readouterr()
    kr_cfg = write_config(tmp_path, "from_simulate: %s\n" % sim_out, "kr.yaml")
    rc, out = run(capsys, "keyrate", "--config", kr_cfg)
    assert rc == 0
    inputs = json.loads(out)["results"]["inputs"]
    assert 0.4 < inputs["e1"] < 0.43 and inputs["e2"] <= 0.5


def test_keyrate_rates_a_six_state_report_by_the_six_state_rules(
        capsys, tmp_path):
    # Each term of a six-state report is xi_nu times the six-state key's
    # secrecy term, bit for bit, and its total is not the four-state one.
    keyrate = sargkit.keyrate
    sim_cfg = write_config(
        tmp_path, "protocol: six-state\nmu: 0.5\np: 0.02\neta: 0.6\n"
                  "trials: 40000\nseed: 0\n", "sim.yaml")
    sim_out = tmp_path / "sim.json"
    assert cli.main(["simulate", "--config", sim_cfg, "--out",
                     str(sim_out)]) == 0
    capsys.readouterr()
    kr_cfg = write_config(tmp_path, "from_simulate: %s\n" % sim_out, "kr.yaml")
    rc, out = run(capsys, "keyrate", "--config", kr_cfg)
    assert rc == 0
    results = json.loads(out)["results"]
    inputs = results["inputs"]
    assert results["single_photon_term"] == inputs["xi1"] * \
        keyrate.secrecy_term("six-state", 1, inputs["e1"])
    assert results["two_photon_term"] == inputs["xi2"] * \
        keyrate.secrecy_term("six-state", 2, inputs["e2"])
    four_state = keyrate.decoy_rate_terms(keyrate.DecoyInputs(**inputs),
                                          "four-state")
    assert results["total_rate"] != sum(four_state)


def tally_report(protocol, counts) -> str:
    """A coherent simulate report cut to what keyrate reads: its config's
    protocol (none: no config) and its totals from (nu, conclusive, errors)
    tallies over 100 sifted trials, by simulate's divisions."""
    conclusive = sum(c for _, c, _ in counts)
    results = {"sifted": 100, "conclusive_fraction": conclusive / 100,
               "e_bit": sum(e for _, _, e in counts) / conclusive,
               "per_nu": [{"nu": nu, "conclusive": c, "errors": e}
                          for nu, c, e in counts]}
    if protocol is not None:
        results["config"] = {"protocol": protocol}
    return json.dumps({"results": results})


def keyrate_of_report(capsys, tmp_path, report: str) -> tuple[int, str, str]:
    sim_out = tmp_path / "sim.json"
    sim_out.write_text(report)
    kr_cfg = write_config(tmp_path, "from_simulate: %s\n" % sim_out, "kr.yaml")
    rc = cli.main(["keyrate", "--config", kr_cfg])
    out, err = capsys.readouterr()
    return rc, out, err


def test_keyrate_rates_a_report_with_no_config_as_four_state(capsys,
                                                             tmp_path):
    counts = [(1, 20, 1), (2, 10, 1)]
    rated = {}
    for protocol in (None, "four-state", "six-state"):
        rc, out, err = keyrate_of_report(capsys, tmp_path,
                                         tally_report(protocol, counts))
        assert (rc, err) == (0, "")
        rated[protocol] = json.loads(out)["results"]
    assert rated[None] == rated["four-state"] != rated["six-state"]


@pytest.mark.parametrize("counts,message", [
    ([(1, 5, 3)], "e1 must be in [0, 0.571429] for the six-state nu=1 rate, "
                  "got 0.6"),
    ([(2, 20, 13)], "e2 must be in [0, 0.6] for the six-state nu=2 rate, "
                    "got 0.65"),
])
def test_keyrate_rejects_a_six_state_report_past_its_bell_polytope(
        capsys, tmp_path, counts, message):
    # Inside the four-state polytopes (e1 <= 2/3, any e2), past the
    # six-state ones (e1 <= 4/7, e2 <= 3/5).
    assert keyrate_of_report(capsys, tmp_path,
                             tally_report("four-state", counts))[0] == 0
    rc, _, err = keyrate_of_report(capsys, tmp_path,
                                   tally_report("six-state", counts))
    assert (rc, err) == (2, "keyrate: bad config: %s\n" % message)


PROTOCOL = "config.protocol must be four-state or six-state, got "


@pytest.mark.parametrize("config,message", [
    ({"protocol": "bb84"}, PROTOCOL + "'bb84'"),
    ({"protocol": 7}, PROTOCOL + "7"),
    ({"protocol": None}, PROTOCOL + "None"),
    ({}, PROTOCOL + "None"),                         # no protocol
    ("six-state", PROTOCOL + "None"),                # config not an object
])
def test_keyrate_rejects_a_report_of_an_unknown_protocol(
        capsys, tmp_path, config, message):
    report = json.loads(tally_report(None, [(1, 20, 1)]))
    report["results"]["config"] = config
    rc, _, err = keyrate_of_report(capsys, tmp_path, json.dumps(report))
    assert (rc, err) == (2, "keyrate: bad config: simulate report's %s\n"
                         % message)


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
# as JSON text.  The totals are those of the valid counts below (3/10, 1/3).
TALLY_REPORT = ('{"results": {"conclusive_fraction": 0.3, '
                '"e_bit": 0.3333333333333333, "sifted": %s, "per_nu": [%s]}}')
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


@pytest.mark.parametrize("totals,message", [
    # Read as xi1 = 0.1 and total_rate 0.1 before the totals were checked.
    ('"conclusive_fraction": 0.9, "e_bit": 0.0',
     "per_nu tallies give conclusive/sifted = 1/10, not "
     "conclusive_fraction 0.9"),
    ('"conclusive_fraction": 0.1, "e_bit": 0.5',
     "per_nu tallies give errors/conclusive = 0/1, not e_bit 0.5"),
    ('"conclusive_fraction": 0.0, "e_bit": 0.0',
     "per_nu tallies give conclusive/sifted = 1/10, not "
     "conclusive_fraction 0.0"),
])
def test_keyrate_rejects_per_nu_tallies_that_contradict_the_totals(
        capsys, tmp_path, totals, message):
    sim_out = tmp_path / "sim.json"
    sim_out.write_text('{"results": {%s, "sifted": 10, "per_nu": [%s]}}'
                       % (totals, TALLY_ENTRY % (1, 1, 0)))
    kr_cfg = write_config(tmp_path, "from_simulate: %s\n" % sim_out, "kr.yaml")
    assert cli.main(["keyrate", "--config", kr_cfg]) == 2
    assert capsys.readouterr().err == "keyrate: bad config: %s\n" % message


def test_keyrate_holds_a_real_report_to_its_totals_exactly(capsys, tmp_path):
    # Every real report passes; a total one ulp off no longer does.
    sim_cfg = write_config(
        tmp_path, "protocol: six-state\nmu: 0.5\np: 0.02\neta: 0.6\n"
                  "trials: 40000\nseed: 0\n", "sim.yaml")
    sim_out = tmp_path / "sim.json"
    assert cli.main(["simulate", "--config", sim_cfg, "--out",
                     str(sim_out)]) == 0
    kr_cfg = write_config(tmp_path, "from_simulate: %s\n" % sim_out, "kr.yaml")
    assert cli.main(["keyrate", "--config", kr_cfg]) == 0
    report = json.loads(sim_out.read_text())
    for key in ("conclusive_fraction", "e_bit"):
        doctored = json.loads(json.dumps(report))
        doctored["results"][key] = math.nextafter(report["results"][key], 1.0)
        sim_out.write_text(json.dumps(doctored))
        capsys.readouterr()
        assert cli.main(["keyrate", "--config", kr_cfg]) == 2
        assert key in capsys.readouterr().err


@pytest.mark.parametrize("results,message", [
    ('{"e_bit": 0.04, "sifted": 10, "per_nu": [%s]}' % (TALLY_ENTRY % (1, 3, 1)),
     "simulate report lacks 'conclusive_fraction'"),
    ('{"conclusive_fraction": 0.5, "e_bit": 0.04, "sifted": 10, '
     '"per_nu": [{"nu": 1, "conclusive": 3}]}',
     "per_nu entry 0 lacks 'errors'"),
    ('{"conclusive_fraction": 0.5, "e_bit": 0.04, "sifted": 10, '
     '"per_nu": [7]}', "per_nu entry 0 must be an object, got 7"),
    ('{"conclusive_fraction": 0.5, "e_bit": 0.04, "sifted": 10, '
     '"per_nu": {"a": 1}}', "'per_nu' must be a list, got {'a': 1}"),
], ids=["no-conclusive_fraction", "entry-without-errors", "entry-not-an-object",
        "per_nu-not-a-list"])
def test_keyrate_from_simulate_names_the_bad_report_field(
        capsys, tmp_path, results, message):
    sim_out = tmp_path / "sim.json"
    sim_out.write_text('{"results": %s}' % results)
    kr_cfg = write_config(tmp_path, "from_simulate: %s\n" % sim_out, "kr.yaml")
    assert cli.main(["keyrate", "--config", kr_cfg]) == 2
    assert capsys.readouterr().err == "keyrate: bad config: %s\n" % message


@pytest.mark.parametrize("text", [
    "decoy: {p_conc: 0.2}\n",                       # missing keys
    DECOY_YAML + "from_simulate: other.json\n",     # both sources
    "nothing: here\n",                              # neither source
    DECOY_YAML.replace("xi1: 0.1", "xi1: 0.3"),     # xi sum exceeds p_conc
    DECOY_YAML.replace("e1: 0.0", "e1: 0.7"),       # outside the R1 domain
    DECOY_YAML.replace("e2: 0.0", "e2: 1.2"),       # not a fraction
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


def test_constants_check_prints_the_no_key_proof(capsys):
    rc, out = run(capsys, "constants-check")
    assert rc == 0
    rows = {r[0]: r[1:] for r in check_rows(out)}
    for protocol, period, ratio, floor in [
            ("four-state", "2", "1.111e-01", "8.536e-01"),
            ("six-state", "8", "1.333e-01", "6.768e-01")]:
        assert rows[protocol + " phase period"] == [
            "%s.000e+00" % period, "== " + period, "PASS"]
        assert rows[protocol + " H_fil full rank at nu=K-1"] == [
            ratio, ">= 1e-6", "PASS"]
        assert rows[protocol + " no-key floor, nu >= K-1"] == [
            floor, ">= 0.5", "PASS"]
        for name in WINDOW_ROWS:
            value, *verdict = rows["%s %s" % (protocol, name)]
            assert verdict == ["< 1e-10", "PASS"] and float(value) < 1e-13


@pytest.mark.parametrize("protocol,last", [("four-state", 4),
                                           ("six-state", 12)])
def test_constants_check_fails_a_low_floor_at_the_window_end(
        capsys, monkeypatch, protocol, last):
    # The window nu = K - 1 .. K - 2 + P is read to its last photon number.
    zero_rate_check = sargkit.bounds.zero_rate_check
    monkeypatch.setattr(
        sargkit.bounds, "zero_rate_check",
        lambda p, nu: 0.3 if (p, nu) == (protocol, last)
        else zero_rate_check(p, nu))
    rc, out = run(capsys, "constants-check")
    assert rc == 1
    assert [r for r in check_rows(out) if r[-1] != "PASS"] == [
        [protocol + " table floor, nu >= K-1", "5.536e-01", "< 1e-10", "FAIL"],
        [protocol + " no-key floor, nu >= K-1", "3.000e-01", ">= 0.5", "FAIL"]]


@pytest.mark.parametrize("nu,index", [(5, 0), (12, 3)])
def test_constants_check_fails_the_window_piece_row_on_a_moved_coefficient(
        capsys, monkeypatch, nu, index):
    # A six-state window row's coefficient (alpha of its first piece at
    # nu=5, delta of its first curve at nu=12) moved by 1e-9: the window's
    # piece table row fails at that gap, and only it.
    table = dict(sargkit.keyrate.PIECES)
    first, *rest = table["six-state", nu]
    moved = list(first)
    moved[index] += 1e-9
    table["six-state", nu] = (tuple(moved), *rest)
    monkeypatch.setattr(sargkit.keyrate, "PIECES", table)
    rc, out = run(capsys, "constants-check")
    assert rc == 1
    failed = [r for r in check_rows(out) if r[-1] != "PASS"]
    assert [r[0] for r in failed] == ["six-state piece table, nu >= K-1"]
    assert failed[0][2] == "< 1e-10" and 0.9e-9 < float(failed[0][1]) < 1.1e-9


@pytest.mark.parametrize("protocol,nu", [(p, nu) for p in sargkit.PROTOCOLS
                                         for nu in oracles.no_key_window(p)])
def test_constants_check_fails_the_window_floor_row_on_a_moved_table_floor(
        capsys, monkeypatch, protocol, nu):
    # A window key's FLOORS entry moved by 1e-9: the window's table floor
    # row fails at that gap, and only it.
    monkeypatch.setitem(sargkit.keyrate.FLOORS, (protocol, nu),
                        sargkit.keyrate.FLOORS[protocol, nu] + 1e-9)
    rc, out = run(capsys, "constants-check")
    assert rc == 1
    failed = [r for r in check_rows(out) if r[-1] != "PASS"]
    assert [r[0] for r in failed] == [protocol + " table floor, nu >= K-1"]
    assert failed[0][2] == "< 1e-10" and 0.9e-9 < float(failed[0][1]) < 1.1e-9


@pytest.mark.parametrize("protocol", ["four-state", "six-state"])
@pytest.mark.parametrize("size,row", [("group_order", "rotation count"),
                                      ("k", "distinct signal states"),
                                      ("period", "phase period")])
def test_constants_check_fails_a_wrong_declared_size(
        capsys, monkeypatch, protocol, size, row):
    # The record declares each size; the computed structure is held to it.
    records = dict(qmath.PROTOCOL_RECORDS)
    record = records[protocol]
    declared = getattr(record, size)
    records[protocol] = record._replace(**{size: declared + 1})
    monkeypatch.setattr(qmath, "PROTOCOL_RECORDS", records)
    for name in ("constants", "signal_kets"):
        monkeypatch.setattr(qmath, name,
                            lru_cache()(getattr(qmath, name).__wrapped__))
    oracles.fresh_caches(monkeypatch)
    rc, out = run(capsys, "constants-check")
    assert rc == 1
    assert [r for r in check_rows(out) if r[-1] != "PASS"] == [
        ["%s %s" % (protocol, row), "%.3e" % declared, "== %d" % (declared + 1),
         "FAIL"]]


@pytest.mark.parametrize("drift,value,errors", [
    (np.exp(2j * np.pi / 3), "2.400e+01", ["no table row at nu=13"] * 3),
    (np.exp(0.1j), "nan", ["no period up to 64"] * 4)])
def test_constants_check_fails_a_phase_off_the_period(
        capsys, monkeypatch, drift, value, errors):
    # One six-state phase with c^8 != 1: the period is 24, whose floor
    # window runs past the table's rows, or there is none up to 64.  Each
    # window row fails on it.
    signal_kets = qmath.signal_kets

    def drifted(protocol):
        table = signal_kets(protocol)
        if protocol == "four-state":
            return table
        phases = table.phases.copy()
        phases[-1, -1] *= drift
        return table._replace(phases=phases)

    monkeypatch.setattr(qmath, "signal_kets", drifted)
    rc = cli.main(["constants-check"])
    captured = capsys.readouterr()
    assert rc == 1
    failed = [r for r in check_rows(captured.out) if r[-1] != "PASS"]
    assert failed == [["six-state phase period", value, "== 8", "FAIL"],
                      ["six-state piece table, nu >= K-1", "nan", "< 1e-10",
                       "FAIL"],
                      ["six-state table floor, nu >= K-1", "nan", "< 1e-10",
                       "FAIL"],
                      ["six-state no-key floor, nu >= K-1", "nan", ">= 0.5",
                       "FAIL"]]
    err = captured.err.splitlines()
    assert len(err) == len(errors)
    assert all(line.endswith(e) for line, e in zip(err, errors))
