"""States, operators, eigen-solvers, and protocol constant sets."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import sargkit
from sargkit import attack_forms, qmath, simulate

RNG = np.random.default_rng(20240811)


def random_ket(dim: int = 2) -> np.ndarray:
    v = RNG.normal(size=dim) + 1j * RNG.normal(size=dim)
    return v / np.linalg.norm(v)


def random_hermitian(dim: int) -> np.ndarray:
    a = RNG.normal(size=(dim, dim)) + 1j * RNG.normal(size=(dim, dim))
    return a + a.conj().T


# ---------------------------------------------------------------------------
# Bases and named states
# ---------------------------------------------------------------------------

def test_x_basis_orthonormal_and_z_is_coordinate_basis():
    assert abs(np.vdot(qmath.KET_X[0], qmath.KET_X[1])) < 1e-15
    assert abs(np.linalg.norm(qmath.KET_X[0]) - 1) < 1e-15
    assert np.allclose(qmath.KET_Z[0], [1, 0], atol=1e-15)
    assert np.allclose(qmath.KET_Z[1], [0, 1], atol=1e-15)


def test_signal_states_unit_norm_and_candidate_overlap():
    # The two candidates are nonorthogonal with overlap cos(pi/4).
    for j in (0, 1):
        assert abs(np.linalg.norm(qmath.PHI[j]) - 1) < 1e-15
        assert abs(np.vdot(qmath.PHI_BAR[j], qmath.PHI[j])) < 1e-15
    overlap = abs(np.vdot(qmath.PHI[0], qmath.PHI[1]))
    assert abs(overlap - math.cos(math.pi / 4)) < 1e-14


# ---------------------------------------------------------------------------
# Operators
# ---------------------------------------------------------------------------

def test_filter_acts_as_half_z_ket_on_signal_states():
    f = qmath.FILTER
    for j in (0, 1):
        assert np.abs(f @ qmath.PHI[j] - 0.5 * qmath.KET_Z[j]).max() < 1e-14


def test_rotation_quarter_turn():
    r = qmath.ROTATION
    assert np.abs(r @ qmath.dagger(r) - qmath.I2).max() < 1e-14
    assert np.abs(r @ qmath.PHI[1] - qmath.PHI[0]).max() < 1e-14
    r4 = np.linalg.matrix_power(r, 4)
    assert np.abs(r4 + qmath.I2).max() < 1e-14


def test_twist_fixes_signal_axis():
    # T rotates about the phi_0 Bloch axis, so it can only phase that basis.
    t = qmath.TWIST
    assert np.abs(qmath.dagger(t) @ t - qmath.I2).max() < 1e-14
    for ket in (qmath.PHI[0], qmath.PHI_BAR[0]):
        out = t @ ket
        assert abs(abs(np.vdot(ket, out)) - 1) < 1e-14


def test_twist_moves_other_signal_state_off_axis():
    t = qmath.TWIST
    out = t @ qmath.PHI[1]
    assert abs(np.vdot(qmath.PHI[1], out)) < 0.99


# ---------------------------------------------------------------------------
# Hermitian helpers and eigen-solvers
# ---------------------------------------------------------------------------

def test_as_hermitian_rejects_nonhermitian():
    with pytest.raises(ValueError):
        qmath.as_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))


def test_hermitian_check_scales_with_each_members_max_entry():
    # An asymmetry of 1e-8 is roundoff at max|H| = 1e6 (bound 1e-6) but not
    # at max|H| = 1 (bound 1e-12), so a stack is judged member by member.
    big = np.array([[1e6, 1.0], [1.0 + 1e-8, 0.0]], dtype=complex)
    small = np.array([[1.0, 0.5], [0.5 + 1e-8, 0.0]], dtype=complex)
    assert qmath.is_hermitian(big) and not qmath.is_hermitian(small)
    assert not qmath.is_hermitian(np.stack([big, small]))
    assert np.array_equal(qmath.as_hermitian(np.stack([big, big]))[0],
                          qmath.as_hermitian(big))
    with pytest.raises(ValueError, match="not Hermitian"):
        qmath.min_eigenvalue(np.stack([big, small]))


def eig2_closed_form(h: np.ndarray) -> float:
    """Independent smallest-eigenvalue oracle for 2x2 Hermitian matrices."""
    a, d = h[0, 0].real, h[1, 1].real
    return (a + d) / 2 - math.sqrt((a - d) ** 2 / 4 + abs(h[0, 1]) ** 2)


def test_min_eigenvalue_matches_2x2_closed_form():
    for _ in range(50):
        h = random_hermitian(2)
        assert abs(qmath.min_eigenvalue(h) - eig2_closed_form(h)) < 1e-12


def test_min_eigenvalue_matches_power_iteration():
    # Power-iterate c*I - H (largest eigenvalue of the shifted matrix) as a
    # solver-independent cross-check on a larger matrix.
    h = random_hermitian(8)
    c = np.abs(h).sum()  # upper bound on the spectral radius
    shifted = c * np.eye(8) - h
    v = random_ket(8)
    for _ in range(3000):
        v = shifted @ v
        v /= np.linalg.norm(v)
    lam_power = np.vdot(v, h @ v).real  # Rayleigh quotient at the converged vector
    assert abs(qmath.min_eigenvalue(h) - lam_power) < 1e-8


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), batch=st.integers(0, 12),
       dim=st.integers(1, 16),
       scale=st.sampled_from([1e-12, 1.0, 50.0, 1e6]))
def test_min_eigenvalue_on_a_stack_equals_the_per_matrix_loop(seed, batch, dim,
                                                              scale):
    # The residual bound scales with ||H||, so a norm of 1e6 passes too.
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(batch, dim, dim)) + 1j * rng.normal(size=(batch, dim, dim))
    stack = scale * (a + np.swapaxes(a, -1, -2).conj())
    batched = qmath.min_eigenvalue(stack)
    assert isinstance(batched, np.ndarray) and batched.shape == (batch,)
    loop = [qmath.min_eigenvalue(h) for h in stack]
    assert all(isinstance(lam, float) for lam in loop)
    # Bit for bit: repr is the shortest round-trip form, so it tells every
    # double apart, signed zeros included.
    assert list(map(repr, batched.tolist())) == list(map(repr, loop))
    # min_eigenvalue is the lowest column of eigh_checked, whose stacked
    # solve equals the per-matrix loop bit for bit, eigenvectors included.
    vals, vecs = qmath.eigh_checked(stack)
    assert batched.tobytes() == vals[..., 0].tobytes()
    for k, h in enumerate(stack):
        one_vals, one_vecs = qmath.eigh_checked(h)
        assert vals[k].tobytes() == one_vals.tobytes()
        assert vecs[k].tobytes() == one_vecs.tobytes()


def test_min_eigenvalue_keeps_leading_stack_axes():
    stack = np.stack([random_hermitian(3) for _ in range(6)]).reshape(2, 3, 3, 3)
    lam = qmath.min_eigenvalue(stack)
    assert lam.shape == (2, 3)
    assert lam[1, 2] == qmath.min_eigenvalue(stack[1, 2])


def test_min_eigenvalue_rejects_a_stack_with_one_nonhermitian_member():
    stack = np.stack([random_hermitian(4) for _ in range(5)])
    stack[3, 0, 1] += 1e-6
    with pytest.raises(ValueError, match="not Hermitian"):
        qmath.min_eigenvalue(stack)
    with pytest.raises(ValueError):
        qmath.min_eigenvalue(np.zeros((5, 4, 3)))


def test_min_eigenvalue_checks_the_residual_of_every_member(monkeypatch):
    stack = np.stack([random_hermitian(4) for _ in range(5)])
    eigh = np.linalg.eigh

    def bad_member(h):
        vals, vecs = eigh(h)
        vecs = vecs.copy()
        vecs[2, :, 0] = vecs[2, :, 1]  # a wrong eigenvector for member 2 only
        return vals, vecs

    monkeypatch.setattr(np.linalg, "eigh", bad_member)
    with pytest.raises(ArithmeticError, match="residual"):
        qmath.min_eigenvalue(stack)


def test_min_eigenvalue_rejects_zero_eigenvectors(monkeypatch):
    # A zero vector passes any eigenpair residual ||H u - lam u||; the
    # reconstruction V diag(lam) V^dagger = 0 is far from H.
    eigh = np.linalg.eigh

    def zero_vectors(h):
        vals, vecs = eigh(h)
        return vals + 1.0, np.zeros_like(vecs)

    monkeypatch.setattr(np.linalg, "eigh", zero_vectors)
    with pytest.raises(ArithmeticError, match="residual"):
        qmath.min_eigenvalue(np.diag([1.0, 2.0, 3.0]))


def test_eigh_checked_reconstructs():
    h = random_hermitian(6)
    vals, vecs = qmath.eigh_checked(h)
    assert np.all(np.diff(vals) >= 0)
    recon = (vecs * vals) @ qmath.dagger(vecs)
    assert np.abs(recon - qmath.as_hermitian(h)).max() < 1e-9


def test_eigh_checked_accepts_a_correct_solve_at_norm_1e6():
    h = 1e6 * random_hermitian(6)
    vals, _ = qmath.eigh_checked(h)
    assert vals[0] == qmath.min_eigenvalue(h)


@pytest.mark.parametrize("norm,raises", [(0.5, True), (10.0, False)])
def test_eigen_checks_bound_errors_by_1e_9_times_max_1_norm(monkeypatch, norm,
                                                           raises):
    # A solve whose smallest eigenvalue is off by 3e-9: over the bound at
    # norm 0.5 (1e-9), within it at norm 10 (1e-8).
    h = np.diag([0.0, norm]).astype(complex)
    off = (np.array([3e-9, norm]), np.eye(2, dtype=complex))
    monkeypatch.setattr(np.linalg, "eigh", lambda m: off)
    for check in (qmath.min_eigenvalue, qmath.eigh_checked):
        if raises:
            with pytest.raises(ArithmeticError):
                check(h)
        else:
            check(h)


# ---------------------------------------------------------------------------
# Bell states and pair sources
# ---------------------------------------------------------------------------

def test_bell_states_orthonormal():
    assert tuple(qmath.BELL_KETS) == tuple(qmath.BELL_PROJECTORS) == (
        qmath.BELL_TAGS)
    kets = list(qmath.BELL_KETS.values())
    gram = np.array([[np.vdot(a, b) for b in kets] for a in kets])
    assert np.abs(gram - np.eye(4)).max() < 1e-14
    for tag, ket in qmath.BELL_KETS.items():
        assert np.array_equal(qmath.BELL_PROJECTORS[tag], qmath.proj(ket))


def test_chi0_plus_overlap_with_product_states():
    # <psi (x) conj(psi)|chi0+> = 1/sqrt(2) for every unit ket psi: the
    # maximally entangled state has the same overlap with all such products.
    for _ in range(100):
        psi = random_ket()
        prod = np.kron(psi, psi.conj())
        assert abs(abs(np.vdot(prod, qmath.BELL_KETS["chi0+"])) - 1 / math.sqrt(2)) < 1e-12


@pytest.mark.parametrize("nu", [1, 2, 3, 4])
def test_pair_source_normalized(nu):
    # The nu-photon source of the tensor-power oracles; at nu = 1 it is the
    # library's single-photon ket, bit for bit.
    psi = oracles.pair_source_ket(nu)
    if nu == 1:
        assert np.array_equal(psi, qmath.pair_source_ket("four-state"))
    assert psi.shape == (2 ** (nu + 1),)
    assert abs(np.linalg.norm(psi) - 1) < 1e-14


def test_pair_source_requires_photons():
    with pytest.raises(ValueError):
        oracles.pair_source_ket(0)


def test_filtered_single_photon_pair_is_half_chi0_plus():
    for protocol in sargkit.PROTOCOLS:
        psi = qmath.pair_source_ket(protocol)
        out = np.kron(qmath.I2, qmath.protocol_record(protocol).filter) @ psi
        assert np.abs(out - 0.5 * qmath.BELL_KETS["chi0+"]).max() < 1e-12


def test_filter_measurement_identity():
    assert qmath.filter_measurement_identity_check() < 1e-12


# ---------------------------------------------------------------------------
# Constant sets
# ---------------------------------------------------------------------------

def test_four_state_constants():
    # The closure of R alone is its four powers, bit for bit.
    cs = qmath.constants("four-state")
    assert len(cs) == 4
    r = qmath.ROTATION
    for k, u in enumerate(cs):
        assert np.array_equal(u, np.linalg.matrix_power(r, k))
    assert len(qmath.signal_kets("four-state").kets) == 4


def test_every_protocol_has_sift_generators():
    # One record per tag, in the order of the numpy-free names; the
    # generators, kets and filter it shares are read-only.
    assert tuple(qmath.PROTOCOL_RECORDS) == sargkit.RECORD_TAGS
    for record in qmath.PROTOCOL_RECORDS.values():
        for a in (*record.generators, record.signal_pair, record.filter):
            assert not a.flags.writeable


def test_records_hold_the_named_constants():
    # The records share qmath's named arrays themselves, not copies: the
    # constants-check rows that compute on those arrays certify what the
    # forms are built from.
    records = qmath.PROTOCOL_RECORDS
    for tag in sargkit.PROTOCOLS:
        assert records[tag].generators[0] is qmath.ROTATION
        assert records[tag].signal_pair is qmath.PHI
        assert records[tag].filter is qmath.FILTER
    assert records["six-state"].generators[1] is qmath.TWIST
    assert records["bb84"].generators[0] is qmath.HADAMARD
    (sh,) = records["six-state-original"].generators
    assert np.array_equal(sh, qmath.PHASE_S @ qmath.HADAMARD)
    for tag in ("bb84", "six-state-original"):
        assert records[tag].signal_pair is qmath.KET_Z
        assert records[tag].filter is qmath.I2


NAMED = ("I2", "KET_X", "KET_Z", "PHI", "PHI_BAR", "FILTER", "ROTATION",
         "TWIST", "HADAMARD", "PHASE_S")


@pytest.mark.parametrize("name", NAMED)
def test_named_constants_are_read_only(name):
    a = getattr(qmath, name)
    assert a.shape == (2, 2) and a.dtype == complex
    with pytest.raises(ValueError):
        a[0, 0] = 0


@pytest.mark.parametrize("table", ["BELL_KETS", "BELL_PROJECTORS"])
def test_bell_tables_are_read_only(table):
    bells = getattr(qmath, table)
    with pytest.raises(TypeError):
        bells["chi0+"] = np.zeros(4)
    for a in bells.values():
        with pytest.raises(ValueError):
            a.flat[0] = 0


@pytest.mark.parametrize("reader", [
    qmath.constants, qmath.signal_kets, qmath.pair_source_ket,
    lambda tag: attack_forms.all_forms(tag, 1),
    lambda tag: simulate.SimConfig(tag, trials=10, seed=0, nu=1),
    lambda tag: simulate.exact_channel_stats(tag, 1, 0.0, 1.0)],
    ids=["constants", "signal_kets", "pair_source_ket", "all_forms",
         "SimConfig", "exact_channel_stats"])
def test_every_layer_rejects_an_unknown_tag_at_the_record(reader):
    with pytest.raises(ValueError) as exc:
        reader("b92")
    assert str(exc.value) == ("protocol must be one of ('four-state', "
                              "'six-state', 'bb84', 'six-state-original'), "
                              "got 'b92'")


@pytest.mark.parametrize("protocol", ["bb84", "six-state-original"])
def test_each_compared_record_has_its_declared_sizes(protocol):
    # BB84: H over the Z kets, |G| = 2, K = 4, P = 1; the original six-state
    # protocol: S*H, |G| = 3, K = 6, P = 1.  Each computed size is the
    # record's declared one, and F = I sifts by basis alone.
    record = qmath.protocol_record(protocol)
    table = qmath.signal_kets(protocol)
    assert (len(qmath.constants(protocol)), len(table.kets), table.period) == (
        record.group_order, record.k, record.period)
    assert {"bb84": (2, 4, 1), "six-state-original": (3, 6, 1)}[protocol] == (
        record.group_order, record.k, record.period)
    assert np.array_equal(record.filter, np.eye(2))
    assert np.abs(record.signal_pair - np.eye(2)).max() < 1e-15


@pytest.mark.parametrize("protocol,order", [("four-state", 4),
                                            ("six-state", 24)])
def test_constants_form_a_group(protocol, order):
    cs = qmath.constants(protocol)
    assert len(cs) == order
    keys = {qmath._phase_canonical_key(u) for u in cs}
    assert len(keys) == order
    # Closure: every pairwise product lands back in the set (mod phase).
    for a in cs[:6]:
        for b in cs:
            assert qmath._phase_canonical_key(a @ b) in keys
    # Rebuilding the closure from the stored elements adds nothing.
    assert len(qmath._close_under_multiplication(list(cs))) == order


@pytest.mark.parametrize("protocol,k,period", [("four-state", 4, 2),
                                               ("six-state", 6, 8)])
def test_signal_kets_rebuild_every_sift_ket(protocol, k, period):
    # U_g phi_a = c * s_index, |c| = 1, with c^P = 1 for the least such P.
    table = qmath.signal_kets(protocol)
    assert table.kets.shape == (k, 2) and table.period == period
    for g, u in enumerate(qmath.constants(protocol)):
        for a in (0, 1):
            s = table.kets[table.index[g, a]]
            c = table.phases[g, a]
            assert np.abs(u @ qmath.PHI[a] - c * s).max() < 1e-12
            assert abs(abs(c) - 1.0) < 1e-12
    assert all(np.abs(table.phases ** n - 1.0).max() > 1e-3
               for n in range(1, period))
    # The first two classes are phi_0 and phi_1 themselves (U_0 = I).
    assert np.array_equal(table.kets[0], qmath.PHI[0])
    assert np.array_equal(table.kets[1], qmath.PHI[1])
    for a in (table.kets, table.index, table.phases):
        with pytest.raises(ValueError):
            a[0, 0] = 0


def test_signal_phases_without_a_period_raise():
    table = qmath.signal_kets("four-state")
    drifted = table._replace(phases=table.phases * np.exp(0.1j))
    with pytest.raises(ArithmeticError, match="no period up to 64"):
        drifted.period


def test_six_state_ensemble_is_uniform_over_six_states():
    # 24 rotations x 2 bits over 6 states.
    index = qmath.signal_kets("six-state").index
    assert np.bincount(index.ravel()).tolist() == [8] * 6


def test_six_state_kets_are_three_mutually_unbiased_bases():
    # Three orthogonal pairs, every other pair unbiased: |<s_i|s_j>|^2 = 1/2.
    kets = qmath.signal_kets("six-state").kets
    overlaps = [round(float(abs(np.vdot(kets[i], kets[j])) ** 2), 9)
                for i in range(6) for j in range(i + 1, 6)]
    assert overlaps.count(0.0) == 3 and overlaps.count(0.5) == 12


def test_constants_rejects_unknown_protocol():
    with pytest.raises(ValueError):
        qmath.constants("eight-state")
