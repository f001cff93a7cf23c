"""Attack maps, conditional pair states, and compiled event forms."""

import numpy as np
import pytest

import oracles
import sargkit
from sargkit import attack_forms, bounds, qmath

RNG = np.random.default_rng(77002)


def random_attack(nu: int, contraction: bool = False) -> np.ndarray:
    """A random complex 2 x (nu+1) attack map."""
    m = RNG.normal(size=(2, nu + 1)) + 1j * RNG.normal(size=(2, nu + 1))
    if contraction:
        m /= max(1.0, np.linalg.norm(m, 2))
    return m


def form_weight(form: attack_forms.EventForm, m: np.ndarray) -> float:
    """p_event(m) = v^dag H v over the row-major coordinates v of m."""
    v = m.reshape(-1)
    return float((v.conj() @ form.matrix @ v).real)


# ---------------------------------------------------------------------------
# Conditional pair state
# ---------------------------------------------------------------------------

def test_attack_validation():
    # nu is read from the map's width; anything that is not 2 x (nu+1) with
    # nu in 1..MAX_NU is rejected.
    for shape in [(2,), (6,), (3, 3), (1, 2), (2, 1),
                  (2, attack_forms.MAX_NU + 2), (2, 2, 2)]:
        with pytest.raises(ValueError):
            attack_forms.conditional_pair_state(np.zeros(shape), "four-state")

def test_identity_attack_gives_quarter_chi0_plus():
    # With M = 1 the rotations cancel, the filter halves the amplitude, and
    # averaging over the sift list leaves rho = (1/4) P(chi0+).
    for protocol in sargkit.PROTOCOLS:
        rho = attack_forms.conditional_pair_state(np.eye(2), protocol)
        target = 0.25 * qmath.proj(qmath.BELL_KETS["chi0+"])
        assert np.abs(rho - target).max() < 1e-12
        p_fil, p_bit, p_ph = oracles.pair_weights(rho)[:3]
        assert abs(p_fil - 0.25) < 1e-12
        assert abs(p_bit) < 1e-12 and abs(p_ph) < 1e-12


@pytest.mark.parametrize("protocol,nu", [("four-state", 1), ("four-state", 3),
                                         ("six-state", 2)])
def test_conditional_state_is_psd_with_bounded_trace(protocol, nu):
    for _ in range(60):
        rho = attack_forms.conditional_pair_state(
            random_attack(nu, contraction=True), protocol)
        assert qmath.is_hermitian(rho)
        assert qmath.min_eigenvalue(rho) >= -1e-12
        assert -1e-12 <= np.trace(rho).real <= 1.0


def test_event_weights_partition_trace():
    rho = attack_forms.conditional_pair_state(random_attack(2), "four-state")
    w = oracles.pair_weights(rho)
    assert abs(w[3:].sum() - np.trace(rho).real) < 1e-10
    p_fil, p_bit, p_ph = w[:3]
    assert p_bit <= p_fil + 1e-12 and p_ph <= p_fil + 1e-12


def dicke_weights(m: np.ndarray, protocol: str) -> np.ndarray:
    return oracles.pair_weights(attack_forms.conditional_pair_state(m, protocol))


def test_weights_are_homogeneous_degree_two():
    a = random_attack(2)
    scaled = (0.5 - 0.25j) * a
    w = dicke_weights(a, "four-state")
    ws = dicke_weights(scaled, "four-state")
    assert np.abs(ws - abs(0.5 - 0.25j) ** 2 * w).max() < 1e-12


@pytest.mark.parametrize("protocol", sargkit.PROTOCOLS)
def test_sift_average_is_rotation_covariant(protocol):
    # Twisting the attack by any group element, M -> U_h^dag M Sym^nu(U_h)
    # with Sym^nu(U) = P^T U^{(x)nu} P, permutes the sift sum (closure) and
    # leaves every event weight fixed.
    nu = 2
    p = oracles.dicke_isometry(nu)
    a = random_attack(nu)
    w = dicke_weights(a, protocol)
    for h in qmath.constants(protocol):
        sym_h = p.T @ oracles.tensor_power(h, nu) @ p
        wt = dicke_weights(qmath.dagger(h) @ a @ sym_h, protocol)
        assert np.abs(wt - w).max() < 1e-12


def test_tensor_power_edge_cases():
    assert oracles.tensor_power(qmath.I2, 0).shape == (1, 1)
    assert oracles.tensor_power(qmath.I2, 3).shape == (8, 8)
    with pytest.raises(ValueError):
        oracles.tensor_power(qmath.I2, -1)


# ---------------------------------------------------------------------------
# Compiled forms
# ---------------------------------------------------------------------------

def direct_forms(protocol: str, nu: int) -> dict[str, np.ndarray]:
    """Independent assembly of every event form as (1/|G|) sum_g L_g^dag W L_g.

    L_g maps Dicke attack coordinates to the unnormalized pair vector for one
    sift term; built column by column from basis attacks, each lifted to the
    full map E P^T and pushed through U_g^{(x)nu}.
    """
    dim = 2 * (nu + 1)
    p = oracles.dicke_isometry(nu)
    bells = qmath.BELL_PROJECTORS
    weights = {
        "fil": np.eye(4, dtype=complex),
        "bit": bells["chi1+"] + bells["chi1-"],
        "ph": bells["chi0-"] + bells["chi1-"],
        **{"bell:%s" % tag: bells[tag] for tag in qmath.BELL_TAGS},
    }
    columns = []
    for i in range(dim):
        e = np.zeros(dim, dtype=complex)
        e[i] = 1.0
        columns.append(oracles.full_pair_vectors(e.reshape(2, nu + 1) @ p.T,
                                                 protocol))
    lgs = [np.stack(col, axis=1) for col in zip(*columns)]
    return {tag: sum(qmath.dagger(lg) @ w @ lg for lg in lgs) / len(lgs)
            for tag, w in weights.items()}


@pytest.mark.parametrize("protocol,nu", [("four-state", 1), ("four-state", 2),
                                         ("four-state", 3), ("six-state", 1),
                                         ("six-state", 2)])
def test_polarized_forms_match_direct_assembly(protocol, nu):
    forms = attack_forms.all_forms(protocol, nu)
    direct = direct_forms(protocol, nu)
    assert tuple(forms) == attack_forms.EVENT_TAGS
    for tag, form in forms.items():
        assert form.matrix.shape == (2 * (nu + 1),) * 2
        assert np.abs(form.matrix - direct[tag]).max() < 1e-10


@pytest.mark.parametrize("protocol", sargkit.PROTOCOLS)
def test_single_photon_forms_are_repr_equal_to_the_full_assembly(protocol):
    # At nu = 1 the Dicke coordinates are the qubit coordinates, and the
    # assembly makes the same floating-point operations as the full one.
    forms = attack_forms.all_forms(protocol, 1)
    full = oracles.full_forms(protocol, 1)
    for tag in attack_forms.EVENT_TAGS:
        assert repr(forms[tag].matrix) == repr(full[tag])


@pytest.mark.parametrize("protocol,nu", [
    (protocol, nu) for protocol in sargkit.PROTOCOLS
    for nu in range(2, oracles.FULL_NU + 1)])
def test_dicke_forms_are_the_full_forms_on_the_symmetric_subspace(protocol, nu):
    # H_D = J^dag H_full J with J = I_2 (x) P embeds Dicke coordinates.
    j = np.kron(np.eye(2), oracles.dicke_isometry(nu))
    forms = attack_forms.all_forms(protocol, nu)
    full = oracles.full_forms(protocol, nu)
    for tag in attack_forms.EVENT_TAGS:
        assert np.abs(forms[tag].matrix - j.T @ full[tag] @ j).max() <= 1e-13


@pytest.mark.parametrize("protocol,nu", [
    (protocol, nu) for protocol in sargkit.PROTOCOLS
    for nu in range(1, oracles.FULL_NU + 1)])
def test_full_map_weights_equal_dicke_weights_of_m_p(protocol, nu):
    # An arbitrary map M on all 2^nu inputs acts on the signals only through
    # its restriction M P to Sym^nu.
    forms = attack_forms.all_forms(protocol, nu)
    p = oracles.dicke_isometry(nu)
    for _ in range(10):
        m = RNG.normal(size=(2, 2 ** nu)) + 1j * RNG.normal(size=(2, 2 ** nu))
        w = oracles.weight_vector(m, protocol)
        for k, tag in enumerate(attack_forms.EVENT_TAGS):
            assert abs(form_weight(forms[tag], m @ p) - w[k]) <= 1e-12 * max(1.0, abs(w[k]))


@pytest.mark.parametrize("protocol,nu", [
    (protocol, nu) for protocol in sargkit.PROTOCOLS
    for nu in range(1, attack_forms.MAX_NU + 1)])
def test_forms_reproduce_weights_on_random_attacks(protocol, nu):
    forms = attack_forms.all_forms(protocol, nu)
    for _ in range(40):
        a = random_attack(nu)
        w = dicke_weights(a, protocol)
        for k, tag in enumerate(attack_forms.EVENT_TAGS):
            assert abs(form_weight(forms[tag], a) - w[k]) <= 1e-12 * max(1.0, abs(w[k]))


@pytest.mark.parametrize("protocol,nu", [("four-state", 1), ("four-state", 2),
                                         ("six-state", 2)])
def test_forms_hermitian_and_psd(protocol, nu):
    for form in attack_forms.all_forms(protocol, nu).values():
        assert qmath.is_hermitian(form.matrix)
        assert qmath.min_eigenvalue(form.matrix) >= -bounds.IDENTITY_TOL


def test_form_matrix_lookup_and_validation():
    f = oracles.form_matrix("bit", "four-state", 2)
    assert f is attack_forms.all_forms("four-state", 2)["bit"]
    with pytest.raises(ValueError):
        oracles.form_matrix("oops", "four-state", 2)
    with pytest.raises(ValueError):
        attack_forms.all_forms("four-state", attack_forms.MAX_NU + 1)
    with pytest.raises(ValueError):
        attack_forms.all_forms("three-state", 1)


@pytest.mark.parametrize("protocol", sargkit.RECORD_TAGS)
def test_every_no_key_window_fits_under_max_nu(protocol):
    # The window nu = K-1 .. K-2+P that constants-check reads has forms at
    # every tag, and MAX_NU is the end of the widest one (six-state's 12).
    table = qmath.signal_kets(protocol)
    end = len(table.kets) - 2 + table.period
    assert end <= attack_forms.MAX_NU == 12
    attack_forms.all_forms(protocol, end)


@pytest.mark.parametrize("protocol", sargkit.PROTOCOLS)
def test_cached_arrays_are_read_only(protocol):
    # Every array a cache hands out is shared by all its callers.
    forms = attack_forms.all_forms(protocol, 2)
    shared = [*qmath.constants(protocol), *(f.matrix for f in forms.values()),
              *bounds._range_map(protocol, 2)]
    for a in shared:
        with pytest.raises(ValueError):
            a[0, 0] = 0.0
    with pytest.raises(TypeError):
        forms["bit"] = forms["ph"]


def test_weight_linearity_over_kraus_branches():
    # Event probabilities of a channel are sums over Kraus branches; the
    # quadratic form evaluates each branch independently, so the total is
    # branch-order independent.
    forms = attack_forms.all_forms("four-state", 2)
    branches = [random_attack(2, contraction=True) for _ in range(3)]
    total = {tag: sum(form_weight(forms[tag], b) for b in branches)
             for tag in attack_forms.EVENT_TAGS}
    total_rev = {tag: sum(form_weight(forms[tag], b) for b in reversed(branches))
                 for tag in attack_forms.EVENT_TAGS}
    for tag in attack_forms.EVENT_TAGS:
        assert abs(total[tag] - total_rev[tag]) < 1e-12
