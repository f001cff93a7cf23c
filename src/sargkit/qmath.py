"""Dense complex linear algebra and the named states/operators of the protocols.

Everything lives in small Hilbert spaces (dims 2..64) and is represented by
plain numpy arrays in a single fixed convention:

* the computational basis is the Z product basis, ordered lexicographically,
  with Alice's qubit first, Bob's kept qubit next, then any trash qubits;
* the X basis is pinned concretely (``ket_x(0)``, ``ket_x(1)``) and the Z
  basis is derived from it, so that the Z kets come out as the coordinate
  basis (1,0), (0,1).

The sift rotations of each protocol are built once and returned as a cached
tuple of unitaries; every function here is pure.

Every eigen-solve goes through one checked routine, ``eigh_checked``, on one
matrix or a stack; ``min_eigenvalue`` reads its lowest column.  The check is
relative to the matrix norm: the reconstruction residual max|V diag(lambda)
V^dagger - H| may be at most ``EIGEN_RESIDUAL_TOL * max(1, ||H||_2)``, with
||H||_2 = max |lambda| read off the solve itself.  Below norm 1 the bound is
the absolute 1e-9.  The Hermitian view that precedes a solve scales the same
way, per stack member: max|H - H^dagger| may be at most ``STRUCTURAL_TOL *
max(1, max|H|)``.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

SIN_PI_8 = math.sin(math.pi / 8)
COS_PI_8 = math.cos(math.pi / 8)

PROTOCOLS = ("four-state", "six-state")

I2 = np.eye(2, dtype=complex)

# Tolerance for exact structural identities (double precision headroom on
# dims <= 64), and for eigen-decomposition residuals per unit of ||H||_2.
STRUCTURAL_TOL = 1e-12
EIGEN_RESIDUAL_TOL = 1e-9


def tensor_power(a: np.ndarray, n: int) -> np.ndarray:
    """n-fold Kronecker power; n = 0 gives the scalar identity."""
    if n < 0:
        raise ValueError("tensor power needs n >= 0")
    out = np.array([[1.0 + 0j]]) if np.asarray(a).ndim == 2 else np.array([1.0 + 0j])
    for _ in range(n):
        out = np.kron(out, a)
    return out


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of an operator, or of each operator in a stack."""
    return np.swapaxes(np.asarray(m), -1, -2).conj()


def proj(v: np.ndarray) -> np.ndarray:
    """Rank-one projector |v><v| (not normalized if v isn't)."""
    v = np.asarray(v)
    return np.outer(v, v.conj())


def is_hermitian(h: np.ndarray, tol: float = STRUCTURAL_TOL) -> bool:
    """True for a square matrix, or a stack (..., n, n) of them, each within
    ``tol * max(1, max|H|)`` (max-norm) of its conjugate transpose."""
    h = np.asarray(h)
    if h.ndim < 2 or h.shape[-1] != h.shape[-2]:
        return False
    scale = np.maximum(1.0, np.abs(h).max(axis=(-2, -1), initial=0.0))
    dev = np.abs(h - dagger(h)).max(axis=(-2, -1), initial=0.0)
    return bool(np.all(dev <= tol * scale))  # NaN fails too


def as_hermitian(h: np.ndarray, tol: float = STRUCTURAL_TOL) -> np.ndarray:
    """Validate the Hermitian view of an operator (or a stack of operators)
    and return the symmetrized copy.

    Raises ValueError when max|H - H^dagger| exceeds ``tol * max(1, max|H|)``
    for any member.
    """
    h = np.asarray(h, dtype=complex)
    if not is_hermitian(h, tol):
        raise ValueError("operator is not Hermitian within tolerance %g "
                         "x max(1, max|H|)" % tol)
    hs = dagger(h)  # a copy; summed in place to keep a stack's peak memory low
    hs += h
    hs *= 0.5
    return hs


def eigh_checked(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hermitian eigendecomposition of one matrix (n, n) or of each member of
    a stack (..., n, n): the only checked eigen-solve.

    Every member must pass the Hermitian-view check; one ``eigh`` call solves
    them all, the same LAPACK routine per matrix, so each member's result
    equals a one-matrix call bit for bit.  Raises ArithmeticError when a
    member's reconstruction residual max|V diag(lambda) V^dagger - H| exceeds
    ``1e-9 * max(1, ||H||_2)`` (NaN fails too).
    """
    hs = as_hermitian(h)
    vals, vecs = np.linalg.eigh(hs)
    recon = (vecs * vals[..., None, :]) @ dagger(vecs)
    recon -= hs
    residual = np.abs(recon).max(axis=(-2, -1), initial=0.0)
    norm = np.maximum(np.abs(vals[..., 0]), np.abs(vals[..., -1]))  # ||H||_2
    bound = EIGEN_RESIDUAL_TOL * np.maximum(1.0, norm)
    bad = np.flatnonzero(~(residual <= bound))  # NaN fails too
    if bad.size:
        raise ArithmeticError("eigendecomposition residual %.3e exceeds "
                              "tolerance" % residual.flat[bad[0]])
    return vals, vecs


def min_eigenvalue(h: np.ndarray):
    """Smallest eigenvalue of a Hermitian operator, or of each in a stack:
    the lowest column of ``eigh_checked``.  Returns a float for one matrix
    and an array of shape ``h.shape[:-2]`` for a stack."""
    lam = eigh_checked(h)[0][..., 0]
    return float(lam) if lam.ndim == 0 else lam


# ---------------------------------------------------------------------------
# Named single-qubit states and operators
# ---------------------------------------------------------------------------

def ket_x(j: int) -> np.ndarray:
    """X-basis kets, pinned so the derived Z kets are the coordinate basis."""
    if j == 0:
        return np.array([1, 1], dtype=complex) / math.sqrt(2)
    if j == 1:
        return np.array([1, -1], dtype=complex) / math.sqrt(2)
    raise ValueError("basis index must be 0 or 1")


def ket_z(j: int) -> np.ndarray:
    """Z-basis kets, (|0_x> + (-1)^j |1_x>)/sqrt(2) -> coordinate vectors."""
    return (ket_x(0) + (-1) ** j * ket_x(1)) / math.sqrt(2)


def signal_ket(j: int) -> np.ndarray:
    """B92 candidate states |phi_j> = cos(pi/8)|0_x> + (-1)^j sin(pi/8)|1_x>."""
    if j not in (0, 1):
        raise ValueError("bit index must be 0 or 1")
    return COS_PI_8 * ket_x(0) + (-1) ** j * SIN_PI_8 * ket_x(1)


def signal_perp_ket(j: int) -> np.ndarray:
    """The state orthogonal to |phi_j>; a conclusive B92 outcome."""
    if j not in (0, 1):
        raise ValueError("bit index must be 0 or 1")
    return SIN_PI_8 * ket_x(0) - (-1) ** j * COS_PI_8 * ket_x(1)


def filter_op() -> np.ndarray:
    """Bob's filtering success operator F (eigenvalues sin pi/8, cos pi/8)."""
    return SIN_PI_8 * proj(ket_x(0)) + COS_PI_8 * proj(ket_x(1))


def rotation_r() -> np.ndarray:
    """Quarter turn R about the Y axis; R|phi_1> = |phi_0> and R^4 = -I."""
    return math.cos(math.pi / 4) * I2 + math.sin(math.pi / 4) * (
        np.outer(ket_x(1), ket_x(0).conj()) - np.outer(ket_x(0), ket_x(1).conj())
    )


def twist_t() -> np.ndarray:
    """Quarter turn about the |phi_0> Bloch axis (the six-state extra rotation)."""
    return math.cos(math.pi / 4) * I2 - 1j * math.sin(math.pi / 4) * (
        proj(signal_ket(0)) - proj(signal_perp_ket(0))
    )


def bloch_vector(s: np.ndarray) -> np.ndarray:
    """Bloch 3-vector of a unit qubit ket; invariant under global phase."""
    s = np.asarray(s, dtype=complex)
    if s.shape != (2,):
        raise ValueError("bloch_vector needs a single-qubit ket")
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    return np.array([np.vdot(s, m @ s).real for m in (sx, sy, sz)])


# ---------------------------------------------------------------------------
# Bell states and pair sources
# ---------------------------------------------------------------------------

BELL_TAGS = ("chi0+", "chi0-", "chi1+", "chi1-")


def bell_ket(tag: str) -> np.ndarray:
    """Bell states chi_{0 +/-}, chi_{1 +/-} in the Z product basis."""
    z0, z1 = ket_z(0), ket_z(1)
    if tag == "chi0+":
        v = np.kron(z0, z0) + np.kron(z1, z1)
    elif tag == "chi0-":
        v = np.kron(z0, z0) - np.kron(z1, z1)
    elif tag == "chi1+":
        v = np.kron(z0, z1) + np.kron(z1, z0)
    elif tag == "chi1-":
        v = np.kron(z0, z1) - np.kron(z1, z0)
    else:
        raise ValueError("unknown Bell tag %r" % (tag,))
    return v / math.sqrt(2)


def pair_source_ket(nu: int) -> np.ndarray:
    """The entangled pair source for nu-photon pulses.

    (|0_z>_A |phi_0>^{x nu} + |1_z>_A |phi_1>^{x nu}) / sqrt(2), a unit vector
    of dimension 2^{nu+1} with Alice's qubit leading.
    """
    if nu < 1:
        raise ValueError("photon number must be >= 1")
    v = np.kron(ket_z(0), tensor_power(signal_ket(0), nu)) + np.kron(
        ket_z(1), tensor_power(signal_ket(1), nu)
    )
    return v / math.sqrt(2)


def filter_measurement_identity_check() -> float:
    """Max deviation of F|j'_z><j'_z|F^dagger from (1/2) P(phi_bar_{1-j'}).

    The index swap (j' pairs with the conclusive state orthogonal to
    |phi_{1-j'}>) is fixed by direct evaluation; the returned deviation is the
    max over j' in {0, 1} and must be < 1e-12.
    """
    f = filter_op()
    dev = 0.0
    for jp in (0, 1):
        lhs = f @ proj(ket_z(jp)) @ dagger(f)
        rhs = 0.5 * proj(signal_perp_ket(1 - jp))
        dev = max(dev, float(np.abs(lhs - rhs).max()))
    return dev


# ---------------------------------------------------------------------------
# Sift rotations
# ---------------------------------------------------------------------------

def _phase_canonical_key(u: np.ndarray, decimals: int = 9) -> tuple:
    """Canonical hashable key for a unitary modulo global phase."""
    flat = u.ravel()
    idx = int(np.argmax(np.abs(flat) > 0.3))
    pivot = flat[idx]
    v = u * (abs(pivot) / pivot)
    return tuple(np.round(v.ravel(), decimals).tolist())


def _close_under_multiplication(generators: list[np.ndarray]) -> list[np.ndarray]:
    """Multiplicative closure of the generators modulo global phase (BFS order)."""
    seen = {_phase_canonical_key(I2): I2}
    frontier = [I2]
    while frontier:
        fresh = []
        for u in frontier:
            for g in generators:
                w = g @ u
                key = _phase_canonical_key(w)
                if key not in seen:
                    seen[key] = w
                    fresh.append(w)
        frontier = fresh
        if len(seen) > 256:
            raise RuntimeError("rotation closure did not stay small; check generators")
    return list(seen.values())


@lru_cache(maxsize=None)
def bell_projectors() -> dict[str, np.ndarray]:
    """Projectors onto the four Bell states, keyed by BELL_TAGS."""
    return {tag: proj(bell_ket(tag)) for tag in BELL_TAGS}


@lru_cache(maxsize=None)
def constants(protocol: str) -> tuple[np.ndarray, ...]:
    """The sift rotations of a protocol tag, as a cached tuple of unitaries.

    The four-state tuple is the four powers of R. The six-state tuple is the
    full rotation group generated by R and the twist T (24 elements modulo
    global phase); it maps the signal pair onto a uniform six-state ensemble,
    and being closed under multiplication makes the sift average exactly
    invariant under left translation by any of its members.
    """
    if protocol not in PROTOCOLS:
        raise ValueError("protocol must be one of %s" % (PROTOCOLS,))
    r = rotation_r()
    if protocol == "four-state":
        return tuple(np.linalg.matrix_power(r, k) for k in range(4))
    return tuple(_close_under_multiplication([r, twist_t()]))


def distinct_bloch_vectors(protocol: str, tol: float = 1e-9) -> list[np.ndarray]:
    """Distinct Bloch vectors (pairwise distance > tol) of the signal
    ensemble {U_g |phi_j>} over the sift rotations and both bits."""
    vecs: list[np.ndarray] = []
    for u in constants(protocol):
        for j in (0, 1):
            b = bloch_vector(u @ signal_ket(j))
            if all(np.linalg.norm(b - c) > tol for c in vecs):
                vecs.append(b)
    return vecs
