"""Dense complex linear algebra and the named states/operators of the protocols.

Everything lives in small Hilbert spaces (dims 2..64) and is represented by
plain numpy arrays in a single fixed convention:

* the computational basis is the Z product basis, ordered lexicographically,
  with Alice's qubit first, Bob's kept qubit next, then any trash qubits;
* the X basis is pinned concretely (``KET_X``, row j the ket |j_x>) and the
  Z basis is derived from it, so that the Z kets (``KET_Z``) come out as the
  coordinate basis (1,0), (0,1).

Each named state and operator is one read-only array, computed once at
import (``PHI``, ``FILTER``, ``ROTATION``, ``TWIST``, ...).  A protocol tag
means one record in ``PROTOCOL_RECORDS`` (sift generators, Alice's kets,
Bob's filter, declared sizes), which holds those very arrays and is read
through ``protocol_record``, the one place that rejects an unknown tag.  The
sift rotations are the closure of the record's generators, cached as
read-only unitaries, and the sift kets U_g phi_a as a table of distinct kets
and phases (``signal_kets``); every function here is pure.

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
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from . import RECORD_TAGS

SIN_PI_8 = math.sin(math.pi / 8)
COS_PI_8 = math.cos(math.pi / 8)

# Tolerance for exact structural identities (double precision headroom on
# dims <= 64), and for eigen-decomposition residuals per unit of ||H||_2.
STRUCTURAL_TOL = 1e-12
EIGEN_RESIDUAL_TOL = 1e-9


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of an operator, or of each operator in a stack."""
    return np.swapaxes(np.asarray(m), -1, -2).conj()


def proj(v: np.ndarray) -> np.ndarray:
    """Rank-one projector |v><v| (not normalized if v isn't)."""
    v = np.asarray(v)
    return np.outer(v, v.conj())


def is_hermitian(h: np.ndarray) -> bool:
    """True for a square matrix, or a stack (..., n, n) of them, each within
    STRUCTURAL_TOL * max(1, max|H|) (max-norm) of its conjugate transpose."""
    h = np.asarray(h)
    if h.ndim < 2 or h.shape[-1] != h.shape[-2]:
        return False
    scale = np.maximum(1.0, np.abs(h).max(axis=(-2, -1), initial=0.0))
    dev = np.abs(h - dagger(h)).max(axis=(-2, -1), initial=0.0)
    return bool(np.all(dev <= STRUCTURAL_TOL * scale))  # NaN fails too


def as_hermitian(h: np.ndarray) -> np.ndarray:
    """Validate the Hermitian view of an operator (or a stack of operators)
    and return the symmetrized copy.

    Raises ValueError when max|H - H^dagger| exceeds
    ``STRUCTURAL_TOL * max(1, max|H|)`` for any member.
    """
    h = np.asarray(h, dtype=complex)
    if not is_hermitian(h):
        raise ValueError("operator is not Hermitian within tolerance %g "
                         "x max(1, max|H|)" % STRUCTURAL_TOL)
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


def read_only(a: np.ndarray) -> np.ndarray:
    """Mark an array that a cache shares read-only, and return it."""
    a.flags.writeable = False
    return a


def min_eigenvalue(h: np.ndarray):
    """Smallest eigenvalue of a Hermitian operator, or of each in a stack:
    the lowest column of ``eigh_checked``.  Returns a float for one matrix
    and an array of shape ``h.shape[:-2]`` for a stack."""
    lam = eigh_checked(h)[0][..., 0]
    return float(lam) if lam.ndim == 0 else lam


# ---------------------------------------------------------------------------
# Named states and operators: one read-only array each, which the protocol
# records, the event forms and constants-check all read
# ---------------------------------------------------------------------------

I2 = read_only(np.eye(2, dtype=complex))
_SIGN = np.array([[1], [-1]])  # (-1)^j, row j

# X-basis kets (rows j), pinned so the derived Z kets are the coordinate basis.
KET_X = read_only(np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2))
# Z-basis kets (|0_x> + (-1)^j |1_x>)/sqrt(2): the coordinate vectors.
KET_Z = read_only((KET_X[0] + _SIGN * KET_X[1]) / math.sqrt(2))
# B92 candidate states |phi_j> = cos(pi/8)|0_x> + (-1)^j sin(pi/8)|1_x>, and
# the states orthogonal to them, the conclusive B92 outcomes.
PHI = read_only(COS_PI_8 * KET_X[0] + _SIGN * SIN_PI_8 * KET_X[1])
PHI_BAR = read_only(SIN_PI_8 * KET_X[0] - _SIGN * COS_PI_8 * KET_X[1])
# Bob's filtering success operator F (eigenvalues sin pi/8, cos pi/8).
FILTER = read_only(SIN_PI_8 * proj(KET_X[0]) + COS_PI_8 * proj(KET_X[1]))
# Quarter turn R about the Y axis; R|phi_1> = |phi_0> and R^4 = -I.
ROTATION = read_only(math.cos(math.pi / 4) * I2 + math.sin(math.pi / 4) * (
    np.outer(KET_X[1], KET_X[0].conj()) - np.outer(KET_X[0], KET_X[1].conj())))
# Quarter turn T about the |phi_0> Bloch axis (the six-state extra rotation).
TWIST = read_only(math.cos(math.pi / 4) * I2 - 1j * math.sin(math.pi / 4) * (
    proj(PHI[0]) - proj(PHI_BAR[0])))
# H = |0_x><0_z| + |1_x><1_z| swaps the Z and X bases (BB84's sift rotation);
# S = |0_z><0_z| + i|1_z><1_z|, and S*H cycles the Z, X and Y bases (the
# original six-state protocol's).
HADAMARD = read_only(np.outer(KET_X[0], KET_Z[0].conj())
                     + np.outer(KET_X[1], KET_Z[1].conj()))
PHASE_S = read_only(proj(KET_Z[0]) + 1j * proj(KET_Z[1]))

# Bell states chi_{b s} = (|0_z>|b_z> + s |1_z>|(1-b)_z>)/sqrt(2), tag
# "chi<b><s>", in the Z product basis, and their projectors.
BELL_TAGS = ("chi0+", "chi0-", "chi1+", "chi1-")
BELL_KETS = MappingProxyType({tag: read_only((
    np.kron(KET_Z[0], KET_Z[b]) + sign * np.kron(KET_Z[1], KET_Z[1 - b]))
    / math.sqrt(2)) for tag, b, sign in zip(BELL_TAGS, (0, 0, 1, 1),
                                            (1, -1, 1, -1), strict=True)})
BELL_PROJECTORS = MappingProxyType({tag: read_only(proj(ket))
                                    for tag, ket in BELL_KETS.items()})


def pair_source_ket(protocol: str) -> np.ndarray:
    """The single-photon pair source (|0_z>_A |phi_0> + |1_z>_A |phi_1>)/sqrt(2)
    of a protocol tag, phi_a its record's ket for bit a, Alice's qubit
    leading; the sift maps build every photon number from it."""
    phi = protocol_record(protocol).signal_pair
    v = np.kron(KET_Z[0], phi[0]) + np.kron(KET_Z[1], phi[1])
    return v / math.sqrt(2)


def filter_measurement_identity_check() -> float:
    """Max deviation of F|j'_z><j'_z|F^dagger from (1/2) P(phi_bar_{1-j'}).

    The index swap (j' pairs with the conclusive state orthogonal to
    |phi_{1-j'}>) is fixed by direct evaluation; the returned deviation is the
    max over j' in {0, 1} and must be < 1e-12.
    """
    dev = 0.0
    for jp in (0, 1):
        lhs = FILTER @ proj(KET_Z[jp]) @ dagger(FILTER)
        rhs = 0.5 * proj(PHI_BAR[1 - jp])
        dev = max(dev, float(np.abs(lhs - rhs).max()))
    return dev


# ---------------------------------------------------------------------------
# Sift rotations
# ---------------------------------------------------------------------------

def _phase_canonical_key(u: np.ndarray) -> tuple:
    """Canonical hashable key (9 decimals) for a unitary, or a unit qubit
    ket, modulo global phase."""
    flat = u.ravel()
    idx = int(np.argmax(np.abs(flat) > 0.3))
    pivot = flat[idx]
    v = u * (abs(pivot) / pivot)
    return tuple(np.round(v.ravel(), 9).tolist())


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


class ProtocolRecord(NamedTuple):
    """What a protocol tag means: the generators of its sift rotations,
    Alice's ket per bit value (``signal_pair`` row a) and Bob's filter F,
    with the sizes that constants-check holds the computed structure to: the
    group order |G|, the number K of distinct sift kets up to phase and
    their phase period P (``signal_kets``).  Every array is read-only.
    """

    generators: tuple[np.ndarray, ...]
    signal_pair: np.ndarray
    filter: np.ndarray
    group_order: int
    k: int
    period: int


# SARG04 (four-state and six-state) sifts the B92 kets phi_j through Bob's
# filter; BB84 and the original six-state protocol send the Z kets, sift
# by basis (F = I) and rotate them through two and three bases.
PROTOCOL_RECORDS = MappingProxyType({
    "four-state": ProtocolRecord((ROTATION,), PHI, FILTER, 4, 4, 2),
    "six-state": ProtocolRecord((ROTATION, TWIST), PHI, FILTER, 24, 6, 8),
    "bb84": ProtocolRecord((HADAMARD,), KET_Z, I2, 2, 4, 1),
    "six-state-original": ProtocolRecord((read_only(PHASE_S @ HADAMARD),),
                                         KET_Z, I2, 3, 6, 1),
})


def protocol_record(protocol: str) -> ProtocolRecord:
    """The record of a protocol tag; raises ValueError for any other value."""
    if not (isinstance(protocol, str) and protocol in PROTOCOL_RECORDS):
        raise ValueError("protocol must be one of %s, got %r"
                         % (RECORD_TAGS, protocol))
    return PROTOCOL_RECORDS[protocol]


@lru_cache(maxsize=None)
def constants(protocol: str) -> tuple[np.ndarray, ...]:
    """The sift rotations of a protocol tag, as a cached tuple of read-only
    unitaries: the closure of its record's generators modulo global phase,
    from I in breadth-first order, so R alone gives I, R, R^2, R^3 and R with
    the twist T gives 24, a uniform six-state ensemble.  Being a group makes
    the sift average invariant under left translation by any member.
    """
    generators = list(protocol_record(protocol).generators)
    return tuple(read_only(np.stack(_close_under_multiplication(generators))))


class SignalKets(NamedTuple):
    """The sift kets of a protocol up to phase: U_g phi_a equals
    ``phases[g, a] * kets[index[g, a]]``, with g in ``constants`` order.

    ``kets`` (K, 2) holds the first U_g phi_a of each class, ``index``
    (|G|, 2) the class of each sift ket and ``phases`` (|G|, 2) its unit
    phase c against that representative.
    """

    kets: np.ndarray
    index: np.ndarray
    phases: np.ndarray

    @property
    def period(self) -> int:
        """P, the least n <= 64 with max|c^n - 1| < STRUCTURAL_TOL over every
        phase; raises ArithmeticError when there is none."""
        for n in range(1, 65):
            if np.abs(self.phases ** n - 1.0).max() < STRUCTURAL_TOL:
                return n
        raise ArithmeticError("signal phases have no period up to 64")


@lru_cache(maxsize=None)
def signal_kets(protocol: str) -> SignalKets:
    """The cached table of a protocol's sift kets: its K distinct kets up to
    phase (4 four-state, 6 six-state), keyed by ``_phase_canonical_key``,
    and each U_g phi_a's class and phase.  Every array is read-only.

    Every signal (U_g phi_a)^{(x)nu} is c^nu s_k^{(x)nu}, so an attack meets
    the forms only through the K vectors s_k^{(x)nu} and the phases c^nu.
    """
    sift = np.einsum("gij,aj->gai", np.stack(constants(protocol)),
                     protocol_record(protocol).signal_pair)  # U_g phi_a
    flat = sift.reshape(-1, 2)
    classes: dict[tuple, int] = {}
    index = [classes.setdefault(_phase_canonical_key(w), len(classes))
             for w in flat]
    kets = flat[[index.index(k) for k in range(len(classes))]]
    index = np.reshape(index, sift.shape[:2])
    phases = np.einsum("...i,...i->...", kets[index].conj(), sift)
    return SignalKets(read_only(kets), read_only(index), read_only(phases))
