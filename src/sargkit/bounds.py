"""Certificates for error-rate inequalities and the tight bound frontier.

Every claim of the shape  x*p_bit + y*p_fil >= p_ph  (for all attacks) is a
positive-semidefiniteness statement about the Hermitian matrix

    x*H_bit + y*H_fil - H_ph

over the attack coordinates, so it is verified exactly by one smallest-
eigenvalue computation instead of a search over attacks.  The frontier
``y_star(x)`` is the least filter coefficient that keeps the matrix PSD;
it exists in [0, 1] because p_ph <= p_fil pointwise.  The same inequality
makes H_bit and H_ph vanish on the kernel of H_fil, so on R = range(H_fil)

    y_star(x) = max(0, lambda_max(F^-1/2 R^dag (H_ph - x*H_bit) R F^-1/2)),

with F the diagonal of nonzero eigenvalues of H_fil, each point certified by
its PSD margin.  y_star is clipped only at 0, so a value above 1 (p_ph <=
p_fil failing) shows instead of being hidden.  frontier_table takes any
sequence of x in [0, inf) (a tuple, a list or an array), reads every y_star
off the pencil's blocks in closed form and certifies them with one stacked
eigen-solve of the margins; frontier is its one-point case.  No table is
cached.

The reduced pencil (A, B) splits into blocks of side 1 or 2 (``pencil_blocks``;
K. Gatermann and P. A. Parrilo, J. Pure Appl. Algebra 192, 95 (2004)): each
eigenvector of one fixed combination of A and B grown into the smallest
subspace that A and B keep, certified by the off-block residual.  A
block's lambda_max(A_k - x*B_k) is a line or a curve, so y_star is their
maximum and 0 in closed form (keyrate.envelope).  At SARG04's nu <= 4 and
over the no-key window nu = K-1 .. K-2+P (six-state nu = 5..12) the distinct
pieces are keyrate.PIECES (``piece_table_check``), whose four-state nu=2
curve is the paper's g(x); ``g_of_x`` reads g off that exact row.  The
blocks are the one split of the reduced forms.

One rule cuts both kernels (``_kernel_split``), on a spectrum: H_fil's, from
its one cached solve (``_range_map``), and B's, from the blocks' beta -+
sqrt(gamma) and from B's own solve.  The cut is RANK_TOL of the largest
eigenvalue, with none below -cut or within six decades above it.

y_star never increases with x, so its infimum, the zero-error floor, is the
limit x -> infinity (``zero_rate_check``): lambda_max of A compressed onto
ker B, two solves and no block split, so a key whose pencil has blocks of
side 3 (BB84 nu=2, the original six-state nu=4) has its floor too.

The four Bell forms, reduced to the block coordinates (``_range_map`` times
PencilBlocks.basis), commute at four-state nu=1, six-state nu=1, 2 and
nu=1 of BB84 and the original six-state protocol.
There ``bell_vertex_check`` proves that the Bell vectors of the basis are
keyrate.BELL_VERTICES, the polytope of keyrate's Bell-vertex rate rule.

Every event form has ||H_event||_2 <= 1, because v^dag H_event v <=
trace(rho) <= ||M||_op^2 <= ||v||^2.  So the absolute PSD_TOL and
IDENTITY_TOL (which also bounds the event forms' own PSD check) equal their
relative forms (tol * max(1, ||H||)) on the forms themselves; only the
x * H_bit term of a margin grows.
A symmetric eigensolver returns the eigenvalues of a matrix within
n * eps * ||M||_2 of the exact ones (n the side), and ||M||_2 <= x * ||H_bit||_2
+ 2 on a margin's matrix, so a frontier margin is certified at PSD_TOL +
n * eps * x * ||H_bit||_2.
"""

from __future__ import annotations

import decimal
import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import attack_forms, keyrate, qmath

# Verification grid: 41 points covering [0, 10] at step 0.25, the two
# operating points quoted for the two-photon bound, and a large-x probe.
DEFAULT_X_GRID = tuple(
    sorted(set([0.25 * k for k in range(41)] + [2.485, 2.747, 1000.0]))
)

PSD_TOL = 1e-9
IDENTITY_TOL = 1e-10
# Eigenvalues of H_fil (and of the reduced H_bit) at or below this fraction
# of the largest span the kernel (``_kernel_split``).
RANK_TOL = 1e-12
# The weight of B in the combination A + BLOCK_WEIGHT*B whose eigenvectors
# pencil_blocks grows into blocks: generic, so that no two inequivalent
# blocks share an eigenvalue at any supported (protocol, nu).
BLOCK_WEIGHT = math.sqrt(2.0)


def _forms(protocol: str, nu: int):
    f = attack_forms.all_forms(protocol, nu)
    return f["bit"].matrix, f["fil"].matrix, f["ph"].matrix


def psd_margin(x, y, protocol: str, nu: int):
    """Smallest eigenvalue of x*H_bit + y*H_fil - H_ph.

    A nonnegative value certifies x*p_bit + y*p_fil >= p_ph for every attack
    map (hence, per sifted conclusive pair, for arbitrary joint attacks).
    x and y broadcast against each other: a float for two scalars, else an
    array of margins from one stacked eigen-solve.
    """
    h_bit, h_fil, h_ph = _forms(protocol, nu)
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float),
                               np.asarray(y, dtype=float))
    # Summed in place: on a grid this stack is the largest array a command
    # makes, so every temporary saved lowers its peak memory.
    m = x[..., None, None] * h_bit
    m += y[..., None, None] * h_fil
    m -= h_ph
    return qmath.min_eigenvalue(m)


def identity_check_single(protocol: str) -> float:
    """Max-norm gap ||H_ph - 1.5*H_bit|| for nu = 1.

    Zero (within 1e-10) means the phase-error weight of every single-photon
    attack equals exactly 3/2 of its bit-error weight.
    """
    h_bit, _, h_ph = _forms(protocol, 1)
    return float(np.abs(h_ph - 1.5 * h_bit).max())


@lru_cache(maxsize=None)
def correlation_psd_check() -> tuple[float, float]:
    """Smallest eigenvalues of the two single-photon correlation inequalities.

    Returns (lambda_min(H_chi0- - 2*H_chi1+), lambda_min(2*H_chi1- - H_chi0-))
    for the four-state protocol at nu = 1; both nonnegative (within 1e-10)
    means every attack satisfies <chi0-> >= 2<chi1+> and 2<chi1-> >= <chi0->.
    Computed once per process: the two verify rows read one cached pair.
    """
    forms = attack_forms.all_forms("four-state", 1)
    h0m = forms["bell:chi0-"].matrix
    h1p = forms["bell:chi1+"].matrix
    h1m = forms["bell:chi1-"].matrix
    return (
        qmath.min_eigenvalue(h0m - 2.0 * h1p),
        qmath.min_eigenvalue(2.0 * h1m - h0m),
    )


def g_of_x(x: float) -> float:
    """The paper's two-photon bound g(x) = (3 - 2x + sqrt(6 - 6*sqrt(2)*x +
    4x^2))/6, correctly rounded: the envelope of the four-state nu=2 row of
    keyrate.EXACT_PIECES (its one curve is g, its line 1/2 - x/2 below g) at
    the exact x in keyrate's 40-digit context whatever the caller's, rounded
    once.  g decreases to sin^2(pi/8), that row's floor."""
    if not 0.0 <= x < math.inf:
        raise ValueError("g_of_x requires 0 <= x < inf, got x=%r" % float(x))
    return float(keyrate.envelope(keyrate.EXACT_PIECES["four-state", 2],
                                  decimal.Decimal(x)))


def _kernel_split(w: np.ndarray, name: str) -> float:
    """The kernel cut RANK_TOL * lambda_max of a PSD form's eigenvalues w,
    in any order: the eigenvalues at or below it span the kernel.

    Raises ArithmeticError when the cut is not clean: an eigenvalue below
    -cut (the form is not PSD) or within six decades above the cut, where
    roundoff could move it across.
    """
    top = float(np.max(w))
    cut = RANK_TOL * top
    unclear = (w < -cut) | ((w > cut) & (w < math.sqrt(RANK_TOL) * top))
    if unclear.any():
        raise ArithmeticError("%s eigenvalue %.3e is not clear of the kernel "
                              "cut %.3e" % (name, w[unclear][0], cut))
    return cut


@lru_cache(maxsize=None)
def _range_map(protocol: str, nu: int) -> tuple[np.ndarray, np.ndarray]:
    """(w, R F^-1/2) from the one checked solve of H_fil, cached read-only:
    its eigenvalues w and the one reduction of the forms to range(H_fil),
    R the eigenvectors above the kernel cut and F their eigenvalues.

    Raises ArithmeticError when the cut is not clean, or when H_bit or H_ph
    does not vanish on the kernel of H_fil to within the cut, since the
    reduction would then drop part of a margin.  Every Bell form vanishes
    there too: chi1+ and chi1- lie between 0 and H_bit, chi0- between 0 and
    H_ph, and chi0+ is H_fil minus the other three.
    """
    h_bit, h_fil, h_ph = _forms(protocol, nu)
    w, v = qmath.eigh_checked(h_fil)
    cut = _kernel_split(w, "H_fil")
    keep = w > cut
    leak = max(float(np.linalg.norm(h @ v[:, ~keep], 2)) for h in (h_bit, h_ph))
    if leak > cut:
        raise ArithmeticError("event forms leak %.3e onto the kernel of H_fil "
                              "(rank cut %.3e)" % (leak, cut))
    return qmath.read_only(w), qmath.read_only(v[:, keep] / np.sqrt(w[keep]))


def _reduce(r: np.ndarray, h: np.ndarray) -> np.ndarray:
    """The Hermitian part of r^dag h r."""
    m = qmath.dagger(r) @ h @ r
    return 0.5 * (m + qmath.dagger(m))


def _reduced_pencil(protocol: str, nu: int) -> tuple[np.ndarray, np.ndarray]:
    """(A, B) = F^-1/2 R^dag (H_ph, H_bit) R F^-1/2 on R = range(H_fil), read
    off the cached H_fil solve (``_range_map``); not cached itself."""
    r = _range_map(protocol, nu)[1]
    h_bit, _, h_ph = _forms(protocol, nu)
    return _reduce(r, h_ph), _reduce(r, h_bit)


def bell_vertex_check(protocol: str, nu: int) -> float:
    """The gap between the compiled forms and the row's keyrate.BELL_VERTICES.

    The Bell forms X_t are reduced to the block coordinates u = ``_range_map``
    times PencilBlocks.basis.  With blocks of side 1, the columns of u are
    joint eigenvectors of A and B, sums of Bell forms; the vertices have
    distinct bit weights, so where the forms commute the columns are their
    joint eigenvectors, and the Bell vectors (u^dag X_t u)_t span the Bell
    polytope.  Returns the larger of the reduced Bell forms' largest
    off-diagonal entry and the max-norm Hausdorff distance between those
    Bell vectors and the table's vertices: within IDENTITY_TOL the table is
    the polytope.
    """
    u = _range_map(protocol, nu)[1] @ pencil_blocks(protocol, nu).basis
    forms = attack_forms.all_forms(protocol, nu)
    d = np.stack([_reduce(u, forms["bell:" + tag].matrix)
                  for tag in qmath.BELL_TAGS])
    off_diagonal = ~np.eye(d.shape[-1], dtype=bool)
    chis = np.diagonal(d, axis1=-2, axis2=-1).real.T
    return max(float(np.abs(d[:, off_diagonal]).max(initial=0.0)),
               _hausdorff(chis, keyrate.BELL_VERTICES[protocol, nu]))


def _hausdorff(a, b) -> float:
    """The max-norm Hausdorff distance between the rows of a and of b."""
    gaps = np.abs(np.asarray(a)[:, None, :] - np.asarray(b)).max(axis=-1)
    return float(max(gaps.min(axis=1).max(), gaps.min(axis=0).max()))


class PencilBlocks(NamedTuple):
    """The reduced pencil of one (protocol, nu) split into blocks.

    ``basis`` is the read-only unitary whose columns, in block order, are the
    block coordinates of range(H_fil); ``blocks`` holds each block's
    read-only (A_k, B_k), of side 1 or 2;
    ``pieces`` (one row per block) the closed form of its lambda_max(A_k -
    x*B_k), alpha - beta*x + sqrt(gamma*x^2 - 2*delta*x + epsilon), as
    (alpha, beta, gamma, delta, epsilon, gamma - beta^2), a line where gamma
    is 0; ``residual`` the largest entry of A or B outside the blocks.
    """

    basis: np.ndarray
    blocks: tuple[tuple[np.ndarray, np.ndarray], ...]
    pieces: np.ndarray
    residual: float


def _piece(a: np.ndarray, b: np.ndarray) -> tuple[float, ...]:
    """The closed-form coefficients of lambda_max(a - x*b) for a block of side
    1 or 2: alpha and beta the mean eigenvalues of a and b, and gamma, delta,
    epsilon half the inner products <b0, b0>, <a0, b0>, <a0, a0> of their
    traceless parts, so that sqrt(q) is the half gap of a - x*b."""
    side = a.shape[0]
    alpha, beta = (np.trace(m).real / side for m in (a, b))
    a0, b0 = a - alpha * np.eye(side), b - beta * np.eye(side)
    gamma, delta, epsilon = (0.5 * np.vdot(u, v).real
                             for u, v in ((b0, b0), (a0, b0), (a0, a0)))
    return alpha, beta, gamma, delta, epsilon, gamma - beta * beta


@lru_cache(maxsize=None)
def pencil_blocks(protocol: str, nu: int) -> PencilBlocks:
    """The reduced pencil (A, B) (``_reduced_pencil``) split into blocks of
    side 1 or 2, cached per (protocol, nu).

    Each eigenvector u of the fixed combination A + BLOCK_WEIGHT*B, taken in
    order and orthogonal to the blocks found before it, spans a block with
    the larger of the residuals A u - (u^dag A u) u and B u - (u^dag B u) u
    when that exceeds sqrt(RANK_TOL) of ||A + BLOCK_WEIGHT*B||_2, and alone
    otherwise: an eigenvector of a generic element lies in one block of the
    algebra that A and B generate.  Raises ArithmeticError when an entry of A
    or B outside the blocks exceeds IDENTITY_TOL.
    """
    a, b = _reduced_pencil(protocol, nu)
    w, v = qmath.eigh_checked(a + BLOCK_WEIGHT * b)
    cut = math.sqrt(RANK_TOL) * np.abs(w).max()
    cols: list[np.ndarray] = []
    groups: list[slice] = []  # each block's columns
    for u in v.T:
        u = u - sum((np.vdot(c, u) * c for c in cols), np.zeros_like(u))
        norm = np.linalg.norm(u)
        if norm < 0.5:  # inside a block found before
            continue
        u = u / norm
        r, norm = max(((r, np.linalg.norm(r)) for r in
                       (m @ u - np.vdot(u, m @ u) * u for m in (a, b))),
                      key=lambda pair: pair[1])
        side = 2 if norm > cut else 1
        groups.append(slice(len(cols), len(cols) + side))
        cols += [u] + ([r / norm] if side == 2 else [])
    u = np.stack(cols, axis=1)
    split = [qmath.read_only(_reduce(u, m)) for m in (a, b)]
    # Each reduced matrix is exactly Hermitian, so the entries right of the
    # blocks are, in magnitude, all those outside them.
    residual = max(float(np.abs(m[g, g.stop:]).max(initial=0.0))
                   for m in split for g in groups)
    if len(cols) != a.shape[0] or not residual <= IDENTITY_TOL:
        raise ArithmeticError("%s nu=%d pencil block residual %.3e exceeds "
                              "%g" % (protocol, nu, residual, IDENTITY_TOL))
    blocks = tuple(tuple(m[g, g] for m in split) for g in groups)
    pieces = np.array([_piece(*blk) for blk in blocks])
    # B_k's eigenvalues beta -+ sqrt(gamma) are cut by the rule that cuts
    # H_fil's (_kernel_split): a block whose lambda_min(B_k) is at or below
    # the cut is singular, so its curve keeps a finite limit (gamma - beta^2
    # = 0) and its line is flat (beta = 0); a block with A_k that small too
    # is the zero piece.
    alpha, beta, gamma, _, epsilon, _ = pieces.T
    low_b, size_b = beta - np.sqrt(gamma), beta + np.sqrt(gamma)
    cut = _kernel_split(np.concatenate([low_b, size_b]), "reduced H_bit")
    singular = low_b <= cut
    pieces[singular & (gamma == 0.0), 1] = 0.0
    pieces[singular, 5] = 0.0
    size_a = np.abs(alpha) + np.sqrt(epsilon)
    pieces[(size_a <= RANK_TOL * size_a.max()) & (size_b <= cut)] = 0.0
    return PencilBlocks(qmath.read_only(u), blocks, qmath.read_only(pieces),
                        residual)


def frontier(x: float, protocol: str, nu: int) -> float:
    """y_star(x), the minimal y with x*H_bit + y*H_fil - H_ph PSD: the
    one-point case of frontier_table, raising on the same x and margins."""
    return frontier_table(protocol, nu, (x,))[0]


def frontier_table(protocol: str, nu: int, grid) -> tuple[float, ...]:
    """y_star for every x of the grid (any 1-D sequence: a tuple, a list or
    an array), in the grid's own order, repeats included; nothing is cached.

    Every y_star is the closed form of the pencil's blocks (``pencil_blocks``,
    read by keyrate.envelope), clipped only at 0 (a clipped 0 is +0.0); one
    stacked psd_margin then certifies them.  Raises ValueError naming the
    first x outside [0, inf), and ArithmeticError naming the least x whose
    margin is below -(PSD_TOL + n*eps*x*||H_bit||_2), the roundoff of a
    side-n eigen-solve of the margin's matrix.
    """
    x = np.asarray(grid, dtype=float)
    outside = np.flatnonzero(~((x >= 0.0) & (x < math.inf)))
    if outside.size:
        raise ValueError("frontier requires 0 <= x < inf, got x=%r"
                         % float(x[outside[0]]))
    h_bit = _forms(protocol, nu)[0]
    pieces = pencil_blocks(protocol, nu).pieces.tolist()
    ys = [keyrate.envelope(pieces, xi) for xi in x.tolist()]
    margins = psd_margin(x, ys, protocol, nu)
    roundoff = h_bit.shape[0] * np.finfo(float).eps * np.linalg.norm(h_bit, 2)
    bad = np.flatnonzero(margins < -(PSD_TOL + roundoff * x))
    if bad.size:
        i = bad[np.argmin(x[bad])]
        raise ArithmeticError("frontier point x=%g y=%.17g has margin %.3e"
                              % (x[i], ys[i], margins[i]))
    return tuple(ys)


def piece_table_check(protocol: str, nu: int) -> float:
    """The gap between the compiled forms and the row's keyrate.PIECES: the
    larger of the blocks' residual and the Hausdorff distance between the
    blocks' pieces and the table's.  Within IDENTITY_TOL y_star is the
    maximum of 0 and the table row."""
    blocks = pencil_blocks(protocol, nu)
    return max(blocks.residual,
               _hausdorff(blocks.pieces, keyrate.PIECES[protocol, nu]))


@lru_cache(maxsize=None)
def zero_rate_check(protocol: str, nu: int) -> float:
    """The zero-error floor inf_x y_star(x), clipped only at 0, like y_star,
    so a floor above 1 (p_ph <= p_fil failing) shows; cached per (protocol,
    nu), so that the rows that read one floor share its two solves.

    At zero bit error the certified phase-error bound is exactly this floor;
    a value >= 1/2 means no key can be certified (consistent with the
    unambiguous-discrimination limit), while a value < 1/2 leaves room for a
    positive rate.  y_star(x) is lambda_max(A - x*B) with B PSD, so as x ->
    inf it tends to lambda_max of A compressed onto ker B: one checked solve
    of B, whose kernel ``_kernel_split`` cuts (raising ArithmeticError on an
    unclear cut), and one of the compression; 0 when B has no kernel.  No
    grid and no block split is read, so every key with forms has a floor.
    """
    a, b = _reduced_pencil(protocol, nu)
    w, v = qmath.eigh_checked(b)
    kernel = v[:, w <= _kernel_split(w, "reduced H_bit")]
    if not kernel.shape[1]:
        return 0.0
    return max(0.0, float(qmath.eigh_checked(_reduce(kernel, a))[0][-1]))
