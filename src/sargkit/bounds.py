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

with F the diagonal of nonzero eigenvalues of H_fil: one eigen-solve per
point, each then certified by its PSD margin.  y_star is clipped only at 0,
so a value above 1 (p_ph <= p_fil failing) shows instead of being hidden.
Both solves are batched: frontier_table takes any sequence of x in
[0, inf) (a tuple, a list or an array) and makes one stacked eigen-solve for
y_star and one for the margins, and frontier is its one-point case.  No
table is cached: each call solves its own grid.

y_star never increases with x, so its infimum, the zero-error floor, is the
limit x -> infinity.  With B = reduced H_bit PSD, v^dag (A - x*B) v = v^dag A v
for every v in ker B, while every other direction is pushed to -infinity:
the floor is lambda_max of A compressed onto ker B (0 when the kernel is
empty), one eigen-solve of B and one small lambda_max.  The phase-error
bound min_x [x*e + y_star(x)] is read off two tangents: the top eigenvector u
of A - x*B attains y_star(x) with bit and phase errors (u^dag B u, u^dag A u),
both nonincreasing in x, so x is bisected on a predicate of that point.

One rule cuts both kernels, of H_fil and of B (``_kernel_split``): at
RANK_TOL of the largest eigenvalue, with no eigenvalue below -cut or within
six decades above it.  Every eigenvalue here comes from qmath.eigh_checked.

The four Bell forms, reduced by the same R F^-1/2 (``_range_map``), commute
at four-state nu=1 and six-state nu=1, 2.  There ``bell_vertex_check`` proves
that the Bell vectors of their joint eigenvectors are keyrate.BELL_VERTICES,
the polytope that keyrate's Bell-vertex rate rule reads.

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

import math
from functools import lru_cache

import numpy as np

from . import attack_forms, keyrate, qmath

# Verification grid: 41 points covering [0, 10] at step 0.25, the two
# operating points quoted for the two-photon bound, and a large-x probe.
DEFAULT_X_GRID = tuple(
    sorted(set([0.25 * k for k in range(41)] + [2.485, 2.747, 1000.0]))
)

PSD_TOL = 1e-9
IDENTITY_TOL = 1e-10
# Slack on the frontier's shape: its gap below g(x) and its rise in x.
SHAPE_TOL = 1e-6
# Eigenvalues of H_fil (and of the reduced H_bit) at or below this fraction
# of the largest span the kernel.
RANK_TOL = 1e-12
# The tangent x range; y_star's roundoff n*eps*x*||B||_2 at the cap is 1e-9.
TANGENT_X_CAP = 2.0 ** 20
# The combination of the reduced Bell forms, in qmath.BELL_TAGS order, whose
# eigenbasis bell_vertex_check reads: the vertices of four-state nu=1 land on
# eigenvalues 0, 2, 3, those of six-state nu=1 on 0, 2.43, nu=2 on 0.146, 2.389.
BELL_WEIGHTS = (0.0, 1.0, 2.0, 4.0)


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
    """The two-photon bound curve g(x) = (3 - 2x + sqrt(6 - 6*sqrt(2)*x + 4x^2))/6.

    The discriminant has minimum value 3/2 (at x = 3*sqrt(2)/4), so the square
    root never branches; g decreases monotonically to sin^2(pi/8) as x grows.
    """
    if not 0.0 <= x < math.inf:
        raise ValueError("g_of_x requires 0 <= x < inf, got x=%r" % float(x))
    disc = 6.0 - 6.0 * math.sqrt(2.0) * x + 4.0 * x * x
    return (3.0 - 2.0 * x + math.sqrt(disc)) / 6.0


def _kernel_split(h: np.ndarray, name: str) -> tuple:
    """(w, v, cut): the checked eigen-solve of a PSD form and its kernel cut
    RANK_TOL * lambda_max; the columns of v with w <= cut span the kernel.

    Raises ArithmeticError when the cut is not clean: an eigenvalue below
    -cut (the form is not PSD) or within six decades above the cut, where
    roundoff could move it across.
    """
    w, v = qmath.eigh_checked(h)
    cut = RANK_TOL * w[-1]
    unclear = (w < -cut) | ((w > cut) & (w < math.sqrt(RANK_TOL) * w[-1]))
    if unclear.any():
        raise ArithmeticError("%s eigenvalue %.3e is not clear of the kernel "
                              "cut %.3e" % (name, w[unclear][0], cut))
    return w, v, cut


def _range_map(protocol: str, nu: int) -> np.ndarray:
    """R F^-1/2, with R the eigenvectors of H_fil above the kernel cut and F
    their eigenvalues: the one reduction of the forms to range(H_fil).

    Raises ArithmeticError when the cut is not clean, or when H_bit or H_ph
    does not vanish on the kernel of H_fil to within the cut, since the
    reduction would then drop part of a margin.  Every Bell form vanishes
    there too: chi1+ and chi1- lie between 0 and H_bit, chi0- between 0 and
    H_ph, and chi0+ is H_fil minus the other three.
    """
    h_bit, h_fil, h_ph = _forms(protocol, nu)
    w, v, cut = _kernel_split(h_fil, "H_fil")
    keep = w > cut
    leak = max(float(np.linalg.norm(h @ v[:, ~keep], 2)) for h in (h_bit, h_ph))
    if leak > cut:
        raise ArithmeticError("event forms leak %.3e onto the kernel of H_fil "
                              "(rank cut %.3e)" % (leak, cut))
    return v[:, keep] / np.sqrt(w[keep])


def _reduce(r: np.ndarray, h: np.ndarray) -> np.ndarray:
    """The Hermitian part of r^dag h r."""
    m = qmath.dagger(r) @ h @ r
    return 0.5 * (m + qmath.dagger(m))


@lru_cache(maxsize=None)
def _reduced_pencil(protocol: str, nu: int) -> tuple[np.ndarray, np.ndarray]:
    """(A, B) = F^-1/2 R^dag (H_ph, H_bit) R F^-1/2 on R = range(H_fil)
    (``_range_map``), cached per (protocol, nu) as two read-only arrays."""
    r = _range_map(protocol, nu)
    h_bit, _, h_ph = _forms(protocol, nu)
    return qmath.read_only(_reduce(r, h_ph)), qmath.read_only(_reduce(r, h_bit))


def _reduced_bell_forms(protocol: str, nu: int) -> np.ndarray:
    """The four Bell forms, in qmath.BELL_TAGS order, reduced like the pencil:
    a stack of shape (4, n, n) that sums to the identity."""
    r = _range_map(protocol, nu)
    forms = attack_forms.all_forms(protocol, nu)
    return np.stack([_reduce(r, forms["bell:" + tag].matrix)
                     for tag in qmath.BELL_TAGS])


def bell_vertex_check(protocol: str, nu: int) -> float:
    """The gap between the compiled forms and the row's keyrate.BELL_VERTICES.

    The eigenvectors u of one fixed combination of the reduced Bell forms
    (weights BELL_WEIGHTS, which put distinct vertices on distinct
    eigenvalues) are the forms' joint eigenvectors when the forms commute;
    their Bell vectors (u^dag X_t u)_t then span the pair's Bell polytope.
    Returns the larger of the reduced Bell forms' largest off-diagonal entry
    in that basis and the max-norm Hausdorff distance between those Bell
    vectors and the table's vertices: within IDENTITY_TOL the table is the
    polytope.
    """
    x = _reduced_bell_forms(protocol, nu)
    u = qmath.eigh_checked(np.tensordot(BELL_WEIGHTS, x, 1))[1]
    d = qmath.dagger(u) @ x @ u
    off_diagonal = ~np.eye(d.shape[-1], dtype=bool)
    chis = np.diagonal(d, axis1=-2, axis2=-1).real.T
    gaps = np.abs(chis[:, None, :]
                  - np.array(keyrate.BELL_VERTICES[protocol, nu])).max(axis=-1)
    return float(max(np.abs(d[:, off_diagonal]).max(initial=0.0),
                     gaps.min(axis=1).max(), gaps.min(axis=0).max()))


def frontier(x: float, protocol: str, nu: int) -> float:
    """y_star(x), the minimal y with x*H_bit + y*H_fil - H_ph PSD: the
    one-point case of frontier_table, raising on the same x and margins."""
    return frontier_table(protocol, nu, (x,))[0]


def frontier_table(protocol: str, nu: int, grid) -> tuple[float, ...]:
    """y_star for every x of the grid (any 1-D sequence: a tuple, a list or
    an array), in the grid's own order, repeats included; nothing is cached.

    One stacked eigen-solve on the reduced pencil gives every y_star, clipped
    only at 0 (a clipped 0 is +0.0); one stacked psd_margin then certifies
    them.  Raises ValueError naming the first x outside [0, inf), and
    ArithmeticError naming the least x whose margin is below
    -(PSD_TOL + n*eps*x*||H_bit||_2), the roundoff of a side-n eigen-solve of
    the margin's matrix.
    """
    x = np.asarray(grid, dtype=float)
    outside = np.flatnonzero(~((x >= 0.0) & (x < math.inf)))
    if outside.size:
        raise ValueError("frontier requires 0 <= x < inf, got x=%r"
                         % float(x[outside[0]]))
    a, b = _reduced_pencil(protocol, nu)
    h_bit = _forms(protocol, nu)[0]
    neg = -qmath.min_eigenvalue(x[:, None, None] * b - a)
    ys = np.where(neg > 0.0, neg, 0.0)
    margins = psd_margin(x, ys, protocol, nu)
    roundoff = h_bit.shape[0] * np.finfo(float).eps * np.linalg.norm(h_bit, 2)
    bad = np.flatnonzero(margins < -(PSD_TOL + roundoff * x))
    if bad.size:
        i = bad[np.argmin(x[bad])]
        raise ArithmeticError("frontier point x=%g y=%.17g has margin %.3e"
                              % (x[i], ys[i], margins[i]))
    return tuple(ys.tolist())


def _tangent_point(a: np.ndarray, b: np.ndarray, x: float) -> tuple:
    """(e(x), p(x)) = (u^dag B u, u^dag A u), clipped at 0, for u the top
    eigenvector of A - x*B, or the zero attack where y_star(x) is 0."""
    w, v = qmath.eigh_checked(a - x * b)
    u = v[:, -1] * (w[-1] > 0.0)
    return tuple(max(0.0, float(np.vdot(u, h @ u).real)) for h in (b, a))


def supporting_tangents(protocol: str, nu: int, past) -> tuple:
    """The tangents (x, y_star(x)), certified by frontier_table, at the
    adjacent floats x_lo < x_hi in [0, TANGENT_X_CAP] where past(e(x), p(x))
    turns true (keyrate.bisect_floats: at most 63 solves; past must hold from
    some x on): below the cap, min_x [x*e + y_star(x)] to the float spacing."""
    a, b = _reduced_pencil(protocol, nu)
    xs = keyrate.bisect_floats(lambda x: past(*_tangent_point(a, b, x)),
                               0.0, TANGENT_X_CAP)
    return tuple(zip(xs, frontier_table(protocol, nu, xs)))


def zero_rate_check(protocol: str, nu: int) -> float:
    """The zero-error floor inf_x y_star(x): lambda_max of the reduced H_ph
    compressed onto the kernel of the reduced H_bit, clipped only at 0, like
    y_star, so a floor above 1 (p_ph <= p_fil failing) shows.

    At zero bit error the certified phase-error bound is exactly this floor;
    a value >= 1/2 means no key can be certified (consistent with the
    unambiguous-discrimination limit), while a value < 1/2 leaves room for a
    positive rate.  Every y_star(x) is at least the floor and tends to it, so
    no grid is read.  The kernel is cut by the rule that cuts H_fil's
    (``_kernel_split``), and an unclear cut raises ArithmeticError.
    """
    a, b = _reduced_pencil(protocol, nu)
    w, v, cut = _kernel_split(b, "reduced H_bit")
    k = v[:, w <= cut]
    if not k.shape[1]:
        return 0.0
    top = -qmath.min_eigenvalue(-(qmath.dagger(k) @ a @ k))
    return max(top, 0.0)
