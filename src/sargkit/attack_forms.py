"""Eve's per-branch attack maps, their pair states, and the event forms.

An attack on a nu-photon pulse, after the unused (trash) outputs have been
projected away, is a linear map M from the nu transit qubits to Bob's kept
qubit.  Every signal it acts on, (U_g phi_j)^{(x)nu}, lies in the symmetric
subspace Sym^nu (dimension nu+1), so only M's restriction to Sym^nu enters
any event: an attack is a plain complex (2, nu+1) array in Dicke coordinates,
where the k-th coordinate of s^{(x)nu} is sqrt(C(nu,k)) s_0^{nu-k} s_1^k, and
its row-major flattening v = M.reshape(-1) is the attack coordinate vector.
At nu = 1 these are the plain qubit coordinates.  No normalization is imposed;
every event probability below is homogeneous of degree 2 in M, so one-sided
inequalities between them are scale invariant.

For a fixed protocol, the sifted conclusive events are described by the
(unnormalized) conditional pair state

    rho(M) = (1/|G|) sum_g (1_A (x) F U_g^dag M U_g^{(x)nu}) P(pair source) (...)^dag

and the conclusive / bit-error / phase-error probabilities are traces of
rho(M) against Bell projectors.  Each sift term is linear in M: its pair
vector is A_g v, with

    A_g[(a,b),(o,k)] = (F U_g^dag)[b,o] * d_k(U_g phi_a) / sqrt(2)

and d_k the Dicke coordinates above.  So every event probability is the exact
quadratic form v^dag H_event v with H_event = (1/|G|) sum_g A_g^dag P_event A_g
(side 2(nu+1)), compiled once per (protocol, nu); every certificate is a
statement about these matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import qmath

EVENT_TAGS = ("fil", "bit", "ph", "bell:chi0+", "bell:chi0-", "bell:chi1+", "bell:chi1-")

MAX_NU = 5


@lru_cache(maxsize=None)
def _sift_maps(protocol: str, nu: int) -> np.ndarray:
    """The stack of sift maps A_g, shape (|G|, 4, 2(nu+1)).

    s_a = (U_g phi_a)/sqrt(2) is read off the single-photon pair source, so
    d_k(U_g phi_a)/sqrt(2) = 2^{(nu-1)/2} sqrt(C(nu,k)) s_0^{nu-k} s_1^k; at
    nu = 1 the scale is exactly 1 and A_g is the plain qubit assembly.
    """
    if protocol not in qmath.PROTOCOLS:
        raise ValueError("unknown protocol %r" % (protocol,))
    if not (1 <= nu <= MAX_NU):
        raise ValueError("photon number must be in 1..%d" % MAX_NU)
    us = np.stack(qmath.constants(protocol))
    fu = qmath.filter_op() @ qmath.dagger(us)
    s = qmath.pair_source_ket(1).reshape(2, 2) @ np.swapaxes(us, -1, -2)
    k = np.arange(nu + 1)
    scale = 2 ** ((nu - 1) / 2) * np.sqrt([math.comb(nu, j) for j in k])
    d = s[..., :1] ** (nu - k) * s[..., 1:] ** k * scale
    a = np.einsum("gbo,gak->gabok", fu, d).reshape(len(us), 4, 2 * (nu + 1))
    a.flags.writeable = False
    return a


def conditional_pair_state(m: np.ndarray, protocol: str) -> np.ndarray:
    """Unnormalized 4x4 pair state of a 2 x (nu+1) attack map m, conditioned
    on sift match and filter success.

    PSD by construction; trace in [0, 1] whenever ||m|| <= 1.
    """
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != 2:
        raise ValueError("attack map must be 2 x (nu+1), got %s" % (m.shape,))
    a = _sift_maps(protocol, m.shape[1] - 1)
    w = a @ m.reshape(-1)
    return w.T @ w.conj() / len(a)


@dataclass(frozen=True)
class EventForm:
    """Hermitian matrix H with p_event(M) = v^dag H v, v = M.reshape(-1)."""

    event: str
    protocol: str
    nu: int
    matrix: np.ndarray


@lru_cache(maxsize=None)
def all_forms(protocol: str, nu: int) -> dict[str, EventForm]:
    """Compile every event form for (protocol, nu) from the sift maps A_g."""
    a = _sift_maps(protocol, nu)
    dim = a.shape[-1]
    bells = qmath.bell_projectors()
    event_ops = {
        "fil": np.eye(4),
        "bit": bells["chi1+"] + bells["chi1-"],
        "ph": bells["chi0-"] + bells["chi1-"],
        **{"bell:" + tag: bells[tag] for tag in qmath.BELL_TAGS},
    }
    a_dag = a.conj().reshape(-1, dim).T
    return {
        tag: EventForm(event=tag, protocol=protocol, nu=nu,
                       matrix=a_dag @ (op @ a).reshape(-1, dim) / len(a))
        for tag, op in event_ops.items()
    }
