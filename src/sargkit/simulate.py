"""Monte Carlo protocol sessions over a lossy depolarizing channel.

Channel model per pulse of nu photons in state rho^(x)nu, nu drawn from the
run's photon-number law (the count word, read on every run), with statistics
that `exact_channel_stats` gives in closed form to check every run by:

* with probability 1 - 4p/3 the pulse is intact, otherwise every photon is
  replaced by an independent uniformly random pure polarization (an exact
  purification of the fully mixed product state);
* each photon then independently reaches Bob with probability eta;
* Bob undoes his rotation and measures every arrived photon in the basis
  {|phi_j'>, |phibar_j'>}; all-phibar patterns are conclusive, all-phi
  patterns inconclusive, and mixed patterns are resolved by a fair coin
  (the squash rule); vacuum gives no detection.

Randomness is counter-based and sifts first.  Two Philox streams are keyed
by the master seed.  The sift stream (key seed) gives trial a the 4 raw
64-bit words at offset 4*a.  The photon stream (key (seed, 1)) is read by
sifted trials only: trials fall into units of SIFT_UNIT consecutive trials,
and the i-th sifted trial of unit u reads its W words at offset
W*(SIFT_UNIT*u + i).  So every trial is replayable from its unit's sift
words up to itself plus its own photon words.  Each unit is one shard of
the run, so aggregate statistics are independent of how many threads run
the shards.

Each raw word w stands for the uniform deviate u = (w >> 11)·2⁻⁵³.  The shard
kernel never forms u: it tests u < t as the exact integer comparison
(w >> 11) < ceil(t·2⁵³), so its tallies equal those of the float formulation
(which the test oracles keep, for a whole run and per trial) bit for bit.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from . import DEPOLARIZING_LAWS, PROTOCOLS, SUPPORTED_NU, qmath

MAX_PHOTONS = 6
MAX_MU = 1.0  # photon counts above MAX_PHOTONS then carry < 1e-4 of the law
SIFT_UNIT = 1 << 15  # trials whose sifted ones read consecutive photon words

# Stream layout (uniform deviates unless noted).  Sift stream, 4 words per
# trial: 0 Alice bit, 1 Alice rotation, 2 Bob rotation, 3 Bob basis.  Photon
# stream, `_photon_width(k)` words per sifted trial with k per-photon slots
# (nu at a fixed nu, MAX_PHOTONS for a coherent source): 0 depolarizing
# branch, 1 squash coin, 2 photon count (read on every run), then k arrivals,
# k outcomes and k cos(theta) values.
_SIFT, _PHOTON = 0, 1  # stream tags: the second word of the Philox key
_SIFT_WORDS = 4
_BIT, _ROT_A, _ROT_B, _BASIS = range(_SIFT_WORDS)
_BRANCH, _COIN, _COUNT, _ARRIVE = range(4)


def _is_int(value) -> bool:
    """A Python int that is not a bool (YAML reads `true` as True == 1)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value) -> bool:
    """A Python int or float that is not a bool (YAML reads `1e-3` as a
    string and `true` as True == 1)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_channel(protocol, nu, mu, p, eta) -> None:
    """Raise ValueError unless the arguments describe a run of the channel."""
    qmath.protocol_record(protocol)
    if protocol not in PROTOCOLS:
        raise ValueError("simulate models SARG04 sifting only: protocol must "
                         "be one of %s, got %r" % (PROTOCOLS, protocol))
    for name, value in (("mu", mu), ("p", p), ("eta", eta)):
        if not (_is_real(value) or (name == "mu" and value is None)):
            raise ValueError("%s must be a number, got %r" % (name, value))
    if (nu is None) == (mu is None):
        raise ValueError("exactly one of nu and mu must be set")
    if nu is not None and not (_is_int(nu) and nu >= 1):
        raise ValueError("fixed photon number must be a positive integer")
    if mu is not None and not 0.0 < mu <= MAX_MU:
        raise ValueError("coherent intensity must be in (0, %g]" % MAX_MU)
    if not 0.0 <= p <= 0.75:
        raise ValueError("depolarizing rate must be in [0, 0.75]")
    if not 0.0 < eta <= 1.0:
        raise ValueError("transmittance must be in (0, 1]")


@dataclass(frozen=True)
class SimConfig:
    """Session parameters for the Monte Carlo engine.

    Exactly one of nu (fixed photon number, in SUPPORTED_NU, within the
    MAX_PHOTONS per-photon slots) and mu (coherent intensity in (0, MAX_MU])
    must be given; `_photon_law(nu, mu)` is the photon-number law of the run.
    """

    protocol: str
    trials: int
    seed: int
    p: float = 0.0
    eta: float = 1.0
    nu: int | None = None
    mu: float | None = None

    def __post_init__(self):
        if self.nu is not None and not (_is_int(self.nu)
                                        and self.nu in SUPPORTED_NU):
            raise ValueError("fixed photon number must be an integer in %d..%d"
                             % (SUPPORTED_NU[0], SUPPORTED_NU[-1]))
        _check_channel(self.protocol, self.nu, self.mu, self.p, self.eta)
        if not (_is_int(self.trials) and self.trials >= 1):
            raise ValueError("trials must be a positive integer")
        if not (_is_int(self.seed) and 0 <= self.seed < 2 ** 64):
            raise ValueError("seed must be an integer in [0, 2^64)")


@dataclass(frozen=True)
class PerNuStats:
    """Sifted-trial tallies for one photon number of a coherent-source run."""

    nu: int
    sifted: int
    conclusive: int
    errors: int


@dataclass(frozen=True)
class SimStats:
    """Aggregated session statistics with binomial standard errors."""

    config: SimConfig
    sifted: int
    detected: int
    conclusive: int
    errors: int
    conclusive_fraction: float
    conclusive_se: float
    e_bit: float
    e_bit_se: float
    per_nu: tuple[PerNuStats, ...] | None = None

    def __post_init__(self):
        for name in ("conclusive_fraction", "e_bit"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError("%s must be in [0, 1]" % (name,))


@dataclass(frozen=True)
class ExactStats:
    """Exact channel-law statistics of the run (protocol, nu, mu, p, eta)."""

    protocol: str
    nu: int | None
    p: float
    eta: float
    conclusive_prob: float
    e_bit: float
    mu: float | None = None


@dataclass(frozen=True)
class CompareResult:
    """z-scores of a Monte Carlo run against its exact statistics.

    A z-score is None when its statistic has no samples (no sifted trial for
    z_conclusive, no conclusive trial for z_ebit); passed is then None too,
    unless the other z-score already fails.  It is also None, with passed
    False, when the exact law makes the outcome certain and the run
    contradicts it, so that the deviation is infinite.
    """

    z_conclusive: float | None
    z_ebit: float | None
    passed: bool | None


def _raw_words(seed: int, stream: int, offset: int, count: int) -> np.ndarray:
    """Raw uint64 words [offset, offset + count) of one stream of the run, the
    only code that draws random words: Philox keyed by (seed, stream), so the
    sift stream (0) is keyed by the seed alone.  offset is a multiple of 4,
    the words of one Philox block."""
    # A uint64 key array, so that NumPy 1.x never promotes the key.
    bg = np.random.Philox(key=np.array([seed, stream], dtype=np.uint64))
    bg.advance(offset // 4)
    return bg.random_raw(count)


def _photon_width(k: int) -> int:
    """Photon-stream words per sifted trial with k per-photon slots: the
    3 + 3k slots rounded up to whole 4-word Philox blocks."""
    return 4 * -(-(3 + 3 * k) // 4)


def _photon_law(nu: int | None, mu: float | None) -> tuple[list[int], np.ndarray]:
    """The photon numbers that carry mass, consecutive and ascending, and the
    CDF at each: ([nu], [1]) at a fixed nu, else 0..MAX_PHOTONS and the Poisson
    law of intensity mu truncated there, renormalized to end at exactly 1."""
    if nu is not None:
        return [nu], np.array([1.0])
    pmf = np.array(
        [math.exp(-mu) * mu ** n / math.factorial(n) for n in range(MAX_PHOTONS + 1)]
    )
    cdf = np.cumsum(pmf / pmf.sum())
    cdf[-1] = 1.0
    return list(range(MAX_PHOTONS + 1)), cdf


def _photon_cdf(nu: int | None, mu: float | None) -> np.ndarray:
    """The CDF of `_photon_law(nu, mu)` at every photon number 0..max, zero
    below the first that carries mass; the count word is searched in it, so
    every uniform u < 1 maps to at most len - 1 photons."""
    ns, cdf = _photon_law(nu, mu)
    return np.append(np.zeros(ns[0]), cdf)


def _conclusive_flag_prob() -> np.ndarray:
    """Table P[j', j] = |<phibar_j' | phi_j>|^2 for intact arrived photons,
    exact: <phibar_j'|phi_j> = sc(1 - (-1)^(j+j')), s, c = sin, cos(pi/8)."""
    return np.array([[0.0, 0.5], [0.5, 0.0]])


def _thresholds(t) -> np.ndarray:
    """Integer thresholds c with  u < t  <=>  (w >> 11) < c  for u = (w >> 11)·2⁻⁵³.

    c = ceil(t·2⁵³) is exact (scaling by 2⁵³ and ceil are exact in float64),
    clipped to [0, 2⁵³] so that t <= 0 never and t >= 1 always holds.  The
    dtype is uint64 so that no comparison with 53-bit words is ever promoted
    to float64 (NumPy 1.x value-based casting would do so for int64).
    """
    return np.ceil(np.clip(t, 0.0, 1.0) * 2.0 ** 53).astype(np.uint64)


_SHIFT = np.uint64(11)  # raw word -> 53-bit uniform numerator
_HALF = np.uint64(52)  # 53-bit numerator -> (u >= 1/2)
_TOP = np.uint64(63)  # raw word -> (u >= 1/2)


def _sifted(sift: np.ndarray, n_rot: int) -> np.ndarray:
    """Mask of the trials, rows of sift words, whose rotations match."""
    # A rotation index is the floor of the rounded float product u·n_rot
    # (scaling by 2⁻⁵³ is exact, so the scales may be folded).
    scale = 2.0 ** -53 * n_rot
    rot_a, rot_b = (((sift[:, col] >> _SHIFT) * scale).astype(np.int64)
                    for col in (_ROT_A, _ROT_B))
    return rot_a == rot_b


def _shard_tallies(sift: np.ndarray, photon: np.ndarray, cfg: SimConfig,
                   flag: np.ndarray, count: np.ndarray) -> np.ndarray:
    """Tallies of sifted trials from their sift rows, shape (s, 4), and photon
    rows, shape (s, W): rows indexed by photon count 0..MAX_PHOTONS, columns
    (sifted, detected, conclusive, errors).

    flag holds the thresholds of the intact-photon table and count those of
    the photon-number CDF, which the count word draws from on every run.
    """
    j = (sift[:, _BIT] >> _TOP).astype(np.intp)
    jp = (sift[:, _BASIS] >> _TOP).astype(np.intp)
    w = np.ascontiguousarray(photon.T) >> _SHIFT  # one row per slot
    intact = w[_BRANCH] >= _thresholds(4.0 * cfg.p / 3.0)
    coin = (w[_COIN] >> _HALF) == 0

    n = np.searchsorted(count, w[_COUNT], side="right")
    # k <= MAX_PHOTONS, the per-photon slots: a fixed nu is in SUPPORTED_NU.
    k = len(count) - 1
    arrive, outcome, cos = (w[_ARRIVE + i * k:_ARRIVE + (i + 1) * k]
                            for i in range(3))
    arrived = (np.arange(k)[:, None] < n) & (arrive < _thresholds(cfg.eta))
    # A depolarized photon is flagged with probability 0.5·(1 + cos θ), which
    # for cos θ = 2v − 1 is exactly v: compare the outcome word with v's word.
    p_flag = np.where(intact, flag[jp, j], cos)
    flags = arrived & (outcome < p_flag)

    m = arrived.sum(axis=0)
    n_flag = flags.sum(axis=0)
    detected = m > 0
    all_flag = detected & (n_flag == m)
    mixed_pattern = detected & (n_flag > 0) & (n_flag < m)
    conclusive = all_flag | (mixed_pattern & coin)
    error = conclusive & (jp == j)

    rows = MAX_PHOTONS + 1
    return np.stack(
        [np.bincount(n, minlength=rows)]
        + [np.bincount(n[mask], minlength=rows)
           for mask in (detected, conclusive, error)],
        axis=1,
    )


def _pool_size(shards: int) -> int:
    """Worker threads for a run of `shards` shards: one per usable CPU, at
    most one per shard."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, shards))


def _binomial_se(successes: int, n: int) -> float:
    if n == 0:
        return 0.0
    f = successes / n
    return math.sqrt(f * (1.0 - f) / n)


def run_monte_carlo(cfg: SimConfig) -> SimStats:
    """Simulate cfg.trials sessions and aggregate sifted-trial statistics.

    Every unit of SIFT_UNIT trials is one shard, and the shards run on a
    small thread pool (Philox and the NumPy kernels release the GIL).  A
    shard reads the sift words of its trials, keeps the sifted ones, and
    reads photon words for those alone, so results are bit-identical for
    any thread count.
    """
    n_rot = len(qmath.constants(cfg.protocol))
    flag = _thresholds(_conclusive_flag_prob())
    count = _thresholds(_photon_cdf(cfg.nu, cfg.mu))
    width = _photon_width(len(count) - 1)

    def shard(start: int) -> np.ndarray:
        end = min(start + SIFT_UNIT, cfg.trials)
        sift = _raw_words(cfg.seed, _SIFT, _SIFT_WORDS * start,
                          _SIFT_WORDS * (end - start)).reshape(-1, _SIFT_WORDS)
        kept = _sifted(sift, n_rot)
        photon = _raw_words(cfg.seed, _PHOTON, width * start,
                            width * np.count_nonzero(kept))
        return _shard_tallies(np.compress(kept, sift, axis=0),
                              photon.reshape(-1, width), cfg, flag, count)

    starts = range(0, cfg.trials, SIFT_UNIT)
    tallies = np.zeros((MAX_PHOTONS + 1, 4), dtype=np.int64)
    from concurrent.futures import ThreadPoolExecutor  # kept off the CLI import

    with ThreadPoolExecutor(_pool_size(len(starts))) as pool:
        tallies = sum(pool.map(shard, starts), tallies)
    return _stats(cfg, tallies)


def _stats(cfg: SimConfig, tallies: np.ndarray) -> SimStats:
    """SimStats from the (photon count, column) tally table of a run."""
    sifted, detected, conclusive, errors = (int(v) for v in tallies.sum(axis=0))
    frac = conclusive / sifted if sifted else 0.0
    ebit = errors / conclusive if conclusive else 0.0
    per_nu = None
    if cfg.mu is not None:
        per_nu = tuple(
            PerNuStats(nu=n, sifted=int(row[0]), conclusive=int(row[2]),
                       errors=int(row[3]))
            for n, row in enumerate(tallies)
        )
    return SimStats(
        config=cfg,
        sifted=sifted,
        detected=detected,
        conclusive=conclusive,
        errors=errors,
        conclusive_fraction=frac,
        conclusive_se=_binomial_se(conclusive, sifted),
        e_bit=ebit,
        e_bit_se=_binomial_se(errors, conclusive),
        per_nu=per_nu,
    )


def exact_channel_stats(protocol: str, nu: int | None, p: float, eta: float,
                        mu: float | None = None) -> ExactStats:
    """Exact conclusive probability and error rate of the channel law.

    Every arrived photon is flagged with probability 1/2, except in an intact
    pulse measured in the basis of Alice's bit (the error case), where none
    is.  The squash rule makes any m >= 1 such photons conclusive with
    probability 2^-m + (1 - 2^(1-m))/2 = 1/2, so for either protocol
    P_conc = sum_{n>=1} P(n)(1 - (1 - eta)^n)(1/4 + p/3) over the law P of
    `_photon_law(nu, mu)` and e_bit = 4p/(3 + 4p), the tag's law in
    DEPOLARIZING_LAWS.  The sum runs over the photon numbers that carry mass
    only, so a fixed nu costs one term.
    """
    _check_channel(protocol, nu, mu, p, eta)
    ns, cdf = _photon_law(nu, mu)
    masses = np.diff(cdf, prepend=0.0).tolist()
    detect = sum(pn * (1.0 - (1.0 - eta) ** n) for n, pn in zip(ns, masses))
    a, b, c = DEPOLARIZING_LAWS[protocol]
    return ExactStats(
        protocol=protocol, nu=nu, p=p, eta=eta,
        conclusive_prob=detect * (0.25 + p / 3.0),
        e_bit=a * p / (b + c * p), mu=mu,
    )


def compare(sim: SimStats, exact: ExactStats) -> CompareResult:
    """z-scores of simulated conclusive fraction and error rate vs exact."""
    cfg = sim.config
    if (cfg.protocol, cfg.nu, cfg.mu, cfg.p, cfg.eta) != (
        exact.protocol, exact.nu, exact.mu, exact.p, exact.eta
    ):
        raise ValueError("simulation and exact statistics describe different runs")

    def z(observed: float, expected: float, se: float, n: int) -> float | None:
        if n == 0:
            return None
        # A run with no spread (every trial alike) takes the standard error
        # of the exact law instead.
        se = se or math.sqrt(expected * (1.0 - expected) / n)
        if se == 0.0:
            return 0.0 if observed == expected else math.inf
        return (observed - expected) / se

    zs = (z(sim.conclusive_fraction, exact.conclusive_prob, sim.conclusive_se,
            sim.sifted),
          z(sim.e_bit, exact.e_bit, sim.e_bit_se, sim.conclusive))
    if any(v is not None and abs(v) > 3.0 for v in zs):
        passed = False
    else:
        passed = None if None in zs else True
    zs = tuple(None if v is None or math.isinf(v) else v for v in zs)
    return CompareResult(z_conclusive=zs[0], z_ebit=zs[1], passed=passed)
