"""Monte Carlo engine, exact channel law, replay, and their agreement."""

import dataclasses
import math
import os
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from sargkit import qmath, simulate


def config(**overrides) -> simulate.SimConfig:
    base = dict(protocol="four-state", trials=50000, seed=424242, p=0.05,
                eta=0.5, nu=1)
    base.update(overrides)
    return simulate.SimConfig(**base)


# ---------------------------------------------------------------------------
# Config validation
# ---------------------------------------------------------------------------

def test_config_requires_exactly_one_source_mode():
    with pytest.raises(ValueError):
        config(mu=0.5)  # both nu and mu
    with pytest.raises(ValueError):
        config(nu=None)  # neither


@pytest.mark.parametrize("bad", [
    dict(protocol="bb84"),
    dict(p=0.8),
    dict(p=-0.01),
    dict(eta=0.0),
    dict(eta=1.2),
    dict(trials=0),
    dict(seed=-1),
    dict(nu=5),
    dict(nu=None, mu=0.0),
    dict(p="1e-3"),
    dict(eta=True),
    dict(nu=None, mu=True),
])
def test_config_range_validation(bad):
    with pytest.raises(ValueError):
        config(**bad)


def test_coherent_intensity_is_bounded_by_one():
    assert config(nu=None, mu=simulate.MAX_MU).mu == 1.0
    for mu in (1.0 + 1e-12, 2.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            config(nu=None, mu=mu)


# ---------------------------------------------------------------------------
# Exact channel law
# ---------------------------------------------------------------------------

def rel_close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=0.0)


# Positive p stays above 1e-200: below about 1e-300 the oracle's products of
# small weights go subnormal and lose digits that the closed form keeps.
@settings(max_examples=60, deadline=None)
@given(protocol=st.sampled_from(qmath.PROTOCOLS), nu=st.integers(1, 6),
       p=st.one_of(st.sampled_from([0.0, 0.75]), st.floats(1e-200, 0.75)),
       eta=st.one_of(st.just(1.0), st.floats(1e-3, 1.0)))
def test_closed_form_matches_enumeration_oracle(protocol, nu, p, eta):
    exact = simulate.exact_channel_stats(protocol, nu, p, eta)
    oracle = oracles.enumerated_channel_stats(protocol, nu, p, eta)
    assert rel_close(exact.conclusive_prob, oracle.conclusive_prob)
    assert rel_close(exact.e_bit, oracle.e_bit)
    assert (exact.nu, exact.mu) == (nu, None)


@pytest.mark.parametrize("protocol", ["four-state", "six-state"])
@pytest.mark.parametrize("mu,p,eta", [(0.5, 0.02, 0.6), (1.0, 0.0, 1.0),
                                      (0.05, 0.75, 0.01)])
def test_coherent_law_is_the_photon_number_mixture_of_the_oracle(protocol, mu,
                                                                  p, eta):
    exact = simulate.exact_channel_stats(protocol, None, p, eta, mu=mu)
    weights = np.diff(simulate._photon_cdf(None, mu), prepend=0.0)
    conclusive = errors = 0.0
    for n, w in enumerate(weights[1:], start=1):  # vacuum never clicks
        o = oracles.enumerated_channel_stats(protocol, n, p, eta)
        conclusive += w * o.conclusive_prob
        errors += w * o.conclusive_prob * o.e_bit
    assert (exact.nu, exact.mu) == (None, mu)
    assert rel_close(exact.conclusive_prob, conclusive)
    assert rel_close(exact.e_bit, errors / conclusive)


def test_exact_single_photon_closed_forms():
    for p in (0.0, 0.01, 0.03, 0.05, 0.2):
        ex = simulate.exact_channel_stats("four-state", 1, p, 1.0)
        assert abs(ex.conclusive_prob - (0.25 + p / 3.0)) < 1e-12
        assert abs(ex.e_bit - 4.0 * p / (3.0 + 4.0 * p)) < 1e-12


@pytest.mark.parametrize("protocol", ["four-state", "six-state"])
@pytest.mark.parametrize("nu", [1, 2])
@pytest.mark.parametrize("eta", [1.0, 0.5])
@pytest.mark.parametrize("p", [0.01, 0.03, 0.05])
def test_exact_error_rate_is_universal(protocol, nu, eta, p):
    # 4p/(3+4p) holds for both photon numbers, both protocols, any loss.
    ex = simulate.exact_channel_stats(protocol, nu, p, eta)
    assert abs(ex.e_bit - 4.0 * p / (3.0 + 4.0 * p)) < 1e-9


def test_exact_conclusive_scales_with_arrival_probability():
    for nu in (1, 2):
        full = simulate.exact_channel_stats("four-state", nu, 0.04, 1.0)
        lossy = simulate.exact_channel_stats("four-state", nu, 0.04, 0.3)
        arrival = 1.0 - (1.0 - 0.3) ** nu
        assert abs(lossy.conclusive_prob - arrival * full.conclusive_prob) < 1e-12


@pytest.mark.parametrize("eta", [1.0, 0.5, 1e-3])
@pytest.mark.parametrize("nu", range(1, 9))
def test_fixed_photon_number_law_is_the_closed_form_bit_for_bit(nu, eta):
    # nu runs past MAX_PHOTONS: the sum reads the point mass alone.
    for protocol in qmath.PROTOCOLS:
        for p in (0.0, 0.03, 0.75):
            ex = simulate.exact_channel_stats(protocol, nu, p, eta)
            closed = (1.0 - (1.0 - eta) ** nu) * (0.25 + p / 3.0)
            assert ex.conclusive_prob == closed, (protocol, p)


def test_exact_law_at_a_huge_photon_number_costs_one_term():
    # Only photon numbers that carry mass are summed, so nu = 10^6 builds no
    # table of nu + 1 entries.
    nu, p, eta = 10 ** 6, 0.03, 1e-6
    tracemalloc.start()
    try:
        ex = simulate.exact_channel_stats("four-state", nu, p, eta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ex.conclusive_prob == (1.0 - (1.0 - eta) ** nu) * (0.25 + p / 3.0)
    assert peak < 1 << 20


def test_exact_zero_noise_is_errorless():
    ex = simulate.exact_channel_stats("four-state", 2, 0.0, 0.8)
    assert ex.e_bit == 0.0


def test_exact_rejects_unsupported():
    with pytest.raises(ValueError):
        simulate.exact_channel_stats("four-state", 0, 0.05, 1.0)
    with pytest.raises(ValueError):
        simulate.exact_channel_stats("four-state", 1, 0.9, 1.0)
    with pytest.raises(ValueError):
        simulate.exact_channel_stats("four-state", 1, 0.05, 0.0)


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------

def test_run_is_deterministic_and_shard_invariant():
    cfg = config()
    a = simulate.run_monte_carlo(cfg)
    b = simulate.run_monte_carlo(cfg)
    c = simulate.run_monte_carlo(cfg, shard_size=1009)
    assert a == b == c


@st.composite
def monte_carlo_cases(draw):
    source = draw(st.one_of(
        st.builds(dict, nu=st.integers(1, 4)),
        st.builds(dict, nu=st.none(),
                  mu=st.floats(0.0, 1.0, exclude_min=True)),
    ))
    shard_size = draw(st.sampled_from([1, 1009, None]))
    cfg = simulate.SimConfig(
        protocol=draw(st.sampled_from(qmath.PROTOCOLS)),
        trials=draw(st.integers(1, 1500 if shard_size == 1 else 20000)),
        seed=draw(st.integers(0, 2 ** 64 - 1)),
        p=draw(st.one_of(st.sampled_from([0.0, 0.75]), st.floats(0.0, 0.75))),
        eta=draw(st.one_of(st.just(1.0),
                           st.floats(0.0, 1.0, exclude_min=True))),
        **source,
    )
    return cfg, shard_size, draw(st.sampled_from([1, 2]))


def threshold_words(cfg: simulate.SimConfig) -> np.ndarray:
    """Raw words whose uniforms sit on and next to every threshold the
    kernel compares against, where a rounding slip would show."""
    n_rot = len(qmath.constants(cfg.protocol))
    ts = [0.0, 0.5, 1.0, 4.0 * cfg.p / 3.0, cfg.eta]
    ts += list(simulate._conclusive_flag_prob().ravel())
    ts += [r / n_rot for r in range(1, n_rot)]
    ts += list(simulate._photon_cdf(cfg.nu, cfg.mu))
    ks = {math.ceil(t * 2.0 ** 53) + d for t in ts for d in range(-3, 4)}
    ks = np.array(sorted(k for k in ks if 0 <= k < 2 ** 53), dtype=np.uint64)
    low = np.array([0, 2 ** 11 - 1], dtype=np.uint64)
    return ((ks[:, None] << np.uint64(11)) | low).ravel()


@settings(max_examples=100, deadline=None)
@given(monte_carlo_cases(), st.booleans())
def test_run_matches_float_oracle_for_any_sharding_and_pool(case, edges):
    # With edges, every word is drawn from threshold_words, still as a
    # function of its place in the stream so that sharding cannot matter.
    cfg, shard_size, workers = case
    kwargs = {} if shard_size is None else {"shard_size": shard_size}
    with pytest.MonkeyPatch.context() as mp:
        if edges:
            words = threshold_words(cfg)
            philox_block = simulate._raw_block
            mp.setattr(simulate, "_raw_block", lambda seed, start, count: words[
                philox_block(seed, start, count) % np.uint64(len(words))])
        mp.setattr(simulate, "_pool_size", lambda shards: workers)
        assert simulate.run_monte_carlo(cfg, **kwargs) == oracles.monte_carlo_stats(cfg)


def test_more_threads_than_cores_with_fast_switching(monkeypatch):
    # Shards share no mutable state; a lost or doubled shard would show here.
    cfg = config(nu=None, mu=0.7, trials=20000)
    expected = oracles.monte_carlo_stats(cfg)
    monkeypatch.setattr(simulate, "_pool_size", lambda shards: 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        stats = simulate.run_monte_carlo(cfg, shard_size=257)
    finally:
        sys.setswitchinterval(interval)
    assert stats == expected


def test_pool_size_is_bounded_by_shards_and_cpus():
    assert simulate._pool_size(1) == 1
    assert 1 <= simulate._pool_size(10 ** 6) <= (os.cpu_count() or 1)


@pytest.mark.parametrize("eta", [0.5, 1.0])
@pytest.mark.parametrize("source", [dict(nu=None, mu=0.5), dict(nu=4)])
def test_all_ones_words_stay_within_the_photon_range(monkeypatch, source, eta):
    # Every slot reads u = 1 - 2^-53, the largest uniform of the stream: the
    # photon count must stop at MAX_PHOTONS (not index a 7th photon).
    def ones(seed, start, count):
        return np.full((count, simulate.SLOTS), np.uint64(2 ** 64 - 1))

    monkeypatch.setattr(simulate, "_raw_block", ones)
    cfg = config(trials=5, eta=eta, **source)
    n = simulate.MAX_PHOTONS if cfg.mu is not None else cfg.nu
    stats = simulate.run_monte_carlo(cfg)
    assert stats == oracles.monte_carlo_stats(cfg)
    assert stats.sifted == cfg.trials
    assert stats.detected == (cfg.trials if eta == 1.0 else 0)
    if stats.per_nu is not None:
        assert stats.per_nu[n].sifted == cfg.trials
    record = oracles.replay_trial(cfg, 4)
    assert record.sifted
    assert record.photons_sent == n
    assert record.photons_arrived == (n if eta == 1.0 else 0)


def test_flag_table_is_the_born_rule_of_the_signal_kets():
    # <phibar_j'|phi_j> = sc(1 - (-1)^(j+j')) with s, c = sin, cos(pi/8): the
    # float kets give 1.9e-35 for 0 and 0.4999999999999998 for 1/2.
    born = [[abs(np.vdot(qmath.signal_perp_ket(jp), qmath.signal_ket(j))) ** 2
             for j in range(2)] for jp in range(2)]
    table = simulate._conclusive_flag_prob()
    assert np.max(np.abs(table - born)) <= 1e-15
    assert table.tolist() == [[0.0, 0.5], [0.5, 0.0]]


def test_flag_thresholds_are_exact():
    flag = simulate._thresholds(simulate._conclusive_flag_prob())
    assert flag.tolist() == [[0, 2 ** 52], [2 ** 52, 0]]


def test_all_zero_words_count_no_error_on_a_noiseless_channel(monkeypatch):
    # u = 0 in every slot: a sifted, intact photon measured in the basis of
    # Alice's bit, which flags it with probability exactly 0.
    def zeros(seed, start, count):
        return np.zeros((count, simulate.SLOTS), dtype=np.uint64)

    monkeypatch.setattr(simulate, "_raw_block", zeros)
    cfg = config(trials=4, p=0.0, eta=1.0)
    stats = simulate.run_monte_carlo(cfg)
    assert (stats.sifted, stats.detected, stats.conclusive, stats.errors) == (
        4, 4, 0, 0)
    assert stats == oracles.monte_carlo_stats(cfg)
    exact = simulate.exact_channel_stats(cfg.protocol, cfg.nu, cfg.p, cfg.eta)
    assert simulate.compare(stats, exact).passed is not False


@pytest.mark.parametrize("word", [0, 2 ** 64 - 1])
@pytest.mark.parametrize("nu", [1, 2, 3, 4])
def test_fixed_photon_number_ignores_the_count_word(monkeypatch, nu, word):
    # A fixed nu is the point mass: the smallest and the largest count word
    # both send exactly nu photons.
    philox_block = simulate._raw_block

    def pinned(seed, start, count):
        raw = philox_block(seed, start, count)
        raw[:, simulate._SLOT_COUNT] = np.uint64(word)
        return raw

    cfg = config(nu=nu, trials=3000, eta=1.0)
    n_rot = len(qmath.constants(cfg.protocol))
    tallies = simulate._shard_tallies(
        pinned(cfg.seed, 0, cfg.trials), cfg, n_rot,
        simulate._thresholds(simulate._conclusive_flag_prob()),
        simulate._thresholds(simulate._photon_cdf(nu, None)))
    assert tallies[nu, 0] > 0
    assert tallies[nu].tolist() == tallies.sum(axis=0).tolist()
    monkeypatch.setattr(simulate, "_raw_block", pinned)
    assert simulate.run_monte_carlo(cfg) == oracles.monte_carlo_stats(cfg)


def test_seed_changes_the_stream():
    a = simulate.run_monte_carlo(config(seed=1))
    b = simulate.run_monte_carlo(config(seed=2))
    assert (a.conclusive, a.errors) != (b.conclusive, b.errors)


def test_noiseless_run_matches_quarter_law():
    cfg = config(p=0.0, eta=1.0, trials=200000)
    stats = simulate.run_monte_carlo(cfg)
    assert stats.errors == 0
    assert abs(stats.conclusive_fraction - 0.25) <= 3 * stats.conclusive_se


@pytest.mark.parametrize("kwargs", [
    dict(nu=1, p=0.05, eta=0.5),
    dict(nu=2, p=0.03, eta=1.0),
])
def test_run_agrees_with_exact_statistics(kwargs):
    cfg = config(trials=200000, **kwargs)
    stats = simulate.run_monte_carlo(cfg)
    exact = simulate.exact_channel_stats(cfg.protocol, cfg.nu, cfg.p, cfg.eta)
    result = simulate.compare(stats, exact)
    assert result.passed, (result.z_conclusive, result.z_ebit)


def test_six_state_sift_rate_is_one_in_twentyfour():
    cfg = config(protocol="six-state", trials=240000, p=0.0, eta=1.0)
    stats = simulate.run_monte_carlo(cfg)
    expected = cfg.trials / 24.0
    assert abs(stats.sifted - expected) <= 3 * math.sqrt(expected)


def test_multiphoton_conclusive_quarter_law_at_zero_noise():
    # With intact pulses a conclusive pattern needs every photon on the
    # orthogonal outcome; the squash coin restores the single-photon 1/4 law.
    cfg = config(nu=3, p=0.0, eta=1.0, trials=200000)
    stats = simulate.run_monte_carlo(cfg)
    assert stats.errors == 0
    assert abs(stats.conclusive_fraction - 0.25) <= 3 * stats.conclusive_se


def test_coherent_mode_breakdown_consistent():
    cfg = config(nu=None, mu=0.6, trials=150000, p=0.02, eta=0.8)
    stats = simulate.run_monte_carlo(cfg)
    assert stats.per_nu is not None
    assert sum(r.sifted for r in stats.per_nu) == stats.sifted
    assert sum(r.conclusive for r in stats.per_nu) == stats.conclusive
    assert sum(r.errors for r in stats.per_nu) == stats.errors
    assert len(stats.per_nu) == simulate.MAX_PHOTONS + 1
    assert stats.per_nu[0].conclusive == 0  # vacuum never clicks


def test_fixed_mode_has_no_breakdown():
    assert simulate.run_monte_carlo(config(trials=1000)).per_nu is None


# ---------------------------------------------------------------------------
# Replay
# ---------------------------------------------------------------------------

def test_replay_reproduces_vectorized_tallies():
    cfg = config(trials=3000, p=0.06, eta=0.7, nu=2)
    stats = simulate.run_monte_carlo(cfg)
    records = [oracles.replay_trial(cfg, i) for i in range(cfg.trials)]
    sifted = [r for r in records if r.sifted]
    assert len(sifted) == stats.sifted
    assert sum(1 for r in sifted if r.conclusive) == stats.conclusive
    assert sum(1 for r in sifted if r.error) == stats.errors
    assert sum(1 for r in sifted if r.photons_arrived > 0) == stats.detected


def test_replay_record_invariants():
    cfg = config(trials=500, p=0.1, eta=0.6, nu=2)
    for i in range(cfg.trials):
        r = oracles.replay_trial(cfg, i)
        assert r.photons_sent == 2
        assert len(r.outcomes) == r.photons_arrived
        if r.conclusive:
            assert r.inferred_bit == 1 - r.bob_basis
            assert r.error == (r.inferred_bit != r.alice_bit)
        else:
            assert r.inferred_bit is None and not r.error
        if r.used_squash_coin:
            assert 0 < sum(r.outcomes) < len(r.outcomes)


def test_replay_index_bounds():
    with pytest.raises(ValueError):
        oracles.replay_trial(config(trials=10), 10)


def test_record_validation_rules():
    rec = oracles.replay_trial(config(trials=1, seed=0), 0)
    with pytest.raises(ValueError):
        dataclasses.replace(rec, conclusive=True, inferred_bit=None)


def test_sift_statistics_do_not_depend_on_rotation_label():
    # Conclusive counts grouped by the matched rotation index should agree
    # within binomial noise; the protocol is covariant under relabeling.
    cfg = config(trials=60000, p=0.04, eta=1.0)
    by_rot = {k: [0, 0] for k in range(4)}
    for i in range(cfg.trials):
        r = oracles.replay_trial(cfg, i)
        if r.sifted:
            by_rot[r.alice_rotation][0] += 1
            by_rot[r.alice_rotation][1] += r.conclusive
    fractions = {k: c / n for k, (n, c) in by_rot.items()}
    pooled = sum(c for _, c in by_rot.values()) / sum(n for n, _ in by_rot.values())
    for k, f in fractions.items():
        n = by_rot[k][0]
        assert abs(f - pooled) <= 3 * math.sqrt(pooled * (1 - pooled) / n)


# ---------------------------------------------------------------------------
# Comparison plumbing
# ---------------------------------------------------------------------------

def test_compare_rejects_parameter_mismatch():
    stats = simulate.run_monte_carlo(config(trials=1000))
    exact = simulate.exact_channel_stats("four-state", 1, 0.01, 0.5)
    with pytest.raises(ValueError):
        simulate.compare(stats, exact)


def test_compare_rejects_intensity_mismatch():
    cfg = config(nu=None, mu=0.5, trials=1000)
    stats = simulate.run_monte_carlo(cfg)
    exact = simulate.exact_channel_stats(cfg.protocol, None, cfg.p, cfg.eta,
                                         mu=0.4)
    with pytest.raises(ValueError):
        simulate.compare(stats, exact)


def test_compare_detects_wrong_channel_numbers():
    # Same declared parameters but numbers computed from a different p must
    # trip the 3-sigma gate at this sample size.
    cfg = config(trials=400000)
    stats = simulate.run_monte_carlo(cfg)
    wrong = simulate.exact_channel_stats("four-state", 1, 0.12, 0.5)
    doctored = simulate.ExactStats(
        protocol=cfg.protocol, nu=cfg.nu, p=cfg.p, eta=cfg.eta,
        conclusive_prob=wrong.conclusive_prob, e_bit=wrong.e_bit)
    result = simulate.compare(stats, doctored)
    assert not result.passed
    assert abs(result.z_ebit) > 3


def test_compare_zero_spread_path():
    cfg = config(trials=2000, p=0.0, eta=1.0)
    stats = simulate.run_monte_carlo(cfg)
    exact = simulate.exact_channel_stats("four-state", 1, 0.0, 1.0)
    result = simulate.compare(stats, exact)
    assert result.z_ebit == 0.0  # zero errors against zero expectation


def test_compare_without_samples_is_undetermined():
    # This single trial sifts nothing: neither statistic has a sample, so no
    # z-score exists.
    cfg = config(trials=1)
    stats = simulate.run_monte_carlo(cfg)
    assert stats.sifted == 0
    exact = simulate.exact_channel_stats(cfg.protocol, cfg.nu, cfg.p, cfg.eta)
    result = simulate.compare(stats, exact)
    assert (result.z_conclusive, result.z_ebit, result.passed) == (None, None, None)


def zeroed_errors(stats: simulate.SimStats) -> simulate.SimStats:
    """stats as a defect that drops every error from the tally would give."""
    return dataclasses.replace(stats, errors=0, e_bit=0.0, e_bit_se=0.0)


def test_compare_fails_zero_observed_errors_against_positive_exact_rate():
    # A long run with no observed error has no spread of its own; the exact
    # law's standard error still makes the miss a large finite z-score.
    cfg = config(trials=200000, p=0.05)
    stats = zeroed_errors(simulate.run_monte_carlo(cfg))
    exact = simulate.exact_channel_stats(cfg.protocol, cfg.nu, cfg.p, cfg.eta)
    assert stats.conclusive > 1000 and exact.e_bit > 0.01
    result = simulate.compare(stats, exact)
    assert math.isfinite(result.z_ebit) and result.z_ebit < -3
    assert result.passed is False


def test_compare_fails_a_contradicted_certain_outcome():
    cfg = config(trials=2000, p=0.0, eta=1.0)
    stats = simulate.run_monte_carlo(cfg)  # no errors: e_bit has no spread
    doctored = simulate.ExactStats(protocol=cfg.protocol, nu=cfg.nu, p=cfg.p,
                                   eta=cfg.eta, conclusive_prob=stats.conclusive_fraction,
                                   e_bit=1.0)
    result = simulate.compare(stats, doctored)
    assert result.z_ebit is None and result.passed is False


def test_compare_finite_failure_outranks_undetermined_score():
    cfg = config(trials=2000)
    stats = simulate.run_monte_carlo(cfg)
    # No conclusive trial: e_bit has no sample, the conclusive fraction misses.
    stats = dataclasses.replace(stats, conclusive=0, errors=0,
                                conclusive_fraction=0.0, conclusive_se=0.0,
                                e_bit=0.0, e_bit_se=0.0)
    exact = simulate.exact_channel_stats(cfg.protocol, cfg.nu, cfg.p, cfg.eta)
    result = simulate.compare(stats, exact)
    assert result.z_ebit is None and result.z_conclusive < -3
    assert result.passed is False
