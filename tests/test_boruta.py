import math

import numpy as np
import pytest
from scipy import stats

from cyclonids.boruta import (BorutaConfig, FeatureDecision, augment_with_shadows,
                              binomial_upper_tails, run_boruta, z_scores)
from cyclonids.errors import ConfigError, DataError
from cyclonids.synthgen import SynthConfig, gen_classification


def _decided(result, status):
    return {i for i, d in enumerate(result.decisions) if d is status}


# ------------------------------------------------------------ shadows

def test_shadow_is_permutation_of_source():
    m = np.array([[1.0], [2.0], [3.0]])
    out = augment_with_shadows(m, np.random.default_rng(0))
    assert out.shape == (3, 2)
    assert sorted(out[:, 1].tolist()) == [1.0, 2.0, 3.0]
    assert np.array_equal(out[:, 0], m[:, 0])


def test_constant_column_shadow_identical():
    m = np.full((5, 1), 7.0)
    out = augment_with_shadows(m, np.random.default_rng(1))
    assert np.array_equal(out[:, 1], m[:, 0])


def test_shadow_multisets_and_means_match():
    rng = np.random.default_rng(2)
    m = rng.standard_normal((50, 4)) * 3.0 + 1.0
    out = augment_with_shadows(m, rng)
    for j in range(4):
        assert np.array_equal(np.sort(out[:, 4 + j]), np.sort(m[:, j]))
    assert np.allclose(out[:, 4:].mean(axis=0), m.mean(axis=0), rtol=0, atol=1e-12)


def test_shadow_columns_permuted_independently():
    rng = np.random.default_rng(3)
    m = np.column_stack([np.arange(30.0), np.arange(30.0)])
    out = augment_with_shadows(m, rng)
    assert not np.array_equal(out[:, 2], out[:, 3])


# ------------------------------------------------------------ z-scores

def test_z_scores_hand_computed():
    z = z_scores(np.array([[0.1], [0.3]]))
    assert z[0] == pytest.approx(math.sqrt(2.0))


def test_z_scores_constant_importance_is_inf():
    z = z_scores(np.full((3, 1), 0.2))
    assert z[0] == math.inf


def test_z_scores_all_zero_importance_is_zero():
    z = z_scores(np.zeros((4, 2)))
    assert z.tolist() == [0.0, 0.0]


def test_z_scores_too_few_trees():
    with pytest.raises(DataError):
        z_scores(np.array([[0.1, 0.2]]))


# ------------------------------------------------------------ binomial test

ALPHAS = (0.001, 0.01, 0.05, 0.1, 0.2, 0.5)


def test_binomial_tails_match_scipy_decisions_and_values():
    for t in range(1, 301):
        tails = binomial_upper_tails(t)
        assert tails.shape == (t + 1,)
        k = np.arange(t + 1)
        high, low = tails, tails[::-1]  # P(X >= k) and P(X <= k) = P(X >= t - k)
        ref_high, ref_low = stats.binom.sf(k - 1, t, 0.5), stats.binom.cdf(k, t, 0.5)
        np.testing.assert_allclose(high, ref_high, rtol=1e-12, atol=0)
        np.testing.assert_allclose(low, ref_low, rtol=1e-12, atol=0)
        for alpha in ALPHAS:
            assert np.array_equal(high <= alpha / 2, ref_high <= alpha / 2), (t, alpha)
            assert np.array_equal(low <= alpha / 2, ref_low <= alpha / 2), (t, alpha)


def test_binomial_tails_hand_computed():
    assert binomial_upper_tails(1).tolist() == [1.0, 0.5]
    assert binomial_upper_tails(3).tolist() == [1.0, 7 / 8, 4 / 8, 1 / 8]


def test_binomial_tails_beyond_float_range_of_two_to_the_t():
    t = 2000  # 2**t overflows a double; the tails themselves reach subnormals and 0
    tails = binomial_upper_tails(t)
    ref = stats.binom.sf(np.arange(t + 1) - 1, t, 0.5)
    assert tails[0] == 1.0 and tails[-1] == 0.0 and np.all(np.diff(tails) <= 0)
    # scipy's own error reaches about 2.4e-13 relative here; atol covers subnormals.
    np.testing.assert_allclose(tails, ref, rtol=1e-11, atol=1e-300)
    for alpha in ALPHAS:
        assert np.array_equal(tails <= alpha / 2, ref <= alpha / 2)


# ------------------------------------------------------------ run_boruta

def test_planted_feature_recovery_single_seed():
    d, informative = gen_classification(SynthConfig(500, 3, 7, 2, 5.0, seed=0))
    result = run_boruta(d, BorutaConfig(max_iterations=20, alpha=0.05, seed=0))
    confirmed = _decided(result, FeatureDecision.CONFIRMED)
    rejected = _decided(result, FeatureDecision.REJECTED)
    noise = set(range(10)) - informative
    assert informative <= confirmed
    assert len(rejected & noise) >= 6
    assert result.iterations_used <= 20
    # every iteration's shadows, drawn from run_boruta's own streams, permute their sources
    for t in range(1, result.iterations_used + 1):
        rng = np.random.default_rng([0, t])
        rng.integers(0, 2**31 - 1)  # the iteration's forest seed comes first
        augmented = augment_with_shadows(d.features, rng)
        for j in range(d.p):
            assert np.array_equal(np.sort(augmented[:, d.p + j]), np.sort(d.features[:, j]))


def test_no_signal_gives_no_confirmations():
    failures = 0
    for seed in range(10):
        d, _ = gen_classification(SynthConfig(300, 2, 4, 2, 0.0, seed=seed))
        result = run_boruta(d, BorutaConfig(max_iterations=15, seed=seed))
        failures += result.n_confirmed > 0
    assert failures <= 1


def test_result_invariants():
    d, _ = gen_classification(SynthConfig(400, 2, 4, 2, 3.0, seed=21))
    cfg = BorutaConfig(max_iterations=12, seed=21)
    result = run_boruta(d, cfg)
    assert len(result.decisions) == d.p  # shadow neutrality
    assert result.iterations_used <= cfg.max_iterations
    assert np.all(result.hits <= result.iterations_used)
    assert result.n_confirmed + result.n_tentative + result.n_rejected == d.p
    assert len(result.z_history) == result.iterations_used
    assert result.elapsed > 0.0
    for z_real, mzs in result.z_history:
        assert len(z_real) == d.p
        assert isinstance(mzs, float)


def test_decided_is_final_prefix_property():
    # iteration streams are keyed by (seed, t), so a shorter run is a prefix
    # of a longer one; decisions made early must persist
    d, _ = gen_classification(SynthConfig(400, 3, 5, 2, 4.0, seed=22))
    short = run_boruta(d, BorutaConfig(max_iterations=8, seed=22))
    long = run_boruta(d, BorutaConfig(max_iterations=20, seed=22))
    for status in (FeatureDecision.CONFIRMED, FeatureDecision.REJECTED):
        assert _decided(short, status) <= _decided(long, status)
    assert np.array_equal(short.z_history[0][0], long.z_history[0][0])


def test_selected_indices_are_confirmed():
    d, _ = gen_classification(SynthConfig(400, 2, 4, 2, 4.0, seed=23))
    result = run_boruta(d, BorutaConfig(seed=23))
    assert result.selected_indices() == sorted(_decided(result, FeatureDecision.CONFIRMED))


def test_early_stop_when_everything_decided():
    d, _ = gen_classification(SynthConfig(500, 2, 1, 2, 8.0, seed=24))
    result = run_boruta(d, BorutaConfig(max_iterations=50, seed=24))
    assert result.n_tentative == 0
    assert result.iterations_used < 50


def test_config_validation():
    with pytest.raises(ConfigError):
        run_boruta_dummy(alpha=0.0)
    with pytest.raises(ConfigError):
        run_boruta_dummy(alpha=0.75)
    with pytest.raises(ConfigError):
        run_boruta_dummy(max_iterations=0)


def run_boruta_dummy(**kwargs):
    d, _ = gen_classification(SynthConfig(40, 1, 1, 2, 1.0, seed=0))
    return run_boruta(d, BorutaConfig(**kwargs))
