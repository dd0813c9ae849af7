import tracemalloc

import numpy as np
import pytest

from cyclonids.dataset import (NUMERIC, CategoricalEncoder, RawDataset, encode_categoricals,
                               kdd99_schema, synthetic_schema)
from cyclonids.errors import ConfigError, DataError
from cyclonids.pca import _BLOCK_ROWS, PCAModel, feature_salience, fit_pca, select_components, transform
from cyclonids.preprocess import fit_standardizer, standardized
from cyclonids.preprocess import transform as standardize
from oracles import power_iteration_eigenvalues

# Frozen 4x3 fixture; expected eigenvalues come from the power-iteration
# oracle at test time, not from the implementation under test.
FIXED_4x3 = np.array([
    [2.0, -1.0, 0.5],
    [0.0, 3.0, 1.5],
    [1.0, 1.0, -2.0],
    [4.0, 0.0, 0.0],
])


def _z(m):
    """The rows the runner hands to PCA: m under a standardizer fitted on m."""
    return standardize(fit_standardizer(m), m)


def _standardized_cov(m):
    s = fit_standardizer(m)
    z = (m - s.means) / s.stds
    z[:, s.zero_variance_flags] = 0.0
    return np.atleast_2d(np.cov(z, rowvar=False, ddof=1))


def test_perfectly_correlated_columns():
    y1 = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    m = np.column_stack([y1, 2.0 * y1])
    model = fit_pca(_z(m))
    assert abs(model.explained_variance_ratio[0] - 1.0) < 1e-10
    assert model.eigenvalues[1] < 1e-10


def test_exact_identity_covariance_gives_uniform_ratios():
    rng = np.random.default_rng(8)
    raw = rng.standard_normal((200, 4))
    z = (raw - raw.mean(0)) / raw.std(0, ddof=1)
    cov = np.cov(z, rowvar=False, ddof=1)
    # whiten so the standardized covariance is exactly the identity
    vals, vecs = np.linalg.eigh(cov)
    white = z @ vecs @ np.diag(vals ** -0.5) @ vecs.T
    model = fit_pca(_z(white))
    assert np.allclose(model.explained_variance_ratio, 0.25, atol=1e-8)


def test_fixed_matrix_matches_eigen_oracle():
    model = fit_pca(_z(FIXED_4x3))
    oracle = power_iteration_eigenvalues(_standardized_cov(FIXED_4x3))
    assert np.max(np.abs(model.eigenvalues - oracle)) < 1e-6


def test_oracle_equivalence_on_random_matrices():
    rng = np.random.default_rng(0)
    for _ in range(30):
        n = int(rng.integers(2, 21))
        p = int(rng.integers(1, 6))
        m = rng.standard_normal((n, p)) * rng.uniform(0.5, 2.0, p) + rng.uniform(-3, 3, p)
        model = fit_pca(_z(m))
        oracle = power_iteration_eigenvalues(_standardized_cov(m))
        assert np.max(np.abs(model.eigenvalues - oracle)) < 1e-6


def test_full_rank_reconstruction():
    rng = np.random.default_rng(1)
    m = rng.standard_normal((25, 6))
    s = fit_standardizer(m)
    x = standardize(s, m)
    model = fit_pca(x)
    scores = transform(model, x, model.p)
    recon = scores @ model.loadings.T
    z = (m - s.means) / s.stds
    assert np.max(np.abs(recon - z)) < 1e-8


def test_row_of_means_scores_zero():
    rng = np.random.default_rng(2)
    m = rng.standard_normal((15, 3)) + 5.0
    s = fit_standardizer(m)
    model = fit_pca(standardize(s, m))
    scores = transform(model, standardize(s, s.means.reshape(1, -1)), 3)
    assert np.max(np.abs(scores)) < 1e-10


def test_score_variances_equal_eigenvalues():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((60, 4)) @ rng.standard_normal((4, 4))
    x = _z(m)
    model = fit_pca(x)
    scores = transform(model, x, 4)
    variances = scores.var(axis=0, ddof=1)
    assert np.max(np.abs(variances - model.eigenvalues)) < 1e-6


def test_orthonormality_and_trace():
    rng = np.random.default_rng(4)
    m = rng.standard_normal((30, 5))
    model = fit_pca(_z(m))
    gram = model.loadings.T @ model.loadings
    assert np.max(np.abs(gram - np.eye(5))) < 1e-8
    cov = _standardized_cov(m)
    assert abs(model.eigenvalues.sum() - np.trace(cov)) < 1e-8


def test_sign_convention():
    rng = np.random.default_rng(5)
    m = rng.standard_normal((40, 5))
    model = fit_pca(_z(m))
    for j in range(model.p):
        column = model.loadings[:, j]
        assert column[np.argmax(np.abs(column))] >= 0.0


def _fabricated_model(ratios):
    ratios = np.asarray(ratios, dtype=float)
    p = len(ratios)
    return PCAModel(loadings=np.eye(p),
                    eigenvalues=ratios * p, explained_variance_ratio=ratios)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_fit_on_rows_holding_nan_or_inf_is_a_data_error(bad):
    m = np.arange(12.0).reshape(4, 3)
    m[2, 1] = bad
    with np.errstate(invalid="ignore"), pytest.raises(
            DataError, match="feature matrix contains NaN or infinite entries"):
        fit_pca(m)


def test_select_components_examples():
    model = _fabricated_model([0.7, 0.2, 0.1])
    assert select_components(model, 0.9) == 2
    assert select_components(model, 1.0) == 3
    assert select_components(_fabricated_model([1.0, 0.0, 0.0]), 0.5) == 1
    assert select_components(_fabricated_model([1.0, 0.0, 0.0]), 1.0) == 1


def test_select_components_errors():
    model = _fabricated_model([0.6, 0.4])
    with pytest.raises(ConfigError):
        select_components(model, 0.0)
    with pytest.raises(ConfigError):
        select_components(model, 1.5)


def test_salience_single_varying_column():
    rng = np.random.default_rng(6)
    m = np.ones((20, 4)) * 3.0
    m[:, 2] = rng.standard_normal(20)
    ranked = feature_salience(fit_pca(_z(m)))
    assert ranked[0][0] == 2


def test_salience_tie_break_by_index():
    # two exactly mirrored independent columns: symmetric salience
    base = np.array([1.0, -1.0, 2.0, -2.0])
    m = np.column_stack([base, base[::-1]])
    ranked = feature_salience(fit_pca(_z(m)))
    assert abs(ranked[0][1] - ranked[1][1]) < 1e-12
    assert [r[0] for r in ranked] == [0, 1]


def test_transform_errors():
    model = fit_pca(_z(np.arange(12, dtype=float).reshape(4, 3) ** 1.5))
    with pytest.raises(ConfigError):
        transform(model, np.zeros((2, 3)), 0)
    with pytest.raises(ConfigError):
        transform(model, np.zeros((2, 3)), 4)
    with pytest.raises(DataError):
        transform(model, np.zeros((2, 5)), 2)
    with pytest.raises(DataError):
        transform(model, np.zeros(3), 2)
    with pytest.raises(DataError):
        fit_pca(np.zeros((1, 3)))


def test_fit_holds_one_centred_copy_of_its_input():
    m = _z(np.random.default_rng(21).standard_normal((20000, 50)))
    tracemalloc.start()
    try:
        fit_pca(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.3 * m.nbytes, f"peak {peak / m.nbytes:.2f} x the input"


@pytest.mark.parametrize("n", [300, _BLOCK_ROWS, 2 * _BLOCK_ROWS + 37])
def test_blocked_covariance_matches_numpy_cov(n):
    rng = np.random.default_rng(n)
    x = rng.standard_normal((n, 12)) * np.linspace(0.1, 30.0, 12) + np.linspace(-5.0, 40.0, 12)
    x[:, 3] = 2.0 * x[:, 1] - x[:, 7]  # one exact linear dependency
    model = fit_pca(x)
    cov = (model.loadings * model.eigenvalues) @ model.loadings.T
    reference = np.cov(x, rowvar=False)
    assert np.abs(cov - reference).max() <= 1e-12 * np.abs(reference).max()


def test_fit_holds_no_centred_copy_of_its_input():
    # One block of centred rows at a time: 4096 of 20,000 rows is 0.2 x the input.
    m = _z(np.random.default_rng(21).standard_normal((20000, 50)))
    tracemalloc.start()
    try:
        fit_pca(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * m.nbytes, f"peak {peak / m.nbytes:.2f} x the input"


def test_transform_projects_a_block_of_rows_at_a_time(monkeypatch):
    # Products of at most _BLOCK_ROWS rows keep OpenBLAS from starting its worker threads.
    rng = np.random.default_rng(8)
    m = _z(rng.standard_normal((2 * _BLOCK_ROWS + 37, 12)) @ rng.standard_normal((12, 12)))
    model, k = fit_pca(m), 5
    rows = []
    matmul = np.matmul

    def counting_matmul(a, b, **kwargs):
        rows.append(len(a))
        return matmul(a, b, **kwargs)

    monkeypatch.setattr(np, "matmul", counting_matmul)
    got = transform(model, m, k)
    monkeypatch.undo()
    assert rows == [_BLOCK_ROWS, _BLOCK_ROWS, 37]
    expected = m @ model.loadings[:, :k]
    assert got.shape == expected.shape
    assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()


def _raw(schema, n, seed):
    """n parsed rows in ``schema``'s layout: numeric columns whose values span six orders
    of magnitude (so the order of a sum shows in its bits), one of them constant, and
    tokens from small vocabularies."""
    rng = np.random.default_rng(seed)
    columns = []
    for j, col in enumerate(schema.feature_columns()):
        if col.kind == NUMERIC:
            columns.append(np.full(n, 7.25) if j == 5 else
                           rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3, n) + rng.uniform(-50, 50))
        else:
            tokens = np.array([f"{col.name}{v}" for v in range(int(rng.integers(2, 30)))], dtype=object)
            columns.append(tokens[rng.integers(len(tokens), size=n)])
    return RawDataset(schema, columns, rng.integers(len(schema.class_names), size=n))


def _blocked_covariance(z):
    """np.cov(z, rowvar=False), its centred cross-products summed over blocks of
    ``_BLOCK_ROWS`` rows of the whole matrix."""
    mean = z.mean(axis=0)
    cov = np.zeros((z.shape[1], z.shape[1]))
    for start in range(0, len(z), _BLOCK_ROWS):
        block = z[start:start + _BLOCK_ROWS] - mean
        cov += block.T @ block
    cov *= np.true_divide(1, len(z) - 1)
    return cov


@pytest.mark.parametrize("n", [2, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 2 * _BLOCK_ROWS + 1])
@pytest.mark.parametrize("layout", ["kdd99", "one_column"])
def test_fit_from_encoded_blocks_matches_the_whole_matrix(monkeypatch, n, layout):
    """The PCA path's fit, which reads the split encoded and standardized a block at a
    time, gives the standardizer and the PCA model that the whole encoded matrix gives,
    bit for bit, at and around the block boundaries: numpy's own column means and
    standard deviations, and the covariance summed over blocks of the whole matrix.
    One column numpy sums pairwise, so it is read in one block of all rows."""
    schema = kdd99_schema() if layout == "kdd99" else synthetic_schema(["f0"], ["a", "b"])
    raw = _raw(schema, n, seed=n)
    encoded = encode_categoricals(raw, "onehot")
    rows, matrix = encoded.features, encoded.dataset().features
    assert matrix.shape == (n, 1 if layout == "one_column" else rows.p)

    whole, blocked = fit_standardizer(matrix), fit_standardizer(rows)
    assert blocked.to_text() == whole.to_text()
    assert np.array_equal(blocked.means, matrix.mean(axis=0))
    assert np.array_equal(blocked.stds, np.where(blocked.zero_variance_flags, 1.0,
                                                 matrix.std(axis=0, ddof=1)))
    z = standardize(whole, matrix)
    covariances, eigh = [], np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda cov: covariances.append(cov.copy()) or eigh(cov))
    whole_model, blocked_model = fit_pca(z), fit_pca(standardized(blocked, rows))
    assert blocked_model.to_text() == whole_model.to_text()
    assert covariances[1].tobytes() == _blocked_covariance(z).tobytes()
    k = max(1, blocked_model.p // 3)
    assert (transform(blocked_model, standardized(blocked, rows), k).tobytes()
            == transform(whole_model, z, k).tobytes())


@pytest.mark.parametrize("strategy", ["onehot", "ordinal"])
def test_encoder_fills_any_row_range_as_the_whole_matrix_holds_it(strategy):
    raw = _raw(kdd99_schema(), 3 * _BLOCK_ROWS + 5, seed=4)
    fitted_on = RawDataset(raw.schema, [c[:500] for c in raw.columns], raw.labels[:500])
    encoder = CategoricalEncoder(strategy, fitted_on)  # later rows hold unseen tokens too
    encoded = encode_categoricals(raw, encoder)
    rows, matrix = encoded.features, encoded.dataset().features
    assert (rows.n, rows.p) == matrix.shape
    buffer = np.full((_BLOCK_ROWS + 9, rows.p), np.nan)
    for start, stop in ((0, 1), (3, 700), (_BLOCK_ROWS - 2, 2 * _BLOCK_ROWS + 7), (rows.n - 4, rows.n)):
        out = rows.fill(start, stop, buffer[:stop - start])
        assert out.tobytes() == matrix[start:stop].tobytes()
