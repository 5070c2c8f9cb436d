import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import csr_dataset, fingerprint, sparse_from_dense
from spdpeg.data import synthesize
from spdpeg.model import (Dataset, Problem, SolverConfig, compute_L_tilde,
                          estimate_lipschitz)
from spdpeg.penalties import precision_graph_from_data
from spdpeg.prox import ProxSpec

EYE2 = sparse_from_dense(np.eye(2))


def make_dataset(rows, labels, d):
    """Dataset of the nonzeros of ``rows`` in d features."""
    m = sparse_from_dense(rows)
    return csr_dataset(m.row_offsets, m.col_indices, m.values, labels, d)


def test_dataset_roundtrips_samples():
    ds = make_dataset([[1.0, 0.0], [0.5, -2.0]], [1.0, -1.0], 2)
    assert ds.n_samples == 2 and ds.dimension == 2
    np.testing.assert_array_equal(ds.features.to_dense(), [[1.0, 0.0], [0.5, -2.0]])
    np.testing.assert_array_equal(ds.labels, [1.0, -1.0])


def test_dataset_rejects_empty_and_bad_labels():
    with pytest.raises(ValueError):
        Dataset.from_dense_rows(np.zeros((0, 2)), [])
    with pytest.raises(ValueError):
        csr_dataset([0, 1], [0], [1.0], [2.0], 1)


def test_dataset_needs_one_label_per_row():
    features = sparse_from_dense([[1.0, 0.0], [0.0, 2.0]])
    Dataset(features, [1.0, -1.0])
    for labels in ([1.0], [1.0, -1.0, 1.0], [[1.0, -1.0]]):
        with pytest.raises(ValueError, match="one label per feature row"):
            Dataset(features, labels)


# two rows over three features: [1, 0, 2] and [0, 3, 0]
GOOD_CSR = dict(indptr=[0, 2, 3], indices=[0, 2, 1], data=[1.0, 2.0, 3.0],
                labels=[1.0, -1.0], dimension=3)


@pytest.mark.parametrize("bad", [
    pytest.param(dict(indptr=[0, 2]), id="indptr-length"),
    pytest.param(dict(indptr=[1, 2, 3]), id="indptr-start"),
    pytest.param(dict(indptr=[0, 4, 3]), id="indptr-order"),
    pytest.param(dict(indptr=[0, 2, 4]), id="nnz-mismatch"),
    pytest.param(dict(data=[1.0, 2.0]), id="size-mismatch"),
    pytest.param(dict(indices=[-1, 2, 1]), id="index-negative"),
    pytest.param(dict(indices=[0, 3, 1]), id="index-beyond-d"),
    pytest.param(dict(indices=[2, 2, 1]), id="index-repeated"),
    pytest.param(dict(indices=[2, 0, 1]), id="index-decreasing"),
    pytest.param(dict(data=[1.0, np.nan, 3.0]), id="value-nan"),
    pytest.param(dict(data=[1.0, 2.0, -np.inf]), id="value-inf"),
    pytest.param(dict(dimension=-1), id="dimension-negative"),
    pytest.param(dict(indptr=[0], indices=[], data=[], labels=[]), id="no-labels"),
    pytest.param(dict(labels=[1.0, 0.0]), id="label-not-pm1"),
])
def test_dataset_rejects_malformed_csr(bad):
    csr_dataset(**GOOD_CSR)
    with pytest.raises(ValueError):
        csr_dataset(**{**GOOD_CSR, **bad})


def test_dataset_fields_are_the_feature_matrix():
    ds = csr_dataset(**GOOD_CSR)
    f = ds.features
    assert (ds.indptr is f.row_offsets and ds.indices is f.col_indices
            and ds.data is f.values and ds.row_ids is f.row_ids)
    assert (f.n_rows, f.n_cols) == (ds.n_samples, ds.dimension) == (2, 3)
    np.testing.assert_array_equal(f.to_dense(), [[1.0, 0.0, 2.0], [0.0, 3.0, 0.0]])


def test_from_dense_rows_stores_every_feature():
    ds = Dataset.from_dense_rows([[1.0, 0.0], [0.0, -2.0], [3.0, 4.0]],
                                 [1.0, -1.0, 1.0])
    np.testing.assert_array_equal(ds.indptr, [0, 2, 4, 6])
    np.testing.assert_array_equal(ds.indices, [0, 1, 0, 1, 0, 1])
    np.testing.assert_array_equal(ds.data, [1.0, 0.0, 0.0, -2.0, 3.0, 4.0])
    assert ds.dense_rows is not None and ds.dimension == 2
    with pytest.raises(ValueError, match="2-D"):
        Dataset.from_dense_rows([1.0, 2.0], [1.0])


# generated with the implementation that predates Dataset.features; they pin
# the bytes a dataset holds, hashed by ``conftest.fingerprint``
DATASET_FINGERPRINTS = {
    "ragged": "88803a6f3079d89aea20d243b70602d731f6acd815b703d5d82c22d772d6a829",
    "fused-signal": "99d5eec74c750f0d8357b913066469634b9ea127d80d91be10bafe98e560027d",
}


def test_dataset_fingerprint_is_pinned():
    # three rows over four features, the middle one empty
    ragged = csr_dataset([0, 2, 2, 5], [0, 3, 1, 2, 3],
                         [1.5, -2.0, 0.25, 3.0, -1.0], [1.0, -1.0, 1.0], 4)
    dense, _, _ = synthesize("fused-signal", d=5, n=7, noise=0.1, seed=3)
    assert fingerprint(ragged) == DATASET_FINGERPRINTS["ragged"]
    assert fingerprint(dense) == DATASET_FINGERPRINTS["fused-signal"]


def test_dataset_rejects_index_beyond_dimension():
    with pytest.raises(ValueError):
        make_dataset([[0.0, 1.0]], [1.0], 1)


def test_subset_preserves_rows():
    ds = make_dataset([[1.0, 0.0], [0.0, 2.0], [3.0, 4.0]], [1.0, -1.0, 1.0], 2)
    sub = ds.subset([2, 0])
    np.testing.assert_array_equal(sub.features.to_dense(), [[3.0, 4.0], [1.0, 0.0]])
    np.testing.assert_array_equal(sub.labels, [1.0, 1.0])


def test_problem_requires_l1_composed_term():
    with pytest.raises(ValueError, match="l1"):
        Problem("logistic", ProxSpec("none"), ProxSpec("none"), EYE2)


def test_problem_mu_needs_folded_ridge():
    with pytest.raises(ValueError, match="strong_convexity_mu"):
        Problem("logistic", ProxSpec("none"), ProxSpec("l1", 1.0), EYE2,
                strong_convexity_mu=0.1)
    Problem("logistic", ProxSpec("none"), ProxSpec("l1", 1.0), EYE2,
            ridge=0.1, strong_convexity_mu=0.1)


def test_config_validation():
    good = dict(gamma=1.0, regime="convex", max_iters=10, seed=3,
                lipschitz_L=1.0, sigma_max_FtF=0.0)
    SolverConfig(**good)
    for bad in (dict(gamma=0.0), dict(regime="fast"), dict(max_iters=0),
                dict(seed=-1), dict(seed=2 ** 64), dict(lipschitz_L=0.0),
                dict(sigma_max_FtF=-1.0), dict(batch_size=0), dict(eval_every=0)):
        with pytest.raises(ValueError):
            SolverConfig(**{**good, **bad})


NAN = float("nan")
GOOD_CONFIG = dict(gamma=1.0, regime="convex", max_iters=10, seed=3,
                   lipschitz_L=1.0, sigma_max_FtF=0.0)


def _problem(**kwargs) -> Problem:
    return Problem("logistic", ProxSpec("none"), ProxSpec("l1", 1.0), EYE2,
                   ridge=0.1, **kwargs)


@pytest.mark.parametrize("build,message", [
    (lambda: SolverConfig(**{**GOOD_CONFIG, "gamma": NAN}), "gamma must be positive"),
    (lambda: SolverConfig(**{**GOOD_CONFIG, "lipschitz_L": NAN}),
     "lipschitz_L must be positive"),
    (lambda: SolverConfig(**{**GOOD_CONFIG, "sigma_max_FtF": NAN}),
     "sigma_max_FtF must be >= 0"),
    (lambda: _problem(strong_convexity_mu=NAN), "strong_convexity_mu must be >= 0"),
    (lambda: _problem(feasible_radius=NAN), "feasible_radius must be positive"),
    (lambda: compute_L_tilde(NAN, 1.0, 1.0, 0.0), "gamma must be positive"),
    (lambda: precision_graph_from_data(synthesize("fused-signal", 4, 20, 0.1, 0)[0],
                                       NAN, 1e-3), "ridge and threshold must be positive"),
    (lambda: precision_graph_from_data(synthesize("fused-signal", 4, 20, 0.1, 0)[0],
                                       1e-2, NAN), "ridge and threshold must be positive"),
], ids=["config-gamma", "config-lipschitz_L", "config-sigma_max_FtF", "problem-mu",
        "problem-feasible_radius", "L_tilde-gamma", "precision-ridge",
        "precision-threshold"])
def test_a_nan_fails_each_positivity_check(build, message):
    # a NaN compares false with anything, so each check is written as
    # "not v > 0" (or "not v >= 0"), which it fails
    with pytest.raises(ValueError, match=message):
        build()


def test_L_tilde_examples():
    # first branch dominates: max(8*0.5*3, sqrt(8*4+1.5)) = max(12, 5.788)
    assert compute_L_tilde(0.5, 3.0, 2.0, 0.0) == 12.0
    assert compute_L_tilde(1.0, 0.0, 0.0, 0.0) == 0.0
    assert compute_L_tilde(1.0, 0.0, 1.0, 1.0) == pytest.approx(math.sqrt(8) + 1)


@settings(max_examples=200, deadline=None)
@given(*(st.floats(0.01, 50.0) for _ in range(3)), st.floats(0.0, 50.0),
       st.floats(0.0, 1.0), st.integers(0, 3))
def test_L_tilde_monotone(gamma, sigma, lips, mu, bump, which):
    base = compute_L_tilde(gamma, sigma, lips, mu)
    args = [gamma, sigma, lips, mu]
    args[which] += bump
    assert compute_L_tilde(*args) >= base - 1e-12


def test_estimate_lipschitz():
    ds = make_dataset([[2.0, 0.0], [1.0, 1.0]], [1.0, -1.0], 2)
    assert estimate_lipschitz(ds, "logistic") == pytest.approx(1.0)
    assert estimate_lipschitz(ds, "least-squares") == pytest.approx(4.0)
    zero = csr_dataset([0, 0], [], [], [1.0], 2)
    assert estimate_lipschitz(zero, "logistic") == 0.0
    with pytest.raises(ValueError):
        estimate_lipschitz(ds, "hinge")


def test_fingerprint_distinguishes_datasets():
    a = make_dataset([[1.0, 0.0]], [1.0], 2)
    b = make_dataset([[1.0, 0.0]], [-1.0], 2)
    assert fingerprint(a) != fingerprint(b)
    assert fingerprint(a) == fingerprint(make_dataset([[1.0, 0.0]], [1.0], 2))
