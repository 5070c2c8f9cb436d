import math

import numpy as np
import pytest

from conftest import sparse_from_dense
from spdpeg.model import Dataset, Problem, estimate_lipschitz
from spdpeg.oracles import data_loss, full_gradient, loss_value, stochastic_gradient
from spdpeg.prox import ProxSpec


def dense_dataset(rows, labels):
    return Dataset.from_dense_rows(rows, labels)


def make_problem(loss, d, ridge=0.0, mu=0.0):
    return Problem(loss, ProxSpec("none"), ProxSpec("l1", 0.0),
                   sparse_from_dense(np.eye(d)), ridge=ridge,
                   strong_convexity_mu=mu)


def per_sample_gradient(problem, dataset, x, i):
    # independent dense computation of one sample's gradient
    a = dataset.features.to_dense()[i]
    b = dataset.labels[i]
    m = a @ x
    if problem.loss == "logistic":
        coef = -b / (1.0 + math.exp(b * m))
    else:
        coef = m - b
    return coef * a + problem.ridge * x


def test_logistic_loss_at_zero():
    ds = dense_dataset([[1.0, 0.0]], [1.0])
    p = make_problem("logistic", 2)
    assert loss_value(p, ds, np.zeros(2)) == pytest.approx(math.log(2.0), rel=1e-12)


def test_least_squares_exact_fit():
    ds = dense_dataset([[1.0]], [1.0])
    p = make_problem("least-squares", 1)
    # a=1, b=1 fit exactly at x=1 (labels must be +-1)
    assert loss_value(p, ds, np.array([1.0])) == 0.0
    np.testing.assert_array_equal(full_gradient(p, ds, np.array([1.0])), [0.0])


def test_logistic_large_margin_underflows_cleanly():
    ds = dense_dataset([[1.0]], [1.0])
    p = make_problem("logistic", 1)
    v = loss_value(p, ds, np.array([40.0]))
    assert 0.0 <= v <= 1e-15


def test_logistic_gradient_at_zero():
    ds = dense_dataset([[1.0, 0.0]], [1.0])
    p = make_problem("logistic", 2)
    np.testing.assert_allclose(full_gradient(p, ds, np.zeros(2)), [-0.5, 0.0])


def test_duplicate_samples_average_to_single():
    single = dense_dataset([[0.3, -1.2]], [1.0])
    double = dense_dataset([[0.3, -1.2], [0.3, -1.2]], [1.0, 1.0])
    p = make_problem("logistic", 2)
    x = np.array([0.4, 0.7])
    np.testing.assert_allclose(full_gradient(p, single, x),
                               full_gradient(p, double, x), rtol=1e-15)


@pytest.mark.parametrize("loss", ["logistic", "least-squares"])
@pytest.mark.parametrize("ridge", [0.0, 0.3])
def test_finite_difference_agreement(loss, ridge):
    rng = np.random.default_rng(11)
    feats = rng.standard_normal((30, 5))
    ds = dense_dataset(feats, np.where(rng.random(30) < 0.5, 1.0, -1.0))
    p = make_problem(loss, 5, ridge=ridge)
    eps = 1e-5
    for _ in range(50):
        x = rng.standard_normal(5)
        u = rng.standard_normal(5)
        fd = (loss_value(p, ds, x + eps * u) - loss_value(p, ds, x - eps * u)) / (2 * eps)
        an = full_gradient(p, ds, x) @ u
        assert abs(fd - an) <= max(1e-6, 1e-4 * abs(an))


def test_exact_unbiasedness_identity():
    rng = np.random.default_rng(2)
    feats = rng.standard_normal((40, 6))
    ds = dense_dataset(feats, np.where(rng.random(40) < 0.5, 1.0, -1.0))
    for loss in ("logistic", "least-squares"):
        p = make_problem(loss, 6)
        x = rng.standard_normal(6)
        mean_grad = np.zeros(6)
        for i in range(40):
            mean_grad += per_sample_gradient(p, ds, x, i)
        mean_grad /= 40
        assert np.max(np.abs(mean_grad - full_gradient(p, ds, x))) <= 1e-14


def test_enumerate_all_equals_full_gradient():
    rng = np.random.default_rng(3)
    feats = rng.standard_normal((25, 4))
    ds = dense_dataset(feats, np.where(rng.random(25) < 0.5, 1.0, -1.0))
    p = make_problem("logistic", 4)
    x = rng.standard_normal(4)
    state = rng.bit_generator.state
    g = stochastic_gradient(p, ds, x, rng, batch_size=25, enumerate_all=True)
    np.testing.assert_array_equal(g, full_gradient(p, ds, x))
    assert rng.bit_generator.state == state


def test_stochastic_gradient_deterministic_given_state():
    ds = dense_dataset(np.random.default_rng(0).standard_normal((10, 3)),
                       [1.0, -1.0] * 5)
    p = make_problem("logistic", 3)
    x = np.array([0.1, -0.2, 0.3])
    a = stochastic_gradient(p, ds, x, np.random.default_rng(42), 2)
    b = stochastic_gradient(p, ds, x, np.random.default_rng(42), 2)
    np.testing.assert_array_equal(a, b)


def test_stochastic_gradient_monte_carlo_unbiased():
    rng = np.random.default_rng(5)
    feats = rng.standard_normal((12, 3))
    ds = dense_dataset(feats, np.where(rng.random(12) < 0.5, 1.0, -1.0))
    p = make_problem("logistic", 3)
    x = rng.standard_normal(3)
    n_draws = 100_000
    draw_rng = np.random.default_rng(17)
    acc = np.zeros(3)
    for _ in range(n_draws):
        acc += stochastic_gradient(p, ds, x, draw_rng, 1)
    exact = full_gradient(p, ds, x)
    per_sample = np.stack([per_sample_gradient(p, ds, x, i) for i in range(12)])
    std = per_sample.std(axis=0)
    err = np.abs(acc / n_draws - exact)
    assert np.all(err <= 3.0 * std / math.sqrt(n_draws) + 1e-12)


def test_lipschitz_witness():
    rng = np.random.default_rng(12)
    feats = rng.standard_normal((20, 4))
    ds = dense_dataset(feats, np.where(rng.random(20) < 0.5, 1.0, -1.0))
    for loss in ("logistic", "least-squares"):
        p = make_problem(loss, 4)
        lips = estimate_lipschitz(ds, loss)
        for _ in range(200):
            x1, x2 = rng.standard_normal(4), rng.standard_normal(4)
            dg = np.linalg.norm(full_gradient(p, ds, x1) - full_gradient(p, ds, x2))
            assert dg <= lips * np.linalg.norm(x1 - x2) * (1 + 1e-12) + 1e-15


def test_data_loss_excludes_ridge():
    ds = dense_dataset([[1.0]], [1.0])
    p = make_problem("logistic", 1, ridge=1.0)
    x = np.array([2.0])
    assert loss_value(p, ds, x) == pytest.approx(data_loss("logistic", ds, x) + 2.0)
