import math

import numpy as np
import pytest

from conftest import (logaddexp_logistic_losses, reference_full_pass,
                      sparse_from_dense)
from spdpeg import oracles
from spdpeg.model import Dataset, Problem, estimate_lipschitz
from spdpeg.oracles import data_loss, full_gradient, loss_value, stochastic_gradient
from spdpeg.prox import ProxSpec


def dense_dataset(rows, labels):
    return Dataset.from_dense_rows(rows, labels)


def make_problem(loss, d, ridge=0.0):
    return Problem(loss, ProxSpec("none"), ProxSpec("l1", 0.0),
                   sparse_from_dense(np.eye(d)), ridge=ridge)


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


# logistic loss arguments t = -b*m at which the split form and logaddexp
# must agree to the bit: signed zeros, infinities, NaN, large magnitudes,
# subnormal inputs and arguments whose loss is subnormal
LOSS_EDGES = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 800.0, -800.0,
                       5e-324, -5e-324, 2.0 ** -1040, -(2.0 ** -1040),
                       2.2250738585072014e-308, -2.2250738585072014e-308,
                       -709.8, -740.0, -745.1, -746.0, 1e300, -1e300])


def split_softplus(t):
    """log(1 + exp(t)) in the split form, each step a fresh array."""
    return np.maximum(t, 0.0) + np.log1p(np.exp(-np.abs(t)))


def _logistic_arguments(n, seed):
    # margins at the scales a trace meets, and far out in both tails
    rng = np.random.default_rng(seed)
    scale = rng.choice([0.1, 1.0, 5.0, 40.0, 300.0], size=n)
    return rng.standard_normal(n) * scale


def test_logistic_loss_is_the_split_expression():
    rng = np.random.default_rng(31)
    n = 80_000
    labels = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    m = _logistic_arguments(n, 32)
    labels_in, m_in = labels.copy(), m.copy()
    want = split_softplus(-labels * m)
    assert oracles._softplus(-labels * m).tobytes() == want.tobytes()
    got = oracles.loss_from_margins("logistic", labels, m)
    assert got.hex() == float(np.mean(want)).hex()
    # the margins are reused for the accuracy, so they must stay
    assert labels.tobytes() == labels_in.tobytes()
    assert m.tobytes() == m_in.tobytes()
    ls = oracles.loss_from_margins("least-squares", labels, m)
    assert ls.hex() == float(0.5 * np.mean((m - labels) ** 2)).hex()


def _ulps(a, b):
    # both are losses, >= +0.0, so their bit patterns are ordered like them
    return np.abs(a.view(np.int64) - b.view(np.int64))


def test_logistic_loss_is_within_4_ulp_of_logaddexp():
    rng = np.random.default_rng(33)
    n = 200_000
    labels = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    m = _logistic_arguments(n, 34)
    want = logaddexp_logistic_losses(labels, m)
    got = oracles._softplus(-labels * m)
    assert _ulps(got, want).max() <= 4
    loss = oracles.loss_from_margins("logistic", labels, m)
    assert abs(loss - float(np.mean(want))) <= 4 * math.ulp(loss)


def test_logistic_loss_edge_cases_match_logaddexp():
    with np.errstate(invalid="ignore"):
        want = logaddexp_logistic_losses(-np.ones(LOSS_EDGES.size), LOSS_EDGES)
    got = oracles._softplus(LOSS_EDGES.copy())
    assert np.isnan(got[4]) and np.isnan(want[4])
    keep = ~np.isnan(want)
    assert got[keep].tobytes() == want[keep].tobytes()
    assert got[keep].tobytes() == split_softplus(LOSS_EDGES[keep]).tobytes()
    assert 0.0 < got[LOSS_EDGES == -740.0][0] < 2.2250738585072014e-308
    for t, loss in zip(LOSS_EDGES[keep], got[keep]):
        # one margin of label -1: t = m
        one = oracles.loss_from_margins("logistic", np.array([-1.0]),
                                        np.array([t]))
        assert one.hex() == float(loss).hex(), t


def test_softplus_bits_do_not_depend_on_layout():
    """The canary of ``_softplus``'s rounding contract. numpy's vectorised
    ``exp`` and ``log1p`` run SIMD loops over the body of an array and may
    take another path at its ends, on unaligned or strided memory, or in
    place. Each element must get the bits it gets in the split form over
    the whole contiguous array (a NaN only stays NaN), or a trace's loss
    would depend on where its margins sit."""
    t = np.concatenate([_logistic_arguments(80_000 - LOSS_EDGES.size, 35),
                        LOSS_EDGES])
    want = split_softplus(t)
    layouts = {"length-1 slices": np.concatenate(
        [oracles._softplus(t[i:i + 1].copy()) for i in range(t.size)])}
    for offset in range(1, 9):
        buf = t.copy()
        layouts[f"offset {offset}"] = np.concatenate(
            [want[:offset], oracles._softplus(buf[offset:])])
    for stride in (2, 3, 7):
        for start in (0, 1):
            buf = t.copy()
            oracles._softplus(buf[start::stride])
            got = want.copy()
            got[start::stride] = buf[start::stride]
            layouts[f"stride {stride} from {start}"] = got
    layouts["in place on a copy"] = oracles._softplus(t.copy())
    nan = np.isnan(want)
    for name, got in layouts.items():
        # a NaN stays NaN; its sign and payload are no loss value
        differ = np.flatnonzero((got.view(np.int64) != want.view(np.int64))
                                & ~(nan & np.isnan(got)))
        assert differ.size == 0, (
            f"numpy {np.__version__} "
            f"({np.show_config(mode='dicts')['SIMD Extensions']}): "
            f"{differ.size} losses change bits under {name}, first at "
            f"t={t[differ[0]]!r}: {got[differ[0]]!r} != {want[differ[0]]!r}")


# margins a logistic full pass must take bit for bit: signed zeros, +-800
# (a saturated sigmoid), the smallest subnormal and others near it
EDGE_MARGINS = np.array([0.0, -0.0, 800.0, -800.0, 5e-324, -5e-324, 1e-310,
                         -1e-310, 2.2e-308, -2.2e-308, 36.0, -36.0])


def edge_datasets(n, d, seed):
    """A dense-row dataset and a CSR one (about a third of the entries
    dropped) whose margins at ``e_0`` are the first column, which cycles
    through ``EDGE_MARGINS``; the other columns are random."""
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((n, d))
    rows[:, 0] = np.resize(EDGE_MARGINS, n)
    labels = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    sparse = np.where(rng.random((n, d)) < 0.35, 0.0, rows)
    sparse[:, 0] = rows[:, 0]
    return (dense_dataset(rows, labels),
            Dataset(sparse_from_dense(sparse), labels))


@pytest.mark.parametrize("n", [1, 2, 200])
@pytest.mark.parametrize("d", [1, 2, 20])
@pytest.mark.parametrize("loss", ["logistic", "least-squares"])
@pytest.mark.parametrize("ridge", [0.0, 0.3])
def test_full_pass_is_bitwise_the_coefs_over_n(n, d, loss, ridge):
    problem = make_problem(loss, d, ridge=ridge)
    rng = np.random.default_rng(n * 100 + d)
    points = [np.eye(d)[0], -np.eye(d)[0], np.zeros(d)]
    points += [scale * rng.standard_normal(d) for scale in (0.1, 1.0, 30.0)
               for _ in range(4)]
    for dataset in edge_datasets(n, d, seed=n + d):
        for x in points:
            want = reference_full_pass(problem, dataset, x).tobytes()
            assert full_gradient(problem, dataset, x).tobytes() == want
            enumerated = stochastic_gradient(problem, dataset, x,
                                             np.random.default_rng(0), 1,
                                             enumerate_all=True)
            assert enumerated.tobytes() == want


def test_full_pass_coefficients_at_edge_margins(monkeypatch):
    # margins handed straight to the pass, so that -0.0, which no sum from
    # 0.0 returns, and every edge value meet both labels
    d, m = 3, np.repeat(EDGE_MARGINS, 2)
    labels = np.resize([1.0, -1.0], m.size)
    rows = np.random.default_rng(4).standard_normal((m.size, d))
    dataset = dense_dataset(rows, labels)
    monkeypatch.setattr(oracles, "margins", lambda dataset, x: m.copy())
    for ridge in (0.0, 0.3):
        problem = make_problem("logistic", d, ridge=ridge)
        x = np.array([0.5, -0.25, 2.0])
        assert (full_gradient(problem, dataset, x).tobytes()
                == reference_full_pass(problem, dataset, x).tobytes())
