import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import prox_squared_l2
from spdpeg.model import Problem
from spdpeg.penalties import GraphSpec, build_fused_matrix, build_graph_matrix
from spdpeg.prox import (DUAL_PROX_ITERS, ProxSpec, apply_prox, prox_dual,
                         prox_fused, prox_kernel, prox_l1, prox_tv, reg_value)
from spdpeg.solver import kernels
from spdpeg.sparse import SparseMatrix

finite_vec = arrays(np.float64, st.integers(1, 6),
                    elements=st.floats(-100, 100, allow_nan=False))


def grid_prox_1d(x, weight, step):
    # brute-force the scalar prox objective step*weight*|y| + 0.5*(y-x)^2
    ys = np.linspace(x - 3 * abs(x) - 5, x + 3 * abs(x) + 5, 400001)
    vals = step * weight * np.abs(ys) + 0.5 * (ys - x) ** 2
    return ys[np.argmin(vals)]


def test_soft_threshold_unit_table():
    # the closed form at threshold 1: sign(x)(|x|-1) when |x| > 1, else 0
    assert prox_l1(np.array([2.5]), 1.0) == pytest.approx([1.5])
    assert prox_l1(np.array([0.5]), 1.0) == pytest.approx([0.0])
    assert prox_l1(np.array([-2.0]), 1.0) == pytest.approx([-1.0])


def test_soft_threshold_matches_grid_oracle():
    np.testing.assert_allclose(prox_l1(np.array([-3.0, 0.1, 2.0]), 2.0),
                               [-1.0, 0.0, 0.0])
    for x in (-3.0, 0.1, 2.0, 0.7):
        got = prox_l1(np.array([x]), 2.0)[0]
        assert got == pytest.approx(grid_prox_1d(x, 2.0, 1.0), abs=1e-4)


def test_prox_l1_zero_threshold_is_identity():
    v = np.array([1.5, -2.25, 0.0, 3e-17])
    np.testing.assert_array_equal(prox_l1(v, 0.0), v)


def test_prox_l1_is_bitwise_the_closed_form():
    # sign(v) * max(|v| - t, 0) gives +0.0 at v = -0.0 and -0.0 where a
    # negative v is thresholded to zero; np.copysign(r, v) would give -0.0
    # at v = -0.0
    rng = np.random.default_rng(3)
    v = np.concatenate([[0.0, -0.0, 5e-324, -5e-324, 0.5, -0.5, np.inf,
                         -np.inf], rng.standard_normal(1000)])
    for t in (0.0, 0.5, 2.0):
        want = np.sign(v) * np.maximum(np.abs(v) - t, 0.0)
        assert prox_l1(v, t).tobytes() == want.tobytes()
    assert (prox_l1(np.array([-0.0, -0.25]), 0.5).tobytes()
            == np.array([0.0, -0.0]).tobytes())


def test_prox_l1_rejects_negative_threshold():
    with pytest.raises(ValueError):
        prox_l1(np.array([1.0]), -0.1)


def test_prox_squared_l2():
    np.testing.assert_allclose(prox_squared_l2(np.array([2.0, 4.0]), 1.0, 1.0),
                               [1.0, 2.0])
    np.testing.assert_allclose(prox_squared_l2(np.array([3.0]), 0.0, 0.5), [3.0])
    np.testing.assert_allclose(prox_squared_l2(np.array([1.0]), 3.0, 1.0), [0.25])


def test_apply_prox_dispatch():
    np.testing.assert_allclose(apply_prox(ProxSpec("l1", 2.0), np.array([5.0]), 0.5),
                               [4.0])
    v = np.array([7.0, -7.0])
    np.testing.assert_array_equal(apply_prox(ProxSpec("none"), v, 0.3), v)
    np.testing.assert_allclose(
        apply_prox(ProxSpec("squared-l2", 2.0), np.array([6.0]), 1.0), [2.0])


def test_spec_validation():
    with pytest.raises(ValueError):
        ProxSpec("huber", 1.0)
    with pytest.raises(ValueError):
        ProxSpec("l1", -1.0)
    with pytest.raises(ValueError):
        apply_prox(ProxSpec("l1", 1.0), np.array([1.0]), 0.0)


def prox_objective(spec, y, v, step):
    return step * reg_value(spec, y) + 0.5 * np.sum((y - v) ** 2)


@settings(max_examples=100, deadline=None)
@given(finite_vec, st.sampled_from(["none", "l1", "squared-l2"]),
       st.floats(0.0, 10.0), st.floats(0.01, 10.0), st.integers(0, 2 ** 31))
def test_prox_optimality(v, kind, weight, step, seed):
    spec = ProxSpec(kind, weight)
    y_star = apply_prox(spec, v, step)
    best = prox_objective(spec, y_star, v, step)
    rng = np.random.default_rng(seed)
    perturbed = y_star + rng.standard_normal((200, v.size)) * rng.choice(
        [1e-3, 1e-1, 1.0], size=(200, 1))
    vals = (step * np.array([reg_value(spec, p) for p in perturbed])
            + 0.5 * np.sum((perturbed - v) ** 2, axis=1))
    assert vals.min() >= best - 1e-12


@settings(max_examples=100, deadline=None)
@given(finite_vec, st.sampled_from(["none", "l1", "squared-l2"]),
       st.floats(0.0, 10.0), st.floats(0.01, 10.0), st.integers(0, 2 ** 31))
def test_prox_nonexpansive(v, kind, weight, step, seed):
    spec = ProxSpec(kind, weight)
    u = v + np.random.default_rng(seed).standard_normal(v.size)
    du = apply_prox(spec, u, step) - apply_prox(spec, v, step)
    assert np.linalg.norm(du) <= np.linalg.norm(u - v) + 1e-12


def test_reg_value():
    assert reg_value(ProxSpec("none"), np.array([3.0])) == 0.0
    assert reg_value(ProxSpec("l1", 2.0), np.array([1.0, -2.0])) == pytest.approx(6.0)
    assert reg_value(ProxSpec("squared-l2", 2.0), np.array([3.0])) == pytest.approx(9.0)


def dual_tv(vs, weights, iters=20_000):
    """TV prox of each row of ``vs`` by projected gradient on its dual,
    min over |u| <= weight of ||v - F^T u||^2 / 2 with F the fused matrix,
    at step 1/4 (||F F^T|| < 4); returns v - F^T u."""
    bound = np.asarray(weights)[:, None]
    u = np.zeros((vs.shape[0], vs.shape[1] - 1))

    def primal(u):
        t = vs.copy()
        t[:, :-1] -= u
        t[:, 1:] += u
        return t

    for _ in range(iters):
        t = primal(u)
        u = np.clip(u + 0.25 * (t[:, :-1] - t[:, 1:]), -bound, bound)
    return primal(u)


def test_prox_tv_matches_a_dual_projected_gradient_solver():
    rng = np.random.default_rng(2013)
    worst = 0.0
    for d in (2, 5, 13, 30):
        count = 13 if d < 30 else 11  # 50 inputs in all
        vs = rng.standard_normal((count, d)) * rng.choice([0.1, 1.0, 10.0],
                                                          size=(count, 1))
        weights = rng.uniform(0.01, 3.0, size=count)
        want = dual_tv(vs, weights)
        for v, weight, w in zip(vs, weights, want):
            t = prox_tv(v, weight)
            worst = max(worst, float(np.abs(t - w).max()))
            # its dual lies in the box and gives v - t = F^T u
            u = np.cumsum(v - t)
            assert np.abs(u[:-1]).max() <= weight * (1 + 1e-12)
            assert abs(u[-1]) <= 1e-12 * (1 + np.abs(v).sum())
    assert worst <= 1e-9


def test_prox_tv_of_two_entries():
    # the pair moves together by the weight, or meets at its mean
    np.testing.assert_allclose(prox_tv(np.array([3.0, -1.0]), 0.5), [2.5, -0.5])
    np.testing.assert_allclose(prox_tv(np.array([-1.0, 3.0]), 0.5), [-0.5, 2.5])
    np.testing.assert_allclose(prox_tv(np.array([3.0, -1.0]), 2.5), [1.0, 1.0])
    np.testing.assert_allclose(prox_tv(np.array([0.25, 0.75]), 0.25), [0.5, 0.5])


@pytest.mark.parametrize("c", [0.3, -1.7, 123.456, 0.0])
@pytest.mark.parametrize("d", [2, 3, 50])
def test_prox_tv_keeps_a_constant_input(c, d):
    for weight in (0.1, 1.0, 1e3):
        t = prox_tv(np.full(d, c), weight)
        assert np.all(t == t[0])
        assert abs(t[0] - c) <= 8 * 2.0 ** -52 * (abs(c) + weight)


def test_prox_tv_of_weight_zero_is_the_input():
    v = np.random.default_rng(4).standard_normal(9)
    t = prox_tv(v, 0.0)
    assert t.tobytes() == v.tobytes() and t is not v


@pytest.mark.parametrize("kind", ["l1", "squared-l2", "none"])
def test_prox_fused_is_r1_prox_of_the_tv_prox(kind):
    rng = np.random.default_rng(7)
    spec = ProxSpec(kind, 0.0 if kind == "none" else 0.4)
    for _ in range(20):
        v = rng.standard_normal(8) * 2.0
        step, tv_weight = float(rng.uniform(0.1, 2.0)), float(rng.uniform(0.0, 1.0))
        x, t = prox_fused(prox_kernel(spec), v, step, tv_weight)
        assert t.tobytes() == prox_tv(v, step * tv_weight).tobytes()
        assert x.tobytes() == apply_prox(spec, t, step).tobytes()

        # and x minimizes step * (r1 + tv_weight * TV) + ||. - v||^2 / 2
        def objective(y):
            return (step * (reg_value(spec, y) + tv_weight * np.abs(np.diff(y)).sum())
                    + 0.5 * ((y - v) ** 2).sum())

        perturbed = x + rng.standard_normal((200, 8)) * rng.choice(
            [1e-6, 1e-3, 1e-1], size=(200, 1))
        assert min(map(objective, perturbed)) >= objective(x) - 1e-12


GRAPH = GraphSpec(((0, 2, 1.0), (1, 3, -0.5), (2, 5, 2.0), (3, 4, 1.0),
                   (0, 5, 0.3), (1, 4, 4.0)), 6)


def dual_prox_kernels(penalty, kind="l1", radius=None):
    """The prox_r1, F and Ft kernels and sigma of a problem with this
    penalty and r1, as the reference passes them to ``prox_dual``."""
    r1 = ProxSpec(kind, 0.0 if kind == "none" else 0.4)
    kern = kernels(Problem("logistic", r1, ProxSpec("l1", 0.1), penalty,
                           feasible_radius=radius))
    return kern.prox_r1, kern.F, kern.Ft, penalty.sigma_max_FtF


@pytest.mark.parametrize("kind", ["none", "l1", "squared-l2"])
def test_prox_dual_on_a_fused_matrix_is_prox_fused(kind):
    rng = np.random.default_rng(8)
    prox_r1, F, Ft, sigma = dual_prox_kernels(build_fused_matrix(8), kind)
    for _ in range(20):
        v = rng.standard_normal(8) * 2.0
        step, weight = float(rng.uniform(0.1, 2.0)), float(rng.uniform(0.0, 1.0))
        u, nu = prox_dual(prox_r1, F, Ft, sigma, v, step, weight, np.zeros(7),
                          iters=2000)
        assert np.abs(u - prox_fused(prox_r1, v, step, weight)[0]).max() <= 1e-9
        assert np.abs(nu).max() <= step * weight


@pytest.mark.parametrize("kind", ["none", "l1", "squared-l2"])
def test_prox_dual_warm_started_matches_a_long_run(kind):
    # capped calls, each from the last one's dual, reach the prox of a
    # 10,000-step call; that prox minimizes the composite objective
    rng = np.random.default_rng(9)
    spec = ProxSpec(kind, 0.0 if kind == "none" else 0.4)
    penalty = build_graph_matrix(GRAPH)
    prox_r1, F, Ft, sigma = dual_prox_kernels(penalty, kind)
    dense = penalty.to_dense()
    for _ in range(5):
        v = rng.standard_normal(6) * 2.0
        step, weight = float(rng.uniform(0.1, 2.0)), float(rng.uniform(0.05, 1.0))
        want, _ = prox_dual(prox_r1, F, Ft, sigma, v, step, weight,
                            np.zeros(6), iters=10_000)
        nu = np.zeros(6)
        for _ in range(1000):
            u, nu_next = prox_dual(prox_r1, F, Ft, sigma, v, step, weight, nu)
            if np.array_equal(nu_next, nu):
                break
            nu = nu_next
            assert np.abs(nu).max() <= step * weight
        assert np.abs(u - want).max() <= 1e-9

        def objective(y):
            return (step * (reg_value(spec, y) + weight * np.abs(dense @ y).sum())
                    + 0.5 * ((y - v) ** 2).sum())

        perturbed = want + rng.standard_normal((200, 6)) * rng.choice(
            [1e-6, 1e-3, 1e-1], size=(200, 1))
        assert min(map(objective, perturbed)) >= objective(want) - 1e-12


@pytest.mark.parametrize("penalty", [SparseMatrix(3, 6, [0, 0, 0, 0], [], []),
                                     build_graph_matrix(GRAPH)])
def test_prox_dual_without_a_penalty_is_the_r1_prox(penalty):
    # no stored entry gives sigma 0; a weight of 0 leaves r1 alone too
    prox_r1, F, Ft, sigma = dual_prox_kernels(penalty)
    v = np.random.default_rng(10).standard_normal(6)
    start = np.ones(penalty.n_rows)
    for s, weight in ((sigma, 0.0), (0.0, 0.5)):
        u, nu = prox_dual(prox_r1, F, Ft, s, v, 0.7, weight, start)
        assert u.tobytes() == prox_r1(v, 0.7).tobytes()
        assert nu.tobytes() == np.zeros(penalty.n_rows).tobytes()


def test_prox_dual_stays_in_the_ball():
    rng = np.random.default_rng(11)
    prox_r1, F, Ft, sigma = dual_prox_kernels(build_graph_matrix(GRAPH),
                                              radius=0.3)
    nu = np.zeros(6)
    for _ in range(20):
        v = rng.standard_normal(6) * 3.0
        u, nu = prox_dual(prox_r1, F, Ft, sigma, v, 0.5, 0.4, nu)
        assert np.linalg.norm(u) <= 0.3 * (1 + 1e-12)
        assert np.abs(nu).max() <= 0.5 * 0.4


def clip_prox_dual(prox_r1, F, Ft, sigma, v, step, weight, nu,
                   iters=DUAL_PROX_ITERS):
    """``prox_dual`` as it was written before its dual step took plain
    ufuncs: ``np.clip`` into the box and ``np.array_equal``, with Python
    float operands. The bitwise reference of the lean loop."""
    box = step * weight
    if sigma == 0.0 or box == 0.0:
        return prox_r1(v, step), np.zeros_like(nu)
    u = prox_r1(v - Ft(nu), step)
    for _ in range(iters):
        nu_next = np.clip(nu + F(u) / sigma, -box, box)
        if np.array_equal(nu_next, nu):
            break
        nu = nu_next
        u = prox_r1(v - Ft(nu), step)
    return u, nu


def test_prox_dual_clips_with_np_clips_bits():
    # dual steps that land on +-0, on +-box, just inside and outside the box
    # and at +-inf, from starts of either zero sign
    step, weight = 0.5, 0.7
    box = step * weight
    edges = [0.0, -0.0, box, -box, 2.0 * box, -2.0 * box, 5e-324, -5e-324,
             math.inf, -math.inf]
    edges += [math.nextafter(e, t) for e in (box, -box)
              for t in (0.0, math.inf, -math.inf)]
    t = np.array(edges)
    assert (np.minimum(np.maximum(t, -box), box).tobytes()
            == np.clip(t, -box, box).tobytes())
    prox_r1 = prox_kernel(ProxSpec("l1", 0.3))
    v = np.linspace(-1.0, 1.0, t.size)
    for sigma in (1.0, 3.0, 0.25):
        for start in (np.zeros(t.size), -np.zeros(t.size), t.clip(-box, box)):
            for scale in (1.0, -1.0, 0.5):
                def F(u, scale=scale, sigma=sigma):
                    return scale * sigma * t + 0.0 * u

                def Ft(nu):
                    return nu[::-1].copy()

                for iters in (1, 2, DUAL_PROX_ITERS):
                    got = prox_dual(prox_r1, F, Ft, sigma, v, step, weight,
                                    start, iters)
                    want = clip_prox_dual(prox_r1, F, Ft, sigma, v, step,
                                          weight, start, iters)
                    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
