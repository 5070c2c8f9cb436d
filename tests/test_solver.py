import math
import pickle
from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (average_weight, count_calls, csr_dataset, flr_instance,
                      schedule_bracket_coefficients,
                      single_reference_step_inequality, sparse_from_dense)
from spdpeg.model import Dataset, Problem, SolverConfig, estimate_lipschitz
from spdpeg.penalties import build_fused_matrix
from spdpeg.prox import ProxSpec, prox_l1, reg_value
from spdpeg.data import synthesize
from spdpeg.solver import (DivergenceError, Schedule, check_step_inequality,
                           drawn_gradient, initial_state, kernels, make_schedule,
                           relative_slack, run, step_size, update_extragradient,
                           update_z)
from spdpeg.sparse import power_iteration_sigma_max
from spdpeg import baselines, bench
from spdpeg import solver as solver_mod


def test_step_size_examples():
    conv = Schedule("convex", 0.0, 12.0)
    assert step_size(conv, 0) == pytest.approx(1.0 / 13.0)
    scu = Schedule("sc-uniform", 1.0, 1.0)
    assert step_size(scu, 0) == pytest.approx(2.0 / 3.0)
    scn = Schedule("sc-nonuniform", 1.0, 1.0)
    assert step_size(scn, 0) == pytest.approx(4.0 / 6.0)


def test_schedule_rejects_sc_without_mu():
    with pytest.raises(ValueError):
        Schedule("sc-nonuniform", 0.0, 1.0)
    with pytest.raises(ValueError):
        Schedule("convex", 0.5, 1.0)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["convex", "sc-uniform", "sc-nonuniform"]),
       st.floats(0.01, 10.0), st.floats(0.01, 100.0), st.integers(0, 500))
def test_step_size_positive_decreasing(regime, mu, L_tilde, k):
    sched = Schedule(regime, 0.0 if regime == "convex" else mu, L_tilde)
    assert step_size(sched, k) > 0
    assert step_size(sched, k + 1) < step_size(sched, k)


def test_average_weight_examples():
    uni = Schedule("convex", 0.0, 1.0)
    assert average_weight(uni, 4, 9) == pytest.approx(0.1)
    non = Schedule("sc-nonuniform", 1.0, 1.0)
    assert average_weight(non, 0, 0) == pytest.approx(1.0)
    weights = [average_weight(non, k, 3) for k in range(4)]
    np.testing.assert_allclose(weights, np.array([6.0, 8.0, 10.0, 12.0]) / 36.0)
    assert sum(weights) == pytest.approx(1.0, abs=1e-15)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2000))
def test_nonuniform_weights_sum_to_one(t):
    non = Schedule("sc-nonuniform", 1.0, 1.0)
    total = math.fsum(average_weight(non, k, t) for k in range(t + 1))
    assert abs(total - 1.0) <= 1e-14


def zero_gradient_instance(d=2):
    dataset = csr_dataset([0, 0], [], [], [1.0], d)
    penalty = sparse_from_dense(np.eye(d))
    problem = Problem("least-squares", ProxSpec("none"), ProxSpec("l1", 0.0),
                      penalty)
    config = SolverConfig(gamma=1.0, regime="convex", max_iters=3, seed=0,
                          lipschitz_L=1.0, sigma_max_FtF=1.0, full_batch=True,
                          eval_every=1)
    return problem, dataset, config


def test_update_z_soft_threshold():
    problem, dataset, config = zero_gradient_instance(1)
    problem = Problem("least-squares", ProxSpec("none"), ProxSpec("l1", 1.0),
                      sparse_from_dense(np.eye(1)))
    state = initial_state(problem, dataset)
    state.x = np.array([3.0])
    fx = problem.penalty.matvec(state.x)
    np.testing.assert_allclose(
        update_z(kernels(problem), config.gamma, fx, state.lam), [2.0])


def test_update_z_zero_input_and_identity():
    penalty = sparse_from_dense([[2.0, 0.0], [0.0, 1.0]])
    dataset = csr_dataset([0, 0], [], [], [1.0], 2)
    config = SolverConfig(gamma=0.5, regime="convex", max_iters=1, seed=0,
                          lipschitz_L=1.0, sigma_max_FtF=4.0)
    prob_w = Problem("least-squares", ProxSpec("none"), ProxSpec("l1", 3.0), penalty)
    state = initial_state(prob_w, dataset)
    state.x = np.array([1.0, -2.0])
    fx = penalty.matvec(state.x)
    state.lam = config.gamma * fx
    np.testing.assert_array_equal(
        update_z(kernels(prob_w), config.gamma, fx, state.lam), [0.0, 0.0])
    prob_0 = Problem("least-squares", ProxSpec("none"), ProxSpec("l1", 0.0), penalty)
    state.lam = np.array([0.3, -0.1])
    np.testing.assert_allclose(
        update_z(kernels(prob_0), config.gamma, fx, state.lam),
        fx - state.lam / config.gamma)


def test_update_z_minimizes_augmented_lagrangian():
    problem, dataset, config = flr_instance(d=5, n=20, iters=5)
    res = run(problem, dataset, config)
    state = res.state
    fx = problem.penalty.matvec(state.x)
    z_opt = update_z(kernels(problem), config.gamma, fx, state.lam)

    def value(z):
        return (reg_value(problem.r2, z) + state.lam @ z
                + 0.5 * config.gamma * np.sum((fx - z) ** 2))

    base = value(z_opt)
    rng = np.random.default_rng(0)
    for scale in (1e-4, 1e-2, 1.0):
        zs = z_opt + scale * rng.standard_normal((400, z_opt.size))
        assert min(value(z) for z in zs) >= base - 1e-12


def test_stationary_point_is_fixed():
    problem, dataset, config = zero_gradient_instance()
    sched = make_schedule(problem, config)
    state = initial_state(problem, dataset)
    state.x = np.ones(2)
    kern = kernels(problem)
    gradient = drawn_gradient(problem, dataset, config, np.random.default_rng(0))
    fx = problem.penalty.matvec(state.x)
    z1 = update_z(kern, config.gamma, fx, state.lam)
    np.testing.assert_array_equal(z1, np.ones(2))
    x_bar, lam_bar, x1, lam1, _, _ = update_extragradient(
        kern, config.gamma, step_size(sched, 0), state.x, state.lam, fx, z1,
        gradient)
    np.testing.assert_array_equal(x1, np.ones(2))
    np.testing.assert_array_equal(x_bar, np.ones(2))
    np.testing.assert_array_equal(lam1, np.zeros(2))
    np.testing.assert_array_equal(lam_bar, np.zeros(2))


def test_single_iteration_matches_hand_execution():
    # 2-d least-squares instance, one iteration, replayed with explicit algebra
    rng_data = np.random.default_rng(10)
    feats = rng_data.standard_normal((6, 2))
    labels = np.where(rng_data.random(6) < 0.5, 1.0, -1.0)
    dataset = Dataset.from_dense_rows(feats, labels)
    penalty = build_fused_matrix(2)
    problem = Problem("least-squares", ProxSpec("l1", 0.05), ProxSpec("l1", 0.1),
                      penalty)
    config = SolverConfig(gamma=0.5, regime="convex", max_iters=1, seed=123,
                          lipschitz_L=estimate_lipschitz(dataset, "least-squares"),
                          sigma_max_FtF=power_iteration_sigma_max(penalty),
                          batch_size=2, eval_every=1)
    caps = []
    res = run(problem, dataset, config, captures=caps)

    L_tilde = max(8 * config.gamma * config.sigma_max_FtF,
                  math.sqrt(8 * config.lipschitz_L ** 2
                            + config.gamma * config.sigma_max_FtF))
    c = 1.0 / (math.sqrt(1.0) + L_tilde)
    F = penalty.to_dense()
    x0, lam0 = np.zeros(2), np.zeros(1)
    rng = np.random.default_rng(123)

    def batch_grad(x, idx):
        g = np.zeros(2)
        for i in idx:
            g += (feats[i] @ x - labels[i]) * feats[i]
        return g / len(idx)

    z1 = prox_l1(F @ x0 - lam0 / config.gamma, 0.1 / config.gamma)
    idx1 = rng.integers(0, 6, size=2)
    x_bar = prox_l1(x0 - c * (batch_grad(x0, idx1) - F.T @ lam0), c * 0.05)
    lam_bar = lam0 - config.gamma * (F @ x0 - z1)
    idx2 = rng.integers(0, 6, size=2)
    x1 = prox_l1(x0 - c * (batch_grad(x_bar, idx2) - F.T @ lam_bar), c * 0.05)
    lam1 = lam0 - config.gamma * (F @ x_bar - z1)

    np.testing.assert_allclose(res.state.x, x1, rtol=1e-14, atol=1e-15)
    np.testing.assert_allclose(caps[0].x_bar, x_bar, rtol=1e-14, atol=1e-15)
    np.testing.assert_allclose(res.state.lam, lam1, rtol=1e-14, atol=1e-15)
    np.testing.assert_allclose(caps[0].lam_bar, lam_bar, rtol=1e-14, atol=1e-15)
    np.testing.assert_allclose(res.state.z, z1, rtol=1e-14, atol=1e-15)
    # single-iteration averages equal the first iterates
    np.testing.assert_allclose(res.x_avg, x_bar, rtol=1e-14, atol=1e-15)
    np.testing.assert_allclose(res.z_avg, z1, rtol=1e-14, atol=1e-15)
    np.testing.assert_allclose(res.lambda_avg, lam_bar, rtol=1e-14, atol=1e-15)


@pytest.mark.parametrize("name, per_iter", [("spdpeg", (1, 1)), ("eg-full", (1, 1)),
                                            ("slinadmm", (1, 0))])
def test_each_loop_calls_the_traced_step_once_per_iteration(monkeypatch, name,
                                                            per_iter):
    # the benchmark's traced run times these two names in every loop
    problem, dataset, config = flr_instance(iters=30, eval_every=10)
    z_calls = count_calls(monkeypatch, solver_mod, "update_z", baselines, bench)
    eg_calls = count_calls(monkeypatch, solver_mod, "update_extragradient",
                           bench)
    bench._SOLVER_FNS[name](problem, dataset, config)
    assert (len(z_calls), len(eg_calls)) == (30 * per_iter[0], 30 * per_iter[1])


def test_capped_reference_calls_the_traced_step_once_per_iteration(monkeypatch):
    problem, dataset, config = flr_instance()
    z_calls = count_calls(monkeypatch, solver_mod, "update_z", baselines, bench)
    eg_calls = count_calls(monkeypatch, solver_mod, "update_extragradient",
                           bench)
    ref = bench.reference_optimum(problem, dataset, config.gamma, max_iters=40,
                                  check_every=10)
    assert ref.iterations == 40
    assert len(z_calls) == len(eg_calls) == 40


def test_same_seed_bitwise_identical():
    problem, dataset, config = flr_instance(iters=60)
    a = run(problem, dataset, config)
    b = run(problem, dataset, config)
    np.testing.assert_array_equal(a.state.x, b.state.x)
    np.testing.assert_array_equal(a.x_avg, b.x_avg)
    for ra, rb in zip(a.trace, b.trace):
        assert (ra.iteration, ra.objective, ra.test_loss, ra.accuracy,
                ra.feasibility_gap, ra.max_dual_norm) == \
               (rb.iteration, rb.objective, rb.test_loss, rb.accuracy,
                rb.feasibility_gap, rb.max_dual_norm)


def test_dual_update_identity():
    # predictor/corrector duals differ by gamma * F (x_bar - x_prev)
    problem, dataset, config = flr_instance(iters=80)
    caps = []
    run(problem, dataset, config, captures=caps)
    for cap in caps:
        lhs = cap.lam_bar - cap.lam_next
        rhs = config.gamma * problem.penalty.matvec(cap.x_bar - cap.x_prev)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_weight_accumulation_matches_analytic_total():
    dataset, _, _ = synthesize("graph-logistic", 6, 30, 0.1, 2)
    from spdpeg.penalties import build_graph_matrix
    _, graph, _ = synthesize("graph-logistic", 6, 30, 0.1, 2)
    penalty = build_graph_matrix(graph)
    problem = Problem("logistic", ProxSpec("none"), ProxSpec("l1", 1e-5), penalty,
                      ridge=0.01)
    config = SolverConfig(gamma=0.1, regime="sc-nonuniform", max_iters=25, seed=1,
                          lipschitz_L=estimate_lipschitz(dataset, "logistic") + 0.01,
                          sigma_max_FtF=power_iteration_sigma_max(penalty),
                          eval_every=5)
    res = run(problem, dataset, config)
    t = config.max_iters - 1
    assert res.state.raw_weight_sum == sum(k + 3 for k in range(t + 1))
    assert res.state.raw_weight_sum == (t + 1) * (t + 6) // 2


def test_running_average_matches_offline_weights():
    problem, dataset, config = flr_instance(iters=100)
    caps = []
    res = run(problem, dataset, config, captures=caps)
    sched = make_schedule(problem, config)
    t = config.max_iters - 1
    x_off = sum(average_weight(sched, cap.k, t) * cap.x_bar for cap in caps)
    z_off = sum(average_weight(sched, cap.k, t) * cap.z_next for cap in caps)
    lam_off = sum(average_weight(sched, cap.k, t) * cap.lam_bar for cap in caps)
    assert np.max(np.abs(x_off - res.x_avg)) <= 1e-12
    assert np.max(np.abs(z_off - res.z_avg)) <= 1e-12
    assert np.max(np.abs(lam_off - res.lambda_avg)) <= 1e-12


def test_step_inequality_deterministic_mode():
    problem, dataset, config = flr_instance(iters=50, full_batch=True)
    caps = []
    res = run(problem, dataset, config, captures=caps)
    rng = np.random.default_rng(0)
    l = problem.penalty.n_rows
    for cap in caps:
        refs = [(res.state.z, res.state.x, res.state.lam),
                (rng.standard_normal(l), rng.standard_normal(8),
                 rng.standard_normal(l))]
        for rep in check_step_inequality(cap, problem, dataset, config, refs):
            assert rep.delta_norm_sq == 0.0 and rep.delta_bar_norm_sq == 0.0
            assert relative_slack(rep) >= -1e-10


def test_step_inequality_stochastic_mode():
    problem, dataset, config = flr_instance(iters=120)
    caps = []
    run(problem, dataset, config, captures=caps)
    rng = np.random.default_rng(1)
    l = problem.penalty.n_rows
    worst = np.inf
    for cap in caps:
        refs = [(rng.standard_normal(l), rng.standard_normal(8),
                 rng.standard_normal(l)) for _ in range(5)]
        for rep in check_step_inequality(cap, problem, dataset, config, refs):
            worst = min(worst, relative_slack(rep))
    assert worst >= -1e-8


def report_bits(report):
    return [np.float64(v).tobytes() if isinstance(v, float) else v
            for v in astuple(report)]


@pytest.mark.parametrize("mode, step_scale", [("stochastic", 1.0),
                                              ("deterministic", 1.0),
                                              ("stochastic", 100.0)])
def test_the_audit_of_a_step_equals_one_audit_per_reference(mode, step_scale):
    # the step's reference-free terms are computed once per step, and each
    # reference's sums keep their operands in order: the same bits
    problem, dataset, config = flr_instance(
        iters=40 if step_scale == 1.0 else 10, full_batch=mode == "deterministic")
    caps = []
    res = run(problem, dataset, config, step_scale=step_scale, captures=caps)
    rng = np.random.default_rng(7)
    l = problem.penalty.n_rows
    refs = [(rng.standard_normal(l), rng.standard_normal(8),
             rng.standard_normal(l)) for _ in range(4)]
    refs += [(res.state.z, res.state.x, res.state.lam),
             (np.zeros(l), np.zeros(8), np.zeros(l))]
    flagged = 0
    for cap in caps:
        got = check_step_inequality(cap, problem, dataset, config, refs)
        want = [single_reference_step_inequality(cap, problem, dataset,
                                                 config, ref) for ref in refs]
        assert [report_bits(r) for r in got] == [report_bits(r) for r in want]
        flagged += got[0].coefficient_negative
    assert flagged == (len(caps) if step_scale == 100.0 else 0)


def test_step_inequality_inflated_step_flags_coefficients():
    problem, dataset, config = flr_instance(iters=10)
    caps = []
    run(problem, dataset, config, step_scale=100.0, captures=caps)
    [rep] = check_step_inequality(caps[0], problem, dataset, config,
                                  [(np.zeros(problem.penalty.n_rows), np.zeros(8),
                                    np.zeros(problem.penalty.n_rows))])
    assert rep.coefficient_negative
    # the inequality itself is pathwise and holds regardless of the step
    assert relative_slack(rep) >= -1e-8


def test_scheduled_brackets_nonnegative():
    problem, dataset, config = flr_instance(iters=10)
    sched = make_schedule(problem, config)
    for k in (0, 1, 5, 100, 10 ** 5):
        b_lam, b_x = schedule_bracket_coefficients(config, sched, k)
        assert b_lam >= 0.0 and b_x >= 0.0


def test_sc_regime_requires_mu():
    problem, dataset, config = flr_instance()
    bad = SolverConfig(gamma=config.gamma, regime="sc-uniform",
                       max_iters=10, seed=0, lipschitz_L=config.lipschitz_L,
                       sigma_max_FtF=config.sigma_max_FtF)
    with pytest.raises(ValueError, match="requires mu > 0, a folded ridge"):
        run(problem, dataset, bad)


def test_divergence_guard():
    problem, dataset, config = flr_instance(iters=2000)
    problem = Problem("least-squares", problem.r1, problem.r2, problem.penalty)
    with pytest.raises(DivergenceError) as exc:
        run(problem, dataset, config, step_scale=1e9)
    assert isinstance(exc.value.iteration, int)


@pytest.mark.parametrize("family, full_batch, step_scale, iteration", [
    ("convex", False, 1e9, 1), ("convex", False, 100.0, 16),
    ("convex", True, 1e9, 1), ("convex", True, 100.0, 17),
    ("sc", False, 1e9, 0), ("sc", False, 100.0, 12),
    ("sc", True, 1e9, 0), ("sc", True, 100.0, 13),
])
def test_rate_cores_diverge_at_their_pinned_iteration(family, full_batch,
                                                      step_scale, iteration):
    # the d=20 fused convex and graph sc cores, spdpeg and eg-full; the
    # penalty's dense products make one inf a NaN in every row (0 * inf),
    # which must not move the step the guard stops at
    core = bench.rate_core(family, iters=2000)
    train, _, problem, derived = bench.build_all(core)
    config = replace(bench.make_config(core, derived, 1), full_batch=full_batch)
    with pytest.raises(DivergenceError) as exc:
        run(problem, train, config, step_scale=step_scale)
    assert exc.value.iteration == iteration


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 2e12])
@pytest.mark.parametrize("where", ["x", "lam"])
def test_advance_rejects_a_non_finite_or_huge_entry(bad, where):
    problem, dataset, _ = flr_instance()
    state = initial_state(problem, dataset)
    state.k = 5
    x, lam = np.ones(dataset.dimension), np.ones(problem.penalty.n_rows)
    (x if where == "x" else lam)[2] = bad
    with pytest.raises(DivergenceError, match="at iteration 5") as exc:
        solver_mod.advance(state, 1, x, lam, x, np.zeros_like(lam), lam)
    assert exc.value.iteration == 5
    assert state.k == 5 and state.raw_weight_sum == 0


def test_advance_dual_norm_is_the_euclidean_norm():
    problem, dataset, _ = flr_instance()
    state = initial_state(problem, dataset)
    rng = np.random.default_rng(6)
    norms = []
    for _ in range(50):
        lam = rng.standard_normal(problem.penalty.n_rows) * 10.0 ** rng.integers(-6, 6)
        solver_mod.advance(state, 1, state.x, lam, state.x, lam, lam)
        norms.append(float(np.linalg.norm(lam)))
        assert state.max_dual_norm == max(norms)


def test_sqrt_of_the_self_dot_is_the_norm():
    # the ball projection and the trace's feasibility take
    # math.sqrt(v.dot(v)) for np.linalg.norm(v) of a 1-D vector
    rng = np.random.default_rng(9)
    vectors = [rng.standard_normal(k) * 10.0 ** rng.integers(-200, 200, k)
               for k in (0, 1, 2, 7, 20, 49, 300) for _ in range(20)]
    for bad in (np.inf, -np.inf, np.nan, -np.nan, 1e300):
        for v in vectors[80:100]:  # the 20-element vectors
            v = v.copy()
            v[rng.integers(v.size)] = bad
            vectors.append(v)
    vectors.append(np.array([np.inf, np.nan]))
    vectors.append(np.array([-0.0, 5e-324]))
    with np.errstate(over="ignore", invalid="ignore"):
        for v in vectors:
            assert (np.float64(math.sqrt(v.dot(v))).tobytes()
                    == np.float64(np.linalg.norm(v)).tobytes()), v


def test_divergent_run_leaves_completed_steps_in_callers_list():
    # a step scale of 100 diverges after some steps, not at the first one
    problem, dataset, config = flr_instance(iters=2000)
    caps = []
    with pytest.raises(DivergenceError) as exc:
        run(problem, dataset, config, step_scale=100.0, captures=caps)
    assert exc.value.iteration > 0
    assert len(caps) == exc.value.iteration
    assert [cap.k for cap in caps] == list(range(exc.value.iteration))


def test_divergence_error_survives_pickling():
    err = pickle.loads(pickle.dumps(DivergenceError(7, "iterate diverged")))
    assert type(err) is DivergenceError
    assert err.iteration == 7
    assert str(err) == "iterate diverged"


def test_feasible_radius_projection():
    problem, dataset, config = flr_instance(iters=50)
    problem = Problem(problem.loss, problem.r1, problem.r2, problem.penalty,
                      feasible_radius=0.05)
    res = run(problem, dataset, config)
    assert np.linalg.norm(res.state.x) <= 0.05 + 1e-12
    assert np.linalg.norm(res.x_avg) <= 0.05 + 1e-12


def test_feasibility_gap_decays_on_strongly_convex_instance():
    # median over seeds, compared at doubled iteration counts past burn-in
    from spdpeg import bench
    core = bench.rate_core("sc", d=12, n=80, iters=3000, eval_every=100)
    train, test, problem, derived = bench.build_all(core)
    curves = []
    for seed in range(5):
        res = run(problem, train, bench.make_config(core, derived, seed), test)
        curves.append([r.feasibility_gap for r in res.trace])
        iterations = np.array([r.iteration for r in res.trace])
    med = np.median(np.array(curves), axis=0)
    for i, t in enumerate(iterations):
        if t < 100 or 2 * t > iterations[-1]:
            continue
        j = int(np.nonzero(iterations == 2 * t)[0][0])
        assert med[j] <= 1.15 * med[i]
    assert med[-1] < 0.2 * med[np.nonzero(iterations == 100)[0][0]]


@pytest.mark.parametrize("iters, eval_every, grid", [
    (130, 50, [50, 100, 130]), (100, 50, [50, 100]), (30, 50, [30]),
    (7, 3, [3, 6, 7]), (1, 1, [1])])
def test_a_run_traces_at_each_iteration_of_its_grid(iters, eval_every, grid):
    # every eval_every-th iteration, and the last
    assert solver_mod.trace_grid(iters, eval_every) == grid
    problem, dataset, config = flr_instance(iters=iters, eval_every=eval_every)
    assert [r.iteration for r in run(problem, dataset, config).trace] == grid


def test_trace_iterations_and_final_record():
    problem, dataset, config = flr_instance(iters=130, eval_every=50)
    res = run(problem, dataset, config)
    assert [r.iteration for r in res.trace] == [50, 100, 130]
    assert all(np.isfinite([r.objective, r.test_loss, r.accuracy,
                            r.feasibility_gap]).all() for r in res.trace)
    assert all(0.0 <= r.accuracy <= 1.0 for r in res.trace)
    assert res.trace[-1].max_dual_norm >= 0.0
