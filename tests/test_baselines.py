import numpy as np

from spdpeg.baselines import run_eg_full, run_stoch_linadmm
from spdpeg.data import synthesize
from spdpeg.model import Dataset, Problem, SolverConfig, estimate_lipschitz
from spdpeg.oracles import stochastic_gradient
from spdpeg.penalties import build_fused_matrix
from spdpeg.prox import ProxSpec, apply_prox
from spdpeg.solver import run
from spdpeg.sparse import SparseMatrix, power_iteration_sigma_max


def flr_instance(d=8, n=40, seed=3, gamma=0.1, iters=200, solver_seed=5, **cfg):
    dataset, _, _ = synthesize("fused-signal", d, n, 0.1, seed)
    penalty = build_fused_matrix(d)
    problem = Problem("logistic", ProxSpec("l1", 5e-4), ProxSpec("l1", 5e-3),
                      penalty)
    config = SolverConfig(gamma=gamma, regime="convex", max_iters=iters,
                          seed=solver_seed,
                          lipschitz_L=estimate_lipschitz(dataset, "logistic"),
                          sigma_max_FtF=power_iteration_sigma_max(penalty),
                          eval_every=cfg.pop("eval_every", 50), **cfg)
    return problem, dataset, config


def test_eg_full_equals_forced_full_batch_run():
    problem, dataset, config = flr_instance(iters=80)
    from dataclasses import replace
    forced = run(problem, dataset, replace(config, full_batch=True))
    base = run_eg_full(problem, dataset, config)
    np.testing.assert_array_equal(forced.state.x, base.state.x)
    np.testing.assert_array_equal(forced.x_avg, base.x_avg)
    assert [(r.iteration, r.objective, r.feasibility_gap) for r in forced.trace] \
        == [(r.iteration, r.objective, r.feasibility_gap) for r in base.trace]


def test_eg_full_quadratic_toy_reaches_normal_equations():
    rng = np.random.default_rng(0)
    d, n = 4, 30
    feats = rng.standard_normal((n, d))
    labels = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    dataset = Dataset.from_dense_rows(feats, labels)
    penalty = build_fused_matrix(d)
    ridge = 0.5
    problem = Problem("least-squares", ProxSpec("none"), ProxSpec("l1", 0.0),
                      penalty, ridge=ridge)
    config = SolverConfig(gamma=0.2, regime="sc-nonuniform", max_iters=10_000,
                          seed=0,
                          lipschitz_L=estimate_lipschitz(dataset, "least-squares")
                          + ridge,
                          sigma_max_FtF=power_iteration_sigma_max(penalty),
                          eval_every=10_000)
    res = run_eg_full(problem, dataset, config)
    gram = feats.T @ feats / n + ridge * np.eye(d)
    x_star = np.linalg.solve(gram, feats.T @ labels / n)
    assert np.linalg.norm(res.state.x - x_star) <= 1e-6


def test_stoch_linadmm_zero_penalty_is_prox_sgd():
    rng = np.random.default_rng(1)
    d, n = 3, 20
    feats = rng.standard_normal((n, d))
    labels = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    dataset = Dataset.from_dense_rows(feats, labels)
    penalty = SparseMatrix(0, d, [0], [], [])
    problem = Problem("logistic", ProxSpec("l1", 0.01), ProxSpec("l1", 1.0),
                      penalty)
    config = SolverConfig(gamma=1.0, regime="convex", max_iters=40, seed=9,
                          lipschitz_L=estimate_lipschitz(dataset, "logistic"),
                          sigma_max_FtF=0.0, eval_every=40)
    res = run_stoch_linadmm(problem, dataset, config)

    from spdpeg.solver import make_schedule, step_size
    sched = make_schedule(problem, config)
    rng2 = np.random.default_rng(9)
    x = np.zeros(d)
    for k in range(40):
        c = step_size(sched, k)
        g = stochastic_gradient(problem, dataset, x, rng2, 1)
        x = apply_prox(problem.r1, x - c * g, c)
    np.testing.assert_allclose(res.state.x, x, rtol=1e-14, atol=1e-15)


def test_stoch_linadmm_deterministic():
    problem, dataset, config = flr_instance(iters=60)
    a = run_stoch_linadmm(problem, dataset, config)
    b = run_stoch_linadmm(problem, dataset, config)
    np.testing.assert_array_equal(a.state.x, b.state.x)
    assert [(r.iteration, r.objective) for r in a.trace] == \
        [(r.iteration, r.objective) for r in b.trace]


def test_trace_schema_shared():
    problem, dataset, config = flr_instance(iters=50)
    for res in (run(problem, dataset, config),
                run_eg_full(problem, dataset, config),
                run_stoch_linadmm(problem, dataset, config)):
        rec = res.trace[-1]
        assert rec.iteration == 50
        assert np.isfinite(rec.objective)


def test_eg_full_deterministic_mode_slack_nonnegative():
    # config.full_batch makes run the eg-full solver (see the test above)
    problem, dataset, config = flr_instance(iters=40, full_batch=True)
    caps = []
    run(problem, dataset, config, captures=caps)
    from spdpeg.solver import check_step_inequality, relative_slack
    rng = np.random.default_rng(3)
    l = problem.penalty.n_rows
    for cap in caps:
        ref = (rng.standard_normal(l), rng.standard_normal(8),
               rng.standard_normal(l))
        [rep] = check_step_inequality(cap, problem, dataset, config, [ref])
        assert rep.delta_norm_sq == 0.0
        assert relative_slack(rep) >= -1e-10
