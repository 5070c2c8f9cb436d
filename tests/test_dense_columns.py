"""The dense-row full passes: one ``(n, d)`` layout and two BLAS cut-overs.

A dataset whose rows store every feature used to keep a ``(d, n)``
column copy for its margins as well (hence this module's name). Its full
passes now read only ``Dataset.dense_rows``. Up to
``sparse.BLAS_MAX_VALUES`` values the margins are one BLAS ``gemv`` and
the scatter one BLAS product of the dense matrix, with the bits of the
CSR ``matvec`` and ``rmatvec``; above it each margin is the row's ``dot``
with x, the batch-1 path's ``vals.dot(x[cols])``, and the scatter is
``bincount``'s order. ``reference_margins`` and
``reference_full_gradient`` state that contract over the CSR arrays (for
every other dataset the BLAS ``dense.dot(x)`` up to the cut-over and
``bincount`` margins above), with the logistic coefficients of
``conftest.one_exp_logistic``. ``one_shot_lane_sums`` is the dense
reduction, with its n*d product, whose bits ``oracles._lane_sums``
computes in one einsum pass above the cut-over.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from conftest import (csr_dataset, one_exp_logistic, serialize_libsvm,
                      sparse_from_dense)
from spdpeg import oracles, solver
from spdpeg.data import SplitSpec, parse_libsvm, split, synthesize
from spdpeg.model import LOSS_LOGISTIC, Dataset, Problem
from spdpeg.oracles import full_gradient, margins, stochastic_gradient
from spdpeg.penalties import build_fused_matrix
from spdpeg.prox import ProxSpec
from spdpeg.sparse import BLAS_MAX_VALUES


def row_dot_margins(dataset, x):
    """Each row's ``vals.dot(x[cols])``, the batch-1 path's kernel, in a
    loop over the CSR rows."""
    indptr, indices, data = dataset.indptr, dataset.indices, dataset.data
    return np.array([data[lo:hi].dot(x[indices[lo:hi]])
                     for lo, hi in zip(indptr[:-1], indptr[1:])])


def blas_sized(dataset):
    """Whether the dataset's CSR products are BLAS products of its dense
    matrix: it stores an entry and has at most ``BLAS_MAX_VALUES`` values."""
    return (dataset.indices.size > 0
            and dataset.n_samples * dataset.dimension <= BLAS_MAX_VALUES)


def reference_margins(dataset, x):
    """The BLAS ``dense.dot(x)`` of the dense matrix up to the cut-over;
    above it the row dots, summed from +0.0, where every row stores every
    feature (a one-feature row's BLAS ``dot`` is its product, which keeps a
    -0.0; ``np.vecdot`` adds it to +0.0), else one ``bincount`` over every
    stored entry."""
    if dataset.indices.size == 0:
        return np.zeros(dataset.n_samples)
    if blas_sized(dataset):
        return dataset.features.to_dense().dot(x)
    if dataset.dense_rows is not None:
        return row_dot_margins(dataset, x) + 0.0
    return np.bincount(dataset.row_ids, weights=dataset.data * x[dataset.indices],
                       minlength=dataset.n_samples)


def reference_full_gradient(problem, dataset, x):
    """Margins, coefficients (the logistic ones with num = -b/n), then the
    scatter: one BLAS ``coefs.dot(dense)`` up to the cut-over, else one
    ``bincount`` into d bins."""
    d, n = dataset.dimension, dataset.n_samples
    m = reference_margins(dataset, x)
    labels = dataset.labels
    if problem.loss == LOSS_LOGISTIC:
        coefs = one_exp_logistic(labels / -n, labels * m)
    else:
        coefs = (m - labels) / n
    if dataset.indices.size == 0:
        grad = np.zeros(d)
    elif blas_sized(dataset):
        grad = coefs.dot(dataset.features.to_dense())
    else:
        coef_rep = np.repeat(coefs, np.diff(dataset.indptr))
        grad = np.bincount(dataset.indices, weights=dataset.data * coef_rep,
                           minlength=d)
    if problem.ridge:
        grad = grad + problem.ridge * x
    return grad


def dense_dataset(seed, n, d, stored_zeros=False):
    rng = np.random.default_rng(seed)
    values = 3.0 * rng.standard_normal(n * d)
    if stored_zeros:
        # explicitly stored zeros of both signs
        values[rng.random(n * d) < 0.3] = 0.0
        values[rng.random(n * d) < 0.2] = -0.0
    return csr_dataset(d * np.arange(n + 1), np.tile(np.arange(d), n), values,
                       np.where(rng.random(n) < 0.5, 1.0, -1.0), d)


def problem_for(loss, d, ridge):
    return Problem(loss, ProxSpec("none"), ProxSpec("l1", 0.0),
                   sparse_from_dense(np.eye(d)), ridge=ridge)


def trial_points(d, seed):
    """Random points at several scales (large ones saturate the
    coefficient on both sides), plus points made of signed zeros."""
    rng = np.random.default_rng(seed)
    points = [scale * rng.standard_normal(d) for scale in (0.1, 1.0, 30.0)
              for _ in range(10)]
    points.append(np.zeros(d))
    points.append(-np.zeros(d))
    points.append(np.where(rng.random(d) < 0.5, 0.0, -0.0))
    mixed = rng.standard_normal(d)
    mixed[rng.random(d) < 0.5] = -0.0
    points.append(mixed)
    return points


SHAPES = [(n, d) for n in (1, 2, 200) for d in (1, 2, 20)] + [(7, 64)]


def _assert_full_passes_match(dataset, loss, ridge, seed):
    problem = problem_for(loss, dataset.dimension, ridge)
    for x in trial_points(dataset.dimension, seed):
        got_m = margins(dataset, x)
        assert got_m.tobytes() == reference_margins(dataset, x).tobytes()
        want = reference_full_gradient(problem, dataset, x).tobytes()
        assert full_gradient(problem, dataset, x).tobytes() == want
        # a strided x: full_gradient makes it contiguous for the dot kernel
        assert full_gradient(problem, dataset, np.repeat(x, 2)[::2]).tobytes() == want
        enumerated = stochastic_gradient(problem, dataset, x,
                                         np.random.default_rng(0), 1,
                                         enumerate_all=True)
        assert enumerated.tobytes() == want


@pytest.mark.parametrize("n,d", SHAPES)
@pytest.mark.parametrize("loss", ["logistic", "least-squares"])
@pytest.mark.parametrize("ridge", [0.0, 0.25])
@pytest.mark.parametrize("stored_zeros", [False, True])
def test_full_passes_are_bitwise_the_csr_kernels(n, d, loss, ridge, stored_zeros):
    dataset = dense_dataset(n * 1000 + d, n, d, stored_zeros)
    assert np.shares_memory(dataset.dense_rows, dataset.data)
    _assert_full_passes_match(dataset, loss, ridge, seed=n + d)


@pytest.mark.parametrize("kind", ["fused-signal", "graph-logistic"])
@pytest.mark.parametrize("loss", ["logistic", "least-squares"])
def test_synthesized_datasets_take_the_dense_path(kind, loss):
    dataset, _, _ = synthesize(kind, 20, 200, 0.1, 3)
    assert np.shares_memory(dataset.dense_rows, dataset.data)
    _assert_full_passes_match(dataset, loss, 0.0, seed=5)


def test_sigmoid_bits_do_not_depend_on_layout():
    """``oracles._logistic`` with num = 1 is the sigmoid sigma(-t). numpy's
    vectorised ``exp`` runs a SIMD loop over the body of an array and may
    take another path at its ends, on unaligned or strided memory, or in
    place. A value must get the same bits wherever it sits, and as a numpy
    scalar (one draw's margin), so every layout must give the fresh-array
    formula's bits over the whole array."""
    rng = np.random.default_rng(3)
    t = np.concatenate([50.0 * rng.standard_normal(80_000 - 12),
                        [0.0, -0.0, 5e-324, -5e-324, 709.0, 710.0, 800.0,
                         -800.0, 1e300, -1e300, np.inf, -np.inf]])
    one = np.array(1.0)
    want = one_exp_logistic(1.0, t)
    assert oracles._logistic(one, t.copy()).tobytes() == want.tobytes()
    singles = np.concatenate([oracles._logistic(one, t[i:i + 1].copy())
                              for i in range(t.size)])
    assert singles.tobytes() == want.tobytes()
    scalars = np.array([oracles._logistic(1.0, v) for v in t])
    assert scalars.tobytes() == want.tobytes()
    for offset in range(1, 9):
        buf = t.copy()
        oracles._logistic(one, buf[offset:])
        assert buf[offset:].tobytes() == want[offset:].tobytes(), offset
    for stride in (2, 3, 7):
        buf = t.copy()
        oracles._logistic(one, buf[1::stride])
        assert buf[1::stride].tobytes() == want[1::stride].tobytes(), stride


def test_logistic_coefs_are_bitwise_the_product_form():
    """The coefficient -b * sigma(-b*m) is the one quotient
    -b / (1 + exp(min(b*m, 709))), for either label and at edge margins,
    and leaves the margins as they were."""
    rng = np.random.default_rng(2)
    m = np.concatenate([[0.0, -0.0, 5e-324, -5e-324, 709.0, -709.0, 745.0,
                         -745.0, np.inf, -np.inf], 30.0 * rng.standard_normal(2000)])
    m_in = m.copy()
    for labels in (np.ones(m.size), -np.ones(m.size),
                   np.where(rng.random(m.size) < 0.5, 1.0, -1.0)):
        want = one_exp_logistic(-labels, labels * m)
        for part in (slice(0, 1), slice(0, 16), slice(None)):
            got = oracles._coefs(LOSS_LOGISTIC, m[part], labels[part])
            assert got.tobytes() == want[part].tobytes()
    assert m.tobytes() == m_in.tobytes()


def test_dense_rows_are_the_values_viewed_once():
    """The one dense layout is a view: no copy of the values is made or kept."""
    for n, d in ((30, 6), (2, 2), (5, 64), (1, 6), (30, 1), (1, 1)):
        dataset = dense_dataset(n + d, n, d)
        rows = dataset.dense_rows
        assert rows.shape == (n, d) and rows.flags.c_contiguous
        assert np.shares_memory(rows, dataset.data)
        assert rows.tobytes() == dataset.data.tobytes()


def test_ragged_and_sparse_datasets_keep_the_bincount_margins():
    ragged = csr_dataset([0, 2, 5, 6], [0, 3, 0, 1, 4, 2], np.ones(6),
                         [1.0, -1.0, 1.0], 5)
    sparse = csr_dataset([0, 2, 4, 6], [0, 3, 1, 4, 2, 3], np.ones(6),
                         [1.0, -1.0, 1.0], 5)
    empty = csr_dataset([0, 0, 0, 0], [], [], [1.0, -1.0, 1.0], 3)
    for dataset in (ragged, sparse, empty):
        assert dataset.dense_rows is None
        x = np.linspace(-1.0, 1.0, dataset.dimension)
        assert (margins(dataset, x).tobytes()
                == dataset.features.matvec(x).tobytes()
                == reference_margins(dataset, x).tobytes())


@pytest.mark.parametrize("n,d", SHAPES)
def test_scatter_is_the_csr_rmatvec(n, d):
    dataset = dense_dataset(3 * n + d, n, d, stored_zeros=True)
    rng = np.random.default_rng(n * d)
    for coefs in (rng.standard_normal(n), np.abs(rng.standard_normal(n)),
                  -np.zeros(n), 1e-3 * rng.standard_normal(n)):
        assert (oracles._scatter(dataset, coefs).tobytes()
                == dataset.features.rmatvec(coefs).tobytes())


def test_large_n_trace_margins_stay_the_row_dots(monkeypatch):
    """The trace evaluation of a 1e5 x 50 fused set split 80/20 (what
    ``spdpeg run --synthetic fused-signal:d=50,N=100000`` builds) is far
    above the cut-over: each split's margins are one ``np.vecdot``, each
    row's dot with x, so the gemv below the cut-over moves none of them."""
    dataset, _, _ = synthesize("fused-signal", 50, 100_000, 0.1, 0)
    train, test = split(dataset, SplitSpec(0.8, 1))
    problem = Problem("logistic", ProxSpec("none"), ProxSpec("l1", 0.01),
                      build_fused_matrix(50))
    x = np.random.default_rng(13).standard_normal(50)
    seen, vecdot = [], np.vecdot
    monkeypatch.setattr(np, "vecdot",
                        lambda *args: seen.append(vecdot(*args)) or seen[-1])
    solver.evaluate_trace_record(problem, train, test, x, np.zeros(49), 100,
                                 0.0, 0.0)
    assert [m.size for m in seen] == [80_000, 20_000]
    for part, m in zip((train, test), seen):
        want = np.array([row.dot(x) for row in part.dense_rows])
        assert m.tobytes() == want.tobytes()


def test_vecdot_is_the_row_dot():
    """The canary of the row dots' build dependency: ``np.vecdot`` must run
    each row through the dot kernel of ``vals.dot(x)``, both for the full
    pass's rows against one x and for the draws' gathered rows against
    gathered x, at every width up to 300 and with signed zeros. A numpy
    whose ``vecdot`` sums otherwise moves the golden digests."""
    rng = np.random.default_rng(21)
    for d in range(2, 301):
        g = 1 + d % 5
        rows = rng.standard_normal((g, d)) * 10.0 ** rng.integers(-3, 3, (g, d))
        rows[rng.random((g, d)) < 0.2] = -0.0
        xs = rng.standard_normal((g, d))
        want = np.array([r.dot(xs[0]) for r in rows])
        assert np.vecdot(rows, xs[0]).tobytes() == want.tobytes(), d
        want = np.array([r.dot(v) for r, v in zip(rows, xs)])
        assert np.vecdot(rows, xs).tobytes() == want.tobytes(), d


# -- one-pass dense reduction -------------------------------------------------

def one_shot_lane_sums(matrix, weights):
    """The dense full pass in one expression, with its n*d product."""
    return np.add.reduce(matrix * weights[:, None], axis=0, initial=0.0)


def lane_sums_spec(matrix, weights):
    """``_lane_sums``'s specification: the BLAS ``weights.dot(matrix)`` up
    to ``BLAS_MAX_VALUES`` values, the one-shot reduction above."""
    if matrix.size <= BLAS_MAX_VALUES:
        return weights.dot(matrix)
    return one_shot_lane_sums(matrix, weights)


def one_shot_full_gradient(problem, dataset, x):
    """Above the cut-over: the row dots, the coefficients, then the
    one-shot reduction."""
    n, labels = dataset.n_samples, dataset.labels
    rows = dataset.data.reshape(n, dataset.dimension)
    m = np.array([row.dot(x) for row in rows])
    if problem.loss == LOSS_LOGISTIC:
        coefs = one_exp_logistic(labels / -n, labels * m)
    else:
        coefs = (m - labels) / n
    grad = one_shot_lane_sums(rows, coefs)
    if problem.ridge:
        grad = grad + problem.ridge * x
    return grad


def multi_tile_dataset(seed):
    """17,472 dense rows of 50 features, with stored zeros of both signs.
    Every 3,276th row stores only signed zeros, so a running sum meets
    ``+-0.0`` products part way down every lane, and one feature stores
    -0.0 in every row, so each of its products is -0.0."""
    n, d = 17_472, 50
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((n, d)) * 10.0 ** rng.integers(-3, 3, (n, d))
    values[rng.random((n, d)) < 0.1] = 0.0
    values[rng.random((n, d)) < 0.1] = -0.0
    starts = np.arange(3_276, n, 3_276)
    values[starts, : d // 2] = 0.0
    values[starts, d // 2:] = -0.0
    values[:, 3] = -0.0
    labels = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    return Dataset.from_dense_rows(values, labels)


@pytest.fixture(scope="module")
def big_dense():
    dataset = multi_tile_dataset(11)
    assert (dataset.n_samples, dataset.dimension) == (17_472, 50)
    return dataset


@pytest.mark.parametrize("loss", ["logistic", "least-squares"])
@pytest.mark.parametrize("ridge", [0.0, 0.25])
def test_multi_tile_full_passes_are_bitwise_one_shot(big_dense, loss, ridge):
    d = big_dense.dimension
    problem = problem_for(loss, d, ridge)
    rng = np.random.default_rng(7)
    points = [0.05 * rng.standard_normal(d), 3.0 * rng.standard_normal(d),
              np.abs(rng.standard_normal(d))]
    for x in points:
        want_m = row_dot_margins(big_dense, x)
        assert margins(big_dense, x).tobytes() == want_m.tobytes()
        want = one_shot_full_gradient(problem, big_dense, x).tobytes()
        assert full_gradient(problem, big_dense, x).tobytes() == want
        enumerated = stochastic_gradient(problem, big_dense, x,
                                         np.random.default_rng(0), 1,
                                         enumerate_all=True)
        assert enumerated.tobytes() == want


def test_multi_tile_matches_the_csr_kernels(big_dense):
    problem = problem_for("logistic", big_dense.dimension, 0.0)
    x = np.random.default_rng(8).standard_normal(big_dense.dimension)
    assert (margins(big_dense, x).tobytes()
            == reference_margins(big_dense, x).tobytes())
    assert (full_gradient(problem, big_dense, x).tobytes()
            == reference_full_gradient(problem, big_dense, x).tobytes())


def test_synthesized_multi_tile_dataset_is_bitwise_one_shot():
    dataset, _, _ = synthesize("fused-signal", 20, 24_583, 0.1, 3)
    problem = problem_for("logistic", 20, 0.0)
    x = np.random.default_rng(9).standard_normal(20)
    assert (margins(dataset, x).tobytes()
            == np.array([row.dot(x) for row in dataset.dense_rows]).tobytes())
    assert (full_gradient(problem, dataset, x).tobytes()
            == one_shot_full_gradient(problem, dataset, x).tobytes())


@pytest.mark.parametrize("seed", [16, 17, 40, 100])
def test_every_tile_shape_is_bitwise_one_shot(seed):
    """``_lane_sums`` against its specification on 49 small shapes, from
    one row to more rows than lanes and back, and on shapes on both sides
    of the cut-over, with stored zeros of both signs and a lane of -0.0
    under positive and mixed weights: the BLAS product up to
    ``BLAS_MAX_VALUES`` values, the one-shot reduction above."""
    rng = np.random.default_rng(seed)
    shapes = [(k, lanes) for k in (1, 2, 3, 8, 9, 21, 60)
              for lanes in (2, 3, 8, 9, 17, 33, 70)]
    shapes += [(2, 4096), (2, 4097), (163, 50), (164, 50), (409, 20),
               (410, 20), (4096, 2), (4097, 2)]
    for k, lanes in shapes:
        matrix = rng.standard_normal((k, lanes)) * 10.0 ** rng.integers(-3, 3, (k, lanes))
        matrix[rng.random((k, lanes)) < 0.2] = 0.0
        matrix[rng.random((k, lanes)) < 0.2] = -0.0
        matrix[:, 0] = -0.0
        weights = rng.standard_normal(k)
        for w in (weights, np.abs(weights)):
            got = oracles._lane_sums(matrix, w)
            assert got.tobytes() == lane_sums_spec(matrix, w).tobytes(), (k, lanes)


@pytest.mark.parametrize("loss", ["logistic", "least-squares"])
def test_small_tiles_keep_the_full_passes_bitwise(loss):
    """Small dense sets with stored signed zeros, wide and tall, ridge on."""
    for n, d in ((200, 20), (7, 64), (30, 13)):
        dataset = dense_dataset(n + d, n, d, stored_zeros=True)
        _assert_full_passes_match(dataset, loss, 0.25, seed=n)


def test_einsum_does_not_fuse_multiply_add():
    """The canary of ``_lane_sums``'s build dependency above the cut-over,
    where it is one einsum. Lane by lane it adds -1 * 1 and then
    (1 + 2**-30) * (1 + 2**-30). Rounded separately the product is
    1 + 2**-29 and the sum exactly 2**-29; a fused multiply-add keeps the
    product's 2**-60 as well, and the golden digests would move."""
    eps, want = 2.0 ** -30, 2.0 ** -29
    matrix = np.empty((2, BLAS_MAX_VALUES // 2 + 1))
    matrix[0], matrix[1] = -1.0, 1.0 + eps
    got = oracles._lane_sums(matrix, np.array([1.0, 1.0 + eps]))
    assert np.all(got == want), (
        f"np.einsum fused multiply and add on numpy {np.__version__} "
        f"({np.show_config(mode='dicts')['SIMD Extensions']}): got {got[0]!r}, "
        f"want {want!r}, so the dense full passes lose bincount's bits")


def test_dense_inputs_are_c_contiguous():
    """``_lane_sums`` keeps its bits only on C-ordered input (a Fortran-
    ordered one is summed in another order), so every way of building a
    dense dataset must give C-ordered rows, a view of the values."""
    rng = np.random.default_rng(12)
    rows = rng.standard_normal((30, 4))
    labels = np.where(rng.random(30) < 0.5, 1.0, -1.0)
    from_rows = Dataset.from_dense_rows(rows, labels)
    synthesized, _, _ = synthesize("fused-signal", 6, 40, 0.1, 2)
    train, test = split(synthesized, SplitSpec(0.75, 5))
    datasets = [
        from_rows,
        Dataset.from_dense_rows(np.asfortranarray(rows), labels),
        synthesized,
        synthesized.subset(np.array([5, 1, 1, 30, 7])),
        train, test,
        parse_libsvm(serialize_libsvm(from_rows)),
    ]
    for dataset in datasets:
        d = dataset.dimension
        assert dataset.dense_rows.flags.c_contiguous
        assert np.shares_memory(dataset.dense_rows, dataset.data)
        assert dataset.data.reshape(-1, d).flags.c_contiguous


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_dense_full_passes_build_no_n_by_d_temporary(big_dense):
    n, d = big_dense.n_samples, big_dense.dimension
    problem = problem_for("logistic", d, 0.25)
    x = np.random.default_rng(10).standard_normal(d)
    # margins allocate about their own n-vector; full_gradient also holds
    # the coefficients and the sigmoid's temporaries
    assert _peak_bytes(lambda: margins(big_dense, x)) < 2 * n * 8
    assert _peak_bytes(lambda: full_gradient(problem, big_dense, x)) < n * d * 8 // 2


# -- the BLAS products up to the cut-over ------------------------------------

BLAS_SHAPES = [(2, 2), (16, 20), (200, 20), (409, 20), (163, 50), (2, 4096),
               (128, 64), (8192, 1)]

_BLAS_BYTES = """
import numpy as np
from spdpeg import oracles
from spdpeg.sparse import BLAS_MAX_VALUES, SparseMatrix
for n, d in {shapes}:
    assert n * d <= BLAS_MAX_VALUES
    rng = np.random.default_rng(n * d)
    dense = rng.standard_normal((n, d)) * 10.0 ** rng.integers(-3, 3, (n, d))
    dense[rng.random((n, d)) < 0.1] = -0.0
    m = SparseMatrix(n, d, d * np.arange(n + 1), np.tile(np.arange(d), n),
                     dense.ravel())
    matvec, rmatvec = m.products()
    v, u = rng.standard_normal(d), rng.standard_normal(n)
    for out in (oracles._lane_sums(dense, u), oracles._row_dots(dense, v),
                matvec(v), rmatvec(u)):
        print(out.tobytes().hex())
"""


def test_blas_products_do_not_depend_on_the_thread_count():
    """The canary of the cut-over: up to ``BLAS_MAX_VALUES`` values the
    scatter, the gemv margins and both dense products must give the same
    bytes under 1 and 2 OpenBLAS threads (above it they did not), at the
    paper's 200x20, a batch of 16 such rows and exactly 8,192 values. Two
    processes, one per count."""
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, (src, os.environ.get("PYTHONPATH")))))
        proc = subprocess.run(
            [sys.executable, "-c", _BLAS_BYTES.format(shapes=BLAS_SHAPES)],
            env=env, capture_output=True, text=True, check=True)
        outputs.append(proc.stdout)
    assert outputs[0].count("\n") == 4 * len(BLAS_SHAPES)
    assert outputs[0] == outputs[1]


def edge_vector(rng, size):
    """Random magnitudes from 1e-300 to 1e300 with +-0.0, subnormals and
    +-1e300 mixed in."""
    v = rng.standard_normal(size) * 10.0 ** rng.integers(-300, 300, size)
    for value in (0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1e300, -1e300):
        v[rng.random(size) < 0.05] = value
    return v


@pytest.mark.parametrize("d", [2, 3, 20, 50, 91])
def test_fused_dense_products_are_the_bincount_kernels(d):
    """A fused matrix's BLAS products keep ``bincount``'s bits: each output
    sums at most two nonzero products, so batch-1 fused runs do not move."""
    penalty = build_fused_matrix(d)
    matvec, rmatvec = penalty.products()
    assert penalty._dense is not None  # (d - 1) * d <= BLAS_MAX_VALUES
    rng = np.random.default_rng(d)
    for _ in range(400):
        v, u = edge_vector(rng, d), edge_vector(rng, d - 1)
        assert matvec(v).tobytes() == penalty._matvec(v).tobytes()
        assert rmatvec(u).tobytes() == penalty._rmatvec(u).tobytes()
