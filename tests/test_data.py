import hashlib
import io
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (csr_dataset, fingerprint, one_shot_synthesize,
                      per_pair_graph_truth, serialize_libsvm)
from spdpeg import bench
from spdpeg.data import (SYNTH_BLOCK, SYNTHETIC_KINDS, ParseError, SplitSpec,
                         _ground_truth, normalize_features, parse_libsvm,
                         split, split_order, synthesize)
from spdpeg.model import estimate_lipschitz
from spdpeg.penalties import build_fused_matrix


def test_parse_basic_line():
    ds = parse_libsvm("+1 1:0.5 3:2.0\n")
    assert ds.dimension == 3 and ds.n_samples == 1
    np.testing.assert_array_equal(ds.indices, [0, 2])
    np.testing.assert_array_equal(ds.data, [0.5, 2.0])
    np.testing.assert_array_equal(ds.labels, [1.0])


def test_parse_zero_label_maps_to_minus_one():
    ds = parse_libsvm("0 1:1\n")
    assert ds.labels[0] == -1.0


def test_parse_accepts_stream_and_crlf():
    ds = parse_libsvm(io.StringIO("1 1:1.0\r\n-1 2:2.0\r\n"))
    assert ds.n_samples == 2 and ds.dimension == 2


def test_parse_error_carries_line_number():
    with pytest.raises(ParseError) as exc:
        parse_libsvm("1 1:1\n\n1 3:x\n")
    assert exc.value.line_no == 3
    # blank and whitespace-only lines of a stream count as lines of the file
    with pytest.raises(ParseError, match="line 5: feature index 2 not strictly"):
        parse_libsvm(io.StringIO("\n1 1:1\n \t\n\n-1 2:1 2:3\n"))
    with pytest.raises(ParseError) as exc:
        parse_libsvm("1 1:1 1:2\n")
    assert exc.value.line_no == 1
    with pytest.raises(ParseError):
        parse_libsvm("abc 1:1\n")
    with pytest.raises(ParseError):
        parse_libsvm("1 0:1\n")
    with pytest.raises(ParseError):
        parse_libsvm("")
    # an index beyond int64 is a parse error, not an OverflowError
    with pytest.raises(ParseError, match="index 99999999999999999999 is not in") as exc:
        parse_libsvm("1 1:1\n1 99999999999999999999:1.0\n")
    assert exc.value.line_no == 2
    assert parse_libsvm("1 9223372036854775807:1\n").dimension == 2 ** 63 - 1


def test_parse_error_survives_pickling():
    with pytest.raises(ParseError) as exc:
        parse_libsvm("1 1:1\n1 2:x\n")
    err = pickle.loads(pickle.dumps(exc.value))
    assert type(err) is ParseError
    assert err.line_no == 2
    assert str(err) == str(exc.value) == "line 2: bad feature value 'x'"


@pytest.mark.parametrize("label", ["nan", "inf", "-inf"])
def test_parse_rejects_non_finite_label(label):
    with pytest.raises(ParseError, match="non-finite label") as exc:
        parse_libsvm(f"1 1:1\n{label} 2:1\n")
    assert exc.value.line_no == 2


def write_rows(path, n: int, d: int, ragged: bool) -> None:
    """n LIBSVM lines over d features with repr values: each row stores
    every feature, or, ragged, a sorted draw of 0 to 28 of them."""
    rng = np.random.default_rng(5)
    with open(path, "w", encoding="utf-8") as fh:
        for _ in range(n):
            cols = (np.sort(rng.choice(d, size=rng.integers(0, 29), replace=False))
                    if ragged else np.arange(d))
            values = rng.standard_normal(cols.size).tolist()
            fh.write(" ".join(["+1" if rng.random() < 0.5 else "-1"]
                              + [f"{c + 1}:{v!r}" for c, v in zip(cols.tolist(), values)])
                     + "\n")


# name: (rows, features, ragged, peak bound over the kept arrays); the
# fingerprint is the parsed/<name> pin.
# The one-pass parse measured a peak of 2.06x and 1.70x the kept arrays
# (numpy 2.4.6, CPython 3.11.7), so the bounds leave about 20%; a parse
# that builds per-line arrays and concatenates them measured 4.52x and 3.11x.
PARSED_FILES = {"full-rows": (20_000, 20, False, 2.5),
                "ragged-rows": (8_000, 123, True, 2.0)}


@pytest.mark.parametrize("name", list(PARSED_FILES))
def test_parse_keeps_its_bits_and_peaks_near_what_it_keeps(tmp_path, name, pinned):
    n, d, ragged, bound = PARSED_FILES[name]
    path = tmp_path / "rows.txt"
    write_rows(path, n, d, ragged)
    tracemalloc.start()
    try:
        with open(path, encoding="utf-8") as fh:
            ds = parse_libsvm(fh)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (ds.dense_rows is None) == ragged and ds.dimension == d
    kept = ((ds.data, ds.indptr) if ds.dense_rows is not None else
            (ds.indptr, ds.indices, ds.data, ds.row_ids))
    assert peak <= bound * sum(a.nbytes for a in (*kept, ds.labels))
    pinned(f"parsed/{name}", fingerprint(ds))


@settings(max_examples=60, deadline=None)
@given(st.lists(
    st.tuples(st.booleans(),
              st.lists(st.tuples(st.integers(0, 20),
                                 st.floats(-1e6, 1e6, allow_nan=False)),
                       max_size=6, unique_by=lambda p: p[0])),
    min_size=1, max_size=8))
def test_parse_serialize_roundtrip(spec_rows):
    lines = []
    any_feature = False
    for positive, feats in spec_rows:
        parts = ["+1" if positive else "-1"]
        for idx, val in sorted(feats):
            parts.append(f"{idx + 1}:{val!r}")
            any_feature = True
        lines.append(" ".join(parts))
    if not any_feature:
        lines[0] += " 1:1.0"
    ds = parse_libsvm("\n".join(lines) + "\n")
    again = parse_libsvm(serialize_libsvm(ds))
    assert ds.dimension == again.dimension
    np.testing.assert_array_equal(ds.indptr, again.indptr)
    np.testing.assert_array_equal(ds.indices, again.indices)
    np.testing.assert_array_equal(ds.data, again.data)
    np.testing.assert_array_equal(ds.labels, again.labels)


def test_split_sizes_and_determinism():
    ds, _, _ = synthesize("fused-signal", 4, 10, 0.1, 0)
    train, test = split(ds, SplitSpec(0.8, 3))
    assert train.n_samples == 8 and test.n_samples == 2
    train2, test2 = split(ds, SplitSpec(0.8, 3))
    np.testing.assert_array_equal(train.data, train2.data)
    np.testing.assert_array_equal(test.labels, test2.labels)


def test_split_round_half_up():
    ds, _, _ = synthesize("fused-signal", 4, 3, 0.1, 0)
    train, test = split(ds, SplitSpec(0.5, 0))
    assert train.n_samples == 2 and test.n_samples == 1


def test_split_preserves_multiset():
    ds, _, _ = synthesize("fused-signal", 5, 12, 0.1, 1)
    train, test = split(ds, SplitSpec(0.75, 9))

    def rows(part):
        return [(*row, label)
                for row, label in zip(part.features.to_dense().tolist(), part.labels)]

    assert sorted(rows(train) + rows(test)) == sorted(rows(ds))


def test_split_of_ragged_dataset_is_pinned(pinned):
    # the split/ pins were recorded on the commit before Dataset.subset took
    # its rows with SparseMatrix.take_rows
    # eleven rows of one to four entries over six features, rows 3 and 8 empty
    rng = np.random.default_rng(21)
    lengths = rng.integers(1, 5, size=11)
    lengths[[3, 8]] = 0
    indices = np.concatenate([np.sort(rng.choice(6, size=k, replace=False))
                              for k in lengths])
    ds = csr_dataset(np.concatenate([[0], np.cumsum(lengths)]), indices,
                     rng.standard_normal(indices.size),
                     np.where(rng.random(11) < 0.5, 1.0, -1.0), 6)
    train, test = split(ds, SplitSpec(0.6, 5))
    assert (train.n_samples, test.n_samples) == (7, 4)
    pinned("split/train", fingerprint(train))
    pinned("split/test", fingerprint(test))


def test_split_rejects_degenerate():
    ds, _, _ = synthesize("fused-signal", 4, 2, 0.1, 0)
    with pytest.raises(ValueError):
        split(ds, SplitSpec(0.9, 0))
    with pytest.raises(ValueError):
        SplitSpec(1.0, 0)


def test_a_negative_seed_names_itself():
    with pytest.raises(ValueError, match=r"^split seed must be >= 0, got -1$"):
        SplitSpec(0.8, -1)
    with pytest.raises(ValueError, match=r"^synthetic seed must be >= 0, got -3$"):
        synthesize("fused-signal", 4, 10, 0.1, -3)


def test_split_order_is_the_split_rule():
    order, n_train = split_order(7, SplitSpec(0.5, 3))
    assert n_train == 4  # round half up: 3.5 -> 4
    np.testing.assert_array_equal(order, np.random.default_rng(3).permutation(7))
    for n, fraction in ((2, 0.9), (2, 0.2), (10, 0.01)):
        with pytest.raises(ValueError, match="degenerate split"):
            split_order(n, SplitSpec(fraction, 0))
    with pytest.raises(ValueError, match="at least two samples"):
        split_order(1, SplitSpec(0.5, 0))


def assert_same_rows(got, want):
    for name in ("data", "labels"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.shape, a.tobytes()) == (b.shape, b.tobytes())
    assert fingerprint(got) == fingerprint(want)
    assert got.max_row_norm_sq == want.max_row_norm_sq


BLOCK_SIZES = (2, 3, 5, 200, SYNTH_BLOCK - 1, SYNTH_BLOCK, SYNTH_BLOCK + 1,
               2 * SYNTH_BLOCK + 3)


@pytest.mark.parametrize("n", BLOCK_SIZES)
@pytest.mark.parametrize("kind", SYNTHETIC_KINDS)
def test_synthesize_is_the_one_shot_draw(kind, n):
    for d in (2, 20, 50):
        args = (kind, d, n, 0.1, n + d)
        got, want = synthesize(*args), one_shot_synthesize(*args)
        assert_same_rows(got[0], want[0])
        assert got[1] == want[1]
        assert got[2].tobytes() == want[2].tobytes()


def build_or_error(build):
    try:
        return build()
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("n", BLOCK_SIZES)
@pytest.mark.parametrize("kind", SYNTHETIC_KINDS)
def test_synthetic_split_is_born_as_the_old_split(kind, n):
    # build_data draws a split in its order; the rows, labels and errors are
    # those of splitting the one-shot draw
    for d in (2, 20, 50):
        for fraction, seed in ((0.8, 1), (0.5, 7), (0.9, 3), (0.25, 11)):
            s = {"kind": kind, "d": d, "n": n, "noise": 0.1, "seed": seed}
            spec = SplitSpec(fraction, seed + 5)
            got = build_or_error(lambda: bench.build_data(
                {"synthetic": s, "split": True, "train_fraction": fraction,
                 "split_seed": seed + 5}))
            want = build_or_error(lambda: split(one_shot_synthesize(**s)[0], spec))
            if isinstance(want, str):
                assert got == want and want.startswith("degenerate split")
                continue
            for g, w in zip(got, want):
                assert_same_rows(g, w)
            # one array: the test rows start where the train rows end
            train, test = got[0].data, got[1].data
            assert train.ctypes.data + train.nbytes == test.ctypes.data


def test_synthesize_rejects_an_order_that_is_no_permutation():
    for order in ([0, 1, 2], [0, 1, 1, 3], [[0, 1, 2, 3]], np.arange(5)):
        with pytest.raises(ValueError, match="permutation"):
            synthesize("fused-signal", 3, 4, 0.1, 0, order)
    with pytest.raises(IndexError):
        synthesize("fused-signal", 3, 4, 0.1, 0, [0, 1, 2, 4])


def test_synthesize_deterministic():
    a = synthesize("fused-signal", 6, 20, 0.2, 77)
    b = synthesize("fused-signal", 6, 20, 0.2, 77)
    np.testing.assert_array_equal(a[0].data, b[0].data)
    np.testing.assert_array_equal(a[2], b[2])


def test_synthesize_noiseless_labels_separable():
    ds, _, x_star = synthesize("fused-signal", 6, 30, 0.0, 5)
    margins = ds.features.to_dense() @ x_star
    np.testing.assert_array_equal(margins >= 0, ds.labels > 0)


def test_synthesize_fused_truth_has_two_breakpoints():
    _, _, x_star = synthesize("fused-signal", 6, 5, 0.1, 9)
    jumps = build_fused_matrix(6).matvec(x_star)
    assert int(np.sum(jumps != 0.0)) == 2


def test_synthesize_graph_truth_constant_on_components():
    ds, graph, x_star = synthesize("graph-logistic", 10, 15, 0.1, 21)
    assert graph is not None and graph.dimension == 10
    for i, j, _ in graph.edges:
        assert x_star[i] == x_star[j]


def test_graph_synthesizer_is_pinned(pinned):
    # sha256 over a grid of synthesize("graph-logistic", ...) results (data,
    # labels, edges, x*) and, from _ground_truth on a fresh generator, the
    # generator's state and next draws; recorded before the edge draws took
    # rounds
    h = hashlib.sha256()
    for d in (2, 3, 5, 20, 123, 300):
        for seed in (0, 1, 7, 12345, 2 ** 63 + 5):
            ds, graph, x_star = synthesize("graph-logistic", d, 12, 0.1, seed)
            h.update(fingerprint(ds, np.array(graph.edges), x_star).encode())
            rng = np.random.default_rng(seed)
            _ground_truth("graph-logistic", d, rng)
            h.update(repr(rng.bit_generator.state).encode())
            h.update(rng.integers(0, d, size=3))
            h.update(rng.standard_normal(3))
    pinned("graph-synth", h.hexdigest())


@pytest.mark.parametrize("d", [2, 3, 4, 5, 8, 20, 50, 123, 300])
def test_graph_truth_is_the_per_pair_draw(d):
    # the edges, x* and the generator's state after them are those of one
    # integers(0, d, size=2) call per candidate edge
    for seed in range(40):
        got_rng, want_rng = (np.random.default_rng(seed) for _ in range(2))
        x_star, graph = _ground_truth("graph-logistic", d, got_rng)
        want_x, want_edges = per_pair_graph_truth(d, want_rng)
        assert graph.edges == want_edges
        assert x_star.tobytes() == want_x.tobytes()
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_synthesize_rejects_bad_args():
    with pytest.raises(ValueError):
        synthesize("spiral", 4, 10, 0.1, 0)
    with pytest.raises(ValueError):
        synthesize("fused-signal", 1, 10, 0.1, 0)
    with pytest.raises(ValueError):
        synthesize("fused-signal", 4, 10, -0.1, 0)


@pytest.mark.parametrize("kind", ["fused-signal", "graph-logistic"])
@pytest.mark.parametrize("noise", [float("nan"), float("inf")])
def test_synthesize_rejects_non_finite_noise(kind, noise):
    # a NaN noise labels every sample -1; an infinite one makes the labels
    # independent of x*
    with pytest.raises(ValueError, match="noise must be finite"):
        synthesize(kind, 6, 20, noise, 0)


def test_normalize_features_scales_to_unit_max():
    ds = parse_libsvm("+1 1:2.0 2:0.5\n-1 1:-4.0\n")
    scaled, scales = normalize_features(ds)
    np.testing.assert_allclose(scales, [4.0, 0.5])
    col_max = np.zeros(2)
    np.maximum.at(col_max, scaled.indices, np.abs(scaled.data))
    np.testing.assert_allclose(col_max, [1.0, 1.0])
    # normalization changes the worst-case smoothness bound
    assert estimate_lipschitz(scaled, "logistic") != estimate_lipschitz(ds, "logistic")
