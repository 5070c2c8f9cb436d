"""Dataset ingestion, splitting, and synthetic problem generation.

``split_order`` is the split rule, a seeded permutation and the train
size. ``split`` takes its two parts of a dataset; ``synthesize``, given the
permutation as ``order``, draws its rows straight into that order, so a
synthetic split is two slices of one array (its docstring gives the bits).
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np

from .model import Dataset
from .penalties import GraphSpec
from .sparse import SparseMatrix, checked_rows

SYNTHETIC_KINDS = ("fused-signal", "graph-logistic")
SYNTH_BLOCK = 4096  # rows drawn, scaled and multiplied per block by synthesize
_MAX_INDEX = int(np.iinfo(np.int64).max)


class ParseError(ValueError):
    """Malformed input line; ``line_no`` is 1-based."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no
        self.message = message

    def __reduce__(self):
        # rebuilt from both arguments, so it survives pickling
        return type(self), (self.line_no, self.message)


def parse_libsvm(source) -> Dataset:
    """Parse sparse 'label idx:val ...' lines into a Dataset.

    Indices are 1-based in the file and converted to 0-based; labels must be
    finite and map to +1 when positive and -1 otherwise; indices must be
    strictly increasing within a line. The dimension is the largest index
    seen. The lines are read in one pass into growing ``array`` buffers,
    each token checked where it is read. When every row stores all d
    features, only the ``(n, d)`` values are kept, as
    ``Dataset.from_dense_rows`` keeps them; they were checked finite here.
    """
    if isinstance(source, str):
        source = source.splitlines()
    indptr, indices, values, labels = array("q", [0]), array("q"), array("d"), array("d")
    for line_no, raw in enumerate(source, start=1):
        line = raw.strip()
        if not line:
            continue
        tokens = line.split()
        try:
            raw_label = float(tokens[0])
        except ValueError:
            raise ParseError(line_no, f"bad label {tokens[0]!r}") from None
        if not math.isfinite(raw_label):
            raise ParseError(line_no, f"non-finite label {tokens[0]!r}")
        prev = 0
        for tok in tokens[1:]:
            head, sep, tail = tok.partition(":")
            if not sep:
                raise ParseError(line_no, f"feature {tok!r} is not 'index:value'")
            try:
                idx = int(head)
            except ValueError:
                raise ParseError(line_no, f"bad feature index {head!r}") from None
            if not 1 <= idx <= _MAX_INDEX:
                raise ParseError(line_no, f"feature index {idx} is not in "
                                          f"[1, {_MAX_INDEX}]")
            if idx <= prev:
                raise ParseError(line_no, f"feature index {idx} not strictly increasing")
            try:
                val = float(tail)
            except ValueError:
                raise ParseError(line_no, f"bad feature value {tail!r}") from None
            if not math.isfinite(val):
                raise ParseError(line_no, f"non-finite feature value {tail!r}")
            indices.append(idx - 1)
            values.append(val)
            prev = idx
        labels.append(1.0 if raw_label > 0 else -1.0)
        indptr.append(len(values))
    if not labels:
        raise ParseError(1, "no samples found")
    indices, values = np.frombuffer(indices, np.int64), np.frombuffer(values)
    n, d = len(labels), int(indices.max(initial=-1)) + 1
    if values.size == n * d:  # increasing indices below d: d in every row
        return Dataset._of_rows(labels, values.reshape(n, d))
    return Dataset(SparseMatrix(n, d, indptr, indices, values), labels)


@dataclass(frozen=True)
class SplitSpec:
    train_fraction: float
    seed: int

    def __post_init__(self):
        if not (0.0 < self.train_fraction < 1.0):
            raise ValueError("train_fraction must lie strictly between 0 and 1")
        if self.seed < 0:
            raise ValueError(f"split seed must be >= 0, got {self.seed}")


def split_order(n: int, spec: SplitSpec) -> tuple[np.ndarray, int]:
    """The split rule: a seeded permutation of range(n) whose first
    ``n_train`` = round-half-up(fraction * n) entries are the train rows."""
    if n < 2:
        raise ValueError("need at least two samples to split")
    n_train = int(math.floor(spec.train_fraction * n + 0.5))
    if n_train < 1 or n_train >= n:
        raise ValueError(f"degenerate split: {n_train}/{n - n_train}")
    return np.random.default_rng(spec.seed).permutation(n), n_train


def split(dataset: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset]:
    """Deterministic shuffled split by ``split_order``."""
    order, n_train = split_order(dataset.n_samples, spec)
    return dataset.subset(order[:n_train]), dataset.subset(order[n_train:])


def normalize_features(dataset: Dataset) -> tuple[Dataset, np.ndarray]:
    """Scale each feature column to max-abs 1; returns the scales used.
    Dense rows stay dense rows, with the bytes the CSR path gives them."""
    rows = dataset.dense_rows
    if rows is not None:
        scales = np.abs(rows).max(axis=0)
        scales[scales == 0.0] = 1.0
        return Dataset._of_rows(dataset.labels, rows / scales), scales
    scales = np.zeros(dataset.dimension)
    np.maximum.at(scales, dataset.indices, np.abs(dataset.data))
    scales[scales == 0.0] = 1.0
    # |value| <= 1, so finite: the checked structure is reused unchecked
    f = dataset.features
    features = SparseMatrix.unchecked(
        f.n_rows, f.n_cols, f.row_offsets, f.col_indices,
        dataset.data / scales[dataset.indices], f.row_ids)
    return Dataset(features, dataset.labels), scales


def _components(d: int, edges) -> np.ndarray:
    # a list, not an array: each parent[a] of an array is a scalar access
    parent = list(range(d))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i, j, _ in edges:
        parent[find(i)] = find(j)
    return np.array([find(i) for i in range(d)])


def _ground_truth(kind: str, d: int,
                  rng: np.random.Generator) -> tuple[np.ndarray, GraphSpec | None]:
    """``synthesize``'s x* and graph, the first draws of its stream.

    The graph's edges are drawn in rounds: one ``integers(0, d)`` call of
    one pair per edge still missing, its pairs added in order. A pair adds
    at most one edge, so a round cannot overshoot, and the draws stop on
    the pair where one call per pair would stop. Each bounded integer below
    2**32 takes one 32-bit word of the bit generator, which keeps its half
    word between calls, so the edges and the stream are those of one
    ``integers(0, d, size=2)`` call per pair."""
    graph = None
    if kind == "fused-signal":
        n_seg = min(3, d)
        x_star = np.empty(d)
        bounds = np.linspace(0, d, n_seg + 1).astype(int)
        seg_vals = rng.standard_normal(n_seg)
        for s in range(n_seg):
            x_star[bounds[s]:bounds[s + 1]] = seg_vals[s]
    else:
        n_edges = min(int(1.2 * d) + 1, d * (d - 1) // 2)
        chosen: set[tuple[int, int]] = set()
        while len(chosen) < n_edges:
            for i, j in rng.integers(0, d, size=(n_edges - len(chosen), 2)).tolist():
                if i != j:
                    chosen.add((min(i, j), max(i, j)))
        edges = tuple((i, j, 1.0) for i, j in sorted(chosen))
        graph = GraphSpec(edges, d)
        comp = _components(d, edges)
        comp_ids = np.unique(comp)
        comp_vals = rng.standard_normal(comp_ids.size)
        comp_vals[rng.random(comp_ids.size) < 0.5] = 0.0
        if np.all(comp_vals == 0.0):
            comp_vals[0] = 1.0
        x_star = comp_vals[np.searchsorted(comp_ids, comp)]
    return x_star, graph


def _inverse_permutation(order, n: int) -> np.ndarray:
    """dest with dest[order[p]] = p; ValueError unless ``order`` permutes
    range(n)."""
    order = np.asarray(order)
    dest = np.full(n, -1, dtype=np.int64)  # a -1 left over is a missed row
    if order.shape == (n,):
        dest[checked_rows(order, n)] = np.arange(n)
    if dest.min() < 0:
        raise ValueError(f"order must be a permutation of range({n})")
    return dest


def synthesize(kind: str, d: int, n: int, noise: float, seed: int,
               order=None) -> tuple[Dataset, GraphSpec | None, np.ndarray]:
    """Generate a labeled dataset with known ground truth.

    fused-signal: piecewise-constant truth with three segments; labels are
    sign(a^T x* + noise * g) on Gaussian features scaled to unit expected
    norm. graph-logistic: truth constant on the components of a random
    graph (about half of them zeroed), returned together with the graph.

    The features are drawn in blocks of ``SYNTH_BLOCK`` rows: each block is
    scaled, its margins are taken with ``block @ x_star``, and it is written
    into its place in one ``(n, d)`` array, so row p holds stream row
    ``order[p]`` (stream order when ``order`` is None). The noise and the
    labels are computed in stream order, then taken in ``order``. So a
    permuted dataset is born permuted and the rows are never held twice.
    The Generator's stream does not depend on the block size. Under one
    BLAS thread the blocked products give the one-shot product's bits;
    under more, a margin may move in its last bit, as the one-shot
    product's margins already do between thread counts.
    """
    if kind not in SYNTHETIC_KINDS:
        raise ValueError(f"unknown synthetic kind {kind!r}")
    if d < 2 or n < 2:
        raise ValueError("need d >= 2 and n >= 2")
    if not (math.isfinite(noise) and noise >= 0):
        # a NaN noise makes every label -1, an infinite one drowns x*
        raise ValueError(f"noise must be finite and >= 0, got {noise!r}")
    if seed < 0:
        raise ValueError(f"synthetic seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    x_star, graph = _ground_truth(kind, d, rng)
    dest = None if order is None else _inverse_permutation(order, n)
    scale = math.sqrt(d)
    features, buf = np.empty((n, d)), np.empty((min(SYNTH_BLOCK, n), d))
    margins = np.empty(n)
    for lo in range(0, n, SYNTH_BLOCK):
        hi = min(lo + SYNTH_BLOCK, n)
        block = rng.standard_normal(out=buf[:hi - lo])
        block /= scale
        margins[lo:hi] = block @ x_star
        features[slice(lo, hi) if dest is None else dest[lo:hi]] = block
    margins += noise * rng.standard_normal(n)
    labels = np.where(margins >= 0, 1.0, -1.0)
    if order is not None:
        labels = labels.take(order)
    return Dataset.from_dense_rows(features, labels), graph, x_star
