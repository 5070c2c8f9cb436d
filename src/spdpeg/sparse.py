"""Row-compressed sparse matrices and spectral estimation.

One CSR type serves both sparse matrices of the method: the penalty
``F``, of which the solver needs ``F @ x``, ``F.T @ y`` and the largest
eigenvalue of ``F.T F``, and the data matrix ``A`` of a ``Dataset``,
whose margins ``A @ x`` and full-gradient scatter ``A.T @ c`` are the
same two products; ``SparseMatrix.products`` gives their kernels and
bits. All CSR validation lives in ``SparseMatrix.__post_init__``, once
per matrix built from outside arrays; ``take_rows`` skips it, since rows
of a valid matrix are valid and a split of 1e5 rows need not check them
again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

_TINY = np.finfo(float).tiny
EPS = 2.0 ** -52  # float64 machine epsilon, in the rounding bounds
# most columns whose sigma_max_FtF is a dense eigensolve: about where
# eigvalsh stops beating the power iteration (3.5x slower at d=300, 2-core x86)
DENSE_SIGMA_MAX_D = 200
# most values a product takes as one BLAS call (a penalty's F x and F^T y,
# the dense-row margins of ``oracles._row_dots`` and scatter of
# ``oracles._lane_sums``): up to here the BLAS kernels gave the same bits
# under 1 and 2 OpenBLAS threads and beat bincount, np.vecdot and einsum;
# above, their bits followed the thread count
BLAS_MAX_VALUES = 8192


def row_positions(indptr: np.ndarray, rows: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Stored-entry positions of the CSR ``rows``, row after row in the
    given order (repeats included), and the length of each of those rows."""
    starts = indptr[rows]
    lengths = indptr[rows + 1] - starts
    ends = np.cumsum(lengths)
    return (np.arange(ends[-1] if ends.size else 0)
            + np.repeat(starts - (ends - lengths), lengths)), lengths


def checked_rows(rows, n_rows: int) -> np.ndarray:
    """``rows`` as a 1-D int64 array; IndexError unless each is in [0, n_rows)."""
    rows = np.asarray(rows, dtype=np.int64)
    if rows.ndim != 1 or (rows.size and not 0 <= rows.min() <= rows.max() < n_rows):
        raise IndexError(f"rows must be a 1-D array of indices below {n_rows}")
    return rows


class PowerIterationError(RuntimeError):
    """Raised when power iteration fails to converge within max_iter.

    Carries the last Rayleigh-quotient estimate in ``last_estimate``.
    """

    def __init__(self, message: str, last_estimate: float):
        super().__init__(message)
        self.last_estimate = last_estimate

    def __reduce__(self):
        # rebuilt from both arguments, so it survives pickling
        return type(self), (str(self), self.last_estimate)


@dataclass(frozen=True)
class SparseMatrix:
    """CSR matrix with validated structure.

    row_offsets has length n_rows+1 and is nondecreasing with
    row_offsets[-1] == nnz; column indices are strictly increasing within
    each row. The matrix records no row length: a dataset's layout is
    ``Dataset.dense_rows``.
    """

    n_rows: int
    n_cols: int
    row_offsets: np.ndarray
    col_indices: np.ndarray
    values: np.ndarray
    # repeated row index per stored entry; derived, used by the products
    row_ids: np.ndarray = field(init=False, repr=False, compare=False)
    # sigma_max_FtF once computed. Not a functools.cached_property: that
    # moves the fields into an instance __dict__, which made every matvec
    # of the matrix about 10% slower (CPython 3.11)
    _sigma_max_FtF: float | None = field(default=None, init=False, repr=False,
                                         compare=False)
    # the dense matrix of a small matrix's BLAS products, set by ``products``
    # on first use, like _sigma_max_FtF
    _dense: np.ndarray | None = field(default=None, init=False, repr=False,
                                      compare=False)

    def __post_init__(self):
        offsets = np.asarray(self.row_offsets, dtype=np.int64)
        cols = np.asarray(self.col_indices, dtype=np.int64)
        vals = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "row_offsets", offsets)
        object.__setattr__(self, "col_indices", cols)
        object.__setattr__(self, "values", vals)
        if self.n_rows < 0 or self.n_cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if offsets.shape != (self.n_rows + 1,):
            raise ValueError("row_offsets must have length n_rows+1")
        lengths = np.diff(offsets)
        if offsets[0] != 0 or np.any(lengths < 0):
            raise ValueError("row_offsets must start at 0 and be nondecreasing")
        if offsets[-1] != cols.size or cols.size != vals.size:
            raise ValueError("row_offsets[-1] must equal the number of stored entries")
        if cols.size and (cols.min() < 0 or cols.max() >= self.n_cols):
            raise ValueError("column index out of range")
        row_ids = np.repeat(np.arange(self.n_rows, dtype=np.int64), lengths)
        if cols.size > 1:
            same_row = row_ids[1:] == row_ids[:-1]
            if np.any(np.diff(cols)[same_row] <= 0):
                raise ValueError("column indices must be strictly increasing within a row")
        object.__setattr__(self, "row_ids", row_ids)
        if not np.all(np.isfinite(vals)):
            raise ValueError("matrix values must be finite")

    @property
    def sigma_max_FtF(self) -> float:
        """An upper bound on the largest eigenvalue of ``M.T M``: the value
        the builder set, if any (``build_fused_matrix`` sets a closed form),
        else ``dense_sigma_max_bound`` up to ``DENSE_SIGMA_MAX_D`` columns,
        else ``power_iteration_sigma_max`` (a Rayleigh quotient, which can
        fall just below). Computed on first use and kept; like
        ``Dataset.max_row_norm_sq``, it assumes no array is mutated in place."""
        if self._sigma_max_FtF is None:
            object.__setattr__(self, "_sigma_max_FtF", (
                dense_sigma_max_bound(self) if self.n_cols <= DENSE_SIGMA_MAX_D
                else power_iteration_sigma_max(self)))
        return self._sigma_max_FtF

    @property
    def nnz(self) -> int:
        return int(self.values.size)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_rows, self.n_cols)

    @classmethod
    def unchecked(cls, *field_values) -> "SparseMatrix":
        """The matrix of the given field values, in field order (``n_rows``
        to ``row_ids``, then optionally ``_sigma_max_FtF``), valid by
        construction: set as given, with no check and no copy."""
        out = object.__new__(cls)
        for f, value in zip(fields(cls), field_values):
            object.__setattr__(out, f.name, value)
        return out

    def take_rows(self, rows) -> "SparseMatrix":
        """The given rows in the given order, repeats allowed. Rows of a
        valid matrix are valid, so the fields are set without a check."""
        rows = checked_rows(rows, self.n_rows)
        gather, lengths = row_positions(self.row_offsets, rows)
        return SparseMatrix.unchecked(
            rows.size, self.n_cols, np.concatenate(([0], np.cumsum(lengths))),
            self.col_indices[gather], self.values[gather],
            np.repeat(np.arange(rows.size, dtype=np.int64), lengths))

    def products(self):
        """The unchecked ``matvec`` and ``rmatvec`` kernels, for float64
        vectors of the right lengths, chosen once by a caller that checks its
        vectors: with no stored entry, float zeros (``bincount`` would return
        int64); up to ``BLAS_MAX_VALUES`` values (``n_rows * n_cols``),
        ``dense.dot`` and ``dense.T.dot`` of the dense matrix, made once and
        kept, with the bits of the BLAS build's kernel (one inf in v gives
        NaN in every row, 0 * inf); else ``_matvec`` and ``_rmatvec``, whose
        ``bincount`` handles empty rows and columns exactly and sums each
        entry in CSR order from 0.0. The two agree bit for bit on a fused
        difference matrix (each output sums at most two nonzero products)
        and differ in the last bits on others."""
        if self.nnz == 0:
            return (lambda v: np.zeros(self.n_rows)), (lambda u: np.zeros(self.n_cols))
        if self.n_rows * self.n_cols <= BLAS_MAX_VALUES:
            if self._dense is None:
                object.__setattr__(self, "_dense", self.to_dense())
            return self._dense.dot, self._dense.T.dot
        return self._matvec, self._rmatvec

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """Return ``M @ v``."""
        v = np.asarray(v, dtype=np.float64)
        if v.shape != (self.n_cols,):
            raise ValueError(f"matvec expects a vector of length {self.n_cols}, got {v.shape}")
        return self.products()[0](v)

    def _matvec(self, v: np.ndarray) -> np.ndarray:
        """``matvec`` of a float64 vector of length ``n_cols``, unchecked,
        on a matrix with stored entries."""
        return np.bincount(self.row_ids, weights=self.values * v[self.col_indices],
                           minlength=self.n_rows)

    def rmatvec(self, u: np.ndarray) -> np.ndarray:
        """Return ``M.T @ u``."""
        u = np.asarray(u, dtype=np.float64)
        if u.shape != (self.n_rows,):
            raise ValueError(f"rmatvec expects a vector of length {self.n_rows}, got {u.shape}")
        return self.products()[1](u)

    def _rmatvec(self, u: np.ndarray) -> np.ndarray:
        """``rmatvec`` of a float64 vector of length ``n_rows``, unchecked,
        on a matrix with stored entries."""
        return np.bincount(self.col_indices, weights=self.values * u[self.row_ids],
                           minlength=self.n_cols)

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.n_rows, self.n_cols))
        out[self.row_ids, self.col_indices] = self.values
        return out


def dense_sigma_max_bound(m: SparseMatrix) -> float:
    """An upper bound on the largest eigenvalue of ``M.T M``: ``eigvalsh``
    of the formed Gram matrix plus (n_rows + n_cols)·eps·||M||_F². Forming
    it moves each eigenvalue by at most gamma_{n_rows}·||M||_F² <=
    n_rows·eps·||M||_F² (Higham, §3.5, and Weyl), with room for the sum's
    rounding; ``eigvalsh`` is taken as exact for a matrix within
    n_cols·eps·||M||_F² (backward stable: Golub & Van Loan, §8.3). ``svd(M)``
    costs as much at d=20 and more above. M is made dense."""
    dense = m.to_dense()
    top = np.max(np.linalg.eigvalsh(dense.T @ dense), initial=0.0)
    return float(top + (m.n_rows + m.n_cols) * EPS * m.values.dot(m.values))


def power_iteration_sigma_max(m: SparseMatrix, tol: float = 1e-10,
                              max_iter: int = 10000) -> float:
    """Largest eigenvalue of ``M.T M`` by power iteration.

    Starts from the normalized all-ones vector so results are deterministic.
    Difference-style matrices annihilate the all-ones vector exactly (their
    rows sum to zero); when the first iterate vanishes we restart from a
    fixed seeded Gaussian vector, which is still deterministic.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if m.n_cols == 0 or m.nnz == 0:
        return 0.0
    # vectors built here need no checks; sqrt(w.dot(w)) is np.linalg.norm(w)
    matvec, rmatvec = m.products()
    v = np.ones(m.n_cols) / np.sqrt(m.n_cols)
    w = rmatvec(matvec(v))
    if w.dot(w) == 0.0:
        v = np.random.default_rng(0).standard_normal(m.n_cols)
        v /= math.sqrt(v.dot(v))
        w = rmatvec(matvec(v))
        if w.dot(w) == 0.0:
            return 0.0
    theta_old = np.inf
    theta = float(v.dot(w))
    for _ in range(max_iter):
        nw = math.sqrt(w.dot(w))
        if nw == 0.0:
            return 0.0
        v = w / nw
        w = rmatvec(matvec(v))
        theta = float(v.dot(w))
        if abs(theta - theta_old) <= tol * max(abs(theta), _TINY):
            return theta
        theta_old = theta
    raise PowerIterationError(
        f"power iteration did not converge in {max_iter} iterations "
        f"(last estimate {theta!r})", theta)
