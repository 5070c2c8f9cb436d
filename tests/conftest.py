"""Helpers shared by the test modules."""

import numpy as np

from spdpeg.model import Dataset
from spdpeg.sparse import SparseMatrix


def csr_dataset(indptr, indices, data, labels, dimension):
    """Dataset of the given CSR arrays with one row per label; the matrix
    gets the full check of ``SparseMatrix``."""
    n = np.asarray(labels).size
    return Dataset(SparseMatrix(n, dimension, indptr, indices, data), labels)
