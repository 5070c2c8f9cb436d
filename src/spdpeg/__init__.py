"""Stochastic primal-dual proximal extra-gradient solver and benchmark kit.

The package root exports what the README's library example uses; every
other name is imported from its module (``spdpeg.model``, ``spdpeg.bench``
and so on).
"""

from .data import synthesize
from .model import Problem, SolverConfig, estimate_lipschitz
from .penalties import build_fused_matrix
from .prox import ProxSpec
from .solver import run

__version__ = "0.1.0"
