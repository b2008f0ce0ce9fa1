"""Answer checks that do not trust the program under test.

Every answer is checked with scipy, never with the solver that produced
it: the backward error ``||L x - b|| / ||b||`` uses a scipy CSR SpMV,
and at set-up each matrix's answer to a fixed right-hand side is
compared with scipy's serial ``spsolve_triangular``.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve_triangular

#: Largest accepted backward error.  The executors reach ~1e-16 on every
#: workload matrix (all are well conditioned by construction), so a
#: bound six orders looser still catches any wrong entry of size 1e-9.
BACKWARD_TOL = 1e-10

#: Largest accepted forward error against scipy, relative in the max
#: norm.  Level merging reorders the arithmetic, which moves the answer
#: by a few ulps, never by this much.
FORWARD_TOL = 1e-9


def to_scipy(L) -> sp.csr_matrix:
    """The same matrix as a scipy CSR array (shares no state with ``L``)."""
    return sp.csr_matrix(
        (L.values.copy(), L.col_idx.copy(), L.row_ptr.copy()),
        shape=(L.n_rows, L.n_cols),
    )


def backward_error(A: sp.csr_matrix, x: np.ndarray, b: np.ndarray) -> float:
    """``||A x - b||_2 / ||b||_2``; ``inf`` when ``x`` is not finite."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != b.shape or not np.isfinite(x).all():
        return float("inf")
    return float(np.linalg.norm(A @ x - b) / np.linalg.norm(b))


def answer_ok(A: sp.csr_matrix, x: np.ndarray, b: np.ndarray) -> bool:
    """True when ``x`` solves ``A x = b`` within :data:`BACKWARD_TOL`."""
    return backward_error(A, x, b) <= BACKWARD_TOL


def forward_error(x: np.ndarray, x_ref: np.ndarray) -> float:
    """``max|x - x_ref| / max|x_ref|``; ``inf`` when ``x`` is not finite."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != x_ref.shape or not np.isfinite(x).all():
        return float("inf")
    return float(np.max(np.abs(x - x_ref)) / np.max(np.abs(x_ref)))


def reference_solve(A: sp.csr_matrix, b: np.ndarray) -> tuple[np.ndarray, float]:
    """scipy's serial triangular solve and its wall time in ms."""
    t0 = time.perf_counter()
    x = spsolve_triangular(A, b, lower=True)
    return x, (time.perf_counter() - t0) * 1e3


def matches_reference(A: sp.csr_matrix, x: np.ndarray, b: np.ndarray) -> bool:
    """True when ``x`` agrees with scipy within :data:`FORWARD_TOL`."""
    x_ref, _ = reference_solve(A, b)
    return forward_error(x, x_ref) <= FORWARD_TOL
