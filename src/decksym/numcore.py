"""Dense complex linear algebra: SVD nullspaces and a tolerant RREF.

Matrices are plain complex128 numpy arrays.  The nullspace is computed from
the singular value decomposition because the matrices built downstream are
Vandermonde-like and badly conditioned; rank decisions are made relative to
the largest singular value.  The SVD is numpy's (LAPACK gesdd); only when it
fails to converge does the nullspace fall back to scipy's gesvd driver, the
one use of scipy in decksym.
"""

from __future__ import annotations

import numpy as np

DEFAULT_RANK_TOL = 1e-8
PIVOT_TOL = 1e-8


def _svd_vals_vh(a: np.ndarray):
    # gesdd (numpy's default) occasionally fails to converge on
    # ill-conditioned Vandermonde blocks; gesvd is slower but dependable.
    try:
        _, s, vh = np.linalg.svd(a, full_matrices=True)
    except np.linalg.LinAlgError:
        # Imported here, on the one path that needs it: importing scipy.linalg
        # costs more start-up time than the rest of decksym together.
        import scipy.linalg

        _, s, vh = scipy.linalg.svd(a, full_matrices=True, lapack_driver="gesvd")
    return s, vh


def nullspace(a: np.ndarray, rank_tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Orthonormal basis (as columns) of the numerical nullspace of A.

    A direction counts as null when its singular value is <= rank_tol times
    the largest one.  Returns a (cols, 0) matrix for a trivial nullspace.
    """
    if rank_tol <= 0:
        raise ValueError("rank_tol must be positive")
    a = np.asarray(a, dtype=complex)
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix contains non-finite entries")
    if a.size == 0 or not np.any(a):
        return np.eye(a.shape[1], dtype=complex)
    s, vh = _svd_vals_vh(a)
    smax = s[0]
    rank = int(np.sum(s > rank_tol * smax))
    return vh[rank:].conj().T


def rref(m: np.ndarray) -> np.ndarray:
    """Reduced row echelon form with partial pivoting.

    Entries below ``PIVOT_TOL`` (relative to the largest entry of the input)
    are treated as zero during pivot selection; pivots are normalized to 1
    and their columns cleared.
    """
    m = np.array(m, dtype=complex, copy=True)
    if m.size == 0:
        return m
    threshold = PIVOT_TOL * max(1.0, float(np.abs(m).max()))
    rows, cols = m.shape
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        pivot_row = r + int(np.argmax(np.abs(m[r:, c])))
        if abs(m[pivot_row, c]) < threshold:
            m[np.abs(m[:, c]) < threshold, c] = 0.0
            continue
        if pivot_row != r:
            m[[r, pivot_row]] = m[[pivot_row, r]]
        m[r] = m[r] / m[r, c]
        for k in range(rows):
            if k != r and m[k, c] != 0:
                m[k] = m[k] - m[k, c] * m[r]
        m[:, c] = 0.0
        m[r, c] = 1.0
        r += 1
    return m
