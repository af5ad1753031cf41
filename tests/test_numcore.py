import numpy as np

from decksym.numcore import DEFAULT_RANK_TOL, nullspace, rref


def rank(a):
    """Reference: the singular values above ``DEFAULT_RANK_TOL`` times the
    largest one."""
    if a.size == 0 or not np.any(a):
        return 0
    s = np.linalg.svd(a, compute_uv=False)
    return int(np.sum(s > DEFAULT_RANK_TOL * s[0]))


def test_nullspace_zero_matrix():
    n = nullspace(np.zeros((2, 2)))
    assert n.shape == (2, 2)


def test_nullspace_rank_one():
    n = nullspace(np.array([[1.0, 0.0], [0.0, 0.0]]))
    assert n.shape == (2, 1)
    assert abs(abs(n[1, 0]) - 1.0) < 1e-12


def test_nullspace_example41_vandermonde_is_two_dimensional():
    # Exact samples on V(x^2 + p x + 1): pair each root with its Vieta partner
    # 1/x; columns (1, x, p | 1, x, p).
    rng = np.random.default_rng(2)
    rows = []
    for _ in range(6):
        p = rng.standard_normal() + 1j * rng.standard_normal()
        x = (-p + np.sqrt(p * p - 4 + 0j)) / 2
        ximg = 1 / x
        mono = np.array([1.0, x, p])
        rows.append(np.concatenate([mono, -ximg * mono]))
    a = np.array(rows)
    n = nullspace(a)
    assert n.shape == (6, 2)


def test_rank_nullity_property():
    rng = np.random.default_rng(13)
    for _ in range(15):
        r = int(rng.integers(1, 50))
        c = int(rng.integers(1, 50))
        k = int(rng.integers(0, min(r, c) + 1))
        a = (rng.standard_normal((r, k)) + 1j * rng.standard_normal((r, k))) @ (
            rng.standard_normal((k, c)) + 1j * rng.standard_normal((k, c))
        ) if k else np.zeros((r, c), dtype=complex)
        assert rank(a) + nullspace(a).shape[1] == c


def test_nullspace_columns_orthonormal():
    rng = np.random.default_rng(17)
    a = rng.standard_normal((8, 12)) + 1j * rng.standard_normal((8, 12))
    n = nullspace(a)
    gram = n.conj().T @ n
    assert np.abs(gram - np.eye(n.shape[1])).max() < 1e-10
    assert np.abs(a @ n).max() < 1e-10


def test_rref_identity():
    assert np.allclose(rref(np.eye(3)), np.eye(3))


def test_rref_rank_one():
    m = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])
    r = rref(m)
    assert np.allclose(r[0], [1.0, 2.0])
    assert np.allclose(r[1:], 0.0)


def test_rref_idempotent():
    rng = np.random.default_rng(23)
    for _ in range(10):
        m = rng.standard_normal((5, 8)) + 1j * rng.standard_normal((5, 8))
        r = rref(m)
        assert np.abs(rref(r) - r).max() < 1e-10


def test_rref_example41_nullspace_rows():
    # The reduced nullspace of the Example 4.1 Vandermonde encodes the two
    # representatives 1/x  ->  (1,0,0 | 0,1,0)  and  -x-p  ->  (0,1,1 | -1,0,0).
    rng = np.random.default_rng(2)
    rows = []
    for _ in range(6):
        p = rng.standard_normal() + 1j * rng.standard_normal()
        x = (-p + np.sqrt(p * p - 4 + 0j)) / 2
        mono = np.array([1.0, x, p])
        rows.append(np.concatenate([mono, -(1 / x) * mono]))
    n = nullspace(np.array(rows))
    reduced = rref(n.T)
    expected = np.array(
        [[1, 0, 0, 0, 1, 0], [0, 1, 1, -1, 0, 0]], dtype=complex
    )
    assert np.abs(reduced - expected).max() < 1e-8


def test_nullspace_falls_back_to_gesvd_when_numpy_svd_fails(monkeypatch):
    """When numpy's SVD does not converge, the nullspace comes from scipy's
    gesvd driver, the one use of scipy in decksym."""
    calls = []

    def failing_svd(*args, **kwargs):
        calls.append(args)
        raise np.linalg.LinAlgError("SVD did not converge")

    rng = np.random.default_rng(31)
    b = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
    c = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
    a = b @ c  # rank 3
    monkeypatch.setattr(np.linalg, "svd", failing_svd)
    n = nullspace(a)
    assert len(calls) == 1
    assert n.shape == (5, 2)
    assert np.allclose(n.conj().T @ n, np.eye(2), atol=1e-12)
    assert np.linalg.norm(a @ n) <= 1e-10 * np.linalg.norm(a)
