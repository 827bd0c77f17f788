"""Oracle eigenpairs against LAPACK on the matrix shapes that stress shared
brackets, the Newton finish and the twisted factorization: graded, exactly
degenerate, tightly clustered and split (zero couplings)."""
import numpy as np
import pytest

linalg = pytest.importorskip("scipy.linalg")
hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from pdem_si.core import Grid, Interval  # noqa: E402
from pdem_si.oracle import TridiagonalOperator, _simpson_weights, eigenpairs, eigenvectors  # noqa: E402


def _tridiagonal(shape, n, rng):
    if shape == "graded":
        # ||T|| ~ 1e13 at one end, as for hyperbolic Poschl-Teller and Morse
        g = np.logspace(0.0, 13.0, n)
        diag = g * rng.uniform(1.5, 2.5, n) + rng.uniform(-1.0, 1.0, n)
        off = -np.sqrt(g[:-1] * g[1:]) * rng.uniform(0.3, 1.0, n - 1)
    elif shape == "double":
        # two identical blocks with a zero coupling: every eigenvalue is exactly double
        half = max(n // 2, 1)
        d, o = rng.uniform(-5.0, 5.0, half), rng.uniform(-1.0, 1.0, half - 1)
        diag, off = np.concatenate([d, d]), np.concatenate([o, [0.0], o])
    elif shape == "cluster":
        diag = 1.0 + 1e-9 * rng.uniform(-1.0, 1.0, n)
        off = 1e-9 * rng.uniform(-1.0, 1.0, n - 1)
    else:
        diag, off = rng.uniform(-5.0, 5.0, n), rng.uniform(-1.0, 1.0, n - 1)
        if shape == "split":
            off[rng.uniform(size=n - 1) < 0.3] = 0.0
    return diag, off


def _assert_normalized_rows(op, vectors):
    assert np.all(np.isfinite(vectors))
    norms = np.sum(_simpson_weights(op.grid.n_points, op.grid.spacing) * vectors**2, axis=1)
    assert np.allclose(norms, 1.0, rtol=0.0, atol=1e-12), norms


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    shape=st.sampled_from(["graded", "double", "cluster", "split", "plain"]),
    n=st.integers(2, 120),
    k=st.integers(1, 64),
    seed=st.integers(0, 2**31 - 1),
)
def test_eigenpairs_match_lapack_on_hard_shapes(shape, n, k, seed):
    diag, off = _tridiagonal(shape, n, np.random.RandomState(seed))
    k = min(k, len(diag))
    op = TridiagonalOperator(diag, off, Grid(Interval(0.0, 1.0), len(diag) + 2))
    # vectors too: any RuntimeWarning on the way is an error in this suite
    spec = eigenpairs(op, k)
    got = spec.eigenvalues
    ref = linalg.eigh_tridiagonal(diag, off, eigvals_only=True, select="i", select_range=(0, k - 1), tol=1e-300)
    assert np.all(np.abs(got - ref) <= 1e-9 * np.maximum(1.0, np.abs(ref))), (shape, got - ref)
    assert np.all(np.diff(got) >= 0.0)
    # level j comes out bit-identical for every k > j: fewer levels is a prefix
    j = max(1, k // 2)
    assert np.array_equal(eigenpairs(op, j).eigenvalues, got[:j]), (shape, j, k)
    _assert_normalized_rows(op, eigenvectors(op, got))


def test_graded_eigenvector_far_above_unit_scale_is_finite():
    # lambda_2 = 6.6e8: any fixed absolute shift below ulp(lambda_2) leaves
    # T - lambda_2 singular, and a solve with it overflows into a row of NaN
    diag, off = _tridiagonal("graded", 4, np.random.RandomState(1624898412))
    op = TridiagonalOperator(diag, off, Grid(Interval(0.0, 1.0), len(diag) + 2))
    spec = eigenpairs(op, 4)
    assert 6e8 < spec.eigenvalues[2] < 7e8
    _assert_normalized_rows(op, eigenvectors(op, spec.eigenvalues))
