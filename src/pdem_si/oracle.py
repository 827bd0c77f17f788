"""Independent verification engine: symmetric tridiagonal discretizations,
Sturm-count eigenvalues (``eigenpairs``), eigenvectors at given eigenvalues
(``eigenvectors``, one twisted factorization each), Simpson quadrature.

One midpoint (staggered) stencil, ``_stencil``, forms every operator, the
deformed one as the ordering DEFORMED; the matrices are exactly symmetric, and
boundary nodes carry Dirichlet conditions outside the matrix.
``discretize_vonroos`` builds one ordering with it; the verify battery's
ordering pair builds two from one evaluation of f per grid.

The sweeps ``_count``, ``_count_slope`` and ``_lanes`` (up to 8 shifts in
one pass, each a ``_count_slope`` or a ``_count``, two shifts to a vector
register; the first two are passes of one shift) run in one C loop,
``sturm_lanes``. It, the twisted vectors of ``_twisted_rows`` (every vector
of a request in one call, the forward and backward pivots of two eigenvalues
in one pass) and their input arrays (``_sweep_arrays``, built once per
operator and kept on it as ``TridiagonalOperator.sweep_arrays``) are in
``_sturm.c``, loaded with ctypes. The library is compiled on the first
sweep, not at import, and cached in the package's __pycache__ under a key
that hashes the source and the flags (written to a temporary name, then
renamed; libraries of other keys are then deleted). Where it cannot be
built, for want of a compiler or of a writable cache, the sweep arrays are
lists, and the sweeps run the Python loops below (``_twisted_vector`` for the
vectors), which are also the reference the C loops match bit for bit: they
do the same operations in the same order. ``-ffp-contract=off`` forbids fused
multiply-adds, which aarch64 compilers emit by default, and ``-fno-builtin``
keeps e2 the libm pow that Python's ``e**2`` calls, which gcc would fold into
e*e (1 ulp off at about one value in a thousand).
"""
from __future__ import annotations

import contextlib
import ctypes
import errno
import importlib.util
import math
import os
import tempfile
import warnings
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .core import (
    AmbiguityParams,
    ConvergenceError,
    DeformingFunction,
    Grid,
    ParameterError,
    SingularPotential,
)

_V_GUARD = 1e14
_PIVMIN = 1e-290
_NEWTON_WIDTH = 0.05  # relative bracket width at which an isolated level starts Newton steps
_NEWTON_SWEEPS = 12  # slope sweeps per level before it finishes by bisection
_COUNT_WIDTH = 1e-6  # relative bracket width below which a rejected Newton step is a plain count
_GUESS_WIDTH = 1e-5  # relative half-width of the two counts that certify a guess


@dataclass(frozen=True)
class TridiagonalOperator:
    """Symmetric tridiagonal operator over the interior nodes of ``grid``.

    ``left_coupling``/``right_coupling`` hold the stencil weights to the two
    boundary nodes; the eigenproblem (Dirichlet) never uses them, but applying
    the operator to samples that do not vanish at the boundary does.
    """

    diag: np.ndarray
    off: np.ndarray
    grid: Grid
    left_coupling: float = 0.0
    right_coupling: float = 0.0

    def __post_init__(self):
        if len(self.diag) != self.grid.n_points - 2 or len(self.off) != len(self.diag) - 1:
            raise ParameterError("tridiagonal operator shape mismatch with grid")

    @property
    def n(self) -> int:
        return len(self.diag)

    @cached_property
    def sweep_arrays(self) -> tuple:
        """(d, e2) of ``_sweep_arrays``, built on first use and kept: every
        solve, count and eigenvector of this operator sweeps the same two."""
        return _sweep_arrays(self)

    def apply_interior(self, v: np.ndarray) -> np.ndarray:
        out = self.diag * v
        out[:-1] += self.off * v[1:]
        out[1:] += self.off * v[:-1]
        return out

    def apply(self, psi_full: np.ndarray) -> np.ndarray:
        """Full sampled action at interior nodes, boundary couplings included."""
        psi = np.asarray(psi_full, dtype=float)
        out = self.apply_interior(psi[1:-1])
        out[0] += self.left_coupling * psi[0]
        out[-1] += self.right_coupling * psi[-1]
        return out

    def gershgorin(self) -> tuple:
        radius = np.zeros(self.n)
        radius[:-1] += np.abs(self.off)
        radius[1:] += np.abs(self.off)
        return float(np.min(self.diag - radius)), float(np.max(self.diag + radius))


@dataclass(frozen=True)
class Spectrum:
    eigenvalues: np.ndarray
    eigenvectors: Optional[np.ndarray]  # rows on the full grid, Simpson-normalized


# the deformed kinetic term: pi^2 with pi = sqrt(f) p sqrt(f) is the ordering f^1/2 d f d f^1/2, where V~ = 0
DEFORMED = AmbiguityParams(0.5, 0.5)


def discretize_vonroos(df: DeformingFunction, amb: AmbiguityParams, v: Callable, grid: Grid) -> TridiagonalOperator:
    """The ordered kinetic term -(A d B d C + C d B d A)/2 plus diag(V), with
    A = f^xi, B = f^eta, C = f^zeta (the mass powers of M = 1/f^2). Each edge
    couples its end nodes by -(A B C' + C B A')/(2 h^2), B at its midpoint; the
    outer two edges give the boundary couplings."""
    return _stencil(df, (amb,), lambda x, f: (v(x),), grid)[0]


def _stencil(df: DeformingFunction, orderings: tuple, v: Callable, grid: Grid) -> list:
    """The operator of ``discretize_vonroos`` for each ordering in
    ``orderings``, from one evaluation of f at the nodes and at the midpoints;
    ``v(x, f)`` gives one potential per ordering at the interior nodes x, where f is the nodes' f."""
    x = grid.nodes()
    h = grid.spacing
    f, f_mid = df.f(x), df.f(0.5 * (x[:-1] + x[1:]))
    ops = []
    for amb, V in zip(orderings, v(x[1:-1], f[1:-1])):
        V = np.asarray(V, dtype=float)
        if np.any(~np.isfinite(V)) or np.any(np.abs(V) > _V_GUARD):
            raise SingularPotential("potential exceeds overflow guard at an interior node")
        A, B, C = f**amb.xi, f_mid**amb.eta, f**amb.zeta
        edge = -0.5 * (A[:-1] * B * C[1:] + C[:-1] * B * A[1:]) / h**2
        diag = f[1:-1] ** (amb.xi + amb.zeta) * (B[1:] + B[:-1]) / h**2 + V
        ops.append(TridiagonalOperator(diag, edge[1:-1], grid, float(edge[0]), float(edge[-1])))
    return ops


_KERNEL_SOURCE = Path(__file__).with_name("_sturm.c")
_KERNEL_FLAGS = ("-O2", "-ffp-contract=off", "-fno-builtin", "-shared", "-fPIC")
_LIB = None  # the compiled sweeps (_kernel): None until the first sweep


def _kernel():
    """The compiled sweeps, built and loaded by the first call; False where they cannot be."""
    global _LIB
    if _LIB is None:
        _LIB = False
        with contextlib.suppress(OSError):  # no compiler, or a cache that cannot be written
            # the hash of hash-based .pyc files: hashlib would load OpenSSL, 3.5 MB of resident memory
            key = importlib.util.source_hash(_KERNEL_SOURCE.read_bytes() + " ".join(_KERNEL_FLAGS).encode()).hex()
            _LIB = _open_kernel(_KERNEL_SOURCE.parent / "__pycache__", f"_sturm.{key}.so")
    return _LIB


def _open_kernel(cache: Path, name: str):
    """The library ``name`` in ``cache``, compiled there first if missing; False
    where the compiler fails, OSError where it is missing or the cache cannot
    be written."""
    import subprocess  # here, so that import pdem_si does not load it

    path = cache / name
    if not path.exists():  # compile under a temporary name, then rename: no reader sees a partial file
        cache.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=cache) as tmp:
            out = os.path.join(tmp, name)
            cmd = ["cc", *_KERNEL_FLAGS, "-o", out, str(_KERNEL_SOURCE), "-lm"]
            if subprocess.run(cmd, capture_output=True).returncode:
                return False
            os.replace(out, path)
        for stale in cache.glob("_sturm.*.so"):  # built from an older source or other flags
            if stale != path:
                with contextlib.suppress(OSError):  # another process may have removed it first
                    stale.unlink()
    lib = ctypes.CDLL(str(path))
    # the sweeps take the addresses of buffers the caller holds: converting arrays costs about 1 µs a call
    dp, vp, n = ctypes.POINTER(ctypes.c_double), ctypes.c_void_p, ctypes.c_long
    lib.sturm_lanes.argtypes, lib.sturm_lanes.restype = (vp, vp, n, vp, n, n, vp, vp), None
    lib.sturm_vectors.argtypes, lib.sturm_vectors.restype = (vp, vp, vp, n, vp, n, vp, n, vp), None
    lib.sweep_arrays.argtypes, lib.sweep_arrays.restype = (vp, vp, n, dp, dp), n
    return lib


def _sweep_arrays(op: TridiagonalOperator) -> tuple:
    """The diagonal and the squared off-diagonal of ``op`` in the form the
    sweeps read: buffers of the compiled kernel, or else lists of Python
    floats, which the Python sweeps loop over fastest."""
    lib = _kernel()
    if not lib:
        return op.diag.tolist(), [e**2 for e in map(float, op.off)]
    diag, off = np.ascontiguousarray(op.diag, dtype=float), np.ascontiguousarray(op.off, dtype=float)
    d, e2 = (ctypes.c_double * len(diag))(), (ctypes.c_double * len(off))()
    if lib.sweep_arrays(diag.ctypes.data, off.ctypes.data, len(diag), d, e2):
        raise OverflowError(errno.ERANGE, os.strerror(errno.ERANGE))  # as Python's e**2 does
    return d, e2


def sturm_count(op: TridiagonalOperator, t: float) -> int:
    """Number of eigenvalues of ``op`` strictly below t (LDL^T sign count)."""
    return _count(*op.sweep_arrays, float(t))


def _count(d, e2, t: float) -> int:
    # zero pivots are replaced by -pivmin before the sign test (ties count below)
    if isinstance(d, ctypes.Array):  # a one-lane pass of the compiled sweep
        cnt, t, ref = ctypes.c_long(), ctypes.c_double(t), ctypes.byref
        _LIB.sturm_lanes(ctypes.addressof(d), ctypes.addressof(e2), len(d), ref(t), 1, 0, ref(cnt), None)
        return cnt.value
    pivmin = _PIVMIN
    q = d[0] - t
    if -pivmin < q < pivmin:
        q = -pivmin
    cnt = 1 if q < 0.0 else 0
    for dj, ej in zip(d[1:], e2):
        q = dj - t - ej / q
        if q < pivmin:
            if q > -pivmin:
                q = -pivmin
            cnt += 1
    return cnt


def _count_slope(d, e2, t: float) -> tuple:
    """The count of ``_count`` and d/dt log|det(T - t)| = sum of q_i'/q_i over
    the pivots, with q_i' = -1 + (e_i^2/q_{i-1}) (q_{i-1}'/q_{i-1})."""
    if isinstance(d, ctypes.Array):
        cnt, slope, t, ref = ctypes.c_long(), ctypes.c_double(), ctypes.c_double(t), ctypes.byref
        _LIB.sturm_lanes(ctypes.addressof(d), ctypes.addressof(e2), len(d), ref(t), 1, 1, ref(cnt), ref(slope))
        return cnt.value, slope.value
    pivmin = _PIVMIN
    q = d[0] - t
    if -pivmin < q < pivmin:
        q = -pivmin
    cnt = 1 if q < 0.0 else 0
    p = -1.0 / q
    slope = p
    for dj, ej in zip(d[1:], e2):
        r = ej / q
        q = dj - t - r
        if q < pivmin:
            if q > -pivmin:
                q = -pivmin
            cnt += 1
        p = (r * p - 1.0) / q
        slope += p
    return cnt, slope


def _lanes(d, e2, shifts: list, ms: int) -> tuple:
    """The counts of ``_count`` at ``shifts`` and the slopes of ``_count_slope``
    at the first ``ms`` of them. The compiled kernel sweeps two or more
    shifts in passes of up to 8 lanes, the slope lanes and the count lanes of
    a pass together; a single shift runs ``_count`` or ``_count_slope`` (a
    pass of one lane), where the sweep counters see it, and list arrays run
    the Python sweep of each shift."""
    counts, slopes, addr = [], [], ctypes.addressof
    if len(shifts) == 1 or not isinstance(d, ctypes.Array):
        for i, t in enumerate(shifts):
            if i < ms:
                c, slope = _count_slope(d, e2, t)
                slopes.append(slope)
            else:
                c = _count(d, e2, t)
            counts.append(c)
        return counts, slopes
    for i in range(0, len(shifts), 8):
        m = min(8, len(shifts) - i)
        s = min(max(ms - i, 0), m)
        t, cnt, slope = (ctypes.c_double * m)(*shifts[i : i + m]), (ctypes.c_long * m)(), (ctypes.c_double * s)()
        _LIB.sturm_lanes(addr(d), addr(e2), len(d), addr(t), m, s, addr(cnt), addr(slope))
        counts += cnt[:]
        slopes += slope[:]
    return counts, slopes


def _simpson_weights(n: int, h: float) -> np.ndarray:
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (h / 3.0)


def quadrature(samples: np.ndarray, grid: Grid) -> float:
    """Composite Simpson integral of samples over the grid (odd node counts);
    even counts fall back to the trapezoid rule with a recorded warning."""
    y = np.asarray(samples, dtype=float)
    if len(y) != grid.n_points:
        raise ParameterError("sample count does not match grid")
    h = grid.spacing
    if grid.n_points % 2 == 1:
        return float(np.sum(_simpson_weights(grid.n_points, h) * y))
    warnings.warn("even node count: falling back to trapezoid quadrature", stacklevel=2)
    return float(np.trapezoid(y, dx=h))


def _pivots(d: list, e2: list, t: float) -> list:
    # the pivots of _count's LDL^T sweep, zero pivots replaced by -pivmin
    pivmin = _PIVMIN
    q = d[0] - t
    if -pivmin < q < pivmin:
        q = -pivmin
    out = [q]
    append = out.append
    for dj, ej in zip(d[1:], e2):
        q = dj - t - ej / q
        if q < pivmin:
            if q > -pivmin:
                q = -pivmin
        append(q)
    return out


def _twisted_vector(op: TridiagonalOperator, d, e2, lam: float) -> np.ndarray:
    """Eigenvector of T at the eigenvalue lam from one twisted factorization
    (Dhillon & Parlett, Linear Algebra Appl. 387, 2004; LAPACK dlar1v).

    The forward pivots D+ of T - lam = L D+ L^T and the backward pivots D- of
    T - lam = U D- U^T give gamma_i = D+_i + D-_i - (d_i - lam), the reciprocal
    of the ith diagonal entry of (T - lam)^-1. Twisting at r = argmin |gamma|
    gives z with z_r = 1 and (T - lam) z = gamma_r e_r. ``d`` and ``e2`` are
    the list sweep arrays of T = ``op``; D- is ``_pivots`` of the reversed
    arrays, put back in the order of d. This is the reference that the
    compiled ``sturm_vectors`` matches bit for bit."""
    fwd, bwd = np.array(_pivots(d, e2, lam)), np.array(_pivots(d[::-1], e2[::-1], lam)[::-1])
    r = int(np.argmin(np.abs(fwd + bwd - (op.diag - lam))))
    e = op.off
    z = np.ones(op.n)
    z[:r] = np.cumprod(-e[:r][::-1] / fwd[:r][::-1])[::-1]
    z[r + 1 :] = np.cumprod(-e[r:] / bwd[r + 1 :])
    return z


def _lowest_eigenvalues(d: list, e2: list, gershgorin: tuple, k: int, guess) -> list:
    """The k lowest eigenvalues, each the midpoint of a bracket [lo, hi] with
    count(lo) < m <= count(hi) for level m and hi - lo <= 1e-12 max(1, |lo|, |hi|).

    All k brackets are kept at once, and every count tightens each bracket that
    contains its shift (as LAPACK's dlaebz does). Each finite guess g first
    counts at g -+ _GUESS_WIDTH max(1, |g|), 8 to a pass; a good guess
    certifies its level's bracket at that relative width, and a wrong one costs
    only its two counts. Unless the guesses have already bounded the top
    level, the upper bound gallops up from the Gershgorin lower bound instead
    of starting at the Gershgorin upper bound, 4 doublings per pass, applied in
    order up to the first that bounds the top level.

    Then the open levels step in rounds, and one call (``_lanes``) sweeps the
    shifts of a round in one pass. A level bisects at its bracket's midpoint,
    shared with the levels of the same bracket, until it is isolated
    (count(lo) = m - 1, count(hi) = m) and its bracket is within _NEWTON_WIDTH
    relative. From then on it takes Newton steps on log|det(T - t)| (Li & Zeng,
    SIAM J. Sci. Comput. 15, 1994). Two brackets either coincide or do not
    overlap, so a shift tightens only the brackets of the levels that chose
    it, and every level gets the shifts, and the bits, it would get if each
    level bisected in turn and then all finished.

    Each Newton step is pushed past the predicted root by a quarter of the
    stop width, doubled for every step that lands on the same side as the one
    before, so the bracket closes from both sides even where rounding in
    d_i - t freezes the slope. A step that leaves the bracket or has a
    non-finite slope becomes a bisection step: a plain count once the bracket
    is within _COUNT_WIDTH relative, where the slope has nothing left to say,
    else a slope sweep at the midpoint. A level that has spent _NEWTON_SWEEPS
    slope sweeps finishes by bisection."""
    glo, ghi = gershgorin
    lo, hi = [glo] * k, [ghi] * k
    clo, chi = [0] * k, [len(d)] * k

    def tighten(t, c):
        for j in range(k):
            if lo[j] < t < hi[j]:
                if j < c:
                    hi[j], chi[j] = t, c
                else:
                    lo[j], clo[j] = t, c

    shifts = []
    for g in guess:
        g = float(g)
        if math.isfinite(g):
            w = _GUESS_WIDTH * max(1.0, abs(g))
            shifts += [t for t in (g - w, g + w) if glo < t < ghi]
    for t, c in zip(shifts, _lanes(d, e2, shifts, 0)[0]):
        tighten(t, c)

    step = max(1.0, abs(glo))
    while hi[-1] == ghi and glo + step < ghi:
        shifts = []
        while len(shifts) < 4 and glo + step < ghi:
            shifts.append(glo + step)
            step *= 2.0
        for t, c in zip(shifts, _lanes(d, e2, shifts, 0)[0]):
            if hi[-1] != ghi:
                break
            tighten(t, c)

    newton = [None] * k  # [t, slope, slope sweeps, reach, above] of each level taking Newton steps
    levels = range(k)
    while True:
        sloped, counted, still = {}, {}, []  # shift -> level, and the levels still open
        for j in levels:
            a, b = lo[j], hi[j]
            scale = max(1.0, abs(a), abs(b))
            if b - a <= 1e-12 * scale:
                continue
            still.append(j)
            x = 0.5 * (a + b)
            state = newton[j]
            if state is None:
                if clo[j] != j or chi[j] != j + 1 or b - a > _NEWTON_WIDTH * scale:
                    counted[x] = j
                    continue
                state = newton[j] = [None, None, 0, 0.25, None]
            t, slope, sweeps, reach, _ = state
            if sweeps >= _NEWTON_SWEEPS:
                counted[x] = j
            elif slope is None or not math.isfinite(slope) or slope == 0.0:
                sloped[x] = j
            else:
                y = t - 1.0 / slope
                y += math.copysign(reach * 1e-12 * max(1.0, abs(y)), y - t)
                if a < y < b:
                    sloped[y] = j
                elif b - a > _COUNT_WIDTH * scale:
                    sloped[x] = j
                else:
                    counted[x] = j
        if not still:
            break
        levels = still
        shifts = [*sloped, *counted]
        counts, slopes = _lanes(d, e2, shifts, len(sloped))
        for t, c in zip(shifts, counts):
            tighten(t, c)
        for (t, j), c, slope in zip(sloped.items(), counts, slopes):
            sweeps, reach, above = newton[j][2:]
            newton[j] = [t, slope, sweeps + 1, 2.0 * reach if (c > j) == above else 0.25, c > j]
    return [0.5 * (a + b) for a, b in zip(lo, hi)]


def eigenpairs(op: TridiagonalOperator, k: int, guess=None) -> Spectrum:
    """The k lowest eigenvalues, read-only, from shared Sturm brackets with a
    Newton finish (``_lowest_eigenvalues``); ``eigenvectors`` gives the vectors.

    ``guess`` is an optional sequence of approximate eigenvalues (the spectrum
    of a nearby operator); each is certified by two counts or costs only them,
    so the returned values meet the same bracket bound whatever it holds. A
    solve without guesses gives level j the same bits for every k > j."""
    if k < 1 or k > op.n:
        raise ParameterError(f"k must be in 1..{op.n}")
    d, e2 = op.sweep_arrays
    eigvals = np.array(_lowest_eigenvalues(d, e2, op.gershgorin(), k, () if guess is None else guess))
    # cached spectra are shared between callers, so no caller may edit them
    eigvals.setflags(write=False)
    return Spectrum(eigenvalues=eigvals, eigenvectors=None)


def _twisted_rows(op: TridiagonalOperator, lams: list) -> np.ndarray:
    """One row per eigenvalue in ``lams`` over the full grid: zero at both ends
    and the twisted vector of ``_twisted_vector`` between them. The compiled
    kernel builds every row in one call (``sturm_vectors``), two eigenvalues
    per pass over the matrix."""
    d, e2 = op.sweep_arrays
    z = np.zeros((len(lams), op.n + 2))
    if not isinstance(d, ctypes.Array):
        for row, lam in zip(z, lams):
            row[1:-1] = _twisted_vector(op, d, e2, lam)
        return z
    off, lam, bwd = np.ascontiguousarray(op.off, dtype=float), np.array(lams, dtype=float), np.empty(2 * op.n)
    args = (off.ctypes.data, op.n, lam.ctypes.data, len(lams), z[:, 1:].ctypes.data, op.n + 2, bwd.ctypes.data)
    _LIB.sturm_vectors(ctypes.addressof(d), ctypes.addressof(e2), *args)
    return z


def eigenvectors(op: TridiagonalOperator, eigvals) -> np.ndarray:
    """Read-only rows of eigenvectors of ``op`` at the eigenvalues ``eigvals``
    (as ``eigenpairs`` gives them), each from one twisted factorization at its
    eigenvalue (``_twisted_rows``), Simpson-normalized on the full grid with
    zero boundary values and the largest component positive.

    A vector is accepted if ||T v - lambda v|| < max(1e-8 max(1, |lambda|),
    64 eps || |T| |v| ||), and ConvergenceError is raised otherwise: the second
    term is the rounding floor of T v, which the first falls below on fine
    grids where ||T|| ~ f/h^2 is large."""
    w = _simpson_weights(op.grid.n_points, op.grid.spacing)
    lams = np.asarray(eigvals, dtype=float).tolist()
    vectors = _twisted_rows(op, lams)
    for full, lam in zip(vectors, lams):
        v = full[1:-1]
        v /= np.linalg.norm(v)
        resid = np.linalg.norm(op.apply_interior(v) - lam * v)
        bound = 1e-8 * max(1.0, abs(lam))
        if not resid < bound:  # the rounding floor, built only for a vector that misses the first term
            abs_op = TridiagonalOperator(np.abs(op.diag), np.abs(op.off), op.grid)
            bound = max(bound, 64.0 * np.finfo(float).eps * np.linalg.norm(abs_op.apply_interior(np.abs(v))))
        if not resid < bound:
            raise ConvergenceError(f"twisted vector at lambda={lam} misses the residual bound (residual {resid})")
        if full[np.argmax(np.abs(full))] < 0.0:
            np.negative(full, out=full)
        full /= np.sqrt(np.sum(w * full * full))
    vectors.setflags(write=False)
    return vectors


def _battery_deviation(op: TridiagonalOperator, ref: TridiagonalOperator) -> tuple:
    """(op psi - ref psi at the interior nodes, one row per function of a smooth
    test battery, max |ref psi|), boundary couplings included."""
    x = ref.grid.nodes()
    a, b = ref.grid.interval.x1, ref.grid.interval.x2
    u = (x - 0.5 * (a + b)) / (b - a)
    battery = (np.exp(-16.0 * u**2), np.sin(2.0 * x) * np.cos(np.pi * u) ** 2)
    actions = [ref.apply(psi) for psi in battery]
    dev = np.array([op.apply(psi) - rhs for psi, rhs in zip(battery, actions)])
    return dev, max(float(np.max(np.abs(rhs))) for rhs in actions)
