"""Fractional Brownian path bundles (Hurst H > 1/2) and their kernels.

Two generators are provided.  ``fbm_from_kernel`` builds the fractional path
from the *same* Brownian increments through the Volterra kernel Z_H, so B and
B^H are jointly coherent (the construction every mixed-SDE consumer needs).
``fbm_from_cholesky`` samples the exact finite-dimensional law on the grid and
serves as the distributional oracle for the kernel construction.

Note on fidelity: representing B^H by one Brownian increment per uniform cell
has an intrinsic variance deficit concentrated near t = 0 that grows with H
(negligible for H <= 0.75 at a few hundred steps, ~10% for H = 0.9).  The
quadrature below attains the exact per-cell projection; the residual deficit
is a property of the uniform-grid coupling itself, which is why the Cholesky
oracle, not the kernel generator, anchors high-H covariance tests.
"""

from __future__ import annotations

import functools
import math
import os
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._special import beta as beta_fn, comb, eval_jacobi, gamma as gamma_fn
from .errors import DomainError, FactorizationError, GridMismatchError
from .rng import SubstreamSampler

__all__ = [
    "Hurst",
    "TimeGrid",
    "PathSet",
    "fbm_covariance",
    "kappa_h",
    "kernel_z_closed",
    "kernel_weights",
    "kernel_subdiagonal",
    "generate_bm",
    "fbm_from_kernel",
    "fbm_from_cholesky",
    "coarsen",
]


@dataclass(frozen=True)
class Hurst:
    """Hurst parameter, restricted to the long-memory regime (1/2, 1)."""

    value: float

    def __post_init__(self):
        v = float(self.value)
        if not 0.5 < v < 1.0:
            raise DomainError(f"Hurst parameter must lie in (1/2, 1), got {v}")
        object.__setattr__(self, "value", v)


def _hval(h) -> float:
    return h.value if isinstance(h, Hurst) else Hurst(float(h)).value


@dataclass(frozen=True)
class TimeGrid:
    """Uniform partition of [0, T] with nodes t_i = i*T/n_steps."""

    horizon: float
    n_steps: int

    def __post_init__(self):
        if not self.horizon > 0:
            raise DomainError(f"horizon must be positive, got {self.horizon}")
        if not (isinstance(self.n_steps, (int, np.integer)) and self.n_steps >= 1):
            raise DomainError(f"n_steps must be a positive integer, got {self.n_steps}")

    @property
    def dt(self) -> float:
        return self.horizon / self.n_steps

    @property
    def n_nodes(self) -> int:
        return self.n_steps + 1

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.n_steps + 1)


def _freeze(a: np.ndarray | None) -> np.ndarray | None:
    if a is not None:
        a.setflags(write=False)
    return a


@dataclass(frozen=True)
class PathSet:
    """Bundle of simulated paths on a grid, immutable after construction.

    ``dB`` holds Brownian increments (n_paths, m, n_steps) and ``BH`` the
    fractional path at nodes when a generator has attached it; the Brownian
    path ``B`` at nodes is derived from ``dB``.  Cholesky-generated sets
    carry ``BH`` only.
    """

    grid: TimeGrid
    m: int
    n_paths: int
    seed: int
    hurst: Hurst | None = None
    dB: np.ndarray | None = None
    BH: np.ndarray | None = None

    def __post_init__(self):
        for name in ("dB", "BH"):
            _freeze(getattr(self, name))
        if self.BH is not None and abs(self.BH[..., 0]).max(initial=0.0) != 0.0:
            raise ValueError("B^H must start at 0 on every path")

    @property
    def B(self) -> np.ndarray | None:
        """Brownian paths at nodes, (n_paths, m, n_nodes): 0, then the
        cumulative sums of ``dB``.  A new array on every access."""
        if self.dB is None:
            return None
        B = np.zeros((*self.dB.shape[:-1], self.dB.shape[-1] + 1))
        np.cumsum(self.dB, axis=-1, out=B[..., 1:])
        return B

    def with_bh(self, hurst: Hurst, bh: np.ndarray) -> "PathSet":
        return PathSet(self.grid, self.m, self.n_paths, self.seed, hurst,
                       self.dB, bh)

    def to_csv(self, path, workers: int = 1) -> None:
        """Write rows `path,dim,node,t,B,BH` for every node.

        Each (path, dim) block is one `%` on a template of its n + 1 rows:
        the `path,dim,` prefix joined to the rows' `node,t,%.17g,%.17g`.
        The paths are cut into the blocks of ``_path_blocks``, which
        ``_write_blocks`` formats on up to ``workers`` processes; the bytes
        are the same for every worker count.
        """
        rows = [f"{k},{t:.17g},%.17g,%.17g\n"
                for k, t in enumerate(self.grid.nodes.tolist())]
        nan_row = [float("nan")] * len(rows)
        B, BH = self.B, self.BH

        def write(fh, block: range) -> None:
            values = nan_row * 2  # B and BH, interleaved
            for p in block:
                for d in range(self.m):
                    if B is not None:
                        values[0::2] = B[p, d].tolist()
                    if BH is not None:
                        values[1::2] = BH[p, d].tolist()
                    head = f"{p},{d},"
                    fh.write((head + head.join(rows)) % tuple(values))

        with open(path, "w", newline="") as fh:
            fh.write("path,dim,node,t,B,BH\n")
            _write_blocks(fh, _path_blocks(self.n_paths, workers), write)


def _path_blocks(n_paths: int, workers: int) -> list[range]:
    """Contiguous index blocks of the paths: one per worker, but at most one
    per path and one per available CPU, so no block is empty."""
    k = max(1, min(workers, n_paths, _kernel_threads()))
    return [range(i * n_paths // k, (i + 1) * n_paths // k) for i in range(k)]


def _write_blocks(fh, blocks: list[range], write) -> None:
    """``write(f, block)`` for every block, into ``fh`` in block order.

    This process writes the first block straight into ``fh``.  Every other
    block is written by a forked child into its own part file, opened and
    unlinked before the fork, so no part outlives the processes holding it.
    The children are reaped in order; then each part is appended by
    ``os.sendfile``, in the kernel, with no copy of it in this process.  A
    failed child raises ``ChildProcessError`` once every child is reaped.

    Call it only when every thread pool of the process has been joined: the
    threads left are OpenBLAS's idle workers.  A child only formats floats
    into its own file, so it takes no lock those threads could hold, and it
    leaves through ``os._exit``: it runs no atexit handler and flushes no
    buffer it inherited.  Python 3.12 and later warn on every fork in a
    process with more than one thread, native ones included; that warning
    is ignored around the fork call alone, so the caller sees no warning.
    """
    for stream in (sys.stdout, sys.stderr, fh):
        stream.flush()
    parts, pids = [], []  # part fds; pids of the children forked so far
    try:
        try:
            for i, block in enumerate(blocks[1:], 1):
                name = f"{fh.name}.{os.getpid()}.{i}.part"
                parts.append(os.open(name, os.O_RDWR | os.O_CREAT | os.O_EXCL,
                                     0o600))
                os.unlink(name)
                with warnings.catch_warnings():
                    warnings.filterwarnings("ignore", r".*use of fork\(\)",
                                            DeprecationWarning)
                    pid = os.fork()
                if pid == 0:
                    _write_part(parts[-1], block, write)
                pids.append(pid)
            write(fh, blocks[0])
            fh.flush()
        finally:
            codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                     for pid in pids]
        for block, code in zip(blocks[1:], codes):
            if code:
                why = os.strerror(code) if 0 < code < 255 else f"exit status {code}"
                raise ChildProcessError(f"writing paths {block.start}.."
                                        f"{block.stop - 1} of {fh.name}: {why}")
        for fd in parts:
            # the part is unlinked and its writer gone: its size is final
            offset, size = 0, os.fstat(fd).st_size
            while offset < size:
                offset += os.sendfile(fh.fileno(), fd, offset, size - offset)
    finally:
        for fd in parts:
            os.close(fd)


def _write_part(fd: int, block: range, write) -> None:
    """The whole life of a forked writer: ``block`` into the part file
    ``fd``, then ``os._exit`` with 0, a failed write's errno, or 255."""
    code = 255
    try:
        with open(fd, "w", newline="") as part:
            write(part, block)
        code = 0
    except OSError as exc:
        code = exc.errno if exc.errno and exc.errno < 255 else 255
    finally:
        os._exit(code)


_LOG_HALF_FLOAT_MAX = math.log(sys.float_info.max / 2)


def _check_power(x, p: float, what: str) -> None:
    """Raise OverflowError before x ** p is taken if, for the largest x, it
    or the sum of two such powers would leave the float range."""
    top = float(np.max(x, initial=0.0))
    if top > 1.0 and p * math.log(top) >= _LOG_HALF_FLOAT_MAX:
        raise OverflowError(f"{what} = {top:.6g}**{p:.6g} leaves the float range")


def fbm_covariance(t, s, h) -> np.ndarray | float:
    """Covariance (1/2)(t^{2H} + s^{2H} - |t-s|^{2H}) of fractional BM."""
    H = _hval(h)
    t = np.asarray(t, dtype=float)
    s = np.asarray(s, dtype=float)
    if np.any(t < 0) or np.any(s < 0):
        raise DomainError("covariance requires non-negative times")
    _check_power([np.max(t, initial=0.0), np.max(s, initial=0.0)], 2 * H,
                 "fbm_covariance: t^(2H)")
    out = 0.5 * (t ** (2 * H) + s ** (2 * H) - np.abs(t - s) ** (2 * H))
    return float(out) if out.ndim == 0 else out


def kappa_h(h) -> float:
    """Normalizing constant of the Volterra kernel.

    H = 1/2 (where the constant degenerates to 1) is admitted for boundary
    sanity checks; path generators still require H > 1/2.
    """
    H = h.value if isinstance(h, Hurst) else float(h)
    if not 0.5 <= H < 1.0:
        raise DomainError(f"kappa_h requires H in [1/2, 1), got {H}")
    return _kappa(H)


@functools.cache
def _kappa(H: float) -> float:
    return float(np.sqrt(2 * H * gamma_fn(1.5 - H)
                         / (gamma_fn(H + 0.5) * gamma_fn(2 - 2 * H))))


KERNEL_SERIES_TERMS = 61  # terms of each 2F1 series that _smooth_factor economizes
KERNEL_SHORT_TERMS = 24   # power terms in 4v - 1 that each economized series keeps


def _horner(coef: np.ndarray, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """sum_n coef[n] x^n into ``out`` by in-place Horner steps."""
    out.fill(coef[-1])
    for cn in coef[-2::-1]:
        out *= x
        out += cn
    return out


def _series_coefficients(H: float) -> tuple[np.ndarray, np.ndarray]:
    """The first ``KERNEL_SERIES_TERMS`` power coefficients of R's two series.

    ``gauss[n]`` multiplies c^n and ``conn[n]`` multiplies r^n, with the
    constants of ``_smooth_factor``'s formula folded in.
    """
    a = H - 0.5
    kH = kappa_h(H)
    j = np.arange(KERNEL_SERIES_TERMS - 1.0)
    n = np.arange(KERNEL_SERIES_TERMS)
    gauss = np.cumprod(np.r_[kH * a, (2 * H + j) / (j + 1)]) / (H + 0.5 + n)
    conn = np.cumprod(np.r_[0.5 * kH, (1.5 - H + j) / (2 - 2 * H + j)])
    return gauss, conn


def _economize(series: np.ndarray) -> tuple[float, np.ndarray]:
    """(s0, p) with s0 + v p(4v - 1) = sum_n series[n] v^n on 0 <= v <= 1/2.

    p holds ``KERNEL_SHORT_TERMS`` power coefficients in x = 4v - 1.  The
    tail sum_{n>=1} series[n] v^{n-1} is re-expanded in x, where every term
    is positive, and its highest powers are then removed one at a time, each
    by subtracting its multiple of the Chebyshev polynomial T_k: Lanczos'
    economization (Trefethen, Approximation Theory and Approximation
    Practice, 2013, ch. 8).  That is the tail's Chebyshev series on
    [0, 1/2] cut after ``KERNEL_SHORT_TERMS`` terms.  The constant term is
    kept apart, so the error vanishes with v where the sum is s0.
    """
    tail = series[1:]
    n = np.arange(len(tail))
    coef = tail @ _binomial_weights(len(n))
    cheb = np.zeros((len(n), len(n)))  # row k: the power coefficients of T_k
    cheb[0, 0] = cheb[1, 1] = 1.0
    for k in range(2, len(n)):
        cheb[k, 1:] = 2 * cheb[k - 1, :-1]
        cheb[k] -= cheb[k - 2]
    for k in range(len(n) - 1, KERNEL_SHORT_TERMS - 1, -1):
        coef -= coef[k] / cheb[k, k] * cheb[k]
    return float(series[0]), coef[:KERNEL_SHORT_TERMS]


@functools.cache
def _binomial_weights(size: int) -> np.ndarray:
    """C(n, k) 4^-n for n, k < size: row n holds the coefficients of
    v^n = ((x + 1)/4)^n in x = 4v - 1.  The same for every H; read-only."""
    n = np.arange(size)
    w = comb(n[:, None], n) * 0.25 ** n[:, None]
    w.setflags(write=False)
    return w


@dataclass(frozen=True)
class _SmoothFactor:
    """R of one H, see ``_smooth_factor``; call it as R(t, s)."""

    a: float
    kH: float
    h_over_k: float
    gauss: tuple[float, np.ndarray]  # the Gauss series in c, for c <= 1/2
    conn: tuple[float, np.ndarray]   # the connection series in r, for c > 1/2

    def __call__(self, t, s) -> np.ndarray:
        t, s = np.broadcast_arrays(np.asarray(t, dtype=float),
                                   np.asarray(s, dtype=float))
        r = s / t
        c = (t - s) / t
        out = np.empty(r.shape)
        near = c <= 0.5
        for side in (True, False):
            m = int(np.count_nonzero(near))
            out[near] = self.side(r[near], c[near], side, False,
                                  np.empty((3, m)))
            near = ~near
        return out

    def side(self, r, c, near: bool, unit_z: bool, work) -> np.ndarray:
        """R, or Z_H(1, r) = R c^a if ``unit_z``, at points on one side of
        c = 1/2 (``near``: c <= 1/2), in the last of the three ``work`` rows.

        The series is s0 + v p(4v - 1), v = c near and v = r far.  With
        ra = r^a and q = (r/c)^a both results come from one numerator: near,
        R = num/ra and R c^a = num/q; far, R = num/ra + (H/kappa_H) q and
        R c^a = num/q + (H/kappa_H) ra.  Two powers per point.
        """
        ra, q, num = work
        np.power(r, self.a, out=ra)
        s0, p = self.gauss if near else self.conn
        v = c if near else r
        np.multiply(v, 4.0, out=q)
        q -= 1.0
        _horner(p, q, num)
        num *= v
        num += s0
        num *= c
        if near:
            num *= ra
            num *= ra
        np.subtract(self.kH, num, out=num)
        if near and not unit_z:
            num /= ra
            return num
        np.divide(r, c, out=q)
        q **= self.a
        if near:
            num /= q
        elif unit_z:
            num /= q
            ra *= self.h_over_k
            num += ra
        else:
            num /= ra
            q *= self.h_over_k
            num += q
        return num


@functools.lru_cache(maxsize=None)
def _smooth_factor(H: float) -> _SmoothFactor:
    """R(t, s) = Z_H(t, s) / (t-s)^{H-1/2}, the cofactor of the diagonal singularity.

    Returns a vectorized callable of (t, s), 0 < s < t, built once per H.
    With a = H - 1/2, b = H + 1/2, r = s/t and c = (t-s)/t, the inner
    integral of Z_H is
    F(c) = 2F1(2H, b; b+1; c) and R = kappa_H (r^{-a} - (a/b) r^a c F(c)).
    R is evaluated by one of two power series, each in a variable formed
    directly from t and s, so neither c nor r is ever taken as one minus
    the other:

    * c <= 1/2, the Gauss series: F = sum_n (2H)_n/n! b/(b+n) c^n;
    * c > 1/2, the connection formula of 2F1 about c = 1 (DLMF 15.8):
      F = A c^{-b} + b/(2H-1) r^{1-2H} G(r) with
      A = Gamma(b+1) Gamma(1-2H) / Gamma(b+1-2H) and
      G(r) = 2F1(3/2-H, 1; 2-2H; r) = sum_n (3/2-H)_n/(2-2H)_n r^n.
      Folded into R, (a/b) b/(2H-1) = 1/2 and kappa_H (a/b) A = -H/kappa_H, so
      R = r^{-a} (kappa_H - (kappa_H/2) c G(r)) + (H/kappa_H) (r/c)^a, and
      nothing blows up as H -> 1/2, where Gamma(1-2H) and b/(2H-1) do.

    Both series are taken to ``KERNEL_SERIES_TERMS`` = 61 terms.  At the
    split c = r = 1/2, for every H in (1/2, 1), the n-th Gauss term is at
    most (n+1) 2^{-n} times the first and the n-th term of G at most
    n 2^{1-n} times the second, so both tails past 61 terms are below
    2^{-53} of the sum.  Each is then ``_economize``d, never at import, to
    a polynomial of ``KERNEL_SHORT_TERMS`` terms in 4v - 1 (v = c or r)
    plus the series' constant term, which stays apart: near H = 1 the first
    ratio of G, (3/2-H)/(2-2H), reaches 2.5e5.  The short sums agree with
    the long ones to a few ulps on [0, 1/2].
    """
    kH = kappa_h(H)
    gauss, conn = _series_coefficients(H)
    return _SmoothFactor(H - 0.5, kH, H / kH, _economize(gauss), _economize(conn))


def kernel_z_closed(t, s, h) -> np.ndarray | float:
    """Vectorized Z_H(t, s) via the hypergeometric closed form (0 < s < t)."""
    H = _hval(h)
    t = np.asarray(t, dtype=float)
    s = np.asarray(s, dtype=float)
    if np.any(~(0 < s)) or np.any(~(s < t)):
        raise DomainError("kernel requires 0 < s < t")
    out = _smooth_factor(H)(t, s) * (t - s) ** (H - 0.5)
    return float(out) if out.ndim == 0 else out


KERNEL_ORDER = 4        # nodes of every product-quadrature rule
KERNEL_BLOCK_ROWS = 16  # rows per unit of work when a table is built or grown
TABLE_BLOCK_ROWS = 256  # rows per storage block of a unit-step table

# H -> the unit-step table, rows 0..n, as read-only blocks (``_grown_blocks``)
_unit_tables: dict[float, tuple[np.ndarray, ...]] = {}
_unit_tables_lock = threading.Lock()


class _CellRules(NamedTuple):
    """R and the four product-quadrature rules of one H, built once per growth."""

    H: float
    R: _SmoothFactor
    single: tuple[np.ndarray, np.ndarray]    # k = 1: Gauss-Jacobi (a, -a)
    first: tuple[np.ndarray, np.ndarray]     # first cell: Gauss-Jacobi (0, -a)
    diagonal: tuple[np.ndarray, np.ndarray]  # diagonal cell: Gauss-Jacobi (a, 0)
    interior: tuple[np.ndarray, np.ndarray]  # Gauss-Legendre


def _gauss_jacobi(a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """``KERNEL_ORDER``-point Gauss rule for the weight (1-x)^a (1+x)^b on [-1, 1].

    Golub & Welsch (1969): the nodes are the eigenvalues of the symmetric
    tridiagonal Jacobi matrix of the orthonormal Jacobi polynomials.  One
    Newton step on P_n then polishes them, and the weights are
    1/(P_{n-1} P_n') scaled to the weight's integral: the steps, and the
    floating-point operations, of ``scipy.special.roots_jacobi``, whose
    banded eigensolver would load ``scipy.linalg``.
    """
    n = KERNEL_ORDER
    k = np.arange(1.0, n)
    s = 2.0 * k + a + b
    diag = np.r_[(b - a) / (2 + a + b), (b * b - a * a) / (s * (s + 2))]
    sub = (2.0 / s * np.sqrt((k + a) * (k + b) / (s + 1))
           * np.where(k == 1, 1.0, np.sqrt(k * (k + a + b) / (s - 1))))
    x = np.linalg.eigvalsh(np.diag(diag) + np.diag(sub, -1))
    dy = 0.5 * (n + a + b + 1) * eval_jacobi(n - 1, a + 1, b + 1, x)
    x -= eval_jacobi(n, a, b, x) / dy
    fm = eval_jacobi(n - 1, a, b, x)
    # bring both factors near 1 before their product, as scipy does
    for f in (fm, dy):
        log_f = np.log(np.abs(f))
        f /= np.exp((log_f.max() + log_f.min()) / 2.0)
    w = 1.0 / (fm * dy)
    w *= 2.0 ** (a + b + 1) * beta_fn(a + 1, b + 1) / w.sum()
    return x, w


def _cell_rules(H: float) -> _CellRules:
    a = H - 0.5
    return _CellRules(H, _smooth_factor(H), _gauss_jacobi(a, -a),
                      _gauss_jacobi(0.0, -a), _gauss_jacobi(a, 0.0),
                      np.polynomial.legendre.leggauss(KERNEL_ORDER))


def _fixed_sum(f: np.ndarray, w: np.ndarray, out=None) -> np.ndarray:
    """Sum over the last axis of f * w, node after node.

    The order of the additions depends on nothing but the node count, so a
    cell's value does not depend on how many cells are summed at once.
    """
    out = np.multiply(f[..., 0], w[0], out=out)
    for j in range(1, len(w)):
        out += f[..., j] * w[j]
    return out


def _interior_sides(b0: int, b1: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """The cells (first, last) of rows b0 <= k < b1 that may hold points
    with c > 1/2, then those that may hold points with c <= 1/2."""
    cols = b1 - 3
    return (1, min(cols, (b1 - 1) // 2 + 2)), (max(1, b0 // 2 - 2), cols)


def _interior_rows(rules: _CellRules, rows: np.ndarray, b0: int, b1: int,
                   s: np.ndarray, scratch: np.ndarray) -> None:
    """Interior cells 1 <= i <= k - 2 of rows b0 <= k < b1 into ``rows``.

    Plain Gauss-Legendre on Z, which is smooth there, with
    Z(k, s) = k^a Z(1, s/k); ``s[j, i - 1]`` is node j of cell i.  A point
    lies on the far side of R's split (c > 1/2) only if s < k/2, so the
    cells of ``_interior_sides`` hold every far and every near point of the
    block.  Each side is evaluated on its (node, row, cell) box at once, in
    five rows of ``scratch``, and where the boxes overlap each point takes
    its own side.  Cells past a short row's last interior cell are
    evaluated too and then zeroed; |c| keeps them finite.  Nothing of the
    block's size is allocated.
    """
    ks = np.arange(b0, b1, dtype=float)[:, None]

    def box(near: bool, c0: int, c1: int, work: np.ndarray):
        shape = (KERNEL_ORDER, len(ks), c1 - c0 + 1)
        r, c, *rest = work[:, :np.prod(shape)].reshape(5, *shape)
        np.divide(s[:, None, c0 - 1:c1], ks, out=r)
        np.subtract(ks, s[:, None, c0 - 1:c1], out=c)
        c /= ks
        np.abs(c, out=c)
        return c, rules.R.side(r, c, near, True, rest)

    (_, far_end), (near_start, cols) = _interior_sides(b0, b1)
    c_far, z_far = box(False, 1, far_end, scratch[:5])
    _, z = box(True, near_start, cols, scratch[5:])
    np.copyto(z[..., :far_end - near_start + 1], z_far[..., near_start - 1:],
              where=c_far[..., near_start - 1:] > 0.5)
    wg = rules.interior[1]
    target = rows[:, 1:cols + 1]
    _fixed_sum(np.moveaxis(z_far[..., :near_start - 1], 0, -1), wg,
               out=target[:, :near_start - 1])
    _fixed_sum(np.moveaxis(z, 0, -1), wg, out=target[:, near_start - 1:])
    target *= ks ** (rules.H - 0.5) / 2
    target[np.arange(2.0, cols + 2) >= ks] = 0.0


def _block_spans(k0: int, k1: int):
    """(j, lo, hi) for each storage block j that holds rows of k0 <= k < k1:
    the block's share of them is lo <= k < hi."""
    B = TABLE_BLOCK_ROWS
    for j in range(k0 // B, -(-k1 // B)):
        lo, hi = max(k0, j * B), min(k1, (j + 1) * B)
        if lo < hi:
            yield j, lo, hi


def _unit_rows(rules: _CellRules, blocks: list[np.ndarray], k0: int,
               k1: int) -> None:
    """Fill rows k0 <= k < k1 of the unit-step table in ``blocks``, in place.

    On the grid dt = 1, t_k = k, entry (k, i) is the average of Z_H(k, .)
    over cell i; it depends only on (k, i, H).  Row k is row k - jB of
    block j = k // B (B = ``TABLE_BLOCK_ROWS``).  Interior cells use
    Gauss-Legendre; the first cell, the diagonal cell and the single cell of
    row 1 use Gauss-Jacobi rules that integrate the end-point power
    singularities in closed form.

    The interior goes in units of ``KERNEL_BLOCK_ROWS`` rows, clipped at the
    storage blocks, largest first, to one worker per available CPU, and each
    worker reuses one scratch buffer for all its units.  The series and
    power ufuncs release the GIL, which is held only between numpy calls.
    """
    a = rules.H - 0.5
    R = rules.R
    B = TABLE_BLOCK_ROWS
    units = [(j, b0, min(b0 + KERNEL_BLOCK_ROWS, hi))
             for j, lo, hi in _block_spans(max(k0, 3), k1)
             for b0 in range(lo, hi, KERNEL_BLOCK_ROWS)][::-1]
    if units:
        s = (rules.interior[0][:, None] + 1) / 2 + np.arange(1.0, k1 - 2)
        most = max(KERNEL_ORDER * (b1 - b0) * (c1 - c0 + 1)
                   for _, b0, b1 in units for c0, c1 in _interior_sides(b0, b1))
        pending = iter(units)
        take = threading.Lock()

        def work():
            scratch = np.empty((10, most))
            while True:
                with take:
                    unit = next(pending, None)
                if unit is None:
                    return
                j, b0, b1 = unit
                _interior_rows(rules, blocks[j][b0 - j * B:b1 - j * B], b0, b1,
                               s, scratch)

        threads = min(_kernel_threads(), len(units))
        with ThreadPoolExecutor(max_workers=threads) as pool:
            for done in [pool.submit(work) for _ in range(threads)]:
                done.result()  # re-raises a failed unit

    # the end-point cells come last: the interior zeroes every cell of a
    # unit from a row's diagonal on
    if k0 <= 1 < k1:
        # k = 1: single cell with both end-point powers
        x1, w1 = rules.single
        s1 = (x1 + 1) / 2
        g1 = s1 ** a * (1 - s1) ** (-a) * R(1.0, s1) * (1 - s1) ** a
        blocks[0][1, 0] = _fixed_sum(g1, w1) / 2
    k2 = max(k0, 2)
    t = np.arange(k2, k1, dtype=float)[:, None]

    # first cell: integrate the s^{-a} start-up factor exactly
    x0, w0 = rules.first
    s0 = ((x0 + 1) / 2)[None, :]
    g = s0 ** a * R(t, s0) * (t - s0) ** a
    first = 0.5 ** (1 - a) * _fixed_sum(g, w0)

    # diagonal cell: integrate the (t-s)^a factor exactly against smooth R
    xd, wd = rules.diagonal
    sd = t - 1.0 + ((xd + 1) / 2)[None, :]
    diagonal = 0.5 ** (1 + a) * _fixed_sum(R(t, sd), wd)
    for j, lo, hi in _block_spans(k2, k1):
        r = np.arange(lo - j * B, hi - j * B)
        blocks[j][r, 0] = first[lo - k2:hi - k2]
        blocks[j][r, r + j * B - 1] = diagonal[lo - k2:hi - k2]


def _kernel_threads() -> int:
    return len(os.sched_getaffinity(0))


def _grown_blocks(blocks: tuple[np.ndarray, ...], n_rows: int) -> list[np.ndarray]:
    """``blocks`` extended to rows 0 <= k < n_rows, zero in every new row.

    Block j holds rows jB <= k < (j + 1)B (B = ``TABLE_BLOCK_ROWS``; the
    last block may hold fewer) and the columns i < (j + 1)B - 1 that they
    reach, since W[k, i] = 0 for i >= k: at 2 048 steps 18.0 MiB of the
    dense table's 32.0.  Full blocks are kept as they are; a partial last
    block is reallocated and its rows copied.  A block's layout depends
    only on j and its row count, never on the growth history.
    """
    B = TABLE_BLOCK_ROWS
    grown = list(blocks)
    partial = grown.pop() if grown and len(grown[-1]) < B else None
    for k0 in range(len(grown) * B, n_rows, B):
        grown.append(np.zeros((min(B, n_rows - k0), k0 + B - 1)))
    if partial is not None:
        grown[len(blocks) - 1][:len(partial)] = partial
    return grown


def _unit_table(H: float, n_steps: int) -> tuple[np.ndarray, ...]:
    """The unit-step table of H with at least rows 0..n_steps, grown on
    demand, as the read-only blocks of ``_grown_blocks``.

    Only rows the table does not hold yet are computed, by one
    ``_unit_rows`` call under one lock, into the grown blocks.  Every row
    depends only on (k, H), so the table is the same for any thread count,
    unit size and growth history.
    """
    with _unit_tables_lock:
        blocks = _unit_tables.get(H, ())
        have = sum(map(len, blocks))
        if have > n_steps:
            return blocks
        grown = _grown_blocks(blocks, n_steps + 1)
        _unit_rows(_cell_rules(H), grown, have, n_steps + 1)
        for block in grown:
            block.setflags(write=False)
        _unit_tables[H] = grown = tuple(grown)
        return grown


def _table_rows(H: float, n: int):
    """(k0, rows) for each storage block of H's table: rows[r] is row
    k0 + r of the unit-step table, over the rows 0..n of a grid of n steps.
    The pieces depend only on (n, ``TABLE_BLOCK_ROWS``)."""
    blocks = _unit_table(H, n)
    for j, lo, hi in _block_spans(0, n + 1):
        yield lo, blocks[j][:hi - lo]


def kernel_weights(grid: TimeGrid, h) -> np.ndarray:
    """Per-cell kernel weights W with B^H(t_k) = sum_i W[k, i] dB_i.

    W[k, i] is the cell average of Z_H(t_k, .) over cell i, computed by
    product quadratures that integrate the end-point power singularities in
    closed form (Gauss-Jacobi) and the smooth interior by Gauss-Legendre.
    Z_H is homogeneous of degree H - 1/2, so W is dt^{H-1/2} times the
    top-left (n+1) x n corner of the unit-step table of H, which is kept per
    H and grown by rows when a finer grid asks for them.  A dense, read-only
    copy, each entry one multiply of its table entry.
    """
    H = _hval(h)
    n = int(grid.n_steps)
    scale = grid.dt ** (H - 0.5)
    W = np.zeros((n + 1, n))
    for k0, rows in _table_rows(H, n):
        cols = min(rows.shape[1], n)
        np.multiply(rows[:, :cols], scale, out=W[k0:k0 + len(rows), :cols])
    W.setflags(write=False)
    return W


def kernel_subdiagonal(grid: TimeGrid, h) -> np.ndarray:
    """The first subdiagonal W[k+1, k], k = 0..n-1, of ``kernel_weights``.

    Reads those n entries of the unit-step table from its blocks and scales
    them, entry for entry the same multiply as ``kernel_weights``, so the
    values are bitwise equal; no dense copy is made.
    """
    H = _hval(h)
    n = int(grid.n_steps)
    sub = np.concatenate([np.diagonal(rows, offset=k0 - 1)
                          for k0, rows in _table_rows(H, n)])
    return grid.dt ** (H - 0.5) * sub


def generate_bm(grid: TimeGrid, m: int, n_paths: int, seed: int,
                workers: int = 1) -> PathSet:
    """Independent Brownian paths from per-(path, dim) keyed substreams.

    Increments are N(0, dt) per path/dimension/step; the result is a pure
    function of (seed, grid, m, n_paths).  The paths are cut into the
    index-defined blocks of ``_path_blocks``, one thread each, and every block
    is drawn from its own per-path substreams, so the assembled array is the
    same for every worker count.
    """
    if m < 1 or n_paths < 1:
        raise ValueError("m and n_paths must be >= 1")

    def draw(block: range) -> np.ndarray:
        return SubstreamSampler(seed).normal_block(block, m, grid.n_steps)

    blocks = _path_blocks(n_paths, workers)
    if len(blocks) == 1:
        dB = draw(blocks[0])
    else:
        with ThreadPoolExecutor(max_workers=len(blocks)) as pool:
            dB = np.concatenate(list(pool.map(draw, blocks)))
    dB *= np.sqrt(grid.dt)
    return PathSet(grid, m, n_paths, int(seed), None, dB, None)


def fbm_from_kernel(bm: PathSet, h) -> PathSet:
    """Attach the fractional path built from ``bm``'s own increments.

    B^H_j(t_k) = sum_{i<k} W[k, i] dB_j[i]; B and B^H stay jointly coherent.
    W is ``kernel_weights``; the sum is formed on the unit-step table's
    blocks and scaled after, so it agrees with W's products to rounding.
    """
    hurst = h if isinstance(h, Hurst) else Hurst(float(h))
    if bm.dB is None:
        raise GridMismatchError("kernel generator needs a path set with increments")
    n = int(bm.grid.n_steps)
    # contract against the held unit-step blocks, then scale the sums by
    # dt^{H-1/2}: no scaled copy of the weights per call.  One matmul per
    # block, over the columns its last row reaches, writes straight into
    # B^H; the pieces depend only on n, so the bits do not depend on how
    # the table was grown
    dB = bm.dB.reshape(-1, n)
    bh = np.empty((bm.n_paths, bm.m, n + 1))
    out = bh.reshape(-1, n + 1)
    for k0, rows in _table_rows(hurst.value, n):
        K = k0 + len(rows) - 1
        np.matmul(dB[:, :K], rows[:, :K].T, out=out[:, k0:k0 + len(rows)])
    bh *= bm.grid.dt ** (hurst.value - 0.5)
    bh[..., 0] = 0.0
    return bm.with_bh(hurst, bh)


def fbm_from_cholesky(grid: TimeGrid, h, m: int, n_paths: int, seed: int) -> PathSet:
    """Exact-law fractional paths on the grid nodes (oracle generator).

    Node values have covariance exactly ``fbm_covariance`` on the grid.  A
    failed factorization raises with diagnostics; the matrix is never
    regularized.
    """
    hurst = h if isinstance(h, Hurst) else Hurst(float(h))
    t = grid.nodes[1:]
    C = fbm_covariance(t[:, None], t[None, :], hurst)
    try:
        L = np.linalg.cholesky(C)
    except np.linalg.LinAlgError as exc:
        eigs = np.linalg.eigvalsh(C)
        raise FactorizationError(
            f"fBm covariance factorization failed for H={hurst.value}, "
            f"n={grid.n_steps}: min eigenvalue {eigs.min():.3e}, "
            f"condition {eigs.max() / abs(eigs.min()):.3e}") from exc
    z = SubstreamSampler(seed).normal_block(range(n_paths), m, grid.n_steps)
    bh = np.zeros((n_paths, m, grid.n_nodes))
    bh[..., 1:] = np.einsum("kj,pdj->pdk", L, z, optimize=True)
    return PathSet(grid, m, n_paths, int(seed), hurst, None, bh)


def _group_sums(dB: np.ndarray, factor: int) -> np.ndarray:
    """Sums of ``factor`` consecutive increments, with the bits of
    ``dB.reshape(..., factor).sum(-1)``.

    Below 8 terms numpy runs an inner loop of ``factor`` adds per sum,
    from 0 and in sequence; the same adds are made here on whole strided
    slices.  Starting from the first term instead of 0 can change only the
    sign of a zero sum, and the 0 added last puts it back.  From 8 terms
    numpy's own loop is kept: its partial sums are interleaved, and slices
    that far apart read a cache line per term.
    """
    groups = dB.reshape(*dB.shape[:-1], dB.shape[-1] // factor, factor)
    if factor >= 8:
        return groups.sum(-1)
    out = groups[..., 0] + groups[..., 1]
    for i in range(2, factor):
        out += groups[..., i]
    out += 0.0
    return out


def coarsen(paths: PathSet, factor: int) -> PathSet:
    """Subsample a path set to a coarser grid (same underlying noise).

    Brownian increments are aggregated, and B is their cumulative sum; node
    values of B^H are the fine values at the surviving nodes, which is the
    coupling a strong refinement study needs.  B^H is a read-only strided
    view of the fine B^H, not a copy.
    """
    if factor < 1 or paths.grid.n_steps % factor:
        raise GridMismatchError(
            f"factor {factor} does not divide n_steps={paths.grid.n_steps}")
    if factor == 1:
        return paths
    grid = TimeGrid(paths.grid.horizon, paths.grid.n_steps // factor)
    dB = _group_sums(paths.dB, factor) if paths.dB is not None else None
    BH = paths.BH[..., ::factor] if paths.BH is not None else None
    return PathSet(grid, paths.m, paths.n_paths, paths.seed, paths.hurst, dB, BH)
