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

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
from scipy.special import gamma as gamma_fn, roots_jacobi

from .errors import DomainError, FactorizationError, GridMismatchError
from .rng import SubstreamSampler

__all__ = [
    "Hurst",
    "TimeGrid",
    "PathSet",
    "fbm_covariance",
    "kappa_h",
    "kernel_z",
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

    def to_csv(self, path) -> None:
        """Write rows `path,dim,node,t,B,BH` for every node."""
        node_t = [f"{k},{t:.17g}," for k, t in enumerate(self.grid.nodes.tolist())]
        nan_row = [float("nan")] * self.grid.n_nodes
        B, BH = self.B, self.BH
        with open(path, "w", newline="") as fh:
            fh.write("path,dim,node,t,B,BH\n")
            for p in range(self.n_paths):
                for d in range(self.m):
                    b = B[p, d].tolist() if B is not None else nan_row
                    bh = BH[p, d].tolist() if BH is not None else nan_row
                    fh.write("".join([f"{p},{d},{kt}{x:.17g},{y:.17g}\n"
                                      for kt, x, y in zip(node_t, b, bh)]))


def fbm_covariance(t, s, h) -> np.ndarray | float:
    """Covariance (1/2)(t^{2H} + s^{2H} - |t-s|^{2H}) of fractional BM."""
    H = _hval(h)
    t = np.asarray(t, dtype=float)
    s = np.asarray(s, dtype=float)
    if np.any(t < 0) or np.any(s < 0):
        raise DomainError("covariance requires non-negative times")
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
    return float(np.sqrt(2 * H * gamma_fn(1.5 - H)
                         / (gamma_fn(H + 0.5) * gamma_fn(2 - 2 * H))))


def kernel_z(t: float, s: float, h) -> float:
    """Volterra kernel Z_H(t, s) on 0 < s < t, inner integral by adaptive quadrature."""
    from scipy.integrate import quad  # here, so that only the oracle pays the import

    H = _hval(h)
    if not 0 < s < t:
        raise DomainError(f"kernel requires 0 < s < t, got s={s}, t={t}")
    kH = kappa_h(H)
    inner, _ = quad(lambda u: u ** (H - 1.5) * (u - s) ** (H - 0.5), s, t,
                    epsabs=1e-13, epsrel=1e-12, limit=200)
    return kH * ((t / s) ** (H - 0.5) * (t - s) ** (H - 0.5)
                 - (H - 0.5) * s ** (0.5 - H) * inner)


KERNEL_SERIES_TERMS = 61  # terms of each 2F1 series in _smooth_factor


def _horner(coef: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_n coef[n] x^n by in-place Horner steps."""
    acc = np.full_like(x, coef[-1])
    for cn in coef[-2::-1]:
        acc *= x
        acc += cn
    return acc


def _smooth_factor(H: float):
    """R(t, s) = Z_H(t, s) / (t-s)^{H-1/2}, the cofactor of the diagonal singularity.

    Returns a vectorized callable of (t, s), 0 < s < t.  With a = H - 1/2,
    b = H + 1/2, r = s/t and c = (t-s)/t, the inner integral of Z_H is
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

    Both series are summed to ``KERNEL_SERIES_TERMS`` = 61 terms by
    Horner's rule.  At the split c = r = 1/2, for every H in (1/2, 1), the
    n-th Gauss term is at most (n+1) 2^{-n} times the first and the n-th
    term of G at most n 2^{1-n} times the second, so both tails past 61
    terms are below 2^{-53} of the sum.  The coefficients are computed
    here, once per call, never at import.
    """
    a = H - 0.5
    kH = kappa_h(H)
    j = np.arange(KERNEL_SERIES_TERMS - 1.0)
    n = np.arange(KERNEL_SERIES_TERMS)
    gauss = np.cumprod(np.r_[kH * a, (2 * H + j) / (j + 1)]) / (H + 0.5 + n)
    conn = np.cumprod(np.r_[0.5 * kH, (1.5 - H + j) / (2 - 2 * H + j)])
    h_over_k = H / kH

    def R(t, s):
        t, s = np.broadcast_arrays(np.asarray(t, dtype=float),
                                   np.asarray(s, dtype=float))
        r = s / t
        c = (t - s) / t
        out = np.empty(r.shape)
        near = c <= 0.5
        rn, cn = r[near], c[near]
        ra = rn ** a
        out[near] = kH / ra - ra * cn * _horner(gauss, cn)
        far = ~near
        rf, cf = r[far], c[far]
        out[far] = ((kH - cf * _horner(conn, rf)) / rf ** a
                    + h_over_k * (rf / cf) ** a)
        return out

    return R


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

_unit_tables: dict[float, np.ndarray] = {}  # H -> unit-step table, rows 0..n
_unit_tables_lock = threading.Lock()


class _CellRules(NamedTuple):
    """R and the four product-quadrature rules of one H, built once per growth."""

    H: float
    R: Callable
    single: tuple[np.ndarray, np.ndarray]    # k = 1: Gauss-Jacobi (a, -a)
    first: tuple[np.ndarray, np.ndarray]     # first cell: Gauss-Jacobi (0, -a)
    diagonal: tuple[np.ndarray, np.ndarray]  # diagonal cell: Gauss-Jacobi (a, 0)
    interior: tuple[np.ndarray, np.ndarray]  # Gauss-Legendre


def _cell_rules(H: float) -> _CellRules:
    a = H - 0.5
    return _CellRules(H, _smooth_factor(H), roots_jacobi(KERNEL_ORDER, a, -a),
                      roots_jacobi(KERNEL_ORDER, 0.0, -a),
                      roots_jacobi(KERNEL_ORDER, a, 0.0),
                      np.polynomial.legendre.leggauss(KERNEL_ORDER))


def _fixed_sum(f: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Sum over the last axis of f * w, node after node.

    The order of the additions depends on nothing but the node count, so a
    cell's value does not depend on how many cells are summed at once.
    """
    out = f[..., 0] * w[0]
    for j in range(1, len(w)):
        out += f[..., j] * w[j]
    return out


def _unit_rows(rules: _CellRules, k0: int, k1: int) -> np.ndarray:
    """Rows k0 <= k < k1 of the unit-step table, shape (k1 - k0, k1 - 1).

    On the grid dt = 1, t_k = k, entry (k, i) is the average of Z_H(k, .)
    over cell i; it depends only on (k, i, H).  Interior cells use
    Gauss-Legendre; the first cell, the diagonal cell and the single cell of
    row 1 use Gauss-Jacobi rules that integrate the end-point power
    singularities in closed form.
    """
    a = rules.H - 0.5
    R = rules.R
    rows = np.zeros((k1 - k0, max(k1 - 1, 0)))
    if k1 <= 1:
        return rows
    if k0 <= 1:
        # k = 1: single cell with both end-point powers
        x1, w1 = rules.single
        s1 = (x1 + 1) / 2
        g1 = s1 ** a * (1 - s1) ** (-a) * R(1.0, s1) * (1 - s1) ** a
        rows[1 - k0, 0] = _fixed_sum(g1, w1) / 2
    ks = np.arange(max(k0, 2), k1)
    r = ks - k0
    t = ks.astype(float)[:, None]

    # first cell: integrate the s^{-a} start-up factor exactly
    x0, w0 = rules.first
    s0 = ((x0 + 1) / 2)[None, :]
    g = s0 ** a * R(t, s0) * (t - s0) ** a
    rows[r, 0] = 0.5 ** (1 - a) * _fixed_sum(g, w0)

    # diagonal cell: integrate the (t-s)^a factor exactly against smooth R
    xd, wd = rules.diagonal
    sd = (ks - 1).astype(float)[:, None] + ((xd + 1) / 2)[None, :]
    rows[r, ks - 1] = 0.5 ** (1 + a) * _fixed_sum(R(t, sd), wd)

    # interior cells 1 <= i <= k - 2: plain Gauss-Legendre on Z (smooth there)
    kk, ii = np.meshgrid(ks, np.arange(1, k1 - 2), indexing="ij")
    mask = ii <= kk - 2
    if mask.any():
        k_f, i_f = kk[mask], ii[mask]
        xg, wg = rules.interior
        tk = k_f.astype(float)[:, None]
        s = i_f.astype(float)[:, None] + ((xg + 1) / 2)[None, :]
        z = R(tk, s) * (tk - s) ** a
        rows[k_f - k0, i_f] = _fixed_sum(z, wg) / 2
    return rows


def _kernel_threads() -> int:
    return len(os.sched_getaffinity(0))


def _unit_table(H: float, n_steps: int) -> np.ndarray:
    """The unit-step table of H with at least rows 0..n_steps, grown on demand.

    Only rows the table does not hold yet are computed, in blocks of
    ``KERNEL_BLOCK_ROWS`` rows, largest first, on one thread per available
    CPU, under one lock; the blocks share one set of ``_cell_rules``.  The
    series and power ufuncs release the GIL, which is held only between
    numpy calls.  Every row depends only on (k, H), so the table is the same
    for any thread count, block size and growth history.
    """
    with _unit_tables_lock:
        w = _unit_tables.get(H)
        have = 0 if w is None else w.shape[0]
        if have > n_steps:
            return w
        grown = np.zeros((n_steps + 1, n_steps))
        if w is not None:
            grown[:have, :have - 1] = w
        rules = _cell_rules(H)
        blocks = [(k0, min(k0 + KERNEL_BLOCK_ROWS, n_steps + 1))
                  for k0 in range(have, n_steps + 1, KERNEL_BLOCK_ROWS)]

        def fill(block):
            k0, k1 = block
            grown[k0:k1, :k1 - 1] = _unit_rows(rules, k0, k1)

        with ThreadPoolExecutor(max_workers=_kernel_threads()) as pool:
            list(pool.map(fill, blocks[::-1]))  # re-raises a failed block
        grown.setflags(write=False)
        _unit_tables[H] = grown
        return grown


def kernel_weights(grid: TimeGrid, h) -> np.ndarray:
    """Per-cell kernel weights W with B^H(t_k) = sum_i W[k, i] dB_i.

    W[k, i] is the cell average of Z_H(t_k, .) over cell i, computed by
    product quadratures that integrate the end-point power singularities in
    closed form (Gauss-Jacobi) and the smooth interior by Gauss-Legendre.
    Z_H is homogeneous of degree H - 1/2, so W is dt^{H-1/2} times the
    top-left block of the unit-step table of H, which is kept per H and
    grown by rows when a finer grid asks for them.  Read-only.
    """
    H = _hval(h)
    n = int(grid.n_steps)
    W = grid.dt ** (H - 0.5) * _unit_table(H, n)[:n + 1, :n]
    W.setflags(write=False)
    return W


def kernel_subdiagonal(grid: TimeGrid, h) -> np.ndarray:
    """The first subdiagonal W[k+1, k], k = 0..n-1, of ``kernel_weights``.

    Scales only those n entries of the unit-step table, entry for entry the
    same multiply as ``kernel_weights``, so the values are bitwise equal.
    """
    H = _hval(h)
    n = int(grid.n_steps)
    return grid.dt ** (H - 0.5) * np.diagonal(_unit_table(H, n), offset=-1)[:n]


def generate_bm(grid: TimeGrid, m: int, n_paths: int, seed: int,
                workers: int = 1) -> PathSet:
    """Independent Brownian paths from per-(path, dim) keyed substreams.

    Increments are N(0, dt) per path/dimension/step; the result is a pure
    function of (seed, grid, m, n_paths).  The paths are cut into ``workers``
    index-defined blocks, each drawn from its own per-path substreams, so the
    assembled array is the same for every worker count; the blocks run on at
    most one thread per available CPU.
    """
    if m < 1 or n_paths < 1:
        raise ValueError("m and n_paths must be >= 1")

    def draw(block: range) -> np.ndarray:
        return SubstreamSampler(seed).normal_block(block, m, grid.n_steps)

    if workers <= 1:
        dB = draw(range(n_paths))
    else:
        bounds = np.linspace(0, n_paths, workers + 1).astype(int)
        with ThreadPoolExecutor(max_workers=min(workers, _kernel_threads())) as pool:
            dB = np.concatenate(list(pool.map(
                draw, [range(a, b) for a, b in zip(bounds[:-1], bounds[1:])])))
    dB *= np.sqrt(grid.dt)
    return PathSet(grid, m, n_paths, int(seed), None, dB, None)


def fbm_from_kernel(bm: PathSet, h) -> PathSet:
    """Attach the fractional path built from ``bm``'s own increments.

    B^H_j(t_k) = sum_{i<k} W[k, i] dB_j[i]; B and B^H stay jointly coherent.
    W is ``kernel_weights``; the sum is formed on the unit-step table and
    scaled after, so it agrees with W's products to rounding.
    """
    hurst = h if isinstance(h, Hurst) else Hurst(float(h))
    if bm.dB is None:
        raise GridMismatchError("kernel generator needs a path set with increments")
    n = int(bm.grid.n_steps)
    # contract against the held unit-step block, then scale the sums by
    # dt^{H-1/2}: no scaled copy of the (n+1) x n weights per call
    bh = np.einsum("ki,pdi->pdk", _unit_table(hurst.value, n)[:n + 1, :n],
                   bm.dB, optimize=True)
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


def coarsen(paths: PathSet, factor: int) -> PathSet:
    """Subsample a path set to a coarser grid (same underlying noise).

    Brownian increments are aggregated, and B is their cumulative sum; node
    values of B^H are the fine values at the surviving nodes, which is the
    coupling a strong refinement study needs.
    """
    if factor < 1 or paths.grid.n_steps % factor:
        raise GridMismatchError(
            f"factor {factor} does not divide n_steps={paths.grid.n_steps}")
    if factor == 1:
        return paths
    grid = TimeGrid(paths.grid.horizon, paths.grid.n_steps // factor)
    dB = paths.dB.reshape(paths.n_paths, paths.m, grid.n_steps, factor).sum(-1) \
        if paths.dB is not None else None
    BH = paths.BH[..., ::factor].copy() if paths.BH is not None else None
    return PathSet(grid, paths.m, paths.n_paths, paths.seed, paths.hurst, dB, BH)
