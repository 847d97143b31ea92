"""Deterministic operators and kernels attached to the fractional calculus.

Implements the weighted norm ||.||_T induced by the singular kernel
phi(s, t) = H(2H-1)|s-t|^{2H-2} and the transfer operator that rewrites
deterministic integrals against B^H as Ito integrals against B.  All
singular powers are integrated in closed form per cell against
piecewise-linear data (product integration); naive rules lose accuracy or
diverge near the singularities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, GridMismatchError
from .fbm import PathSet, TimeGrid, _check_power, _hval, kappa_h
from .sde import _row_blocks

__all__ = [
    "GridFunction",
    "phi_norm_sq",
    "gamma_star",
    "gamma_star_at",
    "transfer_check",
    "TransferReport",
    "isometry_check",
]


@dataclass(frozen=True)
class GridFunction:
    """Real function known at the nodes of a uniform grid."""

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.n_nodes,):
            raise GridMismatchError(
                f"expected {self.grid.n_nodes} node values, got shape {v.shape}")
        object.__setattr__(self, "values", v)

    @classmethod
    def from_callable(cls, grid: TimeGrid, fn) -> "GridFunction":
        return cls(grid, np.asarray(fn(grid.nodes), dtype=float))

    def cell_midpoints(self) -> np.ndarray:
        return 0.5 * (self.values[:-1] + self.values[1:])


def _increment_covariance_kernel(n: int, dt: float, H: float) -> np.ndarray:
    """g(l) = int int phi over two cells at lag l (= fGn autocovariance)."""
    lag = np.arange(n, dtype=float)
    g = 0.5 * dt ** (2 * H) * ((lag + 1) ** (2 * H) - 2 * lag ** (2 * H)
                               + np.abs(lag - 1) ** (2 * H))
    g[0] = dt ** (2 * H)
    return g


def _fft_length(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n.

    Real FFTs of these lengths are fast, and they are the lengths
    scipy.signal.fftconvolve pads to, so the convolutions below match it
    bit for bit.
    """
    while True:
        k = n
        for p in (2, 3, 5):
            while k % p == 0:
                k //= p
        if k == 1:
            return n
        n += 1


def _convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Full linear convolution of two real sequences by one real-FFT pair."""
    L = len(a) + len(b) - 1
    F = _fft_length(L)
    return np.fft.irfft(np.fft.rfft(a, F) * np.fft.rfft(b, F), F)[:L]


def phi_norm_sq(f: GridFunction, h) -> float:
    """||f||_T^2 = int int f(s) f(r) phi(s, r) ds dr, with the singular kernel
    phi(s, r) = H(2H-1)|s-r|^{2H-2}.

    The double integral of phi over any cell pair has a closed form (it is
    the increment covariance of B^H), so the norm reduces to a Toeplitz
    quadratic form against cell-midpoint values of f.
    """
    H = _hval(h)
    n = f.grid.n_steps
    g = _increment_covariance_kernel(n, f.grid.dt, H)
    fm = f.cell_midpoints()
    full = np.concatenate([g[::-1], g[1:]])  # symmetric lag kernel
    y = _convolve(fm, full)[n - 1:2 * n - 1]
    return float(fm @ y)


def _lag_kernels(n: int, dt: float, alpha: float):
    """Cell integrals of (u-t)^{alpha-1} and its linear moment at lag l."""
    lag = np.arange(n, dtype=float)
    I0 = dt ** alpha * ((lag + 1) ** alpha - lag ** alpha) / alpha
    I1 = dt ** alpha * (((lag + 1) ** (alpha + 1) - lag ** (alpha + 1)) / (alpha + 1)
                        - lag * ((lag + 1) ** alpha - lag ** alpha) / alpha)
    return I0, I1


def gamma_star_at(f: GridFunction, h, t: float) -> float:
    """(Gamma* f)(t) at an arbitrary t in [0, T) by per-cell product integration."""
    H = _hval(h)
    alpha = H - 0.5
    grid = f.grid
    dt = grid.dt
    T = grid.horizon
    if not 0 < t < T:
        raise DomainError(f"gamma_star_at requires 0 < t < T, got t={t}")
    nodes = grid.nodes
    S = nodes ** alpha * f.values
    # cell boundaries to the right of t: partial first cell, then grid cells
    k0 = int(np.floor(t / dt + 1e-12))
    cuts = np.concatenate([[t], nodes[k0 + 1:]])
    s_at = np.interp(cuts, nodes, S)
    a = cuts[:-1] - t
    b = cuts[1:] - t
    width = cuts[1:] - cuts[:-1]
    _check_power(b, alpha + 1, "gamma_star_at: (u - t)^(H+1/2)")
    I0 = (b ** alpha - a ** alpha) / alpha
    I1 = ((b ** (alpha + 1) - a ** (alpha + 1)) / (alpha + 1) - a * I0) / width
    total = np.sum(s_at[:-1] * I0 + (s_at[1:] - s_at[:-1]) * I1)
    return float(alpha * kappa_h(H) * t ** (-alpha) * total)


def gamma_star(f: GridFunction, h) -> GridFunction:
    """Transfer operator (Gamma* f)(t) on the grid nodes.

    The (u-t)^{H-3/2} singularity is integrated in closed form per cell
    against the piecewise-linear smooth part u^{H-1/2} f(u).  The t = 0 node
    carries the value at t = dt/2 (the prefactor t^{1/2-H} diverges there;
    any bounded convention is consistent for the Ito-sum consumers).
    """
    H = _hval(h)
    alpha = H - 0.5
    grid = f.grid
    n = grid.n_steps
    dt = grid.dt
    nodes = grid.nodes
    S = nodes ** alpha * f.values
    I0, I1 = _lag_kernels(n, dt, alpha)
    S_cells = S[:-1]
    D_cells = np.diff(S)
    # out[k] = sum_l I0[l] S[k+l] + I1[l] D[k+l]  via reversed convolution
    conv = (_convolve(S_cells[::-1], I0) + _convolve(D_cells[::-1], I1))[:n][::-1]
    out = np.zeros(grid.n_nodes)
    out[1:n] = alpha * kappa_h(H) * nodes[1:n] ** (-alpha) * conv[1:]
    out[0] = gamma_star_at(f, H, 0.5 * dt)
    # out[n] = 0: empty integral at the horizon
    return GridFunction(grid, out)


@dataclass(frozen=True)
class TransferReport:
    correlation: float
    var_lhs: float
    var_rhs: float


def _transfer_sums(f: GridFunction, paths: PathSet) -> tuple[np.ndarray, np.ndarray]:
    """Per path, the Riemann sum of f against dB^H and the Ito sum of
    Gamma* f against dB (driver 0).

    dB^H and its sum against f are formed ROW_CHUNK paths at a time, each
    path's sum by a reduction along its own row, so its bits do not depend
    on ROW_CHUNK; a matrix-vector product's would, with the row count.
    """
    if paths.BH is None or paths.dB is None:
        raise GridMismatchError("transfer check needs coupled B and B^H")
    if paths.grid != f.grid:
        raise GridMismatchError("grid of f differs from the path grid")
    lhs = np.empty(paths.n_paths)
    for rows in _row_blocks(paths.n_paths):
        terms = np.diff(paths.BH[rows, 0, :], axis=-1)
        terms *= f.values[:-1]
        terms.sum(axis=1, out=lhs[rows])
    rhs = paths.dB[:, 0, :] @ gamma_star(f, paths.hurst).values[:-1]
    return lhs, rhs


def transfer_check(f: GridFunction, paths: PathSet) -> TransferReport:
    """Monte Carlo check of int f dB^H = int (Gamma* f) dB on coupled paths
    (driver 0).

    The left side is the pathwise (left-point) Riemann sum against B^H, the
    right the Ito sum against B from the same increments; reports their
    sample correlation and variances.
    """
    lhs, rhs = _transfer_sums(f, paths)
    if np.allclose(lhs, 0) and np.allclose(rhs, 0):
        corr = 1.0
    else:
        corr = float(np.corrcoef(lhs, rhs)[0, 1])
    return TransferReport(corr, float(lhs.var()), float(rhs.var()))


def gamma_star_l2(gf: GridFunction, h) -> float:
    """int_0^T (Gamma* f)(t)^2 dt with the t^{1-2H} end-point weight integrated exactly.

    ``gf`` must be the output of :func:`gamma_star` (node 0 holds the dt/2
    value).  The integrand is written t^{1-2H} W(t)^2 with W smooth, W
    piecewise linear between nodes and constant on the first cell.
    """
    H = _hval(h)
    alpha = H - 0.5
    beta = 1.0 - 2 * H
    grid = gf.grid
    nodes = grid.nodes
    dt = grid.dt
    w_sq = np.empty(grid.n_nodes)
    w_sq[1:] = (gf.values[1:] * nodes[1:] ** alpha) ** 2
    w_half_sq = (gf.values[0] * (0.5 * dt) ** alpha) ** 2
    total = w_half_sq * dt ** (beta + 1) / (beta + 1)  # first cell, constant W^2
    a = nodes[1:-1]
    b = nodes[2:]
    _check_power(b, beta + 2, "gamma_star_l2: t^(3-2H)")
    P0 = (b ** (beta + 1) - a ** (beta + 1)) / (beta + 1)
    P1 = ((b ** (beta + 2) - a ** (beta + 2)) / (beta + 2) - a * P0) / dt
    total += np.sum(w_sq[1:-1] * P0 + (w_sq[2:] - w_sq[1:-1]) * P1)
    return float(total)


def isometry_check(f: GridFunction, h) -> dict:
    """Both sides of the isometry int (Gamma* f)^2 dt = ||f||_T^2, with error."""
    gf = gamma_star(f, h)
    lhs = gamma_star_l2(gf, h)
    rhs = phi_norm_sq(f, h)
    return {"lhs": lhs, "rhs": rhs,
            "rel_err": abs(lhs - rhs) / max(abs(rhs), 1e-300)}
