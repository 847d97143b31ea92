"""Mixed SDE integration: Ito part against B, pathwise Young part against B^H.

The "o dB^H" integrals are discretized as left-point Riemann sums: for
H > 1/2 the pathwise integral is the limit of Riemann sums irrespective of
the evaluation point, and left-point keeps every scheme adapted and mutually
consistent.  Fundamental-solution pairs, the variation process (both the
direct recursion and the explicit variation-of-constants formula) and the
first-order expansion experiment live here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BlowupError, DomainError, GridMismatchError
from .fbm import PathSet, TimeGrid

__all__ = [
    "CoefficientModel",
    "ControlProcess",
    "StatePath",
    "Linearization",
    "euler_mixed",
    "linearize",
    "evaluate_along",
    "fundamental_phi",
    "fundamental_psi",
    "variation_direct",
    "variation_explicit",
    "lemma1_experiment",
    "alpha_norm_terminal",
    "default_alpha",
]

BLOWUP_LIMIT = 1e8


@dataclass
class CoefficientModel:
    """Drift, diffusion and fractional-diffusion coefficients with partials.

    ``sigma``/``gamma`` and their partials are lists with one callable per
    driving dimension; every callable maps (t, x, u) and acts elementwise.
    ``t`` is either one node time or the whole node vector, shape
    (n_nodes,), which broadcasts along the last axis of (n_paths, n_nodes)
    states and controls.  A callable may return one value per node instead
    of one per path and node; such values are stored once per node.
    """

    m: int
    b: callable
    sigma: list
    gamma: list
    b_x: callable
    b_u: callable
    sigma_x: list
    sigma_u: list
    gamma_x: list
    gamma_u: list

    def __post_init__(self):
        for name in ("sigma", "gamma", "sigma_x", "sigma_u", "gamma_x", "gamma_u"):
            if len(getattr(self, name)) != self.m:
                raise ValueError(f"{name} must list {self.m} per-driver callables")


class ControlProcess:
    """Admissible control given by its node values: an (n_paths, n_nodes)
    array, or one value for every path and node.

    Adapted constructions go through :meth:`from_prefix`, whose callback only
    ever sees the Brownian path up to the current node.
    """

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)

    @classmethod
    def constant(cls, c: float) -> "ControlProcess":
        return cls(c)

    @classmethod
    def from_values(cls, values: np.ndarray) -> "ControlProcess":
        return cls(values)

    @classmethod
    def from_prefix(cls, paths: PathSet, fn) -> "ControlProcess":
        """Adapted control u[., k] = fn(k, t_k, B[..., :k+1]); the callback
        receives only the path prefix, which enforces adaptedness structurally."""
        n_nodes = paths.grid.n_nodes
        t = paths.grid.nodes
        B = paths.B
        vals = np.empty((paths.n_paths, n_nodes))
        for k in range(n_nodes):
            vals[:, k] = fn(k, t[k], B[..., :k + 1])
        return cls(vals)

    def materialize(self, x: "StatePath") -> np.ndarray:
        """Node values along a state path, shape (n_paths, n_nodes); a
        constant is a read-only view with stride 0."""
        if self.values.ndim and self.values.shape != x.X.shape:
            raise GridMismatchError(
                f"control shape {self.values.shape} != state shape {x.X.shape}")
        return np.broadcast_to(self.values, x.X.shape)


@dataclass(frozen=True)
class StatePath:
    """Scalar state values at grid nodes for every path."""

    grid: TimeGrid
    X: np.ndarray

    def __post_init__(self):
        if self.X.shape[-1] != self.grid.n_nodes:
            raise GridMismatchError("state array does not match the grid")

    @property
    def n_paths(self) -> int:
        return self.X.shape[0]


def _blowup_guard(x: np.ndarray, step: int) -> None:
    """Raise at the first step, then the first path, where |x| is not finite
    or beyond ``BLOWUP_LIMIT``.

    ``x`` holds one step, shape (n_paths,), or the consecutive steps step,
    step + 1, ... along its last axis, shape (n_paths, n).
    """
    if x.max() <= BLOWUP_LIMIT and x.min() >= -BLOWUP_LIMIT:  # False for NaN
        return
    bad = ~(np.abs(x) <= BLOWUP_LIMIT)
    if x.ndim == 2:
        k = int(np.argmax(bad.any(axis=0)))
        x, bad, step = x[:, k], bad[:, k], step + k
    p = int(np.argmax(bad))
    raise BlowupError(p, step, float(x[p]) if np.isfinite(x[p]) else float("inf"))


# paths per block when the increments are copied to time-major order
INCREMENT_BLOCK = 64
# steps per block of the inputs and states a step loop holds time-major,
# and of the fields and products a per-node reduction over paths builds
TIME_BLOCK = 64
# paths per chunk of per-path work formed into one output: the fundamental
# pair's step factors, the adjoint targets and fits, costs and residuals
ROW_CHUNK = 64


def _time_major_increments(paths: PathSet, k0: int = 0,
                           k1: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """dB and the increments of B^H of steps k0 <= k < k1 (default: every
    step), time-major: shape (k1 - k0, m, n_paths).

    Copied INCREMENT_BLOCK paths at a time, which is faster than a
    whole-array transpose (a size-1 driver axis over a power-of-two step
    count defeats numpy's copy loop); dB^H is differenced on each block's
    time-major view, the subtraction ``np.diff`` makes.  Built per call and
    not held with the paths, which would raise peak memory.
    """
    n_paths, m, n_steps = paths.dB.shape
    k1 = n_steps if k1 is None else k1
    db = np.empty((k1 - k0, m, n_paths))
    dbh = np.empty((k1 - k0, m, n_paths))
    for p0 in range(0, n_paths, INCREMENT_BLOCK):
        p1 = min(p0 + INCREMENT_BLOCK, n_paths)
        db[:, :, p0:p1] = paths.dB[p0:p1, :, k0:k1].transpose(2, 1, 0)
        bt = paths.BH[p0:p1, :, k0:k1 + 1].transpose(2, 1, 0)
        np.subtract(bt[1:], bt[:-1], out=dbh[:, :, p0:p1])
    return db, dbh


def _row_blocks(n_paths: int):
    """Paths 0..n_paths-1 as consecutive slices of ROW_CHUNK."""
    return (slice(p0, min(p0 + ROW_CHUNK, n_paths))
            for p0 in range(0, n_paths, ROW_CHUNK))


def _step_blocks(n_steps: int):
    """Steps 0..n_steps-1 as consecutive (k0, k1) blocks of TIME_BLOCK, a
    1-step tail joined to the block before it: numpy sums a one-column
    block over paths pairwise, not in the path order of a wider block, so a
    lone column would change the bits of a per-step reduction."""
    starts = list(range(0, n_steps, TIME_BLOCK))
    if len(starts) > 1 and n_steps - starts[-1] < 2:
        starts.pop()
    return zip(starts, starts[1:] + [n_steps])


def _euler_block(model: CoefficientModel, u: np.ndarray, x: np.ndarray,
                 paths: PathSet, k0: int, k1: int) -> np.ndarray:
    """States of steps k0 < k <= k1 from x = X_k0, time-major, shape
    (k1 - k0, n_paths); the block's increments and controls are copied
    time-major, and every array of the block is released on return."""
    t, dt = paths.grid.nodes, paths.grid.dt
    db, dbh = _time_major_increments(paths, k0, k1)
    uv = _time_major(u[:, k0:k1])
    xt = np.empty((k1 - k0 + 1, len(x)))
    xt[0] = x
    for i, k in enumerate(range(k0, k1)):
        xk, uk = xt[i], uv[i]
        inc = model.b(t[k], xk, uk) * dt
        for j in range(model.m):
            inc = inc + model.sigma[j](t[k], xk, uk) * db[i, j] \
                      + model.gamma[j](t[k], xk, uk) * dbh[i, j]
        np.add(xk, inc, out=xt[i + 1])
        _blowup_guard(xt[i + 1], k + 1)
    return xt[1:]


def euler_mixed(model: CoefficientModel, u: ControlProcess, x0: float,
                paths: PathSet) -> StatePath:
    """Left-point Euler scheme for the mixed state equation.

    X_{k+1} = X_k + b dt + sum_j sigma_j dB_j + sum_j gamma_j dB^H_j with all
    coefficients at (t_k, X_k, u_k).  Any |X| beyond ``BLOWUP_LIMIT`` aborts
    with the offending path and step rather than contaminating batch means.
    The states are stepped time-major one TIME_BLOCK of steps at a time and
    each block is written into the path-major output.
    """
    if paths.BH is None:
        raise GridMismatchError("euler_mixed needs coupled B and B^H paths")
    grid = paths.grid
    u_nodes = np.broadcast_to(u.values, (paths.n_paths, grid.n_nodes))
    X = np.empty((paths.n_paths, grid.n_nodes))
    X[:, 0] = x0
    for k0, k1 in _step_blocks(grid.n_steps):
        X[:, k0 + 1:k1 + 1] = _euler_block(model, u_nodes, X[:, k0], paths, k0, k1).T
    return StatePath(grid, X)


@dataclass(frozen=True)
class Linearization:
    """Model partials evaluated along a reference pair (X*, u*).

    Each array is (m, n_paths, n_nodes) (bx, bu: (n_paths, n_nodes)); a
    partial that depends on time only is a read-only view with stride 0
    over paths.
    """

    bx: np.ndarray
    bu: np.ndarray
    sx: np.ndarray
    su: np.ndarray
    gx: np.ndarray
    gu: np.ndarray

    @property
    def m(self) -> int:
        return self.sx.shape[0]


def evaluate_along(fns, t: np.ndarray, *node_values: np.ndarray) -> np.ndarray:
    """Each fn called once on the given nodes, shape (len(fns), n_paths, n_nodes).

    ``t`` is the node vector, shape (n_nodes,): the whole grid or a block of
    its nodes, and ``node_values`` are (n_paths, n_nodes) arrays on those
    nodes, such as the state and the control; each fn is
    called once and acts elementwise.  When every fn returns one value per
    node (or a scalar), the result is a read-only view of those values
    broadcast over paths with stride 0.
    """
    n_paths, n_nodes = node_values[0].shape
    vals = [np.asarray(fn(t, *node_values), dtype=float) for fn in fns]
    per_node = all(v.ndim <= 1 for v in vals)
    out = np.empty((len(fns), 1 if per_node else n_paths, n_nodes))
    for i, v in enumerate(vals):
        out[i] = v
    return np.broadcast_to(out, (len(fns), n_paths, n_nodes)) if per_node else out


def linearize(model: CoefficientModel, x: StatePath, u: ControlProcess) -> Linearization:
    """Evaluate all first partials along (X*, u*) on the whole grid."""
    at = (x.grid.nodes, x.X, u.materialize(x))
    bx, bu = evaluate_along([model.b_x, model.b_u], *at)
    return Linearization(bx, bu, evaluate_along(model.sigma_x, *at),
                         evaluate_along(model.sigma_u, *at),
                         evaluate_along(model.gamma_x, *at),
                         evaluate_along(model.gamma_u, *at))


def _homogeneous(lin: Linearization, paths: PathSet, sign: float) -> StatePath:
    """Y_{k+1} = Y_k fac_k from Y_0 = 1, as one cumulative product over time.

    The step factors are built in Y itself, ROW_CHUNK paths at a time with
    that chunk's dB^H and noise in fixed scratch, with the operations of the
    step recursion in its order, so the product is bitwise the recursion's;
    the blow-up guard then checks the finished product.
    """
    grid = paths.grid
    n_paths, n = paths.n_paths, grid.n_steps
    Y = np.empty((n_paths, grid.n_nodes))
    Y[:, 0] = 1.0
    noise = np.empty((min(ROW_CHUNK, n_paths), n))
    dbh = np.empty_like(noise)
    for p0 in range(0, n_paths, ROW_CHUNK):
        rows = slice(p0, min(p0 + ROW_CHUNK, n_paths))
        fac = Y[rows, 1:]
        if sign > 0:
            np.multiply(lin.bx[rows, :-1], grid.dt, out=fac)
        else:
            np.sum(lin.sx[:, rows, :-1] ** 2, axis=0, out=fac)
            fac -= lin.bx[rows, :-1]
            fac *= grid.dt
        fac += 1.0
        nz, d = noise[:len(fac)], dbh[:len(fac)]
        for j in range(lin.m):
            np.multiply(lin.sx[j, rows, :-1], paths.dB[rows, j], out=nz)
            bh = paths.BH[rows, j]
            np.subtract(bh[:, 1:], bh[:, :-1], out=d)
            d *= lin.gx[j, rows, :-1]
            nz += d
            if sign > 0:
                fac += nz
            else:
                fac -= nz
        with np.errstate(over="ignore", invalid="ignore"):
            np.cumprod(fac, axis=1, out=fac)
    _blowup_guard(Y[:, 1:], 1)
    return StatePath(grid, Y)


def fundamental_phi(lin: Linearization, paths: PathSet) -> StatePath:
    """Fundamental solution Phi of the homogeneous linearized mixed SDE."""
    return _homogeneous(lin, paths, +1.0)


def fundamental_psi(lin: Linearization, paths: PathSet) -> StatePath:
    """Reciprocal process Psi = Phi^{-1}, integrated from its own SDE."""
    return _homogeneous(lin, paths, -1.0)


def _time_major(a: np.ndarray) -> np.ndarray:
    """(..., n_paths, n_nodes) as (n_nodes, ..., n_paths).

    An array held once per node (stride 0 over paths), such as a time-only
    partial or a constant control, keeps one value per node, shape
    (n_nodes, ..., 1), which broadcasts over paths; any other array is copied
    so that each node's row is contiguous.
    """
    a = np.moveaxis(a, -1, 0)
    return a[..., :1] if a.strides[-1] == 0 else np.ascontiguousarray(a)


def _variation_block(lin: Linearization, v: np.ndarray, y: np.ndarray,
                     paths: PathSet, k0: int, k1: int) -> np.ndarray:
    """Variation states of steps k0 < k <= k1 from y = y_k0, time-major,
    shape (k1 - k0, n_paths); as ``_euler_block``, with the partials and v
    copied time-major for the block."""
    dt = paths.grid.dt
    db, dbh = _time_major_increments(paths, k0, k1)
    bx, bu, sx, su, gx, gu = (_time_major(a[..., k0:k1]) for a in
                              (lin.bx, lin.bu, lin.sx, lin.su, lin.gx, lin.gu))
    vt = np.ascontiguousarray(v[:, k0:k1].T)
    yt = np.empty((k1 - k0 + 1, len(y)))
    yt[0] = y
    for i in range(k1 - k0):
        yk, vk = yt[i], vt[i]
        inc = (bx[i] * yk + bu[i] * vk) * dt
        for j in range(lin.m):
            inc = inc + (sx[i, j] * yk + su[i, j] * vk) * db[i, j] \
                      + (gx[i, j] * yk + gu[i, j] * vk) * dbh[i, j]
        np.add(yk, inc, out=yt[i + 1])
    return yt[1:]


def variation_direct(lin: Linearization, v: np.ndarray, paths: PathSet) -> StatePath:
    """Variation process by direct Euler integration of its linear SDE.

    Like ``euler_mixed``, it steps one TIME_BLOCK of steps at a time, with
    the block's increments, partials, v and states time-major, and writes
    each block into the path-major output.
    """
    grid = paths.grid
    y = np.empty((paths.n_paths, grid.n_nodes))
    y[:, 0] = 0.0
    for k0, k1 in _step_blocks(grid.n_steps):
        y[:, k0 + 1:k1 + 1] = _variation_block(lin, v, y[:, k0], paths, k0, k1).T
    return StatePath(grid, y)


def variation_explicit(phi: StatePath, psi: StatePath, lin: Linearization,
                       v: np.ndarray, paths: PathSet) -> StatePath:
    """Variation process from the variation-of-constants representation.

    y(t) = Phi(t) [ int Psi (b_u - sum_j sigma_x^j sigma_u^j) v ds
                    + sum_j int Psi sigma_u^j v dB_j
                    + sum_j int Psi gamma_u^j v dB^H_j ],
    all integrals as left-point sums matching the euler_mixed conventions.
    """
    if phi.grid != paths.grid or psi.grid != paths.grid:
        raise GridMismatchError("Phi/Psi grids differ from the path grid")
    grid = paths.grid
    dt = grid.dt
    dbh = np.diff(paths.BH, axis=-1)
    drift_coef = lin.bu - (lin.sx * lin.su).sum(axis=0)
    incr = psi.X[:, :-1] * drift_coef[:, :-1] * v[:, :-1] * dt
    for j in range(lin.m):
        incr = incr + psi.X[:, :-1] * lin.su[j, :, :-1] * v[:, :-1] * paths.dB[:, j, :] \
                    + psi.X[:, :-1] * lin.gu[j, :, :-1] * v[:, :-1] * dbh[:, j, :]
    I = np.zeros((paths.n_paths, grid.n_nodes))
    np.cumsum(incr, axis=1, out=I[:, 1:])
    return StatePath(grid, phi.X * I)


def default_alpha(H: float) -> float:
    """Default exponent 1-H + 0.4(H-1/2) inside the admissible band (1-H, 1/2)."""
    return 1.0 - H + 0.4 * (H - 0.5)


def alpha_norm_terminal(values: np.ndarray, grid: TimeGrid, alpha: float) -> np.ndarray:
    """Discrete ||f||_{alpha,T} of (..., n_nodes) arrays, O(n) per path.

    |f(T)| + sum_{s<T} |f(T)-f(s)| (T-s)^{-alpha-1} dt, with the cell adjacent
    to T integrated in closed form against piecewise-linear f.
    """
    if not 0.0 < alpha < 0.5:
        raise DomainError(f"alpha must lie in (0, 1/2), got {alpha}")
    values = np.asarray(values, dtype=float)
    if values.shape[-1] != grid.n_nodes:
        raise GridMismatchError("values do not match the grid")
    t = grid.nodes
    dt = grid.dt
    k = grid.n_steps  # the terminal node; n_steps >= 1
    diffs = np.abs(values[..., k:k + 1] - values[..., :k - 1])
    w = (t[k] - t[:k - 1]) ** (-alpha - 1.0) * dt
    # adjacent cell: |f(t)-f(s)| ~ linear, singular power integrated exactly
    return (np.abs(values[..., k]) + diffs @ w
            + np.abs(values[..., k] - values[..., k - 1]) * dt ** (-alpha) / (1.0 - alpha))


def lemma1_experiment(model: CoefficientModel, u_star: ControlProcess,
                      v: ControlProcess, epsilons, paths: PathSet,
                      x0: float) -> list[dict]:
    """First-order expansion error (X^eps - X*)/eps - y for a list of eps.

    Returns one row per eps with the mean squared terminal gap, the mean
    squared sup-norm and the mean squared discrete alpha-norm at T, alpha =
    ``default_alpha(H)``, each with its Monte Carlo standard error.  All
    states share the same noise, so the scheme's own discretization error
    cancels and the rows isolate the second-order remainder.
    """
    alpha = default_alpha(paths.hurst.value)
    x_star = euler_mixed(model, u_star, x0, paths)
    u_mat = u_star.materialize(x_star)
    v_mat = v.materialize(x_star)
    lin = linearize(model, x_star, u_star)
    y = variation_direct(lin, v_mat, paths)
    rows = []
    n = paths.n_paths
    for eps in epsilons:
        if not 0.0 < eps < 1.0:
            raise DomainError(f"epsilon must lie in (0, 1), got {eps}")
        u_eps = ControlProcess.from_values(u_mat + eps * v_mat)
        x_eps = euler_mixed(model, u_eps, x0, paths)
        xt = (x_eps.X - x_star.X) / eps - y.X
        terms = {
            "terminal_sq": xt[:, -1] ** 2,
            "sup_sq": np.max(np.abs(xt), axis=1) ** 2,
            "alpha_norm_sq": alpha_norm_terminal(xt, paths.grid, alpha) ** 2,
        }
        row = {"epsilon": float(eps), "alpha": float(alpha)}
        for name, vals in terms.items():
            row[name] = float(vals.mean())
            row[name + "_stderr"] = float(vals.std(ddof=1) / np.sqrt(n))
        rows.append(row)
    return rows
