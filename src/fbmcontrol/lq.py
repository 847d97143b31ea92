"""Linear-quadratic control under mixed fractional noise, solved end to end.

The first-order condition u = -R^{-1}(A~ p + M~ q) is iterated to its fixed
point (damped steps with Anderson mixing) with the adjoint pair re-estimated
each sweep; a classical
Riccati oracle covers the Brownian-only sub-case (fractional coefficient
N == 0), and optimality / convexity checks run on common random numbers so
the comparisons resolve at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .adjoint import (AdjointEstimate, AdjointProblem, adjoint_problem,
                      estimate_p, estimate_q_formula)
from .errors import DomainError, UnsupportedModelError
from .fbm import PathSet, TimeGrid
from .sde import (CoefficientModel, ControlProcess, StatePath, _row_blocks,
                  euler_mixed, linearize, variation_direct)

__all__ = [
    "LqSpec",
    "LqSolution",
    "PicardOptions",
    "lq_model",
    "lq_cost",
    "lq_picard_solve",
    "riccati_oracle",
    "RiccatiSolution",
    "optimality_sweep",
    "convexity_check",
    "random_adapted_directions",
]


def as_timefn(c):
    """Lift constants to time functions; pass callables through."""
    if callable(c):
        return c
    val = float(c)
    return lambda t: val


def _node_values(fn, t) -> np.ndarray:
    """A time function on the node vector t, one float per node (read-only)."""
    return np.broadcast_to(np.asarray(fn(t), dtype=float), np.shape(t))


@dataclass(frozen=True)
class LqSpec:
    """Coefficient tuple (A, A~, M, M~, N, Q, R, G, x0, T), functions of time.

    Constants are accepted anywhere a function is; functions act
    elementwise on an array of times.  Q >= 0, R >= delta > 0 and G > 0 are
    checked on the working grid before any computation.
    """

    A: object = -1.0
    A_tilde: object = 1.0
    M: object = 0.2
    M_tilde: object = 0.0
    N: object = 0.0
    Q: object = 1.0
    R: object = 1.0
    G: float = 1.0
    x0: float = 1.0
    T: float = 1.0

    def fns(self):
        return {name: as_timefn(getattr(self, name))
                for name in ("A", "A_tilde", "M", "M_tilde", "N", "Q", "R")}

    def validate_on(self, grid: TimeGrid) -> float:
        """Check the definiteness invariants on grid nodes; returns delta = min R."""
        if abs(grid.horizon - self.T) > 1e-12:
            raise DomainError(f"grid horizon {grid.horizon} != spec horizon {self.T}")
        f = self.fns()
        q = _node_values(f["Q"], grid.nodes)
        r = _node_values(f["R"], grid.nodes)
        if q.min() < 0:
            raise DomainError(f"Q(t) must be >= 0 on [0,T]; min {q.min():.3e}")
        delta = float(r.min())
        if delta <= 0:
            raise DomainError(f"R(t) must be positive on [0,T]; min {delta:.3e}")
        if not self.G > 0:
            raise DomainError(f"G must be positive, got {self.G}")
        return delta

    def is_brownian_only(self, grid: TimeGrid) -> bool:
        return bool(np.abs(_node_values(self.fns()["N"], grid.nodes)).max() == 0.0)


def lq_model(spec: LqSpec, m: int = 1) -> CoefficientModel:
    """Coefficient model of the LQ state equation on m drivers.

    m = 1 is the mixed case: M x + M~ u and N x both ride driver 0, so B^H
    is built from the same B.  m = 2 is an fBm with an independent Brownian
    motion W, stacked as sigma~ = (0, sigma) and gamma~ = (gamma, 0) over
    drivers (B, W): N x rides driver 0 (the B that carries B^H) and
    M x + M~ u driver 1 (W).  So the Brownian diffusion always rides driver
    m - 1, and every downstream operation runs unchanged on m = 2.
    """
    if m not in (1, 2):
        raise DomainError(f"the LQ model takes m = 1 or m = 2 drivers, got m = {m}")
    f = spec.fns()
    A, At, M, Mt, N = f["A"], f["A_tilde"], f["M"], f["M_tilde"], f["N"]
    # partials depend on time only: one value per node, never per path
    zero = lambda t, x, u: np.zeros(np.shape(t))

    def on(driver, fn):
        """One entry per driver: fn on ``driver``, zero on the others."""
        return [fn if j == driver else zero for j in range(m)]

    return CoefficientModel(
        m=m,
        b=lambda t, x, u: A(t) * x + At(t) * u,
        sigma=on(m - 1, lambda t, x, u: M(t) * x + Mt(t) * u),
        gamma=on(0, lambda t, x, u: N(t) * x),
        b_x=lambda t, x, u: _node_values(A, t),
        b_u=lambda t, x, u: _node_values(At, t),
        sigma_x=on(m - 1, lambda t, x, u: _node_values(M, t)),
        sigma_u=on(m - 1, lambda t, x, u: _node_values(Mt, t)),
        gamma_x=on(0, lambda t, x, u: _node_values(N, t)),
        gamma_u=[zero] * m)


@dataclass(frozen=True)
class CostEstimate:
    J: float
    stderr: float
    per_path: np.ndarray


def lq_cost(spec: LqSpec, u: ControlProcess, paths: PathSet,
            x: StatePath | None = None) -> CostEstimate:
    """Monte Carlo cost J(u) = (1/2) E[ int (Q X^2 + R u^2) dt + G X(T)^2 ],
    per path and as a mean with its standard error; ``x`` is the state
    under ``u`` when it is already simulated.  The running cost is summed
    ROW_CHUNK paths at a time."""
    spec.validate_on(paths.grid)
    if x is None:
        x = euler_mixed(lq_model(spec, paths.m), u, spec.x0, paths)
    f = spec.fns()
    t = x.grid.nodes[:-1]
    qv = _node_values(f["Q"], t)
    rv = _node_values(f["R"], t)
    u_values = u.materialize(x)
    run = np.empty(x.n_paths)
    for rows in _row_blocks(x.n_paths):
        run[rows] = ((qv * x.X[rows, :-1] ** 2 + rv * u_values[rows, :-1] ** 2)
                     * x.grid.dt).sum(axis=1)
    per_path = 0.5 * (run + spec.G * x.X[:, -1] ** 2)
    return CostEstimate(float(per_path.mean()),
                        float(per_path.std(ddof=1) / np.sqrt(len(per_path))),
                        per_path)


def lq_adjoint_problem(spec: LqSpec, model: CoefficientModel,
                       u: ControlProcess, paths: PathSet,
                       pair: tuple | None = None) -> AdjointProblem:
    """Adjoint inputs for an LQ spec along the pair driven by ``u``.  The LQ
    partials do not depend on the control, so ``pair`` may come from any
    earlier problem on the same paths (see ``adjoint_problem``)."""
    f = spec.fns()
    Q, R, G = f["Q"], f["R"], spec.G
    return adjoint_problem(
        model, u, spec.x0, paths,
        fx_fn=lambda t, x, uu: Q(t) * x,
        fu_fn=lambda t, x, uu: R(t) * uu,
        gx_fn=lambda x: G * x,
        fxx_fn=lambda t, x, uu: _node_values(Q, t),
        gxx_fn=lambda x: G * np.ones_like(x), pair=pair)


# Anderson mixing of the Picard map: history depth, and the condition number
# of the depth x depth Gram system beyond which a sweep takes the damped step
ANDERSON_DEPTH = 2
ANDERSON_MAX_COND = 1e10


class AndersonMixer:
    """Anderson mixing (Anderson 1965; Walker & Ni 2011) of the damped map
    u -> x(u) = u + theta f(u), with f(u) = target(u) - u.

    Given the last ANDERSON_DEPTH differences dF_i of f and dX_i of x, the
    next iterate is x_k - sum_i gamma_i dX_i, where gamma minimizes
    |f_k - sum_i gamma_i dF_i| in the control norm (acting nodes only).  The
    Gram system is formed by plain elementwise reductions, which run on one
    thread; a singular or ill-conditioned one gives the plain damped step
    x_k.  The history is 2 * ANDERSON_DEPTH arrays: at most
    ANDERSON_DEPTH - 1 difference pairs and the last (x_k, f_k), which the
    next step turns into a difference pair in place.
    """

    def __init__(self, theta: float):
        self.theta = theta
        self.dx, self.df = [], []  # differences, oldest first
        self.last = None           # (x_k, f_k) of the last step

    def coefficients(self, f: np.ndarray) -> np.ndarray | None:
        """The least-squares gamma for residual f, None for the damped step."""
        if not self.df:
            return None
        inner = lambda a, b: np.einsum("ij,ij->", a[:, :-1], b[:, :-1])
        gram = np.array([[inner(a, b) for b in self.df] for a in self.df])
        rhs = np.array([inner(a, f) for a in self.df])
        if not (np.isfinite(gram).all()
                and np.linalg.cond(gram) <= ANDERSON_MAX_COND):
            return None
        return np.linalg.solve(gram, rhs)

    def step(self, u: np.ndarray, f: np.ndarray) -> np.ndarray:
        """The next iterate from u_k and f_k = target - u_k.  The mixer keeps
        f as history and overwrites it at the next step, so the caller must
        not use it afterwards."""
        x = u + self.theta * f
        if self.last is not None:
            lx, lf = self.last
            self.dx.append(np.subtract(x, lx, out=lx))
            self.df.append(np.subtract(f, lf, out=lf))
        gamma = self.coefficients(f)
        nxt = x.copy()
        if gamma is not None:
            for rows in _row_blocks(len(nxt)):  # no whole g * d
                for g, d in zip(gamma, self.dx):
                    nxt[rows] -= g * d[rows]
        if len(self.df) == ANDERSON_DEPTH:
            del self.dx[0], self.df[0]
        self.last = (x, f)
        return nxt


@dataclass
class PicardOptions:
    theta: float = 0.5          # mixing; undamped iteration can oscillate when M~ != 0
    tol: float = 1e-3           # mean-L2 control change
    max_iter: int = 50
    u0: float = 0.0


@dataclass
class LqSolution:
    u: ControlProcess
    problem: AdjointProblem
    estimate: AdjointEstimate
    J: float
    J_stderr: float
    iterations: list  # rows {iter, change, J, J_stderr}
    converged: bool

    def control_l2_distance(self, other: "LqSolution") -> float:
        return _mean_l2(self.u.values - other.u.values, self.problem.paths.grid.dt)


def _mean_l2(du: np.ndarray, dt: float) -> float:
    """sqrt of E sum_k du_k^2 dt over the acting nodes (the control L2 norm);
    the per-path sums are formed ROW_CHUNK paths at a time."""
    sums = np.empty(len(du))
    for rows in _row_blocks(len(du)):
        sums[rows] = (du[rows, :-1] ** 2).sum(axis=1)
    return float(np.sqrt(sums.mean() * dt))


def lq_picard_solve(spec: LqSpec, paths: PathSet,
                    options: PicardOptions | None = None) -> LqSolution:
    """Fixed-point iteration on u = -R^{-1}(A~ p + M~ q), q of driver m - 1.

    Each sweep simulates the state under the current control, re-estimates
    the adjoint pair from the explicit representations, and moves the
    control to the Anderson mixing of the damped steps theta toward the
    first-order-condition target (see :class:`AndersonMixer`).  The
    iteration stops once the damped step's mean-L2 size is below tol, or
    after max_iter steps; one more sweep then gives (p, q) and J at the
    returned control.  Non-convergence is returned as a flagged solution,
    never silently.

    A sweep estimates only what its next control reads: q only when M~ is
    nonzero at some node, since otherwise the target is -A~ p / R; the last
    sweep estimates q for every driver.  The Anderson history is released
    before the last sweep, which takes no step.  The LQ partials depend on
    time only, so (Phi, Psi) are built in the first sweep and every later
    sweep takes them as its ``pair``.
    """
    options = options or PicardOptions()
    spec.validate_on(paths.grid)
    model = lq_model(spec, paths.m)
    f = spec.fns()
    r_nodes, at_nodes, mt_nodes = (_node_values(f[name], paths.grid.nodes)
                                   for name in ("R", "A_tilde", "M_tilde"))
    q_steers = bool(np.any(mt_nodes))

    u = ControlProcess.from_values(
        np.full((paths.n_paths, paths.grid.n_nodes), float(options.u0)))
    log = []
    converged = False
    pair = None
    mixer = AndersonMixer(options.theta)
    for it in range(options.max_iter + 1):
        last = converged or it == options.max_iter
        if last:
            mixer = None  # the returned control takes no step
        prob = lq_adjoint_problem(spec, model, u, paths, pair)
        est = estimate_p(prob)
        if q_steers or last:
            est = estimate_q_formula(prob, est)
        pair = pair or prob.pair
        cost = lq_cost(spec, u, paths, prob.x)
        if last:
            break  # the estimates are at the returned control
        # the sweep's arrays, but p and q, go before the residual's and the
        # next sweep's are built
        p = est.p
        q = est.q[paths.m - 1] if q_steers else None
        prob = est = None
        resid = np.empty(u.values.shape)  # target - u, by blocks of paths
        for rows in _row_blocks(paths.n_paths):
            steer = at_nodes * p[rows]
            if q is not None:
                steer += mt_nodes * q[rows]
            resid[rows] = -steer / r_nodes
            resid[rows] -= u.values[rows]
        del p, q
        change = options.theta * _mean_l2(resid, paths.grid.dt)
        log.append({"iter": it, "change": change,
                    "J": cost.J, "J_stderr": cost.stderr})
        u = ControlProcess.from_values(mixer.step(u.values, resid))
        converged = change < options.tol
    return LqSolution(u, prob, est, cost.J, cost.stderr, log, converged)


@dataclass(frozen=True)
class RiccatiSolution:
    t: np.ndarray
    P: np.ndarray
    K: np.ndarray
    J: float


# RK4 steps of the Riccati oracle on [0, T], whatever the working grid
RICCATI_STEPS = 4096


def riccati_oracle(spec: LqSpec, grid: TimeGrid) -> RiccatiSolution:
    """Classical stochastic-LQ Riccati solution for the N == 0 sub-case.

    Solves -P' = 2AP + M^2 P + Q - (A~ P + M M~ P)^2 / (R + M~^2 P), P(T) = G
    backward with RK4 in RICCATI_STEPS steps; returns the feedback gain
    K = (A~ P + M M~ P)/(R + M~^2 P) and the closed-form cost J = P(0) x0^2 / 2.
    """
    if not spec.is_brownian_only(grid):
        raise UnsupportedModelError("Riccati oracle requires N == 0")
    spec.validate_on(grid)
    f = spec.fns()
    A, At, M, Mt, Q, R = (f[k] for k in ("A", "A_tilde", "M", "M_tilde", "Q", "R"))

    def rhs(t, p):
        gain_num = At(t) * p + M(t) * Mt(t) * p
        denom = R(t) + Mt(t) ** 2 * p
        return -(2 * A(t) * p + M(t) ** 2 * p + Q(t) - gain_num ** 2 / denom)

    ts = np.linspace(0.0, spec.T, RICCATI_STEPS + 1)
    h = -spec.T / RICCATI_STEPS
    P = np.empty(RICCATI_STEPS + 1)
    P[-1] = spec.G
    for i in range(RICCATI_STEPS, 0, -1):
        t0, p0 = ts[i], P[i]
        k1 = rhs(t0, p0)
        k2 = rhs(t0 + h / 2, p0 + h / 2 * k1)
        k3 = rhs(t0 + h / 2, p0 + h / 2 * k2)
        k4 = rhs(t0 + h, p0 + h * k3)
        P[i - 1] = p0 + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        if not np.isfinite(P[i - 1]) or abs(P[i - 1]) > 1e12:
            raise DomainError(f"Riccati blow-up at t = {ts[i-1]:.4f}")
    K = np.array([(At(ti) * pi + M(ti) * Mt(ti) * pi) / (R(ti) + Mt(ti) ** 2 * pi)
                  for ti, pi in zip(ts, P)])
    return RiccatiSolution(ts, P, K, float(0.5 * P[0] * spec.x0 ** 2))


def random_adapted_directions(paths: PathSet, n_directions: int,
                              seed: int) -> list[ControlProcess]:
    """Bounded adapted perturbation directions built from driver 0's path prefix."""
    rng = np.random.default_rng(seed)
    directions = []
    for _ in range(n_directions):
        a, b = rng.uniform(-1, 1, 2)
        omega = rng.uniform(0.5, 3.0)
        phase = rng.uniform(0, 2 * np.pi)

        def fn(k, t, b_prefix, a=a, b=b, omega=omega, phase=phase):
            drive = b_prefix[:, 0, -1]  # B(t_k): adapted
            return a * np.sin(2 * np.pi * omega * t + phase) + b * np.tanh(drive)

        directions.append(ControlProcess.from_prefix(paths, fn))
    return directions


@dataclass(frozen=True)
class SweepRow:
    direction: int
    eps: float
    dJ: float
    dJ_stderr: float
    deriv: float
    deriv_stderr: float

    def diff_ok(self) -> bool:
        return self.dJ >= -3 * self.dJ_stderr

    def deriv_ok(self) -> bool:
        return abs(self.deriv) <= 3 * self.deriv_stderr


def optimality_sweep(spec: LqSpec, u_star: ControlProcess,
                     directions: list[ControlProcess], eps_list,
                     paths: PathSet, x_star: StatePath | None = None
                     ) -> list[SweepRow]:
    """Cost differences and directional derivatives around u*, common random numbers.

    For each direction v and eps: J(u* + eps v) - J(u*) (must not be
    significantly negative at an optimum) and the central difference
    [J(u* + eps v) - J(u* - eps v)]/(2 eps) (exact directional derivative for
    this quadratic cost), both with paired-path standard errors.

    The coefficients of ``lq_model`` are affine in (x, u), so on fixed paths
    the Euler state is affine in the control: X(u* + eps v) = X* + eps Y_v,
    with Y_v the Euler variation process along (X*, u*).  The cost is
    quadratic, so per path J(u* + eps v) - J(u*) = eps D1 + eps^2 D2 with
        D1 = sum (Q X* Y + R u* v) dt + G X*_T Y_T,
        D2 = (1/2) (sum (Q Y^2 + R v^2) dt + G Y_T^2),
    and the central difference is D1 for every eps.  Each direction thus
    costs one variation run instead of 2 |eps_list| Euler runs, and the
    rows equal the Euler differences up to rounding.  ``x_star`` is the
    state under u* when it is already simulated.
    """
    model = lq_model(spec, paths.m)
    if x_star is None:
        x_star = euler_mixed(model, u_star, spec.x0, paths)
    u_mat = u_star.materialize(x_star)
    lin = linearize(model, x_star, u_star)
    f = spec.fns()
    t = paths.grid.nodes[:-1]
    q_dt = _node_values(f["Q"], t) * paths.grid.dt
    r_dt = _node_values(f["R"], t) * paths.grid.dt
    x = x_star.X
    n = paths.n_paths
    rows = []
    for i, v in enumerate(directions):
        v_mat = v.materialize(x_star)
        y = variation_direct(lin, v_mat, paths).X
        d1 = ((q_dt * x[:, :-1] * y[:, :-1]).sum(axis=1)
              + (r_dt * u_mat[:, :-1] * v_mat[:, :-1]).sum(axis=1)
              + spec.G * x[:, -1] * y[:, -1])
        d2 = 0.5 * ((q_dt * y[:, :-1] ** 2).sum(axis=1)
                    + (r_dt * v_mat[:, :-1] ** 2).sum(axis=1)
                    + spec.G * y[:, -1] ** 2)
        deriv = (float(d1.mean()), float(d1.std(ddof=1) / np.sqrt(n)))
        for eps in eps_list:
            diff = eps * d1 + eps ** 2 * d2
            rows.append(SweepRow(i, float(eps), float(diff.mean()),
                                 float(diff.std(ddof=1) / np.sqrt(n)), *deriv))
    return rows


@dataclass(frozen=True)
class ConvexityReport:
    J1: float
    J2: float
    J_mid: float
    margin_mean: float      # J1 + J2 - 2 J_mid - (delta/4) E int |u1-u2|^2
    margin_stderr: float
    state_midpoint_gap: float

    def holds(self) -> bool:
        return self.margin_mean >= -3 * self.margin_stderr


def convexity_check(spec: LqSpec, u1: ControlProcess, u2: ControlProcess,
                    paths: PathSet, x1: StatePath | None = None) -> ConvexityReport:
    """Strict-convexity margin J(u1) + J(u2) - 2 J((u1+u2)/2) >= (delta/4) E int |u1-u2|^2.

    delta = min R(t) on the grid; everything on common random numbers.  Also
    verifies that the midpoint control drives the midpoint state pathwise
    (linearity of the dynamics).  ``x1`` is the state under u1 when it is
    already simulated.
    """
    delta = spec.validate_on(paths.grid)
    model = lq_model(spec, paths.m)
    if x1 is None:
        x1 = euler_mixed(model, u1, spec.x0, paths)
    x2 = euler_mixed(model, u2, spec.x0, paths)
    u1_mat = u1.materialize(x1)
    u2_mat = u2.materialize(x2)
    u_mid = ControlProcess.from_values(0.5 * (u1_mat + u2_mat))
    x_mid = euler_mixed(model, u_mid, spec.x0, paths)
    c1, c2, cm = (lq_cost(spec, u, paths, x)
                  for u, x in ((u1, x1), (u2, x2), (u_mid, x_mid)))
    du_sq = ((u1_mat[:, :-1] - u2_mat[:, :-1]) ** 2).sum(axis=1) * paths.grid.dt
    stat = c1.per_path + c2.per_path - 2 * cm.per_path - 0.25 * delta * du_sq
    gap = float(np.abs(x_mid.X - 0.5 * (x1.X + x2.X)).max())
    return ConvexityReport(c1.J, c2.J, cm.J, float(stat.mean()),
                           float(stat.std(ddof=1) / np.sqrt(len(stat))), gap)
