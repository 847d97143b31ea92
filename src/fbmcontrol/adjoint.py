"""Adjoint pair (p, q) by least-squares Monte Carlo on the explicit representations.

p(t) is Psi(t) times the conditional expectation of the pathwise payoff
S1 = int_t^T f_x Phi ds + g_x(X_T) Phi(T), estimated by cross-sectional
regression on polynomials of X*(t).  q_j comes either from the closed-form
Malliavin expansion (linear-in-state models) or from a central-difference
bump of a single Brownian increment with frozen regression coefficients.

Standard errors reported for p, q and the residual diagnostics are computed
from the *unsmoothed* pathwise targets: regression fits have cross-path
dispersion far below the estimator's true Monte Carlo uncertainty, while the
raw targets are unbiased for the same conditional means (tower property) and
carry honest O(1/sqrt(n)) noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (RegressionError, UnsupportedModelError,
                     UnsupportedRegimeError)
from .fbm import PathSet, kernel_subdiagonal
from .sde import ControlProcess, CoefficientModel, Linearization, StatePath, \
    _row_blocks, _step_blocks, euler_mixed, evaluate_along, fundamental_phi, \
    fundamental_psi, linearize

__all__ = [
    "NodeRegression",
    "AdjointProblem",
    "AdjointEstimate",
    "adjoint_problem",
    "estimate_p",
    "estimate_q_formula",
    "estimate_q_bump",
    "stationarity_residual",
    "bsde_residual",
    "ResidualReport",
]

# nodes per block in the bump oracle: its feature arrays stay at
# (n_paths, BUMP_BLOCK_NODES, REGRESSION_DEGREE+1) whatever the grid
BUMP_BLOCK_NODES = 32

# regression basis: powers 0..REGRESSION_DEGREE of the centered, scaled
# state, with a ridge of REGRESSION_RIDGE times the mean Gram diagonal
REGRESSION_DEGREE = 2
REGRESSION_RIDGE = 1e-8


def _scaled(x: np.ndarray, center, scale) -> np.ndarray:
    """z = (x - center)/scale; a node with zero spread (e.g. t = 0) gets
    z = 0, so its regression is the plain mean."""
    spread = scale > 0
    return np.where(spread, x - center, 0.0) / np.where(spread, scale, 1.0)


def _basis(x: np.ndarray, center, scale) -> np.ndarray:
    """Powers z^0 .. z^REGRESSION_DEGREE of z = (x - center)/scale along a
    new last axis (repeated products: much faster than ``**``)."""
    z = _scaled(x, center, scale)
    out = np.empty((*z.shape, REGRESSION_DEGREE + 1))
    out[..., 0] = 1.0
    for i in range(1, REGRESSION_DEGREE + 1):
        out[..., i] = out[..., i - 1] * z
    return out


def _power_sums(y: np.ndarray, z: np.ndarray, count: int) -> np.ndarray:
    """Sums over paths (axis -2) of y z^i, i = 0 .. count-1, along a new
    last axis; y may stack targets on leading axes.

    The products are held one ``_step_blocks`` block of node columns at a
    time; each column's sum runs over the paths in the same order as a
    whole-array sum, so the sums keep their bits.
    """
    out = np.empty((*y.shape[:-2], y.shape[-1], count))
    for k0, k1 in _step_blocks(y.shape[-1]):
        power = y[..., k0:k1].copy()
        for i in range(count):
            if i:
                power *= z[:, k0:k1]
            out[..., k0:k1, i] = power.sum(axis=-2)
    return out


@dataclass
class NodeRegression:
    """Frozen cross-sectional regressions at every non-terminal node at once.

    Node k regresses on powers of the centered, scaled state z = z(X*(t_k)).
    No design array is formed: the Gram of node k is the Hankel matrix of
    the power sums sum_p z^0 .. z^(2 degree), the right-hand sides are the
    sums sum_p y z^i, and a prediction is a Horner polynomial in z.  The
    normal equations of all nodes are solved in one batch.  ``coeffs`` and
    ``predict`` take targets stacked on leading axes, and ``predict`` forms
    the values of one block of paths; ``features`` evaluates
    the basis at new state values, which the bump oracle needs to keep the
    projection frozen.
    """

    center: np.ndarray   # (n_fit,)
    scale: np.ndarray    # (n_fit,)
    z: np.ndarray        # scaled states, (n_paths, n_fit)
    gram: np.ndarray     # (n_fit, degree+1, degree+1)
    gram_r: np.ndarray   # gram plus the trace-scaled ridge

    @classmethod
    def fit(cls, X: np.ndarray) -> "NodeRegression":
        """Fit on the state columns of X, shape (n_paths, n_fit)."""
        center = X.mean(axis=0)
        # the std holds one block of columns' deviations at a time; each
        # column is summed over the paths in the whole array's order
        std = np.empty(X.shape[1])
        for k0, k1 in _step_blocks(X.shape[1]):
            std[k0:k1] = X[:, k0:k1].std(axis=0)
        # exactly 0 where every path is in one state: the rounding in a
        # batched std must not turn a constant node into a regression
        scale = np.where(np.ptp(X, axis=0) > 0, std, 0.0)
        z = np.empty(X.shape)
        for rows in _row_blocks(X.shape[0]):
            z[rows] = _scaled(X[rows], center, scale)
        # sum_p z^0 .. z^(2 degree); entry (i, j) of the Gram is sum_p z^(i+j)
        sums = np.insert(_power_sums(z, z, 2 * REGRESSION_DEGREE), 0,
                         X.shape[0], axis=1)
        deg = np.arange(REGRESSION_DEGREE + 1)
        gram = sums[:, deg[:, None] + deg]
        lam = REGRESSION_RIDGE * np.trace(gram, axis1=1, axis2=2) \
            / (REGRESSION_DEGREE + 1)
        penalized = np.eye(REGRESSION_DEGREE + 1)
        penalized[0, 0] = 0.0  # unpenalized intercept: constants reproduce exactly
        return cls(center, scale, z, gram, gram + lam[:, None, None] * penalized)

    def coeffs(self, y: np.ndarray) -> np.ndarray:
        """Coefficients (..., n_fit, degree+1) for targets y of shape
        (..., n_paths, n_fit)."""
        rhs = _power_sums(y, self.z, REGRESSION_DEGREE + 1)
        try:
            return np.linalg.solve(self.gram_r, rhs[..., None])[..., 0]
        except np.linalg.LinAlgError as exc:
            raise RegressionError("normal equations singular despite ridge") from exc

    def predict(self, c: np.ndarray, rows: slice = slice(None),
                features: np.ndarray | None = None) -> np.ndarray:
        """Values (..., n_rows, n_fit) of coefficients c (..., n_fit, degree+1)
        at the fitted states of the paths ``rows``, or on other ``features``
        (one target)."""
        if features is not None:
            return np.einsum("pkd,kd->pk", features, c)
        z = self.z[rows]
        c = c[..., None, :, :]  # broadcast over paths
        out = c[..., REGRESSION_DEGREE] * z
        for i in range(REGRESSION_DEGREE - 1, -1, -1):
            out += c[..., i]
            if i:
                out *= z
        return out

    def features(self, x: np.ndarray, nodes: slice) -> np.ndarray:
        """Basis at new states x, whose columns are the given nodes."""
        return _basis(x, self.center[nodes], self.scale[nodes])

    def coeff_cov(self) -> np.ndarray:
        """Gr^-1 G Gr^-1 per node: coefficient covariance per unit residual variance."""
        half = np.linalg.solve(self.gram_r, self.gram)
        return np.linalg.solve(self.gram_r, half.transpose(0, 2, 1))


@dataclass
class AdjointProblem:
    """Everything the adjoint estimators need along one pair.

    The running-cost partials and the noise coefficients are kept as
    callables with their evaluation point (t, X, u): each estimator
    evaluates the field it reads when it reads it (:meth:`along`), so no
    per-path field outlives the stage that uses it.
    """

    paths: PathSet
    x: StatePath
    u: np.ndarray             # control node values, (n_paths, n_nodes)
    lin: Linearization
    phi: StatePath
    psi: StatePath
    model: CoefficientModel   # sigma_j and gamma_j
    fx_fn: callable           # f_x(t, x, u)
    fu_fn: callable
    gx_T: np.ndarray          # g_x(X_T), (n_paths,)
    fxx_fn: callable | None = None  # f_xx(t, x, u), read by the q formula
    gxx_T: np.ndarray | None = None

    @property
    def m(self) -> int:
        return self.lin.m

    def along(self, fns, cols: slice = slice(None)) -> np.ndarray:
        """``evaluate_along`` of fns at (t, X, u) on the node columns cols,
        shape (len(fns), n_paths, n_cols)."""
        return evaluate_along(fns, self.paths.grid.nodes[cols],
                              self.x.X[:, cols], self.u[:, cols])

    @property
    def pair(self) -> tuple:
        """(Phi, Psi): what a later problem on the same paths may take."""
        return self.phi, self.psi

    def sigma_x_deterministic(self) -> np.ndarray:
        """Per-node sigma_x values, (m, n_nodes).

        Raises unless b_x, sigma_x and gamma_x are the same on every path,
        the linear-in-state structure the closed-form q needs: each must be
        held once per node or spread by at most 1e-10 across paths.
        """
        for name, a in (("b_x", self.lin.bx), ("sigma_x", self.lin.sx),
                        ("gamma_x", self.lin.gx)):
            if not _time_only(a):
                spread = np.ptp(a, axis=-2).max()
                if spread > 1e-10:
                    raise UnsupportedModelError(
                        f"{name} varies across paths (spread {spread:.2e}); "
                        "model is not linear in state")
        return self.lin.sx[:, 0, :]


def _time_only(a: np.ndarray) -> bool:
    """Whether a (..., n_paths, n_nodes) array is held once per node."""
    return a.strides[-2] == 0


def adjoint_problem(model: CoefficientModel, u: ControlProcess, x0: float,
                    paths: PathSet, fx_fn, fu_fn, gx_fn, fxx_fn=None,
                    gxx_fn=None, pair: tuple | None = None) -> AdjointProblem:
    """Integrate the pair and package the adjoint inputs.

    ``fx_fn(t, x, u)`` etc. are running-cost partials; ``gx_fn(x)`` the
    terminal-cost gradient.  ``fxx_fn`` and ``gxx_fn`` are what the q
    formula reads for its payoff S2 = int f_xx Phi^2 ds + g_xx(X_T) Phi(T)^2,
    which it forms one block of paths at a time (S2 is never held whole).
    ``pair`` is an earlier problem's :attr:`AdjointProblem.pair` and is taken
    as given: the caller guarantees the same paths, and b_x, sigma_x and
    gamma_x that do not depend on the control, so that (Phi, Psi) are the
    ones this problem would build.
    """
    x = euler_mixed(model, u, x0, paths)
    lin = linearize(model, x, u)
    phi, psi = pair if pair is not None else (fundamental_phi(lin, paths),
                                              fundamental_psi(lin, paths))
    return AdjointProblem(
        paths=paths, x=x, u=u.materialize(x), lin=lin, phi=phi, psi=psi,
        model=model, fx_fn=fx_fn, fu_fn=fu_fn,
        gx_T=np.asarray(gx_fn(x.X[:, -1]), dtype=float), fxx_fn=fxx_fn,
        gxx_T=np.full(x.n_paths, gxx_fn(x.X[:, -1]), dtype=float)
        if gxx_fn is not None else None)


def _tail_trapezoid(values: np.ndarray, dt: float) -> np.ndarray:
    """int_{t_k}^T of node values by trapezoid, for every k (reverse cumsum);
    each row (path) is summed on its own, so a block of rows gives the same
    bits as the whole array."""
    seg = 0.5 * (values[:, :-1] + values[:, 1:]) * dt
    out = np.zeros_like(values)
    out[:, :-1] = seg[:, ::-1].cumsum(axis=1)[:, ::-1]
    return out


@dataclass
class AdjointEstimate:
    """Per-path adjoint estimates plus the raw targets behind their errors."""

    grid: object
    p: np.ndarray                 # (n_paths, n_nodes), smoothed
    p_raw: np.ndarray             # unsmoothed targets, same conditional means
    regression: NodeRegression    # frozen fits of the non-terminal nodes
    p_coeffs: np.ndarray          # their p coefficients, (n_nodes-1, degree+1)
    q: np.ndarray | None = None   # (m, n_paths, n_nodes)
    q_raw: np.ndarray | None = None

    def p_mean(self) -> np.ndarray:
        return self.p_raw.mean(axis=0)

    def p_stderr(self) -> np.ndarray:
        return self.p_raw.std(axis=0, ddof=1) / np.sqrt(self.p_raw.shape[0])

    def q_mean(self) -> np.ndarray:
        return self.q_raw.mean(axis=1)

    def q_stderr(self) -> np.ndarray:
        return self.q_raw.std(axis=1, ddof=1) / np.sqrt(self.q_raw.shape[1])

    def to_csv(self, path, dim: int = 0) -> None:
        t = self.grid.nodes
        pm, ps = self.p_mean(), self.p_stderr()
        if self.q is not None:
            qm, qs = self.q_mean()[dim], self.q_stderr()[dim]
        else:
            qm = qs = np.full_like(pm, float("nan"))
        with open(path, "w", newline="") as fh:
            fh.write("node,t,p_mean,p_stderr,q_mean,q_stderr\n")
            for k in range(len(t)):
                fh.write(f"{k},{t[k]:.17g},{pm[k]:.17g},{ps[k]:.17g},"
                         f"{qm[k]:.17g},{qs[k]:.17g}\n")


def estimate_p(prob: AdjointProblem) -> AdjointEstimate:
    """Estimate p(t) = Psi(t) E^{F_t}[ int_t^T f_x Phi ds + g_x(X_T) Phi(T) ].

    The F_t-measurable factor Psi(t) is pulled *inside* the conditional
    expectation before smoothing: the regression target is Psi(t) S1(t),
    whose conditional mean is exactly p(t) and, for the linear fixtures, a
    polynomial in X*(t) (regressing S1 alone and rescaling by Psi afterwards
    would project onto the wrong sigma-algebra and bias p).  The terminal
    node is imposed exactly as g_x(X*(T)) with no regression.
    """
    grid = prob.paths.grid
    fx = prob.along([prob.fx_fn])[0]
    phi, psi, gx_T = prob.phi.X, prob.psi.X, prob.gx_T
    p_raw = np.empty(phi.shape)
    for rows in _row_blocks(len(phi)):
        payoff = _tail_trapezoid(fx[rows] * phi[rows], grid.dt) \
            + (gx_T[rows] * phi[rows, -1])[:, None]
        np.multiply(psi[rows], payoff, out=p_raw[rows])
    del fx  # released before the fit's and p's arrays are made
    p_raw[:, -1] = gx_T
    reg = NodeRegression.fit(prob.x.X[:, :-1])
    coeffs = reg.coeffs(p_raw[:, :-1])
    p = np.empty_like(p_raw)
    for rows in _row_blocks(len(p)):
        p[rows, :-1] = reg.predict(coeffs, rows)
    p[:, -1] = gx_T  # terminal condition, exact
    return AdjointEstimate(grid, p, p_raw, reg, coeffs)


def estimate_q_formula(prob: AdjointProblem, est: AdjointEstimate) -> AdjointEstimate:
    """Fill q_j(t) from the closed-form Malliavin expansion (linear models).

    The representation is q_j(t) = -sigma_x^j(t) p(t) + Psi(t) E^{F_t}[D_t^j S1]
    with D_t^j X(s) = Phi(s) Psi(t) sigma_j(t) and D_t^j Phi(s) = sigma_x^j(t) Phi(s).
    Expanding D_t^j S1 and moving the F_t-measurable factors inside the
    expectation, the -sigma_x p term cancels the sigma_x E_t[Psi S1] leg
    pathwise, leaving

        q_j(t) = E^{F_t}[ Psi(t)^2 sigma_j(t) S2(t) ],
        S2 = int_t^T f_xx Phi^2 ds + g_xx(X_T) Phi(T)^2,

    estimated with the same node regressions as p, all m drivers in one call.
    S2 is formed one block of paths at a time, just before that block's
    targets, so it is never held whole.
    """
    if prob.fxx_fn is None or prob.gxx_T is None:
        raise UnsupportedModelError("q formula needs f_xx and g_xx along the pair")
    prob.sigma_x_deterministic()  # raises unless the model is linear in state
    reg = est.regression
    dt = prob.paths.grid.dt
    sigma, fxx = prob.along(prob.model.sigma), prob.along([prob.fxx_fn])[0]
    phi, psi, gxx_T = prob.phi.X, prob.psi.X, prob.gxx_T
    q_raw = np.empty(sigma.shape)
    for rows in _row_blocks(len(psi)):
        ph = phi[rows]
        s2 = _tail_trapezoid(fxx[rows] * ph ** 2, dt) \
            + (gxx_T[rows] * ph[:, -1] ** 2)[:, None]
        q_raw[:, rows] = psi[rows] ** 2 * sigma[:, rows] * s2
    del sigma, fxx  # released before q is made
    coeffs = reg.coeffs(q_raw[..., :-1])
    q = np.empty_like(q_raw)
    for rows in _row_blocks(len(psi)):
        q[:, rows, :-1] = reg.predict(coeffs, rows)
    q[..., -1] = q_raw[..., -1]
    est.q = q
    est.q_raw = q_raw
    return est


@dataclass
class BumpEstimate:
    """Bump-oracle q values with standard errors of their per-node means.

    ``mean_stderr`` combines the cross-path dispersion of the bump field with
    the frozen-regression coefficient noise (the dominant uncertainty early
    on, when the state has barely dispersed and the fitted slope is poorly
    identified).
    """

    q: np.ndarray            # (m, n_paths, n_nodes); NaN at the terminal node
    mean_stderr: np.ndarray  # (m, n_nodes)


def estimate_q_bump(prob: AdjointProblem, est: AdjointEstimate,
                    h: float | None = None) -> BumpEstimate:
    """Finite-difference Malliavin oracle for q, frozen regression coefficients.

    The Brownian increment of driver j leaving node k is bumped by +-h; the
    fractional path co-moves through the kernel weight of that cell, so the
    bumped state one step later is X(t_{k+1}) +- h (sigma_j + gamma_j W[k+1,k]).
    p at t_{k+1} is re-evaluated through the *frozen* node-(k+1) regression
    and q_j(t_k) = [p^+ - p^-]/(2h) per path.  The fractional co-move weight
    W[k+1,k] ~ dt^{H-1/2} vanishes under refinement, matching the vanishing
    diagonal of the Volterra kernel.  The terminal node is reported as NaN
    (no increment leaves it).  The terminal bump moves g_x(X_T) by
    g_xx(X_T) times the state bump, so the problem must carry g_xx.
    """
    if prob.gxx_T is None:
        raise UnsupportedModelError("bump oracle needs g_xx along the pair")
    paths = prob.paths
    grid = paths.grid
    if h is None:
        h = 1e-3 * np.sqrt(grid.dt)
    w_diag = kernel_subdiagonal(grid, paths.hurst)  # W[k+1, k]
    n_paths, n_nodes = prob.x.X.shape
    reg = est.regression
    # node k's bump lands on node k+1: regression nodes 1.., then the terminal node
    c = est.p_coeffs[1:]
    resid = est.p_raw[:, :-1] - est.p[:, :-1]
    resid_var = (resid ** 2).sum(axis=0) / max(n_paths - REGRESSION_DEGREE - 1, 1)
    cov_c = (resid_var[:, None, None] * reg.coeff_cov())[1:]
    q = np.full((prob.m, n_paths, n_nodes), np.nan)
    se = np.full((prob.m, n_nodes), np.nan)
    X = prob.x.X
    sigma, gamma = prob.along(prob.model.sigma), prob.along(prob.model.gamma)
    wvec = np.empty((n_nodes - 2, REGRESSION_DEGREE + 1))
    for j in range(prob.m):
        sig, gam = sigma[j], gamma[j]
        for start in range(0, n_nodes - 2, BUMP_BLOCK_NODES):
            k = slice(start, min(start + BUMP_BLOCK_NODES, n_nodes - 2))
            nxt = slice(k.start + 1, k.stop + 1)
            dx = h * (sig[:, k] + gam[:, k] * w_diag[k])
            fplus = reg.features(X[:, nxt] + dx, nxt)
            fminus = reg.features(X[:, nxt] - dx, nxt)
            q[j, :, k] = (reg.predict(c[k], features=fplus)
                          - reg.predict(c[k], features=fminus)) / (2 * h)
            fplus -= fminus
            wvec[k] = fplus.mean(axis=0) / (2 * h)
        var_coeff = np.zeros(n_nodes - 1)
        var_coeff[:-1] = np.einsum("ki,kij,kj->k", wvec, cov_c, wvec)
        # terminal node: p = g_x(X_T); finite-difference g_x directly
        dx = h * (sig[:, -2] + gam[:, -2] * w_diag[-1])
        q[j, :, -2] = (_gx_bumped(prob, X[:, -1] + dx)
                       - _gx_bumped(prob, X[:, -1] - dx)) / (2 * h)
        var_disp = q[j, :, :-1].var(axis=0, ddof=1) / n_paths
        se[j, :-1] = np.sqrt(var_coeff + var_disp)
    return BumpEstimate(q, se)


def _gx_bumped(prob: AdjointProblem, x_T: np.ndarray) -> np.ndarray:
    """g_x at bumped terminal states, linearized around X_T through g_xx."""
    return prob.gx_T + prob.gxx_T * (x_T - prob.x.X[:, -1])


@dataclass(frozen=True)
class ResidualReport:
    """Per-node residual means with honest Monte Carlo standard errors."""

    t: np.ndarray
    mean: np.ndarray
    stderr: np.ndarray
    mean_sq: np.ndarray

    def max_abs_z(self) -> float:
        z = np.abs(self.mean) / np.where(self.stderr > 0, self.stderr, np.inf)
        return float(z.max())

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write("node,t,mean,stderr,mean_sq\n")
            for k in range(len(self.t)):
                fh.write(f"{k},{self.t[k]:.17g},{self.mean[k]:.17g},"
                         f"{self.stderr[k]:.17g},{self.mean_sq[k]:.17g}\n")


def _report(t: np.ndarray, n_paths: int, fields) -> ResidualReport:
    """Per-node statistics of a residual field over the steps t, built one
    ``_step_blocks`` block of steps at a time.

    ``fields(k0, k1)`` gives the field of steps k0 <= k < k1 and the field
    whose spread sets the standard error (the same one, or one built from
    the raw targets).  The statistics equal those of the whole fields bit
    for bit.
    """
    n = len(t)
    mean, stderr, mean_sq = np.empty(n), np.empty(n), np.empty(n)
    for k0, k1 in _step_blocks(n):
        r, r_spread = fields(k0, k1)
        mean[k0:k1] = r.mean(axis=0)
        mean_sq[k0:k1] = (r ** 2).mean(axis=0)
        stderr[k0:k1] = r_spread.std(axis=0, ddof=1)
    stderr /= np.sqrt(n_paths)
    return ResidualReport(t=t, mean=mean, stderr=stderr, mean_sq=mean_sq)


def stationarity_residual(prob: AdjointProblem, est: AdjointEstimate) -> ResidualReport:
    """First-order condition b_u p + sum_j sigma_u^j q_j + f_u on the acting nodes.

    Only the gamma_u == 0 regime is implemented; with control-dependent
    fractional noise the condition acquires fractional-derivative correction
    terms that are outside this package's scope.  Means and standard errors
    come from the raw (unsmoothed) adjoint targets, which are unbiased for
    the same conditional means and carry honest Monte Carlo noise.  Nodes
    0..n-1 are reported: in the left-point discretization the terminal
    control value is a costless degree of freedom with no residual meaning.
    """
    gu = prob.lin.gu  # max and min: no |gamma_u| array
    if gu.max() > 0 or gu.min() < 0:
        raise UnsupportedRegimeError(
            "stationarity residual implemented for gamma_u == 0 only; the "
            "correction terms involving the fractional Malliavin derivative "
            "of the terminal functionals are out of scope")
    if est.q_raw is None:
        raise ValueError("estimate q before evaluating the stationarity residual")
    lin = prob.lin

    def field(k0, k1):
        r = lin.bu[:, k0:k1] * est.p_raw[:, k0:k1] \
            + (lin.su[:, :, k0:k1] * est.q_raw[:, :, k0:k1]).sum(axis=0) \
            + prob.along([prob.fu_fn], slice(k0, k1))[0]
        return r, r

    return _report(prob.paths.grid.nodes[:-1], prob.paths.n_paths, field)


def bsde_residual(prob: AdjointProblem, est: AdjointEstimate) -> ResidualReport:
    """Discrete residual of the adjoint backward equation.

    r_k = p_{k+1} - p_k + [b_x p + sum sigma_x q + f_x]_k dt
          + sum_j gamma_x^j p_k dB^H_j - sum_j q_j,k dB_j.

    Means come from the smoothed adapted pair; standard errors from the same
    field with the raw targets substituted for p (the smoothed field's
    cross-path spread grossly understates the estimator's uncertainty).  The
    last step closes against the representation's own terminal payoff
    Psi(T) Phi(T) g_x(X_T): the imposed exact terminal value g_x(X_T) differs
    from it by the discrete product defect Phi Psi - 1, which is tracked by
    the fundamental-pair invariant, not smuggled into this residual.

    The fields, and f_x on their columns, are built one ``sde.TIME_BLOCK``
    of steps at a time (see ``_report``).
    """
    if est.q is None:
        raise ValueError("estimate q before evaluating the BSDE residual")
    grid = prob.paths.grid
    n_paths, n = prob.paths.n_paths, grid.n_steps
    BH, dB, lin, q = prob.paths.BH, prob.paths.dB, prob.lin, est.q
    p_term = prob.psi.X[:, -1] * prob.phi.X[:, -1] * prob.gx_T

    def field(p_nodes, fx, k0, k1):
        """Residuals of steps k0 <= k < k1."""
        p_eff = np.empty((n_paths, k1 - k0 + 1))
        p_eff[:, :-1] = p_nodes[:, k0:k1]
        p_eff[:, -1] = p_term if k1 == n else p_nodes[:, k1]
        p_k = p_nodes[:, k0:k1]
        r = p_eff[:, 1:] - p_eff[:, :-1] \
            + (lin.bx[:, k0:k1] * p_k
               + (lin.sx[:, :, k0:k1] * q[:, :, k0:k1]).sum(axis=0)
               + fx) * grid.dt
        for j in range(prob.m):
            dbh = BH[:, j, k0 + 1:k1 + 1] - BH[:, j, k0:k1]
            r = r + lin.gx[j, :, k0:k1] * p_k * dbh - q[j, :, k0:k1] * dB[:, j, k0:k1]
        return r

    def fields(k0, k1):
        fx = prob.along([prob.fx_fn], slice(k0, k1))[0]
        return field(est.p, fx, k0, k1), field(est.p_raw, fx, k0, k1)

    return _report(grid.nodes[:-1], n_paths, fields)
