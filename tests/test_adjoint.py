"""Adjoint pair estimation, Malliavin closed form and the residual checks."""

import dataclasses

import numpy as np
import pytest

from fbmcontrol import adjoint, sde
from fbmcontrol.adjoint import (NodeRegression, adjoint_problem,
                                bsde_residual, estimate_p, estimate_q_bump,
                                estimate_q_formula, stationarity_residual)
from fbmcontrol.errors import (RegressionError, UnsupportedModelError,
                               UnsupportedRegimeError)
from fbmcontrol.lq import LqSpec, lq_model
from fbmcontrol.lq import lq_adjoint_problem
from fbmcontrol.sde import CoefficientModel, ControlProcess


def zero(t, x, u):
    return np.zeros_like(np.asarray(x, dtype=float))


def one(t, x, u):
    return np.ones_like(np.asarray(x, dtype=float))


def trivial_model():
    return CoefficientModel(m=1, b=zero, sigma=[zero], gamma=[zero], b_x=zero,
                            b_u=zero, sigma_x=[zero], sigma_u=[zero],
                            gamma_x=[zero], gamma_u=[zero])


def lq_fixture():
    return LqSpec(A=-1.0, A_tilde=1.0, M=0.2, M_tilde=0.0, N=0.0)


@pytest.fixture(scope="module")
def lq_problem(coupled_paths_256):
    """LQ fixture along an exogenous (frozen) control process."""
    spec = lq_fixture()
    n = coupled_paths_256.n_paths
    u = ControlProcess.from_values(np.zeros((n, coupled_paths_256.grid.n_nodes)))
    prob = lq_adjoint_problem(spec, lq_model(spec), u, coupled_paths_256)
    est = estimate_q_formula(prob, estimate_p(prob))
    return spec, prob, est


class TestNodeRegression:
    def test_reproduces_quadratics_at_every_node(self, coupled_paths_256,
                                                 monkeypatch):
        X = coupled_paths_256.B[:, 0, 1:]  # spreads from sqrt(dt) to 1
        k = np.arange(X.shape[1])
        a, b, c = 1.0 + 0.01 * k, -0.5 + 0.02 * k, 0.3 - 0.001 * k
        y = a + b * X + c * X ** 2
        # no ridge: its deliberate shrinkage would bias the fit at ~1e-8
        monkeypatch.setattr(adjoint, "REGRESSION_RIDGE", 0.0)
        reg = NodeRegression.fit(X)
        assert np.allclose(reg.predict(reg.coeffs(y)), y, rtol=0, atol=1e-10)

    def test_constant_state_node_gives_plain_mean(self, monkeypatch):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((500, 3))
        X[:, 1] = 0.7  # every path in the same state
        y = rng.standard_normal((500, 3))
        reg = NodeRegression.fit(X)
        assert reg.scale[1] == 0.0
        assert np.allclose(reg.predict(reg.coeffs(y))[:, 1], y[:, 1].mean(),
                           rtol=0, atol=1e-14)
        # without the ridge that node's normal equations are singular
        monkeypatch.setattr(adjoint, "REGRESSION_RIDGE", 0.0)
        with pytest.raises(RegressionError):
            NodeRegression.fit(X).coeffs(y)

    @pytest.mark.parametrize("width", [2, 5, 64])
    def test_scale_by_column_blocks_matches_whole_std_bitwise(
            self, coupled_paths_256, width, monkeypatch):
        # 256 columns: blocks of 2, of 5 with a folded 1-column tail, of 64;
        # node 0 (t = 0) has every path in one state
        X = coupled_paths_256.B[:, 0, :-1]
        monkeypatch.setattr(sde, "TIME_BLOCK", width)
        want = np.where(np.ptp(X, axis=0) > 0, X.std(axis=0), 0.0)
        assert np.array_equal(NodeRegression.fit(X).scale, want)

    def test_holds_no_design_array(self, coupled_paths_256):
        X = coupled_paths_256.B[:, 0, :-1]
        reg = NodeRegression.fit(X)
        sizes = {name: a.size for name, a in vars(reg).items()
                 if isinstance(a, np.ndarray)}
        assert max(sizes.values()) <= X.size, sizes

    @staticmethod
    def explicit_ridge_coeffs(X, y, ridge):
        """Node-by-node ridge normal equations on an explicit basis design."""
        scale = np.where(np.ptp(X, axis=0) > 0, X.std(axis=0), 0.0)
        z = np.where(scale > 0, X - X.mean(axis=0), 0.0) \
            / np.where(scale > 0, scale, 1.0)
        design = np.stack([z ** i for i in range(adjoint.REGRESSION_DEGREE + 1)],
                          axis=-1)
        penalized = np.eye(design.shape[-1])
        penalized[0, 0] = 0.0
        out = []
        for k in range(X.shape[1]):
            d = design[:, k, :]
            gram = d.T @ d
            lam = ridge * np.trace(gram) / design.shape[-1]
            out.append(np.linalg.solve(gram + lam * penalized, d.T @ y[:, k]))
        return np.array(out), design

    @pytest.mark.parametrize("ridge", [None, 0.0])
    def test_matches_explicit_design_solve(self, coupled_paths_256, monkeypatch,
                                           ridge):
        # with the ridge, node 0 (t = 0) has every path in one state
        X = coupled_paths_256.B[:, 0, :-1] if ridge is None \
            else coupled_paths_256.B[:, 0, 1:]
        if ridge is not None:
            monkeypatch.setattr(adjoint, "REGRESSION_RIDGE", ridge)
        rng = np.random.default_rng(11)
        y = np.cos(2.0 * X) + 0.5 * X + rng.standard_normal(X.shape)
        reg = NodeRegression.fit(X)
        c = reg.coeffs(y)
        ref, design = self.explicit_ridge_coeffs(X, y, adjoint.REGRESSION_RIDGE)
        rel = np.linalg.norm(c - ref, axis=1) / np.linalg.norm(ref, axis=1)
        assert rel.max() <= 1e-12
        fitted = np.einsum("pkd,kd->pk", design, ref)
        assert np.abs(reg.predict(c) - fitted).max() <= 1e-12 * np.abs(fitted).max()
        # stacked targets fit in one call, each exactly as it would alone
        y2 = X ** 2 - X
        stacked = reg.coeffs(np.stack([y, y2]))
        assert np.array_equal(stacked, [c, reg.coeffs(y2)])
        assert np.array_equal(reg.predict(stacked),
                              [reg.predict(c), reg.predict(stacked[1])])


class TestEstimateP:
    def test_constant_terminal_gradient(self, coupled_paths_256):
        # f_x = 0, g_x = c, zero linearization: p(t) = c everywhere
        prob = adjoint_problem(trivial_model(), ControlProcess.constant(0.0),
                               1.0, coupled_paths_256,
                               fx_fn=zero, fu_fn=zero,
                               gx_fn=lambda x: np.full_like(x, 3.25))
        est = estimate_p(prob)
        assert np.allclose(est.p, 3.25, atol=1e-10)

    def test_deterministic_running_gradient(self, coupled_paths_256):
        # f_x = 1, g_x = 0, Phi = Psi = 1: p(t) = T - t exactly
        prob = adjoint_problem(trivial_model(), ControlProcess.constant(0.0),
                               1.0, coupled_paths_256,
                               fx_fn=one, fu_fn=zero,
                               gx_fn=lambda x: np.zeros_like(x))
        est = estimate_p(prob)
        t = coupled_paths_256.grid.nodes
        assert np.allclose(est.p, (1.0 - t)[None, :], atol=1e-10)

    def test_lq_p0_matches_riccati_costate(self, lq_problem, coupled_paths_256):
        # u = 0 exogenous: p solves the linear (Lyapunov) adjoint; at t=0 the
        # state is deterministic, so compare against the analytic value
        spec, prob, est = lq_problem
        lam = 2 * (-1.0) + 0.2 ** 2
        gamma0 = 1.0 * (np.exp(lam) - 1) / lam + 1.0 * np.exp(lam)
        se = est.p_stderr()[0]
        assert abs(est.p[:, 0].mean() - gamma0 * spec.x0) < 3 * se + 2e-3

    def test_terminal_exact(self, lq_problem):
        _, prob, est = lq_problem
        assert np.array_equal(est.p[:, -1], prob.gx_T)

    def test_tower_property(self, lq_problem):
        # regression with intercept: fitted means equal target means per node
        _, _, est = lq_problem
        assert np.allclose(est.p.mean(axis=0), est.p_raw.mean(axis=0),
                           atol=1e-8)


class TestQEstimation:
    def test_no_brownian_sensitivity_gives_zero_q(self, coupled_paths_256):
        # f_x, g_x path-independent and sigma_x = 0: q vanishes
        prob = adjoint_problem(trivial_model(), ControlProcess.constant(0.0),
                               1.0, coupled_paths_256, fx_fn=one, fu_fn=zero,
                               gx_fn=lambda x: np.full_like(x, 2.0),
                               fxx_fn=zero, gxx_fn=lambda x: np.zeros_like(x))
        est = estimate_q_formula(prob, estimate_p(prob))
        assert np.allclose(est.q, 0.0, atol=1e-12)

    def test_formula_needs_linear_model(self, coupled_paths_256):
        model = CoefficientModel(m=1, b=zero, sigma=[lambda t, x, u: np.sin(x)],
                                 gamma=[zero], b_x=zero, b_u=zero,
                                 sigma_x=[lambda t, x, u: np.cos(x)], sigma_u=[zero],
                                 gamma_x=[zero], gamma_u=[zero])
        prob = adjoint_problem(model, ControlProcess.constant(0.0), 1.0,
                               coupled_paths_256, fx_fn=one, fu_fn=zero,
                               gx_fn=lambda x: x, fxx_fn=zero,
                               gxx_fn=lambda x: np.ones_like(x))
        with pytest.raises(UnsupportedModelError):
            estimate_q_formula(prob, estimate_p(prob))

    def test_formula_matches_bump_on_brownian_fixture(self, lq_problem):
        _, prob, est = lq_problem
        qb = estimate_q_bump(prob, est)
        n = est.p.shape[0]
        for k in range(0, prob.paths.grid.n_steps, 16):
            mf = est.q[0][:, k].mean()
            mb = np.nanmean(qb.q[0, :, k])
            se_f = est.q_raw[0][:, k].std(ddof=1) / np.sqrt(n)
            z = abs(mf - mb) / np.hypot(se_f, qb.mean_stderr[0, k])
            assert z <= 3.5, f"node {k}: z={z:.2f}"

    def test_bump_h_refinement_stable(self, lq_problem):
        _, prob, est = lq_problem
        h = 1e-3 * np.sqrt(prob.paths.grid.dt)
        qa = estimate_q_bump(prob, est, h=h)
        qb = estimate_q_bump(prob, est, h=h / 2)
        k = prob.paths.grid.n_steps // 2
        se = np.hypot(qa.mean_stderr[0, k], qb.mean_stderr[0, k])
        assert abs(np.nanmean(qa.q[0, :, k]) - np.nanmean(qb.q[0, :, k])) \
            <= max(3 * se, 1e-10)

    def test_bump_blocks_leave_values_unchanged(self, lq_problem, monkeypatch):
        _, prob, est = lq_problem
        ref = estimate_q_bump(prob, est)
        monkeypatch.setattr(adjoint, "BUMP_BLOCK_NODES", 1)
        single = estimate_q_bump(prob, est)
        assert np.array_equal(single.q, ref.q, equal_nan=True)
        assert np.array_equal(single.mean_stderr, ref.mean_stderr, equal_nan=True)

    def test_sigma_x_deterministic(self, lq_problem, coupled_paths_256):
        _, prob, _ = lq_problem
        assert prob.lin.sx.strides[1] == 0  # once per node, not per path
        assert np.array_equal(prob.sigma_x_deterministic(),
                              np.full((1, prob.paths.grid.n_nodes), 0.2))
        nonlinear = CoefficientModel(
            m=1, b=zero, sigma=[lambda t, x, u: np.sin(x)], gamma=[zero],
            b_x=zero, b_u=zero, sigma_x=[lambda t, x, u: np.cos(x)],
            sigma_u=[zero], gamma_x=[zero], gamma_u=[zero])
        prob = adjoint_problem(nonlinear, ControlProcess.constant(0.0), 1.0,
                               coupled_paths_256, fx_fn=one, fu_fn=zero,
                               gx_fn=lambda x: x)
        with pytest.raises(UnsupportedModelError):
            prob.sigma_x_deterministic()

    @pytest.mark.parametrize("varying", ["b_x", "gamma_x"])
    def test_formula_rejects_partials_varying_across_paths(self, varying,
                                                           coupled_paths_256):
        # sigma_x is one value per node; b_x or gamma_x depends on the state
        node = lambda t, x, u: np.full(np.shape(t), 0.2)
        parts = {"b_x": node, "gamma_x": node,
                 varying: lambda t, x, u: 0.1 * np.cos(x)}
        model = CoefficientModel(m=1, b=zero, sigma=[lambda t, x, u: 0.2 * x],
                                 gamma=[zero], b_x=parts["b_x"], b_u=zero,
                                 sigma_x=[node], sigma_u=[zero],
                                 gamma_x=[parts["gamma_x"]], gamma_u=[zero])
        prob = adjoint_problem(model, ControlProcess.constant(0.0), 1.0,
                               coupled_paths_256, fx_fn=one, fu_fn=zero,
                               gx_fn=lambda x: x, fxx_fn=zero,
                               gxx_fn=lambda x: np.ones_like(x))
        with pytest.raises(UnsupportedModelError, match=varying):
            estimate_q_formula(prob, estimate_p(prob))

    def test_formula_accepts_constant_per_path_partials(self, coupled_paths_256):
        # trivial_model returns its zero partials per path, not once per node
        prob = adjoint_problem(trivial_model(), ControlProcess.constant(0.0),
                               1.0, coupled_paths_256, fx_fn=one, fu_fn=zero,
                               gx_fn=lambda x: x, fxx_fn=zero,
                               gxx_fn=lambda x: np.zeros_like(x))
        assert prob.lin.sx.strides[1] != 0
        assert np.array_equal(prob.sigma_x_deterministic(),
                              np.zeros((1, prob.paths.grid.n_nodes)))

    def test_bump_needs_gxx(self, coupled_paths_256):
        prob = adjoint_problem(trivial_model(), ControlProcess.constant(0.0),
                               1.0, coupled_paths_256, fx_fn=zero, fu_fn=zero,
                               gx_fn=lambda x: x)
        with pytest.raises(UnsupportedModelError):
            estimate_q_bump(prob, estimate_p(prob))

    @pytest.mark.parametrize("given", [{}, {"fxx_fn": zero},
                                       {"gxx_fn": lambda x: np.ones_like(x)}])
    def test_formula_needs_fxx_and_gxx(self, given, coupled_paths_256):
        prob = adjoint_problem(trivial_model(), ControlProcess.constant(0.0),
                               1.0, coupled_paths_256, fx_fn=zero, fu_fn=zero,
                               gx_fn=lambda x: x, **given)
        with pytest.raises(UnsupportedModelError, match="f_xx and g_xx"):
            estimate_q_formula(prob, estimate_p(prob))

    def test_bump_zero_for_constant_p(self, coupled_paths_256):
        prob = adjoint_problem(trivial_model(), ControlProcess.constant(0.0),
                               1.0, coupled_paths_256, fx_fn=zero, fu_fn=zero,
                               gx_fn=lambda x: np.full_like(x, 3.0),
                               fxx_fn=zero, gxx_fn=lambda x: np.zeros_like(x))
        est = estimate_q_formula(prob, estimate_p(prob))
        qb = estimate_q_bump(prob, est)
        assert np.nanmax(np.abs(qb.q)) < 1e-10


class TestPair:
    """(Phi, Psi) of one control serve another when nothing in them moves."""

    def test_pair_equals_fresh_at_nonzero_control(self, coupled_paths_256):
        paths = coupled_paths_256
        spec = LqSpec(A=lambda t: -1.0 + 0.5 * t, A_tilde=1.0,
                      M=lambda t: 0.2 + 0.1 * np.sin(2 * t), M_tilde=0.3, N=0.3)
        model = lq_model(spec)
        u0 = ControlProcess.from_values(np.zeros((paths.n_paths, paths.grid.n_nodes)))
        pair = lq_adjoint_problem(spec, model, u0, paths).pair
        rng = np.random.default_rng(3)
        u = ControlProcess.from_values(
            0.4 * np.tanh(paths.B[:, 0, :]) + 0.1 * rng.standard_normal(
                (paths.n_paths, paths.grid.n_nodes)))
        reused = lq_adjoint_problem(spec, model, u, paths, pair)
        fresh = lq_adjoint_problem(spec, model, u, paths)
        # taken as given, not rebuilt
        assert all(a is b for a, b in zip(reused.pair, pair))
        assert np.array_equal(reused.phi.X, fresh.phi.X)
        assert np.array_equal(reused.psi.X, fresh.psi.X)
        est_r = estimate_q_formula(reused, estimate_p(reused))
        est_f = estimate_q_formula(fresh, estimate_p(fresh))
        # q's payoff S2 is formed from the pair: the raw targets agree too
        assert np.array_equal(est_r.q_raw, est_f.q_raw)
        assert np.array_equal(est_r.p, est_f.p) and np.array_equal(est_r.q, est_f.q)


class TestResiduals:
    def test_stationarity_rejects_gamma_u(self, coupled_paths_256):
        model = CoefficientModel(m=1, b=zero, sigma=[zero],
                                 gamma=[lambda t, x, u: 0.1 * u], b_x=zero,
                                 b_u=zero, sigma_x=[zero], sigma_u=[zero],
                                 gamma_x=[zero],
                                 gamma_u=[lambda t, x, u: np.full_like(x, 0.1)])
        prob = adjoint_problem(model, ControlProcess.constant(0.0), 1.0,
                               coupled_paths_256, fx_fn=zero, fu_fn=zero,
                               gx_fn=lambda x: x, fxx_fn=zero,
                               gxx_fn=lambda x: np.zeros_like(x))
        est = estimate_q_formula(prob, estimate_p(prob))
        with pytest.raises(UnsupportedRegimeError):
            stationarity_residual(prob, est)

    def test_stationarity_zero_by_construction(self, lq_problem):
        # f_u = -(b_u p + sigma_u q) pathwise: residual identically zero.
        # The problem is built again with that f_u; p_raw and q_raw do not
        # read f_u, so the first problem's estimate serves it
        _, first, est = lq_problem
        fu = -(first.lin.bu * est.p_raw + (first.lin.su * est.q_raw).sum(axis=0))
        dt = first.paths.grid.dt
        prob = dataclasses.replace(
            first, fu_fn=lambda t, x, u: fu[:, np.rint(t / dt).astype(int)])
        rep = stationarity_residual(prob, est)
        assert np.allclose(rep.mean, 0.0, atol=1e-14)

    def test_bsde_zero_for_trivial_model(self, coupled_paths_256):
        prob = adjoint_problem(trivial_model(), ControlProcess.constant(0.0),
                               1.0, coupled_paths_256, fx_fn=zero, fu_fn=zero,
                               gx_fn=lambda x: np.full_like(x, 2.0),
                               fxx_fn=zero, gxx_fn=lambda x: np.zeros_like(x))
        est = estimate_q_formula(prob, estimate_p(prob))
        rep = bsde_residual(prob, est)
        assert np.allclose(rep.mean, 0.0, atol=1e-12)
        assert np.allclose(rep.mean_sq, 0.0, atol=1e-20)

    @staticmethod
    def whole_field_bsde(prob, est):
        """Per-node statistics of the two residual fields built whole."""
        dbh = np.diff(prob.paths.BH, axis=-1)
        fx = sde.evaluate_along([prob.fx_fn], prob.paths.grid.nodes, prob.x.X,
                                prob.u)[0]
        p_term = prob.psi.X[:, -1] * prob.phi.X[:, -1] * prob.gx_T

        def field(p_nodes):
            p_eff = np.concatenate([p_nodes[:, :-1], p_term[:, None]], axis=1)
            r = p_eff[:, 1:] - p_eff[:, :-1] \
                + (prob.lin.bx[:, :-1] * p_nodes[:, :-1]
                   + (prob.lin.sx[:, :, :-1] * est.q[:, :, :-1]).sum(axis=0)
                   + fx[:, :-1]) * prob.paths.grid.dt
            for j in range(prob.m):
                r = r + prob.lin.gx[j, :, :-1] * p_nodes[:, :-1] * dbh[:, j, :] \
                      - est.q[j, :, :-1] * prob.paths.dB[:, j, :]
            return r

        r_hat, r_raw = field(est.p), field(est.p_raw)
        return (r_hat.mean(axis=0),
                r_raw.std(axis=0, ddof=1) / np.sqrt(r_hat.shape[0]),
                (r_hat ** 2).mean(axis=0))

    # 256 steps: widths 5, 15 and 255 leave a 1-step tail to fold
    @pytest.mark.parametrize("width", [2, 5, 15, 64, 100, 255, 256, 1000])
    def test_bsde_step_blocks_match_whole_fields_bitwise(self, width, lq_problem,
                                                         monkeypatch):
        monkeypatch.setattr(sde, "TIME_BLOCK", width)
        _, prob, est = lq_problem
        rep = bsde_residual(prob, est)
        for got, ref in zip((rep.mean, rep.stderr, rep.mean_sq),
                            self.whole_field_bsde(prob, est)):
            assert np.array_equal(got, ref)

    def test_bsde_terminal_identity(self, lq_problem):
        _, prob, est = lq_problem
        assert np.array_equal(est.p[:, -1], prob.gx_T)

    def test_bsde_unbiased_on_lq_fixture(self, lq_problem):
        _, prob, est = lq_problem
        rep = bsde_residual(prob, est)
        assert rep.max_abs_z() < 4.0

    def test_csv_export(self, lq_problem, tmp_path):
        _, prob, est = lq_problem
        rep = bsde_residual(prob, est)
        f = tmp_path / "resid.csv"
        rep.to_csv(f)
        header = f.read_text().splitlines()[0]
        assert header == "node,t,mean,stderr,mean_sq"
        est.to_csv(tmp_path / "adj.csv")
        assert (tmp_path / "adj.csv").read_text().splitlines()[0] == \
            "node,t,p_mean,p_stderr,q_mean,q_stderr"
