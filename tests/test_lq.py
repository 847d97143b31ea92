"""LQ solver end to end: cost, Riccati oracle, Picard fixed point, optimality."""

import dataclasses
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import quad

from fbmcontrol import adjoint, lq, sde
from fbmcontrol.adjoint import (bsde_residual, estimate_p, estimate_q_formula,
                                stationarity_residual)
from fbmcontrol.cli import COEF_CATALOG
from fbmcontrol.errors import DomainError, UnsupportedModelError
from fbmcontrol.fbm import TimeGrid, fbm_from_kernel, generate_bm
from fbmcontrol.lq import (ANDERSON_DEPTH, RICCATI_STEPS, AndersonMixer,
                           LqSpec, PicardOptions, convexity_check,
                           lq_adjoint_problem, lq_cost, lq_model,
                           lq_picard_solve, optimality_sweep,
                           random_adapted_directions, riccati_oracle)
from fbmcontrol.sde import ControlProcess, Linearization, euler_mixed, linearize
from fbmcontrol.verify import (_lq_linearization, riccati_agreement,
                               stationarity)

N_PATHS = 6000
N_STEPS = 128


@pytest.fixture(scope="module")
def paths():
    return fbm_from_kernel(generate_bm(TimeGrid(1.0, N_STEPS), 1, N_PATHS,
                                       seed=4242), 0.75)


@pytest.fixture(scope="module")
def paths_m2():
    return fbm_from_kernel(generate_bm(TimeGrid(1.0, N_STEPS), 2, N_PATHS,
                                       seed=4242), 0.75)


def brownian_spec():
    return LqSpec(A=-1.0, A_tilde=1.0, M=0.2, M_tilde=0.0, N=0.0)


def mixed_spec():
    return LqSpec(A=-1.0, A_tilde=1.0, M=0.2, M_tilde=0.0, N=0.3)


@pytest.fixture(scope="module")
def solved(paths):
    return lq_picard_solve(brownian_spec(), paths,
                           PicardOptions(tol=1e-5, max_iter=30))


@pytest.fixture(scope="module")
def solved_mixed(paths):
    return lq_picard_solve(mixed_spec(), paths,
                           PicardOptions(tol=1e-5, max_iter=30))


class TestSpecValidation:
    def test_negative_q_rejected(self, paths):
        with pytest.raises(DomainError):
            LqSpec(Q=-0.5).validate_on(paths.grid)

    def test_zero_r_rejected(self, paths):
        with pytest.raises(DomainError):
            LqSpec(R=0.0).validate_on(paths.grid)

    def test_nonpositive_g_rejected(self, paths):
        with pytest.raises(DomainError):
            LqSpec(G=0.0).validate_on(paths.grid)

    def test_time_dependent_coefficients_accepted(self, paths):
        spec = LqSpec(Q=lambda t: 1 + t, R=lambda t: 0.5 + 0.1 * np.sin(t))
        assert spec.validate_on(paths.grid) > 0


class TestLqModel:
    def test_partials_stored_once_per_node(self, paths):
        spec = LqSpec(A=lambda t: -1.0 + 0.5 * t, A_tilde=1.0, M=0.2,
                      M_tilde=0.3, N=0.3)
        model = lq_model(spec)
        u = ControlProcess.constant(0.1)
        x = euler_mixed(model, u, spec.x0, paths)
        lin = linearize(model, x, u)
        t = paths.grid.nodes
        assert lin.bx.shape == lin.bu.shape == x.X.shape
        assert lin.bx.strides[0] == lin.bu.strides[0] == 0
        for arr in (lin.sx, lin.su, lin.gx, lin.gu):
            assert arr.shape == (1, *x.X.shape) and arr.strides[1] == 0
        assert np.array_equal(lin.bx[0], -1.0 + 0.5 * t)
        assert np.all(lin.sx == 0.2) and np.all(lin.su == 0.3)
        assert np.all(lin.gx == 0.3) and np.all(lin.gu == 0.0)

    @pytest.mark.parametrize("m", [1, 2])
    def test_only_the_wired_slots_are_nonzero(self, m):
        # sigma, sigma_x, sigma_u ride driver m - 1, gamma and gamma_x driver 0
        model = lq_model(LqSpec(A=-1.0, A_tilde=1.0, M=0.2, M_tilde=0.3,
                                N=0.3), m)
        t = np.linspace(0.0, 1.0, 9)
        x, u = np.full((4, 9), 2.0), np.full((4, 9), 0.5)
        wired = {("sigma", m - 1), ("sigma_x", m - 1), ("sigma_u", m - 1),
                 ("gamma", 0), ("gamma_x", 0)}
        for name in ("sigma", "sigma_x", "sigma_u", "gamma", "gamma_x",
                     "gamma_u"):
            fns = getattr(model, name)
            assert len(fns) == m
            for j, fn in enumerate(fns):
                val = fn(t, x, u)
                if (name, j) in wired:
                    assert np.all(val != 0.0)
                else:
                    assert val.shape == t.shape and np.all(val == 0.0)

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("control", ["zero", "random"])
    def test_linearization_needs_no_state(self, small_paths, m, control):
        # the refinement checks linearize on a zero state with no Euler run
        spec = LqSpec(A=lambda t: -1.0 + 0.5 * t, A_tilde=0.0,
                      M=lambda t: 0.2 + 0.1 * np.sin(3 * t), M_tilde=0.3,
                      N=lambda t: 0.3 - 0.1 * t)
        paths = small_paths[m]
        model = lq_model(spec, m)
        u = ControlProcess.constant(0.0) if control == "zero" else \
            ControlProcess.from_values(np.random.default_rng(4).standard_normal(
                (paths.n_paths, paths.grid.n_nodes)))
        want = linearize(model, euler_mixed(model, u, spec.x0, paths), u)
        got = _lq_linearization(model, paths)
        for field in dataclasses.fields(Linearization):
            a, b = getattr(got, field.name), getattr(want, field.name)
            assert a.shape == b.shape and a.dtype == b.dtype
            assert np.ascontiguousarray(a).tobytes() == \
                np.ascontiguousarray(b).tobytes(), field.name


class TestLqCost:
    def test_pure_terminal_cost(self, paths):
        spec = LqSpec(A=0.0, A_tilde=0.0, M=0.0, M_tilde=0.0, N=0.0, Q=0.0,
                      G=2.0, x0=1.5)
        est = lq_cost(spec, ControlProcess.constant(0.0), paths)
        assert est.J == pytest.approx(0.5 * 2.0 * 1.5 ** 2)
        assert est.stderr == 0.0

    def test_nonnegative(self, paths, solved):
        assert solved.J >= 0.0
        assert np.all(lq_cost(brownian_spec(), solved.u, paths,
                              x=solved.problem.x).per_path >= 0.0)

    def test_deterministic_ode_oracle(self, paths):
        # M = N = 0, u = c: X solves a linear ODE; J by closed-form quadrature
        a, at, c = -0.8, 0.5, 0.3
        spec = LqSpec(A=a, A_tilde=at, M=0.0, M_tilde=0.0, N=0.0, Q=1.0,
                      R=2.0, G=1.0, x0=1.0)
        est = lq_cost(spec, ControlProcess.constant(c), paths)

        def x_exact(t):
            return np.exp(a * t) * 1.0 + at * c * (np.exp(a * t) - 1) / a

        run, _ = quad(lambda t: x_exact(t) ** 2 + 2.0 * c ** 2, 0, 1)
        expected = 0.5 * (run + x_exact(1.0) ** 2)
        assert est.J == pytest.approx(expected, rel=2e-2)  # O(dt) Euler bias


class TestRiccatiOracle:
    def test_zero_cost_weights(self, paths):
        spec = LqSpec(Q=0.0, G=1e-12, M_tilde=0.0, N=0.0)
        # G must be positive; use a tiny value and expect ~0 throughout
        sol = riccati_oracle(spec, paths.grid)
        assert np.all(np.abs(sol.P) < 1e-10)
        assert np.all(np.abs(sol.K) < 1e-10)
        assert sol.J == pytest.approx(0.0, abs=1e-12)

    def test_requires_n_zero(self, paths):
        with pytest.raises(UnsupportedModelError):
            riccati_oracle(mixed_spec(), paths.grid)

    def test_dual_implementation_deterministic_lqr(self, paths):
        # independent textbook Riccati right-hand side, same RK4 driver
        spec = LqSpec(A=-0.5, A_tilde=1.0, M=0.0, M_tilde=0.0, N=0.0,
                      Q=2.0, R=1.0, G=0.5)
        sol = riccati_oracle(spec, paths.grid)

        def textbook_rhs(p):
            return -(2 * (-0.5) * p + 2.0 - 1.0 ** 2 * p ** 2 / 1.0)

        n = RICCATI_STEPS
        h = -1.0 / n
        P = np.empty(n + 1)
        P[-1] = 0.5
        for i in range(n, 0, -1):
            p0 = P[i]
            k1 = textbook_rhs(p0)
            k2 = textbook_rhs(p0 + h / 2 * k1)
            k3 = textbook_rhs(p0 + h / 2 * k2)
            k4 = textbook_rhs(p0 + h * k3)
            P[i - 1] = p0 + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        assert np.max(np.abs(P - sol.P)) < 1e-8

    def test_oracle_dominates_suboptimal_controls(self, paths):
        spec = brownian_spec()
        ric = riccati_oracle(spec, paths.grid)
        for c in (0.0, -1.0, 0.5):
            sub = lq_cost(spec, ControlProcess.constant(c), paths)
            assert ric.J <= sub.J + 3 * sub.stderr


class TestPicardSolve:
    def test_no_actuation_gives_zero_control(self, paths):
        spec = LqSpec(A=-1.0, A_tilde=0.0, M=0.2, M_tilde=0.0, N=0.0)
        sol = lq_picard_solve(spec, paths, PicardOptions(max_iter=5))
        assert sol.converged and len(sol.iterations) == 1
        assert np.all(sol.u.values == 0.0)

    def test_riccati_agreement(self, paths, solved):
        ric = riccati_oracle(brownian_spec(), paths.grid)
        assert solved.converged
        assert riccati_agreement(solved.J, solved.J_stderr, ric.J).passed

    def test_p0_matches_riccati_costate(self, paths, solved):
        # p(0) = P(0) x0 at the optimum, within MC noise + O(dt) allowance
        ric = riccati_oracle(brownian_spec(), paths.grid)
        p0 = solved.estimate.p[:, 0].mean()
        se = solved.estimate.p_stderr()[0]
        assert abs(p0 - ric.P[0] * 1.0) <= 3 * se + 0.02 * ric.P[0]

    def test_cost_non_increasing(self, solved):
        js = [row["J"] for row in solved.iterations]
        ses = [row["J_stderr"] for row in solved.iterations]
        for i in range(len(js) - 1):
            assert js[i + 1] <= js[i] + 3 * ses[i]

    def test_fixed_point_extra_step(self, paths, solved):
        # one extra sweep from the returned control moves it by < tol
        spec = brownian_spec()
        f = spec.fns()
        t = paths.grid.nodes
        r_nodes = np.array([f["R"](ti) for ti in t])
        at_nodes = np.array([f["A_tilde"](ti) for ti in t])
        target = -at_nodes * solved.estimate.p / r_nodes
        du = 0.5 * (target - solved.u.values)  # theta = 0.5 damped step
        change = np.sqrt((du[:, :-1] ** 2).sum(axis=1).mean() * paths.grid.dt)
        assert change < 1e-5

    def test_uniqueness_two_initializations(self, paths, solved):
        other = lq_picard_solve(brownian_spec(), paths,
                                PicardOptions(tol=1e-5, max_iter=30, u0=1.0))
        assert other.converged
        assert solved.control_l2_distance(other) < 5 * 1e-5

    def test_non_convergence_flagged(self, paths):
        sol = lq_picard_solve(brownian_spec(), paths,
                              PicardOptions(tol=1e-12, max_iter=2))
        assert not sol.converged

    def test_stationarity_at_brownian_optimum(self, solved):
        rep = stationarity_residual(solved.problem, solved.estimate)
        assert stationarity(rep).passed

    def test_stationarity_at_mixed_optimum(self, solved_mixed):
        assert solved_mixed.converged
        rep = stationarity_residual(solved_mixed.problem, solved_mixed.estimate)
        assert stationarity(rep).passed

    def test_fundamental_pair_built_once_per_solve(self, small_paths,
                                                   monkeypatch):
        calls = {"fundamental_phi": 0, "fundamental_psi": 0}
        for name in calls:
            def counted(*args, _fn=getattr(adjoint, name), _name=name):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(adjoint, name, counted)
        spec = LqSpec(A=-1.0, A_tilde=1.0, M=0.2, M_tilde=0.3, N=0.3)
        sol = lq_picard_solve(spec, small_paths[1], PicardOptions(tol=1e-6))
        assert sol.converged and len(sol.iterations) > 2
        assert calls == {"fundamental_phi": 1, "fundamental_psi": 1}

    @pytest.mark.parametrize("m_tilde,nonzero_nodes", [
        (0.0, 0), ("catalog_zero", 0), (0.3, 33), ("one_node", 1)])
    def test_q_estimated_only_where_it_moves_the_control(
            self, small_paths, monkeypatch, m_tilde, nonzero_nodes):
        paths = small_paths[1]
        if m_tilde == "catalog_zero":  # a sin coefficient, 0 at every node
            m_tilde = COEF_CATALOG["sin"][1]({"a": 0.0, "b": 0.0,
                                              "omega": 2.0, "phase": 0.5})
        elif m_tilde == "one_node":
            t_k = paths.grid.nodes[paths.grid.n_steps // 2]
            m_tilde = lambda t: np.where(t == t_k, 0.3, 0.0)
        spec = LqSpec(A=-1.0, A_tilde=1.0, M=0.2, M_tilde=m_tilde, N=0.3)
        mt = lq._node_values(spec.fns()["M_tilde"], paths.grid.nodes)
        assert np.count_nonzero(mt) == nonzero_nodes
        calls = []

        def counted(*args, _fn=lq.estimate_q_formula):
            calls.append(args)
            return _fn(*args)

        monkeypatch.setattr(lq, "estimate_q_formula", counted)
        sol = lq_picard_solve(spec, paths, PicardOptions(tol=1e-6))
        assert sol.converged and len(sol.iterations) > 2
        # one sweep per logged step, plus the sweep at the returned control
        sweeps = len(sol.iterations) + 1
        assert len(calls) == (sweeps if nonzero_nodes else 1)
        assert calls[-1][1] is sol.estimate and sol.estimate.q is not None

    @pytest.mark.parametrize("max_iter,m_tilde", [(50, 0.3), (2, 0.3),
                                                  (50, 0.0), (2, 0.0)],
                             ids=["50", "2", "50-M_tilde_0", "2-M_tilde_0"])
    def test_returned_estimates_are_at_the_returned_control(self, small_paths,
                                                             max_iter, m_tilde):
        spec = LqSpec(A=-1.0, A_tilde=1.0, M=0.2, M_tilde=m_tilde, N=0.3)
        paths = small_paths[1]
        sol = lq_picard_solve(spec, paths,
                              PicardOptions(tol=1e-6, max_iter=max_iter))
        assert sol.converged == (max_iter == 50)
        if not sol.converged:
            assert len(sol.iterations) == max_iter
        x = euler_mixed(lq_model(spec, paths.m), sol.u, spec.x0, paths)
        assert np.array_equal(sol.problem.x.X, x.X)
        assert sol.J == lq_cost(spec, sol.u, paths).J
        # p and q for every driver, as a fresh estimate there gives them
        prob = lq_adjoint_problem(spec, lq_model(spec, paths.m), sol.u, paths)
        est = estimate_q_formula(prob, estimate_p(prob))
        for name in ("p", "p_raw", "q", "q_raw"):
            assert np.array_equal(getattr(sol.estimate, name),
                                  getattr(est, name))

    def test_perturbed_control_detected(self, paths, solved_mixed):
        # 20% perturbation: residual exceeds 5 stderr somewhere
        from fbmcontrol.lq import lq_adjoint_problem
        from fbmcontrol.adjoint import estimate_p, estimate_q_formula
        spec = mixed_spec()
        u_bad = ControlProcess.from_values(1.2 * solved_mixed.u.values)
        prob = lq_adjoint_problem(spec, lq_model(spec), u_bad, solved_mixed.problem.paths)
        est = estimate_q_formula(prob, estimate_p(prob))
        rep = stationarity_residual(prob, est)
        assert rep.max_abs_z() > 5.0


class TestSolveGates:
    def test_riccati_budget(self):
        # budget 3 * 0.01 + 0.02 * 2.0 = 0.07
        assert riccati_agreement(2.0, 0.01, 2.06).passed
        check = riccati_agreement(2.0, 0.01, 1.92)
        assert not check.passed
        assert check.value == pytest.approx(0.08)
        assert check.tolerance == pytest.approx(0.07)

    @pytest.mark.parametrize("z,passed", [(2.9, True), (3.0, True),
                                          (3.1, False), (np.nan, False)])
    def test_stationarity_tolerance(self, z, passed):
        check = stationarity(SimpleNamespace(max_abs_z=lambda: z))
        assert check.passed is passed and check.tolerance == 3.0


def damped_fixed_point(spec, paths, theta=0.5, tol=1e-12, max_iter=500):
    """The plain damped Picard iteration, written out: (u, p, q, J).

    The control acts through the Brownian diffusion, on driver m - 1."""
    model = lq_model(spec, paths.m)
    f = spec.fns()
    t = paths.grid.nodes
    r, at, mt = (np.broadcast_to(np.asarray(f[k](t), dtype=float), t.shape)
                 for k in ("R", "A_tilde", "M_tilde"))
    u = np.zeros((paths.n_paths, paths.grid.n_nodes))
    for _ in range(max_iter):
        prob = lq_adjoint_problem(spec, model, ControlProcess.from_values(u), paths)
        est = estimate_q_formula(prob, estimate_p(prob))
        du = theta * (-(at * est.p + mt * est.q[paths.m - 1]) / r - u)
        u = u + du
        if np.sqrt((du[:, :-1] ** 2).sum(axis=1).mean() * paths.grid.dt) < tol:
            break
    else:
        raise AssertionError("damped iteration did not converge")
    prob = lq_adjoint_problem(spec, model, ControlProcess.from_values(u), paths)
    est = estimate_q_formula(prob, estimate_p(prob))
    return u, est.p, est.q, lq_cost(spec, ControlProcess.from_values(u), paths,
                                    x=prob.x).J


def rel_diff(a, b) -> float:
    return float(np.linalg.norm(np.subtract(a, b)) / np.linalg.norm(b))


class TestAndersonMixing:
    def test_stalled_residual_takes_damped_step(self):
        rng = np.random.default_rng(8)
        u, f = rng.standard_normal((2, 50, 9))
        mixer = AndersonMixer(0.5)
        u1 = mixer.step(u, f.copy())
        assert np.array_equal(u1, u + 0.5 * f)  # no history yet
        # the same residual again: the difference of f is zero
        u2 = mixer.step(u1, f.copy())
        assert np.all(mixer.df[0] == 0) and mixer.coefficients(f) is None
        assert np.array_equal(u2, u1 + 0.5 * f)

    def test_collinear_history_takes_damped_step(self):
        rng = np.random.default_rng(9)
        u, d = rng.standard_normal((2, 50, 9))
        mixer = AndersonMixer(0.5)
        for k in range(2):
            u = mixer.step(u, (k + 1.0) * d)
        assert len(mixer.df) == 1
        f = 3.0 * d  # a second difference parallel to the first
        damped = u + 0.5 * f
        assert np.array_equal(mixer.step(u, f), damped)

    def test_constant_target_reached_in_two_steps(self):
        # f(u) = c - u is linear: one difference spans it exactly
        rng = np.random.default_rng(10)
        c, u = rng.standard_normal((2, 40, 7))
        mixer = AndersonMixer(0.5)
        u = mixer.step(u, c - u)
        u = mixer.step(u, c - u)
        assert np.allclose(u, c, rtol=0, atol=1e-14)

    def test_history_holds_two_depth_arrays(self):
        rng = np.random.default_rng(11)
        u = rng.standard_normal((30, 5))
        mixer = AndersonMixer(0.5)
        for _ in range(6):
            u = mixer.step(u, rng.standard_normal((30, 5)))
            held = len(mixer.dx) + len(mixer.df) + 2 * (mixer.last is not None)
            assert held <= 2 * ANDERSON_DEPTH

    @pytest.mark.parametrize("chunk", [1, 7, 64])
    def test_row_blocks_match_whole_arrays_bitwise(self, chunk, monkeypatch):
        # the mixed step and the control norm, ROW_CHUNK paths at a time
        # against whole arrays (one block of every path)
        rng = np.random.default_rng(12)
        us, fs = rng.standard_normal((2, 5, 150, 9))

        def steps():
            mixer = AndersonMixer(0.5)
            return [mixer.step(u, f.copy()) for u, f in zip(us, fs)]

        monkeypatch.setattr(sde, "ROW_CHUNK", 10 ** 6)
        want = steps()
        assert not np.array_equal(want[-1], us[-1] + 0.5 * fs[-1])  # mixed
        monkeypatch.setattr(sde, "ROW_CHUNK", chunk)
        assert all(np.array_equal(a, b) for a, b in zip(steps(), want))
        assert [lq._mean_l2(f, 0.01) for f in fs] == \
            [float(np.sqrt((f[:, :-1] ** 2).sum(axis=1).mean() * 0.01))
             for f in fs]

    def test_no_actuation_from_nonzero_start(self, paths):
        # target is 0 for every control: the second sweep's Anderson step
        # lands on it, the third sees two parallel differences of f
        spec = LqSpec(A=-1.0, A_tilde=0.0, M=0.2, M_tilde=0.0, N=0.0)
        sol = lq_picard_solve(spec, paths, PicardOptions(tol=1e-8, u0=1.0))
        assert sol.converged and len(sol.iterations) == 3
        assert np.all(sol.u.values == 0.0)


@pytest.fixture(scope="module")
def small_paths():
    return {m: fbm_from_kernel(generate_bm(TimeGrid(1.0, 32), m, 1000,
                                           seed=77), 0.75) for m in (1, 2)}


@pytest.mark.parametrize("spec,m", [
    (LqSpec(A=-1.0, A_tilde=1.0, M=0.2, M_tilde=0.3, N=0.3), 1),
    (LqSpec(A=lambda t: -1.0 + 0.5 * t, A_tilde=lambda t: 1.0 + 0.3 * np.sin(2 * t),
            M=lambda t: 0.2 + 0.1 * np.sin(3 * t + 0.5), M_tilde=0.2,
            N=lambda t: 0.3 - 0.1 * t, Q=lambda t: 1.0 + t,
            R=lambda t: 1.0 + 0.5 * np.cos(t)), 1),
    (LqSpec(A=-1.0, A_tilde=1.0, M=0.2, M_tilde=0.3, N=0.3), 2),
    (LqSpec(A=-1.0, A_tilde=1.0, M=0.2, M_tilde=0.0, N=0.3), 2),
], ids=["mixed_M_tilde", "sin_affine", "independent_bm", "no_q_steering"])
def test_anderson_reaches_the_damped_fixed_point(small_paths, spec, m):
    paths = small_paths[m]
    u, p, q, J = damped_fixed_point(spec, paths)
    sol = lq_picard_solve(spec, paths, PicardOptions(tol=1e-12, max_iter=200))
    assert sol.converged
    for got, want in ((sol.u.values, u), (sol.estimate.p, p),
                      (sol.estimate.q, q), (sol.J, J)):
        assert rel_diff(got, want) <= 1e-10


class TestOptimalitySweep:
    def test_zero_direction_exact_zero(self, paths, solved):
        rows = optimality_sweep(brownian_spec(), solved.u,
                                [ControlProcess.constant(0.0)], [0.1], paths)
        assert rows[0].dJ == 0.0 and rows[0].deriv == 0.0

    def test_random_directions_pass(self, paths, solved):
        directions = random_adapted_directions(paths, 8, seed=99)
        rows = optimality_sweep(brownian_spec(), solved.u, directions,
                                [0.05, 0.1, 0.2], paths)
        assert len(rows) == 24
        for r in rows:
            assert r.diff_ok(), f"dir {r.direction} eps {r.eps}: dJ={r.dJ}"
            assert r.deriv_ok(), f"dir {r.direction} eps {r.eps}: deriv={r.deriv}"

    def test_given_state_is_used_and_changes_nothing(self, paths, solved,
                                                    monkeypatch):
        spec = brownian_spec()
        directions = random_adapted_directions(paths, 2, seed=99)
        want = optimality_sweep(spec, solved.u, directions, [0.1], paths)
        runs = count_euler_runs(monkeypatch)
        got = optimality_sweep(spec, solved.u, directions, [0.1], paths,
                               solved.problem.x)
        assert got == want and runs == [0]

    def test_wrong_control_detected(self, paths, solved):
        bad = ControlProcess.from_values(solved.u.values + 1.0)
        directions = random_adapted_directions(paths, 8, seed=99)
        rows = optimality_sweep(brownian_spec(), bad, directions, [0.1], paths)
        assert any(abs(r.deriv) > 5 * r.deriv_stderr for r in rows)


def brute_force_sweep(spec, u_star, directions, eps_list, paths):
    """The sweep by cost differences alone: one Euler run per u* +- eps v.

    Rows are (dJ, dJ_stderr, deriv, deriv_stderr).
    """
    x_star = euler_mixed(lq_model(spec, paths.m), u_star, spec.x0, paths)
    u_mat = u_star.materialize(x_star)

    def cost(u):
        return lq_cost(spec, ControlProcess.from_values(u), paths).per_path

    def mean_and_stderr(a):
        return [a.mean(), a.std(ddof=1) / np.sqrt(len(a))]

    base = cost(u_mat)
    rows = []
    for v in directions:
        v_mat = v.materialize(x_star)
        for eps in eps_list:
            cp, cm = cost(u_mat + eps * v_mat), cost(u_mat - eps * v_mat)
            rows.append(mean_and_stderr(cp - base)
                        + mean_and_stderr((cp - cm) / (2 * eps)))
    return np.array(rows)


@pytest.mark.parametrize("spec,m", [
    (LqSpec(A=-1.0, A_tilde=1.0, M=0.2, M_tilde=0.3, N=0.3), 1),
    (LqSpec(A=lambda t: -1.0 + 0.5 * np.sin(3 * t), A_tilde=1.0, M=0.2,
            M_tilde=0.1, N=0.3, Q=lambda t: 1.0 + t,
            R=lambda t: 1.0 + 0.5 * np.sin(2 * t + 0.3), G=0.7), 1),
    (LqSpec(A=-1.0, A_tilde=1.0, M=0.2, M_tilde=0.3, N=0.3), 2),
    (LqSpec(A=-1.0, A_tilde=1.0, M=0.2, M_tilde=0.0, N=0.3), 2),
], ids=["mixed_M_tilde", "sin_affine", "independent_bm", "no_q_steering"])
def test_sweep_matches_brute_force_euler(small_paths, spec, m):
    paths = small_paths[m]
    # an adapted, non-optimal u*, so that no column is near zero
    u_star = ControlProcess.from_values(0.5 * paths.B[:, 0] - 0.3)
    directions = [*random_adapted_directions(paths, 2, seed=5),
                  ControlProcess.constant(1.0)]
    eps_list = [0.05, 0.1, 0.2]
    rows = optimality_sweep(spec, u_star, directions, eps_list, paths)
    want = brute_force_sweep(spec, u_star, directions, eps_list, paths)
    got = np.array([[r.dJ, r.dJ_stderr, r.deriv, r.deriv_stderr] for r in rows])
    assert [(r.direction, r.eps) for r in rows] == [
        (i, eps) for i in range(len(directions)) for eps in eps_list]
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))


def count_euler_runs(monkeypatch) -> list:
    """Count lq's Euler runs from now on, in a one-element list."""
    runs = [0]

    def counted(*args, _fn=lq.euler_mixed):
        runs[0] += 1
        return _fn(*args)
    monkeypatch.setattr(lq, "euler_mixed", counted)
    return runs


class TestConvexity:
    def test_given_state_is_used_and_changes_nothing(self, paths, solved,
                                                    monkeypatch):
        u2 = ControlProcess.from_values(solved.u.values + 0.5)
        want = convexity_check(brownian_spec(), solved.u, u2, paths)
        runs = count_euler_runs(monkeypatch)
        got = convexity_check(brownian_spec(), solved.u, u2, paths,
                              solved.problem.x)
        assert got == want and runs == [2]

    def test_equal_controls(self, paths, solved):
        rep = convexity_check(brownian_spec(), solved.u, solved.u, paths)
        assert rep.margin_mean == pytest.approx(0.0, abs=1e-12)
        assert rep.J1 == rep.J2 == rep.J_mid

    def test_random_pair_margin_holds(self, paths):
        rng = np.random.default_rng(17)
        shape = (paths.n_paths, paths.grid.n_nodes)
        u1 = ControlProcess.from_values(rng.standard_normal(shape) * 0.5)
        u2 = ControlProcess.from_values(rng.standard_normal(shape) * 0.5)
        rep = convexity_check(brownian_spec(), u1, u2, paths)
        assert rep.holds()

    def test_state_midpoint_linearity(self, paths):
        u1 = ControlProcess.constant(1.0)
        u2 = ControlProcess.constant(-0.5)
        rep = convexity_check(mixed_spec(), u1, u2, paths)
        assert rep.state_midpoint_gap < 1e-12

    def test_path_dependent_u2_costs_its_own_state(self, paths):
        # u2 = -0.8 X along an earlier state, so u2 differs path by path:
        # J2 is the cost of u2 on its own state, not along u1's
        spec = mixed_spec()
        x_prev = euler_mixed(lq_model(spec), ControlProcess.constant(0.3),
                             spec.x0, paths)
        u2 = ControlProcess.from_values(-0.8 * x_prev.X)
        rep = convexity_check(spec, ControlProcess.constant(0.0), u2, paths)
        assert rep.J2 == lq_cost(spec, u2, paths).J


class TestIndependentDriverScenario:
    @pytest.mark.parametrize("m", [0, 3])
    def test_other_driver_counts_rejected(self, m):
        with pytest.raises(DomainError, match=f"m = {m}"):
            lq_model(mixed_spec(), m)

    def test_reduction_to_single_driver(self, paths, paths_m2):
        # sigma == 0: the stacked model reproduces the direct one bit for bit
        spec = LqSpec(A=-1.0, A_tilde=1.0, M=0.0, M_tilde=0.0, N=0.3)
        u = ControlProcess.constant(0.2)
        x_direct = euler_mixed(lq_model(spec, 1), u, 1.0, paths)
        x_stacked = euler_mixed(lq_model(spec, 2), u, 1.0, paths_m2)
        assert np.array_equal(x_direct.X, x_stacked.X)

    def test_independent_drivers_uncorrelated(self, paths_m2):
        # corr(B^H of driver 1, W = driver 2) ~ 0
        bh = paths_m2.BH[:, 0, -1]
        w = paths_m2.B[:, 1, -1]
        r = np.corrcoef(bh, w)[0, 1]
        assert abs(r) < 4.0 / np.sqrt(paths_m2.n_paths)

    def test_stacked_solve_uses_w(self, small_paths):
        # same B on driver 0; on m = 2 the Brownian diffusion rides W instead
        options = PicardOptions(tol=1e-5, max_iter=30)
        one, two = (lq_picard_solve(mixed_spec(), small_paths[m], options)
                    for m in (1, 2))
        assert one.problem.m == 1 and two.problem.m == 2
        assert np.all(two.estimate.q[0] == 0.0)
        assert np.any(two.estimate.q[1] != 0.0)
        assert one.J != two.J

    def test_stacked_solve_stationarity(self, paths_m2):
        sol = lq_picard_solve(mixed_spec(), paths_m2,
                              PicardOptions(tol=1e-5, max_iter=30))
        assert sol.converged
        rep = stationarity_residual(sol.problem, sol.estimate)
        assert stationarity(rep).passed


class TestWorkingMemory:
    """The solve holds each per-path field only while a stage reads it."""

    @staticmethod
    def solve_outputs(spec, paths):
        """u, p, p_raw, q, q_raw, J and both residual reports of one solve."""
        sol = lq_picard_solve(spec, paths, PicardOptions(tol=1e-6))
        assert sol.converged
        est = sol.estimate
        reports = (stationarity_residual(sol.problem, est),
                   bsde_residual(sol.problem, est))
        return [sol.u.values, est.p, est.p_raw, est.q, est.q_raw, sol.J,
                *(a for r in reports for a in (r.mean, r.stderr, r.mean_sq))]

    @pytest.fixture(scope="class")
    def blocks_case(self):
        """200 paths (no multiple of 7 or 64) on 130 steps (blocks of 64, 64
        and a folded 2), time-varying coefficients; M~ 0.3, so q steers
        every sweep, and M~ 0, so q is estimated at the returned control
        alone."""
        cases = {}
        for m_tilde in (0.0, 0.3):
            spec = LqSpec(A=lambda t: -1.0 + 0.5 * t, A_tilde=1.0,
                          M=lambda t: 0.2 + 0.1 * np.sin(3 * t),
                          M_tilde=m_tilde, N=0.3, Q=lambda t: 1.0 + t,
                          R=lambda t: 1.0 + 0.5 * np.cos(t))
            for m in (1, 2):
                paths = fbm_from_kernel(generate_bm(TimeGrid(1.0, 130), m,
                                                    200, seed=31), 0.75)
                with pytest.MonkeyPatch.context() as mp:  # whole arrays
                    mp.setattr(sde, "ROW_CHUNK", 10 ** 6)
                    mp.setattr(sde, "TIME_BLOCK", 10 ** 6)
                    cases[m, m_tilde] = (spec, paths,
                                         self.solve_outputs(spec, paths))
        return cases

    @pytest.mark.parametrize("m,m_tilde", [(1, 0.3), (2, 0.3), (1, 0.0),
                                           (2, 0.0)],
                             ids=["1", "2", "1-M_tilde_0", "2-M_tilde_0"])
    @pytest.mark.parametrize("name,size", [
        ("ROW_CHUNK", 1), ("ROW_CHUNK", 7), ("ROW_CHUNK", 64),
        ("ROW_CHUNK", 1000), ("TIME_BLOCK", 2), ("TIME_BLOCK", 5)])
    def test_blocks_match_whole_arrays_bitwise(self, blocks_case, m, m_tilde,
                                               name, size, monkeypatch):
        spec, paths, want = blocks_case[m, m_tilde]
        monkeypatch.setattr(sde, name, size)
        got = self.solve_outputs(spec, paths)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))

    @staticmethod
    def traced_peak(m_tilde):
        """The traced peak of a 1 000 x 64 solve in path arrays: one Euler
        block spans the whole grid."""
        paths = fbm_from_kernel(generate_bm(TimeGrid(1.0, 64), 1, 1000,
                                            seed=202), 0.75)
        spec = LqSpec(A=-1.0, A_tilde=1.0, M=0.2, M_tilde=m_tilde, N=0.3)
        tracemalloc.start()
        try:
            sol = lq_picard_solve(spec, paths, PicardOptions(tol=1e-5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sol.converged and len(sol.iterations) > ANDERSON_DEPTH
        return peak / (paths.n_paths * paths.grid.n_nodes * 8)

    def test_solve_holds_twelve_and_a_half_path_arrays(self):
        # measured 12.1, in the Euler run of a sweep with a full history:
        # u, Phi, Psi and the Picard history (4) are held while the run's
        # one time block copies its increments, control and states.  With
        # M~ = 0 only the last sweep estimates q, S2 is formed by row
        # blocks, and the history goes before the last sweep; estimating q
        # every sweep, or keeping the history through the last, breaks the
        # bound (the previous design measured 14.3)
        assert self.traced_peak(0.0) <= 12.5

    def test_q_steering_solve_holds_under_fourteen_path_arrays(self):
        # measured 13.5, in estimate_q_formula: q and q_raw of every sweep
        # on top of the arrays above
        assert self.traced_peak(0.3) <= 13.8
