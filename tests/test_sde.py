"""Mixed Euler integration, fundamental pair, variation process, expansions."""

import tracemalloc

import numpy as np
import pytest

from fbmcontrol.errors import BlowupError, DomainError, GridMismatchError
from fbmcontrol.fbm import TimeGrid, coarsen, fbm_from_kernel, generate_bm
from fbmcontrol.lq import LqSpec, lq_model
from fbmcontrol.sde import (BLOWUP_LIMIT, INCREMENT_BLOCK, ROW_CHUNK,
                            TIME_BLOCK, CoefficientModel,
                            ControlProcess, _time_major_increments,
                            alpha_norm_terminal, default_alpha, euler_mixed,
                            evaluate_along, fundamental_phi, fundamental_psi,
                            lemma1_experiment, linearize, variation_direct,
                            variation_explicit)
from fbmcontrol.verify import nonlinear_lemma_model, phi_psi_refinement


def zero(t, x, u):
    return np.zeros_like(np.asarray(x, dtype=float))


def one(t, x, u):
    return np.ones_like(np.asarray(x, dtype=float))


def const(c):
    return lambda t, x, u: np.full_like(np.asarray(x, dtype=float), c)


def make_model(b=zero, s=zero, g=zero, bx=zero, bu=zero, sx=zero, su=zero,
               gx=zero, gu=zero):
    return CoefficientModel(m=1, b=b, sigma=[s], gamma=[g], b_x=bx, b_u=bu,
                            sigma_x=[sx], sigma_u=[su], gamma_x=[gx],
                            gamma_u=[gu])


def euler_maruyama_reference(b, s, u, x0, paths):
    """Standalone Euler-Maruyama oracle (Brownian part only)."""
    grid = paths.grid
    X = np.empty((paths.n_paths, grid.n_nodes))
    X[:, 0] = x0
    t = grid.nodes
    uv = np.broadcast_to(u.values, X.shape)
    for k in range(grid.n_steps):
        uk = uv[:, k]
        inc = b(t[k], X[:, k], uk) * grid.dt
        inc = inc + s(t[k], X[:, k], uk) * paths.dB[:, 0, k]
        X[:, k + 1] = X[:, k] + inc
    return X


def euler_reference(model, u, x0, paths):
    """Step-by-step mixed Euler recursion on path-major arrays."""
    grid = paths.grid
    dbh = np.diff(paths.BH, axis=-1)
    X = np.empty((paths.n_paths, grid.n_nodes))
    X[:, 0] = x0
    t = grid.nodes
    uv = np.broadcast_to(u.values, X.shape)
    for k in range(grid.n_steps):
        xk, uk = X[:, k], uv[:, k]
        inc = model.b(t[k], xk, uk) * grid.dt
        for j in range(model.m):
            inc = inc + model.sigma[j](t[k], xk, uk) * paths.dB[:, j, k] \
                      + model.gamma[j](t[k], xk, uk) * dbh[:, j, k]
        X[:, k + 1] = xk + inc
    return X


def homogeneous_reference(lin, paths, sign):
    """Step-by-step recursion for Phi (sign +1) or Psi (sign -1).

    Returns the values and the (path, step) where a per-step guard would
    first stop, or None.
    """
    grid = paths.grid
    dbh = np.diff(paths.BH, axis=-1)
    Y = np.empty((paths.n_paths, grid.n_nodes))
    Y[:, 0] = 1.0
    for k in range(grid.n_steps):
        if sign > 0:
            fac = 1.0 + lin.bx[:, k] * grid.dt
        else:
            fac = 1.0 + (-lin.bx[:, k] + (lin.sx[:, :, k] ** 2).sum(axis=0)) * grid.dt
        for j in range(lin.m):
            fac = fac + sign * (lin.sx[j, :, k] * paths.dB[:, j, k]
                                + lin.gx[j, :, k] * dbh[:, j, k])
        Y[:, k + 1] = Y[:, k] * fac
        bad = ~np.isfinite(Y[:, k + 1]) | (np.abs(Y[:, k + 1]) > BLOWUP_LIMIT)
        if bad.any():
            return Y, (int(np.argmax(bad)), k + 1)
    return Y, None


def variation_reference(lin, v, paths):
    """Node-by-node recursion for the variation process on path-major arrays."""
    grid = paths.grid
    dbh = np.diff(paths.BH, axis=-1)
    y = np.zeros((paths.n_paths, grid.n_nodes))
    for k in range(grid.n_steps):
        inc = (lin.bx[:, k] * y[:, k] + lin.bu[:, k] * v[:, k]) * grid.dt
        for j in range(lin.m):
            inc = inc + (lin.sx[j, :, k] * y[:, k] + lin.su[j, :, k] * v[:, k]) * paths.dB[:, j, k] \
                      + (lin.gx[j, :, k] * y[:, k] + lin.gu[j, :, k] * v[:, k]) * dbh[:, j, k]
        y[:, k + 1] = y[:, k] + inc
    return y


class TestCoefficientModel:
    def test_driver_count_enforced(self):
        with pytest.raises(ValueError):
            CoefficientModel(m=2, b=zero, sigma=[zero], gamma=[zero, zero],
                             b_x=zero, b_u=zero, sigma_x=[zero, zero],
                             sigma_u=[zero, zero], gamma_x=[zero, zero],
                             gamma_u=[zero, zero])


class TestControlProcess:
    def test_constant_materializes(self, coupled_paths_256):
        u = ControlProcess.constant(2.0)
        x = euler_mixed(make_model(), u, 0.0, coupled_paths_256)
        uv = u.materialize(x)
        assert np.all(uv == 2.0)
        # one stored value, read as a stride-0 view
        assert u.values.shape == ()
        assert uv.shape == x.X.shape and uv.strides == (0, 0)
        assert not uv.flags.writeable

    def test_prefix_construction_is_adapted(self, coupled_paths_256):
        # callback only ever sees B up to the current node
        seen = []

        def fn(k, t, b_prefix):
            seen.append(b_prefix.shape[-1])
            return b_prefix[:, 0, -1]

        u = ControlProcess.from_prefix(coupled_paths_256, fn)
        assert seen == list(range(1, coupled_paths_256.grid.n_nodes + 1))
        assert np.array_equal(u.values, coupled_paths_256.B[:, 0, :])

    def test_wrong_shape_rejected(self, coupled_paths_256):
        x = euler_mixed(make_model(), ControlProcess.constant(0.0), 0.0,
                        coupled_paths_256)
        u = ControlProcess.from_values(np.zeros((3, x.grid.n_nodes)))
        with pytest.raises(GridMismatchError):
            u.materialize(x)


@pytest.mark.parametrize("name", ["nonlinear", "lq_two_drivers"])
def test_constant_control_matches_full_values_bitwise(name, coupled_paths_256):
    # m = 1 with per-path partials; m = 2 with u in sigma
    if name == "nonlinear":
        model, paths = nonlinear_lemma_model(), coupled_paths_256
    else:
        spec = LqSpec(A=-1.0, A_tilde=1.0, M=0.2, M_tilde=0.3, N=0.3)
        model = lq_model(spec, 2)
        paths = fbm_from_kernel(generate_bm(TimeGrid(1.0, 64), 2, 300, seed=9), 0.75)
    shape = (paths.n_paths, paths.grid.n_nodes)
    const_u = ControlProcess.constant(0.4)
    full_u = ControlProcess.from_values(np.full(shape, 0.4))
    xc = euler_mixed(model, const_u, 1.0, paths)
    xf = euler_mixed(model, full_u, 1.0, paths)
    assert np.array_equal(xc.X, xf.X)
    lc, lf = linearize(model, xc, const_u), linearize(model, xf, full_u)
    for name in ("bx", "bu", "sx", "su", "gx", "gu"):
        assert np.array_equal(getattr(lc, name), getattr(lf, name))
    v = ControlProcess.constant(1.0)
    yc = variation_direct(lc, v.materialize(xc), paths)
    yf = variation_direct(lf, np.full(shape, 1.0), paths)
    assert np.array_equal(yc.X, yf.X)


@pytest.mark.parametrize("m,n_paths,n_steps", [
    (1, 2 * INCREMENT_BLOCK + 5, 256), (1, 10, 64),
    (2, 2 * INCREMENT_BLOCK + 5, 32), (2, 10, 128)])
def test_time_major_increments_match_whole_array_transpose(m, n_paths, n_steps):
    paths = fbm_from_kernel(generate_bm(TimeGrid(1.0, n_steps), m, n_paths,
                                        seed=31), 0.75)
    db, dbh = _time_major_increments(paths)
    assert np.array_equal(db, np.ascontiguousarray(paths.dB.transpose(2, 1, 0)))
    assert np.array_equal(dbh, np.ascontiguousarray(
        np.diff(paths.BH, axis=-1).transpose(2, 1, 0)))


def block_fixture(name, n_steps, n_paths=300):
    """A model, a path-dependent control and v, and paths on n_steps steps:
    the nonlinear model (per-path partials) or the LQ model on two drivers."""
    if name == "nonlinear":
        model, m = nonlinear_lemma_model(), 1
    else:
        model, m = lq_model(LqSpec(A=-1.0, A_tilde=1.0, M=0.2, M_tilde=0.3,
                                   N=0.3), 2), 2
    paths = fbm_from_kernel(generate_bm(TimeGrid(1.0, n_steps), m, n_paths,
                                        seed=n_steps), 0.75)
    t = paths.grid.nodes
    u = ControlProcess.from_values(0.1 + 0.05 * np.sin(paths.B[:, 0] + t))
    v = np.cos(2 * t) + 0.1 * paths.B[:, m - 1]
    return model, u, v, paths


@pytest.mark.parametrize("name", ["nonlinear", "lq_two_drivers"])
@pytest.mark.parametrize("n_steps", [1, TIME_BLOCK, TIME_BLOCK + 36])
def test_time_blocks_match_step_recursions_bitwise(name, n_steps):
    # below, equal to and not a multiple of the time block
    model, u, v, paths = block_fixture(name, n_steps)
    x = euler_mixed(model, u, 0.5, paths)
    assert np.array_equal(x.X, euler_reference(model, u, 0.5, paths))
    lin = linearize(model, x, u)
    assert np.array_equal(variation_direct(lin, v, paths).X,
                          variation_reference(lin, v, paths))


class TestEulerMixed:
    def test_all_zero_coefficients(self, coupled_paths_256):
        x = euler_mixed(make_model(), ControlProcess.constant(0.0), 1.5,
                        coupled_paths_256)
        assert np.all(x.X == 1.5)

    def test_pure_drift(self, coupled_paths_256):
        x = euler_mixed(make_model(b=one), ControlProcess.constant(0.0), 2.0,
                        coupled_paths_256)
        assert np.allclose(x.X, 2.0 + coupled_paths_256.grid.nodes, atol=1e-12)

    def test_fractional_exponential_refinement(self, coupled_paths_fine):
        # gamma = c x, others 0: X(T) -> x0 exp(c B^H(T)) pathwise
        c = 0.5
        model = make_model(g=lambda t, x, u: c * x, gx=const(c))
        u0 = ControlProcess.constant(0.0)
        errs = []
        for fac in (8, 1):
            p = coarsen(coupled_paths_fine, fac)
            x = euler_mixed(model, u0, 1.0, p)
            exact = np.exp(c * p.BH[:, 0, -1])
            errs.append(np.mean(np.abs(x.X[:, -1] - exact) / exact))
        assert errs[1] < errs[0] / 2

    def test_matches_euler_maruyama_bitwise_when_gamma_zero(self, coupled_paths_256):
        b = lambda t, x, u: -x + u
        s = lambda t, x, u: 0.3 * x
        u = ControlProcess.constant(0.5)
        x = euler_mixed(make_model(b=b, s=s), u, 1.0, coupled_paths_256)
        ref = euler_maruyama_reference(b, s, u, 1.0, coupled_paths_256)
        assert np.array_equal(x.X, ref)

    def test_blowup_guard(self, coupled_paths_256):
        model = make_model(b=lambda t, x, u: x ** 3 + 10)
        with pytest.raises(BlowupError) as exc:
            euler_mixed(model, ControlProcess.constant(0.0), 5.0,
                        coupled_paths_256)
        assert exc.value.step > 0

    def test_blowup_message_reports_magnitude(self, coupled_paths_256):
        model = make_model(b=lambda t, x, u: x ** 3 - 10)
        with pytest.raises(BlowupError) as exc:
            euler_mixed(model, ControlProcess.constant(0.0), -5.0,
                        coupled_paths_256)
        value = exc.value.value
        assert np.isfinite(value) and value < 0  # signed, as integrated
        assert str(exc.value).endswith(f"|X| = {-value:.3e}")


class TestEvaluateAlong:
    def test_matches_node_loop_on_nonlinear_model(self, coupled_paths_256):
        model = nonlinear_lemma_model()
        u = ControlProcess.constant(0.1)
        x = euler_mixed(model, u, 0.5, coupled_paths_256)
        uv = u.materialize(x)
        fns = [model.b, model.b_x, model.b_u, *model.sigma, *model.gamma,
               *model.sigma_x, *model.sigma_u, *model.gamma_x, *model.gamma_u]
        t = x.grid.nodes
        got = evaluate_along(fns, t, x.X, uv)
        ref = np.empty((len(fns), *x.X.shape))
        for k, tk in enumerate(t):
            for i, fn in enumerate(fns):
                ref[i, :, k] = fn(tk, x.X[:, k], uv[:, k])
        assert np.array_equal(got, ref)

    def test_time_only_values_are_stored_once_per_node(self):
        t = np.linspace(0.0, 1.0, 5)
        X = np.arange(15.0).reshape(3, 5)
        out = evaluate_along([lambda t, x: np.sin(t), lambda t, x: 2.0], t, X)
        assert out.shape == (2, 3, 5) and out.strides[1] == 0
        assert not out.flags.writeable
        assert np.array_equal(out[0], np.broadcast_to(np.sin(t), (3, 5)))
        assert np.all(out[1] == 2.0)
        # one per-path callable makes the whole result per path
        mixed = evaluate_along([lambda t, x: np.sin(t), lambda t, x: x], t, X)
        assert mixed.strides[1] != 0 and np.array_equal(mixed[1], X)


class TestFundamentalPair:
    def _pair(self, model, paths):
        u0 = ControlProcess.constant(0.0)
        x = euler_mixed(model, u0, 1.0, paths)
        lin = linearize(model, x, u0)
        return fundamental_phi(lin, paths), fundamental_psi(lin, paths)

    @pytest.mark.parametrize("name", ["lq", "lq_two_drivers", "nonlinear",
                                      "nonlinear_ragged"])
    def test_cumulative_product_matches_step_recursion(self, name, coupled_paths_256):
        spec = LqSpec(A=-1.0, A_tilde=1.0, M=0.2, M_tilde=0.3, N=0.3)
        if name == "lq":
            model, paths = lq_model(spec), coupled_paths_256
        elif name == "lq_two_drivers":
            model = lq_model(spec, 2)
            paths = fbm_from_kernel(generate_bm(TimeGrid(1.0, 128), 2, 500, seed=9), 0.75)
        elif name == "nonlinear_ragged":  # a last row chunk of 5 paths
            model = nonlinear_lemma_model()
            paths = fbm_from_kernel(generate_bm(TimeGrid(1.0, 100), 1,
                                                3 * ROW_CHUNK + 5, seed=9), 0.75)
        else:
            model, paths = nonlinear_lemma_model(), coupled_paths_256
        u = ControlProcess.constant(0.1)
        lin = linearize(model, euler_mixed(model, u, 0.5, paths), u)
        for fn, sign in ((fundamental_phi, +1.0), (fundamental_psi, -1.0)):
            ref, stop = homogeneous_reference(lin, paths, sign)
            assert stop is None
            assert np.array_equal(fn(lin, paths).X, ref)

    @pytest.mark.parametrize("fn,sign", [(fundamental_phi, +1.0),
                                         (fundamental_psi, -1.0)])
    def test_blowup_reports_first_step_then_first_path(self, fn, sign,
                                                       coupled_paths_256):
        # sigma_x = 60 (a declared partial only; the state stays at x0): the
        # product grows path by path and crosses the limit mid-grid
        model = make_model(sx=const(60.0))
        u = ControlProcess.constant(0.0)
        lin = linearize(model, euler_mixed(model, u, 1.0, coupled_paths_256), u)
        ref, stop = homogeneous_reference(lin, coupled_paths_256, sign)
        assert stop is not None and 1 < stop[1] < coupled_paths_256.grid.n_steps
        with pytest.raises(BlowupError) as exc:
            fn(lin, coupled_paths_256)
        assert (exc.value.path_index, exc.value.step) == stop
        assert exc.value.value == ref[stop]

    def test_zero_coefficients(self, coupled_paths_256):
        phi, psi = self._pair(make_model(), coupled_paths_256)
        assert np.all(phi.X == 1.0) and np.all(psi.X == 1.0)

    def test_ito_exponential(self, coupled_paths_fine):
        # sigma_x = c only: Phi ~ exp(c B - c^2 t / 2)
        c = 0.4
        model = make_model(s=lambda t, x, u: c * x, sx=const(c))
        errs = []
        for fac in (8, 1):
            p = coarsen(coupled_paths_fine, fac)
            phi, psi = self._pair(model, p)
            t = p.grid.nodes
            exact = np.exp(c * p.B[:, 0, :] - 0.5 * c * c * t)
            errs.append(np.mean(np.abs(phi.X[:, -1] - exact[:, -1])))
            assert np.allclose(psi.X[:, -1], 1.0 / phi.X[:, -1], rtol=0.2)
        assert errs[1] < errs[0]

    def test_fractional_exponential(self, coupled_paths_fine):
        c = 0.3
        model = make_model(g=lambda t, x, u: c * x, gx=const(c))
        p = coarsen(coupled_paths_fine, 2)
        phi, _ = self._pair(model, p)
        exact = np.exp(c * p.BH[:, 0, -1])
        assert np.mean(np.abs(phi.X[:, -1] - exact) / exact) < 5e-3

    def test_product_defect_halves_fractional_fixture(self):
        # gamma-only fixture: the product defect decays ~ dt^{2H-1};
        # Brownian diffusion terms would cap Euler products at O(sqrt(dt))
        H = 0.95
        fine = fbm_from_kernel(generate_bm(TimeGrid(1.0, 2048), 1, 2000, seed=55), H)
        model = make_model(g=lambda t, x, u: 0.3 * x, gx=const(0.3))
        errs = []
        for fac in (8, 4, 2, 1):
            p = coarsen(fine, fac)
            phi, psi = self._pair(model, p)
            errs.append(np.abs(phi.X * psi.X - 1).max())
        for a, b in zip(errs, errs[1:]):
            assert a / b >= 2.0 * 0.9  # halving rate with 10% slack

    def test_product_defect_decreases_mixed_fixture(self, coupled_paths_fine):
        model = make_model(b=lambda t, x, u: -x, s=lambda t, x, u: 0.2 * x,
                           g=lambda t, x, u: 0.3 * x, bx=const(-1.0),
                           sx=const(0.2), gx=const(0.3))
        errs = []
        for fac in (4, 2, 1):
            p = coarsen(coupled_paths_fine, fac)
            phi, psi = self._pair(model, p)
            errs.append(np.abs(phi.X * psi.X - 1).max())
        assert errs[0] > errs[1] > errs[2]


def traced_peak(fn, *args):
    """Peak bytes that numpy and Python allocate during fn(*args)."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestWorkingMemory:
    @pytest.mark.parametrize("fn", [fundamental_phi, fundamental_psi])
    def test_fundamental_pair_holds_its_output_and_row_chunk_scratch(self, fn):
        # scratch: a chunk of noise, one of dB^H and psi's squared sigma_x;
        # the margin allows one more chunk
        spec = LqSpec(A=-1.0, A_tilde=1.0, M=0.2, M_tilde=0.3, N=0.3)
        model, u = lq_model(spec), ControlProcess.constant(0.1)
        paths = fbm_from_kernel(generate_bm(TimeGrid(1.0, 512), 1, 1000,
                                            seed=3), 0.75)
        lin = linearize(model, euler_mixed(model, u, 0.5, paths), u)
        output = paths.n_paths * paths.grid.n_nodes * 8
        chunk = ROW_CHUNK * paths.grid.n_steps * 8
        assert traced_peak(fn, lin, paths) <= output + 4 * chunk

    @pytest.mark.parametrize("name", ["euler", "variation"])
    def test_stepping_holds_its_output_and_time_block_scratch(self, name):
        # one block each of dB, dB^H, the control (or v) and the states,
        # stepped time-major; the margin allows one more block
        spec = LqSpec(A=-1.0, A_tilde=1.0, M=0.2, M_tilde=0.3, N=0.3)
        paths = fbm_from_kernel(generate_bm(TimeGrid(1.0, 512), 1, 1000,
                                            seed=3), 0.75)
        shape = (paths.n_paths, paths.grid.n_nodes)
        model, u = lq_model(spec), ControlProcess.from_values(np.full(shape, 0.1))
        if name == "euler":
            fn, args = euler_mixed, (model, u, 0.5, paths)
        else:
            lin = linearize(model, euler_mixed(model, u, 0.5, paths), u)
            fn, args = variation_direct, (lin, np.ones(shape), paths)
        output = paths.n_paths * paths.grid.n_nodes * 8
        block = (TIME_BLOCK + 1) * paths.n_paths * 8
        assert traced_peak(fn, *args) <= output + 5 * block

    def test_phi_psi_refinement_holds_three_path_arrays(self):
        # at the finest level Euler's state, then Phi and Psi, plus the
        # coarse levels' dB and the blocks
        fine = fbm_from_kernel(generate_bm(TimeGrid(1.0, 2048), 1, 500,
                                           seed=4), 0.95)
        path_array = fine.n_paths * fine.grid.n_nodes * 8
        assert traced_peak(phi_psi_refinement, fine) <= 3 * path_array


class TestVariation:
    def _setup(self, model, paths, u_star=None):
        u_star = u_star or ControlProcess.constant(0.0)
        x = euler_mixed(model, u_star, 1.0, paths)
        lin = linearize(model, x, u_star)
        return x, lin

    def test_zero_direction(self, coupled_paths_256):
        model = make_model(b=lambda t, x, u: -x + u, bx=const(-1.0), bu=one)
        x, lin = self._setup(model, coupled_paths_256)
        v = np.zeros_like(x.X)
        assert np.all(variation_direct(lin, v, coupled_paths_256).X == 0.0)
        phi = fundamental_phi(lin, coupled_paths_256)
        psi = fundamental_psi(lin, coupled_paths_256)
        assert np.all(variation_explicit(phi, psi, lin, v,
                                         coupled_paths_256).X == 0.0)

    def test_bu_only_integrates_v(self, coupled_paths_256):
        model = make_model(bu=one)
        x, lin = self._setup(model, coupled_paths_256)
        t = coupled_paths_256.grid.nodes
        v = np.tile(np.sin(t), (coupled_paths_256.n_paths, 1))
        y = variation_direct(lin, v, coupled_paths_256)
        expected = np.cumsum(np.sin(t[:-1]) * coupled_paths_256.grid.dt)
        assert np.allclose(y.X[0, 1:], expected, atol=1e-12)

    def test_deterministic_ode_oracle(self, coupled_paths_256):
        # sigma = gamma = 0, b = a x + u: y(t) = (e^{at} - 1)/a for v = 1
        a = -0.7
        model = make_model(b=lambda t, x, u: a * x + u, bx=const(a), bu=one)
        x, lin = self._setup(model, coupled_paths_256)
        phi = fundamental_phi(lin, coupled_paths_256)
        psi = fundamental_psi(lin, coupled_paths_256)
        v = np.ones_like(x.X)
        y = variation_explicit(phi, psi, lin, v, coupled_paths_256)
        t = coupled_paths_256.grid.nodes
        exact = (np.exp(a * t) - 1.0) / a
        assert np.allclose(y.X[0], exact, atol=5e-3)

    @pytest.mark.parametrize("name", ["lq", "lq_two_drivers", "nonlinear"])
    def test_direct_matches_node_loop_bitwise(self, name, coupled_paths_256):
        spec = LqSpec(A=-1.0, A_tilde=1.0, M=0.2, M_tilde=0.3, N=0.3)
        if name == "lq":
            model, paths = lq_model(spec), coupled_paths_256
        elif name == "lq_two_drivers":
            model = lq_model(spec, 2)
            paths = fbm_from_kernel(generate_bm(TimeGrid(1.0, 128), 2, 500, seed=9), 0.75)
        else:
            model, paths = nonlinear_lemma_model(), coupled_paths_256
        u = ControlProcess.constant(0.1)
        lin = linearize(model, euler_mixed(model, u, 0.5, paths), u)
        t = paths.grid.nodes
        v = np.sin(3 * t) + 0.1 * paths.B[:, 0]
        assert np.array_equal(variation_direct(lin, v, paths).X,
                              variation_reference(lin, v, paths))

    def test_direct_vs_explicit_refinement(self, coupled_paths_fine):
        model = make_model(b=lambda t, x, u: -x + u, s=lambda t, x, u: 0.2 * x + 0.3 * u,
                           g=lambda t, x, u: 0.3 * x, bx=const(-1.0), bu=one,
                           sx=const(0.2), su=const(0.3), gx=const(0.3))
        gaps = []
        for fac in (4, 2, 1):
            p = coarsen(coupled_paths_fine, fac)
            x, lin = self._setup(model, p)
            v = np.ones_like(x.X)
            yd = variation_direct(lin, v, p)
            ye = variation_explicit(fundamental_phi(lin, p),
                                    fundamental_psi(lin, p), lin, v, p)
            gaps.append(np.mean((yd.X[:, -1] - ye.X[:, -1]) ** 2))
        assert gaps[0] > gaps[1] > gaps[2]
        # report the halving rate: expected roughly first order in dt
        assert gaps[0] / gaps[2] > 2.0


class TestAlphaNorm:
    def test_domain(self):
        grid = TimeGrid(1.0, 16)
        with pytest.raises(DomainError):
            alpha_norm_terminal(np.zeros(17), grid, 0.6)
        with pytest.raises(GridMismatchError):
            alpha_norm_terminal(np.zeros(16), grid, 0.3)

    def test_constant_path(self):
        grid = TimeGrid(1.0, 64)
        values = np.array([-2.5, 0.0, 1.75])[:, None] * np.ones(65)
        out = alpha_norm_terminal(values, grid, 0.3)
        assert np.array_equal(out, [2.5, 0.0, 1.75])

    def test_linear_path_analytic(self):
        # f(t) = t: norm(t) = t + t^{1-alpha}/(1-alpha)
        alpha = 0.3
        for t in (0.25, 1.0):
            grid = TimeGrid(t, 1024)
            out = alpha_norm_terminal(grid.nodes.copy(), grid, alpha)
            exact = t + t ** (1 - alpha) / (1 - alpha)
            assert out == pytest.approx(exact, rel=5e-3)

    def test_monotone_for_monotone_path(self):
        # the norm at t_k is the terminal norm of the grid prefix [0, t_k]
        grid = TimeGrid(1.0, 128)
        f = grid.nodes ** 2
        out = [alpha_norm_terminal(f[:k + 1], TimeGrid(grid.nodes[k], k), 0.25)
               for k in range(1, grid.n_nodes)]
        assert np.all(np.diff(out) >= -1e-12)

    def test_default_alpha_band(self):
        for H in (0.55, 0.75, 0.95):
            a = default_alpha(H)
            assert 1 - H < a < 0.5


class TestLemma1:
    def test_linear_model_machine_floor(self, coupled_paths_256):
        # linear dynamics: the discrete expansion is exact, any eps
        model = make_model(b=lambda t, x, u: -x + u, s=lambda t, x, u: 0.2 * x,
                           g=lambda t, x, u: 0.3 * x, bx=const(-1.0), bu=one,
                           sx=const(0.2), gx=const(0.3))
        rows = lemma1_experiment(model, ControlProcess.constant(0.0),
                                 ControlProcess.constant(1.0),
                                 [0.2, 0.05], coupled_paths_256, x0=1.0)
        for r in rows:
            assert r["terminal_sq"] < 1e-25

    def test_zero_direction(self, coupled_paths_256):
        model = make_model(b=lambda t, x, u: np.sin(x) + u,
                           bx=lambda t, x, u: np.cos(x), bu=one)
        rows = lemma1_experiment(model, ControlProcess.constant(0.0),
                                 ControlProcess.constant(0.0),
                                 [0.1], coupled_paths_256, x0=0.5)
        assert rows[0]["terminal_sq"] == 0.0

    def test_nonlinear_second_order_rate(self, coupled_paths_256):
        from fbmcontrol.verify import nonlinear_lemma_model
        rows = lemma1_experiment(nonlinear_lemma_model(),
                                 ControlProcess.constant(0.1),
                                 ControlProcess.constant(1.0),
                                 [0.2, 0.1, 0.05, 0.025],
                                 coupled_paths_256, x0=0.5)
        for metric in ("terminal_sq", "sup_sq", "alpha_norm_sq"):
            vals = [r[metric] for r in rows]
            assert all(a > b for a, b in zip(vals, vals[1:]))
        ratios = [rows[i]["terminal_sq"] / rows[i + 1]["terminal_sq"]
                  for i in range(3)]
        assert all(2.5 <= r <= 6.0 for r in ratios)

    def test_epsilon_domain(self, coupled_paths_256):
        model = make_model()
        with pytest.raises(DomainError):
            lemma1_experiment(model, ControlProcess.constant(0.0),
                              ControlProcess.constant(1.0), [1.5],
                              coupled_paths_256, x0=0.0)
