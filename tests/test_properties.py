"""Property tests of the kernel table, the blocked step recursions and the
node regression (need hypothesis)."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from fbmcontrol import fbm  # noqa: E402
from fbmcontrol.sde import ROW_CHUNK, TIME_BLOCK  # noqa: E402


@settings(max_examples=25, deadline=None)
@given(sizes=st.lists(st.integers(1, 70), min_size=1, max_size=4),
       threads=st.integers(1, 2), block_rows=st.integers(1, 16),
       H=st.sampled_from([0.55, 0.75, 0.95]))
def test_unit_table_is_bitwise_independent_of_growth_threads_and_blocks(
        sizes, threads, block_rows, H):
    # grow the table through random sizes on 1-2 threads and 1-16 block
    # rows; every stage equals the same rows of a direct default build
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fbm, "_unit_tables", {})
        reference = fbm._unit_table(H, max(sizes))
        mp.setattr(fbm, "_unit_tables", {})
        mp.setattr(fbm, "_kernel_threads", lambda: threads)
        mp.setattr(fbm, "KERNEL_BLOCK_ROWS", block_rows)
        for n in sizes:
            table = fbm._unit_table(H, n)
            assert np.array_equal(table[:n + 1, :n], reference[:n + 1, :n])


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n_paths=st.integers(8, 60),
       n_fit=st.integers(1, 5),
       dist=st.sampled_from(["normal", "uniform", "exponential"]),
       loc=st.floats(-10, 10), spread=st.floats(1e-3, 1e3),
       coef=st.lists(st.floats(-5, 5), min_size=3, max_size=3))
def test_regression_reproduces_per_node_quadratics(seed, n_paths, n_fit, dist,
                                                   loc, spread, coef):
    # at ridge 0 every per-node quadratic in X is in the span of the basis
    from fbmcontrol import adjoint
    rng = np.random.default_rng(seed)
    X = loc + spread * getattr(rng, dist)(size=(n_paths, n_fit))
    a, b, c = (w * rng.uniform(0.5, 1.5, n_fit) for w in coef)
    y = a + b * X + c * X ** 2
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(adjoint, "REGRESSION_RIDGE", 0.0)
        reg = adjoint.NodeRegression.fit(X)
        fitted = reg.predict(reg.coeffs(y))
    assert np.abs(fitted - y).max() <= 1e-9 * (1.0 + np.abs(y).max())


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), m=st.integers(1, 2),
       n_paths=st.integers(1, 3 * ROW_CHUNK + 5),
       n_steps=st.integers(1, 2 * TIME_BLOCK + 5))
def test_blocked_recursions_match_step_recursions_bitwise(seed, m, n_paths,
                                                          n_steps):
    # time blocks (Euler, variation) and row chunks (the fundamental pair)
    # at any path and step count give the bits of the step-by-step loops
    from test_sde import (euler_reference, homogeneous_reference,
                          variation_reference)
    from fbmcontrol.lq import LqSpec, lq_model
    from fbmcontrol.sde import (ControlProcess, euler_mixed, fundamental_phi,
                                fundamental_psi, linearize, variation_direct)
    from fbmcontrol.verify import nonlinear_lemma_model
    model = nonlinear_lemma_model() if m == 1 else lq_model(
        LqSpec(A=-1.0, A_tilde=1.0, M=0.2, M_tilde=0.3, N=0.3), 2)
    paths = fbm.fbm_from_kernel(fbm.generate_bm(fbm.TimeGrid(1.0, n_steps), m,
                                                n_paths, seed), 0.75)
    t = paths.grid.nodes
    u = ControlProcess.from_values(0.1 * np.sin(paths.B[:, 0] + t))
    x = euler_mixed(model, u, 0.5, paths)
    assert np.array_equal(x.X, euler_reference(model, u, 0.5, paths))
    lin = linearize(model, x, u)
    for fn, sign in ((fundamental_phi, 1.0), (fundamental_psi, -1.0)):
        ref, stop = homogeneous_reference(lin, paths, sign)
        assert stop is None and np.array_equal(fn(lin, paths).X, ref)
    v = np.cos(t) + 0.1 * paths.B[:, m - 1]
    assert np.array_equal(variation_direct(lin, v, paths).X,
                          variation_reference(lin, v, paths))
