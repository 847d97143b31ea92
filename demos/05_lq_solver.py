"""End-to-end linear-quadratic solve under mixed fractional noise.

The first-order condition u = -R^{-1}(A~ p + M~ q) is iterated to its fixed
point by damped steps with Anderson mixing.  On the Brownian-only sub-case the cost lands on the classical
Riccati value; optimality is then probed by perturbing the control along
random adapted directions on common random numbers.
"""

from fbmcontrol import (PicardOptions, TimeGrid, convexity_check,
                        fbm_from_kernel, generate_bm, lq_picard_solve,
                        optimality_sweep, random_adapted_directions,
                        riccati_oracle, stationarity_residual)
from fbmcontrol.lq import LqSpec
from fbmcontrol.sde import ControlProcess

grid = TimeGrid(1.0, 256)
paths = fbm_from_kernel(generate_bm(grid, 1, 20_000, seed=9), 0.75)
opts = PicardOptions(tol=1e-5, max_iter=25)

print("=== Brownian-only fixture (N = 0): Riccati oracle available ===")
spec = LqSpec(A=-1.0, A_tilde=1.0, M=0.2, M_tilde=0.0, N=0.0)
sol = lq_picard_solve(spec, paths, opts)
for row in sol.iterations[:6]:
    print(f"  iter {row['iter']}: control change {row['change']:.2e}  "
          f"J = {row['J']:.6f}")
print(f"  ... converged in {len(sol.iterations)} iterations")
ric = riccati_oracle(spec, grid)
print(f"  J (Monte Carlo) = {sol.J:.6f} +- {sol.J_stderr:.6f}")
print(f"  J (Riccati)     = {ric.J:.6f}\n")

print("=== Mixed fixture (N = 0.3, H = 0.75) ===")
spec_m = LqSpec(A=-1.0, A_tilde=1.0, M=0.2, M_tilde=0.0, N=0.3)
sol_m = lq_picard_solve(spec_m, paths, opts)
print(f"  converged in {len(sol_m.iterations)} iterations, "
      f"J = {sol_m.J:.6f} +- {sol_m.J_stderr:.6f}")
rep = stationarity_residual(sol_m.problem, sol_m.estimate)
print(f"  stationarity residual: max per-node |mean|/stderr = "
      f"{rep.max_abs_z():.2f} (zero at 3 sigma)")

print("\noptimality sweep around the mixed optimum (common random numbers):")
directions = random_adapted_directions(paths, 4, seed=99)
rows = optimality_sweep(spec_m, sol_m.u, directions, [0.1], paths)
print("  dir  eps    J(u*+eps v) - J(u*)        directional derivative")
for r in rows:
    print(f"  {r.direction}   {r.eps:.2f}   {r.dJ:+.6f} +- {r.dJ_stderr:.6f}"
          f"   {r.deriv:+.6f} +- {r.deriv_stderr:.6f}")
print("(all cost differences non-negative; derivatives sit at the 1e-4 scale,\n"
      " i.e. ~0.1% of J: under fractional memory the state-polynomial\n"
      " regression leaves that much first-order error in the control)")

conv = convexity_check(spec_m, sol_m.u,
                       ControlProcess.from_values(sol_m.u.values + 0.5), paths)
print(f"\nstrict convexity margin (J1 + J2 - 2 Jmid - (delta/4) E int |du|^2): "
      f"{conv.margin_mean:.4e} +- {conv.margin_stderr:.1e}  -> holds: {conv.holds()}")
