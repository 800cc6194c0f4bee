#!/usr/bin/env python3
"""Build a small mixed wye/delta network, solve it, and certify the solution.

Walks the core objects end to end: assembly, zero-load profile, fixed-point
solve, Newton cross-check, and both solvability certificates.
"""

import numpy as np

import mplf

# A two-feeder toy: three-phase trunk to "mid" (which carries a full delta
# bank), then a two-phase spur to "end" with a single ab connection.
z3 = np.full((3, 3), 0.04 + 0.14j) + np.diag([0.06 + 0.26j] * 3)
z2 = np.full((2, 2), 0.05 + 0.16j) + np.diag([0.07 + 0.30j] * 2)
rot = np.exp(-2j * np.pi / 3)

buses = [
    mplf.BusSpec("sub", "abc"),
    mplf.BusSpec("mid", "abc", ("ab", "bc", "ca")),
    mplf.BusSpec("end", "ab", ("ab",)),
]
lines = [
    mplf.LineSpec("sub", "mid", "abc", np.linalg.inv(z3)),
    mplf.LineSpec("mid", "end", "ab", np.linalg.inv(z2)),
]
slack = mplf.SlackSpec("sub", np.array([1.0, rot, rot**2]))

model = mplf.assemble_network(buses, lines, slack)
profile = mplf.zero_load_voltage(model)
print(f"{model.n_phases} phases, {model.n_delta} phase-pair connections")
print("zero-load |w|:", np.round(profile.w_abs, 6))

# Loads are negative (generation-positive convention).
inj = mplf.InjectionSet.zeros(model)
inj.s_wye[model.index.phase_index[("mid", "a")]] = -0.03 - 0.01j
inj.s_delta[model.index.delta_index[("mid", "ab")]] = -0.05 - 0.02j
inj.s_delta[model.index.delta_index[("end", "ab")]] = -0.02 - 0.01j

sol = mplf.solve_fixed_point(model, profile, inj)
print(f"\nfixed point: {sol.iterations} iterations, residual {sol.residual_inf:.2e}, "
      f"empirical contraction {sol.contraction_estimate:.3f}")
print("|v|:", np.round(np.abs(sol.v), 6))

newton = mplf.newton_oracle(model, inj)
print("newton gap:", np.abs(sol.v - newton.v).max())

# Certify around the zero-load pair: existence, uniqueness, convergence.
base = (profile.w, mplf.InjectionSet.zeros(model))
cert2 = mplf.check_theorem2(model, profile, base, inj)
print(f"\nexplicit certificate: satisfied={cert2.satisfied}, "
      f"rho_self_map={cert2.rho_used:.4f}, rho_containment={cert2.rho_dagger:.4f}")
print("condition diagnostics:", cert2.diagnostics["condition1"], cert2.diagnostics["condition2"])

cert1 = mplf.check_theorem1(model, profile, base, inj)
print(f"general certificate:  satisfied={cert1.satisfied}, smallest rho={cert1.rho_used:.5f}")

# The solution indeed sits inside the tight containment ball.
gap = np.abs(sol.v - profile.w) - cert2.ball_radii(profile, cert2.rho_dagger)
print("containment margin (should be <= 0):", gap.max())
