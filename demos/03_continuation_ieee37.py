#!/usr/bin/env python3
"""Continuation study on the bundled IEEE 37-node conversion.

Reproduces the feeder-level workflow: certified kappa intervals from the
zero-load base, a recentered interval at the edge of feasibility, and the
linear-model error sweep. Writes the continuation table as CSV.
"""

import numpy as np

import mplf
from mplf.analysis import interval_summary, write_continuation_csv
from mplf.datafiles import bundled_path

model = mplf.network_from_file(bundled_path("ieee37_network.json"))
profile = mplf.zero_load_voltage(model)
s_ref = mplf.injections_from_file(bundled_path("ieee37_injections.json"), model)
mixed = mplf.injections_from_file(bundled_path("ieee37_injections_mixed.json"), model)
print(f"37-node conversion: {model.n_phases} phases, {model.n_delta} delta connections")

base = (profile.w, mplf.InjectionSet.zeros(model))
for theorem in (1, 2):
    lo, hi = mplf.feasible_interval(
        model, profile, base, s_ref, theorem=theorem, kappa_bounds=(-10, 10)
    )
    print(f"original data, theorem {theorem}: certified kappa in [{lo:.3f}, {hi:.3f}]")

# Recenter at the edge of the certified range: the new interval reaches
# loadings the zero-load base cannot certify.
edge = 3.39
lo_r, hi_r = mplf.recentered_interval(model, profile, edge, s_ref, theorem=2,
                                      kappa_bounds=(-10, 10))
print(f"recentered at kappa={edge}: certified kappa in [{lo_r:.3f}, {hi_r:.3f}]")

# Error sweep for both linear models built at kappa = 1 on the mixed data.
base_inj = mixed.scaled(1.0)
base_sol = mplf.solve_fixed_point(model, profile, base_inj, tol_step=1e-12)
kappas = np.linspace(-1.5, 1.5, 61)
result = mplf.linear_error_sweep(
    model, profile, base_sol, base_inj, mixed, kappas,
    base_kappa=1.0, kappa_bounds=(-1.5, 1.5),
)
fot = np.array(result.fot_errors, dtype=float)
fpl = np.array(result.fpl_errors, dtype=float)
print(f"\nmixed-source sweep over kappa in [-1.5, 1.5]:")
print(f"  max relative error: fot {fot.max():.4%}, fpl {fpl.max():.4%}")
near = np.abs(result.kappas - 1.0) <= 0.15
print(f"  near the base:      fot {fot[near].max():.4%}, fpl {fpl[near].max():.4%}")
print("  (tangent model wins locally, fixed-point model wins globally)")

write_continuation_csv("ieee37_sweep.csv", result)
print("\nwrote ieee37_sweep.csv")
print("interval summary:", interval_summary(result))
