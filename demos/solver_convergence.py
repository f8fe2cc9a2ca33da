"""
Solver convergence on a single drop
===================================

Builds one random problem instance from the geometry and channel layers,
solves it with the one-shot zero-forcing baseline, then hands that point
to the coordinate-descent solver and watches the objective climb.
Saves the convergence curve to solver_convergence.png when matplotlib
is available.
"""

import numpy as np

from itsbeam import (
    ChannelParams,
    ConstraintKind,
    GeometryConfig,
    SPEED_OF_LIGHT,
    SolverSettings,
    SystemInstance,
    bcd_solve,
    build_layout,
    build_transfer_matrix,
    characteristic_distance,
    dbm_to_watts,
    sample_channel,
    sample_user_drop,
    zfwf_solve,
)

rng = np.random.default_rng(6)

wavelength = SPEED_OF_LIGHT / 28e9
r0 = characteristic_distance(128, 4, wavelength)
cfg = GeometryConfig(
    n_active=4,
    n_elements=128,
    wavelength=wavelength,
    active_radius=wavelength,
    separation=10.0 * r0,
    kappa=49.0,
    surface_efficiency=10.0 ** (-3.5 / 10.0),
    grid_shape=(16, 8),
)
layout = build_layout(cfg)
transfer = build_transfer_matrix(layout)

params = ChannelParams()
drop = sample_user_drop(params, 4, rng)
channel = sample_channel(layout, drop, params, rng)
print("user distances (m):", np.round(drop.distances, 1))
print("user azimuths (deg):", np.round(np.degrees(drop.azimuths), 1))

inst = SystemInstance(
    transfer=transfer,
    channel=channel,
    noise_power=1e-7,
    power_budget=dbm_to_watts(30.0),
    weights=np.ones(4),
    constraint=ConstraintKind.RADIATED_POWER,
)

# Zero forcing with aligned phases is cheap and feasible, which makes it a
# good starting point.  Its water-filled powers already tell a story: users
# with expensive nulling directions get little or nothing.  The powers are
# stream powers at the receiver side of the nulling, hence the tiny scale.
zf = zfwf_solve(inst)
print()
print(f"zero-forcing wsr: {zf.wsr:.4f} bit/s/Hz")
print("  per-user rate :", np.round(zf.spectral_efficiency, 3))
print("  powers (uW)   :", np.round(np.asarray(zf.detail["powers"]) * 1e6, 2))

settings = SolverSettings()
sol = bcd_solve(inst, settings, zf)
iters = sol.trace[-1][0]
capped = " (hit the iteration cap)" if sol.detail[-1]["stop"] == "iteration_cap" else ""
print()
print(f"bcd wsr after {iters} iterations{capped}: {sol.wsr:.4f} bit/s/Hz")
print("  per-user rate :", np.round(sol.spectral_efficiency, 3))
print(f"  gain over zf  : {sol.wsr - zf.wsr:.4f} ({sol.wsr / zf.wsr:.2f}x)")
print(f"  budget slack  : {sol.constraint_slack:.2e}")

# Each outer iteration's detail row records the phase block's L-BFGS
# iterations (each one accepted step) and its objective evaluations, rejected
# trial steps included.
lbfgs = sum(row["pga_steps"] for row in sol.detail)
evals = sum(row["phase_evals"] for row in sol.detail)
print(
    f"  phase block   : {lbfgs} L-BFGS iterations "
    f"({lbfgs / len(sol.detail):.1f} per outer iteration, cap {settings.pga_max_iters}), "
    f"{evals / max(lbfgs, 1):.2f} evaluations per L-BFGS iteration"
)

# The trace is (iteration, wsr) pairs and must never go down.
values = np.array([v for _, v in sol.trace])
drops = np.diff(values)
print(f"  worst per-iteration change: {drops.min():.3e} (>= 0 expected)")

# Most of the gain arrives early; print a few milestones.
for frac in (0.5, 0.9, 0.99):
    target = values[0] + frac * (values[-1] - values[0])
    k = int(np.argmax(values >= target))
    print(f"  {int(frac * 100):2d}% of the gain by iteration {k}")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots(figsize=(6, 4))
    ax.plot([i for i, _ in sol.trace], values, marker=".", lw=1)
    ax.axhline(zf.wsr, color="gray", ls="--", lw=1, label="zero forcing")
    ax.set_xlabel("iteration")
    ax.set_ylabel("weighted sum rate (bit/s/Hz)")
    ax.legend()
    fig.tight_layout()
    fig.savefig("solver_convergence.png", dpi=120)
    print("wrote solver_convergence.png")
except ImportError:
    print("matplotlib not installed, skipping the figure")

# Sanity: restarting from the converged point stops almost immediately and
# moves the objective by at most a few multiples of the tolerance.
again = bcd_solve(inst, settings, sol)
print(f"restart: {again.trace[-1][0]} iterations, drift {again.wsr - sol.wsr:+.2e}")
