"""Low-complexity baseline: surface phase alignment, zero-forcing, water-filling.

The three stages are closed-form:

1. phase_align points every surface element at the coherent sum of the
   per-chain signal paths, maximising |psi^T v| with v = sum_k h_k * T e_k
   (chain k is dedicated to user k, which requires K <= N);
2. zf_directions inverts the effective channel from the right, so stream k
   reaches user k free of interference;
3. waterfill spends the power budget on the interference-free parallel
   channels, accounting for the power cost a_k = ||P f_k||^2 of each unit-rate
   direction f_k, P the instance's power map (I under TP, T under RP).

The resulting SINRs are exactly p_k / sigma^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SolverError
# sinr and constraint_value stay module attributes: call-site tracers wrap them here.
from .model import (
    PhaseConfig,
    Precoder,
    Solution,
    SystemInstance,
    constraint_value,
    effective_channel,
    sinr,
)

__all__ = [
    "PowerAllocation",
    "phase_align",
    "zf_directions",
    "waterfill",
    "zfwf_solve",
]

_COND_LIMIT = 1e12


@dataclass(frozen=True)
class PowerAllocation:
    """Water-filling output: per-user powers, the water level, per-chain costs."""

    powers: np.ndarray       # (K,), nonnegative
    water_level: float
    chain_costs: np.ndarray  # (K,), positive

    def __post_init__(self):
        p = np.asarray(self.powers, dtype=float)
        a = np.asarray(self.chain_costs, dtype=float)
        if p.ndim != 1 or a.shape != p.shape:
            raise SolverError("powers and chain_costs must be 1-D with equal shape")
        if np.any(p < 0):
            raise SolverError("powers must be nonnegative")
        object.__setattr__(self, "powers", p)
        object.__setattr__(self, "chain_costs", a)


def phase_align(inst: SystemInstance) -> PhaseConfig:
    """Surface phases maximising the coherent per-chain signal sum.

    With v = sum_k h_k * (T e_k) elementwise, the aligned phases are
    phi_m = -arg(v_m) (zero entries get phase 0), which attains
    psi^T v = sum_m |v_m|.
    """
    if inst.n_users > inst.n_chains:
        raise SolverError(
            f"phase alignment requires K <= N, got K={inst.n_users}, N={inst.n_chains}"
        )
    v = np.sum(inst.channel * inst.transfer[:, : inst.n_users].T, axis=0)
    return PhaseConfig(np.mod(-np.angle(v), 2.0 * np.pi))


def zf_directions(heff: np.ndarray) -> np.ndarray:
    """Right pseudo-inverse heff^H (heff heff^H)^-1, shape (N, K).

    Column k is the unit-rate direction for user k: heff @ F = I_K exactly.
    Raises SolverError when heff is rank-deficient (condition number > 1e12).
    """
    heff = np.asarray(heff, dtype=complex)
    if heff.ndim != 2 or heff.shape[0] > heff.shape[1]:
        raise SolverError("effective channel must be (K, N) with K <= N")
    if np.linalg.cond(heff) > _COND_LIMIT:
        raise SolverError("effective channel is rank-deficient; zero-forcing unavailable")
    gram = heff @ heff.conj().T
    return heff.conj().T @ np.linalg.solve(gram, np.eye(heff.shape[0], dtype=complex))


def waterfill(
    weights: np.ndarray,
    chain_costs: np.ndarray,
    noise_power: float,
    power_budget: float,
) -> PowerAllocation:
    """Maximise sum_k w_k log2(1 + p_k / sigma^2) s.t. sum_k a_k p_k = budget, p >= 0.

    Closed form per active set: p_k = w_k / (mu a_k) - sigma^2 with the water
    level mu = (sum_active w_k) / (budget + sigma^2 sum_active a_k); users whose
    allocation goes negative are dropped and the level recomputed.  When
    sigma^2 sum a dwarfs the budget, w_k / (mu a_k) - sigma^2 cancels; powers that
    then spend more than the budget's 1e-6 tolerance are scaled back onto it.
    """
    w = np.asarray(weights, dtype=float)
    a = np.asarray(chain_costs, dtype=float)
    if w.ndim != 1 or a.shape != w.shape:
        raise SolverError("weights and chain_costs must be 1-D with equal shape")
    if np.any(a <= 0) or not np.all(np.isfinite(a)):
        raise SolverError("chain_costs must be positive and finite")
    if not np.all(np.isfinite(w) & (w >= 0)):
        raise SolverError("weights must be finite and nonnegative")
    if not (0 < noise_power < np.inf and 0 < power_budget < np.inf):  # NaN fails both
        raise SolverError("noise_power and power_budget must be finite and positive")

    active = w > 0
    mu = 0.0
    for _ in range(w.size):
        if not np.any(active):
            raise SolverError("water-filling dropped every user; budget degenerate")
        mu = w[active].sum() / (power_budget + noise_power * a[active].sum())
        p = np.where(active, w / (mu * a) - noise_power, 0.0)
        negative = active & (p < 0)
        if not np.any(negative):
            powers = np.clip(p, 0.0, None)
            spent = float(a @ powers)
            if spent > power_budget * (1.0 + 1e-6):  # the tolerance a Solution allows
                powers *= power_budget / spent
            return PowerAllocation(powers=powers, water_level=float(mu), chain_costs=a)
        active &= ~negative
    raise SolverError("water-filling failed to settle on an active set")


def _zero_forcing(inst: SystemInstance, phases: PhaseConfig):
    """The zero-forcing directions through ``phases`` and their water-filling allocation."""
    directions = zf_directions(effective_channel(inst, phases))
    costs = np.sum(np.abs(inst.power_map @ directions) ** 2, axis=0)
    return directions, waterfill(inst.weights, costs, inst.noise_power, inst.power_budget)


def zfwf_solve(inst: SystemInstance, phases: PhaseConfig | None = None) -> Solution:
    """Full pipeline: align phases (unless given), zero-force, water-fill.

    Passing ``phases`` skips the alignment stage and zero-forces through the
    given surface state instead.
    """
    if phases is None:
        phases = phase_align(inst)
    directions, alloc = _zero_forcing(inst, phases)
    precoder = Precoder(directions * np.sqrt(alloc.powers)[np.newaxis, :])
    detail = {
        "water_level": alloc.water_level,
        "chain_costs": alloc.chain_costs.tolist(),
        "powers": alloc.powers.tolist(),
    }
    return Solution.from_state(inst, phases, precoder, detail=detail)
