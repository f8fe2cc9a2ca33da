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

``zfwf_solve`` runs on a batch of instances as on one: the effective channels, the
condition test (one SVD per row), the gram solve, the chain costs and the SINRs of the
solutions run on stacked rows, and water-filling runs per row on Python floats.  Each
row gets the bits it gets alone, so a solution does not depend on its batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SolverError
# effective_channel, sinr and constraint_value stay module attributes: call-site tracers
# wrap them here.
from .model import (
    PhaseConfig,
    Solution,
    SystemInstance,
    _BUDGET_SLACK,
    _by_row,
    _check_phases,
    _check_rows,
    _one,
    _Rows,
    _rows,
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
    A batch of one of the stacked ``_directions`` (``model._one``).
    """
    heff = np.asarray(heff, dtype=complex)
    if heff.ndim != 2:
        raise SolverError("effective channel must be (K, N) with K <= N")
    failed = {}
    directions = _directions(heff[np.newaxis], failed)
    return _one([failed.get(0, directions[0])])


def _directions(heff: np.ndarray, failed: dict) -> np.ndarray:
    """``zf_directions`` of each row of the stacked (B, K, N) ``heff``: one SVD per row for
    the condition test, then one stacked gram solve over the rows that pass, both through
    the row-by-row fallback ``model._by_row``.  A row that fails has its error in
    ``failed``, under its row, and zero directions.
    """
    if heff.shape[1] > heff.shape[2]:
        failed.update({row: SolverError("effective channel must be (K, N) with K <= N")
                       for row in range(len(heff))})
        return np.zeros_like(np.swapaxes(heff, -1, -2))
    deficient, directions = _by_row(_right_inverses, (heff,), failed)
    for row in np.flatnonzero(deficient):
        failed[row] = SolverError("effective channel is rank-deficient; zero-forcing unavailable")
    return directions


def _right_inverses(heff: np.ndarray):
    """The rows of the stacked ``heff`` whose condition number passes 1e12, as a mask of
    those that do not, and their right pseudo-inverses, zero on the rows that do not."""
    deficient = np.linalg.cond(heff) > _COND_LIMIT
    rows = np.flatnonzero(~deficient)
    part, directions = heff[rows], np.zeros_like(np.swapaxes(heff, -1, -2))
    adjoint, eye = np.conj(part).swapaxes(-1, -2), np.eye(heff.shape[1], dtype=complex)
    directions[rows] = adjoint @ np.linalg.solve(part @ adjoint, eye)
    return deficient, directions


def _sum(values: list) -> float:
    """numpy's sum of a float vector: left to right below 8 terms, numpy's own from 8 on."""
    if len(values) >= 8:  # numpy sums 8 or more terms with 8 accumulators
        return float(np.sum(values))
    total = 0.0
    for value in values:
        total += value
    return total


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
    then spend more than a Solution's slack over the budget are scaled back onto it.
    A level mu that is not finite and positive, or a level mu a_k that underflows
    to zero, fails; a mu a_k that overflows drops user k, whose p_k is then -sigma^2.
    Runs on Python floats, in numpy's order of operations, so it gives the bits of
    the same formulas on arrays; only the spent budget a @ p is a numpy dot.
    """
    w = np.asarray(weights, dtype=float)
    a = np.asarray(chain_costs, dtype=float)
    if w.ndim != 1 or a.shape != w.shape:
        raise SolverError("weights and chain_costs must be 1-D with equal shape")
    costs, w = a.tolist(), w.tolist()
    if not all(0.0 < cost < math.inf for cost in costs):  # NaN fails
        raise SolverError("chain_costs must be positive and finite")
    if not all(0.0 <= weight < math.inf for weight in w):
        raise SolverError("weights must be finite and nonnegative")
    if not (0 < noise_power < np.inf and 0 < power_budget < np.inf):  # NaN fails both
        raise SolverError("noise_power and power_budget must be finite and positive")

    noise, budget = float(noise_power), float(power_budget)
    active = [weight > 0 for weight in w]
    for _ in range(len(w)):
        if not any(active):
            raise SolverError("water-filling dropped every user; budget degenerate")
        on = [k for k, is_on in enumerate(active) if is_on]
        mu = _sum([w[k] for k in on]) / (budget + noise * _sum([costs[k] for k in on]))
        levels = [mu * cost for cost in costs]
        if not 0.0 < mu < math.inf or any(levels[k] == 0.0 for k in on):  # NaN fails
            raise SolverError(f"water level {mu!r} is not finite and positive or mu * a_k is 0")
        p = [w[k] / levels[k] - noise if active[k] else 0.0 for k in range(len(w))]
        negative = [k for k in on if p[k] < 0]
        if not negative:
            spent = float(a @ p)  # BLAS's dot, whose order a loop does not reproduce
            if spent > budget * (1.0 + _BUDGET_SLACK):
                scale = budget / spent
                p = [power * scale for power in p]
            return PowerAllocation(powers=np.array(p), water_level=mu, chain_costs=a)
        for k in negative:
            active[k] = False
    raise SolverError("water-filling failed to settle on an active set")


def _zero_forcing(insts, phases):
    """The zero-forcing directions through each row's ``phases`` and their water-filling
    allocation: (stacked (B, N, K) directions, one PowerAllocation or error per row).

    The instances share K, N and M, and phases of the wrong length fail the call.  A row
    whose phases are an error keeps it, and a failed row's directions are zero.  Effective
    channels, ``_directions`` and the chain costs ||P f_k||^2 run on stacked rows,
    ``waterfill`` per row; each row gets the bits it gets alone.
    """
    k, n, _ = _Rows(insts).dims
    outcomes, directions = list(phases), np.zeros((len(insts), n, k), dtype=complex)
    rows = [row for row, given in enumerate(phases) if not isinstance(given, Exception)]
    if not rows:
        return directions, outcomes
    part, failed = [insts[row] for row in rows], {}
    for one, row in zip(part, rows):
        _check_phases(one, phases[row])
    directions[rows] = _directions(
        _Rows(part).effective_channels(np.stack([phases[row].phases for row in rows])), failed
    )
    costs, maps = np.zeros((len(rows), k)), [one.power_map for one in part]
    for shape in {p.shape for p in maps}:  # P is (N, N) under TP and (M, N) under RP
        group = [j for j, p in enumerate(maps) if p.shape == shape]
        product = _rows([maps[j] for j in group]) @ directions[[rows[j] for j in group]]
        costs[group] = np.sum(np.abs(product) ** 2, axis=-2)
    for j, (row, one) in enumerate(zip(rows, part)):
        if j in failed:
            outcomes[row] = failed[j]
            continue
        try:
            outcomes[row] = waterfill(one.weights, costs[j], one.noise_power, one.power_budget)
        except SolverError as exc:
            outcomes[row] = exc
    return directions, outcomes


def zfwf_solve(inst, phases: PhaseConfig | None = None):
    """Full pipeline: align phases (unless given), zero-force, water-fill.

    Passing ``phases`` skips the alignment stage and zero-forces through the
    given surface state instead.  A sequence of instances that share K, N and M, with
    a sequence of as many phases or None, is solved in one stacked pass (``_zero_forcing``,
    then ``Solution.from_states``) and gives one Solution, or the error that ended its
    solve, per instance, each with the bits it gets alone; an empty one gives [].  One
    instance is a batch of one (``model._one``).
    """
    if isinstance(inst, SystemInstance):
        return _one(zfwf_solve([inst], [phases]))
    insts = list(inst)
    given = [None] * len(insts) if phases is None else list(phases)
    _check_rows(insts, phases=given)
    aligned = []
    for one, fixed in zip(insts, given):
        try:
            aligned.append(phase_align(one) if fixed is None else fixed)
        except SolverError as exc:
            aligned.append(exc)
    directions, outcomes = _zero_forcing(insts, aligned)
    rows = [row for row, alloc in enumerate(outcomes) if not isinstance(alloc, Exception)]
    if rows:
        allocs = [outcomes[row] for row in rows]
        powers = np.stack([alloc.powers for alloc in allocs])
        solved = Solution.from_states(
            [insts[row] for row in rows],
            np.stack([aligned[row].phases for row in rows]),
            directions[rows] * np.sqrt(powers)[:, np.newaxis, :],
            details=[
                {"water_level": alloc.water_level, "chain_costs": alloc.chain_costs.tolist(),
                 "powers": alloc.powers.tolist()}
                for alloc in allocs
            ],
        )
        for row, solution in zip(rows, solved):
            outcomes[row] = solution
    return outcomes
