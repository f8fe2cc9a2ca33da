"""Phase alignment, zero-forcing directions and the water-filling allocator."""

import re
from dataclasses import replace

import numpy as np
import pytest

from itsbeam import (
    ConstraintKind,
    PhaseConfig,
    PowerAllocation,
    SolverError,
    SolverSettings,
    bcd_solve,
    constraint_value,
    effective_channel,
    phase_align,
    sinr,
    waterfill,
    wsr,
    zf_directions,
    zfwf_solve,
)
from itsbeam.selfcheck import oracle_waterfill
from helpers import complex_normal, make_instance


def numpy_waterfill(weights, chain_costs, noise_power, power_budget):
    """The water-filling routine on numpy arrays that the float ``waterfill`` replaced."""
    w = np.asarray(weights, dtype=float)
    a = np.asarray(chain_costs, dtype=float)
    if w.ndim != 1 or a.shape != w.shape:
        raise SolverError("weights and chain_costs must be 1-D with equal shape")
    if np.any(a <= 0) or not np.all(np.isfinite(a)):
        raise SolverError("chain_costs must be positive and finite")
    if not np.all(np.isfinite(w) & (w >= 0)):
        raise SolverError("weights must be finite and nonnegative")
    if not (0 < noise_power < np.inf and 0 < power_budget < np.inf):
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
            if spent > power_budget * (1.0 + 1e-6):
                powers *= power_budget / spent
            return PowerAllocation(powers=powers, water_level=float(mu), chain_costs=a)
        active &= ~negative
    raise SolverError("water-filling failed to settle on an active set")


def test_phase_align_single_user_sum():
    # With one user the aligned surface turns every product h_m T[m, 0] real
    # and positive, so psi^T v equals sum |v| exactly.
    rng = np.random.default_rng(60)
    inst = make_instance(rng, m=8, n=2, k=1)
    phases = phase_align(inst)
    v = inst.channel[0] * inst.transfer[:, 0]
    combined = np.exp(1j * phases.phases) @ v
    assert abs(combined.imag) < 1e-12 * abs(combined)
    assert abs(combined.real - np.sum(np.abs(v))) < 1e-10 * np.sum(np.abs(v))


def test_phase_align_multi_user_sum():
    rng = np.random.default_rng(61)
    inst = make_instance(rng, m=10, n=4, k=3)
    phases = phase_align(inst)
    v = np.zeros(10, dtype=complex)
    for k in range(3):
        v += inst.channel[k] * inst.transfer[:, k]
    combined = np.exp(1j * phases.phases) @ v
    assert abs(combined - np.sum(np.abs(v))) < 1e-10 * np.sum(np.abs(v))


def test_phase_align_range_and_determinism():
    rng = np.random.default_rng(62)
    inst = make_instance(rng, m=12, n=4, k=4)
    phases = phase_align(inst)
    assert np.all(phases.phases >= 0.0)
    assert np.all(phases.phases < 2.0 * np.pi)
    assert np.array_equal(phases.phases, phase_align(inst).phases)


def test_phase_align_needs_enough_chains():
    rng = np.random.default_rng(63)
    inst = make_instance(rng, m=8, n=2, k=3)
    with pytest.raises(SolverError, match="K <= N"):
        phase_align(inst)


def test_zfwf_with_given_phases_needs_enough_chains():
    # Given phases skip the alignment, so zero-forcing is the stage that refuses K > N.
    rng = np.random.default_rng(65)
    inst = make_instance(rng, m=8, n=2, k=3)
    phases = PhaseConfig(rng.uniform(0.0, 2.0 * np.pi, 8))
    with pytest.raises(SolverError, match="K <= N"):
        zfwf_solve(inst, phases=phases)


def test_phase_align_near_separable_optimum():
    # The heuristic maximizes sum_m |v_m| exactly for the aligned objective;
    # a 64-point per-element sweep around the returned phases finds nothing
    # better than a rounding sliver.
    rng = np.random.default_rng(64)
    for _ in range(5):
        inst = make_instance(rng, m=6, n=3, k=2)
        v = np.zeros(6, dtype=complex)
        for k in range(2):
            v += inst.channel[k] * inst.transfer[:, k]

        def objective(phi):
            return (np.exp(1j * phi) @ v).real

        phi = phase_align(inst).phases
        base = objective(phi)
        grid = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
        for m in range(6):
            trial = np.repeat(phi[None, :], 64, axis=0)
            trial[:, m] = grid
            best = max(objective(row) for row in trial)
            assert best <= base * (1.0 + 1e-9) + 1e-12


def test_zf_directions_identity_channel():
    heff = np.eye(3, dtype=complex)
    directions = zf_directions(heff)
    assert np.allclose(directions, np.eye(3), atol=1e-12)


def test_zf_directions_inverts_channel():
    rng = np.random.default_rng(65)
    for n, k in ((4, 4), (5, 3), (6, 2)):
        heff = complex_normal(rng, k, n)
        directions = zf_directions(heff)
        assert directions.shape == (n, k)
        assert np.max(np.abs(heff @ directions - np.eye(k))) < 1e-9


def test_zf_directions_single_user_matched_filter():
    rng = np.random.default_rng(66)
    heff = complex_normal(rng, 1, 5)
    directions = zf_directions(heff)
    ratio = directions[:, 0] / heff.conj()[0]
    assert np.max(np.abs(ratio - ratio[0])) < 1e-12 * abs(ratio[0])


def test_zf_directions_rank_deficient():
    heff = np.array([[1.0, 2.0], [2.0, 4.0]], dtype=complex)
    with pytest.raises(SolverError, match="rank-deficient"):
        zf_directions(heff)


def test_waterfill_single_user():
    alloc = waterfill(np.array([2.0]), np.array([0.5]), noise_power=0.1, power_budget=3.0)
    assert abs(alloc.powers[0] - 3.0 / 0.5) < 1e-12
    assert alloc.water_level > 0


def test_waterfill_symmetry():
    weights = np.ones(3)
    costs = np.full(3, 0.7)
    alloc = waterfill(weights, costs, noise_power=1e-3, power_budget=2.1)
    assert np.allclose(alloc.powers, alloc.powers[0])
    assert abs(float(costs @ alloc.powers) - 2.1) < 1e-12 * 2.1


def test_waterfill_drops_expensive_user():
    weights = np.array([1.0, 1.0])
    costs = np.array([1.0, 1e9])
    alloc = waterfill(weights, costs, noise_power=1e-2, power_budget=1.0)
    assert alloc.powers[1] == 0.0
    assert abs(alloc.powers[0] - 1.0) < 1e-12


def test_waterfill_rejects_empty_problem():
    with pytest.raises(SolverError):
        waterfill(np.zeros(2), np.ones(2), noise_power=0.1, power_budget=1.0)
    with pytest.raises(SolverError):
        waterfill(np.ones(2), np.ones(2), noise_power=0.1, power_budget=0.0)
    for weights, noise, budget in (
        ([1.0, 1.0], np.nan, 1.0),
        ([1.0, 1.0], 0.1, np.nan),
        ([1.0, 1.0], np.inf, 1.0),
        ([1.0, 1.0], 0.1, np.inf),
        ([1.0, np.nan], 0.1, 1.0),
        ([1.0, np.inf], 0.1, 1.0),
    ):
        with pytest.raises(SolverError):
            waterfill(np.array(weights), np.ones(2), noise_power=noise, power_budget=budget)


def test_waterfill_matches_bisection_oracle():
    rng = np.random.default_rng(67)
    worst = 0.0
    for _ in range(100):
        k = rng.integers(1, 6)
        weights = rng.uniform(0.2, 2.0, k)
        costs = rng.uniform(0.05, 5.0, k)
        budget = rng.uniform(0.5, 20.0)
        noise = 10.0 ** rng.uniform(-4, 0)
        alloc = waterfill(weights, costs, noise_power=noise, power_budget=budget)
        oracle = oracle_waterfill(weights, costs, noise, budget)
        scale = max(np.max(oracle), 1e-12)
        worst = max(worst, np.max(np.abs(alloc.powers - oracle)) / scale)
        assert abs(float(costs @ alloc.powers) - budget) < 1e-9 * budget
        assert np.all(alloc.powers >= 0.0)
    assert worst < 1e-6


def test_waterfill_scales_an_overspent_allocation_onto_the_budget():
    # Chain costs of a far no-surface drop: sigma^2 sum a is about 3e11 budgets,
    # so w / (mu a) - sigma^2 cancels and the closed form overspends by 2.9e-5.
    costs = np.array([
        2.7323398570004788e20, 9.183204816927548e20, 1.1400573331777857e20, 2.6491849920875597e18,
    ])
    alloc = waterfill(np.ones(4), costs, 1e-7, 1.0)
    assert np.count_nonzero(alloc.powers) == 1
    assert abs(float(costs @ alloc.powers) - 1.0) <= 1e-12


def test_waterfill_kkt_ratios():
    # Funded users share the marginal utility w_k / (a_k (p_k + sigma^2)),
    # which equals the water level; dropped users sit at or below it already
    # at zero power.
    rng = np.random.default_rng(68)
    for _ in range(20):
        k = rng.integers(2, 6)
        weights = rng.uniform(0.2, 2.0, k)
        costs = rng.uniform(0.05, 5.0, k)
        budget = rng.uniform(0.5, 5.0)
        noise = 0.01
        alloc = waterfill(weights, costs, noise_power=noise, power_budget=budget)
        level = alloc.water_level
        active = alloc.powers > 0
        mu = weights[active] / (costs[active] * (alloc.powers[active] + noise))
        assert np.max(np.abs(mu - level)) < 1e-6 * level
        if np.any(~active):
            assert np.all(
                weights[~active] / (costs[~active] * noise) <= level * (1 + 1e-9)
            )


def test_zfwf_solve_interference_free():
    rng = np.random.default_rng(69)
    for constraint in ConstraintKind:
        inst = make_instance(rng, m=10, n=4, k=4, constraint=constraint)
        sol = zfwf_solve(inst)
        heff = effective_channel(inst, sol.phases)
        cross = heff @ sol.precoder.matrix
        off_diag = cross - np.diag(np.diag(cross))
        assert np.max(np.abs(off_diag)) < 1e-6 * max(np.max(np.abs(cross)), 1e-30)


def test_zfwf_solve_sinr_is_power_over_noise():
    rng = np.random.default_rng(70)
    inst = make_instance(rng, m=10, n=4, k=3, noise_power=0.05)
    sol = zfwf_solve(inst)
    powers = np.asarray(sol.detail["powers"])
    assert np.allclose(sol.sinr, powers / 0.05, rtol=1e-9)
    assert np.allclose(sol.sinr, sinr(inst, sol.phases, sol.precoder), rtol=1e-6)


def test_zfwf_solve_spends_entire_budget():
    rng = np.random.default_rng(71)
    for constraint in ConstraintKind:
        inst = make_instance(rng, m=10, n=4, k=4, constraint=constraint, power_budget=0.8)
        sol = zfwf_solve(inst)
        used = constraint_value(inst, sol.precoder)
        assert abs(used - 0.8) < 1e-9 * 0.8
        assert sol.constraint_slack >= -1e-12


def test_chain_costs_are_column_powers_of_the_power_map():
    # TP: ||I f_k||^2 is ||f_k||^2 bit for bit.  RP: ||T f_k||^2 is the radiated ||D T f_k||^2.
    rng = np.random.default_rng(76)
    for constraint in ConstraintKind:
        inst = make_instance(rng, m=10, n=4, k=4, constraint=constraint)
        sol = zfwf_solve(inst)
        directions = zf_directions(effective_channel(inst, sol.phases))
        costs = np.asarray(sol.detail["chain_costs"])
        if constraint is ConstraintKind.TRANSMITTED_POWER:
            assert np.array_equal(costs, np.sum(np.abs(directions) ** 2, axis=0))
        else:
            radiated = sol.phases.phasor()[:, np.newaxis] * (inst.transfer @ directions)
            assert np.allclose(costs, np.sum(np.abs(radiated) ** 2, axis=0), rtol=1e-12, atol=0)


def test_zfwf_solve_wsr_consistency():
    rng = np.random.default_rng(72)
    inst = make_instance(rng, m=10, n=4, k=4)
    sol = zfwf_solve(inst)
    assert abs(sol.wsr - wsr(inst, sol.phases, sol.precoder)) < 1e-6 * sol.wsr
    assert abs(sol.wsr - float(inst.weights @ np.log2(1.0 + sol.sinr))) < 1e-9 * sol.wsr


def test_zfwf_solve_honors_given_phases():
    rng = np.random.default_rng(73)
    inst = make_instance(rng, m=10, n=4, k=3)
    fixed = PhaseConfig(rng.uniform(0.0, 2.0 * np.pi, 10))
    sol = zfwf_solve(inst, phases=fixed)
    assert np.array_equal(sol.phases.phases, fixed.phases)
    heff = effective_channel(inst, fixed)
    cross = heff @ sol.precoder.matrix
    off_diag = cross - np.diag(np.diag(cross))
    assert np.max(np.abs(off_diag)) < 1e-6 * np.max(np.abs(cross))


def test_zfwf_detail_fields():
    rng = np.random.default_rng(74)
    inst = make_instance(rng, m=10, n=4, k=3)
    sol = zfwf_solve(inst)
    assert set(sol.detail) >= {"water_level", "chain_costs", "powers"}
    assert len(sol.detail["powers"]) == 3
    assert sol.detail["water_level"] > 0


def test_bcd_from_zfwf_never_loses():
    rng = np.random.default_rng(75)
    for constraint in ConstraintKind:
        for _ in range(3):
            inst = make_instance(rng, m=8, n=3, k=3, constraint=constraint, power_budget=1.0)
            init = zfwf_solve(inst)
            refined = bcd_solve(inst, SolverSettings(), init)
            assert refined.wsr >= init.wsr - 1e-9


def test_float_waterfill_matches_the_numpy_routine_bit_for_bit():
    # K = 1-16 covers numpy's left-to-right sums below 8 terms and its 8 accumulators
    # from 8 on; zero weights, users dropped over several rounds, and costs spread over
    # 30 decades that overspend and take the rescale branch.
    rng = np.random.default_rng(77)
    seen = {"zero weight": 0, "dropped": 0, "rescaled": 0}
    for index in range(4000):
        k = 1 + index % 16
        weights = rng.uniform(0.1, 2.0, k) * (rng.uniform(size=k) > 0.15)
        weights[rng.integers(k)] = rng.uniform(0.1, 2.0)
        costs = 10.0 ** rng.uniform(-3, 3 if index % 4 else 21, k)
        noise = 10.0 ** rng.uniform(-7, 0)
        budget = 10.0 ** rng.uniform(-1, 2)
        try:
            expected = numpy_waterfill(weights, costs, noise, budget)
        except SolverError as exc:
            with pytest.raises(SolverError, match="^" + re.escape(str(exc)) + "$"):
                waterfill(weights, costs, noise, budget)
            continue
        alloc = waterfill(weights, costs, noise, budget)
        assert np.array_equal(alloc.powers, expected.powers)
        assert alloc.water_level == expected.water_level
        assert np.array_equal(alloc.chain_costs, expected.chain_costs)
        unscaled = np.where(weights > 0, weights / (alloc.water_level * costs) - noise, 0.0)
        seen["zero weight"] += bool(np.any(weights == 0))
        seen["dropped"] += bool(np.any((weights > 0) & (alloc.powers == 0)))
        seen["rescaled"] += float(costs @ np.clip(unscaled, 0, None)) > budget * (1 + 1e-6)
    assert min(seen.values()) >= 20, seen


def test_float_waterfill_raises_the_numpy_routine_errors():
    cases = [
        (np.ones((2, 2)), np.ones((2, 2)), 0.1, 1.0),
        (np.ones(2), np.ones(3), 0.1, 1.0),
        (np.ones(2), np.array([1.0, 0.0]), 0.1, 1.0),
        (np.ones(2), np.array([1.0, np.nan]), 0.1, 1.0),
        (np.ones(2), np.array([1.0, np.inf]), 0.1, 1.0),
        (np.array([1.0, -1.0]), np.ones(2), 0.1, 1.0),
        (np.array([1.0, np.nan]), np.ones(2), 0.1, 1.0),
        (np.ones(2), np.ones(2), np.nan, 1.0),
        (np.ones(2), np.ones(2), 0.1, np.inf),
        (np.ones(2), np.ones(2), 0.1, 0.0),
        (np.zeros(3), np.ones(3), 0.1, 1.0),
    ]
    for case in cases:
        with pytest.raises(SolverError) as expected:
            numpy_waterfill(*case)
        with pytest.raises(SolverError, match="^" + re.escape(str(expected.value)) + "$"):
            waterfill(*case)


def test_waterfill_level_of_zero_is_a_solver_error():
    # sigma^2 sum a overflows, so mu = 0; or mu a_k underflows to 0.  Either would divide
    # by zero in w_k / (mu a_k).
    for case in (([1, 1], [1e300, 1], 1e10, 1.0), ([1, 1], [1e-300, 1e-300], 1e-7, 1e300)):
        with pytest.raises(SolverError, match="not finite and positive or mu \\* a_k is 0"):
            waterfill(*case)


def test_waterfill_drops_a_user_whose_level_overflows():
    # mu = 1e9 is finite but mu a_0 = 1e309 overflows: p_0 = w_0 / inf - sigma^2 < 0, so
    # user 0 is dropped and the budget goes to user 1, as any negative allocation is.
    alloc = waterfill([1e9, 1e9], [1e300, 1.0], 1e-300, 1.0)
    assert alloc.powers.tolist() == [0.0, 1.0] and alloc.water_level == 1e9


def test_batched_zfwf_solve_equals_solves_alone():
    # One stacked call over both constraints, given and aligned phases, a rank-deficient
    # row (two users on one channel) and a row whose water level is zero (noise power
    # 1e308): each row's Solution equals its solve alone bit for bit, and each failed row
    # holds the error that its solve alone raises.
    rng = np.random.default_rng(78)
    insts = [
        make_instance(rng, m=10, n=4, k=3, constraint=list(ConstraintKind)[index % 2])
        for index in range(6)
    ]
    channel = insts[2].channel.copy()
    channel[1] = channel[0]
    insts[2] = replace(insts[2], channel=channel)
    phases = [None, PhaseConfig(rng.uniform(0.0, 2.0 * np.pi, 10)), None,
              None, PhaseConfig(np.zeros(10)), PhaseConfig(rng.uniform(0.0, 2.0 * np.pi, 10))]
    insts.append(make_instance(rng, m=10, n=4, k=3, noise_power=1e308))
    phases.append(None)
    batch = zfwf_solve(insts, phases)
    for inst, given, together in zip(insts, phases, batch):
        try:
            alone = zfwf_solve(inst, given)
        except Exception as exc:  # noqa: BLE001 - the row must hold the same error
            assert type(together) is type(exc) and str(together) == str(exc)
            continue
        assert np.array_equal(alone.phases.phases, together.phases.phases)
        assert np.array_equal(alone.precoder.matrix, together.precoder.matrix)
        assert np.array_equal(alone.sinr, together.sinr)
        assert np.array_equal(alone.spectral_efficiency, together.spectral_efficiency)
        assert alone.wsr == together.wsr and alone.trace == together.trace
        assert alone.constraint_slack == together.constraint_slack
        assert alone.detail == together.detail
    assert [row for row, sol in enumerate(batch) if isinstance(sol, Exception)] == [2, 6]
    assert "rank-deficient" in str(batch[2])
    assert type(batch[6]) is SolverError and str(batch[6]).startswith("water level 0.0 is not")


def test_empty_batch_gives_no_outcomes():
    # An empty batch is no error, for either solver.
    assert zfwf_solve([]) == [] and zfwf_solve([], []) == []
    assert bcd_solve([], SolverSettings(), []) == []
