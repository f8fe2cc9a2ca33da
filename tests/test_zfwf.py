"""Phase alignment, zero-forcing directions and the water-filling allocator."""

import numpy as np
import pytest

from itsbeam import (
    ConstraintKind,
    PhaseConfig,
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
