"""FP surrogate identities, gradient/KKT oracles and the BCD solver loop."""

import copy
from dataclasses import fields, replace

import numpy as np
import pytest

from itsbeam import (
    AnalogSubproblem,
    AuxVariables,
    ConstraintKind,
    DimensionMismatchError,
    IlluminationMode,
    PhaseConfig,
    Precoder,
    Solution,
    SolverError,
    SolverSettings,
    SweepKind,
    SystemInstance,
    analog_objective,
    analog_objective_and_gradient,
    bcd_solve,
    build_analog_subproblem,
    constraint_value,
    default_experiment_spec,
    dual_search,
    effective_channel,
    sinr,
    surrogate_objective,
    update_gamma,
    update_y,
    wsr,
    zfwf_solve,
)
from itsbeam import wmmse
from itsbeam.harness import _bcd_init, trial
from itsbeam.wmmse import (
    _Batch,
    _kept,
    _pga,
    _power_curve,
    _precoder_system,
    _spectrum,
    _unchecked,
)
from itsbeam.selfcheck import optimal_aux, oracle_phase_gradient
from helpers import complex_normal, make_instance, random_aux, random_phases, random_precoder


def test_update_gamma_matches_sinr():
    rng = np.random.default_rng(30)
    for _ in range(5):
        inst = make_instance(rng, m=6, n=3, k=3)
        phases = random_phases(rng, 6)
        prec = random_precoder(rng, 3, 3)
        assert np.allclose(update_gamma(inst, phases, prec), sinr(inst, phases, prec), rtol=1e-12)


def test_update_y_zero_signal():
    rng = np.random.default_rng(31)
    inst = make_instance(rng, m=6, n=3, k=3)
    prec = Precoder(np.zeros((3, 3), dtype=complex))
    phases = random_phases(rng, 6)
    gamma = update_gamma(inst, phases, prec)
    assert np.allclose(update_y(inst, phases, prec, gamma), 0.0)


def test_update_y_scalar_case():
    rng = np.random.default_rng(32)
    inst = make_instance(rng, m=4, n=1, k=1, noise_power=0.3, weights=[1.7])
    phases = random_phases(rng, 4)
    prec = random_precoder(rng, 1, 1)
    f = complex(effective_channel(inst, phases)[0] @ prec.matrix[:, 0])
    gamma = abs(f) ** 2 / 0.3
    expected = np.sqrt(1.7 * (1.0 + gamma)) * f / (0.3 + abs(f) ** 2)
    y = update_y(inst, phases, prec, np.array([gamma]))
    assert abs(y[0] - expected) < 1e-12 * abs(expected)


def test_fp_identity_at_optimal_aux():
    rng = np.random.default_rng(33)
    for _ in range(25):
        inst = make_instance(rng, m=8, n=3, k=3)
        phases = random_phases(rng, 8)
        prec = random_precoder(rng, 3, 3)
        aux = optimal_aux(inst, phases, prec)
        f0 = wsr(inst, phases, prec)
        f1 = surrogate_objective(inst, phases, prec, aux)
        assert abs(f1 - f0) < 1e-9 * max(f0, 1e-12)


def test_surrogate_never_exceeds_wsr():
    # f1 lower-bounds f0 for any auxiliaries; equality only at the optimum.
    rng = np.random.default_rng(34)
    for _ in range(10):
        inst = make_instance(rng, m=6, n=3, k=3)
        phases = random_phases(rng, 6)
        prec = random_precoder(rng, 3, 3)
        aux = random_aux(rng, 3)
        assert surrogate_objective(inst, phases, prec, aux) <= wsr(inst, phases, prec) + 1e-9


def test_analog_subproblem_zero_precoder():
    rng = np.random.default_rng(35)
    inst = make_instance(rng, m=6, n=3, k=3)
    aux = random_aux(rng, 3)
    sub = build_analog_subproblem(inst, Precoder(np.zeros((3, 3), dtype=complex)), aux)
    assert np.allclose(sub.linear_term, 0.0)
    assert np.allclose(sub.quadratic_term, 0.0)


def test_analog_subproblem_single_user_rank_one():
    rng = np.random.default_rng(36)
    inst = make_instance(rng, m=6, n=2, k=1)
    aux = random_aux(rng, 1)
    sub = build_analog_subproblem(inst, random_precoder(rng, 2, 1), aux)
    eigvals = np.linalg.eigvalsh(sub.quadratic_term)
    assert eigvals[-1] > 0
    assert np.all(np.abs(eigvals[:-1]) < 1e-12 * eigvals[-1])


def test_analog_subproblem_hermitian_psd():
    rng = np.random.default_rng(37)
    for _ in range(5):
        inst = make_instance(rng, m=7, n=3, k=3)
        sub = build_analog_subproblem(inst, random_precoder(rng, 3, 3), random_aux(rng, 3))
        u = sub.quadratic_term
        assert np.max(np.abs(u - u.conj().T)) < 1e-10 * np.linalg.norm(u)
        assert np.linalg.eigvalsh(u)[0] > -1e-8 * np.linalg.norm(u)


def test_analog_factor_matches_dense_quadratic_form():
    # The factor A must reproduce U = sum_k |y_k|^2 sum_i conj(a_ki) a_ki^T,
    # and the objective must equal 2 Re{psi^H nu} - psi^H U psi with that U.
    rng = np.random.default_rng(43)
    for _ in range(10):
        m, n, k = 12, 3, 4
        inst = make_instance(rng, m=m, n=n, k=k)
        prec = random_precoder(rng, n, k)
        aux = random_aux(rng, k)
        sub = build_analog_subproblem(inst, prec, aux)
        paths = inst.channel[:, np.newaxis, :] * (inst.transfer @ prec.matrix).T[np.newaxis]
        u = np.einsum("k,kim,kin->mn", np.abs(aux.y) ** 2, np.conj(paths), paths)
        assert np.linalg.norm(sub.quadratic_term - u) <= 1e-12 * np.linalg.norm(u)
        phases = random_phases(rng, m)
        psi = phases.phasor()
        linear = 2.0 * np.real(np.vdot(psi, sub.linear_term))
        quad = np.real(np.vdot(psi, u @ psi))
        assert abs(analog_objective(sub, phases) - (linear - quad)) <= 1e-12 * (abs(linear) + quad)


def test_subproblem_expansion_matches_surrogate():
    # The phase-dependent part of f1 is exactly 2 Re{psi^H nu} - psi^H U psi
    # minus the constant sigma^2 sum |y|^2.
    rng = np.random.default_rng(38)
    for _ in range(5):
        inst = make_instance(rng, m=6, n=3, k=3)
        prec = random_precoder(rng, 3, 3)
        aux = random_aux(rng, 3)
        sub = build_analog_subproblem(inst, prec, aux)
        phases = random_phases(rng, 6)
        f1 = surrogate_objective(inst, phases, prec, aux)
        constant = (
            float(inst.weights @ np.log2(1.0 + aux.gamma))
            - float(inst.weights @ aux.gamma)
            - inst.noise_power * float(np.sum(np.abs(aux.y) ** 2))
        )
        assert abs(analog_objective(sub, phases) + constant - f1) < 1e-9


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(39)
    worst = 0.0
    for _ in range(100):
        inst = make_instance(rng, m=6, n=3, k=3)
        sub = build_analog_subproblem(inst, random_precoder(rng, 3, 3), random_aux(rng, 3))
        phases = PhaseConfig(rng.uniform(0.0, 2.0 * np.pi, 6))
        _, grad = analog_objective_and_gradient(sub, phases)
        worst = max(worst, float(np.max(np.abs(oracle_phase_gradient(sub, phases) - grad))))
    assert worst < 1e-5


def test_gradient_zero_at_aligned_phases():
    nu = np.array([2.5 + 0.0j, 0.0, 0.0])
    sub = AnalogSubproblem(linear_term=nu, factor=np.zeros((0, 3)))
    value, grad = analog_objective_and_gradient(sub, PhaseConfig(np.zeros(3)))
    assert abs(value - 5.0) < 1e-12
    assert np.allclose(grad, 0.0, atol=1e-12)


def test_pga_linear_term_alignment():
    rng = np.random.default_rng(40)
    nu = complex_normal(rng, 8)
    sub = AnalogSubproblem(linear_term=nu, factor=np.zeros((0, 8)))
    # Twenty iterations: the default cap stops short of the 1e-4 rad alignment.
    settings = SolverSettings(pga_max_iters=20)
    phases = _pga(sub, PhaseConfig(rng.uniform(0, 2 * np.pi, 8)), settings)[0]
    best = 2.0 * float(np.sum(np.abs(nu)))
    assert analog_objective(sub, phases) > (1.0 - 1e-8) * best
    err = np.angle(np.exp(1j * (phases.phases - np.angle(nu))))
    assert np.max(np.abs(err)) < 1e-4


def test_pga_never_decreases_objective():
    rng = np.random.default_rng(41)
    settings = SolverSettings(pga_max_iters=1)
    for _ in range(5):
        inst = make_instance(rng, m=6, n=3, k=3)
        sub = build_analog_subproblem(inst, random_precoder(rng, 3, 3), random_aux(rng, 3))
        phases = random_phases(rng, 6)
        value = analog_objective(sub, phases)
        for _ in range(20):
            phases = _pga(sub, phases, settings)[0]
            new_value = analog_objective(sub, phases)
            assert new_value >= value - 1e-12
            value = new_value


def objective_terms(sub, psi):
    a_psi = sub.factor @ psi
    value = 2.0 * np.real(np.vdot(psi, sub.linear_term)) - np.real(np.vdot(a_psi, a_psi))
    return float(value), a_psi


def phase_gradient(sub, psi, a_psi):
    u_psi = np.conj(np.conj(a_psi) @ sub.factor)
    return 2.0 * np.real(-1j * np.conj(psi) * (sub.linear_term - u_psi))


def retract(psi, tau, direction):
    """(psi + tau xi) / |psi + tau xi| with xi = j d psi: psi (c + j u c),
    u = tau d, c = 1 / sqrt(1 + u^2)."""
    turn = tau * direction
    scale = 1.0 / np.sqrt(turn * turn + 1.0)
    return psi * (scale + 1j * (turn * scale))


def returned_phases(start, psi, steps):
    """The angles of psi mod 2 pi after a step; the start phases mod 2 pi after none."""
    return PhaseConfig(np.mod(np.angle(psi) if steps else start, 2.0 * np.pi))


def full_backtracking_pga(sub, phases_init, settings):
    """Steepest ascent with every Armijo search started at the ladder's top step.

    The phase block before L-BFGS, at its cap of 50 steps, gained what this
    gains; it is the quality reference of the L-BFGS block.
    """
    phi = np.mod(phases_init.phases, 2.0 * np.pi)
    psi = np.exp(1j * phi)
    value, a_psi = objective_terms(sub, psi)
    steps, evals = 0, 1
    for _ in range(settings.pga_max_iters):
        grad = phase_gradient(sub, psi, a_psi)
        grad_sq = float(grad @ grad)
        for tau in wmmse._LADDER:
            cand_psi = retract(psi, tau, grad)
            cand_value, cand_a_psi = objective_terms(sub, cand_psi)
            evals += 1
            if cand_value - value >= wmmse._ARMIJO_ZETA * tau * grad_sq:
                break
        else:
            break
        improvement = cand_value - value
        psi, value, a_psi = cand_psi, cand_value, cand_a_psi
        steps += 1
        if improvement <= 0.0:
            break
    return returned_phases(phi, psi, steps), steps, evals


def empty_memory(size):
    m = wmmse._MEMORY
    return {
        "pairs": np.zeros((2 * m, size)), "r_inv": np.eye(m), "yty": np.zeros((m, m)),
        "sy": np.zeros(m), "gamma": 1.0, "slot": 0,
    }


def remember(memory, s, y):
    """Put (s, y) in the slot of the oldest pair and give R^-1 its new column."""
    m, at = wmmse._MEMORY, memory["slot"]
    pairs, r_inv, yty, sy = memory["pairs"], memory["r_inv"], memory["yty"], np.vdot(s, y)
    pairs[at], pairs[m + at] = s, y
    r_inv[at, :] = r_inv[:, at] = 0.0
    col = pairs @ y  # S^T y, Y^T y
    column = -(1.0 / sy) * (r_inv @ col[:m])
    column[at] = 1.0 / sy
    r_inv[:, at], yty[at, :], yty[:, at] = column, col[m:], col[m:]
    memory["sy"][at], memory["gamma"] = sy, sy / col[m + at]
    memory["slot"] = (at + 1) % m


def lbfgs_direction(memory, grad):
    """H g in the compact form: gamma g + S p - gamma Y w."""
    m, pairs, r_inv, gamma = wmmse._MEMORY, memory["pairs"], memory["r_inv"], memory["gamma"]
    proj = pairs @ grad  # S^T g, Y^T g
    w = r_inv @ proj[:m]
    c = memory["sy"] * w + gamma * (memory["yty"] @ w - proj[m:])
    return gamma * grad + np.concatenate([c @ r_inv, -gamma * w]) @ pairs


def per_instance_pga(sub, phases_init, settings, record=None):
    """The L-BFGS phase block on one instance, with one np.vdot per dot product.

    Returns (phases, steps, evals, stop), stop being "cap", "flat" (a flat
    accept) or "no_step" (no ladder step passes).  ``record``, a list, gets one
    dict per iteration: the gradient, direction and slope g^T d; from the second
    iteration on, s^T y of the pair offered and copies of the memory before and
    after it; and for an accepted step tau, psi and the value before and after.
    """
    phi = np.mod(phases_init.phases, 2.0 * np.pi)
    psi = np.exp(1j * phi)
    value, a_psi = objective_terms(sub, psi)
    memory = empty_memory(psi.size)
    steps, evals, stop = 0, 1, "cap"
    for iteration in range(settings.pga_max_iters):
        grad = phase_gradient(sub, psi, a_psi)
        entry = {}
        if iteration:
            y = grad_old - grad
            entry.update(sy=np.vdot(s, y), before=copy.deepcopy(memory))
            if entry["sy"] > 0.0:
                remember(memory, s, y)
            entry["after"] = copy.deepcopy(memory)
        direction = lbfgs_direction(memory, grad)
        slope = np.vdot(grad, direction)
        if not slope > 0.0:
            direction, slope, memory = grad, np.vdot(grad, grad), empty_memory(psi.size)
        entry.update(grad=grad, direction=direction, slope=slope)
        if record is not None:
            record.append(entry)
        for tau in wmmse._LADDER:
            cand_psi = retract(psi, tau, direction)
            cand_value, cand_a_psi = objective_terms(sub, cand_psi)
            evals += 1
            if cand_value - value >= wmmse._ARMIJO_ZETA * tau * slope:
                break
        else:
            stop = "no_step"
            break
        entry.update(tau=tau, before_psi=psi, after_psi=cand_psi, value=value, new_value=cand_value)
        s, grad_old = np.arctan(tau * direction), grad
        improvement, value = cand_value - value, cand_value
        psi, a_psi = cand_psi, cand_a_psi
        steps += 1
        if improvement <= 0.0:
            stop = "flat"
            break
    return returned_phases(phi, psi, steps), steps, evals, stop


def test_pga_outgains_full_backtracking_on_reference_trials():
    # L-BFGS at a cap of 20 iterations against steepest ascent at the former cap
    # of 50 steps, on 18 subproblems: every gain at least as large.
    # The former block warm-started its searches and took about a third of full
    # backtracking's evaluations here; L-BFGS takes at most a tenth of them.
    subs, starts, settings = reference_subproblems(6)
    assert settings.pga_max_iters == 20
    ladder = replace(settings, pga_max_iters=50)
    evals = ladder_evals = 0
    for sub, start in zip(subs, starts):
        phases, _, count = _pga(sub, start, settings)
        reference, _, ladder_count = full_backtracking_pga(sub, start, ladder)
        base = analog_objective(sub, start)
        assert analog_objective(sub, phases) - base >= analog_objective(sub, reference) - base
        evals, ladder_evals = evals + count, ladder_evals + ladder_count
    assert 10 * evals <= ladder_evals


def stack(subs):
    return AnalogSubproblem(
        linear_term=np.stack([sub.linear_term for sub in subs]),
        factor=np.stack([sub.factor for sub in subs]),
    )


def assert_stacked_pga_matches_per_instance(subs, starts, settings):
    """The stacked block on the whole batch and on a reversed half of it, row by row."""
    oracle = [per_instance_pga(sub, start, settings) for sub, start in zip(subs, starts)]
    half = list(range(len(subs)))[::-2]
    for rows in (list(range(len(subs))), half):
        phases, steps, evals = _pga(
            stack([subs[r] for r in rows]), np.stack([starts[r].phases for r in rows]), settings
        )
        for j, row in enumerate(rows):
            assert np.array_equal(phases[j], oracle[row][0].phases)
            assert (steps[j], evals[j]) == oracle[row][1:3]
    return oracle


def reference_subproblems(trials):
    """Phase subproblems of the reference RP setup at 40 dBm, with their start phases:
    from the harness's zero-forcing start and after each of two BCD iterations.  The
    block runs, and the settings returned hold, a cap of 20 iterations."""
    spec = default_experiment_spec(SweepKind.POWER, ConstraintKind.RADIATED_POWER)
    settings = SolverSettings(pga_max_iters=20)
    subs, starts = [], []
    for index in range(trials):
        state = trial(spec, 40.0, index)
        inst = state.instance(IlluminationMode.FULL)
        (start,) = _bcd_init([inst], [state.zfwf(IlluminationMode.FULL).phases])
        phases, precoder = start.phases, start.precoder
        for _ in range(3):
            aux = optimal_aux(inst, phases, precoder)
            subs.append(build_analog_subproblem(inst, precoder, aux))
            starts.append(phases)
            phases = per_instance_pga(subs[-1], phases, settings)[0]
            precoder = dual_search(inst, phases, aux)[0]
    return subs, starts, settings


def test_stacked_pga_matches_per_instance_on_reference_trials():
    # The reference subproblems of four trials, solved as one batch.
    subs, starts, settings = reference_subproblems(4)
    oracle = assert_stacked_pga_matches_per_instance(subs, starts, settings)
    for sub, start, expected in zip(subs, starts, oracle):  # each as a batch of one
        phases, steps, evals = _pga(sub, start, settings)
        assert np.array_equal(phases.phases, expected[0].phases)
        assert (steps, evals) == expected[1:3]


def test_default_phase_cap_binds_at_the_reference_point():
    # A default solve of a reference RP trial at 30 dBm: no phase block runs past
    # the cap and some block stops at it; with the phases frozen none runs.
    spec = default_experiment_spec(SweepKind.POWER, ConstraintKind.RADIATED_POWER)
    state = trial(spec, 30.0, 0)
    inst = state.instance(IlluminationMode.FULL)
    (start,) = _bcd_init([inst], [state.zfwf(IlluminationMode.FULL).phases])
    cap = SolverSettings().pga_max_iters
    steps = [row["pga_steps"] for row in bcd_solve(inst, SolverSettings(), start).detail]
    assert max(steps) == cap
    frozen = bcd_solve(inst, SolverSettings(freeze_phases=True), start)
    assert [row["pga_steps"] for row in frozen.detail] == [0] * len(frozen.detail)


def test_stacked_pga_rows_stop_alone():
    # One batch whose rows stop at different iterations: at the cap, on a flat
    # accept, with no passing step, and a non-finite row that takes no step.
    rng = np.random.default_rng(68)
    m, r = 8, 4
    settings = SolverSettings(pga_max_iters=20)  # at the default cap no row walks the whole ladder
    zero = np.zeros((r, m))
    rows = [(complex_normal(rng, m), complex_normal(rng, r, m) / np.sqrt(m)) for _ in range(5)]
    starts = [rng.uniform(0.0, 2.0 * np.pi, m) for _ in rows]
    # Zero phases are exactly stationary for a real positive nu: a flat accept.
    rows.append((np.abs(complex_normal(rng, m)) + 0j, zero))
    starts.append(np.zeros(m))
    for _ in range(3):  # linear terms only, which the ascent aligns to within roundoff
        rows.append((complex_normal(rng, m), zero))
        starts.append(rng.uniform(0.0, 2.0 * np.pi, m))
    nu = complex_normal(rng, m)
    nu[2] = np.nan
    rows.append((nu, complex_normal(rng, r, m)))
    starts.append(rng.uniform(0.0, 2.0 * np.pi, m))
    subs = [AnalogSubproblem(linear_term=nu, factor=a) for nu, a in rows]
    starts = [PhaseConfig(start) for start in starts]
    with np.errstate(invalid="ignore"):
        oracle = assert_stacked_pga_matches_per_instance(subs, starts, settings)
    stops = [stop for _, _, _, stop in oracle]
    assert {"cap", "flat", "no_step"} <= set(stops[:-1])
    assert len({steps for _, steps, _, _ in oracle}) >= 4
    assert oracle[-1][1:] == (0, 1 + len(wmmse._LADDER), "no_step")
    assert np.array_equal(oracle[-1][0].phases, starts[-1].phases)


def test_accepted_steps_pass_armijo_and_never_descend():
    # The steps the oracle records, which is the block bit for bit: each goes
    # along an ascent direction (g^T d > 0), passes the Armijo test at a ladder
    # step and does not lower the objective.
    rng = np.random.default_rng(60)
    settings = SolverSettings()
    for _ in range(8):
        inst = make_instance(rng, m=6, n=3, k=3)
        sub = build_analog_subproblem(inst, random_precoder(rng, 3, 3), random_aux(rng, 3))
        init = random_phases(rng, 6)
        record = []
        expected, expected_steps, _, _ = per_instance_pga(sub, init, settings, record)
        phases, steps, _ = _pga(sub, init, settings)
        assert np.array_equal(phases.phases, expected.phases)
        taken = [entry for entry in record if "tau" in entry]
        assert steps == expected_steps == len(taken) > 0
        for entry in taken:
            assert entry["tau"] in wmmse._LADDER
            assert entry["slope"] == np.vdot(entry["grad"], entry["direction"]) > 0.0
            assert entry["new_value"] >= entry["value"]
            gain = entry["new_value"] - entry["value"]
            assert gain >= wmmse._ARMIJO_ZETA * entry["tau"] * entry["slope"]


def test_pair_without_curvature_leaves_memory_unchanged():
    # Where f3 curves the wrong way along a step, s^T y <= 0 and the pair is not
    # kept: the oracle's memory after it equals the memory before, and every
    # kept pair changes it.  The block matches the oracle bit for bit on these
    # subproblems, so it skips the same pairs.
    rng = np.random.default_rng(70)
    settings = SolverSettings(pga_max_iters=20)  # at the default cap every pair offered is kept
    subs, starts, skipped = [], [], 0
    for _ in range(40):
        inst = make_instance(rng, m=6, n=3, k=3)
        subs.append(build_analog_subproblem(inst, random_precoder(rng, 3, 3), random_aux(rng, 3)))
        starts.append(random_phases(rng, 6))
        record = []
        per_instance_pga(subs[-1], starts[-1], settings, record)
        for entry in record[1:]:
            before, after = entry["before"], entry["after"]
            unchanged = all(np.array_equal(before[key], after[key]) for key in before)
            assert unchanged == (not entry["sy"] > 0.0)
            skipped += unchanged
    assert skipped >= 3
    oracle = assert_stacked_pga_matches_per_instance(subs, starts, settings)
    for sub, start, expected in zip(subs, starts, oracle):  # each as a batch of one
        phases, steps, evals = _pga(sub, start, settings)
        assert np.array_equal(phases.phases, expected[0].phases)
        assert (steps, evals) == expected[1:3]


def test_retraction_keeps_unit_modulus_and_steps_by_arctan(monkeypatch):
    # Every point the block evaluates lies on |psi_m| = 1, and each step (read off
    # the oracle, which is the block bit for bit) turns phase m by atan(tau d_m).
    subs, starts, settings = reference_subproblems(2)
    points = []

    def spy(nu, factor, psi):
        points.append(psi.copy())
        return objective_terms_of_block(nu, factor, psi)

    objective_terms_of_block = wmmse._objective_terms
    monkeypatch.setattr(wmmse, "_objective_terms", spy)
    for sub, start in zip(subs, starts):
        points.clear()
        phases, steps, evals = _pga(sub, start, settings)
        assert sum(len(point) for point in points) == evals
        assert max(np.max(np.abs(np.abs(point) - 1.0)) for point in points) <= 1e-13
        record = []
        expected = per_instance_pga(sub, start, settings, record)
        assert np.array_equal(phases.phases, expected[0].phases)
        taken = [entry for entry in record if "tau" in entry]
        assert steps == len(taken) > 0
        for entry in taken:
            # wrapped to (-pi, pi]
            turn = np.angle(entry["after_psi"] * np.conj(entry["before_psi"]))
            assert np.max(np.abs(turn - np.arctan(entry["tau"] * entry["direction"]))) <= 1e-12
            assert entry["new_value"] >= entry["value"]


def test_precoder_system_scalar_case():
    rng = np.random.default_rng(42)
    inst = make_instance(rng, m=4, n=1, k=1, weights=[1.3])
    phases = random_phases(rng, 4)
    heff = effective_channel(inst, phases)
    h = complex(heff[0, 0])
    aux = AuxVariables(gamma=np.array([0.8]), y=np.array([0.4 - 0.6j]))
    gram, rhs = _precoder_system(inst, heff, aux)
    prec = np.linalg.solve(gram, rhs)
    expected = np.sqrt(1.3 * 1.8) * aux.y[0] * np.conj(h) / (abs(aux.y[0]) ** 2 * abs(h) ** 2)
    assert abs(prec[0, 0] - expected) < 1e-10 * abs(expected)


def test_regularised_precoder_shrinks_with_mu():
    rng = np.random.default_rng(43)
    for constraint in ConstraintKind:
        inst = make_instance(rng, m=6, n=3, k=3, constraint=constraint)
        phases = random_phases(rng, 6)
        aux = random_aux(rng, 3)
        gram, rhs = _precoder_system(inst, effective_channel(inst, phases), aux)
        norms = [
            np.linalg.norm(np.linalg.solve(gram + mu * inst.curvature, rhs))
            for mu in (0.1, 1.0, 10.0, 100.0, 1e4)
        ]
        assert all(a > b for a, b in zip(norms, norms[1:]))
        assert norms[-1] < 1e-2 * norms[0]


def test_kkt_stationarity_and_slackness():
    rng = np.random.default_rng(45)
    for constraint in ConstraintKind:
        for _ in range(10):
            inst = make_instance(rng, m=6, n=3, k=3, constraint=constraint, power_budget=0.5)
            phases = random_phases(rng, 6)
            aux = random_aux(rng, 3)
            prec, mu = dual_search(inst, phases, aux)
            heff = effective_channel(inst, phases)
            gram, rhs = _precoder_system(inst, heff, aux)
            residual = (gram + mu * inst.curvature) @ prec.matrix - rhs
            assert np.linalg.norm(residual) < 1e-8 * max(np.linalg.norm(rhs), 1.0)
            slack = inst.power_budget - constraint_value(inst, prec)
            assert mu * slack < 1e-6 * inst.power_budget


def test_kkt_stationarity_by_finite_differences():
    # The dual solution maximizes f1(B) - mu (h(B) - P): directional finite
    # differences of that Lagrangian vanish at the returned precoder.
    rng = np.random.default_rng(46)
    step = 1e-6
    for constraint in ConstraintKind:
        inst = make_instance(rng, m=6, n=3, k=3, constraint=constraint, power_budget=0.4)
        phases = random_phases(rng, 6)
        aux = random_aux(rng, 3)
        prec, mu = dual_search(inst, phases, aux)

        def lagrangian(matrix):
            p = Precoder(matrix)
            return surrogate_objective(inst, phases, p, aux) - mu * constraint_value(inst, p)

        for _ in range(6):
            direction = complex_normal(rng, 3, 3)
            direction /= np.linalg.norm(direction)
            up = lagrangian(prec.matrix + step * direction)
            down = lagrangian(prec.matrix - step * direction)
            assert abs(up - down) / (2.0 * step) < 1e-6


def test_constraint_gradient_matches_regularizer():
    # d h / d conj(B) equals R B for both constraint kinds: finite differences
    # of h along real and imaginary axes reproduce 2 Re / 2 Im of (R B).
    rng = np.random.default_rng(47)
    step = 1e-7
    for constraint in ConstraintKind:
        inst = make_instance(rng, m=6, n=3, k=3, constraint=constraint)
        phases = random_phases(rng, 6)
        prec = random_precoder(rng, 3, 3)
        reg = inst.curvature
        expected = reg @ prec.matrix
        for idx in ((0, 0), (1, 2), (2, 1)):
            for axis, component in ((1.0, np.real), (1.0j, np.imag)):
                up = prec.matrix.copy()
                down = prec.matrix.copy()
                up[idx] += step * axis
                down[idx] -= step * axis
                fd = (
                    constraint_value(inst, Precoder(up))
                    - constraint_value(inst, Precoder(down))
                ) / (2.0 * step)
                assert abs(fd - 2.0 * component(expected[idx])) < 1e-6


def lstsq_limit(gram, rhs, reg):
    """mu -> 0+ limit of solve(gram + mu reg, rhs), by a rank cut on the gram and an lstsq.

    The gram matrix is PSD and the right-hand side lies in its range, so the limit
    exists even when users with y_k = 0 leave the gram rank-deficient.  Directions
    with zero gain carry no objective value; the limit keeps them only insofar as
    they cancel constraint power: b_null = -(Z^H reg Z)^+ Z^H reg b_range.
    """
    lam, vecs = np.linalg.eigh(0.5 * (gram + gram.conj().T))
    keep = lam > max(lam[-1], 0.0) * 1e-10  # none kept (gram = 0): the correction gives B = 0
    v_keep = vecs[:, keep]
    matrix = v_keep @ ((v_keep.conj().T @ rhs) / lam[keep][:, None])
    if np.all(keep):
        return Precoder(matrix)
    z = vecs[:, ~keep]
    shrink = np.linalg.lstsq(z.conj().T @ reg @ z, z.conj().T @ (reg @ matrix), rcond=None)[0]
    return Precoder(matrix - z @ shrink)


def test_dual_search_interior_solution():
    # Budget above the unconstrained optimum's power: the search must return
    # mu = 0 and that optimum untouched.
    rng = np.random.default_rng(48)
    inst = make_instance(rng, m=6, n=3, k=3)
    phases = random_phases(rng, 6)
    aux = random_aux(rng, 3)
    heff = effective_channel(inst, phases)
    gram, rhs = _precoder_system(inst, heff, aux)
    prec0 = lstsq_limit(gram, rhs, inst.curvature)
    roomy = replace(inst, power_budget=2.0 * constraint_value(inst, prec0))
    prec, mu = dual_search(roomy, phases, aux)
    assert mu == 0.0
    assert np.allclose(prec.matrix, prec0.matrix, rtol=1e-12)


def test_dual_search_active_constraint():
    rng = np.random.default_rng(49)
    for constraint in ConstraintKind:
        inst = make_instance(rng, m=6, n=3, k=3, constraint=constraint, power_budget=0.2)
        phases = random_phases(rng, 6)
        aux = random_aux(rng, 3)
        prec, mu = dual_search(inst, phases, aux)
        assert mu > 0
        gap = abs(constraint_value(inst, prec) - inst.power_budget)
        assert gap <= 1.01e-6 * inst.power_budget


def test_dual_power_monotone_in_mu():
    rng = np.random.default_rng(50)
    for constraint in ConstraintKind:
        inst = make_instance(rng, m=6, n=3, k=3, constraint=constraint)
        phases = random_phases(rng, 6)
        aux = random_aux(rng, 3)
        gram, rhs = _precoder_system(inst, effective_channel(inst, phases), aux)
        values = [
            constraint_value(inst, Precoder(np.linalg.solve(gram + mu * inst.curvature, rhs)))
            for mu in np.logspace(-3, 3, 20)
        ]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


def test_limit_precoder_matches_vanishing_mu():
    # A silent user (y_k = 0) leaves the gram matrix rank-deficient; the
    # rank-aware limit must agree with the explicit solves B(mu) as mu -> 0+.
    # B(mu) = B(0) + O(mu), and its roundoff grows as mu falls (3e-4 relative at
    # mu = 1e-11 on such draws), so the reference is the Richardson extrapolation
    # 2 B(1e-6) - B(2e-6), whose error is O(mu^2).  Its worst gap on these draws
    # is 3.4e-8 under RP and 2.9e-9 under TP.
    rng = np.random.default_rng(51)
    for constraint in ConstraintKind:
        for _ in range(20):
            inst = make_instance(rng, m=6, n=4, k=3, constraint=constraint)
            phases = random_phases(rng, 6)
            gamma = rng.uniform(0.1, 2.0, 3)
            y = complex_normal(rng, 3)
            y[1] = 0.0
            aux = AuxVariables(gamma=gamma, y=y)
            heff = effective_channel(inst, phases)
            gram, rhs = _precoder_system(inst, heff, aux)
            reg = inst.curvature
            limit = lstsq_limit(gram, rhs, reg).matrix
            small = 2.0 * np.linalg.solve(gram + 1e-6 * reg, rhs)
            small -= np.linalg.solve(gram + 2e-6 * reg, rhs)
            scale = np.linalg.norm(small)
            assert np.linalg.norm(limit - small) < 1e-5 * scale
            assert np.allclose(limit[:, 1], 0.0, atol=1e-12 * scale)


def test_power_curve_matches_explicit_solves():
    # h(mu) = sum_j e_j / (lam_j + mu)^2 equals the constraint value of the
    # explicitly solved precoder, also when a silent user (y_k = 0) leaves the
    # gram rank-deficient.
    rng = np.random.default_rng(57)
    for constraint in ConstraintKind:
        for silent in (False, True):
            inst = make_instance(rng, m=6, n=4, k=3, constraint=constraint)
            phases = random_phases(rng, 6)
            aux = random_aux(rng, 3)
            if silent:
                aux = AuxVariables(gamma=aux.gamma, y=np.where(np.arange(3) == 1, 0.0, aux.y))
            gram, rhs = _precoder_system(inst, effective_channel(inst, phases), aux)
            reg = inst.curvature
            power = _power_curve(*_spectrum(inst.curvature_whitening, gram, rhs)[::3])
            for mu in np.logspace(-6, 6, 25):
                explicit = constraint_value(inst, Precoder(np.linalg.solve(gram + mu * reg, rhs)))
                assert abs(power(mu) - explicit) <= 1e-10 * explicit


def bisection_oracle(inst, phases, aux):
    """The dual search as bisection over explicit solves, one per trial mu."""
    budget = inst.power_budget
    tol = wmmse._DUAL_TOLERANCE * budget
    gram, rhs = _precoder_system(inst, effective_channel(inst, phases), aux)
    reg = inst.curvature

    def power_at(mu):
        prec = Precoder(np.linalg.solve(gram + mu * reg, rhs))
        return prec, constraint_value(inst, prec)

    prec0 = lstsq_limit(gram, rhs, reg)
    if constraint_value(inst, prec0) <= budget:
        return prec0, 0.0
    hi = 1.0
    prec_hi, h_hi = power_at(hi)
    while h_hi >= budget:
        hi *= 2.0
        prec_hi, h_hi = power_at(hi)
    lo = hi / 2.0 if hi > 1.0 else 0.0
    for _ in range(wmmse._DUAL_MAX_ITERS):
        gap = budget - h_hi
        if gap <= tol and hi * gap <= tol:
            return prec_hi, hi
        mid = 0.5 * (lo + hi)
        prec_mid, h_mid = power_at(mid)
        if h_mid > budget:
            lo = mid
        else:
            hi, prec_hi, h_hi = mid, prec_mid, h_mid
    raise AssertionError("oracle bisection did not converge")


def test_dual_search_matches_explicit_bisection():
    rng = np.random.default_rng(58)
    for constraint in ConstraintKind:
        active = 0
        for _ in range(20):
            budget = 10.0 ** rng.uniform(-2.0, 1.0)
            inst = make_instance(rng, m=6, n=3, k=3, constraint=constraint, power_budget=budget)
            phases = random_phases(rng, 6)
            aux = random_aux(rng, 3)
            prec, mu = dual_search(inst, phases, aux)
            oracle_prec, oracle_mu = bisection_oracle(inst, phases, aux)
            assert abs(mu - oracle_mu) <= 1e-12 * oracle_mu
            assert np.allclose(prec.matrix, oracle_prec.matrix, rtol=1e-12, atol=0)
            active += mu > 0
        assert active >= 10


def test_dual_search_singular_curvature_is_solver_error():
    # A dead RF chain makes R = T^H T singular under RP: no power curve exists.
    # That holds at every budget, a roomy one too, where mu = 0 would be feasible.
    rng = np.random.default_rng(59)
    inst = make_instance(rng, m=6, n=3, k=2, constraint=ConstraintKind.RADIATED_POWER)
    transfer = inst.transfer.copy()
    transfer[:, 2] = 0.0
    phases, aux = random_phases(rng, 6), random_aux(rng, 2)
    for budget in (1e-6, 1e6):
        dead = replace(inst, transfer=transfer, power_budget=budget)
        with pytest.raises(SolverError, match="curvature"):
            dual_search(dead, phases, aux)


def test_non_finite_row_fails_alone_in_dual_search():
    # One NaN y makes the stacked eigh of its constraint group raise; that row
    # alone fails, and the others keep the bits they get in batches of one.
    rng = np.random.default_rng(70)
    for constraint in ConstraintKind:
        insts = [make_instance(rng, m=6, n=4, k=3, constraint=constraint) for _ in range(3)]
        heff = np.stack([effective_channel(one, random_phases(rng, 6)) for one in insts])
        gamma, y = rng.uniform(0.1, 2.0, (3, 3)), complex_normal(rng, 3, 3)
        y[1, 0] = np.nan
        aux = _unchecked(AuxVariables, gamma=gamma, y=y)
        matrices, mu, failed = dual_search(_Batch(insts), None, aux, heff=heff)
        assert list(failed) == [1] and isinstance(failed[1], np.linalg.LinAlgError)
        assert not np.any(matrices[1])
        for row in (0, 2):
            one = _unchecked(AuxVariables, gamma=gamma[[row]], y=y[[row]])
            alone = dual_search(_Batch([insts[row]]), None, one, heff=heff[[row]])
            assert np.array_equal(alone[0][0], matrices[row])
            assert alone[1][0] == mu[row] and not alone[2]


def test_tp_dual_search_takes_one_eigendecomposition(monkeypatch):
    rng = np.random.default_rng(60)
    inst = make_instance(rng, m=6, n=3, k=3, power_budget=0.05)
    phases, aux = random_phases(rng, 6), random_aux(rng, 3)
    expected = dual_search(inst, phases, aux)
    calls = []
    eigh = np.linalg.eigh

    def counting_eigh(*args, **kwargs):
        calls.append(1)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    prec, mu = dual_search(inst, phases, aux)
    assert mu > 0 and len(calls) == 1
    assert mu == expected[1] and np.array_equal(prec.matrix, expected[0].matrix)
    # The shared decomposition gives the whitened curve of R = I: an RP
    # instance whose transfer has orthonormal columns has exactly that R.
    gram, rhs = _precoder_system(inst, effective_channel(inst, phases), aux)
    shared = _power_curve(*_spectrum(inst.curvature_whitening, gram, rhs)[::3])
    rp = replace(
        inst, transfer=np.eye(6, 3, dtype=complex), constraint=ConstraintKind.RADIATED_POWER
    )
    whitened = _power_curve(*_spectrum(rp.curvature_whitening, gram, rhs)[::3])
    for trial_mu in np.logspace(-4, 4, 9):
        assert abs(shared(trial_mu) - whitened(trial_mu)) <= 1e-12 * whitened(trial_mu)


def test_mixed_batch_takes_one_eigendecomposition(monkeypatch):
    # TP and RP rows share one whitening stack and one eigh.  The last row has a
    # silent user and a roomy budget: its mu -> 0+ limit cuts an eigenvalue, and it is
    # formed by the same stacked product as the full-rank limit of the TP row before it.
    rng = np.random.default_rng(66)
    kinds = [ConstraintKind.TRANSMITTED_POWER, ConstraintKind.RADIATED_POWER] * 2
    insts, phases, aux = [], [], []
    for row, constraint in enumerate(kinds):
        inst = make_instance(rng, m=6, n=3, k=3, constraint=constraint)
        one_phases, one_aux = random_phases(rng, 6), random_aux(rng, 3)
        if row == 3:
            one_aux = AuxVariables(gamma=one_aux.gamma, y=one_aux.y * np.array([1.0, 0.0, 1.0]))
        gram, rhs = _precoder_system(inst, effective_channel(inst, one_phases), one_aux)
        if row == 3:
            assert not np.all(_kept(_spectrum(inst.curvature_whitening, gram, rhs)[0]))
        scale = 0.1 if row < 2 else 2.0
        insts.append(replace(inst, power_budget=scale * spectrum_power0(inst, gram, rhs)))
        phases.append(one_phases)
        aux.append(one_aux)
    alone = [dual_search(*point) for point in zip(insts, phases, aux)]
    assert [mu > 0 for _, mu in alone] == [True, True, False, False]
    batch_aux = _unchecked(
        AuxVariables, gamma=np.stack([a.gamma for a in aux]), y=np.stack([a.y for a in aux])
    )
    heff = np.stack([effective_channel(i, p) for i, p in zip(insts, phases)])
    calls = []
    eigh = np.linalg.eigh

    def counting_eigh(*args, **kwargs):
        calls.append(1)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    matrices, mu, failed = dual_search(_Batch(insts), phases, batch_aux, heff=heff)
    assert len(calls) == 1 and not failed
    for row, (prec, mu_alone) in enumerate(alone):
        assert mu[row] == mu_alone and np.array_equal(matrices[row], prec.matrix)


def test_tp_shortcut_matches_lstsq_path():
    # Under TP the mu = 0 limit and its power come from one eigendecomposition,
    # without the null-space lstsq of lstsq_limit, which vanishes when R = I.
    # Every instance is rank-deficient (N > K), half of them with a silent user.
    rng = np.random.default_rng(63)
    active = 0
    for index in range(200):
        inst = make_instance(rng, m=6, n=4, k=3)
        phases, aux = random_phases(rng, 6), random_aux(rng, 3)
        if index % 2:
            aux = AuxVariables(gamma=aux.gamma, y=np.where(np.arange(3) == 1, 0.0, aux.y))
        gram, rhs = _precoder_system(inst, effective_channel(inst, phases), aux)
        limit = lstsq_limit(gram, rhs, inst.curvature).matrix
        power0 = float(np.linalg.norm(limit) ** 2)
        roomy = replace(inst, power_budget=2.0 * power0)
        prec0, mu0 = dual_search(roomy, phases, aux)
        assert mu0 == 0.0
        assert np.linalg.norm(prec0.matrix - limit) <= 1e-12 * np.linalg.norm(limit)
        inst = replace(inst, power_budget=power0 * 10.0 ** rng.uniform(-1.0, 0.5))
        prec, mu = dual_search(inst, phases, aux)
        oracle_prec, oracle_mu = bisection_oracle(inst, phases, aux)
        assert abs(mu - oracle_mu) <= 1e-12 * oracle_mu
        scale = np.linalg.norm(oracle_prec.matrix)
        assert np.linalg.norm(prec.matrix - oracle_prec.matrix) <= 1e-12 * scale
        active += mu > 0
    assert 50 <= active <= 180


def test_dual_search_never_calls_lstsq(monkeypatch):
    calls = []
    lstsq = np.linalg.lstsq

    def counting_lstsq(*args, **kwargs):
        calls.append(1)
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", counting_lstsq)
    rng = np.random.default_rng(64)
    for constraint in ConstraintKind:
        # Four chains serve three users, so every gram is rank-deficient.
        inst = make_instance(rng, m=8, n=4, k=3, constraint=constraint, power_budget=50.0)
        sol = bcd_solve(inst, SolverSettings(bcd_max_iters=5), zfwf_solve(inst))
        if constraint is ConstraintKind.RADIATED_POWER:  # the mu = 0 limit the lstsq corrected
            assert any(row["mu"] == 0.0 for row in sol.detail)
    assert not calls


def spectrum_power0(inst, gram, rhs):
    """sum_keep e_j / lam_j^2 over the whitened spectrum: the mu -> 0+ power."""
    lam, _, _, energy = _spectrum(inst.curvature_whitening, gram, rhs)
    keep = _kept(lam)
    return float(np.sum(energy[keep] / lam[keep] ** 2))


def test_zero_mu_limit_matches_lstsq_oracle():
    # At twice the spectrum's mu -> 0+ power, both constraints take mu = 0 and the
    # limit read off the spectrum: it equals the lstsq oracle and a vanishing-mu
    # solve.  Every gram is rank-deficient (N > K), half of them with a silent user.
    rng = np.random.default_rng(69)
    points = []
    for index in range(60):
        constraint = list(ConstraintKind)[index % 2]
        inst = make_instance(rng, m=8, n=4, k=3, constraint=constraint)
        phases, aux = random_phases(rng, 8), random_aux(rng, 3)
        if index % 4 >= 2:
            aux = AuxVariables(gamma=aux.gamma, y=np.where(np.arange(3) == 1, 0.0, aux.y))
        gram, rhs = _precoder_system(inst, effective_channel(inst, phases), aux)
        roomy = replace(inst, power_budget=2.0 * spectrum_power0(inst, gram, rhs))
        prec, mu = dual_search(roomy, phases, aux)
        assert mu == 0.0
        oracle = lstsq_limit(gram, rhs, inst.curvature).matrix
        assert np.linalg.norm(prec.matrix - oracle) <= 1e-9 * np.linalg.norm(oracle)
        # mu = 1e-9: at 1e-11 the near-singular solve itself loses up to 3e-4 to roundoff.
        tiny = np.linalg.solve(gram + 1e-9 * inst.curvature, rhs)
        assert np.linalg.norm(prec.matrix - tiny) < 1e-4 * np.linalg.norm(tiny)
        points.append((roomy, phases, aux, prec.matrix))
    insts, phases, aux, alone = zip(*points)
    batch_aux = _unchecked(
        AuxVariables, gamma=np.stack([a.gamma for a in aux]), y=np.stack([a.y for a in aux])
    )
    heff = np.stack([effective_channel(i, p) for i, p in zip(insts, phases)])
    matrices, mu, failed = dual_search(_Batch(insts), list(phases), batch_aux, heff=heff)
    assert not failed and not np.any(mu)
    for row, matrix in enumerate(alone):
        assert np.array_equal(matrices[row], matrix)


def test_rank_cut_follows_the_whitened_spectrum():
    # A user with a tiny |y_k| puts an eigenvalue of the gram next to the 1e-10 rank
    # cut, where the gram and the whitened pencil (gram, R) may cut differently.  Of
    # the seeds 0-199, at 12 the gram drops the direction and the whitened spectrum
    # keeps it; at 81 it is the other way round.  mu = 0 iff the whitened
    # sum_keep e_j / lam_j^2 fits the budget, between the two limits' powers too.
    for seed in (12, 81):
        rng = np.random.default_rng(seed)
        inst = make_instance(rng, m=8, n=4, k=4, constraint=ConstraintKind.RADIATED_POWER)
        phases, aux = random_phases(rng, 8), random_aux(rng, 4)
        aux = AuxVariables(gamma=aux.gamma, y=aux.y * np.array([1e-5, 1.0, 1.0, 1.0]))
        gram, rhs = _precoder_system(inst, effective_channel(inst, phases), aux)
        lam = _spectrum(inst.curvature_whitening, gram, rhs)[0]
        assert np.sum(_kept(np.linalg.eigvalsh(gram))) != np.sum(_kept(lam))
        power0 = spectrum_power0(inst, gram, rhs)
        gram_cut = constraint_value(inst, lstsq_limit(gram, rhs, inst.curvature))
        assert max(power0, gram_cut) > 1e6 * min(power0, gram_cut)
        low, high = sorted((power0, gram_cut))
        for budget in (0.5 * low, np.sqrt(low * high), 2.0 * high):
            prec, mu = dual_search(replace(inst, power_budget=budget), phases, aux)
            assert (mu == 0.0) == (power0 <= budget)
            assert constraint_value(inst, prec) <= budget * (1.0 + 1e-6)


def test_power_curve_degenerate_denominators_give_inf():
    # mu = -lam_0 zeroes a denominator, mu = 1e-200 underflows one, mu = 1e200
    # overflows all: the scalar curve must agree with numpy's elementwise form.
    lam = np.array([-0.5, 0.0, 2.0])
    rhs = np.array([[1.0, 0.5], [2.0, 0.0], [0.0, 1.0]], dtype=complex)
    e = np.sum(np.abs(rhs) ** 2, axis=1)
    power = _power_curve(lam, e)
    with np.errstate(divide="ignore", over="ignore", under="ignore"):
        for mu in (0.5, 1e-200, 1e200, 1.0):
            assert power(mu) == float(e @ (1.0 / (lam + mu) ** 2))
    assert power(0.5) == power(1e-200) == np.inf
    assert power(1e200) == 0.0


def test_bcd_ascent_property():
    rng = np.random.default_rng(52)
    settings = SolverSettings(bcd_epsilon=1e-6, bcd_max_iters=60)
    for constraint in ConstraintKind:
        for _ in range(5):
            inst = make_instance(rng, m=8, n=3, k=3, constraint=constraint, power_budget=1.0)
            sol = bcd_solve(inst, settings, zfwf_solve(inst))
            values = [v for _, v in sol.trace]
            assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))
            assert sol.wsr >= values[0] - 1e-9


def test_bcd_single_user_reaches_capacity():
    rng = np.random.default_rng(53)
    m = 6
    inst = SystemInstance(
        transfer=np.eye(m, dtype=complex),
        channel=complex_normal(rng, 1, m),
        noise_power=1e-3,
        power_budget=2.0,
        weights=np.ones(1),
        constraint=ConstraintKind.TRANSMITTED_POWER,
    )
    capacity = np.log2(1.0 + inst.power_budget * float(np.sum(np.abs(inst.channel) ** 2)) / 1e-3)
    sol = bcd_solve(inst, SolverSettings(bcd_epsilon=1e-6), zfwf_solve(inst))
    assert sol.wsr > 0.99 * capacity
    assert sol.wsr < capacity + 1e-9


def test_bcd_stopping_rule():
    rng = np.random.default_rng(54)
    inst = make_instance(rng, m=8, n=3, k=3, noise_power=0.1, power_budget=1.0)
    settings = SolverSettings(bcd_epsilon=1e-2, bcd_max_iters=500)
    sol = bcd_solve(inst, settings, zfwf_solve(inst))
    values = [v for _, v in sol.trace]
    assert len(values) - 1 < settings.bcd_max_iters  # converged, not capped
    assert values[-1] - values[-2] <= settings.bcd_epsilon
    again = bcd_solve(inst, settings, sol)
    assert again.wsr - sol.wsr <= settings.bcd_epsilon + 1e-9


def test_bcd_stop_reason():
    rng = np.random.default_rng(54)
    inst = make_instance(rng, m=8, n=3, k=3, noise_power=0.1, power_budget=1.0)
    init = zfwf_solve(inst)
    capped = bcd_solve(inst, SolverSettings(bcd_epsilon=1e-9, bcd_max_iters=1), init)
    assert capped.detail[-1]["stop"] == "iteration_cap"
    settings = SolverSettings(bcd_epsilon=1e-2, bcd_max_iters=500)
    converged = bcd_solve(inst, settings, init)
    assert converged.detail[-1]["stop"] == "converged"
    assert all("stop" not in row for row in converged.detail[:-1])
    # Converging on the last allowed iteration is still a convergence.
    at_cap = bcd_solve(inst, replace(settings, bcd_max_iters=len(converged.detail)), init)
    assert at_cap.detail[-1]["stop"] == "converged"


def test_bcd_no_progress_from_zero_precoder():
    # y = 0 is a fixed point of the updates: the first iteration gains exactly 0.
    rng = np.random.default_rng(61)
    for constraint in ConstraintKind:
        inst = make_instance(rng, m=8, n=3, k=3, constraint=constraint)
        init = Solution.from_state(inst, random_phases(rng, 8), Precoder(np.zeros((3, 3))))
        sol = bcd_solve(inst, SolverSettings(), init)
        assert sol.trace == ((0, 0.0), (1, 0.0))
        assert sol.detail[-1]["stop"] == "no_progress"


def textbook_bcd(inst, settings, init):
    """bcd_solve's outer loop with its SQUAREM cycle, every block evaluated afresh from
    (inst, phases, precoder) by the one-instance functions."""

    def evaluate(phases, precoder):
        gamma = update_gamma(inst, phases, precoder)
        aux = AuxVariables(gamma=gamma, y=update_y(inst, phases, precoder, gamma))
        steps = evals = 0
        if not settings.freeze_phases:
            sub = build_analog_subproblem(inst, precoder, aux)
            phases, steps, evals = _pga(sub, phases, settings)
        precoder, mu = dual_search(inst, phases, aux)
        new = wsr(inst, phases, precoder)
        row = {
            "iteration": len(detail) + 1,
            "wsr": new,
            "surrogate": surrogate_objective(inst, phases, precoder, aux),
            "mu": mu,
            "pga_steps": steps,
            "phase_evals": evals,
        }
        detail.append(row)
        return (phases, precoder), new, row

    def wrap(d):
        return np.pi - np.mod(np.pi - d, 2.0 * np.pi)

    def squared(phi, b):
        return np.vecdot(phi, phi) + np.vecdot(b.ravel(), b.ravel()).real

    trace, detail = [(0, wsr(inst, init.phases, init.precoder))], []
    cycle, alpha, tries = [(init.phases, init.precoder)], None, 0  # x0, x1, x2
    while len(detail) < settings.bcd_max_iters:
        if len(cycle) < 3:  # a plain step, tested
            point, new, row = evaluate(*cycle[-1])
            gain = new - trace[-1][1]
            trace.append((row["iteration"], new))
            cycle.append(point)
            if gain <= settings.bcd_epsilon:
                row["stop"] = "converged" if gain > 0 else "no_progress"
                return tuple(trace), detail, *point
            continue
        (phi0, b0), (phi1, b1), (phi2, b2) = ((p.phases, q.matrix) for p, q in cycle)
        r_phi, r_b = wrap(phi1 - phi0), b1 - b0
        v_phi, v_b = wrap(phi2 - phi1) - r_phi, (b2 - b1) - r_b
        if alpha is None:
            r_sq, v_sq = float(squared(r_phi, r_b)), float(squared(v_phi, v_b))
            alpha, tries = (min(-1.0, -((r_sq / v_sq) ** 0.5)) if v_sq > 0 else -1.0), 0
        if alpha >= -1.0 or tries == 4:  # resume from x2
            cycle, alpha = cycle[-1:], None
            continue
        start = (
            PhaseConfig(phi0 - 2.0 * alpha * r_phi + alpha * alpha * v_phi),
            Precoder(b0 - 2.0 * alpha * r_b + alpha * alpha * v_b),
        )
        point, new, row = evaluate(*start)
        row["alpha"], row["kept"] = alpha, new >= trace[-1][1]
        if row["kept"]:
            trace.append((row["iteration"], new))
            cycle, alpha = [point], None
        else:
            alpha, tries = 0.5 * (alpha - 1.0), tries + 1
    detail[-1]["stop"] = "iteration_cap"
    return tuple(trace), detail, *cycle[-1]


def test_bcd_matches_textbook_loop_bit_for_bit():
    rng = np.random.default_rng(62)
    for constraint in ConstraintKind:
        for freeze in (False, True):
            for silent in (False, True):
                inst = make_instance(rng, m=8, n=3, k=3, constraint=constraint, power_budget=0.5)
                init = zfwf_solve(inst, phases=random_phases(rng, 8))
                if silent:  # user 1 starts without power, so its y stays 0
                    matrix = init.precoder.matrix.copy()
                    matrix[:, 1] = 0.0
                    init = Solution.from_state(inst, init.phases, Precoder(matrix))
                settings = SolverSettings(bcd_epsilon=1e-3, bcd_max_iters=40, freeze_phases=freeze)
                sol = bcd_solve(inst, settings, init)
                trace, detail, phases, precoder = textbook_bcd(inst, settings, init)
                assert sol.trace == trace
                assert sol.detail == detail
                assert np.array_equal(sol.phases.phases, phases.phases)
                assert np.array_equal(sol.precoder.matrix, precoder.matrix)


def mixed_batch(rng, m=16, n=4, k=4):
    """Both constraints, budgets over two decades, and a start with a silent user."""
    insts, inits = [], []
    for index in range(6):
        constraint = list(ConstraintKind)[index % 2]
        budget = 10.0 ** rng.uniform(-1.0, 1.0)
        inst = make_instance(rng, m=m, n=n, k=k, constraint=constraint, power_budget=budget)
        init = zfwf_solve(inst, phases=random_phases(rng, m))
        if index == 3:  # user 1 starts without power, so its y stays 0
            matrix = init.precoder.matrix.copy()
            matrix[:, 1] = 0.0
            init = Solution.from_state(inst, init.phases, Precoder(matrix))
        insts.append(inst)
        inits.append(init)
    return insts, inits


def assert_same_solution(a, b):
    assert a.trace == b.trace
    assert a.detail == b.detail
    assert np.array_equal(a.phases.phases, b.phases.phases)
    assert np.array_equal(a.precoder.matrix, b.precoder.matrix)


def test_batch_solution_does_not_depend_on_its_batch():
    # Each instance is solved alone, inside the whole batch and inside a reversed
    # sub-batch; the three solutions agree bit for bit.
    rng = np.random.default_rng(65)
    insts, inits = mixed_batch(rng)
    for freeze in (False, True):
        settings = SolverSettings(bcd_max_iters=30, pga_max_iters=10, freeze_phases=freeze)
        whole = bcd_solve(insts, settings, inits)
        for index, (inst, init) in enumerate(zip(insts, inits)):
            alone = bcd_solve(inst, settings, init)
            assert_same_solution(alone, whole[index])
            rows = [row for row in reversed(range(len(insts))) if row % 2 == index % 2]
            sub = bcd_solve([insts[r] for r in rows], settings, [inits[r] for r in rows])
            assert_same_solution(alone, sub[rows.index(index)])
        assert any(row["mu"] == 0.0 for sol in whole for row in sol.detail)
        assert any(row["mu"] > 0.0 for sol in whole for row in sol.detail)


def dead_chain_instance(rng):
    """An RP instance with a dead RF chain, so R = T^H T is singular, and a feasible start."""
    dead = make_instance(rng, m=16, n=4, k=4, constraint=ConstraintKind.RADIATED_POWER)
    transfer = dead.transfer.copy()
    transfer[:, 2] = 0.0
    dead = replace(dead, transfer=transfer, power_budget=1e-6)
    start = random_phases(rng, 16)
    matrix = random_precoder(rng, 4, 4).matrix
    matrix *= np.sqrt(0.5e-6 / constraint_value(dead, Precoder(matrix)))
    return dead, Solution.from_state(dead, start, Precoder(matrix))


def test_singular_instance_fails_alone_in_its_batch():
    # A dead RF chain makes R = T^H T singular under RP: that instance's solve
    # fails, alone as in the batch, and its batch-mates keep their bits.
    rng = np.random.default_rng(66)
    insts, inits = mixed_batch(rng)
    dead, dead_init = dead_chain_instance(rng)
    for freeze in (False, True):
        settings = SolverSettings(bcd_max_iters=20, pga_max_iters=5, freeze_phases=freeze)
        with pytest.raises(SolverError, match="curvature"):
            bcd_solve(dead, settings, dead_init)
        batch = bcd_solve(
            insts[:3] + [dead] + insts[3:], settings, inits[:3] + [dead_init] + inits[3:]
        )
        assert isinstance(batch[3], SolverError)
        for inst, init, sol in zip(insts, inits, batch[:3] + batch[4:]):
            assert_same_solution(bcd_solve(inst, settings, init), sol)


def test_singular_instance_fails_before_the_phase_block(monkeypatch):
    # A singular R is a property of the instance: its row fails at entry, so no
    # phase block of the batch holds it, not even the first.
    rng = np.random.default_rng(67)
    insts, inits = mixed_batch(rng)
    dead, dead_init = dead_chain_instance(rng)
    calls, pga = [], wmmse._pga

    def recording_pga(sub, phases_init, settings):
        calls.append(np.array(phases_init))
        return pga(sub, phases_init, settings)

    monkeypatch.setattr(wmmse, "_pga", recording_pga)
    settings = SolverSettings(bcd_max_iters=3, pga_max_iters=5)
    batch = bcd_solve(insts[:2] + [dead] + insts[2:], settings, inits[:2] + [dead_init] + inits[2:])
    assert isinstance(batch[2], SolverError) and calls
    assert len(calls[0]) == len(insts)
    assert not any(np.array_equal(row, dead_init.phases.phases) for call in calls for row in call)


def queue_order(lengths, width):
    """The positions in the order a queue of ``width`` slots yields them.

    A row of length 0 fails at admission and takes no slot; one of length n stops
    after n iterations; rows that stop in the same iteration come in admission order.
    """
    order, running, waiting = [], [], list(enumerate(lengths))
    while waiting or running:
        while waiting and len(running) < width:
            position, length = waiting.pop(0)
            if length:
                running.append([position, length])
            else:
                order.append(position)
        for row in running:
            row[1] -= 1
        order += [position for position, left in running if not left]
        running = [row for row in running if row[1]]
    return order


def rejecting_instance():
    """A TP instance shaped like ``mixed_batch``'s on whose free-phase solve the SQUAREM
    cycle rejects extrapolations: two at epsilon 0.1, and four in a row at 1e-9."""
    rng = np.random.default_rng(148)
    inst = make_instance(rng, m=16, n=4, k=4, power_budget=10.0 ** rng.uniform(-1.0, 1.0))
    return inst, zfwf_solve(inst, phases=random_phases(rng, 16))


def test_evaluations_count_against_the_cap_and_rejections_add_no_trace_point(monkeypatch):
    inst, init = rejecting_instance()
    calls, search = [], wmmse.dual_search

    def counting_search(*args, **kwargs):
        calls.append(1)
        return search(*args, **kwargs)

    monkeypatch.setattr(wmmse, "dual_search", counting_search)
    settings = SolverSettings(bcd_epsilon=1e-9, bcd_max_iters=60, pga_max_iters=5)
    sol = bcd_solve(inst, settings, init)
    assert len(calls) == len(sol.detail) <= settings.bcd_max_iters
    assert [row["iteration"] for row in sol.detail] == list(range(1, len(sol.detail) + 1))
    # Rejected rows read kept False, and the trace holds the plain and kept rows only.
    accepted = [row["iteration"] for row in sol.detail if row.get("kept", True)]
    assert [iteration for iteration, _ in sol.trace] == [0] + accepted
    values = [value for _, value in sol.trace]
    assert all(b >= a for a, b in zip(values, values[1:]))
    # A rejection halves alpha toward -1, or the cycle resumes with a plain step, as it
    # does after four rejections.
    run = longest = 0
    for row, after in zip(sol.detail, sol.detail[1:]):
        run = run + 1 if row.get("kept") is False else 0
        longest = max(longest, run)
        if run == wmmse._TRIES:
            assert "alpha" not in after
        elif run:
            assert row["alpha"] < -1.0
            assert after.get("alpha", 0.5 * (row["alpha"] - 1.0)) == 0.5 * (row["alpha"] - 1.0)
    assert longest == wmmse._TRIES
    assert sol.wsr == sol.trace[-1][1]


def test_failed_extrapolation_is_rejected(monkeypatch):
    # A failed evaluation from x' rejects that extrapolation; the solve goes on.
    inst, init = rejecting_instance()
    settings = SolverSettings(bcd_epsilon=1e-9, bcd_max_iters=12, pga_max_iters=5)
    plain = bcd_solve(inst, settings, init)
    at = next(row["iteration"] for row in plain.detail if row.get("kept"))
    calls, search = [], wmmse.dual_search

    def failing_search(*args, **kwargs):
        calls.append(1)
        matrices, mu, failed = search(*args, **kwargs)
        if len(calls) == at:
            failed[0] = SolverError("injected")
        return matrices, mu, failed

    monkeypatch.setattr(wmmse, "dual_search", failing_search)
    sol = bcd_solve(inst, settings, init)
    assert sol.detail[: at - 1] == plain.detail[: at - 1]
    assert sol.detail[at - 1]["kept"] is False
    assert len(sol.detail) == settings.bcd_max_iters


def test_queue_outcomes_equal_solves_alone():
    # Nine rows through a queue of width 2, so that rows join at different
    # iterations: TP and RP rows, a singular R, a start over budget, a start
    # error and a row that rejects an extrapolation.  Each outcome is the row's
    # solve alone, at its input position, and the outcomes come in stop order.
    rng = np.random.default_rng(68)
    insts, inits = mixed_batch(rng)
    dead, dead_init = dead_chain_instance(rng)
    tight = replace(insts[4], power_budget=0.5 * constraint_value(insts[4], inits[4].precoder))
    items = list(zip(insts, inits))
    items[2:2] = [(dead, dead_init)]
    items[5:5] = [(tight, inits[4]), SolverError("no start for this trial")]
    items.append(rejecting_instance())
    for freeze in (False, True):
        settings = SolverSettings(
            bcd_epsilon=0.1, bcd_max_iters=30, pga_max_iters=5, freeze_phases=freeze
        )
        queued = list(bcd_solve(iter(items), settings, width=2))
        lengths = []
        for position, item in enumerate(items):
            outcome = dict(queued)[position]
            if isinstance(item, Exception):
                assert outcome is item
                lengths.append(0)
                continue
            try:
                alone = bcd_solve(item[0], settings, item[1])
            except SolverError as exc:
                assert type(outcome) is type(exc) and str(outcome) == str(exc)
                lengths.append(0)
                continue
            assert_same_solution(alone, outcome)
            lengths.append(len(alone.detail))  # a row's evaluations are its batch iterations
        rejected = [row for _, sol in queued if isinstance(sol, Solution) for row in sol.detail
                    if row.get("kept") is False]
        assert freeze or rejected
        assert sum(not length for length in lengths) == 3
        assert len(set(lengths) - {0}) > 3  # rows stop at different iterations
        assert [position for position, _ in queued] == queue_order(lengths, 2)


def test_batch_rejects_mismatched_shapes():
    # A row shaped unlike the first fails alone, at admission; the first keeps its bits.
    rng = np.random.default_rng(67)
    small, large = make_instance(rng, n=3, k=2), make_instance(rng, n=3, k=3)
    inits = [zfwf_solve(small), zfwf_solve(large)]
    solved, failed = bcd_solve([small, large], SolverSettings(), inits)
    assert isinstance(failed, DimensionMismatchError)
    assert_same_solution(solved, bcd_solve(small, SolverSettings(), inits[0]))
    assert bcd_solve([], SolverSettings(), []) == []


def test_bcd_freeze_phases():
    rng = np.random.default_rng(55)
    inst = make_instance(rng, m=8, n=3, k=3)
    init = zfwf_solve(inst, phases=PhaseConfig(rng.uniform(0, 2 * np.pi, 8)))
    sol = bcd_solve(inst, SolverSettings(freeze_phases=True), init)
    assert np.array_equal(sol.phases.phases, init.phases.phases)
    assert sol.wsr >= init.wsr - 1e-9


def test_bcd_rejects_infeasible_init():
    # A solution produced under a larger budget must not pass the feasibility
    # gate when the instance is tightened.
    rng = np.random.default_rng(56)
    inst = make_instance(rng, m=8, n=3, k=3, power_budget=0.1)
    sol = zfwf_solve(inst)
    bad = replace(inst, power_budget=0.01)
    with pytest.raises(SolverError, match="violates"):
        bcd_solve(bad, SolverSettings(), sol)


def test_settings_validation():
    with pytest.raises(SolverError):
        SolverSettings(bcd_epsilon=0.0)
    for cap in ("bcd_max_iters", "pga_max_iters"):
        with pytest.raises(SolverError):
            SolverSettings(**{cap: 0})
    with pytest.raises(TypeError, match="tau_init"):  # the step ladder is a module constant
        SolverSettings(tau_init=0.5)
    assert [f.name for f in fields(SolverSettings)] == [
        "bcd_epsilon", "bcd_max_iters", "pga_max_iters", "freeze_phases"
    ]


def test_step_ladder_halves_from_one_down_to_1e_12():
    ladder, tau = [], 1.0
    while tau >= 1e-12:
        ladder.append(tau)
        tau *= 0.5
    assert wmmse._LADDER == tuple(ladder)
    assert len(ladder) == 40 and ladder[-1] == 2.0 ** -39


# These are constants of wmmse, so SolverSettings refuses them by name as unknown
# keywords, whatever the value.
REMOVED_SETTINGS = ("dual_tolerance", "tau_init", "armijo_zeta")
BAD_SETTINGS = [
    (value, name)
    for value in (float("nan"), float("inf"), -1.0)
    for name in ("bcd_epsilon",) + REMOVED_SETTINGS
] + [(1e-13, "tau_init")]


@pytest.mark.parametrize("value,name", BAD_SETTINGS, ids=[f"{v}-{n}" for v, n in BAD_SETTINGS])
def test_settings_reject_nan_and_nonpositive(name, value):
    with pytest.raises(TypeError if name in REMOVED_SETTINGS else SolverError, match=name):
        SolverSettings(**{name: value})


BAD_CAPS = [
    (name, value)
    for name in ("bcd_max_iters", "pga_max_iters")
    for value in (2.5, float("nan"), True, 0, -3)
]


@pytest.mark.parametrize("name,value", BAD_CAPS, ids=[f"{n}-{v}" for n, v in BAD_CAPS])
def test_settings_reject_caps_that_are_not_positive_ints(name, value):
    # A fractional cap would otherwise fail later, inside range(), mid-sweep.
    with pytest.raises(SolverError, match=name):
        SolverSettings(**{name: value})
