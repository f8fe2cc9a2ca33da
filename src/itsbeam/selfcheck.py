"""Built-in invariant checks behind the ``itsbeam selfcheck`` command.

Each check re-derives the quantity under test independently (elementwise
loops, finite differences, a scalar bisection) rather than calling the code
path it validates, so a PASS means two routes agree.  The test suite checks
against the same public ``oracle_*`` functions.  Runs in a few seconds.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .errors import SolverError
from .geometry import GeometryConfig, antenna_gain, build_layout, build_transfer_matrix
from .model import (
    ConstraintKind,
    PhaseConfig,
    Precoder,
    Solution,
    SystemInstance,
    constraint_value,
    effective_channel,
    sinr,
    wsr,
)
from .wmmse import (
    AuxVariables,
    SolverSettings,
    analog_objective,
    analog_objective_and_gradient,
    build_analog_subproblem,
    bcd_solve,
    dual_search,
    surrogate_objective,
    update_gamma,
    update_y,
)
from .wmmse import _power_curve, _precoder_system, _spectrum
from .zfwf import waterfill, zfwf_solve
from .config import default_experiment_spec
from .harness import Method, memo, run_trial

__all__ = [
    "optimal_aux",
    "oracle_effective_channel",
    "oracle_phase_gradient",
    "oracle_waterfill",
    "run_selfcheck",
]


def _random_instance(rng, m=16, n=4, k=4, constraint=ConstraintKind.TRANSMITTED_POWER):
    transfer = (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))) / np.sqrt(2 * m)
    channel = (rng.standard_normal((k, m)) + 1j * rng.standard_normal((k, m))) / np.sqrt(2)
    return SystemInstance(
        transfer=transfer,
        channel=channel,
        noise_power=0.5,
        power_budget=4.0,
        weights=rng.uniform(0.5, 1.5, k),
        constraint=constraint,
    )


def optimal_aux(inst, phases, precoder) -> AuxVariables:
    """FP auxiliaries at their closed-form optimum for (phases, precoder)."""
    gamma = update_gamma(inst, phases, precoder)
    return AuxVariables(gamma=gamma, y=update_y(inst, phases, precoder, gamma))


def oracle_effective_channel(inst, phases) -> np.ndarray:
    """Triple-loop recomputation of H diag(exp(j phi)) T."""
    (k_users, m), n = inst.channel.shape, inst.n_chains
    out = np.zeros((k_users, n), dtype=complex)
    psi = np.exp(1j * phases.phases)
    for k in range(k_users):
        for j in range(n):
            for i in range(m):
                out[k, j] += inst.channel[k, i] * psi[i] * inst.transfer[i, j]
    return out


def oracle_phase_gradient(sub, phases) -> np.ndarray:
    """Central differences (step 1e-6) of the phase objective, one element at a time."""
    step, grad = 1e-6, np.empty(phases.phases.size)
    for m in range(grad.size):
        bump = np.zeros(grad.size)
        bump[m] = step
        grad[m] = (
            analog_objective(sub, PhaseConfig(phases.phases + bump))
            - analog_objective(sub, PhaseConfig(phases.phases - bump))
        ) / (2 * step)
    return grad


def oracle_waterfill(weights, costs, noise, budget) -> np.ndarray:
    """Powers at the water level found by 200 geometric bisection steps on the spent budget."""
    lo, hi = 1e-12, 1e12
    for _ in range(200):
        mid = np.sqrt(lo * hi)
        spent = float(costs @ np.clip(weights / (mid * costs) - noise, 0.0, None))
        if spent > budget:
            lo = mid
        else:
            hi = mid
    return np.clip(weights / (hi * costs) - noise, 0.0, None)


def _check_model_oracle(rng) -> bool:
    inst = _random_instance(rng, m=6, n=3, k=2)
    phases = PhaseConfig(rng.uniform(0, 2 * np.pi, 6))
    manual = oracle_effective_channel(inst, phases)
    return bool(np.allclose(effective_channel(inst, phases), manual, rtol=0, atol=1e-12))


def _check_radiated_power_invariance(rng) -> bool:
    """The phase-free RP value ||T B||^2 against the radiated power ||D T B||^2 at a random D."""
    inst = _random_instance(rng, constraint=ConstraintKind.RADIATED_POWER)
    precoder = Precoder(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    psi = PhaseConfig(rng.uniform(0, 2 * np.pi, 16)).phasor()
    radiated = float(np.linalg.norm(psi[:, np.newaxis] * (inst.transfer @ precoder.matrix)) ** 2)
    return abs(constraint_value(inst, precoder) - radiated) <= 1e-12 * max(radiated, 1.0)


def _check_gain_quadrature() -> bool:
    theta = np.linspace(0.0, np.pi / 2, 20001)
    for kappa in (0.0, 1.0, 49.0):
        integrand = antenna_gain(theta, kappa) * np.sin(theta) / 2.0
        total = float(np.trapezoid(integrand, theta))
        if abs(total - 1.0) > 1e-3:
            return False
    return True


def _check_transfer_magnitude() -> bool:
    cfg = GeometryConfig(
        n_active=4,
        n_elements=32,
        wavelength=0.01,
        active_radius=0.01,
        separation=0.08,
        kappa=9.0,
        surface_efficiency=0.5,
        grid_shape=(8, 4),
    )
    layout = build_layout(cfg)
    transfer = build_transfer_matrix(layout)
    dists = np.linalg.norm(
        layout.element_positions[:, None, :] - layout.active_positions[None, :, :], axis=-1
    )
    bound = (cfg.wavelength / (4 * np.pi * dists.min())) * np.sqrt(
        cfg.surface_efficiency * 2 * (1 + cfg.kappa)
    )
    return bool(np.all(np.abs(transfer) <= bound * (1 + 1e-12)))


def _random_point(rng, constraint=ConstraintKind.TRANSMITTED_POWER, scale=1.0):
    """Random instance, phases and precoder, plus the FP auxiliaries at their optimum."""
    inst = _random_instance(rng, constraint=constraint)
    phases = PhaseConfig(rng.uniform(0, 2 * np.pi, 16))
    precoder = Precoder(scale * (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))))
    return inst, phases, precoder, optimal_aux(inst, phases, precoder)


def _check_fp_identity(rng) -> bool:
    inst, phases, precoder, aux = _random_point(rng, scale=0.5)
    f1 = surrogate_objective(inst, phases, precoder, aux)
    f0 = wsr(inst, phases, precoder)
    return abs(f1 - f0) <= 1e-9 * abs(f0)


def _check_analog_gradient(rng) -> bool:
    inst, phases, precoder, aux = _random_point(rng)
    sub = build_analog_subproblem(inst, precoder, aux)
    _, grad = analog_objective_and_gradient(sub, phases)
    fd = oracle_phase_gradient(sub, phases)
    return bool(np.all(np.abs(fd - grad) <= 1e-5 * np.maximum(1.0, np.abs(fd))))


def _check_analog_factor(rng) -> bool:
    inst, phases, precoder, aux = _random_point(rng)
    sub = build_analog_subproblem(inst, precoder, aux)
    psi, h, tb = phases.phasor(), inst.channel, inst.transfer @ precoder.matrix
    quad = 0.0j  # psi^H U psi with U_mn = sum_k |y_k|^2 sum_i conj(a_kim) a_kin
    for k in range(4):
        for i in range(4):
            for m in range(16):
                for n in range(16):
                    a_m, a_n = h[k, m] * tb[m, i], h[k, n] * tb[n, i]
                    quad += abs(aux.y[k]) ** 2 * np.conj(psi[m] * a_m) * a_n * psi[n]
    linear = 2.0 * np.real(np.vdot(psi, sub.linear_term))
    error = abs(analog_objective(sub, phases) - (linear - quad.real))
    return error <= 1e-10 * (abs(linear) + abs(quad))


def _check_dual_feasibility(rng) -> bool:
    for constraint in ConstraintKind:
        inst, phases, _, aux = _random_point(rng, constraint=constraint)
        prec, mu = dual_search(inst, phases, aux)
        h = constraint_value(inst, prec)
        if h > inst.power_budget * (1 + 1e-9):
            return False
        if mu > 0 and mu * (inst.power_budget - h) > 1e-6 * inst.power_budget:
            return False
        # At twice the power of the unregularised solve, mu = 0 gives that solve.
        gram, rhs = _precoder_system(inst, effective_channel(inst, phases), aux)
        free = Precoder(np.linalg.solve(gram, rhs))
        roomy = replace(inst, power_budget=2.0 * constraint_value(inst, free))
        prec, mu = dual_search(roomy, phases, aux)
        gap = np.linalg.norm(prec.matrix - free.matrix) / np.linalg.norm(free.matrix)
        if mu != 0.0 or gap > 1e-8 or constraint_value(roomy, prec) > roomy.power_budget:
            return False
    return True


def _check_dual_power_curve(rng) -> bool:
    for constraint in ConstraintKind:
        inst, phases, _, aux = _random_point(rng, constraint=constraint)
        gram, rhs = _precoder_system(inst, effective_channel(inst, phases), aux)
        power = _power_curve(*_spectrum(inst.curvature_whitening, gram, rhs)[::3])
        for mu in np.logspace(-3, 3, 13):
            prec = Precoder(np.linalg.solve(gram + mu * inst.curvature, rhs))
            if abs(power(mu) - constraint_value(inst, prec)) > 1e-10 * power(mu):
                return False
    return True


def _check_waterfill(rng) -> bool:
    w = rng.uniform(0.5, 2.0, 4)
    a = rng.uniform(0.1, 3.0, 4)
    noise, budget = 0.3, 5.0
    alloc = waterfill(w, a, noise, budget)
    if abs(float(a @ alloc.powers) - budget) > 1e-9 * budget:
        return False
    oracle = oracle_waterfill(w, a, noise, budget)
    return bool(np.allclose(alloc.powers, oracle, rtol=0, atol=1e-6 * budget))


def _check_zf(rng) -> bool:
    inst = _random_instance(rng)
    solution = zfwf_solve(inst)
    heff = effective_channel(inst, solution.phases)
    cross = heff @ solution.precoder.matrix
    diag = np.abs(np.diag(cross))
    off = np.abs(cross - np.diag(np.diag(cross)))
    if np.any(off > 1e-6 * diag.max()):
        return False
    return bool(
        np.allclose(sinr(inst, solution.phases, solution.precoder), solution.sinr, rtol=1e-9, atol=0)
    )


def _check_bcd_monotone(rng) -> bool:
    inst = _random_instance(rng)
    init = zfwf_solve(inst)
    solution = bcd_solve(inst, SolverSettings(bcd_epsilon=1e-4, bcd_max_iters=30), init)
    values = [v for _, v in solution.trace]
    diffs = np.diff(values)
    return bool(np.all(diffs >= -1e-9)) and values[-1] >= init.wsr - 1e-9


def _check_batch_solve(rng) -> bool:
    """A batch of 6 (both constraints, one silent user), and a queue of width 2 over them
    (rows join as slots free up), against 6 batches of one, bit for bit.

    The phase block's cap of 200 L-BFGS iterations lets rows of the stacked block stop
    at different iterations, before the cap, in the same outer iteration.
    """
    insts, inits = [], []
    for index in range(6):
        inst = _random_instance(rng, constraint=list(ConstraintKind)[index % 2])
        init = zfwf_solve(inst)
        if index == 1:
            matrix = init.precoder.matrix.copy()
            matrix[:, 0] = 0.0
            init = Solution.from_state(inst, init.phases, Precoder(matrix))
        insts.append(inst)
        inits.append(init)
    settings = SolverSettings(bcd_max_iters=15, pga_max_iters=200)
    batch = bcd_solve(insts, settings, inits)
    steps = [row["pga_steps"] for solution in batch for row in solution.detail]
    if min(steps) == settings.pga_max_iters:
        return False  # no row stopped early: the check would not cover the block's stops
    queued = dict(bcd_solve(zip(insts, inits), settings, width=2))
    for index, (inst, init, together) in enumerate(zip(insts, inits, batch)):
        alone = bcd_solve(inst, settings, init)
        for other in (together, queued[index]):
            if not (
                alone.trace == other.trace
                and alone.detail == other.detail
                and np.array_equal(alone.phases.phases, other.phases.phases)
                and np.array_equal(alone.precoder.matrix, other.precoder.matrix)
            ):
                return False
    return True


def _check_zfwf_batch(rng) -> bool:
    """A batch of 5 ZF-WF solves (both constraints, one rank-deficient row) against 5 solves
    alone, bit for bit; the rank-deficient row holds the error its solve alone raises.

    Stacked rows keep their bits only if the numpy/BLAS build runs each row of a stacked
    matmul, SVD and solve as it runs that row alone.
    """
    kinds = list(ConstraintKind)
    insts = [_random_instance(rng, constraint=kinds[index % 2]) for index in range(5)]
    channel = insts[3].channel.copy()
    channel[1] = channel[0]  # two users on one channel: the effective channel loses rank
    insts[3] = replace(insts[3], channel=channel)
    batch = zfwf_solve(insts)
    if [index for index, row in enumerate(batch) if isinstance(row, Exception)] != [3]:
        return False
    for inst, together in zip(insts, batch):
        try:
            alone = zfwf_solve(inst)
        except SolverError as exc:
            if str(together) != str(exc):
                return False
            continue
        if isinstance(together, Exception) or not (
            np.array_equal(alone.phases.phases, together.phases.phases)
            and np.array_equal(alone.precoder.matrix, together.precoder.matrix)
            and np.array_equal(alone.sinr, together.sinr)
            and (alone.wsr, alone.constraint_slack, alone.detail)
            == (together.wsr, together.constraint_slack, together.detail)
        ):
            return False
    return True


def _check_harness_determinism() -> bool:
    spec = replace(default_experiment_spec(), trials=1)
    rec1 = run_trial(spec, 20.0, 0, Method.ZF_WF, spec.illuminations[0])
    memo.cache_clear()  # the second run draws its own trial state, not the memo's
    return rec1 == run_trial(spec, 20.0, 0, Method.ZF_WF, spec.illuminations[0])


def run_selfcheck(verbose: bool = True) -> bool:
    """Run all invariant bundles; returns True when every check passes."""
    rng = np.random.default_rng(2024)
    checks = [
        ("model effective-channel oracle", lambda: _check_model_oracle(rng)),
        ("model radiated-power phase invariance", lambda: _check_radiated_power_invariance(rng)),
        ("geometry gain-pattern quadrature", _check_gain_quadrature),
        ("geometry transfer magnitude bound", _check_transfer_magnitude),
        ("wmmse surrogate identity", lambda: _check_fp_identity(rng)),
        ("wmmse analog gradient vs finite differences", lambda: _check_analog_gradient(rng)),
        ("wmmse analog factor vs dense quadratic form", lambda: _check_analog_factor(rng)),
        ("wmmse dual feasibility + slackness", lambda: _check_dual_feasibility(rng)),
        ("zfwf water-filling vs bisection oracle", lambda: _check_waterfill(rng)),
        ("zfwf zero interference", lambda: _check_zf(rng)),
        ("bcd monotone ascent", lambda: _check_bcd_monotone(rng)),
        ("wmmse dual power curve vs explicit solves", lambda: _check_dual_power_curve(rng)),
        ("wmmse batch and queue solves equal solo solves", lambda: _check_batch_solve(rng)),
        ("zfwf batch solves equal solo solves", lambda: _check_zfwf_batch(rng)),
        ("harness trial determinism", _check_harness_determinism),
    ]
    all_ok = True
    for name, check in checks:
        ok = bool(check())
        all_ok &= ok
        if verbose:
            print(f"{'PASS' if ok else 'FAIL'}  {name}")
    return all_ok
