"""Objective and constraint arithmetic checked against scalar-loop oracles."""

from dataclasses import replace

import numpy as np
import pytest

from itsbeam import (
    ConstraintKind,
    DimensionMismatchError,
    PhaseConfig,
    Precoder,
    Solution,
    SolverSettings,
    SystemInstance,
    bcd_solve,
    constraint_value,
    effective_channel,
    sinr,
    spectral_efficiency,
    wsr,
    zfwf_solve,
)
from itsbeam.selfcheck import oracle_effective_channel
from helpers import complex_normal, make_instance, random_phases, random_precoder


def oracle_sinr(inst, phases, precoder):
    heff = oracle_effective_channel(inst, phases)
    k_users = inst.n_users
    values = np.zeros(k_users)
    for k in range(k_users):
        signal = abs(np.dot(heff[k], precoder.matrix[:, k])) ** 2
        interference = sum(
            abs(np.dot(heff[k], precoder.matrix[:, i])) ** 2
            for i in range(k_users)
            if i != k
        )
        values[k] = signal / (interference + inst.noise_power)
    return values


def identity_instance(k, constraint=ConstraintKind.TRANSMITTED_POWER, noise_power=1e-2):
    """K = M = N with H = T = I, so heff at zero phases is the identity."""
    eye = np.eye(k, dtype=complex)
    return SystemInstance(
        transfer=eye,
        channel=eye,
        noise_power=noise_power,
        power_budget=10.0,
        weights=np.ones(k),
        constraint=constraint,
    )


def test_effective_channel_identity_case():
    inst = identity_instance(3)
    heff = effective_channel(inst, PhaseConfig(np.zeros(3)))
    assert np.allclose(heff, np.eye(3), atol=1e-15)


def test_effective_channel_phase_periodicity():
    rng = np.random.default_rng(11)
    inst = make_instance(rng, m=6, n=2, k=2)
    phases = random_phases(rng, 6)
    shifted = PhaseConfig(phases.phases + 2.0 * np.pi * rng.integers(-3, 4, size=6))
    a = effective_channel(inst, phases)
    b = effective_channel(inst, shifted)
    assert np.max(np.abs(a - b)) < 1e-12


def test_effective_channel_loop_oracle():
    rng = np.random.default_rng(12)
    for _ in range(5):
        inst = make_instance(rng, m=4, n=2, k=2)
        phases = random_phases(rng, 4)
        fast = effective_channel(inst, phases)
        slow = oracle_effective_channel(inst, phases)
        assert np.max(np.abs(fast - slow)) < 1e-12


def test_sinr_single_user():
    inst = identity_instance(1, noise_power=0.25)
    prec = Precoder(np.array([[2.0 + 1.0j]]))
    value = sinr(inst, PhaseConfig(np.zeros(1)), prec)[0]
    assert abs(value - abs(2.0 + 1.0j) ** 2 / 0.25) < 1e-12


def test_sinr_zero_column_is_zero():
    rng = np.random.default_rng(13)
    inst = make_instance(rng, m=6, n=3, k=3)
    matrix = complex_normal(rng, 3, 3)
    matrix[:, 1] = 0.0
    values = sinr(inst, random_phases(rng, 6), Precoder(matrix))
    assert values[1] == 0.0


def test_sinr_loop_oracle():
    rng = np.random.default_rng(14)
    for _ in range(5):
        inst = make_instance(rng, m=5, n=3, k=3)
        phases = random_phases(rng, 5)
        prec = random_precoder(rng, 3, 3)
        fast = sinr(inst, phases, prec)
        slow = oracle_sinr(inst, phases, prec)
        assert np.max(np.abs(fast - slow) / slow) < 1e-12


def test_sinr_column_phase_invariance():
    rng = np.random.default_rng(15)
    inst = make_instance(rng, m=6, n=3, k=3)
    phases = random_phases(rng, 6)
    prec = random_precoder(rng, 3, 3)
    rotated = prec.matrix.copy()
    rotated[:, 2] *= np.exp(1j * 0.817)
    a = sinr(inst, phases, prec)
    b = sinr(inst, phases, Precoder(rotated))
    assert np.max(np.abs(a - b) / a) < 1e-10


def test_wsr_zero_precoder():
    rng = np.random.default_rng(16)
    inst = make_instance(rng, m=6, n=3, k=3)
    prec = Precoder(np.zeros((3, 3), dtype=complex))
    assert wsr(inst, random_phases(rng, 6), prec) == 0.0


def test_wsr_ignores_zero_weight_user():
    # Diagonal precoder over an identity channel: user SINRs are 1 and 99,
    # but only the first carries weight, so the WSR is 2 log2(2) = 2.
    noise = 0.04
    inst = SystemInstance(
        transfer=np.eye(2, dtype=complex),
        channel=np.eye(2, dtype=complex),
        noise_power=noise,
        power_budget=10.0,
        weights=np.array([2.0, 0.0]),
        constraint=ConstraintKind.TRANSMITTED_POWER,
    )
    prec = Precoder(np.diag([np.sqrt(noise), np.sqrt(99.0 * noise)]))
    values = sinr(inst, PhaseConfig(np.zeros(2)), prec)
    assert np.allclose(values, [1.0, 99.0], rtol=1e-12)
    assert abs(wsr(inst, PhaseConfig(np.zeros(2)), prec) - 2.0) < 1e-12


def test_wsr_compositional_identity():
    rng = np.random.default_rng(17)
    inst = make_instance(rng, m=6, n=3, k=3)
    phases = random_phases(rng, 6)
    prec = random_precoder(rng, 3, 3)
    direct = wsr(inst, phases, prec)
    composed = float(inst.weights @ np.log2(1.0 + sinr(inst, phases, prec)))
    assert abs(direct - composed) < 1e-12
    assert np.allclose(
        spectral_efficiency(inst, phases, prec),
        np.log2(1.0 + sinr(inst, phases, prec)),
        rtol=1e-12,
    )


def test_wsr_monotone_in_signal():
    inst = identity_instance(2, noise_power=0.1)
    phases = PhaseConfig(np.zeros(2))
    base = Precoder(np.diag([1.0, 1.0]).astype(complex))
    boosted = Precoder(np.diag([1.3, 1.0]).astype(complex))
    assert wsr(inst, phases, boosted) > wsr(inst, phases, base)


def test_constraint_tp_single_entry():
    inst = identity_instance(2)
    matrix = np.zeros((2, 2), dtype=complex)
    matrix[1, 0] = np.sqrt(3.7)
    value = constraint_value(inst, Precoder(matrix))
    assert abs(value - 3.7) < 1e-12


def test_constraint_rp_unitary_invariance():
    rng = np.random.default_rng(18)
    inst = make_instance(rng, m=6, n=3, k=3, constraint=ConstraintKind.RADIATED_POWER)
    prec = random_precoder(rng, 3, 3)
    value = constraint_value(inst, prec)
    for _ in range(5):  # the radiated power ||D T B||^2 at five random surface states D
        phasor = random_phases(rng, 6).phasor()
        radiated = float(np.linalg.norm(phasor[:, np.newaxis] * (inst.transfer @ prec.matrix)) ** 2)
        assert abs(value - radiated) < 1e-12 * radiated
    # The whitening L^-1 of R = T^H T takes R to I; under TP it is I itself, exactly.
    white = inst.curvature_whitening
    assert np.linalg.norm(white @ inst.curvature @ white.conj().T - np.eye(3)) < 1e-12
    tp = replace(inst, constraint=ConstraintKind.TRANSMITTED_POWER)
    assert np.array_equal(tp.curvature_whitening, np.eye(3))


def test_power_map_is_identity_under_tp_and_transfer_under_rp():
    rng = np.random.default_rng(22)
    rp = make_instance(rng, m=6, n=3, k=3, constraint=ConstraintKind.RADIATED_POWER)
    tp = replace(rp, constraint=ConstraintKind.TRANSMITTED_POWER)
    assert np.array_equal(tp.power_map, np.eye(3)) and np.array_equal(rp.power_map, rp.transfer)
    assert not (tp.power_map.flags.writeable or rp.power_map.flags.writeable)
    assert rp.transfer.flags.writeable  # the view is read-only, the caller's transfer is not
    assert np.array_equal(tp.curvature, np.eye(3))
    # Under TP the value is ||B||^2 bit for bit: the identity product is exact.
    for _ in range(5):
        prec = random_precoder(rng, 3, 3)
        assert constraint_value(tp, prec) == float(np.linalg.norm(prec.matrix) ** 2)


def test_constraint_rp_loop_oracle():
    rng = np.random.default_rng(19)
    inst = make_instance(rng, m=4, n=2, k=2, constraint=ConstraintKind.RADIATED_POWER)
    phases = random_phases(rng, 4)
    prec = random_precoder(rng, 2, 2)
    acc = 0.0
    psi = np.exp(1j * phases.phases)
    for m in range(4):
        for k in range(2):
            entry = psi[m] * sum(inst.transfer[m, j] * prec.matrix[j, k] for j in range(2))
            acc += abs(entry) ** 2
    fast = constraint_value(inst, prec)
    assert abs(fast - acc) < 1e-12 * acc


def test_dimension_validation():
    rng = np.random.default_rng(20)
    inst = make_instance(rng, m=6, n=3, k=3)
    with pytest.raises(DimensionMismatchError):
        effective_channel(inst, PhaseConfig(np.zeros(5)))
    with pytest.raises(DimensionMismatchError):
        sinr(inst, random_phases(rng, 6), Precoder(np.zeros((2, 3), dtype=complex)))
    with pytest.raises(DimensionMismatchError):
        SystemInstance(
            transfer=np.zeros((4, 2), dtype=complex),
            channel=np.zeros((2, 3), dtype=complex),
            noise_power=1e-2,
            power_budget=1.0,
            weights=np.ones(2),
            constraint=ConstraintKind.TRANSMITTED_POWER,
        )
    with pytest.raises(DimensionMismatchError):
        make_instance(rng, noise_power=0.0)


def test_solution_consistency_checks():
    rng = np.random.default_rng(21)
    phases = random_phases(rng, 4)
    prec = random_precoder(rng, 2, 2)
    s = np.array([1.0, 2.0])
    good = Solution(
        phases=phases,
        precoder=prec,
        sinr=s,
        spectral_efficiency=np.log2(1.0 + s),
        wsr=float(np.sum(np.log2(1.0 + s))),
        constraint_slack=0.5,
        power_budget=1.0,
    )
    assert good.wsr > 0
    with pytest.raises(DimensionMismatchError):
        Solution(
            phases=phases,
            precoder=prec,
            sinr=s,
            spectral_efficiency=np.log2(1.0 + s) * 1.5,
            wsr=1.0,
            constraint_slack=0.5,
            power_budget=1.0,
        )
    with pytest.raises(DimensionMismatchError):
        Solution(
            phases=phases,
            precoder=prec,
            sinr=s,
            spectral_efficiency=np.log2(1.0 + s),
            wsr=1.0,
            constraint_slack=-1.0,
            power_budget=1.0,
        )


def test_solution_rate_check_is_the_allclose_rule():
    # |se - log2(1 + s)| <= 1e-12 + 1e-9 |log2(1 + s)|, where NaN fails: rates inside the
    # bound pass; rates just outside it, a NaN SINR and a NaN rate raise.
    rng = np.random.default_rng(22)
    phases, prec = random_phases(rng, 4), random_precoder(rng, 2, 2)

    def solution(sinr_values, rates):
        return Solution(
            phases=phases, precoder=prec, sinr=np.array(sinr_values),
            spectral_efficiency=np.array(rates), wsr=1.0, constraint_slack=0.0, power_budget=1.0,
        )

    s = np.array([1.0, 3.0])
    exact = np.log2(1.0 + s)
    solution(s, exact * (1.0 + 0.9e-9))
    solution([0.0, 0.0], [0.9e-12, -0.9e-12])
    for sinr_values, rates in (
        (s, exact * (1.0 + 1.2e-9)),
        ([0.0, 0.0], [0.0, 1.1e-12]),
        ([1.0, np.nan], [1.0, np.nan]),
        ([1.0, np.nan], [1.0, 1.0]),
        (s, [exact[0], np.nan]),
    ):
        with pytest.raises(DimensionMismatchError, match="inconsistent with sinr"):
            solution(sinr_values, rates)


@pytest.mark.parametrize("call, given", [
    ("zfwf_solve", "phases"),
    ("from_states", "phases"),
    ("from_states", "precoders"),
    ("from_states", "traces"),
    ("from_states", "details"),
    ("bcd_solve", "init"),
])
def test_batch_entry_points_reject_a_row_count_unlike_the_instances(call, given):
    # Two instances and one entry of ``given``: zip would truncate and indexing fail.
    rng = np.random.default_rng(23)
    insts = [make_instance(rng, m=6, n=3, k=2) for _ in range(2)]
    sols = zfwf_solve(insts)
    rows = {
        "phases": np.stack([sol.phases.phases for sol in sols]),
        "precoders": np.stack([sol.precoder.matrix for sol in sols]),
        "traces": [None, None],
        "details": [None, None],
    }
    with pytest.raises(DimensionMismatchError, match=f"2 instances but 1 {given}"):
        if call == "zfwf_solve":
            zfwf_solve(insts, [sols[0].phases])
        elif call == "bcd_solve":
            bcd_solve(insts, SolverSettings(), sols[:1])
        else:
            Solution.from_states(insts, **{**rows, given: rows[given][:1]})


def test_from_states_row_over_budget_fails_alone():
    # One row spends twice its budget: it holds the error of its Solution's check, as its
    # batch of one raises, and the other rows equal their batches of one bit for bit.
    rng = np.random.default_rng(24)
    kinds = (*ConstraintKind, ConstraintKind.RADIATED_POWER)
    insts = [make_instance(rng, m=6, n=3, k=2, constraint=kind) for kind in kinds]
    sols = zfwf_solve(insts)
    phases = np.stack([sol.phases.phases for sol in sols])
    precoders = np.stack([sol.precoder.matrix for sol in sols])
    precoders[1] *= np.sqrt(2.0)
    batch = Solution.from_states(insts, phases, precoders)
    assert type(batch[1]) is DimensionMismatchError
    with pytest.raises(DimensionMismatchError) as alone:
        Solution.from_state(insts[1], PhaseConfig(phases[1]), Precoder(precoders[1]))
    assert str(batch[1]) == str(alone.value) and str(alone.value).startswith("constraint violated")
    for row in (0, 2):
        one = Solution.from_state(insts[row], PhaseConfig(phases[row]), Precoder(precoders[row]))
        assert np.array_equal(one.sinr, batch[row].sinr)
        assert np.array_equal(one.spectral_efficiency, batch[row].spectral_efficiency)
        assert (one.wsr, one.constraint_slack, one.trace) == (
            batch[row].wsr, batch[row].constraint_slack, batch[row].trace
        )
