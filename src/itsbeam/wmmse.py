"""Weighted-sum-rate maximisation by block coordinate ascent on an FP surrogate.

The weighted sum rate f0(phi, B) = sum_k w_k log2(1 + SINR_k) is lifted to the
fractional-programming surrogate

    f1(phi, B, gamma, y) = sum_k w_k log2(1 + gamma_k) - sum_k w_k gamma_k
                         + sum_k 2 sqrt(w_k (1 + gamma_k)) Re{conj(y_k) F_k}
                         - sum_k |y_k|^2 (G_k + |F_k|^2)

with F_k = heff_k @ b_k the signal amplitude and G_k the interference-plus-
noise power of user k.  At the closed-form auxiliary optimum

    gamma_k = SINR_k,   y_k = sqrt(w_k (1 + gamma_k)) F_k / (G_k + |F_k|^2),

the last three terms cancel and f1 collapses to f0 exactly, so maximising f1
block-by-block drives the true objective upward.  One outer iteration updates
gamma, y, the surface phases (projected gradient ascent on a quadratic form)
and the digital precoder (regularised least squares with a water-level dual),
in that order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SolverError
# wsr stays a module attribute: call-site tracers wrap it here.
from .model import (
    ConstraintKind,
    PhaseConfig,
    Precoder,
    Solution,
    SystemInstance,
    _link_terms,
    _rates,
    constraint_value,
    effective_channel,
    sinr,
    wsr,
)

__all__ = [
    "SolverSettings",
    "AuxVariables",
    "AnalogSubproblem",
    "update_gamma",
    "update_y",
    "surrogate_objective",
    "build_analog_subproblem",
    "analog_objective",
    "analog_objective_and_gradient",
    "dual_search",
    "bcd_solve",
]

_MIN_STEP = 1e-12


@dataclass(frozen=True)
class SolverSettings:
    """Tunable solver knobs; defaults reproduce the reference configuration.

    ``freeze_phases`` skips the analog block entirely, which turns the solver
    into plain digital WMMSE for fixed surface phases (used by the
    random-phase and no-surface baselines).  ``tau_init`` is each phase-block
    call's first trial step and largest step; later searches start at the last
    accepted step (``_pga`` says when the steps match full backtracking).
    """

    bcd_epsilon: float = 1e-3
    bcd_max_iters: int = 200
    pga_max_iters: int = 50
    tau_init: float = 1.0
    armijo_shrink: float = 0.5
    armijo_zeta: float = 1e-3
    dual_tolerance: float = 1e-6
    dual_max_iters: int = 100
    freeze_phases: bool = False

    def __post_init__(self):
        for name in ("bcd_epsilon", "dual_tolerance", "tau_init", "armijo_zeta"):
            value = getattr(self, name)
            if not (value > 0 and np.isfinite(value)):  # NaN fails both tests
                raise SolverError(f"{name} must be finite and positive, got {value!r}")
        if min(self.bcd_max_iters, self.pga_max_iters, self.dual_max_iters) < 1:
            raise SolverError("iteration caps must be >= 1")
        if not 0 < self.armijo_shrink < 1:
            raise SolverError("armijo_shrink must lie in (0, 1)")


@dataclass(frozen=True)
class AuxVariables:
    """FP auxiliaries: per-user SINR estimates gamma and complex scalars y."""

    gamma: np.ndarray  # (K,), nonnegative
    y: np.ndarray      # (K,), complex

    def __post_init__(self):
        g = np.asarray(self.gamma, dtype=float)
        y = np.asarray(self.y, dtype=complex)
        if g.ndim != 1 or y.shape != g.shape:
            raise SolverError("gamma and y must be 1-D with equal shape")
        if np.any(g < 0):
            raise SolverError("gamma must be nonnegative")
        object.__setattr__(self, "gamma", g)
        object.__setattr__(self, "y", y)


@dataclass(frozen=True)
class AnalogSubproblem:
    """Phase subproblem data: maximise 2 Re{psi^H nu} - psi^H U psi over |psi_m| = 1.

    U = A^H A is held as its K^2 x M factor A, so psi^H U psi = ||A psi||^2
    and the solver never forms the M x M matrix U.
    """

    linear_term: np.ndarray  # nu, (M,) complex
    factor: np.ndarray       # A, (R, M) complex, U = A^H A

    def __post_init__(self):
        nu = np.asarray(self.linear_term, dtype=complex)
        a = np.asarray(self.factor, dtype=complex)
        if nu.ndim != 1 or a.ndim != 2 or a.shape[1] != nu.size:
            raise SolverError("inconsistent subproblem shapes")
        object.__setattr__(self, "linear_term", nu)
        object.__setattr__(self, "factor", a)

    @property
    def quadratic_term(self) -> np.ndarray:
        """U = A^H A, (M, M) Hermitian PSD; built on demand for tests and oracles."""
        return self.factor.conj().T @ self.factor


def _y_update(inst: SystemInstance, gamma, f: np.ndarray, total: np.ndarray) -> np.ndarray:
    return np.sqrt(inst.weights * (1.0 + np.asarray(gamma))) * f / total


def _surrogate(inst: SystemInstance, aux: AuxVariables, f: np.ndarray, total: np.ndarray) -> float:
    w, scale = inst.weights, np.sqrt(inst.weights * (1.0 + aux.gamma))
    return float(
        np.sum(w * np.log2(1.0 + aux.gamma))
        - np.sum(w * aux.gamma)
        + np.sum(2.0 * scale * np.real(np.conj(aux.y) * f))
        - np.sum(np.abs(aux.y) ** 2 * total)
    )


def update_gamma(inst: SystemInstance, phases: PhaseConfig, precoder: Precoder) -> np.ndarray:
    """Closed-form gamma update: the current per-user SINR."""
    return sinr(inst, phases, precoder)


def update_y(
    inst: SystemInstance,
    phases: PhaseConfig,
    precoder: Precoder,
    gamma: np.ndarray,
) -> np.ndarray:
    """Closed-form y update: sqrt(w (1 + gamma)) F / (G + |F|^2)."""
    cross = effective_channel(inst, phases) @ precoder.matrix
    return _y_update(inst, gamma, *_link_terms(inst, cross)[1:])


def surrogate_objective(
    inst: SystemInstance,
    phases: PhaseConfig,
    precoder: Precoder,
    aux: AuxVariables,
) -> float:
    """Evaluate f1 at an arbitrary point (bits/s/Hz scale)."""
    cross = effective_channel(inst, phases) @ precoder.matrix
    return _surrogate(inst, aux, *_link_terms(inst, cross)[1:])


def build_analog_subproblem(
    inst: SystemInstance,
    precoder: Precoder,
    aux: AuxVariables,
) -> AnalogSubproblem:
    """Collect the phase-dependent part of f1 into nu and the factor A of U.

    With a_{k,i} = h_k * (T b_i) elementwise (the per-element path from stream
    i to user k) and psi = exp(j phi), the phase-dependent terms of f1 are
    2 Re{psi^H nu} - psi^H U psi - sigma^2 sum_k |y_k|^2 where

        nu = sum_k sqrt(w_k (1 + gamma_k)) y_k conj(a_{k,k}),
        U  = sum_k |y_k|^2 sum_i conj(a_{k,i}) a_{k,i}^T = A^H A,

    and A stacks the K^2 rows |y_k| a_{k,i}^T.
    """
    tb = inst.transfer @ precoder.matrix  # (M, K), column i = T b_i
    paths = inst.channel[:, np.newaxis, :] * tb.T[np.newaxis, :, :]  # (K, K, M), [k, i]
    scale = np.sqrt(inst.weights * (1.0 + aux.gamma))
    self_paths = paths[np.arange(inst.n_users), np.arange(inst.n_users)]  # (K, M)
    nu = (scale * aux.y) @ np.conj(self_paths)
    factor = np.abs(aux.y)[:, np.newaxis, np.newaxis] * paths
    return AnalogSubproblem(linear_term=nu, factor=factor.reshape(-1, nu.size))


def _objective_terms(sub: AnalogSubproblem, psi: np.ndarray):
    """Return (f3, A psi) at phasor psi, with f3 = 2 Re{psi^H nu} - ||A psi||^2."""
    a_psi = sub.factor @ psi
    value = 2.0 * np.real(np.vdot(psi, sub.linear_term)) - np.real(np.vdot(a_psi, a_psi))
    return float(value), a_psi


def _gradient(sub: AnalogSubproblem, psi: np.ndarray, a_psi: np.ndarray) -> np.ndarray:
    """grad_m = 2 Re{-j conj(psi_m) (nu - U psi)_m}, with U psi = A^H (A psi)."""
    u_psi = np.conj(np.conj(a_psi) @ sub.factor)
    return 2.0 * np.real(-1j * np.conj(psi) * (sub.linear_term - u_psi))


def analog_objective(sub: AnalogSubproblem, phases: PhaseConfig) -> float:
    """f3(phi) = 2 Re{psi^H nu} - psi^H U psi at psi = exp(j phi)."""
    return _objective_terms(sub, phases.phasor())[0]


def analog_objective_and_gradient(sub: AnalogSubproblem, phases: PhaseConfig):
    """Return (f3, grad f3) where grad_m = 2 Re{-j exp(-j phi_m) (nu - U psi)_m}."""
    psi = phases.phasor()
    value, a_psi = _objective_terms(sub, psi)
    return value, _gradient(sub, psi, a_psi)


def _wrap(phases: np.ndarray) -> np.ndarray:
    return np.mod(phases, 2.0 * np.pi)


def _pga(sub: AnalogSubproblem, phases_init: PhaseConfig, settings: SolverSettings):
    """Projected gradient ascent with Armijo line search; returns (phases, steps, evals).

    Trial steps sit on one ladder tau_init * shrink^k, k = 0, 1, ...  Each search
    starts at the previous accepted k (the first at k = 0): a failing start
    backtracks down the ladder, a passing one expands up it while trials pass
    (Nocedal & Wright, Numerical Optimization, sec. 3.5).  The step is the one
    full backtracking from tau_init takes unless a ladder step below that one
    and at or above the start fails the test; then it is another Armijo step,
    or none if no step at or below the start passes.  ``evals`` counts every
    objective evaluation, rejected trials included.  A non-finite trial value
    never passes the Armijo test, so the phases validated on return are finite.
    """
    ladder, tau = [], settings.tau_init
    while tau >= _MIN_STEP:
        ladder.append(tau)
        tau *= settings.armijo_shrink
    phi = _wrap(phases_init.phases)
    psi = np.exp(1j * phi)
    value, a_psi = _objective_terms(sub, psi)
    steps, evals, start = 0, 1, 0
    for _ in range(settings.pga_max_iters):
        grad = _gradient(sub, psi, a_psi)
        grad_sq = float(grad @ grad)
        k, accepted = start, None
        while 0 <= k < len(ladder):
            candidate = _wrap(phi + ladder[k] * grad)
            cand_psi = np.exp(1j * candidate)
            cand_value, cand_a_psi = _objective_terms(sub, cand_psi)
            evals += 1
            if cand_value - value >= settings.armijo_zeta * ladder[k] * grad_sq:
                accepted = (k, candidate, cand_psi, cand_value, cand_a_psi)
                if k > start:
                    break  # first passing step below a failing start
                k -= 1
            elif accepted is not None:
                break  # the step above the accepted one fails
            else:
                k += 1
        if accepted is None:
            break
        start, phi, psi, new_value, a_psi = accepted
        improvement, value = new_value - value, new_value
        steps += 1
        if improvement <= 0.0:
            break  # flat accept (zero gradient); nothing left to gain
    return PhaseConfig(phi), steps, evals


def _precoder_system(inst: SystemInstance, heff: np.ndarray, aux: AuxVariables):
    """Normal equations of the f1 B-step: (gram + mu R) b_k = rhs[:, k]."""
    weights_sq = np.abs(aux.y) ** 2
    gram = np.einsum("k,kn,km->nm", weights_sq, np.conj(heff), heff)
    rhs = (np.sqrt(inst.weights * (1.0 + aux.gamma)) * aux.y) * np.conj(heff).T  # (N, K)
    return gram, rhs


_RANK_RTOL = 1e-10


def _gram_eigh(gram: np.ndarray):
    return np.linalg.eigh(0.5 * (gram + gram.conj().T))


def _kept(lam: np.ndarray) -> np.ndarray:
    return lam > max(float(lam[-1]) if lam.size else 0.0, 0.0) * _RANK_RTOL


def _limit_precoder(gram: np.ndarray, rhs: np.ndarray, reg: np.ndarray) -> Precoder:
    """mu -> 0+ limit of solve(gram + mu reg, rhs).

    The gram matrix is PSD and the right-hand side lies in its range (both are
    built from the same weighted channel rows), so the limit exists even when
    users with y_k = 0 leave the gram rank-deficient.  Directions with zero
    gain carry no objective value; the limit keeps them only insofar as they
    cancel constraint power: b_null = -(Z^H reg Z)^+ Z^H reg b_range.  Only RP
    needs it: under TP reg = I and Z is orthogonal to b_range, so b_null = 0
    and ``dual_search`` skips this function and its ``lstsq``.
    """
    lam, vecs = _gram_eigh(gram)
    keep = _kept(lam)  # none kept (gram = 0): the correction below gives B = 0
    v_keep = vecs[:, keep]
    matrix = v_keep @ ((v_keep.conj().T @ rhs) / lam[keep][:, None])
    if np.all(keep):
        return Precoder(matrix)
    z = vecs[:, ~keep]
    shrink = np.linalg.lstsq(
        z.conj().T @ reg @ z, z.conj().T @ (reg @ matrix), rcond=None
    )[0]
    return Precoder(matrix - z @ shrink)


def _spectrum(inst: SystemInstance, gram: np.ndarray, rhs: np.ndarray):
    """Eigendata (lam, V, c, e) of the pencil (gram, R = ``inst.curvature`` = L L^H).

    L^-1 gram L^-H = V diag(lam) V^H, c = V^H L^-1 rhs and e_j = ||c_j||^2, so the precoder
    at mu > 0 is L^-H V (lam + mu)^-1 c; under TP (L = I), one eigh of the gram itself.
    """
    if inst.constraint is ConstraintKind.TRANSMITTED_POWER:
        lam, vecs = _gram_eigh(gram)
    else:
        linv = inst.curvature_whitening
        lam, vecs = np.linalg.eigh(linv @ gram @ linv.conj().T)
        rhs = linv @ rhs
    coords = vecs.conj().T @ rhs
    return lam, vecs, coords, np.sum(np.abs(coords) ** 2, axis=1)


def _power_curve(lam: np.ndarray, energy: np.ndarray):
    """h(mu) = sum_j e_j / (lam_j + mu)^2 from ``_spectrum``, the constraint value at mu > 0;
    on Python floats, a zero denominator gives inf (nan if e_j = 0), never an exception.
    """
    pairs = tuple(zip(lam.tolist(), energy.tolist()))

    def power(mu: float) -> float:
        total = 0.0
        for lam_j, e_j in pairs:
            d = (lam_j + mu) * (lam_j + mu)
            total += e_j * (1.0 / d) if d else e_j * np.inf
        return total

    return power


def dual_search(
    inst: SystemInstance,
    phases: PhaseConfig,
    aux: AuxVariables,
    settings: SolverSettings,
    *, heff: np.ndarray | None = None,
):
    """Find the smallest dual mu whose precoder meets the power budget.

    Returns (precoder, mu).  If the unconstrained solution (mu = 0) is already
    feasible it is returned directly; otherwise the power h(mu), which is
    non-increasing in mu, is bisected until the budget is met within
    ``dual_tolerance`` relative tolerance (tightened when mu is large so that
    complementary slackness holds at the same tolerance).  The bisection runs on
    h(mu) = sum_j e_j / (lam_j + mu)^2 from one generalised eigendecomposition of
    (gram, R) (``_spectrum``; Shi et al., "An Iteratively Weighted MMSE
    Approach...", IEEE TSP 2011, eq. (15)), and the precoder is solved once, at
    the accepted mu.  Under TP the mu = 0 limit (``_limit_precoder``, null part 0),
    V_keep (c_keep / lam_keep) with power sum_keep e_j / lam_j^2, reuses that one
    eigendecomposition.  ``heff`` is the effective channel at ``phases``, if known.
    """
    budget = inst.power_budget
    tol = settings.dual_tolerance * budget
    heff = effective_channel(inst, phases) if heff is None else heff
    gram, rhs = _precoder_system(inst, heff, aux)
    reg = inst.curvature

    # The mu = 0 optimum needs rank-aware handling: users with y_k = 0 leave the gram
    # singular, and a naive solve reports roundoff-level power, not the mu -> 0+ limit.
    if inst.constraint is ConstraintKind.TRANSMITTED_POWER:
        lam, vecs, coords, energy = _spectrum(inst, gram, rhs)
        keep = _kept(lam)
        if float(np.sum(energy[keep] / lam[keep] ** 2)) <= budget:
            return Precoder(vecs[:, keep] @ (coords[keep] / lam[keep][:, None])), 0.0
    else:
        prec0 = _limit_precoder(gram, rhs, reg)
        if constraint_value(inst, phases, prec0) <= budget:
            return prec0, 0.0
        lam, _, _, energy = _spectrum(inst, gram, rhs)

    power_at = _power_curve(lam, energy)
    hi = 1.0
    h_hi = power_at(hi)
    doublings = 0
    while h_hi >= budget:
        hi *= 2.0
        doublings += 1
        if doublings > 200:
            raise SolverError("dual bracket expansion failed: power never fell below budget")
        h_hi = power_at(hi)
    lo = hi / 2.0 if doublings else 0.0

    for _ in range(settings.dual_max_iters):
        gap = budget - h_hi
        if gap <= tol and hi * gap <= tol:
            matrix = np.linalg.solve(gram + hi * reg, rhs)
            if not np.all(np.isfinite(matrix)):
                raise SolverError("dual-regularised solve produced a non-finite precoder")
            return Precoder(matrix), hi
        mid = 0.5 * (lo + hi)
        h_mid = power_at(mid)
        if h_mid > budget:
            lo = mid
        else:
            hi, h_hi = mid, h_mid
    raise SolverError(
        f"dual bisection did not converge: bracket [{lo:.6e}, {hi:.6e}], "
        f"power gap {budget - h_hi:.3e}"
    )


def bcd_solve(
    inst: SystemInstance,
    settings: SolverSettings,
    init: Solution,
) -> Solution:
    """Run outer BCD iterations (gamma, y, phases, precoder) from a feasible start.

    Stops once the weighted-sum-rate gain of an iteration drops to
    ``settings.bcd_epsilon`` or below, or after ``bcd_max_iters`` iterations;
    the last ``detail`` row's ``stop`` says which: "no_progress" (gain <= 0),
    "converged" (0 < gain <= epsilon) or "iteration_cap".
    The returned trace holds (iteration, wsr) pairs starting at iteration 0
    (the initial point); ``detail`` carries per-iteration diagnostics, among
    them the phase block's accepted steps and objective evaluations.  SINR, WSR, y
    and f1 come from one heff @ B per iteration, with heff formed once per phase state.
    """
    # Recompute slack against this instance rather than trusting the value
    # stored on the init, which may have been produced for another budget.
    init_power = constraint_value(inst, init.phases, init.precoder)
    if inst.power_budget - init_power < -1e-6 * inst.power_budget:
        raise SolverError("initial point violates the power constraint")
    phases, precoder = init.phases, init.precoder
    heff = effective_channel(inst, phases)
    gamma, f, total = _link_terms(inst, heff @ precoder.matrix)
    current = _rates(inst, gamma)[1]
    trace, detail = [(0, current)], []
    for iteration in range(1, settings.bcd_max_iters + 1):
        aux = object.__new__(AuxVariables)  # arrays built here need no validation
        vars(aux).update(gamma=gamma, y=_y_update(inst, gamma, f, total))
        pga_steps = phase_evals = 0
        if not settings.freeze_phases:
            sub = build_analog_subproblem(inst, precoder, aux)
            phases, pga_steps, phase_evals = _pga(sub, phases, settings)
            heff = effective_channel(inst, phases)
        precoder, mu = dual_search(inst, phases, aux, settings, heff=heff)
        gamma, f, total = _link_terms(inst, heff @ precoder.matrix)
        new = _rates(inst, gamma)[1]
        trace.append((iteration, new))
        detail.append(
            {
                "iteration": iteration,
                "wsr": new,
                "surrogate": _surrogate(inst, aux, f, total),
                "mu": mu,
                "pga_steps": pga_steps,
                "phase_evals": phase_evals,
            }
        )
        gain, current = new - current, new
        if gain <= settings.bcd_epsilon:
            detail[-1]["stop"] = "converged" if gain > 0 else "no_progress"
            break
    else:
        detail[-1]["stop"] = "iteration_cap"
    return Solution.from_state(inst, phases, precoder, trace, detail)
