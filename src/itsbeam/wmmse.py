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
gamma, y, the surface phases (L-BFGS ascent on the circles |psi_m| = 1 with a
normalisation retraction) and the digital precoder (regularised least squares
with a water-level dual on tr(B^H R B) <= p_max, R = P^H P for the power map P,
I under TP and T under RP; one eigendecomposition of the pencil (gram, R) gives
its power curve, mu = 0 test and mu -> 0+ limit), in that order.

``bcd_solve`` runs this loop over a batch of instances that share settings
(Shi et al., IEEE TSP 2011, batched over channel draws as in Chowdhury et al.,
IEEE TWC 2021): everything runs on stacked arrays, one row per instance, except
each row's Armijo backtracking in the phase block and the bisection on its power
curve, which run on Python scalars.  Every stacked operation gives a row
the bits it gives a batch of one, so a solution does not depend on the batch it
was solved in.  The batch is a queue of fixed slots: a row that stops frees its
slot for the next instance (continuous batching; Yu et al., "Orca", OSDI 2022).

The outer loop is accelerated by safeguarded squared extrapolation (SQUAREM; Varadhan &
Roland, Scand. J. Statist. 2008), per row.  From its last accepted point x0 = (phi0, B0) a
row takes two plain steps, to x1 and x2, forms r = x1 - x0 and v = (x2 - x1) - r (phase
differences wrapped to (-pi, pi]) and alpha = min(-1, -||r|| / ||v||) over the joint vector
of phases and precoder, and evaluates the map once from x' = x0 - 2 alpha r + alpha^2 v.
It keeps the result if its WSR is at least x2's; otherwise alpha <- (alpha - 1) / 2, for at
most four tries, after which, or once alpha reaches -1 (x' = x2), it resumes from x2.
Frozen phases have r = v = 0, so only the precoder is extrapolated.  Every evaluation
counts against the iteration cap and has its ``detail`` row; the trace holds the
accepted points only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BeamformingError, SolverError
# wsr stays a module attribute: call-site tracers wrap it here.
from .model import (
    PhaseConfig,
    Precoder,
    Solution,
    SystemInstance,
    _BUDGET_SLACK,
    _by_row,
    _check_phases,
    _check_rows,
    _link_terms,
    _one,
    _rates,
    _Rows,
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

# The phase block's step ladder 1, 1/2, ..., 2^-39 (the halvings of 1 down to 1e-12),
# its Armijo slope fraction and its L-BFGS memory in (s, y) pairs per row; the dual
# bisection's relative tolerance and step cap.
_LADDER = tuple(0.5 ** k for k in range(40))
_ARMIJO_ZETA = 1e-3
_MEMORY = 10
_DUAL_TOLERANCE = 1e-6
_DUAL_MAX_ITERS = 100
# A SQUAREM cycle's extrapolations: at most _TRIES, with alpha <= _ALPHA_FLOOR, at which x' is x2.
_TRIES = 4
_ALPHA_FLOOR = -1.0
_FAILURES = (BeamformingError, np.linalg.LinAlgError)  # fail one instance of a batch, not all


@dataclass(frozen=True)
class SolverSettings:
    """Solver knobs; defaults reproduce the reference configuration.

    ``bcd_epsilon`` and ``bcd_max_iters`` stop the outer loop.  ``pga_max_iters`` caps the
    phase block's L-BFGS iterations per outer iteration; the default 10 suffices, since the
    next evaluation rebuilds the subproblem and an inexact block update serves the ascent
    (Razaviyayn, Hong & Luo, SIAM J. Optim. 2013).  ``freeze_phases`` skips the analog block:
    plain digital WMMSE for fixed phases (the random-phase and no-surface baselines).  The
    phase block's ladder, Armijo fraction and memory and the dual tolerance are constants.
    """

    bcd_epsilon: float = 1e-3
    bcd_max_iters: int = 200
    pga_max_iters: int = 10
    freeze_phases: bool = False

    def __post_init__(self):
        if not (self.bcd_epsilon > 0 and np.isfinite(self.bcd_epsilon)):  # NaN fails both tests
            raise SolverError(f"bcd_epsilon must be finite and positive, got {self.bcd_epsilon!r}")
        for name in ("bcd_max_iters", "pga_max_iters"):
            _check_count(name, getattr(self, name))


def _check_count(name: str, value) -> None:
    """SolverError unless ``value`` is an int >= 1; a bool is not."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise SolverError(f"{name} must be an int >= 1, got {value!r}")


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
    and the solver never forms the M x M matrix U.  Stacked arrays, one row per
    instance, hold the subproblems of a batch.
    """

    linear_term: np.ndarray  # nu, (..., M) complex
    factor: np.ndarray       # A, (..., R, M) complex, U = A^H A

    def __post_init__(self):
        nu = np.asarray(self.linear_term, dtype=complex)
        a = np.asarray(self.factor, dtype=complex)
        if nu.ndim < 1 or a.ndim != nu.ndim + 1 or a.shape[:-2] + a.shape[-1:] != nu.shape:
            raise SolverError("inconsistent subproblem shapes")
        object.__setattr__(self, "linear_term", nu)
        object.__setattr__(self, "factor", a)

    @property
    def quadratic_term(self) -> np.ndarray:
        """U = A^H A, (..., M, M) Hermitian PSD; built on demand for tests and oracles."""
        return _adjoint(self.factor) @ self.factor


def _unchecked(cls, **values):
    """A frozen dataclass instance of arrays the solver built itself, without validation."""
    obj = object.__new__(cls)
    vars(obj).update(values)
    return obj


def _adjoint(a: np.ndarray) -> np.ndarray:
    return np.conj(a).swapaxes(-1, -2)


def _y_update(inst: SystemInstance, gamma, f: np.ndarray, total: np.ndarray) -> np.ndarray:
    return np.sqrt(inst.weights * (1.0 + np.asarray(gamma))) * f / total


def _surrogate(inst: SystemInstance, aux: AuxVariables, f: np.ndarray, total: np.ndarray):
    """f1 at the link terms (f, total): a scalar, or one value per row of a batch."""
    w, scale = inst.weights, np.sqrt(inst.weights * (1.0 + aux.gamma))
    return (
        np.sum(w * np.log2(1.0 + aux.gamma), axis=-1)
        - np.sum(w * aux.gamma, axis=-1)
        + np.sum(2.0 * scale * np.real(np.conj(aux.y) * f), axis=-1)
        - np.sum(np.abs(aux.y) ** 2 * total, axis=-1)
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
    return float(_surrogate(inst, aux, *_link_terms(inst, cross)[1:]))


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

    and A stacks the K^2 rows |y_k| a_{k,i}^T.  A batch (``inst`` a ``model._Rows``,
    ``precoder.matrix`` and ``aux`` stacked by row) gives the stacked subproblems.
    """
    tb = inst.transfer @ precoder.matrix  # (..., M, K), column i = T b_i
    paths = np.multiply(  # (..., K, K, M), [k, i]; C order, so that A below is a view
        inst.channel[..., :, np.newaxis, :], np.swapaxes(tb, -1, -2)[..., np.newaxis, :, :], order="C"
    )
    users = np.arange(paths.shape[-2])
    scale = np.sqrt(inst.weights * (1.0 + aux.gamma))
    self_paths = paths[..., users, users, :]  # (..., K, M), a copy
    nu = ((scale * aux.y)[..., np.newaxis, :] @ np.conj(self_paths))[..., 0, :]
    paths *= np.abs(aux.y)[..., np.newaxis, np.newaxis]  # in place: a batch's A is 1 MB
    return AnalogSubproblem(linear_term=nu, factor=paths.reshape(*nu.shape[:-1], -1, nu.shape[-1]))


def _objective_terms(nu: np.ndarray, factor: np.ndarray, psi: np.ndarray):
    """Return (f3, A psi) at the stacked phasors psi, f3 = 2 Re{psi^H nu} - ||A psi||^2 per row.

    ``matvec`` and ``vecdot`` take each row's BLAS product and dot, and f3 is formed
    on Python floats, so a row's value has the bits it has alone.
    """
    a_psi = np.matvec(factor, psi)
    terms = zip(np.vecdot(psi, nu).tolist(), np.vecdot(a_psi, a_psi).tolist())
    return [2.0 * linear.real - quadratic.real for linear, quadratic in terms], a_psi


def _gradient(nu: np.ndarray, factor: np.ndarray, psi: np.ndarray, a_psi: np.ndarray):
    """grad_m = 2 Re{-j conj(psi_m) (nu - U psi)_m}, with U psi = A^H (A psi)."""
    u_psi = np.conj((np.conj(a_psi)[..., np.newaxis, :] @ factor)[..., 0, :])
    return 2.0 * np.real(-1j * np.conj(psi) * (nu - u_psi))


def _one_row(sub: AnalogSubproblem, phases: PhaseConfig):
    return sub.linear_term[np.newaxis], sub.factor[np.newaxis], phases.phasor()[np.newaxis]


def analog_objective(sub: AnalogSubproblem, phases: PhaseConfig) -> float:
    """f3(phi) = 2 Re{psi^H nu} - psi^H U psi at psi = exp(j phi)."""
    return _objective_terms(*_one_row(sub, phases))[0][0]


def analog_objective_and_gradient(sub: AnalogSubproblem, phases: PhaseConfig):
    """Return (f3, grad f3) where grad_m = 2 Re{-j exp(-j phi_m) (nu - U psi)_m}."""
    nu, factor, psi = _one_row(sub, phases)
    (value,), a_psi = _objective_terms(nu, factor, psi)
    return value, _gradient(nu, factor, psi, a_psi)[0]


def _pga(sub: AnalogSubproblem, phases_init, settings: SolverSettings):
    """L-BFGS ascent on the torus of phases, Armijo backtracking; returns (phases, steps, evals).

    A step tau along the phase direction d is retracted by normalisation: psi (1 + j u) /
    sqrt(1 + u^2), u = tau d, turns phase m by atan(u_m) with no exp or wrap (Absil, Mahony &
    Sepulchre, 2008, sec. 4.1), so the Armijo test is f3(tau) - f3(0) >= zeta tau g^T d, g the
    phase gradient, zeta = 1e-3.  Each search tries tau = 1 and halves down ``_LADDER``.  On
    the flat torus L-BFGS needs no transport (Nocedal & Wright, alg. 7.4-7.5; Huang, Gallivan &
    Absil, SIAM J. Optim. 2015): d = H g from the last ``_MEMORY`` pairs s = atan(tau d) and
    y = g_old - g_new that have s^T y > 0, in the compact form (Byrd, Nocedal & Schnabel, Math.
    Prog. 1994) H g = gamma g + S p - gamma Y w, w = R^-1 S^T g,
    p = R^-T ((D + gamma Y^T Y) w - gamma Y^T g), gamma = s^T y / y^T y of the newest pair,
    R_ij = s_i^T y_j for pair i not newer than j, D = diag(s_i^T y_i).  A new pair takes the
    oldest's slot t, drops its row and column of R^-1 and adds the column (e_t - R^-1 r) / s^T y,
    r = S^T y; an empty slot is zeros and an identity row of R^-1.  A row whose g^T d is not
    positive steps along g and clears its memory.  A row stops at ``settings.pga_max_iters``
    iterations, on a flat accept (zero gradient) or when no step passes.  ``evals`` counts
    the objective evaluations a row searches with; a non-finite trial never passes, so the
    phases are finite.

    ``sub`` may hold stacked subproblems, with ``phases_init`` the (B, M) start phases: memories
    and directions are stacked, each row backtracks on Python scalars, and every row of the call
    stays in place.  A search round costs one stacked rotation, factor product and pair of dots
    over every row, each at its own ladder step; only the rows still searching are tested and
    counted in ``evals``.  A row that passed keeps its step, so the last round holds its point,
    and a row that stopped keeps its psi.  Stacked products make each row's own BLAS call, so a
    row gets the bits it gets alone.  A row that moved returns the angles of its last psi, one
    that took no step its start phases, mod 2 pi.  A batch returns (B, M) phases and lists of
    steps and evals; one PhaseConfig is a batch of one.
    """
    single = isinstance(phases_init, PhaseConfig)
    nu, factor = sub.linear_term, sub.factor
    phases = np.mod(phases_init.phases if single else phases_init, 2.0 * np.pi)
    if single:
        nu, factor, phases = nu[np.newaxis], factor[np.newaxis], phases[np.newaxis]
    m, psi = _MEMORY, np.exp(1j * phases)
    value, a_psi = _objective_terms(nu, factor, psi)
    n = len(value)
    steps, evals, going = [0] * n, [1] * n, list(range(n))
    # pairs [S; Y], R^-1, Y^T Y, diag(S^T Y), gamma and the next slot; reset as ``empty``
    empty = (0.0, np.eye(m), 0.0, 0.0, 1.0, 0)
    memory = [np.zeros((n, 2 * m, psi.shape[-1])), np.tile(np.eye(m), (n, 1, 1)),
              np.zeros((n, m, m)), np.zeros((n, m)), np.ones(n), np.zeros(n, dtype=int)]
    for iteration in range(settings.pga_max_iters):
        grad = _gradient(nu, factor, psi, a_psi)
        pairs, r_inv, yty, sy, gamma, slot = memory
        if iteration:  # every going row moved: remember (s, y) where s^T y > 0
            y = grad_old - grad
            dots = np.vecdot(step, y)
            good = np.flatnonzero(dots > 0.0)  # the rows whose pair is kept
            at, dots, kept = slot[good], dots[good], np.arange(good.size)
            pairs[good, at], pairs[good, m + at] = step[good], y[good]
            r_inv[good, at, :] = r_inv[good, :, at] = 0.0  # drop the oldest pair
            col = np.matvec(pairs, y)[good]  # S^T y, Y^T y
            column = -(1.0 / dots)[:, np.newaxis] * np.matvec(r_inv[good], col[:, :m])
            column[kept, at] = 1.0 / dots
            r_inv[good, :, at], yty[good, at, :], yty[good, :, at] = column, col[:, m:], col[:, m:]
            sy[good, at], gamma[good], slot[good] = dots, dots / col[kept, m + at], (at + 1) % m
        proj = np.matvec(pairs, grad)  # S^T g, Y^T g
        w = np.matvec(r_inv, proj[:, :m])
        c = sy * w + gamma[:, np.newaxis] * (np.matvec(yty, w) - proj[:, m:])
        coef = np.concatenate([np.vecmat(c, r_inv), -gamma[:, np.newaxis] * w], axis=1)
        direction = gamma[:, np.newaxis] * grad + np.vecmat(coef, pairs)
        slope = np.vecdot(grad, direction).tolist()
        reset = [j for j, dot in enumerate(slope) if not dot > 0.0]  # NaN included
        if reset:
            direction[reset] = grad[reset]
            for part, value_at_reset in zip(memory, empty):
                part[reset] = value_at_reset
            slope = np.vecdot(grad, direction).tolist()
        k, searching, moved = [0] * n, going, []
        while searching:
            turn = np.array([_LADDER[j] for j in k])[:, np.newaxis] * direction
            scale = 1.0 / np.sqrt(turn * turn + 1.0)  # u = turn, d = scale
            trial_psi = scale.astype(complex)
            np.multiply(turn, scale, out=trial_psi.imag)
            np.multiply(psi, trial_psi, out=trial_psi)  # psi (d + j u d)
            trial_value, trial_a_psi = _objective_terms(nu, factor, trial_psi)
            still = []
            for j in searching:
                evals[j] += 1
                if trial_value[j] - value[j] >= _ARMIJO_ZETA * _LADDER[k[j]] * slope[j]:
                    moved.append(j)
                elif k[j] + 1 < len(_LADDER):
                    k[j] += 1
                    still.append(j)
            searching = still
        psi[moved], a_psi[moved] = trial_psi[moved], trial_a_psi[moved]
        going = []
        for j in moved:
            steps[j] += 1
            if trial_value[j] - value[j] > 0.0:
                going.append(j)  # a flat accept (zero gradient) has nothing left to gain
            value[j] = trial_value[j]
        if not going:
            break
        step = np.arctan(np.array([_LADDER[j] for j in k])[:, np.newaxis] * direction)
        grad_old = grad
    moved = [row for row, count in enumerate(steps) if count]
    phases[moved] = np.mod(np.angle(psi[moved]), 2.0 * np.pi)
    if single:
        return PhaseConfig(phases[0]), steps[0], evals[0]
    return phases, steps, evals


def _precoder_system(inst: SystemInstance, heff: np.ndarray, aux: AuxVariables):
    """Normal equations of the f1 B-step: (gram + mu R) b_k = rhs[..., k]; stacked for a batch."""
    weights_sq = np.abs(aux.y) ** 2
    gram = np.einsum("...k,...kn,...km->...nm", weights_sq, np.conj(heff), heff)
    scale = np.sqrt(inst.weights * (1.0 + aux.gamma)) * aux.y
    return gram, scale[..., np.newaxis, :] * _adjoint(heff)  # rhs, (..., N, K)


def _kept(lam: np.ndarray) -> np.ndarray:
    """The rank cut on ascending (stacked) eigenvalues: those above 1e-10 of the largest."""
    return lam > np.maximum(lam[..., -1:], 0.0) * 1e-10


def _spectrum(whitening: np.ndarray, gram: np.ndarray, rhs: np.ndarray):
    """Eigendata (lam, V, c, e) of the pencil (gram, R = L L^H); stacked grams give stacked data.

    ``whitening`` is L^-1 (``SystemInstance.curvature_whitening``, the identity under TP):
    the Hermitian part of L^-1 gram L^-H is V diag(lam) V^H, c = V^H L^-1 rhs and
    e_j = ||c_j||^2, so the precoder at mu > 0 is L^-H V (lam + mu)^-1 c, with power
    sum_j e_j / (lam_j + mu)^2, and the mu -> 0+ limit (rhs lies in the gram's range) is
    L^-H V (c_j / lam_j, or 0 where ``_kept`` cuts lam_j), with power sum_keep e_j / lam_j^2.
    """
    white_gram = whitening @ gram @ _adjoint(whitening)
    lam, vecs = np.linalg.eigh(0.5 * (white_gram + _adjoint(white_gram)))
    coords = _adjoint(vecs) @ (whitening @ rhs)
    return lam, vecs, coords, np.sum(np.abs(coords) ** 2, axis=-1)


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


def _dual_root(power_at, budget: float) -> float:
    """The mu that brackets and bisects the power curve ``power_at`` down to ``budget``.

    Brackets from mu = 1 by doubling, then bisects until the budget is met within
    tol = 1e-6 budget, tightened when mu is large so that complementary slackness holds
    at the same tolerance.  One row on Python floats: a step costs about 1 us here, where
    a masked step over stacked rows costs some 25 numpy calls whatever the rows.
    """
    tol, hi = _DUAL_TOLERANCE * budget, 1.0
    h_hi = power_at(hi)
    doublings = 0
    while h_hi >= budget:
        hi *= 2.0
        doublings += 1
        if doublings > 200:
            raise SolverError("dual bracket expansion failed: power never fell below budget")
        h_hi = power_at(hi)
    lo = hi / 2.0 if doublings else 0.0
    for _ in range(_DUAL_MAX_ITERS):
        gap = budget - h_hi
        if gap <= tol and hi * gap <= tol:
            return hi
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


def _solve_rows(a: np.ndarray, b: np.ndarray, rows, failed: dict) -> np.ndarray:
    """Stacked solve(a, b) through the row-by-row fallback ``model._by_row``; a singular or
    non-finite row is zero and recorded in ``failed`` under its entry of ``rows``."""
    x = _by_row(np.linalg.solve, (a, b), failed, rows)
    for j in np.flatnonzero(~np.all(np.isfinite(x), axis=(-2, -1))):
        failed[rows[j]] = SolverError("dual-regularised solve produced a non-finite precoder")
        x[j] = 0.0
    return x


def dual_search(
    inst: SystemInstance,
    phases: PhaseConfig,
    aux: AuxVariables,
    *, heff: np.ndarray | None = None,
):
    """Find the smallest dual mu whose precoder meets the power budget; returns (precoder, mu).

    The search runs on one generalised eigendecomposition of (gram, R) per instance
    (``_spectrum``; Shi et al., "An Iteratively Weighted MMSE Approach...", IEEE TSP
    2011, eq. (15)), under either constraint.  If the mu -> 0+ limit fits the budget
    (sum_keep e_j / lam_j^2 <= p_max) it is the precoder and mu = 0: users with y_k = 0
    leave the gram singular, and a naive solve would report roundoff-level power, not
    that limit.  Otherwise the power h(mu) = sum_j e_j / (lam_j + mu)^2, non-increasing
    in mu, is bisected until the budget is met within a relative tolerance of 1e-6
    (``_dual_root``), and the precoder is solved once, at the accepted mu.
    An instance whose R is singular fails with the curvature ``SolverError`` whatever
    its budget.  ``heff`` is the effective channel at ``phases``, if known.

    A batch (``inst`` a ``model._Rows`` of rows whose R is not singular, ``aux`` and ``heff``
    stacked by row; ``phases`` is not read) runs on stacked arrays, one whitening stack
    and one spectrum stack whatever the rows' constraints; the bisection runs row by row,
    and so does the spectrum of a stack that fails ``eigh`` (``model._by_row``).  It
    returns the stacked precoders, the mu per row and {row: error} for the rows that
    failed, whose precoders are zero.  One instance is a batch of one (``model._one``).
    """
    single = isinstance(inst, SystemInstance)
    if single:
        heff = (effective_channel(inst, phases) if heff is None else heff)[np.newaxis]
        inst = _Rows([inst])
        aux = _unchecked(AuxVariables, gamma=aux.gamma[np.newaxis], y=aux.y[np.newaxis])
    budget, white = inst.power_budget, inst.whitening
    gram, rhs = _precoder_system(inst, heff, aux)
    matrices, mu, failed = np.zeros_like(rhs), np.zeros(budget.size), {}
    # A failed row's spectrum is zero, which cuts every lam_j: power 0 and a zero precoder.
    lam, vecs, coords, energy = _by_row(_spectrum, (white, gram, rhs), failed)
    keep = _kept(lam)
    with np.errstate(divide="ignore", invalid="ignore"):
        power0 = np.sum(energy / lam ** 2, axis=-1, where=keep)
        scaled = np.where(keep[..., np.newaxis], coords / lam[..., np.newaxis], 0.0)
    search = ~(power0 <= budget)  # a NaN power searches, as it fails the test
    # The mu -> 0+ limit L^-H V (c_j / lam_j, 0 where cut) of each row that fits, at any rank.
    stay = np.flatnonzero(~search)
    matrices[stay] = _adjoint(white[stay]) @ (vecs[stay] @ scaled[stay])

    for row in np.flatnonzero(search):
        limit = budget[row].item()
        try:
            power_at = _power_curve(lam[row], energy[row])
            mu[row] = _dual_root(power_at, limit)
        except SolverError as exc:
            failed[row] = exc
            search[row] = False
    rows = np.flatnonzero(search)
    matrices[rows] = _solve_rows(
        gram[rows] + mu[rows][:, None, None] * inst.curvature[rows], rhs[rows], rows, failed
    )
    if single:
        return _one([failed.get(0, (Precoder(matrices[0]), float(mu[0])))])
    return matrices, mu, failed


def _cycle_terms(past_phi, past_b, phi, b):
    """SQUAREM's r = x1 - x0 and v = (x2 - x1) - r for stacked x0 = ``past_*[:, 0]``,
    x1 = ``past_*[:, 1]`` and x2 = (``phi``, ``b``): (r_phi, v_phi, r_b, v_b), the phase
    differences wrapped to (-pi, pi]."""
    def wrap(d):
        return np.pi - np.mod(np.pi - d, 2.0 * np.pi)

    r_phi, r_b = wrap(past_phi[:, 1] - past_phi[:, 0]), past_b[:, 1] - past_b[:, 0]
    return r_phi, wrap(phi - past_phi[:, 1]) - r_phi, r_b, (b - past_b[:, 1]) - r_b


def _squares(phi: np.ndarray, b: np.ndarray) -> list:
    """The squared norm of each row's joint vector (phases, precoder), by per-row dots."""
    flat = b.reshape(len(b), -1)
    return (np.vecdot(phi, phi) + np.vecdot(flat, flat).real).tolist()


def bcd_solve(inst, settings: SolverSettings, init=None, width: int | None = None):
    """Run outer BCD iterations (gamma, y, phases, precoder) from a feasible start.

    The iterations are evaluations of the BCD map in SQUAREM cycles (Varadhan & Roland,
    2008; see the module docstring); every evaluation, rejected ones included, counts
    against ``bcd_max_iters``.  Only plain steps are tested: one whose weighted-sum-rate
    gain is ``settings.bcd_epsilon`` or less stops the solve, and a kept extrapolation is
    always followed by a plain step.  The last ``detail`` row's ``stop`` says why the solve
    ended: "no_progress" (gain <= 0), "converged" (0 < gain <= epsilon) or "iteration_cap".
    ``detail`` has one row per evaluation, with the phase block's accepted steps and
    objective evaluations, and an extrapolation's ``alpha`` and whether it was ``kept``.
    The trace holds the accepted points only, as (evaluation, wsr) pairs from (0, wsr at
    the start), so it never drops; its last index, the evaluation that produced the
    solution, is a sweep CSV's ``iterations``.  An evaluation forms heff @ B twice: at the
    row's point, for gamma and y, and at the new point, for SINR, WSR and f1; it forms
    heff once per phase state.

    Given ``width`` >= 1, a solve queue: ``inst`` iterates over (instance, start) pairs (a
    start has the ``phases`` and ``precoder`` of a point, as a Solution does), errors, each
    its item's outcome, and None, which admits nothing at that iteration.  An item takes a
    free one of ``width`` slots unless its K, N or M differ from the first row's, its R is
    singular, its start is over budget by more than 1e-6 or its phases are not M long.  The
    queue yields (position in ``inst``, Solution or error) as each row stops and ends when
    none runs.  Each row counts its own evaluations, one per batch iteration, and takes its
    own alpha and accept test on Python scalars; its bits do not depend on its batch-mates.
    A ``width`` that is not an int >= 1 raises SolverError, as does a call with neither
    ``width`` nor ``init``.  Sequences ``inst`` and ``init`` of one length
    (DimensionMismatchError otherwise) are the queue of their pairs, a slot each, returned
    in input order (an empty one gives []); one instance is a batch of one (``model._one``).
    """
    if width is not None:
        _check_count("width", width)
        return _queue(inst, settings, width)
    if init is None:
        raise SolverError("bcd_solve needs init, the start (phases and precoder) of each instance")
    if isinstance(inst, SystemInstance):
        return _one(bcd_solve([inst], settings, [init]))
    insts, inits = list(inst), list(init)
    _check_rows(insts, init=inits)
    outcome = [None] * len(insts)
    for position, solved in _queue(zip(insts, inits), settings, max(len(insts), 1)):
        outcome[position] = solved
    return outcome


def _queue(items, settings: SolverSettings, width: int):
    """``bcd_solve``'s one outer loop, over the rows in ``width`` fixed slots; see there.

    A slot holds its row's instance, last accepted point and that point's effective channel,
    ``past`` its cycle's x0 and x1, and ``cycle`` its next evaluation's place: 0 and 1 plain
    steps, 2 on extrapolations.  A batch iteration reads its rows as one ``model._Rows``,
    forms the effective channels of new and (unless frozen) extrapolated rows, and the link
    terms of all from their points.  A failed plain step fails its row; a failed
    extrapolation is rejected.  The Solutions of the rows that stop in one batch iteration
    are built together (``Solution.from_states``).
    """
    items, free, active, taken = iter(items), list(range(width))[::-1], [], 0
    insts, where, traces, details, alpha = ([None] * width for _ in range(5))
    cycle, first = [0] * width, None
    while True:
        while free and (item := next(items, None)) is not None:
            position, taken = taken, taken + 1
            if isinstance(item, Exception):
                yield position, item
                continue
            one, start = item
            if first is None:  # the slots take the shape of the first row
                first, (k, n, m) = one, _Rows([one]).dims
                phases, past_phi = np.zeros((width, m)), np.zeros((width, 2, m))
                heff, precoders, past_b = (
                    np.zeros((width, *s), complex) for s in ((k, n), (n, k), (2, n, k))
                )
            try:
                _Rows([first, one])  # the shape DimensionMismatchError
                one.curvature_whitening  # the curvature SolverError
                # Recompute slack against this instance rather than trusting the value
                # stored on the init, which may have been produced for another budget.
                slack = one.power_budget - constraint_value(one, start.precoder)
                if slack < -_BUDGET_SLACK * one.power_budget:
                    raise SolverError("initial point violates the power constraint")
                _check_phases(one, start.phases)
            except _FAILURES as exc:
                yield position, exc
                continue
            slot = free.pop()
            insts[slot], where[slot], traces[slot], cycle[slot] = one, position, [], 0
            phases[slot], precoders[slot] = start.phases.phases, start.precoder.matrix
            active.append(slot)
        if not active:
            return
        rows, part = np.array(active), _Rows([insts[slot] for slot in active])
        ext = [j for j, slot in enumerate(active) if cycle[slot] > 1]
        if ext:  # alpha for each fresh x2; a row whose x' would be x2 resumes from there
            at = rows[ext]
            diffs = _cycle_terms(past_phi[at], past_b[at], phases[at], precoders[at])
            for slot, r_sq, v_sq in zip(at.tolist(), _squares(*diffs[::2]), _squares(*diffs[1::2])):
                if cycle[slot] == 2:
                    ratio = (r_sq / v_sq) ** 0.5 if v_sq > 0 else 0.0
                    alpha[slot] = min(_ALPHA_FLOOR, -ratio)
                    cycle[slot] = 2 if alpha[slot] < _ALPHA_FLOOR else 0
            keep = [i for i, slot in enumerate(at.tolist()) if cycle[slot]]
            if len(keep) < len(ext):
                ext, at, diffs = [ext[i] for i in keep], at[keep], [d[keep] for d in diffs]
        plain = rows[[j for j, slot in enumerate(active) if cycle[slot] < 2]]
        steps = [cycle[slot] for slot in plain]  # a plain step's start is its cycle's x0 or x1
        past_phi[plain, steps], past_b[plain, steps] = phases[plain], precoders[plain]
        phi, b, h = (a[rows] for a in (phases, precoders, heff))
        if ext:  # the map runs from x' = x0 - 2 alpha r + alpha^2 v
            r_phi, v_phi, r_b, v_b = diffs
            a = np.array([alpha[slot] for slot in at.tolist()])[:, np.newaxis, np.newaxis]
            b[ext] = past_b[at, 0] - 2.0 * a * r_b + a * a * v_b
            if not settings.freeze_phases:
                a = a[..., 0]
                phi[ext] = past_phi[at, 0] - 2.0 * a * r_phi + a * a * v_phi
        new_rows = [j for j, slot in enumerate(active) if not traces[slot]]
        fresh = new_rows + ([] if settings.freeze_phases else ext)
        if fresh:
            h[fresh] = _Rows([part.insts[j] for j in fresh]).effective_channels(phi[fresh])
        g, ff, tt = _link_terms(part, h @ b)
        for j in new_rows:  # a trace opens at its start's WSR
            traces[active[j]], details[active[j]] = [(0, _rates(part.insts[j], g[j])[1])], []
        aux = _unchecked(AuxVariables, gamma=g, y=_y_update(part, g, ff, tt))
        pga_steps, phase_evals = [0] * rows.size, [0] * rows.size
        if not settings.freeze_phases:
            phi, pga_steps, phase_evals = _pga(
                build_analog_subproblem(part, _unchecked(Precoder, matrix=b), aux), phi, settings
            )
            h = part.effective_channels(phi)
        matrices, mu, failed = dual_search(part, None, aux, heff=h)
        terms = _link_terms(part, h @ matrices)
        new = _rates(part, terms[0])[1]
        surrogate, mu = _surrogate(part, aux, *terms[1:]).tolist(), mu.tolist()
        going, stopped, accepted = [], [], []
        for j, slot in enumerate(active):
            extrapolated = cycle[slot] > 1
            if j in failed and not extrapolated:
                stopped.append((slot, failed[j]))
                continue
            iteration, last = len(details[slot]) + 1, traces[slot][-1][1]
            row = dict(
                iteration=iteration, wsr=new[j], surrogate=surrogate[j], mu=mu[j],
                pga_steps=pga_steps[j], phase_evals=phase_evals[j],
            )
            details[slot].append(row)
            if extrapolated:
                row["alpha"], row["kept"] = alpha[slot], j not in failed and new[j] >= last
                alpha[slot], cycle[slot] = 0.5 * (alpha[slot] - 1.0), cycle[slot] + 1
                if row["kept"] or alpha[slot] >= _ALPHA_FLOOR or cycle[slot] > 1 + _TRIES:
                    cycle[slot] = 0
            else:
                cycle[slot], gain = cycle[slot] + 1, new[j] - last
                if gain <= settings.bcd_epsilon:
                    row["stop"] = "converged" if gain > 0 else "no_progress"
            if not extrapolated or row["kept"]:
                accepted.append(j)
                traces[slot].append((iteration, new[j]))
            if "stop" not in row and iteration < settings.bcd_max_iters:
                going.append(slot)
                continue
            row.setdefault("stop", "iteration_cap")
            stopped.append((slot, None))
        at = rows[accepted]
        phases[at], precoders[at], heff[at] = phi[accepted], matrices[accepted], h[accepted]
        active = going
        done = [slot for slot, outcome in stopped if outcome is None]
        if done:  # copies: a slot's rows are overwritten when it admits another
            solved = iter(Solution.from_states(
                [insts[slot] for slot in done], phases[done], precoders[done],
                [traces[slot] for slot in done], [details[slot] for slot in done],
            ))
        for slot, outcome in stopped:
            free.append(slot)
            yield where[slot], next(solved) if outcome is None else outcome
