"""Core downlink model: instance container, phase/precoder types, SINR and power ops.

The modelled link is `user <- surface <- active array`: an N-chain active
array illuminates an M-element transmissive surface whose element m applies a
unit-modulus weight exp(j*phi_m), and user k receives through the row vector
h_k of the surface-to-user channel.  The effective channel seen by the digital
precoder is therefore

    heff = H @ diag(exp(j*phi)) @ T          (K x N)

with H the (K, M) user channels and T the (M, N) array-to-surface transfer
matrix.  The power budget caps ||P B||_F^2, the power map P being I_N under TP
and T under RP (the unit-modulus D drops out of ||D T B||_F^2).  All powers in
this module are linear (watts); decibels only appear at the configuration boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import BeamformingError, DimensionMismatchError, SolverError

__all__ = [
    "ConstraintKind",
    "SystemInstance",
    "PhaseConfig",
    "Precoder",
    "Solution",
    "effective_channel",
    "sinr",
    "spectral_efficiency",
    "wsr",
    "constraint_value",
]

_BUDGET_SLACK = 1e-6  # the share of its budget a point may spend over it, wherever checked


class ConstraintKind(Enum):
    """Which quadratic power constraint applies to the digital precoder.

    RADIATED_POWER caps ``||D T B||_F^2``, the power leaving the surface.
    TRANSMITTED_POWER caps ``||B||_F^2``, the power fed into the chains.
    """

    RADIATED_POWER = "rp"
    TRANSMITTED_POWER = "tp"


def _as_complex(a, name: str, ndim: int) -> np.ndarray:
    arr = np.asarray(a, dtype=complex)
    if arr.ndim != ndim:
        raise DimensionMismatchError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise DimensionMismatchError(f"{name} contains non-finite entries")
    return arr


@dataclass(frozen=True)
class SystemInstance:
    """One frozen problem instance.

    Attributes
    ----------
    transfer : (M, N) complex ndarray
        Array-to-surface transfer matrix T.
    channel : (K, M) complex ndarray
        Surface-to-user channels, one row per user.
    noise_power : float
        Receiver noise variance sigma^2 (linear).
    power_budget : float
        Constraint level p_max (linear watts).
    weights : (K,) float ndarray
        Nonnegative per-user rate weights.
    constraint : ConstraintKind
        Which power expression the budget applies to.
    """

    transfer: np.ndarray
    channel: np.ndarray
    noise_power: float
    power_budget: float
    weights: np.ndarray
    constraint: ConstraintKind

    def __post_init__(self):
        t = _as_complex(self.transfer, "transfer", 2)
        h = _as_complex(self.channel, "channel", 2)
        if h.shape[1] != t.shape[0]:
            raise DimensionMismatchError(
                f"channel has {h.shape[1]} columns but transfer has {t.shape[0]} rows"
            )
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (h.shape[0],):
            raise DimensionMismatchError(
                f"weights must have shape ({h.shape[0]},), got {w.shape}"
            )
        if np.any(w < 0) or not np.all(np.isfinite(w)):
            raise DimensionMismatchError("weights must be finite and nonnegative")
        if not (np.isfinite(self.noise_power) and self.noise_power > 0):
            raise DimensionMismatchError("noise_power must be positive")
        if not (np.isfinite(self.power_budget) and self.power_budget > 0):
            raise DimensionMismatchError("power_budget must be positive")
        if not isinstance(self.constraint, ConstraintKind):
            raise DimensionMismatchError("constraint must be a ConstraintKind")
        object.__setattr__(self, "transfer", t)
        object.__setattr__(self, "channel", h)
        object.__setattr__(self, "weights", w)

    @cached_property
    def power_map(self) -> np.ndarray:
        """P in the constraint value ||P B||_F^2: I_N under TP, T under RP; read-only.

        The one reader of the constraint kind.  Under RP it is a view, so ``transfer``
        keeps the flags its caller set.
        """
        tp = self.constraint is ConstraintKind.TRANSMITTED_POWER
        p = np.eye(self.n_chains, dtype=complex) if tp else self.transfer.view()
        p.setflags(write=False)
        return p

    @cached_property
    def curvature(self) -> np.ndarray:
        """R = P^H P in the constraint value tr(B^H R B): I under TP, T^H T under RP; read-only."""
        r = self.power_map.conj().T @ self.power_map
        r.setflags(write=False)
        return r

    @cached_property
    def curvature_whitening(self) -> np.ndarray:
        """L^-1 for the Cholesky factor R = L L^H, built once; SolverError if R is singular.

        Under TP, R = I factors exactly, so this is the identity.
        """
        try:
            return np.linalg.inv(np.linalg.cholesky(self.curvature))
        except np.linalg.LinAlgError as exc:
            raise SolverError("constraint curvature R is singular: no dual power curve") from exc

    @property
    def n_chains(self) -> int:
        return self.transfer.shape[1]

    @property
    def n_elements(self) -> int:
        return self.transfer.shape[0]

    @property
    def n_users(self) -> int:
        return self.channel.shape[0]


@dataclass(frozen=True)
class PhaseConfig:
    """Per-element surface phases phi (radians).

    The surface weight matrix is D = diag(exp(j*phi)); storing angles rather
    than complex weights makes the unit-modulus constraint unviolable.
    """

    phases: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.phases, dtype=float)
        if p.ndim != 1:
            raise DimensionMismatchError(f"phases must be 1-dimensional, got shape {p.shape}")
        if not np.all(np.isfinite(p)):
            raise DimensionMismatchError("phases contains non-finite entries")
        object.__setattr__(self, "phases", p)

    def phasor(self) -> np.ndarray:
        """Diagonal of D, i.e. exp(j*phi), shape (M,)."""
        return np.exp(1j * self.phases)


@dataclass(frozen=True)
class Precoder:
    """Digital precoder B of shape (N, K); column k carries user k's stream."""

    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", _as_complex(self.matrix, "precoder", 2))


@dataclass(frozen=True)
class Solution:
    """Solver output bundle; validated for internal consistency on creation."""

    phases: PhaseConfig
    precoder: Precoder
    sinr: np.ndarray
    spectral_efficiency: np.ndarray
    wsr: float
    constraint_slack: float
    power_budget: float
    trace: tuple = ()
    detail: object = field(default=None, compare=False)

    def __post_init__(self):
        s = np.asarray(self.sinr, dtype=float)
        se = np.asarray(self.spectral_efficiency, dtype=float)
        if s.shape != se.shape:
            raise DimensionMismatchError("sinr and spectral_efficiency must have equal shape")
        if np.any(s < 0):
            raise DimensionMismatchError("sinr must be nonnegative")
        rates = np.log2(1.0 + s)
        if not np.all(np.abs(se - rates) <= 1e-12 + 1e-9 * np.abs(rates)):  # NaN fails
            raise DimensionMismatchError("spectral_efficiency inconsistent with sinr")
        if self.constraint_slack < -_BUDGET_SLACK * self.power_budget:
            raise DimensionMismatchError(
                f"constraint violated: slack {self.constraint_slack:.3e} "
                f"below -{_BUDGET_SLACK:g} * {self.power_budget:.3e}"
            )
        object.__setattr__(self, "sinr", s)
        object.__setattr__(self, "spectral_efficiency", se)

    @classmethod
    def from_state(cls, inst, phases, precoder, trace=None, detail=None) -> Solution:
        """SINR, rates, WSR and slack at (phases, precoder); ``trace`` defaults to ((0, wsr),).

        A batch of one of ``from_states`` (``_one``).
        """
        return _one(cls.from_states(
            [inst], phases.phases[np.newaxis], precoder.matrix[np.newaxis], [trace], [detail]
        ))

    @classmethod
    def from_states(cls, insts, phases, precoders, traces=None, details=None) -> list:
        """``from_state`` of each row: its Solution, or the error of the check it fails.

        ``insts`` share K, N and M; ``phases`` (B, M) and ``precoders`` (B, N, K) are
        stacked by row, ``traces`` and ``details`` listed by row, one entry per instance
        each.  The SINRs come from stacked rows (``_Rows``), each with the bits it gets
        alone.  An empty batch gives [].
        """
        _check_rows(insts, phases=phases, precoders=precoders, traces=traces, details=details)
        if not insts:
            return []
        rows = _Rows(insts)
        (k, n, m), count = rows.dims, len(insts)
        if phases.shape[1:] != (m,):
            raise DimensionMismatchError(f"phases must have shape ({m},), got {phases.shape[1:]}")
        if precoders.shape[1:] != (n, k):
            raise DimensionMismatchError(
                f"precoder must have shape ({n}, {k}), got {precoders.shape[1:]}"
            )
        s = _link_terms(rows, rows.effective_channels(phases) @ precoders)[0]
        se, values = _rates(rows, s)
        traces, details = traces or [None] * count, details or [None] * count
        solutions = []
        for j, one in enumerate(insts):
            try:
                precoder = Precoder(precoders[j])
                solutions.append(cls(
                    phases=PhaseConfig(phases[j]),
                    precoder=precoder,
                    sinr=s[j],
                    spectral_efficiency=se[j],
                    wsr=values[j],
                    constraint_slack=one.power_budget - constraint_value(one, precoder),
                    power_budget=one.power_budget,
                    trace=((0, values[j]),) if traces[j] is None else tuple(traces[j]),
                    detail=details[j],
                ))
            except BeamformingError as exc:
                solutions.append(exc)
        return solutions


def _check_phases(inst: SystemInstance, phases: PhaseConfig) -> None:
    if phases.phases.shape != (inst.n_elements,):
        raise DimensionMismatchError(
            f"phases must have shape ({inst.n_elements},), got {phases.phases.shape}"
        )


def _check_precoder(inst: SystemInstance, precoder: Precoder) -> None:
    if precoder.matrix.shape != (inst.n_chains, inst.n_users):
        raise DimensionMismatchError(
            f"precoder must have shape ({inst.n_chains}, {inst.n_users}), "
            f"got {precoder.matrix.shape}"
        )


def effective_channel(inst: SystemInstance, phases: PhaseConfig) -> np.ndarray:
    """Return heff = H @ diag(exp(j*phi)) @ T, shape (K, N)."""
    _check_phases(inst, phases)
    return (inst.channel * phases.phasor()[np.newaxis, :]) @ inst.transfer


def _one(outcomes: list):
    """The outcome of a batch of one: its result, or its error, raised.  Each solver that
    takes one instance or a batch solves one instance as a batch of one through this."""
    (outcome,) = outcomes
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def _by_row(solve, stacks: tuple, failed: dict, rows=None):
    """``solve(*stacks)``, a stacked LAPACK call that gives an array or a tuple of them.  When
    one bad row fails it for the whole stack, each row is tried alone: one that fails has its
    error in ``failed`` under its entry of ``rows`` (by default its index) and zero output, and
    the others are solved again as one stack.  Either way a row gets the bits it gets alone."""
    try:
        return solve(*stacks)
    except np.linalg.LinAlgError:
        good = []
        for j, row in enumerate(range(len(stacks[0])) if rows is None else rows):
            try:
                solve(*(a[j : j + 1] for a in stacks))
                good.append(j)
            except np.linalg.LinAlgError as exc:
                failed[row] = exc
        out = solve(*(a[good] for a in stacks))
    whole = []
    for part in out if isinstance(out, tuple) else (out,):
        whole.append(np.zeros((len(stacks[0]), *part.shape[1:]), part.dtype))
        whole[-1][good] = part
    return tuple(whole) if isinstance(out, tuple) else whole[0]


def _rows(arrays) -> np.ndarray:
    """``arrays`` stacked by row, or the first alone, to broadcast, when all are one array in
    memory: a transfer matrix that the rows share is not copied."""
    face = arrays[0].__array_interface__
    if all(a.__array_interface__ == face for a in arrays[1:]):
        return arrays[0]
    return np.array(arrays)


def _check_rows(insts, **given) -> None:
    """DimensionMismatchError, with both counts, unless each of ``given`` has a row per instance."""
    for name, values in given.items():
        if values is not None and len(values) != len(insts):
            raise DimensionMismatchError(f"{len(insts)} instances but {len(values)} {name}")


def _stacked(read):
    """A ``_Rows`` attribute stacked on first read: ``read(one)`` of each instance, a row each."""
    return cached_property(lambda rows: np.array([read(one) for one in rows.insts]))


class _Rows:
    """A batch of instances that share K, N and M (``dims``; DimensionMismatchError if not),
    read stacked by row.

    The weights, noise powers (a column), budgets, curvatures R and whitenings L^-1 are
    stacked on first read, so a singular R fails only where ``whitening`` is read; R
    carries the constraint kind (I under TP), so TP and RP rows mix.  The channels and
    transfer matrices are stacked on each read, as held they would add to peak memory, and
    a transfer that the rows share is not copied (``_rows``).  The helpers that read only
    these take a ``_Rows`` where they take one instance.
    """

    weights = _stacked(lambda one: one.weights)
    noise_power = _stacked(lambda one: [one.noise_power])  # a column, to broadcast over users
    power_budget = _stacked(lambda one: one.power_budget)
    curvature = _stacked(lambda one: one.curvature)
    whitening = _stacked(lambda one: one.curvature_whitening)
    channel = property(lambda rows: np.array([one.channel for one in rows.insts]))
    transfer = property(lambda rows: _rows([one.transfer for one in rows.insts]))

    def __init__(self, insts: list):
        # (K,) + (N, M) from the shapes: n_users and the like cost more, row by row
        dims = {one.channel.shape[:1] + one.transfer.shape[::-1] for one in insts} or {(0, 0, 0)}
        if len(dims) != 1:
            raise DimensionMismatchError("a batch's instances must share K, N and M")
        self.insts, (self.dims,) = insts, dims

    def effective_channels(self, phases: np.ndarray) -> np.ndarray:
        """``effective_channel`` of each row at its row of the stacked (B, M) ``phases``,
        stacked (B, K, N); each row has the bits it has alone."""
        channels = self.channel
        channels *= np.exp(1j * phases)[:, np.newaxis, :]  # in place: one (B, K, M) array at a time
        return channels @ self.transfer


def _link_terms(inst: SystemInstance, cross: np.ndarray):
    """SINR, F = diag(cross) and total = sum_i |cross[:, i]|^2 + sigma^2 at cross = heff @ B.

    Also on stacked crosses, one per row of a batch whose ``noise_power`` is a column.
    """
    gains = np.abs(cross) ** 2
    signal, power = np.diagonal(gains, axis1=-2, axis2=-1), gains.sum(axis=-1)
    return (
        signal / ((power - signal) + inst.noise_power),
        np.diagonal(cross, axis1=-2, axis2=-1),
        power + inst.noise_power,
    )


def _rates(inst: SystemInstance, sinr_values: np.ndarray):
    """Per-user rates log2(1 + SINR_k) and their weighted sum, the WSR.

    On stacked rows (a batch), a list of WSRs, each summed as for one instance: a
    stacked product would not give every row the bits of its own dot product.
    """
    se = np.log2(1.0 + sinr_values)
    if se.ndim == 1:
        return se, float(inst.weights @ se)
    return se, [float(w @ row) for w, row in zip(inst.weights, se)]


def sinr(inst: SystemInstance, phases: PhaseConfig, precoder: Precoder) -> np.ndarray:
    """SINR of each user: |heff_k @ b_k|^2 / (sum_{i != k} |heff_k @ b_i|^2 + sigma^2)."""
    _check_precoder(inst, precoder)
    return _link_terms(inst, effective_channel(inst, phases) @ precoder.matrix)[0]


def spectral_efficiency(inst: SystemInstance, phases: PhaseConfig, precoder: Precoder) -> np.ndarray:
    """Per-user rate log2(1 + SINR_k), bits/s/Hz."""
    return _rates(inst, sinr(inst, phases, precoder))[0]


def wsr(inst: SystemInstance, phases: PhaseConfig, precoder: Precoder) -> float:
    """Weighted sum rate sum_k weights_k * log2(1 + SINR_k)."""
    return _rates(inst, sinr(inst, phases, precoder))[1]


def constraint_value(inst: SystemInstance, precoder: Precoder) -> float:
    """Left-hand side of the active power constraint, ||P B||_F^2 with P = ``inst.power_map``.

    RADIATED_POWER:    ||T B||_F^2, equal to ||diag(exp(j*phi)) T B||_F^2 at any phases
    TRANSMITTED_POWER: ||B||_F^2
    """
    _check_precoder(inst, precoder)
    return float(np.linalg.norm(inst.power_map @ precoder.matrix) ** 2)
