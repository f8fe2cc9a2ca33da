"""Monte Carlo experiment harness: sweeps, trials, CSV output, plot scripts.

A sweep evaluates every (grid value, trial, method, illumination) combination
of an :class:`ExperimentSpec`.  Every method and illumination of a trial reads
one :class:`Trial` (common random numbers): one user drop and one surface
channel, drawn from streams derived only from ``(base_seed, trial_index)``;
the no-surface channel and the random-phase draw use independent child
streams, so they never perturb the shared draws.

Determinism contract: the emitted CSV is a pure function of the spec and base
seed, byte-identical across runs and worker counts.  It holds no measured time.

Two bounded LRU memos with read-only arrays change no draw: layout and transfer
matrix per resolved :class:`GeometryConfig` and illumination (16 entries), and
:func:`block`, the last :class:`Block` (1 entry): the trials ``[b*B, (b+1)*B)``
of one grid value, ``B = BLOCK_TRIALS``.  A block builds each :class:`Trial` on
first use, so a trial's cells share its drop, channel and ZF-WF solutions.  The
first BCD cell of a (method, illumination) solves that kind for every trial of
the block in one batched ``bcd_solve`` call; the frozen-phase methods ignore the
illumination, so theirs is solved once for all illuminations.  Each cell takes
its solution out, so asking for a cell again solves it again.  A solve's bits do
not depend on its batch, and ``run_sweep`` gives workers whole blocks.

The no-surface baseline (``Method.NO_ITS``) is a conventional N-antenna
digital WMMSE system: the surface and its transfer matrix are replaced by
identities, the channel comes from :func:`itsbeam.channel.sample_direct_channel`,
and the power constraint is always TRANSMITTED_POWER: with T = I both power
maps are I, so the two constraint kinds coincide.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property, lru_cache

import numpy as np

from .channel import ChannelParams, sample_channel, sample_direct_channel, sample_user_drop
from .errors import SolverError
from .geometry import (
    GeometryConfig,
    IlluminationMode,
    build_layout,
    build_transfer_matrix,
    characteristic_distance,
)
# sinr and constraint_value stay module attributes: call-site tracers wrap them here.
from .model import (
    ConstraintKind,
    PhaseConfig,
    Precoder,
    Solution,
    SystemInstance,
    constraint_value,
    effective_channel,
    sinr,
)
from .wmmse import _FAILURES, SolverSettings, bcd_solve
from .zfwf import zf_directions, zfwf_solve

__all__ = [
    "Method",
    "SweepKind",
    "ExperimentSpec",
    "ResultRecord",
    "SPEED_OF_LIGHT",
    "CSV_HEADER",
    "dbm_to_watts",
    "trial_seed",
    "BLOCK_TRIALS",
    "Trial",
    "Block",
    "block",
    "trial",
    "solve_cell",
    "run_trial",
    "run_sweep",
    "write_results",
    "write_summary",
    "emit_plot_script",
]

SPEED_OF_LIGHT = 299792458.0

CSV_HEADER = (
    "sweep,sweep_value,trial,method,illumination,constraint,"
    "wsr,iterations,seed"
)

SUMMARY_HEADER = (
    "sweep,sweep_value,method,illumination,constraint,mean_wsr,std_wsr,trials,failed"
)


class Method(Enum):
    """Solvers the harness can run on a trial."""

    WMMSE_BCD = "wmmse_bcd"
    ZF_WF = "zf_wf"
    RANDOM_PHASES = "random_phases"
    NO_ITS = "no_its"


class SweepKind(Enum):
    """What the grid values mean: dBm budget, separation in R0 units, or dB loss."""

    POWER = "power"
    DISTANCE = "distance"
    LOSS = "loss"


@dataclass(frozen=True)
class ExperimentSpec:
    """Complete, self-contained description of one sweep experiment."""

    sweep: SweepKind
    grid: tuple
    trials: int
    base_seed: int
    methods: tuple
    illuminations: tuple
    constraint: ConstraintKind
    n_users: int
    weights: tuple
    noise_power: float
    power_budget_dbm: float
    geometry: GeometryConfig
    channel: ChannelParams
    solver: SolverSettings

    def __post_init__(self):
        if len(self.grid) == 0:
            raise SolverError("sweep grid must not be empty")
        if self.trials < 1:
            raise SolverError("trials must be >= 1")
        if self.base_seed < 0:
            raise SolverError("base_seed must be >= 0")
        if self.n_users < 1:
            raise SolverError("n_users must be >= 1")
        if len(self.weights) != self.n_users:
            raise SolverError("weights length must equal n_users")
        if not all(math.isfinite(w) and w >= 0 for w in self.weights) or not any(self.weights):
            raise SolverError("weights must be finite, nonnegative and not all zero")
        if not all(math.isfinite(v) for v in self.grid):
            raise SolverError("sweep grid values must be finite")
        if not math.isfinite(self.power_budget_dbm):
            raise SolverError("power_budget_dbm must be finite")
        if not (math.isfinite(self.noise_power) and self.noise_power > 0):
            raise SolverError("noise_power must be finite and positive")
        if self.sweep is SweepKind.LOSS and min(self.grid) < 0:
            raise SolverError("loss grid values are dB losses and must be >= 0")
        if self.sweep is SweepKind.DISTANCE and min(self.grid) <= 0:
            raise SolverError("distance grid values are R0 multiples and must be > 0")
        object.__setattr__(self, "grid", tuple(float(v) for v in self.grid))
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        object.__setattr__(self, "methods", tuple(self.methods))
        object.__setattr__(self, "illuminations", tuple(self.illuminations))


@dataclass(frozen=True)
class ResultRecord:
    """One CSV detail row; ``wsr`` is NaN when the solver failed."""

    sweep: str
    sweep_value: float
    trial: int
    method: str
    illumination: str
    constraint: str
    wsr: float
    iterations: int
    seed: int

    def to_csv_row(self) -> str:
        return ",".join(
            [
                self.sweep,
                repr(float(self.sweep_value)),
                str(self.trial),
                self.method,
                self.illumination,
                self.constraint,
                repr(float(self.wsr)),
                str(self.iterations),
                str(self.seed),
            ]
        )


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


def trial_seed(base_seed: int, trial_index: int) -> int:
    """Deterministic per-trial seed recorded in the CSV."""
    return int(np.random.SeedSequence([int(base_seed), int(trial_index)]).generate_state(1)[0])


def _trial_streams(base_seed: int, trial_index: int):
    """Independent generators: (drop then surface channel, no-surface channel, random phases)."""
    children = np.random.SeedSequence([int(base_seed), int(trial_index)]).spawn(3)
    return tuple(np.random.default_rng(child) for child in children)


def _resolve_sweep(spec: ExperimentSpec, sweep_value: float):
    """Apply one grid value, returning (geometry, power_budget_watts)."""
    geometry = spec.geometry
    budget = dbm_to_watts(spec.power_budget_dbm)
    if spec.sweep is SweepKind.POWER:
        budget = dbm_to_watts(sweep_value)
    elif spec.sweep is SweepKind.DISTANCE:
        r0 = characteristic_distance(
            geometry.n_elements, geometry.n_active, geometry.wavelength
        )
        geometry = replace(geometry, separation=sweep_value * r0)
    elif spec.sweep is SweepKind.LOSS:
        geometry = replace(geometry, surface_efficiency=10.0 ** (-sweep_value / 10.0))
    return geometry, budget


def _read_only(*arrays):
    for array in arrays:
        array.setflags(write=False)


@lru_cache(maxsize=16)  # grid values x illuminations of a sweep
def _geometry(geometry: GeometryConfig, illumination: IlluminationMode):
    """(layout, transfer) of one resolved geometry and illumination; arrays read-only."""
    layout = build_layout(geometry, illumination)
    transfer = build_transfer_matrix(layout)
    _read_only(transfer, *(a for a in vars(layout).values() if isinstance(a, np.ndarray)))
    return layout, transfer


class Trial:
    """Shared state of one (grid value, trial), read by all its cells; arrays read-only.

    Stream 0 draws the user drop, then the surface channel shared by every illumination
    (none moves an element); stream 1 the no-surface channel, stream 2 the random phases.
    All but the drop is drawn on first use: a failed surface draw spares no_its.
    """

    def __init__(self, spec: ExperimentSpec, sweep_value: float, trial_index: int):
        self.spec = spec
        self.geometry, self.budget = _resolve_sweep(spec, sweep_value)
        self.layout = _geometry(self.geometry, IlluminationMode.FULL)[0]
        self.streams = _trial_streams(spec.base_seed, trial_index)
        self.drop = sample_user_drop(spec.channel, spec.n_users, self.streams[0])
        self._surface, self._zfwf = {}, {}

    def _build(self, transfer, channel, constraint) -> SystemInstance:
        inst = SystemInstance(
            transfer=transfer, channel=channel, noise_power=self.spec.noise_power,
            power_budget=self.budget, weights=np.asarray(self.spec.weights), constraint=constraint,
        )
        _read_only(inst.transfer, inst.channel, inst.weights)
        return inst

    @cached_property
    def channel(self) -> np.ndarray:
        """The (K, M) surface channel, drawn from stream 0 after the drop."""
        return sample_channel(self.layout, self.drop, self.spec.channel, self.streams[0])

    def instance(self, illumination: IlluminationMode) -> SystemInstance:
        """The surface instance under ``illumination``."""
        if illumination not in self._surface:
            transfer = _geometry(self.geometry, illumination)[1]
            self._surface[illumination] = self._build(transfer, self.channel, self.spec.constraint)
        return self._surface[illumination]

    @cached_property
    def no_surface(self) -> SystemInstance:
        """The no-surface baseline: identity transfer, direct channel, always TP."""
        direct = sample_direct_channel(self.layout, self.drop, self.spec.channel, self.streams[1])
        constraint = _applied_constraint(self.spec, Method.NO_ITS)
        return self._build(np.eye(self.geometry.n_active), direct, constraint)

    @cached_property
    def random_phases(self) -> PhaseConfig:
        """Uniform phases for the random-phase baseline, drawn from stream 2."""
        phases = PhaseConfig(self.streams[2].uniform(0.0, 2.0 * np.pi, self.geometry.n_elements))
        _read_only(phases.phases)
        return phases

    def zfwf(self, illumination: IlluminationMode) -> Solution:
        """The ZF-WF solution of ``instance(illumination)``, solved once."""
        if illumination not in self._zfwf:
            sol = zfwf_solve(self.instance(illumination))
            _read_only(sol.phases.phases, sol.precoder.matrix)
            self._zfwf[illumination] = sol
        return self._zfwf[illumination]


_REVIVAL_BLEND = 1e-2


def _bcd_init(inst, sol):
    """Zero-forcing start for the BCD solver from the ZF-WF solution ``sol`` of ``inst``.

    Water-filling can shut off a user whose zero-forcing direction is costly,
    and a user entering BCD at exactly zero power stays silent forever (zero
    signal makes y_k = 0 a fixed point of the coordinate updates).  When that
    happens, a small slice of the budget is shifted toward the equal-power
    allocation along the same directions; the total stays exactly on budget.
    """
    powers = np.asarray(sol.detail["powers"], dtype=float)
    if np.all(powers > 0.0):
        return sol
    costs = np.asarray(sol.detail["chain_costs"], dtype=float)
    equal = inst.power_budget / (inst.n_users * costs)
    blended = (1.0 - _REVIVAL_BLEND) * powers + _REVIVAL_BLEND * equal
    directions = zf_directions(effective_channel(inst, sol.phases))
    precoder = Precoder(directions * np.sqrt(blended)[np.newaxis, :])
    return Solution.from_state(
        inst, sol.phases, precoder, detail=dict(sol.detail, powers=blended.tolist(), revived=True)
    )


# Trials per block.  A block holds its trials' states and up to two kinds of
# solutions at once: blocks of 64 ran faster than 32 but raised the peak
# memory of a 500-trial frozen-phase sweep by 15%, against 8% at 32.
BLOCK_TRIALS = 32

_BCD_METHODS = (Method.WMMSE_BCD, Method.RANDOM_PHASES, Method.NO_ITS)


def _block_trials(spec: ExperimentSpec, index: int) -> range:
    return range(index * BLOCK_TRIALS, min((index + 1) * BLOCK_TRIALS, spec.trials))


class Block:
    """The trials ``[index*B, (index+1)*B)`` of one grid value, ``B = BLOCK_TRIALS``.

    Each :class:`Trial` is built on first use.  The BCD cells of one (method,
    illumination) are solved together, in one ``bcd_solve`` call, on the first
    request for any of them, and each outcome is stored under its cell (method,
    illumination, trial) until a request takes it out.  The frozen-phase methods
    ignore the illumination, so each of them is solved once and fills the cells of
    every illumination of the spec.
    """

    def __init__(self, spec: ExperimentSpec, sweep_value: float, index: int):
        self.spec, self.sweep_value = spec, sweep_value
        self.trials = _block_trials(spec, index)
        self._states, self._solved = {}, {}

    def trial(self, trial_index: int) -> Trial:
        """The shared state of one trial of this block."""
        if trial_index not in self._states:
            self._states[trial_index] = Trial(self.spec, self.sweep_value, trial_index)
        return self._states[trial_index]

    def _start(self, method: Method, illumination: IlluminationMode, trial_index: int):
        """(instance, initial point) of one BCD cell."""
        state = self.trial(trial_index)
        if method is Method.WMMSE_BCD:
            inst = state.instance(illumination)
            return inst, _bcd_init(inst, state.zfwf(illumination))
        if method is Method.NO_ITS:
            inst, phases = state.no_surface, PhaseConfig(np.zeros(state.geometry.n_active))
        else:
            inst, phases = state.instance(IlluminationMode.FULL), state.random_phases
        # Both frozen-phase baselines run plain digital WMMSE from a zero-forcing start.
        return inst, _bcd_init(inst, zfwf_solve(inst, phases=phases))

    def solution(self, method: Method, illumination: IlluminationMode, trial_index: int):
        """The BCD solution of one cell; its error (an itsbeam or LinAlgError) is raised."""
        cell = (method, illumination, trial_index)
        if cell not in self._solved:
            self._solve(method, illumination)
        outcome = self._solved.pop(cell)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    def _solve(self, method: Method, illumination: IlluminationMode) -> None:
        """Solve one kind for the trials whose cell is not stored; frozen, in every illumination."""
        frozen = method is not Method.WMMSE_BCD
        lights = {illumination, *self.spec.illuminations} if frozen else {illumination}
        starts, outcomes = {}, {}
        missing = [t for t in self.trials if (method, illumination, t) not in self._solved]
        for trial_index in missing:
            try:
                starts[trial_index] = self._start(method, illumination, trial_index)
            except _FAILURES as exc:
                outcomes[trial_index] = exc
        if starts:
            settings = replace(self.spec.solver, freeze_phases=True) if frozen else self.spec.solver
            insts, inits = zip(*starts.values())
            try:
                solved = bcd_solve(insts, settings, inits)
            except _FAILURES as exc:
                solved = [exc] * len(starts)
            outcomes.update(zip(starts, solved))
        self._solved.update(
            ((method, light, t), outcome) for t, outcome in outcomes.items() for light in lights
        )


# block(spec, sweep_value, index): the last block; cells run block by block.
block = lru_cache(maxsize=1)(Block)


def trial(spec: ExperimentSpec, sweep_value: float, trial_index: int) -> Trial:
    """The shared state of one trial, held by its block."""
    return block(spec, sweep_value, trial_index // BLOCK_TRIALS).trial(trial_index)


def _applied_constraint(spec: ExperimentSpec, method: Method) -> ConstraintKind:
    """The constraint a cell applies: TRANSMITTED_POWER without a surface, else the spec's."""
    return ConstraintKind.TRANSMITTED_POWER if method is Method.NO_ITS else spec.constraint


def solve_cell(
    spec: ExperimentSpec,
    sweep_value: float,
    trial_index: int,
    method: Method,
    illumination: IlluminationMode,
):
    """Solve one (grid value, trial, method, illumination) cell on the trial's shared state.

    Returns (solution, applied constraint); the no-surface baseline always
    applies TRANSMITTED_POWER.  Solver errors propagate.  A BCD cell comes from
    its block, which solves the cell's kind for all its trials on first request.
    """
    state = block(spec, sweep_value, trial_index // BLOCK_TRIALS)
    if method is Method.ZF_WF:
        solved = state.trial(trial_index).zfwf(illumination)
    elif method in _BCD_METHODS:
        solved = state.solution(method, illumination, trial_index)
    else:
        raise SolverError(f"unknown method {method!r}")
    return solved, _applied_constraint(spec, method)


def run_trial(
    spec: ExperimentSpec,
    sweep_value: float,
    trial_index: int,
    method: Method,
    illumination: IlluminationMode,
) -> ResultRecord:
    """Run one (grid value, trial, method, illumination) cell.

    Failures (any itsbeam error, or a numpy LinAlgError) become records with
    NaN wsr and 0 iterations rather than exceptions, so a long sweep cannot be
    lost to a single bad trial.
    """
    try:
        solution = solve_cell(spec, sweep_value, trial_index, method, illumination)[0]
        value = solution.wsr
        iterations = int(solution.trace[-1][0])
    except _FAILURES:
        value = math.nan
        iterations = 0
    return ResultRecord(
        sweep=spec.sweep.value,
        sweep_value=float(sweep_value),
        trial=trial_index,
        method=method.value,
        illumination=illumination.value,
        constraint=_applied_constraint(spec, method).value,
        wsr=value,
        iterations=iterations,
        seed=trial_seed(spec.base_seed, trial_index),
    )


def _block_records(spec: ExperimentSpec, sweep_value: float, index: int) -> list:
    """The records of one block's cells, in run_sweep's order."""
    return [
        run_trial(spec, sweep_value, trial_index, method, illumination)
        for trial_index in _block_trials(spec, index)
        for method in spec.methods
        for illumination in spec.illuminations
    ]


def run_sweep(spec: ExperimentSpec, workers: int = 1) -> list:
    """Run the full cross product grid x trials x methods x illuminations.

    Record order is deterministic (grid-major, then trial, then method, then
    illumination) regardless of ``workers``.  Blocks are the work units: a
    worker solves a whole block, and a sweep of one block runs in this process.
    """
    blocks = [
        (spec, value, index)
        for value in spec.grid
        for index in range(-(-spec.trials // BLOCK_TRIALS))
    ]
    if workers <= 1 or len(blocks) == 1:
        parts = [_block_records(*task) for task in blocks]
    else:
        with ProcessPoolExecutor(max_workers=min(workers, len(blocks))) as pool:
            parts = list(pool.map(_block_records, *zip(*blocks)))
    return [record for part in parts for record in part]


def write_results(records, path) -> None:
    """Write detail records as CSV with the fixed 9-column header."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        for record in records:
            fh.write(record.to_csv_row() + "\n")


def write_summary(records, path) -> None:
    """Aggregate mean/std WSR per (grid value, method, illumination, constraint).

    Groups appear in the order of their first record.  Failed trials (NaN
    wsr) are excluded from the statistics and counted in the ``failed``
    column; ``std_wsr`` uses ddof = 1.
    """
    groups = {}
    for r in records:
        key = (r.sweep, r.sweep_value, r.method, r.illumination, r.constraint)
        groups.setdefault(key, []).append(r.wsr)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(SUMMARY_HEADER + "\n")
        for key, wsrs in groups.items():
            values = np.asarray(wsrs, dtype=float)
            ok = values[np.isfinite(values)]
            failed = values.size - ok.size
            mean = float(np.mean(ok)) if ok.size else math.nan
            std = float(np.std(ok, ddof=1)) if ok.size > 1 else math.nan
            sweep, value, method, illumination, constraint = key
            fh.write(
                ",".join(
                    [
                        sweep,
                        repr(float(value)),
                        method,
                        illumination,
                        constraint,
                        repr(mean),
                        repr(std),
                        str(ok.size),
                        str(failed),
                    ]
                )
                + "\n"
            )


_SWEEP_LABELS = {
    "power": "transmit power budget (dBm)",
    "distance": "array separation (multiples of R0)",
    "loss": "surface loss (dB)",
}

_PLOT_TEMPLATE = '''"""Auto-generated plot script: mean weighted sum rate per method/illumination."""

import csv
from collections import defaultdict

import matplotlib

matplotlib.use("Agg")
import matplotlib.pyplot as plt

CSV_PATH = {csv_path!r}
OUT_PATH = {png_path!r}
XLABEL = {xlabel!r}

series = defaultdict(lambda: defaultdict(list))
with open(CSV_PATH, newline="") as fh:
    for row in csv.DictReader(fh):
        wsr = float(row["wsr"])
        if wsr != wsr:  # skip failed trials
            continue
        label = row["method"] + " / " + row["illumination"]
        series[label][float(row["sweep_value"])].append(wsr)

fig, ax = plt.subplots(figsize=(6.0, 4.2))
for label in sorted(series):
    points = sorted(series[label].items())
    xs = [x for x, _ in points]
    ys = [sum(v) / len(v) for _, v in points]
    ax.plot(xs, ys, marker="o", label=label)
ax.set_xlabel(XLABEL)
ax.set_ylabel("mean weighted sum rate (bits/s/Hz)")
ax.grid(True, alpha=0.4)
ax.legend()
fig.tight_layout()
fig.savefig(OUT_PATH, dpi=150)
print("wrote", OUT_PATH)
'''


def emit_plot_script(spec: ExperimentSpec, csv_path: str, script_path: str) -> None:
    """Write a standalone matplotlib script that charts the sweep CSV."""
    png_path = str(csv_path) + ".png"
    body = _PLOT_TEMPLATE.format(
        csv_path=str(csv_path),
        png_path=png_path,
        xlabel=_SWEEP_LABELS[spec.sweep.value],
    )
    with open(script_path, "w", encoding="utf-8") as fh:
        fh.write(body)
