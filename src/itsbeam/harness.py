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
:func:`memo`, the :class:`Memo` of the last grid value (1 entry).  It builds each
:class:`Trial` on first use, so a trial's cells share its drop and channel, and it alone
batches trials: it feeds one ``bcd_solve`` queue per BCD kind the trials in order (when
a row stops, the next trial takes its slot; a queue's starts are built a block of trials
at a time, in one ``_bcd_init`` call), and solves a ZF-WF cell not yet solved in one
``zfwf_solve`` call with those of the trials it holds in the queue width from it on; no
trial is drawn only to fill a batch.  Every outcome, ZF-WF or BCD, is stored in its
trial's ``solved``.  The frozen-phase methods ignore the illumination, so one queue and
one outcome each serve every illumination.  A solve's bits do not depend on its batch,
and ``run_sweep`` gives workers contiguous ranges of trials.

The no-surface baseline (``Method.NO_ITS``) is a conventional N-antenna
digital WMMSE system: the surface and its transfer matrix are replaced by
identities, the channel comes from :func:`itsbeam.channel.sample_direct_channel`,
and the power constraint is always TRANSMITTED_POWER: with T = I both power
maps are I, so the two constraint kinds coincide.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property, lru_cache
from types import SimpleNamespace

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
# effective_channel, sinr and constraint_value stay module attributes: call-site tracers
# wrap them here.
from .model import (
    ConstraintKind,
    PhaseConfig,
    Precoder,
    Solution,
    SystemInstance,
    _one,
    constraint_value,
    effective_channel,
    sinr,
)
from .wmmse import _FAILURES, SolverSettings, bcd_solve
from .zfwf import _zero_forcing, zfwf_solve

__all__ = [
    "Method",
    "SweepKind",
    "ExperimentSpec",
    "ResultRecord",
    "SPEED_OF_LIGHT",
    "CSV_HEADER",
    "dbm_to_watts",
    "trial_seed",
    "QUEUE_WIDTH",
    "LOOK_AHEAD",
    "Trial",
    "Memo",
    "memo",
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


@dataclass(frozen=True, slots=True)
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


@lru_cache(maxsize=1)  # a trial's cells run together, so each trial derives its seed once
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
    ``solved`` maps a kind to its Solution or error, written by the memo: the kind is
    (method, illumination) for zf_wf and wmmse_bcd, (method, None) for a frozen-phase method.
    """

    def __init__(self, spec: ExperimentSpec, sweep_value: float, trial_index: int):
        self.spec = spec
        self.geometry, self.budget = _resolve_sweep(spec, sweep_value)
        self.layout = _geometry(self.geometry, IlluminationMode.FULL)[0]
        self.streams = _trial_streams(spec.base_seed, trial_index)
        self.drop = sample_user_drop(spec.channel, spec.n_users, self.streams[0])
        self._surface, self.solved = {}, {}

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


_REVIVAL_BLEND = 1e-2


def _bcd_init(insts, phases) -> list:
    """The BCD starts through ``phases``, one per instance: zero-forcing directions on
    water-filling powers, from one stacked ``_zero_forcing`` pass.

    Water-filling can shut off a user whose zero-forcing direction is costly,
    and a user entering BCD at exactly zero power stays silent forever (zero
    signal makes y_k = 0 a fixed point of the coordinate updates).  When that
    happens, a small slice of the budget is shifted toward the equal-power
    allocation along the same directions; the total stays exactly on budget.
    Returns per row the start's ``phases`` and ``precoder``, with no Solution
    (``bcd_solve`` refuses a start over budget), or the row's error.  Each row gets
    the bits it gets alone.
    """
    directions, allocs = _zero_forcing(insts, phases)
    starts = []
    for inst, row_phases, row_directions, alloc in zip(insts, phases, directions, allocs):
        if isinstance(alloc, Exception):
            starts.append(alloc)
            continue
        powers = alloc.powers
        if not np.all(powers > 0.0):
            equal = inst.power_budget / (inst.n_users * alloc.chain_costs)
            powers = (1.0 - _REVIVAL_BLEND) * powers + _REVIVAL_BLEND * equal
        precoder = Precoder(row_directions * np.sqrt(powers)[np.newaxis, :])
        starts.append(SimpleNamespace(phases=row_phases, precoder=precoder))
    return starts


# A queue's batch width, and its look-ahead: it admits no trial at or past the one
# requested plus LOOK_AHEAD, and on its first request no more than one batch.
QUEUE_WIDTH, LOOK_AHEAD = 32, 64

_BCD_METHODS = (Method.WMMSE_BCD, Method.RANDOM_PHASES, Method.NO_ITS)


class _Queue:
    """A kind's ``bcd_solve`` queue, fed the trials of ``source`` (a Memo) from ``first`` on;
    ``next`` is the trial it admits next, and it admits none at or past ``bound``, which
    the memo sets before it asks for an outcome.  Its feed builds the starts of a block
    of at most ``QUEUE_WIDTH`` trials, short of ``bound``, in one ``Memo.starts`` call."""

    def __init__(self, source, method: Method, illumination: IlluminationMode, first: int):
        solver = source.spec.solver
        if method is not Method.WMMSE_BCD:
            solver = replace(solver, freeze_phases=True)
        self.first = self.next = first
        feed = self._feed(source, method, illumination)
        self.outcomes = bcd_solve(feed, solver, width=QUEUE_WIDTH)

    def _feed(self, source, method, illumination):
        index, trials = self.first, source.spec.trials
        while index < trials:
            while index >= self.bound:
                yield None  # admit nothing until a request moves the bound
            block = range(index, min(index + QUEUE_WIDTH, self.bound, trials))
            for item in source.starts(method, illumination, block):
                self.next = index = index + 1
                yield item


class Memo:
    """The trial states and solve queues of one grid value, and the only code that chooses
    which trials are solved together; each outcome goes to its trial's ``solved``.

    A :class:`Trial` is built on first use and dropped, with the outcomes it holds, once
    a later trial is asked for.  An earlier trial, or a BCD cell already served at the
    requested trial, starts the memo afresh, so a BCD cell asked twice is solved twice.
    """

    def __init__(self, spec: ExperimentSpec, sweep_value: float):
        self.spec, self.sweep_value = spec, sweep_value
        self.states, self.queues, self.requested, self.served = {}, {}, 0, set()

    def trial(self, trial_index: int) -> Trial:
        """The shared state of one trial of this grid value."""
        if trial_index not in self.states:
            self.states[trial_index] = Trial(self.spec, self.sweep_value, trial_index)
        return self.states[trial_index]

    def zfwf(self, illumination: IlluminationMode, trial_index: int) -> Solution:
        """The ZF-WF solution of one trial, or its error raised; if its ``solved`` lacks it, it
        is solved in one ``zfwf_solve`` call with those of the trials this memo holds in the
        ``QUEUE_WIDTH`` from ``trial_index`` on that lack theirs.  No trial is drawn to fill
        the batch, and the width bounds its stacked arrays."""
        kind, state = (Method.ZF_WF, illumination), self.trial(trial_index)
        if kind not in state.solved:
            drawn, batch = [], [state] + [
                held for index, held in self.states.items()
                if trial_index < index < trial_index + QUEUE_WIDTH and kind not in held.solved
            ]
            for held in batch:
                try:
                    drawn.append((held, held.instance(illumination)))
                except _FAILURES as exc:
                    held.solved[kind] = exc
            for (held, _), sol in zip(drawn, zfwf_solve([inst for _, inst in drawn])):
                if not isinstance(sol, Exception):
                    _read_only(sol.phases.phases, sol.precoder.matrix)
                held.solved[kind] = sol
        return _one([state.solved[kind]])

    def starts(self, method: Method, illumination: IlluminationMode, indices) -> list:
        """(instance, initial point), or the error, of the BCD cell of each trial of ``indices``,
        from one ``_bcd_init`` call."""
        points = []
        for index in indices:  # every trial first: a wmmse_bcd start's ZF-WF batch reads them
            try:
                points.append(self.trial(index))
            except _FAILURES as exc:
                points.append(exc)
        for j, state in enumerate(points):
            if isinstance(state, Exception):
                continue
            try:
                if method is Method.WMMSE_BCD:
                    zf = self.zfwf(illumination, indices[j])
                    points[j] = state.instance(illumination), zf.phases
                elif method is Method.NO_ITS:
                    points[j] = state.no_surface, PhaseConfig(np.zeros(state.geometry.n_active))
                else:
                    points[j] = state.instance(IlluminationMode.FULL), state.random_phases
            except _FAILURES as exc:
                points[j] = exc
        ready = [j for j, point in enumerate(points) if not isinstance(point, Exception)]
        if ready:
            insts, phases = zip(*(points[j] for j in ready))
            for j, inst, init in zip(ready, insts, _bcd_init(insts, phases)):
                points[j] = init if isinstance(init, Exception) else (inst, init)
        return points

    def solution(self, method: Method, illumination: IlluminationMode, trial_index: int):
        """The solution of one cell; its error (an itsbeam or LinAlgError) is raised.

        A BCD cell's outcome is read from its trial's ``solved``, which its kind's queue
        fills as rows stop; the kind needs a fresh queue at this trial when its queue has
        not admitted the trial and does not admit it next.
        """
        cell = (method, illumination)
        if trial_index != self.requested or (method is not Method.ZF_WF and cell in self.served):
            if trial_index <= self.requested:  # an earlier trial, or a BCD cell served again
                self.states, self.queues = {}, {}
            self.states = {t: s for t, s in self.states.items() if t >= trial_index}
            self.requested, self.served = trial_index, set()
        self.served.add(cell)
        state = self.trial(trial_index)
        if method is Method.ZF_WF:
            return self.zfwf(illumination, trial_index)
        if method not in _BCD_METHODS:
            raise SolverError(f"unknown method {method!r}")
        kind = (method, illumination if method is Method.WMMSE_BCD else None)
        if kind not in state.solved:
            queue = self.queues.get(kind)
            if queue is None or not queue.first <= trial_index <= queue.next:
                queue = self.queues[kind] = _Queue(self, method, illumination, trial_index)
            queue.bound = trial_index + (LOOK_AHEAD if trial_index > queue.first else QUEUE_WIDTH)
            while kind not in state.solved:
                position, outcome = next(queue.outcomes)
                if (held := self.states.get(queue.first + position)) is not None:
                    held.solved[kind] = outcome
        return _one([state.solved[kind]])


# memo(spec, sweep_value): the last grid value's memo; cells run grid value by grid value.
memo = lru_cache(maxsize=1)(Memo)


def trial(spec: ExperimentSpec, sweep_value: float, trial_index: int) -> Trial:
    """The shared state of one trial, held by its grid value's memo."""
    return memo(spec, sweep_value).trial(trial_index)


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
    its kind's queue, which solves the trials from it on, up to ``spec.trials``.
    """
    solved = memo(spec, sweep_value).solution(method, illumination, trial_index)
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


def _range_records(spec: ExperimentSpec, sweep_value: float, first: int, stop: int) -> list:
    """The records of the trials [first, stop) of one grid value, in run_sweep's order."""
    cut = replace(spec, trials=stop)  # no draw changes, and the queues admit no trial past stop
    return [
        run_trial(cut, sweep_value, trial_index, method, illumination)
        for trial_index in range(first, stop)
        for method in spec.methods
        for illumination in spec.illuminations
    ]


def _ranges(spec: ExperimentSpec, workers: int) -> list:
    """``run_sweep``'s work units: (spec, grid value, first trial, stop) for each range."""
    parts = max(1, min(workers, spec.trials // QUEUE_WIDTH))
    return [(spec, value, spec.trials * part // parts, spec.trials * (part + 1) // parts)
            for value in spec.grid for part in range(parts)]


def run_sweep(spec: ExperimentSpec, workers: int = 1) -> list:
    """Run the full cross product grid x trials x methods x illuminations.

    Record order is deterministic (grid-major, then trial, then method, then
    illumination) regardless of ``workers``.  Contiguous ranges of trials are the
    work units, up to ``workers`` per grid value and none narrower than a queue's
    batch: a worker runs whole ranges, and a sweep of one range runs in this process
    and never imports the process pool.
    """
    ranges = _ranges(spec, workers)
    if workers <= 1 or len(ranges) == 1:
        records = [_range_records(*task) for task in ranges]
    else:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=min(workers, len(ranges))) as pool:
            records = list(pool.map(_range_records, *zip(*ranges)))
    return [record for part in records for record in part]


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
