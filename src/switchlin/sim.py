"""Deterministic closed-loop simulation of the supervised hybrid controller.

Fixed-step classical Runge-Kutta integration of the reduced plant under
the supervised controller.  The supervisor and the selected law are
evaluated once per step, at the step's start, and the resulting input is
held constant across the step (zero-order hold).  A run's step is one
generated function (:class:`ClosedLoop`): the branch written from
``controllers.SUPERVISOR`` with each law's control, outer loop included,
in its arms, the sample's record, and the RK4 step with the plant's field
(``ballbeam.REDUCED_FIELD``) inlined, each value computed once per step;
its arms and RK4 step are the exact path's own functions run on trees.
A run binds the thresholds, the plant, the reference, the gains and the
record.  It is called through :func:`rk4_step` once per step, where a
run's steps are counted; the t, a1 and error columns and the |x3| > pi
warning come from the record after the loop, and :func:`assess` reads a
run's outcome against an :class:`Envelope`.  Identical scenarios produce
bitwise-identical trajectories.

Scenario files are JSON objects read through one table (``_OBJECTS``)
that maps each key to the dataclass field it fills; unknown keys are
rejected, and an optional key left out (``G``, ``tail_window``) takes its
dataclass's default.  Trajectories serialise to CSV with the header
``t,x1,x2,x3,x4,u,law,a1,err,abscos3`` at 9 significant digits.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence, TextIO

import numpy as np

from . import controllers
from .ballbeam import REDUCED_FIELD, PlantParams
from .controllers import (
    GainSet,
    LawDescriptor,
    SingularControlError,
    SwitchThresholds,
    TrackingReference,
    _STEP_TRIG,
    _check_order,
    _reference_scales,
    law_descriptor,
    pole_gains,
    table_laws,
)
from .expr import StateVar, _bind, _compile, _emit, _substitute, format_number as _fmt

__all__ = [
    "CSV_HEADER",
    "Envelope",
    "IntegrationError",
    "Metrics",
    "RunReport",
    "Scenario",
    "ScenarioError",
    "SimulationError",
    "assess",
    "load_scenario",
    "rk4_step",
    "run",
    "scenario_from_dict",
]

CSV_HEADER = "t,x1,x2,x3,x4,u,law,a1,err,abscos3"
_CSV_ROW = "%.9g,%.9g,%.9g,%.9g,%.9g,%.9g,%d,%.9g,%.9g,%.9g\n"
_CSV_BLOCK = 1024  # rows formatted per write, so the text never holds a whole run


class SimulationError(RuntimeError):
    """A closed-loop run could not be completed."""


class IntegrationError(SimulationError):
    """The integrated state became non-finite.

    Raised by :func:`run`, it carries the samples recorded before the
    failure as ``trajectory``.
    """

    def __init__(
        self, message: str, time: float | None = None, trajectory: Trajectory | None = None
    ):
        super().__init__(message)
        self.time = time
        self.trajectory = trajectory


class ScenarioError(ValueError):
    """A scenario description is malformed."""


@dataclass(frozen=True)
class Scenario:
    """Everything needed for one deterministic closed-loop run."""

    plant: PlantParams
    initial_state: tuple[float, float, float, float]
    reference: TrackingReference
    thresholds: SwitchThresholds
    pole_law1: float = -4.0
    pole_law2: float = -3.0
    pole_law3: float = -3.0
    step: float = 1e-3  # [s], three decades below the reference period
    duration: float = 30.0
    tail_window: float = 10.0  # [s], the tail over which the RMS tracking error is taken

    def __post_init__(self):
        object.__setattr__(self, "initial_state", tuple(_float(v) for v in self.initial_state))
        if len(self.initial_state) != 4:
            raise ScenarioError("initial_state must have exactly 4 components")
        if not all(math.isfinite(v) for v in self.initial_state):
            raise ScenarioError("initial_state must be finite")
        if not self.step > 0:
            raise ScenarioError("step must be positive")
        if self.duration < self.step:
            raise ScenarioError("duration must be at least one step")
        if not self.tail_window > 0:
            raise ScenarioError("tail_window must be positive")
        for name in ("step", "duration", "tail_window", "pole_law1", "pole_law2", "pole_law3"):
            if not math.isfinite(getattr(self, name)):
                raise ScenarioError(f"{name} must be finite")
        if not math.isfinite(self.duration / self.step):
            raise ScenarioError("duration / step must be finite")
        # a run's gains and reference derivatives must not overflow; pole_gains checks signs too
        orders = [law.order for law in table_laws()]
        for name, order in zip(("pole_law1", "pole_law2", "pole_law3"), orders):
            try:
                pole_gains(getattr(self, name), order)
            except ValueError as exc:
                raise ScenarioError(f"{name}: {exc}") from None
        try:
            finite = all(map(math.isfinite, _reference_scales(self.reference, max(orders))[1]))
        except OverflowError:
            finite = False
        if not finite:
            raise ScenarioError(f"reference derivatives up to order {max(orders)} overflow")

    @property
    def sample_count(self) -> int:
        # floor(duration/step) + 1, with a little slack so an exact
        # multiple is not lost to the float division (30/0.001 < 30000)
        return int(math.floor(self.duration / self.step + 1e-9)) + 1


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled closed-loop record; all arrays share one length."""

    t: np.ndarray
    states: np.ndarray  # shape (n, 4)
    u: np.ndarray
    law: np.ndarray  # int law ids
    a1: np.ndarray  # control coefficient 2 B x1 x4 along the run
    error: np.ndarray  # x1 - y_d(t)
    abscos3: np.ndarray  # |cos x3|, distance to the law-2 singularity

    def __len__(self) -> int:
        return len(self.t)

    def write_csv(self, stream: TextIO) -> None:
        """CSV rows as :func:`~switchlin.expr.format_number` prints each value."""
        stream.write(CSV_HEADER + "\n")
        floats = (self.t, *self.states.T, self.u, self.a1, self.error, self.abscos3)
        for start in range(0, len(self.t), _CSV_BLOCK):
            block = slice(start, start + _CSV_BLOCK)
            # + 0.0 turns -0.0 into 0.0, as format_number does
            columns = [(column[block] + 0.0).tolist() for column in floats]
            columns.insert(6, self.law[block].tolist())
            stream.write("".join(_CSV_ROW % row for row in zip(*columns)))

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="ascii", newline="\n") as stream:
            self.write_csv(stream)


@dataclass(frozen=True)
class Metrics:
    """Summary statistics of one run; dwell fractions sum to one."""

    rms_tail_error: float
    max_abs_x3: float
    switch_count: int
    min_abs_a1: float
    dwell_fractions: tuple[float, float, float]  # laws 1, 2, 3
    tail_window: float

    def report_text(self) -> str:
        lines = [
            f"rms_tail_error_m: {_fmt(self.rms_tail_error)}",
            f"tail_window_s: {_fmt(self.tail_window)}",
            f"max_abs_x3_rad: {_fmt(self.max_abs_x3)}",
            f"switch_count: {self.switch_count}",
            f"min_abs_a1: {_fmt(self.min_abs_a1)}",
            f"dwell_fraction_law1: {_fmt(self.dwell_fractions[0])}",
            f"dwell_fraction_law2: {_fmt(self.dwell_fractions[1])}",
            f"dwell_fraction_law3: {_fmt(self.dwell_fractions[2])}",
        ]
        return "\n".join(lines) + "\n"


def rk4_step(
    deriv: Callable[[Sequence[float]], Sequence[float]],
    x: Sequence[float],
    h: float,
) -> tuple[float, ...]:
    """One classical 4-stage Runge-Kutta step of size h.

    ``deriv`` must already hold any input constant (zero-order hold is the
    caller's responsibility) and return one component per state component;
    a derivative of another length raises ValueError.  A :class:`ClosedLoop`
    brings its own step, generated from :func:`_rk4_loop` run on trees; any
    other derivative is stepped by ``_rk4_loop`` on floats.  Raises
    IntegrationError if the update is not finite.
    """
    if not h > 0:
        raise ValueError("step size must be positive")
    if type(deriv) is ClosedLoop:
        return deriv.step(deriv, x, h)
    if all(map(math.isfinite, y := _rk4_loop(deriv, x, h))):
        return y
    raise IntegrationError("integration produced a non-finite state")


def _rk4_loop(deriv: Callable, x: Sequence, h) -> tuple:
    """The classical RK4 scheme, per component, on floats or on expression trees.

    :func:`rk4_step` runs it on floats and :func:`_plant_stages` on trees.  In
    ``rk4_step`` the names ``slope`` and the comprehensions read would be cells.
    """
    n = len(x)
    if n < 1:
        raise ValueError("the state must have at least one component")

    def slope(state: Sequence) -> Sequence:
        k = deriv(state)
        if len(k) != n:
            raise ValueError(f"derivative has {len(k)} components but the state has {n}")
        return k

    half = 0.5 * h
    a = slope(x)
    b = slope(tuple([x[i] + half * a[i] for i in range(n)]))
    c = slope(tuple([x[i] + half * b[i] for i in range(n)]))
    d = slope(tuple([x[i] + h * c[i] for i in range(n)]))
    sixth = h / 6.0
    return tuple([x[i] + sixth * (a[i] + 2.0 * (b[i] + c[i]) + d[i]) for i in range(n)])


class ClosedLoop:
    """One run's supervised closed loop: sample ``k`` and the step after it, in one call.

    :func:`rk4_step` runs its ``step(loop, x, h)``, generated per run: at
    sample ``k = loop.k`` it selects one of ``laws`` (keyed by law_id) by
    the branch :func:`_branch` writes from ``controllers.SUPERVISOR``,
    computes u by that law's arm (``LawDescriptor._control_body``),
    records x, u, the law and |cos x3| in row k of ``states``, ``u``,
    ``law`` and ``abscos3`` and, unless k is the last row, returns the RK4
    step from x with u held (:func:`_plant_stages`).  The step names x1..x4
    the state, x5 = u, x6 = h, x7 and x8 the reference's waves, row k of
    cos and sin of ``omega * times``, and x9 and x10 sin and cos of x3; x7
    to x10 are read once, ahead of the branch (x3 is finite there).  The
    generated ``make`` binds the thresholds, the record and each emitted
    parameter: the plant's, the reference's scales ``c<j>`` and each law's
    gains ``alpha<j>``.  The source is assembled from parts emitted once;
    ``y_d`` is the reference at ``times``, as the laws compute it.
    """

    __slots__ = ("step", "k", "y_d", "states", "u", "law", "abscos3")

    def __init__(
        self,
        laws: Sequence[LawDescriptor],
        gains: Sequence[GainSet],
        ref: TrackingReference,
        thresholds: SwitchThresholds,
        p: PlantParams,
        times: np.ndarray,
    ):
        n = len(times)
        omega, scales = _reference_scales(ref, max(law.order for law in laws))
        params = dict(p.symbol_values(), **{f"c{j}": scale for j, scale in enumerate(scales)})
        waves = np.cos(omega * times), np.sin(omega * times)
        self.y_d, self.k = scales[0] * waves[0], 0
        self.states, self.u, self.abscos3 = np.empty((n, 4)), np.empty(n), np.empty(n)
        self.law = np.empty(n, dtype=np.int64)
        record = (*self.states.T, self.u, self.law, self.abscos3, *waves)
        columns = [*_RECORD, "wave_cos_col", "wave_sin_col"]
        bound = dict(zip(columns, map(memoryview, record)), last=n - 1)
        bound.update(eps1=thresholds.eps1, eps4=thresholds.eps4)
        stages, names = _plant_stages()
        bound.update(_bind(names, params))
        arms = {}
        for law, law_gains in zip(laws, gains, strict=True):
            _check_order(law, law_gains)
            arm, names = law._control_body
            values = dict(params, **{f"alpha{j}": a for j, a in enumerate(law_gains.alphas)})
            bound.update(_bind(names, values))
            if law.law_id in arms:
                raise ValueError(f"law {law.law_id} is given twice")
            arms[law.law_id] = arm
        lines = [
            "k = loop.k",
            "x1, x2, x3, x4 = x",
            "x7, x8 = wave_cos_col[k], wave_sin_col[k]",
            "x9, x10 = sin(x3), cos(x3)",
            *_branch(arms),
            *(f"{column}[k] = {value}" for column, value in _RECORD.items()),
            "if k == last:",
            "    return x",
            "x5 = u",
            *stages,
        ]
        source = f"def make({', '.join(bound)}):\n    def step(loop, x, x6):\n"
        source += "".join(f"        {line}\n" for line in lines) + "    return step\n"
        namespace = dict(sin=math.sin, cos=math.cos, abs=abs, isfinite=math.isfinite)
        errors = dict(SingularControlError=SingularControlError, IntegrationError=IntegrationError)
        self.step = _compile(source, "make", **namespace, **errors)(*bound.values())


def _branch(arms: dict[int, list[str]]) -> list[str]:
    """``controllers.SUPERVISOR`` over the laws' statements ``arms``: the law of the most regions
    (the last on a tie) is the ``else``, each other an ``if``/``elif``; one law, no branch."""
    regions: dict[int, list[str]] = {}
    for region, tag in controllers.SUPERVISOR.items():
        ball_out, beam_moving = ("" if inside else "not " for inside in region)
        regions.setdefault(tag, []).append(f"{ball_out}ball_out and {beam_moving}beam_moving")
    if missing := sorted(regions.keys() - arms.keys()):
        raise ValueError(f"the supervisor selects laws not given: {', '.join(map(str, missing))}")
    *branched, rest = sorted(regions, key=lambda tag: len(regions[tag]))  # stable: table order
    if not branched:
        return arms[rest]
    lines = ["ball_out = abs(x1) > eps1", "beam_moving = abs(x4) > eps4"]
    for i, tag in enumerate(branched):
        lines.append(f"{'elif' if i else 'if'} {' or '.join(regions[tag])}:")
        lines += [f"    {line}" for line in arms[tag]]
    return lines + ["else:", *(f"    {line}" for line in arms[rest])]


#: the record's columns as the generated step names them, and what it stores in each
_RECORD = {"x1_col": "x1", "x2_col": "x2", "x3_col": "x3", "x4_col": "x4", "u_col": "u"}
_RECORD.update(law_col="law", abscos_col="abs(x10)")


@functools.cache  # emitted on first use; every ClosedLoop binds it
def _plant_stages() -> tuple[tuple[str, ...], dict[str, str]]:
    """The plant's RK4 step as statements ending in ``return``, and each parameter's code name.

    The step from x1..x4 with x5 = u held and x6 = h is :func:`_rk4_loop`
    on trees of ``ballbeam.REDUCED_FIELD``, written by one ``expr._emit``:
    each value, stage states with equal text included, is computed once,
    and stage a reads sin x3 as x9.
    """
    x = tuple(StateVar(i) for i in range(1, 5))

    def slope(stage):  # the field at the stage's state, x5 = u held
        return [_substitute(f, dict(zip(x, stage))) for f in REDUCED_FIELD]

    y = _rk4_loop(slope, x, StateVar(6))
    sources, names = _emit([_substitute(e, _STEP_TRIG) for e in y], 10)
    return (
        *(f"y{i} = {source}" for i, source in enumerate(sources)),
        "if not (isfinite(y0) and isfinite(y1) and isfinite(y2) and isfinite(y3)):",
        "    raise IntegrationError('integration produced a non-finite state')",
        "return (y0, y1, y2, y3)",
    ), names


def run(sc: Scenario) -> tuple[Trajectory, Metrics]:
    """Simulate the supervised closed loop over the scenario horizon.

    Each step is one :func:`rk4_step` call on the run's :class:`ClosedLoop`,
    where steps are counted: at step k the supervisor selects the law, u is
    computed at t = k*h and held constant across the step, and the sample
    is recorded; the last sample is recorded with no step after it.  The t,
    a1 and error (x1 - y_d) columns are formed after the loop.  A beam angle
    beyond pi in magnitude means the model has left its meaningful regime;
    that is reported as a warning, from the recorded samples.  A record
    too large to allocate or address raises SimulationError before any step.
    """
    p, n, h = sc.plant, sc.sample_count, sc.step
    poles = (sc.pole_law1, sc.pole_law2, sc.pole_law3)
    laws = table_laws()
    gains = [pole_gains(pole, law.order) for law, pole in zip(laws, poles)]
    try:
        if n > sys.maxsize // 32:  # numpy addresses at most sys.maxsize bytes, the states 32 a row
            raise MemoryError
        times = np.arange(n) * h  # k * h: int64 -> float is exact below 2**53
        loop = ClosedLoop(laws, gains, sc.reference, sc.thresholds, p, times)
    except MemoryError as exc:
        raise SimulationError(f"cannot allocate the record of {n} samples") from exc

    def recorded(rows: int) -> Trajectory:
        # samples 0 .. rows - 1, warned of as the loop would have; a1 in one batch
        x = loop.states[:rows]
        beyond = np.flatnonzero(np.abs(x[:, 2]) > math.pi)
        if beyond.size:
            warnings.warn(
                f"beam angle |x3| exceeded pi at t={times[beyond[0]]:.3f}s; the planar model "
                "has left its meaningful regime",
                stacklevel=3,
            )
        a1 = law_descriptor(1).coefficient.evaluate_many(p.symbol_values(), x)
        return Trajectory(
            t=times[:rows],
            states=x,
            u=loop.u[:rows],
            law=loop.law[:rows],
            a1=a1,
            error=x[:, 0] - loop.y_d[:rows],
            abscos3=loop.abscos3[:rows],
        )

    x = sc.initial_state
    try:
        for k in range(n - 1):
            loop.k = k
            x = rk4_step(loop, x, h)
        loop.k = k = n - 1
        loop.step(loop, x, h)  # the last sample: recorded, not stepped from
    # the control raises only SingularControlError (its floor check stops 1/0), RK4 the others
    except SingularControlError as exc:
        t = k * h
        raise IntegrationError(f"control failed at t={t:.6f}: {exc}", t, recorded(k)) from exc
    except IntegrationError as exc:
        t = k * h + h
        raise IntegrationError(f"{exc} at t={t:.6f}", t, recorded(k + 1)) from exc
    except (ValueError, OverflowError) as exc:
        # a stage state overflowed before the finiteness check
        t = k * h + h
        raise IntegrationError(
            f"integration failed at t={t:.6f}: {exc}", t, recorded(k + 1)
        ) from exc
    trajectory = recorded(n)
    return trajectory, _metrics(trajectory, sc)


def _metrics(trajectory: Trajectory, sc: Scenario) -> Metrics:
    tail_start = sc.duration - sc.tail_window
    tail = trajectory.t >= min(tail_start - 1e-12, trajectory.t[-1])  # at least the last sample
    rms = float(np.sqrt(np.mean(trajectory.error[tail] ** 2)))
    switches = int(np.count_nonzero(np.diff(trajectory.law) != 0))
    total = len(trajectory)
    dwell = tuple(
        float(np.count_nonzero(trajectory.law == law_id) / total) for law_id in (1, 2, 3)
    )
    return Metrics(
        rms_tail_error=rms,
        max_abs_x3=float(np.max(np.abs(trajectory.states[:, 2]))),
        switch_count=switches,
        min_abs_a1=float(np.min(np.abs(trajectory.a1))),
        dwell_fractions=dwell,
        tail_window=sc.tail_window,
    )


@dataclass(frozen=True)
class Envelope:
    """Bounds a run should keep to: |x1| [m], |x3| [rad] and |u| [rad/s^2]; inf bounds nothing.

    The defaults are the beam's half-length and law 2's singularity at
    pi/2; no physical bound on the input is known, so none is set.
    """

    max_abs_x1: float = 1.0
    max_abs_x3: float = math.pi / 2
    max_abs_u: float = math.inf

    def __post_init__(self):
        for name in ("max_abs_x1", "max_abs_x3", "max_abs_u"):
            if not getattr(self, name) > 0:
                raise ValueError(f"envelope bound {name} must be positive")


@dataclass(frozen=True)
class RunReport:
    """A run's outcome, at ``time`` (None if "completed"), and its first envelope exit.

    ``outcome`` is "diverged" when the run raised, else "left_envelope"
    when it exited, else "completed".  ``exit_bound`` is the bound first
    exceeded, "x1", "x3" or "u" (the first named on a tie), at ``exit_time``;
    both are None for a run that stayed inside.
    """

    outcome: str
    time: float | None
    exit_bound: str | None
    exit_time: float | None


def assess(result: Trajectory | IntegrationError, envelope: Envelope = Envelope()) -> RunReport:
    """Assess a trajectory :func:`run` returned, or the IntegrationError it raised.

    The error's ``trajectory`` holds the samples before the failure; the run
    diverged at the error's ``time``.  Only recorded samples are read.
    """
    trajectory = result.trajectory if isinstance(result, IntegrationError) else result
    columns = (trajectory.states[:, 0], trajectory.states[:, 2], trajectory.u)
    bounds = (envelope.max_abs_x1, envelope.max_abs_x3, envelope.max_abs_u)
    exits = [
        (int(np.argmax(beyond)), name)
        for name, column, bound in zip(("x1", "x3", "u"), columns, bounds)
        if (beyond := np.abs(column) > bound).any()
    ]
    row, exit_bound = min(exits, key=lambda e: e[0], default=(None, None))
    exit_time = None if row is None else float(trajectory.t[row])
    if isinstance(result, IntegrationError):
        return RunReport("diverged", result.time, exit_bound, exit_time)
    if exit_bound is not None:
        return RunReport("left_envelope", exit_time, exit_bound, exit_time)
    return RunReport("completed", None, None, None)


# ---------------------------------------------------------------------------
# scenario (de)serialisation

#: each JSON object of a scenario file: the class its keys fill, each key (in the
#: order checked) with the field it fills, and the keys that may be left out for
#: the class's default; an object whose class is its parent's fills the parent's fields
_OBJECTS = {
    "scenario": (
        Scenario,
        {
            "plant": "plant",
            "initial_state": "initial_state",
            "reference": "reference",
            "thresholds": "thresholds",
            "poles": None,
            "step": "step",
            "duration": "duration",
            "tail_window": "tail_window",
        },
        {"tail_window"},
    ),
    "plant": (PlantParams, {"M": "M", "R": "R", "J": "J", "J_b": "Jb", "G": "G"}, {"G"}),
    "reference": (TrackingReference, {"amplitude": "amplitude", "period": "period"}, set()),
    "thresholds": (SwitchThresholds, {"eps1": "eps1", "eps4": "eps4"}, set()),
    "poles": (Scenario, {"law1": "pole_law1", "law2": "pole_law2", "law3": "pole_law3"}, set()),
}


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _float(value: int | float) -> float:
    """float(value); an integer beyond the float range becomes an infinity."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _fields(value, name: str) -> dict:
    """The fields that JSON object ``name`` fills: its keys checked, then each value, in order."""
    cls, keys, optional = _OBJECTS[name]
    if not isinstance(value, dict):
        raise ScenarioError(f"{name} must be an object")
    for key in value:
        if key not in keys:
            raise ScenarioError(f"unknown key '{key}' in {name}")
    for key in keys:
        if key not in value and key not in optional:
            raise ScenarioError(f"missing key '{key}' in {name}")
    fields = {}
    for key, field in keys.items():
        if key not in value:
            continue
        item = value[key]
        if key in _OBJECTS:
            inner, inner_fields = _OBJECTS[key][0], _fields(item, key)
            if inner is cls:
                fields.update(inner_fields)
                continue
            item = inner(**inner_fields)
        elif key == "initial_state":
            if not (isinstance(item, list) and len(item) == 4 and all(map(_is_number, item))):
                raise ScenarioError("initial_state must be a list of 4 numbers")
        else:
            if not _is_number(item):
                raise ScenarioError(f"key '{key}' in {name} must be a number")
            item = _float(item)
            if not math.isfinite(item):
                raise ScenarioError(f"key '{key}' in {name} must be finite")
        fields[field] = item
    return fields


def scenario_from_dict(data: dict) -> Scenario:
    try:
        return Scenario(**_fields(data, "scenario"))
    except ValueError as exc:  # ScenarioError, or a dataclass's own check
        raise ScenarioError(str(exc)) from None


def load_scenario(path) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as stream:
            data = json.load(stream)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file: {exc}") from None
    except (ValueError, RecursionError) as exc:  # not UTF-8 or JSON, too deep, an int too long
        raise ScenarioError(f"scenario file is not valid JSON: {exc}") from None
    return scenario_from_dict(data)
