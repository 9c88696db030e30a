"""The benchmark's workloads: inputs made from a seed, operations, checks.

Every workload is a closed loop in one process: one operation is in
flight, and the next starts when the previous one has returned.  The
switchlin package only sees the generated inputs (scenario files, initial
states, seeds, sample points).

``Workload.operations`` lists ``(label, callable)`` pairs in pass order.
``Workload.inspect(label, output)`` checks one operation's output from
outside and returns an :class:`Inspection`: the RK4 steps the operation
completed, a fingerprint of its output, and the problems found.  The
fingerprint is compared with ``reference/<workload>.json``, recorded from
the unmodified package at ``DEFAULT_SEED``; outputs that do not depend on
the seed are compared at every seed.

The calls into switchlin go through module attributes (``cli.main``,
``sim.run``, ``coverage.factor_check``) so that the traced run, which
rebinds those names, sees them.  The checks use the functions bound at
import time below, so they are never traced.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import io
import json
import math
import re
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from switchlin import cli, coverage, sim
from switchlin.ballbeam import benchmark_plant
from switchlin.controllers import law_descriptor, supervisor
from switchlin.expr import Bindings
from switchlin.sim import CSV_HEADER, IntegrationError, load_scenario

ROOT = Path(__file__).resolve().parent.parent
SCENARIO_DIR = ROOT / "scenarios"
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

#: the seed the reference outputs were recorded at
DEFAULT_SEED = 0

#: relative half-unit of the 9th significant digit, the CLI's output precision
PRINT_ROUNDING = 5e-9


@dataclass
class Inspection:
    steps: int
    fingerprint: dict
    problems: list[str] = field(default_factory=list)


def _sha256(data: bytes | None) -> str | None:
    return None if data is None else hashlib.sha256(data).hexdigest()


def _call_cli(argv: list[str]) -> tuple[int, str, str, list[str]]:
    """Run the CLI in-process; returns exit code, stdout, stderr, warnings."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    return code, out.getvalue(), err.getvalue(), [str(w.message) for w in caught]


def _read_and_remove(path: Path) -> bytes | None:
    # removing each output after reading it means a run that writes
    # nothing cannot be passed off with an earlier pass's file
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        return None
    path.unlink()
    return data


_FAILED_AT = re.compile(r"switchlin: (?P<kind>control failed|integration\b.*?) at t=(?P<t>[0-9.]+)")


def _steps_before_failure(message: str, step: float) -> int | None:
    """RK4 steps completed before the failure a CLI error message reports.

    A failing integration reports the end time of the step that failed; a
    failing control law reports the sample time, after which no step ran.
    """
    match = _FAILED_AT.match(message)
    if match is None:
        return None
    steps = round(float(match["t"]) / step)
    return steps if match["kind"] == "control failed" else steps - 1


def _ambiguous(value: float, threshold: float) -> bool:
    # a printed value this close to a switching threshold may have been
    # on the other side of it before rounding
    return abs(abs(value) - threshold) <= 2 * PRINT_ROUNDING * threshold


def _check_trajectory_csv(data: bytes, sc: sim.Scenario) -> tuple[int, list[str]]:
    """Invariants of a trajectory CSV; returns (rows, problems)."""
    problems = []
    header, _, body = data.decode("ascii").partition("\n")
    if header != CSV_HEADER:
        return 0, [f"unexpected CSV header {header!r}"]
    table = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
    rows = len(table)
    if rows != sc.sample_count:
        problems.append(f"{rows} rows, expected {sc.sample_count}")
    states, laws, a1 = table[:, 1:5], table[:, 6], table[:, 7]
    printed_start = [float(f"{v:.9g}") for v in sc.initial_state]
    if states[0].tolist() != printed_start:
        problems.append(f"first sample {states[0].tolist()} != initial state {printed_start}")
    th = sc.thresholds
    for k, x in enumerate(states.tolist()):
        if _ambiguous(x[0], th.eps1) or _ambiguous(x[3], th.eps4):
            continue
        if supervisor(x, th) != laws[k]:
            problems.append(f"row {k}: law {int(laws[k])} but the supervisor selects {supervisor(x, th)}")
            break
    expected = 2.0 * sc.plant.B * states[:, 0] * states[:, 3]
    bad = np.abs(a1 - expected) > 4 * PRINT_ROUNDING * np.abs(expected)
    if np.any(bad):
        problems.append(f"a1 != 2 B x1 x4 at {int(np.count_nonzero(bad))} rows")
    return rows, problems


def _gradient_slack(field_, point, params) -> float:
    """Bound on |phi(x) - phi(x~)| when x~ is x printed to 9 significant digits."""
    at = Bindings(params, tuple(point))
    return 2 * sum(
        abs(g.evaluate(at)) * PRINT_ROUNDING * abs(v)
        for g, v in zip(field_.gradient(), point)
    )


def _vanishes(field_, point, params, tol: float) -> bool:
    """|phi| <= tol at a printed point, allowing for its rounding."""
    value = field_.evaluate(Bindings(params, tuple(point)))
    return abs(value) <= tol + _gradient_slack(field_, point, params)


class Workload:
    name: str
    operations: list[tuple[str, object]]

    def seed_independent(self, label: str) -> bool:
        """True when the label's output does not depend on the seed."""
        return False

    def inspect(self, label: str, output) -> Inspection:
        raise NotImplementedError

    def summary(self, fingerprints: dict[str, dict]) -> dict:
        """Workload-specific figures from one pass's fingerprints."""
        return {}


# ---------------------------------------------------------------------------
# scenarios: the CLI simulate path, trajectory CSV included


class Scenarios(Workload):
    """Every shipped scenario, then seeded variants, through ``switchlin simulate``.

    The variants keep the shipped plant, thresholds, poles and step; their
    initial state and reference amplitude come from the seed.  They run
    4 s, like the near-singularity scenarios, so they stay clear of the
    benchmark scenario's singular transits and every seed does the same
    amount of work.
    """

    name = "scenarios"
    VARIANTS = 20
    VARIANT_TEMPLATE = "small_tracking.json"
    VARIANT_DURATION = 4.0
    VARIANT_HALF_WIDTHS = (0.3, 0.1, 0.1, 0.2)  # x1 [m], x2 [m/s], x3 [rad], x4 [rad/s]
    VARIANT_MAX_AMPLITUDE = 0.1  # [m]

    def __init__(self, seed: int, workdir: Path):
        self.out = workdir / "out"
        inputs = workdir / "inputs"
        inputs.mkdir()
        paths = sorted(SCENARIO_DIR.glob("*.json"))
        self.shipped = {path.stem for path in paths}
        template = json.loads((SCENARIO_DIR / self.VARIANT_TEMPLATE).read_text())
        rng = np.random.default_rng(seed)
        half = np.array(self.VARIANT_HALF_WIDTHS)
        for k in range(self.VARIANTS):
            data = dict(template)
            data["initial_state"] = rng.uniform(-half, half).tolist()
            data["reference"] = dict(
                template["reference"], amplitude=float(rng.uniform(0.0, self.VARIANT_MAX_AMPLITUDE))
            )
            data["duration"] = self.VARIANT_DURATION
            data["tail_window"] = self.VARIANT_DURATION / 2
            path = inputs / f"variant_{k:02d}.json"
            path.write_text(json.dumps(data, indent=2))
            paths.append(path)
        self.scenarios = {path.stem: load_scenario(path) for path in paths}
        self.operations = [
            (path.stem, functools.partial(_call_cli, ["--output-dir", str(self.out), "simulate", str(path)]))
            for path in paths
        ]

    def seed_independent(self, label: str) -> bool:
        return label in self.shipped

    def inspect(self, label: str, output) -> Inspection:
        code, stdout, stderr, warned = output
        sc = self.scenarios[label]
        csv = _read_and_remove(self.out / f"{label}_trajectory.csv")
        metrics = _read_and_remove(self.out / f"{label}_metrics.txt")
        fingerprint = {
            "exit": code,
            "stdout": stdout.replace(str(self.out), "<out>"),
            "stderr": stderr,
            "warnings": warned,
            "csv_sha256": _sha256(csv),
            "metrics_sha256": _sha256(metrics),
        }
        result = Inspection(0, fingerprint)
        if label == "benchmark" and (code != 2 or "at t=11.767000" not in stderr):
            # the known criterion-4 failure is this scenario's checked outcome
            result.problems.append(f"benchmark: expected divergence at t=11.767 with exit 2, got exit {code}")
        if code == 0:
            if csv is None or metrics is None:
                result.problems.append("exit 0 without trajectory and metrics files")
                return result
            rows, problems = _check_trajectory_csv(csv, sc)
            result.steps = max(rows - 1, 0)
            result.problems += problems
            if f"({rows} samples)" not in stdout:
                result.problems.append("stdout does not report the sample count")
        elif code == 2:
            steps = _steps_before_failure(stderr, sc.step)
            if steps is None or not 0 <= steps < sc.sample_count:
                result.problems.append(f"exit 2 with unexpected message {stderr!r}")
            else:
                result.steps = steps
            if csv is not None or metrics is not None:
                result.problems.append("a failed run wrote output files")
        else:
            result.problems.append(f"exit {code}: {stderr.strip()}")
        return result


# ---------------------------------------------------------------------------
# basin: many short compute-only runs


class Basin(Workload):
    """Seeded initial states around the operating point, each through ``sim.run``.

    Settings are ``regulation.json``'s with a 2 s horizon.  Nothing is
    written to disk.  Outcomes: ``diverged`` (IntegrationError),
    ``left_envelope`` (|x1| beyond the beam half-length or |x3| past the
    law-2 singularity at pi/2), ``converged`` (final state within
    ``CONVERGED_RADIUS`` in every coordinate) or ``unsettled``.
    """

    name = "basin"
    STATES = 128  # >= 100, so even one pass puts ten latencies beyond the 90th percentile
    HORIZON = 2.0  # [s]
    HALF_WIDTHS = (0.3, 0.3, 0.2, 0.5)  # x1 [m], x2 [m/s], x3 [rad], x4 [rad/s]
    BEAM_HALF_LENGTH = 1.0  # [m]
    MAX_BEAM_ANGLE = math.pi / 2  # [rad]
    CONVERGED_RADIUS = 0.05

    def __init__(self, seed: int, workdir: Path):
        base = load_scenario(SCENARIO_DIR / "regulation.json")
        rng = np.random.default_rng(seed)
        starts = rng.uniform(-np.array(self.HALF_WIDTHS), self.HALF_WIDTHS, size=(self.STATES, 4))
        self.scenarios = {
            f"state_{k:03d}": dataclasses.replace(base, initial_state=tuple(x0), duration=self.HORIZON)
            for k, x0 in enumerate(starts)
        }
        self.operations = [(label, self._run(sc)) for label, sc in self.scenarios.items()]

    def _run(self, sc: sim.Scenario):
        def operation():
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # the |x3| > pi notice; the envelope covers it
                try:
                    trajectory, _ = sim.run(sc)
                except IntegrationError as exc:
                    return "diverged", exc
            return self.classify(trajectory), trajectory

        return operation

    def classify(self, trajectory: sim.Trajectory) -> str:
        states = trajectory.states
        if (
            np.max(np.abs(states[:, 0])) > self.BEAM_HALF_LENGTH
            or np.max(np.abs(states[:, 2])) > self.MAX_BEAM_ANGLE
        ):
            return "left_envelope"
        if np.max(np.abs(states[-1])) <= self.CONVERGED_RADIUS:
            return "converged"
        return "unsettled"

    def summary(self, fingerprints: dict[str, dict]) -> dict:
        outcomes = [fp["outcome"] for fp in fingerprints.values()]
        counts = {k: outcomes.count(k) for k in ("converged", "left_envelope", "diverged", "unsettled")}
        return {"outcomes": counts, "converged_ratio": counts["converged"] / len(outcomes)}

    def inspect(self, label: str, output) -> Inspection:
        outcome, result = output
        sc = self.scenarios[label]
        if outcome == "diverged":
            steps = _steps_before_failure(f"switchlin: {result}", sc.step)
            fingerprint = {"outcome": outcome, "steps": steps, "message": str(result)}
            problems = []
            if steps is None or result.time is None or not 0 < result.time <= sc.duration:
                problems.append(f"unexpected failure {result!r}")
            return Inspection(steps or 0, fingerprint, problems)
        trajectory = result
        fingerprint = {
            "outcome": outcome,
            "steps": len(trajectory) - 1,
            "states_sha256": _sha256(trajectory.states.tobytes()),
            "u_sha256": _sha256(trajectory.u.tobytes()),
        }
        problems = []
        states = trajectory.states
        if len(trajectory) != sc.sample_count:
            problems.append(f"{len(trajectory)} samples, expected {sc.sample_count}")
        if tuple(states[0]) != sc.initial_state:
            problems.append("first sample differs from the initial state")
        selected = [supervisor(x, sc.thresholds) for x in states.tolist()]
        if selected != trajectory.law.tolist():
            problems.append("law column differs from the supervisor on the recorded states")
        if not np.array_equal(trajectory.a1, 2.0 * sc.plant.B * states[:, 0] * states[:, 3]):
            problems.append("a1 != 2 B x1 x4")
        return Inspection(len(trajectory) - 1, fingerprint, problems)


# ---------------------------------------------------------------------------
# analysis: the symbolic path, no simulation


class Analysis(Workload):
    """Coverage and necessity searches, derivation, and the factor analyses.

    ``coverage`` over 10^6 samples exercises ``evaluate_many`` on large
    batches; the necessity search, ``pure_part_sample`` on ``cos(x3)`` and
    the transversality ranks exercise the scalar evaluator point by point.
    """

    name = "analysis"
    SAMPLES = 1_000_000
    LAW_SETS = {"123": "1,2,3", "12": "1,2", "13g": "1,3g"}
    DERIVE_PROBES = ("1,1,0,1", "0,0,0,0", "0.5,-1,0.3,2")
    FACTOR_SAMPLES = 20_000
    PURE_PART_POINTS = 40
    TRANSVERSALITY_POINTS = 100
    BOX = [(-1.0, 1.0)] * 4

    def __init__(self, seed: int, workdir: Path):
        self.out = workdir / "out"
        self.params = benchmark_plant().symbol_values()
        b, g = self.params["B"], self.params["G"]
        self.laws = {
            "law1": law_descriptor(1),
            "law2": law_descriptor(2),
            "law3": law_descriptor(3),
            "law3g": law_descriptor(3, g_modified=True),
        }
        # a(x) = c * prod(factors): the cofactor c each law must show
        self.cofactors = {"law1": 2.0 * b, "law2": -b * g, "law3g": 1.0}
        self.pure_factors = self.laws["law1"].factors + self.laws["law2"].factors
        rng = np.random.default_rng(seed)
        signs = rng.choice([-1.0, 1.0], size=(2, self.TRANSVERSALITY_POINTS))
        free = rng.uniform(-1.0, 1.0, size=(2, self.TRANSVERSALITY_POINTS))
        beam_rate = signs[1] * rng.uniform(0.1, 1.0, self.TRANSVERSALITY_POINTS)
        half_pi = signs[0] * (math.pi / 2)
        self.transversal_points = {
            # x1 = x4 = 0 = cos(x3): all three law 1 and law 2 factors vanish
            "transversality_law1_law2": (
                "law1", "law2", [(0.0, x2, x3, 0.0) for x2, x3 in zip(free[0], half_pi)], 3
            ),
            # x2 = 0 = cos(x3) zeroes both cos(x3) and the law-3g factor
            "transversality_law2_law3g": (
                "law2", "law3g", [(x1, 0.0, x3, x4) for x1, x3, x4 in zip(free[1], half_pi, beam_rate)], 2
            ),
        }

        ops = []
        for key, laws in self.LAW_SETS.items():
            argv = [
                "--output-dir", str(self.out), "coverage", "--laws", laws,
                "--samples", str(self.SAMPLES), "--seed", str(seed),
                "--report", f"coverage_{key}.txt", "--witnesses", f"witnesses_{key}.csv",
            ]
            ops.append((f"coverage_{key}", functools.partial(_call_cli, argv)))
        derive = ["--output-dir", str(self.out), "derive", "--order", "4"]
        for probe in self.DERIVE_PROBES:
            derive += ["--probe", probe]
        ops.append(("derive", functools.partial(_call_cli, derive)))
        ops.append(("involutivity", functools.partial(_call_cli, ["--output-dir", str(self.out), "involutivity"])))
        for name in self.cofactors:
            law = self.laws[name]
            ops.append((f"factor_check_{name}", lambda law=law: coverage.factor_check(
                law.coefficient, law.factors, self.BOX, self.FACTOR_SAMPLES, self.params, seed=seed
            )))
        for index in range(1, len(self.pure_factors) + 1):
            ops.append((f"pure_part_{index}", lambda index=index: coverage.pure_part_sample(
                index, self.pure_factors, self.BOX, self.PURE_PART_POINTS, self.params, seed=seed
            )))
        for label, (a, b_, points, _) in self.transversal_points.items():
            fa, fb = self.laws[a].factors, self.laws[b_].factors
            ops.append((label, lambda fa=fa, fb=fb, points=points: coverage.transversality_report(
                fa, fb, points, self.params
            )))
        self.operations = ops

    def seed_independent(self, label: str) -> bool:
        return label in ("derive", "involutivity")

    def inspect(self, label: str, output) -> Inspection:
        if label.startswith("coverage_"):
            return self._inspect_coverage(label.removeprefix("coverage_"), output)
        if label in ("derive", "involutivity"):
            code, stdout, stderr, _ = output
            problems = [] if code == 0 and not stderr else [f"exit {code}: {stderr.strip()}"]
            return Inspection(0, {"exit": code, "stdout": stdout}, problems)
        if label.startswith("factor_check_"):
            return self._inspect_factor_check(label.removeprefix("factor_check_"), output)
        if label.startswith("pure_part_"):
            return self._inspect_pure_part(int(label.removeprefix("pure_part_")), output)
        return self._inspect_transversality(label, output)

    def _inspect_coverage(self, key: str, output) -> Inspection:
        code, stdout, stderr, _ = output
        report = _read_and_remove(self.out / f"coverage_{key}.txt")
        witnesses = _read_and_remove(self.out / f"witnesses_{key}.csv")
        fingerprint = {
            "exit": code,
            "stdout": stdout.replace(str(self.out), "<out>"),
            "stderr": stderr,
            "witnesses_csv": None if witnesses is None else witnesses.decode("ascii"),
        }
        result = Inspection(0, fingerprint)
        if code != 0 or report is None or witnesses is None:
            result.problems.append(f"exit {code} or missing report files: {stderr.strip()}")
            return result
        text = report.decode("ascii")
        if not stdout.startswith(text):
            result.problems.append("report file differs from the printed report")
        names = [law.strip() for law in self.LAW_SETS[key].split(",")]
        laws = [self.laws["law" + name] for name in names]
        total = int(re.search(r"^witnesses: (\d+)$", text, re.M)[1])
        rows = witnesses.decode("ascii").splitlines()[1:]
        if len(rows) != min(total, 10_000):  # coverage_check keeps at most 10 000
            result.problems.append(f"{len(rows)} witness rows for {total} witnesses")
        if key == "123" and ("coverage complete" not in text or total != 0):
            result.problems.append("laws 1,2,3 do not cover the box")
        threshold = coverage.ZERO_FLOOR  # margin 0
        for row in rows:
            *coords, failed = row.split(",")
            point = tuple(float(v) for v in coords)
            covered = [
                law.name for law in laws
                if not any(_vanishes(f.field, point, self.params, threshold) for f in law.factors)
            ]
            if covered or failed.split(";") != [law.name for law in laws]:
                result.problems.append(f"witness {point} is covered by {covered or failed}")
                break
        match = re.search(r"^necessity witness: \(([^)]*)\)", text, re.M)
        if key == "123":
            if "necessity witness: none (a law with no declared singularity is present)" not in text:
                result.problems.append("law 3 has no singularity, yet a necessity witness was reported")
        elif match is None:
            result.problems.append("no necessity witness reported")
        else:
            point = tuple(float(v) for v in match[1].split(","))
            live = [
                law.name for law in laws
                if not _vanishes(law.coefficient, point, self.params, coverage.NECESSITY_TOL)
            ]
            if live:
                result.problems.append(f"necessity witness {point}: {live} do not vanish")
        return result

    def _inspect_factor_check(self, name: str, output) -> Inspection:
        expected = self.cofactors[name]
        fingerprint = {
            "constant_estimate": output.constant_estimate,
            "max_relative_residual": output.max_relative_residual,
            "samples": output.samples,
        }
        problems = []
        if abs(output.constant_estimate - expected) > 1e-10 * abs(expected):
            problems.append(f"cofactor {output.constant_estimate!r}, expected {expected!r}")
        if output.max_relative_residual > 1e-9 or output.samples != self.FACTOR_SAMPLES:
            problems.append(f"residual {output.max_relative_residual!r} over {output.samples} samples")
        return Inspection(0, fingerprint, problems)

    def _inspect_pure_part(self, index: int, points: np.ndarray) -> Inspection:
        fingerprint = {"points_sha256": _sha256(np.ascontiguousarray(points).tobytes())}
        problems = []
        if points.shape != (self.PURE_PART_POINTS, 4):
            problems.append(f"shape {points.shape}")
            return Inspection(0, fingerprint, problems)
        target = self.pure_factors[index - 1].field
        others = [f.field for i, f in enumerate(self.pure_factors, start=1) if i != index]
        for point in points.tolist():
            at = Bindings(self.params, tuple(point))
            if abs(target.evaluate(at)) > coverage.ZERO_FLOOR:
                problems.append(f"{point} is off the zero set")
            elif not all(abs(f.evaluate(at)) > coverage.PURE_PART_CLEARANCE for f in others):
                problems.append(f"{point} is too close to another component")
            if problems:
                break
        return Inspection(0, fingerprint, problems)

    def _inspect_transversality(self, label: str, records) -> Inspection:
        _, _, points, rank = self.transversal_points[label]
        ranks = [record.rank for record in records]
        problems = []
        if [record.point for record in records] != [tuple(map(float, p)) for p in points]:
            problems.append("records do not match the requested points")
        if ranks != [rank] * len(points):
            problems.append(f"ranks {sorted(set(ranks))}, expected {rank} everywhere")
        return Inspection(0, {"ranks": ranks}, problems)


WORKLOADS = {cls.name: cls for cls in (Scenarios, Basin, Analysis)}


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"
