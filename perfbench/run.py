"""switchlin benchmark: one workload at one seed, end to end or traced.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload scenarios --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --record-reference

The package is imported from ``src/`` of the checkout.  Workloads are
``scenarios``, ``basin`` and ``analysis`` (see ``workloads.py``).  A run
repeats whole passes over the workload's operation list for at least
``--seconds`` seconds, and until it has at least 3 passes and 100
operations, so the 90th-percentile latency has ten samples beyond it.
Every operation's output is checked as soon as it returns, outside the
timed interval.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median of 7
fresh interpreters importing switchlin and building the plant, the
symbolic system and the law table), ``wall_norm_s`` (median time of one
pass, the sum of its operations' latencies) and ``peak_rss_mb``.  The two
times are scaled to reference-host speed by the calibration kernel of
``calibration.py``, timed around each operation and each set-up
interpreter.  Over ten runs of the same code on a shared 2-core host,
the raw median pass time spread (quartile distance over median) by up
to 0.37, the scaled one by at most 0.05.
The raw times are printed too, unbounded, as ``wall_s`` and
``setup_raw_s``, with the median and 90th-percentile operation latency
over all passes and the sample count, RK4 steps per second, the failed
ratio and the basin outcome counts.  The latency percentiles are
unbounded because on that host their quartile distance over ten seeds
reached 0.27 (median) and 0.36 (90th percentile) of their median, while
interleaved runs showed the seeds' inputs cost the same: the spread is
the host's, and a bound inside it would reject changes at random.

``--trace 1`` reports the per-layer metrics from one traced pass, after
untraced passes for half of ``--seconds``; ``trace.overhead_s`` is the
traced pass's scaled wall time minus the untraced scaled median.  No
layer waits on another or retries, so there are no waiting or retry
metrics.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The full record, with the machine description, goes to
``perfbench/out/``.  Exit status: 0 when every check passed, 1 when an
output check failed, 2 when the checkout cannot be benchmarked.

``--record-reference`` runs one pass of every workload at the default seed
and writes the fingerprints of its outputs to ``perfbench/reference/``;
run it only on a commit whose outputs are known to be right.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from calibration import Calibrator

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"

SETUP_REPEATS = 7
MIN_PASSES = 3
MIN_OPS = 100
#: stop starting passes after this long, whatever the minimums say [s]
TIME_CAP = 110.0

SETUP_SCRIPT = """\
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import switchlin
switchlin.benchmark_plant()
switchlin.symbolic_system()
switchlin.table_laws()
elapsed = time.perf_counter() - t0
sys.path.insert(0, sys.argv[2])
from calibration import Calibrator
print(elapsed, Calibrator().scale(), switchlin.__file__)
"""


class CheckoutError(Exception):
    """The working directory is not a switchlin source checkout."""


def import_switchlin():
    package = SRC / "switchlin"
    if not (package / "__init__.py").is_file() or not (ROOT / "scenarios").is_dir():
        raise CheckoutError(f"no switchlin sources and scenarios under {ROOT}")
    sys.path.insert(0, str(SRC))
    import switchlin

    if Path(switchlin.__file__).resolve().parent != package.resolve():
        raise CheckoutError(f"imported switchlin from {switchlin.__file__}, not {package}")


def declared_metrics() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def environment() -> dict:
    import numpy as np
    import scipy

    rng = np.random.default_rng(20261017)
    sample = rng.uniform(-100.0, 100.0, 100_000)
    listed = sample.tolist()

    def bitwise_equal(vectorised, scalar) -> bool:
        expected = np.array([scalar(v) for v in listed])
        return bool(np.array_equal(vectorised(sample).view(np.uint64), expected.view(np.uint64)))

    cpu_model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as stream:
            for line in stream:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "platform": platform.platform(),
        "np_sin_bitwise_math_sin": bitwise_equal(np.sin, math.sin),
        "np_cos_bitwise_math_cos": bitwise_equal(np.cos, math.cos),
        "trig_sample": "100000 points uniform in [-100, 100], numpy default_rng(20261017)",
    }


def measure_setup() -> tuple[list[float], list[float]]:
    """Set-up time in fresh interpreters, scaled and raw.

    The first interpreter, which may compile bytecode, is dropped.  Each
    interpreter reads the calibration factor itself, after the set-up,
    since another process may run on another core at another speed.
    """
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS + 1):
        done = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_SCRIPT, str(SRC), str(HERE)],
            capture_output=True, text=True, timeout=60, check=True,
        )
        elapsed, scale, origin = done.stdout.split()
        if Path(origin).resolve().parent != (SRC / "switchlin").resolve():
            raise CheckoutError(f"set-up imported switchlin from {origin}")
        raw.append(float(elapsed))
        scaled.append(raw[-1] * float(scale))
    return scaled[1:], raw[1:]


class Checker:
    """Runs a workload's inspections and compares fingerprints.

    A fingerprint is compared with the recorded reference when the seed is
    the default one or the output does not depend on the seed, and with
    the same operation's fingerprint from the first pass of this run.
    """

    def __init__(self, workload, reference: dict | None, at_default_seed: bool):
        self.workload = workload
        self.reference = reference
        self.at_default_seed = at_default_seed
        self.first: dict = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, label: str, output):
        inspection = self.workload.inspect(label, output)
        fingerprint = json.loads(json.dumps(inspection.fingerprint))
        problems = inspection.problems
        if self.reference is not None and (
            self.at_default_seed or self.workload.seed_independent(label)
        ):
            expected = self.reference.get(label)
            if expected is None:
                problems.append("no reference output recorded")
            elif expected != fingerprint:
                keys = sorted(k for k in expected if expected[k] != fingerprint.get(k))
                problems.append(f"output differs from the reference in {keys}")
        first = self.first.setdefault(label, fingerprint)
        if first != fingerprint:
            problems.append("output differs from the same operation's first pass")
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{label}: {p}" for p in problems]
        return inspection


def run_pass(workload, checker: Checker, calibrator: Calibrator, tracer=None) -> dict:
    """One pass over the operation list; checks and calibration run outside the timed calls."""
    latencies, scaled, steps, fingerprints = [], 0.0, 0, {}
    for op_id, (label, operation) in enumerate(workload.operations):
        before = calibrator.scale()
        if tracer is not None:
            tracer.op_id = op_id
            tracer.install()
        try:
            t0 = time.perf_counter()
            output = operation()
            latency = time.perf_counter() - t0
        finally:
            if tracer is not None:
                tracer.restore()
        # the host's speed can change during a long operation
        scaled += latency * (before + calibrator.scale()) / 2
        inspection = checker.check(label, output)
        latencies.append(latency)
        steps += inspection.steps
        fingerprints[label] = inspection.fingerprint
    return {
        "wall_s": sum(latencies),
        "wall_norm_s": scaled,
        "latencies": latencies,
        "steps": steps,
        "fingerprints": fingerprints,
    }


def repeat_passes(workload, checker, calibrator, seconds: float, min_passes: int, min_ops: int) -> list[dict]:
    passes, ops = [], 0
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= TIME_CAP or (
            elapsed >= seconds and len(passes) >= min_passes and ops >= min_ops
        ):
            return passes
        passes.append(run_pass(workload, checker, calibrator))
        ops += len(passes[-1]["latencies"])


def end_to_end(workload, checker, calibrator, seconds: float) -> tuple[dict, dict]:
    """Returns (metrics for the result line, extra figures for the record)."""
    import numpy as np

    setup, setup_raw = measure_setup()
    passes = repeat_passes(workload, checker, calibrator, seconds, MIN_PASSES, MIN_OPS)
    walls = [p["wall_s"] for p in passes]
    latencies = np.concatenate([p["latencies"] for p in passes])
    p90 = float(np.percentile(latencies, 90))
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_norm_s": statistics.median(p["wall_norm_s"] for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    extras = {
        "setup_samples_s": setup,
        "setup_raw_s": statistics.median(setup_raw),
        "setup_raw_samples_s": setup_raw,
        "passes": len(passes),
        "wall_s": statistics.median(walls),
        "pass_wall_s": walls,
        "pass_wall_norm_s": [p["wall_norm_s"] for p in passes],
        "op_p50_ms": 1000 * float(np.percentile(latencies, 50)),
        "op_p90_ms": 1000 * p90,
        "latency_samples": len(latencies),
        "latency_samples_beyond_p90": int(np.count_nonzero(latencies > p90)),
        "failed_ratio": checker.failed / max(checker.attempted, 1),
    }
    steps = passes[0]["steps"]
    if steps:
        extras["steps_per_pass"] = steps
        extras["steps_per_s"] = steps / extras["wall_s"]
    extras.update(workload.summary(passes[0]["fingerprints"]))
    return metrics, extras


def traced(workload, checker, calibrator, seconds: float, spans_path: Path) -> tuple[dict, dict]:
    from layers import instrument, layer_values
    from spans import Tracer

    untraced = repeat_passes(workload, checker, calibrator, seconds / 2, 1, 0)
    tracer = Tracer()
    instrument(tracer)
    traced_pass = run_pass(workload, checker, calibrator, tracer)
    tracer.save(spans_path)
    values = layer_values(tracer)
    baseline = statistics.median(p["wall_norm_s"] for p in untraced)
    values["trace.overhead_s"] = traced_pass["wall_norm_s"] - baseline
    if values["sim.run.steps"] != traced_pass["steps"]:
        checker.problems.append(
            f"traced sim.run.steps {values['sim.run.steps']} != "
            f"{traced_pass['steps']} steps read from the outputs"
        )
    extras = {
        "untraced_passes": len(untraced),
        "untraced_wall_norm_s": baseline,
        "traced_wall_norm_s": traced_pass["wall_norm_s"],
        "traced_wall_s": traced_pass["wall_s"],
        "spans": len(tracer.start),
        "spans_file": str(spans_path.relative_to(ROOT)),
    }
    return values, extras


def record_reference() -> None:
    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    calibrator = Calibrator()
    for name, cls in workloads.WORKLOADS.items():
        with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
            workload = cls(workloads.DEFAULT_SEED, Path(tmp))
            checker = Checker(workload, None, True)
            fingerprints = run_pass(workload, checker, calibrator)["fingerprints"]
        if checker.problems:
            raise SystemExit(f"{name}: not recording, checks failed:\n" + "\n".join(checker.problems))
        path = workloads.reference_path(name)
        path.write_text(json.dumps(fingerprints, indent=1, sort_keys=True) + "\n")
        print(f"{name}: {len(fingerprints)} reference outputs -> {path.relative_to(ROOT)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("scenarios", "basin", "analysis"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    if not args.record_reference and args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    try:
        import_switchlin()
        if args.record_reference:
            record_reference()
            return 0
        declared = declared_metrics()
    except (CheckoutError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: cannot benchmark this checkout: {exc}", file=sys.stderr)
        return 2

    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    env = environment()
    reference = json.loads(workloads.reference_path(args.workload).read_text())
    tag = f"{args.workload}-seed{args.seed}"
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        workload = workloads.WORKLOADS[args.workload](args.seed, Path(tmp))
        checker = Checker(workload, reference, args.seed == workloads.DEFAULT_SEED)
        calibrator = Calibrator()
        if args.trace:
            values, extras = traced(
                workload, checker, calibrator, args.seconds, OUT_DIR / f"{args.workload}.spans.npz"
            )
            units = declared["per_layer"]
        else:
            values, extras = end_to_end(workload, checker, calibrator, args.seconds)
            units = declared["end_to_end"]

    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    correct = not checker.problems
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "problems": checker.problems,
        "metrics": metrics,
        "extras": extras,
    }
    if args.trace:
        # exact counts apart from timings, so they can be cited as counts
        record["counts"] = {k: v for k, v in metrics.items() if v["unit"] != "s"}
        record["timings_s"] = {k: v["value"] for k, v in metrics.items() if v["unit"] == "s"}
    (OUT_DIR / f"{tag}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload}, seed {args.seed}, trace {'on' if args.trace else 'off'}")
    print(
        "machine: python {python}, numpy {numpy}, scipy {scipy}, nproc {nproc}, cpu {cpu_model}; "
        "np.sin==math.sin bitwise: {np_sin_bitwise_math_sin}, "
        "np.cos==math.cos bitwise: {np_cos_bitwise_math_cos}".format(**env)
    )
    for name, metric in metrics.items():
        print(f"  {name:50s} {metric['value']:>16.6g} {metric['unit']}")
    for name, value in extras.items():
        print(f"  {name:50s} {value}")
    for problem in checker.problems[:20]:
        print(f"FAILED {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
