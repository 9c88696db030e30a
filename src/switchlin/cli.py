"""Command-line front-end: derivation, simulation, coverage, and sweeps.

Subcommands::

    switchlin derive       print the output derivative chain of a system
    switchlin simulate     run a closed-loop scenario, write CSV + metrics
    switchlin coverage     check a law family's validity coverage
    switchlin involutivity evaluate the bracket witness at probe points
    switchlin sweep        run every scenario in a directory, summarise

Exit codes: 0 success, 1 usage or input error, 2 runtime/integration error.
Relative output paths resolve against --output-dir, the environment
variable ``SWITCHLIN_OUTPUT_DIR``, or the working directory, in that
order of precedence.  All numeric output uses 9 significant digits.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
import warnings
from pathlib import Path

import numpy as np

from .ballbeam import benchmark_plant, symbolic_system
from .controllers import law_descriptor
from .coverage import coverage_check, necessity_witness
from .expr import EvaluationError, ExprError, Parameter, VectorField, parse
from .expr import format_number as _fmt, format_vector as _fmt_vec
from .geometry import (
    ControlAffineSystem,
    derivative_chain,
    involutivity_witness,
    relative_degree_at,
)
from .sim import Metrics, ScenarioError, SimulationError, Trajectory, load_scenario, run

__all__ = ["main"]


class UsageError(Exception):
    """Bad invocation or malformed input; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # no option looks like a number, so "-2:2" and "-1,0,0,1" are option values
        self._negative_number_matcher = re.compile(r"-\.?\d")

    # argparse exits with code 2 on usage errors; the CLI contract wants 1
    def error(self, message):
        raise UsageError(message)


def _output_dir(args) -> Path:
    if args.output_dir is not None:
        return Path(args.output_dir)
    env = os.environ.get("SWITCHLIN_OUTPUT_DIR")
    if env:
        return Path(env)
    return Path(".")


def _resolve(args, path: str | Path) -> Path:
    path = Path(path)
    if path.is_absolute():
        return path
    base = _output_dir(args)
    base.mkdir(parents=True, exist_ok=True)
    return base / path


# ---------------------------------------------------------------------------
# system registry


def _doubleint_system() -> ControlAffineSystem:
    f = VectorField((parse("x2", 2).expr, parse("0", 2).expr))
    g = VectorField((parse("0", 2).expr, parse("1", 2).expr))
    return ControlAffineSystem(f=f, g=g, h=parse("x1", 2), params={})


def _system_from_file(path: Path) -> ControlAffineSystem:
    """Load a system description: lines ``n = <int>``, ``f<i> = <expr>``,
    ``g<i> = <expr>``, ``h = <expr>``, optional ``param <name> = <value>``."""
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot read system file: {exc}") from None
    entries: dict[str, str] = {}
    params: dict[str, float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key.startswith("param "):
            name = key[len("param "):].strip()
            if name in params:
                raise UsageError(f"{path}:{lineno}: duplicate parameter {name!r}")
            try:  # Parameter rejects a name that does not parse back as itself
                Parameter(name)
            except ExprError:
                raise UsageError(
                    f"{path}:{lineno}: no expression can refer to parameter {name!r}"
                ) from None
            try:
                params[name] = float(value)
            except ValueError:
                raise UsageError(f"{path}:{lineno}: bad parameter value {value!r}") from None
            if not math.isfinite(params[name]):
                raise UsageError(f"{path}:{lineno}: parameter {name!r} must be finite")
        elif key in entries:
            raise UsageError(f"{path}:{lineno}: duplicate key {key!r}")
        else:
            entries[key] = value
    if "n" not in entries:
        raise UsageError(f"{path}: missing 'n'")
    try:
        dim = int(entries.pop("n"))
    except ValueError:
        raise UsageError(f"{path}: 'n' must be an integer") from None
    if "h" not in entries:
        raise UsageError(f"{path}: missing 'h'")
    h = parse(entries.pop("h"), dim)
    f_components, g_components = [], []
    for i in range(1, dim + 1):
        for name, bucket in ((f"f{i}", f_components), (f"g{i}", g_components)):
            if name not in entries:
                raise UsageError(f"{path}: missing '{name}'")
            bucket.append(parse(entries.pop(name), dim).expr)
    if entries:
        raise UsageError(f"{path}: unknown keys {sorted(entries)}")
    return ControlAffineSystem(
        f=VectorField(tuple(f_components)),
        g=VectorField(tuple(g_components)),
        h=h,
        params=params,
    )


def _load_system(source: str) -> ControlAffineSystem:
    if source == "ballbeam":
        return symbolic_system(benchmark_plant())
    if source == "doubleint":
        return _doubleint_system()
    if source.startswith("file:"):
        return _system_from_file(Path(source[len("file:"):]))
    raise UsageError(
        f"unknown system {source!r}; use 'ballbeam', 'doubleint', or 'file:PATH'"
    )


def _parse_point(text: str, dim: int) -> tuple[float, ...]:
    parts = text.split(",")
    if len(parts) != dim:
        raise UsageError(f"probe point needs {dim} comma-separated values: {text!r}")
    try:
        point = tuple(float(p) for p in parts)
    except ValueError:
        raise UsageError(f"bad probe point {text!r}") from None
    if not all(math.isfinite(v) for v in point):
        raise UsageError(f"probe point {text!r} must be finite")
    return point


# ---------------------------------------------------------------------------
# subcommands


def cmd_derive(args) -> int:
    system = _load_system(args.system)
    if not 1 <= args.order <= system.dim:
        raise UsageError(f"order must be in 1..{system.dim}")
    points = [_parse_point(probe, system.dim) for probe in args.probe or []]
    chain = system.chain if args.order == system.dim else derivative_chain(system, args.order)
    lines = [f"system {args.system} (n = {system.dim})"]
    lines += [f"L_f^{j} h = {output}" for j, output in enumerate(chain.outputs)]
    lines += [f"L_g L_f^{j} h = {mixed}" for j, mixed in enumerate(chain.mixed[:-1])]
    lines.append(f"a(x) = L_g L_f^{args.order - 1} h = {chain.a}")
    lines.append(f"b(x) = L_f^{args.order} h = {chain.b}")
    lines.append(f"uniform chain through order {args.order}: {'yes' if chain.uniform else 'no'}")
    for point in points:
        gamma = relative_degree_at(system, point)
        verdict = str(gamma) if gamma is not None else f"undefined (through order {system.dim})"
        lines.append(f"relative degree at {_fmt_vec(point)}: {verdict}")
    print("\n".join(lines))
    return 0


def cmd_simulate(args) -> int:
    scenario = load_scenario(args.scenario)
    stem = Path(args.scenario).stem
    trajectory_path = _resolve(args, args.trajectory or f"{stem}_trajectory.csv")
    metrics_path = _resolve(args, args.metrics or f"{stem}_metrics.txt")
    trajectory, metrics = run(scenario)
    _write_run(trajectory, metrics, trajectory_path, metrics_path)
    print(f"trajectory: {trajectory_path} ({len(trajectory)} samples)")
    print(f"metrics:    {metrics_path}")
    print(metrics.report_text(), end="")
    return 0


def _write_run(
    trajectory: Trajectory, metrics: Metrics, trajectory_path: Path, metrics_path: Path
) -> None:
    trajectory.to_csv(trajectory_path)
    metrics_path.write_text(metrics.report_text(), encoding="ascii")


_LAW_TOKENS = {"1": (1, False), "2": (2, False), "3": (3, False), "3g": (3, True)}


def cmd_coverage(args) -> int:
    tokens = [t.strip() for t in args.laws.split(",") if t.strip()]
    laws = []
    for i, token in enumerate(tokens):
        if token not in _LAW_TOKENS:
            raise UsageError(f"unknown law token {token!r}; use 1, 2, 3, or 3g")
        if token in tokens[:i]:
            raise UsageError(f"law token {token!r} is repeated; name each law once")
        law_id, g_modified = _LAW_TOKENS[token]
        laws.append(law_descriptor(law_id, g_modified=g_modified))
    if not laws:
        raise UsageError("need at least one law")
    try:
        lo, hi = (float(v) for v in args.box.split(":"))
    except ValueError:
        raise UsageError(f"bad box {args.box!r}; expected LO:HI") from None
    if not all(math.isfinite(v) for v in (lo, hi, hi - lo)):
        raise UsageError(f"box {args.box!r} must have finite bounds and a finite width")
    if not lo < hi:
        raise UsageError("box must satisfy LO < HI")
    params = benchmark_plant().symbol_values()
    box = [(lo, hi)] * 4
    report = coverage_check(laws, box, args.samples, args.margin, params, seed=args.seed)
    witness = necessity_witness(laws, params=params)

    lines = ["law set: " + ",".join(law.name for law in laws), report.report_text().rstrip()]
    if witness is None:
        lines.append("necessity witness: none (a law with no declared singularity is present)"
                     if any(not law.factors for law in laws)
                     else "necessity witness: none found")
    else:
        coeffs = ", ".join(
            f"{law.name}={_fmt(law.coefficient_value(witness, params))}" for law in laws
        )
        lines.append(f"necessity witness: {_fmt_vec(witness)}  [{coeffs}]")
    text = "\n".join(lines) + "\n"

    report_path = _resolve(args, args.report)
    witness_path = _resolve(args, args.witnesses)
    report_path.write_text(text, encoding="ascii")
    witness_path.write_text(report.witnesses_csv(), encoding="ascii")
    print(text, end="")
    print(f"report:    {report_path}")
    print(f"witnesses: {witness_path}")
    return 0


_DEFAULT_PROBES = (
    (1.0, 1.0, 0.0, 1.0),
    (0.0, 0.0, 0.0, 0.0),
    (1.0, 0.0, 0.0, 0.0),
    (0.5, -1.0, 0.3, 2.0),
)


def cmd_involutivity(args) -> int:
    system = _load_system(args.system)
    if args.probes:
        path = Path(args.probes)
        try:
            lines = path.read_text(encoding="utf-8").splitlines()
        except OSError as exc:
            raise UsageError(f"cannot read probes file: {exc}") from None
        probes = [
            _parse_point(line.strip(), system.dim)
            for line in lines
            if line.strip() and not line.lstrip().startswith("#")
        ]
        if not probes:
            raise UsageError(f"{path}: no probe points")
    else:
        probes = list(_DEFAULT_PROBES)
    lines = [f"system {args.system}: bracket [g, ad_f^2 g] against span{{g, ad_f g, ad_f^2 g}}"]
    for point in probes:
        witness = involutivity_witness(system, point)
        rises = "rank rises" if witness.rank_rises else "no rank rise"
        lines.append(
            f"at {_fmt_vec(point)}: bracket = {_fmt_vec(witness.bracket_value)}, "
            f"rank {witness.rank_without} -> {witness.rank_with} ({rises})"
        )
    print("\n".join(lines))
    return 0


def cmd_sweep(args) -> int:
    directory = Path(args.scenarios)
    if not directory.is_dir():
        raise UsageError(f"not a directory: {directory}")
    paths = sorted(directory.glob("*.json"))
    out_rows = []
    failures = 0
    for path in paths:
        stem = path.stem
        try:
            scenario = load_scenario(path)
            trajectory, metrics = run(scenario)
        except (ScenarioError, SimulationError, Warning) as exc:  # a Warning: raised under -W error
            failures += 1
            print(f"{stem}: FAILED ({exc})", file=sys.stderr)
            continue
        trajectory_path = _resolve(args, f"{stem}_trajectory.csv")
        _write_run(trajectory, metrics, trajectory_path, _resolve(args, f"{stem}_metrics.txt"))
        out_rows.append(
            (
                stem,
                metrics.min_abs_a1,
                float(np.min(np.abs(trajectory.states[:, 0]))),
                float(np.min(np.abs(trajectory.states[:, 3]))),
                float(np.min(trajectory.abscos3)),
            )
        )
        print(f"{stem}: {len(trajectory)} samples")
    summary = ["scenario,min_abs_a1,min_abs_x1,min_abs_x4,min_abs_cos_x3"]
    for stem, a1, x1, x4, c3 in out_rows:
        summary.append(f"{stem},{_fmt(a1)},{_fmt(x1)},{_fmt(x4)},{_fmt(c3)}")
    summary_path = _resolve(args, "summary.csv")
    summary_path.write_text("\n".join(summary) + "\n", encoding="ascii")
    print(f"summary: {summary_path}")
    return 2 if failures else 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="switchlin", description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output-dir",
        help="directory for output files (default: $SWITCHLIN_OUTPUT_DIR or '.')",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("derive", help="print the output derivative chain")
    p.add_argument("--system", default="ballbeam", help="ballbeam, doubleint, or file:PATH")
    p.add_argument("--order", type=int, required=True, help="number of differentiations")
    p.add_argument(
        "--probe",
        action="append",
        metavar="X1,..,XN",
        help="state at which to report the relative degree (repeatable)",
    )
    p.set_defaults(func=cmd_derive)

    p = sub.add_parser("simulate", help="run one closed-loop scenario")
    p.add_argument("scenario", help="scenario JSON file")
    p.add_argument("--trajectory", help="trajectory CSV path")
    p.add_argument("--metrics", help="metrics report path")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("coverage", help="validity coverage of a law family")
    p.add_argument("--laws", default="1,2,3", help="comma list from {1,2,3,3g}")
    p.add_argument("--samples", type=int, default=100_000, help="random sample count")
    p.add_argument("--margin", type=float, default=0.0, help="validity margin")
    p.add_argument("--box", default="-1:1", help="sampling range LO:HI for every axis")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--report", default="coverage_report.txt")
    p.add_argument("--witnesses", default="coverage_witnesses.csv")
    p.set_defaults(func=cmd_coverage)

    p = sub.add_parser("involutivity", help="bracket witness at probe points")
    p.add_argument("--system", default="ballbeam")
    p.add_argument("--probes", help="file with one x1,x2,x3,x4 point per line")
    p.set_defaults(func=cmd_involutivity)

    p = sub.add_parser("sweep", help="run every scenario JSON in a directory")
    p.add_argument("scenarios", help="directory of scenario files")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    # ScenarioError, ParseError and ExprError are ValueErrors; a warning shown is one line
    formatwarning = warnings.formatwarning
    warnings.formatwarning = lambda message, *_: f"switchlin: warning: {message}\n"
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (UsageError, ValueError, EvaluationError) as exc:
        print(f"switchlin: {exc}", file=sys.stderr)
        return 1
    except RecursionError:  # a tree walk deeper than the stack; parse reports its own
        print("switchlin: expression nested too deeply", file=sys.stderr)
        return 1
    except (SimulationError, OSError, Warning) as exc:
        print(f"switchlin: {exc}", file=sys.stderr)
        return 2
    finally:
        warnings.formatwarning = formatwarning


if __name__ == "__main__":
    sys.exit(main())
