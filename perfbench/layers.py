"""The switchlin functions the traced run wraps, and the counts it keeps.

Span names follow ``<module>.<function>``; the per-layer metrics are
``<span>.calls`` and ``<span>.self_s`` plus the exact counts set up here.
"""

from __future__ import annotations

from switchlin import ballbeam, cli, controllers, coverage, expr, geometry, sim

from spans import Tracer

COUNTS = (
    "sim.write_csv.rows",
    "sim.write_csv.bytes",
    "sim.run.steps",
    "controllers.law_switches",
    "controllers.TrackingReference.derivative.calls",
    "coverage.necessity_witness.points",
    "expr.evaluate_many.rows",
    "coverage.coverage_check.samples",
    "coverage.witnesses",
)


def instrument(tracer: Tracer) -> None:
    """Register every wrapper on ``tracer``; ``tracer.install()`` applies them."""
    counts = tracer.counts
    for name in COUNTS:
        counts[name] = 0

    def span(name, original, on_return=None, reentrant=True):
        tracer.patch_function(original, tracer.span(name, original, on_return, reentrant))

    def count_step(args, result):
        # rk4_step is called by run directly, so the open span is its run
        if tracer.name_id[tracer.innermost()] == run_id:
            counts["sim.run.steps"] += 1

    last_law = [-1, None]  # (run span index, law it last selected)

    def count_switch(args, result):
        run_index = tracer.innermost()
        if last_law[0] == run_index and last_law[1] != result:
            counts["controllers.law_switches"] += 1
        last_law[:] = [run_index, result]

    def count_rows(args, result):
        counts["expr.evaluate_many.rows"] += len(result)

    def count_samples(args, result):
        counts["coverage.coverage_check.samples"] += result.sample_count
        counts["coverage.witnesses"] += result.witness_total

    span("sim.run", sim.run)
    run_id = tracer.name_index("sim.run")
    span("sim.rk4_step", sim.rk4_step, count_step)
    span("sim.load_scenario", sim.load_scenario)
    span("ballbeam.reduced_dynamics", ballbeam.reduced_dynamics)
    span("controllers.supervisor", controllers.supervisor, count_switch)
    span("controllers.outer_loop_v", controllers.outer_loop_v)
    span("controllers.apply_law", controllers.apply_law)
    span("controllers.table_laws", controllers.table_laws)
    span("expr.parse", expr.parse)
    span("expr.evaluate", expr.evaluate)
    span("expr.evaluate_many", expr.evaluate_many, count_rows)
    span("expr.simplify", expr.simplify, reentrant=False)
    span("expr.differentiate", expr.differentiate, reentrant=False)
    span("geometry.derivative_chain", geometry.derivative_chain)
    span("geometry.lie_derivative", geometry.lie_derivative)
    span("geometry.involutivity_witness", geometry.involutivity_witness)
    span("coverage.coverage_check", coverage.coverage_check, count_samples)
    span("coverage.necessity_witness", coverage.necessity_witness)
    span("coverage.factor_check", coverage.factor_check)
    span("coverage.pure_part_sample", coverage.pure_part_sample)
    span("cli.simulate", cli.cmd_simulate)
    span("cli.coverage", cli.cmd_coverage)
    span("cli.derive", cli.cmd_derive)
    span("cli.involutivity", cli.cmd_involutivity)

    write_span = tracer.span("sim.write_csv", sim.Trajectory.write_csv)

    def write_csv(trajectory, stream):
        before = stream.tell()
        write_span(trajectory, stream)
        counts["sim.write_csv.bytes"] += stream.tell() - before
        counts["sim.write_csv.rows"] += len(trajectory)

    tracer.patch_method(sim.Trajectory, "write_csv", write_csv)
    tracer.patch_method(
        controllers.TrackingReference,
        "derivative",
        tracer.counter(
            "controllers.TrackingReference.derivative.calls",
            controllers.TrackingReference.derivative,
        ),
    )
    tracer.patch_method(
        controllers.LawDescriptor,
        "coefficient_value",
        tracer.counter(
            "coverage.necessity_witness.points",
            controllers.LawDescriptor.coefficient_value,
            inside="coverage.necessity_witness",
        ),
    )


def layer_values(tracer: Tracer) -> dict[str, float]:
    """Every per-layer quantity the tracer holds, by metric name."""
    values: dict[str, float] = {}
    for name in tracer.names:
        values[f"{name}.calls"] = tracer.calls[name]
        values[f"{name}.self_s"] = tracer.self_s[name]
    values.update(tracer.counts)
    return values
