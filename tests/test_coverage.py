import dataclasses
import itertools
import math
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from switchlin import coverage, expr
from switchlin.controllers import LawDescriptor, law_descriptor, table_laws
from switchlin.coverage import (
    SamplingError,
    coverage_check,
    factor_check,
    necessity_witness,
    pure_part_sample,
    transversality_report,
)
from switchlin.expr import Bindings, EvaluationError, ScalarField, parse
from switchlin.geometry import SingularityFactor, transversality_rank

BOX = [(-1.0, 1.0)] * 4

F_X1 = SingularityFactor(parse("x1", 4), "x1")
F_X4 = SingularityFactor(parse("x4", 4), "x4")
F_COS = SingularityFactor(parse("cos(x3)", 4), "cos(x3)")


# ---------------------------------------------------------------------------
# factorisation check


def test_factor_check_recovers_constant_cofactor(params):
    a = parse("2*B*x1*x4", 4)
    result = factor_check(a, (F_X1, F_X4), BOX, 10_000, params)
    assert result.constant_estimate == pytest.approx(10 / 7, rel=1e-10)
    assert result.max_relative_residual < 1e-12


def test_factor_check_flags_nonminimal_factor_list(params):
    # a = x1^2 against the single factor x1 leaves a non-constant quotient
    a = parse("x1^2", 4)
    result = factor_check(a, (F_X1,), BOX, 2_000, params)
    assert result.max_relative_residual > 1.0


def test_factor_check_trig_factor(params):
    a = parse("-B*G*cos(x3)", 4)
    result = factor_check(a, (F_COS,), BOX, 5_000, params)
    assert result.constant_estimate == pytest.approx(-params["B"] * params["G"], rel=1e-10)
    assert result.max_relative_residual < 1e-10


def test_factor_check_deterministic(params):
    a = parse("2*B*x1*x4", 4)
    first = factor_check(a, (F_X1, F_X4), BOX, 500, params, seed=3)
    second = factor_check(a, (F_X1, F_X4), BOX, 500, params, seed=3)
    assert first == second


def test_factor_check_validation(params):
    with pytest.raises(ValueError):
        factor_check(parse("x1", 4), (), BOX, 10, params)
    with pytest.raises(ValueError):
        factor_check(parse("x1", 4), (F_X1,), BOX, 0, params)


# ---------------------------------------------------------------------------
# pure parts


def test_pure_part_sample_coordinate_factor(params):
    points = pure_part_sample(1, (F_X1, F_X4), BOX, 50, params)
    assert points.shape == (50, 4)
    assert np.all(points[:, 0] == 0.0)
    assert np.all(np.abs(points[:, 3]) > 0.1)


def test_pure_part_sample_second_factor(params):
    points = pure_part_sample(2, (F_X1, F_X4), BOX, 50, params)
    assert np.all(points[:, 3] == 0.0)
    assert np.all(np.abs(points[:, 0]) > 0.1)


def test_pure_parts_are_disjoint(params):
    x1_part = pure_part_sample(1, (F_X1, F_X4), BOX, 40, params)
    x4_part = pure_part_sample(2, (F_X1, F_X4), BOX, 40, params)
    # a point of X1 has x4 clear of zero, a point of X2 has x4 exactly zero
    assert np.all(np.abs(x1_part[:, 3]) > 0.1)
    assert np.all(x4_part[:, 3] == 0.0)


def test_pure_part_sample_root_solved_factor(params):
    # cos(x3) is not a bare coordinate: the sampler solves along a line
    points = pure_part_sample(1, (F_COS, F_X1), BOX, 25, params)
    residuals = np.abs(np.cos(points[:, 2]))
    assert np.max(residuals) < 1e-12
    assert np.all(np.abs(points[:, 0]) > 0.1)


def test_pure_part_sample_validation(params):
    with pytest.raises(ValueError):
        pure_part_sample(3, (F_X1, F_X4), BOX, 5, params)


@pytest.mark.parametrize("n", [0, -3])
def test_pure_part_sample_needs_a_sample(params, n):
    with pytest.raises(ValueError, match="need at least one sample"):
        pure_part_sample(1, (F_X1, F_X4), BOX, n, params)


def test_pure_part_sample_unbound_parameter_raises():
    # the line scan of a non-coordinate factor needs every parameter bound
    factor = SingularityFactor(parse("cos(x3) - B", 4), "cos(x3) - B")
    with pytest.raises(EvaluationError):
        pure_part_sample(1, (factor, F_X1), BOX, 5, {})


def test_pure_part_sample_impossible_clearance(params):
    # requiring |x1| > 0.1 while pinning x1 = 0 with itself as the only
    # other factor cannot succeed
    with pytest.raises(SamplingError):
        pure_part_sample(1, (F_X1, F_X1), BOX, 3, params)


# ---------------------------------------------------------------------------
# coverage check


def test_coverage_complete_with_all_three_laws(params):
    report = coverage_check(table_laws(), BOX, 20_000, 0.0, params)
    assert report.complete
    assert report.witness_total == 0
    assert dict(report.law_fractions)["law3"] == 1.0
    assert "coverage complete" in report.report_text()


def test_coverage_law1_alone_fails_on_probes(params):
    report = coverage_check([law_descriptor(1)], BOX, 2_000, 0.0, params)
    assert not report.complete
    states = np.array([w.state for w in report.witnesses])
    assert np.all(np.isclose(states[:, 0], 0) | np.isclose(states[:, 3], 0))
    # every witness records the vanishing coefficient
    for witness in report.witnesses:
        assert abs(dict(witness.coefficients)["law1"]) < 1e-9


def test_coverage_laws_1_2_fail_on_joint_singularity(params):
    laws = [law_descriptor(1), law_descriptor(2)]
    report = coverage_check(laws, BOX, 2_000, 0.0, params)
    assert not report.complete
    hits = [
        w
        for w in report.witnesses
        if abs(w.state[0] * w.state[3]) < 1e-12 and abs(math.cos(w.state[2])) < 1e-9
    ]
    assert hits, "expected a probe on the intersection of both singular sets"
    assert {math.copysign(1.0, w.state[2]) for w in hits} == {-1.0, 1.0}  # x3 = +-pi/2
    # a state is a witness exactly when every law has a factor that vanishes there
    for witness in report.witnesses:
        at_witness = Bindings(params, witness.state)
        for law in laws:
            assert min(abs(f.field.evaluate(at_witness)) for f in law.factors) <= 1e-12


def test_coverage_margin_widens_failures(params):
    strict = coverage_check(table_laws()[:2], BOX, 5_000, 0.0, params, seed=5)
    wide = coverage_check(table_laws()[:2], BOX, 5_000, 0.2, params, seed=5)
    assert wide.witness_total >= strict.witness_total
    assert wide.witness_total > 0


def test_coverage_validation(params):
    with pytest.raises(ValueError):
        coverage_check(table_laws(), BOX, -1, 0.0, params)
    with pytest.raises(ValueError):
        coverage_check(table_laws(), BOX, 10, -0.5, params)


def test_coverage_rejects_nan_margin(params):
    # NaN fails every comparison, so as a threshold it would cover no state
    with pytest.raises(ValueError, match="margin must be a non-negative number, got nan"):
        coverage_check(table_laws()[:2], BOX, 10, math.nan, params)


def test_coverage_rejects_infinite_margin(params):
    # no factor exceeds an infinite margin, so as a threshold it would cover no state
    with pytest.raises(ValueError, match="margin must be a non-negative number, got inf"):
        coverage_check(table_laws()[:2], BOX, 10, math.inf, params)


def test_coverage_witness_csv_format(params):
    report = coverage_check([law_descriptor(1)], BOX, 100, 0.0, params)
    lines = report.witnesses_csv().splitlines()
    assert lines[0] == "x1,x2,x3,x4,failed_laws"
    assert len(lines) == len(report.witnesses) + 1
    assert all(line.endswith("law1") for line in lines[1:])


def _one_shot_coverage(laws, box, n, margin, params, seed=0):
    """The reference coverage_check: all n samples in one ``uniform`` draw, probes stacked on."""
    rng = np.random.default_rng(seed)
    lows, highs = np.asarray(box, dtype=float).T
    samples = rng.uniform(lows, highs, size=(n, len(box)))
    probes = coverage._factor_probes([f for law in laws for f in law.factors], len(box))
    states = np.vstack([samples, probes]) if len(probes) else samples
    threshold = max(margin, coverage.ZERO_FLOOR)
    covered_any = np.zeros(len(states), dtype=bool)
    fractions = []
    for law in laws:
        covered = np.ones(len(states), dtype=bool)
        for factor in law.factors:
            covered &= np.abs(factor.field.evaluate_many(params, states)) > threshold
        covered_any |= covered
        fractions.append((law.name, float(np.mean(covered)) if len(states) else 1.0))
    witness_states = states[~covered_any]
    witnesses = []
    for state in witness_states[: coverage._WITNESS_CAP]:
        at_state = tuple(float(v) for v in state)
        coeffs = tuple((law.name, law.coefficient_value(at_state, params)) for law in laws)
        witnesses.append(coverage.Witness(state=at_state, coefficients=coeffs))
    return coverage.CoverageReport(
        sample_count=n,
        probe_count=len(probes),
        margin=margin,
        witnesses=tuple(witnesses),
        witness_total=len(witness_states),
        law_fractions=tuple(fractions),
    )


def _assert_same_report(report, reference):
    assert report == reference
    assert [f.hex() for _, f in report.law_fractions] == [
        f.hex() for _, f in reference.law_fractions
    ]


_BLOCK = coverage._BLOCK_ROWS
_LAW_SETS = {
    "1,2,3": table_laws,
    "1,2": lambda: [law_descriptor(1), law_descriptor(2)],
    "1,3g": lambda: [law_descriptor(1), law_descriptor(3, g_modified=True)],
}


@pytest.mark.parametrize("n", [0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3])
@pytest.mark.parametrize("law_set", list(_LAW_SETS))
def test_blocked_coverage_matches_one_shot_reference(params, law_set, n):
    laws = _LAW_SETS[law_set]()
    _assert_same_report(
        coverage_check(laws, BOX, n, 0.0, params, seed=3),
        _one_shot_coverage(laws, BOX, n, 0.0, params, seed=3),
    )


def test_blocked_coverage_caps_witnesses_in_a_later_block(params):
    laws, margin, n = [law_descriptor(1)], 0.05, 4 * _BLOCK + 3
    # the cap is reached after the first block, which alone holds fewer witnesses
    assert coverage_check(laws, BOX, _BLOCK, margin, params).witness_total < coverage._WITNESS_CAP
    report = coverage_check(laws, BOX, n, margin, params)
    assert report.witness_total > len(report.witnesses) == coverage._WITNESS_CAP
    _assert_same_report(report, _one_shot_coverage(laws, BOX, n, margin, params))


_HALF = coverage._BLOCK_ROWS // 2  # the rows each of the two threads draws per block


@pytest.mark.parametrize(
    "n", [_HALF, _HALF + 1, 2 * _HALF - 1, 2 * _HALF, 2 * _HALF + 1, 5 * _HALF - 7]
)
@pytest.mark.parametrize("law_set", list(_LAW_SETS) + ["1"])
def test_two_thread_coverage_matches_one_shot_reference(params, law_set, n):
    # one block (no helper), a helper with one row, an even split, and an odd block count;
    # law 1 alone at margin 0.05 leaves sampled witnesses in both halves, below the cap
    if law_set in _LAW_SETS:
        laws, margin = _LAW_SETS[law_set](), 0.0
    else:
        laws, margin = [law_descriptor(1)], 0.05
    report = coverage_check(laws, BOX, n, margin, params, seed=3)
    _assert_same_report(report, _one_shot_coverage(laws, BOX, n, margin, params, seed=3))


def test_two_thread_coverage_caps_witnesses_in_the_helpers_half(params):
    laws, margin, n = [law_descriptor(1)], 0.05, 8 * _HALF + 3
    # nine blocks: the caller's first five hold fewer witnesses than the cap, all n more
    first_half = coverage_check(laws, BOX, 5 * _HALF, margin, params)
    assert first_half.witness_total < coverage._WITNESS_CAP
    report = coverage_check(laws, BOX, n, margin, params)
    assert report.witness_total > len(report.witnesses) == coverage._WITNESS_CAP
    _assert_same_report(report, _one_shot_coverage(laws, BOX, n, margin, params))


def test_coverage_without_a_seed_draws_one_stream(params, monkeypatch):
    # seed=None: both halves come from the one generator default_rng(None) gives
    unseeded = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda s: unseeded(5 if s is None else s))
    laws, n = _LAW_SETS["1,2"](), 3 * _HALF + 1
    _assert_same_report(
        coverage_check(laws, BOX, n, 0.3, params, seed=None),
        _one_shot_coverage(laws, BOX, n, 0.3, params, seed=5),
    )


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("dim", [1, 4, 5])
def test_stream_from_draws_the_rows_one_draw_gives(seed, dim):
    n = 3 * _HALF + 5
    reference = np.random.default_rng(seed).random((n, dim))
    rng = np.random.default_rng(seed)
    for start in [0, 1, 7, _HALF, 2 * _HALF + 1]:
        rows = coverage._stream_from(rng, start * dim).random((n - start, dim))
        assert rows.tobytes() == reference[start:].tobytes()
    assert rng.random((n, dim)).tobytes() == reference.tobytes()  # rng itself is untouched


def _law_with_parameter():
    factor = SingularityFactor(parse("cos(x3) - B", 4), "cos(x3) - B")
    return dataclasses.replace(law_descriptor(1), factors=(F_X1, factor))


def test_coverage_raises_an_unbound_parameter_error_at_two_blocks():
    threads = threading.active_count()
    with pytest.raises(EvaluationError, match="^unbound parameter 'B'$"):
        coverage_check([_law_with_parameter()], BOX, 2 * _HALF, 0.0, {})
    assert threading.active_count() == threads


def _wrap_mask_kernels(monkeypatch, wrap):
    """Make coverage_check tally with ``wrap(kernel)`` for each kernel ``_compile`` gives it."""
    compile_ = coverage._compile
    monkeypatch.setattr(coverage, "_compile", lambda *args, **names: wrap(compile_(*args, **names)))


@pytest.mark.parametrize("half", ["caller", "helper"])
def test_coverage_raises_an_error_from_either_half(monkeypatch, half):
    law, bound = _law_with_parameter(), {"B": 0.5}
    threads = threading.active_count()
    assert coverage_check([law], BOX, 2 * _HALF, 0.0, bound).sample_count == 2 * _HALF
    assert threading.active_count() == threads

    def unbound_in_one_half(kernel):  # no parameter is bound in that half
        def masks(*args):
            if (threading.current_thread() is threading.main_thread()) == (half == "caller"):
                expr._bind(["B"], {})
            return kernel(*args)

        return masks

    _wrap_mask_kernels(monkeypatch, unbound_in_one_half)
    with pytest.raises(EvaluationError, match="^unbound parameter 'B'$"):
        coverage_check([law], BOX, 2 * _HALF, 0.0, bound)
    assert threading.active_count() == threads


def test_coverage_helper_keeps_the_callers_floating_point_error_state(params, monkeypatch):
    seen = {}

    def recording(kernel):
        def masks(*args):
            seen[threading.current_thread() is threading.main_thread()] = np.geterr()
            return kernel(*args)

        return masks

    _wrap_mask_kernels(monkeypatch, recording)
    before = np.geterr()
    with np.errstate(over="raise", under="warn"):
        caller = np.geterr()
        coverage_check(table_laws(), BOX, 2 * _HALF, 0.0, params)
    assert seen == {True: caller, False: caller} != {True: before, False: before}
    assert np.geterr() == before


def test_mask_kernel_binds_parameters_named_like_code_by_value(rng):
    # p<k>, t<k> and p<id>_<k> are the kernel's own names; a user's are bound by value
    params = {"p0": 0.5, "p1": -2.0, "t0": 3.0, "p1_0": 0.25}
    texts = ("p1_0*x1 - t0*sin(p0*x2) + p1/(x1*x1 + 1.5) + x1*x1", "p1 + t0*x2")
    laws = [_law_with_factors("code-like", *texts), law_descriptor(1)]
    states = rng.uniform(-2.0, 2.0, size=(512, 4))
    masks = coverage._mask_kernel([law.factors for law in laws], params, 0.3, 4)(states)
    for law, mask in zip(laws, masks):
        expected = [
            all(abs(f.field.evaluate(Bindings(params, tuple(x)))) > 0.3 for f in law.factors)
            for x in states.tolist()
        ]
        assert mask.tolist() == expected
        assert 0 < sum(expected) < len(states)


def _law_with_factors(name, *texts):
    factors = tuple(SingularityFactor(parse(text, 4), text) for text in texts)
    return dataclasses.replace(law_descriptor(1), name=name, factors=factors)


def _non_finite_laws():
    # wherever x4 = 0, x1/x4 is +-inf and x4/x4 NaN: on the probes, and on every row _X4_ZERO_BOX draws
    return [law_descriptor(1), _law_with_factors("inf", "x1/x4"), _law_with_factors("nan", "x4/x4")]


_X4_ZERO_BOX = [(-1.0, 1.0)] * 3 + [(0.0, 0.0)]
_WIDE_BOX = [(-1.0, 1.0)] * 2 + [(-math.pi, math.pi), (-1.0, 1.0)]  # cos(x3) takes every sign


def _laws_1_2_3g():
    return [law_descriptor(1), law_descriptor(2), law_descriptor(3, g_modified=True)]


@pytest.mark.parametrize(
    "laws, box, margin, n",
    [
        (_non_finite_laws, _X4_ZERO_BOX, 0.3, 2 * _HALF + 3),
        (_non_finite_laws, BOX, 0.0, 2 * _HALF + 3),
        (lambda: [law_descriptor(1), law_descriptor(3)], BOX, 0.3, 2 * _HALF + 3),  # no factors
        (lambda: [law_descriptor(1), _law_with_parameter()], BOX, 0.3, 2 * _HALF + 3),
        # the caller's block holds fewer witnesses than the cap, the helper's crosses it
        (lambda: [law_descriptor(1)], BOX, 0.3, 2 * _HALF),
        # factors proved nonzero on the box are left out of the samples' kernel
        (_LAW_SETS["1,2"], BOX, 0.3, 2 * _HALF + 3),
        (_LAW_SETS["1,3g"], BOX, 0.3, 2 * _HALF + 3),
        (lambda: [law_descriptor(1), _law_with_factors("x1 cos", "x1", "cos(x3)")], BOX, 0.0, 5),
        (lambda: [_law_with_factors("x1 cos", "x1", "cos(x3)")], BOX, 0.5, 2 * _HALF),
        (_laws_1_2_3g, _WIDE_BOX, 0.3, 2 * _HALF + 3),
        (_laws_1_2_3g, BOX, 0.6, 2 * _HALF + 3),
    ],
    ids=[
        "inf and nan, x4 = 0", "inf and nan", "law 3", "parameter", "cap in the helper",
        "1,2 pruned", "1,3g pruned", "x1 cos, few", "x1 cos, cap", "1,2,3g wide", "margin 0.6",
    ],
)
def test_mask_kernel_tally_matches_one_shot_reference(params, laws, box, margin, n):
    laws = laws()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # inf and NaN values are silent, as in evaluate_many
        report = coverage_check(laws, box, n, margin, params, seed=3)
    _assert_same_report(report, _one_shot_coverage(laws, box, n, margin, params, seed=3))
    if len(laws) == 1:
        caller_half = coverage_check(laws, box, _HALF, margin, params, seed=3)
        assert caller_half.witness_total < coverage._WITNESS_CAP < report.witness_total


_LAW_TOKENS = {
    "1": lambda: law_descriptor(1),
    "2": lambda: law_descriptor(2),
    "3": lambda: law_descriptor(3),
    "3g": lambda: law_descriptor(3, g_modified=True),
}


@pytest.mark.parametrize("box", [BOX, [(-2.0, 2.0)] * 4], ids=["1", "2"])
@pytest.mark.parametrize("margin", [0.0, 0.3, 0.6])
@pytest.mark.parametrize("law_set", ["1,2,3", "1,2", "1,3g", "1,2,3g", "2,3g", "3"])
def test_coverage_matches_a_plain_test_of_every_factor_on_every_row(params, law_set, margin, box):
    # on [-1, 1]^4 a law that bounds prove valid (2 at margins below cos 1 = 0.54, and 3g) or
    # that declares no factor (3) leaves blocks only counted; on [-2, 2]^4 only law 3 does, and
    # samples are witnesses
    tokens = law_set.split(",")
    laws = [_LAW_TOKENS[token]() for token in tokens]
    n = 20_000
    threshold = max(margin, coverage.ZERO_FLOOR)
    kept = [coverage._needed(law.factors, box, params, threshold) for law in laws]
    counted_only = any(not factors for factors in kept)
    assert counted_only == ("3" in tokens or box == BOX and (margin < 0.6 or law_set != "1,2"))
    report = coverage_check(laws, box, n, margin, params, seed=11)
    reference = _one_shot_coverage(laws, box, n, margin, params, seed=11)
    _assert_same_report(report, reference)
    assert report.report_text() == reference.report_text()
    if box != BOX:
        assert kept == [list(law.factors) for law in laws]  # nothing pruned
        if margin and "3" not in tokens:
            assert report.witness_total > report.probe_count


def test_mask_kernel_shares_subtrees_across_laws_bit_for_bit(params):
    # cos(x3) is a factor of law 2 and part of law 3g's; B*G and x1*x4 repeat across factors
    laws = [
        law_descriptor(2),
        law_descriptor(3, g_modified=True),
        _law_with_factors("shared", "x1*x4 + cos(x3)", "B*G*(x1*x4)", "x1/x4"),
    ]
    sources, _ = expr._emit([f.field.expr for law in laws for f in law.factors], 4)
    assert sum(":=" in source for source in sources) >= 2
    rng = np.random.default_rng(19)
    states = rng.uniform(-2.0, 2.0, size=(4096, 4))
    states[:5] = [[0.0, 0.0, 0.0, 0.0], [-0.0] * 4, [np.inf] * 4, [np.nan] * 4, [1e200] * 4]
    states[5::7, 3] = 0.0  # x1/x4 is +-inf or NaN
    with np.errstate(over="ignore"):  # x1*x4 at 1e200; inf and NaN are silent as in evaluate_many
        masks = coverage._mask_kernel([law.factors for law in laws], params, 0.3, 4)(states)
        for law, mask in zip(laws, masks, strict=True):
            expected = np.ones(len(states), dtype=bool)
            for factor in law.factors:
                expected &= np.abs(factor.field.evaluate_many(params, states)) > 0.3
            assert mask.tobytes() == expected.tobytes()


@pytest.mark.parametrize("law_set", list(_LAW_SETS))
def test_mask_kernel_leaves_out_the_factors_proved_nonzero_on_the_box(params, monkeypatch, law_set):
    # cos(x3) >= 0.54 and law 3g's factor <= -2.35 on [-1, 1]^4; the probes can lie outside
    sources = []
    compile_ = coverage._compile
    monkeypatch.setattr(coverage, "_compile", lambda *args, **names: (
        sources.append(args[0]) or compile_(*args, **names)
    ))
    coverage_check(_LAW_SETS[law_set](), BOX, 10, 0.0, params)
    probe, sample = sources
    assert "cos(" in probe and "cos(" not in sample
    assert "x1" in sample and "x4" in sample


def test_coverage_compiles_nothing_for_a_new_seed_or_margin(params):
    laws = _LAW_SETS["1,2"]()
    coverage_check(laws, BOX, 2 * _HALF, 0.3, params, seed=0)
    misses = expr._compile.cache_info().misses
    coverage_check(laws, BOX, 2 * _HALF, 0.0, params, seed=1)
    assert expr._compile.cache_info().misses == misses


def test_coverage_memory_is_bounded(params):
    # one draw of 10^6 x 4 samples, stacked with the probes, peaked near 78 MB
    tracemalloc.start()
    try:
        coverage_check(table_laws(), [(-1, 1)] * 4, 10**6, 0.0, params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


_SAMPLER_BOXES = {
    "unit": [(0.0, 1.0)] * 4,
    "mixed": [(-1.0, 1.0), (-3.5, -0.25), (0.0, 2.0 * math.pi), (1e-3, 7.0)],
    "huge": [(-1e300, 1e300), (0.0, 1e300), (-1e300, 0.0), (1.0, 2.0)],
    "tiny": [
        (1.0, 1.0 + 2**-52), (-1e-300, 1e-300), (0.1, math.nextafter(0.1, 1.0)), (-5e-324, 5e-324)
    ],
    "zero width": [(0.5, 0.5), (-0.0, 0.0), (0.0, 0.0), (-2.0, 1.0)],
    "one axis": [(-3.5, -0.25)],
    "five axes": [(-1.0, 1.0), (-3.5, -0.25), (0.5, 0.5), (1e-3, 7.0), (-40.0, 2.0)],
    "one zero-width axis": [(-2.0, -2.0)],
}


@pytest.mark.parametrize("box", list(_SAMPLER_BOXES.values()), ids=list(_SAMPLER_BOXES))
def test_box_sampler_draws_what_uniform_draws(box):
    lows, highs = np.asarray(box, dtype=float).T
    draw = coverage._box_sampler(box, np.random.default_rng(11))
    rng = np.random.default_rng(11)
    dim = len(box)
    for shape in [(5, dim), (1, dim), (0, dim), (dim,), (1000, dim)]:
        assert draw(*shape).tobytes() == rng.uniform(lows, highs, size=shape).tobytes()


def _first_draw(sampler):
    try:
        return sampler().tobytes()
    except (OverflowError, ValueError) as error:
        return type(error), str(error)


@pytest.mark.parametrize("n", [0, 3])
@pytest.mark.parametrize(
    "box",
    [
        [(0.0, 1.0), (0.0, math.inf)],
        [(0.0, 1.0), (-1e308, 1e308)],  # a finite box whose width overflows
        [(math.nan, 1.0), (0.0, 1.0)],
        [(0.0, 1.0), (1.0, 0.5)],
        [(0.0, 1.0), (0.0, -0.0)],  # a width of -0.0
        [(2.0, 1.0), (0.0, math.inf)],  # reversed and infinite: the overflow is raised
    ],
    ids=["infinite", "overflowing", "nan", "reversed", "negative-zero", "reversed-infinite"],
)
def test_box_sampler_rejects_what_uniform_rejects(box, n):
    lows, highs = np.asarray(box, dtype=float).T
    with np.errstate(over="ignore", invalid="ignore"):
        expected = _first_draw(lambda: np.random.default_rng(0).uniform(lows, highs, size=(n, 2)))
        assert isinstance(expected, tuple)
        sampled = _first_draw(lambda: coverage._box_sampler(box, np.random.default_rng(0))(n, 2))
        assert sampled == expected


# ---------------------------------------------------------------------------
# necessity witnesses


def test_necessity_single_law(params):
    witness = necessity_witness([law_descriptor(1)], params=params)
    assert witness == (0.0, 0.0, 0.0, 1.0)
    assert abs(law_descriptor(1).coefficient_value(witness, params)) < 1e-9


def test_necessity_two_laws(params):
    laws = [law_descriptor(1), law_descriptor(2)]
    witness = necessity_witness(laws, params=params)
    assert witness is not None
    assert witness[0] * witness[3] == 0.0
    assert abs(math.cos(witness[2])) < 1e-9
    for law in laws:
        assert abs(law.coefficient_value(witness, params)) < 1e-9


def test_necessity_with_g_modified_law(params):
    laws = [law_descriptor(1), law_descriptor(3, g_modified=True)]
    witness = necessity_witness(laws, params=params)
    assert witness is not None
    for law in laws:
        assert abs(law.coefficient_value(witness, params)) < 1e-9


def test_necessity_every_strict_subset_has_a_witness(params):
    # the three state-dependent descriptors: laws 1, 2, and the g-modified
    # variant; every strict subset admits a common-failure state
    family = [law_descriptor(1), law_descriptor(2), law_descriptor(3, g_modified=True)]
    for mask in range(1, 7):  # proper nonempty subsets of a 3-element family
        subset = [law for i, law in enumerate(family) if mask & (1 << i)]
        witness = necessity_witness(subset, params=params)
        assert witness is not None, f"subset mask {mask}"
        for law in subset:
            assert abs(law.coefficient_value(witness, params)) < 1e-9


def test_necessity_none_for_nowhere_singular_family(params):
    # the shipped constant-coefficient law declares no singularity, so no
    # common-failure state can exist
    assert necessity_witness(table_laws(), params=params) is None
    assert necessity_witness([], params=params) is None


def test_necessity_is_deterministic(params):
    laws = [law_descriptor(1), law_descriptor(2)]
    assert necessity_witness(laws, params=params) == necessity_witness(laws, params=params)


def _reference_axes(factors, params):
    """Each coordinate's values: the candidates, then every non-coordinate factor's axis zeros.

    0 first, then largest magnitude first, positive before negative; each value once.
    """
    axes = []
    for i in range(1, 5):
        values = list(coverage._AXIS_CANDIDATES)
        axis = np.zeros(4)
        axis[i - 1] = 1.0
        for f in factors:
            if f.pinned_coordinate is None and i in expr.state_indices(f.field.expr):
                values += coverage._roots_along(f.field, np.zeros(4), axis, params, math.pi, 257)
        unique = [v for k, v in enumerate(values) if v not in values[:k]]
        axes.append(sorted(unique, key=lambda v: (v != 0, -abs(v), v < 0)))
    return axes


def _reference_witness(laws, params):
    """The point-by-point necessity search: product order, exact evaluation."""
    laws = list(laws)
    if not laws or any(not law.factors for law in laws):
        return None
    factors = []
    for law in laws:
        for f in law.factors:
            if all(f.field != c.field for c in factors):
                factors.append(f)
    pinnable = [f for f in factors if f.pinned_coordinate is not None]
    stages = [
        ({f.pinned_coordinate: 0.0}, [g for g in factors if g.field != f.field])
        for f in pinnable
    ]
    for size in range(2, len(pinnable) + 1):
        for combo in itertools.combinations(pinnable, size):
            pins = {f.pinned_coordinate: 0.0 for f in combo}
            if len(pins) == size:
                stages.append((pins, []))
    stages.append(({}, []))
    free = _reference_axes(factors, params)
    clearance = coverage.PURE_PART_CLEARANCE
    tol = coverage.NECESSITY_TOL
    for pins, clear in stages:
        axes = [(pins[i],) if i in pins else free[i - 1] for i in range(1, 5)]
        for point in itertools.product(*axes):
            at_point = Bindings(params, point)
            if any(abs(f.field.evaluate(at_point)) <= clearance for f in clear):
                continue
            if all(abs(law.coefficient_value(point, params)) < tol for law in laws):
                return point
    return None


_LAW_FAMILY = {
    "1": law_descriptor(1),
    "2": law_descriptor(2),
    "3": law_descriptor(3),
    "3g": law_descriptor(3, g_modified=True),
}
_SUBSETS = [
    names
    for size in range(1, len(_LAW_FAMILY) + 1)
    for names in itertools.combinations(_LAW_FAMILY, size)
]


@pytest.mark.parametrize("bg", [None, (0.5, 9.81), (0.9, 1.62)], ids=["benchmark", "B0.5", "B0.9"])
def test_necessity_matches_pointwise_reference(params, bg):
    if bg is not None:
        params = {"B": bg[0], "G": bg[1]}
    for names in _SUBSETS:
        laws = [_LAW_FAMILY[n] for n in names]
        assert necessity_witness(laws, params=params) == _reference_witness(
            laws, params=params
        ), names


def test_necessity_makes_no_exact_evaluations(params, monkeypatch):
    # the grids are evaluated in batches only; the exact evaluations are the root refinement's
    # on the x3 axis of cos(x3), the one factor of laws 1 and 2 that is not a coordinate
    calls, searching = [], []  # (inside _grid_search, node, bindings) per exact evaluation
    exact, grid_search = expr.evaluate, coverage._grid_search

    def counting(node, bindings):
        calls.append((bool(searching), node, bindings))
        return exact(node, bindings)

    def search(*args):
        searching.append(True)
        try:
            return grid_search(*args)
        finally:
            searching.pop()

    monkeypatch.setattr(expr, "evaluate", counting)
    monkeypatch.setattr(coverage, "_grid_search", search)
    witness = necessity_witness([law_descriptor(1), law_descriptor(2)], params=params)
    assert witness is not None
    assert not any(inside for inside, _, _ in calls)
    made, calls[:] = calls[:], []
    axis = np.array([0.0, 0.0, 1.0, 0.0])
    list(coverage._roots_along(F_COS.field, np.zeros(4), axis, params, math.pi, 257))
    assert made == calls and len(calls) == 8


def _probe_law(coefficient: str) -> LawDescriptor:
    field = parse(coefficient, 4)
    return LawDescriptor(
        law_id=9,
        name="probe",
        order=1,
        coefficient=field,
        offset=parse("0", 4),
        factors=(SingularityFactor(field, coefficient),),
        coordinates=(parse("x1", 4),),
    )


@pytest.mark.parametrize("text", ["(x1 - 0.5)*(x2 - 0.3)", "(x3 - 0.5)*(x4 - 0.2)"])
def test_necessity_first_hit_follows_product_order(params, text):
    # the coefficient vanishes on two grid hyperplanes; which one is hit
    # first depends on the order in which the grid is walked
    laws = [_probe_law(text)]
    expected = _reference_witness(laws, params=params)
    assert expected is not None
    assert necessity_witness(laws, params=params) == expected


@pytest.mark.parametrize(
    "text, witness",
    [
        ("x3 - 0.33", (0.0, 0.0, 0.33, 0.0)),  # off every candidate: no witness before
        ("cos(x3) - sin(x3)", (0.0, 0.0, -3 * math.pi / 4, 0.0)),  # -3pi/4 ranks before pi/4
    ],
)
def test_necessity_searches_a_declared_factors_axis_zeros(params, text, witness):
    assert necessity_witness([_probe_law(text)], params=params) == witness


_ZERO, _HALF_PI = "0x0.0p+0", "0x1.921fb54442d18p+0"
_AT_BEAM_VERTICAL = (_ZERO, _ZERO, _HALF_PI, _ZERO)
#: the parent search's witnesses, as float.hex, the same at every (B, G) tested
_WITNESS_HEX = {
    ("1",): (_ZERO, _ZERO, _ZERO, "0x1.0000000000000p+0"),
    ("2",): _AT_BEAM_VERTICAL,
    ("3g",): _AT_BEAM_VERTICAL,
    ("1", "2"): _AT_BEAM_VERTICAL,
    ("1", "3g"): _AT_BEAM_VERTICAL,
    ("2", "3g"): _AT_BEAM_VERTICAL,
    ("1", "2", "3g"): _AT_BEAM_VERTICAL,
}


@pytest.mark.parametrize(
    "bg", [None, (0.5, 9.81), (0.9, 1.62)], ids=["benchmark", "B0.5", "B0.9"]
)
def test_necessity_witnesses_are_bit_identical_to_the_recorded_ones(params, bg):
    if bg is not None:
        params = {"B": bg[0], "G": bg[1]}
    for names in _SUBSETS:  # every subset with law 3 has none: it declares no factor
        witness = necessity_witness([_LAW_FAMILY[n] for n in names], params=params)
        found = None if witness is None else tuple(v.hex() for v in witness)
        assert found == _WITNESS_HEX.get(names), names


@pytest.mark.parametrize("g", [0.0, -0.0], ids=["+0", "-0"])
@pytest.mark.parametrize(
    "names, witness",
    [(("1", "3g"), (0.0, 0.0, 0.0, 0.0)), (("2", "3g"), (0.0, 0.0, 0.0, 0.0)),
     (("1", "2"), (0.0, 0.0, 0.0, 1.0))],
)
def test_necessity_without_gravity_is_quick_and_unchanged(params, g, names, witness):
    # at G = 0 law 3g's factor vanishes along whole axes: those lines add no axis values
    start = time.perf_counter()
    found = necessity_witness([_LAW_FAMILY[n] for n in names], {"B": params["B"], "G": g})
    assert time.perf_counter() - start < 1.0
    assert [v.hex() for v in found] == [v.hex() for v in witness]


def test_grid_search_nan_is_neither_clear_nor_a_witness(params):
    # with x1 pinned to 0, x2/x1 is nan where x2 = 0 and +-inf elsewhere
    ratio = SingularityFactor(parse("x2/x1", 4), "x2/x1")
    axes = [(0.0,), *[coverage._AXIS_CANDIDATES] * 3]
    # nan rows are not witnesses, inf rows are not witnesses either
    assert coverage._grid_search(axes, [_probe_law("x2/x1")], (), params) is None
    # nan rows (x2 = 0) are not clear; inf rows are, so the first hit skips x2 = 0
    hit = coverage._grid_search(axes, [_probe_law("x3")], (ratio,), params)
    assert hit == (0.0, 1.0, 0.0, 0.0)
    # law x2 vanishes only on the nan rows, which are never clear
    assert coverage._grid_search(axes, [_probe_law("x2")], (ratio,), params) is None


@pytest.mark.parametrize("text", ["1/x1 - 2", "x1/x1 + x1 - 2"])
def test_solve_on_line_drops_a_line_with_non_finite_values(params, text):
    # the scan passes through x1 = 0, where the field is inf or nan; the
    # finite root at x1 = 0.5 or 1 is not used
    base = np.array([0.0, 0.3, 0.2, 0.1])
    direction = np.array([1.0, 0.0, 0.0, 0.0])
    field = parse(text, 4)
    assert list(coverage._roots_along(field, base, direction, params, 8.0, 161)) == []
    shifted = base + np.array([0.05, 0.0, 0.0, 0.0])  # scan misses x1 = 0
    assert list(coverage._roots_along(field, shifted, direction, params, 8.0, 161)) != []


def test_roots_along_yields_nothing_on_a_line_inside_the_zero_set(params):
    # every scan value is 0, so no scan point stands for a root of its own
    base, product = np.array([0.0, 0.3, 0.2, 0.1]), parse("x1*x2", 4)
    for direction in np.eye(4)[1:]:
        assert list(coverage._roots_along(product, base, direction, params, 8.0, 161)) == []
    law3g, no_gravity = parse("2*B*x2*x4 - B*G*cos(x3)", 4), {"B": 0.5, "G": 0.0}
    along_x2 = coverage._roots_along(law3g, np.zeros(4), np.eye(4)[1], no_gravity, math.pi, 257)
    assert list(along_x2) == []


def test_roots_along_drops_the_poles_a_scan_straddles(params):
    # the values change sign across the pole at x1 = 0 (t = -0.05); the
    # point refined there is larger than its bracket's ends, or not finite
    base = np.array([0.05, 0.3, 0.2, 0.1])
    direction = np.array([1.0, 0.0, 0.0, 0.0])
    with np.errstate(over="ignore"):
        for text, root in [("1/x1 - 2", 0.45), ("1e300/x1 - 1e300", 0.95)]:
            roots = list(coverage._roots_along(parse(text, 4), base, direction, params, 8.0, 161))
            assert roots == [pytest.approx(root, abs=1e-15)]
    # every probe on the zero set x3 = 0.55, none on the pole x3 = 0.05
    pole = parse("1/(x3 - 0.05) - 2", 4)
    probes = coverage._factor_probes([SingularityFactor(pole, str(pole))], 4)
    assert len(probes) == 27
    assert np.all(np.abs(probes[:, 2] - 0.55) < 1e-15)


def test_roots_along_drops_a_pole_within_rounding_of_a_scan_point(params):
    # the scan point t = -0.05 sits within rounding of the pole at x1 = 0, so
    # one end of the bracket that straddles it is itself about 1.4e16
    base = np.array([0.05, 0.3, 0.2, 0.1])
    direction = np.array([1.0, 0.0, 0.0, 0.0])
    roots = list(coverage._roots_along(parse("1/x1 - 2", 4), base, direction, params, 1.0, 161))
    assert [t.hex() for t in roots] == [(0.4500000000000002).hex()]


@pytest.mark.parametrize(
    "text, roots",
    [
        ("1e300/x1 - 1e300", [0.95]),
        ("(1e100/x1)^3 - 1", []),  # a power past the float range
    ],
)
def test_roots_along_overflow_near_a_pole_gives_no_warnings(params, text, roots):
    # near the pole at x1 = 0 the values overflow to +-inf, silently
    base = np.array([0.05, 0.3, 0.2, 0.1])
    direction = np.array([1.0, 0.0, 0.0, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        found = list(coverage._roots_along(parse(text, 4), base, direction, params, 1.0, 160))
    assert [t.hex() for t in found] == [t.hex() for t in roots]


def _axis_roots(text):
    axis = np.array([0.0, 0.0, 1.0, 0.0])
    return list(coverage._roots_along(parse(text, 4), np.zeros(4), axis, {}, math.pi, 257))


def test_axis_roots_without_finite_scan_or_bound_parameters():
    assert _axis_roots("1/x3 - 2") == []
    assert _axis_roots("x3/x3 - x3 - 0.5") == []
    with pytest.raises(EvaluationError):
        _axis_roots("cos(x3) - B")
    assert _axis_roots("cos(x3)") == [-math.pi / 2, math.pi / 2]
    parameterised = SingularityFactor(parse("cos(x3) - B", 4), "cos(x3) - B")
    assert coverage._factor_probes([parameterised], 4).shape == (0, 4)
    assert len(coverage._factor_probes([parameterised, F_COS], 4)) == 2 * 27


def _exact_rows(self, params, states):
    states = np.asarray(states, dtype=float)
    return np.array([self.evaluate(Bindings(params, tuple(row))) for row in states])


def test_vectorised_scans_match_exact_scans(params, monkeypatch):
    law12 = [f for n in (1, 2) for f in law_descriptor(n).factors]
    law3g = list(law_descriptor(3, g_modified=True).factors)
    cases = [(index, law12) for index in (1, 2, 3)] + [(1, law3g)]
    shipped = [
        [f for law in table_laws() for f in law.factors],
        law12 + law3g,
    ]

    def run():
        samples = [
            pure_part_sample(index, factors, BOX, 20, params, seed=seed).tobytes()
            for index, factors in cases
            for seed in (0, 1, 2)
        ]
        probes = [coverage._factor_probes(factors, 4).tobytes() for factors in shipped]
        return samples, probes

    vectorised = run()
    monkeypatch.setattr(ScalarField, "evaluate_many", _exact_rows)
    assert run() == vectorised


# ---------------------------------------------------------------------------
# Brent's method against scipy's brentq

XTOL, RTOL = 1e-15, 8.9e-16  # the tolerances _roots_along refines with


def _refine(solver, f, a, b, **options):
    """The root as float.hex, or the exception type: what the two must share."""
    try:
        return float(solver(f, a, b, xtol=XTOL, rtol=RTOL, **options)).hex()
    except (ValueError, RuntimeError) as error:
        return type(error)


def _line(field, base, direction, params):
    return lambda t: field.evaluate(Bindings(params, tuple(base + t * direction)))


def _seeded_brackets(f, rng, count, low, high):
    brackets = []
    for _ in range(100 * count):
        a, b = sorted(rng.uniform(low, high, size=2).tolist())
        if (f(a) < 0 < f(b)) or (f(b) < 0 < f(a)):  # a product of subnormals underflows
            brackets.append((f, a, b))
            if len(brackets) == count:
                return brackets
    raise AssertionError(f"no {count} sign-changing brackets in [{low}, {high}]")


def test_brent_matches_brentq_bit_for_bit(params):
    brentq = pytest.importorskip("scipy.optimize").brentq
    rng = np.random.default_rng(47)
    cases = []
    for _ in range(25):
        c, r1, r2, r3 = rng.uniform(-0.9, 0.9), *rng.uniform(-3.0, 3.0, size=3)
        base, direction = rng.uniform(-1.0, 1.0, size=4), rng.normal(size=4)
        direction[2] = 1.0  # x3 sweeps past a zero of cos(x3) within the span
        line = _line(F_COS.field, base, direction / np.linalg.norm(direction), params)
        functions = [
            (lambda t, c=c: math.cos(t) - c, -4.0, 4.0),
            (lambda t, r=(r1, r2, r3): (t - r[0]) * (t - r[1]) * (t - r[2]), -4.0, 4.0),
            (lambda t, c=c: math.exp(t) - 2.0 - c, -3.0, 3.0),
            (line, -8.0, 8.0),
            # values in the subnormal range, where an extrapolation slope can underflow
            (lambda t, r=r1: 1e-320 * (t - r) * (1.0 + (t - r) ** 2), -4.0, 4.0),
        ]
        for f, low, high in functions:
            cases += _seeded_brackets(f, rng, 10, low, high)
    # the pole bracket of test_solve_on_line_drops_a_line_with_non_finite_values
    pole = _line(parse("1/x1 - 2", 4), np.array([0.05, 0.3, 0.2, 0.1]), np.eye(4)[0], params)
    cases += [(pole, -0.1, 0.0), (pole, 0.4, 0.5)]
    assert len(cases) >= 1000 + 2
    results = [_refine(coverage._brent, f, a, b) for f, a, b in cases]
    assert results == [_refine(brentq, f, a, b) for f, a, b in cases]
    assert all(isinstance(r, str) for r in results)


@pytest.mark.parametrize(
    "f, a, b, options",
    [
        (math.sin, 0.0, 1.0, {}),  # exact zero at a
        (math.sin, -1.0, -0.0, {}),  # exact zero at b, with its sign kept
        (math.cos, 0.0, 1.0, {}),  # one sign at both ends
        (lambda t: -math.cos(t) if t else -0.0, -0.0, 2.0, {}),  # -0.0 counts as zero first
        (lambda t: math.nan if t > 1.0 else t - 1.5, 0.0, 2.0, {}),  # NaN value
        (lambda t: math.cos(t) - 0.3, 0.0, 3.0, {"maxiter": 2}),  # iterations exhausted
        (lambda t: t - 0.5, 0.0, 1.0, {"maxiter": 0}),
    ],
    ids=["zero-at-a", "zero-at-b", "same-sign", "negative-zero-at-a", "nan", "maxiter", "no-iter"],
)
def test_brent_matches_brentq_at_the_edges(f, a, b, options):
    brentq = pytest.importorskip("scipy.optimize").brentq
    assert _refine(coverage._brent, f, a, b, **options) == _refine(brentq, f, a, b, **options)


def test_brent_edge_outcomes():
    # the same cases, pinned without scipy
    assert coverage._brent(math.sin, 0.0, 1.0, XTOL, RTOL).hex() == "0x0.0p+0"
    assert coverage._brent(math.sin, -1.0, -0.0, XTOL, RTOL).hex() == "-0x0.0p+0"
    with pytest.raises(ValueError, match="different signs"):
        coverage._brent(math.cos, 0.0, 1.0, XTOL, RTOL)
    with pytest.raises(ValueError, match="NaN"):
        coverage._brent(lambda t: math.nan if t > 1.0 else t - 1.5, 0.0, 2.0, XTOL, RTOL)
    with pytest.raises(RuntimeError, match="after 2 iterations"):
        coverage._brent(lambda t: math.cos(t) - 0.3, 0.0, 3.0, XTOL, RTOL, maxiter=2)
    root = coverage._brent(lambda t: math.cos(t) - 0.3, 0.0, 3.0, XTOL, RTOL)
    assert abs(root - math.acos(0.3)) <= 2 * (XTOL + RTOL * abs(root))


# ---------------------------------------------------------------------------
# transversality report


def test_transversality_full_rank_on_joint_singularity(params):
    records = transversality_report(
        law_descriptor(1).factors,
        law_descriptor(2).factors,
        [(0.0, 1.0, math.pi / 2, 0.0)],
        params,
    )
    assert records[0].rank == 3


def test_transversality_identical_factors(params):
    records = transversality_report((F_X1,), (F_X1,), [(0.0, 0.0, 0.0, 0.0)], params)
    assert records[0].rank == 1


def test_transversality_independent_coordinates(params):
    records = transversality_report((F_X1,), (F_X4,), [(0.0, 0.0, 0.0, 0.0)], params)
    assert records[0].rank == 2


def test_transversality_many_points(params, rng):
    points = []
    for k in range(20):
        side = k % 2
        x3 = math.pi / 2 if k % 3 else -math.pi / 2
        point = [0.0, float(rng.uniform(-1, 1)), x3, 0.0]
        point[0 if side else 3] = float(rng.uniform(0.2, 1.0))
        points.append(tuple(point))
    fa, fb = law_descriptor(1).factors, law_descriptor(2).factors
    records = transversality_report(fa, fb, points, params)
    assert all(record.rank == 3 for record in records)
    assert records == _pointwise_transversality(fa, fb, points, params)


def _pointwise_transversality(factors_a, factors_b, points, params):
    """The reference: each point's differentials evaluated exactly and ranked alone."""
    gradients = [f.field.gradient() for f in [*factors_a, *factors_b]]
    records = []
    for point in points:
        at_point = Bindings(params, tuple(point))
        rows = [[component.evaluate(at_point) for component in g] for g in gradients]
        records.append(coverage.TransversalityRecord(
            point=tuple(float(v) for v in point), rank=transversality_rank(rows)
        ))
    return tuple(records)


def _analysis_points(seed, count=100):
    """The points perfbench's ``analysis`` workload ranks at a seed, by pair of laws."""
    rng = np.random.default_rng(seed)
    signs = rng.choice([-1.0, 1.0], size=(2, count))
    free = rng.uniform(-1.0, 1.0, size=(2, count))
    beam_rate = signs[1] * rng.uniform(0.1, 1.0, count)
    half_pi = signs[0] * (math.pi / 2)
    return {
        ("1", "2"): [(0.0, x2, x3, 0.0) for x2, x3 in zip(free[0], half_pi)],
        ("2", "3g"): [(x1, 0.0, x3, x4) for x1, x3, x4 in zip(free[1], half_pi, beam_rate)],
    }


def _seeded_points(count=200):
    # every third point on x3 = +-pi/2, where cos(x3) and law 3g's factor vanish
    points = np.random.default_rng(23).uniform(-2.0, 2.0, size=(count, 4))
    points[::3, 2] = np.where(np.arange(0, count, 3) % 2, math.pi / 2, -math.pi / 2)
    return [tuple(point) for point in points.tolist()]


def _transversality_cases():
    cases = {f"analysis {a},{b}": ((a, b), points) for (a, b), points in _analysis_points(0).items()}
    for a, b in [("1", "2"), ("2", "3g"), ("1", "3g")]:
        cases[f"seeded {a},{b}"] = ((a, b), _seeded_points())
    cases["joint singularity"] = (("1", "2"), [(0.0, 1.0, math.pi / 2, 0.0)])
    cases["integer point"] = (("1", "2"), [(0.5, 0, 1, 0)])
    return cases


@pytest.mark.parametrize("case", list(_transversality_cases()))
def test_transversality_batched_ranks_match_exact_rows(params, case):
    (a, b), points = _transversality_cases()[case]
    fa, fb = _LAW_TOKENS[a]().factors, _LAW_TOKENS[b]().factors
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        records = transversality_report(fa, fb, points, params)
    assert records == _pointwise_transversality(fa, fb, points, params)
    assert all(type(record.rank) is int for record in records)


@pytest.mark.parametrize(
    "factors_a, factors_b", [((F_X1,), (F_X1,)), ((F_X1,), (F_X4,)), ((), ()), ((F_COS,), ())]
)
def test_transversality_batched_ranks_match_exact_rows_at_the_origin(params, factors_a, factors_b):
    points = [(0.0, 0.0, 0.0, 0.0), (0, 0, 0, 0), (0.0, 1.0, math.pi / 2, 0.0)]
    records = transversality_report(factors_a, factors_b, points, params)
    assert records == _pointwise_transversality(factors_a, factors_b, points, params)


def _factor(text):
    return SingularityFactor(parse(text, 4), text)


def _raised(error, report, *args):
    with pytest.raises(error) as raised:
        report(*args)
    return str(raised.value)


@pytest.mark.parametrize(
    "factors, points, params, error",
    [
        # d(1/x1) divides by zero at x1 = 0, the second point
        (("1/x1", "x2"), [(1.0, 0, 0, 0), (0.0, 0, 0, 0), (2.0, 0, 0, 0)], {}, EvaluationError),
        # an unbound parameter at the first point, before the division by zero at the second
        (("1/x1", "B*x2"), [(1.0, 0, 0, 0), (0.0, 0, 0, 0)], {}, EvaluationError),
        # the division by zero at the first point comes before the unbound parameter
        (("1/x1", "B*x2"), [(0.0, 0, 0, 0), (1.0, 0, 0, 0)], {}, EvaluationError),
        # 2 x1 overflows at the second point: no numeric rank
        (("x1*x1", "x2"), [(1.0, 0, 0, 0), (1e308, 0, 0, 0)], {}, ValueError),
    ],
)
def test_transversality_raises_what_a_pointwise_loop_raises(factors, points, params, error):
    fa, fb = (_factor(factors[0]),), (_factor(factors[1]),)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        message = _raised(error, transversality_report, fa, fb, points, params)
    assert message == _raised(error, _pointwise_transversality, fa, fb, points, params)


def test_transversality_of_no_points_is_empty(params):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert transversality_report((F_X1,), (F_COS,), [], params) == ()
        assert transversality_report((_factor("B*x1"),), (), iter([]), {}) == ()


def test_transversality_reuses_each_fields_gradient_kernels(params, monkeypatch):
    import pickle

    factors_a, factors_b = law_descriptor(2).factors, law_descriptor(3, g_modified=True).factors
    points = [(x1, 0.0, math.pi / 2, x4) for x1, x4 in [(0.3, 0.5), (-0.7, 0.1)]]
    first = transversality_report(factors_a, factors_b, points, params)
    emits = []
    emit = expr._emit
    monkeypatch.setattr(expr, "_emit", lambda *args: emits.append(args) or emit(*args))
    assert transversality_report(factors_a, factors_b, points, params) == first
    assert emits == []
    for factor in (*factors_a, *factors_b):
        copy = pickle.loads(pickle.dumps(factor))
        assert copy == factor
        trees = [copy.field.expr, *(g.expr for g in copy.field.gradient())]
        assert not any("_kernels" in vars(node) for tree in trees for node in expr._nodes(tree))


# ---------------------------------------------------------------------------
# gradient sanity for declared factors


def test_factor_gradients_nonzero_on_zero_sets(params, rng):
    for factor, sampler_index, factors in (
        (F_X1, 1, (F_X1, F_X4)),
        (F_X4, 2, (F_X1, F_X4)),
    ):
        points = pure_part_sample(sampler_index, factors, BOX, 20, params, seed=9)
        gradient = factor.field.gradient()
        for point in points:
            at_point = Bindings(params, tuple(point))
            row = [g.evaluate(at_point) for g in gradient]
            assert np.linalg.norm(row) > 0.5
