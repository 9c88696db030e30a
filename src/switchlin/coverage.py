"""Coverage and necessity analysis for families of control laws.

A control coefficient with the factored form a(x) = c(x) phi_1(x) ...
phi_k(x), c nonvanishing, has a singularity set that is the union of the
factor zero sets S_i = {phi_i = 0}.  This module provides the numeric
evidence machinery around that structure:

* ``factor_check`` estimates the cofactor c(x) = a(x) / prod phi_i(x) by
  sampling and reports its spread, so a wrong or non-minimal factor list
  shows up as a large residual;
* ``pure_part_sample`` draws points from one component's pure part
  X_i = S_i minus the other components, where exactly one factor is zero;
* ``coverage_check`` samples a box (plus deterministic probes placed on each component and
  each pairwise intersection) and reports every state at which no supplied law is valid; no
  sample is tested on a factor that interval arithmetic (``expr.bounds``) proves nonzero, and
  a block where some law is then left no factor is only counted, never scanned for witnesses;
* one line-root finder serves the pure parts, the probes and the necessity search: a factor
  that is not a bare coordinate is solved along a random line (pure parts) or along an axis
  through the origin (``_axis_zeros``: the probes, and the necessity grid's free axes) by a
  vectorised scan refined by ``_brent``;
* ``necessity_witness`` deterministically searches the declared singularity sets for a state
  where every supplied law's coefficient vanishes, demonstrating that the given subset of
  laws cannot cover the state space; a free axis holds fixed candidates and the declared
  factors' zeros on it, each stage of the search is one grid evaluated as a vectorised batch,
  and the first hit in ``itertools.product`` order is returned;
* ``transversality_report`` stacks factor differentials, evaluated over all
  points at once, and reports their ranks from one batched SVD.

Validity is margin-based: a law covers a state when every declared factor
exceeds the margin in magnitude.  Because zeros of transcendental factors
(e.g. cos x3 at x3 = pi/2) are only representable to rounding error,
magnitudes at or below ``ZERO_FLOOR`` count as zero even at margin 0.

All sampling is seeded and all searches are grid-based, so every function
here is deterministic.  Searches and scans use the vectorised
``evaluate_many``, where a vanishing denominator gives inf or nan rather
than an error (``coverage_check`` does its operations in one generated
kernel); exact ``evaluate`` refines roots and accepts sampled points.
"""

from __future__ import annotations

import itertools
import math
import threading
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .controllers import LawDescriptor
from .expr import Bindings, EvaluationError, Real, ScalarField, _bind, _compile, _emit, bounds
from .expr import format_number as _fmt, format_vector as _fmt_vec, state_indices
from .geometry import SingularityFactor, matrix_rank, transversality_rank

__all__ = [
    "CoverageReport",
    "FactorCheck",
    "SamplingError",
    "TransversalityRecord",
    "Witness",
    "coverage_check",
    "factor_check",
    "necessity_witness",
    "pure_part_sample",
    "transversality_report",
]

#: magnitudes at or below this count as an exact zero in validity checks
ZERO_FLOOR = 1e-12

#: clearance required from the other components when sampling a pure part
PURE_PART_CLEARANCE = 0.1

#: coefficient magnitude below which a law counts as failed in the
#: necessity search
NECESSITY_TOL = 1e-9

Box = Sequence[tuple[float, float]]


class SamplingError(RuntimeError):
    """A sampling routine could not find enough admissible points."""


def _box_scaler(box: Box) -> Callable[..., np.ndarray]:
    """``scale(out, columns=all)``: ``rng.random`` draws, scaled in place as ``uniform`` scales.

    Each element u becomes low + (high - low) * u by ``uniform``'s multiply and add, whichever
    call scales it: a 2-D ``out`` a listed column at a time (numpy's inner loop then runs down
    the rows), a point at once.  The box is checked first, as ``uniform`` checks it.
    """
    lows, highs = np.asarray(box, dtype=float).T
    widths = highs - lows
    if not np.all(np.isfinite(widths)):
        raise OverflowError("Range exceeds valid bounds")
    if np.any(np.signbit(widths)):  # a width of -0.0 counts as negative, as in uniform
        raise ValueError("high - low < 0")

    def scale(out: np.ndarray, columns: Iterable[int] = range(len(lows))) -> np.ndarray:
        for column, i in [(out[:, i], i) for i in columns] if out.ndim == 2 else [(out, ...)]:
            column *= widths[i]
            column += lows[i]
        return out

    return scale


def _box_sampler(box: Box, rng: np.random.Generator) -> Callable[..., np.ndarray]:
    """``draw(*shape)``: the floats ``rng.uniform(lows, highs, shape)`` draws for the box."""
    scale = _box_scaler(box)
    return lambda *shape: scale(rng.random(shape))


def _stream_from(rng: np.random.Generator, skip: int) -> np.random.Generator:
    """A generator whose draws are ``rng``'s after its next ``skip`` doubles; ``rng`` is kept.

    ``rng``'s PCG64 state is copied and advanced in O(log skip) steps, and
    ``Generator.random`` takes one 64-bit output per double.
    """
    bits = np.random.PCG64()
    bits.state = rng.bit_generator.state
    bits.advance(skip)
    return np.random.Generator(bits)


# ---------------------------------------------------------------------------
# factorisation check


@dataclass(frozen=True)
class FactorCheck:
    """Cofactor estimate for a(x) = c(x) prod phi_i(x) over sampled points."""

    constant_estimate: float
    max_relative_residual: float
    samples: int


def factor_check(
    a: ScalarField,
    factors: Sequence[SingularityFactor],
    box: Box,
    n: int,
    params: Mapping[str, Real],
    seed: int = 0,
) -> FactorCheck:
    """Estimate c(x) = a(x) / prod phi_i(x) at n sampled points.

    Points too close to any factor's zero set are resampled (the quotient
    is ill-conditioned there).  The residual is the largest relative
    deviation of the pointwise quotients from their median; a residual far
    from zero means the quotient is not constant, i.e. the factor list
    does not exhaust the coefficient's state dependence.
    """
    if n < 1:
        raise ValueError("need at least one sample")
    if not factors:
        raise ValueError("need at least one factor")
    draw = _box_sampler(box, np.random.default_rng(seed))
    quotients: list[np.ndarray] = []
    accepted = 0
    attempts = 0
    while accepted < n:
        attempts += 1
        if attempts > 100:
            raise SamplingError(
                f"could not find {n} points clear of the factor zero sets"
            )
        batch = draw(max(n, 1024), len(box))
        factor_values = [f.field.evaluate_many(params, batch) for f in factors]
        keep = np.min(np.abs(np.column_stack(factor_values)), axis=1) > 1e-8
        batch = batch[keep]
        if batch.size == 0:
            continue
        product = np.ones(len(batch))
        for v in factor_values:
            product *= v[keep]
        quotients.append(a.evaluate_many(params, batch) / product)
        accepted += len(batch)
    values = np.concatenate(quotients)[:n]
    c = float(np.median(values))
    residual = float(np.max(np.abs(values - c)) / max(abs(c), 1e-300))
    return FactorCheck(constant_estimate=c, max_relative_residual=residual, samples=n)


# ---------------------------------------------------------------------------
# pure parts


def pure_part_sample(
    index: int,
    factors: Sequence[SingularityFactor],
    box: Box,
    n: int,
    params: Mapping[str, Real],
    seed: int = 0,
) -> np.ndarray:
    """n points on the pure part X_index: phi_index = 0, |phi_j| > PURE_PART_CLEARANCE.

    ``index`` is 1-based.  Coordinate factors are pinned to zero exactly;
    any other factor is solved to rounding error along a random line
    through the sampled point.  Raises SamplingError when 100 n attempts
    do not produce n admissible points.
    """
    if n < 1:
        raise ValueError("need at least one sample")
    if not 1 <= index <= len(factors):
        raise ValueError(f"factor index {index} out of range 1..{len(factors)}")
    target = factors[index - 1]
    others = [f for i, f in enumerate(factors, start=1) if i != index]
    rng = np.random.default_rng(seed)
    draw = _box_sampler(box, rng)
    dim = len(box)
    points = []
    attempts = 0
    while len(points) < n:
        attempts += 1
        if attempts > 100 * n:
            raise SamplingError(
                f"could not place {n} points on the pure part of "
                f"{target.label!r} within {100 * n} attempts"
            )
        point = draw(dim)
        pinned = target.pinned_coordinate
        if pinned is not None:
            point[pinned - 1] = 0.0
        else:
            direction = rng.normal(size=dim)
            norm = np.linalg.norm(direction)
            if norm == 0:
                continue
            direction = direction / norm
            t = next(_roots_along(target.field, point, direction, params, 8.0, 161), None)
            if t is None:
                continue
            point = point + t * direction
        at_point = Bindings(params, tuple(point))
        if abs(target.field.evaluate(at_point)) > ZERO_FLOOR:
            continue
        if all(abs(f.field.evaluate(at_point)) > PURE_PART_CLEARANCE for f in others):
            points.append(point)
    return np.array(points)


def _roots_along(
    field: ScalarField,
    base: np.ndarray,
    direction: np.ndarray,
    params: Mapping[str, Real],
    span: float,
    samples: int,
) -> Iterator[float]:
    """Roots t of field along base + t * direction, t in [-span, span], in order.

    The scan is one vectorised evaluation; each sign change is refined by
    Brent's method (``_brent``) with exact evaluation, numpy warnings
    silenced, and an exact zero at a scan point is yielded as is.  A
    refined point whose exact value is non-finite or larger in magnitude
    than either end of its bracket (a scan point within rounding of a pole
    is itself huge) is a pole the sign change straddled, not a root, and is
    dropped.  A non-finite scan value (a vanishing denominator on the line)
    never brackets a root: the whole line yields nothing, and nor does a line inside the zero
    set, where every scan value is 0.  An unbound parameter raises EvaluationError on the
    first ``next``.
    """

    def along(t: float) -> float:
        with np.errstate(all="ignore"):  # overflow near a pole reads as +-inf
            return field.evaluate(Bindings(params, tuple(base + t * direction)))

    ts = np.linspace(-span, span, samples)
    values = field.evaluate_many(params, base + ts[:, None] * direction)
    if not np.all(np.isfinite(values)) or not values.any():
        return
    ts, values = ts.tolist(), values.tolist()
    for left, right, f_left, f_right in zip(ts, ts[1:], values, values[1:]):
        if f_left == 0.0:
            yield left
        elif f_left * f_right < 0:
            t = _brent(along, left, right, xtol=1e-15, rtol=8.9e-16)
            if abs(along(t)) <= min(abs(f_left), abs(f_right)):  # False for inf and NaN
                yield t
    if values[-1] == 0.0:
        yield ts[-1]


def _brent(
    f: Callable[[float], float], a: float, b: float, xtol: float, rtol: float, maxiter: int = 100
) -> float:
    """Root of f in [a, b] by Brent's method (Brent 1973, ch. 4).

    The iteration of ``brentq.c`` behind SciPy's ``optimize.brentq``, with
    the same float operations in the same order, so its roots agree bit for
    bit: f is called with Python floats and its value read with ``float``;
    an endpoint with an exact zero value is returned at once; endpoint
    values of one sign (by ``copysign``, so -0.0 is negative), or a NaN
    value, raise ValueError; ``maxiter`` iterations without convergence
    raise RuntimeError.
    """

    def value(x: float) -> float:
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"the function value at x={x} is NaN")
        return fx

    xpre, xcur = float(a), float(b)
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:  # an underflowed slope: C's inf or nan, which bisects
                stry = math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise RuntimeError(f"failed to converge after {maxiter} iterations, value is {xcur}")


# ---------------------------------------------------------------------------
# coverage check


@dataclass(frozen=True)
class Witness:
    """A state at which every supplied law's validity margin failed."""

    state: tuple[float, ...]
    coefficients: tuple[tuple[str, float], ...]  # (law name, coefficient value)


@dataclass(frozen=True)
class CoverageReport:
    sample_count: int
    probe_count: int
    margin: float
    witnesses: tuple[Witness, ...]
    witness_total: int
    law_fractions: tuple[tuple[str, float], ...]

    @property
    def complete(self) -> bool:
        return self.witness_total == 0

    def report_text(self) -> str:
        lines = [
            f"samples: {self.sample_count} (+ {self.probe_count} deterministic probes)",
            f"margin: {_fmt(self.margin)}",
        ]
        for name, fraction in self.law_fractions:
            lines.append(f"covered fraction, {name}: {_fmt(fraction)}")
        lines.append(f"witnesses: {self.witness_total}")
        if self.complete:
            lines.append("coverage complete")
        else:
            lines.append("coverage INCOMPLETE")
            for witness in self.witnesses[:10]:
                coeffs = ", ".join(f"{n}={_fmt(v)}" for n, v in witness.coefficients)
                lines.append(f"  witness {_fmt_vec(witness.state)}  [{coeffs}]")
            if self.witness_total > 10:
                lines.append(f"  ... {self.witness_total - 10} more")
        return "\n".join(lines) + "\n"

    def witnesses_csv(self) -> str:
        lines = ["x1,x2,x3,x4,failed_laws"]
        for witness in self.witnesses:
            failed = ";".join(name for name, _ in witness.coefficients)
            lines.append(
                ",".join(_fmt(v) for v in witness.state) + f",{failed}"
            )
        return "\n".join(lines) + "\n"


#: grid for the free coordinates of deterministic probes
_PROBE_GRID = (0.0, 1.0, -1.0)

#: cap on stored witnesses (the total is always reported exactly)
_WITNESS_CAP = 10_000

#: sample rows in flight at a time, which bounds memory: two threads each draw
#: and evaluate half of it per block; ``analysis`` timings of one thread were
#: about flat from 2^14 to 2^16 rows
_BLOCK_ROWS = 1 << 15


def coverage_check(
    laws: Sequence[LawDescriptor],
    box: Box,
    n: int,
    margin: float,
    params: Mapping[str, Real],
    seed: int = 0,
) -> CoverageReport:
    """Sample the box and probe the declared singularity sets for coverage gaps.

    A law covers a state when all of its declared factors exceed
    max(margin, ZERO_FLOOR) in magnitude; a law with no factors covers
    every state.  Witnesses are states covered by no law.  Probes are
    placed on every component and every pairwise intersection of the
    supplied laws' factors, so gaps of measure zero are found even though
    random samples almost never land on them.

    Samples are tallied by a ``_mask_kernel`` of each law's factors but those ``expr.bounds``
    proves exceed the threshold in magnitude on the box (``_needed``), scaling only the columns
    it reads (a stored witness is scaled in full: the row ``uniform`` draws); the probes, which
    may lie outside the box, by the kernel of every factor.  A factor left out cannot overflow,
    divide by zero or give NaN on the box, but an underflow in it no longer reaches a caller's
    ``np.errstate(under=...)``.  Where a kernel gives some law the constant True (no factor to
    test), no row is a witness: ``_tally`` only counts that block, or the probes.  Both kernels
    are built before the helper starts, so their errors, and the helper's, are raised here; the
    helper is always joined.  Each stored witness's coefficients are computed by
    ``evaluate_many``, one call per law.

    The n samples are split at a block boundary into two contiguous halves.
    The calling thread draws and evaluates the first, and one helper thread
    the second, each ``_BLOCK_ROWS // 2`` rows at a time, so the rows in
    flight and the memory bound are those of one ``_BLOCK_ROWS`` block.
    Each half draws its own rows of the one seeded PCG64 stream: the helper
    draws from a copy of the generator advanced past the first half (one
    64-bit output per double).  The halves are merged in row order and the
    probes tallied last, so the result is that of one draw of all n.
    """
    if not 0 <= margin < math.inf:  # NaN and inf would cover nothing
        raise ValueError(f"margin must be a non-negative number, got {margin!r}")
    if n < 0:
        raise ValueError("sample count must be non-negative")
    if seed is not None and seed < 0:  # numpy's own message names neither option nor value
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    dim = len(box)
    rng = np.random.default_rng(seed)
    scale = _box_scaler(box)
    probes = _factor_probes([f for law in laws for f in law.factors], dim)
    threshold = max(margin, ZERO_FLOOR)
    probe_masks = _mask_kernel([law.factors for law in laws], params, threshold, dim)
    kept = [_needed(law.factors, box, params, threshold) for law in laws]
    masks = _mask_kernel(kept, params, threshold, dim)
    read = {i - 1 for factors in kept for f in factors for i in state_indices(f.field.expr)}
    unread = set(range(dim)) - read
    rows = _BLOCK_ROWS // 2
    split = min(n, (-(-n // rows) + 1) // 2 * rows)  # the first half's blocks, rounded up

    def sweep(rng: np.random.Generator, start: int, stop: int) -> tuple:
        sizes = (min(rows, stop - k) for k in range(start, stop, rows))
        blocks = (scale(rng.random((size, dim)), read) for size in sizes)
        return _tally(masks, len(laws), blocks, lambda stored: scale(stored, unread))

    if split < n:
        second_rng = _stream_from(rng, split * dim)
        errstate = {"call": np.geterrcall(), **np.geterr()}  # the helper keeps the caller's
        second: list = []  # the helper's tally, or the exception it raised

        def sweep_second_half() -> None:
            try:
                with np.errstate(**errstate):
                    second.append(sweep(second_rng, split, n))
            except BaseException as error:
                second.append(error)

        helper = threading.Thread(target=sweep_second_half, name="coverage_check")
        helper.start()
        try:
            first = sweep(rng, 0, split)
        finally:
            helper.join()
        if isinstance(second[0], BaseException):
            raise second.pop()
        tallies = [first, *second]
    else:
        tallies = [sweep(rng, 0, n)]
    tallies.append(_tally(probe_masks, len(laws), [probes]))

    covered_counts = [sum(counts) for counts in zip(*(covered for covered, _, _ in tallies))]
    witness_states = [s for _, _, states in tallies for s in states][:_WITNESS_CAP]
    # count / total is the correctly rounded float np.mean gives a boolean column
    total = n + len(probes)
    fractions = [(law.name, c / total if total else 1.0) for law, c in zip(laws, covered_counts)]
    witnesses = []
    if witness_states:  # a coefficient's parameters are bound only where there is a witness
        rows = np.array(witness_states)
        values = zip(*(law.coefficient.evaluate_many(params, rows).tolist() for law in laws))
        names = [law.name for law in laws]
        witnesses = [Witness(s, tuple(zip(names, v))) for s, v in zip(witness_states, values)]
    return CoverageReport(
        sample_count=int(n),
        probe_count=len(probes),
        margin=margin,
        witnesses=tuple(witnesses),
        witness_total=sum(total for _, total, _ in tallies),
        law_fractions=tuple(fractions),
    )


def _mask_kernel(
    kept: Sequence[Sequence[SingularityFactor]], params: Mapping[str, Real], threshold: float,
    dim: int,
) -> Callable[[np.ndarray], tuple]:
    """``masks(states)``: for each list of factors, whether all exceed ``threshold`` in magnitude.

    All factors are emitted at once (``expr._emit``) into one function compiled by
    ``expr._compile``.  Each is computed with ``evaluate_many``'s numpy operations under its
    ``errstate``, so the masks are bit for bit those ``evaluate_many`` gives.  An empty list
    gives ``True``.  Unbound parameters and states beyond ``dim`` raise here.
    """
    sources, names = _emit([f.field.expr for factors in kept for f in factors], dim)
    compared = iter(f"(abs({source}) > threshold)" for source in sources)
    masks = "".join(f"{' & '.join(next(compared) for _ in factors) or True}, " for factors in kept)
    arguments = [*(f"x{i}" for i in range(1, dim + 1)), *names.values(), "threshold"]
    kernel = _compile(
        f"def masks({', '.join(arguments)}):\n"
        f"    with errstate(divide='ignore', invalid='ignore'):\n        return ({masks})\n",
        "masks", abs=np.abs, sin=np.sin, cos=np.cos, errstate=np.errstate,
    )
    bound = _bind(names, params).values()
    return lambda states: kernel(*states.T, *bound, threshold)


def _needed(
    factors: Sequence[SingularityFactor], box: Box, params: Mapping[str, Real], threshold: float
) -> list[SingularityFactor]:
    """The factors but those ``expr.bounds`` proves exceed ``threshold`` in magnitude on the box."""
    intervals = [bounds(f.field.expr, box, params) for f in factors]
    return [f for f, i in zip(factors, intervals) if i is None or max(i[0], -i[1]) <= threshold]


def _tally(
    masks: Callable[[np.ndarray], tuple], law_count: int, blocks: Iterable[np.ndarray],
    finish: Callable[[np.ndarray], np.ndarray] = lambda states: states,
) -> tuple[list[int], int, list[tuple[float, ...]]]:
    """Covered counts per law, witness count, and the first witnesses (completed by ``finish``).

    A block where some law's mask is the constant True holds no witness: it is only counted.
    """
    covered_counts = [0] * law_count
    witness_states: list[tuple[float, ...]] = []
    witness_total = 0
    for states in blocks:
        masked = masks(states)  # each an array, or a bool: True, or a constant factor's
        for i, covered in enumerate(masked):
            count = np.count_nonzero(covered) if np.ndim(covered) else covered * len(states)
            covered_counts[i] += int(count)
        if any(np.ndim(covered) == 0 and covered for covered in masked):
            continue  # a law valid on every row: the block holds no witness
        covered_any = np.zeros(len(states), dtype=bool)
        for covered in masked:
            covered_any |= covered
        missed = states[~covered_any]
        witness_total += len(missed)
        stored = finish(missed[: _WITNESS_CAP - len(witness_states)])
        witness_states += map(tuple, stored.tolist())
    return covered_counts, witness_total, witness_states


def _unique(factors: Sequence[SingularityFactor]) -> list[SingularityFactor]:
    """The first factor of each distinct zero set (equal fields), in order."""
    unique: list[SingularityFactor] = []
    for factor in factors:
        if all(factor.field != u.field for u in unique):
            unique.append(factor)
    return unique


def _factor_probes(factors: Sequence[SingularityFactor], dim: int) -> np.ndarray:
    """Deterministic points on each factor zero set and pairwise intersection."""
    solutions = []
    for factor in _unique(factors):
        found = state_indices(factor.field.expr)
        if len(found) != 1:
            continue  # multi-variable factor: probed only via the grid
        try:
            roots = _axis_zeros(factor.field, *found, dim, {})
        except EvaluationError:
            continue  # a factor with a parameter is probed only via the grid
        if roots:
            solutions.append((*found, roots))
    points: dict[tuple[float, ...], None] = {}  # distinct points, first-seen order
    for pins in _pin_sets(solutions, (1, 2)):
        grid = _grid([pins.get(i, _PROBE_GRID) for i in range(1, dim + 1)])
        points.update(dict.fromkeys(map(tuple, grid.tolist())))
    return np.array(list(points)) if points else np.empty((0, dim))


def _axis_zeros(field: ScalarField, var: int, dim: int, params: Mapping[str, Real]) -> tuple:
    """The zeros of ``field`` on the x<var> axis through the origin, x<var> in [-pi, pi]."""
    axis = np.zeros(dim)
    axis[var - 1] = 1.0
    return tuple(_roots_along(field, np.zeros(dim), axis, params, math.pi, 257))


def _pin_sets(solutions: Sequence[tuple[int, tuple]], sizes: Iterable[int]) -> Iterator[dict]:
    """Each combination of (coordinate, values) ``solutions``, size by size, pinning none twice."""
    for size in sizes:
        for combo in itertools.combinations(solutions, size):
            pins = dict(combo)
            if len(pins) == size:
                yield pins


# ---------------------------------------------------------------------------
# necessity witness search

#: candidate values for unpinned coordinates, largest magnitudes first so
#: pure-part clearance constraints are met early; 21 points over [-1, 1]
_AXIS_CANDIDATES = (0.0,) + tuple(
    sign * k / 10.0 for k in range(10, 0, -1) for sign in (1.0, -1.0)
)


def necessity_witness(
    laws: Sequence[LawDescriptor], params: Mapping[str, Real]
) -> tuple[float, ...] | None:
    """Deterministic search for a state where every supplied law fails.

    The search walks the declared singularity structure in one loop over pin sets: first the
    pure part of each coordinate factor (pinned to zero, with the remaining factors held clear
    of zero), then every intersection of two or more pinned factors, then the empty pin set, a
    plain grid.  A free coordinate runs over ``_AXIS_CANDIDATES`` (21 points over [-1, 1]) and
    the zeros over [-pi, pi] that ``_axis_zeros`` finds on its axis for each declared factor
    that reads it and is not a bare coordinate; 0 first, then largest magnitude first, positive
    before negative, each value once.  Each grid is evaluated as one vectorised batch, and the
    first state in ``itertools.product`` order at which every law's coefficient magnitude is
    below ``NECESSITY_TOL`` is returned, or None.

    A law that declares no singularity factors is valid everywhere by
    declaration, so no witness can exist and the search is skipped.
    """
    laws = list(laws)
    if not laws or any(not law.factors for law in laws):
        return None
    factors = _unique([f for law in laws for f in law.factors])
    dim = laws[0].coefficient.dim
    free = [dict.fromkeys(_AXIS_CANDIDATES) for _ in range(dim)]  # a zero at -0.0 adds nothing
    for f in factors:
        if f.pinned_coordinate is None:  # a bare coordinate is pinned to its zero instead
            for var in state_indices(f.field.expr):
                free[var - 1].update(dict.fromkeys(_axis_zeros(f.field, var, dim, params)))
    free = [sorted(values, key=lambda v: (v != 0.0, -abs(v), v < 0.0)) for values in free]
    pinnable = [f.pinned_coordinate for f in factors if f.pinned_coordinate is not None]
    for pins in _pin_sets([(i, (0.0,)) for i in pinnable], [*range(1, len(pinnable) + 1), 0]):
        clear = [f for f in factors if f.pinned_coordinate not in pins] if len(pins) == 1 else ()
        axes = [pins.get(var, values) for var, values in enumerate(free, start=1)]
        witness = _grid_search(axes, laws, clear, params)
        if witness is not None:
            return witness
    return None


def _grid_search(
    axes: Sequence[Sequence[float]], laws: Sequence[LawDescriptor],
    clear_factors: Sequence[SingularityFactor], params: Mapping[str, Real],
) -> tuple[float, ...] | None:
    """First state of the product of ``axes``, in product order, that is clear and a witness.

    A state is clear when every clear factor exceeds PURE_PART_CLEARANCE in
    magnitude, and a witness when every law's coefficient is below
    NECESSITY_TOL in magnitude.  A NaN (0/0 on the grid) never counts as
    either; an infinite factor value counts as clear.
    """
    grid = _grid(axes)
    keep = np.ones(len(grid), dtype=bool)
    for f in clear_factors:
        keep &= np.abs(f.field.evaluate_many(params, grid)) > PURE_PART_CLEARANCE
    for law in laws:
        keep &= np.abs(law.coefficient.evaluate_many(params, grid)) < NECESSITY_TOL
    hits = np.flatnonzero(keep)
    return tuple(grid[hits[0]].tolist()) if len(hits) else None


def _grid(axes: Sequence[Sequence[float]]) -> np.ndarray:
    """Every point of the product of ``axes``, one row each, in ``itertools.product`` order."""
    # indexing="ij" makes the last axis vary fastest, as itertools.product does
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))


# ---------------------------------------------------------------------------
# transversality


@dataclass(frozen=True)
class TransversalityRecord:
    point: tuple[float, ...]
    rank: int


def transversality_report(
    factors_a: Sequence[SingularityFactor],
    factors_b: Sequence[SingularityFactor],
    points: Iterable[Sequence[float]],
    params: Mapping[str, Real],
) -> tuple[TransversalityRecord, ...]:
    """Rank of the stacked factor differentials of two laws at given points.

    The points are expected to lie on the relevant zero sets; full rank
    (the number of stacked factors) at a point means the hypersurfaces
    meet transversally there.

    Each gradient component is evaluated once over all points (``evaluate_many``) and the
    stacked rows ranked by one batched ``matrix_rank``.  A point whose row holds an infinite
    or NaN entry, or every point when the batch cannot be formed (no points or factors, an
    unbound parameter, ragged points or factors), is evaluated exactly (``evaluate``) and
    ranked alone, in point order, so the errors raised and their order are those of a
    point-by-point loop.
    """
    gradients = [f.field.gradient() for f in [*factors_a, *factors_b]]
    points = [tuple(point) for point in points]
    try:
        states = np.array(points, dtype=float)
        with np.errstate(all="ignore"):  # an overflow reads as inf, and is evaluated exactly
            rows = np.stack([
                np.column_stack([c.evaluate_many(params, states) for c in gradient])
                for gradient in gradients
            ], axis=1)
    except (EvaluationError, ValueError):
        rows = np.full((len(points), 1, 1), np.nan)
    batched = np.isfinite(rows).all(axis=(1, 2))
    ranks = iter(matrix_rank(rows[batched]).tolist())
    records = []
    for point, in_batch in zip(points, batched.tolist()):
        if in_batch:
            rank = next(ranks)
        else:
            at_point = Bindings(params, point)
            rank = transversality_rank([[c.evaluate(at_point) for c in g] for g in gradients])
        records.append(TransversalityRecord(point=tuple(float(v) for v in point), rank=rank))
    return tuple(records)
