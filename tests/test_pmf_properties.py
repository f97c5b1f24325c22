"""Property checks of the exact pmf and of its mass check.

One property holds ``exact_pmf`` to a reference, byte for byte: a plain
``np.convolve`` per residue, each partial sum trimmed at both ends by full
cumulative sums.  A second reference convolves the binomial windows
untrimmed and trims only the final pmf; every tail of ``exact_pmf`` stays
within 1e-15 relative of it.  Another holds each tail of a pmf to the
correctly rounded exact sum of its points, and another the log-domain
binomial to its per-term formula, byte for byte, whichever counts built the
log-factorial table; the binomial's normaliser is held to ``math.fsum``.
The others hold the ``PowerPmf`` mass check to the verdict of ``math.fsum``
next to both edges, where a cheaper sum could round to the wrong side.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from loadcap import tailprob
from loadcap.models import ApplianceClass, Bernoulli
from loadcap.tailprob import (
    _TRIM_MASS,
    ClassComposition,
    EstimationMethod,
    PowerPmf,
    _binomial_pmf,
    _class_kernel,
    _fold_certain,
    _grid_steps,
    estimate,
    exact_pmf,
)

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


def _trim_ends(acc: np.ndarray) -> tuple[int, np.ndarray]:
    """Drop the ends whose cumulative mass stays below the floor."""
    forward = np.cumsum(acc)
    start = int(np.searchsorted(forward, _TRIM_MASS, side="left"))
    backward = np.cumsum(acc[::-1])
    stop = acc.size - int(np.searchsorted(backward, _TRIM_MASS, side="left"))
    return start, acc[start:stop]


def reference_exact_pmf(composition: ClassComposition, quantum: float) -> tuple[int, np.ndarray]:
    """``exact_pmf`` by ``np.convolve``, returning ``(offset, probabilities)``.

    The trimmed windows come from ``_class_kernel``.  Each convolution of a
    partial sum is trimmed at both ends by a full cumulative sum; the first
    window, convolved with the one-point empty load, is kept as it is.  The
    mass is not checked.
    """
    acc = np.ones(1)  # the pmf of an empty load
    offset = 0
    for cls, enabled in composition.entries:
        if enabled == 0:
            continue
        steps = _grid_steps(cls.on_power, quantum)
        lo, _, kernel, _ = _class_kernel(enabled, cls.p_on, cls.on_power, quantum)
        offset += lo * steps
        out = np.zeros(acc.size + (kernel.size - 1) * steps)
        for r in range(min(steps, acc.size)):
            out[r::steps] = np.convolve(acc[r::steps], kernel)
        if acc.size > 1:
            start, out = _trim_ends(out)
            offset += start
        acc = out
    return offset, acc


def untrimmed_reference_pmf(
    composition: ClassComposition, quantum: float
) -> tuple[int, np.ndarray]:
    """``exact_pmf`` as it stood before the windows and partial sums were
    trimmed: each binomial window runs from its first to its last non-zero
    term, and only the final pmf is trimmed, returning ``(offset,
    probabilities)``.
    """
    acc = np.ones(1)  # the pmf of an empty load
    offset = 0
    for cls, enabled in composition.entries:
        if enabled == 0:
            continue
        steps = _grid_steps(cls.on_power, quantum)
        pmf = _binomial_pmf(enabled, cls.p_on)
        nonzero = np.flatnonzero(pmf)
        kernel = pmf[nonzero[0] : nonzero[-1] + 1]
        offset += int(nonzero[0]) * steps
        out = np.zeros(acc.size + (kernel.size - 1) * steps)
        for r in range(min(steps, acc.size)):
            out[r::steps] = np.convolve(acc[r::steps], kernel)
        acc = out
    start, acc = _trim_ends(acc)
    return offset + start, acc


def reference_exact_estimate(composition: ClassComposition, c_max: float, quantum: float) -> float:
    """``estimate(EXACT, ...)`` over the reference pmf."""
    composition = _fold_certain(composition)
    threshold = c_max - composition.deterministic_load
    if threshold <= 0.0:
        return 1.0
    offset, probabilities = reference_exact_pmf(composition, quantum)
    pmf = PowerPmf(quantum=quantum, offset=offset, probabilities=probabilities)
    return pmf.tail_at_or_above(threshold)


def _case(
    quantum: float, specs: list[tuple[int, float, int]], det: float = 0.0
) -> tuple[ClassComposition, float]:
    """Classes from ``(grid steps, p_on, enabled)``; each population is larger."""
    entries = tuple(
        (
            ApplianceClass(
                name=f"c{j}", on_power=steps * quantum, model=Bernoulli(p_on=p_on), count=n + 2
            ),
            n,
        )
        for j, (steps, p_on, n) in enumerate(specs)
    )
    return ClassComposition(entries=entries, deterministic_load=det), quantum


p_ons = st.one_of(
    st.sampled_from([0.0, 1.0]),
    st.floats(min_value=1e-3, max_value=0.999),
    st.sampled_from([0.1, 0.5, 0.9]),
)
# zero counts, small ones, and counts past 60 that take the log-domain
# binomial, up to where its ends underflow past 1e-300
counts = st.one_of(
    st.integers(min_value=0, max_value=8),
    st.integers(min_value=0, max_value=60),
    st.integers(min_value=61, max_value=700),
)
class_specs = st.tuples(st.sampled_from([1, 2, 3, 7, 13]), p_ons, counts)


@st.composite
def compositions(draw) -> tuple[ClassComposition, float]:
    quantum = draw(st.sampled_from([1.0, 0.5]))
    specs = draw(st.lists(class_specs, min_size=0, max_size=4))
    det = draw(st.sampled_from([0.0, 0.0, 2.5, 40.0]))
    return _case(quantum, specs, det)


# four 8000-appliance classes, strides of 1, 3, 7 and 13 steps: the
# composition of the bounds-large benchmark workload
_LARGE = _case(1.0, [(1, 0.3, 8000), (3, 0.2, 8000), (7, 0.1, 8000), (13, 0.05, 8000)])


@hypothesis.settings(max_examples=150, deadline=None, database=None)
@hypothesis.given(compositions())
# no class: the empty load's single point
@hypothesis.example(_case(1.0, []))
# a 13-step stride over a 2-point accumulator
@hypothesis.example(_case(1.0, [(1, 0.5, 1), (13, 0.2, 40)]))
# a zero count, p_on 0 and p_on 1
@hypothesis.example(_case(1.0, [(3, 0.3, 0), (7, 0.0, 5), (2, 1.0, 3), (1, 0.4, 9)]))
# half-watt grid, log-domain binomials, a base load
@hypothesis.example(_case(0.5, [(3, 0.3, 200), (5, 0.2, 90)], det=2.5))
# one window laid out alone, both of its ends below 1e-300
@hypothesis.example(_case(1.0, [(1, 0.5, 1100)]))
# both ends underflow once convolved
@hypothesis.example(_case(1.0, [(2, 0.9, 650), (1, 0.1, 400)]))
# each of the next five differs in its last bits when the residue and the
# window are passed to np.correlate in the other order
# residues of 3 and 2 points beside a 4-point window: the window goes first
@hypothesis.example(_case(1.0, [(1, 0.5, 4), (2, 0.15, 3)]))
# residues of 3 points beside a 3-point window: on a tie the residue goes first
@hypothesis.example(_case(1.0, [(1, 0.5, 5), (2, 0.15, 2)]))
# residues of 4 points beside a 3-point window: the residue goes first
@hypothesis.example(_case(1.0, [(1, 0.5, 7), (2, 0.4, 2)]))
# a 13-step class first, then a 1-step window shorter (21 points) and
# longer (41 points) than the 66 and 27 points laid out before it
@hypothesis.example(_case(1.0, [(13, 0.3, 5), (1, 0.4, 20)]))
@hypothesis.example(_case(1.0, [(13, 0.3, 2), (1, 0.4, 40)]))
# the first window becomes the accumulator: at one step, at a stride, and
# after a one-point window (p_on 1) that leaves the accumulator at [1.0]
@hypothesis.example(_case(1.0, [(1, 0.35, 40)]))
@hypothesis.example(_case(1.0, [(13, 0.3, 20)]))
@hypothesis.example(_case(1.0, [(2, 1.0, 4), (1, 0.35, 30), (3, 0.15, 20)]))
# a one-step class convolved as a whole, its correlation the output: after
# a 2-step base class (the slot-dynamic frontier shape), and after the
# region-grid corner cell's 3-step class laid out first
@hypothesis.example(_case(1.0, [(2, 0.3, 10), (1, 0.2, 120), (3, 0.33, 40)]))
@hypothesis.example(_case(1.0, [(3, 0.15, 120), (1, 0.35, 150)]))
# long windows trimmed of subnormal ends, and partial sums trimmed: three
# residues shorter than their window, two longer than theirs, and _LARGE
@hypothesis.example(_case(1.0, [(1, 0.3, 8000), (3, 0.2, 8000)]))
@hypothesis.example(_case(1.0, [(1, 0.5, 9000), (2, 0.5, 2000)]))
@hypothesis.example(_LARGE)
def test_exact_pmf_matches_the_reference_byte_for_byte(case) -> None:
    composition, quantum = case
    offset, probabilities = reference_exact_pmf(composition, quantum)
    assert abs(math.fsum(probabilities.tolist()) - 1.0) <= 1e-9
    pmf = exact_pmf(composition, quantum)
    assert pmf.offset == offset
    assert np.array_equal(pmf.probabilities, probabilities)
    top = (pmf.offset + pmf.probabilities.size) * quantum + composition.deterministic_load
    # at and below the base load, on and between grid points, and past the top
    for fraction in (0.0, 0.2, 0.45, 0.5, 0.7, 0.93, 1.0, 1.1):
        for nudge in (0.0, 0.25 * quantum):
            c_max = fraction * top + nudge
            expected = reference_exact_estimate(composition, c_max, quantum)
            assert estimate(EstimationMethod.EXACT, composition, c_max, quantum) == expected


def _exact_tails(probabilities: np.ndarray) -> list[float]:
    """The correctly rounded tail from every support point.

    Every double is a whole number of units of 2**-1074, so each tail is
    summed exactly in those units from the top down; int / int rounds
    correctly.
    """
    unit = 1 << 1074
    total = 0
    tails = []
    for p in reversed(probabilities.tolist()):
        numerator, denominator = p.as_integer_ratio()
        total += numerator * (unit // denominator)
        tails.append(total / unit)
    return tails[::-1]


@pytest.mark.parametrize(
    "case",
    [_LARGE, _case(1.0, [(1, 0.5, 9000), (2, 0.5, 2000)])],
    ids=["bounds-large", "two-classes"],
)
def test_trimmed_tails_match_the_untrimmed_convolution(case) -> None:
    composition, quantum = case
    offset, reference = untrimmed_reference_pmf(composition, quantum)
    pmf = exact_pmf(composition, quantum)
    assert pmf.offset == offset
    assert pmf.probabilities.size == reference.size
    tails = np.array(_exact_tails(pmf.probabilities))
    expected = np.array(_exact_tails(reference))
    assert expected[-1] < 1e-299  # the tails reach down to the trim floor
    assert np.max(np.abs(tails - expected) / expected) <= 1e-15


@st.composite
def short_compositions(draw) -> tuple[ClassComposition, float]:
    """Up to two classes of up to 200 appliances: at most 5,200 grid points."""
    quantum = draw(st.sampled_from([1.0, 0.5]))
    counts = st.one_of(
        st.integers(min_value=0, max_value=60), st.integers(min_value=61, max_value=200)
    )
    specs = draw(st.lists(st.tuples(st.sampled_from([1, 2, 3, 13]), p_ons, counts), max_size=2))
    return _case(quantum, specs)


@hypothesis.settings(max_examples=30, deadline=None, database=None)
@hypothesis.given(short_compositions())
# a long tail: 8000 appliances, 2,988 grid points
@hypothesis.example(_case(1.0, [(1, 0.3, 8000)]))
def test_tail_is_the_correctly_rounded_sum_of_its_points(case) -> None:
    composition, quantum = case
    pmf = exact_pmf(composition, quantum)
    probs = pmf.probabilities.tolist()
    size = len(probs)
    # Every double is a whole number of units of 2**-1074, so each tail is
    # summed exactly in those units, from the top down; int / int rounds
    # correctly, as float(Fraction) does.
    unit = 1 << 1074
    exact = [0] * (size + 1)
    for i in range(size - 1, -1, -1):
        exact[i] = exact[i + 1] + int(Fraction(probs[i]) * unit)
    assert exact[size // 2] / unit == float(sum(map(Fraction, probs[size // 2 :])))
    # starts at or below the first point read 1, at or past the end 0
    for start in (-2, 0, size, size + 3.5):
        expected = 1.0 if start <= 0 else 0.0
        assert pmf.tail_at_or_above((pmf.offset + start) * quantum) == expected
    for start in range(1, size):
        # the grid point, and for every fifth one the threshold half a step
        # below it, which rounds up to it
        expected = exact[start] / unit
        assert pmf.tail_at_or_above((pmf.offset + start) * quantum) == expected
        if start % 5 == 1:
            assert pmf.tail_at_or_above((pmf.offset + start - 0.5) * quantum) == expected


def log_domain_terms(n: int, p: float) -> np.ndarray:
    """The log-domain binomial terms before normalising, one at a time."""
    log_p = math.log(p)
    log_q = math.log1p(-p)
    lg_n = math.lgamma(n + 1)
    logs = [
        lg_n - math.lgamma(k + 1) - math.lgamma(n - k + 1) + k * log_p + (n - k) * log_q
        for k in range(n + 1)
    ]
    return np.exp(np.array(logs))


def reference_binomial_pmf(n: int, p: float) -> np.ndarray:
    """``_binomial_pmf``'s log-domain branch as it stood, one term at a time."""
    pmf = log_domain_terms(n, p)
    return pmf / math.fsum(pmf.tolist())


@hypothesis.settings(max_examples=40, deadline=None, database=None)
@hypothesis.given(
    st.integers(min_value=61, max_value=9000),
    st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
)
# the first log-domain count, and the largest, at both ends of (0, 1)
@hypothesis.example(61, 0.5)
@hypothesis.example(9000, 5e-324)
@hypothesis.example(9000, 1.0 - 2**-53)
@hypothesis.example(8000, 0.3)
def test_log_domain_binomial_matches_the_per_term_formula_byte_for_byte(n, p) -> None:
    assert np.array_equal(_binomial_pmf(n, p), reference_binomial_pmf(n, p))


# a larger count first, a smaller one first, and counts one apart, which
# double the table past the next count
@pytest.mark.parametrize(
    "counts", [(61, 9000), (9000, 61), (500, 8000, 200, 8001), (61, 62, 200, 100)]
)
def test_binomial_bytes_do_not_depend_on_the_order_the_table_grew(monkeypatch, counts) -> None:
    monkeypatch.setattr(tailprob, "_LOG_FACTORIALS", np.zeros(0))
    for n in counts:
        assert np.array_equal(_binomial_pmf(n, 0.3), reference_binomial_pmf(n, 0.3))
    assert tailprob._LOG_FACTORIALS.size > max(counts)
    assert not tailprob._LOG_FACTORIALS.flags.writeable


def test_the_table_doubles_no_further_than_the_grid_budget(monkeypatch) -> None:
    # 5001 entries, then 5002 asked: doubling would build 10,002
    monkeypatch.setattr(tailprob, "_LOG_FACTORIALS", np.zeros(0))
    monkeypatch.setattr(tailprob, "_MAX_GRID_POINTS", 9000)
    for n in (5000, 5001):
        assert np.array_equal(_binomial_pmf(n, 0.3), reference_binomial_pmf(n, 0.3))
    assert tailprob._LOG_FACTORIALS.size == 9000


@st.composite
def log_domain_binomials(draw) -> np.ndarray:
    n = draw(st.integers(min_value=61, max_value=9000))
    p = draw(st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True))
    return log_domain_terms(n, p)


@st.composite
def padded_terms(draw) -> np.ndarray:
    """Terms over ~200 binades between runs of zeros and of subnormals."""
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    size = draw(st.integers(min_value=1, max_value=300))
    core = rng.random(size) * 2.0 ** -rng.integers(0, 200, size=size).astype(float)
    zeros = np.zeros(draw(st.integers(min_value=0, max_value=40)))
    subnormal = rng.integers(1, 2**52, size=draw(st.integers(min_value=0, max_value=40))) * 5e-324
    return np.concatenate([zeros, subnormal, core, subnormal[::-1], zeros])


# a midpoint: the terms within 90 binades of the largest sum to 1.0 after a
# tie to even, and the 100 terms below them carry the sum past the midpoint,
# so fsum over all of them gives 1.0000000000000002
_MIDPOINT = np.array([1.0, 2**-53] + [2**-1000] * 100)


@hypothesis.settings(max_examples=200, deadline=None, database=None)
@hypothesis.given(
    st.one_of(
        log_domain_binomials(),
        padded_terms(),
        st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=60)
        .filter(lambda terms: max(terms) >= 2**-900)
        .map(np.array),
    )
)
@hypothesis.example(log_domain_terms(9000, 5e-324))
@hypothesis.example(log_domain_terms(9000, 1.0 - 2**-53))
@hypothesis.example(log_domain_terms(61, 0.5))
@hypothesis.example(_MIDPOINT)
def test_binomial_normaliser_is_fsum(terms) -> None:
    assert tailprob._normaliser(terms) == math.fsum(terms.tolist())


def _mass_check_raises(v: np.ndarray) -> bool:
    try:
        PowerPmf(quantum=1.0, offset=0, probabilities=v)
    except ValueError as exc:
        assert "pmf mass" in str(exc)
        return True
    return False


@st.composite
def vectors_near_an_edge(draw) -> np.ndarray:
    size = draw(st.sampled_from([1, 2, 3, 8, 9, 100, 1000, 100_000]))
    edge = 1.0 + draw(st.sampled_from([-1e-9, 1e-9]))
    target = edge + draw(st.floats(min_value=-1e-12, max_value=1e-12))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    v = np.random.default_rng(seed).random(size) + 0.25  # ends carry mass
    return v * (target / math.fsum(v.tolist()))


@hypothesis.settings(max_examples=60, deadline=None, database=None)
@hypothesis.given(vectors_near_an_edge())
def test_mass_check_gives_the_fsum_verdict_near_both_edges(v) -> None:
    assert _mass_check_raises(v) == (abs(math.fsum(v.tolist()) - 1.0) > 1e-9)


def _last_double_within(edge_sign: float) -> float:
    """The double farthest from 1 on the ``edge_sign`` side still within 1e-9."""
    x = 1.0 + edge_sign * 1e-9
    outward = 1.0 + edge_sign
    while abs(x - 1.0) > 1e-9:
        x = float(np.nextafter(x, 1.0))
    while abs(float(np.nextafter(x, outward)) - 1.0) <= 1e-9:
        x = float(np.nextafter(x, outward))
    return x


def test_mass_check_is_not_fooled_where_the_numpy_sum_rounds_inside() -> None:
    # numpy adds three terms in order, and each 0.3-ulp term rounds away;
    # fsum carries their 0.6 ulp and lands past the edge
    top = _last_double_within(+1.0)
    ulp = float(np.nextafter(top, 2.0)) - top
    v = np.array([top, 0.3 * ulp, 0.3 * ulp])
    assert abs(float(v.sum()) - 1.0) <= 1e-9  # the plain sum would pass it
    assert abs(math.fsum(v.tolist()) - 1.0) > 1e-9
    assert _mass_check_raises(v)


def test_mass_check_passes_where_the_numpy_sum_rounds_outside() -> None:
    # the mirror at the lower edge: the plain sum falls short, fsum does not
    below = float(np.nextafter(_last_double_within(-1.0), 0.0))
    ulp = float(np.nextafter(below, 2.0)) - below
    v = np.array([below, 0.3 * ulp, 0.3 * ulp])
    assert abs(float(v.sum()) - 1.0) > 1e-9
    assert abs(math.fsum(v.tolist()) - 1.0) <= 1e-9
    assert not _mass_check_raises(v)
