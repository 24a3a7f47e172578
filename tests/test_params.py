"""Parameter/bound formula tests: exact rational values and properties."""

import dataclasses
import functools
import hashlib
import itertools
import json
import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qotsim.params import (
    _EVENTS,
    _bound_constants,
    _checkpoints,
    _prefix,
    _validated,
    Case,
    InvalidChoiceCount,
    InvalidN,
    ParameterError,
    build_bound_report,
    case_of,
    commitment_attack_bound,
    compute_x,
    correctness_deviation,
    correctness_epsilon,
    event_runs,
    exact_failure_oracle,
    hoeffding_bound,
    min_N,
    privacy_deviation_signed,
    privacy_epsilon,
    smallest_valid_N,
    target_rate,
    validate_params,
)

nm_pairs = st.integers(min_value=2, max_value=12).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(min_value=1, max_value=n - 1))
)


def test_target_rate_values():
    assert target_rate(2, 1) == Fraction(3, 4)
    assert target_rate(3, 1) == Fraction(1, 2)
    assert target_rate(4, 1) == Fraction(3, 8)
    assert target_rate(5, 3) == Fraction(7, 10)


def test_case_classification():
    assert case_of(4, 1) is Case.LOW       # 3 < 4
    assert case_of(3, 1) is Case.HIGH      # 3 >= 3
    assert case_of(2, 1) is Case.HIGH


def test_compute_x_table():
    assert compute_x(4, 1, 40) == 8
    assert compute_x(2, 1, 6) == 2
    assert compute_x(3, 1, 6) == 0
    assert compute_x(3, 1, 9) == 0


def test_compute_x_inexact_rejected():
    with pytest.raises(InvalidN):
        compute_x(2, 1, 7)  # x = 7/3
    with pytest.raises(InvalidN):
        compute_x(4, 1, 41)  # x = 41/5


def test_choice_count_validation():
    for n, m in ((1, 1), (3, 0), (3, 3), (2, 2)):
        with pytest.raises(InvalidChoiceCount):
            target_rate(n, m)
    # n, m and N must be ints proper: no float, bool or numpy integer
    for nmN, error, value in (((3, 1, 6.0), InvalidN, "6.0"),
                              ((3, 1, np.int64(6)), InvalidN, "np.int64(6)"),
                              ((3, True, 6), InvalidChoiceCount, "True"),
                              ((3.0, 1, 6), InvalidChoiceCount, "3.0")):
        with pytest.raises(error, match=re.escape(value)):
            validate_params(*nmN)


def test_validate_params_populates_derived_fields():
    p = validate_params(4, 1, 40)
    assert (p.case, p.x, p.subset_size) == (Case.LOW, 8, 8)
    assert p.target_rate == Fraction(3, 8)
    p = validate_params(2, 1, 6)
    assert (p.case, p.x, p.subset_size) == (Case.HIGH, 2, 2)


def test_validation_cache_keeps_the_input_boundary():
    """Three ints proper are answered from a bounded cache.  Right after (3, 1, 6)
    is cached, a bool, a float or a numpy integer equal to one of its ints, and
    an N that is not admissible, raise what the uncached check raises, on every
    call, and no refusal is cached."""
    _validated.cache_clear()
    params = validate_params(3, 1, 6)
    assert validate_params(3, 1, 6) is params
    refused = (
        ((3, True, 6), InvalidChoiceCount, "n and m must be integers, got n=3, m=True"),
        ((3.0, 1, 6), InvalidChoiceCount, "n and m must be integers, got n=3.0, m=1"),
        ((np.int64(3), 1, 6), InvalidChoiceCount,
         "n and m must be integers, got n=np.int64(3), m=1"),
        ((3, 1, 7), InvalidN, "(N - x) = 7 must be divisible by n = 3 to form equal-size subsets"),
    )
    for _ in range(3):
        for nmN, error, message in refused:
            with pytest.raises(ParameterError) as raised:
                validate_params(*nmN)
            assert (type(raised.value), str(raised.value)) == (error, message)
    assert _validated.cache_info().currsize == 1


def test_validate_params_lists_all_violations():
    # (2,1,4): x = 4/3 inexact; nothing else checkable
    with pytest.raises(InvalidN, match="not an integer"):
        validate_params(2, 1, 4)
    # (4,1,35): x = 7 exact but N-x = 28 divisible by 4 -> valid
    validate_params(4, 1, 35)
    # (4,1,30): x = 6, N-x = 24 divisible by 4 -> valid
    validate_params(4, 1, 30)
    # (4,1,10): x = 2, N-x = 8 divisible by 4 -> valid; find a subset failure:
    # (6,1,18): low, x = (3*18)/9 = 6, N-x = 12 divisible by 6 -> valid
    # (6,2,22): rate 5/12 low, x = (6-5)*22/7 inexact
    with pytest.raises(InvalidN):
        validate_params(6, 2, 22)


def test_smallest_valid_N():
    assert smallest_valid_N(3, 1) == 3
    assert smallest_valid_N(2, 1) == 3  # x = 1, two subsets of size 1
    assert smallest_valid_N(4, 1) == 5
    assert smallest_valid_N(2, 1, floor=4) == 6
    assert smallest_valid_N(4, 1, floor=36) == 40
    assert smallest_valid_N(4, 1, floor=5.5) == 10  # a fractional floor rounds up
    assert smallest_valid_N(4, 1, floor=Fraction(9, 2)) == 5


@settings(max_examples=100, deadline=None)
@given(nm=nm_pairs, floor=st.integers(min_value=1, max_value=50)
       | st.floats(min_value=-5, max_value=50))
def test_smallest_valid_N_is_least_admissible(nm, floor):
    n, m = nm
    N = smallest_valid_N(n, m, floor)
    assert N >= floor
    validate_params(n, m, N)
    for k in range(max(1, math.ceil(floor)), N):
        with pytest.raises(InvalidN):
            validate_params(n, m, k)


def test_correctness_deviation_values():
    assert correctness_deviation(2, 1) == Fraction(1, 6)
    assert correctness_deviation(3, 1) == Fraction(1, 6)
    assert correctness_deviation(4, 1) == Fraction(1, 10)  # 3/5 - 1/2


def test_privacy_deviation_and_sign_anomaly():
    # high case: positive as written
    assert privacy_deviation_signed(2, 1) == Fraction(1, 6)
    assert not build_bound_report(2, 1).privacy_sign_anomaly
    assert privacy_deviation_signed(3, 1) == Fraction(1, 6)
    # low case: the stated expression is negative; flagged, abs used
    assert privacy_deviation_signed(4, 1) == Fraction(-1, 10)
    assert build_bound_report(4, 1).privacy_sign_anomaly
    delta, eps = privacy_epsilon(4, 1)
    assert delta == Fraction(1, 10)
    assert eps == pytest.approx(math.exp(-0.01), rel=1e-15)


@settings(max_examples=200, deadline=None)
@given(nm=nm_pairs)
def test_deviations_positive_and_eps_below_one(nm):
    n, m = nm
    delta_c, eps_c = correctness_epsilon(n, m)
    delta_p, eps_p = privacy_epsilon(n, m)
    assert delta_c > 0 and delta_p > 0
    assert 0 < eps_c < 1 and 0 < eps_p < 1


@settings(max_examples=200, deadline=None)
@given(nm=nm_pairs)
def test_low_case_privacy_expression_always_negative(nm):
    n, m = nm
    if case_of(n, m) is Case.LOW:
        assert privacy_deviation_signed(n, m) < 0
        assert build_bound_report(n, m).privacy_sign_anomaly


def test_min_N_values():
    assert min_N(Fraction(1, 6)) == 25
    assert min_N(Fraction(1, 10)) == 70
    for bad in (0, float("nan")):
        with pytest.raises(ValueError, match="deviation must be positive"):
            min_N(bad)


def test_min_N_is_threshold_between_bounds():
    delta = 1 / 6
    N = min_N(delta)
    raw = lambda k: 2 * math.exp(-2 * k * delta**2)
    simple = lambda k: math.exp(-(delta**2)) ** k
    assert raw(N) < simple(N)
    assert raw(N - 1) >= simple(N - 1)


def test_hoeffding_bound_formula():
    assert hoeffding_bound(18, 1 / 6) == pytest.approx(2 / math.e, rel=1e-15)
    for bad in (0, float("nan")):
        with pytest.raises(ValueError, match="deviation must be positive"):
            hoeffding_bound(10, bad)


def test_hoeffding_bound_refuses_a_bad_sample_size():
    for bad in (0, -1, True, 18.0, np.int64(18)):
        with pytest.raises(ValueError, match="trials must be an integer >= 1"):
            hoeffding_bound(bad, 1 / 6)


def test_smallest_valid_N_refuses_a_floor_that_is_not_finite():
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="floor must be a finite number"):
            smallest_valid_N(2, 1, bad)
    assert smallest_valid_N(2, 1, 4.5) == smallest_valid_N(2, 1, 4) == 6
    assert smallest_valid_N(2, 1, -7.0) == 3
    for bad in (True, "5"):
        with pytest.raises(ValueError, match="floor must be a real number"):
            smallest_valid_N(2, 1, bad)


def test_commitment_attack_bound_values():
    bound, eps = commitment_attack_bound(0.5, 4, 40, 8)
    assert bound == 0.5**8
    assert eps == pytest.approx(0.5 ** (1 / 8), rel=1e-15)
    assert bound < eps**40
    with pytest.raises(ValueError):
        commitment_attack_bound(1.0, 4, 40, 8)
    with pytest.raises(InvalidN):
        commitment_attack_bound(0.5, 4, 41, 8)


@pytest.mark.parametrize("n, N, x", [
    (0, 10, 0),  # was a ZeroDivisionError
    (-1, 10, 0),  # was a "probability" of 1024.0
    (2, -10, 0),  # was 32.0
    (2, 10, 12),  # was 2.0
    (2.0, 10.0, 0.0),
    (True, 10, 0),
])
def test_commitment_attack_bound_refuses_a_bad_n_N_or_x(n, N, x):
    with pytest.raises(ParameterError, match=r"require ints n >= 1, N >= 1 and 0 <= x < N"):
        commitment_attack_bound(0.5, n, N, x)


def test_bound_report_forms():
    report = build_bound_report(2, 1, N=18, p=0.5)
    assert report.hoeffding_privacy_form == "2*exp(-N/18)"
    assert report.hoeffding_correctness_form == "2*exp(-N/18)"
    assert report.hoeffding_privacy == pytest.approx(2 / math.e, rel=1e-12)
    assert report.min_N_privacy == 25
    assert report.x == 6 and report.subset_size == 6
    assert report.commitment_bound == pytest.approx(0.5**6, rel=1e-15)
    assert report.commitment_eps == pytest.approx(0.5**0.25, rel=1e-15)


# sha256 over the JSON of every accepted report below, and over (type, message)
# of every refused call; recorded before the bound layer moved to plain integers
ACCEPTED_REPORTS_SHA256 = "adab9badee44df94678e52359dfec102308f70f3ea3e9e0c149a0588bef99c4f"
REFUSED_CALLS_SHA256 = "f74c1c78b29e676aee342c81ade8a86999f0d4a34f2cf373a56e8eff1dad476d"


def test_bound_layer_is_pinned():
    for n in range(2, 61):  # both deviations are the source's expressions
        for m in range(1, n):
            if 2 * m + 1 < n:
                delta_c = Fraction(n - m, 2 * n - (2 * m + 1)) - Fraction(1, 2)
                signed = Fraction(1, 2) - Fraction(n - m, 2 * n - (2 * m + 1))
            else:
                delta_c = Fraction(1, 2) - Fraction(m, 2 * m + 1)
                signed = Fraction(m + 1, 2 * m + 1) - Fraction(1, 2)
            assert correctness_deviation(n, m) == delta_c
            assert privacy_deviation_signed(n, m) == signed
    accepted, count = hashlib.sha256(), 0
    for n in range(2, 21):
        for m in range(1, n):
            for N in [None, *range(1, 301)]:
                if N is not None:
                    try:
                        validate_params(n, m, N)
                    except InvalidN:
                        continue
                for p in (None, 0.5, 1e-300):
                    report = dataclasses.asdict(build_bound_report(n, m, N, p))
                    accepted.update(json.dumps(report).encode())
                    count += 1
    assert count == 10_947
    assert accepted.hexdigest() == ACCEPTED_REPORTS_SHA256
    refused, count = hashlib.sha256(), 0
    for n, m, N, p in itertools.product(
        [*range(-1, 9), True, 3.0], [*range(-1, 9), True, 1.0],
        [None, *range(-1, 61), True, 6.0], [None, 0.5, 0.0, 1.0, float("nan"), -1],
    ):
        try:
            build_bound_report(n, m, N, p)
        except ValueError as e:
            refused.update(json.dumps([type(e).__name__, str(e)]).encode())
            count += 1
    assert count == 55_666
    assert refused.hexdigest() == REFUSED_CALLS_SHA256


def test_bound_report_checks_its_arguments_before_the_cache():
    """A list, a bool or a float 2.0 (equal to 2, with its hash) is refused as
    at any other call, not looked up: no TypeError, no report of (2, 1).  The
    p check still runs first."""
    build_bound_report(2, 1)  # (2, 1) is cached
    for n, m in (([2], 1), (True, 1), (2.0, 1), (2, [1]), (3, 1.0), (2, True)):
        for N in (None, 6):
            with pytest.raises(InvalidChoiceCount):
                build_bound_report(n, m, N)
    with pytest.raises(ValueError, match="cheat probability"):
        build_bound_report([2], 1, p=1.5)
    with pytest.raises(InvalidN):
        build_bound_report(2, 1, N=7)


def test_bound_report_depends_on_no_call_order():
    """Each (n, m), asked with and without N and p in a shuffled order, gives
    the report built from a cleared cache; no report shares state with it."""
    calls = [(n, m, N, p) for n in range(2, 8) for m in range(1, n)
             for N in (None, smallest_valid_N(n, m), smallest_valid_N(n, m, 200))
             for p in (None, 0.5)]
    fresh = {}
    for args in calls:
        _bound_constants.cache_clear()
        fresh[args] = build_bound_report(*args)
    for seed in range(3):
        np.random.default_rng(seed).shuffle(calls)
        for args in calls:
            assert build_bound_report(*args) == fresh[args], args
    constants = {key: dict(_bound_constants(*key[:2])[0]) for key in calls}
    for report in fresh.values():  # every field is immutable
        assert all(isinstance(v, (str, int, float, type(None))) for v in vars(report).values())
    for args in calls:  # the cached fields stay as they were after every call
        build_bound_report(*args)
        assert _bound_constants(*args[:2])[0] == constants[args]


# the fields a bound report leaves None without N, and without p
_N_FIELDS = ("N", "x", "subset_size", "hoeffding_correctness", "hoeffding_privacy",
             "eps_correctness_pow_N", "eps_privacy_pow_N", "commitment_bound")
_P_FIELDS = ("p", "commitment_eps", "commitment_bound")


@pytest.mark.parametrize("make, args", [
    *((build_bound_report, (4, 1, N, p)) for N in (None, 400) for p in (None, 0.5)),
    (validate_params, (4, 1, 40)), (validate_params, (3, 1, 6))],
    ids=lambda v: getattr(v, "__name__", str(v)))
def test_records_filled_once_behave_like_init_built_ones(make, args):
    """A record filled in one step is the frozen dataclass that its generated __init__
    builds from the same fields: the same dict in field order, ==, hash, repr, asdict and
    replace; it refuses assignment, and every field the call omits reads None."""
    record = make(*args)
    names = [field.name for field in dataclasses.fields(record)]
    built = type(record)(**{name: getattr(record, name) for name in names})
    assert list(vars(record)) == names and vars(record) == vars(built)
    assert record == built and hash(record) == hash(built) and repr(record) == repr(built)
    assert dataclasses.asdict(record) == dataclasses.asdict(built)
    assert dataclasses.replace(record) == built
    assert dataclasses.replace(record, m=2) == dataclasses.replace(built, m=2) != built
    for name in names:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, name, None)
    with pytest.raises(dataclasses.FrozenInstanceError):
        del record.n
    omitted = set()
    if make is build_bound_report:
        N, p = args[2:]
        omitted = {*(_N_FIELDS if N is None else ()), *(_P_FIELDS if p is None else ())}
    assert {name for name in names if getattr(record, name) is None} == omitted


def test_bound_report_without_N():
    report = build_bound_report(4, 1, p=0.3)
    assert report.N is None and report.hoeffding_privacy is None
    assert report.privacy_sign_anomaly
    assert report.commitment_eps == pytest.approx(0.3 ** (1 / 8), rel=1e-15)
    assert report.hoeffding_correctness_form == "2*exp(-N/50)"


# The feasibility inequalities that event_runs solves for M, kept as first
# written: the test reference for the runs.  Each takes M as an int or an int
# array and answers in kind.

def _honest_run_feasible(params, matches):
    """Can an honest Bob with this survivor match count finish the protocol?"""
    if params.case is Case.LOW:
        return (matches >= params.x) & (matches - params.x >= params.m * params.subset_size)
    return (params.N - matches >= params.x) & (matches >= params.m * params.subset_size)


def _extra_bit_feasible(params, matches):
    """Can a greedy Bob form m+1 all-matching subsets while complying with removal?"""
    if params.case is Case.LOW:
        return matches >= params.x + (params.m + 1) * params.subset_size
    return _dishonest_removal_feasible(params, matches)  # high case: both remove mismatches


def _dishonest_removal_feasible(params, matches):
    """Low case: Bob removes mismatches instead, keeping all matches for subsets."""
    need = (params.m + 1) * params.subset_size
    return (params.N - matches >= params.x) & (matches >= need)


REFERENCE = {
    "correctness": lambda p, M: np.logical_not(_honest_run_feasible(p, M)),
    "privacy": _extra_bit_feasible,
    "privacy_dishonest_removal": _dishonest_removal_feasible,
}


def run_table(params, event):
    """(N+1,) bool, does `event` hold at M = 0..N, by :func:`event_runs`; the
    runs must be nonempty, in order, apart and inside [0, N+1]."""
    holds, end = np.zeros(params.N + 1, dtype=bool), -1
    for a, b in event_runs(params, event):
        assert end < a < b <= params.N + 1, (params, event, a, b)
        holds[a:b], end = True, b
    return holds


def test_exact_oracle_matches_comb_sum_past_brute_force():
    """The oracle against a plain sum of math.comb terms, at every admissible
    N <= 400 and the three largest N <= 1000 for n <= 4; brute force
    (criterion 5) stops at N = 20.  The cases include a run of hits that
    starts at M = 0, one that ends at M = N, and the high case's two-tailed
    correctness event, which has both."""
    checked, shapes = 0, set()
    for n in range(2, 5):
        for m in range(1, n):
            Ns = _admissible_Ns(n, m, 1000)
            for N in [N for N in Ns if N <= 400] + Ns[-3:]:
                params = validate_params(n, m, N)
                for event, pred in REFERENCE.items():
                    q = exact_failure_oracle(params, event)
                    holds = [bool(pred(params, M)) for M in range(N + 1)]
                    hits = sum(math.comb(N, M) for M in range(N + 1) if holds[M])
                    assert q == Fraction(hits, 2**N), (n, m, N, event)
                    # a reduced hits / 2^N: the denominator is a power of two
                    assert q.denominator & (q.denominator - 1) == 0
                    shapes.add((params.case, event, holds[0], holds[-1]))
                    checked += 1
    assert checked > 1000
    assert (Case.HIGH, "correctness", True, True) in shapes
    assert any(first and not last for _, _, first, last in shapes)
    assert any(last and not first for _, _, first, last in shapes)


@functools.cache
def _comb_row(N):
    return [math.comb(N, M) for M in range(N + 1)]


def _reference_oracle(params, event):
    N, row = params.N, _comb_row(params.N)
    holds = REFERENCE[event](params, np.arange(N + 1))
    return Fraction(sum(row[M] for M in range(N + 1) if holds[M]), 2**N)


def test_oracle_depends_on_no_query_order_or_cache_state():
    """Every admissible set with n <= 6 and N <= 120: its three events asked
    in each of the six orders, from a cleared cache each time; and each N's
    sets, which share one walk, asked reversed and shuffled from a cleared
    cache.  All give the reference comb sums."""
    by_N, rng, checked = {}, random.Random(26), 0
    for n in range(2, 7):
        for m in range(1, n):
            for N in _admissible_Ns(n, m, 120):
                by_N.setdefault(N, []).append(validate_params(n, m, N))
    assert max(len(sets) for sets in by_N.values()) >= 8
    for sets in by_N.values():
        want = {(p, e): _reference_oracle(p, e) for p in sets for e in REFERENCE}
        for params in sets:
            for events in itertools.permutations(REFERENCE):
                _checkpoints.cache_clear()
                for event in events:
                    assert exact_failure_oracle(params, event) == want[params, event], (
                        params, events)
                    checked += 1
        for order in (sets[::-1], rng.sample(sets, len(sets))):
            _checkpoints.cache_clear()
            for params in order:
                for event in REFERENCE:
                    assert exact_failure_oracle(params, event) == want[params, event], (
                        params, order)
                    checked += 1
    assert checked > 5_000


def test_oracle_is_right_after_evictions():
    """Sets interleaved round-robin, at more N than the walk cache holds, so
    that walks are evicted and taken again."""
    sets = [validate_params(n, m, N) for n in range(2, 7) for m in range(1, n)
            for N in _admissible_Ns(n, m, 140) if N > 20]
    Ns = {params.N for params in sets}
    assert len(Ns) > 2 * _checkpoints.cache_info().maxsize
    want = {(p, e): _reference_oracle(p, e) for p in sets for e in REFERENCE}
    _checkpoints.cache_clear()
    for event in [*REFERENCE, *reversed(REFERENCE)]:
        for params in sets:
            assert exact_failure_oracle(params, event) == want[params, event], (params, event)
    info = _checkpoints.cache_info()
    assert info.misses > len(Ns) and info.currsize == info.maxsize


def _prefixes(N):
    """P[k] = sum(comb(N, M) for M < k), k = 0..N+1, from math.comb."""
    return [0, *itertools.accumulate(math.comb(N, M) for M in range(N + 1))]


def _stride(N):
    """The checkpoint spacing _checkpoints documents."""
    return 2 * max(1, N >> 6)


def _check_walk(N, P):
    """N's checkpoints are the documented ones: P(j) and comb(N+1, j+1) at
    j = 0, h, 2h, ... with no gap, in the lower half, and at -1 the same at
    an even j there: at most 34 entries."""
    walk, h = dict(_checkpoints(N)), _stride(N)
    j, *last = walk.pop(-1, (0, 0, N + 1))
    assert j % 2 == 0 and 2 * j <= N + 1, (N, j)
    assert last == [P[j], math.comb(N + 1, j + 1)], (N, j)
    assert sorted(walk) == list(range(0, h * len(walk), h)), N
    assert 2 * max(walk) <= N + 1 and len(walk) <= 33, N
    for j, (total, pair) in walk.items():
        assert (total, pair) == (P[j], math.comb(N + 1, j + 1)), (N, j)


def test_prefix_sums_every_query_sequence():
    """Every set of 2 and 3 points in 0..N+1 at N <= 40, asked from a cleared
    cache, in turn ascending, descending and in each mixed order: walks from
    0 and from a checkpoint, folds past the middle, odd and even remainders.
    At N <= 40 every even position is a checkpoint."""
    clear, checked = _checkpoints.cache_clear, 0
    for N in range(1, 41):
        P = _prefixes(N)
        for size in (2, 3):
            up = tuple(range(size))  # ascending, descending, then the mixed orders
            orders = sorted(itertools.permutations(up), key=lambda o: (o != up, o != up[::-1]))
            for i, points in enumerate(itertools.combinations(range(N + 2), size)):
                clear()
                ks = [points[j] for j in orders[i % len(orders)]]
                assert [_prefix(N, k) for k in ks] == [P[k] for k in ks], (N, ks)
            checked += i + 1
        _check_walk(N, P)
    assert checked > 100_000


def test_prefix_resumes_from_sparse_checkpoints():
    """At N from 64 to 300, past N = 128 the checkpoints ~N/32 apart: every
    point asked ascending, descending and shuffled, from a cleared cache each
    time, so that most queries resume from a checkpoint in the middle of an
    earlier walk, and every point asked alone from a cold cache at three N."""
    rng = random.Random(2600)
    for N in [*range(64, 301, 9), 127, 128, 129, 191, 192, 255, 256]:
        P, points = _prefixes(N), list(range(N + 2))
        for order in (points, points[::-1], rng.sample(points, len(points))):
            _checkpoints.cache_clear()
            for k in order:
                assert _prefix(N, k) == P[k], (N, k)
            _check_walk(N, P)
    for N in (130, 257, 300):
        P = _prefixes(N)
        assert _stride(N) > 2
        for k in range(N + 2):
            _checkpoints.cache_clear()
            assert _prefix(N, k) == P[k], (N, k)


def test_prefix_at_large_N():
    """Seven point sets at N = 1000, asked from a cleared cache in order and
    in reverse, from 0 and from past 0, with adjacent points and segments of
    odd and even length; and at N = 33,000, where the step factors
    (N-M)(N-M-1) no longer fit one 30-bit digit, a short run and a point past
    the first checkpoint."""
    P = _prefixes(1000)
    for points in ([0, 500], [0, 1, 2, 3], [1, 499, 500, 501], [137, 400], [250, 251, 501],
                   [0, 501], [0, 333, 334, 336, 339, 343, 499]):
        for order in (points, points[::-1]):
            _checkpoints.cache_clear()
            assert [_prefix(1000, k) for k in order] == [P[k] for k in order], order
        _check_walk(1000, P)
    N = 33_000
    assert (N - 3) * (N - 4) >= 1 << 30
    _checkpoints.cache_clear()
    assert _prefix(N, 10) - _prefix(N, 3) == sum(math.comb(N, M) for M in range(3, 10))
    # comb(N, M) for M <= k by the one-term step, tied to math.comb at its end
    k, terms = _stride(N) + 5, [1]
    for M in range(k):
        terms.append(terms[-1] * (N - M) // (M + 1))
    assert terms[k] == math.comb(N, k)
    assert _prefix(N, k) == sum(terms[:k])
    assert _checkpoints(N)[_stride(N)] == (sum(terms[:_stride(N)]),
                                           math.comb(N + 1, _stride(N) + 1))


def test_walk_memory_is_bounded_per_N():
    """After all three events of every admissible (n, m) with n <= 6 at each
    N from 990 to 1010, and of (4, 1) at N = 20,000, each N holds at most 34
    checkpoints: a fixed number of N-bit ints, whatever was asked.  CI's
    large-N step checks (4, 1) at N = 100,000 the same way."""
    _checkpoints.cache_clear()
    asked = 0
    for N in range(990, 1011):
        for n in range(2, 7):
            for m in range(1, n):
                try:
                    params = validate_params(n, m, N)
                except InvalidN:
                    continue
                for event in REFERENCE:
                    exact_failure_oracle(params, event)
                asked += 1
        assert len(_checkpoints(N)) <= 34, N
    assert asked == 60
    big = validate_params(4, 1, 20_000)
    for event in REFERENCE:
        exact_failure_oracle(big, event)
    # the walk reaches the correctness end 2N/5, leaving a checkpoint every h,
    # and the last query, dishonest removal's lower end, ends there too
    walk = _checkpoints(big.N)
    assert sorted(walk) == [-1, *range(0, 8_001, _stride(big.N))] and walk[-1][0] == 8_000


def _admissible_Ns(n, m, N_max):
    Ns = [smallest_valid_N(n, m)]
    while Ns[-1] <= N_max:
        Ns.append(smallest_valid_N(n, m, Ns[-1] + 1))
    return Ns[:-1]


def test_event_runs_equal_the_feasibility_reference():
    """At every M, for every admissible set with n <= 12 and N <= 400 and every
    event, the runs hold exactly where the reference inequalities do.  The
    sets include the high case's two-tailed correctness event and its empty
    upper tail at x = 0."""
    assert set(_EVENTS) == set(REFERENCE)
    checked, shapes = 0, set()
    for n in range(2, 13):
        for m in range(1, n):
            for N in _admissible_Ns(n, m, 400):
                params = validate_params(n, m, N)
                M = np.arange(N + 1)
                for event, pred in REFERENCE.items():
                    assert (run_table(params, event) == pred(params, M)).all(), (params, event)
                    shapes.add((params.case, event, len(event_runs(params, event)), params.x == 0))
                    checked += 1
    assert checked == 3 * 2544
    assert (Case.HIGH, "correctness", 2, False) in shapes
    assert (Case.HIGH, "correctness", 1, True) in shapes


def test_bounds_dominate_the_exact_oracles_past_min_N():
    """Every admissible set with n <= 8 and N <= 600, each event from N >=
    min_N of its bound's deviation on: the correctness and greedy-privacy
    oracles never exceed 2*exp(-2*N*delta^2) or eps^N, and literal
    dishonest removal (a low-case attack) exceeds both at 423 pairs."""
    pairs, over = 0, {"correctness": [], "privacy": [], "privacy_dishonest_removal": []}
    for n in range(2, 9):
        for m in range(1, n):
            events = [("correctness", correctness_epsilon), ("privacy", privacy_epsilon)]
            if case_of(n, m) is Case.LOW:
                events.append(("privacy_dishonest_removal", privacy_epsilon))
            for N in _admissible_Ns(n, m, 600):
                params = validate_params(n, m, N)
                for event, bound in events:
                    delta, eps = bound(n, m)
                    if N < min_N(delta):
                        continue
                    pairs += 1
                    q = exact_failure_oracle(params, event)
                    exceeds = (q > hoeffding_bound(N, float(delta)), q > eps**N)
                    if any(exceeds):
                        over[event].append(exceeds)
    assert pairs == 3727
    assert over["correctness"] == over["privacy"] == []
    assert over["privacy_dishonest_removal"] == [(True, True)] * 423
