"""Parameter/bound formula tests: exact rational values and properties."""

import itertools
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qotsim.params import (
    _EVENTS,
    _binomial_walk,
    Case,
    InvalidChoiceCount,
    InvalidN,
    build_bound_report,
    case_of,
    commitment_attack_bound,
    compute_x,
    correctness_deviation,
    correctness_epsilon,
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


@settings(max_examples=100, deadline=None)
@given(nm=nm_pairs, floor=st.integers(min_value=1, max_value=50))
def test_smallest_valid_N_is_least_admissible(nm, floor):
    n, m = nm
    N = smallest_valid_N(n, m, floor)
    validate_params(n, m, N)
    for k in range(floor, N):
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
    with pytest.raises(ValueError):
        min_N(0)


def test_min_N_is_threshold_between_bounds():
    delta = 1 / 6
    N = min_N(delta)
    raw = lambda k: 2 * math.exp(-2 * k * delta**2)
    simple = lambda k: math.exp(-(delta**2)) ** k
    assert raw(N) < simple(N)
    assert raw(N - 1) >= simple(N - 1)


def test_hoeffding_bound_formula():
    assert hoeffding_bound(18, 1 / 6) == pytest.approx(2 / math.e, rel=1e-15)
    with pytest.raises(ValueError, match="deviation must be positive"):
        hoeffding_bound(10, 0)


def test_commitment_attack_bound_values():
    bound, eps = commitment_attack_bound(0.5, 4, 40, 8)
    assert bound == 0.5**8
    assert eps == pytest.approx(0.5 ** (1 / 8), rel=1e-15)
    assert bound < eps**40
    with pytest.raises(ValueError):
        commitment_attack_bound(1.0, 4, 40, 8)
    with pytest.raises(InvalidN):
        commitment_attack_bound(0.5, 4, 41, 8)


def test_bound_report_forms():
    report = build_bound_report(2, 1, N=18, p=0.5)
    assert report.hoeffding_privacy_form == "2*exp(-N/18)"
    assert report.hoeffding_correctness_form == "2*exp(-N/18)"
    assert report.hoeffding_privacy == pytest.approx(2 / math.e, rel=1e-12)
    assert report.min_N_privacy == 25
    assert report.x == 6 and report.subset_size == 6
    assert report.commitment_bound == pytest.approx(0.5**6, rel=1e-15)
    assert report.commitment_eps == pytest.approx(0.5**0.25, rel=1e-15)


def test_bound_report_without_N():
    report = build_bound_report(4, 1, p=0.3)
    assert report.N is None and report.hoeffding_privacy is None
    assert report.privacy_sign_anomaly
    assert report.commitment_eps == pytest.approx(0.3 ** (1 / 8), rel=1e-15)
    assert report.hoeffding_correctness_form == "2*exp(-N/50)"


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
                for event, pred in _EVENTS.items():
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


def _prefixes(N):
    """P[k] = sum(comb(N, M) for M < k), k = 0..N+1, from math.comb."""
    return [0, *itertools.accumulate(math.comb(N, M) for M in range(N + 1))]


def _walk_sum(P, weights):
    low = min(weights)
    return sum(w * (P[k] - P[low]) for k, w in weights.items())


def test_binomial_walk_sums_every_point_list():
    """Every set of 2 and 3 points in 0..N+1 at N <= 40: segments of odd and
    even length, walks from 0 and from past 0.  The i-th point weighs
    2^((N+1)i); every partial sum is below 2^(N+1), so the one integer the
    walk returns holds each point's partial sum as a separate digit."""
    checked = 0
    for N in range(1, 41):
        P = _prefixes(N)
        for size in (2, 3):
            for points in itertools.combinations(range(N + 2), size):
                weights = {k: 1 << (N + 1) * i for i, k in enumerate(points)}
                assert _binomial_walk(N, weights) == _walk_sum(P, weights), (N, points)
                checked += 1
    assert checked > 100_000


def test_binomial_walk_at_large_N():
    """Seven point sets at N = 1000, with the oracle's signed weights, and one
    short run at N = 33,000, where the step factors (N-M)(N-M-1) no longer
    fit one 30-bit digit."""
    P = _prefixes(1000)
    for weights in ({0: -1, 500: 1}, {0: 2, 1: -1, 2: 1, 3: -1}, {1: -1, 499: 1, 500: -1, 501: 2},
                    {137: -1, 400: 1}, {250: 1, 251: -2, 501: 1}, {0: -2, 501: 1},
                    {0: 1, 333: -1, 334: 1, 336: -1, 339: 1, 343: -1, 499: 3}):
        assert _binomial_walk(1000, weights) == _walk_sum(P, weights), weights
    N = 33_000
    assert (N - 3) * (N - 4) >= 1 << 30
    assert _binomial_walk(N, {3: -1, 10: 1}) == sum(math.comb(N, M) for M in range(3, 10))


def _admissible_Ns(n, m, N_max):
    Ns = [smallest_valid_N(n, m)]
    while Ns[-1] <= N_max:
        Ns.append(smallest_valid_N(n, m, Ns[-1] + 1))
    return Ns[:-1]


def test_event_predicates_agree_on_arrays_and_ints():
    """The oracle calls each predicate once on the whole support; brute force
    and the CLI call it on one int at a time."""
    for n in range(2, 7):
        for m in range(1, n):
            for N in _admissible_Ns(n, m, 60):
                params = validate_params(n, m, N)
                for event, pred in _EVENTS.items():
                    holds = pred(params, np.arange(N + 1))
                    assert holds.dtype == bool and holds.shape == (N + 1,)
                    assert holds.tolist() == [bool(pred(params, M)) for M in range(N + 1)], (
                        params, event)


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
