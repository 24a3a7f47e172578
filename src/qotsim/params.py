"""Derived protocol quantities and security bounds.

Admissibility decisions (target rate, removal count, subset size) use exact
integer/rational arithmetic; only final probability bounds are evaluated in
floating point.  Two labeled bound forms are exposed for each claim: the raw
two-sided concentration bound 2*exp(-2*N*delta^2) and the simplified eps^N
form with eps = exp(-delta^2), which dominates the raw bound once
N > ln(2)/delta^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import numpy as np


class Case(Enum):
    """Which side of 1/2 the target match rate (2m+1)/(2n) falls on."""

    LOW = "low"    # rate < 1/2: excess matching indices are removed
    HIGH = "high"  # rate >= 1/2: excess mismatching indices are removed


class ParameterError(ValueError):
    """Invalid protocol parameters."""


class InvalidChoiceCount(ParameterError):
    """m outside [1, n-1]."""


class InvalidN(ParameterError):
    """N fails an exact divisibility requirement."""


def target_rate(n: int, m: int) -> Fraction:
    """Target fraction of basis matches among surviving indices: (2m+1)/(2n)."""
    _require_choice_count(n, m)
    return Fraction(2 * m + 1, 2 * n)


def _require_choice_count(n: int, m: int) -> None:
    if not (isinstance(n, int) and isinstance(m, int)):
        raise InvalidChoiceCount(f"n and m must be integers, got n={n!r}, m={m!r}")
    if not 1 <= m < n:
        raise InvalidChoiceCount(f"require 1 <= m < n, got n={n}, m={m}")


def case_of(n: int, m: int) -> Case:
    _require_choice_count(n, m)
    return Case.LOW if 2 * m + 1 < n else Case.HIGH


def compute_x(n: int, m: int, N: int) -> int:
    """Removal count making the surviving match rate equal the target rate.

    Low case: x = (n-(2m+1))*N / (2n-(2m+1)); high case:
    x = ((2m+1)-n)*N / (2m+1).  Raises :class:`InvalidN` when the division
    is not exact.
    """
    _require_choice_count(n, m)
    if N < 1:
        raise InvalidN(f"require N >= 1, got {N}")
    if case_of(n, m) is Case.LOW:
        num, den = (n - (2 * m + 1)) * N, 2 * n - (2 * m + 1)
    else:
        num, den = ((2 * m + 1) - n) * N, 2 * m + 1
    if num % den != 0:
        raise InvalidN(
            f"removal count x = {num}/{den} is not an integer; "
            f"N={N} must make {den} divide {num}"
        )
    return num // den


@dataclass(frozen=True)
class ProtocolParams:
    """Validated parameter set with all derived quantities."""

    n: int
    m: int
    N: int
    case: Case
    x: int
    subset_size: int
    target_rate: Fraction


def validate_params(n: int, m: int, N: int) -> ProtocolParams:
    """Check every admissibility constraint and return the populated params.

    Constraints: 1 <= m < n; N >= 1; the removal count x exact; and (N-x)
    divisible by n so equal-size subsets exist.  The first violated
    constraint raises (:class:`InvalidChoiceCount` or :class:`InvalidN`).
    """
    x = compute_x(n, m, N)
    if (N - x) % n != 0:
        raise InvalidN(
            f"(N - x) = {N - x} must be divisible by n = {n} "
            f"to form equal-size subsets"
        )
    return ProtocolParams(
        n=n,
        m=m,
        N=N,
        case=case_of(n, m),
        x=x,
        subset_size=(N - x) // n,
        target_rate=target_rate(n, m),
    )


def smallest_valid_N(n: int, m: int, floor: int = 1) -> int:
    """Least admissible N >= floor.  Always terminates: admissibility is periodic."""
    N = max(1, int(floor))
    while True:
        try:
            validate_params(n, m, N)
            return N
        except InvalidN:
            N += 1


def hoeffding_bound(trials: int, deviation: float) -> float:
    """Two-sided tail bound 2*exp(-2*N*delta^2) on the empirical mean of
    `trials` = N independent variables in [0, 1] at `deviation` = delta > 0.

    May exceed 1 (vacuous) for small N; callers clamp for reporting.
    """
    if deviation <= 0:
        raise ValueError("deviation must be positive")
    return 2.0 * math.exp(-2.0 * trials * float(deviation) ** 2)


def correctness_deviation(n: int, m: int) -> Fraction:
    """Deviation delta_c in the correctness tail bound (exact rational)."""
    if case_of(n, m) is Case.LOW:
        return Fraction(n - m, 2 * n - (2 * m + 1)) - Fraction(1, 2)
    return Fraction(1, 2) - Fraction(m, 2 * m + 1)


def correctness_epsilon(n: int, m: int) -> tuple[Fraction, float]:
    """(delta_c, eps_c) with eps_c = exp(-delta_c^2) < 1; delta_c is
    1/(2(2n-2m-1)) (low case) or 1/(2(2m+1)) (high case), always positive."""
    delta = correctness_deviation(n, m)
    return delta, math.exp(-float(delta) ** 2)


def privacy_deviation_signed(n: int, m: int) -> Fraction:
    """Privacy deviation exactly as written in the source analysis.

    In the low case this expression, 1/2 - (n-m)/(2n-(2m+1)), is negative
    for every admissible (n, m) despite being asserted positive; callers use
    the absolute value and flag the sign anomaly rather than guessing intent.
    """
    if case_of(n, m) is Case.LOW:
        return Fraction(1, 2) - Fraction(n - m, 2 * n - (2 * m + 1))
    return Fraction(m + 1, 2 * m + 1) - Fraction(1, 2)


def privacy_sign_anomaly(n: int, m: int) -> bool:
    """True when the stated privacy deviation is non-positive as written."""
    return privacy_deviation_signed(n, m) <= 0


def privacy_epsilon(n: int, m: int) -> tuple[Fraction, float]:
    """(|delta_p|, eps_p) with eps_p = exp(-delta_p^2) < 1; |delta_p| equals
    delta_c in both cases, so it is always positive."""
    delta = abs(privacy_deviation_signed(n, m))
    return delta, math.exp(-float(delta) ** 2)


def min_N(delta) -> int:
    """Least integer strictly greater than ln(2)/delta^2.

    Beyond this threshold the raw bound 2*exp(-2*N*delta^2) drops below the
    simplified form exp(-N*delta^2).
    """
    d = float(delta)
    if d <= 0:
        raise ValueError("deviation must be positive")
    return math.floor(math.log(2.0) / d**2) + 1


def check_cheat_probability(p: float | None) -> None:
    """Reject a cheat probability (a forged unveil's chance to pass) outside (0, 1)."""
    if p is None or not 0.0 < p < 1.0:
        raise ValueError(f"cheat probability must be in (0,1), got {p}")


def commitment_attack_bound(p: float, n: int, N: int, x: int) -> tuple[float, float]:
    """Success bound for forging one extra all-matching subset.

    Returns (p^((N-x)/n), eps) with eps = p^(1/(2n)).  The bound is strictly
    below eps^N because (N-x)/n > N/(2n), i.e. x < N/2, for every admissible
    parameter set (the floats may both underflow to 0 for tiny p).
    """
    check_cheat_probability(p)
    if (N - x) % n != 0:
        raise InvalidN(f"(N - x) = {N - x} must be divisible by n = {n}")
    forgeries = (N - x) // n
    bound = p**forgeries
    eps = p ** (1.0 / (2 * n))
    return bound, eps


def _honest_run_feasible(params: ProtocolParams, matches):
    """Can an honest Bob with this survivor match count finish the protocol?"""
    if params.case is Case.LOW:
        return (matches >= params.x) & (matches - params.x >= params.m * params.subset_size)
    return (params.N - matches >= params.x) & (matches >= params.m * params.subset_size)


def _extra_bit_feasible(params: ProtocolParams, matches):
    """Can a greedy Bob form m+1 all-matching subsets while complying with removal?"""
    if params.case is Case.LOW:
        return matches >= params.x + (params.m + 1) * params.subset_size
    return _dishonest_removal_feasible(params, matches)  # high case: both remove mismatches


def _dishonest_removal_feasible(params: ProtocolParams, matches):
    """Low case: Bob removes mismatches instead, keeping all matches for subsets."""
    need = (params.m + 1) * params.subset_size
    return (params.N - matches >= params.x) & (matches >= need)


_EVENTS = {  # predicate(params, M) takes M as an int or an int array and answers in kind
    "correctness": lambda p, M: np.logical_not(_honest_run_feasible(p, M)),
    "privacy": _extra_bit_feasible,
    "privacy_dishonest_removal": _dishonest_removal_feasible,
}


def _binomial_run(N: int, a: int, b: int) -> int:
    """sum(comb(N, M) for M in range(a, b)), from its cheaper side: a run over half
    the support is 2^N minus the two sides outside it; a shorter one is walked from
    comb(N, a) by comb(N, M+1) = comb(N, M) * (N-M) // (M+1)."""
    if 2 * (b - a) > N + 1:
        return (1 << N) - _binomial_run(N, 0, a) - _binomial_run(N, b, N + 1)
    total, c = 0, math.comb(N, a)
    for M in range(a, b):
        total += c
        c = c * (N - M) // (M + 1)
    return total


def exact_failure_oracle(params: ProtocolParams, event: str = "correctness") -> Fraction:
    """Exact probability of the event under M ~ Binomial(N, 1/2).

    Events: "correctness" (honest Bob cannot finish), "privacy" (a greedy
    Bob can decode m+1 bits), "privacy_dishonest_removal".

    A literal sum over the binomial support in integers: one predicate call
    on M = 0..N marks the hits, each run [a, b) of consecutive hits adds its
    comb(N, M) terms (:func:`_binomial_run`), and one rational, hits / 2^N,
    is built at the end.
    """
    pred = _EVENTS.get(event)
    if pred is None:
        raise ValueError(f"unknown event {event!r}; one of {sorted(_EVENTS)}")
    N = params.N
    holds = pred(params, np.arange(N + 1))
    edges = [0, *(np.flatnonzero(holds[1:] != holds[:-1]) + 1).tolist(), N + 1]
    runs = edges if holds[0] else edges[1:]  # start, end, start, end, ... of the hit runs
    hits = sum(_binomial_run(N, a, b) for a, b in zip(runs[::2], runs[1::2]))
    return Fraction(hits, 1 << N)


@dataclass(frozen=True)
class BoundReport:
    """Every bound and threshold for one parameter set (and optional p, N)."""

    n: int
    m: int
    case: str
    target_rate: str
    delta_correctness: str
    delta_privacy: str
    privacy_sign_anomaly: bool
    eps_correctness: float
    eps_privacy: float
    hoeffding_correctness_form: str  # "2*exp(-c*N)" with exact rational c = 2*delta^2
    hoeffding_privacy_form: str
    min_N_correctness: int
    min_N_privacy: int
    N: int | None = None
    x: int | None = None
    subset_size: int | None = None
    hoeffding_correctness: float | None = None  # 2*exp(-2*N*delta_c^2)
    hoeffding_privacy: float | None = None      # 2*exp(-2*N*delta_p^2)
    eps_correctness_pow_N: float | None = None
    eps_privacy_pow_N: float | None = None
    p: float | None = None
    commitment_eps: float | None = None         # p^(1/(2n))
    commitment_bound: float | None = None       # p^((N-x)/n)


def _bound_form(delta: Fraction) -> str:
    """Closed form of the raw tail bound, with exact rational exponent rate."""
    rate = 2 * delta * delta
    if rate.numerator == 1:
        return f"2*exp(-N/{rate.denominator})"
    return f"2*exp(-{rate.numerator}*N/{rate.denominator})"


def build_bound_report(
    n: int, m: int, N: int | None = None, p: float | None = None
) -> BoundReport:
    """Assemble a :class:`BoundReport`; N enables per-N bounds, p the
    commitment-attack figures (commitment_bound additionally needs N)."""
    if p is not None:
        check_cheat_probability(p)
    delta_c, eps_c = correctness_epsilon(n, m)
    delta_p, eps_p = privacy_epsilon(n, m)
    fields: dict = dict(
        n=n,
        m=m,
        case=case_of(n, m).value,
        target_rate=str(target_rate(n, m)),
        delta_correctness=str(delta_c),
        delta_privacy=str(delta_p),
        privacy_sign_anomaly=privacy_sign_anomaly(n, m),
        eps_correctness=eps_c,
        eps_privacy=eps_p,
        hoeffding_correctness_form=_bound_form(delta_c),
        hoeffding_privacy_form=_bound_form(delta_p),
        min_N_correctness=min_N(delta_c),
        min_N_privacy=min_N(delta_p),
        p=p,
    )
    if N is not None:
        params = validate_params(n, m, N)
        fields.update(
            N=N,
            x=params.x,
            subset_size=params.subset_size,
            hoeffding_correctness=hoeffding_bound(N, float(delta_c)),
            hoeffding_privacy=hoeffding_bound(N, float(delta_p)),
            eps_correctness_pow_N=eps_c**N,
            eps_privacy_pow_N=eps_p**N,
        )
        if p is not None:
            bound, eps = commitment_attack_bound(p, n, N, params.x)
            fields.update(commitment_bound=bound, commitment_eps=eps)
    elif p is not None:
        fields.update(commitment_eps=p ** (1.0 / (2 * n)))
    return BoundReport(**fields)
