"""Derived protocol quantities and security bounds.

Admissibility decisions (target rate, removal count, subset size) use exact
integer/rational arithmetic; only final probability bounds are evaluated in
floating point.  Two labeled bound forms are exposed for each claim: the raw
two-sided concentration bound 2*exp(-2*N*delta^2) and the simplified eps^N
form with eps = exp(-delta^2), which dominates the raw bound once N > ln(2)/delta^2.
Each exact event is at most two runs of the survivor match count M ~ Binomial(N, 1/2),
with closed-form ends (:func:`event_runs`), and the oracle sums binomial terms over them
in plain integers, from one walk per N, shared by every (n, m) and event, resumed from
checkpoints in a bounded cache keyed on N, into a rational built in lowest terms without
a gcd.  A bound report's (n, m) fields and a checked (n, m, N) are kept too, and both
records are filled once (:func:`_record`), not field by field.
"""

from __future__ import annotations

import collections
import functools
import math
import numbers
import sys
from dataclasses import dataclass, fields
from enum import Enum
from fractions import Fraction


class _Numpy:
    """numpy, imported on the first attribute read, which then binds every qotsim module's
    ``np`` to numpy itself; the import lock makes the import happen once."""

    def __getattr__(self, name):
        import numpy
        for module_name, module in list(sys.modules.items()):
            if module_name.startswith(__package__) and getattr(module, "np", None) is self:
                module.np = numpy
        return getattr(numpy, name)


np = _Numpy()  # the engine's numpy; the exact layer never reads it


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


def _is_int(value) -> bool:
    """An int proper: a bool, float or numpy integer is not a count."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_integer(value) -> bool:
    """An int or a numpy integer; a bool is not one."""
    return isinstance(value, int) and not isinstance(value, bool) or isinstance(value, np.integer)


def _require_choice_count(n: int, m: int) -> None:
    if not (_is_int(n) and _is_int(m)):
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
    if not _is_int(N) or N < 1:
        raise InvalidN(f"require an integer N >= 1, got N={N!r}")
    if 2 * m + 1 < n:  # the low case
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


def _record(cls, **values):
    """A frozen dataclass `cls` whose dict is `values`, every field in order: one fill."""
    object.__setattr__(record := object.__new__(cls), "__dict__", values)
    return record


def validate_params(n: int, m: int, N: int) -> ProtocolParams:
    """Check every admissibility constraint and return the populated params.

    Constraints: n, m and N are ints (not bools); 1 <= m < n; N >= 1; the
    removal count x exact; and (N-x) divisible by n so equal-size subsets
    exist.  The first violated constraint raises (:class:`InvalidChoiceCount`
    or :class:`InvalidN`).  Three ints proper are answered from a bounded
    cache of checked sets; anything else, and every refusal, is checked anew.
    """
    return (_validated if type(n) is type(m) is type(N) is int else _validated.__wrapped__)(n, m, N)


@functools.lru_cache(maxsize=32)
def _validated(n: int, m: int, N: int) -> ProtocolParams:
    x = compute_x(n, m, N)
    if (N - x) % n != 0:
        raise InvalidN(f"(N - x) = {N - x} must be divisible by n = {n} to form equal-size subsets")
    # compute_x has checked (n, m)
    return _record(ProtocolParams, n=n, m=m, N=N, case=Case.LOW if 2 * m + 1 < n else Case.HIGH,
                   x=x, subset_size=(N - x) // n, target_rate=Fraction(2 * m + 1, 2 * n))


def smallest_valid_N(n: int, m: int, floor: float = 1) -> int:
    """Least admissible N >= floor, any finite real (a bool or str is refused).
    Always terminates: admissibility is periodic."""
    if isinstance(floor, bool) or not isinstance(floor, numbers.Real):
        raise ValueError(f"floor must be a real number, got {floor!r}")
    try:
        N = max(1, math.ceil(floor))
    except (ValueError, OverflowError) as exc:  # NaN, +-inf
        raise ValueError(f"floor must be a finite number, got {floor!r}") from exc
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
    if not (_is_int(trials) and trials > 0):
        raise ValueError(f"trials must be an integer >= 1, got {trials!r}")
    if not deviation > 0:  # NaN too
        raise ValueError("deviation must be positive")
    return 2.0 * math.exp(-2.0 * trials * float(deviation) ** 2)


def correctness_deviation(n: int, m: int) -> Fraction:
    """Deviation delta_c = 1/(2k) in the correctness tail bound (exact rational): k =
    2n-2m-1 in the low case, (n-m)/k - 1/2, and 2m+1 in the high case, 1/2 - m/k."""
    k = 2 * n - 2 * m - 1 if case_of(n, m) is Case.LOW else 2 * m + 1
    return Fraction(1, 2 * k)


def correctness_epsilon(n: int, m: int) -> tuple[Fraction, float]:
    """(delta_c, eps_c) with eps_c = exp(-delta_c^2) < 1; delta_c is
    1/(2(2n-2m-1)) (low case) or 1/(2(2m+1)) (high case), always positive."""
    delta = correctness_deviation(n, m)
    return delta, math.exp(-float(delta) ** 2)


def privacy_deviation_signed(n: int, m: int) -> Fraction:
    """Privacy deviation exactly as written in the source analysis: -delta_c in
    the low case, where 1/2 - (n-m)/(2n-(2m+1)) is negative for every
    admissible (n, m) despite being asserted positive, and delta_c in the
    high case, (m+1)/(2m+1) - 1/2.  Callers use the absolute value and flag
    the sign anomaly rather than guessing intent."""
    delta = correctness_deviation(n, m)
    return -delta if case_of(n, m) is Case.LOW else delta


def privacy_epsilon(n: int, m: int) -> tuple[Fraction, float]:
    """(|delta_p|, eps_p) with eps_p = exp(-delta_p^2): |delta_p| is delta_c in
    both cases, so this is :func:`correctness_epsilon`."""
    return correctness_epsilon(n, m)


def min_N(delta) -> int:
    """Least integer strictly greater than ln(2)/delta^2.

    Beyond this threshold the raw bound 2*exp(-2*N*delta^2) drops below the
    simplified form exp(-N*delta^2).
    """
    d = float(delta)
    if not d > 0:  # NaN too
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
    parameter set (the floats may both underflow to 0 for tiny p).  n, N and
    x are ints proper with n, N >= 1 and 0 <= x < N.
    """
    check_cheat_probability(p)
    if not (_is_int(n) and _is_int(N) and _is_int(x) and n >= 1 and 0 <= x < N):
        raise ParameterError(f"require ints n >= 1, N >= 1 and 0 <= x < N, "
                             f"got n={n!r}, N={N!r}, x={x!r}")
    if (N - x) % n != 0:
        raise InvalidN(f"(N - x) = {N - x} must be divisible by n = {n}")
    forgeries = (N - x) // n
    bound = p**forgeries
    eps = p ** (1.0 / (2 * n))
    return bound, eps


def _removal_runs(p: ProtocolParams) -> list[tuple[int, int]]:
    return [((p.m + 1) * p.subset_size, p.N - p.x + 1)]


_EVENTS = {  # event: runs(params), its runs of M, empty ones included (see event_runs)
    "correctness": lambda p: [(0, p.x + p.m * p.subset_size)] if p.case is Case.LOW
    else [(0, p.m * p.subset_size), (p.N - p.x + 1, p.N + 1)],
    "privacy": lambda p: [(p.x + (p.m + 1) * p.subset_size, p.N + 1)] if p.case is Case.LOW
    else _removal_runs(p),  # the high case's Bobs both remove mismatches
    "privacy_dishonest_removal": _removal_runs,
}


def event_runs(params: ProtocolParams, event: str) -> list[tuple[int, int]]:
    """The half-open runs [a, b) of the survivor match count M where `event`
    holds, in order, disjoint, empty runs dropped.  With s the subset size:

    - "correctness", an honest Bob cannot finish.  Low case: he removes x
      matches and fills m subsets with the rest, M >= x and M - x >= m*s, so
      the event is M < x + m*s: [0, x + m*s).  High case: he removes x
      mismatches and fills m subsets, N - M >= x and M >= m*s, so the event
      is M < m*s or M > N - x: [0, m*s) and [N - x + 1, N + 1), the second
      empty when x = 0 (m*s < n*s = N - x keeps the two apart).
    - "privacy", a greedy Bob fills m+1 subsets with matches while complying
      with removal.  Low case: M - x >= (m+1)*s, [x + (m+1)*s, N + 1).  High
      case: as dishonest removal, since both remove mismatches.
    - "privacy_dishonest_removal", Bob removes x mismatches instead and keeps
      every match: N - M >= x and M >= (m+1)*s, [(m+1)*s, N - x + 1).
    """
    runs = _EVENTS.get(event)
    if runs is None:
        raise ValueError(f"unknown event {event!r}; one of {sorted(_EVENTS)}")
    return [(a, b) for a, b in runs(params) if a < b]


@functools.lru_cache(maxsize=32)
def _checkpoints(N: int) -> dict[int, tuple]:
    """{j: (P(j), comb(N+1, j+1))} at j = 0, h, 2h, ... <= (N+1)/2, h = 2*max(1, N >> 6)
    (~N/32), and at -1 the last query's even end j as (j, P(j), comb(N+1, j+1)): at most
    34 entries, the walk of :func:`_prefix` that every (n, m) and event at N shares."""
    return {0: (0, N + 1)}


def _prefix(N: int, k: int) -> int:
    """P(k) = sum(comb(N, M) for M < k), 0 <= k <= N+1: 2^N - P(N+1-k) if 2k > N+1, else
    the walk up from the nearest checkpoint M <= k, adding comb(N, M) + comb(N, M+1) =
    comb(N+1, M+1) by the step comb(N+1, j+2) = comb(N+1, j) * (N+1-j)(N-j) // ((j+1)(j+2)),
    then one single term if k is odd; P(0) = 0 needs no walk."""
    if not k:
        return 0
    if 2 * k > N + 1:
        return (1 << N) - _prefix(N, N + 1 - k)
    walk, h, end = _checkpoints(N), N >> 5 & -2 or 2, k & ~1  # h = 2 * max(1, N >> 6)
    M, last = k - k % h, walk.get(-1, (0,))
    while M not in walk:  # past the walk so far
        M -= h
    M, total, pair = last if M < last[0] <= end else (M, *walk[M])  # pair = comb(N+1, M+1)
    for M in range(M, end, 2):
        total += pair
        pair = pair * ((N - M) * (N - M - 1)) // ((M + 2) * (M + 3))
        if (M + 2) % h == 0:
            walk[M + 2] = total, pair
    if end % h:
        walk[-1] = end, total, pair
    if end < k:
        total += pair * (end + 1) // (N + 1)
    return total


# a rational in lowest terms, which Fraction's one-argument numbers.Rational form copies
_Lowest = numbers.Rational.register(collections.namedtuple("_Lowest", "numerator denominator"))


def exact_failure_oracle(params: ProtocolParams, event: str = "correctness") -> Fraction:
    """Exact probability of the event under M ~ Binomial(N, 1/2).

    Events: "correctness" (honest Bob cannot finish), "privacy" (a greedy
    Bob can decode m+1 bits), "privacy_dishonest_removal".

    A sum in integers over the runs of :func:`event_runs`: a run [a, b) adds
    P(b) - P(a) with P(k) = sum(comb(N, M) for M < k).  Every P(k) comes
    from one walk per N (:func:`_prefix`), shared by every (n, m) and event
    and resumed from checkpoints in a bounded cache keyed on N; each call
    builds its own rational, hits / 2^N, in lowest terms without a gcd: the
    only common factors are the twos at the foot of hits.
    """
    runs, N = event_runs(params, event), params.N
    hits = sum(_prefix(N, b) - _prefix(N, a) for a, b in runs)
    twos = (hits & -hits or 1 << N).bit_length() - 1  # N when hits is 0
    return Fraction(_Lowest(hits >> twos, 1 << N - twos))


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


@functools.lru_cache(maxsize=32)
def _bound_constants(n: int, m: int) -> tuple[dict, float]:
    """A checked (n, m)'s report fields that depend on neither N nor p, and the
    float deviation delta; callers copy the dict, which holds every field, None if unset.
    Both tail bounds share delta = 1/(2k), so each privacy field repeats its correctness one."""
    delta, eps = correctness_epsilon(n, m)
    fd = float(delta)
    # the raw bound's closed form "2*exp(-c*N)": its rate c = 2*delta^2 is 1/(2k^2)
    form, least = f"2*exp(-N/{delta.denominator**2 // 2})", min_N(fd)
    return dict(
        dict.fromkeys(f.name for f in fields(BoundReport)),
        n=n, m=m, case=case_of(n, m).value, target_rate=str(Fraction(2 * m + 1, 2 * n)),
        delta_correctness=str(delta), delta_privacy=str(delta),
        privacy_sign_anomaly=privacy_deviation_signed(n, m) < 0,
        eps_correctness=eps, eps_privacy=eps,
        hoeffding_correctness_form=form, hoeffding_privacy_form=form,
        min_N_correctness=least, min_N_privacy=least,
    ), fd


def build_bound_report(
    n: int, m: int, N: int | None = None, p: float | None = None
) -> BoundReport:
    """Assemble a :class:`BoundReport`; N enables per-N bounds, p the
    commitment-attack figures (commitment_bound additionally needs N).
    The (n, m) fields are built once per pair (:func:`_bound_constants`)."""
    if p is not None:
        check_cheat_probability(p)
    _require_choice_count(n, m)  # before the lookup: [2], True and 2.0 are refused
    constants, delta = _bound_constants(n, m)
    values = dict(constants, p=p)
    if N is not None:
        params = validate_params(n, m, N)
        raw, eps_pow = hoeffding_bound(N, delta), values["eps_correctness"] ** N
        values.update(N=N, x=params.x, subset_size=params.subset_size,
                      hoeffding_correctness=raw, hoeffding_privacy=raw,
                      eps_correctness_pow_N=eps_pow, eps_privacy_pow_N=eps_pow)
        if p is not None:
            bound, eps = commitment_attack_bound(p, n, N, params.x)
            values.update(commitment_bound=bound, commitment_eps=eps)
    elif p is not None:
        values.update(commitment_eps=p ** (1.0 / (2 * n)))
    return _record(BoundReport, **values)
