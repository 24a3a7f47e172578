"""Monte Carlo experiments, exact oracles, and bound verdicts.

Every empirical rate is checked two ways: against an exact binomial oracle
(3-sigma tolerance) and against the analytic bounds (a one-sided <= check,
only at N past the threshold where the simplified bound is non-vacuous).
An experiment's randomness is one Philox key, derived from its seed, and
trial k owns the k-th fixed-width block of words of that key's stream (see
:meth:`RandomSource.block`).  Trials run in batches of
:data:`~qotsim.protocol.CHUNK` through the batched session engine, so
results are independent of batching and execution order, reproducible
byte-for-byte, and any trial can be replayed from (seed, trial index).

The privacy test runs the trials of every choice vector through the same
engine, in one row sequence, and compares the vectors pairwise with a
chi-square test of independence (:func:`chi2_contingency`).  That test
does scipy.stats' arithmetic in numpy and loads only ``scipy.special``,
for the p-value, on its first call.  Reports come from a one-pass writer,
byte-identical to ``json.dumps(indent=2)`` of the :func:`round_sig` document.
The brute-force check enumerates all 2^N outcomes in chunks and reads each
outcome's event bit from an integer bit table indexed by match count.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import __version__
from .adversary import STRATEGIES, DishonestRemovalBob, LeakyBob, Strategy
from .channel import RandomSource
from .params import (
    _EVENTS,
    ProtocolParams,
    case_of,
    commitment_attack_bound,
    correctness_epsilon,
    exact_failure_oracle,  # re-exported: the oracle lives in params
    hoeffding_bound,
    min_N,
    validate_params,
)
from .protocol import (
    STATUSES,
    Draws,
    check_inputs,
    chunks,
    run_protocol,
    session_width,
)

# 99% two-sided normal quantile, for Wilson intervals
_Z99 = 2.5758293035489004


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: parameter set, trial count, seed, strategy, IO modes."""

    n: int
    m: int
    N: int
    trials: int
    seed: int
    strategy: Strategy = Strategy("honest")
    bits: tuple[int, ...] | None = None      # None: fresh random bits per trial
    choices: tuple[int, ...] | None = None   # None: fresh random choices per trial

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        check_inputs(self.n, self.m, self.bits, self.choices)
        RandomSource(self.seed)  # refuses a seed outside the signed 64-bit range
        if self.strategy.kind == "dishonest-removal":
            DishonestRemovalBob.check_case(case_of(self.n, self.m))


@dataclass
class AggregateStats:
    """Order-independent aggregation over the trials of one experiment."""

    trials: int
    strategy: str
    event_name: str
    event_count: int
    event_rate: float
    wilson_low: float
    wilson_high: float
    completed: int
    aborts: dict[str, int]
    wrong_decodes: int
    oracle_rate: float
    oracle_exact: str | None = None


@dataclass
class Verdict:
    """One pass/fail comparison between an observed value and a reference."""

    criterion: str
    empirical: float
    reference: float
    relation: str  # "within_3sigma" | "le" | "eq"
    passed: bool
    tolerance: float | None = None


def wilson_interval(successes: int, trials: int, z: float = _Z99) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials == 0:
        return 0.0, 1.0
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


# ---------------------------------------------------------------------------
# exact oracles
# ---------------------------------------------------------------------------

def brute_force_failure_probability(params: ProtocolParams, event: str = "correctness") -> Fraction:
    """Independent check of the oracle: enumerate all 2^N basis-coin outcomes.

    Walks every outcome of the N <= 20 survivor basis-agreement coins in
    chunks.  The event table is an int with bit M set iff the event holds at match
    count M; a uint32 array holds 1 << popcount(l) for the 2^min(N,16) low mask
    bits l, and for high prefix h each outcome ANDs its entry with the table
    shifted down by popcount(h).  The nonzero results are tallied.
    """
    N = params.N
    if N > 20:
        raise ValueError("brute force enumeration is limited to N <= 20")
    pred = _EVENTS[event]
    # predicate depends on the match count only; evaluate once per count,
    # but tally outcome-by-outcome so the enumeration stays the checked route
    table = sum(1 << M for M in range(N + 1) if pred(params, M))
    low = np.uint32(1) << np.bitwise_count(np.arange(1 << min(N, 16), dtype=np.uint32))
    hits = sum(int(np.count_nonzero(low & np.uint32(table >> h.bit_count())))
               for h in range(1 << max(N - 16, 0)))
    return Fraction(hits, 1 << N)


# ---------------------------------------------------------------------------
# experiment runner
# ---------------------------------------------------------------------------

def run_experiment(config: ExperimentConfig) -> AggregateStats:
    """Execute the configured trials and aggregate counts.

    The tracked event is the strategy's (see :data:`STRATEGIES`): honest runs
    count aborts and wrong decodes (correctness failures); adversarial runs
    count successes (postpone Bob's "success" is surviving the challenge
    phase).  Trial k of the experiment is trial k of the stream
    ``RandomSource(seed).stream("trials")``.
    """
    params = validate_params(config.n, config.m, config.N)
    rng = RandomSource(config.seed).stream("trials")
    strategy = config.strategy
    spec = STRATEGIES[strategy.kind]
    counts = np.zeros(len(STATUSES), dtype=np.int64)
    wrong = 0
    event_count = 0
    for start, count in chunks(config.trials, params):
        out = spec.run(params, strategy, rng, start, count, config.bits, config.choices)
        counts += np.bincount(out.status, minlength=len(STATUSES))
        wrong += int(out.wrong_decode.sum())
        event_count += int(spec.hit(out).sum())
    completed = int(counts[0])
    aborts = {s.value: int(c) for s, c in zip(STATUSES[1:], counts[1:]) if c}

    rate = event_count / config.trials
    low, high = wilson_interval(event_count, config.trials)
    oracle = spec.reference(params, strategy)
    return AggregateStats(
        trials=config.trials, strategy=strategy.kind, event_name=spec.event,
        event_count=event_count, event_rate=rate, wilson_low=low, wilson_high=high,
        completed=completed, aborts=aborts, wrong_decodes=wrong, oracle_rate=float(oracle),
        oracle_exact=str(oracle) if isinstance(oracle, Fraction) else None,
    )


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------

def check_bounds(stats: AggregateStats, params: ProtocolParams) -> list[Verdict]:
    """Compare empirical rates with the exact oracle (3-sigma) and with the
    analytic bounds of the strategy's bound family (<=, only at N >= the
    non-vacuity threshold)."""
    q = stats.oracle_rate
    tol = 3 * math.sqrt(q * (1 - q) / stats.trials)
    verdicts = [Verdict(f"{stats.event_name}_rate_within_3sigma_of_oracle", stats.event_rate,
                        q, "within_3sigma", abs(stats.event_rate - q) <= tol, tolerance=tol)]

    bound = STRATEGIES[stats.strategy].bound
    if bound is correctness_epsilon:
        verdicts.append(Verdict("completed_runs_decode_exactly", float(stats.wrong_decodes),
                                0.0, "eq", stats.wrong_decodes == 0))

    if bound is commitment_attack_bound:
        # q = p^s and eps^N = p^(N/(2n)) = q^(N/(2ns)); both may underflow
        # to 0.0, so p^s < eps^N is decided exactly: it holds iff 2ns > N.
        s = params.subset_size
        verdicts.append(Verdict("commitment_bound_lt_eps_pow_N", q,
                                q ** (params.N / (2 * params.n * s)), "le",
                                2 * params.n * s > params.N))
    elif bound is not None:
        delta, eps = bound(params.n, params.m)
        if params.N >= min_N(delta):
            raw = hoeffding_bound(params.N, float(delta))
            eps_pow = eps**params.N
            for criterion, value, reference, limit in (
                ("oracle_le_hoeffding_bound", q, min(raw, 1.0), raw),
                ("oracle_le_eps_pow_N", q, eps_pow, eps_pow),
                ("empirical_le_eps_pow_N", stats.event_rate, eps_pow, eps_pow),
            ):
                verdicts.append(Verdict(criterion, value, reference, "le", value <= limit))
    return verdicts


# ---------------------------------------------------------------------------
# privacy independence test
# ---------------------------------------------------------------------------

def chi2_contingency(table):
    """Pearson's chi-square test of independence on a 2-D contingency table.

    Returns (stat, p, dof, expected), computed as scipy.stats.chi2_contingency
    computes them, so the values are equal to scipy's.  The expected counts
    are the outer product of the margins over the table total; at dof 1
    every cell first moves toward its expected count by at most 0.5 (Yates'
    correction); the statistic sums over the whole table, and p is the
    chi-square survival function of scipy.special, imported on the first
    call so that importing the package loads no scipy.  dof 0 gives stat 0
    and p 1.  A negative cell, an empty table or a zero expected count
    raises ValueError, as in scipy; so does an all-zero table, for which
    scipy would return NaNs.
    """
    observed = np.asarray(table)
    if observed.ndim != 2:
        raise ValueError(f"need a 2-D table, got {observed.ndim} dimensions")
    if np.any(observed < 0):
        raise ValueError("all table values must be nonnegative")
    if observed.size == 0:
        raise ValueError("no data: the table has size 0")
    counts = observed.astype(np.float64)
    total = counts.sum()
    if total == 0:
        raise ValueError("no data: the table total is 0")
    expected = counts.sum(axis=1, keepdims=True) * counts.sum(axis=0, keepdims=True)
    expected /= total
    if np.any(expected == 0):
        cell = tuple(int(i) for i in np.argwhere(expected == 0)[0])
        raise ValueError(f"the table of expected counts has a zero at {cell}")
    dof = expected.size - sum(expected.shape) + 1
    if dof == 0:
        return 0.0, 1.0, dof, expected
    if dof == 1:
        diff = expected - observed
        observed = observed + np.minimum(0.5, np.abs(diff)) * np.sign(diff)
    stat = ((observed - expected) ** 2 / expected).sum()
    from scipy.special import chdtrc

    return stat, chdtrc(dof, stat), dof, expected


def check_privacy_test(trials_per_choice: int, seed: int, significance: float = 0.001) -> None:
    """Refuse a privacy test that cannot run: fewer than one trial per choice
    vector, a significance outside (0, 1) or a seed outside 64 bits."""
    if trials_per_choice < 1:
        raise ValueError(f"trials_per_choice must be >= 1, got {trials_per_choice}")
    if not 0.0 < significance < 1.0:
        raise ValueError(f"significance must be in (0, 1), got {significance}")
    RandomSource(seed)


def privacy_independence_test(
    params: ProtocolParams,
    trials_per_choice: int,
    seed: int,
    significance: float = 0.001,
    leaky: bool = False,
) -> dict:
    """Distinguishability test of Alice's view across Bob's choice vectors.

    For every choice vector, runs honest sessions and records which announced
    subset holds the smallest surviving slot (a feature of Alice's view).
    Pairwise chi-square tests at Bonferroni-corrected significance; under the
    uniform-announcement claim all pairs should be indistinguishable.  The
    `leaky` flag swaps in the deterministic positive-control Bob.

    Vector v's trials are trials 0 .. `trials_per_choice`-1 of the stream
    ``RandomSource(seed).stream("choice/<labels>")``.  The trials of all
    vectors run as one row sequence, vector after vector, cut into engine
    batches by :func:`~qotsim.protocol.chunks`; a batch may hold the rows
    of two vectors, each with its own chosen labels.

    A vector none of whose sessions completed has no feature distribution
    to test: the report lists it under ``untestable_vectors``, and each of
    its pairs has a null ``p_value`` and total variation, ``untestable``
    set and ``passed`` false, so ``all_pass`` is false.
    """
    check_privacy_test(trials_per_choice, seed, significance)
    n, m = params.n, params.m
    T = trials_per_choice
    choice_vectors = list(itertools.combinations(range(1, n + 1), m))
    root = RandomSource(seed)
    rngs = [root.stream(f"choice/{','.join(map(str, cv))}") for cv in choice_vectors]
    masks = np.zeros((len(choice_vectors), n), dtype=bool)
    np.put_along_axis(masks, np.array(choice_vectors) - 1, True, axis=1)
    tally = np.zeros(len(choice_vectors) * n, dtype=np.int64)
    width = session_width(params)
    for start, count in chunks(len(choice_vectors) * T, params):
        stop = start + count
        vector = np.arange(start, stop) // T  # row r is trial r % T of vector r // T
        words = []
        for v in range(vector[0], vector[-1] + 1):
            lo, hi = max(start, v * T), min(stop, (v + 1) * T)
            words.append(rngs[v].block(width, lo - v * T, hi - lo))
        state = run_protocol(params, (0,) * n, masks[vector], Draws(params, np.concatenate(words)),
                             bob=LeakyBob() if leaky else None)
        if state.recovered is not None:  # some row completed
            live = state.live()
            # subsets are sorted: column 0 holds each subset's smallest slot
            firsts = state.family[live, :, 0].argmin(axis=1)
            tally += np.bincount(vector[live] * n + firsts, minlength=tally.size)
    counts = dict(zip(choice_vectors, tally.reshape(-1, n)))

    pairs = []
    n_pairs = math.comb(len(choice_vectors), 2)
    corrected = significance / max(1, n_pairs)
    max_tv = 0.0
    all_pass = True
    # a vector that completed no session has no feature distribution to test
    untestable = [cv for cv in choice_vectors if not counts[cv].any()]
    for a, b in itertools.combinations(choice_vectors, 2):
        if a in untestable or b in untestable:
            all_pass = False
            pairs.append({"choice_a": list(a), "choice_b": list(b), "p_value": None,
                          "total_variation": None, "passed": False, "untestable": True})
            continue
        table = np.vstack([counts[a], counts[b]])
        keep = table.sum(axis=0) > 0
        _, p_value, _, _ = chi2_contingency(table[:, keep])
        fa = counts[a] / counts[a].sum()
        fb = counts[b] / counts[b].sum()
        tv = 0.5 * float(np.abs(fa - fb).sum())
        max_tv = max(max_tv, tv)
        passed = p_value >= corrected
        all_pass = all_pass and passed
        pairs.append({"choice_a": list(a), "choice_b": list(b), "p_value": float(p_value),
                      "total_variation": tv, "passed": bool(passed)})
    report = {"n": n, "m": m, "N": params.N, "trials_per_choice": trials_per_choice,
              "leaky": leaky, "significance": significance, "corrected_significance": corrected,
              "feature_counts": {",".join(map(str, cv)): c.tolist() for cv, c in counts.items()}}
    if untestable:
        report["untestable_vectors"] = [list(cv) for cv in untestable]
    return report | {"pairs": pairs, "max_total_variation": max_tv, "all_pass": bool(all_pass)}


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------

def round_sig(value, digits: int = 12):
    """Recursively round floats to `digits` significant digits for stable output."""
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        return float(f"{value:.{digits}g}")
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, dict):
        return {k: round_sig(v, digits) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [round_sig(v, digits) for v in value]
    return value


_quote = json.encoder.encode_basestring_ascii
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _write_json(value, newline: str, put) -> None:
    """Write json.dumps(round_sig(value), indent=2) at indent `newline` through `put`."""
    if isinstance(value, str):
        put(_quote(value))
    elif isinstance(value, float):
        text = float.__repr__(float(f"{value:.12g}"))
        put(_NON_FINITE.get(text, text))
    elif isinstance(value, (dict, list, tuple)):
        is_dict = isinstance(value, dict)
        opening, closing = "{}" if is_dict else "[]"
        inner = newline + "  "
        sep = opening + inner
        for key, item in value.items() if is_dict else enumerate(value):
            if is_dict:  # keys are not rounded; json.dumps itself writes or refuses them
                sep += (_quote(key) if isinstance(key, str) else json.dumps({key: 0})[1:-4]) + ": "
            put(sep)
            _write_json(item, inner, put)
            sep = "," + inner
        put(newline + closing if value else opening + closing)
    elif value is None or value is True or value is False:
        put("null" if value is None else "true" if value else "false")
    elif isinstance(value, int):
        put(int.__repr__(value))
    elif isinstance(value, Fraction):
        put(_quote(str(value)))
    else:
        raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


def emit_report(
    config: dict,
    stats: AggregateStats | None = None,
    verdicts: list[Verdict] | None = None,
    extra: dict | None = None,
    fmt: str = "structured",
) -> str:
    """Render one report document: JSON ("structured") or a plain table."""
    doc: dict = {
        "version": __version__,
        "seed": config.get("seed"),
        "config": config,
    }
    # the dataclasses' own field dicts, which the writers only read
    if stats is not None:
        doc["stats"] = vars(stats)
    if verdicts is not None:
        doc["verdicts"] = [vars(v) for v in verdicts]
    if extra:
        doc.update(extra)
    if fmt == "structured":  # one walk, no rounded copy
        out: list[str] = []
        _write_json(doc, "\n", out.append)
        return "".join(out)
    if fmt != "table":
        raise ValueError(f"unknown format {fmt!r}")
    doc = round_sig(doc)
    lines = [f"qotsim {__version__}  seed={doc.get('seed')}"]
    for key, val in doc.items():
        if key in ("verdicts", "version", "seed"):
            continue
        lines.append(f"{key}: {json.dumps(val)}")
    for v in doc.get("verdicts", []):
        mark = "PASS" if v["passed"] else "FAIL"
        lines.append(
            f"[{mark}] {v['criterion']}: empirical={v['empirical']} "
            f"{v['relation']} reference={v['reference']}"
        )
    return "\n".join(lines)


def all_verdicts_pass(verdicts: list[Verdict]) -> bool:
    return all(v.passed for v in verdicts)
