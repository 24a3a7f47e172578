"""Monte Carlo experiments, exact oracles, and bound verdicts.

Every empirical rate is checked against its exact reference (3-sigma), and
:func:`check_bounds` adds the checks of its strategy's :data:`STRATEGIES`
row (a tail bound's <=, say, past its non-vacuity threshold); the row also
refuses the sets the strategy does not admit, so the harness names none.
An experiment's randomness is one Philox key, derived from its seed, and
trial k owns the k-th fixed-width block of words of that key's stream (see
:meth:`RandomSource.block`).  Trials run through the batched session engine
in batches that :func:`~qotsim.protocol.chunks` sizes by one budget of words, so
results are independent of batching and execution order, reproducible
byte-for-byte, and any trial can be replayed from (seed, trial index).

The privacy test runs the trials of every choice vector through the same engine,
in one row sequence, and compares the vectors pairwise, one :func:`chi2_contingency`
test of independence per pair.  That test does scipy.stats' arithmetic in numpy,
its p-value the closed-form chi-square tail, so the package loads no scipy; numpy loads
at the first engine call, so an oracle or bound report runs without it.  Reports come
from a writer that appends pieces to one list, joined once, byte-identical
to ``json.dumps(indent=2)`` of the :func:`round_sig` document; a float goes
through repr only at a positive or three-digit exponent, nan or inf.
Brute force enumerates every high prefix of the 2^N outcomes and looks each low
one up once per prefix popcount, in a table built once per width: it checks the
oracle's binomial walk, not the runs where each event holds (:func:`event_runs`).
The oracle (:mod:`qotsim.params`) takes one walk per N, shared by every
(n, m) and event, resumed from checkpoints in a bounded cache keyed on N.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction

from . import __version__
from .adversary import STRATEGIES, LeakyBob, Strategy
from .channel import RandomSource
from .params import (
    ProtocolParams,
    _is_int,
    event_runs,
    exact_failure_oracle,  # re-exported: the oracle lives in params
    np,
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

_ROUNDED = "%.12g"  # every float in a report, to 12 significant digits
PRIVACY_SIGNIFICANCE = 0.001  # the privacy test's family-wise level, before Bonferroni


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: parameter set, trial count, seed, strategy, IO modes.  Its validated
    (n, m, N) and seed's RandomSource are kept as `params` and `root`, outside the fields,
    and `bits` and `choices` as the tuples :func:`~qotsim.protocol.check_inputs` returns."""

    n: int
    m: int
    N: int
    trials: int
    seed: int
    strategy: Strategy = Strategy()
    bits: tuple[int, ...] | None = None      # None: fresh random bits per trial
    choices: tuple[int, ...] | None = None   # None: fresh random choices per trial

    def __post_init__(self):
        params = validate_params(self.n, self.m, self.N)
        root = check_run("trials", self.trials, self.seed)
        bits, choices = check_inputs(self.n, self.m, self.bits, self.choices)
        STRATEGIES[self.strategy.kind].admits(params)
        vars(self).update(params=params, root=root, bits=bits, choices=choices)  # frozen fields


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


def check_run(name: str, trials: int, seed: int) -> RandomSource:
    """Refuse a run's trial count `name` (an experiment's, or a privacy test's per choice
    vector) that is not an int >= 1, or a seed that is not an int (a report echoes it)
    within a signed 64-bit word; returns its RandomSource."""
    if not _is_int(trials):
        raise ValueError(f"{name} must be an int, got {trials!r}")
    if trials < 1:
        raise ValueError(f"{name} must be >= 1, got {trials!r}")
    if not _is_int(seed):
        raise ValueError(f"seed must be an int, got {seed!r}")
    return RandomSource(seed)  # refuses a seed outside the signed 64-bit range


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion, at 99% confidence."""
    if trials == 0:
        return 0.0, 1.0
    z = 2.5758293035489004  # the 99% two-sided normal quantile
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


# ---------------------------------------------------------------------------
# exact oracles
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=16)
def _popcount_bits(width: int) -> np.ndarray:
    """Read-only uint16 1 << popcount(l) for the 2^width low mask bits l (a
    uint32 arange, as numpy's bitwise_count is ~3x slower on uint16)."""
    low = np.uint16(1) << np.bitwise_count(np.arange(1 << width, dtype=np.uint32))
    low.flags.writeable = False
    return low


def brute_force_failure_probability(params: ProtocolParams, event: str = "correctness") -> Fraction:
    """Check the oracle's binomial sum: count, in chunks, all 2^N outcomes
    of the N <= 20 survivor basis-agreement coins.

    The event table is an int with bit M set iff the event holds at match count M, built
    from the oracle's own runs (:func:`event_runs`), so this checks the sum, not a run.  A
    read-only uint16 array, built once per width (:func:`_popcount_bits`), holds
    1 << popcount(l) for the 2^min(N,15) low mask bits l.  Every high prefix is enumerated
    for its popcount c; per class c, each low outcome ANDs its entry with the low 16 bits
    of the table shifted down by c, and the nonzero results are tallied once, weighted by
    the count of prefixes in the class.
    """
    N = params.N
    if N > 20:
        raise ValueError("brute force enumeration is limited to N <= 20")
    # each low outcome once per prefix popcount: no recurrence or comb, so it stays checked
    table = sum((1 << b) - (1 << a) for a, b in event_runs(params, event))
    low = _popcount_bits(min(N, 15))
    pops = [h.bit_count() for h in range(1 << max(N - 15, 0))]
    hits = sum(pops.count(c) * int(np.count_nonzero(low & np.uint16(table >> c & 0xFFFF)))
               for c in set(pops))
    return Fraction(hits, 1 << N)


# ---------------------------------------------------------------------------
# experiment runner
# ---------------------------------------------------------------------------

def run_experiment(config: ExperimentConfig) -> AggregateStats:
    """Execute the configured trials and count the tracked event of the
    strategy's row (see :data:`STRATEGIES`).  Trial k of the experiment is
    trial k of the stream ``RandomSource(seed).stream("trials")``."""
    params, strategy = config.params, config.strategy
    rng = config.root.stream("trials")
    spec = STRATEGIES[strategy.kind]
    statuses, wrong, event_count = [], 0, 0
    for start, count in chunks(config.trials, spec.width(params)):
        out = spec.run(params, strategy, rng, start, count, config.bits, config.choices)
        statuses.append(np.bincount(out.status, minlength=len(STATUSES)))
        wrong += int(np.count_nonzero(out.wrong_decode))
        event_count += int(np.count_nonzero(spec.hit(out)))
    completed, *aborted = sum(statuses).tolist()
    aborts = {s.value: c for s, c in zip(STATUSES[1:], aborted) if c}

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
    """Compare the empirical rate with the exact reference (3-sigma), then
    run the checks of the strategy's row (see :data:`STRATEGIES`)."""
    q = stats.oracle_rate
    tol = 3 * math.sqrt(q * (1 - q) / stats.trials)
    return [Verdict(f"{stats.event_name}_rate_within_3sigma_of_oracle", stats.event_rate,
                    q, "within_3sigma", abs(stats.event_rate - q) <= tol, tolerance=tol),
            *(Verdict(*check) for check in STRATEGIES[stats.strategy].checks(stats, params))]


# ---------------------------------------------------------------------------
# privacy independence test
# ---------------------------------------------------------------------------

def _chi2_sf(dof: int, x: float) -> float:
    """The chi-square tail Q(dof/2, x/2) at integer dof, as the finite sum of
    Abramowitz & Stegun 26.4: with y = x/2, erfc(sqrt(y)) plus y^a e^-y /
    Gamma(a + 1) for a = 1/2, 3/2, ... below dof/2 (odd dof), or exp(-y) plus
    the terms for a = 1, 2, ... (even dof).  Every term is at most 1 and is
    formed in logs, so no dof overflows; rounding can carry the sum past 1,
    so it is capped there."""
    y = x / 2
    p, a = (math.erfc(math.sqrt(y)), 0.5) if dof % 2 else (math.exp(-y), 1.0)
    while a < dof / 2 and 0 < y < math.inf:
        p += math.exp(a * math.log(y) - y - math.lgamma(a + 1))
        a += 1
    return min(p, 1.0)


def chi2_contingency(table):
    """Pearson's chi-square test of independence on a 2-D contingency table.

    Returns (stat, p, dof, expected).  The statistic, dof and expected counts
    are computed as scipy.stats.chi2_contingency computes them, so they are
    equal to scipy's.  The expected counts are the outer product of the
    margins over the table total; at dof 1 every cell first moves toward its
    expected count by at most 0.5 (Yates' correction); the statistic sums
    over the whole table.  p is the closed-form chi-square tail
    (:func:`_chi2_sf`), which agrees with scipy's to about 12 digits but may
    differ in the last bits.  dof 0 gives stat 0 and p 1.  A NaN or infinite
    cell, a negative cell, an empty table or a zero expected count raises
    ValueError; so does an all-zero table, for which scipy would return NaNs.
    """
    observed = np.asarray(table)
    if observed.ndim != 2:
        raise ValueError(f"need a 2-D table, got {observed.ndim} dimensions")
    counts = observed.astype(np.float64, casting="same_kind")
    if not np.isfinite(observed).all():  # every cell is scanned, before any sum
        cell = tuple(int(i) for i in np.argwhere(~np.isfinite(observed))[0])
        raise ValueError(f"the table has a non-finite value {observed[cell]} at {cell}")
    total, low = counts.sum(), counts.min(initial=0.0)
    if low < 0:
        raise ValueError("all table values must be nonnegative")
    if observed.size == 0:
        raise ValueError("no data: the table has size 0")
    if total == 0:
        raise ValueError("no data: the table total is 0")
    expected = counts.sum(axis=1, keepdims=True) * counts.sum(axis=0, keepdims=True)
    expected /= total
    if np.count_nonzero(expected == 0):
        cell = tuple(int(i) for i in np.argwhere(expected == 0)[0])
        raise ValueError(f"the table of expected counts has a zero at {cell}")
    dof = expected.size - sum(expected.shape) + 1
    if dof == 0:
        return 0.0, 1.0, dof, expected
    if dof == 1:
        diff = expected - observed
        observed = observed + np.minimum(0.5, np.abs(diff)) * np.sign(diff)
    stat = ((observed - expected) ** 2 / expected).sum()
    return stat, _chi2_sf(dof, stat), dof, expected


def _choice_vectors(n: int, m: int) -> tuple:
    """The m-of-n choice vectors, their labels ("1,3") and their (V, n) masks, built per call."""
    vectors = tuple(itertools.combinations(range(1, n + 1), m))
    masks = np.array([[label in cv for label in range(1, n + 1)] for cv in vectors])
    return vectors, tuple(",".join(map(str, cv)) for cv in vectors), masks


def privacy_independence_test(
    params: ProtocolParams,
    trials_per_choice: int,
    seed: int,
    leaky: bool = False,
) -> dict:
    """Distinguishability test of Alice's view across Bob's choice vectors.

    For every choice vector, runs honest sessions and records which announced
    subset holds the smallest surviving slot (a feature of Alice's view, which
    reads no input bit).  Pairwise chi-square tests at :data:`PRIVACY_SIGNIFICANCE`,
    Bonferroni-corrected over the pairs; under the uniform-announcement claim all
    pairs should be indistinguishable.  `leaky` swaps in the positive-control Bob.

    Vector v's trials are trials 0 .. `trials_per_choice`-1 of the stream
    ``RandomSource(seed).stream("choice/<labels>")``.  They run as one row sequence, vector
    after vector, cut into engine batches by :func:`~qotsim.protocol.chunks`, which may hold
    two vectors' rows.  Each pair is tested by :func:`chi2_contingency` on its 2 x n table
    of feature counts, less the columns neither vector reached.

    A vector none of whose sessions completed has no feature distribution to test: the report
    lists it under ``untestable_vectors``, and each of its pairs has a null ``p_value`` and
    total variation, ``untestable`` set and ``passed`` false, so ``all_pass`` is false.
    """
    root = check_run("trials_per_choice", trials_per_choice, seed)
    n, m, T = params.n, params.m, trials_per_choice
    choice_vectors, labels, masks = _choice_vectors(n, m)
    rngs = [root.stream(f"choice/{label}") for label in labels]
    tally = np.zeros(len(choice_vectors) * n, dtype=np.int64)
    width = session_width(params)
    for start, count in chunks(len(choice_vectors) * T, width):
        stop = start + count
        vector = np.arange(start, stop) // T  # row r is trial r % T of vector r // T
        words = []
        for v in range(start // T, (stop - 1) // T + 1):
            lo, hi = max(start, v * T), min(stop, (v + 1) * T)
            words.append(rngs[v].block(width, lo - v * T, hi - lo))
        state = run_protocol(params, None, masks[vector], Draws(params, np.concatenate(words)),
                             bob=LeakyBob() if leaky else None)
        if state.recovered is not None:  # some row completed
            live = state.live()
            # each subset's least cell is its smallest slot plus the row's offset
            firsts = state.cells.min(axis=0).argmin(axis=1)[live]
            tally += np.bincount(vector[live] * n + firsts, minlength=tally.size)
    counts = tally.reshape(-1, n)
    freqs = counts / np.maximum(counts.sum(axis=1, keepdims=True), 1)  # no sessions: 0
    corrected = PRIVACY_SIGNIFICANCE / max(1, math.comb(len(choice_vectors), 2))
    # a vector that completed no session has no feature distribution to test
    untestable = [cv for cv, row in zip(choice_vectors, counts.tolist()) if not any(row)]
    pairs = []
    for (i, va), (j, vb) in itertools.combinations(enumerate(choice_vectors), 2):
        pair = {"choice_a": list(va), "choice_b": list(vb)}
        if va in untestable or vb in untestable:
            pair |= {"p_value": None, "total_variation": None, "passed": False, "untestable": True}
        else:  # the columns neither vector reached are left out
            table = counts[[i, j]]
            _, p, _, _ = chi2_contingency(table[:, table.sum(axis=0) > 0])
            tv = 0.5 * float(np.abs(freqs[i] - freqs[j]).sum())
            pair |= {"p_value": p, "total_variation": tv, "passed": p >= corrected}
        pairs.append(pair)
    report = {"n": n, "m": m, "N": params.N, "trials_per_choice": trials_per_choice,
              "leaky": leaky, "significance": PRIVACY_SIGNIFICANCE,
              "corrected_significance": corrected,
              "feature_counts": dict(zip(labels, counts.tolist()))}
    if untestable:
        report["untestable_vectors"] = [list(cv) for cv in untestable]
    tvs = [pair["total_variation"] for pair in pairs if pair["total_variation"] is not None]
    return report | {"pairs": pairs, "max_total_variation": max(tvs, default=0.0),
                     "all_pass": all(pair["passed"] for pair in pairs)}


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------

def round_sig(value):
    """Recursively round floats to 12 significant digits (:data:`_ROUNDED`) for stable output."""
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        return float(_ROUNDED % value)
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, dict):
        return {k: round_sig(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [round_sig(v) for v in value]
    return value


_quote = json.encoder.encode_basestring_ascii
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_text(v: float) -> str:
    """float.__repr__(float(_ROUNDED % v)) as json.dumps writes it, read off the %g text where
    the two agree: positional (".0" added if integral) or a two-digit negative exponent.  A
    positive exponent (%g's from 1e12, repr's from 1e16), a three-digit one (a subnormal keeps
    fewer digits), nan and inf take the repr."""
    t = _ROUNDED % v
    if "e" in t:
        return t if t[-3] == "-" else float.__repr__(float(t))
    return t if "." in t else t + ".0" if t[-1].isdigit() else _NON_FINITE[t]


# each scalar type's JSON text, as json.dumps writes it; a subclass is not looked up here
_SCALARS = {str: _quote, bool: lambda v: "true" if v else "false", type(None): lambda v: "null",
            float: _float_text, int: int.__repr__, Fraction: lambda v: _quote(str(v))}


@functools.lru_cache(maxsize=256)
def _key_text(key: str) -> str:
    """A str key's '"key": ' text; other keys skip the cache, as 0.0 and -0.0 are one key."""
    return _quote(key) + ": "


def _json_text(value, newline: str = "\n", out=None) -> str | None:
    """json.dumps(round_sig(value), indent=2), at indent `newline`: the pieces are appended
    with `out`, or else to one list, joined once.  Anything but a plain dict, list or tuple
    or a scalar of a type in :data:`_SCALARS` goes to json.dumps, which keeps its own
    subclass handling and TypeErrors."""
    if out is None:
        pieces: list[str] = []
        _json_text(value, newline, pieces.append)
        return "".join(pieces)
    kind, text = type(value), _SCALARS.get
    if (t := text(kind)) is not None:
        return out(t(value))
    if kind is not dict and kind is not list and kind is not tuple:
        return out(json.dumps(round_sig(value), indent=2).replace("\n", newline))
    brackets, inner = "{}" if kind is dict else "[]", newline + "  "
    if not value:
        return out(brackets)
    sep = brackets[0] + inner
    for k, v in value.items() if kind is dict else zip(itertools.repeat(None), value):
        out(sep)
        if kind is dict:  # keys are not rounded; json.dumps writes or refuses a key not a str
            out(_key_text(k) if type(k) is str else json.dumps({k: 0})[1:-4] + ": ")
        out(t(v)) if (t := text(type(v))) else _json_text(v, inner, out)
        sep = "," + inner
    out(newline + brackets[1])


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
        return _json_text(doc)
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
