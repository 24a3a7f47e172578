"""The benchmark's three workloads: what each runs and how its output is checked.

Each workload is one closed loop in one process: an experiment starts when
the previous one has ended, with no arrival rate.  The job is fixed by the
workload name, the seed and the run length; the seed only derives each
experiment's seed (and, on ``exact``, the query order), so two commits given
the same arguments do the same work.

The job calls only the package's stable public entry points, looked up on
their modules at call time (so the tracer can wrap them): ``validate_params``,
``run_experiment``, ``check_bounds``, ``emit_report``,
``privacy_independence_test``, ``exact_failure_oracle``,
``brute_force_failure_probability`` and ``build_bound_report``.
"""

from __future__ import annotations

import dataclasses
import importlib
import math
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from types import SimpleNamespace

ACCEPTANCE_SETS = ((3, 1, 6), (2, 1, 18), (4, 1, 40))
WORKLOADS = ("honest", "adversarial", "exact")

# Trials per experiment: the repository's demos (demos/04-06) scaled by
# 1/100, so the adversarial mix keeps the demos' proportions and the
# per-experiment costs (check_bounds, emit_report: about 0.2 ms each) stay
# near 1% of an experiment.  Experiments are kept this short (10-60 ms) so
# that a round lasts 0.15-0.3 s: each round is scaled by the speed probes
# run within it (see run.end_to_end), so the probes sample the host's speed
# close in time to the work, and a run holds enough rounds for a steady
# median.  The privacy test is scaled by 1/50 so that the leaky control
# still rejects far below LEAKY_MAX_P in every experiment (p near 1e-20 at
# 100 trials per choice, 1e-12 at 50).
HONEST_TRIALS = 200  # demo 04: 20 000 per set
ADVERSARY_TRIALS = {   # demo 05
    "greedy": 200,
    "dishonest-removal": 40,
    "dishonest-removal-strict": 20,
    "postpone": 200,
    "curious-alice": 200,
    "commit-cheat": 2_000,  # draws, not sessions
}
PRIVACY_TRIALS_PER_CHOICE = 100  # demo 06: 5 000
# A job is a list of rounds of identical composition, so rounds can be
# compared with each other (see run.end_to_end).  A run of S seconds
# executes round(S / ROUND_S) rounds, each 0.15-0.3 s on a quiet 2-core
# Xeon; the job then takes about 60% of S, which leaves room for the set-up
# interpreters and for slow spells of a shared machine.
ROUND_S = {"honest": 0.23, "adversarial": 0.5, "exact": 0.3}
# Exact workload: an upward walk in admissible N for every (n, m) with n <= 4.
# The oracle's cost grows about as N^2, so the walk's top N grows as the cube
# root of the run length; EXACT_N_TOP is reached at a run of EXACT_REF_S seconds.
WALK_GRID = tuple((n, m) for n in range(2, 5) for m in range(1, n))
EXACT_N_TOP = 1000
EXACT_REF_S = 20.0
SWEEP_N = 20  # criterion-5 sweep: every admissible (n, m, N) with N <= 20
EVENTS = ("correctness", "privacy")

Z_GATE = 3.0                  # the 3-sigma tolerance of check_bounds and criteria 4-9
LEAKY_MAX_P = 1e-6            # criterion 10: the leaky control must be rejected
POSTPONE_N40_MAX_RATE = 1e-3  # criterion 8: survival at N=40 stays below this


@dataclass(frozen=True)
class Experiment:
    """One unit of a job: a Monte Carlo experiment, a privacy test, or one
    exact parameter set."""

    kind: str  # "session" | "privacy" | "exact"
    strategy: str
    n: int
    m: int
    N: int
    trials: int = 0  # sessions, commit-cheat draws, or privacy trials per choice
    seed: int = 0
    p: float | None = None

    @property
    def set_label(self) -> str:
        return f"{self.n}-{self.m}-{self.N}"

    @property
    def pool(self) -> str:
        """Gate pool: experiments of one strategy at one parameter set."""
        return f"{self.strategy}@{self.set_label}"

    @property
    def sessions(self) -> int:
        """Protocol sessions simulated; commit-cheat draws are not sessions."""
        if self.kind == "session" and self.strategy != "commit-cheat":
            return self.trials
        if self.kind == "privacy":
            return math.comb(self.n, self.m) * self.trials
        return 0

    @property
    def queries(self) -> int:
        """Exact (n, m, N, event) oracle queries, each with its checks."""
        return len(EVENTS) if self.kind == "exact" else 0


@dataclass
class Result:
    experiment: Experiment
    seconds: float
    report: str
    stats: object = None  # AggregateStats, or the privacy test's dict
    checks: list = field(default_factory=list)  # (name, passed)
    probe_s: float = 0.0  # time of the speed probe run just before it


def modules(package) -> SimpleNamespace:
    """The qotsim modules the job calls through."""
    return SimpleNamespace(**{
        name: importlib.import_module(f"{package.__name__}.{name}")
        for name in ("params", "harness", "adversary")
    })


# ---------------------------------------------------------------------------
# jobs
# ---------------------------------------------------------------------------

def _seeds(workload: str, seed: int, stream: str = "job"):
    rng = random.Random(f"{workload}/{seed}/{stream}")
    while True:
        yield rng.getrandbits(63)


def _honest_round(seeds) -> list[Experiment]:
    """Honest sessions at the acceptance sets: nearly every session runs all
    seven steps, so the protocol layer does most of the work."""
    return [
        Experiment("session", "honest", n, m, N, HONEST_TRIALS, next(seeds))
        for n, m, N in ACCEPTANCE_SETS
    ]


def _adversarial_round(seeds) -> list[Experiment]:
    """The same layers used differently: abort-heavy sessions (strict Alice
    aborts every session at step 4, postpone at N=40 nearly always at step
    2), Bob hooks, the vectorised commit-cheat path and the chi-square test."""
    t = ADVERSARY_TRIALS
    return [
        Experiment("session", "greedy", 2, 1, 18, t["greedy"], next(seeds)),
        Experiment("session", "dishonest-removal", 4, 1, 40,
                   t["dishonest-removal"], next(seeds)),
        Experiment("session", "dishonest-removal-strict", 4, 1, 40,
                   t["dishonest-removal-strict"], next(seeds)),
        Experiment("session", "postpone", 3, 1, 6, t["postpone"], next(seeds)),
        Experiment("session", "postpone", 4, 1, 40, t["postpone"], next(seeds)),
        Experiment("session", "curious-alice", 3, 1, 6, t["curious-alice"], next(seeds)),
        Experiment("session", "commit-cheat", 4, 1, 40, t["commit-cheat"],
                   next(seeds), p=0.5),
        Experiment("privacy", "privacy", 3, 1, 6, PRIVACY_TRIALS_PER_CHOICE, next(seeds)),
        Experiment("privacy", "leaky", 3, 1, 6, PRIVACY_TRIALS_PER_CHOICE, next(seeds)),
    ]


def _admissible(qs, n: int, m: int, N: int) -> bool:
    try:
        qs.params.validate_params(n, m, N)
    except ValueError:
        return False
    return True


def _exact_job(qs, seed: int, seconds: float) -> list[list[Experiment]]:
    """Oracles, brute force and bound reports only: no channel, protocol or
    adversary work, so a Monte Carlo optimisation should change nothing
    here.  No (n, m, N, event) query repeats, so memoising cannot inflate it."""
    sweep = [
        (n, m, N)
        for n in range(2, SWEEP_N + 1)
        for m in range(1, n)
        for N in range(1, SWEEP_N + 1)
        if _admissible(qs, n, m, N)
    ]
    top = max(SWEEP_N + 1, round(EXACT_N_TOP * (seconds / EXACT_REF_S) ** (1 / 3)))
    walk = [
        (n, m, N)
        for n, m in WALK_GRID
        for N in range(SWEEP_N + 1, top + 1)
        if _admissible(qs, n, m, N)
    ]
    # Deal the sets, in order of N (their cost grows with N), over the rounds
    # in a snake order so every round gets the same mix; the seed sets the
    # order within each round.
    sets = sorted(sweep + walk, key=lambda s: (s[2], s))
    count = min(_round_count("exact", seconds), len(sets))
    rounds: list[list[tuple]] = [[] for _ in range(count)]
    for i, key in enumerate(sets):
        lap, k = divmod(i, count)
        rounds[k if lap % 2 == 0 else count - 1 - k].append(key)
    order = random.Random(f"exact/{seed}/order")
    for sets in rounds:
        order.shuffle(sets)
    return [[Experiment("exact", "exact", n, m, N, seed=seed) for n, m, N in sets]
            for sets in rounds]


def _round_count(workload: str, seconds: float) -> int:
    return max(1, round(seconds / ROUND_S[workload]))


_ROUNDS = {"honest": _honest_round, "adversarial": _adversarial_round}


def build_job(workload: str, seed: int, seconds: float, qs) -> list[list[Experiment]]:
    """The fixed job of a run of `seconds` seconds on this workload, as rounds."""
    if workload == "exact":
        return _exact_job(qs, seed, seconds)
    seeds = _seeds(workload, seed)
    return [_ROUNDS[workload](seeds) for _ in range(_round_count(workload, seconds))]


def warmup_job(workload: str, qs) -> list[list[Experiment]]:
    """A short untimed job touching every code path of the workload once,
    so lazy imports and first-call costs are paid before timing."""
    if workload == "exact":
        # (n, m, N) outside the timed job, so no timed query repeats it
        return [[Experiment("exact", "exact", 21, 1, 39)]]
    return [[dataclasses.replace(e, trials=min(e.trials, 20))
             for e in _ROUNDS[workload](_seeds(workload, 0, "warmup"))]]


# ---------------------------------------------------------------------------
# running
# ---------------------------------------------------------------------------

def _strategy(qs, exp: Experiment):
    strict = exp.strategy == "dishonest-removal-strict"
    kind = "dishonest-removal" if strict else exp.strategy
    return qs.adversary.Strategy(kind, p=exp.p, strict_alice=strict)


def _run_session(qs, exp: Experiment) -> Result:
    params = qs.params.validate_params(exp.n, exp.m, exp.N)
    config = qs.harness.ExperimentConfig(
        n=exp.n, m=exp.m, N=exp.N, trials=exp.trials, seed=exp.seed,
        strategy=_strategy(qs, exp),
    )
    stats = qs.harness.run_experiment(config)
    verdicts = qs.harness.check_bounds(stats, params)
    report = qs.harness.emit_report(dataclasses.asdict(config), stats, verdicts)
    checks = [
        (f"verdict.{v.criterion}", bool(v.passed))
        for v in verdicts if v.relation != "within_3sigma"
    ]
    checks.append(("wrong_decodes_zero", stats.wrong_decodes == 0))
    if exp.strategy != "commit-cheat":
        # commit-cheat draws are not sessions and record no aborts
        checks.append(("completed_plus_aborts_eq_trials",
                       stats.completed + sum(stats.aborts.values()) == stats.trials))
    return Result(exp, 0.0, report, stats, checks)


def _run_privacy(qs, exp: Experiment) -> Result:
    params = qs.params.validate_params(exp.n, exp.m, exp.N)
    leaky = exp.strategy == "leaky"
    res = qs.harness.privacy_independence_test(params, exp.trials, seed=exp.seed,
                                               leaky=leaky)
    config = {"n": exp.n, "m": exp.m, "N": exp.N, "seed": exp.seed,
              "trials_per_choice": exp.trials, "leaky": leaky}
    report = qs.harness.emit_report(config, extra={"privacy": res})
    return Result(exp, 0.0, report, res, [])


def _run_exact(qs, exp: Experiment) -> Result:
    n, m, N = exp.n, exp.m, exp.N
    params = qs.params.validate_params(n, m, N)
    oracle = qs.harness.exact_failure_oracle
    checks, doc = [], {}
    if N <= SWEEP_N:
        for event in EVENTS:
            q = oracle(params, event)
            brute = qs.harness.brute_force_failure_probability(params, event)
            checks.append((f"oracle_eq_brute_force.{event}", q == brute))
            doc[event] = {"oracle": q, "brute_force": brute}
    else:
        bounds = qs.params.build_bound_report(n, m, N)
        start = max(bounds.min_N_correctness, bounds.min_N_privacy)
        for event, raw, eps_pow in (
            ("correctness", bounds.hoeffding_correctness, bounds.eps_correctness_pow_N),
            ("privacy", bounds.hoeffding_privacy, bounds.eps_privacy_pow_N),
        ):
            q = oracle(params, event)
            doc[event] = {"oracle": q, "hoeffding": raw, "eps_pow_N": eps_pow}
            if N >= start:  # criterion 6: dominance past the crossover N
                checks.append((f"oracle_le_hoeffding.{event}", q <= raw))
                checks.append((f"oracle_le_eps_pow_N.{event}", q <= eps_pow))
    config = {"n": n, "m": m, "N": N, "seed": exp.seed}
    report = qs.harness.emit_report(
        config, extra={"exact": doc, "checks": dict(checks)}
    )
    return Result(exp, 0.0, report, doc, checks)


_RUNNERS = {"session": _run_session, "privacy": _run_privacy, "exact": _run_exact}


def run_job(qs, job: list[list[Experiment]], probe=None) -> tuple[list[list[Result]], float]:
    """Run the rounds' experiments one after another; returns the results
    round by round and the job's wall time.  If `probe` is given, it is
    called and timed just before each experiment; its time is kept on the
    result and left out of the wall time."""
    clock = time.perf_counter
    rounds = []
    probing = 0.0
    start = clock()
    for experiments in job:
        results = []
        for exp in experiments:
            probe_s = 0.0
            if probe is not None:
                t0 = clock()
                probe()
                probe_s = clock() - t0
                probing += probe_s
            t0 = clock()
            result = _RUNNERS[exp.kind](qs, exp)
            result.seconds = clock() - t0
            result.probe_s = probe_s
            results.append(result)
        rounds.append(results)
    return rounds, clock() - start - probing


# ---------------------------------------------------------------------------
# correctness gate
# ---------------------------------------------------------------------------

def reference_rate(qs, exp: Experiment) -> Fraction:
    """Exact probability of the experiment's tracked event, computed here
    from the public oracle rather than taken from the harness."""
    params = qs.params.validate_params(exp.n, exp.m, exp.N)
    oracle = qs.harness.exact_failure_oracle
    s = exp.strategy
    if s == "honest":
        return oracle(params, "correctness")
    if s == "greedy":
        return oracle(params, "privacy")
    if s == "dishonest-removal":
        return oracle(params, "privacy_dishonest_removal")
    if s == "dishonest-removal-strict":
        return Fraction(0)  # strict Alice aborts every session at step 4
    if s == "postpone":
        return Fraction(3, 4) ** exp.N
    if s == "curious-alice":
        return (1 - oracle(params, "correctness")) / math.comb(exp.n, exp.m)
    if s == "commit-cheat":
        return Fraction(exp.p) ** params.subset_size
    raise ValueError(f"no reference for {s!r}")


def _pool_check(qs, pool: list[Result]) -> tuple[bool, dict]:
    exp = pool[0].experiment
    trials = sum(r.stats.trials for r in pool)
    events = sum(r.stats.event_count for r in pool)
    rate = events / trials
    q = float(reference_rate(qs, exp))
    detail = {"trials": trials, "events": events, "rate": rate, "reference": q}
    if exp.strategy == "postpone" and exp.N == 40:
        detail["max_rate"] = POSTPONE_N40_MAX_RATE
        return rate < POSTPONE_N40_MAX_RATE, detail
    tol = Z_GATE * math.sqrt(q * (1 - q) / trials)
    detail["tolerance"] = tol
    return abs(rate - q) <= tol, detail


def _privacy_check(qs, pool: list[Result]) -> tuple[bool, dict]:
    """Each leaky test must reject (criterion 10).  The honest tests pass if
    no pair's p-value falls below the test's own Bonferroni-corrected level,
    divided again by the number of tests pooled, so the pool keeps the
    family-wise error rate of a single test."""
    min_ps = [min(p["p_value"] for p in r.stats["pairs"]) for r in pool]
    if pool[0].experiment.strategy == "leaky":
        return max(min_ps) < LEAKY_MAX_P, {"max_min_p": max(min_ps),
                                           "max_p_allowed": LEAKY_MAX_P}
    level = pool[0].stats["corrected_significance"] / len(pool)
    return min(min_ps) >= level, {"min_p": min(min_ps), "level": level}


_POOL_CHECKS = {"session": ("pooled_rate", _pool_check),
                "privacy": ("privacy_test", _privacy_check)}


def gate(qs, workload: str, seed: int, results: list[Result]) -> list[dict]:
    """Every correctness check on a job's results.

    Deterministic checks (invariants, exact equalities, bound dominance) are
    made per experiment.  Statistical checks pool each (strategy, parameter
    set) over the run.  A statistical check that fails is repeated once on a
    fresh, independent batch of the same size and counts as failed only if
    the repeat fails too, so a single 3-sigma excursion (probability 0.27%
    per pool) does not fail a correct program while a real bias still does.
    No seed-specific count is pinned.
    """
    checks = []
    for r in results:
        for name, passed in r.checks:
            checks.append({"check": name, "target": target(r.experiment),
                           "passed": bool(passed)})

    pools: dict[str, list[Result]] = {}
    for r in results:
        if r.experiment.kind in _POOL_CHECKS:
            pools.setdefault(r.experiment.pool, []).append(r)
    confirm_seeds = _seeds(workload, seed, "confirm")
    for name, pool in pools.items():
        label, check = _POOL_CHECKS[pool[0].experiment.kind]
        passed, detail = check(qs, pool)
        if not passed:
            again = [dataclasses.replace(r.experiment, seed=next(confirm_seeds))
                     for r in pool]
            passed, detail["confirmation"] = check(qs, run_job(qs, [again])[0][0])
        checks.append({"check": label, "target": name, "passed": bool(passed), **detail})
    return checks


def target(exp: Experiment) -> str:
    """Label of an experiment in checks and per-experiment records."""
    return exp.pool if exp.kind != "exact" else f"exact@{exp.set_label}"
