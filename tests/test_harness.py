"""Harness tests: oracles vs brute force, experiments, verdicts, reports."""

import collections
import dataclasses
import itertools
import json
import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qotsim.adversary import (
    STRATEGIES,
    GreedyBob,
    LeakyBob,
    Outcomes,
    Strategy,
    run_with_adversary,
)
from qotsim.channel import RandomSource
from qotsim.harness import (
    _NON_FINITE,
    _ROUNDED,
    ExperimentConfig,
    _float_text,
    _json_text,
    all_verdicts_pass,
    brute_force_failure_probability,
    check_bounds,
    check_privacy_test,
    chi2_contingency,
    emit_report,
    exact_failure_oracle,
    privacy_independence_test,
    round_sig,
    run_experiment,
    wilson_interval,
)
from qotsim.params import InvalidN, validate_params
from qotsim.protocol import CHUNK, STATUSES, HonestBob, chunks, draw_sessions, run_protocol
from test_params import REFERENCE, run_table

P316 = validate_params(3, 1, 6)
P216 = validate_params(2, 1, 6)
P4140 = validate_params(4, 1, 40)


# -- oracles ----------------------------------------------------------------

def test_oracle_frozen_values():
    assert exact_failure_oracle(P316, "correctness") == Fraction(7, 64)
    assert exact_failure_oracle(P216, "privacy") == Fraction(15, 64)
    assert exact_failure_oracle(P4140, "correctness") == Fraction(
        21146349707, 274877906944
    )


def test_oracle_4140_matches_binomial_tail():
    """(4,1,40) honest failure is the lower tail P[M <= 15]."""
    tail = sum(Fraction(math.comb(40, k), 2**40) for k in range(16))
    assert exact_failure_oracle(P4140, "correctness") == tail


def test_oracle_unknown_event():
    message = "unknown event 'nope'; one of ['correctness', 'privacy', 'privacy_dishonest_removal']"
    for check in (exact_failure_oracle, brute_force_failure_probability):
        with pytest.raises(ValueError, match=re.escape(message)):
            check(P316, "nope")


def test_brute_force_matches_oracle_small_sets():
    for params in (P316, P216, validate_params(4, 1, 20), validate_params(5, 2, 15)):
        for event in ("correctness", "privacy"):
            assert exact_failure_oracle(params, event) == (
                brute_force_failure_probability(params, event)
            )


def _admissible(N):
    for n in range(2, N + 1):
        for m in range(1, n):
            try:
                yield validate_params(n, m, N)
            except InvalidN:
                pass


# the chunk edge is 15 low bits: N = 14 and 15 run in one chunk, 16 and up in
# 2^(N-15).  N = 16 admits no (n, m), so it runs on a set whose N is replaced,
# which the count identity does not need admissible
EDGE_SETS = [params for N in (14, 15, 17, 20) for params in _admissible(N)] + [
    dataclasses.replace(validate_params(4, 1, 20), N=16)]


@pytest.mark.parametrize("params", EDGE_SETS, ids=lambda p: f"{p.n},{p.m},{p.N}")
def test_brute_force_equals_the_binomial_count_at_the_chunk_edges(params):
    """Masks split into 2^min(N,15) low and 2^(N-15) high parts; the count is
    sum(comb(N, M) for M where the event holds) over 2^N, for every event,
    where it holds by the reference inequalities, not by the oracle's runs."""
    N = params.N
    for event, pred in REFERENCE.items():
        hits = sum(math.comb(N, M) for M in range(N + 1) if pred(params, M))
        assert brute_force_failure_probability(params, event) == Fraction(hits, 2**N)


def test_brute_force_memory_stays_one_chunk_wide():
    params = validate_params(4, 2, 20)
    brute_force_failure_probability(params)  # numpy's one-time setup is not counted
    tracemalloc.start()
    try:
        brute_force_failure_probability(params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**19  # the whole 2^20-mask array alone would be 8 MiB


def test_brute_force_rejects_large_N():
    with pytest.raises(ValueError, match="N <= 20"):
        brute_force_failure_probability(P4140)


def test_dishonest_removal_oracle_low_case_only_values():
    q = exact_failure_oracle(P4140, "privacy_dishonest_removal")
    honest_q = exact_failure_oracle(P4140, "privacy")
    assert q > honest_q  # keeping matches strictly helps the adversary


def _forced_draws(params, M, rows=32):
    """Draws of `rows` sessions with exactly M survivor basis matches, at
    random slots: Bob's basis is set on both members of each pair, so the
    pattern holds whichever member Alice's coin keeps."""
    rng = RandomSource(2027).stream(f"forced/{params.n},{params.m},{params.N}/{M}")
    draws = draw_sessions(params, rng, 0, rows)
    pattern = np.random.default_rng(M).random((rows, params.N)).argsort(axis=1) < M
    draws.beta_b[...] = draws.beta ^ (1 - pattern)
    return draws


@pytest.mark.parametrize("nmN", [(3, 1, 6), (2, 1, 18), (4, 1, 40), (4, 2, 20), (5, 2, 25)],
                         ids=str)
def test_engine_events_at_forced_match_counts_follow_the_oracle_predicates(nmN):
    """At each M = 0..N, sessions forced to M survivor matches: honest Bob
    aborts, and greedy Bob learns more than m bits, exactly on the oracle's
    runs of M."""
    params = validate_params(*nmN)
    holds = {event: run_table(params, event) for event in ("correctness", "privacy")}
    for M in range(params.N + 1):
        honest = run_protocol(params, None, None, _forced_draws(params, M))
        greedy = run_protocol(params, None, None, _forced_draws(params, M), bob=GreedyBob())
        assert (honest.match_flags().sum(axis=1) == M).all()
        out = Outcomes(params.m, honest)
        assert not out.wrong_decode.any()
        assert set((out.status != 0).tolist()) == {holds["correctness"][M]}, M
        assert set(Outcomes(params.m, greedy).target_exceeded.tolist()) == {holds["privacy"][M]}, M


# -- wilson intervals -------------------------------------------------------

def test_wilson_interval_contains_point_estimate():
    low, high = wilson_interval(40, 100)
    assert low < 0.4 < high


def test_wilson_interval_degenerate():
    assert wilson_interval(0, 0) == (0.0, 1.0)


@settings(max_examples=100, deadline=None)
@given(
    trials=st.integers(min_value=1, max_value=10**6),
    data=st.data(),
)
def test_wilson_interval_properties(trials, data):
    successes = data.draw(st.integers(min_value=0, max_value=trials))
    low, high = wilson_interval(successes, trials)
    assert 0.0 <= low <= high <= 1.0
    phat = successes / trials
    assert low - 1e-12 <= phat <= high + 1e-12


# -- experiments ------------------------------------------------------------

def test_run_experiment_honest_matches_oracle():
    config = ExperimentConfig(n=3, m=1, N=6, trials=5000, seed=2)
    stats = run_experiment(config)
    assert stats.oracle_exact == "7/64"
    verdicts = check_bounds(stats, P316)
    assert all_verdicts_pass(verdicts)
    assert stats.wrong_decodes == 0
    assert stats.completed + stats.event_count == config.trials


def test_run_experiment_validates_params():
    with pytest.raises(InvalidN):
        run_experiment(ExperimentConfig(n=2, m=1, N=7, trials=10, seed=0))


@pytest.mark.parametrize(
    "field,value",
    [
        ("bits", (0, 1)),        # n = 3 needs three bits
        ("bits", (0, 2, 1)),     # not a bit
        ("choices", (5,)),       # outside [1, n]
        ("choices", (0,)),
        ("choices", (1, 2)),     # m = 1 needs one choice
        ("choices", (1.0,)),     # not an int
        ("seed", 2**63),         # past a signed 64-bit word
        ("seed", -2**63 - 1),
        ("trials", 0),
        ("trials", True),        # a bool is not a count
        ("trials", 2.5),
        ("seed", 1.5),           # not an int: the report echoes the seed as given
        ("seed", "7"),
        ("seed", True),
        ("seed", np.int64(7)),   # a report cannot write a numpy integer
        ("N", {"n": 2, "N": 7}),  # a set the engine refuses: several fields at once
        ("n", {"n": 0, "m": 5, "N": -1}),
        ("N", 6.0),
    ],
)
def test_experiment_config_rejects_bad_inputs(field, value):
    fields = value if isinstance(value, dict) else {field: value}
    with pytest.raises(ValueError, match=field):
        ExperimentConfig(**{"n": 3, "m": 1, "N": 6, "trials": 10, "seed": 0, **fields})


@pytest.mark.parametrize("choices", [(np.int64(2),), (1.0,)])
def test_experiment_config_and_run_protocol_accept_the_same_choices(choices):
    def accepts(build):
        try:
            build()
        except ValueError:
            return False
        return True

    config = accepts(lambda: ExperimentConfig(n=3, m=1, N=6, trials=10, seed=0,
                                              choices=choices))
    assert config == accepts(lambda: run_protocol(P316, (0, 1, 0), choices, 1))


def test_dishonest_removal_is_refused_in_the_high_case_at_config_and_hook():
    message = "dishonest-removal strategy applies to the low case only"
    with pytest.raises(ValueError, match=message):
        ExperimentConfig(n=2, m=1, N=6, trials=10, seed=1,
                         strategy=Strategy("dishonest-removal"))
    with pytest.raises(ValueError, match=message):  # a direct caller meets the hook's check
        run_with_adversary(Strategy("dishonest-removal"), validate_params(2, 1, 6), None, None, 1)
    ExperimentConfig(n=4, m=1, N=40, trials=10, seed=1, strategy=Strategy("dishonest-removal"))


def test_experiment_config_rejects_repeated_choices():
    with pytest.raises(ValueError, match="choices"):
        ExperimentConfig(n=4, m=2, N=20, trials=10, seed=0, choices=(2, 2))


def test_run_experiment_straddling_chunks_equals_trial_replays():
    """Counts over a chunk boundary equal those of replaying each trial
    alone from the experiment's stream."""
    config = ExperimentConfig(n=3, m=1, N=6, trials=CHUNK + 40, seed=12)
    stats = run_experiment(config)
    spec = STRATEGIES["honest"]
    rng = RandomSource(config.seed).stream("trials")
    statuses = np.zeros(len(STATUSES), dtype=np.int64)
    events = wrong = 0
    for k in range(config.trials):
        out = spec.run(P316, config.strategy, rng, k, 1)
        statuses[out.status[0]] += 1
        events += int(spec.hit(out)[0])
        wrong += int(out.wrong_decode[0])
    assert stats.completed == statuses[0]
    assert stats.aborts == {s.value: int(c) for s, c in zip(STATUSES[1:], statuses[1:]) if c}
    assert (stats.event_count, stats.wrong_decodes) == (events, wrong)


def test_run_experiment_builds_no_generator_per_trial(monkeypatch):
    """Trials share one counter-addressed stream: one Philox per chunk."""
    built = []
    philox = np.random.Philox

    def counting_philox(*args, **kwargs):
        built.append(1)
        return philox(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counting_philox)
    run_experiment(ExperimentConfig(n=3, m=1, N=6, trials=10_000, seed=3))
    assert 0 < len(built) <= math.ceil(10_000 / CHUNK) + 2


def test_run_experiment_fixed_vs_random_inputs():
    fixed = ExperimentConfig(
        n=3, m=1, N=6, trials=800, seed=5, bits=(1, 0, 1), choices=(2,)
    )
    random = ExperimentConfig(n=3, m=1, N=6, trials=800, seed=5)
    s_fixed = run_experiment(fixed)
    s_random = run_experiment(random)
    # the abort event depends only on basis coins, not on inputs
    q = 7 / 64
    for s in (s_fixed, s_random):
        assert abs(s.event_rate - q) <= 4 * math.sqrt(q * (1 - q) / 800)


def test_run_experiment_reproducible():
    config = ExperimentConfig(n=3, m=1, N=6, trials=500, seed=9)
    assert run_experiment(config) == run_experiment(config)


def test_run_experiment_greedy():
    config = ExperimentConfig(
        n=2, m=1, N=6, trials=5000, seed=3, strategy=Strategy("greedy")
    )
    stats = run_experiment(config)
    assert stats.event_name == "extra_bit_success"
    assert stats.oracle_exact == "15/64"
    assert all_verdicts_pass(check_bounds(stats, P216))


def test_run_experiment_postpone():
    config = ExperimentConfig(
        n=3, m=1, N=6, trials=5000, seed=4, strategy=Strategy("postpone")
    )
    stats = run_experiment(config)
    assert stats.event_name == "challenge_survival"
    assert stats.oracle_rate == pytest.approx((3 / 4) ** 6)
    assert all_verdicts_pass(check_bounds(stats, P316))


def test_run_experiment_commit_cheat():
    config = ExperimentConfig(
        n=4, m=1, N=40, trials=100000, seed=6,
        strategy=Strategy("commit-cheat", p=0.5),
    )
    stats = run_experiment(config)
    assert stats.event_name == "commit_cheat_success"
    assert stats.oracle_rate == pytest.approx(0.5**8)
    verdicts = check_bounds(stats, P4140)
    assert all_verdicts_pass(verdicts)
    assert any(v.criterion == "commitment_bound_lt_eps_pow_N" for v in verdicts)


def test_a_reference_is_its_own_experiments_whatever_ran_before():
    """Strategies that compare equal but differ in p's type (0.5 and
    Fraction(1, 2)) keep their own reference, in either order in one process:
    a float p gives a float p**s and no exact string, a Fraction an exact one.
    A repeated honest experiment reads the same exact oracle each time."""
    s = P4140.subset_size

    def run(p):
        return dataclasses.asdict(run_experiment(ExperimentConfig(
            n=4, m=1, N=40, trials=2000, seed=6, strategy=Strategy("commit-cheat", p=p))))

    as_float, as_fraction = run(0.5), run(Fraction(1, 2))
    assert as_float["oracle_exact"] is None
    assert as_fraction["oracle_exact"] == str(Fraction(1, 2**s))
    assert run(Fraction(1, 2)) == as_fraction and run(0.5) == as_float
    honest = [dataclasses.asdict(run_experiment(ExperimentConfig(n=3, m=1, N=6, trials=50, seed=s)))
              for s in (1, 1, 2)]
    assert honest[0] == honest[1] and honest[2]["oracle_exact"] == honest[0]["oracle_exact"] == "7/64"


def test_run_experiment_curious_alice():
    config = ExperimentConfig(
        n=3, m=1, N=6, trials=5000, seed=7, strategy=Strategy("curious-alice")
    )
    stats = run_experiment(config)
    assert stats.event_name == "choice_guess_correct"
    assert stats.oracle_rate == pytest.approx(float(Fraction(57, 64) / 3))
    assert all_verdicts_pass(check_bounds(stats, P316))


def test_check_bounds_skips_bound_verdicts_below_min_N():
    config = ExperimentConfig(n=3, m=1, N=6, trials=200, seed=1)
    verdicts = check_bounds(run_experiment(config), P316)
    names = {v.criterion for v in verdicts}
    # N=6 < min_N=25: only the oracle comparison and decode check remain
    assert "oracle_le_eps_pow_N" not in names
    assert "completed_runs_decode_exactly" in names


def test_check_bounds_includes_bound_verdicts_at_large_N():
    params = validate_params(3, 1, 27)
    config = ExperimentConfig(n=3, m=1, N=27, trials=300, seed=1)
    verdicts = check_bounds(run_experiment(config), params)
    names = {v.criterion for v in verdicts}
    assert {"oracle_le_hoeffding_bound", "oracle_le_eps_pow_N",
            "empirical_le_eps_pow_N"} <= names
    assert all_verdicts_pass(verdicts)


_TAIL = [("oracle_le_hoeffding_bound", "le"), ("oracle_le_eps_pow_N", "le"),
         ("empirical_le_eps_pow_N", "le")]
_DECODE = [("completed_runs_decode_exactly", "eq")]
_EVENT = {"honest": "abort", "greedy": "extra_bit_success",
          "dishonest-removal": "extra_bit_success", "postpone": "challenge_survival",
          "commit-cheat": "commit_cheat_success", "curious-alice": "choice_guess_correct"}


@pytest.mark.parametrize("kind, strict, n, m, N, after", [
    ("honest", False, 4, 1, 40, _DECODE),  # min_N = 70 for (4, 1)
    ("honest", False, 4, 1, 70, _DECODE + _TAIL),
    ("greedy", False, 4, 1, 40, []),
    ("greedy", False, 4, 1, 70, _TAIL),
    ("greedy", False, 2, 1, 18, []),  # high case, min_N = 25 for (2, 1)
    ("greedy", False, 2, 1, 27, _TAIL),
    ("dishonest-removal", False, 4, 1, 40, []),
    ("dishonest-removal", False, 4, 1, 70, _TAIL),
    ("dishonest-removal", True, 4, 1, 40, []),
    ("dishonest-removal", True, 4, 1, 70, _TAIL),
    ("postpone", False, 4, 1, 40, []),
    ("commit-cheat", False, 4, 1, 40, [("commitment_bound_lt_eps_pow_N", "le")]),
    ("curious-alice", False, 4, 1, 40, []),
])
def test_every_row_gets_its_verdict_list(kind, strict, n, m, N, after):
    """Each row's verdicts, in order: the 3-sigma one, then the row's own,
    a tail bound's only at N >= its threshold."""
    strategy = Strategy(kind, p=0.5 if kind == "commit-cheat" else None, strict_alice=strict)
    config = ExperimentConfig(n=n, m=m, N=N, trials=16, seed=3, strategy=strategy)
    verdicts = check_bounds(run_experiment(config), config.params)
    assert [(v.criterion, v.relation) for v in verdicts] == [
        (f"{_EVENT[kind]}_rate_within_3sigma_of_oracle", "within_3sigma"), *after]


# -- privacy independence ---------------------------------------------------

def test_privacy_independence_honest_passes():
    report = privacy_independence_test(P316, 2000, seed=8)
    assert report["all_pass"]
    assert len(report["pairs"]) == 3
    assert report["corrected_significance"] == pytest.approx(0.001 / 3)


def test_privacy_independence_leaky_fails():
    report = privacy_independence_test(P316, 2000, seed=8, leaky=True)
    assert not report["all_pass"]
    assert min(p["p_value"] for p in report["pairs"]) < 1e-6


@pytest.mark.parametrize("seed", [7, 9, 11, 12])
def test_privacy_vector_without_completed_sessions_is_untestable(seed):
    """One trial per vector: at these seeds one vector's only session aborts,
    so it has no feature counts and its pairs cannot be tested."""
    report = privacy_independence_test(P316, 1, seed=seed)
    empty = [[int(k)] for k, c in report["feature_counts"].items() if not any(c)]
    assert len(empty) == 1
    assert report["untestable_vectors"] == empty
    assert report["all_pass"] is False
    for pair in report["pairs"]:
        if empty[0] in (pair["choice_a"], pair["choice_b"]):
            assert pair["p_value"] is None and pair["total_variation"] is None
            assert pair["untestable"] is True and pair["passed"] is False
        else:
            assert "untestable" not in pair and pair["p_value"] is not None


def test_privacy_report_without_empty_vectors_has_no_untestable_fields():
    report = privacy_independence_test(P316, 1, seed=1)
    assert all(any(c) for c in report["feature_counts"].values())
    assert "untestable_vectors" not in report
    assert all("untestable" not in pair for pair in report["pairs"])


@pytest.mark.parametrize("kwargs, name", [
    ({"trials_per_choice": 0}, "trials_per_choice"),
    ({"trials_per_choice": -3}, "trials_per_choice"),
    ({"trials_per_choice": True}, "trials_per_choice"),
    ({"trials_per_choice": 2.5}, "trials_per_choice"),
    ({"seed": 1.5}, "seed"),
    ({"seed": "7"}, "seed"),
    ({"seed": True}, "seed"),
    ({"seed": 2**63}, "seed"),
])
def test_privacy_independence_rejects_bad_arguments(kwargs, name):
    args = {"trials_per_choice": 10, "seed": 1} | kwargs
    with pytest.raises(ValueError, match=name):
        privacy_independence_test(P316, **args)
    with pytest.raises(ValueError, match=name):
        check_privacy_test(**args)


def _privacy_by_vector(params, trials, seed, leaky):
    """Feature counts and pair p-values from one engine batch per choice
    vector, each over the vector's own stream block."""
    n, m = params.n, params.m
    root = RandomSource(seed)
    counts = {}
    for cv in itertools.combinations(range(1, n + 1), m):
        label = ",".join(map(str, cv))
        state = run_protocol(params, (0,) * n, cv,
                             draw_sessions(params, root.stream(f"choice/{label}"), 0, trials),
                             bob=(LeakyBob if leaky else HonestBob)())
        firsts = state.family[state.live(), :, 0].argmin(axis=1)
        counts[label] = np.bincount(firsts, minlength=n)
    p_values = []
    for a, b in itertools.combinations(counts, 2):
        table = np.vstack([counts[a], counts[b]])
        p_values.append(float(chi2_contingency(table[:, table.sum(axis=0) > 0])[1]))
    return {k: c.tolist() for k, c in counts.items()}, p_values


@pytest.mark.parametrize("nmN, trials", [((3, 1, 6), 300), ((4, 2, 20), 200),
                                         ((3, 1, 6), 1500)])
@pytest.mark.parametrize("leaky", [False, True])
def test_privacy_batch_equals_one_run_per_choice_vector(nmN, trials, leaky):
    params = validate_params(*nmN)
    report = privacy_independence_test(params, trials, seed=31, leaky=leaky)
    counts, p_values = _privacy_by_vector(params, trials, 31, leaky)
    assert report["feature_counts"] == counts
    assert [pair["p_value"] for pair in report["pairs"]] == p_values
    if trials == 1500:  # 4,500 rows: a batch holds the rows of several vectors
        starts = [start for start, _ in chunks(3 * trials, params)]
        assert len(starts) > 1 and starts[1] % trials != 0


# -- reports ----------------------------------------------------------------

def test_round_sig_recursion():
    doc = {"a": 0.123456789012345678, "b": [1, 2.000000000000055], "c": "x",
           "d": Fraction(7, 64), "e": None, "f": True}
    rounded = round_sig(doc)
    assert rounded["a"] == 0.123456789012
    assert rounded["b"][1] == 2.00000000000
    assert rounded["c"] == "x" and rounded["d"] == "7/64"
    assert rounded["e"] is None and rounded["f"] is True


def _report_json(doc) -> str:
    """The text emit_report(fmt="structured") writes for `doc`."""
    return _json_text(doc)


_KEYS = st.one_of(st.text(), st.integers(), st.floats(), st.booleans(), st.none())
_LEAVES = st.one_of(
    st.integers(), st.integers(min_value=-10**400, max_value=10**400), st.booleans(),
    st.none(), st.floats(), st.floats().map(np.float64), st.fractions(), st.text(),
)
_DOCS = st.recursive(_LEAVES, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
    st.dictionaries(_KEYS, inner, max_size=4),
), max_leaves=30)


@settings(max_examples=300, deadline=None)
@given(_DOCS)
@example({"": [], "e": {}, "t": (), 1.5: [(), {}], None: {True: 5e-324, False: -0.0}})
@example([float("nan"), float("inf"), -float("inf"), np.float64(0.1 + 0.2), 2**200])
@example({"\x00\n\t\"\\\u2028": "\u00e9\ud800\U0001f600\x7f", 0.1 + 0.2: Fraction(-7, 3)})
@example({float("nan"): 1, float("inf"): [1e16, 1e-7, 123456789012.5]})
@example([type("Int", (int,), {})(7), type("Str", (str,), {})("s"),
          collections.OrderedDict(a=np.float64(1 / 3)), type("List", (list,), {})([1])])
@example([0.0001, math.nextafter(0.0001, 0), 999999999999.0, 1e12, 123456789012.5,
          9999999999999998.0, 1e16])
@example([1e-99, 1e-100, 2.2250738585072014e-308, 5e-324])
@example([-0.0, 100.0, -3.0, float("nan"), float("inf"), -float("inf"), np.float64(1 / 3)])
def test_report_writer_matches_json_dumps_of_the_rounded_doc(doc):
    assert _report_json(doc) == json.dumps(round_sig(doc), indent=2)


def _float_edges(powers) -> list[float]:
    """Each power of ten 1e<k>, the value that rounds up to it at 12 digits, and
    both neighbours of each: where %g and repr switch between their forms."""
    edges = []
    for k in powers:
        for v in (float(f"1e{k}"), float(f"9.999999999995e{k - 1}")):
            edges += [math.nextafter(v, -math.inf), v, math.nextafter(v, math.inf)]
    return edges + [-v for v in edges]


def test_float_text_is_the_repr_of_the_rounded_float():
    """The writer reads a float's text off its %g text where that equals the
    repr of the rounded float, and takes the repr elsewhere: the two agree on
    200,000 seeded float64 bit patterns with exponents from 2^-60 to 2^60,
    where %g's text changes form at 1e-5, 1e12 and 1e16, and on both sides of
    every power of ten from 1e-330 to 1e20, where it changes at 1e-100 and at
    the subnormals.  CI sweeps 5,000,000 patterns over the whole range."""
    rng = np.random.default_rng(27)
    words = rng.integers(0, 2**64, size=200_000, dtype=np.uint64) & np.uint64(0x800FFFFFFFFFFFFF)
    words |= rng.integers(1023 - 60, 1023 + 60, size=words.size, dtype=np.uint64) << np.uint64(52)
    values = words.view(np.float64).tolist() + _float_edges(range(-330, 21))
    reprs = list(map(float.__repr__, map(float, map(_ROUNDED.__mod__, values))))
    texts = zip(values, map(_float_text, values), map(_NON_FINITE.get, reprs, reprs))
    assert [(v, text, want) for v, text, want in texts if text != want][:5] == []


def test_report_writer_keeps_equal_keys_apart():
    """0.0 and -0.0 are one dict key, as are 1, True and 1.0; each is written
    as json.dumps writes it, whichever came first."""
    for keys in ((0.0, -0.0, 0.0), (1, True, 1.0, True)):
        for key in keys:
            assert _report_json({key: [key]}) == json.dumps({key: [key]}, indent=2)


@pytest.mark.parametrize("doc", [
    np.int64(3), {"a": [1, {2, 3}]}, [b"bytes"], {"a": {(1, 2): 0}}, {Fraction(1, 2): 0},
    {"a": [0.5, np.bool_(True)]},
], ids=["int64", "set", "bytes", "tuple-key", "fraction-key", "bool_"])
def test_report_writer_raises_where_json_dumps_does(doc):
    with pytest.raises(TypeError) as expected:
        json.dumps(round_sig(doc), indent=2)
    with pytest.raises(TypeError) as raised:
        _report_json(doc)
    assert str(raised.value) == str(expected.value)


def test_emit_report_round_trip():
    config = ExperimentConfig(n=3, m=1, N=6, trials=300, seed=11)
    stats = run_experiment(config)
    verdicts = check_bounds(stats, P316)
    text = emit_report({"command": "run", "seed": 11}, stats=stats, verdicts=verdicts)
    doc = json.loads(text)
    assert doc["seed"] == 11
    assert doc["stats"]["trials"] == 300
    assert len(doc["verdicts"]) == len(verdicts)
    # round-trip: parsing and re-dumping is stable
    assert json.dumps(doc, indent=2) == text


def test_emit_report_table_includes_every_verdict():
    config = ExperimentConfig(n=3, m=1, N=6, trials=300, seed=11)
    stats = run_experiment(config)
    verdicts = check_bounds(stats, P316)
    text = emit_report({"command": "run", "seed": 11}, stats=stats,
                       verdicts=verdicts, fmt="table")
    for v in verdicts:
        assert v.criterion in text
    assert text.count("[PASS]") + text.count("[FAIL]") == len(verdicts)


def test_emit_report_rejects_unknown_format():
    with pytest.raises(ValueError):
        emit_report({"seed": 0}, fmt="yaml")
