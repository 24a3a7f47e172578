"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Every criterion is checked at its stated tolerance; Monte Carlo comparisons
use 3-sigma tolerances around exact oracles with fixed seeds.
"""

import json
import math
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from qotsim.adversary import Strategy
from qotsim.channel import RandomSource, transmit_batch
from qotsim.harness import (
    ExperimentConfig,
    brute_force_failure_probability,
    exact_failure_oracle,
    privacy_independence_test,
    run_experiment,
)
from qotsim.params import (
    commitment_attack_bound,
    compute_x,
    correctness_epsilon,
    hoeffding_bound,
    min_N,
    privacy_epsilon,
    smallest_valid_N,
    target_rate,
    validate_params,
)


@pytest.fixture
def report(capsys):
    def _report(num, name, ok, detail=""):
        suffix = f"  ({detail})" if detail else ""
        line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {name}{suffix}"
        with capsys.disabled():
            print(line)
        assert ok, line
    return _report


def _cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "qotsim.cli", *args],
        capture_output=True, text=True, timeout=120,
    )
    return proc


def _within_3sigma(rate, q, trials):
    return abs(rate - q) <= 3 * math.sqrt(q * (1 - q) / trials)


def test_criterion_01_bound_reproduction(report):
    proc = _cli("bounds", "--n", "2", "--m", "1", "--N", "18")
    doc = json.loads(proc.stdout)
    bounds = doc["bounds"]
    form_ok = bounds["hoeffding_privacy_form"] == "2*exp(-N/18)"
    value = bounds["hoeffding_privacy"]
    rel_err = abs(value - 2 / math.e) / (2 / math.e)
    report(
        1, "privacy bound form 2*exp(-N/18), value 2/e at N=18",
        proc.returncode == 0 and form_ok and rel_err <= 1e-12,
        f"value={value}, rel_err={rel_err:.2e}",
    )


def test_criterion_02_formula_suite(report):
    ok = (
        compute_x(4, 1, 40) == 8
        and compute_x(2, 1, 6) == 2
        and compute_x(3, 1, 6) == 0
        and target_rate(4, 1) == Fraction(3, 8)
        and target_rate(2, 1) == Fraction(3, 4)
        and correctness_epsilon(2, 1)[0] == Fraction(1, 6)
        and abs(correctness_epsilon(2, 1)[1] - math.exp(-1 / 36)) <= 1e-12
        and privacy_epsilon(2, 1)[0] == Fraction(1, 6)
        and min_N(Fraction(1, 6)) == 25
        and commitment_attack_bound(0.5, 4, 40, 8)[0] == 0.5**8
    )
    report(2, "exact formula table (x, rates, deltas, min_N, attack bound)", ok)


def test_criterion_03_channel_invariant(report):
    rng = RandomSource(2026)
    count = 100_000
    bits = rng.bits(count)
    bases_a = rng.bits(count)
    bases_b = rng.bits(count)
    out = transmit_batch(bits, bases_a, bases_b, rng.stream("channel").bits(count))
    match = bases_a == bases_b
    match_agree = float((out[match] == bits[match]).mean())
    mismatch_agree = float((out[~match] == bits[~match]).mean())
    ok = match_agree == 1.0 and 0.49 <= mismatch_agree <= 0.51
    report(
        3, "channel invariant over 1e5 photons",
        ok, f"match={match_agree}, mismatch={mismatch_agree:.4f}",
    )


def test_criterion_04_honest_correctness_vs_oracle(report):
    trials = 100_000
    results = []
    for n, m, N, seed in ((3, 1, 6, 20260), (4, 1, 40, 20261)):
        params = validate_params(n, m, N)
        q = float(exact_failure_oracle(params, "correctness"))
        stats = run_experiment(
            ExperimentConfig(n=n, m=m, N=N, trials=trials, seed=seed)
        )
        results.append(
            (
                _within_3sigma(stats.event_rate, q, trials)
                and stats.wrong_decodes == 0,
                f"({n},{m},{N}): rate={stats.event_rate:.5f} oracle={q:.5f}",
            )
        )
    ok = all(r[0] for r in results)
    report(4, "honest abort rate within 3-sigma of oracle, decodes exact",
           ok, "; ".join(r[1] for r in results))


def test_criterion_05_oracle_brute_force_equivalence(report):
    checked = 0
    ok = True
    for n in range(2, 21):
        for m in range(1, n):
            for N in range(1, 21):
                try:
                    params = validate_params(n, m, N)
                except Exception:
                    continue
                for event in ("correctness", "privacy", "privacy_dishonest_removal"):
                    exact = exact_failure_oracle(params, event)
                    brute = brute_force_failure_probability(params, event)
                    ok = ok and exact == brute
                checked += 1
    report(5, "oracle equals 2^N enumeration for all admissible N <= 20",
           ok and checked > 50, f"{checked} parameter sets")


def test_criterion_06_bound_dominance(report):
    ok = True
    checked = 0
    grids = [(2, 1), (3, 1), (4, 1)]
    for n, m in grids:
        delta_c, eps_c = correctness_epsilon(n, m)
        delta_p, eps_p = privacy_epsilon(n, m)
        start = max(min_N(delta_c), min_N(delta_p))
        N = smallest_valid_N(n, m, start)
        grid = []
        while len(grid) < 4:
            grid.append(N)
            N = smallest_valid_N(n, m, N + 1)
        for N in grid:
            params = validate_params(n, m, N)
            for event, delta, eps in (
                ("correctness", delta_c, eps_c),
                ("privacy", delta_p, eps_p),
            ):
                q = float(exact_failure_oracle(params, event))
                raw = hoeffding_bound(N, float(delta))
                ok = ok and q <= raw and q <= eps**N
                checked += 1
    report(6, "oracle <= 2*exp(-2N*delta^2) and <= eps^N for N >= min_N",
           ok, f"{checked} (set, event) pairs")


def test_criterion_07_greedy_bob_privacy(report):
    trials = 100_000
    params = validate_params(2, 1, 6)
    # confirm the pinned value by enumeration before using it
    pinned = Fraction(15, 64)
    enum = brute_force_failure_probability(params, "privacy")
    q = float(enum)
    stats = run_experiment(
        ExperimentConfig(n=2, m=1, N=6, trials=trials, seed=20262,
                         strategy=Strategy("greedy"))
    )
    _, eps_p = privacy_epsilon(2, 1)
    # eps_p^N is vacuous at N=6 < min_N; the bound claim applies at N >= min_N
    N_big = smallest_valid_N(2, 1, min_N(Fraction(1, 6)))
    big = validate_params(2, 1, N_big)
    q_big = float(exact_failure_oracle(big, "privacy"))
    ok = (
        enum == pinned
        and _within_3sigma(stats.event_rate, q, trials)
        and q_big <= eps_p**N_big
    )
    report(7, "greedy extra-bit rate within 3-sigma of 15/64, <= eps_p^N",
           ok, f"rate={stats.event_rate:.5f}, enum={enum}")


def test_criterion_08_postpone_detection(report):
    trials = 100_000
    stats6 = run_experiment(
        ExperimentConfig(n=3, m=1, N=6, trials=trials, seed=20263,
                         strategy=Strategy("postpone"))
    )
    q6 = (3 / 4) ** 6
    stats40 = run_experiment(
        ExperimentConfig(n=4, m=1, N=40, trials=trials, seed=20264,
                         strategy=Strategy("postpone"))
    )
    ok = (
        _within_3sigma(stats6.event_rate, q6, trials)
        and stats40.event_rate < 1e-3
    )
    report(8, "postpone survival 3-sigma of (3/4)^6 at N=6, <1e-3 at N=40",
           ok, f"N=6 rate={stats6.event_rate:.5f}, N=40 rate={stats40.event_rate}")


def test_criterion_09_commit_cheat(report):
    trials = 1_000_000
    stats = run_experiment(
        ExperimentConfig(n=4, m=1, N=40, trials=trials, seed=20265,
                         strategy=Strategy("commit-cheat", p=0.5))
    )
    q = 0.5**8
    bound, eps = commitment_attack_bound(0.5, 4, 40, 8)
    ok = _within_3sigma(stats.event_rate, q, trials) and bound < eps**40
    report(9, "commit-cheat rate within 3-sigma of 0.5^8, bound < eps^N",
           ok, f"rate={stats.event_rate:.6f}, bound={bound:.3e} < {eps**40:.3e}")


def test_criterion_10_privacy_independence(report):
    params = validate_params(3, 1, 6)
    honest = privacy_independence_test(params, 20_000, seed=20266)
    leaky = privacy_independence_test(params, 20_000, seed=20266, leaky=True)
    leaky_min_p = min(p["p_value"] for p in leaky["pairs"])
    ok = honest["all_pass"] and leaky_min_p < 1e-6
    report(10, "choice vectors indistinguishable; leaky control rejected",
           ok, f"honest min p={min(p['p_value'] for p in honest['pairs']):.4f}, "
               f"leaky min p={leaky_min_p:.2e}")


def test_criterion_11_determinism(report):
    args = [
        ("oracle", "--n", "3", "--m", "1", "--N", "6", "--event", "correctness"),
        ("run", "--n", "3", "--m", "1", "--N", "6", "--trials", "2000",
         "--seed", "7", "--random-bits", "--random-choices"),
        ("bounds", "--n", "2", "--m", "1", "--N", "18", "--p", "0.5"),
    ]
    ok = True
    for a in args:
        first, second = _cli(*a), _cli(*a)
        ok = ok and first.stdout == second.stdout and first.returncode == second.returncode
    report(11, "repeated subcommand runs are byte-identical", ok)
