"""The benchmark's own tests: metric schema, tracer accounting, and a
tiny-scale run of each workload through the correctness gate.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

import run as R
import workloads as W
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")
TINY_S = 0.3


@pytest.fixture(scope="module")
def bench():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def qotsim():
    return R.import_qotsim()


def test_benchmark_json_names_units_and_bounds(bench):
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert [w["name"] for w in bench["workloads"]] == list(W.WORKLOADS)
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in bench[key]]
    assert len(names) == len(set(names))
    for key in ("end_to_end", "per_layer"):
        for m in bench[key]:
            assert NAME.match(m["name"]), m
            assert UNIT.match(m["unit"]), m
            assert m["better"] in ("higher", "lower"), m
    for m in bench["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


def test_benchmark_json_matches_what_run_reports(bench):
    for key, schema in (("end_to_end", R.END_TO_END),
                        ("per_layer", R.per_layer_schema())):
        declared = {m["name"]: (m["unit"], m["better"]) for m in bench[key]}
        assert declared == schema


def test_tracer_self_time_excludes_children_and_counts_absent_targets():
    tracer = Tracer("nopkg")

    def inner():
        time.sleep(0.02)

    def outer():
        time.sleep(0.01)
        wrapped_inner()

    wrapped_inner = tracer.wrap("layer.inner", inner)
    tracer.wrap("layer.outer", outer)()
    rows = tracer.summary()["rows"]
    assert rows["layer.inner"]["calls"] == 1
    assert 0.005 < rows["layer.outer"]["self_s"] < 0.02 <= rows["layer.inner"]["self_s"]

    # a package missing every instrumented module still installs cleanly
    sys.modules["nopkg"] = types.ModuleType("nopkg")
    try:
        tracer.install()
        tracer.uninstall()
    finally:
        del sys.modules["nopkg"]
    assert "protocol.run_protocol" in tracer.absent
    assert "channel.generator_init" in tracer.absent


def test_tracer_install_is_undone(qotsim):
    qs = W.modules(qotsim)
    before = (qs.harness.run_protocol, qs.adversary.phase1_transmit,
              qotsim.channel.RandomSource.gen)
    tracer = Tracer(qotsim.__name__)
    tracer.install()
    assert tracer.absent == []
    assert qs.harness.run_protocol is not before[0]
    assert qs.adversary.phase1_transmit is not before[1]
    tracer.uninstall()
    assert (qs.harness.run_protocol, qs.adversary.phase1_transmit,
            qotsim.channel.RandomSource.gen) == before


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_tiny_traced_run_passes_the_gate(workload, qotsim):
    args = R.parse_args(["--workload", workload, "--seed", "5",
                         "--seconds", str(TINY_S), "--trace", "1"])
    line, doc = R.run(args)
    assert line["correct"], doc["failed_checks"]
    assert line["attempted"] >= 1 and line["failed"] == 0
    assert list(line["metrics"]) == list(R.per_layer_schema())
    trace = doc["trace"]
    assert trace["absent"] == []
    # self times add up to the traced wall time minus the stated glue
    assert trace["sum_self_s"] + trace["glue_s"] == pytest.approx(trace["traced_wall_s"])
    assert 0 <= line["metrics"]["trace.glue_ratio"]["value"] < 0.2
    calls = {k: m["value"] for k, m in line["metrics"].items() if k.endswith(".calls")}
    if workload == "exact":
        assert calls["harness.exact_failure_oracle.calls"] > 0
        assert calls["protocol.run_protocol.calls"] == 0
        assert calls["channel.stream.calls"] == 0
    else:
        assert calls["protocol.run_protocol.calls"] > 0
        assert calls["commitment.commit_many.calls"] > 0


def test_job_depends_only_on_seed_and_length(qotsim):
    qs = W.modules(qotsim)
    for workload in W.WORKLOADS:
        a = W.build_job(workload, 11, TINY_S, qs)
        assert a == W.build_job(workload, 11, TINY_S, qs)
        assert a != W.build_job(workload, 12, TINY_S, qs)
        assert len(a) == len(W.build_job(workload, 12, TINY_S, qs))
    exact = W.build_job("exact", 11, 20, qs)
    keys = [(e.n, e.m, e.N) for rnd in exact for e in rnd]
    assert len(keys) == len(set(keys))  # no exact query repeats within a run
    sizes = [len(rnd) for rnd in exact]
    assert max(sizes) - min(sizes) <= 1  # rounds hold the same mix


def test_gate_fails_a_biased_pool(qotsim, monkeypatch):
    qs = W.modules(qotsim)
    job = [e for rnd in W.build_job("honest", 3, TINY_S, qs) for e in rnd if e.N == 6]
    results = W.run_job(qs, [job])[0][0]
    # a program whose abort rate is far from the exact reference
    monkeypatch.setattr(W, "reference_rate", lambda qs, exp: W.Fraction(1, 2))
    pooled = [c for c in W.gate(qs, "honest", 3, results) if c["check"] == "pooled_rate"]
    assert pooled and not pooled[0]["passed"]
    assert "confirmation" in pooled[0]  # failed on a fresh batch as well


def test_end_to_end_scales_each_round_by_its_own_probes():
    exp = W.Experiment("session", "honest", 3, 1, 6, trials=10)
    ref = R.PROBE_REF_S

    def rnd(slowdown, *seconds):
        return [W.Result(exp, s, "", probe_s=slowdown * ref) for s in seconds]

    # the same work in three rounds, run while the host was 2x, 1x and 4x slower
    rounds = [rnd(2, 0.2, 0.1), rnd(1, 0.1, 0.05), rnd(4, 0.3, 0.3)]
    values, notes = R.end_to_end(rounds, wall=1.05, setup=[1.0, 3.0, 2.0])
    assert values["job_s"] == pytest.approx(3 * 0.15)
    assert values["throughput_per_s"] == pytest.approx(60 / values["job_s"])
    assert values["setup_s"] == pytest.approx(2.0 * 6 / 14)  # run's mean probe: 14/6 ref
    assert notes["throughput_per_s"]["raw"] == pytest.approx(60 / 1.05)


def test_end_to_end_command_prints_the_result_line():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "honest", "--seed", "2",
         "--seconds", str(TINY_S), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert list(line["metrics"]) == list(R.END_TO_END)
    assert all(m["value"] > 0 for m in line["metrics"].values())


def test_fails_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "honest", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
