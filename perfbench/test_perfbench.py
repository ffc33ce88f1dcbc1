"""Tests of the benchmark itself.

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import run
import speed
from chainplan import planner
from chainplan.model import Problem, Trajectory

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
                           *args], cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def detail_of(workload, seed, trace):
    path = HERE / "out" / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(path.read_text())["detail"]


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_prints_every_end_to_end_metric(workload):
    proc = bench("--workload", workload, "--seed", "5", "--seconds", "1",
                 "--trace", "0")
    result = result_of(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert result["metrics"][name]["value"] > 0
        assert any(name in line and unit in line
                   for line in proc.stdout.splitlines()[:-1])
    for extra in ("fail_frac", "digest"):
        assert extra in proc.stdout


def test_smoke_traced_prints_every_per_layer_metric():
    proc = bench("--workload", "xcheck3", "--seed", "5", "--seconds", "1",
                 "--trace", "1")
    result = result_of(proc)
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert result["metrics"]["oracle.root.calls"]["value"] > 0
    spans = json.loads((HERE / "out" / "xcheck3-seed5-trace1-spans.json")
                       .read_text())
    names = {s["name"] for s in spans}
    assert {"planner.plan", "oracle.exhaustive_tf", "oracle.root"} <= names
    ids = {s["id"] for s in spans}
    assert all(s["parent"] is None or s["parent"] in ids for s in spans)


def test_same_seed_repeats_outputs_and_counts():
    details = []
    for _ in range(2):
        result_of(bench("--workload", "plan3", "--seed", "7", "--seconds",
                        "2", "--trace", "1"))
        details.append(detail_of("plan3", 7, 1))
    a, b = details
    assert a["digest"] == b["digest"]
    assert a["failures_by_kind"] == b["failures_by_kind"]
    assert a["failing_indices"] == b["failing_indices"]
    assert {k: v["calls"] for k, v in a["layers"].items()} == \
        {k: v["calls"] for k, v in b["layers"].items()}


def test_seed_mirrors_a_fixed_corpus():
    w = run.WORKLOADS["plan3"]
    a, flips_a = run.make_corpus(w, 3, 2)
    b, flips_b = run.make_corpus(w, 4, 2)
    assert run.make_corpus(w, 3, 2) == (a, flips_a)
    assert len(a) == len(b) == run.corpus_size(w, 2)
    assert flips_a != flips_b
    for i, (p, q) in enumerate(zip(a, b)):
        if (i in flips_a) != (i in flips_b):
            assert (q.x0, q.xf) == (tuple(-v for v in p.x0),
                                    tuple(-v for v in p.xf))
        else:
            assert (q.x0, q.xf) == (p.x0, p.xf)


@pytest.fixture(scope="module")
def planned():
    problem = Problem(3, (1.0, -0.375, 0.5), (0.0, 0.0, 0.0), (1.0, 1.0, 1.5, 4.0))
    return problem, planner.plan(problem)


def corrupt(traj, index, **changes):
    segments = list(traj.segments)
    segments[index] = replace(segments[index], **changes)
    return Trajectory(tuple(segments), traj.t_f, traj.asl, traj.problem)


def test_gate_passes_planner_output(planned):
    problem, traj = planned
    assert run.gate(problem, traj) is None


def test_corrupted_trajectory_fails_the_gate(planned):
    problem, traj = planned
    seg = traj.segments[0]
    bad = [
        corrupt(traj, 0, duration=seg.duration + 1e-3),
        corrupt(traj, 0, u=0.5 * seg.u),
        corrupt(traj, len(traj.segments) - 1,
                start=tuple(v + 1e-3 for v in traj.segments[-1].start)),
        Trajectory(traj.segments, traj.t_f + 1e-3, traj.asl, problem),
    ]
    for broken in bad:
        assert run.gate(problem, broken) is not None
        out = run.Outcome(trajectory=broken)
        run.judge(problem, out)
        assert out.kind == "check"


def test_oracle_shortfall_counts_as_mismatch(planned):
    problem, traj = planned
    out = run.Outcome(trajectory=traj, oracle_tf=traj.t_f - 1e-3)
    run.judge(problem, out)
    assert out.kind == "mismatch"
    ok = run.Outcome(trajectory=traj, oracle_tf=traj.t_f)
    run.judge(problem, ok)
    assert ok.kind is None


def test_failure_kinds_follow_the_message_prefix():
    assert run.plan_error_kind(
        "planned trajectory failed verification: x") == "verify"
    assert run.plan_error_kind(
        "no tangent-marker law reaches x3 = +/-M3 feasibly") == "marker"
    assert run.plan_error_kind("something new") == "other"


def test_tail_has_ten_samples_beyond():
    values = [float(v) for v in range(1, 101)]
    assert run.tail(values) == (90.0, 90.0, 10)
    assert run.tail([float(v) for v in range(19)]) == (18.0, 100.0, 0)
    assert run.tail([float(v) for v in range(20)]) == (9.0, 50.0, 10)


def test_ticker_excludes_its_ticks_and_rescales_by_nearby_rates():
    ticker = speed.Ticker()
    ticker.ticks = [(0.0, 0.001), (1.0, 1.001), (1.5, 1.502), (3.0, 3.001)]
    # two ticks inside, none else within NEAR_S: mean of rates 1000 and 500
    wall, scaled = ticker.scaled(0.9, 2.0)
    assert wall == pytest.approx(1.1 - 0.003)
    assert scaled == pytest.approx(wall * 750.0 * speed.REFERENCE_S)
    # no tick near a short call: the nearest one on either side
    wall, scaled = ticker.scaled(2.5, 2.51)
    assert wall == pytest.approx(0.01)
    assert scaled == pytest.approx(0.01 * 750.0 * speed.REFERENCE_S)


def test_ticker_trims_outlying_ticks():
    ticker = speed.Ticker()
    ticker.ticks = [(0.01 * k, 0.01 * k + 0.001) for k in range(19)]
    ticker.ticks.append((0.19, 0.29))        # a descheduled tick
    wall, scaled = ticker.scaled(0.0, 0.5)
    assert scaled == pytest.approx(wall * 1000.0 * speed.REFERENCE_S)


def test_reference_work_reads_as_reference_time():
    with speed.Ticker() as ticker:
        t0 = speed.clock()
        for _ in range(200):
            speed.reference()
        t1 = speed.clock()
    assert len(ticker.ticks) >= 2
    wall, scaled = ticker.scaled(t0, t1)
    assert 0.5 < scaled / (200 * speed.REFERENCE_S) < 2.0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "plan3", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
