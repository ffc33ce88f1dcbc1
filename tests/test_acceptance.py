"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the per-criterion
report.  Every tolerance is pinned here; nothing is deferred to calibration.
"""

import time

import numpy as np

from chainplan import laws, metrics, oracle, planner, sampling, solver
from chainplan.model import Problem
from helpers import dimension, draw_feasible

M3 = (1.0, 1.0, 1.5, 4.0)
M4 = (1.0, 1.0, 1.5, 4.0, 20.0)


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {name}"
          + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num}: {name} {detail}"


def test_criterion_1_first_order_closed_form():
    rng = np.random.default_rng(101)
    t0 = time.monotonic()
    worst = 0.0
    for _ in range(1000):
        x0, xf = rng.uniform(-10, 10, 2)
        M0 = float(rng.uniform(0.1, 5.0))
        traj = planner.plan(Problem(1, (x0,), (xf,), (M0, None)))
        worst = max(worst, abs(traj.t_f - abs(xf - x0) / M0))
    elapsed = time.monotonic() - t0
    report(1, "first-order closed form",
           worst <= 1e-12 and elapsed < 1.0,
           f"worst error {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_second_order_oracle_equivalence():
    rng = np.random.default_rng(102)
    t0 = time.monotonic()
    worst = 0.0
    for i in range(1000):
        M1 = float(rng.uniform(0.4, 2.0)) if i % 2 == 0 else None
        M0 = float(rng.uniform(0.4, 2.0))
        vcap = M1 if M1 is not None else 3.0
        prob = Problem(
            2,
            (float(rng.uniform(-vcap, vcap)), float(rng.uniform(-5, 5))),
            (float(rng.uniform(-vcap, vcap)), float(rng.uniform(-5, 5))),
            (M0, M1, None))
        traj = planner.plan(prob)
        expected = oracle.double_integrator_tf(prob.x0, prob.xf, M0, M1)
        worst = max(worst, abs(traj.t_f - expected))
    elapsed = time.monotonic() - t0
    report(2, "second-order oracle equivalence",
           worst <= 1e-9 and elapsed < 5.0,
           f"worst |dt_f| {worst:.2e}, {elapsed:.2f}s")


def test_criterion_3_catalog_enumeration():
    laws.enumerate_af.cache_clear()
    t0 = time.monotonic()
    af2 = {laws.canonical(a) for a in laws.enumerate_af(2)}
    af3 = {laws.canonical(a) for a in laws.enumerate_af(3)}
    elapsed = time.monotonic() - t0
    expected3 = {
        "000", "0010", "0100", "01010",
        "00200", "002010", "010200", "0102010",
        "00(3,2)000", "00(3,2)0010", "00(3,2)0100", "00(3,2)01010",
        "00(3,2)00200", "00(3,2)002010", "00(3,2)010200", "00(3,2)0102010",
        "010(3,2)000", "010(3,2)0010", "010(3,2)0100", "010(3,2)01010",
        "010(3,2)00200", "010(3,2)002010", "010(3,2)010200",
        "010(3,2)0102010",
    }
    report(3, "law catalog enumeration",
           af2 == {"00", "010"} and af3 == expected3 and elapsed < 1.0,
           f"|AF2|={len(af2)}, |AF3|={len(af3)}, {elapsed:.2f}s")


def test_criterion_4_dimension_spot_checks():
    from chainplan.model import asl_parse
    checks = {
        "0": 1,
        "2010": 1,
        "0102010": 3,
        "010(4,2)0102010(3)0102010": 4,
    }
    got = {text: dimension(asl_parse(text)) for text in checks}
    report(4, "dimension spot checks", got == checks, f"{got}")


def test_criterion_5_third_order_cruise_profile():
    prob = Problem(3, (1.0, -0.375, 4.0), (0.0, 0.0, 0.0), M3)
    t0 = time.monotonic()
    traj = planner.plan(prob)
    elapsed = time.monotonic() - t0
    e_s = metrics.terminal_error(traj.end_state, prob.xf, prob.M)
    ok = (traj.asl.text() == "-0 -1 +0 -2 +0 +1 -0"
          and e_s <= 1e-6
          and solver.verify(traj, prob.M, 1e-9) is None
          and elapsed < 0.1)
    report(5, "third-order cruise profile", ok,
           f"asl '{traj.asl.text()}', E_s {e_s:.1e}, {elapsed * 1e3:.0f}ms")


def test_criterion_6_fourth_order_interception_profile():
    prob = Problem(4, (0.75, -0.375, 2.0, 9.0), (0.25, 0.5, -2.0, -5.0), M4)
    t0 = time.monotonic()
    traj = planner.plan(prob)
    elapsed = time.monotonic() - t0
    ok = (traj.asl.text() == "-0 -1 +0 -2 +0 +1 -0 ( -3 ) +0 +1 -0 +0"
          and abs(traj.t_f - 9.8604) <= 5e-3
          and elapsed < 1.0)
    report(6, "fourth-order interception profile", ok,
           f"asl '{traj.asl.text()}', t_f {traj.t_f:.4f}, {elapsed * 1e3:.0f}ms")


def test_criterion_7_third_order_optimality():
    rng = np.random.default_rng(107)
    t0 = time.monotonic()
    worst = -np.inf
    oracle_s = 0.0
    for _ in range(100):
        prob, traj = draw_feasible(3, M3, rng)
        t_oracle = time.monotonic()
        ref = oracle.exhaustive_tf(prob)
        oracle_s += time.monotonic() - t_oracle
        worst = max(worst, traj.t_f - ref.t_f)
    elapsed = time.monotonic() - t0
    report(7, "third-order optimality vs exhaustive search",
           worst <= 1e-6 and elapsed < 60.0,
           f"worst t_f excess {worst:+.2e}, {1e3 * elapsed:.0f} ms: "
           f"planner {1e3 * (elapsed - oracle_s):.0f} ms, "
           f"oracle {1e3 * oracle_s:.0f} ms")


def test_criterion_8_batch_quality():
    rng = np.random.default_rng(108)
    t0 = time.monotonic()
    ok = True
    details = []
    for n, M in ((3, M3), (4, M4)):
        successes = 0
        worst_es = 0.0
        for _ in range(100):
            prob, traj = draw_feasible(n, M, rng)
            e_s = metrics.terminal_error(traj.end_state, prob.xf, prob.M)
            worst_es = max(worst_es, e_s)
            good = (metrics.is_success(traj, prob)
                    and e_s <= 1e-6
                    and metrics.em_mse(traj) == 0.0
                    and solver.verify(traj, prob.M, 1e-9) is None)
            successes += bool(good)
        ok = ok and successes == 100
        details.append(f"n={n}: R_s={successes / 100:.2f}, "
                       f"worst E_s {worst_es:.1e}")
    elapsed = time.monotonic() - t0
    report(8, "random batch quality", ok,
           "; ".join(details) + f", {elapsed:.1f}s")


def test_criterion_9_mirror_symmetry():
    rng = np.random.default_rng(109)
    worst = 0.0
    for i in range(200):
        n = (2, 3, 4)[i % 3]
        M = sampling.default_bounds(n)
        prob, traj = draw_feasible(n, M, rng)
        mirrored = planner.plan(Problem(n, tuple(-v for v in prob.x0),
                                        tuple(-v for v in prob.xf), M))
        assert len(mirrored.segments) == len(traj.segments)
        for a, b in zip(traj.segments, mirrored.segments):
            worst = max(worst, abs(a.duration - b.duration), abs(a.u + b.u))
    report(9, "mirror symmetry", worst <= 1e-12, f"worst deviation {worst:.2e}")


def test_criterion_10_relaxation_monotonicity():
    rng = np.random.default_rng(110)
    worst = -np.inf
    for i in range(200):
        n = 3 if i % 2 == 0 else 4
        prob, traj = draw_feasible(n, sampling.default_bounds(n), rng)
        free = planner.plan_unconstrained(n, prob.x0, prob.xf, prob.M[0])
        worst = max(worst, free.t_f - traj.t_f)
    report(10, "relaxation monotonicity", worst <= 1e-9,
           f"worst unconstrained excess {worst:+.2e}")
