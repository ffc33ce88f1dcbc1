import math
import os
import subprocess
import sys

import numpy as np
import pytest

import chainplan
from chainplan import kinematics, laws, oracle, solver
from chainplan.model import Asl, Behavior, Problem, Segment, Trajectory, asl_parse
from chainplan.solver import AssembleError, assemble, solve_times, verify

from helpers import stage_trajectory

M2 = (1.0, 1.0, None)


class TestAssemble:
    def test_counts_second_order(self):
        sys = assemble(asl_parse("-0 -1 +0"), (0.0, 2.0), (0.0, 0.0),
                       (1.0, 1.0, None))
        assert sys.num_unknowns == 3
        assert sys.num_equations == 3

    def test_counts_first_order(self):
        sys = assemble(asl_parse("-0"), (1.0,), (0.0,), (1.0, None))
        assert sys.num_unknowns == sys.num_equations == 1

    def test_marker_law_counts(self):
        sys = assemble(asl_parse("+0 -0 (-3,2) -0 +0 -0"),
                       (0.0, 0.0, 0.0), (0.0, 0.0, -1.0), (1.0, 1.0, 1.5, 4.0))
        assert sys.num_unknowns == sys.num_equations == 5

    def test_stages_walk_only_the_real_chain(self):
        # an order-4 group law as a degree-4 marker leg of order 5: the
        # group's duration is solved but never traversed
        law = asl_parse("-0 +0 (+3,2) +0 -0 +0 ( +3 ) -0 +0 (+3,2) +0 -0 +0")
        M = (1.0, 1.0, 1.5, 4.0, 20.0, 100.0)
        sys = assemble(law, (0.0,) * 5, (0.0,) * 5, M,
                       terminal=((5, 100.0), (4, 0.0), (3, 0.0), (2, 0.0)))
        times = tuple(float(i) for i in range(1, sys.num_unknowns + 1))
        behaviors = [e for e in law.elements if isinstance(e, Behavior)]
        assert sys.num_unknowns == len(behaviors) + 1
        assert sys.stages(times) == tuple(
            (float(b.sign), t)
            for b, t in zip(behaviors, times[:5] + times[6:]))

    def test_riding_unbounded_state_rejected(self):
        with pytest.raises(AssembleError):
            assemble(asl_parse("-0 -1 +0"), (0.0, 2.0), (0.0, 0.0),
                     (1.0, None, None))

    def test_unsigned_rejected(self):
        with pytest.raises(AssembleError):
            assemble(asl_parse("010"), (0.0, 2.0), (0.0, 0.0), (1.0, 1.0, None))

    def test_end_conditions_after_a_virtual_group_rejected(self):
        # the real chain's end conditions need a real stage to read
        with pytest.raises(AssembleError, match="real stage"):
            assemble(asl_parse("+0 -0 ( -1 )"), (0.0, 0.0), (0.0, 1.0),
                     (1.0, 1.0, None))

    def test_group_of_several_members_rejected(self):
        # its freedom matches order 4, but no catalog that can be built
        # holds a group of more than one member, and none is assembled
        law = asl_parse("-0 -1 +0 -2 ( +0 +1 -0 -3 ) +0 +1 -0 +2 -0 -1 +0")
        with pytest.raises(AssembleError, match="more than one member"):
            assemble(law, (0.1, 0.2, 0.3, 0.4), (0.0,) * 4,
                     (1.0, 1.0, 1.5, 4.0, 20.0))

    def test_freedom_mismatch_rejected(self):
        with pytest.raises(AssembleError):
            assemble(asl_parse("-0"), (0.0, 2.0), (0.0, 0.0), (1.0, 1.0, None))

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_balance_across_catalog(self, order):
        x0 = tuple(0.1 * (k + 1) for k in range(order))
        xf = tuple(0.0 for _ in range(order))
        M = (1.0, 1.0, 1.5, 4.0, 20.0)[: order + 1]
        for law in laws.enumerate_af(order):
            signed = laws.assign_signs(law, 1)
            sys = assemble(signed, x0, xf, M)
            assert sys.num_unknowns == sys.num_equations


class TestSolveTimes:
    def test_double_integrator_cruise(self):
        sys = assemble(asl_parse("-0 -1 +0"), (0.0, 2.0), (0.0, 0.0),
                       (1.0, 1.0, None))
        sol = solve_times(sys)
        assert sol.times == pytest.approx((1.0, 1.0, 1.0), abs=1e-9)

    def test_zero_motion(self):
        sys = assemble(asl_parse("-0 +0"), (0.0, 1.0), (0.0, 1.0), M2)
        sol = solve_times(sys)
        assert sol.times == pytest.approx((0.0, 0.0), abs=1e-9)

    def test_symmetric_two_bang(self):
        sys = assemble(asl_parse("-0 +0"), (0.0, 0.5), (0.0, 0.0), M2)
        sol = solve_times(sys)
        r = math.sqrt(0.5)
        assert sol.times == pytest.approx((r, r), abs=1e-9)

    def test_no_solution_returns_none(self):
        # riding the wrong side cannot reach the target
        sys = assemble(asl_parse("+0 +1 -0"), (0.0, 0.0), (0.0, -50.0),
                       (1.0, 1.0, None))
        assert solve_times(sys) is None

    def test_mirror_solutions_match(self):
        x0, xf = (0.3, 1.2), (-0.2, -0.4)
        a = solve_times(assemble(laws.assign_signs(asl_parse("00"), 1),
                                 x0, xf, M2))
        b = solve_times(assemble(laws.assign_signs(asl_parse("00"), -1),
                                 tuple(-v for v in x0), tuple(-v for v in xf),
                                 M2))
        assert a is not None and b is not None
        assert a.times == pytest.approx(b.times, abs=1e-12)

    def test_second_order_matches_closed_form(self):
        rng = np.random.default_rng(5)
        for _ in range(250):
            M1 = float(rng.uniform(0.5, 2.0))
            M = (float(rng.uniform(0.5, 2.0)), M1, None)
            x0 = (float(rng.uniform(-M1, M1)), float(rng.uniform(-3, 3)))
            xf = (float(rng.uniform(-M1, M1)), float(rng.uniform(-3, 3)))
            best = None
            for text in ("00", "010"):
                for sign in (1, -1):
                    signed = laws.assign_signs(asl_parse(text), sign)
                    try:
                        sys = assemble(signed, x0, xf, M)
                    except AssembleError:
                        continue
                    sol = solve_times(sys)
                    if sol is None:
                        continue
                    traj = stage_trajectory(sys, sol)
                    if verify(traj, M, 1e-9) is None:
                        tf = sum(sol.times)
                        best = tf if best is None else min(best, tf)
            expected = oracle.double_integrator_tf(x0, xf, M[0], M1)
            assert best == pytest.approx(expected, abs=1e-9)


class TestResidualScalars:
    """Every propagate inside the residuals and the root search gets Python
    floats, with the values numpy scalars would give."""

    @staticmethod
    def _systems():
        """Every order-2/3 catalog law, plus order-4 laws with a virtual
        group so that the virtual-branch steps run too."""
        groups = 0
        for order in (2, 3, 4):
            x0 = tuple(0.1 * (k + 1) for k in range(order))
            xf = tuple(-0.05 * (k + 1) for k in range(order))
            M = (1.0, 1.0, 1.5, 4.0, 20.0)[: order + 1]
            for law in laws.enumerate_af(order):
                for last in (1, -1):
                    try:
                        sys = assemble(laws.assign_signs(law, last), x0, xf, M)
                    except AssembleError:
                        continue
                    if order < 4:
                        yield sys
                    elif any(step[0] == solver._VSTART for step in sys.program):
                        yield sys
                        groups += 1
                        if groups == 6:
                            return

    def test_propagate_gets_floats(self, monkeypatch):
        propagate = kinematics.propagate

        def spy(x, u, t):
            assert type(t) is float
            return propagate(x, u, t)

        def on_numpy_scalars(x, u, t):
            return propagate(x, u, np.float64(t))

        rng = np.random.default_rng(11)
        systems = list(self._systems())
        assert len(systems) > 20
        for sys in systems:
            monkeypatch.setattr(kinematics, "propagate", spy)
            solve_times(sys, max_restarts=1)
            for _ in range(5):
                times = rng.uniform(0.0, 3.0, sys.num_unknowns).tolist()
                monkeypatch.setattr(kinematics, "propagate", spy)
                got = [v.hex() for v in sys.walk(times)[0]]
                monkeypatch.setattr(kinematics, "propagate", on_numpy_scalars)
                assert got == [float(v).hex() for v in sys.walk(times)[0]]


class TestJacobian:
    def test_matches_central_differences(self):
        # the residuals are polynomials in each duration, so a central
        # difference misses the derivative only by h^2/6 times a third
        # derivative and by the rounding of the residuals over h, both far
        # below the tolerance here
        rng = np.random.default_rng(17)
        h = 1e-5
        systems = list(TestResidualScalars._systems())
        assert any(step[0] == solver._VSTART
                   for sys in systems for step in sys.program)
        for sys in systems:
            for _ in range(3):
                times = rng.uniform(0.0, 3.0, sys.num_unknowns)
                res, jac, states = sys.walk(times.tolist(), True)
                assert (res, None, states) == sys.walk(times.tolist())
                fd = np.array([
                    (np.array(sys.walk((times + h * e).tolist())[0])
                     - np.array(sys.walk((times - h * e).tolist())[0]))
                    / (2 * h) for e in np.eye(sys.num_unknowns)]).T
                jac = np.array(jac)
                assert jac.shape == fd.shape == (sys.num_equations,
                                                 sys.num_unknowns)
                scale = float(np.max(np.abs(jac)))
                assert float(np.max(np.abs(jac - fd))) <= 1e-6 * scale


class TestStartup:
    def test_stage_solve_loads_neither_scipy_nor_the_oracle(self):
        # the stage solve polishes with kinematics' Newton step, so a plan
        # that solves a stage system loads numpy, and no scipy or oracle
        src = os.path.dirname(os.path.dirname(chainplan.__file__))
        code = ("import sys; from chainplan import planner; "
                "planner.plan_unconstrained(3, (0.3, -0.2, 0.5), "
                "(0.0, 0.0, 0.0), 1.0); print(sorted({'chainplan.oracle', "
                "'numpy', 'scipy'} & set(sys.modules)))")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, timeout=60,
                              env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "['numpy']"


class TestRealizeAndVerify:
    def test_group_times_not_traversed(self):
        # the realized path of a spliced law omits its virtual continuation
        law = asl_parse("-0 -1 +0 -2 +0 +1 -0 ( -3 ) +0 +1 -0 +0")
        x0 = (0.75, -0.375, 2.0, 9.0)
        xf = (0.25, 0.5, -2.0, -5.0)
        M = (1.0, 1.0, 1.5, 4.0, 20.0)
        sys = assemble(law, x0, xf, M)
        assert sys.num_unknowns == sys.num_equations == 12
        sol = solve_times(sys, max_restarts=16)
        assert sol is not None
        traj = stage_trajectory(sys, sol)
        assert len(traj.segments) == 11          # 12 durations, 1 virtual
        assert traj.t_f == pytest.approx(9.8604, abs=5e-3)
        assert verify(traj, M, 1e-9) is None

    def test_single_stage_law(self):
        sys = assemble(asl_parse("+0"), (0.0,), (1.5,), (1.0, None))
        traj = stage_trajectory(sys, solve_times(sys))
        assert len(traj.segments) == 1
        assert traj.t_f == pytest.approx(1.5, abs=1e-12)

    def test_zero_duration_stage_kept(self):
        sys = assemble(asl_parse("-0 +0"), (0.0, 1.0), (0.0, 1.0), M2)
        traj = stage_trajectory(sys, solve_times(sys))
        assert len(traj.segments) == 2
        assert traj.t_f == pytest.approx(0.0, abs=1e-10)

    def test_verify_detects_bound_violation(self):
        # interior peak of the top state exceeds its bound; endpoints are fine
        prob = Problem(2, (1.0, 0.0), (-1.0, 0.0), (1.0, 1.0, 0.4))
        traj = Trajectory((Segment(-1.0, 2.0, (1.0, 0.0)),), 2.0, Asl(()), prob)
        failure = verify(traj, prob.M, 1e-9)
        assert failure is not None and failure.k == 2

    def test_verify_detects_terminal_miss(self):
        prob = Problem(1, (0.0,), (1.0,), (1.0, None))
        traj = Trajectory((Segment(1.0, 0.5, (0.0,)),), 0.5, Asl(()), prob)
        failure = verify(traj, prob.M, 1e-9)
        assert failure is not None and "terminal" in failure.reason

    def test_verify_detects_input_above_M0(self):
        # u = 6 for 0.5 s reaches the goal, but only at six times M0
        prob = Problem(1, (0.0,), (3.0,), (1.0, None))
        traj = Trajectory((Segment(6.0, 0.5, (0.0,)),), 0.5, Asl(()), prob)
        failure = verify(traj, prob.M, 1e-9)
        assert failure is not None and "input" in failure.reason
        assert failure.value == 6.0

    def test_verify_detects_jumps(self):
        # the first segment must start at x0, and each later one where its
        # predecessor ends
        prob = Problem(1, (0.0,), (1.0,), (1.0, None))
        traj = Trajectory((Segment(1.0, 1.0, (0.5,)),), 1.0, Asl(()), prob)
        failure = verify(traj, prob.M, 1e-9)
        assert failure is not None and "start" in failure.reason
        assert (failure.k, failure.t) == (1, 0.0)
        traj = Trajectory((Segment(1.0, 0.5, (0.0,)), Segment(1.0, 0.5, (0.6,))),
                          1.0, Asl(()), prob)
        failure = verify(traj, prob.M, 1e-9)
        assert failure is not None and "start" in failure.reason
        assert (failure.k, failure.t, failure.value) == (1, 0.5, 0.6)

    def test_verify_detects_t_f_mismatch(self):
        prob = Problem(1, (0.0,), (1.0,), (1.0, None))
        traj = Trajectory((Segment(1.0, 1.0, (0.0,)),), 2.0, Asl(()), prob)
        failure = verify(traj, prob.M, 1e-9)
        assert failure is not None and "t_f" in failure.reason
        assert (failure.t, failure.value) == (2.0, 1.0)

    @pytest.mark.parametrize("segments, t_f, reason", [
        (((1.0, math.nan, 0.0),), 1.0, "non-finite"),
        (((math.nan, 1.0, 0.0),), 1.0, "non-finite"),
        (((1.0, 1.0, 0.0), (0.0, math.nan, 1.0)), 1.0, "non-finite"),
        (((0.0, math.inf, 0.0),), math.inf, "non-finite"),
        (((1.0, 1.0, 0.0),), math.nan, "t_f"),
    ], ids=["nan-duration", "nan-control", "extra-nan-segment",
            "inf-duration", "nan-t_f"])
    def test_verify_rejects_non_finite_values(self, segments, t_f, reason):
        # a NaN makes every comparison false, so no check may pass on one
        prob = Problem(1, (0.0,), (1.0,), (1.0, None))
        traj = Trajectory(tuple(Segment(u, d, (x,)) for u, d, x in segments),
                          t_f, Asl(()), prob)
        failure = verify(traj, prob.M, 1e-9)
        assert failure is not None and reason in failure.reason

    def test_verify_clamps_tiny_negative_duration(self):
        prob = Problem(1, (0.0,), (0.0,), (1.0, None))
        traj = Trajectory((Segment(1.0, -1e-15, (0.0,)),), 0.0, Asl(()), prob)
        assert verify(traj, prob.M, 1e-9) is None

    def test_repropagation_consistency(self):
        sys = assemble(asl_parse("-0 -1 +0"), (0.0, 2.0), (0.0, 0.0),
                       (1.0, 1.0, None))
        sol = solve_times(sys)
        from chainplan import kinematics
        cur = (0.0, 2.0)
        for (u, dur), expected in zip(
                zip(sys.controls, sol.times), sol.states):
            cur = kinematics.propagate(cur, u, dur)
            assert cur == pytest.approx(expected, abs=1e-9)
