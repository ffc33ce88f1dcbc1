import math

import numpy as np
import pytest

from chainplan import kinematics, laws, oracle, solver
from chainplan.model import Asl, Problem, Segment, Trajectory, asl_parse
from chainplan.solver import AssembleError, assemble, realize, solve_times, verify

M2 = (1.0, 1.0, None)
FIG7A = dict(x0=(1.0, -0.375, 4.0), xf=(0.0, 0.0, 0.0), M=(1.0, 1.0, 1.5, 4.0))


class TestStageControls:
    def test_bang_ride_bang(self):
        assert solver.stage_controls(asl_parse("-0 -1 +0"), 1.0) == [-1.0, 0.0, 1.0]

    def test_scaled_input(self):
        assert solver.stage_controls(asl_parse("+0 -0"), 2.0) == [2.0, -2.0]

    def test_group_members_ride(self):
        assert solver.stage_controls(asl_parse("-0 ( -3 ) +0"), 1.0) == \
            [-1.0, 0.0, 1.0]


class TestAssemble:
    def test_counts_second_order(self):
        sys = assemble(asl_parse("-0 -1 +0"), (0.0, 2.0), (0.0, 0.0),
                       (1.0, 1.0, None))
        assert sys.num_unknowns == 3
        assert sys.num_equations == 3
        assert sys.stage_variable_count == 7
        assert sys.stage_equation_count == 7

    def test_counts_first_order(self):
        sys = assemble(asl_parse("-0"), (1.0,), (0.0,), (1.0, None))
        assert sys.num_unknowns == sys.num_equations == 1

    def test_marker_law_counts(self):
        sys = assemble(asl_parse("+0 -0 (-3,2) -0 +0 -0"),
                       (0.0, 0.0, 0.0), (0.0, 0.0, -1.0), (1.0, 1.0, 1.5, 4.0))
        assert sys.num_unknowns == sys.num_equations == 5

    def test_riding_unbounded_state_rejected(self):
        with pytest.raises(AssembleError):
            assemble(asl_parse("-0 -1 +0"), (0.0, 2.0), (0.0, 0.0),
                     (1.0, None, None))

    def test_unsigned_rejected(self):
        with pytest.raises(AssembleError):
            assemble(asl_parse("010"), (0.0, 2.0), (0.0, 0.0), (1.0, 1.0, None))

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
            assert sys.stage_variable_count == sys.stage_equation_count


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
                    traj = realize(signed, sol, x0, xf, M)
                    if verify(traj, M, 1e-9) is None:
                        tf = sum(sol.times)
                        best = tf if best is None else min(best, tf)
            expected = oracle.double_integrator_tf(x0, xf, M[0], M1)
            assert best == pytest.approx(expected, abs=1e-9)


class TestResidualScalars:
    """Newton hands residuals numpy arrays; every propagate must still get
    Python floats, with the bytes numpy scalars would give."""

    def _systems(self):
        """Every order-2/3 catalog law, plus order-4 laws with a virtual
        group so that the virtual-branch ops run too."""
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
                    elif any(op[0] == "vstart" for op in sys.ops):
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
            for _ in range(5):
                times = rng.uniform(0.0, 3.0, sys.num_unknowns)
                monkeypatch.setattr(kinematics, "propagate", spy)
                got = sys.residuals(times).tobytes()
                assert got == sys.residuals(times.tolist()).tobytes()
                monkeypatch.setattr(kinematics, "propagate", on_numpy_scalars)
                assert got == sys.residuals(times).tobytes()


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
        traj = realize(law, sol, x0, xf, M)
        assert len(traj.segments) == 11          # 12 durations, 1 virtual
        assert traj.t_f == pytest.approx(9.8604, abs=5e-3)
        assert verify(traj, M, 1e-9) is None

    def test_single_stage_law(self):
        law = asl_parse("+0")
        sol = solve_times(assemble(law, (0.0,), (1.5,), (1.0, None)))
        traj = realize(law, sol, (0.0,), (1.5,), (1.0, None))
        assert len(traj.segments) == 1
        assert traj.t_f == pytest.approx(1.5, abs=1e-12)

    def test_zero_duration_stage_kept(self):
        law = asl_parse("-0 +0")
        sol = solve_times(assemble(law, (0.0, 1.0), (0.0, 1.0), M2))
        traj = realize(law, sol, (0.0, 1.0), (0.0, 1.0), M2)
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
