import pytest
from hypothesis import given, strategies as st

from chainplan import planner
from chainplan.metrics import (
    em_mse,
    is_success,
    sample_control,
    score,
    terminal_error,
    tv_total_variation,
)
from chainplan.model import Asl, Problem, Segment, Trajectory

from helpers import piecewise


class TestTerminalError:
    def test_exact_hit(self):
        assert terminal_error((0.0, 0.0), (0.0, 0.0), (1.0, 1.0, 1.0)) == 0.0

    def test_single_component(self):
        assert terminal_error((0.1,), (0.0,), (1.0, 1.0)) == pytest.approx(0.1)

    def test_pythagorean(self):
        assert terminal_error((0.3, 0.4), (0.0, 0.0), (1.0, 1.0, 1.0)) == \
            pytest.approx(0.5)

    def test_unbounded_scale(self):
        # unbounded components normalize by max(1, |target|)
        assert terminal_error((0.0, 8.0), (0.0, 10.0), (1.0, 1.0, None)) == \
            pytest.approx(0.2)


class TestEmMse:
    def test_saturated_control_is_zero(self):
        assert em_mse(piecewise([(1.0, 2.0), (-1.0, 1.0)])) == 0.0

    def test_half_bound_is_one(self):
        assert em_mse(piecewise([(0.5, 3.0)])) == pytest.approx(1.0)

    def test_zero_control_is_zero(self):
        assert em_mse(piecewise([(0.0, 5.0)])) == 0.0

    def test_zero_horizon(self):
        assert em_mse(piecewise([])) == 0.0

    def test_piecewise_matches_dense_sampling(self):
        traj = piecewise([(1.0, 0.7), (0.3, 1.1), (-1.0, 0.4), (0.0, 0.8)])
        # the squared distance to the law, integrated by the midpoint rule
        # on a dense grid
        steps = 100_000
        dt = traj.t_f / steps
        acc = sum(min(u * u, (abs(u) - 1.0) ** 2) * dt
                  for u in (traj.control_at((i + 0.5) * dt)
                            for i in range(steps)))
        dense = (4.0 * acc / traj.t_f) ** 0.5
        assert em_mse(traj) == pytest.approx(dense, abs=1e-4)

    @given(st.lists(st.tuples(st.floats(min_value=-1.0, max_value=1.0),
                              st.floats(min_value=0.0, max_value=2.0)),
                    max_size=30))
    def test_bounded_between_zero_and_one(self, pieces):
        val = em_mse(piecewise(pieces))
        assert 0.0 <= val <= 1.0 + 1e-12


class TestTotalVariation:
    def test_constant_is_zero(self):
        assert tv_total_variation((0.7, 0.7, 0.7), 1.0) == 0.0

    def test_alternating_is_one(self):
        assert tv_total_variation((1.0, -1.0, 1.0, -1.0, 1.0), 1.0) == \
            pytest.approx(1.0)

    def test_single_step(self):
        assert tv_total_variation((-1.0, 1.0, 1.0), 1.0) == pytest.approx(0.5)

    @pytest.mark.parametrize("samples", [(), (0.5,)])
    def test_needs_two_samples(self, samples):
        with pytest.raises(ValueError):
            tv_total_variation(samples, 1.0)

    @given(st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=2,
                    max_size=30))
    def test_bounded(self, us):
        val = tv_total_variation(us, 1.0)
        assert 0.0 <= val <= 1.0 + 1e-12


class TestIsSuccess:
    def test_planned_trajectory_succeeds(self):
        prob = Problem(3, (1.0, -0.375, 4.0), (0.0, 0.0, 0.0),
                       (1.0, 1.0, 1.5, 4.0))
        traj = planner.plan(prob)
        assert is_success(traj, prob)

    def test_terminal_miss_fails(self):
        prob = Problem(1, (0.0,), (1.0,), (1.0, None))
        short = Trajectory((Segment(1.0, 0.5, (0.0,)),), 0.5, Asl(()), prob)
        assert not is_success(short, prob)

    def test_bound_violation_fails(self):
        prob = Problem(2, (1.0, 0.0), (-1.0, 0.0), (1.0, 1.0, 0.4))
        bad = Trajectory((Segment(-1.0, 2.0, (1.0, 0.0)),), 2.0, Asl(()), prob)
        assert not is_success(bad, prob)


class TestPlannerControls:
    def test_em_exactly_zero_on_planned(self):
        import numpy as np
        from chainplan import sampling
        rng = np.random.default_rng(33)
        done = 0
        while done < 5:
            n = int(rng.integers(2, 5))
            prob = sampling.random_problem(n, sampling.default_bounds(n), rng, 0.8)
            try:
                traj = planner.plan(prob)
            except planner.PlanError:
                continue
            assert em_mse(traj) == 0.0
            done += 1

    def test_sample_control_grid(self):
        prob = Problem(2, (0.0, 2.0), (0.0, 0.0), (1.0, 1.0, None))
        traj = planner.plan(prob)
        samples = sample_control(traj, 6)
        assert len(samples) == 7
        assert samples[0] == -1.0
        assert samples[-1] == 1.0

    def test_sample_control_without_motion(self):
        prob = Problem(2, (0.5, 1.0), (0.5, 1.0), (1.0, 1.0, None))
        assert sample_control(planner.plan(prob), 4) == (0.0,) * 5


class TestScore:
    def test_is_the_individual_metrics(self):
        prob = Problem(3, (1.0, -0.375, 4.0), (0.0, 0.0, 0.0),
                       (1.0, 1.0, 1.5, 4.0))
        traj = planner.plan(prob)
        assert score(traj, 50, 1e-12) == {
            "t_f": traj.t_f,
            "E_s": terminal_error(traj.end_state, prob.xf, prob.M),
            "E_m": em_mse(traj),
            "T_v": tv_total_variation(sample_control(traj, 50), 1.0),
            "success": is_success(traj, prob, 1e-12),
        }

    def test_default_grid_and_tolerance(self):
        traj = piecewise([(1.0, 0.5), (0.5, 0.25)])
        got = score(traj)
        assert got["T_v"] == tv_total_variation(sample_control(traj, 1000),
                                                1.0)
        assert got["success"] is is_success(traj, traj.problem, 1e-9)

    def test_no_motion(self):
        prob = Problem(1, (0.25,), (0.25,), (1.0, None))
        traj = Trajectory((), 0.0, Asl(()), prob)
        assert score(traj) == {"t_f": 0.0, "E_s": 0.0, "E_m": 0.0,
                               "T_v": 0.0, "success": True}

    def test_input_above_bound_scores_no_success(self):
        traj = piecewise([(6.0, 0.5)])
        got = score(traj, 3)
        assert got["E_s"] == 0.0 and got["success"] is False
