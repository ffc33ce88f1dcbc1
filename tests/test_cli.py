import csv
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import chainplan
from chainplan import sampling
from chainplan.cli import main, write_csv
from chainplan.model import Behavior
from chainplan.planner import InfeasibleProblem, PlanError, Planner, _Plan

from helpers import piecewise

FIG7A = {
    "order": 3,
    "x0": [1.0, -0.375, 4.0],
    "xf": [0.0, 0.0, 0.0],
    "M": [1.0, 1.0, 1.5, 4.0],
}


# feasible, and the eps tests' subject
FEASIBLE = {
    "order": 3,
    "x0": [0.0, 0.0, 0.0],
    "xf": [0.1, 0.2, 1.0],
    "M": [1.0, 1.0, 1.5, 4.0],
}
UNIT1 = {"order": 1, "x0": [0], "xf": [1], "M": [1, None]}
NAN = float("nan")
# a JSON integer that no float holds: float() raises OverflowError on it
BIG = 10 ** 400


def _two_ramps(u=1.0, duration=0.5, extra=None, t_f=1.0):
    """UNIT1's path in two u = 1 ramps, with the first one's u or duration
    replaced, an extra segment between the two, or another t_f."""
    segments = [{"u": u, "duration": duration, "start": [0.0]},
                {"u": 1.0, "duration": 0.5, "start": [0.5]}]
    if extra is not None:
        segments.insert(1, extra)
    return {"t_f": t_f, "segments": segments}


def write_problem(tmp_path, data, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


class TestPlan:
    def test_cruise_profile(self, tmp_path):
        inp = write_problem(tmp_path, FIG7A)
        out = str(tmp_path / "traj.json")
        assert main(["plan", "--input", inp, "--output", out]) == 0
        traj = json.loads((tmp_path / "traj.json").read_text())
        assert traj["asl"] == "-0 -1 +0 -2 +0 +1 -0"
        assert traj["t_f"] == pytest.approx(6.3107638888888889, abs=1e-9)
        assert len(traj["segments"]) == 7
        assert traj["segments"][0]["start"] == [1.0, -0.375, 4.0]

    def test_zero_motion(self, tmp_path):
        data = dict(FIG7A, xf=FIG7A["x0"])
        inp = write_problem(tmp_path, data)
        out = str(tmp_path / "t.json")
        assert main(["plan", "--input", inp, "--output", out]) == 0
        traj = json.loads((tmp_path / "t.json").read_text())
        assert traj["t_f"] == 0.0
        assert traj["segments"] == []

    def test_malformed_json_exit_3(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["plan", "--input", str(bad)]) == 3

    def test_missing_file_exit_3(self, tmp_path):
        assert main(["plan", "--input", str(tmp_path / "nope.json")]) == 3

    def test_infeasible_input_exit_1(self, tmp_path):
        data = dict(FIG7A, x0=[2.0, 0.0, 0.0])
        inp = write_problem(tmp_path, data)
        assert main(["plan", "--input", inp]) == 1

    def test_certified_infeasible_exit_1(self, tmp_path, capsys):
        # the goal arrives at the x3 wall too fast for any brake
        data = dict(FIG7A, x0=[0.52, -0.17, 2.73], xf=[0.37, -1.16, 3.61])
        inp = write_problem(tmp_path, data)
        assert main(["plan", "--input", inp]) == 1
        assert "infeasible input: no tangent-marker law exists" in \
            capsys.readouterr().err

    def test_certified_order_4_projection_exit_1(self, tmp_path, capsys):
        # seed-1 order-4 draw 27: its order-3 projection's goal arrives at
        # the x3 wall too fast for any brake
        data = {"order": 4,
                "x0": [-0.7457723991735901, -0.7516951695508596,
                       1.118012130782576, 2.258067134479944],
                "xf": [-0.5463119456212597, 1.0848702449428438,
                       -2.2121367516966126, 0.3297039916379312],
                "M": [1.0, 1.0, 1.5, 4.0, 20.0]}
        inp = write_problem(tmp_path, data)
        assert main(["plan", "--input", inp]) == 1
        assert capsys.readouterr().err.startswith(
            "chainplan: infeasible input: no tangent-marker law exists")

    def test_invalid_planned_law_exit_2(self, tmp_path, capsys, monkeypatch):
        # a plan whose law breaks the sign chain (+0 +2 +0) is a planner
        # failure, not malformed input
        def broken(self, n, x0, xf, M, depth=0):
            return _Plan(((1.0, 0.5), (0.0, 1.0), (1.0, 0.5)),
                         (Behavior(0, 1), Behavior(2, 1), Behavior(0, 1)))

        monkeypatch.setattr(Planner, "_plan", broken)
        inp = write_problem(tmp_path, FIG7A)
        assert main(["plan", "--input", inp]) == 2
        assert "planned law is invalid" in capsys.readouterr().err

    def test_cross_check_runs(self, tmp_path, capsys):
        inp = write_problem(tmp_path, FIG7A)
        out = str(tmp_path / "t.json")
        assert main(["plan", "--input", inp, "--output", out,
                     "--cross-check"]) == 0
        assert "cross-check" in capsys.readouterr().err

    def test_cross_check_above_order_3_says_it_was_skipped(self, tmp_path,
                                                          capsys):
        # the oracle covers orders 1-3; the plan is still written
        data = {"order": 4, "x0": [0.0, 0.0, 0.0, 0.0],
                "xf": [0.0, 0.0, 0.0, 1.0],
                "M": [1.0, 1.0, 1.5, 4.0, 20.0]}
        inp = write_problem(tmp_path, data)
        out = tmp_path / "t.json"
        assert main(["plan", "--input", inp, "--output", str(out),
                     "--cross-check"]) == 0
        assert capsys.readouterr().err == (
            "cross-check skipped: the exhaustive oracle covers orders 1-3, "
            "not 4\n")
        assert json.loads(out.read_text())["segments"]

    def test_csv_sampling(self, tmp_path):
        inp = write_problem(tmp_path, FIG7A)
        out = str(tmp_path / "t.json")
        csv_path = tmp_path / "t.csv"
        assert main(["plan", "--input", inp, "--output", out,
                     "--csv", str(csv_path), "--sample-dt", "0.01"]) == 0
        with open(csv_path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "u", "x1", "x2", "x3"]
        body = [[float(v) for v in row] for row in rows[1:]]
        assert body[0][0] == 0.0
        assert body[0][2:] == pytest.approx([1.0, -0.375, 4.0])
        t_f = json.loads((tmp_path / "t.json").read_text())["t_f"]
        assert body[-1][0] == pytest.approx(t_f, abs=1e-12)
        assert body[-1][2:] == pytest.approx([0.0, 0.0, 0.0], abs=1e-6)
        times = [r[0] for r in body]
        assert times == sorted(times)
        assert len(times) == len(set(times))

    def test_csv_last_row_is_t_f(self, tmp_path):
        # the 0.1 s grid puts a sample 1e-14 s before t_f; the two merge
        # into one row at t_f itself
        traj = piecewise([(1.0, 0.3 + 1e-14)])
        write_csv(traj, str(tmp_path / "t.csv"), 0.1)
        with open(tmp_path / "t.csv") as fh:
            times = [float(row[0]) for row in list(csv.reader(fh))[1:]]
        assert times[-1] == traj.t_f
        assert times[-2] < 0.25

    def test_negative_infinite_bound_exit_3(self, tmp_path, capsys):
        # only +inf means unbounded; -inf is a bound that is not positive
        inp = write_problem(tmp_path,
                            dict(FIG7A, M=[1.0, -math.inf, 1.5, 4.0]))
        assert main(["plan", "--input", inp]) == 3
        assert "bound M1 must be strictly positive" in capsys.readouterr().err

    @pytest.mark.parametrize("order", [1.9, True, math.inf, math.nan])
    def test_non_integral_order_exit_3(self, tmp_path, capsys, order):
        # read as int, 1.9 and true would plan UNIT1 as an order-1 problem
        inp = write_problem(tmp_path, dict(UNIT1, order=order))
        assert main(["plan", "--input", inp]) == 3
        assert "bad problem data" in capsys.readouterr().err

    def test_integral_float_order_plans(self, tmp_path):
        inp = write_problem(tmp_path, dict(UNIT1, order=1.0))
        assert main(["plan", "--input", inp]) == 0

    @pytest.mark.parametrize("field, value", [
        ("x0", [False]), ("xf", [True]), ("M", [True, None]),
    ], ids=["x0", "xf", "M"])
    def test_boolean_exit_3(self, tmp_path, capsys, field, value):
        # read as numbers, false and true planned UNIT1's 0 -> 1 at M0 = 1
        inp = write_problem(tmp_path, dict(UNIT1, **{field: value}))
        assert main(["plan", "--input", inp]) == 3
        assert "expected a number, got" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [
        ("order", "1"), ("x0", "0"), ("xf", ["1"]), ("M", ["1", None]),
    ], ids=["order", "x0", "xf", "M"])
    def test_string_exit_3(self, tmp_path, capsys, field, value):
        # read as numbers, the strings planned UNIT1; a string state was
        # read character by character
        inp = write_problem(tmp_path, dict(UNIT1, **{field: value}))
        assert main(["plan", "--input", inp]) == 3
        assert "expected a number, got '" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [
        ("x0", [BIG]), ("M", [1, BIG]),
    ], ids=["x0", "M"])
    def test_integer_beyond_float_range_exit_3(self, tmp_path, capsys, field,
                                               value):
        inp = write_problem(tmp_path, dict(UNIT1, **{field: value}))
        assert main(["plan", "--input", inp]) == 3
        assert "integer too large for a float" in capsys.readouterr().err

    def test_unwritable_output_exit_3(self, tmp_path, capsys):
        inp = write_problem(tmp_path, UNIT1)
        out = str(tmp_path / "missing" / "t.json")
        assert main(["plan", "--input", inp, "--output", out]) == 3
        assert capsys.readouterr().err.startswith(
            "chainplan: cannot write output: ")

    def test_failed_cross_check_still_writes_the_plan(self, tmp_path, capsys,
                                                      monkeypatch):
        from chainplan import oracle

        def fail(problem):
            raise oracle.OracleError("no law converged")

        monkeypatch.setattr(oracle, "exhaustive_tf", fail)
        inp = write_problem(tmp_path, FIG7A)
        out = tmp_path / "t.json"
        assert main(["plan", "--input", inp, "--output", str(out),
                     "--cross-check"]) == 0
        assert capsys.readouterr().err == \
            "cross-check failed: no law converged\n"
        assert json.loads(out.read_text())["segments"]

    @pytest.mark.parametrize("dt", ["0", "-0.01", "nan", "inf"])
    def test_bad_sample_dt_exit_3(self, tmp_path, dt):
        # a period <= 0 would sample the CSV forever
        inp = write_problem(tmp_path, FIG7A)
        assert main(["plan", "--input", inp, "--csv", str(tmp_path / "t.csv"),
                     "--sample-dt", dt]) == 3
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize("eps", ["nan", "inf", "-1"])
    def test_bad_eps_exit_3(self, tmp_path, eps):
        # a feasible problem: nan read as a proof of infeasibility, -1 as a
        # planner failure and inf passed every bound check
        inp = write_problem(tmp_path, FEASIBLE)
        assert main(["plan", "--input", inp, "--eps", "1e-9"]) == 0
        assert main(["plan", "--input", inp, "--eps", eps]) == 3


class TestEnumerate:
    def test_order_two(self, capsys):
        assert main(["enumerate", "--order", "2"]) == 0
        assert capsys.readouterr().out == "00\n010\n"

    def test_order_one(self, capsys):
        assert main(["enumerate", "--order", "1"]) == 0
        assert capsys.readouterr().out == "0\n"

    def test_order_three_has_24_lines(self, capsys):
        assert main(["enumerate", "--order", "3"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 24
        assert lines == sorted(lines)

    def test_order_zero_exit_3(self, capsys):
        assert main(["enumerate", "--order", "0"]) == 3
        assert capsys.readouterr().out == ""

    def test_order_five_exceeds_the_cap_exit_2(self, capsys):
        assert main(["enumerate", "--order", "5"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "exceeded cap" in err

    def test_closed_pipe_exit_3(self):
        # the order-4 catalog (117 kB) outgrows a pipe's buffer, so the CLI
        # is still writing when its reader leaves after one line
        src = os.path.dirname(os.path.dirname(chainplan.__file__))
        proc = subprocess.Popen(
            [sys.executable, "-m", "chainplan.cli", "enumerate", "--order", "4"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": src})
        assert proc.stdout.readline() == b"00(3,2)000(3)00(3,2)000\n"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 3
        assert err == b""


class TestStartup:
    def test_import_loads_no_oracle_numpy_or_scipy(self):
        # only plan --cross-check needs the oracle, which compiles its
        # catalog's kernels at import; the package uses no scipy, and only
        # the planner's stage solve, batch and the oracle's searches need
        # numpy, which each imports on its first call
        src = os.path.dirname(os.path.dirname(chainplan.__file__))
        code = ("import sys, chainplan.cli; print(sorted({'chainplan.oracle', "
                "'numpy', 'scipy'} & set(sys.modules)))")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, timeout=60,
                              env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


class TestMetrics:
    def test_scores_planned_trajectory(self, tmp_path):
        inp = write_problem(tmp_path, FIG7A)
        tout = str(tmp_path / "t.json")
        main(["plan", "--input", inp, "--output", tout])
        mout = str(tmp_path / "m.json")
        assert main(["metrics", "--trajectory", tout, "--problem", inp,
                     "--output", mout]) == 0
        scores = json.loads((tmp_path / "m.json").read_text())
        assert scores["success"] is True
        assert scores["E_m"] == 0.0
        assert scores["E_s"] <= 1e-6
        assert 0.0 <= scores["T_v"] <= 1.0
        assert scores["t_f"] == pytest.approx(6.31076388, abs=1e-6)

    @pytest.mark.parametrize("problem, trajectory", [
        ({"order": 1, "x0": [0], "xf": [3], "M": [1, None]},
         {"t_f": 0.5, "segments": [{"u": 6.0, "duration": 0.5,
                                    "start": [0.0]}]}),
        (FIG7A, {"t_f": 0.0, "segments": [{"u": 0.0, "duration": 0.0,
                                           "start": [0.0, 0.0, 0.0]}]}),
    ], ids=["input-above-M0", "starts-at-goal"])
    def test_invalid_path_is_no_success(self, tmp_path, problem,
                                           trajectory):
        # each reaches its goal, but with |u| > M0 or by a jump from x0
        inp = write_problem(tmp_path, problem)
        tpath = write_problem(tmp_path, trajectory, "traj.json")
        mout = str(tmp_path / "m.json")
        assert main(["metrics", "--trajectory", tpath, "--problem", inp,
                     "--output", mout]) == 0
        assert json.loads((tmp_path / "m.json").read_text())["success"] \
            is False

    @pytest.mark.parametrize("problem, trajectory", [
        (FIG7A, {"t_f": 1.0, "segments": [{"u": 1.0, "duration": None,
                                           "start": [0.0, 0.0, 0.0]}]}),
        (FIG7A, {"t_f": 1.0, "segments": 5}),
        (FIG7A, {"t_f": 1.0, "segments": [{"u": 1.0, "duration": 1.0,
                                           "start": [0.0]}]}),
        # JSON writes NaN and Infinity, and json.load reads them back
        (UNIT1, _two_ramps(duration=NAN)),
        (UNIT1, _two_ramps(duration=float("inf"))),
        (UNIT1, _two_ramps(u=NAN)),
        (UNIT1, _two_ramps(extra={"u": 0.0, "duration": NAN,
                                  "start": [0.5]})),
        (UNIT1, _two_ramps(t_f=NAN)),
        # JSON's true and false are no numbers
        (UNIT1, _two_ramps(u=True)),
        (UNIT1, _two_ramps(duration=True)),
        (UNIT1, _two_ramps(t_f=True)),
        (UNIT1, {"t_f": 1.0, "segments": [{"u": 1.0, "duration": 1.0,
                                           "start": [False]}]}),
        # nor are strings
        (UNIT1, _two_ramps(u="1")),
        (UNIT1, _two_ramps(duration="0.5")),
        (UNIT1, _two_ramps(t_f="1")),
        (UNIT1, {"t_f": 1.0, "segments": [{"u": 1.0, "duration": 1.0,
                                           "start": ["0"]}]}),
        # nor are integers beyond the float range, which raised
        # OverflowError
        (UNIT1, _two_ramps(u=BIG)),
        (UNIT1, _two_ramps(duration=BIG)),
        (UNIT1, _two_ramps(t_f=BIG)),
        (UNIT1, {"t_f": 1.0, "segments": [{"u": 1.0, "duration": 1.0,
                                           "start": [BIG]}]}),
    ], ids=["null-duration", "segments-not-a-list", "short-start",
            "nan-duration", "infinite-duration", "nan-control",
            "extra-nan-segment", "nan-t_f", "boolean-control",
            "boolean-duration", "boolean-t_f", "boolean-start",
            "string-control", "string-duration", "string-t_f",
            "string-start", "huge-control", "huge-duration", "huge-t_f",
            "huge-start"])
    def test_malformed_trajectory_exit_3(self, tmp_path, problem, trajectory):
        inp = write_problem(tmp_path, problem)
        tpath = write_problem(tmp_path, trajectory, "traj.json")
        assert main(["metrics", "--trajectory", tpath, "--problem", inp]) == 3

    @pytest.mark.parametrize("eps", ["nan", "inf", "-1"])
    def test_bad_eps_exit_3(self, tmp_path, eps):
        # nan and -1 scored a verified trajectory as no success
        inp = write_problem(tmp_path, FEASIBLE)
        tout = str(tmp_path / "t.json")
        assert main(["plan", "--input", inp, "--output", tout]) == 0
        assert main(["metrics", "--trajectory", tout, "--problem", inp,
                     "--eps", eps]) == 3

    def test_unwritable_output_exit_3(self, tmp_path, capsys):
        # it raised FileNotFoundError and exited 1, the infeasible-input code
        inp = write_problem(tmp_path, FIG7A)
        tout = str(tmp_path / "t.json")
        assert main(["plan", "--input", inp, "--output", tout]) == 0
        capsys.readouterr()
        mout = str(tmp_path / "missing" / "m.json")
        assert main(["metrics", "--trajectory", tout, "--problem", inp,
                     "--output", mout]) == 3
        assert capsys.readouterr().err.startswith(
            "chainplan: cannot write metrics: ")

    def test_zero_samples_exit_3(self, tmp_path):
        inp = write_problem(tmp_path, FIG7A)
        tout = str(tmp_path / "t.json")
        assert main(["plan", "--input", inp, "--output", tout]) == 0
        assert main(["metrics", "--trajectory", tout, "--problem", inp,
                     "--samples", "0"]) == 3


class TestBatch:
    def test_deterministic_report(self, tmp_path):
        a = str(tmp_path / "a.json")
        b = str(tmp_path / "b.json")
        args = ["batch", "--order", "2", "--count", "3", "--seed", "7",
                "--bounds", "[1, 1, null]"]
        assert main(args + ["--output", a]) == 0
        assert main(args + ["--output", b]) == 0
        assert (tmp_path / "a.json").read_bytes() == \
            (tmp_path / "b.json").read_bytes()

    def test_aggregates(self, tmp_path):
        out = str(tmp_path / "r.json")
        assert main(["batch", "--order", "2", "--count", "4", "--seed", "1",
                     "--bounds", "[1, 1, null]", "--output", out]) == 0
        report = json.loads((tmp_path / "r.json").read_text())
        assert report["aggregate"]["R_s"] == 1.0
        assert len(report["problems"]) == 4
        assert all(p["E_m"] == 0.0 for p in report["problems"])

    def test_failures_are_counted_apart_from_infeasible_draws(self,
                                                              tmp_path):
        # seed 5's first order-3 draw fails verification and the next four
        # are proven infeasible: "failed" counts the one, "rejected" the
        # four, as the planner raises them on a replay of the draws
        out = str(tmp_path / "r.json")
        assert main(["batch", "--order", "3", "--count", "1", "--seed", "5",
                     "--output", out]) == 0
        report = json.loads((tmp_path / "r.json").read_text())
        rng = np.random.default_rng(5)
        rejected, failed = 0, []
        while True:
            problem = sampling.random_problem(3, sampling.default_bounds(3),
                                              rng, 0.95)
            try:
                Planner().plan(problem)
                break
            except InfeasibleProblem:
                rejected += 1
            except PlanError as e:
                failed.append(str(e))
        assert failed[0].startswith("planned trajectory failed verification")
        assert (report["rejected"], report["failed"]) == (rejected,
                                                          len(failed))
        assert len(report["problems"]) == 1

    def test_order_2_fails_no_draw(self, tmp_path):
        # seed 5's draws include one whose plan leaves the position bound,
        # which proves it infeasible at order 2
        out = str(tmp_path / "r.json")
        assert main(["batch", "--order", "2", "--count", "20", "--seed", "5",
                     "--output", out]) == 0
        report = json.loads((tmp_path / "r.json").read_text())
        assert (report["rejected"], report["failed"]) == (1, 0)

    def test_empty_batch(self, tmp_path):
        out = str(tmp_path / "r.json")
        assert main(["batch", "--order", "2", "--count", "0",
                     "--output", out]) == 0
        report = json.loads((tmp_path / "r.json").read_text())
        assert report["aggregate"]["R_s"] is None
        assert report["problems"] == []

    def test_bad_bounds_exit_3(self, tmp_path):
        assert main(["batch", "--order", "2", "--count", "1",
                     "--bounds", "oops"]) == 3

    @pytest.mark.parametrize("extra", [
        ["--order", "0"],
        ["--order", "2", "--bounds", "[null, 1, 1]"],
        ["--order", "2", "--bounds", "[1, -1, 1]"],
        ["--order", "3", "--bounds", "[1, -Infinity, 1.5, 4]"],
        ["--order", "2", "--bounds", "[true, 1, null]"],
        ["--order", "2", "--bounds", '["1", 1, null]'],
        ["--order", "2", "--bounds", f"[1, {BIG}, null]"],
        ["--order", "2", "--margin", "1.5"],
        ["--order", "2", "--margin", "0"],
        ["--order", "2", "--margin", "-0.5"],
        ["--order", "2", "--count", "-1"],
        ["--order", "2", "--seed", "-1"],
    ], ids=["order-0", "null-M0", "negative-M1", "minus-infinity-M1",
            "boolean-M0", "string-M0", "huge-M1", "margin-1.5", "margin-0",
            "margin-negative", "negative-count", "negative-seed"])
    def test_bad_arguments_exit_3(self, tmp_path, extra):
        assert main(["batch", "--count", "1"] + extra) == 3

    def test_unwritable_output_exit_3(self, tmp_path, capsys):
        out = str(tmp_path / "missing" / "r.json")
        assert main(["batch", "--order", "2", "--count", "1",
                     "--bounds", "[1, 1, null]", "--output", out]) == 3
        assert capsys.readouterr().err.startswith(
            "chainplan: cannot write report: ")

    def test_too_many_failed_draws_exit_2(self, capsys, monkeypatch):
        # every draw fails: batch gives up after 50 redraws per problem
        calls = []

        def fail(self, problem):
            calls.append(problem)
            raise PlanError("no plan")

        monkeypatch.setattr(Planner, "plan", fail)
        assert main(["batch", "--order", "2", "--count", "1",
                     "--bounds", "[1, 1, null]"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("chainplan: too many infeasible or failed draws")
        assert len(calls) == 51

    def test_timing_flag_adds_section(self, tmp_path):
        out = str(tmp_path / "r.json")
        assert main(["batch", "--order", "2", "--count", "1", "--timing",
                     "--bounds", "[1, 1, null]", "--output", out]) == 0
        report = json.loads((tmp_path / "r.json").read_text())
        assert "timing" in report
