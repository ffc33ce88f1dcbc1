"""Command-line front end.

Subcommands: ``plan`` (problem JSON in, trajectory JSON/CSV out),
``enumerate`` (print the order-n law catalog), ``metrics`` (score a
trajectory against its problem), ``batch`` (random problem sweeps with
aggregate statistics).

Exit codes: 0 success, 1 infeasible input, 2 planner/search failure,
3 I/O or parse error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from typing import Optional

from . import laws, metrics, sampling
from .laws import LawEnumerationError
from .model import (
    InfeasibleError,
    Problem,
    Segment,
    Trajectory,
    asl_parse,
    check_bounds,
    check_number,
    check_state,
)
from .planner import InfeasibleProblem, PlanError, Planner

EXIT_INFEASIBLE = 1
EXIT_PLANNER = 2
EXIT_IO = 3


def _fail(code: int, message: str) -> int:
    print(f"chainplan: {message}", file=sys.stderr)
    return code


def problem_from_dict(data: dict) -> Problem:
    """The problem, read by ``Problem``: InfeasibleError for a boundary
    state beyond its bound, ValueError for other malformed data."""
    try:
        order = check_number(data["order"])
        n = int(order)
        if n != order:
            raise ValueError(f"order must be an integer, got {order!r}")
        return Problem(n, data["x0"], data["xf"], data["M"])
    except InfeasibleError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise ValueError(f"problem JSON missing or malformed field: {e}") from e


def trajectory_to_dict(traj: Trajectory) -> dict:
    return {
        "t_f": traj.t_f,
        "asl": traj.asl.text(),
        "segments": [
            {"u": s.u, "duration": s.duration, "start": list(s.start)}
            for s in traj.segments
        ],
    }


def trajectory_from_dict(data: dict, problem: Problem) -> Trajectory:
    try:
        segs = tuple(
            Segment(check_number(s["u"]), check_number(s["duration"]),
                    check_state(s["start"], problem.n))
            for s in data["segments"]
        )
        t_f = check_number(data["t_f"])
        # JSON's NaN and +/-Infinity are as malformed as a string
        if not all(map(math.isfinite, [t_f] + [v for s in segs
                                               for v in (s.u, s.duration)])):
            raise ValueError("u, duration and t_f must be finite")
        asl = asl_parse(data.get("asl", ""))
    except (KeyError, TypeError, ValueError) as e:
        raise ValueError(f"trajectory JSON missing or malformed field: {e}") from e
    return Trajectory(segs, t_f, asl, problem)


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _dump_json(data, path: Optional[str]) -> None:
    text = json.dumps(data, indent=2, sort_keys=True)
    if path is None:
        print(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def write_csv(traj: Trajectory, path: str, dt: float) -> None:
    """Sampled states at a fixed period plus every switching instant (each
    exactly once, carrying the incoming segment's control)."""
    n = traj.problem.n
    times = [0.0]
    k = 1
    while k * dt < traj.t_f - 1e-15:
        times.append(k * dt)
        k += 1
    times.extend(b for b in traj.ends[:-1] if b > 0.0)
    times.append(traj.t_f)
    times = sorted(set(times))
    dedup = [times[0]]
    for t in times[1:]:
        if t - dedup[-1] > 1e-12:
            dedup.append(t)
        else:
            dedup[-1] = max(dedup[-1], t)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t,u," + ",".join(f"x{k}" for k in range(1, n + 1)) + "\n")
        for t in dedup:
            state = traj.state_at(t)
            fh.write(f"{t:.17g},{traj.control_at(t):.17g},"
                     + ",".join(f"{v:.17g}" for v in state) + "\n")


def cmd_plan(args) -> int:
    if not 0.0 < args.sample_dt < math.inf:
        return _fail(EXIT_IO, f"sample-dt must be positive and finite, "
                              f"got {args.sample_dt}")
    if not 0.0 <= args.eps < math.inf:
        return _fail(EXIT_IO, f"eps must be finite and >= 0, got {args.eps}")
    try:
        data = _load_json(args.input)
    except (OSError, json.JSONDecodeError) as e:
        return _fail(EXIT_IO, f"cannot read problem: {e}")
    try:
        problem = problem_from_dict(data)
    except InfeasibleError as e:
        return _fail(EXIT_INFEASIBLE, f"infeasible input: {e}")
    except ValueError as e:
        return _fail(EXIT_IO, f"bad problem data: {e}")
    planner = Planner(bound_eps=args.eps)
    try:
        traj = planner.plan(problem)
    except InfeasibleProblem as e:
        return _fail(EXIT_INFEASIBLE, f"infeasible input: {e}")
    except PlanError as e:
        return _fail(EXIT_PLANNER, f"planning failed: {e}")
    if args.cross_check and problem.n > 3:
        print(f"cross-check skipped: the exhaustive oracle covers orders "
              f"1-3, not {problem.n}", file=sys.stderr)
    elif args.cross_check:
        # imported here: the oracle compiles its catalog's elimination
        # kernels at import, which no other command needs
        from . import oracle
        try:
            ref = oracle.exhaustive_tf(problem)
            print(f"cross-check: t_f={traj.t_f:.9f} exhaustive={ref.t_f:.9f} "
                  f"(law {ref.law}, gap {traj.t_f - ref.t_f:+.3e})",
                  file=sys.stderr)
        except oracle.OracleError as e:
            print(f"cross-check failed: {e}", file=sys.stderr)
    try:
        _dump_json(trajectory_to_dict(traj), args.output)
        if args.csv:
            write_csv(traj, args.csv, args.sample_dt)
    except OSError as e:
        return _fail(EXIT_IO, f"cannot write output: {e}")
    return 0


def cmd_enumerate(args) -> int:
    try:
        catalog = laws.enumerate_af(args.order)
    except LawEnumerationError as e:
        return _fail(EXIT_PLANNER, str(e))
    except ValueError as e:
        return _fail(EXIT_IO, str(e))
    for law in catalog:
        print(laws.canonical(law))
    return 0


def cmd_metrics(args) -> int:
    if args.samples < 1:
        return _fail(EXIT_IO, f"samples must be >= 1, got {args.samples}")
    if not 0.0 <= args.eps < math.inf:
        return _fail(EXIT_IO, f"eps must be finite and >= 0, got {args.eps}")
    try:
        pdata = _load_json(args.problem)
        tdata = _load_json(args.trajectory)
        problem = problem_from_dict(pdata)
        traj = trajectory_from_dict(tdata, problem)
    except (OSError, json.JSONDecodeError, KeyError, ValueError) as e:
        return _fail(EXIT_IO, f"cannot read inputs: {e}")
    try:
        _dump_json(metrics.score(traj, args.samples, args.eps), args.output)
    except OSError as e:
        return _fail(EXIT_IO, f"cannot write metrics: {e}")
    return 0


def cmd_batch(args) -> int:
    if args.order < 1:
        return _fail(EXIT_IO, f"order must be >= 1, got {args.order}")
    if args.count < 0:
        return _fail(EXIT_IO, f"count must be >= 0, got {args.count}")
    if args.seed < 0:
        return _fail(EXIT_IO, f"seed must be >= 0, got {args.seed}")
    if not 0.0 < args.margin <= 1.0:
        return _fail(EXIT_IO, f"margin must lie in (0, 1], got {args.margin}")
    if args.bounds:
        try:
            M = check_bounds(json.loads(args.bounds), args.order)
        except (TypeError, ValueError) as e:
            return _fail(EXIT_IO, f"bad bounds JSON: {e}")
    else:
        M = sampling.default_bounds(args.order)
    import numpy as np  # slow to import; only batch draws problems
    rng = np.random.default_rng(args.seed)
    records = []
    timings = []
    rejected = failed = 0
    while len(records) < args.count:
        problem = sampling.random_problem(args.order, M, rng, args.margin)
        planner = Planner()
        t0 = time.perf_counter()
        try:
            traj = planner.plan(problem)
        except InfeasibleProblem:
            # the drawn boundary states admit no trajectory (for example,
            # arriving at a position wall too fast to brake)
            rejected += 1
        except PlanError:
            # the planner failed on a draw that it did not prove infeasible
            failed += 1
        else:
            timings.append(time.perf_counter() - t0)
            records.append({"x0": list(problem.x0), "xf": list(problem.xf),
                            **metrics.score(traj)})
            continue
        # either way, redraw
        if rejected + failed > 50 * max(1, args.count):
            return _fail(EXIT_PLANNER,
                         "too many infeasible or failed draws; widen the "
                         "bounds or lower --margin")
    succ = [r["success"] for r in records]
    tfs = sorted(r["t_f"] for r in records)
    errs = sorted(r["E_s"] for r in records)
    report = {
        "order": args.order,
        "count": args.count,
        "seed": args.seed,
        "M": list(M),
        "rejected": rejected,
        "failed": failed,
        "problems": records,
        "aggregate": {
            "R_s": (sum(succ) / len(succ)) if succ else None,
            "median_t_f": tfs[len(tfs) // 2] if tfs else None,
            "median_E_s": errs[len(errs) // 2] if errs else None,
        },
    }
    if args.timing:
        report["timing"] = {"wall_time_s": timings,
                            "total_s": sum(timings)}
    try:
        _dump_json(report, args.output)
    except OSError as e:
        return _fail(EXIT_IO, f"cannot write report: {e}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="chainplan",
        description="Trajectory planning for chain-of-integrators systems "
                    "under input saturation and full state constraints.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan", help="plan one problem from JSON")
    p.add_argument("--input", required=True, help="problem JSON path")
    p.add_argument("--output", help="trajectory JSON path (default stdout)")
    p.add_argument("--csv", help="sampled trajectory CSV path")
    p.add_argument("--sample-dt", type=float, default=0.001,
                   help="CSV sampling period in seconds (default 0.001)")
    p.add_argument("--eps", type=float, default=1e-9,
                   help="feasibility tolerance (default 1e-9)")
    p.add_argument("--cross-check", action="store_true",
                   help="compare against the exhaustive oracle (order <= 3)")
    p.set_defaults(func=cmd_plan)

    e = sub.add_parser("enumerate", help="print the order-n law catalog")
    e.add_argument("--order", type=int, required=True)
    e.set_defaults(func=cmd_enumerate)

    m = sub.add_parser("metrics", help="score a trajectory against a problem")
    m.add_argument("--trajectory", required=True)
    m.add_argument("--problem", required=True)
    m.add_argument("--output", help="metrics JSON path (default stdout)")
    m.add_argument("--samples", type=int, default=1000,
                   help="control samples for total variation (default 1000)")
    m.add_argument("--eps", type=float, default=1e-9)
    m.set_defaults(func=cmd_metrics)

    b = sub.add_parser("batch", help="plan random problems and aggregate")
    b.add_argument("--order", type=int, required=True)
    b.add_argument("--count", type=int, required=True)
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--bounds", help="JSON list M0..Mn (null = unbounded)")
    b.add_argument("--margin", type=float, default=0.95,
                   help="boundary-state draw margin inside bounds")
    b.add_argument("--output", help="report JSON path (default stdout)")
    b.add_argument("--timing", action="store_true",
                   help="include wall times (makes the report nondeterministic)")
    b.set_defaults(func=cmd_batch)
    return ap


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout (``chainplan enumerate | head``); point
        # it at devnull so that the flush at interpreter exit cannot fail too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_IO
    return code


if __name__ == "__main__":
    sys.exit(main())
