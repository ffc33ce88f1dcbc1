#!/usr/bin/env python3
"""Layered planning benchmark for chainplan.

    python3 perfbench/run.py --workload {plan3,plan4,xcheck3,all} \
        [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root; the package is imported from ``src/`` on the
pure-Python kernel backend, one process, one core, one caller planning one
problem after another (closed loop).

Workloads (why each exists is in README.md):

- plan3    order-3 problems through ``planner.plan``
- plan4    order-4 problems through ``planner.plan``
- xcheck3  order-3 problems planned, then checked against
           ``oracle.exhaustive_tf`` as ``chainplan plan --cross-check`` does

Each workload plans a fixed corpus: ``round(seconds * rate)`` problems drawn
once from ``sampling.random_problem`` (``default_bounds(n)``, margin 0.8)
with the workload's own corpus seed, never redrawn or filtered.  ``--seed``
mirrors a seed-chosen subset of them (x -> -x), which changes every input
the program sees but neither the optimal times nor the planning work.  Every
problem is planned in ``PASSES`` passes; its latency is the median over them
of its wall time rescaled to a fixed machine speed (see speed.py), and the
raw wall figures are kept beside the metrics.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one
untraced pass and one pass with every layer wrapped (see tracing.py) and
prints the per-layer metrics; the spans go to ``perfbench/out/``.

Every output is checked outside the timed region.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import os

# one core for the single caller: pin BLAS/OpenMP pools before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"
os.environ["CHAINPLAN_PURE"] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Optional  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(SRC))
import numpy as np  # noqa: E402
import scipy  # noqa: E402
from chainplan import (kinematics, laws, metrics, oracle, planner,  # noqa: E402
                       sampling, solver)
from chainplan.model import Problem  # noqa: E402

import speed  # noqa: E402
from tracing import Tracer  # noqa: E402

PASSES = 2
SETUP_SAMPLES = 5
MARGIN = 0.8
VERIFY_EPS = 1e-9
TERMINAL_TOL = 1e-6
ORACLE_TOL = 1e-6


@dataclass(frozen=True)
class Workload:
    order: int
    cross_check: bool
    corpus_seed: int
    rate: float          # corpus problems per second of --seconds


# rates size each corpus so that a run lasts about --seconds on a shared
# 2-core x86-64 machine; xcheck3 draws from criterion 7's seed
WORKLOADS = {
    "plan3": Workload(3, False, 1, 14.6),
    "plan4": Workload(4, False, 1, 0.75),
    "xcheck3": Workload(3, True, 107, 0.33),
}

# PlanError is one class; its message prefix tells the failure apart
PLAN_ERROR_KINDS = (
    ("planned trajectory failed verification", "verify"),
    ("no tangent-marker law", "marker"),
    ("position bound exceeded at order 2", "p2_bound"),
    ("ascent prefix overshot", "overshoot"),
    ("cruise ride never reaches", "ride"),
    ("tangent-marker recursion exceeded depth", "depth"),
    ("saturation-only system did not converge", "bang"),
)
KINDS = tuple(k for _, k in PLAN_ERROR_KINDS) + (
    "oracle", "mismatch", "check", "other")

# per-layer metrics of the traced run: name -> unit
LAYER_METRICS = {
    "kinematics.propagate.calls": "count",
    "kinematics.propagate.us_per_call": "us",
    "kinematics.propagate.share": "fraction",
    "kinematics.plan2.calls": "count",
    "kinematics.integral_top.calls": "count",
    "planner.plan2_calls_per_plan": "count",
    "kinematics.segment_bound_check.self_s": "s",
    "kinematics.real_roots.calls": "count",
    "solver.solve_times.calls": "count",
    "solver.solve_times.ms_per_call": "ms",
    "solver.solve_times.converged_ratio": "fraction",
    "solver.solve_times.share": "fraction",
    "solver.assemble.calls": "count",
    "solver.verify.calls": "count",
    "solver.verify.self_s": "s",
    "planner.plan.self_s": "s",
    "laws.enumerate_af.calls": "count",
    "laws.assign_signs.calls": "count",
    "laws.self_s": "s",
    "oracle.exhaustive_tf.s_per_call": "s",
    "oracle.root.calls": "count",
    "oracle.root.ms_per_call": "ms",
    "oracle.root.success_ratio": "fraction",
    "oracle.root.share": "fraction",
    "oracle.self_s": "s",
    "trace_overhead_frac": "fraction",
}

SETUP_CODE = (
    "import speed\n"
    "with speed.Ticker() as ticker:\n"
    "    t0 = speed.clock()\n"
    "    from chainplan import laws, metrics, oracle, planner, sampling\n"
    "    for n in (1, 2, 3):\n"
    "        laws.enumerate_af(n)\n"
    "    t1 = speed.clock()\n"
    "print(*ticker.scaled(t0, t1))\n"
)


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------

def corpus_size(workload: Workload, seconds: float) -> int:
    return max(1, round(seconds * workload.rate))


def make_corpus(workload: Workload, seed: int, seconds: float):
    """The fixed problem set with a seed-chosen subset mirrored; returns the
    problems and the mirrored indices."""
    n = workload.order
    M = sampling.default_bounds(n)
    rng = np.random.default_rng(workload.corpus_seed)
    size = corpus_size(workload, seconds)
    base = [sampling.random_problem(n, M, rng, MARGIN) for _ in range(size)]
    flips = np.random.default_rng(seed).integers(0, 2, size)
    problems = [
        Problem(n, tuple(-v for v in p.x0), tuple(-v for v in p.xf), p.M)
        if flip else p for p, flip in zip(base, flips)]
    return problems, [i for i in range(size) if flips[i]]


# ----------------------------------------------------------------------
# one attempt, and the gate applied to its output
# ----------------------------------------------------------------------

@dataclass
class Outcome:
    trajectory: object = None        # Trajectory when the planner returned
    kind: Optional[str] = None       # failure kind; None on success
    message: str = ""
    oracle_tf: Optional[float] = None

    def signature(self) -> tuple:
        if self.trajectory is None:
            return (self.kind,)
        return (self.kind, self.trajectory.asl.text(),
                repr(self.trajectory.t_f), repr(self.oracle_tf))


def plan_error_kind(message: str) -> str:
    for prefix, kind in PLAN_ERROR_KINDS:
        if message.startswith(prefix):
            return kind
    return "other"


def attempt(problem, cross_check: bool) -> Outcome:
    """Plan one problem (and cross-check it); failures are returned, never
    raised, so one bad problem cannot end the run."""
    try:
        traj = planner.plan(problem)
    except planner.PlanError as e:
        return Outcome(kind=plan_error_kind(str(e)), message=str(e))
    except Exception:  # boundary: record and go on with the next problem
        return Outcome(kind="other", message=traceback.format_exc(limit=3))
    out = Outcome(trajectory=traj)
    if cross_check:
        try:
            out.oracle_tf = oracle.exhaustive_tf(problem).t_f
        except oracle.OracleError as e:
            out.kind, out.message = "oracle", str(e)
        except Exception:  # boundary, as above
            out.kind = "other"
            out.message = traceback.format_exc(limit=3)
    return out


def gate(problem, traj) -> Optional[str]:
    """Why a returned trajectory is wrong, or None when it passes.

    The end state is re-propagated from x0 through the segments rather than
    taken from the segments' recorded starts."""
    failure = solver.verify(traj, problem.M, VERIFY_EPS)
    if failure is not None:
        return f"verify: {failure.reason} (k={failure.k})"
    if metrics.em_mse(traj) != 0.0:
        return "control outside {-M0, 0, +M0}"
    cur = problem.x0
    for seg in traj.segments:
        scale = max(1.0, max(abs(v) for v in cur))
        if max(abs(a - b) for a, b in zip(seg.start, cur)) > VERIFY_EPS * scale:
            return "segment start does not continue the previous segment"
        cur = kinematics.propagate(cur, seg.u, seg.duration)
    total = sum(seg.duration for seg in traj.segments)
    if abs(traj.t_f - total) > VERIFY_EPS * max(1.0, total):
        return "t_f differs from the summed durations"
    err = metrics.terminal_error(cur, problem.xf, problem.M)
    if err > TERMINAL_TOL:
        return f"terminal error {err:.3e}"
    return None


def judge(problem, out: Outcome) -> None:
    """Apply the gate and the oracle comparison to a pass-one outcome."""
    if out.trajectory is None:
        return
    reason = gate(problem, out.trajectory)
    if reason is not None:
        out.kind, out.message = "check", reason
    elif out.kind is None and out.oracle_tf is not None \
            and out.trajectory.t_f > out.oracle_tf + ORACLE_TOL:
        out.kind = "mismatch"
        out.message = (f"planner t_f {out.trajectory.t_f:.9f} > oracle "
                       f"{out.oracle_tf:.9f}")


def digest(outcomes) -> str:
    """Hash over (index, law, t_f to 1e-9) of solved problems and
    (index, kind) of failed ones."""
    h = hashlib.sha256()
    for i, out in enumerate(outcomes):
        if out.kind is None:
            line = f"{i} {out.trajectory.asl.text()} {out.trajectory.t_f:.9f}"
        else:
            line = f"{i} !{out.kind}"
        h.update(line.encode() + b"\n")
    return h.hexdigest()[:16]


# ----------------------------------------------------------------------
# measurement
# ----------------------------------------------------------------------

def run_pass(problems, cross_check: bool):
    """Plan every problem once under the speed ticker: outcomes, and per
    problem its wall and its reference-speed seconds (see speed.py)."""
    outcomes, spans = [], []
    clock = speed.clock
    with speed.Ticker() as ticker:
        for problem in problems:
            t0 = clock()
            outcomes.append(attempt(problem, cross_check))
            spans.append((t0, clock()))
    walls, scaled = zip(*(ticker.scaled(t0, t1) for t0, t1 in spans))
    return outcomes, list(walls), list(scaled)


def run_traced_pass(problems, cross_check: bool, tracer):
    """Plan every problem once with the layers wrapped and no ticker, whose
    samples the tracer would charge to the layers; wall seconds only."""
    outcomes, walls = [], []
    clock = speed.clock
    for i, problem in enumerate(problems):
        tracer.problem = i
        t0 = clock()
        outcomes.append(attempt(problem, cross_check))
        walls.append(clock() - t0)
    return outcomes, walls


def measure_setup() -> list[tuple[float, float]]:
    """Fresh-process import of the package plus law-catalog warm-up, timed
    inside the process: (wall, reference-speed) seconds per process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), str(HERE), env.get("PYTHONPATH")) if p)
    out = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env,
                              cwd=ROOT, check=True, capture_output=True,
                              text=True)
        wall, scaled = proc.stdout.split()
        out.append((float(wall), float(scaled)))
    return out


def tail(values: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it: (value,
    percentile, samples beyond).  Below twenty samples that percentile would
    sit under the median, so the maximum is returned instead."""
    s = sorted(values)
    n = len(s)
    if n < 20:
        return s[-1], 100.0, 0
    return s[n - 11], 100.0 * (n - 10) / n, 10


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "backend": kinematics.BACKEND,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "seed": seed,
    }


def failures(outcomes) -> tuple[dict, dict]:
    by_kind = {k: 0 for k in KINDS}
    indices: dict[str, list[int]] = {}
    for i, out in enumerate(outcomes):
        if out.kind is not None:
            by_kind[out.kind] += 1
            indices.setdefault(out.kind, []).append(i)
    return by_kind, indices


def layer_metrics(tracer, traced_s: float, untraced_s: float,
                  plans: int) -> dict:
    st = tracer.stats

    def calls(name):
        return st[name][0]

    def per_call(name, scale):
        return st[name][1] / st[name][0] * scale if st[name][0] else 0.0

    def ratio(name):
        return st[name][3] / st[name][0] if st[name][0] else 0.0

    def share(name):
        return st[name][1] / traced_s

    laws_self = sum(v[2] for k, v in st.items() if k.startswith("laws."))
    values = {
        "kinematics.propagate.calls": calls("kinematics.propagate"),
        "kinematics.propagate.us_per_call":
            per_call("kinematics.propagate", 1e6),
        "kinematics.propagate.share": share("kinematics.propagate"),
        "kinematics.plan2.calls": calls("kinematics.plan2"),
        "kinematics.integral_top.calls": calls("kinematics.integral_top"),
        "planner.plan2_calls_per_plan": calls("kinematics.plan2") / plans,
        "kinematics.segment_bound_check.self_s":
            st["kinematics.segment_bound_check"][2],
        "kinematics.real_roots.calls": calls("kinematics.real_roots"),
        "solver.solve_times.calls": calls("solver.solve_times"),
        "solver.solve_times.ms_per_call": per_call("solver.solve_times", 1e3),
        "solver.solve_times.converged_ratio": ratio("solver.solve_times"),
        "solver.solve_times.share": share("solver.solve_times"),
        "solver.assemble.calls": calls("solver.assemble"),
        "solver.verify.calls": calls("solver.verify"),
        "solver.verify.self_s": st["solver.verify"][2],
        "planner.plan.self_s": st["planner.plan"][2],
        "laws.enumerate_af.calls": calls("laws.enumerate_af"),
        "laws.assign_signs.calls": calls("laws.assign_signs"),
        "laws.self_s": laws_self,
        "oracle.exhaustive_tf.s_per_call":
            per_call("oracle.exhaustive_tf", 1.0),
        "oracle.root.calls": calls("oracle.root"),
        "oracle.root.ms_per_call": per_call("oracle.root", 1e3),
        "oracle.root.success_ratio": ratio("oracle.root"),
        "oracle.root.share": share("oracle.root"),
        "oracle.self_s": st["oracle.exhaustive_tf"][2] + st["oracle.root"][2],
        "trace_overhead_frac": traced_s / untraced_s - 1.0,
    }
    return {k: {"value": values[k], "unit": u} for k, u in LAYER_METRICS.items()}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    workload = WORKLOADS[name]
    setup = [] if trace else measure_setup()
    for n in (1, 2, 3):
        laws.enumerate_af(n)
    problems, mirrored = make_corpus(workload, seed, seconds)
    size = len(problems)

    passes = [run_pass(problems, workload.cross_check)
              for _ in range(1 if trace else PASSES)]
    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install()
        try:
            passes.append(run_traced_pass(problems, workload.cross_check,
                                          tracer))
        finally:
            tracer.uninstall()

    # checks, outside the timed region
    outcomes = passes[0][0]
    unstable = [i for i in range(size)
                if len({p[0][i].signature() for p in passes}) > 1]
    for problem, out in zip(problems, outcomes):
        judge(problem, out)
    by_kind, failing = failures(outcomes)
    failed = sum(by_kind.values())
    correct = not unstable and by_kind["check"] == 0

    # per problem, the median over the passes run without the tracer
    timed = passes[:1] if trace else passes
    latencies = [statistics.median(p[2][i] for p in timed)
                 for i in range(size)]
    walls = [statistics.median(p[1][i] for p in timed) for i in range(size)]
    solved = [o.trajectory.t_f for o in outcomes if o.kind is None]
    tail_v, tail_pct, tail_beyond = tail(latencies)
    detail = {
        "workload": name,
        "environment": environment(seed),
        "corpus": {"order": workload.order, "size": size,
                   "corpus_seed": workload.corpus_seed, "margin": MARGIN,
                   "mirrored": len(mirrored)},
        "passes": "1 untraced + 1 traced" if trace else PASSES,
        "digest": digest(outcomes),
        "failures_by_kind": by_kind,
        "failing_indices": failing,
        "failure_messages": {str(i): outcomes[i].message[:300]
                             for idx in failing.values() for i in idx},
        "unstable_indices": unstable,
        "fail_frac": failed / size,
        "tf_mean_s": statistics.fmean(solved) if solved else None,
        "tf_solved": len(solved),
        "t_f": [o.trajectory.t_f if o.kind is None else None
                for o in outcomes],
        "latency_samples": size,
        "latency_tail_pct": tail_pct,
        "latency_tail_beyond": tail_beyond,
        "latency_ms": [v * 1e3 for v in latencies],
        "wall": {"throughput_pps": size / sum(walls),
                 "latency_p50_ms": statistics.median(walls) * 1e3,
                 "latency_tail_ms": tail(walls)[0] * 1e3,
                 "latency_ms": [v * 1e3 for v in walls],
                 "setup_s": statistics.median(w for w, _ in setup)
                 if setup else None},
        "setup_samples_s": [s for _, s in setup],
    }
    if trace:
        untraced_s = sum(passes[0][1])
        traced_s = sum(passes[1][1])
        result_metrics = layer_metrics(tracer, traced_s, untraced_s, size)
        detail["layers"] = {k: {"calls": v[0], "total_s": v[1],
                                "self_s": v[2], "succeeded": v[3]}
                            for k, v in tracer.stats.items()}
        detail["traced_s"] = traced_s
        detail["untraced_s"] = untraced_s
    else:
        result_metrics = {
            "setup_s": {"value": statistics.median(s for _, s in setup),
                        "unit": "s"},
            "throughput_pps": {"value": size / sum(latencies), "unit": "1/s"},
            "latency_p50_ms": {"value": statistics.median(latencies) * 1e3,
                               "unit": "ms"},
            "latency_tail_ms": {"value": tail_v * 1e3, "unit": "ms"},
            "peak_rss_mb": {"value": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
        }

    OUT.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"detail": detail, "metrics": result_metrics}, fh, indent=1)
    if tracer is not None:
        with open(OUT / f"{stem}-spans.json", "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)

    report(name, detail, result_metrics)
    print(json.dumps({"correct": correct, "attempted": size,
                      "failed": failed, "metrics": result_metrics}))
    return 0


def report(name: str, detail: dict, result_metrics: dict) -> None:
    """Human-readable summary: every metric by name with its unit."""
    env = detail["environment"]
    size = detail["corpus"]["size"]
    print(f"== {name}: {size} order-{detail['corpus']['order']} problems, "
          f"{detail['passes']} passes, seed {env['seed']} "
          f"(python {env['python']}, numpy {env['numpy']}, scipy "
          f"{env['scipy']}, backend {env['backend']}, nproc {env['nproc']})")
    notes = {
        "setup_s": f"median of {len(detail['setup_samples_s'])} fresh "
                   "processes, at reference speed",
        "peak_rss_mb": "peak resident set of this process",
        "latency_tail_ms": f"p{detail['latency_tail_pct']:.1f}, "
                           f"{detail['latency_tail_beyond']} beyond, n={size}",
    }
    default = "traced pass" if "layers" in detail else \
        f"n={size}, median of {PASSES} passes, at reference speed"
    for key, m in result_metrics.items():
        print(f"  {key:<40} {m['value']:>14.6g} {m['unit']:<8} "
              f"{notes.get(key, default)}")
    wall = detail["wall"]
    print("  raw wall time: " + ", ".join(
        f"{k} {wall[k]:.6g}" for k in
        ("throughput_pps", "latency_p50_ms", "latency_tail_ms", "setup_s")
        if wall[k] is not None))
    kinds = ", ".join(f"{k} {v}" for k, v in
                      detail["failures_by_kind"].items() if v)
    failed = sum(detail["failures_by_kind"].values())
    print(f"  {'fail_frac':<40} {detail['fail_frac']:>14.6g} {'fraction':<8} "
          f"{failed}/{size}: {kinds or 'none'}")
    if detail["tf_mean_s"] is not None:
        print(f"  {'tf_mean_s':<40} {detail['tf_mean_s']:>14.6g} {'s':<8} "
              f"over {detail['tf_solved']} solved")
    print(f"  digest {detail['digest']}  failing "
          f"{json.dumps(detail['failing_indices'])}")
    if detail["unstable_indices"]:
        print(f"  passes disagree on {detail['unstable_indices']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=24.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload != "all":
        return run_workload(args.workload, args.seed, args.seconds,
                            bool(args.trace))
    status = 0
    for name in WORKLOADS:
        res = subprocess.run([sys.executable, __file__, "--workload", name,
                              "--seed", str(args.seed),
                              "--seconds", str(args.seconds),
                              "--trace", str(args.trace)], cwd=ROOT)
        status = status or res.returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
