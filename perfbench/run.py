#!/usr/bin/env python3
"""hopflab benchmark: run one workload and print its metrics.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a hopflab source tree.  Every step of a workload runs
in a fresh interpreter (child.py), one process at a time, so the engine's
process-global memos start empty as they do for every ``hopflab`` command.

--trace 0 runs ceil(S / nominal iteration time) iterations of the
workload (at least MIN_ITERATIONS; fewer only when 1.25 S have passed),
plus SETUP_PROBES processes that only set up, and reports the end-to-end
metrics, with times scaled to a reference speed measured alongside the
work (speed.py).  --trace 1 runs two untraced and two traced
iterations, alternating, and reports the per-layer metrics, the tracing
overhead, and whether the two traced iterations counted exactly the same
work.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is the full record (environment fingerprint, samples, failures, spans).
"""
import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

MIN_ITERATIONS = 3
# extra set-up-only processes per untraced run, so the set-up median rests
# on more samples than the iterations alone give
SETUP_PROBES = 5
TRACED_ITERATIONS = 2
# a run must end within 180 s; stop starting iterations well before that
RUN_BUDGET_S = 150.0

# Times are reported at reference speed (speed.py): on a shared machine the
# raw times move with the other tenants' load by more than any bound a
# regression check could use.  The raw times stay in the record.
END_TO_END = ("scaled_wall_s", "scaled_cpu_s", "setup_s", "peak_rss_mb")
UNITS = {"scaled_wall_s": "s", "scaled_cpu_s": "s", "setup_s": "s",
         "peak_rss_mb": "MB"}

# size gauges take the largest value over an iteration's processes; every
# other layer metric is summed
GAUGES = ("ncpoly.memo_words", "hopf.memo_entries")


class ChildFailed(RuntimeError):
    pass


def source_digest(root):
    """sha256 over the engine sources, for checkouts that are not git
    repositories."""
    h = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in sorted(os.walk(src)):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def git_commit(root):
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30,
                             env=env)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def child_env():
    # fixed hash seed: identical set and dict iteration in every process
    return dict(os.environ, PYTHONHASHSEED="0")


def run_child(step, arg, seed, workdir, trace, probe, timeout):
    spec = {"step": step, "arg": arg, "seed": seed, "workdir": workdir,
            "trace": trace, "probe": probe, "t_spawn": time.monotonic()}
    try:
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"),
             json.dumps(spec)],
            capture_output=True, text=True, timeout=max(timeout, 1.0),
            env=child_env(), cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise ChildFailed("%s %s: timed out after %.0f s"
                          % (step, arg or "", timeout))
    if out.returncode != 0:
        tail = out.stderr.strip().splitlines()[-1:] or ["no output"]
        raise ChildFailed("%s %s: exit %d: %s"
                          % (step, arg or "", out.returncode, tail[0]))
    return json.loads(out.stdout.strip().splitlines()[-1])


class Run:
    """Accumulates the processes of one benchmark invocation."""

    def __init__(self, args, workdir, deadline):
        self.args = args
        self.workdir = workdir
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.env = None

    def fail(self, n_ops, message):
        self.attempted += n_ops
        self.failed += n_ops
        self.failures.append(message)

    def step(self, step, arg, n_ops, trace=False, probe=False):
        """One cold process; if it dies, its operations (at least one)
        count as failed."""
        try:
            rec = run_child(step, arg, self.args.seed, self.workdir, trace,
                            probe, self.deadline - time.monotonic())
        except ChildFailed as exc:
            self.fail(max(n_ops, 1), str(exc))
            return None
        self.attempted += rec["attempted"]
        self.failed += len(rec["failures"])
        self.failures.extend(rec["failures"])
        self.env = self.env or rec["env"]
        return rec

    def iteration(self, trace=False, probe=False):
        """All steps of the workload in turn; times are summed over its
        processes (peak memory: the largest), set-up times are kept per
        process.  With probe, each process also samples the machine's speed
        while its step runs, for the scaled times."""
        recs = []
        for step, arg, n_ops in workloads.plan(self.args.workload, ROOT,
                                               self.workdir):
            rec = self.step(step, arg, n_ops, trace, probe)
            if rec is not None:
                recs.append(rec)
        if not recs:
            return None
        return {
            "wall_s": sum(r["wall_s"] for r in recs),
            "cpu_s": sum(r["cpu_s"] for r in recs),
            "peak_rss_mb": max(r["peak_rss_mb"] for r in recs),
            "setup_s": [r["setup_s"] for r in recs],
            "kernel_pre": [k for r in recs for k in r["kernel_pre"]],
            "kernel_ticks": [k for r in recs for k in r["kernel_ticks"]],
            "steps": [{"step": r["step"], "arg": r["arg"],
                       "wall_s": r["wall_s"], "timings": r["timings"],
                       "kernel_ticks": len(r["kernel_ticks"])}
                      for r in recs],
            "records": recs,
        }


def tail_percentile(samples):
    """The highest of the usual percentiles with at least ten samples
    beyond it, or None when there are too few samples."""
    n = len(samples)
    ordered = sorted(samples)
    for p in (99.9, 99, 95, 90, 75, 50):
        k = int(p / 100.0 * n)
        if k < n and n - (k + 1) >= 10:
            return {"p": p, "value": ordered[k]}
    return None


def summary(samples):
    return {"median": statistics.median(samples), "n": len(samples),
            "min": min(samples), "max": max(samples),
            "tail": tail_percentile(samples)}


def measure(run, seconds):
    """A fixed number of iterations for a given --seconds, so both sides of
    a comparison take the same number of samples."""
    n_iter = max(MIN_ITERATIONS, math.ceil(
        seconds / workloads.NOMINAL_ITERATION_S[run.args.workload]))
    probes = [run.step("setup", None, 0) for _ in range(SETUP_PROBES)]
    iters = []
    start = time.monotonic()
    for _ in range(n_iter):
        t0 = time.monotonic()
        it = run.iteration(probe=True)
        if it is None:
            break
        iters.append(it)
        now = time.monotonic()
        # on a machine much slower than the nominal times, stop early
        # rather than overrun the run's time
        if (len(iters) >= MIN_ITERATIONS and now - start >= 1.25 * seconds
                or now + (now - t0) > run.deadline):
            break
    if not iters:
        return {}, {"iterations": 0}, False
    samples = {k: [it[k] for it in iters]
               for k in ("wall_s", "cpu_s", "peak_rss_mb")}
    probes = [p for p in probes if p is not None]
    samples["setup_s"] = ([p["setup_s"] for p in probes]
                          + [s for it in iters for s in it["setup_s"]])
    pre = [k for it in probes + iters for k in it["kernel_pre"]]
    ticks = [k for it in iters for k in it["kernel_ticks"]]
    # time averages over the whole run: mean times over the mean kernel time
    # of the same span (ticks for the work, the samples taken right after
    # set-up for the set-up)
    values = {
        "scaled_wall_s": speed.scale(statistics.fmean(samples["wall_s"]),
                                     [w for w, _ in ticks]),
        "scaled_cpu_s": speed.scale(statistics.fmean(samples["cpu_s"]),
                                    [c for _, c in ticks]),
        "setup_s": speed.scale(statistics.fmean(samples["setup_s"]),
                               [w for w, _ in pre]),
        "peak_rss_mb": statistics.median(samples["peak_rss_mb"]),
    }
    metrics = {k: {"value": values[k], "unit": UNITS[k]} for k in END_TO_END}
    detail = {
        "iterations": len(iters),
        "measured_s": time.monotonic() - start,
        "summary": {k: summary(v) for k, v in samples.items()},
        "kernel": {"ref_s": speed.KERNEL_REF_S,
                   "pre": summary([w for w, _ in pre]),
                   "ticks": summary([w for w, _ in ticks]),
                   "pre_s": [w for w, _ in pre],
                   "ticks_s": [[w for w, _ in it["kernel_ticks"]]
                               for it in iters]},
        "samples": samples,
        "steps": [it["steps"] for it in iters],
    }
    return metrics, detail, True


def combine_layers(records):
    out = {}
    for rec in records:
        for k, v in rec["layers"].items():
            out[k] = max(out.get(k, v), v) if k in GAUGES else out.get(k, 0) + v
    calls = out["ncpoly.nf_word.calls"]
    out["ncpoly.nf_word.hit_ratio"] = (
        (calls - out["ncpoly.nf_word.miss"]) / calls if calls else 0.0)
    useful = out.pop("linalg.echelon_insert.useful")
    tries = out["linalg.echelon_insert.calls"]
    out["linalg.echelon_insert.useful_ratio"] = useful / tries if tries else 0.0
    return out


def measure_traced(run):
    """Untraced and traced iterations in turn; the overhead compares their
    median wall times."""
    untraced, traced = [], []
    for _ in range(TRACED_ITERATIONS):
        untraced.append(run.iteration(trace=False))
        traced.append(run.iteration(trace=True))
    if any(it is None for it in untraced + traced):
        return {}, {"error": "an iteration produced no records"}, False
    layers = [combine_layers(t["records"]) for t in traced]
    traced_s = statistics.median(it["wall_s"] for it in traced)
    untraced_s = statistics.median(it["wall_s"] for it in untraced)
    for lay in layers:
        lay["trace.wall_s"] = traced_s
        lay["trace.untraced_wall_s"] = untraced_s
        lay["trace.overhead_s"] = traced_s - untraced_s
    # every count, memo size and gauge must repeat; only times may differ
    mismatched = sorted(k for k in layers[0]
                        if tracer.unit(k) in ("count", "bytes")
                        and any(lay[k] != layers[0][k] for lay in layers[1:]))
    metrics = {k: {"value": statistics.median(lay[k] for lay in layers),
                   "unit": tracer.unit(k)}
               for k in tracer.PER_LAYER}
    detail = {
        "counts_repeat": not mismatched,
        "count_mismatches": mismatched,
        "layers_all": layers,
        "spans": [dict(row, step=r["step"], arg=r["arg"])
                  for r in traced[0]["records"] for row in r["spans"]],
    }
    # the repeat check is one more operation
    if mismatched:
        run.fail(1, "per-layer counts differ between two traced "
                 "iterations: %s" % ", ".join(mismatched))
    else:
        run.attempted += 1
    return metrics, detail, True


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "hopflab", "__init__.py")):
        print("error: no hopflab sources under %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2

    begin = time.monotonic()
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        run = Run(args, workdir, begin + RUN_BUDGET_S)
        prep = workloads.prepare_plan(args.workload)
        if prep is not None:
            run.step(prep[0], prep[1], prep[2])
        if args.trace:
            metrics, detail, ok = measure_traced(run)
        else:
            metrics, detail, ok = measure(run, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = run.failed
    env = dict(run.env or {},
               nproc=len(os.sched_getaffinity(0)),
               closure_cap_used=workloads.CLOSURE_CAP,
               word_cap_used=workloads.WORD_CAP,
               git_commit=git_commit(ROOT),
               src_sha256=source_digest(ROOT),
               pythonhashseed=child_env()["PYTHONHASHSEED"])
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "env": env,
        "attempted": run.attempted, "failed": failed,
        "failed_ratio": failed / run.attempted if run.attempted else 1.0,
        "failures": run.failures[:20],
        "elapsed_s": time.monotonic() - begin,
    }
    record.update(detail)
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": ok and failed == 0,
        "attempted": max(run.attempted, 1),
        "failed": failed if run.attempted else 1,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
