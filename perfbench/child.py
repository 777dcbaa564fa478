"""One cold benchmark process: set up the engine, run one step of a
workload, print one JSON record.

Usage (from run.py): python3 perfbench/child.py '<json spec>'
The spec carries the workload step, its argument, the seed, the work
directory, whether to trace, whether to sample the machine's speed while
the step runs (speed.py), and ``t_spawn``, the parent's monotonic clock
just before it started this process, so that set-up time counts from
interpreter start.
"""
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def setup():
    """What every workload needs before it can begin: the engine's modules,
    the generator action table and the canonical vectors."""
    import hopflab  # noqa: F401
    from hopflab import cli, hopf, store  # noqa: F401
    from hopflab.bimodlab import vectors
    hopf.gen_action_table()
    for name in vectors.vector_names():
        vectors.canonical(name)


def environment():
    from hopflab.bimodlab import core
    from hopflab.scalars import QQ
    return {
        "python": sys.version.split()[0],
        "scalar_backend": "%s.%s" % (QQ.__module__, QQ.__qualname__),
        "closure_cap_env": core.LabConfig().closure_cap,
    }


def main():
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    setup()
    setup_s = time.monotonic() - spec["t_spawn"]

    import speed
    pre = [speed.sample() for _ in range(speed.PRE_SAMPLES)]

    import workloads
    ctx = workloads.Context(spec["seed"], spec["workdir"])
    prepare, run = workloads.STEPS[spec["step"]]
    inputs = prepare(ctx, spec["arg"]) if prepare else None

    spans = None
    if spec["trace"]:
        import tracer
        spans = tracer.Tracer()
        spans.install()
        before = tracer.memo_sizes()

    ticker = speed.Ticker()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    if spec["probe"]:
        ticker.start()
    run(ctx, spec["arg"], inputs)
    ticker.stop()
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0
    # the step's own time: the timer's kernel samples are taken out
    wall -= sum(w for w, _ in ticker.samples)
    cpu -= sum(c for _, c in ticker.samples)

    record = {
        "step": spec["step"],
        "arg": spec["arg"],
        "setup_s": setup_s,
        "wall_s": wall,
        "cpu_s": cpu,
        "kernel_pre": pre,
        "kernel_ticks": ticker.samples,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": ctx.attempted,
        "failures": ctx.failures,
        "timings": ctx.timings,
        "env": environment(),
    }
    if spans is not None:
        record["layers"] = tracer.layer_metrics(
            spans, before, tracer.memo_sizes())
        record["spans"] = tracer.span_table(spans)
    sys.stdout.write(json.dumps(record) + "\n")


if __name__ == "__main__":
    main()
