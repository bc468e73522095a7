"""Run one breakops benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload desk-sweep --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; breakops is imported from ``src/``.
The process runs whole passes of the workload's fixed inputs, on one worker,
until the next pass would end after ``--seconds``, and checks every pass's
outputs outside the timed region.  With ``--trace 0`` it reports the
end-to-end metrics, with ``--trace 1`` the per-layer ones (see README.md).
The last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""

import time

# Process start: CPU time spent before this line is interpreter start-up, which
# runs without blocking, so it stands for the wall time elapsed until here.
_WALL_AT_MAIN = time.perf_counter()
_STARTUP_S = time.process_time()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "runs")


def median(values):
    ordered = sorted(values)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=["desk-sweep", "deep-points", "identity-suites"])
    parser.add_argument("--seed", type=int, default=0, help="recorded only: the inputs are fixed grids")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(SRC, "breakops", "__init__.py")):
        print(f"no breakops sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(OUT_DIR, exist_ok=True)
    import spans
    import workloads  # imports breakops

    workload = workloads.WORKLOADS[args.workload](OUT_DIR)
    tracer = spans.Tracer().install() if args.trace else None
    setup_s = _STARTUP_S + (time.perf_counter() - _WALL_AT_MAIN)

    durations, layer_passes = [], []
    failed = 0
    started = time.perf_counter()
    while True:
        begin = time.perf_counter()
        output = workload.run_pass()
        durations.append(time.perf_counter() - begin)
        if tracer:
            layer_passes.append(tracer.take())
        failed += workload.check_pass(output)
        elapsed = time.perf_counter() - started
        if elapsed * (len(durations) + 1) / len(durations) > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        tracer.remove()
    workload.final_check()

    if tracer:
        metrics = {}
        for name in spans.metric_names():
            values = [p[name] for p in layer_passes]
            if name.endswith("_s"):
                metrics[name] = {"value": median(values), "unit": "s"}
            else:  # a count: report one that was observed
                metrics[name] = {"value": sorted(values)[(len(values) - 1) // 2], "unit": "count"}
    else:
        metrics = {
            "items_per_s": {"value": workload.items_per_pass / median(durations), "unit": "items/s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
        }
    result = {
        "correct": not workload.problems,
        "attempted": workload.items_per_pass * len(durations),
        "failed": failed,
        "metrics": metrics,
    }
    for problem in workload.problems[:20]:
        print(f"wrong output: {problem}", file=sys.stderr)
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  pass_seconds=durations, layer_passes=layer_passes)
    record_path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record_path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
