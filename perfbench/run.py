"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds nothing: the program is the pure-Python package under ``src/`` of the
checkout this file sits in (the native harness compiles the generated C with
the system ``cc`` into ``.bench_out/``).  Each invocation is one fresh
process running one workload.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``: with ``--trace 0``
the end-to-end metrics, with ``--trace 1`` the per-layer metrics of a
separate traced run (spans around the benchmark's calls into each layer),
whose spans and self-time table are written to ``.bench_out/``.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("compile-sweep", "kernel-exec", "serve-warm", "serve-cold")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _terminate(signum, frame):
    # Unwind through the workloads' finally blocks, which stop the shard and
    # listener processes and remove temporary build directories.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = _parse(argv)
    signal.signal(signal.SIGTERM, _terminate)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)

    workload = importlib.import_module(f"mbench.{args.workload.replace('-', '_')}")
    try:
        outcome = workload.run(args.seed, args.seconds, bool(args.trace), STARTED, out_dir)
    finally:
        _stop_resource_tracker()
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not args.trace:
        outcome.metrics["peak_rss_mb"] = (peak_mb, "MB")

    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    outcome.line("peak_rss_mb", peak_mb, "MB", "ru_maxrss of this process")
    outcome.line("error_rate", outcome.failed / max(outcome.attempted, 1), "share",
                 f"{outcome.failed} of {outcome.attempted} operations failed or wrong")
    for line in outcome.report:
        print(line)
    for reason in outcome.failures:
        print(f"FAILED: {reason}")
    if args.trace:
        _write_trace(out_dir, args, outcome)
    metrics = outcome.layers if args.trace else outcome.metrics
    print(json.dumps({
        "correct": outcome.failed == 0 and outcome.attempted > 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def _stop_resource_tracker() -> None:
    """Stop multiprocessing's resource tracker and wait for it to end.

    Spawning the supervisor's shard processes starts a tracker process that
    nothing waits for: it outlives this process and is left unreaped.  Run
    after the workload has stopped every shard, since the tracker ends only
    once each process holding its pipe has exited.
    """
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None:
        tracker._resource_tracker._stop()


def _write_trace(out_dir: Path, args, outcome) -> None:
    table = outcome.trace.get("self_time", {})
    print(f"{'span':<20} {'calls':>8} {'total_ms':>12} {'self_ms':>12}")
    for name, row in sorted(table.items(), key=lambda item: -item[1]["self_s"]):
        print(f"{name:<20} {row['calls']:>8} {1000 * row['total_s']:>12.3f} {1000 * row['self_s']:>12.3f}")
    path = out_dir / f"trace-{args.workload}-{args.seed}.json"
    path.write_text(json.dumps(outcome.trace, default=str))
    print(f"# trace written to {path.relative_to(ROOT)}")


if __name__ == "__main__":
    sys.exit(main())
