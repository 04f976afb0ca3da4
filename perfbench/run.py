"""Benchmark of the `tilings` package: one workload per run.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 50 --trace 0

Run it from the root of a checkout; it imports the package from ``src``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md for
the workloads and metrics.

With ``--trace 0`` the run measures end-to-end metrics: it times whole
rounds over the workload's inputs for up to ``--seconds`` (at least one
round), and it times set-up in separate fresh interpreters.  With
``--trace 1`` it runs untraced and traced rounds in turn for up to
``--seconds`` (at least one of each), and reports the per-layer self times
and counts of the fastest traced round with the tracer's overhead.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

# Fresh interpreters timed for set-up before the timed rounds, and as many
# again after them; the median of all is reported, because one cold start on
# a shared 2-core machine varies by tens of percent and slow spells last tens
# of seconds.
SETUP_PROBES = 6


def _load(workload: str, seed: int, small: bool = False):
    """Import the package and build the workload's inputs from the seed."""
    if not (SRC / "tilings" / "__init__.py").is_file():
        raise SystemExit(f"error: no tilings package under {SRC}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads
    return workloads, workloads.WORKLOADS[workload](seed, small=small)


def setup_seconds(workload: str, seed: int) -> list[float]:
    """Wall times of fresh interpreters that start, import `tilings` and
    build the workload's inputs, then exit (probe.py)."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        subprocess.run([sys.executable, str(HERE / "probe.py"), workload,
                        str(seed)], check=True)
        times.append(time.perf_counter() - start)
    return times


def timed_round(work):
    start = time.perf_counter()
    result = work.round()
    return time.perf_counter() - start, result


def check_rounds(work, rounds) -> list[str]:
    """Oracle checks on the first round; every later round must repeat it."""
    errors = work.check(rounds[0].outputs)
    for i, r in enumerate(rounds[1:], 2):
        if r.outputs != rounds[0].outputs:
            errors.append(f"round {i} differs from round 1")
    return errors


def best_wall(rounds) -> float:
    """The sum over a round's timed calls of each call's shortest time in
    the run.

    On a shared 2-core virtual machine the speed of the same code shifts by
    a fifth to a third, in bursts and in spells that can cover a run, so a
    mean or a median over the run follows the neighbours' load.  Every call
    is deterministic, and its shortest time, taken when the host was least
    loaded, is steadier than either; a spell that lasts the whole run still
    shows in it (see README.md).
    """
    return sum(min(call) for call in zip(*(r.times for r in rounds)))


def measure(workload: str, seed: int, seconds: float):
    """End-to-end metrics of whole rounds run for ``seconds``."""
    workloads, work = _load(workload, seed)
    setup = setup_seconds(workload, seed)
    times, rounds = [], []
    start = time.perf_counter()
    # Whole rounds only: stop before a round that would end past the time.
    while not times or time.perf_counter() - start + times[-1] <= seconds:
        workloads.clear_caches()
        t, result = timed_round(work)
        times.append(t)
        rounds.append(result)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    setup += setup_seconds(workload, seed)
    wall = best_wall(rounds)
    metrics = {
        "wall_s": (wall, "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
        "units_per_s": (rounds[0].units / wall, "1/s"),
    }
    return metrics, work, rounds


def traced(workload: str, seed: int, small: bool = False,
           seconds: float = 0.0):
    """Per-layer metrics of the fastest traced round.

    Untraced and traced rounds run in turn for ``seconds`` (at least one of
    each), so both meet the same spells of the host; the tracer's overhead
    is the difference of their `best_wall`.
    """
    workloads, work = _load(workload, seed, small)
    import tracing

    plain, under_trace, best = [], [], None
    start = time.perf_counter()
    while not plain or time.perf_counter() - start + pair_s <= seconds:
        pair_start = time.perf_counter()
        workloads.clear_caches()
        plain.append(work.round())
        workloads.clear_caches()
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced_s, result = tracer.span(tracing.ROOT,
                                           lambda: timed_round(work))
        finally:
            tracer.uninstall()
        under_trace.append(result)
        if best is None or traced_s < best[0]:
            best = (traced_s, tracer)
        pair_s = time.perf_counter() - pair_start
    tracer = best[1]
    metrics = {name: (value, "count" if isinstance(value, int) else "s")
               for name, value in tracer.report().items()}
    metrics["trace.wall_s"] = (best_wall(under_trace), "s")
    metrics["trace.overhead_s"] = (best_wall(under_trace) - best_wall(plain),
                                   "s")
    return metrics, work, plain + under_trace, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["verify", "grid-complex"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not __debug__:
        # Under -O, p_polynomial skips its cross-checks and verify does less
        # work, so the figures would not compare with other runs.
        raise SystemExit("error: run without python -O")
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        metrics, work, rounds, tracer = traced(args.workload, args.seed,
                                               seconds=args.seconds)
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{stem}.jsonl")
    else:
        metrics, work, rounds = measure(args.workload, args.seed,
                                        args.seconds)
    errors = check_rounds(work, rounds)
    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)
    result = {
        "correct": not errors,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    line = json.dumps(result)
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{stem}.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
