"""Run one workload, check it, and print its metrics.

``--trace 0`` repeats set-up + timed window until ``--seconds`` have
passed (at least :data:`MIN_REPS` times) and reports the median of
every end-to-end metric over the reps. ``--trace 1`` alternates
:data:`TRACE_PAIRS` untraced reps with reps that have every layer entry
point wrapped, and reports the per-layer metrics. Both modes run the
workload's correctness checks; any failed check makes the run exit 1.

The last line of standard output is the result object; the line before
it is the full record (provenance, quartiles, checks), also written to
``.perfbench/results/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import heapq
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Sequence

import numpy as np

from perfbench import layers, workloads
from perfbench.spans import Patcher, SpanRecorder
from perfbench.workloads import Rep, percentile

MIN_REPS = 3
#: Untraced/traced rep pairs of a ``--trace 1`` run.
TRACE_PAIRS = 5
#: Closed-loop seconds of one untraced live_loopback rep.
LIVE_SEGMENT_S = 2.5
#: Seed that perf claims must also hold on; never used while tuning.
HELD_OUT_SEED = 9173
#: Nominal wall time of :func:`reference_s` on the box the benchmark was
#: written on; it only fixes the unit of ``host_us_per_frame``.
REFERENCE_NOMINAL_S = 0.05


class _Item:
    __slots__ = ("t", "k", "v")

    def __init__(self, t: float, k: int, v: str) -> None:
        self.t, self.k, self.v = t, k, v

    def __lt__(self, other: "_Item") -> bool:
        return self.t < other.t


def reference_s() -> float:
    """Wall time of a fixed pure-Python loop (heap of small objects,
    dict updates, float math) that shares no code with the program.

    The box's CPU speed drifts by up to ~20 % over minutes; a CPU-bound
    workload's wall time follows it and so does this loop. Changing the
    loop changes every ``host_us_per_frame`` figure.
    """
    t0 = perf_counter()
    heap: List[_Item] = []
    seen: Dict[str, int] = {}
    acc = 0.0
    for i in range(20_000):
        heapq.heappush(heap, _Item((i * 7919) % 1000 + 0.5, i, f"k{i & 255}"))
        if len(heap) > 64:
            item = heapq.heappop(heap)
            seen[item.v] = seen.get(item.v, 0) + 1
            acc += math.sin(item.t) * math.cos(item.k)
    return perf_counter() - t0


def end_to_end(rep: Rep, host_speed: float) -> Dict[str, float]:
    """The end-to-end metrics of one rep (``peak_rss_mb`` is per run).

    ``host_speed`` scales wall time — set-up and timed window alike — to
    the reference speed (1.0 for a workload whose wall time does not
    follow the host's CPU speed).
    """
    return {
        "setup_s": rep.setup_s * host_speed,
        "host_us_per_frame": rep.wall_us_per_frame * host_speed,
        "frame_p50_ms": percentile(rep.latencies_ms, 50),
        "frame_p90_ms": percentile(rep.latencies_ms, 90),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def quartiles(values: Sequence[float]) -> Dict[str, float]:
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": statistics.median(values), "q3": q3, "n": len(values)}


def digest_problems(name: str, reps: Sequence[Rep]) -> List[str]:
    first = reps[0].digest
    return [
        f"{name}: same seed, different outcome in rep {i}: {rep.digest} vs {first}"
        for i, rep in enumerate(reps[1:], start=1)
        if rep.digest != first
    ]


def provenance(root: Path, args: argparse.Namespace, repeats: int) -> Dict[str, object]:
    sha = dirty = None
    try:
        top = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
        lines = top.stdout.split()
        if top.returncode == 0 and Path(lines[0]).resolve() == root.resolve():
            sha = lines[1]
            status = subprocess.run(
                ["git", "-C", str(root), "status", "--porcelain", "--", "src"],
                capture_output=True, text=True, timeout=30,
            )
            dirty = bool(status.stdout.strip())
    except (OSError, subprocess.TimeoutExpired, IndexError):
        pass
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "src_sha256": digest.hexdigest(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "repeats": repeats,
    }


def run_untraced(workload, args: argparse.Namespace):
    reps: List[Rep] = []
    references: List[float] = []
    deadline = perf_counter() + args.seconds
    while len(reps) < MIN_REPS or perf_counter() < deadline:
        references.append(reference_s())
        reps.append(workload.rep(args.seed))
    rss = peak_rss_mb()
    problems = [p for rep in reps for p in rep.problems]
    if workload.name != "live_loopback":
        problems += digest_problems(workload.name, reps)
    problems += workload.verify(args.seed, reps[0])
    speed = REFERENCE_NOMINAL_S / statistics.median(references) if workload.cpu_bound else 1.0
    per_rep = [end_to_end(rep, speed) for rep in reps]
    samples = {name: [m[name] for m in per_rep] for name in per_rep[0]}
    samples["peak_rss_mb"] = [rss]
    host = {
        "reference_s": quartiles(references),
        "wall_us_per_frame": quartiles([rep.wall_us_per_frame for rep in reps]),
    }
    return reps, samples, problems, host


def run_traced(workload, args: argparse.Namespace, spans_path: Path):
    """Alternate untraced and traced reps; spans come from the last one."""
    bases: List[Rep] = []
    traced: List[Rep] = []
    recorder = SpanRecorder()
    for _ in range(TRACE_PAIRS):
        bases.append(workload.rep(args.seed, lag=True))
        with Patcher() as patcher:
            layers.install(patcher, recorder)
            traced.append(workload.rep(args.seed, recorder=recorder, lag=True))
    recorder.write(spans_path)
    reps = bases + traced
    problems = [p for rep in reps for p in rep.problems]
    if workload.name != "live_loopback":
        problems += digest_problems(workload.name, reps)
    problems += workload.verify(args.seed, bases[0])
    program = dict(traced[-1].program)
    # Outcome metrics come from an untraced rep.
    program["frame_mean_ms"] = bases[-1].mean_ms
    program["frame_p99_ms"] = percentile(bases[-1].latencies_ms, 99)
    for key in ("frames_failed_frac", "wall_s_per_sim_s", "live_round_p50_ms",
                "live_round_p99_ms", "runtime.loop_lag_p99_ms"):
        if key in bases[-1].program:
            program[key] = bases[-1].program[key]
    program["trace.overhead_frac"] = (
        statistics.median(r.wall_us_per_frame for r in traced)
        / statistics.median(r.wall_us_per_frame for r in bases)
        - 1.0
    )
    metrics = layers.per_layer(recorder, program)
    samples = {name: [value] for name, value in metrics.items()}
    return reps, samples, problems, {}


def main(root: Path, argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((root / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    segment_s = args.seconds / (2 * TRACE_PAIRS) if args.trace else LIVE_SEGMENT_S
    workload = workloads.make(args.workload, os.cpu_count() or 1, segment_s)
    out_dir = root / ".perfbench"
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        reps, samples, problems, host = run_traced(workload, args, out_dir / "spans" / f"{stem}.npz")
    else:
        reps, samples, problems, host = run_untraced(workload, args)

    if set(samples) != set(units):
        missing = sorted(set(units) - set(samples))
        extra = sorted(set(samples) - set(units))
        raise SystemExit(f"metric set does not match BENCHMARK.json: missing {missing}, extra {extra}")

    stats = {name: dict(quartiles(samples[name]), unit=units[name]) for name in units}
    result = {
        "correct": not problems,
        "attempted": sum(rep.attempted for rep in reps),
        "failed": sum(rep.failed for rep in reps),
        "metrics": {name: {"value": stats[name]["median"], "unit": units[name]} for name in units},
    }
    record = {
        "provenance": provenance(root, args, len(reps)),
        "metrics": stats,
        "host": host,
        "problems": problems,
        "result": result,
    }
    out_dir.joinpath("results").mkdir(parents=True, exist_ok=True)
    (out_dir / "results" / f"{stem}.json").write_text(json.dumps(record, indent=1))

    for name in units:
        s = stats[name]
        print(f"{args.workload:15s} {name:52s} {s['median']:14.6g} {units[name]:6s}"
              f" q1 {s['q1']:.6g} q3 {s['q3']:.6g} n={s['n']}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print("record " + json.dumps(record))
    print(json.dumps(result))
    return 0 if result["correct"] else 1
