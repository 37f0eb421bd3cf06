#!/usr/bin/env python3
"""Layered benchmark of the mvvand package.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; the package is imported from ``src/``.
It is one process with no threads, a closed loop with one caller: each
instance starts after the previous verdict has been checked.  A pass imports
the package afresh, builds the workload's seeded instance list and runs it
once; passes repeat until ``--seconds`` have elapsed, and at least three run.

Every time in the end-to-end metrics is in reference seconds: wall time
scaled by the host's speed, which ``hostspeed.py`` samples while the run
works.  The record line keeps the unscaled times too.

With ``--trace 0`` the last line of standard output holds the end-to-end
metrics.  With ``--trace 1`` untraced and traced passes alternate and the
last line holds the per-layer metrics; the spans of the first traced pass
are written to ``benchmarks/out/``.  The line before the result records the
machine, the code, the seed and the SHA-256 digest of the emitted reports.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import spans
import workloads
from hostspeed import HostSpeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MIN_PASSES = 3
DEADLINE_S = 150.0  # no pass starts that could end past this, so the run exits in time
HELD_OUT_SEED = 7919  # keep out of tuning; confirm a claimed gain on it

END_TO_END = {
    "wall_s": "s",
    "instance_p50_ms": "ms",
    "instance_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "verified_fraction": "fraction",
}


class SetupError(Exception):
    """The checkout cannot run the benchmark."""


def import_package():
    """Import ``mvvand`` afresh from ``src/``."""
    if not (SRC / "mvvand" / "__init__.py").is_file():
        raise SetupError(f"no package at {SRC / 'mvvand'}: run from the root of a checkout")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "mvvand" or m.startswith("mvvand.")]:
        del sys.modules[name]
    mv = importlib.import_module("mvvand")
    if Path(mv.__file__).resolve().parent != (SRC / "mvvand").resolve():
        raise SetupError(f"imported mvvand from {mv.__file__}, not from {SRC}")
    return mv


def setup(workload: str, seed: int, tiny: bool, speed: HostSpeed):
    """Import the package afresh and build the inputs.

    Returns the package, its instance list, and the seconds both took, as
    measured and in reference seconds.  The expected results are worked out
    apart, so that ``setup_s`` times only the package and the inputs.
    """
    gc.collect()
    start = speed.now()
    mv = import_package()
    instances = workloads.build(mv, workload, seed, tiny)
    end = speed.now()
    speed.sample()
    return mv, instances, end[0] - start[0], speed.seconds(start, end)


@dataclass
class Pass:
    wall: float  # reference seconds
    raw_wall: float  # seconds as measured, sampling included
    cpu: float  # CPU seconds, sampling excluded
    times: list  # reference seconds per instance, to its emitted report
    failed: int
    digest: str


def run_pass(mv, instances, expect, speed: HostSpeed, recorder=None) -> Pass:
    """Run every instance once and check every result against ``expect``."""
    gc.collect()
    digest = hashlib.sha256()
    readings, failed = [], 0
    cpu0, first = time.process_time(), speed.now()
    for index, (inst, want) in enumerate(zip(instances, expect, strict=True)):
        if recorder is not None:
            recorder.begin_instance(index)
        start = speed.now()
        try:
            results, texts = workloads.execute(mv, inst)
        except Exception:
            readings.append((start, speed.now()))
            failed += 1
            print(f"instance {index} ({inst.kind} n={inst.n} d={inst.d}) raised:", file=sys.stderr)
            traceback.print_exc()
            continue
        readings.append((start, speed.now()))
        for text in texts:
            digest.update(text.encode())
        if not workloads.check(inst, want, results):
            failed += 1
            print(f"instance {index} ({inst.kind} n={inst.n} d={inst.d}): wrong result", file=sys.stderr)
    last = speed.now()
    cpu = time.process_time() - cpu0 - (last[1] - first[1])
    speed.sample()
    times = [speed.seconds(a, b) for a, b in readings]
    wall = speed.seconds(first, last)
    return Pass(wall, last[0] - first[0], cpu, times, failed, digest.hexdigest())


def _percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _peak_rss_mb() -> float:
    kb = max(resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return kb / 1024.0


def _commit() -> str | None:
    """Commit hash from ``.git`` when the checkout is a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "mvvand").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _metric(value, unit):
    return {"value": value, "unit": unit}


def measure(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False, spans_dir=HERE / "out"):
    """Run the benchmark; returns (record, result) where result is the last line."""
    started = time.perf_counter()
    setups, raw_setups, plain, traced, layers = [], [], [], [], []
    first_recorder = expect = None
    last = 0.0
    # Every pass sets up afresh, so set-up time is sampled across the whole
    # run like the passes are, not only in its first moments.
    with HostSpeed() as speed:
        while len(plain) < MIN_PASSES or time.perf_counter() - started < seconds:
            if time.perf_counter() - started + last > DEADLINE_S:
                break
            pass_started = time.perf_counter()
            mv, instances, raw_setup, setup_s = setup(workload, seed, tiny, speed)
            raw_setups.append(raw_setup)
            setups.append(setup_s)
            if expect is None:
                # the inputs depend only on the seed, so every pass shares these
                expect = [workloads.expected(inst) for inst in instances]
            plain.append(run_pass(mv, instances, expect, speed))
            if trace:
                with spans.Recorder(mv, workloads) as rec:
                    traced.append(run_pass(mv, instances, expect, speed, rec))
                layers.append(rec.metrics())
                first_recorder = first_recorder or rec
            last = time.perf_counter() - pass_started

    passes = plain + traced
    attempted = sum(len(p.times) for p in passes)
    failed = sum(p.failed for p in passes)
    digests = sorted({p.digest for p in passes})
    correct = failed == 0 and len(digests) == 1
    if len(digests) > 1:
        print(f"emitted reports differ between passes: {digests}", file=sys.stderr)

    if trace:
        counts = {k: layers[0][k] for k in spans.WORK_COUNTS}
        if any({k: layer[k] for k in counts} != counts for layer in layers[1:]):
            correct = False
            print("work counts differ between traced passes", file=sys.stderr)
        values = dict(counts)
        for key, unit in spans.PER_LAYER.items():
            if key not in values and key not in spans.RUN_LEVEL:
                values[key] = statistics.median(layer[key] for layer in layers)
        values["process.cpu_s"] = statistics.median(p.cpu for p in plain)
        values["trace.overhead_ratio"] = (
            statistics.median(p.wall for p in traced) / statistics.median(p.wall for p in plain)
        )
        values["gate.failed_fraction"] = failed / attempted
        metrics = {k: _metric(values[k], unit) for k, unit in spans.PER_LAYER.items()}
        if spans_dir is not None:
            Path(spans_dir).mkdir(parents=True, exist_ok=True)
            first_recorder.write(Path(spans_dir) / f"spans-{workload}-seed{seed}.jsonl")
    else:
        # Each instance's median time over the passes, so that a slow moment
        # of the host does not pick the percentile; then percentiles over
        # the instances.
        samples = [statistics.median(ts) for ts in zip(*(p.times for p in plain))]
        values = {
            "wall_s": statistics.median(p.wall for p in plain),
            "instance_p50_ms": _percentile(samples, 50) * 1000.0,
            "instance_p90_ms": _percentile(samples, 90) * 1000.0,
            "peak_rss_mb": _peak_rss_mb(),
            "setup_s": statistics.median(setups),
            "verified_fraction": 1.0 - failed / attempted,
        }
        metrics = {k: _metric(values[k], unit) for k, unit in END_TO_END.items()}

    record = {
        "workload": workload,
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": seconds,
        "trace": int(trace),
        "passes": {"untraced": len(plain), "traced": len(traced)},
        "instances_per_pass": len(instances),
        "latency_samples": len(instances),
        "latency_passes": len(plain),
        "pass_wall_s": [p.wall for p in plain],
        "pass_raw_wall_s": [p.raw_wall for p in plain],
        "pass_setup_s": setups,
        "pass_raw_setup_s": raw_setups,
        "host_speed": {
            "samples": len(speed.speed),
            "median": speed.median_speed(),
            "sampling_s": speed.spent,
        },
        "report_sha256": digests[0] if len(digests) == 1 else digests,
        "process_cpu_s": sum(p.cpu for p in passes),
        "machine": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": len(os.sched_getaffinity(0)),
            "platform": platform.platform(),
        },
        "code": {"commit": _commit(), "src_sha256": _source_digest()},
    }
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    return record, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        record, result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
