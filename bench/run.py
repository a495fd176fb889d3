"""cvrpkit benchmark: one workload, one seed, one measured run.

    python3 bench/run.py --workload screen --seed 1 --seconds 34 --trace 0

Builds the workload's inputs from the seed (timed as set-up, several
times), runs ops in a closed loop until they have taken ``--seconds`` of
wall time, checks every op's output against bench/oracle.py outside the
timed region, and prints a table of metrics followed, as the last line,
by one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates traced and untraced ops and reports the per-layer metrics.
A results file with the environment record and all metrics is written
under bench/.work/results/. Exits 1 if any check failed, 2 if the
library is not found.

Workload rationale and the layer-to-metric map are in bench/NOTES.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

from spans import SPAN_NAMES, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")

SETUP_REPS = 3  # set-up runs per measured run; setup_s is their median
WARMUP_OPS = 2
START_REPS = 5  # children timed for cli.start_ms

END_TO_END = {"op_ms_p50": "ms", "op_ms_p90": "ms", "ops_per_s": "1/s",
              "setup_s": "s", "peak_rss_mb": "MB"}
NS_PER_CELL = ("metrics.cvrp", "masks.membership", "pattern.rotate_about_y",
               "arraysynth.synthesize_eirp", "pattern.remap_to_standard")
MB_PER_S = ("patternio.read_pattern", "patternio.write_pattern")


def per_layer_units() -> dict:
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls_per_op"] = "count"
        units[f"{name}.self_ms_per_op"] = "ms"
    units.update({f"{n}.ns_per_cell": "ns" for n in NS_PER_CELL})
    units.update({f"{n}.mb_per_s": "MB/s" for n in MB_PER_S})
    units.update({"cli.start_ms": "ms", "trace.overhead_frac": "frac",
                  "trace.uncovered_frac": "frac", "failed_frac": "frac",
                  "arraysynth.trp_ref_ulps_max": "count"})
    return units


class Run:
    """Everything one measured run produced."""

    def __init__(self):
        self.setup_s = []
        self.op_s = {False: [], True: []}  # op wall times by traced
        self.ops = []  # (op index, traced, seconds)
        self.attempted = 0
        self.failures = []  # (op index, message)
        self.tracer = None
        self.workload = None


def measure(name: str, seed: int, seconds: float, trace: bool, workdir: str,
            max_ops: int | None = None) -> Run:
    """Set up `name`, then run and check ops for `seconds` of op time,
    rounded up to whole rounds of the workload's script.

    `max_ops` stops the loop early; the smoke tests use it.
    """
    from workloads import WORKLOADS

    run = Run()
    wl = run.workload = WORKLOADS[name](seed, workdir)
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        wl.setup()
        run.setup_s.append(time.perf_counter() - t0)
    tracer = run.tracer = Tracer() if trace else None
    gc.collect()
    busy, index = 0.0, 0

    def more() -> bool:
        if index < WARMUP_OPS:
            return True
        if max_ops is not None:
            return len(run.ops) < max_ops
        return busy < seconds or len(run.ops) % wl.ROUND != 0

    while more():
        warm = index < WARMUP_OPS
        o = wl.draw()
        traced = trace and not warm and index % 2 == 1
        if traced:
            tracer.op = index
            wl.trace_begin(tracer)
        t0 = time.perf_counter()
        try:
            out, errors = wl.op(o), []
        except Exception:  # an op that raises is a failed op; the loop goes on
            out, errors = None, [traceback.format_exc(limit=3)]
        dt = time.perf_counter() - t0
        if traced:
            wl.trace_end(tracer, index)
        if not errors:
            errors = wl.check(o, out)
        run.attempted += 1
        if errors:
            run.failures.append((index, "; ".join(errors)))
        if not warm:
            run.op_s[traced].append(dt)
            run.ops.append((index, traced, dt))
            busy += dt
        index += 1
    run.failures += [(-1, e) for e in wl.finish()]
    return run


def start_ms() -> float:
    """Median wall time of a child that only imports cvrpkit.cli."""
    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    for _ in range(START_REPS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import cvrpkit.cli"], env=env, check=True,
                       timeout=60)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def end_to_end(run: Run) -> dict:
    times = run.op_s[False]
    return {"op_ms_p50": statistics.median(times) * 1e3,
            "op_ms_p90": statistics.quantiles(times, n=10, method="inclusive")[-1] * 1e3,
            "ops_per_s": len(times) / sum(times),
            "setup_s": statistics.median(run.setup_s),
            "peak_rss_mb": run.workload.peak_rss_mb()}


def per_layer(run: Run) -> dict:
    traced = run.op_s[True]
    n = len(traced)
    calls, self_ns, dur_ns, cells, nbytes = ({s: 0 for s in SPAN_NAMES} for _ in range(5))
    top_ns = 0
    for _, name, depth, dur, self_dur, c, b in run.tracer.spans:
        calls[name] += 1
        self_ns[name] += self_dur
        dur_ns[name] += dur
        cells[name] += c
        nbytes[name] += b
        top_ns += dur if depth == 0 else 0
    m = {}
    for s in SPAN_NAMES:
        m[f"{s}.calls_per_op"] = calls[s] / n
        m[f"{s}.self_ms_per_op"] = self_ns[s] / 1e6 / n
    for s in NS_PER_CELL:
        m[f"{s}.ns_per_cell"] = dur_ns[s] / cells[s] if cells[s] else 0.0
    for s in MB_PER_S:
        m[f"{s}.mb_per_s"] = nbytes[s] / 1e6 / (dur_ns[s] / 1e9) if dur_ns[s] else 0.0
    m["cli.start_ms"] = start_ms()
    m["trace.overhead_frac"] = statistics.median(traced) / statistics.median(run.op_s[False]) - 1.0
    m["trace.uncovered_frac"] = 1.0 - top_ns / 1e9 / sum(traced)
    m["failed_frac"] = len(run.failures) / run.attempted
    m["arraysynth.trp_ref_ulps_max"] = run.workload.trp_ulps_max
    return m


def _git_sha() -> str | None:
    try:
        proc = subprocess.run(["git", f"--git-dir={os.path.join(ROOT, '.git')}", "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _cpuinfo() -> dict:
    info = {}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                key, _, value = line.partition(":")
                key = key.strip()
                if key in ("model name", "cache size") and key not in info:
                    info[key] = value.strip()
    except OSError:
        pass
    return {"cpu_model": info.get("model name"), "llc_size": info.get("cache size")}


def environment(args, run: Run) -> dict:
    import numpy

    return {"nproc": os.cpu_count(), **_cpuinfo(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "git_sha": _git_sha(), "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "samples": {"attempted": run.attempted, "timed": len(run.op_s[False]),
                        "traced": len(run.op_s[True]), "warmup": WARMUP_OPS,
                        "setup_reps": len(run.setup_s)}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["screen", "figures", "files"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(SRC, "cvrpkit", "__init__.py")):
        print(f"error: cvrpkit sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        run = measure(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    e2e = end_to_end(run)
    layer = per_layer(run) if args.trace else {}
    units = {**END_TO_END, **per_layer_units()}
    shown = layer if args.trace else e2e
    correct = not run.failures

    results_dir = os.path.join(WORK, "results")
    os.makedirs(results_dir, exist_ok=True)
    stem = os.path.join(results_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    record = {"environment": environment(args, run), "correct": correct,
              "failures": run.failures[:20],
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in {**e2e, **layer}.items()}}
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if run.tracer is not None:
        run.tracer.dump(stem + "-spans.json")

    for index, message in run.failures[:20]:
        print(f"FAILED op {index}: {message}", file=sys.stderr)
    print(f"# {args.workload} seed {args.seed}: {run.attempted} ops attempted, "
          f"{len(run.failures)} failed, {len(run.op_s[False])} timed untraced, "
          f"{len(run.op_s[True])} traced")
    for k, v in {**e2e, **layer}.items():
        print(f"{k:44s} {v:14.6g} {units[k]}")
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": len(run.failures),
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in shown.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
