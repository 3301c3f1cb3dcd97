"""Benchmark of the corner-impact lab: seeded studies in a closed loop.

One client, one process, one thread: each op (a subcommand-sized study
from ``workloads.py``) starts when the previous one has returned.  Each
op's output is checked outside the timed region (``checks.py``).

    python3 perfbench/run.py --workload corner_dense --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 [--out FILE]

``--trace 0`` measures the end-to-end metrics with tracing off.  Their
times are scaled to a nominal host speed by a reference kernel timed
between ops (``calibrate.py``); the wall-clock figures are printed and
kept in the record too.
``--trace 1`` runs the workload's first cycle untraced and then traced
(``tracer.py``) and reports the per-layer metrics.  The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.  Machine facts, the op list and any failures go to
``.perfbench_out/<workload>-seed<n>-trace<t>.json`` in the checkout.
``--workload all`` runs every workload in its own process and prints each
metric by name with its unit.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_RUNS = 3              # fresh interpreters timed per run for setup_s
SETUP_REFS = 5              # reference passes timed each side of a probe
MIN_SAMPLES = 100           # so that 10 timed ops lie beyond p90
MAX_FAILURES_KEPT = 20
UNITS = {"op_ms_p50": "ms", "op_ms_p90": "ms", "ops_per_s": "1/s",
         "ok_ratio": "ratio", "peak_rss_mb": "MB", "setup_s": "s"}


class SetupError(RuntimeError):
    """The checkout does not hold the program this benchmark drives."""


def import_lab():
    """Import cornerimpact from the checkout's own ``src`` and nowhere else."""
    if not (SRC / "cornerimpact" / "__init__.py").is_file():
        raise SetupError(f"no cornerimpact package under {SRC}")
    sys.path.insert(0, str(SRC))
    import cornerimpact
    if Path(cornerimpact.__file__).resolve().parent.parent != SRC:
        raise SetupError(f"imported cornerimpact from {cornerimpact.__file__}")
    return cornerimpact


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def machine_facts(lab) -> dict:
    import numpy
    import scipy
    return {"cpu_count": os.cpu_count(), "cpu_model": _cpu_model(),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "backend": lab.BACKEND, "commit": _commit()}


def setup_probe(workload: str, seed: int) -> None:
    """Child side of the setup_s measurement: reports ready, then the
    reference times that scale it."""
    import_lab()
    import workloads
    workloads.generate(workload, seed)
    print("ready", flush=True)
    import calibrate
    print(json.dumps([calibrate.time_reference()
                      for _ in range(SETUP_REFS)]), flush=True)


def time_setup(workload: str, seed: int) -> tuple[float, float]:
    """Seconds from a fresh interpreter to the lab imported and inputs made,
    as (wall, scaled to the nominal host)."""
    import calibrate
    refs = [calibrate.time_reference() for _ in range(SETUP_REFS)]
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait(timeout=60)
    if line.strip() != "ready" or code != 0:
        raise SetupError(f"setup probe failed with exit code {code}")
    refs += json.loads(rest)
    return elapsed, elapsed * calibrate.NOMINAL_MS * 1e-3 / statistics.fmean(
        refs)


class Runner:
    """Runs ops in a closed loop, times them and checks their outputs."""

    def __init__(self, ops: list[dict], tmpdir: str):
        import checks
        import workloads
        self.checks = checks
        self.workloads = workloads
        self.ops = ops
        self.tmpdir = tmpdir
        self.attempted = 0
        self.failed = 0
        self.failures: list[dict] = []
        self.oracle_rel_err: float | None = None
        self.executed = 0           # ops[:executed] were run at least once

    def run_op(self, op: dict, tracer=None) -> float:
        """Run, time and check one op; returns its latency in seconds."""
        if tracer is not None:
            tracer.begin_op(op["id"])
        start = time.perf_counter()
        try:
            out = self.workloads.execute(op, self.tmpdir)
            error = None
        except Exception as exc:    # a failed op is counted, not fatal
            out, error = None, f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - start
        if tracer is not None:
            tracer.end_op()
        if error is None:
            try:
                error = self.checks.check(op, out)
                if op["kind"].startswith("oracle"):
                    rel = self.checks.oracle_rel_err(out[1], out[2])
                    self.oracle_rel_err = max(self.oracle_rel_err or 0.0, rel)
            except Exception as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
        if isinstance(out, tuple) and isinstance(out[-1], str) \
                and os.path.exists(out[-1]):
            os.remove(out[-1])
        self.attempted += 1
        self.executed = max(self.executed, op["id"] + 1)
        if error is not None:
            self.failed += 1
            if len(self.failures) < MAX_FAILURES_KEPT:
                self.failures.append({"op": op, "reason": error})
        return latency

    def run_for(self, seconds: float, cycle: int
                ) -> tuple[list[float], list[float]]:
        """Run whole cycles of ops until their latencies add up to seconds
        and at least MIN_SAMPLES ops have completed.  Returns the
        latencies and the reference times around them (calibrate.scale)."""
        import calibrate
        latencies: list[float] = []
        refs: list[float] = []
        total = 0.0
        while (total < seconds or len(latencies) < MIN_SAMPLES
               or len(latencies) % cycle):
            refs.append(calibrate.time_reference())
            op = self.ops[len(latencies) % len(self.ops)]
            latencies.append(self.run_op(op))
            total += latencies[-1]
        refs.append(calibrate.time_reference())
        return latencies, refs


def _percentiles(latencies: list[float]) -> tuple[float, float]:
    ms = [x * 1e3 for x in latencies]
    return statistics.median(ms), statistics.quantiles(ms, n=10)[8]


def _latency_metrics(latencies: list[float]) -> dict:
    p50, p90 = _percentiles(latencies)
    return {"op_ms_p50": p50, "op_ms_p90": p90,
            "ops_per_s": len(latencies) / sum(latencies)}


def measure(lab, workload: str, seed: int, seconds: float, trace: bool):
    """Run one workload; returns (metrics, record)."""
    import calibrate
    import workloads
    ops = workloads.generate(workload, seed)
    for _ in range(2 * calibrate.WINDOW):
        calibrate.time_reference()      # warm-up of the reference kernel
    setup = [] if trace else [time_setup(workload, seed)
                              for _ in range(SETUP_RUNS)]
    wall, timings = {}, {}
    OUT_DIR.mkdir(exist_ok=True)
    tmpdir = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
    try:
        runner = Runner(ops, tmpdir)
        for op in ops[:len(workloads.PATTERNS[workload])]:
            runner.run_op(op)       # warm-up: lazy imports, caches
        if trace:
            metrics = _traced(runner, workloads.cycle_size(workload),
                              seconds)
            samples = int(metrics["op.traced_count"])
        else:
            latencies, refs = runner.run_for(
                seconds, workloads.cycle_size(workload))
            samples = len(latencies)
            metrics = _latency_metrics(calibrate.scale(latencies, refs))
            metrics.update({
                "ok_ratio": (runner.attempted - runner.failed)
                / runner.attempted,
                "peak_rss_mb":
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "setup_s": statistics.median(s for _, s in setup),
            })
            wall = _latency_metrics(latencies)
            timings = {"latency_s": latencies, "reference_s": refs}
            wall.update({"setup_s": statistics.median(w for w, _ in setup),
                         "reference_ms_p50": statistics.median(refs) * 1e3})
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    record = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace), "machine": machine_facts(lab),
        "samples": samples, "attempted": runner.attempted,
        "failed": runner.failed, "failures": runner.failures,
        "oracle_rel_err": runner.oracle_rel_err,
        "setup_runs_s": setup, "metrics": metrics, "wall": wall,
        "timings": timings,
        "ops": ops[:runner.executed],
    }
    return metrics, record


def _traced(runner: Runner, block_size: int, seconds: float) -> dict:
    """Same block of ops untraced, then traced; per-layer metrics."""
    from tracer import Tracer
    block = runner.ops[:block_size]
    start = time.perf_counter()
    untraced = [runner.run_op(op) for op in block]
    passes = max(1, round(seconds / 2.0 / (time.perf_counter() - start)))
    for _ in range(passes - 1):
        untraced += [runner.run_op(op) for op in block]
    with Tracer() as tracer:
        traced = [runner.run_op(op, tracer)
                  for _ in range(passes) for op in block]
    metrics = tracer.layer_metrics()
    base = statistics.median(untraced) * 1e3
    top = statistics.median(traced) * 1e3
    metrics.update({"op.untraced_ms_p50": base, "op.traced_ms_p50": top,
                    "trace.overhead_ms": top - base,
                    "op.traced_count": len(traced)})
    return metrics


def _result(metrics: dict, units: dict, attempted: int, failed: int) -> dict:
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()}}


def run_one(args, lab) -> int:
    metrics, record = measure(lab, args.workload, args.seed, args.seconds,
                              bool(args.trace))
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(OUT_DIR / name, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for failure in record["failures"]:
        print(f"failed op {failure['op']['id']} ({failure['op']['kind']}): "
              f"{failure['reason']}", file=sys.stderr)
    print("machine: " + json.dumps(record["machine"]))
    print(f"workload {args.workload}: {record['samples']} timed ops, "
          f"{record['attempted']} attempted, {record['failed']} failed, "
          f"oracle_rel_err {record['oracle_rel_err']}")
    if record["wall"]:
        print("wall clock: " + ", ".join(
            f"{name} {value:.6g}" for name, value in record["wall"].items()))
    if args.trace:
        from tracer import LAYER_UNITS as units
    else:
        units = UNITS
    print(json.dumps(_result(metrics, units, record["attempted"],
                             record["failed"])))
    return 0


def run_all(args, lab) -> int:
    """Every workload in its own process; a table of every metric."""
    import workloads
    results, status = {}, 0
    for workload in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload}: failed with exit code {proc.returncode}")
            status = 1
            continue
        results[workload] = json.loads(lines[-1])
        result = results[workload]
        print(f"\n{workload}: attempted {result['attempted']}, "
              f"failed {result['failed']}, correct {result['correct']}")
        for name, metric in result["metrics"].items():
            value = metric["value"]
            shown = "null" if value is None else f"{value:.6g}"
            print(f"  {name:<40} {shown:>14} {metric['unit']}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"machine": machine_facts(lab), "seed": args.seed,
                       "seconds": args.seconds, "trace": args.trace,
                       "results": results}, fh, indent=1)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="corner_dense, corner_long, tables_io, "
                             "oracle_check or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="with --workload all: write the "
                                      "results and machine facts here")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.setup_probe:
            setup_probe(args.workload, args.seed)
            return 0
        lab = import_lab()
        import workloads
        if args.workload == "all":
            return run_all(args, lab)
        if args.workload not in workloads.WORKLOADS:
            parser.error(f"unknown workload {args.workload!r}")
        return run_one(args, lab)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
