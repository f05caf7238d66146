#!/usr/bin/env python3
"""arccover benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload cover_dense --seed 6 --seconds 30 --trace 0

Run from the root of a source checkout; arccover is imported from ``src/``.
A closed batch: one process issues the workload's fixed list of calls one after
another. A run repeats rounds until ``--seconds`` is used up and reports medians
over rounds. With ``--trace 0`` a round is one pass at ``workers=1`` and one at
the usable core count, and the last output line carries the end-to-end metrics.
With ``--trace 1`` a round adds a traced pass at ``workers=1`` and the last line
carries the per-layer metrics. Every pass is checked: its output bytes must
match the first serial pass of the run and, at the default seed, the golden
digests. At any other seed, one more untimed serial pass at the default seed
is checked against the golden digests. The last stdout line is one JSON object; a result file with the
environment goes to ``perfbench/out/``.
"""
from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
GOLDEN = BENCH_DIR / "golden.json"
MIN_SETUPS = 5

SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [{src!r}, {bench!r}]
import workloads
workloads.build({workload!r}, {seed}, {out!r})
print(repr(time.perf_counter() - t0))
"""

LAUNCHER_CODE = """
import subprocess, sys
for _ in sys.stdin:
    proc = subprocess.run([sys.executable, "-c", sys.argv[1]], capture_output=True, text=True, timeout=120)
    out = proc.stdout.split() if proc.returncode == 0 else []
    print(out[-1] if out else repr(proc.stderr.strip()[-500:]), flush=True)
"""

END_TO_END_UNITS = {"setup_s": "s", "replicates_per_s": "1/s", "serial_replicates_per_s": "1/s", "peak_rss_mb": "MB"}


def import_program():
    """Import arccover from this checkout's ``src/``; never from an installed copy."""
    package = SRC / "arccover"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: arccover sources not found at {package}; run from a source checkout")
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import arccover

    if Path(arccover.__file__).resolve().parent != package.resolve():
        sys.exit(f"error: imported arccover from {arccover.__file__}, not {package}")


def usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_commit() -> str:
    """HEAD of the checkout read from ``.git`` directly; 'unknown' outside a git clone."""
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
    return "unknown"


def environment(workers: int) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "usable_cores": usable_cores(),
        "cpu_model": cpu_model(),
        "workers": workers,
        "commit": git_commit(),
        "thread_env": {var: os.environ[var] for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


class SetupTimer:
    """Times set-up in fresh interpreters, started one at a time by a small launcher.

    The launcher is started while this process is still small: a child's peak
    RSS includes the memory of the process it was forked from, so set-up
    interpreters forked from this process late in a run would outweigh the pool
    workers in ``peak_rss_mb``.
    """

    def __init__(self, workload: str, seed: int):
        code = SETUP_CODE.format(src=str(SRC), bench=str(BENCH_DIR), workload=workload, seed=seed,
                                 out=str(OUT / workload))
        self._proc = subprocess.Popen([sys.executable, "-c", LAUNCHER_CODE, code], cwd=ROOT, text=True,
                                      stdin=subprocess.PIPE, stdout=subprocess.PIPE)

    def measure(self) -> float:
        """Seconds a fresh interpreter takes to import arccover and build the workload's configs."""
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        try:
            return float(line)
        except ValueError:
            sys.exit(f"error: set-up interpreter failed: {line.strip() or 'launcher exited'}")

    def close(self):
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()


class Ledger:
    """Replicates attempted and failed, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, replicates: int, reason: str):
        self.failed += replicates
        self.problems.append(reason)
        print(f"FAIL: {reason}", file=sys.stderr)


def run_pass(calls, workers: int, label: str, ledger: Ledger, reference: dict, golden: dict | None, tracer=None):
    """One pass over the workload's calls. Returns (wall seconds of the calls, bytes written)."""
    from arccover import tails

    tails.tail_prefix_total.cache_clear()  # every pass pays the prefix totals, as a fresh CLI run does
    wall = 0.0
    written = 0
    for call in calls:
        ledger.attempted += call.replicates
        try:
            t0 = time.perf_counter()
            if tracer is None:
                raw = call.execute(workers)
            else:
                with tracer:
                    raw = call.execute(workers)
            wall += time.perf_counter() - t0
            data, problems, nbytes = call.output(raw)
        except Exception:
            traceback.print_exc()
            ledger.fail(call.replicates, f"{label} {call.name}: raised")
            continue
        digest = hashlib.sha256(data).hexdigest()
        reference.setdefault(call.name, digest)
        if golden is not None and golden.get(call.name) != digest:
            problems.append(f"digest {digest[:16]} differs from golden")
        if reference[call.name] != digest:
            problems.append(f"digest {digest[:16]} differs from the first serial pass")
        if problems:
            ledger.fail(call.replicates, f"{label} {call.name}: " + "; ".join(problems))
        written += nbytes
    return wall, written


def load_golden(env: dict) -> dict | None:
    """Golden digests of the default seed, if made with this numpy version and machine type."""
    if not GOLDEN.is_file():
        return None
    record = json.loads(GOLDEN.read_text())
    if (record["numpy"], record["machine"]) != (env["numpy"], env["machine"]):
        print(f"note: golden digests were made with numpy {record['numpy']} on {record['machine']}; not checked",
              file=sys.stderr)
        return None
    return record["digests"]


def peak_rss_mb(workers: int) -> float:
    """Peak RSS of this process plus ``workers`` times the largest peak of any pool worker.

    The set-up launcher is still running, so neither it nor its interpreters count.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers * child) / 1024.0


def record_golden(calls, seed: int, env: dict) -> int:
    """Write the digests of one serial pass at the default seed into golden.json."""
    import workloads

    if seed != workloads.DEFAULT_SEED:
        sys.exit(f"error: golden digests are recorded at the default seed {workloads.DEFAULT_SEED}")
    ledger, digests = Ledger(), {}
    run_pass(calls, 1, "golden", ledger, digests, None)
    if ledger.failed:
        sys.exit("error: the golden pass failed its output checks")
    record = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {"digests": {}}
    if (record.get("numpy"), record.get("machine")) not in ((None, None), (env["numpy"], env["machine"])):
        sys.exit("error: golden.json was made with another numpy or machine; remove it to re-record all workloads")
    record.update(numpy=env["numpy"], machine=env["machine"], python=env["python"], cpu_model=env["cpu_model"])
    record["digests"].update(digests)
    GOLDEN.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"recorded {len(digests)} digests in {GOLDEN}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None, help="workload seed (default: the program's, 6)")
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true",
                        help="record this workload's digests in perfbench/golden.json (default seed only)")
    args = parser.parse_args(argv)

    import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}")
    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    workers = usable_cores()
    env = environment(workers)
    OUT.mkdir(parents=True, exist_ok=True)
    if args.record_golden:
        return record_golden(workloads.build(args.workload, seed, OUT / args.workload), seed, env)

    setup_timer = SetupTimer(args.workload, seed)
    try:
        return measure(args, seed, workers, env, setup_timer)
    finally:
        setup_timer.close()


def measure(args, seed: int, workers: int, env: dict, setup_timer: SetupTimer) -> int:
    """The rounds of one run; prints the report and the JSON result line."""
    import tracing
    import workloads
    from arccover import tails

    calls = workloads.build(args.workload, seed, OUT / args.workload)
    pass_replicates = sum(call.replicates for call in calls)
    golden = load_golden(env)
    check_golden = golden if seed == workloads.DEFAULT_SEED else None
    ledger = Ledger()
    reference: dict = {}
    setups, serial_walls, parallel_walls, traced_walls, traced_passes, latencies = [], [], [], [], [], []
    t_start = time.perf_counter()
    while True:
        t_round = time.perf_counter()
        # one set-up per round spreads the set-up samples over the run
        setups.append(setup_timer.measure())
        wall, written = run_pass(calls, 1, "serial", ledger, reference, check_golden)
        serial_walls.append(wall)
        wall, _ = run_pass(calls, workers, f"workers={workers}", ledger, reference, check_golden)
        parallel_walls.append(wall)
        if args.trace:
            tracer = tracing.Tracer()
            wall, _ = run_pass(calls, 1, "traced", ledger, reference, check_golden, tracer)
            traced_walls.append(wall)
            layers = tracing.layer_metrics(tracer.spans, wall)
            layers["tails.prefix_total_misses"] = tails.tail_prefix_total.cache_info().misses
            traced_passes.append(layers)
            latencies += tracing.cover_latencies_ms(tracer.spans)
        now = time.perf_counter()
        if now - t_start + (now - t_round) > args.seconds:
            break
    while len(setups) < MIN_SETUPS:
        setups.append(setup_timer.measure())
    if golden is not None and check_golden is None:
        # at other seeds, one untimed serial pass at the default seed checks the outputs against golden
        default_calls = workloads.build(args.workload, workloads.DEFAULT_SEED, OUT / f"{args.workload}-golden")
        run_pass(default_calls, 1, "golden check", ledger, {}, golden)

    e2e = {
        "setup_s": statistics.median(setups),
        "replicates_per_s": pass_replicates / statistics.median(parallel_walls),
        "serial_replicates_per_s": pass_replicates / statistics.median(serial_walls),
        "peak_rss_mb": peak_rss_mb(workers),
    }
    failed_frac = ledger.failed / ledger.attempted
    print(f"workload {args.workload}  seed {seed}  workers {workers}  rounds {len(serial_walls)}  trace {args.trace}")
    for name, value in e2e.items():
        print(f"  {name:<34} {value:14.4f} {END_TO_END_UNITS[name]}")
    print(f"  {'failed_frac':<34} {failed_frac:14.4f}      ({ledger.failed} of {ledger.attempted} replicates)")
    result = {"workload": args.workload, "seed": seed, "trace": args.trace, "seconds": args.seconds,
              "environment": env, "replicates_per_pass": pass_replicates, "setup_runs_s": setups,
              "serial_walls_s": serial_walls, "parallel_walls_s": parallel_walls, "end_to_end": e2e,
              "failed_frac": failed_frac, "problems": ledger.problems, "digests": reference}
    if args.trace:
        per_layer = tracing.median_metrics(traced_passes)
        tail = tracing.tail_latency(latencies)
        per_layer.update({
            "torus.run_to_cover_p50_ms": statistics.median(latencies) if latencies else 0.0,
            "torus.run_to_cover_tail_ms": tail,
            "torus.run_to_cover_latency_samples": len(latencies),
            "experiments.bytes_written": written,
            "experiments.parallel_eff": e2e["replicates_per_s"] / (workers * e2e["serial_replicates_per_s"]),
            "trace.overhead_frac": statistics.median(traced_walls) / statistics.median(serial_walls) - 1.0,
        })
        for name in tracing.PER_LAYER_UNITS:
            print(f"  {name:<34} {per_layer[name]:14.6g} {tracing.PER_LAYER_UNITS[name]}")
        result["per_layer"] = per_layer
        result["traced_walls_s"] = traced_walls
        (OUT / f"spans-{args.workload}-seed{seed}.json").write_text(json.dumps(tracer.spans))
        metrics = {name: {"value": per_layer[name], "unit": unit} for name, unit in tracing.PER_LAYER_UNITS.items()}
    else:
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]} for name, value in e2e.items()}
    (OUT / f"result-{args.workload}-seed{seed}-trace{args.trace}.json").write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps({"correct": ledger.failed == 0, "attempted": ledger.attempted, "failed": ledger.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
