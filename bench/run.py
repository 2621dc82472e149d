"""Closed-loop benchmark of the omegance CLI.

Run from the repository root:

    python3 bench/run.py --workload ddim-mixture-256 --seed 0 --seconds 25 --trace 0
    python3 bench/run.py --workload all      # every workload, one table

One client in one process calls ``omegance.cli.main`` for a full sweep,
checks the sweep's outputs (see gate.py), and only then starts the next one,
until ``--seconds`` have passed. The package is imported from ``src/`` of the
checkout. Inputs are generated from ``--seed`` into a scratch directory in the
checkout, which is removed at exit.

``--trace 0`` reports the end-to-end metrics; set-up is timed in fresh
interpreters, between sweeps and spread over the run. ``--trace 1``
alternates untraced sweeps with sweeps whose layer calls are wrapped in spans
(spans.py) and reports per-layer metrics, per sweep, plus the tracing
overhead. The last line of stdout is the JSON result; the line before it
describes the run and the machine.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

sys.dont_write_bytecode = True  # a run must leave the checkout as it found it
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# glibc malloc keeps freed memory instead of returning it to the kernel, so
# the sweeps' large numpy temporaries reuse mapped pages. With the defaults
# every sweep faulted its temporaries back in (1.35M minor faults, half the
# time of a ddim sweep), and on a shared 2-vCPU VM the cost of those faults
# swung run to run by more than 25%, which hid the program's own speed.
# glibc reads these only at start-up, hence the re-exec below.
MALLOC_ENV = {"MALLOC_MMAP_THRESHOLD_": str(1 << 28), "MALLOC_TRIM_THRESHOLD_": str(1 << 30)}
if __name__ == "__main__" and any(os.environ.get(k) != v for k, v in MALLOC_ENV.items()):
    os.environ.update(MALLOC_ENV)
    os.execv(sys.executable, sys.orig_argv)
# Set before numpy loads, so that --threads alone sets the load.
os.environ.pop("OMEGANCE_THREADS", None)
os.environ.update(dict.fromkeys(BLAS_VARS, "1"))

from gate import GateError, check_manifest, check_ordering, check_pins, check_same, summarize  # noqa: E402
from spans import Tracer, layer_metrics  # noqa: E402
import numpy as np  # noqa: E402
from workloads import WORKLOADS, make_inputs  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
PINS = BENCH / "pinned.json"
DEFAULT_SEED = 0
MIN_SWEEPS = 2
SETUP_PROBES = 30
TAIL_PERCENTILE = 75

# Runs in a fresh interpreter: import (numpy included), parse the config and
# build its schedule; the mask is built while the config is parsed.
SETUP_PROBE = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import omegance
omegance.load_config(sys.argv[2]).make_schedule()
print(time.perf_counter() - start)
"""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="shrink every workload (smoke test)")
    parser.add_argument("--spans-out", help="write the traced run's spans to this JSONL file")
    return parser.parse_args(argv)


def machine() -> dict:
    sha = "unknown"
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            sha = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30, check=True
            ).stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": sha,
        "env": {var: os.environ.get(var) for var in ("OMEGANCE_THREADS", *BLAS_VARS, *MALLOC_ENV)},
    }


def tail(times: list[float]) -> tuple[float, int]:
    """Nearest-rank TAIL_PERCENTILE sweep time, and how many sweeps are slower.

    A fixed percentile, not one with ten sweeps beyond it: a 45 s run of the
    slowest workload holds about 16 sweeps, where that rule falls below the
    median. The 75th, not a higher one, because with 30 sweeps or fewer a
    higher rank rests on two or three sweeps and spread 0.22 of its median
    across runs on a shared 2-vCPU VM, against 0.16 for the 75th.
    """
    ordered = sorted(times)
    rank = math.ceil(TAIL_PERCENTILE / 100 * len(ordered))
    return ordered[rank - 1], len(ordered) - rank


class Runner:
    """Runs, times and gates the sweeps of one workload in one scratch directory."""

    def __init__(self, args, work: Path):
        self.args = args
        self.work = work
        self.workload = WORKLOADS[args.workload]
        self.threads = min(self.workload.threads, os.cpu_count() or 1)
        self.inputs = make_inputs(args.workload, args.seed, args.smoke)
        self.config = work / "config.json"
        self.config.write_text(json.dumps(self.inputs.config), encoding="utf-8")
        if self.inputs.mask_pgm is not None:
            (work / "mask.pgm").write_bytes(self.inputs.mask_pgm)
        self.attempted = 0
        self.failed = 0
        self.reference: dict[str, str] | None = None
        self.reference_what = ""
        self.artifact_bytes = 0

    def setup_time(self) -> float:
        """Seconds a fresh interpreter takes to import omegance and set up the config."""
        cmd = [sys.executable, "-I", "-X", f"pycache_prefix={self.work / 'pycache'}", "-c", SETUP_PROBE,
               str(SRC), str(self.config)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        return float(done.stdout.strip().splitlines()[-1])

    def sweep(self, main, threads: int, tracer=None) -> float:
        """Run one sweep, gate it, and return its wall time."""
        self.attempted += 1
        out = self.work / f"sweep{self.attempted}"
        argv = [self.workload.command, "--config", str(self.config), "--out", str(out), "--threads", str(threads)]
        log = io.StringIO()
        code = None
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            start = time.perf_counter()
            try:
                code = main(argv) if tracer is None else tracer.sweep(self.attempted, lambda: main(argv))
            except SystemExit as exc:
                code = exc.code
            except Exception:  # a traceback is a failed sweep, not a failed benchmark
                traceback.print_exc()
            elapsed = time.perf_counter() - start
        try:
            if code != 0:
                raise GateError(f"exit code {code}: {log.getvalue()[-2000:]}")
            artifacts = check_manifest(out)
            if self.workload.command == "spectrum":
                check_ordering(out)
            if self.reference is None:
                self.reference = artifacts
                self.reference_what = f"first sweep (--threads {threads})"
                self.artifact_bytes = sum((out / name).stat().st_size for name in artifacts)
                if self.args.seed == DEFAULT_SEED and not self.args.smoke:
                    self.verify_pins(out)
            else:
                check_same(artifacts, self.reference, self.reference_what)
        except (GateError, OSError, ValueError, KeyError) as exc:
            self.failed += 1
            print(f"sweep {self.attempted} failed the gate: {exc!r}", file=sys.stderr)
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return elapsed

    def verify_pins(self, out: Path) -> None:
        summary = summarize(out, self.workload.command, tuple(self.inputs.config["latent"]["shape"]))
        check_pins(summary, json.loads(PINS.read_text(encoding="utf-8"))[self.args.workload])


def run(args, work: Path) -> tuple[dict, dict]:
    runner = Runner(args, work)
    probes = 0 if args.trace else 1 if args.smoke else SETUP_PROBES
    if probes:
        runner.setup_time()  # fills the bytecode cache

    sys.path.insert(0, str(SRC))
    import omegance.cli

    if not Path(omegance.cli.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"omegance was imported from {omegance.cli.__file__}, not from {SRC}")
    main = omegance.cli.main

    # A multi-threaded workload is checked against an untimed single-threaded
    # sweep. Otherwise the first timed sweep is the reference: a CLI user pays
    # its lazy set-up on every invocation, so it is not warmed away.
    if runner.threads > 1:
        runner.sweep(main, 1)

    tracer = Tracer()
    plain: list[float] = []
    traced: list[float] = []
    setup: list[float] = []
    paused = 0.0  # set-up probes do not count as run time

    def run_time() -> float:
        return time.perf_counter() - start - paused

    start = time.perf_counter()
    while len(plain) + len(traced) < MIN_SWEEPS or run_time() < args.seconds:
        if args.trace and len(plain) > len(traced):
            tracer.install()
            try:
                traced.append(runner.sweep(main, runner.threads, tracer))
            finally:
                tracer.uninstall()
        else:
            plain.append(runner.sweep(main, runner.threads))
        # Set-up probes are spread evenly over the run, so that they sample
        # the machine over the same window as the sweeps do.
        while len(setup) < probes * min(1.0, run_time() / args.seconds if args.seconds > 0 else 1.0):
            probe_start = time.perf_counter()
            setup.append(runner.setup_time())
            paused += time.perf_counter() - probe_start
    while len(setup) < probes:
        setup.append(runner.setup_time())

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "threads": runner.threads,
        "machine": machine(),
        "sweeps_attempted": runner.attempted,
        "failed_ratio": runner.failed / runner.attempted,
        "sweep_s_median": statistics.median(plain),
        "sweep_s": plain,
    }
    if args.trace:
        if args.spans_out:
            tracer.write(args.spans_out)
        metrics = layer_metrics(tracer.per_sweep(runner.threads))
        metrics["cli.artifact_bytes"] = (runner.artifact_bytes, "bytes")
        overhead = 100.0 * (statistics.median(traced) / statistics.median(plain) - 1.0)
        metrics["trace.overhead_pct"] = (overhead, "%")
        wall = metrics["cli.sweep_s"][0]
        info["share_of_traced_sweep"] = {
            name: value / wall for name, (value, unit) in metrics.items() if unit == "s" and name != "cli.sweep_s"
        }
        info["traced_sweeps"] = len(traced)
    else:
        tail_s, beyond = tail(plain)
        info.update(sweeps_timed=len(plain), tail_percentile=TAIL_PERCENTILE, sweeps_beyond_tail=beyond,
                    setup_runs=len(setup))
        metrics = {
            "mcell_steps_per_s": (runner.inputs.cell_steps / statistics.median(plain) / 1e6, "Mcell-step/s"),
            "sweep_s_tail": (tail_s, "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return info, result


def run_all(args) -> int:
    """Every workload in its own process; prints each metric by name and unit."""
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or len(lines) < 2:
            print(f"{name}: exit {done.returncode}\n{done.stderr}", file=sys.stderr)
            status = 1
            continue
        info, result = json.loads(lines[-2]), json.loads(lines[-1])
        status |= not result["correct"]
        print(f"== {name}  correct={result['correct']}  failed_ratio={info['failed_ratio']}"
              f"  ({result['failed']}/{result['attempted']} sweeps)")
        for metric, entry in result["metrics"].items():
            print(f"   {metric:34s} {entry['value']:<22.6g} {entry['unit']}")
        print(f"   {json.dumps(info)}")
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "omegance" / "__init__.py").is_file():
        print(f"no package source at {SRC}/omegance; run from a full checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    work = Path(tempfile.mkdtemp(prefix=".bench-work-", dir=ROOT))
    try:
        info, result = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
