"""timbrediff benchmark: times the CLI stages of three workloads.

    python3 perfbench/run.py --workload synth16k --seed 7 --seconds 45 --trace 0

--trace 0 times each stage as its own child process and prints the
end-to-end metrics; --trace 1 runs the stages in-process with spans around
the package's public functions and prints the per-layer metrics.  Every
run checks the outputs.  The last stdout line is one JSON object with
correct, attempted, failed and metrics; the exit code is 1 when an
operation or check failed, 2 when the checkout has no sources to run.

The benchmark changes no machine setting: it drops no file cache and pins
no CPU, so it measures what one user process can see.
"""

import argparse
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.pipeline import BLAS_THREAD_VARS, NPROC, ROOT, SRC, Ops, Runner, stage_env

for _var in BLAS_THREAD_VARS:           # before numpy loads its BLAS
    os.environ[_var] = str(NPROC)

from perfbench import checks, tracing                                   # noqa: E402
from perfbench.workloads import (SETUP_REPS, STAGE_METRICS, TIMED_STAGES,  # noqa: E402
                                 WORKLOADS, Prep, Stage)

WORK_ROOT = ROOT / ".bench_work"
RUN_DEADLINE_S = 170.0         # per workload; a stage still running then is killed
IMPORT_REPS = 3
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "fit_s": "s", "score_s": "s",
                    "score_global_s": "s", "gen_gt_s": "s", "peak_rss_mb": "MB"}


def machine_info(seed: int) -> dict:
    import numpy as np

    def first(path, prefix):
        try:
            with open(path) as fh:
                return next((l.split(":", 1)[1].strip() for l in fh if l.startswith(prefix)),
                            "unknown")
        except OSError:
            return "unknown"

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError, AttributeError):
        blas = "unknown"
    try:
        # The ceiling keeps git from searching directories above the checkout.
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10,
                                env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
                                ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((SRC / "timbrediff").glob("*.py")))
    return {
        "cpu": first("/proc/cpuinfo", "model name"), "nproc": NPROC,
        "ram": first("/proc/meminfo", "MemTotal"),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": blas, "blas_threads": NPROC, "commit": commit, "seed": seed,
        "src_lines": src_lines,
        "machine_settings": "unchanged: no file-cache drop, no CPU pinning",
    }


def run_chain(steps, runner, prep_reps: int, prep_times: list):
    """Run a chain's stages in order; stop at the first failure.

    Returns ({stage: seconds}, {stage: peak RSS MB}, ok).  Each Prep step
    runs prep_reps times and its median time goes to prep_times.
    """
    walls, peaks = {}, {}
    for step in steps:
        if isinstance(step, Prep):
            if runner.tracer is not None:
                runner.tracer.stage = step.name
            times = []
            for _ in range(prep_reps):
                start = time.perf_counter()
                try:
                    step.fn()
                except Exception as exc:   # a failed preparation fails the run, not the harness
                    runner.ops.record(False, f"prep {step.name}: {exc!r}")
                    return walls, peaks, False
                times.append(time.perf_counter() - start)
            runner.ops.record(True, "")
            prep_times.append(statistics.median(times))
            continue
        run = runner.stage(step.name, step.argv)
        walls[step.name] = run.seconds
        peaks[step.name] = run.peak_rss_mb
        if not run.ok:
            return walls, peaks, False
    return walls, peaks, True


def fresh(path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def check_outputs(ops, wl, out, chain_ok: bool, reference) -> dict:
    """Coverage and ranges of the results; for a chain that completed, also
    quality and the workload's own checks."""
    test_ids = checks.manifest_test_ids(wl.manifest)
    for name in ("results_knn.csv", "results_global.csv"):
        checks.check_results(ops, out / name, test_ids)
    if not chain_ok:
        return {}
    quality = checks.read_quality(out)
    quality["basis"] = checks.check_quality(ops, wl.name, wl.seed, quality, reference,
                                            wl.knn_beats_global)
    wl.check(ops, out)
    return quality


def measure(wl, run_dir, ops, seconds: float, deadline: float, reference) -> tuple:
    """Untraced run: end-to-end metrics from child-process stages.

    The chain runs once; then its stages run again one at a time, in chain
    order, while the next one still fits in `seconds` of stage time.  Each
    stage metric is the median of that stage's runs, so every run measures
    about `seconds` of work whatever the workload's chain costs.
    """
    runner = Runner(run_dir / "logs", ops, deadline=deadline)
    setup_times = []
    for _ in range(SETUP_REPS):
        fresh(wl.work)
        start = time.perf_counter()
        if not wl.setup(runner):
            return {}, {}
        setup_times.append(time.perf_counter() - start)
    digest = wl.digest()
    checks.check_digest(ops, wl.name, wl.seed, digest, reference)

    out = fresh(run_dir / "out")
    prep_times = []
    walls, peaks, ok = run_chain(wl.chain(out), runner, SETUP_REPS, prep_times)
    if not ok:
        check_outputs(ops, wl, out, False, reference)
        return {}, {}
    samples = {stage: [t] for stage, t in walls.items()}
    stages = [step for step in wl.chain(out) if isinstance(step, Stage)]
    for step in itertools.cycle(stages):
        spent = sum(sum(times) for times in samples.values())
        if spent + statistics.median(samples[step.name]) > seconds:
            break
        run = runner.stage(step.name, step.argv)
        if not run.ok:
            check_outputs(ops, wl, out, False, reference)
            return {}, {}
        samples[step.name].append(run.seconds)
        peaks[step.name] = max(peaks[step.name], run.peak_rss_mb)
    quality = check_outputs(ops, wl, out, True, reference)
    quality["inputs_digest"] = digest
    quality["stage_runs"] = " ".join(f"{s}={len(t)}" for s, t in samples.items())

    medians = {stage: statistics.median(times) for stage, times in samples.items()}
    metrics = {"setup_s": statistics.median(setup_times) + sum(prep_times)}
    metrics["wall_s"] = sum(medians.values())
    for stage, metric in STAGE_METRICS.items():
        metrics[metric] = medians[stage]
    metrics["peak_rss_mb"] = max(peaks.values())
    return {m: (v, END_TO_END_UNITS[m]) for m, v in metrics.items()}, quality


def import_seconds() -> float:
    times = []
    for _ in range(IMPORT_REPS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import timbrediff.cli"], env=stage_env(),
                       check=True, timeout=60)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def trace(wl, run_dir, ops, reference) -> tuple:
    """Traced run: per-layer metrics from in-process stages under the tracer.

    The chain runs twice in this process, each stage untraced and then
    traced, interleaved so that drift in machine load hits both alike; the
    ratio of their wall times is the tracing overhead, and their outputs
    must be byte-identical.
    """
    import timbrediff.cli  # noqa: F401  (imports happen before any timing)

    tracer = tracing.Tracer()
    plain = Runner(run_dir / "logs_plain", ops, in_process=True)
    traced = Runner(run_dir / "logs_traced", ops, in_process=True, tracer=tracer)
    fresh(wl.work)
    with tracer.installed():
        if not wl.setup(traced):
            return {}, {}
    checks.check_digest(ops, wl.name, wl.seed, wl.digest(), reference)

    plain_wall = traced_wall = 0.0
    for plain_step, traced_step in zip(wl.chain(fresh(run_dir / "plain")),
                                       wl.chain(fresh(run_dir / "traced"))):
        walls, _, ok = run_chain([plain_step], plain, 1, [])
        if not ok:
            break
        plain_wall += sum(walls.values())
        with tracer.installed():
            walls, _, ok = run_chain([traced_step], traced, 1, [])
        traced_wall += sum(walls.values())
        if not ok:
            break
    records = WORK_ROOT / "records"
    records.mkdir(parents=True, exist_ok=True)
    tracer.write(records / f"{wl.name}-seed{wl.seed}-spans.json")
    quality = check_outputs(ops, wl, run_dir / "traced", ok, reference)
    if not ok:
        return {}, {}
    checks.check_identical(ops, run_dir / "plain", run_dir / "traced")

    metrics = tracing.layer_metrics(tracer.spans, TIMED_STAGES)
    metrics["cli.import_s"] = (import_seconds(), "s")
    metrics["trace_overhead"] = (traced_wall / plain_wall, "1")
    return metrics, quality


def run_workload(name: str, seed: int, seconds: float, traced: bool, deadline: float,
                 reference) -> tuple:
    ops = Ops()
    run_dir = fresh(WORK_ROOT / f"{name}-seed{seed}-{os.getpid()}")
    wl = WORKLOADS[name](run_dir / "setup", seed)
    try:
        if traced:
            metrics, quality = trace(wl, run_dir, ops, reference)
        else:
            metrics, quality = measure(wl, run_dir, ops, seconds, deadline, reference)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return metrics, quality, ops


def report(name, metrics, quality, ops) -> None:
    print(f"== {name}")
    for metric, (value, unit) in metrics.items():
        print(f"{name:10s} {metric:46s} {value:14.6f} {unit}")
    for key, value in quality.items():
        shown = f"{value:.4f}" if isinstance(value, float) else value
        print(f"{name:10s} {key:46s} {shown}")
    ratio = ops.failed / ops.attempted if ops.attempted else 0.0
    print(f"{name:10s} {'failed_ops_ratio':46s} {ratio:14.6f} 1 "
          f"({ops.failed} of {ops.attempted} operations)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind so that running stages are killed and work is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (SRC / "timbrediff" / "cli.py").is_file():
        print(f"error: no timbrediff sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    reference = checks.load_reference()
    print("# meta " + json.dumps(machine_info(args.seed), sort_keys=True))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    all_metrics, attempted, failed = {}, 0, 0
    for name in names:
        deadline = time.monotonic() + RUN_DEADLINE_S
        metrics, quality, ops = run_workload(name, args.seed, args.seconds,
                                             bool(args.trace), deadline, reference)
        report(name, metrics, quality, ops)
        prefix = "" if len(names) == 1 else f"{name}."
        all_metrics.update({prefix + m: {"value": v, "unit": u}
                            for m, (v, u) in metrics.items()})
        attempted += ops.attempted
        failed += ops.failed
    correct = failed == 0 and bool(all_metrics)
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1), "failed": failed,
                      "metrics": all_metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
