"""Running CLI stages: one child process per stage, or in-process when traced."""

import contextlib
import io
import os
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
NPROC = len(os.sched_getaffinity(0))
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def stage_env() -> dict:
    """Child environment: the checkout's sources, BLAS threads capped at nproc."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    for var in BLAS_THREAD_VARS:
        env[var] = str(NPROC)
    return env


class Ops:
    """Operations attempted and failed: stage runs, test clips, output checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def record(self, ok: bool, what: str, count: int = 1) -> bool:
        self.attempted += count
        if not ok:
            self.failed += count
            self.failures.append(what)
            print(f"FAILED: {what}", file=sys.stderr)
        return ok


@dataclass
class StageRun:
    name: str
    seconds: float
    peak_rss_mb: float
    ok: bool


class Runner:
    """Runs `timbrediff <argv>` and counts each run as one operation.

    With in_process=False each stage is a child process timed from spawn
    to exit, so the time includes interpreter start and import, and its
    peak RSS comes from that child's own rusage.  With in_process=True the
    stage calls timbrediff.cli.main(argv) here, which is what the tracer
    can see into; peak RSS is then not measured (0).
    """

    def __init__(self, log_dir, ops: Ops, in_process: bool = False,
                 tracer=None, deadline: float = None):
        self.log_dir = Path(log_dir)
        self.ops = ops
        self.in_process = in_process
        self.tracer = tracer
        self.deadline = deadline
        self._count = 0

    def stage(self, name: str, argv) -> StageRun:
        argv = [str(a) for a in argv]
        self._count += 1
        log_path = self.log_dir / f"{self._count:03d}-{name}.log"
        self.log_dir.mkdir(parents=True, exist_ok=True)
        if self.in_process:
            run = self._run_in_process(name, argv, log_path)
        else:
            run = self._run_child(name, argv, log_path)
        if not run.ok:
            tail = log_path.read_text(errors="replace").strip().splitlines()[-3:]
            print(f"stage {name} ({' '.join(argv[:1])}) failed: "
                  + " | ".join(tail), file=sys.stderr)
        self.ops.record(run.ok, f"stage {name}")
        return run

    def _run_child(self, name, argv, log_path) -> StageRun:
        with open(log_path, "w") as log:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-m", "timbrediff.cli", *argv],
                                    stdout=log, stderr=log, env=stage_env())
            # A stage that outlives the run's deadline (time.monotonic) is
            # killed and fails.
            timer = None
            if self.deadline is not None:
                timer = threading.Timer(max(self.deadline - time.monotonic(), 0.0),
                                        proc.kill)
                timer.start()
            status = usage = None
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                if timer is not None:
                    timer.cancel()
                if status is None:          # interrupted before the child was reaped
                    proc.kill()
                    proc.wait()
            seconds = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        # ru_maxrss is in KiB on Linux.
        return StageRun(name, seconds, usage.ru_maxrss / 1024.0, proc.returncode == 0)

    def _run_in_process(self, name, argv, log_path) -> StageRun:
        import timbrediff.cli

        if self.tracer is not None:
            self.tracer.stage = name
        out = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                code = timbrediff.cli.main(argv)
        except Exception:      # a crash inside the stage fails only that stage
            out.write(traceback.format_exc())
            code = 1
        seconds = time.perf_counter() - start
        log_path.write_text(out.getvalue())
        return StageRun(name, seconds, 0.0, code == 0)
