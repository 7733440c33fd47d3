"""Record each workload's input digest and output quality per seed.

    python3 perfbench/record_reference.py --seeds 0-19 [--workloads knn100k]

Runs each workload's set-up and stage chain once, in-process and untimed,
and merges the results into perfbench/reference.json.  Run it only on the
commit whose outputs should be the reference; the benchmark fails a run
whose inputs hash differently, or whose quality is worse than recorded.
"""

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.run import SRC, WORK_ROOT, fresh, run_chain  # noqa: E402  (sets BLAS threads)
from perfbench import checks                              # noqa: E402
from perfbench.pipeline import Ops, Runner                 # noqa: E402
from perfbench.workloads import WORKLOADS                  # noqa: E402

DEFAULT_TOLERANCE = 0.05


def seed_range(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def record(name: str, seed: int) -> dict:
    ops = Ops()
    work = fresh(WORK_ROOT / f"record-{name}-seed{seed}-{os.getpid()}")
    wl = WORKLOADS[name](fresh(work / "setup"), seed)
    runner = Runner(work / "logs", ops, in_process=True)
    try:
        ok = wl.setup(runner)
        digest = wl.digest() if ok else ""
        ok = ok and run_chain(wl.chain(fresh(work / "out")), runner, 1, [])[2]
        if not ok:
            raise SystemExit(f"{name} seed {seed}: {ops.failures}")
        return {"inputs_digest": digest, **checks.read_quality(work / "out")}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_range, required=True, help="e.g. 0-19 or 7")
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--out", type=Path, default=checks.REFERENCE_PATH)
    args = parser.parse_args()
    sys.path.insert(0, str(SRC))

    reference = ({"tolerance": DEFAULT_TOLERANCE, "workloads": {}} if not args.out.exists()
                 else json.loads(args.out.read_text()))
    for name in args.workloads.split(","):
        for seed in args.seeds:
            entry = record(name, seed)
            reference["workloads"].setdefault(name, {})[str(seed)] = entry
            print(name, seed, json.dumps(entry), flush=True)
    for name, seeds in reference["workloads"].items():
        reference["workloads"][name] = dict(sorted(seeds.items(), key=lambda kv: int(kv[0])))
    args.out.write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
