"""qsopt benchmark: one workload, one seed, one process generating the load.

    python3 perfbench/run.py --workload reduce-large --seed 1 --seconds 30 --trace 0

``--workload all`` runs the three workloads one after another, each in its own
process with its own report and JSON line. Run from the root of a checkout;
the package is imported from ``src/``.
With ``--trace 0`` it times whole passes of the workload and prints the
end-to-end metrics of BENCHMARK.json. With ``--trace 1`` it alternates
untraced and traced passes, checks that both give identical results, and
prints the per-layer metrics. Every task is checked for correctness outside
the timed region. The last line of standard output is the JSON result;
lines before it are the human-readable report (see perfbench/README.md).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: One BLAS/OpenMP thread: the load comes from one process, and a single
#: thread keeps timings steady on a machine shared with other work.
THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: Stop starting new passes after this long, whatever --seconds says.
HARD_STOP_S = 120.0
WORKLOADS = ("reduce-large", "maximize-seq", "small-exact-cli")


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in THREAD_VARS:
        env[var] = THREADS
    return env


def main(argv=None) -> int:
    args = _parse(argv)
    if args.workload == "all":
        for workload in WORKLOADS:
            argv = ["--workload", workload, "--seed", str(args.seed)]
            argv += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
            code = subprocess.run([sys.executable, __file__, *argv]).returncode
            if code:
                return code
        return 0
    if not (SRC / "qsopt" / "__init__.py").is_file():
        print(f"error: no qsopt package under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        print(f"error: {spec_path} is missing", file=sys.stderr)
        return 2
    declared = json.loads(spec_path.read_text())
    for var in THREAD_VARS:  # before numpy is first imported
        os.environ[var] = THREADS
    sys.path[:0] = [str(SRC), str(HERE)]
    import numpy
    import scipy

    import qsopt

    if Path(qsopt.__file__).resolve().parent != SRC / "qsopt":
        print(f"error: imported qsopt from {qsopt.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from runner import Runner

    affinity = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    threads = " ".join(f"{v}={os.environ.get(v)}" for v in THREAD_VARS)
    environment = (
        f"# nproc={os.cpu_count()} affinity={affinity} {threads} python={sys.version.split()[0]} "
        f"numpy={numpy.__version__} scipy={scipy.__version__}"
    )
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        runner = Runner(args.workload, args.seed, args.seconds, work, _child_env(), HARD_STOP_S)
        report = runner.run_traced() if args.trace else runner.run()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.is_dir() and not any(work.parent.iterdir()):
            work.parent.rmdir()
    wanted = declared["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in report.metrics]
    if missing:
        print(f"error: {args.workload} did not measure {', '.join(missing)}", file=sys.stderr)
        return 2
    metrics = {m["name"]: {"value": report.metrics[m["name"]], "unit": m["unit"]} for m in wanted}
    print(f"# qsopt benchmark  workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(environment)
    for line in report.lines:
        print(line)
    for problem in report.problems[:20]:
        print(f"# FAILED {problem}")
    result = {"correct": report.failed == 0, "attempted": report.attempted, "failed": report.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
