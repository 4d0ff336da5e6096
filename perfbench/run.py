"""clmech benchmark: one command, three workloads, every output checked.

    python3 perfbench/run.py --workload {simulate,check_corpus,derive_cold} \\
        --seed N --seconds S --trace {0,1}

Run it from the root of a clmech source tree; it imports clmech from `src/`.
`--trace 0` measures the end-to-end metrics with no tracing; `--trace 1`
makes one untraced and one traced pass and reports the per-layer metrics of
`layers.json` and the tracing overhead. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}. The exit code
is 0 when every output matched its oracle, 1 when one did not, 2 when the
source tree is missing.

Everything runs in this one process, on one thread: BLAS and OpenMP are
pinned to a single thread before numpy loads. Inputs are written under
`.perfbench_work/` and removed at the end; span traces and result records
go to `.perfbench_out/`.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_sha(root: Path) -> str:
    """HEAD's commit, read from .git without running git; 'unknown' outside a clone."""
    git = root / ".git"
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


def environment(args) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(ROOT),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("simulate", "check_corpus", "derive_cold"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "clmech" / "__init__.py").is_file() or not (ROOT / "scenarios").is_dir():
        print(f"error: no clmech source tree (src/clmech, scenarios/) under {ROOT}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import workloads

    warnings.filterwarnings("ignore", message="closure flow violates")
    env = environment(args)
    tag = f"{args.workload}-{args.seed}-{'trace' if args.trace else 'e2e'}"
    work = ROOT / ".perfbench_work" / f"{tag}-{os.getpid()}"
    out = ROOT / ".perfbench_out"
    work.mkdir(parents=True)
    try:
        workload = workloads.WORKLOADS[args.workload](ROOT, args.seed, work)
        if args.trace:
            result = workloads.trace_run(workload, out / f"spans-{tag}.json")
        else:
            result = workloads.measure(workload, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print("env " + json.dumps(env, sort_keys=True))
    for key, value in result.info.items():
        print(f"info {key} = {value}")
    print(f"info attempted = {result.attempted}, failed = {result.failed}, "
          f"fail_ratio = {result.failed / result.attempted:.6g}")
    for name, (value, unit) in result.metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    for error in result.errors[:20]:
        print(f"mismatch {error}")
    record = {
        "correct": result.correct and result.attempted > 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in result.metrics.items()},
    }
    out.mkdir(exist_ok=True)
    (out / f"result-{tag}.json").write_text(json.dumps({**record, "env": env, "info": result.info}, indent=1) + "\n")
    print(json.dumps(record))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
