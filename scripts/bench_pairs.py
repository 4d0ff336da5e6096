"""Run perfbench in two source trees in alternating pairs and compare the end-to-end metrics.

Each pair runs `perfbench/run.py` once in PARENT_TREE and once in CHANGE_TREE, one
after the other; the side that goes first alternates from pair to pair, and every
run has PYTHONDONTWRITEBYTECODE=1. The last line of a run's output is its JSON
record. For each end-to-end metric of BENCHMARK.json, it prints each side's median
and quartiles and the pairs the change won (better in the metric's direction; a tie
counts for neither), then each side's failed and attempted operations. Each pair's
values go to standard error as the pair finishes.

With --out PATH it also writes those figures as one JSON record (by convention
bench/BENCH_<name>.json, the file a performance claim cites): each tree's commit
and a SHA-256 of its src/clmech/*.py, the workload, seed, seconds and pairs, per
end-to-end metric each side's q1, median and q3 and the change's wins, each
side's failed and attempted operations, and the machine (CPU model, CPU count,
Python and numpy versions, as perfbench reports them) and the UTC date.

Usage:  python3 scripts/bench_pairs.py PARENT_TREE CHANGE_TREE --workload W
            [--pairs 10] [--seconds 15] [--seed 9] [--out PATH]
"""

import argparse
import datetime
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def run(tree: Path, workload: str, seconds: float, seed: int) -> dict:
    """The JSON record of one perfbench run in `tree`, with the run's `env` line as "env"."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise SystemExit(f"perfbench in {tree} exited {done.returncode}: {done.stderr.strip()[-500:]}")
    envs = [json.loads(line[4:]) for line in lines if line.startswith("env ")]
    return {**json.loads(lines[-1]), "env": envs[0] if envs else {}}


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), interpolated between the sorted values."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def compare(pairs: list[tuple[dict, dict]], end_to_end: list[dict]) -> dict:
    """Per end-to-end metric each side's quartiles and the change's wins, and each side's operations."""
    metrics = {}
    for metric in end_to_end:
        name, lower = metric["name"], metric["better"] == "lower"
        got = [(p["metrics"][name]["value"], c["metrics"][name]["value"]) for p, c in pairs if name in p["metrics"]]
        if got:
            sides = {side: dict(zip(("q1", "median", "q3"), _quartiles(list(values)))) for side, values in zip(SIDES, zip(*got))}
            metrics[name] = {**sides, "change_wins": sum(c < p if lower else c > p for p, c in got), "pairs": len(got)}
    operations = {}
    for side, records in zip(SIDES, zip(*pairs)):
        failed, attempted = sum(r["failed"] for r in records), sum(r["attempted"] for r in records)
        operations[side] = {"failed": failed, "attempted": attempted, "every_run_correct": all(r["correct"] for r in records)}
    return {"metrics": metrics, "operations": operations}


def summarise(pairs: list[tuple[dict, dict]], end_to_end: list[dict]) -> str:
    """The comparison table of (parent record, change record) pairs, one row per metric."""
    figures = compare(pairs, end_to_end)
    rows = [f"{'metric':<12s} {'parent median [q1, q3]':>32s} {'change median [q1, q3]':>32s} {'change wins':>12s}"]
    for name, row in figures["metrics"].items():
        parent, change = (f"{row[side]['median']:.6g} [{row[side]['q1']:.6g}, {row[side]['q3']:.6g}]" for side in SIDES)
        wins = f"{row['change_wins']}/{row['pairs']}"
        rows.append(f"{name:<12s} {parent:>32s} {change:>32s} {wins:>12s}")
    for side, ops in figures["operations"].items():
        correct = ops["every_run_correct"]
        rows.append(f"{side}: {ops['failed']} of {ops['attempted']} operations failed, every run correct: {correct}")
    return "\n".join(rows)


def tree_id(tree: Path, record: dict) -> dict:
    """The tree's commit as perfbench read it ('unknown' outside a git clone) and a SHA-256 of its
    src/clmech/*.py in name order, which tells two trees apart either way."""
    digest = hashlib.sha256()
    for path in sorted((tree / "src" / "clmech").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return {"commit": record["env"].get("git_sha", "unknown"), "src_sha256": digest.hexdigest()}


def bench_record(args, pairs: list[tuple[dict, dict]], end_to_end: list[dict]) -> dict:
    """The JSON record --out writes."""
    env = pairs[0][0]["env"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "pairs": len(pairs),
        "parent": tree_id(args.parent, pairs[0][0]),
        "change": tree_id(args.change, pairs[0][1]),
        **compare(pairs, end_to_end),
        "machine": {
            **{key: env.get(key) for key in ("cpu", "nproc", "affinity", "python", "numpy")},
            "date": datetime.datetime.now(datetime.timezone.utc).strftime("%Y-%m-%d"),
        },
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="the parent commit's source tree")
    parser.add_argument("change", type=Path, help="the change's source tree")
    parser.add_argument("--workload", required=True, choices=("simulate", "check_corpus", "derive_cold"))
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--seed", type=int, default=9)
    parser.add_argument("--out", type=Path, help="write the figures as one JSON record here")
    args = parser.parse_args()

    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    pairs = []
    for k in range(args.pairs):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        record = {side: run(getattr(args, side), args.workload, args.seconds, args.seed) for side in order}
        pairs.append((record["parent"], record["change"]))
        values = (f"{m['name']} {pairs[-1][0]['metrics'][m['name']]['value']:.4g} -> "
                  f"{pairs[-1][1]['metrics'][m['name']]['value']:.4g}" for m in end_to_end)
        print(f"pair {k + 1}, {' then '.join(order)}: {'; '.join(values)}", file=sys.stderr)
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s a run, {args.pairs} pairs")
    print(summarise(pairs, end_to_end))
    if args.out:
        args.out.write_text(json.dumps(bench_record(args, pairs, end_to_end), indent=1) + "\n")


if __name__ == "__main__":
    main()
