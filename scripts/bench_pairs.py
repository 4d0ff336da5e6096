"""Run perfbench in two source trees in alternating pairs and compare the end-to-end metrics.

Each pair runs `perfbench/run.py` once in PARENT_TREE and once in CHANGE_TREE, one
after the other; the side that goes first alternates from pair to pair, and every
run has PYTHONDONTWRITEBYTECODE=1. The last line of a run's output is its JSON
record. For each end-to-end metric of BENCHMARK.json, it prints each side's median
and quartiles and the pairs the change won (better in the metric's direction; a tie
counts for neither), then each side's failed and attempted operations. Each pair's
values go to standard error as the pair finishes.

Usage:  python3 scripts/bench_pairs.py PARENT_TREE CHANGE_TREE --workload W
            [--pairs 10] [--seconds 15] [--seed 9]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run(tree: Path, workload: str, seconds: float, seed: int) -> dict:
    """The JSON record of one perfbench run in `tree`."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise SystemExit(f"perfbench in {tree} exited {done.returncode}: {done.stderr.strip()[-500:]}")
    return json.loads(lines[-1])


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), interpolated between the sorted values."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarise(pairs: list[tuple[dict, dict]], end_to_end: list[dict]) -> str:
    """The comparison table of (parent record, change record) pairs, one row per metric."""
    rows = [f"{'metric':<12s} {'parent median [q1, q3]':>32s} {'change median [q1, q3]':>32s} {'change wins':>12s}"]
    for metric in end_to_end:
        name, lower = metric["name"], metric["better"] == "lower"
        got = [(p["metrics"][name]["value"], c["metrics"][name]["value"]) for p, c in pairs if name in p["metrics"]]
        if not got:
            continue
        sides = []
        for values in zip(*got):
            q1, median, q3 = _quartiles(list(values))
            sides.append(f"{median:.6g} [{q1:.6g}, {q3:.6g}]")
        wins = sum(c < p if lower else c > p for p, c in got)
        rows.append(f"{name:<12s} {sides[0]:>32s} {sides[1]:>32s} {f'{wins}/{len(got)}':>12s}")
    for side, records in (("parent", [p for p, _ in pairs]), ("change", [c for _, c in pairs])):
        failed, attempted = sum(r["failed"] for r in records), sum(r["attempted"] for r in records)
        correct = all(r["correct"] for r in records)
        rows.append(f"{side}: {failed} of {attempted} operations failed, every run correct: {correct}")
    return "\n".join(rows)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="the parent commit's source tree")
    parser.add_argument("change", type=Path, help="the change's source tree")
    parser.add_argument("--workload", required=True, choices=("simulate", "check_corpus", "derive_cold"))
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--seed", type=int, default=9)
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


if __name__ == "__main__":
    main()
