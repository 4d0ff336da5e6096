"""Time each declared suite of each bundled scenario as `check all` runs it, clmech imported afresh.

Before each scenario's run, every `clmech` module is dropped and clmech is
imported anew, as perfbench's `check_corpus` does before each operation, so
every kernel compiles again. The scenario's declared suites then run in order
on one `RunContext`, as `suites.run_suites` runs them, and each suite call is
timed: a suite's time includes what it is the first to need of the shared
derive and trajectories. Importing is not timed. Each scenario runs
`--repeats` times, the scenarios taking turns. It prints the median
milliseconds per scenario and suite, then each suite's total over the
scenarios and the total of all suites.

Usage:  python3 scripts/suite_timing.py [--repeats 7]
"""

import argparse
import gc
import importlib
import statistics
import sys
import time
from collections import defaultdict


def fresh_clmech():
    """`clmech.suites` and `clmech.corpus`, imported after every clmech module is dropped."""
    for name in [m for m in sys.modules if m == "clmech" or m.startswith("clmech.")]:
        del sys.modules[name]
    gc.collect()
    return importlib.import_module("clmech.suites"), importlib.import_module("clmech.corpus")


def suite_seconds(index: int) -> tuple[str, list[tuple[str, float]]]:
    """The name of the bundled scenario at `index` and the seconds of each of its declared suites."""
    suites, corpus = fresh_clmech()
    sc = corpus.bundled_corpus()[index]
    run = suites.RunContext(sc)
    times = []
    for name in sc.checks:
        start = time.perf_counter()
        suites.SUITE_FUNCTIONS[name](run, suites.DEFAULT_SEED)
        times.append((name, time.perf_counter() - start))
    return sc.name, times


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=7)
    args = parser.parse_args()

    count = len(fresh_clmech()[1].bundled_corpus())
    runs: dict[tuple[str, str], list[float]] = defaultdict(list)
    for _ in range(args.repeats):
        for index in range(count):
            scenario, times = suite_seconds(index)
            for suite, seconds in times:
                runs[scenario, suite].append(seconds * 1e3)
    totals: dict[str, float] = defaultdict(float)
    print(f"{'scenario':<26s} {'suite':<12s} {'median ms':>10s}")
    for (scenario, suite), values in runs.items():
        median = statistics.median(values)
        totals[suite] += median
        print(f"{scenario:<26s} {suite:<12s} {median:>10.2f}")
    for suite, total in totals.items():
        print(f"{'total':<26s} {suite:<12s} {total:>10.2f}")
    print(f"{'total':<26s} {'all':<12s} {sum(totals.values()):>10.2f}")


if __name__ == "__main__":
    main()
