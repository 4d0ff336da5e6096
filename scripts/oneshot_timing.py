"""Time one-shot commands as a user runs them: subprocess wall medians over one or more source trees.

The commands are `python -c pass`, `python -c "import numpy"`, `python -c "import clmech.cli"`,
and `derive`, `simulate` and `check all` on damped_oscillator and free_particle through
`clmech.cli.main`, their output discarded. Each runs once without a bytecode cache of clmech
("none": PYTHONDONTWRITEBYTECODE=1 on a copy of the tree's src/ without __pycache__) and once
with a warm one ("warm": the same variable on a second copy that `compileall` filled first), so
no run writes bytecode, and none into a tree. Both copies live in a temporary directory. One
repeat runs every command in every mode once in each tree, the trees' order alternating from
repeat to repeat, one subprocess at a time. Each row prints a command, its mode and the median
wall milliseconds per tree, the trees named by their directory names in the header.

Usage:  python3 scripts/oneshot_timing.py [TREE ...] [--repeats 9]
        (the default tree is this checkout)
"""

import argparse
import compileall
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CLI = "import sys; from clmech.cli import main; sys.exit(main(sys.argv[1:]))"
VERBS = {"derive": ("derive",), "simulate": ("simulate",), "check all": ("check", "all")}
COMMANDS = {
    "pass": ("-c", "pass"),
    "import numpy": ("-c", "import numpy"),
    "import clmech.cli": ("-c", "import clmech.cli"),
    **{f"{verb} {name}": ("-c", CLI, *argv, f"{{scenarios}}/{name}.json")
       for name in ("damped_oscillator", "free_particle") for verb, argv in VERBS.items()},
}
MODES = ("none", "warm")


def copy_tree(tree: Path, into: Path) -> dict[str, Path]:
    """Mode -> a copy of `tree`'s src/ under `into`, bytecode-compiled for "warm"."""
    copies = {}
    for mode in MODES:
        copies[mode] = into / mode / "src"
        shutil.copytree(tree / "src", copies[mode], ignore=shutil.ignore_patterns("__pycache__"))
    if not compileall.compile_dir(copies["warm"], quiet=1):
        raise SystemExit(f"compileall failed in {copies['warm']}")
    return copies


def wall_ms(argv: tuple[str, ...], src: Path, scenarios: Path) -> float:
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    args = [sys.executable, *(arg.format(scenarios=scenarios) for arg in argv)]
    start = time.perf_counter()
    done = subprocess.run(args, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, check=False)
    elapsed = (time.perf_counter() - start) * 1e3
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(args)} exited {done.returncode}: {done.stderr.strip()[-500:]}")
    return elapsed


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("trees", nargs="*", type=Path, default=[ROOT])
    parser.add_argument("--repeats", type=int, default=9)
    args = parser.parse_args()

    names = [tree.resolve().name for tree in args.trees]
    names = [f"{name}#{k}" if names.count(name) > 1 else name for k, name in enumerate(names)]
    times = {(command, mode, k): [] for command in COMMANDS for mode in MODES for k in range(len(names))}
    with tempfile.TemporaryDirectory() as tmp:
        copies = [copy_tree(tree, Path(tmp) / str(k)) for k, tree in enumerate(args.trees)]
        order = list(range(len(names)))
        for _ in range(args.repeats):
            for command, argv in COMMANDS.items():
                for mode in MODES:
                    for k in order:
                        times[command, mode, k].append(wall_ms(argv, copies[k][mode], args.trees[k] / "scenarios"))
            order.reverse()
    width = max(map(len, COMMANDS))
    print(f"{'command':<{width}s} {'cache':<5s} " + " ".join(f"{name:>12s}" for name in names))
    for command in COMMANDS:
        for mode in MODES:
            medians = (statistics.median(times[command, mode, k]) for k in range(len(names)))
            print(f"{command:<{width}s} {mode:<5s} " + " ".join(f"{ms:>12.1f}" for ms in medians))


if __name__ == "__main__":
    main()
