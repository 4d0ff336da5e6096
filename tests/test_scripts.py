"""The scripts under scripts/ run, and the bundled scenario files match the corpus."""

import argparse
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    """Run a script in its own interpreter, importing clmech from src/."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": path},
        timeout=600,
    )


def test_corpus_checks_pass():
    done = run_script("run_corpus_checks.py")
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "corpus: 0 failing suite(s)"


def test_convergence_study_shows_fourth_order():
    done = run_script("convergence_study.py")
    assert done.returncode == 0, done.stderr
    orders = [float(line.split()[-1]) for line in done.stdout.splitlines()[2:]]
    assert orders and all(abs(order - 4.0) < 0.1 for order in orders)


def test_variation_slope_study_separates_the_paths():
    done = run_script("variation_slope_study.py")
    assert done.returncode == 0, done.stderr
    slopes = {line.split()[0]: float(line.split()[-1]) for line in done.stdout.splitlines()[-2:]}
    assert slopes["solution"] == pytest.approx(2.0, abs=0.05)
    assert slopes["control"] == pytest.approx(1.0, abs=0.05)


def test_variation_slope_study_reports_a_derive_warning_on_one_line():
    done = run_script("variation_slope_study.py", "damped_oscillator_literal")
    assert done.returncode == 0, done.stderr
    assert len(done.stderr.splitlines()) == 1
    assert done.stderr.startswith("warning: closure flow violates")


def test_step_timing_prints_every_simulate_category():
    done = run_script("step_timing.py", "--steps-scale", "0.02")
    assert done.returncode == 0, done.stderr
    header, *rows = done.stdout.splitlines()
    assert header.split() == ["kind", "dim", "shape", "steps", "first", "us/step", "warm", "us/step"]
    categories = {tuple(row.split()[:3]) for row in rows}
    assert ("regular", "3", "quadratic") in categories and ("hamiltonian", "1", "nonlinear") in categories
    assert len(categories) == len(rows)
    assert all(float(v) > 0 for row in rows for v in row.split()[3:])


def test_step_timing_prints_every_corpus_integration():
    done = run_script("step_timing.py", "--corpus")
    assert done.returncode == 0, done.stderr
    header, *rows = done.stdout.splitlines()
    assert header.split() == ["kind", "dim", "shape", "steps", "first", "us/step", "warm", "us/step"]
    names = {p.stem for p in (ROOT / "scenarios").glob("*.json")}
    assert {row.split()[2] for row in rows} == names
    assert {row.split()[0] for row in rows} == {"regular", "closure", "hamiltonian"}
    assert ("hamiltonian", "classical_oscillator") in {tuple(row.split()[0:3:2]) for row in rows}
    assert all(float(v) > 0 for row in rows for v in row.split()[3:])


def test_oneshot_timing_prints_every_command_with_and_without_a_cache():
    done = run_script("oneshot_timing.py", "--repeats", "1")
    assert done.returncode == 0, done.stderr
    header, *rows = done.stdout.splitlines()
    assert header.split() == ["command", "cache", ROOT.name]
    commands = ["pass", "import numpy", "import clmech.cli"]
    commands += [f"{verb} {name}" for name in ("damped_oscillator", "free_particle") for verb in ("derive", "simulate", "check all")]
    assert [row.rsplit(None, 2)[0] for row in rows] == [c for c in commands for _ in range(2)]
    assert [row.split()[-2] for row in rows] == ["none", "warm"] * len(commands)
    assert all(float(row.split()[-1]) > 0 for row in rows)

def _bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPTS / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_pairs_summarises_canned_records():
    # the last JSON line of perfbench/run.py, three pairs of parent and change
    def record(pass_s: float, rss: float, failed: int = 0) -> dict:
        line = json.dumps({
            "correct": failed == 0, "attempted": 10, "failed": failed,
            "metrics": {"pass_s": {"value": pass_s, "unit": "s"}, "peak_rss_mb": {"value": rss, "unit": "MB"}},
        })
        return json.loads(line)

    pairs = [(record(0.5, 40.0), record(0.4, 40.5)), (record(0.6, 40.0), record(0.45, 39.0)), (record(0.55, 41.0), record(0.55, 41.0, 1))]
    end_to_end = [{"name": "pass_s", "better": "lower"}, {"name": "op_p50_ms", "better": "lower"}, {"name": "peak_rss_mb", "better": "lower"}]
    header, pass_s, rss, parent, change = _bench_pairs().summarise(pairs, end_to_end).splitlines()
    assert header.split()[0] == "metric"
    # medians 0.55 and 0.45, inclusive quartiles [0.525, 0.575] and [0.425, 0.5]; a tie counts for neither side
    assert pass_s.split() == ["pass_s", "0.55", "[0.525,", "0.575]", "0.45", "[0.425,", "0.5]", "2/3"]
    assert rss.split()[-1] == "1/3"
    assert parent == "parent: 0 of 30 operations failed, every run correct: True"
    assert change == "change: 1 of 30 operations failed, every run correct: False"


def test_bench_pairs_checks_the_gain_rule_and_the_bound():
    def record(value: float) -> dict:
        return {"correct": True, "attempted": 10, "failed": 0, "metrics": {"pass_s": {"value": value, "unit": "s"}}}

    def row(parent: list[float], change: list[float], bound=0.25) -> dict:
        pairs = [(record(p), record(c)) for p, c in zip(parent, change)]
        end_to_end = [{"name": "pass_s", "better": "lower", "bound": bound}]
        return _bench_pairs().compare(pairs, end_to_end)["metrics"]["pass_s"], _bench_pairs().verdicts(pairs, end_to_end)

    parent = [0.30, 0.31, 0.29, 0.30, 0.32, 0.30, 0.31, 0.30, 0.29, 0.30]  # q1 0.30, q3 0.3075
    # 9 wins of 10, and the median gap 0.03 beats the parent's spread 0.0075
    got, text = row(parent, [0.27] * 9 + [0.33])
    assert (got["change_wins"], got["gain"], got["within_bound"]) == (9, True, True)
    assert text == "pass_s: gain rule met; bound 0.25 kept"
    # 8 wins of 10 fall short of 9, however large the gap
    assert not row(parent, [0.2] * 8 + [0.4] * 2)[0]["gain"]
    # 10 wins whose median gap 0.005 is inside the parent's spread
    assert not row(parent, [p - 0.005 for p in parent])[0]["gain"]
    # a change 30 % slower is beyond a bound of 0.25 and within one of 0.5
    got, text = row(parent, [1.3 * p for p in parent])
    assert (got["gain"], got["within_bound"], text) == (False, False, "pass_s: gain rule not met; bound 0.25 exceeded")
    assert row(parent, [1.3 * p for p in parent], 0.5)[0]["within_bound"]


def _check_bench_record(record: dict) -> None:
    """A `bench_pairs.py --out` record names a workload and end-to-end metrics of BENCHMARK.json
    and has both sides; no value is tested."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert record["workload"] in {w["name"] for w in declared["workloads"]}
    assert record["metrics"] and set(record["metrics"]) <= {m["name"] for m in declared["end_to_end"]}
    for side in ("parent", "change"):
        assert record[side]["commit"] and re.fullmatch("[0-9a-f]{64}", record[side]["src_sha256"])
        assert set(record["operations"][side]) == {"failed", "attempted", "every_run_correct"}
        assert all(set(row[side]) == {"q1", "median", "q3"} for row in record["metrics"].values())
    assert all(0 <= row["change_wins"] <= row["pairs"] == record["pairs"] for row in record["metrics"].values())
    assert {"seed", "seconds", "machine"} <= set(record)


def test_bench_pairs_writes_a_bench_record(tmp_path):
    bench = _bench_pairs()
    for side in ("parent", "change"):
        (tmp_path / side / "src" / "clmech").mkdir(parents=True)
        (tmp_path / side / "src" / "clmech" / "__init__.py").write_text(f"# {side}\n")
    env = {"git_sha": "unknown", "cpu": "cpu", "nproc": 2, "affinity": 2, "python": "3.11.7", "numpy": "2.4.6"}
    metrics = {"pass_s": {"value": 0.5, "unit": "s"}}
    record = {"correct": True, "attempted": 10, "failed": 0, "metrics": metrics, "env": env}
    args = argparse.Namespace(workload="simulate", seed=9, seconds=15.0, parent=tmp_path / "parent", change=tmp_path / "change")
    out = bench.bench_record(args, [(record, record)] * 2, [{"name": "pass_s", "better": "lower"}])
    _check_bench_record(json.loads(json.dumps(out)))
    assert out["parent"]["src_sha256"] != out["change"]["src_sha256"]
    assert out["metrics"]["pass_s"]["change_wins"] == 0 and out["metrics"]["pass_s"]["parent"]["median"] == 0.5


def test_committed_bench_records_name_declared_metrics():
    paths = sorted((ROOT / "bench").glob("BENCH_*.json"))
    assert paths
    for path in paths:
        _check_bench_record(json.loads(path.read_text()))


def test_step_sources_prints_a_digest_per_state_kind():
    done = run_script("step_sources.py", "--seeds")  # the corpus's steps only
    assert done.returncode == 0, done.stderr
    *rows, solvers = [line.split() for line in done.stdout.splitlines()]
    assert [row[:2] for row in rows] == [[kind, solve] for kind in ("float", "list") for solve in ("no-newton", "newton")]
    assert int(rows[0][2]) > 0 and all(re.fullmatch("[0-9a-f]{64}", row[3]) for row in rows)
    assert int(rows[1][2]) == int(rows[3][2]) == 0  # the bundled closures are affine
    # `_solve_scalar`, `_solve_2`..`_solve_4` and `_newton_1`..`_newton_4`
    assert solvers[:2] == ["solver", "8"] and re.fullmatch("[0-9a-f]{64}", solvers[2])
    # on standard error, per kind: zero products, and operations with an int literal, which are none
    head, _, counts = done.stderr.strip().partition(": ")
    waste = {kind: (int(products), int(ints)) for kind, products, ints in (c.rsplit(" ", 2) for c in counts.split("; "))}
    assert head == "zero products, int-literal operations" and list(waste)[-1] == "solver"
    assert [kind.split() for kind in list(waste)[:-1]] == [row[:2] for row in rows]
    assert all(ints == 0 for _, ints in waste.values())


# The generated loop and solver sources, pinned as a golden: a change that means to keep every
# generated text prints these lines, and one that moves a source re-pins them in a commit of its own.
STEP_SOURCES_GOLDEN = {
    (): [
        "float  no-newton   45 e5240a9de1bba91adb3d903b2723f4e9fd961ae041640b741571c56d1fc03665",
        "float  newton       6 2ff07682a97dc1d379db771cdc595e4983ed600396f212a02667342a9dbb4c89",
        "list   no-newton   10 ccfc33040d0ae43a1d8d0ba7660d35df85f0b94bb0f8ae37f4c7d52489a5b4f1",
        "list   newton       0 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "solver              8 e1ff11a8b796bdfa576f630316972081476547d24246581e97f1bf2f431708fb",
    ],
    ("--seeds",): [
        "float  no-newton   11 3bba7940228df5e964a0cbaa3cc2c2655f9f940ff816f131e37d5b02ca2cf59c",
        "float  newton       0 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "list   no-newton    0 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "list   newton       0 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "solver              8 e1ff11a8b796bdfa576f630316972081476547d24246581e97f1bf2f431708fb",
    ],
}


@pytest.mark.parametrize("args", STEP_SOURCES_GOLDEN, ids=["full", "corpus-only"])
def test_step_sources_prints_the_golden_digests(args):
    done = run_script("step_sources.py", *args)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == STEP_SOURCES_GOLDEN[args]


def test_scenario_files_are_the_exported_corpus(tmp_path):
    # the CLI reads scenarios/*.json and most tests read CORPUS_DICTS
    spec = importlib.util.spec_from_file_location("export_scenarios", SCRIPTS / "export_scenarios.py")
    export = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(export)
    export.main(tmp_path)
    exported = sorted(p.name for p in tmp_path.iterdir())
    assert exported == sorted(p.name for p in (ROOT / "scenarios").iterdir())
    for name in exported:
        assert (tmp_path / name).read_bytes() == (ROOT / "scenarios" / name).read_bytes(), name


def test_perfbench_tracer_installs():
    # the tracer wraps each name in the clmech module that calls it, so a
    # name that a module stops binding would fail only in a traced bench run
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    code = "import spans, workloads\nt = spans.Tracer()\nworkloads.install(t, [])\nt.restore()"
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("command", ["check", "simulate"])
def test_report_diff_flags_changed_tags_and_moved_values(command, tmp_path):
    from clmech.cli import main

    argv = ["check", "noether"] if command == "check" else ["simulate"]
    old = tmp_path / "old.txt"
    assert main([*argv, str(ROOT / "scenarios" / "damped_oscillator.json"), "-o", str(old)]) == 0
    text = old.read_text()

    def diff(new_text: str) -> subprocess.CompletedProcess:
        new = tmp_path / "new.txt"
        new.write_text(new_text)
        return run_script("report_diff.py", str(old), str(new))

    same = diff(text)
    assert same.returncode == 0 and same.stdout.splitlines()[-1] == "agree"
    # a changed tag (or CSV header), then one value moved by 1e-9 relative
    changed = text.replace("[PASS]", "[FAIL]") if command == "check" else text.replace("q_1", "q_2", 1)
    assert changed != text and diff(changed).returncode == 1
    if command == "check":
        value = re.search(r"value=(0\.\d+)", text)[1]
    else:
        value = text.splitlines()[-1].split(",")[1]  # the last q
    assert text.count(value) == 1
    done = diff(text.replace(value, repr(float(value) * (1 + 1e-9))))
    assert done.returncode == 1 and done.stdout.splitlines()[-1] == "DIFFER"


def test_suite_timing_prints_every_declared_suite():
    done = run_script("suite_timing.py", "--repeats", "1")
    assert done.returncode == 0, done.stderr
    header, *rows = done.stdout.splitlines()
    assert header.split() == ["scenario", "suite", "median", "ms"]
    printed = [tuple(row.split()[:2]) for row in rows]
    declared = [(p.stem, suite) for p in sorted((ROOT / "scenarios").glob("*.json"))
                for suite in json.loads(p.read_text())["checks"]]
    assert sorted(row for row in printed if row[0] != "total") == sorted(declared)
    assert {suite for name, suite in printed if name == "total"} == {suite for _, suite in declared} | {"all"}
    assert all(float(row.split()[2]) > 0 for row in rows)
