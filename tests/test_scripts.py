"""The scripts under scripts/ run, and the bundled scenario files match the corpus."""

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


def test_step_sources_prints_a_digest_per_state_kind():
    done = run_script("step_sources.py", "--seeds")  # the corpus's steps only
    assert done.returncode == 0, done.stderr
    rows = [line.split() for line in done.stdout.splitlines()]
    assert [row[0] for row in rows] == ["float", "list"]
    assert int(rows[0][1]) > 0 and all(re.fullmatch("[0-9a-f]{64}", row[2]) for row in rows)


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
