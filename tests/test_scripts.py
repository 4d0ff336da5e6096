"""The scripts under scripts/ run, and the bundled scenario files match the corpus."""

import importlib.util
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
