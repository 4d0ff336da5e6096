"""Each oracle accepts clmech's genuine output and rejects a corrupted copy."""

import contextlib
import io
import re
import warnings
from pathlib import Path

import pytest

import gen
import oracle

ROOT = Path(__file__).resolve().parents[2]


def _cli(argv):
    from clmech import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rc = cli.main(argv)
    return rc, out.getvalue()


# dims 1, 1, 2, 2, 3, 3, 4, 4; 5, 53, 71 and 95 are degenerate
@pytest.mark.parametrize("index", [0, 5, 53, 60, 71, 76, 88, 95])
def test_derive_oracle(tmp_path, index):
    spec = gen.derive_spec(11, index)
    rc, report = _cli(["derive", str(spec.write(tmp_path))])
    assert rc == 0
    assert oracle.check_derive(spec, report) == []

    flipped = "regular" if spec.classification == "degenerate" else "degenerate"
    bad_class = report.replace(f"classification: {spec.classification}", f"classification: {flipped}")
    assert oracle.check_derive(spec, bad_class)

    # scale the first momentum map by a factor close to one
    bad_map = re.sub(r"^(momentum\[0\]: )(.*)$", r"\1(1.000001 * \2)", report, flags=re.M)
    assert bad_map != report
    assert any("momentum[0]" in e for e in oracle.check_derive(spec, bad_map))

    assert oracle.check_derive(spec, report.replace("mass[0][0]", "mass[0][9]"))


# the first scenario of each category: the others differ only in numbers
FIRST_OF_EACH_CATEGORY = sorted({c: i for i, (c, _) in reversed(list(enumerate(gen.SIMULATE_ROUND)))}.values())


@pytest.mark.parametrize("index", FIRST_OF_EACH_CATEGORY)
def test_simulate_oracle(tmp_path, index):
    spec = gen.simulate_spec(11, index, steps_scale=0.2)
    path = spec.write(tmp_path)
    csv = tmp_path / "out.csv"
    rc, _ = _cli(["simulate", str(path), "-o", str(csv)])
    assert rc == 0
    last = csv.read_text().rstrip().rsplit("\n", 1)[1]
    assert oracle.check_final_row(spec, last) == []

    values = last.split(",")
    values[1] = repr(float(values[1]) + 1e-4)  # move the final q_1
    assert oracle.check_final_row(spec, ",".join(values))
    assert oracle.check_final_row(spec, ",".join(values[:-2]))


def test_corpus_oracle():
    rc, report = _cli(["check", "all", str(ROOT / "scenarios" / "gauge_pair_imaginary.json")])
    assert rc == 0
    assert oracle.check_corpus_report("gauge_pair_imaginary", report) == []

    first_pass = report.index("[PASS]")
    failed_line = report[:first_pass] + "[FAIL]" + report[first_pass + 6 :]
    assert oracle.check_corpus_report("gauge_pair_imaginary", failed_line)
    assert oracle.check_corpus_report("gauge_pair_imaginary", report.replace("RESULT pass", "RESULT fail"))
    assert oracle.check_corpus_report("gauge_pair_imaginary", report.replace("## suite geometry", "## suite noether"))


def test_corpus_expectation_covers_the_bundled_scenarios():
    names = {p.stem for p in (ROOT / "scenarios").glob("*.json")}
    expected = oracle.expected_corpus()
    assert set(expected) == names
    assert sum(len(e["suites"]) for e in expected.values()) == 25
    assert all(e["result"] == "pass" for e in expected.values())


def test_oracle_never_imports_clmech():
    for name in ("oracle.py", "gen.py"):
        source = (ROOT / "perfbench" / name).read_text()
        assert not re.search(r"^\s*(import|from)\s+clmech", source, re.M), name
