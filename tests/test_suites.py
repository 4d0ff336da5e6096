from pathlib import Path

import pytest

from clmech import suites
from clmech.cli import main
from clmech.corpus import bundled_corpus, corpus_scenario
from clmech.sampling import DEFAULT_SEED
from clmech.suites import (
    SUITE_FUNCTIONS,
    CheckLine,
    RunContext,
    format_report,
    run_suites,
    variation_suite,
    equivalence_suite,
    noether_suite,
)


class TestCheckLine:
    def test_upper_bound(self):
        assert CheckLine("x", "le", 1e-12, hi=1e-10).passed
        assert not CheckLine("x", "le", 1e-9, hi=1e-10).passed

    def test_lower_bound(self):
        assert CheckLine("x", "ge", 0.5, lo=0.1).passed
        assert not CheckLine("x", "ge", 0.05, lo=0.1).passed

    def test_range(self):
        assert CheckLine("x", "range", 2.0, lo=1.9, hi=2.1).passed
        assert not CheckLine("x", "range", 2.2, lo=1.9, hi=2.1).passed

    def test_report_always_passes(self):
        assert CheckLine("x", "report", 1e9).passed

    def test_render_tags(self):
        assert CheckLine("x", "report", 1.0).render().startswith("[INFO]")
        assert CheckLine("x", "le", 0.0, hi=1.0).render().startswith("[PASS]")
        assert CheckLine("x", "ge", 0.0, lo=1.0).render().startswith("[FAIL]")


class TestCorpusSuites:
    @pytest.mark.parametrize("sc", bundled_corpus(), ids=lambda s: s.name)
    def test_declared_suites_pass(self, sc):
        for res in run_suites(sc, sc.checks):
            failing = [ln.render() for ln in res.lines if not ln.passed]
            assert res.passed, f"{res.suite}: {failing}"

    def test_every_suite_name_is_runnable(self):
        assert set(SUITE_FUNCTIONS) == {
            "variation",
            "noether",
            "equivalence",
            "geometry",
            "hamiltonian",
        }


class TestSuiteBehaviors:
    def test_variation_floor_branch_for_tuned_imaginary(self):
        res = variation_suite(RunContext(corpus_scenario("inverted_oscillator")))
        labels = [ln.label for ln in res.lines]
        assert "variation.solution-stationary-floor" in labels
        assert "variation.control-at-floor" in labels
        assert "variation.solution-slope-mode-1" not in labels

    def test_variation_slope_branch_for_damped(self):
        res = variation_suite(RunContext(corpus_scenario("damped_oscillator")))
        labels = [ln.label for ln in res.lines]
        assert "variation.solution-slope-mode-1" in labels
        assert "variation.control-slope-mode-1" in labels

    def test_equivalence_bonus_pair_when_declared(self):
        res = equivalence_suite(RunContext(corpus_scenario("imaginary_ho")))
        assert any(ln.label == "equivalence.oscillator-pair" for ln in res.lines)

    def test_equivalence_pair_absent_otherwise(self):
        res = equivalence_suite(RunContext(corpus_scenario("gauge_pair_oscillator")))
        assert not any(ln.label == "equivalence.oscillator-pair" for ln in res.lines)

    def test_noether_branches(self):
        conserved = noether_suite(RunContext(corpus_scenario("free_particle")))
        assert any(ln.label == "noether.conserved-drift" for ln in conserved.lines)
        drifting = noether_suite(RunContext(corpus_scenario("classical_oscillator")))
        assert any(ln.label == "noether.nonconserved-drift" for ln in drifting.lines)

    def test_closure_warning_surfaces_in_notes(self):
        res = noether_suite(RunContext(corpus_scenario("damped_oscillator_literal")))
        assert any("closure flow violates" in note for note in res.notes)


class TestReport:
    def test_trailer_and_seed(self):
        sc = corpus_scenario("free_particle")
        text = format_report(run_suites(sc, ("noether",)), DEFAULT_SEED)
        lines = text.splitlines()
        assert lines[1] == f"# seed: {DEFAULT_SEED:#x}"
        assert lines[-1].startswith("RESULT pass max_residual=")
        assert text.endswith("\n")

    def test_max_residual_tracks_upper_bound_lines(self):
        sc = corpus_scenario("classical_oscillator")
        results = run_suites(sc, ("geometry",))
        text = format_report(results, DEFAULT_SEED)
        worst = max(r.max_residual for r in results)
        assert f"max_residual={worst:.17g}" in text.splitlines()[-1]

    def test_failed_line_fails_the_report(self):
        bad = corpus_scenario("classical_oscillator")
        # shrink the horizon so the drift detector cannot fire
        from clmech.scenario import Scenario

        raw = bad.to_dict()
        raw["integrator"] = {"h": 1e-4, "t_start": 0.0, "t_end": 1e-3}
        res = run_suites(Scenario.from_dict(raw), ("noether",))
        assert not res[0].passed
        assert "RESULT fail" in format_report(res, DEFAULT_SEED)


SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


class TestRunContext:
    @staticmethod
    def _calls(monkeypatch, name: str) -> list:
        """Record the arguments of each call to clmech.suites.<name>."""
        calls = []
        original = getattr(suites, name)

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(suites, name, counted)
        return calls

    def test_check_all_derives_once_and_shares_one_grid(self, monkeypatch, capsys):
        derives = self._calls(monkeypatch, "derive_eom")
        integrations = self._calls(monkeypatch, "integrate")
        assert main(["check", "all", str(SCENARIOS / "damped_oscillator.json")]) == 0
        assert len(derives) == 1
        # variation, noether and hamiltonian all run on the 10 000-step grid
        assert [cfg.n_steps for _, _, cfg in integrations] == [10_000]
        out = capsys.readouterr().out
        for suite in ("variation", "noether", "geometry", "hamiltonian"):
            assert f"## suite {suite} on scenario damped_oscillator" in out

    def test_each_distinct_grid_is_integrated_once(self, monkeypatch, capsys):
        integrations = self._calls(monkeypatch, "integrate")
        assert main(["check", "all", str(SCENARIOS / "imaginary_ho.json")]) == 0
        # 6 283 steps is odd, so Simpson's variation suite takes 6 284
        assert sorted(cfg.n_steps for _, _, cfg in integrations) == [6283, 6284]

    def test_derive_warning_is_a_note_of_every_suite(self, monkeypatch):
        derives = self._calls(monkeypatch, "derive_eom")
        sc = corpus_scenario("damped_oscillator_literal")
        results = run_suites(sc, sc.checks)
        assert len(derives) == 1
        assert [res.suite for res in results] == ["noether", "geometry"]
        for res in results:
            assert any("closure flow violates" in note for note in res.notes)
