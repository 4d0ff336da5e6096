import hashlib
import json
import warnings
from pathlib import Path

import pytest

from clmech import suites
from clmech.cli import main
from clmech.corpus import bundled_corpus, corpus_scenario
from clmech.hamiltonian import HamiltonianField
from clmech.sampling import DEFAULT_SEED
from clmech.scenario import Scenario
from clmech.suites import (
    SUITE_FUNCTIONS,
    CheckLine,
    RunContext,
    format_report,
    hamiltonian_suite,
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


class TestHamiltonianSuiteOffCorpus:
    """Every bundled Hamiltonian field has df/dq = 0, so only a momentum map
    that depends on q gives the implicit-partials line a dqd/dq to check:
    here f = m qd + l0 q."""

    RAW = {
        "schema_version": 1,
        "name": "q_dependent_momentum",
        "lagrangian": "0.5*(m*qd^2 - k*q^2) + 0.5*i*l0*q^2",
        "omega0": 1.0,
        "dim": 1,
        "params": {"m": 1.0, "k": 1.0, "l0": 0.3},
        "initial": {"q": [1.0], "qd": [0.0]},
        "integrator": {"h": 0.001, "t_start": 0.0, "t_end": 2.0},
        "checks": ["hamiltonian"],
    }

    @classmethod
    def _lines(cls):
        res = hamiltonian_suite(RunContext(Scenario.from_dict(cls.RAW)))
        return {ln.label: ln for ln in res.lines}

    def test_every_line_passes(self):
        lines = self._lines()
        assert all(ln.passed for ln in lines.values()), [ln.render() for ln in lines.values()]
        assert lines["hamiltonian.implicit-partials-fd"].value < 1e-9

    def test_wrong_dqd_dq_fails_the_fd_line(self, monkeypatch):
        values = HamiltonianField._values

        def flipped(self, *args):
            qd, f, qd_q, *rest = values(self, *args)
            return (qd, f, -qd_q, *rest)

        monkeypatch.setattr(HamiltonianField, "_values", flipped)
        lines = self._lines()
        assert not lines["hamiltonian.implicit-partials-fd"].passed
        assert lines["hamiltonian.trajectory-agreement"].passed


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

    @pytest.mark.parametrize("command", ["derive", "simulate"])
    def test_derive_and_simulate_derive_through_the_run_context(self, command, monkeypatch, capsys):
        derives = self._calls(monkeypatch, "derive_eom")
        assert main([command, str(SCENARIOS / "damped_oscillator.json")]) == 0
        assert len(derives) == 1

    def test_check_hamiltonian_builds_the_scenario_field_once(self, monkeypatch, tmp_path, capsys):
        # the scenario's field inverts the initial p, runs the phase flow and
        # gives the kappa0 sweep the values of its flows
        fields = self._calls(monkeypatch, "HamiltonianField")
        raw = corpus_scenario("damped_oscillator").to_dict()
        raw["initial"] = {"q": [1.0], "p": [0.5]}
        path = tmp_path / "p_initial.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        assert main(["check", "hamiltonian", str(path)]) == 0
        assert len(fields) == 1

    def test_derive_warning_is_a_note_of_every_suite(self, monkeypatch):
        derives = self._calls(monkeypatch, "derive_eom")
        sc = corpus_scenario("damped_oscillator_literal")
        results = run_suites(sc, sc.checks)
        assert len(derives) == 1
        assert [res.suite for res in results] == ["noether", "geometry"]
        for res in results:
            assert any("closure flow violates" in note for note in res.notes)


class TestNoWarningEscapes:
    """The array passes compute IEEE infinities and NaNs under numpy's errstate;
    none of numpy's RuntimeWarnings may reach the caller."""

    @pytest.mark.parametrize("suite", ["equivalence", "geometry"])
    @pytest.mark.parametrize("path", sorted(SCENARIOS.glob("*.json")), ids=lambda p: p.stem)
    def test_check_warns_nothing(self, suite, path, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["check", suite, str(path)]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize(
        "changes,digest",
        [
            # 1/omega0 overflows, so the maps hold NaN
            ({"omega0": 5e-324}, "e932df0458790b525f3cefd5571d7b2334ecdb065365ef8e7099e0eade5de8b4"),
            # the action, the first variations and the EL residual overflow
            ({"params": {"m": 1e308, "k": 1e308}}, "9076e517318752cd09febd074c0c3392fbaf1859b67f5bc5e402e28d0232854b"),
        ],
        ids=["tiny-omega0", "huge-m-k"],
    )
    def test_an_overflowing_variation_warns_nothing(self, changes, digest, tmp_path, capsys):
        # the report is the one written while numpy still warned, byte for byte
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps({**corpus_scenario("classical_oscillator").to_dict(), **changes}), encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["check", "variation", str(path)]) == 3
        out, err = capsys.readouterr()
        assert err == "" and hashlib.sha256(out.encode()).hexdigest() == digest
