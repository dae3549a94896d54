"""LLM-serving study: the governor-direction claim and the figure harness.

Two end-to-end guarantees ride here:

* the llmstudy headline — race-to-idle **beats** the utilization governor
  on the straggler-wave decode grid and shows no such win on the
  even-wave prefill grid — asserted against real simulation;
* ``repro figures --quick`` is deterministic: two runs into separate
  directories produce byte-identical quick logs and summaries for every
  registered study.
"""

import pytest

from repro.errors import ExperimentError
from repro.experiments import figllm_study
from repro.experiments.figures import FIGURES, resolve_figures, run_figures
from repro.experiments.runner import SweepRunner, SweepSettings


@pytest.fixture(scope="module")
def runner(tmp_path_factory):
    return SweepRunner(
        SweepSettings(
            cache_dir=tmp_path_factory.mktemp("llm_cache"), processes=2
        )
    )


@pytest.fixture(scope="module")
def study(runner):
    return figllm_study.run(runner, quick=True)


class TestHeadlineOrdering:
    def test_race_beats_utilization_on_the_decode_grid(self, study):
        assert (
            study.edpse["race-to-idle"]["decode"]
            > study.edpse["utilization"]["decode"]
        )

    def test_race_shows_no_win_on_the_prefill_grid(self, study):
        assert (
            study.edpse["race-to-idle"]["prefill"]
            < study.edpse["utilization"]["prefill"]
        )

    def test_sleep_fractions_follow_the_wave_shape(self, study):
        assert study.slept["race-to-idle"]["decode"] > 0.1
        assert study.slept["race-to-idle"]["prefill"] < 0.1
        for governor in ("static", "utilization"):
            for grid in study.baseline:
                assert study.slept[governor][grid] == 0.0

    def test_quick_tier_drops_the_paced_governor(self, study):
        assert "deadline-paced" not in study.records
        assert study.deadlines == {}


class TestStudyApi:
    def test_unknown_grid_rejected(self):
        with pytest.raises(ExperimentError, match="unknown LLM-study grid"):
            figllm_study.grid_spec("speculate")

    def test_unknown_governor_rejected(self, runner):
        with pytest.raises(
            ExperimentError, match="unknown LLM-study governors"
        ):
            figllm_study.run(runner, governors=("static", "overclock"))

    def test_paced_requires_race(self, runner):
        with pytest.raises(ExperimentError, match="run both or neither"):
            figllm_study.run(
                runner, governors=("static", "deadline-paced")
            )

    def test_missing_record_is_a_clean_error(self, study):
        with pytest.raises(ExperimentError, match="no LLM-study record"):
            study.record("deadline-paced", "decode")

    def test_render_mentions_every_governor_run(self, study):
        rendered = study.render()
        for governor in study.edpse:
            assert governor in rendered


class TestFiguresHarness:
    def test_registry_names_match_directories(self):
        for name, job in FIGURES.items():
            assert job.name == name

    def test_unknown_figure_rejected(self):
        with pytest.raises(ExperimentError, match="unknown figure"):
            resolve_figures(("fig99_warp_drive",))

    def test_quick_tier_is_byte_stable(self, runner, tmp_path):
        """The acceptance bar: two quick runs, identical bytes."""
        names = tuple(FIGURES)
        first = run_figures(
            names=names, out_dir=tmp_path / "a", runner=runner, quick=True
        )
        second = run_figures(
            names=names, out_dir=tmp_path / "b", runner=runner, quick=True
        )
        assert set(first) == set(second) == set(names)
        for name in names:
            for filename in ("quick.txt", "quick_summary.txt"):
                a = (first[name] / filename).read_bytes()
                b = (second[name] / filename).read_bytes()
                assert a == b, f"{name}/{filename} drifted between runs"
                assert a.decode("utf-8").strip()

    def test_full_tier_writes_committed_names(self, runner, tmp_path):
        written = run_figures(
            names=("figllm_study",),
            out_dir=tmp_path,
            runner=runner,
            quick=False,
        )
        fig_dir = written["figllm_study"]
        assert (fig_dir / "log.txt").exists()
        assert (fig_dir / "summary.txt").exists()
        summary = (fig_dir / "summary.txt").read_text()
        assert "decode-grid direction" in summary
        assert "holds" in summary and "DOES NOT HOLD" not in summary
