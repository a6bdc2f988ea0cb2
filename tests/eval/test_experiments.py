"""Experiment drivers at reduced scale.

Each driver runs end to end on a small workload and its result must
land on the paper's qualitative shape (orderings, who-wins) — the
full-scale numbers are regenerated by ``benchmarks/``.
"""


from repro.eval.experiments.chokepoint import run_chokepoint_ablation
from repro.eval.experiments.easylist_replication import (
    run_easylist_replication_experiment,
)
from repro.eval.experiments.external_dataset import (
    run_external_dataset_experiment,
)
from repro.eval.experiments.facebook import run_facebook_experiment
from repro.eval.experiments.image_search import run_image_search_experiment
from repro.eval.experiments.languages import run_languages_experiment
from repro.eval.experiments.model_profile import run_model_profile_experiment
from repro.eval.experiments.render_performance import (
    run_async_ablation,
    run_render_performance_experiment,
)
from repro.eval.experiments.salience import run_salience_experiment
from repro.synth.languages import Language


class TestEasyListReplication:
    def test_shape(self, reference_classifier):
        result = run_easylist_replication_experiment(
            classifier=reference_classifier, num_sites=10,
        )
        assert result.metrics.accuracy > 0.9
        assert result.images_evaluated > 50
        assert 0.1 < result.dataset_stats.css_rate < 0.35
        assert 0.2 < result.dataset_stats.network_rate < 0.45
        assert "Figure 7" in result.to_table()


class TestExternalDataset:
    def test_high_recall_lower_precision(self, reference_classifier):
        result = run_external_dataset_experiment(
            classifier=reference_classifier, sample_size=300,
        )
        assert result.metrics.recall > 0.9
        assert result.metrics.recall > result.metrics.precision
        assert result.metrics.accuracy > 0.8


class TestFacebook:
    def test_paper_shape(self, reference_classifier):
        result = run_facebook_experiment(
            classifier=reference_classifier, days=6,
        )
        # right-column always caught; sponsored posts are the FN source
        assert result.per_kind_recall["right_column_ad"] > 0.95
        assert (result.per_kind_recall["sponsored_post"]
                < result.per_kind_recall["right_column_ad"])
        # brand pages are the FP source
        assert (result.per_kind_fp_rate["brand_post"]
                > result.per_kind_fp_rate["organic"])
        assert result.metrics.accuracy > 0.85


class TestImageSearch:
    def test_ad_intent_ordering(self, reference_classifier):
        result = run_image_search_experiment(
            classifier=reference_classifier, per_query=40,
        )
        blocked = result.blocked_by_query()
        assert blocked["Advertisement"] > blocked["Shoes"]
        assert blocked["Shoes"] > blocked["Obama"]
        assert blocked["Detergent"] > blocked["Pastry"]

    def test_adjudicated_queries_have_fp_fn(self, reference_classifier):
        result = run_image_search_experiment(
            classifier=reference_classifier, per_query=20,
        )
        by_query = {r.query: r for r in result.results}
        assert by_query["Obama"].fp is not None
        assert by_query["Shoes"].fp is None


class TestLanguages:
    def test_latin_beats_cjk(self, reference_classifier):
        result = run_languages_experiment(
            classifier=reference_classifier,
            languages=(Language.SPANISH, Language.KOREAN),
            sites_per_language=4,
        )
        accuracy = result.accuracy_by_language()
        assert accuracy[Language.SPANISH] > accuracy[Language.KOREAN]


class TestSalience:
    def test_attends_to_cue_corner(self, reference_classifier):
        result = run_salience_experiment(
            classifier=reference_classifier, samples=6,
        )
        # salience mass in the marker corner above area-proportional
        assert result.marker_mass_ratio > 1.0


class TestModelProfile:
    def test_size_claims(self):
        result = run_model_profile_experiment(latency_repeats=1)
        assert result.percival_mb < 2.0
        assert result.squeezenet_mb > result.percival_mb * 2
        assert result.sentinel_reduction > 50
        assert result.full_size_latency_ms > 0
        assert result.layer_by_layer_latency_ms > 0


class TestRenderPerformance:
    def test_overhead_shape(self, reference_classifier):
        result = run_render_performance_experiment(
            classifier=reference_classifier, num_pages=12,
        )
        chromium_ms, chromium_pct = result.overhead(
            "chromium", "chromium+percival"
        )
        brave_ms, brave_pct = result.overhead("brave", "brave+percival")
        assert chromium_ms > 0
        assert brave_pct > chromium_pct  # the Figure 15 asymmetry
        assert (result.series["brave"].median_ms
                < result.series["chromium"].median_ms)
        assert result.plan_latency_ms > 0

    def test_cdf_monotone(self, reference_classifier):
        result = run_render_performance_experiment(
            classifier=reference_classifier, num_pages=8,
        )
        cdf = result.series["chromium"].cdf(points=10)
        times = [t for t, _ in cdf]
        fractions = [f for _, f in cdf]
        assert times == sorted(times)
        assert fractions == sorted(fractions)


class TestAsyncAblation:
    def test_async_cheaper_than_sync(self, reference_classifier):
        result = run_async_ablation(
            classifier=reference_classifier, num_pages=8,
        )
        sync_overhead = result.sync_median_ms - result.baseline_median_ms
        async_overhead = (
            result.async_median_ms - result.baseline_median_ms
        )
        assert async_overhead < sync_overhead
        assert result.memo_hits > 0  # second pass hits the memo


class TestChokepoint:
    def test_pipeline_sees_everything(self):
        result = run_chokepoint_ablation(num_sites=8)
        assert result.pipeline_coverage == 1.0
        assert result.extension_coverage < result.pipeline_coverage
