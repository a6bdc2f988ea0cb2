"""CascadeRouter semantics: tier order, trust model, and the cascade
tier's resolution (:func:`repro.serve.tiers.resolve_tiers`)."""

import pytest

from repro.cascade import CascadeAudit, CascadeHit, CascadeRouter, FrameProvenance
from repro.cascade.router import TIER_LIST, TIER_MICRO
from repro.core.blocker import BlockDecision
from repro.core.config import PercivalConfig
from repro.filterlist.engine import FilterEngine
from repro.serve.tiers import resolve_tiers

AD_URL = "https://ads.example/banner/x.png"
CONTENT_URL = "https://cdn.pub.example/img/cat.jpg"


@pytest.fixture()
def engine():
    return FilterEngine.from_text("\n".join([
        "||ads.example^$third-party",
        "##.ad-box",
    ]))


@pytest.fixture()
def router(engine):
    return CascadeRouter(engine, confidence=0.9)


def _prov(url=CONTENT_URL, page_domain="pub.example", **kwargs):
    return FrameProvenance(url=url, page_domain=page_domain, **kwargs)


def _confident(is_ad, probability=None):
    if probability is None:
        probability = 0.99 if is_ad else 0.01
    return BlockDecision(is_ad=is_ad, probability=probability,
                         from_cache=False)


class TestRouteTiers:
    def test_no_provenance_is_a_pass_through(self, router):
        assert router.route(None) is None
        assert router.stats.routed == 0

    def test_unknown_frame_misses(self, router):
        assert router.route(_prov()) is None
        assert router.stats.misses == 1

    def test_absorbed_verdict_compiles_and_then_serves(self, router):
        prov = _prov()
        router.absorb(prov, _confident(False))
        hit = router.route(prov)
        assert isinstance(hit, CascadeHit)
        assert hit.tier == TIER_MICRO
        assert hit.decision.is_ad is False
        assert hit.decision.from_cache  # no fresh classification
        assert router.stats.micro_hits == 1

    def test_micro_tier_wins_over_filterlist(self, router):
        prov = _prov(url=AD_URL)  # matches ||ads.example^
        router.absorb(prov, _confident(True))
        hit = router.route(prov)
        assert isinstance(hit, CascadeHit)
        assert hit.tier == TIER_MICRO

    def test_list_rule_audits_until_corroborated(self, router):
        prov = _prov(url=AD_URL)
        # first two predictions are audits (corroboration warmup)
        for _ in range(2):
            outcome = router.route(prov)
            assert isinstance(outcome, CascadeAudit)
            assert outcome.tier == TIER_LIST
            assert outcome.predicted is True
            router.reconcile(outcome, model_is_ad=True)
        # promoted: now serves directly
        hit = router.route(prov)
        assert isinstance(hit, CascadeHit)
        assert hit.tier == TIER_LIST
        assert hit.decision.is_ad is True
        assert router.stats.list_hits == 1

    def test_element_hiding_rules_reach_the_list_tier(self, router):
        prov = _prov(css_classes=("ad-box",))
        outcome = router.route(prov)
        assert isinstance(outcome, CascadeAudit)
        assert outcome.tier == TIER_LIST

    def test_router_without_engine_skips_list_tier(self):
        router = CascadeRouter(None)
        assert router.route(_prov(url=AD_URL)) is None


class TestHealing:
    def test_disagreements_invalidate_and_reroute_to_cnn(self, router):
        prov = _prov(url=AD_URL)
        for _ in range(2):
            audit = router.route(prov)
            router.reconcile(audit, model_is_ad=False)  # model disagrees
        assert router.stats.invalidations == 1
        # the frame now goes back to the CNN — not served, not audited
        assert router.route(prov) is None

    def test_invalidation_is_permanent_no_recompile(self, router):
        prov = _prov()
        router.absorb(prov, _confident(False))
        rule = router.cache.get(prov.micro_key())
        # two shadow disagreements via absorb-time comparison
        router.absorb(prov, _confident(True))
        router.absorb(prov, _confident(True))
        assert rule.invalidated
        # the very verdicts that healed it must not resurrect it
        router.absorb(prov, _confident(True))
        refreshed = router.cache.get(prov.micro_key())
        assert refreshed is rule and refreshed.invalidated
        assert router.route(prov) is None

    def test_serving_rule_audited_every_interval(self, engine):
        router = CascadeRouter(engine, audit_interval=4)
        prov = _prov()
        router.absorb(prov, _confident(False))
        outcomes = [router.route(prov) for _ in range(8)]
        audits = [o for o in outcomes if isinstance(o, CascadeAudit)]
        hits = [o for o in outcomes if isinstance(o, CascadeHit)]
        assert len(audits) == 2  # hits 4 and 8
        assert len(hits) == 6
        assert router.stats.audits == 2

    def test_agreements_never_erase_disagreements(self, router):
        prov = _prov(url=AD_URL)
        audit = router.route(prov)
        router.reconcile(audit, model_is_ad=False)  # one strike
        for _ in range(5):
            audit = router.route(prov)
            router.reconcile(audit, model_is_ad=True)
        rule = router.cache.get(audit.rule_key)
        assert rule.disagreements == 1
        assert not rule.serving  # promotion requires a clean record
        audit = router.route(prov)
        router.reconcile(audit, model_is_ad=False)  # second strike: out
        assert rule.invalidated


class TestAbsorb:
    def test_unconfident_verdicts_do_not_compile(self, router):
        prov = _prov()
        router.absorb(prov, _confident(True, probability=0.6))
        assert router.stats.unconfident == 1
        assert router.cache.size == 0
        assert router.route(prov) is None

    def test_confidence_is_symmetric_around_half(self, router):
        router.absorb(_prov(), _confident(False, probability=0.05))
        assert router.stats.compiled == 1

    def test_absorb_without_decision_is_a_no_op(self, router):
        router.absorb(_prov(), None)
        router.absorb(None, _confident(True))
        assert router.cache.size == 0

    def test_confidence_threshold_validated(self, engine):
        with pytest.raises(ValueError):
            CascadeRouter(engine, confidence=0.5)
        with pytest.raises(ValueError):
            CascadeRouter(engine, confidence=1.5)

    def test_sourceless_provenance_never_reaches_micro_key(self, router):
        """A provenance without a derivable source (no URL host) must
        be rejected before key derivation — not compiled under the
        degenerate ``page|?|shape`` key, not shadow-compared."""
        for url in ("", "not a url", "/relative/path.png"):
            router.absorb(_prov(url=url), _confident(True))
        assert router.cache.size == 0
        assert router.stats.compiled == 0
        # rejected before the confidence check, too
        assert router.stats.unconfident == 0


class TestInvalidationStats:
    def test_audit_invalidations_counted_separately(self):
        router = CascadeRouter(None, audit_interval=1, invalidate_after=2)
        prov = _prov()
        router.absorb(prov, _confident(False))
        for _ in range(2):
            audit = router.route(prov)
            assert isinstance(audit, CascadeAudit)
            router.reconcile(audit, model_is_ad=True)  # drift
        assert router.stats.audit_invalidations == 1
        assert router.stats.shadow_invalidations == 0
        assert router.stats.invalidations == 1

    def test_shadow_invalidations_counted_separately(self, router):
        prov = _prov()
        router.absorb(prov, _confident(False))
        router.absorb(prov, _confident(True))
        router.absorb(prov, _confident(True))
        assert router.stats.shadow_invalidations == 1
        assert router.stats.audit_invalidations == 0
        assert router.stats.invalidations == 1


def resolve_cascade(cascade, config):
    """The cascade tier a front resolves for ``cascade=``."""
    return resolve_tiers(config, cascade=cascade).cascade


class TestResolveCascade:
    def test_false_pins_off_even_when_env_says_on(self, monkeypatch):
        monkeypatch.setenv("PERCIVAL_CASCADE", "on")
        assert resolve_cascade(False, PercivalConfig()) is None

    def test_router_instance_used_as_is(self, router):
        assert resolve_cascade(router, PercivalConfig()) is router

    def test_none_defers_to_env_off(self, monkeypatch):
        monkeypatch.delenv("PERCIVAL_CASCADE", raising=False)
        assert resolve_cascade(None, PercivalConfig()) is None
        monkeypatch.setenv("PERCIVAL_CASCADE", "off")
        assert resolve_cascade(None, PercivalConfig()) is None

    def test_none_defers_to_env_on(self, monkeypatch):
        monkeypatch.setenv("PERCIVAL_CASCADE", "1")
        resolved = resolve_cascade(None, PercivalConfig())
        assert isinstance(resolved, CascadeRouter)
        assert resolved.filter_engine is not None

    def test_config_beats_env(self, monkeypatch):
        monkeypatch.setenv("PERCIVAL_CASCADE", "off")
        config = PercivalConfig(cascade_enabled=True, cascade_confidence=0.8)
        resolved = resolve_cascade(None, config)
        assert isinstance(resolved, CascadeRouter)
        assert resolved.confidence == 0.8

    def test_garbage_env_value_raises(self, monkeypatch):
        monkeypatch.setenv("PERCIVAL_CASCADE", "maybe")
        with pytest.raises(ValueError):
            resolve_cascade(None, PercivalConfig())

    def test_wrong_type_raises(self):
        with pytest.raises(TypeError):
            resolve_cascade(True, PercivalConfig())
        with pytest.raises(TypeError):
            resolve_cascade("on", PercivalConfig())
