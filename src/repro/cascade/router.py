"""The confidence router: rule tiers in front of the CNN.

:meth:`CascadeRouter.route` is called once per request, before the
blocker's memo.  Three outcomes:

* :class:`CascadeHit` — a serving rule decided the frame; the request
  is answered immediately and never consumes a batch slot, a queue
  entry, or lane time;
* :class:`CascadeAudit` — a rule *predicted* the frame but this
  prediction must be verified (corroboration warmup, or the sampled
  audit cadence); the request proceeds down the normal memo/queue path
  and the eventual model verdict is fed back via :meth:`reconcile`;
* ``None`` — no rule speaks for the frame; normal path, and if the
  model's verdict comes back *confident*, :meth:`absorb` compiles it
  into a micro-rule so the next frame from the same source hits.

The router never mutates the blocker: rule-hit decisions are built
here (``from_cache=True`` — no fresh classification happened), the
memo only ever holds model-computed probabilities, and turning the
cascade off reproduces the pre-cascade pipeline bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.cascade.healer import RuleHealer
from repro.cascade.provenance import FrameProvenance
from repro.cascade.rules import CascadeRule, CompiledRuleCache
from repro.core.blocker import BlockDecision
from repro.filterlist.engine import FilterEngine

#: tier names, as reported on results/stats
TIER_LIST = "list"
TIER_MICRO = "micro"


@dataclass(frozen=True)
class CascadeHit:
    """A rule answered the request; no CNN, no queue."""

    decision: BlockDecision
    tier: str
    rule_key: str


@dataclass(frozen=True)
class CascadeAudit:
    """A rule predicted the request; the model must weigh in.

    Carried on the request through the memo/queue tiers; whoever
    produces the model verdict (memo hit or batch flush) hands it back
    to :meth:`CascadeRouter.reconcile` together with this ticket.
    """

    rule_key: str
    predicted: bool
    tier: str


@dataclass
class CascadeStats:
    """Router-side accounting, folded into ``ServeStats.to_table``."""

    #: route() calls that carried provenance
    routed: int = 0
    #: requests answered by a compiled micro-rule
    micro_hits: int = 0
    #: requests answered by a corroborated filterlist rule
    list_hits: int = 0
    #: rule predictions sent to the model for verification
    audits: int = 0
    #: requests no rule spoke for
    misses: int = 0
    #: micro-rules compiled from confident model verdicts
    compiled: int = 0
    #: rules invalidated while reconciling an explicit audit ticket —
    #: the sampled verification cadence caught the drift
    audit_invalidations: int = 0
    #: rules invalidated by a shadow comparison in :meth:`absorb` — a
    #: model verdict computed for other reasons disagreed with the
    #: serving rule between audits
    shadow_invalidations: int = 0
    #: confident model verdicts folded back into the cache
    absorbed: int = 0
    #: model verdicts too uncertain to compile
    unconfident: int = 0

    @property
    def rule_hits(self) -> int:
        return self.micro_hits + self.list_hits

    @property
    def invalidations(self) -> int:
        """Total rules invalidated by the healer, either source."""
        return self.audit_invalidations + self.shadow_invalidations


class CascadeRouter:
    """Filterlist-first confidence router with a self-healing cache."""

    def __init__(
        self,
        filter_engine: Optional[FilterEngine] = None,
        confidence: float = 0.9,
        cache: Optional[CompiledRuleCache] = None,
        audit_interval: int = 16,
        corroboration: int = 2,
        invalidate_after: int = 2,
    ) -> None:
        if not 0.5 < confidence <= 1.0:
            raise ValueError(
                f"cascade confidence must be in (0.5, 1.0], got {confidence}"
            )
        self.filter_engine = filter_engine
        self.confidence = confidence
        self.cache = cache if cache is not None else CompiledRuleCache()
        self.healer = RuleHealer(
            self.cache,
            audit_interval=audit_interval,
            corroboration=corroboration,
            invalidate_after=invalidate_after,
        )
        self.stats = CascadeStats()

    @classmethod
    def with_default_filterlist(
        cls, confidence: float = 0.9, **kwargs
    ) -> "CascadeRouter":
        """Router over the default synthetic EasyList engine."""
        # leaf import: keep the filterlist out of serve's import graph
        # until a cascade is actually constructed
        from repro.filterlist.easylist import default_easylist

        return cls(default_easylist(), confidence=confidence, **kwargs)

    # ------------------------------------------------------------------
    # The three router verbs
    # ------------------------------------------------------------------
    def route(
        self, provenance: Optional[FrameProvenance]
    ) -> "CascadeHit | CascadeAudit | None":
        """Try to decide a frame from its provenance alone."""
        if provenance is None:
            return None
        self.stats.routed += 1

        # tier 0a: compiled micro-rules (model-corroborated, serving)
        rule = self.cache.get(provenance.micro_key())
        if rule is not None and rule.serving:
            if self.healer.should_audit(rule):
                self.stats.audits += 1
                return CascadeAudit(rule.key, rule.verdict, TIER_MICRO)
            self.stats.micro_hits += 1
            return CascadeHit(self._decision(rule), TIER_MICRO, rule.key)

        # tier 0b: filterlist network/hiding rules on the provenance
        list_rule = self._filterlist_match(provenance)
        if list_rule is not None and not list_rule.invalidated:
            if list_rule.serving:
                if self.healer.should_audit(list_rule):
                    self.stats.audits += 1
                    return CascadeAudit(
                        list_rule.key, list_rule.verdict, TIER_LIST
                    )
                self.stats.list_hits += 1
                return CascadeHit(
                    self._decision(list_rule), TIER_LIST, list_rule.key
                )
            # corroboration warmup: predict, but let the model answer
            self.stats.audits += 1
            return CascadeAudit(list_rule.key, list_rule.verdict, TIER_LIST)

        self.stats.misses += 1
        return None

    def reconcile(self, audit: CascadeAudit, model_is_ad: bool) -> None:
        """Feed a model verdict back to the audited rule's health."""
        rule = self.cache.get(audit.rule_key)
        if rule is None:
            return
        before = self.cache.invalidated_count
        self.healer.observe(rule, bool(model_is_ad) == audit.predicted)
        self.stats.audit_invalidations += (
            self.cache.invalidated_count - before
        )

    def absorb(
        self,
        provenance: Optional[FrameProvenance],
        decision: Optional[BlockDecision],
    ) -> None:
        """Fold a model-derived verdict back into the micro-rule cache.

        Confident verdicts compile new micro-rules; for sources that
        already hold a rule, the verdict is a free shadow comparison —
        drift surfaces here even between audits.
        """
        if provenance is None or decision is None:
            return
        # validate the source before deriving a key from it: a
        # sourceless provenance must never reach micro_key()
        if not provenance.source:
            return
        key = provenance.micro_key()
        existing = self.cache.get(key)
        if existing is not None:
            before = self.cache.invalidated_count
            self.healer.observe(existing, existing.verdict == decision.is_ad)
            self.stats.shadow_invalidations += (
                self.cache.invalidated_count - before
            )
            return
        confidence = max(decision.probability, 1.0 - decision.probability)
        if confidence < self.confidence:
            self.stats.unconfident += 1
            return
        compiled = self.cache.compile_rule(
            key, decision.is_ad, decision.probability
        )
        if compiled is not None:
            self.stats.compiled += 1
            self.stats.absorbed += 1

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    @staticmethod
    def _decision(rule: CascadeRule) -> BlockDecision:
        # from_cache=True: no fresh classification was performed
        return BlockDecision(
            is_ad=rule.verdict,
            probability=rule.probability,
            from_cache=True,
        )

    def _filterlist_match(
        self, provenance: FrameProvenance
    ) -> Optional[CascadeRule]:
        """Health entry for the first filterlist rule matching the
        frame's provenance, or ``None``.  Matches always predict "ad"
        (a blocking/hiding rule fired); exceptions fall through."""
        engine = self.filter_engine
        if engine is None:
            return None
        if provenance.url:
            decision = engine.check_request(
                provenance.url, provenance.page_domain, "image"
            )
            if decision.blocked and decision.rule is not None:
                key = (
                    f"list|{provenance.page_domain}|net:{decision.rule.raw}"
                )
                return self.cache.ensure_list_rule(key, True, 1.0)
        if provenance.tag or provenance.css_classes or provenance.element_id:
            hide = engine.should_hide_element(
                provenance.tag,
                provenance.css_classes,
                provenance.element_id,
                provenance.page_domain,
            )
            if hide is not None:
                key = f"list|{provenance.page_domain}|hide:{hide.raw}"
                return self.cache.ensure_list_rule(key, True, 1.0)
        return None
