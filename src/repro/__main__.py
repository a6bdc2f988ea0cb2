"""Command-line interface: ``python -m repro <command>``.

Commands:

``train``      train (or load) the reference model and print its stats
``classify``   classify sample creatives/content with the model
``render``     render synthetic pages with PERCIVAL in the loop
``serve-sim``  replay multi-session traffic through the serving layer
``crawl``      run the crawl/retrain flywheel
``experiments``  run every experiment driver and print its table
"""

from __future__ import annotations

import argparse
import sys


def _cmd_train(args: argparse.Namespace) -> int:
    from repro.core import get_reference_classifier

    classifier = get_reference_classifier(verbose=True)
    print(f"model size: {classifier.model_size_mb:.3f} MB")
    print(f"latency:    {classifier.measured_latency_ms():.2f} ms/image")
    return 0


def _resolved_config(args: argparse.Namespace):
    """The config for a subcommand: its ``--precision``, ``--cascade``
    and ``--diff`` flags set the matching :class:`PercivalConfig`
    fields, which beat the environment; an unset flag leaves its field
    ``None`` (the ``PERCIVAL_*`` knob decides)."""
    from repro.core import PercivalConfig

    def on(flag):
        return None if flag is None else flag == "on"

    return PercivalConfig(
        precision=getattr(args, "precision", None),
        cascade_enabled=on(getattr(args, "cascade", None)),
        diff_enabled=on(getattr(args, "diff", None)),
    )


def _resolved_chaos(args: argparse.Namespace):
    """``--chaos`` flag -> ServeLoop-style ``chaos=`` argument: a
    seeded :class:`ChaosSchedule` when a seed was given, ``False`` when
    ``off``, ``None`` (``PERCIVAL_CHAOS`` environment knob) when the
    flag was not given."""
    from repro.resilience import ChaosSchedule

    flag = getattr(args, "chaos", None)
    if flag is None:
        return None
    if flag == "off":
        return False
    return ChaosSchedule.seeded(int(flag))


def _print_resilience(plane) -> None:
    """CLI summary of a run's resilience plane: breaker/ladder state
    plus every ladder transition with its reason."""
    if plane is None:
        return
    print(f"resilience: {plane.describe()}")
    controller = plane.controller
    for t in controller.transitions:
        print(f"  ladder {t.direction}: {t.from_level} -> {t.to_level}"
              f" at {t.at_ms:.1f}ms ({t.reason})")
    dwell = ", ".join(
        f"{name}={ms:.1f}ms"
        for name, ms in controller.dwell_ms.items()
        if ms > 0.0
    )
    if dwell:
        print(f"  brownout dwell: {dwell}")


def _cmd_classify(args: argparse.Namespace) -> int:
    from repro.cascade import CascadeHit, FrameProvenance
    from repro.core import PercivalBlocker, get_reference_classifier
    from repro.serve import resolve_tiers
    from repro.synth.adgen import AdSpec, generate_ad
    from repro.synth.contentgen import generate_content
    from repro.synth.webgen import AD_NETWORKS
    from repro.utils.rng import spawn_rng

    classifier = get_reference_classifier(_resolved_config(args))
    print(f"precision: {classifier.effective_precision}")
    blocker = PercivalBlocker(classifier)
    router = resolve_tiers(
        classifier.config, differ=False, chaos=False, resilience=False
    ).cascade
    rng = spawn_rng(args.seed, "cli-classify")
    for index in range(args.count):
        if index % 2 == 0:
            bitmap = generate_ad(rng, AdSpec())
            truth = "ad"
            network = AD_NETWORKS[index % len(AD_NETWORKS)]
            url = (f"https://{network.domain}{network.path_prefix}"
                   f"/c{index:05d}.png")
        else:
            bitmap = generate_content(rng)
            truth = "content"
            url = f"https://cdn.demo.example/img/{index:05d}.jpg"
        tier = "cnn"
        audit = None
        decision = None
        if router is not None:
            provenance = FrameProvenance(
                url=url,
                page_domain="demo.example",
                width=int(bitmap.shape[1]),
                height=int(bitmap.shape[0]),
            )
            routed = router.route(provenance)
            if isinstance(routed, CascadeHit):
                decision = routed.decision
                tier = f"rule:{routed.tier}"
            else:
                audit = routed
        if decision is None:
            decision = blocker.decide(bitmap)
            if router is not None:
                if audit is not None:
                    router.reconcile(audit, decision.is_ad)
                else:
                    router.absorb(provenance, decision)
        verdict = "BLOCK" if decision.is_ad else "render"
        print(f"[{truth:7s}] P(ad)={decision.probability:.3f} -> "
              f"{verdict} ({tier})")
    if router is not None:
        stats = router.stats
        print(
            f"cascade: {stats.rule_hits} rule hits "
            f"({stats.micro_hits} micro / {stats.list_hits} list), "
            f"{stats.audits} audits, {stats.compiled} compiled, "
            f"{stats.invalidations} invalidated, {stats.misses} misses"
        )
    return 0


def _cmd_render(args: argparse.Namespace) -> int:
    from repro import BRAVE, CHROMIUM, PercivalBlocker, Renderer
    from repro import SyntheticWeb, WebConfig, get_reference_classifier
    from repro.browser.network import MockNetwork
    from repro.synth.webgen import url_registry

    web = SyntheticWeb(WebConfig(seed=args.seed, num_sites=args.pages))
    pages = [web.build_page(s) for s in web.top_sites(args.pages)]
    renderer = Renderer(
        BRAVE if args.brave else CHROMIUM,
        MockNetwork(url_registry(pages)),
    )
    blocker = PercivalBlocker(
        get_reference_classifier(_resolved_config(args)),
        calibrated_latency_ms=11.0,
    )
    for page in pages:
        metrics = renderer.render(page, percival=blocker, mode=args.mode)
        print(f"{page.url}: {metrics.render_time_ms:.0f} ms, "
              f"blocked {metrics.images_blocked_by_percival} by CNN, "
              f"{metrics.images_blocked_by_list} by lists")
    return 0


def _cmd_serve_sim(args: argparse.Namespace) -> int:
    """Deterministic serving simulation: multi-session traffic through
    the micro-batching layer (or, with ``--fleet``, a full diurnal-day
    replay under the SLO autoscaler), with the latency report."""
    from repro.core import (
        PercivalBlocker,
        ServeSettings,
        get_reference_classifier,
        get_worker_pool,
        shutdown_worker_pool,
    )
    from repro.serve import (
        FleetSimulator,
        FleetSpec,
        ServeLoop,
        SLOPolicy,
        TrafficSpec,
        synthesize_traffic,
    )

    classifier = get_reference_classifier(_resolved_config(args))
    chaos = _resolved_chaos(args)
    # flags set fields over the ServeSettings defaults
    flags = {
        field: getattr(args, field)
        for field in ("max_batch", "max_wait_ms", "max_depth", "lanes",
                      "aging_ms")
    }
    settings = ServeSettings(**{
        field: value for field, value in flags.items() if value is not None
    })
    pool = get_worker_pool(classifier, num_workers=args.workers)
    blocker = PercivalBlocker(
        classifier,
        calibrated_latency_ms=11.0,
        pool=pool,
        # flushes are capped at max_batch, so the shard threshold must
        # fit under it or an attached pool would never see a batch
        shard_min_batch=min(
            classifier.config.shard_min_batch, settings.max_batch
        ),
    )
    try:
        if args.fleet:
            simulator = FleetSimulator(
                blocker,
                settings,
                policy=SLOPolicy(p99_target_ms=args.p99_target_ms),
                chaos=chaos,
            )
            if simulator.chaos is not None:
                print(simulator.chaos.describe())
            fleet_report = simulator.run(FleetSpec(
                epochs=args.epochs,
                base_sessions=max(args.sessions // 4, 1),
                peak_sessions=args.sessions,
                frames_per_session=args.frames,
                seed=args.seed,
            ))
            print(fleet_report.to_table())
            _print_resilience(simulator.resilience)
            if not fleet_report.conserved():
                print("CONSERVATION VIOLATED: requests lost or duplicated")
                return 1
            return 0
        loop = ServeLoop(blocker, settings, chaos=chaos)
        events = synthesize_traffic(TrafficSpec(
            sessions=args.sessions,
            frames_per_session=args.frames,
            seed=args.seed,
            provenance=loop.cascade is not None or loop.differ is not None,
            revisits=args.revisits,
        ))
        if loop.chaos is not None:
            print(loop.chaos.describe())
        report = loop.run(events)
    finally:
        shutdown_worker_pool()
    print(report.stats.to_table(
        f"serve-sim: {args.sessions} sessions x {args.frames} frames "
        f"(max_batch={settings.max_batch}, "
        f"max_wait={settings.max_wait_ms}ms, "
        f"max_depth={settings.max_depth}, "
        f"lanes={report.stats.lanes})"
    ))
    print(f"virtual makespan: {report.makespan_ms:.1f} ms")
    _print_resilience(report.stats.resilience)
    if not report.stats.conserved():
        print("CONSERVATION VIOLATED: requests lost or duplicated")
        return 1
    return 0


def _cmd_crawl(args: argparse.Namespace) -> int:
    from repro.core.config import PercivalConfig
    from repro.crawl.phases import run_crawl_phases

    result = run_crawl_phases(
        num_phases=args.phases,
        sites_per_phase=5,
        pages_per_site=2,
        epochs_per_phase=8,
        seed=args.seed,
        config=PercivalConfig(
            input_size=16, epochs=8,
            num_train_ads=100, num_train_nonads=100,
        ),
    )
    for phase in result.phases:
        print(f"phase {phase.phase}: corpus={phase.corpus_size} "
              f"holdout_acc={phase.holdout_accuracy:.3f}")
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    from repro.core import get_reference_classifier
    from repro.eval.experiments.easylist_replication import (
        run_easylist_replication_experiment,
    )
    from repro.eval.experiments.external_dataset import (
        run_external_dataset_experiment,
    )
    from repro.eval.experiments.facebook import run_facebook_experiment
    from repro.eval.experiments.image_search import (
        run_image_search_experiment,
    )
    from repro.eval.experiments.languages import run_languages_experiment
    from repro.eval.experiments.render_performance import (
        run_render_performance_experiment,
    )

    classifier = get_reference_classifier(verbose=True)
    drivers = [
        lambda: run_easylist_replication_experiment(
            classifier=classifier, num_sites=30),
        lambda: run_external_dataset_experiment(
            classifier=classifier, sample_size=600),
        lambda: run_facebook_experiment(classifier=classifier, days=10),
        lambda: run_image_search_experiment(
            classifier=classifier, per_query=50),
        lambda: run_languages_experiment(
            classifier=classifier, sites_per_language=6),
        lambda: run_render_performance_experiment(
            classifier=classifier, num_pages=40),
    ]
    for driver in drivers:
        print(driver().to_table())
        print()
    return 0


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("train", help="train/load the reference model")

    precision_kwargs = dict(
        choices=("fp32", "fp16", "int8"), default=None,
        help="weight storage precision (same knob as "
             "PERCIVAL_PRECISION; default fp32)",
    )

    cascade_kwargs = dict(
        choices=("on", "off"), default=None,
        help="confidence router in front of the CNN (same knob as "
             "PERCIVAL_CASCADE; default off)",
    )

    diff_kwargs = dict(
        choices=("on", "off"), default=None,
        help="incremental re-classification via session snapshots "
             "(same knob as PERCIVAL_DIFF; default off)",
    )

    classify = sub.add_parser("classify", help="classify sample images")
    classify.add_argument("--count", type=int, default=8)
    classify.add_argument("--seed", type=int, default=0)
    classify.add_argument("--precision", **precision_kwargs)
    classify.add_argument("--cascade", **cascade_kwargs)

    render = sub.add_parser("render", help="render pages with PERCIVAL")
    render.add_argument("--pages", type=int, default=5)
    render.add_argument("--seed", type=int, default=0)
    render.add_argument("--brave", action="store_true")
    render.add_argument("--mode", choices=("sync", "async"),
                        default="sync")
    render.add_argument("--precision", **precision_kwargs)

    serve_sim = sub.add_parser(
        "serve-sim",
        help="replay multi-session traffic through the serving layer",
    )
    serve_sim.add_argument("--sessions", type=int, default=8)
    serve_sim.add_argument("--frames", type=int, default=12,
                           help="frames per session")
    serve_sim.add_argument("--seed", type=int, default=0)
    serve_sim.add_argument(
        "--max-batch", type=int,
        help="flush threshold (default: ServeSettings.max_batch)",
    )
    serve_sim.add_argument(
        "--max-wait-ms", type=float,
        help="oldest-request deadline (default: ServeSettings.max_wait_ms)",
    )
    serve_sim.add_argument(
        "--max-depth", type=int,
        help="admission bound (default: ServeSettings.max_depth)",
    )
    serve_sim.add_argument(
        "--workers", type=int, default=None,
        help="worker pool size (same knob as PERCIVAL_WORKERS)",
    )
    serve_sim.add_argument(
        "--lanes", type=int, default=None,
        help="virtual compute lanes; default auto: PERCIVAL_SERVE_LANES,"
             " else the worker pool's capacity",
    )
    serve_sim.add_argument(
        "--aging-ms", type=float,
        help="priority aging interval (default: ServeSettings.aging_ms)",
    )
    serve_sim.add_argument(
        "--fleet", action="store_true",
        help="replay a diurnal traffic day under the SLO autoscaler "
             "instead of a single flat trace",
    )
    serve_sim.add_argument(
        "--epochs", type=int, default=8,
        help="fleet mode: autoscaler observe/act steps per replay",
    )
    serve_sim.add_argument(
        "--p99-target-ms", type=float, default=40.0,
        help="fleet mode: total-latency SLO the autoscaler defends",
    )
    serve_sim.add_argument(
        "--revisits", type=int, default=0,
        help="revisit epochs appended to the trace: each session "
             "re-emits its page with a small churned delta — the "
             "workload the --diff tier answers in O(delta)",
    )
    serve_sim.add_argument(
        "--chaos", metavar="SEED|off", default=None,
        help="replay a seeded fault-injection schedule through the "
             "serve stack (worker death, tier outages, latency spikes;"
             " implies circuit breakers + the degradation ladder); "
             "'off' pins chaos off regardless of PERCIVAL_CHAOS",
    )
    serve_sim.add_argument("--precision", **precision_kwargs)
    serve_sim.add_argument("--cascade", **cascade_kwargs)
    serve_sim.add_argument("--diff", **diff_kwargs)

    crawl = sub.add_parser("crawl", help="run the crawl/retrain loop")
    crawl.add_argument("--phases", type=int, default=3)
    crawl.add_argument("--seed", type=int, default=0)

    sub.add_parser("experiments", help="run the main experiment suite")

    args = parser.parse_args(argv)
    handlers = {
        "train": _cmd_train,
        "classify": _cmd_classify,
        "render": _cmd_render,
        "serve-sim": _cmd_serve_sim,
        "crawl": _cmd_crawl,
        "experiments": _cmd_experiments,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
