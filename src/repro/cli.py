"""Command-line interface: reproduce paper results from the shell.

Usage::

    python -m repro fig6   [--pages N] [--sites N] [--groups K] [--seed S]
    python -m repro fig7   [--pages N] [--sites N] [--groups K]
    python -m repro fig8   [--pages N] [--ks 2,10,100]
    python -m repro table1 [--ns 1000,10000,100000]
    python -m repro run    [--pages N] [--groups K] [--algorithm dpr1]
                           [--transport indirect] [--overlay pastry] ...
    python -m repro summary [--pages N] [--sites N]
    python -m repro graphgen --out DIR [--pages N] [--chunk-pages C]
    python -m repro partitions [--pages N] [--groups K] [--graph DIR]
                               [--strategies site,ldg,...] [--cut-only]
    python -m repro engines [--pages N] [--groups K] [--target EPS]
                            [--engines dpr1,dpr2-event,flat,mc]
                            [--walks-per-page R]
    python -m repro chaos   [--pages N] [--groups K] [--target EPS]
                            [--engines event,hybrid]
    python -m repro serve   [--web-pages N] [--crawl N] [--groups K]
                            [--epsilon EPS] [--phases P] [--churn C]
    python -m repro compression [--pages N] [--groups K] [--target EPS]
                                [--comm-epsilon EPS] [--codecs none,delta,...]

Every subcommand prints the same text tables the benches save, so a
user can regenerate any paper artifact without touching pytest.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.analysis.reporting import format_table

__all__ = ["main", "build_parser"]


def _int_list(text: str) -> List[int]:
    return [int(x) for x in text.split(",") if x]


def _probability(text: str) -> float:
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"{value} is not in [0, 1]")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if value <= 0.0:
        raise argparse.ArgumentTypeError(f"{value} is not > 0")
    return value


def _non_negative_float(text: str) -> float:
    value = float(text)
    if value < 0.0:
        raise argparse.ArgumentTypeError(f"{value} is not >= 0")
    return value


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"{value} is not >= 0")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{value} is not >= 1")
    return value


def _backoff_factor(text: str) -> float:
    value = float(text)
    if value < 1.0:
        raise argparse.ArgumentTypeError(f"{value} is not >= 1")
    return value


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse CLI (see module docstring for usage)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Distributed Page Ranking in Structured P2P Networks "
        "(ICPP 2003) — reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_workload(p):
        p.add_argument("--pages", type=int, default=4000, help="crawl size")
        p.add_argument("--sites", type=int, default=100, help="site count")
        p.add_argument("--seed", type=int, default=2003)

    def add_engine(p):
        p.add_argument(
            "--engine", choices=["event", "flat", "hybrid", "mc"],
            default="event",
            help="execution engine: per-message event simulation (event), "
            "vectorized bulk-synchronous rounds (flat; much faster at "
            "scale), the fault-tolerant fast path (hybrid; flat-speed "
            "rounds over a persistent fault plane — flat requests with "
            "fault knobs or --schedule async dispatch here "
            "automatically), or the Monte-Carlo random-walk estimator "
            "(mc; statistical accuracy, O(log n) rounds).  flat, hybrid "
            "and mc sample once per round; flat and mc require "
            "--schedule sync",
        )
        p.add_argument(
            "--schedule", choices=["async", "sync"], default="async",
            help="event-engine wake schedule: exponential waits (async, "
            "the paper's model) or one common fixed period (sync, "
            "bit-identical to --engine flat)",
        )

    p_fig6 = sub.add_parser("fig6", help="relative error vs time (Fig 6)")
    add_workload(p_fig6)
    add_engine(p_fig6)
    p_fig6.add_argument("--groups", type=int, default=64)
    p_fig6.add_argument("--max-time", type=float, default=90.0)

    p_fig7 = sub.add_parser("fig7", help="monotone average rank (Fig 7)")
    add_workload(p_fig7)
    add_engine(p_fig7)
    p_fig7.add_argument("--groups", type=int, default=100)
    p_fig7.add_argument("--max-time", type=float, default=90.0)

    p_fig8 = sub.add_parser("fig8", help="iterations vs #rankers (Fig 8)")
    add_workload(p_fig8)
    add_engine(p_fig8)
    p_fig8.add_argument("--ks", type=_int_list, default=[2, 10, 100, 256])
    p_fig8.add_argument("--max-time", type=float, default=4000.0)

    p_t1 = sub.add_parser("table1", help="iteration interval & bandwidth (Table 1)")
    p_t1.add_argument("--ns", type=_int_list, default=[1000, 10000, 100000])
    p_t1.add_argument("--hop-samples", type=int, default=400)

    p_run = sub.add_parser("run", help="one distributed page-ranking run")
    add_workload(p_run)
    add_engine(p_run)
    p_run.add_argument("--groups", type=int, default=16)
    p_run.add_argument("--algorithm", choices=["dpr1", "dpr2"], default="dpr1")
    p_run.add_argument(
        "--partition", choices=["site", "url", "random", "contiguous"], default="site"
    )
    p_run.add_argument("--overlay", choices=["pastry", "chord", "can"], default="pastry")
    p_run.add_argument("--transport", choices=["indirect", "direct"], default="indirect")
    p_run.add_argument("--t1", type=float, default=0.0)
    p_run.add_argument("--t2", type=float, default=6.0)
    p_run.add_argument("--delivery-prob", type=_probability, default=1.0)
    p_run.add_argument("--target", type=float, default=1e-5,
                       help="target relative error")
    p_run.add_argument("--max-time", type=float, default=1000.0)

    def add_mc(p):
        g_mc = p.add_argument_group(
            "monte-carlo", "random-walk engine knobs (--engine mc; "
            "repro.linalg.montecarlo)"
        )
        g_mc.add_argument(
            "--walks-per-page", type=_positive_int, default=16,
            help="walk tokens launched per page; relative L1 error "
            "scales as 1/sqrt(R)",
        )
        g_mc.add_argument(
            "--walk-mode", choices=["terminate", "visit"],
            default="terminate",
            help="rank estimator: credit walk terminations, or every "
            "visit scaled by 1-alpha",
        )
        g_mc.add_argument(
            "--dangling-mode", choices=["absorb", "jump"],
            default="absorb",
            help="walks at zero-out-degree pages die (absorb, the "
            "open-system reference behaviour) or restart at a random "
            "page (jump; biased vs. the centralized reference)",
        )
        return g_mc

    add_mc(p_run)

    g_rel = p_run.add_argument_group(
        "reliability", "ACK/retry transport layer (repro.net.reliable)"
    )
    g_rel.add_argument("--reliable", action="store_true",
                       help="wrap the transport in ReliableTransport")
    g_rel.add_argument("--retry-timeout", type=_positive_float, default=4.0,
                       help="initial retransmission timeout")
    g_rel.add_argument("--retry-backoff", type=_backoff_factor, default=2.0,
                       help="timeout multiplier per retry (>= 1)")
    g_rel.add_argument("--retry-jitter", type=_non_negative_float, default=0.0,
                       help="uniform jitter added to each timeout")
    g_rel.add_argument("--retry-max-timeout", type=_positive_float, default=60.0,
                       help="timeout cap across retries")
    g_rel.add_argument("--max-retries", type=_non_negative_int, default=8,
                       help="retransmissions before giving up")

    g_chaos = p_run.add_argument_group(
        "chaos", "message-level adversaries (require --reliable)"
    )
    g_chaos.add_argument("--ack-loss-prob", type=_probability, default=0.0)
    g_chaos.add_argument("--duplicate-prob", type=_probability, default=0.0)
    g_chaos.add_argument("--reorder-prob", type=_probability, default=0.0)
    g_chaos.add_argument("--reorder-max-delay", type=_non_negative_float,
                         default=0.0)

    g_churn = p_run.add_argument_group("churn", "node pause and crash injection")
    g_churn.add_argument("--pause-faults", type=_non_negative_int, default=0,
                         help="number of transient pause/resume faults")
    g_churn.add_argument("--pause-horizon", type=_non_negative_float,
                         default=20.0, help="window pauses start in")
    g_churn.add_argument("--pause-mean-outage", type=_non_negative_float,
                         default=5.0, help="mean pause duration")
    g_churn.add_argument("--crash-prob", type=_probability, default=0.0,
                         help="per-ranker permanent crash probability")
    g_churn.add_argument("--crash-after", type=_non_negative_float, default=10.0,
                         help="warmup before crashes may fire")
    g_churn.add_argument("--crash-horizon", type=_non_negative_float,
                         default=10.0, help="window crashes fire in")

    g_comp = p_run.add_argument_group(
        "compression", "wire codec and traffic suppression "
        "(repro.net.codec / repro.net.adaptive)"
    )
    g_comp.add_argument(
        "--codec", choices=["none", "delta", "delta-q16"], default="none",
        help="wire codec for cross-group score updates: flat "
        "100 B/record accounting (none), varint delta frames with "
        "float32 deltas (delta; lossless at --comm-epsilon 0), or "
        "float16 deltas (delta-q16; requires --comm-epsilon > 0)",
    )
    g_comp.add_argument(
        "--comm-epsilon", type=_non_negative_float, default=0.0,
        help="total certified error budget ε_comm in efferent L1 mass "
        "(0 = lossless); the run's rank deviation is certified at or "
        "below ε_comm / (1 - alpha)",
    )
    g_comp.add_argument(
        "--suppress-tol", type=_non_negative_float, default=0.0,
        help="skip sending an efferent vector whose L1 change since "
        "the last send is at or below this threshold (0 disables; "
        "mutually exclusive with --codec)",
    )

    g_rec = p_run.add_argument_group(
        "recovery", "failure detection and checkpoint-based takeover"
    )
    g_rec.add_argument("--heartbeat-interval", type=_non_negative_float,
                       default=0.0, help="failure-detector sweep period "
                       "(0 disables)")
    g_rec.add_argument("--heartbeat-miss", type=_positive_int, default=3,
                       help="missed beats before a group is declared dead")
    g_rec.add_argument("--checkpoint-interval", type=_non_negative_float,
                       default=0.0, help="state snapshot period (0 disables)")
    g_rec.add_argument("--recovery", action="store_true",
                       help="take over detected-dead groups from checkpoints")

    p_sum = sub.add_parser("summary", help="describe a generated crawl")
    add_workload(p_sum)

    p_gen = sub.add_parser(
        "graphgen",
        help="stream-generate a crawl to an on-disk webgraph directory",
    )
    add_workload(p_gen)
    p_gen.add_argument(
        "--out", required=True,
        help="destination path: a directory for the memory-mappable "
        "format (recommended), or *.npz for the compressed archive",
    )
    p_gen.add_argument(
        "--chunk-pages", type=_positive_int, default=None,
        help="pages generated per chunk (bounds peak memory; default "
        "2**16; the emitted graph is bit-identical for every value)",
    )

    p_part = sub.add_parser(
        "partitions",
        help="partitioner bake-off: cut size, balance, traffic, and "
        "rounds-to-target for every placement strategy on one graph",
    )
    add_workload(p_part)
    p_part.add_argument("--groups", type=_positive_int, default=16, help="ranker count K")
    p_part.add_argument(
        "--strategies",
        type=lambda s: [x for x in s.split(",") if x],
        default=None,
        help="comma-separated strategy names (default: all of "
        "site,url,rendezvous,random,contiguous,ldg)",
    )
    p_part.add_argument(
        "--target", type=_positive_float, default=1e-4,
        help="relative-error target for the rounds-to-ε column",
    )
    p_part.add_argument(
        "--max-time", type=_positive_float, default=3000.0,
        help="simulated-time budget per convergence run",
    )
    p_part.add_argument(
        "--cut-only", action="store_true",
        help="skip the convergence runs (no centralized reference "
        "solve); keeps 1e7-page graphs feasible",
    )
    p_part.add_argument(
        "--graph", default=None,
        help="load this saved webgraph (directory → memory-mapped, "
        "*.npz → in-memory) instead of generating one; --pages/--sites "
        "are ignored",
    )
    p_part.add_argument(
        "--cache-dir", default=None,
        help="artifact cache directory (default: $REPRO_CACHE_DIR if "
        "set, else no caching); cached tables reproduce byte-identically",
    )

    p_eng = sub.add_parser(
        "engines",
        help="engine bake-off: rounds-to-ε, L1 error, messages, and "
        "bytes for dpr1/dpr2-event/flat/mc on one identical workload",
    )
    add_workload(p_eng)
    p_eng.add_argument("--groups", type=_positive_int, default=16,
                       help="ranker count K")
    p_eng.add_argument(
        "--engines",
        type=lambda s: [x for x in s.split(",") if x],
        default=None,
        help="comma-separated contender names (default: all of "
        "dpr1,dpr2-event,flat,mc)",
    )
    p_eng.add_argument(
        "--target", type=_positive_float, default=1e-4,
        help="relative-error target ε (the Jacobi engines stop here; "
        "mc runs to walk exhaustion unless it reaches ε first)",
    )
    p_eng.add_argument(
        "--max-time", type=_positive_float, default=3000.0,
        help="simulated-time budget per run",
    )
    p_eng.add_argument(
        "--walks-per-page", type=_positive_int, default=16,
        help="mc walk tokens per page (error scales as 1/sqrt(R))",
    )
    p_eng.add_argument(
        "--graph", default=None,
        help="load this saved webgraph (directory → memory-mapped, "
        "*.npz → in-memory) instead of generating one; --pages/--sites "
        "are ignored",
    )
    p_eng.add_argument(
        "--cache-dir", default=None,
        help="artifact cache directory (default: $REPRO_CACHE_DIR if "
        "set, else no caching); cached tables reproduce byte-identically",
    )

    p_serve = sub.add_parser(
        "serve",
        help="serving-tier demo: incremental re-ranking + indexed top-k "
        "queries against a crawler mutating the graph under churn",
    )
    p_serve.add_argument("--web-pages", type=_positive_int, default=3000,
                         help="TrueWeb size (the hidden full web)")
    p_serve.add_argument("--sites", type=_positive_int, default=60,
                         help="site count")
    p_serve.add_argument("--crawl", type=_positive_int, default=1200,
                         help="pages crawled before the server boots")
    p_serve.add_argument("--groups", type=_positive_int, default=8,
                         help="ranker count K")
    p_serve.add_argument("--epsilon", type=_positive_float, default=1e-3,
                         help="staleness budget ε (relative L1)")
    p_serve.add_argument("--phases", type=_positive_int, default=4,
                         help="churn-crawl-sync-query phases")
    p_serve.add_argument("--churn", type=_non_negative_int, default=80,
                         help="TrueWeb link edits per phase")
    p_serve.add_argument("--budget", type=_positive_int, default=200,
                         help="crawler fetch budget per phase")
    p_serve.add_argument("--queries", type=_positive_int, default=400,
                         help="queries fired per phase")
    p_serve.add_argument("--seed", type=int, default=2003)
    p_serve.add_argument(
        "--cache-dir", default=None,
        help="artifact cache directory (default: $REPRO_CACHE_DIR if "
        "set, else no caching); cached tables reproduce byte-identically",
    )

    p_chaos = sub.add_parser(
        "chaos",
        help="chaos bake-off: the EXPERIMENTS.md churn scenario on the "
        "event engine vs the hybrid fault-tolerant fast path — same ε "
        "verdict, fault counters, and wall-clock speedup",
    )
    add_workload(p_chaos)
    p_chaos.add_argument("--groups", type=_positive_int, default=8,
                         help="ranker count K")
    p_chaos.add_argument(
        "--engines",
        type=lambda s: [x for x in s.split(",") if x],
        default=None,
        help="comma-separated engine names (default: event,hybrid)",
    )
    p_chaos.add_argument(
        "--target", type=_positive_float, default=1e-4,
        help="relative-error target ε for the verdict column",
    )
    p_chaos.add_argument(
        "--max-time", type=_positive_float, default=405.0,
        help="simulated-time budget per run (default: 40 rounds of "
        "the scenario's T=10 period plus a drain margin)",
    )
    p_chaos.add_argument(
        "--graph", default=None,
        help="load this saved webgraph (directory → memory-mapped, "
        "*.npz → in-memory) instead of generating one; --pages/--sites "
        "are ignored",
    )
    p_chaos.add_argument(
        "--cache-dir", default=None,
        help="artifact cache directory (default: $REPRO_CACHE_DIR if "
        "set, else no caching); cached tables reproduce byte-identically",
    )

    p_comp = sub.add_parser(
        "compression",
        help="wire-compression bake-off: data bytes, paper-model bytes, "
        "reduction factor, certified bound vs measured deviation for "
        "each codec on one identical workload",
    )
    add_workload(p_comp)
    p_comp.add_argument("--groups", type=_positive_int, default=16,
                        help="ranker count K")
    p_comp.add_argument(
        "--codecs",
        type=lambda s: [x for x in s.split(",") if x],
        default=None,
        help="comma-separated contender names (default: all of "
        "none,delta,delta-eps,delta-q16)",
    )
    p_comp.add_argument(
        "--target", type=_positive_float, default=1e-4,
        help="relative-error target ε for the rounds-to-ε column",
    )
    p_comp.add_argument(
        "--comm-epsilon", type=_positive_float, default=1e-4,
        help="error budget ε_comm used by the lossy contenders "
        "(delta-eps and delta-q16)",
    )
    p_comp.add_argument(
        "--max-time", type=_positive_float, default=3000.0,
        help="simulated-time budget per run",
    )
    p_comp.add_argument(
        "--graph", default=None,
        help="load this saved webgraph (directory → memory-mapped, "
        "*.npz → in-memory) instead of generating one; --pages/--sites "
        "are ignored",
    )
    p_comp.add_argument(
        "--cache-dir", default=None,
        help="artifact cache directory (default: $REPRO_CACHE_DIR if "
        "set, else no caching); cached tables reproduce byte-identically",
    )

    p_all = sub.add_parser("all", help="run the full reproduction suite")
    add_workload(p_all)
    p_all.add_argument(
        "--only",
        type=lambda s: [x for x in s.split(",") if x],
        default=None,
        help="comma-separated experiment names (default: all)",
    )
    p_all.add_argument("--out", default=None, help="directory for result tables")
    p_all.add_argument(
        "--jobs", type=_positive_int, default=1,
        help="worker processes for the sweep (1 = serial; results are "
        "bit-identical for every value)",
    )
    p_all.add_argument(
        "--cache-dir", default=None,
        help="artifact cache directory for graphs, reference vectors and "
        "sweep-point results (default: $REPRO_CACHE_DIR if set, else no "
        "caching)",
    )

    return parser


def _make_graph(args):
    from repro.graph import google_contest_like

    return google_contest_like(args.pages, min(args.sites, args.pages), seed=args.seed)


def cmd_fig6(args) -> int:
    from repro.experiments import run_fig6

    result = run_fig6(
        _make_graph(args), n_groups=args.groups, max_time=args.max_time,
        engine=args.engine, schedule=args.schedule,
    )
    print(result.format())
    return 0


def cmd_fig7(args) -> int:
    from repro.experiments import run_fig7

    result = run_fig7(
        _make_graph(args), n_groups=args.groups, max_time=args.max_time,
        engine=args.engine, schedule=args.schedule,
    )
    print(result.format())
    return 0 if all(result.monotone.values()) else 1


def cmd_fig8(args) -> int:
    from repro.experiments import run_fig8

    result = run_fig8(
        _make_graph(args), ks=args.ks, max_time=args.max_time,
        engine=args.engine, schedule=args.schedule,
    )
    print(result.format())
    return 0


def cmd_table1(args) -> int:
    from repro.experiments import run_table1

    result = run_table1(ns=args.ns, hop_samples=args.hop_samples)
    print(result.format())
    return 0


def cmd_run(args) -> int:
    from repro.core import run_distributed_pagerank

    graph = _make_graph(args)
    try:
        result = run_distributed_pagerank(
            graph,
            n_groups=args.groups,
            engine=args.engine,
            schedule=args.schedule,
            algorithm=args.algorithm,
            partition_strategy=args.partition,
            overlay=args.overlay,
            transport=args.transport,
            t1=args.t1,
            t2=args.t2,
            delivery_prob=args.delivery_prob,
            seed=args.seed,
            walks_per_page=args.walks_per_page,
            walk_mode=args.walk_mode,
            dangling_mode=args.dangling_mode,
            reliable=args.reliable,
            retry_timeout=args.retry_timeout,
            retry_backoff=args.retry_backoff,
            retry_jitter=args.retry_jitter,
            retry_max_timeout=args.retry_max_timeout,
            max_retries=args.max_retries,
            ack_loss_prob=args.ack_loss_prob,
            duplicate_prob=args.duplicate_prob,
            reorder_prob=args.reorder_prob,
            reorder_max_delay=args.reorder_max_delay,
            pause_faults=args.pause_faults,
            pause_horizon=args.pause_horizon,
            pause_mean_outage=args.pause_mean_outage,
            crash_prob=args.crash_prob,
            crash_after=args.crash_after,
            crash_horizon=args.crash_horizon,
            heartbeat_interval=args.heartbeat_interval,
            heartbeat_miss_threshold=args.heartbeat_miss,
            checkpoint_interval=args.checkpoint_interval,
            recovery=args.recovery,
            codec=args.codec,
            comm_epsilon=args.comm_epsilon,
            suppress_tol=args.suppress_tol,
            target_relative_error=args.target,
            max_time=args.max_time,
        )
    except ValueError as exc:
        # Cross-field config constraints (e.g. chaos without --reliable)
        # surface as a usage error, not a traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rows = [
        ("converged", str(result.converged)),
        ("time to target", str(result.time_to_target)),
        ("final relative error", f"{result.final_relative_error:.3e}"),
        ("outer iterations (max)", result.max_outer_iterations),
        ("inner sweeps (max)", result.max_inner_sweeps),
        ("messages", result.traffic.total_messages),
        ("bytes", result.traffic.total_bytes),
        ("updates dropped", result.dropped_updates),
    ]
    if result.fidelity != "exact" or args.engine == "hybrid":
        rows += [
            ("fidelity", result.fidelity),
            ("fast rounds", result.fast_rounds),
            ("replayed rounds", result.replayed_rounds),
        ]
    if args.reliable:
        rows += [
            ("ack messages", result.traffic.ack_messages),
            ("ack bytes", result.traffic.ack_bytes),
            ("retransmits", result.retransmits),
            ("sends abandoned", result.gave_up),
            ("duplicates dropped", result.dup_drops),
            ("acks lost", result.acks_lost),
        ]
    if result.codec_stats is not None:
        cs = result.codec_stats
        rows += [
            ("codec", cs["codec"]),
            ("paper-model bytes", result.traffic.paper_data_bytes),
            ("frames / suppressed / exact",
             f"{cs['frames']} / {cs['suppressed_frames']} / "
             f"{cs['exact_flushes']}"),
            ("certified rank-error bound", f"{cs['certified_bound']:.3e}"),
        ]
    if args.crash_prob > 0 or args.heartbeat_interval > 0 or args.recovery:
        rows += [
            ("groups crashed", result.crashed_groups),
            ("deaths detected", result.deaths_detected),
            ("takeovers", result.takeovers),
            ("checkpoints written", result.checkpoint_saves),
        ]
    print(format_table(["metric", "value"], rows, title="distributed run"))
    return 0 if result.converged else 1


def cmd_summary(args) -> int:
    from repro.graph import summarize

    summary = summarize(_make_graph(args))
    rows = [(k, v) for k, v in summary.as_dict().items()]
    print(format_table(["statistic", "value"], rows, title="crawl summary"))
    return 0


def cmd_graphgen(args) -> int:
    """Stream-generate a crawl straight to disk and describe it."""
    import time

    from repro.graph import google_contest_like

    t0 = time.perf_counter()
    graph = google_contest_like(
        args.pages,
        min(args.sites, args.pages),
        seed=args.seed,
        out=args.out,
        chunk_pages=args.chunk_pages,
    )
    seconds = time.perf_counter() - t0
    rows = [
        ("path", args.out),
        ("pages", graph.n_pages),
        ("sites", graph.n_sites),
        ("internal links", graph.n_internal_links),
        ("total links", graph.n_links),
        ("fingerprint", graph.fingerprint()),
        ("build seconds", f"{seconds:.2f}"),
    ]
    print(format_table(["field", "value"], rows, title="graphgen"))
    return 0


def cmd_partitions(args) -> int:
    """Run the partitioner bake-off and print its table."""
    import contextlib

    from repro.experiments import BAKEOFF_STRATEGIES, run_partition_bakeoff
    from repro.parallel.cache import ArtifactCache, activate, cache_from_env

    if args.graph is not None:
        from repro.graph.io import load_webgraph

        graph = load_webgraph(args.graph, mmap=not str(args.graph).endswith(".npz"))
    else:
        graph = _make_graph(args)
    cache = ArtifactCache(args.cache_dir) if args.cache_dir else cache_from_env()
    ctx = activate(cache) if cache is not None else contextlib.nullcontext()
    with ctx:
        result = run_partition_bakeoff(
            graph,
            n_groups=args.groups,
            strategies=args.strategies or BAKEOFF_STRATEGIES,
            seed=args.seed,
            target_relative_error=args.target,
            max_time=args.max_time,
            measure_rank=not args.cut_only,
        )
    print(result.format())
    return 0


def cmd_engines(args) -> int:
    """Run the engine bake-off and print its table."""
    import contextlib

    from repro.experiments import ENGINE_CONTENDERS, run_engine_bakeoff
    from repro.parallel.cache import ArtifactCache, activate, cache_from_env

    if args.graph is not None:
        from repro.graph.io import load_webgraph

        graph = load_webgraph(args.graph, mmap=not str(args.graph).endswith(".npz"))
    else:
        graph = _make_graph(args)
    cache = ArtifactCache(args.cache_dir) if args.cache_dir else cache_from_env()
    ctx = activate(cache) if cache is not None else contextlib.nullcontext()
    with ctx:
        result = run_engine_bakeoff(
            graph,
            n_groups=args.groups,
            engines=args.engines or ENGINE_CONTENDERS,
            seed=args.seed,
            target_relative_error=args.target,
            max_time=args.max_time,
            walks_per_page=args.walks_per_page,
        )
    print(result.format())
    return 0


def cmd_serve(args) -> int:
    """Run the serving-tier demo and print its table."""
    import contextlib

    from repro.experiments import run_serve_demo
    from repro.parallel.cache import ArtifactCache, activate, cache_from_env

    cache = ArtifactCache(args.cache_dir) if args.cache_dir else cache_from_env()
    ctx = activate(cache) if cache is not None else contextlib.nullcontext()
    with ctx:
        result = run_serve_demo(
            web_pages=args.web_pages,
            web_sites=min(args.sites, args.web_pages),
            crawl_pages=min(args.crawl, args.web_pages),
            n_groups=args.groups,
            epsilon=args.epsilon,
            phases=args.phases,
            churn_per_phase=args.churn,
            crawl_budget=args.budget,
            queries_per_phase=args.queries,
            seed=args.seed,
        )
    print(result.format())
    return 0 if result.within_budget() else 1


def cmd_chaos(args) -> int:
    """Run the chaos bake-off and print its table."""
    import contextlib

    from repro.experiments import CHAOS_ENGINES, run_chaos_bakeoff
    from repro.parallel.cache import ArtifactCache, activate, cache_from_env

    if args.graph is not None:
        from repro.graph.io import load_webgraph

        graph = load_webgraph(args.graph, mmap=not str(args.graph).endswith(".npz"))
    else:
        graph = _make_graph(args)
    cache = ArtifactCache(args.cache_dir) if args.cache_dir else cache_from_env()
    ctx = activate(cache) if cache is not None else contextlib.nullcontext()
    with ctx:
        result = run_chaos_bakeoff(
            graph,
            n_groups=args.groups,
            engines=args.engines or CHAOS_ENGINES,
            seed=args.seed,
            target_relative_error=args.target,
            max_time=args.max_time,
        )
    print(result.format())
    return 0 if result.verdicts_agree() else 1


def cmd_compression(args) -> int:
    """Run the wire-compression bake-off and print its table."""
    import contextlib

    from repro.experiments import COMPRESSION_CONTENDERS, run_compression_bakeoff
    from repro.parallel.cache import ArtifactCache, activate, cache_from_env

    if args.graph is not None:
        from repro.graph.io import load_webgraph

        graph = load_webgraph(args.graph, mmap=not str(args.graph).endswith(".npz"))
    else:
        graph = _make_graph(args)
    cache = ArtifactCache(args.cache_dir) if args.cache_dir else cache_from_env()
    ctx = activate(cache) if cache is not None else contextlib.nullcontext()
    with ctx:
        result = run_compression_bakeoff(
            graph,
            n_groups=args.groups,
            codecs=args.codecs or COMPRESSION_CONTENDERS,
            seed=args.seed,
            target_relative_error=args.target,
            comm_epsilon=args.comm_epsilon,
            max_time=args.max_time,
        )
    print(result.format())
    return 0 if result.certified() else 1


def cmd_all(args) -> int:
    """Run every experiment and print/write the combined report."""
    from repro.experiments import ExperimentScale, run_all
    from repro.parallel.cache import ArtifactCache, cache_from_env

    scale = ExperimentScale(
        n_pages=args.pages, n_sites=min(args.sites, args.pages), seed=args.seed
    )
    cache = (
        ArtifactCache(args.cache_dir) if args.cache_dir else cache_from_env()
    )
    report = run_all(
        scale=scale, only=args.only, out_dir=args.out, jobs=args.jobs, cache=cache
    )
    print(report.format())
    return 0


COMMANDS = {
    "fig6": cmd_fig6,
    "fig7": cmd_fig7,
    "fig8": cmd_fig8,
    "table1": cmd_table1,
    "run": cmd_run,
    "summary": cmd_summary,
    "graphgen": cmd_graphgen,
    "partitions": cmd_partitions,
    "engines": cmd_engines,
    "serve": cmd_serve,
    "chaos": cmd_chaos,
    "compression": cmd_compression,
    "all": cmd_all,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    return COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
