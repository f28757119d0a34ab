"""Per-layer metrics of a traced run, named after the repro modules.

Times are self times (see :func:`tracer.self_times`) in seconds;
counts come from the tracer's counters, ``RunResult`` and
``FlushStats``.  Every workload reports every metric; a layer the
workload does not reach reads 0.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from tracer import BUILD_PARENTS, self_times

#: (metric, unit) in report order.
PER_LAYER: List[Tuple[str, str]] = [
    ("graph.io.load_s", "s"),
    ("graph.partition.make_s", "s"),
    ("graph.partition.cut_links", "count"),
    ("linalg.operators.assemble_s", "s"),
    ("linalg.operators.assemble_rss_mb", "MiB"),
    ("linalg.operators.nnz", "count"),
    ("core.engine.init_self_s", "s"),
    ("core.engine.run_self_s", "s"),
    ("core.engine.sample_s", "s"),
    ("core.engine.samples", "count"),
    ("core.engine.rounds", "rounds"),
    ("linalg.jacobi.solve_s", "s"),
    ("linalg.jacobi.solve_calls", "count"),
    ("linalg.jacobi.sweeps", "count"),
    ("linalg.jacobi.computed_gbps", "GB/s"),
    ("linalg.jacobi.bw_fraction", "ratio"),
    ("linalg.jacobi.spmv_cut_s", "s"),
    ("linalg.jacobi.spmv_afferent_s", "s"),
    ("linalg.jacobi.spmv_sweep_s", "s"),
    ("net.adaptive.encode_s", "s"),
    ("net.adaptive.encode_calls", "count"),
    ("net.adaptive.frames", "count"),
    ("net.adaptive.suppressed", "count"),
    ("net.adaptive.exact_flushes", "count"),
    ("net.adaptive.entries_sent", "count"),
    ("net.adaptive.ship_ratio", "ratio"),
    ("overlay.build_s", "s"),
    ("overlay.route_s", "s"),
    ("overlay.route_calls", "count"),
    ("overlay.hops", "count"),
    ("net.transport.send_s", "s"),
    ("net.transport.sends", "count"),
    ("net.simulator.run_s", "s"),
    ("net.simulator.events", "count"),
    ("net.bandwidth.calls", "count"),
    ("net.bandwidth.data_bytes", "bytes"),
    ("net.bandwidth.messages", "messages"),
    ("net.reliable.retransmits", "count"),
    ("net.reliable.gave_up", "count"),
    ("net.reliable.dup_drops", "count"),
    ("net.reliable.acks_lost", "count"),
    ("net.reliable.useful_ratio", "ratio"),
    ("core.hybrid.fast_rounds", "rounds"),
    ("core.hybrid.replayed_rounds", "rounds"),
    ("core.recovery.takeovers", "count"),
    ("core.recovery.checkpoint_saves", "count"),
    ("core.recovery.crashed_groups", "count"),
    ("core.recovery.s", "s"),
    ("serve.incremental.init_s", "s"),
    ("serve.index.build_s", "s"),
    ("serve.incremental.update_s", "s"),
    ("serve.incremental.updates", "count"),
    ("serve.incremental.inner_sweeps", "count"),
    ("serve.incremental.dirty_groups_mean", "count"),
    ("serve.incremental.full_fallbacks", "count"),
    ("serve.incremental.mutations", "count"),
    ("serve.index.update_s", "s"),
    ("serve.index.changed_pages", "count"),
    ("serve.index.topk_s", "s"),
    ("serve.index.topk_calls", "count"),
    ("serve.index.rank_of_s", "s"),
    ("serve.index.rank_of_calls", "count"),
    ("serve.index.percentile_s", "s"),
    ("serve.index.percentile_calls", "count"),
    ("serve.queue_wait_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.explained_frac", "ratio"),
    ("host.copy_gbps", "GB/s"),
]

#: Spans of facades whose self time is glue, not a named layer: the
#: benchmark's own phases, engine construction/run loops and the
#: RankServer constructor.
UNNAMED = {"core.engine.init", "core.engine.run", "serve.server.init"}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer, sample: dict, copy_gbps: float) -> Dict[str, float]:
    """Per-layer table of one traced sample (``trace.overhead_s`` is
    filled in by the caller, which also has the untraced sample)."""
    st = self_times(tracer.spans)
    c = tracer.counts
    res = sample.get("result", {})

    def t(name: str) -> float:
        return st.get(name, (0.0, 0))[0]

    def n(name: str) -> int:
        return st.get(name, (0.0, 0))[1]

    by_id = {s[0]: s for s in tracer.spans}
    build_s = update_s = 0.0
    for s in tracer.spans:
        if s[1] == "serve.index.update":
            parent = by_id.get(s[4])
            if parent is not None and parent[1] in BUILD_PARENTS:
                build_s += s[3] - s[2]
            else:
                update_s += s[3] - s[2]

    solve_s = t("linalg.jacobi.solve")
    gbps = _ratio(c["linalg.jacobi.bytes"], solve_s) / 1e9
    data_messages = res.get("data_messages", 0)
    useful = data_messages - res.get("dup_drops", 0) - res.get("dead_drops", 0)
    updates = c["serve.incremental.updates"]
    explained = sum(
        v[0] for k, v in st.items() if not k.startswith("bench.") and k not in UNNAMED
    )
    return {
        "graph.io.load_s": t("graph.io.load"),
        "graph.partition.make_s": t("graph.partition.make"),
        "graph.partition.cut_links": sample.get("cut_links", 0),
        "linalg.operators.assemble_s": t("linalg.operators.assemble"),
        "linalg.operators.assemble_rss_mb": c["linalg.operators.assemble_rss_mb"],
        "linalg.operators.nnz": c["linalg.operators.nnz"],
        "core.engine.init_self_s": t("core.engine.init"),
        "core.engine.run_self_s": t("core.engine.run"),
        "core.engine.sample_s": t("core.engine.sample") + t("net.bandwidth.snapshot"),
        "core.engine.samples": n("core.engine.sample"),
        "core.engine.rounds": sample.get("rounds_to_eps", 0),
        "linalg.jacobi.solve_s": solve_s,
        "linalg.jacobi.solve_calls": n("linalg.jacobi.solve"),
        "linalg.jacobi.sweeps": c["linalg.jacobi.sweeps"],
        "linalg.jacobi.computed_gbps": gbps,
        "linalg.jacobi.bw_fraction": _ratio(gbps, copy_gbps),
        "linalg.jacobi.spmv_cut_s": t("linalg.jacobi.spmv_cut"),
        "linalg.jacobi.spmv_afferent_s": t("linalg.jacobi.spmv_afferent"),
        "linalg.jacobi.spmv_sweep_s": t("linalg.jacobi.spmv_sweep"),
        "net.adaptive.encode_s": t("net.adaptive.encode"),
        "net.adaptive.encode_calls": n("net.adaptive.encode"),
        "net.adaptive.frames": c["net.adaptive.frames"],
        "net.adaptive.suppressed": c["net.adaptive.suppressed"],
        "net.adaptive.exact_flushes": res.get("exact_flushes", 0),
        "net.adaptive.entries_sent": res.get("entries_sent", 0),
        "net.adaptive.ship_ratio": _ratio(
            c["net.adaptive.frames"], n("net.adaptive.encode")
        ),
        "overlay.build_s": t("overlay.build"),
        "overlay.route_s": t("overlay.route"),
        "overlay.route_calls": n("overlay.route"),
        "overlay.hops": c["overlay.hops"],
        "net.transport.send_s": t("net.transport.send"),
        "net.transport.sends": c["net.transport.sends"],
        "net.simulator.run_s": t("net.simulator.run"),
        "net.simulator.events": c["net.simulator.events"],
        "net.bandwidth.calls": c["net.bandwidth.calls"] + n("net.bandwidth.snapshot"),
        "net.bandwidth.data_bytes": sample.get("wire_bytes_to_eps", 0),
        "net.bandwidth.messages": sample.get("messages_to_eps", 0),
        "net.reliable.retransmits": res.get("retransmits", 0),
        "net.reliable.gave_up": res.get("gave_up", 0),
        "net.reliable.dup_drops": res.get("dup_drops", 0),
        "net.reliable.acks_lost": res.get("acks_lost", 0),
        # Share of data messages that delivered a fresh payload to a live
        # receiver; 0 when the reliable layer (the only ACK source) is off.
        "net.reliable.useful_ratio": _ratio(useful, data_messages)
        if res.get("ack_messages", 0)
        else 0.0,
        "core.hybrid.fast_rounds": res.get("fast_rounds", 0),
        "core.hybrid.replayed_rounds": res.get("replayed_rounds", 0),
        "core.recovery.takeovers": res.get("takeovers", 0),
        "core.recovery.checkpoint_saves": res.get("checkpoint_saves", 0),
        "core.recovery.crashed_groups": res.get("crashed_groups", 0),
        "core.recovery.s": t("core.recovery"),
        "serve.incremental.init_s": t("serve.incremental.init"),
        "serve.index.build_s": build_s,
        "serve.incremental.update_s": t("serve.incremental.update"),
        "serve.incremental.updates": updates,
        "serve.incremental.inner_sweeps": c["serve.incremental.inner_sweeps"],
        "serve.incremental.dirty_groups_mean": _ratio(
            c["serve.incremental.dirty_groups"], updates
        ),
        "serve.incremental.full_fallbacks": c["serve.incremental.full_fallbacks"],
        "serve.incremental.mutations": c["serve.incremental.mutations"],
        "serve.index.update_s": update_s,
        "serve.index.changed_pages": c["serve.index.changed_pages"],
        "serve.index.topk_s": t("serve.index.topk"),
        "serve.index.topk_calls": n("serve.index.topk"),
        "serve.index.rank_of_s": t("serve.index.rank_of"),
        "serve.index.rank_of_calls": n("serve.index.rank_of"),
        "serve.index.percentile_s": t("serve.index.percentile"),
        "serve.index.percentile_calls": n("serve.index.percentile"),
        "serve.queue_wait_s": sample.get("queue_wait_s", 0.0),
        "trace.overhead_s": 0.0,
        "trace.explained_frac": _ratio(explained, sample.get("busy_s", 0.0)),
        "host.copy_gbps": copy_gbps,
    }
