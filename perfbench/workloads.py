"""The four benchmark workloads: input generation and one measured run.

Every generated input comes from the workload seed: graphs, crawl and
churn batches, and query streams.  Each engine's own configuration
(config seed, partition salt, codec, fault scenario) is fixed per
workload.  Inputs are built once per seed by :func:`prepare` into the
input cache; :func:`measure` then runs in a fresh process per sample
and returns one sample's metrics.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import resource
import statistics
import time
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

import inputs
from host import PROBE_REF_S, probe_bytes, speed_probe
from stats import open_loop, percentile, samples_beyond, tail_percentile

clock = time.perf_counter

#: Query mix shared by every workload: top-k / rank-of / percentile.
QUERY_MIX = (0.6, 0.3, 0.1)
TOP_K = 10
#: Closed-loop queries between two host speed probes.
QUERY_BLOCK = 2000

#: Out-degree dispersion of every generated graph.  A lognormal sigma
#: of 0.5 (the generator's default is 1.0) leaves almost no pages of
#: out-degree 1, so no closed two-page cycles ("rank sinks") form.  A
#: sink's error decays only by alpha per sweep, and with the default
#: the number of sinks varies by seed: at 1e5 pages about half the
#: seeds have one, which doubles DPR2's rounds to 1e-8 (26 -> 60); at
#: 1e6 pages DPR1's inner Jacobi sweeps vary from 2200 to 3100.  That
#: is seed-driven work no bound could absorb.  With 0.5 the work is
#: about the same on every seed tried (21-22 rounds; 1180-1200 sweeps).
DEGREE_SIGMA = 0.5
GRAPH_1E5 = dict(n_pages=100_000, n_sites=2_000, degree_sigma=DEGREE_SIGMA)

RANKING = {
    "rank-1e6": dict(
        graph=dict(n_pages=1_000_000, n_sites=10_000, degree_sigma=DEGREE_SIGMA),
        mmap=True,
        engine="flat",
        config=dict(
            n_groups=8,
            algorithm="dpr1",
            partition_strategy="site",
            transport="indirect",
            overlay="pastry",
            codec="none",
            schedule="sync",
            t1=100.0,
            t2=100.0,
            sample_interval=100.0,
            seed=17,
        ),
        period=100.0,
        epsilon=1e-6,
        round_cap=40,
        # rank_of costs ~1 ms at this size.
        queries=2_000,
        query_checks=8,
        # Those rank_of calls stream over buckets of up to ~1e5 pages
        # and wait on memory; host speed spells barely move them, and
        # scaling by the probe raised their p99's variation over 422
        # replays of one stream from 0.074 to 0.125.  At 1e5 pages the
        # queries are interpreter-bound and scaling steadies them.
        scale_queries=False,
    ),
    "comm-1e5-delta": dict(
        graph=GRAPH_1E5,
        mmap=False,
        engine="flat",
        config=dict(
            n_groups=64,
            algorithm="dpr2",
            partition_strategy="site",
            transport="direct",
            overlay="pastry",
            codec="delta",
            schedule="sync",
            t1=100.0,
            t2=100.0,
            sample_interval=100.0,
            seed=17,
        ),
        period=100.0,
        epsilon=1e-8,
        round_cap=120,
        queries=20_000,
        query_checks=20,
        scale_queries=True,
        #: Same config with this codec must give bit-identical ranks.
        twin_codec="none",
    ),
    "chaos-1e5": dict(
        graph=GRAPH_1E5,
        mmap=False,
        engine="hybrid",
        config=dict(n_groups=64, seed=5, overlay="pastry", codec="none"),
        scenario=True,
        period=10.0,
        epsilon=1e-8,
        round_cap=120,
        queries=20_000,
        query_checks=20,
        scale_queries=True,
    ),
}

SERVE = {
    "serve-1e5": dict(
        web_pages=120_000,
        web_sites=800,
        crawl_pages=100_000,
        #: One crawler step plus churn per batch: ~200 mutations.
        churn_per_batch=8,
        crawl_budget=10,
        batches=100,
        n_groups=16,
        epsilon=1e-3,
        salt="",
        query_rate=2000.0,
        batch_rate=1.0,
        query_checks=40,
        staleness_checks=3,
    ),
}

WORKLOADS = {**RANKING, **SERVE}

#: L1 step tolerance of the centralized reference.  Its error is at
#: most tol·α/(1−α) ≈ 6e-6 in absolute L1, which is below 1e-9 of
#: ‖R*‖₁ (≥ 1.5e4 for these graphs, since every page has rank ≥ 1−α),
#: far under the tightest ε checked (1e-8).
REFERENCE_TOL = 1e-6


def _rng(seed: int, *tags: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *tags]))


def _query_stream(rng, n_queries: int, n_pages: int, n_checks: int):
    """``n_queries`` queries of the fixed mix; ``check`` marks the ones
    compared with the brute-force answers."""
    return dict(
        kind=rng.choice(3, size=n_queries, p=QUERY_MIX).astype(np.int8),
        page=rng.integers(0, n_pages, size=n_queries),
        q=rng.uniform(0.0, 100.0, size=n_queries),
        check=np.sort(rng.choice(n_queries, size=n_checks, replace=False)),
    )


def _scenario() -> dict:
    from repro.experiments.chaos import CHURN_SCENARIO

    return dict(CHURN_SCENARIO)


def _config(spec: dict, **overrides):
    from repro.core.coordinator import DistributedConfig

    kwargs = dict(spec["config"], engine=spec["engine"])
    if spec.get("scenario"):
        kwargs.update(_scenario())
    kwargs.update(overrides)
    return DistributedConfig(**kwargs)


def expected_crashes(cfg) -> int:
    """Crashes the churn scenario's injector schedules for ``cfg``.

    Draws the injector's doomed set from the same named seed stream the
    engine uses, on a throwaway simulator.
    """
    from repro.net.failures import NodeCrashInjector
    from repro.net.simulator import Simulator
    from repro.utils.rng import SeedSequenceFactory

    class _Slot:
        crashed = False

    injector = NodeCrashInjector(
        crash_prob=cfg.crash_prob,
        after=cfg.crash_after,
        horizon=cfg.crash_horizon,
        seed=SeedSequenceFactory(cfg.seed).generator("crash-injector"),
    )
    injector.install(Simulator(), [_Slot() for _ in range(cfg.n_groups)])
    return len(injector.injected)


def _engine_class(spec):
    if spec["engine"] == "hybrid":
        from repro.core.hybrid import HybridEngine

        return HybridEngine
    from repro.core.engine import SynchronousEngine

    return SynchronousEngine


def _run_to_eps(spec, graph, reference, config):
    from repro.graph.partition import make_partition

    engine = _engine_class(spec)(
        graph,
        config,
        partition=make_partition(graph, config.n_groups, config.partition_strategy),
        reference=reference,
    )
    period = spec["period"]
    return engine.run(
        max_time=spec["round_cap"] * period + period / 2.0,
        target_relative_error=spec["epsilon"],
    )


def digest(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


# ----------------------------------------------------------------------
# Input generation (cached per seed)
# ----------------------------------------------------------------------
def prepare(name: str, seed: int, cache_dir: Path) -> Dict[str, str]:
    """Build (or find) every cached input of ``name`` for ``seed``.

    Returns the entry directories by role.
    """
    if name in SERVE:
        return _prepare_serve(name, seed, cache_dir)
    spec = RANKING[name]
    from repro.core.pagerank import pagerank_open
    from repro.graph.generators import google_contest_like
    from repro.graph.io import load_webgraph

    gparams = dict(spec["graph"], seed=seed)

    def build_graph(tmp: Path) -> dict:
        google_contest_like(**gparams, out=tmp / "graph")
        graph = load_webgraph(tmp / "graph", mmap=True)
        np.save(tmp / "reference.npy", pagerank_open(graph, tol=REFERENCE_TOL).ranks)
        return {}

    graph_dir, _ = inputs.ensure(cache_dir, "graph", gparams, build_graph)
    dirs = {"graph": str(graph_dir)}

    n_pages = spec["graph"]["n_pages"]
    qparams = dict(
        n=spec["queries"], n_pages=n_pages, checks=spec["query_checks"], seed=seed
    )

    def build_queries(tmp: Path) -> dict:
        stream = _query_stream(
            _rng(seed, 2), spec["queries"], n_pages, spec["query_checks"]
        )
        np.savez(tmp / "queries.npz", **stream)
        return {}

    dirs["queries"] = str(inputs.ensure(cache_dir, "queries", qparams, build_queries)[0])

    if "twin_codec" in spec:
        tparams = dict(gparams, config=spec["config"], codec=spec["twin_codec"],
                       epsilon=spec["epsilon"], round_cap=spec["round_cap"])

        def build_twin(tmp: Path) -> dict:
            graph = load_webgraph(graph_dir / "graph", mmap=spec["mmap"])
            reference = np.load(graph_dir / "reference.npy")
            res = _run_to_eps(
                spec, graph, reference, _config(spec, codec=spec["twin_codec"])
            )
            (tmp / "twin.json").write_text(json.dumps({"ranks": digest(res.ranks)}))
            return {}

        dirs["twin"] = str(inputs.ensure(cache_dir, "twin", tparams, build_twin)[0])
    return dirs


def _prepare_serve(name: str, seed: int, cache_dir: Path) -> Dict[str, str]:
    spec = SERVE[name]
    params = {k: spec[k] for k in (
        "web_pages", "web_sites", "crawl_pages", "churn_per_batch",
        "crawl_budget", "batches", "query_rate", "batch_rate", "query_checks",
        "staleness_checks",
    )}
    params["seed"] = seed

    def build(tmp: Path) -> dict:
        from repro.crawl import Crawler, TrueWeb
        from repro.graph.io import save_webgraph
        from repro.serve import CrawlFeed

        web_seed, crawl_seed, churn_seed = (
            int(x) for x in _rng(seed, 3).integers(0, 2**31 - 1, size=3)
        )
        n = spec["web_pages"]
        web = TrueWeb(n, spec["web_sites"], seed=web_seed)
        crawler = Crawler(web, seeds=[0, n // 3, 2 * n // 3], seed=crawl_seed)
        crawler.crawl_until(spec["crawl_pages"])
        feed = CrawlFeed(crawler)
        initial = feed.initial_graph()
        save_webgraph(initial, tmp / "graph")
        batches = []
        for i in range(spec["batches"]):
            web.churn(spec["churn_per_batch"], seed=churn_seed + i)
            crawler.step(spec["crawl_budget"])
            b = feed.sync()
            batches.append(
                dict(
                    new_pages=b.new_pages,
                    add_links=b.add_links,
                    remove_links=b.remove_links,
                    external_delta=sorted(b.external_delta.items()),
                )
            )
        (tmp / "batches.json").write_text(json.dumps(batches))
        horizon = spec["batches"] / spec["batch_rate"]
        rng = _rng(seed, 4)
        n_queries = int(horizon * spec["query_rate"])
        stream = _query_stream(rng, n_queries, initial.n_pages, spec["query_checks"])
        # Poisson arrivals at the offered rate.
        stream["due"] = np.cumsum(
            rng.exponential(1.0 / spec["query_rate"], size=n_queries)
        )
        stream["stale_check"] = np.sort(
            rng.choice(spec["batches"], size=spec["staleness_checks"], replace=False)
        )
        np.savez(tmp / "queries.npz", **stream)
        return {"initial_pages": initial.n_pages}

    root, _ = inputs.ensure(cache_dir, "serve", params, build)
    return {"serve": str(root)}


# ----------------------------------------------------------------------
# One measured sample
# ----------------------------------------------------------------------
def _peak_rss_mb() -> float:
    """Peak RSS less the speed probe's arrays, which stay resident
    through the whole sample."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    return (peak - probe_bytes()) / 1024.0**2


class _Checks:
    """Counts attempted and failed operations with the reasons."""

    def __init__(self, tracer=None):
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []
        self._tracer = tracer

    def record(self, ok: bool, reason: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(reason)

    @contextlib.contextmanager
    def untraced(self):
        """Run the benchmark's own checks outside the layer spans."""
        if self._tracer is None:
            yield
            return
        self._tracer.paused = True
        try:
            yield
        finally:
            self._tracer.paused = False


def _probe(tracer):
    """The host speed probe, or None in traced samples (their times are
    not gated, and a probe would land in the layer spans)."""
    return speed_probe() if tracer is None else None


def _at_ref(seconds: float, before, after) -> float:
    """``seconds`` of work scaled to the reference host speed by the
    probes taken just before and after it (unscaled without probes)."""
    if before is None:
        return seconds
    return seconds * PROBE_REF_S / ((before + after) / 2.0)


def _span(tracer, name):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def _check_query(checks, kind, arg, answer, values) -> None:
    from repro.serve.index import (
        brute_force_percentile,
        brute_force_rank_of,
        brute_force_top_k,
    )

    if kind == 0:
        want = brute_force_top_k(values, arg)
        ok = np.array_equal(answer[0], want[0]) and np.array_equal(answer[1], want[1])
    elif kind == 1:
        ok = answer == brute_force_rank_of(values, arg)
    else:
        ok = answer == brute_force_percentile(values, arg)
    checks.record(bool(ok), f"query kind {kind} arg {arg} disagrees with brute force")


def _latency_summary(latencies: List[float], scale: float, qs) -> Dict[str, float]:
    n = len(latencies)
    for q in qs:
        if samples_beyond(n, q) < 10:
            raise ValueError(f"{n} samples leave fewer than ten beyond p{q:g}")
    return {q: percentile(latencies, q) * scale for q in qs}


def measure(
    name: str,
    dirs: Dict[str, str],
    *,
    setup_only: bool = False,
    tracer=None,
) -> dict:
    """One sample: set up, then (unless ``setup_only``) run and check."""
    if name in SERVE:
        return _measure_serve(name, dirs, setup_only=setup_only, tracer=tracer)
    spec = RANKING[name]
    from repro.graph.io import load_webgraph
    from repro.graph.partition import make_partition
    from repro.serve.index import RankIndex

    graph_dir = Path(dirs["graph"])
    reference = np.load(graph_dir / "reference.npy")
    config = _config(spec)
    engine_class = _engine_class(spec)
    checks = _Checks(tracer)

    with _span(tracer, "bench.setup"):
        before = _probe(tracer)
        t0 = clock()
        graph = load_webgraph(graph_dir / "graph", mmap=spec["mmap"])
        partition = make_partition(graph, config.n_groups, config.partition_strategy)
        engine = engine_class(graph, config, partition=partition, reference=reference)
        setup_wall_s = clock() - t0
        setup_s = _at_ref(setup_wall_s, before, _probe(tracer))
    out = {"setup_s": setup_s, "setup_wall_s": setup_wall_s}
    if setup_only:
        return out

    # The round clock: the engine assembles ranks once per monitor
    # sample (every round here) and once at the end, so timestamps at
    # those calls split the run into per-round wall times.  Untraced
    # samples also time the host speed probe at every round boundary,
    # outside the rounds, and scale each round to the reference speed
    # by the mean of the two probes around it.
    marks: List[Tuple[float, float]] = []
    probes = []

    def boundary():
        end = clock()
        probes.append(_probe(tracer))
        marks.append((end, clock()))

    assemble = engine.assemble_ranks

    def stamped(*args, **kwargs):
        boundary()
        return assemble(*args, **kwargs)

    engine.assemble_ranks = stamped
    period = spec["period"]
    with _span(tracer, "bench.run"):
        boundary()
        res = engine.run(
            max_time=spec["round_cap"] * period + period / 2.0,
            target_relative_error=spec["epsilon"],
        )
        boundary()
    del engine, assemble
    round_wall_s = [b[0] - a[1] for a, b in zip(marks, marks[1:])]
    round_s = [_at_ref(r, p, q) for r, p, q in zip(round_wall_s, probes, probes[1:])]
    run_s = sum(round_wall_s)

    with checks.untraced():
        checks.record(
            bool(res.converged) and res.final_relative_error <= spec["epsilon"],
            f"missed eps={spec['epsilon']:g} within {spec['round_cap']} rounds "
            f"(error {res.final_relative_error:.3e})",
        )
        if "twin" in dirs:
            twin = json.loads((Path(dirs["twin"]) / "twin.json").read_text())
            checks.record(
                digest(res.ranks) == twin["ranks"],
                f"ranks differ from codec={spec['twin_codec']}",
            )
        if spec.get("scenario"):
            want = expected_crashes(config)
            checks.record(
                res.crashed_groups == want and res.takeovers == want,
                f"crashes/takeovers {res.crashed_groups}/{res.takeovers}, "
                f"scenario schedules {want}",
            )

    # Publish the ranks and serve the workload's query stream from them.
    # RankIndex sorts its buckets lazily on first use; that one-off cost
    # per publish is paid here by one untimed pass over the stream, so
    # the timed pass measures steady-state reads.
    ranks = res.ranks
    stream = _load_stream(Path(dirs["queries"]) / "queries.npz")
    with _span(tracer, "bench.publish"):
        t0 = clock()
        index = RankIndex(np.arange(ranks.size, dtype=np.int64), ranks)
        for i in range(stream["kind"].size):
            _ask(index, *_query(stream, i))
        publish_s = clock() - t0
    query_wall_s, query_s = _serve_queries(
        index, stream, ranks, checks, tracer is None and spec["scale_queries"]
    )

    traffic = res.traffic
    out.update(
        time_to_eps_s=sum(round_s),
        time_to_eps_wall_s=run_s,
        round_s=round_s,
        probe_ms=statistics.median(probes) * 1e3 if tracer is None else 0.0,
        rounds_to_eps=int(res.max_outer_iterations),
        wire_bytes_to_eps=int(traffic.data_bytes),
        messages_to_eps=int(traffic.total_messages),
        query_s=query_s,
        **_query_metrics(query_s),
        peak_rss_mb=_peak_rss_mb(),
        queue_wait_s=0.0,
        attempted=checks.attempted,
        failed=checks.failed,
        reasons=checks.reasons,
        busy_s=setup_wall_s + run_s + publish_s + sum(query_wall_s),
        identity=dict(
            ranks=digest(res.ranks),
            traffic=[int(x) for x in (
                traffic.data_messages, traffic.data_bytes, traffic.lookup_messages,
                traffic.lookup_bytes, traffic.ack_messages, traffic.ack_bytes,
                traffic.paper_data_bytes,
            )],
            rounds=int(res.max_outer_iterations),
            faults=[res.retransmits, res.gave_up, res.dup_drops, res.acks_lost,
                    res.crashed_groups, res.takeovers, res.checkpoint_saves],
        ),
        result=_result_counters(res),
        cut_links=_cut_links(graph, partition) if tracer is not None else 0,
    )
    return out


def _tail(latencies: List[float], scale: float) -> dict:
    """The highest percentile with ten samples beyond it, with the count."""
    q = tail_percentile(len(latencies))
    return {"p": q, "value": percentile(latencies, q) * scale, "n": len(latencies)}


def _query_metrics(latencies: List[float]) -> dict:
    p = _latency_summary(latencies, 1e6, (50.0, 99.0))
    return {
        "query_p50_us": p[50.0],
        "query_p99_us": p[99.0],
        "query_tail_us": _tail(latencies, 1e6),
    }


def _load_stream(path: Path) -> Dict[str, np.ndarray]:
    """All arrays of a stream file, read once (``NpzFile`` re-reads an
    array from the archive on every item access)."""
    with np.load(path) as npz:
        return {k: npz[k] for k in npz.files}


def _query(stream, i: int):
    """``(kind, argument)`` of query ``i`` of a stream."""
    k = int(stream["kind"][i])
    if k == 0:
        return k, TOP_K
    if k == 1:
        return k, int(stream["page"][i])
    return k, float(stream["q"][i])


def _serve_queries(index, stream, values, checks, scale: bool):
    """Closed-loop replay of a read-only query stream: one client asks
    back to back, so each latency is that query's service time.

    With ``scale``, the host speed probe runs between blocks of
    ``QUERY_BLOCK`` queries and each block's latencies are scaled by
    the probes around it.  Returns ``(wall latencies, latencies)``.
    """
    check = set(stream["check"].tolist())
    n = stream["kind"].size
    latencies: List[float] = []
    scaled: List[float] = []
    before = speed_probe() if scale else None
    for i in range(n):
        k, arg = _query(stream, i)
        t0 = clock()
        answer = _ask(index, k, arg)
        latencies.append(clock() - t0)
        if i in check:
            with checks.untraced():
                _check_query(checks, k, arg, answer, values)
        else:
            checks.attempted += 1
        if (i + 1) % QUERY_BLOCK == 0 or i + 1 == n:
            after = speed_probe() if scale else None
            scaled += [_at_ref(x, before, after) for x in latencies[len(scaled):]]
            before = after
    return latencies, scaled


def _ask(index, kind: int, arg):
    if kind == 0:
        return index.top_k(arg)
    if kind == 1:
        return index.rank_of(arg)
    return index.percentile(arg)


def _result_counters(res) -> dict:
    codec = res.codec_stats or {}
    return dict(
        retransmits=res.retransmits,
        gave_up=res.gave_up,
        dup_drops=res.dup_drops,
        dead_drops=res.dead_drops,
        acks_lost=res.acks_lost,
        data_messages=int(res.traffic.data_messages),
        ack_messages=int(res.traffic.ack_messages),
        fast_rounds=res.fast_rounds,
        replayed_rounds=res.replayed_rounds,
        takeovers=res.takeovers,
        checkpoint_saves=res.checkpoint_saves,
        crashed_groups=res.crashed_groups,
        exact_flushes=int(codec.get("exact_flushes", 0)),
        entries_sent=int(codec.get("entries_sent", 0)),
    )


def _cut_links(graph, partition) -> int:
    """Internal links whose endpoints land in different groups."""
    group_of = partition.group_of
    src_group = np.repeat(group_of, np.diff(np.asarray(graph.indptr)))
    return int(np.count_nonzero(src_group != group_of[np.asarray(graph.indices)]))


def _measure_serve(name, dirs, *, setup_only, tracer) -> dict:
    spec = SERVE[name]
    from repro.core.pagerank import pagerank_open
    from repro.graph.io import load_webgraph
    from repro.linalg.norms import relative_l1_error
    from repro.serve import MutationBatch, RankServer

    root = Path(dirs["serve"])
    checks = _Checks(tracer)
    graph = load_webgraph(root / "graph")
    with _span(tracer, "bench.setup"):
        before = _probe(tracer)
        t0 = clock()
        server = RankServer(
            graph, n_groups=spec["n_groups"], epsilon=spec["epsilon"], salt=spec["salt"]
        )
        setup_wall_s = clock() - t0
        setup_s = _at_ref(setup_wall_s, before, _probe(tracer))
    out = {"setup_s": setup_s, "setup_wall_s": setup_wall_s}
    if setup_only:
        return out

    batches = [
        MutationBatch(
            new_pages=b["new_pages"],
            add_links=[tuple(x) for x in b["add_links"]],
            remove_links=[tuple(x) for x in b["remove_links"]],
            external_delta={int(p): int(d) for p, d in b["external_delta"]},
        )
        for b in json.loads((root / "batches.json").read_text())
    ]
    stream = _load_stream(root / "queries.npz")
    q_due = stream["due"]
    query_check = set(stream["check"].tolist())
    stale_check = set(stream["stale_check"].tolist())

    # One arrival-ordered schedule: batches at a fixed cadence, queries
    # at their Poisson due times.  Negative ids are batches.
    b_due = (np.arange(len(batches)) + 0.5) / spec["batch_rate"]
    due = np.concatenate([b_due, q_due])
    ids = np.concatenate([-1 - np.arange(len(batches)), np.arange(q_due.size)])
    order = np.argsort(due, kind="stable")
    due, ids = due[order].tolist(), ids[order].tolist()
    mutations = 0
    # The open loop runs on service times scaled to the reference host
    # speed (untraced samples): a batch by the probes just before and
    # after it, a query by the latest probe.
    speed = [_probe(tracer)]
    wall: List[float] = []

    def service(i: int) -> float:
        nonlocal mutations
        j = ids[i]
        if j < 0:
            b = -1 - j
            t0 = clock()
            server.apply(batches[b])
            dt = clock() - t0
            wall.append(dt)
            speed.append(_probe(tracer))
            mutations += len(batches[b])
            with checks.untraced():
                if b in stale_check:
                    certified = server.staleness()
                    exact = pagerank_open(server.ranker.current_graph(), tol=1e-12).ranks
                    drift = relative_l1_error(server.ranker.ranks, exact)
                    checks.record(
                        certified <= spec["epsilon"] and drift <= certified,
                        f"batch {b}: certified {certified:.3e}, drift {drift:.3e}",
                    )
                else:
                    checks.attempted += 1
            return _at_ref(dt, speed[-2], speed[-1])
        k, arg = _query(stream, j)
        t0 = clock()
        answer = _ask(server.index, k, arg)
        dt = clock() - t0
        wall.append(dt)
        if j in query_check:
            with checks.untraced():
                _check_query(checks, k, arg, answer, server.ranker.ranks)
        else:
            checks.attempted += 1
        return _at_ref(dt, speed[-1], speed[-1])

    with _span(tracer, "bench.serve"):
        latencies, waits = open_loop(due, service)
    is_batch = [j < 0 for j in ids]
    upd = [lat for lat, b in zip(latencies, is_batch) if b]
    qry = [lat for lat, b in zip(latencies, is_batch) if not b]
    q_wait = [w for w, b in zip(waits, is_batch) if not b]
    up = _latency_summary(upd, 1e3, (50.0, 90.0))
    update_tail = _tail(upd, 1e3)
    busy = [lat - w for lat, w in zip(latencies, waits)]
    stall = sum(b for b, isb in zip(busy, is_batch) if isb)
    out.update(
        time_to_eps_s=statistics.median(upd),
        update_ms_p50=up[50.0],
        update_ms_p90=up[90.0],
        update_tail_ms=update_tail,
        **_query_metrics(qry),
        peak_rss_mb=_peak_rss_mb(),
        queue_wait_s=float(sum(q_wait)),
        stall_share=stall / (due[-1] - due[0]),
        probe_ms=statistics.median(speed) * 1e3 if tracer is None else 0.0,
        mutations=mutations,
        attempted=checks.attempted,
        failed=checks.failed,
        reasons=checks.reasons,
        busy_s=setup_wall_s + float(sum(wall)),
        identity=dict(ranks=digest(server.ranker.ranks)),
        result={},
        cut_links=0,
    )
    return out
