"""Installing the tracing wrappers changes no result, only records spans."""

import numpy as np
import pytest

import tracer as tr
import workloads
from layers import layer_metrics


@pytest.fixture(scope="module")
def graph():
    from repro.graph.generators import google_contest_like

    return google_contest_like(3000, 60, seed=4)


@pytest.fixture(scope="module")
def reference(graph):
    from repro.core.pagerank import pagerank_open

    return pagerank_open(graph).ranks


def fingerprint(res):
    t = res.traffic
    return (
        res.ranks.tobytes(),
        (t.data_messages, t.data_bytes, t.lookup_messages, t.lookup_bytes,
         t.ack_messages, t.ack_bytes, t.paper_data_bytes),
        res.max_outer_iterations,
        (res.retransmits, res.gave_up, res.dup_drops, res.acks_lost,
         res.crashed_groups, res.takeovers, res.checkpoint_saves),
        sorted((res.codec_stats or {}).items()),
    )


def traced(fn, n_pages):
    tracer = tr.Tracer()
    patches = tr.install(tracer, n_pages)
    try:
        out = fn()
    finally:
        patches.undo()
    return out, tracer


@pytest.mark.parametrize("name", sorted(workloads.RANKING))
def test_ranking_workloads_bit_identical_under_tracing(name, graph, reference):
    spec = workloads.RANKING[name]
    config = workloads._config(spec, n_groups=8)

    def run():
        return workloads._run_to_eps(spec, graph, reference, config)

    plain = run()
    res, tracer = traced(run, graph.n_pages)
    again = run()
    assert fingerprint(res) == fingerprint(plain) == fingerprint(again)
    names = {s[1] for s in tracer.spans}
    assert {"core.engine.init", "core.engine.run", "linalg.operators.assemble",
            "linalg.jacobi.spmv_cut", "overlay.build"} <= names
    layers = layer_metrics(tracer, {"result": workloads._result_counters(res)}, 1.0)
    if spec["config"]["codec"] == "delta":
        assert layers["net.adaptive.encode_calls"] > 0
        assert layers["overlay.route_calls"] > 0
    else:
        assert layers["net.adaptive.encode_calls"] == 0
    if spec.get("scenario"):
        assert layers["core.recovery.takeovers"] > 0


def test_serving_bit_identical_under_tracing():
    from repro.crawl import Crawler, TrueWeb
    from repro.serve import CrawlFeed, RankServer

    web = TrueWeb(3000, 30, seed=2)
    crawler = Crawler(web, seeds=[0, 1500], seed=3)
    crawler.crawl_until(2000)
    feed = CrawlFeed(crawler)
    initial = feed.initial_graph()
    batches = []
    for i in range(4):
        web.churn(8, seed=10 + i)
        crawler.step(20)
        batches.append(feed.sync())

    def serve():
        server = RankServer(initial, n_groups=4, epsilon=1e-3)
        answers = []
        for b in batches:
            server.apply(b)
            answers.append((server.top_k(5)[0].tolist(), server.rank_of(7),
                            server.percentile(50.0)))
        return server.ranker.ranks.tobytes(), answers

    plain = serve()
    out, tracer = traced(serve, -1)
    assert out == plain
    layers = layer_metrics(tracer, {}, 1.0)
    assert layers["serve.incremental.updates"] == len(batches)
    assert layers["serve.incremental.mutations"] == sum(len(b) for b in batches)
    assert layers["serve.index.topk_calls"] == len(batches)
    assert layers["serve.index.build_s"] > 0


def test_undo_restores_every_binding():
    import repro.core.hybrid as hybrid
    import repro.linalg.jacobi as jacobi
    from repro.core.engine import SynchronousEngine

    before = (jacobi.csr_matvec_into, hybrid.csr_matvec_into,
              hybrid.jacobi_solve, SynchronousEngine.__dict__["run"])
    patches = tr.install(tr.Tracer(), 10)
    assert hybrid.csr_matvec_into is not before[1]
    assert jacobi.csr_matvec_into is hybrid.csr_matvec_into
    patches.undo()
    after = (jacobi.csr_matvec_into, hybrid.csr_matvec_into,
             hybrid.jacobi_solve, SynchronousEngine.__dict__["run"])
    assert after == before


def test_paused_tracer_records_nothing():
    import repro.linalg.jacobi as jacobi
    import scipy.sparse as sp

    tracer = tr.Tracer()
    patches = tr.install(tracer, 10)
    try:
        p = sp.identity(4, format="csr") * 0.5
        tracer.paused = True
        jacobi.jacobi_solve(p, np.ones(4))
        tracer.paused = False
        jacobi.jacobi_solve(p, np.ones(4))
    finally:
        patches.undo()
    assert [s[1] for s in tracer.spans] == ["linalg.jacobi.solve"]
