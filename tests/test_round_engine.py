"""One round engine behind ``engine="flat"`` and ``engine="hybrid"``.

The cross-engine equivalence contracts live in
``test_engine_equivalence.py`` and ``test_hybrid.py``; these tests pin
the structure they rely on: a single engine class, state bounded by
the pair universe rather than the round count, the round split
counters, and the run loop shared with the Monte-Carlo engine.
"""

import numpy as np
import pytest

from repro.core.coordinator import DistributedConfig, run_distributed_pagerank
from repro.core.engine import MonteCarloEngine, SynchronousEngine
from repro.graph import google_contest_like

T = 10.0


@pytest.fixture(scope="module")
def graph():
    return google_contest_like(400, 10, seed=11)


def test_hybrid_engine_is_the_round_engine():
    from repro.core.hybrid import HybridEngine

    assert HybridEngine is SynchronousEngine
    assert SynchronousEngine.__subclasses__() == []


def test_long_async_run_keeps_no_per_send_set_state(graph):
    """Async masks make a different send set almost every round; the
    engine must not cache anything per send set, so every dict it
    holds stays bounded by the (src, dst) pair universe."""
    cfg = DistributedConfig(
        n_groups=8,
        engine="hybrid",
        schedule="async",
        algorithm="dpr2",
        transport="direct",
        partition_strategy="url",
        t1=2.0,
        t2=18.0,
        mean_waits=[13.0, 17.0, 19.0, 23.0, 29.0, 31.0, 37.0, 41.0],
        seed=5,
        sample_interval=100 * T,
    )
    from repro.core.hybrid import HybridEngine

    engine = HybridEngine(graph, cfg)
    result = engine.run(max_time=400 * T + 5.0)
    assert result.replayed_rounds == 400
    assert len(set(result.outer_iterations.tolist())) > 1
    n_pairs = len(engine._pairs)
    for name, value in vars(engine).items():
        if isinstance(value, dict):
            assert len(value) <= n_pairs, name


@pytest.mark.parametrize("engine", ["flat", "hybrid"])
def test_exact_runs_count_fast_rounds(graph, engine):
    result = run_distributed_pagerank(
        graph,
        n_groups=8,
        engine=engine,
        schedule="sync",
        algorithm="dpr2",
        t1=T,
        t2=T,
        sample_interval=T,
        max_time=8 * T + 5.0,
    )
    assert result.fidelity == "exact"
    assert (result.fast_rounds, result.replayed_rounds) == (8, 0)
    assert np.array_equal(result.outer_iterations, np.full(8, 8))


@pytest.mark.parametrize("engine", ["flat", "mc"])
def test_sample_clock_drift_raises_on_every_round_engine(graph, engine):
    # 0.1 accumulated six times is 0.6000000000000001, while the
    # sample clock's 0.2 + 0.2 + 0.2 is 0.6: the clocks disagree.
    with pytest.raises(ValueError, match="sample clock drifted"):
        run_distributed_pagerank(
            graph,
            n_groups=4,
            engine=engine,
            schedule="sync",
            algorithm="dpr2",
            t1=0.1,
            t2=0.1,
            sample_interval=0.2,
            max_time=5.0,
        )


def test_mc_run_stops_at_token_exhaustion(graph):
    cfg = DistributedConfig(
        n_groups=4, engine="mc", schedule="sync", t1=T, t2=T, walks_per_page=2
    )
    engine = MonteCarloEngine(graph, cfg)
    result = engine.run(max_time=1e6)
    assert engine.state.alive == 0
    # The run ends at the first sample that sees an empty ensemble (the
    # one after the last round), long before max_time.
    assert result.trace.times[-1] == (result.max_outer_iterations + 1) * T
