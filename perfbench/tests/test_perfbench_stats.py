"""Span self time, the tail-percentile rule, open-loop accounting and
how samples combine into a run's figures."""

import pytest

from stats import open_loop, percentile, samples_beyond, tail_percentile
from tracer import Tracer, self_times


def span(sid, name, start, end, parent=-1):
    return [sid, name, start, end, parent, 0]


class TestSelfTime:
    def test_leaf_span_is_all_self(self):
        assert self_times([span(0, "a", 1.0, 3.5)]) == {"a": (2.5, 1)}

    def test_nested_children_are_subtracted_once(self):
        spans = [
            span(0, "run", 0.0, 10.0),
            span(1, "solve", 1.0, 4.0, 0),
            span(2, "spmv", 2.0, 3.0, 1),  # grandchild: only solve loses it
            span(3, "solve", 5.0, 7.0, 0),
        ]
        st = self_times(spans)
        assert st["run"] == pytest.approx((5.0, 1))
        assert st["solve"] == pytest.approx((4.0, 2))
        assert st["spmv"] == pytest.approx((1.0, 1))
        # Self times partition the root's wall time.
        assert sum(v[0] for v in st.values()) == pytest.approx(10.0)

    def test_overlapping_siblings_count_their_union(self):
        spans = [
            span(0, "root", 0.0, 10.0),
            span(1, "x", 1.0, 5.0, 0),
            span(2, "y", 3.0, 6.0, 0),
            span(3, "z", 9.0, 12.0, 0),  # clipped to the parent's end
        ]
        assert self_times(spans)["root"][0] == pytest.approx(10.0 - 5.0 - 1.0)

    def test_tracer_records_parents(self):
        tr = Tracer(run_id=7)
        with tr.span("outer"):
            with tr.span("inner"):
                pass
            with tr.span("inner"):
                pass
        outer, first, second = tr.spans
        assert first[4] == second[4] == outer[0]
        assert outer[4] == -1
        assert {s[5] for s in tr.spans} == {7}
        st = self_times(tr.spans)
        assert st["inner"][1] == 2
        total = outer[3] - outer[2]
        assert st["outer"][0] + st["inner"][0] == pytest.approx(total)


class TestTailRule:
    def test_samples_beyond(self):
        assert samples_beyond(100, 90.0) == 10
        assert samples_beyond(1000, 99.0) == 10
        assert samples_beyond(999, 99.0) == 9

    @pytest.mark.parametrize(
        "n, q",
        [(20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0), (1000, 99.0),
         (9999, 99.0), (10_000, 99.9), (200_000, 99.9)],
    )
    def test_highest_percentile_with_ten_beyond(self, n, q):
        assert tail_percentile(n) == q
        assert samples_beyond(n, q) >= 10

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            tail_percentile(19)

    def test_nearest_rank_percentile(self):
        values = list(range(1, 101))
        assert percentile(values, 50.0) == 50
        assert percentile(values, 90.0) == 90
        assert percentile(values, 100.0) == 100
        assert percentile([3.0], 99.0) == 3.0


class TestOpenLoop:
    def test_idle_server_latency_is_service_time(self):
        lat, wait = open_loop([0.0, 1.0, 2.0], lambda i: 0.25)
        assert lat == [0.25, 0.25, 0.25]
        assert wait == [0.0, 0.0, 0.0]

    def test_requests_queue_behind_a_stall(self):
        # A 1 s update at t=0 stalls the reads due at 0.1 and 0.5; the
        # read due at 2.0 finds the server idle again.
        service = [1.0, 0.01, 0.01, 0.01]
        lat, wait = open_loop([0.0, 0.1, 0.5, 2.0], lambda i: service[i])
        assert wait == pytest.approx([0.0, 0.9, 0.51, 0.0])
        assert lat == pytest.approx([1.0, 0.91, 0.52, 0.01])

    def test_latency_is_measured_from_due_time_not_start(self):
        # Overload: every request arrives at 0 and each takes 1 s.
        lat, wait = open_loop([0.0] * 4, lambda i: 1.0)
        assert lat == [1.0, 2.0, 3.0, 4.0]
        assert wait == [0.0, 1.0, 2.0, 3.0]

    def test_service_runs_once_per_request_in_due_order(self):
        calls = []
        open_loop([0.0, 0.5, 0.5], lambda i: calls.append(i) or 0.0)
        assert calls == [0, 1, 2]


class TestAggregate:
    def sample(self, rounds, queries, **extra):
        return dict(round_s=rounds, query_s=queries, time_to_eps_s=sum(rounds),
                    peak_rss_mb=100.0, query_p50_us=0.0, query_p99_us=0.0, **extra)

    def test_per_round_and_per_query_medians(self):
        import run

        # Each sample has one slow round and one slow query, at different
        # positions: the per-item medians drop all three.
        full = [
            self.sample([1.0, 9.0, 1.0], [1e-6] * 99 + [1e-6]),
            self.sample([1.0, 1.0, 9.0], [5e-6] + [1e-6] * 99),
            self.sample([9.0, 1.0, 1.0], [1e-6] * 50 + [5e-6] + [1e-6] * 49),
        ]
        metrics, problems = run.aggregate(full)
        assert problems == []
        assert metrics["time_to_eps_s"] == pytest.approx(3.0)
        assert metrics["query_p99_us"] == pytest.approx(1.0)
        assert metrics["peak_rss_mb"] == 100.0

    def test_round_count_mismatch_is_a_problem(self):
        import run

        full = [self.sample([1.0, 2.0], [1e-6] * 10), self.sample([1.0], [1e-6] * 10)]
        metrics, problems = run.aggregate(full)
        assert problems and metrics["time_to_eps_s"] == pytest.approx(2.0)


class TestReferenceSpeed:
    def test_scales_by_the_mean_of_the_probes_around_the_span(self):
        from host import PROBE_REF_S
        from workloads import _at_ref

        # A host at half the reference speed: probes take twice as long.
        slow = 2 * PROBE_REF_S
        assert _at_ref(3.0, slow, slow) == pytest.approx(1.5)
        assert _at_ref(3.0, PROBE_REF_S, 3 * PROBE_REF_S) == pytest.approx(1.5)

    def test_traced_samples_stay_unscaled(self):
        from workloads import _at_ref, _probe

        assert _probe(tracer=object()) is None
        assert _at_ref(3.0, None, None) == 3.0

    def test_probe_times_real_work(self):
        from host import speed_probe

        assert 0.0 < speed_probe() < 1.0
