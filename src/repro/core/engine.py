"""The round engines: one bulk-synchronous loop for ``flat`` and ``hybrid``.

The event engine (:class:`~repro.core.coordinator.DistributedRun`)
replays every score update as a simulator event: one Python object per
(source, destination) pair per outer loop, one heap operation per
delivery, one ``DPRNode.receive`` per update.  The paper's DPR1/DPR2
(§4.2) are one outer loop — compute, emit Y, deliver — and when every
ranker ticks on a common round grid that loop collapses into sparse
linear algebra.  :class:`SynchronousEngine` runs it, for both
``engine="flat"`` and ``engine="hybrid"``.  Each round at tick ``t``
does four things in order:

1. **advance the fault plane** (only when the config has one — the
   one fault stack of :mod:`repro.core.faults`, built over shadow
   rankers by :mod:`repro.core.hybrid`): crashes, pauses, heartbeat
   sweeps, checkpoints, takeovers, retransmissions and in-flight
   deliveries up to ``t`` land on the same timeline the event engine
   would use;
2. **pick the groups that step**: all of them, unless the async rate
   credit, a pause or a crash masks some;
3. **compute**: one per-group loop mirroring
   :meth:`repro.core.dpr.DPRNode.step` (a DPR2 sweep or a warm-started
   DPR1 Jacobi solve, sharing one
   :class:`~repro.linalg.jacobi.JacobiWorkspace`), then one SpMV of
   the whole-system *cut matrix* — every group's stacked efferent
   operator, compressed to its structurally nonzero rows — yielding
   every efferent vector ``Y`` of the round;
4. **deliver** through one pipeline: the round's sends are built once,
   in emission order (suppression, then codec encode, then the loss
   draw), and handed to one of four back-ends fixed at construction:

   * the *calibrated SpMV* (sync, lossless, uncoded, unfaulted): the
     round's traffic is one cached calibration replay merged into the
     main accountant, and delivery plus afferent refresh are one SpMV
     ``X = F·Y`` against a 0/1 afferent matrix whose per-row storage
     order replays the calibrated arrival order;
   * *scratch replay*: the surviving sends are routed through the real
     transport classes on a fresh simulator (cost proportional to the
     sends, independent of page count), and the segments apply in the
     observed delivery order;
   * *ARQ replay* (reliable + direct): each send's whole ARQ
     conversation resolves at its sending round
     (:class:`~repro.core.faults._ReplayARQ`, driving the same
     :class:`~repro.net.reliable.ARQRules` as the reliable transport);
   * the fault plane's *live transport*: real update objects through
     the real (optionally reliable) transport on the persistent
     simulator.

Bit-identity
------------
On synchronous fault-free configs the engine is not approximately
equivalent to the event engine — it is **bit-identical**, which the
equivalence tests assert.  The reasoning:

* per-group kernels run the same operators over the same stored values
  as ``DPRNode.step``, so IEEE non-associativity never enters;
* the cut-matrix SpMV reproduces each group's stacked efferent product
  row for row; dropping the cut matrix's structurally *empty* rows is
  exact because every score is nonnegative, so the event engine's adds
  of those always-``+0.0`` elements (``x + 0.0 == x`` bitwise for
  ``x ≥ +0.0``) never change a single bit of any afferent sum;
* afferent sums: a :class:`~repro.core.dpr.DPRNode` re-sums its newest
  per-source vectors in *first-arrival order* (dict insertion order).
  The replay back-ends keep the same insertion-ordered dict per
  destination, appending sources in the delivery order the real
  transports produce.  On the calibrated-SpMV back-end every source
  re-arrives every round, and scipy's CSR kernel accumulates each
  output row over its stored entries *in storage order*, which ``F``
  lays out in arrival order;
* loss draws: the Bernoulli stream is consumed in (source group
  ascending, destination ascending) order, exactly the order rankers
  tick and emit in a synchronous event round.

Faulted, suppressed or async runs report ``fidelity="approximate"``;
DESIGN.md §13 documents that contract.  Results come back as the same
:class:`~repro.core.coordinator.RunResult` via the shared
:func:`~repro.core.coordinator.assemble_run_result` reporting path.
"""

from __future__ import annotations

import math
from itertools import groupby
from typing import Dict, List, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from repro.core.capabilities import requested_features
from repro.core.convergence import ConvergenceTrace
from repro.core.coordinator import (
    DistributedConfig,
    RunResult,
    assemble_run_result,
)
from repro.core.open_system import GroupSystem
from repro.core.ranker import MIN_MEAN_WAIT
from repro.graph.partition import Partition, make_partition
from repro.graph.webgraph import WebGraph
from repro.linalg.jacobi import JacobiWorkspace, csr_matvec_into, jacobi_solve
from repro.linalg.norms import l1_norm
from repro.net.bandwidth import TrafficAccountant
from repro.net.failures import BernoulliLoss, NoLoss
from repro.net.latency import FixedLatency
from repro.net.codec import token_frame_bytes
from repro.net.message import LINK_RECORD_BYTES, ScoreUpdate
from repro.net.simulator import Simulator
from repro.net.transport import build_transport
from repro.overlay import build_overlay
from repro.utils.memory import trim_heap
from repro.utils.rng import SeedSequenceFactory

__all__ = ["MonteCarloEngine", "SynchronousEngine"]

#: Shared zero-length payload for calibration ScoreUpdates — the
#: transports only read routing metadata and ``n_link_records``.
_EMPTY = np.empty(0, dtype=np.float64)

#: Config features that need the event-simulated fault plane.
_PLANE_FEATURES = frozenset(
    {"reliable", "pause", "crash", "heartbeat", "checkpoint", "recovery"}
)


def _replay_transport_round(
    config: DistributedConfig,
    overlay,
    sends: List[Tuple],
) -> Tuple[List[Tuple[int, int]], TrafficAccountant]:
    """Route one round's sends through the real transport stack.

    Each send starts ``(src_group, dst_group, n_records, wire_bytes)``
    (later elements are ignored), in emission order: sources
    ascending, destinations ascending within a source — the order
    rankers tick and emit in a synchronous round.  ``wire_bytes`` is
    the encoded frame's calibrated size, or -1 for the paper's flat
    100 B/record charge (see :mod:`repro.net.bandwidth`).
    Returns the delivery order as (src, dst) in upcall sequence and a
    scratch accountant holding the round's exact traffic.  Updates are
    empty-payload (byte accounting only reads ``n_link_records``) on a
    fresh simulator, so the cost is O(sends) regardless of page count.

    Shared by :class:`SynchronousEngine` (cut-block record counts, per
    round frame sizes under a codec) and :class:`MonteCarloEngine`
    (per-round walk-token counts, a different number every round).
    """
    sim = Simulator()
    acc = TrafficAccountant(config.n_groups)
    kwargs = {}
    if config.transport == "indirect":
        kwargs["aggregation_delay"] = config.aggregation_delay
    transport = build_transport(
        config.transport,
        sim,
        overlay,
        acc,
        loss=NoLoss(),
        latency=FixedLatency(config.hop_delay),
        **kwargs,
    )
    order: List[Tuple[int, int]] = []
    transport.attach(
        lambda dst, update: order.append((update.src_group, dst))
    )
    for g, group in groupby(sends, key=lambda send: send[0]):
        transport.send_updates(
            g,
            [
                ScoreUpdate(
                    src_group=g,
                    dst_group=send[1],
                    values=_EMPTY,
                    n_link_records=send[2],
                    generation=0,
                    wire_bytes=send[3],
                )
                for send in group
            ],
        )
    sim.run()
    return order, acc


class _RoundEngine:
    """Construction, run loop and §4.4 estimate shared by the round engines.

    Builds the partition, overlay and accountant from the same named
    seed streams as the event engine.  Subclasses provide
    ``reference``, the hooks :meth:`_round`, :meth:`_observe`,
    :meth:`_progress`, :meth:`_quiet_now` and :meth:`_result_fields`
    (optionally :meth:`_exhausted`), and a public ``run`` that calls
    :meth:`_run_rounds` — defined on each engine class so that it can
    be timed per class from outside (perfbench's tracer wraps
    ``SynchronousEngine.run``).
    """

    def __init__(
        self,
        graph: WebGraph,
        config: DistributedConfig,
        partition: Optional[Partition],
        seeds: SeedSequenceFactory,
    ):
        self.graph = graph
        self.config = config
        self.partition = (
            partition
            if partition is not None
            else make_partition(
                graph,
                config.n_groups,
                config.partition_strategy,
                seed=seeds.seed("partition"),
            )
        )
        if self.partition.n_groups != config.n_groups:
            raise ValueError("partition n_groups disagrees with config")
        self.overlay = build_overlay(
            config.overlay, config.n_groups, seed=seeds.seed("overlay") % (2**31)
        )
        self.accountant = TrafficAccountant(config.n_groups)
        #: Updates suppressed by the loss model (same meaning as the
        #: transports' counter of the same name).
        self.dropped_updates = 0
        #: Common tick period of the synchronous schedule.
        self.period = max(0.5 * (config.t1 + config.t2), MIN_MEAN_WAIT)

    @property
    def n_groups(self) -> int:
        """Number of page groups (the paper's K)."""
        return self.config.n_groups

    def _exhausted(self) -> bool:
        """True once further rounds cannot change the estimate."""
        return False

    def _paper_estimate(self, w: float, pairs) -> Dict[str, float]:
        """Evaluate the §4.4 formulas for ``w`` records over ``pairs``.

        h is the mean overlay hop count over the communicating
        ``pairs``, g the overlay's mean neighbor count, N the ranker
        count (see :mod:`repro.analysis.cost_model`).
        """
        from repro.analysis.cost_model import (
            direct_data_bytes,
            direct_messages,
            indirect_data_bytes,
            indirect_messages,
        )

        k = self.config.n_groups
        hop_counts = [self.overlay.hops(g, h) for g, h in pairs]
        h_mean = float(np.mean(hop_counts)) if hop_counts else 0.0
        if self.config.transport == "indirect":
            return {
                "data_messages": indirect_messages(
                    k, self.overlay.mean_neighbor_count()
                ),
                "data_bytes": indirect_data_bytes(w, h_mean),
            }
        return {
            "data_messages": direct_messages(k, h_mean),
            "data_bytes": direct_data_bytes(w, h_mean, k),
        }

    def _run_rounds(
        self,
        max_time: float,
        target_relative_error: Optional[float],
        quiescence_delta: Optional[float],
        quiescence_samples: int,
    ) -> RunResult:
        """The run loop behind every round engine's :meth:`run`.

        Tick ``m`` runs at simulated time ``m × period`` (the exact
        float sequence the event engine's fixed waits produce), and a
        sample lands on every ``m``-th tick where
        ``sample_interval = m × period`` (config validation guarantees
        the whole-multiple ratio).  The sampling order replicates the
        event engine's :class:`~repro.core.convergence.Monitor`, whose
        sample at a tick always executes *before* that tick's ranker
        wakes (its event was scheduled a full interval earlier, so it
        carries the lower sequence number): the sample at tick ``m``
        therefore observes the rounds completed *before* it, and when
        it trips a stop condition the tick's round is never computed —
        exactly as the event simulator halts before processing the
        remaining same-time wakes.  The sample clock accumulates
        ``sample_interval`` separately from the tick clock (mirroring
        the monitor's relative rescheduling) so trace timestamps are
        bit-identical too; a drift between the two raises.  Stop
        conditions mirror the monitor: target relative error,
        quiescence (every group's last step delta at or below
        ``quiescence_delta`` for ``quiescence_samples`` consecutive
        samples), ``max_time``, or the engine reporting at a sample
        that further rounds cannot change its estimate.
        """
        cfg = self.config
        trace = ConvergenceTrace()
        converged = False
        target_time: Optional[float] = None
        quiescent = False
        quiescence_time: Optional[float] = None
        quiet_streak = 0

        # Sampling reuses one n-page buffer and the cached reference
        # norm so a long run allocates nothing per sample.  The error
        # below performs the exact subtract/abs/sum/divide sequence of
        # relative_l1_error (l1_norm(x - ref) / l1_norm(ref)), so the
        # recorded values are bit-identical to the event engine's; the
        # mean is taken before the in-place subtract clobbers ranks.
        ranks_buf = np.empty(self.graph.n_pages, dtype=np.float64)
        denom = l1_norm(self.reference)

        def sample(t: float) -> bool:
            """Record one trace point; True when the run should stop."""
            nonlocal converged, target_time, quiescent, quiescence_time, quiet_streak
            ranks = self._observe(ranks_buf, t)
            mean_rank = float(ranks.mean()) if ranks.size else 0.0
            np.subtract(ranks, self.reference, out=ranks)
            np.abs(ranks, out=ranks)
            num = float(ranks.sum())
            if denom == 0.0:
                err = 0.0 if num == 0.0 else math.inf
            else:
                err = num / denom
            trace.times.append(t)
            trace.relative_errors.append(err)
            trace.mean_ranks.append(mean_rank)
            max_outer, mean_outer = self._progress()
            trace.max_outer_iterations.append(max_outer)
            trace.mean_outer_iterations.append(mean_outer)
            snap = self.accountant.snapshot(t)
            trace.total_messages.append(snap.total_messages)
            trace.total_bytes.append(snap.total_bytes)
            if (
                target_relative_error is not None
                and err <= target_relative_error
                and not converged
            ):
                converged = True
                target_time = t
            if quiescence_delta is not None and not quiescent:
                quiet = self._quiet_now(quiescence_delta)
                quiet_streak = quiet_streak + 1 if quiet else 0
                if quiet_streak >= quiescence_samples:
                    quiescent = True
                    quiescence_time = t
            return converged or quiescent or self._exhausted()

        interval = float(cfg.sample_interval)
        every = int(round(interval / self.period))

        stop = sample(0.0)
        t = 0.0  # tick clock: accumulates the period like ranker waits
        t_s = 0.0  # sample clock: accumulates the monitor's interval
        k = 0
        while not stop:
            t_next = t + self.period
            if t_next > max_time:
                t = float(max_time)
                break
            t = t_next
            k += 1
            if k % every == 0:
                t_s = t_s + interval
                if t_s != t:
                    raise ValueError(
                        f"sample clock drifted from the tick clock "
                        f"({t_s!r} vs {t!r}): sample_interval and the "
                        "period accumulate differently in float "
                        "arithmetic; pick exactly representable values"
                    )
                if sample(t_s):
                    break
            self._round(t)

        # The sample buffer is dead after the loop, so the final
        # observation fills it and hands it to the result outright.
        ranks = self._observe(ranks_buf, t)
        return assemble_run_result(
            ranks=ranks,
            reference=self.reference,
            trace=trace,
            converged=converged,
            time_to_target=target_time,
            accountant=self.accountant,
            now=t,
            quiescent=quiescent,
            quiescence_time=quiescence_time,
            config=cfg,
            **self._result_fields(t),
        )


class SynchronousEngine(_RoundEngine):
    """Round engine behind ``engine="flat"`` and ``engine="hybrid"``.

    Construction mirrors :class:`~repro.core.coordinator.DistributedRun`
    (same partition, overlay, and loss streams from the same named
    seeds), flattens the K per-group cut operators into one global cut
    matrix, builds the fault plane when the config asks for faults,
    and fixes the delivery back-end (see the module docstring).
    :meth:`run` executes rounds at the common period
    ``max((t1+t2)/2, MIN_MEAN_WAIT)`` until ``max_time``, a target
    error, or quiescence — the same stop conditions the event engine's
    monitor applies.

    Parameters
    ----------
    graph, config:
        The crawl and the experiment parameters (``engine`` "flat" or
        "hybrid"; the capability table decides which knobs each
        accepts).
    partition, reference:
        Optional precomputed partition / centralized solution, exactly
        as accepted by ``DistributedRun``.
    """

    def __init__(
        self,
        graph: WebGraph,
        config: DistributedConfig,
        *,
        partition: Optional[Partition] = None,
        reference: Optional[np.ndarray] = None,
    ):
        seeds = SeedSequenceFactory(config.seed)
        super().__init__(graph, config, partition, seeds)
        self.system = GroupSystem(
            graph, self.partition, alpha=config.alpha, e=config.e
        )
        self.reference = (
            np.asarray(reference, dtype=np.float64)
            if reference is not None
            else self.system.solve_exact()
        )
        self._loss = (
            NoLoss()
            if config.delivery_prob >= 1.0
            else BernoulliLoss(config.delivery_prob, seed=seeds.generator("loss"))
        )

        k = config.n_groups
        blocks = self.system.blocks
        sizes = [blocks.group_size(g) for g in range(k)]
        offsets = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)
        self._slices = [slice(int(offsets[g]), int(offsets[g + 1])) for g in range(k)]
        n_total = int(offsets[-1])

        # One whole-system cut matrix: conceptually the block-diagonal
        # stack of every group's stacked efferent operator, compressed
        # to its structurally nonzero rows.  A dense efferent segment's
        # zero rows are always exactly +0.0 in the event engine too,
        # and adding +0.0 to a nonnegative score is a bitwise no-op, so
        # computing/summing only the nonzero rows is exact (see module
        # docstring).  Output segment g holds group g's efferent
        # vectors, destinations ascending.
        #
        # Assembled directly in compressed form, pair by pair: the
        # dense stack has K·n rows (gigabytes of row pointers alone at
        # 1e7 pages), while the compressed matrix is bounded by the cut
        # links.  Walking pairs in (source ascending, destination
        # ascending) order concatenates each cross block's stored data
        # verbatim in exactly the row order the block-diagonal stack
        # would produce, so the resulting matrix — and every SpMV over
        # it — is bit-identical to the dense-then-compress build.
        #
        # Alongside the matrix, per ordered (src, dst) pair in that
        # same emission order (also the event engine's loss draw
        # order): the pair's slice of the *compressed* Y vector, the
        # destination-local indices of its nonzero rows, and its
        # link-record count for byte accounting.
        idx_dtype = np.int32 if n_total <= np.iinfo(np.int32).max else np.int64
        self._pairs: List[Tuple[int, int, slice, np.ndarray, int]] = []
        data_parts: List[np.ndarray] = []
        idx_parts: List[np.ndarray] = []
        nnz_parts: List[np.ndarray] = []
        n_nz = 0
        for g in range(k):
            for h in blocks.destinations_of(g):
                block = blocks.cross[(g, h)]
                row_nnz = np.diff(block.indptr)
                local_idx = np.flatnonzero(row_nnz)
                data_parts.append(block.data)
                idx_parts.append(
                    block.indices.astype(idx_dtype) + idx_dtype(offsets[g])
                )
                nnz_parts.append(row_nnz[local_idx])
                self._pairs.append(
                    (
                        g,
                        h,
                        slice(n_nz, n_nz + int(local_idx.size)),
                        local_idx,
                        self.system.cross_records(g, h),
                    )
                )
                n_nz += int(local_idx.size)
        comp_indptr = np.zeros(n_nz + 1, dtype=idx_dtype)
        if nnz_parts:
            np.cumsum(
                np.concatenate(nnz_parts).astype(idx_dtype), out=comp_indptr[1:]
            )
        self._cut = sp.csr_matrix(
            (
                np.concatenate(data_parts)
                if data_parts
                else np.zeros(0, dtype=np.float64),
                np.concatenate(idx_parts)
                if idx_parts
                else np.zeros(0, dtype=idx_dtype),
                comp_indptr,
            ),
            shape=(n_nz, n_total),
        )
        self._pair_idx: Dict[Tuple[int, int], np.ndarray] = {
            (g, h): idx for g, h, _, idx, _ in self._pairs
        }
        #: Per-source sends ``(dst, compressed slice, index map,
        #: records)``, destinations ascending (the emission order).
        self._pairs_by_src: List[List[Tuple[int, slice, np.ndarray, int]]] = [
            [] for _ in range(k)
        ]
        for g, h, csl, idx, records in self._pairs:
            self._pairs_by_src[g].append((h, csl, idx, records))
        self._offsets = offsets
        # The cut matrix and pair tables above are the last copies the
        # engine needs of the cross-link structure; every later step
        # (calibration replay, afferent matrix, per-group solves,
        # result assembly) works off them and the diagonal blocks.
        blocks.release_cross()

        # Round state.  Group g's f = βE + X is assembled into one
        # shared max-group-size buffer right before its step.
        self._r = np.zeros(n_total, dtype=np.float64)
        self._x = np.zeros(n_total, dtype=np.float64)
        self._fbuf = np.empty(max(sizes) if sizes else 0, dtype=np.float64)
        self._y = np.zeros(n_nz, dtype=np.float64)
        # βE segment by segment straight from e_full — same products,
        # same bits as concatenating ``system.beta_e``, without forcing
        # that per-group list into existence.
        self._beta_e = np.empty(n_total, dtype=np.float64)
        for g in range(k):
            np.multiply(
                self.system.beta,
                self.system.e_full[blocks.pages[g]],
                out=self._beta_e[self._slices[g]],
            )
        #: Newest afferent vector (compressed to its nonzero elements)
        #: per source, per destination group — insertion-ordered
        #: exactly like ``DPRNode._latest_values`` — and its
        #: generation.  The replay back-ends fill them; the calibrated
        #: SpMV back-end writes X directly.
        self._latest: List[Dict[int, np.ndarray]] = [{} for _ in range(k)]
        self._gen_latest: List[Dict[int, int]] = [{} for _ in range(k)]
        #: Destinations holding undelivered-into-X mail (refresh set).
        self._mail: set = set()
        # Per-group solves run sequentially and copy their result out
        # before the next begins, so all K workspaces can be views of
        # one max-group-size allocation (3 vectors total, not 3·n).
        shared_ws = JacobiWorkspace(max(sizes) if sizes else 0)
        self._workspaces = [shared_ws.sliced(sizes[g]) for g in range(k)]
        self._last_delta = np.full(k, np.inf, dtype=np.float64)
        self._inner_sweeps = np.zeros(k, dtype=np.int64)
        self._outer = np.zeros(k, dtype=np.int64)
        self._stale = np.zeros(k, dtype=np.int64)
        #: Last shipped segment per pair (``suppress_tol`` only).
        self._last_sent: Dict[Tuple[int, int], np.ndarray] = {}
        self._rounds_run = 0
        #: Full-round calibration (delivery order, traffic) and the
        #: afferent matrix built from it, for the calibrated SpMV.
        self._calibration: Optional[Tuple[List[Tuple[int, int]], TrafficAccountant]] = None
        self._afferent: Optional[sp.csr_matrix] = None
        #: Shared wire-codec session manager (None when codec="none").
        #: One session per ordered pair, the same pair universe the
        #: event engine's DistributedRun builds, so the certified
        #: per-pair budgets — and every frame's byte size — agree
        #: across engines.
        self._codec = None
        if config.codec != "none":
            from repro.net.adaptive import AdaptiveCodec

            self._codec = AdaptiveCodec(
                config.codec,
                epsilon=config.comm_epsilon,
                n_pairs=len(self._pairs),
            )

        # Async rate credit: each group accrues period / mean_wait per
        # round and steps when its credit reaches 1 (consuming it).
        # Mean waits come from config.mean_waits or the event engine's
        # "wait-means" stream.
        self._async = config.schedule == "async"
        self._credit = np.zeros(k, dtype=np.float64)
        if self._async:
            if config.mean_waits is not None:
                waits = [float(w) for w in config.mean_waits]
            else:
                wait_rng = seeds.generator("wait-means")
                waits = [
                    float(wait_rng.uniform(config.t1, config.t2))
                    for _ in range(k)
                ]
            self._rates = np.array(
                [self.period / max(w, MIN_MEAN_WAIT) for w in waits],
                dtype=np.float64,
            )

        self._plane = None
        self._fsim: Optional[Simulator] = None
        self._arq = None
        if _PLANE_FEATURES.intersection(requested_features(config)):
            from repro.core.hybrid import build_fault_plane

            self._plane = build_fault_plane(self, seeds)
            self._fsim = self._plane.sim
            self._arq = self._plane.arq
        self._approx = bool(
            self._async or self._plane is not None or config.suppress_tol > 0.0
        )
        # The back-end is kept as a plain function, not a bound method:
        # a bound method would put the engine in a reference cycle and
        # keep its arrays alive after the caller drops it, until the
        # cyclic collector happens to run.
        if self._arq is not None:
            self._deliver = SynchronousEngine._deliver_arq
        elif self._plane is not None:
            self._deliver = SynchronousEngine._deliver_live
        elif self._approx or self._codec is not None or config.delivery_prob < 1.0:
            self._deliver = SynchronousEngine._deliver_replay
        else:
            self._deliver = SynchronousEngine._deliver_afferent

        # The grouped-operator build churned through chunk temporaries
        # whose freed pages glibc retains; hand them back so the run's
        # steady-state growth starts from the live set and the process
        # high-water stays at the build peak (see repro.utils.memory).
        trim_heap()

    def run(
        self,
        *,
        max_time: float = 1000.0,
        target_relative_error: Optional[float] = None,
        quiescence_delta: Optional[float] = None,
        quiescence_samples: int = 3,
    ) -> RunResult:
        """Execute rounds until a stop condition; gather a RunResult.

        See :meth:`_RoundEngine._run_rounds` for the clocks and stop
        conditions.
        """
        return self._run_rounds(
            max_time, target_relative_error, quiescence_delta, quiescence_samples
        )

    # ------------------------------------------------------------------
    def group_ranks(self) -> List[np.ndarray]:
        """Current per-group local rank vectors (views, group order)."""
        return [self._r[self._slices[g]] for g in range(self.n_groups)]

    def assemble_ranks(self, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Current global rank vector in original page order."""
        return self.system.assemble(self.group_ranks(), out=out)

    def _full_round(self) -> Tuple[List[Tuple[int, int]], TrafficAccountant]:
        """Calibration replay of one round in which every pair sends."""
        if self._calibration is None:
            self._calibration = _replay_transport_round(
                self.config,
                self.overlay,
                [(g, h, records, -1) for g, h, _, _, records in self._pairs],
            )
        return self._calibration

    def calibrated_round_traffic(self):
        """Exact traffic of one lossless round as a snapshot at t=0.

        This is the per-round quantity the calibrated-SpMV back-end
        adds to the main accountant every round via
        :meth:`~repro.net.bandwidth.TrafficAccountant.merge` — measured
        once on the calibration replay, never by materializing real
        score updates.
        """
        return self._full_round()[1].snapshot(0.0)

    def paper_round_estimate(self) -> Dict[str, float]:
        """Per-round traffic predicted by the paper's §4.4 formulas.

        W is the total cross-group link records and h the mean overlay
        hop count over the pairs that actually exchange updates — the
        closed-form counterpart to :meth:`calibrated_round_traffic`
        (the formulas assume all N² pairs communicate, so they are an
        upper envelope of the measured totals on sparse cut graphs).
        """
        return self._paper_estimate(
            float(sum(p[4] for p in self._pairs)),
            [(g, h) for g, h, _, _, _ in self._pairs],
        )

    def _build_afferent(self, order: List[Tuple[int, int]]) -> sp.csr_matrix:
        """Assemble the 0/1 afferent matrix F with X = F·Y (lossless).

        Row ``offsets[dst] + i`` holds one unit entry per source whose
        efferent segment touches destination-local element ``i``, with
        the entries *stored in the arrival order* of the calibration
        replay.  scipy's CSR matvec kernel accumulates each row
        sequentially over its stored entries, so F reproduces the
        event engine's per-destination vector-add sequence scalar for
        scalar (a stable sort by row preserves the arrival order the
        column blocks were appended in).
        """
        n_rows = self._x.size
        idx_dtype = np.int32 if self._y.size < 2**31 else np.int64
        cslices = {(g, h): csl for g, h, csl, _, _ in self._pairs}
        # Two-pass counting scatter instead of a global stable argsort:
        # each pair's row list (``np.flatnonzero`` output) is unique and
        # ascending, so walking pairs in arrival order and appending at
        # per-row cursors yields each row's entries in arrival order —
        # exactly what a stable sort of the concatenated (row, col)
        # pairs by row produces — without ever materializing the
        # concatenated int64 row/col/permutation arrays.
        cnt = np.zeros(n_rows, dtype=idx_dtype)
        for src, dst in order:
            cnt[int(self._offsets[dst]) :][self._pair_idx[(src, dst)]] += 1
        nnz = int(cnt.sum())
        # Exclusive prefix sums seeded at indptr[1:] become per-row
        # write cursors; pass 2 advances them in place, leaving the
        # final (inclusive) row pointers with no separate cursor array.
        indptr = np.zeros(n_rows + 1, dtype=idx_dtype)
        if n_rows > 1:
            np.cumsum(cnt[:-1], out=indptr[2:])
        del cnt
        cursor = indptr[1:]
        cols = np.empty(nnz, dtype=idx_dtype)
        for src, dst in order:
            idx = self._pair_idx[(src, dst)]
            csl = cslices[(src, dst)]
            cur = cursor[int(self._offsets[dst]) :]
            pos = cur[idx]
            cols[pos] = np.arange(
                csl.start, csl.start + idx.size, dtype=idx_dtype
            )
            cur[idx] += 1
        return sp.csr_matrix(
            (np.ones(nnz, dtype=np.float64), cols, indptr),
            shape=(n_rows, self._y.size),
        )

    # ------------------------------------------------------------------
    # Round execution
    # ------------------------------------------------------------------
    def _round(self, t: float) -> None:
        """One round at tick ``t``: advance, mask, compute, deliver."""
        # Everything scheduled before this tick lands first:
        # deliveries, crashes, pauses, heartbeats, checkpoints,
        # takeovers, ACK timeouts — in event order.
        self._advance(t)
        stepping = self._stepping_groups()
        self._compute(stepping)
        csr_matvec_into(self._cut, self._r, self._y)
        self._deliver(self, stepping, t)
        self._rounds_run += 1

    def _advance(self, t: float) -> None:
        """Run the fault plane (if any) up to time ``t``."""
        if self._fsim is not None:
            self._fsim.run(until=t)

    def _stepping_groups(self):
        """Groups that step this round: due, alive, and unpaused."""
        groups = range(self.config.n_groups)
        if self._async:
            np.add(self._credit, self._rates, out=self._credit)
            due = self._credit >= 1.0
            # Due groups consume their credit whether or not they are
            # eligible — a paused event ranker burns its wakes too.
            # The cap keeps a masked group from banking a burst.
            self._credit[due] -= 1.0
            np.clip(self._credit, 0.0, 1.0, out=self._credit)
            groups = np.flatnonzero(due).tolist()
        if self._plane is not None:
            shadows = self._plane.rankers
            groups = [
                g for g in groups
                if not (shadows[g].crashed or shadows[g].paused)
            ]
        return groups

    def _compute(self, stepping) -> None:
        """Step each stepping group exactly as DPRNode.step would."""
        cfg = self.config
        for g in stepping:
            self._outer[g] += 1
            sl = self._slices[g]
            if sl.stop == sl.start:
                self._last_delta[g] = 0.0
                continue
            if g in self._mail:
                # Refresh X: re-sum the newest compressed afferent
                # vectors in first-arrival order.  Scattering each
                # source's nonzero elements through its index array
                # performs the same elementwise additions as
                # DPRNode._refresh's dense vector adds — the skipped
                # elements only ever add +0.0.
                xh = self._x[sl]
                xh[:] = 0.0
                for src, vec in self._latest[g].items():
                    xh[self._pair_idx[(src, g)]] += vec
                self._mail.discard(g)
            r_g = self._r[sl]
            f_g = self._fbuf[: sl.stop - sl.start]
            np.add(self._beta_e[sl], self._x[sl], out=f_g)
            ws = self._workspaces[g]
            if cfg.algorithm == "dpr2":
                delta = ws.sweep_delta(self.system.diag(g), r_g, f_g, out=ws._ping)
                np.copyto(r_g, ws._ping)
                self._inner_sweeps[g] += 1
            else:
                if cfg.inner_solver == "gauss_seidel":
                    from repro.linalg.acceleration import gauss_seidel_solve

                    res = gauss_seidel_solve(
                        self.system.diag(g), f_g, x0=r_g,
                        tol=cfg.local_tol, max_iter=cfg.max_inner,
                    )
                else:
                    res = jacobi_solve(
                        self.system.diag(g), f_g, x0=r_g,
                        tol=cfg.local_tol, max_iter=cfg.max_inner,
                        workspace=ws,
                    )
                self._inner_sweeps[g] += res.iterations
                sc = ws._scratch
                np.subtract(res.x, r_g, out=sc)
                np.abs(sc, out=sc)
                delta = sc.sum()
                np.copyto(r_g, res.x)
            self._last_delta[g] = float(delta)

    # ------------------------------------------------------------------
    # Delivery pipeline
    # ------------------------------------------------------------------
    def _sends(self, stepping, draw_loss: bool) -> List[Tuple]:
        """The round's sends, in emission order.

        Each is ``(src, dst, records, wire_bytes, values, generation)``
        after suppression (``suppress_tol``), codec encode (suppressed
        frames send nothing; ``values`` becomes the reconstruction
        mirror, the receiver's exact post-frame state) and — when
        ``draw_loss`` — the origin loss draw.  The ARQ and live
        back-ends roll loss per wire attempt inside the transport
        instead.  ``values`` are views valid until the next round.
        """
        tol = self.config.suppress_tol
        out = []
        for g in stepping:
            gen = int(self._outer[g])
            for h, csl, idx, records in self._pairs_by_src[g]:
                values = self._y[csl]
                if tol > 0.0:
                    prev = self._last_sent.get((g, h))
                    # Compressed diff == dense diff: structurally-zero
                    # rows are +0.0 on both sides.
                    if prev is not None and float(np.abs(values - prev).sum()) <= tol:
                        continue
                    self._last_sent[(g, h)] = values.copy()
                wire_bytes = -1
                if self._codec is not None:
                    frame = self._codec.encode(g, h, values, index_map=idx)
                    if frame is None:
                        continue
                    values, wire_bytes = frame.values, frame.wire_bytes
                if draw_loss and not self._loss.delivered(g, h):
                    self.dropped_updates += 1
                    continue
                out.append((g, h, records, wire_bytes, values, gen))
        return out

    def _apply(self, src: int, dst: int, values, generation: int) -> None:
        """DPRNode.receive semantics over the flat state: generation
        check, first-arrival summation order, mail flag."""
        gens = self._gen_latest[dst]
        prev_gen = gens.get(src)
        if prev_gen is not None and generation <= prev_gen:
            self._stale[dst] += 1
            return
        gens[src] = generation
        held = self._latest[dst].get(src)
        if held is None:
            # First arrival fixes this source's position in the
            # destination's re-summation order for good (dict order).
            self._latest[dst][src] = np.array(values, dtype=np.float64)
        else:
            np.copyto(held, values)
        self._mail.add(dst)

    def _deliver_afferent(self, stepping, t: float) -> None:
        """Calibrated SpMV: every pair sends and arrives, so traffic is
        the cached calibration and delivery + refresh is ``X = F·Y``."""
        order, acc = self._full_round()
        if self._afferent is None:
            self._afferent = self._build_afferent(order)
        self.accountant.merge(acc)
        csr_matvec_into(self._afferent, self._y, self._x)

    def _deliver_replay(self, stepping, t: float) -> None:
        """Scratch replay: route the surviving sends through the real
        transport on a fresh simulator, apply in delivery order."""
        sends = self._sends(stepping, draw_loss=True)
        order, acc = _replay_transport_round(self.config, self.overlay, sends)
        self.accountant.merge(acc)
        by_pair = {(s[0], s[1]): s for s in sends}
        for src, dst in order:
            send = by_pair[(src, dst)]
            self._apply(src, dst, send[4], send[5])

    def _deliver_arq(self, stepping, t: float) -> None:
        """ARQ replay: each send's ARQ chain resolves in this round;
        payloads reaching a live destination apply immediately."""
        sends = self._sends(stepping, draw_loss=False)
        for g, h, records, wire_bytes, values, gen in sends:
            paper = records * LINK_RECORD_BYTES
            if self._arq.send(
                g, h, paper if wire_bytes < 0 else wire_bytes, paper_bytes=paper
            ):
                self._apply(g, h, values, gen)

    def _deliver_live(self, stepping, t: float) -> None:
        """Live transport: real updates through the fault plane."""
        transport = self._plane.transport
        sends = self._sends(stepping, draw_loss=False)
        for g, group in groupby(sends, key=lambda send: send[0]):
            transport.send_updates(
                g,
                [
                    ScoreUpdate(
                        src_group=g,
                        dst_group=h,
                        # Copied: the round buffers are reused, and the
                        # ARQ layer must retransmit the original payload.
                        values=values.copy(),
                        n_link_records=records,
                        generation=gen,
                        sent_at=t,
                        wire_bytes=wire_bytes,
                    )
                    for _, h, records, wire_bytes, values, gen in group
                ],
            )
        # Zero-delay deliveries (hop_delay=0) land at t, exactly as
        # the event simulator keeps draining same-time events.
        self._fsim.run(until=t)

    # ------------------------------------------------------------------
    # Run-loop hooks
    # ------------------------------------------------------------------
    def _observe(self, out: np.ndarray, t: float) -> np.ndarray:
        # The event engine's monitor samples after every event strictly
        # before t has been processed, and the run ends with its one
        # simulator drained to the stop time; drain the fault plane so
        # traffic snapshots and delivered state agree.
        self._advance(t)
        return self.assemble_ranks(out=out)

    def _progress(self) -> Tuple[int, float]:
        return int(self._outer.max()), float(self._outer.mean())

    def _quiet_now(self, quiescence_delta: float) -> bool:
        # The monitor's per-node rule: every group has stepped at least
        # once and its last step delta is at or below the threshold.
        return bool(
            (self._outer > 0).all()
            and (self._last_delta <= quiescence_delta).all()
        )

    def _result_fields(self, now: float) -> Dict:
        fields: Dict = {
            "outer_iterations": self._outer.copy(),
            "inner_sweeps": self._inner_sweeps.copy(),
            "dropped_updates": self.dropped_updates,
            "fidelity": "approximate" if self._approx else "exact",
            "fast_rounds": 0 if self._approx else self._rounds_run,
            "replayed_rounds": self._rounds_run if self._approx else 0,
            "codec_stats": None
            if self._codec is None
            else {
                **self._codec.stats(),
                "certified_bound": self._codec.certified_bound(
                    self.config.alpha
                ),
            },
        }
        if self._plane is not None:
            fields.update(self._plane.result_fields(now))
        return fields


class MonteCarloEngine(_RoundEngine):
    """Distributed random-walk ranking over the partitioned system.

    Construction and the run loop are shared with
    :class:`SynchronousEngine` (same partition and overlay from the
    same named seeds, same ``RunResult`` via
    :func:`~repro.core.coordinator.assemble_run_result`), but the
    computation is the Monte-Carlo estimator of
    :mod:`repro.linalg.montecarlo` instead of Jacobi iteration: each
    bulk-synchronous round advances every alive walk token one step,
    and tokens whose step crosses the partition cut become that
    round's messages — binned per ordered (source, destination) group
    pair and replayed through the real transport stack via
    :func:`_replay_transport_round`, one link record per forwarded
    token.  Per-round traffic therefore *decays* with the alive-token
    population (geometric in the round number) instead of staying
    constant like DPR1/DPR2's cut vectors.

    The engine never builds the grouped operator: walks read the raw
    CSR, so construction is O(n) and the per-round cost is O(alive
    tokens) — the whole run touches ~``n·walks_per_page/(1−α)`` token
    steps.  Accuracy is statistical, not iterative: the final estimate
    carries the documented tolerance
    :func:`~repro.linalg.montecarlo.mc_error_tolerance` rather than a
    convergence guarantee, and the run naturally completes when every
    token has terminated (the estimate can no longer change): the
    first sample that observes an empty ensemble ends it.

    Parameters
    ----------
    graph, config:
        The crawl and experiment parameters; the config must satisfy
        the ``engine="mc"`` restrictions (synchronous schedule,
        failure-free, lossless, scalar ``e``).
    partition, reference:
        Optional precomputed partition / centralized solution.  The
        default reference is :func:`~repro.core.pagerank.pagerank_open`
        on the same graph — the fixed point the estimator is unbiased
        for under ``dangling_mode="absorb"``.
    """

    def __init__(
        self,
        graph: WebGraph,
        config: DistributedConfig,
        *,
        partition: Optional[Partition] = None,
        reference: Optional[np.ndarray] = None,
    ):
        from repro.core.pagerank import pagerank_open
        from repro.linalg.montecarlo import RandomWalkState

        seeds = SeedSequenceFactory(config.seed)
        super().__init__(graph, config, partition, seeds)
        self.reference = (
            np.asarray(reference, dtype=np.float64)
            if reference is not None
            else pagerank_open(graph, config.alpha, e=config.e).ranks
        )
        self.state = RandomWalkState(
            graph,
            alpha=config.alpha,
            walks_per_page=config.walks_per_page,
            walk_mode=config.walk_mode,
            dangling=config.dangling_mode,
            start_weight=1.0 if config.e is None else float(config.e),
            rng=seeds.generator("walks"),
        )
        k = config.n_groups
        self._group_of = self.partition.group_of
        self._rounds = 0
        #: Token steps executed per group — the mc analogue of the
        #: Jacobi engines' inner-sweep work counter.
        self._token_steps = np.zeros(k, dtype=np.int64)
        #: Per-group L1 growth of the estimate in the last round (the
        #: estimate is monotone, so growth == |change|) — drives the
        #: same quiescence test the other engines run.
        self._last_delta = np.full(k, np.inf, dtype=np.float64)
        # §4.4 bridge inputs, accumulated over the run: total crossing
        # link records and the set of communicating pairs.
        self._crossing_records = 0
        self._pairs_seen: set = set()
        #: Wire codec: walk tokens carry page ids, not scores, so the
        #: "delta" codec degenerates to exact varint token frames
        #: (sorted global target ids, gap-coded) — nothing to quantize
        #: and no error budget to spend (config validation rejects
        #: delta-q16 and ε_comm > 0 for this engine).
        self._codec_on = config.codec != "none"
        self._codec_frames = 0
        self._codec_entries = 0

    def run(
        self,
        *,
        max_time: float = 1000.0,
        target_relative_error: Optional[float] = None,
        quiescence_delta: Optional[float] = None,
        quiescence_samples: int = 3,
    ) -> RunResult:
        """Execute rounds until a stop condition; gather a RunResult.

        See :meth:`_RoundEngine._run_rounds` for the clocks and stop
        conditions (plus the mc-only stop: an empty token ensemble).
        """
        return self._run_rounds(
            max_time, target_relative_error, quiescence_delta, quiescence_samples
        )

    # ------------------------------------------------------------------
    def paper_round_estimate(self) -> Dict[str, float]:
        """Per-round traffic predicted by the paper's §4.4 formulas.

        The mc counterpart of
        :meth:`SynchronousEngine.paper_round_estimate`: W is the *mean*
        walk records crossing the cut per executed round (walk traffic
        decays, so only the mean is well-defined per round), and h is
        the overlay mean hop count over the pairs that actually carried
        tokens.  Call after :meth:`run`; before any round both terms
        are zero.
        """
        return self._paper_estimate(
            self._crossing_records / max(self._rounds, 1),
            sorted(self._pairs_seen),
        )

    # ------------------------------------------------------------------
    def _round(self, t: float) -> None:
        """One bulk-synchronous round: step all tokens, ship crossers."""
        k = self.config.n_groups
        pos = self.state.pos
        if pos.size:
            self._token_steps += np.bincount(self._group_of[pos], minlength=k)
        src, dst, counted = self.state.step()
        # Per-group estimate growth (quiescence signal): exactly the
        # mass credited this round, in rank units.
        if counted.size:
            self._last_delta = (
                np.bincount(self._group_of[counted], minlength=k).astype(
                    np.float64
                )
                * self.state.estimate_factor
            )
        else:
            self._last_delta = np.zeros(k, dtype=np.float64)
        # Cut-crossing tokens become this round's messages: bin them
        # per ordered (src, dst) group pair — bincount over src·K+dst
        # yields (source ascending, destination ascending), the same
        # emission order the other engines use — and replay through
        # the real transport, one link record per forwarded token.
        if src.size:
            gs = self._group_of[src]
            gd = self._group_of[dst]
            cross = gs != gd
            if cross.any():
                codes = gs[cross].astype(np.int64) * k + gd[cross]
                counts = np.bincount(codes, minlength=k * k)
                present = np.flatnonzero(counts)
                if self._codec_on:
                    # Gap-coded token frames: group the crossing
                    # targets per ordered pair, sort each pair's global
                    # page ids, and charge the exact varint frame size
                    # instead of 100 B per forwarded token.
                    targets = dst[cross][np.argsort(codes, kind="stable")]
                    bounds = np.cumsum(counts[present])
                    sends = []
                    start = 0
                    for j, c in enumerate(present):
                        ids = np.sort(targets[start : int(bounds[j])])
                        start = int(bounds[j])
                        sends.append(
                            (
                                int(c) // k,
                                int(c) % k,
                                int(counts[c]),
                                token_frame_bytes(ids),
                            )
                        )
                        self._codec_entries += int(ids.size)
                    self._codec_frames += len(sends)
                else:
                    sends = [
                        (int(c) // k, int(c) % k, int(counts[c]), -1)
                        for c in present
                    ]
                _, acc = _replay_transport_round(
                    self.config, self.overlay, sends
                )
                self.accountant.merge(acc)
                self._crossing_records += int(counts.sum())
                self._pairs_seen.update((s[0], s[1]) for s in sends)
        self._rounds += 1

    # ------------------------------------------------------------------
    # Run-loop hooks
    # ------------------------------------------------------------------
    def _observe(self, out: np.ndarray, t: float) -> np.ndarray:
        return self.state.estimate(out=out)

    def _progress(self) -> Tuple[int, float]:
        return self._rounds, float(self._rounds)

    def _quiet_now(self, quiescence_delta: float) -> bool:
        return self._rounds > 0 and bool(
            (self._last_delta <= quiescence_delta).all()
        )

    def _exhausted(self) -> bool:
        # Every token terminated and the final estimate is on the
        # trace; further rounds are no-ops.
        return self.state.alive == 0

    def _result_fields(self, now: float) -> Dict:
        codec_stats = None
        if self._codec_on:
            # Token frames are exact, so the certificate is trivially 0.
            codec_stats = {
                "codec": self.config.codec,
                "epsilon": 0.0,
                "pairs": len(self._pairs_seen),
                "frames": self._codec_frames,
                "suppressed_frames": 0,
                "exact_flushes": self._codec_frames,
                "entries_sent": self._codec_entries,
                "resyncs": 0,
                "residual_mass": 0.0,
                "certified_bound": 0.0,
            }
        return {
            "outer_iterations": np.full(
                self.config.n_groups, self._rounds, dtype=np.int64
            ),
            "inner_sweeps": self._token_steps.copy(),
            "dropped_updates": self.dropped_updates,
            "codec_stats": codec_stats,
        }
