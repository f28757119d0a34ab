"""The one fault stack: a run's network and fault world, built once.

Both engines run the same failure process (§4.2's sleeping, crashing
and message-losing rankers) through :class:`FaultPlane`.  The event
engine (:class:`~repro.core.coordinator.DistributedRun`) drives it over
its :class:`~repro.core.ranker.PageRanker`\\ s; the round engine
(:mod:`repro.core.hybrid`) over shadow rankers bridging its flat state.
Either way the plane builds, from the same config fields and the same
named seed streams ("chaos", "retry-jitter", the injector streams):

* the transport (:func:`~repro.net.transport.build_transport`),
  optionally wrapped in :class:`~repro.net.reliable.ReliableTransport`
  — or, for the round engine's reliable + direct configs, the
  round-granular :class:`_ReplayARQ` instead;
* the pause and crash injectors, the heartbeat detector, and the
  checkpoint/recovery layer;
* the :class:`~repro.core.coordinator.RunResult` fault and reliability
  counters (:meth:`FaultPlane.result_fields`).

Construction is in three steps so the event engine keeps its event
order: ``FaultPlane(...)`` builds the transport the rankers need,
:meth:`FaultPlane.install` wires the rankers in and installs the fault
processes, and :meth:`FaultPlane.start` starts the heartbeat and
checkpoint chains.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.core.recovery import Checkpointer, CheckpointStore, RecoveryManager
from repro.net.failures import ChaosModel, NodeCrashInjector, NodePauseInjector
from repro.net.heartbeat import HeartbeatMonitor
from repro.net.latency import FixedLatency
from repro.net.message import LOOKUP_MESSAGE_BYTES, PACKAGE_HEADER_BYTES
from repro.net.reliable import ARQRules, ReliableTransport, RetryPolicy
from repro.net.simulator import Simulator
from repro.net.transport import build_transport
from repro.utils.rng import SeedSequenceFactory

__all__ = ["FaultPlane"]


class _ReplayARQ(ARQRules):
    """Round-granular driver of the ARQ rules (reliable + direct).

    Running the reliable transport on the fault plane is *exact* but
    pays one simulator event per transmission, retransmission, and ACK
    — at 1e5-page churn that costs nearly as much as the full event
    engine.  This driver resolves each logical message's whole ARQ
    conversation (attempts, chaos duplicates, ACKs, ACK losses,
    retransmissions, give-ups) in a tight loop at the *sending round*
    instead of spreading it along the timeout/backoff timeline.  The
    rules — sequence numbers, receive/dedup/ACK, retry-or-give-up,
    counters — are :class:`~repro.net.reliable.ARQRules`', shared with
    :class:`~repro.net.reliable.ReliableTransport`:

    * every wire attempt re-rolls the origin loss model and is
      accounted exactly as :class:`~repro.net.transport.DirectTransport`
      would (a per-send DHT lookup, one end-to-end data message);
    * chaos draws (reorder, duplicate, ACK loss) and retry-jitter
      draws come from the same named streams the event engine seeds,
      consumed in round order rather than timer order — the documented
      ε-level divergence of counters like ``retransmits`` on faulted
      configs.

    A conversation closes before :meth:`send` returns, so no later copy
    of its seq can arrive; the driver then forgets the seq, keeping its
    dedup memory empty between sends.

    Rank-state fidelity: with ARQ a payload reaches any *live*
    destination with probability ``1 - p_fail^(1+max_retries)`` ≈ 1;
    the replay applies it in the sending round, whereas the event
    engine's retransmitted copies can spill past a round boundary.
    DPR's staleness tolerance (Theorems 4.1/4.2) bounds the effect —
    this is the same approximation class as the async rate credit.
    """

    def __init__(self, *, loss, overlay, **rules):
        super().__init__(**rules)
        self.loss = loss
        self.overlay = overlay
        #: Origin-loss drops across all attempts (inner-transport view).
        self.dropped_updates = 0

    def _attempt(
        self, src: int, dst: int, seq: int, hops: int, payload_bytes: int,
        paper_bytes: int,
    ) -> Tuple[bool, bool]:
        """One wire attempt; returns the receive rule's verdict."""
        if not self.loss.delivered(src, dst):
            self.dropped_updates += 1
            return False, False
        acc = self.accountant
        if src != dst:
            acc.record_lookup(src, hops, LOOKUP_MESSAGE_BYTES)
        acc.record_data_message(
            src,
            dst,
            PACKAGE_HEADER_BYTES + payload_bytes,
            paper_bytes=PACKAGE_HEADER_BYTES + paper_bytes,
        )
        return self._receive(src, dst, seq)

    def send(self, src: int, dst: int, payload_bytes: int, paper_bytes: int) -> bool:
        """Replay one logical message's full ARQ conversation.

        Returns True when the payload reached a live destination on any
        attempt (at-least-once delivery with an idempotent receiver).
        ``payload_bytes`` is the calibrated charge (the encoded frame
        size under a codec) and ``paper_bytes`` the flat §4.4 payload
        charge; every attempt — retransmissions and chaos duplicates
        included — resends the same frame, so both charges ride the
        whole conversation.
        """
        seq = self._stamp(src, dst)
        # Every attempt pays its lookup, over one static route.
        hops = self.overlay.hops(src, dst)
        delivered = False
        acked = False
        attempts = 0
        while True:
            self.chaos.reorder_delay()  # timing-only draw (stream parity)
            fresh, got_ack = self._attempt(
                src, dst, seq, hops, payload_bytes, paper_bytes
            )
            delivered = delivered or fresh
            acked = acked or got_ack
            if self._duplicate():
                fresh, got_ack = self._attempt(
                    src, dst, seq, hops, payload_bytes, paper_bytes
                )
                delivered = delivered or fresh
                acked = acked or got_ack
            # The timer driver arms an ACK timer per staged attempt.
            self.retry.delay(attempts, self._rng)
            if acked or not self._retry(attempts):
                break
            attempts += 1
        if delivered:
            self._delivered_seqs[(src, dst)].discard(seq)
        return delivered


class FaultPlane:
    """Transport, ARQ, fault processes and fault counters of one run.

    Parameters
    ----------
    config:
        The run's :class:`~repro.core.coordinator.DistributedConfig`.
    seeds:
        The run's seed factory; the plane draws only its own named
        streams, so nothing an engine draws is drawn twice.
    overlay, accountant, loss:
        The engine's overlay, main traffic accountant and origin loss
        model.  Sharing the loss instance keeps the "loss" stream
        consumed once per wire attempt, in the engine's order.
    sim:
        The simulator the plane's processes run on (default: a fresh
        one, for the round engine).
    replay_arq:
        Resolve reliable traffic with :class:`_ReplayARQ` instead of a
        live :class:`~repro.net.reliable.ReliableTransport` (the round
        engine's reliable + direct fast path; ``transport`` is then
        ``None``).
    """

    def __init__(
        self,
        config,
        seeds: SeedSequenceFactory,
        *,
        overlay,
        accountant,
        loss,
        sim: Optional[Simulator] = None,
        replay_arq: bool = False,
    ):
        self.config = config
        self._seeds = seeds
        self.sim = sim if sim is not None else Simulator()
        #: The live ranker list, set by :meth:`install`; the recovery
        #: layer swaps replacements into it in place.
        self.rankers: List = []
        self.store = CheckpointStore()
        self.transport = None
        self.reliable: Optional[ReliableTransport] = None
        self.arq: Optional[_ReplayARQ] = None
        self.crash_injector: Optional[NodeCrashInjector] = None
        self.heartbeat: Optional[HeartbeatMonitor] = None
        self.checkpointer: Optional[Checkpointer] = None
        self.recovery: Optional[RecoveryManager] = None

        if config.reliable:
            arq = dict(
                retry=RetryPolicy(
                    timeout=config.retry_timeout,
                    backoff=config.retry_backoff,
                    jitter=config.retry_jitter,
                    max_timeout=config.retry_max_timeout,
                    max_retries=config.max_retries,
                ),
                chaos=ChaosModel(
                    duplicate_prob=config.duplicate_prob,
                    reorder_prob=config.reorder_prob,
                    reorder_max_delay=config.reorder_max_delay,
                    ack_loss_prob=config.ack_loss_prob,
                    seed=seeds.generator("chaos"),
                ),
                alive=self._alive,
                seed=seeds.generator("retry-jitter"),
            )
            if replay_arq:
                self.arq = _ReplayARQ(
                    loss=loss, overlay=overlay, accountant=accountant, **arq
                )
                return
        transport_kwargs = {}
        if config.transport == "indirect":
            transport_kwargs["aggregation_delay"] = config.aggregation_delay
        self.transport = build_transport(
            config.transport,
            self.sim,
            overlay,
            accountant,
            loss=loss,
            latency=FixedLatency(config.hop_delay),
            **transport_kwargs,
        )
        if config.reliable:
            self.transport = self.reliable = ReliableTransport(
                self.transport, **arq
            )

    def _alive(self, group: int) -> bool:
        return not self.rankers[group].crashed

    def install(
        self,
        rankers: List,
        *,
        deliver: Optional[Callable] = None,
        make_replacement: Optional[Callable] = None,
    ) -> None:
        """Wire in the ranker list and install the fault processes.

        ``deliver(dst, update)`` is the transport upcall (unused by the
        ARQ replay, whose caller applies payloads itself);
        ``make_replacement(group, epoch)`` is the recovery factory.
        Rankers follow the duck-typed contract of
        :mod:`repro.core.recovery`.
        """
        cfg = self.config
        seeds = self._seeds
        self.rankers = rankers
        if self.transport is not None:
            self.transport.attach(deliver)
        if cfg.pause_faults > 0:
            NodePauseInjector(
                n_faults=cfg.pause_faults,
                horizon=cfg.pause_horizon,
                mean_outage=cfg.pause_mean_outage,
                seed=seeds.generator("pause-injector"),
            ).install(self.sim, rankers)
        if cfg.crash_prob > 0.0:
            self.crash_injector = NodeCrashInjector(
                crash_prob=cfg.crash_prob,
                after=cfg.crash_after,
                horizon=cfg.crash_horizon,
                seed=seeds.generator("crash-injector"),
            )
            self.crash_injector.install(self.sim, rankers)
        if cfg.heartbeat_interval > 0.0:
            self.heartbeat = HeartbeatMonitor(
                self.sim,
                rankers,
                interval=cfg.heartbeat_interval,
                miss_threshold=cfg.heartbeat_miss_threshold,
            )
        if cfg.checkpoint_interval > 0.0:
            self.checkpointer = Checkpointer(
                self.sim, rankers, self.store, interval=cfg.checkpoint_interval
            )
        if cfg.recovery:
            self.recovery = RecoveryManager(
                self.sim, rankers, self.store, make_replacement
            )
            assert self.heartbeat is not None  # enforced by the config
            self.heartbeat.add_death_callback(self.recovery.on_death)

    def start(self) -> None:
        """Start the heartbeat and checkpoint chains."""
        if self.heartbeat is not None:
            self.heartbeat.start()
        if self.checkpointer is not None:
            self.checkpointer.start()

    def stop(self) -> None:
        """Stop the heartbeat and checkpoint chains."""
        if self.heartbeat is not None:
            self.heartbeat.stop()
        if self.checkpointer is not None:
            self.checkpointer.stop()

    def result_fields(self, now: float) -> Dict:
        """Loss, reliability and fault counters for the RunResult."""
        # Origin loss fires inside the live transport, or re-rolls per
        # wire attempt in the ARQ replay.
        wire = self.transport if self.transport is not None else self.arq
        fields: Dict = {"dropped_updates": int(wire.dropped_updates)}
        rel = self.reliable if self.reliable is not None else self.arq
        if rel is not None:
            fields.update(
                retransmits=rel.retransmits,
                gave_up=rel.gave_up,
                dup_drops=rel.dup_drops,
                dead_drops=rel.dead_drops,
                acks_lost=rel.acks_lost,
            )
        # Recovered groups hold a live replacement, so count fired
        # injector crashes rather than currently-crashed slots.
        fields["crashed_groups"] = (
            self.crash_injector.fired(now)
            if self.crash_injector is not None
            else sum(1 for rk in self.rankers if rk.crashed)
        )
        fields["deaths_detected"] = (
            self.heartbeat.deaths_detected if self.heartbeat is not None else 0
        )
        fields["takeovers"] = (
            self.recovery.takeover_count if self.recovery is not None else 0
        )
        fields["checkpoint_saves"] = self.store.saves
        return fields
