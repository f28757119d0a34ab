"""The fault plane under the round engine (``engine="hybrid"``).

:class:`~repro.core.engine.SynchronousEngine` runs every round engine
config; this module holds what it adds when the config asks for
faults.  :class:`FaultPlane` is a persistent event-simulated world —
a real :class:`~repro.net.simulator.Simulator` carrying the real
transport stack (:func:`~repro.net.transport.build_transport`,
optionally wrapped in :class:`~repro.net.reliable.ReliableTransport`),
the crash/pause injectors, the heartbeat detector, and the
checkpoint/recovery layer — all driven over lightweight *shadow
rankers* that bridge the engine's state slices.  Reliable configs on
the direct transport replace the live transport with the
round-granular :class:`_ReplayARQ`.

Each round the engine advances the plane to the tick (so a crash
firing mid-delivery-window swallows exactly the deliveries the event
engine drops), masks crashed and paused shadows out of the stepping
set, and hands its sends to the plane's transport or ARQ replay.

Equivalence contracts (verified by ``tests/test_hybrid.py``; see
DESIGN.md §13 for the full argument):

* **exact** — sync fault-free configs build no plane: bit-identical
  ranks, traffic, and trace versus the event engine;
* **approximate** — faulted, suppressed or async configs: the run
  reports ``fidelity="approximate"`` and reconverges to the same ε
  verdict as the event engine.  The known divergence sources are all
  timing artifacts, not state corruption: recovered replacements
  re-step on the round grid instead of the event engine's off-grid
  wake chain, async wake jitter is replaced by a per-group rate credit
  (``period / mean_wait`` steps per round on average, at most one
  step per round), and exact event-time ties (a retransmit timer
  landing precisely on a wake) may order differently.

``HybridEngine`` remains importable from here; it is the round engine
itself.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.engine import SynchronousEngine
from repro.core.recovery import Checkpointer, CheckpointStore, RecoveryManager
from repro.net.failures import ChaosModel, NodeCrashInjector, NodePauseInjector
from repro.net.heartbeat import HeartbeatMonitor
from repro.net.latency import FixedLatency
from repro.net.message import (
    ACK_MESSAGE_BYTES,
    LOOKUP_MESSAGE_BYTES,
    PACKAGE_HEADER_BYTES,
    ScoreUpdate,
)
from repro.net.reliable import ReliableTransport, RetryPolicy
from repro.net.simulator import Simulator
from repro.net.transport import build_transport
from repro.utils.rng import SeedSequenceFactory

# The round kernels stay bound here: perfbench's tracer rebinds them in
# every repro module and its tests check this module's copies.
from repro.linalg.jacobi import csr_matvec_into, jacobi_solve  # noqa: F401

__all__ = ["FaultPlane", "HybridEngine"]

#: The one round engine; ``engine="hybrid"`` names its fault-plane mode.
HybridEngine = SynchronousEngine


class _ShadowNode:
    """DPRNode-shaped view of one group's slice of the flat state.

    Implements exactly the :class:`~repro.core.dpr.DPRNode`
    ``state_dict``/``load_state_dict`` contract the checkpoint and
    recovery layers consume, reading and writing the engine's global
    arrays in place.  Snapshots keep afferent vectors in the engine's
    *compressed* (nonzero-row) form — the format only has to round-trip
    within the round engine, and the compressed scatter re-sums to the
    same bits as the dense refresh (see :mod:`repro.core.engine`).
    """

    __slots__ = ("engine", "group")

    def __init__(self, engine: SynchronousEngine, group: int):
        self.engine = engine
        self.group = group

    @property
    def outer_iterations(self) -> int:
        return int(self.engine._outer[self.group])

    @property
    def inner_sweeps(self) -> int:
        return int(self.engine._inner_sweeps[self.group])

    def state_dict(self) -> dict:
        eng, g = self.engine, self.group
        return {
            "group": g,
            "mode": eng.config.algorithm,
            "r": eng._r[eng._slices[g]].copy(),
            "latest_values": {
                src: vec.copy() for src, vec in eng._latest[g].items()
            },
            "latest_gen": dict(eng._gen_latest[g]),
            "outer_iterations": int(eng._outer[g]),
            "inner_sweeps": int(eng._inner_sweeps[g]),
            "stale_updates": int(eng._stale[g]),
        }

    def load_state_dict(self, state: dict) -> None:
        eng, g = self.engine, self.group
        np.copyto(eng._r[eng._slices[g]], state["r"])
        eng._latest[g] = {
            src: np.array(vec, dtype=np.float64)
            for src, vec in state["latest_values"].items()
        }
        eng._gen_latest[g] = dict(state["latest_gen"])
        eng._outer[g] = int(state["outer_iterations"])
        eng._inner_sweeps[g] = int(state["inner_sweeps"])
        eng._stale[g] = int(state["stale_updates"])
        # Force an X refresh from the restored afferent vectors on the
        # group's next step (DPRNode.load_state_dict marks X dirty).
        eng._mail.add(g)


class _ShadowRanker:
    """PageRanker-shaped façade over one group for the fault plane.

    Satisfies the duck-typed contract shared by the injectors
    (writable ``paused``/``crashed``), the heartbeat monitor
    (``crashed``), the checkpointer (``group``, ``node``), and the
    recovery manager (``node``, ``start``).  It owns no wake chain —
    the engine's round loop decides who steps — so ``start`` only
    marks the shadow live.
    """

    __slots__ = ("node", "group", "paused", "crashed", "started")

    def __init__(self, engine: SynchronousEngine, group: int):
        self.node = _ShadowNode(engine, group)
        self.group = group
        self.paused = False
        self.crashed = False
        self.started = False

    def start(self, *, initial_delay: Optional[float] = None) -> None:
        self.started = True

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"_ShadowRanker(group={self.group}, paused={self.paused}, "
            f"crashed={self.crashed})"
        )


class _ReplayARQ:
    """Round-granular ARQ protocol replay for reliable+direct configs.

    Running the reliable transport on the fault plane is *exact* but
    pays one simulator event per transmission, retransmission, and ACK
    — at 1e5-page churn that costs nearly as much as the full event
    engine.  This replay collapses each logical message's whole ARQ
    conversation (attempts, chaos duplicates, ACKs, ACK losses,
    retransmissions, give-ups) into a tight loop at the *sending round*
    instead of spreading it along the timeout/backoff timeline:

    * every wire attempt re-rolls the origin loss model and is
      accounted exactly as :class:`~repro.net.transport.DirectTransport`
      would (per-send DHT lookup from a per-pair hop cache, one
      end-to-end data message, one ACK per live delivery);
    * chaos draws (duplicate, ACK-loss, reorder) come from the same
      named streams the event engine seeds, so the replay is
      deterministic — but consumed in round order rather than timer
      order, which is the documented ε-level divergence of counters
      like ``retransmits`` on faulted configs;
    * sequence numbers advance one per logical message per (src, dst)
      pair, identical to :class:`~repro.net.reliable.ReliableTransport`
      numbering, and :meth:`window_state` reports the same shape for
      the continuity tests.

    Rank-state fidelity: with ARQ a payload reaches any *live*
    destination with probability ``1 - p_fail^(1+max_retries)`` ≈ 1;
    the replay applies it in the sending round, whereas the event
    engine's retransmitted copies can spill past a round boundary.
    DPR's staleness tolerance (Theorems 4.1/4.2) bounds the effect —
    this is the same approximation class as the async rate credit.
    """

    def __init__(
        self,
        *,
        loss,
        chaos: ChaosModel,
        retry: RetryPolicy,
        accountant,
        overlay,
        jitter_rng,
    ):
        self.loss = loss
        self.chaos = chaos
        self.retry = retry
        self.accountant = accountant
        self.overlay = overlay
        self._rng = jitter_rng
        #: Deterministic per-pair hop counts (static overlay routes).
        self._hops: Dict[Tuple[int, int], int] = {}
        self._next_seq: Dict[Tuple[int, int], int] = {}
        # Same counter names as ReliableTransport.stats().
        self.retransmits = 0
        self.gave_up = 0
        self.dup_drops = 0
        self.dead_drops = 0
        self.acks_lost = 0
        self.chaos_duplicates = 0
        self.stale_acks = 0
        #: Origin-loss drops across all attempts (inner-transport view).
        self.dropped_updates = 0

    def _hops_for(self, src: int, dst: int) -> int:
        hops = self._hops.get((src, dst))
        if hops is None:
            hops = self.overlay.hops(src, dst)
            self._hops[(src, dst)] = hops
        return hops

    def _transmission(
        self, src: int, dst: int, payload_bytes: int, paper_bytes: int,
        alive: bool, delivered_before: bool,
    ) -> Tuple[bool, bool]:
        """One wire attempt; returns (delivered fresh, ACK got back)."""
        if not self.loss.delivered(src, dst):
            self.dropped_updates += 1
            return False, False
        acc = self.accountant
        if src != dst:
            acc.record_lookup(
                src, self._hops_for(src, dst), LOOKUP_MESSAGE_BYTES
            )
        acc.record_data_message(
            src,
            dst,
            PACKAGE_HEADER_BYTES + payload_bytes,
            paper_bytes=PACKAGE_HEADER_BYTES + paper_bytes,
        )
        if not alive:
            self.dead_drops += 1
            return False, False
        fresh = not delivered_before
        if not fresh:
            self.dup_drops += 1
        # ACK unconditionally (duplicates included), as the receiver does.
        acc.record_ack(dst, src, ACK_MESSAGE_BYTES)
        if self.chaos.active and self.chaos.ack_lost():
            self.acks_lost += 1
            return fresh, False
        return fresh, True

    def send(
        self,
        src: int,
        dst: int,
        payload_bytes: int,
        alive: bool,
        paper_bytes: int,
    ) -> bool:
        """Replay one logical message's full ARQ chain.

        Returns True when the payload reached a live destination on any
        attempt (at-least-once delivery with an idempotent receiver).
        ``payload_bytes`` is the calibrated charge (the encoded frame
        size under a codec) and ``paper_bytes`` the flat §4.4 payload
        charge; every attempt — retransmissions and chaos duplicates
        included — resends the same frame, so both charges ride the
        whole chain.
        """
        pair = (src, dst)
        self._next_seq[pair] = self._next_seq.get(pair, 0) + 1
        chaos = self.chaos
        delivered = False
        acked = False
        attempts = 0
        while True:
            if chaos.active:
                chaos.reorder_delay()  # timing-only draw (stream parity)
            fresh, got_ack = self._transmission(
                src, dst, payload_bytes, paper_bytes, alive, delivered
            )
            delivered = delivered or fresh
            acked = acked or got_ack
            if chaos.active and chaos.duplicate():
                self.chaos_duplicates += 1
                fresh, got_ack = self._transmission(
                    src, dst, payload_bytes, paper_bytes, alive, delivered
                )
                delivered = delivered or fresh
                acked = acked or got_ack
            # The event engine arms an ACK timer per staged attempt.
            self.retry.delay(attempts, self._rng)
            if acked:
                return delivered
            if attempts >= self.retry.max_retries:
                self.gave_up += 1
                return delivered
            attempts += 1
            self.retransmits += 1

    def window_state(self) -> Dict[Tuple[int, int], Dict[str, object]]:
        """ReliableTransport-shaped window snapshot.

        Every ARQ conversation resolves inside its sending round, so
        ``pending`` is always empty; ``next_seq`` advances exactly as
        the event engine's per-pair numbering.
        """
        return {
            pair: {"next_seq": nxt, "pending": []}
            for pair, nxt in self._next_seq.items()
        }


class FaultPlane:
    """The persistent event-simulated world under a faulted round engine.

    Built by :class:`~repro.core.engine.SynchronousEngine` when the
    config requests reliability or faults.  Holds the shadow rankers,
    the simulator, either the live ``transport`` or the ``arq`` replay
    (reliable + direct), and the injector, heartbeat, checkpoint and
    recovery processes.  A second factory over the engine's seed
    reproduces the event engine's named streams exactly ("chaos",
    "retry-jitter", injector streams); named streams are independent,
    so nothing the engine already drew is drawn twice.
    """

    def __init__(self, engine: SynchronousEngine, seeds: SeedSequenceFactory):
        cfg = engine.config
        self.engine = engine
        self.shadows = [_ShadowRanker(engine, g) for g in range(cfg.n_groups)]
        self.store = CheckpointStore()
        self.sim = Simulator()
        self.transport = None
        self.reliable: Optional[ReliableTransport] = None
        self.arq: Optional[_ReplayARQ] = None
        self.crash_injector: Optional[NodeCrashInjector] = None
        self.heartbeat: Optional[HeartbeatMonitor] = None
        self.recovery: Optional[RecoveryManager] = None

        if cfg.reliable:
            retry = RetryPolicy(
                timeout=cfg.retry_timeout,
                backoff=cfg.retry_backoff,
                jitter=cfg.retry_jitter,
                max_timeout=cfg.retry_max_timeout,
                max_retries=cfg.max_retries,
            )
            chaos = ChaosModel(
                duplicate_prob=cfg.duplicate_prob,
                reorder_prob=cfg.reorder_prob,
                reorder_max_delay=cfg.reorder_max_delay,
                ack_loss_prob=cfg.ack_loss_prob,
                seed=seeds.generator("chaos"),
            )
        if cfg.reliable and cfg.transport == "direct":
            # Reliable+direct data traffic runs the round-granular ARQ
            # replay (the fast path the chaos bench gates); reliable
            # over the indirect transport keeps full live fidelity.
            self.arq = _ReplayARQ(
                loss=engine._loss,
                chaos=chaos,
                retry=retry,
                accountant=engine.accountant,
                overlay=engine.overlay,
                jitter_rng=seeds.generator("retry-jitter"),
            )
        else:
            transport_kwargs = {}
            if cfg.transport == "indirect":
                transport_kwargs["aggregation_delay"] = cfg.aggregation_delay
            # The inner transport reuses the engine's loss model
            # instance, so the "loss" stream is consumed exactly once,
            # per send attempt, in the same order as the event engine's
            # stack.  It records into the *main* accountant at
            # event-simulated send and delivery times — the same counter
            # arithmetic as the event engine, ACK bytes included.
            transport = build_transport(
                cfg.transport,
                self.sim,
                engine.overlay,
                engine.accountant,
                loss=engine._loss,
                latency=FixedLatency(cfg.hop_delay),
                **transport_kwargs,
            )
            if cfg.reliable:
                shadows = self.shadows
                self.reliable = ReliableTransport(
                    transport,
                    retry=retry,
                    chaos=chaos,
                    alive=lambda g: not shadows[g].crashed,
                    seed=seeds.generator("retry-jitter"),
                )
                transport = self.reliable
            self.transport = transport
            transport.attach(self._on_deliver)

        if cfg.pause_faults > 0:
            NodePauseInjector(
                n_faults=cfg.pause_faults,
                horizon=cfg.pause_horizon,
                mean_outage=cfg.pause_mean_outage,
                seed=seeds.generator("pause-injector"),
            ).install(self.sim, self.shadows)
        if cfg.crash_prob > 0.0:
            self.crash_injector = NodeCrashInjector(
                crash_prob=cfg.crash_prob,
                after=cfg.crash_after,
                horizon=cfg.crash_horizon,
                seed=seeds.generator("crash-injector"),
            )
            self.crash_injector.install(self.sim, self.shadows)
        # Processes start here (sim.now == 0): identical to the event
        # engine starting them before its simulator advances.
        if cfg.heartbeat_interval > 0.0:
            self.heartbeat = HeartbeatMonitor(
                self.sim,
                self.shadows,
                interval=cfg.heartbeat_interval,
                miss_threshold=cfg.heartbeat_miss_threshold,
            )
        if cfg.recovery:
            self.recovery = RecoveryManager(
                self.sim, self.shadows, self.store, self._make_replacement
            )
            assert self.heartbeat is not None  # enforced by the config
            self.heartbeat.add_death_callback(self.recovery.on_death)
        if self.heartbeat is not None:
            self.heartbeat.start()
        if cfg.checkpoint_interval > 0.0:
            Checkpointer(
                self.sim,
                self.shadows,
                self.store,
                interval=cfg.checkpoint_interval,
            ).start()

    def _make_replacement(self, g: int, epoch: int) -> _ShadowRanker:
        """Recovery factory: reset group ``g`` to blank-node state.

        Mirrors the event engine's fresh :class:`DPRNode` (zero ranks,
        empty afferent memory, zeroed counters, nothing sent yet); the
        recovery manager restores the latest checkpoint on top, if one
        exists.
        """
        eng = self.engine
        sl = eng._slices[g]
        eng._r[sl] = 0.0
        eng._x[sl] = 0.0
        eng._latest[g] = {}
        eng._gen_latest[g] = {}
        eng._outer[g] = 0
        eng._inner_sweeps[g] = 0
        eng._stale[g] = 0
        eng._last_delta[g] = np.inf
        eng._credit[g] = 0.0
        eng._mail.discard(g)
        for h, _csl, _idx, _records in eng._pairs_by_src[g]:
            eng._last_sent.pop((g, h), None)
        return _ShadowRanker(eng, g)

    def _on_deliver(self, dst: int, update: ScoreUpdate) -> None:
        """Transport upcall: DPRNode.receive semantics over flat state."""
        if self.reliable is None and self.shadows[dst].crashed:
            # Plain transports deliver into the dead group's ranker,
            # which drops on the floor (PageRanker.receive); the
            # reliable wrapper's alive-oracle already dead-dropped.
            return
        self.engine._apply(
            update.src_group, dst, update.values, update.generation
        )

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
        fields["crashed_groups"] = (
            self.crash_injector.fired(now)
            if self.crash_injector is not None
            else sum(1 for s in self.shadows if s.crashed)
        )
        fields["deaths_detected"] = (
            self.heartbeat.deaths_detected if self.heartbeat is not None else 0
        )
        fields["takeovers"] = (
            self.recovery.takeover_count if self.recovery is not None else 0
        )
        fields["checkpoint_saves"] = self.store.saves
        return fields
