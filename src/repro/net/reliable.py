"""Reliable delivery over an unreliable transport.

The paper's transports are fire-and-forget: the loss model drops an
update at the origin and nobody ever notices.  That is faithful to the
experiments of §5 — DPR tolerates *transient* loss statistically — but
a production deployment (and the permanent-crash scenarios of
:mod:`repro.core.recovery`) needs positive acknowledgement.

:class:`ReliableTransport` wraps either concrete transport
(:class:`~repro.net.transport.DirectTransport` or
:class:`~repro.net.transport.IndirectTransport`) with a classic
ARQ layer:

* every update is stamped with a per-(src, dst) **sequence number**;
* the receiver side **dedups** on (src, dst, seq) and **ACKs** every
  delivery — including duplicates, whose original ACK may have been
  the thing that got lost;
* the sender keeps a pending entry per in-flight seq and, on an ACK
  **timeout**, retransmits with **exponential backoff + jitter** up to
  a bounded retry budget, re-rolling the origin loss model on every
  attempt (each attempt is an independent Bernoulli trial, exactly the
  paper's ``p`` semantics).

The rules themselves — sequence numbers, the receive rule (dead
destination: swallow, no ACK; duplicate: drop; every live arrival:
ACK), the retry-or-give-up rule and the counters — live once, in
:class:`ARQRules`.  Two drivers run them: :class:`ReliableTransport`
spreads each conversation along simulator timers, and the round
engine's ARQ replay (:mod:`repro.core.faults`) resolves it in one
tight loop at the sending round.  Neither re-implements a rule, so
their retransmit, dedup and give-up semantics cannot drift apart.

The combination is *at-least-once* delivery with an *idempotent*
receiver, which is sufficient for DPR correctness: a
:class:`~repro.net.message.ScoreUpdate` **replaces** the per-source
afferent vector at the destination (generation-stamped, newest wins),
so applying a duplicate — or applying attempt #3 after attempt #1
already landed — is a no-op.  See DESIGN.md §9 for the full argument.

Fault-free behaviour is deliberately transparent: updates flow through
the inner transport with identical timing, ACK events ride the same
simulator without touching any ranker's random stream, and ACK traffic
is accounted separately from the paper's data/lookup byte model — so a
run over ``ReliableTransport`` with no faults is bit-identical to a
run over the bare transport, *provided the retry timeout exceeds the
ACK round-trip time*.  With a timeout shorter than the RTT the sender
retransmits spuriously (classic ARQ); the receiver's dedup makes that
harmless but not free, so size ``RetryPolicy.timeout`` above the
slowest path's round trip.

The layer is **codec-agnostic**: when a wire codec is active
(:mod:`repro.net.adaptive`) every retransmission resends the *same*
:class:`~repro.net.message.ScoreUpdate` object, so the encoded frame
— and its :attr:`~repro.net.message.ScoreUpdate.wire_bytes` charge —
ride along unchanged; dedup and ACK accounting never look at the
payload at all.  Sequence numbers double as the codec's delivery
order, which is why delta sessions compose with ARQ but not with
fire-and-forget loss (see ``core/capabilities.py``).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.net.failures import ChaosModel
from repro.net.message import ACK_MESSAGE_BYTES, Ack, ScoreUpdate
from repro.net.simulator import EventHandle
from repro.net.transport import Transport
from repro.utils.rng import as_generator, RngLike
from repro.utils.validation import check_non_negative

__all__ = ["ARQRules", "ReliableTransport", "RetryPolicy"]

#: (src_group, dst_group, seq) — the identity of one sequenced send.
_Key = Tuple[int, int, int]


class RetryPolicy:
    """Timeout/backoff schedule for unacknowledged sends.

    Attempt ``k`` (0-based) waits ``timeout * backoff**k`` before
    retransmitting, plus a uniform jitter in ``[0, jitter]`` that
    de-synchronizes retry storms, capped at ``max_timeout``.  After
    ``max_retries`` retransmissions the sender gives up — DPR tolerates
    the loss statistically, and a permanently dead receiver is the
    recovery layer's problem, not the transport's.
    """

    def __init__(
        self,
        *,
        timeout: float = 4.0,
        backoff: float = 2.0,
        jitter: float = 0.0,
        max_timeout: float = 60.0,
        max_retries: int = 8,
    ):
        self.timeout = check_non_negative(timeout, "timeout")
        if self.timeout <= 0:
            raise ValueError("timeout must be > 0")
        if backoff < 1.0:
            raise ValueError("backoff must be >= 1")
        self.backoff = float(backoff)
        self.jitter = check_non_negative(jitter, "jitter")
        self.max_timeout = check_non_negative(max_timeout, "max_timeout")
        if self.max_timeout < self.timeout:
            raise ValueError("max_timeout must be >= timeout")
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        self.max_retries = int(max_retries)

    def delay(self, attempt: int, rng) -> float:
        """ACK wait before retransmission number ``attempt + 1``."""
        base = min(self.timeout * self.backoff**attempt, self.max_timeout)
        if self.jitter > 0.0:
            base += float(rng.random() * self.jitter)
        return base

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RetryPolicy(timeout={self.timeout}, backoff={self.backoff}, "
            f"jitter={self.jitter}, max_retries={self.max_retries})"
        )


class _Pending:
    """Sender-side bookkeeping for one unacknowledged update."""

    __slots__ = ("update", "attempts", "timer")

    def __init__(self, update: ScoreUpdate):
        self.update = update
        self.attempts = 0  # retransmissions performed so far
        self.timer: Optional[EventHandle] = None


class ARQRules:
    """The ARQ state machine both drivers share.

    Owns the per-pair sequence numbers, the receiver's dedup memory,
    the sender's pending table and every reliability counter, and
    decides each step of a conversation; the driver only decides
    *when* a step happens.

    Parameters
    ----------
    accountant:
        Charged for every ACK a live receiver sends.
    retry:
        The timeout/backoff schedule (default :class:`RetryPolicy`).
    chaos:
        Optional :class:`~repro.net.failures.ChaosModel` supplying
        duplication, reordering, and ACK loss.  ``None`` disables all
        three without consuming randomness.
    alive:
        Optional liveness oracle ``group -> bool`` consulted on every
        receive.  A dead (crashed) group neither delivers nor ACKs —
        the message is simply swallowed, as a dead machine would.
    seed:
        Private stream for retry jitter.
    """

    def __init__(
        self,
        *,
        accountant,
        retry: Optional[RetryPolicy] = None,
        chaos: Optional[ChaosModel] = None,
        alive: Optional[Callable[[int], bool]] = None,
        seed: RngLike = 0,
    ):
        self.accountant = accountant
        self.retry = retry if retry is not None else RetryPolicy()
        self.chaos = chaos if chaos is not None else ChaosModel()
        self.alive = alive
        self._rng = as_generator(seed)
        self._next_seq: Dict[Tuple[int, int], int] = {}
        self._pending: Dict[_Key, _Pending] = {}
        #: Receiver dedup memory: delivered seqs per (src, dst) pair.
        self._delivered_seqs: Dict[Tuple[int, int], Set[int]] = {}
        #: Retransmissions performed (ACK wait expired, budget left).
        self.retransmits = 0
        #: Sends abandoned after exhausting the retry budget.
        self.gave_up = 0
        #: ACKs that arrived for already-cleared sends (late/duplicate).
        self.stale_acks = 0
        #: Duplicate deliveries suppressed by the (src, dst, seq) dedup.
        self.dup_drops = 0
        #: Updates swallowed because the destination group was dead.
        self.dead_drops = 0
        #: Duplicated transmissions injected by the chaos model.
        self.chaos_duplicates = 0
        #: ACKs destroyed in transit by the chaos model.
        self.acks_lost = 0

    @property
    def in_flight(self) -> int:
        """Currently unacknowledged sends."""
        return len(self._pending)

    def _stamp(self, src: int, dst: int) -> int:
        """Next sequence number of the (src, dst) pair."""
        pair = (src, dst)
        seq = self._next_seq.get(pair, 0)
        self._next_seq[pair] = seq + 1
        return seq

    def _duplicate(self) -> bool:
        """Chaos draw: does this wire attempt go out twice?"""
        if self.chaos.duplicate():
            self.chaos_duplicates += 1
            return True
        return False

    def _receive(self, src: int, dst: int, seq: int) -> Tuple[bool, bool]:
        """Receive rule for one arriving copy: ``(fresh, ack_survives)``.

        A dead destination swallows the copy and sends no ACK.  A live
        one delivers only the first copy of each seq, and ACKs *every*
        copy, duplicates included: the sender may be retransmitting
        precisely because the previous ACK was lost.  The ACK is
        charged when sent; the chaos model may then destroy it.
        """
        if self.alive is not None and not self.alive(dst):
            self.dead_drops += 1
            return False, False
        pair = (src, dst)
        seen = self._delivered_seqs.get(pair)
        if seen is None:
            seen = self._delivered_seqs[pair] = set()
        fresh = seq not in seen
        if fresh:
            seen.add(seq)
        else:
            self.dup_drops += 1
        self.accountant.record_ack(dst, src, ACK_MESSAGE_BYTES)
        if self.chaos.ack_lost():
            self.acks_lost += 1
            return fresh, False
        return fresh, True

    def _retry(self, attempts: int) -> bool:
        """Retry-or-give-up rule after an unACKed attempt: True when
        retransmission number ``attempts + 1`` is within budget."""
        if attempts >= self.retry.max_retries:
            self.gave_up += 1
            return False
        self.retransmits += 1
        return True

    def window_state(self) -> Dict[Tuple[int, int], Dict[str, object]]:
        """Debug snapshot of every (src, dst) sequencing window.

        Maps each pair that has ever sent to ``{"next_seq": int,
        "pending": sorted unACKed seqs}``.  The hybrid engine's
        equivalence tests use this to assert sequence continuity:
        seq numbering must never reset or skip mid-run.
        """
        state: Dict[Tuple[int, int], Dict[str, object]] = {
            pair: {"next_seq": nxt, "pending": []}
            for pair, nxt in self._next_seq.items()
        }
        # Every pending seq was stamped first, so its pair is present.
        for src, dst, seq in sorted(self._pending):
            state[(src, dst)]["pending"].append(seq)
        return state

    def stats(self) -> Dict[str, int]:
        """Reliability counters in one dict (reporting convenience)."""
        return {
            "retransmits": self.retransmits,
            "gave_up": self.gave_up,
            "dup_drops": self.dup_drops,
            "dead_drops": self.dead_drops,
            "stale_acks": self.stale_acks,
            "chaos_duplicates": self.chaos_duplicates,
            "acks_lost": self.acks_lost,
            "in_flight": self.in_flight,
        }


class ReliableTransport(ARQRules, Transport):
    """ACK/retry/dedup wrapper around a concrete transport.

    The timer driver of :class:`ARQRules`: each wire attempt arms an
    ACK timer on the simulator, and a timer firing before the ACK asks
    the retry rule whether to retransmit.

    Parameters
    ----------
    inner:
        The transport actually moving bytes (direct or indirect).  The
        wrapper installs itself as the inner deliver upcall; callers
        must :meth:`attach` to the *wrapper*, never to ``inner``.
    **rules:
        ``retry``, ``chaos``, ``alive`` and ``seed``, as for
        :class:`ARQRules`.  The jitter stream is only consumed when a
        timer is armed with ``jitter > 0``.
    """

    def __init__(self, inner: Transport, **rules):
        # ``inner`` must exist before Transport.__init__ runs: the base
        # constructor assigns ``dropped_updates = 0``, which our property
        # setter routes to the inner transport's counter.
        self.inner = inner
        Transport.__init__(
            self,
            inner.sim,
            inner.overlay,
            inner.accountant,
            loss=inner.loss,
            latency=inner.latency,
        )
        ARQRules.__init__(self, accountant=inner.accountant, **rules)
        self.inner.attach(self._on_inner_deliver)

    # ------------------------------------------------------------------
    # Proxied diagnostics: origin loss happens inside the inner
    # transport (once per attempt), so its counter is authoritative.
    # ------------------------------------------------------------------
    @property
    def dropped_updates(self) -> int:  # type: ignore[override]
        return self.inner.dropped_updates

    @dropped_updates.setter
    def dropped_updates(self, value: int) -> None:
        # Transport.__init__ assigns 0; route it to the inner counter.
        self.inner.dropped_updates = value

    # ------------------------------------------------------------------
    # Sender path
    # ------------------------------------------------------------------
    def send_updates(self, src_group: int, updates: List[ScoreUpdate]) -> None:
        """Stamp, register, and transmit; arm one ACK timer per update.

        In-order (un-reordered) updates are forwarded to the inner
        transport as one batch so the indirect transport's per-next-hop
        packing sees exactly what a bare send would — fault-free runs
        must produce identical packages.
        """
        batch: List[ScoreUpdate] = []
        for update in updates:
            update.seq = self._stamp(src_group, update.dst_group)
            key = (src_group, update.dst_group, update.seq)
            entry = _Pending(update)
            self._pending[key] = entry
            self._stage(key, entry, batch)
        if batch:
            self.inner.send_updates(src_group, batch)

    def _stage(self, key: _Key, entry: _Pending, batch: List[ScoreUpdate]) -> None:
        """Prepare one wire attempt: chaos (reorder/duplicate) staging,
        then either append to ``batch`` (sent by the caller in one inner
        call) or schedule the delayed copy.  Arms the ACK timer."""
        update = entry.update
        # A fresh physical transmission starts its hop budget over.
        update.hops_taken = 0
        delay = self.chaos.reorder_delay()
        if delay > 0.0:
            self.sim.schedule(delay, self._inner_send, update)
        else:
            batch.append(update)
        if self._duplicate():
            self._inner_send(update)
        entry.timer = self.sim.schedule(
            self.retry.delay(entry.attempts, self._rng), self._on_timeout, key
        )

    def _inner_send(self, update: ScoreUpdate) -> None:
        self.inner.send_updates(update.src_group, [update])

    def _on_timeout(self, key: _Key) -> None:
        entry = self._pending.get(key)
        if entry is None:  # ACKed between scheduling and firing
            return
        if not self._retry(entry.attempts):
            del self._pending[key]
            return
        entry.attempts += 1
        batch: List[ScoreUpdate] = []
        self._stage(key, entry, batch)
        if batch:
            self._inner_send(entry.update)

    def _on_ack(self, ack: Ack) -> None:
        entry = self._pending.pop((ack.src_group, ack.dst_group, ack.seq), None)
        if entry is None:
            self.stale_acks += 1
            return
        if entry.timer is not None:
            entry.timer.cancel()

    # ------------------------------------------------------------------
    # Receiver path
    # ------------------------------------------------------------------
    def _on_inner_deliver(self, dst_group: int, update: ScoreUpdate) -> None:
        src = update.src_group
        fresh, ack_survives = self._receive(src, dst_group, update.seq)
        if fresh:
            self._deliver_local(update)
        if ack_survives:
            self.sim.schedule(
                self.latency.hop_delay(dst_group, src),
                self._on_ack,
                Ack(src, dst_group, update.seq),
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ReliableTransport({self.inner.__class__.__name__}, "
            f"in_flight={self.in_flight}, retransmits={self.retransmits})"
        )
