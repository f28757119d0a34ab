"""The two ARQ drivers apply the same rules.

:class:`~repro.net.reliable.ReliableTransport` spreads a conversation
along simulator timers; the round engine's replay
(:class:`~repro.core.faults._ReplayARQ`) resolves it in one loop.  Both
drive :class:`~repro.net.reliable.ARQRules`.  These tests script the
loss and chaos draws of single-message conversations and require both
drivers to reach the same counters, the same origin-loss drops, the
same data and ACK bytes, and the same delivered verdict.
"""

import numpy as np
import pytest

from repro.core.faults import _ReplayARQ
from repro.net.bandwidth import TrafficAccountant
from repro.net.failures import ChaosModel
from repro.net.latency import FixedLatency
from repro.net.message import LINK_RECORD_BYTES, ScoreUpdate
from repro.net.reliable import ReliableTransport, RetryPolicy
from repro.net.simulator import Simulator
from repro.net.transport import DirectTransport
from repro.overlay.base import Overlay

N = 5
SRC, DST = 0, 3
RECORDS = 2
COUNTERS = (
    "retransmits",
    "gave_up",
    "dup_drops",
    "dead_drops",
    "acks_lost",
    "chaos_duplicates",
)


class LineOverlay(Overlay):
    """Deterministic chain (hop count i -> j is |i - j|)."""

    def neighbors(self, node):
        return [n for n in (node - 1, node + 1) if 0 <= n < self.n_nodes]

    def next_hop(self, at, dst):
        return at + 1 if dst > at else at - 1


class ScriptedLoss:
    """Origin loss following a fixed script, then delivering."""

    def __init__(self, script):
        self._script = list(script)

    def delivered(self, src_group, dst_group):
        return self._script.pop(0) if self._script else True


class ScriptedChaos(ChaosModel):
    """Chaos with scripted duplicate and ACK-loss draws, no reordering."""

    def __init__(self, *, duplicate=(), ack_lost=()):
        super().__init__()
        self._duplicate = list(duplicate)
        self._ack_lost = list(ack_lost)

    def reorder_delay(self):
        return 0.0

    def duplicate(self):
        return self._duplicate.pop(0) if self._duplicate else False

    def ack_lost(self):
        return self._ack_lost.pop(0) if self._ack_lost else False


#: name -> (loss script, duplicate script, ACK-loss script, retry
#: budget, destination alive)
SCENARIOS = {
    "lost-then-ack-lost-then-acked": ([False, True, True], [], [True, False], 8, True),
    "chaos-duplicate": ([], [True], [], 8, True),
    "retry-exhaustion": ([False, False, False], [], [], 2, True),
    "dead-destination": ([], [], [], 2, False),
}


def _rules(name):
    loss, duplicate, ack_lost, max_retries, alive = SCENARIOS[name]
    return ScriptedLoss(loss), dict(
        # The worst path here is 3 hops + 1 ACK hop at latency 1.0, so
        # a 20.0 timeout never fires before an ACK that is on its way.
        retry=RetryPolicy(timeout=20.0, max_retries=max_retries),
        chaos=ScriptedChaos(duplicate=duplicate, ack_lost=ack_lost),
        alive=lambda g: alive,
    )


def _outcome(arq, acc, delivered):
    return {
        "counters": {name: getattr(arq, name) for name in COUNTERS},
        "dropped_updates": arq.dropped_updates,
        "data": (acc.data_messages, acc.data_bytes, acc.paper_data_bytes),
        "lookups": (acc.lookup_messages, acc.lookup_bytes),
        "acks": (acc.ack_messages, acc.ack_bytes),
        "delivered": delivered,
        "in_flight": arq.in_flight,
    }


def timer_driver(name):
    loss, rules = _rules(name)
    sim = Simulator()
    acc = TrafficAccountant(N)
    inner = DirectTransport(
        sim, LineOverlay(N), acc, loss=loss, latency=FixedLatency(1.0)
    )
    rt = ReliableTransport(inner, **rules)
    inbox = []
    rt.attach(lambda dst, update: inbox.append(update))
    rt.send_updates(
        SRC,
        [
            ScoreUpdate(
                src_group=SRC,
                dst_group=DST,
                values=np.ones(3),
                n_link_records=RECORDS,
                generation=1,
            )
        ],
    )
    sim.run()
    assert len(inbox) <= 1
    return _outcome(rt, acc, bool(inbox))


def replay_driver(name):
    loss, rules = _rules(name)
    acc = TrafficAccountant(N)
    arq = _ReplayARQ(loss=loss, overlay=LineOverlay(N), accountant=acc, **rules)
    payload = RECORDS * LINK_RECORD_BYTES
    delivered = arq.send(SRC, DST, payload, paper_bytes=payload)
    return _outcome(arq, acc, delivered)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_drivers_agree(name):
    assert timer_driver(name) == replay_driver(name)


def test_scenarios_reach_each_rule():
    """Each script exercises the rule its name says (the drivers agree
    on every scenario, so checking the replay covers both)."""
    out = {name: replay_driver(name) for name in SCENARIOS}
    first = out["lost-then-ack-lost-then-acked"]
    assert first["delivered"] and first["dropped_updates"] == 1
    assert first["counters"]["retransmits"] == 2
    assert first["counters"]["acks_lost"] == 1
    assert first["counters"]["dup_drops"] == 1
    dup = out["chaos-duplicate"]["counters"]
    assert (dup["chaos_duplicates"], dup["dup_drops"]) == (1, 1)
    exhausted = out["retry-exhaustion"]
    assert not exhausted["delivered"]
    assert exhausted["counters"]["gave_up"] == 1
    assert exhausted["counters"]["retransmits"] == 2
    dead = out["dead-destination"]
    assert not dead["delivered"] and dead["acks"] == (0, 0)
    assert dead["counters"]["dead_drops"] == 3
