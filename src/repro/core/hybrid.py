"""The round engine's side of the fault plane (``engine="hybrid"``).

:class:`~repro.core.engine.SynchronousEngine` runs every round engine
config.  When the config asks for faults it builds the run's one fault
stack, :class:`~repro.core.faults.FaultPlane` — the same transport,
ARQ, injectors, heartbeat, checkpoints, recovery and counters the event
engine builds — through :func:`build_fault_plane`, over lightweight
*shadow rankers* that bridge the engine's state slices.  Reliable
configs on the direct transport resolve their traffic with the plane's
round-granular ARQ replay.

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

import weakref
from functools import partial

import numpy as np

from repro.core.engine import SynchronousEngine
from repro.core.faults import FaultPlane
from repro.net.message import ScoreUpdate
from repro.utils.rng import SeedSequenceFactory

# The round kernels stay bound here: perfbench's tracer rebinds them in
# every repro module and its tests check this module's copies.
from repro.linalg.jacobi import csr_matvec_into, jacobi_solve  # noqa: F401

__all__ = ["HybridEngine", "build_fault_plane"]

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
    the engine's round loop decides who steps — so ``start`` is a
    no-op.
    """

    __slots__ = ("node", "group", "paused", "crashed")

    def __init__(self, engine: SynchronousEngine, group: int):
        self.node = _ShadowNode(engine, group)
        self.group = group
        self.paused = False
        self.crashed = False

    def start(self) -> None:
        """Nothing to start: the round loop steps live shadows."""


def _replacement(eng: SynchronousEngine, g: int, epoch: int) -> _ShadowRanker:
    """Recovery factory: reset group ``g`` to blank-node state.

    Mirrors the event engine's fresh :class:`DPRNode` (zero ranks,
    empty afferent memory, zeroed counters, nothing sent yet); the
    recovery manager restores the latest checkpoint on top, if one
    exists.
    """
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


def build_fault_plane(
    engine: SynchronousEngine, seeds: SeedSequenceFactory
) -> FaultPlane:
    """The fault plane of a faulted round engine, over shadow rankers.

    Reliable configs on the direct transport resolve their traffic
    with the round-granular ARQ replay; everything else rides the live
    transport on the plane's simulator, whose upcall applies updates
    with ``DPRNode.receive`` semantics.  The plane reaches the engine
    only through a weak proxy: the engine owns the plane, so a strong
    back-reference would keep the engine's arrays alive after the
    caller drops it, until the cyclic collector happened to run.
    """
    cfg = engine.config
    eng = weakref.proxy(engine)
    plane = FaultPlane(
        cfg,
        seeds,
        overlay=engine.overlay,
        accountant=engine.accountant,
        loss=engine._loss,
        replay_arq=cfg.transport == "direct",
    )
    shadows = [_ShadowRanker(eng, g) for g in range(cfg.n_groups)]

    def deliver(dst: int, update: ScoreUpdate) -> None:
        # A crashed group's ranker drops on the floor (PageRanker.receive).
        if not shadows[dst].crashed:
            eng._apply(update.src_group, dst, update.values, update.generation)

    plane.install(
        shadows, deliver=deliver, make_replacement=partial(_replacement, eng)
    )
    # Processes start here (sim.now == 0): identical to the event
    # engine starting them before its simulator advances.
    plane.start()
    return plane
