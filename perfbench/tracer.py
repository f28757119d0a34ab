"""In-memory span tracer and the wrappers that time each repro layer.

The benchmark measures every layer from outside: it rebinds public
functions and methods of ``repro`` to timing wrappers, runs the
workload, and restores the originals.  Nothing inside ``src`` is
edited.  ``from x import f`` copies the binding, so a wrapped function
is replaced in every loaded ``repro.*`` module that holds it.

A span is ``[span_id, name, start, end, parent_id, run_id]``.  Spans
stay in a list until the run ends; :func:`self_times` turns them into
per-name self time (duration minus the time covered by child spans).
"""

from __future__ import annotations

import functools
import resource
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Tuple

_clock = time.perf_counter


class Tracer:
    """Collects spans and counters of one traced run."""

    def __init__(self, run_id: int = 0):
        self.run_id = run_id
        self.spans: List[list] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._stack: List[list] = []
        #: While True, wrappers call straight through (used around the
        #: benchmark's own correctness checks).
        self.paused = False

    def open(self, name: str) -> list:
        parent = self._stack[-1][0] if self._stack else -1
        span = [len(self.spans), name, _clock(), 0.0, parent, self.run_id]
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: list) -> None:
        span[3] = _clock()
        popped = self._stack.pop()
        if popped is not span:  # pragma: no cover - wrapper misuse
            raise RuntimeError(f"span {span[1]!r} closed out of order")

    def span(self, name: str) -> "_SpanContext":
        return _SpanContext(self, name)

    def parent_name(self) -> Optional[str]:
        """Name of the innermost open span (None at top level)."""
        return self._stack[-1][1] if self._stack else None

    def records(self) -> dict:
        """All spans as one JSON-ready table."""
        return {
            "fields": ["id", "name", "start", "end", "parent", "run"],
            "spans": self.spans,
        }


class _SpanContext:
    __slots__ = ("tracer", "name", "span")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.span = self.tracer.open(self.name)
        return self.span

    def __exit__(self, *exc):
        self.tracer.close(self.span)
        return False


def self_times(spans: Iterable[list]) -> Dict[str, Tuple[float, int]]:
    """Per-name ``(self seconds, calls)``.

    Self time is a span's duration minus the union of the intervals its
    direct children cover, clipped to the span.  Spans are
    ``[id, name, start, end, parent, ...]`` lists.
    """
    spans = list(spans)
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s[4] >= 0:
            children[s[4]].append((s[2], s[3]))
    out: Dict[str, List[float]] = defaultdict(lambda: [0.0, 0])
    for s in spans:
        start, end = s[2], s[3]
        covered = 0.0
        cursor = start
        for c0, c1 in sorted(children.get(s[0], ())):
            c0 = max(c0, cursor)
            c1 = min(c1, end)
            if c1 > c0:
                covered += c1 - c0
                cursor = c1
        acc = out[s[1]]
        acc[0] += (end - start) - covered
        acc[1] += 1
    return {name: (v[0], int(v[1])) for name, v in out.items()}


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------
def _timed(tracer: Tracer, name, fn: Callable, after=None) -> Callable:
    """Wrap ``fn`` in a span.

    ``name`` is a span name, or a callable ``(args) -> name | None``
    that picks the span per call (``None`` calls through untraced).
    ``after(tracer, args, kwargs, result, parent)`` records counters
    once the call returned; ``parent`` is the enclosing span's name.
    """
    pick = name if callable(name) else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        label = pick(args) if pick is not None else name
        if label is None or tracer.paused:
            return fn(*args, **kwargs)
        parent = tracer.parent_name()
        span = tracer.open(label)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if after is not None:
            after(tracer, args, kwargs, result, parent)
        return result

    return wrapper


def _counted(tracer: Tracer, name: str, fn: Callable) -> Callable:
    """Count calls without a span (for calls too cheap to time)."""
    counts = tracer.counts

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.paused:
            counts[name] += 1
        return fn(*args, **kwargs)

    return wrapper


class Patches:
    """Rebinds attributes and restores every original on :meth:`undo`."""

    def __init__(self):
        self._saved: List[Tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def function(self, original: Callable, wrapper: Callable) -> None:
        """Replace ``original`` in every ``repro.*`` module binding it."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (
                mod_name == "repro" or mod_name.startswith("repro.")
            ):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self.set(mod, attr, wrapper)

    def undo(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


# ----------------------------------------------------------------------
# Counter hooks (run after the wrapped call returns)
# ----------------------------------------------------------------------
def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _after_solve(tracer, args, kwargs, result, parent):
    c = tracer.counts
    p = args[0]
    n = p.shape[0]
    c["linalg.jacobi.sweeps"] += result.iterations
    # Bytes one workspace sweep streams: the CSR arrays once, plus the
    # vector passes of JacobiWorkspace.sweep_delta (read x, write out;
    # out += f reads out and f, writes out; out - x into scratch reads
    # two, writes one; abs reads and writes scratch; sum reads it).
    csr = p.data.nbytes + p.indices.nbytes + p.indptr.nbytes
    c["linalg.jacobi.bytes"] += result.iterations * (csr + 12 * 8 * n)


def _after_encode(tracer, args, kwargs, result, parent):
    tracer.counts[
        "net.adaptive.suppressed" if result is None else "net.adaptive.frames"
    ] += 1


def _after_route(tracer, args, kwargs, result, parent):
    tracer.counts["overlay.hops"] += result.hops


def _after_send(tracer, args, kwargs, result, parent):
    tracer.counts["net.transport.sends"] += len(args[2])


def _after_flush(tracer, args, kwargs, result, parent):
    c = tracer.counts
    c["serve.incremental.updates"] += 1
    c["serve.incremental.inner_sweeps"] += result.inner_sweeps
    c["serve.incremental.dirty_groups"] += result.dirty_groups
    c["serve.incremental.full_fallbacks"] += result.mode == "full"
    c["serve.incremental.mutations"] += len(args[1])


#: Parents under which a RankIndex.update call is the initial build
#: (the RankServer constructor, or the benchmark publishing ranks).
BUILD_PARENTS = {"serve.server.init", "bench.publish"}


def _after_index_update(tracer, args, kwargs, result, parent):
    if parent not in BUILD_PARENTS:
        tracer.counts["serve.index.changed_pages"] += len(args[1])


def install(tracer: Tracer, n_pages: int) -> Patches:
    """Wrap every measured layer; returns the patches to undo.

    ``n_pages`` (the workload's graph size) classifies
    ``csr_matvec_into`` calls by the matrix argument's shape: the cut
    SpMV is ``(m, n)``, the afferent delivery ``(n, m)`` and the DPR2
    global sweep ``(n, n)``; any other shape is a per-group kernel
    call inside ``jacobi_solve`` and runs untraced, inside the solve.
    """
    # Import every module whose bindings get replaced, so the scan in
    # Patches.function sees each copy.
    import repro.core.coordinator  # noqa: F401
    import repro.core.open_system  # noqa: F401
    from repro.core.engine import SynchronousEngine
    from repro.core.hybrid import HybridEngine
    from repro.core.recovery import CheckpointStore, RecoveryManager
    from repro.graph import io as graph_io
    from repro.graph import partition as graph_partition
    from repro.linalg import jacobi, operators
    from repro.net.adaptive import AdaptiveCodec
    from repro.net.bandwidth import TrafficAccountant
    from repro.net.simulator import Simulator
    from repro.net.transport import DirectTransport, IndirectTransport
    from repro.overlay import base as overlay_base
    from repro import overlay
    from repro.serve import incremental, index, service

    patches = Patches()
    fn = patches.function

    fn(graph_io.load_webgraph, _timed(tracer, "graph.io.load", graph_io.load_webgraph))
    fn(
        graph_partition.make_partition,
        _timed(tracer, "graph.partition.make", graph_partition.make_partition),
    )

    def after_assemble(tr, args, kwargs, blocks, parent):
        c = tr.counts
        c["linalg.operators.nnz"] += sum(b.nnz for b in blocks.diag) + sum(
            b.nnz for b in blocks.cross.values()
        )

    assemble = operators.group_blocks

    def assemble_with_rss(*args, **kwargs):
        before = _rss_mb()
        out = assemble(*args, **kwargs)
        tracer.counts["linalg.operators.assemble_rss_mb"] += _rss_mb() - before
        return out

    fn(
        assemble,
        _timed(
            tracer,
            "linalg.operators.assemble",
            functools.wraps(assemble)(assemble_with_rss),
            after_assemble,
        ),
    )
    fn(jacobi.jacobi_solve, _timed(tracer, "linalg.jacobi.solve", jacobi.jacobi_solve, _after_solve))

    def classify(args) -> Optional[str]:
        rows, cols = args[0].shape
        if rows == n_pages and cols == n_pages:
            return "linalg.jacobi.spmv_sweep"
        if cols == n_pages:
            return "linalg.jacobi.spmv_cut"
        if rows == n_pages:
            return "linalg.jacobi.spmv_afferent"
        return None

    fn(jacobi.csr_matvec_into, _timed(tracer, classify, jacobi.csr_matvec_into))
    fn(overlay.build_overlay, _timed(tracer, "overlay.build", overlay.build_overlay))

    methods = [
        (SynchronousEngine, "__init__", "core.engine.init", None),
        (HybridEngine, "__init__", "core.engine.init", None),
        (SynchronousEngine, "run", "core.engine.run", None),
        (SynchronousEngine, "assemble_ranks", "core.engine.sample", None),
        (TrafficAccountant, "snapshot", "net.bandwidth.snapshot", None),
        (AdaptiveCodec, "encode", "net.adaptive.encode", _after_encode),
        (overlay_base.Overlay, "route", "overlay.route", _after_route),
        (DirectTransport, "send_updates", "net.transport.send", _after_send),
        (IndirectTransport, "send_updates", "net.transport.send", _after_send),
        (Simulator, "run", "net.simulator.run", None),
        (RecoveryManager, "on_death", "core.recovery", None),
        (CheckpointStore, "save", "core.recovery", None),
        (service.RankServer, "__init__", "serve.server.init", None),
        (incremental.IncrementalRanker, "__init__", "serve.incremental.init", None),
        (incremental.IncrementalRanker, "update", "serve.incremental.update", _after_flush),
        (index.RankIndex, "update", "serve.index.update", _after_index_update),
        (index.RankIndex, "top_k", "serve.index.topk", None),
        (index.RankIndex, "rank_of", "serve.index.rank_of", None),
        (index.RankIndex, "percentile", "serve.index.percentile", None),
    ]
    for cls, attr, name, after in methods:
        patches.set(cls, attr, _timed(tracer, name, cls.__dict__[attr], after))

    patches.set(Simulator, "step", _counted(tracer, "net.simulator.events", Simulator.step))
    for attr in ("record_data_message", "record_lookup", "record_ack", "merge"):
        patches.set(
            TrafficAccountant,
            attr,
            _counted(tracer, "net.bandwidth.calls", TrafficAccountant.__dict__[attr]),
        )
    return patches
