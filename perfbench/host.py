"""Host record printed with every result, and the copy-bandwidth probe."""

from __future__ import annotations

import os
import platform
import time
from pathlib import Path

#: BLAS/OpenMP thread variables capped for every benchmark process.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def thread_cap() -> int:
    """Threads the load may use: the CPUs this process may run on, at most 2."""
    return max(1, min(2, len(os.sched_getaffinity(0))))


def capped_env(env: dict) -> dict:
    env = dict(env)
    cap = str(thread_cap())
    for var in THREAD_VARS:
        env[var] = cap
    return env


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def last_level_cache_bytes() -> int:
    """Size of the largest CPU cache sysfs reports (0 if unknown)."""
    best = 0
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for entry in base.glob("index*"):
        try:
            text = (entry / "size").read_text().strip()
        except OSError:
            continue
        scale = {"K": 1024, "M": 1024**2, "G": 1024**3}.get(text[-1:], 1)
        digits = text.rstrip("KMG")
        if digits.isdigit():
            best = max(best, int(digits) * scale)
    return best


def git_commit(root: Path) -> str:
    """HEAD of the checkout if it is a git work tree, else "unknown"."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            path = git / ref
            if path.exists():
                return path.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return "unknown"
        return head
    except OSError:
        return "unknown"


def copy_bandwidth(llc_bytes: int) -> dict:
    """Best-of-five ``np.copyto`` bandwidth over arrays beyond the LLC.

    Source and destination are each twice the last-level cache, so the
    copy's working set is four times it (64 MiB each at least).  Bytes
    moved count the read and the write.
    """
    import numpy as np

    each = max(2 * llc_bytes, 64 * 1024**2)
    n = each // 8
    src = np.ones(n, dtype=np.float64)
    dst = np.zeros(n, dtype=np.float64)
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        np.copyto(dst, src)
        best = min(best, time.perf_counter() - t0)
    return {
        "copy_gbps": 2 * n * 8 / best / 1e9,
        "copy_array_bytes": int(n * 8),
        "llc_bytes": int(llc_bytes),
    }


#: Probe time at the reference host speed.  Scaled times read as
#: seconds on a host where :func:`speed_probe` takes this long (a round
#: figure near its time on the 2-vCPU Xeon host the bounds were set on).
PROBE_REF_S = 2.5e-3

_PROBE_INPUTS = None


def _probe_inputs():
    global _PROBE_INPUTS
    if _PROBE_INPUTS is None:
        import numpy as np

        rng = np.random.default_rng(0)
        table = rng.random(4_000_000)
        _PROBE_INPUTS = (
            table,
            rng.integers(0, table.size, size=100_000),
            [int(k) for k in rng.integers(0, 1 << 30, size=4_000)],
        )
    return _PROBE_INPUTS


def probe_bytes() -> int:
    """Bytes the probe's own arrays hold (0 before the first probe)."""
    if _PROBE_INPUTS is None:
        return 0
    table, idx, _ = _PROBE_INPUTS
    return table.nbytes + idx.nbytes


def speed_probe() -> float:
    """Seconds one fixed slice of work takes now: the fastest of three
    tries, so that a preemption inside one try does not count.

    The slice is a random gather of 1e5 doubles from a 32 MB table,
    which waits on memory like the sparse kernels, plus a dict build
    and a sorted walk over 4000 ints, which runs the interpreter on
    scattered objects like the engines' Python loops.  The code is the
    benchmark's own and never changes with the program, so its time
    tracks only the host's current speed.  On a shared host that speed
    swings by up to 1.8x in spells of seconds to minutes; dividing a
    span of work by the probe times around it removes most of that.
    """
    table, idx, keys = _probe_inputs()
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        table[idx].sum()
        pos = {k: i for i, k in enumerate(keys)}
        acc = 0
        for k in sorted(keys):
            acc += pos[k]
        times.append(time.perf_counter() - t0)
    return min(times)


def host_record(root: Path) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_thread_cap": thread_cap(),
        "git_commit": git_commit(root),
    }
