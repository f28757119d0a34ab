"""One benchmark process: build inputs, take one sample, or probe the host.

``run.py`` starts a fresh process of this script per sample, so no
sample inherits another's heap, caches or import state.  The result is
printed as the last line of standard output, in JSON.

    python3 perfbench/worker.py prepare --workload W --seed N --cache DIR
    python3 perfbench/worker.py measure --workload W --dirs JSON [--setup-only]
        [--trace-out FILE --copy-gbps X]
    python3 perfbench/worker.py copybw
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import host  # noqa: E402
import workloads  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    sub = ap.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("prepare")
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--cache", required=True)
    m = sub.add_parser("measure")
    m.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    m.add_argument("--dirs", required=True)
    m.add_argument("--setup-only", action="store_true")
    m.add_argument("--trace-out")
    m.add_argument("--copy-gbps", type=float, default=0.0)
    sub.add_parser("copybw")
    args = ap.parse_args(argv)

    if args.mode == "prepare":
        cache = Path(args.cache)
        cache.mkdir(parents=True, exist_ok=True)
        out = {
            "dirs": workloads.prepare(args.workload, args.seed, cache),
            "host": host.host_record(ROOT),
        }
    elif args.mode == "copybw":
        out = host.copy_bandwidth(host.last_level_cache_bytes())
    else:
        out = _measure(args)
    print(json.dumps(out))
    return 0


def _measure(args) -> dict:
    dirs = json.loads(args.dirs)
    if not args.trace_out:
        return workloads.measure(args.workload, dirs, setup_only=args.setup_only)

    import tracer as tr
    from layers import layer_metrics

    spec = workloads.WORKLOADS[args.workload]
    n_pages = spec["graph"]["n_pages"] if "graph" in spec else -1
    tracer = tr.Tracer()
    patches = tr.install(tracer, n_pages)
    try:
        sample = workloads.measure(args.workload, dirs, tracer=tracer)
    finally:
        patches.undo()
    sample["layers"] = layer_metrics(tracer, sample, args.copy_gbps)
    Path(args.trace_out).write_text(json.dumps(tracer.records()))
    return sample


if __name__ == "__main__":
    sys.exit(main())
