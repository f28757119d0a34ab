"""The repo benchmark: one workload, one seed, every metric.

    python3 perfbench/run.py --workload rank-1e6 --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  Inputs are generated from ``--seed``
(cached under ``.perfbench/cache``), then every sample runs in a fresh
``worker.py`` process with BLAS/OpenMP threads capped.  With
``--trace 0`` the end-to-end metrics are printed; with ``--trace 1`` an
untraced and a traced sample run and the per-layer table is printed.
The last line of standard output is the JSON result; the full record
(host, samples, spans file) is written under ``.perfbench/out``.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from host import capped_env
from layers import PER_LAYER
from stats import percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Workload names, in the order BENCHMARK.json lists them.
WORKLOAD_NAMES = ("rank-1e6", "comm-1e5-delta", "chaos-1e5", "serve-1e5")

#: End-to-end metrics reported with ``--trace 0`` (all workloads).
END_TO_END = (
    ("setup_s", "s"),
    ("time_to_eps_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("query_p99_us", "us"),
)

#: Further end-to-end figures printed (not gated): those a workload
#: does not produce print as n/a.
INFO = (
    ("setup_wall_s", "s"),
    ("time_to_eps_wall_s", "s"),
    ("probe_ms", "ms"),
    ("query_p50_us", "us"),
    ("rounds_to_eps", "rounds"),
    ("wire_bytes_to_eps", "bytes"),
    ("messages_to_eps", "messages"),
    ("update_ms_p50", "ms"),
    ("update_ms_p90", "ms"),
)

#: Set-up samples per run (full samples count towards it).
MIN_SETUP_SAMPLES = 3
#: Full samples per run: at least this many, more (up to MAX_FULL)
#: while the measured time is below ``--seconds``.  Ranking samples
#: repeat identical work, so they combine into per-round and per-query
#: medians; the cheap chaos-1e5 takes one more.  serve-1e5's 100-batch
#: schedule outlasts ``--seconds`` by itself.
MIN_FULL = {"rank-1e6": 3, "comm-1e5-delta": 3, "chaos-1e5": 4, "serve-1e5": 1}
MAX_FULL = 5
#: Every run ends within this many seconds of its start.
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


class Runner:
    def __init__(self, workload: str, started: float):
        self.workload = workload
        self.started = started
        self.out_dir = ROOT / ".perfbench"
        self.env = _child_env()

    def left(self) -> float:
        return DEADLINE_S - (time.monotonic() - self.started)

    def child(self, *args: str) -> dict:
        timeout = self.left()
        if timeout <= 0:
            raise BenchError("out of time before the next sample")
        cmd = [sys.executable, str(HERE / "worker.py"), *args]
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, env=self.env, capture_output=True, text=True,
                timeout=timeout,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{args[0]} timed out after {timeout:.0f}s") from exc
        if proc.returncode != 0:
            raise BenchError(
                f"{' '.join(args[:3])} exited {proc.returncode}:\n{proc.stderr[-4000:]}"
            )
        lines = proc.stdout.strip().splitlines()
        if not lines:
            raise BenchError(f"{args[0]} printed no result")
        return json.loads(lines[-1])

    def sample(self, dirs: dict, *extra: str) -> dict:
        return self.child("measure", "--workload", self.workload,
                          "--dirs", json.dumps(dirs), *extra)


def _child_env() -> dict:
    env = capped_env(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def copy_bandwidth(runner: Runner, fresh: bool) -> dict:
    """Host copy bandwidth; measured fresh for traced runs, else cached."""
    path = runner.out_dir / "copy_bandwidth.json"
    if not fresh:
        try:
            return json.loads(path.read_text())
        except (OSError, ValueError):
            pass
    bw = runner.child("copybw")
    path.write_text(json.dumps(bw))
    return bw


def _median(samples, key):
    return statistics.median(s[key] for s in samples)


def aggregate(full: list) -> tuple:
    """End-to-end metrics of a run from its full samples.

    Ranking samples repeat the same deterministic run and the same
    closed-loop query stream, so the run's figures are built from
    per-item medians: ``time_to_eps_s`` is the sum over rounds of each
    round's median wall time, and the query percentiles are taken over
    each query's median latency.  A slow spell of the host that hits
    one sample's round or query is outvoted by the other samples.
    Returns ``(metrics, problems)``.
    """
    problems = []
    metrics = {k: _median(full, k) for k in ("time_to_eps_s", "peak_rss_mb",
                                            "query_p50_us", "query_p99_us")}
    if "round_s" not in full[0]:
        return metrics, problems
    rounds = [s["round_s"] for s in full]
    if len({len(r) for r in rounds}) == 1:
        metrics["time_to_eps_s"] = sum(statistics.median(c) for c in zip(*rounds))
    else:
        problems.append(f"samples ran different round counts: {[len(r) for r in rounds]}")
    per_query = [statistics.median(c) for c in zip(*(s["query_s"] for s in full))]
    metrics["query_p50_us"] = percentile(per_query, 50.0) * 1e6
    metrics["query_p99_us"] = percentile(per_query, 99.0) * 1e6
    return metrics, problems


def run_timed(runner: Runner, dirs: dict, seconds: float):
    """Full samples plus set-up-only samples.

    Returns ``(metrics, info, full samples, set-up times, problems)``.
    """
    full = []
    measured = 0.0
    min_full = MIN_FULL[runner.workload]
    while len(full) < min_full or (measured < seconds and len(full) < MAX_FULL):
        if full and runner.left() < 2.5 * max(s["busy_s"] for s in full) + 10:
            break
        s = runner.sample(dirs)
        full.append(s)
        measured += s["busy_s"]
    setups = [s["setup_s"] for s in full]
    while len(setups) < MIN_SETUP_SAMPLES:
        setups.append(runner.sample(dirs, "--setup-only")["setup_s"])
    figures, problems = aggregate(full)
    figures["setup_s"] = statistics.median(setups)
    metrics = {k: figures[k] for k, _ in END_TO_END}
    info = {k: figures.get(k, _median(full, k)) for k, _ in INFO if k in full[0]}
    return metrics, info, full, setups, problems


def run_traced(runner: Runner, dirs: dict, copy_gbps: float, trace_file: Path):
    """An untraced and a traced sample; returns (layers, samples, problems)."""
    base = runner.sample(dirs)
    traced = runner.sample(dirs, "--trace-out", str(trace_file),
                           "--copy-gbps", repr(copy_gbps))
    layers = traced.pop("layers")
    layers["trace.overhead_s"] = traced["busy_s"] - base["busy_s"]
    problems = []
    if traced["identity"] != base["identity"]:
        problems.append("traced run's ranks or traffic counters differ from untraced")
    return layers, [base, traced], problems


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2

    started = time.monotonic()
    runner = Runner(args.workload, started)
    runner.out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        prep = runner.child("prepare", "--workload", args.workload,
                            "--seed", str(args.seed),
                            "--cache", str(runner.out_dir / "cache"))
        dirs, host = prep["dirs"], prep["host"]
        host.update(copy_bandwidth(runner, fresh=bool(args.trace)))
        if args.trace:
            trace_file = runner.out_dir / f"{stem}-spans.json"
            layers, samples, problems = run_traced(
                runner, dirs, host["copy_gbps"], trace_file
            )
            metrics, info, units = layers, {}, dict(PER_LAYER)
        else:
            metrics, info, samples, setups, problems = run_timed(
                runner, dirs, args.seconds
            )
            units = dict(END_TO_END)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(s["attempted"] for s in samples)
    failed = sum(s["failed"] for s in samples) + len(problems)
    reasons = [r for s in samples for r in s["reasons"]] + problems

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"samples {len(samples)}"
          + ("" if args.trace else f" (+{len(setups) - len(samples)} set-up only)"))
    print("host " + json.dumps(host, sort_keys=True))
    if args.trace:
        _print_layer_table(metrics)
        print(f"spans written to {trace_file.relative_to(ROOT)}")
    else:
        for name, unit in END_TO_END:
            print(f"  {name:<20} {_fmt(metrics[name]):>14} {unit}")
        for name, unit in INFO:
            print(f"  {name:<20} {_fmt(info.get(name, 'n/a')):>14} {unit}")
    print(f"  {'failed_frac':<20} {_fmt(failed / max(attempted, 1)):>14} ratio"
          f"  ({failed} of {attempted})")
    for reason in reasons[:10]:
        print(f"  FAILED: {reason}")

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "host": host, "metrics": metrics, "info": info,
        "attempted": attempted, "failed": failed, "reasons": reasons,
        "samples": samples,
    }
    (runner.out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def _print_layer_table(layers: dict) -> None:
    print(f"  {'layer metric':<36} {'value':>14} unit")
    for name, unit in PER_LAYER:
        print(f"  {name:<36} {_fmt(layers[name]):>14} {unit}")


if __name__ == "__main__":
    sys.exit(main())
