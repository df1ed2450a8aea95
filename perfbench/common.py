"""Helpers shared by the workloads: statistics, process probes, output."""

from __future__ import annotations

import json
import os
import resource
import sys

#: where traced runs write their span files, relative to the checkout root
TRACE_DIR = ".bench_trace"
#: scratch space for on-disk state (cluster WAL shadows)
TMP_DIR = ".bench_tmp"
#: builds (``setup_s`` samples) and restarts (``recovery_s`` samples)
#: per run, spread over the run with the timed phase between them
ROUNDS = 5
#: the timed phase is cut into slices of about this many seconds; each
#: slice gives one throughput, CPU and latency sample
SLICE_S = 0.5
#: where a timing is read among its samples, counted from the good end
#: (the fast builds, slices and restarts).  Load from elsewhere on the
#: machine only ever slows the program down, and on a shared host it
#: does so in stretches of tens of seconds (README.md, "Steadiness").
FAST_Q = 0.1
#: stated tolerance of the ledger: the request self times must add up to
#: the traced phase's wall time x connections within this share.  Self
#: times always add up to their request's duration, so this bounds the
#: share of the phase the benchmark's own loop spends outside requests.
LEDGER_TOLERANCE = 0.15


class CheckFailed(Exception):
    """A correctness check failed: the run's result is wrong."""


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated ``q``-quantile (0..1) of ``values``."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def fast_end(values: list[float], higher_is_better: bool = False) -> float:
    """The ``FAST_Q`` quantile of ``values`` counted from the good end."""
    return percentile(values, 1.0 - FAST_Q if higher_is_better else FAST_Q)


def latency_tails(latencies: dict[str, list[float]]) -> dict[str, float]:
    """p99 in µs and sample count per op kind."""
    out = {}
    for kind in ("get", "put", "scan"):
        samples = latencies.get(kind, [])
        out[f"{kind}_p99_us"] = percentile(samples, 0.99) * 1e6
        out[f"{kind}_samples"] = len(samples)
    return out


def _delta(a: dict, b: dict, *path) -> float:
    for key in path:
        a = a.get(key, {}) if isinstance(a, dict) else 0
        b = b.get(key, {}) if isinstance(b, dict) else 0
    return (b or 0) - (a or 0)


def registry_metrics(m0, mw, m1, ops_w, puts_w, commits_w, ops) -> dict:
    """Per-layer metrics from ``db.metrics.snapshot()``-shaped snapshots.

    Counts are deltas over the counting window ``m0 -> mw`` (``ops_w``
    operations, ``puts_w`` of them puts, ``commits_w`` commits); times are
    deltas over the whole phase ``m0 -> m1`` (``ops`` operations).
    """
    hits = _delta(m0, mw, "buffer", "hits")
    misses = _delta(m0, mw, "buffer", "misses")
    reads = _delta(m0, m1, "buffer", "io_read_ns", "count")
    latch_wait = sum(
        _delta(m0, m1, "op", kind, "latch_wait_ns") for kind in m1.get("op", {})
    )
    return {
        "gist.splits_per_1k_puts": (
            _delta(m0, mw, "gist", "splits") / puts_w * 1e3 if puts_w else 0.0
        ),
        "gist.rightlink_follows": _delta(m0, mw, "gist", "rightlink_follows"),
        "gist.nsn_restarts": _delta(m0, mw, "gist", "restarts", "nsn_mismatch"),
        "storage.hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "storage.reads_per_op": _delta(m0, mw, "io", "reads") / ops_w,
        "storage.writes_per_op": _delta(m0, mw, "io", "writes") / ops_w,
        "storage.evictions_per_op": _delta(m0, mw, "buffer", "evictions") / ops_w,
        "storage.read_us": (
            _delta(m0, m1, "buffer", "io_read_ns", "sum") / reads / 1e3
            if reads
            else 0.0
        ),
        "sync.latch_acquisitions_per_op": _delta(m0, mw, "latch", "acquisitions")
        / ops_w,
        "sync.latch_wait_us_per_op": latch_wait / ops / 1e3,
        "lock.acquires_per_op": _delta(m0, mw, "lock", "acquires") / ops_w,
        "lock.waits_per_1k_ops": _delta(m0, mw, "lock", "waits") / ops_w * 1e3,
        "lock.wait_us_per_op": _delta(m0, m1, "lock", "wait_ns", "sum") / ops / 1e3,
        "lock.deadlocks": _delta(m0, m1, "lock", "deadlocks"),
        "wal.appends_per_op": _delta(m0, mw, "wal", "appends") / ops_w,
        "wal.flushes_per_commit": (
            _delta(m0, mw, "wal", "flushes") / commits_w if commits_w else 0.0
        ),
    }


def recovery_metrics(snapshot: dict) -> dict:
    """Restart-recovery pass times from a recovered database's snapshot."""
    rec = snapshot.get("recovery", {})
    return {
        f"recovery.{phase}_ms": rec.get(f"{phase}_ns", {}).get("sum", 0) / 1e6
        for phase in ("analysis", "redo", "undo")
    }


def self_rss_mb() -> float:
    """Peak resident set of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds of a live process (from /proc)."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    ticks = int(fields[11]) + int(fields[12])
    return ticks / os.sysconf("SC_CLK_TCK")


def proc_hwm_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of a live process, in MiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise CheckFailed(f"no VmHWM for pid {pid}")


def emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    """Print the result object as the last line of standard output."""
    sys.stdout.write(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
        + "\n"
    )
    sys.stdout.flush()
