"""Shared machinery of the two embedded workloads.

Each embedded workload supplies a ``Workload`` object that can build a
database, make its seeded client, open a loser transaction before a
crash and check a recovered database against its model.  This module
runs the phases (one client, closed loop, inline for a fixed time) and
the crash/restart cycles, and turns counter snapshots plus the ledger
into the per-layer metrics.
"""

from __future__ import annotations

import gc
import os
import time

from common import (
    LEDGER_TOLERANCE,
    ROUNDS,
    SLICE_S,
    TRACE_DIR,
    CheckFailed,
    fast_end,
    latency_tails,
    percentile,
    recovery_metrics,
    registry_metrics,
    self_rss_mb,
)
from ledger import Ledger, TracedExtension, instrument_database

from repro.errors import TransactionAbort

#: span name of the ledger's root span per request kind
ROOT_SPAN = {
    "get": "gist.search",
    "scan": "gist.search",
    "put": "gist.insert",
    "delete": "gist.delete",
    "begin": "txn.begin",
    "commit": "txn.commit",
}
OP_KINDS = ("get", "put", "scan", "delete")
#: the end-to-end metrics each timed slice gives a sample of
SLICE_METRICS = ("ops_s", "cpu_us_per_op", "get_p50_us", "put_p50_us", "scan_p50_us")
#: layers every embedded workload reaches; the traced run fails if the
#: proxies of one of them recorded no call
LAYERS = ("gist", "txn", "ext", "storage", "lock", "wal", "predicate")
#: the traced run's counting window: counts are taken over the first
#: WINDOW_OPS operations of the traced phase, so that a single-client
#: workload repeats them exactly whatever the machine's speed
WINDOW_OPS = 1200


class ClientStats:
    """What the client observed in one phase."""

    def __init__(self) -> None:
        self.lat: dict[str, list[float]] = {
            k: [] for k in (*OP_KINDS, "begin", "commit")
        }
        self.ops = 0
        self.attempted = 0
        self.failed = 0
        self.commits = 0


class Client:
    """Base of the seeded closed-loop client over one embedded tree.

    Subclasses implement :meth:`make_txn` (a list of ops) and
    :meth:`apply` (run and check one op).  An aborted transaction is
    rolled back, counted as a failed attempt and replaced by a fresh
    one.  ``window = (ops, callback)`` calls ``callback`` once, right
    after the ``ops``-th operation.
    """

    def __init__(self, db, tree, model, rng, ledger=None, window=None):
        self.db = db
        self.tree = tree
        self.model = model
        self.rng = rng
        self.ledger = ledger
        self.window = window
        self.total_ops = 0
        self.stats = ClientStats()

    def call(self, kind, fn, *args):
        """One call into the program, timed (and traced when tracing)."""
        t0 = time.perf_counter()
        if self.ledger is None:
            result = fn(*args)
        else:
            result = self.ledger.request(kind, ROOT_SPAN[kind], fn, *args)
        self.stats.lat[kind].append(time.perf_counter() - t0)
        return result

    def one_txn(self) -> None:
        ops = self.make_txn()
        txn = self.call("begin", self.db.begin)
        stats = self.stats
        try:
            for op in ops:
                stats.attempted += 1
                self.apply(txn, op)
                stats.ops += 1
                self.total_ops += 1
                if self.window is not None and self.total_ops == self.window[0]:
                    self.window[1]()
            self.call("commit", self.db.commit, txn)
        except TransactionAbort:
            stats.failed += 1
            if txn.is_active():
                self.db.rollback(txn)
            self.aborted()
            return
        stats.commits += 1
        self.committed()

    def make_txn(self) -> list:
        raise NotImplementedError

    def apply(self, txn, op) -> None:
        raise NotImplementedError

    def committed(self) -> None:
        """Publish the transaction's pending changes to the model."""

    def aborted(self) -> None:
        """Drop the transaction's pending changes."""


def run_phase(client: Client, seconds: float) -> dict:
    """Run the client closed-loop for ``seconds``; its observations.

    The phase ends with the first transaction that finishes after
    ``seconds``.
    """
    client.stats = stats = ClientStats()
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    deadline = t0 + seconds
    while time.perf_counter() < deadline:
        client.one_txn()
    wall = time.perf_counter() - t0
    return {
        "wall": wall,
        "cpu": time.process_time() - cpu0,
        "lat": stats.lat,
        "ops": stats.ops,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "commits": stats.commits,
    }


def build_timed(workload, seed, *, traced_ledger=None):
    """Build one database; ``(db, tree, model, seconds)``."""
    gc.collect()
    t0 = time.perf_counter()
    ext = workload.extension()
    if traced_ledger is not None:
        ext = TracedExtension(ext, traced_ledger)
    db, tree, model = workload.build(seed, ext, op_tracing=traced_ledger is not None)
    return db, tree, model, time.perf_counter() - t0


def crash_restart(workload, db, tree, model, rng):
    """Leave a loser open, crash, restart and check durability.

    The recovered tree must hold exactly the committed data.  Returns
    the restart time and the recovered database.
    """
    workload.open_loser(db, tree, model, rng)
    db.crash()
    gc.collect()
    t0 = time.perf_counter()
    # restart() does not carry the pool size over (README.md, "Known
    # defects"), so it is passed again
    db = db.restart(
        {tree.name: workload.extension()}, pool_capacity=workload.pool_capacity
    )
    seconds = time.perf_counter() - t0
    workload.check_recovered(db, db.tree(tree.name), model)
    return seconds, db


def timed_recovery(workload, db, tree, model, seed):
    """One timed crash-to-reopened cycle over the same work every time.

    A restart costs more on the bigger tree and longer log that a timed
    phase leaves behind, and a faster machine leaves more of both.  So
    the restart is timed on a freshly built database: every dirty page
    is flushed and a checkpoint is taken, the workload's
    ``recovery_txns`` seeded transactions commit, and then
    :func:`crash_restart` redoes them and undoes a loser.  Returns the
    restart time and the recovered ``(db, tree)``.
    """
    db.pool.flush_all()
    db.checkpoint()
    client = workload.client(db, tree, model, seed, label="recovery")
    for _ in range(workload.recovery_txns):
        client.one_txn()
    seconds, db = crash_restart(
        workload, db, tree, model, workload.rng(seed, "loser")
    )
    return seconds, db, db.tree(tree.name)


def run_untraced(workload, seed, seconds) -> tuple[dict, int, int]:
    """The end-to-end run: ``ROUNDS`` rounds, then a crash check.

    Each round builds a fresh database (a ``setup_s`` sample), times one
    restart of it (a ``recovery_s`` sample) and runs one fifth of the
    timed phase on the recovered database, in slices of about
    ``SLICE_S`` (a throughput, CPU and latency sample each).  Every
    metric is read at the fast end of its samples (:func:`fast_end`),
    which are spread over the whole run.
    """
    setups, restarts, slices = [], [], []
    attempted = failed = 0
    per_round = seconds / ROUNDS
    n_slices = max(1, round(per_round / SLICE_S))
    for i in range(ROUNDS):
        if i:
            del db, tree, model, client
        db, tree, model, dt = build_timed(workload, seed)
        setups.append(dt)
        restart, db, tree = timed_recovery(workload, db, tree, model, seed)
        restarts.append(restart)
        client = workload.client(db, tree, model, seed, label=f"client{i}")
        for _ in range(n_slices):
            phase = run_phase(client, per_round / n_slices)
            attempted += phase["attempted"]
            failed += phase["failed"]
            lat = phase["lat"]
            slices.append(
                {
                    "ops_s": phase["ops"] / phase["wall"],
                    "cpu_us_per_op": phase["cpu"] / phase["ops"] * 1e6,
                    **{
                        f"{kind}_p50_us": percentile(lat[kind], 0.5) * 1e6
                        for kind in ("get", "put", "scan")
                        if lat[kind]
                    },
                }
            )
    # the last slice's commits must survive a crash too (untimed)
    crash_restart(workload, db, tree, model, workload.rng(seed, "crash"))
    metrics = {
        name: fast_end([s[name] for s in slices if name in s], name == "ops_s")
        for name in SLICE_METRICS
    }
    metrics.update(
        setup_s=fast_end(setups),
        recovery_s=fast_end(restarts),
        rss_mb=self_rss_mb(),
    )
    return metrics, attempted, failed


def _counters(db, tree) -> dict:
    return {
        "m": db.metrics.snapshot(),
        "pred": tree.predicates.stats.snapshot(),
    }


def run_traced(workload, seed, seconds) -> tuple[dict, int, int]:
    """The per-layer run: an untraced half and a traced half.

    Both halves start from a freshly built database with the same seed.
    The untraced half gives the latency tails, the error rate and the
    reference throughput; the traced half gives the ledger and the
    counting window; the gap between their throughputs is the cost of
    tracing.  One restart of :func:`timed_recovery` gives the recovery
    breakdown.
    """
    half = seconds / 2.0
    db, tree, model, _ = build_timed(workload, seed)
    plain = run_phase(workload.client(db, tree, model, seed), half)
    del db, tree, model
    db, tree, model, _ = build_timed(workload, seed)
    _, db, tree = timed_recovery(workload, db, tree, model, seed)
    rec = recovery_metrics(db.metrics.snapshot())
    del db, tree, model

    ledger = Ledger()
    db, tree, model, _ = build_timed(workload, seed, traced_ledger=ledger)
    instrument_database(db, ledger)
    marks: dict = {}

    def close_window():
        marks["counters"] = _counters(db, tree)
        marks["tally"] = ledger.snapshot()
        marks["log_records"] = db.log.end_lsn

    start = _counters(db, tree)
    client = workload.client(
        db, tree, model, seed, ledger=ledger, window=(WINDOW_OPS, close_window)
    )
    traced = run_phase(client, half)
    while not marks:
        # a slow machine: keep going until the counting window is full
        extra = run_phase(client, 0.5)
        for key in ("wall", "ops", "attempted", "failed", "commits"):
            traced[key] += extra[key]
    end = _counters(db, tree)
    os.makedirs(TRACE_DIR, exist_ok=True)
    ledger.write(os.path.join(TRACE_DIR, f"{workload.name}.jsonl"))

    w0, w1 = start, marks["counters"]
    tally = marks["tally"]
    win_ops = {k: ledger.calls(tally, k, ROOT_SPAN[k]) for k in OP_KINDS}
    n_ops = sum(win_ops.values())
    win_commits = ledger.calls(tally, "commit", "txn.commit")
    ops = traced["ops"]

    def per(kind: str, span: str) -> float:
        n = win_ops[kind]
        return ledger.calls(tally, kind, span) / n if n else 0.0

    def self_us(layer: str) -> float:
        return ledger.self_ns(layer) / ops / 1e3

    # The self times of each request add up to its duration, so this
    # share is the requests' cover of the phase: what is left is the
    # benchmark's own loop (making ops, checking answers).
    coverage = ledger.total_self_ns() / (traced["wall"] * 1e9)
    if abs(coverage - 1.0) > LEDGER_TOLERANCE:
        raise CheckFailed(
            f"ledger covers {coverage:.3f} of traced wall time "
            f"(tolerance {LEDGER_TOLERANCE})"
        )
    silent = ledger.silent_layers(LAYERS)
    if silent:
        raise CheckFailed(f"no span recorded in layers {silent}")
    commit_lat = plain["lat"].get("commit", [])
    metrics = {
        "ext.consistent_per_get": per("get", "ext.consistent"),
        "ext.consistent_per_scan": per("scan", "ext.consistent"),
        "ext.penalty_per_put": per("put", "ext.penalty"),
        "ext.self_us_per_op": self_us("ext"),
        "gist.fixes_per_get": per("get", "storage.fix"),
        "gist.fixes_per_put": per("put", "storage.fix"),
        "gist.fixes_per_scan": per("scan", "storage.fix"),
        "gist.self_us_per_op": self_us("gist"),
        "storage.self_us_per_op": self_us("storage"),
        "lock.self_us_per_op": self_us("lock"),
        "predicate.attaches_per_op": (
            w1["pred"]["attaches"] - w0["pred"]["attaches"]
        )
        / n_ops,
        "predicate.checks_per_op": (w1["pred"]["checks"] - w0["pred"]["checks"])
        / n_ops,
        "predicate.comparisons_per_op": (
            w1["pred"]["comparisons"] - w0["pred"]["comparisons"]
        )
        / n_ops,
        "predicate.self_us_per_op": self_us("predicate"),
        "txn.commit_us": percentile(commit_lat, 0.5) * 1e6,
        "txn.self_us_per_op": self_us("txn"),
        "wal.log_records": marks["log_records"],
        "wal.self_us_per_op": self_us("wal"),
        "obs.trace_overhead": (traced["ops"] / traced["wall"])
        / (plain["ops"] / plain["wall"]),
        "obs.ledger_coverage": coverage,
        "error_rate": plain["failed"] / plain["attempted"],
        **rec,
        **latency_tails(plain["lat"]),
        **registry_metrics(
            w0["m"], w1["m"], end["m"], n_ops, win_ops["put"], win_commits, ops
        ),
    }
    attempted = plain["attempted"] + traced["attempted"]
    failed = plain["failed"] + traced["failed"]
    return metrics, attempted, failed

