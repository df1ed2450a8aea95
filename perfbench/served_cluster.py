"""served-cluster: a TCP server over two hash partitions, load from afar.

Why: it is the only workload where the server's admission and sessions,
the cluster RPC, pickling, the WAL shadow and scatter-gather scans do
most of the work; tree CPU is a minor share of each request.

The benchmark process builds a ``PartitionedDatabase`` (two forked
partition workers), preloads a B-tree and serves it with a
``DatabaseServer``.  The load generator runs in its own process with two
connections: closed-loop slices give throughput, and open-loop slices
with Poisson arrivals at ``OPEN_RATE`` give the latencies, each timed
from the moment its request was due.  Keys are never deleted and
each put writes a fresh key, so the model is the set of acknowledged
puts plus the puts in flight.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import shutil
import socket
import subprocess
import sys
import threading
import time
from multiprocessing.connection import Connection

from common import (
    LEDGER_TOLERANCE,
    ROUNDS,
    SLICE_S,
    TMP_DIR,
    TRACE_DIR,
    CheckFailed,
    fast_end,
    latency_tails,
    percentile,
    proc_cpu_s,
    proc_hwm_mb,
    recovery_metrics,
    registry_metrics,
)
from ledger import write_spans

from repro import BTreeExtension, Interval
from repro.cluster import PartitionedDatabase
from repro.errors import ServerError
from repro.server import ClusterBackend, DatabaseServer, ReproClient

PARTITIONS = 2
PAGE_CAPACITY = 32
PRELOAD = 20_000
SPAN = 3 * PRELOAD
PRELOAD_BATCH = 2_000
CONNS = 2
#: cumulative op mix: get, put (a fresh key), range scan
MIX = ((0.70, "get"), (0.90, "put"), (1.0, "scan"))
SCAN_WIDTH = 30
#: the open-loop arrival rate (requests/s), about half of what the
#: closed loop sustains on a 2-CPU machine, so no backlog builds up
OPEN_RATE = 500.0
TREE = "t"
KEEP_SPANS = 300


# ----------------------------------------------------------------------
# the load generator (its own process)
# ----------------------------------------------------------------------
class LoadModel:
    """Acknowledged puts and puts in flight, shared by the connections.

    Every put writes a fresh key, so a key goes through absent -> in
    flight -> acknowledged at most once.
    """

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.acked: dict[int, int] = {k: k for k in range(0, SPAN, 3)}
        self.inflight: set[int] = set()
        self.acks: list[tuple[int, int, int]] = []

    def expect(self, lo: int, hi: int) -> list:
        """Per key of ``[lo, hi]``, the rids a read must return now;
        ``None`` for a key in flight (either state is allowed)."""
        out = []
        with self.lock:
            for k in range(lo, hi + 1):
                if k in self.inflight:
                    out.append(None)
                else:
                    rid = self.acked.get(k)
                    out.append([] if rid is None else [rid])
        return out


def check_rows(what: str, lo: int, rows, before: list, after: list) -> None:
    """Compare the rows a read of ``[lo, ...]`` returned with the model.

    ``before`` and ``after`` are :meth:`LoadModel.expect` taken when the
    request was sent and when its answer arrived.  The server may have
    read a key at any moment in between, so each key may match either
    state; a key in flight at either moment may hold anything.
    """
    got: dict[int, list] = {}
    for key, rid in rows:
        got.setdefault(key, []).append(rid)
    for i, (b, a) in enumerate(zip(before, after)):
        k = lo + i
        rids = got.pop(k, [])
        if b is None or a is None or rids == b or rids == a:
            continue
        raise CheckFailed(f"{what}: key {k} rids {rids}, model {b} then {a}")
    if got:
        raise CheckFailed(f"{what}: keys {sorted(got)} outside the range")


class Conn:
    """One connection's op stream, checks and observations."""

    def __init__(self, cid, port, model, seed, traced) -> None:
        self.cid = cid
        self.client = ReproClient("127.0.0.1", port, client_id=f"bench-{cid}")
        self.model = model
        self.rng = random.Random(f"served-cluster/{seed}/conn{cid}")
        self.next_rid = SPAN + cid
        self.lat: dict[str, list[float]] = {"get": [], "put": [], "scan": []}
        self.attempted = 0
        self.errors = 0
        self.traced = traced
        #: (verb, key, start_ns, end_ns) of every request, when traced
        self.requests: list[tuple] = []

    def next_op(self):
        rng = self.rng
        r = rng.random()
        kind = next(k for bound, k in MIX if r < bound)
        if kind == "get":
            return ("get", rng.randrange(SPAN))
        if kind == "scan":
            lo = rng.randrange(SPAN)
            return ("scan", lo)
        while True:
            k = 3 * rng.randrange(PRELOAD) + 1 + self.cid
            if k not in self.model.acked and k not in self.model.inflight:
                return ("put", k)

    def run(self, op) -> float:
        """Issue one op, check it; returns its service time."""
        kind, k = op
        model, client = self.model, self.client
        hi = k + SCAN_WIDTH if kind == "scan" else k
        if kind != "put":
            before = model.expect(k, hi)
        self.attempted += 1
        t0 = time.perf_counter_ns()
        try:
            if kind == "get":
                rows = [(k, rid) for rid in client.get(TREE, k)]
            elif kind == "scan":
                rows = client.search(TREE, Interval(k, hi))
            else:
                rid = self.next_rid
                self.next_rid += CONNS
                with model.lock:
                    model.inflight.add(k)
                ack = client.put(TREE, k, rid)
            t1 = time.perf_counter_ns()
        except ServerError:
            # refused (RetryLater), late or failed: an error, not a result
            self.errors += 1
            return (time.perf_counter_ns() - t0) / 1e9
        if kind == "put":
            with model.lock:
                model.acked[k] = rid
                model.inflight.discard(k)
                model.acks.append((k, rid, ack["durable_lsn"]))
        else:
            check_rows(f"{kind} {k}", k, rows, before, model.expect(k, hi))
        if self.traced:
            self.requests.append((kind, k, t0, t1))
        return (t1 - t0) / 1e9

    def closed(self, stop: threading.Event) -> None:
        while not stop.is_set():
            op = self.next_op()
            self.lat[op[0]].append(self.run(op))


def run_threads(targets) -> None:
    """Run ``targets`` on threads; re-raise the first failure (a failed
    check must fail the run, not just end its thread)."""
    errors: list[BaseException] = []

    def guarded(fn):
        try:
            fn()
        except BaseException as exc:
            errors.append(exc)

    threads = [threading.Thread(target=guarded, args=(fn,)) for fn in targets]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]


def open_schedule(seed: int, index: int, seconds: float) -> list[float]:
    """Poisson arrival times (s from phase start) at ``OPEN_RATE`` for
    the ``index``-th phase of a run."""
    rng = random.Random(f"served-cluster/{seed}/arrivals{index}")
    due, out = 0.0, []
    while True:
        due += rng.expovariate(OPEN_RATE)
        if due >= seconds:
            return out
        out.append(due)


def open_loop(conns: list[Conn], schedule: list[float]) -> dict:
    """The benchmark's own schedule loop: each connection takes the next
    due request, sends it at its due time (or as soon as it is free) and
    times it from the due time.  Lag is how late the generator sent a
    request after it was both due and a connection was free."""
    lock = threading.Lock()
    cursor = [0]
    lags: list[float] = []
    lat: dict[str, list[float]] = {"get": [], "put": [], "scan": []}
    start = time.perf_counter() + 0.05

    def worker(conn: Conn) -> None:
        while True:
            free = time.perf_counter()
            with lock:
                i = cursor[0]
                cursor[0] += 1
            if i >= len(schedule):
                return
            op = conn.next_op()
            due = start + schedule[i]
            wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            sent = time.perf_counter()
            conn.run(op)
            done = time.perf_counter()
            with lock:
                lags.append(sent - max(due, free))
                lat[op[0]].append(done - due)

    run_threads([lambda c=c: worker(c) for c in conns])
    return {
        "wall": time.perf_counter() - start,
        "lat": lat,
        "lag_p99_ms": percentile(lags, 0.99) * 1e3,
    }


def loadgen_child(fd: int) -> None:
    """Entry point of the load-generator process: reads its arguments
    from the connection on ``fd``, then runs :func:`loadgen_main`."""
    pipe = Connection(fd)
    try:
        loadgen_main(pipe, *pipe.recv())
    finally:
        pipe.close()


def loadgen_main(
    pipe, port: int, seed: int, plan: list, traced: bool, cpu: int
) -> None:
    """Runs the load: the body of the load-generator process.

    ``plan`` is a list of ``("closed", seconds)`` / ``("open", seconds)``
    phases.  Before each phase the parent is told and must answer, so it
    can read its CPU counters; after each the observations are sent.
    """
    os.sched_setaffinity(0, {cpu})
    try:
        model = LoadModel()
        conns = [Conn(c, port, model, seed, traced) for c in range(CONNS)]
        for index, (kind, seconds) in enumerate(plan):
            pipe.send(("start", kind))
            pipe.recv()
            for c in conns:
                c.lat = {"get": [], "put": [], "scan": []}
                c.attempted = c.errors = 0
                c.requests = []
            if kind == "closed":
                stop = threading.Event()
                timer = threading.Timer(seconds, stop.set)
                t0 = time.perf_counter()
                timer.start()
                run_threads([lambda c=c: c.closed(stop) for c in conns])
                wall = time.perf_counter() - t0
                lat: dict[str, list[float]] = {"get": [], "put": [], "scan": []}
                for c in conns:
                    for k, v in c.lat.items():
                        lat[k].extend(v)
                result = {"wall": wall, "lat": lat, "lag_p99_ms": 0.0}
            else:
                result = open_loop(conns, open_schedule(seed, index, seconds))
            result.update(
                attempted=sum(c.attempted for c in conns),
                errors=sum(c.errors for c in conns),
                requests=[r for c in conns for r in c.requests],
            )
            pipe.send(("end", result))
        for c in conns:
            c.client.close()
        pipe.send(("done", model.acks))
    except BaseException as exc:
        pipe.send(("error", f"{type(exc).__name__}: {exc}"))


# ----------------------------------------------------------------------
# the served database (the benchmark process)
# ----------------------------------------------------------------------
class Served:
    """A cluster, its server, and the calls the traced run records."""

    def __init__(self, data_dir: str, traced: bool) -> None:
        config = {"page_capacity": PAGE_CAPACITY}
        if traced:
            config["op_tracing"] = True
        self.cluster = PartitionedDatabase(
            PARTITIONS, data_dir=data_dir, **config
        )
        self.backend = ClusterBackend(self.cluster)
        #: (verb, key, start_ns, end_ns) of every backend call
        self.calls: list[tuple] = []
        if traced:
            for verb in ("get", "put", "search"):
                setattr(self.backend, verb, self._proxy(verb))
        self.server: DatabaseServer | None = None

    def _proxy(self, verb: str):
        fn = getattr(self.backend, verb)
        kind = "scan" if verb == "search" else verb
        calls = self.calls

        def proxy(tree, key, *args, **kwargs):
            t0 = time.perf_counter_ns()
            try:
                return fn(tree, key, *args, **kwargs)
            finally:
                ident = key.lo if kind == "scan" else key
                calls.append((kind, ident, t0, time.perf_counter_ns()))

        return proxy

    def build(self) -> None:
        cluster = self.cluster
        cluster.create_tree(TREE, BTreeExtension())
        keys = list(range(0, SPAN, 3))
        for i in range(0, len(keys), PRELOAD_BATCH):
            chunk = keys[i : i + PRELOAD_BATCH]
            cluster.multi_put(TREE, [(k, k) for k in chunk])
        for k in keys[:: len(keys) // 100]:
            if cluster.get(TREE, k) != [k]:
                raise CheckFailed(f"preloaded key {k} not found")
        self.server = DatabaseServer(self.backend).start()

    def pids(self) -> list[int]:
        return [
            h.process.pid for h in self.cluster.supervisor.handles.values()
        ]

    def cpu_s(self) -> float:
        """CPU of the processes holding state: this one and the workers."""
        return time.process_time() + sum(proc_cpu_s(p) for p in self.pids())

    def wire(self) -> tuple[int, int]:
        channels = [h.channel for h in self.cluster.supervisor.handles.values()]
        return (
            sum(c.bytes_sent + c.bytes_received for c in channels),
            sum(c.frames_sent + c.frames_received for c in channels),
        )

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
        self.cluster.shutdown()


def build_served(data_dir: str, traced: bool) -> tuple[Served, float]:
    t0 = time.perf_counter()
    served = Served(data_dir, traced)
    try:
        served.build()
    except BaseException:
        served.close()
        raise
    return served, time.perf_counter() - t0


def drive(served: Served, seed: int, plan: list, traced: bool, probe=None):
    """Run the load generator against ``served``; per-phase results.

    ``probe(served)`` is read at the start and end of every phase.  While
    the load runs, the server process and the load generator each keep
    one core of their own (both are multi-threaded under the interpreter
    lock, see README.md); the partition workers may run anywhere.
    """
    cpus = os.sched_getaffinity(0)
    parent_sock, child_sock = socket.socketpair()
    here = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [here, os.path.join(os.path.dirname(here), "src")]
    )
    # a plain subprocess, not a multiprocessing one: the "spawn" start
    # method also starts a resource-tracker process, which nothing waits
    # for and which outlives the benchmark
    proc = subprocess.Popen(
        [
            sys.executable,
            "-c",
            "import sys, served_cluster; "
            "served_cluster.loadgen_child(int(sys.argv[1]))",
            str(child_sock.fileno()),
        ],
        pass_fds=(child_sock.fileno(),),
        env=env,
        stdin=subprocess.DEVNULL,
        stdout=subprocess.DEVNULL,
    )
    child_sock.close()
    parent = Connection(parent_sock.detach())
    phases = []
    try:
        parent.send((served.server.port, seed, plan, traced, max(cpus)))
        os.sched_setaffinity(0, {min(cpus)})
        while True:
            if not parent.poll(120):
                raise CheckFailed("load generator stopped answering")
            tag, body = parent.recv()
            if tag == "start":
                before = probe(served) if probe else None
                parent.send("go")
            elif tag == "end":
                body["probe"] = (before, probe(served) if probe else None)
                phases.append(body)
            elif tag == "done":
                return phases, body
            else:
                raise CheckFailed(f"load generator failed: {body}")
    finally:
        os.sched_setaffinity(0, cpus)
        parent.close()
        try:
            proc.wait(30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def recover_and_audit(served: Served, acks, partition: int) -> float:
    """Kill and recover one partition; audit the acknowledged puts."""
    cluster = served.cluster
    cluster.kill_partition(partition)
    t0 = time.perf_counter()
    info = cluster.recover_partition(partition)
    seconds = time.perf_counter() - t0
    acked_lsn = max(
        (lsn for k, _, lsn in acks if cluster.router.partition_of(k) == partition),
        default=0,
    )
    if info["end_lsn"] < acked_lsn:
        raise CheckFailed(
            f"partition {partition} recovered to LSN {info['end_lsn']}, "
            f"below the acknowledged durable LSN {acked_lsn}"
        )
    rows = cluster.search(TREE, Interval(-1, SPAN))
    want = {(k, k) for k in range(0, SPAN, 3)}
    want.update((k, rid) for k, rid, _ in acks)
    got = set(rows)
    if not want <= got:
        raise CheckFailed(
            f"after recovering partition {partition}: "
            f"{len(want - got)} acknowledged rows missing"
        )
    return seconds


def _data_dir(label: str) -> str:
    path = os.path.join(TMP_DIR, f"served-{os.getpid()}-{label}")
    shutil.rmtree(path, ignore_errors=True)
    return path


def run(seed: int, seconds: float, trace: int):
    os.makedirs(TMP_DIR, exist_ok=True)
    try:
        if trace:
            return run_traced(seed, seconds)
        return run_untraced(seed, seconds)
    finally:
        # the cluster reaps its workers with a bounded wait; make sure
        # no partition worker outlives the run on any path out of it
        for child in multiprocessing.active_children():
            child.kill()
            child.join()


def run_untraced(seed: int, seconds: float):
    """``ROUNDS`` rounds, each on a freshly built cluster.

    A round times the build (a ``setup_s`` sample) and one partition
    recovery over the preloaded data alone (a ``recovery_s`` sample:
    the same work every time, whatever the load did before).  Then it
    runs one fifth of the load as closed-loop and open-loop slices of
    about ``SLICE_S`` taking turns, and kills and recovers the other
    partition to audit the acknowledged puts.  Every metric is read at
    the fast end of its samples (:func:`fast_end`), which are spread
    over the whole run.
    """
    setups, restarts, phases, rss = [], [], [], []
    pairs = max(1, round(seconds / ROUNDS / (2 * SLICE_S)))
    part = seconds / ROUNDS / (2 * pairs)
    plan = [("closed", part), ("open", part)] * pairs
    served = None
    try:
        for i in range(ROUNDS):
            served, dt = build_served(_data_dir(str(i)), False)
            setups.append(dt)
            restarts.append(recover_and_audit(served, [], i % PARTITIONS))
            got, acks = drive(served, seed, plan, False, probe=Served.cpu_s)
            phases += got
            rss.append(sum(proc_hwm_mb(p) for p in served.pids()))
            recover_and_audit(served, acks, (i + 1) % PARTITIONS)
            served.close()
            served = None
    finally:
        if served is not None:
            served.close()
        shutil.rmtree(TMP_DIR, ignore_errors=True)
    closed, opened = phases[0::2], phases[1::2]

    def done(phase) -> int:
        return phase["attempted"] - phase["errors"]

    metrics = {
        "setup_s": fast_end(setups),
        "ops_s": fast_end([done(c) / c["wall"] for c in closed], True),
        "cpu_us_per_op": fast_end(
            [(c["probe"][1] - c["probe"][0]) / done(c) * 1e6 for c in closed]
        ),
        **{
            f"{kind}_p50_us": fast_end(
                [percentile(o["lat"][kind], 0.5) * 1e6 for o in opened]
            )
            for kind in ("get", "put", "scan")
        },
        "recovery_s": fast_end(restarts),
        "rss_mb": max(rss),
    }
    attempted = sum(p["attempted"] for p in phases)
    failed = sum(p["errors"] for p in phases)
    return metrics, attempted, failed


def _server_counts(served: Served) -> tuple[int, int]:
    snap = served.server.metrics.snapshot().get("server", {})

    def total(name: str) -> int:
        node = snap.get(name, {})
        return sum(_leaves(node))

    refused = total("rejected") + total("shed")
    return total("offered"), refused


def _leaves(node):
    if isinstance(node, dict):
        for value in node.values():
            yield from _leaves(value)
    elif isinstance(node, (int, float)):
        yield node


def _traced_probe(served: Served) -> dict:
    snap = served.cluster.snapshot()
    return {
        "wire": served.wire(),
        "agg": snap["aggregate"],
        "scatter": snap["cluster"].get("cluster", {}).get("scatter_queries", 0),
    }


def run_traced(seed: int, seconds: float):
    """Untraced quarter + quarter (closed, open), then a traced half."""
    served = None
    try:
        served, _ = build_served(_data_dir("plain"), False)
        offered0, refused0 = _server_counts(served)
        plan = [("closed", seconds / 4), ("open", seconds / 4)]
        (closed, opened), acks = drive(served, seed, plan, False)
        offered1, refused1 = _server_counts(served)
        recover_and_audit(served, acks, 0)
        rec = recovery_metrics(served.cluster.snapshot()["partition"]["0"])
        served.close()
        served = None

        served, _ = build_served(_data_dir("traced"), True)
        (traced,), _ = drive(
            served, seed, [("closed", seconds / 2)], True, probe=_traced_probe
        )
        calls = list(served.calls)
        log_records = sum(
            d["end_lsn"] for d in served.cluster.describe().values()
        )
    finally:
        if served is not None:
            served.close()
        shutil.rmtree(TMP_DIR, ignore_errors=True)

    requests = traced["requests"]
    n = len(requests)
    client_ns, backend_ns, spans, unmatched = _join(requests, calls)
    # the requests' cover of the phase on each connection; what is left
    # is the load generator's own loop
    coverage = client_ns / (traced["wall"] * 1e9 * CONNS)
    if abs(coverage - 1.0) > LEDGER_TOLERANCE or unmatched > n * 0.01:
        raise CheckFailed(
            f"served ledger covers {coverage:.3f} of traced wall time "
            f"(tolerance {LEDGER_TOLERANCE}); {unmatched} of {n} requests "
            "had no backend span inside them"
        )
    os.makedirs(TRACE_DIR, exist_ok=True)
    write_spans(os.path.join(TRACE_DIR, "served-cluster.jsonl"), spans)
    before, after = traced["probe"]
    op0, op1 = before["agg"].get("op", {}), after["agg"].get("op", {})

    def op_total(kind: str, field: str) -> float:
        def read(op):
            node = op.get(kind, {})
            return node["total_ns"][field] if "total_ns" in node else 0

        return read(op1) - read(op0)

    worker_ns = sum(op_total(kind, "sum") for kind in op1)
    if not worker_ns:
        raise CheckFailed("the partitions recorded no op spans")
    commits = op_total("commit", "count")
    scans = sum(1 for r in requests if r[0] == "scan")
    scattered = after["scatter"] - before["scatter"]
    plain_ops = closed["attempted"] - closed["errors"]
    traced_ops = traced["attempted"] - traced["errors"]
    offered = offered1 - offered0
    attempted = closed["attempted"] + opened["attempted"]
    errors = closed["errors"] + opened["errors"]
    metrics = {
        "cluster.call_us_per_op": backend_ns / n / 1e3,
        "cluster.worker_us_per_op": worker_ns / n / 1e3,
        "cluster.wire_bytes_per_op": (after["wire"][0] - before["wire"][0]) / n,
        "cluster.frames_per_op": (after["wire"][1] - before["wire"][1]) / n,
        "cluster.legs_per_scan": (
            (scattered * PARTITIONS + (scans - scattered)) / scans if scans else 0
        ),
        "server.self_us_per_op": (client_ns - backend_ns) / n / 1e3,
        "server.refused_ratio": (refused1 - refused0) / offered if offered else 0,
        "loadgen.lag_p99_ms": opened["lag_p99_ms"],
        "obs.trace_overhead": (traced_ops / traced["wall"])
        / (plain_ops / closed["wall"]),
        "obs.ledger_coverage": coverage,
        "txn.commit_us": (
            op_total("commit", "sum") / commits / 1e3 if commits else 0.0
        ),
        "wal.log_records": log_records,
        "error_rate": errors / attempted,
        **rec,
        **latency_tails(opened["lat"]),
        **registry_metrics(
            before["agg"],
            after["agg"],
            after["agg"],
            n,
            sum(1 for r in requests if r[0] == "put"),
            commits,
            n,
        ),
    }
    return metrics, attempted + traced["attempted"], errors + traced["errors"]


def _join(requests, calls):
    """Match each client request with the backend call inside it.

    A backend call belongs to the request of the same verb and key whose
    interval contains it (the clock is shared by both processes).
    Two connections may touch the same key at once; a request then takes
    the call that started first after it.  Returns summed client and
    backend time, the span records of the first requests, and the number
    of requests left unmatched.
    """
    by_key: dict[tuple, list[tuple[int, int]]] = {}
    for kind, ident, s0, s1 in calls:
        by_key.setdefault((kind, ident), []).append((s0, s1))
    client_ns = backend_ns = unmatched = 0
    spans = []
    for rid, (kind, key, t0, t1) in enumerate(requests, 1):
        client_ns += t1 - t0
        inner = [
            (s0, s1)
            for s0, s1 in by_key.get((kind, key), ())
            if t0 <= s0 and s1 <= t1
        ]
        if not inner:
            unmatched += 1
            continue
        s0, s1 = min(inner)
        backend_ns += s1 - s0
        if rid <= KEEP_SPANS:
            spans.append((rid, 0, None, f"server.{kind}", t0, t1))
            spans.append((rid, 1, 0, f"cluster.{kind}", s0, s1))
    return client_ns, backend_ns, spans, unmatched
