"""The traced run's cost ledger, built from proxies outside the program.

A *request* is one call the benchmark makes into the program (a search,
an insert, a commit; on the served workload, one client RPC).  While a
request runs on a thread, every proxied call it makes opens a span:
name, start, end, parent and request id.  A span's *self time* is its
duration minus the durations of its child spans, so the self times of
one request add up to the request's duration, and their totals per span
name say which layer spent the time.

Spans are kept in memory.  Self time and call counts are tallied per
request kind for every request; the full span records of the first
``keep`` requests are written out by :meth:`Ledger.write` when the run
ends.

Because the self times of a request always add up to its duration, the
sum over all requests only shows how much of the phase the requests
cover (the rest is the benchmark's own loop).  Whether the proxies
reach the layers is checked separately: :meth:`Ledger.silent_layers`
names every expected layer that recorded no call.
"""

from __future__ import annotations

import itertools
import json
from time import perf_counter_ns

from repro.gist.extension import GiSTExtension

#: extension methods the tree may call; all are proxied
EXT_METHODS = (
    "consistent",
    "union",
    "penalty",
    "pick_split",
    "same",
    "eq_query",
    "normalize_key",
    "hint_point_query",
    "organize",
    "multi_eq_query",
    "compress",
    "decompress",
    "covers",
    "union2",
)


class _Request:
    __slots__ = ("rid", "tally", "stack", "spans", "next_id")

    def __init__(self, rid: int, tally: dict, keep: bool) -> None:
        self.rid = rid
        #: the tally of this request kind: span -> [calls, self_ns]
        self.tally = tally
        #: open spans, innermost last: [child_ns, span_id]
        self.stack: list[list[int]] = [[0, 0]]
        self.spans: list[tuple] | None = [] if keep else None
        self.next_id = 1


class Ledger:
    """Per-request span tallies from the benchmark's proxies.

    One client thread makes the requests; a proxied call made while no
    request runs is not recorded.
    """

    def __init__(self, keep: int = 300) -> None:
        self._req: _Request | None = None
        self._ids = itertools.count(1)
        #: request kind -> span name -> [calls, self_ns]
        self.tally: dict[str, dict[str, list[int]]] = {}
        #: kept span records: (request, span, parent, name, start, end)
        self.spans: list[tuple] = []
        self.keep = keep

    # ------------------------------------------------------------------
    # proxies
    # ------------------------------------------------------------------
    def wrap(self, name: str, fn):
        """``fn`` timed as a child span while a request is running."""
        ledger = self

        def proxy(*args, **kwargs):
            req = ledger._req
            if req is None:
                return fn(*args, **kwargs)
            stack = req.stack
            parent = stack[-1]
            frame = [0, req.next_id]
            req.next_id += 1
            stack.append(frame)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                dur = t1 - t0
                parent[0] += dur
                entry = req.tally.get(name)
                if entry is None:
                    entry = req.tally[name] = [0, 0]
                entry[0] += 1
                entry[1] += dur - frame[0]
                if req.spans is not None:
                    req.spans.append((frame[1], parent[1], name, t0, t1))

        return proxy

    def request(self, kind: str, name: str, fn, *args):
        """Run ``fn(*args)`` as one request of ``kind`` (its root span)."""
        tally = self.tally.get(kind)
        if tally is None:
            tally = self.tally[kind] = {}
        rid = next(self._ids)
        req = self._req = _Request(rid, tally, rid <= self.keep)
        t0 = perf_counter_ns()
        try:
            return fn(*args)
        finally:
            t1 = perf_counter_ns()
            self._req = None
            entry = tally.get(name)
            if entry is None:
                entry = tally[name] = [0, 0]
            entry[0] += 1
            entry[1] += t1 - t0 - req.stack[0][0]
            if req.spans is not None:
                self.spans.append((rid, 0, None, name, t0, t1))
                for span_id, parent, span, s0, s1 in req.spans:
                    self.spans.append((rid, span_id, parent, span, s0, s1))

    # ------------------------------------------------------------------
    # reading the ledger
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """A copy of the tallies: kind -> span -> [calls, self_ns]."""
        return {
            kind: {span: list(v) for span, v in spans.items()}
            for kind, spans in self.tally.items()
        }

    @staticmethod
    def calls(tally: dict, kind: str, span: str) -> int:
        return tally.get(kind, {}).get(span, [0, 0])[0]

    def self_ns(self, prefix: str) -> int:
        """Total self time of spans named ``prefix.*`` over all kinds."""
        return sum(
            v[1]
            for spans in self.tally.values()
            for name, v in spans.items()
            if name.startswith(prefix + ".")
        )

    def total_self_ns(self) -> int:
        return sum(v[1] for spans in self.tally.values() for v in spans.values())

    def silent_layers(self, layers) -> list[str]:
        """The layers of ``layers`` whose proxies recorded no call."""
        seen = {
            name.split(".", 1)[0]
            for spans in self.tally.values()
            for name, v in spans.items()
            if v[0]
        }
        return [layer for layer in layers if layer not in seen]

    def write(self, path: str) -> None:
        """Write the kept spans as JSON lines (at the end of the run)."""
        write_spans(path, self.spans)


def write_spans(path: str, spans: "list[tuple]") -> None:
    """One JSON object per ``(request, span, parent, name, start, end)``."""
    with open(path, "w") as fh:
        for rid, sid, parent, name, s0, s1 in spans:
            fh.write(
                json.dumps(
                    {
                        "request": rid,
                        "span": sid,
                        "parent": parent,
                        "name": name,
                        "start_ns": s0,
                        "end_ns": s1,
                    }
                )
                + "\n"
            )


class TracedExtension(GiSTExtension):
    """An extension whose every method call is a ledger span.

    Only the traced run builds trees over it.  The class-level names
    below override the abstract declarations; each instance shadows
    them with proxies around the wrapped extension's own methods.
    """

    consistent = union = penalty = pick_split = same = eq_query = None

    def __init__(self, inner: GiSTExtension, ledger: Ledger) -> None:
        self.inner = inner
        self.name = inner.name
        for method in EXT_METHODS:
            setattr(
                self, method, ledger.wrap(f"ext.{method}", getattr(inner, method))
            )


def instrument_database(db, ledger: Ledger) -> None:
    """Proxy the public entry points of storage, lock, WAL and predicate
    layers of an embedded database (instance attributes only)."""
    pool = db.pool
    pool.fix = ledger.wrap("storage.fix", pool.fix)
    locks = db.locks
    locks.acquire = ledger.wrap("lock.acquire", locks.acquire)
    locks.release_all = ledger.wrap("lock.release_all", locks.release_all)
    log = db.log
    log.append = ledger.wrap("wal.append", log.append)
    log.append_many = ledger.wrap("wal.append_many", log.append_many)
    log.flush = ledger.wrap("wal.flush", log.flush)
    for tree in db.trees.values():
        preds = tree.predicates
        for method in (
            "register",
            "attach",
            "detach",
            "unregister",
            "conflicting",
            "release_transaction",
            "replicate_for_split",
            "percolate",
            "wait_for_owners",
        ):
            setattr(
                preds, method, ledger.wrap(f"predicate.{method}", getattr(preds, method))
            )
