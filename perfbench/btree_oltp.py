"""btree-oltp: short transactions on a cached B-tree.

Why: it exercises the CPU hot path the paper's protocol adds to every
operation — B-tree ``consistent``/``penalty``, descent and splits, the
lock and predicate managers, commit and WAL appends, and latches.  It
bypasses buffer misses (the pool holds every page), RPC and the server.

One client runs: with two client threads the latencies flipped between
two modes from run to run (README.md, "Steadiness").

Keys are integers.  The tree is bulk-loaded with every multiple of 3
below ``3 * KEYS``.  Every inserted record gets a fresh rid
(re-inserting a deleted ``(key, rid)`` pair hits a known defect, see
README.md).  The model maps each committed key to its rid; every read
must match it, overlaid with the client's own uncommitted changes.
"""

from __future__ import annotations

import random

from common import CheckFailed
from embedded import Client

from repro import BTreeExtension, Database, Interval, IsolationLevel

KEYS = 50_000
SPAN = 3 * KEYS
PAGE_CAPACITY = 32
POOL_CAPACITY = 8192
TXN_OPS = 8
#: cumulative op mix: get, scan, put (insert), delete
MIX = ((0.70, "get"), (0.75, "scan"), (0.95, "put"), (1.0, "delete"))
SCAN_WIDTH = 30
CHECKPOINT_EVERY = 250
#: transactions between the flushed checkpoint and the crash; fewer than
#: CHECKPOINT_EVERY, so no fuzzy checkpoint moves the redo point
RECOVERY_TXNS = 200
WARM_GETS = 500


class Model:
    """Committed keys, with a list of them to draw deletes from."""

    def __init__(self, keys) -> None:
        #: committed key -> rid
        self.present = {k: k for k in keys}
        self.keys = list(self.present)
        #: key -> its index in ``keys``
        self.slot = {k: i for i, k in enumerate(self.keys)}
        self.commits = 0
        #: the next unused rid; every client of the database draws from
        #: it, so a rid names one record, as a heap tuple id would
        self.next_rid = SPAN

    def add(self, k: int, rid: int) -> None:
        self.present[k] = rid
        self.slot[k] = len(self.keys)
        self.keys.append(k)

    def remove(self, k: int) -> None:
        del self.present[k]
        i = self.slot.pop(k)
        last = self.keys.pop()
        if last != k:
            self.keys[i] = last
            self.slot[last] = i


class BTreeClient(Client):
    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: key -> new rid (inserted) / None (deleted) in the open txn
        self.pending: dict[int, "int | None"] = {}

    def make_txn(self) -> list:
        rng, model = self.rng, self.model
        ops = []
        chosen: set[int] = set()
        for _ in range(TXN_OPS):
            r = rng.random()
            kind = next(k for bound, k in MIX if r < bound)
            if kind == "get":
                ops.append(("get", rng.randrange(SPAN)))
            elif kind == "scan":
                lo = rng.randrange(SPAN)
                ops.append(("scan", lo, lo + SCAN_WIDTH))
            elif kind == "put":
                k = rng.randrange(SPAN)
                while k in model.present or k in chosen:
                    k = rng.randrange(SPAN)
                chosen.add(k)
                ops.append(("put", k))
            else:
                k = model.keys[rng.randrange(len(model.keys))]
                while k in chosen:
                    k = model.keys[rng.randrange(len(model.keys))]
                chosen.add(k)
                ops.append(("delete", k))
        return ops

    def expect(self, k: int) -> list:
        """Rows of key ``k`` the client must see."""
        if k in self.pending:
            rid = self.pending[k]
        else:
            rid = self.model.present.get(k)
        return [] if rid is None else [(k, rid)]

    def apply(self, txn, op) -> None:
        kind, tree = op[0], self.tree
        if kind == "get":
            k = op[1]
            rows = self.call("get", tree.search, txn, Interval.point(k))
            if rows != self.expect(k):
                raise CheckFailed(f"get {k}: {rows} but model says {self.expect(k)}")
        elif kind == "scan":
            lo, hi = op[1], op[2]
            rows = self.call("scan", tree.search, txn, Interval(lo, hi))
            got: dict[int, list] = {}
            for row in rows:
                got.setdefault(row[0], []).append(row)
            for k in range(lo, hi + 1):
                want = self.expect(k)
                if want != got.get(k, []):
                    raise CheckFailed(
                        f"scan [{lo}, {hi}]: key {k} rows {got.get(k)}, "
                        f"model says {want}"
                    )
        elif kind == "put":
            k = op[1]
            rid = self.model.next_rid
            self.model.next_rid += 1
            self.pending[k] = rid
            self.call("put", tree.insert, txn, k, rid)
        else:
            k = op[1]
            self.pending[k] = None
            self.call("delete", tree.delete, txn, k, self.model.present[k])

    def committed(self) -> None:
        model = self.model
        for k, rid in self.pending.items():
            if rid is None:
                model.remove(k)
            else:
                model.add(k, rid)
        self.pending.clear()
        model.commits += 1
        if model.commits % CHECKPOINT_EVERY == 0:
            self.db.checkpoint()

    def aborted(self) -> None:
        self.pending.clear()


class BTreeOltp:
    name = "btree-oltp"
    tree_name = "t"
    recovery_txns = RECOVERY_TXNS
    pool_capacity = POOL_CAPACITY

    def rng(self, seed: int, label: str) -> random.Random:
        return random.Random(f"{self.name}/{seed}/{label}")

    def extension(self):
        return BTreeExtension()

    def build(self, seed: int, ext, op_tracing: bool = False):
        db = Database(
            page_capacity=PAGE_CAPACITY,
            pool_capacity=POOL_CAPACITY,
            op_tracing=op_tracing,
        )
        tree = db.create_tree(self.tree_name, ext)
        keys = range(0, SPAN, 3)
        txn = db.begin()
        tree.bulk_load(txn, [(k, k) for k in keys])
        db.commit(txn)
        model = Model(keys)
        rng = self.rng(seed, "warm")
        txn = db.begin()
        for _ in range(WARM_GETS):
            k = rng.randrange(0, SPAN, 3)
            if tree.search(txn, Interval.point(k)) != [(k, k)]:
                raise CheckFailed(f"bulk-loaded key {k} not found")
        db.commit(txn)
        return db, tree, model

    def client(self, db, tree, model, seed, ledger=None, window=None, label="client"):
        return BTreeClient(
            db, tree, model, self.rng(seed, label), ledger=ledger, window=window
        )

    def open_loser(self, db, tree, model, rng) -> None:
        """An uncommitted transaction whose records are durable."""
        txn = db.begin()
        for _ in range(3):
            k = rng.randrange(SPAN)
            while k in model.present:
                k = rng.randrange(SPAN)
            tree.insert(txn, k, -k - 1)
        for k in rng.sample(sorted(model.present), 2):
            tree.delete(txn, k, model.present[k])
        db.log.flush()

    def check_recovered(self, db, tree, model) -> None:
        """Every committed key is present, every other key absent."""
        # Nothing else runs after a restart; read committed skips the
        # per-row locks a repeatable-read scan would take.
        txn = db.begin(IsolationLevel.READ_COMMITTED)
        rows = tree.search(txn, Interval(-1, SPAN))
        db.commit(txn)
        got = set(rows)
        want = set(model.present.items())
        if len(got) != len(rows) or got != want:
            missing = len(want - got)
            extra = len(got - want)
            raise CheckFailed(
                f"after recovery: {missing} committed keys missing, "
                f"{extra} uncommitted keys present"
            )
