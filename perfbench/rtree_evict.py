"""rtree-evict: one client, long transactions on an R-tree 6x the pool.

Why: it runs the same layers as btree-oltp through a different
extension and a different regime — R-tree ``consistent``/``penalty``/
``pick_split``, descents down several overlapping paths, buffer misses
and evictions, and predicate lists that grow over transactions of
hundreds of operations.  It makes no B-tree call, so a B-tree-only
speed-up should predict no change here.  One client keeps every count
exactly repeatable for a seed.

The tree is built through ``multi_put`` in batches, the way an
application adds rectangles incrementally (``bulk_load`` packs R-tree
leaves in input order, see README.md).  The model is the set of
committed ``(rect, rid)`` pairs, bucketed on a grid so that the expected
answer of a window query is cheap to compute.
"""

from __future__ import annotations

import random

from common import CheckFailed
from embedded import Client

from repro import Database, IsolationLevel, Rect, RTreeExtension

RECTS = 8_000
WORLD = 1000.0
MAX_SIDE = 4.0
PAGE_CAPACITY = 32
POOL_CAPACITY = 64
BUILD_BATCH = 500
TXN_OPS = 200
#: cumulative op mix: window query, exact match, insert
MIX = ((0.50, "scan"), (0.90, "get"), (1.0, "put"))
WINDOW = 20.0
CELL = 50.0
CHECKPOINT_EVERY = 5
#: transactions between the flushed checkpoint and the crash; fewer than
#: CHECKPOINT_EVERY, so no fuzzy checkpoint moves the redo point
RECOVERY_TXNS = 4
WARM_QUERIES = 100


def cells(rect: Rect):
    for cx in range(int(rect.xlo // CELL), int(rect.xhi // CELL) + 1):
        for cy in range(int(rect.ylo // CELL), int(rect.yhi // CELL) + 1):
            yield cx, cy


class Model:
    """Committed ``(rect, rid)`` pairs, bucketed by grid cell."""

    def __init__(self) -> None:
        self.grid: dict[tuple[int, int], list[tuple[Rect, int]]] = {}
        self.rows: list[tuple[Rect, int]] = []
        self.commits = 0
        #: the next unused rid; every client of the database draws from
        #: it, so a rid names one record, as a heap tuple id would
        self.next_rid = RECTS

    def add(self, rect: Rect, rid: int) -> None:
        self.rows.append((rect, rid))
        for cell in cells(rect):
            self.grid.setdefault(cell, []).append((rect, rid))

    def query(self, window: Rect) -> set:
        return {
            row
            for cell in cells(window)
            for row in self.grid.get(cell, ())
            if row[0].intersects(window)
        }


def random_rect(rng: random.Random) -> Rect:
    x = rng.random() * (WORLD - MAX_SIDE)
    y = rng.random() * (WORLD - MAX_SIDE)
    return Rect(x, y, x + rng.random() * MAX_SIDE, y + rng.random() * MAX_SIDE)


class RTreeClient(Client):
    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.pending: list[tuple[Rect, int]] = []

    def make_txn(self) -> list:
        rng, rows = self.rng, self.model.rows
        ops = []
        for _ in range(TXN_OPS):
            r = rng.random()
            kind = next(k for bound, k in MIX if r < bound)
            if kind == "scan":
                x = rng.random() * (WORLD - WINDOW)
                y = rng.random() * (WORLD - WINDOW)
                ops.append(("scan", Rect(x, y, x + WINDOW, y + WINDOW)))
            elif kind == "get":
                ops.append(("get", rows[rng.randrange(len(rows))]))
            else:
                ops.append(("put", random_rect(rng)))
        return ops

    def expect(self, window: Rect) -> set:
        want = self.model.query(window)
        want.update(row for row in self.pending if row[0].intersects(window))
        return want

    def apply(self, txn, op) -> None:
        kind, tree = op[0], self.tree
        if kind == "put":
            rid = self.model.next_rid
            self.model.next_rid += 1
            self.pending.append((op[1], rid))
            self.call("put", tree.insert, txn, op[1], rid)
            return
        query = op[1][0] if kind == "get" else op[1]
        rows = self.call(kind, tree.search, txn, query)
        got = set(rows)
        if len(got) != len(rows) or got != self.expect(query):
            raise CheckFailed(f"{kind} {query}: result differs from the model")
        if kind == "get" and op[1] not in got:
            raise CheckFailed(f"exact match {op[1]} not found")

    def committed(self) -> None:
        model = self.model
        for rect, rid in self.pending:
            model.add(rect, rid)
        self.pending.clear()
        model.commits += 1
        if model.commits % CHECKPOINT_EVERY == 0:
            self.db.checkpoint()

    def aborted(self) -> None:
        self.pending.clear()


class RTreeEvict:
    name = "rtree-evict"
    tree_name = "r"
    recovery_txns = RECOVERY_TXNS
    pool_capacity = POOL_CAPACITY

    def rng(self, seed: int, label: str) -> random.Random:
        return random.Random(f"{self.name}/{seed}/{label}")

    def extension(self):
        return RTreeExtension()

    def build(self, seed: int, ext, op_tracing: bool = False):
        db = Database(
            page_capacity=PAGE_CAPACITY,
            pool_capacity=POOL_CAPACITY,
            op_tracing=op_tracing,
        )
        tree = db.create_tree(self.tree_name, ext)
        # The stored rectangles do not depend on the seed: an R-tree's
        # shape, set by a few high-level splits, varies so much between
        # data sets that it would drown the run-to-run comparison.
        rng = random.Random(f"{self.name}/data")
        model = Model()
        for start in range(0, RECTS, BUILD_BATCH):
            batch = [
                (random_rect(rng), rid)
                for rid in range(start, min(start + BUILD_BATCH, RECTS))
            ]
            txn = db.begin()
            tree.multi_put(txn, batch)
            db.commit(txn)
            for rect, rid in batch:
                model.add(rect, rid)
        txn = db.begin()
        for _ in range(WARM_QUERIES):
            rect, rid = model.rows[rng.randrange(len(model.rows))]
            if (rect, rid) not in tree.search(txn, rect):
                raise CheckFailed(f"built rectangle {rid} not found")
        db.commit(txn)
        return db, tree, model

    def client(self, db, tree, model, seed, ledger=None, window=None, label="client"):
        return RTreeClient(
            db, tree, model, self.rng(seed, label), ledger=ledger, window=window
        )

    def open_loser(self, db, tree, model, rng) -> None:
        """An uncommitted transaction whose records are durable."""
        txn = db.begin()
        for i in range(3):
            tree.insert(txn, random_rect(rng), -1 - i)
        db.log.flush()

    def check_recovered(self, db, tree, model) -> None:
        """Exactly the committed rectangles are present."""
        # Nothing else runs after a restart; read committed skips the
        # per-row locks a repeatable-read scan would take.
        txn = db.begin(IsolationLevel.READ_COMMITTED)
        rows = tree.search(txn, Rect(0.0, 0.0, WORLD, WORLD))
        db.commit(txn)
        got, want = set(rows), set(model.rows)
        if len(got) != len(rows) or got != want:
            raise CheckFailed(
                f"after recovery: {len(want - got)} committed rectangles "
                f"missing, {len(got - want)} uncommitted present"
            )
