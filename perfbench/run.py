"""Run one benchmark workload and print its result as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload btree-oltp --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics (tracing off); ``--trace 1``
prints the per-layer metrics from an untraced and a traced half.  The
workloads, metric names and units are read from ``BENCHMARK.json`` at
the root of the checkout.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``.  A failed correctness
check prints the result with ``"correct": false`` and exits with code 1.
See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def result_metrics(values: dict, declared: list[dict], *, exact: bool) -> dict:
    """``values`` as ``{name: {"value", "unit"}}`` in the manifest's order.

    With ``exact`` every declared metric must be measured; otherwise a
    metric of a layer the workload bypasses reads 0.  A measured metric
    the manifest does not declare is an error either way.
    """
    names = {m["name"] for m in declared}
    unknown = set(values) - names
    missing = names - set(values) if exact else set()
    if unknown or missing:
        raise KeyError(
            f"metrics differ from BENCHMARK.json: undeclared {sorted(unknown)}, "
            f"unmeasured {sorted(missing)}"
        )
    return {
        m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
        for m in declared
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"no program to measure: {SRC}/repro is missing", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        manifest = json.load(fh)
    names = [w["name"] for w in manifest["workloads"]]
    if args.workload not in names:
        print(f"unknown workload {args.workload!r}; one of {names}", file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    sys.path.insert(0, SRC)
    os.chdir(ROOT)

    from common import CheckFailed, emit

    if args.workload == "served-cluster":
        import served_cluster

        runner = served_cluster.run
    else:
        import embedded

        if args.workload == "btree-oltp":
            from btree_oltp import BTreeOltp as Workload
        else:
            from rtree_evict import RTreeEvict as Workload
        workload = Workload()
        if args.trace:
            runner = lambda seed, seconds, trace: embedded.run_traced(  # noqa: E731
                workload, seed, seconds
            )
        else:
            runner = lambda seed, seconds, trace: embedded.run_untraced(  # noqa: E731
                workload, seed, seconds
            )
    try:
        values, attempted, failed = runner(args.seed, args.seconds, args.trace)
    except CheckFailed as exc:
        print(f"correctness check failed: {exc}", file=sys.stderr)
        emit(False, 1, 0, {})
        return 1
    if args.trace:
        metrics = result_metrics(values, manifest["per_layer"], exact=False)
    else:
        metrics = result_metrics(values, manifest["end_to_end"], exact=True)
    emit(True, attempted, failed, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
