"""One timed run of a benchmark workload, in a fresh interpreter.

Run by ``run.py`` once per repetition, so the in-process memos of
:mod:`repro.experiments.runner` and the pool workers never carry over from
one repetition to the next.  The run:

1. copies the workload's fixture into a private cache root (or starts from
   an empty one),
2. builds the plan with ``Session.plan``,
3. submits it to ``Session(executor="process")`` with one worker per
   usable CPU and telemetry on, and waits for every artifact to render.

It prints one JSON object: set-up and wall times, peak RSS of this process
and of its pool workers, the output digests, and, with ``--traced``, the
scheduler's stage intervals (recorded by a ``PlanEvents`` receiver) and
the program's own telemetry counters.

Usage (normally only through ``run.py``)::

    PYTHONPATH=src python3 perfbench/rep.py --spec '<json>' --root DIR \
        --spawned-at <unix time> [--fixture DIR] [--traced]
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import time
from typing import Any, Dict, List, Tuple

from common import cell_id, cells, coverage_digest, sha, trace_digest


def _stage_clock():
    """A ``PlanEvents`` receiver recording each stage's scheduler interval."""
    from repro.api.plan import PlanEvents

    class StageClock(PlanEvents):
        def __init__(self) -> None:
            self.started: Dict[str, Tuple[str, float]] = {}
            self.intervals: List[Tuple[str, float, float]] = []

        def on_stage_start(self, stage) -> None:
            self.started[stage.key] = (stage.kind, time.perf_counter())

        def _settle(self, stage) -> None:
            begun = self.started.pop(stage.key, None)
            if begun is not None:  # skipped stages settle without starting
                self.intervals.append((begun[0], begun[1],
                                       time.perf_counter()))

        def on_stage_finish(self, stage, status) -> None:
            self._settle(stage)

        def on_stage_error(self, stage, error) -> None:
            self._settle(stage)

    return StageClock()


def output_digests(spec: Dict[str, Any], result: Any,
                   rendered: Dict[str, str]) -> Dict[str, Any]:
    """Per-cell miss-trace and coverage digests plus artifact digests.

    A stage that failed leaves its payload (and its dependents' payloads)
    out of the plan result, so a missing bundle or coverage marks the
    cell failed.
    """
    from repro.api.registry import SYSTEMS
    scale = spec["scales"][0]
    out: Dict[str, Any] = {"cells": {}, "artifacts": {}}
    for generator, organisation, warmup in cells(spec):
        entry = {"failed": False, "traces": {}, "coverage": {}}
        for context in SYSTEMS.get(organisation).contexts:
            bundle = result.bundles.get((generator, context, scale, warmup))
            if bundle is None:
                entry["failed"] = True
                continue
            entry["traces"][context] = trace_digest(bundle.miss_trace)
            for prefetcher in spec["prefetchers"]:
                coverage = result.coverage.get(
                    (prefetcher, generator, context, scale, warmup))
                if coverage is None:
                    entry["failed"] = True
                    continue
                entry["coverage"][f"{prefetcher}:{context}"] = \
                    coverage_digest(coverage)
        out["cells"][cell_id(generator, organisation, warmup)] = entry
    for stage in result.plan.by_kind("render"):
        name = stage.key[len("render:"):]
        out["artifacts"][name] = (sha(rendered[name]) if name in rendered
                                  else None)
    return out


def _warm_starts(session: Any, run_id: Any) -> int:
    """Shared-prefix restores the program counted in its worker spans."""
    store = session.telemetry_store
    if store is None or run_id is None:
        return 0
    return int(sum(span.get("counter_deltas", {}).get(
        "checkpoint_store.warm_starts", 0)
        for span in store.load_spans(run_id)
        if span.get("origin") == "worker"))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spec", required=True)
    parser.add_argument("--root", required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--fixture", default=None)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args()

    from repro.api import Session
    from repro.api.spec import ExperimentSpec
    import_s = time.time() - args.spawned_at

    t0 = time.perf_counter()
    if args.fixture:
        shutil.copytree(args.fixture, args.root)
    else:
        os.makedirs(args.root)
    copy_s = time.perf_counter() - t0

    spec = json.loads(args.spec)
    session = Session(cache_dir=args.root, executor="process",
                      max_workers=len(os.sched_getaffinity(0)),
                      telemetry=True)
    t0 = time.perf_counter()
    plan = session.plan(ExperimentSpec.from_dict(spec))
    plan_s = time.perf_counter() - t0

    record: Dict[str, Any] = {"import_s": import_s, "copy_s": copy_s,
                              "plan_s": plan_s}
    events = None
    if args.traced:
        t0 = time.perf_counter()
        session.telemetry_store.observed_costs()
        record["observed_costs_s"] = time.perf_counter() - t0
        events = _stage_clock()

    t0 = time.perf_counter()
    result = plan.run(session, events=events, raise_errors=False)
    rendered = result.render_all()
    end = time.perf_counter()
    record["wall_s"] = end - t0

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    record["peak_rss_mb"] = max(own, workers) / 1024.0  # ru_maxrss is KiB
    record["errors"] = {key: repr(error)
                        for key, error in result.errors.items()}
    record["digests"] = output_digests(spec, result, rendered)

    from repro.trace.store import TraceStore, trace_params
    from repro.api.registry import SYSTEMS
    store = TraceStore(args.root)
    readers = [store.open(trace_params(
        generator, SYSTEMS.get(organisation).n_cpus, spec["seed"],
        spec["size"])) for generator, organisation, _ in cells(spec)]
    record["accesses"] = sum(reader.n_accesses for reader in readers
                             if reader is not None)
    if args.traced:
        record["stage_intervals"] = [
            (kind, begin - t0, stop - t0)
            for kind, begin, stop in events.intervals]
        record["warm_starts"] = _warm_starts(session, result.run_id)
    print(json.dumps(record))


if __name__ == "__main__":
    main()
