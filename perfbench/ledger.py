"""The per-layer ledger: a workload's cells replayed layer by layer.

The timed runs only see the pipeline from outside.  This module runs the
same cells in-process by calling each layer's public functions directly,
with a span (name, start, end, parent) and counts around every call:

* ``workloads``  -- ``create_workload(...).iter_accesses()``
* ``trace``      -- ``TraceStore.capture`` and ``TraceReader.iter_epochs``
* ``mem``        -- ``system.run_chunks`` (minus the checkpoint callbacks)
* ``checkpoint`` -- ``system.snapshot`` and ``DeltaChainWriter.save`` at the
  boundaries ``simulate_replay`` saves, then ``CheckpointStore.latest`` and
  ``system.restore`` of the final boundary
* ``core``       -- the :mod:`repro.core` analysis functions
* ``prefetch``   -- ``evaluate_coverage``
* ``experiments``-- ``ResultStore.save`` and the figure 2 render

The replay's miss traces, coverage results and rendered figures reduce to
the same digests as a timed run (:mod:`common`), which makes the ledger the
correctness reference for every seed without a committed one.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Tuple

from common import cell_id, cells, coverage_digest, sha, trace_digest
from repro.api.registry import PREFETCHERS, SYSTEMS
from repro.api.spec import ExperimentSpec
from repro.checkpoint.delta import DeltaChainWriter
from repro.checkpoint.replay import DELTA_CHECKPOINT_TARGET
from repro.checkpoint.store import STATS, CheckpointStore, checkpoint_params
from repro.core.classification import classify_intrachip, classify_offchip
from repro.core.lengths import length_distribution
from repro.core.modules import module_breakdown
from repro.core.reuse import reuse_distance_distribution
from repro.core.streams import analyze_trace
from repro.core.stride import stride_stream_breakdown
from repro.experiments.figure2 import Figure2Result
from repro.experiments.parallel import spec_contexts
from repro.experiments.runner import ContextResult, clamp_warmup_fraction
from repro.experiments.store import ResultStore
from repro.mem.records import MissClass
from repro.mem.trace import INTRA_CHIP
from repro.prefetch.base import evaluate_coverage
from repro.trace.store import TraceStore, trace_params
from repro.workloads import create_workload


class Ledger:
    """Spans and counts recorded around layer calls, kept in memory."""

    def __init__(self) -> None:
        #: (name, start, end, parent index or -1) in recording order.
        self.spans: List[Tuple[str, float, float, int]] = []
        self.counts: Dict[str, float] = {}
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append((name, time.perf_counter(), 0.0, parent))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            _, start, _, _ = self.spans[index]
            self.spans[index] = (name, start, time.perf_counter(), parent)

    def count(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def busy(self, name: str) -> float:
        """Total duration of every span called ``name``."""
        return sum(end - start for span_name, start, end, _ in self.spans
                   if span_name == name)

    def self_time(self, name: str) -> float:
        """Duration of ``name`` spans minus the time their children cover."""
        total = 0.0
        for index, (span_name, start, end, _) in enumerate(self.spans):
            if span_name != name:
                continue
            children = sum(c_end - c_start
                           for _, c_start, c_end, parent in self.spans
                           if parent == index)
            total += (end - start) - children
        return total


def replay(spec: Dict[str, Any], root: str,
           full: bool = True) -> Tuple[Dict[str, Any], Ledger]:
    """Replay ``spec``'s cells under the empty cache root ``root``.

    Returns the output digests (the shape ``rep.py`` prints) and the ledger.
    ``full=False`` leaves out the checkpoint and result-store calls, which
    feed only per-layer metrics, when the digests are all that is needed.
    """
    ledger = Ledger()
    size, seed, scale = spec["size"], spec["seed"], spec["scales"][0]
    trace_store = TraceStore(root)
    ckpt_store = CheckpointStore(root)
    result_store = ResultStore(root)
    dedup0, writes0 = STATS.chunk_dedup_hits, STATS.chunk_writes

    # workloads + trace: one generated, captured and decoded stream per
    # (generator, CPU count), exactly as the capture stage keys them.
    streams: Dict[Tuple[str, int], Tuple[Any, List[Any]]] = {}
    for generator, organisation, _ in cells(spec):
        n_cpus = SYSTEMS.get(organisation).n_cpus
        if (generator, n_cpus) in streams:
            continue
        key = trace_params(generator, n_cpus, seed, size)
        with ledger.span("workloads.generate"):
            accesses = list(create_workload(
                generator, n_cpus=n_cpus, seed=seed,
                size=size).iter_accesses())
        with ledger.span("trace.capture"):
            for _ in trace_store.capture(iter(accesses), key):
                pass
        del accesses
        reader = trace_store.open(key)
        with ledger.span("trace.decode"):
            epochs = list(reader.iter_epochs())
        ledger.count("accesses", reader.n_accesses)
        ledger.count("trace.bytes", reader.size_bytes())
        streams[(generator, n_cpus)] = (reader, epochs)

    # The warm starts a timed run must make.  Cells of one (generator,
    # organisation) that span two or more warm-ups share a prefix when the
    # smallest warm-up covers the trace's whole first epoch; each of them
    # then warm-starts from it once.  No other cell may warm-start.
    groups: Dict[Tuple[str, str], List[float]] = {}
    for generator, organisation, warmup in cells(spec):
        groups.setdefault((generator, organisation), []).append(
            clamp_warmup_fraction(warmup))
    ledger.counts["checkpoint.predicted_warm_starts"] = 0
    for (generator, organisation), fractions in groups.items():
        reader = streams[(generator, SYSTEMS.get(organisation).n_cpus)][0]
        first_epoch = reader.meta.segments[0]["n"]
        if (len(set(fractions)) >= 2 and min(fractions) > 0 and
                int(reader.n_accesses * min(fractions)) >= first_epoch):
            ledger.count("checkpoint.predicted_warm_starts", len(fractions))

    digests: Dict[str, Any] = {"cells": {}, "artifacts": {}}
    analyses: Dict[float, Dict[str, Dict[str, Any]]] = {}
    for generator, organisation, warmup in cells(spec):
        factory = SYSTEMS.get(organisation)
        reader, epochs = streams[(generator, factory.n_cpus)]
        fraction = clamp_warmup_fraction(warmup)
        params = checkpoint_params(generator, factory.n_cpus, seed, size,
                                   organisation, scale, fraction,
                                   epoch_size=reader.meta.epoch_size)
        system = factory(scale=scale)
        writer = DeltaChainWriter(ckpt_store, params)
        every = max(1, reader.n_epochs // DELTA_CHECKPOINT_TARGET)

        def on_chunk(chunk: Any, seen_after: int) -> None:
            boundary = chunk.epoch + 1
            if full and (boundary % every == 0
                         or boundary == reader.n_epochs):
                with ledger.span("checkpoint.snapshot"):
                    state = system.snapshot()
                with ledger.span("checkpoint.write"):
                    writer.save(boundary, state)

        layer = f"mem.{organisation.replace('-', '')}.simulate"
        with ledger.span(layer):
            system.run_chunks(epochs, warmup=int(reader.n_accesses * fraction),
                              on_chunk=on_chunk)
        ledger.count(f"{layer}.accesses", reader.n_accesses)
        for caches, level in ((system.l1s, "l1"),
                              (getattr(system, "l2s", None)
                               or [system.l2], "l2")):
            for cache in caches:
                stats = cache.stats()
                ledger.count(f"mem.{level}_hits", stats["hits"])
                ledger.count(f"mem.{level}_accesses",
                             stats["hits"] + stats["misses"])
        traces = system.miss_traces()

        entry = {"traces": {context: trace_digest(trace)
                            for context, trace in traces.items()},
                 "coverage": {}, "failed": False}
        if full:
            with ledger.span("checkpoint.restore"):
                _, state = ckpt_store.latest(params)
                restored = factory(scale=scale)
                restored.restore(state)
            # A restore that does not reproduce the simulated state fails
            # the cell, like a mismatching timed run would.
            entry["failed"] = any(
                trace_digest(trace) != entry["traces"][context]
                for context, trace in restored.miss_traces().items())

        for context, trace in traces.items():
            misses = len(trace)
            ledger.count("core.misses", misses)
            if context == INTRA_CHIP:
                ledger.count("mem.intrachip_misses", misses)
            else:
                ledger.count("mem.offchip_misses", misses)
                counts = trace.class_counts()
                ledger.count("mem.coherence_misses",
                             counts.get(MissClass.COHERENCE, 0))
                ledger.count("mem.io_coherence_misses",
                             counts.get(MissClass.IO_COHERENCE, 0))
            bundle = _analyze(ledger, generator, context, trace)
            analyses.setdefault(warmup, {}).setdefault(
                generator, {})[context] = bundle.stream_analysis
            for prefetcher in spec["prefetchers"]:
                with ledger.span(f"prefetch.{prefetcher}.evaluate"):
                    coverage = evaluate_coverage(
                        PREFETCHERS.get(prefetcher)(), trace)
                ledger.count(f"prefetch.{prefetcher}.covered",
                             coverage.covered_misses)
                ledger.count(f"prefetch.{prefetcher}.misses",
                             coverage.total_misses)
                entry["coverage"][f"{prefetcher}:{context}"] = \
                    coverage_digest(coverage)
            if full:
                with ledger.span("experiments.bundle_save"):
                    path = result_store.save("context", {
                        "workload": generator, "context": context,
                        "size": size, "seed": seed, "scale": scale,
                        "warmup": fraction}, bundle)
                ledger.count("experiments.bundle_bytes",
                             os.path.getsize(path))
        digests["cells"][cell_id(generator, organisation, warmup)] = entry

    # One figure per warm-up, over the grid slice at that warm-up, in the
    # row order the render stage uses.
    resolved = ExperimentSpec.from_dict(spec)
    contexts = spec_contexts(resolved)
    suffixed = len(spec["warmups"]) * len(spec["scales"]) > 1
    for warmup in spec["warmups"]:
        with ledger.span("experiments.render"):
            figure = Figure2Result(analyses={
                generator: {context: analyses[warmup][generator][context]
                            for context in contexts}
                for generator in spec["workloads"]}).render()
        name = ("figure2" + (f"@scale{scale}-warmup{warmup:g}"
                             if suffixed else ""))
        digests["artifacts"][name] = sha(figure)

    ledger.count("checkpoint.bytes_written", ckpt_store.size_bytes())
    ledger.count("checkpoint.chunk_dedup_hits",
                 STATS.chunk_dedup_hits - dedup0)
    ledger.count("checkpoint.chunk_writes", STATS.chunk_writes - writes0)
    return digests, ledger


def _analyze(ledger: Ledger, generator: str, context: str,
             trace: Any) -> ContextResult:
    """The analysis bundle of one miss trace, one span per core function."""
    classify = (classify_intrachip if context == INTRA_CHIP
                else classify_offchip)
    with ledger.span("core.sequitur"):
        analysis = analyze_trace(trace)
    with ledger.span("core.classify"):
        classification = classify(trace)
    with ledger.span("core.modules"):
        modules = module_breakdown(trace, analysis)
    with ledger.span("core.stride"):
        stride = stride_stream_breakdown(trace, analysis)
    with ledger.span("core.lengths"):
        lengths = length_distribution(analysis.occurrences)
    with ledger.span("core.reuse"):
        reuse = reuse_distance_distribution(analysis, trace)
    return ContextResult(workload=generator, context=context,
                         miss_trace=trace, stream_analysis=analysis,
                         classification=classification, modules=modules,
                         stride=stride, lengths=lengths, reuse=reuse)


def layer_metrics(ledger: Ledger) -> Dict[str, Tuple[float, str]]:
    """The ledger's per-layer metrics as name -> (value, unit)."""
    c = ledger.counts
    busy = ledger.busy

    def rate(count: float, seconds: float) -> float:
        return count / seconds if seconds > 0 else 0.0

    def share(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    core = ["sequitur", "classify", "modules", "stride", "lengths", "reuse"]
    core_s = sum(busy(f"core.{name}") for name in core)
    out: Dict[str, Tuple[float, str]] = {
        "workloads.generate_s": (busy("workloads.generate"), "s"),
        "workloads.accesses_per_s": (rate(c["accesses"],
                                          busy("workloads.generate")), "1/s"),
        "trace.capture_s": (busy("trace.capture"), "s"),
        "trace.decode_s": (busy("trace.decode"), "s"),
        "trace.decode_accesses_per_s": (rate(c["accesses"],
                                             busy("trace.decode")), "1/s"),
        "trace.bytes": (c["trace.bytes"], "bytes"),
    }
    for org in ("multichip", "singlechip"):
        layer = f"mem.{org}.simulate"
        # Checkpoint callbacks run inside run_chunks: the layer's own time
        # is its self time.
        seconds = ledger.self_time(layer)
        out[f"{layer}_s"] = (seconds, "s")
        out[f"mem.{org}.accesses_per_s"] = (
            rate(c.get(f"{layer}.accesses", 0), seconds), "1/s")
    off = c.get("mem.offchip_misses", 0)
    out.update({
        "mem.l1_hit_ratio": (share(c["mem.l1_hits"], c["mem.l1_accesses"]),
                             "ratio"),
        "mem.l2_hit_ratio": (share(c["mem.l2_hits"], c["mem.l2_accesses"]),
                             "ratio"),
        "mem.offchip_misses": (off, "count"),
        "mem.intrachip_misses": (c.get("mem.intrachip_misses", 0), "count"),
        "mem.coherence_miss_share": (share(c["mem.coherence_misses"], off),
                                     "ratio"),
        "mem.io_coherence_miss_share": (
            share(c["mem.io_coherence_misses"], off), "ratio"),
        "checkpoint.snapshot_s": (busy("checkpoint.snapshot"), "s"),
        "checkpoint.write_s": (busy("checkpoint.write"), "s"),
        "checkpoint.bytes_written": (c["checkpoint.bytes_written"], "bytes"),
        "checkpoint.restore_s": (busy("checkpoint.restore"), "s"),
        "checkpoint.chunk_dedup_ratio": (share(
            c["checkpoint.chunk_dedup_hits"],
            c["checkpoint.chunk_dedup_hits"] + c["checkpoint.chunk_writes"]),
            "ratio"),
        "core.misses_per_s": (rate(c["core.misses"], core_s), "1/s"),
    })
    for name in core:
        out[f"core.{name}_s"] = (busy(f"core.{name}"), "s")
    for prefetcher in ("temporal", "stride"):
        out[f"prefetch.{prefetcher}.evaluate_s"] = (
            busy(f"prefetch.{prefetcher}.evaluate"), "s")
        out[f"prefetch.{prefetcher}.coverage"] = (share(
            c[f"prefetch.{prefetcher}.covered"],
            c[f"prefetch.{prefetcher}.misses"]), "ratio")
    out.update({
        "experiments.bundle_save_s": (busy("experiments.bundle_save"), "s"),
        "experiments.bundle_bytes": (c["experiments.bundle_bytes"], "bytes"),
        "experiments.render_s": (busy("experiments.render"), "s"),
    })
    return out
