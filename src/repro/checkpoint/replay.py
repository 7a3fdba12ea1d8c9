"""Checkpointed replay: resumable simulation over a captured trace.

:func:`simulate_replay` is the bridge between the trace layer (epoch-
segmented columnar replay) and the memory models' ``snapshot()/restore()``:
it drives one system over a trace's epoch chunks, saving a snapshot into a
:class:`~repro.checkpoint.store.CheckpointStore` at epoch boundaries, and —
when a run with the same key already left checkpoints behind — restores the
latest one and simulates only the remaining epochs.  Because a snapshot
captures *all* state an epoch's processing depends on (cache contents and
LRU order, classification history, accumulated miss traces, instruction and
recording bookkeeping), the resumed run is bit-identical to an uninterrupted
one.

The same mechanism yields epoch-sharded *parallel* simulation
(:meth:`repro.experiments.parallel.ParallelSuiteRunner.simulate_trace`):
once a serial pass has left checkpoints at epoch boundaries, each shard
restores the checkpoint at its starting epoch via :func:`simulate_epoch_range`
and simulates only its own range; deltas merge deterministically in epoch
order.

This module deliberately depends only on the trace and mem layers (plus the
shared cache-dir helpers) — nothing here imports the experiments layer.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..mem.records import MissRecord
from ..trace.replay import TraceReader
from .delta import DeltaChainWriter
from .store import CheckpointStore, STATS

#: Adaptive checkpoint stride aims for about this many snapshots per run.
#: A snapshot's cost grows with accumulated state (miss traces, touched
#: blocks), so checkpointing *every* boundary of a long trace would cost
#: more than the simulation itself; a dozen evenly-spaced boundaries keeps
#: the overhead small while resume/sharding granularity stays useful.
DEFAULT_CHECKPOINT_TARGET = 12

#: Target snapshot count when boundaries are committed as delta chains.
#: A delta link *writes* only the state that changed since the last
#: boundary (the miss-trace tail plus touched caches), so it is several
#: times smaller on disk than a full snapshot.  It is not cheaper in CPU:
#: every boundary still takes a full ``snapshot()`` and diffs each whole
#: table against the previous one.  Over the 49 boundaries of the
#: ``warmup-sweep`` benchmark (six OLTP cells at ``default``), the
#: perfbench layer ledger (in-process, cyclic collector on, medians of
#: eight runs on a 2-vCPU VM) measured 1.79 s in ``snapshot`` and 2.26 s
#: in ``save`` against 4.26 s of coherence-protocol work: at this density
#: the boundaries cost about as much CPU as the simulation they protect.
DELTA_CHECKPOINT_TARGET = 48


def accesses_before(reader: TraceReader, epoch: int) -> int:
    """Number of trace accesses in epochs ``[0, epoch)``."""
    return sum(segment["n"] for segment in reader.meta.segments[:epoch])


def simulate_replay(system: Any, reader: TraceReader, warmup: int = 0,
                    store: Optional[CheckpointStore] = None,
                    params: Optional[Dict[str, Any]] = None,
                    resume: bool = True,
                    checkpoint_every: Optional[int] = None,
                    stop_epoch: Optional[int] = None,
                    delta: bool = True,
                    prefix_params: Optional[Dict[str, Any]] = None,
                    prefix_limit: Optional[int] = None) -> Any:
    """Replay ``reader``'s epochs through ``system`` with checkpointing.

    Parameters
    ----------
    system:
        A fresh system model exposing the streaming interface plus
        ``snapshot()``/``restore()``.
    warmup:
        Warm-up boundary in *accesses from the start of the trace* (the
        runner's usual fraction-of-length arithmetic), honoured even when
        the run resumes mid-trace.
    store / params:
        Where checkpoints live and the key of this run.  When either is
        ``None`` the replay runs unchanged (no snapshots, no resume).
    resume:
        Restore the latest stored checkpoint at or before the target range
        end and simulate only the remaining epochs.
    checkpoint_every:
        Epoch-boundary stride between snapshots (``0`` disables saving but
        still allows resume; ``None`` — the default — picks a stride
        targeting :data:`DELTA_CHECKPOINT_TARGET` snapshots for the whole
        trace, or :data:`DEFAULT_CHECKPOINT_TARGET` with ``delta=False``).
        The final boundary of the run is always saved so a completed prefix
        is never lost to stride rounding.
    stop_epoch:
        Simulate only epochs ``[start, stop_epoch)`` — used by tests to
        model an interrupted run; the default runs to the end of the trace.
    delta:
        Commit boundaries as content-addressed delta chains
        (:class:`~repro.checkpoint.delta.DeltaChainWriter`) instead of
        whole-snapshot files.  Restore folds chains and legacy files
        interchangeably, bit-identically.
    prefix_params / prefix_limit:
        The shared-prefix checkpoint key of this run's trace/organisation/
        scale group and the last epoch boundary still inside this run's
        warm-up (see :mod:`repro.checkpoint.prefix`).  With ``resume``, a
        prefix checkpoint *further along* than this run's own latest is
        restored instead — a warm start, counted in
        ``STATS.warm_starts`` — never beyond ``prefix_limit``, where state
        would start depending on the warm-up fraction.

    Returns whatever the system's ``finish()`` returns (one miss trace for
    the multi-chip model, an (off-chip, intra-chip) pair for single-chip).
    """
    stop = reader.n_epochs if stop_epoch is None else min(stop_epoch,
                                                          reader.n_epochs)
    if checkpoint_every is None:
        target = DELTA_CHECKPOINT_TARGET if delta else DEFAULT_CHECKPOINT_TARGET
        checkpoint_every = max(1, reader.n_epochs // target)
    start = 0
    checkpointing = store is not None and params is not None
    if checkpointing and resume:
        found = store.latest(params, max_epoch=stop)
        start = found[0] if found is not None else 0
        if prefix_params is not None and prefix_limit is not None:
            cap = min(stop, prefix_limit)
            if cap > start:
                warm = store.latest(prefix_params, max_epoch=cap)
                if warm is not None and warm[0] > start:
                    found = warm
                    STATS.warm_starts += 1
        if found is not None:
            start, state = found
            system.restore(state)
            STATS.resumes += 1
    seen = accesses_before(reader, start)

    on_chunk = None
    if checkpointing and checkpoint_every:
        writer = DeltaChainWriter(store, params) if delta else None

        def on_chunk(chunk: Any, seen_after: int) -> None:
            boundary = chunk.epoch + 1
            if chunk.epoch >= 0 and (boundary % checkpoint_every == 0
                                     or boundary == stop):
                if writer is not None:
                    writer.save(boundary, system.snapshot())
                else:
                    store.save(params, boundary, system.snapshot())

    return system.run_chunks(reader.iter_epochs(start, stop), warmup=warmup,
                             seen=seen, on_chunk=on_chunk)


def simulate_epoch_range(system: Any, reader: TraceReader, start_epoch: int,
                         stop_epoch: int, warmup: int,
                         store: Optional[CheckpointStore],
                         params: Optional[Dict[str, Any]]
                         ) -> Tuple[Dict[str, List[MissRecord]], int]:
    """Simulate epochs ``[start_epoch, stop_epoch)`` as one parallel shard.

    Restores the checkpoint at ``start_epoch`` (a shard starting at epoch 0
    needs none), replays only its own range, and returns
    ``(delta_records_by_context, total_instructions)`` where the deltas are
    the miss records this range produced.  Because the restored snapshot
    embeds the cumulative miss traces of epochs ``[0, start_epoch)``, the
    delta records carry globally correct sequence numbers — concatenating
    shard deltas in epoch order reproduces the serial trace exactly.

    Raises ``LookupError`` when the required starting checkpoint is missing
    or unreadable; the caller decides whether to fall back to a serial run.
    """
    if start_epoch > 0:
        state = (store.load(params, start_epoch)
                 if store is not None and params is not None else None)
        if state is None:
            raise LookupError(
                f"no checkpoint at epoch {start_epoch} for {params}")
        system.restore(state)
        STATS.resumes += 1
    base = {context: len(trace)
            for context, trace in system.miss_traces().items()}
    system.run_chunks(reader.iter_epochs(start_epoch, stop_epoch),
                      warmup=warmup,
                      seen=accesses_before(reader, start_epoch))
    traces = system.miss_traces()
    deltas = {context: trace.records[base[context]:]
              for context, trace in traces.items()}
    instructions = next(iter(traces.values())).instructions
    return deltas, instructions
