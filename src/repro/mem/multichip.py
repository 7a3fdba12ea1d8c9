"""Multi-chip distributed-shared-memory system model (MSI protocol).

The paper's multi-chip context is a 16-node DSM machine: each node holds one
processor with private L1 and L2 caches; an MSI invalidation protocol keeps
them coherent.  The trace of interest is the sequence of **off-chip read
misses** — reads that miss in a node's L2 — classified with the extended
4C model (:mod:`repro.mem.classify`).

Like the paper's trace-collection mode, the model is functional and
timing-free: accesses are processed in program order with no stalls.

Like a real DSM, the model keeps a **sharer directory**
(:mod:`repro.mem.directory`): one bitmask per block with bit ``i`` set while
node ``i`` holds the block in its L1 or L2.  Every fill sets the node's bit;
an evicted victim loses it once neither of the node's levels holds the
block.  Remote downgrades on a read miss, invalidations on a write, and the
invalidations of an I/O write therefore visit only the sharers, in ascending
node order, instead of probing all 16 nodes' caches.  The directory is
derived state: :meth:`MultiChipSystem.snapshot` leaves it out and
:meth:`MultiChipSystem.restore` rebuilds it from the restored caches, so the
checkpoint format does not depend on it.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from .cache import Cache, State
from .classify import BlockHistory
from .config import SystemConfig
from .directory import Directory, drop_sharer, nodes_of, residency
from .records import Access, AccessKind, MissRecord
from .stream import StreamingSystemMixin
from .trace import AccessTrace, MissTrace, MULTI_CHIP


class MultiChipSystem(StreamingSystemMixin):
    """Trace-driven model of the 16-node multi-chip DSM system."""

    def __init__(self, config: SystemConfig) -> None:
        self.config = config
        self.block_size = config.block_size
        self.n_nodes = config.n_cpus
        self.l1s: List[Cache] = [Cache(config.l1, name=f"node{i}.l1")
                                 for i in range(self.n_nodes)]
        self.l2s: List[Cache] = [Cache(config.l2, name=f"node{i}.l2")
                                 for i in range(self.n_nodes)]
        #: Sharer directory over both levels (derived from the caches).
        self._sharers: Directory = {}
        self.history = BlockHistory()
        self._offchip = MissTrace(MULTI_CHIP)
        self._instructions = 0
        #: When False, accesses still update cache and classification state
        #: but produce no miss records and no instruction counts (used for
        #: cache warm-up, mirroring the paper's warming phase).
        self.recording = True

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def run(self, trace: Iterable[Access]) -> MissTrace:
        """Process an access trace and return the off-chip read-miss trace."""
        for access in trace:
            self.process(access)
        return self.finish()

    def set_recording(self, recording: bool) -> None:
        """Enable or disable miss recording (warm-up support)."""
        self.recording = recording

    def process(self, access: Access) -> None:
        """Process one access (possibly spanning several cache blocks)."""
        if access.cpu >= 0 and self.recording:
            self._instructions += access.icount
        first = access.addr - (access.addr % self.block_size)
        last = (access.addr + max(access.size, 1) - 1)
        last -= last % self.block_size
        block = first
        while True:
            self._process_block(access, block)
            if block >= last:
                break
            block += self.block_size

    def finish(self) -> MissTrace:
        """Finalize and return the off-chip miss trace."""
        self._offchip.instructions = self._instructions
        return self._offchip

    @property
    def offchip(self) -> MissTrace:
        self._offchip.instructions = self._instructions
        return self._offchip

    def miss_traces(self) -> Dict[str, MissTrace]:
        """The accumulated miss traces keyed by context name."""
        return {MULTI_CHIP: self.offchip}

    # ------------------------------------------------------------------ #
    # Snapshot / restore
    # ------------------------------------------------------------------ #
    def snapshot(self) -> Dict[str, object]:
        """Full system state as plain structures (see checkpoint subsystem).

        Captures every cache (per-block MSI state in LRU order), the
        classification history, the accumulated off-chip miss trace, and the
        instruction/recording bookkeeping: restoring it and continuing the
        run is bit-identical to never having stopped.
        """
        return {
            "model": MULTI_CHIP,
            "n_cpus": self.n_nodes,
            "block_size": self.block_size,
            "l1s": [cache.snapshot() for cache in self.l1s],
            "l2s": [cache.snapshot() for cache in self.l2s],
            "history": self.history.snapshot(),
            "offchip": self._offchip.state_dict(),
            "instructions": self._instructions,
            "recording": self.recording,
        }

    def restore(self, state: Dict[str, object]) -> None:
        """Replace the system state with a :meth:`snapshot` state dict.

        The snapshot must come from the same organisation and geometry;
        mismatches raise ``ValueError``.
        """
        if state.get("model") != MULTI_CHIP:
            raise ValueError(f"snapshot is for model {state.get('model')!r}, "
                             f"not {MULTI_CHIP!r}")
        if (int(state["n_cpus"]) != self.n_nodes
                or int(state["block_size"]) != self.block_size):
            raise ValueError(
                f"snapshot geometry ({state['n_cpus']} cpus, "
                f"{state['block_size']}B blocks) does not match this system "
                f"({self.n_nodes} cpus, {self.block_size}B blocks)")
        for cache, cache_state in zip(self.l1s, state["l1s"]):
            cache.restore(cache_state)
        for cache, cache_state in zip(self.l2s, state["l2s"]):
            cache.restore(cache_state)
        self._sharers = residency(list(zip(self.l1s, self.l2s)))
        self.history.restore(state["history"])
        self._offchip = MissTrace.from_state_dict(state["offchip"])
        self._instructions = int(state["instructions"])
        self.recording = bool(state["recording"])

    # ------------------------------------------------------------------ #
    # Per-block protocol actions
    # ------------------------------------------------------------------ #
    def _process_block(self, access: Access, block: int) -> None:
        kind = access.kind
        if kind in (AccessKind.DMA_WRITE, AccessKind.COPYOUT_WRITE):
            self._io_write(access, block)
        elif kind == AccessKind.WRITE:
            self._cpu_write(access.cpu, block)
        else:  # READ or IFETCH
            self._cpu_read(access, block)

    def _cpu_read(self, access: Access, block: int) -> None:
        node = access.cpu
        l1, l2 = self.l1s[node], self.l2s[node]
        if l1.lookup(block).is_valid:
            self.history.record_access(node, block)
            return
        if l2.lookup(block).is_valid:
            # L2 hit: refill L1 in SHARED (or keep M state at L2 only; the
            # trace analyses only need hit/miss behaviour).
            self._fill(node, l1, l2, block, State.SHARED)
            self.history.record_access(node, block)
            return
        # Off-chip miss: classify before updating history.
        if self.recording:
            miss_class = self.history.classify_read_miss(node, block)
            self._offchip.append(MissRecord(seq=len(self._offchip), cpu=node,
                                            block=block, miss_class=miss_class,
                                            fn=access.fn))
        # Remote dirty copies are downgraded to SHARED by the MSI protocol.
        # This node holds neither level, so every sharer is remote.
        for other in nodes_of(self._sharers.get(block, 0)):
            if self.l1s[other].peek(block) == State.MODIFIED:
                self.l1s[other].downgrade(block)
            if self.l2s[other].peek(block) == State.MODIFIED:
                self.l2s[other].downgrade(block)
        self._fill(node, l2, l1, block, State.SHARED)
        self._fill(node, l1, l2, block, State.SHARED)
        self.history.record_access(node, block)

    def _cpu_write(self, node: int, block: int) -> None:
        # Invalidate every other sharer's copies (MSI upgrade/invalidate);
        # the fills below re-enter this node as the only sharer.
        for other in nodes_of(self._sharers.pop(block, 0) & ~(1 << node)):
            self.l1s[other].invalidate(block)
            self.l2s[other].invalidate(block)
        l1, l2 = self.l1s[node], self.l2s[node]
        self._fill(node, l2, l1, block, State.MODIFIED)
        self._fill(node, l1, l2, block, State.MODIFIED)
        self.history.record_cpu_write(node, block)

    def _io_write(self, access: Access, block: int) -> None:
        # DMA and copyout stores write memory without allocating anywhere
        # and invalidate all cached copies.
        for node in nodes_of(self._sharers.pop(block, 0)):
            self.l1s[node].invalidate(block)
            self.l2s[node].invalidate(block)
        self.history.record_io_write(block)

    def _process_read_hits(self, node: int, block: int, count: int) -> None:
        """Batched tail of a same-block read run that is guaranteed to hit.

        Equivalent to ``count`` further :meth:`_cpu_read` calls on a block
        already resident (and MRU) in ``node``'s L1: the hit counter and the
        history clock advance by ``count`` with no per-access Python loop.
        """
        self.l1s[node].record_hits(block, count)
        self.history.record_accesses(node, block, count)

    # ------------------------------------------------------------------ #
    def _fill(self, node: int, cache: Cache, other: Cache, block: int,
              state: State) -> None:
        """Fill ``block`` into ``cache``, one of ``node``'s two levels.

        Sets ``node``'s directory bit for ``block``.  An evicted victim
        keeps the bit while ``other`` (the node's other level) holds it.
        """
        victim = cache.fill(block, state)
        sharers = self._sharers
        sharers[block] = sharers.get(block, 0) | (1 << node)
        if victim is not None and not other.peek(victim[0]).is_valid:
            drop_sharer(sharers, victim[0], node)
