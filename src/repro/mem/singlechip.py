"""Single-chip CMP system model (MOSI, Piranha-like, non-inclusive).

The paper's single-chip context is a 4-core CMP with private split L1s and a
shared 16-way L2.  Two miss traces come out of it:

* **single-chip (off-chip)** — L1 misses that also miss in the shared L2,
  classified with the extended 4C model at chip granularity.  Because all
  cores share the chip, there is no (non-I/O) off-chip coherence.
* **intra-chip** — L1 read misses that are satisfied on-chip, classified as
  ``Coherence:Peer-L1`` (dirty copy supplied by another core's L1),
  ``Coherence:L2`` (coherence miss satisfied by the shared L2), or
  ``Replacement:L2`` (plain L1 replacement miss hitting in L2), following
  Figure 1 (right).

The hierarchy is non-inclusive: a block may live in an L1 without being in
the L2 (the L2 is filled on L1 refills but L2 evictions do not back-
invalidate the L1s).

The chip keeps a **sharer directory** over the L1s
(:mod:`repro.mem.directory`): one bitmask per block with bit ``i`` set while
core ``i``'s L1 holds it, kept current on every L1 fill, victim eviction and
invalidation.  The peer-supplier search walks the sharers in ascending core
order (so the first dirty peer by index still supplies), and write and I/O
invalidations visit only the sharers.  The directory is derived state:
:meth:`SingleChipSystem.snapshot` leaves it out and
:meth:`SingleChipSystem.restore` rebuilds it from the restored L1s.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from .cache import Cache, State
from .classify import BlockHistory
from .config import SystemConfig
from .directory import Directory, drop_sharer, nodes_of, residency
from .records import Access, AccessKind, IntraChipClass, MissClass, MissRecord
from .stream import StreamingSystemMixin
from .trace import AccessTrace, MissTrace, INTRA_CHIP, SINGLE_CHIP

#: Observer id used for chip-level classification (the whole chip acts as a
#: single observer for off-chip misses).
_CHIP = 0


class SingleChipSystem(StreamingSystemMixin):
    """Trace-driven model of the 4-core single-chip CMP."""

    def __init__(self, config: SystemConfig) -> None:
        self.config = config
        self.block_size = config.block_size
        self.n_cores = config.n_cpus
        self.l1s: List[Cache] = [Cache(config.l1, name=f"core{i}.l1")
                                 for i in range(self.n_cores)]
        self.l2 = Cache(config.l2, name="shared.l2")
        #: Sharer directory over the L1s (derived from the caches).
        self._sharers: Directory = {}
        #: Chip-level history for off-chip classification.
        self.chip_history = BlockHistory()
        #: Per-core history for intra-chip coherence-vs-replacement decisions.
        self.core_history = BlockHistory()
        self._offchip = MissTrace(SINGLE_CHIP)
        self._intrachip = MissTrace(INTRA_CHIP)
        self._instructions = 0
        #: When False, accesses still update cache and classification state
        #: but produce no miss records and no instruction counts (used for
        #: cache warm-up, mirroring the paper's warming phase).
        self.recording = True

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def run(self, trace: Iterable[Access]) -> Tuple[MissTrace, MissTrace]:
        """Process a trace; return ``(offchip_trace, intrachip_trace)``."""
        for access in trace:
            self.process(access)
        return self.finish()

    def set_recording(self, recording: bool) -> None:
        """Enable or disable miss recording (warm-up support)."""
        self.recording = recording

    def process(self, access: Access) -> None:
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

    def finish(self) -> Tuple[MissTrace, MissTrace]:
        self._offchip.instructions = self._instructions
        self._intrachip.instructions = self._instructions
        return self._offchip, self._intrachip

    @property
    def offchip(self) -> MissTrace:
        self._offchip.instructions = self._instructions
        return self._offchip

    @property
    def intrachip(self) -> MissTrace:
        self._intrachip.instructions = self._instructions
        return self._intrachip

    def miss_traces(self) -> Dict[str, MissTrace]:
        """The accumulated miss traces keyed by context name."""
        return {SINGLE_CHIP: self.offchip, INTRA_CHIP: self.intrachip}

    # ------------------------------------------------------------------ #
    # Snapshot / restore
    # ------------------------------------------------------------------ #
    def snapshot(self) -> Dict[str, object]:
        """Full system state as plain structures (see checkpoint subsystem).

        Captures the per-core L1s and shared L2 (per-block MOSI state in LRU
        order), both classification histories, both accumulated miss traces,
        and the instruction/recording bookkeeping: restoring it and
        continuing the run is bit-identical to never having stopped.
        """
        return {
            "model": SINGLE_CHIP,
            "n_cpus": self.n_cores,
            "block_size": self.block_size,
            "l1s": [cache.snapshot() for cache in self.l1s],
            "l2": self.l2.snapshot(),
            "chip_history": self.chip_history.snapshot(),
            "core_history": self.core_history.snapshot(),
            "offchip": self._offchip.state_dict(),
            "intrachip": self._intrachip.state_dict(),
            "instructions": self._instructions,
            "recording": self.recording,
        }

    def restore(self, state: Dict[str, object]) -> None:
        """Replace the system state with a :meth:`snapshot` state dict.

        The snapshot must come from the same organisation and geometry;
        mismatches raise ``ValueError``.
        """
        if state.get("model") != SINGLE_CHIP:
            raise ValueError(f"snapshot is for model {state.get('model')!r}, "
                             f"not {SINGLE_CHIP!r}")
        if (int(state["n_cpus"]) != self.n_cores
                or int(state["block_size"]) != self.block_size):
            raise ValueError(
                f"snapshot geometry ({state['n_cpus']} cpus, "
                f"{state['block_size']}B blocks) does not match this system "
                f"({self.n_cores} cpus, {self.block_size}B blocks)")
        for cache, cache_state in zip(self.l1s, state["l1s"]):
            cache.restore(cache_state)
        self.l2.restore(state["l2"])
        self._sharers = residency([[cache] for cache in self.l1s])
        self.chip_history.restore(state["chip_history"])
        self.core_history.restore(state["core_history"])
        self._offchip = MissTrace.from_state_dict(state["offchip"])
        self._intrachip = MissTrace.from_state_dict(state["intrachip"])
        self._instructions = int(state["instructions"])
        self.recording = bool(state["recording"])

    # ------------------------------------------------------------------ #
    # Per-block protocol actions
    # ------------------------------------------------------------------ #
    def _process_block(self, access: Access, block: int) -> None:
        kind = access.kind
        if kind in (AccessKind.DMA_WRITE, AccessKind.COPYOUT_WRITE):
            self._io_write(block)
        elif kind == AccessKind.WRITE:
            self._cpu_write(access.cpu, block)
        else:
            self._cpu_read(access, block)

    def _cpu_read(self, access: Access, block: int) -> None:
        core = access.cpu
        l1 = self.l1s[core]
        if l1.lookup(block).is_valid:
            self.core_history.record_access(core, block)
            self.chip_history.record_access(_CHIP, block)
            return

        # L1 miss.  Determine whether it is a coherence miss (another core
        # wrote the block since this core last read it).
        core_class = self.core_history.classify_read_miss(core, block)
        is_coherence = core_class == MissClass.COHERENCE

        # Find a dirty peer copy (MOSI: M or O states can supply data).
        # This core's L1 misses, so every sharer is a peer.
        peer_supplier = None
        for other in nodes_of(self._sharers.get(block, 0)):
            if self.l1s[other].peek(block).is_dirty:
                peer_supplier = other
                break

        l2_state = self.l2.lookup(block)
        if peer_supplier is not None:
            # Peer L1 supplies the data; the supplier transitions M -> O
            # (Piranha keeps the dirty copy as owner).
            if self.l1s[peer_supplier].peek(block) == State.MODIFIED:
                self.l1s[peer_supplier].set_state(block, State.OWNED)
            if self.recording:
                cls = (IntraChipClass.COHERENCE_PEER_L1 if is_coherence
                       else IntraChipClass.REPLACEMENT_L2)
                self._intrachip.append(MissRecord(
                    seq=len(self._intrachip), cpu=core, block=block,
                    miss_class=cls, fn=access.fn, supplier=peer_supplier))
            self._fill_l1(core, block, State.SHARED)
        elif l2_state.is_valid:
            if self.recording:
                cls = (IntraChipClass.COHERENCE_L2 if is_coherence
                       else IntraChipClass.REPLACEMENT_L2)
                self._intrachip.append(MissRecord(
                    seq=len(self._intrachip), cpu=core, block=block,
                    miss_class=cls, fn=access.fn, supplier=-1))
            self._fill_l1(core, block, State.SHARED)
        else:
            # Off-chip miss; classify at chip granularity.
            if self.recording:
                chip_class = self.chip_history.classify_read_miss(_CHIP, block)
                self._offchip.append(MissRecord(
                    seq=len(self._offchip), cpu=core, block=block,
                    miss_class=chip_class, fn=access.fn))
            self.l2.fill(block, State.SHARED)
            self._fill_l1(core, block, State.SHARED)

        self.core_history.record_access(core, block)
        self.chip_history.record_access(_CHIP, block)

    def _cpu_write(self, core: int, block: int) -> None:
        # Invalidate peer copies; write-allocate into this core's L1 and the
        # shared L2 (write-back, write-allocate).
        # The fill below re-enters this core as the only sharer.
        for other in nodes_of(self._sharers.pop(block, 0) & ~(1 << core)):
            self.l1s[other].invalidate(block)
        self._fill_l1(core, block, State.MODIFIED)
        if self.l2.peek(block).is_valid:
            self.l2.set_state(block, State.MODIFIED)
        self.core_history.record_cpu_write(core, block)
        self.chip_history.record_access(_CHIP, block)
        # A CPU write inside the chip never creates off-chip coherence, so
        # the chip-level history records it as a plain access, not a write.

    def _io_write(self, block: int) -> None:
        for core in nodes_of(self._sharers.pop(block, 0)):
            self.l1s[core].invalidate(block)
        self.l2.invalidate(block)
        self.core_history.record_io_write(block)
        self.chip_history.record_io_write(block)

    def _process_read_hits(self, core: int, block: int, count: int) -> None:
        """Batched tail of a same-block read run that is guaranteed to hit.

        Equivalent to ``count`` further :meth:`_cpu_read` calls on a block
        already resident (and MRU) in ``core``'s L1: the hit counter and
        both history clocks advance by ``count`` with no per-access loop.
        """
        self.l1s[core].record_hits(block, count)
        self.core_history.record_accesses(core, block, count)
        self.chip_history.record_accesses(_CHIP, block, count)

    # ------------------------------------------------------------------ #
    def _fill_l1(self, core: int, block: int, state: State) -> None:
        victim = self.l1s[core].fill(block, state)
        sharers = self._sharers
        sharers[block] = sharers.get(block, 0) | (1 << core)
        if victim is not None:
            victim_block, victim_state = victim
            drop_sharer(sharers, victim_block, core)
            # Non-inclusive hierarchy: dirty L1 victims are written back to
            # the shared L2 so their data is not lost.
            if victim_state.is_dirty and not self.l2.peek(victim_block).is_valid:
                self.l2.fill(victim_block, State.MODIFIED)
