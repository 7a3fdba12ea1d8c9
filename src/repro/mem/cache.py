"""Set-associative cache with true-LRU replacement and per-block state.

Used as the building block for both system models.  A cache stores
*coherence state* per block (MOSI superset; MSI models simply never use the
OWNED state).  Lookups and fills operate on block addresses (byte address of
the block base); callers are responsible for converting byte addresses using
:meth:`Cache.block_of`.
"""

from __future__ import annotations

import enum
from collections import OrderedDict
from typing import Dict, Iterator, List, Optional, Tuple

from .config import CacheConfig


class State(enum.IntEnum):
    """Coherence state of a cached block (MOSI superset).

    ``is_valid`` and ``is_dirty`` are plain member attributes set once at
    class creation, not properties: the protocol tests them on every access.
    """

    INVALID = 0
    SHARED = 1
    OWNED = 2
    MODIFIED = 3

    def __init__(self, value: int) -> None:
        self.is_valid: bool = value != 0
        self.is_dirty: bool = value in (2, 3)  # OWNED or MODIFIED


class Cache:
    """A set-associative, write-allocate cache with true-LRU replacement.

    Each set is an ``OrderedDict`` mapping block address to coherence state;
    the ordering encodes recency (last item = most recently used).
    """

    def __init__(self, config: CacheConfig, name: str = "cache") -> None:
        self.config = config
        self.name = name
        self.block_size = config.block_size
        self.n_sets = config.n_sets
        self.assoc = config.assoc
        self._sets: List["OrderedDict[int, State]"] = [
            OrderedDict() for _ in range(self.n_sets)]
        # Statistics (informational; the system models keep their own).
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # ------------------------------------------------------------------ #
    # Address helpers
    # ------------------------------------------------------------------ #
    def block_of(self, addr: int) -> int:
        """Block base address containing byte address ``addr``."""
        return addr - (addr % self.block_size)

    def _set_index(self, block: int) -> int:
        return (block // self.block_size) % self.n_sets

    # ------------------------------------------------------------------ #
    # Lookup / fill / invalidate
    # ------------------------------------------------------------------ #
    def lookup(self, block: int, touch: bool = True) -> State:
        """Return the state of ``block`` (INVALID if absent).

        When ``touch`` is true and the block is present, it is promoted to
        most-recently-used.
        """
        cache_set = self._sets[self._set_index(block)]
        state = cache_set.get(block)
        if state is None:
            self.misses += 1
            return State.INVALID
        self.hits += 1
        if touch:
            cache_set.move_to_end(block)
        return state

    def peek(self, block: int) -> State:
        """Like :meth:`lookup` but without updating LRU or statistics."""
        cache_set = self._sets[self._set_index(block)]
        return cache_set.get(block, State.INVALID)

    def fill(self, block: int, state: State) -> Optional[Tuple[int, State]]:
        """Insert ``block`` with ``state``, evicting the LRU victim if needed.

        Returns ``(victim_block, victim_state)`` if an eviction occurred,
        otherwise ``None``.  Filling a block already present simply updates
        its state and recency.
        """
        if not state.is_valid:
            raise ValueError("cannot fill a block in INVALID state")
        cache_set = self._sets[self._set_index(block)]
        if block in cache_set:
            cache_set[block] = state
            cache_set.move_to_end(block)
            return None
        victim: Optional[Tuple[int, State]] = None
        if len(cache_set) >= self.assoc:
            victim_block, victim_state = cache_set.popitem(last=False)
            victim = (victim_block, victim_state)
            self.evictions += 1
        cache_set[block] = state
        return victim

    def record_hits(self, block: int, count: int) -> None:
        """Account ``count`` consecutive hits on a resident block at once.

        Equivalent to calling :meth:`lookup` ``count`` times on a block that
        is already most-recently-used: the hit counter advances by ``count``
        and the block ends up MRU.  Raises ``KeyError`` when the block is not
        resident (callers must have established residency first).
        """
        cache_set = self._sets[self._set_index(block)]
        cache_set.move_to_end(block)
        self.hits += count

    def set_state(self, block: int, state: State) -> None:
        """Change the state of a resident block (or drop it if INVALID)."""
        cache_set = self._sets[self._set_index(block)]
        if block not in cache_set:
            if state.is_valid:
                raise KeyError(f"block {block:#x} not resident in {self.name}")
            return
        if state.is_valid:
            cache_set[block] = state
        else:
            del cache_set[block]

    def invalidate(self, block: int) -> State:
        """Remove ``block`` and return its previous state."""
        cache_set = self._sets[self._set_index(block)]
        return cache_set.pop(block, State.INVALID)

    def downgrade(self, block: int) -> State:
        """Downgrade a dirty block to SHARED (remote read).  Returns the old state."""
        cache_set = self._sets[self._set_index(block)]
        old = cache_set.get(block, State.INVALID)
        if old.is_valid:
            cache_set[block] = State.SHARED
        return old

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def __contains__(self, block: int) -> bool:
        return self.peek(block).is_valid

    def __len__(self) -> int:
        return sum(len(s) for s in self._sets)

    def resident_blocks(self) -> Iterator[Tuple[int, State]]:
        for cache_set in self._sets:
            yield from cache_set.items()

    def occupancy(self) -> float:
        """Fraction of cache frames currently holding a valid block."""
        return len(self) / (self.n_sets * self.assoc)

    def stats(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "evictions": self.evictions}

    # ------------------------------------------------------------------ #
    # Snapshot / restore
    # ------------------------------------------------------------------ #
    def snapshot(self) -> Dict[str, object]:
        """Full cache state as plain (picklable, version-stable) structures.

        Resident blocks are one flat ``frames`` table of
        ``[set, position, block, state]`` rows sorted by (set, position),
        where position is the block's LRU rank within its set (0 = least
        recently used) — so :meth:`restore` reconstructs recency exactly,
        and the table's sorted-unique-rows shape lets delta checkpoints
        store just the frames an epoch actually touched
        (:func:`repro.checkpoint.delta.encode_rows`).  Geometry and the
        hit/miss/eviction counters ride along so restored statistics
        continue seamlessly.
        """
        return {
            "frames": [[index, position, int(block), int(state)]
                       for index, cache_set in enumerate(self._sets)
                       for position, (block, state)
                       in enumerate(cache_set.items())],
            "n_sets": self.n_sets,
            "assoc": self.assoc,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }

    def restore(self, state: Dict[str, object]) -> None:
        """Replace the cache contents with a :meth:`snapshot` state dict.

        The snapshot must match this cache's geometry (set count and
        associativity) and its ``frames`` rows must arrive sorted by
        (set, position) with contiguous positions — exactly what
        :meth:`snapshot` and a delta-chain fold produce; any mismatch
        raises ``ValueError`` before any state is mutated.
        """
        if int(state["n_sets"]) != self.n_sets:
            raise ValueError(
                f"snapshot has {state['n_sets']} sets, {self.name} has "
                f"{self.n_sets}")
        if int(state["assoc"]) != self.assoc:
            raise ValueError(
                f"snapshot is {state['assoc']}-way, {self.name} is "
                f"{self.assoc}-way")
        new_sets: List["OrderedDict[int, State]"] = [
            OrderedDict() for _ in range(self.n_sets)]
        for index, position, block, value in state["frames"]:
            if not 0 <= index < self.n_sets:
                raise ValueError(
                    f"snapshot frame names set {index}, {self.name} has "
                    f"{self.n_sets}")
            cache_set = new_sets[index]
            if position >= self.assoc:
                raise ValueError(
                    f"snapshot set {index} holds more than {self.assoc} "
                    f"blocks, {self.name} is {self.assoc}-way")
            if position != len(cache_set) or int(block) in cache_set:
                raise ValueError(
                    f"snapshot frames for set {index} are not contiguous "
                    f"unique (set, position) rows")
            cache_set[int(block)] = State(int(value))
        self._sets = new_sets
        self.hits = int(state["hits"])
        self.misses = int(state["misses"])
        self.evictions = int(state["evictions"])
