"""The sharer directory always equals actual cache residency.

Both system models keep ``block -> sharer bitmask`` as derived state.  The
oracle here recomputes it the slow way — probing every node's caches for
every candidate block, as the broadcast protocol did — and the tests demand
equality after every single access of random streams on a shrunken
geometry (so L1 and L2 evictions are constant), and after ``restore()`` of a
mid-stream snapshot.
"""

from __future__ import annotations

import random
from typing import Dict, List

import pytest

from repro.mem import Access, AccessKind, FunctionRef
from repro.mem.config import scaled_config
from repro.mem.directory import nodes_of
from repro.mem.multichip import MultiChipSystem
from repro.mem.singlechip import SingleChipSystem
from repro.trace.format import ColumnarChunk

BLOCK = 64
FN = FunctionRef(name="fn", module="mod", category="Kernel - other activity")
#: Scale that shrinks the L1 to one 2-way set and the L2 to two 16-way sets.
TINY_SCALE = 4096


def node_caches(system) -> List[List]:
    """Each node's tracked caches: L1 and L2 per node, or the L1s alone."""
    if isinstance(system, MultiChipSystem):
        return [[l1, l2] for l1, l2 in zip(system.l1s, system.l2s)]
    return [[l1] for l1 in system.l1s]


def recomputed_directory(system) -> Dict[int, int]:
    """Residency by probing every node's caches for every candidate block."""
    per_node = node_caches(system)
    candidates = set(system._sharers)
    for caches in per_node:
        for cache in caches:
            candidates.update(block for block, _ in cache.resident_blocks())
    directory = {}
    for block in candidates:
        mask = 0
        for node, caches in enumerate(per_node):
            if any(cache.peek(block).is_valid for cache in caches):
                mask |= 1 << node
        if mask:
            directory[block] = mask
    return directory


def assert_directory_exact(system) -> None:
    assert system._sharers == recomputed_directory(system)


def random_stream(rng: random.Random, n: int, n_cpus: int,
                  n_blocks: int) -> List[Access]:
    """Reads, ifetches, writes, DMA and copy-out writes, some multi-block."""
    out = []
    for _ in range(n):
        roll = rng.random()
        addr = rng.randrange(n_blocks) * BLOCK + rng.randrange(BLOCK)
        size = rng.choice((4, 8, 8, 8, 2 * BLOCK, 5 * BLOCK))
        if roll < 0.05:
            out.append(Access(cpu=-1, addr=addr, size=size,
                              kind=AccessKind.DMA_WRITE, icount=0))
            continue
        cpu = rng.randrange(n_cpus)
        if roll < 0.10:
            kind = AccessKind.COPYOUT_WRITE
        elif roll < 0.30:
            kind = AccessKind.WRITE
        elif roll < 0.40:
            kind = AccessKind.IFETCH
        else:
            kind = AccessKind.READ
        out.append(Access(cpu=cpu, addr=addr, size=size, kind=kind, fn=FN,
                          thread=cpu, icount=rng.randrange(8)))
    return out


def make(organisation: str, n_cpus: int):
    factory = (MultiChipSystem if organisation == "multi-chip"
               else SingleChipSystem)
    return factory(scaled_config(n_cpus=n_cpus, scale=TINY_SCALE))


CASES = [("multi-chip", 4), ("multi-chip", 16), ("single-chip", 4)]


@pytest.mark.parametrize("organisation,n_cpus", CASES)
@pytest.mark.parametrize("seed", range(2))
def test_directory_exact_after_every_access(organisation, n_cpus, seed):
    rng = random.Random(seed)
    system = make(organisation, n_cpus)
    stream = random_stream(rng, n=1000, n_cpus=n_cpus, n_blocks=96)
    max_sharers = 0
    for access in stream:
        system.process(access)
        assert_directory_exact(system)
        max_sharers = max([max_sharers] + [
            len(nodes_of(mask)) for mask in system._sharers.values()])
    # The stream really did evict and share.
    assert sum(cache.evictions for caches in node_caches(system)
               for cache in caches) > 100
    assert max_sharers > 1


@pytest.mark.parametrize("organisation,n_cpus", CASES)
def test_directory_exact_after_columnar_chunks(organisation, n_cpus):
    rng = random.Random(11)
    stream = random_stream(rng, n=1000, n_cpus=n_cpus, n_blocks=96)
    system = make(organisation, n_cpus)
    for start in range(0, len(stream), 100):
        system.process_chunk(
            ColumnarChunk.from_accesses(stream[start:start + 100]))
        assert_directory_exact(system)


@pytest.mark.parametrize("organisation,n_cpus", CASES)
def test_directory_rebuilt_on_restore(organisation, n_cpus):
    rng = random.Random(5)
    stream = random_stream(rng, n=1000, n_cpus=n_cpus, n_blocks=96)
    original = make(organisation, n_cpus)
    for access in stream[:500]:
        original.process(access)

    restored = make(organisation, n_cpus)
    for access in random_stream(random.Random(99), n=300, n_cpus=n_cpus,
                                n_blocks=96):
        restored.process(access)  # stale state that restore must replace
    restored.restore(original.snapshot())
    assert restored._sharers == original._sharers
    assert_directory_exact(restored)

    for access in stream[500:]:
        original.process(access)
        restored.process(access)
        assert_directory_exact(restored)
    assert restored.snapshot() == original.snapshot()
    assert restored._sharers == original._sharers
