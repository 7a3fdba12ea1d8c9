"""Sharer directory: which nodes hold a block, as one bitmask per block.

Both system models keep a plain ``dict`` mapping a block address to a
bitmask whose bit ``i`` is set while node (or core) ``i`` holds the block in
a tracked cache.  Coherence actions then visit only the set bits instead of
probing every node's caches.  Blocks nobody holds have no entry, so the
directory never outgrows the total number of tracked cache frames.

The directory is *derived* state: it is a function of cache residency, so
snapshots leave it out and :func:`residency` rebuilds it on restore.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence

from .cache import Cache

Directory = Dict[int, int]


def nodes_of(mask: int) -> List[int]:
    """Node indices of the set bits of ``mask``, in ascending order."""
    nodes = []
    while mask:
        low = mask & -mask
        nodes.append(low.bit_length() - 1)
        mask ^= low
    return nodes


def drop_sharer(directory: Directory, block: int, node: int) -> None:
    """Clear ``node``'s bit for ``block``; forget the block once unheld."""
    mask = directory[block] & ~(1 << node)
    if mask:
        directory[block] = mask
    else:
        del directory[block]


def residency(caches_per_node: Sequence[Iterable[Cache]]) -> Directory:
    """The directory implied by cache contents.

    ``caches_per_node[i]`` lists node ``i``'s tracked caches; a block's bit
    ``i`` is set when any of them holds it.
    """
    directory: Directory = {}
    for node, caches in enumerate(caches_per_node):
        bit = 1 << node
        for cache in caches:
            for block, _ in cache.resident_blocks():
                directory[block] = directory.get(block, 0) | bit
    return directory
