"""Columnar on-disk encoding of :class:`~repro.mem.records.Access` streams.

A captured trace is a **directory** holding a JSON header plus one compressed
segment file per *epoch* (a fixed-length run of accesses):

.. code-block:: text

    <trace dir>/
        meta.json        # format version, capture params, totals, function
                         # table, per-epoch segment index
        seg-00000.npz    # parallel numpy arrays: cpu/addr/size/kind/fn/
        seg-00001.npz    #   thread/icount  (zip-deflate compressed)
        ...

Epoch segments are *self-describing* (each records its access count and
recordable instruction total in ``meta.json``), so consumers can fan work out
per-epoch — load one segment, process it, merge — without scanning the whole
trace.  Function attribution is interned: each distinct
:class:`~repro.mem.records.FunctionRef` appears once in the header table and
accesses store a small integer id.

:class:`ColumnarChunk` is the in-memory unit: parallel numpy columns plus the
function table.  Iterating one yields reconstructed ``Access`` records in
order; the columnar view additionally supports vectorised block-address
computation (``addresses >> block_bits`` over the whole column), which the
system models' chunked fast path consumes
(:meth:`repro.mem.stream.StreamingSystemMixin.process_chunk`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..mem.records import Access, AccessKind, FunctionRef

#: Bump when the on-disk trace layout changes incompatibly.
TRACE_FORMAT_VERSION = 1

#: Number of accesses per epoch segment.  Chosen so the ``small`` preset
#: (~70k accesses per workload) shards into a handful of epochs while the
#: per-segment compression ratio stays good.
DEFAULT_EPOCH_SIZE = 8192

#: Name of the trace header file inside a trace directory.
META_NAME = "meta.json"

#: Column names in serialisation order; one numpy array per column.
COLUMNS = ("cpu", "addr", "size", "kind", "fn", "thread", "icount")

#: Dtypes per column.  ``addr`` must cover the synthetic 64-bit address
#: space; the rest are small and left to the segment compressor to shrink.
COLUMN_DTYPES = {
    "cpu": np.int32,       # -1 for DMA operations
    "addr": np.uint64,
    "size": np.int64,      # bulk copies span whole pages
    "kind": np.uint8,
    "fn": np.int32,
    "thread": np.int32,
    "icount": np.int32,
}


#: ``AccessKind`` member by column value: a dict lookup, not an enum call,
#: because access reconstruction runs once per simulated access run.
_KINDS = {int(kind): kind for kind in AccessKind}


def segment_name(index: int) -> str:
    """File name of epoch segment ``index`` inside a trace directory."""
    return f"seg-{index:05d}.npz"


class FunctionTable:
    """Bidirectional interning of :class:`FunctionRef` <-> small int ids."""

    def __init__(self, functions: Optional[Sequence[FunctionRef]] = None) -> None:
        self._refs: List[FunctionRef] = list(functions or [])
        self._ids: Dict[FunctionRef, int] = {fn: i
                                             for i, fn in enumerate(self._refs)}

    def __len__(self) -> int:
        return len(self._refs)

    def intern(self, fn: FunctionRef) -> int:
        """Return the id for ``fn``, adding it to the table if new."""
        fn_id = self._ids.get(fn)
        if fn_id is None:
            fn_id = len(self._refs)
            self._ids[fn] = fn_id
            self._refs.append(fn)
        return fn_id

    def ref(self, fn_id: int) -> FunctionRef:
        """The interned :class:`FunctionRef` for ``fn_id``."""
        return self._refs[fn_id]

    # -- serialisation --------------------------------------------------- #
    def to_json(self) -> List[List[str]]:
        return [[fn.name, fn.module, fn.category] for fn in self._refs]

    @classmethod
    def from_json(cls, rows: Iterable[Sequence[str]]) -> "FunctionTable":
        return cls([FunctionRef(name=r[0], module=r[1], category=r[2])
                    for r in rows])


@dataclass
class ColumnarChunk:
    """A run of accesses as parallel numpy columns plus the function table.

    Iteration reconstructs :class:`Access` records in order; slicing with a
    ``slice`` returns a (zero-copy, numpy-view backed) sub-chunk, which is
    what lets the streaming warm-up boundary split an epoch without decoding
    it twice.
    """

    columns: Dict[str, np.ndarray]
    functions: FunctionTable
    #: Index of the epoch this chunk was decoded from (-1 when synthetic).
    epoch: int = -1

    def __post_init__(self) -> None:
        lengths = {name: len(col) for name, col in self.columns.items()}
        if len(set(lengths.values())) > 1:
            raise ValueError(f"ragged columns: {lengths}")

    def __len__(self) -> int:
        return len(self.columns["addr"])

    def __getitem__(self, item: slice) -> "ColumnarChunk":
        if not isinstance(item, slice):
            raise TypeError("ColumnarChunk only supports slice indexing")
        return ColumnarChunk(
            columns={name: col[item] for name, col in self.columns.items()},
            functions=self.functions, epoch=self.epoch)

    def __iter__(self) -> Iterator[Access]:
        ref = self.functions.ref
        cols = self.columns
        rows = zip(cols["cpu"].tolist(), cols["addr"].tolist(),
                   cols["size"].tolist(), cols["kind"].tolist(),
                   cols["fn"].tolist(), cols["thread"].tolist(),
                   cols["icount"].tolist())
        for cpu, addr, size, kind, fn_id, thread, icount in rows:
            yield Access(cpu=cpu, addr=addr, size=size,
                         kind=_KINDS[kind], fn=ref(fn_id),
                         thread=thread, icount=icount)

    def accesses_at(self, indices: np.ndarray) -> List[Access]:
        """Reconstruct only the accesses at ``indices`` (in index order).

        The batched same-block fast path needs a materialised ``Access`` for
        the *first* element of each run only (function attribution on a
        miss); gathering just those rows skips reconstructing the runs'
        tails entirely.
        """
        ref = self.functions.ref
        cols = self.columns
        rows = zip(cols["cpu"][indices].tolist(), cols["addr"][indices].tolist(),
                   cols["size"][indices].tolist(), cols["kind"][indices].tolist(),
                   cols["fn"][indices].tolist(), cols["thread"][indices].tolist(),
                   cols["icount"][indices].tolist())
        return [Access(cpu=cpu, addr=addr, size=size, kind=_KINDS[kind],
                       fn=ref(fn_id), thread=thread, icount=icount)
                for cpu, addr, size, kind, fn_id, thread, icount in rows]

    # -- vectorised views ------------------------------------------------- #
    def block_addresses(self, block_bits: int) -> np.ndarray:
        """Block index of each access's first byte (``addr >> block_bits``)."""
        return self.columns["addr"] >> np.uint64(block_bits)

    def block_spans(self, block_size: int) -> Tuple[np.ndarray, np.ndarray]:
        """(first, last) block *base addresses* spanned by each access.

        Matches the per-access arithmetic in the system models' ``process``:
        ``first = addr - addr % bs`` and ``last`` is the block base of the
        access's final byte (``size`` is clamped to at least one byte).
        """
        bits = int(block_size).bit_length() - 1
        if (1 << bits) != block_size:
            raise ValueError(f"block_size {block_size} is not a power of two")
        addr = self.columns["addr"]
        size = self.columns["size"]
        first = (addr >> np.uint64(bits)) << np.uint64(bits)
        end = addr + np.maximum(size, 1).astype(np.uint64) - np.uint64(1)
        last = (end >> np.uint64(bits)) << np.uint64(bits)
        return first, last

    def recorded_instructions(self) -> int:
        """Sum of ``icount`` over CPU-issued accesses (DMA rows excluded)."""
        mask = self.columns["cpu"] >= 0
        return int(self.columns["icount"][mask].sum())

    # -- construction ----------------------------------------------------- #
    @classmethod
    def from_accesses(cls, accesses: Iterable[Access],
                      functions: Optional[FunctionTable] = None,
                      epoch: int = -1) -> "ColumnarChunk":
        """Encode ``accesses`` into columns (interning into ``functions``)."""
        table = functions if functions is not None else FunctionTable()
        builder = ColumnBuilder(table)
        for access in accesses:
            builder.append(access)
        return cls(columns=builder.arrays(), functions=table, epoch=epoch)


class ColumnBuilder:
    """Accumulates accesses into python column lists; snapshots to numpy."""

    def __init__(self, functions: FunctionTable) -> None:
        self.functions = functions
        self._cols: Dict[str, List[int]] = {name: [] for name in COLUMNS}

    def __len__(self) -> int:
        return len(self._cols["addr"])

    def append(self, access: Access) -> None:
        cols = self._cols
        cols["cpu"].append(access.cpu)
        cols["addr"].append(access.addr)
        cols["size"].append(access.size)
        cols["kind"].append(int(access.kind))
        cols["fn"].append(self.functions.intern(access.fn))
        cols["thread"].append(access.thread)
        cols["icount"].append(access.icount)

    def arrays(self) -> Dict[str, np.ndarray]:
        return {name: np.asarray(values, dtype=COLUMN_DTYPES[name])
                for name, values in self._cols.items()}

    def clear(self) -> None:
        for values in self._cols.values():
            values.clear()


def write_segment(path: Path, columns: Dict[str, np.ndarray]) -> None:
    """Write one epoch segment as a compressed ``.npz`` file."""
    with open(path, "wb") as fh:
        np.savez_compressed(fh, **columns)


def read_segment(path: Path) -> Dict[str, np.ndarray]:
    """Read one epoch segment back into its column arrays.

    The file is opened here, not by ``np.load``: a truncated segment makes
    ``np.load`` raise after it has taken a path-opened handle, leaking it.
    """
    with open(path, "rb") as fh, np.load(fh) as npz:
        return {name: npz[name] for name in COLUMNS}


@dataclass
class TraceMeta:
    """Parsed contents of a trace directory's ``meta.json``."""

    format_version: int
    params: Dict[str, object]
    epoch_size: int
    n_accesses: int
    #: Total recordable instructions (sum of icount over CPU-issued rows).
    instructions: int
    #: Per-epoch ``{"n": ..., "instructions": ...}`` entries, in order.
    segments: List[Dict[str, int]]
    functions: FunctionTable

    @property
    def n_epochs(self) -> int:
        return len(self.segments)

    def to_json(self) -> Dict[str, object]:
        return {
            "format_version": self.format_version,
            "params": self.params,
            "epoch_size": self.epoch_size,
            "n_accesses": self.n_accesses,
            "instructions": self.instructions,
            "segments": self.segments,
            "functions": self.functions.to_json(),
        }

    @classmethod
    def from_json(cls, data: Dict[str, object]) -> "TraceMeta":
        return cls(
            format_version=int(data["format_version"]),
            params=dict(data["params"]),
            epoch_size=int(data["epoch_size"]),
            n_accesses=int(data["n_accesses"]),
            instructions=int(data["instructions"]),
            segments=list(data["segments"]),
            functions=FunctionTable.from_json(data["functions"]),
        )

    @classmethod
    def load(cls, trace_dir: Path) -> "TraceMeta":
        with open(Path(trace_dir) / META_NAME) as fh:
            return cls.from_json(json.load(fh))

    def dump(self, trace_dir: Path) -> None:
        with open(Path(trace_dir) / META_NAME, "w") as fh:
            json.dump(self.to_json(), fh)
