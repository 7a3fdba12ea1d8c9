"""Versioned, compressed on-disk encoding of system snapshots.

A checkpoint file holds one gzip-compressed pickle of a plain-structure
payload::

    {"format_version": 1,
     "params": {...},        # the CheckpointStore key that owns this file
     "epoch": 7,             # state after replaying epochs [0, 7)
     "state": {...}}         # a system model's snapshot() dict

The ``state`` dicts come from the ``snapshot()`` methods of the memory
models (:class:`~repro.mem.multichip.MultiChipSystem`,
:class:`~repro.mem.singlechip.SingleChipSystem`) and the prefetchers; they
contain only builtin containers and scalars, so the pickle payload is stable
across refactors of the model classes.  Bump
:data:`CHECKPOINT_FORMAT_VERSION` whenever the payload layout or any
``snapshot()`` schema changes incompatibly — the store namespaces entries by
this version (and the package version), so old checkpoints are orphaned
rather than restored into incompatible models.

gzip frames are written with ``mtime=0`` so encoding the same state twice
produces byte-identical files (checkpoints written by a rerun or a parallel
worker race benignly).
"""

from __future__ import annotations

import gzip
import hashlib
import pickle
from typing import Any, Dict, Tuple

#: Bump when the checkpoint payload layout (or any snapshot schema) changes
#: incompatibly.
CHECKPOINT_FORMAT_VERSION = 2

#: File-name suffix of one committed checkpoint.
CHECKPOINT_SUFFIX = ".ckpt.gz"

#: File-name suffix of one delta-chain manifest (JSON, referencing
#: content-addressed chunks; see :mod:`repro.checkpoint.delta`).
CHAIN_SUFFIX = ".chain.json"

#: A chain writes a ``full`` manifest every this many ``delta`` links, so
#: restoring any epoch folds a bounded number of manifests.
DELTA_FULL_EVERY = 8


class CheckpointCorruptError(RuntimeError):
    """A checkpoint file is unreadable or inconsistent with its header."""


def checkpoint_name(epoch: int) -> str:
    """File name of the checkpoint taken at epoch boundary ``epoch``."""
    if epoch < 0:
        raise ValueError("checkpoint epoch must be >= 0")
    return f"epoch-{epoch:06d}{CHECKPOINT_SUFFIX}"


def parse_checkpoint_name(name: str) -> int:
    """Epoch index encoded in a checkpoint file name, or -1 when foreign."""
    if not (name.startswith("epoch-") and name.endswith(CHECKPOINT_SUFFIX)):
        return -1
    digits = name[len("epoch-"):-len(CHECKPOINT_SUFFIX)]
    return int(digits) if digits.isdigit() else -1


def chain_name(epoch: int) -> str:
    """File name of the chain manifest at epoch boundary ``epoch``."""
    if epoch < 0:
        raise ValueError("checkpoint epoch must be >= 0")
    return f"epoch-{epoch:06d}{CHAIN_SUFFIX}"


def parse_chain_name(name: str) -> int:
    """Epoch index encoded in a chain-manifest file name, or -1 when foreign."""
    if not (name.startswith("epoch-") and name.endswith(CHAIN_SUFFIX)):
        return -1
    digits = name[len("epoch-"):-len(CHAIN_SUFFIX)]
    return int(digits) if digits.isdigit() else -1


def chunk_digest(payload: Any) -> Tuple[str, bytes]:
    """Pickle one section payload; returns ``(digest, raw pickle)``.

    The digest addresses the *uncompressed* pickle, so identical payloads
    dedupe to one chunk file regardless of when (or by which run) they were
    written.  A writer checks the digest before paying for compression.
    """
    raw = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    return hashlib.sha256(raw).hexdigest(), raw


def compress_chunk(raw: bytes) -> bytes:
    """The chunk blob of a raw pickle from :func:`chunk_digest`: the same
    deterministic gzip framing full checkpoints use (``mtime=0``, level 1).
    """
    return gzip.compress(raw, compresslevel=1, mtime=0)


def encode_chunk(payload: Any) -> Tuple[str, bytes]:
    """Serialise one section payload into ``(digest, blob)``."""
    digest, raw = chunk_digest(payload)
    return digest, compress_chunk(raw)


def decode_chunk(blob: bytes, digest: str) -> Any:
    """Decode a chunk blob, verifying it hashes to ``digest``.

    Raises :class:`CheckpointCorruptError` on a truncated frame, an
    unpicklable payload, or a digest mismatch (a torn write under the
    expected name), so chain loaders have one error to warn-and-drop on.
    """
    try:
        raw = gzip.decompress(blob)
    except (OSError, EOFError) as exc:
        raise CheckpointCorruptError(f"unreadable chunk {digest[:12]}: "
                                     f"{exc}") from exc
    actual = hashlib.sha256(raw).hexdigest()
    if actual != digest:
        raise CheckpointCorruptError(
            f"chunk content hashes to {actual[:12]}, expected {digest[:12]} "
            f"(torn or tampered write)")
    try:
        return pickle.loads(raw)
    except (pickle.UnpicklingError, EOFError, AttributeError, ImportError,
            IndexError, TypeError, ValueError) as exc:
        raise CheckpointCorruptError(f"unpicklable chunk {digest[:12]}: "
                                     f"{exc}") from exc


def encode_checkpoint(params: Dict[str, Any], epoch: int,
                      state: Dict[str, Any]) -> bytes:
    """Serialise one snapshot into a compressed checkpoint blob."""
    payload = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "params": dict(params),
        "epoch": int(epoch),
        "state": state,
    }
    raw = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    # Low compression level: checkpoint writes sit on the simulation's
    # critical path, and system snapshots compress well even at level 1.
    return gzip.compress(raw, compresslevel=1, mtime=0)


def decode_checkpoint(blob: bytes) -> Tuple[Dict[str, Any], int,
                                            Dict[str, Any]]:
    """Decode a checkpoint blob into ``(params, epoch, state)``.

    Raises :class:`CheckpointCorruptError` on any defect — truncated gzip
    frame, unpicklable payload, missing keys, or a format-version mismatch —
    so callers have exactly one error to turn into a warn-and-drop.
    """
    try:
        payload = pickle.loads(gzip.decompress(blob))
        version = int(payload["format_version"])
        params = dict(payload["params"])
        epoch = int(payload["epoch"])
        state = payload["state"]
    except (OSError, EOFError, KeyError, TypeError, ValueError,
            pickle.UnpicklingError, AttributeError, ImportError,
            IndexError) as exc:
        raise CheckpointCorruptError(
            f"unreadable checkpoint payload: {exc}") from exc
    if version != CHECKPOINT_FORMAT_VERSION:
        raise CheckpointCorruptError(
            f"checkpoint has format version {version}, expected "
            f"{CHECKPOINT_FORMAT_VERSION}")
    if not isinstance(state, dict):
        raise CheckpointCorruptError(
            f"checkpoint state is {type(state).__name__}, expected dict")
    return params, epoch, state
