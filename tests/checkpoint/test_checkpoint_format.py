"""System snapshots keep their exact layout and bytes.

Derived state the system models keep for speed (the sharer directory) must
never leak into checkpoints: the snapshot key set, the restore -> snapshot
round trip and the encoded chunk bytes of a fixed mid-stream state are
pinned here.  Changing any of them requires bumping
``CHECKPOINT_FORMAT_VERSION`` and re-recording these values.
"""

import random

import pytest

from repro.checkpoint import CHECKPOINT_FORMAT_VERSION
from repro.checkpoint.format import encode_chunk

from .conftest import make_system, random_accesses

SNAPSHOT_KEYS = {
    "multi-chip": {"model", "n_cpus", "block_size", "l1s", "l2s", "history",
                   "offchip", "instructions", "recording"},
    "single-chip": {"model", "n_cpus", "block_size", "l1s", "l2",
                    "chip_history", "core_history", "offchip", "intrachip",
                    "instructions", "recording"},
}

#: sha256 of the pickled snapshot after ``_mid_stream`` (see encode_chunk).
SNAPSHOT_DIGESTS = {
    "multi-chip":
        "e2fe137acb85e950677f282495ae9869f57581a940ed142aa33322c67b40e8c2",
    "single-chip":
        "f625e6ae6362ae4d66ac5858b911f000cf79a038c5ef08f98b58cde7792cd9ea",
}


def _mid_stream(organisation):
    system = make_system(organisation)
    system.set_recording(False)
    stream = random_accesses(random.Random(3), n=600)
    for access in stream[:200]:
        system.process(access)
    system.set_recording(True)
    for access in stream[200:]:
        system.process(access)
    return system


def test_format_version_unchanged():
    assert CHECKPOINT_FORMAT_VERSION == 2


@pytest.mark.parametrize("organisation", sorted(SNAPSHOT_KEYS))
def test_snapshot_key_set(organisation):
    assert set(_mid_stream(organisation).snapshot()) == \
        SNAPSHOT_KEYS[organisation]


@pytest.mark.parametrize("organisation", sorted(SNAPSHOT_KEYS))
def test_restore_snapshot_round_trip_is_byte_identical(organisation):
    state = _mid_stream(organisation).snapshot()
    restored = make_system(organisation)
    restored.restore(state)
    assert restored.snapshot() == state
    assert encode_chunk(restored.snapshot()) == encode_chunk(state)


@pytest.mark.parametrize("organisation", sorted(SNAPSHOT_KEYS))
def test_snapshot_bytes_pinned(organisation):
    digest, _ = encode_chunk(_mid_stream(organisation).snapshot())
    assert digest == SNAPSHOT_DIGESTS[organisation]


if __name__ == "__main__":  # pragma: no cover - regeneration helper
    # PYTHONPATH=src:. python -m tests.checkpoint.test_checkpoint_format
    for name in sorted(SNAPSHOT_KEYS):
        print(name, encode_chunk(_mid_stream(name).snapshot())[0])
