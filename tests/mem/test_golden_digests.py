"""Golden miss-trace digests: the simulated output bytes are pinned.

Every paper workload runs through both system organisations at the ``tiny``
preset, seed 42, via the columnar replay path (batched same-block runs and a
warm-up boundary that splits a chunk).  Each cell's miss records — per
context, every ``(seq, cpu, block, class, fn, supplier)`` field — and the
``stats()`` of every cache are hashed and compared with digests recorded
from the broadcast-coherence model.  Any change to the protocol
implementation that alters a single miss, supplier, hit, miss or eviction
count shows up here.

Regenerate (only for an intended behaviour change) with::

    PYTHONPATH=src python tests/mem/test_golden_digests.py
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List

import pytest

from repro.api.registry import SYSTEMS
from repro.mem.trace import iter_chunks
from repro.trace.format import ColumnarChunk
from repro.workloads import WORKLOAD_NAMES, create_workload

SIZE = "tiny"
SEED = 42
#: Chunk length of the columnar replay; small enough that every cell spans
#: several chunks and the warm-up boundary falls inside one.
CHUNK = 2048
WARMUP_FRACTION = 0.25

GOLDEN: Dict[str, Dict[str, Dict[str, str]]] = {
    "Apache": {
        "multi-chip": {
            "multi-chip":
                "07c21218b56445570103bc3231d1daa37597eae0c1f16fe3c3ba4293c66e61ea",
            "stats":
                "ae0c408b4a24e0eb2dfa342b08616d0641f8d99df4d20cb6e0b7c88c917a5d29",
        },
        "single-chip": {
            "intra-chip":
                "3e8d11b3fc9076e13f712604aa9144aa4f1f5947c736dc16e9b93ecae5addf1b",
            "single-chip":
                "d9348ae3d817fb98dbdefee42c3cfd55bdc453543b698eddb689df384a828869",
            "stats":
                "3d21c2b0d12a6c85492f2cb36d0760ef82f1a836b760e2e7bb1c8c7e209d44f9",
        },
    },
    "Zeus": {
        "multi-chip": {
            "multi-chip":
                "83efaa178f63683f66e00ab445a9a1b41fca98b0a787d7cd701b2ccc39417a08",
            "stats":
                "cc99c31391da25057afb03d6360185e5ee7bcc99c406c979c08feaf05f1f123e",
        },
        "single-chip": {
            "intra-chip":
                "15d4715b4149177cbf4bb1b2ae41eea66ac1a1b06daa522d790fc2876c706dca",
            "single-chip":
                "89b3d7071137594c1e1bc26fc786af89d215816ebe0a3ab2a3b5c88dbd9c9a9d",
            "stats":
                "55ff78e53e4356e63d5b02fbae8afc5a18af959bff00f5868f316f7a31f0d74e",
        },
    },
    "OLTP": {
        "multi-chip": {
            "multi-chip":
                "a32b1d071984c6d496336fffeb459f5c83a22bd12f3f36b5d0ce544ae3165b99",
            "stats":
                "0dd1dbf77717cad512d8223f59c4b8906c251a95bcb694d0402244ca75cca6f2",
        },
        "single-chip": {
            "intra-chip":
                "a10150e9abfa4eb306cb7e51af8a832647b3ca36890aa28d8a3d7ca0f798d06b",
            "single-chip":
                "906acdc87c83a001f52c16113ed3474e5e222f87d00510c64638a90f7385fd94",
            "stats":
                "32276aa65e0c633eeafc661d850416f3b7de4afa26d52fd1d44d8ad74d57723b",
        },
    },
    "Qry1": {
        "multi-chip": {
            "multi-chip":
                "ecaab0b1e10061e39942d0f3cdb31d582af20cf8bd8683aecd526c60a0861e28",
            "stats":
                "edbd466c653da8bb36d0ccf5bb8eb98612688c163b8a985031f9ef9999046b12",
        },
        "single-chip": {
            "intra-chip":
                "c2fb82c3c2e531b1219f892dbac4a6b64aea69043f3f694a8643346622fb47f2",
            "single-chip":
                "3be61cabc83ecd50e91cfd7014f631bbecfae4884bf0e6387e9a36b23da30e97",
            "stats":
                "cc733201eb43ec4d861744a0151b5a89c0af7ffa575e161f7771edbf800fd8df",
        },
    },
    "Qry2": {
        "multi-chip": {
            "multi-chip":
                "9e1c6e1855e21be151a22b9428815a3e86c84a45471f53608b9dc4e766c3cf31",
            "stats":
                "bf6c1c55c0d35f90da8132a06500249481338ba83ee7cdbb2367e6bd86ab2fe1",
        },
        "single-chip": {
            "intra-chip":
                "6062faa013c863a6a0b6cbe1424fca00453c19cb328fa79ed35f8d6d808c6c8c",
            "single-chip":
                "1f6dc4e6eeacfe48e8be56f67e4b2fb1feee6d7a7f29d6f9a45b3a928854ffb9",
            "stats":
                "ca55bf599c7762120838fa5d0e95825cceb134e4e19843a822375ff0e3401111",
        },
    },
    "Qry17": {
        "multi-chip": {
            "multi-chip":
                "1644b844fd7e9f58d7c2025d2eb9f620f5879d5ec8d39a7eb91602b5632104de",
            "stats":
                "7b0ea7199c49203cbf00969fca178914f465fed4650cb6c596eec5c610a1b568",
        },
        "single-chip": {
            "intra-chip":
                "d062a8bd1a32bee86ac6a8cc198effa38ae0067febc81dd3d0c8b8b46f4128e3",
            "single-chip":
                "5c106368f020961d79b059a1d0edc6dedc89ee1b7445739d8c37ab41bbd33be6",
            "stats":
                "5ebe93994935cd68fcbd52b973a4ae8ab29631d3620fceae7d42101909ec21e8",
        },
    },
}


def _sha(rows: object) -> str:
    blob = json.dumps(rows, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def _caches(system) -> List:
    caches = list(system.l1s)
    caches += getattr(system, "l2s", [])
    if hasattr(system, "l2"):
        caches.append(system.l2)
    return caches


def cell_digests(workload: str, organisation: str) -> Dict[str, str]:
    """sha256 per miss-trace context plus one over every cache's stats."""
    factory = SYSTEMS.get(organisation)
    accesses = list(create_workload(workload, n_cpus=factory.n_cpus,
                                    seed=SEED, size=SIZE).iter_accesses())
    system = factory()
    system.run_chunks(
        (ColumnarChunk.from_accesses(chunk)
         for chunk in iter_chunks(iter(accesses), CHUNK)),
        warmup=int(len(accesses) * WARMUP_FRACTION))
    digests = {
        context: _sha([trace.instructions] + [
            [r.seq, r.cpu, r.block, int(r.miss_class),
             [r.fn.name, r.fn.module, r.fn.category], r.supplier]
            for r in trace])
        for context, trace in sorted(system.miss_traces().items())}
    digests["stats"] = _sha([[cache.name, cache.stats()]
                             for cache in _caches(system)])
    return digests


ORGANISATIONS = ("multi-chip", "single-chip")


@pytest.mark.parametrize("organisation", ORGANISATIONS)
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_golden_digests(workload, organisation):
    assert cell_digests(workload, organisation) == \
        GOLDEN[workload][organisation]


if __name__ == "__main__":  # pragma: no cover - regeneration helper
    table = {workload: {organisation: cell_digests(workload, organisation)
                        for organisation in ORGANISATIONS}
             for workload in WORKLOAD_NAMES}
    print(json.dumps(table, indent=4, sort_keys=True))
