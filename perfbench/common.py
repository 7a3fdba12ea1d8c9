"""Definitions shared by the benchmark driver, its timed runs and its ledger.

Every workload is one :class:`repro.api.spec.ExperimentSpec` grid at the
workload's preset; the timed runs (``rep.py``) execute it through the public
``Session`` path and the layer ledger (``ledger.py``) replays the same cells
layer by layer.  Both reduce their outputs to the digests defined here, so
the driver can compare a run with the committed reference or with the
ledger.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, List, Tuple

#: Work-volume preset of the smoke run (``run.py --smoke``).
SMOKE_PRESET = "tiny"
DEFAULT_SEED = 42
SCALE = 64
ORGANISATIONS = ("multi-chip", "single-chip")
PREFETCHERS = ("temporal", "stride")
ANALYSES = ("figure2",)

#: name -> (generator workloads, warm-up fractions, fixture kind, preset).
#: ``empty``: a fresh cache root.  ``traces``: the streams captured, nothing
#: simulated.  ``bundles-removed``: a finished ``cold`` root minus its result
#: bundles, as after a result-store version bump.  ``warmup-sweep`` runs at
#: ``default``: at ``small`` an OLTP trace is about 3.4 epochs long, so for
#: many seeds the first epoch boundary lies past 30% of it and there is no
#: shared prefix to warm-start from; at ``default`` it lies near 11%.
WORKLOADS: Dict[str, Tuple[Tuple[str, ...], Tuple[float, ...], str, str]] = {
    "cold": (("Apache", "Qry1"), (0.25,), "empty", "small"),
    "warmup-sweep": (("OLTP",), (0.3, 0.5, 0.7), "traces", "default"),
    "reanalyze": (("Apache", "Qry1"), (0.25,), "bundles-removed", "small"),
}


def spec_dict(workload: str, size: str, seed: int) -> Dict[str, Any]:
    """The experiment spec one benchmark workload submits."""
    generators, warmups = WORKLOADS[workload][:2]
    return {"name": f"perfbench-{workload}", "size": size, "seed": seed,
            "workloads": list(generators),
            "organisations": list(ORGANISATIONS), "scales": [SCALE],
            "warmups": list(warmups), "prefetchers": list(PREFETCHERS),
            "analyses": list(ANALYSES)}


def cells(spec: Dict[str, Any]) -> List[Tuple[str, str, float]]:
    """The (generator, organisation, warm-up) cells of a spec."""
    return [(generator, organisation, warmup)
            for generator in spec["workloads"]
            for organisation in spec["organisations"]
            for warmup in spec["warmups"]]


def cell_id(generator: str, organisation: str, warmup: float) -> str:
    return f"{generator}/{organisation}@warmup{warmup:g}"


def sha(data: str) -> str:
    return hashlib.sha256(data.encode()).hexdigest()


def trace_digest(miss_trace: Any) -> str:
    """Digest of a miss trace: every record, its attribution and class."""
    return sha(json.dumps(miss_trace.state_dict(), sort_keys=True))


def coverage_digest(coverage: Any) -> str:
    return (f"{coverage.total_misses}/{coverage.covered_misses}/"
            f"{coverage.issued_prefetches}")


def mismatched_cells(run: Dict[str, Any], reference: Dict[str, Any]
                     ) -> List[str]:
    """Cells of ``run`` that failed or whose outputs differ from
    ``reference``.

    ``run`` and ``reference`` both hold ``cells`` (cell id -> ``failed`` flag
    plus ``traces`` and ``coverage`` digests) and ``artifacts`` (render name
    -> digest, ``None`` when the render failed).  A failed or differing
    render fails every cell, because each render reads the whole grid.
    """
    artifacts_ok = run["artifacts"] == reference["artifacts"]
    bad = []
    for cid, expected in reference["cells"].items():
        got = run["cells"].get(cid)
        if (not artifacts_ok or got is None or got["failed"]
                or got["traces"] != expected["traces"]
                or got["coverage"] != expected["coverage"]):
            bad.append(cid)
    return bad
