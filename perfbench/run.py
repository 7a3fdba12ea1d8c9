"""The repository benchmark: one spec submitted through ``repro suite``'s path.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cold --seed 42 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke        # every workload once at `tiny`

A closed loop: one client submits one experiment spec to
``Session(executor="process")`` and waits for every artifact, then submits
the next.  Each repetition runs in a fresh interpreter (``rep.py``) on a
private copy of the workload's fixture; repetitions continue while the
next is expected to end within ``--seconds`` (at least three).  See
``README.md`` for the workloads, the metrics and the correctness gate.

With ``--trace 0`` the last line of output is the end-to-end metrics; with
``--trace 1`` it is the per-layer metrics, from one more repetition
recording stage intervals plus the in-process layer ledger
(``ledger.py``).  Both forms are one JSON object::

    {"correct": true, "attempted": 12, "failed": 0, "metrics": {...}}
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from common import (DEFAULT_SEED, SMOKE_PRESET, WORKLOADS, cells,
                    mismatched_cells, spec_dict)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Fewest timed repetitions per run, however short ``--seconds`` is.
MIN_REPS = 3
#: A repetition that takes longer than this is killed and fails the run.
REP_TIMEOUT_S = 150
REFERENCE_FILE = HERE / "reference.json"

Metrics = Dict[str, Tuple[float, str]]


def _child_env() -> Dict[str, str]:
    """The environment of a repetition: this checkout's sources, no cache
    overrides inherited from the caller."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def run_rep(spec: Dict[str, Any], root: Path, fixture: Optional[Path],
            traced: bool = False) -> Dict[str, Any]:
    """One repetition in a fresh interpreter; returns its JSON record."""
    # Flush the previous repetition's writes and deletions first, so their
    # writeback does not land inside this repetition's timings.
    os.sync()
    command = [sys.executable, str(HERE / "rep.py"), "--spec",
               json.dumps(spec), "--root", str(root)]
    if fixture is not None:
        command += ["--fixture", str(fixture)]
    if traced:
        command.append("--traced")
    command += ["--spawned-at", repr(time.time())]
    # Its own session, so a timeout can kill the pool workers too.
    proc = subprocess.Popen(command, env=_child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"repetition exceeded {REP_TIMEOUT_S}s")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise SystemExit(f"repetition failed (exit {proc.returncode}):\n"
                         f"{err[-4000:]}")
    return json.loads(out.strip().splitlines()[-1])


def build_fixture(workload: str, spec: Dict[str, Any], path: Path) -> None:
    """The cache root every repetition of ``workload`` starts from, built
    by the code under test (formats may change between commits)."""
    kind = WORKLOADS[workload][2]
    if kind == "empty":
        return
    if kind == "traces":
        from repro.api.registry import SYSTEMS
        from repro.trace.store import TraceStore, trace_params
        from repro.workloads import create_workload
        store = TraceStore(path)
        streams = {(generator, SYSTEMS.get(organisation).n_cpus)
                   for generator, organisation, _ in cells(spec)}
        for generator, n_cpus in sorted(streams):
            accesses = create_workload(generator, n_cpus=n_cpus,
                                       seed=spec["seed"],
                                       size=spec["size"]).iter_accesses()
            for _ in store.capture(accesses, trace_params(
                    generator, n_cpus, spec["seed"], spec["size"])):
                pass
        return
    if kind == "bundles-removed":
        from repro.experiments.store import ResultStore
        record = run_rep(spec_dict("cold", spec["size"], spec["seed"]), path,
                         None)
        if record["errors"]:
            raise SystemExit(f"fixture run failed: {record['errors']}")
        ResultStore(path).clear()
        return
    raise ValueError(f"unknown fixture kind {kind!r}")


def committed_reference(workload: str, preset: str,
                        seed: int) -> Optional[Dict[str, Any]]:
    if seed != DEFAULT_SEED:
        return None
    references = json.loads(REFERENCE_FILE.read_text())
    return references.get(preset, {}).get(workload)


def tail(values: List[float]) -> str:
    """The highest percentile with at least ten samples above it."""
    n = len(values)
    if n < 11:
        return f"n/a (needs >= 11 samples, have {n})"
    return f"p{100.0 * (n - 10) / n:.1f}={sorted(values)[n - 11]:.4f}"


def _union(intervals: List[Tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for begin, end in sorted(intervals):
        if end > reach:
            total += end - max(begin, reach)
            reach = end
    return total


def api_metrics(traced: Dict[str, Any], untraced_wall: float) -> Metrics:
    """Scheduler-side metrics from the traced repetition."""
    from repro.api.plan import STAGE_KINDS
    intervals = traced["stage_intervals"]
    union = _union([(begin, end) for _, begin, end in intervals])
    out: Metrics = {
        "api.plan_s": (traced["plan_s"], "s"),
        "api.traced_wall_s": (traced["wall_s"], "s"),
        "api.stage_union_s": (union, "s"),
        "api.self_s": (traced["wall_s"] - union, "s"),
        "api.tracing_overhead_s": (traced["wall_s"] - untraced_wall, "s"),
        "obs.observed_costs_s": (traced["observed_costs_s"], "s"),
        "checkpoint.warm_starts": (traced["warm_starts"], "count"),
    }
    for kind in STAGE_KINDS:
        out[f"api.stage_s.{kind}"] = (sum(end - begin
                                          for k, begin, end in intervals
                                          if k == kind), "s")
    return out


def measure(workload: str, seed: int, seconds: float, trace: bool,
            preset: str, workdir: Path, min_reps: int = MIN_REPS
            ) -> Tuple[Metrics, Optional[Metrics], int, int, List[str]]:
    """Run one workload; returns (end-to-end metrics, per-layer metrics or
    None, cells attempted, cells failed, summary lines)."""
    spec = spec_dict(workload, preset, seed)
    n_cells = len(cells(spec))
    fixture: Optional[Path] = None
    if WORKLOADS[workload][2] != "empty":
        fixture = workdir / "fixture"
        build_fixture(workload, spec, fixture)

    reference = committed_reference(workload, preset, seed)
    attempted = failed = 0
    if trace or reference is None:
        import ledger
        ledger_digests, layer_ledger = ledger.replay(
            spec, str(workdir / "ledger"), full=trace)
        shutil.rmtree(workdir / "ledger")
        attempted += n_cells
        failed += sum(entry["failed"]
                      for entry in ledger_digests["cells"].values())
        if reference is None:
            reference = ledger_digests
        else:
            failed += len(mismatched_cells(ledger_digests, reference))

    # Start another repetition only while it is expected to end within
    # ``seconds`` (judged by the median repetition so far).
    reps: List[Dict[str, Any]] = []
    took: List[float] = []
    start = time.perf_counter()
    while (len(reps) < min_reps or time.perf_counter() - start
           + statistics.median(took) <= seconds):
        root = workdir / f"rep{len(reps)}"
        began = time.perf_counter()
        reps.append(run_rep(spec, root, fixture))
        took.append(time.perf_counter() - began)
        shutil.rmtree(root)
    traced = None
    if trace:
        root = workdir / "traced"
        traced = run_rep(spec, root, fixture, traced=True)
        shutil.rmtree(root)
    for record in reps + ([traced] if traced else []):
        attempted += n_cells
        failed += len(mismatched_cells(record["digests"], reference))
        for stage, error in record["errors"].items():
            print(f"stage {stage} failed: {error}", file=sys.stderr)
    # Exactly the cells of a shared-prefix group warm-start, each once.
    if traced and traced["warm_starts"] != layer_ledger.counts[
            "checkpoint.predicted_warm_starts"]:
        print(f"{traced['warm_starts']} warm starts, predicted "
              f"{layer_ledger.counts['checkpoint.predicted_warm_starts']}",
              file=sys.stderr)
        failed += n_cells

    walls = [r["wall_s"] for r in reps]
    wall = statistics.median(walls)
    setups = [r["import_s"] + r["copy_s"] + r["plan_s"] for r in reps]
    end_to_end: Metrics = {
        "wall_s": (wall, "s"),
        "accesses_per_s": (reps[0]["accesses"] / wall, "1/s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in reps),
                        "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    summary = [f"{workload} seed={seed} preset={preset}: {len(reps)} runs, "
               f"wall_s median={wall:.4f} max={max(walls):.4f} "
               f"tail {tail(walls)}; {failed}/{attempted} cells failed"]
    per_layer = None
    if trace:
        per_layer = dict(ledger.layer_metrics(layer_ledger))
        per_layer.update(api_metrics(traced, wall))
        per_layer["error_rate"] = (failed / attempted, "ratio")
    return end_to_end, per_layer, attempted, failed, summary


def _as_json(metrics: Metrics) -> Dict[str, Dict[str, Any]]:
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()}


def write_reference(workdir: Path) -> None:
    """Record the ledger's digests at the default seed as the committed
    reference, at each workload's own preset and at the smoke preset.
    Only for a change that means to alter simulated results."""
    import ledger
    references = {}
    for workload in WORKLOADS:
        for preset in (WORKLOADS[workload][3], SMOKE_PRESET):
            root = workdir / f"{preset}-{workload}"
            digests, _ = ledger.replay(spec_dict(workload, preset,
                                                 DEFAULT_SEED), str(root))
            shutil.rmtree(root)
            references.setdefault(preset, {})[workload] = digests
    REFERENCE_FILE.write_text(json.dumps(references, indent=1,
                                         sort_keys=True) + "\n")


def smoke(workdir: Path) -> int:
    """Every workload once at the smoke preset; checks every metric named
    in BENCHMARK.json is reported.  Returns the exit code."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in WORKLOADS:
        sub = workdir / workload
        end_to_end, per_layer, attempted, failed, summary = measure(
            workload, DEFAULT_SEED, 0, True, SMOKE_PRESET, sub, min_reps=1)
        shutil.rmtree(sub, ignore_errors=True)
        print("\n".join(summary))
        for group, reported in (("end_to_end", end_to_end),
                                ("per_layer", per_layer)):
            missing = [m["name"] for m in declared[group]
                       if m["name"] not in reported]
            if missing:
                problems.append(f"{workload}: {group} missing {missing}")
        if failed:
            problems.append(f"{workload}: {failed}/{attempted} cells failed")
    print(json.dumps({"smoke": "ok" if not problems else "failed",
                      "problems": problems}))
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--write-reference", action="store_true",
                        help="rewrite reference.json from the ledger")
    parser.add_argument("--workdir", default=str(ROOT / ".perfbench"),
                        help="scratch directory (default: .perfbench in "
                             "the checkout)")
    args = parser.parse_args()
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if not (args.smoke or args.write_reference) and args.workload is None:
        parser.error("--workload is required (or pass --smoke)")
    sys.path.insert(0, str(SRC))

    workdir = Path(args.workdir) / f"run-{os.getpid()}"
    workdir.mkdir(parents=True)
    # On SIGTERM unwind through the ``finally`` blocks, which kill a running
    # repetition's process group and remove the scratch directory.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    try:
        if args.smoke:
            return smoke(workdir)
        if args.write_reference:
            write_reference(workdir)
            return 0
        end_to_end, per_layer, attempted, failed, summary = measure(
            args.workload, args.seed, args.seconds, bool(args.trace),
            WORKLOADS[args.workload][3], workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("\n".join(summary))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed,
                      "metrics": _as_json(per_layer if args.trace
                                          else end_to_end)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
