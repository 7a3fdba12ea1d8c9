"""The cyclic-collector pause around backend stages and the plan scheduler."""

import gc
import multiprocessing
import os
import subprocess
import sys
import threading
import time
import weakref
from pathlib import Path

import pytest

import repro
from repro.api import (ExperimentSpec, Plan, ProcessExecutor, Session,
                       ThreadExecutor)
from repro.api import executor as executor_mod
from repro.api.executor import COLLECTOR_PAUSE, run_stage
from repro.api.plan import Stage, execute_plan

SPEC = ExperimentSpec(name="gc-pause", size="tiny", seed=42,
                      workloads=("Apache",), organisations=("multi-chip",),
                      prefetchers=(), analyses=())


@pytest.fixture(autouse=True)
def _restore_collector():
    """Each test starts with the collector on and leaves it as found."""
    was_enabled = gc.isenabled()
    gc.enable()
    try:
        yield
        assert COLLECTOR_PAUSE.depth == 0
    finally:
        if not was_enabled:
            gc.disable()


@pytest.fixture
def collections():
    """Generations of every collection that starts while the test runs."""
    started = []

    def callback(phase, info):
        if phase == "start":
            started.append(info["generation"])

    gc.callbacks.append(callback)
    try:
        yield started
    finally:
        gc.callbacks.remove(callback)


class _Node:
    pass


def _recording_stage(seen):
    def stage(params, config):
        seen.append((gc.isenabled(), COLLECTOR_PAUSE.depth))
        return "ran", None
    return stage


def _state_stage(params, config):
    return "ran", (gc.isenabled(), COLLECTOR_PAUSE.depth)


def _exploding_stage(params, config):
    raise RuntimeError("stage body failed")


def _capture_plan(n_stages):
    """A plan of independent capture stages (no analyze/render tail)."""
    plan = Plan(SPEC)
    for index in range(n_stages):
        plan.add(Stage(f"capture:s{index}", "capture", {"index": index}))
    return plan


class TestRunStage:
    def test_stage_body_sees_collector_disabled(self, monkeypatch):
        seen = []
        monkeypatch.setitem(executor_mod._STAGE_FNS, "capture",
                            _recording_stage(seen))
        assert run_stage("capture", {}, {}) == ("ran", None)
        assert seen == [(False, 1)]
        assert gc.isenabled()

    def test_enabled_before_is_restored_with_a_full_collection(
            self, monkeypatch, collections):
        monkeypatch.setitem(executor_mod._STAGE_FNS, "capture",
                            _recording_stage([]))
        run_stage("capture", {}, {})
        assert gc.isenabled()
        assert 2 in collections

    def test_disabled_by_caller_stays_disabled_without_collection(
            self, monkeypatch, collections):
        seen = []
        monkeypatch.setitem(executor_mod._STAGE_FNS, "capture",
                            _recording_stage(seen))
        gc.disable()
        run_stage("capture", {}, {})
        assert seen == [(False, 1)]
        assert not gc.isenabled()
        assert collections == []

    def test_raising_stage_restores_collector(self, monkeypatch):
        monkeypatch.setitem(executor_mod._STAGE_FNS, "capture",
                            _exploding_stage)
        with pytest.raises(RuntimeError, match="stage body failed"):
            run_stage("capture", {}, {})
        assert gc.isenabled()

    def test_unknown_kind_leaves_collector_alone(self):
        with pytest.raises(ValueError, match="no backend work function"):
            run_stage("render", {}, {})
        assert gc.isenabled()


class TestExecutePlan:
    def test_serial_stage_nests_inside_scheduler_pause(self, monkeypatch,
                                                       private_cache,
                                                       collections):
        seen = []
        monkeypatch.setitem(executor_mod._STAGE_FNS, "capture",
                            _recording_stage(seen))
        result = execute_plan(_capture_plan(2), Session(), executor="serial")
        assert result.ok
        # Depth 2: run_stage inside the scheduler's pause.
        assert seen == [(False, 2), (False, 2)]
        assert gc.isenabled()
        assert 2 in collections

    def test_nested_stage_exit_frees_its_cyclic_garbage(self, monkeypatch):
        """A serial stage runs inside the scheduler's pause; its cycles are
        freed when it returns, not when the whole plan ends."""
        refs = []

        def stage(params, config):
            node = _Node()
            node.self = node
            refs.append(weakref.ref(node))
            return "ran", None

        monkeypatch.setitem(executor_mod._STAGE_FNS, "capture", stage)
        with COLLECTOR_PAUSE:
            run_stage("capture", {}, {})
            assert refs[0]() is None
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_disabled_by_caller_stays_disabled(self, monkeypatch,
                                               private_cache, collections):
        monkeypatch.setitem(executor_mod._STAGE_FNS, "capture",
                            _recording_stage([]))
        gc.disable()
        execute_plan(_capture_plan(2), Session(), executor="serial")
        assert not gc.isenabled()
        assert collections == []

    def test_failed_stage_restores_collector(self, monkeypatch,
                                             private_cache):
        monkeypatch.setitem(executor_mod._STAGE_FNS, "capture",
                            _exploding_stage)
        result = execute_plan(_capture_plan(2), Session(), executor="serial",
                              raise_errors=False)
        assert sorted(result.errors) == ["capture:s0", "capture:s1"]
        assert gc.isenabled()

    def test_thread_plan_over_subscribed_restores_collector(self,
                                                            monkeypatch,
                                                            private_cache):
        """More concurrent stages than cores, with frequent thread switches:
        a lost update to the depth count would leave the collector off."""
        seen = []
        lock = threading.Lock()

        def stage(params, config):
            with lock:
                seen.append(gc.isenabled())
            time.sleep(0.001)
            return "ran", None

        monkeypatch.setitem(executor_mod._STAGE_FNS, "capture", stage)
        n_threads = min(32, 2 * (os.cpu_count() or 1) + 2)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        started = time.monotonic()
        try:
            result = execute_plan(_capture_plan(4 * n_threads), Session(),
                                  executor=ThreadExecutor(
                                      max_workers=n_threads))
            # The thread backend without the scheduler's outer pause: every
            # run_stage exit may be the outermost one.
            backend = ThreadExecutor(max_workers=n_threads)
            try:
                futures = [backend.submit_call(run_stage, "capture", {}, {})
                           for _ in range(4 * n_threads)]
                for future in futures:
                    assert future.result(timeout=30) == ("ran", None)
            finally:
                backend.shutdown()
        finally:
            sys.setswitchinterval(interval)
        assert time.monotonic() - started < 60
        assert result.ok and len(seen) == 8 * n_threads
        assert not any(seen)
        assert COLLECTOR_PAUSE.depth == 0
        assert gc.isenabled()

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="the pool must fork inside the pause")
    def test_process_worker_is_outermost_in_its_own_pause(self,
                                                          monkeypatch):
        """A pool forked inside the scheduler's pause: each stage in the
        worker is the outermost entry there (depth 1, not 2), and the worker
        runs with its collector on between stages."""
        monkeypatch.setitem(executor_mod._STAGE_FNS, "capture", _state_stage)
        backend = ProcessExecutor(max_workers=1)
        try:
            with COLLECTOR_PAUSE:
                states = [backend.submit_call(run_stage, "capture", {}, {})
                          .result(timeout=60) for _ in range(2)]
                between = backend.submit_call(gc.isenabled).result(timeout=60)
        finally:
            backend.shutdown()
        assert states == [("ran", (False, 1))] * 2
        assert between is True
        assert gc.isenabled()


def _child_state_after_fork():
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # pragma: no cover - runs in the child
        try:
            os.write(write_fd, f"{gc.isenabled()} {COLLECTOR_PAUSE.depth}"
                     .encode())
        finally:
            os._exit(0)
    os.close(write_fd)
    try:
        with os.fdopen(read_fd, "rb") as pipe:
            state = pipe.read().decode()
    finally:
        os.waitpid(pid, 0)
    return state


class TestFork:
    def test_child_forked_inside_pause_is_reset(self):
        with COLLECTOR_PAUSE:
            with COLLECTOR_PAUSE:
                assert not gc.isenabled()
                state = _child_state_after_fork()
            assert not gc.isenabled() and COLLECTOR_PAUSE.depth == 1
        assert state == "True 0"
        assert gc.isenabled()

    def test_child_keeps_a_caller_disabled_collector(self):
        gc.disable()
        with COLLECTOR_PAUSE:
            state = _child_state_after_fork()
        assert state == "False 0"
        assert not gc.isenabled()


@pytest.mark.parametrize("disabled", [False, True])
def test_import_leaves_collector_settings_alone(disabled):
    src = str(Path(repro.__file__).resolve().parents[1])
    code = ("import gc\n"
            f"if {disabled}: gc.disable()\n"
            "before = (gc.isenabled(), gc.get_threshold())\n"
            "import repro, repro.api, repro.api.executor\n"
            "print(before == (gc.isenabled(), gc.get_threshold()))\n")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=60,
                         check=True)
    assert out.stdout.strip() == "True"
