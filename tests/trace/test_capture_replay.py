"""Capture writer and trace reader: staging, commit/abort, replay fidelity."""

import json

import pytest

from repro.trace import (CaptureWriter, TraceCorruptError, TraceReader,
                         capture_stream, is_trace_dir)
from repro.trace.format import META_NAME, segment_name
from repro.workloads import create_workload

from .conftest import access_key, make_accesses

PARAMS = {"workload": "synthetic", "n_cpus": 4, "seed": 0, "size": "tiny"}


class TestCaptureWriter:
    def test_commit_publishes_trace_dir(self, tmp_path, accesses):
        dest = tmp_path / "trace"
        with CaptureWriter(dest, PARAMS, epoch_size=32) as writer:
            writer.write_all(accesses)
        assert is_trace_dir(dest)
        reader = TraceReader(dest)
        assert reader.n_accesses == len(accesses)
        assert reader.n_epochs == 4  # 100 accesses / 32 per epoch
        assert reader.params == PARAMS

    def test_nothing_published_before_commit(self, tmp_path, accesses):
        dest = tmp_path / "trace"
        writer = CaptureWriter(dest, PARAMS, epoch_size=32)
        writer.write_all(accesses)
        assert not dest.exists()
        writer.commit()
        assert is_trace_dir(dest)

    def test_abort_discards_staging(self, tmp_path, accesses):
        dest = tmp_path / "trace"
        writer = CaptureWriter(dest, PARAMS, epoch_size=32)
        writer.write_all(accesses)
        writer.abort()
        assert list(tmp_path.iterdir()) == []  # no staging dir left behind

    def test_exception_in_with_block_aborts(self, tmp_path, accesses):
        dest = tmp_path / "trace"
        with pytest.raises(RuntimeError):
            with CaptureWriter(dest, PARAMS) as writer:
                writer.write(accesses[0])
                raise RuntimeError("boom")
        assert not dest.exists()
        assert list(tmp_path.iterdir()) == []

    def test_commit_race_first_writer_wins(self, tmp_path, accesses):
        dest = tmp_path / "trace"
        first = CaptureWriter(dest, PARAMS, epoch_size=32)
        second = CaptureWriter(dest, PARAMS, epoch_size=32)
        first.write_all(accesses)
        second.write_all(accesses)
        assert first.commit() == dest
        # The loser detects the existing (identical) trace and stands down.
        assert second.commit() == dest
        assert is_trace_dir(dest)
        assert len([p for p in tmp_path.iterdir()]) == 1  # no stray staging

    def test_rejects_bad_epoch_size(self, tmp_path):
        with pytest.raises(ValueError):
            CaptureWriter(tmp_path / "t", PARAMS, epoch_size=0)

    def test_empty_stream_commits_empty_trace(self, tmp_path):
        with CaptureWriter(tmp_path / "t", PARAMS) as writer:
            pass
        reader = TraceReader(tmp_path / "t")
        assert reader.n_accesses == 0 and reader.n_epochs == 0
        assert list(reader.iter_accesses()) == []


class TestCaptureStream:
    def test_tee_yields_unchanged_and_commits(self, tmp_path, accesses):
        dest = tmp_path / "trace"
        writer = CaptureWriter(dest, PARAMS, epoch_size=16)
        seen = list(capture_stream(iter(accesses), writer))
        assert [access_key(a) for a in seen] == \
            [access_key(a) for a in accesses]
        assert is_trace_dir(dest)

    def test_abandoned_consumer_discards_capture(self, tmp_path, accesses):
        dest = tmp_path / "trace"
        writer = CaptureWriter(dest, PARAMS, epoch_size=16)
        stream = capture_stream(iter(accesses), writer)
        next(stream)
        stream.close()  # consumer walks away mid-stream
        assert not dest.exists()
        assert list(tmp_path.iterdir()) == []

    def test_source_error_discards_capture(self, tmp_path):
        def exploding():
            yield make_accesses(1)[0]
            raise RuntimeError("generator died")

        dest = tmp_path / "trace"
        writer = CaptureWriter(dest, PARAMS)
        with pytest.raises(RuntimeError):
            list(capture_stream(exploding(), writer))
        assert not dest.exists()


class TestTraceReader:
    def _capture(self, tmp_path, accesses, epoch_size=32):
        dest = tmp_path / "trace"
        with CaptureWriter(dest, PARAMS, epoch_size=epoch_size) as writer:
            writer.write_all(accesses)
        return TraceReader(dest)

    def test_replay_identical(self, tmp_path, accesses):
        reader = self._capture(tmp_path, accesses)
        assert [access_key(a) for a in reader.iter_accesses()] == \
            [access_key(a) for a in accesses]

    def test_epoch_random_access(self, tmp_path, accesses):
        reader = self._capture(tmp_path, accesses, epoch_size=32)
        chunk = reader.epoch(1)
        assert chunk.epoch == 1
        assert [access_key(a) for a in chunk] == \
            [access_key(a) for a in accesses[32:64]]
        with pytest.raises(IndexError):
            reader.epoch(reader.n_epochs)
        with pytest.raises(IndexError):
            reader.epoch(-1)

    def test_iter_epochs_range(self, tmp_path, accesses):
        reader = self._capture(tmp_path, accesses, epoch_size=32)
        middle = list(reader.iter_epochs(1, 3))
        assert [c.epoch for c in middle] == [1, 2]

    def test_instructions_match_recordable_total(self, tmp_path, accesses):
        reader = self._capture(tmp_path, accesses)
        expected = sum(a.icount for a in accesses if a.cpu >= 0)
        assert reader.instructions == expected

    def test_missing_meta_raises(self, tmp_path):
        with pytest.raises(TraceCorruptError):
            TraceReader(tmp_path)

    def test_corrupt_meta_raises(self, tmp_path, accesses):
        reader = self._capture(tmp_path, accesses)
        (reader.path / META_NAME).write_text("{ not json")
        with pytest.raises(TraceCorruptError):
            TraceReader(reader.path)

    def test_future_format_version_rejected(self, tmp_path, accesses):
        reader = self._capture(tmp_path, accesses)
        meta_path = reader.path / META_NAME
        data = json.loads(meta_path.read_text())
        data["format_version"] = 999
        meta_path.write_text(json.dumps(data))
        with pytest.raises(TraceCorruptError, match="format version"):
            TraceReader(reader.path)

    # The leaked handle surfaces when it is garbage-collected, as an
    # unraisable ResourceWarning; both filters turn it into a failure.
    @pytest.mark.filterwarnings("error::ResourceWarning")
    @pytest.mark.filterwarnings(
        "error::pytest.PytestUnraisableExceptionWarning")
    def test_truncated_segment_detected(self, tmp_path, accesses):
        reader = self._capture(tmp_path, accesses, epoch_size=32)
        seg = reader.path / segment_name(0)
        seg.write_bytes(seg.read_bytes()[:20])
        with pytest.raises(TraceCorruptError):
            reader.epoch(0)


class TestWorkloadRoundTrip:
    @pytest.mark.parametrize("name", ["Apache", "OLTP", "Qry1"])
    def test_capture_replay_identical_to_generation(self, tmp_path, name):
        fresh = list(create_workload(name, n_cpus=4, seed=13,
                                     size="tiny").iter_accesses())
        dest = tmp_path / name
        with CaptureWriter(dest, PARAMS, epoch_size=1024) as writer:
            writer.write_all(create_workload(name, n_cpus=4, seed=13,
                                             size="tiny").iter_accesses())
        replayed = list(TraceReader(dest).iter_accesses())
        assert len(replayed) == len(fresh)
        assert [access_key(a) for a in replayed] == \
            [access_key(a) for a in fresh]
