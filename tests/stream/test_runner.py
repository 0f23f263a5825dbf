"""Tests for the bounded-memory streaming runner: bit-identity against the
non-streamed paths, checkpoint/resume byte-identity, read-ahead, sinks, and
validation."""

import hashlib
import json
import sys
import threading

import numpy as np
import pytest

from repro.models.vit import ViTSegmenter
from repro.pipeline import PatchPipeline
from repro.serve import Predictor
from repro.serve.predictor import class_map
from repro.stream import (ArraySource, MemorySink, NpyDirectorySink,
                          StreamingRunner, VirtualWSISource, plan_scene,
                          plan_volume)

RES, TILE = 128, 32


def _model():
    return ViTSegmenter(patch_size=4, channels=1, dim=16, depth=1, heads=2,
                        max_len=256, rng=np.random.default_rng(1)).eval()


def _predictor(model=None):
    pipe = PatchPipeline(patch_size=4, split_value=8.0, channels=1,
                         cache_items=32)
    return Predictor(model if model is not None else _model(), pipe,
                     max_batch=3, bucket=16)


def _wsi(**kw):
    args = dict(seed=5, organ=2, tile=TILE)
    args.update(kw)
    return VirtualWSISource(RES, **args)


def _plan():
    return plan_scene((RES, RES, 3), tile=TILE, max_len=256)


class _InterruptedSink:
    """Forwards to a real sink, then dies after ``n`` writes (kill -9 stand-in)."""

    def __init__(self, inner, n):
        self.inner = inner
        self.left = n

    def completed(self, plan):
        return self.inner.completed(plan)

    def write(self, tile, arr):
        if self.left == 0:
            raise KeyboardInterrupt("killed mid-run")
        self.inner.write(tile, arr)
        self.left -= 1


class TestPredictorMode:
    @pytest.mark.parametrize("inflight", [1, 2])
    def test_bit_identical_to_per_tile_predict_image(self, inflight):
        src, plan = _wsi(), _plan()
        sink = MemorySink()
        report = StreamingRunner(_predictor(), max_inflight=inflight).run(
            src, plan, sink)
        assert report.tiles_run == len(plan.tiles)
        assert report.peak_inflight == inflight
        reference = _predictor()          # fresh predictor, fresh caches
        for tile in plan.tiles:
            region = src.read_region(tile.origin, tile.size)
            expected = class_map(reference.predict_image(region))
            np.testing.assert_array_equal(sink.read(tile), expected)

    def test_report_accounting(self):
        src, plan = _wsi(), _plan()
        report = StreamingRunner(_predictor(), track_memory=True).run(
            src, plan, MemorySink())
        assert report.bytes_read == RES * RES * 3 * 8
        assert report.working_set_bytes == plan.working_set_bytes()
        assert report.scene_bytes == plan.scene_bytes
        assert report.peak_traced_bytes is not None
        # bounded by the planner's per-tile model, not by the scene (the
        # scene-dominance claim only bites at gigapixel scale — the bench
        # gates it there)
        assert 0 < report.peak_traced_bytes < 4 * plan.working_set_bytes()
        assert report.seconds > 0

    @pytest.mark.parametrize("inflight", [1, 2])
    def test_lane_busy_times(self, inflight):
        src, plan = _wsi(), _plan()
        report = StreamingRunner(_predictor(), max_inflight=inflight).run(
            src, plan, MemorySink())
        assert report.worker_busy_s > 0 and report.caller_busy_s > 0
        # one lane per thread: neither lane is busy longer than the run
        assert report.worker_busy_s <= report.seconds
        assert report.caller_busy_s <= report.seconds
        assert report.worker_busy_s + report.caller_busy_s \
            <= 2 * report.seconds

    def test_memory_and_directory_sinks_agree(self, tmp_path):
        src, plan = _wsi(), _plan()
        model = _model()
        mem, disk = MemorySink(), NpyDirectorySink(tmp_path, dtype=np.uint8)
        StreamingRunner(_predictor(model)).run(src, plan, mem)
        StreamingRunner(_predictor(model)).run(src, plan, disk)
        np.testing.assert_array_equal(mem.assemble(plan), disk.assemble(plan))
        import json
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["digest"] == disk.digest(plan)
        assert len(manifest["tiles"]) == len(plan.tiles)

    def test_lossy_dtype_write_rejected(self, tmp_path):
        sink = NpyDirectorySink(tmp_path, dtype=np.uint8)
        plan = _plan()
        with pytest.raises(ValueError):
            sink.write(plan.tiles[0], np.full((TILE, TILE), 300))

    @pytest.mark.parametrize("src,value,fits", [
        (np.int64, -1, False), (np.int64, 0, True), (np.int64, 255, True),
        (np.int64, 256, False), (np.int16, -1, False), (np.int16, 256, False),
        (np.uint16, 255, True), (np.uint16, 256, False)])
    def test_integer_narrowing_checks_the_range(self, tmp_path, src, value,
                                                fits):
        # a narrowing cast is stored only if it round-trips: values
        # outside the target's range are rejected, values in it exact
        sink = NpyDirectorySink(tmp_path, dtype=np.uint8)
        tile = _plan().tiles[0]
        arr = np.zeros((TILE, TILE), dtype=src)
        arr[3, 4] = value
        if not fits:
            with pytest.raises(ValueError):
                sink.write(tile, arr)
            assert not sink.completed(_plan())
            return
        sink.write(tile, arr)
        got = sink.read(tile)
        assert got.dtype == np.uint8
        np.testing.assert_array_equal(got.astype(src), arr)

    def test_float_narrowing_rejects_fractions(self, tmp_path):
        sink = NpyDirectorySink(tmp_path, dtype=np.uint8)
        tile = _plan().tiles[0]
        with pytest.raises(ValueError):
            sink.write(tile, np.full((TILE, TILE), 0.5))
        sink.write(tile, np.full((TILE, TILE), 7.0))
        assert (sink.read(tile) == 7).all()


class TestPinnedSinkBytes:
    """Streamed sink bytes, pinned to digests recorded before the tile
    reduce painted class labels at token resolution into the sink's
    dtype: a binary and a 3-class head over an image scene, and a CT
    slab scene, into each sink kind."""

    #: sink digest (+ blake2b of the manifest's tile digests for the
    #: directory sinks), recorded with the stitched-probability reduce
    DIGESTS = {
        ("image-k1", "memory"): ["8f4fa9770d5d74ae7fc8a44ae45ada2f"],
        ("image-k3", "memory"): ["6debafa8aa42ed3474dc6ee7042c7938"],
        ("volume", "memory"): ["88498ffd0c7464cc051519b6ccf644be"],
        ("image-k1", "npy"): ["8f4fa9770d5d74ae7fc8a44ae45ada2f",
                              "2911b629d27d9829d8b0b0efbe2549f0"],
        ("image-k3", "npy"): ["6debafa8aa42ed3474dc6ee7042c7938",
                              "e40fb2a56d84deb89c2d7d1c612f79a3"],
        ("volume", "npy"): ["88498ffd0c7464cc051519b6ccf644be",
                            "204e1a949adcd0746e5943260676e6dd"],
        ("image-k1", "npy-uint8"): ["b419ca27372f78b07fafb8a100add114",
                                    "9d43f4f4d209afbe580aa6d5c811d023"],
        ("image-k3", "npy-uint8"): ["d5e9cbefc782d5eba220f6d5a54cace0",
                                    "70db27027cbb264d074b6859d0c577f5"],
        ("volume", "npy-uint8"): ["734115d06f4546dee47c6fba7903665b",
                                  "5ebb27fb2b49c3c35bdc3fc345ea5784"],
    }

    @staticmethod
    def _run(case, sink):
        if case == "volume":
            vol = np.clip(np.random.default_rng(3).random((7, 32, 32)), 0, 1)
            src, plan = ArraySource(vol, kind="volume"), plan_volume(
                vol.shape, slab=3)
            model = _model()
        else:
            src, plan = _wsi(), _plan()
            k = 3 if case == "image-k3" else 1
            model = ViTSegmenter(patch_size=4, channels=1, dim=16, depth=1,
                                 heads=2, max_len=256, out_channels=k,
                                 rng=np.random.default_rng(1)).eval()
        StreamingRunner(_predictor(model)).run(src, plan, sink)
        return plan

    @pytest.mark.parametrize("case", ["image-k1", "image-k3", "volume"])
    @pytest.mark.parametrize("kind", ["memory", "npy", "npy-uint8"])
    def test_digests_and_manifests(self, case, kind, tmp_path):
        sink = MemorySink() if kind == "memory" else NpyDirectorySink(
            tmp_path, dtype=np.uint8 if kind == "npy-uint8" else None)
        plan = self._run(case, sink)
        got = [sink.digest(plan)]
        if kind != "memory":
            manifest = json.loads((tmp_path / "manifest.json").read_text())
            assert manifest["digest"] == got[0]
            got.append(hashlib.blake2b(json.dumps(
                manifest["tiles"], sort_keys=True).encode(),
                digest_size=16).hexdigest())
        assert got == self.DIGESTS[case, kind]


class TestNoContentDigest:
    """The runner never content-hashes a streamed tile."""

    @pytest.mark.parametrize("make", [
        _wsi,
        lambda: ArraySource(_wsi(seed=6).read_region((0, 0), (RES, RES))),
    ])
    def test_stream_never_content_hashes(self, make, monkeypatch):
        src, plan = make(), _plan()
        model = _model()
        reference = _predictor(model)
        expected = [class_map(reference.predict_image(
            src.read_region(t.origin, t.size))) for t in plan.tiles]

        def refuse(image):
            raise AssertionError("a streamed tile was content-hashed")

        monkeypatch.setattr("repro.pipeline.engine.content_key", refuse)
        sink = MemorySink()
        StreamingRunner(_predictor(model)).run(src, plan, sink)
        for tile, want in zip(plan.tiles, expected):
            got = sink.read(tile)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()

    def test_slab_slices_get_distinct_keys(self):
        vol = np.clip(np.random.default_rng(3).random((7, 32, 32)), 0, 1)
        plan = plan_volume(vol.shape, slab=3)
        model = _model()
        pred = _predictor(model)
        seen = []
        process = pred.pipeline.process

        def spy(images, keys=None):
            seen.extend(keys)
            return process(images, keys)

        pred.pipeline.process = spy
        sink = MemorySink()
        StreamingRunner(pred).run(ArraySource(vol, kind="volume"), plan, sink)
        assert len(seen) == len(set(seen)) == vol.shape[0]
        reference = _predictor(model)
        for tile in plan.tiles:
            z0, d = tile.origin[0], tile.size[0]
            expected = np.stack(reference.predict_class_slices(
                [vol[i] for i in range(z0, z0 + d)]))
            np.testing.assert_array_equal(sink.read(tile), expected)


    def test_mutated_array_streams_its_new_pixels(self):
        slide = _wsi(seed=6).read_region((0, 0), (RES, RES)).copy()
        src, plan = ArraySource(slide), _plan()
        model = _model()
        pred = _predictor(model)       # its cache holds every tile's sequence
        first = MemorySink()
        StreamingRunner(pred).run(src, plan, first)
        slide[:] = _wsi(seed=7).read_region((0, 0), (RES, RES))
        again = MemorySink()
        StreamingRunner(pred).run(src, plan, again)
        reference = _predictor(model)
        changed = 0
        for tile in plan.tiles:
            want = class_map(reference.predict_image(slide[tile.slices()]))
            np.testing.assert_array_equal(again.read(tile), want)
            changed += not np.array_equal(first.read(tile), want)
        assert changed > 0


class TestCheckpointResume:
    def test_killed_run_resumes_byte_identical(self, tmp_path):
        src, plan = _wsi(), _plan()
        model = _model()
        straight = NpyDirectorySink(tmp_path / "straight")
        StreamingRunner(_predictor(model), max_inflight=1).run(
            src, plan, straight)

        resumed = NpyDirectorySink(tmp_path / "resumed")
        threads = threading.active_count()
        with pytest.raises(KeyboardInterrupt):      # killed with read-ahead on
            StreamingRunner(_predictor(model), max_inflight=2).run(
                src, plan, _InterruptedSink(resumed, 5))
        assert threading.active_count() == threads  # the worker was joined
        assert len(resumed.completed(plan)) == 5
        report = StreamingRunner(_predictor(model)).run(src, plan, resumed)
        assert report.tiles_skipped == 5
        assert report.tiles_run == len(plan.tiles) - 5
        assert resumed.digest(plan) == straight.digest(plan)
        for tile in plan.tiles:       # byte-level, not just value-level
            a = (tmp_path / "straight" / f"{tile.name}.npy").read_bytes()
            b = (tmp_path / "resumed" / f"{tile.name}.npy").read_bytes()
            assert a == b

    def test_manifest_tile_digests_hash_the_artifacts(self, tmp_path):
        """Per-tile manifest digests are the blake2b of each artifact's
        bytes, whether this sink wrote the tile or an earlier run did."""
        src, plan = _wsi(), _plan()
        model = _model()
        with pytest.raises(KeyboardInterrupt):
            StreamingRunner(_predictor(model)).run(
                src, plan, _InterruptedSink(NpyDirectorySink(tmp_path), 5))
        report = StreamingRunner(_predictor(model)).run(
            src, plan, NpyDirectorySink(tmp_path))
        assert report.tiles_skipped == 5
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        for tile in plan.tiles:
            data = np.load(tmp_path / f"{tile.name}.npy").tobytes()
            want = hashlib.blake2b(data, digest_size=16).hexdigest()
            assert manifest["tiles"][tile.name] == want

    def test_resume_false_discards_prior_tiles(self, tmp_path):
        src, plan = _wsi(), _plan()
        sink = NpyDirectorySink(tmp_path)
        runner = StreamingRunner(_predictor())
        runner.run(src, plan, sink)
        report = runner.run(src, plan, sink, resume=False)
        assert report.tiles_skipped == 0
        assert report.tiles_run == len(plan.tiles)

    def test_stale_artifacts_are_recomputed_not_trusted(self, tmp_path):
        src, plan = _wsi(), _plan()
        sink = NpyDirectorySink(tmp_path)
        # stale leftovers: wrong shape under a valid name, plus an orphaned
        # temp file from a hypothetical hard kill mid-write
        np.save(tmp_path / f"{plan.tiles[0].name}.npy",
                np.zeros((TILE // 2, TILE // 2), dtype=np.int64))
        (tmp_path / f"{plan.tiles[1].name}.12345.tmp").write_bytes(b"junk")
        assert sink.completed(plan) == set()
        assert not list(tmp_path.glob("*.tmp"))      # swept
        report = StreamingRunner(_predictor()).run(src, plan, sink)
        assert report.tiles_run == len(plan.tiles)   # stale tile recomputed
        assert sink.read(plan.tiles[0]).shape == (TILE, TILE)

    def test_wrong_dtype_artifact_not_trusted(self, tmp_path):
        plan = _plan()
        sink = NpyDirectorySink(tmp_path, dtype=np.uint8)
        np.save(tmp_path / f"{plan.tiles[0].name}.npy",
                np.zeros((TILE, TILE), dtype=np.int64))
        assert sink.completed(plan) == set()

    def test_completed_run_resumes_as_noop(self, tmp_path):
        src, plan = _wsi(), _plan()
        sink = NpyDirectorySink(tmp_path)
        runner = StreamingRunner(_predictor())
        runner.run(src, plan, sink)
        report = runner.run(src, plan, sink)
        assert report.tiles_run == 0
        assert report.tiles_skipped == len(plan.tiles)


class _FailingSource:
    """Forwards to a real source, raising on the read of tile ``k``."""

    def __init__(self, inner, plan, k):
        self.inner = inner
        self.kind, self.shape = inner.kind, inner.shape
        self.bad_origin = plan.tiles[k].origin

    def read_region(self, origin, size):
        if tuple(origin) == tuple(self.bad_origin):
            raise OSError("unreadable tile")
        return self.inner.read_region(origin, size)


class TestReadAhead:
    """The runner reads and preprocesses the next tile on a worker
    thread; outputs, counters, errors and resume must not notice."""

    @pytest.mark.parametrize("inflight", [1, 2])
    def test_read_error_surfaces_after_earlier_tiles(self, tmp_path,
                                                     inflight):
        src, plan = _wsi(), _plan()
        model = _model()
        straight = NpyDirectorySink(tmp_path / "straight")
        StreamingRunner(_predictor(model)).run(src, plan, straight)

        k = 6
        threads = threading.active_count()
        resumed = NpyDirectorySink(tmp_path / "resumed")
        with pytest.raises(OSError, match="unreadable tile"):
            StreamingRunner(_predictor(model), max_inflight=inflight).run(
                _FailingSource(src, plan, k), plan, resumed)
        assert threading.active_count() == threads
        assert resumed.completed(plan) == {t.index for t in plan.tiles[:k]}
        report = StreamingRunner(_predictor(model), max_inflight=inflight) \
            .run(src, plan, resumed)
        assert report.tiles_skipped == k
        assert resumed.digest(plan) == straight.digest(plan)
        assert threading.active_count() == threads

    def test_fast_thread_switching_keeps_bytes_and_accounting(self):
        """The worker and the caller share the report and the pipeline;
        switching threads every few bytecodes must lose no update."""
        src, plan = _wsi(), _plan()
        model = _model()
        ref = MemorySink()
        StreamingRunner(_predictor(model), max_inflight=1).run(src, plan, ref)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            sink = MemorySink()
            report = StreamingRunner(_predictor(model), max_inflight=3).run(
                src, plan, sink)
        finally:
            sys.setswitchinterval(interval)
        assert report.bytes_read == RES * RES * 3 * 8
        assert report.peak_inflight == 3
        for tile in plan.tiles:
            assert sink.read(tile).tobytes() == ref.read(tile).tobytes()


class TestVolumeStreaming:
    @pytest.mark.parametrize("inflight", [1, 2])
    def test_slab_streaming_matches_per_slab_reference(self, inflight):
        vol = np.clip(np.random.default_rng(3).random((7, 32, 32)), 0, 1)
        plan = plan_volume(vol.shape, slab=3)
        model = _model()
        sink = MemorySink()
        StreamingRunner(_predictor(model), max_inflight=inflight).run(
            ArraySource(vol, kind="volume"), plan, sink)
        reference = _predictor(model)
        for tile in plan.tiles:
            z0, d = tile.origin[0], tile.size[0]
            expected = np.stack(reference.predict_class_slices(
                [vol[i] for i in range(z0, z0 + d)]))
            np.testing.assert_array_equal(sink.read(tile), expected)


class TestValidation:
    def test_max_inflight_must_be_positive(self):
        with pytest.raises(ValueError):
            StreamingRunner(_predictor(), max_inflight=0)

    def test_kind_and_shape_mismatches(self):
        runner = StreamingRunner(_predictor())
        image_plan = _plan()
        vol = np.zeros((4, 32, 32))
        with pytest.raises(ValueError):
            runner.run(ArraySource(vol, kind="volume"), image_plan,
                       MemorySink())
        with pytest.raises(ValueError):
            runner.run(_wsi(), plan_scene((64, 64, 3), tile=TILE),
                       MemorySink())
        # volume plans must match in-plane dims too, not just slice count
        with pytest.raises(ValueError):
            runner.run(ArraySource(np.zeros((4, 64, 64)), kind="volume"),
                       plan_volume((4, 32, 32), slab=2), MemorySink())
