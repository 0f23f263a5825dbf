"""The module attributes the repository benchmark (``perfbench/``) wraps by
name to time a layer.

``perfbench`` replaces each attribute with a timed wrapper. A refactor that
calls around one (a direct import, a renamed helper) raises no error; the
layer's metric just reads 0. This pins that every wrapped site is the
object the code path really calls.
"""

import numpy as np

import repro.pipeline.engine as pipeline_engine
import repro.serve.engine as serve_engine
import repro.serve.predictor as serve_predictor
import repro.serve.scheduler as serve_scheduler
import repro.stream.runner as stream_runner
from repro.data import SyntheticPAIP
from repro.models.vit import ViTSegmenter
from repro.pipeline import PatchPipeline
from repro.serve import InferenceEngine, Predictor, TileNode


def _counting(monkeypatch, owner, attr, calls):
    real = getattr(owner, attr)

    def counted(*args, **kwargs):
        calls[attr] = calls.get(attr, 0) + 1
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, attr, counted)


def test_wrapped_sites_are_on_the_code_path(monkeypatch):
    model = ViTSegmenter(patch_size=4, channels=1, dim=16, depth=1, heads=2,
                         max_len=256, rng=np.random.default_rng(1))
    pipe = PatchPipeline(patch_size=4, split_value=8.0, channels=1,
                         cache_items=8)
    pred = Predictor(model, pipe, max_batch=2, bucket=16)
    ds = SyntheticPAIP(64, 3)
    imgs = [ds[i].image for i in range(3)]
    # perfbench also wraps the runner's alias and imports the predictor's,
    # though no code path calls class_map through either
    assert stream_runner.class_map is serve_scheduler.class_map
    assert serve_predictor.class_map is serve_scheduler.class_map
    calls = {}
    _counting(monkeypatch, serve_scheduler, "class_map", calls)
    _counting(monkeypatch, pipeline_engine, "content_key", calls)
    _counting(monkeypatch, serve_engine, "_digest", calls)
    _counting(monkeypatch, pipe, "process", calls)

    # the streaming tile reduce (``stream.class_map``)
    tile = TileNode("image", pred.sequence_nodes(
        pred.tile_sequences(imgs[0], "image", keys=[object()])))
    pred.reduce_tile(tile)
    assert calls == {"process": 1, "class_map": 1}

    # a pipeline call without keys digests its images (``pipeline.digest``)
    pipe.process([imgs[1]])
    assert calls["content_key"] == 1

    # an engine submission digests its payload (``engine.digest``) and
    # preprocesses through the predictor's pipeline (``pipeline.process``)
    engine = InferenceEngine(pred, max_queue=8)
    engine.submit(imgs[2])
    engine.drain()
    assert calls["_digest"] >= 1 and calls["process"] == 3
