"""The plan choice: the one short-circuit rule, checked on the runtime.

A sequence short-circuits exactly when the tokens its plan takes out of
the forward move it to a strictly smaller length bucket. Every token it
routes around carries zero Eq. 6 mass, and the reduced sequence fits the
positional table, so it is never drop-fitted.
"""

import numpy as np
import pytest

import repro.sparse.runtime as runtime
from repro.models import ViTSegmenter
from repro.pipeline import PatchPipeline
from repro.serve import Predictor
from repro.sparse import SparsityConfig
from repro.stream import VirtualWSISource, plan_scene

from .test_runtime import corner_image


def _predictor(mode="auto", bucket=4, max_len=256, split=8.0):
    model = ViTSegmenter(patch_size=4, channels=1, dim=16, depth=1, heads=2,
                         max_len=max_len, rng=np.random.default_rng(1))
    pipe = PatchPipeline(patch_size=4, split_value=split, channels=1,
                         cache_items=8)
    return Predictor(model, pipe, max_batch=3, bucket=bucket,
                     sparsity=SparsityConfig(mode=mode))


def _record(p, monkeypatch):
    """Log ``(full sequence, candidate plan or None, node)`` per prepare."""
    formed, log = [], []
    real_plan, real_prepare = runtime.shortcircuit_plan, p.sparsity.prepare

    def spy_plan(*args):
        formed.append(real_plan(*args))
        return formed[-1]

    def spy_prepare(node):
        formed.clear()
        full = node.seq
        real_prepare(node)
        log.append((full, formed[0] if formed else None, node))

    monkeypatch.setattr(runtime, "shortcircuit_plan", spy_plan)
    monkeypatch.setattr(p.sparsity, "prepare", spy_prepare)
    return log


def _run_one(img, monkeypatch, **kwargs):
    """``(predictor, full sequence, candidate plan, node)`` for one image."""
    p = _predictor(**kwargs)
    log = _record(p, monkeypatch)
    p.predict_image(img)
    assert len(log) == 1
    return (p, *log[0])


def _half_flat():
    """The positional-table case: more tokens than ``max_len=16`` holds."""
    img = np.random.default_rng(0).random((64, 64))
    img[32:, :] = 0.25
    return img


def _slide_tiles():
    source = VirtualWSISource(512, seed=3, organ=2, tile=128)
    plan = plan_scene(source.shape, tile=128, order="hilbert", max_len=256)
    return [source.read_region(t.origin, t.size) for t in plan.tiles]


CASES = {
    "corner": (dict(), [corner_image(seed=s) for s in range(3)]),
    "coarse_bucket": (dict(bucket=256), [corner_image()]),
    "all_detail": (dict(), [np.random.default_rng(4).random((32, 32))]),
    "positional_table": (dict(max_len=16), [_half_flat()]),
    "slide": (dict(bucket=16, split=16.0), _slide_tiles()),
}


def _routed_around(plan) -> np.ndarray:
    """Full-sequence tokens whose own row is not in the reduced forward."""
    kept = np.zeros(len(plan.rows), dtype=bool)
    rows = plan.rows
    _, first = np.unique(rows, return_index=True)
    kept[first[rows[first] >= 0]] = True
    return np.flatnonzero(~kept)


@pytest.mark.parametrize("case", sorted(CASES))
def test_shortcircuits_exactly_when_the_bucket_shrinks(case, monkeypatch):
    kwargs, images = CASES[case]
    p = _predictor(**kwargs)
    log = _record(p, monkeypatch)
    for img in images:
        p.predict_image(img)
    assert len(log) == len(images)
    bucket = p.bucket_length
    for full, cand, node in log:
        rule = cand is not None \
            and bucket(len(cand.reduced_seq)) < bucket(len(full))
        assert (node.sparse is not None) == rule
        if not rule:
            assert node.seq is full
            continue
        assert node.sparse is cand and node.seq is cand.reduced_seq
        routed = _routed_around(cand)
        assert len(routed) == len(full) - len(cand.reduced_seq) > 0
        assert (full.details[routed] == 0.0).all()
        assert len(cand.reduced_seq) <= bucket(len(cand.reduced_seq)) \
            < p.max_len
    counts = p.stats["sparsity"]["plans"]
    assert counts["shortcircuit"] == sum(n.sparse is not None
                                         for _, _, n in log)
    assert counts["dense"] == len(log) - counts["shortcircuit"]


def test_cases_cover_both_verdicts(monkeypatch):
    verdicts = set()
    for kwargs, images in CASES.values():
        p = _predictor(**kwargs)
        log = _record(p, monkeypatch)
        for img in images:
            p.predict_image(img)
        verdicts.update((cand is not None, node.sparse is not None)
                        for _, cand, node in log)
    # no candidate, a candidate that ties back to dense, a short-circuit
    assert verdicts == {(False, False), (True, False), (True, True)}


def test_positional_table_case_exceeds_the_table():
    p = _predictor(max_len=16)
    seq = p.pipeline.process([_half_flat()], None)[0]
    assert len(seq) > p.max_len


class TestDerivedShape:
    def test_bucketed_lengths_cost_the_same(self, monkeypatch):
        # The rule reads lengths only through the bucket: a reduction that
        # stays inside the full length's bucket compiles the same signature.
        p, full, cand, node = _run_one(corner_image(), monkeypatch, bucket=16)
        b = p.bucket_length
        assert b(3) == b(16) and b(17) > b(16)
        assert len(cand.reduced_seq) < len(full)
        assert b(len(cand.reduced_seq)) == b(len(full))
        assert node.sparse is None and node.seq is full


class TestAutoPolicy:
    def test_all_detail_sequence_runs_dense(self, monkeypatch):
        img = np.random.default_rng(4).random((32, 32))
        p, full, cand, node = _run_one(img, monkeypatch)
        assert cand is None                      # no background to plan
        assert node.sparse is None and node.seq is full
        assert p.stats["sparsity"]["last_decision"]["plan"] == "dense"

    def test_all_background_sequence_shortcircuits(self, monkeypatch):
        p, full, cand, node = _run_one(corner_image(), monkeypatch)
        assert node.sparse is cand and node.seq is cand.reduced_seq
        # Only zero-mass tokens leave, and the bucket strictly shrinks.
        assert (full.details[_routed_around(cand)] == 0.0).all()
        b = p.bucket_length
        assert b(len(cand.reduced_seq)) < b(len(full))
        assert p.stats["sparsity"]["last_decision"]["plan"] == "shortcircuit"

    def test_same_bucket_savings_tie_goes_to_dense(self, monkeypatch):
        # One 256-bucket: removing tokens saves nothing, so dense it is.
        p, full, cand, node = _run_one(corner_image(), monkeypatch,
                                       bucket=256)
        assert cand is not None and len(cand.reduced_seq) < len(full)
        assert node.sparse is None and node.seq is full
        assert p.stats["sparsity"]["plans"] == {"dense": 1,
                                                "shortcircuit": 0}


class TestForcedModes:
    def test_forced_dense_ignores_savings(self, monkeypatch):
        p = _predictor(mode="dense")
        log = _record(p, monkeypatch)
        for img in [corner_image(seed=s) for s in range(3)]:
            p.predict_image(img)
        b = p.bucket_length
        # The same plans auto would take are formed, and never taken.
        assert any(cand is not None
                   and b(len(cand.reduced_seq)) < b(len(full))
                   for full, cand, _ in log)
        assert all(node.sparse is None for _, _, node in log)
        assert p.stats["sparsity"]["table_seeds"] > 0
