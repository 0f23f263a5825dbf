"""Golden digests of the sparsity fast path on a seeded virtual slide.

Streams the 16 tiles of a seeded 512² ``VirtualWSISource`` (Hilbert
order, two tiles per ``predict_batch``) through a small ``mode="auto"``
predictor and pins the sha256 of every tile's probability map plus the
runtime's counters. The bucket (16) makes some tiles short-circuit and
others tie back to dense, so both plans, the table lookups and both
seeding paths are covered. A refactor of ``repro.sparse`` that changes a
decision, a table row or a single output bit fails here.

Regenerate (only for an intentional change, explained in the commit)::

    PYTHONPATH=src python -c "from tests.sparse.test_golden import \\
        _stream; import pprint; pprint.pprint(_stream())"
"""

import hashlib

import numpy as np

from repro.models import ViTSegmenter
from repro.pipeline import PatchPipeline
from repro.serve import Predictor
from repro.sparse import SparsityConfig
from repro.stream import VirtualWSISource, plan_scene

RES, TILE, BUCKET = 512, 128, 16

TILE_GOLDEN = [
    "4aae8325a0c87aacc0556e07c71e7ca11dfabb2565e281f07baa64687b288076",
    "ae0c06f9e565b46eab4d3364591a5969b2ef0eb96cfbc9bff79d33bb4a6a482f",
    "017c55b26030785440ca9a626588171a8b7e07b985cd1bcb2c62196493b874b0",
    "170ee1d0b507eb2cb9920fe4957d75c6c0ba17ec7dcf7bdcef88684ebac06299",
    "794ab7e0ccc00d881fd492df65564cced9032b06da6bce028a4e0cc685097f11",
    "4f1cfc22c89464f53c6d28fce46eb6775c146f19c31cfd45ff43475c5588ecb6",
    "b70059396efdf2deb56eedc7fcd3edc7eda30cf98f99839258b3cfe392e77e50",
    "4994e683705584a10f51e0674ef9e1d2742d9ae95e1ada1cc1f064c1e0ec7b47",
    "7f4c2db996c31e9e18c51ea61fffc91b6c7cc72e6155e4c087e9d0e699343b07",
    "05460c456aab73f6fc1d78ea9728e47f161ec5971a69f920996c4b63cd3869bc",
    "4d90bf877090bdf96c3a6a67f002c4de3941d08d1b9d7098c1179974b43d41a7",
    "45ae0ffc1fb2a0bdd4eeae064862288926aa5bfcc17d98f4c2d84032160e9979",
    "0d7f08c66e531999ae242a6ecb3acdd2973379e98a493fe67a067b023ab45092",
    "a730bdd864fae5b8a66fa6a8da4b34bddab428e3af516ad416b8ae76f15516d1",
    "087882430328d686cf1f351469ef2772eab50ea6094af1a9aa7fe1da8645b7d5",
    "3f0791c28dc09e158a04d97f47e336761233158aa8de8e56cebb33ad36dd5d30",
]

COUNTERS_GOLDEN = {
    "plans_dense": 4, "plans_shortcircuit": 12,
    "table_hits": 168, "table_misses": 105, "table_seeds": 92,
    "tokens_total": 832, "tokens_skipped": 124, "tokens_merged": 13,
}


def _predictor(sparsity=None):
    model = ViTSegmenter(patch_size=4, channels=1, dim=16, depth=1, heads=2,
                         max_len=256, rng=np.random.default_rng(0))
    pipe = PatchPipeline(patch_size=4, split_value=16.0, channels=1,
                         cache_items=2)
    return Predictor(model, pipe, max_batch=2, bucket=BUCKET,
                     sparsity=sparsity)


def _tiles():
    source = VirtualWSISource(RES, seed=3, organ=2, tile=TILE)
    plan = plan_scene(source.shape, tile=TILE, order="hilbert", max_len=256)
    return [source.read_region(t.origin, t.size) for t in plan.tiles]


def _maps(predictor, tiles):
    out = []
    for i in range(0, len(tiles), 2):
        out.extend(predictor.predict_batch(tiles[i:i + 2]))
    return out


def _counters(stats):
    """The runtime's numeric counters, flat (``plans`` as ``plans_*``)."""
    flat = {k: v for k, v in stats.items() if isinstance(v, int)}
    flat.update({f"plans_{k}": v for k, v in stats["plans"].items()})
    return {k: v for k, v in flat.items()
            if not k.startswith("memo_") and k != "plans_merge"}


def _stream():
    p = _predictor(SparsityConfig(mode="auto"))
    maps = _maps(p, _tiles())
    return ([hashlib.sha256(np.ascontiguousarray(m).tobytes()).hexdigest()
             for m in maps], _counters(p.stats["sparsity"]))


class TestSparseStreamGolden:
    def test_probability_maps_and_counters_match_golden(self):
        digests, counters = _stream()
        assert digests == TILE_GOLDEN
        assert counters == COUNTERS_GOLDEN

    def test_dense_mode_equals_no_sparsity(self):
        tiles = _tiles()
        dense = _predictor(SparsityConfig(mode="dense"))
        for a, b in zip(_maps(_predictor(), tiles), _maps(dense, tiles)):
            np.testing.assert_array_equal(a, b)
        assert dense.stats["sparsity"]["plans"]["shortcircuit"] == 0
