"""Criterion parity and golden pins for the variance ablation (ISSUE 8).

``_variance_detail`` is the paper's ablation criterion. Two guarantees:

* **Parity on constant images** — both criteria measure zero detail on
  constant content, so the full pipelines (tree, order, tokens) must be
  *identical* there, for any constant and any size.
* **Golden digests** — the variance path's leaf layouts are pinned for
  fixed seeds, exactly like the canny path in ``tests/test_golden.py``,
  so criterion refactors cannot drift it unnoticed.
"""

import hashlib

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import generate_wsi
from repro.patching import AdaptivePatcher, APFConfig
from repro.patching.adaptive import _variance_detail


def _digest(*arrays) -> str:
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str(a.shape).encode())
        h.update(a.dtype.str.encode())
        h.update(a.tobytes())
    return h.hexdigest()


#: Morton-sorted leaf layout of the variance-criterion build_tree for
#: generate_wsi(64, seed), APFConfig(patch_size=4, split_value=8.0,
#: criterion="variance"). Regenerate with _digest(ys, xs, sizes, depths).
VARIANCE_GOLDEN = {
    0: "73afd7b98b9bd1698ef2a1c9dc05779a",
    1: "d1f76a50a398fe91f4f3642ad0d86cd8",
    2: "05b7437d8a8b94ec4e1c83c2e4ec9032",
}


def _patcher(criterion):
    return AdaptivePatcher(APFConfig(patch_size=4, split_value=8.0,
                                     criterion=criterion))


class TestConstantImageParity:
    @given(st.floats(0.0, 1.0), st.sampled_from([16, 32, 64]))
    @settings(max_examples=25, deadline=None)
    def test_property_identical_pipelines_on_constant_images(self, c, z):
        img = np.full((z, z), c)
        canny = _patcher("canny")(img)
        var = _patcher("variance")(img)
        assert len(canny) == len(var) == 1          # one root leaf each
        np.testing.assert_array_equal(canny.ys, var.ys)
        np.testing.assert_array_equal(canny.xs, var.xs)
        np.testing.assert_array_equal(canny.sizes, var.sizes)
        np.testing.assert_array_equal(canny.patches, var.patches)

    def test_both_detail_maps_are_zero_on_constant_content(self):
        img = np.full((32, 32), 0.7)
        np.testing.assert_array_equal(_patcher("canny").detail_map(img), 0.0)
        np.testing.assert_array_equal(
            _patcher("variance").detail_map(img), 0.0)

    def test_variance_detail_is_translation_invariant_on_flat(self):
        np.testing.assert_array_equal(
            _variance_detail(np.full((16, 16), 0.2)),
            _variance_detail(np.full((16, 16), 0.9)))


class TestVarianceGolden:
    def test_leaf_layouts_match_golden(self):
        """Regenerate: _digest(ys, xs, sizes, depths) of the Morton-sorted
        variance-criterion build_tree for generate_wsi(64, seed)."""
        for seed, expected in VARIANCE_GOLDEN.items():
            leaves = _patcher("variance").build_tree(
                generate_wsi(64, seed=seed).image).sorted_by_morton()
            got = _digest(leaves.ys, leaves.xs, leaves.sizes, leaves.depths)
            assert got == expected, (
                f"variance-path quadtree changed for seed {seed} — if "
                f"intentional, update VARIANCE_GOLDEN (new digest {got})")

    def test_variance_path_still_differs_from_canny_on_texture(self):
        # Sanity: the golden pins are not vacuous — on textured content the
        # two criteria genuinely produce different partitions somewhere.
        diff = 0
        for seed in VARIANCE_GOLDEN:
            img = generate_wsi(64, seed=seed).image
            a = _patcher("canny")(img)
            b = _patcher("variance")(img)
            diff += int(len(a) != len(b) or not np.array_equal(a.ys, b.ys))
        assert diff > 0
