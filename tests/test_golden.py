"""Golden regression tests: checked-in digests of kernel outputs.

The equivalence suites prove the *batched* engines match the *reference*
implementations — but both could drift together if a refactor changed the
reference itself. These digests pin the reference outputs for fixed seeds:
Canny edge masks, quadtree leaf layouts, and octree leaf layouts. A kernel
refactor that silently changes any output (one flipped edge pixel, one
re-ordered leaf) fails here.

If a change is *intentional* (e.g. a deliberate algorithm fix), regenerate
the digests with the snippet in each test's docstring and update the tables
in the same commit, explaining why in the commit message.
"""

import hashlib

import numpy as np

from repro.data import generate_ct_volume, generate_wsi
from repro.imaging import gaussian_blur, to_grayscale
from repro.imaging.canny import canny_edges
from repro.patching import (AdaptivePatcher, APFConfig, VolumeAPFConfig,
                            VolumetricAdaptivePatcher)


def digest(*arrays) -> str:
    """Order-, shape- and dtype-sensitive blake2b digest of arrays."""
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str(a.shape).encode())
        h.update(a.dtype.str.encode())
        h.update(a.tobytes())
    return h.hexdigest()


# Golden digests, pinned on x86_64 / numpy≥1.24. All inputs are fully
# deterministic (seeded synthetic data, integer leaf geometry, boolean edge
# masks), so these are stable across platforms unless a kernel changes.
CANNY_GOLDEN = {
    0: "943bbe44e1d6f7040c5c31379817b52f",
    1: "356a1ab1239e89effd39e2cfcaf51680",
    2: "20298dbeabf4b60038705c20dd85ea79",
}

QUADTREE_GOLDEN = {
    0: "90733a729ce48887f2f55d0a0358d6dc",
    1: "752fa938c026efc0d8e7321dfeb58e4c",
    2: "36390d1415632ab984e71ae9b37f53d9",
}

OCTREE_GOLDEN = {
    0: "17bc436d2f8c22a98846de6a9962fba3",
    1: "26b4048c78989a28a5735cd211bcc2e1",
}


class TestCannyGolden:
    def test_edge_masks_match_golden(self):
        """Regenerate: digest(canny_edges(gaussian_blur(gray, 3) * 255,
        100, 200)) for generate_wsi(64, seed)."""
        for seed, expected in CANNY_GOLDEN.items():
            g = to_grayscale(np.asarray(generate_wsi(64, seed=seed).image,
                                        dtype=np.float64))
            edges = canny_edges(gaussian_blur(g, 3) * 255.0, 100.0, 200.0)
            assert digest(edges) == expected, (
                f"Canny output changed for seed {seed} — if intentional, "
                f"update CANNY_GOLDEN (new digest {digest(edges)})")


class TestQuadtreeGolden:
    def test_leaf_layouts_match_golden(self):
        """Regenerate: digest(ys, xs, sizes, depths) of the Morton-sorted
        build_tree leaves for APFConfig(patch_size=4, split_value=8.0)."""
        for seed, expected in QUADTREE_GOLDEN.items():
            p = AdaptivePatcher(APFConfig(patch_size=4, split_value=8.0))
            leaves = p.build_tree(
                generate_wsi(64, seed=seed).image).sorted_by_morton()
            got = digest(leaves.ys, leaves.xs, leaves.sizes, leaves.depths)
            assert got == expected, (
                f"quadtree layout changed for seed {seed} — if intentional, "
                f"update QUADTREE_GOLDEN (new digest {got})")


class TestOctreeGolden:
    def test_leaf_layouts_match_golden(self):
        """Regenerate: digest(zs, ys, xs, sizes, depths) of the Morton-sorted
        build_tree leaves for VolumeAPFConfig(patch_size=4, split_value=8.0)
        on generate_ct_volume(32, 32, seed)."""
        for seed, expected in OCTREE_GOLDEN.items():
            p = VolumetricAdaptivePatcher(
                VolumeAPFConfig(patch_size=4, split_value=8.0))
            leaves = p.build_tree(
                generate_ct_volume(32, 32, seed=seed).volume
            ).sorted_by_morton()
            got = digest(leaves.zs, leaves.ys, leaves.xs, leaves.sizes,
                         leaves.depths)
            assert got == expected, (
                f"octree layout changed for seed {seed} — if intentional, "
                f"update OCTREE_GOLDEN (new digest {got})")

    def test_batched_paths_hit_the_same_goldens(self):
        """The batched engines must land on the identical golden layouts —
        ties the golden pins to the equivalence suite."""
        from repro.pipeline import BatchedVolumetricPatcher

        bp = BatchedVolumetricPatcher(
            VolumeAPFConfig(patch_size=4, split_value=8.0))
        vols = [generate_ct_volume(32, 32, seed=s).volume
                for s in sorted(OCTREE_GOLDEN)]
        for seed, tree in zip(sorted(OCTREE_GOLDEN),
                              bp.build_tree_batch(vols)):
            leaves = tree.sorted_by_morton()
            got = digest(leaves.zs, leaves.ys, leaves.xs, leaves.sizes,
                         leaves.depths)
            assert got == OCTREE_GOLDEN[seed]


#: content_key values as computed by hashing ``a.tobytes()``: hashing the
#: contiguous buffer in place must not move a single key (the engine result
#: cache and the router's rendezvous placements are keyed on them).
CONTENT_KEY_GOLDEN = {
    "float64": ((32, 32, 3), "<f8", "e1e53182d0ec9917daa240c4ce2b74a0"),
    "uint8": ((32, 32), "|u1", "2062f0ee2a955263f30507f958d21619"),
    "hw1_transposed": ((16, 24, 1), "<f8", "371ccd4fa842bde4ab90ad5b840c2003"),
    "strided_slice": ((16, 11, 3), "<f8", "9abd4acce4fdacecd1b5a5b4da30ed9c"),
}


def _content_key_inputs():
    return {
        "float64": np.random.default_rng(0).random((32, 32, 3)),
        "uint8": np.random.default_rng(1).integers(0, 256, (32, 32),
                                                   dtype=np.uint8),
        # the channel-adapted layout the pipeline hashes: (1, H, W) -> (H, W, 1)
        "hw1_transposed": np.random.default_rng(2).random(
            (1, 16, 24)).transpose(1, 2, 0),
        "strided_slice": np.random.default_rng(3).random((32, 32, 3))[::2, 1::3],
    }


class TestContentKeyGolden:
    def test_keys_match_golden(self):
        from repro.pipeline.engine import content_key
        for name, a in _content_key_inputs().items():
            assert content_key(a) == CONTENT_KEY_GOLDEN[name], name
