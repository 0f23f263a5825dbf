"""Golden regression tests: checked-in digests of kernel outputs.

The equivalence suites prove the *batched* engines match the *reference*
implementations — but both could drift together if a refactor changed the
reference itself. These digests pin the reference outputs for fixed seeds:
Canny edge masks, quadtree leaf layouts, octree leaf layouts, every leaf
field of the 2-D and 3-D tree builds (single and batched), and every
field of the reordered, dropped, padded and subset leaf sets and sequences,
and every leaf↔pixel transfer (patch gather, label projection, stitch).
A kernel refactor that silently changes any output (one flipped edge pixel,
one re-ordered leaf, one widened dtype) fails here.

If a change is *intentional* (e.g. a deliberate algorithm fix), regenerate
the digests with the snippet in each test's docstring and update the tables
in the same commit, explaining why in the commit message.
"""

import dataclasses
import functools
import hashlib

import numpy as np
import pytest

from repro.data import generate_ct_volume, generate_wsi
from repro.imaging import gaussian_blur, to_grayscale
from repro.imaging.canny import canny_edges
from repro.patching import (AdaptivePatcher, APFConfig, PatchSequence,
                            VolumeAPFConfig, VolumeSequence,
                            VolumetricAdaptivePatcher)
from repro.patching.adaptive import _variance_detail
from repro.quadtree import build_octree, build_quadtree, build_tree_batch


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


def _wide(rng, shape, dtype):
    """Values over twelve decades with a fifth exact zeros: region sums of
    such maps show any change in summation order."""
    a = rng.random(shape) ** 3 * 10.0 ** rng.integers(-6, 7, shape)
    a[rng.random(shape) < 0.2] = 0.0
    return a.astype(dtype)


@functools.lru_cache(maxsize=None)
def _tree_golden_cases():
    """``{name: (detail maps, split value, min_size)}`` for the builder
    golden: a Canny-bool, a variance-float64 and a wide float32 map in 2-D,
    a gradient-mask and a wide float64 volume in 3-D. Each case builds the
    map, its flip and its transpose, and splits to mixed depths."""
    rng = np.random.default_rng(22)
    g = to_grayscale(np.asarray(generate_wsi(64, seed=3).image,
                                dtype=np.float64))
    blurred = gaussian_blur(g, 3)
    maps = {"2d.canny": canny_edges(blurred * 255.0, 100.0, 200.0),
            "2d.variance": _variance_detail(blurred, window=2) * 16.0,
            "2d.float32": _wide(rng, (64, 64), np.float32)}
    vol = generate_ct_volume(32, 32, seed=3).volume
    maps["3d.mask"] = VolumetricAdaptivePatcher().detail_map(vol) > 0
    zz, yy, xx = np.mgrid[:16, :16, :16] - 5.5
    maps["3d.float64"] = _wide(rng, (16, 16, 16), np.float64) * (
        zz ** 2 + yy ** 2 + xx ** 2 < 30)
    cases = {}
    for name, m in maps.items():
        batch = [m, np.flip(m, 0).copy(), np.swapaxes(m, 0, -1).copy()]
        split = float(np.asarray(m, np.float64).sum()) / (4 * m.shape[0])
        for min_size in ((1, 2, 4, 8) if m.ndim == 2 else (1, 2, 4)):
            cases[f"{name}.ms{min_size}"] = (batch, split, min_size)
    return cases


def leaves_sha256(trees) -> str:
    """sha256 over every row field of each leaf set, in build order, with
    its name, shape and dtype, plus ``size`` and ``nodes_visited``."""
    h = hashlib.sha256()
    for t in trees:
        for name in t.ROWS:
            a = np.ascontiguousarray(getattr(t, name))
            h.update(f"{name}{a.shape}{a.dtype.str}".encode())
            h.update(a.tobytes())
        h.update(f"size={t.size} visited={t.nodes_visited}".encode())
    return h.hexdigest()


#: leaves_sha256 of each :func:`_tree_golden_cases` build, ``nodes_visited``
#: included. Recorded by the builder that still kept a per-leaf detail-sum
#: column, hashing every other field, so dropping that column moved no
#: leaf byte; that builder was itself pinned by a golden recorded with the
#: separate quadtree and octree builders.
TREE_BUILD_GOLDEN = {
    "2d.canny.ms1": "9d2010fad67715aef8a6832445026eb18b5af27f779e10a6e10d584d22874cbe",
    "2d.canny.ms2": "a476b88aba5f7839df0d089a1ab663b919eb5cdd3cd39c7344967bcd392d51fd",
    "2d.canny.ms4": "e4d589e380636cda5b1bae73cb715765360176471daf7a3f6e9edf3d46beb21c",
    "2d.canny.ms8": "b49de0c23be9fd7170b3e9c6a9b5a966a720903fbbc71d77010e35ecaf36ff42",
    "2d.variance.ms1": "c7b1f55b955bbb88e637a039a8e52157392d2e8b83a4a735a42c555ac6f0d678",
    "2d.variance.ms2": "bb5ead7373db2a854a567207986a2e23b145569915dbc6a50df064438e158f99",
    "2d.variance.ms4": "c846e78218693945b9357cde565d09213b65b98ba75331ab8c7c38b6933bf322",
    "2d.variance.ms8": "b49de0c23be9fd7170b3e9c6a9b5a966a720903fbbc71d77010e35ecaf36ff42",
    "2d.float32.ms1": "cc074f6a0b69bad809667000ca0a7103c56b6be84e140c1a9d260af98d6ae2c4",
    "2d.float32.ms2": "f581ee7aa189e5d05591fcf83e110940dfc18682bc8bbe6bc7b3181f26b983b2",
    "2d.float32.ms4": "e1b176fb107678b5da161ad6deb1a9c6709cde292b8dc33e53880762b0975ea2",
    "2d.float32.ms8": "79a9b8238c8501f0632cf51b342ef59785412b00f4815999bf1c94a334305f73",
    "3d.mask.ms1": "865dafb21409e12741b7ad27d2eb60f78a1e44454a7a132f2b683c857801ffca",
    "3d.mask.ms2": "75a7ae118e3fd1ac12627db213a9c1fe2973f2b252fdeb925ea2a201a03da6f6",
    "3d.mask.ms4": "04859957f9eeb7eef2e13de0b03237995f9321955a8b721fe4dafe7d92c65413",
    "3d.float64.ms1": "0515e6b3f79cfcdf8274e05810f634880c749090020fa1ff0eaf310514fcf761",
    "3d.float64.ms2": "58a6aa88a63732fbc1640f82fb3ea8a3b75a9863bc48bd5aec23760199e35531",
    "3d.float64.ms4": "03e490de63990e8576a5c63e73b66c03837f6c6268cea79002d49f89a61190e8",
}


class TestTreeBuildGolden:
    @pytest.mark.parametrize("name", list(TREE_BUILD_GOLDEN))
    def test_single_and_batched_builds_match_golden(self, name):
        """Regenerate: leaves_sha256 of the per-map builds of each case."""
        batch, split, min_size = _tree_golden_cases()[name]
        depth = batch[0].shape[0].bit_length() - 1
        single = build_quadtree if batch[0].ndim == 2 else build_octree
        got = leaves_sha256([single(m, split, depth, min_size)
                             for m in batch])
        assert got == TREE_BUILD_GOLDEN[name], (
            f"tree build changed for {name} (new digest {got})")
        assert leaves_sha256(build_tree_batch(batch, split, depth,
                                              min_size)) == got


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


def fields_digest(obj) -> str:
    """:func:`digest` over every dataclass field of ``obj`` in declaration
    order: arrays as they are, scalars as 0-d arrays, ``None`` as an empty
    uint8 array."""
    return digest(*(np.zeros(0, dtype=np.uint8) if v is None else np.asarray(v)
                    for v in (getattr(obj, f.name)
                              for f in dataclasses.fields(obj))))


def _row_algebra_outputs():
    """Every row-copying output of APF, 2-D and 3-D, from fixed seeds."""
    out = {}
    img = generate_wsi(64, seed=0).image
    cfg = APFConfig(patch_size=4, split_value=8.0)
    p = AdaptivePatcher(cfg)
    nat = p.extract(img)                                   # 58 tokens
    n = len(nat)
    leaves = p.build_tree(img)
    out["2d.morton"] = leaves.sorted_by_morton()
    out["2d.hilbert"] = leaves.sorted_by_hilbert()
    out["2d.drop_random"] = p.fit_length(nat, n // 2,
                                         rng=np.random.default_rng(1))
    out["2d.drop_coarsest"] = AdaptivePatcher(dataclasses.replace(
        cfg, drop_strategy="coarsest-first")).fit_length(
            nat, n // 2, rng=np.random.default_rng(2))
    out["2d.pad"] = p.fit_length(nat, n + 9)
    out["2d.target_length"] = AdaptivePatcher(dataclasses.replace(
        cfg, target_length=n // 3, seed=4)).extract(img)
    out["2d.pad_balanced"] = p.fit_length(AdaptivePatcher(
        dataclasses.replace(cfg, balance=True)).extract(img), 3 * n)

    vol = generate_ct_volume(32, 32, seed=0).volume
    vcfg = VolumeAPFConfig(patch_size=4, split_value=8.0)
    vp = VolumetricAdaptivePatcher(vcfg)
    vnat = vp.extract(vol)                                 # 190 tokens
    m = len(vnat)
    out["3d.morton"] = vp.build_tree(vol).sorted_by_morton()
    out["3d.drop_random"] = vp.fit_length(vnat, m // 2,
                                          rng=np.random.default_rng(5))
    out["3d.drop_coarsest"] = VolumetricAdaptivePatcher(dataclasses.replace(
        vcfg, drop_strategy="coarsest-first")).fit_length(
            vnat, m // 2, rng=np.random.default_rng(6))
    out["3d.pad"] = vp.fit_length(vnat, m + 11)
    out["3d.target_length"] = VolumetricAdaptivePatcher(dataclasses.replace(
        vcfg, target_length=m // 3, seed=7)).extract(vol)
    from repro.pipeline import BatchedVolumetricPatcher
    out["3d.batched_target_length"] = BatchedVolumetricPatcher(
        dataclasses.replace(vcfg, target_length=m // 2, seed=8)
    ).extract_batch([vol, generate_ct_volume(32, 32, seed=1).volume])[1]
    return out


#: fields_digest of every :func:`_row_algebra_outputs` entry. Pins the
#: row copies (reorder, drop, pad, take) field by field, dtypes included,
#: so sharing their implementation across leaf sets and sequences cannot
#: move a byte or a draw of the drop RNG. Recorded like
#: :data:`TREE_BUILD_GOLDEN`, with the detail-sum column skipped.
ROW_ALGEBRA_GOLDEN = {
    "2d.morton": "49af4a82a1bd0fcce11a2937412e9d49",
    "2d.hilbert": "02d303b93326b345ffbcaadcea0a6a17",
    "2d.drop_random": "7e8b169aad5620080c2cc9a78c55a071",
    "2d.drop_coarsest": "5c34f196eb364b02c1a3f6af3d1f3dcc",
    "2d.pad": "358824b9cba0291becc6eaef18cdaa91",
    "2d.target_length": "1559295b53478724a1c96b4340e36afe",
    "2d.pad_balanced": "0fa8365caf56feeb9ea23b9325cd856f",
    "3d.morton": "23d32d04258ede59a7fd802773e940b9",
    "3d.drop_random": "19cfdcc76dc9927f3512e259c1e4c4af",
    "3d.drop_coarsest": "ee93a874d16b7e07946c13f35d9f504b",
    "3d.pad": "ec177e68996f58e18a29f7c1d0b9776d",
    "3d.target_length": "8ff24c33f09a4b9bff7978aec608e5d8",
    "3d.batched_target_length": "29a5cffc3bfa13ee5b5b0a69d5c52004",
}


class TestRowAlgebraGolden:
    def test_row_copies_match_golden(self):
        """Regenerate: {k: fields_digest(v) for k, v in
        _row_algebra_outputs().items()}."""
        got = {k: fields_digest(v) for k, v in _row_algebra_outputs().items()}
        assert got == ROW_ALGEBRA_GOLDEN

    @pytest.mark.parametrize("cls,extra", [
        (PatchSequence, dict(valid=np.ones(3, bool), image_size=16,
                             n_real=3)),
        (VolumeSequence, dict(zs=np.zeros(3, np.int64), volume_size=16)),
    ])
    def test_row_length_mismatch_raises(self, cls, extra):
        rows = dict(patches=np.zeros((3, 1, 4, 4)), ys=np.zeros(3, np.int64),
                    xs=np.zeros(3, np.int64), sizes=np.full(3, 4),
                    patch_size=4, **extra)
        cls(**rows)
        with pytest.raises(ValueError,
                           match="inconsistent sequence field lengths"):
            cls(**dict(rows, xs=np.zeros(2, np.int64)))
        with pytest.raises(ValueError,
                           match="inconsistent sequence field lengths"):
            cls(**dict(rows, sizes=np.full(4, 4)))


def _sha256(*arrays) -> str:
    """sha256 over each array's shape, dtype and bytes."""
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.shape}{a.dtype.str}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _transfer_outputs():
    """Every leaf↔pixel transfer of APF, 2-D and 3-D, from fixed seeds:
    patch extraction (one and three channels, single and batched), label
    projection onto natural, dropped and padded sequences (adaptive,
    uniform and octree), and the serving stitch in the scheduler's
    ``(L, K) + (Pm,)*d`` layout."""
    from repro.patching import UniformPatcher, patchify_labels, stitch
    from repro.pipeline import BatchedAdaptivePatcher, BatchedVolumetricPatcher

    rng = np.random.default_rng(23)
    out = {}
    wsis = [generate_wsi(128, seed=s) for s in (0, 1)]
    rgb = [w.image for w in wsis]
    gray = [to_grayscale(np.asarray(i, dtype=np.float64)) for i in rgb]
    for pm, split in ((2, 2.0), (4, 8.0)):
        cfg = APFConfig(patch_size=pm, split_value=split)
        for name, imgs in (("gray", gray), ("rgb", rgb)):
            seqs = [AdaptivePatcher(cfg).extract(i) for i in imgs]
            out[f"extract.2d.{name}.pm{pm}"] = _sha256(
                *(s.patches for s in seqs))
            batched = BatchedAdaptivePatcher(cfg).extract_batch(imgs)
            out[f"extract.2d.{name}.pm{pm}.batched"] = _sha256(
                *(s.patches for s in batched))
    vols = [generate_ct_volume(32, 32, seed=s) for s in (0, 1)]
    vcfg = VolumeAPFConfig(patch_size=2, split_value=8.0)
    vseqs = [VolumetricAdaptivePatcher(vcfg).extract(v.volume) for v in vols]
    out["extract.3d"] = _sha256(*(s.patches for s in vseqs))
    out["extract.3d.batched"] = _sha256(*(s.patches for s in
        BatchedVolumetricPatcher(vcfg).extract_batch(
            [v.volume for v in vols])))

    def variants(patcher, seq, seed):
        n = len(seq)
        return {"natural": seq,
                "dropped": patcher.fit_length(
                    seq, n // 2, rng=np.random.default_rng(seed)),
                "padded": patcher.fit_length(seq, n + 7)}

    soft = rng.random((128, 128))
    ap = AdaptivePatcher(APFConfig(patch_size=4, split_value=8.0))
    adaptive = ap.extract(rgb[0])
    seqs2d = {"adaptive": adaptive,
              "uniform": UniformPatcher(8).extract(gray[1]),
              "uniform_projected": UniformPatcher(16, project_to=4).extract(
                  gray[1])}
    for kind, seq in seqs2d.items():
        for var, s in variants(ap, seq, len(kind)).items():
            out[f"labels.2d.{kind}.{var}"] = _sha256(
                patchify_labels(wsis[0].mask, s),
                patchify_labels(soft[:, :, None], s))
    vp = VolumetricAdaptivePatcher(vcfg)
    vmask = (vols[0].mask > 0).astype(np.float64)
    vsoft = rng.random((32, 32, 32))
    for var, s in variants(vp, vseqs[0], 3).items():
        out[f"labels.3d.{var}"] = _sha256(patchify_labels(vmask, s),
                                          patchify_labels(vsoft, s))

    # Leaves smaller than Pm: a Pm=2 partition read as Pm=4 tokens.
    small = dataclasses.replace(
        AdaptivePatcher(APFConfig(patch_size=2, split_value=2.0)).extract(
            rgb[1]), patch_size=4)
    for name, seq in (("adaptive", adaptive), ("small_leaves", small)):
        for var, s in variants(ap, seq, 9).items():
            for k in (1, 2):
                vals = rng.random((len(s), k, 4, 4))
                out[f"stitch.2d.{name}.{var}.k{k}"] = _sha256(stitch(s, vals))
    for var, s in variants(vp, vseqs[1], 4).items():
        vals = rng.random((len(s), 1, 2, 2, 2))
        out[f"stitch.3d.{var}"] = _sha256(stitch(s, vals)[0])
    return out


#: sha256 of every :func:`_transfer_outputs` entry, recorded with the
#: per-dimension gathers, label loops and stitchers that preceded the
#: shared n-D transfer (:mod:`repro.patching.transfer`).
TRANSFER_GOLDEN = {
    "extract.2d.gray.pm2": "72134ad9259f1fa419a5e7cc550715ab804e3c28ea3920d235b4f6229c83e223",
    "extract.2d.gray.pm2.batched": "72134ad9259f1fa419a5e7cc550715ab804e3c28ea3920d235b4f6229c83e223",
    "extract.2d.rgb.pm2": "f98ce5866b54e43069d01a8be53a9f28e9ffc00a83f459f9720c4eacaa8778de",
    "extract.2d.rgb.pm2.batched": "f98ce5866b54e43069d01a8be53a9f28e9ffc00a83f459f9720c4eacaa8778de",
    "extract.2d.gray.pm4": "7b98159a25261422defd90b9ff1ea34b2f2bdc6faccf0ef0ad4c43e7ef90a23f",
    "extract.2d.gray.pm4.batched": "7b98159a25261422defd90b9ff1ea34b2f2bdc6faccf0ef0ad4c43e7ef90a23f",
    "extract.2d.rgb.pm4": "f7d801bbc07d6dad246c61cd894a3b7a1fcb696c2024d2a86b9e9ae1ae007077",
    "extract.2d.rgb.pm4.batched": "f7d801bbc07d6dad246c61cd894a3b7a1fcb696c2024d2a86b9e9ae1ae007077",
    "extract.3d": "d8b2ba7383d7eaf654cc276b472eb752d213b6483f6eca4374c76b3bf7e5cf89",
    "extract.3d.batched": "d8b2ba7383d7eaf654cc276b472eb752d213b6483f6eca4374c76b3bf7e5cf89",
    "labels.2d.adaptive.natural": "0f4c0a7d3de6604f34f604b4b5fc11f4d738a9931bf65c08008e5f742ca5ebfd",
    "labels.2d.adaptive.dropped": "b7774c63b2c94e22bf834edc796e29a1755d0b745de0e9e965bdb3f44d40d32f",
    "labels.2d.adaptive.padded": "44b0200d2b8118189e5357926e950f70da64f8fca122fec73c38990db9080e4a",
    "labels.2d.uniform.natural": "b7054ebd5e74e6fd815bd6cfac58d491c0128b15690e18d820f44d4eab95b95c",
    "labels.2d.uniform.dropped": "32171ddb73ce7407064f5232be0293b3c067149ea3fd91ff6a42f1957d396fb1",
    "labels.2d.uniform.padded": "fb0aa1a253ce3e91600c492e991df87646b0992a99a914d15e273cd9a2ca3963",
    "labels.2d.uniform_projected.natural": "9df12b60d4a4d1abad8a4fed4a1b700f2d8f718872ada6c13d6f174e19208806",
    "labels.2d.uniform_projected.dropped": "e6254990ee3440de39b06d3289dde358a62431defafb76407549777ddd891ed9",
    "labels.2d.uniform_projected.padded": "b838c68884c23c405e59821aae21201cfa91722d1b2a36eb567e915cab38cab7",
    "labels.3d.natural": "75f239dfd94389026860edde8c21cd328f760c3bfc54a65b80f6a2b78b7da79f",
    "labels.3d.dropped": "417160ad5664e2de2492376f6ebaad6d00db30ffb09fb2893acaf1e55d2cd1be",
    "labels.3d.padded": "6bd394307de33884af4e2690a4ed300208bee2d9e653a18c6058a88ee081d691",
    "stitch.2d.adaptive.natural.k1": "cd126a61b11470f9571386321be96e0481265f2e313129806226779dc726b957",
    "stitch.2d.adaptive.natural.k2": "fca074ea80ae1534935015e530ec54f97ea5a0452490b38fc5747b6b28540bd4",
    "stitch.2d.adaptive.dropped.k1": "1e5bf1f2d782e735fef17c0d12b9f2c7aa014ad96bee577396251c7f608c3653",
    "stitch.2d.adaptive.dropped.k2": "f39b0974406adcacc1be60c0baa4fc8f4ace3e450358e57e0dc8988dc15a5dc3",
    "stitch.2d.adaptive.padded.k1": "0dac8e7f7facd27ba800d58281aba3254b8125aa7ccb1e9bc16840a0f353d35c",
    "stitch.2d.adaptive.padded.k2": "3840a7b456eb99334122b4865998ef5b4adcc5a778fe425eddc9c4571e3af717",
    "stitch.2d.small_leaves.natural.k1": "080c1e1db2ef5ff2ebe1605b4bd4de8344c3a5c3739a2a1dfe1ad94bc5616fdd",
    "stitch.2d.small_leaves.natural.k2": "380c263bf63e1a17515cdb3e86a3929d4d3e28311b7c7b6ba10b396d8fa4b7d5",
    "stitch.2d.small_leaves.dropped.k1": "aafc16f83fa05959b9198aaa547025dff322383c6ecdf40d9706404088e0617c",
    "stitch.2d.small_leaves.dropped.k2": "9565d2b3fd7b9d2e08bb40916b1f177c024e9291500fe8cac4a835ab6e846034",
    "stitch.2d.small_leaves.padded.k1": "db9b60e84d2a705c8174b0b043c3b976b96cb9447d12e3c83cb8ea368ceaa877",
    "stitch.2d.small_leaves.padded.k2": "4afa3b20886f019f33e7ca7e8c51ee7c9b558b40ac1eced8c6ae78649e0cbc10",
    "stitch.3d.natural": "3a27941abcde2e385a0bfa52f7289c4f3502044d22b20746c98e26961c6682ca",
    "stitch.3d.dropped": "8f92125edb9fef33e076f38887a265ef5751ebf5ac2046630afb376f5b72cbb2",
    "stitch.3d.padded": "22923884f147b177e9ea79eb2933ba170127c453e6f64f6c1eaf881d5f31a55f",
}


class TestTransferGolden:
    def test_transfers_match_golden(self):
        """Regenerate: _transfer_outputs()."""
        assert _transfer_outputs() == TRANSFER_GOLDEN
