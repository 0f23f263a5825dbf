"""``repro.quadtree`` — tree-based AMR-style image partitioning (paper §II-A, §III-A).

* :mod:`repro.quadtree.tree` — the Eq. 6 builder shared by quadtrees and
  octrees (:func:`build_tree_batch`), the leaf tables, 2:1 balance
* :mod:`repro.quadtree.octree` — :class:`OctreeLeaves`, 3-D Morton codes
* :mod:`repro.quadtree.morton` — z-order curve codes and leaf ordering
* :mod:`repro.quadtree.hilbert` — Hilbert curve codes (locality ablation)
"""

from .hilbert import hilbert_decode, hilbert_encode, hilbert_sort_order
from .morton import morton_decode, morton_encode, morton_sort_order
from .octree import (OctreeLeaves, build_octree, morton3d_decode,
                     morton3d_encode)
from .tree import (QuadtreeLeaves, balance_2to1, build_quadtree,
                   build_tree_batch, max_depth_for)

__all__ = [
    "morton_encode", "morton_decode", "morton_sort_order",
    "hilbert_encode", "hilbert_decode", "hilbert_sort_order",
    "morton3d_encode", "morton3d_decode", "OctreeLeaves", "build_octree",
    "QuadtreeLeaves", "build_quadtree", "build_tree_batch",
    "balance_2to1", "max_depth_for",
]
