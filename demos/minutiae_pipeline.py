"""Walk one synthetic fingerprint through the fine-level pipeline.

Stages: minutiae -> core-relative k-means clusters -> centroid distance
matrix -> nearest-neighbor graph -> four-parameter index string.
"""

import numpy as np

from fpverify import (
    SynthConfig,
    build_nn_graph,
    compute_index,
    dist_matrix,
    gen_synthetic_minutiae,
    index_string,
    kmeans_fing,
)

cfg = SynthConfig(n_minutiae=30, seed=42)
s = gen_synthetic_minutiae(cfg)
print(f"finger of seed {cfg.seed}: {len(s)} minutiae, core at ({s.core.x:.0f}, {s.core.y:.0f})")

clusters = kmeans_fing(s, k=5)
print(f"\nk-means (k=5) converged in {clusters.iterations} iterations, "
      f"objective {clusters.objective:.1f}")
for i, (cx, cy) in enumerate(clusters.centroids):
    size = int(np.sum(clusters.assignment == i))
    print(f"  cluster {i}: centroid ({cx:7.2f}, {cy:7.2f}), {size} minutiae")

dm = dist_matrix(clusters.centroids)
print("\ncentroid distances (px):")
print(np.array_str(dm, precision=1, suppress_small=True))

g = build_nn_graph(dm)
print(f"\nnearest-neighbor graph: {sorted(g.edges)}")

idx = compute_index(g)
print(f"\nindex parameters: vertices={idx.vertex_count}, "
      f"degrees={list(idx.degree_sequence)}, max={idx.max_degree}, "
      f"multiplicity={idx.degree_multiplicity}")
print(f"bucket key: {index_string(idx)}")
