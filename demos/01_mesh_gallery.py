"""Mesh generation and validation walkthrough.

Builds the three mesh families (rectangles, triangles, Lloyd-relaxed Voronoi
polygons), checks their structural invariants, and round-trips one of them
through the JSON format.
"""

import os
import tempfile

import numpy as np

import hhobiharm as hb

print("=== rectangular meshes ===")
for n in (2, 4, 8):
    mesh = hb.build_rect_mesh(n, n)
    rep = hb.validate(mesh)
    euler = mesh.n_vertices - mesh.n_faces + mesh.n_cells
    print(f"  {n}x{n}: {mesh}, Euler {euler}, "
          f"shape regularity {rep.shape_regularity:.3f}, ok={rep.ok}")

print("\n=== triangular meshes (quadrisection family) ===")
for n in (4, 8, 16):
    mesh = hb.build_tri_mesh(n)
    print(f"  n={n}: {mesh.n_cells} cells, {mesh.n_faces} faces, "
          f"{mesh.n_vertices} vertices")

print("\n=== Voronoi meshes (deterministic in the seed) ===")
for cells in (16, 64, 256):
    mesh = hb.build_voronoi_mesh(cells, seed=42, lloyd_iters=20)
    rep = hb.validate(mesh)
    per_cell = [len(f) for f in mesh.cell_faces]
    print(f"  {cells} cells: faces per cell {min(per_cell)}..{max(per_cell)}, "
          f"area sum {np.sum(mesh.cell_area):.12f}, ok={rep.ok}")

print("\n=== JSON round trip ===")
mesh = hb.build_voronoi_mesh(64, 42, 20)
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "demo_mesh.json")
    hb.save_mesh(mesh, path)
    again = hb.load_mesh(path)
print(f"  saved and reloaded: identical = {again == mesh}")

print("\n=== sub-triangulation ===")
sub = hb.subtriangulate(mesh, 0)
areas = [abs((t[1, 0] - t[0, 0]) * (t[2, 1] - t[0, 1])
             - (t[1, 1] - t[0, 1]) * (t[2, 0] - t[0, 0])) / 2
         for t in sub.triangles]
print(f"  cell 0 splits into {len(sub.triangles)} triangles, "
      f"area defect {abs(sum(areas) - mesh.cell_area[0]):.2e}")
