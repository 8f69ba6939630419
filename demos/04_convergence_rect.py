"""Convergence study on rectangular meshes (a scaled-down reproduction).

Solves with the exact solution u = sin^2(pi x) sin^2(pi y) (homogeneous
clamped boundary) on successively refined rectangle meshes.  The broken-H2
error decays at order k+1 and the L2 error at order k+3, except k=0 where it
is limited to order 2.
"""

import hhobiharm as hb

case = hb.get_case("1")
levels = (4, 8, 16, 32)

for k in (0, 1, 2):
    meshes = (hb.build_rect_mesh(n, n) for n in levels)
    table = hb.convergence_study(meshes, "A", k, "strong", case)
    print(f"\nk = {k}  (expected H2 order {k + 1}, "
          f"L2 order {2 if k == 0 else k + 3})")
    print(f"  {'h':>10s} {'dofs':>7s} {'err H2':>12s} {'err L2':>12s}")
    for r in table.reports:
        print(f"  {r.h_max:10.4f} {r.dofs:7d} {r.err_h2_rel:12.3e} "
              f"{r.err_l2_rel:12.3e}")
    print(f"  fitted slopes: H2 {table.slope_h2:.2f}, L2 {table.slope_l2:.2f}")
