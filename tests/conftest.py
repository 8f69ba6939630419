"""Shared fixtures and independent geometry oracles.

The oracle `polygon_monomial_integral` integrates x^a y^b over a polygon via
Green's theorem and exact binomial expansion of the edge integrals; it uses
no quadrature at all and is the reference for every exactness check.
"""

from math import comb

import numpy as np
import pytest

import hhobiharm as hb

# Convex pentagon used throughout the tests (counterclockwise).
PENTAGON = [(0.1, 0.0), (0.9, 0.1), (1.0, 0.7), (0.5, 1.0), (0.0, 0.6)]

# Two nonconvex pentagons, taken by ear-clipping, beside two convex ones:
# the four cells share a vertex count but not a sub-triangle count.
DENTED_VERTICES = [[0, 0], [1, 0], [1, 1], [0.5, 0.2], [0, 1], [1, 2], [0, 2],
                   [2, 0], [2, 1], [1.5, 0.3], [2, 2]]
DENTED_LOOPS = [[0, 1, 2, 3, 4], [4, 3, 2, 5, 6], [1, 7, 8, 9, 2],
                [2, 9, 8, 10, 5]]
DENTED = hb.Mesh.from_cell_loops(DENTED_VERTICES, DENTED_LOOPS)


def polygon_monomial_integral(verts, a: int, b: int) -> float:
    """Exact integral of x^a y^b over a simple CCW polygon (Green's theorem)."""
    verts = np.asarray(verts, dtype=float)
    total = 0.0
    n = len(verts)
    for e in range(n):
        x0, y0 = verts[e]
        x1, y1 = verts[(e + 1) % n]
        dx, dy = x1 - x0, y1 - y0
        if dy == 0.0:
            continue
        acc = 0.0
        for i in range(a + 2):
            ci = comb(a + 1, i) * x0 ** (a + 1 - i) * dx ** i
            for j in range(b + 1):
                cj = comb(b, j) * y0 ** (b - j) * dy ** j
                acc += ci * cj / (i + j + 1)
        total += dy * acc / (a + 1)
    return total


def polygon_poly2d_integral(verts, C) -> float:
    """Exact integral of sum_ij C[i,j] x^i y^j over a polygon."""
    C = np.asarray(C, dtype=float)
    total = 0.0
    for i in range(C.shape[0]):
        for j in range(C.shape[1]):
            if C[i, j] != 0.0:
                total += C[i, j] * polygon_monomial_integral(verts, i, j)
    return total


def scaled_monomial_product_integral(verts, center, scale, e1, e2) -> float:
    """Exact integral of phi_{e1} * phi_{e2} for scaled monomials on a polygon."""
    ax, ay = e1[0] + e2[0], e1[1] + e2[1]
    cx, cy = center
    # Expand ((x-cx)/h)^ax ((y-cy)/h)^ay into raw monomials.
    total = 0.0
    for i in range(ax + 1):
        for j in range(ay + 1):
            coef = (comb(ax, i) * (-cx) ** (ax - i)
                    * comb(ay, j) * (-cy) ** (ay - j))
            total += coef * polygon_monomial_integral(verts, i, j)
    return total / scale ** (ax + ay)


@pytest.fixture(scope="session")
def rect22():
    return hb.build_rect_mesh(2, 2)


@pytest.fixture(scope="session")
def rect44():
    return hb.build_rect_mesh(4, 4)


@pytest.fixture(scope="session")
def vor16():
    return hb.build_voronoi_mesh(16, 7, 20)


@pytest.fixture(scope="session")
def vor64():
    return hb.build_voronoi_mesh(64, 42, 20)


@pytest.fixture(scope="session")
def pentagon_mesh():
    return hb.build_polygon_mesh(PENTAGON)


@pytest.fixture(scope="session")
def smooth_exp():
    """exp(x + 2y) with exact derivatives."""

    def u(p):
        return np.exp(p[:, 0] + 2.0 * p[:, 1])

    def grad(p):
        e = u(p)
        return np.column_stack([e, 2.0 * e])

    def hess(p):
        e = u(p)
        return np.column_stack([e, 2.0 * e, 4.0 * e])

    return u, grad, hess


def random_smooth_family(seed):
    """A random smooth function with exact gradient and Hessian."""
    rng = np.random.default_rng(seed)
    a, b = rng.uniform(-1.5, 1.5, size=2)
    w1, w2 = rng.uniform(1.0, 4.0, size=2)
    p1, p2 = rng.uniform(0.0, 3.0, size=2)
    amp = rng.uniform(0.5, 2.0)

    def u(p):
        return (amp * np.exp(a * p[:, 0] + b * p[:, 1])
                + np.sin(w1 * p[:, 0] + p1) * np.sin(w2 * p[:, 1] + p2))

    def grad(p):
        e = amp * np.exp(a * p[:, 0] + b * p[:, 1])
        s1, c1 = np.sin(w1 * p[:, 0] + p1), np.cos(w1 * p[:, 0] + p1)
        s2, c2 = np.sin(w2 * p[:, 1] + p2), np.cos(w2 * p[:, 1] + p2)
        return np.column_stack([a * e + w1 * c1 * s2, b * e + w2 * s1 * c2])

    def hess(p):
        e = amp * np.exp(a * p[:, 0] + b * p[:, 1])
        s1, c1 = np.sin(w1 * p[:, 0] + p1), np.cos(w1 * p[:, 0] + p1)
        s2, c2 = np.sin(w2 * p[:, 1] + p2), np.cos(w2 * p[:, 1] + p2)
        return np.column_stack([a * a * e - w1 * w1 * s1 * s2,
                                a * b * e + w1 * w2 * c1 * c2,
                                b * b * e - w2 * w2 * s1 * s2])

    return u, grad, hess
