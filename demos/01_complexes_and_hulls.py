#!/usr/bin/env python3
"""Tour of the complex encoding: vertices as sign vectors, medians, cubes, hulls.

Run:  python demos/01_complexes_and_hulls.py
"""

from lpcube import complexes as cc
from lpcube.complexes import Point

print("=== building complexes ===")
square = cc.hypercube(2)
corner = cc.corner_complex()
grid = cc.grid(2, 2, 2)
print("unit square:   ", square)
print("corner complex:", corner, "->", sorted(q.dim for q in corner.maximal_cubes()), "squares")
print("2x2x2 grid:    ", grid, "->", len(grid.maximal_cubes()), "unit cubes,",
      len(grid.all_cubes()), "cubes in total")

print("\n=== medians are coordinatewise majorities ===")
u, v, w = 0b000011, 0b000101, 0b001101   # grid points (2,0,0), (1,1,0), (1,2,0)
print(f"median({u:06b}, {v:06b}, {w:06b}) = {grid.median(u, v, w):06b}")

print("\n=== points, minimal cubes, common cubes ===")
x = Point.make(0, {0: 0.5, 2: 0.5, 4: 0.5})   # interior of the first unit cube
y = Point.make(0b010101, {1: 0.5, 3: 0.5, 5: 0.5})  # interior of the opposite one
print("x lives in", x.minimal_cube())
print("y lives in", y.minimal_cube())
print("common cube of x and y:", grid.minimal_cube_pair(x, y))

print("\n=== hulls contain every geodesic between their defining points ===")
hull = grid.hull_restriction([x, y])
print("hull of the two diagonal cubes:", hull, "(the whole grid)")

print("\n=== splitting a hull into its product factors ===")
book = cc.book_of_squares(2)
sq1 = book.cube(0, ["spine", "page1"])
sq2 = book.cube(0, ["spine", "page2"])
print("two pages share the spine edge:", cc.cube_intersection(sq1, sq2))
pages = book.hull_restriction([Point.make(0, {0: 0.5, 1: 0.5}), Point.make(0, {0: 0.5, 2: 0.5})])
for mask, is_tree in pages.factors():
    factor = pages.factor(mask)
    print(f"factor on {', '.join(factor.complex.hyperplanes)}: {factor.complex},",
          "a tree" if is_tree else "irreducible")
