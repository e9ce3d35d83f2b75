#!/usr/bin/env python3
"""How rectangular scheduling problems become square assignments.

Two reductions, demonstrated on small matrices and cross-checked against
brute-force enumeration:
  - zero dummy columns: users that land on a dummy simply get nothing;
  - replicated penalty columns: landing on a dummy costs that user's
    imminent-drop bytes, which prices unfairness into the objective.
"""

import numpy as np

from ulsched.assignment import (
    brute_force_assignment,
    pad_with_zero_dummies,
    replicate_penalty_dummies,
    solve,
)

w = np.array([[400], [300], [252]])
print("transmittable bytes, 3 users x 1 chunk:")
print(w.ravel())

print()
print("zero-dummy squaring (throughput-only view):")
sq = pad_with_zero_dummies(w)
print(sq)
cols, obj = solve(sq)
print(f"assignment {cols}, objective {obj} "
      "(user 1 wins the real chunk, users 2 and 3 idle)")

print()
k = np.array([50, 100, 255])
print(f"imminent-drop bytes k = {k}")
sq_pen = replicate_penalty_dummies(w, k)
print("penalty-replicated squaring (each dummy column = -k):")
print(sq_pen)
cols_pen, obj_pen = solve(sq_pen)
winner = cols_pen.index(0)
print(f"assignment {cols_pen}, objective {obj_pen} "
      f"(user {winner + 1} now wins: rescuing 255 bytes beats raw throughput)")
print(f"solve(w, k) on the rectangle itself: {solve(w, k)} (-1: no chunk)")

print()
print("cross-check against full permutation enumeration on random instances:")
rng = np.random.default_rng(7)
worst = 0
for trial in range(200):
    n = int(rng.integers(2, 8))
    m = rng.integers(-999, 1000, size=(n, n))
    a = solve(m)
    b = brute_force_assignment(m)
    assert a == b, (trial, a, b)
    worst = max(worst, n)
print(f"200 random square instances up to {worst}x{worst}: solve == brute force, "
      "ties included")
