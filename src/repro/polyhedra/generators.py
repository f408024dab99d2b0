"""Generator systems: vertices, rays and lines of a closed convex polyhedron.

This is the representation of Definition 3 of the paper: every point of the
polyhedron is a convex combination of the vertices plus a nonnegative
combination of the rays plus an arbitrary combination of the lines.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Sequence, Tuple

from repro.linalg.vector import Vector


@dataclass
class GeneratorSystem:
    """Vertices, rays and lines of a polyhedron in a fixed variable order."""

    variables: Tuple[str, ...]
    vertices: List[Vector] = field(default_factory=list)
    rays: List[Vector] = field(default_factory=list)
    lines: List[Vector] = field(default_factory=list)

    @property
    def dimension(self) -> int:
        return len(self.variables)

    def is_empty(self) -> bool:
        """A polyhedron is empty iff it has no vertex (and no generator)."""
        return not self.vertices and not self.rays and not self.lines

    def all_ray_like(self) -> List[Vector]:
        """Rays plus both orientations of every line."""
        result = list(self.rays)
        for line in self.lines:
            result.append(line)
            result.append(-line)
        return result

    def difference_generators(self) -> List[Tuple[str, Vector]]:
        """Generators tagged as ``("vertex", v)`` or ``("ray", r)``.

        Lines are reported as a pair of opposite rays, which is how the
        synthesiser consumes them (a line forces ``λ·l = 0``).
        """
        tagged: List[Tuple[str, Vector]] = []
        for vertex in self.vertices:
            tagged.append(("vertex", vertex))
        for ray in self.all_ray_like():
            tagged.append(("ray", ray))
        return tagged

    def scale(self, factor: Fraction) -> "GeneratorSystem":
        """Scale every generator (factor must be positive)."""
        if factor <= 0:
            raise ValueError("scaling factor must be positive")
        return GeneratorSystem(
            self.variables,
            [vertex * factor for vertex in self.vertices],
            [ray * factor for ray in self.rays],
            list(self.lines),
        )

    def merge(self, other: "GeneratorSystem") -> "GeneratorSystem":
        """Union of the two generator sets (generates the convex hull)."""
        if self.variables != other.variables:
            raise ValueError("generator systems over different variables")
        return GeneratorSystem(
            self.variables,
            _dedupe_points(self.vertices + other.vertices),
            _dedupe_directions(self.rays + other.rays),
            _dedupe_directions(self.lines + other.lines),
        )

    def contains_point(self, point: Sequence[Fraction]) -> bool:
        """Membership test by solving the barycentric LP."""
        from repro.linexpr.expr import LinExpr
        from repro.lp.simplex import check_feasibility

        target = Vector(point)
        constraints = []
        alpha = ["alpha_%d" % i for i in range(len(self.vertices))]
        beta = ["beta_%d" % i for i in range(len(self.rays))]
        gamma_pos = ["gammap_%d" % i for i in range(len(self.lines))]
        gamma_neg = ["gamman_%d" % i for i in range(len(self.lines))]
        for name in alpha + beta + gamma_pos + gamma_neg:
            constraints.append(LinExpr.variable(name) >= 0)
        if alpha:
            constraints.append(
                LinExpr.from_terms([(name, 1) for name in alpha]).eq(1)
            )
        elif not self.rays and not self.lines:
            return False
        for coordinate in range(self.dimension):
            combination = LinExpr()
            for name, vertex in zip(alpha, self.vertices):
                combination = combination + LinExpr.variable(name) * vertex[coordinate]
            for name, ray in zip(beta, self.rays):
                combination = combination + LinExpr.variable(name) * ray[coordinate]
            for pos, neg, line in zip(gamma_pos, gamma_neg, self.lines):
                combination = combination + LinExpr.variable(pos) * line[coordinate]
                combination = combination - LinExpr.variable(neg) * line[coordinate]
            constraints.append(combination.eq(target[coordinate]))
        return check_feasibility(constraints).is_optimal


def _dedupe_points(vectors: List[Vector]) -> List[Vector]:
    """Remove exact duplicates (vertices are points, scaling changes them)."""
    seen = set()
    result = []
    for vector in vectors:
        if vector not in seen:
            seen.add(vector)
            result.append(vector)
    return result


def _dedupe_directions(vectors: List[Vector]) -> List[Vector]:
    """Remove duplicates up to positive scaling (rays and lines are directions)."""
    seen = set()
    result = []
    for vector in vectors:
        key = vector.normalized() if not vector.is_zero() else vector
        if key not in seen:
            seen.add(key)
            result.append(vector)
    return result
