"""Component metric spaces and points.

A space is the real line, a finite metric given by a distance table, or a
positively scaled copy of either.  Product points pair one coordinate from
each component; the product distance is the sum of the component distances.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .errors import InvalidMetricError, SpaceMismatchError
from .exact import frac


@dataclass(frozen=True)
class RealLine:
    """The real line with distance |a - b|."""


@dataclass(frozen=True)
class FiniteMatrix:
    """A finite metric space given by its symmetric distance table."""

    dist: tuple

    def __init__(self, dist: Sequence[Sequence]) -> None:
        rows = tuple(tuple(frac(e) for e in row) for row in dist)
        if not rows or any(len(row) != len(rows) for row in rows):
            raise InvalidMetricError("distance table must be square and non-empty")
        violation = _axiom_violation(rows)
        if violation is not None:
            raise InvalidMetricError(violation)
        object.__setattr__(self, "dist", rows)

    @property
    def size(self) -> int:
        return len(self.dist)


@dataclass(frozen=True)
class Scaled:
    """A space whose distances are a base space's times a positive weight."""

    base: "Space"
    weight: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "weight", frac(self.weight))
        if self.weight <= 0:
            raise InvalidMetricError(f"scale weight must be positive, got {self.weight}")


Space = Union[RealLine, FiniteMatrix, Scaled]


@dataclass(frozen=True)
class RealPoint:
    value: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", frac(self.value))


@dataclass(frozen=True)
class IndexPoint:
    index: int

    def __post_init__(self) -> None:
        if not isinstance(self.index, int) or isinstance(self.index, bool) or self.index < 0:
            raise SpaceMismatchError(f"index must be a nonnegative int, got {self.index!r}")


SpacePoint = Union[RealPoint, IndexPoint]


@dataclass(frozen=True)
class ProductPoint:
    x: SpacePoint
    y: SpacePoint


def real(value) -> RealPoint:
    return RealPoint(frac(value))


def idx(index: int) -> IndexPoint:
    return IndexPoint(index)


def pt(x, y) -> ProductPoint:
    """Build a ProductPoint, coercing plain numbers to real-line points."""
    return ProductPoint(x if isinstance(x, (RealPoint, IndexPoint)) else real(x),
                        y if isinstance(y, (RealPoint, IndexPoint)) else real(y))


def point_key(p: SpacePoint):
    """Sort key for deterministic orderings: real points before index points."""
    if isinstance(p, RealPoint):
        return (0, p.value)
    return (1, p.index)


def product_key(p: ProductPoint):
    return (point_key(p.x), point_key(p.y))


@dataclass(frozen=True)
class ResolvedAxis:
    """A space with Scaled wrappers collapsed: a weighted line or a weighted
    finite table."""

    kind: str  # "line" or "finite"
    weight: Fraction
    matrix: Optional[tuple] = None

    @property
    def size(self) -> Optional[int]:
        return None if self.matrix is None else len(self.matrix)


def resolve(space: Space) -> ResolvedAxis:
    weight = Fraction(1)
    while isinstance(space, Scaled):
        weight *= space.weight
        space = space.base
    if isinstance(space, RealLine):
        return ResolvedAxis("line", weight)
    if isinstance(space, FiniteMatrix):
        return ResolvedAxis("finite", weight, space.dist)
    raise SpaceMismatchError(f"unknown space descriptor {space!r}")


def check_point(space: Space, p: SpacePoint) -> None:
    """Raise SpaceMismatchError unless p is a valid point of space."""
    axis = resolve(space)
    if axis.kind == "line":
        if not isinstance(p, RealPoint):
            raise SpaceMismatchError(f"line space needs RealPoint, got {p!r}")
    else:
        if not isinstance(p, IndexPoint):
            raise SpaceMismatchError(f"finite space needs IndexPoint, got {p!r}")
        if p.index >= axis.size:
            raise SpaceMismatchError(
                f"index {p.index} out of range for a {axis.size}-point space")


def distance(space: Space, a: SpacePoint, b: SpacePoint) -> Fraction:
    """Exact distance between two points of one component space."""
    if isinstance(space, Scaled):
        return space.weight * distance(space.base, a, b)
    if isinstance(space, RealLine):
        if not (isinstance(a, RealPoint) and isinstance(b, RealPoint)):
            raise SpaceMismatchError(f"line distance needs RealPoints, got {a!r}, {b!r}")
        return abs(a.value - b.value)
    if isinstance(space, FiniteMatrix):
        if not (isinstance(a, IndexPoint) and isinstance(b, IndexPoint)):
            raise SpaceMismatchError(f"finite distance needs IndexPoints, got {a!r}, {b!r}")
        if a.index >= space.size or b.index >= space.size:
            raise SpaceMismatchError(
                f"index out of range for a {space.size}-point space: {a!r}, {b!r}")
        return space.dist[a.index][b.index]
    raise SpaceMismatchError(f"unknown space descriptor {space!r}")


def product_distance(space_x: Space, space_y: Space,
                     p: ProductPoint, q: ProductPoint) -> Fraction:
    """Sum of the component distances (the product metric)."""
    return distance(space_x, p.x, q.x) + distance(space_y, p.y, q.y)


def point_to_json(p: SpacePoint):
    """Real coordinates become "p/q" strings, finite indices plain ints."""
    if isinstance(p, RealPoint):
        return str(p.value)
    return p.index


def point_from_json(raw) -> SpacePoint:
    if isinstance(raw, int) and not isinstance(raw, bool):
        return IndexPoint(raw)
    if isinstance(raw, str):
        return RealPoint(frac(raw))
    raise SpaceMismatchError(f"cannot decode point from {raw!r}")


def _axiom_violation(rows: tuple) -> Optional[str]:
    n = len(rows)
    for i in range(n):
        if rows[i][i] != 0:
            return f"violation: nonzero diagonal at ({i},{i})"
    for i in range(n):
        for j in range(n):
            if i != j and rows[i][j] <= 0:
                return f"violation: nonpositive off-diagonal at ({i},{j})"
            if rows[i][j] != rows[j][i]:
                return f"violation: asymmetry at ({i},{j})"
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if rows[i][k] > rows[i][j] + rows[j][k]:
                    return f"violation: triangle inequality at ({i},{j},{k})"
    return None
