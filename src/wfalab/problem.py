"""Instances of the online problem: requests, the coordinate grid, serving.

A request is a product point; a server configuration serves it when it
matches the request in at least one coordinate.  The coordinate grid after i
requests collects the origin's and the first i requests' coordinates per
axis; work-function values only ever need to be stored on that grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Tuple

from . import metric
from .errors import RequestIndexError
from .metric import ProductPoint, Space, SpacePoint, point_key


@dataclass(frozen=True)
class RequestPoint:
    x: SpacePoint
    y: SpacePoint


def request(x, y) -> RequestPoint:
    p = metric.pt(x, y)
    return RequestPoint(p.x, p.y)


def serves(p: ProductPoint, r: RequestPoint) -> bool:
    """True when p covers r, i.e. shares its x or its y coordinate."""
    return p.x == r.x or p.y == r.y


@dataclass(frozen=True)
class Instance:
    space_x: Space
    space_y: Space
    origin: ProductPoint
    requests: Tuple[RequestPoint, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "requests", tuple(self.requests))
        metric.check_point(self.space_x, self.origin.x)
        metric.check_point(self.space_y, self.origin.y)
        for r in self.requests:
            metric.check_point(self.space_x, r.x)
            metric.check_point(self.space_y, r.y)

    @property
    def n(self) -> int:
        return len(self.requests)

    def distance_x(self, a: SpacePoint, b: SpacePoint):
        return metric.distance(self.space_x, a, b)

    def distance_y(self, a: SpacePoint, b: SpacePoint):
        return metric.distance(self.space_y, a, b)

    def distance(self, p: ProductPoint, q: ProductPoint):
        return metric.product_distance(self.space_x, self.space_y, p, q)

    @cached_property
    def _axes(self):
        return metric.resolve(self.space_x), metric.resolve(self.space_y)


@dataclass(frozen=True)
class Grid:
    """Per-axis coordinate sets, stored sorted for deterministic iteration."""

    xs: Tuple[SpacePoint, ...]
    ys: Tuple[SpacePoint, ...]


def grid_after(instance: Instance, i: int) -> Grid:
    """Grid of origin plus the first i requests' coordinates."""
    if i < 0 or i > instance.n:
        raise RequestIndexError(f"prefix length {i} outside [0, {instance.n}]")
    xs = {instance.origin.x}
    ys = {instance.origin.y}
    for r in instance.requests[:i]:
        xs.add(r.x)
        ys.add(r.y)
    return Grid(tuple(sorted(xs, key=point_key)), tuple(sorted(ys, key=point_key)))


def grid_points_on(grid: Grid, r: RequestPoint,
                   space_x: Optional[Space] = None,
                   space_y: Optional[Space] = None,
                   full_lines: bool = False) -> Tuple[ProductPoint, ...]:
    """Grid points lying on the two lines through r.

    Order is deterministic: the vertical line first (x fixed to r.x), then the
    horizontal one, with the shared corner emitted once.  With
    full_lines=True, finite component spaces contribute every point of the
    space instead of only grid coordinates; the spaces must then be given.
    """
    ys = grid.ys
    xs = grid.xs
    if full_lines:
        ax = metric.resolve(space_x) if space_x is not None else None
        ay = metric.resolve(space_y) if space_y is not None else None
        if ay is not None and ay.kind == "finite":
            ys = tuple(metric.idx(j) for j in range(ay.size))
        if ax is not None and ax.kind == "finite":
            xs = tuple(metric.idx(j) for j in range(ax.size))
    out = [ProductPoint(r.x, y) for y in ys]
    seen = set(out)
    for x in xs:
        p = ProductPoint(x, r.y)
        if p not in seen:
            out.append(p)
    return tuple(out)
