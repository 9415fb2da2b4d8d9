"""The work function: exact maintenance, slack, domination, extended cost.

W after a request sequence maps each configuration s to the cheapest way of
starting at the origin, serving every request in order, and ending at s.  The
engine keeps W's values on the coordinate grid; every configuration is
dominated by a grid point on the last request's lines, so evaluation anywhere
is an exact minimum over those anchor points.

The update is W_i(s) = min over t serving r_i of W_{i-1}(t) + d(t, s), which
for s = (x, y) is exactly

    W_i(x, y) = min(W_{i-1}(r.x, y) + d_X(r.x, x), W_{i-1}(x, r.y) + d_Y(r.y, y)):

moving t along the line x = r.x from (r.x, y') to (r.x, y) cuts d(t, s) by
d_Y(y', y), and W_{i-1} is 1-Lipschitz, so it grows by at most as much (the
same holds on y = r.y).  W_{i-1} on both lines is a minimum over its anchors.

Internally values are stored as numpy int64 at a fixed per-instance scale
(the lcm of all coordinate and weight denominators), which keeps the update
exact while letting it vectorize.  The public API only speaks Fraction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Optional, Tuple

import numpy as np

from . import pl1d
from .errors import ConfigError, EmptySetError, RequestIndexError, WfalabError
from .exact import common_denominator, frac, scaled_int
from .metric import (IndexPoint, ProductPoint, RealPoint, ResolvedAxis,
                     SpacePoint, product_key)
from .problem import Grid, Instance, RequestPoint, grid_after


@dataclass(frozen=True)
class SlackParam:
    """A slack coefficient, tagged with which role it plays."""

    kind: str
    value: Fraction

    def __post_init__(self) -> None:
        if self.kind not in ("lambda", "mu"):
            raise ConfigError(f"slack parameter kind must be lambda or mu, got {self.kind!r}")
        object.__setattr__(self, "value", frac(self.value))
        if not (0 < self.value < 1):
            raise ConfigError(f"slack parameter must lie in (0, 1), got {self.value}")

    @classmethod
    def lam(cls, value) -> "SlackParam":
        return cls("lambda", value)

    @classmethod
    def mu(cls, value) -> "SlackParam":
        return cls("mu", value)


def _param_value(param) -> Fraction:
    if isinstance(param, SlackParam):
        return param.value
    value = frac(param)
    if not (0 < value <= 1):
        raise ConfigError(f"slack coefficient must lie in (0, 1], got {value}")
    return value


def instance_scale(instance: Instance) -> int:
    """Common denominator of every distance the instance can produce."""
    parts = []
    for axis_idx, resolved in enumerate(instance._axes):
        if resolved.kind == "line":
            coords = [instance.origin.x if axis_idx == 0 else instance.origin.y]
            for r in instance.requests:
                coords.append(r.x if axis_idx == 0 else r.y)
            parts.extend(resolved.weight * c.value for c in coords)
        else:
            for row in resolved.matrix:
                parts.extend(resolved.weight * e for e in row)
    return common_denominator(parts)


class _AxisKit:
    """Scaled-integer positions and distances for one component space.

    A position is a line point's weighted coordinate times the scale, or a
    finite point's index into the scaled table; either sorts like the points.
    Coordinates and table entries are int64, or Python ints with
    dtype=object for callers whose bound shows int64 could overflow.
    """

    def __init__(self, resolved: ResolvedAxis, scale: int, dtype=np.int64):
        self.kind = resolved.kind
        self.weight = resolved.weight
        self.scale = scale
        self.dtype = dtype
        if self.kind == "finite":
            self.D = np.array(
                [[scaled_int(self.weight * e, scale) for e in row]
                 for row in resolved.matrix],
                dtype=dtype)

    def pos(self, points: Iterable[SpacePoint]) -> np.ndarray:
        if self.kind == "line":
            return np.array(
                [scaled_int(p.value * self.weight, self.scale) for p in points],
                dtype=self.dtype)
        return np.array([p.index for p in points], dtype=np.int64)

    def dists(self, apos: np.ndarray, bpos: np.ndarray) -> np.ndarray:
        if self.kind == "line":
            return np.abs(apos[:, None] - bpos[None, :])
        return self.D[np.ix_(apos, bpos)]

    def span(self, pos: np.ndarray) -> int:
        """An upper bound on the distance between two of the positions."""
        if self.kind == "line":
            return int(pos.max()) - int(pos.min())
        return int(self.D.max())


def _added(points: tuple, pos: np.ndarray, p: SpacePoint, q) -> tuple:
    """Sorted grid coordinates and their positions, with p at position q
    put in its place unless already there."""
    k = int(pos.searchsorted(q))
    if k < len(pos) and pos[k] == q:
        return points, pos
    return points[:k] + (p,) + points[k:], np.insert(pos, k, q)


@dataclass(frozen=True, eq=False)
class WorkFunction:
    """W on the grid after i requests: vals[a, b] is scale * W(grid.xs[a],
    grid.ys[b]), and gx, gy are the kits' positions of grid.xs, grid.ys."""

    instance: Instance
    i: int
    grid: Grid
    last_request: Optional[RequestPoint]
    vals: np.ndarray = field(repr=False)
    scale: int
    kits: Tuple[_AxisKit, _AxisKit] = field(repr=False)
    gx: np.ndarray = field(repr=False)
    gy: np.ndarray = field(repr=False)

    # -- derived structure -------------------------------------------------

    @cached_property
    def _xi(self) -> dict:
        return {p: k for k, p in enumerate(self.grid.xs)}

    @cached_property
    def _yi(self) -> dict:
        return {p: k for k, p in enumerate(self.grid.ys)}

    @cached_property
    def _anchor_cells(self) -> tuple:
        """(x indices, y indices, values) of the grid cells on the last
        request's lines (the origin before any), in grid_points_on order,
        less those dominated by another.  Every configuration is dominated
        by one of the rest, so a minimum over them evaluates W anywhere."""
        r = self.instance.origin if self.last_request is None else self.last_request
        xi, yi = self._xi[r.x], self._yi[r.y]
        nx, ny = self.vals.shape
        cx = np.concatenate([np.full(ny, xi), np.delete(np.arange(nx), xi)])
        cy = np.concatenate([np.arange(ny), np.full(nx - 1, yi)])
        av = self.vals[cx, cy]
        kx, ky = self.kits
        px, py = self.gx[cx], self.gy[cy]
        dominated = av[:, None] + kx.dists(px, px) + ky.dists(py, py) <= av[None, :]
        np.fill_diagonal(dominated, False)
        keep = ~dominated.any(axis=0)
        return cx[keep], cy[keep], av[keep]

    @cached_property
    def anchor_points(self) -> Tuple[ProductPoint, ...]:
        """Undominated grid points on the last request's lines."""
        cx, cy, _ = self._anchor_cells
        xs, ys = self.grid.xs, self.grid.ys
        return tuple(ProductPoint(xs[a], ys[b])
                     for a, b in zip(cx.tolist(), cy.tolist()))

    @cached_property
    def anchors(self) -> Tuple[tuple, ...]:
        return tuple((p, Fraction(v, self.scale))
                     for p, v in zip(self.anchor_points,
                                     self._anchor_cells[2].tolist()))

    # -- evaluation --------------------------------------------------------

    def value_at(self, g: ProductPoint) -> Fraction:
        try:
            return Fraction(int(self.vals[self._xi[g.x], self._yi[g.y]]), self.scale)
        except KeyError:
            raise WfalabError(f"{g} is not a grid point") from None

    def evaluate(self, s: ProductPoint) -> Fraction:
        """W at an arbitrary configuration, via the dominating anchors."""
        xi = self._xi.get(s.x)
        if xi is not None:
            yi = self._yi.get(s.y)
            if yi is not None:
                return Fraction(int(self.vals[xi, yi]), self.scale)
        inst = self.instance
        best = None
        for p, v in self.anchors:
            c = v + inst.distance(p, s)
            if best is None or c < best:
                best = c
        return best

    def opt_cost(self) -> Fraction:
        """min over all configurations of W; the offline optimum so far."""
        return Fraction(int(self.vals.min()), self.scale)

    def dominates(self, t: ProductPoint, s: ProductPoint) -> bool:
        """True when W(s) = W(t) + d(t, s)."""
        return self.evaluate(s) == self.evaluate(t) + self.instance.distance(t, s)

    # -- update ------------------------------------------------------------

    def update(self, r: RequestPoint) -> "WorkFunction":
        """W after r as well, by the recurrence in the module docstring."""
        inst = self.instance
        if self.i >= inst.n or inst.requests[self.i] != r:
            raise RequestIndexError(
                f"request {r} is not request #{self.i} of the instance")
        kx, ky = self.kits
        rx, ry = kx.pos([r.x]), ky.pos([r.y])
        xs, gx = _added(self.grid.xs, self.gx, r.x, rx[0])
        ys, gy = _added(self.grid.ys, self.gy, r.y, ry[0])
        cx, cy, av = self._anchor_cells
        # Every sum below is an anchor value plus at most two distances per
        # axis between new-grid positions.
        if int(av.max()) + 2 * (kx.span(gx) + ky.span(gy)) >= 2 ** 62:
            raise WfalabError("work-function values overflow the integer kernel")
        apx, apy = self.gx[cx], self.gy[cy]
        on_v = ((av + kx.dists(apx, rx)[:, 0])[:, None] + ky.dists(apy, gy)).min(axis=0)
        on_h = ((av + ky.dists(apy, ry)[:, 0])[:, None] + kx.dists(apx, gx)).min(axis=0)
        vals = np.minimum(kx.dists(rx, gx)[0][:, None] + on_v[None, :],
                          on_h[:, None] + ky.dists(ry, gy)[0][None, :])
        return WorkFunction(inst, self.i + 1, Grid(xs, ys), r, vals, self.scale,
                            self.kits, gx, gy)

    # -- slack -------------------------------------------------------------

    def _line_candidates(self, s: ProductPoint, r: RequestPoint) -> list:
        """Points where min over r's lines of W(t) + p*d(t, s) can be attained."""
        ax, ay = self.instance._axes
        out = []
        if ay.kind == "finite":
            out.extend(ProductPoint(r.x, IndexPoint(j)) for j in range(ay.size))
        else:
            out.extend(ProductPoint(r.x, y) for y in self.grid.ys)
            out.append(ProductPoint(r.x, s.y))
        if ax.kind == "finite":
            out.extend(ProductPoint(IndexPoint(j), r.y) for j in range(ax.size))
        else:
            out.extend(ProductPoint(x, r.y) for x in self.grid.xs)
            out.append(ProductPoint(s.x, r.y))
        seen = set()
        uniq = []
        for p in out:
            if p not in seen:
                seen.add(p)
                uniq.append(p)
        return uniq

    def slack(self, s: ProductPoint, C, param) -> Fraction:
        """min over t in C of W(t) + p*d(t, s), minus W(s).

        C may be a single point, a finite iterable of points, a request
        (meaning both its lines), or a region from the potential module.
        """
        p = _param_value(param)
        if isinstance(C, ProductPoint):
            pts = [C]
        elif isinstance(C, RequestPoint):
            pts = self._line_candidates(s, C)
        else:
            from .potential import Boks, Spheres, region_slack  # avoids a cycle

            if isinstance(C, (Boks, Spheres)):
                return region_slack(self, s, C, param)
            pts = list(C)
        if not pts:
            raise EmptySetError("slack needs a non-empty comparison set")
        inst = self.instance
        best = min(self.evaluate(t) + p * inst.distance(t, s) for t in pts)
        return best - self.evaluate(s)

    # -- extended cost -----------------------------------------------------

    def extended_cost(self, r_next: RequestPoint, lam) -> tuple:
        """max over all configurations of the slack against r_next's lines.

        Every configuration is dominated by a point of the last request's
        lines and slack only grows along dominations, so the outer maximum is
        taken there (over the origin alone before the first request).
        Returns (value, witness); tie on value picks the lexicographically
        smallest witness.
        """
        lam = _param_value(lam)
        if self.i == 0:
            o = self.instance.origin
            return self.slack(o, r_next, lam), o
        best = None
        witness = None
        for fixed in ("x", "y"):
            v, w = self._line_max(fixed, r_next, lam)
            if best is None or v > best or (v == best and product_key(w) < product_key(witness)):
                best, witness = v, w
        return best, witness

    def _line_max(self, fixed: str, r_next: RequestPoint, lam: Fraction) -> tuple:
        """Maximize s -> slack(s; r_next) over one line of the last request."""
        inst = self.instance
        ax, ay = inst._axes
        r_prev = self.last_request
        varying = ay if fixed == "x" else ax

        if varying.kind == "finite":
            best = None
            witness = None
            for j in range(varying.size):
                s = (ProductPoint(r_prev.x, IndexPoint(j)) if fixed == "x"
                     else ProductPoint(IndexPoint(j), r_prev.y))
                v = self.slack(s, r_next, lam)
                if best is None or v > best:
                    best, witness = v, s
            return best, witness

        # Continuous case: build exact piecewise-linear functions of the free
        # coordinate and maximize their difference.
        w_var = varying.weight
        if fixed == "x":
            fix_prev, fix_next = r_prev.x, r_next.x
            var_next = r_next.y
            d_fix = inst.distance_x
            d_var = inst.distance_y
            a_fix = lambda p: p.x
            a_var = lambda p: p.y
        else:
            fix_prev, fix_next = r_prev.y, r_next.y
            var_next = r_next.x
            d_fix = inst.distance_y
            d_var = inst.distance_x
            a_fix = lambda p: p.y
            a_var = lambda p: p.x

        w_restr = pl1d.cone_envelope(
            (a_var(p).value, v + d_fix(a_fix(p), fix_prev), w_var)
            for p, v in self.anchors)
        shift = lam * d_fix(fix_next, fix_prev)
        inner_same = pl1d.cone_envelope(
            (a_var(p).value, v + d_fix(a_fix(p), fix_next) + shift, lam * w_var)
            for p, v in self.anchors)
        k_cross = min(v + d_var(a_var(p), var_next) + lam * d_fix(a_fix(p), fix_prev)
                      for p, v in self.anchors)
        inner_cross = pl1d.cone(var_next.value, k_cross, lam * w_var)
        inner = pl1d.pointwise_min(inner_same, inner_cross)
        value, arg = pl1d.max_difference(inner, w_restr, None)
        s = (ProductPoint(fix_prev, RealPoint(arg)) if fixed == "x"
             else ProductPoint(RealPoint(arg), fix_prev))
        return value, s


def initial(instance: Instance) -> WorkFunction:
    """W of the empty sequence: distance from the origin."""
    grid = grid_after(instance, 0)
    scale = instance_scale(instance)
    ax, ay = instance._axes
    kx, ky = _AxisKit(ax, scale), _AxisKit(ay, scale)
    vals = np.zeros((len(grid.xs), len(grid.ys)), dtype=np.int64)
    return WorkFunction(instance, 0, grid, None, vals, scale, (kx, ky),
                        kx.pos(grid.xs), ky.pos(grid.ys))
