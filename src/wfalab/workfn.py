"""The work function: exact maintenance, slack, domination, extended cost.

W after a request sequence maps each configuration s to the cheapest way of
starting at the origin, serving every request in order, and ending at s.  The
engine stores W only on the last request's two lines, at the grid's
coordinates: every configuration is dominated by such a point, so W
anywhere, the grid's full table included, is an exact minimum over those
that no other dominates (the anchors).

The update is W_i(s) = min over t serving r_i of W_{i-1}(t) + d(t, s), which
for s = (x, y) is exactly

    W_i(x, y) = min(W_{i-1}(r.x, y) + d_X(r.x, x), W_{i-1}(x, r.y) + d_Y(r.y, y)):

moving t along the line x = r.x from (r.x, y') to (r.x, y) cuts d(t, s) by
d_Y(y', y), and W_{i-1} is 1-Lipschitz, so it grows by at most as much (the
same holds on y = r.y).  On r's own lines the other term is never smaller,
so W_i there is W_{i-1} there: update stores W_{i-1} at the new grid's cells
on r's lines, the minimum over the previous anchors (_w_at).

The extended cost against the next request r' is the maximum over s of the
slack, min over t serving r' of W(t) + lam*d(t, s) minus W(s), taken on the
last request r's lines.  On the line s = (r.x, z) (the other swaps the axes),
with a over the anchors and v_a their values, the slack is f(z) - g(z):

    g(z) = min_a [v_a + d_X(a.x, r.x) + d_Y(a.y, z)]                  (= W(s))
    f(z) = min(min_a [v_a + d_X(a.x, r'.x) + lam*d_X(r'.x, r.x) + lam*d_Y(a.y, z)],
               k + lam*d_Y(r'.y, z))
    k    = min_a [v_a + d_Y(a.y, r'.y) + lam*d_X(a.x, r.x)]

(lam <= 1 puts the best t on x = r'.x level with an anchor, and the best t
on y = r'.y at x = a.x).  On a finite axis z runs over every point.  On a
line g and f are lower envelopes of cones of slope 1 and lam.  Between
consecutive apexes p < p' an envelope is the minimum of one rising line (its
cones with apex <= p) and one falling line (apex >= p'), so it bends only
where those cross.  f - g is thus linear between consecutive apexes and
crossings, and no larger beyond the outermost apexes (slope lam - 1 <= 0
outward): its maximum is at one of them.  Positions and values scaled by
2*num(lam), and f by den(lam), make each of them an integer.  g and the
apexes do not depend on lam, so extended_costs runs the kernel for several
lambdas at once, one row per lambda at its own scale.

Internally values are integers at a fixed per-instance scale (the lcm of
all coordinate and weight denominators), int64 where a kernel has headroom
and Python ints otherwise.  Kernels work on integer positions (gx, gy, the
anchors', the last request's _at); grid indices (xr, yr) only lay out lines
(_line_cells).  _points turns positions into points, and W anywhere is the
minimum over the anchors (_w_at).  The public API only speaks Fraction.
"""

from __future__ import annotations

import copy
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from operator import attrgetter
from typing import Iterable, Optional, Tuple

import numpy as np

from .errors import ConfigError, EmptySetError, RequestIndexError, WfalabError
from .exact import common_denominator, frac, scaled_int
from .metric import (IndexPoint, ProductPoint, RealPoint, ResolvedAxis,
                     SpacePoint, check_point, product_key)
from .problem import Grid, Instance, RequestPoint, grid_after, grid_points_on


# An int64 kernel keeps every value below this, so a sum of two stays in range.
_HEADROOM = 2 ** 62


def _int_dtype(bound: int):
    return np.int64 if bound < _HEADROOM else object


def _param_value(param) -> Fraction:
    value = frac(param)
    if not (0 < value <= 1):
        raise ConfigError(f"slack coefficient must lie in (0, 1], got {value}")
    return value


def instance_scale(instance: Instance) -> int:
    """Common denominator of every distance the instance can produce."""
    pts = (instance.origin, *instance.requests)
    parts = []
    for resolved, coords in zip(instance._axes, ([p.x for p in pts], [p.y for p in pts])):
        if resolved.kind == "line":
            parts += [resolved.weight * c.value for c in coords]
        else:
            parts += [resolved.weight * e for row in resolved.matrix for e in row]
    return common_denominator(parts)


class _AxisKit:
    """Scaled-integer positions and distances for one component space.

    A position is a line point's weighted coordinate times the scale, or a
    finite point's index into the scaled table; either sorts like the points.
    Positions and table entries are int64; refine takes them to a multiple
    of the scale, and to Python ints (object) for callers whose bound shows
    int64 could overflow.  On a finite space near[p] lists every point by
    distance from p, ties by index.
    """

    def __init__(self, resolved: ResolvedAxis, scale: int):
        self.kind = resolved.kind
        self.weight = resolved.weight
        self.scale = scale
        if self.kind == "finite":
            self.D = np.array(
                [[scaled_int(self.weight * e, scale) for e in row]
                 for row in resolved.matrix],
                dtype=np.int64)
            # A Python sort: numpy's first sort in a process maps 0.4 MB more code.
            self.near = np.array([sorted(range(len(row)), key=row.__getitem__)
                                  for row in self.D.tolist()])

    def pos(self, points: Iterable[SpacePoint]) -> np.ndarray:
        """The points' positions; a line position of 2**62 or more in
        magnitude raises, as no int64 kernel has headroom for it."""
        if self.kind == "finite":
            return np.array([p.index for p in points], dtype=np.int64)
        out = []
        for p in points:
            q = scaled_int(p.value * self.weight, self.scale)
            if abs(q) >= _HEADROOM:
                raise WfalabError(f"coordinate {p.value} overflows the integer "
                                  f"kernel at scale {self.scale}")
            out.append(q)
        return np.array(out, dtype=np.int64)

    def dist(self, a, b):
        """The distance between positions a and b, elementwise under numpy
        broadcasting: numbers, or arrays of any shapes that broadcast."""
        if self.kind == "finite":
            return self.D[a, b]
        d = a - b
        return np.abs(d, out=d) if isinstance(d, np.ndarray) else abs(d)

    def span(self, pos: np.ndarray) -> int:
        """An upper bound on the distance between two of the positions."""
        if self.kind == "line":
            return int(pos.max()) - int(pos.min())
        return int(self.D.max())

    def reach(self, m: int, pos: np.ndarray, fine) -> int:
        """An upper bound on the distance between one of pos, taken to m
        times the scale, and one of fine, already there."""
        if self.kind == "finite":
            return m * int(self.D.max())
        return m * int(np.abs(pos).max()) + int(np.abs(np.asarray(fine)).max())

    def point(self, q, m: int = 1) -> SpacePoint:
        """The point at position q, given at m times the scale; the inverse
        of pos."""
        if self.kind == "line":
            return RealPoint(Fraction(int(q), self.scale * m) / self.weight)
        return IndexPoint(int(q))

    def refine(self, m: int, dtype, pos: np.ndarray) -> tuple:
        """This kit at m times the scale in dtype, and its positions pos in
        it.  A line's positions scale; a finite space's stay indices and its
        table scales, so only a finite kit is copied."""
        if self.kind == "line":
            pos = pos.astype(dtype, copy=False)
            return self, pos * m if m > 1 else pos
        if m == 1 and self.D.dtype == dtype:
            return self, pos
        fine = copy.copy(self)
        fine.D = self.D.astype(dtype) * m
        return fine, pos

    def peaks(self, P: np.ndarray, envelopes) -> np.ndarray:
        """Positions where a difference of lower envelopes of cones can peak:
        all of a finite space; on a line, for each row of positions P (a row
        per multiple of the scale), each envelope's apexes and its crossings
        between consecutive apexes, integers when every offset +- slope *
        apex is a multiple of 2 * slope.  An envelope is (count, offsets,
        slopes): its apexes are the first count of P's columns, its offsets
        a row per row of P, its slopes a column or a number."""
        if self.kind == "finite":
            return np.arange(len(self.D))
        # A Python sort: numpy's first sort in a process maps 0.4 MB more code.
        order = np.array(sorted(range(P.shape[1]), key=P[0].tolist().__getitem__))
        parts = []
        for count, off, c in envelopes:
            at = order if count == len(order) else order[order < count]
            apex, off = P.take(at, axis=1), off.take(at, axis=1)
            tilt = c * apex
            rising = np.minimum.accumulate(off - tilt, axis=1)
            falling = np.minimum.accumulate((off + tilt)[:, ::-1], axis=1)[:, ::-1]
            cross = (falling[:, 1:] - rising[:, :-1]) // (2 * c)
            parts += [apex, np.minimum(np.maximum(cross, apex[:, :-1]), apex[:, 1:])]
        return np.concatenate(parts, axis=1)


def _column(values: list, dtype):
    """values down a column, to broadcast one per row; a single value stays
    a number, which numpy broadcasts faster than a 1 x 1 array."""
    if len(values) == 1:
        return values[0]
    return np.array(values, dtype=dtype)[:, None]


def _added(points: tuple, pos: np.ndarray, p: SpacePoint, q) -> tuple:
    """Sorted grid coordinates and their positions, with p at position q
    put in its place unless already there, and p's index among them."""
    k = int(pos.searchsorted(q))
    if k < len(pos) and pos[k] == q:
        return points, pos, k
    return points[:k] + (p,) + points[k:], np.concatenate([pos[:k], [q], pos[k:]]), k


def _line_cells(nx: int, ny: int, xr: int, yr: int) -> tuple:
    """(x indices, y indices) of the cells of an nx x ny grid on the lines
    through cell (xr, yr), in grid_points_on order: the vertical line's
    first."""
    return (np.concatenate([np.full(ny, xr), np.delete(np.arange(nx), xr)]),
            np.concatenate([np.arange(ny), np.full(nx - 1, yr)]))


def _rescale(a: np.ndarray, ratio: Fraction, what: str) -> np.ndarray:
    """a times ratio, exactly and below 2**62.  When both scales hold every
    entry exactly, each is a multiple of ratio's denominator."""
    q, rest = np.divmod(a, ratio.denominator)
    if rest.any():
        raise WfalabError(f"{what} are not exact at the new scale")
    if int(np.abs(q).max()) * ratio.numerator >= _HEADROOM:
        raise WfalabError(f"{what} overflow the integer kernel")
    return q * ratio.numerator


def _find(points: tuple, p: SpacePoint) -> Optional[int]:
    """Index of p among sorted grid coordinates (of one kind), None when it
    is not one."""
    if type(points[0]) is not type(p):
        return None
    key = attrgetter("value" if isinstance(p, RealPoint) else "index")
    k = bisect_left(points, key(p), key=key)
    return k if k < len(points) and points[k] == p else None


@dataclass(frozen=True, eq=False)
class WorkFunction:
    """W after i requests, stored on the last request's lines (the origin's
    before any): lines[k] is scale * W at grid cell (_line_cells[0][k],
    _line_cells[1][k]), the vertical line's cells first.  gx, gy are the
    kits' positions of grid.xs, grid.ys, and xr, yr index the last request's
    coordinates in them.  W anywhere else is a minimum over the anchors."""

    instance: Instance
    i: int
    grid: Grid
    last_request: Optional[RequestPoint]
    lines: np.ndarray = field(repr=False)
    scale: int
    kits: Tuple[_AxisKit, _AxisKit] = field(repr=False)
    gx: np.ndarray = field(repr=False)
    gy: np.ndarray = field(repr=False)
    xr: int
    yr: int

    # -- derived structure -------------------------------------------------

    @cached_property
    def _line_cells(self) -> tuple:
        """(x indices, y indices) of the grid cells on the last request's
        lines (the origin's before any), in grid_points_on order."""
        return _line_cells(len(self.gx), len(self.gy), self.xr, self.yr)

    @property
    def _at(self) -> tuple:
        """The last request's positions (the origin's before any)."""
        return int(self.gx[self.xr]), int(self.gy[self.yr])

    @cached_property
    def _anchor_cells(self) -> tuple:
        """(x positions, y positions, values) of the grid cells on the last
        request's lines, in grid_points_on order, less those dominated by
        another.  Every configuration is dominated by one of the rest, so a
        minimum over them evaluates W anywhere."""
        cx, cy = self._line_cells
        kx, ky = self.kits
        px, py = self.gx[cx], self.gy[cy]
        # Each distance fits int64; their sum with a value takes Python ints
        # when its own bound shows int64 could overflow.
        dtype = _int_dtype(int(self.lines.max()) + kx.span(px) + ky.span(py))
        av = self.lines.astype(dtype, copy=False)
        t = kx.dist(px[:, None], px).astype(dtype, copy=False)
        t += ky.dist(py[:, None], py)
        t += av[:, None]
        dominated = t <= av[None, :]
        np.fill_diagonal(dominated, False)
        keep = ~dominated.any(axis=0)
        return px[keep], py[keep], av[keep]

    @cached_property
    def anchor_points(self) -> Tuple[ProductPoint, ...]:
        """Undominated grid points on the last request's lines."""
        return self._points(*self._anchor_cells[:2])

    def _points(self, X: np.ndarray, Y: np.ndarray) -> Tuple[ProductPoint, ...]:
        """The points at position arrays X, Y at the work function's scale;
        on a line axis each position is one of the grid's."""
        cols = [[coords[k] for k in g.searchsorted(P).tolist()] if kit.kind == "line"
                else [IndexPoint(q) for q in P.tolist()]
                for kit, g, coords, P in zip(self.kits, (self.gx, self.gy),
                                             (self.grid.xs, self.grid.ys), (X, Y))]
        return tuple(ProductPoint(x, y) for x, y in zip(*cols))

    @cached_property
    def anchors(self) -> Tuple[tuple, ...]:
        return tuple((p, Fraction(v, self.scale))
                     for p, v in zip(self.anchor_points,
                                     self._anchor_cells[2].tolist()))

    # -- evaluation --------------------------------------------------------

    def _locate(self, s: ProductPoint) -> tuple:
        """(m, (x, y), (a, b)): s's positions at m times the scale, m the
        least factor that makes both integers, and the grid indices of its
        coordinates (None off the grid).  A grid coordinate's position is
        read from gx or gy, so a grid point converts nothing."""
        a, b = _find(self.grid.xs, s.x), _find(self.grid.ys, s.y)
        if a is not None and b is not None:
            return 1, (int(self.gx[a]), int(self.gy[b])), (a, b)
        inst = self.instance
        exact = []
        for space, kit, g, p, k in zip((inst.space_x, inst.space_y), self.kits,
                                       (self.gx, self.gy), (s.x, s.y), (a, b)):
            if k is not None:
                exact.append(Fraction(int(g[k])))
            else:
                check_point(space, p)
                exact.append(Fraction(p.index) if kit.kind == "finite"
                             else p.value * kit.weight * self.scale)
        m = common_denominator(exact)
        # refine() leaves finite positions as indices.
        return m, tuple(int(v if kit.kind == "finite" else v * m)
                        for kit, v in zip(self.kits, exact)), (a, b)

    def _w_at(self, m: int, X, Y) -> np.ndarray:
        """m * scale * W at the positions X, Y, given at m times the scale:
        the minimum over the anchors of v + d, in Python ints when int64
        could overflow."""
        ax, ay, av = self._anchor_cells
        axes = [(kit, g, np.asarray(P)) for kit, g, P in
                zip(self.kits, (ax, ay), (X, Y))]
        big = m * int(av.max()) + sum(kit.reach(m, g, P) for kit, g, P in axes)
        dtype = _int_dtype(big)
        W = av.astype(dtype)[:, None] * m
        for kit, g, P in axes:
            fine, G = kit.refine(m, dtype, g)
            W = W + fine.dist(G[:, None], P)
        return W.min(axis=0)

    def evaluate(self, s: ProductPoint) -> Fraction:
        """W at an arbitrary configuration, via the dominating anchors; in
        Fraction, so the tests' oracles do not run through _w_at."""
        return min(v + self.instance.distance(p, s) for p, v in self.anchors)

    def opt_cost(self) -> Fraction:
        """min over all configurations of W; the offline optimum so far,
        attained at an anchor."""
        return Fraction(int(self.lines.min()), self.scale)

    def dominates(self, t: ProductPoint, s: ProductPoint) -> bool:
        """True when W(s) = W(t) + d(t, s)."""
        return self.evaluate(s) == self.evaluate(t) + self.instance.distance(t, s)

    # -- update ------------------------------------------------------------

    def update(self, r: RequestPoint) -> "WorkFunction":
        """W after r as well: on r's lines, W before r (module docstring)."""
        inst = self.instance
        if self.i >= inst.n or inst.requests[self.i] != r:
            raise RequestIndexError(
                f"request {r} is not request #{self.i} of the instance")
        kx, ky = self.kits
        xs, gx, xr = _added(self.grid.xs, self.gx, r.x, kx.pos([r.x])[0])
        ys, gy, yr = _added(self.grid.ys, self.gy, r.y, ky.pos([r.y])[0])
        cx, cy = _line_cells(len(gx), len(gy), xr, yr)
        return WorkFunction(inst, self.i + 1, Grid(xs, ys), r,
                            self._w_at(1, gx[cx], gy[cy]), self.scale,
                            self.kits, gx, gy, xr, yr)

    def rescaled(self, instance: Instance) -> "WorkFunction":
        """W after the same i requests, as a work function of instance.

        W after a request sequence depends on that sequence alone, so when
        instance has this one's spaces, origin and first i requests, its W
        after i requests is this one on the same grid.  Only the integer
        scale differs: the values and line positions move to
        instance_scale(instance) by the integer ratio of the scales, finite
        positions stay indices, and the kits are rebuilt there as initial()
        builds them.
        """
        mine = self.instance
        prefix = (instance.space_x, instance.space_y, instance.origin,
                  instance.requests[:self.i])
        if prefix != (mine.space_x, mine.space_y, mine.origin,
                      mine.requests[:self.i]):
            raise ConfigError(
                f"the instance does not share the first {self.i} requests")
        scale = instance_scale(instance)
        ratio = Fraction(scale, self.scale)
        lines = _rescale(self.lines, ratio, "work-function values")
        ax, ay = instance._axes
        kx, ky = _AxisKit(ax, scale), _AxisKit(ay, scale)
        gx, gy = (g if kit.kind == "finite" else _rescale(g, ratio, "grid positions")
                  for kit, g in zip((kx, ky), (self.gx, self.gy)))
        return WorkFunction(instance, self.i, self.grid, self.last_request,
                            lines, scale, (kx, ky), gx, gy, self.xr, self.yr)

    # -- slack -------------------------------------------------------------

    def slack(self, s: ProductPoint, C, param) -> Fraction:
        """min over t in C of W(t) + p*d(t, s), minus W(s).

        C may be a single point, a finite iterable of points, or a request
        (its lines, whose minimum is at a grid point, any point of a finite
        axis, or level with s).  potential.region_slack takes regions.
        """
        p = _param_value(param)
        inst = self.instance
        if isinstance(C, ProductPoint):
            pts = [C]
        elif isinstance(C, RequestPoint):
            pts = list(dict.fromkeys(
                grid_points_on(self.grid, C, inst.space_x, inst.space_y, full_lines=True)
                + (ProductPoint(C.x, s.y), ProductPoint(s.x, C.y))))
        else:
            pts = list(C)
        if not pts:
            raise EmptySetError("slack needs a non-empty comparison set")
        best = min(self.evaluate(t) + p * inst.distance(t, s) for t in pts)
        return best - self.evaluate(s)

    # -- extended cost -----------------------------------------------------

    def extended_cost(self, r_next: RequestPoint, lam) -> tuple:
        """max over all configurations of the slack against r_next's lines.

        Every configuration is dominated by a point of the last request's
        lines (the origin's before the first request) and slack only grows
        along dominations, so the outer maximum is taken there, by the kernel
        of the module docstring.  The witness is each line's smallest
        maximizing candidate, then the lexicographically smaller; only at
        lam = 1 can it differ from pl1d's, which reports a maximum on a flat
        left tail at the tail's right end, not at the smallest cone apex.
        """
        return self.extended_costs(r_next, [lam])[0]

    def extended_costs(self, r_next: RequestPoint, lams) -> list:
        """[extended_cost(r_next, lam) for lam in lams], in one kernel pass
        per line: row l of the pass is lams[l] at its own scale."""
        lams = [_param_value(lam) for lam in lams]
        kx, ky = self.kits
        nxt = (kx.pos([r_next.x])[0], ky.pos([r_next.y])[0])
        return [min(pair, key=lambda vw: (-vw[0], product_key(vw[1])))
                for pair in zip(self._line_max("x", nxt, lams),
                                self._line_max("y", nxt, lams))]

    def _line_max(self, fixed: str, nxt: tuple, lams: list) -> list:
        """max of f - g (module docstring), with its witness, for each lam in
        lams on the last request's line whose `fixed` coordinate is the
        request's; u is that axis, v the other.  nxt holds the next request's
        positions, one per axis.  Row l works at m = 2 * num(lams[l])
        times the scale, and f at den(lams[l]) times that."""
        ax, ay, w = self._anchor_cells
        axes = [(self.kits[0], ax, self.grid.xs[self.xr], self._at[0], nxt[0]),
                (self.kits[1], ay, self.grid.ys[self.yr], self._at[1], nxt[1])]
        (ku, apu, u_prev, u_at, u_next), (kv, apv, _, _, v_next) = (
            axes if fixed == "x" else axes[::-1])
        du = ku.dist(apu[:, None], np.array([u_at, u_next]))  # to r_prev.u, r_next.u
        shift = int(ku.dist(u_next, u_at))
        vpos = np.append(apv, v_next)  # the cone apexes, r_next.v's last
        dv = kv.dist(apv, v_next)
        # Every term of row l is under q * m * big in magnitude, every
        # difference under twice that; positions enter the crossings, spans
        # the sums.
        big = (int(w.max()) + int(du.max()) + shift + 2 * kv.span(vpos)
               + int(np.abs(vpos).max()))
        reach = max(4 * lam.numerator * lam.denominator for lam in lams)
        dtype = _int_dtype(reach * big)
        p, q = (_column([getattr(lam, part) for lam in lams], dtype)
                for part in ("numerator", "denominator"))
        # Row l is at m = 2 * p times the scale on a line.  A finite axis has
        # no crossings to make integers, so it keeps m = 1, and its
        # positions stay indices.
        line = kv.kind == "line"
        m = 2 * p if line else 1
        w, du0, du1, dv = (a.astype(dtype, copy=False)[None]
                           for a in (w, du[:, 0], du[:, 1], dv))
        V = vpos.astype(dtype, copy=False)[None] * m if line else vpos[None]
        g_off = m * (w + du0)
        mp, mq = m * p, m * q
        f_off = np.concatenate([mq * (w + du1) + mp * shift,
                                (mq * (w + dv) + mp * du0).min(axis=1, keepdims=True)],
                               axis=1)
        z = kv.peaks(V, [(len(apv), g_off, 1), (len(vpos), f_off, p)])
        d = kv.dist(V[..., None], z[..., None, :]).astype(dtype, copy=False)
        g = (g_off[:, :, None] + d[:, :-1]).min(axis=1)
        f = (f_off[:, :, None]
             + d * (p[:, :, None] if isinstance(p, np.ndarray) else p)).min(axis=1)
        h = f - q * g
        out = []
        zs = z.tolist() if line else [z.tolist()] * len(lams)
        for lam, best, zl, hl in zip(lams, h.max(axis=1).tolist(), zs, h.tolist()):
            mm = 2 * lam.numerator if line else 1
            s = kv.point(min(c for c, v in zip(zl, hl) if v == best), mm)
            out.append((Fraction(int(best), self.scale * mm * lam.denominator),
                        ProductPoint(u_prev, s) if fixed == "x" else ProductPoint(s, u_prev)))
        return out


def initial(instance: Instance) -> WorkFunction:
    """W of the empty sequence: distance from the origin."""
    grid = grid_after(instance, 0)
    scale = instance_scale(instance)
    ax, ay = instance._axes
    kx, ky = _AxisKit(ax, scale), _AxisKit(ay, scale)
    return WorkFunction(instance, 0, grid, None, np.zeros(1, dtype=np.int64),
                        scale, (kx, ky), kx.pos(grid.xs), ky.pos(grid.ys), 0, 0)
