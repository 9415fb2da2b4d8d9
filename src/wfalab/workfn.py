"""The work function: exact maintenance, slack, domination, extended cost.

W after a request sequence maps each configuration s to the cheapest way of
starting at the origin, serving every request in order, and ending at s.  The
engine stores W only on the last request's two lines, at the grid's
coordinates: every configuration is dominated by such a point, so W
anywhere, the grid's full table included, is an exact minimum over those
that no other dominates (the anchors).

The anchors take one sweep per line, with no table of pairs.  Along a line
axis, with p its cells' positions in ascending order and v their values, a
cell j left of cell k dominates it when v_j - p_j <= v_k - p_k, and one
right of it when v_j + p_j <= v_k + p_k: prefix minima of v - p and suffix
minima of v + p (_sweep, the 1-D L1 distance transform) settle every cell in
O(L).  The other line's cells reach a cell only through the lines'
crossing, so that line's least value plus distance to the crossing settles
them all at once.  A finite axis's few cells are compared pairwise.

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
2*num(lam), and f by den(lam), make each of them an integer.  The rising and
falling lines are _sweep's prefix and suffix minima over the apexes in
ascending order, so the candidates come in O(A) for A anchors, and each
envelope is evaluated at one by bisection among the apexes (_cones): O(A log
A) per lambda.  The offsets and the apexes' order do not depend on lam, so
extended_costs computes them once per line for all its lambdas.

Internally values are integers at a fixed per-instance scale (the lcm of
all coordinate and weight denominators), int64 where a numpy kernel has
headroom and Python ints otherwise; the anchor and extended-cost sweeps run
in Python ints, which are exact at any magnitude.  Kernels work on integer
positions (gx, gy, the anchors', the last request's _at); grid indices (xr,
yr) only lay out lines (_line_cells).  _points turns positions into points, and W anywhere is the
minimum over the anchors (_w_at).  The public API only speaks Fraction.
"""

from __future__ import annotations

import copy
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, compress
from operator import add, attrgetter
from typing import Iterable, Optional, Tuple

import numpy as np

from .errors import (ConfigError, EmptySetError, HeadroomError,
                     RequestIndexError, WfalabError)
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
        magnitude raises HeadroomError, as no int64 kernel has headroom for
        it."""
        if self.kind == "finite":
            return np.array([p.index for p in points], dtype=np.int64)
        out = []
        for p in points:
            q = scaled_int(p.value * self.weight, self.scale)
            if abs(q) >= _HEADROOM:
                raise HeadroomError(f"coordinate {p.value} overflows the integer "
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


def _sweep(pos: list, off: list, c: int = 1) -> tuple:
    """(rise, fall) over positions pos, ascending, with offsets off:
    rise[k] is the least off[j] - c*pos[j] over j <= k, fall[k] the least
    off[j] + c*pos[j] over j >= k.  Between pos[k] and pos[k + 1] the lower
    envelope of the cones off[j] + c*|z - pos[j]| is thus
    min(rise[k] + c*z, fall[k + 1] - c*z)."""
    rise = list(accumulate([o - c * p for p, o in zip(pos, off)], min))
    fall = list(accumulate([o + c * p for p, o in zip(reversed(pos), reversed(off))],
                           min))
    fall.reverse()
    return rise, fall


def _cones(pos: list, off: list, c: int) -> tuple:
    """The lower envelope of the cones off[k] + c*|z - pos[k]|, pos
    ascending, as (its value at an integer z, the integers where it can
    bend): the apexes, and between consecutive apexes the floor of where
    the rising and the falling line cross, clamped to them."""
    rise, fall = _sweep(pos, off, c)
    n = len(pos)

    def at(z: int) -> int:
        k = bisect_right(pos, z)
        if k == 0:
            return fall[0] - c * z
        if k == n:
            return rise[-1] + c * z
        return min(rise[k - 1] + c * z, fall[k] - c * z)

    return at, pos + [min(max((fall[k + 1] - rise[k]) // (2 * c), pos[k]), pos[k + 1])
                      for k in range(n - 1)]


def _undominated(kit: _AxisKit, pos: list, vals: list, to_corner: list, via) -> list:
    """Whether each cell of one request line, at positions pos along it
    (ascending on a line axis) with values vals, is dominated by no other
    cell: of its own line, by the sweeps on a line axis, pairwise over the
    few points of a finite one; of the other line, through the lines'
    crossing, to_corner[k] from cell k, which that line reaches at value via
    at best (None when it has no cells)."""
    n = len(pos)
    if kit.kind == "finite":
        D = kit.D.tolist()
        keep = [all(vals[j] + D[pos[j]][p] > v for j in range(n) if j != k)
                for k, (p, v) in enumerate(zip(pos, vals))]
    else:
        # Cell j dominates a cell k to its right when v_j - p_j <= v_k - p_k,
        # and one to its left when v_j + p_j <= v_k + p_k.
        rise, fall = _sweep(pos, vals)
        keep = [(k == 0 or rise[k - 1] > v - p) and (k == n - 1 or fall[k + 1] > v + p)
                for k, (p, v) in enumerate(zip(pos, vals))]
    if via is None:
        return keep
    return [k and via + d > v for k, d, v in zip(keep, to_corner, vals)]


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
    """a times ratio, exactly: int64 below 2**62, Python ints otherwise.
    When both scales hold every entry exactly, each is a multiple of ratio's
    denominator; // and % take int64 and Python-int entries alike."""
    q, rest = a // ratio.denominator, a % ratio.denominator
    if rest.any():
        raise WfalabError(f"{what} are not exact at the new scale")
    dtype = _int_dtype(int(np.abs(q).max()) * ratio.numerator)
    return q.astype(dtype, copy=False) * ratio.numerator


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
        minimum over them evaluates W anywhere.  The values keep lines'
        dtype."""
        kx, ky = self.kits
        x0, y0 = self._at
        # The vertical line's cells, then the horizontal line's but the
        # crossing, which the vertical line holds.
        gx = np.delete(self.gx, self.xr)
        xs, ys, vals = gx.tolist(), self.gy.tolist(), self.lines.tolist()
        ny = len(ys)
        vert, hor = vals[:ny], vals[ny:]
        dx, dy = kx.dist(gx, x0).tolist(), ky.dist(self.gy, y0).tolist()
        keep = (_undominated(ky, ys, vert, dy, min(map(add, hor, dx), default=None))
                + _undominated(kx, xs, hor, dx, min(map(add, vert, dy))))
        return (np.array(list(compress([x0] * ny + xs, keep)), dtype=np.int64),
                np.array(list(compress(ys + [y0] * len(xs), keep)), dtype=np.int64),
                np.array(list(compress(vals, keep)), dtype=self.lines.dtype))

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
        builds them.  A line position of 2**62 or more there raises
        HeadroomError, as _AxisKit.pos does.
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
        if object in (gx.dtype, gy.dtype):
            raise HeadroomError(f"grid positions overflow the integer kernel "
                                f"at scale {scale}")
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
        """[extended_cost(r_next, lam) for lam in lams], each lam at its own
        scale, from one pass per line over what no lam changes."""
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
        positions, one per axis.  For lam = p/q the kernel works at m = 2p
        times the scale on a line axis (1 on a finite one), and f at q times
        that, in Python ints."""
        ax, ay, w = self._anchor_cells
        axes = [(self.kits[0], ax, self.grid.xs[self.xr], self._at[0], nxt[0]),
                (self.kits[1], ay, self.grid.ys[self.yr], self._at[1], nxt[1])]
        (ku, apu, u_prev, u_at, u_next), (kv, apv, _, _, v_next) = (
            axes if fixed == "x" else axes[::-1])
        # What no lam changes: each anchor's value plus its distance to
        # r_prev.u (g's offsets) and to r_next.u (f's), the terms of k, and
        # the apexes in ascending order.
        w, v_next = w.tolist(), int(v_next)
        du0 = ku.dist(apu, u_at).tolist()
        g_off = list(map(add, w, du0))
        f_off = list(map(add, w, ku.dist(apu, u_next).tolist()))
        k_w = list(map(add, w, kv.dist(apv, v_next).tolist()))
        shift = int(ku.dist(u_next, u_at))
        apv = apv.tolist()
        out = []
        if kv.kind == "finite":
            D = kv.D.tolist()
            g = [min(o + D[a][z] for o, a in zip(g_off, apv)) for z in range(len(D))]
        else:
            order = sorted(range(len(apv)), key=apv.__getitem__)
            apv, g_off, f_off = ([a[i] for i in order] for a in (apv, g_off, f_off))
            cut = bisect_right(apv, v_next)  # r_next.v's place among the apexes
        for lam in lams:
            p, q = lam.numerator, lam.denominator
            k = min(q * a + p * b for a, b in zip(k_w, du0))
            if kv.kind == "finite":
                m, zs = 1, range(len(D))
                f = [min(k + p * D[v_next][z],
                         *(q * o + p * (shift + D[a][z]) for o, a in zip(f_off, apv)))
                     for z in zs]
                f_at, g_at = f.__getitem__, g.__getitem__
            else:
                m = 2 * p
                V = [m * a for a in apv]
                g_at, g_bends = _cones(V, [m * o for o in g_off], 1)
                F = [m * (q * o + p * shift) for o in f_off]
                f_at, f_bends = _cones(V[:cut] + [m * v_next] + V[cut:],
                                       F[:cut] + [m * k] + F[cut:], p)
                zs = set(g_bends + f_bends)
            # The largest f - q*g, at its smallest candidate.
            best, z = max((f_at(z) - q * g_at(z), -z) for z in zs)
            s = kv.point(-z, m)
            out.append((Fraction(best, self.scale * m * q),
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
