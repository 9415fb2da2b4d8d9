"""Brute-force oracles, kept deliberately independent of the engine.

The path oracle computes work-function values by minimizing over explicit
serving paths whose serve points run over grid coordinates (a Bellman sweep
over the candidate lists; optimal substructure collapses the enumeration
without changing what is enumerated).  A literal product-of-candidates
enumeration is also provided for very small prefixes so the sweep itself can
be cross-checked.

Dense-grid maximizers for slack quantities sample a fine lattice in float64.
They back tolerance-style comparisons (2^-5 and coarser), far above float
noise; all exact claims are checked elsewhere in rational arithmetic.  They
read only the grid and the anchors of a work function, never its integer
core, and build each lattice in whole numpy passes from integer numerators.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import List, Tuple

import numpy as np

from .errors import ConfigError, SizeGuardError
from .exact import frac
from .metric import ProductPoint
from .problem import Instance, RequestPoint, grid_after, grid_points_on
from .workfn import WorkFunction, _param_value

MAX_ORACLE_REQUESTS = 6
MAX_ENUMERATION_REQUESTS = 4


def _serve_candidates(instance: Instance, i: int) -> List[List[ProductPoint]]:
    grid = grid_after(instance, i)
    return [list(grid_points_on(grid, r)) for r in instance.requests[:i]]


def _guard(i: int, limit: int, what: str) -> None:
    if i > limit:
        raise SizeGuardError(f"{what} supports at most {limit} requests, got {i}")


def brute_force_work_value(instance: Instance, i: int, s: ProductPoint) -> Fraction:
    """Cheapest path origin -> serve r_1 .. r_i -> s over grid serve points."""
    _guard(i, MAX_ORACLE_REQUESTS, "the path oracle")
    d = instance.distance
    best = {instance.origin: Fraction(0)}
    for cands in _serve_candidates(instance, i):
        best = {p: min(c + d(q, p) for q, c in best.items()) for p in cands}
    return min(c + d(q, s) for q, c in best.items())


def brute_force_path(instance: Instance, i: int,
                     s: ProductPoint) -> Tuple[Fraction, Tuple[ProductPoint, ...]]:
    """Like brute_force_work_value but also returns one optimal serve path."""
    _guard(i, MAX_ORACLE_REQUESTS, "the path oracle")
    d = instance.distance
    best = {instance.origin: (Fraction(0), (instance.origin,))}
    for cands in _serve_candidates(instance, i):
        nxt = {}
        for p in cands:
            cost, path = min(
                ((c + d(q, p), path) for q, (c, path) in best.items()),
                key=lambda t: t[0])
            nxt[p] = (cost, path + (p,))
        best = nxt
    cost, path = min(((c + d(q, s), path) for q, (c, path) in best.items()),
                     key=lambda t: t[0])
    return cost, path[1:]


def enumerate_work_value(instance: Instance, i: int, s: ProductPoint) -> Fraction:
    """Plain product enumeration of serve paths; tiny prefixes only."""
    _guard(i, MAX_ENUMERATION_REQUESTS, "path enumeration")
    d = instance.distance
    best = None
    for path in product(*_serve_candidates(instance, i)):
        at = instance.origin
        cost = Fraction(0)
        for p in path:
            cost += d(at, p)
            at = p
        cost += d(at, s)
        if best is None or cost < best:
            best = cost
    return best


def brute_force_opt(instance: Instance) -> Fraction:
    """Optimal offline cost: cheapest full serving path, ending anywhere."""
    _guard(instance.n, MAX_ORACLE_REQUESTS, "the path oracle")
    d = instance.distance
    best = {instance.origin: Fraction(0)}
    for cands in _serve_candidates(instance, instance.n):
        best = {p: min(c + d(q, p) for q, c in best.items()) for p in cands}
    return min(best.values())


# -- dense float lattices --------------------------------------------------


def _axis_samples(axis, coords: tuple, step: Fraction) -> np.ndarray:
    """Sample positions along one axis: the float64 lattice lo + k*step over
    [lo, hi] of a line's sorted coords, every index of a finite space.

    Sample k is exactly (a + b*k) / den in integers.  Below 2**53 numpy turns
    both into float64 exactly and the division rounds correctly, so each is
    float(lo + k*step); past that, Python's int division is correctly
    rounded too."""
    if axis.kind == "finite":
        return np.arange(axis.size)
    lo, hi = coords[0].value, coords[-1].value
    count = (hi - lo) // step
    a = lo.numerator * step.denominator
    b = step.numerator * lo.denominator
    den = lo.denominator * step.denominator
    k = np.arange(count + 1)
    if max(abs(a), abs(a + b * count), b, den) <= 2 ** 53:
        return (a + b * k) / den
    return ((a + b * k.astype(object)) / den).astype(np.float64)


def _float_axis(axis) -> tuple:
    """float64 coordinates of points (indices on a finite axis), and their
    distance, broadcast over two coordinate arrays."""
    if axis.kind == "finite":
        D = np.array([[float(axis.weight * e) for e in row] for row in axis.matrix])
        return lambda pts: np.array([p.index for p in pts]), lambda a, b: D[a, b]
    w = float(axis.weight)
    return lambda pts: np.array([float(p.value) for p in pts]), lambda a, b: w * np.abs(a - b)


def dense_slack_max(wf: WorkFunction, r_next: RequestPoint, lam,
                    step=Fraction(1, 64)) -> float:
    """Float approximation of the extended cost by dense sampling of the
    previous request's lines (the origin before the first request).  W is a
    float minimum over wf.anchors; a sample s meets the points slack(s, r_next)
    compares: r_next's grid points (all on a finite axis) and those level with s."""
    lam = float(_param_value(lam))
    step = frac(step)
    if step <= 0:
        raise ConfigError(f"lattice step must be positive, got {step}")
    inst = wf.instance
    ax, ay = inst._axes
    (cx, dx), (cy, dy) = _float_axis(ax), _float_axis(ay)
    if wf.i == 0:
        sx, sy = cx([inst.origin.x]), cy([inst.origin.y])
    else:
        r_prev = wf.last_request
        ys = _axis_samples(ay, wf.grid.ys, step)
        xs = _axis_samples(ax, wf.grid.xs, step)
        sx = np.concatenate([cx([r_prev.x]).repeat(len(ys)), xs])
        sy = np.concatenate([ys, cy([r_prev.y]).repeat(len(xs))])
    wv = np.array([float(v) for _, v in wf.anchors])[:, None]
    wx = cx([p.x for p, _ in wf.anchors])[:, None]
    wy = cy([p.y for p, _ in wf.anchors])[:, None]

    def work(x, y):
        return (wv + dx(wx, x) + dy(wy, y)).min(axis=0)

    # r_next's lines at the grid's coordinates, every point of a finite axis.
    lx = np.arange(ax.size) if ax.kind == "finite" else cx(wf.grid.xs)
    ly = np.arange(ay.size) if ay.kind == "finite" else cy(wf.grid.ys)
    nx, ny = cx([r_next.x]), cy([r_next.y])
    tx = np.concatenate([nx.repeat(len(ly)), lx])
    ty = np.concatenate([ly, ny.repeat(len(lx))])
    best = (work(tx, ty)[:, None]
            + lam * (dx(tx[:, None], sx) + dy(ty[:, None], sy))).min(axis=0)
    best = np.minimum(best, work(nx.repeat(len(sy)), sy) + lam * dx(nx, sx))
    best = np.minimum(best, work(sx, ny.repeat(len(sx))) + lam * dy(ny, sy))
    return float((best - work(sx, sy)).max())
