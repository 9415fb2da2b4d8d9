"""Brute-force path oracles and their agreement with the grid recursion."""

import random
from fractions import Fraction

import numpy as np
import pytest

from wfalab import (ConfigError, ProductPoint, SizeGuardError, initial, pt,
                    serves)
from wfalab.metric import IndexPoint, RealPoint
from wfalab.offline import (MAX_ENUMERATION_REQUESTS, MAX_ORACLE_REQUESTS,
                            brute_force_opt, brute_force_path,
                            brute_force_work_value, dense_slack_max,
                            enumerate_work_value)
from wfalab.problem import grid_points_on
from wfalab.workfn import _param_value

from conftest import (finite_instance, mixed_instance, plane_instance, quarter,
                      weighted_instance, wide_instance)


def probe_points(rng, inst, count=3):
    points = []
    for _ in range(count):
        if inst._axes[0].kind == "line":
            points.append(pt(quarter(rng, 4), quarter(rng, 4)))
        else:
            from wfalab import idx

            size = inst._axes[0].size
            points.append(ProductPoint(idx(rng.randrange(size)),
                                       idx(rng.randrange(size))))
    return points


def test_bellman_matches_literal_enumeration():
    rng = random.Random(41)
    for trial in range(6):
        inst = plane_instance(rng, 4) if trial % 2 else finite_instance(rng, 4)
        for i in range(inst.n + 1):
            for s in probe_points(rng, inst):
                assert (brute_force_work_value(inst, i, s)
                        == enumerate_work_value(inst, i, s))


def test_path_serves_the_prefix_and_costs_the_work_value():
    rng = random.Random(42)
    for trial in range(6):
        inst = plane_instance(rng, 4)
        s = pt(quarter(rng, 4), quarter(rng, 4))
        for i in range(inst.n + 1):
            value, path = brute_force_path(inst, i, s)
            assert value == brute_force_work_value(inst, i, s)
            assert len(path) == i
            for p, r in zip(path, inst.requests):
                assert serves(p, r)
            cost = Fraction(0)
            at = inst.origin
            for p in path:
                cost += inst.distance(at, p)
                at = p
            assert cost + inst.distance(at, s) == value


def test_opt_matches_work_function_minimum():
    rng = random.Random(43)
    for trial in range(6):
        inst = plane_instance(rng, 5) if trial % 2 else finite_instance(rng, 5)
        wf = initial(inst)
        for r in inst.requests:
            wf = wf.update(r)
        assert brute_force_opt(inst) == wf.opt_cost()


def test_work_value_agrees_with_work_function_everywhere():
    rng = random.Random(44)
    for trial in range(4):
        inst = plane_instance(rng, 4)
        wf = initial(inst)
        for i, r in enumerate(inst.requests):
            wf = wf.update(r)
            for s in probe_points(rng, inst):
                assert wf.evaluate(s) == brute_force_work_value(inst, i + 1, s)


def test_size_guards():
    rng = random.Random(45)
    inst = plane_instance(rng, MAX_ORACLE_REQUESTS + 1)
    with pytest.raises(SizeGuardError):
        brute_force_work_value(inst, inst.n, inst.origin)
    with pytest.raises(SizeGuardError):
        brute_force_opt(inst)
    small = plane_instance(rng, MAX_ENUMERATION_REQUESTS + 1)
    with pytest.raises(SizeGuardError):
        enumerate_work_value(small, small.n, small.origin)


# -- the float lattice -----------------------------------------------------


def fraction_axis_samples(axis, coords, step):
    """The lattice by its definition: each sample the point lo + k*step in
    Fraction, every point on a finite axis."""
    if axis.kind == "finite":
        return [IndexPoint(j) for j in range(axis.size)]
    lo, hi = min(c.value for c in coords), max(c.value for c in coords)
    count = int((hi - lo) / step) if hi > lo else 0
    return [RealPoint(lo + k * step) for k in range(count + 1)]


def float_axis(axis):
    if axis.kind == "finite":
        D = np.array([[float(axis.weight * e) for e in row] for row in axis.matrix])
        return lambda pts: np.array([p.index for p in pts]), lambda a, b: D[a, b]
    w = float(axis.weight)
    return lambda pts: np.array([float(p.value) for p in pts]), lambda a, b: w * np.abs(a - b)


def fraction_lattice_slack_max(wf, r_next, lam, step):
    """dense_slack_max with one Fraction point per sample, each converted to
    float alone, and r_next's lines from grid_points_on."""
    lam = float(_param_value(lam))
    inst = wf.instance
    ax, ay = inst._axes
    (cx, dx), (cy, dy) = float_axis(ax), float_axis(ay)
    if wf.i == 0:
        sx, sy = cx([inst.origin.x]), cy([inst.origin.y])
    else:
        r_prev = wf.last_request
        ys = cy(fraction_axis_samples(ay, list(wf.grid.ys), step))
        xs = cx(fraction_axis_samples(ax, list(wf.grid.xs), step))
        sx = np.concatenate([cx([r_prev.x]).repeat(len(ys)), xs])
        sy = np.concatenate([ys, cy([r_prev.y]).repeat(len(xs))])
    wv = np.array([float(v) for _, v in wf.anchors])[:, None]
    wx = cx([p.x for p, _ in wf.anchors])[:, None]
    wy = cy([p.y for p, _ in wf.anchors])[:, None]

    def work(x, y):
        return (wv + dx(wx, x) + dy(wy, y)).min(axis=0)

    lines = grid_points_on(wf.grid, r_next, inst.space_x, inst.space_y, full_lines=True)
    tx, ty = cx([t.x for t in lines]), cy([t.y for t in lines])
    nx, ny = cx([r_next.x]), cy([r_next.y])
    best = (work(tx, ty)[:, None]
            + lam * (dx(tx[:, None], sx) + dy(ty[:, None], sy))).min(axis=0)
    best = np.minimum(best, work(nx.repeat(len(sy)), sy) + lam * dx(nx, sx))
    best = np.minimum(best, work(sx, ny.repeat(len(sx))) + lam * dy(ny, sy))
    return float((best - work(sx, sy)).max())


LATTICE_LAMBDAS = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1))
# A step whose denominator, 3**34, is past 2**53 on its own: int64 numerators
# would round before the division, so the Python-int division must run.
HUGE_STEP = Fraction(3 ** 34 // 64 + 1, 3 ** 34)


@pytest.mark.parametrize("maker, steps", [
    ("plane", (Fraction(1, 64), Fraction(1, 3), Fraction(1, 10), HUGE_STEP)),
    ("weighted", (Fraction(1, 64), Fraction(1, 3), Fraction(1, 10))),
    ("finite", (Fraction(1, 64), Fraction(1, 3), Fraction(1, 10))),
    ("mixed", (Fraction(1, 64), Fraction(1, 3), Fraction(1, 10))),
    ("wide", (Fraction(1, 64), Fraction(1, 3), Fraction(1, 10), HUGE_STEP)),
])
def test_dense_slack_max_matches_the_fraction_lattice(maker, steps):
    """The integer-numerator lattice gives the per-sample Fraction lattice's
    float bits, at every step of every instance kind."""
    rng = random.Random(46)
    inst = {"plane": lambda: plane_instance(rng, 5, bound=2),
            "weighted": lambda: weighted_instance(rng, 5, bound=2),
            "finite": lambda: finite_instance(rng, 5),
            "mixed": lambda: mixed_instance(rng, 5),
            "wide": wide_instance}[maker]()
    for step in steps:
        wf = initial(inst)
        for j, r in enumerate(inst.requests):
            lam = LATTICE_LAMBDAS[j % len(LATTICE_LAMBDAS)]
            got = dense_slack_max(wf, r, lam, step=step)
            assert got.hex() == fraction_lattice_slack_max(wf, r, lam, step).hex()
            wf = wf.update(r)


def test_dense_slack_max_rejects_a_step_that_is_not_positive():
    inst = plane_instance(random.Random(47), 3)
    wf = initial(inst).update(inst.requests[0])
    for step in (0, Fraction(-1, 64)):
        with pytest.raises(ConfigError, match="step"):
            dense_slack_max(wf, inst.requests[1], Fraction(1, 2), step=step)


def test_dense_slack_max_builds_no_point_per_sample(monkeypatch):
    """A 16 times finer lattice constructs no more RealPoints: the samples
    are numpy arrays, not one Python point each."""
    inst = plane_instance(random.Random(48), 4, bound=2)
    wf = initial(inst)
    for r in inst.requests[:3]:
        wf = wf.update(r)
    r = inst.requests[3]
    wf.anchors  # cached before counting
    made = []
    post_init = RealPoint.__post_init__
    monkeypatch.setattr(RealPoint, "__post_init__",
                        lambda self: made.append(self) or post_init(self))
    counts = []
    for step in (Fraction(1, 64), Fraction(1, 1024)):
        made.clear()
        dense_slack_max(wf, r, Fraction(1, 2), step=step)
        counts.append(len(made))
    assert counts[0] == counts[1]
