"""Exact work functions, slack, and the extended cost."""

import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wfalab import (ConfigError, EmptySetError, Instance, ProductPoint,
                    RealLine, RealPoint, RequestIndexError, Scaled,
                    WfalabError, cone, cone_envelope, idx, initial,
                    instance_scale, max_difference, pointwise_min, pt, request,
                    serves)
from wfalab.metric import FiniteMatrix, IndexPoint, product_key
from wfalab.offline import (brute_force_opt, brute_force_work_value,
                            dense_slack_max)
from wfalab.problem import grid_after, grid_points_on
from wfalab.workfn import _AxisKit, _int_dtype

from conftest import (far_instance, finite_instance, grid_values,
                      huge_instance, mixed_instance, plane_instance, quarter,
                      weighted_instance, wide_instance)

HALF = Fraction(1, 2)

MAKERS = {"plane": plane_instance, "weighted": weighted_instance,
          "finite": finite_instance, "mixed": mixed_instance}
EXTRA = {"wide": wide_instance, "huge": huge_instance, "far": far_instance}


def make(kind, seed, n):
    """A test instance: MAKERS' with n requests from seed, or EXTRA's."""
    return EXTRA[kind]() if kind in EXTRA else MAKERS[kind](random.Random(seed), n)


def run_to_end(inst):
    wf = initial(inst)
    for r in inst.requests:
        wf = wf.update(r)
    return wf


def grid_points(wf):
    return [ProductPoint(x, y) for x in wf.grid.xs for y in wf.grid.ys]


def one_request_wf():
    inst = Instance(RealLine(), RealLine(), pt(0, 0), (request(1, 2),))
    return run_to_end(inst)


def test_initial_is_distance_from_origin():
    rng = random.Random(1)
    inst = plane_instance(rng, 3)
    wf = initial(inst)
    assert wf.i == 0
    assert wf.evaluate(inst.origin) == 0
    for s in (pt(Fraction(7, 3), Fraction(-1, 5)), pt(-2, 0), pt(1, 1)):
        assert wf.evaluate(s) == inst.distance(inst.origin, s)


def test_known_values_after_one_request():
    wf = one_request_wf()
    assert wf.evaluate(pt(1, 0)) == 1
    assert wf.evaluate(pt(0, 2)) == 2
    assert wf.evaluate(pt(0, 0)) == 2
    assert wf.evaluate(pt(1, 2)) == 3
    assert wf.evaluate(pt(1, 7)) == 8
    assert wf.evaluate(pt(5, 5)) == 10
    assert wf.opt_cost() == 1


def test_slack_known_value():
    wf = one_request_wf()
    r = wf.instance.requests[0]
    assert wf.slack(pt(0, 0), r, HALF) == Fraction(-1, 2)


def test_slack_comparison_set_forms():
    wf = one_request_wf()
    s = pt(0, 0)
    t = pt(1, 0)
    single = wf.slack(s, t, HALF)
    assert single == wf.evaluate(t) + HALF * 1 - wf.evaluate(s)
    assert wf.slack(s, [t], HALF) == single
    assert wf.slack(s, [t, pt(0, 2)], HALF) == min(single, wf.slack(s, pt(0, 2), HALF))
    assert wf.slack(s, s, HALF) == 0
    with pytest.raises(EmptySetError):
        wf.slack(s, [], HALF)


def test_update_monotone_and_serving_points_fixed():
    rng = random.Random(5)
    inst = plane_instance(rng, 5)
    wf = initial(inst)
    for r in inst.requests:
        nxt = wf.update(r)
        for g in grid_points(nxt):
            before = wf.evaluate(g)
            after = nxt.evaluate(g)
            assert after >= before
            if serves(g, r):
                assert after == before
        wf = nxt


@pytest.mark.parametrize("maker", [plane_instance, finite_instance,
                                   weighted_instance])
def test_update_matches_the_serving_recurrence(maker):
    """Every new grid value is min over the grid points t on the request's
    lines of W_before(t) + d(t, s), recomputed in Fractions; so is the grid
    table derived from the anchors, and the optimum is its least value."""
    rng = random.Random(41)
    inst = maker(rng, 5)
    wf = initial(inst)
    for r in inst.requests:
        nxt = wf.update(r)
        assert nxt.grid == grid_after(inst, nxt.i)
        kx, ky = nxt.kits
        assert (list(nxt.gx), list(nxt.gy)) == (list(kx.pos(nxt.grid.xs)),
                                                 list(ky.pos(nxt.grid.ys)))
        serving = grid_points_on(nxt.grid, r)
        wants = []
        for s in grid_points(nxt):
            want = min(wf.evaluate(t) + inst.distance(t, s) for t in serving)
            assert nxt.evaluate(s) == want
            wants.append(want)
        vals = grid_values(nxt)
        table = [Fraction(int(v), nxt.scale) for v in vals.flat]
        assert vals.shape == (len(nxt.grid.xs), len(nxt.grid.ys))
        assert table == wants
        assert nxt.opt_cost() == min(wants)
        wf = nxt


def traced_update(wf, r):
    """wf.update(r) and the peak bytes tracemalloc saw it hold."""
    tracemalloc.start()
    try:
        done = wf.update(r)
        return done, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_update_allocates_no_cubic_temporary():
    """A min over every serving candidate for every grid cell would hold
    (|X| + |Y|) * |X| * |Y| int64s, about 27 MB on this 120 x 121 grid.
    With the previous anchors already built, the update holds no more than
    W on the new lines and anchors-by-line tables: under one |X| * |Y|
    int64 table (116 160 B here)."""
    inst = plane_instance(random.Random(43), 120, bound=1000)
    wf = initial(inst)
    for r in inst.requests[:-1]:
        wf = wf.update(r)
    done, peak = traced_update(wf, inst.requests[-1])
    nx, ny = len(done.grid.xs), len(done.grid.ys)
    cubic_bytes = (nx + ny) * nx * ny * 8
    assert peak < cubic_bytes / 8
    _, peak = traced_update(wf, inst.requests[-1])
    assert peak < nx * ny * 8


def oracle_anchor_cells(wf):
    """The anchors by their definition, over an L x L table of the last
    request's L line cells: (x positions, y positions, values) of the cells
    that no other cell dominates, in grid_points_on order."""
    cx, cy = wf._line_cells
    kx, ky = wf.kits
    px, py = wf.gx[cx], wf.gy[cy]
    dtype = _int_dtype(int(wf.lines.max()) + kx.span(px) + ky.span(py))
    av = wf.lines.astype(dtype, copy=False)
    t = kx.dist(px[:, None], px).astype(dtype, copy=False)
    t += ky.dist(py[:, None], py)
    t += av[:, None]
    dominated = t <= av[None, :]
    np.fill_diagonal(dominated, False)
    keep = ~dominated.any(axis=0)
    return px[keep], py[keep], av[keep]


@pytest.mark.parametrize("kind", sorted({**MAKERS, **EXTRA}))
def test_anchors_match_the_pairwise_oracle(kind):
    """The sweeps keep exactly the cells the pairwise table keeps: the same
    positions and values, in the same order, at every step."""
    inst = make(kind, 73, 8)
    wf = initial(inst)
    for r in inst.requests:
        wf = wf.update(r)
        got, want = wf._anchor_cells, oracle_anchor_cells(wf)
        assert [a.tolist() for a in got] == [a.tolist() for a in want]


def test_anchors_and_extended_cost_hold_no_quadratic_table():
    """On a work function with about 600 line cells, the anchors and the
    extended cost at three lambdas hold far less than an L x L int64
    table: under L**2 bytes, an eighth of one."""
    inst = far_instance()
    wf = initial(inst)
    for r in inst.requests[:-1]:
        wf = wf.update(r)
    L = len(wf.lines)
    assert L >= 550
    tracemalloc.start()
    try:
        wf._anchor_cells
        wf.extended_costs(inst.requests[-1], [Fraction(1, 4), HALF, Fraction(1)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < L * L * 8 / 8


def test_one_lipschitz_on_grid():
    rng = random.Random(9)
    wf = run_to_end(plane_instance(rng, 4))
    points = grid_points(wf)
    for _ in range(200):
        s, t = rng.choice(points), rng.choice(points)
        gap = wf.evaluate(s) - wf.evaluate(t)
        assert abs(gap) <= wf.instance.distance(s, t)


def sample_points(rng, wf, count):
    points = grid_points(wf)
    return [rng.choice(points) for _ in range(count)]


def test_slack_shrinks_on_larger_sets():
    rng = random.Random(21)
    for trial in range(10):
        wf = run_to_end(plane_instance(rng, 3))
        big = sample_points(rng, wf, 5)
        small = big[:2]
        s = pt(quarter(rng, 4), quarter(rng, 4))
        assert wf.slack(s, big, HALF) <= wf.slack(s, small, HALF)


def test_slack_vanishes_at_cheapest_point_of_the_set():
    rng = random.Random(22)
    for trial in range(10):
        wf = run_to_end(plane_instance(rng, 3))
        c = sample_points(rng, wf, 4)
        best = min(c, key=wf.evaluate)
        assert wf.slack(best, c, HALF) == 0


def test_slack_adds_along_a_segment():
    rng = random.Random(23)
    for trial in range(10):
        wf = run_to_end(plane_instance(rng, 3))
        s = pt(quarter(rng, 4), quarter(rng, 4))
        u = pt(quarter(rng, 4), quarter(rng, 4))
        theta = Fraction(rng.randint(0, 4), 4)
        t = pt(s.x.value + theta * (u.x.value - s.x.value),
               s.y.value + theta * (u.y.value - s.y.value))
        assert wf.slack(u, s, HALF) == wf.slack(t, s, HALF) + wf.slack(u, t, HALF)


def test_slack_is_stable_under_set_perturbation():
    rng = random.Random(24)
    for trial in range(10):
        wf = run_to_end(plane_instance(rng, 3))
        c1 = [pt(quarter(rng, 4), quarter(rng, 4)) for _ in range(4)]
        c2 = [pt(p.x.value + Fraction(rng.randint(-2, 2), 4),
                 p.y.value + Fraction(rng.randint(-2, 2), 4)) for p in c1]
        delta = max(wf.instance.distance(a, b) for a, b in zip(c1, c2))
        s = pt(quarter(rng, 4), quarter(rng, 4))
        gap = abs(wf.slack(s, c1, HALF) - wf.slack(s, c2, HALF))
        assert gap <= (1 + HALF) * delta


def test_slack_transfer_bounds():
    rng = random.Random(25)
    for trial in range(10):
        wf = run_to_end(plane_instance(rng, 4))
        c = sample_points(rng, wf, 4)
        s = pt(quarter(rng, 6), quarter(rng, 6))
        t = pt(quarter(rng, 6), quarter(rng, 6))
        d = wf.instance.distance(s, t)
        assert wf.slack(t, c, HALF) >= wf.slack(s, c, HALF) - (1 + HALF) * d
        dominator = min(wf.anchor_points,
                        key=lambda a: wf.evaluate(a) + wf.instance.distance(a, s))
        assert wf.dominates(dominator, s)
        gain = (1 - HALF) * wf.instance.distance(dominator, s)
        assert wf.slack(dominator, c, HALF) >= wf.slack(s, c, HALF) + gain


def test_extended_cost_matches_dense_sampling():
    rng = random.Random(31)
    for trial in range(4):
        inst = plane_instance(rng, 4)
        wf = initial(inst)
        for step, r in enumerate(inst.requests):
            value, witness = wf.extended_cost(r, HALF)
            assert wf.slack(witness, r, HALF) == value
            approx = dense_slack_max(wf, r, HALF)
            assert approx <= float(value) + 1e-9
            assert float(value) - approx <= 2 ** -5
            wf = wf.update(r)


def test_extended_cost_bounded_by_request_move():
    rng = random.Random(32)
    for lam in (Fraction(1, 4), HALF, Fraction(1)):
        inst = plane_instance(rng, 5)
        wf = initial(inst)
        prev = None
        for r in inst.requests:
            value, _ = wf.extended_cost(r, lam)
            ref = wf.instance.origin if prev is None else prev
            dx = inst.distance_x(ref.x, r.x)
            dy = inst.distance_y(ref.y, r.y)
            assert value <= (1 + lam) * max(dx, dy)
            wf = wf.update(r)
            prev = r


def test_extended_cost_exhaustive_on_finite_axes():
    rng = random.Random(33)
    inst = finite_instance(rng, 4, size=4)
    wf = initial(inst)
    for r in inst.requests:
        value, witness = wf.extended_cost(r, HALF)
        exhaustive = max(wf.slack(s, r, HALF) for s in all_configs(4))
        assert value == exhaustive
        assert wf.slack(witness, r, HALF) == value
        wf = wf.update(r)


def oracle_extended_cost(wf, r_next, lam):
    """The extended cost by the slow reference: exact pl1d cone envelopes on
    line axes, a Fraction slack scan on finite ones, the engine's tie rule."""
    if wf.i == 0:
        o = wf.instance.origin
        return wf.slack(o, r_next, lam), o
    best = None
    for fixed in ("x", "y"):
        v, w = oracle_line_max(wf, fixed, r_next, lam)
        if best is None or v > best[0] or (
                v == best[0] and product_key(w) < product_key(best[1])):
            best = v, w
    return best


def oracle_line_max(wf, fixed, r_next, lam):
    inst = wf.instance
    ax, ay = inst._axes
    r_prev = wf.last_request
    varying = ay if fixed == "x" else ax

    if varying.kind == "finite":
        best = None
        for j in range(varying.size):
            s = (ProductPoint(r_prev.x, IndexPoint(j)) if fixed == "x"
                 else ProductPoint(IndexPoint(j), r_prev.y))
            v = wf.slack(s, r_next, lam)
            if best is None or v > best[0]:
                best = v, s
        return best

    w_var = varying.weight
    if fixed == "x":
        fix_prev, fix_next, var_next = r_prev.x, r_next.x, r_next.y
        d_fix, d_var = inst.distance_x, inst.distance_y
        a_fix, a_var = (lambda p: p.x), (lambda p: p.y)
    else:
        fix_prev, fix_next, var_next = r_prev.y, r_next.y, r_next.x
        d_fix, d_var = inst.distance_y, inst.distance_x
        a_fix, a_var = (lambda p: p.y), (lambda p: p.x)

    w_restr = cone_envelope(
        (a_var(p).value, v + d_fix(a_fix(p), fix_prev), w_var)
        for p, v in wf.anchors)
    shift = lam * d_fix(fix_next, fix_prev)
    inner_same = cone_envelope(
        (a_var(p).value, v + d_fix(a_fix(p), fix_next) + shift, lam * w_var)
        for p, v in wf.anchors)
    k_cross = min(v + d_var(a_var(p), var_next) + lam * d_fix(a_fix(p), fix_prev)
                  for p, v in wf.anchors)
    inner = pointwise_min(inner_same, cone(var_next.value, k_cross, lam * w_var))
    value, arg = max_difference(inner, w_restr, None)
    s = (ProductPoint(fix_prev, RealPoint(arg)) if fixed == "x"
         else ProductPoint(RealPoint(arg), fix_prev))
    return value, s


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(sorted(MAKERS)), seed=st.integers(0, 2 ** 32),
       n=st.integers(1, 5),
       lam=st.fractions(0, 1, max_denominator=12).filter(lambda v: v > 0))
@example(kind="plane", seed=34, n=5, lam=Fraction(1))
@example(kind="weighted", seed=35, n=5, lam=Fraction(1))
@example(kind="finite", seed=36, n=5, lam=Fraction(1))
@example(kind="mixed", seed=37, n=5, lam=Fraction(1, 3))
@example(kind="wide", seed=0, n=4, lam=Fraction(997, 1000))
@example(kind="huge", seed=0, n=5, lam=Fraction(1, 2))
@example(kind="huge", seed=0, n=5, lam=Fraction(5, 7))
def test_extended_cost_matches_the_pl1d_oracle(kind, seed, n, lam):
    """Exactly the oracle's value at every step, and slack at the witness
    equals it.  The witnesses agree too, except at lam = 1, where pl1d
    reports a maximum on a flat left tail at the tail's right end.  The
    huge instance's W passes 2**62 from its second request on."""
    inst = make(kind, seed, n)
    wf = initial(inst)
    for r in inst.requests:
        value, witness = wf.extended_cost(r, lam)
        want, want_witness = oracle_extended_cost(wf, r, lam)
        assert value == want
        assert wf.slack(witness, r, lam) == value
        assert witness == want_witness or lam == 1
        wf = wf.update(r)


@pytest.mark.parametrize("kind", ["plane", "weighted", "finite", "mixed", "wide"])
def test_extended_costs_are_each_lambda_alone(kind):
    """Each row of the batched kernel, at its own scale, is the one-lambda
    extended cost, value and witness, repeated lambdas and lambda = 1
    included.  The wide batch holds 997/1000, so all its rows run in Python
    ints, where 1/4 alone runs in int64."""
    lams = [Fraction(1, 4), HALF, Fraction(3, 4), Fraction(1), Fraction(2, 7), HALF]
    if kind == "wide":
        inst = wide_instance()
        lams.append(Fraction(997, 1000))
    else:
        inst = MAKERS[kind](random.Random(71), 6)
    wf = initial(inst)
    for r in inst.requests:
        assert wf.extended_costs(r, lams) == [wf.extended_cost(r, lam) for lam in lams]
        wf = wf.update(r)


@pytest.mark.parametrize("kind", ["plane", "weighted", "finite", "wide"])
def test_axis_kit_distance_broadcasts(kind):
    """_AxisKit.dist on x-axis positions is the Fraction distance times the
    positions' scale, between two numbers and between arrays broadcast to
    one, two and three dimensions.  The wide instance's grid positions are
    taken by refine to Python ints at 2**40 times the scale, past int64."""
    m = 1
    if kind == "finite":
        table = [[abs(i - j) for j in range(4)] for i in range(4)]
        space = Scaled(FiniteMatrix(table), Fraction(2, 3))
        inst = Instance(space, RealLine(), ProductPoint(idx(0), RealPoint(0)), ())
        wf = initial(inst)
        kit, points = wf.kits[0], [IndexPoint(j) for j in range(4)]
        P = np.arange(4)
    else:
        inst = {"plane": plane_instance(random.Random(83), 6),
                "weighted": weighted_instance(random.Random(83), 6, wx=3, wy=1),
                "wide": wide_instance()}[kind]
        wf = run_to_end(inst)
        kit, points, P = wf.kits[0], wf.grid.xs, wf.gx
        if kind == "wide":
            m = 2 ** 40
            kit, P = kit.refine(m, object, P)
            assert P.dtype == object and int(abs(P).max()) >= 2 ** 63
    assert isinstance(kit, _AxisKit)
    d = [[inst.distance_x(a, b) * wf.scale * m for b in points] for a in points]
    n = len(points)
    assert kit.dist(P[0], P[-1]) == d[0][-1]
    assert kit.dist(P, P[1]).tolist() == [row[1] for row in d]
    assert kit.dist(P[:, None], P).tolist() == d
    both = kit.dist(np.stack([P, P[::-1]])[:, :, None], P[None, None, :])
    assert both.shape == (2, n, n)
    assert both.tolist() == [d, d[::-1]]


def all_configs(size):
    return [ProductPoint(idx(a), idx(b))
            for a in range(size) for b in range(size)]


def test_slack_param_validation():
    wf = one_request_wf()
    with pytest.raises(ConfigError):
        wf.slack(pt(0, 0), pt(1, 0), 0)
    with pytest.raises(ConfigError):
        wf.slack(pt(0, 0), pt(1, 0), Fraction(3, 2))
    assert wf.slack(pt(0, 0), pt(1, 0), 1) == 0


def test_instance_scale_covers_all_denominators():
    inst = Instance(RealLine(), Scaled(RealLine(), Fraction(1, 3)), pt(0, 0),
                    (request(Fraction(1, 4), 1),))
    assert instance_scale(inst) == 12
    assert initial(inst).scale == 12


def test_update_rejects_out_of_order_requests():
    inst = Instance(RealLine(), RealLine(), pt(0, 0), (request(1, 2),))
    wf = initial(inst)
    with pytest.raises(RequestIndexError):
        wf.update(request(3, 3))
    done = wf.update(inst.requests[0])
    with pytest.raises(RequestIndexError):
        done.update(request(1, 2))


@pytest.mark.parametrize("big", [2 ** 62, -2 ** 62, 2 ** 70],
                         ids=["2**62", "-2**62", "2**70"])
def test_a_position_past_the_headroom_is_refused(big):
    """A line position of 2**62 or more in magnitude raises a WfalabError
    naming the coordinate, where int64 would overflow or wrap."""
    inst = Instance(RealLine(), RealLine(), pt(0, 0), (request(big, 1),))
    wf = initial(inst)
    for call in (lambda: wf.update(inst.requests[0]),
                 lambda: wf.extended_cost(inst.requests[0], 1)):
        with pytest.raises(WfalabError, match=f"^coordinate {big} overflows"):
            call()


def test_update_continues_exactly_past_int64():
    """Once W outgrows int64, update holds it in Python ints, and every
    anchor value is still W by its definition."""
    inst = huge_instance()
    wf = initial(inst)
    for r in inst.requests:
        wf = wf.update(r)
        for p, v in wf.anchors:
            assert v == brute_force_work_value(inst, wf.i, p)
    assert wf.lines.dtype == object
    assert int(wf.lines.max()) >= 2 ** 62


def test_anchor_sums_past_int64_beside_int64_lines():
    """int64 lines beside grid spans near 2**62: a value plus two distances
    passes int64 while every value fits, so the anchors' domination sums
    take Python ints and no undominated cell is dropped."""
    a, b = 2 ** 61 + 2 ** 58, 2 ** 60 + 2 ** 59
    inst = Instance(RealLine(), RealLine(), pt(0, 0),
                    (request(-a, 0), request(a, b), request(a, 0)))
    wf = initial(inst)
    for r in inst.requests:
        wf = wf.update(r)
        for p, v in wf.anchors:
            assert v == brute_force_work_value(inst, wf.i, p)
        for p in grid_points(wf):
            assert wf.evaluate(p) == brute_force_work_value(inst, wf.i, p)
        if wf.i == 2:
            assert wf.lines.dtype == np.int64
    assert wf.opt_cost() == brute_force_opt(inst) == a
