"""Potential constants, regions, triple minima, and the step verifier."""

import dataclasses
import gc
import random
import sys
import tracemalloc
import weakref
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from wfalab import (AlgorithmConfig, AuditError, ConfigError, HeadroomError,
                    Instance, ProductPoint, RealLine, RegionSpaceError,
                    RequestPoint, idx, initial, pt, request, run, run_all,
                    wfa_minimizers, wfa_step)
from wfalab.metric import IndexPoint, RealPoint, product_key
from wfalab import potential
from wfalab.harness import GeneratorConfig, generate
from wfalab.potential import (Boks, CnnPotential, GeneralPotential, Spheres,
                              _audit, _Base, _candidates,
                              _domination_samples, _Frame, _min_f_frame,
                              _min_g_frame, _min_h_frame, config_from_json,
                              config_to_json, default_constants, f_value,
                              g_value, h_value, min_f, min_g, min_h, phi,
                              region_slack, SharedStep, verify_step)
from wfalab.problem import grid_points_on, serves
from wfalab.workfn import WorkFunction, _AxisKit

from conftest import (big_instance, finite_instance, grid_values,
                      huge_instance, mixed_instance, plane_instance, quarter,
                      weighted_instance, wide_instance)

HALF = Fraction(1, 2)


def run_to_end(inst):
    wf = initial(inst)
    for r in inst.requests:
        wf = wf.update(r)
    return wf


def test_default_cnn_constants_at_half():
    cfg = default_constants(HALF)
    assert cfg.variant == "cnn"
    assert cfg.alpha == Fraction(1, 28)
    assert cfg.gamma == Fraction(1, 120)
    c = cfg.constants()
    assert c == {"c1": Fraction(1, 28), "c2": Fraction(1, 56),
                 "c3": Fraction(1, 84), "c4": Fraction(17, 8),
                 "c5": Fraction(1, 10080)}
    b = cfg.dominate_bounds()
    assert b["a"] == b["d"] == Fraction(1, 56)
    assert b["b"] == b["c"] == b["e"] == b["f"] == Fraction(11, 56)


def test_default_general_constants_at_half():
    cfg = default_constants(HALF, "general")
    assert cfg.variant == "general"
    assert cfg.mu == Fraction(3, 4)
    assert cfg.eta == 8
    assert cfg.beta == Fraction(1, 216)
    assert cfg.kappa == Fraction(1, 872)
    c = cfg.constants()
    assert c == {"c1": Fraction(1, 216), "c2": Fraction(1, 432),
                 "c3": Fraction(1, 648), "c4": Fraction(871, 432),
                 "c5": Fraction(1, 565056)}
    b = cfg.dominate_bounds()
    assert b["a"] == b["d"] == Fraction(1, 432)
    assert b["b"] == b["c"] == Fraction(17, 144)
    assert b["e"] == Fraction(5, 72)
    assert b["f"] == Fraction(1, 16)


def test_constants_positive_across_lambdas():
    for num in range(1, 10):
        lam = Fraction(num, 10)
        for variant in ("cnn", "general"):
            c = default_constants(lam, variant).constants()
            assert all(v > 0 for v in c.values())


def test_config_validation():
    with pytest.raises(ConfigError):
        CnnPotential(Fraction(3, 2), Fraction(1, 28), HALF)
    with pytest.raises(ConfigError):
        CnnPotential(HALF, Fraction(1, 4), HALF)
    with pytest.raises(ConfigError):
        CnnPotential(HALF, Fraction(1, 28), 0)
    with pytest.raises(ConfigError):
        GeneralPotential(HALF, Fraction(1, 4), 8, Fraction(1, 216), HALF)
    with pytest.raises(ConfigError):
        GeneralPotential(HALF, Fraction(3, 4), 2, Fraction(1, 216), HALF)
    with pytest.raises(ConfigError):
        GeneralPotential(HALF, Fraction(3, 4), 8, Fraction(1, 10), HALF)
    with pytest.raises(ConfigError):
        GeneralPotential(HALF, Fraction(3, 4), 8, Fraction(1, 216), 1)
    with pytest.raises(ConfigError):
        default_constants(1)
    with pytest.raises(ConfigError):
        default_constants(HALF, "weird")


def test_config_json_round_trip():
    for variant in ("cnn", "general"):
        cfg = default_constants(Fraction(2, 5), variant)
        assert config_from_json(config_to_json(cfg)) == cfg
    with pytest.raises(ConfigError):
        config_from_json({"variant": "cnn", "lambda": "1/2"})
    with pytest.raises(ConfigError):
        config_from_json({"variant": "banana"})


def test_config_from_json_refuses_unknown_keys():
    """A constant of the other variant, or a misspelt one, is refused by
    name rather than dropped."""
    raw = {"variant": "cnn", "lambda": "1/2", "alpha": "1/30", "gamma": "1/100"}
    assert config_from_json(raw) == CnnPotential(HALF, Fraction(1, 30), Fraction(1, 100))
    with pytest.raises(ConfigError, match="^unknown key 'kappa' in the potential config$"):
        config_from_json({**raw, "kappa": "1/5"})
    general = config_to_json(default_constants(HALF, "general"))
    with pytest.raises(ConfigError, match="^unknown key 'alpha' in the potential config$"):
        config_from_json({**general, "alpha": "1/30"})
    with pytest.raises(ConfigError, match="^unknown key 'lam' in the potential config$"):
        config_from_json({**general, "lam": "1/2"})


def region_membership(region, t: ProductPoint, instance=None) -> bool:
    """Whether t lies in the region, by the regions' definitions alone: an
    independent restatement of the footprints the kernel's _axis_constraint
    computes.  A ball on a finite axis needs the instance's distance table."""
    if isinstance(region, Boks):
        return (_in_interval(region.s1.x, region.s2.x, t.x)
                and _in_interval(region.s1.y, region.s2.y, t.y))
    return (_in_ball(region.s1.x, region.s2.x, t.x, region.eta, instance, 0)
            and _in_ball(region.s1.y, region.s2.y, t.y, region.eta, instance, 1))


def _in_interval(a, b, t) -> bool:
    if not (isinstance(a, RealPoint) and isinstance(b, RealPoint)):
        raise RegionSpaceError("box regions are only defined over line components")
    return (isinstance(t, RealPoint)
            and min(a.value, b.value) <= t.value <= max(a.value, b.value))


def _in_ball(center, other, t, eta, instance, axis) -> bool:
    if isinstance(center, RealPoint) and isinstance(other, RealPoint):
        return (isinstance(t, RealPoint)
                and abs(t.value - center.value) <= eta * abs(center.value - other.value))
    if instance is None:
        raise RegionSpaceError("ball membership on a finite component needs the instance")
    table = instance._axes[axis].matrix
    if table is None or not isinstance(t, IndexPoint):
        raise RegionSpaceError("point kind does not match the component space")
    return table[center.index][t.index] <= eta * table[center.index][other.index]


def test_box_membership():
    box = Boks(pt(0, 0), pt(2, 3))
    assert region_membership(box, pt(1, 1))
    assert region_membership(box, pt(0, 3))
    assert region_membership(box, pt(2, Fraction(3, 2)))
    assert not region_membership(box, pt(-1, 1))
    assert not region_membership(box, pt(1, 4))
    finite_point = ProductPoint(idx(0), idx(1))
    with pytest.raises(RegionSpaceError):
        region_membership(Boks(finite_point, finite_point), finite_point)


def test_sphere_membership():
    ball = Spheres(pt(0, 0), pt(1, 2), 2)
    assert region_membership(ball, pt(2, -4))
    assert region_membership(ball, pt(-2, 4))
    assert not region_membership(ball, pt(Fraction(9, 4), 0))
    assert not region_membership(ball, pt(0, Fraction(17, 4)))
    rng = random.Random(61)
    inst = finite_instance(rng, 1)
    a, b = ProductPoint(idx(0), idx(0)), ProductPoint(idx(1), idx(2))
    wide = Spheres(a, b, 1)
    assert region_membership(wide, ProductPoint(idx(3), idx(3)), inst)
    tight = Spheres(a, a, 1)
    assert region_membership(tight, a, inst)
    assert not region_membership(tight, b, inst)
    with pytest.raises(RegionSpaceError):
        region_membership(wide, b)


def test_degenerate_box_slack_is_point_slack():
    rng = random.Random(62)
    wf = run_to_end(plane_instance(rng, 3))
    for _ in range(5):
        s1 = pt(quarter(rng, 4), quarter(rng, 4))
        s3 = pt(quarter(rng, 4), quarter(rng, 4))
        assert region_slack(wf, s3, Boks(s1, s1), HALF) == wf.slack(s3, s1, HALF)


def _region_axis_samples(region, axis, coord, step: Fraction) -> list:
    """Sample points of one axis that cover the region's extent there.

    The extent is re-derived from the region's definition: a box spans the
    coordinates of its two corners, a product of spheres reaches eta times
    the center distance from the first point (scale weights cancel on a
    line).  Finite axes are enumerated outright.
    """
    if axis.kind == "finite":
        return [IndexPoint(j) for j in range(axis.size)]
    c1 = coord(region.s1).value
    c2 = coord(region.s2).value
    if isinstance(region, Boks):
        lo, hi = min(c1, c2), max(c1, c2)
    else:
        r = region.eta * abs(c1 - c2)
        lo, hi = c1 - r, c1 + r
    count = int((hi - lo) / step) if hi > lo else 0
    return [RealPoint(lo + k * step) for k in range(count + 1)]


def dense_region_slack(wf, s3, region, p: Fraction, step: Fraction) -> float:
    """Float approximation of region slack by sampling the region."""
    inst = wf.instance
    ax, ay = inst._axes
    xs = _region_axis_samples(region, ax, lambda s: s.x, step)
    ys = _region_axis_samples(region, ay, lambda s: s.y, step)
    best = np.inf
    w_s3 = float(wf.evaluate(s3))
    for x in xs:
        for y in ys:
            t = ProductPoint(x, y)
            if not region_membership(region, t, instance=inst):
                continue
            v = float(wf.evaluate(t)) + float(p) * float(inst.distance(t, s3)) - w_s3
            if v < best:
                best = v
    return best


def test_region_slack_against_dense_sampling():
    rng = random.Random(63)
    wf = run_to_end(plane_instance(rng, 3))
    step = Fraction(1, 16)
    for _ in range(3):
        s1 = pt(quarter(rng, 2), quarter(rng, 2))
        s2 = pt(quarter(rng, 2), quarter(rng, 2))
        s3 = pt(quarter(rng, 2), quarter(rng, 2))
        for region in (Boks(s1, s2), Spheres(s1, s2, 1)):
            exact = region_slack(wf, s3, region, HALF)
            approx = dense_region_slack(wf, s3, region, HALF, step=step)
            assert float(exact) <= approx + 1e-9
            assert approx - float(exact) <= (1 + HALF) * float(step)


def test_region_slack_smaller_on_larger_region():
    rng = random.Random(64)
    wf = run_to_end(plane_instance(rng, 3))
    s1 = pt(1, 2)
    s2 = pt(-1, 0)
    s3 = pt(0, 1)
    pair = wf.slack(s3, (s1, s2), HALF)
    assert region_slack(wf, s3, Boks(s1, s2), HALF) <= pair
    assert region_slack(wf, s3, Spheres(s1, s2, 1), HALF) <= wf.slack(s3, s1, HALF)


def triple_candidates(wf):
    pts = grid_points_on(wf.grid, wf.last_request, wf.instance.space_x,
                         wf.instance.space_y, full_lines=True)
    return sorted(set(pts), key=product_key)


def lex3(triple):
    return tuple(product_key(p) for p in triple)


def position_points(wf, m, P):
    """The points at the (k, 2) positions P, given at m * wf.scale."""
    return [ProductPoint(*(RealPoint(Fraction(q, m * wf.scale) / kit.weight)
                           if kit.kind == "line" else IndexPoint(q)
                           for kit, q in zip(wf.kits, row)))
            for row in P.tolist()]


def refined_fraction_candidates(wf):
    """The audit's refined candidates by their definition: the request
    lines' candidates plus the midpoints between consecutive grid
    coordinates along each line axis, sorted by product_key."""
    r = wf.last_request
    ax, ay = wf.instance._axes
    pts = list(triple_candidates(wf))
    if ay.kind == "line":
        ys = sorted(p.value for p in wf.grid.ys)
        pts.extend(ProductPoint(r.x, RealPoint((a + b) / 2))
                   for a, b in zip(ys, ys[1:]))
    if ax.kind == "line":
        xs = sorted(p.value for p in wf.grid.xs)
        pts.extend(ProductPoint(RealPoint((a + b) / 2), r.y)
                   for a, b in zip(xs, xs[1:]))
    return sorted(set(pts), key=product_key)


@pytest.mark.parametrize("maker", ["plane", "finite", "weighted", "wide"])
def test_triple_minima_match_direct_scan(maker):
    rng = random.Random(65)
    lam = HALF
    if maker == "plane":
        inst = plane_instance(rng, 2, bound=2)
    elif maker == "finite":
        inst = finite_instance(rng, 3)
    elif maker == "weighted":
        inst = weighted_instance(rng, 2, bound=2)
    else:
        inst = wide_instance()
        lam = Fraction(997, 1000)
    wf = run_to_end(inst)
    for variant in ("cnn", "general"):
        if variant == "cnn" and maker == "finite":
            continue
        cfg = default_constants(lam, variant)
        cands = triple_candidates(wf)
        best_f = min(((f_value(wf, a, b, c, cfg), (a, b, c))
                      for a in cands for b in cands for c in cands),
                     key=lambda t: (t[0], lex3(t[1])))
        vf, tf = min_f(wf, cfg)
        assert (vf, tf) == (best_f[0], best_f[1])
        best_g = min(((g_value(wf, a, b, c, cfg), (a, b, c))
                      for a in cands for b in cands for c in cands),
                     key=lambda t: (t[0], lex3(t[1])))
        vg, tg = min_g(wf, cfg)
        assert (vg, tg) == (best_g[0], best_g[1])
        best_h = min(((h_value(wf, a, b, cfg.pair_param), (a, b))
                      for a in cands for b in cands),
                     key=lambda t: (t[0], lex3(t[1])))
        vh, th = min_h(wf, cfg)
        assert (vh, th) == (best_h[0], best_h[1])
        assert vf <= vg <= vh
        assert phi(wf, cfg) == (1 - cfg.weight) * vf + cfg.weight * vg


@pytest.mark.parametrize("maker", ["plane", "finite", "weighted", "wide"])
def test_frame_rows_match_the_fraction_oracle(maker):
    """Every entry of a frame's F and G rows is f_value or g_value at its
    triple, whether read from one row, a block of rows or the triple alone;
    the refined candidates put midpoints in the frame (m = 2)."""
    rng = random.Random(75)
    lam = HALF
    if maker == "plane":
        inst = plane_instance(rng, 2, bound=2)
    elif maker == "finite":
        inst = finite_instance(rng, 3)
    elif maker == "weighted":
        inst = weighted_instance(rng, 2, bound=2)
    else:
        inst = wide_instance()
        lam = Fraction(997, 1000)
    wf = run_to_end(inst)
    P = _candidates(wf, 2)
    cands = position_points(wf, 2, P)
    assert cands == refined_fraction_candidates(wf)
    for variant in ("cnn", "general"):
        if variant == "cnn" and maker == "finite":
            continue
        cfg = default_constants(lam, variant)
        # A one-config stack: the frame's slot 0 is cfg's.
        fr = _Frame(_Base(wf, 2, P), [cfg])
        assert (fr.HT.dtype == object) == (maker == "wide")
        k = len(cands)
        one = slice(0, 1)
        block = fr.f_row(one, np.arange(k))[0], fr.g_row(one, np.arange(k))[0]
        triples = [a.ravel() for a in np.indices((k, k, k))]
        at = (fr.f_at(0, *triples).reshape(k, k, k),
              fr.g_at(0, *triples).reshape(k, k, k))
        for i, a in enumerate(cands):
            F, G = fr.f_row(one, [i])[0, 0], fr.g_row(one, [i])[0, 0]
            assert (block[0][i] == F).all() and (block[1][i] == G).all()
            for j, b in enumerate(cands):
                for m, c in enumerate(cands):
                    assert Fraction(int(F[j, m]), fr.f_den[0]) == f_value(wf, a, b, c, cfg)
                    assert Fraction(int(G[j, m]), fr.g_den[0]) == g_value(wf, a, b, c, cfg)
                    assert at[0][i, j, m] == F[j, m] and at[1][i, j, m] == G[j, m]


STACKS = {"plane": (plane_instance, "cnn", [Fraction(1, 4), HALF, Fraction(3, 4)]),
          "weighted": (weighted_instance, "cnn", [Fraction(1, 3), Fraction(5, 7)]),
          "finite": (finite_instance, "general", [Fraction(1, 4), HALF, Fraction(3, 4)]),
          "mixed": (mixed_instance, "general", [Fraction(1, 3), Fraction(2, 3)]),
          "wide": (lambda rng, n: wide_instance(), "cnn",
                   [Fraction(997, 1000), Fraction(991, 1000)]),
          # int64 alone at 1/2, Python ints alone at 997/1000.
          "int64+object": (lambda rng, n: wide_instance(), "cnn",
                           [HALF, Fraction(997, 1000)])}


@pytest.mark.parametrize("maker", list(STACKS))
def test_stacked_minima_are_each_configs_alone(maker, monkeypatch):
    """Each config's min F, G and H in a stack, value and witness rows, is
    the one its one-config stack gives, on the memo's candidates and the
    audit's refined ones, whether the rows go in one block, one config and
    one row at a time, two configs a row at a time, or all configs two rows
    at a time."""
    make, variant, lams = STACKS[maker]
    stack = [default_constants(lam, variant) for lam in lams]
    for _, wf, _ in steps(make(random.Random(86), 5)):
        for m in (1, 2):
            base = _Base(wf, m, _candidates(wf, m))
            alone = [_Frame(base, [cfg]) for cfg in stack]
            if maker == "int64+object":
                assert [fr.HT.dtype for fr in alone] == [np.int64, object]
            want = [[kernel(fr)[0] for fr in alone]
                    for kernel in (_min_f_frame, _min_g_frame, _min_h_frame)]
            fr = _Frame(base, stack)
            assert fr.HT.dtype == alone[-1].HT.dtype
            # Entries in one row of one config.
            row = len(base.P) * len(base.GW) * len(base.P)
            for block in (potential._BLOCK_ENTRIES, 1, 2 * row, 2 * len(stack) * row):
                monkeypatch.setattr(potential, "_BLOCK_ENTRIES", block)
                assert [kernel(fr) for kernel in (_min_f_frame, _min_g_frame,
                                                  _min_h_frame)] == want
            monkeypatch.undo()


def test_a_frame_stacks_configs_of_one_class():
    wf = run_to_end(plane_instance(random.Random(87), 3))
    with pytest.raises(ConfigError, match="one class"):
        _Frame(_Base(wf, 1, _candidates(wf)),
               [default_constants(HALF), default_constants(HALF, "general")])


def test_triple_minima_hold_no_cubic_table():
    """min F and min G run row by row: at k = 160 candidates each peaks
    under a quarter of a k x k x k int64 table, for one config and for a
    stack of nine."""
    inst = generate(GeneratorConfig("uniform_random", n=80, coord_range=1000), 1)
    wf = run_to_end(inst)
    base = _Base(wf, 1, _candidates(wf))
    k = len(base.P)
    assert k >= 160
    nine = [default_constants(Fraction(n, 10)) for n in range(1, 10)]
    for stack in ([default_constants(HALF)], nine):
        fr = _Frame(base, stack)
        for kernel in (_min_f_frame, _min_g_frame):
            tracemalloc.start()
            try:
                kernel(fr)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < k ** 3 * 8 / 4, (len(stack), kernel.__name__, peak)


def test_h_value_is_symmetric():
    rng = random.Random(66)
    wf = run_to_end(plane_instance(rng, 3))
    for _ in range(5):
        s1 = pt(quarter(rng, 4), quarter(rng, 4))
        s2 = pt(quarter(rng, 4), quarter(rng, 4))
        assert h_value(wf, s1, s2, HALF) == h_value(wf, s2, s1, HALF)


def test_h_value_is_work_minus_half_slack():
    rng = random.Random(69)
    for maker in (plane_instance, finite_instance, weighted_instance):
        wf = run_to_end(maker(rng, 3))
        points = [ProductPoint(x, y) for x in wf.grid.xs for y in wf.grid.ys]
        for _ in range(20):
            s1, s2 = rng.choice(points), rng.choice(points)
            if maker is not finite_instance:
                s2 = pt(quarter(rng, 5), quarter(rng, 5))
            p = Fraction(rng.randint(1, 8), 8)
            assert (h_value(wf, s1, s2, p)
                    == wf.evaluate(s1) - HALF * wf.slack(s2, s1, p))


def test_phi_vanishes_before_any_request():
    rng = random.Random(67)
    wf = initial(plane_instance(rng, 2))
    for variant in ("cnn", "general"):
        assert phi(wf, default_constants(HALF, variant)) == 0


def test_verify_step_all_green_on_plane():
    rng = random.Random(68)
    for lam in (Fraction(1, 4), HALF, Fraction(3, 4)):
        inst = plane_instance(rng, 4)
        cfg = default_constants(lam)
        wf = initial(inst)
        for r in inst.requests:
            nxt = wf.update(r)
            report = verify_step(wf, nxt, cfg)
            assert report.failures == 0
            assert report.case in ("A", "B")
            names = [c.name for c in report.checks]
            assert "chain_f_g_h" in names
            assert "phi_increase" in names
            assert "nabla_le_delta" in names
            if wf.i == 0:
                assert "phi_epsilon" in names
            wf = nxt


def test_verify_step_report_shape():
    rng = random.Random(69)
    inst = plane_instance(rng, 2)
    cfg = default_constants(HALF)
    wf = initial(inst)
    nxt = wf.update(inst.requests[0])
    report = verify_step(wf, nxt, cfg)
    payload = report.to_json()
    assert payload["step"] == 0
    assert payload["failures"] == 0
    assert set(payload["constants"]) == {"c1", "c2", "c3", "c4", "c5", "weight"}
    for entry in payload["checks"]:
        assert set(entry) >= {"name", "holds"}
    case_a = [c for c in report.checks if c.name == "cardinality_collapse"]
    if report.case == "A":
        assert case_a and case_a[0].holds
    else:
        assert not case_a


def test_verify_step_config_mismatches():
    rng = random.Random(70)
    inst = plane_instance(rng, 2)
    wf = initial(inst)
    nxt = wf.update(inst.requests[0])
    with pytest.raises(ConfigError):
        verify_step(nxt, nxt, default_constants(HALF))
    other = plane_instance(rng, 2)
    with pytest.raises(ConfigError):
        verify_step(wf, initial(other).update(other.requests[0]),
                    default_constants(HALF))


def test_verify_step_finite_general_and_convexity():
    rng = random.Random(71)
    inst = finite_instance(rng, 6)
    cfg = default_constants(HALF, "general")
    wf = initial(inst)
    saw_convexity = False
    for r in inst.requests:
        nxt = wf.update(r)
        report = verify_step(wf, nxt, cfg)
        assert report.failures == 0
        for c in report.checks:
            if c.name == "convex_containment":
                saw_convexity = True
                assert c.holds
        wf = nxt
    assert saw_convexity


def test_lipschitz_probe_is_advisory():
    rng = random.Random(72)
    inst = plane_instance(rng, 2)
    cfg = default_constants(HALF)
    wf = initial(inst)
    nxt = wf.update(inst.requests[0])
    report = verify_step(wf, nxt, cfg)
    probe = [c for c in report.checks if c.advisory]
    assert {c.name for c in probe} == {"lipschitz_nabla", "lipschitz_min_g"}
    assert report.failures == sum(not c.holds for c in report.checks
                                  if not c.advisory)


def test_audit_passes_and_detects_false_minima():
    """Audited steps pass on plane, finite and mixed runs, and a false min F
    or min G raises at the last step's audit: the midpoint pass compares
    its minima with the reported ones, also where, with no line axis, they
    are the memo's."""
    rng = random.Random(73)
    cases = [(plane_instance(rng, 3, bound=2), "cnn"),
             (finite_instance(rng, 4), "general"),
             (mixed_instance(rng, 4), "general")]
    for inst, variant in cases:
        cfg = default_constants(HALF, variant)
        wf = initial(inst)
        for r in inst.requests:
            nxt = wf.update(r)
            report = verify_step(wf, nxt, cfg, audit=True)
            assert report.failures == 0
            assert any(c.name == "audit_no_improvement" and c.holds
                       for c in report.checks)
            before, wf = wf, nxt
        shared = SharedStep(before, wf, (cfg,), {})
        vf, tf = min_f(wf, cfg)
        vg, tg = min_g(wf, cfg)
        with pytest.raises(AuditError, match="^midpoint refinement improved min F"):
            _audit(shared, cfg, vf + 1, tf, vg, tg)
        with pytest.raises(AuditError, match="^midpoint refinement improved min G"):
            _audit(shared, cfg, vf, tf, vg + 1, tg)


def test_refined_candidates_are_the_candidates_on_finite_axes():
    """With no line axis there are no midpoints: the audit's refined
    candidates are the memo's, which is why its midpoint pass reads the
    memo's minima there."""
    for _, wf, _ in steps(finite_instance(random.Random(84), 6)):
        assert np.array_equal(_candidates(wf, 2), _candidates(wf))


def test_verified_runs_with_general_constants_on_weighted_lines():
    rng = random.Random(74)
    inst = weighted_instance(rng, 4)
    cfg = default_constants(HALF, "general")
    trace = run(inst, AlgorithmConfig("wfa", HALF), verify=True, potential=cfg)
    assert trace.lemma_failures == 0
    assert trace.phi_final <= trace.opt_cost


def steps(inst):
    """(W before, W after, request) for every request of the instance."""
    wf = initial(inst)
    for r in inst.requests:
        nxt = wf.update(r)
        yield wf, nxt, r
        wf = nxt


@pytest.mark.parametrize("maker", [
    plane_instance, weighted_instance, finite_instance, mixed_instance,
    pytest.param(lambda rng, n: wide_instance(), id="wide_instance")])
def test_candidates_are_the_sorted_request_lines(maker):
    """Each candidate position, read back as a point in Fraction and by
    WorkFunction._points, is the sorted request lines' point in its place;
    at m = 2 the positions are the audit's refined set, midpoints
    included."""
    inst = maker(random.Random(77), 6)
    for _, wf, _ in steps(inst):
        P = _candidates(wf)
        want = triple_candidates(wf)
        assert P.shape == (len(want), 2)
        assert position_points(wf, 1, P) == want
        assert list(wf._points(*P.T)) == want
        assert position_points(wf, 2, _candidates(wf, 2)) == refined_fraction_candidates(wf)


def fraction_samples(wf, r, W=None):
    """The domination samples by their definition, in Fraction: grid points
    off the request in product_key order, each with the first of its two
    projections onto the request that dominates it, until six.  W gives the
    work function's values at grid points (wf.evaluate unless given)."""
    W = W or wf.evaluate
    samples = []
    two_candidate = True
    grid_pts = sorted((ProductPoint(x, y) for x in wf.grid.xs for y in wf.grid.ys),
                      key=product_key)
    for s in grid_pts:
        if serves(s, r):
            continue
        t = next((c for c in (ProductPoint(r.x, s.y), ProductPoint(s.x, r.y))
                  if W(s) == W(c) + wf.instance.distance(c, s)), None)
        if t is None:
            two_candidate = False
            continue
        samples.append((s, t, wf.instance.distance(s, t)))
        if len(samples) == 6:
            break
    return samples, two_candidate


def sample_points(wf):
    """_domination_samples(wf) with its positions as points and its
    distances as Fractions."""
    (s, t, d), two_candidate = _domination_samples(wf)
    return list(zip(wf._points(*s.T), wf._points(*t.T),
                    (Fraction(dd, wf.scale) for dd in d.tolist()))), two_candidate


@pytest.mark.parametrize("maker", [plane_instance, weighted_instance,
                                   finite_instance, mixed_instance])
def test_domination_samples_match_the_fraction_loop(maker):
    rng = random.Random(78)
    broken = 0
    for _ in range(3):
        for _, wf, r in steps(maker(rng, 8)):
            # On a correct W one _w_at call reads the first six off-line
            # points, the samples, and their two projections.
            counted = dataclasses.replace(wf)
            reads = []
            counted.__dict__["_w_at"] = (lambda m, X, Y:
                                         reads.append(len(X)) or wf._w_at(m, X, Y))
            assert sample_points(counted) == fraction_samples(wf, r)
            off = (len(wf.gx) - 1) * (len(wf.gy) - 1)
            assert reads == ([3 * min(6, off)] if off else [])
            # One unit off an off-request value of the table the samples read
            # undoes its domination: at the first such cell two_candidate
            # fails, at the last it only does when fewer than six samples
            # come before it.  The Fraction loop reads the same bent table.
            xs, ys = wf.grid.xs, wf.grid.ys
            xr, yr = xs.index(r.x), ys.index(r.y)
            off = [(a, b) for a in range(len(xs))
                   for b in range(len(ys)) if a != xr and b != yr]
            for cell in off[:1] + off[-1:]:
                vals = grid_values(wf)
                vals[cell] -= 1
                bent = dataclasses.replace(wf)
                # Off the lines the samples read W through _w_at, here at
                # grid positions (m = 1).
                bent.__dict__["_w_at"] = lambda m, X, Y: vals[
                    wf.gx.searchsorted(X), wf.gy.searchsorted(Y)]

                def W(p):
                    return Fraction(int(vals[xs.index(p.x), ys.index(p.y)]), wf.scale)

                got = sample_points(bent)
                assert got == fraction_samples(bent, r, W)
                broken += not got[1]
    assert broken


def test_domination_samples_stop_at_the_sixth(monkeypatch):
    """W off the request's lines is evaluated only up to the sixth sample,
    not over the whole grid."""
    wf = run_to_end(plane_instance(random.Random(82), 20))
    cells = []
    w_at = WorkFunction._w_at
    monkeypatch.setattr(WorkFunction, "_w_at", lambda self, m, X, Y:
                        cells.append(len(X)) or w_at(self, m, X, Y))
    (s, _, _), _ = _domination_samples(wf)
    assert len(s) == 6
    assert sum(cells) < (len(wf.gx) - 1) * (len(wf.gy) - 1)


def probe_instance(maker):
    """(instance, lambda, potential variant) for the probe's cases."""
    rng = random.Random(79)
    if maker == "plane":
        return plane_instance(rng, 6), HALF, "cnn"
    if maker == "weighted":
        return weighted_instance(rng, 6), HALF, "cnn"
    if maker == "mixed":
        return mixed_instance(rng, 6), HALF, "general"
    if maker == "big":
        return big_instance(), HALF, "cnn"
    return wide_instance(), Fraction(997, 1000), "cnn"


@pytest.mark.parametrize("maker", ["plane", "weighted", "mixed", "wide", "big"])
def test_rescaled_equals_the_replayed_work_function(maker):
    """W after a shared prefix, rescaled to an instance whose next request
    has its y nudged to a new denominator (as the Lipschitz probe does), is
    the work function a replay of that prefix on it builds."""
    inst, lam, variant = probe_instance(maker)
    cfg = default_constants(lam, variant)
    for before, _, r in steps(inst):
        r_mod = RequestPoint(r.x, RealPoint(r.y.value + Fraction(1, 32)))
        inst2 = Instance(inst.space_x, inst.space_y, inst.origin,
                         inst.requests[:before.i] + (r_mod,))
        replay = initial(inst2)
        for q in inst2.requests[:before.i]:
            replay = replay.update(q)
        got = before.rescaled(inst2)
        assert got.scale == replay.scale != before.scale
        assert (got.instance, got.i, got.grid, got.last_request) == (
            replay.instance, replay.i, replay.grid, replay.last_request)
        for a, b in ((got.lines, replay.lines), (got.gx, replay.gx),
                     (got.gy, replay.gy)):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        for kit, ref in zip(got.kits, replay.kits):
            assert ((kit.kind, kit.weight, kit.scale)
                    == (ref.kind, ref.weight, ref.scale))
            assert kit.kind == "line" or np.array_equal(kit.D, ref.D)
        assert got.anchors == replay.anchors
        assert got.extended_cost(r_mod, lam) == replay.extended_cost(r_mod, lam)
        assert (min_g(got.update(r_mod), cfg)
                == min_g(replay.update(r_mod), cfg))


def test_rescaled_refuses_what_it_cannot_hold():
    inst = Instance(RealLine(), RealLine(), pt(0, 0),
                    (request(1000, -1000), request(-1000, 1000), request(0, 0)))
    wf = initial(inst).update(inst.requests[0]).update(inst.requests[1])
    # A denominator of 2**61 - 1 lifts the grid's positions past 2**62.
    big = Instance(RealLine(), RealLine(), pt(0, 0),
                   inst.requests[:2] + (request(Fraction(1, 2 ** 61 - 1), 0),))
    with pytest.raises(HeadroomError, match="overflow"):
        wf.rescaled(big)
    other = Instance(RealLine(), RealLine(), pt(0, 0),
                     (request(1000, -1000), request(5, 5), request(0, 0)))
    with pytest.raises(ConfigError):
        wf.rescaled(other)


def test_rescaled_keeps_python_int_values():
    """Values past 2**62 are Python ints, which rescaled takes as they are;
    a position past 2**62 at the new scale raises HeadroomError."""
    inst = huge_instance()
    wf = initial(inst).update(inst.requests[0]).update(inst.requests[1])
    assert wf.lines.dtype == object
    same = wf.rescaled(inst)
    assert same.lines.dtype == object and np.array_equal(same.lines, wf.lines)
    assert same.anchors == wf.anchors
    r = inst.requests[2]
    probe = Instance(inst.space_x, inst.space_y, inst.origin, inst.requests[:2]
                     + (RequestPoint(r.x, RealPoint(r.y.value + Fraction(1, 32))),))
    with pytest.raises(HeadroomError, match="^grid positions overflow .* scale 32$"):
        wf.rescaled(probe)


def test_default_constants_are_one_config_per_lambda_and_variant():
    """default_constants hands out one frozen config per (lambda, variant),
    whatever form lambda comes in, with the constants a fresh derivation
    gives."""
    for variant, cls in (("cnn", CnnPotential), ("general", GeneralPotential)):
        cfg = default_constants(HALF, variant)
        assert default_constants("1/2", variant) is cfg
        assert default_constants(Fraction(2, 4), variant) is cfg
        assert config_to_json(cfg) == config_to_json(cls.default(HALF))
    assert default_constants(HALF) is default_constants(HALF, "cnn")


def test_probe_replays_no_updates(monkeypatch):
    """The probe derives the perturbed work function from wf_before; its one
    update is W after the perturbed request itself."""
    inst = plane_instance(random.Random(80), 6)
    before, after, r = list(steps(inst))[5]
    calls = []
    update = WorkFunction.update
    monkeypatch.setattr(WorkFunction, "update",
                        lambda self, q: calls.append(q) or update(self, q))
    report = verify_step(before, after, default_constants(HALF))
    assert {"lipschitz_nabla", "lipschitz_min_g"} <= {c.name for c in report.checks}
    assert len(calls) == 1


def test_verified_plane_step_converts_no_points(monkeypatch):
    """A verified plane step and the WFA argmin at the run's own position
    work on grid indices and positions: no Fraction WorkFunction.evaluate
    is made, and _AxisKit.pos sees only the Lipschitz probe's moved request,
    one coordinate at a time, never a grid."""
    inst = plane_instance(random.Random(81), 6)
    cfg = default_constants(HALF)
    todo = []
    pos = inst.origin
    for before, after, r in steps(inst):
        todo.append((before, after, r, pos))
        pos = wfa_step(after, pos, HALF)
    calls = Counter()
    seen = []
    monkeypatch.setattr(_AxisKit, "pos", lambda self, points, _fn=_AxisKit.pos:
                        seen.append(list(points)) or _fn(self, seen[-1]))
    monkeypatch.setattr(WorkFunction, "evaluate",
                        lambda *args, _fn=WorkFunction.evaluate:
                        calls.update(["evaluate"]) or _fn(*args))
    for before, after, r, pos in todo:
        moved = {r.x, r.y, RealPoint(r.x.value + Fraction(1, 32)),
                 RealPoint(r.y.value + Fraction(1, 32))}
        seen.clear()
        report = verify_step(before, after, cfg)
        assert report.failures == 0
        assert wfa_minimizers(after, pos, HALF)
        assert seen and all(len(p) == 1 and p[0] in moved for p in seen)
    assert calls == Counter()
    # The counters see what does convert: an off-grid evaluate.
    after.evaluate(pt(Fraction(1, 3), Fraction(1, 5)))
    assert calls["evaluate"] == 1


# Nine verified lambdas: more configs than the frames a step builds.
NINE_LAMBDAS = [AlgorithmConfig("wfa", Fraction(k, 10)) for k in range(1, 10)]


def test_a_verified_run_builds_each_base_and_minimum_once(monkeypatch):
    """A verified lockstep run builds a number of frames per step that does
    not depend on how many configs it verifies: each work function whose
    minima are taken (the run's and the probe's) gets one frame, stacking
    every config; a step gets at most one domination frame and, audited, at
    most two audit frames, with no refined one where no axis is a line.
    Each (work function, config, kernel) minimum is computed once."""
    # (function that built it, its work function, its base's m, its configs)
    built = []
    minima = Counter()
    base_init, frame_init = _Base.__init__, _Frame.__init__

    def counted_base(self, wf, m, P):
        base_init(self, wf, m, P)
        self.made = wf, m

    def counted_frame(self, base, cfgs):
        frame_init(self, base, cfgs)
        self.made = (sys._getframe(1).f_code.co_name, *base.made, self.cfgs)
        built.append(self.made)

    def counted_kernel(fr, _k):
        minima.update((*fr.made[:3], cfg, _k.__name__) for cfg in fr.cfgs)
        return _k(fr)

    monkeypatch.setattr(_Base, "__init__", counted_base)
    monkeypatch.setattr(_Frame, "__init__", counted_frame)
    for name in ("_min_f_frame", "_min_g_frame", "_min_h_frame"):
        monkeypatch.setattr(potential, name, lambda fr, _k=getattr(potential, name):
                            counted_kernel(fr, _k))
    cases = [("uniform_random", "cnn", NINE_LAMBDAS, False),
             ("uniform_random", "cnn", NINE_LAMBDAS[1::3], True),
             ("finite_uniform", "general", NINE_LAMBDAS[1::3], True)]
    for kind, variant, configs, audit in cases:
        built.clear()
        minima.clear()
        inst = generate(GeneratorConfig(kind, n=6, coord_range=2), 1)
        traces = run_all(inst, configs, True, variant, audit=audit)
        assert all(t.lemma_failures == 0 for t in traces)
        stack = tuple(default_constants(c.lam, variant) for c in configs)
        assert all(made[3] == stack for made in built)

        assert minima and set(minima.values()) == {1}
        by = {name: [made[1:3] for made in built if made[0] == name]
              for name in ("_memo", "_domination_tables", "_audit_minima")}
        assert len(built) == sum(map(len, by.values()))
        wfs = [wf for wf, _ in by["_memo"]]
        assert len(set(wfs)) == len(wfs) == len({key[1] for key in minima
                                                 if key[0] == "_memo"})
        # W before each of the 6 requests and after the last, and, where the
        # minor axis is a line, the probe's W after each moved request.
        assert len(wfs) == 6 + 1 + (6 if kind == "uniform_random" else 0)
        assert 0 < len(by["_domination_tables"]) <= 6
        audited = Counter(wf for wf, _ in by["_audit_minima"])
        assert len(audited) == (6 if audit else 0)
        assert all(n <= 2 for n in audited.values())
        refined = [wf for wf, m in by["_audit_minima"] if m == 2]
        assert (kind == "finite_uniform") == (audit and not refined)


def test_a_verified_run_leaves_no_work_function_alive(monkeypatch):
    """The potential's memo of a work function dies with it: once a verified
    lockstep run returns, no work function that update made is alive."""
    inst = generate(GeneratorConfig("uniform_random", n=8), 1)
    made = []
    update = WorkFunction.update

    def recorded(self, r):
        wf = update(self, r)
        made.append(weakref.ref(wf))
        return wf

    monkeypatch.setattr(WorkFunction, "update", recorded)
    run_all(inst, NINE_LAMBDAS[:3], verify=True)
    gc.collect()
    # The run's 8 updates and the probe's 8.
    assert len(made) == 16
    assert [ref() for ref in made if ref() is not None] == []
