"""Instances, requests, and the coordinate grid."""

import random
from fractions import Fraction

import pytest

from wfalab import (Instance, RealLine, RequestIndexError, Scaled,
                    SpaceMismatchError, grid_after, grid_points_on, idx, pt,
                    real, request, serves)
from wfalab.harness import uniform_metric
from wfalab.metric import ProductPoint, product_key

from conftest import finite_instance, plane_instance


def two_request_instance():
    return Instance(RealLine(), RealLine(), pt(0, 0),
                    (request(1, 2), request(3, -1)))


def test_request_and_serves():
    r = request(Fraction(1, 2), 2)
    assert serves(pt(Fraction(1, 2), 99), r)
    assert serves(pt(-5, 2), r)
    assert not serves(pt(0, 0), r)


def test_instance_distances():
    inst = Instance(RealLine(), Scaled(RealLine(), Fraction(3)), pt(0, 0),
                    (request(1, 2),))
    assert inst.distance_x(real(0), real(2)) == 2
    assert inst.distance_y(real(0), real(2)) == 6
    assert inst.distance(pt(0, 0), pt(1, 1)) == 4
    assert inst.n == 1


def test_instance_validates_points():
    from wfalab import RequestPoint

    mixed = RequestPoint(idx(0), real(1))
    with pytest.raises(SpaceMismatchError):
        Instance(RealLine(), RealLine(), pt(0, 0), (request(1, 2), mixed))
    with pytest.raises(SpaceMismatchError):
        Instance(uniform_metric(3), RealLine(),
                 ProductPoint(idx(0), real(0)),
                 (RequestPoint(idx(5), real(1)),))


def test_grid_after_collects_prefix_coordinates():
    inst = two_request_instance()
    g0 = grid_after(inst, 0)
    assert [p.value for p in g0.xs] == [0]
    assert [p.value for p in g0.ys] == [0]
    g1 = grid_after(inst, 1)
    assert [p.value for p in g1.xs] == [0, 1]
    assert [p.value for p in g1.ys] == [0, 2]
    g2 = grid_after(inst, 2)
    assert [p.value for p in g2.xs] == [0, 1, 3]
    assert [p.value for p in g2.ys] == [-1, 0, 2]
    with pytest.raises(RequestIndexError):
        grid_after(inst, 3)
    with pytest.raises(RequestIndexError):
        grid_after(inst, -1)


def test_grid_points_on_covers_both_lines_once():
    inst = two_request_instance()
    g = grid_after(inst, 2)
    pts = grid_points_on(g, inst.requests[1])
    # vertical line x=3 over all ys, then horizontal y=-1 over xs, corner once
    assert len(pts) == len(set(pts)) == len(g.ys) + len(g.xs) - 1
    for p in pts:
        assert serves(p, inst.requests[1])
    corner = ProductPoint(real(3), real(-1))
    assert sum(1 for p in pts if p == corner) == 1


def test_grid_points_full_lines_on_finite_axes():
    rng = random.Random(5)
    inst = finite_instance(rng, 3, size=4)
    g = grid_after(inst, 3)
    r = inst.requests[2]
    restricted = grid_points_on(g, r)
    full = grid_points_on(g, r, inst.space_x, inst.space_y, full_lines=True)
    assert set(restricted) <= set(full)
    assert len(full) == 4 + 4 - 1
    for p in full:
        assert serves(p, r)


def test_grid_sorted_by_key():
    rng = random.Random(11)
    inst = plane_instance(rng, 5)
    g = grid_after(inst, 5)
    assert list(g.xs) == sorted(set(g.xs), key=lambda p: p.value)
    assert list(g.ys) == sorted(set(g.ys), key=lambda p: p.value)


def test_uniform_metric_shape():
    m = uniform_metric(4)
    assert m.size == 4
    assert m.dist[0][0] == 0 and m.dist[1][3] == 1
