"""Shared randomized-instance factories and the work-value oracle for the
test suite."""

import random
from fractions import Fraction

import numpy as np

from wfalab import (Instance, ProductPoint, RealLine, RealPoint, RequestPoint,
                    Scaled, idx, pt, request)
from wfalab.harness import uniform_metric
from wfalab.offline import _sweep


def brute_force_work_value(instance: Instance, i: int, s: ProductPoint) -> Fraction:
    """W after the first i requests at s: the cheapest path origin -> serve
    r_1 .. r_i -> s over grid serve points, from the path oracle's sweep."""
    d = instance.distance
    return min(c + d(q, s) for q, c in _sweep(instance, i).items())


def quarter(rng: random.Random, bound: int) -> Fraction:
    return Fraction(rng.randint(-4 * bound, 4 * bound), 4)


def plane_instance(rng: random.Random, n: int, bound: int = 4) -> Instance:
    reqs = tuple(request(quarter(rng, bound), quarter(rng, bound))
                 for _ in range(n))
    return Instance(RealLine(), RealLine(), pt(0, 0), reqs)


def finite_instance(rng: random.Random, n: int, size: int = 4) -> Instance:
    space = uniform_metric(size)
    reqs = tuple(RequestPoint(idx(rng.randrange(size)),
                              idx(rng.randrange(size)))
                 for _ in range(n))
    return Instance(space, space, ProductPoint(idx(0), idx(0)), reqs)


def weighted_instance(rng: random.Random, n: int, bound: int = 4,
                      wx=1, wy=3) -> Instance:
    reqs = tuple(request(quarter(rng, bound), quarter(rng, bound))
                 for _ in range(n))
    return Instance(Scaled(RealLine(), Fraction(wx)),
                    Scaled(RealLine(), Fraction(wy)), pt(0, 0), reqs)


def mixed_instance(rng: random.Random, n: int) -> Instance:
    """A uniform finite x axis and a line y axis: the Lipschitz probe runs
    at the steps whose major axis is the finite one."""
    reqs = tuple(RequestPoint(idx(rng.randrange(4)), RealPoint(quarter(rng, 1)))
                 for _ in range(n))
    return Instance(uniform_metric(4), RealLine(),
                    ProductPoint(idx(0), RealPoint(0)), reqs)


def wide_instance():
    """Instance scale 6 685 349 671: at lambda = 997/1000 the potential's F
    and G tables and the extended-cost kernel outgrow int64, and the kernels
    must switch to Python ints."""
    reqs = (request(Fraction(1000, 7), Fraction(2000, 11)),
            request(Fraction(3000, 13), Fraction(-5000, 17)),
            request(Fraction(7000, 19), Fraction(1000, 23)),
            request(Fraction(1, 29), Fraction(3, 31)))
    return Instance(RealLine(), RealLine(), pt(0, 0), reqs)


def far_instance():
    """300 quarter-integer requests in [-1000, 1000]^2: about 600 cells on
    the last request's lines."""
    return plane_instance(random.Random(61), 300, bound=1000)


def grid_values(wf):
    """scale * W on the whole grid, [a, b] at (grid.xs[a], grid.ys[b]),
    derived from the anchors."""
    nx, ny = len(wf.gx), len(wf.gy)
    return wf._w_at(1, np.repeat(wf.gx, ny), np.tile(wf.gy, nx)).reshape(nx, ny)


def huge_instance():
    """Requests at (+-2**60, +-2**60): W passes 2**62 from the second
    request on, so the work function must hold it in Python ints."""
    b = 2 ** 60
    reqs = (request(b, b), request(-b, -b), request(b, -b), request(-b, b),
            request(b, b))
    return Instance(RealLine(), RealLine(), pt(0, 0), reqs)


def big_instance():
    """Requests at (+-2**55, +-2**55): W fits int64 at the instance's scale
    but passes 2**62 from the third request on at the Lipschitz probe's,
    32 times that, where every position still fits."""
    b = 2 ** 55
    reqs = (request(b, b), request(-b, -b), request(b, -b), request(-b, b),
            request(b, b), request(-b, b))
    return Instance(RealLine(), RealLine(), pt(0, 0), reqs)
