"""Potential-function machinery and the per-step lemma verification suite.

Three layered functions over configuration pairs and triples drive the
amortized analysis.  H couples two configurations through the work function
and their distance; F subtracts a slack term for a third configuration
against the pair; G replaces the pair by a region around it (an axis-aligned
box on the plane, a product of metric balls in general spaces).  The
potential is a weighted mix of the exact minima of F and G over triples.

verify_step recomputes, in exact rational arithmetic, every inequality the
amortized argument relies on for one request transition and reports the
margins.  There is no tolerance knob: a failed check means the engine and
the mathematics disagree somewhere.

The minima of F, G and H, and the values the domination checks read, come
from one integer kernel on the work function's own scale, kits and anchors:
a _Frame, one config's F, G and H tables over a _Base, which holds what no
config changes (the candidates' positions, W at them, their distances).
Candidates are integer positions (_candidates; the audit's refined set adds
the line midpoints at twice the scale), and a verified step builds points
(WorkFunction._points) only for witnesses and reported values; no kernel
here reads the layout of the work function's lines.  A frame evaluates F and
G at broadcast index arrays of triples, with the anchors on a trailing
axis.  The minima take rows (the first slot fixed) in blocks of a fixed
number of entries, so a large frame never holds a cubic table.  Each live
work function has one _Memo, in a weak-keyed map so that it dies with the
work function: its candidates' base, and per config its frame and minima,
each built on first use.  The configs verified on a step share the base,
and the minima after a step serve as those before the next.
f_value, g_value, h_value and region_slack compute the same quantities in
Fraction.  They are the public API and the exact oracle the tests hold the
kernel to, and the audit's dense sweeps call them so that its check on the
kernel's minima does not run through it.

The Lipschitz probe moves request i and needs W after the first i requests
of the perturbed instance.  W after a sequence depends on that sequence
alone, so that W is wf_before's, rescaled to the new instance's integer
scale (WorkFunction.rescaled) rather than replayed from the start.  Nor does
it depend on the constants: a SharedStep holds the probe's work functions,
its extended costs at every lambda verified on the step, and the domination
samples, so configs verified on the same transition share them; only the
probe's min G, which reads the constants, is each config's own.
"""

from __future__ import annotations

import dataclasses
import math
import weakref
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Optional, Tuple, Union

import numpy as np

from .errors import AuditError, ConfigError, HeadroomError, RegionSpaceError
from .exact import frac
from .metric import IndexPoint, ProductPoint, RealPoint
from .problem import Instance, RequestPoint, serves
from .workfn import WorkFunction, _AxisKit, _int_dtype, _param_value

HALF = Fraction(1, 2)


# ---------------------------------------------------------------------------
# Configurations


class PotentialConfig:
    """What the two variants' constants share: every field a Fraction, and
    the derived tables and hash computed once per config (the methods hand
    out copies; the memos of frames and minima key on configs, and Fraction
    hashes are slow).  VARIANTS maps each variant's name to its dataclass."""

    def __post_init__(self) -> None:
        for f in dataclasses.fields(self):
            object.__setattr__(self, f.name, frac(getattr(self, f.name)))
        self._check()

    @property
    def variant(self) -> str:
        return next(name for name, cls in VARIANTS.items() if type(self) is cls)

    @property
    def triple_param(self) -> Fraction:
        return self.lam

    def constants(self) -> dict:
        return dict(self._constants)

    def dominate_bounds(self) -> dict:
        """Per-slot lower-bound coefficients for replacing a dominated point."""
        return dict(self._bounds)

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash(tuple(getattr(self, f.name) for f in dataclasses.fields(self)))


@dataclass(frozen=True)
class CnnPotential(PotentialConfig):
    """Plane-variant constants: one slack coefficient and the F/G mix."""

    lam: Fraction
    alpha: Fraction
    gamma: Fraction

    __hash__ = PotentialConfig.__hash__

    def _check(self) -> None:
        if not (0 < self.lam < 1):
            raise ConfigError(f"lambda must lie in (0, 1), got {self.lam}")
        if not (0 < self.alpha < HALF):
            raise ConfigError(f"alpha must lie in (0, 1/2), got {self.alpha}")
        if self.alpha > (1 - self.lam) / (12 + 4 * self.lam):
            raise ConfigError(
                f"alpha={self.alpha} exceeds (1-lambda)/(12+4*lambda)")
        if self.alpha >= (1 - self.lam) / (2 * (1 + self.lam)):
            raise ConfigError(
                f"alpha={self.alpha} must stay below (1-lambda)/(2+2*lambda)")
        if not (0 < self.gamma < 1):
            raise ConfigError(f"gamma must lie in (0, 1), got {self.gamma}")

    @classmethod
    def default(cls, lam: Fraction) -> "CnnPotential":
        draft = cls(lam, (1 - lam) / (12 + 4 * lam), HALF)
        c = draft.constants()
        return dataclasses.replace(draft, gamma=c["c2"] / (c["c2"] + c["c4"]))

    @property
    def coeff(self) -> Fraction:
        return self.alpha

    @property
    def weight(self) -> Fraction:
        return self.gamma

    @property
    def pair_param(self) -> Fraction:
        return self.lam

    def region(self, s1: ProductPoint, s2: ProductPoint) -> "Boks":
        return Boks(s1, s2)

    @cached_property
    def _constants(self) -> dict:
        lam, a = self.lam, self.alpha
        c1 = a
        c2 = a * (1 - lam)
        c3 = min(a,
                 a * (1 - lam) / (1 + lam),
                 (HALF * (1 - lam) - a * (3 + lam)) / (1 + lam))
        c4 = 2 + 2 * a * (1 + lam) + c3 * (1 + lam)
        c5 = min((1 - self.gamma) * c1, self.gamma * c3)
        return {"c1": c1, "c2": c2, "c3": c3, "c4": c4, "c5": c5}

    @cached_property
    def _bounds(self) -> dict:
        outer = self.alpha * (1 - self.lam)
        inner = HALF * (1 - self.lam) - self.alpha * (1 + self.lam)
        return {"a": outer, "b": inner, "c": inner,
                "d": outer, "e": inner, "f": inner}


@dataclass(frozen=True)
class GeneralPotential(PotentialConfig):
    """Arbitrary-space constants: dual slack parameters and ball regions."""

    lam: Fraction
    mu: Fraction
    eta: Fraction
    beta: Fraction
    kappa: Fraction

    __hash__ = PotentialConfig.__hash__

    def _check(self) -> None:
        if not (0 < self.lam < self.mu < 1):
            raise ConfigError(
                f"need 0 < lambda < mu < 1, got lambda={self.lam}, mu={self.mu}")
        if self.eta < 1:
            raise ConfigError(f"eta must be at least 1, got {self.eta}")
        if self.eta * (self.mu - self.lam) < 1 + self.mu:
            raise ConfigError(
                f"eta={self.eta} too small: need eta*(mu-lambda) >= 1+mu")
        if not (0 < self.beta < HALF):
            raise ConfigError(f"beta must lie in (0, 1/2), got {self.beta}")
        if not (0 < self.kappa < 1):
            raise ConfigError(f"kappa must lie in (0, 1), got {self.kappa}")
        if min(self._bounds.values()) <= 0:
            raise ConfigError(
                f"beta={self.beta} too large: a replacement bound is not positive")
        if self._constants["c3"] <= 0:
            raise ConfigError(f"beta={self.beta} too large for a positive c3")

    @classmethod
    def default(cls, lam: Fraction) -> "GeneralPotential":
        mu = (1 + lam) / 2
        eta = Fraction(math.ceil((1 + mu) / (mu - lam)) + 1)
        cap = min((1 - mu) / (2 * (1 + lam)),
                  (1 - mu) / (2 * eta * (1 + lam)),
                  (1 - mu) / (2 * (eta + 1) * (1 + lam)),
                  HALF)
        draft = cls(lam, mu, eta, cap / 2, HALF)
        c = draft.constants()
        return dataclasses.replace(draft, kappa=c["c2"] / (c["c2"] + c["c4"]))

    @property
    def coeff(self) -> Fraction:
        return self.beta

    @property
    def weight(self) -> Fraction:
        return self.kappa

    @property
    def pair_param(self) -> Fraction:
        return self.mu

    def region(self, s1: ProductPoint, s2: ProductPoint) -> "Spheres":
        return Spheres(s1, s2, self.eta)

    @cached_property
    def _constants(self) -> dict:
        lam, mu, eta, b = self.lam, self.mu, self.eta, self.beta
        c1 = b
        c2 = min(self._bounds.values())
        c3 = min(b,
                 b * (1 - lam) / (1 + lam),
                 (HALF * (1 - mu) - (eta + 1) * b * (1 + lam) - 2 * b) / (1 + lam))
        c4 = 2 + 2 * b * (1 + lam) + c3 * (1 + lam)
        c5 = min((1 - self.kappa) * c1, self.kappa * c3)
        return {"c1": c1, "c2": c2, "c3": c3, "c4": c4, "c5": c5}

    @cached_property
    def _bounds(self) -> dict:
        lam, mu, eta, b = self.lam, self.mu, self.eta, self.beta
        outer = b * (1 - lam)
        inner = HALF * (1 - mu) - b * (1 + lam)
        return {"a": outer,
                "b": inner,
                "c": inner,
                "d": outer,
                "e": HALF * (1 - mu) - eta * b * (1 + lam),
                "f": HALF * (1 - mu) - (eta + 1) * b * (1 + lam)}


VARIANTS = {"cnn": CnnPotential, "general": GeneralPotential}


def _variant(name) -> type:
    cls = VARIANTS.get(name) if isinstance(name, str) else None
    if cls is None:
        raise ConfigError(f"unknown potential variant {name!r}")
    return cls


def _json_key(field: str) -> str:
    return "lambda" if field == "lam" else field


def default_constants(lam, variant: str = "cnn") -> PotentialConfig:
    """Constants derived from lambda alone, with the F/G mix balanced so the
    minor-axis terms cancel in the potential-increase bound.  Configs are
    frozen, so one object serves every call with the same arguments."""
    lam = frac(lam)
    if not (0 < lam < 1):
        raise ConfigError(f"lambda must lie in (0, 1), got {lam}")
    return _default(lam, _variant(variant))


# Room for a batch's (lambda, variant) pairs; each derivation is 100-250 us
# of Fraction arithmetic.
@lru_cache(maxsize=64)
def _default(lam: Fraction, cls: type) -> PotentialConfig:
    return cls.default(lam)


def potential_for(spec, lam) -> PotentialConfig:
    """The constants that verify a run at lam: spec itself when it is a
    config (for that lambda), else default_constants(lam, spec)."""
    lam = frac(lam)
    if not isinstance(spec, PotentialConfig):
        return default_constants(lam, spec)
    if spec.lam != lam:
        raise ConfigError(f"potential lambda {spec.lam} must match the "
                          f"accounting lambda {lam}")
    return spec


def config_to_json(cfg: PotentialConfig) -> dict:
    return {"variant": cfg.variant,
            **{_json_key(f.name): str(getattr(cfg, f.name))
               for f in dataclasses.fields(cfg)}}


def config_from_json(raw: dict) -> PotentialConfig:
    cls = _variant(raw.get("variant", "cnn"))
    try:
        return cls(**{f.name: raw[_json_key(f.name)] for f in dataclasses.fields(cls)})
    except KeyError as exc:
        raise ConfigError(f"potential config is missing field {exc}") from None


def potential_from_json(raw) -> Union[str, PotentialConfig]:
    """A batch config's potential field: a variant name ("default" and an
    absent field are "cnn"), an object holding only a variant, or a full
    constants object as config_to_json writes it."""
    if raw is None or raw == "default":
        return "cnn"
    if isinstance(raw, dict) and set(raw) <= {"variant"}:
        raw = raw.get("variant", "cnn")
    if isinstance(raw, str):
        _variant(raw)
        return raw
    if isinstance(raw, dict):
        return config_from_json(raw)
    raise ConfigError(f"bad potential field {raw!r}")


# ---------------------------------------------------------------------------
# Regions


@dataclass(frozen=True)
class Boks:
    """Axis-aligned rectangle spanned by two plane configurations."""

    s1: ProductPoint
    s2: ProductPoint


@dataclass(frozen=True)
class Spheres:
    """Product of per-axis balls centered at s1, radii eta times the
    component distances to s2."""

    s1: ProductPoint
    s2: ProductPoint
    eta: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "eta", frac(self.eta))
        if self.eta < 0:
            raise ConfigError(f"eta must be nonnegative, got {self.eta}")


Region = Union[Boks, Spheres]


def _interval_coords(a, b) -> tuple:
    if not (isinstance(a, RealPoint) and isinstance(b, RealPoint)):
        raise RegionSpaceError("box regions are only defined over line components")
    return (a.value, b.value) if a.value <= b.value else (b.value, a.value)


def region_membership(region: Region, t: ProductPoint,
                      instance: Optional[Instance] = None) -> bool:
    """Exact membership test; finite-axis ball tests need the instance for
    the distance table."""
    if isinstance(region, Boks):
        lo, hi = _interval_coords(region.s1.x, region.s2.x)
        if not (isinstance(t.x, RealPoint) and lo <= t.x.value <= hi):
            return False
        lo, hi = _interval_coords(region.s1.y, region.s2.y)
        return isinstance(t.y, RealPoint) and lo <= t.y.value <= hi
    if isinstance(region, Spheres):
        return (_in_ball(region.s1.x, region.s2.x, t.x, region.eta, instance, 0)
                and _in_ball(region.s1.y, region.s2.y, t.y, region.eta, instance, 1))
    raise RegionSpaceError(f"unknown region {region!r}")


def _in_ball(center, other, t, eta, instance, axis) -> bool:
    if isinstance(center, RealPoint) and isinstance(other, RealPoint):
        if not isinstance(t, RealPoint):
            return False
        return abs(t.value - center.value) <= eta * abs(center.value - other.value)
    if instance is None:
        raise RegionSpaceError(
            "ball membership on a finite component needs the instance")
    table = instance._axes[axis].matrix
    if table is None or not isinstance(t, IndexPoint):
        raise RegionSpaceError("point kind does not match the component space")
    return table[center.index][t.index] <= eta * table[center.index][other.index]


def _axis_constraint(region: Region, axis: int, resolved) -> tuple:
    """The region's footprint on one axis: an interval or an index set."""
    a = region.s1.x if axis == 0 else region.s1.y
    b = region.s2.x if axis == 0 else region.s2.y
    if isinstance(region, Boks):
        if resolved.kind != "line":
            raise RegionSpaceError("box regions are only defined over line components")
        lo, hi = _interval_coords(a, b)
        return ("interval", lo, hi)
    if resolved.kind == "line":
        rad = region.eta * abs(a.value - b.value)
        return ("interval", a.value - rad, a.value + rad)
    table = resolved.matrix
    limit = region.eta * table[a.index][b.index]
    return ("set", tuple(j for j in range(resolved.size)
                         if table[a.index][j] <= limit))


def _axis_min_cost(resolved, cons, g, s, p: Fraction) -> Fraction:
    """min over t in the constraint of d(g, t) + p*d(t, s) on one axis.

    On a line the constrained minimum sits at the clamped coordinate of one
    endpoint; finite components are enumerated.
    """
    w = resolved.weight
    if cons[0] == "interval":
        lo, hi = cons[1], cons[2]
        best = None
        for raw in (g.value, s.value):
            t = min(max(raw, lo), hi)
            c = w * abs(g.value - t) + p * w * abs(t - s.value)
            if best is None or c < best:
                best = c
        return best
    table = resolved.matrix
    return min(w * table[g.index][j] + p * w * table[j][s.index]
               for j in cons[1])


def region_slack(wf: WorkFunction, s3: ProductPoint, region: Region,
                 param) -> Fraction:
    """min over t in the region of W(t) + p*d(t, s3), minus W(s3).

    W(t) itself is a minimum over the work function's anchors, so the joint
    minimization runs per anchor with per-axis clamped candidates.
    """
    p = _param_value(param)
    ax, ay = wf.instance._axes
    cons_x = _axis_constraint(region, 0, ax)
    cons_y = _axis_constraint(region, 1, ay)
    best = None
    for g, v in wf.anchors:
        tot = (v + _axis_min_cost(ax, cons_x, g.x, s3.x, p)
               + _axis_min_cost(ay, cons_y, g.y, s3.y, p))
        if best is None or tot < best:
            best = tot
    return best - wf.evaluate(s3)


# ---------------------------------------------------------------------------
# H, F, G


def h_value(wf: WorkFunction, s1: ProductPoint, s2: ProductPoint,
            param) -> Fraction:
    """Half the sum of the work-function values minus half the scaled
    distance; equivalently W(s1) minus half the slack of s2 against s1."""
    p = _param_value(param)
    return (HALF * (wf.evaluate(s1) + wf.evaluate(s2))
            - p / 2 * wf.instance.distance(s1, s2))


def f_value(wf: WorkFunction, s1: ProductPoint, s2: ProductPoint,
            s3: ProductPoint, cfg: PotentialConfig) -> Fraction:
    return (h_value(wf, s1, s2, cfg.pair_param)
            - cfg.coeff * wf.slack(s3, (s1, s2), cfg.triple_param))


def g_value(wf: WorkFunction, s1: ProductPoint, s2: ProductPoint,
            s3: ProductPoint, cfg: PotentialConfig) -> Fraction:
    sl = region_slack(wf, s3, cfg.region(s1, s2), cfg.triple_param)
    return h_value(wf, s1, s2, cfg.pair_param) - cfg.coeff * sl


# ---------------------------------------------------------------------------
# Exact triple minimization


def _candidates(wf: WorkFunction, m: int = 1) -> np.ndarray:
    """Triple-minimization candidates as (k, 2) positions at m * wf.scale:
    every point of the last request's two lines with coordinates from the
    grid (full enumeration on finite axes) and, on a line axis, the points
    that cut each gap between grid coordinates into m equal parts (m = 2:
    the midpoints), in product_key order; the origin alone before any
    request."""
    axes = []
    for kit, g, at in zip(wf.kits, (wf.gx, wf.gy), wf._at):
        if kit.kind == "finite":
            axes.append((np.arange(len(kit.D)), at))
            continue
        # Column t of row k is t/m of the way from g[k] to g[k + 1], in the
        # dtype its own bound picks.
        g = g.astype(_int_dtype(m * int(np.abs(g).max())), copy=False)
        t = np.arange(m, dtype=g.dtype)
        fine = np.append((g[:-1, None] * (m - t) + g[1:, None] * t).ravel(), m * g[-1])
        axes.append((fine, m * int(g.searchsorted(at))))
    (xs, a), (ys, b) = axes
    if wf.last_request is None:
        return np.array([[xs[a], ys[b]]])
    # xs and ys are sorted, so product_key order is the horizontal line left
    # of the crossing, the whole vertical line, then the rest.
    x = np.concatenate([xs[:a], np.full(len(ys), xs[a]), xs[a + 1:]])
    y = np.concatenate([np.full(a, ys[b]), ys, np.full(len(xs) - a - 1, ys[b])])
    return np.stack([x, y], axis=1)


def _kernel_dtype(w_max: int, reach: int, cfg: PotentialConfig):
    """int64 when every F, G and H kernel entry has headroom, else object:
    each entry is within 16 (w_max + reach) times the product of
    numerator + denominator over the pair and triple parameters, the
    coefficient and, for balls, eta."""
    bound = 16 * (w_max + reach)
    for c in (cfg.pair_param, cfg.triple_param, cfg.coeff,
              getattr(cfg, "eta", Fraction(0))):
        bound *= c.numerator + c.denominator
    return _int_dtype(bound)


class _Base:
    """What a frame holds that no config changes, at scale m * wf.scale: the
    candidates' positions P, a (k, 2) array (on a finite axis a point's
    index; on a line in the grid's hull, as _candidates gives them), W at
    them (exact: the anchors dominate every configuration), their distances
    D, the anchors' values GW, each axis's (kit, candidate positions, anchor
    positions), and the bounds w_max and reach; int64 where those allow."""

    def __init__(self, wf: WorkFunction, m: int, P: np.ndarray):
        self.P, self.scale = P, m * wf.scale
        ax, ay, av = wf._anchor_cells
        # On a line every candidate lies in the grid's hull (grid points and
        # midpoints between them), so the grid's positions bound every
        # position and distance in the frame; a finite axis's span is its
        # largest distance.
        self.reach = m * sum(kit.span(g) + int(np.abs(g).max())
                             for kit, g in zip(wf.kits, (wf.gx, wf.gy)))
        self.w_max = m * int(av.max()) + self.reach
        dtype = _int_dtype(self.w_max + self.reach)
        self.axes = []
        for kit, g, C in zip(wf.kits, (ax, ay), P.T):
            fine, G = kit.refine(m, dtype, g)
            # A finite axis's candidates are indices, int64 even where a line
            # axis's positions made P Python ints.
            self.axes.append((fine, C.astype(np.int64 if kit.kind == "finite" else dtype),
                              G))
        (kx, X, _), (ky, Y, _) = self.axes
        self.GW = av.astype(dtype) * m
        self.W = wf._w_at(m, X, Y).astype(dtype, copy=False)
        self.D = kx.dist(X[:, None], X) + ky.dist(Y[:, None], Y)


class _Frame:
    """F, G and H over triples of a base's candidates, on its scale.  Row i
    holds F or G at (i, j, m) for every j and m, over the fixed denominators
    f_den and g_den; H is one table over h_den.  The tables are int64 when
    _kernel_dtype finds headroom for cfg, else Python ints."""

    def __init__(self, base: _Base, cfg: PotentialConfig):
        self.P = base.P
        dtype = _kernel_dtype(base.w_max, base.reach, cfg)
        self.axes = []
        for kit, C, G in base.axes:
            fine, G = kit.refine(1, dtype, G)
            self.axes.append((fine, C if kit.kind == "finite" else C.astype(dtype), G))
        self.GW, self.W, D = (a.astype(dtype, copy=False)
                              for a in (base.GW, base.W, base.D))
        self.pn, self.pd = cfg.pair_param.numerator, cfg.pair_param.denominator
        self.ln, self.ld = cfg.triple_param.numerator, cfg.triple_param.denominator
        self.cn, self.cd = cfg.coeff.numerator, cfg.coeff.denominator
        self.boks = isinstance(cfg, CnnPotential)
        self.en, self.ed = (0, 1) if self.boks else (cfg.eta.numerator,
                                                     cfg.eta.denominator)
        # HT[i, j]: H(i, j).  SLT[i, m]: slack of m against i alone.
        self.HT = (self.W[:, None] + self.W[None, :]) * self.pd - self.pn * D
        self.SLT = (self.W[:, None] - self.W[None, :]) * self.ld + self.ln * D
        self.h_den = 2 * base.scale * self.pd
        self.f_den = self.h_den * self.ld * self.cd
        self.g_den = self.f_den * self.ed

    def f_row(self, rows) -> np.ndarray:
        """F(i, j, m) for every j and m, with a leading axis when rows is an
        index array; likewise g_row.  F's rows read SLT whole, as a view."""
        i = np.asarray(rows)
        return self._f(self.HT[i][..., :, None], self.SLT[i][..., None, :], self.SLT)

    def g_row(self, rows) -> np.ndarray:
        every = np.arange(len(self.P))
        return self.g_at(np.asarray(rows)[..., None, None], every[:, None], every)

    def f_at(self, i, j, m) -> np.ndarray:
        """F at the candidate triples (i, j, m), broadcast index arrays."""
        return self._f(self.HT[i, j], self.SLT[i, m], self.SLT[j, m])

    def _f(self, h, slack_i, slack_j) -> np.ndarray:
        return (h * (self.ld * self.cd)
                - (self.cn * 2 * self.pd) * np.minimum(slack_i, slack_j))

    def g_at(self, i, j, m) -> np.ndarray:
        """G at the candidate triples (i, j, m), broadcast index arrays."""
        q = self.ld * self.ed
        cost = self._region_cost(i, j, m, *self.axes[0])
        cost += self._region_cost(i, j, m, *self.axes[1])
        cost += self.GW * q
        slack = cost.min(axis=-1) - self.W[m] * q
        return (self.HT[i, j] * (q * self.cd)
                - (self.cn * 2 * self.pd) * slack)

    def _region_cost(self, i, j, m, kit: _AxisKit, C: np.ndarray,
                     G: np.ndarray) -> np.ndarray:
        """Entry [..., a]: the minimum over t in the footprint of region(i, j)
        on this axis of d(anchor a, t) + lambda*d(t, m), at ld * ed times
        the frame's scale; the anchors are the trailing axis."""
        ln, ld, en, ed = self.ln, self.ld, self.en, self.ed
        if kit.kind == "line":
            # ln / ld is lambda < 1, so moving t away from the anchor never
            # lowers the cost: the minimum sits at the anchor clamped into
            # the footprint.
            ci, cj, cm = (C[x][..., None] for x in (i, j, m))
            if self.boks:
                lo, hi = np.minimum(ci, cj) * ed, np.maximum(ci, cj) * ed
            else:
                rad = en * np.abs(cj - ci)
                lo, hi = ci * ed - rad, ci * ed + rad
            Gq = G * ed
            clg = np.minimum(np.maximum(Gq, lo), hi)
            cost = ln * clg - (ln * ed) * cm
            np.abs(cost, out=cost)
            cost += ld * np.abs(Gq - clg)
            return cost
        if self.boks:
            raise RegionSpaceError("box regions are only defined over line components")
        # A ball's footprint is a prefix of the space by distance from its
        # center (kit.near), so running minima along those orders, one per
        # center these triples use, give every footprint.
        centers = sorted(set(np.ravel(C[i]).tolist()))
        T = (ld * kit.D[G].T[:, None, :] + ln * kit.D[:, C][:, :, None]) * ed
        runs = np.minimum.accumulate(T[kit.near[centers]], axis=1)
        slot = np.zeros(len(kit.D), dtype=np.int64)
        slot[centers] = np.arange(len(centers))
        rows = kit.D[C]
        count = (rows[i] * ed <= en * rows[i, C[j]][..., None]).sum(axis=-1)
        return runs[slot[C[i]], count - 1, m]


# Entries (rows x candidates x anchors x candidates) in one block of G rows;
# F rows go in blocks of the same number of rows.  A small frame takes one
# pass; a frame whose single row exceeds this goes one row at a time.  At
# 2**14 (128 KB of int64) min G over a 13-candidate plane frame is one numpy
# pass instead of four, which is where small frames spend their time.
_BLOCK_ENTRIES = 2 ** 14


def _first_min(fr: _Frame, row, den: int) -> tuple:
    """Minimum over the frame's rows and its first minimizing triple (as
    candidate indices): the first row, then the row-major first (j, m)."""
    k = len(fr.P)
    step = max(1, _BLOCK_ENTRIES // (k * len(fr.GW) * k))
    best = None
    for start in range(0, k, step):
        R = row(np.arange(start, min(start + step, k)))
        flat = int(np.argmin(R))
        if best is None or R.flat[flat] < best[0]:
            best = (R.flat[flat], start * k * k + flat)
    v, flat = best
    i, rest = divmod(flat, k * k)
    return Fraction(int(v), den), (i, *divmod(rest, k))


def _min_f_frame(fr: _Frame) -> tuple:
    return _first_min(fr, fr.f_row, fr.f_den)


def _min_g_frame(fr: _Frame) -> tuple:
    return _first_min(fr, fr.g_row, fr.g_den)


def _min_h_frame(fr: _Frame) -> tuple:
    flat = int(np.argmin(fr.HT))
    i, j = divmod(flat, len(fr.P))
    return Fraction(int(fr.HT[i, j]), fr.h_den), (i, j)


class _Memo:
    """A work function's candidates' base, and per config its frame and its
    minima, each built on first use.  It holds no reference to the work
    function, so its entry in _memos dies with it."""

    def __init__(self, wf: WorkFunction):
        self.base = _Base(wf, 1, _candidates(wf))
        self.frames, self.minima = {}, {}


_memos = weakref.WeakKeyDictionary()


def _frame(wf: WorkFunction, cfg: PotentialConfig) -> tuple:
    """(wf's memo, its frame for cfg)."""
    memo = _memos.get(wf) or _memos.setdefault(wf, _Memo(wf))
    if cfg not in memo.frames:
        memo.frames[cfg] = _Frame(memo.base, cfg)
    return memo, memo.frames[cfg]


def _minimum(wf: WorkFunction, cfg: PotentialConfig, kernel) -> tuple:
    """(value, witness points, witness rows) of one kernel on wf's frame."""
    memo, fr = _frame(wf, cfg)
    if (cfg, kernel) not in memo.minima:
        v, rows = kernel(fr)
        memo.minima[cfg, kernel] = v, wf._points(*fr.P[list(rows)].T), rows
    return memo.minima[cfg, kernel]


def min_f(wf: WorkFunction, cfg: PotentialConfig) -> tuple:
    """(exact minimum of F over triples, lexicographically first minimizer)."""
    return _minimum(wf, cfg, _min_f_frame)[:2]


def min_g(wf: WorkFunction, cfg: PotentialConfig) -> tuple:
    return _minimum(wf, cfg, _min_g_frame)[:2]


def min_h(wf: WorkFunction, cfg: PotentialConfig) -> tuple:
    return _minimum(wf, cfg, _min_h_frame)[:2]


def phi(wf: WorkFunction, cfg: PotentialConfig) -> Fraction:
    """Weighted mix of the F and G minima."""
    return (1 - cfg.weight) * min_f(wf, cfg)[0] + cfg.weight * min_g(wf, cfg)[0]


# ---------------------------------------------------------------------------
# Verification


def _fs(v) -> Optional[str]:
    return None if v is None else str(v)


@dataclass(frozen=True)
class CheckResult:
    name: str
    holds: bool
    lhs: Optional[Fraction] = None
    rhs: Optional[Fraction] = None
    margin: Optional[Fraction] = None
    note: str = ""
    advisory: bool = False

    def to_json(self) -> dict:
        return {"name": self.name, "holds": self.holds, "lhs": _fs(self.lhs),
                "rhs": _fs(self.rhs), "margin": _fs(self.margin),
                "note": self.note, "advisory": self.advisory}


@dataclass(frozen=True)
class LemmaReport:
    step: int
    case: str
    nabla: Fraction
    delta_max: Fraction
    delta_min: Fraction
    swapped: bool
    phi_before: Fraction
    phi_after: Fraction
    ratio: Optional[Fraction]
    checks: Tuple[CheckResult, ...]
    constants: dict

    @property
    def failures(self) -> int:
        return sum(1 for c in self.checks if not c.holds and not c.advisory)

    def to_json(self) -> dict:
        return {
            "step": self.step,
            "case": self.case,
            "nabla": str(self.nabla),
            "deltaMax": str(self.delta_max),
            "deltaMin": str(self.delta_min),
            "swapped": self.swapped,
            "phiBefore": str(self.phi_before),
            "phiAfter": str(self.phi_after),
            "ratio": _fs(self.ratio),
            "failures": self.failures,
            "constants": {k: str(v) for k, v in self.constants.items()},
            "checks": [c.to_json() for c in self.checks],
        }


def _domination_samples(wf: WorkFunction) -> tuple:
    """((s, t, d), two_candidate): the first six grid points s off the last
    request's lines in product_key order, each with the first of its
    projections t = (r.x, s.y), (s.x, r.y) that dominates it, as (n, 2)
    position arrays, and d(s, t) at wf.scale; two_candidate is False when a
    point before the sixth sample has neither.  Each pass reads W, in one
    _w_at call, at as many further points as samples are still missing and
    at both their projections.  On a correct W every point is dominated by
    one of its projections (workfn's recurrence), so one pass over six
    points ends the scan."""
    kx, ky = wf.kits
    rx, ry = wf._at
    # Row-major over the sorted grid is product_key order.
    xs, ys = wf.gx[wf.gx != rx], wf.gy[wf.gy != ry]
    cells = len(xs) * len(ys)
    found = []  # (x, y, dominated by (r.x, y)) of each sample
    two_candidate = True
    start = 0
    while start < cells and len(found) < 6:
        stop = min(start + 6 - len(found), cells)
        i, j = np.divmod(np.arange(start, stop), len(ys))
        start = stop
        X, Y = xs[i], ys[j]
        W, on_v, on_h = np.split(wf._w_at(1, np.concatenate([X, np.full_like(X, rx), X]),
                                          np.concatenate([Y, Y, np.full_like(Y, ry)])), 3)
        by_v = W == on_v + kx.dist(rx, X)
        hit = by_v | (W == on_h + ky.dist(ry, Y))
        found += zip(X[hit].tolist(), Y[hit].tolist(), by_v[hit].tolist())
        two_candidate = two_candidate and bool(hit.all())
    s = np.array(found, dtype=np.int64).reshape(-1, 3)
    (X, Y), vert = s[:, :2].T, s[:, 2] == 1
    t = np.stack([np.where(vert, rx, X), np.where(vert, Y, ry)], axis=1)
    return (s[:, :2], t, np.where(vert, kx.dist(rx, X), ky.dist(ry, Y))), two_candidate


def _dominate_checks(wf: WorkFunction, cfg: PotentialConfig,
                     context: np.ndarray, samples: tuple) -> list:
    """Sampled replace-a-dominated-point bounds, slots (a) through (f).

    samples are _domination_samples(wf): grid points off the request paired
    with their dominating candidate on it; the context triple fills the
    untouched slots.  Points are positions at wf.scale.
    """
    bounds = cfg.dominate_bounds()
    (s, t, d), two_candidate = samples
    out = [CheckResult(
        "dominated_by_request_candidate", two_candidate,
        note="every sampled point must be dominated by one of its two "
             "projections onto the request")]
    if not len(d):
        return out + [CheckResult(f"dominate_{letter}", True,
                                  note="no dominated pairs to sample")
                      for letter in "abcdef"]
    # One frame over the context triple (points 0, 1, 2) and the samples'
    # s and t (3, 4, ...).  Each letter puts them in one slot of the triple
    # in F or G, so F and G at those triples hold every value the letters
    # read: [slot, x] is the context with x in that slot.
    pts = np.concatenate([context, np.stack([s, t], axis=1).reshape(-1, 2)])
    fr = _Frame(_Base(wf, 1, pts), cfg)
    x = np.arange(3, len(pts))
    triples = [np.where(np.arange(3)[:, None] == n, x, n) for n in range(3)]
    tables = (fr.f_at(*triples), fr.g_at(*triples))
    dens = (fr.f_den, fr.g_den)
    letters = {"a": (0, 2), "b": (0, 1), "c": (0, 0),
               "d": (1, 2), "e": (1, 1), "f": (1, 0)}
    scale, ds = wf.scale, d.tolist()
    for letter, (table, slot) in letters.items():
        vals, den, bound = tables[table][slot].tolist(), dens[table], bounds[letter]
        # lhs - rhs = (vs - vt) / den - d / scale * bound, over den * scale
        # * bound.denominator; the first smallest margin is the worst entry.
        margins = [(vs - vt) * scale * bound.denominator - dd * bound.numerator * den
                   for vs, vt, dd in zip(vals[::2], vals[1::2], ds)]
        w = margins.index(min(margins))
        lhs = Fraction(vals[2 * w] - vals[2 * w + 1], den)
        rhs = Fraction(ds[w], scale) * bound
        out.append(CheckResult(f"dominate_{letter}", margins[w] >= 0, lhs, rhs, lhs - rhs))
    return out


def _domination_candidates_check(wf_before: WorkFunction, wf_after: WorkFunction,
                                 P: np.ndarray, rows: list) -> CheckResult:
    """Minimizer points sharing a coordinate with the new request must be
    dominated, against the previous work function, by the single candidate
    on the previous request.  rows lists the minimizers' rows of wf_after's
    candidates, at positions P, in product_key order."""
    nx, ny = wf_after._at
    px, py = wf_before._at
    pairs = []  # (row of s, position of its dominating candidate t)
    for i in rows:
        x, y = P[i]
        if x == nx and y != py:
            pairs.append((i, px, y))
        if y == ny and x != px:
            pairs.append((i, x, py))
    bad = []
    if pairs:
        s, tx, ty = (np.array(c) for c in zip(*pairs))
        S = P[s]
        kx, ky = wf_before.kits
        W = wf_before._w_at(1, np.append(S[:, 0], tx), np.append(S[:, 1], ty))
        d = kx.dist(tx, S[:, 0]) + ky.dist(ty, S[:, 1])
        bad = list(wf_after._points(*S[W[:len(s)] != W[len(s):] + d].T))
    note = "" if not bad else f"undominated minimizer points: {bad}"
    return CheckResult("domination_candidates", not bad, note=note)


class SharedStep:
    """What serving and verifying the transition from wf_before to wf_after
    needs that no algorithm or config changes, for configs at the lambdas of
    nablas (which maps each to the step's extended cost): how far the
    request moved, the domination samples of wf_after, and the Lipschitz
    probe's perturbed work functions with their extended costs (one
    WorkFunction.extended_costs pass for every lambda).  Each part is
    computed on first use, so a config meets an error there where it would
    verifying alone."""

    def __init__(self, wf_before: WorkFunction, wf_after: WorkFunction, nablas: dict):
        self.wf_before, self.wf_after = wf_before, wf_after
        self.nablas = nablas

    @cached_property
    def moves(self) -> tuple:
        """(delta x, delta y): the request's moves along the two axes from
        the request before it (the origin before the first)."""
        inst = self.wf_before.instance
        r_prev = self.wf_before.last_request or inst.origin
        r_next = self.wf_after.last_request
        return inst.distance_x(r_prev.x, r_next.x), inst.distance_y(r_prev.y, r_next.y)

    @cached_property
    def samples(self) -> tuple:
        return _domination_samples(self.wf_after)

    @cached_property
    def probe(self) -> Union[tuple, str]:
        """(d_eps, r_mod, wf2, wf2_after): the request with its minor-axis
        coordinate moved by 1/32, how far that moved it, and W after the
        requests before it, then after r_mod as well, as work functions of
        the instance that ends with r_mod.  Or why the probe is skipped: the
        minor axis is finite, or a position of that instance overflows the
        integer kernel (its scale can be 32 times the run's)."""
        wf_before, r_next = self.wf_before, self.wf_after.last_request
        inst = wf_before.instance
        dx, dy = self.moves
        minor_is_y = dy <= dx
        if inst._axes[1 if minor_is_y else 0].kind != "line":
            return "the minor axis is finite"
        eps = Fraction(1, 32)
        if minor_is_y:
            r_mod = RequestPoint(r_next.x, RealPoint(r_next.y.value + eps))
            d_eps = inst.distance_y(r_next.y, r_mod.y)
        else:
            r_mod = RequestPoint(RealPoint(r_next.x.value + eps), r_next.y)
            d_eps = inst.distance_x(r_next.x, r_mod.x)
        # W after the first i requests does not depend on the later ones, so
        # the perturbed instance's is wf_before's at that instance's scale.
        inst2 = Instance(inst.space_x, inst.space_y, inst.origin,
                         inst.requests[:wf_before.i] + (r_mod,))
        try:
            wf2 = wf_before.rescaled(inst2)
            return d_eps, r_mod, wf2, wf2.update(r_mod)
        except HeadroomError as exc:
            return str(exc)

    @cached_property
    def probe_nablas(self) -> dict:
        _, r_mod, wf2, _ = self.probe
        return {lam: v for lam, (v, _) in
                zip(self.nablas, wf2.extended_costs(r_mod, list(self.nablas)))}


def _lipschitz_probe(shared: SharedStep, cfg: PotentialConfig, nabla: Fraction,
                     mg_after: Fraction) -> list:
    """Advisory: nudge the minor-axis coordinate of the request and compare
    the extended cost and min G shifts against the documented constants."""
    if isinstance(shared.probe, str):
        return [CheckResult("lipschitz_probe", True, advisory=True,
                            note=f"skipped: {shared.probe}")]
    d_eps, _, _, wf2_after = shared.probe
    lam = cfg.triple_param
    nabla2 = shared.probe_nablas[lam]
    mg2 = min_g(wf2_after, cfg)[0]
    shift_n = abs(nabla2 - nabla)
    bound_n = (1 + lam) * d_eps
    shift_g = abs(mg2 - mg_after)
    bound_g = (2 + 2 * cfg.coeff * (1 + lam)) * d_eps
    return [
        CheckResult("lipschitz_nabla", shift_n <= bound_n, shift_n, bound_n,
                    bound_n - shift_n, advisory=True),
        CheckResult("lipschitz_min_g", shift_g <= bound_g, shift_g, bound_g,
                    bound_g - shift_g, advisory=True),
    ]


def _dense_line_points(wf: WorkFunction, around: ProductPoint) -> list:
    """Step-1/16 sweeps of both lines of the last request, windowed near
    the given point when the grid hull is wide."""
    r = wf.last_request
    ax, ay = wf.instance._axes
    out = []

    def sweep(coords, center):
        lo, hi = min(coords), max(coords)
        if hi - lo > 16:
            lo, hi = max(lo, center - 8), min(hi, center + 8)
        return [Fraction(k, 16)
                for k in range(math.ceil(lo * 16), math.floor(hi * 16) + 1)]

    if ay.kind == "line":
        for v in sweep([p.value for p in wf.grid.ys], around.y.value):
            out.append(ProductPoint(r.x, RealPoint(v)))
    if ax.kind == "line":
        for v in sweep([p.value for p in wf.grid.xs], around.x.value):
            out.append(ProductPoint(RealPoint(v), r.y))
    return out


def _audit(wf_after: WorkFunction, cfg: PotentialConfig, mf: Fraction,
           tf: tuple, mg: Fraction, tg: tuple) -> CheckResult:
    """Refine the candidate set and assert the base minima survive.

    Midpoints refine everywhere; a full-grid pass covers off-request triples
    for F (and for G on small grids); dense step-1/16 sweeps vary one triple
    slot at a time around each winner.  Any strict improvement raises.
    """
    fr = _Frame(_Base(wf_after, 2, _candidates(wf_after, 2)), cfg)
    for label, kernel, best in (("F", _min_f_frame, mf), ("G", _min_g_frame, mg)):
        v = kernel(fr)[0]
        if v != best:
            raise AuditError(f"midpoint refinement improved min {label}: {v} < {best}")

    # Row-major over the sorted grid is product_key order.
    gx, gy = wf_after.gx, wf_after.gy
    full = np.stack([np.repeat(gx, len(gy)), np.tile(gy, len(gx))], axis=1)
    fr_full = _Frame(_Base(wf_after, 1, full), cfg)
    v = _min_f_frame(fr_full)[0]
    if v < mf:
        raise AuditError(f"a full-grid triple improves min F: {v} < {mf}")
    if len(full) <= 40:
        v = _min_g_frame(fr_full)[0]
        if v < mg:
            raise AuditError(f"a full-grid triple improves min G: {v} < {mg}")

    for label, triple, base, fun in (("F", tf, mf, f_value),
                                     ("G", tg, mg, g_value)):
        for slot in range(3):
            for p in _dense_line_points(wf_after, triple[slot]):
                varied = list(triple)
                varied[slot] = p
                val = fun(wf_after, varied[0], varied[1], varied[2], cfg)
                if val < base:
                    raise AuditError(
                        f"dense sweep improves min {label} at {varied}: "
                        f"{val} < {base}")
    return CheckResult("audit_no_improvement", True,
                       note="midpoint, full-grid, and dense sweeps found no "
                            "better triples")


def verify_step(wf_before: WorkFunction, wf_after: WorkFunction,
                cfg: PotentialConfig, *, audit: bool = False,
                _shared: Optional[SharedStep] = None) -> LemmaReport:
    """Machine-check the per-step inequalities for one request transition.

    wf_after is wf_before updated with its next request, r_next; the
    accounting lambda is the potential's own.  All checks are exact;
    advisory entries (the Lipschitz probe) are recorded but never counted as
    failures.  _shared, when given, is the SharedStep of this transition
    for a set of lambdas that holds cfg's.
    """
    inst = wf_before.instance
    if wf_after.instance != inst or wf_after.i != wf_before.i + 1:
        raise ConfigError("wf_after must be wf_before updated with one request")
    r_next = wf_after.last_request
    lam = cfg.triple_param
    shared = _shared or SharedStep(
        wf_before, wf_after, {lam: wf_before.extended_cost(r_next, lam)[0]})
    dx, dy = shared.moves
    # The larger move first; swapped when that is y's.
    dmax, dmin, swapped = (dy, dx, True) if dx < dy else (dx, dy, False)
    nabla = shared.nablas[lam]

    consts = cfg.constants()
    mf1, mg1 = min_f(wf_before, cfg)[0], min_g(wf_before, cfg)[0]
    mf2, tf2, f_rows = _minimum(wf_after, cfg, _min_f_frame)
    mg2, tg2, g_rows = _minimum(wf_after, cfg, _min_g_frame)
    mh2 = min_h(wf_after, cfg)[0]
    phi1, phi2 = phi(wf_before, cfg), phi(wf_after, cfg)
    # wf_after's frame holds the witnesses' positions and H, by row.
    fr = _frame(wf_after, cfg)[1]
    case = "A" if len(set(f_rows)) <= 2 else "B"

    checks = []
    if wf_before.i == 0:
        checks.append(CheckResult("phi_epsilon", phi1 == 0, phi1, Fraction(0),
                                  -abs(phi1)))

    checks.append(CheckResult(
        "minimum_in_r", all(serves(p, r_next) for p in (*tf2, *tg2)),
        note="F and G minimizers must serve the new request"))

    checks.extend(_dominate_checks(wf_after, cfg, fr.P[list(f_rows)], shared.samples))

    checks.append(CheckResult("chain_f_g_h", mf2 <= mg2 <= mh2, mf2, mh2,
                              min(mg2 - mf2, mh2 - mg2)))

    lhs = mf2 - mf1
    if case == "A":
        rhs = consts["c1"] * nabla
        checks.append(CheckResult("f_increase_case_a", lhs >= rhs, lhs, rhs,
                                  lhs - rhs))
    else:
        rhs = consts["c2"] * dmin
        checks.append(CheckResult("f_increase_case_b", lhs >= rhs, lhs, rhs,
                                  lhs - rhs))

    lhs = mg2 - mg1
    rhs = consts["c3"] * nabla - consts["c4"] * dmin
    checks.append(CheckResult("g_increase", lhs >= rhs, lhs, rhs, lhs - rhs))

    if case == "A":
        checks.append(CheckResult("g_monotone_case_a", mg2 >= mg1, mg2, mg1,
                                  mg2 - mg1))
        spread = max(mg2 - mf2, mh2 - mg2)
        checks.append(CheckResult(
            "cardinality_collapse", mf2 == mg2 == mh2, mf2, mh2, -spread,
            note="a two-point F minimizer forces min F = min G = min H"))

    checks.append(CheckResult("nabla_le_delta", nabla <= (1 + lam) * dmax,
                              nabla, (1 + lam) * dmax,
                              (1 + lam) * dmax - nabla))

    lhs = phi2 - phi1
    rhs = consts["c5"] * nabla
    checks.append(CheckResult("phi_increase", lhs >= rhs, lhs, rhs, lhs - rhs))
    ratio = lhs / nabla if nabla > 0 else None

    checks.append(_domination_candidates_check(wf_before, wf_after, fr.P,
                                               sorted(set(f_rows + g_rows))))

    if (tg2[0].x == tg2[1].x == tg2[2].x) or (tg2[0].y == tg2[1].y == tg2[2].y):
        g = np.array(g_rows)
        best_h = Fraction(int(fr.HT[g[:, None], g].min()), fr.h_den)
        checks.append(CheckResult("convex_containment", best_h <= mg2,
                                  best_h, mg2, mg2 - best_h,
                                  note="aligned G minimizer admits a pair "
                                       "with H at most min G"))

    checks.extend(_lipschitz_probe(shared, cfg, nabla, mg2))

    if audit:
        checks.append(_audit(wf_after, cfg, mf2, tf2, mg2, tg2))

    return LemmaReport(wf_before.i, case, nabla, dmax, dmin, swapped,
                       phi1, phi2, ratio, tuple(checks),
                       {**consts, "weight": cfg.weight})
