"""Online algorithms over the work function, and the run loop.

The work-function family moves, after each request, to a point minimizing
W(t) + lam * d(current, t) against the updated work function.  lam = 1 is the
classic rule, lam < 1 biases toward staying put just enough that the argmin
always serves the request, lam -> 0 chases the retrospective optimum.  Greedy
ignores W entirely.

run_all() drives several algorithms over one instance in lockstep, sharing
each step's work-function update, extended costs and verifier set-up;
run() is its one-algorithm case.  Each run records per-step movement cost,
the extended cost (computed against the work function *before* the
update), and optionally a lemma report from the potential verifier.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

from . import potential as _potential
from .errors import ConfigError, WfalabError
from .exact import frac
from .metric import ProductPoint, product_key
from .problem import Instance, RequestPoint, serves
from .workfn import WorkFunction, _int_dtype, _param_value, initial

# After the package's modules: importing wfalab from source, with no
# bytecode cache, then compiles potential.py before numpy is loaded, and the
# process peaks about 1.5 MB lower.
import numpy as np  # noqa: E402


@dataclass(frozen=True)
class AlgorithmConfig:
    kind: str  # "wfa" | "greedy" | "retrospective"
    lam: Optional[Fraction] = None

    def __post_init__(self) -> None:
        if self.kind not in ("wfa", "greedy", "retrospective"):
            raise ConfigError(f"unknown algorithm kind {self.kind!r}")
        if self.kind == "wfa":
            if self.lam is None:
                raise ConfigError("wfa needs a lambda")
            object.__setattr__(self, "lam", frac(self.lam))
            if not (0 < self.lam <= 1):
                raise ConfigError(f"wfa lambda must lie in (0, 1], got {self.lam}")
        elif self.lam is not None:
            raise ConfigError(f"{self.kind} takes no lambda")

    @property
    def label(self) -> str:
        if self.kind == "wfa":
            return f"wfa[{self.lam}]"
        return self.kind


def _argmin_candidates(wf_after: WorkFunction, a, b) -> np.ndarray:
    """The scored candidates as a (k, 2) array of grid indices: the
    request's grid points in grid_points_on order, then (r.x, current.y)
    and (current.x, r.y) where they are not grid points, with -1 for the
    current position's coordinate (a, b: its grid indices, None off the
    grid)."""
    cx, cy = wf_after._line_cells
    if b is None:
        cx, cy = np.append(cx, wf_after.xr), np.append(cy, -1)
    if a is None:
        cx, cy = np.append(cx, -1), np.append(cy, wf_after.yr)
    return np.stack([cx, cy], axis=1)


def _after_a_request(wf_after: WorkFunction) -> None:
    if wf_after.last_request is None:
        raise ConfigError("the initial work function has no request to serve")


def wfa_minimizers(wf_after: WorkFunction, current: ProductPoint, lam) -> list:
    """All points minimizing W(t) + lam*d(current, t), in candidate order,
    for the request wf_after was last updated with.

    The minimum over the whole space is attained on the request's lines
    (every point is dominated by one there), and along each line at a grid
    coordinate or at the projection of the current position; those are
    exactly the candidates scored here, as q*W + p*d for lam = p/q at the
    work function's integer scale (times m when the current position needs
    a finer one).
    """
    lam = _param_value(lam)
    _after_a_request(wf_after)
    p, q = lam.numerator, lam.denominator
    m, cur, (a, b) = wf_after._locate(current)
    cands = _argmin_candidates(wf_after, a, b)
    grids = (wf_after.gx, wf_after.gy)
    # W at a candidate off the grid exceeds W at a grid point of its line by
    # at most a distance, and every distance here is under reach.
    reach = sum(kit.reach(m, g, [c]) for kit, g, c in zip(wf_after.kits, grids, cur))
    lines = wf_after.lines
    bound = q * (m * int(lines.max()) + reach) + p * reach
    dtype = _int_dtype(bound)
    # The first len(lines) candidates are the line cells, the rest off the grid.
    on = len(lines)
    W = np.zeros(len(cands), dtype=dtype)
    W[:on] = lines.astype(dtype) * m
    d = np.zeros(len(cands), dtype=dtype)
    pos = []
    for kit, g, c, col in zip(wf_after.kits, grids, cur, cands.T):
        fine, G = kit.refine(m, dtype, g)
        P = G[col]
        P[col < 0] = c
        d = d + fine.dist(c, P)
        pos.append(P)
    if on < len(cands):
        W[on:] = wf_after._w_at(m, pos[0][on:], pos[1][on:])
    score = q * W + p * d
    hits = np.flatnonzero(score == score.min())
    xs, ys = wf_after.grid.xs, wf_after.grid.ys
    return [ProductPoint(xs[i] if i >= 0 else current.x, ys[j] if j >= 0 else current.y)
            for i, j in cands[hits].tolist()]


def _tie_break(instance: Instance, current: ProductPoint, mins: list) -> ProductPoint:
    """The work-function rule's move among its minimizers: the smallest
    move, then the first in product_key order."""
    return min(mins, key=lambda t: (instance.distance(current, t), product_key(t)))


def wfa_step(wf_after: WorkFunction, current: ProductPoint, lam) -> ProductPoint:
    """Move of the work-function rule; ties resolved by smallest move, then
    lexicographically."""
    return _tie_break(wf_after.instance, current,
                      wfa_minimizers(wf_after, current, lam))


def greedy_step(instance: Instance, current: ProductPoint,
                r: RequestPoint) -> ProductPoint:
    """Nearest point of the request's lines; a tie keeps the x-projection."""
    move_x = ProductPoint(r.x, current.y)
    move_y = ProductPoint(current.x, r.y)
    if instance.distance(current, move_x) <= instance.distance(current, move_y):
        return move_x
    return move_y


def retrospective_step(wf_after: WorkFunction) -> ProductPoint:
    """Grid point of the last request minimizing the updated work function;
    of several, the first in product_key order, which on the sorted grid is
    the first by (x index, y index)."""
    _after_a_request(wf_after)
    cx, cy = wf_after._line_cells
    v = wf_after.lines
    best = v == v.min()
    a, b = min(zip(cx[best].tolist(), cy[best].tolist()))
    return ProductPoint(wf_after.grid.xs[a], wf_after.grid.ys[b])


@dataclass(frozen=True)
class StepRecord:
    index: int
    request: RequestPoint
    position_before: ProductPoint
    position_after: ProductPoint
    move_cost: Fraction
    nabla: Fraction
    delta_x: Fraction
    delta_y: Fraction
    ties: int
    phi_before: Optional[Fraction] = None
    phi_after: Optional[Fraction] = None
    lemma_report: Optional[object] = None


@dataclass(frozen=True)
class RunTrace:
    algorithm: AlgorithmConfig
    records: Tuple[StepRecord, ...]
    total_cost: Fraction
    opt_cost: Fraction
    ratio: Optional[Fraction]
    total_extended_cost: Fraction
    identity_holds: Optional[bool]
    final_position: ProductPoint
    final_work_at_position: Fraction
    lemma_failures: int = 0
    min_phi_increase_over_nabla: Optional[Fraction] = None
    phi_final: Optional[Fraction] = None

    @property
    def n(self) -> int:
        return len(self.records)


class _Lane:
    """One config's progress through run_all: its position and what its
    trace accumulates."""

    def __init__(self, instance: Instance, config: AlgorithmConfig):
        self.config = config
        self.acct_lam = config.lam if config.kind == "wfa" else Fraction(1)
        self.pcfg = None
        self.pos = instance.origin
        self.records = []
        self.total_cost = Fraction(0)
        self.nabla_total = Fraction(0)
        self.lemma_failures = 0
        self.min_ratio = None

    def step(self, shared, nabla: Fraction, audit: bool) -> None:
        """Serve the request of shared's step from the current position."""
        wf, wf_next = shared.wf_before, shared.wf_after
        instance, r, pos = wf.instance, wf_next.last_request, self.pos
        self.nabla_total += nabla
        ties = 1
        if self.config.kind == "wfa":
            mins = wfa_minimizers(wf_next, pos, self.config.lam)
            ties = len(mins)
            new_pos = _tie_break(instance, pos, mins)
        elif self.config.kind == "greedy":
            new_pos = greedy_step(instance, pos, r)
        else:
            new_pos = retrospective_step(wf_next)
        if not serves(new_pos, r):
            raise WfalabError(f"position {new_pos} does not serve {r}")

        report = None
        phi_before = phi_after = None
        if self.pcfg is not None:
            report = _potential.verify_step(wf, wf_next, self.pcfg, audit=audit,
                                            _shared=shared)
            phi_before = report.phi_before
            phi_after = report.phi_after
            self.lemma_failures += report.failures
            if report.ratio is not None and (self.min_ratio is None
                                             or report.ratio < self.min_ratio):
                self.min_ratio = report.ratio

        move = instance.distance(pos, new_pos)
        self.total_cost += move
        self.records.append(StepRecord(wf.i, r, pos, new_pos, move, nabla, *shared.moves,
                                       ties, phi_before, phi_after, report))
        self.pos = new_pos

    def trace(self, wf: WorkFunction) -> RunTrace:
        """The run's trace, given W after the last request."""
        opt = wf.opt_cost() if wf.i else Fraction(0)
        total_cost, pos = self.total_cost, self.pos
        ratio = total_cost / opt if opt > 0 else None
        w_final = wf.evaluate(pos)
        identity = None
        if self.config.kind == "wfa":
            identity = total_cost <= (self.nabla_total - w_final) / self.config.lam
        phi_final = None
        lemma_failures = self.lemma_failures
        if self.pcfg is not None:
            phi_final = self.records[-1].phi_after if self.records else Fraction(0)
            if phi_final is not None and phi_final > opt:
                lemma_failures += 1
        return RunTrace(self.config, tuple(self.records), total_cost, opt, ratio,
                        self.nabla_total, identity, pos, w_final,
                        lemma_failures, self.min_ratio, phi_final)


def run_all(instance: Instance, configs, verify: bool = False, potential="cnn",
            *, audit: bool = False) -> list:
    """Drive several algorithms over the full request sequence in lockstep;
    returns [run(instance, c, verify, potential, audit=audit) for c in
    configs].

    W after a request depends on the requests alone, so each step updates
    one work function for every config, takes the extended costs at all the
    configs' distinct accounting lambdas in one WorkFunction.extended_costs
    pass, and serves and verifies every config from one potential.SharedStep.

    An error is the one the lowest-index failing config raises when run
    alone, with that config as its `algorithm` attribute: configs after it
    stop at once, and those before it run on until they end or fail.
    """
    lanes = [_Lane(instance, c) for c in configs]
    error = None

    def drop(k: int, err: WfalabError) -> None:
        """Lane k failed: only lanes before it still run, so its error is
        the one to raise unless one of theirs replaces it."""
        nonlocal error
        err.algorithm = lanes[k].config
        error = err
        del lanes[k:]

    for k, lane in enumerate(lanes):
        if verify and lane.config.kind == "wfa":
            try:
                lane.pcfg = _potential.potential_for(potential, lane.acct_lam)
            except WfalabError as exc:
                drop(k, exc)
                break

    wf = initial(instance)
    for j, r in enumerate(instance.requests):
        if not lanes:
            break
        try:
            # Lanes at one lambda share its extended cost.
            lams = list(dict.fromkeys(lane.acct_lam for lane in lanes))
            nablas = {lam: v for lam, (v, _) in zip(lams, wf.extended_costs(r, lams))}
            wf_next = wf.update(r)
        except WfalabError as exc:
            # Each lane alone would meet this error here, before its own.
            drop(0, _at_step(j, exc))
            break
        shared = _potential.SharedStep(
            wf, wf_next, [lane.pcfg for lane in lanes if lane.pcfg is not None], nablas)
        for k, lane in enumerate(lanes):
            try:
                lane.step(shared, nablas[lane.acct_lam], audit)
            except WfalabError as exc:
                drop(k, _at_step(j, exc))
                break
        wf = wf_next

    traces = []
    for k, lane in enumerate(lanes):
        try:
            traces.append(lane.trace(wf))
        except WfalabError as exc:
            drop(k, exc)
            break
    if error is not None:
        raise error
    return traces


def _at_step(j: int, exc: WfalabError) -> WfalabError:
    """exc's class and message prefixed "step j: ", caused by exc."""
    err = type(exc)(f"step {j}: {exc}")
    err.__cause__ = exc
    return err


def run(instance: Instance, config: AlgorithmConfig, verify: bool = False,
        potential="cnn", *, audit: bool = False) -> RunTrace:
    """Drive one algorithm over the full request sequence.

    The extended cost of each step uses the accounting lambda: the
    algorithm's own for wfa, 1 for the others.  With verify=True each step
    of a wfa run is also pushed through the potential verifier (greedy and
    retrospective, at accounting lambda 1, have no potential to verify).
    potential is a variant name, whose default constants need a lambda
    strictly below 1, or a config with the accounting lambda
    (potential.potential_for).  audit applies to verified runs.  A
    WfalabError raised at step j is re-raised as the same class with its
    message prefixed "step j: ".
    """
    return run_all(instance, [config], verify, potential, audit=audit)[0]
