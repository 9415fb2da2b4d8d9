"""Output checks computed apart from the engine.

Nothing here imports wfalab or numpy.  The offline optimum is an integer
dynamic program written from the problem's definition, and every other check
replays the batch outputs (`summary.csv` and `traces/*.jsonl`) in exact
rational arithmetic.  A check that does not hold is reported as a message;
the caller counts the steps it touches as failed operations.
"""

from __future__ import annotations

import csv
import json
from fractions import Fraction
from math import lcm
from pathlib import Path


# -- metric spaces, from their definitions ----------------------------------


class LineAxis:
    """The real line with distance |a - b|, on a finite set of coordinates.

    Coordinates are held as integers at one common scale, so the dynamic
    program below runs in exact integer arithmetic.
    """

    def __init__(self, coords, scale: int):
        self.points = sorted({int(c * scale) for c in coords})
        self.index = {p: i for i, p in enumerate(self.points)}
        self.scale = scale

    def at(self, coord) -> int:
        return self.index[int(coord * self.scale)]

    def dist(self, i: int, j: int) -> int:
        return abs(self.points[i] - self.points[j])

    def transform(self, f: list) -> list:
        """g[b] = min over a of f[a] + |p_a - p_b| (two sweeps on sorted
        points)."""
        g = list(f)
        p = self.points
        for i in range(1, len(g)):
            g[i] = min(g[i], g[i - 1] + p[i] - p[i - 1])
        for i in range(len(g) - 2, -1, -1):
            g[i] = min(g[i], g[i + 1] + p[i + 1] - p[i])
        return g


class FiniteAxis:
    """A finite metric given by an integer distance table."""

    def __init__(self, table):
        self.table = table
        self.points = list(range(len(table)))
        self.scale = 1

    @classmethod
    def uniform(cls, size: int) -> "FiniteAxis":
        """Distance 1 between any two distinct points."""
        return cls([[0 if i == j else 1 for j in range(size)]
                    for i in range(size)])

    def at(self, index) -> int:
        return index

    def dist(self, i: int, j: int) -> int:
        return self.table[i][j]

    def transform(self, f: list) -> list:
        return [min(f[a] + self.table[a][b] for a in self.points)
                for b in self.points]


def axes_for(kind: str, origin, requests, size: int = 0) -> tuple:
    """(x axis, y axis) of a generator kind, over the instance's points."""
    if kind == "finite_uniform":
        return FiniteAxis.uniform(size), FiniteAxis.uniform(size)
    xs = [origin[0]] + [r[0] for r in requests]
    ys = [origin[1]] + [r[1] for r in requests]
    scale = 1
    for c in xs + ys:
        scale = lcm(scale, c.denominator)
    return LineAxis(xs, scale), LineAxis(ys, scale)


def optimum(axes: tuple, origin, requests) -> Fraction:
    """Offline optimum: the cheapest way to serve every request in order.

    The server serves request (rx, ry) anywhere on its two lines
    {x = rx} and {y = ry}.  Serve points range over the origin's and the
    requests' coordinates on each axis (every point of a finite axis), which
    contains an optimal path.  V[b] is the cheapest cost so far ending at
    (rx, y_b), H[a] the cheapest ending at (x_a, ry).
    """
    ax, ay = axes
    px, py = ax.at(origin[0]), ay.at(origin[1])
    V = [ay.dist(py, b) for b in range(len(ay.points))]
    H = [ax.dist(px, a) for a in range(len(ax.points))]
    for rx_raw, ry_raw in requests:
        rx, ry = ax.at(rx_raw), ay.at(ry_raw)
        via_h = min(H[a] + ax.dist(a, rx) for a in range(len(H)))
        via_v = min(V[b] + ay.dist(b, ry) for b in range(len(V)))
        step_x = ax.dist(px, rx)
        step_y = ay.dist(py, ry)
        TV = ay.transform(V)
        TH = ax.transform(H)
        V, H = ([min(step_x + TV[b], via_h + ay.dist(py, b))
                 for b in range(len(V))],
                [min(step_y + TH[a], via_v + ax.dist(px, a))
                 for a in range(len(H))])
        px, py = rx, ry
    return Fraction(min(min(V), min(H)), ax.scale)


# -- batch outputs ------------------------------------------------------------


def point(raw):
    """A JSON coordinate: "p/q" strings are reals, plain ints are indices."""
    return Fraction(raw) if isinstance(raw, str) else raw


def pair(raw) -> tuple:
    return point(raw["x"]), point(raw["y"])


def origin_of(kind: str) -> tuple:
    """Every generator starts the server at (0, 0): reals, or index 0."""
    return (0, 0) if kind == "finite_uniform" else (Fraction(0), Fraction(0))


class TrialCheck:
    """Replays one trace file; `problems` lists every check that failed."""

    def __init__(self, path: Path, generator: dict, verified: bool):
        lines = path.read_text().splitlines()
        self.header = json.loads(lines[0])
        self.steps = [json.loads(line) for line in lines[1:]]
        self.n = len(self.steps)
        self.problems = []
        self.bad_steps = set()
        self.trial_failed = False
        self._replay(generator, verified)

    def fail(self, msg: str, step=None) -> None:
        self.problems.append(msg)
        if step is None:
            self.trial_failed = True
        else:
            self.bad_steps.add(step)

    def _replay(self, gen: dict, verified: bool) -> None:
        h = self.header
        kind = gen["kind"]
        lam = Fraction(h["lambda"])
        origin = origin_of(kind)
        requests = [pair(s["request"]) for s in self.steps]
        ax, ay = axes_for(kind, origin, requests, gen.get("size", 0))
        sx, sy = ax.scale, ay.scale

        def dx(a, b):
            return Fraction(ax.dist(ax.at(a), ax.at(b)), sx)

        def dy(a, b):
            return Fraction(ay.dist(ay.at(a), ay.at(b)), sy)

        if h["n"] != self.n:
            self.fail(f"header n={h['n']} but {self.n} steps")
        pos = origin
        prev_req = origin
        moves = nablas = Fraction(0)
        for k, s in enumerate(self.steps):
            req = requests[k]
            before, after = pair(s["before"]), pair(s["after"])
            move, nabla = Fraction(s["move"]), Fraction(s["nabla"])
            if s["index"] != k:
                self.fail(f"step {k}: index {s['index']}", k)
            if before != pos:
                self.fail(f"step {k}: starts at {before}, previous end {pos}", k)
            try:
                d = dx(before[0], after[0]) + dy(before[1], after[1])
            except KeyError:
                self.fail(f"step {k}: position {after} is off the coordinate "
                          "grid", k)
                d = None
            if after[0] != req[0] and after[1] != req[1]:
                self.fail(f"step {k}: {after} does not serve {req}", k)
            if d is not None and move != d:
                self.fail(f"step {k}: move {move}, distance {d}", k)
            delta_x, delta_y = dx(prev_req[0], req[0]), dy(prev_req[1], req[1])
            if (Fraction(s["deltaX"]), Fraction(s["deltaY"])) != (delta_x, delta_y):
                self.fail(f"step {k}: deltas {s['deltaX']},{s['deltaY']} but "
                          f"{delta_x},{delta_y}", k)
            if nabla > (1 + lam) * max(delta_x, delta_y):
                self.fail(f"step {k}: nabla {nabla} > (1+lambda)*delta", k)
            if verified and (s.get("lemma") is None
                             or s["lemma"]["failures"] != 0):
                self.fail(f"step {k}: lemma report missing or failing", k)
            moves += move
            nablas += nabla
            pos = after
            prev_req = req

        self.opt = optimum((ax, ay), origin, requests)
        alg_cost, nabla_total = Fraction(h["algCost"]), Fraction(h["nablaTotal"])
        final_work = Fraction(h["finalWork"])
        if moves != alg_cost:
            self.fail(f"sum of moves {moves} != algCost {alg_cost}")
        if nablas != nabla_total:
            self.fail(f"sum of nabla {nablas} != nablaTotal {nabla_total}")
        if pair(h["finalPosition"]) != pos:
            self.fail(f"finalPosition {h['finalPosition']} != last step {pos}")
        if Fraction(h["optCost"]) != self.opt:
            self.fail(f"optCost {h['optCost']} != independent optimum {self.opt}")
        if lam * alg_cost > nabla_total - final_work:
            self.fail("accounting inequality lambda*algCost <= "
                      "nablaTotal - finalWork fails")
        if verified:
            self._verified_checks(nabla_total)

    def _verified_checks(self, nabla_total: Fraction) -> None:
        h = self.header
        if h["lemmaFailures"] != 0:
            self.fail(f"lemmaFailures = {h['lemmaFailures']}")
        if h["phiFinal"] is None or Fraction(h["phiFinal"]) > self.opt:
            self.fail(f"phiFinal {h['phiFinal']} > optimum {self.opt}")
        c5s = {s["lemma"]["constants"]["c5"] for s in self.steps
               if s.get("lemma")}
        if len(c5s) != 1:
            self.fail(f"lemma reports give c5 values {sorted(c5s)}")
            return
        c5 = Fraction(c5s.pop())
        if self.opt > 0 and nabla_total > self.opt / c5:
            self.fail(f"nablaTotal {nabla_total} > optimum / c5")
        if self.opt == 0 and nabla_total != 0:
            self.fail(f"optimum 0 but nablaTotal {nabla_total}")


SUMMARY_FIELDS = ("algCost", "optCost", "nablaTotal", "lemmaFailures", "n")


def check_batch(out_dir: Path, config: dict, verified: bool) -> tuple:
    """Check one batch directory against the config that produced it.

    Returns (steps attempted, steps failed, trials attempted, trials failed,
    problem messages).  A trial-level problem fails all of its steps.
    """
    gen = config["generator"]
    n = gen["n"]
    labels = [f"wfa[{a['lambda']}]" for a in config["algorithms"]]
    expected = [(t, lab) for t in range(config["trials"]) for lab in labels]
    steps = n * len(expected)
    problems = []
    try:
        with (out_dir / "summary.csv").open(newline="") as fh:
            rows = list(csv.DictReader(fh))
    except OSError as exc:
        return steps, steps, len(expected), len(expected), [f"summary: {exc}"]
    if len(rows) != len(expected):
        return steps, steps, len(expected), len(expected), [
            f"summary has {len(rows)} rows, want {len(expected)}"]
    failed_steps = failed_trials = 0
    for k, (trial, label) in enumerate(expected):
        path = out_dir / "traces" / f"{trial:03d}-{label.replace('/', '_')}.jsonl"
        try:
            tc = TrialCheck(path, gen, verified)
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            problems.append(f"{path.name}: unreadable ({exc!r})")
            failed_steps += n
            failed_trials += 1
            continue
        row = rows[k]
        for field in SUMMARY_FIELDS + ("algorithm",):
            if field not in tc.header:
                tc.fail(f"trace header has no {field}")
            elif str(row.get(field)) != str(tc.header[field]):
                tc.fail(f"summary {field}={row.get(field)} but trace "
                        f"{tc.header[field]}")
        if tc.header.get("algorithm") != label:
            tc.fail(f"algorithm {tc.header.get('algorithm')}, want {label}")
        if tc.n != n:
            tc.fail(f"{tc.n} steps, want {n}")
        problems.extend(f"{path.name}: {p}" for p in tc.problems)
        if tc.problems:
            failed_trials += 1
            failed_steps += n if tc.trial_failed else len(tc.bad_steps)
    return steps, failed_steps, len(expected), failed_trials, problems
