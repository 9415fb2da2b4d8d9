"""Acceptance gate: nine end-to-end criteria, one PASS/FAIL line each.

Each test prints exactly one "ACCEPT n: PASS" or "ACCEPT n: FAIL" line and
then asserts, so the gate reads off the console even when a criterion dies.
Criterion 8 audits the accounting identity over every work-function run the
earlier criteria produced.
"""

import random
import time
from fractions import Fraction
from pathlib import Path

from wfalab import (AlgorithmConfig, ProductPoint, cli, idx, initial, pt, run)
from wfalab.harness import GeneratorConfig, example_trace, generate
from wfalab.offline import brute_force_opt, dense_slack_max
from wfalab.potential import default_constants

from conftest import (brute_force_work_value, finite_instance, plane_instance,
                      quarter)

HALF = Fraction(1, 2)
LAMBDAS = (Fraction(1, 4), HALF, Fraction(3, 4))

# (total_cost, nabla_total, final_work, lambda) per work-function run.
WFA_RUNS = []


def _report(num: int, ok: bool) -> None:
    print(f"ACCEPT {num}: {'PASS' if ok else 'FAIL'}")


def _record(trace) -> None:
    WFA_RUNS.append((trace.total_cost, trace.total_extended_cost,
                     trace.final_work_at_position, trace.algorithm.lam))


def test_accept_1_straight_line_family_exact():
    start = time.perf_counter()
    ok = True
    for m in (5, 20, 100):
        trace = example_trace(m, 1)
        _record(trace)
        ok = ok and trace.total_cost == m
        ok = ok and trace.opt_cost == 2
        ok = ok and trace.ratio == Fraction(m, 2)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    _report(1, ok)
    assert ok, f"straight-line reproduction failed (elapsed {elapsed:.2f}s)"


def test_accept_2_cost_plateau_at_half():
    start = time.perf_counter()
    horizon = 56
    costs = {}
    for m in range(1, horizon + 1):
        trace = example_trace(m, HALF)
        _record(trace)
        costs[m] = trace.total_cost
    plateau = costs[50]
    m0 = next(m for m in range(1, 51)
              if all(costs[j] == plateau for j in range(m, horizon + 1)))
    elapsed = time.perf_counter() - start
    ok = m0 <= 50 and elapsed < 5.0
    _report(2, ok)
    assert ok, f"no cost plateau by m=50 (m0={m0}, elapsed {elapsed:.2f}s)"


def test_accept_3_oracle_equivalence():
    start = time.perf_counter()
    rng = random.Random(300)
    ok = True
    for case in range(200):
        n = rng.randint(1, 6)
        if case % 2:
            inst = finite_instance(rng, n, size=4)
            probes = [ProductPoint(idx(rng.randrange(4)), idx(rng.randrange(4)))
                      for _ in range(3)]
        else:
            inst = plane_instance(rng, n)
            probes = [pt(quarter(rng, 5), quarter(rng, 5)) for _ in range(3)]
        wf = initial(inst)
        for r in inst.requests:
            wf = wf.update(r)
        ok = ok and wf.opt_cost() == brute_force_opt(inst)
        for s in probes:
            ok = ok and wf.evaluate(s) == brute_force_work_value(inst, n, s)
        if not ok:
            break
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    _report(3, ok)
    assert ok, f"oracle disagreement (elapsed {elapsed:.2f}s)"


def test_accept_4_slack_lemma_suite():
    start = time.perf_counter()
    rng = random.Random(400)
    samples = 0
    ok = True

    def plane_point():
        return pt(quarter(rng, 4), quarter(rng, 4))

    for round_no in range(70):
        finite = round_no % 3 == 2
        inst = (finite_instance(rng, 3) if finite
                else plane_instance(rng, 3))
        wf = initial(inst)
        for r in inst.requests:
            wf = wf.update(r)
        grid = [ProductPoint(x, y) for x in wf.grid.xs for y in wf.grid.ys]

        def any_point():
            if finite:
                return rng.choice(grid)
            return plane_point()

        for _ in range(3):
            big = [rng.choice(grid) for _ in range(5)]
            s = any_point()
            ok = ok and wf.slack(s, big, HALF) <= wf.slack(s, big[:2], HALF)
            samples += 1
        for _ in range(2):
            c = [rng.choice(grid) for _ in range(4)]
            best = min(c, key=wf.evaluate)
            ok = ok and wf.slack(best, c, HALF) == 0
            samples += 1
        if not finite:
            for _ in range(3):
                s, u = plane_point(), plane_point()
                theta = Fraction(rng.randint(0, 4), 4)
                t = pt(s.x.value + theta * (u.x.value - s.x.value),
                       s.y.value + theta * (u.y.value - s.y.value))
                ok = ok and (wf.slack(u, s, HALF)
                             == wf.slack(t, s, HALF) + wf.slack(u, t, HALF))
                samples += 1
            for _ in range(3):
                c1 = [plane_point() for _ in range(4)]
                c2 = [pt(p.x.value + Fraction(rng.randint(-2, 2), 4),
                         p.y.value + Fraction(rng.randint(-2, 2), 4))
                      for p in c1]
                delta = max(inst.distance(a, b) for a, b in zip(c1, c2))
                s = plane_point()
                gap = abs(wf.slack(s, c1, HALF) - wf.slack(s, c2, HALF))
                ok = ok and gap <= (1 + HALF) * delta
                samples += 1
        for _ in range(4):
            c = [rng.choice(grid) for _ in range(4)]
            s, t = any_point(), any_point()
            d = inst.distance(s, t)
            ok = ok and (wf.slack(t, c, HALF)
                         >= wf.slack(s, c, HALF) - (1 + HALF) * d)
            dominator = min(wf.anchor_points,
                            key=lambda a: wf.evaluate(a) + inst.distance(a, s))
            gain = (1 - HALF) * inst.distance(dominator, s)
            ok = ok and (wf.slack(dominator, c, HALF)
                         >= wf.slack(s, c, HALF) + gain)
            samples += 2
        if not ok:
            break
    elapsed = time.perf_counter() - start
    ok = ok and samples >= 1000 and elapsed < 30.0
    _report(4, ok)
    assert ok, f"slack lemma sample failed ({samples} samples, {elapsed:.2f}s)"


def _verified_batch(instances, variant):
    ok = True
    convexity_seen = 0
    for i, inst in enumerate(instances):
        lam = LAMBDAS[i % len(LAMBDAS)]
        cfg = default_constants(lam, variant)
        trace = run(inst, AlgorithmConfig("wfa", lam), verify=True,
                    potential=cfg)
        _record(trace)
        ok = ok and trace.lemma_failures == 0
        ok = ok and trace.phi_final is not None
        ok = ok and trace.phi_final <= trace.opt_cost
        c5 = cfg.constants()["c5"]
        if trace.opt_cost > 0:
            ok = ok and trace.total_extended_cost <= trace.opt_cost / c5
        else:
            ok = ok and trace.total_extended_cost == 0
        for rec in trace.records:
            ok = ok and rec.lemma_report is not None
            for chk in rec.lemma_report.checks:
                if chk.name == "convex_containment":
                    convexity_seen += 1
        if not ok:
            break
    return ok, convexity_seen


def test_accept_5_potential_lemmas_on_the_plane():
    start = time.perf_counter()
    instances = [generate(GeneratorConfig("uniform_random", n=8), 500, trial)
                 for trial in range(100)]
    ok, _ = _verified_batch(instances, "cnn")
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 600.0
    _report(5, ok)
    assert ok, f"plane potential suite failed (elapsed {elapsed:.2f}s)"


def test_accept_6_potential_lemmas_general_variant():
    start = time.perf_counter()
    finite_gen = GeneratorConfig("finite_uniform", n=8, size=4)
    weighted_gen = GeneratorConfig("weighted_line", n=8, weight_x=1, weight_y=3)
    instances = [generate(finite_gen, 600, trial) for trial in range(25)]
    instances += [generate(weighted_gen, 601, trial) for trial in range(25)]
    for lam in LAMBDAS:
        cfg = default_constants(lam, "general")
        assert cfg.eta * (cfg.mu - cfg.lam) >= 1 + cfg.mu
    ok, convexity_seen = _verified_batch(instances, "general")
    ok = ok and convexity_seen > 0
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 600.0
    _report(6, ok)
    assert ok, f"general potential suite failed (elapsed {elapsed:.2f}s)"


def test_accept_7_extended_cost_exactness():
    start = time.perf_counter()
    rng = random.Random(700)
    steps = 0
    ok = True
    while steps < 500 and ok:
        inst = plane_instance(rng, 5, bound=2)
        lam = LAMBDAS[steps % len(LAMBDAS)]
        wf = initial(inst)
        prev = None
        for r in inst.requests:
            value, witness = wf.extended_cost(r, lam)
            approx = dense_slack_max(wf, r, lam, step=Fraction(1, 64))
            ok = ok and approx <= float(value) + 1e-9
            ok = ok and float(value) - approx <= 2 ** -5
            ref = prev if prev is not None else inst.origin
            dx = inst.distance_x(ref.x, r.x)
            dy = inst.distance_y(ref.y, r.y)
            ok = ok and value <= (1 + lam) * max(dx, dy)
            ok = ok and wf.slack(witness, r, lam) == value
            wf = wf.update(r)
            prev = r
            steps += 1
            if steps >= 500:
                break
    elapsed = time.perf_counter() - start
    ok = ok and steps >= 500 and elapsed < 60.0
    _report(7, ok)
    assert ok, f"extended cost mismatch ({steps} steps, {elapsed:.2f}s)"


def test_accept_8_accounting_identity_over_all_runs():
    ok = len(WFA_RUNS) >= 200
    for total, nabla, final_work, lam in WFA_RUNS:
        ok = ok and total * lam <= nabla - final_work
    _report(8, ok)
    assert ok, f"accounting identity failed over {len(WFA_RUNS)} runs"


def test_accept_9_batch_determinism(tmp_path):
    fixture = Path(__file__).resolve().parent.parent / "fixtures" / "batch.json"
    trees = []
    for name in ("first", "second"):
        out = tmp_path / name
        status = cli.main(["run", "--config", str(fixture),
                           "--seed", "7", "--out-dir", str(out)])
        files = {p.relative_to(out): p.read_bytes()
                 for p in sorted(out.rglob("*")) if p.is_file()}
        trees.append((status, files))
    ok = trees[0] == trees[1]
    ok = ok and trees[0][0] == 0
    names = {str(k) for k in trees[0][1]}
    ok = ok and "summary.csv" in names
    ok = ok and any(n.startswith("traces/") for n in names)
    _report(9, ok)
    assert ok, "repeated batch runs differ"
