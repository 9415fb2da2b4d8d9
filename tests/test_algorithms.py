"""Online algorithms: the work-function rule, greedy, and retrospective."""

import random
import re
from fractions import Fraction

import pytest

from wfalab import (AlgorithmConfig, AuditError, ConfigError, Instance,
                    ProductPoint, RealLine, RequestPoint, default_constants,
                    greedy_step, initial, potential, pt, request,
                    retrospective_step, run, run_all, serves, verify_step,
                    wfa_minimizers, wfa_step)
from wfalab.harness import example_trace, uniform_metric
from wfalab.offline import MAX_ORACLE_REQUESTS, brute_force_opt
from wfalab.metric import IndexPoint, RealPoint, product_key
from wfalab.problem import grid_points_on

from conftest import (big_instance, finite_instance, huge_instance,
                      mixed_instance, plane_instance, weighted_instance,
                      wide_instance)

HALF = Fraction(1, 2)


def single_request_wf(x, y):
    inst = Instance(RealLine(), RealLine(), pt(0, 0), (request(x, y),))
    return inst, initial(inst).update(inst.requests[0])


def test_config_validation():
    assert AlgorithmConfig("wfa", HALF).label == "wfa[1/2]"
    assert AlgorithmConfig("greedy").label == "greedy"
    assert AlgorithmConfig("wfa", 1).lam == 1
    with pytest.raises(ConfigError):
        AlgorithmConfig("wfa")
    with pytest.raises(ConfigError):
        AlgorithmConfig("wfa", 0)
    with pytest.raises(ConfigError):
        AlgorithmConfig("wfa", Fraction(3, 2))
    with pytest.raises(ConfigError):
        AlgorithmConfig("greedy", HALF)
    with pytest.raises(ConfigError):
        AlgorithmConfig("retrospective", 1)
    with pytest.raises(ConfigError):
        AlgorithmConfig("nearest")


def test_wfa_step_prefers_small_moves_then_lex():
    _, wf = single_request_wf(1, 1)
    mins = wfa_minimizers(wf, pt(0, 0), 1)
    assert set(mins) == {pt(1, 0), pt(0, 1)}
    assert wfa_step(wf, pt(0, 0), 1) == pt(0, 1)
    mins = wfa_minimizers(wf, pt(1, 2), 1)
    assert pt(1, 2) in mins and len(mins) == 4
    assert wfa_step(wf, pt(1, 2), 1) == pt(1, 2)


def test_greedy_tie_keeps_x_projection():
    inst, _ = single_request_wf(2, -2)
    assert greedy_step(inst, pt(0, 0), inst.requests[0]) == pt(2, 0)
    assert greedy_step(inst, pt(0, -3), inst.requests[0]) == pt(0, -2)


def test_retrospective_breaks_ties_lexicographically():
    _, wf = single_request_wf(1, 1)
    assert retrospective_step(wf) == pt(0, 1)


def test_step_functions_refuse_the_initial_work_function():
    """The moves and the verifier read the request from the work function
    after it; the initial one has none."""
    inst, wf = single_request_wf(1, 1)
    start = initial(inst)
    with pytest.raises(ConfigError):
        wfa_minimizers(start, pt(0, 0), HALF)
    with pytest.raises(ConfigError):
        wfa_step(start, pt(0, 0), HALF)
    with pytest.raises(ConfigError):
        retrospective_step(start)
    with pytest.raises(ConfigError):
        verify_step(start, start, default_constants(HALF))
    assert verify_step(start, wf, default_constants(HALF)).failures == 0


def test_straight_line_family_at_lambda_one():
    trace = example_trace(5, 1)
    assert trace.total_cost == 5
    assert trace.opt_cost == 2
    assert trace.ratio == Fraction(5, 2)
    for j, rec in enumerate(trace.records):
        assert rec.position_after == pt(j + 1, 2) or rec.position_after == pt(j + 1, 0)
        assert rec.move_cost == 1
    assert trace.final_position == pt(5, 0)


def test_straight_line_family_plateaus_at_half():
    costs = [example_trace(m, HALF).total_cost for m in range(1, 7)]
    assert costs == [1, 2, 3, 4, 10, 10]


def test_identity_bound_on_random_runs():
    rng = random.Random(51)
    for lam in (Fraction(1, 4), HALF, Fraction(3, 4), Fraction(1)):
        inst = plane_instance(rng, 5)
        trace = run(inst, AlgorithmConfig("wfa", lam))
        assert trace.identity_holds is True
        assert trace.total_cost == sum(r.move_cost for r in trace.records)
        for rec in trace.records:
            assert serves(rec.position_after, rec.request)
            assert rec.ties >= 1
        assert trace.total_cost * lam <= trace.total_extended_cost - trace.final_work_at_position


def test_verified_run_populates_reports():
    rng = random.Random(52)
    inst = plane_instance(rng, 4)
    trace = run(inst, AlgorithmConfig("wfa", HALF), verify=True)
    assert trace.lemma_failures == 0
    assert trace.phi_final is not None and trace.phi_final <= trace.opt_cost
    for rec in trace.records:
        assert rec.lemma_report is not None
        assert rec.lemma_report.failures == 0
        assert rec.phi_before is not None and rec.phi_after is not None
    if any(rec.nabla > 0 for rec in trace.records):
        assert trace.min_phi_increase_over_nabla is not None


def test_other_algorithms_cost_at_least_opt():
    rng = random.Random(53)
    inst = finite_instance(rng, 5)
    for kind in ("greedy", "retrospective"):
        trace = run(inst, AlgorithmConfig(kind))
        assert trace.identity_holds is None
        assert trace.total_cost >= trace.opt_cost
        assert trace.phi_final is None
        for rec in trace.records:
            assert serves(rec.position_after, rec.request)


def test_verify_needs_a_sub_unit_lambda_or_explicit_config():
    rng = random.Random(54)
    inst = plane_instance(rng, 2)
    with pytest.raises(ConfigError):
        run(inst, AlgorithmConfig("wfa", 1), verify=True)
    with pytest.raises(ConfigError):
        run(inst, AlgorithmConfig("wfa", HALF), verify=True,
            potential=default_constants(Fraction(1, 4)))
    with pytest.raises(ConfigError):
        run(inst, AlgorithmConfig("wfa", HALF), verify=True, potential="weird")


# Every kind, repeated lambdas, and the unverifiable kinds between the
# verified ones.
LOCKSTEP = (AlgorithmConfig("wfa", Fraction(1, 4)), AlgorithmConfig("greedy"),
            AlgorithmConfig("wfa", HALF), AlgorithmConfig("retrospective"),
            AlgorithmConfig("wfa", Fraction(3, 4)), AlgorithmConfig("wfa", HALF))


@pytest.mark.parametrize("maker,variant", [(plane_instance, "cnn"),
                                           (weighted_instance, "cnn"),
                                           (finite_instance, "general"),
                                           (mixed_instance, "general")])
def test_run_all_is_each_run_alone(maker, variant):
    """Lockstep runs return exactly what each config's own run returns:
    every record, lemma report and total, verified or not."""
    inst = maker(random.Random(72), 5)
    for verify in (False, True):
        assert (run_all(inst, LOCKSTEP, verify, variant)
                == [run(inst, c, verify, variant) for c in LOCKSTEP])


def test_run_all_audits_as_each_run_alone():
    inst = plane_instance(random.Random(73), 3)
    configs = LOCKSTEP[:3]
    assert (run_all(inst, configs, True, audit=True)
            == [run(inst, c, True, audit=True) for c in configs])


def test_run_all_raises_what_its_first_failing_config_raises_alone(monkeypatch):
    """wfa[3/4] fails at step 1 and wfa[1/2] at step 3: the lockstep run
    raises wfa[1/2]'s error, the one run(wfa[1/2]) raises, and names it."""
    inst = plane_instance(random.Random(74), 5)
    true_verify = potential.verify_step

    def failing_verify(before, after, cfg, **kwargs):
        if (cfg.lam, before.i) in {(Fraction(3, 4), 1), (HALF, 3)}:
            raise AuditError(f"failed at {cfg.lam}")
        return true_verify(before, after, cfg, **kwargs)

    monkeypatch.setattr(potential, "verify_step", failing_verify)
    configs = [AlgorithmConfig("greedy"), AlgorithmConfig("wfa", HALF),
               AlgorithmConfig("wfa", Fraction(3, 4))]
    with pytest.raises(AuditError) as lockstep:
        run_all(inst, configs, True)
    with pytest.raises(AuditError) as alone:
        run(inst, configs[1], True)
    assert str(lockstep.value) == str(alone.value) == "step 3: failed at 1/2"
    assert str(lockstep.value.__cause__) == "failed at 1/2"
    assert lockstep.value.algorithm == configs[1]
    with pytest.raises(AuditError, match="step 1: failed at 3/4"):
        run(inst, configs[2], True)


def test_a_stacked_audit_fails_only_its_own_config(monkeypatch):
    """A step's audit minima are taken for all its configs at once; one
    config's false minimum fails that config alone, with the error its own
    run raises, and the config before it runs clean."""
    inst = plane_instance(random.Random(76), 4, bound=1)
    true_minima = potential._audit_minima

    def false_minima(wf, stack):
        return {cfg: (mid_f - 1, *rest) if (cfg.lam, wf.i) == (Fraction(3, 4), 3)
                else (mid_f, *rest)
                for cfg, (mid_f, *rest) in true_minima(wf, stack).items()}

    monkeypatch.setattr(potential, "_audit_minima", false_minima)
    configs = [AlgorithmConfig("wfa", HALF), AlgorithmConfig("wfa", Fraction(3, 4))]
    with pytest.raises(AuditError) as lockstep:
        run_all(inst, configs, True, audit=True)
    with pytest.raises(AuditError) as alone:
        run(inst, configs[1], True, audit=True)
    assert str(lockstep.value) == str(alone.value)
    assert str(alone.value).startswith("step 2: midpoint refinement improved min F")
    assert lockstep.value.algorithm == configs[1]
    assert run(inst, configs[0], True, audit=True).lemma_failures == 0


def test_run_all_reports_a_config_refused_at_the_start_in_its_place():
    """A potential that cannot verify a config fails that config before any
    step, as run would: after configs that run clean it is the error, before
    them it stops the run."""
    inst = plane_instance(random.Random(75), 3)
    cfg = default_constants(HALF)
    half, quarter = AlgorithmConfig("wfa", HALF), AlgorithmConfig("wfa", Fraction(1, 4))
    with pytest.raises(ConfigError) as alone:
        run(inst, quarter, True, cfg)
    for configs in ([half, quarter], [quarter, half]):
        with pytest.raises(ConfigError) as lockstep:
            run_all(inst, configs, True, cfg)
        assert str(lockstep.value) == str(alone.value)
        assert lockstep.value.algorithm == quarter


def fraction_minimizers(wf_after, current, r, lam):
    """The Fraction scorer: W(t) + lam * d(current, t) at every grid point
    of the request's lines, then at the projections of the current position
    not among them, with W(t) the minimum over the anchors of v + d."""
    inst = wf_after.instance
    cands = list(grid_points_on(wf_after.grid, r))
    for p in (ProductPoint(r.x, current.y), ProductPoint(current.x, r.y)):
        if p not in cands:
            cands.append(p)
    scores = [min(v + inst.distance(a, t) for a, v in wf_after.anchors)
              + lam * inst.distance(current, t) for t in cands]
    return [t for t, v in zip(cands, scores) if v == min(scores)]


def wider_instance():
    """wide_instance with requests over 37, 41 and 43 as well: scale about
    4.4e14, so at lambda = 997/1000 q * W outgrows int64."""
    extra = (request(Fraction(300, 37), Fraction(-200, 41)),
             request(Fraction(-100, 43), Fraction(50, 37)))
    inst = wide_instance()
    return Instance(inst.space_x, inst.space_y, inst.origin,
                    inst.requests + extra)


def off_grid(inst, rng):
    """A configuration whose line coordinates are sevenths (off the grid
    and off its scale, mostly) and whose finite coordinates are any point."""
    return ProductPoint(*(RealPoint(Fraction(rng.randint(-40, 40), 7))
                          if axis.kind == "line" else IndexPoint(rng.randrange(axis.size))
                          for axis in inst._axes))


@pytest.mark.parametrize("maker", [plane_instance, weighted_instance,
                                   finite_instance, mixed_instance])
def test_retrospective_step_matches_the_fraction_scan(maker):
    """The retrospective move is the product_key-first grid point of the
    request's lines with the least W, as a Fraction scan finds it."""
    inst = maker(random.Random(56), 8)
    wf = initial(inst)
    for r in inst.requests:
        wf = wf.update(r)
        cands = grid_points_on(wf.grid, r)
        best = min(wf.evaluate(t) for t in cands)
        want = min((t for t in cands if wf.evaluate(t) == best), key=product_key)
        assert retrospective_step(wf) == want


@pytest.mark.parametrize("maker", ["plane", "weighted", "finite", "mixed",
                                   "wide", "wider"])
def test_wfa_minimizers_match_the_fraction_scoring(maker):
    """Along WFA runs, the integer argmin returns the Fraction scorer's
    minimizers in its order, at the run's own positions and at off-grid
    ones; the wider instance's scores need Python ints."""
    rng = random.Random(55)
    if maker in ("wide", "wider"):
        runs = [(wide_instance() if maker == "wide" else wider_instance(),
                 Fraction(997, 1000))]
    else:
        make = {"plane": plane_instance, "weighted": weighted_instance,
                "finite": finite_instance, "mixed": mixed_instance}[maker]
        runs = [(make(rng, 6), lam) for lam in (Fraction(1, 4), HALF, Fraction(1))]
    wide_scores = 0
    for inst, lam in runs:
        wf, pos = initial(inst), inst.origin
        for r in inst.requests:
            wf = wf.update(r)
            wide_scores += lam.denominator * int(wf.lines.max()) >= 2 ** 62
            for current in (pos, off_grid(inst, rng), ProductPoint(r.x, pos.y)):
                assert (wfa_minimizers(wf, current, lam)
                        == fraction_minimizers(wf, current, r, lam))
            pos = wfa_step(wf, pos, lam)
    assert bool(wide_scores) == (maker == "wider")


def probe_notes(trace):
    """The Lipschitz probe's entries of a verified trace, step by step: the
    skip note, or None where the probe ran."""
    out = []
    for rec in trace.records:
        names = {c.name: c for c in rec.lemma_report.checks}
        skip = names.get("lipschitz_probe")
        assert (skip is None) == ({"lipschitz_nabla", "lipschitz_min_g"} <= names.keys())
        out.append(skip and skip.note)
    return out


def test_runs_past_int64_are_exact_and_verified_with_the_probe_skipped():
    """Unverified runs whose work-function values pass 2**62 end with the
    offline optimum.  Verified runs, audit off and on, do too with no lemma
    failure: the Lipschitz probe moves the request by 1/32, and where a
    position then passes 2**62 at its scale 32, it reports itself skipped."""
    inst = huge_instance()
    configs = [AlgorithmConfig("wfa", HALF), AlgorithmConfig("greedy"),
               AlgorithmConfig("retrospective")]
    opt = brute_force_opt(inst)
    assert [t.opt_cost for t in run_all(inst, configs)] == [opt] * 3
    for audit in (False, True):
        trace = run(inst, configs[0], verify=True, audit=audit)
        assert (trace.lemma_failures, trace.opt_cost) == (0, opt)
        notes = probe_notes(trace)
        assert len(notes) == inst.n
        for note in notes:
            assert re.fullmatch(r"skipped: (coordinate \d+ overflows|grid positions "
                                r"overflow) the integer kernel at scale 32", note)


@pytest.mark.parametrize("kind", ["plane", "mixed"])
def test_audit_refines_candidates_past_two_to_the_61(kind):
    """The audit's midpoints are positions at twice the scale, which pass
    2**62 from coordinate 2**61 on and then take Python ints: with the audit
    on, as with it off, the run verifies with no lemma failure and ends at
    the offline optimum."""
    b = 2 ** 61
    if kind == "plane":
        inst = Instance(RealLine(), RealLine(), pt(0, 0),
                        (request(b, b), request(-b, 3), request(5, -b)))
        pot = "cnn"
    else:
        reqs = tuple(RequestPoint(IndexPoint(k + 1), RealPoint(y))
                     for k, y in enumerate((b, -b, 3)))
        inst = Instance(uniform_metric(4), RealLine(),
                        ProductPoint(IndexPoint(0), RealPoint(0)), reqs)
        pot = "general"
    for audit in (False, True):
        trace = run(inst, AlgorithmConfig("wfa", HALF), verify=True, potential=pot,
                    audit=audit)
        assert (trace.lemma_failures, trace.opt_cost) == (0, brute_force_opt(inst))
        names = [c.name for rec in trace.records for c in rec.lemma_report.checks]
        assert names.count("audit_no_improvement") == (inst.n if audit else 0)


def test_verified_runs_probe_values_past_int64():
    """At the probe's scale, 32 times the run's, W passes 2**62 while every
    position fits: the probe runs on Python-int values at every step, and
    the verified run has no lemma failure."""
    rng = random.Random(1)
    coords = (2 ** 53, -2 ** 53, 2 ** 54, -2 ** 54)
    long_run = Instance(RealLine(), RealLine(), pt(0, 0), tuple(
        request(rng.choice(coords), rng.choice(coords)) for _ in range(40)))
    wfa = AlgorithmConfig("wfa", HALF)
    for inst in (big_instance(), long_run):
        trace = run(inst, wfa, verify=True)
        assert trace.lemma_failures == 0
        assert probe_notes(trace) == [None] * inst.n
        assert trace.opt_cost == (brute_force_opt(inst) if inst.n <= MAX_ORACLE_REQUESTS
                                  else run(inst, wfa).opt_cost)
