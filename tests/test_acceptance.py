"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its runtime (run with ``pytest -s`` to see them all).

Everything asserts exact values (integers and reduced rationals); the only
tolerances are the per-criterion wall-clock budgets.
"""

import random
import time
from fractions import Fraction

import pytest

from quantmon import boolprop as bp
from quantmon import domain as dom
from quantmon import machine as mc
from quantmon import precision as pr
from quantmon import qprop as qp
from quantmon.boolprop import Side
from quantmon.trace import (FiniteTrace, all_finite_traces, all_lassos, lasso,
                            parse_finite, parse_lasso, random_finite_trace)
from quantmon.verdict import (FunctionStepper, LimitBudget, VerdictFunction,
                              combine_max, combine_min, combine_sum, count_switches,
                              eval_liminf, eval_limsup, verdict_sequence)

FIG_TRACE = "req ack req other ack req ack other"
FAST = LimitBudget(max_loop_iterations=64)


class _Clock:
    def __init__(self, label, budget_seconds):
        self.label = label
        self.budget = budget_seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"{status} {self.label} [{elapsed:.2f}s / budget {self.budget}s]")
        if exc_type is None:
            assert elapsed < self.budget, \
                f"{self.label} exceeded its {self.budget}s budget ({elapsed:.2f}s)"
        return False


def test_criterion_01_figure1_reproduction(server):
    with _Clock("criterion 1: maximal response-time figure", 1.0):
        v = mc.generated_verdict(mc.build_mmax())
        seq = verdict_sequence(v, parse_finite(FIG_TRACE, server))
        assert seq == [0, 0, 1, 1, 1, 2, 2, 2, 2]
        assert all(isinstance(x, int) for x in seq)


def test_criterion_02_figure2_reproduction(server):
    with _Clock("criterion 2: average response-time figure", 1.0):
        v = mc.generated_verdict(mc.build_mavg())
        seq = verdict_sequence(v, parse_finite(FIG_TRACE, server))
        assert seq == [0, 0, 1, Fraction(1, 2), 1, Fraction(3, 2), 1,
                       Fraction(4, 3), Fraction(4, 3)]
        plateaus = [seq[2], seq[3], seq[4], seq[5], seq[6], seq[7]]
        displayed = [round(float(x), 2) for x in plateaus]
        assert displayed == [1.0, 0.5, 1.0, 1.5, 1.0, 1.33]


def test_criterion_03_machine_equals_direct_function(server):
    with _Clock("criterion 3: two-counter machine == direct evaluator", 30.0):
        v = mc.generated_verdict(mc.build_mmax())
        mismatches = 0
        for s in all_finite_traces(server, 8):
            if v(s) != qp.mrt(s):
                mismatches += 1
        rng = random.Random(42)
        for _ in range(10_000):
            s = random_finite_trace(rng, server, rng.randint(0, 200))
            if v(s) != qp.mrt(s):
                mismatches += 1
        assert mismatches == 0


def test_criterion_04_modality_suite(ab, never_b, eventually_a, inf_often_a,
                                     ev_always_a):
    with _Clock("criterion 4: safety-progress monitor modalities", 60.0):
        suite = list(all_lassos(ab, 2, 3))
        obligation = bp.ObligationList(((never_b, eventually_a),
                                        (bp.safety_never(ab, "a"),
                                         bp.cosafety_eventually(ab, "b"))))
        checks = [
            ("safety", bp.monitor_safety(never_b), bp.characteristic_property(never_b)),
            ("cosafety", bp.monitor_cosafety(eventually_a),
             bp.characteristic_property(eventually_a)),
            ("obligation", bp.monitor_obligation(obligation), obligation.membership),
            ("response", bp.monitor_response(inf_often_a),
             bp.characteristic_property(inf_often_a)),
            ("persistence", bp.monitor_persistence(ev_always_a),
             bp.characteristic_property(ev_always_a)),
        ]
        for label, monitor, prop in checks:
            report = bp.classify_modality(monitor, prop, Side.BELOW, suite,
                                          budget=FAST)
            assert report.universal_ok, (label, report.summary())
            assert not report.unresolved, label


def test_criterion_05_obligation_switch_bound(ab):
    with _Clock("criterion 5: obligation monitors switch at most 2k times", 60.0):
        rng = random.Random(42)
        violations = 0
        for _ in range(100):
            k = rng.randint(1, 4)
            obligation = bp.random_obligation_list(rng, ab, k)
            monitor = bp.monitor_obligation(obligation)
            for _ in range(100):
                s = FiniteTrace(tuple(rng.choice(ab.symbols)
                                      for _ in range(rng.randint(0, 100))), ab)
                if count_switches(verdict_sequence(monitor, s)) > 2 * k:
                    violations += 1
        assert violations == 0


def _brute_classically_monitorable(P):
    """Word-enumeration re-derivation: from every reachable state, some
    extension reaches a determining state."""
    horizon = len(P.states) + 1
    reachable = {P.initial}
    frontier = [P.initial]
    while frontier:
        q = frontier.pop()
        for a in P.alphabet:
            nxt = P.step(q, a)
            if nxt not in reachable:
                reachable.add(nxt)
                frontier.append(nxt)
    determining = P.pos_states | P.neg_states
    for q in reachable:
        found = False
        for r in all_finite_traces(P.alphabet, horizon):
            cur = q
            for sym in r:
                cur = P.step(cur, sym)
            if cur in determining:
                found = True
                break
        if not found:
            return False
    return True


def test_criterion_06_classical_monitorability(ab, never_b, eventually_a,
                                               inf_often_a):
    with _Clock("criterion 6: classical monitorability vs brute sweep", 60.0):
        samples = [never_b, eventually_a, bp.first_symbol_is(ab, "a"), inf_often_a]
        rng = random.Random(42)
        samples += [bp.random_safety_automaton(rng, ab) for _ in range(10)]
        samples += [bp.random_cosafety_automaton(rng, ab) for _ in range(10)]
        assert bp.classically_monitorable(never_b)
        assert bp.classically_monitorable(eventually_a)
        assert not bp.classically_monitorable(inf_often_a)
        mismatches = sum(1 for P in samples
                         if bp.classically_monitorable(P) != _brute_classically_monitorable(P))
        assert mismatches == 0


def test_criterion_07_counter_hierarchy():
    with _Clock("criterion 7: ordering property counter hierarchy (k=4)", 60.0):
        k = 4
        alphabet = mc.pk_alphabet(k)
        witnesses = [parse_lasso("2 ; 1", alphabet),   # caught by every tracker
                     parse_lasso("3 ; 1", alphabet),   # needs 3 counters
                     parse_lasso("4 ; 1", alphabet),   # needs 4 counters
                     parse_lasso("1 2 3 4 ; 1", alphabet),
                     parse_lasso("; 1", alphabet)]
        suite = pr.LassoSuite(tuple(witnesses), "ordering-witnesses")
        family = [(2, mc.generated_verdict(mc.build_pk_approx(k, 2))),
                  (3, mc.generated_verdict(mc.build_pk_approx(k, 3))),
                  (4, mc.generated_verdict(mc.build_pk_monitor(k)))]
        results = pr.hierarchy_experiment(family, suite, Side.ABOVE, FAST,
                                          prop=mc.pk_property(k))
        for entry in results:
            assert entry["report"].relation is pr.PrecisionRelation.MORE_PRECISE, \
                entry["report"].summary()
            assert entry["sound"] == (True, True)
            assert all(row.relation in ("eq", "lt") for row in entry["report"].rows)


def test_criterion_08_binary_alphabet_hierarchy():
    with _Clock("criterion 8: binary-encoded hierarchy (k=2..4)", 60.0):
        alphabet = mc.BINARY_ALPHABET
        witnesses = [parse_lasso("; 1 0 mark", alphabet),        # value 2
                     parse_lasso("; 1 1 mark", alphabet),        # value 3
                     parse_lasso("; 1 0 0 mark", alphabet),      # value 4
                     parse_lasso("; 1 0 1 mark", alphabet),      # value 5
                     parse_lasso("1 mark ; 1 0 mark", alphabet),
                     parse_lasso("; 1 mark", alphabet)]
        suite = pr.LassoSuite(tuple(witnesses), "binary-witnesses")
        family = [(kk, mc.generated_verdict(mc.build_binary_pk(kk)))
                  for kk in range(2, 6)]
        results = pr.hierarchy_experiment(family, suite, Side.ABOVE, FAST,
                                          prop=mc.binary_pk_property())
        assert len(results) == 3  # 3 vs 2, 4 vs 3, 5 vs 4
        for entry in results:
            assert entry["report"].relation is pr.PrecisionRelation.MORE_PRECISE, \
                entry["report"].summary()
            assert entry["sound"] == (True, True)


def test_criterion_09_adders_vs_counters():
    with _Clock("criterion 9: adders against counters", 60.0):
        v_add = mc.generated_verdict(mc.build_doubling_adder())
        v_count = mc.generated_verdict(mc.build_doubling_counter())
        traces = []
        for n in range(1, 17):
            t = parse_lasso(" ".join(["a"] * n) + " b ; b", mc.DOUBLING_ALPHABET)
            traces.append(t)
            add = eval_limsup(v_add, t, FAST)
            cnt = eval_limsup(v_count, t, FAST)
            assert add.value == 2 ** n and add.is_determined
            assert cnt.value == 2 * n and cnt.is_determined
        suite = pr.LassoSuite(tuple(traces), "a-blocks")
        report = pr.compare(v_add, v_count, suite, Side.BELOW, FAST)
        assert report.relation is pr.PrecisionRelation.MORE_PRECISE
        results = pr.hierarchy_experiment(
            [(1, v_count), (2, v_add)], suite, Side.BELOW, FAST,
            prop=mc.doubling_property())
        assert results[0]["sound"] == (True, True)


def test_criterion_10_continuity_checks(server, never_b, eventually_a, ab):
    with _Clock("criterion 10: continuity and co-continuity checks", 60.0):
        suite = qp.continuity_suite(server,
                                    extras=[parse_lasso("; req other ack", server)])
        rep = qp.check_continuity(qp.mrt_property(), suite)
        assert rep.cocontinuous_consistent
        assert not rep.continuous_consistent and rep.continuity_witness is not None
        rep = qp.check_continuity(qp.art_property(), suite)
        assert not rep.continuous_consistent and rep.continuity_witness is not None
        assert not rep.cocontinuous_consistent and rep.cocontinuity_witness is not None
        ab_suite = qp.continuity_suite(ab)
        rep = qp.check_continuity(qp.discounted_safety_property(never_b), ab_suite)
        assert rep.continuous_consistent
        rep = qp.check_continuity(qp.discounted_cosafety_property(eventually_a),
                                  ab_suite)
        assert rep.cocontinuous_consistent


def test_criterion_11_energy_brute_force(ab):
    with _Clock("criterion 11: energy against brute-force minimum", 60.0):
        rng = random.Random(42)
        mismatches = 0
        for _ in range(100):
            n = rng.randint(1, 4)
            states = tuple(f"q{i}" for i in range(n))
            transitions = {(q, a): (rng.choice(states), rng.randint(-3, 3))
                           for q in states for a in ab}
            A = qp.WeightedAutomaton(ab, states, "q0", transitions)
            t = lasso(tuple(rng.choice(ab.symbols) for _ in range(rng.randint(0, 4))),
                      tuple(rng.choice(ab.symbols) for _ in range(rng.randint(1, 4))),
                      ab)
            # the levels of the prefixes of up to 400 symbols, from one walk
            q, levels = A.initial, [0]
            for sym in t.prefix(400).symbols:
                q, w = A.step(q, sym)
                levels.append(levels[-1] + w)
            brute, deeper = -min(levels[:201]), -min(levels)
            got = qp.eval_energy(A, t)
            if got == dom.INF:
                # the recurrent cycle drains energy, so the 200-prefix
                # deficit must exceed any earlier plateau
                if not deeper > brute:
                    mismatches += 1
            elif got != brute:
                mismatches += 1
        assert mismatches == 0


def _random_moore_verdict(rng, alphabet, name):
    states = tuple(range(rng.randint(1, 3)))
    table = {(q, a): rng.choice(states) for q in states for a in alphabet}
    outs = {q: rng.randint(0, 5) for q in states}
    factory = lambda: FunctionStepper(states[0], lambda q, a: table[(q, a)], lambda q: outs[q])
    return VerdictFunction(dom.NATINF, stepper_factory=factory, name=name)


def test_criterion_12_closure_properties(ab):
    with _Clock("criterion 12: lattice and arithmetic closure", 60.0):
        rng = random.Random(42)
        violations = 0
        for i in range(50):
            vp = _random_moore_verdict(rng, ab, f"p{i}")
            vq = _random_moore_verdict(rng, ab, f"q{i}")
            t = lasso(tuple(rng.choice(ab.symbols) for _ in range(rng.randint(0, 3))),
                      tuple(rng.choice(ab.symbols) for _ in range(rng.randint(1, 4))),
                      ab)
            lp = eval_limsup(vp, t, FAST)
            lq = eval_limsup(vq, t, FAST)
            lmax = eval_limsup(combine_max(vp, vq), t, FAST)
            lmin = eval_limsup(combine_min(vp, vq), t, FAST)
            lsum = eval_limsup(combine_sum(vp, vq), t, FAST)
            assert all(r.is_determined for r in (lp, lq, lmax, lmin, lsum))
            if lmax.value != max(lp.value, lq.value):
                violations += 1
            if not lmin.value <= min(lp.value, lq.value):
                violations += 1
            if not lsum.value <= lp.value + lq.value:
                violations += 1
        assert violations == 0
