import itertools
import random

import pytest

from quantmon import boolprop as bp
from quantmon import domain as dom
from quantmon import qprop as qp
from quantmon.boolprop import AcceptanceKind, Side
from quantmon.errors import AcceptanceKindError, AutomatonError, UnsupportedDomainError
from quantmon.trace import (Alphabet, FiniteTrace, all_finite_traces, all_lassos,
                            lasso, parse_lasso)
from quantmon.verdict import (FunctionStepper, LimitBudget, LimitKind, Monotonicity,
                              VerdictFunction, check_monotone, complement,
                              constant_verdict, count_switches, eval_limsup,
                              verdict_sequence)

SMALL = LimitBudget(max_loop_iterations=48)


def brute_membership(P, t, unrollings=None):
    """Oracle: run-cycle analysis done by hand, independent of membership()."""
    q = P.run_state(t.stem)
    seen = {}
    visited_everywhere = set()
    qq = P.initial
    visited_everywhere.add(qq)
    for a in t.stem:
        qq = P.step(qq, a)
        visited_everywhere.add(qq)
    cycle_states = None
    path = []
    for it in range(len(P.states) + 1):
        if q in seen:
            start = seen[q]
            cycle_states = set(itertools.chain.from_iterable(path[start:]))
            break
        seen[q] = it
        states_this = []
        for a in t.loop:
            q = P.step(q, a)
            states_this.append(q)
            visited_everywhere.add(q)
        path.append(states_this)
    if P.kind is AcceptanceKind.SAFETY:
        return not (visited_everywhere & P.accepting)
    if P.kind is AcceptanceKind.COSAFETY:
        return bool(visited_everywhere & P.accepting)
    if P.kind is AcceptanceKind.BUCHI:
        return bool(cycle_states & P.accepting)
    return cycle_states <= P.accepting


def brute_determines(P, s, polarity, max_stem=2, max_loop=3):
    """Oracle: enumerate lasso continuations and test membership on each."""
    want = polarity == "pos"
    return all(bp.membership(P, g.prepend(s.symbols)) == want
               for g in all_lassos(s.alphabet, max_stem, max_loop))


class TestAutomatonValidation:
    def test_requires_total_transitions(self, ab):
        with pytest.raises(AutomatonError):
            bp.BooleanPropertyAutomaton(ab, ("q",), "q", {("q", "a"): "q"},
                                        AcceptanceKind.SAFETY, set())

    def test_safety_set_must_trap(self, ab):
        transitions = {("ok", "a"): "ok", ("ok", "b"): "bad",
                       ("bad", "a"): "ok", ("bad", "b"): "bad"}
        with pytest.raises(AutomatonError):
            bp.BooleanPropertyAutomaton(ab, ("ok", "bad"), "ok", transitions,
                                        AcceptanceKind.SAFETY, {"bad"})

    def test_file_round_trip(self, inf_often_a):
        text = bp.render_automaton(inf_often_a)
        again = bp.load_automaton(text)
        assert again.kind is AcceptanceKind.BUCHI
        assert bp.render_automaton(again) == text

    def test_load_rejects_duplicates(self):
        text = ("alphabet: a\nstates: q\ninitial: q\naccept-kind: safety\n"
                "accept:\nq a -> q\nq a -> q\n")
        with pytest.raises(AutomatonError):
            bp.load_automaton(text)


    def test_finite_membership_is_no_kind(self, inf_often_a):
        # it was Buchi under a second name
        assert [k.value for k in AcceptanceKind] == ["safety", "cosafety", "buchi", "cobuchi"]
        text = bp.render_automaton(inf_often_a).replace("accept-kind: buchi",
                                                        "accept-kind: finite-membership")
        with pytest.raises(AutomatonError, match="bad accept-kind"):
            bp.load_automaton(text)


class TestMembership:
    def test_examples(self, never_b, inf_often_a, ev_always_a, ab):
        assert bp.membership(never_b, parse_lasso("; a", ab)) is True
        assert bp.membership(inf_often_a, parse_lasso("b ; a b", ab)) is True
        assert bp.membership(ev_always_a, parse_lasso("; a b", ab)) is False

    def test_against_brute_oracle(self, never_b, eventually_a, inf_often_a,
                                  ev_always_a, ab):
        for P in (never_b, eventually_a, inf_often_a, ev_always_a):
            for t in all_lassos(ab, 2, 3):
                assert bp.membership(P, t) == brute_membership(P, t), (P, t.render())


class TestDetermination:
    def test_examples(self, never_b, eventually_a, inf_often_a, ab):
        assert bp.determines(never_b, FiniteTrace(("a", "b"), ab), "neg")
        assert bp.determines(eventually_a, FiniteTrace(("a",), ab), "pos")
        s = FiniteTrace(("a", "b", "a"), ab)
        assert not bp.determines(inf_often_a, s, "pos")
        assert not bp.determines(inf_often_a, s, "neg")

    def test_against_continuation_enumeration(self, never_b, eventually_a,
                                               inf_often_a, ev_always_a, ab):
        for P in (never_b, eventually_a, inf_often_a, ev_always_a):
            for s in all_finite_traces(ab, 3):
                for polarity in ("pos", "neg"):
                    assert bp.determines(P, s, polarity) == \
                        brute_determines(P, s, polarity), (P, s.symbols, polarity)

    @pytest.mark.parametrize("kind", list(AcceptanceKind), ids=lambda kind: kind.value)
    def test_random_automata_against_continuation_enumeration(self, kind, ab):
        # three states: a rejected (or accepted) continuation, if any, has a
        # lasso with a stem of at most 2 and a loop of at most 3 symbols
        rng = random.Random(7)
        for _ in range(6):
            if kind is AcceptanceKind.SAFETY:
                P = bp.random_safety_automaton(rng, ab, n_states=2)
            elif kind is AcceptanceKind.COSAFETY:
                P = bp.random_cosafety_automaton(rng, ab, n_states=2)
            else:
                states = ("p", "q", "r")
                transitions = {(q, a): rng.choice(states) for q in states for a in ab}
                accepting = {q for q in states if rng.random() < 0.5}
                P = bp.BooleanPropertyAutomaton(ab, states, "p", transitions, kind, accepting)
            for s in all_finite_traces(ab, 2):
                for polarity in ("pos", "neg"):
                    assert bp.determines(P, s, polarity) == \
                        brute_determines(P, s, polarity), (bp.render_automaton(P), s.symbols)

    def test_determination_is_a_trap(self, never_b, eventually_a, ab):
        for P in (never_b, eventually_a):
            for s in all_finite_traces(ab, 2):
                for polarity in ("pos", "neg"):
                    if bp.determines(P, s, polarity):
                        for a in ab:
                            assert bp.determines(P, s.extend((a,)), polarity)


class TestClassicalMonitorability:
    def test_examples(self, never_b, eventually_a, inf_often_a, ab):
        assert bp.classically_monitorable(never_b)
        assert bp.classically_monitorable(eventually_a)
        assert not bp.classically_monitorable(inf_often_a)
        assert bp.classically_monitorable(bp.first_symbol_is(ab, "a"))

    def test_against_brute_sweep(self, never_b, eventually_a, inf_often_a,
                                 ev_always_a, ab):
        # reachability of a determining state, recomputed by enumerating
        # extension words per reachable state
        for P in (never_b, eventually_a, inf_often_a, ev_always_a):
            expect = True
            for s in all_finite_traces(ab, 3):
                if not any(bp.determines(P, s.extend(r.symbols), "pos") or
                           bp.determines(P, s.extend(r.symbols), "neg")
                           for r in all_finite_traces(ab, len(P.states) + 1)):
                    expect = False
                    break
            assert bp.classically_monitorable(P) == expect, P


class TestSafetyAndCosafetyMonitors:
    def test_safety_chain(self, never_b, ab):
        v = bp.monitor_safety(never_b)
        assert verdict_sequence(v, FiniteTrace(("a", "b", "a"), ab)) == \
            [True, True, False, False]

    def test_cosafety_chain(self, eventually_a, ab):
        v = bp.monitor_cosafety(eventually_a)
        assert verdict_sequence(v, FiniteTrace(("b", "b", "a"), ab)) == \
            [False, False, False, True]

    def test_monotone_on_their_domains(self, never_b, eventually_a, ab):
        suite = list(all_lassos(ab, 1, 2))
        assert check_monotone(bp.monitor_safety(never_b), suite, 6) is \
            Monotonicity.INCREASING
        assert check_monotone(bp.monitor_cosafety(eventually_a), suite, 6) is \
            Monotonicity.INCREASING

    def test_limits_equal_membership(self, never_b, eventually_a, ab):
        for P, build in ((never_b, bp.monitor_safety),
                         (eventually_a, bp.monitor_cosafety)):
            v = build(P)
            for t in all_lassos(ab, 2, 3):
                res = eval_limsup(v, t, SMALL)
                assert res.is_determined
                assert res.value == bp.membership(P, t)

    def test_canonical_monitor_by_kind(self, never_b, eventually_a, inf_often_a,
                                       ev_always_a):
        assert [bp.canonical_monitor(P).name
                for P in (never_b, eventually_a, inf_often_a, ev_always_a)] == \
            ["safety-monitor", "cosafety-monitor", "response-monitor", "persistence-monitor"]

    def test_kind_mismatch(self, never_b, eventually_a):
        with pytest.raises(AcceptanceKindError):
            bp.monitor_safety(eventually_a)
        with pytest.raises(AcceptanceKindError):
            bp.monitor_cosafety(never_b)


class TestObligation:
    def test_rule_trace(self, never_b, eventually_a, ab):
        monitor = bp.monitor_obligation(bp.ObligationList(((never_b, eventually_a),)))
        seq = verdict_sequence(monitor, FiniteTrace(("b", "a", "b"), ab))
        assert seq == [True, False, True, True]

    def test_all_clean_is_constant_true(self, never_b, eventually_a, ab):
        monitor = bp.monitor_obligation(bp.ObligationList(((never_b, eventually_a),)))
        seq = verdict_sequence(monitor, FiniteTrace(("a", "a", "a"), ab))
        assert seq == [True] * 4

    def test_limits_equal_membership(self, never_b, eventually_a, ab):
        obligation = bp.ObligationList(((never_b, eventually_a),))
        monitor = bp.monitor_obligation(obligation)
        for t in all_lassos(ab, 2, 3):
            res = eval_limsup(monitor, t, SMALL)
            assert res.is_determined
            assert res.value == obligation.membership(t)

    def test_members_must_share_an_alphabet(self, never_b, eventually_a, ab):
        abc = Alphabet(("a", "b", "c"))
        never_b_abc = bp.safety_never(abc, "b")
        with pytest.raises(AutomatonError, match="share an alphabet"):
            bp.ObligationList(((never_b_abc, eventually_a),))
        with pytest.raises(AutomatonError, match="share an alphabet"):
            bp.ObligationList(((never_b, eventually_a),
                               (never_b_abc, bp.cosafety_eventually(abc, "a"))))
        # the same symbols in another order are the same alphabet
        ba = Alphabet(("b", "a"))
        bp.ObligationList(((never_b, bp.cosafety_eventually(ba, "a")),))

    def test_switch_bound_on_random_obligations(self, ab):
        rng = random.Random(11)
        for _ in range(25):
            k = rng.randint(1, 4)
            obligation = bp.random_obligation_list(rng, ab, k)
            monitor = bp.monitor_obligation(obligation)
            for _ in range(5):
                s = FiniteTrace(tuple(rng.choice(ab.symbols)
                                      for _ in range(rng.randint(0, 60))), ab)
                switches = count_switches(verdict_sequence(monitor, s))
                assert switches <= 2 * k


class TestResponseAndPersistence:
    def test_response_limits_equal_membership(self, inf_often_a, ab):
        v = bp.monitor_response(inf_often_a)
        assert eval_limsup(v, parse_lasso("b ; a b", ab), SMALL).value is True
        assert eval_limsup(v, parse_lasso("; b", ab), SMALL).value is False
        for t in all_lassos(ab, 4, 4):
            res = eval_limsup(v, t, SMALL)
            assert res.is_determined
            assert res.value == bp.membership(inf_often_a, t), t.render()

    def test_persistence_limits_equal_membership(self, ev_always_a, ab):
        v = bp.monitor_persistence(ev_always_a)
        assert eval_limsup(v, parse_lasso("; a", ab), SMALL).value is True
        for t in all_lassos(ab, 4, 4):
            res = eval_limsup(v, t, SMALL)
            assert res.is_determined
            assert res.value == bp.membership(ev_always_a, t), t.render()


@pytest.fixture(scope="module")
def simple(inf_often_a, ab):
    return bp.ReactivityList(((inf_often_a, bp.empty_cobuchi(ab)),))


class TestReactivity:
    def test_fires_on_witnesses(self, simple, ab):
        monitor = bp.monitor_reactivity(simple)
        seq = verdict_sequence(monitor, FiniteTrace(("a", "a", "b", "a"), ab))
        assert seq == [True, True, True, dom.BOT, True]

    def test_limsup_on_good_and_bad_lassos(self, simple, ab):
        monitor = bp.monitor_reactivity(simple)
        assert eval_limsup(monitor, parse_lasso("; a", ab), SMALL).value is True
        assert eval_limsup(monitor, parse_lasso("; b", ab), SMALL).value is dom.BOT

    def test_approximates_from_below_everywhere(self, simple, ab):
        monitor = bp.monitor_reactivity(simple)
        for t in all_lassos(ab, 2, 3):
            res = eval_limsup(monitor, t, SMALL)
            assert res.is_determined
            assert dom.BBOT.le(res.value, simple.membership(t))

    def test_existential_from_every_short_prefix(self, simple, ab):
        monitor = bp.monitor_reactivity(simple)
        for s in all_finite_traces(ab, 3):
            hit = False
            for g in all_lassos(ab, 3, 3):
                t = g.prepend(s.symbols)
                res = eval_limsup(monitor, t, SMALL)
                if res.is_determined and res.value == simple.membership(t):
                    hit = True
                    break
            assert hit, s.symbols

    def test_members_must_share_an_alphabet(self, inf_often_a, ab):
        abc = Alphabet(("a", "b", "c"))
        with pytest.raises(AutomatonError, match="share an alphabet"):
            bp.ReactivityList(((inf_often_a, bp.empty_cobuchi(abc)),))
        with pytest.raises(AutomatonError, match="share an alphabet"):
            bp.ReactivityList(((inf_often_a, bp.empty_cobuchi(ab)),
                               (bp.buchi_infinitely_often(abc, "a"),
                                bp.empty_cobuchi(abc))))

    def test_persistence_switch_pins_output(self, ab):
        # response part dies immediately (empty Buchi); persistence part is
        # "eventually always a", so the monitor works through its clauses
        dead_buchi = bp.BooleanPropertyAutomaton(
            ab, ("q",), "q", {("q", "a"): "q", ("q", "b"): "q"},
            AcceptanceKind.BUCHI, set())
        pers = bp.cobuchi_eventually_always(ab, "a")
        reactivity = bp.ReactivityList(((dead_buchi, pers),))
        monitor = bp.monitor_reactivity(reactivity)
        assert eval_limsup(monitor, parse_lasso("; b", ab), SMALL).value is False
        assert reactivity.membership(parse_lasso("; b", ab)) is False
        # on an eventually-always-a trace the verdict stays sound from below
        res = eval_limsup(monitor, parse_lasso("b ; a", ab), SMALL)
        assert dom.BBOT.le(res.value, True)


def _table(alphabet, rows):
    return {(q, a): rows[q].get(a, rows[q]["*"]) for q in rows for a in alphabet}


ABC = Alphabet(("a", "b", "c"))
# infinitely often a until the first c, which kills the response part
CUT_RESPONSE = bp.BooleanPropertyAutomaton(
    ABC, ("r0", "r1", "dead"), "r0",
    _table(ABC, {"r0": {"a": "r1", "c": "dead", "*": "r0"},
                 "r1": {"a": "r1", "c": "dead", "*": "r0"}, "dead": {"*": "dead"}}),
    AcceptanceKind.BUCHI, {"r1"})


def _c_switch(accept_after_c):
    """Persistence: the first c leads to an accepting (or a rejecting) trap."""
    return bp.BooleanPropertyAutomaton(
        ABC, ("p", "after"), "p", _table(ABC, {"p": {"c": "after", "*": "p"},
                                               "after": {"*": "after"}}),
        AcceptanceKind.COBUCHI, {"after"} if accept_after_c else {"p"})


class TestReactivityDetermination:
    @pytest.mark.parametrize("accept_after_c,text,value", [
        (True, "a c ; a", True),
        (False, "a c ; a", False),
        (False, "; a", True),
        (True, "; b", dom.BOT),
    ])
    def test_persistence_part_after_the_response_part_dies(self, accept_after_c, text,
                                                           value):
        # after c the response part is negatively determined and the
        # persistence part positively (the conjunct is done, T) or negatively
        # (the output is pinned to F)
        reactivity = bp.ReactivityList(((CUT_RESPONSE, _c_switch(accept_after_c)),))
        t = parse_lasso(text, ABC)
        res = eval_limsup(bp.monitor_reactivity(reactivity), t, SMALL)
        assert (res.value, res.kind) == (value, LimitKind.EXACT)
        assert dom.BBOT.le(res.value, reactivity.membership(t))

    def test_approximates_from_below_on_random_lists(self, ab):
        rng = random.Random(11)
        suite = list(all_lassos(ab, 2, 2))

        def random_automaton(kind):
            states = ("p", "q", "r")
            transitions = {(q, a): rng.choice(states) for q in states for a in ab}
            return bp.BooleanPropertyAutomaton(ab, states, "p", transitions, kind,
                                               {q for q in states if rng.random() < 0.5})

        for _ in range(60):
            reactivity = bp.ReactivityList(tuple(
                (random_automaton(AcceptanceKind.BUCHI), random_automaton(AcceptanceKind.COBUCHI))
                for _ in range(rng.randint(1, 2))))
            monitor = bp.monitor_reactivity(reactivity)
            for t in suite:
                res = eval_limsup(monitor, t, SMALL)
                if res.is_determined:
                    assert dom.BBOT.le(res.value, reactivity.membership(t)), t.render()


class TestAnyExistential:
    def test_never_determined_buchi_gives_constant_false(self, inf_often_a, ab):
        v = bp.monitor_any_existential(inf_often_a)
        assert verdict_sequence(v, FiniteTrace(("a", "b", "a"), ab)) == [False] * 4

    def test_agrees_with_cosafety_monitor(self, eventually_a, ab):
        v1 = bp.monitor_any_existential(eventually_a)
        v2 = bp.monitor_cosafety(eventually_a)
        for s in all_finite_traces(ab, 4):
            assert v1(s) == v2(s)

    def test_never_overshoots(self, never_b, eventually_a, inf_often_a, ab):
        for P in (never_b, eventually_a, inf_often_a):
            v = bp.monitor_any_existential(P)
            for t in all_lassos(ab, 2, 2):
                res = eval_limsup(v, t, SMALL)
                assert dom.BT.le(res.value, bp.membership(P, t))


class TestClassifyModality:
    def test_mrt_universal(self, server):
        suite = list(all_lassos(server, 1, 2))
        report = bp.classify_modality(qp.mrt_verdict(), qp.mrt_property(),
                                      Side.BELOW, suite, budget=SMALL)
        assert report.universal_ok and report.approximate_ok

    def test_mrt_existentially_monitors_art_from_above(self, server):
        suite = list(all_lassos(server, 1, 2))
        suite.append(parse_lasso("req ack req other ack ; other", server))
        report = bp.classify_modality(qp.mrt_verdict(), qp.art_property(),
                                      Side.ABOVE, suite, budget=SMALL,
                                      existential_prefix_len=1)
        assert report.approximate_ok
        assert report.existential_ok
        assert not report.universal_ok  # witness: max 2 vs average 3/2

    def test_constant_zero_approximates_but_not_universally(self, server):
        from quantmon.verdict import constant_verdict
        suite = list(all_lassos(server, 1, 2))
        report = bp.classify_modality(constant_verdict(dom.NATINF, 0),
                                      qp.mrt_property(), Side.BELOW, suite,
                                      budget=SMALL)
        assert report.approximate_ok and not report.universal_ok


    def test_failed_checks_and_unresolved_limits_are_reported(self, eventually_a, ab):
        suite = list(all_lassos(ab, 1, 1))
        always_true = lambda t: True
        over = bp.classify_modality(constant_verdict(dom.BT, True),
                                    bp.characteristic_property(eventually_a),
                                    Side.BELOW, suite, budget=SMALL)
        assert over.summary() == "side=below approximate=FAIL universal=FAIL"
        assert [w[0].render() for w in over.approximate_witnesses] == ["; b", "b ; b"]
        under = bp.classify_modality(constant_verdict(dom.BT, False), always_true,
                                     Side.BELOW, suite, budget=SMALL,
                                     existential_prefix_len=1)
        assert under.summary() == \
            "side=below approximate=pass universal=FAIL existential=FAIL"
        assert [s.render() for s in under.existential_witnesses] == ["", "a", "b"]
        # T and F by turns, which have no bound in B
        switching = VerdictFunction(dom.B, lambda: FunctionStepper(
            True, lambda b, sym: not b, lambda b: b))
        unresolved = bp.classify_modality(switching, always_true, Side.BELOW, suite,
                                          budget=SMALL)
        assert len(unresolved.unresolved) == len(suite) == 6
        assert unresolved.summary() == \
            "side=below approximate=FAIL universal=FAIL unresolved=6"


def state_verdict(P, codomain, out, name):
    """The verdict ``out(q)`` of P's automaton state ``q`` after each prefix;
    the state is the run configuration."""
    return VerdictFunction(codomain, lambda: FunctionStepper(P.initial, P.step, out), name)


class TestEquivalenceConstructions:
    def test_bottom_smoothing_preserves_limsup(self, ab):
        # a monitor for "first symbol is a" on the bottomed domain: verdicts
        # are bottom only at the empty prefix
        P = bp.first_symbol_is(ab, "a")
        pos, neg = P.pos_states, P.neg_states

        def three_valued(q):
            if q in pos:
                return True
            if q in neg:
                return False
            return dom.BOT

        v = state_verdict(P, dom.BBOT, three_valued, name="complete")
        flat = bp.smooth_bot(v)
        assert flat.codomain == dom.B
        for t in all_lassos(ab, 2, 2):
            got = eval_limsup(flat, t, SMALL)
            assert got.is_determined
            assert got.value == bp.membership(P, t)

    def test_flat_construction_from_positive_monitor(self, never_b, eventually_a,
                                                     inf_often_a, ab):
        # from a monotone existential monitor on the T-topped domain, the
        # negative-determination verdict on the F-topped domain is monotone,
        # never overshoots, and stays existential
        for P in (never_b, eventually_a, inf_often_a):
            u = state_verdict(P, dom.BF, lambda q, P=P: q not in P.neg_states,
                              name="neg-det")
            assert check_monotone(u, list(all_lassos(ab, 1, 2)), 5) is \
                Monotonicity.INCREASING
            for t in all_lassos(ab, 2, 2):
                res = eval_limsup(u, t, SMALL)
                assert dom.BF.le(res.value, bp.membership(P, t))
            for s in all_finite_traces(ab, 2):
                assert any(eval_limsup(u, g.prepend(s.symbols), SMALL).value ==
                           bp.membership(P, g.prepend(s.symbols))
                           for g in all_lassos(ab, 2, 2)), (P, s.symbols)

    def test_smoothing_needs_a_bottomed_operand(self):
        # smoothing reads bottom as "no answer yet"; on any other codomain
        # it would pass values that B does not hold
        for v in (qp.mrt_verdict(), constant_verdict(dom.B, True),
                  constant_verdict(dom.BT, False),
                  complement(constant_verdict(dom.BBOT, dom.BOT))):
            with pytest.raises(UnsupportedDomainError, match="Bbot"):
                bp.smooth_bot(v)


class TestFlatDomainLimitations:
    def test_monotone_flat_verdicts_monitor_only_trivial_properties(self, ab):
        # a monotone verdict on the flat domain can never switch, so its
        # limit is its first value: it decides membership only for the
        # empty and the full property
        for const in (True, False):
            from quantmon.verdict import constant_verdict
            v = constant_verdict(dom.B, const)
            for t in all_lassos(ab, 1, 2):
                assert eval_limsup(v, t, SMALL).value is const
