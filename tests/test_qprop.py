import itertools
import random
from fractions import Fraction

import pytest

from quantmon import boolprop as bp
from quantmon import domain as dom
from quantmon import qprop as qp
from quantmon.errors import AcceptanceKindError, AutomatonError, DomainMismatchError, InputError
from quantmon.trace import (Alphabet, FiniteTrace, all_finite_traces, all_lassos, lasso,
                            parse_lasso)
from quantmon.verdict import eval_limsup, verdict_sequence
from test_verdict import DEMO_DIR

FIG_TRACE = "req ack req other ack req ack other"


def simulate_mrt_limit(t, unrollings=10):
    """Brute-force oracle: watch the finite-trace values over many loop
    unrollings; report divergence when they keep climbing."""
    values = [qp.mrt(t.prefix(i))
              for i in range(len(t.stem) + unrollings * len(t.loop) + 1)]
    tail = values[-2 * len(t.loop):]
    if dom.INF in values:
        return dom.INF
    if len(set(tail)) == 1:
        return tail[0]
    return dom.INF  # still climbing after ten unrollings


def simulate_art_limit(t, periods=100):
    values = [qp.art(t.prefix(i))
              for i in range(len(t.stem) + periods * len(t.loop) + 1)]
    return min(values[-3 * len(t.loop):])


def brute_force_functionals(p, s, bound):
    """The sup and the inf of the property over every lasso continuation of
    ``s`` with stem and loop of at most ``bound`` symbols: the reference for
    the closed-form functionals nu and mu."""
    values = [p.eval_lasso(g.prepend(s)) for g in all_lassos(s.alphabet, bound, bound)]
    return p.codomain.sup(values), p.codomain.inf(values)


class TestMrt:
    def test_figure_prefix_values(self, server):
        s = FiniteTrace(tuple(FIG_TRACE.split()), server)
        assert verdict_sequence(qp.mrt_verdict(), s) == [0, 0, 1, 1, 1, 2, 2, 2, 2]

    def test_double_request_is_infinite(self, server):
        assert qp.eval_mrt(parse_lasso("req req ; other", server)) == dom.INF

    def test_eternally_pending_request_diverges(self, server):
        t = parse_lasso("req ; other", server)
        assert qp.eval_mrt(t) == dom.INF
        assert simulate_mrt_limit(t) == dom.INF

    def test_lasso_value_matches_simulation(self, server):
        for text in ("req ack req other ack ; other", "; req ack",
                     "req other ack ; req ack", "; other", "req ack ; ack"):
            t = parse_lasso(text, server)
            assert qp.eval_mrt(t) == simulate_mrt_limit(t), text

    def test_agrees_with_limsup_of_verdict(self, server):
        for t in itertools.islice(all_lassos(server, 2, 2), 0, None, 3):
            res = eval_limsup(qp.mrt_verdict(), t)
            assert res.is_determined
            assert res.value == qp.eval_mrt(t)


class TestArt:
    def test_figure_prefix_values(self, server):
        s = FiniteTrace(tuple(FIG_TRACE.split()), server)
        expected = [0, 0, 1, Fraction(1, 2), 1, Fraction(3, 2), 1,
                    Fraction(4, 3), Fraction(4, 3)]
        assert verdict_sequence(qp.art_verdict(), s) == expected

    def test_an_unchanged_state_keeps_its_value_object(self):
        stepper = qp.art_verdict().stepper()
        for sym in "req ack req other ack".split():
            stepper.step(sym)
        first, second = stepper.step("other"), stepper.step("other")
        assert first == Fraction(3, 2) and first is second

    def test_periodic_pair_average(self, server):
        t = parse_lasso("; req ack", server)
        assert qp.eval_art(t) == 1
        assert abs(simulate_art_limit(t) - 1) < Fraction(1, 50)

    def test_quiet_loop_keeps_prefix_average(self, server):
        t = parse_lasso("req ack ; other", server)
        assert qp.eval_art(t) == 1 == simulate_art_limit(t)

    def test_double_request_absorbs(self, server):
        assert qp.eval_art(parse_lasso("req req ; req ack", server)) == dom.INF

    def test_pending_forever(self, server):
        assert qp.eval_art(parse_lasso("req ; other", server)) == dom.INF

    def test_longer_period(self, server):
        t = parse_lasso("other ; req other other ack other", server)
        assert qp.eval_art(t) == 3
        assert abs(simulate_art_limit(t) - 3) < Fraction(1, 25)

    def test_maximal_dominates_average(self, server):
        for t in itertools.islice(all_lassos(server, 2, 2), 0, None, 5):
            assert dom.RATINF.le(qp.eval_art(t), qp.eval_mrt(t))


class TestDiscounted:
    def test_safety_values(self, never_b, ab):
        cases = [("a a ; a", Fraction(1)), ("a b ; a", Fraction(3, 4)),
                 ("; b", Fraction(1, 2))]
        for text, want in cases:
            assert qp.eval_discounted_safety(never_b, parse_lasso(text, ab)) == want

    def test_safety_formula_oracle(self, never_b, ab):
        # value must equal 1 - 2^-n for the first prefix entering a
        # rejecting trap, found by scanning prefixes directly
        for t in itertools.islice(all_lassos(ab, 2, 2), 0, None, 2):
            n = None
            for i in range(1, 12):
                if bp.determines(never_b, t.prefix(i), "neg"):
                    n = i
                    break
            want = Fraction(1) if n is None else 1 - Fraction(1, 2 ** n)
            assert qp.eval_discounted_safety(never_b, t) == want

    def test_cosafety_values(self, eventually_a, ab):
        cases = [("; b", Fraction(0)), ("a ; b", Fraction(1, 2)),
                 ("b b a ; b", Fraction(1, 8))]
        for text, want in cases:
            assert qp.eval_discounted_cosafety(eventually_a, parse_lasso(text, ab)) == want

    def test_kind_checks(self, never_b, eventually_a, ab):
        t = parse_lasso("; a", ab)
        with pytest.raises(AcceptanceKindError):
            qp.eval_discounted_safety(eventually_a, t)
        with pytest.raises(AcceptanceKindError):
            qp.eval_discounted_cosafety(never_b, t)

    def test_closed_forms_match_the_bounded_search(self, never_b, eventually_a, ab):
        """nu_at/mu_at against the sup/inf over every lasso continuation with
        stem and loop up to 3, which reaches every hit of these automata."""
        rng = random.Random(5)
        safeties = [never_b] + [bp.random_safety_automaton(rng, ab) for _ in range(15)]
        cosafeties = [eventually_a] + [bp.random_cosafety_automaton(rng, ab)
                                       for _ in range(15)]
        properties = [qp.discounted_safety_property(P) for P in safeties] + \
            [qp.discounted_cosafety_property(P) for P in cosafeties]
        checked = 0
        for p in properties:
            for s in all_finite_traces(ab, 3):
                assert (qp.nu(p, s), qp.mu(p, s)) == brute_force_functionals(p, s, 3), \
                    (p.name, s.symbols)
                checked += 1
        assert checked == 480

    def test_values_live_in_unit_interval(self, never_b, ab):
        for t in all_lassos(ab, 2, 2):
            v = qp.eval_discounted_safety(never_b, t)
            assert 0 <= v <= 1
            assert (v == 1) == bp.membership(never_b, t)


class TestEnergy:
    def brute_force_energy(self, A, t, prefixes=200):
        """The least credit that keeps the level of each of the first
        ``prefixes`` prefixes nonnegative, read off one walk of the longest."""
        q, level, worst = A.initial, 0, 0
        for sym in t.prefix(prefixes).symbols:
            q, w = A.step(q, sym)
            level += w
            worst = min(worst, level)
        return -worst

    def check_against_brute_force(self, A, t):
        """Assert that eval_energy agrees with the brute-force minimum, or
        that the deficit still grows when it says ``inf``; return its value."""
        got = qp.eval_energy(A, t)
        brute = self.brute_force_energy(A, t)
        if got == dom.INF:
            assert self.brute_force_energy(A, t, 400) > brute
        else:
            assert got == brute
        return got

    def test_zero_weights(self):
        a = Alphabet(("a",))
        A = qp.WeightedAutomaton(a, ("q",), "q", {("q", "a"): ("q", 0)})
        assert qp.eval_energy(A, lasso((), ("a",), a)) == 0

    def test_negative_loop(self):
        a = Alphabet(("a",))
        A = qp.WeightedAutomaton(a, ("q",), "q", {("q", "a"): ("q", -1)})
        assert qp.eval_energy(A, lasso((), ("a",), a)) == dom.INF

    def test_drain_then_recover(self):
        # the shipped automaton: a drains 3, b recovers 1
        A = qp.load_weighted_automaton((DEMO_DIR / "automata/energy.waut").read_text())
        assert qp.eval_energy(A, parse_lasso("a ; b", A.alphabet)) == 3
        values = [self.check_against_brute_force(A, t) for t in all_lassos(A.alphabet, 2, 3)]
        assert (len(values), values.count(dom.INF)) == (98, 77)

    def test_shipped_weights(self):
        A = qp.load_weighted_automaton((DEMO_DIR / "automata/energy.waut").read_text())
        assert (A.alphabet.symbols, A.states, A.initial) == (("a", "b"), ("q",), "q")
        assert A.transitions == {("q", "a"): ("q", -3), ("q", "b"): ("q", 1)}

    def test_long_surplus_then_drain(self):
        # 5000 units of credit hide the drain from any window shorter than the stem
        A = qp.load_weighted_automaton((DEMO_DIR / "automata/energy.waut").read_text())
        t = parse_lasso("b " * 5000 + "; a", A.alphabet)
        assert self.brute_force_energy(A, t, 5000 + 1666) == 0
        assert self.brute_force_energy(A, t, 5000 + 1667) == 1
        assert self.brute_force_energy(A, t, 5000 + 4000) == 7000
        assert qp.eval_energy(A, t) == dom.INF

    def test_random_instances_match_brute_force(self, ab):
        rng = random.Random(7)
        for _ in range(40):
            n = rng.randint(1, 4)
            states = tuple(f"q{i}" for i in range(n))
            transitions = {(q, a): (rng.choice(states), rng.randint(-3, 3))
                           for q in states for a in ab}
            A = qp.WeightedAutomaton(ab, states, "q0", transitions)
            t = lasso(tuple(rng.choice(ab.symbols) for _ in range(rng.randint(0, 3))),
                      tuple(rng.choice(ab.symbols) for _ in range(rng.randint(1, 3))),
                      ab)
            self.check_against_brute_force(A, t)

    def test_load_rejects_empty_initial(self):
        with pytest.raises(AutomatonError, match="initial"):
            qp.load_weighted_automaton("alphabet: a b\nstates: q\ninitial:\n"
                                       "q a -> q -3\nq b -> q 1\n")

    @pytest.mark.parametrize("tail, match", [("q b -> q 1\nq a -> q 5", "duplicate"),
                                             ("q b -> q 1\nq c -> q 7", "unexpected"),
                                             ("q b -> q x", "expected")])
    def test_load_rejects_duplicate_foreign_and_malformed_lines(self, tail, match):
        head = "alphabet: a b\nstates: q\ninitial: q\nq a -> q -3\n"
        A = qp.load_weighted_automaton(head + "q b -> q 1\n")
        assert (A.step("q", "a"), A.step("q", "b")) == (("q", -3), ("q", 1))
        with pytest.raises(AutomatonError, match=match):
            qp.load_weighted_automaton(head + tail + "\n")


class TestKPair:
    def test_componentwise(self):
        sa2 = qp.server_alphabet(2).alphabet
        t = parse_lasso("req1 ack1 req2 other ack2 ; other", sa2)
        assert qp.eval_kpair_mrt(t, 2) == (1, 2)

    def test_no_requests(self):
        sa2 = qp.server_alphabet(2).alphabet
        assert qp.eval_kpair_mrt(parse_lasso("; other", sa2), 2) == (0, 0)

    def test_double_request_component(self):
        sa3 = qp.server_alphabet(3).alphabet
        t = parse_lasso("req2 req2 ; other", sa3)
        assert qp.eval_kpair_mrt(t, 3) == (0, dom.INF, 0)

    def test_alphabet_mismatch(self, server):
        with pytest.raises(DomainMismatchError):
            qp.eval_kpair_mrt(parse_lasso("; req ack", server), 2)

    def test_projection_matches_scalar(self):
        sa1, sa2 = qp.server_alphabet(1).alphabet, qp.server_alphabet(2).alphabet
        rng = random.Random(3)
        for _ in range(30):
            t = lasso(tuple(rng.choice(sa2.symbols) for _ in range(rng.randint(0, 4))),
                      tuple(rng.choice(sa2.symbols) for _ in range(rng.randint(1, 3))),
                      sa2)
            v1, v2 = qp.eval_kpair_mrt(t, 2)
            # pair i alone: its own request and ack, every other event idle
            for i, value in ((1, v1), (2, v2)):
                rename = {f"req{i}": "req", f"ack{i}": "ack"}
                pair = lasso([rename.get(s, "other") for s in t.stem],
                             [rename.get(s, "other") for s in t.loop], sa1)
                assert value == qp.eval_mrt(pair), (t.render(), i)


class TestContinuationFunctionals:
    def test_mu_equals_value_without_pending(self, server):
        p = qp.mrt_property()
        for text in ("req ack", "", "req ack other other"):
            s = FiniteTrace(tuple(text.split()), server)
            assert qp.mu(p, s) == qp.mrt(s)

    def test_nu_is_always_infinite(self, server):
        p = qp.mrt_property()
        for text in ("", "req", "req req"):
            assert qp.nu(p, FiniteTrace(tuple(text.split()), server)) == dom.INF

    def test_bounded_search_agrees_with_analytic(self, server):
        p = qp.mrt_property()
        for text in ("", "req", "req ack", "req other"):
            s = FiniteTrace(tuple(text.split()), server)
            assert (qp.nu(p, s), qp.mu(p, s)) == brute_force_functionals(p, s, 2)

    def test_art_mu_values(self, server):
        p = qp.art_property()
        assert p.mu_at(FiniteTrace((), server)) == 0
        assert p.mu_at(FiniteTrace(("req",), server)) == 1
        assert p.mu_at(FiniteTrace(("req", "req"), server)) == dom.INF
        # the brute force over continuations reproduces the closed form
        for text in ("", "req", "req ack other"):
            s = FiniteTrace(tuple(text.split()), server)
            assert qp.mu(p, s) == brute_force_functionals(p, s, 2)[1]

    @pytest.mark.parametrize("build, functional, side", [
        (lambda: qp.kpair_property(2), qp.mu, "worst"),
        (lambda: qp.energy_property(qp.load_weighted_automaton(
            (DEMO_DIR / "automata/energy.waut").read_text())), qp.nu, "best"),
    ], ids=["kmrt:2", "energy"])
    def test_missing_functional_is_an_input_error(self, build, functional, side):
        p = build()
        with pytest.raises(InputError, match=f"{p.name} has no {side}-continuation"):
            functional(p, FiniteTrace((), p.alphabet))
        with pytest.raises(InputError, match=f"{p.name} has no"):
            qp.check_continuity(p, qp.continuity_suite(p.alphabet))


@pytest.fixture(scope="module")
def server_suite(server):
    return qp.continuity_suite(server,
                               extras=[parse_lasso("; req other ack", server)])


class TestContinuity:
    def test_mrt_co_continuous_but_not_continuous(self, server, server_suite):
        rep = qp.check_continuity(qp.mrt_property(), server_suite)
        assert rep.cocontinuous_consistent
        assert not rep.continuous_consistent
        trace, estimate, value = rep.continuity_witness
        assert estimate == dom.INF and value != dom.INF

    def test_art_refuted_on_both_sides(self, server, server_suite):
        rep = qp.check_continuity(qp.art_property(), server_suite)
        assert not rep.continuous_consistent
        assert not rep.cocontinuous_consistent

    def test_discounted_directions(self, never_b, eventually_a, ab):
        suite = qp.continuity_suite(ab)
        rep = qp.check_continuity(qp.discounted_safety_property(never_b), suite)
        assert rep.continuous_consistent
        rep = qp.check_continuity(qp.discounted_cosafety_property(eventually_a), suite)
        assert rep.cocontinuous_consistent

    def test_rejects_a_lasso_over_another_alphabet(self, server, never_b, ab):
        with pytest.raises(DomainMismatchError, match="'; a' is not over .* mrt"):
            qp.check_continuity(qp.mrt_property(), qp.continuity_suite(ab))
        with pytest.raises(DomainMismatchError, match="'; req' is not over .* disc-safe"):
            qp.check_continuity(qp.discounted_safety_property(never_b),
                                qp.continuity_suite(server))


# art's worst-continuation side on lassos where the prefix-4-to-6 stall rule
# misjudges: whether the rule reports a co-continuity witness, mu on
# prefixes 0-6, and the limit that mu has reached from prefix 7 on
KNOWN_WRONG_CONTINUITY = {
    "ack ; other other req": (True, "0 0 0 0 1 1 1", dom.INF),
    "ack ack ; other ack req": (False, "0 0 0 0 0 1 1", 1),
}


@pytest.mark.parametrize("text", sorted(KNOWN_WRONG_CONTINUITY))
def test_known_wrong_continuity_is_pinned(server, text):
    reported, early, limit = KNOWN_WRONG_CONTINUITY[text]
    p, t = qp.art_property(), parse_lasso(text, server)
    rep = qp.check_continuity(p, [t])
    assert (rep.cocontinuity_witness is not None) is reported
    assert " ".join(dom.render_value(qp.mu(p, t.prefix(i))) for i in range(7)) == early
    # mu reads only the mode of art's state, which repeats with the loop
    assert {qp.mu(p, t.prefix(i)) for i in range(7, 40)} == {limit}
    # a true witness has mu's limit below the property value
    assert dom.RATINF.lt(limit, qp.eval_art(t)) is not reported
