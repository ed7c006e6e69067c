import hashlib
import pathlib
import re
from fractions import Fraction
from functools import lru_cache, partial

import pytest
from hypothesis import example, given, settings, strategies as st

from quantmon import boolprop as bp
from quantmon import domain as dom
from quantmon import machine as mc
from quantmon import precision as pr
from quantmon import qprop as qp
from quantmon import verdict as vd
from quantmon.errors import (DomainMismatchError, InputError, InvalidFunctionError,
                             NoBoundError, UnsupportedDomainError)
from quantmon.trace import Alphabet, FiniteTrace, lasso, parse_lasso
from quantmon.verdict import (FunctionStepper, LimitBudget, LimitKind, LimitResult,
                              Monotonicity, VerdictFunction, check_monotone, combine_max,
                              combine_min, combine_product, combine_sum, complement,
                              constant_verdict, count_switches, eval_liminf,
                              eval_limsup, map_continuous, verdict_csv_lines,
                              verdict_sequence)
from test_machine import BUILT_MACHINES

A = Alphabet(("a",))
AB = Alphabet(("a", "b"))


def function_verdict(codomain, init, step_fn, out_fn=lambda state: state, name="v"):
    factory = lambda: FunctionStepper(init, step_fn, out_fn)
    return VerdictFunction(codomain, factory, name)


def length_function(codomain, fn, name="v"):
    # fn of the prefix length; its configuration, the step count, never
    # repeats, so no cycle settles its limits
    return function_verdict(codomain, 0, lambda k, sym: k + 1, fn, name)


def length_verdict(codomain=dom.NATINF):
    return length_function(codomain, lambda n: n, name="len")


class _Unconfigured:
    """A run of another verdict that hides its configuration."""

    def __init__(self, run):
        self._run = run
        self.value = run.value

    def step(self, symbol):
        self.value = self._run.step(symbol)
        return self.value

    def config(self):
        return None


def unconfigured(v):
    return VerdictFunction(v.codomain, lambda: _Unconfigured(v.stepper()), v.name)


def alternating_verdict():
    # T on even prefix lengths, F on odd ones
    factory = lambda: FunctionStepper(True, lambda st, sym: not st, lambda st: st)
    return VerdictFunction(dom.BT, stepper_factory=factory, name="alt")


def _counter_mod(n):
    # only the window rule could settle it, but its per-iteration extrema
    # are periodic
    return length_function(dom.NATINF, lambda k: k % n, name=f"mod{n}")


class TestLimits:
    def test_constant_is_exact(self):
        v = constant_verdict(dom.NATINF, 0)
        res = eval_limsup(v, lasso(("a",), ("a",), A))
        assert res.kind is LimitKind.EXACT and res.value == 0

    def test_step_counter_diverges(self):
        res = eval_limsup(length_verdict(), lasso((), ("a",), A))
        assert res.kind is LimitKind.DIVERGED_TO_TOP and res.value == dom.INF
        res = eval_liminf(length_verdict(), lasso((), ("a",), A))
        assert res.kind is LimitKind.DIVERGED_TO_TOP and res.value == dom.INF

    def test_alternating_liminf_and_limsup(self):
        t = lasso((), ("a",), A)
        assert eval_liminf(alternating_verdict(), t).value is False
        assert eval_limsup(alternating_verdict(), t).value is True

    @pytest.mark.parametrize("v", [
        length_function(dom.BT, lambda n: n % 2 == 0, name="alt2"),
        _counter_mod(5), _counter_mod(6)], ids=lambda v: v.name)
    def test_periodic_extrema_without_configs_are_undetermined(self, v):
        # no configuration repeats, and the per-iteration extrema
        # repeat: never equal over the final window, and a ramp (mod n
        # climbs 0 1 .. n-1) wraps inside the window at any budget
        t = lasso((), ("a",), A)
        for evaluate in (eval_limsup, eval_liminf):
            for iters in (1024, 1025, 1026):
                assert evaluate(v, t, LimitBudget(iters)) == \
                    LimitResult(None, LimitKind.UNDETERMINED, iters)

    def test_long_ramp_is_misread_as_divergence(self):
        # a pinned wrong answer: mod 19 climbs by one step over all 18
        # iterations of the final window, so the escape rule reads it as
        # divergence, though its limsup is 18 and its liminf 0; mod 18
        # wraps inside the window and stays undetermined
        t = lasso((), ("a",), A)
        for evaluate in (eval_limsup, eval_liminf):
            assert evaluate(_counter_mod(19), t).render() == "diverged-to-top,inf"
            assert evaluate(_counter_mod(18), t).kind is LimitKind.UNDETERMINED

    def test_flat_boolean_switching_is_undetermined(self):
        # infinitely switching values on the flat domain have no limit
        v = length_function(dom.B, lambda n: n % 2 == 0, name="altB")
        res = eval_limsup(v, lasso((), ("a",), A))
        assert res.kind is LimitKind.UNDETERMINED and res.value is None

    def test_eventually_constant_after_long_transient(self):
        v = length_function(dom.NATINF, lambda n: min(n, 17), name="sat")
        res = eval_limsup(v, lasso((), ("a",), A))
        assert res.kind is LimitKind.EXACT and res.value == 17

    def test_nonlinear_growth_is_undetermined(self):
        v = length_function(dom.NATINF, lambda n: n ** 2, name="sq")
        res = eval_limsup(v, lasso((), ("a",), A), LimitBudget(max_loop_iterations=64))
        assert res.kind is LimitKind.UNDETERMINED

    def test_product_divergence_extrapolates_componentwise(self):
        d = dom.product(dom.NATINF, 2)
        v = length_function(d, lambda n: (n, 3), name="pair")
        res = eval_limsup(v, lasso((), ("a",), A))
        assert res.kind is LimitKind.DIVERGED_TO_TOP
        assert res.value == (dom.INF, 3)

    def test_product_escape_passes_settled_infinite_components(self):
        # pair 2 sits at inf after its double request while pair 1's counter
        # climbs by a constant step per iteration
        m = mc.build_kpair_monitor(2)
        t = parse_lasso("other other req1 req2 ; req2 ack2 req2", m.alphabet)
        assert qp.eval_kpair_mrt(t, 2) == (dom.INF, dom.INF)
        for evaluate in (eval_limsup, eval_liminf):
            res = evaluate(mc.generated_verdict(m), t)
            assert (res.value, res.kind) == ((dom.INF, dom.INF), LimitKind.DIVERGED_TO_TOP)
        v = length_function(dom.product(dom.NATINF, 2), lambda n: (dom.INF, n))
        res = eval_limsup(v, lasso((), ("a",), A))
        assert (res.value, res.kind) == ((dom.INF, dom.INF), LimitKind.DIVERGED_TO_TOP)

    def test_escape_reads_the_inner_order_of_a_product(self):
        # a component climbing to inf in prod:inv:natinf escapes to the
        # bottom of its inverse order, as a scalar in inv:natinf does
        t = lasso((), ("a",), A)
        scalar = length_verdict(dom.inverse(dom.NATINF))
        res = eval_limsup(scalar, t)
        assert (res.value, res.kind) == (dom.INF, LimitKind.DIVERGED_TO_BOTTOM)
        pair = length_function(dom.product(dom.inverse(dom.NATINF), 2), lambda n: (n, 3))
        res = eval_limsup(pair, t)
        assert (res.value, res.kind) == ((dom.INF, 3), LimitKind.DIVERGED_TO_BOTTOM)

    def test_cycle_without_bound_in_flat_b_is_undetermined(self):
        # the configuration recurs after two iterations, but T and F have
        # no sup in B, so the cycle proves nothing
        factory = lambda: FunctionStepper(True, lambda st, sym: not st, lambda st: st)
        v = VerdictFunction(dom.B, stepper_factory=factory)
        res = eval_limsup(v, lasso((), ("a",), A))
        assert (res.kind, res.value, res.iterations_used) == (LimitKind.UNDETERMINED, None, 2)

    def test_escape_out_of_the_domain_is_undetermined(self):
        # the countdown falls by 1 per iteration towards -inf, which natinf
        # lacks; intinf holds it
        factory = lambda: FunctionStepper(5000, lambda st, sym: st - 1, lambda st: st)
        t = lasso((), ("a",), A)
        res = eval_limsup(VerdictFunction(dom.NATINF, factory), t)
        assert (res.kind, res.value, res.iterations_used) == \
            (LimitKind.UNDETERMINED, None, 1024)
        res = eval_limsup(VerdictFunction(dom.INTINF, factory), t)
        assert (res.kind, res.value) == (LimitKind.DIVERGED_TO_BOTTOM, dom.NEG_INF)

    def test_accelerated_limit_outside_the_codomain_keeps_stepping(self):
        # acceleration finds the output heading for -inf, outside natinf,
        # so the run steps on until the output leaves natinf at -1
        m = mc.load_machine("registers: x\ninstruction-set: counter+-\nstates: q\n"
                            "initial: q\nedge: q a [true] / x:=x+1 -> q\n"
                            "edge: q b [true] / x:=x-1 -> q\noutput: q = x\n")
        assert m.output_domain == dom.NATINF
        with pytest.raises(DomainMismatchError, match="'-1'"):
            eval_limsup(mc.generated_verdict(m), parse_lasso("a a a a a ; b", m.alphabet))

    def test_budget_preconditions(self):
        with pytest.raises(ValueError):
            LimitBudget(max_loop_iterations=2)
        assert LimitBudget(3).max_loop_iterations == 3
        # only an int is a number of iterations; a bool is not one
        for bad in (3.5, "9", True):
            with pytest.raises(InputError, match=re.escape(repr(bad))):
                LimitBudget(bad)

    def test_mrt_verdict_on_figure_lasso(self, server):
        t = parse_lasso("req ack req other ack ; other", server)
        res = eval_limsup(qp.mrt_verdict(), t)
        assert res.kind is LimitKind.EXACT and res.value == 2

    def test_art_verdict_on_figure_lasso(self, server):
        t = parse_lasso("req ack req other ack req ack other ; other", server)
        res = eval_liminf(qp.art_verdict(), t)
        assert res.kind is LimitKind.EXACT and res.value == Fraction(4, 3)

    def test_constant_bottom_on_bottomed_domain(self):
        v = constant_verdict(dom.BBOT, dom.BOT)
        res = eval_liminf(v, lasso((), ("a",), A))
        assert res.kind is LimitKind.EXACT and res.value is dom.BOT


class TestMonotonicity:
    def test_mrt_is_increasing(self, server):
        suite = [parse_lasso("req ack req other ack ; other", server),
                 parse_lasso("; req ack", server), parse_lasso("req req ; other", server)]
        assert check_monotone(qp.mrt_verdict(), suite, depth=10) is Monotonicity.INCREASING

    def test_art_is_neither(self, server):
        suite = [parse_lasso("req ack req other ack req ack other ; other", server)]
        assert check_monotone(qp.art_verdict(), suite, depth=8) is Monotonicity.UNRESTRICTED

    def test_constant_ties_toward_increasing(self):
        v = constant_verdict(dom.NATINF, 5)
        assert check_monotone(v, [lasso((), ("a",), A)], depth=4) is Monotonicity.INCREASING

    def test_incomparable_steps_are_unrestricted(self):
        # every step switches between T and F, which B leaves incomparable
        v = length_function(dom.B, lambda n: n % 2 == 0)
        assert check_monotone(v, [lasso((), ("a",), A)], depth=4) is Monotonicity.UNRESTRICTED

    def test_decreasing(self):
        v = length_function(dom.NATINF, lambda n: max(0, 10 - n))
        assert check_monotone(v, [lasso((), ("a",), A)], depth=6) is Monotonicity.DECREASING


DEMO_DIR = pathlib.Path(__file__).resolve().parents[1] / "demos"


def _machine_verdict(build):
    machine = build()
    return mc.generated_verdict(machine), machine.alphabet


def _canonical_monitor(path):
    P = bp.load_automaton(path.read_text())
    return bp.canonical_monitor(P), P.alphabet


# every bundled verdict by name, as a thunk for (verdict, alphabet)
BUNDLED_VERDICTS = {
    **{name: partial(_machine_verdict, build) for name, build in BUILT_MACHINES.items()},
    "mrt": lambda: (qp.mrt_verdict(), qp.server_alphabet(1).alphabet),
    "art": lambda: (qp.art_verdict(), qp.server_alphabet(1).alphabet),
    **{path.name: partial(_canonical_monitor, path)
       for path in sorted((DEMO_DIR / "automata").glob("*.aut"))},
}


_INC, _DEC, _UNR = (Monotonicity.INCREASING, Monotonicity.DECREASING,
                    Monotonicity.UNRESTRICTED)

# the monotonicity that check_monotone measures for every bundled verdict on
# exhaustive_suite(alphabet, 2, 2) at depth 8; a verdict carries no label of
# its own, so this table is the one statement of it
BUNDLED_MONOTONICITY = {
    "Madd": _INC, "Mavg": _UNR, "Mavg2": _UNR, "Mbin3": _DEC, "Mcount": _INC,
    "Mfin1": _INC, "Mfin2": _INC, "Mfin3": _INC, "Mfin4": _INC, "Mkgrp3": _INC,
    "Mkpair2": _INC, "Mkpair3": _INC, "Mkprio3": _INC, "Mkseq3": _INC,
    "Mkseq4": _INC, "Mmax": _INC, "Mpk4": _DEC, "Mpk4l2": _DEC, "Mpk4l3": _DEC,
    "art": _UNR, "ev_always_a.aut": _UNR, "eventually_a.aut": _INC,
    "inf_often_a.aut": _UNR, "mavg.mspec": _UNR, "mmax.mspec": _INC,
    "mrt": _INC, "never_b.aut": _INC,
}


def test_every_bundled_verdict_has_a_pinned_monotonicity():
    assert set(BUNDLED_MONOTONICITY) == set(BUNDLED_VERDICTS)


@pytest.mark.parametrize("name", sorted(BUNDLED_VERDICTS))
def test_declared_monotonicity_holds(name):
    # the monotonicity declared for this verdict in BUNDLED_MONOTONICITY
    verdict, alphabet = BUNDLED_VERDICTS[name]()
    suite = pr.exhaustive_suite(alphabet, 2, 2)
    assert check_monotone(verdict, suite, depth=8) is BUNDLED_MONOTONICITY[name]


class TestCombinators:
    def test_max_of_component_counters_matches_joint_maximum(self, server):
        t = FiniteTrace(tuple("req ack req other other ack".split()), server)
        v = combine_max(qp.mrt_verdict(), constant_verdict(dom.NATINF, 1))
        assert v(t) == max(qp.mrt(t), 1)

    def test_max_with_itself_is_identity(self, server):
        v = qp.mrt_verdict()
        m = combine_max(v, v)
        s = FiniteTrace(("req", "other", "ack"), server)
        assert m(s) == v(s)

    def test_min_with_bottom_constant(self, server):
        v = combine_min(constant_verdict(dom.NATINF, 0), qp.mrt_verdict())
        assert v(FiniteTrace(("req", "ack"), server)) == 0

    def test_max_requires_lattice(self):
        va = constant_verdict(dom.B, True)
        vb = constant_verdict(dom.B, False)
        with pytest.raises(UnsupportedDomainError):
            combine_max(va, vb)

    def test_monotonicity_propagation(self, server):
        # the join of two increasing verdicts is increasing; the join with a
        # verdict that moves both ways need not be
        suite = pr.exhaustive_suite(server, 2, 2)
        increasing = combine_max(qp.mrt_verdict(), constant_verdict(dom.NATINF, 1))
        assert check_monotone(increasing, suite, depth=8) is Monotonicity.INCREASING
        art = qp.art_verdict()
        mixed = combine_max(art, constant_verdict(dom.RATINF, 0))
        assert check_monotone(mixed, suite, depth=8) is Monotonicity.UNRESTRICTED

    def test_sum_and_product(self):
        one = constant_verdict(dom.NATINF, 1)
        two = constant_verdict(dom.NATINF, 2)
        s = FiniteTrace((), A)
        assert combine_sum(one, two)(s) == 3
        assert combine_product(constant_verdict(dom.NATINF, 0), length_verdict())(s) == 0

    def test_sum_of_disjoint_pair_maxima(self, server):
        # two response-time verdicts over renamed pairs evaluated directly
        sa2 = qp.server_alphabet(2).alphabet
        v1 = qp.mrt_verdict("req1", "ack1")
        v2 = qp.mrt_verdict("req2", "ack2")
        t = FiniteTrace(tuple("req1 other ack1 req2 other other ack2".split()), sa2)
        assert combine_sum(v1, v2)(t) == 2 + 3

    def test_max_of_two_pair_counters(self):
        # the joint maximum verdict over a two-pair alphabet is the pointwise
        # join of the per-pair verdicts
        sa2 = qp.server_alphabet(2).alphabet
        v1 = qp.mrt_verdict("req1", "ack1")
        v2 = qp.mrt_verdict("req2", "ack2")
        joint = combine_max(v1, v2)
        for text in ("req1 ack1 req2 other ack2", "req2 other other ack2 req1 ack1",
                     "other other", "req1 req1"):
            s = FiniteTrace(tuple(text.split()), sa2)
            assert joint(s) == dom.NATINF.sup([v1(s), v2(s)])

    def test_pair_has_a_configuration_only_when_both_operands_do(self):
        st = combine_max(constant_verdict(dom.NATINF, 3), qp.mrt_verdict()).stepper()
        st.step("req")
        # no memory, then each operand's configuration
        assert st.config() == (None, (), ("p", 0, 0))
        hidden = combine_max(qp.mrt_verdict(), unconfigured(length_verdict()))
        assert hidden.stepper().config() is None

    def test_sum_requires_numeric(self):
        with pytest.raises(UnsupportedDomainError):
            combine_sum(constant_verdict(dom.BT, True), constant_verdict(dom.BT, True))


class _Chain3(dom.ValueDomain):
    """The chain 0 < 1 < 2: a lattice that no monotonicity sample grid knows."""
    name = "chain3"
    is_lattice = True
    bottom, top = 0, 2

    def contains(self, v):
        return v in (0, 1, 2) and not isinstance(v, bool)

    def leq(self, a, b):
        return a <= b

    def sup(self, vs):
        return max(vs, default=0)

    def inf(self, vs):
        return min(vs, default=2)


class TestMapContinuous:
    def test_doubling(self, server):
        fig = FiniteTrace(tuple("req ack req other ack".split()), server)
        v = map_continuous(qp.mrt_verdict(), lambda x: dom.value_mul(2, x))
        assert v(fig) == 4

    def test_identity(self, server):
        v = map_continuous(qp.mrt_verdict(), lambda x: x)
        s = FiniteTrace(("req", "ack"), server)
        assert v(s) == qp.mrt(s)

    def test_saturation_bounds_a_diverging_counter(self):
        v = map_continuous(length_verdict(), lambda x: min(x, 3))
        res = eval_limsup(v, lasso((), ("a",), A))
        assert res.kind is LimitKind.EXACT and res.value == 3

    def test_non_monotone_function_rejected(self):
        with pytest.raises(InvalidFunctionError):
            map_continuous(length_verdict(), lambda x: 0 if x == dom.INF else dom.INF)

    def test_codomain_without_a_sample_grid_rejected(self):
        # the antitone 2 - x must not pass for monotone unchecked
        v = constant_verdict(_Chain3(), 0)
        with pytest.raises(UnsupportedDomainError) as exc:
            map_continuous(v, lambda x: 2 - x)
        assert str(exc.value) == "cannot check monotonicity over chain3: no sample grid"

    @pytest.mark.parametrize("codomain,monotone,antitone", [
        (dom.BT, lambda v: True, lambda v: not v),
        (dom.product(dom.NATINF, 2), lambda v: (v[1], v[0]),
         lambda v: (1 if v[0] == 0 else 0, v[1])),
        (dom.inverse(dom.NATINF), lambda v: min(v, 3), lambda v: 1 if v == 0 else 0),
    ], ids=["Bt", "product", "inverse"])
    def test_sample_grid_of_each_codomain(self, codomain, monotone, antitone):
        v = constant_verdict(codomain, codomain.bottom)
        mapped = map_continuous(v, monotone)
        assert mapped.codomain == codomain
        assert mapped(FiniteTrace(("a",), A)) == monotone(codomain.bottom)
        with pytest.raises(InvalidFunctionError):
            map_continuous(v, antitone)


class TestComplement:
    def test_involution(self):
        v = length_verdict()
        w = complement(complement(v))
        assert w.codomain == v.codomain
        s = FiniteTrace(("a", "a"), A)
        assert verdict_sequence(w, s) == verdict_sequence(v, s)

    def test_flips_monotonicity_and_domain(self, server):
        c = complement(qp.mrt_verdict())
        suite = pr.exhaustive_suite(server, 2, 2)
        assert check_monotone(c, suite, depth=8) is Monotonicity.DECREASING
        assert c.codomain.name == "inv:natinf"

    def test_dual_limit_evaluation(self, server):
        t = parse_lasso("req ack req other ack ; other", server)
        direct = eval_limsup(qp.mrt_verdict(), t)
        dual = eval_liminf(complement(qp.mrt_verdict()), t)
        assert direct.value == dual.value == 2


SERVER = qp.server_alphabet(1).alphabet


def _count_acks(acks, sym):
    return acks + (sym == "ack")


def _last_answer(last, sym):
    # bottom until the latest event is a request or an answer
    return dom.BOT if sym == "other" else sym == "ack"


# operands over the server alphabet, grouped by shared codomain: machine,
# hand-written stepper, constant and summary verdicts
NUMERIC_OPERANDS = [
    [mc.generated_verdict(mc.build_mmax()), qp.mrt_verdict(),
     constant_verdict(dom.NATINF, 2), constant_verdict(dom.NATINF, dom.INF),
     function_verdict(dom.NATINF, 0, _count_acks, name="acks")],
    [mc.generated_verdict(mc.build_mavg()), qp.art_verdict(),
     constant_verdict(dom.RATINF, Fraction(1, 2)), constant_verdict(dom.RATINF, 0),
     length_function(dom.RATINF, lambda n: Fraction(n, 3), name="len/3")],
]
BOTTOMED_OPERANDS = [
    constant_verdict(dom.BBOT, dom.BOT), constant_verdict(dom.BBOT, False),
    function_verdict(dom.BBOT, dom.BOT, _last_answer, name="last-answer"),
    bp.monitor_reactivity(bp.ReactivityList((
        (bp.buchi_infinitely_often(SERVER, "ack"),
         bp.cobuchi_eventually_always(SERVER, "other")),))),
]
BINARY = [(combine_max, max), (combine_min, min),
          (combine_sum, dom.value_add), (combine_product, dom.value_mul)]
MONOTONE_MAPS = [lambda x: min(x, 3), lambda x: dom.value_add(x, x)]
server_traces = st.lists(st.sampled_from(SERVER.symbols), max_size=30).map(
    lambda syms: FiniteTrace(tuple(syms), SERVER))


def _smoothed(values):
    last, out = True, []
    for x in values:
        if x is not dom.BOT:
            last = x
        out.append(last)
    return out


class TestCombinatorSemantics:
    """Each combinator's verdict sequence is the pointwise combination of its
    operands' sequences, on random finite traces."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_binary_combinators(self, data):
        operands = data.draw(st.sampled_from(NUMERIC_OPERANDS))
        v1, v2 = data.draw(st.sampled_from(operands)), data.draw(st.sampled_from(operands))
        combinator, pointwise = data.draw(st.sampled_from(BINARY))
        s = data.draw(server_traces)
        want = [pointwise(a, b) for a, b in zip(verdict_sequence(v1, s),
                                                verdict_sequence(v2, s))]
        combined = combinator(v1, v2)
        assert verdict_sequence(combined, s) == want
        assert combined(s) == want[-1]

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_unary_combinators(self, data):
        v = data.draw(st.sampled_from([v for group in NUMERIC_OPERANDS for v in group]))
        fn = data.draw(st.sampled_from(MONOTONE_MAPS))
        s = data.draw(server_traces)
        values = verdict_sequence(v, s)
        assert verdict_sequence(map_continuous(v, fn), s) == [fn(x) for x in values]
        assert verdict_sequence(complement(v), s) == values

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(BOTTOMED_OPERANDS), server_traces)
    def test_smooth_bot(self, v, s):
        assert verdict_sequence(bp.smooth_bot(v), s) == _smoothed(verdict_sequence(v, s))


class TestSequencesAndCsv:
    def test_verdict_sequence_includes_empty_prefix(self, server):
        values = verdict_sequence(qp.mrt_verdict(),
                                  FiniteTrace(("req", "ack"), server))
        assert values == [0, 0, 1]

    def test_csv_shape(self, server):
        lines = verdict_csv_lines(qp.mrt_verdict(), FiniteTrace(("req",), server))
        assert lines[0] == "index,prefix_len,value"
        assert lines[1] == "0,0,0" and lines[2] == "1,1,0"

    def test_count_switches(self):
        assert count_switches([True, True, False, True, True]) == 2


class TestIncreasingLimitsAgree:
    def test_limsup_equals_liminf_for_monotone_verdicts(self, server):
        t = parse_lasso("req other ack ; other", server)
        v = qp.mrt_verdict()
        assert eval_limsup(v, t).value == eval_liminf(v, t).value == 2


class TestConcurrentEvaluation:
    def test_steppers_are_independent_per_run(self, server):
        from concurrent.futures import ThreadPoolExecutor
        v = qp.mrt_verdict()
        traces = [parse_lasso(text, server) for text in
                  ("req ack ; other", "req other ack ; other", "; req ack",
                   "req req ; other")] * 8
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(lambda t: eval_limsup(v, t).value, traces))
        assert results == [eval_limsup(v, t).value for t in traces]


def _finite_number(v):
    return dom.is_numeric(v) and v != dom.INF and v != dom.NEG_INF


# The window rules below are kept from before the engine folded them into
# one rule, so the differential test compares the engine against an
# independent copy: an equal check and an escape check, each over the whole
# escape tail of more than WINDOW extrema.  The engine's window is not
# imported: this copy states its own sizes.
WINDOW = 3
ESCAPE_TAIL = 18


def _window_equal(maxima):
    tail = maxima[-ESCAPE_TAIL:]
    if len(tail) <= WINDOW or any(m is None for m in tail):
        return None
    first = tail[0]
    if all(m == first for m in tail[1:]):
        return first
    return None


def _extrapolate_scalar(d, tail):
    diffs = [tail[i + 1] - tail[i] for i in range(len(tail) - 1)]
    if any(df != diffs[0] for df in diffs) or diffs[0] == 0:
        return None
    limit = dom.INF if diffs[0] > 0 else dom.NEG_INF
    if not d.contains(limit):
        return None
    return limit


def _window_diverged(d, maxima, window, take_sup):
    tail = maxima[-ESCAPE_TAIL:]
    if len(tail) < window + 1 or any(m is None for m in tail):
        return None
    if isinstance(d, dom.ProductDomain):
        comps, escapes = [], []
        for col in zip(*tail):
            if all(c == col[0] for c in col[1:]):
                # a settled component, which may sit at inf
                comps.append(col[0])
                continue
            if not all(_finite_number(c) for c in col):
                return None
            lim = _extrapolate_scalar(d.inner, col)
            if lim is None:
                return None
            comps.append(lim)
            escapes.append(lim)
        if not escapes:
            return None
        kind = LimitKind.DIVERGED_TO_TOP if dom.INF in escapes \
            else LimitKind.DIVERGED_TO_BOTTOM
        return tuple(comps), kind
    if not all(_finite_number(m) for m in tail):
        return None
    limit = _extrapolate_scalar(d, tail)
    if limit is None:
        return None
    if limit == d.top:
        return limit, LimitKind.DIVERGED_TO_TOP
    if limit == d.bottom:
        return limit, LimitKind.DIVERGED_TO_BOTTOM
    return None


def _reference_limit(verdict, t, budget, take_sup):
    """The per-iteration fold that the budget path replaced: each loop
    iteration's extremum is folded as it is stepped, and the window rules
    read the whole list.  For opaque steppers (no ``accelerate``)."""
    d = verdict.codomain
    combine = d.sup if take_sup else d.inf
    st = verdict.stepper()
    for sym in t.stem:
        st.step(sym)
    maxima, iteration_values, seen = [], [], {}
    for k in range(budget.max_loop_iterations):
        cfg = st.config()
        if cfg is not None:
            if cfg in seen:
                cycle_vals = [v for it in iteration_values[seen[cfg]:] for v in it]
                try:
                    return LimitResult(combine(cycle_vals), LimitKind.EXACT, k)
                except NoBoundError:
                    return LimitResult(None, LimitKind.UNDETERMINED, k)
            seen[cfg] = len(iteration_values)
        vals = [st.step(sym) for sym in t.loop]
        iteration_values.append(vals)
        try:
            maxima.append(combine(vals))
        except NoBoundError:
            maxima.append(None)
    used = budget.max_loop_iterations
    m = _window_equal(maxima)
    if m is not None:
        return LimitResult(m, LimitKind.EXACT, used)
    div = _window_diverged(d, maxima, WINDOW, take_sup)
    if div is not None:
        return LimitResult(div[0], div[1], used)
    return LimitResult(None, LimitKind.UNDETERMINED, used)


OPAQUE = {
    "art": qp.art_verdict(),
    "mrt": qp.mrt_verdict(),
    "alternating": VerdictFunction(dom.BT, lambda: FunctionStepper(
        True, lambda b, sym: not b, lambda b: b), name="alt"),
    "mod6": _counter_mod(6),
    # the step count, the acks and the requests up to two
    "pair": function_verdict(
        dom.product(dom.NATINF, 2), (0, 0, 0),
        lambda st, sym: (st[0] + 1, _count_acks(st[1], sym), min(st[2] + (sym == "req"), 2)),
        lambda st: (st[1], dom.INF if st[2] > 1 else st[0] % 2), name="pair"),
    "bool": length_function(dom.BT, lambda n: n % 3 == 0, name="len%3"),
    "flat": function_verdict(dom.B, 0, _count_acks, lambda acks: acks % 2 == 0,
                             name="even-acks"),
}
small_budgets = st.builds(LimitBudget, max_loop_iterations=st.integers(4, 40))
server_lassos = st.builds(lambda stem, loop: lasso(stem, loop, SERVER),
                          st.lists(st.sampled_from(SERVER.symbols), max_size=6),
                          st.lists(st.sampled_from(SERVER.symbols), min_size=1, max_size=4))


# combinations of bundled verdicts, by name, as thunks for (verdict, alphabet)
COMBINED_VERDICTS = {
    "max(Mfin2,Mmax)": lambda: (combine_max(BUNDLED_VERDICTS["Mfin2"]()[0],
                                            BUNDLED_VERDICTS["Mmax"]()[0]), SERVER),
    "compl(mrt)": lambda: (complement(qp.mrt_verdict()), SERVER),
}


class TestBudgetPath:
    """The budget path folds extrema once, over the judged final iterations,
    and still checks every value as it is stepped."""

    @pytest.mark.parametrize("name", sorted(OPAQUE))
    @settings(max_examples=80, deadline=None)
    @given(t=server_lassos, budget=small_budgets)
    # at the default budget, mod6's final four extrema climb 1 2 3 4; only
    # the longer escape tail holds the wrap
    @example(t=lasso((), ("other",), SERVER), budget=LimitBudget())
    def test_matches_the_per_iteration_fold(self, name, t, budget):
        v = OPAQUE[name]
        assert eval_limsup(v, t, budget) == _reference_limit(v, t, budget, True)
        assert eval_liminf(v, t, budget) == _reference_limit(v, t, budget, False)

    # sha256 of one line per lasso of exhaustive_suite(alphabet, 2, 3):
    # the lasso, its limsup and its liminf.  Many of these limits run out
    # the budget: the window rule settles those of the opaque verdicts and
    # combinations, which CI pins only for the limsup side of mrt and art
    # (through compare), and leaves Madd's undetermined.
    OPAQUE_LIMIT_DIGESTS = {
        "mrt": "ad3eb4059a85cadad1252f8d4b009e1bc4aca03f1ab25817e07830e7dbf3575e",
        "art": "d35c1a05adfd37958edc52572f2a20d57b890018e5bdb4fde8ed544935ecec41",
        "max(Mfin2,Mmax)": "ad3eb4059a85cadad1252f8d4b009e1bc4aca03f1ab25817e07830e7dbf3575e",
        "compl(mrt)": "04abdce879468df5999f543e3f999a7740867d1fbe978adf56763416f926c944",
        "Madd": "e432f61fc384f50a2435a5d4479bf28bb0e6373ac53ab3201892a071877786b0",
    }

    @pytest.mark.parametrize("name", sorted(OPAQUE_LIMIT_DIGESTS))
    def test_bundled_opaque_limits_are_pinned(self, name):
        verdict, alphabet = {**BUNDLED_VERDICTS, **COMBINED_VERDICTS}[name]()
        up, lo = {}, {}
        lines = [f"{t.render()} {eval_limsup(verdict, t, memo=up).render()} "
                 f"{eval_liminf(verdict, t, memo=lo).render()}\n"
                 for t in pr.exhaustive_suite(alphabet, 2, 3)]
        assert hashlib.sha256("".join(lines).encode()).hexdigest() == \
            self.OPAQUE_LIMIT_DIGESTS[name]

    def test_out_of_codomain_value_raises_at_its_iteration(self):
        # -1 is no natinf value; it comes in the third of 1024 iterations,
        # far ahead of the judged tail, and the run stops with that iteration
        steps = []

        def step(k, sym):
            steps.append(k + 1)
            return k + 1

        factory = lambda: FunctionStepper(0, step, lambda k: -1 if k == 5 else k)
        v = VerdictFunction(dom.NATINF, factory, name="dips")
        for evaluate in (eval_limsup, eval_liminf):
            steps.clear()
            with pytest.raises(DomainMismatchError):
                evaluate(v, lasso((), ("a", "b"), AB))
            assert steps[-1] == 6

    def test_repeated_out_of_codomain_object_from_the_stem_raises(self):
        # the stem ends on -1, no natinf value, and the loop returns that
        # same object again: the stem's values are not checked, so the
        # loop's first one must be
        minus_one = -1
        factory = lambda: FunctionStepper(0, lambda k, sym: 1 - k, lambda k: minus_one)
        v = VerdictFunction(dom.NATINF, factory, name="below")
        for evaluate in (eval_limsup, eval_liminf):
            with pytest.raises(DomainMismatchError):
                evaluate(v, lasso(("a",), ("a",), A))


def _witness_subjects():
    """Each verdict of the witness table, as (verdict, alphabet, oracle)."""
    mmax = mc.generated_verdict(mc.build_mmax())
    server = lambda v: (v, SERVER, qp.eval_mrt)
    return {
        "mrt": lambda: server(qp.mrt_verdict()),
        "compl(mrt)": lambda: server(complement(qp.mrt_verdict())),
        "max(Mfin2,Mmax)": lambda: server(combine_max(
            mc.generated_verdict(mc.build_finite_state_mrt(2)), mmax)),
        "Mmax": lambda: server(mmax),
        "compl(Mmax)": lambda: server(complement(mmax)),
    }


WITNESS_SUBJECTS = _witness_subjects()
_LONG_WAIT = "req " + "other " * 2000 + "ack req ; other"
# The window rule settles these limits wrongly: on its witness lasso each
# verdict gets the pinned limsup and liminf, where its oracle gives another
# value.  A change that fixes a verdict deletes its entry.
KNOWN_WRONG = {
    "mrt": (_LONG_WAIT, "exact,2001"),
    "compl(mrt)": (_LONG_WAIT, "exact,2001"),
    "max(Mfin2,Mmax)": (_LONG_WAIT, "exact,2001"),
}
# register machines prove their oracle's value on the same lasso
PROVEN_ON_WITNESS = {
    "Mmax": (_LONG_WAIT, "diverged-to-top,inf"),
    "compl(Mmax)": (_LONG_WAIT, "diverged-to-bottom,inf"),
}


@pytest.mark.parametrize("name", sorted({**KNOWN_WRONG, **PROVEN_ON_WITNESS}))
def test_known_wrong_limits_are_pinned(name):
    verdict, alphabet, oracle = WITNESS_SUBJECTS[name]()
    text, answer = {**KNOWN_WRONG, **PROVEN_ON_WITNESS}[name]
    t = parse_lasso(text, alphabet)
    results = [eval_limsup(verdict, t), eval_liminf(verdict, t)]
    assert [res.render() for res in results] == [answer, answer]
    assert oracle(t) == dom.INF
    assert (results[0].value == oracle(t)) is (name in PROVEN_ON_WITNESS)


def _machine_subject(build):
    m = build()
    return mc.generated_verdict(m), m.alphabet


def _memo_subjects():
    """Every verdict kind with a configuration, with the alphabet it reads."""
    mmax = mc.generated_verdict(mc.build_mmax())
    ab_automata = [(bp.monitor_safety, bp.safety_never(AB, "b")),
                   (bp.monitor_cosafety, bp.cosafety_eventually(AB, "a")),
                   (bp.monitor_response, bp.buchi_infinitely_often(AB, "a")),
                   (bp.monitor_persistence, bp.cobuchi_eventually_always(AB, "a"))]
    return {
        **{f"machine:{name}": (lambda build=build: _machine_subject(build))
           for name, build in BUILT_MACHINES.items()},
        "mrt": lambda: (qp.mrt_verdict(), SERVER),
        "art": lambda: (qp.art_verdict(), SERVER),
        "compl(Mmax)": lambda: (complement(mmax), SERVER),
        "max(Mfin2,Mmax)": lambda: (combine_max(
            mc.generated_verdict(mc.build_finite_state_mrt(2)), mmax), SERVER),
        **{monitor.__name__: (lambda monitor=monitor, P=P: (monitor(P), AB))
           for monitor, P in ab_automata},
        "smooth_bot": lambda: (bp.smooth_bot(BOTTOMED_OPERANDS[-1]), SERVER),
    }


MEMO_SUBJECTS = _memo_subjects()


@lru_cache(maxsize=None)
def _memo_subject(name):
    return MEMO_SUBJECTS[name]()


@st.composite
def crossed_suites(draw, alphabet):
    """A few drawn stems, each followed by each of a few drawn loops, so that
    stems reaching one configuration meet the same loops."""
    words = lambda lo, hi: st.lists(st.sampled_from(alphabet.symbols),
                                    min_size=lo, max_size=hi)
    stems = draw(st.lists(words(0, 4), min_size=1, max_size=5))
    loops = draw(st.lists(words(1, 3), min_size=1, max_size=3))
    return [lasso(stem, loop, alphabet) for stem in stems for loop in loops]


def _fields(results):
    return [(r.value, type(r.value), r.kind, r.iterations_used) for r in results]


def _config_loop_pairs(v, suite):
    pairs = set()
    for t in suite:
        st_ = v.stepper()
        for sym in t.stem:
            st_.step(sym)
        pairs.add((st_.config(), t.loop.symbols))
    return pairs


class TestSuiteMemo:
    """A suite memo changes no answer: a memoized pass equals the memo-less
    one field by field, and it stores one limit per distinct (configuration
    after the stem, loop)."""

    @pytest.mark.parametrize("name", sorted(MEMO_SUBJECTS))
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_memoized_pass_matches_memo_less(self, name, data):
        v, alphabet = _memo_subject(name)
        suite = data.draw(crossed_suites(alphabet))
        budget = data.draw(small_budgets)
        for evaluate in (eval_limsup, eval_liminf):
            memo = {}
            memoized = [evaluate(v, t, budget, memo) for t in suite]
            assert _fields(memoized) == _fields([evaluate(v, t, budget) for t in suite])
            assert len(memo) == len(_config_loop_pairs(v, suite))

    @pytest.mark.parametrize("name", ["mrt", "art", "machine:Mmax", "machine:Mavg2",
                                      "machine:Mfin2", "compl(Mmax)"])
    def test_exhaustive_suite_under_the_default_budget(self, name):
        # the limsups of a compare below; art runs out the budget on 124
        # of these lassos
        v, _ = _memo_subject(name)
        suite = pr.exhaustive_suite(SERVER, 2, 3)
        memo = {}
        memoized = [eval_limsup(v, t, vd.DEFAULT_BUDGET, memo) for t in suite]
        assert _fields(memoized) == _fields([eval_limsup(v, t) for t in suite])
        # the 507 lassos reach 195 distinct (configuration, loop) pairs
        assert len(memo) == len(_config_loop_pairs(v, suite)) == 195

    def test_boolean_monitors_on_exhaustive_2_2(self):
        suite = pr.exhaustive_suite(AB, 2, 2)
        for name in ("monitor_safety", "monitor_cosafety", "monitor_response",
                     "monitor_persistence"):
            v, _ = _memo_subject(name)
            for evaluate in (eval_limsup, eval_liminf):
                memo = {}
                memoized = [evaluate(v, t, vd.DEFAULT_BUDGET, memo) for t in suite]
                assert _fields(memoized) == _fields([evaluate(v, t) for t in suite])
                assert len(memo) == len(_config_loop_pairs(v, suite)) < len(suite)

    def test_steppers_without_a_configuration_are_not_memoized(self):
        suite = pr.exhaustive_suite(SERVER, 1, 2)
        budget = LimitBudget(max_loop_iterations=24)
        for v in map(unconfigured, (OPAQUE["pair"], OPAQUE["bool"], length_verdict())):
            memo = {}
            memoized = [eval_limsup(v, t, budget, memo) for t in suite]
            assert memo == {}
            assert _fields(memoized) == _fields([eval_limsup(v, t, budget) for t in suite])

    def test_out_of_codomain_value_still_raises(self):
        # -1 is no natinf value; a failed limit stores nothing, so the
        # second lasso to reach the same configuration raises as well
        factory = lambda: FunctionStepper(
            0, lambda k, sym: k + 1, lambda k: -1 if k == 5 else k)
        v = VerdictFunction(dom.NATINF, factory, name="dips")
        for evaluate in (eval_limsup, eval_liminf):
            memo = {}
            for t in (lasso(("a",), ("a", "b"), AB), lasso(("b",), ("a", "b"), AB)):
                with pytest.raises(DomainMismatchError):
                    evaluate(v, t, vd.DEFAULT_BUDGET, memo)
            assert memo == {}
