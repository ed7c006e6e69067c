import copy
import hashlib
import itertools
import pathlib
import random
import re
from fractions import Fraction
from functools import lru_cache, partial

import pytest
from hypothesis import given, settings, strategies as st

from quantmon import domain as dom
from quantmon import machine as mc
from quantmon import qprop as qp
from quantmon.cli import main
from quantmon.errors import MachineError
from quantmon.trace import (Alphabet, FiniteTrace, all_finite_traces, all_lassos,
                            lasso, parse_finite, parse_lasso, random_finite_trace)
from quantmon.verdict import (LimitBudget, LimitKind, Monotonicity, check_monotone,
                              complement, eval_liminf, eval_limsup, verdict_sequence)

SMALL = LimitBudget(max_loop_iterations=48)
FIG = "req ack req other ack req ack other"


# a valid two-state counter machine that the bad-file tests break one line at a time
SMALL_MACHINE = """registers: x y
instruction-set: counter
states: p q
initial: p
edge: p a [true] / x:=x+1 -> q
edge: q a [x>=y] / y:=y+1 -> p
edge: q a [!(x>=y)] -> q
output: p = x
output: q = y
"""


class TestValidation:
    def test_two_unguarded_edges_rejected(self):
        a = Alphabet(("a",))
        edges = [mc.Edge("q", "a", mc.TRUE_GUARD, (), "q"),
                 mc.Edge("q", "a", mc.TRUE_GUARD, (), "q")]
        with pytest.raises(MachineError, match="q.*a"):
            mc.RegisterMachine("bad", ("x",), ("q",), a, "q", edges,
                               {"q": mc.OUT_ZERO}, mc.InstructionSet.COUNTER,
                               dom.NATINF)

    def test_missing_case_rejected(self):
        ab = Alphabet(("a", "b"))
        edges = [mc.Edge("q", "a", mc.TRUE_GUARD, (), "q")]
        with pytest.raises(MachineError, match="missing case"):
            mc.RegisterMachine("bad", (), ("q",), ab, "q", edges,
                               {"q": mc.OUT_ZERO}, mc.InstructionSet.COUNTER,
                               dom.NATINF)

    def test_non_exhaustive_guards_rejected(self):
        a = Alphabet(("a",))
        edges = [mc.Edge("q", "a", mc.Guard((mc.GuardAtom("x", "y"),)), (), "q")]
        with pytest.raises(MachineError):
            mc.RegisterMachine("bad", ("x", "y"), ("q",), a, "q", edges,
                               {"q": mc.OUT_ZERO}, mc.InstructionSet.COUNTER,
                               dom.NATINF)

    def test_guards_over_different_atom_sets_rejected(self):
        a = Alphabet(("a",))
        xy, x0 = mc.GuardAtom("x", "y"), mc.GuardAtom("x", 0)
        for second in ((xy.complement(), x0), (x0,), (xy.complement(), xy.complement())):
            edges = [mc.Edge("q", "a", mc.Guard((xy,)), (), "q"),
                     mc.Edge("q", "a", mc.Guard(second), (), "q")]
            with pytest.raises(MachineError, match="one atom set"):
                mc.RegisterMachine("bad", ("x", "y"), ("q",), a, "q", edges,
                                   {"q": mc.OUT_ZERO}, mc.InstructionSet.COUNTER,
                                   dom.NATINF)

    def test_counter_output_restriction(self):
        a = Alphabet(("a",))
        edges = [mc.Edge("q", "a", mc.TRUE_GUARD, (), "q")]
        with pytest.raises(MachineError, match="extended"):
            mc.RegisterMachine("bad", ("x", "y"), ("q",), a, "q", edges,
                               {"q": mc.out_div("x", "y")},
                               mc.InstructionSet.COUNTER, dom.NATINF)

    def test_outputs_must_be_grammar_outputs(self):
        a = Alphabet(("a",))
        edges = [mc.Edge("q", "a", mc.TRUE_GUARD, (), "q")]
        for out, match in ((lambda v: 0, "not a grammar output"),
                           (mc.out_reg("z"), "unknown register 'z'")):
            with pytest.raises(MachineError, match=match):
                mc.RegisterMachine("bad", ("x",), ("q",), a, "q", edges, {"q": out},
                                   mc.InstructionSet.COUNTER, dom.NATINF)
        for kind, parts, const in (("tuple", (mc.out_tuple(mc.OUT_INF),), 0),
                                   ("max", (), 0), ("div", (mc.OUT_INF, mc.OUT_ZERO), 0),
                                   ("affine", (("x", 1.5),), 0), ("inf", (), 1),
                                   ("affine", (), True), ("sum", (), 0)):
            with pytest.raises(MachineError, match="malformed"):
                mc.OutputSpec(kind, parts, const)

    def test_counter_instruction_restriction(self):
        a = Alphabet(("a",))
        edges = [mc.Edge("q", "a", mc.TRUE_GUARD, (mc.Update("x", "dec"),), "q")]
        with pytest.raises(MachineError, match="not allowed"):
            mc.RegisterMachine("bad", ("x",), ("q",), a, "q", edges,
                               {"q": mc.OUT_ZERO}, mc.InstructionSet.COUNTER,
                               dom.NATINF)

    def test_probe_invariant_random_machines(self):
        # every loaded machine satisfies exactly-one-guard on random probes
        rng = random.Random(5)
        for machine in (mc.build_mmax(), mc.build_kpair_monitor(2),
                        mc.build_pk_monitor(3), mc.build_doubling_adder()):
            valuation = {r: rng.randint(0, 12) for r in machine.registers}
            groups = {}
            for e in machine.edges:
                groups.setdefault((e.source, e.symbol), []).append(e)
            for q in machine.states:
                for a in machine.alphabet:
                    group = groups[(q, a)]
                    hits = sum(1 for e in group if e.guard.holds(valuation))
                    assert hits == 1


class TestFileFormat:
    def test_mmax_round_trip(self, server):
        m = mc.build_mmax()
        text = mc.render_machine(m)
        again = mc.load_machine(text, output_domain=dom.NATINF)
        assert again.instruction_set is mc.InstructionSet.COUNTER
        assert len(again.registers) == 2
        fig = parse_finite(FIG, server)
        assert verdict_sequence(mc.generated_verdict(again), fig) == \
            verdict_sequence(mc.generated_verdict(m), fig)

    def test_load_errors(self):
        with pytest.raises(MachineError, match="missing"):
            mc.load_machine("registers: x\nstates: q\ninitial: q\n")
        bad = ("registers: x\ninstruction-set: counter\nstates: q\ninitial: q\n"
               "edge: q a [true] -> q\nedge: q a [true] -> q\noutput: q = 0\n")
        with pytest.raises(MachineError):
            mc.load_machine(bad)

    @pytest.mark.parametrize("text,match", [
        ("registers: x\ninstruction-set: counter\nstates: q\ninitial:\n"
         "edge: q a [true] -> q\noutput: q = 0\n", "initial"),
        ("registers: x\ninstruction-set: counter\nstates: q\ninitial: q\n"
         "output: q = 0\n", "edge"),
    ], ids=["empty-initial", "no-edges"])
    def test_load_rejects_empty_initial_and_no_edges(self, text, match):
        with pytest.raises(MachineError, match=match):
            mc.load_machine(text)

    @pytest.mark.parametrize("line,match", [
        ("output: idle = x", "line 19: second output for state 'idle'"),
        ("output: nowhere = x", "output for unknown state 'nowhere'"),
    ], ids=["second-output", "unknown-state"])
    def test_outputs_are_not_overridden_or_ignored(self, line, match):
        text = (DEMO_MACHINES / "mmax.mspec").read_text() + line + "\n"
        with pytest.raises(MachineError, match=match):
            mc.load_machine(text)

    # TestUpdateGrammar.test_cli_exits_2_on_a_non_instruction covers an update
    @pytest.mark.parametrize("old,new,error", [
        ("output: idle = y\n", "output: idle = y+\n", "line 16: malformed affine output 'y+'"),
        ("pending ack [x>=y]", "pending ack [x>=]", "line 9: malformed guard atom 'x>='"),
    ], ids=["output", "guard"])
    def test_cli_names_the_line_of_a_parse_error(self, old, new, error, tmp_path, capsys):
        path = tmp_path / "bad.mspec"
        path.write_text((DEMO_MACHINES / "mmax.mspec").read_text().replace(old, new, 1))
        trace = tmp_path / "fig.trace"
        trace.write_text(FIG + "\n")
        assert main(["run", str(path), str(trace), "--finite"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [f"error: {error}"]

    @pytest.mark.parametrize("old,new,error", [
        ("registers: x y\n", "registers: x y x\n", "duplicate register names"),
        ("states: p q\n", "states: p q p\n", "duplicate state names"),
        ("initial: p\n", "initial: r\n", "unknown initial state 'r'"),
        ("x:=x+1 -> q", "x:=x+1 -> r",
         "line 5: edge p a [true] / x:=x+1 -> r references unknown states"),
        ("output: q = y\n", "", "state 'q' has no output"),
        ("[x>=y] / y:=y+1", "[x>=w] / y:=y+1", "line 6: guard x>=w uses unknown register"),
        ("/ x:=x+1", "/ w:=w+1", "line 5: update w:=w+1 uses unknown register"),
        ("/ x:=x+1", "/ x:=x+y",
         "line 5: update x:=x+y not allowed by instruction set counter"),
        ("[x>=y] / y:=y+1", "[x>=2] / y:=y+1",
         "line 6: guard atom x>=2 not allowed by instruction set counter"),
        ("/ x:=x+1", "/ x:=x+1, x:=0",
         "line 5: edge p a [true] / x:=x+1, x:=0 -> q assigns a register twice"),
        ("edge: p a [true]", "edge: p a [x>=y]",
         "line 5: single edge from 'p' on 'a' must carry the trivial guard; got [x>=y]"),
        ("[!(x>=y)] -> q", "[x>=y] -> q", "line 7: overlapping guards from 'q' on 'a'"),
        ("[!(x>=y)] -> q", "[!(y>=x)] -> q",
         "line 7: edges from 'q' on 'a' must split cases over one atom set"),
        ("[x>=y] / y:=y+1 -> p\nedge: q a [!(x>=y)] -> q\n",
         "[x>=y & x>=0] / y:=y+1 -> p\nedge: q a [!(x>=y) & x>=0] -> q\n"
         "edge: q a [x>=y & !(x>=0)] -> q\n",
         "line 6: guards from 'q' on 'a' do not cover all cases (3 of 4 sign patterns)"),
        ("[x>=y] / y:=y+1", "[x>=] / y:=y+1", "line 6: malformed guard atom 'x>='"),
        ("x:=x+1 -> q", "x:=x+1 q", "line 5: edge has no '->'"),
        ("edge: p a [true]", "edge: p a [true", "line 5: malformed guard brackets"),
        ("edge: p a [true]", "edge: p a [true] b", "line 5: malformed guard brackets"),
        ("edge: p a [true]", "edge: p [true]", "line 5: edge head must be 'state symbol'"),
        ("output: q = y", "output: q y", "line 9: output line needs '='"),
        ("output: q = y\n", "output: q = y\nbogus line\n", "line 10: cannot parse 'bogus line'"),
        ("counter", "quantum", "unknown instruction set ['quantum']"),
    ], ids=["duplicate-register", "duplicate-state", "unknown-initial", "undeclared-target",
            "no-output", "guard-register", "update-register", "update-outside-set",
            "atom-outside-set", "assigned-twice", "trivial-guard", "overlapping-guards",
            "split-cases", "missing-sign-pattern", "malformed-atom", "no-arrow",
            "open-bracket", "text-after-bracket", "edge-head", "output-without-eq",
            "unparsable-line", "instruction-set"])
    def test_bad_machine_files(self, old, new, error):
        """Each reachable MachineError of loading and lowering a file; the
        errors met while reading an edge or output line name that line."""
        assert mc.load_machine(SMALL_MACHINE).states == ("p", "q")
        assert old in SMALL_MACHINE
        with pytest.raises(MachineError, match=re.escape(error)):
            mc.load_machine(SMALL_MACHINE.replace(old, new, 1))

    @pytest.mark.parametrize("text", [
        "x>=", ">=y", "x>=y z", "x>=--1", "x>=1.5", "1>=x", "x>=y>=z", "x", "!(x>=)",
    ])
    def test_malformed_guard_atoms_rejected(self, text):
        with pytest.raises(MachineError, match="malformed guard atom"):
            mc._parse_guard(text)

    def test_output_grammar(self):
        """Each form parses, renders back to its text and evaluates, in
        generated code and in the reference evaluator, to the same value."""
        registers = ("x", "y", "t", "n", "m", "total", "burst", "count", "zero")
        values = (3, 5, 7, 2, 4, 10, 3, 2, 0)
        rid = {r: i for i, r in enumerate(registers)}
        for text, value in [
                ("0", 0), ("inf", dom.INF), ("x", 3), ("-3", -3), ("2*m", 8), ("x+x", 6),
                ("total+burst-1", 12), ("-x+2*y-7", 0), ("(t)/(n)", Fraction(7, 2)),
                ("(total+burst-1)/(count+1)", 4), ("(x)/(zero)", 0), ("(x)/(n-2)", 0),
                ("max(2*x,2*y)", 10), ("max(x,(t)/(n),inf)", dom.INF),
                ("(y,inf,x)", (5, dom.INF, 3)), ("(x)", (3,)),
                ("(max(x,y),(t)/(n))", (5, Fraction(7, 2)))]:
            out = mc._parse_output(text)
            assert out.render() == text
            assert mc._parse_output(f" {text.replace(',', ' , ')} ") == out
            source = mc._output_source(out, rid)
            assert mc._compile(f"lambda v: {source}")(values) == value, text
            assert _reference_output(out, dict(zip(registers, values))) == value, text

    @pytest.mark.parametrize("text", [
        "2*", "max()", "(x)/(y)/(z)", "x*y", "1.5*x", '__import__("os")', "", "x y", "2x",
        "x+-1", "(x)/y", "(x,y)/(z)", "((x,y),z)", "max((x,y))", "(inf)/(x)", "inf+1",
        "()", "(x,)", "max(x", "x)", "v[0]", "lambda v: 0", "x;y",
    ])
    def test_malformed_outputs_rejected(self, text, monkeypatch):
        compiled = []
        monkeypatch.setattr(mc, "_compile", lambda source: compiled.append(source))
        with pytest.raises(MachineError):
            mc._parse_output(text)
        with pytest.raises(MachineError):
            mc.load_machine("registers: x y z\ninstruction-set: extended\nstates: q\n"
                            f"initial: q\nedge: q a [true] -> q\noutput: q = {text}\n")
        assert compiled == []


class TestUpdateGrammar:
    """An update's right-hand side is an affine output that must name one of
    the six instructions; spaces and term order are free."""

    @pytest.mark.parametrize("text,kind,operand,rendered", [
        ("x := 0", "zero", None, "x:=0"),
        ("x := 1", "one", None, "x:=1"),
        ("x := x + 1", "inc", None, "x:=x+1"),
        ("x := x - 1", "dec", None, "x:=x-1"),
        ("x := x + y", "add", "y", "x:=x+y"),
        ("x := y + x", "add", "y", "x:=x+y"),
        ("x := y", "copy", "y", "x:=y"),
        ("x:=x+x", "add", "x", "x:=x+x"),  # Madd's doubling
    ])
    def test_parse_render_parse(self, text, kind, operand, rendered):
        u = mc._parse_update(text)
        assert (u.target, u.kind, u.operand) == ("x", kind, operand)
        assert u.render() == rendered
        assert mc._parse_update(u.render()) == u

    def test_spaced_updates_load(self):
        text = (DEMO_MACHINES / "mmax.mspec").read_text()
        spaced = mc.load_machine(text.replace("x:=x+1, y:=y+1", "x := x + 1 , y := 1 + y"))
        assert mc.render_machine(spaced) == text
        added = mc.load_machine(text.replace("counter", "extended")
                                .replace("y:=y+1", "y:=x+y"))
        assert mc.Update("y", "add", "x") in {u for e in added.edges for u in e.updates}

    @pytest.mark.parametrize("update", ["x:=y+1", "x:=2", "x:=3*x", "x:=x+1+1"])
    def test_non_instructions_rejected(self, update):
        with pytest.raises(MachineError, match=re.escape(f"update {update!r} is not an "
                                                         "instruction")):
            mc._parse_update(update)
        text = (DEMO_MACHINES / "mmax.mspec").read_text().replace("x:=0", update)
        with pytest.raises(MachineError, match=re.escape(repr(update))):
            mc.load_machine(text)

    @pytest.mark.parametrize("update", ["x", "x:=", "x:=x+", "x:=inf", "x:=(x)/(y)"])
    def test_malformed_updates_rejected(self, update):
        with pytest.raises(MachineError, match="malformed update"):
            mc._parse_update(update)

    def test_cli_exits_2_on_a_non_instruction(self, tmp_path, capsys):
        path = tmp_path / "bad.mspec"
        path.write_text((DEMO_MACHINES / "mmax.mspec").read_text().replace("x:=0", "x:=y+1"))
        trace = tmp_path / "fig.trace"
        trace.write_text(FIG + "\n")
        assert main(["run", str(path), str(trace), "--finite"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == ["error: line 5: update 'x:=y+1' is not an instruction"]


class TestMmax:
    def test_figure_sequence(self, server):
        v = mc.generated_verdict(mc.build_mmax())
        assert verdict_sequence(v, parse_finite(FIG, server)) == \
            [0, 0, 1, 1, 1, 2, 2, 2, 2]

    def test_double_request(self, server):
        _, out = mc.run(mc.build_mmax(), parse_finite("req req", server))
        assert out == dom.INF

    def test_empty_trace_outputs_initial(self, server):
        (state, values), out = mc.run(mc.build_mmax(), FiniteTrace((), server))
        assert out == 0 and state == "idle"
        assert set(values) == {0}

    def test_exhaustive_equivalence_short(self, server):
        v = mc.generated_verdict(mc.build_mmax())
        for s in all_finite_traces(server, 5):
            assert v(s) == qp.mrt(s), s.symbols

    def test_monotone(self, server):
        suite = list(all_lassos(server, 1, 2))
        assert check_monotone(mc.generated_verdict(mc.build_mmax()), suite, 6) is \
            Monotonicity.INCREASING


class TestMavg:
    def test_figure_sequence(self, server):
        expected = [0, 0, 1, Fraction(1, 2), 1, Fraction(3, 2), 1,
                    Fraction(4, 3), Fraction(4, 3)]
        for build in (mc.build_mavg, mc.build_mavg_running):
            v = mc.generated_verdict(build())
            assert verdict_sequence(v, parse_finite(FIG, server)) == expected

    def test_three_register_and_running_variants_agree(self, server):
        v1 = mc.generated_verdict(mc.build_mavg())
        v2 = mc.generated_verdict(mc.build_mavg_running())
        rng = random.Random(2)
        for _ in range(200):
            s = random_finite_trace(rng, server, rng.randint(0, 12))
            assert v1(s) == v2(s), s.symbols

    def test_periodic_liminf(self, server):
        v = mc.generated_verdict(mc.build_mavg())
        t = parse_lasso("req ack req other ack req ack other ; other", server)
        res = eval_liminf(v, t, SMALL)
        assert res.value == Fraction(4, 3)

    def test_agrees_with_art_function(self, server):
        v = mc.generated_verdict(mc.build_mavg())
        for s in all_finite_traces(server, 5):
            assert v(s) == qp.art(s)


class TestFiniteState:
    def test_exact_when_budget_sufficient(self, server):
        v = mc.generated_verdict(mc.build_finite_state_mrt(4))
        assert verdict_sequence(v, parse_finite(FIG, server)) == \
            [0, 0, 1, 1, 1, 2, 2, 2, 2]

    def test_saturates_at_budget(self, server):
        v = mc.generated_verdict(mc.build_finite_state_mrt(3))
        s = parse_finite("req " + "other " * 9 + "ack", server)
        assert qp.mrt(s) == 10
        assert v(s) == 3

    def test_always_below_truth(self, server):
        v = mc.generated_verdict(mc.build_finite_state_mrt(2))
        for s in all_finite_traces(server, 5):
            assert dom.NATINF.le(v(s), qp.mrt(s))

    def test_budget_growth_is_more_precise(self, server):
        lo = mc.generated_verdict(mc.build_finite_state_mrt(2))
        hi = mc.generated_verdict(mc.build_finite_state_mrt(3))
        witness = parse_finite("req other other ack", server)  # true maximum 3
        assert lo(witness) == 2 < hi(witness) == 3
        for s in all_finite_traces(server, 5):
            assert dom.NATINF.le(lo(s), hi(s))


class TestKPair:
    def test_exact_machine_matches_oracle(self):
        m = mc.build_kpair_monitor(2)
        v = mc.generated_verdict(m)
        t = parse_lasso("req1 ack1 req2 other ack2 ; other", m.alphabet)
        assert eval_limsup(v, t, SMALL).value == (1, 2) == qp.eval_kpair_mrt(t, 2)

    def test_exact_machine_random_lassos(self):
        m = mc.build_kpair_monitor(2)
        v = mc.generated_verdict(m)
        rng = random.Random(9)
        for _ in range(60):
            t = lasso(tuple(rng.choice(m.alphabet.symbols)
                            for _ in range(rng.randint(0, 4))),
                      tuple(rng.choice(m.alphabet.symbols)
                            for _ in range(rng.randint(1, 3))), m.alphabet)
            res = eval_limsup(v, t, LimitBudget(max_loop_iterations=96))
            if res.is_determined:
                assert res.value == qp.eval_kpair_mrt(t, 2), t.render()

    def test_priority_underapproximates_componentwise(self):
        m = mc.build_kpair_priority(2)
        v = mc.generated_verdict(m)
        exact = qp.kpair_property(2)
        d = dom.product(dom.NATINF, 2)
        overlap = parse_lasso("req1 req2 ack2 ack1 ; other", m.alphabet)
        got = eval_limsup(v, overlap, SMALL).value
        want = exact.eval_lasso(overlap)
        assert d.le(got, want) and got != want

    def test_priority_exact_without_overlap(self):
        m = mc.build_kpair_priority(2)
        v = mc.generated_verdict(m)
        for text in ("req1 ack1 req2 other ack2 ; other",
                     "; req2 other ack2 req1 ack1",
                     "req1 other other ack1 ; other"):
            t = parse_lasso(text, m.alphabet)
            assert eval_limsup(v, t, SMALL).value == qp.eval_kpair_mrt(t, 2), text

    def test_priority_never_overshoots(self):
        m = mc.build_kpair_priority(2)
        v = mc.generated_verdict(m)
        d = dom.product(dom.NATINF, 2)
        rng = random.Random(13)
        for _ in range(60):
            t = lasso(tuple(rng.choice(m.alphabet.symbols)
                            for _ in range(rng.randint(0, 4))),
                      tuple(rng.choice(m.alphabet.symbols)
                            for _ in range(rng.randint(1, 3))), m.alphabet)
            res = eval_limsup(v, t, LimitBudget(max_loop_iterations=96))
            if res.is_determined:
                assert d.le(res.value, qp.eval_kpair_mrt(t, 2)), t.render()

    def test_sequential_tracks_common_minimum(self):
        m = mc.build_kpair_sequential(2)
        v = mc.generated_verdict(m)
        t = parse_lasso("; req1 other ack1 req2 other ack2", m.alphabet)
        assert eval_limsup(v, t, SMALL).value == (2, 2)
        t = parse_lasso("; req1 ack1 req2 other ack2", m.alphabet)
        assert eval_limsup(v, t, SMALL).value == (1, 1)  # capped by the faster pair

    def test_sequential_never_overshoots(self):
        m = mc.build_kpair_sequential(2)
        v = mc.generated_verdict(m)
        d = dom.product(dom.NATINF, 2)
        rng = random.Random(17)
        for _ in range(60):
            t = lasso(tuple(rng.choice(m.alphabet.symbols)
                            for _ in range(rng.randint(0, 3))),
                      tuple(rng.choice(m.alphabet.symbols)
                            for _ in range(rng.randint(1, 3))), m.alphabet)
            res = eval_limsup(v, t, LimitBudget(max_loop_iterations=96))
            if res.is_determined:
                assert d.le(res.value, qp.eval_kpair_mrt(t, 2)), t.render()

    def test_grouped_is_precise_for_one_and_over_for_the_other(self):
        m = mc.build_kpair_grouped(3)
        v = mc.generated_verdict(m)
        t = parse_lasso("req1 other ack1 ; other", m.alphabet)
        got = eval_limsup(v, t, SMALL).value
        assert got == (2, 2, 0)  # group register reports the group maximum
        assert qp.eval_kpair_mrt(t, 3) == (2, 0, 0)

    def test_budget_dispatch(self):
        assert mc.build_kpair_approx(2, 3).name.startswith("Mkprio")
        assert mc.build_kpair_approx(2, 2).name.startswith("Mkseq")
        assert mc.build_kpair_approx(4, 3).name.startswith("Mkgrp")
        with pytest.raises(MachineError):
            mc.build_kpair_approx(2, 5)

    @pytest.mark.parametrize("name,digest", [
        ("Mkpair2", "405d7544457bdcc3b7ce56d13b9a1eaab50e9a899c5e6cece9bccd3ec5fd0382"),
        ("Mkpair3", "330701c8cf731b0e091c35c7ec027acf6ca9f4b840fd0d0a62f8aeabf777cbe6"),
        ("Mkpair4", "ccc37d46b04d2e1ecddad112944334a4bde5aafd97477279e60b9fdd0ac49afc"),
        ("Mkprio2", "b7a3526f2d6fd4e8ab4a7d18208d7d29c2cdf07f0a9ffeefb2b10de0c6425d25"),
        ("Mkprio3", "458f6a8014fd50fd0c8f1e394437c3258675fe1928fffb42eadcd774fc6f1060"),
        ("Mkprio4", "63b1f2dc149d833a54dd0fda3079ba2897924cb0e69c32847115bb10f5167b47"),
        ("Mkgrp3", "2e5036dc70481b873f5a2e55865fa59857693d3ce1d7a17d6f608087024ddc47"),
        ("Mkgrp4", "dbc4fa1beeebaa63bf32ff888c96b18e3e89ef962f3ea83dc19b19c0f277d1a1"),
        ("Mkgrp5", "5965daf942e39bd6bc462fa908a02c75b2fa541a99c3684c1fa8d39a3af3de8d"),
        ("Mkseq2", "fcd808bb44f852649096d95db7bfaf000c2892466f72357612443f28034f6dcc"),
        ("Mkseq3", "abe95766b9de28065c5f6980e84a7b4b94d1c01ec0f2068f58ba5ac52a4238a9"),
        ("Mkseq4", "ec2edc9885606a85e1735d6e4e73630a86c6b59897c2d1ff151f5e3633e478e3"),
        ("Mmax", "8a3d111c0c2fac5c9f43eb6a1c76029971d8190bf31220b1f2051ee8c0d8c03d"),
        ("Mcount", "417d3a63c3da018d838f3ebfff1c524fd08ca325379a6ac04c26288acc194f37"),
    ])
    def test_rendering_is_pinned(self, name, digest):
        """The builders emit these exact machines, edge order included."""
        family = {"Mkpair": mc.build_kpair_monitor, "Mkprio": mc.build_kpair_priority,
                  "Mkgrp": mc.build_kpair_grouped, "Mkseq": mc.build_kpair_sequential,
                  "Mmax": mc.build_mmax, "Mcount": mc.build_doubling_counter}
        builder = family.get(name) or partial(family[name[:-1]], int(name[-1]))
        text = mc.render_machine(builder())
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @pytest.mark.parametrize("name", ["Mkprio2", "Mkprio3", "Mkgrp3", "Mkgrp4"])
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_shared_counter_machines_match_the_serving_rule(self, name, data):
        machine = SHARED_COUNTER_MACHINES[name]
        symbols = data.draw(_traces(machine.alphabet))
        run = mc.MachineRun(machine)
        got = [run.value] + [run.step(sym) for sym in symbols]
        group = (lambda i: i) if name.startswith("Mkprio") else (lambda i: i // 2)
        assert got == serving_rule_outputs(len(got[0]), group, symbols)


# the shared-counter schemes: one max register per pair, or per pair group
SHARED_COUNTER_MACHINES = {
    **{f"Mkprio{k}": mc.build_kpair_priority(k) for k in (2, 3)},
    **{f"Mkgrp{k}": mc.build_kpair_grouped(k) for k in (3, 4)},
}


def serving_rule_outputs(k, group, symbols):
    """The outputs after each prefix of a shared-counter k-pair machine whose
    pair i (from 0) keeps its maximum in register ``group(i)``, from the
    construction rather than its edges.  A req moves its pair from idle to
    pending and from pending to dead; an ack moves a pending pair to idle.
    The served pair is the lowest-index pending one.  x counts the symbols
    since the served pair became served, and while it stays served its
    register is max(reg, x).  On a hand-over in which the served pair does
    not die, its register becomes max(reg, x + 1) and x restarts at 0; a
    served pair that dies restarts x and gets no credit.  Dead pairs output
    inf."""
    sa = qp.server_alphabet(k)
    status, reg, x, served = ["I"] * k, {}, 0, None

    def outputs():
        return tuple(dom.INF if c == "D" else reg.get(group(i), 0)
                     for i, c in enumerate(status))

    seen = [outputs()]
    for sym in symbols:
        if sym in sa.req_tokens:
            j = sa.req_tokens.index(sym)
            status[j] = "P" if status[j] == "I" else "D"
        elif sym in sa.ack_tokens and status[sa.ack_tokens.index(sym)] == "P":
            status[sa.ack_tokens.index(sym)] = "I"
        now = next((i for i, c in enumerate(status) if c == "P"), None)
        if served is not None and now == served:
            x += 1
            reg[group(served)] = max(reg.get(group(served), 0), x)
        elif served is not None and status[served] != "D":
            reg[group(served)] = max(reg.get(group(served), 0), x + 1)
            x = 0
        else:
            x = 0
        served = now
        seen.append(outputs())
    return seen


class TestPk:
    def test_violation_freezes_length(self):
        m = mc.build_pk_monitor(2)
        v = mc.generated_verdict(m)
        t = parse_lasso("2 ; 1", m.alphabet)
        assert verdict_sequence(v, t.prefix(3)) == [dom.INF, 1, 1, 1]
        assert eval_limsup(v, t, SMALL).value == 1 == mc.eval_pk(t, 2)

    def test_clean_trace_stays_infinite(self):
        m = mc.build_pk_monitor(3)
        t = parse_lasso("1 2 3 ; 1", m.alphabet)
        assert eval_limsup(mc.generated_verdict(m), t, SMALL).value == dom.INF
        assert mc.eval_pk(t, 3) == dom.INF

    def test_monotonically_decreasing(self):
        m = mc.build_pk_monitor(3)
        suite = [parse_lasso("1 2 ; 3", m.alphabet), parse_lasso("; 1", m.alphabet),
                 parse_lasso("3 ; 1", m.alphabet)]
        assert check_monotone(mc.generated_verdict(m), suite, 8) is \
            Monotonicity.DECREASING

    def test_exact_machine_matches_oracle_on_lassos(self):
        m = mc.build_pk_monitor(3)
        v = mc.generated_verdict(m)
        for t in itertools.islice(all_lassos(m.alphabet, 2, 2), 0, None, 3):
            res = eval_liminf(v, t, LimitBudget(max_loop_iterations=200))
            assert res.is_determined
            assert res.value == mc.eval_pk(t, 3), t.render()

    def test_delayed_violation_found(self):
        m = mc.build_pk_monitor(2)
        t = parse_lasso("1 1 1 ; 2", m.alphabet)
        # three 1s tolerate three 2s; the fourth 2 (length 7) violates
        assert mc.eval_pk(t, 2) == 7
        assert eval_liminf(mc.generated_verdict(m), t, SMALL).value == 7

    def test_approx_misses_untracked_pairs_from_above(self):
        exact = mc.generated_verdict(mc.build_pk_monitor(3))
        approx = mc.generated_verdict(mc.build_pk_approx(3, 2))
        t = parse_lasso("3 ; 1", mc.pk_alphabet(3))
        assert eval_liminf(approx, t, SMALL).value == dom.INF
        assert eval_liminf(exact, t, SMALL).value == 1

    def test_approx_dominates_truth_from_above(self):
        approx = mc.generated_verdict(mc.build_pk_approx(4, 2))
        for t in itertools.islice(all_lassos(mc.pk_alphabet(4), 1, 2), 0, None, 5):
            res = eval_liminf(approx, t, LimitBudget(max_loop_iterations=200))
            if res.is_determined:
                assert dom.NATINF.le(mc.eval_pk(t, 4), res.value)

    def test_approx_bounds(self):
        with pytest.raises(MachineError):
            mc.build_pk_approx(3, 3)
        with pytest.raises(MachineError):
            mc.build_pk_approx(3, 1)

    def test_rendering_is_pinned(self):
        """Mpk2-5, then the approximations (4,2), (4,3), (5,2), (5,3), (5,4),
        edge and update order included."""
        machines = [mc.build_pk_monitor(k) for k in range(2, 6)] + [
            mc.build_pk_approx(k, trackers)
            for k, trackers in ((4, 2), (4, 3), (5, 2), (5, 3), (5, 4))]
        text = "".join(mc.render_machine(m) for m in machines)
        assert hashlib.sha256(text.encode()).hexdigest() == \
            "df76de41166f3001fa018aa8a11e553ba98618d767c86c7cbad730b739b7d106"


class TestBinary:
    def test_rendering_is_pinned(self):
        """Mbin2-5: the bit decoder in front of the Mpk step."""
        text = "".join(mc.render_machine(mc.build_binary_pk(k)) for k in range(2, 6))
        assert hashlib.sha256(text.encode()).hexdigest() == \
            "2e92794ad7de3ccb3ffb9412cba121e0be242fd316600db9f38d390e29608b8e"

    def test_prefix_without_violation(self):
        m = mc.build_binary_pk(2)
        s = parse_finite("1 mark 1 0 mark", m.alphabet)
        assert mc.run(m, s)[1] == dom.INF

    def test_pumping_higher_value_violates(self):
        m = mc.build_binary_pk(2)
        t = parse_lasso("1 mark ; 1 0 mark", m.alphabet)
        assert mc.eval_binary_pk(t) == 3
        assert eval_liminf(mc.generated_verdict(m), t, SMALL).value == 3

    def test_first_unsupported_value_violates_immediately(self):
        t = parse_lasso("1 0 mark ; 0 mark", mc.BINARY_ALPHABET)
        # a block of value 2 with no prior block of value 1
        assert mc.eval_binary_pk(t) == 1

    @pytest.mark.parametrize("n,value", [(5, 19), (20, 79), (200, 799)])
    def test_delayed_violation(self, n, value):
        # each loop adds two blocks of value 2 and one of value 1, so the
        # n blocks of value 1 in the stem run out after about n loops
        t = parse_lasso("1 mark " * n + "; 1 0 mark 1 0 mark 1 mark", mc.BINARY_ALPHABET)
        assert mc.eval_binary_pk(t) == value == _scan_binary_pk(t, 3000)
        res = eval_liminf(mc.generated_verdict(mc.build_binary_pk(3)), t)
        assert (res.value, res.kind) == (value, LimitKind.EXACT)

    def test_loop_without_marks_never_violates(self):
        t = parse_lasso("1 mark ; 1 1 0", mc.BINARY_ALPHABET)
        assert mc.eval_binary_pk(t) == dom.INF == _scan_binary_pk(t, 3000)
        res = eval_liminf(mc.generated_verdict(mc.build_binary_pk(3)), t)
        assert (res.value, res.kind) == (dom.INF, LimitKind.EXACT)

    def test_machines_match_oracle_when_tracked(self):
        m = mc.build_binary_pk(3)
        v = mc.generated_verdict(m)
        for text in ("1 mark ; 1 0 mark", "1 mark 1 0 mark ; mark",
                     "; 1 mark", "1 mark 1 mark 1 0 mark ; 1 1 mark"):
            t = parse_lasso(text, m.alphabet)
            res = eval_liminf(v, t, LimitBudget(max_loop_iterations=200))
            truth = mc.eval_binary_pk(t)
            assert res.is_determined
            assert dom.NATINF.le(truth, res.value), text
            if truth != dom.INF and truth == res.value:
                assert res.value == truth


def _scan_binary_pk(t, iterations):
    """The number of separators up to the first block whose value v >= 2
    has occurred more often than v - 1, over the stem and ``iterations``
    loops; inf when there is none."""
    counts, block, marks = {}, 0, 0
    for sym in t.prefix(len(t.stem) + iterations * len(t.loop)):
        if sym != "mark":
            block = 2 * block + int(sym)
            continue
        marks += 1
        counts[block] = counts.get(block, 0) + 1
        if block >= 2 and counts[block] > counts.get(block - 1, 0):
            return marks
        block = 0
    return dom.INF


class TestDoubling:
    def test_closed_forms(self):
        m = mc.build_doubling_adder()
        s = parse_finite("a a a b", m.alphabet)
        assert mc.generated_verdict(m)(s) == 8 == mc.closed_v_add(s)
        c = mc.build_doubling_counter()
        assert mc.generated_verdict(c)(s) == 6 == mc.closed_v_count(s)

    def test_empty_block_conventions(self):
        m = mc.build_doubling_adder()
        s = parse_finite("b b", m.alphabet)
        assert mc.generated_verdict(m)(s) == 1
        c = mc.build_doubling_counter()
        assert mc.generated_verdict(c)(s) == 0

    def test_exponential_vs_linear_growth(self):
        va = mc.generated_verdict(mc.build_doubling_adder())
        vc = mc.generated_verdict(mc.build_doubling_counter())
        for n in range(1, 12):
            s = parse_finite(" ".join(["a"] * n), mc.DOUBLING_ALPHABET)
            assert va(s) == 2 ** n
            assert vc(s) == 2 * n

    def test_counter_registers_grow_linearly(self):
        rng = random.Random(23)
        for machine in (mc.build_mmax(), mc.build_doubling_counter()):
            for _ in range(40):
                s = random_finite_trace(rng, machine.alphabet, rng.randint(0, 30))
                (_, values), _ = mc.run(machine, s)
                assert all(v <= len(s) for v in values), machine.name

    def test_adder_grows_exponentially(self):
        m = mc.build_doubling_adder()
        s = parse_finite(" ".join(["a"] * 10), m.alphabet)
        (_, values), _ = mc.run(m, s)
        assert max(values) == 2 ** 9  # beyond any linear bound

    def test_lasso_limits(self):
        va = mc.generated_verdict(mc.build_doubling_adder())
        vc = mc.generated_verdict(mc.build_doubling_counter())
        for n in (1, 3, 7):
            t = parse_lasso(" ".join(["a"] * n) + " b ; b", mc.DOUBLING_ALPHABET)
            assert eval_limsup(va, t, SMALL).value == 2 ** n == mc.eval_doubling(t)
            assert eval_limsup(vc, t, SMALL).value == 2 * n


class TestGeneratedVerdictEquivalences:
    def test_mmax_equals_mrt_on_random_traces(self, server):
        v = mc.generated_verdict(mc.build_mmax())
        rng = random.Random(1)
        for _ in range(500):
            s = random_finite_trace(rng, server, rng.randint(0, 40))
            assert v(s) == qp.mrt(s)

    def test_constant_machine(self):
        a = Alphabet(("a",))
        m = mc.RegisterMachine("konst", (), ("q",), a, "q",
                               [mc.Edge("q", "a", mc.TRUE_GUARD, (), "q")],
                               {"q": mc.OUT_ZERO}, mc.InstructionSet.COUNTER,
                               dom.NATINF)
        v = mc.generated_verdict(m)
        assert v(FiniteTrace(("a", "a"), a)) == 0
        assert eval_limsup(v, lasso((), ("a",), a), SMALL).value == 0


DEMO_MACHINES = pathlib.Path(__file__).resolve().parents[1] / "demos" / "machines"

BUILT_MACHINES = {
    "Mmax": mc.build_mmax, "Mavg": mc.build_mavg, "Mavg2": mc.build_mavg_running,
    **{f"Mfin{cap}": partial(mc.build_finite_state_mrt, cap) for cap in (1, 2, 3, 4)},
    "Mkpair2": partial(mc.build_kpair_monitor, 2),
    "Mkpair3": partial(mc.build_kpair_monitor, 3),
    "Mkprio3": partial(mc.build_kpair_priority, 3),
    "Mkgrp3": partial(mc.build_kpair_grouped, 3),
    "Mkseq3": partial(mc.build_kpair_sequential, 3),
    "Mkseq4": partial(mc.build_kpair_sequential, 4),
    "Mpk4": partial(mc.build_pk_monitor, 4),
    "Mpk4l2": partial(mc.build_pk_approx, 4, 2),
    "Mpk4l3": partial(mc.build_pk_approx, 4, 3),
    "Mbin3": partial(mc.build_binary_pk, 3),
    "Madd": mc.build_doubling_adder, "Mcount": mc.build_doubling_counter,
    **{name: (lambda path=DEMO_MACHINES / name: mc.load_machine(path.read_text()))
       for name in ("mmax.mspec", "mavg.mspec")},
}


@lru_cache(maxsize=None)
def _built(name):
    """The machine and its edges grouped by (source, symbol)."""
    machine = BUILT_MACHINES[name]()
    groups = {}
    for e in machine.edges:
        groups.setdefault((e.source, e.symbol), []).append(e)
    return machine, groups


def _reference_update(u, valuation):
    if u.kind in ("zero", "one"):
        return int(u.kind == "one")
    if u.kind == "inc":
        return valuation[u.target] + 1
    if u.kind == "dec":
        return valuation[u.target] - 1
    if u.kind == "add":
        return valuation[u.target] + valuation[u.operand]
    return valuation[u.operand]


def _reference_output(out, valuation):
    """The value of the output expression ``out`` over the name-keyed
    valuation."""
    if out.kind == "inf":
        return dom.INF
    if out.kind == "affine":
        return sum(c * valuation[r] for r, c in out.parts) + out.const
    parts = [_reference_output(p, valuation) for p in out.parts]
    if out.kind == "div":
        num, den = parts
        return Fraction(num, den) if den else Fraction(0)
    return max(parts) if out.kind == "max" else tuple(parts)


def reference_run(machine, groups, symbols):
    """(value, config) after each prefix, from the source edges: the one
    edge whose guard holds fires, its updates reading the pre-step valuation."""
    state, valuation = machine.initial, dict.fromkeys(machine.registers, 0)

    def snapshot():
        return (_reference_output(machine.outputs[state], valuation),
                (state, tuple(valuation[r] for r in machine.registers)))

    seen = [snapshot()]
    for sym in symbols:
        fired = [e for e in groups[(state, sym)] if e.guard.holds(valuation)]
        assert len(fired) == 1, (state, sym, valuation)
        edge = fired[0]
        updated = dict(valuation)
        for u in edge.updates:
            updated[u.target] = _reference_update(u, valuation)
        state, valuation = edge.target, updated
        seen.append(snapshot())
    return seen


def _traces(alphabet):
    """Traces of length 0-60; half open on a doubled symbol (a double
    request on the server alphabets, which reaches a sink)."""
    sym = st.sampled_from(alphabet.symbols)
    doubled = st.tuples(sym, st.lists(sym, max_size=58)).map(lambda p: [p[0], p[0], *p[1]])
    return st.one_of(st.lists(sym, max_size=60), doubled)


class TestCompiledStepper:
    @pytest.mark.parametrize("name", sorted(BUILT_MACHINES))
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_matches_reference_interpreter(self, name, data):
        machine, groups = _built(name)
        symbols = data.draw(_traces(machine.alphabet))
        run = mc.MachineRun(machine)
        got = [(run.value, run.config())]
        for sym in symbols:
            got.append((run.step(sym), run.config()))
        assert got == reference_run(machine, groups, symbols)
        assert mc.run(machine, symbols) == got[-1][::-1]

    def test_unknown_symbol_names_it(self):
        run = mc.MachineRun(mc.build_mmax())
        with pytest.raises(MachineError, match="'bogus'"):
            run.step("bogus")


class TestRendering:
    @pytest.mark.parametrize("name", sorted(BUILT_MACHINES))
    def test_render_load_round_trip(self, name):
        """The loaded rendering gives the same verdict after every trace of
        length <= 6; runs that reach the same pair of configurations are
        stepped on once, since configurations fix every later value."""
        machine, _ = _built(name)
        text = mc.render_machine(machine)
        again = mc.load_machine(text, output_domain=machine.output_domain)
        assert mc.render_machine(again) == text
        frontier = {None: (mc.MachineRun(machine), mc.MachineRun(again))}
        for depth in range(7):
            reached = {}
            for run, run_again in frontier.values():
                assert run.value == run_again.value
                if depth == 6:
                    continue
                for sym in machine.alphabet:
                    run2, run_again2 = copy.copy(run), copy.copy(run_again)
                    run2.step(sym)
                    run_again2.step(sym)
                    reached[run2.config(), run_again2.config()] = run2, run_again2
            frontier = reached


SERVER = qp.server_alphabet(1).alphabet
MMAX = mc.generated_verdict(mc.load_machine((DEMO_MACHINES / "mmax.mspec").read_text(),
                                            name="Mmax"))
MAVG = mc.generated_verdict(mc.load_machine((DEMO_MACHINES / "mavg.mspec").read_text(),
                                            name="Mavg"))
MAVG3 = mc.generated_verdict(mc.build_mavg())
MFIN = {cap: mc.generated_verdict(mc.build_finite_state_mrt(cap)) for cap in (1, 2, 3, 4)}
MPK = {k: mc.generated_verdict(mc.build_pk_monitor(k)) for k in (3, 4)}
# block lengths that straddle the 1024-iteration default budget
long_blocks = st.one_of(st.integers(0, 3), st.integers(900, 2600))


def _words(alphabet, min_size, max_size):
    return st.lists(st.sampled_from(alphabet.symbols), min_size=min_size, max_size=max_size)


@st.composite
def server_lassos(draw):
    """A short stem, a long run of ``other`` (which leaves a request pending
    or a counter far behind the maximum) and a short tail, then a loop."""
    stem = draw(_words(SERVER, 0, 6)) + ["other"] * draw(long_blocks) + draw(_words(SERVER, 0, 4))
    return lasso(stem, draw(_words(SERVER, 1, 5)), SERVER)


@st.composite
def pk_lassos(draw, k):
    """A short stem, then letter blocks ``1^c1 ... k^ck`` with c1 >= ... >= ck
    whose margins may exceed the budget, then a loop: a loop that lowers a
    long margin violates the ordering only after that many iterations."""
    alphabet = mc.pk_alphabet(k)
    margins = [draw(long_blocks) for _ in range(k - 1)]
    last = draw(st.integers(0, 3))
    counts = [last + sum(margins[j:]) for j in range(k - 1)] + [last]
    blocks = [str(j + 1) for j in range(k) for _ in range(counts[j])]
    return lasso(draw(_words(alphabet, 0, 3)) + blocks, draw(_words(alphabet, 1, 5)), alphabet)


def _both_limits(verdict, t, budget=LimitBudget()):
    return eval_limsup(verdict, t, budget), eval_liminf(verdict, t, budget)


def _proven(res, truth):
    """The limit equals the truth and was closed by acceleration, a few
    stepped iterations in, whatever the stem or the flip point."""
    assert res.value == truth and res.iterations_used <= 8, res
    kind = LimitKind.DIVERGED_TO_TOP if truth == dom.INF else LimitKind.EXACT
    assert res.kind is kind or (truth == dom.INF and res.kind is LimitKind.EXACT), res


class TestLoopAcceleration:
    """Limits of grammar-output machines against the ground-truth evaluators,
    on lassos whose stems and guard flips lie past the iteration budget."""

    @settings(max_examples=150, deadline=None)
    @given(server_lassos())
    def test_mmax_and_finite_state_against_mrt(self, t):
        truth = qp.eval_mrt(t)
        for res in _both_limits(MMAX, t):
            _proven(res, truth)
        for cap, verdict in MFIN.items():
            for res in _both_limits(verdict, t):
                assert res.kind is LimitKind.EXACT and res.value == min(cap, truth), res

    @settings(max_examples=150, deadline=None)
    @given(server_lassos())
    def test_mavg_against_art(self, t):
        truth = qp.eval_art(t)
        for res in _both_limits(MAVG, t) + _both_limits(MAVG3, t):
            _proven(res, truth)

    @pytest.mark.parametrize("k", [3, 4])
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_pk_against_eval_pk(self, k, data):
        t = data.draw(pk_lassos(k))
        truth = mc.eval_pk(t, k)
        for res in _both_limits(MPK[k], t):
            assert res.value == truth and res.kind is LimitKind.EXACT, res
            assert res.iterations_used <= 8, res

    def test_pk_violation_past_the_budget(self):
        m = mc.build_pk_monitor(2)
        t = parse_lasso("1 " * 1500 + "; 1 2 2", m.alphabet)
        assert mc.eval_pk(t, 2) == 6003
        res = eval_limsup(mc.generated_verdict(m), t)
        assert (res.value, res.kind) == (6003, LimitKind.EXACT)
        # two iterations on one path, the jump, the flipping iteration, and
        # one frozen iteration whose configuration recurs
        assert res.iterations_used == 4

    def test_mavg_average_is_exact(self):
        t = parse_lasso("req other ack ; req other other ack other", SERVER)
        assert qp.eval_art(t) == 3
        for res in _both_limits(MAVG, t):
            assert (res.value, res.kind) == (3, LimitKind.EXACT) and res.iterations_used <= 8

    def test_pending_forever_diverges(self):
        t = parse_lasso("req ; other", SERVER)
        res = eval_limsup(MMAX, t)
        assert (res.value, res.kind) == (dom.INF, LimitKind.DIVERGED_TO_TOP)
        assert res.iterations_used <= 8
        res = eval_liminf(complement(MMAX), t)
        assert (res.value, res.kind) == (dom.INF, LimitKind.DIVERGED_TO_BOTTOM)

    def test_untracked_violation_stays_infinite(self):
        t = parse_lasso("1 2 3 ; 4", mc.pk_alphabet(4))
        assert mc.eval_pk(t, 4) == 5
        res = eval_liminf(mc.generated_verdict(mc.build_pk_approx(4, 2)), t)
        assert (res.value, res.kind) == (dom.INF, LimitKind.EXACT) and res.iterations_used <= 8

    def test_flip_that_changes_a_reset(self):
        # y counts up until x reaches 3, then is reset in every iteration;
        # the output right after ``a`` reads y from before the reset
        ab = Alphabet(("a", "b"))
        edges = [mc.Edge("q", "a", mc.TRUE_GUARD, (mc.Update("x", "inc"),), "q"),
                 mc.Edge("q", "b", mc.Guard((mc.GuardAtom("x", 3),)),
                         (mc.Update("y", "zero"),), "q"),
                 mc.Edge("q", "b", mc.Guard((mc.GuardAtom("x", 3, negated=True),)),
                         (mc.Update("y", "inc"),), "q")]
        m = mc.RegisterMachine("reset", ("x", "y"), ("q",), ab, "q", edges,
                               {"q": mc.out_reg("y")}, mc.InstructionSet.COUNTER_INC_DEC,
                               dom.NATINF)
        t = lasso((), ("a", "b"), ab)
        assert verdict_sequence(mc.generated_verdict(m), t.prefix(8)) == [0, 0, 1, 1, 2, 2, 0, 0, 0]
        for res in _both_limits(mc.generated_verdict(m), t):
            assert (res.value, res.kind) == (0, LimitKind.EXACT)

    @pytest.mark.parametrize("text,value,kind", [
        ("max(x,5)", dom.INF, LimitKind.DIVERGED_TO_TOP),
        ("max(inf,x)", dom.INF, LimitKind.EXACT),
        ("max(y,3)", 3, LimitKind.EXACT),
        ("-x", dom.NEG_INF, LimitKind.DIVERGED_TO_BOTTOM),
        ("(x+1)/(2*x+3)", Fraction(1, 2), LimitKind.EXACT),
        ("(x)/(y)", 0, LimitKind.EXACT),
        ("(x,inf)", (dom.INF, dom.INF), LimitKind.DIVERGED_TO_TOP),
        ("(y+4,max(y,x))", (4, dom.INF), LimitKind.DIVERGED_TO_TOP),
        ("(y+4,inf)", (4, dom.INF), LimitKind.EXACT),
    ])
    def test_output_forms_close_in_form(self, text, value, kind):
        # x counts the a's while y stays 0; each form's limit is read off
        # the loop's composition after two iterations
        a = Alphabet(("a",))
        out = mc._parse_output(text)
        codomain = dom.product(dom.RATINF, 2) if out.kind == "tuple" else dom.RATINF
        m = mc.RegisterMachine("forms", ("x", "y"), ("q",), a, "q",
                               [mc.Edge("q", "a", mc.TRUE_GUARD, (mc.Update("x", "inc"),), "q")],
                               {"q": out}, mc.InstructionSet.EXTENDED, codomain)
        res = eval_limsup(mc.generated_verdict(m), lasso(("a",) * 3000, ("a",), a))
        assert (res.value, res.kind, res.iterations_used) == (value, kind, 2)

    def test_still_quotient_settles_while_another_register_counts(self):
        # the loop moves z but neither register of the quotient, so the
        # configuration never recurs and acceleration reads t/c at the start
        m = mc.load_machine("registers: t c z\ninstruction-set: extended\nstates: q\n"
                            "initial: q\nedge: q a [true] / t:=1, c:=1 -> q\n"
                            "edge: q b [true] / z:=z+1 -> q\noutput: q = (t)/(c)\n")
        for res in _both_limits(mc.generated_verdict(m), parse_lasso("a ; b", m.alphabet)):
            assert (res.render(), res.iterations_used) == ("exact,1", 2)

    @pytest.mark.parametrize("n", [0, 1, 7, 2000])
    @pytest.mark.parametrize("loop", ["a", "a a b", "b a"])
    def test_counter_stops_at_its_bound(self, n, loop):
        # b raises the bound y; a counts x up and stops once x reaches y,
        # freezing x as the output: a jump past the catch-up point shows
        ab = Alphabet(("a", "b"))
        edges = [mc.Edge("run", "b", mc.TRUE_GUARD, (mc.Update("y", "inc"),), "run"),
                 mc.Edge("run", "a", mc.Guard((mc.GuardAtom("x", "y"),)), (), "stop"),
                 mc.Edge("run", "a", mc.Guard((mc.GuardAtom("x", "y", negated=True),)),
                         (mc.Update("x", "inc"),), "run"),
                 mc.Edge("stop", "a", mc.TRUE_GUARD, (), "stop"),
                 mc.Edge("stop", "b", mc.TRUE_GUARD, (), "stop")]
        m = mc.RegisterMachine("catch", ("x", "y"), ("run", "stop"), ab, "run", edges,
                               {"run": mc.OUT_INF, "stop": mc.out_reg("x")},
                               mc.InstructionSet.COUNTER, dom.NATINF)
        t = parse_lasso("b " * n + "; " + loop, ab)
        (state, _), truth = mc.run(m, t.prefix(len(t.stem) + len(t.loop) * (n + 2)))
        assert (state == "stop") == (loop != "b a")
        for res in _both_limits(mc.generated_verdict(m), t):
            assert (res.value, res.kind) == (truth, LimitKind.EXACT) and res.iterations_used <= 8
            if n == 2000 and loop != "b a":
                # as in the Mpk2 case: the jump lands right before the flip
                assert res.iterations_used == 4


KPAIR = {k: mc.generated_verdict(mc.build_kpair_monitor(k)) for k in (2, 3)}
# an under-approximation per pair count: the priority and the sequential scheme
KPAIR_BELOW = {2: mc.generated_verdict(mc.build_kpair_priority(2)),
               3: mc.generated_verdict(mc.build_kpair_sequential(3))}
MADD = mc.generated_verdict(mc.build_doubling_adder())
MCOUNT = mc.generated_verdict(mc.build_doubling_counter())
# runs long enough that a guard flip they set up lies past the 1024-iteration budget
long_runs = st.integers(1100, 3000)


@st.composite
def kpair_lassos(draw, k):
    """A short stem, a long run of ``other`` (which leaves requests pending
    or counters far behind their maxima) and a short tail, then a loop."""
    alphabet = qp.server_alphabet(k).alphabet
    stem = draw(_words(alphabet, 0, 6)) + ["other"] * draw(long_runs) + draw(_words(alphabet, 0, 4))
    return lasso(stem, draw(_words(alphabet, 1, 5)), alphabet)


@st.composite
def doubling_lassos(draw):
    """A short stem, a long a-run and a short tail, then a loop."""
    ab = mc.DOUBLING_ALPHABET
    stem = draw(_words(ab, 0, 4)) + ["a"] * draw(long_runs) + draw(_words(ab, 0, 4))
    return lasso(stem, draw(_words(ab, 1, 5)), ab)


class TestTupleAndMaxOutputLimits:
    """Limits of machines with tuple, constant and max outputs against the
    ground-truth evaluators, on lassos whose guard flips lie past the budget."""

    @pytest.mark.parametrize("k", [2, 3])
    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_kpair_against_eval_kpair_mrt(self, k, data):
        t = data.draw(kpair_lassos(k))
        truth = qp.eval_kpair_mrt(t, k)
        for res in _both_limits(KPAIR[k], t):
            assert res.is_determined and res.value == truth, res
        for res in _both_limits(KPAIR_BELOW[k], t):
            assert res.is_determined and dom.product(dom.NATINF, k).le(res.value, truth), res

    @settings(max_examples=30, deadline=None)
    @given(doubling_lassos())
    def test_doubling_against_eval_doubling(self, t):
        """Mcount's limits are all settled and right.  Madd's doubling
        register is not affine, so past a long a-run its limits may rest on
        the window rules, which take a transient longer than the budget for
        the limit; only the limits it settles within the budget (by a
        configuration cycle) are compared."""
        truth = mc.eval_doubling(t)
        twice = dom.INF if truth == dom.INF else \
            2 * mc.longest_a_run(t.prefix(len(t.stem) + 2 * len(t.loop)))
        for res in _both_limits(MADD, t):
            if res.iterations_used < LimitBudget().max_loop_iterations:
                assert res.is_determined and res.value == truth, res
        for res in _both_limits(MCOUNT, t):
            assert res.is_determined and res.value == twice, res

    def test_kpair_pending_request_behind_a_long_run(self):
        # pair 1's last request is never answered; its counter catches up
        # with the 2601 recorded before only after 1300 loop iterations
        m = mc.build_kpair_monitor(2)
        t = parse_lasso("req2 req1 " + "other " * 2600 + "ack1 req1 ; req2 req2", m.alphabet)
        assert qp.eval_kpair_mrt(t, 2) == (dom.INF, dom.INF)
        for res in _both_limits(KPAIR[2], t):
            assert (res.value, res.kind) == ((dom.INF, dom.INF), LimitKind.DIVERGED_TO_TOP)
        # read in the inverse order, the escaping component goes to the bottom
        res = eval_liminf(complement(KPAIR[2]), t)
        assert (res.value, res.kind) == ((dom.INF, dom.INF), LimitKind.DIVERGED_TO_BOTTOM)

