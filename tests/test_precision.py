import json

import pytest

from quantmon import domain as dom
from quantmon import machine as mc
from quantmon import precision as pr
from quantmon import qprop as qp
from quantmon.boolprop import Side
from quantmon.errors import UnsupportedDomainError
from quantmon.trace import Alphabet, parse_lasso
from quantmon.verdict import (FunctionStepper, LimitBudget, VerdictFunction,
                              constant_verdict, eval_liminf, eval_limsup)

SMALL = LimitBudget(max_loop_iterations=48)
ABC = Alphabet(("a", "b", "c"))


def squares_verdict():
    # the squared prefix length, which no limit rule settles
    factory = lambda: FunctionStepper(0, lambda k, sym: k + 1, lambda k: k * k)
    return VerdictFunction(dom.NATINF, factory, name="sq")


def contains_verdict(symbols, name):
    """T once any of the given symbols occurred (irrevocable)."""
    factory = lambda: FunctionStepper(
        False, lambda st, sym: st or sym in symbols, lambda st: st)
    return VerdictFunction(dom.BT, stepper_factory=factory, name=name)


@pytest.fixture(scope="module")
def eventually_family():
    return {"a": contains_verdict({"a"}, "v_a"),
            "ab": contains_verdict({"a", "b"}, "v_ab"),
            "bc": contains_verdict({"b", "c"}, "v_bc"),
            "abc": contains_verdict({"a", "b", "c"}, "v_abc")}


@pytest.fixture(scope="module")
def abc_suite():
    return pr.default_suite(ABC)


def test_suite_traces_share_an_alphabet():
    mixed = (parse_lasso("a ; b", ABC), parse_lasso("a ; b", Alphabet(("a", "b"))))
    with pytest.raises(ValueError) as exc:
        pr.LassoSuite(mixed)
    assert str(exc.value) == "suite traces must share an alphabet"


class TestCompare:
    def test_wider_watchlist_is_more_precise(self, eventually_family, abc_suite):
        report = pr.compare(eventually_family["ab"], eventually_family["a"],
                            abc_suite, Side.BELOW, SMALL)
        assert report.relation is pr.PrecisionRelation.MORE_PRECISE
        assert report.witness.render() == "; b"

    def test_overlapping_watchlists_are_incomparable(self, eventually_family,
                                                     abc_suite):
        report = pr.compare(eventually_family["ab"], eventually_family["bc"],
                            abc_suite, Side.BELOW, SMALL)
        assert report.relation is pr.PrecisionRelation.INCOMPARABLE
        w1, w2 = report.witness_pair
        assert {w1.render(), w2.render()} == {"; a", "; c"}

    def test_self_comparison_is_equal(self, eventually_family, abc_suite):
        report = pr.compare(eventually_family["a"], eventually_family["a"],
                            abc_suite, Side.BELOW, SMALL)
        assert report.relation is pr.PrecisionRelation.EQUALLY_PRECISE

    def test_universal_monitors_are_equally_precise(self, eventually_family,
                                                    abc_suite):
        # two verdicts deciding the property on every trace tie exactly
        report = pr.compare(eventually_family["abc"],
                            contains_verdict({"a", "b", "c"}, "v_abc2"),
                            abc_suite, Side.BELOW, SMALL)
        assert report.relation is pr.PrecisionRelation.EQUALLY_PRECISE

    def test_antisymmetry(self, eventually_family, abc_suite):
        fwd = pr.compare(eventually_family["ab"], eventually_family["a"],
                         abc_suite, Side.BELOW, SMALL)
        rev = pr.compare(eventually_family["a"], eventually_family["ab"],
                         abc_suite, Side.BELOW, SMALL)
        assert fwd.relation is pr.PrecisionRelation.MORE_PRECISE
        assert rev.relation is pr.PrecisionRelation.LESS_PRECISE

    def test_restricting_suite_never_flips_direction(self, eventually_family):
        full = pr.default_suite(ABC)
        sub = pr.LassoSuite(full.traces[::4], "thinned")
        a, ab = eventually_family["a"], eventually_family["ab"]
        full_rel = pr.compare(ab, a, full, Side.BELOW, SMALL).relation
        sub_rel = pr.compare(ab, a, sub, Side.BELOW, SMALL).relation
        assert full_rel is pr.PrecisionRelation.MORE_PRECISE
        assert sub_rel in (pr.PrecisionRelation.MORE_PRECISE,
                           pr.PrecisionRelation.EQUALLY_PRECISE)

    def test_codomain_mismatch_rejected(self, eventually_family):
        with pytest.raises(UnsupportedDomainError):
            pr.compare(eventually_family["a"], constant_verdict(dom.NATINF, 0),
                       pr.default_suite(ABC), Side.BELOW)

    def test_undetermined_blocks_dominance(self):
        a = Alphabet(("a", "b"))
        # one verdict resolves everywhere, the other never does
        wild = squares_verdict()
        flat = constant_verdict(dom.NATINF, 0)
        suite = pr.LassoSuite((parse_lasso("; a", a),), "one")
        report = pr.compare(flat, wild, suite, Side.BELOW, SMALL)
        assert report.relation is pr.PrecisionRelation.UNDETERMINED
        assert report.unresolved

    def test_above_side_orientation(self, server):
        # from above, smaller limits are more precise
        v_tight = qp.mrt_verdict()
        v_loose = constant_verdict(dom.NATINF, dom.INF)
        suite = pr.LassoSuite((parse_lasso("req ack ; other", server),
                               parse_lasso("; other", server)), "above-pair")
        report = pr.compare(v_tight, v_loose, suite, Side.ABOVE, SMALL)
        assert report.relation is pr.PrecisionRelation.MORE_PRECISE


class TestHierarchy:
    def test_adder_beats_counter_for_doubling(self):
        suite = pr.LassoSuite(tuple(
            parse_lasso(" ".join(["a"] * n) + " b ; b", mc.DOUBLING_ALPHABET)
            for n in range(1, 9)), "blocks")
        family = [(1, mc.generated_verdict(mc.build_doubling_counter())),
                  (2, mc.generated_verdict(mc.build_doubling_adder()))]
        results = pr.hierarchy_experiment(family, suite, Side.BELOW, SMALL,
                                          prop=mc.doubling_property())
        assert results[0]["report"].relation is pr.PrecisionRelation.MORE_PRECISE
        assert results[0]["sound"] == (True, True)

    def test_finite_state_budget_chain(self, server):
        suite = pr.LassoSuite((parse_lasso("req other ack ; other", server),
                               parse_lasso("req other other ack ; other", server),
                               parse_lasso("req ack ; other", server)), "mrt-suite")
        family = [(cap, mc.generated_verdict(mc.build_finite_state_mrt(cap)))
                  for cap in (1, 2, 3)]
        results = pr.hierarchy_experiment(family, suite, Side.BELOW, SMALL,
                                          prop=qp.mrt_property())
        for entry in results:
            assert entry["report"].relation is pr.PrecisionRelation.MORE_PRECISE
            assert entry["sound"] == (True, True)

    @pytest.mark.parametrize("side", [Side.BELOW, Side.ABOVE])
    def test_one_limit_row_per_member(self, server, monkeypatch, side):
        # m verdicts on n traces take m*n limits, and each adjacent report
        # equals the per-pair compare
        suite = pr.exhaustive_suite(server, 1, 2)
        family = [(cap, mc.generated_verdict(mc.build_finite_state_mrt(cap)))
                  for cap in (1, 2, 3)]
        family.append((4, mc.generated_verdict(mc.build_mmax())))
        calls = []
        for name in ("eval_limsup", "eval_liminf"):
            original = getattr(pr, name)
            monkeypatch.setattr(pr, name, lambda *args, _f=original, _n=name:
                                calls.append(_n) or _f(*args))
        results = pr.hierarchy_experiment(family, suite, side, SMALL,
                                          prop=qp.mrt_property())
        want = "eval_limsup" if side is Side.BELOW else "eval_liminf"
        assert calls == [want] * (len(family) * len(suite))
        assert [e["pair"] for e in results] == [(2, 1), (3, 2), (4, 3)]
        for (_, lo), (_, hi), entry in zip(family, family[1:], results):
            assert entry["report"] == pr.compare(hi, lo, suite, side, SMALL)
        limit = eval_limsup if side is Side.BELOW else eval_liminf
        covers = (lambda lim, pv: lim <= pv) if side is Side.BELOW else \
            (lambda lim, pv: pv <= lim)
        sound = {}
        for idx, v in family:
            lims = [limit(v, t, SMALL) for t in suite]
            sound[idx] = all(covers(r.value, qp.eval_mrt(t))
                             for r, t in zip(lims, suite) if r.is_determined)
        assert [e["sound"] for e in results] == [(sound[hi], sound[lo])
                                                 for hi, lo in (e["pair"] for e in results)]

    def test_kpair_counter_budgets(self):
        # the full 2k-counter machine beats the (k+1)-counter priority scheme
        # on overlapping requests, which in turn beats the 2-counter
        # sequential-witness scheme; the grouped scheme is excluded from the
        # below-side ordering because it overshoots one group member
        k = 2
        exact_machine = mc.build_kpair_monitor(k)
        exact = mc.generated_verdict(exact_machine)
        prio = mc.generated_verdict(mc.build_kpair_approx(k, k + 1))
        seq = mc.generated_verdict(mc.build_kpair_approx(k, 2))
        alphabet = exact_machine.alphabet
        overlap = pr.LassoSuite((
            parse_lasso("req1 req2 ack2 ack1 ; other", alphabet),
            parse_lasso("req1 ack1 req2 ack2 ; other", alphabet),
            parse_lasso("; other", alphabet)), "overlap")
        report = pr.compare(exact, prio, overlap, Side.BELOW, SMALL)
        assert report.relation is pr.PrecisionRelation.MORE_PRECISE
        disjoint = pr.LassoSuite((
            parse_lasso("req1 other ack1 req2 ack2 ; other", alphabet),
            parse_lasso("req2 ack2 ; other", alphabet),
            parse_lasso("; other", alphabet)), "disjoint")
        report = pr.compare(prio, seq, disjoint, Side.BELOW, SMALL)
        assert report.relation is pr.PrecisionRelation.MORE_PRECISE
        # the grouped register is not a below-approximation of the property
        grouped_machine = mc.build_kpair_grouped(3)
        grouped = mc.generated_verdict(grouped_machine)
        t = parse_lasso("req1 other ack1 ; other", grouped_machine.alphabet)
        got = eval_limsup(grouped, t, SMALL).value
        truth = qp.eval_kpair_mrt(t, 3)
        assert not dom.product(dom.NATINF, 3).le(got, truth)


class TestReporting:
    def test_jsonl_shape(self, eventually_family, abc_suite):
        report = pr.compare(eventually_family["ab"], eventually_family["a"],
                            abc_suite, Side.BELOW, SMALL)
        lines = pr.report_jsonl(report, "vab", "va")
        rows = [json.loads(line) for line in lines]
        assert len(rows) == len(abc_suite) + 1
        assert {"trace", "limit_vab", "limit_va", "relation"} <= set(rows[0])
        assert rows[-1]["summary"] == "more-precise"

    def test_jsonl_keys_both_limits_of_a_self_comparison(self, eventually_family, abc_suite):
        # equal names get numbered keys, so neither limit overwrites the other
        report = pr.compare(eventually_family["ab"], eventually_family["ab"],
                            abc_suite, Side.BELOW, SMALL)
        rows = [json.loads(line) for line in pr.report_jsonl(report, "vab", "vab")[:-1]]
        assert all(set(r) == {"trace", "limit_vab#1", "limit_vab#2", "relation"}
                   for r in rows)
        assert all(r["limit_vab#1"] == r["limit_vab#2"] for r in rows)

    def test_incomparable_report_names_a_witness_pair(self, eventually_family, abc_suite):
        report = pr.compare(eventually_family["ab"], eventually_family["bc"],
                            abc_suite, Side.BELOW, SMALL)
        summary = json.loads(pr.report_jsonl(report)[-1])
        assert summary["summary"] == "incomparable"
        # first where v_ab misses what v_bc sees, then the other way round
        assert summary["witness_pair"] == ["; c", "; a"]

    def test_summary_counts_unresolved_traces(self):
        ab = Alphabet(("a", "b"))
        wild = squares_verdict()
        suite = pr.LassoSuite((parse_lasso("; a", ab), parse_lasso("a ; b", ab),
                               parse_lasso("b ; a b", ab)), "three")
        report = pr.compare(constant_verdict(dom.NATINF, 0), wild, suite, Side.BELOW, SMALL)
        assert report.summary() == "undetermined (side=below, suite=three), unresolved=3"
        assert json.loads(pr.report_jsonl(report)[-1])["unresolved"] == 3

    def test_suite_constructors(self):
        ab = Alphabet(("a", "b"))
        ex = pr.exhaustive_suite(ab, 1, 2)
        assert len(ex) == 3 * (2 + 4)
        sampled = pr.sampled_suite(ab, 20, seed=1)
        assert len(sampled) == 20
        assert pr.sampled_suite(ab, 20, seed=1).traces == sampled.traces
        big = pr.default_suite(qp.server_alphabet(2).alphabet)
        assert big.provenance.startswith("sample:")
