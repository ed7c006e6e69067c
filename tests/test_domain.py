from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from quantmon import domain as dom
from quantmon.errors import (DomainMismatchError, InputError, NoBoundError,
                             UndefinedArithmeticError, UnsupportedDomainError)


class TestOrderTables:
    def test_flat_truth_values_are_incomparable(self):
        assert dom.B.leq(True, False) is dom.INCOMPARABLE
        assert dom.B.leq(False, True) is dom.INCOMPARABLE
        assert dom.B.leq(True, True) is True

    def test_bottomed_domain_order(self):
        assert dom.BBOT.leq(dom.BOT, True) is True
        assert dom.BBOT.leq(dom.BOT, False) is True
        assert dom.BBOT.leq(True, dom.BOT) is False
        assert dom.BBOT.leq(True, False) is dom.INCOMPARABLE

    def test_true_topped_order(self):
        assert dom.BT.leq(False, True) is True
        assert dom.BT.leq(True, False) is False

    def test_false_topped_order(self):
        assert dom.BF.leq(True, False) is True
        assert dom.BF.leq(False, True) is False

    def test_boolean_tables_exhaustively(self):
        # strictly-less pairs of each boolean domain, spelled out in full
        expected = {
            "B": set(),
            "Bbot": {("bot", "T"), ("bot", "F")},
            "Bt": {("F", "T")},
            "Bf": {("T", "F")},
        }
        for d in dom.BOOLEAN_DOMAINS:
            carrier = [v for v in (True, False, dom.BOT) if d.contains(v)]
            strict = {(dom.render_value(a), dom.render_value(b))
                      for a in carrier for b in carrier
                      if d.leq(a, b) is True and a is not b}
            assert strict == expected[d.name], d.name

    def test_numeric_examples(self):
        assert dom.NATINF.leq(1, 2) is True
        assert dom.NATINF.leq(dom.INF, 5) is False
        assert dom.RATINF.leq(Fraction(4, 3), Fraction(3, 2)) is True

    def test_inverse_reverses(self):
        inv = dom.inverse(dom.NATINF)
        assert inv.leq(1, 2) is False
        assert inv.leq(2, 1) is True
        assert inv.bottom == dom.INF and inv.top == 0

    def test_double_inverse_collapses(self):
        assert dom.inverse(dom.inverse(dom.NATINF)) == dom.NATINF


class TestBounds:
    def test_sup_examples(self):
        assert dom.BBOT.sup([dom.BOT, True]) is True
        assert dom.NATINF.sup([]) == 0
        assert dom.product(dom.NATINF, 2).sup([(1, 5), (3, 2)]) == (3, 5)

    def test_inf_examples(self):
        assert dom.BT.inf([True, False]) is False
        assert dom.NATINF.inf([dom.INF, 3]) == 3
        with pytest.raises(NoBoundError):
            dom.B.inf([True, False])

    def test_no_sup_for_flat_truth_values(self):
        with pytest.raises(NoBoundError):
            dom.B.sup([True, False])
        with pytest.raises(NoBoundError):
            dom.BBOT.sup([True, False])

    def test_empty_bounds_only_with_extrema(self):
        with pytest.raises(NoBoundError):
            dom.B.sup([])
        assert dom.BBOT.sup([]) is dom.BOT
        assert dom.NATINF.inf([]) == dom.INF
        assert dom.RATINF.sup([]) == dom.NEG_INF

    def test_empty_bounds_of_a_product(self):
        pair = dom.product(dom.NATINF, 2)
        assert pair.sup([]) == (0, 0)
        assert pair.inf([]) == (dom.INF, dom.INF)
        flat = dom.product(dom.B, 2)
        for bound in (flat.sup, flat.inf):
            with pytest.raises(NoBoundError, match="prod:B:2"):
                bound([])

    def test_singleton_sup_is_identity(self):
        for d, v in ((dom.B, True), (dom.NATINF, 7), (dom.BBOT, dom.BOT)):
            assert d.sup([v]) == v
            assert d.inf([v]) == v

    def test_carrier_checks(self):
        with pytest.raises(DomainMismatchError):
            dom.NATINF.leq(-1, 2)
        with pytest.raises(DomainMismatchError):
            dom.B.sup([True, 3])
        with pytest.raises(DomainMismatchError):
            dom.NATINF.check(True)  # booleans are not numbers here

    @pytest.mark.parametrize("d", [dom.B, dom.BBOT, dom.BT, dom.BF], ids=lambda d: d.name)
    @pytest.mark.parametrize("v", [True, False, dom.BOT, 0, 1, None], ids=repr)
    def test_boolean_contains(self, d, v):
        # 0 and 1 equal False and True but are numbers, not truth values
        members = (True, False, dom.BOT) if d is dom.BBOT else (True, False)
        assert d.contains(v) is any(v is m for m in members)

    def test_numeric_carriers(self):
        for d in (dom.NATINF, dom.INTINF, dom.RATINF):
            assert not d.contains(True) and not d.contains(False)
        assert dom.INTINF.contains(Fraction(-4, 2)) and dom.INTINF.contains(dom.NEG_INF)
        assert not dom.INTINF.contains(Fraction(1, 2))
        assert dom.RATINF.contains(Fraction(1, 2))


nat_values = st.one_of(st.integers(min_value=0, max_value=40), st.just(dom.INF))


class TestLawsByProperty:
    @given(nat_values, nat_values)
    def test_total_domain_trichotomy(self, a, b):
        rel_ab = dom.NATINF.leq(a, b)
        rel_ba = dom.NATINF.leq(b, a)
        assert rel_ab is True or rel_ba is True
        if a != b:
            assert rel_ab != rel_ba

    @given(st.lists(nat_values, min_size=1, max_size=6),
           st.lists(nat_values, min_size=1, max_size=6))
    def test_sup_is_a_set_operation(self, xs, ys):
        d = dom.NATINF
        assert d.sup(xs) == d.sup(xs + xs)
        assert d.sup(xs + ys) == d.sup([d.sup(xs), d.sup(ys)])
        assert d.sup(xs + ys) == d.sup(ys + xs)

    @given(nat_values, nat_values)
    def test_inverse_flips_every_pair(self, a, b):
        inv = dom.inverse(dom.NATINF)
        assert inv.leq(a, b) == dom.NATINF.leq(b, a)

    def test_product_incomparability(self):
        d = dom.product(dom.NATINF, 2)
        assert d.leq((1, 5), (3, 2)) is dom.INCOMPARABLE
        assert d.leq((1, 2), (1, 2)) is True
        assert d.leq((3, 5), (1, 2)) is False


# magnitudes up to past 2**64, where ints stop fitting a machine word
quotient_parts = st.one_of(st.integers(-40, 40), st.integers(-2**100, 2**100))


class TestFraction:
    @given(quotient_parts, quotient_parts.filter(bool))
    @example(0, 7)
    @example(0, -7)
    @example(6, -4)
    @example(-6, -4)
    @example(2**64 * 6, -(2**64 * 4))
    @example(3**50, 2**70 + 1)
    def test_matches_the_constructor(self, n, d):
        """``fraction`` sets Fraction's slots itself, so check it against the
        constructor: reduced, with the sign on the numerator."""
        got, want = dom.fraction(n, d), Fraction(n, d)
        assert type(got) is Fraction
        assert got == want and repr(got) == repr(want) and hash(got) == hash(want)


class TestNamesAndRendering:
    @pytest.mark.parametrize("name", ["B", "Bbot", "Bt", "Bf", "natinf", "intinf",
                                      "ratinf", "prod:natinf:2", "inv:Bt",
                                      "prod:inv:natinf:3"])
    def test_parse_domain_names(self, name):
        d = dom.parse_domain(name)
        assert d.name == name or name.startswith("prod:inv")  # nested keeps semantics

    def test_equal_domains_hash_alike(self):
        assert {dom.product(dom.NATINF, 2): "pair"}[dom.parse_domain("prod:natinf:2")] == "pair"
        assert len({dom.inverse(dom.BT), dom.parse_domain("inv:Bt"), dom.BT}) == 2

    def test_parse_domain_rejects_garbage(self):
        with pytest.raises(UnsupportedDomainError):
            dom.parse_domain("nosuch")
        with pytest.raises(UnsupportedDomainError):
            dom.parse_domain("prod:natinf:0")

    @pytest.mark.parametrize("value,text", [
        (True, "T"), (False, "F"), (dom.BOT, "bot"), (dom.INF, "inf"),
        (dom.NEG_INF, "-inf"), (7, "7"), (Fraction(4, 3), "4/3"),
        (Fraction(-4, 3), "-4/3"), (Fraction(3, 1), "3"), ((1, dom.INF), "(1,inf)"),
        ((Fraction(1, 2), 3), "(1/2,3)"),
    ])
    def test_render_value(self, value, text):
        assert dom.render_value(value) == text

    @pytest.mark.parametrize("text", ["T", "F", "bot", "inf", "-inf", "7", "4/3"])
    def test_parse_value_round_trip(self, text):
        assert dom.render_value(dom.parse_value(text)) == text

    @pytest.mark.parametrize("value,name", [
        (((1, 2), (3, 4)), "prod:prod:natinf:2:2"),
        (((0, dom.INF), (7, 0)), "prod:prod:natinf:2:2"),
        ((Fraction(1, 2), dom.NEG_INF), "prod:ratinf:2"),
    ])
    def test_parse_value_inverts_render_on_tuples(self, value, name):
        d = dom.parse_domain(name)
        assert dom.parse_value(dom.render_value(value), d) == value

    @pytest.mark.parametrize("text", ["abc", "1/0", "(1,", "((1,2)", "(1,x)"])
    def test_parse_value_rejects_garbage(self, text):
        with pytest.raises(InputError):
            dom.parse_value(text)

    def test_top_is_no_value(self):
        # no domain holds an abstract top element, so there is no text for it
        assert not hasattr(dom, "TOP")
        for d in (None, dom.BBOT, dom.BT):
            with pytest.raises(InputError, match="cannot parse value 'top'"):
                dom.parse_value("top", d)


class TestArithmeticConventions:
    def test_infinity_absorbs_addition(self):
        assert dom.value_add(dom.INF, 5) == dom.INF
        assert dom.value_add(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)
        with pytest.raises(UndefinedArithmeticError):
            dom.value_add(dom.INF, dom.NEG_INF)

    def test_zero_times_infinity_is_zero(self):
        assert dom.value_mul(0, dom.INF) == 0
        assert dom.value_mul(dom.INF, 3) == dom.INF
        assert dom.value_mul(-2, dom.INF) == dom.NEG_INF
