"""Value domains: partially ordered sets of verdict values.

Values are plain Python objects:

* ``int`` and ``fractions.Fraction`` for numeric domains (rationals are kept
  exact; a ``Fraction`` is always reduced, and the per-step quotients of
  machine outputs and of ``art`` are built by :func:`fraction`),
* ``float('inf')`` / ``float('-inf')`` for the extremal numeric elements,
* ``True`` / ``False`` for the boolean domains,
* the ``BOT`` singleton for the abstract least element of ``Bbot``,
* tuples for product domains.

Each domain object owns membership checking, the order relation, and the
lattice operations where they exist.  Comparing values without going through
a domain is a bug: the four boolean domains order the same two truth values
in four different ways.
"""

from fractions import Fraction
from math import gcd

from .errors import (
    DomainMismatchError,
    InputError,
    NoBoundError,
    UndefinedArithmeticError,
    UnsupportedDomainError,
)

INF = float("inf")
NEG_INF = float("-inf")


class _Extremum:
    """A named extremal value; with no __eq__ or __hash__ it compares and
    hashes by identity."""

    __slots__ = ("_name",)

    def __init__(self, name):
        self._name = name

    def __repr__(self):
        return self._name


BOT = _Extremum("bot")


class _Incomparable:
    __slots__ = ()

    def __repr__(self):
        return "INCOMPARABLE"

    def __bool__(self):
        raise TypeError("tri-state order result used as a boolean; "
                        "test identity against INCOMPARABLE instead")


#: Third result of :meth:`ValueDomain.leq` next to True and False.
INCOMPARABLE = _Incomparable()


def fraction(n, d):
    """The reduced ``Fraction(n, d)`` of two ints with ``d != 0``, built
    without the constructor's argument parsing, as CPython 3.12's private
    ``Fraction._from_coprime_ints`` builds one: a quotient per step costs
    less than half as much."""
    g = gcd(n, d)
    if d < 0:
        g = -g
    f = object.__new__(Fraction)
    f._numerator = n // g
    f._denominator = d // g
    return f


def is_numeric(v):
    """True for finite ints/rationals and the two infinities (bools excluded)."""
    if isinstance(v, bool):
        return False
    return isinstance(v, (int, Fraction)) or v == INF or v == NEG_INF


class ValueDomain:
    """A partially ordered set of values, optionally with lattice structure."""

    name = "domain"
    is_lattice = False
    bottom = None
    top = None

    def contains(self, v):
        raise NotImplementedError

    def check(self, v):
        if not self.contains(v):
            raise DomainMismatchError(f"value {render_value(v)!r} is not in domain {self.name}")
        return v

    def leq(self, a, b):
        """Tri-state order: True (a <= b), False (b < a), or INCOMPARABLE."""
        raise NotImplementedError

    def le(self, a, b):
        """Boolean convenience: a <= b (incomparable counts as not <=)."""
        return self.leq(a, b) is True

    def lt(self, a, b):
        return self.leq(a, b) is True and a != b

    def sup(self, vs):
        """Least upper bound of a finite collection; empty sup is the bottom."""
        raise NotImplementedError

    def inf(self, vs):
        raise NotImplementedError

    def __repr__(self):
        return f"<domain {self.name}>"

    def __eq__(self, other):
        return isinstance(other, ValueDomain) and self.name == other.name

    def __hash__(self):
        return hash(self.name)


class BooleanDomain(ValueDomain):
    """One of the four two/three-element boolean domains.

    The order is table-driven: ``strict`` lists the strictly-less pairs.
    Sup/inf are computed by minimal-upper-bound search, so the absence of a
    bound (e.g. {T, F} with incomparable truth values) surfaces as
    NoBoundError rather than an arbitrary pick.
    """

    def __init__(self, name, carrier, strict, bottom=None, top=None, is_lattice=False):
        self.name = name
        self._carrier = tuple(carrier)
        self._members = frozenset(self._carrier)
        self._strict = frozenset(strict)
        self.bottom = bottom
        self.top = top
        self.is_lattice = is_lattice

    def contains(self, v):
        # the type comes first: the ints 0 and 1 equal False and True
        return isinstance(v, (bool, _Extremum)) and v in self._members

    def leq(self, a, b):
        self.check(a)
        self.check(b)
        if a == b and type(a) is type(b):
            return True
        if (a, b) in self._strict:
            return True
        if (b, a) in self._strict:
            return False
        return INCOMPARABLE

    def _bound(self, vs, upper):
        vs = list(vs)
        for v in vs:
            self.check(v)
        if not vs:
            ext = self.bottom if upper else self.top
            if ext is None:
                raise NoBoundError(f"empty {'sup' if upper else 'inf'} in {self.name} "
                                   "(domain has no extremal element)")
            return ext
        side = self.le if upper else (lambda x, y: self.le(y, x))
        candidates = [c for c in self._carrier if all(side(v, c) for v in vs)]
        if not candidates:
            kind = "upper" if upper else "lower"
            raise NoBoundError(f"no {kind} bound for {{{', '.join(map(render_value, vs))}}} in {self.name}")
        best = candidates[0]
        for c in candidates[1:]:
            if side(c, best):
                best = c
        return best

    def sup(self, vs):
        return self._bound(vs, upper=True)

    def inf(self, vs):
        return self._bound(vs, upper=False)


class NumericDomain(ValueDomain):
    """A totally ordered numeric domain (naturals, integers, or rationals
    extended with the relevant infinities)."""

    is_lattice = True

    def __init__(self, name, contains_fn, bottom, top):
        self.name = name
        # an instance attribute, so that check calls the membership function
        # directly: it runs once per streamed verdict
        self.contains = contains_fn
        self.bottom = bottom
        self.top = top

    def leq(self, a, b):
        self.check(a)
        self.check(b)
        return a <= b

    def sup(self, vs):
        vs = [self.check(v) for v in vs]
        return max(vs) if vs else self.bottom

    def inf(self, vs):
        vs = [self.check(v) for v in vs]
        return min(vs) if vs else self.top


class ProductDomain(ValueDomain):
    """Fixed-arity tuples over an inner domain, ordered componentwise."""

    def __init__(self, inner, arity):
        if arity < 1:
            raise ValueError("product arity must be positive")
        self.inner = inner
        self.arity = arity
        self.name = f"prod:{inner.name}:{arity}"
        self.is_lattice = inner.is_lattice
        self.bottom = None if inner.bottom is None else (inner.bottom,) * arity
        self.top = None if inner.top is None else (inner.top,) * arity

    def contains(self, v):
        return (isinstance(v, tuple) and len(v) == self.arity
                and all(self.inner.contains(c) for c in v))

    def leq(self, a, b):
        self.check(a)
        self.check(b)
        le_ab = all(self.inner.le(x, y) for x, y in zip(a, b))
        if le_ab:
            return True
        le_ba = all(self.inner.le(y, x) for x, y in zip(a, b))
        return False if le_ba else INCOMPARABLE

    def sup(self, vs):
        vs = [self.check(v) for v in vs]
        if not vs:
            if self.bottom is None:
                raise NoBoundError(f"empty sup in {self.name}")
            return self.bottom
        return tuple(self.inner.sup([v[i] for v in vs]) for i in range(self.arity))

    def inf(self, vs):
        vs = [self.check(v) for v in vs]
        if not vs:
            if self.top is None:
                raise NoBoundError(f"empty inf in {self.name}")
            return self.top
        return tuple(self.inner.inf([v[i] for v in vs]) for i in range(self.arity))


class InverseDomain(ValueDomain):
    """Same carrier as the inner domain with the order reversed."""

    def __init__(self, inner):
        self.inner = inner
        self.name = f"inv:{inner.name}"
        self.is_lattice = inner.is_lattice
        self.bottom = inner.top
        self.top = inner.bottom

    def contains(self, v):
        return self.inner.contains(v)

    def leq(self, a, b):
        return self.inner.leq(b, a)

    def sup(self, vs):
        return self.inner.inf(vs)

    def inf(self, vs):
        return self.inner.sup(vs)


def _contains_natinf(v):
    if isinstance(v, bool):
        return False
    return (isinstance(v, int) and v >= 0) or v == INF \
        or (isinstance(v, Fraction) and v.denominator == 1 and v >= 0)


def _contains_intinf(v):
    if isinstance(v, bool):
        return False
    return isinstance(v, int) or v == INF or v == NEG_INF \
        or (isinstance(v, Fraction) and v.denominator == 1)


#: Truth values with T and F incomparable.  Not a lattice: {T, F} is unbounded.
B = BooleanDomain("B", (True, False), strict=())

#: B extended with a least element below both truth values.
BBOT = BooleanDomain("Bbot", (True, False, BOT),
                     strict={(BOT, True), (BOT, False)},
                     bottom=BOT)

#: Truth values with F < T (positive verdicts are irrevocable upward).
BT = BooleanDomain("Bt", (True, False), strict={(False, True)},
                   bottom=False, top=True, is_lattice=True)

#: Truth values with T < F.
BF = BooleanDomain("Bf", (True, False), strict={(True, False)},
                   bottom=True, top=False, is_lattice=True)

#: Naturals with infinity; bottom 0, top inf.
NATINF = NumericDomain("natinf", _contains_natinf, bottom=0, top=INF)

#: Integers with both infinities.
INTINF = NumericDomain("intinf", _contains_intinf, bottom=NEG_INF, top=INF)

#: Exact rationals with both infinities.
RATINF = NumericDomain("ratinf", is_numeric, bottom=NEG_INF, top=INF)

BOOLEAN_DOMAINS = (B, BBOT, BT, BF)


def product(inner, arity):
    return ProductDomain(inner, arity)


def inverse(inner):
    # inv:inv:d has the same order as d but keeps its own name; collapse it.
    if isinstance(inner, InverseDomain):
        return inner.inner
    return InverseDomain(inner)


_NAMED = {d.name: d for d in (B, BBOT, BT, BF, NATINF, INTINF, RATINF)}


def parse_domain(name):
    """Resolve a domain name like ``natinf``, ``prod:natinf:2`` or ``inv:Bt``."""
    if name in _NAMED:
        return _NAMED[name]
    if name.startswith("inv:"):
        return inverse(parse_domain(name[4:]))
    if name.startswith("prod:"):
        body = name[5:]
        inner_name, sep, arity_s = body.rpartition(":")
        if not sep or not arity_s.isdigit() or int(arity_s) < 1:
            raise UnsupportedDomainError(f"malformed product domain name {name!r}")
        return product(parse_domain(inner_name), int(arity_s))
    raise UnsupportedDomainError(f"unknown domain name {name!r}")


def render_value(v):
    """Canonical text form: T, F, bot, inf, -inf, integers, p/q, tuples."""
    # the common cases first, by exact type: the isinstance tests below are slow
    if type(v) is int:
        return str(v)
    if type(v) is Fraction:
        d = v.denominator
        return f"{v.numerator}/{d}" if d != 1 else str(v.numerator)
    if isinstance(v, bool):
        return "T" if v else "F"
    if v is BOT:
        return "bot"
    if isinstance(v, float):
        if v == INF:
            return "inf"
        if v == NEG_INF:
            return "-inf"
        raise DomainMismatchError(f"non-extremal float {v!r} is not a domain value")
    if isinstance(v, int):
        return str(v)
    if isinstance(v, tuple):
        return "(" + ",".join(render_value(c) for c in v) + ")"
    if v is None:
        return ""
    raise DomainMismatchError(f"cannot render {v!r}")


def _top_level_parts(text, sep=","):
    """``text`` split on the ``sep`` characters outside any parentheses."""
    parts, depth = [""], 0
    for ch in text:
        depth += (ch == "(") - (ch == ")")
        if ch == sep and depth == 0:
            parts.append("")
        else:
            parts[-1] += ch
    return parts


def parse_value(text, domain=None):
    """Inverse of :func:`render_value`, nested tuples included."""
    text = text.strip()
    simple = {"T": True, "F": False, "bot": BOT, "inf": INF, "-inf": NEG_INF}
    try:
        if text in simple:
            v = simple[text]
        elif text.startswith("(") and text.endswith(")"):
            v = tuple(parse_value(part) for part in _top_level_parts(text[1:-1]))
        elif "/" in text:
            num, _, den = text.partition("/")
            v = Fraction(int(num), int(den))
        else:
            v = int(text)
    except (ValueError, ZeroDivisionError):
        raise InputError(f"cannot parse value {text!r}") from None
    if domain is not None:
        domain.check(v)
    return v


def value_add(a, b):
    """Numeric addition where infinity absorbs; inf + -inf is an error."""
    if a == INF and b == NEG_INF or a == NEG_INF and b == INF:
        raise UndefinedArithmeticError("inf + -inf is undefined")
    if a == INF or b == INF:
        return INF
    if a == NEG_INF or b == NEG_INF:
        return NEG_INF
    return a + b


def value_mul(a, b):
    """Numeric multiplication with the convention 0 * inf = 0."""
    if a == 0 or b == 0:
        return 0
    infinite = (a in (INF, NEG_INF)) or (b in (INF, NEG_INF))
    if infinite:
        sign = (1 if (a > 0) else -1) * (1 if (b > 0) else -1)
        return INF if sign > 0 else NEG_INF
    return a * b
