"""Verdict functions and their limits along lasso traces.

A verdict function maps finite traces into a value domain.  It is a
codomain plus a stepper factory: ``stepper(alphabet)`` starts a run at the
empty prefix, whose ``step(symbol)`` returns the next ``value`` and whose
``config()`` is a hashable run configuration or None.  Calling a verdict
steps a fresh run over the trace.  A function of whole prefixes becomes a
verdict through ``prefix_verdict``, which replays it on every prefix.

The monitor's estimate for an infinite trace is the limsup (or liminf) of
the verdict values along its prefixes.  On a lasso ``u ; v`` the engine
watches the verdict values produced inside consecutive loop iterations and
resolves the limit four ways, in order of preference:

1.  *Configuration cycle* (early exit, sound): if the verdict exposes a
    hashable run configuration and the configuration at a loop boundary
    repeats, the values inside the detected cycle recur forever, so their
    sup/inf is the exact limit.
2.  *Loop acceleration* (early exit, sound): a stepper with an
    ``accelerate(loop)`` method (a run of any register machine) steps the
    loop through it.  Once two consecutive iterations follow the same arm
    path with an affine update, the run jumps to the first guard flip, or,
    when no guard ever flips, reports each loop position's closed-form
    limit.  Their sup/inf is the limit, componentwise for tuples; it is
    divergent when some component is attained only by diverging positions.
    A position limit outside the codomain leaves the limit to the rules
    below.  Iterations skipped by a jump are not counted as used.
3.  *Stable window*: once the iteration budget is exhausted, the extrema
    of the final ``max_period * confirm_window`` iterations (at least
    ``confirm_window + 1``) are folded, once; extrema that are identical
    (or periodic) over the final confirmation window report an exact
    limit.  This is a heuristic: it settles eventually periodic output,
    but a transient longer than the budget passes for the limit.
4.  *Arithmetic escape*: each component of the final-window extrema (a
    scalar is its one component) either stays equal across the window,
    ``inf`` included, and settles, or moves through finite numbers by a
    constant nonzero step and escapes to the infinity of its direction,
    which the domain must hold.  As in rule 2, the limit diverges to the
    top when an escaping component is at the top, else to the bottom.

The window rules apply only where acceleration does not: to opaque
steppers, and to machine runs whose loop path is not affine or does not
settle.  They deliberately wait for the full budget: early windows can
mistake a transient (a counter still climbing toward a guard threshold)
for settled behaviour.  Every value is checked against the codomain as it
is stepped, whether or not a rule later reads it.  Everything else is
reported Undetermined, never guessed.

A suite pass asks for many limits of one verdict, and many of its lassos
lead to the same run configuration before the same loop.  The caller may
pass a *suite memo*, a dict kept for one verdict, one side and one budget,
to ``eval_limsup``/``eval_liminf``: the stem is still stepped, but the
loop's limit is computed once per ``(configuration after the stem, loop)``
and read back afterwards.  This rests on rule 1's premise: equal
configurations have equal futures, so a deterministic stepper's limit on
``u ; v`` depends only on its configuration after ``u`` and on ``v``.
Acceleration state is not part of that premise, and a run has none after
its stem.  Steppers without a configuration are never memoized.
"""

import enum
import itertools
from dataclasses import dataclass
from fractions import Fraction

from . import domain as dom
from .errors import InputError, InvalidFunctionError, NoBoundError, UnsupportedDomainError
from .trace import _check_symbol, _checked_trace


class Monotonicity(enum.Enum):
    INCREASING = "increasing"
    DECREASING = "decreasing"
    UNRESTRICTED = "unrestricted"


class _ReplayStepper:
    """Stepper of a prefix function: re-evaluates it on each grown prefix.
    It checks each symbol once, as it is stepped, unless alphabet is None."""

    def __init__(self, fn, alphabet):
        self._fn = fn
        self._alphabet = alphabet
        self._symbols = []
        self.value = fn(_checked_trace((), alphabet))

    def step(self, symbol):
        alphabet = self._alphabet
        if alphabet is not None:
            _check_symbol(symbol, alphabet)
        self._symbols.append(symbol)
        self.value = self._fn(_checked_trace(tuple(self._symbols), alphabet))
        return self.value

    def config(self):
        return None


class FunctionStepper:
    """Stepper driven by a pure state-transition function.

    ``init`` is the start state, ``step_fn(state, symbol) -> state``, and
    ``out_fn(state) -> value``.  States are the run configurations, so they
    must be hashable.
    """

    def __init__(self, init, step_fn, out_fn):
        self._state = init
        self._step_fn = step_fn
        self._out_fn = out_fn
        self.value = out_fn(init)

    def step(self, symbol):
        self._state = self._step_fn(self._state, symbol)
        self.value = self._out_fn(self._state)
        return self.value

    def config(self):
        return self._state


class VerdictFunction:
    """A total, deterministic map from finite traces to domain values, given
    by its codomain and a factory of steppers over an alphabet."""

    def __init__(self, codomain, stepper_factory, name="v"):
        self.codomain = codomain
        self.name = name
        self._stepper_factory = stepper_factory

    def __call__(self, trace):
        st = self.stepper(trace.alphabet)
        for sym in trace:
            st.step(sym)
        return st.value

    def stepper(self, alphabet):
        """A fresh stepper at the empty prefix."""
        return self._stepper_factory(alphabet)

    def __repr__(self):
        return f"<verdict {self.name} on {self.codomain.name}>"


def prefix_verdict(codomain, fn, name="v"):
    """The verdict of a prefix function ``fn(finite_trace) -> value``.  Its
    stepper replays ``fn`` on each prefix and exposes no configuration."""
    return VerdictFunction(codomain, lambda alphabet: _ReplayStepper(fn, alphabet), name)


def constant_verdict(codomain, value):
    codomain.check(value)
    factory = lambda alphabet: FunctionStepper((), lambda st, sym: st, lambda st: value)
    return VerdictFunction(codomain, factory, f"const({dom.render_value(value)})")


class LimitKind(enum.Enum):
    EXACT = "exact"
    DIVERGED_TO_TOP = "diverged-to-top"
    DIVERGED_TO_BOTTOM = "diverged-to-bottom"
    UNDETERMINED = "undetermined"


@dataclass(frozen=True)
class LimitResult:
    value: object
    kind: LimitKind
    iterations_used: int

    @property
    def is_determined(self):
        return self.kind is not LimitKind.UNDETERMINED

    def render(self):
        return f"{self.kind.value},{dom.render_value(self.value)}"


@dataclass(frozen=True)
class LimitBudget:
    max_loop_iterations: int = 1024
    confirm_window: int = 3
    max_period: int = 6

    def __post_init__(self):
        if not (self.max_loop_iterations >= self.confirm_window >= 2):
            raise InputError("need max_loop_iterations >= confirm_window >= 2")


DEFAULT_BUDGET = LimitBudget()


def _finite_number(v):
    return dom.is_numeric(v) and v != dom.INF and v != dom.NEG_INF


def _window_periodic(combine, maxima, window, max_period):
    """The extremum of one period of the final maxima when they repeat with
    a period of at most ``max_period`` over ``window`` periods; period 1 is
    an equal window."""
    for period in range(1, max_period + 1):
        need = period * window
        tail = maxima[-need:]
        if len(tail) < need or any(m is None for m in tail):
            continue
        if all(tail[i] == tail[i % period] for i in range(need)):
            try:
                return combine(tail[:period])
            except NoBoundError:
                continue
    return None


def _window_escape(d, maxima, window):
    """The final ``window + 1`` maxima as one ``(value, diverges)``
    candidate, or None.  Each component (a scalar is its one component)
    either stays equal over them, and settles there, ``inf`` included, or
    moves through finite numbers by a constant nonzero step, and escapes to
    the infinity of that direction if the domain holds it."""
    tail = maxima[-(window + 1):]
    if len(tail) < window + 1 or any(m is None for m in tail):
        return None
    product = isinstance(d, dom.ProductDomain)
    inner = d.inner if product else d
    comps = []
    for col in zip(*tail) if product else (tail,):
        if all(c == col[0] for c in col[1:]):
            comps.append((col[0], False))
            continue
        if not all(_finite_number(c) for c in col):
            return None
        steps = {b - a for a, b in zip(col, col[1:])}
        if len(steps) != 1:
            return None
        limit = dom.INF if steps.pop() > 0 else dom.NEG_INF
        if not inner.contains(limit):
            return None
        comps.append((limit, True))
    value, diverges = zip(*comps)
    return (value, diverges) if product else (value[0], diverges[0])


def _components(x):
    return x if isinstance(x, tuple) else (x,)


def _fold(combine, candidates):
    """Fold ``(value, diverges)`` candidates into their extremum and the
    indices of its components that only diverging candidates attain.  A
    tuple value has one ``diverges`` flag per component; a scalar is its
    one-component case."""
    value = combine([v for v, _ in candidates])
    columns = [(_components(v), _components(div)) for v, div in candidates]
    return value, [i for i, c in enumerate(_components(value))
                   if not any(v[i] == c and not div[i] for v, div in columns)]


def _folded_limit(d, combine, candidates, used):
    """The limit that ``(value, diverges)`` candidates give, or None when
    one falls outside the codomain.  It is exact when a settling candidate
    attains each component of their extremum; otherwise it diverges to the
    top if a component that only diverging candidates attain is the top's,
    else to the bottom."""
    if not all(d.contains(v) for v, _ in candidates):
        return None
    value, escaped = _fold(combine, candidates)
    if not escaped:
        return LimitResult(value, LimitKind.EXACT, used)
    comps, tops = _components(value), _components(d.top)
    kind = LimitKind.DIVERGED_TO_TOP if any(comps[i] == tops[i] for i in escaped) \
        else LimitKind.DIVERGED_TO_BOTTOM
    return LimitResult(value, kind, used)


def _extremum(combine, vals):
    try:
        return combine(vals)
    except NoBoundError:
        return None


def _eval_limit(verdict, t, budget, take_sup, memo):
    st = verdict.stepper(t.alphabet)
    for sym in t.stem:
        st.step(sym)
    loop = t.loop.symbols
    cfg = None if memo is None else st.config()
    if cfg is None:
        return _loop_limit(verdict.codomain, st, loop, budget, take_sup)
    key = (cfg, loop)
    res = memo.get(key)
    if res is None:
        res = memo[key] = _loop_limit(verdict.codomain, st, loop, budget, take_sup)
    return res


def _loop_limit(d, st, loop, budget, take_sup):
    """The limit of stepper ``st``, at a loop boundary, stepping ``loop``
    forever."""
    combine = d.sup if take_sup else d.inf
    accelerate = getattr(st, "accelerate", None)
    step, check = st.step, d.check
    iteration_values = []
    seen = {}
    for k in range(budget.max_loop_iterations):
        cfg = st.config()
        if cfg is not None:
            if cfg in seen:
                # the run configuration recurs, so the values inside the
                # cycle repeat forever: their extremum is the exact limit
                j = seen[cfg]
                cycle_vals = [v for it in iteration_values[j:] for v in it]
                try:
                    return LimitResult(combine(cycle_vals), LimitKind.EXACT, k)
                except NoBoundError:
                    return LimitResult(None, LimitKind.UNDETERMINED, k)
            seen[cfg] = len(iteration_values)
        if accelerate is None:
            vals = [step(sym) for sym in loop]
        else:
            vals, limits = accelerate(loop)
            if vals is None:
                # the run jumped ahead: what was seen before does not recur
                iteration_values, seen = [], {}
                continue
            if limits is not None:
                res = _folded_limit(d, combine, limits, k + 1)
                if res is not None:
                    return res
        # a value outside the codomain fails in the iteration that yields
        # it, whether or not a window rule would read that iteration
        for v in vals:
            check(v)
        iteration_values.append(vals)
    # Window heuristics judge only the final iterations: deciding on an
    # early window would mistake transients (a counter still climbing
    # toward saturation, a guard about to flip) for settled behaviour.
    # Only the iterations those rules read are folded into extrema.
    used = budget.max_loop_iterations
    window = budget.confirm_window
    judged = max(budget.max_period * window, window + 1)
    maxima = [_extremum(combine, vals) for vals in iteration_values[-judged:]]
    m = _window_periodic(combine, maxima, window, budget.max_period)
    if m is not None:
        return LimitResult(m, LimitKind.EXACT, used)
    escape = _window_escape(d, maxima, window)
    if escape is not None:
        return _folded_limit(d, combine, [escape], used)
    return LimitResult(None, LimitKind.UNDETERMINED, used)


def eval_limsup(verdict, t, budget=DEFAULT_BUDGET, memo=None):
    """Limit superior of the verdict sequence along the lasso ``t``.

    ``memo`` is an optional suite memo: a dict that one caller keeps for
    one verdict, one side (limsup here) and one budget, and passes to
    every call it makes with them.  A stepper that exposes a configuration
    has its limit stored under ``(configuration after the stem, loop
    symbols)`` and read back on a later call that reaches the same pair.
    Steppers without a configuration are not memoized.  Sharing a memo
    across verdicts, sides or budgets gives wrong answers."""
    return _eval_limit(verdict, t, budget, True, memo)


def eval_liminf(verdict, t, budget=DEFAULT_BUDGET, memo=None):
    """Limit inferior of the verdict sequence along the lasso ``t``.

    ``memo`` follows the contract of ``eval_limsup``'s: one dict per
    verdict, side (liminf here) and budget."""
    return _eval_limit(verdict, t, budget, False, memo)


def check_monotone(verdict, suite, depth):
    """Classify a verdict over all prefix chains of the suite up to ``depth``.

    Returns INCREASING, DECREASING, or UNRESTRICTED (neither: both a strict
    increase and a strict decrease, or an incomparable step, were witnessed).
    Constant verdicts classify as Increasing: the tie is broken toward
    Increasing so the result is deterministic.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    d = verdict.codomain
    saw_inc = saw_dec = saw_incomparable = False
    for t in suite:
        st = verdict.stepper(t.alphabet)
        prev = st.value
        for i in range(depth):
            cur = st.step(t.symbol_at(i))
            rel = d.leq(prev, cur)
            if rel is dom.INCOMPARABLE:
                saw_incomparable = True
            elif rel is True:
                if prev != cur:
                    saw_inc = True
            else:
                saw_dec = True
            prev = cur
    if saw_incomparable or (saw_inc and saw_dec):
        return Monotonicity.UNRESTRICTED
    if saw_dec:
        return Monotonicity.DECREASING
    return Monotonicity.INCREASING


class _PairStepper:
    def __init__(self, st1, st2, combine):
        self._st1 = st1
        self._st2 = st2
        self._combine = combine
        self.value = combine(st1.value, st2.value)

    def step(self, symbol):
        a = self._st1.step(symbol)
        b = self._st2.step(symbol)
        self.value = self._combine(a, b)
        return self.value

    def config(self):
        c1, c2 = self._st1.config(), self._st2.config()
        if c1 is None or c2 is None:
            return None
        return (c1, c2)


def _combine(v1, v2, pointwise, name):
    if v1.codomain != v2.codomain:
        raise UnsupportedDomainError(
            f"cannot combine verdicts over {v1.codomain.name} and {v2.codomain.name}")
    factory = lambda alphabet: _PairStepper(v1.stepper(alphabet), v2.stepper(alphabet), pointwise)
    return VerdictFunction(v1.codomain, factory, name)


def combine_max(v1, v2):
    """Pointwise join of two verdicts over a shared lattice codomain."""
    d = v1.codomain
    if not d.is_lattice:
        raise UnsupportedDomainError(f"{d.name} is not a lattice; max is unsupported")
    return _combine(v1, v2, lambda a, b: d.sup([a, b]),
                    f"max({v1.name},{v2.name})")


def combine_min(v1, v2):
    """Pointwise meet of two verdicts over a shared lattice codomain."""
    d = v1.codomain
    if not d.is_lattice:
        raise UnsupportedDomainError(f"{d.name} is not a lattice; min is unsupported")
    return _combine(v1, v2, lambda a, b: d.inf([a, b]),
                    f"min({v1.name},{v2.name})")


def _require_numeric(d):
    base = d.inner if isinstance(d, dom.InverseDomain) else d
    if not isinstance(base, dom.NumericDomain):
        raise UnsupportedDomainError(f"{d.name} is not a numeric domain")


def combine_sum(v1, v2):
    """Pointwise sum; infinity absorbs addition."""
    _require_numeric(v1.codomain)
    return _combine(v1, v2, dom.value_add, f"sum({v1.name},{v2.name})")


def combine_product(v1, v2):
    """Pointwise product with the convention 0 * inf = 0."""
    _require_numeric(v1.codomain)
    return _combine(v1, v2, dom.value_mul, f"prod({v1.name},{v2.name})")


def _monotonicity_samples(d):
    if isinstance(d, dom.BooleanDomain):
        return [v for v in (True, False, dom.BOT) if d.contains(v)]
    if isinstance(d, dom.NumericDomain):
        pts = [0, 1, 2, 3, 5, 8, 13, 21, -1, -4, Fraction(1, 2), Fraction(4, 3),
               dom.INF, dom.NEG_INF]
        return [p for p in pts if d.contains(p)]
    if isinstance(d, dom.ProductDomain):
        inner = _monotonicity_samples(d.inner)[:4]
        return [t for t in itertools.product(inner, repeat=d.arity)]
    if isinstance(d, dom.InverseDomain):
        return _monotonicity_samples(d.inner)
    return []


def map_continuous(verdict, fn):
    """Compose a verdict with a monotone unary function on its codomain.

    Monotonicity of ``fn`` is checked on a sample grid; a witnessed
    violation raises InvalidFunctionError.
    """
    d = verdict.codomain
    if not d.is_lattice:
        raise UnsupportedDomainError(f"{d.name} is not a lattice")
    samples = _monotonicity_samples(d)
    for a in samples:
        for b in samples:
            if d.le(a, b) and not d.le(fn(a), fn(b)):
                raise InvalidFunctionError(
                    f"function is not monotone: maps {dom.render_value(a)} <= "
                    f"{dom.render_value(b)} to incomparable/decreasing images")

    class _MapStepper:
        def __init__(self, inner):
            self._inner = inner
            self.value = fn(inner.value)

        def step(self, symbol):
            self.value = fn(self._inner.step(symbol))
            return self.value

        def config(self):
            return self._inner.config()

    return VerdictFunction(d, lambda a: _MapStepper(verdict.stepper(a)),
                           f"map({verdict.name})")


def complement(verdict):
    """The same verdict read in the inverse order of its codomain."""
    return VerdictFunction(dom.inverse(verdict.codomain), verdict.stepper,
                           f"compl({verdict.name})")


def verdict_sequence(verdict, finite_trace):
    """Verdict values over all prefixes of a finite trace, empty prefix included."""
    st = verdict.stepper(finite_trace.alphabet)
    values = [st.value]
    for sym in finite_trace:
        values.append(st.step(sym))
    return values


def count_switches(values):
    """Number of positions where consecutive values differ."""
    return sum(1 for a, b in zip(values, values[1:]) if a != b)


def verdict_csv_lines(verdict, finite_trace):
    """CSV rows ``index,prefix_len,value`` for every prefix of the trace.
    A value outside the verdict's codomain raises DomainMismatchError."""
    check = verdict.codomain.check
    lines = ["index,prefix_len,value"]
    for i, v in enumerate(verdict_sequence(verdict, finite_trace)):
        lines.append(f"{i},{i},{dom.render_value(check(v))}")
    return lines
