"""Ground-truth evaluators for quantitative trace properties on lassos.

The request/acknowledgement properties run over ``trace.server_alphabet``.
The response time of a pair counts the observations after the request up
to and including the acknowledgement, so an immediately acknowledged
request has response time 1.

Each property, a ``QuantitativeProperty``, carries a lasso evaluator (its
exact value on a lasso) and, where the property has them, the closed forms
of its best/worst-continuation functionals used by the continuity checks.
"""

from dataclasses import dataclass
from fractions import Fraction

from . import domain as dom
from .boolprop import AcceptanceKind, check_transition_table, read_transition_table
from .errors import AcceptanceKindError, AutomatonError, DomainMismatchError, InputError
from .trace import all_lassos, lasso, server_alphabet
from .verdict import FunctionStepper, QuantitativeProperty, VerdictFunction


# -- maximal response time ----------------------------------------------

_IDLE, _PEND, _DEAD = "i", "p", "d"


def _mrt_step(state, symbol, req="req", ack="ack"):
    mode, m, n = state
    if mode == _DEAD:
        return state
    if mode == _IDLE:
        if symbol == req:
            return (_PEND, m, 0)
        return state
    if symbol == req:
        return (_DEAD, m, n)
    if symbol == ack:
        return (_IDLE, max(m, n + 1), 0)
    return (_PEND, m, n + 1)


def _mrt_out(state):
    mode, m, n = state
    if mode == _DEAD:
        return dom.INF
    if mode == _PEND:
        return max(m, n)
    return m


def mrt(s):
    """Maximal response time of a finite trace (infinite on double requests)."""
    state = (_IDLE, 0, 0)
    for sym in s:
        state = _mrt_step(state, sym)
    return _mrt_out(state)


def mrt_verdict(req="req", ack="ack"):
    factory = lambda: FunctionStepper(
        (_IDLE, 0, 0), lambda st, sym: _mrt_step(st, sym, req, ack), _mrt_out)
    return VerdictFunction(dom.NATINF, stepper_factory=factory, name="mrt")


def eval_mrt(t):
    """Limit of the maximal-response-time verdict on a lasso."""
    state = (_IDLE, 0, 0)
    for sym in t.stem:
        state = _mrt_step(state, sym)
    checkpoints = []
    for _ in range(4):
        for sym in t.loop:
            state = _mrt_step(state, sym)
        checkpoints.append(_mrt_out(state))
    mode = state[0]
    if mode == _DEAD:
        return dom.INF
    if mode == _PEND and "ack" not in t.loop.symbols:
        return dom.INF
    assert checkpoints[-1] == checkpoints[-2], "response pattern failed to stabilize"
    return checkpoints[-1]


# -- average response time ----------------------------------------------


def _art_step(state, symbol):
    mode, total, count, since = state
    if mode == _DEAD:
        return state
    if mode == _IDLE:
        if symbol == "req":
            return (_PEND, total, count, 0)
        return state
    if symbol == "req":
        return (_DEAD, total, count, since)
    if symbol == "ack":
        return (_IDLE, total + since + 1, count + 1, 0)
    return (_PEND, total, count, since + 1)


def _ratio(n, d):
    """n/d: the integer when d divides n, else the reduced Fraction."""
    q, r = divmod(n, d)
    return dom.fraction(n, d) if r else q


def _art_out(state):
    mode, total, count, since = state
    if mode == _DEAD:
        return dom.INF
    if mode == _PEND:
        return _ratio(total + since, count + 1)
    return _ratio(total, count) if count else 0


def art(s):
    """Average response time of a finite trace; 0 before the first pair."""
    state = (_IDLE, 0, 0, 0)
    for sym in s:
        state = _art_step(state, sym)
    return _art_out(state)


def art_verdict():
    factory = lambda: FunctionStepper((_IDLE, 0, 0, 0), _art_step, _art_out)
    return VerdictFunction(dom.RATINF, stepper_factory=factory, name="art")


def eval_art(t):
    """Long-run average response time of a lasso.

    Infinite after a double request or an eternally pending request; the
    periodic per-loop average when the loop keeps completing pairs; the
    final prefix average otherwise.
    """
    state = (_IDLE, 0, 0, 0)
    for sym in t.stem:
        state = _art_step(state, sym)
    lv = len(t.loop)
    period_total = period_count = 0
    for it in range(6):
        for sym in t.loop:
            before = state
            state = _art_step(state, sym)
            if it == 4 and before[0] == _PEND and state[0] == _IDLE:
                period_total += before[3] + 1
                period_count += 1
    if state[0] == _DEAD:
        return dom.INF
    if state[0] == _PEND and "ack" not in t.loop.symbols:
        return dom.INF
    if period_count:
        return Fraction(period_total, period_count)
    return _art_out(state)


# -- per-pair response times --------------------------------------------


def _project_server(t, req, ack):
    base = server_alphabet(1).alphabet
    rename = lambda sym: "req" if sym == req else ("ack" if sym == ack else "other")
    return lasso([rename(s) for s in t.stem], [rename(s) for s in t.loop], base)


def eval_kpair_mrt(t, k):
    """Componentwise maximal response times over a k-pair server alphabet."""
    sa = server_alphabet(k)
    if set(sa.alphabet.symbols) != set(t.alphabet.symbols):
        raise DomainMismatchError(
            f"trace alphabet {t.alphabet.symbols} is not the {k}-pair server alphabet")
    return tuple(eval_mrt(_project_server(t, r, a))
                 for r, a in zip(sa.req_tokens, sa.ack_tokens))


# -- discounted safety and co-safety ------------------------------------


def _first_hit(P, symbols, targets):
    """The length of the shortest prefix of ``symbols`` whose run ends in the
    trap ``targets``, and the state it ends in; (None, the final state) when
    no prefix does."""
    q, table = P.initial, P.transitions
    if q in targets:
        return 0, q
    for n, sym in enumerate(symbols, start=1):
        q = table[(q, sym)]
        if q in targets:
            return n, q
    return None, q


def _refuted_value(n):
    """1 - 2^-n for a first refutation at prefix length n; 1 when never."""
    return Fraction(1) if n is None else Fraction(2 ** n - 1, 2 ** n)


def _confirmed_value(n):
    """2^-n for a first confirmation at prefix length n; 0 when never."""
    return Fraction(0) if n is None else Fraction(1, 2 ** n)


def _lasso_hit(P, t, targets):
    """First hit of ``targets`` on the lasso: the run of the stem plus |Q|
    loop unrollings reaches every state that the lasso's run ever does."""
    return _first_hit(P, t.stem.symbols + t.loop.symbols * len(P.states), targets)[0]


def eval_discounted_safety(P, t):
    """1 when no prefix refutes the safety property, else 1 - 2^-n for the
    shortest refuting prefix length n."""
    if P.kind is not AcceptanceKind.SAFETY:
        raise AcceptanceKindError("discounted safety needs a safety automaton")
    return _refuted_value(_lasso_hit(P, t, P.neg_states))


def eval_discounted_cosafety(P, t):
    """2^-n for the shortest confirming prefix length n, 0 when never."""
    if P.kind is not AcceptanceKind.COSAFETY:
        raise AcceptanceKindError("discounted co-safety needs a co-safety automaton")
    return _confirmed_value(_lasso_hit(P, t, P.pos_states))


def _shortest_distance(P, q, targets):
    """Fewest steps from q, outside ``targets``, into them (None if unreachable)."""
    dist = {q: 0}
    frontier = [q]
    while frontier:
        nxt_frontier = []
        for cur in frontier:
            for a in P.alphabet:
                nxt = P.step(cur, a)
                if nxt in dist:
                    continue
                dist[nxt] = dist[cur] + 1
                if nxt in targets:
                    return dist[nxt]
                nxt_frontier.append(nxt)
        frontier = nxt_frontier
    return None


def _discounted_at(P, s, targets, value, continue_by):
    """The sup or inf of a discounted value over the continuations of ``s``:
    the value of the first hit of ``targets`` within ``s``, or else of the
    hit ``continue_by`` more steps later (None: never)."""
    # ``targets`` is the negatively (positively) determined set, so a state
    # outside it has an accepted (rejected) continuation, and that run never
    # enters the set: the latest hit is never, and only the earliest needs
    # ``_shortest_distance``
    n, q = _first_hit(P, s, targets)
    if n is None and continue_by is not None:
        d = continue_by(P, q, targets)
        n = None if d is None else len(s) + d
    return value(n)


# -- energy --------------------------------------------------------------


class WeightedAutomaton:
    """Deterministic total automaton with integer edge weights."""

    def __init__(self, alphabet, states, initial, transitions):
        self.alphabet = alphabet
        self.states = tuple(states)
        self.initial = initial
        self.transitions = dict(transitions)
        check_transition_table(alphabet, self.states, initial, self.transitions,
                               target=lambda entry: entry[0])
        for (q, a), (_, w) in self.transitions.items():
            if not isinstance(w, int):
                raise AutomatonError(f"bad weighted transition ({q!r}, {a!r})")

    def step(self, state, symbol):
        return self.transitions[(state, symbol)]


def eval_energy(A, t):
    """Least initial credit keeping every prefix level nonnegative; infinite
    when the lasso's recurrent cycle on A loses energy."""
    q, total, lowest = A.initial, 0, 0
    for sym in t.stem:
        q, w = A.step(q, sym)
        total += w
        lowest = min(lowest, total)
    boundary = {q: total}
    for _ in range(len(A.states) + 1):
        for sym in t.loop:
            q, w = A.step(q, sym)
            total += w
            lowest = min(lowest, total)
        if q in boundary:
            if total < boundary[q]:
                return dom.INF
            return max(0, -lowest)
        boundary[q] = total
    raise AssertionError("loop boundary state must repeat within |Q|+1 iterations")


def load_weighted_automaton(text):
    """Line-based weighted automaton: header lines plus ``q a -> q2 w``."""
    header, alphabet, transitions = read_transition_table(
        text, "q2 w", lambda q2, w: (q2, int(w)))
    return WeightedAutomaton(alphabet, tuple(header["states"]), header["initial"][0],
                             transitions)


# -- properties and continuation functionals -----------------------------


def _functional(p, at, side):
    """``at``, one of the continuation functionals of ``p``; an InputError
    when ``p`` has none on that side."""
    if at is None:
        raise InputError(f"property {p.name} has no {side}-continuation functional")
    return at


def nu(p, s):
    """sup of the property over all continuations of ``s``."""
    return _functional(p, p.nu_at, "best")(s)


def mu(p, s):
    """inf of the property over all continuations of ``s``."""
    return _functional(p, p.mu_at, "worst")(s)


def mrt_property():
    def mu_at(s):
        state = (_IDLE, 0, 0)
        for sym in s:
            state = _mrt_step(state, sym)
        mode, m, n = state
        if mode == _DEAD:
            return dom.INF
        if mode == _PEND:
            return max(m, n + 1)
        return m

    return QuantitativeProperty("mrt", dom.NATINF, eval_mrt,
                                alphabet=server_alphabet(1).alphabet,
                                nu_at=lambda s: dom.INF, mu_at=mu_at)


def art_property():
    def mu_at(s):
        state = (_IDLE, 0, 0, 0)
        for sym in s:
            state = _art_step(state, sym)
        mode, _total, count, _since = state
        if mode == _DEAD:
            return dom.INF
        if mode == _IDLE and count == 0:
            return Fraction(0)
        return Fraction(1)

    return QuantitativeProperty("art", dom.RATINF, eval_art,
                                alphabet=server_alphabet(1).alphabet,
                                nu_at=lambda s: dom.INF, mu_at=mu_at)


def kpair_property(k):
    sa = server_alphabet(k)
    top = (dom.INF,) * k
    return QuantitativeProperty(f"kmrt:{k}", dom.product(dom.NATINF, k),
                                lambda t: eval_kpair_mrt(t, k),
                                alphabet=sa.alphabet,
                                nu_at=lambda s: top)


def discounted_safety_property(P):
    return QuantitativeProperty("disc-safe", dom.RATINF,
                                lambda t: eval_discounted_safety(P, t),
                                alphabet=P.alphabet,
                                nu_at=lambda s: _discounted_at(
                                    P, s, P.neg_states, _refuted_value, None),
                                mu_at=lambda s: _discounted_at(
                                    P, s, P.neg_states, _refuted_value, _shortest_distance))


def discounted_cosafety_property(P):
    return QuantitativeProperty("disc-cosafe", dom.RATINF,
                                lambda t: eval_discounted_cosafety(P, t),
                                alphabet=P.alphabet,
                                nu_at=lambda s: _discounted_at(
                                    P, s, P.pos_states, _confirmed_value, _shortest_distance),
                                mu_at=lambda s: _discounted_at(
                                    P, s, P.pos_states, _confirmed_value, None))


def energy_property(A):
    return QuantitativeProperty("energy", dom.INTINF,
                                lambda t: eval_energy(A, t),
                                alphabet=A.alphabet)


# -- continuity ----------------------------------------------------------


@dataclass
class ContinuityReport:
    """Outcome of the two independent checks over a finite suite.

    ``continuity_witness`` (trace, stalled functional value, property value)
    is set when the best-continuation functional stalls above the property
    value on some suite trace; dually for ``cocontinuity_witness``.  A None
    witness means the suite is consistent with the respective notion, which
    is evidence, not proof.
    """
    continuous_consistent: bool
    continuity_witness: object
    cocontinuous_consistent: bool
    cocontinuity_witness: object


def _stalled_gap(d, values, pv, above):
    """The functional's values agree and sit strictly on the wrong side of
    the property value.  Requiring the stall keeps a sequence that is still
    converging toward the value from being mistaken for a gap."""
    if any(x != values[0] for x in values[1:]):
        return False
    return d.lt(pv, values[0]) if above else d.lt(values[0], pv)


def check_continuity(p, suite):
    """Look for a continuity and a co-continuity witness among the lassos of
    ``suite``.

    A lasso is a witness when the best- (worst-) continuation functional
    takes one value on its prefixes of 4, 5 and 6 symbols, and that value
    lies above (below) the property value.  This stall rule gives evidence,
    not proof: a functional can stall and move on, or settle late.  Only a
    property with both functionals is accepted, and only lassos over its
    alphabet; any other property raises InputError, and any other lasso
    raises DomainMismatchError.
    """
    nu_at = _functional(p, p.nu_at, "best")
    mu_at = _functional(p, p.mu_at, "worst")
    symbols = set(p.alphabet.symbols)
    continuity_witness = None
    cocontinuity_witness = None
    for t in suite:
        if set(t.alphabet.symbols) != symbols:
            raise DomainMismatchError(
                f"lasso {t.render()!r} is not over the alphabet of property {p.name}")
        pv = p.eval_lasso(t)
        prefixes = [t.prefix(i) for i in (4, 5, 6)]
        nus = [nu_at(s) for s in prefixes]
        mus = [mu_at(s) for s in prefixes]
        if continuity_witness is None and _stalled_gap(p.codomain, nus, pv, above=True):
            continuity_witness = (t, nus[-1], pv)
        if cocontinuity_witness is None and _stalled_gap(p.codomain, mus, pv, above=False):
            cocontinuity_witness = (t, mus[-1], pv)
    return ContinuityReport(continuity_witness is None, continuity_witness,
                            cocontinuity_witness is None, cocontinuity_witness)


def continuity_suite(alphabet, extras=()):
    """All lassos with stem and loop of at most 2 symbols plus caller-chosen
    witness traces."""
    traces = list(all_lassos(alphabet, 2, 2))
    traces.extend(extras)
    return traces
