"""Ground-truth evaluators for quantitative trace properties on lassos.

The request/acknowledgement properties run over a server alphabet with
(req, ack) pairs plus a neutral token.  The response time of a pair counts
the observations after the request up to and including the acknowledgement,
so an immediately acknowledged request has response time 1.

Each property carries a lasso evaluator (its exact value on an ultimately
periodic trace) and, where a closed form exists, the best/worst-continuation
functionals used by the continuity checks; otherwise those are approximated
by a bounded search over lasso continuations.
"""

import random
from dataclasses import dataclass
from fractions import Fraction

from . import domain as dom
from .boolprop import AcceptanceKind, check_transition_table, read_transition_table
from .errors import AcceptanceKindError, AutomatonError, DomainMismatchError
from .trace import Alphabet, all_lassos, lasso, random_lasso
from .verdict import FunctionStepper, VerdictFunction


@dataclass(frozen=True)
class ServerAlphabet:
    req_tokens: tuple
    ack_tokens: tuple
    other_token = "other"

    def __post_init__(self):
        if len(self.req_tokens) != len(self.ack_tokens) or not self.req_tokens:
            raise ValueError("request and acknowledgement token lists must pair up")

    @property
    def alphabet(self):
        tokens = []
        for r, a in zip(self.req_tokens, self.ack_tokens):
            tokens.extend((r, a))
        tokens.append(self.other_token)
        return Alphabet(tuple(tokens))


def server_alphabet(k=1):
    """The standard server alphabet: req/ack for one pair, req1/ack1/... beyond."""
    if k == 1:
        return ServerAlphabet(("req",), ("ack",))
    return ServerAlphabet(tuple(f"req{i}" for i in range(1, k + 1)),
                          tuple(f"ack{i}" for i in range(1, k + 1)))


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
    factory = lambda alphabet: FunctionStepper(
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
    return Fraction(n, d) if r else q


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
    factory = lambda alphabet: FunctionStepper((_IDLE, 0, 0, 0), _art_step, _art_out)
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

    def level(self, s):
        """Sum of edge weights along the run of a finite trace."""
        q, total = self.initial, 0
        for sym in s:
            q, w = self.step(q, sym)
            total += w
        return total


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


def energy_verdict(A):
    """Monotone deficit tracker: the least credit covering the prefixes so far."""

    def step(state, symbol):
        q, total, lowest = state
        q2, w = A.step(q, symbol)
        return (q2, total + w, min(lowest, total + w))

    factory = lambda alphabet: FunctionStepper((A.initial, 0, 0), step,
                                               lambda st: -st[2])
    return VerdictFunction(dom.INTINF, stepper_factory=factory, name="energy")


def load_weighted_automaton(text):
    """Line-based weighted automaton: header lines plus ``q a -> q2 w``."""
    header, alphabet, transitions = read_transition_table(
        text, "q2 w", lambda q2, w: (q2, int(w)))
    return WeightedAutomaton(alphabet, tuple(header["states"]), header["initial"][0],
                             transitions)


# -- properties and continuation functionals -----------------------------


@dataclass
class QuantitativeProperty:
    """A lasso evaluator with optional closed-form continuation functionals."""
    name: str
    codomain: dom.ValueDomain
    eval_lasso: object
    alphabet: Alphabet = None
    nu_at: object = None
    mu_at: object = None


@dataclass(frozen=True)
class LassoSearchBudget:
    max_stem: int = 3
    max_loop: int = 3
    samples: int = 1000
    seed: int = 42


DEFAULT_SEARCH = LassoSearchBudget()


def _continuations(alphabet, search):
    if len(alphabet) <= 3:
        yield from all_lassos(alphabet, search.max_stem, search.max_loop)
    else:
        rng = random.Random(search.seed)
        for _ in range(search.samples):
            yield random_lasso(rng, alphabet, search.max_stem, search.max_loop)


def nu(p, s, search=DEFAULT_SEARCH):
    """sup of the property over all continuations of ``s``: closed form when
    available, otherwise a bounded-search lower bound of the true sup."""
    if p.nu_at is not None:
        return p.nu_at(s)
    values = [p.eval_lasso(g.prepend(s)) for g in _continuations(s.alphabet, search)]
    return p.codomain.sup(values)


def mu(p, s, search=DEFAULT_SEARCH):
    """inf of the property over all continuations of ``s``: closed form when
    available, otherwise a bounded-search upper bound of the true inf."""
    if p.mu_at is not None:
        return p.mu_at(s)
    values = [p.eval_lasso(g.prepend(s)) for g in _continuations(s.alphabet, search)]
    return p.codomain.inf(values)


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
    """Outcome of the two independent sampled checks.

    ``continuity_witness`` (trace, limit-estimate, property-value) is set
    when the best-continuation limit provably exceeds the property value on
    some suite trace; dually for ``cocontinuity_witness``.  A None witness
    means the suite is consistent with the respective notion, which is
    evidence, not proof.
    """
    continuous_consistent: bool
    continuity_witness: object
    cocontinuous_consistent: bool
    cocontinuity_witness: object


def _stalled_gap(d, values, pv, above):
    """The functional's last three values agree and sit strictly on the
    wrong side of the property value.  Requiring the stall keeps a sequence
    that is still converging toward the value from being mistaken for a gap."""
    tail = values[-3:]
    if any(x != tail[0] for x in tail[1:]):
        return False
    return d.lt(pv, tail[0]) if above else d.lt(tail[0], pv)


def check_continuity(p, suite, depth=6, search=DEFAULT_SEARCH):
    d = p.codomain
    continuity_witness = None
    cocontinuity_witness = None
    for t in suite:
        pv = p.eval_lasso(t)
        nus = [nu(p, t.prefix(i), search) for i in range(depth + 1)]
        mus = [mu(p, t.prefix(i), search) for i in range(depth + 1)]
        if continuity_witness is None and _stalled_gap(d, nus, pv, above=True):
            continuity_witness = (t, nus[-1], pv)
        if cocontinuity_witness is None and _stalled_gap(d, mus, pv, above=False):
            cocontinuity_witness = (t, mus[-1], pv)
        if continuity_witness and cocontinuity_witness:
            break
    return ContinuityReport(continuity_witness is None, continuity_witness,
                            cocontinuity_witness is None, cocontinuity_witness)


def continuity_suite(alphabet, extras=()):
    """All lassos with stem and loop of at most 2 symbols plus caller-chosen
    witness traces."""
    traces = list(all_lassos(alphabet, 2, 2))
    traces.extend(extras)
    return traces
