"""Boolean trace properties as deterministic automata, and the monitor
constructions for the safety-progress classes.

An automaton is total and deterministic; its acceptance kind fixes the
omega-semantics.  Safety/co-safety determining sets must be traps (closed
under transitions) so that the reached state alone carries the history.

Determination, classical monitorability, and lasso membership all reduce to
reachability and cycle analysis on the (tiny) transition graph.  The
modality checks take their approximation side, ``Side``, from ``verdict``.
"""

import enum
from dataclasses import dataclass
from functools import cached_property

from . import domain as dom
from .errors import AcceptanceKindError, AutomatonError, UnsupportedDomainError
from .trace import Alphabet, all_finite_traces, all_lassos, read_sections
from .verdict import (
    FunctionStepper, Side, VerdictFunction,
    DEFAULT_BUDGET, _derived, eval_liminf, eval_limsup,
)


class AcceptanceKind(enum.Enum):
    SAFETY = "safety"
    COSAFETY = "cosafety"
    BUCHI = "buchi"
    COBUCHI = "cobuchi"


# the kind of the complement property
_DUAL_KIND = {
    AcceptanceKind.SAFETY: AcceptanceKind.COSAFETY,
    AcceptanceKind.COSAFETY: AcceptanceKind.SAFETY,
    AcceptanceKind.BUCHI: AcceptanceKind.COBUCHI,
    AcceptanceKind.COBUCHI: AcceptanceKind.BUCHI,
}


class BooleanPropertyAutomaton:
    """Deterministic total automaton over a finite alphabet with one of the
    acceptance kinds above.  ``accepting`` is the kind's state set: bad states
    for safety, good states for co-safety, the accepting set otherwise."""

    def __init__(self, alphabet, states, initial, transitions, kind, accepting):
        self.alphabet = alphabet
        self.states = tuple(states)
        self.initial = initial
        self.transitions = dict(transitions)
        self.kind = kind
        self.accepting = frozenset(accepting)
        check_transition_table(alphabet, self.states, initial, self.transitions)
        for st in self.accepting:
            if st not in self.states:
                raise AutomatonError(f"accepting state {st!r} unknown")
        if kind in (AcceptanceKind.SAFETY, AcceptanceKind.COSAFETY):
            for q in self.accepting:
                for a in alphabet:
                    if self.transitions[(q, a)] not in self.accepting:
                        raise AutomatonError(
                            f"{kind.value} set must be a trap: "
                            f"{q!r} --{a}--> {self.transitions[(q, a)]!r} escapes")

    def step(self, state, symbol):
        return self.transitions[(state, symbol)]

    def run_state(self, finite_trace):
        q = self.initial
        for a in finite_trace:
            q = self.transitions[(q, a)]
        return q

    # -- graph analysis -------------------------------------------------

    def reachable(self, start, allowed=None):
        if allowed is not None and start not in allowed:
            return frozenset()
        seen = {start}
        frontier = [start]
        while frontier:
            q = frontier.pop()
            for a in self.alphabet:
                nxt = self.transitions[(q, a)]
                if nxt in seen or (allowed is not None and nxt not in allowed):
                    continue
                seen.add(nxt)
                frontier.append(nxt)
        return frozenset(seen)

    def _on_cycle(self, q, subset):
        """Does some run inside ``subset`` leave q and come back to it?"""
        return q in subset and any(q in self.reachable(self.transitions[(q, a)], subset)
                                   for a in self.alphabet)

    def _has_cycle_within(self, subset):
        return any(self._on_cycle(q, subset) for q in subset)

    @cached_property
    def pos_states(self):
        """States from which every infinite continuation is accepted."""
        return self._accepted_everywhere(self.kind, self.accepting)

    @cached_property
    def neg_states(self):
        """States from which every infinite continuation is rejected, that
        is, accepted by the complement: the dual kind over the same traps
        (safety and co-safety) or over the other states (Buchi and
        co-Buchi)."""
        dual = _DUAL_KIND[self.kind]
        if self.kind in (AcceptanceKind.SAFETY, AcceptanceKind.COSAFETY):
            return self._accepted_everywhere(dual, self.accepting)
        return self._accepted_everywhere(dual, frozenset(self.states) - self.accepting)

    def _accepted_everywhere(self, kind, acc):
        """States from which every infinite continuation is accepted under
        ``kind`` with state set ``acc``."""
        return frozenset(q for q in self.states if self._pos(q, kind, acc))

    def _pos(self, q, kind, acc):
        others = frozenset(self.states) - acc
        if kind is AcceptanceKind.SAFETY:
            return not (self.reachable(q) & acc)
        if kind is AcceptanceKind.COSAFETY:
            return not self._has_cycle_within(self.reachable(q, allowed=others))
        if kind is AcceptanceKind.COBUCHI:
            reach = self.reachable(q)
            return not any(self._on_cycle(n, reach) for n in reach & others)
        return not self._has_cycle_within(self.reachable(q) & others)  # Buchi

    def __repr__(self):
        return (f"<automaton {self.kind.value} |Q|={len(self.states)} "
                f"over {{{','.join(self.alphabet)}}}>")


def membership(P, t):
    """Exact omega-acceptance of the lasso's eventually periodic run."""
    visited = {P.initial}
    q = P.initial
    for a in t.stem:
        q = P.step(q, a)
        visited.add(q)
    boundary = {q: 0}
    iteration_states = []
    recurring = None
    for k in range(1, len(P.states) + 2):
        states_this = []
        for a in t.loop:
            q = P.step(q, a)
            states_this.append(q)
            visited.add(q)
        iteration_states.append(states_this)
        if q in boundary:
            j = boundary[q]
            recurring = frozenset(s for it in iteration_states[j:] for s in it)
            break
        boundary[q] = k
    assert recurring is not None, "boundary state must repeat within |Q|+1 iterations"
    acc = P.accepting
    if P.kind is AcceptanceKind.SAFETY:
        return not (visited & acc)
    if P.kind is AcceptanceKind.COSAFETY:
        return bool(visited & acc)
    if P.kind is AcceptanceKind.BUCHI:
        return bool(recurring & acc)
    return recurring <= acc  # co-Buchi


def determines(P, s, polarity):
    """Does the finite trace ``s`` positively/negatively determine P?"""
    q = P.run_state(s)
    if polarity == "pos":
        return q in P.pos_states
    if polarity == "neg":
        return q in P.neg_states
    raise ValueError("polarity must be 'pos' or 'neg'")


def classically_monitorable(P):
    """From every reachable state, some determining state stays reachable."""
    determining = P.pos_states | P.neg_states
    for q in P.reachable(P.initial):
        if not (P.reachable(q) & determining):
            return False
    return True


def characteristic_property(P):
    """The lasso evaluator of P's characteristic function (T iff member)."""
    return lambda t: membership(P, t)


# -- monitor constructions ---------------------------------------------


def _state_output_verdict(P, out_fn, codomain, name):
    factory = lambda: FunctionStepper(P.initial, P.step, out_fn)
    return VerdictFunction(codomain, factory, name)


def monitor_safety(P):
    """Irrevocably reports F once the safety property is violated."""
    if P.kind is not AcceptanceKind.SAFETY:
        raise AcceptanceKindError("monitor_safety needs a safety automaton")
    neg = P.neg_states
    return _state_output_verdict(P, lambda q: False if q in neg else True,
                                 dom.BF, "safety-monitor")


def monitor_cosafety(P):
    """Irrevocably reports T once the co-safety property is satisfied."""
    if P.kind is not AcceptanceKind.COSAFETY:
        raise AcceptanceKindError("monitor_cosafety needs a co-safety automaton")
    pos = P.pos_states
    return _state_output_verdict(P, lambda q: q in pos,
                                 dom.BT, "cosafety-monitor")


def monitor_response(P):
    """T exactly on the witness prefixes (those ending in an accepting state);
    its limsup on a lasso equals membership."""
    if P.kind is not AcceptanceKind.BUCHI:
        raise AcceptanceKindError("monitor_response needs a Buchi automaton")
    acc = P.accepting
    return _state_output_verdict(P, lambda q: q in acc,
                                 dom.BT, "response-monitor")


def monitor_persistence(P):
    """T on witness prefixes over the F-topped domain; its limsup there is T
    exactly when all but finitely many prefixes are witnesses."""
    if P.kind is not AcceptanceKind.COBUCHI:
        raise AcceptanceKindError("monitor_persistence needs a co-Buchi automaton")
    acc = P.accepting
    return _state_output_verdict(P, lambda q: q in acc,
                                 dom.BF, "persistence-monitor")


_CANONICAL_MONITORS = {
    AcceptanceKind.SAFETY: monitor_safety,
    AcceptanceKind.COSAFETY: monitor_cosafety,
    AcceptanceKind.BUCHI: monitor_response,
    AcceptanceKind.COBUCHI: monitor_persistence,
}


def canonical_monitor(P):
    """The monitor construction for P's acceptance kind: safety, co-safety,
    response (Buchi) or persistence (co-Buchi)."""
    return _CANONICAL_MONITORS[P.kind](P)


def monitor_any_existential(P):
    """T once the property is positively determined, F otherwise.

    Monotone on the T-topped domain and existential from below for every
    property: no overshoot, and equality is reachable from every prefix.
    """
    pos = P.pos_states
    return _state_output_verdict(P, lambda q: q in pos,
                                 dom.BT, "existential-monitor")


def _check_shared_alphabet(pairs, what):
    """Raise AutomatonError unless every pair member reads the same symbols."""
    first = set(pairs[0][0].alphabet)
    for P in (P for pair in pairs for P in pair):
        if set(P.alphabet) != first:
            raise AutomatonError(
                f"{what} members must share an alphabet: "
                f"{' '.join(pairs[0][0].alphabet)} vs {' '.join(P.alphabet)}")


@dataclass(frozen=True)
class _PairList:
    """Conjunction of two-kind disjunctions (A_i or B_i); a subclass names
    the list and, per pair member, its kind and that kind's label."""
    pairs: tuple

    def __post_init__(self):
        if not self.pairs:
            raise ValueError(f"{self._name} list must have at least one pair")
        for pair in self.pairs:
            for place, P, (kind, label) in zip(("first", "second"), pair, self._members,
                                               strict=True):
                if P.kind is not kind:
                    raise AcceptanceKindError(f"{place} pair member must be {label} automaton")
        _check_shared_alphabet(self.pairs, self._name)

    @property
    def k(self):
        return len(self.pairs)

    def membership(self, t):
        return all(membership(a, t) or membership(b, t) for a, b in self.pairs)


class ObligationList(_PairList):
    """Conjunction of safety-or-cosafety disjunctions (S_i or C_i)."""
    _name = "obligation"
    _members = ((AcceptanceKind.SAFETY, "a safety"), (AcceptanceKind.COSAFETY, "a co-safety"))


def _product(automata):
    """Start state and step function of the synchronous product of
    ``automata``: a tuple of their states, one per automaton, in order."""
    # per symbol, one successor map per automaton
    rows = {a: [{q: P.transitions[(q, a)] for q in P.states} for P in automata]
            for a in automata[0].alphabet}

    def step(states, symbol):
        return tuple(map(dict.__getitem__, rows[symbol], states))

    return tuple(P.initial for P in automata), step


def monitor_obligation(obligation):
    """T while every conjunct is still alive: the i-th conjunct is alive when
    its safety part is not yet refuted or its co-safety part is confirmed.
    The verdict lives on the flat boolean domain and switches at most twice
    per conjunct."""
    pairs = obligation.pairs
    init, step = _product([P for pair in pairs for P in pair])
    alive = [(s.neg_states, c.pos_states) for s, c in pairs]

    def out(states):
        return all(q_s not in neg or q_c in pos
                   for (neg, pos), q_s, q_c in zip(alive, states[0::2], states[1::2]))

    factory = lambda: FunctionStepper(init, step, out)
    return VerdictFunction(dom.B, stepper_factory=factory,
                           name=f"obligation-monitor(k={len(pairs)})")


class ReactivityList(_PairList):
    """Conjunction of response-or-persistence disjunctions (R_i or P_i)."""
    _name = "reactivity"
    _members = ((AcceptanceKind.BUCHI, "a Buchi"), (AcceptanceKind.COBUCHI, "a co-Buchi"))


_RESP, _PERS, _DONE = 0, 1, 2


def monitor_reactivity(reactivity):
    """Existential-from-below monitor on the bottomed boolean domain.

    Each conjunct starts in a response phase where it "fires" whenever its
    response witness shows T (or the response part is positively determined).
    The combined monitor emits T whenever every conjunct has fired since the
    last T, then resets its memory.  When a response part becomes negatively
    determined the conjunct switches to watching its persistence part: from
    then on the conjunct only fires once the persistence part is positively
    determined, the monitor emits F at every non-witness prefix of the
    persistence part, and a conjunct whose persistence part is also
    negatively determined pins the output to F.  Everything else is bottom.
    """
    pairs = reactivity.pairs
    k = len(pairs)
    init, product_step = _product([P for pair in pairs for P in pair])
    acc_r = [r.accepting for r, _ in pairs]
    pos_r = [r.pos_states for r, _ in pairs]
    neg_r = [r.neg_states for r, _ in pairs]
    acc_p = [p.accepting for _, p in pairs]
    pos_p = [p.pos_states for _, p in pairs]
    neg_p = [p.neg_states for _, p in pairs]

    def step(state, symbol):
        states, phases, fired, _ = state
        states = product_step(states, symbol)
        r_states, p_states = states[0::2], states[1::2]
        phases = list(phases)
        fired = list(fired)
        for i in range(k):
            if phases[i] == _RESP:
                if r_states[i] in neg_r[i]:
                    phases[i] = _PERS
                    fired[i] = False
                elif r_states[i] in acc_r[i] or r_states[i] in pos_r[i]:
                    fired[i] = True
            if phases[i] == _PERS and p_states[i] in pos_p[i]:
                phases[i] = _DONE
        if all(fired[i] or phases[i] == _DONE for i in range(k)):
            fired = [False] * k
            emitted_t = True
        else:
            emitted_t = False
        return (states, tuple(phases), tuple(fired), emitted_t)

    def out(state):
        states, phases, _fired, emitted_t = state
        p_states = states[1::2]
        if any(phases[i] == _PERS and p_states[i] in neg_p[i] for i in range(k)):
            return False  # some conjunct is refuted for every continuation
        if emitted_t:
            return True
        if any(phases[i] == _PERS and p_states[i] not in acc_p[i] for i in range(k)):
            return False
        return dom.BOT

    start = (init, (_RESP,) * k, (False,) * k, True)
    factory = lambda: FunctionStepper(start, step, out)
    return VerdictFunction(dom.BBOT, stepper_factory=factory,
                           name=f"reactivity-monitor(k={k})")


def smooth_bot(v):
    """Flatten a bottomed boolean verdict onto the flat domain by repeating
    the last non-bottom output (T before any output arrives)."""
    if v.codomain != dom.BBOT:
        raise UnsupportedDomainError(
            f"smooth_bot needs a verdict on {dom.BBOT.name}, not on {v.codomain.name}")

    def smooth(last, x):
        return (last, last) if x is dom.BOT else (x, x)

    return _derived(dom.B, (v,), smooth, f"smooth({v.name})", memory=True)


# -- empirical modality checks -----------------------------------------


@dataclass
class ModalityReport:
    side: Side
    approximate_ok: bool
    universal_ok: bool
    existential_ok: object  # bool, or None when the check was not requested
    approximate_witnesses: list
    universal_witnesses: list
    existential_witnesses: list
    unresolved: list

    def summary(self):
        parts = [f"side={self.side.value}",
                 f"approximate={'pass' if self.approximate_ok else 'FAIL'}",
                 f"universal={'pass' if self.universal_ok else 'FAIL'}"]
        if self.existential_ok is not None:
            parts.append(f"existential={'pass' if self.existential_ok else 'FAIL'}")
        if self.unresolved:
            parts.append(f"unresolved={len(self.unresolved)}")
        return " ".join(parts)


def classify_modality(verdict, prop, side, suite, *, budget=DEFAULT_BUDGET,
                      existential_prefix_len=None):
    """Empirically check approximate/universal/existential monitoring of
    ``prop`` by ``verdict`` on one side, over a finite lasso suite.

    ``prop`` is a lasso evaluator (or an object exposing ``eval_lasso``).
    The existential check is only run when ``existential_prefix_len`` is
    given: it asks, for every finite trace up to that length, whether some
    lasso continuation with stem and loop of at most 2 symbols each reaches
    the property value exactly.  Both passes request one limit per lasso
    through one suite memo, so lassos that reach the same configuration
    before the same loop share one loop computation.
    """
    suite = list(suite)
    prop_fn = getattr(prop, "eval_lasso", prop)
    # compare in the property's domain when it declares one: a coarser
    # verdict codomain (naturals vs. rationals) embeds into it
    d = getattr(prop, "codomain", None) or verdict.codomain
    limit = eval_limsup if side is Side.BELOW else eval_liminf
    memo = {}
    approx_witnesses, universal_witnesses, unresolved = [], [], []
    for t in suite:
        res = limit(verdict, t, budget, memo)
        pv = prop_fn(t)
        if not res.is_determined:
            unresolved.append(t)
            continue
        if not side.covers(d, res.value, pv):
            approx_witnesses.append((t, res.value, pv))
        if res.value != pv:
            universal_witnesses.append((t, res.value, pv))
    approximate_ok = not approx_witnesses and not unresolved
    universal_ok = not universal_witnesses and not unresolved

    existential_ok = None
    existential_witnesses = []
    if existential_prefix_len is not None:
        alphabet = next(iter(suite)).alphabet
        existential_ok = True
        for s in all_finite_traces(alphabet, existential_prefix_len):
            found = False
            for g in all_lassos(alphabet, 2, 2):
                t = g.prepend(s)
                res = limit(verdict, t, budget, memo)
                if res.is_determined and res.value == prop_fn(t):
                    found = True
                    break
            if not found:
                existential_ok = False
                existential_witnesses.append(s)
        existential_ok = existential_ok and not approx_witnesses
    return ModalityReport(side, approximate_ok, universal_ok, existential_ok,
                          approx_witnesses, universal_witnesses,
                          existential_witnesses, unresolved)


# -- canonical and random automata -------------------------------------


def _table(alphabet, rows):
    return {(q, a): rows[q][a] for q in rows for a in alphabet}


def _trap_automaton(alphabet, symbol, start, trap, kind):
    """Two states: ``start`` moves on ``symbol`` into the trap ``trap``,
    which is the kind's state set."""
    rows = {start: {a: (trap if a == symbol else start) for a in alphabet},
            trap: {a: trap for a in alphabet}}
    return BooleanPropertyAutomaton(alphabet, (start, trap), start, _table(alphabet, rows),
                                    kind, {trap})


def safety_never(alphabet, forbidden):
    """Safety: the forbidden symbol never occurs."""
    return _trap_automaton(alphabet, forbidden, "ok", "bad", AcceptanceKind.SAFETY)


def cosafety_eventually(alphabet, target):
    """Co-safety: the target symbol eventually occurs."""
    return _trap_automaton(alphabet, target, "wait", "good", AcceptanceKind.COSAFETY)


def _hit_miss_automaton(alphabet, target, kind):
    """``hit`` right after the target symbol, ``miss`` elsewhere (and at the
    start); ``hit`` is the accepting set."""
    row = {a: ("hit" if a == target else "miss") for a in alphabet}
    return BooleanPropertyAutomaton(alphabet, ("hit", "miss"), "miss",
                                    _table(alphabet, {"hit": row, "miss": row}),
                                    kind, {"hit"})


def buchi_infinitely_often(alphabet, target):
    """Response: the target symbol occurs infinitely often."""
    return _hit_miss_automaton(alphabet, target, AcceptanceKind.BUCHI)


def cobuchi_eventually_always(alphabet, target):
    """Persistence: eventually only the target symbol occurs."""
    return _hit_miss_automaton(alphabet, target, AcceptanceKind.COBUCHI)


def first_symbol_is(alphabet, symbol):
    """Both safe and co-safe: the first observation equals ``symbol``.  It
    is given as a safety automaton whose trap is ``no``."""
    rows = {"start": {a: ("yes" if a == symbol else "no") for a in alphabet},
            "yes": {a: "yes" for a in alphabet},
            "no": {a: "no" for a in alphabet}}
    return BooleanPropertyAutomaton(alphabet, ("start", "yes", "no"), "start",
                                    _table(alphabet, rows), AcceptanceKind.SAFETY, {"no"})


def empty_cobuchi(alphabet):
    """The empty persistence property (no accepting states)."""
    rows = {"q": {a: "q" for a in alphabet}}
    return BooleanPropertyAutomaton(alphabet, ("q",), "q", _table(alphabet, rows),
                                    AcceptanceKind.COBUCHI, set())


def _random_trap_automaton(rng, alphabet, n_states, trap, kind):
    """Random total DFA on q0..q(n-1) plus one absorbing state ``trap``,
    which is the kind's state set."""
    names = [f"q{i}" for i in range(n_states)] + [trap]
    transitions = {}
    for q in names:
        for a in alphabet:
            transitions[(q, a)] = trap if q == trap else rng.choice(names)
    return BooleanPropertyAutomaton(alphabet, names, "q0", transitions, kind, {trap})


def random_safety_automaton(rng, alphabet, n_states=3):
    """Random total DFA with one absorbing bad state."""
    return _random_trap_automaton(rng, alphabet, n_states, "bad", AcceptanceKind.SAFETY)


def random_cosafety_automaton(rng, alphabet, n_states=3):
    """Random total DFA with one absorbing good state."""
    return _random_trap_automaton(rng, alphabet, n_states, "good", AcceptanceKind.COSAFETY)


def random_obligation_list(rng, alphabet, k):
    return ObligationList(tuple(
        (random_safety_automaton(rng, alphabet), random_cosafety_automaton(rng, alphabet))
        for _ in range(k)))


# -- transition tables and the file format --------------------------------


def check_transition_table(alphabet, states, initial, transitions, target=lambda entry: entry):
    """Reject a table that is not total and deterministic on ``states`` x
    ``alphabet`` or that leaves the state set; ``target`` reads the successor
    out of a table entry."""
    if len(set(states)) != len(states) or not states:
        raise AutomatonError("states must be non-empty and distinct")
    if initial not in states:
        raise AutomatonError(f"initial state {initial!r} unknown")
    for q in states:
        for a in alphabet:
            if (q, a) not in transitions:
                raise AutomatonError(f"missing transition from {q!r} on {a!r}")
            if target(transitions[(q, a)]) not in states:
                raise AutomatonError(f"transition from {q!r} on {a!r} leaves the state set")
    if len(transitions) != len(states) * len(alphabet):
        extra = set(transitions) - {(q, a) for q in states for a in alphabet}
        raise AutomatonError(f"unexpected transitions {sorted(extra)}")


def read_transition_table(text, rhs, entry, required=(), optional=()):
    """Parse an automaton file into its header, alphabet and transition table.

    Besides ``alphabet:``, ``states:``, ``initial:`` and the ``required``
    and ``optional`` header keys, every line is ``q a -> rhs``, at most one
    per (q, a); ``entry`` turns the words of ``rhs`` into the table entry and
    raises ValueError when they do not fit.
    """
    header, lines = read_sections(text, ("alphabet", "states", "initial") + required,
                                  AutomatonError, optional)
    transitions = {}
    for lineno, line in lines:
        parts = line.split()
        try:
            if len(parts) != 3 + len(rhs.split()) or parts[2] != "->":
                raise ValueError
            value = entry(*parts[3:])
        except ValueError:
            raise AutomatonError(f"line {lineno}: expected 'q a -> {rhs}', got {line!r}")
        if (parts[0], parts[1]) in transitions:
            raise AutomatonError(f"line {lineno}: duplicate transition for "
                                 f"({parts[0]}, {parts[1]})")
        transitions[(parts[0], parts[1])] = value
    return header, Alphabet(tuple(header["alphabet"])), transitions


def load_automaton(text):
    """Parse the line-based automaton format.

    Required lines: ``alphabet:``, ``states:``, ``initial:``,
    ``accept-kind:``, ``accept:`` plus one ``q a -> q'`` line per
    (state, symbol).  For safety automata the accept set lists the bad trap
    states; for co-safety automata the good trap states.
    """
    header, alphabet, transitions = read_transition_table(
        text, "q2", lambda q2: q2, ("accept-kind",), ("accept",))
    try:
        kind = AcceptanceKind(header["accept-kind"][0])
    except (ValueError, IndexError):
        raise AutomatonError(f"bad accept-kind {header['accept-kind']}")
    return BooleanPropertyAutomaton(alphabet, tuple(header["states"]),
                                    header["initial"][0], transitions, kind,
                                    set(header.get("accept", ())))


def render_automaton(P):
    lines = [f"alphabet: {' '.join(P.alphabet)}",
             f"states: {' '.join(P.states)}",
             f"initial: {P.initial}",
             f"accept-kind: {P.kind.value}",
             f"accept: {' '.join(sorted(P.accepting))}"]
    for q in P.states:
        for a in P.alphabet:
            lines.append(f"{q} {a} -> {P.transitions[(q, a)]}")
    return "\n".join(lines) + "\n"
