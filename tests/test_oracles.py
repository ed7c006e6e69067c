"""Every bundled verdict against its ground-truth oracle.

``ORACLES`` gives each entry of ``BUNDLED_VERDICTS`` and of
``COMBINED_VERDICTS`` an oracle (an ``eval_*`` evaluator or automaton
membership), the relation in which its limits stand to the oracle's value
(``eq``, or ``le``/``ge`` for an approximation from below/above), the sides
on which they do (``Side.BELOW`` reads the limsup and ``Side.ABOVE`` the
liminf, as ``classify_modality`` does), the number of limits it leaves
undetermined on its default suite and the number that the window rule
settles there.  A determined limit must stand in its relation, and a
divergent one must name an infinite extreme of its codomain.
"""

import random
from functools import lru_cache
from itertools import groupby

import pytest
from hypothesis import given, settings, strategies as st

from quantmon import boolprop as bp
from quantmon import domain as dom
from quantmon import machine as mc
from quantmon import precision as pr
from quantmon import qprop as qp
from quantmon.boolprop import Side
from quantmon.trace import lasso
from quantmon.verdict import DEFAULT_BUDGET, LimitKind, eval_liminf, eval_limsup
from test_verdict import BUNDLED_VERDICTS, COMBINED_VERDICTS, DEMO_DIR, KNOWN_WRONG

BOTH = (Side.BELOW, Side.ABOVE)
LIMITS = {Side.BELOW: eval_limsup, Side.ABOVE: eval_liminf}
RELATIONS = {
    "eq": lambda d, limit, truth: limit == truth,
    "le": lambda d, limit, truth: d.le(limit, truth),
    "ge": lambda d, limit, truth: d.le(truth, limit),
}


def _kpair(k):
    return lambda t: qp.eval_kpair_mrt(t, k)


def _grouped_kpair(k):
    """eval_kpair_mrt with each pair given the maximum of its group {2g-1, 2g},
    the value that Mkgrp's shared register reports."""
    def oracle(t):
        truth = qp.eval_kpair_mrt(t, k)
        return tuple(max(truth[j] for j in range(k) if j // 2 == i // 2) for i in range(k))
    return oracle


def _pk(t):
    return mc.eval_pk(t, 4)


def _membership(name):
    P = bp.load_automaton((DEMO_DIR / "automata" / name).read_text())
    return lambda t: bp.membership(P, t)


# name: (oracle, relation, sides, limits on the default suite that are
#        undetermined, that the window rule settles)
ORACLES = {
    "Madd": (mc.eval_doubling, "eq", BOTH, 42, 0),
    "Mavg": (qp.eval_art, "eq", BOTH, 0, 0),
    "Mavg2": (qp.eval_art, "eq", BOTH, 0, 0),
    "Mbin3": (mc.eval_binary_pk, "ge", BOTH, 0, 0),
    "Mcount": (mc.eval_doubling, "le", BOTH, 0, 0),
    "Mfin1": (qp.eval_mrt, "le", BOTH, 0, 0),
    "Mfin2": (qp.eval_mrt, "le", BOTH, 0, 0),
    "Mfin3": (qp.eval_mrt, "le", BOTH, 0, 0),
    "Mfin4": (qp.eval_mrt, "le", BOTH, 0, 0),
    "Mkgrp3": (_grouped_kpair(3), "le", BOTH, 0, 0),
    "Mkpair2": (_kpair(2), "eq", BOTH, 0, 0),
    "Mkpair3": (_kpair(3), "eq", BOTH, 0, 0),
    "Mkprio3": (_kpair(3), "le", BOTH, 0, 0),
    "Mkseq3": (_kpair(3), "le", BOTH, 0, 0),
    "Mkseq4": (_kpair(4), "le", BOTH, 0, 0),
    "Mmax": (qp.eval_mrt, "eq", BOTH, 0, 0),
    "Mpk4": (_pk, "eq", BOTH, 0, 0),
    "Mpk4l2": (_pk, "ge", BOTH, 0, 0),
    "Mpk4l3": (_pk, "ge", BOTH, 0, 0),
    "art": (qp.eval_art, "eq", BOTH, 119, 129),
    # the liminf of a (co-)Buchi monitor is T only when the run stays
    # accepting, which membership does not ask
    "ev_always_a.aut": (_membership("ev_always_a.aut"), "eq", (Side.BELOW,), 0, 0),
    "eventually_a.aut": (_membership("eventually_a.aut"), "eq", BOTH, 0, 0),
    "inf_often_a.aut": (_membership("inf_often_a.aut"), "eq", (Side.BELOW,), 0, 0),
    "mavg.mspec": (qp.eval_art, "eq", BOTH, 0, 0),
    "mmax.mspec": (qp.eval_mrt, "eq", BOTH, 0, 0),
    "mrt": (qp.eval_mrt, "eq", BOTH, 0, 24),
    "never_b.aut": (_membership("never_b.aut"), "eq", BOTH, 0, 0),
    # COMBINED_VERDICTS
    "max(Mfin2,Mmax)": (qp.eval_mrt, "eq", BOTH, 0, 24),
    "compl(mrt)": (qp.eval_mrt, "eq", BOTH, 0, 24),
}
SUBJECTS = {**BUNDLED_VERDICTS, **COMBINED_VERDICTS}


def test_every_bundled_verdict_has_an_oracle():
    assert set(ORACLES) == set(SUBJECTS)


@lru_cache(maxsize=None)
def _subject(name):
    return SUBJECTS[name]()


def _runs(symbols):
    """The symbols with each run of one symbol written ``symbol^length``."""
    runs = [(sym, len(list(run))) for sym, run in groupby(symbols)]
    return " ".join(sym if n == 1 else f"{sym}^{n}" for sym, n in runs)


def _check(name, t, side, res):
    """Assert that ``res``, the ``side`` limit of verdict ``name`` on ``t``,
    stands in its relation to the oracle if it is determined."""
    if not res.is_determined:
        return
    oracle, relation = ORACLES[name][:2]
    d = _subject(name)[0].codomain
    truth = oracle(t)
    assert RELATIONS[relation](d, res.value, truth), \
        f"{name} {side.value} on {_runs(t.stem)} ; {_runs(t.loop)}: " \
        f"{res.render()} against {dom.render_value(truth)}"
    extreme = {LimitKind.DIVERGED_TO_TOP: d.top, LimitKind.DIVERGED_TO_BOTTOM: d.bottom}
    if res.kind in extreme:
        value, end = res.value, extreme[res.kind]
        pairs = zip(value, end) if isinstance(value, tuple) else [(value, end)]
        assert any(v == e and v in (dom.INF, dom.NEG_INF) for v, e in pairs), res


@pytest.mark.parametrize("name", sorted(ORACLES))
def test_limits_on_the_default_suite(name):
    # no lasso here has a stem past the budget, so the KNOWN_WRONG verdicts
    # are right on all of them
    verdict, alphabet = _subject(name)
    sides, undetermined, window = ORACLES[name][2:]
    # a limit that runs out the budget without acceleration is the window's
    budget = None if hasattr(verdict.stepper(), "accelerate") \
        else DEFAULT_BUDGET.max_loop_iterations
    counts = [0, 0]
    for side in BOTH:
        memo = {}
        for t in pr.default_suite(alphabet):
            res = LIMITS[side](verdict, t, memo=memo)
            counts[0] += not res.is_determined
            counts[1] += res.is_determined and res.iterations_used == budget
            if side in sides:
                _check(name, t, side, res)
    assert counts == [undetermined, window]


LONG = 3 * DEFAULT_BUDGET.max_loop_iterations
SERVERS = {qp.server_alphabet(k).alphabet: qp.server_alphabet(k) for k in (1, 2, 3, 4)}


def _traffic(rng, sa, n, pending):
    """``n`` events of well-formed traffic over the server alphabet ``sa``:
    a pair is requested only while idle and acknowledged only while
    pending, as recorded in the list ``pending``, which it updates."""
    out = []
    for _ in range(n):
        i = rng.randrange(len(pending))
        if rng.random() < 0.3:
            out.append((sa.ack_tokens if pending[i] else sa.req_tokens)[i])
            pending[i] = not pending[i]
        else:
            out.append("other")
    return out


@st.composite
def server_lassos(draw, alphabet):
    """Well-formed traffic, a wait for one pair that may outlast the budget
    and more traffic, then a loop that goes on with the traffic (its
    repetition may request a pending pair again) or only waits."""
    sa = SERVERS[alphabet]
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    pending = [False] * len(sa.req_tokens)
    stem = _traffic(rng, sa, draw(st.integers(0, LONG // 3)), pending)
    if not any(pending):
        i = rng.randrange(len(pending))
        stem.append(sa.req_tokens[i])
        pending[i] = True
    stem += ["other"] * draw(st.integers(0, 2 * LONG // 3 - 32))
    stem += _traffic(rng, sa, draw(st.integers(0, 16)), pending)
    loop = _traffic(rng, sa, draw(st.integers(1, 6)), pending) if draw(st.booleans()) \
        else ["other"]
    return lasso(stem, loop, alphabet)


@st.composite
def block_lassos(draw, alphabet):
    """A short word, two short blocks each repeated up to half of three times
    the budget, and a short word, then a short loop."""
    word = lambda lo, hi: st.lists(st.sampled_from(alphabet.symbols), min_size=lo, max_size=hi)
    stem = draw(word(0, 4))
    for _ in range(2):
        block = draw(word(1, 4))
        stem += block * (draw(st.integers(0, LONG // 2)) // len(block))
    return lasso(stem + draw(word(0, 4)), draw(word(1, 5)), alphabet)


def lassos_for(alphabet):
    return (server_lassos if alphabet in SERVERS else block_lassos)(alphabet)


@pytest.mark.parametrize("name", sorted(set(ORACLES) - set(KNOWN_WRONG)))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_limits_past_the_budget(name, data):
    """Stems up to three times the budget, where a transient can outlast it."""
    verdict, alphabet = _subject(name)
    t = data.draw(lassos_for(alphabet))
    for side in ORACLES[name][2]:
        _check(name, t, side, LIMITS[side](verdict, t))
