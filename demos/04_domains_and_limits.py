"""Value domains, limit detection, and continuity.

Shows the four boolean orderings, how lasso limits resolve (exact,
escaping, or honestly undetermined), and which request/acknowledgement
properties admit conservative monotone monitoring.
"""

import pathlib

from quantmon import boolprop as bp
from quantmon import domain as dom
from quantmon import machine as mc
from quantmon import qprop as qp
from quantmon.trace import Alphabet, parse_lasso
from quantmon.verdict import LimitBudget, eval_liminf, eval_limsup


MAVG_SPEC = pathlib.Path(__file__).resolve().parent / "machines" / "mavg.mspec"


def banner(title):
    print()
    print(title)
    print("-" * len(title))


def main():
    banner("four boolean orderings of the same two truth values")
    for d in dom.BOOLEAN_DOMAINS:
        rel = d.leq(False, True)
        rel_txt = {True: "F < T", False: "T < F"}.get(rel, "F, T incomparable")
        extras = f", bottom {dom.render_value(d.bottom)}" if d.bottom is not None else ""
        print(f"  {d.name:<5} {rel_txt}{extras}")
    print("  join of bottom and T in the bottomed domain:",
          dom.render_value(dom.BBOT.sup([dom.BOT, True])))
    try:
        dom.B.sup([True, False])
    except Exception as exc:
        print(f"  join of T and F in the flat domain: {type(exc).__name__}")

    banner("how limits on lassos resolve")
    a = Alphabet(("a",))
    server = qp.server_alphabet(1).alphabet
    cases = [
        ("stabilising counter", qp.mrt_verdict(),
         parse_lasso("req ack req other ack ; other", server), eval_limsup),
        ("unbounded counter", qp.mrt_verdict(),
         parse_lasso("req ; other", server), eval_limsup),
        ("converging average", qp.art_verdict(),
         parse_lasso("; req ack", server), eval_liminf),
    ]
    for label, verdict, t, evaluate in cases:
        res = evaluate(verdict, t, LimitBudget(max_loop_iterations=128))
        print(f"  {label:<22} {t.render():<30} -> {res.kind.value}"
              f" {dom.render_value(res.value)}")
    print("  (the hand-written average converges without stabilising, so the")
    print("   window rules leave it undetermined; the mavg.mspec machine is")
    print("   accelerated and closes the same limit in form)")
    mavg = mc.generated_verdict(mc.load_machine(MAVG_SPEC.read_text(), name="mavg"))
    t = parse_lasso("; req ack", server)
    res = eval_liminf(mavg, t)
    print(f"  {'mavg.mspec average':<22} {t.render():<30} -> {res.kind.value}"
          f" {dom.render_value(res.value)} after {res.iterations_used} iterations")

    banner("continuity: which properties allow conservative monitoring")
    suite = qp.continuity_suite(server,
                                extras=[parse_lasso("; req other ack", server)])
    for prop in (qp.mrt_property(), qp.art_property()):
        rep = qp.check_continuity(prop, suite)
        print(f"  {prop.name:<4} best-continuation limit matches: "
              f"{rep.continuous_consistent};  worst-continuation: "
              f"{rep.cocontinuous_consistent}")
        if rep.cocontinuity_witness:
            t, est, val = rep.cocontinuity_witness
            print(f"        witness {t.render()}: functional stalls at "
                  f"{dom.render_value(est)} but the value is {dom.render_value(val)}")
    ab = Alphabet(("a", "b"))
    ds = qp.discounted_safety_property(bp.safety_never(ab, "b"))
    dc = qp.discounted_cosafety_property(bp.cosafety_eventually(ab, "a"))
    rep_s = qp.check_continuity(ds, qp.continuity_suite(ab))
    rep_c = qp.check_continuity(dc, qp.continuity_suite(ab))
    print(f"  discounted safety is continuous on the suite: "
          f"{rep_s.continuous_consistent}")
    print(f"  discounted co-safety is co-continuous on the suite: "
          f"{rep_c.cocontinuous_consistent}")


if __name__ == "__main__":
    main()
