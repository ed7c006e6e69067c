"""Correctness checks that do not go through the code path under test.

Limits are checked against the ground-truth evaluators; report relations
and soundness flags are re-derived here from the report's own rows, so
they check the aggregation in ``precision`` without trusting it.
"""

import operator


def le(a, b):
    """The order of the numeric domains, componentwise on tuples."""
    if isinstance(a, tuple):
        return all(x <= y for x, y in zip(a, b))
    return a <= b


class Tally:
    """Operations attempted and failed, limits decided, and any unexpected
    check failure (which makes the run incorrect)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.known = 0
        self.decided = 0
        self.limits = 0
        self.problems = []

    def events(self, got, want, label, ok=operator.eq):
        """Per-event outputs against their reference, one operation each;
        ``ok(got, want)`` says whether an output passes."""
        self.attempted += len(want)
        bad = sum(1 for g, w in zip(got, want) if not ok(g, w)) + abs(len(got) - len(want))
        self.fail(bad, f"{label}: {bad} of {len(want)} outputs fail against the reference")

    def fail(self, count, message):
        if count:
            self.failed += count
            self.problems.append(message)

    def limit(self, res, ref, times=1, known=None):
        """One requested limit (``times`` requests of the same one) against
        its reference value; ``ref`` None means no reference exists.

        ``known(res, ref)`` marks a mismatch as a known engine defect: it
        still counts as a failed operation but does not make the run
        incorrect.
        """
        self.attempted += times
        self.limits += times
        if res.is_determined:
            self.decided += times
            if ref is not None and res.value != ref:
                self.failed += times
                if known is not None and known(res, ref):
                    self.known += times
                else:
                    self.problems.append(f"limit {res.render()} differs from "
                                         f"reference {ref!r}")

    def expect(self, what, got, want):
        if got != want:
            self.problems.append(f"{what}: got {got!r}, expected {want!r}")


def derive_relation(pairs, below):
    """Row relations and the overall relation of v1 against v2 from their
    limit pairs, following the definition: v1 is more precise when it is
    at least as close to the property on every trace and strictly closer
    on one; an undetermined limit blocks every claim but incomparability."""
    rows = []
    covers_1 = covers_2 = True
    unresolved = False
    for r1, r2 in pairs:
        if not (r1.is_determined and r2.is_determined):
            rows.append("unresolved")
            unresolved = True
            continue
        a, b = r1.value, r2.value
        c1 = le(b, a) if below else le(a, b)
        c2 = le(a, b) if below else le(b, a)
        covers_1 &= c1
        covers_2 &= c2
        rows.append("eq" if a == b else "lt" if c1 else "gt" if c2 else "incomparable")
    if not covers_1 and not covers_2:
        return rows, "incomparable"
    if unresolved:
        return rows, "undetermined"
    if covers_1 and covers_2:
        return rows, "equally-precise"
    return rows, "more-precise" if covers_1 else "less-precise"


def check_report(tally, report, what, below, refs, known=None, times=(1, 1)):
    """Check a compare report: every limit against ``refs`` (one list per
    verdict, or None), the row and overall relations against their
    re-derivation.  ``times`` gives how often each verdict's limits were
    requested (twice when a hierarchy's soundness pass asked too)."""
    pairs = [(row.limit_1, row.limit_2) for row in report.rows]
    for i, (r1, r2) in enumerate(pairs):
        for side, res in enumerate((r1, r2)):
            ref = refs[side][i] if refs[side] is not None else None
            tally.limit(res, ref, times[side], known)
    rows, relation = derive_relation(pairs, below)
    tally.expect(f"{what} row relations", [row.relation for row in report.rows], rows)
    tally.expect(f"{what} relation", report.relation.value, relation)
    return relation


def check_hierarchy(tally, entries, names, what, below, refs, prop_values, known=None):
    """Check ``hierarchy_experiment`` entries over a family named ``names``
    (low to high).  Each verdict's limits are requested once by the
    soundness pass and once per compare it takes part in; by determinism
    the soundness pass sees the limits the compares report, so each row
    limit stands for all of its requests."""
    m = len(names)
    relations = []
    tally.expect(f"{what} pairs", len(entries), m - 1)
    for p, entry in enumerate(entries):
        hi, lo = p + 1, p
        # a verdict's soundness request rides on the compare where it is
        # the lower one, and on its only compare for the top verdict
        times = (2 if hi == m - 1 else 1, 2)
        relations.append(check_report(tally, entry["report"], f"{what} {names[hi]} vs {names[lo]}",
                                      below, (refs[hi], refs[lo]), known, times))
        sound = []
        for side in (1, 2):
            lims = [getattr(row, f"limit_{side}") for row in entry["report"].rows]
            sound.append(all(le(lim.value, pv) if below else le(pv, lim.value)
                             for lim, pv in zip(lims, prop_values) if lim.is_determined))
        tally.expect(f"{what} {names[hi]} vs {names[lo]} soundness", entry["sound"], tuple(sound))
    return relations


def requests_per_hierarchy(m, n):
    """Limits a hierarchy over ``m`` verdicts asks for on ``n`` traces: one
    soundness pass per verdict plus two verdicts per adjacent compare."""
    return m * n + 2 * (m - 1) * n
