"""Empirical precision comparison between verdict functions.

Two verdicts monitoring the same side compare by their limits on every
suite trace: one is more precise when it dominates pointwise and beats the
other strictly somewhere.  All claims are relative to the suite and
reported as such; nothing is extrapolated to unseen traces.
"""

import enum
import json
import random
from dataclasses import dataclass, field

from .boolprop import Side
from .errors import InputError, UnsupportedDomainError
from .trace import all_lassos, random_lasso
from .verdict import DEFAULT_BUDGET, eval_liminf, eval_limsup


class PrecisionRelation(enum.Enum):
    MORE_PRECISE = "more-precise"
    LESS_PRECISE = "less-precise"
    EQUALLY_PRECISE = "equally-precise"
    INCOMPARABLE = "incomparable"
    UNDETERMINED = "undetermined"


@dataclass(frozen=True)
class LassoSuite:
    traces: tuple
    provenance: str = "explicit"

    def __post_init__(self):
        if not self.traces:
            raise InputError("suite must be non-empty")
        first = self.traces[0].alphabet
        if any(t.alphabet != first for t in self.traces):
            raise ValueError("suite traces must share an alphabet")

    def __iter__(self):
        return iter(self.traces)

    def __len__(self):
        return len(self.traces)


def exhaustive_suite(alphabet, max_stem=2, max_loop=3):
    return LassoSuite(tuple(all_lassos(alphabet, max_stem, max_loop)),
                      f"exhaustive:{max_stem}:{max_loop}")


def sampled_suite(alphabet, count=500, seed=42):
    """``count`` seeded random lassos with stem and loop of at most 4 symbols."""
    rng = random.Random(seed)
    traces = tuple(random_lasso(rng, alphabet, 4, 4) for _ in range(count))
    return LassoSuite(traces, f"sample:{count}:seed{seed}")


def default_suite(alphabet):
    """Exhaustive small lassos for alphabets up to 3 symbols, 500 samples
    of seed 42 beyond, matching the harness defaults."""
    if len(alphabet) <= 3:
        return exhaustive_suite(alphabet, 2, 3)
    return sampled_suite(alphabet, 500, 42)


@dataclass
class TraceRow:
    trace: object
    limit_1: object
    limit_2: object
    relation: str  # eq | lt (v2 below v1) | gt | incomparable | unresolved


@dataclass
class PrecisionReport:
    relation: PrecisionRelation
    side: Side
    suite: LassoSuite
    rows: list
    witness: object = None        # strict witness for More/LessPrecise
    witness_pair: object = None   # one failure in each direction for Incomparable
    unresolved: list = field(default_factory=list)

    def summary(self):
        out = f"{self.relation.value} (side={self.side.value}, suite={self.suite.provenance})"
        if self.witness is not None:
            out += f", witness={self.witness.render()!r}"
        if self.unresolved:
            out += f", unresolved={len(self.unresolved)}"
        return out


def _limits(verdict, suite, side, budget):
    """The verdict's limit row: its limsup (below) or liminf (above) on
    every suite trace.  One limit is requested per trace, through a suite
    memo that lives for this row, so lassos that reach the same
    configuration before the same loop share one loop computation."""
    fn = eval_limsup if side is Side.BELOW else eval_liminf
    memo = {}
    return [fn(verdict, t, budget, memo) for t in suite]


def _check_codomains(v1, v2):
    if v1.codomain != v2.codomain:
        raise UnsupportedDomainError(
            f"cannot compare verdicts over {v1.codomain.name} and {v2.codomain.name}")


def _classify(d, suite, side, lim1, lim2):
    """The precision report of the first limit row against the second."""
    rows, unresolved = [], []
    strict = [None, None]  # first trace where v1 (resp. v2) is strictly closer
    fails = [None, None]   # first trace where v1 (resp. v2) fails to dominate
    for t, r1, r2 in zip(suite, lim1, lim2):
        if not (r1.is_determined and r2.is_determined):
            relation = "unresolved"
            unresolved.append(t)
        elif r1.value == r2.value:
            relation = "eq"
        else:
            # v1 dominates when v2's limit approximates v1's from the side
            covers = (side.covers(d, r2.value, r1.value), side.covers(d, r1.value, r2.value))
            relation = "lt" if covers[0] else "gt" if covers[1] else "incomparable"
            if relation == "lt":
                strict[0] = strict[0] or t
            elif relation == "gt":
                strict[1] = strict[1] or t
            for k in (0, 1):
                if not covers[k]:
                    fails[k] = fails[k] or t
        rows.append(TraceRow(t, r1, r2, relation))
    witness = witness_pair = None
    if fails[0] is not None and fails[1] is not None:
        relation, witness_pair = PrecisionRelation.INCOMPARABLE, tuple(fails)
    elif unresolved:
        relation = PrecisionRelation.UNDETERMINED
    elif fails[0] is None and strict[0] is not None:
        relation, witness = PrecisionRelation.MORE_PRECISE, strict[0]
    elif fails[1] is None and strict[1] is not None:
        relation, witness = PrecisionRelation.LESS_PRECISE, strict[1]
    else:
        relation = PrecisionRelation.EQUALLY_PRECISE
    return PrecisionReport(relation, side, suite, rows, witness, witness_pair, unresolved)


def compare(v1, v2, suite, side=Side.BELOW, budget=DEFAULT_BUDGET):
    """Classify the precision relation of v1 versus v2 on the suite.

    Both verdicts must share a codomain and are compared on one fixed side;
    a trace whose limit is undetermined for either verdict is set aside and
    blocks equality and dominance claims (but cannot block incomparability,
    which is witnessed positively).
    """
    _check_codomains(v1, v2)
    return _classify(v1.codomain, suite, side, _limits(v1, suite, side, budget),
                     _limits(v2, suite, side, budget))


def hierarchy_experiment(family, suite, side=Side.BELOW, budget=DEFAULT_BUDGET,
                         prop=None):
    """Pairwise-compare an indexed verdict family (low to high resource).

    ``family`` is a list of (index, verdict) with indices ascending; the
    report list pairs each adjacent couple with the report of
    compare(higher, lower).  Each verdict's limit row is computed once,
    through its own suite memo (see ``_limits``), and shared by both of its
    reports.  When ``prop`` is given, each verdict is additionally checked
    to approximate it on the suite (from the given side, over the
    determined limits), and the returned entries carry that soundness flag.
    """
    rows = [_limits(v, suite, side, budget) for _, v in family]
    if prop is not None:
        prop_fn = getattr(prop, "eval_lasso", prop)
        values = [prop_fn(t) for t in suite]
        sound = [all(side.covers(v.codomain, r.value, pv)
                     for r, pv in zip(row, values) if r.is_determined)
                 for (_, v), row in zip(family, rows)]
    results = []
    for i in range(1, len(family)):
        (lo_idx, lo_v), (hi_idx, hi_v) = family[i - 1], family[i]
        _check_codomains(hi_v, lo_v)
        report = _classify(hi_v.codomain, suite, side, rows[i], rows[i - 1])
        entry = {"pair": (hi_idx, lo_idx), "report": report}
        if prop is not None:
            entry["sound"] = (sound[i], sound[i - 1])
        results.append(entry)
    return results


def report_jsonl(report, name_1="v1", name_2="v2"):
    """One JSON record per suite trace plus a summary record."""
    lines = []
    for row in report.rows:
        lines.append(json.dumps({
            "trace": row.trace.render(),
            f"limit_{name_1}": row.limit_1.render(),
            f"limit_{name_2}": row.limit_2.render(),
            "relation": row.relation,
        }, sort_keys=True))
    summary = {
        "summary": report.relation.value,
        "side": report.side.value,
        "suite": report.suite.provenance,
        "unresolved": len(report.unresolved),
    }
    if report.witness is not None:
        summary["witness"] = report.witness.render()
    if report.witness_pair is not None:
        summary["witness_pair"] = [t.render() for t in report.witness_pair]
    lines.append(json.dumps(summary, sort_keys=True))
    return lines
