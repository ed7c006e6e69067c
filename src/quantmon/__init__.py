"""quantmon: quantitative runtime monitoring over lasso traces.

Value domains, verdict functions and their limits, ground-truth quantitative
properties (response times, discounted properties, energy), boolean property
automata with safety-progress monitor constructions, register/counter
machines that generate verdicts, and a precision-comparison harness.
"""

from .domain import (
    B, BBOT, BT, BF, NATINF, INTINF, RATINF,
    BOT, INF, NEG_INF, INCOMPARABLE,
    ValueDomain, product, inverse, parse_domain, render_value, parse_value,
)
from .trace import (
    Alphabet, FiniteTrace, LassoTrace, lasso,
    parse_lasso, parse_finite, all_lassos, all_finite_traces,
)
from .verdict import (
    VerdictFunction, Monotonicity, LimitBudget, LimitResult, LimitKind,
    eval_limsup, eval_liminf, check_monotone,
    combine_max, combine_min, combine_sum, combine_product,
    map_continuous, complement, constant_verdict,
    verdict_sequence, count_switches,
)

__version__ = "0.1.0"
