"""Deterministic register machines that generate verdict functions.

A machine has named integer registers (all starting at 0), a finite state
graph with guarded edges, and a per-state output map.  Guards are
conjunctions of (possibly negated) ``reg >= reg`` / ``reg >= const`` atoms;
updates are parallel single assignments reading the pre-step valuation.

Determinism and totality are enforced syntactically at build time: the
edges of each (state, symbol) group must enumerate the sign patterns of a
shared atom set exactly once each (a lone edge must carry the trivial
guard).

The same pass over the edges compiles the machine to one flat form, and
runs step only that form.  States and registers become integer ids and a
valuation is the tuple of register values in ``registers`` order.  Each
state's row maps a symbol to its lone edge's arm or, for a guarded group,
to a function of the values tuple giving the group's sign pattern plus a
table from pattern to arm.  An arm is ``(target, row, update, output or
None)``: the target's id and row, the update builder (None for an edge
without updates) and the target's output function.  Arms are shared per
target, update and kept-ness, where an arm is kept when its source state
has the same output function (outputs of one source text share one
function).  A kept arm's output is None when its update writes none of the
registers that function reads, so the step cannot change the value.  A run
then keeps its value object, so a reader can tell an unchanged value by
identity; an accelerated jump sets the value afresh.  Updates, guard
atoms and affine outputs share one lowered form: integer coefficients in
``registers`` order plus a constant.  An update's form is the assigned
value, an atom's is ``left - right`` (or ``left - const``), tested for
``>= 0``.  The registers an output reads, and an update writes, are read
off these forms.  Each distinct update list becomes one tuple builder and
each output one function of the values tuple.  Their Python source is
written from forms, never from names in the input, and is compiled once
per distinct source text.  The source ``Edge``/``Guard``/``Update``
objects stay in ``edges`` for parsing, rendering and tests.

The flat form also keeps the forms of each update builder and each
sign-pattern function.  From them ``MachineRun.accelerate`` composes one
lasso-loop iteration symbolically.  An arm path lists per step the state
id, the symbol and the sign pattern taken.  Along a path every register
value and guard atom reads as a form of the iteration's start values
(``_compose``).  When the composed update sets some
registers to constants and maps every other register to itself plus a
constant and plus multiples of the set ones, then, as the iteration before
took the same path, the set registers start every iteration at their
constants, each other register moves by a fixed shift, and the start of
the n-th iteration along the path is ``start + n * shift``.  So each form
changes by a fixed slope per iteration.  Then each atom's sign flips at a
computable iteration.  When none flips, the limit of each loop position
reads the position's ``OutputSpec``: it composes each affine leaf over the
position's register forms, and the output tends to its value, to ±inf, or
to a ratio of slopes (taken through ``max`` and componentwise in a tuple).

Instruction sets are the cost model.  Each update must be one of the six
instructions of ``_INSTRUCTIONS`` (set to 0 or to 1, increment, decrement,
add a register, assign a register), and ``_SETS`` lists per set the
instructions it admits, the right operands its guard atoms compare against
and whether its outputs may divide:

* ``counter``: reset and increment; atoms against registers or 0;
* ``counter+-``: reset, increment and decrement; atoms against integers
  (a constant test is shorthand for the repeated decrement-and-test-zero
  idiom, so it costs no extra register);
* ``adder``: set to one, add and assign a register; atoms against registers;
* ``extended``: all six, any atom, and outputs that divide registers.

Per-state outputs are ``OutputSpec`` expressions in one small grammar, the
outputs of cost register automata: a word (``inf``, ``T``, ``F``, ``bot``);
an affine form, integer coefficients over registers plus an integer constant
(``0``, ``y``, ``2*m``); a quotient of two affine forms, 0 where the
denominator is 0, which needs the extended set (``(total+burst-1)/(count+1)``);
``max(o, ...)`` of numbers; and a tuple ``(o, ...)`` of scalar outputs for
product codomains.  Every machine therefore renders to the file format, and
every machine's loops can be composed for acceleration.
"""

import collections
import enum
import functools
import itertools
import operator
import re
from dataclasses import dataclass, field
from fractions import Fraction

from . import domain as dom
from .errors import MachineError
from .trace import Alphabet, read_sections, server_alphabet
from .verdict import QuantitativeProperty, VerdictFunction, _fold


class InstructionSet(enum.Enum):
    COUNTER = "counter"
    COUNTER_INC_DEC = "counter+-"
    ADDER = "adder"
    EXTENDED = "extended"


@dataclass(frozen=True)
class GuardAtom:
    left: str
    right: object  # register name or integer constant
    negated: bool = False

    def holds(self, valuation):
        rhs = self.right if isinstance(self.right, int) else valuation[self.right]
        return (valuation[self.left] >= rhs) != self.negated

    def render(self):
        body = f"{self.left}>={self.right}"
        return f"!({body})" if self.negated else body

    def complement(self):
        return GuardAtom(self.left, self.right, not self.negated)

    def difference(self):
        """``left - right`` as an affine output, >= 0 where the atom holds."""
        if isinstance(self.right, int):
            return OutputSpec("affine", ((self.left, 1),), -self.right)
        return OutputSpec("affine", ((self.left, 1), (self.right, -1)))


@dataclass(frozen=True)
class Guard:
    atoms: tuple = ()

    def holds(self, valuation):
        return all(a.holds(valuation) for a in self.atoms)

    def render(self):
        return " & ".join(a.render() for a in self.atoms) if self.atoms else "true"


TRUE_GUARD = Guard(())

# the instructions: the new value of the target is its own value times the
# first coefficient, plus the operand's times the second, plus the constant
_INSTRUCTIONS = {"zero": (0, 0, 0), "one": (0, 0, 1), "inc": (1, 0, 1), "dec": (1, 0, -1),
                 "add": (1, 1, 0), "copy": (0, 1, 0)}


def _instruction(t, form):
    """The instruction that assigns ``form`` to register ``t``, or None.
    The operand may be ``t`` itself, as in ``x:=x+x``."""
    others = [c for i, c in enumerate(form[:-1]) if c and i != t]
    for name, (own, other, const) in _INSTRUCTIONS.items():
        if const == form[-1] and (form[t] == own and others == [other]
                                  or form[t] == own + other and not others):
            return name
    return None


@dataclass(frozen=True)
class Update:
    """``target := value`` for an affine output ``value``."""

    target: str
    value: object

    def render(self):
        return f"{self.target}:={self.value.render()}"


@dataclass(frozen=True)
class Edge:
    source: str
    symbol: str
    guard: Guard
    updates: tuple
    target: str
    # the machine-file line the edge was read from, named in its errors
    line: int = field(default=None, compare=False, repr=False)

    def render(self):
        """The edge in machine-file syntax, without the ``edge:`` key."""
        upd = ", ".join(u.render() for u in self.updates)
        head = f"{self.source} {self.symbol} [{self.guard.render()}]"
        return f"{head} / {upd} -> {self.target}" if upd else f"{head} -> {self.target}"


def _edge_error(edge, message):
    """A MachineError about ``edge``, prefixed with its file line if known."""
    return MachineError(message if edge.line is None else f"line {edge.line}: {message}")


class _OutputError(MachineError):
    """A MachineError about the output of ``state``; ``load_machine``
    prefixes it with the line it read that output from."""

    def __init__(self, state, message):
        super().__init__(message)
        self.state = state


@dataclass(frozen=True)
class OutputSpec:
    """An output expression over the registers, by ``kind``:

    * ``word``: ``parts`` holds one of the words of ``_WORDS``, a constant;
    * ``affine``: ``parts`` holds ``(register, coefficient)`` terms and the
      value is their sum plus the integer ``const``;
    * ``div``: ``parts`` is two affine outputs, numerator and denominator;
      the quotient is 0 where the denominator is 0;
    * ``max``: the largest of ``parts``;
    * ``tuple``: ``parts`` as a tuple, for product codomains.

    ``max`` and ``tuple`` take scalar outputs only, so tuples do not nest,
    and ``max`` orders by Python's ``>``, so its only word is ``inf``.
    """

    kind: str
    parts: tuple = ()
    const: int = 0

    def __post_init__(self):
        parts, kind = self.parts, self.kind
        scalar = lambda p: isinstance(p, OutputSpec) and p.kind != "tuple"
        if not isinstance(parts, tuple) or not _is_int(self.const) \
                or (self.const and kind != "affine"):
            ok = False
        elif kind == "affine":
            ok = all(isinstance(t, tuple) and len(t) == 2 and isinstance(t[0], str)
                     and _is_int(t[1]) for t in parts)
        elif kind == "div":
            ok = len(parts) == 2 and all(scalar(p) and p.kind == "affine" for p in parts)
        elif kind in ("max", "tuple"):
            ok = bool(parts) and all(map(scalar, parts)) and (
                kind == "tuple" or all(p.kind != "word" or p == OUT_INF for p in parts))
        else:
            ok = kind == "word" and len(parts) == 1 and parts[0] in _WORDS
        if not ok:
            raise MachineError(f"malformed {kind!r} output")

    def divides(self):
        """Whether a quotient occurs anywhere in this output."""
        return self.kind == "div" or self.kind in ("max", "tuple") and any(
            p.divides() for p in self.parts)

    def render(self):
        if self.kind == "word":
            return self.parts[0]
        if self.kind == "affine":
            text = ""
            for r, c in self.parts:
                text += ("-" if c < 0 else "+") + ("" if abs(c) == 1 else f"{abs(c)}*") + r
            if self.const or not text:
                text += f"{self.const:+d}"
            return text.removeprefix("+")
        if self.kind == "div":
            return "({})/({})".format(*(p.render() for p in self.parts))
        inner = ",".join(p.render() for p in self.parts)
        return f"max({inner})" if self.kind == "max" else f"({inner})"


def _is_int(c):
    return isinstance(c, int) and not isinstance(c, bool)


# the word constants, each named as ``render_value`` writes its value
_WORDS = {"inf": dom.INF, "T": True, "F": False, "bot": dom.BOT}

OUT_INF = OutputSpec("word", ("inf",))


def out_const(c):
    return OutputSpec("affine", (), c)


OUT_ZERO = out_const(0)


def out_reg(x):
    return OutputSpec("affine", ((x, 1),))


def out_div(x, y):
    return OutputSpec("div", (out_reg(x), out_reg(y)))


def out_tuple(*parts):
    return OutputSpec("tuple", parts)


# the cost model: per instruction set, its instructions, the right operands
# its guard atoms may compare against (a register, 0 or another integer),
# and whether its outputs may divide
_Rules = collections.namedtuple("_Rules", "instructions operands divides")
_SETS = {
    InstructionSet.COUNTER: _Rules({"zero", "inc"}, {"register", 0}, False),
    InstructionSet.COUNTER_INC_DEC: _Rules({"zero", "inc", "dec"}, {0, "integer"}, False),
    InstructionSet.ADDER: _Rules({"one", "add", "copy"}, {"register"}, False),
    InstructionSet.EXTENDED: _Rules(set(_INSTRUCTIONS), {"register", 0, "integer"}, True),
}


# the only names generated code can see; a word constant is its own name
_CODE_GLOBALS = {"__builtins__": {}, "Fraction": Fraction, "fraction": dom.fraction,
                 "max": max, **_WORDS}


@functools.lru_cache(maxsize=1024)
def _compile(source):
    """The function that ``source``, a lambda over the values tuple ``v``
    written from register indices and integer literals, denotes."""
    return eval(source, _CODE_GLOBALS)


def _affine_form(out, rid):
    """The form of the affine output ``out``; raises KeyError for a
    register outside ``rid``."""
    form = [0] * len(rid) + [out.const]
    for r, c in out.parts:
        form[rid[r]] += c
    return tuple(form)


def _read_mask(out, rid):
    """The mask of the registers that ``out`` reads: bit i where register i
    has a nonzero coefficient in one of its affine forms."""
    if out.kind == "word":
        return 0
    if out.kind == "affine":
        return sum(1 << i for i, c in enumerate(_affine_form(out, rid)[:-1]) if c)
    return functools.reduce(operator.or_, (_read_mask(p, rid) for p in out.parts), 0)


def _form_source(form):
    """The expression of ``form`` over the values tuple ``v``."""
    terms = [f"v[{i}]" if c == 1 else f"{c:d} * v[{i}]" for i, c in enumerate(form[:-1]) if c]
    if form[-1] or not terms:
        terms.append(f"{form[-1]:d}")
    return " + ".join(terms)


def _update_source(width, assigned):
    exprs = [f"v[{i}]" for i in range(width)]
    for t, form in assigned:
        exprs[t] = _form_source(form)
    return f"lambda v: ({', '.join(exprs)},)"


def _output_source(out, rid):
    """The expression of ``out`` over the values tuple ``v``; raises
    KeyError for a register outside ``rid``."""
    if out.kind == "word":
        return out.parts[0]
    if out.kind == "affine":
        return _form_source(_affine_form(out, rid))
    parts = [_output_source(p, rid) for p in out.parts]
    if out.kind == "div":
        num, den = parts
        return f"fraction({num}, {den}) if {den} else Fraction(0)"
    if out.kind == "max":
        return f"max({', '.join(parts)})"
    return f"({', '.join(parts)},)"


@functools.lru_cache(maxsize=1024)
def _select_source(tests):
    """Sign pattern of a group's atom forms: bit i is set when form i is
    >= 0, tested as its positive terms >= its negated negative ones."""
    bits = (f"({_form_source(tuple(max(c, 0) for c in form))} >= "
            f"{_form_source(tuple(max(-c, 0) for c in form))})" for form in tests)
    return "lambda v: " + " | ".join(f"{b} << {i}" if i else b for i, b in enumerate(bits))


class RegisterMachine:
    def __init__(self, name, registers, states, alphabet, initial, edges, outputs,
                 instruction_set, output_domain):
        self.name = name
        self.registers = tuple(registers)
        self.states = tuple(states)
        self.alphabet = alphabet
        self.initial = initial
        self.edges = tuple(edges)
        self.outputs = dict(outputs)
        self.instruction_set = instruction_set
        self.output_domain = output_domain
        self._lower()

    # -- validation and lowering -------------------------------------------

    def _lower(self):
        """Validate the machine and compile its flat form in one pass over
        the edges: per state id a row from symbol to transition entry, and
        per state id an output function."""
        rid = {r: i for i, r in enumerate(self.registers)}
        if len(rid) != len(self.registers):
            raise MachineError("duplicate register names")
        sid = {q: i for i, q in enumerate(self.states)}
        if len(sid) != len(self.states):
            raise MachineError("duplicate state names")
        if self.initial not in sid:
            raise MachineError(f"unknown initial state {self.initial!r}")
        for q in self.outputs:
            if q not in sid:
                raise _OutputError(q, f"output for unknown state {q!r}")
        own = self.alphabet._own
        lowered, reads = {}, {}
        outs = tuple(self._lower_output(q, rid, lowered, reads) for q in self.states)
        rows = [{} for _ in self.states]
        # each distinct atom and update list is lowered once, and each
        # update builder keeps the forms it assigns and the mask of the
        # registers it writes
        tested, builders, self._assigned, writes = {}, {(): None}, {None: ()}, {None: 0}
        # arms by (target, update, kept), where kept says that the source
        # has the target's output function: there an update that writes no
        # register the output reads cannot change the value, and the arm's
        # output is None
        arms, groups = {}, {}
        for e in self.edges:
            try:
                src, dst = sid[e.source], sid[e.target]
            except KeyError:
                raise _edge_error(e, f"edge {e.render()} references unknown states") from None
            # rows are keyed by the alphabet's objects, which parsed traces hold
            a = own.get(e.symbol)
            if a is None:
                raise _edge_error(e, f"edge {e.render()} uses symbol outside the alphabet")
            atoms = tuple(tested.get(atom) or self._lower_atom(e, atom, rid, tested)
                          for atom in e.guard.atoms) if e.guard.atoms else ()
            try:
                update = builders[e.updates]
            except KeyError:
                assigned = self._lower_updates(e, rid)
                update = builders[e.updates] = _compile(_update_source(len(rid), assigned))
                self._assigned[update] = assigned
                writes[update] = sum(1 << t for t, _ in assigned)
            out = outs[dst]
            kept = out is outs[src]
            arm = arms.get((dst, update, kept))
            if arm is None:
                stays = kept and not writes[update] & reads[out]
                arm = arms[dst, update, kept] = (dst, rows[dst], update, None if stays else out)
            groups.setdefault((src, a), []).append((e, atoms, arm))
        if len(groups) != len(rows) * len(own):
            for q in self.states:
                for a in self.alphabet:
                    if (sid[q], a) not in groups:
                        raise MachineError(f"missing case: no edge from {q!r} on {a!r}")
        self._tests = {}
        for (src, a), group in groups.items():
            # a lone unguarded edge is its own entry
            rows[src][a] = (None, group[0][2]) if len(group) == 1 and not group[0][1] \
                else self._lower_group(self.states[src], a, group)
        self._initial_id = sid[self.initial]
        self._rows = rows
        self._outputs = outs
        self._register_ids = rid

    def _lower_output(self, q, rid, lowered, reads):
        """The output function of state ``q``, shared through ``lowered``
        with every state whose output is the same object.  ``reads`` keeps
        the mask of the registers each function reads."""
        if q not in self.outputs:
            raise MachineError(f"state {q!r} has no output")
        out = self.outputs[q]
        if not isinstance(out, OutputSpec):
            raise MachineError(f"output of {q!r} is not a grammar output: {out!r}")
        if id(out) in lowered:
            return lowered[id(out)]
        try:
            source = _output_source(out, rid)
        except KeyError as exc:
            raise _OutputError(q, f"output of {q!r} uses unknown register {exc.args[0]!r}") \
                from None
        if out.divides() and not _SETS[self.instruction_set].divides:
            raise _OutputError(q, f"dividing output of {q!r} needs the extended "
                                  "instruction set")
        lowered[id(out)] = fn = _compile(f"lambda v: {source}")
        if fn not in reads:
            reads[fn] = _read_mask(out, rid)
        return fn

    def _lower_atom(self, edge, atom, rid, tested):
        """The form and negation flag of ``edge``'s atom, kept in ``tested``."""
        try:
            form = _affine_form(atom.difference(), rid)
        except KeyError:
            raise _edge_error(edge, f"guard {atom.render()} uses unknown register") from None
        right = atom.right
        operand = "register" if isinstance(right, str) else 0 if right == 0 else "integer"
        if operand not in _SETS[self.instruction_set].operands:
            raise _edge_error(edge, f"guard atom {atom.render()} not allowed by "
                                    f"instruction set {self.instruction_set.value}")
        tested[atom] = lowered = form, atom.negated
        return lowered

    def _lower_updates(self, edge, rid):
        """The edge's updates as a tuple of (target index, form of the
        assigned value)."""
        assigned = []
        for u in edge.updates:
            if u.value.kind != "affine":
                raise _edge_error(edge, f"update {u.render()!r} is not an instruction")
            try:
                t, form = rid[u.target], _affine_form(u.value, rid)
            except KeyError:
                raise _edge_error(edge, f"update {u.render()} uses unknown register") \
                    from None
            name = _instruction(t, form)
            if name is None:
                raise _edge_error(edge, f"update {u.render()!r} is not an instruction")
            if name not in _SETS[self.instruction_set].instructions:
                raise _edge_error(edge, f"update {u.render()} not allowed by "
                                        f"instruction set {self.instruction_set.value}")
            assigned.append((t, form))
        if len({t for t, _ in assigned}) != len(assigned):
            raise _edge_error(edge, f"edge {edge.render()} assigns a register twice")
        return tuple(assigned)

    def _lower_group(self, q, a, group):
        """The transition entry of the (q, a) edges, which are not one
        unguarded edge: the sign-pattern function and the arm per pattern.
        Raises unless the guards enumerate every sign pattern of one atom
        set exactly once, which makes exactly one edge fire.  Records the
        atom forms of each sign-pattern function in ``_tests``."""
        if len(group) == 1:
            edge = group[0][0]
            raise _edge_error(edge, f"single edge from {q!r} on {a!r} must carry the "
                                    f"trivial guard; got [{edge.guard.render()}]")
        tests = tuple(test for test, _ in group[0][1])
        position = {test: i for i, test in enumerate(tests)}
        table = [None] * (1 << len(tests))
        for edge, atoms, arm in group:
            seen = pattern = 0
            for test, negated in atoms:
                i = position.get(test)
                if i is None or seen >> i & 1:
                    break
                seen |= 1 << i
                if not negated:
                    pattern |= 1 << i
            if len(atoms) != len(tests) or seen != len(table) - 1:
                raise _edge_error(
                    edge,
                    f"edges from {q!r} on {a!r} must split cases over one atom set")
            if table[pattern] is not None:
                raise _edge_error(edge, f"overlapping guards from {q!r} on {a!r}")
            table[pattern] = arm
        covered = len(table) - table.count(None)
        if covered != len(table):
            raise _edge_error(
                group[0][0],
                f"guards from {q!r} on {a!r} do not cover all cases "
                f"({covered} of {len(table)} sign patterns)")
        select = _compile(_select_source(tests))
        self._tests[select] = tests
        return select, tuple(table)

    def _compose_loop(self, path):
        """Compose the arms of ``path``, a list of ``(state id, symbol, sign
        pattern)`` steps, over the values at the iteration's start.

        Returns None unless the composed update sets every register to a
        constant or moves it by a constant plus multiples of the registers
        it sets.  Otherwise returns ``(shift, atoms, outputs)``: the
        per-iteration shift of each register (0 for a set one), each guard
        atom on the path as ``(form, slope, holds)``, and each step's
        ``OutputSpec`` with the register forms after that step.  A form's
        slope is its change per iteration.
        """
        width = len(self.registers)
        forms = [tuple(int(i == j) for j in range(width)) + (0,) for i in range(width)]
        atoms, outputs = [], []
        for q, sym, pattern in path:
            select, arm = self._rows[q][sym]
            if select is not None:
                for i, test in enumerate(self._tests[select]):
                    atoms.append((_compose(test, forms), pattern >> i & 1))
                arm = arm[pattern]
            dst, _, update, _ = arm
            new = list(forms)
            for t, form in self._assigned[update]:
                new[t] = _compose(form, forms)
            forms = new
            outputs.append((self.outputs[self.states[dst]], forms))
        # a register that the path sets to a constant holds it at every
        # iteration start, since the iteration before followed the same path
        fixed = {j: form[-1] for j, form in enumerate(forms) if not any(form[:-1])}
        shift = []
        for i, form in enumerate(forms):
            if i in fixed:
                shift.append(0)
            elif form[i] == 1 and all(c == 0 or j == i or j in fixed
                                      for j, c in enumerate(form[:-1])):
                shift.append(form[-1] + sum(form[j] * c for j, c in fixed.items()))
            else:
                return None
        return (tuple(shift),
                tuple((form, _slope(form, shift), holds) for form, holds in atoms),
                outputs)

    def __repr__(self):
        return (f"<machine {self.name}: {len(self.registers)} registers, "
                f"{len(self.states)} states, {self.instruction_set.value}>")


# -- loop acceleration --------------------------------------------------------


def _compose(form, forms):
    """``form`` read over ``forms``, the forms of the registers: its
    constant plus each coefficient times its register's form."""
    composed = [0] * (len(form) - 1) + [form[-1]]
    for c, reg in zip(form, forms):
        composed = [a + c * b for a, b in zip(composed, reg)]
    return tuple(composed)


def _at(form, values):
    return sum(map(operator.mul, form, values)) + form[-1]


def _slope(form, shift):
    """The change of ``form`` per iteration when the registers move by
    ``shift``."""
    return sum(map(operator.mul, form, shift))


def _position_limit(out, forms, shift, start, rid):
    """The limit of ``out`` read at a loop position whose register forms
    are ``forms``, over the iterations from ``start`` on, and whether it
    diverges; for a tuple, both componentwise.  Each affine leaf is
    composed over ``forms`` as its limit is taken."""
    def leaf(affine):
        """The leaf's value at ``start`` and its slope."""
        form = _compose(_affine_form(affine, rid), forms)
        return _at(form, start), _slope(form, shift)

    if out.kind == "word":
        return _WORDS[out.parts[0]], False
    if out.kind == "affine":
        value, slope = leaf(out)
        if slope:
            return (dom.INF if slope > 0 else dom.NEG_INF), True
        return value, False
    if out.kind == "div":
        (num, slope), (den, den_slope) = map(leaf, out.parts)
        if den_slope:
            return Fraction(slope, den_slope), False
        if not den:
            return Fraction(0), False
        if not slope:
            return Fraction(num, den), False
        return (dom.INF if (slope > 0) == (den > 0) else dom.NEG_INF), True
    limits = [_position_limit(p, forms, shift, start, rid) for p in out.parts]
    if out.kind == "tuple":
        return tuple(v for v, _ in limits), tuple(d for _, d in limits)
    # the max diverges only when every operand attaining it diverges
    value, escaped = _fold(max, limits)
    return value, bool(escaped)


class MachineRun:
    """Single run of a machine; one instance per trace.

    ``value`` is the current output and ``config()`` the hashable
    ``(state, values)`` configuration, with ``values`` in the machine's
    ``registers`` order.
    """

    __slots__ = ("_m", "_state", "_row", "_values", "value", "_path")

    def __init__(self, machine):
        self._m = machine
        self._state = q = machine._initial_id
        self._row = machine._rows[q]
        self._values = (0,) * len(machine.registers)
        self.value = machine._outputs[q](self._values)
        self._path = None

    def step(self, symbol):
        try:
            select, arm = self._row[symbol]
        except KeyError:
            raise MachineError(f"symbol {symbol!r} is outside machine "
                               f"{self._m.name}'s alphabet") from None
        values = self._values
        if select is not None:
            arm = arm[select(values)]
        self._state, self._row, update, out = arm
        if update is not None:
            self._values = values = update(values)
        if out is None:
            return self.value
        self.value = value = out(values)
        return value

    def config(self):
        return self._m.states[self._state], self._values

    def accelerate(self, symbols):
        """Step one iteration of a lasso loop ``symbols`` from a loop
        boundary; calls must come at consecutive boundaries.  Returns
        ``(values, limits)``.

        ``values`` lists the outputs after each symbol.  When this iteration
        followed the same arm path as the one before it, and that path moves
        each register by a fixed shift or sets it (see ``_compose_loop``),
        every guard atom on the path is linear in the iteration count.  If
        some atom flips sign within a later iteration, the run jumps to the
        boundary before the first such iteration and ``values`` is None: the
        skipped iterations are finitely many, so no limit needs them.  If no
        atom ever flips, ``limits`` lists per loop position the limit of its
        output and whether it diverges (per component for a tuple output);
        otherwise ``limits`` is None.
        """
        m = self._m
        start = self._values
        path, values = [], []
        for sym in symbols:
            select = self._row.get(sym, (None,))[0]
            path.append((self._state, sym, None if select is None else select(self._values)))
            values.append(self.step(sym))
        previous, self._path = self._path, path
        form = m._compose_loop(path) if path == previous else None
        if form is None:
            return values, None
        shift, atoms, outputs = form
        # iteration n from ``start`` begins at start + n * shift; find the
        # first n >= 1 at which an atom's sign differs from the path's
        flip = None
        for atom, slope, holds in atoms:
            if holds and slope < 0:
                n = _at(atom, start) // -slope + 1
            elif not holds and slope > 0:
                n = -(_at(atom, start) // slope)
            else:
                continue
            flip = n if flip is None else min(flip, n)
        if flip is None:
            return values, [_position_limit(out, forms, shift, start, m._register_ids)
                            for out, forms in outputs]
        if flip > 1:
            self._values = jumped = tuple(x + flip * c for x, c in zip(start, shift))
            self.value = m._outputs[self._state](jumped)
            return None, None
        return values, None


def run(machine, s):
    """Run the machine on a finite trace; the final ``(state, values)``
    configuration and output."""
    r = MachineRun(machine)
    for sym in s:
        r.step(sym)
    return r.config(), r.value


def generated_verdict(machine):
    """The verdict function generated by the machine's output stream."""
    return VerdictFunction(machine.output_domain, lambda: MachineRun(machine), machine.name)


def tabulate(name, start, step, out, alphabet, codomain):
    """The zero-register machine over the finitely many states that the pure
    ``step`` reaches from ``start``, breadth first: the i-th found is ``s<i>``,
    with one unguarded edge per symbol and the constant output ``out(state)``,
    parsed from its ``render_value`` text."""
    ids, found, edges, outputs = {start: "s0"}, [start], [], {}
    for q in found:  # grows as the search finds states
        outputs[ids[q]] = _parse_output(dom.render_value(out(q)))
        for a in alphabet:
            if (r := step(q, a)) not in ids:
                ids[r] = f"s{len(found)}"
                found.append(r)
            edges.append(Edge(ids[q], a, TRUE_GUARD, (), ids[r]))
    return RegisterMachine(name, (), tuple(outputs), alphabet, "s0", edges, outputs,
                           InstructionSet.COUNTER, codomain)


# -- machine text format -------------------------------------------------


def _parse_guard(text):
    text = text.strip()
    if text == "true" or not text:
        return TRUE_GUARD
    atoms = []
    for part in text.split("&"):
        part = part.strip()
        negated = part.startswith("!")
        if negated:
            if not (part.startswith("!(") and part.endswith(")")):
                raise MachineError(f"malformed guard atom {part!r}")
            part = part[2:-1].strip()
        left, sep, right = (x.strip() for x in part.partition(">="))
        # the left operand is a register, the right one a register or an integer
        constant = _INTEGER.fullmatch(right)
        if not (sep and _NAME.fullmatch(left) and (constant or _NAME.fullmatch(right))):
            raise MachineError(f"malformed guard atom {part!r}")
        atoms.append(GuardAtom(left, int(right) if constant else right, negated))
    return Guard(tuple(atoms))


def _parse_update(text):
    """Inverse of ``Update.render``: ``target := affine output``, with the
    target's terms first; whether it is an instruction is checked when the
    machine is built."""
    text = text.strip()
    target, sep, rhs = text.partition(":=")
    try:
        # without ':=' the right-hand side is empty, so malformed
        value = _parse_affine(rhs if sep else "")
    except MachineError:
        raise MachineError(f"malformed update {text!r}") from None
    target = target.strip()
    parts = sorted(value.parts, key=lambda term: term[0] != target)
    return Update(target, OutputSpec("affine", tuple(parts), value.const))


@functools.lru_cache(maxsize=1024)
def _parse_updates(text):
    """The comma-separated updates of ``text``; none when it is blank.
    Update texts repeat across letters and builds, so each is parsed once."""
    return tuple(_parse_update(u) for u in text.split(",")) if text.strip() else ()


_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_INTEGER = re.compile(r"-?\d+")
# one term of an affine form: ``[sign] [coefficient *] register`` or
# ``[sign] constant``; only the first term may omit its sign
_TERM = re.compile(r"\s*([+-]?)\s*(?:(?:(\d+)\s*\*\s*)?(%s)|(\d+))\s*" % _NAME.pattern)


def _parse_affine(text):
    terms, const, pos = [], 0, 0
    while pos < len(text) or not pos:
        m = _TERM.match(text, pos)
        if m is None or (pos and not m[1]) or m[3] in _WORDS:
            raise MachineError(f"malformed affine output {text.strip()!r}")
        sign = -1 if m[1] == "-" else 1
        if m[3]:
            terms.append((m[3], sign * int(m[2] or 1)))
        else:
            const += sign * int(m[4])
        pos = m.end()
    return OutputSpec("affine", tuple(terms), const)


def _parse_output(text):
    """Inverse of ``OutputSpec.render``."""
    text = text.strip()
    if text in _WORDS:
        return OutputSpec("word", (text,))
    quotient = dom._top_level_parts(text, "/")
    if len(quotient) > 1:
        operands = [p.strip() for p in quotient]
        if len(operands) != 2 or not all(p[:1] == "(" and p[-1:] == ")" for p in operands):
            raise MachineError(f"malformed dividing output {text!r}")
        return OutputSpec("div", tuple(_parse_affine(p[1:-1]) for p in operands))
    for kind, opening in (("max", "max("), ("tuple", "(")):
        if text.startswith(opening) and text.endswith(")"):
            parts = dom._top_level_parts(text[len(opening):-1])
            return OutputSpec(kind, tuple(_parse_output(p) for p in parts))
    return _parse_affine(text)


def _parse_edge(body, line):
    head, arrow, target = body.rpartition("->")
    if not arrow:
        raise MachineError("edge has no '->'")
    target = target.strip()
    updates = ()
    if "/" in head:
        head, _, update_text = head.partition("/")
        updates = _parse_updates(update_text)
    head = head.strip()
    guard = TRUE_GUARD
    if "[" in head:
        head, _, guard_part = head.partition("[")
        guard_text, bracket, trailing = guard_part.partition("]")
        if not bracket or trailing.strip():
            raise MachineError("malformed guard brackets")
        guard = _parse_guard(guard_text)
    parts = head.split()
    if len(parts) != 2:
        raise MachineError("edge head must be 'state symbol'")
    return Edge(parts[0], parts[1], guard, updates, target, line)


def load_machine(text, output_domain=None, name="machine"):
    """Parse the line-based machine format (see ``render_machine``)."""
    header, body = read_sections(
        text, ("registers", "instruction-set", "states", "initial"), MachineError)
    edges = []
    outputs, output_lines = {}, {}
    for lineno, line in body:
        key, sep, rest = line.partition(":")
        key = key.strip()
        try:
            if key == "edge" and sep:
                edges.append(_parse_edge(rest, lineno))
            elif key == "output" and sep:
                state, eq, expr = rest.partition("=")
                state = state.strip()
                if not eq:
                    raise MachineError("output line needs '='")
                if state in outputs:
                    raise MachineError(f"second output for state {state!r}")
                outputs[state] = _parse_output(expr)
                output_lines[state] = lineno
            else:
                raise MachineError(f"cannot parse {line!r}")
        except MachineError as exc:
            raise MachineError(f"line {lineno}: {exc}") from None
    try:
        iset = InstructionSet(header["instruction-set"][0])
    except (ValueError, IndexError):
        raise MachineError(f"unknown instruction set {header['instruction-set']}")
    if not edges:
        raise MachineError("machine has no 'edge:' lines")
    symbols = []
    for e in edges:
        if e.symbol not in symbols:
            symbols.append(e.symbol)
    if output_domain is None:
        output_domain = dom.RATINF if _SETS[iset].divides else dom.NATINF
        tuples = [o for o in outputs.values() if o.kind == "tuple"]
        if tuples:
            output_domain = dom.product(output_domain, len(tuples[0].parts))
    try:
        return RegisterMachine(name, tuple(header["registers"]), tuple(header["states"]),
                               Alphabet(tuple(symbols)), header["initial"][0], edges,
                               outputs, iset, output_domain)
    except _OutputError as exc:
        raise MachineError(f"line {output_lines[exc.state]}: {exc}") from None


def render_machine(machine):
    """Inverse of ``load_machine``."""
    lines = [f"registers: {' '.join(machine.registers)}",
             f"instruction-set: {machine.instruction_set.value}",
             f"states: {' '.join(machine.states)}",
             f"initial: {machine.initial}"]
    lines.extend(f"edge: {e.render()}" for e in machine.edges)
    for q in machine.states:
        lines.append(f"output: {q} = {machine.outputs[q].render()}")
    return "\n".join(lines) + "\n"


# -- response-time machines ----------------------------------------------


def _max_tracking(x, m):
    """The max-tracking gadget: two ``(atom, updates)`` cases that count x
    and let m follow it once it has caught up.  Where m >= x before, m
    becomes max(m, x + 1) as x becomes x + 1."""
    return ((GuardAtom(x, m), _parse_updates(f"{x}:={x}+1, {m}:={m}+1")),
            (GuardAtom(x, m, negated=True), _parse_updates(f"{x}:={x}+1")))


def _credit(x, m):
    """The credit gadget: where m >= x, m becomes max(m, x + 1) and x
    restarts at 0."""
    return ((GuardAtom(x, m), _parse_updates(f"{m}:={m}+1, {x}:=0")),
            (GuardAtom(x, m, negated=True), _parse_updates(f"{x}:=0")))


def _guarded_edges(source, symbol, target, gadgets, extra=()):
    """The edges of one (source, symbol) pair: one per combination of a
    case from each gadget, guarded by the cases' atoms and updating by
    ``extra`` and then the cases' updates.  Without gadgets, one unguarded
    edge updating by ``extra``."""
    edges = []
    for cases in itertools.product(*gadgets):
        atoms = tuple(atom for atom, _ in cases)
        updates = tuple(extra) + tuple(u for _, ups in cases for u in ups)
        edges.append(Edge(source, symbol, Guard(atoms) if atoms else TRUE_GUARD, updates,
                          target))
    return edges


def _server_machine(name, registers, start, pending, outputs, instruction_set):
    """A one-pair response-time monitor over states idle, pending and an
    infinity sink.  A req in idle updates by ``start`` and opens a request,
    idle ignores ack and other, and a second req while pending jumps to the
    sink; ``pending`` lists the pending state's ack and other edges, and
    ``outputs`` maps idle and pending to their outputs."""
    alphabet = server_alphabet(1).alphabet
    edges = [
        Edge("idle", "req", TRUE_GUARD, _parse_updates(start), "pending"),
        Edge("idle", "ack", TRUE_GUARD, (), "idle"),
        Edge("idle", "other", TRUE_GUARD, (), "idle"),
        Edge("pending", "req", TRUE_GUARD, (), "sink"),
        *pending,
        *(Edge("sink", a, TRUE_GUARD, (), "sink") for a in alphabet),
    ]
    return RegisterMachine(name, registers, ("idle", "pending", "sink"), alphabet, "idle",
                           edges, {**outputs, "sink": OUT_INF}, instruction_set,
                           dom.RATINF if _SETS[instruction_set].divides else dom.NATINF)


def build_mmax():
    """Two-counter maximal-response-time monitor.

    While a request is pending, x counts the current response time; y holds
    the answer.  While x is still below y only x advances; once x catches up
    both advance, so y tracks the running maximum.  A second request before
    the acknowledgement jumps to an infinity sink.
    """
    count = [_max_tracking("x", "y")]
    pending = (_guarded_edges("pending", "ack", "idle", count)
               + _guarded_edges("pending", "other", "pending", count))
    return _server_machine("Mmax", ("x", "y"), "x:=0", pending,
                           {"idle": out_reg("y"), "pending": out_reg("y")},
                           InstructionSet.COUNTER)


def build_mavg():
    """Three-register average-response-time monitor with a dividing output.

    ``total`` accumulates completed response times, ``count`` the completed
    requests, and ``burst`` the response time of the open request measured
    inclusively, so the pending output is (total + burst - 1) / (count + 1).
    """
    pending = [
        Edge("pending", "other", TRUE_GUARD, _parse_updates("burst:=burst+1"), "pending"),
        Edge("pending", "ack", TRUE_GUARD,
             _parse_updates("total:=total+burst, count:=count+1, burst:=0"), "idle"),
    ]
    outputs = {"idle": out_div("total", "count"),
               "pending": _parse_output("(total+burst-1)/(count+1)")}
    return _server_machine("Mavg", ("total", "count", "burst"), "burst:=1", pending,
                           outputs, InstructionSet.EXTENDED)


def build_mavg_running():
    """Two-register variant of the average monitor with grammar outputs.

    ``rtotal`` counts every observation made while a request is open (which
    equals completed response time plus the open burst) and ``rcount``
    counts requests as they arrive, so every state outputs rtotal/rcount.
    Generates the same verdict function as ``build_mavg``.
    """
    pending = [
        Edge("pending", "other", TRUE_GUARD, _parse_updates("rtotal:=rtotal+1"), "pending"),
        Edge("pending", "ack", TRUE_GUARD, _parse_updates("rtotal:=rtotal+1"), "idle"),
    ]
    return _server_machine("Mavg2", ("rtotal", "rcount"), "rcount:=rcount+1", pending,
                           {"idle": out_div("rtotal", "rcount"),
                            "pending": out_div("rtotal", "rcount")},
                           InstructionSet.EXTENDED)


def build_finite_state_mrt(cap):
    """Finite-state under-approximation of maximal response time, with the
    fewest states.

    ``i{m}`` is idle and ``p{m}_{n}`` waits ``n`` with maximum ``m`` so far
    (``n <= m < cap``); both output ``m``.  Once the maximum reaches ``cap``,
    or on a double request, the run is in ``sat``, which outputs ``cap`` for
    good: traces whose true maximum (possibly infinite) exceeds the budget are
    reported as ``cap``.
    """
    if cap < 1:
        raise MachineError("saturation budget must be >= 1")
    alphabet = server_alphabet(1).alphabet
    consts = [out_const(c) for c in range(cap + 1)]

    def state(m, n=None):  # idle when n is None, else waiting n
        m = max(m, n or 0)
        return "sat" if m >= cap else f"i{m}" if n is None else f"p{m}_{n}"

    edges, outputs = [], {}
    for m in range(cap):
        for n in (None, *range(m + 1)):
            q = state(m, n)
            outputs[q] = consts[m]
            # the targets on req, ack and other
            targets = ((state(m, 0), q, q) if n is None
                       else ("sat", state(max(m, n + 1)), state(m, n + 1)))
            edges += [Edge(q, a, TRUE_GUARD, (), r) for a, r in zip(alphabet, targets)]
    outputs["sat"] = consts[cap]
    edges += [Edge("sat", a, TRUE_GUARD, (), "sat") for a in alphabet]
    return RegisterMachine(f"Mfin{cap}", (), tuple(outputs), alphabet, "i0", edges,
                           outputs, InstructionSet.COUNTER, dom.NATINF)


# -- k-pair response-time machines ----------------------------------------


def _status_states(k):
    """Every pair-status string: per pair I (idle), P (pending) or D (dead)."""
    return ["".join(c) for c in itertools.product("IPD", repeat=k)]


def _pair_steps(sa, statuses):
    """What each symbol of the server alphabet ``sa`` does to ``statuses``:
    ``(symbol, kind, j, new statuses)`` in alphabet order, where ``kind`` is
    req, ack or other and ``j`` is the pair's index from 1 (None for other).
    A req moves pair j from I to P and from P or D to D; an ack moves it from
    P to I and leaves it as it is otherwise."""
    for j, (req, ack) in enumerate(zip(sa.req_tokens, sa.ack_tokens), start=1):
        head, c, tail = statuses[:j - 1], statuses[j - 1], statuses[j:]
        yield req, "req", j, head + ("P" if c == "I" else "D") + tail
        yield ack, "ack", j, (head + "I" + tail if c == "P" else statuses)
    yield sa.other_token, "other", None, statuses


@functools.lru_cache(maxsize=1024)
def _kpair_tuple(regs):
    """The tuple output of each pair's max register in ``regs``, inf for
    None; one object per distinct tuple, so that a machine's states share
    their outputs."""
    return out_tuple(*(OUT_INF if r is None else out_reg(r) for r in regs))


def _kpair_output(statuses, max_reg_of):
    """Each pair's max register, inf once the pair is dead."""
    return _kpair_tuple(tuple(None if c == "D" else max_reg_of(i + 1)
                              for i, c in enumerate(statuses)))


def build_kpair_monitor(k):
    """Exact per-pair maxima with a dedicated (x_i, y_i) counter pair each:
    2k counters.  A request restarts its pair's x_i, and each pair pending
    before a symbol and alive after it counts the symbol (an ack counts for
    the pair it completes)."""
    sa = server_alphabet(k)
    regs = [f"x{i}" for i in range(1, k + 1)] + [f"y{i}" for i in range(1, k + 1)]
    count = [_max_tracking(f"x{i}", f"y{i}") for i in range(1, k + 1)]
    restart = [_parse_updates(f"x{i}:=0") for i in range(1, k + 1)]
    edges = []
    outputs = {}
    for st in _status_states(k):
        outputs[st] = _kpair_output(st, lambda i: f"y{i}")
        for sym, kind, j, new in _pair_steps(sa, st):
            counting = [count[i] for i, (c, d) in enumerate(zip(st, new))
                        if c == "P" and d != "D"]
            extra = restart[j - 1] if kind == "req" and new[j - 1] == "P" else ()
            edges += _guarded_edges(st, sym, new, counting, extra)
    return RegisterMachine(f"Mkpair{k}", regs, tuple(_status_states(k)), sa.alphabet,
                           "I" * k, edges, outputs, InstructionSet.COUNTER,
                           dom.product(dom.NATINF, k))


def _served(statuses):
    """The served pair: the lowest-index pending one, or None."""
    i = statuses.find("P")
    return i + 1 if i >= 0 else None


def _build_kpair_shared(k, max_reg_of, regs, name):
    """Shared response counter x for the served pair, the lowest-index
    pending one; completed responses fold into per-pair (or per-group) max
    registers, ``max_reg_of(j)`` for pair j.

    x counts the symbols since the served pair became served.  On a symbol
    after which the same pair is served, x counts it and the pair's register
    tracks max(register, x).  When the served pair changes and did not die,
    x + 1 is credited to its register and x restarts.  Otherwise x restarts
    without credit, unless no pair was or is served."""
    sa = server_alphabet(k)
    count = {j: _max_tracking("x", max_reg_of(j)) for j in range(1, k + 1)}
    credit = {j: _credit("x", max_reg_of(j)) for j in range(1, k + 1)}
    restart = _parse_updates("x:=0")
    edges = []
    outputs = {}
    for st in _status_states(k):
        outputs[st] = _kpair_output(st, max_reg_of)
        before = _served(st)
        for sym, _, _, new in _pair_steps(sa, st):
            after = _served(new)
            if before is not None and after == before:
                edges += _guarded_edges(st, sym, new, [count[before]])
            elif before is not None and new[before - 1] != "D":
                edges += _guarded_edges(st, sym, new, [credit[before]])
            else:
                idle = before is None and after is None
                edges.append(Edge(st, sym, TRUE_GUARD, () if idle else restart, new))
    return RegisterMachine(name, regs, tuple(_status_states(k)), sa.alphabet, "I" * k,
                           edges, outputs, InstructionSet.COUNTER,
                           dom.product(dom.NATINF, k))


def build_kpair_priority(k):
    """(k+1)-counter under-approximation: per-pair maxima plus one shared
    response counter serving the lowest-index open request.  Exact whenever
    requests never overlap."""
    regs = [f"y{i}" for i in range(1, k + 1)] + ["x"]
    return _build_kpair_shared(k, lambda i: f"y{i}", regs, f"Mkprio{k}")


def build_kpair_grouped(k):
    """(ceil(k/2)+1)-counter variant sharing one max register per pair group
    {2g-1, 2g}.  The grouped register reports the group maximum, so it can
    exceed the true value of the smaller group member."""
    if k < 3:
        raise MachineError("grouped scheme needs k >= 3 to differ from the 2-counter one")
    groups = (k + 1) // 2
    regs = [f"z{g}" for g in range(1, groups + 1)] + ["x"]
    return _build_kpair_shared(k, lambda i: f"z{(i + 1) // 2}", regs, f"Mkgrp{k}")


def _next_alive(alive, t):
    after = [i for i in alive if i > t]
    return (min(after), False) if after else (min(alive), True)


def build_kpair_sequential(k):
    """Two-counter under-approximation of all pair maxima at once.

    A single value z is raised only after witnessing, pair by pair in a
    fixed cyclic order, a completed response exceeding it; x measures the
    response of the pair currently awaited, t.  In phase w a request of t
    restarts x and enters phase c, where x counts until t completes or dies.
    Dead (double-requested) pairs stop gating the cycle.
    """
    sa = server_alphabet(k)
    alphabet = sa.alphabet
    edges, outputs = [], {}
    count, arm, raise_z = map(_parse_updates, ("x:=x+1", "x:=0", "z:=z+1"))
    success = Guard((GuardAtom("x", "z"),))
    failure = Guard((GuardAtom("x", "z", negated=True),))
    for statuses in _status_states(k):
        out = _kpair_output(statuses, lambda i: "z")
        steps = [(sym, kind, j, new, [i + 1 for i, c in enumerate(new) if c != "D"])
                 for sym, kind, j, new in _pair_steps(sa, statuses)]
        for t in range(1, k + 1):
            # a dead pair is never awaited, and only a pending one is counted
            for ph in {"I": "w", "P": "wc", "D": ""}[statuses[t - 1]]:
                st = f"{statuses}_t{t}_{ph}"
                outputs[st] = out
                for sym, kind, j, new, alive in steps:
                    if not alive:
                        edges.append(Edge(st, sym, TRUE_GUARD, (), "alldead"))
                    elif ph == "c" and j != t:
                        # only req t and ack t change t's status
                        edges.append(Edge(st, sym, TRUE_GUARD, count, f"{new}_t{t}_c"))
                    elif ph == "c" and kind == "ack":
                        # completion: success advances the cycle, failure re-arms
                        t_ok, wrapped = _next_alive(alive, t)
                        edges.append(Edge(st, sym, success, raise_z if wrapped else (),
                                          f"{new}_t{t_ok}_w"))
                        edges.append(Edge(st, sym, failure, (), f"{new}_t{t}_w"))
                    elif kind == "req" and j == t and statuses[t - 1] == "I":
                        edges.append(Edge(st, sym, TRUE_GUARD, arm, f"{new}_t{t}_c"))
                    else:
                        # wait on t, or on the next alive pair once t is dead
                        # (a counted t dies without credit)
                        t2 = t if new[t - 1] != "D" else _next_alive(alive, t)[0]
                        edges.append(Edge(st, sym, TRUE_GUARD, (), f"{new}_t{t2}_w"))
    outputs["alldead"] = _kpair_tuple((None,) * k)
    edges += [Edge("alldead", a, TRUE_GUARD, (), "alldead") for a in alphabet]
    return RegisterMachine(f"Mkseq{k}", ("z", "x"), tuple(outputs), alphabet,
                           f"{'I' * k}_t1_w", edges, outputs, InstructionSet.COUNTER,
                           dom.product(dom.NATINF, k))


def build_kpair_approx(k, counters):
    """Approximate k-pair monitor for a counter budget of k+1, ceil(k/2)+1,
    or 2 registers."""
    if counters == k + 1:
        return build_kpair_priority(k)
    if counters == 2:
        return build_kpair_sequential(k)
    if k >= 3 and counters == (k + 1) // 2 + 1:
        return build_kpair_grouped(k)
    raise MachineError(f"unsupported counter budget {counters} for {k} pairs")


# -- letter-frequency ordering machines ------------------------------------


def pk_alphabet(k):
    return Alphabet(tuple(str(i) for i in range(1, k + 1)))


def _ordering_step(source, symbol, j, trackers, clock, target):
    """The edges of one letter-ordering step on value j: the clock register
    counts it, d_j counts it while 1 <= j < trackers, and, for
    2 <= j <= trackers, d_(j-1) pays for it under [d_(j-1)>=1]; without the
    payment the clock counts it and the run moves to ``frozen``."""
    counted = _parse_updates(f"{clock}:={clock}+1")
    if 1 <= j < trackers:
        counted += _parse_updates(f"d{j}:=d{j}+1")
    if not 2 <= j <= trackers:
        return [Edge(source, symbol, TRUE_GUARD, counted, target)]
    payer = f"d{j - 1}"
    return [Edge(source, symbol, Guard((GuardAtom(payer, 1),)),
                 counted + _parse_updates(f"{payer}:={payer}-1"), target),
            Edge(source, symbol, Guard((GuardAtom(payer, 1, negated=True),)),
                 _parse_updates(f"{clock}:={clock}+1"), "frozen")]


def _build_pk(k, trackers, name):
    alphabet = pk_alphabet(k)
    regs = [f"d{i}" for i in range(1, trackers)] + ["length"]
    edges = []
    for j in range(1, k + 1):
        edges += _ordering_step("live", str(j), j, trackers, "length", "live")
        edges.append(Edge("frozen", str(j), TRUE_GUARD, (), "frozen"))
    outputs = {"live": OUT_INF, "frozen": out_reg("length")}
    return RegisterMachine(name, regs, ("live", "frozen"), alphabet, "live", edges,
                           outputs, InstructionSet.COUNTER_INC_DEC, dom.NATINF)


def build_pk_monitor(k):
    """Exact k-counter monitor of the letter-ordering property over {1..k}:
    counter d_i holds the count difference of letters i and i+1, and the
    last counter freezes the violating prefix length."""
    if k < 2:
        raise MachineError("need at least a 2-letter alphabet")
    return _build_pk(k, k, f"Mpk{k}")


def build_pk_approx(k, trackers):
    """Monitor tracking only the first ``trackers - 1`` count differences;
    over-approximates from above by missing later-pair violations."""
    if not 2 <= trackers < k:
        raise MachineError("approximations need 2 <= trackers < k (otherwise use the "
                           "exact machine)")
    return _build_pk(k, trackers, f"Mpk{k}l{trackers}")


def eval_pk(t, k):
    """Ground truth for the letter-ordering property: infinity while every
    prefix has monotone letter counts, else the shortest violating length."""
    counts = [0] * (k + 2)
    length = 0

    def feed(sym):
        nonlocal length
        length += 1
        j = int(sym)
        counts[j] += 1
        if j >= 2 and counts[j] > counts[j - 1]:
            return length
        return None

    for sym in t.stem:
        hit = feed(sym)
        if hit:
            return hit
    for _ in range(2):
        for sym in t.loop:
            hit = feed(sym)
            if hit:
                return hit
    delta = [0] * (k + 2)
    for sym in t.loop:
        delta[int(sym)] += 1
    needed = 0
    for j in range(1, k):
        slope = delta[j] - delta[j + 1]
        if slope < 0:
            margin = counts[j] - counts[j + 1]
            needed = max(needed, margin // (-slope) + 2)
    if needed == 0:
        return dom.INF
    for _ in range(needed + 2):
        for sym in t.loop:
            hit = feed(sym)
            if hit:
                return hit
    raise AssertionError("expected an ordering violation within the computed bound")


def pk_property(k):
    return QuantitativeProperty(f"pk:{k}", dom.NATINF, lambda t: eval_pk(t, k),
                                alphabet=pk_alphabet(k))


# -- binary-encoded ordering machines ---------------------------------------


BINARY_ALPHABET = Alphabet(("0", "1", "mark"))
_MARK = "mark"


def build_binary_pk(k):
    """k-counter monitor of the block-value ordering property over bits plus
    a block separator: a bit decoder in front of the Mpk step.  States v0..vk
    read a block's value (``over`` once it exceeds k), and each separator
    takes the letter-ordering step on that value with ``marks`` as the clock,
    so violations freeze the separator count."""
    if k < 2:
        raise MachineError("need at least 2 counters")
    alphabet = BINARY_ALPHABET
    regs = [f"d{i}" for i in range(1, k)] + ["marks"]
    states = [f"v{n}" for n in range(k + 1)] + ["over", "frozen"]
    edges = []

    def bit_target(n, bit):
        n2 = 2 * n + bit
        return f"v{n2}" if n2 <= k else "over"

    for n in range(k + 1):
        st = f"v{n}"
        edges.append(Edge(st, "0", TRUE_GUARD, (), bit_target(n, 0)))
        edges.append(Edge(st, "1", TRUE_GUARD, (), bit_target(n, 1)))
        edges += _ordering_step(st, _MARK, n, k, "marks", "v0")
    edges.append(Edge("over", "0", TRUE_GUARD, (), "over"))
    edges.append(Edge("over", "1", TRUE_GUARD, (), "over"))
    edges += _ordering_step("over", _MARK, k + 1, k, "marks", "v0")
    for a in alphabet:
        edges.append(Edge("frozen", a, TRUE_GUARD, (), "frozen"))
    outputs = {q: OUT_INF for q in states}
    outputs["frozen"] = out_reg("marks")
    return RegisterMachine(f"Mbin{k}", regs, tuple(states), alphabet, "v0", edges,
                           outputs, InstructionSet.COUNTER_INC_DEC, dom.NATINF)


def eval_binary_pk(t):
    """Ground truth for the block-value ordering property: the number of
    separators in the shortest violating prefix, infinity when none."""
    counts = {}
    marks = 0
    block = 0

    def feed(sym):
        nonlocal marks, block
        if sym != _MARK:
            block = 2 * block + int(sym)
            return None
        marks += 1
        value, block = block, 0
        counts[value] = counts.get(value, 0) + 1
        if value >= 2 and counts[value] > counts.get(value - 1, 0):
            return marks
        return None

    for sym in t.stem:
        hit = feed(sym)
        if hit:
            return hit
    if _MARK not in t.loop.symbols:
        return dom.INF
    per_loop = [{} for _ in range(4)]
    for it in range(4):
        for sym in t.loop:
            hit = feed(sym)
            if hit:
                return hit
        per_loop[it] = dict(counts)
    delta = {v: per_loop[3].get(v, 0) - per_loop[2].get(v, 0) for v in per_loop[3]}
    needed = 0
    for v, dv in delta.items():
        if v < 2 or dv == 0:
            continue
        slope = delta.get(v - 1, 0) - dv
        if slope < 0:
            margin = counts.get(v - 1, 0) - counts.get(v, 0)
            needed = max(needed, margin // (-slope) + 2)
    if needed == 0:
        return dom.INF
    for _ in range(needed + 2):
        for sym in t.loop:
            hit = feed(sym)
            if hit:
                return hit
    raise AssertionError("expected a block-ordering violation within the computed bound")


def binary_pk_property():
    return QuantitativeProperty("binary-pk", dom.NATINF, eval_binary_pk,
                                alphabet=BINARY_ALPHABET)


# -- doubling machines ------------------------------------------------------


DOUBLING_ALPHABET = Alphabet(("a", "b"))


def build_doubling_adder():
    """Two-register adder machine whose verdict is 2^n for the longest run
    of a's seen so far (1 when none yet).

    Along a run, x doubles so that x = 2^(len-1); y remembers the best x of
    any completed run.  Since both stay powers of two, the closing
    comparison x >= y decides max exactly, and the output map doubles the
    registers back to 2^len.
    """
    alphabet = DOUBLING_ALPHABET
    edges = [
        Edge("virgin", "a", TRUE_GUARD, _parse_updates("x:=1"), "inblock"),
        Edge("virgin", "b", TRUE_GUARD, (), "virgin"),
        Edge("inblock", "a", TRUE_GUARD, _parse_updates("x:=x+x"), "inblock"),
        Edge("inblock", "b", Guard((GuardAtom("x", "y"),)),
             _parse_updates("y:=x"), "outside"),
        Edge("inblock", "b", Guard((GuardAtom("x", "y", negated=True),)), (), "outside"),
        Edge("outside", "a", TRUE_GUARD, _parse_updates("x:=1"), "inblock"),
        Edge("outside", "b", TRUE_GUARD, (), "outside"),
    ]
    outputs = {"virgin": out_const(1),
               "inblock": _parse_output("max(2*x,2*y)"),
               "outside": _parse_output("2*y")}
    return RegisterMachine("Madd", ("x", "y"), ("virgin", "inblock", "outside"),
                           alphabet, "virgin", edges, outputs, InstructionSet.ADDER,
                           dom.NATINF)


def build_doubling_counter():
    """Two-counter machine whose verdict is twice the longest run of a's."""
    alphabet = DOUBLING_ALPHABET
    edges = _guarded_edges("q", "a", "q", [_max_tracking("c", "m")])
    edges.append(Edge("q", "b", TRUE_GUARD, _parse_updates("c:=0"), "q"))
    outputs = {"q": _parse_output("2*m")}
    return RegisterMachine("Mcount", ("c", "m"), ("q",), alphabet, "q", edges,
                           outputs, InstructionSet.COUNTER, dom.NATINF)


def longest_a_run(s):
    best = cur = 0
    for sym in s:
        cur = cur + 1 if sym == "a" else 0
        best = max(best, cur)
    return best


def closed_v_add(s):
    return 2 ** longest_a_run(s)


def closed_v_count(s):
    return 2 * longest_a_run(s)


def eval_doubling(t):
    """2^n for the longest a-run of the lasso, infinite for an all-a loop."""
    if all(sym == "a" for sym in t.loop):
        return dom.INF
    window = t.prefix(len(t.stem) + 2 * len(t.loop))
    return 2 ** longest_a_run(window)


def doubling_property():
    return QuantitativeProperty("doubling", dom.NATINF, eval_doubling,
                                alphabet=DOUBLING_ALPHABET)
