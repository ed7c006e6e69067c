"""Alphabets, finite traces, and lasso (ultimately periodic) traces.

A lasso ``u ; v`` stands for the infinite trace u v v v ...  Trace files are
whitespace-tokenized, ``#`` starts a comment, and a single ``;`` separates
the stem from the loop in lasso files.  The parsers check each distinct
token once against the alphabet; no trace built from checked symbols is
checked again.
"""

import itertools
import re
from dataclasses import dataclass

from .errors import InputError, TraceParseError

_TOKEN_RE = re.compile(r"^[A-Za-z0-9_]+$")


@dataclass(frozen=True)
class Alphabet:
    symbols: tuple

    def __post_init__(self):
        object.__setattr__(self, "symbols", tuple(self.symbols))
        if not self.symbols:
            raise InputError("alphabet must be non-empty")
        if len(set(self.symbols)) != len(self.symbols):
            raise InputError("alphabet symbols must be distinct")
        for s in self.symbols:
            if not _TOKEN_RE.match(s):
                raise InputError(f"bad alphabet token {s!r}")

    def __iter__(self):
        return iter(self.symbols)

    def __len__(self):
        return len(self.symbols)


@dataclass(frozen=True)
class FiniteTrace:
    """A finite word; with ``alphabet`` None its symbols go unchecked, as
    for steppers started without an alphabet."""

    symbols: tuple
    alphabet: Alphabet

    def __post_init__(self):
        object.__setattr__(self, "symbols", tuple(self.symbols))
        if self.alphabet is None:
            return
        for s in dict.fromkeys(self.symbols):
            _check_symbol(s, self.alphabet)

    def __len__(self):
        return len(self.symbols)

    def __iter__(self):
        return iter(self.symbols)

    def __getitem__(self, i):
        return self.symbols[i]

    def extend(self, symbols):
        return FiniteTrace(self.symbols + tuple(symbols), self.alphabet)

    def is_prefix_of(self, other):
        return len(self) <= len(other) and other.symbols[:len(self)] == self.symbols

    def render(self):
        return " ".join(self.symbols)


@dataclass(frozen=True)
class LassoTrace:
    stem: FiniteTrace
    loop: FiniteTrace

    def __post_init__(self):
        stem, loop = self.stem.alphabet, self.loop.alphabet
        if stem is not loop and stem != loop:
            raise ValueError("stem and loop must share an alphabet")
        if len(self.loop) == 0:
            raise ValueError("lasso loop must be non-empty")

    @property
    def alphabet(self):
        return self.stem.alphabet

    def symbol_at(self, i):
        """Symbol at position i (0-based) of the infinite trace."""
        if i < len(self.stem):
            return self.stem[i]
        return self.loop[(i - len(self.stem)) % len(self.loop)]

    def prefix(self, i):
        """The length-i finite prefix of the infinite trace."""
        stem, loop = self.stem.symbols, self.loop.symbols
        unrollings = max(0, -(-(i - len(stem)) // len(loop)))
        return _checked_trace((stem + loop * unrollings)[:i], self.alphabet)

    def prepend(self, finite):
        """The lasso for ``finite`` followed by this infinite trace.  The
        symbols of a FiniteTrace over this alphabet were checked when it was
        built; any other sequence is checked here."""
        alphabet = self.alphabet
        if isinstance(finite, FiniteTrace) and finite.alphabet == alphabet:
            stem = _checked_trace(finite.symbols + self.stem.symbols, alphabet)
        else:
            stem = FiniteTrace(tuple(finite) + self.stem.symbols, alphabet)
        return LassoTrace(stem, self.loop)

    def render(self):
        return (self.stem.render() + " ; " + self.loop.render()).strip()


def _check_symbol(symbol, alphabet):
    if symbol not in alphabet.symbols:
        raise ValueError(f"symbol {symbol!r} not in alphabet")


def _checked_trace(symbols, alphabet):
    """The FiniteTrace of a tuple whose symbols are already known to lie in
    ``alphabet``, built without checking them again."""
    t = object.__new__(FiniteTrace)
    object.__setattr__(t, "symbols", symbols)
    object.__setattr__(t, "alphabet", alphabet)
    return t


def lasso(stem_symbols, loop_symbols, alphabet):
    return LassoTrace(FiniteTrace(tuple(stem_symbols), alphabet),
                      FiniteTrace(tuple(loop_symbols), alphabet))


def _tokenize(text):
    out = []
    for line in text.splitlines():
        body = line.split("#", 1)[0]
        # `;` is its own token even when glued to a neighbour
        body = body.replace(";", " ; ")
        out.extend(body.split())
    return out


def _check_tokens(tokens, alphabet):
    """Raise on the first token that is neither ``;`` nor in ``alphabet``;
    the tokens are scanned for it only when some token is unknown."""
    unknown = set(tokens).difference(alphabet.symbols, (";",))
    if unknown:
        pos, tok = next((pos, tok) for pos, tok in enumerate(tokens) if tok in unknown)
        raise TraceParseError(f"unknown token {tok!r} at position {pos}", position=pos)


def parse_lasso(text, alphabet):
    """Parse ``u ; v`` lasso text; the loop must be non-empty."""
    tokens = _tokenize(text)
    count = tokens.count(";")
    if count == 0:
        raise TraceParseError("lasso text has no ';' loop separator")
    if count > 1:
        seps = [i for i, t in enumerate(tokens) if t == ";"]
        raise TraceParseError(f"more than one ';' separator (positions {seps})",
                              position=seps[1])
    _check_tokens(tokens, alphabet)
    cut = tokens.index(";")
    stem, loop = tuple(tokens[:cut]), tuple(tokens[cut + 1:])
    if not loop:
        raise TraceParseError("empty lasso loop")
    return LassoTrace(_checked_trace(stem, alphabet), _checked_trace(loop, alphabet))


def parse_finite(text, alphabet):
    """Parse a finite replay trace (no ';' allowed)."""
    tokens = _tokenize(text)
    if ";" in tokens:
        raise TraceParseError("finite trace text must not contain ';'",
                              position=tokens.index(";"))
    _check_tokens(tokens, alphabet)
    return _checked_trace(tuple(tokens), alphabet)


def read_sections(text, required, error, optional=()):
    """Split a machine or automaton file, comments and blank lines dropped,
    into its ``key: words`` header and its other ``(lineno, line)`` lines.
    Every ``required`` key must occur and ``initial:`` must name one state,
    or ``error`` is raised."""
    header, body = {}, []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, rest = line.partition(":")
        if sep and key.strip() in required + optional:
            header[key.strip()] = rest.split()
        else:
            body.append((lineno, line))
    for key in required:
        if key not in header:
            raise error(f"missing '{key}:' line")
    if len(header["initial"]) != 1:
        raise error("initial must name exactly one state")
    return header, body


def all_finite_traces(alphabet, max_len, min_len=0):
    """Every finite trace with min_len <= length <= max_len, shortest first."""
    for n in range(min_len, max_len + 1):
        for syms in itertools.product(alphabet.symbols, repeat=n):
            yield _checked_trace(syms, alphabet)


def all_lassos(alphabet, max_stem, max_loop):
    """Every lasso with |stem| <= max_stem and 1 <= |loop| <= max_loop."""
    loops = list(all_finite_traces(alphabet, max_loop, min_len=1))
    for stem in all_finite_traces(alphabet, max_stem):
        for loop in loops:
            yield LassoTrace(stem, loop)


def random_finite_trace(rng, alphabet, length):
    return _checked_trace(tuple(rng.choice(alphabet.symbols) for _ in range(length)), alphabet)


def random_lasso(rng, alphabet, max_stem, max_loop):
    stem_len = rng.randint(0, max_stem)
    loop_len = rng.randint(1, max_loop)
    return LassoTrace(random_finite_trace(rng, alphabet, stem_len),
                      random_finite_trace(rng, alphabet, loop_len))
