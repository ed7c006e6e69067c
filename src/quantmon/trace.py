"""Alphabets, finite traces, and lasso (ultimately periodic) traces.

The response-time server alphabet pairs req/ack tokens and adds ``other``.

A lasso ``u ; v`` stands for the infinite trace u v v v ...  Trace files are
whitespace-tokenized, ``#`` starts a comment, and a single ``;`` separates
the stem from the loop in lasso files.  Each token of a parsed or built
trace becomes the alphabet's own symbol object, so a trace stores one shared
string per symbol; no trace built from such symbols is checked again.
"""

import itertools
import re
from dataclasses import dataclass
from operator import itemgetter

from .errors import InputError, TraceParseError

_TOKEN_RE = re.compile(r"[A-Za-z0-9_]+")


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
            if not _TOKEN_RE.fullmatch(s):
                raise InputError(f"bad alphabet token {s!r}")
        object.__setattr__(self, "_own", {s: s for s in self.symbols})

    def __iter__(self):
        return iter(self.symbols)

    def __len__(self):
        return len(self.symbols)


@dataclass(frozen=True)
class ServerAlphabet:
    req_tokens: tuple
    ack_tokens: tuple
    other_token = "other"

    def __post_init__(self):
        if len(self.req_tokens) != len(self.ack_tokens) or not self.req_tokens:
            raise ValueError("request and acknowledgement token lists must pair up")
        pairs = itertools.chain(*zip(self.req_tokens, self.ack_tokens))
        object.__setattr__(self, "alphabet", Alphabet((*pairs, self.other_token)))


_SERVER_ALPHABETS = {}


def server_alphabet(k=1):
    """The standard server alphabet: req/ack for one pair, req1/ack1/... beyond.
    It is one object per k, so its traces hold the symbols keying its machines."""
    if k not in _SERVER_ALPHABETS:
        # setdefault keeps the first object when two threads build one
        ids = [""] if k == 1 else range(1, k + 1)
        _SERVER_ALPHABETS.setdefault(k, ServerAlphabet(tuple(f"req{i}" for i in ids),
                                                       tuple(f"ack{i}" for i in ids)))
    return _SERVER_ALPHABETS[k]


@dataclass(frozen=True)
class FiniteTrace:
    """A finite word over ``alphabet``, held as the alphabet's own symbol
    objects."""

    symbols: tuple
    alphabet: Alphabet

    def __post_init__(self):
        object.__setattr__(self, "symbols", _own_symbols(tuple(self.symbols), self.alphabet))

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
        """The lasso for ``finite`` followed by this infinite trace."""
        return LassoTrace(FiniteTrace(tuple(finite) + self.stem.symbols, self.alphabet),
                          self.loop)

    def render(self):
        return (self.stem.render() + " ; " + self.loop.render()).strip()


def _own_symbols(tokens, alphabet, offset=None):
    """The tuple of ``alphabet``'s own objects for ``tokens``.  The first
    token outside the alphabet raises a TraceParseError naming its position
    in parsed text, where the tokens start at ``offset``, or a ValueError
    when there is no offset."""
    own = alphabet._own
    try:
        # one C call; itemgetter of a single key returns the bare value
        return itemgetter(*tokens)(own) if len(tokens) > 1 else tuple(own[t] for t in tokens)
    except KeyError:
        pos, tok = next((pos, tok) for pos, tok in enumerate(tokens) if tok not in own)
    if offset is None:
        raise ValueError(f"symbol {tok!r} not in alphabet")
    raise TraceParseError(f"unknown token {tok!r} at position {offset + pos}",
                          position=offset + pos)


def _checked_trace(symbols, alphabet):
    """The FiniteTrace of a tuple of ``alphabet``'s own symbol objects,
    built without checking them again."""
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
    cut = tokens.index(";")
    stem = _own_symbols(tokens[:cut], alphabet, 0)
    loop = _own_symbols(tokens[cut + 1:], alphabet, cut + 1)
    if not loop:
        raise TraceParseError("empty lasso loop")
    return LassoTrace(_checked_trace(stem, alphabet), _checked_trace(loop, alphabet))


def parse_finite(text, alphabet):
    """Parse a finite replay trace (no ';' allowed)."""
    tokens = _tokenize(text)
    if ";" in tokens:
        raise TraceParseError("finite trace text must not contain ';'",
                              position=tokens.index(";"))
    return _checked_trace(_own_symbols(tokens, alphabet, 0), alphabet)


def read_sections(text, required, error, optional=()):
    """Split a machine or automaton file, comments and blank lines dropped,
    into its ``key: words`` header and its other ``(lineno, line)`` lines.
    Every ``required`` key must occur once, an ``optional`` key at most
    once, and ``initial:`` must name one state, or ``error`` is raised."""
    header, body = {}, []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, rest = line.partition(":")
        key = key.strip()
        if sep and key in required + optional:
            if key in header:
                raise error(f"line {lineno}: second '{key}:' line")
            header[key] = rest.split()
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
