import itertools
import random
import sys
import threading
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from quantmon.errors import InputError, TraceParseError
from quantmon.trace import (Alphabet, FiniteTrace, LassoTrace, ServerAlphabet, _tokenize,
                            all_lassos, all_finite_traces, lasso, parse_finite, parse_lasso,
                            random_finite_trace, random_lasso, server_alphabet)


@pytest.fixture(scope="module")
def ra():
    return Alphabet(("req", "ack", "other"))


class TestAlphabet:
    def test_rejects_duplicates_and_bad_tokens(self):
        with pytest.raises(ValueError):
            Alphabet(("a", "a"))
        with pytest.raises(ValueError):
            Alphabet(("a", ";"))
        with pytest.raises(ValueError):
            Alphabet(("a b",))
        with pytest.raises(ValueError):
            Alphabet(())
        # no trace file can hold "a\n", which a `$` anchor lets through
        with pytest.raises(InputError, match=r"bad alphabet token 'a\\n'"):
            Alphabet(("a\n", "b"))


class TestServerAlphabet:
    def test_one_object_per_pair_count(self):
        assert server_alphabet() is server_alphabet(1) is server_alphabet(k=1)
        assert server_alphabet(3) is server_alphabet(3)
        assert server_alphabet(3).alphabet is server_alphabet(3).alphabet
        assert server_alphabet(3).alphabet.symbols == \
            ("req1", "ack1", "req2", "ack2", "req3", "ack3", "other")

    def test_threads_share_one_object(self):
        # threads released together ask for a pair count no other test builds
        barrier, got = threading.Barrier(8), []

        def ask():
            barrier.wait(timeout=10)
            got.append(server_alphabet(23))

        threads = [threading.Thread(target=ask) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(got) == 8 and all(sa is got[0] for sa in got)

    @pytest.mark.parametrize("reqs,acks", [(("req1", "req2"), ("ack1",)), ((), ())],
                             ids=["unpaired", "empty"])
    def test_token_lists_must_pair_up(self, reqs, acks):
        with pytest.raises(ValueError) as exc:
            ServerAlphabet(reqs, acks)
        assert str(exc.value) == "request and acknowledgement token lists must pair up"


class TestLassoChecks:
    def test_stem_and_loop_share_an_alphabet(self, ra):
        stem = FiniteTrace(("req",), ra)
        loop = FiniteTrace(("a",), Alphabet(("a", "b")))
        with pytest.raises(ValueError) as exc:
            LassoTrace(stem, loop)
        assert str(exc.value) == "stem and loop must share an alphabet"

    def test_loop_is_non_empty(self, ra):
        with pytest.raises(ValueError) as exc:
            LassoTrace(FiniteTrace(("req",), ra), FiniteTrace((), ra))
        assert str(exc.value) == "lasso loop must be non-empty"


class TestPrefix:
    def test_empty_prefix(self, ra):
        t = lasso(("req",), ("ack",), ra)
        assert t.prefix(0).symbols == ()

    def test_unrolls_loop(self, ra):
        t = lasso(("req",), ("ack",), ra)
        assert t.prefix(3).symbols == ("req", "ack", "ack")

    def test_empty_stem(self, ra):
        ab = Alphabet(("a", "b"))
        t = lasso((), ("a", "b"), ab)
        assert t.prefix(5).symbols == ("a", "b", "a", "b", "a")


class TestDerivedTraces:
    """Traces built from the symbols of a checked trace or of the alphabet
    are not checked again, and equal the checked traces."""

    def test_equal_to_checked_traces(self, ra):
        t = lasso(("req",), ("ack", "other"), ra)
        assert t.prefix(4) == FiniteTrace(("req", "ack", "other", "ack"), ra)
        assert list(all_finite_traces(ra, 2, min_len=2)) == \
            [FiniteTrace(syms, ra) for syms in itertools.product(ra.symbols, repeat=2)]
        drawn = random_finite_trace(random.Random(3), ra, 6)
        assert drawn == FiniteTrace(drawn.symbols, ra) and len(drawn) == 6

    def test_built_without_a_second_check(self, ra, monkeypatch):
        t = lasso(("req",), ("ack", "other"), ra)

        def refuse(self):
            raise AssertionError("symbols checked again")

        monkeypatch.setattr(FiniteTrace, "__post_init__", refuse)
        assert t.prefix(4).symbols == ("req", "ack", "other", "ack")
        assert len(list(all_finite_traces(ra, 2))) == 1 + 3 + 9
        assert len(random_finite_trace(random.Random(3), ra, 6)) == 6
        assert random_lasso(random.Random(3), ra, 2, 2).alphabet == ra
        with pytest.raises(AssertionError, match="checked again"):
            FiniteTrace(("req",), ra)


class TestParsing:
    def test_parse_lasso(self, ra):
        t = parse_lasso("req ack ; other", ra)
        assert t.stem.symbols == ("req", "ack")
        assert t.loop.symbols == ("other",)

    def test_empty_stem_text(self):
        ab = Alphabet(("a", "b"))
        t = parse_lasso("; a b", ab)
        assert t.stem.symbols == () and t.loop.symbols == ("a", "b")

    def test_missing_loop_separator(self, ra):
        with pytest.raises(TraceParseError):
            parse_lasso("req ack", ra)

    def test_empty_loop(self, ra):
        with pytest.raises(TraceParseError):
            parse_lasso("req ack ;", ra)

    def test_two_separators(self, ra):
        with pytest.raises(TraceParseError) as exc:
            parse_lasso("req ; ack ; other", ra)
        assert exc.value.position is not None

    def test_unknown_token_with_position(self, ra):
        with pytest.raises(TraceParseError) as exc:
            parse_lasso("req boom ; ack", ra)
        assert exc.value.position == 1

    def test_halt_marker_rejected(self, ra):
        with pytest.raises(TraceParseError):
            parse_lasso("req ack !halt", ra)

    def test_comments_and_glued_separator(self, ra):
        t = parse_lasso("req ack;other  # trailing note", ra)
        assert t.loop.symbols == ("other",)

    def test_finite_rejects_separator(self, ra):
        with pytest.raises(TraceParseError):
            parse_finite("req ; ack", ra)
        s = parse_finite("req ack # note", ra)
        assert s.symbols == ("req", "ack")


# The per-token parsers the bulk ones replaced, kept as their reference:
# each token is checked on its own, and the traces are built through lasso()
# and FiniteTrace(), which check the symbols again.

def _reference_check_tokens(tokens, alphabet):
    for pos, tok in enumerate(tokens):
        if tok == ";":
            continue
        if tok not in alphabet:
            raise TraceParseError(f"unknown token {tok!r} at position {pos}", position=pos)


def reference_parse_lasso(text, alphabet):
    tokens = _tokenize(text)
    seps = [i for i, t in enumerate(tokens) if t == ";"]
    if len(seps) == 0:
        raise TraceParseError("lasso text has no ';' loop separator")
    if len(seps) > 1:
        raise TraceParseError(f"more than one ';' separator (positions {seps})",
                              position=seps[1])
    _reference_check_tokens(tokens, alphabet)
    cut = seps[0]
    stem, loop = tokens[:cut], tokens[cut + 1:]
    if not loop:
        raise TraceParseError("empty lasso loop")
    return lasso(stem, loop, alphabet)


def reference_parse_finite(text, alphabet):
    tokens = _tokenize(text)
    seps = [i for i, t in enumerate(tokens) if t == ";"]
    if seps:
        raise TraceParseError("finite trace text must not contain ';'", position=seps[0])
    _reference_check_tokens(tokens, alphabet)
    return FiniteTrace(tuple(tokens), alphabet)


SERVER = Alphabet(("req", "ack", "other"))
PARSERS = ((parse_finite, reference_parse_finite), (parse_lasso, reference_parse_lasso))


def parsed(parse, text):
    """The trace ``parse`` makes of ``text``, or its error's message and
    position."""
    try:
        return parse(text, SERVER)
    except TraceParseError as exc:
        return str(exc), exc.position


def symbols(result):
    if isinstance(result, LassoTrace):
        return result.stem.symbols + result.loop.symbols
    return result.symbols if isinstance(result, FiniteTrace) else ()


def alphabets(result):
    if isinstance(result, LassoTrace):
        return (result.stem.alphabet, result.loop.alphabet)
    return (result.alphabet,) if isinstance(result, FiniteTrace) else ()


@st.composite
def trace_texts(draw):
    """Trace text over SERVER with unknown tokens anywhere, 0-3 ';'
    separators, glued or spaced, and comment and blank lines."""
    words = draw(st.lists(st.sampled_from(SERVER.symbols * 4 + ("boom", "x1", "Req", "_")),
                          max_size=12))
    for _ in range(draw(st.integers(0, 3))):
        words.insert(draw(st.integers(0, len(words))), ";")
    text = words[0] if words else ""
    for prev, word in zip(words, words[1:]):
        # two words glued together would make one token
        gaps = ("", " ", "\n") if ";" in (prev, word) else (" ", "\t ", "\n")
        text += draw(st.sampled_from(gaps)) + word
    lines = []
    for line in text.split("\n"):
        if draw(st.booleans()):
            lines.append(draw(st.sampled_from(("", "   ", "# a comment ; boom"))))
        lines.append(line + draw(st.sampled_from(("", " # note", "#;x", "  # req ; ack"))))
    return "\n".join(lines)


class TestParserAgainstReference:
    @given(trace_texts())
    def test_same_traces_and_errors(self, text):
        for parse, reference in PARSERS:
            got, want = parsed(parse, text), parsed(reference, text)
            assert got == want
            assert all(a is SERVER for a in alphabets(got))
            own = dict(zip(SERVER.symbols, SERVER.symbols))
            assert all(s is own[s] for s in symbols(got) + symbols(want))

    def test_unknown_last_token_of_a_long_trace(self):
        body = " ".join(["req", "ack"] * 9999 + ["other", "boom"])
        for (parse, reference), text, position in zip(
                PARSERS, (body, "; " + body), (19999, 20000)):
            want = (f"unknown token 'boom' at position {position}", position)
            assert parsed(parse, text) == parsed(reference, text) == want

    def test_a_parsed_event_holds_one_pointer(self):
        # the alphabet's own strings stand for the tokens, which are freed
        alphabet = server_alphabet(1).alphabet
        rng = random.Random(5)
        text = " ".join(rng.choice(alphabet.symbols) for _ in range(100_000))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            trace = parse_finite(text, alphabet)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(trace) == 100_000
        assert retained / len(trace) <= 16

    def test_the_earlier_of_two_unknown_tokens_is_named(self):
        for (parse, reference), text in zip(PARSERS, ("req zap ack boom zap boom",
                                                      "req zap;ack boom zap boom")):
            want = ("unknown token 'zap' at position 1", 1)
            assert parsed(parse, text) == parsed(reference, text) == want


sym = st.sampled_from(("a", "b"))
stems = st.lists(sym, max_size=4)
loops = st.lists(sym, min_size=1, max_size=4)


class TestLassoLaws:
    @given(stems, loops, st.integers(0, 12), st.integers(0, 12))
    def test_prefixes_nest(self, u, v, i, j):
        ab = Alphabet(("a", "b"))
        t = lasso(u, v, ab)
        lo, hi = min(i, j), max(i, j)
        assert t.prefix(lo).is_prefix_of(t.prefix(hi))

    @given(stems, loops, st.integers(0, 20))
    def test_loop_rotation(self, u, v, m):
        ab = Alphabet(("a", "b"))
        t = lasso(u, v, ab)
        assert t.symbol_at(len(u) + m) == v[m % len(v)]
        assert t.prefix(m).symbols == tuple(t.symbol_at(j) for j in range(m))

    @given(stems, loops)
    def test_render_parse_round_trip(self, u, v):
        ab = Alphabet(("a", "b"))
        t = lasso(u, v, ab)
        assert parse_lasso(t.render(), ab) == t

    def test_prepend(self):
        ab = Alphabet(("a", "b"))
        t = lasso(("a",), ("b",), ab)
        t2 = t.prepend(("b", "b"))
        assert t2.stem.symbols == ("b", "b", "a") and t2.loop == t.loop

    def test_prepend_checks_what_was_not_checked(self):
        ab = Alphabet(("a", "b"))
        t = lasso(("a",), ("b",), ab)
        # a trace over the same alphabet, checked when built, and the same
        # symbols as a raw sequence give the same lasso
        same = FiniteTrace(("b", "b"), Alphabet(("a", "b")))
        assert t.prepend(same) == t.prepend(("b", "b")) == t.prepend(same.symbols)
        with pytest.raises(ValueError):
            t.prepend(("c",))
        with pytest.raises(ValueError):
            t.prepend(FiniteTrace(("c",), Alphabet(("a", "c"))))


class TestEnumerationShapes:
    def test_counts(self):
        ab = Alphabet(("a", "b"))
        assert len(list(all_finite_traces(ab, 3))) == 1 + 2 + 4 + 8
        assert len(list(all_lassos(ab, 2, 3))) == 7 * (2 + 4 + 8)

    def test_lasso_order(self):
        # stems shortest first, then loops shortest first, each in
        # lexicographic order of the alphabet
        ab = Alphabet(("a", "b"))
        assert [t.render() for t in all_lassos(ab, 1, 2)] == [
            f"{stem} ; {loop}".strip()
            for stem in ("", "a", "b")
            for loop in ("a", "b", "a a", "a b", "b a", "b b")]

    def test_loop_never_empty(self):
        ab = Alphabet(("a", "b"))
        assert all(len(t.loop) >= 1 for t in all_lassos(ab, 1, 2))
