import gc
import hashlib
import io
import json
import os
import pathlib
import random
import select
import subprocess
import sys
import time

import pytest

from quantmon import boolprop as bp
from quantmon import machine as mc
from quantmon import domain as dom
from quantmon import qprop as qp
from quantmon.cli import _bounded, _build_parser, _exhaustive_count, _verdict_for, main
from quantmon.trace import Alphabet, all_lassos
from quantmon.verdict import DEFAULT_BUDGET, LimitBudget, verdict_sequence


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    (root / "mmax.mspec").write_text(mc.render_machine(mc.build_mmax()))
    (root / "mavg.mspec").write_text(mc.render_machine(mc.build_mavg_running()))
    (root / "fig.trace").write_text("req ack req other ack req ack other\n")
    (root / "fig.lasso").write_text("req ack req other ack req ack other ; other\n")
    ab = Alphabet(("a", "b"))
    (root / "never_b.aut").write_text(bp.render_automaton(bp.safety_never(ab, "b")))
    (root / "eventually_a.aut").write_text(
        bp.render_automaton(bp.cosafety_eventually(ab, "a")))
    (root / "inf_a.aut").write_text(
        bp.render_automaton(bp.buchi_infinitely_often(ab, "a")))
    (root / "energy.waut").write_text(
        "alphabet: a b\nstates: q\ninitial: q\nq a -> q -3\nq b -> q 1\n")
    (root / "ab.lasso").write_text("a ; b\n")
    (root / "periodic.lasso").write_text("; req ack\n")
    return root


def run_cli(args, capsys):
    code = main([str(a) for a in args])
    out = capsys.readouterr()
    return code, out.out, out.err


DEMOS = pathlib.Path(__file__).resolve().parents[1] / "demos"

FIG1_CSV = ["index,prefix_len,value"] + [f"{i},{i},{v}" for i, v in
                                         enumerate([0, 0, 1, 1, 1, 2, 2, 2, 2])]


MMAX_TEXT = mc.render_machine(mc.build_mmax())
MMAX_SPEC = DEMOS / "machines/mmax.mspec"
MAVG_SPEC = DEMOS / "machines/mavg.mspec"
FIG_RUN = ["run", str(MMAX_SPEC), str(DEMOS / "traces/fig.trace"), "--finite"]
# its output -x+1 is 0 after one event and leaves natinf after two
COUNTDOWN_TEXT = ("registers: x\ninstruction-set: counter\nstates: q\ninitial: q\n"
                  "edge: q a / x:=x+1 -> q\noutput: q = -x+1\n")

READ = io.DEFAULT_BUFFER_SIZE  # the bytes one read of --stdin takes at most


def run_stdin(stdin, *options, spec=MMAX_SPEC):
    """``run Mmax --stdin`` (or another machine file ``spec``) as a child
    process reading ``stdin`` (a file or bytes)."""
    data = {"input": stdin} if isinstance(stdin, bytes) else {"stdin": stdin}
    return subprocess.run([sys.executable, "-m", "quantmon.cli", "run", str(spec),
                           "--stdin", *options], capture_output=True, **data)


def stepped(events, spec=MMAX_SPEC):
    """The rendered in-process verdicts of Mmax (or ``spec``) after each event."""
    run = mc.MachineRun(mc.load_machine(spec.read_text()))
    return [dom.render_value(run.step(e)) for e in events]


def comment_to(size):
    """A comment line of ``size`` bytes, its newline included."""
    return b"# " + b"x" * (size - 3) + b"\n"


def read_line_within(stream, seconds):
    """The next line of an unbuffered pipe, failing when it takes longer."""
    deadline, line = time.monotonic() + seconds, b""
    while not line.endswith(b"\n"):
        ready, _, _ = select.select([stream], [], [], max(0, deadline - time.monotonic()))
        if not ready:
            pytest.fail(f"no complete line within {seconds} s, got {line!r}")
        chunk = os.read(stream.fileno(), 4096)
        if not chunk:
            break
        line += chunk
    return line


@pytest.fixture(scope="module")
def boundary_stream(tmp_path_factory):
    """(path, events): a --stdin input over three reads long, with blank and
    comment lines, a two-byte character split by a read boundary, lines
    longer than one read, and no newline after its last line."""
    events = random.Random(1).choices(["req", "ack", "other"], k=4000)
    data = bytearray()
    for i, event in enumerate(events):
        if i == 1000:  # the character's first byte ends a read, its second begins one
            data += b"# " + b"x" * ((-len(data) - 3) % READ) + "\u00e9".encode() + b"\n"
        if i == 2000:
            data += b"#" + b"y" * (READ + 5) + b"\n"
        if i % 10 == 0:
            data += b"\n"
        if i == 3000:
            data += b" " * (2 * READ) + event.encode() + b"\t\n"
        elif i % 17 == 0:
            data += f"{event}  # event {i}\n".encode()
        else:
            data += event.encode() + b"\n"
    data = data[:-1]
    assert len(data) > 3 * READ and data.index("\u00e9".encode()) % READ == READ - 1
    path = tmp_path_factory.mktemp("stream") / "events.txt"
    path.write_bytes(data)
    return path, events


class TestRun:
    def test_fig1_csv(self, workdir, capsys):
        code, out, _ = run_cli(["run", workdir / "mmax.mspec",
                                workdir / "fig.trace", "--finite"], capsys)
        assert code == 0
        assert out.splitlines() == FIG1_CSV

    def test_fig2_csv(self, workdir, capsys):
        code, out, _ = run_cli(["run", workdir / "mavg.mspec",
                                workdir / "fig.trace", "--finite"], capsys)
        assert code == 0
        values = [line.split(",")[2] for line in out.splitlines()[1:]]
        assert values == ["0", "0", "1", "1/2", "1", "3/2", "1", "4/3", "4/3"]

    @pytest.mark.parametrize("spec,digest", [
        (MMAX_SPEC, "7d7b14ca70ceb4a67198e308f79a0b6f62475d85bfcce7a03d445eeb65284be0"),
        (MAVG_SPEC, "5de01cb66cdbd61476b02bf650788af1192ef9f3366d82686548f6465212881d")],
        ids=["mmax", "mavg"])
    def test_shipped_figure_files_give_the_pinned_series(self, spec, digest, capsys):
        # the paper's two series from the shipped files, the same bytes CI pins
        code, out, _ = run_cli(["run", spec, DEMOS / "traces/fig.trace", "--finite"],
                               capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_lasso_mode_appends_limits(self, workdir, capsys):
        code, out, _ = run_cli(["run", workdir / "mmax.mspec",
                                workdir / "fig.lasso", "--lasso"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[-2] == "limsup,exact,2"
        assert lines[-1] == "liminf,exact,2"

    def test_shipped_lassos_give_the_pinned_limits(self, capsys, monkeypatch):
        # both shipped machines on both shipped lassos, the same bytes CI pins
        monkeypatch.chdir(DEMOS.parent)
        out = ""
        for spec in sorted(DEMOS.glob("machines/*.mspec")):
            for lasso in ("fig", "periodic"):
                code, text, _ = run_cli(["run", spec.relative_to(DEMOS.parent),
                                         f"demos/traces/{lasso}.lasso", "--lasso"], capsys)
                assert code == 0
                out += text
        assert hashlib.sha256(out.encode()).hexdigest() == \
            "de572eb6db5677d8e7295ed9b307f1fa0852b3c57ce4c9ff95749765782ac256"

    def test_tuple_output_machine_gets_a_product_domain(self, capsys, tmp_path):
        # a rendered k-pair machine names no domain; its tuple outputs need prod:natinf:2
        machine, trace = tmp_path / "kpair2.mspec", tmp_path / "kpair2.lasso"
        machine.write_text(mc.render_machine(mc.build_kpair_monitor(2)))
        trace.write_text("req1 other ack1 ; other\n")
        code, out, _ = run_cli(["run", machine, trace, "--lasso"], capsys)
        assert code == 0
        assert out.splitlines()[-3:] == ["6,6,(2,0)", "limsup,exact,(2,0)",
                                         "liminf,exact,(2,0)"]
        assert out == run_cli(["run", machine, trace, "--lasso",
                               "--domain", "prod:natinf:2"], capsys)[1]

    def test_budget_flags_respected(self, workdir, capsys, tmp_path):
        # a pending-forever lasso diverges; a tiny budget is enough to see it
        path = tmp_path / "pending.lasso"
        path.write_text("req ; other\n")
        code, out, _ = run_cli(["--budget-iters", "16", "run", workdir / "mmax.mspec",
                                path, "--lasso"], capsys)
        assert code == 0
        assert out.splitlines()[-2] == "limsup,diverged-to-top,inf"

    def test_unroll_zero_shows_the_stem_only(self, workdir, capsys):
        code, out, _ = run_cli(["run", workdir / "mmax.mspec", workdir / "fig.lasso",
                                "--lasso", "--unroll", "0"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[:-2] == FIG1_CSV  # the 8 stem events and the empty prefix
        assert lines[-2:] == ["limsup,exact,2", "liminf,exact,2"]

    @pytest.mark.parametrize("mode,trace", [("--finite", "fig.trace"),
                                            ("--lasso", "fig.lasso")])
    def test_value_outside_the_domain_exits_2(self, workdir, mode, trace, capsys):
        # Mmax counts in natinf; read in Bt its first verdict is already foreign
        code, out, err = run_cli(["run", workdir / "mmax.mspec", workdir / trace, mode,
                                  "--domain", "Bt"], capsys)
        assert code == 2
        assert out == ""
        assert err.splitlines() == ["error: value '0' is not in domain Bt"]

    @pytest.mark.parametrize("machine,options,events,verdicts,error", [
        (MMAX_TEXT, ["--domain", "Bt"], "req\nack\n", [], "value '0' is not in domain Bt"),
        (COUNTDOWN_TEXT, [], "a\na\na\n", ["0"], "value '-1' is not in domain natinf"),
    ], ids=["mmax-in-Bt", "countdown"])
    def test_streaming_value_outside_the_domain_exits_2(self, machine, options, events,
                                                        verdicts, error, tmp_path):
        # the events before the first foreign value keep their verdicts
        mspec = tmp_path / "m.mspec"
        mspec.write_text(machine)
        proc = subprocess.run(
            [sys.executable, "-m", "quantmon.cli", "run", str(mspec), "--stdin", *options],
            input=events, capture_output=True, text=True)
        assert proc.returncode == 2
        assert proc.stdout.splitlines() == verdicts
        assert proc.stderr.splitlines() == [f"error: {error}"]

    def test_missing_trace_exits_2_without_output(self, workdir, capsys):
        code, out, err = run_cli(["run", workdir / "mmax.mspec",
                                  workdir / "nope.trace", "--finite"], capsys)
        assert code == 2
        assert out == ""
        assert "nope.trace" in err

    def test_output_file_and_determinism(self, workdir, capsys, tmp_path):
        target = tmp_path / "a.csv"
        code, _, _ = run_cli(["run", workdir / "mmax.mspec", workdir / "fig.trace",
                              "--finite", "-o", target], capsys)
        assert code == 0
        first = target.read_bytes()
        run_cli(["run", workdir / "mmax.mspec", workdir / "fig.trace",
                 "--finite", "-o", target], capsys)
        assert target.read_bytes() == first

    def test_streaming_mode(self, workdir):
        proc = subprocess.run(
            [sys.executable, "-m", "quantmon.cli", "run",
             str(workdir / "mmax.mspec"), "--stdin"],
            input="req\nack\nreq\nother\nack\n", capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.split() == ["0", "1", "1", "1", "2"]

    def test_streaming_unknown_symbol_exits_2(self):
        mspec = DEMOS / "machines/mmax.mspec"
        proc = subprocess.run(
            [sys.executable, "-m", "quantmon.cli", "run", str(mspec), "--stdin"],
            input="req\nbogus\n", capture_output=True, text=True)
        assert proc.returncode == 2
        assert proc.stdout.splitlines() == ["0"]
        assert proc.stderr.splitlines() == [
            f"error: standard input line 2: symbol 'bogus' is outside machine {mspec}'s "
            "alphabet"]

    @pytest.mark.parametrize("events,answered,line", [
        (b"req\n\n# note\nack\n  \nbogus # x\nreq\n", 2, 6),
        (b"req\nack\n" * 5000 + b"# note\nbogus\n", 10000, 10002),  # past the first read
        (b"req\nack\nbogus", 2, 3),  # no newline after the last line
    ], ids=["comments", "later-read", "unterminated"])
    def test_streaming_unknown_symbol_names_its_line(self, events, answered, line):
        # lines are counted over the whole input, comment and blank ones too
        mspec = DEMOS / "machines/mmax.mspec"
        proc = subprocess.run(
            [sys.executable, "-m", "quantmon.cli", "run", str(mspec), "--stdin"],
            input=events, capture_output=True)
        assert proc.returncode == 2
        assert len(proc.stdout.decode().splitlines()) == answered
        assert proc.stderr.decode().splitlines() == [
            f"error: standard input line {line}: symbol 'bogus' is outside machine "
            f"{mspec}'s alphabet"]

    def test_closed_stdout_exits_141_quietly(self, tmp_path):
        # a reader that stops after one line, as ``| head -1`` does; the
        # events fill more than a pipe buffer, so the writer is still running
        events = tmp_path / "events.txt"
        events.write_text("req\nack\n" * 50000)
        with events.open() as stdin:
            proc = subprocess.Popen(
                [sys.executable, "-m", "quantmon.cli", "run",
                 str(DEMOS / "machines/mmax.mspec"), "--stdin"],
                stdin=stdin, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
            assert proc.stdout.readline() == b"0\n"
            proc.stdout.close()
            stderr = proc.stderr.read()
            proc.stderr.close()
            assert proc.wait(timeout=60) == 141
        assert stderr == b""

    def test_streaming_answers_each_event_before_the_next(self):
        # a producer that waits for each verdict before it sends the next
        # event gets every verdict: none is held back for more input
        with subprocess.Popen(
                [sys.executable, "-m", "quantmon.cli", "run", str(MMAX_SPEC), "--stdin"],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, bufsize=0) as proc:
            try:
                for event, verdict in zip(["req", "ack", "req", "other", "ack"],
                                          ["0", "1", "1", "1", "2"]):
                    proc.stdin.write(event.encode() + b"\n")
                    assert read_line_within(proc.stdout, 60) == verdict.encode() + b"\n"
                proc.stdin.close()
                assert proc.stdout.read() == b""
                assert proc.wait(timeout=60) == 0
            finally:
                proc.kill()

    def test_streaming_across_read_boundaries(self, boundary_stream):
        path, events = boundary_stream
        with path.open("rb") as stdin:
            proc = run_stdin(stdin)
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert proc.stdout.decode().splitlines() == stepped(events)

    def test_streaming_output_file_matches_stdout(self, boundary_stream, tmp_path):
        path, _ = boundary_stream
        target = tmp_path / "verdicts.txt"
        with path.open("rb") as stdin:
            to_stdout = run_stdin(stdin)
        with path.open("rb") as stdin:
            to_file = run_stdin(stdin, "-o", str(target))
        assert (to_file.returncode, to_file.stdout, to_file.stderr) == (0, b"", b"")
        assert target.read_bytes() == to_stdout.stdout

    def test_streaming_non_utf8_line_after_the_first_read(self, tmp_path):
        # a read boundary falls among the lines before the bad one: it keeps
        # its line number, counted over blank and comment lines, and every
        # earlier event keeps its verdict
        events = ["req", "ack", "other"] * 1000
        head = "\n# comment\n" + "\n".join(events) + "\n"
        path = tmp_path / "events.txt"
        path.write_bytes(head.encode() + b"req # caf\xe9\nack\n")
        assert len(head) > READ
        with path.open("rb") as stdin:
            proc = run_stdin(stdin)
        assert proc.returncode == 2
        assert proc.stdout.decode().splitlines() == stepped(events)
        assert proc.stderr.decode().splitlines() == [
            f"error: standard input line {len(events) + 3} is not UTF-8 text (byte 9)"]

    def test_streaming_crlf_lines(self):
        proc = run_stdin(b"req\r\nack\r\n")
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"0\n1\n", b"")

    def test_streaming_read_ending_on_a_newline(self):
        # the first read ends with the line "ack": the second starts a line,
        # and the line count goes on across the boundary
        head = b"req\n" + comment_to(READ - 8) + b"ack\n"
        assert len(head) == READ
        proc = run_stdin(head + b"req\nother\n\xff\nack\n")
        assert proc.returncode == 2
        assert proc.stdout.decode().splitlines() == stepped(["req", "ack", "req", "other"])
        assert proc.stderr.decode().splitlines() == [
            "error: standard input line 6 is not UTF-8 text (byte 0)"]

    @pytest.mark.parametrize("data,events,line", [
        # the first read ends inside "other"; the bad line follows it and
        # two good lines of the second read
        ((b"req\nack\n" * 100 + comment_to(READ - 803), b"oth",
          b"er\nreq\nack\nreq # caf\xe9\nack\n"), ["req", "ack"] * 100 + ["other", "req", "ack"],
         205),
        # the bad line itself is carried over, its bad byte the last of the
        # first read: the offset counts from its start in that read
        ((b"req\nack\n" * 100 + comment_to(READ - 810), b"req # caf\xe9",
          b" more\nack\n"), ["req", "ack"] * 100, 202),
    ], ids=["after-a-carried-line", "carried-bad-line"])
    def test_streaming_non_utf8_line_across_reads(self, data, events, line):
        first, carried, rest = data
        assert len(first + carried) == READ
        proc = run_stdin(first + carried + rest)
        assert proc.returncode == 2
        assert proc.stdout.decode().splitlines() == stepped(events)
        assert proc.stderr.decode().splitlines() == [
            f"error: standard input line {line} is not UTF-8 text (byte 9)"]

    def test_streaming_mavg_across_read_boundaries(self, boundary_stream):
        # a random stream sends Mavg to its sink (inf) within a few events
        path, events = boundary_stream
        with path.open("rb") as stdin:
            proc = run_stdin(stdin, spec=MAVG_SPEC)
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert proc.stdout.decode().splitlines() == stepped(events, MAVG_SPEC)

    def test_streaming_fraction_verdicts_across_read_boundaries(self):
        # well-formed requests keep Mavg off its sink: p/q verdicts throughout
        r = random.Random(7)
        events = [e for _ in range(2000)
                  for e in ["req"] + ["other"] * r.randrange(4) + ["ack"]]
        data = ("\n".join(events) + "\n").encode()
        assert len(data) > 3 * READ
        proc = run_stdin(data, spec=MAVG_SPEC)
        assert (proc.returncode, proc.stderr) == (0, b"")
        verdicts = proc.stdout.decode().splitlines()
        assert verdicts == stepped(events, MAVG_SPEC)
        assert sum("/" in v for v in verdicts) > len(events) // 2

    def test_streaming_repeated_verdict_printed_for_every_event(self):
        # one value over more than three reads, after the first changes
        events = ["req", "ack"] + ["other"] * (4 * READ // 6)
        proc = run_stdin(("\n".join(events) + "\n").encode())
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert proc.stdout.decode().splitlines() == ["0"] + ["1"] * (len(events) - 1)

    def test_streaming_renders_once_per_new_value_object(self, capsys, monkeypatch,
                                                         tmp_path):
        # an idle event writes no register of Mavg, so its step keeps the
        # value object and its verdict is not rendered again
        events = "req other ack other other req other ack".split()
        source = tmp_path / "events.txt"
        source.write_text("\n".join(events) + "\n")
        machine = mc.load_machine(MAVG_SPEC.read_text())
        expected = [dom.render_value(v)
                    for v in verdict_sequence(mc.generated_verdict(machine), events)[1:]]
        run = mc.MachineRun(machine)
        values = [run.value] + [run.step(e) for e in events]
        changes = sum(a is not b for a, b in zip(values, values[1:]))
        render, rendered = dom.render_value, []
        monkeypatch.setattr(dom, "render_value", lambda v: rendered.append(v) or render(v))
        monkeypatch.chdir(DEMOS.parent)
        with source.open("rb") as stdin:
            monkeypatch.setattr(sys, "stdin", stdin)
            assert main(["run", "demos/machines/mavg.mspec", "--stdin"]) == 0
        assert capsys.readouterr().out == "\n".join(expected) + "\n"
        assert len(rendered) == changes == 6

    @pytest.mark.parametrize("events,verdicts,error", [
        (b"req\n\xff\nack\n", ["0"], "standard input line 2 is not UTF-8 text (byte 0)"),
        (b"req\nack\n# \xc3\x28\nreq\n", ["0", "1"],
         "standard input line 3 is not UTF-8 text (byte 2)"),
    ], ids=["lone-byte", "bad-sequence-in-comment"])
    def test_streaming_non_utf8_line_exits_2(self, events, verdicts, error):
        # the lines before the bad one get their verdicts; a surrogate-escaped
        # symbol used to reach the machine and be named as outside its alphabet
        proc = subprocess.run(
            [sys.executable, "-m", "quantmon.cli", "run",
             str(DEMOS / "machines/mmax.mspec"), "--stdin"],
            input=events, capture_output=True)
        assert proc.returncode == 2
        assert proc.stdout.decode().splitlines() == verdicts
        assert proc.stderr.decode().splitlines() == [f"error: {error}"]


class TestCollector:
    def test_in_process_main_keeps_the_freeze_count(self, capsys):
        before = gc.get_freeze_count()
        assert main(FIG_RUN) == 0
        assert gc.get_freeze_count() == before

    def test_program_main_freezes_the_imported_objects(self):
        # as the console script calls it: no arguments, sys.argv set
        code = ("import gc, sys\n"
                "from quantmon import cli\n"
                f"sys.argv = ['quantmon', *{FIG_RUN!r}]\n"
                "code = cli.main()\n"
                "print(gc.get_freeze_count(), file=sys.stderr)\n"
                "sys.exit(code)\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.splitlines() == FIG1_CSV
        assert int(proc.stderr) > 0


class TestEval:
    def test_mrt(self, workdir, capsys):
        code, out, _ = run_cli(["eval", "mrt", workdir / "periodic.lasso"], capsys)
        assert code == 0 and out.strip() == "1"

    def test_art(self, workdir, capsys):
        code, out, _ = run_cli(["eval", "art", workdir / "periodic.lasso"], capsys)
        assert code == 0 and out.strip() == "1"

    def test_energy(self, workdir, capsys):
        code, out, _ = run_cli(["eval", f"energy:{workdir / 'energy.waut'}",
                                workdir / "ab.lasso"], capsys)
        assert code == 0 and out.strip() == "3"

    def test_energy_long_surplus_then_drain(self, workdir, capsys, tmp_path):
        path = tmp_path / "drain.lasso"
        path.write_text("b " * 5000 + "; a\n")
        code, out, _ = run_cli(["eval", f"energy:{workdir / 'energy.waut'}", path], capsys)
        assert code == 0 and out.strip() == "inf"

    def test_energy_agrees_with_eval_energy_on_a_suite(self, workdir, capsys, tmp_path):
        A = qp.load_weighted_automaton((workdir / "energy.waut").read_text())
        path = tmp_path / "t.lasso"
        for t in all_lassos(A.alphabet, 2, 3):
            path.write_text(t.render() + "\n")
            code, out, _ = run_cli(["eval", f"energy:{workdir / 'energy.waut'}", path],
                                   capsys)
            assert code == 0 and out.strip() == dom.render_value(qp.eval_energy(A, t))

    def test_discounted(self, workdir, capsys):
        code, out, _ = run_cli(["eval", f"disc-safe:{workdir / 'never_b.aut'}",
                                workdir / "ab.lasso"], capsys)
        assert code == 0 and out.strip() == "3/4"

    def test_kpair_selector(self, workdir, capsys, tmp_path):
        path = tmp_path / "two.lasso"
        path.write_text("req1 ack1 req2 other ack2 ; other\n")
        code, out, _ = run_cli(["eval", "kmrt:2", path], capsys)
        assert code == 0 and out.strip() == "(1,2)"

    def test_discounted_cosafety(self, capsys):
        code, out, _ = run_cli(["eval", f"disc-cosafe:{DEMOS / 'automata/eventually_a.aut'}",
                                DEMOS / "traces/ab.lasso"], capsys)
        assert code == 0 and out.strip() == "1/2"

    def test_bad_selector(self, workdir, capsys):
        code, _, err = run_cli(["eval", "nosuch", workdir / "ab.lasso"], capsys)
        assert code == 2 and "selector" in err


class TestCompare:
    def test_machine_vs_constant(self, workdir, capsys):
        code, out, _ = run_cli(["compare", f"machine:{workdir / 'mmax.mspec'}",
                                "const:natinf:0", "--suite", "exhaustive:1:2"],
                               capsys)
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        assert rows[-1]["summary"] == "more-precise"
        assert all("relation" in r for r in rows[:-1])

    def test_matches_library_call(self, workdir, capsys):
        from quantmon import precision as pr
        from quantmon.boolprop import Side
        from quantmon.verdict import constant_verdict
        from quantmon import domain as dom
        code, out, _ = run_cli(["compare", f"machine:{workdir / 'mmax.mspec'}",
                                "const:natinf:0", "--suite", "exhaustive:1:2"],
                               capsys)
        machine = mc.load_machine((workdir / "mmax.mspec").read_text(),
                                  output_domain=dom.NATINF)
        report = pr.compare(mc.generated_verdict(machine),
                            constant_verdict(dom.NATINF, 0),
                            pr.exhaustive_suite(machine.alphabet, 1, 2), Side.BELOW)
        expected_summary = report.relation.value
        assert json.loads(out.splitlines()[-1])["summary"] == expected_summary


    def test_self_comparison_prints_both_limits(self, workdir, capsys):
        machine = f"machine:{workdir / 'mmax.mspec'}"
        for argv, name in ((["art", "art"], "art"), ([machine, machine], machine)):
            code, out, _ = run_cli(["compare", *argv, "--suite", "exhaustive:0:1"], capsys)
            assert code == 0
            rows = [json.loads(line) for line in out.splitlines()[:-1]]
            assert len(rows) == 3
            assert all(set(r) == {"trace", f"limit_{name}#1", f"limit_{name}#2", "relation"}
                       for r in rows)

    def test_const_selector_names_product_domain(self):
        verdict, alphabet = _verdict_for("const:prod:natinf:2:(0,0)")
        assert alphabet is None
        assert verdict.codomain == dom.product(dom.NATINF, 2)
        assert verdict.stepper(None).value == (0, 0)


    def test_art_selector_gives_the_pinned_report(self, capsys, monkeypatch):
        # the same report, byte for byte, as the packaging check in CI
        monkeypatch.chdir(DEMOS.parent)
        code, out, _ = run_cli(["compare", "machine:demos/machines/mavg.mspec", "art",
                                "--suite", "exhaustive:2:3"], capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == \
            "63914007ec251b59a1d7996257f8833e19cd30bd566a3d065a0bdec4a57aa54b"

    def test_mrt_selector_gives_the_pinned_report(self, capsys, monkeypatch):
        # the same report, byte for byte, as the packaging check in CI
        monkeypatch.chdir(DEMOS.parent)
        code, out, _ = run_cli(["compare", "machine:demos/machines/mmax.mspec", "mrt",
                                "--suite", "exhaustive:2:3"], capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == \
            "6938e0654f318f5b0810951e249bdce95f87974c76430351e74f5a643aefb562"


class TestInputErrors:
    """Bad input ends in exit 2 with a one-line error and no output."""

    @pytest.fixture(scope="class")
    def bad(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("bad")
        head = "registers: x\ninstruction-set: counter\nstates: q\n"
        (root / "no-initial.mspec").write_text(
            head + "initial:\nedge: q a [true] -> q\noutput: q = 0\n")
        (root / "no-edges.mspec").write_text(head + "initial: q\noutput: q = 0\n")
        (root / "no-initial.waut").write_text(
            "alphabet: a b\nstates: q\ninitial:\nq a -> q -3\nq b -> q 1\n")
        (root / "duplicate.waut").write_text(
            "alphabet: a b\nstates: q\ninitial: q\nq a -> q -3\nq b -> q 1\nq a -> q 5\n")
        (root / "foreign.waut").write_text(
            "alphabet: a b\nstates: q\ninitial: q\nq a -> q -3\nq b -> q 1\nq c -> q 7\n")
        (root / "empty.suite").write_text("# no lassos\n")
        mmax = (DEMOS / "machines/mmax.mspec").read_text()
        (root / "second-output.mspec").write_text(mmax + "output: idle = x\n")
        (root / "unknown-state-output.mspec").write_text(mmax + "output: nowhere = x\n")
        (root / "latin1.trace").write_bytes(b"req \xff ack\n")
        (root / "latin1.mspec").write_bytes(mmax.encode() + b"# \xff\n")
        (root / "ab.mspec").write_text(
            "registers: x\ninstruction-set: counter\nstates: q\ninitial: q\n"
            "edge: q a [true] -> q\nedge: q b [true] -> q\noutput: q = 0\n")
        return root

    @pytest.mark.parametrize("argv", [
        ["run", "{bad}/no-initial.mspec", "{work}/fig.trace", "--finite"],
        ["run", "{bad}/no-edges.mspec", "{work}/fig.trace", "--finite"],
        ["run", "{bad}/second-output.mspec", "{work}/fig.trace", "--finite"],
        ["run", "{bad}/unknown-state-output.mspec", "{work}/fig.trace", "--finite"],
        ["eval", "energy:{bad}/no-initial.waut", "{work}/ab.lasso"],
        ["eval", "energy:{bad}/duplicate.waut", "{work}/ab.lasso"],
        ["eval", "energy:{bad}/foreign.waut", "{work}/ab.lasso"],
        ["eval", "kmrt:x", "{work}/periodic.lasso"],
        ["eval", "kmrt:0", "{work}/periodic.lasso"],
        ["compare", "machine:{work}/mmax.mspec", "mrt", "--suite", "exhaustive:x:1"],
        ["compare", "machine:{work}/mmax.mspec", "mrt", "--suite", "exhaustive:1"],
        ["compare", "machine:{work}/mmax.mspec", "mrt", "--suite", "sample:abc"],
        ["compare", "machine:{work}/mmax.mspec", "mrt", "--suite", "file:{bad}/empty.suite"],
        ["compare", "machine:{work}/mmax.mspec", "const:natinf:abc",
         "--suite", "exhaustive:1:1"],
        ["--confirm-window", "1", "compare", "machine:{work}/mmax.mspec", "mrt",
         "--suite", "exhaustive:1:1"],
        ["--epsilon", "abc", "compare", "machine:{work}/mmax.mspec", "mrt",
         "--suite", "exhaustive:1:1"],
        ["--epsilon", "1/0", "run", "{work}/mmax.mspec", "{work}/fig.lasso", "--lasso"],
        ["--epsilon", "-1", "compare", "mrt", "mrt", "--suite", "exhaustive:1:1"],
        ["--budget-iters", "abc", "compare", "machine:{work}/mmax.mspec", "mrt",
         "--suite", "exhaustive:1:1"],
        ["run", "{work}/mmax.mspec", "{work}/fig.lasso", "--lasso", "--unroll", "x"],
        ["run", "{work}/mmax.mspec", "{work}/fig.lasso", "--lasso", "--unroll", "-2"],
        ["run", "{work}/mmax.mspec", "{work}/fig.trace", "--finite", "--unroll", "7"],
        ["run", "{work}/mmax.mspec", "{work}/fig.trace", "--unroll", "7"],
        ["run", "{work}/mmax.mspec", "--stdin", "--unroll", "7"],
        ["compare", "machine:{work}/mmax.mspec", "mrt", "--suite", "exhaustive:1:1",
         "--side", "sideways"],
        ["run", "{work}/mmax.mspec"],
        ["run", "{work}/mmax.mspec", "{work}/fig.trace", "--stdin"],
        ["run", "{work}/mmax.mspec", "--stdin", "-o", "{bad}/no-dir/verdicts.txt"],
        ["run", "{work}/mmax.mspec", "{work}/fig.trace", "--finite",
         "-o", "{bad}/no-dir/fig1.csv"],
        ["demo", "fig1"],
        ["classify"],
        ["classify", "{work}/never_b.aut", "--suite", "exhaustive:1:0"],
        ["run", "{work}/mmax.mspec", "{bad}/latin1.trace"],
        ["run", "{bad}/latin1.mspec", "{work}/fig.trace", "--finite"],
        ["compare", "mrt", "mrt", "--suite", "file:{bad}/latin1.trace"],
        ["compare", "machine:{bad}/ab.mspec", "mrt", "--suite", "exhaustive:1:1"],
        ["compare", "mrt", "machine:{bad}/ab.mspec", "--suite", "exhaustive:1:1"],
        [],
    ], ids=lambda argv: " ".join(a.split("}/")[-1] for a in argv))
    def test_exits_2_with_one_line_error(self, workdir, bad, argv, capsys):
        args = [a.format(work=workdir, bad=bad) for a in argv]
        code, out, err = run_cli(args, capsys)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error:")

    @pytest.mark.parametrize("argv,error", [
        (["compare", "foo", "mrt", "--suite", "exhaustive:1:1"],
         "unknown verdict selector 'foo'"),
        (["compare", "mrt", "mrt", "--suite", "bogus:1"], "unknown suite spec 'bogus:1'"),
        (["compare", "const:natinf:0", "const:natinf:1", "--suite", "exhaustive:1:1"],
         "at least one verdict selector must fix an alphabet"),
        (["classify", "--obligation", "{work}/never_b.aut"],
         "obligation pair must be 'safety.aut:cosafety.aut', got '{work}/never_b.aut'"),
        # both inputs of classify: the automaton used to be dropped in silence
        (["classify", "{work}/never_b.aut", "--obligation",
          "{work}/never_b.aut:{work}/eventually_a.aut"],
         "classify needs either an automaton file or --obligation pairs"),
        # counted before any lasso is made: about 8.7e8 lassos used to run
        # until killed
        (["compare", "mrt", "art", "--suite", "exhaustive:9:9"],
         "suite exhaustive:9:9 asks for 871637052 lassos, more than the 1000000 a "
         "suite may hold"),
        (["compare", "mrt", "art", "--suite", "exhaustive:100:1"],
         "suite exhaustive:100:1 asks for at least "
         f"{(3 ** 65 - 1) // 2 * 3} lassos, more than the 1000000 a suite may hold"),
        (["compare", "mrt", "art", "--suite", "sample:1000001"],
         "suite sample:1000001 asks for 1000001 lassos, more than the 1000000 a "
         "suite may hold"),
    ], ids=["verdict", "suite", "alphabet", "obligation", "classify-both", "suite-bound",
            "suite-bound-cut", "sample-bound"])
    def test_input_check_names_the_fault(self, workdir, argv, error, capsys):
        code, out, err = run_cli([a.format(work=workdir) for a in argv], capsys)
        assert code == 2
        assert out == ""
        assert err == f"error: {error.format(work=workdir)}\n"

    @pytest.mark.parametrize("name,text,argv,error", [
        ("states.mspec", MMAX_SPEC.read_text().replace("states:", "states: idle\nstates:"),
         ["run", "{file}", "{work}/fig.trace", "--finite"], "line 4: second 'states:' line"),
        ("initial.aut", (DEMOS / "automata/never_b.aut").read_text().replace(
            "initial: ok", "initial: ok\ninitial: bad"),
         ["classify", "{file}"], "line 4: second 'initial:' line"),
        ("initial.waut", "alphabet: a b\nstates: q r\ninitial: q\ninitial: r\n"
         "q a -> q -3\nq b -> q 1\nr a -> r 1\nr b -> r 1\n",
         ["eval", "energy:{file}", "{work}/ab.lasso"], "line 4: second 'initial:' line"),
    ], ids=["mspec", "aut", "waut"])
    def test_second_header_line_is_named(self, workdir, tmp_path, name, text, argv, error,
                                         capsys):
        # the last of two header lines used to win, while a second output
        # line or transition was rejected
        path = tmp_path / name
        path.write_text(text)
        code, out, err = run_cli([a.format(file=path, work=workdir) for a in argv], capsys)
        assert (code, out) == (2, "")
        assert err.splitlines() == [f"error: {error}"]

    def test_obligation_pair_over_different_alphabets(self, tmp_path, capsys):
        # a safety automaton over a b c paired with the demo co-safety
        # automaton over a b used to end in a KeyError traceback
        never_b = tmp_path / "never_b_abc.aut"
        never_b.write_text(bp.render_automaton(
            bp.safety_never(Alphabet(("a", "b", "c")), "b")))
        eventually_a = DEMOS / "automata/eventually_a.aut"
        code, out, err = run_cli(["classify", "--obligation", f"{never_b}:{eventually_a}"],
                                 capsys)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error:")
        assert "share an alphabet" in err

    def test_non_utf8_file_names_the_byte(self, bad, capsys):
        code, out, err = run_cli(["run", DEMOS / "machines/mmax.mspec",
                                  bad / "latin1.trace"], capsys)
        assert (code, out) == (2, "")
        assert err.splitlines() == [
            f"error: cannot read {bad / 'latin1.trace'}: not UTF-8 text (byte 4)"]

    def test_compare_names_both_alphabets(self, bad, capsys):
        # the mrt stepper reads a and b as other, so this used to report
        # equally-precise over the machine's alphabet
        ab = f"machine:{bad / 'ab.mspec'}"
        code, out, err = run_cli(["compare", ab, "mrt", "--suite", "exhaustive:1:1"],
                                 capsys)
        assert (code, out) == (2, "")
        assert err.splitlines() == [f"error: {ab} reads a b but mrt reads req ack other: "
                                    "the verdicts need one alphabet"]

    def test_compare_keeps_the_first_order_of_one_symbol_set(self, tmp_path, capsys):
        # a machine file's alphabet is in the order its edges first read
        # each symbol; over mrt's symbols in another order the suite follows it
        lines = (DEMOS / "machines/mmax.mspec").read_text().splitlines()
        other = lines.pop(lines.index("edge: idle other [true] -> idle"))
        lines.insert(lines.index("edge: idle req [true] / x:=0 -> pending"), other)
        spec = tmp_path / "other-first.mspec"
        spec.write_text("\n".join(lines) + "\n")
        code, out, _ = run_cli(["compare", f"machine:{spec}", "mrt", "--suite",
                                "exhaustive:0:1"], capsys)
        assert code == 0
        assert [json.loads(line)["trace"] for line in out.splitlines()[:3]] == [
            "; other", "; req", "; ack"]

    def test_suite_file_error_names_its_line(self, tmp_path, capsys):
        # comment and blank lines count, as in machine and automaton files
        suite = tmp_path / "bad.suite"
        suite.write_text("# two lassos\n\nreq ; other\nreq ; bogus\n")
        code, out, err = run_cli(["compare", "mrt", "mrt", "--suite", f"file:{suite}"],
                                 capsys)
        assert (code, out) == (2, "")
        assert err.splitlines() == ["error: line 4: unknown token 'bogus' at position 2"]

    @pytest.mark.parametrize("option, value", [("--epsilon", "1/1000"),
                                               ("--confirm-window", "3")],
                             ids=["--epsilon", "--confirm-window"])
    def test_unknown_global_option_is_named(self, option, value, capsys):
        # argparse alone reads the value after an unknown global option as
        # the subcommand and names the value instead of the option
        code, out, err = run_cli([option, value, "compare", "mrt", "mrt",
                                  "--suite", "exhaustive:1:1"], capsys)
        assert (code, out) == (2, "")
        assert err.splitlines() == [f"error: unrecognized arguments: {option}"]

    def test_global_options_by_prefix_and_with_equals(self, capsys):
        code, out, _ = run_cli(["--see", "7", "--budget-iters=64", "compare", "mrt", "mrt",
                                "--suite", "exhaustive:1:1"], capsys)
        assert code == 0 and out == run_cli(["compare", "mrt", "mrt", "--suite",
                                             "exhaustive:1:1"], capsys)[1]

    def test_global_option_defaults_are_the_default_budget(self):
        args = _build_parser().parse_args(FIG_RUN)
        assert LimitBudget(args.budget_iters) == DEFAULT_BUDGET

    @pytest.mark.parametrize("argv", [["-h"], ["--he"], ["--seed", "3", "--help"]])
    def test_help_before_the_subcommand(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 0
        assert capsys.readouterr().out.startswith("usage: quantmon")

    def test_removed_kind_and_value_are_rejected(self, tmp_path, capsys):
        # finite-membership was Buchi under a second name; no domain holds top
        aut = tmp_path / "finite.aut"
        aut.write_text((DEMOS / "automata/inf_often_a.aut").read_text()
                       .replace("accept-kind: buchi", "accept-kind: finite-membership"))
        assert "finite-membership" in aut.read_text()
        for argv in (["classify", aut],
                     ["compare", "machine:" + str(DEMOS / "machines/mmax.mspec"),
                      "const:Bt:top", "--suite", "exhaustive:1:1"]):
            code, out, err = run_cli(argv, capsys)
            assert (code, out) == (2, "")
            assert len(err.splitlines()) == 1 and err.startswith("error: ")


class TestClassify:
    def test_safety(self, workdir, capsys):
        code, out, _ = run_cli(["classify", workdir / "never_b.aut"], capsys)
        assert code == 0
        assert "classically-monitorable: True" in out
        assert "universal=pass" in out

    def test_buchi(self, workdir, capsys):
        code, out, _ = run_cli(["classify", workdir / "inf_a.aut"], capsys)
        assert code == 0
        assert "classically-monitorable: False" in out
        assert "response-monitor" in out

    def test_existential_modality(self, capsys):
        # the existential check runs when it is asked for, and decides the
        # exit code
        code, out, _ = run_cli(["classify", DEMOS / "automata/never_b.aut",
                                "--modality", "existential"], capsys)
        assert code == 0
        assert out.splitlines()[-1] == ("safety-monitor: side=below approximate=pass "
                                        "universal=pass existential=pass")
        _, out, _ = run_cli(["classify", DEMOS / "automata/never_b.aut"], capsys)
        assert "existential" not in out

    def test_shipped_automata_give_the_pinned_reports(self, capsys, monkeypatch):
        # both modalities over the shipped automata, the same bytes CI pins
        monkeypatch.chdir(DEMOS.parent)
        out = ""
        for automaton in sorted(DEMOS.glob("automata/*.aut")):
            path = automaton.relative_to(DEMOS.parent)
            for modality in ([], ["--modality", "existential"]):
                code, text, _ = run_cli(["classify", path, *modality], capsys)
                assert code == 0
                out += text
        assert hashlib.sha256(out.encode()).hexdigest() == \
            "24af042c311dbe859cbc6e1243412809f8091b0a48f7ece9888167cecb4befb0"

    def test_obligation_switch_bound(self, workdir, capsys):
        pair = f"{workdir / 'never_b.aut'}:{workdir / 'eventually_a.aut'}"
        code, out, _ = run_cli(["classify", "--obligation", pair, pair], capsys)
        assert code == 0
        assert "bound=4" in out and "ok" in out

    def test_repeated_obligation_flags_keep_every_pair(self, workdir, capsys):
        # the last flag used to win, printing k=1
        pair = f"{workdir / 'never_b.aut'}:{workdir / 'eventually_a.aut'}"
        code, out, _ = run_cli(["classify", "--obligation", pair, "--obligation", pair],
                               capsys)
        assert code == 0
        assert out.splitlines()[:2] == ["obligation k=2", "switches: worst=2 bound=4 ok"]

    def test_suite_counts_and_the_inclusive_bound(self):
        # the closed forms against enumeration, and a count at the bound passes
        for k, u, v in ((1, 3, 2), (2, 2, 3), (3, 1, 4)):
            alphabet = Alphabet(tuple("abc"[:k]))
            assert _exhaustive_count(k, u, v) == (len(list(all_lassos(alphabet, u, v))), False)
        assert _exhaustive_count(1, 999_999, 1) == (1_000_000, False)
        _bounded("sample:1000000", 1_000_000)

    def test_obligation_honours_the_modality(self, capsys):
        pair = f"{DEMOS / 'automata/never_b.aut'}:{DEMOS / 'automata/eventually_a.aut'}"
        code, out, _ = run_cli(["classify", "--obligation", pair,
                                "--modality", "existential"], capsys)
        assert code == 0
        assert out.splitlines()[-1] == ("modality: side=below approximate=pass "
                                        "universal=pass existential=pass")


_CORE_MODULES = {"domain", "errors", "trace", "verdict"}
# the package modules each import loads in a fresh interpreter: machine and
# precision stand on the core alone, boolprop on machine, qprop on boolprop,
# and only cli.py loads them all
IMPORTED_MODULES = {
    "quantmon": _CORE_MODULES,
    "quantmon.machine": _CORE_MODULES | {"machine"},
    "quantmon.precision": _CORE_MODULES | {"precision"},
    "quantmon.boolprop": _CORE_MODULES | {"boolprop", "machine"},
    "quantmon.qprop": _CORE_MODULES | {"boolprop", "machine", "qprop"},
    "quantmon.cli": _CORE_MODULES | {"boolprop", "cli", "machine", "precision", "qprop"},
}


@pytest.mark.parametrize("module", IMPORTED_MODULES)
def test_imported_modules(module):
    probe = (f"import sys, {module}; "
             "print(*sorted(k for k in sys.modules if k.startswith('quantmon.')))")
    proc = subprocess.run([sys.executable, "-c", probe],
                          capture_output=True, text=True, timeout=60, check=True)
    assert set(proc.stdout.split()) == {f"quantmon.{m}" for m in IMPORTED_MODULES[module]}
