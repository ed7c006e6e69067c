import hashlib
import json
import pathlib
import subprocess
import sys

import pytest

from quantmon import boolprop as bp
from quantmon import machine as mc
from quantmon import domain as dom
from quantmon.cli import _build_parser, _verdict_for, main
from quantmon.trace import Alphabet
from quantmon.verdict import DEFAULT_BUDGET, LimitBudget


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
# its output -x+1 is 0 after one event and leaves natinf after two
COUNTDOWN_TEXT = ("registers: x\ninstruction-set: counter\nstates: q\ninitial: q\n"
                  "edge: q a / x:=x+1 -> q\noutput: q = -x+1\n")


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

    def test_lasso_mode_appends_limits(self, workdir, capsys):
        code, out, _ = run_cli(["run", workdir / "mmax.mspec",
                                workdir / "fig.lasso", "--lasso"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[-2] == "limsup,exact,2"
        assert lines[-1] == "liminf,exact,2"

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
        code, out, _ = run_cli(["--budget-iters", "16", "--confirm-window", "2",
                                "run", workdir / "mmax.mspec", path, "--lasso"],
                               capsys)
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
        mspec = pathlib.Path(__file__).resolve().parents[1] / "demos/machines/mmax.mspec"
        proc = subprocess.run(
            [sys.executable, "-m", "quantmon.cli", "run", str(mspec), "--stdin"],
            input="req\nbogus\n", capture_output=True, text=True)
        assert proc.returncode == 2
        assert proc.stdout.splitlines() == ["0"]
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith("error:") and "'bogus'" in proc.stderr


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
        ["compare", "machine:{work}/mmax.mspec", "mrt", "--suite", "exhaustive:1:1",
         "--side", "sideways"],
        ["run", "{work}/mmax.mspec"],
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

    def test_unknown_global_option_is_named(self, capsys):
        # argparse alone reads the value after an unknown global option as
        # the subcommand and names the value instead of the option
        code, out, err = run_cli(["--epsilon", "1/1000", "compare", "mrt", "mrt",
                                  "--suite", "exhaustive:1:1"], capsys)
        assert (code, out) == (2, "")
        assert err.splitlines() == ["error: unrecognized arguments: --epsilon"]

    def test_global_options_by_prefix_and_with_equals(self, capsys):
        code, out, _ = run_cli(["--see", "7", "--budget-iters=64", "compare", "mrt", "mrt",
                                "--suite", "exhaustive:1:1"], capsys)
        assert code == 0 and out == run_cli(["compare", "mrt", "mrt", "--suite",
                                             "exhaustive:1:1"], capsys)[1]

    def test_global_option_defaults_are_the_default_budget(self):
        args = _build_parser().parse_args(["demo", "fig1"])
        assert LimitBudget(args.budget_iters, args.confirm_window) == DEFAULT_BUDGET

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

    def test_obligation_switch_bound(self, workdir, capsys):
        pair = f"{workdir / 'never_b.aut'}:{workdir / 'eventually_a.aut'}"
        code, out, _ = run_cli(["classify", "--obligation", pair, pair], capsys)
        assert code == 0
        assert "bound=4" in out and "ok" in out

    def test_obligation_honours_the_modality(self, capsys):
        pair = f"{DEMOS / 'automata/never_b.aut'}:{DEMOS / 'automata/eventually_a.aut'}"
        code, out, _ = run_cli(["classify", "--obligation", pair,
                                "--modality", "existential"], capsys)
        assert code == 0
        assert out.splitlines()[-1] == ("modality: side=below approximate=pass "
                                        "universal=pass existential=pass")


class TestDemo:
    def test_fig1(self, capsys):
        code, out, _ = run_cli(["demo", "fig1"], capsys)
        assert code == 0 and out.splitlines() == FIG1_CSV

    def test_fig2(self, capsys):
        code, out, _ = run_cli(["demo", "fig2"], capsys)
        assert code == 0
        assert out.splitlines()[-1] == "8,8,4/3"

    def test_unknown_figure(self, capsys):
        code, _, err = run_cli(["demo", "fig9"], capsys)
        assert code == 2 and "unknown demo" in err
