"""Command-line front end.

Subcommands:

* ``run``      replay a machine over a trace file, emitting a verdict CSV;
* ``eval``     print a property's exact value on a lasso;
* ``compare``  precision-compare two verdicts over a suite (JSON lines);
* ``classify`` determination structure and monitor modality of an automaton.

Exit codes: 0 on success, 1 when a requested check fails, 2 on usage or
parse errors, 141 when standard output closes early.  All randomness is
seeded (default 42) so identical inputs produce byte-identical outputs.
"""

import argparse
import gc
import io
import os
import re
import sys

from . import boolprop as bp
from . import domain as dom
from . import machine as mc
from . import precision as pr
from . import qprop as qp
from .errors import InputError, MachineError, QuantmonError, TraceParseError
from .trace import parse_finite, parse_lasso
from .verdict import (DEFAULT_BUDGET, LimitBudget, Side, constant_verdict, count_switches,
                      eval_liminf, eval_limsup, verdict_csv_lines, verdict_sequence)


def _read(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise QuantmonError(f"cannot read {path}: {exc.strerror}")
    except UnicodeDecodeError as exc:
        raise InputError(f"cannot read {path}: not UTF-8 text (byte {exc.start})") from None


def _int(text, what, least):
    if not text.isdecimal() or int(text) < least:
        raise InputError(f"{what} must be an integer >= {least}, got {text!r}")
    return int(text)


def _create(path):
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise QuantmonError(f"cannot write {path}: {exc.strerror}")


def _emit(lines, out_path):
    text = "\n".join(lines) + "\n"
    if out_path:
        with _create(out_path) as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_machine_file(path, domain_name=None):
    domain = dom.parse_domain(domain_name) if domain_name else None
    return mc.load_machine(_read(path), output_domain=domain, name=path)


def _property_for(selector):
    if selector == "mrt":
        return qp.mrt_property()
    if selector == "art":
        return qp.art_property()
    if selector.startswith("kmrt:"):
        return qp.kpair_property(_int(selector.split(":", 1)[1], "kmrt pair count", 1))
    if selector.startswith("disc-safe:"):
        return qp.discounted_safety_property(bp.load_automaton(_read(selector.split(":", 1)[1])))
    if selector.startswith("disc-cosafe:"):
        return qp.discounted_cosafety_property(bp.load_automaton(_read(selector.split(":", 1)[1])))
    if selector.startswith("energy:"):
        return qp.energy_property(qp.load_weighted_automaton(_read(selector.split(":", 1)[1])))
    raise QuantmonError(f"unknown property selector {selector!r}")


def _verdict_for(selector):
    """Returns (verdict, alphabet-or-None)."""
    if selector == "mrt":
        return qp.mrt_verdict(), qp.server_alphabet(1).alphabet
    if selector == "art":
        return qp.art_verdict(), qp.server_alphabet(1).alphabet
    if selector.startswith("machine:"):
        machine = _load_machine_file(selector.split(":", 1)[1])
        return mc.generated_verdict(machine), machine.alphabet
    if selector.startswith("const:"):
        # values never contain ':', domain names may (prod:natinf:2)
        domain_name, _, value_text = selector[len("const:"):].rpartition(":")
        domain = dom.parse_domain(domain_name)
        return constant_verdict(domain, dom.parse_value(value_text, domain)), None
    raise QuantmonError(f"unknown verdict selector {selector!r}")


def _suite_for(spec, alphabet, seed):
    if spec.startswith("exhaustive:"):
        u, _, v = spec[len("exhaustive:"):].partition(":")
        return pr.exhaustive_suite(alphabet, _int(u, "stem bound", 0), _int(v, "loop bound", 1))
    if spec.startswith("sample:"):
        return pr.sampled_suite(alphabet, _int(spec.split(":", 1)[1], "sample size", 1), seed)
    if spec.startswith("file:"):
        lassos = []
        for lineno, line in enumerate(_read(spec.split(":", 1)[1]).splitlines(), 1):
            try:
                if line.split("#", 1)[0].strip():
                    lassos.append(parse_lasso(line, alphabet))
            except TraceParseError as exc:
                raise TraceParseError(f"line {lineno}: {exc}", exc.position) from None
        return pr.LassoSuite(tuple(lassos), spec)
    raise QuantmonError(f"unknown suite spec {spec!r}")


_COMMENT = re.compile("#[^\n]*")


def _stream_verdicts(machine, out):
    """Write to ``out`` one verdict per non-blank, non-comment line of
    standard input.

    Each read takes what input is available, up to one buffer, and waits only
    when there is none.  Its complete lines, with the line a read before it
    left open, are decoded at once and split once; a line that is not UTF-8
    is named by its number over the whole input and the offset of its bad
    byte, after the lines before it are answered; so is a line whose symbol
    is outside the machine's alphabet, counted once its step has failed.  A
    verdict is checked and rendered only when its value is another object
    than the one before: runs repeat their value objects, as a machine run
    keeps its value object on a step whose arm has no output (one that
    cannot change the value), and equality would not do, since ``1 == True``
    while only ``True`` is boolean.  The verdicts of a read go out in one
    write and one flush before the next read, so none is held back while the
    monitor waits; the ``finally`` sends them also when a line fails."""
    step = mc.MachineRun(machine).step
    check, render = machine.output_domain.check, dom.render_value
    stdin = sys.stdin.fileno()
    lineno, pieces, more = 0, [], True  # pieces: the line in progress, per read
    last = shown = object()  # the last verdict object and its text
    while more:
        chunk = os.read(stdin, io.DEFAULT_BUFFER_SIZE)
        more = bool(chunk)
        end = chunk.rfind(b"\n") + 1
        if more and not end:
            pieces.append(chunk)  # a line longer than a read is joined once, at its end
            continue
        pieces.append(chunk[:end])
        block = b"".join(pieces)
        pieces = [chunk[end:]]
        try:
            text, bad = block.decode("utf-8"), None
        except UnicodeDecodeError as exc:  # bad: the byte's offset in its line
            good = block.rfind(b"\n", 0, exc.start) + 1
            text, bad = block[:good].decode("utf-8"), exc.start - good
        lines = _COMMENT.sub("", text).split("\n")
        lineno += len(lines) - 1  # the complete lines decoded, up to a bad one
        verdicts = []
        try:
            for token in map(str.strip, lines):
                if token:
                    value = step(token)
                    if value is not last:
                        last, shown = value, render(check(value))
                    verdicts.append(shown)
            if bad is not None:
                raise InputError(f"standard input line {lineno + 1} is not UTF-8 text "
                                 f"(byte {bad})")
        except MachineError as exc:  # the failed line is the next non-blank one
            failed = [i for i, token in enumerate(lines) if token.strip()][len(verdicts)]
            raise InputError(f"standard input line {lineno - len(lines) + failed + 2}: "
                             f"{exc}") from None
        finally:
            if verdicts:
                out.write("\n".join(verdicts) + "\n")
                out.flush()


def cmd_run(args):
    machine = _load_machine_file(args.machine, args.domain)
    if args.stdin:
        if args.output:
            with _create(args.output) as out:
                _stream_verdicts(machine, out)
        else:
            _stream_verdicts(machine, sys.stdout)
        return 0
    verdict = mc.generated_verdict(machine)
    text = _read(args.trace)
    if args.lasso:
        unroll = 3 if args.unroll is None else args.unroll
        if unroll < 0:
            raise InputError(f"--unroll must be an integer >= 0, got {unroll}")
        t = parse_lasso(text, machine.alphabet)
        budget = LimitBudget(args.budget_iters)
        window = t.prefix(len(t.stem) + unroll * len(t.loop))
        lines = verdict_csv_lines(verdict, window)
        up = eval_limsup(verdict, t, budget)
        lo = eval_liminf(verdict, t, budget)
        lines.append(f"limsup,{up.render()}")
        lines.append(f"liminf,{lo.render()}")
    else:
        s = parse_finite(text, machine.alphabet)
        lines = verdict_csv_lines(verdict, s)
    _emit(lines, args.output)
    return 0


def cmd_eval(args):
    prop = _property_for(args.property)
    t = parse_lasso(_read(args.trace), prop.alphabet)
    print(dom.render_value(prop.eval_lasso(t)))
    return 0


def cmd_compare(args):
    v1, a1 = _verdict_for(args.verdict1)
    v2, a2 = _verdict_for(args.verdict2)
    if a1 and a2 and set(a1) != set(a2):
        raise InputError(f"{args.verdict1} reads {' '.join(a1)} but {args.verdict2} "
                         f"reads {' '.join(a2)}: the verdicts need one alphabet")
    alphabet = a1 or a2
    if alphabet is None:
        raise QuantmonError("at least one verdict selector must fix an alphabet")
    suite = _suite_for(args.suite, alphabet, args.seed)
    side = Side(args.side)
    report = pr.compare(v1, v2, suite, side, LimitBudget(args.budget_iters))
    _emit(pr.report_jsonl(report, args.verdict1, args.verdict2), args.output)
    return 0


def cmd_classify(args):
    budget = LimitBudget(args.budget_iters)
    if args.obligation:
        pairs = []
        for spec in args.obligation:
            s_path, _, c_path = spec.partition(":")
            if not c_path:
                raise QuantmonError(f"obligation pair must be 'safety.aut:cosafety.aut', "
                                    f"got {spec!r}")
            pairs.append((bp.load_automaton(_read(s_path)),
                          bp.load_automaton(_read(c_path))))
        obligation = bp.ObligationList(tuple(pairs))
        monitor = bp.monitor_obligation(obligation)
        prop, label = obligation.membership, "modality"
        suite = _suite_for(args.suite, pairs[0][0].alphabet, args.seed)
        bound = 2 * obligation.k
        worst = 0
        for t in suite:
            seq = verdict_sequence(monitor, t.prefix(len(t.stem) + 4 * len(t.loop)))
            worst = max(worst, count_switches(seq))
        switches_ok = worst <= bound
        print(f"obligation k={obligation.k}")
        print(f"switches: worst={worst} bound={bound} {'ok' if switches_ok else 'VIOLATED'}")
    else:
        P = bp.load_automaton(_read(args.automaton))
        suite = _suite_for(args.suite, P.alphabet, args.seed)
        monitor = bp.canonical_monitor(P)
        prop, label = bp.characteristic_property(P), monitor.name
        switches_ok = True
        print(f"kind: {P.kind.value}")
        print(f"states: {len(P.states)}  pos-determining: {sorted(P.pos_states)}  "
              f"neg-determining: {sorted(P.neg_states)}")
        print(f"classically-monitorable: {bp.classically_monitorable(P)}")
    # the existential check extends every trace of up to 3 symbols
    prefix_len = 3 if args.modality == "existential" else None
    report = bp.classify_modality(monitor, prop, Side.BELOW, suite, budget=budget,
                                  existential_prefix_len=prefix_len)
    print(f"{label}: {report.summary()}")
    wanted_ok = getattr(report, f"{args.modality}_ok")
    return 0 if switches_ok and wanted_ok else 1


# the options before the subcommand, each taking one integer, and defaults
_GLOBAL_OPTIONS = {"--seed": 42, "--budget-iters": DEFAULT_BUDGET.max_loop_iterations}


def _check_global_options(argv):
    """Reject an unknown option before the subcommand by its name.  argparse
    would set it aside and read its value as the subcommand, so its own
    error would name the value instead."""
    args = iter(argv)
    for arg in args:
        name, eq, _ = arg.partition("=")
        if not name.startswith("-") or arg == "--":
            return  # the subcommand
        # argparse accepts prefixes of option names too
        known = [opt for opt in (*_GLOBAL_OPTIONS, "--help")
                 if len(name) > 2 and opt.startswith(name)]
        if name == "-h" or known == ["--help"]:
            return
        if not known:
            raise InputError(f"unrecognized arguments: {arg}")
        if not eq:
            next(args, None)


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors end like every other bad input:
    one ``error:`` line and exit 2.  Subparsers inherit the class."""

    def error(self, message):
        raise InputError(message)


def _build_parser():
    parser = _Parser(prog="quantmon", description="quantitative runtime monitoring")
    for option, default in _GLOBAL_OPTIONS.items():
        parser.add_argument(option, type=int, default=default)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="replay a machine over a trace")
    p.add_argument("machine")
    p.add_argument("trace", nargs="?")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--lasso", action="store_true")
    mode.add_argument("--finite", action="store_true")
    mode.add_argument("--stdin", action="store_true",
                      help="stream events from standard input, one token per line")
    p.add_argument("--unroll", type=int, default=None,
                   help="loop unrollings shown in lasso mode (default 3)")
    p.add_argument("--domain", default=None)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("eval", help="exact property value on a lasso")
    p.add_argument("property", help="mrt | art | kmrt:<k> | disc-safe:<file> | "
                                    "disc-cosafe:<file> | energy:<file>")
    p.add_argument("trace")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("compare", help="precision-compare two verdicts")
    p.add_argument("verdict1", help="machine:<file> | mrt | art | const:<domain>:<value>")
    p.add_argument("verdict2")
    p.add_argument("--suite", required=True,
                   help="exhaustive:<u>:<v> | sample:<n> | file:<path>")
    p.add_argument("--side", choices=("below", "above"), default="below")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("classify", help="determination and modality report")
    p.add_argument("automaton", nargs="?")
    p.add_argument("--obligation", nargs="+", default=None,
                   metavar="SAFETY.aut:COSAFETY.aut")
    p.add_argument("--suite", default="exhaustive:2:3")
    p.add_argument("--modality", choices=("universal", "existential", "approximate"),
                   default="universal")
    p.set_defaults(fn=cmd_classify)
    return parser


def main(argv=None):
    if argv is None:
        # the program: keep the collector, during the run and at exit, off
        # the objects that the imports made; a caller's own main(argv) keeps
        # its collector as it is
        gc.freeze()
    parser = _build_parser()
    try:
        _check_global_options(sys.argv[1:] if argv is None else argv)
        args = parser.parse_args(argv)
        if args.command == "run" and args.stdin == (args.trace is not None):
            parser.error("run needs either a trace file or --stdin")
        if args.command == "run" and args.unroll is not None and not args.lasso:
            parser.error("--unroll applies only to --lasso")
        if args.command == "classify" and not args.obligation and args.automaton is None:
            parser.error("classify needs an automaton file or --obligation pairs")
        return args.fn(args)
    except QuantmonError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader went away: point stdout at devnull so that the flush at
        # shutdown does not fail again, and exit as a writer killed by SIGPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
