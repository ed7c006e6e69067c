"""Command-line front end.

Subcommands:

* ``run``      replay a machine over a trace file, emitting a verdict CSV;
* ``eval``     print a property's exact value on a lasso;
* ``compare``  precision-compare two verdicts over a suite (JSON lines);
* ``classify`` determination structure and monitor modality of an automaton;
* ``demo``     emit the bundled response-time demonstration series.

Exit codes: 0 on success, 1 when a requested check fails, 2 on usage or
parse errors, 141 when standard output closes early.  All randomness is
seeded (default 42) so identical inputs produce byte-identical outputs.
"""

import argparse
import os
import sys

from . import boolprop as bp
from . import domain as dom
from . import machine as mc
from . import precision as pr
from . import qprop as qp
from .errors import InputError, QuantmonError, TraceParseError
from .trace import parse_finite, parse_lasso
from .verdict import (DEFAULT_BUDGET, LimitBudget, constant_verdict, count_switches,
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


def _budget(args):
    return LimitBudget(max_loop_iterations=args.budget_iters,
                       confirm_window=args.confirm_window)


def _emit(lines, out_path):
    text = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
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


def cmd_run(args):
    machine = _load_machine_file(args.machine, args.domain)
    verdict = mc.generated_verdict(machine)
    if args.stdin:
        run, check = mc.MachineRun(machine), machine.output_domain.check
        for lineno, raw in enumerate(sys.stdin.buffer, 1):
            try:
                token = raw.decode("utf-8").split("#", 1)[0].strip()
            except UnicodeDecodeError as exc:
                raise InputError(f"standard input line {lineno} is not UTF-8 text "
                                 f"(byte {exc.start})") from None
            if not token:
                continue
            sys.stdout.write(dom.render_value(check(run.step(token))) + "\n")
            sys.stdout.flush()
        return 0
    text = _read(args.trace)
    if args.lasso:
        if args.unroll < 0:
            raise InputError(f"--unroll must be an integer >= 0, got {args.unroll}")
        t = parse_lasso(text, machine.alphabet)
        budget = _budget(args)
        window = t.prefix(len(t.stem) + args.unroll * len(t.loop))
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
    side = bp.Side(args.side)
    report = pr.compare(v1, v2, suite, side, _budget(args))
    _emit(pr.report_jsonl(report, args.verdict1, args.verdict2), args.output)
    return 0


def cmd_classify(args):
    budget = _budget(args)
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
    report = bp.classify_modality(monitor, prop, bp.Side.BELOW, suite, budget=budget,
                                  existential_prefix_len=prefix_len)
    print(f"{label}: {report.summary()}")
    wanted_ok = getattr(report, f"{args.modality}_ok")
    return 0 if switches_ok and wanted_ok else 1


_FIG_TRACE = "req ack req other ack req ack other"
_FIGURES = {"fig1": mc.build_mmax, "fig2": mc.build_mavg}


def cmd_demo(args):
    if args.figure not in _FIGURES:
        raise QuantmonError(f"unknown demo id {args.figure!r} (use fig1 or fig2)")
    machine = _FIGURES[args.figure]()
    verdict = mc.generated_verdict(machine)
    s = parse_finite(_FIG_TRACE, machine.alphabet)
    _emit(verdict_csv_lines(verdict, s), args.output)
    return 0


# the options before the subcommand, each taking one integer, and defaults
_GLOBAL_OPTIONS = {"--seed": 42, "--budget-iters": DEFAULT_BUDGET.max_loop_iterations,
                   "--confirm-window": DEFAULT_BUDGET.confirm_window}


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
    p.add_argument("--unroll", type=int, default=3,
                   help="loop unrollings shown in lasso mode")
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

    p = sub.add_parser("demo", help="bundled figure data series")
    p.add_argument("figure")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(fn=cmd_demo)
    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        _check_global_options(sys.argv[1:] if argv is None else argv)
        args = parser.parse_args(argv)
        if args.command == "run" and not args.stdin and args.trace is None:
            parser.error("run needs a trace file (or --stdin)")
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
