"""The benchmark's four workloads, driven by one closed-loop caller.

One process and one thread issue every request and wait for its answer
before the next; the ``cli`` workload runs at most one ``quantmon`` child
at a time.  Each workload sets up several times (the median is
``setup_s``), computes its references, then repeats a fixed round of work
until the measuring time is used up, checking every round's outputs.

Untraced runs give the end-to-end metrics.  Traced runs patch spans
around the public functions of each module (see ``tracer``) and give the
per-layer metrics; the spans are written to ``.bench_out/`` at the end.
"""

import contextlib
import gc
import os
import random
import resource
import statistics
import subprocess
import sys
import time

from quantmon import boolprop as bp
from quantmon import domain as dom
from quantmon import machine as mc
from quantmon import precision as pr
from quantmon import qprop as qp
from quantmon import trace as tr
from quantmon.boolprop import Side
from quantmon.verdict import DEFAULT_BUDGET, LimitKind, eval_limsup

import checks
import inputs
from tracer import Tracer

MMAX = "demos/machines/mmax.mspec"
MAVG = "demos/machines/mavg.mspec"
AUTOMATA = ("never_b", "eventually_a", "inf_often_a", "ev_always_a")
CANONICAL_MONITORS = {
    bp.AcceptanceKind.SAFETY: bp.monitor_safety,
    bp.AcceptanceKind.COSAFETY: bp.monitor_cosafety,
    bp.AcceptanceKind.BUCHI: bp.monitor_response,
    bp.AcceptanceKind.COBUCHI: bp.monitor_persistence,
}
OUT_DIR = ".bench_out"
BUDGET = DEFAULT_BUDGET.max_loop_iterations

# (name, unit, better) of every per-layer metric; a traced run reports all
# of them, with 0 where a workload does not exercise the layer
PER_LAYER = [
    ("trace.parse_s", "s", "lower"),
    ("trace.suite_s", "s", "lower"),
    ("machine.load_s", "s", "lower"),
    ("machine.build_s", "s", "lower"),
    ("machine.states", "count", "lower"),
    ("machine.edges", "count", "lower"),
    ("machine.steps", "count", "lower"),
    ("machine.step_ns.Mmax", "ns", "lower"),
    ("machine.step_ns.Mavg", "ns", "lower"),
    ("machine.step_ns.Mkpair3", "ns", "lower"),
    ("machine.step_ns.Mkseq4", "ns", "lower"),
    ("machine.step_ns.Mpk4", "ns", "lower"),
    ("qprop.step_ns.mrt", "ns", "lower"),
    ("verdict.limits", "count", "lower"),
    ("verdict.unique_ratio", "ratio", "higher"),
    ("verdict.cycle_hits", "count", "higher"),
    ("verdict.budget_exhausted", "count", "lower"),
    ("verdict.loop_iterations", "count", "lower"),
    ("verdict.cycle_s", "s", "lower"),
    ("verdict.budget_s", "s", "lower"),
    ("verdict.limit_p50_us", "us", "lower"),
    ("verdict.limit_p99_us", "us", "lower"),
    ("verdict.limit_samples", "count", "higher"),
    ("qprop.eval_s", "s", "lower"),
    ("qprop.evals", "count", "lower"),
    ("boolprop.classify_s", "s", "lower"),
    ("precision.self_s", "s", "lower"),
    ("precision.jsonl_s", "s", "lower"),
    ("domain.render_s", "s", "lower"),
    ("cli.import_s", "s", "lower"),
    ("cli.compare_s", "s", "lower"),
    ("tracing.ops_per_s", "1/s", "higher"),
    ("check.known_defects", "count", "lower"),
    ("baseline.step_ns.Mmax.uniform", "ns", "lower"),
    ("baseline.step_ns.Mkpair3.uniform", "ns", "lower"),
    ("baseline.step_ns.mrt.uniform", "ns", "lower"),
    ("baseline.budget_limit_ms.Mmax", "ms", "lower"),
    ("baseline.budget_limit_ms.Mavg", "ms", "lower"),
    ("baseline.compare_ms.Mmax_Mfin3", "ms", "lower"),
    ("baseline.build_ms.Mkseq4", "ms", "lower"),
]

# span names of the set-up layers, and the metric each one feeds
SETUP_LAYERS = {"trace.parse": "trace.parse_s", "trace.suite": "trace.suite_s",
                "machine.load": "machine.load_s", "machine.build": "machine.build_s"}


REPEATS = 3  # passes behind each after-the-rounds measurement


def median_time(fn, repeats=REPEATS):
    """Median wall seconds of ``fn()`` over ``repeats`` calls."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def stepper_values(verdict, symbols):
    """Per-event values of a verdict's stepper (the prefix values after
    each event, as ``MachineRun.step`` returns them)."""
    step = verdict.stepper(None).step
    return [step(s) for s in symbols]


def per_pair_mrt(symbols, k):
    """Per-event tuples of the hand-written per-pair ``mrt`` steppers."""
    reqs, acks = inputs.pair_tokens(k)
    columns = [stepper_values(qp.mrt_verdict(r, a), symbols) for r, a in zip(reqs, acks)]
    return list(zip(*columns))


def step_ns(machine, symbols, repeats=REPEATS):
    """Median ns per ``MachineRun.step`` over one pass of ``symbols``."""
    def once():
        step = mc.MachineRun(machine).step
        for s in symbols:
            step(s)
    return median_time(once, repeats) / len(symbols) * 1e9


def peak_rss_mb(who=resource.RUSAGE_SELF):
    return resource.getrusage(who).ru_maxrss / 1024.0


class Workload:
    """Shared closed loop: set-up, references, timed rounds, checks."""

    # set-up passes: at least the minimum, more until the time is spent
    setup_passes = (5, 50)
    setup_seconds = 1.0

    def __init__(self, root, seed, traced):
        self.root = root
        self.seed = seed
        self.rng = random.Random(seed)
        self.tracer = Tracer() if traced else None
        self.tally = checks.Tally()
        self.layer = {name: 0 for name, _, _ in PER_LAYER}
        self.samples = {}
        self.rounds = 0
        self._limits = []  # traced: (span index, round, iterations used, key)
        self.build_s = {}  # traced: machine name -> seconds per load or build

    def read(self, rel):
        with open(os.path.join(self.root, rel), encoding="utf-8") as fh:
            return fh.read()

    # -- subclass hooks ------------------------------------------------------

    def prepare(self):
        """Generate the seeded inputs (untimed)."""

    def setup(self):
        """Build everything the rounds need; timed as ``setup_s``."""
        raise NotImplementedError

    def reference(self, state):
        """Compute the reference outputs (untimed)."""

    def round(self, state):
        """One round of work; returns (operations, busy seconds, outputs)."""
        raise NotImplementedError

    def check(self, state, outputs):
        """Check one round's outputs into ``self.tally``."""

    def traced_extras(self, state):
        """Per-layer measurements made after the rounds, tracing patches off."""

    def extra(self, metric, value, samples=REPEATS):
        """Record a per-layer value measured outside the rounds."""
        self.layer[metric] = value
        self.samples[metric] = samples

    # -- the loop ------------------------------------------------------------

    def span(self, name):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    def timed_setup(self, setups):
        with self.span("setup"):
            t0 = time.perf_counter()
            state = self.setup()
            setups.append(time.perf_counter() - t0)
        return state

    def run(self, seconds):
        self.prepare()
        if self.tracer:
            self.install()
        setups = []
        least, most = self.setup_passes
        while len(setups) < least or (sum(setups) < self.setup_seconds and len(setups) < most):
            state = self.timed_setup(setups)
        if self.tracer:
            self.tracer.unpatch()
        self.reference(state)
        # the references are long-lived; keep them out of the collector's way
        gc.collect()
        gc.freeze()
        if self.tracer:
            self.install()
        rates = []
        deadline = time.perf_counter() + seconds
        while not rates or time.perf_counter() < deadline:
            with self.span("round"):
                ops, busy, outputs = self.round(state)
            rates.append(ops / busy)
            self.rounds += 1
            self.check(state, outputs)
            # one more set-up pass per round spreads the set-up samples over
            # the whole run, as the round samples are; its result is dropped
            self.timed_setup(setups)
            gc.collect()
        if self.tracer:
            self.tracer.unpatch()
        metrics = self.end_to_end(setups, rates, peak_rss_mb())
        if self.tracer:
            self.collect_trace(state, metrics["ops_per_s"])
        return metrics

    def end_to_end(self, setups, rates, rss_mb):
        tally = self.tally
        self.samples.update(setup_s=len(setups), ops_per_s=len(rates),
                            decided_ratio=tally.limits or tally.attempted, peak_rss_mb=1)
        return {"setup_s": statistics.median(setups),
                "ops_per_s": statistics.median(rates),
                "decided_ratio": self.decided_ratio(),
                "peak_rss_mb": rss_mb}

    def decided_ratio(self):
        return self.tally.decided / self.tally.limits

    # -- tracing ---------------------------------------------------------------

    def install(self):
        """Patch spans around every module's public entry points."""
        t = self.tracer
        for name in ("parse_finite", "parse_lasso"):
            t.patch(tr, name, "trace.parse")
        for name in ("exhaustive_suite", "sampled_suite"):
            t.patch(pr, name, "trace.suite")
        t.patch(mc, "load_machine", "machine.load", self._machine_built)
        for name in ("build_kpair_monitor", "build_kpair_sequential",
                     "build_finite_state_mrt", "build_pk_monitor", "build_pk_approx"):
            t.patch(mc, name, "machine.build", self._machine_built)
        for owner in (pr, bp):
            for side in ("eval_limsup", "eval_liminf"):
                t.patch(owner, side, "verdict.limit", self._limit_hook(side))
        for name in ("compare", "hierarchy_experiment"):
            t.patch(pr, name, "precision.report")
        t.patch(pr, "report_jsonl", "precision.jsonl")
        t.patch(bp, "classify_modality", "boolprop.classify")
        t.count_calls(mc.MachineRun, "step", "machine.steps")

    def _machine_built(self, idx, args, machine):
        self.tracer.counts["machine.states"] += len(machine.states)
        self.tracer.counts["machine.edges"] += len(machine.edges)
        self.build_s.setdefault(machine.name, []).append(self.tracer.duration_s(idx))

    def _limit_hook(self, side):
        def done(idx, args, res):
            verdict, t = args[0], args[1]
            self._limits.append((idx, self.rounds, res.iterations_used,
                                 (id(verdict), t, side)))
        return done

    def traced_prop(self, prop):
        """Wrap a property's ground-truth evaluator in a ``qprop.eval`` span."""
        if self.tracer:
            prop.eval_lasso = self.tracer.wrap("qprop.eval", prop.eval_lasso)
        return prop

    def collect_trace(self, state, traced_rate):
        t = self.tracer
        spans = t.spans
        lay = self.layer
        rounds = self.rounds
        # set-up layers: median over the set-up passes of each pass's sum
        setup_idx = [i for i, s in enumerate(spans) if s[0] == "setup"]
        per_setup = {i: dict.fromkeys(SETUP_LAYERS.values(), 0.0) for i in setup_idx}
        for name, start, end, parent in spans:
            if parent in per_setup and name in SETUP_LAYERS:
                per_setup[parent][SETUP_LAYERS[name]] += (end - start) / 1e9
        for metric in SETUP_LAYERS.values():
            lay[metric] = statistics.median(p[metric] for p in per_setup.values())
        passes = len(setup_idx)
        for metric in (*SETUP_LAYERS.values(), "machine.states", "machine.edges"):
            self.samples[metric] = passes
        lay["machine.states"] = t.counts["machine.states"] // passes
        lay["machine.edges"] = t.counts["machine.edges"] // passes
        if t.counts["machine.steps"]:
            lay["machine.steps"] = t.counts["machine.steps"] / rounds
        totals = t.totals()
        in_rounds = lambda name: totals.get(name, (0, 0.0, 0.0))
        lay["qprop.evals"] = in_rounds("qprop.eval")[0] / rounds
        lay["qprop.eval_s"] = in_rounds("qprop.eval")[1] / rounds
        lay["boolprop.classify_s"] = in_rounds("boolprop.classify")[2] / rounds
        lay["precision.self_s"] = in_rounds("precision.report")[2] / rounds
        lay["precision.jsonl_s"] = in_rounds("precision.jsonl")[1] / rounds
        if self._limits:
            self.limit_layer()
        lay["tracing.ops_per_s"] = traced_rate
        lay["check.known_defects"] = self.tally.known / rounds
        self.traced_extras(state)
        os.makedirs(os.path.join(self.root, OUT_DIR), exist_ok=True)
        t.write(os.path.join(self.root, OUT_DIR, f"spans-{self.name}-seed{self.seed}.jsonl"))

    def limit_layer(self):
        spans, lay, rounds = self.tracer.spans, self.layer, self.rounds
        durations = []
        keys_by_round = {}
        cycle_s = budget_s = 0.0
        hits = exhausted = iterations = 0
        for idx, rnd, used, key in self._limits:
            name, start, end, parent = spans[idx]
            dur = (end - start) / 1e9
            durations.append(dur)
            keys_by_round.setdefault(rnd, set()).add(key)
            iterations += used
            if used >= BUDGET:
                exhausted += 1
                budget_s += dur
            else:
                hits += 1
                cycle_s += dur
        calls = len(durations)
        lay["verdict.limits"] = calls / rounds
        lay["verdict.unique_ratio"] = sum(len(k) for k in keys_by_round.values()) / calls
        lay["verdict.cycle_hits"] = hits / rounds
        lay["verdict.budget_exhausted"] = exhausted / rounds
        lay["verdict.loop_iterations"] = iterations / rounds
        lay["verdict.cycle_s"] = cycle_s / rounds
        lay["verdict.budget_s"] = budget_s / rounds
        durations.sort()
        lay["verdict.limit_p50_us"] = statistics.median(durations) * 1e6
        lay["verdict.limit_p99_us"] = durations[int(0.99 * (calls - 1))] * 1e6
        lay["verdict.limit_samples"] = calls
        self.samples.update({m: calls for m in ("verdict.limit_p50_us", "verdict.limit_p99_us",
                                                "verdict.limit_samples")})


class Stream(Workload):
    """Per-event stepping of four monitors over seeded well-formed traffic."""

    name = "stream"
    events = 20000

    def prepare(self):
        self.texts = {k: " ".join(inputs.server_traffic(self.rng, k, self.events))
                      for k in (1, 3, 4)}

    def setup(self):
        mmax = mc.load_machine(self.read(MMAX), name="Mmax")
        mavg = mc.load_machine(self.read(MAVG), name="Mavg")
        kpair = mc.build_kpair_monitor(3)
        kseq = mc.build_kpair_sequential(4)
        one = tr.parse_finite(self.texts[1], mmax.alphabet)
        three = tr.parse_finite(self.texts[3], kpair.alphabet)
        four = tr.parse_finite(self.texts[4], kseq.alphabet)
        return [(mmax, one.symbols), (mavg, one.symbols),
                (kpair, three.symbols), (kseq, four.symbols)]

    def reference(self, monitors):
        one, three, four = monitors[0][1], monitors[2][1], monitors[3][1]
        self.ref = {"Mmax": stepper_values(qp.mrt_verdict(), one),
                    "Mavg": stepper_values(qp.art_verdict(), one),
                    "Mkpair3": per_pair_mrt(three, 3),
                    "Mkseq4": per_pair_mrt(four, 4)}
        self.step_times = {m.name: [] for m, _ in monitors}

    def round(self, monitors):
        ops, busy, outputs = 0, 0.0, {}
        for machine, symbols in monitors:
            step = mc.MachineRun(machine).step
            t0 = time.perf_counter()
            out = [step(s) for s in symbols]
            dt = time.perf_counter() - t0
            ops += len(symbols)
            busy += dt
            outputs[machine.name] = out
            self.step_times[machine.name].append(dt / len(symbols))
        return ops, busy, outputs

    def check(self, monitors, outputs):
        for name in ("Mmax", "Mavg", "Mkpair3"):
            self.tally.events(outputs[name], self.ref[name], name)
        # the two-counter Mkseq4 under-approximates every pair's maximum
        self.tally.events(outputs["Mkseq4"], self.ref["Mkseq4"], "Mkseq4", ok=checks.le)

    def decided_ratio(self):
        # every event returns a verdict; no limit is resolved here
        return 1.0

    def install(self):
        # per-event steps are timed in aggregate by ``round``, never wrapped
        t = self.tracer
        t.patch(tr, "parse_finite", "trace.parse")
        t.patch(mc, "load_machine", "machine.load", self._machine_built)
        for name in ("build_kpair_monitor", "build_kpair_sequential"):
            t.patch(mc, name, "machine.build", self._machine_built)

    def traced_extras(self, monitors):
        lay = self.layer
        lay["machine.steps"] = sum(len(symbols) for _, symbols in monitors)
        for name, per_step in self.step_times.items():
            lay[f"machine.step_ns.{name}"] = statistics.median(per_step) * 1e9
        one = monitors[0][1]
        mrt_run = lambda: stepper_values(qp.mrt_verdict(), one)
        self.extra("qprop.step_ns.mrt", median_time(mrt_run) / len(one) * 1e9)
        builds = self.build_s["Mkseq4"]
        self.extra("baseline.build_ms.Mkseq4", statistics.median(builds) * 1e3, len(builds))
        # the hand-measured baselines stepped uniform random traffic
        rng = random.Random(self.seed)
        uni1 = inputs.uniform_traffic(rng, 1, self.events)
        uni3 = inputs.uniform_traffic(rng, 3, self.events)
        self.extra("baseline.step_ns.Mmax.uniform", step_ns(monitors[0][0], uni1))
        self.extra("baseline.step_ns.Mkpair3.uniform", step_ns(monitors[2][0], uni3))
        mrt_uni = lambda: stepper_values(qp.mrt_verdict(), uni1)
        self.extra("baseline.step_ns.mrt.uniform", median_time(mrt_uni) / len(uni1) * 1e9)


def known_pk_defect(res, ref):
    """The window rule's false ``EXACT inf`` on a violation beyond the
    iteration budget, a known engine defect."""
    return res.kind is LimitKind.EXACT and res.value == dom.INF and ref != dom.INF


class SuiteCycle(Workload):
    """Precision reports whose limits settle by configuration cycle."""

    name = "suite-cycle"
    sample_size = 64
    prefix_len = 3  # existential check over every finite trace up to this length
    # a universal monitor meets the property at the first continuation of
    # every prefix, so the existential pass asks one limit per prefix
    prefixes = 2 ** (prefix_len + 1) - 1

    def setup(self):
        mmax = mc.load_machine(self.read(MMAX), name="Mmax")
        fins = [mc.build_finite_state_mrt(cap) for cap in (1, 2, 3, 4)]
        suite = pr.exhaustive_suite(mmax.alphabet, 2, 3)
        autos = [bp.load_automaton(self.read(f"demos/automata/{a}.aut")) for a in AUTOMATA]
        ab_suite = pr.sampled_suite(autos[0].alphabet, self.sample_size, self.seed)
        family = [(cap, mc.generated_verdict(m)) for cap, m in zip((1, 2, 3, 4), fins)]
        family.append((5, mc.generated_verdict(mmax)))
        monitors = [(CANONICAL_MONITORS[P.kind](P), bp.characteristic_property(P))
                    for P in autos]
        return {"suite": suite, "family": family, "ab_suite": ab_suite,
                "monitors": monitors, "prop": self.traced_prop(qp.mrt_property())}

    def reference(self, st):
        self.mrt_ref = [qp.eval_mrt(t) for t in st["suite"]]
        self.jsonl = None

    def round(self, st):
        suite, family = st["suite"], st["family"]
        t0 = time.perf_counter()
        report = pr.compare(family[4][1], family[2][1], suite)
        lines = pr.report_jsonl(report, "Mmax", "Mfin3")
        entries = pr.hierarchy_experiment(family, suite, prop=st["prop"])
        for e in entries:
            lines += pr.report_jsonl(e["report"], *e["pair"])
        modal = [bp.classify_modality(v, prop, Side.BELOW, st["ab_suite"],
                                      existential_prefix_len=self.prefix_len)
                 for v, prop in st["monitors"]]
        busy = time.perf_counter() - t0
        n = len(suite)
        ops = (2 * n + checks.requests_per_hierarchy(len(family), n)
               + len(modal) * (len(st["ab_suite"]) + self.prefixes))
        return ops, busy, (report, entries, lines, modal)

    def check(self, st, outputs):
        report, entries, lines, modal = outputs
        tally, ref = self.tally, self.mrt_ref
        capped = {cap: [min(cap, v) for v in ref] for cap in (1, 2, 3, 4)}
        rel = checks.check_report(tally, report, "Mmax vs Mfin3", True, (ref, capped[3]))
        tally.expect("Mmax vs Mfin3", rel, "more-precise")
        refs = [capped[1], capped[2], capped[3], capped[4], ref]
        rels = checks.check_hierarchy(tally, entries, ["Mfin1", "Mfin2", "Mfin3", "Mfin4", "Mmax"],
                                      "mrt hierarchy", True, refs, ref)
        tally.expect("mrt hierarchy relations", rels, ["more-precise"] * 4)
        tally.expect("mrt hierarchy soundness", [e["sound"] for e in entries], [(True, True)] * 4)
        if self.jsonl is None:
            self.jsonl = lines
        tally.expect("report_jsonl lines repeat across rounds", lines == self.jsonl, True)
        for name, rep in zip(AUTOMATA, modal):
            requested = len(st["ab_suite"]) + self.prefixes
            tally.attempted += requested
            tally.limits += requested
            tally.decided += requested - len(rep.unresolved)
            tally.fail(len(rep.universal_witnesses) + len(rep.existential_witnesses),
                       f"{name}: canonical monitor missed the property")
            tally.expect(f"{name} modality", (rep.approximate_ok, rep.universal_ok,
                                              rep.existential_ok), (True, True, True))

    def traced_extras(self, st):
        family, suite = st["family"], st["suite"]
        compare = lambda: pr.compare(family[4][1], family[2][1], suite)
        self.extra("baseline.compare_ms.Mmax_Mfin3", median_time(compare) * 1e3)


class SuiteBudget(Workload):
    """Precision reports whose limits mostly run out the iteration budget."""

    name = "suite-budget"
    long_stems = 12

    def prepare(self):
        self.long_texts = inputs.long_stem_lassos(self.rng, self.long_stems, BUDGET)

    def setup(self):
        mavg = mc.load_machine(self.read(MAVG), name="Mavg")
        pk = [mc.build_pk_approx(4, 2), mc.build_pk_approx(4, 3), mc.build_pk_monitor(4)]
        suite = pr.exhaustive_suite(mavg.alphabet, 2, 3)
        alphabet = mc.pk_alphabet(4)
        long_suite = pr.LassoSuite(tuple(tr.parse_lasso(text, alphabet)
                                         for text in self.long_texts), "long-stem")
        return {"suite": suite, "long_suite": long_suite,
                "avg": (mc.generated_verdict(mavg), qp.art_verdict()),
                "family": [(i, mc.generated_verdict(m)) for i, m in zip((2, 3, 4), pk)],
                "pk_machine": pk[2], "prop": self.traced_prop(mc.pk_property(4))}

    def reference(self, st):
        self.art_ref = [qp.eval_art(t) for t in st["suite"]]
        self.pk_ref = [mc.eval_pk(t, 4) for t in st["long_suite"]]

    def round(self, st):
        t0 = time.perf_counter()
        report = pr.compare(*st["avg"], st["suite"])
        entries = pr.hierarchy_experiment(st["family"], st["long_suite"], Side.ABOVE,
                                          prop=st["prop"])
        busy = time.perf_counter() - t0
        ops = 2 * len(st["suite"]) + checks.requests_per_hierarchy(3, len(st["long_suite"]))
        return ops, busy, (report, entries)

    def check(self, st, outputs):
        report, entries = outputs
        checks.check_report(self.tally, report, "Mavg vs art", True,
                            (self.art_ref, self.art_ref))
        checks.check_hierarchy(self.tally, entries, ["Mpk4l2", "Mpk4l3", "Mpk4"],
                               "pk hierarchy", False, [None, None, self.pk_ref],
                               self.pk_ref, known=known_pk_defect)

    def traced_extras(self, st):
        lay = self.layer
        steps = []
        for t in st["long_suite"]:
            steps += t.stem.symbols + t.loop.symbols * BUDGET
        self.extra("machine.step_ns.Mpk4", step_ns(st["pk_machine"], steps))
        server = qp.server_alphabet(1).alphabet
        stuck = tr.parse_lasso("req ; other", server)
        for label, path in (("Mmax", MMAX), ("Mavg", MAVG)):
            v = mc.generated_verdict(mc.load_machine(self.read(path), name=label))
            limit = lambda: eval_limsup(v, stuck)
            self.extra(f"baseline.budget_limit_ms.{label}", median_time(limit) * 1e3)


class Cli(Workload):
    """``quantmon run --stdin`` and ``quantmon compare`` as child processes."""

    name = "cli"
    events = 20000
    compare_args = ["compare", f"machine:{MMAX}", "mrt", "--suite", "exhaustive:2:3"]

    def command(self, *args):
        return [sys.executable, "-m", "quantmon.cli", *args]

    def child_env(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(self.root, "src")
        return env

    def run(self, seconds):
        out_dir = os.path.join(self.root, OUT_DIR)
        os.makedirs(out_dir, exist_ok=True)
        events = inputs.server_traffic(self.rng, 1, self.events)
        stream_path = os.path.join(out_dir, f"cli-stream-seed{self.seed}.txt")
        with open(stream_path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(events) + "\n")
        verdicts = stepper_values(qp.mrt_verdict(), events)
        want_run = [str(v).encode() for v in verdicts]
        want_compare = self.compare_reference()
        env = self.child_env()
        out_path = os.path.join(out_dir, f"cli-verdicts-seed{self.seed}.txt")
        setups, rates, compares = [], [], []
        deadline = time.perf_counter() + seconds
        while not rates or time.perf_counter() < deadline:
            # the verdicts go to a file: a reader woken by every flushed line
            # would compete with the child and slow it down
            with open(stream_path, "rb") as stdin, open(out_path, "wb") as stdout:
                t0 = time.perf_counter()
                with subprocess.Popen(self.command("run", MMAX, "--stdin"), cwd=self.root,
                                      env=env, stdin=stdin, stdout=stdout) as proc:
                    while os.path.getsize(out_path) == 0 and proc.poll() is None:
                        time.sleep(0.0002)
                    t1 = time.perf_counter()
                    code = proc.wait()
                    t2 = time.perf_counter()
            setups.append(t1 - t0)
            rates.append((len(events) - 1) / (t2 - t1))
            self.tally.expect("run --stdin exit code", code, 0)
            with open(out_path, "rb") as fh:
                self.tally.events(fh.read().splitlines(), want_run, "run --stdin")
            t0 = time.perf_counter()
            proc = subprocess.run(self.command(*self.compare_args), cwd=self.root, env=env,
                                  stdout=subprocess.PIPE, stderr=subprocess.PIPE)
            compares.append(time.perf_counter() - t0)
            self.tally.expect("compare exit code", proc.returncode, 0)
            self.check_compare(proc.stdout, want_compare)
            self.rounds += 1
        metrics = self.end_to_end(setups, rates, peak_rss_mb(resource.RUSAGE_CHILDREN))
        if self.tracer:
            self.cli_layer(events, verdicts, rates, compares)
        return metrics

    def compare_reference(self):
        """The in-process report the CLI must print, byte for byte; its
        limits are checked against ``eval_mrt`` once here."""
        mmax = mc.load_machine(self.read(MMAX), name=MMAX)
        suite = pr.exhaustive_suite(mmax.alphabet, 2, 3)
        report = pr.compare(mc.generated_verdict(mmax), qp.mrt_verdict(), suite)
        ref = [qp.eval_mrt(t) for t in suite]
        inproc = checks.Tally()
        checks.check_report(inproc, report, "in-process Mmax vs mrt", True, (ref, ref))
        self.tally.problems += inproc.problems
        self.report_rows = len(report.rows)
        lines = pr.report_jsonl(report, self.compare_args[1], self.compare_args[2])
        return [line.encode() for line in lines]

    def check_compare(self, stdout, want):
        got = stdout.splitlines()
        tally = self.tally
        requested = 2 * self.report_rows
        tally.attempted += requested
        tally.limits += requested
        tally.decided += sum(2 - line.count(b'"undetermined,') for line in got[:-1])
        bad = sum(1 for g, w in zip(got, want) if g != w) + abs(len(got) - len(want))
        tally.fail(bad, f"compare: {bad} of {len(want)} lines differ from the in-process report")

    def cli_layer(self, events, verdicts, rates, compares):
        lay = self.layer
        code = ("import time; t = time.perf_counter(); import quantmon.cli; "
                "print(time.perf_counter() - t)")
        imports = [float(subprocess.run([sys.executable, "-c", code], cwd=self.root,
                                        env=self.child_env(), stdout=subprocess.PIPE,
                                        check=True).stdout) for _ in range(5)]
        self.extra("cli.import_s", statistics.median(imports), len(imports))
        lay["cli.compare_s"] = statistics.median(compares)
        lay["tracing.ops_per_s"] = statistics.median(rates)
        # in-process stand-ins for the layers the child runs per line
        text = self.read(MMAX)
        mmax = mc.load_machine(text, name="Mmax")
        self.extra("machine.load_s", median_time(lambda: mc.load_machine(text, name="Mmax")))
        lay["machine.states"] = len(mmax.states)
        lay["machine.edges"] = len(mmax.edges)
        stream = " ".join(events)
        self.extra("trace.parse_s", median_time(lambda: tr.parse_finite(stream, mmax.alphabet)))
        self.extra("machine.step_ns.Mmax", step_ns(mmax, events))
        lay["machine.steps"] = len(events)
        render = lambda: [dom.render_value(v) for v in verdicts]
        self.extra("domain.render_s", median_time(render))


WORKLOADS = {w.name: w for w in (Stream, SuiteCycle, SuiteBudget, Cli)}
