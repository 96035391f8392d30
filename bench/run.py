"""Benchmark of the tau-tilt engine on three workloads with known answers.

    python3 bench/run.py --workload enum-catalan --seed 1 --seconds 50 --trace 0
    python3 bench/run.py --smoke

Run from the repository root; the engine is imported from ``src/``.  One
process with one thread drives the engine in a closed loop: each call is
made after the previous one returns.  A repetition makes a first pass of
calls on freshly parsed algebras and then repeats the same calls; the run
repeats this while another repetition fits in ``--seconds`` (at least
once).  Every answer is checked against a reference that does not come
from the engine (see inputs.py); a call that raises or disagrees counts
as failed and the run goes on.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones; with ``--trace 1`` the run alternates untraced
and traced repetitions, reports the per-layer metrics of spans.py and the
median tracing overhead, and writes its spans to .bench_out/.

``--smoke`` runs every workload in both modes on tiny inputs (A3,
Kronecker-8, preprojective A2) and checks that every reference passes and
every metric named in BENCHMARK.json is emitted.
"""

import argparse
import io
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_SAMPLES = 11

sys.path.insert(0, HERE)

import inputs  # noqa: E402
import spans  # noqa: E402


class Engine:
    """The engine modules, imported from src/ as part of the timed set-up."""

    def __init__(self):
        sys.path.insert(0, os.path.join(ROOT, "src"))
        from tautilt import algebra, cli, linalg, modrep, oracle, sttilt
        import sympy
        # the splitter imports sympy lazily; users pay for the import and
        # the first factorization once per process
        x = sympy.Symbol("x")
        sympy.factor_list(sympy.Poly(x ** 2 - 1, x, domain="QQ"))
        # modules, not functions: the tracer rebinds module attributes
        self.algebra, self.cli, self.linalg = algebra, cli, linalg
        self.modrep, self.oracle, self.sttilt = modrep, oracle, sttilt


class Pass:
    """Timed calls of one pass: per-operation latencies and failures."""

    def __init__(self):
        self.ops = []
        self.attempted = 0
        self.failed = 0

    @property
    def seconds(self):
        return sum(self.ops)

    def call(self, label, fn, check):
        """Time fn(); check(result) must return None or a complaint."""
        self.attempted += 1
        t0 = perf_counter()
        try:
            result = fn()
        except Exception:  # the run goes on; the call counts as failed
            elapsed = perf_counter() - t0
            self.failed += 1
            print(f"FAIL {label}: raised\n{traceback.format_exc()}",
                  file=sys.stderr)
            return elapsed, None
        elapsed = perf_counter() - t0
        try:
            problem = check(result)
        except Exception as exc:  # malformed output is a wrong answer
            problem = f"output could not be checked: {exc!r}"
        if problem:
            self.failed += 1
            print(f"FAIL {label}: {problem}", file=sys.stderr)
        return elapsed, result


# -- workloads ----------------------------------------------------------------

class EnumCatalan:
    """`tau-tilt enumerate --format json` on linear A6, in process.

    The CLI parses its own algebra on every call, so the repeat call shows
    only state kept by the process, never state kept by an algebra.
    """

    def __init__(self, eng, seed, small):
        self.eng = eng
        self.n = 3 if small else 6
        os.makedirs(OUT_DIR, exist_ok=True)
        self.path = os.path.join(OUT_DIR, f"a{self.n}.alg")
        text = inputs.linear_text(self.n)
        with open(self.path, "w", encoding="utf-8") as fh:
            fh.write(text)
        alg = eng.algebra.parse_algebra(text)
        self.keys, self.edges = inputs.linear_reference(eng.oracle, alg, self.n)
        count = inputs.catalan(self.n + 1)
        if len(self.keys) != count or len(self.edges) != self.n * count // 2:
            raise RuntimeError(f"A{self.n} reference disagrees with Catalan")

    def _check(self, result):
        rc, text, err = result
        if rc != 0:
            return f"exit code {rc}: {err.strip()}"
        doc = json.loads(text)
        if not doc["flags"]["complete"]:
            return "enumeration reported incomplete"
        if len(doc["nodes"]) != len(self.keys):
            return f"{len(doc['nodes'])} nodes, expected {len(self.keys)}"
        keys, edges = inputs.graph_sets(doc)
        if keys != self.keys or edges != self.edges:
            return "node or edge set differs from the oracle reference"
        return None

    def _enumerate(self):
        out, err = io.StringIO(), io.StringIO()
        rc = self.eng.cli.run(
            ["enumerate", "--algebra", self.path, "--format", "json"],
            out=out, err=err)
        return rc, out.getvalue(), err.getvalue()

    def repetition(self):
        passes = []
        for label in ("first", "repeat"):
            p = Pass()
            elapsed, _ = p.call(f"A{self.n} {label}", self._enumerate,
                                self._check)
            p.ops.append(elapsed)
            passes.append(p)
        return passes


class KroneckerGuard:
    """The acceptance-guard pattern: enumerate, then the finiteness test
    on the same freshly parsed Kronecker algebra, both at a node budget."""

    def __init__(self, eng, seed, small):
        self.eng = eng
        self.nodes = 8 if small else 60
        # parsed here only to time it with the set-up; every repetition
        # parses its own algebra object
        eng.algebra.parse_algebra(inputs.KRONECKER_TEXT)
        self.keys = inputs.kronecker_keys(self.nodes)

    def _check_graph(self, graph):
        if graph.complete:
            return "enumeration claims to be complete"
        keys = {p.key() for p in graph.nodes}
        if graph.node_count() != self.nodes or keys != self.keys:
            return "node set differs from the closed form"
        return None

    def _check_finite(self, result):
        if result.kind != "unknown":
            return f"finiteness test answered {result!r}"
        return self._check_graph(result.graph)

    def repetition(self):
        st = self.eng.sttilt
        alg = self.eng.algebra.parse_algebra(inputs.KRONECKER_TEXT)
        first, repeat = Pass(), Pass()
        elapsed, _ = first.call(
            "enumerate", lambda: st.enumerate_sttilt(alg, max_nodes=self.nodes),
            self._check_graph)
        first.ops.append(elapsed)
        elapsed, _ = repeat.call(
            "is_tau_tilting_finite",
            lambda: st.is_tau_tilting_finite(alg, max_nodes=self.nodes),
            self._check_finite)
        repeat.ops.append(elapsed)
        return [first, repeat]


class CompletePreproj:
    """Completions of tau-rigid pairs of the preprojective algebra of A3.

    The population is every singleton and almost complete pair, grouped
    into orbits of the automorphism reversing the vertex order.  A run
    takes the fixed orbits of ORBITS and the seed picks one pair from
    each, so every seed does the same kinds of work; the seed also fixes
    the order of the pairs and of the two summands in each direct sum.
    Each operation builds the pair from its module data, then takes the
    Bongartz and the minimal completion.  The repeat pass makes the same
    calls on the same algebra and module, so caching kept by an algebra
    shows on its time.
    """

    # one pair of each orbit, by key; together they cover every kind
    # (singleton, almost complete) with every number of module summands
    # (0, 1, 2) and make a repetition of about 5 s on Pi(A3)
    ORBITS = (
        ((-1, 0, 0),),
        ((-1, 0, 1),),
        ((-1, 0, 0), (-1, 0, 1)),
        ((-1, 0, 0), (0, -1, 0)),
        ((-1, 0, 1), (0, 0, 1)),
        ((-1, 1, 0), (0, 1, 0)),
        ((0, -1, 0), (0, -1, 1)),
        ((0, -1, 1), (0, 0, 1)),
    )

    def __init__(self, eng, seed, small):
        self.eng = eng
        n = 2 if small else 3
        self.text = inputs.preprojective_text(n)
        alg = eng.algebra.parse_algebra(self.text)
        bound = (1, 1) if small else (1, 2, 1)
        cases, npairs, nedges = inputs.preprojective_cases(
            eng.oracle, alg, bound)
        if npairs != math.factorial(n + 1) or nedges != n * npairs // 2:
            raise RuntimeError(f"oracle found {npairs} pairs, {nedges} edges")
        orbits = inputs.flip_orbits(cases)
        if not small:
            orbits = [o for o in orbits
                      if any(c.key in self.ORBITS for c in o)]
            if len(orbits) != len(self.ORBITS):
                raise RuntimeError("a sampled orbit is missing from Pi(A3)")
        rng = random.Random(seed)
        self.sample = [rng.choice(orbit) for orbit in orbits]
        rng.shuffle(self.sample)
        self.orders = [rng.sample(c.modules, len(c.modules))
                       for c in self.sample]

    def _module(self, alg, modules):
        F, mr = alg.field, self.eng.modrep
        parts = []
        for dims, mats in modules:
            maps = {}
            for ai, arrow in enumerate(alg.arrows):
                rows = [[F.from_int(v) for v in row] for row in mats[ai]]
                maps[ai] = self.eng.linalg.ExactMatrix.from_rows(
                    F, rows, ncols=dims[arrow.target])
            parts.append(mr.Representation(alg, dims, maps))
        return mr.direct_sum(alg, parts)

    @staticmethod
    def _expect(key):
        def check(pair):
            got = pair.key()
            return None if got == key else f"got {got}, expected {key}"
        return check

    def _operation(self, p, label, alg, M, case):
        st = self.eng.sttilt
        t_build, pair = p.call(
            f"{label} pair_from_module_data",
            lambda: st.pair_from_module_data(alg, M, case.proj),
            self._expect(case.key))
        t_max = t_min = 0.0
        if pair is None:
            p.attempted += 2
            p.failed += 2
        else:
            t_max, _ = p.call(f"{label} bongartz_completion",
                              lambda: st.bongartz_completion(pair),
                              self._expect(case.bongartz))
            t_min, _ = p.call(f"{label} minimal_completion",
                              lambda: st.minimal_completion(pair),
                              self._expect(case.minimal))
        p.ops.append(t_build + t_max + t_min)

    def repetition(self):
        first, repeat = Pass(), Pass()
        for case, modules in zip(self.sample, self.orders):
            alg = self.eng.algebra.parse_algebra(self.text)
            M = self._module(alg, modules)
            label = f"{case.kind} {case.key}"
            self._operation(first, label, alg, M, case)
            self._operation(repeat, label + " repeat", alg, M, case)
        return [first, repeat]


WORKLOADS = {
    "enum-catalan": EnumCatalan,
    "kronecker-guard": KroneckerGuard,
    "complete-preproj": CompletePreproj,
}


# -- measurement -------------------------------------------------------------------

def measure(workload, seconds):
    """Repetitions while another one fits in `seconds`, at least one."""
    reps = []
    t0 = perf_counter()
    while True:
        reps.append(workload.repetition())
        elapsed = perf_counter() - t0
        if elapsed * (len(reps) + 1) / len(reps) > seconds:
            return reps


def setup_samples(args):
    """Set-up times of fresh processes: from spawn until inputs are ready."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-only"]
    if args.smoke:
        cmd.append("--smoke")
    times = []
    for _ in range(1 if args.smoke else SETUP_SAMPLES):
        t0 = perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT) as child:
            line = child.stdout.readline()
            elapsed = perf_counter() - t0
            child.stdout.read()
            code = child.wait()
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up process failed with code {code}")
        times.append(elapsed)
    return times


def tally(reps):
    passes = [p for rep in reps for p in rep]
    return (sum(p.attempted for p in passes), sum(p.failed for p in passes))


def end_to_end(reps, setup_times):
    """Pass times are means over the repetitions of a run.

    Other load on a shared machine comes in slow phases of seconds to
    minutes.  A mean over the whole run moves with the share of the run
    spent slow, while a minimum or a median of the two to six repetitions
    jumps with whether a fast phase happened to be sampled, so across runs
    the mean is the steadiest.  An operation's latency is likewise its
    mean over the repetitions; op_p50_s is the median of these over the
    operations of both passes.
    """
    ops = [statistics.fmean(times) for k in (0, 1)
           for times in zip(*(rep[k].ops for rep in reps))]
    first = statistics.fmean(rep[0].seconds for rep in reps)
    repeat = statistics.fmean(rep[1].seconds for rep in reps)
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "solve_s": (first + repeat, "s"),
        "first_call_s": (first, "s"),
        "repeat_call_s": (repeat, "s"),
        "op_p50_s": (statistics.median(ops), "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def measure_traced(workload, tracer, seconds):
    """Pairs of an untraced and a traced repetition while another pair
    fits in `seconds`, at least two.

    The order within a pair alternates, untraced first and then traced
    first, so that a drift in the machine's speed cancels out of the
    median.  The first traced repetition records into `tracer`, which
    already holds the set-up; later ones record into throwaway tracers,
    so the counts cover set-up plus one repetition.  Returns the
    repetitions and the traced minus untraced solve time of each pair.
    """
    reps, overheads = [], []
    t0 = perf_counter()
    while True:
        solve = {}
        order = (False, True) if len(overheads) % 2 == 0 else (True, False)
        for traced in order:
            recorder = None
            if traced:
                recorder = spans.Tracer() if overheads else tracer
                recorder.install()
            try:
                rep = workload.repetition()
            finally:
                if recorder is not None:
                    recorder.uninstall()
            reps.append(rep)
            solve[traced] = sum(p.seconds for p in rep)
        overheads.append(solve[True] - solve[False])
        elapsed = perf_counter() - t0
        n = len(overheads)
        if n >= 2 and elapsed * (n + 1) / n > seconds:
            return reps, overheads


def per_layer(tracer, overheads):
    out = {}
    for name, value in spans.layer_metrics(tracer).items():
        unit = ("s" if name.endswith("_s") or name.endswith(".s") else
                "ratio" if name.endswith("_ratio") else "count")
        out[name] = (value, unit)
    out["trace.overhead_s"] = (statistics.median(overheads), "s")
    return out


def run(args):
    small = args.smoke
    tracer = spans.Tracer() if args.trace else None
    try:
        eng = Engine()
    except ImportError as exc:
        print(f"error: cannot import the engine from src/: {exc}",
              file=sys.stderr)
        return 2
    if tracer:
        tracer.install()
    workload = WORKLOADS[args.workload](eng, args.seed, small)
    if args.setup_only:
        print("ready", flush=True)
        return 0
    if tracer:
        tracer.uninstall()
        reps, overheads = measure_traced(workload, tracer, args.seconds)
        metrics = per_layer(tracer, overheads)
        overhead = metrics["trace.overhead_s"][0]
        print(f"{args.workload}: {len(tracer.ids)} spans in set-up and one "
              f"traced repetition; tracing overhead per pair (s): "
              f"{' '.join(f'{d:+.3f}' for d in overheads)}, median "
              f"{overhead:+.3f}", file=sys.stderr)
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.write(os.path.join(OUT_DIR, f"spans-{args.workload}.tsv.gz"))
    else:
        reps = measure(workload, args.seconds)
        metrics = end_to_end(reps, setup_samples(args))
    attempted, failed = tally(reps)
    ops = sum(len(p.ops) for rep in reps for p in rep)
    passes = " ".join(f"{rep[0].seconds:.3f}+{rep[1].seconds:.3f}"
                      for rep in reps)
    print(f"{args.workload}: {len(reps)} repetitions (first+repeat s: "
          f"{passes}), {ops} operations, {failed}/{attempted} calls failed",
          file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def smoke():
    """Every workload in both modes on tiny inputs, checked end to end."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = []
    for name in WORKLOADS:
        for mode, kind in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, os.path.abspath(__file__), "--smoke",
                   "--workload", name, "--seed", "1", "--seconds", "0",
                   "--trace", str(mode)]
            done = subprocess.run(cmd, capture_output=True, text=True,
                                  cwd=ROOT, timeout=600)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                problems.append(f"{name} trace={mode}: exit "
                                f"{done.returncode}\n{done.stderr}")
                continue
            result = json.loads(lines[-1])
            want = {m["name"] for m in spec[kind]}
            got = set(result["metrics"])
            if not result["correct"] or result["failed"]:
                problems.append(f"{name} trace={mode}: reference failed\n"
                                f"{done.stderr}")
            if got != want:
                problems.append(f"{name} trace={mode}: metrics differ: "
                                f"missing {sorted(want - got)}, "
                                f"extra {sorted(got - want)}")
            print(f"{name} trace={mode}: {result['attempted']} calls, "
                  f"{len(got)} metrics", file=sys.stderr)
    for p in problems:
        print(p, file=sys.stderr)
    print("smoke " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs; without --workload, check them all")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload is None:
        if args.smoke:
            return smoke()
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
