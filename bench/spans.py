"""Spans around the public entry points of the tautilt modules.

The tracer wraps functions and methods from outside the package: it
rebinds each entry point in every ``tautilt`` module namespace that
holds it (or on its class, for methods) and puts the originals back on
``uninstall``, so the package source is never edited and an untraced
repetition runs no wrapper at all.

Each call of a wrapped entry point records one span (id, name, parent
id, start, end) in memory.  A layer's self time is the length of its
spans minus the part covered by their direct children, and its call
count is its number of spans.  Counters that need an argument or a
result (kernel unknowns, idempotents found) are taken at the same
boundary.  ``fields`` is not wrapped: its millions of scalar calls would
distort the trace, and their cost lands in the caller's self time.
"""

import array
import functools
import gzip
import itertools
import sys
from time import perf_counter

# (span name, module, attribute); a dotted attribute is a method
ENTRY_POINTS = (
    ("cli.output", "sttilt", "HasseGraph.to_json"),
    ("sttilt.enumerate", "sttilt", "enumerate_sttilt"),
    ("sttilt.pairs_isomorphic", "sttilt", "pairs_isomorphic"),
    ("sttilt.completion", "sttilt", "bongartz_completion"),
    ("sttilt.completion", "sttilt", "minimal_completion"),
    ("twoterm.hom_homotopy", "twoterm", "hom_homotopy"),
    ("twoterm.HomotopyHom", "twoterm", "HomotopyHom.__init__"),
    ("twoterm.approx", "twoterm", "minimal_left_approximation_summands"),
    ("twoterm.approx", "twoterm", "minimal_right_approximation_summands"),
    ("twoterm.approx", "twoterm", "assemble_left_approximation"),
    ("twoterm.approx", "twoterm", "assemble_right_approximation"),
    ("twoterm.cone_strip", "twoterm", "mapping_cone_chain"),
    ("twoterm.cone_strip", "twoterm", "Chain3.strip"),
    ("twoterm.decompose_complex", "twoterm", "decompose_complex"),
    ("twoterm.complexes_isomorphic", "twoterm", "complexes_isomorphic"),
    ("linalg.kernel", "linalg", "kernel_via_presolve"),
    ("linalg.elim", "linalg", "ExactMatrix.rref"),
    ("linalg.elim", "linalg", "ExactMatrix.solve_right"),
    ("linalg.elim", "linalg", "RowSpace.__init__"),
    ("splitting.find_idempotent", "splitting", "find_idempotent"),
    ("splitting.minpoly", "splitting", "minimal_polynomial"),
    ("modrep.modules_isomorphic", "modrep", "modules_isomorphic"),
    ("modrep.decompose", "modrep", "decompose"),
    ("modrep.tau", "modrep", "tau"),
    ("modrep.hom_space", "modrep", "hom_space"),
    ("algebra.parse", "algebra", "parse_algebra"),
    ("oracle.hasse", "oracle", "oracle_hasse"),
)


def _count_unknowns(extra, args, kwargs, result):
    ncols = args[2] if len(args) > 2 else kwargs["ncols"]
    extra["linalg.kernel.unknowns"] += ncols


def _count_split(extra, args, kwargs, result):
    extra["splitting.idempotents_found"] += result is not None


HOOKS = {
    ("linalg", "kernel_via_presolve"): _count_unknowns,
    ("splitting", "find_idempotent"): _count_split,
}


class Tracer:
    """In-memory span recorder; one per traced run, single-threaded."""

    def __init__(self):
        self.names = sorted({name for name, _, _ in ENTRY_POINTS})
        self.ids = array.array("q")
        self.name_ids = array.array("i")
        self.parents = array.array("q")
        self.starts = array.array("d")
        self.ends = array.array("d")
        self.extra = {"linalg.kernel.unknowns": 0,
                      "splitting.idempotents_found": 0}
        self._next_id = itertools.count()
        self._stack = []
        self._restore = []

    def _wrap(self, name, fn, hook):
        nid = self.names.index(name)
        next_id, stack, extra = self._next_id, self._stack, self.extra
        ids, name_ids, parents = self.ids, self.name_ids, self.parents
        starts, ends = self.starts, self.ends

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(next_id)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                ids.append(sid)
                name_ids.append(nid)
                parents.append(parent)
                starts.append(t0)
                ends.append(t1)
            if hook is not None:
                hook(extra, args, kwargs, result)
            return result

        return traced

    def install(self):
        """Rebind every entry point to its traced wrapper."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        package = [m for key, m in sys.modules.items()
                   if key == "tautilt" or key.startswith("tautilt.")]
        for name, modname, attr in ENTRY_POINTS:
            module = sys.modules["tautilt." + modname]
            hook = HOOKS.get((modname, attr))
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._restore.append((cls, meth, original))
                setattr(cls, meth, self._wrap(name, original, hook))
                continue
            original = getattr(module, attr)
            traced = self._wrap(name, original, hook)
            for mod in package:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, traced)

    def uninstall(self):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore = []

    def summary(self):
        """{span name: (calls, total seconds, self seconds)}."""
        covered = {}
        for sid, parent, t0, t1 in zip(self.ids, self.parents,
                                       self.starts, self.ends):
            if parent >= 0:
                covered[parent] = covered.get(parent, 0.0) + (t1 - t0)
        out = {name: [0, 0.0, 0.0] for name in self.names}
        for sid, nid, t0, t1 in zip(self.ids, self.name_ids,
                                    self.starts, self.ends):
            row = out[self.names[nid]]
            row[0] += 1
            row[1] += t1 - t0
            row[2] += t1 - t0 - covered.get(sid, 0.0)
        return {name: tuple(row) for name, row in out.items()}

    def write(self, path):
        """Spans as gzipped TSV: id, name, parent id, start and end in
        microseconds from the first span."""
        base = min(self.starts) if self.starts else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("id\tname\tparent\tstart_us\tend_us\n")
            for sid, nid, parent, t0, t1 in zip(
                    self.ids, self.name_ids, self.parents,
                    self.starts, self.ends):
                fh.write(f"{sid}\t{self.names[nid]}\t{parent}\t"
                         f"{(t0 - base) * 1e6:.1f}\t{(t1 - base) * 1e6:.1f}\n")


def layer_metrics(tracer):
    """Per-layer metrics, named as in BENCHMARK.json, from the spans."""
    s = tracer.summary()

    def calls(name):
        return s[name][0]

    def total(name):
        return s[name][1]

    def self_s(name):
        return s[name][2]

    requests = calls("twoterm.hom_homotopy")
    found = tracer.extra["splitting.idempotents_found"]
    searches = calls("splitting.find_idempotent")
    out = {
        "sttilt.enumerate.self_s": self_s("sttilt.enumerate"),
        "sttilt.collision_checks": calls("sttilt.pairs_isomorphic"),
        "sttilt.pairs_isomorphic.s": total("sttilt.pairs_isomorphic"),
        "sttilt.completion.self_s": self_s("sttilt.completion"),
        "twoterm.hom_requests": requests,
        "twoterm.hom_builds": calls("twoterm.HomotopyHom"),
        "twoterm.hom_reuse_ratio": (
            1 - calls("twoterm.HomotopyHom") / requests if requests else 0.0),
        "twoterm.hom_homotopy.self_s": self_s("twoterm.hom_homotopy"),
        "twoterm.HomotopyHom.self_s": self_s("twoterm.HomotopyHom"),
        "splitting.find_idempotent.calls": searches,
        "splitting.find_idempotent.self_s": self_s("splitting.find_idempotent"),
        "splitting.minpoly.calls": calls("splitting.minpoly"),
        "splitting.split_ratio": found / searches if searches else 0.0,
        "linalg.kernel.calls": calls("linalg.kernel"),
        "linalg.kernel.unknowns": tracer.extra["linalg.kernel.unknowns"],
        "linalg.kernel.self_s": self_s("linalg.kernel"),
        "linalg.elim.calls": calls("linalg.elim"),
        "linalg.elim.self_s": self_s("linalg.elim"),
        "algebra.parse_s": total("algebra.parse"),
        "oracle.hasse_s": total("oracle.hasse"),
        "cli.output_s": total("cli.output"),
    }
    for layer in ("twoterm.approx", "twoterm.cone_strip",
                  "twoterm.decompose_complex", "modrep.modules_isomorphic",
                  "modrep.decompose", "modrep.tau", "modrep.hom_space"):
        out[layer + ".calls"] = calls(layer)
        out[layer + ".self_s"] = self_s(layer)
    out["twoterm.complexes_isomorphic.calls"] = calls(
        "twoterm.complexes_isomorphic")
    return out
