"""Command-line interface: tau-tilt <command> [options].

Exit codes: 0 success, 1 domain error (bad mathematical input), 2 usage
error (unknown flags, missing or unparseable files), 141 when the reader
of stdout closes it early.
"""

import argparse
import json
import os
import sys

from .algebra import AlgebraError, AlgebraFileError, parse_algebra
from .fields import FieldError, PrimeField
from .linalg import ExactMatrix
from . import modrep as mr
from . import oracle as orc
from .splitting import DecompositionError
from . import sttilt as st


class UsageError(Exception):
    pass


def _read_file(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc


def load_algebra(path):
    text = _read_file(path)
    try:
        return parse_algebra(text)
    except AlgebraFileError as exc:
        raise UsageError(f"{path}: {exc}") from exc


def load_module(alg, path):
    """Module file: dim_vector line plus arrow_matrix blocks."""
    import ast
    import re
    text = _read_file(path)
    dims = None
    mats = {}
    arrow_re = re.compile(
        r'^\{\s*arrow\s*=\s*"([^"]+)"\s*,\s*rows\s*=\s*(\[.*\])\s*\}$')
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key == "dim_vector":
            if dims is not None:
                raise UsageError(
                    f"{path}:{lineno}: duplicate key 'dim_vector'")
            try:
                dims = ast.literal_eval(value)
            except (ValueError, SyntaxError) as exc:
                raise UsageError(f"{path}:{lineno}: bad dim_vector") from exc
            dims = _counts(dims, f"{path}:{lineno}: dim_vector")
        elif key == "arrow_matrix":
            m = arrow_re.match(value)
            if not m:
                raise UsageError(f"{path}:{lineno}: bad arrow_matrix")
            name = m.group(1)
            if name in mats:
                raise UsageError(f"{path}:{lineno}: duplicate arrow_matrix "
                                 f"for arrow {name!r}")
            try:
                rows = list(ast.literal_eval(m.group(2)))
            except (ValueError, SyntaxError) as exc:
                raise UsageError(f"{path}:{lineno}: bad rows") from exc
            if not all(isinstance(r, str) for r in rows):
                raise UsageError(f"{path}:{lineno}: rows must be strings")
            mats[name] = [r.split() for r in rows]
        else:
            raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
    if dims is None:
        raise UsageError(f"{path}: missing dim_vector")
    return _build_module(alg, dims, mats, path)


def _counts(value, what):
    """A list of non-negative ints as a tuple; anything else is a UsageError."""
    if not isinstance(value, (list, tuple)) or not all(
            type(x) is int and x >= 0 for x in value):
        raise UsageError(f"{what} must be a list of non-negative integers")
    return tuple(value)


def _build_module(alg, dims, mats, origin):
    if len(dims) != alg.n:
        raise UsageError(f"{origin}: dim_vector length != number of vertices")
    unknown = sorted(set(mats) - {arrow.name for arrow in alg.arrows})
    if unknown:
        raise UsageError(f"{origin}: the algebra has no arrow {unknown[0]!r}")
    F = alg.field
    maps = {}
    for ai, arrow in enumerate(alg.arrows):
        entries = mats.get(arrow.name)
        r, c = dims[arrow.source], dims[arrow.target]
        if entries is None:
            continue
        if len(entries) != r or any(len(row) != c for row in entries):
            raise UsageError(
                f"{origin}: matrix for arrow {arrow.name!r} is not {r}x{c}")
        try:
            data = [[F.from_string(v) for v in row] for row in entries]
        except (FieldError, ValueError) as exc:
            raise UsageError(f"{origin}: bad matrix entry: {exc}") from exc
        maps[ai] = ExactMatrix.from_rows(F, data, ncols=c)
    return mr.Representation(alg, dims, maps)


def load_pair(alg, path):
    text = _read_file(path)
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path}: bad JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise UsageError(f"{path}: a pair file holds a JSON object")
    modules = data.get("modules", [])
    if not isinstance(modules, list):
        raise UsageError(f"{path}: modules must be a list")
    mods = []
    for k, entry in enumerate(modules):
        where = f"{path}: module {k}"
        if not isinstance(entry, dict) or "dim_vector" not in entry:
            raise UsageError(f"{where}: expected an object with a dim_vector")
        dims = _counts(entry["dim_vector"], f"{where}: dim_vector")
        mats = entry.get("arrows", {})
        if not isinstance(mats, dict) or not all(
                isinstance(rows, list)
                and all(isinstance(row, list) for row in rows)
                and all(isinstance(v, str) for row in rows for v in row)
                for rows in mats.values()):
            raise UsageError(
                f"{where}: arrows must map names to rows of string entries")
        mods.append(_build_module(alg, dims, mats, path))
    proj = _counts(data.get("projective_part", [0] * alg.n),
                   f"{path}: projective_part")
    if len(proj) != alg.n:
        raise UsageError(f"{path}: projective_part length != vertices")
    M = mr.direct_sum(alg, mods)
    return st.pair_from_module_data(alg, M, proj)


def pair_to_json(pair):
    return {
        "modules": [st.module_to_json(m) for m in pair.module_summands()],
        "projective_part": list(pair.projective_part()),
        "g_matrix": [list(col) for col in pair.g_matrix()],
    }


def _emit(out, text):
    out.write(text)
    if not text.endswith("\n"):
        out.write("\n")


def _graph_table(graph):
    lines = [f"nodes: {graph.node_count()}",
             f"edges: {len(graph.edges)}",
             f"complete: {str(graph.complete).lower()}"]
    for i, p in enumerate(graph.nodes):
        g = st.g_matrix_label(p)
        dims = " ".join(str(list(m.dims)) for m in p.module_summands())
        lines.append(f"node {i}: g=[{g}] modules=[{dims}] "
                     f"support={list(p.projective_part())}")
    for (s, d, i) in graph.edges:
        lines.append(f"edge {s} -> {d} (index {i + 1})")
    return "\n".join(lines) + "\n"


def cmd_check(args, out):
    alg = load_algebra(args.algebra)
    M = load_module(alg, args.module)
    tm = mr.tau(M)
    # `sttilt.is_tau_rigid_pair` for (M, 0), on the translate printed below
    rigid = not mr.hom_space(M, tm)
    _emit(out, f"tau-rigid: {str(rigid).lower()}")
    _emit(out, f"dim-tau: {tm.total_dim}")
    return 0


def cmd_tau(args, out):
    alg = load_algebra(args.algebra)
    M = load_module(alg, args.module)
    tm = mr.tau(M)
    if args.format == "json":
        _emit(out, st.dumps(st.module_to_json(tm)))
    else:
        _emit(out, f"dim_vector: {list(tm.dims)}")
        for ai, arrow in enumerate(alg.arrows):
            mat = tm.maps[ai]
            rows = [" ".join(alg.field.to_string(mat.entry(i, j))
                             for j in range(mat.ncols))
                    for i in range(mat.nrows)]
            _emit(out, f"{arrow.name}: {rows}")
    return 0


def cmd_enumerate(args, out):
    if args.max_nodes < 1:
        raise UsageError(
            f"--max-nodes must be at least 1, not {args.max_nodes}")
    alg = load_algebra(args.algebra)
    graph = st.enumerate_sttilt(alg, max_nodes=args.max_nodes)
    if args.format == "json":  # streamed: the text is never held whole
        graph.write_json(out.write)
        out.write("\n")
    elif args.format == "dot":
        graph.write_dot(out.write)
    else:
        _emit(out, _graph_table(graph))
    return 0


def cmd_mutate(args, out):
    alg = load_algebra(args.algebra)
    pair = load_pair(alg, args.pair)
    new, direction = st.mutate(pair, args.index)
    _emit(out, st.dumps({"pair": pair_to_json(new), "direction": direction}))
    return 0


def cmd_bongartz(args, out):
    alg = load_algebra(args.algebra)
    pair = load_pair(alg, args.pair)
    done = st.bongartz_completion(pair)
    _emit(out, st.dumps(pair_to_json(done)))
    return 0


def cmd_cocompletion(args, out):
    alg = load_algebra(args.algebra)
    pair = load_pair(alg, args.pair)
    done = st.minimal_completion(pair)
    _emit(out, st.dumps(pair_to_json(done)))
    return 0


def cmd_gvectors(args, out):
    alg = load_algebra(args.algebra)
    pair = load_pair(alg, args.pair)
    _emit(out, st.dumps({"g_matrix": [list(c) for c in pair.g_matrix()]}))
    return 0


def cmd_oracle(args, out):
    alg = load_algebra(args.algebra)
    try:
        bound = tuple(int(x) for x in args.dim_bound.split(","))
    except ValueError as exc:
        raise UsageError(f"bad --dim-bound: {args.dim_bound!r}") from exc
    if len(bound) != alg.n:
        raise UsageError("--dim-bound length != number of vertices")
    if any(b < 0 for b in bound):
        raise UsageError(f"--dim-bound entries must be non-negative: "
                         f"{args.dim_bound!r}")
    prime = args.prime
    if prime is None:
        prime = alg.field.characteristic or 2
    try:
        PrimeField(prime)
    except FieldError as exc:
        raise UsageError(f"bad --prime: {exc}") from exc
    cfg = orc.OracleConfig(bound, p=prime)
    _emit(out, st.dumps(orc.oracle_graph_json(alg, cfg)))
    return 0


def cmd_tilting(args, out):
    alg = load_algebra(args.algebra)
    M = load_module(alg, args.module)
    verdict = st.is_classical_tilting(M)
    _emit(out, f"classical-tilting: {str(verdict).lower()}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tau-tilt",
        description="support tau-tilting pairs of bound quiver algebras")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, module=False, pair=False, index=False, fmt=("table", "json")):
        p.add_argument("--algebra", required=True, metavar="FILE")
        if module:
            p.add_argument("--module", required=True, metavar="FILE")
        if pair:
            p.add_argument("--pair", required=True, metavar="JSON-FILE")
        if index:
            p.add_argument("--index", required=True, type=int)
        if fmt:
            p.add_argument("--format", choices=fmt, default=fmt[0])

    p = sub.add_parser("check", help="tau-rigidity verdict for a module")
    common(p, module=True, fmt=None)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("tau", help="Auslander-Reiten translate of a module")
    common(p, module=True)
    p.set_defaults(func=cmd_tau)

    p = sub.add_parser("enumerate", help="Hasse quiver of all pairs")
    common(p, fmt=("table", "json", "dot"))
    p.add_argument("--max-nodes", type=int, default=10 ** 6)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("mutate", help="exchange one summand of a pair")
    common(p, pair=True, index=True, fmt=None)
    p.set_defaults(func=cmd_mutate)

    p = sub.add_parser("bongartz", help="maximum completion of a rigid pair")
    common(p, pair=True, fmt=None)
    p.set_defaults(func=cmd_bongartz)

    p = sub.add_parser("cocompletion", help="minimum completion of a rigid pair")
    common(p, pair=True, fmt=None)
    p.set_defaults(func=cmd_cocompletion)

    p = sub.add_parser("gvectors", help="g-matrix of a pair")
    common(p, pair=True, fmt=None)
    p.set_defaults(func=cmd_gvectors)

    p = sub.add_parser("oracle", help="brute-force pairs over a prime field")
    common(p, fmt=("json",))
    p.add_argument("--dim-bound", required=True,
                   help="per-vertex caps, comma separated")
    p.add_argument("--prime", type=int,
                   help="default: the algebra's characteristic, or 2 over Q")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("tilting", help="classical tilting module test")
    common(p, module=True, fmt=None)
    p.set_defaults(func=cmd_tilting)
    return parser


def run(argv, out=None, err=None):
    out = out or sys.stdout
    err = err or sys.stderr
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args, out)
    except UsageError as exc:
        print(f"error: {exc}", file=err)
        return 2
    except (AlgebraError, orc.OracleError, st.InvariantViolation,
            DecompositionError) as exc:
        print(f"error: {exc}", file=err)
        return 1


def main():
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:  # the reader closed early: exit as SIGPIPE would
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    sys.exit(code)


if __name__ == "__main__":
    main()
