"""Regenerate the stored oracle reference for the enum-catalan workload.

    python3 bench/make_reference.py [n]

Runs the GF(2) brute-force oracle on linear A_n (default 6) with
dimension bound (1, ..., 1), which is exact for this algebra because
every indecomposable module is thin, and writes its node and edge set
to bench/reference/a<n>_hasse.json.  For A6 this takes about half a
minute.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import inputs  # noqa: E402
from tautilt import oracle as orc, parse_algebra  # noqa: E402


def main():
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 6
    alg = parse_algebra(inputs.linear_text(n))
    doc = orc.oracle_graph_json(alg, orc.OracleConfig((1,) * n, p=2))
    keys, edges = inputs.graph_sets(doc)
    if len(keys) != inputs.catalan(n + 1) or len(edges) != n * len(keys) // 2:
        sys.exit(f"oracle gave {len(keys)} nodes and {len(edges)} edges")
    os.makedirs(inputs.REFERENCE_DIR, exist_ok=True)
    inputs.write_reference(doc, inputs.reference_path(n))
    print(f"wrote {inputs.reference_path(n)}: {len(keys)} nodes, "
          f"{len(edges)} edges")


if __name__ == "__main__":
    main()
