import pytest

from tautilt.algebra import parse_algebra
from tautilt import oracle as orc


def test_indecomposables_kA2(a2):
    cfg = orc.OracleConfig((1, 1))
    mods = orc.brute_force_indecomposables(a2, cfg)
    assert sorted(m.dims for m in mods) == [(0, 1), (1, 0), (1, 1)]


def test_indecomposables_point(point):
    assert len(orc.brute_force_indecomposables(
        point, orc.OracleConfig((1,)))) == 1


def test_indecomposables_local(loop2):
    mods = orc.brute_force_indecomposables(loop2, orc.OracleConfig((2,)))
    assert sorted(m.dims for m in mods) == [(1,), (2,)]


def test_tau_oracle_values(a2):
    cfg = orc.OracleConfig((1, 1))
    mods = orc.brute_force_indecomposables(a2, cfg)
    by_dims = {m.dims: m for m in mods}
    assert orc.tau_oracle(by_dims[(1, 0)], 2).dims == (0, 1)
    assert orc.tau_oracle(by_dims[(0, 1)], 2).total_dim() == 0
    assert orc.tau_oracle(by_dims[(1, 1)], 2).total_dim() == 0


def test_sttilt_counts(a2, point, loop2):
    assert len(orc.brute_force_sttilt(a2, orc.OracleConfig((1, 1)))) == 5
    assert len(orc.brute_force_sttilt(point, orc.OracleConfig((1,)))) == 2
    assert len(orc.brute_force_sttilt(loop2, orc.OracleConfig((2,)))) == 2


def test_hasse_pentagon(a2):
    pairs, keys, edges = orc.oracle_hasse(a2, orc.OracleConfig((1, 1)))
    assert len(pairs) == 5 and len(edges) == 5
    degree = {}
    for (s, d) in edges:
        degree[s] = degree.get(s, 0) + 1
        degree[d] = degree.get(d, 0) + 1
    assert all(degree.get(i, 0) == 2 for i in range(5))


def test_hasse_builds_the_mod_p_algebra_once_and_each_tau_once(
        a2, monkeypatch):
    calls = {"algebra_mod_p": 0, "tau_oracle": 0}

    def counted(name):
        inner = getattr(orc, name)

        def wrapper(*args):
            calls[name] += 1
            return inner(*args)
        monkeypatch.setattr(orc, name, wrapper)

    counted("algebra_mod_p")
    counted("tau_oracle")
    pairs, _, edges = orc.oracle_hasse(a2, orc.OracleConfig((1, 1)))
    assert (len(pairs), len(edges)) == (5, 5)
    # kA2 has three indecomposables: S1, S2 and P1
    assert calls == {"algebra_mod_p": 1, "tau_oracle": 3}


def test_candidate_ceiling():
    big = parse_algebra(
        'field = "Q"\nvertices = ["1", "2"]\n'
        'arrow = { name = "a", source = "1", target = "2" }\n'
        'arrow = { name = "b", source = "1", target = "2" }')
    with pytest.raises(orc.OracleError, match="ceiling"):
        orc.brute_force_indecomposables(big, orc.OracleConfig((5, 5), p=7))


def test_oracle_json_schema(a2):
    data = orc.oracle_graph_json(a2, orc.OracleConfig((1, 1)))
    assert set(data) == {"nodes", "edges", "flags"}
    assert data["flags"]["complete"] is True
    assert len(data["nodes"]) == 5
    for node in data["nodes"]:
        assert set(node) == {"id", "g_matrix", "module_summands",
                             "projective_part"}
    for edge in data["edges"]:
        assert set(edge) == {"src", "dst", "index"}


def test_relation_coefficient_mod_p():
    alg = parse_algebra(
        'field = "Q"\nvertices = ["1"]\n'
        'arrow = { name = "x", source = "1", target = "1" }\n'
        'relations = ["x*x - 2*x*x"]')  # simplifies to -x*x
    mods = orc.brute_force_indecomposables(alg, orc.OracleConfig((2,), p=3))
    assert sorted(m.dims for m in mods) == [(1,), (2,)]
