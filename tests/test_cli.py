import hashlib
import io
import json
import os
import subprocess
import sys

import pytest

from tautilt import modrep as mr
from tautilt import twoterm
from tautilt.cli import run

from conftest import data_path, loads_without_floats

GOLDENS = os.path.join(os.path.dirname(__file__), "goldens")
SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")


def invoke(argv):
    out = io.StringIO()
    err = io.StringIO()
    code = run(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def test_check_tau_rigid():
    code, out, _ = invoke(["check", "--algebra", data_path("a2.alg"),
                           "--module", data_path("s1.mod")])
    assert code == 0
    assert "tau-rigid: true" in out
    assert "dim-tau: 1" in out


def test_check_translates_the_module_once(monkeypatch):
    # the verdict Hom(M, tau M) = 0 reads the translate that check prints
    translated = []
    tau = mr.tau

    def counted(M):
        translated.append(M)
        return tau(M)

    monkeypatch.setattr(mr, "tau", counted)
    for name in ("s1.mod", "p1.mod"):
        del translated[:]
        code, out, _ = invoke(["check", "--algebra", data_path("a2.alg"),
                               "--module", data_path(name)])
        assert code == 0 and "tau-rigid: true" in out
        assert len(translated) == 1


def test_tau_output_json():
    code, out, _ = invoke(["tau", "--algebra", data_path("a2.alg"),
                           "--module", data_path("s1.mod"),
                           "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["dim_vector"] == [0, 1]


def test_enumerate_json_counts():
    code, out, _ = invoke(["enumerate", "--algebra", data_path("a2.alg"),
                           "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert len(data["nodes"]) == 5
    assert data["flags"]["complete"] is True
    assert len(data["edges"]) == 5


def test_enumerate_missing_file_is_usage_error():
    code, out, err = invoke(["enumerate", "--algebra", "missing.alg"])
    assert code == 2
    assert "missing.alg" in err


def test_unknown_flag_is_usage_error():
    code, _, _ = invoke(["enumerate", "--algebra", data_path("a2.alg"),
                         "--bogus"])
    assert code == 2


def test_domain_error_exit_code(tmp_path):
    bad = tmp_path / "bad.alg"
    bad.write_text('field = "Q"\nvertices = ["1"]\n'
                   'arrow = { name = "x", source = "1", target = "1" }\n')
    code, _, err = invoke(["enumerate", "--algebra", str(bad)])
    assert code == 1
    assert "admissible" in err


def _loop_algebra(tmp_path, field, relation):
    path = tmp_path / "loop.alg"
    path.write_text(f'field = "{field}"\nvertices = ["1"]\n'
                    'arrow = { name = "x", source = "1", target = "1" }\n'
                    f'relations = ["{relation}"]\n')
    return str(path)


@pytest.mark.parametrize("field, relation",
                         [("Q", "1/0*x*x"), ("Fp:3", "1/3*x*x")])
def test_bad_relation_coefficient_is_usage_error(tmp_path, field, relation):
    code, out, err = invoke(["enumerate", "--algebra",
                             _loop_algebra(tmp_path, field, relation)])
    assert code == 2 and out == ""
    assert err.startswith("error:") and relation in err


@pytest.mark.parametrize("field, vertices", [
    ("5", '["1", "2", "3"]'), ('["Q"]', '["1", "2", "3"]'),
    ('"Q"', '{"1", "2", "3"}'), ('"Q"', '"123"')])
def test_malformed_field_or_vertices_is_usage_error(tmp_path, field,
                                                    vertices):
    path = tmp_path / "a3.alg"
    path.write_text(f"field = {field}\nvertices = {vertices}\n"
                    'arrow = { name = "a", source = "1", target = "2" }\n'
                    'arrow = { name = "b", source = "2", target = "3" }\n')
    code, out, err = invoke(["enumerate", "--algebra", str(path),
                             "--format", "json"])
    assert code == 2 and out == ""
    assert err.startswith("error:") and "line " in err


def test_bad_module_entry_is_usage_error(tmp_path):
    alg = tmp_path / "a2.alg"
    alg.write_text('field = "Fp:3"\nvertices = ["1", "2"]\n'
                   'arrow = { name = "a", source = "1", target = "2" }\n')
    mod = tmp_path / "bad.mod"
    mod.write_text('dim_vector = [1, 1]\n'
                   'arrow_matrix = { arrow = "a", rows = ["1/3"] }\n')
    code, out, err = invoke(["tau", "--algebra", str(alg),
                             "--module", str(mod)])
    assert code == 2 and out == ""
    assert err.startswith("error:") and "1/3" in err


def _a2_fp3(tmp_path):
    alg = tmp_path / "a2_fp3.alg"
    alg.write_text('field = "Fp:3"\nvertices = ["1", "2"]\n'
                   'arrow = { name = "a", source = "1", target = "2" }\n')
    return str(alg)


@pytest.mark.parametrize("field, pair, needle", [
    ("Q", [], "JSON object"),
    ("Q", {"modules": {}}, "modules"),
    ("Q", {"modules": [{"arrows": {}}]}, "dim_vector"),
    ("Q", {"modules": [{"dim_vector": [1, "x"]}]}, "dim_vector"),
    ("Q", {"modules": [{"dim_vector": [1, 0.5]}]}, "dim_vector"),
    ("Q", {"modules": [], "projective_part": [0, "x"]}, "projective_part"),
    ("Q", {"modules": [], "projective_part": [0, -1]}, "projective_part"),
    ("Fp:3", {"modules": [{"dim_vector": [1, 1], "arrows": {"a": [[1]]}}]},
     "string entries"),
])
def test_malformed_pair_file_is_usage_error(tmp_path, field, pair, needle):
    alg = data_path("a2.alg") if field == "Q" else _a2_fp3(tmp_path)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(pair))
    code, out, err = invoke(["gvectors", "--algebra", alg,
                             "--pair", str(path)])
    assert code == 2 and out == ""
    assert err.startswith("error:") and needle in err


def test_unknown_arrow_is_usage_error(tmp_path):
    mod = tmp_path / "b.mod"
    mod.write_text('dim_vector = [1, 1]\n'
                   'arrow_matrix = { arrow = "b", rows = ["1"] }\n')
    code, out, err = invoke(["check", "--algebra", data_path("a2.alg"),
                             "--module", str(mod)])
    assert code == 2 and out == ""
    assert err.startswith("error:") and "'b'" in err
    pair = tmp_path / "b.json"
    pair.write_text(json.dumps(
        {"modules": [{"dim_vector": [1, 1], "arrows": {"b": [["1"]]}}]}))
    code, out, err = invoke(["gvectors", "--algebra", data_path("a2.alg"),
                             "--pair", str(pair)])
    assert code == 2 and out == ""
    assert err.startswith("error:") and "'b'" in err


@pytest.mark.parametrize("text, needle", [
    ('dim_vector = [1, -1]\n', "dim_vector"),
    ('dim_vector = 1\n', "dim_vector"),
    ('dim_vector = [1, 1]\narrow_matrix = { arrow = "a", rows = [1] }\n',
     "rows"),
    ('dim_vector = [1, 1]\ndim_vector = [1, 0]\n',
     "duplicate key 'dim_vector'"),
    ('dim_vector = [1, 1]\narrow_matrix = { arrow = "a", rows = ["1"] }\n'
     'arrow_matrix = { arrow = "a", rows = ["0"] }\n',
     "duplicate arrow_matrix for arrow 'a'"),
])
def test_malformed_module_file_is_usage_error(tmp_path, text, needle):
    mod = tmp_path / "bad.mod"
    mod.write_text(text)
    code, out, err = invoke(["check", "--algebra", data_path("a2.alg"),
                             "--module", str(mod)])
    assert code == 2 and out == ""
    assert err.startswith("error:") and needle in err


@pytest.mark.parametrize("field, relation",
                         [("Q", "a*b - a*b"), ("Fp:2", "2*a*b")])
def test_a_relation_whose_terms_cancel_is_a_domain_error(tmp_path, field,
                                                         relation):
    alg = tmp_path / "a3.alg"
    alg.write_text(f'field = "{field}"\nvertices = ["1", "2", "3"]\n'
                   'arrow = { name = "a", source = "1", target = "2" }\n'
                   'arrow = { name = "b", source = "2", target = "3" }\n'
                   f'relations = ["{relation}"]\n')
    mod = tmp_path / "s1.mod"
    mod.write_text("dim_vector = [1, 0, 0]\n")
    code, out, err = invoke(["check", "--algebra", str(alg),
                             "--module", str(mod)])
    assert (code, out) == (1, "")
    assert err.startswith("error: relation ") and err.count("\n") == 1
    assert "cancel" in err


def _square(tmp_path, field, relation):
    """The commutative square 1 -> 2 -> 4, 1 -> 3 -> 4 under relation."""
    path = tmp_path / "square.alg"
    path.write_text(f'field = "{field}"\nvertices = ["1", "2", "3", "4"]\n'
                    'arrow = { name = "a", source = "1", target = "2" }\n'
                    'arrow = { name = "b", source = "2", target = "4" }\n'
                    'arrow = { name = "c", source = "1", target = "3" }\n'
                    'arrow = { name = "d", source = "3", target = "4" }\n'
                    f'relations = ["{relation}"]\n')
    return str(path)


@pytest.mark.parametrize("field, relation, prime, needle", [
    ("Q", "2*a*b", "2", "vanishes mod 2"),
    ("Q", "a*b - 3*c*d", "3", "vanishes mod 3"),
    ("Fp:5", "a*b - 2*c*d", "2", "GF(5)"),
    ("Fp:5", "a*b - 2*c*d", "3", "GF(5)")])
def test_oracle_refuses_a_change_of_algebra_mod_p(tmp_path, field, relation,
                                                  prime, needle):
    # reducing mod the prime would drop a term of the relation or re-read
    # residues of another prime
    code, out, err = invoke(["oracle", "--algebra",
                             _square(tmp_path, field, relation),
                             "--dim-bound", "1,1,1,1", "--prime", prime])
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert needle in err


def test_small_characteristic_radical_is_an_error():
    # End(P1) = F_2[x]/(x^2): the trace form cannot decide its radical
    code, out, err = invoke(["enumerate", "--algebra",
                             data_path("loop_arrow_f2.alg")])
    assert code == 1 and out == ""
    assert err.startswith("error:") and "p > dim" in err


def test_completion_failure_is_an_engine_error(monkeypatch):
    monkeypatch.setattr(twoterm, "_two_term_cone", lambda *args: None)
    for command in ("bongartz", "cocompletion"):
        code, _, err = invoke([command, "--algebra", data_path("a2.alg"),
                               "--pair", data_path("s1_pair.json")])
        assert code == 1
        assert err.startswith("error:") and "two-term" in err


def test_mutate_round_trip(tmp_path):
    pair = {
        "modules": [
            {"dim_vector": [1, 1], "arrows": {"a": [["1"]]}},
            {"dim_vector": [0, 1], "arrows": {}},
        ],
        "projective_part": [0, 0],
    }
    path = tmp_path / "top.json"
    path.write_text(json.dumps(pair))
    code, out, _ = invoke(["mutate", "--algebra", data_path("a2.alg"),
                           "--pair", str(path), "--index", "1"])
    assert code == 0
    data = json.loads(out)
    assert data["direction"] == "down"
    dims = sorted(tuple(m["dim_vector"]) for m in data["pair"]["modules"])
    assert dims == [(1, 0), (1, 1)]


def test_mutate_bad_index(tmp_path):
    pair = {"modules": [{"dim_vector": [1, 1], "arrows": {"a": [["1"]]}},
                        {"dim_vector": [0, 1], "arrows": {}}],
            "projective_part": [0, 0]}
    path = tmp_path / "top.json"
    path.write_text(json.dumps(pair))
    code, _, err = invoke(["mutate", "--algebra", data_path("a2.alg"),
                           "--pair", str(path), "--index", "5"])
    assert code == 1
    assert "range" in err


def test_bongartz_and_cocompletion():
    code, out, _ = invoke(["bongartz", "--algebra", data_path("a2.alg"),
                           "--pair", data_path("s1_pair.json")])
    assert code == 0
    data = json.loads(out)
    dims = sorted(tuple(m["dim_vector"]) for m in data["modules"])
    assert dims == [(1, 0), (1, 1)]
    code, out, _ = invoke(["cocompletion", "--algebra", data_path("a2.alg"),
                           "--pair", data_path("s1_pair.json")])
    assert code == 0
    data = json.loads(out)
    assert data["projective_part"] == [0, 1]
    assert [m["dim_vector"] for m in data["modules"]] == [[1, 0]]


def test_gvectors():
    code, out, _ = invoke(["gvectors", "--algebra", data_path("a2.alg"),
                           "--pair", data_path("s1_pair.json")])
    assert code == 0
    assert json.loads(out)["g_matrix"] == [[1, -1]]


@pytest.mark.parametrize("command, algebra, flag, data, extra", [
    ("tau", "a2.alg", "--module", "s1.mod", ["--format", "json"]),
    ("bongartz", "preproj_a3.alg", "--pair", "preproj_a3_pair.json", []),
    ("gvectors", "preproj_a3.alg", "--pair", "preproj_a3_pair.json", [])],
    ids=["tau", "bongartz", "gvectors"])
def test_json_output_holds_no_float(command, algebra, flag, data, extra):
    code, out, _ = invoke([command, "--algebra", data_path(algebra),
                           flag, data_path(data)] + extra)
    assert code == 0
    loads_without_floats(out)


def test_tilting_command(tmp_path):
    code, out, _ = invoke(["tilting", "--algebra", data_path("a2.alg"),
                           "--module", data_path("p1.mod")])
    assert code == 0
    assert "classical-tilting: false" in out  # P1 alone is not tilting
    # A itself is tilting
    amod = tmp_path / "a.mod"
    amod.write_text('dim_vector = [1, 2]\n'
                    'arrow_matrix = { arrow = "a", rows = ["1 0"] }\n')
    code, out, _ = invoke(["tilting", "--algebra", data_path("a2.alg"),
                           "--module", str(amod)])
    assert code == 0
    assert "classical-tilting: true" in out


def test_oracle_command_matches_enumerate_keys():
    code, out, _ = invoke(["oracle", "--algebra", data_path("a2.alg"),
                           "--dim-bound", "1,1"])
    assert code == 0
    oracle_data = json.loads(out)
    code, out, _ = invoke(["enumerate", "--algebra", data_path("a2.alg"),
                           "--format", "json"])
    engine_data = json.loads(out)
    okeys = sorted(tuple(map(tuple, n["g_matrix"]))
                   for n in oracle_data["nodes"])
    ekeys = sorted(tuple(map(tuple, n["g_matrix"]))
                   for n in engine_data["nodes"])
    assert okeys == ekeys


@pytest.mark.parametrize("prime", ["4", "1", "0"])
def test_oracle_rejects_a_non_prime(prime):
    code, out, err = invoke(["oracle", "--algebra", data_path("a2.alg"),
                             "--dim-bound", "1,1", "--prime", prime])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "prime" in err


@pytest.mark.parametrize("bound", ["-1,1", "1,-1"])
def test_oracle_rejects_a_negative_dim_bound(bound):
    code, out, err = invoke(["oracle", "--algebra", data_path("a2.alg"),
                             f"--dim-bound={bound}"])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "--dim-bound" in err


@pytest.mark.parametrize("max_nodes", ["0", "-3"])
def test_enumerate_rejects_max_nodes_below_one(max_nodes):
    code, out, err = invoke(["enumerate", "--algebra", data_path("a2.alg"),
                             f"--max-nodes={max_nodes}"])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "--max-nodes" in err


def test_enumerate_max_nodes_one():
    code, out, _ = invoke(["enumerate", "--algebra", data_path("a2.alg"),
                           "--max-nodes", "1", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert len(data["nodes"]) == 1 and data["flags"]["complete"] is False


def golden(name):
    with open(os.path.join(GOLDENS, name), "r", encoding="utf-8") as fh:
        return fh.read()


def test_goldens_byte_identical():
    for args, name in [
        (["enumerate", "--algebra", data_path("a2.alg"), "--format", "json"],
         "a2_enumerate.json"),
        (["enumerate", "--algebra", data_path("a2.alg"), "--format", "dot"],
         "a2_enumerate.dot"),
        (["oracle", "--algebra", data_path("a2.alg"), "--dim-bound", "1,1"],
         "a2_oracle.json"),
        # many repeated module summands, some with a nonzero End radical
        (["enumerate", "--algebra", data_path("preproj_a3.alg"),
          "--format", "json"],
         "preproj_a3_enumerate.json"),
    ]:
        code, out, _ = invoke(args)
        assert code == 0
        assert out == golden(name)
        # determinism: run twice
        code2, out2, _ = invoke(args)
        assert out2 == out


# SHA-256 and size of `enumerate --format json` on linear A6 (429 pairs);
# the field is not printed and every H^0 entry is 0 or 1, so Q and GF(3)
# give the same text.  A new digest means the output changed: update it
# only together with a deliberate change of the output.
A6_JSON_SHA256 = \
    "2ff97af114043d9fdbb8ac3b8b243d4b50a0a835b3113e27a4f52ac59c9ca01b"
A6_JSON_BYTES = 1240007


def _a6_file(tmp_path, field):
    names = ", ".join(f'"{v}"' for v in range(1, 7))
    arrows = "".join(
        f'arrow = {{ name = "a{i}", source = "{i}", target = "{i + 1}" }}\n'
        for i in range(1, 6))
    path = tmp_path / "a6.alg"
    path.write_text(f'field = "{field}"\nvertices = [{names}]\n' + arrows)
    return path


@pytest.mark.parametrize("field", ["Q", "Fp:3"])
def test_a6_enumerate_json_is_byte_identical(tmp_path, field):
    code, out, err = invoke(["enumerate", "--algebra",
                             str(_a6_file(tmp_path, field)),
                             "--format", "json"])
    assert (code, err) == (0, "")
    data = out.encode()
    assert len(data) == A6_JSON_BYTES
    assert hashlib.sha256(data).hexdigest() == A6_JSON_SHA256


def test_a_reader_closing_early_ends_the_cli_quietly(tmp_path):
    # the A6 JSON is larger than a pipe buffer, so the CLI is still
    # writing when its reader goes: it exits as if killed by SIGPIPE
    # (128 + 13), with no traceback
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    with subprocess.Popen(
            [sys.executable, "-m", "tautilt.cli", "enumerate", "--algebra",
             str(_a6_file(tmp_path, "Q")), "--format", "json"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        err = proc.stderr.read()
        assert (proc.wait(timeout=120), err) == (141, b"")


def test_json_round_trip():
    code, out, _ = invoke(["enumerate", "--algebra", data_path("a2.alg"),
                           "--format", "json"])
    data = json.loads(out)
    again = json.dumps(data, indent=2, sort_keys=True)
    assert again.strip() == out.strip()


# SHA-256 and size of `enumerate --max-nodes 30 --format json` on the
# Kronecker quiver, cut off at its node budget (`complete: false`); its
# H^0 matrices are larger than those of A6.  As above, a new digest
# means the output changed.
KRONECKER_30_JSON_SHA256 = \
    "6fa83fc803cf3be193cdd2f678cdf86f7351ab1660df4fcc712ef75ac34e928d"
KRONECKER_30_JSON_BYTES = 718500


def test_kronecker_30_enumerate_json_is_byte_identical():
    code, out, err = invoke(["enumerate", "--algebra",
                             data_path("kronecker.alg"), "--max-nodes", "30",
                             "--format", "json"])
    assert (code, err) == (0, "")
    data = out.encode()
    assert len(data) == KRONECKER_30_JSON_BYTES
    assert hashlib.sha256(data).hexdigest() == KRONECKER_30_JSON_SHA256
