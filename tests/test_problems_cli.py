"""Problem spec parsing, example builders, CLI commands and exit codes."""

import dataclasses
import functools
import hashlib
import itertools
import json
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

import csymlab as cs
from csymlab.cli import _jsonify, build_parser, load_problem, main

from conftest import check_trusted_bases, count_calls, nonblock_parameter, patch_everywhere

SYMMETRIC_SPEC = {
    "name": "toy",
    "dim": 2,
    "conjugation": {"kind": "entrywise"},
    "operator": {"images": [[[2.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [1.0, 0.0]]]},
}


def write_spec(tmp_path, data, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def test_spec_from_dict_full_matrix():
    spec = cs.spec_from_dict(SYMMETRIC_SPEC)
    rel = spec.relation()
    assert rel.is_everywhere_defined and rel.is_operator
    # images are columns: the matrix sends e1 -> (2, i) and e2 -> (i, 1)
    np.testing.assert_allclose(spec.matrix(), [[2.0, 1j], [1j, 1.0]], atol=1e-12)


def test_spec_complex_entries_and_scalars():
    data = {
        "dim": 1,
        "conjugation": {"kind": "entrywise"},
        "operator": {"images": [[[0.0, 1.0]]]},
    }
    spec = cs.spec_from_dict(data)
    np.testing.assert_allclose(spec.matrix(), [[1j]])
    # plain numbers are accepted as real scalars
    data["operator"]["images"] = [[3.5]]
    np.testing.assert_allclose(cs.spec_from_dict(data).matrix(), [[3.5]])


def test_spec_restricted_domain():
    data = {
        "dim": 3,
        "conjugation": {"kind": "flip"},
        "operator": {
            "domain_basis": [[1.0, 0.0, 0.0]],
            "images": [[0.0, 1.0, 0.0]],
        },
    }
    rel = cs.spec_from_dict(data).relation()
    assert rel.domain().dim == 1
    assert not rel.is_everywhere_defined


def test_spec_takes_an_orthonormal_domain_as_given(monkeypatch):
    # every fixture's domain columns are orthonormal: they become the
    # relation's domain bit for bit, with no SVD of their own
    spec = cs.race_schrodinger(16)
    calls = count_calls(monkeypatch, cs.linalg, "orthonormal_basis")
    rel = spec.relation()
    assert len(calls) == 0
    assert rel.domain().basis.tobytes() == spec.domain_basis.tobytes()
    assert rel.is_operator and rel.multivalued_part().dim == 0


def test_spec_domain_independence_is_decided_at_its_tolerance(tmp_path, capsys):
    # columns e1 and e1 + 1e-12 e2: independent, not orthonormal.  The one
    # rank decision on an operator input is taken where the spec builds its
    # relation, so a direct construction, a fixture and --tol go through it
    domain = np.array([[1.0, 1.0], [0.0, 1e-12], [0.0, 0.0]], dtype=complex)
    spec = cs.ProblemSpec("near", 3, "entrywise", None, domain, domain, cs.Tolerance(1e-14))
    with pytest.warns(UserWarning, match="not orthonormal"):
        assert spec.relation().graph.dim == 2
    with pytest.raises(cs.InputError, match="linearly dependent"), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        dataclasses.replace(spec, tol=cs.DEFAULT_TOL).relation()
    path = write_spec(tmp_path, dataclasses.replace(spec, tol=cs.DEFAULT_TOL).to_json_dict())
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main(["check", "--spec", path]) == 2
        assert "linearly dependent" in capsys.readouterr().err
        assert main(["check", "--spec", path, "--tol", "1e-14"]) == 0
    assert json.loads(capsys.readouterr().out)["results"]["is_operator"] is True


def test_spec_error_pointers():
    bad = {"dim": 2, "conjugation": {"kind": "entrywise"}}
    with pytest.raises(cs.InputError, match="/operator"):
        cs.spec_from_dict(bad)
    bad = {"dim": 0, "conjugation": {"kind": "entrywise"}, "operator": {"images": []}}
    with pytest.raises(cs.InputError, match="/dim"):
        cs.spec_from_dict(bad)
    bad = dict(SYMMETRIC_SPEC, conjugation={"kind": "nonsense"})
    with pytest.raises(cs.InputError, match="/conjugation"):
        cs.spec_from_dict(bad)
    bad = dict(SYMMETRIC_SPEC, operator={"images": [[[2.0, 0.0]], [[0.0, 1.0]]]})
    with pytest.raises(cs.InputError, match="/operator/images"):
        cs.spec_from_dict(bad)


def test_spec_rejects_nonsymmetric_conjugation_matrix():
    k = [[[0.0, 0.0], [1.0, 0.0]], [[-1.0, 0.0], [0.0, 0.0]]]  # unitary, K^T = -K
    bad = dict(SYMMETRIC_SPEC, conjugation={"kind": "matrix", "matrix": k})
    with pytest.raises(cs.InputError, match="symmetr"):
        cs.spec_from_dict(bad)


def test_spec_digest_stable_and_sensitive():
    a = cs.spec_from_dict(SYMMETRIC_SPEC)
    b = cs.spec_from_dict(json.loads(json.dumps(SYMMETRIC_SPEC)))
    assert a.digest() == b.digest()
    changed = json.loads(json.dumps(SYMMETRIC_SPEC))
    changed["operator"]["images"][0][0][0] = 2.5
    assert cs.spec_from_dict(changed).digest() != a.digest()


def test_encode_matrix_matches_per_entry_encoding():
    m = np.array([[0.0, -0.0 + 1j, 1.5 - 0.0j], [-0.0 - 0.0j, 2.0 - 3j, 1e-300 + 0j]])
    per_entry = [[[float(z.real), float(z.imag)] for z in m[:, j]] for j in range(m.shape[1])]
    encoded = cs.problems.encode_matrix(m)
    assert encoded == per_entry
    assert json.dumps(encoded) == json.dumps(per_entry)
    assert "-0.0" in json.dumps(encoded)
    assert cs.problems.encode_matrix(np.zeros((3, 0))) == []


def test_inputs_digest_pinned(capsys):
    # hashes the canonical byte form of the spec (ProblemSpec.digest), so a
    # change to the byte form moves it
    assert main(["check", "--example", "race_schrodinger", "--n", "8"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["inputs_digest"] == "c06ead05b19425000031f29fe8be135e6da418326cb55123555265533e56930a"


def json_digest(spec):
    """sha256 of the sorted, compact JSON of spec.to_json_dict(): the digest
    before the byte form, kept as the oracle of its equivalence."""
    payload = json.dumps(spec.to_json_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def _with_entry(spec, value, row=0, col=0):
    images = spec.images.copy()
    images[row, col] = value
    return dataclasses.replace(spec, images=images)


def _storing(spec, images):
    """spec holding images as given, past the C-order copy of __post_init__."""
    out = dataclasses.replace(spec)
    object.__setattr__(out, "images", images)
    return out


def digest_corpus():
    """Specs that agree or differ in one way each: memory layout, signed
    zeros, one ulp, name, tol, conjugation kind, an explicit domain, and the
    JSON round trip."""
    toy = cs.spec_from_dict(SYMMETRIC_SPEC)  # images hold exact zeros
    rest = cs.random_restriction(5, seed=2)  # kind matrix, with a domain
    n = toy.dim
    z = complex(toy.images[0, 0])
    return [
        toy,
        # F order and strided views, stored as given and copied to C order
        _storing(toy, np.asfortranarray(toy.images)),
        _storing(toy, np.repeat(toy.images, 2, axis=1)[:, ::2]),
        dataclasses.replace(toy, images=np.asfortranarray(toy.images)),
        dataclasses.replace(toy, images=np.repeat(toy.images, 2, axis=1)[:, ::2]),
        dataclasses.replace(toy, images=np.repeat(toy.images, 3, axis=0)[::3]),
        cs.spec_from_dict(toy.to_json_dict()),
        cs.spec_from_dict(json.loads(json.dumps(toy.to_json_dict()))),
        _with_entry(toy, complex(z.real, -0.0)),
        _with_entry(toy, complex(-0.0, toy.images[1, 0].imag), 1, 0),
        _with_entry(toy, complex(np.nextafter(z.real, np.inf), z.imag)),
        dataclasses.replace(toy, name="toy2"),
        dataclasses.replace(toy, tol=cs.Tolerance(toy.tol.eps * 10)),
        dataclasses.replace(toy, tol=cs.Tolerance(np.nextafter(toy.tol.eps, 1.0))),
        dataclasses.replace(toy, conjugation_kind="matrix", conjugation_matrix=np.eye(n)),
        dataclasses.replace(toy, conjugation_matrix=np.eye(n)),
        dataclasses.replace(toy, domain_basis=np.eye(n)),
        dataclasses.replace(toy, conjugation_kind="flip"),
        rest,
        dataclasses.replace(rest, domain_basis=np.asfortranarray(rest.domain_basis)),
        dataclasses.replace(rest, conjugation_matrix=rest.conjugation_matrix.T.copy().T),
        cs.spec_from_dict(rest.to_json_dict()),
        dataclasses.replace(rest, domain_basis=-rest.domain_basis, images=-rest.images),
    ]


def test_spec_digest_separates_what_the_json_digest_separates():
    corpus = digest_corpus()
    new = [spec.digest() for spec in corpus]
    old = [json_digest(spec) for spec in corpus]
    for i, j in itertools.combinations(range(len(corpus)), 2):
        assert (new[i] == new[j]) == (old[i] == old[j]), (corpus[i].name, corpus[j].name, i, j)
    # the corpus has equal pairs (layouts, round trips) and separated ones
    assert 1 < len(set(new)) < len(corpus)


def test_parse_spec_round_trip(tmp_path):
    path = write_spec(tmp_path, SYMMETRIC_SPEC)
    spec = cs.parse_spec(path)
    assert spec.name == "toy"
    rebuilt = cs.spec_from_dict(spec.to_json_dict())
    assert rebuilt.digest() == spec.digest()


def test_parse_spec_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(cs.InputError):
        cs.parse_spec(str(path))


def test_build_example_dispatch():
    spec = cs.build_example("race_schrodinger", n=8, h=0.25)
    assert spec.dim == 8
    with pytest.raises(cs.InputError):
        cs.build_example("unknown_example")
    with pytest.raises(cs.InputError):
        cs.build_example("race_schrodinger", bogus=1)


def test_example_fixture_properties():
    race = cs.race_schrodinger(16)
    rel, c = race.relation(), race.conjugation()
    assert cs.is_c_symmetric(rel, c)
    assert not cs.is_c_selfadjoint(rel, c)
    fd = cs.fd_derivative_minimal()
    rel, c = fd.relation(), fd.conjugation()
    # the restriction to interior grid points is C-symmetric only; the full
    # matrix is Hermitian and C-real, hence C-self-adjoint
    assert cs.is_c_symmetric(rel, c)
    assert not cs.is_c_selfadjoint(rel, c)
    n, h = 8, 0.25
    off = np.ones(n - 1) / (2.0 * h)
    full = cs.from_matrix(1j * (np.diag(off, 1) - np.diag(off, -1)))
    assert cs.is_c_selfadjoint(full, c)
    with pytest.raises(cs.InputError):
        cs.zero_on_subspace(3)


@pytest.mark.parametrize("example", ["race_schrodinger", "fd_derivative_minimal", "random_csym"])
def test_cli_tol_reaches_the_conjugation(example):
    # entrywise, flip and matrix conjugations: --tol reaches C and frakE as
    # it reaches A and everything built from it
    spec = load_problem(build_parser().parse_args(["check", "--example", example, "--tol", "1e-12"]))
    dp = spec.doubled()
    assert spec.tol == cs.Tolerance(1e-12)
    objects = (spec.conjugation(), dp.c, dp.frakC, dp.a, dp.a_star, dp.b_star, dp.n_plus)
    assert all(obj.tol == spec.tol for obj in objects)


def test_cli_check_runs(capsys):
    code = main(["check", "--example", "fd_derivative_minimal"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["all_pass"] is True
    assert out["command"] == "check"
    assert out["results"]["c_symmetric"] is True
    assert out["results"]["c_selfadjoint"] is False


def test_cli_exit_code_2_on_bad_input(tmp_path, capsys):
    assert main(["check", "--spec", str(tmp_path / "missing.json")]) == 2
    bad = write_spec(tmp_path, {"dim": 2, "conjugation": {"kind": "entrywise"}})
    assert main(["check", "--spec", bad]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "dim, images, pointer",
    [
        (2, [[float("nan"), 0.0], [0.0, 1.0]], "/operator/images/0/0"),
        (2, [[[2.0, float("inf")], 0.0], [0.0, 1.0]], "/operator/images/0/0"),
        (2, [[True, 0.0], [0.0, 1.0]], "/operator/images/0/0"),
        (2, [[0.0, 10**400], [0.0, 1.0]], "/operator/images/0/1"),
        (True, [[2.0]], "/dim"),
    ],
    ids=["nan_image", "infinite_entry", "boolean_image", "huge_integer", "boolean_dim"],
)
def test_cli_rejects_nonfinite_and_boolean_numbers(tmp_path, capsys, dim, images, pointer):
    # json accepts NaN, Infinity and true, and bool is an int in Python
    data = {"dim": dim, "conjugation": {"kind": "entrywise"}, "operator": {"images": images}}
    assert main(["check", "--spec", write_spec(tmp_path, data)]) == 2
    captured = capsys.readouterr()
    assert not captured.out
    assert f"error: {pointer}:" in captured.err


@pytest.mark.parametrize(
    "example, h",
    [
        ("race_schrodinger", "nan"),
        ("race_schrodinger", "inf"),
        ("race_schrodinger", "1e-160"),
        ("race_schrodinger", "1e300"),
        ("fd_derivative_minimal", "nan"),
    ],
)
def test_cli_rejects_bad_grid_spacing(capsys, example, h):
    # NaN passes an "h <= 0" guard; 1e-160 and 1e300 are finite spacings
    # whose matrices overflow
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["check", "--example", example, "--h", h]) == 2
    captured = capsys.readouterr()
    assert not captured.out and caught == []
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_parameter_file_rejects_nonfinite_entries(tmp_path):
    path = tmp_path / "param.json"
    path.write_text(json.dumps({"kind": "unitary", "matrix": [[[1.0, float("nan")]]]}))
    with pytest.raises(cs.InputError, match="/matrix/0/0"):
        cs.cli.load_parameter(path)


def test_cli_check_names_are_unique(capsys):
    # cmd_extend looks checks up by name, and a repeated name would hide one
    reports = 0
    for source in (
        ("--example", "race_schrodinger", "--n", "8"),
        ("--example", "fd_derivative_minimal", "--n", "8"),
        ("--example", "zero_on_subspace", "--n", "8"),
        ("--example", "random_csym", "--n", "6"),
    ):
        for command in cs.cli.COMMANDS:
            if main([command, *source, "--budget", "2" if command == "powers" else "200"]) == 2:
                continue  # outside the command's hypotheses: no report
            names = [check["name"] for check in json.loads(capsys.readouterr().out)["check_list"]]
            assert len(names) == len(set(names)), (command, source)
            reports += 1
    capsys.readouterr()
    # polar, takagi and powers need a matrix; takagi also needs A = A^T
    assert reports == 22


def test_cli_requires_exactly_one_source():
    with pytest.raises(SystemExit) as info:
        main(["check"])
    assert info.value.code == 2


def test_cli_deficiency_values(capsys):
    code = main(["deficiency", "--example", "race_schrodinger", "--n", "16"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["results"]["n_plus"] == 4
    assert out["results"]["n_minus"] == 4


def test_cli_extend_param_roundtrip(tmp_path, capsys):
    code = main(["extend", "--example", "zero_on_subspace", "--n", "4"])
    first = json.loads(capsys.readouterr().out)
    assert code == 0
    param_path = tmp_path / "param.json"
    param_path.write_text(
        json.dumps({"kind": "unitary", "matrix": first["results"]["parameter_unitary"]})
    )
    code = main(
        ["extend", "--example", "zero_on_subspace", "--n", "4", "--param", str(param_path)]
    )
    second = json.loads(capsys.readouterr().out)
    assert code == 0
    assert second["results"]["parameter_unitary"] == first["results"]["parameter_unitary"]


def test_cli_extend_rejects_nonblock_param(tmp_path, capsys):
    # i J0, J0 the canonical extension's conjugation: admissible upstairs,
    # no block structure downstairs (D U D U = -I in every basis); the
    # coordinate matrix of the induced unitary is recomputed here and fed
    # through the CLI, expecting exit code 1
    spec = cs.zero_on_subspace(4)
    dp = cs.build_doubled(spec.relation(), spec.conjugation())
    from csymlab.extensions import parameter_as_unitary

    u = parameter_as_unitary(dp, nonblock_parameter(dp))
    param_path = tmp_path / "bad.json"
    param_path.write_text(json.dumps({"kind": "unitary", "matrix": cs.problems.encode_matrix(u)}))
    code = main(
        ["extend", "--example", "zero_on_subspace", "--n", "4", "--param", str(param_path)]
    )
    out = json.loads(capsys.readouterr().out)
    assert code == 1
    assert out["all_pass"] is False
    assert "block" in out["error"]


def test_cli_takagi_on_spec_file(tmp_path, capsys):
    path = write_spec(tmp_path, SYMMETRIC_SPEC)
    code = main(["takagi", "--spec", path])
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and out["all_pass"] is True


def test_cli_takagi_rejects_restriction(capsys):
    code = main(["takagi", "--example", "race_schrodinger", "--n", "8"])
    capsys.readouterr()
    assert code == 2


def test_cli_enumerate(capsys):
    code = main(["enumerate", "--example", "zero_on_subspace", "--n", "4", "--budget", "200"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["results"]["hits"] >= 1
    assert out["results"]["max_roundtrip_angle"] <= 1e-9
    assert out["all_pass"] is True


@pytest.mark.parametrize(
    "example, n, hits, operator_hits",
    [
        ("race_schrodinger", 16, 57, 57),
        ("zero_on_subspace", 16, 33, 23),
        ("race_schrodinger", 32, 93, 88),
        ("fd_derivative_minimal", 16, 56, 56),
    ],
)
def test_cli_enumerate_pinned_hits(capsys, example, n, hits, operator_hits):
    # the brute-force sweep draws candidates in the bases of frakM and of its
    # aligned pools, so a change to either basis moves these counts (of the
    # first three, only race_schrodinger n=32 moves with the pool basis alone)
    argv = ["enumerate", "--example", example, "--n", str(n), "--budget", "200", "--seed", "0"]
    assert main(argv) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["results"]["hits"], out["results"]["operator_hits"]) == (hits, operator_hits)


@pytest.mark.parametrize("command", ["extend", "deficiency", "enumerate", "verify-all"])
def test_cli_builds_doubled_problem_once(monkeypatch, capsys, command):
    # every command reads the doubled problem from ProblemSpec.doubled()
    calls = count_calls(monkeypatch, cs.doubling, "build_doubled")
    assert main([command, "--example", "race_schrodinger", "--n", "8", "--budget", "200"]) == 0
    capsys.readouterr()
    assert len(calls) == 1


def test_cli_verify_all_builds_relation_once(monkeypatch, capsys):
    calls = count_calls(monkeypatch, cs.relations, "from_matrix")
    assert main(["verify-all", "--example", "random_csym", "--n", "6"]) == 0
    capsys.readouterr()
    assert len(calls) == 1


def test_cli_verify_all_adjoint_count_pinned(monkeypatch, capsys):
    # A* is built once, by check's C-symmetry test, and reused from the cache
    # by the domain criterion and the doubling; frakA* is read as the block
    # pair (B*, A*), and C-self-adjointness, the extensions' domain_sum_star
    # and vn build none
    calls = count_calls(monkeypatch, cs.LinearRelation, "_adjoint")
    assert main(["verify-all", "--example", "race_schrodinger", "--n", "16"]) == 0
    capsys.readouterr()
    assert len(calls) == 1


def _record_svd_rows(monkeypatch):
    """The row count of every np.linalg.svd operand, of each matrix of a
    stack, in call order."""
    rows = []
    svd = np.linalg.svd

    def counted_svd(a, *args, **kwargs):
        rows.append(np.shape(a)[-2])
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    return rows


DEFECT_COMMANDS = (["deficiency"], ["extend"], ["extend", "--swap"], ["verify-all"])


@pytest.mark.parametrize("command", DEFECT_COMMANDS, ids=" ".join)
def test_cli_defect_geometry_takes_no_svd_in_c4n(monkeypatch, capsys, command):
    # N+- come from frakM in C^(2n), the doubled extension grows graph(frakA)
    # by columns orthonormal as built, and vn reads frakA, frakA* and N_hat+-
    # as block pairs of 2n-row pieces, so no SVD has more than 2n rows
    rows = _record_svd_rows(monkeypatch)
    n = 16
    assert main([*command, "--example", "race_schrodinger", "--n", str(n), "--h", "0.02"]) == 0
    capsys.readouterr()
    assert rows and max(rows) <= 2 * n


@pytest.mark.parametrize("name", sorted(cs.fixtures.EXAMPLE_BUILDERS))
def test_cli_defect_commands_build_no_block_relation(monkeypatch, capsys, name):
    # build_doubled decides frakA* on the one-space graphs, deficiency counts
    # their dimensions, the extension checks read the row blocks of the
    # deficiency columns and vn reads graph(frakA), graph(frakA*) and N_hat+-
    # as block pairs, so the package has no 4n-row block constructor, nor
    # the intersection of frakA* with the graphs of +-i, and these commands
    # take no SVD with more than 2n rows on every fixture
    for module in [mod for name_, mod in sys.modules.items() if name_.partition(".")[0] == "csymlab"]:
        assert not {"block_relation", "_block_columns"} & set(vars(module)), module.__name__
    assert not any(hasattr(cs.LinearRelation, name_) for name_ in ("imaginary_members", "_imaginary_members"))
    assert not any(hasattr(cs.DoubledProblem, name_) for name_ in ("frakA", "frakA_star"))
    rows = _record_svd_rows(monkeypatch)
    n = 16
    for command in DEFECT_COMMANDS:
        assert main([*command, "--example", name, "--n", str(n)]) == 0, command
    capsys.readouterr()
    assert rows and max(rows) <= 2 * n


def test_cli_extend_traced_peak_pinned(capsys):
    # no 4n x 2n graph basis of frakA, frakA* or frak(A)_U is built: the
    # traced peak of extend at n = 256 was 72.7 MB with them, 35.4 MB without
    tracemalloc.start()
    try:
        assert main(["extend", "--example", "race_schrodinger", "--h", "0.02", "--n", "256"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert peak <= 45e6, peak


@pytest.mark.parametrize("command", ["extend", "verify-all"])
@pytest.mark.parametrize("source", ["example", "spec"])
def test_cli_digest_builds_no_json_form(tmp_path, monkeypatch, capsys, command, source):
    # inputs_digest hashes the spec's bytes: no report encodes its spec as JSON
    if source == "example":
        argv = [command, "--example", "race_schrodinger", "--n", "16"]
    else:
        argv = [command, "--spec", write_spec(tmp_path, cs.random_restriction(6, seed=0).to_json_dict())]
    calls = count_calls(monkeypatch, cs.ProblemSpec, "to_json_dict")
    assert main(argv) == 0
    assert len(json.loads(capsys.readouterr().out)["inputs_digest"]) == 64
    assert len(calls) == 0


def test_cli_extend_checks_conjugation_axioms_in_n_dimensions(monkeypatch, capsys):
    # frakE = [[0, K], [K, 0]] has C's axiom residuals, so doubled_conjugation
    # does not check them again on the 2n x 2n matrix
    shapes = []
    original = cs.antilinear.conjugation_axiom_residuals

    def recorded(matrix):
        shapes.append(np.shape(matrix))
        return original(matrix)

    patch_everywhere(monkeypatch, cs.antilinear, "conjugation_axiom_residuals", recorded)
    n = 128
    assert main(["extend", "--example", "race_schrodinger", "--h", "0.02", "--n", str(n)]) == 0
    capsys.readouterr()
    assert (n, n) in shapes
    assert max(max(shape) for shape in shapes) == n


@pytest.mark.parametrize("source", ["random_csym", "race_schrodinger"])
def test_cli_verify_all_checks_conjugation_axioms_once(tmp_path, monkeypatch, capsys, source):
    # the spec builds its conjugation once, and frakE repeats none of C's
    # checks; random_csym's C is of kind matrix, race's entrywise
    if source == "random_csym":
        argv = ["--spec", write_spec(tmp_path, cs.random_csym(64, seed=0).to_json_dict())]
    else:
        argv = ["--example", source, "--n", "16"]
    calls = count_calls(monkeypatch, cs.antilinear, "conjugation_axiom_residuals")
    assert main(["verify-all", *argv]) == 0
    capsys.readouterr()
    assert len(calls) == 1


def test_cli_verify_all_gram_checks_pinned(monkeypatch, capsys):
    # every basis of an --example input is built inside the package and is
    # orthonormal by construction, so none runs the checked constructor
    calls = count_calls(monkeypatch, cs.Subspace, "__post_init__")
    assert main(["verify-all", "--example", "race_schrodinger", "--n", "16"]) == 0
    capsys.readouterr()
    assert len(calls) == 0


def test_cli_powers_doubles_the_matrix_once(monkeypatch, capsys):
    # frakA and ||A||_2 are built once per report and read by every exponent
    doubles = count_calls(monkeypatch, cs.powers, "doubled_matrix")
    norms = count_calls(monkeypatch, cs.linalg, "_spectral_norm")
    assert main(["powers", "--example", "random_csym", "--n", "6", "--budget", "4"]) == 0
    capsys.readouterr()
    assert (len(doubles), len(norms)) == (1, 1)


def test_cli_polar_modulus_norm_is_the_top_singular_value(capsys):
    assert main(["polar", "--example", "random_csym", "--n", "6"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["results"]["modulus_norm"] == float(cs.random_csym(6, seed=0).polar().s[0])


def _complex_symmetric_n32(tmp_path):
    m = cs.random_symmetric(32, np.random.default_rng([0, 2]))
    spec = cs.ProblemSpec("complex_symmetric_n32", 32, "entrywise", None, None, m, cs.DEFAULT_TOL)
    return write_spec(tmp_path, spec.to_json_dict())


def test_cli_verify_all_factors_each_matrix_once(tmp_path, monkeypatch, capsys):
    # polar factors A once for covariance, the CJT split and takagi, and CAC
    # once for covariance; the QA partial sums do not depend on the exponent
    polars = count_calls(monkeypatch, sys.modules["csymlab.polar"], "polar")  # cs.polar is the function
    sums = count_calls(monkeypatch, cs.powers, "qa_partial_sums")
    assert main(["verify-all", "--spec", _complex_symmetric_n32(tmp_path)]) == 0
    capsys.readouterr()
    assert (len(polars), len(sums)) == (2, 1)


@pytest.mark.parametrize(
    "command, source, ranks, vectors",
    [
        ("check", "complex_symmetric", 0, 0),
        ("verify-all", "complex_symmetric", 2, 0),
        ("verify-all", ("--example", "zero_on_subspace", "--n", "16"), 2, 1),
    ],
    ids=["check-0", "verify-all-2", "verify-all-multivalued-2"],
)
def test_cli_top_block_svd_count_pinned(tmp_path, monkeypatch, capsys, command, source, ranks, vectors):
    # domain, multivalued part and operator test share one values-only rank
    # read per relation given by its graph whose domain is read: in verify-all
    # the two extensions'.  check reads no D(A*).  A and B = CAC carry their
    # domains, and vn's regime reads their operator tests, so it takes none.
    # Singular vectors are taken only for a proper domain or a nonzero
    # multivalued part: never for complex_symmetric's extensions (A itself,
    # everywhere defined), once for zero_on_subspace's multivalued swap (its
    # canonical extension, the completion X = 0, is an operator)
    if source == "complex_symmetric":
        source = ("--spec", _complex_symmetric_n32(tmp_path))
    rank_reads = count_calls(monkeypatch, cs.LinearRelation, "_top_rank")
    vector_svds = count_calls(monkeypatch, cs.LinearRelation, "_top_svd")
    assert main([command, *source]) == 0
    capsys.readouterr()
    assert (len(rank_reads), len(vector_svds)) == (ranks, vectors)


def _count_numpy_linalg(monkeypatch, *names):
    """Count calls of each np.linalg function named, by name."""
    calls = []
    for name in names:
        original = getattr(np.linalg, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def test_cli_extend_svd_count_pinned(monkeypatch, capsys):
    # one top-block SVD per relation given by its graph whose domain is read
    # (the extension), and no M-spaces beyond frakM; A carries its domain and
    # images under C, frakE and S (B, C D(A), C L's domain, S L) take none.
    # The Gram eigenvalues are those of the reported 2-norms and of
    # extend_basis's rank scale, none of a predicate.  Of the 11 SVDs two
    # are O(n^3): graph(A)'s thin SVD of [D; AD] and the extension's
    # values-only top-block rank.  frakM and D(A)'s complement are one thin
    # SVD each of their chosen projector columns (256 x 4, 128 x 2), the
    # completion's new columns one more (256 x 2), and the bordered sums
    # and the domain sum the rest; neither A* nor B* is built, so no QR runs
    calls = _count_numpy_linalg(monkeypatch, "svd", "eigvalsh", "qr")
    assert main(["extend", "--example", "race_schrodinger", "--h", "0.02", "--n", "128"]) == 0
    capsys.readouterr()
    assert (calls.count("svd"), calls.count("eigvalsh"), calls.count("qr")) == (11, 10, 0)


@pytest.mark.parametrize("command", ["deficiency", "extend"])
def test_cli_defect_path_builds_no_adjoint(monkeypatch, capsys, command):
    # deficiency and extend count dim graph(R*) = 2n - dim graph(R) and read
    # distances from graph(B*) and graph(A*) along J graph(B) and J graph(A):
    # no QR and no LinearRelation._adjoint
    qrs = _count_numpy_linalg(monkeypatch, "qr")
    adjoints = count_calls(monkeypatch, cs.LinearRelation, "_adjoint")
    assert main([command, "--example", "race_schrodinger", "--h", "0.02", "--n", "128"]) == 0
    capsys.readouterr()
    assert (qrs, adjoints) == ([], [])


def _record_svds(monkeypatch):
    """The shape and compute_uv flag of every np.linalg.svd call."""
    calls = []
    original = np.linalg.svd

    def recorded(a, *args, **kwargs):
        calls.append((np.shape(a)[-2:], kwargs.get("compute_uv", True)))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recorded)
    return calls


def test_cli_extend_takes_no_square_singular_vectors(monkeypatch, capsys):
    # the extension is an everywhere-defined operator: its 128 x 128 top
    # block gives its rank by singular values alone, its domain is the whole
    # space and its multivalued part {0}, so no n x n SVD computes vectors
    n = 128
    calls = _record_svds(monkeypatch)
    assert main(["extend", "--example", "race_schrodinger", "--h", "0.02", "--n", str(n)]) == 0
    capsys.readouterr()
    assert ((n, n), False) in calls
    assert ((n, n), True) not in calls


@pytest.mark.parametrize("command", ["deficiency", "extend", "enumerate", "verify-all"])
def test_cli_c_symmetry_guard_projects_nothing_through_a_star(monkeypatch, capsys, command):
    # B inside A* is decided once per problem on A's adjoint gap of graph(B),
    # never as an angle from graph(B) into A*'s basis.  (verify-all's check
    # section keeps that projection for its own C-image, is_c_symmetric)
    spec = cs.race_schrodinger(16)
    dp = spec.doubled()
    projected = []
    original = cs.linalg._angle_residual

    def recorded(s1, s2):
        projected.append((s1, s2))
        return original(s1, s2)

    monkeypatch.setattr(cs.linalg, "_angle_residual", recorded)
    args = build_parser().parse_args([command, "--example", "race_schrodinger", "--n", "16", "--budget", "50"])
    assert cs.cli.build_report(command, spec, args)["all_pass"]
    assert "c_symmetric" in vars(dp)
    assert not any(s1 is dp.b.graph and s2 is dp.a_star.graph for s1, s2 in projected)


@pytest.mark.parametrize("swap, operator, dims", [([], True, "dims 14+2 vs 16"), (["--swap"], False, "dims 14+0 vs 14")])
def test_cli_extend_zero_on_subspace_keeps_its_multivalued_extension(capsys, swap, operator, dims):
    # the canonical extension of zero_on_subspace n=16 is the minimum-norm
    # completion X = 0, an operator; its swap is multivalued, with the
    # proper domain D(A) read off the top block's singular vectors
    assert main(["extend", "--example", "zero_on_subspace", "--n", "16", *swap]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["results"]["is_operator"] is operator
    details = {check["name"]: check["detail"] for check in out["check_list"] if "detail" in check}
    assert details["domain_sum"] == details["domain_sum_star"] == dims


def test_cli_deficiency_svd_count_pinned(monkeypatch, capsys):
    # graph(A)'s thin SVD of [D; AD] (256 x 126) and the 256 x 4 one that
    # orthonormalizes frakM's projector columns; neither A* nor B* is built;
    # a relation's regime is read off its graph dimension, so no top-block
    # SVD runs
    calls = _record_svds(monkeypatch)
    qrs = _count_numpy_linalg(monkeypatch, "qr")
    top = count_calls(monkeypatch, cs.LinearRelation, "_top_svd")
    assert main(["deficiency", "--example", "race_schrodinger", "--h", "0.02", "--n", "128"]) == 0
    capsys.readouterr()
    assert ([shape for shape, _ in calls], len(qrs), len(top)) == ([(256, 126), (256, 4)], 0, 0)


@pytest.mark.parametrize("source", [("--example", "race_schrodinger", "--n", "16"), "complex_symmetric"])
def test_cli_takes_no_top_block_svd_of_a_or_b(tmp_path, monkeypatch, capsys, source):
    # A is given on its domain and B = CAC carries C D(A): no command reads
    # either one's domain, multivalued part or operator test off its graph,
    # neither by the values-only rank nor by the SVD with vectors
    if source == "complex_symmetric":
        source = ("--spec", _complex_symmetric_n32(tmp_path))
    spec = load_problem(build_parser().parse_args(["check", *source]))
    dp = spec.doubled()
    seen = {"_top_rank": [], "_top_svd": []}
    for name, relations in seen.items():
        body = vars(cs.LinearRelation)[name].func

        def recorded(rel, _body=body, _relations=relations):
            _relations.append(rel)
            return _body(rel)

        recorded = functools.cached_property(recorded)
        recorded.__set_name__(cs.LinearRelation, name)
        monkeypatch.setattr(cs.LinearRelation, name, recorded)
    for command in ("check", "deficiency", "extend", "verify-all"):
        args = build_parser().parse_args([command, *source])
        assert cs.cli.build_report(command, spec, args)["all_pass"]
    assert seen["_top_rank"]
    assert not any(rel is dp.a or rel is dp.b for relations in seen.values() for rel in relations)


@pytest.mark.parametrize("n", [56, 128])
def test_cli_deficiency_keeps_every_graph_column(capsys, n):
    # race at the default h: [D; AD] has the full column rank of D, but a
    # rank cut relative to its norm, which the potential blows up, dropped 7
    # of 54 columns at n=56 ("rank 47 from 54 pairs", exit 2); uncut,
    # n+- = 2 codim D
    assert main(["deficiency", "--example", "race_schrodinger", "--n", str(n)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["all_pass"] is True
    assert (out["results"]["n_plus"], out["results"]["n_minus"]) == (4, 4)


def test_cli_check_reads_an_extreme_operator_as_an_operator(tmp_path, capsys):
    # the 1 x 1 operator 1e308: its graph [1; 1e308] has rank 1, which a cut
    # relative to its norm read as 0 (regime relation, not an operator).  It
    # is an everywhere-defined C-self-adjoint operator.  check reads no
    # D(A*), whose top-block cut still loses C^1 (the xfail in test_csym)
    data = {"dim": 1, "conjugation": {"kind": "entrywise"}, "operator": {"images": [[1e308]]}}
    assert main(["check", "--spec", write_spec(tmp_path, data)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["regime"] == "operator"
    assert (out["results"]["is_operator"], out["results"]["everywhere_defined"]) == (True, True)
    assert (out["results"]["c_symmetric"], out["results"]["c_selfadjoint"]) == (True, True)


def test_cli_race_n24_splits_the_kernel_exactly(capsys):
    # race at the default h, n=24: N+ + N-, the first components of the
    # eigenspace members, lay 1.2e-6 from N((T*)^2+I) = N(I + B*A*) x
    # N(I + A*B*) with frakM from the cosines of B*'s QR basis, past the
    # 1e-7 bound; frakM as the complement of [graph(A), J graph(B)] brings
    # it to 1.7e-9, so verify-all passes with the exact dims 4 and 8
    assert main(["verify-all", "--example", "race_schrodinger", "--n", "24"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["results"]["race"]["measurements"]["dim_kernel"] == 4
    (split,) = [c for c in out["check_list"] if c["name"] == "vnkernel_splits_into_eigenspace_members"]
    assert (split["status"], split["detail"]) == ("pass", "dim N((T*)^2+I) = 8")


def test_cli_race_n26_refuses_at_the_vn_kernel_split(capsys):
    # race at the default h, n=26: kernel_one_plus's cut loses a direction
    # of N(I + A*B*) (dim_kernel 3 where 4 is exact), and vn's split,
    # against N+ + N- of the exact dimension 8, refuses it: no pass with a
    # wrong dimension
    assert main(["verify-all", "--example", "race_schrodinger", "--n", "26"]) == 1
    out = json.loads(capsys.readouterr().out)
    assert [c["name"] for c in out["check_list"] if c["status"] == "fail"] == [
        "vnkernel_splits_into_eigenspace_members"
    ]
    assert out["results"]["race"]["measurements"]["dim_kernel"] == 3


def test_cli_scaled_race_splits_the_kernel_exactly(tmp_path, capsys):
    # race n=16 with A -> 1e4 A: the vn split failed with exact dims when
    # frakM came from the cosines of B*'s QR basis, and passes with frakM as
    # the complement of [graph(A), J graph(B)]
    spec = cs.race_schrodinger(16)
    scaled = dataclasses.replace(spec, images=1e4 * spec.images)
    assert main(["verify-all", "--spec", write_spec(tmp_path, scaled.to_json_dict())]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["results"]["race"]["measurements"]["dim_kernel"] == 4
    (split,) = [c for c in out["check_list"] if c["name"] == "vnkernel_splits_into_eigenspace_members"]
    assert split["detail"] == "dim N((T*)^2+I) = 8"


def test_cli_race_n22_splits_the_kernel_exactly(capsys):
    # race at the default h, n=22: N+ + N- lies 9.1e-8 from N(I + B*A*) x
    # N(I + A*B*), inside the 1e-7 bound, so verify-all passes with the
    # exact dims.  The margin is rounding: the 4n-row oracle
    # (conftest.vn_oracle) fails here, at 1.06e-7 from
    # kernel_one_plus(frakA*, frakA*)
    assert main(["verify-all", "--example", "race_schrodinger", "--n", "22"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["results"]["race"]["measurements"]["dim_kernel"] == 4
    (split,) = [c for c in out["check_list"] if c["name"] == "vnkernel_splits_into_eigenspace_members"]
    assert (split["status"], split["detail"]) == ("pass", "dim N((T*)^2+I) = 8")


@pytest.mark.parametrize(
    "n",
    [8, 16, 22, 24, 26, pytest.param(28, marks=pytest.mark.xfail(strict=True, reason="silent dim_kernel 3"))],
)
def test_cli_race_reports_the_exact_kernel_or_refuses(capsys, n):
    # race at the default h has dim N(I + A*B*) = 4 at every n >= 4;
    # verify-all must report it or exit non-zero.  n=28 passes with 3 (the
    # rank-nullity refusal of ROADMAP item 1a mends it)
    code = main(["verify-all", "--example", "race_schrodinger", "--n", str(n)])
    out = json.loads(capsys.readouterr().out)
    assert code != 0 or out["results"]["race"]["measurements"]["dim_kernel"] == 4


def test_cli_verify_all_eigvalsh_count_pinned(monkeypatch, capsys):
    # the predicates (the sweep's filter, C-self-adjointness, containment)
    # decide by the Frobenius certificate and take no Gram eigenvalues; the
    # round trip takes the rank scales and angles of its 93 hits in 12
    # stacked calls each, not one per hit (211 = 25 + 2 x 93 hit by hit).
    # The graph sums graph(A) + frakM and graph(B) + frakM' are built once,
    # by m_spaces, for race and vn alike, so each takes one rank scale
    calls = _count_numpy_linalg(monkeypatch, "eigvalsh")
    assert main(["verify-all", "--example", "race_schrodinger", "--n", "32"]) == 0
    capsys.readouterr()
    assert len(calls) == 25 + 2 * 12


M_SPACE_EXAMPLES = [(name, 16) for name in sorted(cs.fixtures.EXAMPLE_BUILDERS)]
M_SPACE_EXAMPLES += [("race_schrodinger", n) for n in range(8, 33, 2)]


@pytest.mark.parametrize("example, n", M_SPACE_EXAMPLES)
def test_cli_verify_all_builds_each_m_space_once(monkeypatch, capsys, example, n):
    # frakM is built once, by its projector kernel, and frakM' is J frakM;
    # m_spaces takes no rank decision of its own, and graph(A) + frakM and
    # graph(B) + frakM' are one subspace_sum each, which race and vn share
    calls = {name: [] for name in ("_complement_columns", "orthonormal_basis", "subspace_sum")}
    for name, seen in calls.items():

        def recorded(*args, _original=getattr(cs.linalg, name), _seen=seen):
            _seen.append((sys._getframe(1).f_code.co_name, args))
            return _original(*args)

        patch_everywhere(monkeypatch, cs.linalg, name, recorded)
    problems = []

    def build_doubled(a, c, _original=cs.build_doubled):
        problems.append(_original(a, c))
        return problems[-1]

    patch_everywhere(monkeypatch, cs.doubling, "build_doubled", build_doubled)
    main(["verify-all", "--example", example, "--n", str(n)])
    assert "error" not in json.loads(capsys.readouterr().out)
    (dp,) = problems
    assert [caller for caller, _ in calls["_complement_columns"]].count("frakM") == 1
    assert "m_spaces" not in [caller for caller, _ in calls["orthonormal_basis"]]
    sums = [args for _, args in calls["subspace_sum"] if args[0] is dp.a.graph or args[0] is dp.b.graph]
    assert len(sums) == 2
    assert sums[0][0] is dp.a.graph and sums[0][1] is dp.frakM
    assert sums[1][0] is dp.b.graph and sums[1][1] is dp.spaces.frakM_prime


def _drop_first_column(function):
    def dropped(*args):
        space = function(*args)
        return cs.Subspace(space.basis[:, 1:], space.tol)

    return dropped


def _failing_checks(capsys, argv):
    assert main(argv) == 1
    return {c["name"] for c in json.loads(capsys.readouterr().out)["check_list"] if c["status"] == "fail"}


def _weak_residual_without_conj(a, c):
    """csym.weak_c_symmetry_residual with np.conj dropped: C's matrix K
    applied as a linear map, a mutation of C x = K conj(x)."""
    n = a.ambient_dim
    tops, bots = a.graph.basis[:n], a.graph.basis[n:]
    return float(np.abs(tops.conj().T @ (c.matrix @ bots) - bots.conj().T @ (c.matrix @ tops)).max())


def test_cli_weak_form_check_fails_without_conjugating(monkeypatch, capsys):
    # random_csym is complex and its K is not real, so the linear pairing
    # does not vanish on the C-symmetric input; is_c_symmetric, which the
    # check compares it with, is computed independently and stays true
    argv = ["verify-all", "--example", "random_csym", "--n", "6"]

    def statuses():
        return {c["name"]: c["status"] for c in json.loads(capsys.readouterr().out)["check_list"]}

    assert main(argv) == 0
    honest = statuses()
    patch_everywhere(monkeypatch, cs.csym, "weak_c_symmetry_residual", _weak_residual_without_conj)
    assert main(argv) == 1
    mutated = statuses()
    assert mutated.keys() == honest.keys()
    (flipped,) = [name for name in honest if mutated[name] != honest[name]]
    assert flipped.endswith("weak_form_matches_predicate")
    assert (honest[flipped], mutated[flipped]) == ("pass", "fail")


@pytest.mark.parametrize("command", [["powers", "--budget", "3"], ["verify-all"]], ids=["powers", "verify-all"])
def test_cli_norm_identities_fail_without_conjugating_y(monkeypatch, capsys, command):
    # mutation: C dropped on y in power_norm_identities, so ||frakA^m (x, y)||^2
    # is compared with ||(AC)^m x||^2 + ||(AC)^m y||^2; random_csym's K is not
    # real, so at every exponent both norm identities fail, and nothing else.
    # Keyed on base names, whatever the prefixes are joined with
    argv = [command[0], "--example", "random_csym", "--n", "6", *command[1:]]
    bases = ("norm_identity_even", "norm_identity_odd")

    def run():
        code = main(argv)
        out = json.loads(capsys.readouterr().out)
        return code, out, {c["name"]: c["status"] for c in out["check_list"]}

    code, honest_out, honest = run()
    assert code == 0
    # Conjugation.apply's one caller in the package is power_norm_identities
    monkeypatch.setattr(cs.Conjugation, "apply", lambda self, x: np.asarray(x, dtype=complex))
    code, mutated_out, mutated = run()
    assert code == 1 and mutated.keys() == honest.keys()
    flipped = [name for name in honest if mutated[name] != honest[name]]
    assert all((honest[name], mutated[name]) == ("pass", "fail") for name in flipped)
    matched = [base for name in flipped for base in bases if name.endswith(base)]
    assert len(matched) == len(flipped) and sorted(matched) == sorted(bases * 3)
    if command[0] == "powers":
        honest_n1, mutated_n1 = (out["results"]["reports"][0]["norm_residuals"] for out in (honest_out, mutated_out))
        assert max(honest_n1) < 1e-9 and min(mutated_n1) > 100


def test_cli_m_spaces_identity_catches_short_kernel(monkeypatch, capsys):
    # mutation: N(I + A*B*) and N(I + B*A*) each miss a direction in
    # m_spaces only; vn's kernel split, which compares their product with
    # N+ + N- = span(Y) x span(X) for frakM = [X; Y], is the one check of
    # the kernels against frakM, and it alone fails
    monkeypatch.setattr(cs.csym, "kernel_one_plus", _drop_first_column(cs.kernel_one_plus))
    assert main(["verify-all", "--example", "race_schrodinger", "--n", "16"]) == 1
    out = json.loads(capsys.readouterr().out)
    assert {c["name"] for c in out["check_list"] if c["status"] == "fail"} == {
        "vnkernel_splits_into_eigenspace_members"
    }
    assert out["results"]["race"]["measurements"]["dim_kernel"] == 3


def test_cli_vn_kernel_check_catches_short_kernel(monkeypatch, capsys):
    # mutation: vn's embedded N((T*)^2 + I) misses a direction; the M-spaces
    # it is read from, which race reads too, stay whole
    monkeypatch.setattr(cs.doubling, "_square_kernel", _drop_first_column(cs.doubling._square_kernel))
    failing = _failing_checks(capsys, ["verify-all", "--example", "race_schrodinger", "--n", "16"])
    assert failing == {"vnkernel_splits_into_eigenspace_members"}


def test_cli_domain_sum_star_catches_short_multivalued_part(monkeypatch, capsys):
    # mutation: mul(A_ext) misses a direction.  zero_on_subspace's swapped
    # canonical extension has a nonzero multivalued part; its canonical
    # extension, the completion X = 0, is an operator, and so is untouched
    monkeypatch.setattr(
        cs.LinearRelation, "multivalued_part", _drop_first_column(cs.LinearRelation.multivalued_part)
    )
    failing = _failing_checks(capsys, ["verify-all", "--example", "zero_on_subspace", "--n", "16"])
    assert failing == {"extend_swapdomain_sum_star"}


def _report(capsys, argv):
    code = main(argv)
    out = json.loads(capsys.readouterr().out)
    out.pop("generated_at")
    return code, out


HARNESS_COMMANDS = (
    ("verify-all",),
    ("extend",),
    ("extend", "--swap"),
    ("enumerate", "--budget", "200"),
    ("deficiency",),
)


@pytest.mark.parametrize(
    "source",
    [
        ("--example", "race_schrodinger", "--n", "16"),
        ("--example", "fd_derivative_minimal", "--n", "8"),
        ("--example", "zero_on_subspace", "--n", "8"),
        ("--example", "random_csym", "--n", "6"),
        "complex_symmetric",
        "restriction",
    ],
    ids=lambda source: source if isinstance(source, str) else source[1],
)
def test_cli_reports_unchanged_with_checked_bases(tmp_path, monkeypatch, capsys, source):
    # trusted bases skip the Gram check; running every command again with the
    # check put back must pass it everywhere and give the same reports, A*'s
    # QR basis and B* = C A* C among them.  The restriction's conjugation is
    # of kind matrix, so its trusted C-images (B, B*, C D(A), the C-images of
    # N+ and of the kernels) are not permutations
    if source == "complex_symmetric":
        m = cs.random_symmetric(6, np.random.default_rng(0))
        spec = cs.ProblemSpec("complex_symmetric", 6, "entrywise", None, None, m, cs.DEFAULT_TOL)
        source = ("--spec", write_spec(tmp_path, spec.to_json_dict()))
    elif source == "restriction":
        source = ("--spec", write_spec(tmp_path, cs.random_restriction(6, seed=0).to_json_dict()))
    argvs = [[cmd, *source, *opts] for cmd, *opts in HARNESS_COMMANDS]
    trusted = [_report(capsys, argv) for argv in argvs]
    assert [code for code, _ in trusted] == [0] * len(argvs)
    check_trusted_bases(monkeypatch)
    checked = count_calls(monkeypatch, cs.Subspace, "__post_init__")
    assert [_report(capsys, argv) for argv in argvs] == trusted
    # exactly 88 on the two everywhere-defined operators (random_csym,
    # complex_symmetric), 142 to 146 on the others: build_doubled certifies
    # C graph(B) = graph(A) on the bases and builds no C-image relation,
    # and only verify-all builds A* and B*
    assert len(checked) >= 88


def test_checked_bases_catch_unprojected_extend_basis(monkeypatch, checked_subspaces):
    # mutation: grow a basis by the new columns' own SVD basis, without
    # projecting them off S; the checked constructor must refuse the result
    def unprojected(s, cols):
        u, sigma, _ = np.linalg.svd(cols, full_matrices=False)
        rank = int(np.sum(sigma > s.tol.zero_cutoff(sigma[0])))
        return cs.linalg._trusted(np.hstack([s.basis, u[:, :rank]]), s.tol)

    spec = cs.race_schrodinger(8)
    dp = cs.build_doubled(spec.relation(), spec.conjugation())
    param = cs.canonical_extension(dp).parameter
    patch_everywhere(monkeypatch, cs.linalg, "extend_basis", unprojected)
    with pytest.raises(cs.InputError, match="not orthonormal"):
        cs.extension_from_parameter(dp, param)


def perturbed_symmetric_spec(tmp_path, size):
    """A symmetric matrix plus an antisymmetric perturbation of 2-norm size,
    under entrywise conjugation, written as a spec file."""
    a = cs.random_symmetric(6, np.random.default_rng(0))
    rng = np.random.default_rng(1)
    k = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    k = k - k.T
    m = a + size * k / np.linalg.norm(k, 2)
    spec = cs.ProblemSpec("perturbed", 6, "entrywise", None, None, m, cs.DEFAULT_TOL)
    return write_spec(tmp_path, spec.to_json_dict())


@pytest.mark.parametrize("command", ["deficiency", "verify-all"])
def test_cli_one_bound_for_check_and_deficiency(tmp_path, capsys, command):
    # perturbation 1e-9: check calls it C-symmetric (weak residual ~2e-10 is
    # within the check bound), so the deficiency precondition must accept it
    # at that bound too
    path = perturbed_symmetric_spec(tmp_path, 1e-9)
    assert main(["check", "--spec", path]) == 0
    assert json.loads(capsys.readouterr().out)["results"]["c_symmetric"] is True
    assert main([command, "--spec", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["all_pass"] is True
    assert all(ch["status"] != "fail" for ch in out["check_list"])
    if command == "verify-all":
        assert out["results"]["check"]["c_symmetric"] is True


def test_cli_verify_all_refuses_input_that_is_not_c_symmetric(tmp_path, capsys):
    # perturbation 1e-6 (weak residual ~2e-7): check reports it as not
    # C-symmetric and passes, while verify-all, whose theory needs the
    # symmetry, refuses it like deficiency, extend and enumerate do instead
    # of skipping it all.  check reads A*'s basis, the others the adjoint gap
    path = perturbed_symmetric_spec(tmp_path, 1e-6)
    assert main(["check", "--spec", path]) == 0
    assert json.loads(capsys.readouterr().out)["results"]["c_symmetric"] is False
    for command in ("deficiency", "extend", "enumerate", "verify-all"):
        assert main([command, "--spec", path]) == 2
        captured = capsys.readouterr()
        assert not captured.out
        assert captured.err == "error: relation is not C-symmetric; the defect theory needs CAC inside A*\n"


def test_cli_verify_all_fails_with_zero_check_bound(monkeypatch, capsys):
    # mutation: every identity check reads Tolerance.bound, so a zero bound
    # must make the report fail
    monkeypatch.setattr(cs.Tolerance, "bound", lambda self, scale=1.0: 0.0)
    assert main(["verify-all", "--example", "race_schrodinger", "--n", "16"]) != 0
    capsys.readouterr()


def test_cli_verify_all_runs_full_extension_only_for_canonical(monkeypatch, capsys):
    # the enumerate round trip rebuilds every hit in closed form; only the
    # two canonical extensions go through the fully verified construction
    calls = count_calls(monkeypatch, cs.extensions, "extension_from_parameter")
    assert main(["verify-all", "--example", "race_schrodinger", "--n", "8"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["results"]["enumerate"]["hits"] > 0
    assert len(calls) == 2


def test_cli_enumerate_roundtrip_catches_wrong_block(monkeypatch, capsys):
    # mutation: rebuild from the (x, u) rows of the deficiency span, i.e. the
    # companion block, instead of the (y, v) rows; graph(A) is bordered as in
    # extension_graph, so the round trip's new columns are the wrong ones
    def xu_rows(dp, us):
        n, k = dp.ambient_dim, us.shape[-1]
        cols = cs.extensions._deficiency_columns(dp, us)
        u, _ = cs.linalg._bordered(dp.a.graph, np.concatenate([cols[:, :n], cols[:, 3 * n :]], axis=1))
        return u[:, :, : k // 2]

    monkeypatch.setattr(cs.extensions, "_rebuilt_columns", xu_rows)
    assert main(["verify-all", "--example", "race_schrodinger", "--n", "16"]) == 1
    out = json.loads(capsys.readouterr().out)
    (check,) = [c for c in out["check_list"] if c["name"].endswith("completeness_roundtrip")]
    assert check["status"] == "fail"
    assert out["results"]["enumerate"]["max_roundtrip_angle"] > 1e-3


def test_cli_verify_all_golden(tmp_path, capsys):
    # double run must agree byte for byte once the timestamp is removed
    reports = []
    for name in ("one.json", "two.json"):
        path = tmp_path / name
        code = main(
            [
                "verify-all",
                "--example",
                "race_schrodinger",
                "--n",
                "8",
                "--seed",
                "0",
                "--json",
                str(path),
            ]
        )
        capsys.readouterr()
        assert code == 0
        data = json.loads(path.read_text())
        data.pop("generated_at")
        reports.append(json.dumps(data, sort_keys=True))
    assert reports[0] == reports[1]


def test_cli_json_file_matches_stdout(tmp_path, capsys):
    path = tmp_path / "out.json"
    main(["check", "--example", "fd_derivative_minimal", "--json", str(path)])
    stdout = capsys.readouterr().out
    assert path.read_text() == stdout


def test_cli_infinity_serialization(capsys):
    # nilpotent-free fixtures keep qa terms finite; force the inf marker via
    # a spec whose operator annihilates a power of the seed vector
    spec = {
        "dim": 2,
        "conjugation": {"kind": "entrywise"},
        "operator": {"images": [[0.0, 0.0], [[1.0, 0.0], 0.0]]},
    }
    import tempfile, os

    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "nilpotent.json")
        with open(path, "w") as handle:
            json.dump(spec, handle)
        code = main(["powers", "--spec", path, "--seed", "1", "--budget", "2"])
    out = capsys.readouterr().out
    assert code in (0, 1)
    json.loads(out)  # must stay valid JSON even with inf markers


def _strict_json(text):
    """json.loads refusing NaN and Infinity, which RFC 8259 does not allow."""

    def refuse(token):
        raise ValueError(f"non-finite JSON number {token}")

    return json.loads(text, parse_constant=refuse)


def test_cli_powers_refuses_a_square_past_the_float_range(tmp_path, capsys):
    # the 1 x 1 operator 1e308(1 + i): ||(AC) x||^2 overflows at the first
    # power.  The identities hold exactly, so the input is refused (exit 2)
    # with the overflow named, not failed with NaN residuals
    data = {"dim": 1, "conjugation": {"kind": "entrywise"}, "operator": {"images": [[[1e308, 1e308]]]}}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert main(["powers", "--spec", write_spec(tmp_path, data)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "||(AC)^1 x||^2 leaves the float range" in captured.err


def test_cli_powers_refuses_a_residual_scale_past_the_float_range(tmp_path, capsys):
    # ||A||_2 = 1e100 and (AC)^2 = 0: every norm is finite, but the norm
    # identities' scale (1 + ||A||_2)^6 is not; it raised OverflowError
    data = {"dim": 2, "conjugation": {"kind": "entrywise"}, "operator": {"images": [[0.0, 0.0], [1e100, 0.0]]}}
    assert main(["powers", "--spec", write_spec(tmp_path, data), "--budget", "1"]) == 2
    assert "the residual scale (1 + ||A||_2)^6 leaves the float range" in capsys.readouterr().err


def test_cli_verify_all_skips_powers_past_the_float_range(tmp_path, capsys):
    # verify-all keeps the rest of its report and records why powers is
    # skipped, as it does for takagi; the report stays strict JSON
    data = {"dim": 1, "conjugation": {"kind": "entrywise"}, "operator": {"images": [[[1e308, 1e308]]]}}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert main(["verify-all", "--spec", write_spec(tmp_path, data)]) == 1
    report = _strict_json(capsys.readouterr().out)
    skipped = {check["name"]: check for check in report["check_list"] if check["status"] == "skip"}
    assert "leaves the float range" in skipped["powers"]["detail"]
    assert "powers" not in report["results"]
    assert not any(check["name"].startswith("powersn") for check in report["check_list"])


def test_jsonify_keeps_the_sign_of_infinity():
    value = {
        "pos": np.inf,
        "neg": -np.inf,
        "scalar": np.float64(-np.inf),
        "list": [float("-inf"), 1.5, float("inf")],
        "vector": np.array([-np.inf, 0.0, np.inf]),
        "nan": np.nan,
        "complex": complex(np.nan, -np.inf),
    }
    assert _jsonify(value) == {
        "pos": "inf",
        "neg": "-inf",
        "scalar": "-inf",
        "list": ["-inf", 1.5, "inf"],
        "vector": ["-inf", 0.0, "inf"],
        "nan": "nan",
        "complex": ["nan", "-inf"],
    }
