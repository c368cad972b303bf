"""End-to-end runs of the command line front end.

main() is driven in-process with explicit stream redirection (the suite
runs with capture disabled so the acceptance summary stays visible).
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import daggermp
from conftest import HARD_INPUTS, all_relations, seeded_product
from daggermp import (
    ComplexMatrix,
    InputError,
    MatrixInstance,
    NumericError,
    Tolerance,
    matrix_from_obj,
    matrix_to_obj,
    pinv,
    rel_to_obj,
    verify_mp,
)
from daggermp.core import require_mp
from daggermp.cli import main

M = ComplexMatrix.from_rows


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def write_json(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj), encoding="utf-8")
    return str(p)


def matrix_file(tmp_path, name, rows):
    return write_json(tmp_path, name, matrix_to_obj(M(rows)))


def test_matrix_json_entries_are_read_as_their_float64_parts():
    # Each [re, im] pair, ints included, is rounded once to float64, the
    # signs of zeros kept; an int beyond the float range is not finite.
    obj = {"rows": 1, "cols": 3, "data": [[2**53 + 1, -0.0], [1, 2.5], [-3, 10**300]]}
    expected = np.array([[complex(2.0**53, -0.0), 1 + 2.5j, complex(-3.0, 1e300)]])
    assert matrix_from_obj(obj).array.tobytes() == expected.tobytes()
    assert matrix_from_obj({"rows": 0, "cols": 2, "data": []}).array.shape == (0, 2)
    for bad in (10**400, -(10**400), float("inf"), float("nan")):
        with pytest.raises(InputError, match="^matrix entries must be finite$"):
            matrix_from_obj({"rows": 1, "cols": 1, "data": [[0, bad]]})


def test_matrix_json_lists_each_entry_in_row_major_order():
    # Every layout matrix_to_obj meets (C-ordered, a dagger's F order, a
    # strided view) gives the entries row by row as [re, im] floats, the
    # signs of zeros kept, as json writes them.
    x = np.arange(12.0).reshape(3, 4) * (1 - 2j) + 0.5j
    x[0, 0], x[1, 2] = complex(-0.0, -0.0), complex(0.0, -0.0)
    a = ComplexMatrix(x)
    for m in (a, a.dagger(), ComplexMatrix(x[::-1, ::2]), ComplexMatrix(np.zeros((0, 3)))):
        arr = m.array
        obj = matrix_to_obj(m)
        assert (obj["rows"], obj["cols"]) == arr.shape
        expected = [[float(z.real), float(z.imag)] for z in arr.reshape(-1)]
        assert json.dumps(obj["data"]) == json.dumps(expected)
        assert all(type(v) is float for entry in obj["data"] for v in entry)
    assert matrix_to_obj(a)["data"][:2] == [[-0.0, -0.0], [1.0, -1.5]]
    assert json.dumps(matrix_to_obj(a.dagger())["data"][0]) == "[-0.0, 0.0]"


def test_pinv_identity(tmp_path):
    path = matrix_file(tmp_path, "i2.json", [[1, 0], [0, 1]])
    code, out, err = run_cli("pinv", "--in", path)
    assert code == 0 and err == ""
    got = matrix_from_obj(json.loads(out))
    assert np.allclose(got.array, np.eye(2))


def test_pinv_rank_one(tmp_path):
    path = matrix_file(tmp_path, "a.json", [[1, 2], [2, 4]])
    code, out, _ = run_cli("pinv", "--in", path)
    assert code == 0
    got = matrix_from_obj(json.loads(out))
    assert np.allclose(got.array, np.array([[1, 2], [2, 4]]) / 25, atol=1e-12)


@pytest.mark.parametrize("scale", [1.0, 1e200, 1e-200])
def test_pinv_refuses_an_inverse_that_fails_verification(tmp_path, scale):
    # A rank cutoff between the singular values 2 and 1 drops the 1, so
    # f g f misses f by scale: MP1 fails at every scale.
    a = ComplexMatrix(np.diag([4.0, 2.0, 1.0]) * scale)
    path = write_json(tmp_path, "a.json", matrix_to_obj(a))
    code, out, err = run_cli("pinv", "--in", path, "--rank-tol", str(1.5 * scale))
    assert code == 1 and out == ""
    assert err.startswith("refused:")
    assert f"MP1 fails (residual {scale:.3e})" in err


def test_a_refusal_forced_by_the_slack_guard_names_the_guard(tmp_path):
    # Hilbert 8's pair has cond |f||g| = 1.549e10, so at eq_tol 1e-9 the
    # slack eq_tol * cond is above 1 and within() passes deviation 0
    # alone (defect 8); MP1's residual is within the slack it was refused.
    a = ComplexMatrix(HARD_INPUTS["hilbert8"])
    path = write_json(tmp_path, "a.json", matrix_to_obj(a))
    guard = "MP1 cannot be certified at cond 1.549e+10 with eq_tol 1e-09"
    code, out, err = run_cli("pinv", "--in", path, "--eq-tol", "1e-9")
    assert code == 1 and out == ""
    assert err == f"refused: pinv: {guard} (residual 8.482e-08)\n"
    assert run_cli("pinv", "--in", path)[0] == 0
    inst = MatrixInstance(Tolerance(eq_tol=1e-9))
    g = pinv(a)
    with pytest.raises(NumericError) as exc:
        require_mp(inst, a, g, NumericError, "pinv")
    assert str(exc.value) == f"pinv: {guard} (residual {exc.value.residual:.3e})"
    assert exc.value.residual == verify_mp(inst, a, g).residuals[0]
    # A failure at a slack below 1 keeps its verdict.
    b = M([[1, 2], [3, 4]])
    with pytest.raises(NumericError, match=r"^pinv: MP1 fails \(residual "):
        require_mp(inst, b, ComplexMatrix(pinv(b).array * 2.0), NumericError, "pinv")


@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_pinv_prints_a_verified_inverse_at_extreme_scales(tmp_path, scale):
    base = seeded_product(21, 5, 4, 3)  # rank 3
    f = write_json(tmp_path, "a.json", matrix_to_obj(ComplexMatrix(base * scale)))
    code, out, err = run_cli("pinv", "--in", f)
    assert code == 0 and err == ""
    g = write_json(tmp_path, "g.json", json.loads(out))
    code, out, _ = run_cli("verify-mp", "--in", f, "--in", g)
    assert code == 0 and json.loads(out)["all_hold"] is True


def test_pinv_prints_an_exact_inverse_whose_factor_norm_bound_overflows(tmp_path):
    f = matrix_file(tmp_path, "a.json", [[1e300, 0], [0, 1e290]])
    code, out, err = run_cli("pinv", "--in", f)
    assert code == 0 and err == ""
    got = matrix_from_obj(json.loads(out)).array
    assert np.allclose(got, np.diag([1e-300, 1e-290]), rtol=1e-15, atol=0.0)


def test_verify_mp_refuses_a_candidate_that_widens_its_own_bound(tmp_path):
    f = matrix_file(tmp_path, "f.json", [[1, 0], [0, 0]])
    g = matrix_file(tmp_path, "g.json", [[1, 0], [0, 1e14]])
    code, out, _ = run_cli("verify-mp", "--in", f, "--in", g)
    doc = json.loads(out)
    assert code == 1 and doc["all_hold"] is False and doc["mp2"] is False


def test_svd_output_shape(tmp_path):
    path = matrix_file(tmp_path, "d.json", [[3, 0], [0, 4]])
    code, out, _ = run_cli("svd", "--in", path)
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"u", "sigma", "v", "rank"}
    assert doc["sigma"] == [4.0, 3.0] and doc["rank"] == 2
    u = matrix_from_obj(doc["u"]).array
    v = matrix_from_obj(doc["v"]).array
    recon = u @ np.diag(doc["sigma"]).astype(complex) @ v.conj().T
    assert np.allclose(recon, np.diag([3.0, 4.0]), atol=1e-12)


def test_kernel_command(tmp_path):
    path = matrix_file(tmp_path, "k.json", [[1, 0], [1, 0]])
    code, out, _ = run_cli("kernel", "--in", path)
    assert code == 0
    k = matrix_from_obj(json.loads(out)).array
    assert k.shape == (1, 2)
    assert np.allclose(k @ np.array([[1, 0], [1, 0]], dtype=complex), 0, atol=1e-12)


def test_split_idem_accepts_projector(tmp_path):
    path = matrix_file(tmp_path, "p.json", [[1, 0], [0, 0]])
    code, out, _ = run_cli("split-idem", "--in", path)
    assert code == 0
    r = matrix_from_obj(json.loads(out)).array
    assert np.allclose(r, [[1], [0]], atol=1e-12)


def test_split_idem_refuses_non_idempotent(tmp_path):
    path = matrix_file(tmp_path, "q.json", [[2, 0], [0, 0]])
    code, out, err = run_cli("split-idem", "--in", path)
    assert code == 1 and out == ""
    assert err.startswith("refused:")


def test_rank_transpose_counterexample(tmp_path):
    path = write_json(
        tmp_path,
        "c.json",
        {"rows": 1, "cols": 2, "data": [[0, 1], [1, 0]]},  # the row (i, 1)
    )
    code, out, _ = run_cli("rank-transpose", "--in", path)
    doc = json.loads(out)
    assert code == 1 and doc["has_mp"] is False
    assert doc["rank"] == 1 and doc["rank_a_at"] == 0


def test_rank_transpose_positive_case(tmp_path):
    path = matrix_file(tmp_path, "r.json", [[1, 1]])
    code, out, _ = run_cli("rank-transpose", "--in", path)
    doc = json.loads(out)
    assert code == 0 and doc["has_mp"] is True


@pytest.mark.parametrize("rows", [[[1e-310]], [[1e200, 1], [1, 1]]])
def test_rank_transpose_at_extreme_scales(tmp_path, rows):
    # a aᵀ underflows or overflows unless a is scaled before the products
    path = matrix_file(tmp_path, "r.json", rows)
    code, out, err = run_cli("rank-transpose", "--in", path)
    assert code == 0 and err == ""
    assert json.loads(out) == {"has_mp": True, "rank": 1, "rank_a_at": 1, "rank_at_a": 1}


def test_verify_mp_accepts_true_pair(tmp_path):
    f = matrix_file(tmp_path, "f.json", [[1, 2], [2, 4]])
    g = write_json(
        tmp_path, "g.json", matrix_to_obj(ComplexMatrix(np.array([[1, 2], [2, 4]]) / 25))
    )
    code, out, _ = run_cli("verify-mp", "--in", f, "--in", g)
    doc = json.loads(out)
    assert code == 0
    assert doc["instance"] == "matrix" and doc["all_hold"] is True


def test_verify_mp_flags_failing_axiom(tmp_path):
    f = matrix_file(tmp_path, "f.json", [[1, 0], [0, 0]])
    g = matrix_file(tmp_path, "g.json", [[1, 0], [0, 1]])
    code, out, _ = run_cli("verify-mp", "--in", f, "--in", g)
    doc = json.loads(out)
    assert code == 1
    assert doc["mp1"] is True and doc["mp2"] is False


def test_verify_mp_rejects_mixed_kinds(tmp_path):
    f = matrix_file(tmp_path, "f.json", [[1]])
    r = write_json(tmp_path, "r.json", {"src": 1, "tgt": 1, "pairs": [[0, 0]]})
    code, out, err = run_cli("verify-mp", "--in", f, "--in", r)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "different kinds" in err


@pytest.mark.parametrize("payload, what", [
    ([[1, 0], [0, 1]], "input must be a JSON object"),
    ({"rows": 1, "cols": 1}, "cannot tell matrix / relation / partial injection apart"),
])
@pytest.mark.parametrize("command", ["verify-mp", "karoubi check"])
def test_an_input_of_no_kind_exits_2(tmp_path, command, payload, what):
    path = write_json(tmp_path, "odd.json", payload)
    inputs = ["--in", path] * (2 if command == "verify-mp" else 1)
    code, out, err = run_cli(*command.split(), *inputs)
    assert code == 2 and out == ""
    assert err == f"error: {what}\n"


def test_verify_mp_relation_pair(tmp_path):
    r = write_json(tmp_path, "r.json", {"src": 2, "tgt": 2, "pairs": [[0, 1], [1, 0]]})
    code, out, _ = run_cli("verify-mp", "--in", r, "--in", r)
    doc = json.loads(out)
    assert code == 0 and doc["instance"] == "rel" and doc["all_hold"] is True


def test_eq_tol_changes_the_verdict(tmp_path):
    f = matrix_file(tmp_path, "f.json", [[1, 0], [0, 1]])
    g = write_json(tmp_path, "g.json", matrix_to_obj(ComplexMatrix(0.999 * np.eye(2))))
    strict, _, _ = run_cli("verify-mp", "--in", f, "--in", g)
    loose, out, _ = run_cli("verify-mp", "--in", f, "--in", g, "--eq-tol", "0.01")
    assert strict == 1 and loose == 0
    assert json.loads(out)["all_hold"] is True


def test_gcsvd_command(tmp_path):
    path = matrix_file(tmp_path, "a.json", [[1, 2], [2, 4]])
    code, out, _ = run_cli("gcsvd", "--in", path)
    doc = json.loads(out)
    assert code == 0 and set(doc) == {"r", "d", "s", "residuals"}
    d = matrix_from_obj(doc["d"]).array
    assert np.allclose(d, [[5.0]], atol=1e-10)


def test_gsvd_command_reports_both_conventions(tmp_path):
    path = matrix_file(tmp_path, "a.json", [[0, 2], [0, 0]])
    code, out, _ = run_cli("gsvd", "--in", path)
    doc = json.loads(out)
    assert code == 0
    assert set(doc) == {"u", "d", "v", "v_classical", "dims", "residuals"}
    assert doc["dims"] == [1, 1, 1, 1]
    v = matrix_from_obj(doc["v"]).array
    vc = matrix_from_obj(doc["v_classical"]).array
    assert np.allclose(vc, v.conj().T)


def test_polar_command(tmp_path):
    path = matrix_file(tmp_path, "a.json", [[0, 2], [0, 0]])
    code, out, _ = run_cli("polar", "--in", path)
    doc = json.loads(out)
    assert code == 0 and set(doc) == {"u", "h", "residuals"}
    u = matrix_from_obj(doc["u"]).array
    h = matrix_from_obj(doc["h"]).array
    assert np.allclose(u, [[0, 1], [0, 0]], atol=1e-12)
    assert np.allclose(h, [[0, 0], [0, 2]], atol=1e-12)


def _scaled_rank_two():
    """A rank-2 6x5 product scaled by 2^-600, where f†f underflows."""
    r = np.random.default_rng(5)
    return (r.standard_normal((6, 2)) @ r.standard_normal((2, 5))) * 2.0**-600


# Live defect 5 of the ROADMAP: polar forms f†f, which overflows or
# underflows where f itself is fine.
POLAR_SCALE_DEFECT = pytest.mark.xfail(
    strict=True, reason="ROADMAP live defect 5: polar refuses when f†f overflows or underflows"
)


@POLAR_SCALE_DEFECT
@pytest.mark.parametrize(
    "rows",
    [[[1.7e308]], [[1e200, 1], [1, 1]], _scaled_rank_two()],
    ids=["1.7e308", "1e200-corner", "rank2-2^-600"],
)
def test_polar_survives_the_scale_of_its_gram(tmp_path, rows):
    path = matrix_file(tmp_path, "a.json", rows)
    assert run_cli("polar", "--in", path)[0] == 0


def test_pinv_and_gcsvd_accept_the_underflowing_polar_input(tmp_path):
    path = matrix_file(tmp_path, "a.json", _scaled_rank_two())
    for command in ("pinv", "gcsvd"):
        assert run_cli(command, "--in", path)[0] == 0


def test_rel_difunctional_verdicts(tmp_path):
    good = write_json(tmp_path, "g.json", {"src": 2, "tgt": 2, "pairs": [[0, 0]]})
    bad = write_json(
        tmp_path, "b.json", {"src": 2, "tgt": 2, "pairs": [[0, 0], [1, 0], [1, 1]]}
    )
    code_g, out_g, _ = run_cli("rel", "difunctional", "--in", good)
    code_b, out_b, _ = run_cli("rel", "difunctional", "--in", bad)
    assert code_g == 0 and json.loads(out_g) == {"difunctional": True}
    assert code_b == 1 and json.loads(out_b) == {"difunctional": False}


def test_rel_mp_and_oracle_agree(tmp_path):
    path = write_json(
        tmp_path, "r.json", {"src": 2, "tgt": 3, "pairs": [[0, 1], [1, 2]]}
    )
    code_t, out_t, _ = run_cli("rel", "mp", "--in", path)
    code_o, out_o, _ = run_cli("rel", "oracle", "--in", path)
    assert code_t == 0 and code_o == 0
    assert json.loads(out_t) == json.loads(out_o)
    assert json.loads(out_t)["pairs"] == [[1, 0], [2, 1]]


def test_rel_mp_reports_nonexistence(tmp_path):
    path = write_json(
        tmp_path, "b.json", {"src": 2, "tgt": 2, "pairs": [[0, 0], [1, 0], [1, 1]]}
    )
    for sub in ("mp", "oracle"):
        code, out, _ = run_cli("rel", sub, "--in", path)
        assert code == 1 and json.loads(out) == {"exists": False}


def test_rel_split_per(tmp_path):
    path = write_json(
        tmp_path,
        "per.json",
        {"src": 3, "tgt": 3, "pairs": [[0, 0], [0, 2], [2, 0], [2, 2]]},
    )
    code, out, _ = run_cli("rel", "split-per", "--in", path)
    doc = json.loads(out)
    assert code == 0 and doc["src"] == 3 and doc["tgt"] == 1
    assert doc["pairs"] == [[0, 0], [2, 0]]


def test_rel_split_per_refuses_non_per(tmp_path):
    path = write_json(tmp_path, "n.json", {"src": 2, "tgt": 2, "pairs": [[0, 0], [0, 1], [1, 0]]})
    code, out, err = run_cli("rel", "split-per", "--in", path)
    assert code in (1, 2) and out == ""
    assert err != ""


def test_rel_gcsvd_command(tmp_path):
    path = write_json(
        tmp_path, "r.json", {"src": 2, "tgt": 2, "pairs": [[0, 0], [1, 1]]}
    )
    code, out, _ = run_cli("rel", "gcsvd", "--in", path)
    doc = json.loads(out)
    assert code == 0 and set(doc) == {"r", "d", "s"}


def test_rel_gcsvd_refuses_non_difunctional(tmp_path):
    path = write_json(
        tmp_path, "b.json", {"src": 2, "tgt": 2, "pairs": [[0, 0], [1, 0], [1, 1]]}
    )
    code, out, err = run_cli("rel", "gcsvd", "--in", path)
    assert code == 1 and err.startswith("refused:")


def test_a_relation_without_inverse_is_refused_with_its_residual(tmp_path):
    path = write_json(
        tmp_path, "b.json", {"src": 2, "tgt": 2, "pairs": [[0, 0], [1, 0], [1, 1]]}
    )
    runs = {
        command: run_cli(*command.split(), "--in", path)
        for command in ("rel difunctional", "rel mp", "rel gcsvd", "karoubi check")
    }
    assert [code for code, _, _ in runs.values()] == [1, 1, 1, 1]
    assert json.loads(runs["rel difunctional"][1]) == {"difunctional": False}
    assert json.loads(runs["rel mp"][1]) == {"exists": False}
    refusal = (
        "refused: relation is not difunctional, so no inverse exists (residual 1.000e+00)\n"
    )
    for command in ("rel gcsvd", "karoubi check"):
        assert runs[command][1:] == ("", refusal), command


@pytest.mark.parametrize(
    "generic, exact",
    [("pinv", "rel mp"), ("split-idem", "rel split-per"), ("gcsvd", "rel gcsvd")],
)
def test_a_generic_verb_on_a_relation_prints_its_rel_spelling(tmp_path, generic, exact):
    for src, tgt in ((2, 2), (2, 3)):
        for r in all_relations(src, tgt):
            obj = rel_to_obj(r)
            path = write_json(tmp_path, "r.json", obj)
            want = run_cli(*exact.split(), "--in", path)
            assert run_cli(generic, "--in", path) == want, obj
            # an exact instance ignores the tolerance flags
            assert run_cli(generic, "--in", path, "--eq-tol", "0.5") == want, obj


def test_pinv_of_a_partial_injection_prints_its_dagger(tmp_path):
    path = write_json(tmp_path, "p.json", {"src": 3, "tgt": 2, "map": [[0, 1], [2, 0]]})
    code, out, err = run_cli("pinv", "--in", path)
    assert (code, err) == (0, "")
    assert json.loads(out) == {"src": 2, "tgt": 3, "map": [[0, 2], [1, 0]]}


@pytest.mark.parametrize("command", ["gcsvd", "split-idem"])
def test_a_partial_injection_cannot_be_split(tmp_path, command):
    # {0 -> 0} on two points is its own dagger and idempotent: only the
    # missing capability refuses it.
    path = write_json(tmp_path, "p.json", {"src": 2, "tgt": 2, "map": [[0, 0]]})
    code, out, err = run_cli(command, "--in", path)
    assert (code, out) == (2, "")
    assert err == "error: pinj instance cannot split idempotents\n"


def test_pinj_verify_single_map(tmp_path):
    path = write_json(tmp_path, "p.json", {"src": 3, "tgt": 3, "map": [[0, 1], [1, 0]]})
    code, out, _ = run_cli("pinj", "verify", "--in", path)
    doc = json.loads(out)
    assert code == 0
    assert doc == {
        "mp_all_hold": True,
        "law_regular": True,
        "law_projections_commute": True,
    }


def test_pinj_verify_rejects_non_parallel_pair(tmp_path):
    f = write_json(tmp_path, "f.json", {"src": 2, "tgt": 2, "map": [[0, 0]]})
    g = write_json(tmp_path, "g.json", {"src": 2, "tgt": 3, "map": [[0, 0]]})
    code, out, err = run_cli("pinj", "verify", "--in", f, "--in", g)
    assert code == 2 and err.startswith("error:")


def test_karoubi_check_all_three_kinds(tmp_path):
    cases = [
        matrix_file(tmp_path, "m.json", [[1, 2], [2, 4]]),
        write_json(tmp_path, "r.json", {"src": 2, "tgt": 3, "pairs": [[0, 1], [1, 2]]}),
        write_json(tmp_path, "p.json", {"src": 2, "tgt": 2, "map": [[0, 1]]}),
    ]
    for path in cases:
        code, out, _ = run_cli("karoubi", "check", "--in", path)
        doc = json.loads(out)
        assert code == 0, doc
        assert doc["mp_all_hold"] and doc["round_trip_matches"]
        assert doc["karoubi_inverse_matches"]


@pytest.mark.parametrize("name", sorted(HARD_INPUTS))
def test_karoubi_check_accepts_ill_conditioned_input(tmp_path, name):
    # f and f° are fixed by f f° and f° f because MP1 and MP2 hold, at the
    # factor-norm bound that certified the pair; Hilbert 8 and Kahan 20
    # fail a re-check of that at cond 1.
    path = write_json(tmp_path, "a.json", matrix_to_obj(ComplexMatrix(HARD_INPUTS[name])))
    code, out, err = run_cli("karoubi", "check", "--in", path)
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["mp_all_hold"] and doc["round_trip_matches"]
    assert doc["karoubi_inverse_matches"]


def test_karoubi_check_refuses_relation_without_inverse(tmp_path):
    path = write_json(
        tmp_path, "b.json", {"src": 2, "tgt": 2, "pairs": [[0, 0], [1, 0], [1, 1]]}
    )
    code, out, err = run_cli("karoubi", "check", "--in", path)
    assert code == 1 and err.startswith("refused:")


REL = {"src": 2, "tgt": 2, "pairs": [[0, 1]]}


@pytest.mark.parametrize("value", ["nan", "-1"])
@pytest.mark.parametrize(
    "command, flag",
    [("svd", "--rank-tol"), ("kernel", "--rank-tol"),
     ("rank-transpose", "--rank-tol"), ("split-idem", "--eq-tol"),
     ("verify-mp", "--eq-tol"), ("karoubi check", "--rank-tol")],
)
def test_invalid_tolerance_exits_2(tmp_path, command, flag, value):
    # verify-mp and karoubi check read the flags before the input's kind,
    # so they refuse them on relations, which ignore tolerances
    if command in ("verify-mp", "karoubi check"):
        path = write_json(tmp_path, "r.json", REL)
    else:
        path = matrix_file(tmp_path, "d.json", [[3, 0], [0, 4]])
    inputs = ["--in", path] * (2 if command == "verify-mp" else 1)
    code, out, err = run_cli(*command.split(), *inputs, f"{flag}={value}")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "must be finite and nonnegative" in err


@pytest.mark.parametrize(
    "command",
    ["pinv", "svd", "kernel", "split-idem", "rank-transpose", "verify-mp", "gcsvd",
     "gsvd", "polar", "karoubi check"],
)
def test_a_bad_flag_is_reported_before_a_missing_file(tmp_path, command):
    missing = ["--in", str(tmp_path / "nowhere.json")] * (2 if command == "verify-mp" else 1)
    code, out, err = run_cli(*command.split(), *missing, "--eq-tol=-1")
    assert (code, out, err) == (2, "", "error: eq_tol must be finite and nonnegative\n")


@pytest.mark.parametrize("flag", ["--eq-tol", "--rank-tol"])
@pytest.mark.parametrize(
    "command",
    ["rel difunctional", "rel mp", "rel oracle", "rel split-per", "rel gcsvd",
     "pinj verify"],
)
def test_exact_commands_take_no_tolerance(tmp_path, capsys, command, flag):
    key = "map" if command.startswith("pinj") else "pairs"
    path = write_json(tmp_path, "x.json", {"src": 2, "tgt": 2, key: [[0, 1]]})
    with pytest.raises(SystemExit) as exc:
        main([*command.split(), "--in", path, flag, "1e-9"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


DEEP = b"[" * 100_000 + b"]" * 100_000


@pytest.mark.parametrize(
    "raw",
    [b"{not json", b"\xff\xfe{}", DEEP,
     b'{"src": 2, "tgt": 2, "pairs": [], "pairs": [[0, 0]]}'],
    ids=["not-json", "not-utf8", "too-deep", "repeated-key"],
)
def test_malformed_json_exits_2(tmp_path, raw):
    p = tmp_path / "bad.json"
    p.write_bytes(raw)
    command = "rel mp" if b"pairs" in raw else "pinv"
    code, out, err = run_cli(*command.split(), "--in", str(p))
    assert code == 2 and out == ""
    assert err.startswith("error:") and "invalid JSON" in err


def test_missing_file_exits_2(tmp_path):
    code, out, err = run_cli("pinv", "--in", str(tmp_path / "nowhere.json"))
    assert code == 2 and err.startswith("error:")


def test_wrong_input_arity_exits_2(tmp_path):
    f = matrix_file(tmp_path, "f.json", [[1]])
    code, _, err = run_cli("verify-mp", "--in", f)
    assert code == 2 and "expected 2" in err
    code, _, err = run_cli("pinv", "--in", f, "--in", f)
    assert code == 2 and "expected 1" in err


def test_mistyped_payload_exits_2(tmp_path):
    path = write_json(tmp_path, "odd.json", {"rows": 1, "cols": 1})
    code, _, err = run_cli("pinv", "--in", path)
    assert code == 2 and err.startswith("error:")


def test_json_booleans_exit_2(tmp_path):
    cases = (
        ("pinv", {"rows": True, "cols": 1, "data": [[1.0, 0.0]]}),
        ("pinv", {"rows": 1, "cols": 2, "data": [[True, False], [0.0, 0.0]]}),
        ("rel mp", {"src": 1, "tgt": True, "pairs": [[0, 0]]}),
        ("pinj verify", {"src": 1, "tgt": 1, "map": [[0, False]]}),
    )
    for i, (command, obj) in enumerate(cases):
        path = write_json(tmp_path, f"bool{i}.json", obj)
        code, out, err = run_cli(*command.split(), "--in", path)
        assert code == 2 and out == "" and err.startswith("error:"), command


def test_an_integer_entry_beyond_the_float_range_exits_2(tmp_path):
    p = tmp_path / "huge.json"
    p.write_text('{"rows": 1, "cols": 1, "data": [[1%s, 0]]}' % ("0" * 400))
    code, out, err = run_cli("pinv", "--in", str(p))
    assert code == 2 and out == ""
    assert err == "error: matrix entries must be finite\n"


def test_overflow_is_a_numeric_refusal_exit_1(tmp_path):
    f = matrix_file(tmp_path, "f.json", [[1e200]])
    code, out, err = run_cli("verify-mp", "--in", f, "--in", f)
    assert code == 1 and out == "" and err.startswith("refused:")


def test_overflow_refusal_is_the_first_line_of_stderr(tmp_path):
    f = matrix_file(tmp_path, "f.json", [[1e200]])
    src = os.path.dirname(os.path.dirname(os.path.abspath(daggermp.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "daggermp.cli", "verify-mp", "--in", f, "--in", f],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 1 and proc.stderr.startswith("refused:")


def test_output_is_deterministic(tmp_path):
    path = matrix_file(tmp_path, "a.json", [[0.31, -2.7], [1.25, 4.0]])
    _, first, _ = run_cli("pinv", "--in", path)
    _, second, _ = run_cli("pinv", "--in", path)
    assert first == second


def test_out_file_mirrors_stdout(tmp_path):
    path = matrix_file(tmp_path, "a.json", [[1, 2], [2, 4]])
    dest = tmp_path / "result.json"
    code, out, _ = run_cli("pinv", "--in", path, "--out", str(dest))
    assert code == 0
    assert dest.read_text(encoding="utf-8") == out


def test_unwritable_out_file_prints_nothing_to_stdout(tmp_path):
    path = matrix_file(tmp_path, "a.json", [[1, 2], [2, 4]])
    dest = tmp_path / "missing" / "result.json"
    code, out, err = run_cli("pinv", "--in", path, "--out", str(dest))
    assert code == 2 and out == ""
    assert err.startswith("error:") and not dest.exists()


@pytest.mark.parametrize("command", ["gcsvd", "gsvd", "split-idem"])
@pytest.mark.parametrize("name", sorted(HARD_INPUTS))
def test_hard_valid_input_is_solved_or_refused(tmp_path, command, name):
    path = write_json(tmp_path, "a.json", matrix_to_obj(ComplexMatrix(HARD_INPUTS[name])))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(command, "--in", path)
    assert code in (0, 1)
    if code == 0:
        assert err == "" and json.loads(out)
    else:
        assert out == "" and err.startswith("refused:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "a, has_mp",
    [
        (HARD_INPUTS["hilbert8"], True),
        (HARD_INPUTS["kahan20"], True),
        ((0.3 + 0.7j) * np.array([[1.0, 1j]]), False),
    ],
    ids=["hilbert8", "kahan20", "isotropic"],
)
def test_rank_transpose_on_ill_conditioned_and_isotropic_input(tmp_path, a, has_mp):
    path = write_json(tmp_path, "a.json", matrix_to_obj(ComplexMatrix(a)))
    code, out, err = run_cli("rank-transpose", "--in", path)
    assert err == "" and code == (0 if has_mp else 1)
    assert json.loads(out)["has_mp"] is has_mp


def test_pretty_flag_is_stable_and_equivalent(tmp_path):
    path = matrix_file(tmp_path, "a.json", [[1, 2], [2, 4]])
    _, plain, _ = run_cli("pinv", "--in", path)
    _, pretty1, _ = run_cli("pinv", "--in", path, "--pretty")
    _, pretty2, _ = run_cli("pinv", "--in", path, "--pretty")
    assert pretty1 == pretty2 and pretty1 != plain
    assert json.loads(pretty1) == json.loads(plain)


# Valid inputs whose results overflow: 1/1e-310 inside the route, and a
# largest singular value of 2e308.
TINY, BIG = [[1e-310]], [[1e308, 1e308], [1e308, 1e308]]


@pytest.mark.parametrize(
    "command, rows",
    [("pinv", TINY), ("polar", TINY), ("gcsvd", TINY), ("karoubi check", TINY),
     ("svd", BIG)],
)
def test_an_overflow_is_a_numeric_refusal(tmp_path, command, rows):
    f = matrix_file(tmp_path, "f.json", rows)
    code, out, err = run_cli(*command.split(), "--in", f)
    assert code == 1 and out == "" and err.startswith("refused:")


@pytest.mark.parametrize("command, rows", [("pinv", TINY), ("svd", BIG)])
def test_an_overflow_refusal_is_all_of_stderr(tmp_path, command, rows):
    # A fresh interpreter, where a numpy RuntimeWarning would reach stderr.
    f = matrix_file(tmp_path, "f.json", rows)
    src = os.path.dirname(os.path.dirname(os.path.abspath(daggermp.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "daggermp.cli", command, "--in", f],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=60,
    )
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("refused:") and proc.stderr.count("\n") == 1


def strict_json(text):
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=reject)


def test_verify_mp_writes_an_overflowed_residual_as_null(tmp_path):
    # f g f - f = -3.4e308 overflows; the other three residuals are finite.
    f = matrix_file(tmp_path, "f.json", [[1.7e308]])
    g = matrix_file(tmp_path, "g.json", [[-1 / 1.7e308]])
    code, out, err = run_cli("verify-mp", "--in", f, "--in", g)
    assert code == 1 and err == ""
    got = strict_json(out)
    assert got["mp1"] is False and got["residuals"][0] is None
    assert all(isinstance(r, float) for r in got["residuals"][1:])
