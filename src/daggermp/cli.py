"""Command line front end.

One subcommand per library entry point, JSON in and JSON out.  Inputs
are files passed with --in (repeatable, order matters for two-input
commands); results go to stdout and, with --out, to a file as the same
bytes.  Output is deterministic: the same inputs always produce the
same bytes.  It is strict JSON, with no NaN or Infinity.

pinv, split-idem, gcsvd, verify-mp and karoubi check take a matrix, a
relation or a partial injection, told apart by the input's keys, and
refuse with exit 2 a capability the input's instance lacks; svd,
kernel, rank-transpose, gsvd and polar take a matrix.  These commands
accept --rank-tol and --eq-tol and validate them before reading any
input file; an exact instance ignores them.  rel mp,
rel split-per and rel gcsvd run the handlers of pinv, split-idem and
gcsvd at the default tolerance.  The rel and pinj commands are exact
and take neither flag.

Exit codes: 0 when the command succeeds and any checked property holds,
1 when a property fails or a construction is refused (precondition,
no inverse, decomposition refused, numeric failure), 2 for malformed
input or a capability the chosen instance does not have.  An input
file that is not UTF-8, is not JSON, is nested too deeply to parse or
repeats a key within an object is malformed.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Optional

from .core import (
    EQ_TOL_DEFAULT,
    CapabilityError,
    DaggerError,
    InputError,
    NoMPInverseError,
    NumericError,
    Tolerance,
    require_mp,
    split,
    verify_mp,
)

# Each handler imports the instance modules it uses, so a relation or
# partial-injection command never loads the matrix stack or numpy.


def _unique_keys(pairs: list) -> dict:
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise InputError(f"repeated key {key!r}")
        obj[key] = value
    return obj


def _load_json(path: str) -> Any:
    """The package's only file reader: UTF-8 JSON with no repeated key."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return json.loads(raw.decode("utf-8"), object_pairs_hook=_unique_keys)
    # ValueError covers text that is not UTF-8 or not JSON, and a repeated key.
    except (ValueError, RecursionError) as exc:
        raise InputError(f"{path}: invalid JSON ({exc})") from None


def _expect_inputs(args: argparse.Namespace, n: int) -> list:
    paths = args.inputs or []
    if len(paths) != n:
        raise InputError(f"expected {n} --in file(s), got {len(paths)}")
    return [_load_json(p) for p in paths]


def _tolerance(args: argparse.Namespace) -> Tolerance:
    return Tolerance(rank_tol=args.rank_tol, eq_tol=args.eq_tol)


def _morphism(obj: Any, tol: Tolerance):
    """(kind, instance, morphism, to_obj) of a JSON object, its kind told
    by its keys; to_obj writes a morphism of that kind back as JSON."""
    if not isinstance(obj, dict):
        raise InputError("input must be a JSON object")
    if "data" in obj:
        from .matrix import MatrixInstance, matrix_from_obj, matrix_to_obj

        return "matrix", MatrixInstance(tol), matrix_from_obj(obj), matrix_to_obj
    if "pairs" in obj:
        from .rel import RelInstance, rel_from_obj, rel_to_obj

        return "rel", RelInstance(), rel_from_obj(obj), rel_to_obj
    if "map" in obj:
        from .pinj import PInjInstance, pinj_from_obj, pinj_to_obj

        return "pinj", PInjInstance(), pinj_from_obj(obj), pinj_to_obj
    raise InputError("cannot tell matrix / relation / partial injection apart")


def _one_morphism(args: argparse.Namespace):
    """:func:`_morphism` of the one --in file, at the command's tolerance,
    which is validated first."""
    tol = _tolerance(args)
    (obj,) = _expect_inputs(args, 1)
    return _morphism(obj, tol)


def _one_matrix(args: argparse.Namespace):
    """(matrix instance at the command's tolerance, the matrix of the one
    --in file); the tolerance is validated first, as in :func:`_one_morphism`."""
    from .matrix import MatrixInstance, matrix_from_obj

    tol = _tolerance(args)
    (obj,) = _expect_inputs(args, 1)
    return MatrixInstance(tol), matrix_from_obj(obj)


def cmd_pinv(args) -> tuple[dict, int]:
    """pinv and rel mp: the instance's inverse, certified, or
    {"exists": false} when the instance finds that none exists."""
    _, inst, f, to_obj = _one_morphism(args)
    try:
        g = inst.mp(f)
    except NoMPInverseError:
        return {"exists": False}, 1
    return to_obj(require_mp(inst, f, g, NumericError, "pinv")), 0


def cmd_svd(args) -> tuple[dict, int]:
    from .matrix import matrix_to_obj, svd

    inst, a = _one_matrix(args)
    res = svd(a, rank_tol=inst.tolerance.rank_tol)
    out = {
        "u": matrix_to_obj(res.u),
        "sigma": list(res.sigma),
        "v": matrix_to_obj(res.v),
        "rank": res.rank,
    }
    return out, 0


def cmd_kernel(args) -> tuple[dict, int]:
    from .matrix import dagger_kernel, matrix_to_obj

    inst, a = _one_matrix(args)
    k = dagger_kernel(a, rank_tol=inst.tolerance.rank_tol)
    return matrix_to_obj(k), 0


def cmd_split_idem(args) -> tuple[dict, int]:
    """split-idem and rel split-per: the certified splitting of a dagger idempotent."""
    _, inst, e, to_obj = _one_morphism(args)
    return to_obj(split(inst, e)), 0


def cmd_rank_transpose(args) -> tuple[dict, int]:
    from .matrix import _transpose_ranks, _transpose_rule

    inst, a = _one_matrix(args)
    r, r_left, r_right = ranks = _transpose_ranks(a, inst.tolerance.rank_tol)
    has = _transpose_rule(*ranks)
    out = {"has_mp": has, "rank": r, "rank_a_at": r_left, "rank_at_a": r_right}
    return out, 0 if has else 1


def cmd_verify_mp(args) -> tuple[dict, int]:
    tol = _tolerance(args)
    obj_f, obj_g = _expect_inputs(args, 2)
    kind_f, inst, f, _ = _morphism(obj_f, tol)
    kind_g, _, g, _ = _morphism(obj_g, tol)
    if kind_f != kind_g:
        raise InputError(f"inputs are different kinds: {kind_f} and {kind_g}")
    report = verify_mp(inst, f, g)
    out = {"instance": kind_f}
    out.update(report.as_dict())
    return out, 0 if report.all_hold else 1


def cmd_gcsvd(args) -> tuple[dict, int]:
    """gcsvd and rel gcsvd: the compact form through the instance's inverse.

    Only a matrix's residuals are printed: an exact instance's are 0.
    """
    from .decomp import gcsvd_from_mp

    kind, inst, f, to_obj = _one_morphism(args)
    t = gcsvd_from_mp(inst, f, inst.mp(f))
    out = {"r": to_obj(t.r), "d": to_obj(t.d), "s": to_obj(t.s)}
    if kind == "matrix":
        out["residuals"] = t.residuals
    return out, 0


def cmd_gsvd(args) -> tuple[dict, int]:
    from .decomp import gsvd_from_mp
    from .matrix import matrix_to_obj

    inst, f = _one_matrix(args)
    t = gsvd_from_mp(inst, f, inst.mp(f))
    out = {
        "u": matrix_to_obj(t.u),
        "d": matrix_to_obj(t.d),
        "v": matrix_to_obj(t.v),
        "v_classical": matrix_to_obj(inst.dagger(t.v)),
        "dims": list(t.dims),
        "residuals": t.residuals,
    }
    return out, 0


def cmd_polar(args) -> tuple[dict, int]:
    from .decomp import polar_from_mp
    from .matrix import matrix_to_obj

    inst, f = _one_matrix(args)
    pair = polar_from_mp(inst, f, inst.mp(f))
    out = {
        "u": matrix_to_obj(pair.u),
        "h": matrix_to_obj(pair.h),
        "residuals": pair.residuals,
    }
    return out, 0


def cmd_rel_difunctional(args) -> tuple[dict, int]:
    from .rel import is_difunctional, rel_from_obj

    (obj,) = _expect_inputs(args, 1)
    ok = is_difunctional(rel_from_obj(obj))
    return {"difunctional": ok}, 0 if ok else 1


def cmd_rel_oracle(args) -> tuple[dict, int]:
    from .rel import brute_force_mp, rel_from_obj, rel_to_obj

    (obj,) = _expect_inputs(args, 1)
    g = brute_force_mp(rel_from_obj(obj))
    if g is None:
        return {"exists": False}, 1
    return rel_to_obj(g), 0


def cmd_pinj_verify(args) -> tuple[dict, int]:
    from .pinj import PInjInstance, pinj_from_obj, verify_inverse_category_laws

    paths = args.inputs or []
    if len(paths) not in (1, 2):
        raise InputError(f"expected 1 or 2 --in file(s), got {len(paths)}")
    objs = [_load_json(p) for p in paths]
    f = pinj_from_obj(objs[0])
    g = pinj_from_obj(objs[1]) if len(objs) == 2 else f
    inst = PInjInstance()
    report = verify_mp(inst, f, f.dagger())
    regular, commute = verify_inverse_category_laws(f, g)
    out = {
        "mp_all_hold": report.all_hold,
        "law_regular": regular,
        "law_projections_commute": commute,
    }
    ok = report.all_hold and regular and commute
    return out, 0 if ok else 1


def cmd_karoubi_check(args) -> tuple[dict, int]:
    from .karoubi import embed, iso_from_mp, mp_from_iso, mp_in_karoubi

    kind, inst, f, _ = _one_morphism(args)
    f_mp = inst.mp(f)
    # Refuses a pair that fails any of the four identities, so they hold below.
    forward, backward = iso_from_mp(inst, f, f_mp)
    f_back, g_back = mp_from_iso(inst, forward, backward)
    round_trip = inst.equals(f_back, f) and inst.equals(g_back, f_mp)
    housed = mp_in_karoubi(inst, embed(inst, f), base_mp=lambda _: f_mp)
    karoubi_matches = inst.equals(housed.f, f_mp)
    out = {
        "instance": kind,
        "mp_all_hold": True,
        "round_trip_matches": round_trip,
        "karoubi_inverse_matches": karoubi_matches,
    }
    ok = round_trip and karoubi_matches
    return out, 0 if ok else 1


# (command, handler, whether it takes tolerance flags, help).  A two-word
# command is a subcommand of the group named by its first word.  rel mp,
# rel split-per and rel gcsvd share the handlers of pinv, split-idem and
# gcsvd, and run them at the default tolerance.
COMMANDS = (
    ("pinv", cmd_pinv, True,
     "Moore-Penrose inverse (matrix, relation or partial injection)"),
    ("svd", cmd_svd, True, "singular value decomposition of a matrix"),
    ("kernel", cmd_kernel, True, "orthonormal basis of the left null space"),
    ("split-idem", cmd_split_idem, True, "split a dagger idempotent (matrix or relation)"),
    ("rank-transpose", cmd_rank_transpose, True,
     "existence of an inverse for the plain-transpose dagger"),
    ("verify-mp", cmd_verify_mp, True, "check the four inverse identities (two inputs)"),
    ("gcsvd", cmd_gcsvd, True, "compact factorization r . d . s (matrix or relation)"),
    ("gsvd", cmd_gsvd, True, "full unitary factorization u . (d + 0) . v"),
    ("polar", cmd_polar, True, "polar factorization u . h"),
    ("rel difunctional", cmd_rel_difunctional, False, "test zig-zag closedness"),
    ("rel mp", cmd_pinv, False, "inverse via the difunctionality criterion"),
    ("rel oracle", cmd_rel_oracle, False, "inverse by exhaustive search (small sizes)"),
    ("rel split-per", cmd_split_idem, False, "classes of a partial equivalence relation"),
    ("rel gcsvd", cmd_gcsvd, False, "exact compact factorization"),
    ("pinj verify", cmd_pinj_verify, False,
     "dagger-is-inverse identities (one map, optionally a second parallel one)"),
    ("karoubi check", cmd_karoubi_check, True,
     "round-trip a map through its splitting (matrix, relation or partial injection)"),
)
GROUPS = {
    "rel": "finite relation commands",
    "pinj": "partial injection commands",
    "karoubi": "formal idempotent splitting commands",
}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--in",
        dest="inputs",
        action="append",
        metavar="PATH",
        help="input JSON file; repeat for commands taking two",
    )
    common.add_argument("--out", metavar="PATH", help="also write the output here")
    common.add_argument(
        "--pretty", action="store_true", help="indent the JSON output"
    )
    common.set_defaults(rank_tol=None, eq_tol=EQ_TOL_DEFAULT)
    numeric = argparse.ArgumentParser(add_help=False, parents=[common])
    numeric.add_argument(
        "--rank-tol",
        type=float,
        default=None,
        help="singular value cutoff (default scales with the input)",
    )
    numeric.add_argument(
        "--eq-tol", type=float, default=EQ_TOL_DEFAULT, help="equality tolerance"
    )

    parser = argparse.ArgumentParser(
        prog="daggermp",
        description="Moore-Penrose inverses and factorizations for matrices, "
        "relations and partial injections",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    groups = {"": sub}
    for name, handler, takes_tol, help_ in COMMANDS:
        group, _, leaf = name.rpartition(" ")
        if group not in groups:
            g = sub.add_parser(group, help=GROUPS[group])
            groups[group] = g.add_subparsers(dest=f"{group}_command", required=True)
        p = groups[group].add_parser(
            leaf, parents=[numeric if takes_tol else common], help=help_
        )
        p.set_defaults(handler=handler)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        out, code = args.handler(args)
    except (InputError, CapabilityError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DaggerError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 1
    text = json.dumps(out, indent=2 if args.pretty else None, allow_nan=False) + "\n"
    if args.out:  # before stdout, so a failed write prints no result
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
