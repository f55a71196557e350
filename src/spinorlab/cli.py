"""Command-line front end; all reports are deterministic for fixed flags
and seeds, JSON by default, CSV for the table commands."""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import random
import sys

from . import serialize, verify
from .admissible_forms import admissible_table, first_nondegenerate
from .brackets import beta_form, bracket_k, random_null_vector, random_spinor
from .clifford_core import Signature, build_rep, rep_table
from .cone_split import (
    invariant_spinors,
    null_plane_rotations,
    semispinor_projectors,
)
from .subspace_lab import (
    IsotropicSearchError,
    extremal_witness,
    random_surjectivity_sweep,
    save_spin45_witness,
    spin23_isotropic_scan,
    spin45_search,
)


def _parse_sig(text) -> Signature:
    try:
        p, q = (int(x) for x in text.split(","))
        sig = Signature(p, q)
    except Exception as err:
        raise argparse.ArgumentTypeError(f"signature must be 'p,q': {err}")
    if sig.n < 1:
        raise argparse.ArgumentTypeError(f"signature {text} needs p + q >= 1")
    return sig


def _parse_cone(text, min_n=2) -> Signature:
    sig = _parse_sig(text)
    if sig.p < 1 or sig.n < min_n:
        raise argparse.ArgumentTypeError(f"cone {text} needs p >= 1 and p + q >= {min_n}")
    return sig


def _positive_int(text) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text} is not a positive integer")
    return value


def _positive_float(text) -> float:
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"{text} is not a finite positive number")
    return value


def _output_path(text) -> str:
    if not os.path.isdir(os.path.dirname(text) or ".") or os.path.isdir(text):
        raise argparse.ArgumentTypeError(f"{text} is not a file path in an existing directory")
    return text


def _existing_file(text) -> str:
    if not os.path.isfile(text):
        raise argparse.ArgumentTypeError(f"{text} is not an existing file")
    return text


def _emit(payload, fmt="json"):
    if fmt == "json":
        print(json.dumps({"schema": serialize.SCHEMA, **payload}, sort_keys=True))
    else:
        rows = payload["rows"]
        cols = list(rows[0].keys())
        print(",".join(cols))
        for row in rows:
            print(",".join(str(row[c]) for c in cols))


def cmd_rep_table(args):
    _emit({"rows": rep_table(args.max_n)}, args.format)
    return 0


def cmd_admissible_table(args):
    _emit({"rows": admissible_table(args.max_n)}, args.format)
    return 0


def cmd_bracket(args):
    sig = args.sig
    if not 0 <= args.k <= sig.n:
        print(f"error: --k {args.k} is outside 0..n = {sig.n}", file=sys.stderr)
        return 2
    rep = build_rep(sig)
    form = first_nondegenerate(rep)
    rng = random.Random(args.seed)
    s = random_spinor(rep, rng)
    t = random_spinor(rep, rng)
    omega = bracket_k(rep, form, s, t, args.k)
    payload = {
        "signature": {"p": sig.p, "q": sig.q},
        "k": args.k,
        "sigma": form.sigma,
        "tau": form.tau,
        "s": [serialize.scalar_to_json(x) for x in s],
        "t": [serialize.scalar_to_json(x) for x in t],
        "bracket": [serialize.scalar_to_json(c) for c in omega],
    }
    if not sig.is_definite():
        v = random_null_vector(sig, rng)
        dim = rep.N - beta_form(rep, form, v)  # dim ker gamma_v
        payload["null_kernel"] = {
            "v": [serialize.scalar_to_json(x) for x in v],
            "dim": dim,
            "half_module": 2 * dim == rep.N,
        }
    _emit(payload)
    return 0


def cmd_bound_search(args):
    sig = args.sig
    rep = build_rep(sig)
    form = first_nondegenerate(rep)
    if args.dim is not None and args.dim > rep.N:
        print(f"error: --dim {args.dim} exceeds the module dimension N = {rep.N}", file=sys.stderr)
        return 2
    dim = args.dim if args.dim is not None else 3 * rep.N // 4 + 1
    sweep = random_surjectivity_sweep(rep, form, dim, args.trials, args.seed)
    payload = {
        "signature": {"p": sig.p, "q": sig.q},
        "dim": dim,
        "trials": sweep.trials,
        "in_hypothesis": sweep.in_hypothesis,
        "counterexamples": len(sweep.counterexamples),
    }
    if rep.N % 4 == 0 and not sig.is_definite():
        try:
            _, _, sub = extremal_witness(sig, args.seed)
            payload["extremal_dim"] = sub.dim
        except (IsotropicSearchError, ArithmeticError) as err:  # a failed construction
            payload["extremal_error"] = str(err)
    _emit(payload)
    return 1 if (sweep.in_hypothesis and sweep.counterexamples) else 0


def cmd_spin23(args):
    report = spin23_isotropic_scan(args.trials, args.seed)
    payload = {
        "trials": report.trials,
        "seed": report.seed,
        "distribution": {str(k): v for k, v in sorted(report.distribution.items())},
    }
    _emit(payload)
    return 0 if report.distribution == {1: report.trials} else 1


def cmd_spin45(args):
    report = spin45_search(args.seed, args.budget)
    payload = {
        "found": report.found,
        "seed": report.seed,
        "trials_used": report.trials_used,
        "image_dim": report.image_dim,
        "distribution": {str(k): v for k, v in sorted(report.distribution.items())},
    }
    if report.found and args.out:
        save_spin45_witness(args.out, report)
        payload["witness_file"] = args.out
    _emit(payload)
    return 0 if report.found else 1


def cmd_cone_report(args):
    sig = args.sig
    rep = build_rep(sig)
    report = semispinor_projectors(rep)
    payload = {
        "cone": {"p": sig.p, "q": sig.q},
        "base": {"p": sig.p - 1, "q": sig.q},
        "split": report.split,
        "base_s_mod_8": report.residue,
        "quoted_list_agrees": report.quoted_list_agrees,
        "even_commutant_dim": report.commutant_dim,
    }
    if min(sig.p, sig.q) >= 1 and sig.n >= 3:
        dim = invariant_spinors(rep, null_plane_rotations(rep))
        payload["null_plane_invariants"] = {
            "dim": dim,
            "half_module": 2 * dim == rep.N,
        }
    _emit(payload)
    return 0


def cmd_model_verify(args):
    import numpy as np

    from .model_space import (
        ConstantSpinorField,
        HyperquadricModel,
        killing_residual,
    )

    model = HyperquadricModel(args.cone, num_samples=args.samples, step=args.h)
    fields = [ConstantSpinorField(column) for column in np.eye(model.N)]
    lam = None if args.lambda_sign == "auto" else 0.5 * float(args.lambda_sign)
    rows = []
    ok = True
    for i, rep in enumerate(killing_residual(model, fields, lam)):
        passed = rep.residual < args.tol
        ok = ok and passed
        rows.append(
            {
                "spinor": i,
                "killing_number": rep.killing_number,
                "residual": float(rep.residual),
                "dirac_residual": float(rep.dirac_residual),
                "passed": passed,
            }
        )
    payload = {
        "cone": {"p": args.cone.p, "q": args.cone.q},
        "h": args.h,
        "tol": args.tol,
        "rows": rows,
    }
    _emit(payload)
    return 0 if ok else 1


def cmd_verify_all(args):
    results = verify.run_all(max_n=args.max_n, seed=args.seed, witness_path=args.witness)
    for r in results:
        _emit(r.to_json())  # timing on stderr keeps stdout reproducible
        print(f"criterion {r.criterion} ran in {round(r.elapsed, 3)}s", file=sys.stderr)
    return 0 if all(r.passed for r in results) else 1


def build_parser():
    # argparse runs string defaults through `type`, so a malformed
    # SPINORLAB_SEED exits 2 from whichever seeded subcommand reads it
    seed = os.environ.get("SPINORLAB_SEED", "0")
    parser = argparse.ArgumentParser(prog="spinorlab")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rep-table", help="signature, module dimension, commutant type")
    p.add_argument("--max-n", type=_positive_int, default=8)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_rep_table)

    p = sub.add_parser("admissible-table", help="admissible form table per signature")
    p.add_argument("--max-n", type=_positive_int, default=8)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_admissible_table)

    p = sub.add_parser("bracket", help="seeded bracket evaluation and lemma checks")
    p.add_argument("--sig", type=_parse_sig, required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--seed", type=int, default=seed)
    p.set_defaults(func=cmd_bracket)

    p = sub.add_parser("bound-search", help="random subspace surjectivity sweep")
    p.add_argument("--sig", type=_parse_sig, required=True)
    p.add_argument("--dim", type=_positive_int, default=None)
    p.add_argument("--trials", type=_positive_int, default=100)
    p.add_argument("--seed", type=int, default=seed)
    p.set_defaults(func=cmd_bound_search)

    p = sub.add_parser("spin23", help="isotropic-plane bracket scan on (2,3)")
    p.add_argument("--trials", type=_positive_int, default=200)
    p.add_argument("--seed", type=int, default=seed)
    p.set_defaults(func=cmd_spin23)

    p = sub.add_parser("spin45", help="search for the dim-4 bracket witness on (4,5)")
    p.add_argument("--seed", type=int, default=seed)
    p.add_argument("--budget", type=_positive_int, default=200)
    p.add_argument("--out", type=_output_path, default=None)
    p.set_defaults(func=cmd_spin45)

    p = sub.add_parser("cone-report", help="semi-spinor split and invariant dims")
    p.add_argument("--sig", type=functools.partial(_parse_cone, min_n=1), required=True)
    p.set_defaults(func=cmd_cone_report)

    p = sub.add_parser("model-verify", help="numeric Killing checks on a hyperquadric")
    p.add_argument("--cone", type=_parse_cone, required=True)
    p.add_argument("--lambda-sign", default="auto", choices=("auto", "1", "-1"))
    p.add_argument("--h", type=_positive_float, default=1e-4)
    p.add_argument("--tol", type=_positive_float, default=1e-6)
    p.add_argument("--samples", type=_positive_int, default=16)
    p.set_defaults(func=cmd_model_verify)

    p = sub.add_parser("verify-all", help="run the acceptance suite")
    p.add_argument("--max-n", type=_positive_int, default=8)
    p.add_argument("--seed", type=int, default=seed)
    p.add_argument("--witness", type=_existing_file, default=None)
    p.set_defaults(func=cmd_verify_all)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ArithmeticError as err:  # a verified identity failed
        print(f"falsification: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
