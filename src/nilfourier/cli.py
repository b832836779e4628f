"""Command-line interface.

Every subcommand prints a single JSON document to stdout (or writes files
under ``--out``), with keys sorted and a fixed layout so identical inputs
produce byte-identical output apart from ``elapsed_seconds`` fields. Tabular
byproducts (rank tables, jump-set tables, log-signature coefficients,
convergence ladders) are embedded as CSV strings and, under ``--out``, also
written as separate ``.csv`` files ready for plotting. Timing goes to stderr.
Exit codes: 0 on success, 2 on malformed input (with a machine-readable error
document), 3 when an integration fails its convergence check.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .coadjoint import (
    Functional,
    _block_rank,
    _quotient_labels,
    b_matrix_ranks,
    full_orbit_dim,
    is_generic,
    jump_sets,
    orbit_dim_quotient_generic,
    sample_generic,
)
from .errors import NilfourierError, NonConvergence
from .fourier import (
    QuadratureSpec,
    SchwartzFunction,
    invert,
    plancherel,
)
from .lie_basis import (
    Flavor,
    GroupSpec,
    LayeredBasis,
    build_layered_basis,
    left_normed_degree3_words,
    witt_dimension,
)
from .polarization import (
    generic_polarization,
    polarization_check,
    vergne_polarization,
)
from .signatures import path_signature, read_path_csv
from .tensor_algebra import GradedElement, exp_t, log_t

DEFAULT_SEED = 2024


def _parse_spec(text: str, flavor: str) -> GroupSpec:
    parts = text.split(",")
    if len(parts) != 2:
        raise NilfourierError(f"--spec expects 'd,N', got {text!r}")
    try:
        d, n = int(parts[0]), int(parts[1])
    except ValueError:
        raise NilfourierError(f"--spec expects integers 'd,N', got {text!r}") from None
    try:
        flav = Flavor(flavor)
    except ValueError:
        names = ", ".join(f.value for f in Flavor)
        raise NilfourierError(f"unknown flavor {flavor!r}; expected one of {names}") from None
    return GroupSpec(d=d, N=n, flavor=flav)


def _resolve_basis(args) -> LayeredBasis:
    spec = _parse_spec(args.spec, args.flavor)
    if getattr(args, "paper_basis", False):
        if spec.flavor is not Flavor.FREE_NILPOTENT or spec.d != 3 or spec.N != 3:
            raise NilfourierError(
                "--paper-basis provides the alternative degree-3 word basis and "
                "requires the free nilpotent spec 3,3"
            )
        return build_layered_basis(spec, mode="user", user_words=left_normed_degree3_words())
    return build_layered_basis(spec)


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise NilfourierError(f"file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise NilfourierError(f"invalid JSON in {path}: {exc}") from None


def _load_quadrature(args) -> QuadratureSpec:
    if getattr(args, "config", None):
        obj = _load_json(args.config)
        if not isinstance(obj, dict):
            raise NilfourierError("quadrature config must be a JSON object")
        return QuadratureSpec.from_json_dict(obj)
    return QuadratureSpec.demo()


def _load_functional(args, basis: LayeredBasis) -> Functional:
    if getattr(args, "functional", None):
        obj = _load_json(args.functional)
        return Functional.from_json_dict(obj, basis=basis)
    rng = np.random.default_rng(args.seed)
    return sample_generic(basis, rng)


def _emit(args, name: str, payload: dict, csvs: dict[str, str] | None = None) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2)
    if getattr(args, "out", None):
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        target = out_dir / f"{name}.json"
        target.write_text(text + "\n", encoding="utf-8")
        print(str(target))
        for stem in sorted(csvs or {}):
            side = out_dir / f"{stem}.csv"
            side.write_text(csvs[stem], encoding="utf-8")
            print(str(side))
    else:
        print(text)


def _csv_text(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_dims(args) -> int:
    spec = _parse_spec(args.spec, args.flavor)
    payload = {
        "spec": spec.to_json_dict(),
        "layer_dims": list(spec.layer_dims()),
        "group_dim": spec.group_dim,
    }
    if spec.flavor is Flavor.FREE_NILPOTENT:
        payload["witt"] = [witt_dimension(spec.d, k) for k in range(1, spec.N + 1)]
    _emit(args, "dims", payload)
    return 0


def _cmd_basis(args) -> int:
    basis = _resolve_basis(args)
    _emit(args, "basis", basis.to_json_dict())
    return 0


def _cmd_signature(args) -> int:
    spec = _parse_spec(args.spec, args.flavor)
    try:
        path = read_path_csv(args.path)
    except FileNotFoundError:
        raise NilfourierError(f"file not found: {args.path}") from None
    if path.d != spec.d:
        raise NilfourierError(
            f"path has {path.d} coordinates but the spec expects {spec.d}"
        )
    sig = path_signature(spec, path)
    payload = {
        "spec": spec.to_json_dict(),
        "n_vertices": len(path.points),
        "signature": sig.to_json_dict(),
    }
    csvs = None
    if spec.flavor is Flavor.FREE_NILPOTENT:
        basis = _resolve_basis(args)
        coords = basis.flat_coords(log_t(sig))
        payload["log_coordinates"] = [float(v) for v in coords]
        payload["malcev_order"] = [[k, i] for (k, i) in basis.malcev_order]
        rows = [
            [str(basis.layers[k - 1].elements[i - 1]), repr(float(coords[j]))]
            for j, (k, i) in enumerate(basis.malcev_order)
        ]
        table = _csv_text(["basis_element", "coefficient"], rows)
        payload["log_signature_csv"] = table
        csvs = {"log_signature": table}
    _emit(args, "signature", payload, csvs)
    return 0


def _cmd_generic_test(args) -> int:
    basis = _resolve_basis(args)
    if args.functional:
        ells = [Functional.from_json_dict(_load_json(args.functional), basis=basis)]
        sampled = False
    else:
        rng = np.random.default_rng(args.seed)
        ells = [
            Functional(basis, np.asarray(rng.standard_normal(basis.dim)))
            for _ in range(args.count)
        ]
        sampled = True
    reports = []
    table_rows: list[list] = []
    for idx, ell in enumerate(ells):
        generic = is_generic(ell)
        entry = {
            "generic": bool(generic),
            "coords": [[k, i, float(v)] for (k, i), v in sorted(ell.coords().items())],
        }
        if not basis.spec.degenerate:
            entry["pairing_ranks"] = [
                {"k": k, "rank": r, "required": _block_rank(basis.spec, k)}
                for k, r in sorted(b_matrix_ranks(ell).items())
            ]
        rows = [
            [idx, bool(generic), item["k"], item["rank"], item["required"]]
            for item in entry.get("pairing_ranks", [])
        ]
        table_rows.extend(rows or [[idx, bool(generic), "", "", ""]])
        reports.append(entry)
    table = _csv_text(["functional", "generic", "k", "rank", "required"], table_rows)
    payload = {
        "spec": basis.spec.to_json_dict(),
        "sampled": sampled,
        "seed": args.seed if sampled else None,
        "functionals": reports,
        "table_csv": table,
    }
    _emit(args, "generic-test", payload, {"generic-test": table})
    return 0


def _cmd_orbit_dims(args) -> int:
    basis = _resolve_basis(args)
    spec = basis.spec
    dims = spec.layer_dims()
    quotients = [
        {"k": k, "m": m, "generic_dim": orbit_dim_quotient_generic(spec, k, m)}
        for k, m in _quotient_labels(spec)
    ]
    table = _csv_text(
        ["k", "m", "generic_dim"],
        [[q["k"], q["m"], q["generic_dim"]] for q in quotients],
    )
    payload = {
        "spec": spec.to_json_dict(),
        "quotients": quotients,
        "full_generic_dim": orbit_dim_quotient_generic(spec, spec.N - 1, dims[0]),
        "table_csv": table,
    }
    if args.functional or args.numeric:
        ell = _load_functional(args, basis)
        payload["functional"] = ell.to_json_dict()
        payload["functional_full_dim"] = full_orbit_dim(ell)
    _emit(args, "orbit-dims", payload, {"orbit-dims": table})
    return 0


def _cmd_jump_sets(args) -> int:
    basis = _resolve_basis(args)
    jump = jump_sets(basis)
    rows = [["S", k, i] for (k, i) in jump.S] + [["T", k, i] for (k, i) in jump.T]
    table = _csv_text(["set", "k", "i"], rows)
    payload = jump.to_json_dict()
    payload["table_csv"] = table
    _emit(args, "jump-sets", payload, {"jump-sets": table})
    return 0


def _cmd_polarization(args) -> int:
    basis = _resolve_basis(args)
    ell = _load_functional(args, basis)
    if args.method == "generic":
        sub = generic_polarization(ell)
    else:
        sub = vergne_polarization(ell)
    report = polarization_check(sub, ell)
    payload = {
        "spec": basis.spec.to_json_dict(),
        "method": args.method,
        "functional": ell.to_json_dict(),
        "vectors": [[float(v) for v in row] for row in sub.vectors],
        "check": report,
    }
    _emit(args, "polarization", payload)
    return 0


def _convergence_ladder(
    name: str, qspec: QuadratureSpec, run, error_header: str
) -> tuple[str, float, object, float]:
    """Run ``run(rung, final)`` on coarser copies of ``qspec`` (node counts
    scaled by 0.5 and 0.75, at least 8) and then on ``qspec`` itself; ``run``
    returns ``(error, result)``. Gives the ladder as CSV, the final error and
    result, and the elapsed time (also reported on stderr)."""
    t0 = time.perf_counter()
    rungs: list[QuadratureSpec] = []
    for factor in (0.5, 0.75, 1.0):
        rung = replace(
            qspec,
            h_nodes=max(8, round(qspec.h_nodes * factor)),
            section_nodes=max(8, round(qspec.section_nodes * factor)),
            t_nodes=max(8, round(qspec.t_nodes * factor)),
        )
        if not rungs or rung != rungs[-1]:
            rungs.append(rung)
    rungs[-1] = qspec
    rows = []
    for i, rung in enumerate(rungs):
        err, result = run(rung, i == len(rungs) - 1)
        rows.append([rung.h_nodes, rung.section_nodes, rung.t_nodes, repr(float(err))])
    elapsed = time.perf_counter() - t0
    print(f"{name} elapsed: {elapsed:.2f}s", file=sys.stderr)
    table = _csv_text(["h_nodes", "section_nodes", "t_nodes", error_header], rows)
    return table, err, result, elapsed


def _cmd_fourier_demo(args) -> int:
    basis = _resolve_basis(args)
    spec = basis.spec
    qspec = _load_quadrature(args)
    f = SchwartzFunction.gaussian(basis.dim, scale=args.scale)
    points: list[tuple[str, GradedElement]] = [
        ("identity", GradedElement.identity(spec))
    ]
    rng = np.random.default_rng(args.seed)
    coeffs = 0.25 * rng.standard_normal(basis.dim)
    shifted = exp_t(basis.algebra_element(coeffs))
    points.append(("random_shift", shifted))

    def run_points(q: QuadratureSpec, final: bool) -> tuple[float, list[dict]]:
        rows = []
        worst = 0.0
        for label, x in points:
            value = invert(f, x, basis, q, convergence_tol=args.convergence_tol if final else None)
            coords = basis.flat_coords(log_t(x))
            expected = float(np.real(f(coords)))
            err = float(abs(value - expected))
            worst = max(worst, err)
            rows.append(
                {
                    "point": label,
                    "coordinates": [float(v) for v in coords],
                    "inverted_real": float(np.real(value)),
                    "inverted_imag": float(np.imag(value)),
                    "direct_value": expected,
                    "abs_error": err,
                }
            )
        return worst, rows

    table, worst, results, elapsed = _convergence_ladder(
        "fourier-demo", qspec, run_points, "max_abs_error"
    )
    payload = {
        "spec": spec.to_json_dict(),
        "quadrature": qspec.to_json_dict(),
        "gaussian_scale": args.scale,
        "seed": args.seed,
        "results": results,
        "max_abs_error": worst,
        "convergence_csv": table,
        "elapsed_seconds": elapsed,
    }
    _emit(args, "fourier-demo", payload, {"fourier-demo-convergence": table})
    return 0


def _cmd_plancherel_check(args) -> int:
    basis = _resolve_basis(args)
    qspec = _load_quadrature(args)
    f = SchwartzFunction.gaussian(basis.dim, scale=args.scale)

    def run(q: QuadratureSpec, final: bool) -> tuple[float, dict]:
        report = plancherel(f, basis, q)
        return abs(report["ratio"] - 1.0), report

    table, _, report, elapsed = _convergence_ladder(
        "plancherel-check", qspec, run, "abs_ratio_error"
    )
    payload = {
        "spec": basis.spec.to_json_dict(),
        "quadrature": qspec.to_json_dict(),
        "gaussian_scale": args.scale,
        "direct_norm_sq": report["lhs"],
        "transform_norm_sq": report["rhs"],
        "ratio": report["ratio"],
        "convergence_csv": table,
        "elapsed_seconds": elapsed,
    }
    _emit(args, "plancherel-check", payload, {"plancherel-convergence": table})
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser, *, spec_default: str | None = None) -> None:
    if spec_default is None:
        p.add_argument("--spec", required=True, help="group spec as 'd,N'")
    else:
        p.add_argument("--spec", default=spec_default, help="group spec as 'd,N'")
    p.add_argument(
        "--flavor",
        default=Flavor.FREE_NILPOTENT.value,
        help="basis flavor: FreeNilpotent or FullTensor",
    )
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="sampling seed")
    p.add_argument("--out", default=None, help="directory for the JSON output file")
    p.add_argument(
        "--paper-basis",
        action="store_true",
        help="use the alternative left-normed degree-3 word basis (spec 3,3 only)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nilfourier",
        description="Harmonic analysis on truncated tensor groups.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dims", help="layer and group dimensions")
    _add_common(p)
    p.set_defaults(func=_cmd_dims)

    p = sub.add_parser("basis", help="layered basis with structure constants")
    _add_common(p)
    p.set_defaults(func=_cmd_basis)

    p = sub.add_parser("signature", help="path signature from a CSV of vertices")
    _add_common(p)
    p.add_argument("--path", required=True, help="CSV file of path vertices")
    p.set_defaults(func=_cmd_signature)

    p = sub.add_parser("generic-test", help="flat-orbit genericity test")
    _add_common(p)
    p.add_argument("--functional", default=None, help="functional JSON file")
    p.add_argument("--count", type=int, default=5, help="sampled functionals")
    p.set_defaults(func=_cmd_generic_test)

    p = sub.add_parser("orbit-dims", help="generic quotient orbit dimensions")
    _add_common(p)
    p.add_argument("--functional", default=None, help="functional JSON file")
    p.add_argument(
        "--numeric",
        action="store_true",
        help="also report the rank-based full orbit dimension of a functional",
    )
    p.set_defaults(func=_cmd_orbit_dims)

    p = sub.add_parser("jump-sets", help="jump and transverse index sets")
    _add_common(p)
    p.set_defaults(func=_cmd_jump_sets)

    p = sub.add_parser("polarization", help="polarization subalgebra for a functional")
    _add_common(p)
    p.add_argument("--functional", default=None, help="functional JSON file")
    p.add_argument(
        "--method",
        choices=["generic", "radical"],
        default="generic",
        help="layer-built generic construction or prefix-radical construction",
    )
    p.set_defaults(func=_cmd_polarization)

    p = sub.add_parser("fourier-demo", help="invert a Gaussian through the transform")
    _add_common(p, spec_default="2,2")
    p.add_argument("--config", default=None, help="quadrature config JSON file")
    p.add_argument("--scale", type=float, default=1.0, help="Gaussian width")
    p.add_argument(
        "--convergence-tol",
        type=float,
        default=None,
        help="raise (exit 3) if doubling the frequency grid moves results more than this",
    )
    p.set_defaults(func=_cmd_fourier_demo)

    p = sub.add_parser("plancherel-check", help="compare both sides of the Plancherel identity")
    _add_common(p, spec_default="2,2")
    p.add_argument("--config", default=None, help="quadrature config JSON file")
    p.add_argument("--scale", type=float, default=1.0, help="Gaussian width")
    p.set_defaults(func=_cmd_plancherel_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NilfourierError as exc:
        error = {"type": type(exc).__name__, "message": str(exc)}
        print(json.dumps({"error": error}, sort_keys=True, indent=2))
        return 3 if isinstance(exc, NonConvergence) else 2


if __name__ == "__main__":
    sys.exit(main())
