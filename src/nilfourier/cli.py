"""Command-line interface.

Every subcommand prints a single JSON document to stdout (or writes files
under ``--out``), with keys sorted and a fixed layout so identical inputs
produce byte-identical output apart from ``elapsed_seconds`` fields. Tabular
byproducts (rank tables, jump-set tables, log-signature coefficients,
convergence ladders) are embedded as CSV strings and, under ``--out``, also
written as separate ``.csv`` files ready for plotting. Timing goes to stderr.
Each subcommand declares only the options it reads (``--seed`` where it
samples, ``--paper-basis`` where it builds a basis), so any other option is a
usage error. Exit codes: 0 on success, 2 on malformed input (with a
machine-readable error document), 3 when an integration fails its convergence
check.
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
    json_enum,
    left_normed_degree3_words,
    witt_dimension,
)
from .polarization import _layer_polarization, polarization_check, vergne_polarization
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
    return GroupSpec(d=d, N=n, flavor=json_enum("flavor", flavor, Flavor))


def _resolve_basis(args) -> LayeredBasis:
    spec = _parse_spec(args.spec, args.flavor)
    if args.paper_basis:
        if spec.flavor is not Flavor.FREE_NILPOTENT or spec.d != 3 or spec.N != 3:
            raise NilfourierError(
                "--paper-basis provides the alternative degree-3 word basis and "
                "requires the free nilpotent spec 3,3"
            )
        return build_layered_basis(spec, left_normed_degree3_words())
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
    if args.config:
        obj = _load_json(args.config)
        if not isinstance(obj, dict):
            raise NilfourierError("quadrature config must be a JSON object")
        return QuadratureSpec.from_json_dict(obj)
    return QuadratureSpec.demo()


def _load_functional(args, basis: LayeredBasis) -> Functional:
    if args.functional:
        obj = _load_json(args.functional)
        return Functional.from_json_dict(obj, basis=basis)
    rng = np.random.default_rng(args.seed)
    return sample_generic(basis, rng)


def _emit(args, name: str, payload: dict, csvs: dict[str, str] | None = None) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2)
    if args.out:
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
    sampled = not args.functional
    if sampled:
        rng = np.random.default_rng(args.seed)
        ells = [Functional(basis, rng.standard_normal(basis.dim)) for _ in range(args.count)]
    else:
        ells = [_load_functional(args, basis)]
    reports = []
    table_rows: list[list] = []
    for idx, ell in enumerate(ells):
        generic = is_generic(ell)
        entry = {
            "generic": bool(generic),
            "coords": ell.to_json_dict()["coords"],
            "pairing_ranks": [
                {"k": k, "rank": r, "required": _block_rank(basis.spec, k)}
                for k, r in sorted(b_matrix_ranks(ell).items())
            ],
        }
        rows = [
            [idx, bool(generic), item["k"], item["rank"], item["required"]]
            for item in entry["pairing_ranks"]
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
    construct = _layer_polarization if args.method == "generic" else vergne_polarization
    sub = construct(ell)
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
    """Run ``run(rung, final)`` on ``qspec`` itself and then on coarser copies
    of it (node counts scaled by 0.5 and 0.75, at least 8); ``run`` returns
    ``(error, result)``. The final rung runs first, so whatever it checks (or
    fails to converge) stops the ladder before a coarse rung runs. Gives the
    ladder as CSV in rung order, the final error and result, and the elapsed
    time (also reported on stderr)."""
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
    err, result = run(qspec, True)
    errors = [run(rung, False)[0] for rung in rungs[:-1]] + [err]
    rows = [
        [rung.h_nodes, rung.section_nodes, rung.t_nodes, repr(float(e))]
        for rung, e in zip(rungs, errors)
    ]
    elapsed = time.perf_counter() - t0
    print(f"{name} elapsed: {elapsed:.2f}s", file=sys.stderr)
    table = _csv_text(["h_nodes", "section_nodes", "t_nodes", error_header], rows)
    return table, err, result, elapsed


def _cmd_fourier_demo(args) -> int:
    basis = _resolve_basis(args)
    spec = basis.spec
    qspec = _load_quadrature(args)
    f = SchwartzFunction.gaussian(basis.dim, scale=args.scale)
    rng = np.random.default_rng(args.seed)
    coeffs = 0.25 * rng.standard_normal(basis.dim)
    shifted = exp_t(basis.algebra_element(coeffs))
    # Each point's certified coordinates and direct value, once for every rung.
    points = []
    for label, x in (("identity", GradedElement.identity(spec)), ("random_shift", shifted)):
        coords = basis.flat_coords(log_t(x))
        points.append((label, x, coords, float(np.real(f(coords)))))

    def run_points(q: QuadratureSpec, final: bool) -> tuple[float, list[dict]]:
        rows = []
        worst = 0.0
        for label, x, coords, expected in points:
            value = invert(f, x, basis, q, convergence_tol=args.convergence_tol if final else None)
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


#: Options that several commands read, each declared only on those commands.
_SHARED_OPTIONS = {
    "--seed": dict(type=int, default=DEFAULT_SEED, help="sampling seed"),
    "--paper-basis": dict(
        action="store_true",
        help="use the alternative left-normed degree-3 word basis (spec 3,3 only)",
    ),
    "--functional": dict(default=None, help="functional JSON file"),
    "--config": dict(default=None, help="quadrature config JSON file"),
    "--scale": dict(type=float, default=1.0, help="Gaussian width"),
}


def _command(sub, name: str, func, summary: str, *shared: str, spec_default: str | None = None):
    """Add the subcommand ``name``, run by ``func``, with the options every
    command reads (``--spec``, ``--flavor``, ``--out``) and the ``shared``
    ones of :data:`_SHARED_OPTIONS` that it reads too."""
    p = sub.add_parser(name, help=summary)
    if spec_default is None:
        p.add_argument("--spec", required=True, help="group spec as 'd,N'")
    else:
        p.add_argument("--spec", default=spec_default, help="group spec as 'd,N'")
    p.add_argument(
        "--flavor",
        default=Flavor.FREE_NILPOTENT.value,
        help="basis flavor: FreeNilpotent or FullTensor",
    )
    p.add_argument("--out", default=None, help="directory for the JSON output file")
    for option in shared:
        p.add_argument(option, **_SHARED_OPTIONS[option])
    p.set_defaults(func=func)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nilfourier",
        description="Harmonic analysis on truncated tensor groups.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    sampled = ("--seed", "--paper-basis", "--functional")
    transform = ("--paper-basis", "--config", "--scale")

    _command(sub, "dims", _cmd_dims, "layer and group dimensions")
    _command(sub, "basis", _cmd_basis, "layered basis with structure constants", "--paper-basis")
    p = _command(
        sub, "signature", _cmd_signature, "path signature from a CSV of vertices", "--paper-basis"
    )
    p.add_argument("--path", required=True, help="CSV file of path vertices")

    p = _command(sub, "generic-test", _cmd_generic_test, "flat-orbit genericity test", *sampled)
    p.add_argument("--count", type=int, default=5, help="sampled functionals")
    p = _command(sub, "orbit-dims", _cmd_orbit_dims, "generic quotient orbit dimensions", *sampled)
    p.add_argument(
        "--numeric",
        action="store_true",
        help="also report the rank-based full orbit dimension of a functional",
    )
    _command(sub, "jump-sets", _cmd_jump_sets, "jump and transverse index sets", "--paper-basis")
    p = _command(
        sub, "polarization", _cmd_polarization, "polarization subalgebra for a functional", *sampled
    )
    p.add_argument(
        "--method",
        choices=["generic", "radical"],
        default="generic",
        help="layer-built generic construction or prefix-radical construction",
    )

    p = _command(
        sub, "fourier-demo", _cmd_fourier_demo, "invert a Gaussian through the transform",
        "--seed", *transform, spec_default="2,2",
    )
    p.add_argument(
        "--convergence-tol",
        type=float,
        default=None,
        help="raise (exit 3) if doubling the frequency grid moves results more than this",
    )
    _command(
        sub, "plancherel-check", _cmd_plancherel_check,
        "compare both sides of the Plancherel identity", *transform, spec_default="2,2",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (NilfourierError, MemoryError) as exc:  # numpy's ArrayMemoryError is a MemoryError
        error = {"type": type(exc).__name__, "message": str(exc)}
        print(json.dumps({"error": error}, sort_keys=True, indent=2))
        return 3 if isinstance(exc, NonConvergence) else 2


if __name__ == "__main__":
    sys.exit(main())
