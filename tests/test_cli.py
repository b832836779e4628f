"""End-to-end tests of the command-line interface.

Each test drives ``main(argv)`` in-process and parses the JSON it prints;
one test exercises the module entry point in a subprocess. Exit codes: 0
success, 2 malformed input or out of memory, 3 failed convergence check.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from nilfourier import (
    GroupSpec,
    QuadratureSpec,
    build_layered_basis,
    cli,
    polarization,
    sample_generic,
)
from nilfourier.cli import build_parser, main


def run_cli(capsys, *argv: str):
    rc = main(list(argv))
    out = capsys.readouterr().out
    return rc, json.loads(out)


def _rows(table: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(table)))


# ---------------------------------------------------------------------------
# structure subcommands
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "spec,expected",
    [("3,3", [3, 3, 8]), ("2,2", [2, 1]), ("2,5", [2, 1, 2, 3, 6])],
)
def test_dims_layer_tables(capsys, spec, expected):
    rc, doc = run_cli(capsys, "dims", "--spec", spec)
    assert rc == 0
    assert doc["layer_dims"] == expected
    assert doc["witt"] == expected
    assert doc["group_dim"] == sum(expected)


def test_dims_full_tensor_flavor(capsys):
    rc, doc = run_cli(capsys, "dims", "--spec", "2,2", "--flavor", "FullTensor")
    assert rc == 0
    assert doc["layer_dims"] == [2, 4]
    assert "witt" not in doc


def test_dims_rejects_malformed_spec(capsys):
    rc, doc = run_cli(capsys, "dims", "--spec", "bogus")
    assert rc == 2
    assert doc["error"]["type"] == "NilfourierError"


def test_basis_emits_layers_and_brackets(capsys):
    rc, doc = run_cli(capsys, "basis", "--spec", "2,3")
    assert rc == 0
    assert [len(layer["elements"]) for layer in doc["layers"]] == [2, 1, 2]


def test_basis_full_tensor_flavor(capsys):
    rc, doc = run_cli(capsys, "basis", "--spec", "2,2", "--flavor", "FullTensor")
    assert rc == 0
    assert doc["spec"]["flavor"] == "FullTensor"
    words = [[e["word"] for e in layer["elements"]] for layer in doc["layers"]]
    assert words == [[[1], [2]], [[1, 1], [1, 2], [2, 1], [2, 2]]]
    # [e_1, e_2] = e_12 - e_21: 1-based Malcev positions, top layer first
    assert [5, 6, 2, 1.0] in doc["structure"] and [5, 6, 3, -1.0] in doc["structure"]


def test_paper_basis_flag_requires_matching_spec(capsys):
    rc, doc = run_cli(capsys, "basis", "--spec", "3,3", "--paper-basis")
    assert rc == 0
    rc, doc = run_cli(capsys, "basis", "--spec", "2,2", "--paper-basis")
    assert rc == 2


# ---------------------------------------------------------------------------
# signature
# ---------------------------------------------------------------------------


def test_signature_square_loop(capsys, tmp_path):
    path = tmp_path / "loop.csv"
    path.write_text("0,0\n1,0\n1,1\n0,1\n0,0\n", encoding="utf-8")
    rc, doc = run_cli(capsys, "signature", "--spec", "2,2", "--path", str(path))
    assert rc == 0
    assert doc["n_vertices"] == 5
    # closed loop: no displacement, unit enclosed area on the bracket direction
    coords = doc["log_coordinates"]
    assert coords[0] == pytest.approx(1.0, abs=1e-12)
    assert coords[1] == pytest.approx(0.0, abs=1e-12)
    assert coords[2] == pytest.approx(0.0, abs=1e-12)
    rows = _rows(doc["log_signature_csv"])
    assert rows[0] == ["basis_element", "coefficient"]
    assert rows[1][0] == "[1,2]"
    assert float(rows[1][1]) == pytest.approx(1.0, abs=1e-12)


def test_signature_accepts_header_row(capsys, tmp_path):
    path = tmp_path / "seg.csv"
    path.write_text("x,y\n0,0\n2,1\n", encoding="utf-8")
    rc, doc = run_cli(capsys, "signature", "--spec", "2,2", "--path", str(path))
    assert rc == 0
    assert doc["log_coordinates"][1] == pytest.approx(2.0)
    assert doc["log_coordinates"][2] == pytest.approx(1.0)


def test_signature_rejects_wrong_width_and_ragged(capsys, tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0,0,0\n1,0,0\n", encoding="utf-8")
    rc, doc = run_cli(capsys, "signature", "--spec", "2,2", "--path", str(path))
    assert rc == 2
    # the path's width is checked once, where the path meets the spec
    assert doc["error"] == {
        "type": "DimensionMismatch",
        "message": "path lives in R^3 but the spec says d=2",
    }
    path.write_text("0,0\n1\n", encoding="utf-8")
    rc, doc = run_cli(capsys, "signature", "--spec", "2,2", "--path", str(path))
    assert rc == 2


def test_signature_rejects_non_finite_vertices(capsys, tmp_path):
    # the path rejects the vertex before any arithmetic can warn or print NaN
    path = tmp_path / "bad.csv"
    cases = [
        (("--spec", "2,3"), "0,0\nnan,1\n1,1\n", "[nan, 1.0]"),
        (("--spec", "2,2", "--flavor", "FullTensor"), "0,0\nnan,1\n1,1\n", "[nan, 1.0]"),
        (("--spec", "2,3"), "0,0\ninf,1\n1,1\n", "[inf, 1.0]"),
    ]
    for spec_args, text, vertex in cases:
        path.write_text(text, encoding="utf-8")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["signature", *spec_args, "--path", str(path)])
        captured = capsys.readouterr()
        assert rc == 2
        assert caught == [] and captured.err == ""
        assert json.loads(captured.out)["error"] == {
            "type": "DimensionMismatch",
            "message": f"path vertex 2 is not finite: {vertex}",
        }


def test_signature_missing_file(capsys, tmp_path):
    rc, doc = run_cli(
        capsys, "signature", "--spec", "2,2", "--path", str(tmp_path / "nope.csv")
    )
    assert rc == 2


# ---------------------------------------------------------------------------
# coadjoint subcommands
# ---------------------------------------------------------------------------


def test_generic_test_sampled_batch(capsys):
    rc, doc = run_cli(capsys, "generic-test", "--spec", "2,2", "--count", "3", "--seed", "5")
    assert rc == 0
    assert doc["sampled"] is True
    assert len(doc["functionals"]) == 3
    for entry in doc["functionals"]:
        assert "pairing_ranks" in entry
    rows = _rows(doc["table_csv"])
    assert rows[0] == ["functional", "generic", "k", "rank", "required"]
    # (2, 3) ranks its one 1 x 1 jump block like every other group
    rc, doc = run_cli(capsys, "generic-test", "--spec", "2,3", "--count", "1", "--seed", "5")
    assert rc == 0
    assert doc["functionals"][0]["pairing_ranks"] == [{"k": 1, "rank": 1, "required": 1}]


def test_generic_test_reads_functional_file(capsys, tmp_path):
    blob = {
        "spec": {"d": 2, "N": 2, "flavor": "FreeNilpotent"},
        "coords": [[2, 1, 1.5]],
    }
    fp = tmp_path / "ell.json"
    fp.write_text(json.dumps(blob), encoding="utf-8")
    rc, doc = run_cli(capsys, "generic-test", "--spec", "2,2", "--functional", str(fp))
    assert rc == 0
    assert doc["sampled"] is False
    assert doc["functionals"][0]["generic"] is True

    blob["coords"] = [[1, 1, 1.0], [1, 2, 2.0]]  # no top-layer component
    fp.write_text(json.dumps(blob), encoding="utf-8")
    rc, doc = run_cli(capsys, "generic-test", "--spec", "2,2", "--functional", str(fp))
    assert rc == 0
    assert doc["functionals"][0]["generic"] is False


def test_generic_test_without_pairing_blocks(capsys):
    # (1, 3) has no pairing block: ranks are empty and the CSV row is blank
    rc, doc = run_cli(capsys, "generic-test", "--spec", "1,3", "--count", "2")
    assert rc == 0
    assert [e["pairing_ranks"] for e in doc["functionals"]] == [[], []]
    assert all(e["generic"] for e in doc["functionals"])
    assert _rows(doc["table_csv"])[1:] == [["0", "True", "", "", ""], ["1", "True", "", "", ""]]


def test_generic_test_rejects_bad_functional_json(capsys, tmp_path):
    fp = tmp_path / "ell.json"
    fp.write_text("{not json", encoding="utf-8")
    rc, doc = run_cli(capsys, "generic-test", "--spec", "2,2", "--functional", str(fp))
    assert rc == 2


def test_generic_test_rejects_mistyped_functional_row(capsys, tmp_path):
    fp = tmp_path / "bad.json"
    fp.write_text(json.dumps({"spec": {"d": 2, "N": 2}, "coords": [[2.9, 1.2, 0.5]]}))
    rc, doc = run_cli(capsys, "generic-test", "--spec", "2,2", "--functional", str(fp))
    assert rc == 2
    assert doc["error"]["type"] == "DimensionMismatch"
    assert doc["error"]["message"].startswith("k in coordinate row")


def test_flavor_option_rejects_an_unknown_flavor(capsys):
    rc, doc = run_cli(capsys, "dims", "--spec", "2,2", "--flavor", "Bogus")
    assert rc == 2
    assert doc["error"]["message"].startswith("flavor must be one of")


def test_generic_test_rejects_an_unknown_flavor(capsys, tmp_path):
    fp = tmp_path / "bad.json"
    fp.write_text(json.dumps({"spec": {"d": 2, "N": 2, "flavor": "Bogus"}, "coords": [[1, 1, 0.5]]}))
    rc, doc = run_cli(capsys, "generic-test", "--spec", "2,2", "--functional", str(fp))
    assert rc == 2
    assert doc["error"]["type"] == "DimensionMismatch"
    assert doc["error"]["message"].startswith("flavor must be one of")


def test_orbit_dims_table(capsys):
    rc, doc = run_cli(capsys, "orbit-dims", "--spec", "2,4")
    assert rc == 0
    assert doc["full_generic_dim"] == 4
    rows = _rows(doc["table_csv"])
    assert rows[0] == ["k", "m", "generic_dim"]
    table = {(int(r[0]), int(r[1])): int(r[2]) for r in rows[1:]}
    assert table[(1, 1)] == 1  # depth-2 quotient, one top coordinate
    assert all(v >= 0 for v in table.values())


@pytest.mark.parametrize("spec", ["1,3", "1,4"])
def test_orbit_dims_on_a_line_group(capsys, spec):
    # (1, N) has the single nonempty layer 1: every quotient orbit is a point
    rc, doc = run_cli(capsys, "orbit-dims", "--spec", spec)
    assert rc == 0
    assert doc["quotients"] and all(q["generic_dim"] == 0 for q in doc["quotients"])
    assert doc["full_generic_dim"] == 0


def test_orbit_dims_numeric_matches_generic(capsys):
    rc, doc = run_cli(capsys, "orbit-dims", "--spec", "2,2", "--numeric", "--seed", "3")
    assert rc == 0
    assert doc["functional_full_dim"] == doc["full_generic_dim"] == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["polarization", "--spec", "2,3", "--method", "generic"],
        ["polarization", "--spec", "2,3", "--method", "radical"],
        ["orbit-dims", "--spec", "2,4", "--numeric"],
    ],
)
def test_functional_file_reproduces_the_sampled_run(capsys, tmp_path, argv):
    assert main([*argv, "--seed", "3"]) == 0
    sampled = capsys.readouterr().out
    basis = build_layered_basis(GroupSpec(*map(int, argv[2].split(","))))
    ell = sample_generic(basis, np.random.default_rng(3))
    fp = tmp_path / "ell.json"
    fp.write_text(json.dumps(ell.to_json_dict()), encoding="utf-8")
    assert main([*argv, "--functional", str(fp)]) == 0
    assert capsys.readouterr().out == sampled


def test_jump_sets_examples(capsys):
    rc, doc = run_cli(capsys, "jump-sets", "--spec", "3,3")
    assert rc == 0
    assert len(doc["S"]) == 6
    assert len(doc["T"]) == 8
    rc, doc = run_cli(capsys, "jump-sets", "--spec", "2,2")
    assert doc["S"] == [[1, 1], [1, 2]]
    assert doc["T"] == [[2, 1]]
    rows = _rows(doc["table_csv"])
    assert rows[1:] == [["S", "1", "1"], ["S", "1", "2"], ["T", "2", "1"]]
    rc, doc = run_cli(capsys, "jump-sets", "--spec", "2,3")
    assert doc["S"] == [[2, 1], [1, 1]]


def test_polarization_generic_and_radical(capsys):
    rc, doc = run_cli(capsys, "polarization", "--spec", "2,2", "--seed", "3")
    assert rc == 0
    assert doc["check"]["passed"] is True
    assert doc["check"]["dim"] == 2
    rc, doc = run_cli(
        capsys, "polarization", "--spec", "2,3", "--seed", "3", "--method", "radical"
    )
    assert rc == 0
    assert doc["check"]["passed"] is True
    assert doc["check"]["dim"] == 4
    rc, doc = run_cli(capsys, "polarization", "--spec", "2,3", "--seed", "3")
    assert rc == 0
    assert doc["check"]["passed"] is True
    assert doc["check"]["dim"] == 4


def test_polarization_rejects_a_repeated_functional_row(capsys, tmp_path):
    fp = tmp_path / "ell.json"
    fp.write_text(json.dumps({"spec": {"d": 2, "N": 2}, "coords": [[2, 1, 1.0], [2, 1, -3.0]]}))
    rc, doc = run_cli(capsys, "polarization", "--spec", "2,2", "--functional", str(fp))
    assert rc == 2
    assert doc["error"]["type"] == "DimensionMismatch"
    assert doc["error"]["message"] == "coordinate (2, 1) appears in more than one row"


@pytest.mark.parametrize("spec,method", [("2,2", "generic"), ("3,3", "generic"), ("2,3", "radical")])
def test_polarization_checks_the_subalgebra_once(capsys, monkeypatch, spec, method):
    checked = []
    check = polarization.polarization_check

    def counted(sub, ell):
        checked.append(sub.dim)
        return check(sub, ell)

    # both names the command can reach the check under
    monkeypatch.setattr(polarization, "polarization_check", counted)
    monkeypatch.setattr(cli, "polarization_check", counted)
    rc, doc = run_cli(capsys, "polarization", "--spec", spec, "--seed", "3", "--method", method)
    assert rc == 0 and doc["check"]["passed"] is True
    assert checked == [doc["check"]["dim"]]


# ---------------------------------------------------------------------------
# transform subcommands
# ---------------------------------------------------------------------------


def test_fourier_demo_default_preset(capsys):
    rc, doc = run_cli(capsys, "fourier-demo", "--seed", "7")
    assert rc == 0
    assert doc["max_abs_error"] < 0.2
    labels = [r["point"] for r in doc["results"]]
    assert labels == ["identity", "random_shift"]
    rows = _rows(doc["convergence_csv"])
    assert rows[0] == ["h_nodes", "section_nodes", "t_nodes", "max_abs_error"]
    assert len(rows) >= 3
    assert all(float(r[3]) >= 0 for r in rows[1:])


def test_fourier_demo_nonconvergence_exit_code(capsys):
    rc, doc = run_cli(capsys, "fourier-demo", "--seed", "7", "--convergence-tol", "1e-4")
    assert rc == 3
    assert doc["error"]["type"] == "NonConvergence"


def _counted_inverts(monkeypatch) -> list:
    """Patch the command's ``invert`` to record the quadrature of each call."""
    calls = []
    invert = cli.invert

    def counted(f, x, basis, qspec, **kwargs):
        calls.append(qspec)
        return invert(f, x, basis, qspec, **kwargs)

    monkeypatch.setattr(cli, "invert", counted)
    return calls


def test_fourier_demo_checks_the_tolerance_before_any_coarse_rung(capsys, monkeypatch):
    # the final rung runs first, so invert's own check stops the ladder at once
    calls = _counted_inverts(monkeypatch)
    rc, doc = run_cli(capsys, "fourier-demo", "--seed", "7", "--convergence-tol", "nan")
    assert rc == 2 and doc["error"]["type"] == "DimensionMismatch"
    assert len(calls) == 1
    # a failed convergence check skips the coarse rungs too
    calls.clear()
    rc, doc = run_cli(capsys, "fourier-demo", "--seed", "7", "--convergence-tol", "1e-4")
    assert rc == 3
    assert calls and all(q == QuadratureSpec.demo() for q in calls)


def test_fourier_demo_ladder_rows_stay_in_rung_order(capsys, monkeypatch):
    calls = _counted_inverts(monkeypatch)
    rc, doc = run_cli(capsys, "fourier-demo", "--seed", "7")
    assert rc == 0
    rows = _rows(doc["convergence_csv"])[1:]
    assert [int(r[0]) for r in rows] == [8, 9, 12]
    # two points a rung, the final rung first
    assert [q.h_nodes for q in calls] == [12, 12, 8, 8, 9, 9]
    assert float(rows[-1][3]) == doc["max_abs_error"]


@pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
def test_fourier_demo_rejects_a_bad_convergence_tol(capsys, tol):
    rc, doc = run_cli(capsys, "fourier-demo", "--seed", "7", "--convergence-tol", tol)
    assert rc == 2
    assert doc["error"]["type"] == "DimensionMismatch"
    assert doc["error"]["message"].startswith("convergence_tol must be finite and >= 0")


def test_fourier_demo_custom_config(capsys, tmp_path):
    cfg = {
        "h_nodes": 8,
        "h_halfwidth": 8.0,
        "section_nodes": 8,
        "section_halfwidth": 8.0,
        "t_nodes": 8,
        "t_halfwidth": 8.0,
    }
    fp = tmp_path / "q.json"
    fp.write_text(json.dumps(cfg), encoding="utf-8")
    rc, doc = run_cli(capsys, "fourier-demo", "--seed", "7", "--config", str(fp))
    assert rc == 0
    assert doc["quadrature"]["h_nodes"] == 8

    # an unknown key, or the section box cap, which is not a setting
    for key in ("surprise", "section_scale_cap"):
        fp.write_text(json.dumps({**cfg, key: 1.0}), encoding="utf-8")
        rc, doc = run_cli(capsys, "fourier-demo", "--seed", "7", "--config", str(fp))
        assert rc == 2
        assert doc["error"]["message"] == f"unknown quadrature fields: ['{key}']"


@pytest.mark.parametrize("field,value", [("h_nodes", 12.7), ("h_halfwidth", "8")])
def test_fourier_demo_rejects_mistyped_config(capsys, tmp_path, field, value):
    fp = tmp_path / "q.json"
    fp.write_text(json.dumps({field: value}), encoding="utf-8")
    rc, doc = run_cli(capsys, "fourier-demo", "--seed", "7", "--config", str(fp))
    assert rc == 2
    assert doc["error"]["type"] == "DimensionMismatch"
    assert field in doc["error"]["message"]


def test_plancherel_check_small_config(capsys, tmp_path):
    cfg = {
        "h_nodes": 12,
        "h_halfwidth": 8.0,
        "section_nodes": 12,
        "section_halfwidth": 8.0,
        "t_nodes": 12,
        "t_halfwidth": 8.0,
    }
    fp = tmp_path / "q.json"
    fp.write_text(json.dumps(cfg), encoding="utf-8")
    rc, doc = run_cli(capsys, "plancherel-check", "--config", str(fp))
    assert rc == 0
    assert abs(doc["ratio"] - 1.0) < 0.15
    rows = _rows(doc["convergence_csv"])
    assert rows[0] == ["h_nodes", "section_nodes", "t_nodes", "abs_ratio_error"]


@pytest.mark.parametrize("scale", ["nan", "inf"])
def test_plancherel_check_rejects_a_non_finite_scale(capsys, scale):
    # the error document is strict JSON: no NaN anywhere
    rc = main(["plancherel-check", "--scale", scale])
    doc = json.loads(capsys.readouterr().out, parse_constant=pytest.fail)
    assert rc == 2
    assert doc["error"] == {
        "type": "DimensionMismatch",
        "message": "decay box half-widths must be positive and finite",
    }


@pytest.mark.parametrize(
    "argv,message",
    [
        (["dims", "--spec", "2,x"], "--spec expects integers 'd,N', got '2,x'"),
        (["plancherel-check", "--config", "{dir}/missing.json"], "file not found: {dir}/missing.json"),
        (["fourier-demo", "--config", "{dir}/list.json"], "quadrature config must be a JSON object"),
    ],
    ids=["spec-not-integer", "missing-config", "config-not-an-object"],
)
def test_malformed_input_exits_2_with_an_error_document(capsys, tmp_path, argv, message):
    (tmp_path / "list.json").write_text("[12, 12, 16]", encoding="utf-8")
    rc, doc = run_cli(capsys, *(a.format(dir=tmp_path) for a in argv))
    assert rc == 2
    assert doc["error"] == {"type": "NilfourierError", "message": message.format(dir=tmp_path)}


def test_out_of_memory_prints_the_error_document(capsys, monkeypatch):
    # numpy raises its ArrayMemoryError, a MemoryError, on a grid too large to hold
    message = "Unable to allocate 11.4 GiB for an array"

    def plancherel(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "plancherel", plancherel)
    rc, doc = run_cli(capsys, "plancherel-check")
    assert rc == 2
    assert doc["error"] == {"type": "MemoryError", "message": message}


def _strip_elapsed(text: str) -> str:
    return "\n".join(
        line for line in text.splitlines() if '"elapsed_seconds"' not in line
    )


def test_stdout_is_deterministic_for_fixed_seed(capsys):
    main(["fourier-demo", "--seed", "11"])
    first = capsys.readouterr().out
    main(["fourier-demo", "--seed", "11"])
    second = capsys.readouterr().out
    assert _strip_elapsed(first) == _strip_elapsed(second)
    main(["generic-test", "--spec", "3,2", "--count", "2", "--seed", "9"])
    third = capsys.readouterr().out
    main(["generic-test", "--spec", "3,2", "--count", "2", "--seed", "9"])
    fourth = capsys.readouterr().out
    assert third == fourth


def test_out_directory_writes_json_and_csv(capsys, tmp_path):
    out = tmp_path / "artifacts"
    rc = main(["jump-sets", "--spec", "2,2", "--out", str(out)])
    assert rc == 0
    listed = capsys.readouterr().out.splitlines()
    assert listed == [str(out / "jump-sets.json"), str(out / "jump-sets.csv")]
    doc = json.loads((out / "jump-sets.json").read_text(encoding="utf-8"))
    assert doc["S"] == [[1, 1], [1, 2]]
    rows = _rows((out / "jump-sets.csv").read_text(encoding="utf-8"))
    assert rows[0] == ["set", "k", "i"]


def test_module_entry_point_runs_in_subprocess():
    # the child finds the package in this checkout's src/, installed or not
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "nilfourier.cli", "dims", "--spec", "2,2"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["layer_dims"] == [2, 1]


# ---------------------------------------------------------------------------
# options
# ---------------------------------------------------------------------------

#: The options each subcommand declares, beyond ``--help``: exactly the ones it reads.
COMMAND_OPTIONS = {
    "dims": set(),
    "basis": {"--paper-basis"},
    "signature": {"--paper-basis", "--path"},
    "generic-test": {"--seed", "--paper-basis", "--functional", "--count"},
    "orbit-dims": {"--seed", "--paper-basis", "--functional", "--numeric"},
    "jump-sets": {"--paper-basis"},
    "polarization": {"--seed", "--paper-basis", "--functional", "--method"},
    "fourier-demo": {"--seed", "--paper-basis", "--config", "--scale", "--convergence-tol"},
    "plancherel-check": {"--paper-basis", "--config", "--scale"},
}


def test_each_command_declares_only_the_options_it_reads():
    [commands] = [
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    declared = {
        name: {s for a in p._actions for s in a.option_strings} - {"-h", "--help"}
        for name, p in commands.choices.items()
    }
    common = {"--spec", "--flavor", "--out"}
    assert declared == {name: common | own for name, own in COMMAND_OPTIONS.items()}


@pytest.mark.parametrize(
    "argv",
    [
        ["dims", "--spec", "2,2", "--seed", "1"],
        ["dims", "--spec", "2,2", "--paper-basis"],
        ["plancherel-check", "--seed", "1"],
    ],
)
def test_an_option_the_command_does_not_read_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == "" and "unrecognized arguments" in captured.err
