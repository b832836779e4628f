"""End-to-end tests of the command-line interface.

Each test drives ``main(argv)`` in-process and parses the JSON it prints;
one test exercises the module entry point in a subprocess. Exit codes: 0
success, 2 malformed input, 3 failed convergence check.
"""

from __future__ import annotations

import csv
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from nilfourier.cli import main


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
    assert doc["degenerate"] is True


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
    # the layer-built construction refuses the spec it cannot serve
    rc, doc = run_cli(capsys, "polarization", "--spec", "2,3", "--seed", "3")
    assert rc == 2


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


def test_fourier_demo_custom_config(capsys, tmp_path):
    cfg = {
        "h_nodes": 8,
        "h_halfwidth": 8.0,
        "section_nodes": 8,
        "section_halfwidth": 8.0,
        "t_nodes": 8,
        "t_halfwidth": 8.0,
        "section_scale_cap": 8.0,
    }
    fp = tmp_path / "q.json"
    fp.write_text(json.dumps(cfg), encoding="utf-8")
    rc, doc = run_cli(capsys, "fourier-demo", "--seed", "7", "--config", str(fp))
    assert rc == 0
    assert doc["quadrature"]["h_nodes"] == 8

    cfg["surprise"] = 1
    fp.write_text(json.dumps(cfg), encoding="utf-8")
    rc, doc = run_cli(capsys, "fourier-demo", "--seed", "7", "--config", str(fp))
    assert rc == 2


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
        "section_scale_cap": 8.0,
    }
    fp = tmp_path / "q.json"
    fp.write_text(json.dumps(cfg), encoding="utf-8")
    rc, doc = run_cli(capsys, "plancherel-check", "--config", str(fp))
    assert rc == 0
    assert abs(doc["ratio"] - 1.0) < 0.15
    rows = _rows(doc["convergence_csv"])
    assert rows[0] == ["h_nodes", "section_nodes", "t_nodes", "abs_ratio_error"]


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
