import json
import subprocess
import sys
from pathlib import Path

import pytest

from spinorlab import cli
from spinorlab.cli import main
from spinorlab.subspace_lab import IsotropicSearchError

SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(argv):
    # run from src/ so `-m` finds the checkout's package without an install
    proc = subprocess.run(
        [sys.executable, "-m", "spinorlab.cli", *argv],
        capture_output=True,
        text=True,
        cwd=SRC,
    )
    return proc


def test_unknown_flag_exits_2():
    proc = run_cli(["rep-table", "--bogus"])
    assert proc.returncode == 2


def test_unknown_subcommand_exits_2():
    proc = run_cli(["no-such-command"])
    assert proc.returncode == 2


def test_out_of_range_degree_exits_2():
    assert main(["bracket", "--sig", "2,1", "--k", "9"]) == 2


def test_rep_table_contains_known_row(capsys):
    assert main(["rep-table", "--max-n", "5", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert "2,3,4,R" in out.splitlines()


def test_rep_table_json_schema(capsys):
    assert main(["rep-table", "--max-n", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == "spinor-lab/1"


def test_admissible_table_rows(capsys):
    assert main(["admissible-table", "--max-n", "2", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "p,q,sigma,tau,dim,nondegenerate"
    # four (sigma, tau) rows per signature
    assert len(lines) - 1 == 4 * 5


def test_bracket_definite_signature(capsys):
    assert main(["bracket", "--sig", "3,0", "--k", "2", "--seed", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert "null_kernel" not in payload
    assert len(payload["bracket"]) == 3


def test_bracket_deterministic():
    a = run_cli(["bracket", "--sig", "2,3", "--k", "2", "--seed", "9"])
    b = run_cli(["bracket", "--sig", "2,3", "--k", "2", "--seed", "9"])
    assert a.returncode == 0
    assert a.stdout == b.stdout


def test_bound_search(capsys):
    assert main(["bound-search", "--sig", "2,3", "--trials", "20", "--seed", "3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["counterexamples"] == 0
    assert payload["extremal_dim"] == 3


def _raising(err):
    def raise_it(*args, **kwargs):
        raise err

    return raise_it


def test_bound_search_reports_a_failed_construction_but_not_a_defect(monkeypatch, capsys):
    argv = ["bound-search", "--sig", "2,3", "--trials", "2", "--seed", "3"]
    monkeypatch.setattr(cli, "extremal_witness", _raising(IsotropicSearchError("no lift")))
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["extremal_error"] == "no lift"
    monkeypatch.setattr(cli, "extremal_witness", _raising(TypeError("planted defect")))
    with pytest.raises(TypeError, match="planted defect"):
        main(argv)


def test_spin23_scan(capsys):
    assert main(["spin23", "--trials", "10", "--seed", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["distribution"] == {"1": 10}


def test_spin45_search(tmp_path, capsys):
    out = tmp_path / "witness.json"
    assert main(["spin45", "--seed", "7", "--budget", "40", "--out", str(out)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["found"] and payload["image_dim"] == 4
    assert out.exists()


@pytest.mark.parametrize("target", ["missing/w.json", "missing/deeper/w.json", "."])
def test_spin45_unwritable_out_exits_2_in_parser(target, tmp_path, capsys, monkeypatch):
    def no_search(*args):
        raise AssertionError("a rejected --out must not reach the search")

    monkeypatch.setattr("spinorlab.cli.spin45_search", no_search)
    with pytest.raises(SystemExit) as exc:
        main(["spin45", "--seed", "7", "--budget", "40", "--out", str(tmp_path / target)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "existing directory" in captured.err
    assert list(tmp_path.iterdir()) == []


def test_cone_report(capsys):
    assert main(["cone-report", "--sig", "4,0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["split"] is True
    assert main(["cone-report", "--sig", "1,0"]) == 0  # the smallest cone


def test_model_verify(capsys):
    assert main(["model-verify", "--cone", "3,0", "--samples", "4"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert all(row["passed"] for row in payload["rows"])


def test_env_seed_default(monkeypatch, capsys):
    argv = ["bracket", "--sig", "2,3", "--k", "2"]
    assert main([*argv, "--seed", "11"]) == 0
    want = capsys.readouterr().out
    monkeypatch.setenv("SPINORLAB_SEED", "11")
    assert main(argv) == 0
    assert capsys.readouterr().out == want


@pytest.mark.parametrize("value", ["abc", "", "1.5"])
def test_bad_env_seed_exits_2_only_where_a_seed_is_read(value, monkeypatch, capsys):
    monkeypatch.setenv("SPINORLAB_SEED", value)
    with pytest.raises(SystemExit) as exc:
        main(["spin23", "--trials", "1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "invalid int value" in captured.err
    assert main(["rep-table", "--max-n", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["rows"]


def test_verify_all_passes(capsys):
    assert main(["verify-all", "--max-n", "4", "--seed", "7"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    payloads = [json.loads(line) for line in lines]
    assert len(payloads) == 12
    assert all(p["passed"] for p in payloads)
    assert all("elapsed_s" not in p for p in payloads)


@pytest.mark.parametrize(
    "flags",
    [
        ["--h", "0"],
        ["--h", "-1e-4"],
        ["--h", "nan"],
        ["--tol", "inf"],
        ["--tol", "0"],
        ["--samples", "0"],
        ["--samples", "-3"],
        ["--cone", "1,0"],
        ["--cone", "0,3"],
    ],
)
def test_model_verify_rejects_bad_values_in_parser(flags):
    argv = ["model-verify", "--cone", "3,0", "--samples", "4", *flags]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["bound-search", "--sig", "2,3", "--trials", "-5"],
        ["bound-search", "--sig", "2,3", "--trials", "0"],
        ["bound-search", "--sig", "2,3", "--trials", "0", "--dim", "0"],
        ["bound-search", "--sig", "2,3", "--dim", "-1"],
        ["bound-search", "--sig", "2,3", "--dim", "5"],  # N = 4 for (2,3)
        ["bound-search", "--sig", "3,3", "--dim", "9"],  # N = 8 for (3,3)
        ["rep-table", "--max-n", "0", "--format", "csv"],
        ["rep-table", "--max-n", "-2"],
        ["admissible-table", "--max-n", "0"],
        ["verify-all", "--max-n", "0"],
        ["spin23", "--trials", "-5"],
        ["spin23", "--trials", "0"],
        ["spin45", "--budget", "0"],
        ["bracket", "--sig", "0,0"],
        ["bound-search", "--sig", "0,0"],
        ["cone-report", "--sig", "0,3"],
        ["bracket", "--sig", "2,3", "--k", "9"],
        ["bracket", "--sig", "2,3", "--k", "-1"],
    ],
    ids=" ".join,
)
def test_count_flags_exit_2_without_output(argv, capsys, monkeypatch):
    def no_sweep(*args):
        raise AssertionError("a rejected flag must not reach the sweep")

    for name in (
        "random_surjectivity_sweep",
        "spin23_isotropic_scan",
        "spin45_search",
        "bracket_k",
        "semispinor_projectors",
    ):
        monkeypatch.setattr(f"spinorlab.cli.{name}", no_sweep)
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    assert capsys.readouterr().out == ""
