import hashlib
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from spinorlab import cli, serialize
from spinorlab.cli import main
from spinorlab.subspace_lab import IsotropicSearchError, load_and_verify_spin45_witness, spin45_search

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


def test_spin23_stdout_and_exit_code_are_pinned(capsys, monkeypatch):
    monkeypatch.delenv("SPINORLAB_SEED", raising=False)
    assert main(["spin23", "--trials", "7", "--seed", "3"]) == 0
    assert capsys.readouterr().out == (
        '{"distribution": {"1": 7}, "schema": "spinor-lab/1", "seed": 3, "trials": 7}\n'
    )


def test_spin45_search(tmp_path, capsys):
    out = tmp_path / "witness.json"
    assert main(["spin45", "--seed", "7", "--budget", "40", "--out", str(out)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["found"] and payload["image_dim"] == 4
    # the witness file's bytes, and the seed it reloads with
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "1404efac13f31815276350e2775575853fd4eceddbb8b874e84ab72accc1f51e"
    assert load_and_verify_spin45_witness(out)["seed"] == 7


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
    # where each spinor's Killing residual is worst: 4 samples, 2 directions
    assert all(row["worst_sample"] in range(4) for row in payload["rows"])
    assert all(row["worst_direction"] in range(2) for row in payload["rows"])


def test_model_verify_on_a_cone_past_eight_dimensions(capsys):
    # (9, 0) needs a ninth Halton base
    assert main(["model-verify", "--cone", "9,0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["rows"]) == 32
    assert all(row["passed"] for row in payload["rows"])


def test_model_verify_on_a_128_component_cone(capsys):
    # (7, 5) has N = 128: one array sweep over 128 fields
    assert main(["model-verify", "--cone", "7,5", "--samples", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["rows"]) == 128
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
        ["--h", "1e308"],  # overflowed the model's metric before the parser bounded it
        ["--h", "1"],
    ],
)
def test_model_verify_rejects_bad_values_in_parser(flags):
    argv = ["model-verify", "--cone", "3,0", "--samples", "4", *flags]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_model_verify_huge_step_exits_2_without_output(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["model-verify", "--cone", "3,0", "--samples", "2", "--h", "1e308"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --h: 1e308 is not a step of at most 0.1" in captured.err


TOP_HELP = """\
usage: spinorlab [-h]
                 {rep-table,admissible-table,bracket,bound-search,spin23,spin45,cone-report,model-verify,verify-all}
                 ...

positional arguments:
  {rep-table,admissible-table,bracket,bound-search,spin23,spin45,cone-report,model-verify,verify-all}
    rep-table           signature, module dimension, commutant type
    admissible-table    admissible form table per signature
    bracket             seeded bracket evaluation and lemma checks
    bound-search        random subspace surjectivity sweep
    spin23              isotropic-plane bracket scan on (2,3)
    spin45              search for the dim-4 bracket witness on (4,5)
    cone-report         semi-spinor split and invariant dims
    model-verify        numeric Killing checks on a hyperquadric
    verify-all          run the acceptance suite

options:
  -h, --help            show this help message and exit
"""


def test_help_text_is_stable_across_calls(monkeypatch, capsys):
    # the parser is built once per process; each call prints the same help
    monkeypatch.setenv("COLUMNS", "80")
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out == TOP_HELP


def test_usage_errors_are_stable_across_calls(monkeypatch, capsys):
    # the SPINORLAB_SEED default is read on each call, not when the
    # parser was built
    monkeypatch.setenv("COLUMNS", "80")
    usage = "usage: spinorlab spin23 [-h] [--trials TRIALS] [--seed SEED]\n"
    for seed, argv, error in [
        ("0", ["spin23", "--trials", "0"], "argument --trials: 0 is not a positive integer"),
        ("abc", ["spin23"], "argument --seed: invalid int value: 'abc'"),
        ("0", ["spin23", "--trials", "0"], "argument --trials: 0 is not a positive integer"),
        ("x1", ["spin23"], "argument --seed: invalid int value: 'x1'"),
    ]:
        monkeypatch.setenv("SPINORLAB_SEED", seed)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr() == ("", f"{usage}spinorlab spin23: error: {error}\n")


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
        ["verify-all", "--witness", "no-such-witness.json"],
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


# SHA-256 of the stdout of each command, recorded before the dense exact
# matrix left the library; the JSON each prints must stay byte-identical.
GOLDEN_STDOUT = {
    "rep-table": "d0a1f64320761506b0eb4f1b4a8f9af51c773f7976b1ac51239b65be99e118e7",
    "admissible-table": "3d5ae306d73adc52cdf41c6850b7bf9a678fa650c96bed38f4c2752f33964d9a",
    "bracket --sig 2,3": "cfb0c9a7fcff7212ea9e8882c9d2225e4ac3f7f55781eeec4ac6a00e0cef5d70",
    "bound-search --sig 2,2": "72062eb6660fd3e45155531ba3b158947f6f3b8761b10ce153ca387581e10f36",
    "bound-search --sig 1,3": "f2d764b1d73098e39670fad1949e0c3b8f7475078514095149b66e7b4ff92b01",
    "spin23": "be338b09d2775ae7aee19815415f36b679fbceaff0deb40bf8fe1c92a399f02e",
    "spin45 --seed 7 --budget 20": "e886ca02ba3a1cbe03d1f282e11f53e12695c9c8eb4e22502cc67098c4317e25",
    "cone-report --sig 3,2": "f2d0478cf86e79aa86a41433f3b43d09291077926f8e794dc979a2f6ecaf1ce1",
    "cone-report --sig 4,4": "4dda68abc2c58a0f95bb932f1eda1dc37894e3f77fda46c5683bae6852098602",
    # recorded before the Killing and Dirac sweep became one array pass per
    # sample point: its float residuals are pinned to the last bit
    "model-verify --cone 3,0 --samples 16": "2ea6938ddea2f58265990fde1e169cf460e859569ee447c8fe0f902988163793",
    "model-verify --cone 4,1 --samples 8": "03fda6ae5fe47920b641e13d545abb9517f5d7838b635aa67d70efa968ff743e",
    "model-verify --cone 5,3 --samples 4": "3e89369f335a809882ae31e5b33fa85cc17d8c67e7af7bd4df07180e604a9785",
    "model-verify --cone 7,5 --samples 2": "09ae80f16cef06d2e3fd8bbe2520f79d38384e897443c8362aadff71f3064ca1",
}


@pytest.mark.parametrize("command", GOLDEN_STDOUT)
def test_stdout_matches_its_recorded_digest(command, capsys, monkeypatch):
    monkeypatch.delenv("SPINORLAB_SEED", raising=False)
    assert main(command.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_STDOUT[command]


# SHA-256 of the first ten stdout lines of `verify-all --max-n 6 --seed 7`,
# recorded before the criterion harness; criteria 11 and 12 print float
# residuals whose last bits may change, and are left out.
VERIFY_ALL_DIGEST = "2724b173c18332106ed789460fa1a9619e972b7417c4b327aea70ba2d89b374f"


def test_verify_all_exact_criteria_match_their_recorded_digest(capsys):
    assert main(["verify-all", "--max-n", "6", "--seed", "7"]) == 0
    lines = capsys.readouterr().out.splitlines(keepends=True)
    assert [json.loads(line)["criterion"] for line in lines] == list(range(1, 13))
    assert hashlib.sha256("".join(lines[:10]).encode()).hexdigest() == VERIFY_ALL_DIGEST


# SHA-256 of `passed` and the sorted-key `details` of each exact criterion
# at the benchmark's exact-table sizes (max_n 9, seed 7), recorded before
# the Clifford identity certificates became array sweeps.
EXACT_TABLE_DIGEST = "514930b32efee2bad31499b914dbfae264dd905dbc7ce784ef587c3db9cc6f4c"


def test_exact_criteria_at_the_benchmark_scale_match_their_recorded_digest():
    from spinorlab import verify

    digest = hashlib.sha256()
    for check, kwargs in (
        (verify.criterion_clifford_relations, {"seed": 7}),
        (verify.criterion_admissible_table, {}),
        (verify.criterion_null_kernel, {"seed": 7}),
        (verify.criterion_beta, {"seed": 7}),
        (verify.criterion_cone_iso, {}),
        (verify.criterion_invariant_spinors, {}),
    ):
        result = check(max_n=9, **kwargs)
        payload = {"passed": result.passed, "details": result.details}
        digest.update(json.dumps(payload, sort_keys=True).encode())
    assert digest.hexdigest() == EXACT_TABLE_DIGEST


# SHA-256 of the stdout of `bound-search --trials 5 --seed 3` on every
# indefinite signature with N % 4 == 0 and n <= 8, in order of n then p:
# the extremal construction on its symmetric Witt branch ((2,1), (2,2))
# and its skew branch (the rest).
BOUND_SEARCH_DIGEST = "43164bca9cfc646cf053b2d0c46d51f1e7c6a690d2ec5bd4745dc034cb6cc5d6"


def test_bound_search_on_every_extremal_signature_matches_its_recorded_digest(capsys, monkeypatch):
    from spinorlab.clifford_core import Signature, build_rep

    monkeypatch.delenv("SPINORLAB_SEED", raising=False)
    signatures = [
        (p, n - p) for n in range(2, 9) for p in range(1, n) if build_rep(Signature(p, n - p)).N % 4 == 0
    ]
    assert len(signatures) == 26
    digest = hashlib.sha256()
    for p, q in signatures:
        assert main(["bound-search", "--sig", f"{p},{q}", "--trials", "5", "--seed", "3"]) == 0
        digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == BOUND_SEARCH_DIGEST


# SHA-256 of the stdout of `cone-report --sig p,q` on every cone with
# p >= 1 and n <= 8, in order of n then p: the split, the base residue
# and the invariant counts of each.
CONE_REPORT_DIGEST = "c87e53eeaafebcf3261493215616898f06b92f7ab9ad294f3b225bba706b0b60"


def test_cone_report_on_every_cone_matches_its_recorded_digest(capsys):
    cones = [(p, n - p) for n in range(1, 9) for p in range(1, n + 1)]
    assert len(cones) == 36
    digest = hashlib.sha256()
    for p, q in cones:
        assert main(["cone-report", "--sig", f"{p},{q}"]) == 0
        digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == CONE_REPORT_DIGEST


def test_verify_all_times_each_criterion_on_stderr(capsys):
    assert main(["verify-all", "--max-n", "3", "--seed", "7"]) == 0
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 12
    for k, line in enumerate(lines, 1):
        assert re.fullmatch(rf"criterion {k} ran in \d+\.\d+s", line), line


def test_spin45_search_over_200_seeds_matches_its_recorded_digest():
    # trials used, distribution and basis of spin45_search(seed, 20) for
    # seeds 0..199, each of which finds its witness on trial 1; re-recorded
    # when the partners w_i became integer: each basis is the one before
    # with columns 3-5 doubled and columns 6-8 quadrupled
    digest = hashlib.sha256()
    for seed in range(200):
        report = spin45_search(seed, 20)
        assert report.trials_used == 1
        basis = [[serialize.scalar_to_json(x) for x in col] for col in report.subspace.basis]
        digest.update(json.dumps([report.trials_used, sorted(report.distribution.items()), basis]).encode())
    assert digest.hexdigest() == "aef086fb54bca48977770409ae9af17adec4e103ee302d66192048ed09638fce"
