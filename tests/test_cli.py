import dataclasses
import json
import os
import subprocess
import sys

import pytest

import cyclo2
from cyclo2 import cli
from cyclo2.cli import CLIError, RunConfig, load_presentation, main, run
from cyclo2.cyclic import homology

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def fixture(name):
    return os.path.join(FIXTURES, name)


def test_load_polynomial_fixture():
    A = load_presentation(fixture("poly_x.alg"))
    assert A.generators == ("x",)
    assert A.relations == ()
    assert A.graded


def test_load_f4_fixture():
    A = load_presentation(fixture("f4.alg"))
    assert not A.graded
    assert len(A.relations) == 1
    assert A.name == "F4"


def test_inhomogeneous_graded_rejected(tmp_path):
    p = tmp_path / "bad.alg"
    p.write_text("[options]\ngraded = true\n[generators]\nx 2\ny 1\n"
                 "[relations]\nx + y\n")
    with pytest.raises(CLIError):
        load_presentation(str(p))


def test_undeclared_generator_rejected(tmp_path):
    p = tmp_path / "bad.alg"
    p.write_text("[generators]\nx 1\n[relations]\nx*z\n")
    with pytest.raises(CLIError) as err:
        load_presentation(str(p))
    assert "line 4" in str(err.value)


def test_augmentation_inconsistency_rejected(tmp_path):
    p = tmp_path / "bad.alg"
    p.write_text("[options]\ngraded = false\n[generators]\nx 0 0\n"
                 "[relations]\nx^2 + x + 1\n")
    with pytest.raises(CLIError):
        load_presentation(str(p))


def test_compute_hcminus_f2():
    cfg = RunConfig(fixture("f2.alg"), "compute", "hcminus",
                    max_internal=6, max_homological=6)
    status, report = run(cfg)
    assert status == 0
    dims = {(e["n"], e["internal"]): e["dim"] for e in report["entries"]}
    for n in range(-6, 1):
        expected = 1 if n % 2 == 0 else 0
        assert dims[(n, 0)] == expected


def test_verify_approx_smoke():
    cfg = RunConfig(fixture("poly_x.alg"), "verify-approx", "hcminus",
                    max_internal=3, max_homological=3)
    status, report = run(cfg)
    assert status == 0
    assert report["all_iso"] is True
    assert report["square_residual_total"] == 0


def test_spectral_smoke():
    cfg = RunConfig(fixture("poly_x.alg"), "spectral", "hcminus",
                    max_internal=4, max_homological=2)
    status, report = run(cfg)
    assert status == 0
    assert any(e["e2"] for e in report["entries"])


def test_tables_smoke():
    cfg = RunConfig(fixture("poly_x.alg"), "tables", "ell",
                    max_internal=4, max_homological=2)
    status, report = run(cfg)
    assert status == 0
    for e in report["entries"]:
        assert e["ell_tilde"] == e["omega_u"]


def test_deterministic_json_output(capsys):
    argv = ["--input", fixture("f2.alg"), "--command", "compute",
            "--theory", "hcminus", "--max-internal", "2",
            "--max-homological", "2", "--format", "json", "--seed", "7"]
    assert main(argv) == 0
    out1 = capsys.readouterr().out
    assert main(argv) == 0
    out2 = capsys.readouterr().out
    assert out1 == out2
    data = json.loads(out1)
    assert data["schema"] == 1
    assert data["seed"] == 7


def test_cli_table_output(capsys):
    argv = ["--input", fixture("f4.alg"), "--command", "compute",
            "--theory", "hh", "--max-homological", "3"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "dim" in out


def test_cli_bad_input_exit_code(tmp_path, capsys):
    p = tmp_path / "bad.alg"
    p.write_text("[generators]\nx 1\n[relations]\nx*z\n")
    argv = ["--input", str(p), "--command", "compute", "--theory", "hh"]
    assert main(argv) == 2
    assert "cyclo2" in capsys.readouterr().err


def test_console_script_runs():
    # the child imports cyclo2 from where this process found it
    src = os.path.dirname(os.path.dirname(cyclo2.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-m", "cyclo2.cli", "--input", fixture("f2.alg"),
         "--command", "compute", "--theory", "hcminus",
         "--max-homological", "4", "--format", "json"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["schema"] == 1


def test_verify_approx_rejects_wrong_theory():
    cfg = RunConfig(fixture("poly_x.alg"), "verify-approx", "hh")
    with pytest.raises(CLIError):
        run(cfg)


def test_verify_approx_dual_numbers(capsys):
    # a non-smooth ungraded input gets an honest report, squares included
    argv = ["--input", fixture("dual_numbers.alg"), "--command",
            "verify-approx", "--max-internal", "0", "--max-homological", "4",
            "--format", "json"]
    assert main(argv) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["squares"]
    assert data["square_residual_total"] == 0
    assert data["all_iso"] is False


def test_verify_approx_ungraded_needs_two_columns(capsys):
    cfg = RunConfig(fixture("f4.alg"), "verify-approx", "hcminus",
                    max_internal=0, max_homological=2, columns=1)
    with pytest.raises(CLIError):
        run(cfg)
    argv = ["--input", fixture("f4.alg"), "--command", "verify-approx",
            "--max-internal", "0", "--max-homological", "2", "--columns", "1"]
    assert main(argv) == 2
    assert "--columns >= 2" in capsys.readouterr().err


def test_one_memo_store(monkeypatch):
    loaded = []

    def load(path):
        loaded.append(load_presentation(path))
        return loaded[-1]

    monkeypatch.setattr(cli, "load_presentation", load)
    run(RunConfig(fixture("poly_x.alg"), "verify-approx", "hcminus", 2, 2))
    (A,) = loaded
    # every per-algebra memo lives in the one store, none beside it
    assert [k for k in vars(A) if k.endswith("_cache")] == []
    assert set(vars(A)) == {f.name for f in dataclasses.fields(A)}
    computed = len(A.memo("homology"))
    assert computed
    H = homology(A, "minus", 1, 2)
    assert homology(A, "minus", 1, 2) is H
    assert len(A.memo("homology")) == computed
    # the basis of an ungraded algebra is memoised there too
    B = load_presentation(fixture("f4.alg"))
    basis = B.basis_all()
    assert B.basis_all() is basis and B.memo("degree_basis")[0] is basis
    assert set(vars(B)) == {f.name for f in dataclasses.fields(B)}


def test_spectral_bounds_and_theories():
    cfg = RunConfig(fixture("poly_x.alg"), "spectral", "hc",
                    max_internal=1, max_homological=1)
    _, report = run(cfg)
    assert (report["alpha"], report["beta"]) == (0, None)
    with pytest.raises(CLIError):
        run(RunConfig(fixture("poly_x.alg"), "spectral", "ell"))
