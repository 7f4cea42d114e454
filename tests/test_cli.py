import ast
import dataclasses
import json
import os
import subprocess
import sys
import tempfile
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import cyclo2
from conftest import CountedReductions
from cyclo2 import approx, cli, cyclic
from cyclo2.cli import CLIError, RunConfig, load_presentation, main, run
from cyclo2.cyclic import chain_model, homology

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


@pytest.mark.parametrize("name", ["1", "x*y", "x^2", "x+y"])
def test_unspellable_generator_rejected(tmp_path, name):
    # a relation spells 1 as the empty monomial and splits on *, ^ and +,
    # so such a generator would be misread: with generators 1 and y, the
    # relation 1*y would read as y
    p = tmp_path / "bad.alg"
    p.write_text(f"[generators]\n{name} 1\ny 1\n[relations]\n1*y\n")
    with pytest.raises(CLIError) as err:
        load_presentation(str(p))
    assert "line 2" in str(err.value) and repr(name) in str(err.value)


def test_augmentation_inconsistency_rejected(tmp_path):
    p = tmp_path / "bad.alg"
    p.write_text("[options]\ngraded = false\n[generators]\nx 0 0\n"
                 "[relations]\nx^2 + x + 1\n")
    with pytest.raises(CLIError):
        load_presentation(str(p))


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_infinite_ungraded_presentation_rejected(tmp_path, capsys, command):
    # F2[x,y]/(x^2) is infinite dimensional: rejected when loaded, before
    # any command enumerates its basis
    p = tmp_path / "infinite.alg"
    p.write_text("[options]\ngraded = false\n[generators]\nx 0\ny 0\n"
                 "[relations]\nx^2\n")
    with pytest.raises(CLIError):
        run(RunConfig(str(p), command))
    assert main(["--input", str(p), "--command", command]) == 2
    assert "not finite type" in capsys.readouterr().err


@pytest.mark.parametrize("graded, degree", [("true", 1), ("false", 0)])
def test_zero_algebra_rejected(tmp_path, capsys, graded, degree):
    # the relation 1 is homogeneous (of degree 0), so in graded mode only
    # the unit-ideal check stops it before a command meets the empty basis
    p = tmp_path / "zero.alg"
    p.write_text(f"[options]\ngraded = {graded}\n[generators]\n"
                 f"x {degree}\n[relations]\n1\n")
    for command in cli.COMMANDS:
        assert main(["--input", str(p), "--command", command]) == 2
        assert "unit ideal" in capsys.readouterr().err


def test_ungraded_generator_of_nonzero_degree_rejected(tmp_path, capsys):
    p = tmp_path / "bad.alg"
    p.write_text("[options]\ngraded = false\n[generators]\nx 0\ny 2\n"
                 "[relations]\nx^2\ny^2\n")
    assert main(["--input", str(p), "--command", "compute"]) == 2
    assert "generator y has degree 2: ungraded mode needs degree 0" in \
        capsys.readouterr().err


THEORIES_OF = {"compute": cli.THEORIES,
               "verify-approx": ("hcminus", "hc", "hcper"),
               "spectral": ("hh", "hc", "hcminus", "hcper"),
               "tables": ("ell",)}


@st.composite
def presentation_texts(draw):
    """Graded and ungraded presentations on 1-2 generators with at most one
    relation of 1-3 terms, which may leave an ungraded algebra infinite or
    a graded one inhomogeneous."""
    graded = draw(st.booleans())
    names = "xy"[:draw(st.integers(1, 2))]
    lines = ["[options]", f"graded = {str(graded).lower()}", "[generators]"]
    lines += [f"{g} {draw(st.integers(1, 3)) if graded else 0}"
              for g in names]
    lines.append("[relations]")
    if draw(st.booleans()):
        exponents = st.tuples(*[st.integers(0, 3)] * len(names))
        terms = draw(st.lists(exponents, min_size=1, max_size=3,
                              unique=True))
        lines.append(" + ".join(
            "*".join(f"{g}^{e}" for g, e in zip(names, t) if e) or "1"
            for t in terms))
    return "\n".join(lines) + "\n"


@settings(max_examples=200)
@given(text=presentation_texts(), command=st.sampled_from(cli.COMMANDS),
       data=st.data())
def test_exit_status_is_never_internal_error(text, command, data):
    theory = data.draw(st.sampled_from(THEORIES_OF[command]))
    n, d = data.draw(st.integers(0, 2)), data.draw(st.integers(0, 2))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "random.alg")
        with open(path, "w") as fh:
            fh.write(text)
        status = main(["--input", path, "--command", command, "--theory",
                       theory, "--max-homological", str(n),
                       "--max-internal", str(d), "--columns", "2"])
    assert status in (0, 2), (text, command, theory, n, d)


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


def test_internal_error_names_the_exception(monkeypatch, capsys):
    # str(MemoryError()) is empty, so the line must carry the type name
    def out_of_memory(A, cfg):
        raise MemoryError()

    monkeypatch.setattr(cli, "cmd_compute", out_of_memory)
    argv = ["--input", fixture("f2.alg"), "--command", "compute"]
    assert main(argv) == 1
    assert "cyclo2: internal error: MemoryError" in capsys.readouterr().err


def test_cli_defaults_are_run_config_defaults(monkeypatch, capsys):
    # the command line takes every default from RunConfig, so they agree
    seen = []

    def capture(config):
        seen.append(config)
        return run(config)

    monkeypatch.setattr(cli, "run", capture)
    f = fixture("f2.alg")
    assert main(["--input", f, "--command", "compute"]) == 0
    assert seen == [RunConfig(f, "compute")]


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
    # the package does not import cyclo2.cli, so runpy loads it only once
    assert "RuntimeWarning" not in proc.stderr
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
    # slice differentials are shifted from the per-degree b and B columns,
    # never cached slice-wide
    assert A.memo("chain_columns") and "tower_matrix" not in A._memo
    # the basis of an ungraded algebra is memoised there too
    B = load_presentation(fixture("f4.alg"))
    basis = B.basis_all()
    assert B.basis_all() is basis and B.memo("degree_basis")[0] is basis
    assert set(vars(B)) == {f.name for f in dataclasses.fields(B)}


def test_graded_compute_builds_no_bases(monkeypatch):
    # compute reads only dimensions, and on a graded input each comes from
    # block ranks: no kernel or image is eliminated or memoised
    from cyclo2 import f2linalg
    loaded, eliminated = [], []

    def load(path):
        loaded.append(load_presentation(path))
        return loaded[-1]

    def counted(f):
        return lambda cols: eliminated.append(len(cols)) or f(cols)

    monkeypatch.setattr(cli, "load_presentation", load)
    monkeypatch.setattr(f2linalg, "null_space", counted(f2linalg.null_space))
    for theory in ("hcminus", "hh", "hc", "hcper"):
        status, report = run(RunConfig(fixture("poly_xyz.alg"), "compute",
                                       theory, 3, 4))
        assert status == 0 and any(e["dim"] for e in report["entries"])
        A = loaded[-1]
        assert A.memo("homology") and A.memo("differential_rank"), theory
        assert A.memo("differential") == {}, theory
    assert eliminated == []


def test_truncated_compute_eliminates_nothing(monkeypatch):
    # the truncation check reads memoised block ranks only: on the bar
    # towers of the dual numbers, driven as compute drives a window
    # (homology and its dim, then truncation, per bidegree), nothing is
    # eliminated or spanned and no basis is memoised; the blocks of each
    # shape, at depth S, at S + 1 and of the hh slice whose b the check
    # reads, are built and ranked once per algebra
    counted = CountedReductions(monkeypatch)
    S = 3
    for theory, t in (("hcminus", "minus"), ("hcper", "per")):
        A = load_presentation(fixture("dual_numbers.alg"))
        counted.clear()
        flags = set()
        for n, D in cyclic.bidegree_window(A, 6, 0):
            H = cyclic.homology(A, theory, n, D, S)
            H.dim
            flags.add(cyclic.truncation(A, H).flag)
        assert "truncation-limited" in flags, theory
        assert counted.eliminated == [] and counted.spans == [], theory
        assert A.memo("differential") == {}, theory
        # source slices are (theory, n, d, S), S = 0 where not truncated
        assert counted.ranked and None not in counted.ranked
        assert Counter(counted.ranked) == Counter(counted.built)
        assert {(src[0], src[3]) for src, _, _ in counted.ranked} == {
            (t, S), (t, S + 1), ("hh", 0)}, theory
        shaped = Counter((cyclic._shape_key(A, *src), key)
                         for src, _, key in counted.ranked)
        assert max(shaped.values()) == 1, theory


def test_verify_approx_reads_classes_before_the_check(monkeypatch):
    # verify-approx reads H's classes before the truncation check, so the
    # depth-S ranks the check and H.dim read come from those eliminations,
    # with no rank pass of their own
    check = cyclic.truncation
    checked = []

    def after_bases(A, H):
        shapes = {cyclic._shape_key(A, H.theory, m, H.d, H.S)
                  for m in (H.n, H.n + 1)}
        assert shapes <= set(A.memo("differential")), (A.name, H.n)
        checked.append(H.slice.truncated)
        return check(A, H)

    monkeypatch.setattr(approx, "truncation", after_bases)
    for name in ("dual_numbers.alg", "f4.alg"):
        for theory in ("hcminus", "hcper"):
            status, _ = run(RunConfig(fixture(name), "verify-approx", theory,
                                      0, 2))
            assert status == 0, (name, theory)
    assert checked and all(checked)


def _assert_chain_tables_of(A, model, where):
    """Both chain tables of A are filled, and every key leads with model."""
    for table in ("chain_group", "chain_columns"):
        assert A.memo(table), (table, where)
        assert all(key[0] == model for key in A.memo(table)), (table, where)


def test_compute_selects_the_small_model_for_one_generator(monkeypatch,
                                                           tmp_path):
    # compute on ungraded F2[x]/(f) reads the Koszul model, and on
    # polynomial rings and the cusp, a complete intersection, the Tate
    # model; neither builds a bar chain group or column.  Ungraded
    # F2[x,y]/(x^2, y^2) and F2[x,y,z]/(x^2, xy), not a complete
    # intersection, keep the bar complex.  On every model, truncated or
    # not, compute reads dims and flags from ranks and eliminates nothing
    loaded = []

    def load(path):
        loaded.append(load_presentation(path))
        return loaded[-1]

    monkeypatch.setattr(cli, "load_presentation", load)
    inputs = {
        "two": ("[options]\ngraded = false\n[generators]\nx 0\ny 0\n"
                "[relations]\nx^2\ny^2\n", "bar"),
        "cusp": ("[generators]\nx 1\ny 1\n[relations]\nx^2*y + y^3\n",
                 "tate"),
        "xyz": ("[generators]\nx 1\ny 1\nz 1\n[relations]\nx^2\nx*y\n",
                "bar")}
    for name, (text, _) in inputs.items():
        (tmp_path / f"{name}.alg").write_text(text)
    for path, model in ((fixture("dual_numbers.alg"), "koszul"),
                        (fixture("f4.alg"), "koszul"),
                        (fixture("poly_x.alg"), "tate"),
                        (fixture("poly_xyz.alg"), "tate"),
                        *((str(tmp_path / f"{name}.alg"), model)
                          for name, (_, model) in inputs.items())):
        for theory in ("hh", "hc", "hcminus", "hcper"):
            run(RunConfig(path, "compute", theory, 2, 2, 1))
            A = loaded[-1]
            assert chain_model(A) == model, (path, theory)
            assert A.memo("homology")
            assert all(h.slice.model == model
                       for h in A.memo("homology").values()), (path, theory)
            _assert_chain_tables_of(A, model, (path, theory))
            assert A.memo("differential") == {}, (path, theory)


def test_verify_approx_checks_each_truncation_once(monkeypatch):
    # the S + 1 check runs once per ungraded minus/per bidegree of the
    # verdict window; the squares and product samples never run it
    calls = []
    check = cyclic.truncation

    def counted(A, H):
        if H.slice.truncated:
            calls.append((H.theory, H.n, H.d, H.S + 1))
        return check(A, H)

    for module in (cyclic, approx):
        monkeypatch.setattr(module, "truncation", counted)
    for theory, t in (("hcminus", "minus"), ("hcper", "per"), ("hc", "plus")):
        calls.clear()
        run(RunConfig(fixture("dual_numbers.alg"), "verify-approx", theory,
                      0, 2))
        assert calls == ([] if t == "plus"
                         else [(t, n, 0, 4) for n in range(-2, 3)]), theory


@pytest.mark.parametrize("command,theory", [("verify-approx", "hcminus")])
def test_no_block_ranked_then_eliminated(monkeypatch, command, theory):
    # verify-approx reads the bases of nearly every homology it reaches
    # (psi, the product checks, the squares), so where the ell side or a
    # class map's source is zero it reads classes too, not a dimension.
    # So no block of a differential is ranked and then eliminated.
    counted = CountedReductions(monkeypatch)
    loaded = []

    def load(path):
        loaded.append(load_presentation(path))
        return loaded[-1]

    monkeypatch.setattr(cli, "load_presentation", load)
    status, _ = run(RunConfig(fixture("poly_xy.alg"), command, theory, 4, 4))
    assert status == 0
    (A,) = loaded

    def shaped(tags):
        # a tag is (source slice, target slice, block key), or None for a
        # reduction of no tower columns
        return {(cyclic._shape_key(A, *src), key)
                for src, _, key in filter(None, tags)}

    assert shaped(counted.eliminated)
    assert not shaped(counted.ranked) & shaped(counted.eliminated)


@pytest.mark.parametrize("theory", ["hh", "hc", "hcminus", "hcper"])
def test_spectral_eliminates_nothing(monkeypatch, tmp_path, theory):
    # spectral reads E1 and E2 from block ranks on compute's chain model:
    # F2[x,y] and the cusp on the Tate model, F2[x,y,z]/(x^2, xy) on the
    # bar complex; none builds a group of another model, and none
    # eliminates a kernel
    counted = CountedReductions(monkeypatch)
    loaded = []

    def load(path):
        loaded.append(load_presentation(path))
        return loaded[-1]

    monkeypatch.setattr(cli, "load_presentation", load)
    cusp, xyz = tmp_path / "cusp.alg", tmp_path / "xyz.alg"
    cusp.write_text("[generators]\nx 1\ny 1\n[relations]\nx^2*y + y^3\n")
    xyz.write_text("[generators]\nx 1\ny 1\nz 1\n[relations]\nx^2\nx*y\n")
    for path, model in ((fixture("poly_xy.alg"), "tate"),
                        (str(cusp), "tate"), (str(xyz), "bar")):
        counted.clear()
        status, _ = run(RunConfig(path, "spectral", theory, 4, 4))
        assert status == 0
        A = loaded[-1]
        assert counted.ranked and not counted.eliminated, (path, theory)
        assert A.memo("differential") == {}, (path, theory)
        assert chain_model(A) == model, path
        _assert_chain_tables_of(A, model, (path, theory))


def test_spectral_bounds_and_theories():
    cfg = RunConfig(fixture("poly_x.alg"), "spectral", "hc",
                    max_internal=1, max_homological=1)
    _, report = run(cfg)
    assert (report["alpha"], report["beta"]) == (0, None)
    with pytest.raises(CLIError):
        run(RunConfig(fixture("poly_x.alg"), "spectral", "ell"))


def test_no_unused_imports():
    # a name a module imports but never reads is dead code; __init__.py is
    # exempt, since it imports to re-export
    src = os.path.dirname(cyclo2.__file__)
    unused = []
    for fname in sorted(os.listdir(src)):
        if not fname.endswith(".py") or fname == "__init__.py":
            continue
        with open(os.path.join(src, fname)) as fh:
            tree = ast.parse(fh.read())
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
            elif isinstance(node, ast.ImportFrom) \
                    and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        unused += [f"{fname}:{line} {name}"
                   for name, line in imported.items() if name not in read]
    assert unused == []
