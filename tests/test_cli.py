import io
import json
import os
import pathlib
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

import fmcheck.catalog as cat
from fmcheck import entries
from fmcheck.cli import main
from fmcheck.ode3d import COMPONENTS


def run_cli(argv):
    out = io.StringIO()
    err = io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_verify_passes_on_golden_entry():
    code, out, _ = run_cli(["verify", "lobachevsky", "--points", "6"])
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert doc["branch_convention"].startswith("principal")
    assert any(r["name"] == "flatness" for r in doc["reports"])


def test_verify_single_check_failure_exit_code():
    code, _, _ = run_cli(["verify", "lobachevsky", "--check", "levi-civita-flat",
                          "--points", "4"])
    assert code == 1


def test_check_keeps_the_files_expected_failure():
    # a negative control run alone reads as it does in the whole walk:
    # pencil-63's potentiality row fails, as its file expects, and the run
    # passes and names it; a row the file does not expect to fail keeps
    # failing the run
    code, out, _ = run_cli(["verify", "pencil-63", "--check", "potentiality", "--points", "4"])
    doc = json.loads(out)
    assert (code, doc["ok"], doc["expected_failures"]) == (0, True, ["potentiality"])
    assert [(r["name"], r["passed"]) for r in doc["reports"]] == [("potentiality", False)]
    code, out, _ = run_cli(["verify", "pencil-63", "--points", "4"])
    assert (code, json.loads(out)["expected_failures"]) == (0, ["potentiality"])
    code, out, _ = run_cli(["verify", "pencil-63", "--check", "darboux-system", "--points", "4"])
    assert code == 0 and "expected_failures" not in json.loads(out)


def test_verify_unknown_check():
    code, _, err = run_cli(["verify", "lobachevsky", "--check", "nope"])
    assert (code, err) == (2, "unknown check: 'nope'\n")


def test_check_without_its_input_names_it():
    # a row whose companion table or expected value the entry lacks is bad
    # input that names the first one it lacks, not an unknown check
    for check, missing in (("gamma-match", "gamma"), ("normal-rank", "rank"),
                           ("ode-integrals", "ode_family"), ("v-eigenvalues", "lame")):
        code, out, err = run_cli(["verify", "lobachevsky", "--check", check, "--points", "4"])
        assert (code, out, err) == (2, "", f"input error: lobachevsky has no {missing}\n"), check


def test_expected_failure_must_be_a_row_the_file_runs(tmp_path):
    # a misspelt negative control, and a real row that the file does not
    # run (lobachevsky has no printed connection), are bad input naming it
    doc = json.loads(entries.text("lobachevsky"))
    for row in ("potentiallity", "gamma-match"):
        path = tmp_path / f"{row}.json"
        path.write_text(json.dumps({**doc, "expected_failures": [row]}))
        code, out, err = run_cli(["verify", str(path), "--points", "4"])
        assert (code, out) == (2, ""), row
        assert err == (f"unknown check: {row!r} in expected_failures: lobachevsky runs no "
                       "such row\n"), row


def test_verify_malformed_spec(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(["verify", str(bad)])
    assert code == 2


def test_verify_spec_file_roundtrip(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(cat.entry("lobachevsky").spec.to_json())
    code, out, _ = run_cli(["verify", str(spec_path), "--points", "5"])
    assert code == 0
    assert json.loads(out)["ok"]


def test_verify_byte_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    args = ["verify", "q0-d0", "--points", "6", "--seed", "11"]
    assert run_cli(args + ["-o", str(a)])[0] == 0
    assert run_cli(args + ["-o", str(b)])[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_verify_markdown_and_csv_formats():
    code, out, _ = run_cli(["verify", "lobachevsky", "--points", "4",
                            "--format", "markdown"])
    assert code == 0 and out.startswith("# verify")
    code, out, _ = run_cli(["verify", "lobachevsky", "--points", "4",
                            "--format", "csv"])
    assert code == 0 and out.splitlines()[0] == "name,residual,tol,passed"


def test_ode_drift_and_endpoint():
    code, out, _ = run_cli(["ode", "--init", "pencil63", "--from", "-1", "--to", "-3",
                            "--steps", "8"])
    assert code == 0
    lines = out.strip().splitlines()
    header = lines[0].split(",")
    last = dict(zip(header, (float(v) for v in lines[-1].split(","))))
    assert abs(last["z_re"] + 3.0) < 1e-12
    assert last["dI1_abs"] <= 1e-7 and last["dI2_abs"] <= 1e-7


def test_ode_q0_endpoint_matches_closed_form():
    from fmcheck.ode3d import closed_form_q0
    code, out, _ = run_cli(["ode", "--init", "q0", "--a", "1", "--b", "1",
                            "--from", "2", "--to", "5", "--steps", "4"])
    assert code == 0
    lines = out.strip().splitlines()
    header = lines[0].split(",")
    last = dict(zip(header, (float(v) for v in lines[-1].split(","))))
    want = closed_form_q0(5.0, 1, 1)
    for i, comp in enumerate(COMPONENTS):
        got = complex(last[f"{comp}_re"], last[f"{comp}_im"])
        assert abs(got - want.F[i]) < 1e-7


def test_ode_csv_header_follows_the_component_order():
    # z, the six components in `ode3d.COMPONENTS` order and I1..I8, each as
    # a real and an imaginary column, then the two integral drifts
    code, out, _ = run_cli(["ode", "--init", "pencil63", "--from", "2", "--to", "3",
                            "--steps", "2"])
    assert code == 0
    names = ["z", *COMPONENTS, *(f"I{k}" for k in range(1, 9))]
    assert out.splitlines()[0].split(",") == [
        f"{name}_{part}" for name in names for part in ("re", "im")] + ["dI1_abs", "dI2_abs"]
    assert COMPONENTS == ("F12", "F21", "F13", "F31", "F23", "F32")


def test_ode_q0_parameters_are_read_only_by_q0():
    # unset, --a and --b are q0's 1.0; any other family refuses them by name
    path = ["--from", "2", "--to", "3", "--steps", "2"]
    default = run_cli(["ode", "--init", "q0", *path])
    assert default[0] == 0
    assert run_cli(["ode", "--init", "q0", "--a", "1", "--b", "1", *path]) == default
    assert run_cli(["ode", "--init", "q0", "--b", "2", *path])[1] != default[1]
    state = ["--state", "0.3,-0.1,0.2,0.4,-0.5,0.1,0.25,0.05,-0.3,0.2,0.1,-0.4"]
    for family in (["--init", "pencil63"], state):
        for option, value in (("--a", "5"), ("--b", "1")):
            code, out, err = run_cli(["ode", *family, option, value, *path])
            assert (code, out, err) == (2, "", f"input error: {option} {float(value)!r}: "
                                               f"only --init q0 reads it\n")


def test_ode_init_and_state_exclude_each_other():
    # --init chooses the starting state, so a --state beside it would be ignored
    path = ["--from", "2", "--to", "3", "--steps", "2"]
    state = "0.3,-0.1,0.2,0.4,-0.5,0.1,0.25,0.05,-0.3,0.2,0.1,-0.4"
    for init in ("q0", "pencil63"):
        for value in ("garbage", state):
            code, out, err = run_cli(["ode", "--init", init, "--state", value, *path])
            assert (code, out, err) == (2, "", f"input error: --init {init} and --state: "
                                               f"give one of them, not both\n")
    assert run_cli(["ode", "--state", state, *path])[0] == 0


def test_ode_path_of_length_zero_prints_every_row():
    # `--steps` rows of the start state, which drift by nothing
    for steps in ([], ["--steps", "5"]):
        code, out, _ = run_cli(["ode", "--init", "pencil63", "--from", "2", "--to", "2", *steps])
        assert code == 0
        header, *rows = out.splitlines()
        assert len(rows) == (int(steps[1]) if steps else 16)
        assert len(set(rows)) == 1
        cells = dict(zip(header.split(","), rows[0].split(",")))
        assert cells["z_re"] == "2.0" and cells["dI1_abs"] == cells["dI2_abs"] == "0.0"


def test_ode_drift_is_relative_to_the_integrals_terms():
    # near the q0 pole I1 and I2 are cancelling sums of terms of size about
    # 8e12 and 8e18: a correct run drifts by far more than --drift-tol in
    # absolute terms, yet passes
    code, out, err = run_cli(["ode", "--init", "q0", "--a", "1", "--b", "-2",
                              "--from", "2.000001", "--to", "3"])
    assert (code, err) == (0, "")
    header, *rows = out.splitlines()
    assert max(float(cell) for row in rows for cell in row.split(",")[-2:]) > 1.0
    # where the terms are below 1 the limit is --drift-tol itself: a loose
    # integration drifts past it and fails
    code, _, err = run_cli(["ode", "--init", "pencil63", "--from", "2", "--to", "3",
                            "--rtol", "1e-3", "--atol", "1e-3"])
    assert code == 1
    assert err.startswith("integral drift ")
    assert err.endswith(" of I1 exceeds 1.0e-07 x max(1, 7.500e-01)\n")


def test_ode_singular_crossing_exit2():
    code, _, err = run_cli(["ode", "--init", "q0", "--from", "0.5", "--to", "1.5"])
    assert code == 2


def test_ode_nonfinite_state_and_overflow_exit2():
    code, out, err = run_cli(["ode", "--state", "nan,0,1,0,1,0,1,0,1,0,1,0",
                              "--from", "2", "--to", "3"])
    assert (code, out) == (2, "")
    assert err == "input error: --state values must be finite\n"
    # finite, but the first right-hand side overflows and every step is rejected
    code, out, err = run_cli(["ode", "--state", ",".join(["1e200", "0"] * 6),
                              "--from", "2", "--to", "3"])
    assert (code, out) == (2, "")
    assert err.startswith("integration failed: step size underflow") and err.count("\n") == 1
    # --atol 0 on a zero state: no step has an error norm, so every step is rejected
    code, out, err = run_cli(["ode", "--state", ",".join(["0"] * 12), "--atol", "0",
                              "--from", "2", "--to", "3"])
    assert (code, out) == (2, "")
    assert err.startswith("integration failed: step size underflow") and err.count("\n") == 1
    # options that would only surface as a step size underflow or a numpy
    # error are rejected up front, by name and value
    for extra, message in ((["--from", "nan", "--to", "3"], "--from 'nan': must be finite"),
                           (["--from", "2", "--to", "inf"], "--to 'inf': must be finite"),
                           # only a trailing i is the imaginary unit
                           (["--from=inf+1i", "--to=3+0.5i"], "--from 'inf+1i': must be finite"),
                           (["--from=2+0.5i", "--to=-infj"], "--to '-infj': must be finite"),
                           (["--from", "2", "--to", "3", "--rtol", "nan"],
                            "--rtol nan: must be finite and non-negative"),
                           (["--from", "2", "--to", "3", "--atol=-inf"],
                            "--atol -inf: must be finite and non-negative"),
                           (["--from", "2", "--to", "3", "--rtol=-1e-8"],
                            "--rtol -1e-08: must be finite and non-negative"),
                           (["--from", "2", "--to", "3", "--atol=-1"],
                            "--atol -1.0: must be finite and non-negative"),
                           (["--from", "2", "--to", "3", "--steps=-3"],
                            "--steps -3: must be at least 1"),
                           (["--from", "2", "--to", "3", "--steps", "0"],
                            "--steps 0: must be at least 1"),
                           (["--from", "2", "--to", "3", "--rtol", "0", "--atol", "0"],
                            "--atol 0.0: must be positive where --rtol is 0"),
                           (["--from", "2", "--to", "3", "--drift-tol", "nan"],
                            "--drift-tol nan: must be finite and non-negative"),
                           (["--from", "2", "--to", "3", "--drift-tol", "inf"],
                            "--drift-tol inf: must be finite and non-negative"),
                           (["--from", "2", "--to", "3", "--drift-tol=-1e-7"],
                            "--drift-tol -1e-07: must be finite and non-negative"),
                           (["--from", "2", "--to", "3", "--a", "nan"], "--a nan: must be finite"),
                           (["--from", "2", "--to", "3", "--b", "inf"], "--b inf: must be finite")):
        for init in ("q0", "pencil63"):
            code, out, err = run_cli(["ode", "--init", init, *extra])
            assert (code, out, err) == (2, "", f"input error: {message}\n")
    # a q0 start on the family's pole a*z + b = 0 (or with a = b = 0), and
    # finite parameters whose closed form overflows to NaN
    pole = "a*z + b vanishes there, a pole of the q0 family"
    for params, message in ((["--a", "1", "--b", "-2"], f"--a 1.0, --b -2.0, --from '2': {pole}"),
                            (["--a", "0", "--b", "0"], f"--a 0.0, --b 0.0, --from '2': {pole}"),
                            (["--a", "1e308", "--b", "1e308"],
                             "the start state's F12 = (nan+nanj) is not finite")):
        code, out, err = run_cli(["ode", "--init", "q0", *params, "--from", "2", "--to", "3"])
        assert (code, out, err) == (2, "", f"input error: {message}\n")


def test_legendre_family_mapping():
    code, out, _ = run_cli(["legendre", "q0-d-minus1", "--field", "X2",
                            "--target", "q0-d0", "--points", "6"])
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] and doc["transformed_spec"]["name"].endswith("X2")


def test_legendre_identity_field():
    code, out, _ = run_cli(["legendre", "q0-d-minus1", "--field", "e", "--points", "4"])
    assert code == 0


def test_legendre_wrong_target_fails():
    code, _, _ = run_cli(["legendre", "q0-d-minus1", "--field", "X2",
                          "--target", "q0-d-minus1", "--points", "5"])
    assert code == 1


def test_legendre_param_applies_to_source_and_target():
    # the override reaches the target's parameter of the same name, so the
    # transform still lands on it
    code, out, _ = run_cli(["legendre", "q0-d-minus1", "--field", "X3", "--target", "q0-d1",
                            "--param", "b=0.7"])
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] and doc["params"]["b"] == [0.7, 0.0]


def test_legendre_rejects_nonflat_custom_field():
    code, _, err = run_cli(["legendre", "q0-d-minus1", "--field", "u1,u2,u3",
                            "--points", "4"])
    assert code == 1
    assert "rejected" in err or "hypothesis" in err.lower() or "flat" in err.lower()


def test_catalog_list_and_export():
    code, out, _ = run_cli(["catalog", "list"])
    assert code == 0 and "lobachevsky" in out.split()
    code, out, _ = run_cli(["catalog", "export", "af-pencil-n3"])
    assert code == 0
    doc = json.loads(out)
    assert doc["g2"] is not None
    code, _, _ = run_cli(["catalog", "export", "missing"])
    assert code == 2
    # a missing or an extra entry name is bad input, and named
    for argv, want in ((["catalog", "export"], "input error: catalog export needs an entry name"),
                       (["catalog", "list", "lobachevsky"],
                        "input error: catalog list takes no entry name, got 'lobachevsky'")):
        code, out, err = run_cli(argv)
        assert (code, out, err) == (2, "", want + "\n"), argv


def test_exported_file_verifies_to_the_entry_report(tmp_path):
    # `catalog export X` prints X's packaged spec file, and that file,
    # verified, gives X's report byte for byte: every row, with its flags,
    # companion tables and expected failures
    specs = pathlib.Path(entries.__file__).parent / "specs"
    assert sorted(path.stem for path in specs.glob("*.json")) == cat.names()
    for name in cat.names():
        code, text, err = run_cli(["catalog", "export", name])
        assert (code, err) == (0, "") and text == (specs / f"{name}.json").read_text("utf-8")
        path = tmp_path / f"{name}.json"
        path.write_text(text, encoding="utf-8")
        options = ["--seed", "3", "--points", "6"]
        assert run_cli(["verify", str(path), *options]) == run_cli(["verify", name, *options])


def test_verify_param_override():
    code, out, _ = run_cli(["verify", "q0-d0", "--points", "5", "--param", "a=2",
                            "--param", "b=0.5"])
    assert code == 0
    doc = json.loads(out)
    assert doc["params"]["a"] == [2.0, 0.0]


def _near_golden(got, want, what):
    # the same keys and lengths, every float within the golden margin and
    # every other value equal
    if isinstance(want, dict):
        assert got.keys() == want.keys(), what
        for key in want:
            _near_golden(got[key], want[key], (what, key))
    elif isinstance(want, list):
        assert len(got) == len(want), what
        for g, w in zip(got, want):
            _near_golden(g, w, what)
    elif isinstance(want, float):
        assert abs(got - want) <= 1e-12 + 1e-6 * abs(want), what
    else:
        assert got == want, what


def test_golden_report_fixtures(tmp_path):
    # structural comparison against versioned golden reports: every
    # top-level field but the reports equal, identical check names,
    # verdicts, tolerances and detail keys, and every report over all of its
    # run's `--points`; residuals, scales and the floats in the details
    # equal to within an environment-noise margin
    import pathlib
    golden_dir = pathlib.Path(__file__).parent / "golden"
    spec_path = tmp_path / "af-pencil-n3.json"
    spec_path.write_text(cat.entry("af-pencil-n3").spec.to_json())
    for name, args in (("lobachevsky_verify.json",
                        ["verify", "lobachevsky", "--points", "10", "--seed", "0"]),
                       ("pencil63_verify.json",
                        ["verify", "pencil-63", "--points", "8", "--seed", "0"]),
                       ("af_pencil_n3_spec_verify.json",
                        ["verify", str(spec_path), "--points", "8", "--seed", "0"]),
                       ("q0d0_natural_flat_verify.json",
                        ["verify", "q0-d0", "--check", "flatness", "--points", "6",
                         "--seed", "0"]),
                       ("q0dm1_X3_legendre.json",
                        ["legendre", "q0-d-minus1", "--field", "X3", "--target", "q0-d1",
                         "--points", "8", "--seed", "0"])):
        golden = json.loads((golden_dir / name).read_text())
        code, out, _ = run_cli(args)
        assert code == 0
        doc = json.loads(out)
        assert ({key: value for key, value in doc.items() if key != "reports"}
                == {key: value for key, value in golden.items() if key != "reports"}), name
        assert [r["name"] for r in doc["reports"]] == [r["name"] for r in golden["reports"]]
        count = int(args[args.index("--points") + 1])
        for got, want in zip(doc["reports"], golden["reports"]):
            assert got["passed"] == want["passed"] and got["tol"] == want["tol"]
            assert got["npoints"] == want["npoints"] == count, (name, got["name"])
            assert abs(got["residual"] - want["residual"]) <= 1e-12 + 1e-6 * abs(want["residual"])
            _near_golden(got["scale"], want["scale"], (name, got["name"], "scale"))
            _near_golden(got["details"], want["details"], (name, got["name"], "details"))


ROOT = pathlib.Path(__file__).resolve().parents[1]


def run_bare(*args):
    """`python -S ARGS` on the source tree: without site-packages on the
    path, so numpy cannot be imported."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, "-S", *args], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=60)


def test_ode_path_runs_without_numpy():
    argv = ["ode", "--init", "q0", "--a", "0.7", "--b", "1.3", "--from=0.5+1.0i",
            "--to=-1.5+1.5i", "--steps", "40"]
    proc = run_bare("-m", "fmcheck.cli", *argv)
    assert (proc.returncode, proc.stderr) == (0, "")
    code, out, _ = run_cli(argv)
    assert code == 0 and proc.stdout == out


def test_ode_path_imports_only_ode3d():
    # the ODE module loads no other fmcheck module, the CLI none when it
    # loads, and its `ode` command only the ODE module; none loads numpy
    ode = "main(['ode', '--init', 'pencil63', '--from', '2', '--to', '3', '--steps', '2']); "
    for code, want in (("import fmcheck.ode3d; ", ["fmcheck", "fmcheck.ode3d"]),
                       ("import fmcheck.cli; ", ["fmcheck", "fmcheck.cli"]),
                       ("from fmcheck.cli import main; " + ode,
                        ["fmcheck", "fmcheck.cli", "fmcheck.ode3d"])):
        proc = run_bare("-c", f"import sys; {code}print(sorted(m for m in sys.modules "
                              f"if m.startswith(('fmcheck', 'numpy'))), file=sys.stderr)")
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == f"{want}\n"


# the modules of the package that a `verify` or `legendre` walk loads
# (`catalog` and what it imports), and those that an entry's rows add
WALK_MODULES = {"fmcheck", "fmcheck.cli", "fmcheck.entries", "fmcheck.spec", "fmcheck.catalog",
                "fmcheck.exprjet", "fmcheck.connection", "fmcheck.manifold", "fmcheck.tensor"}
ROW_MODULES = {"lobachevsky": {"hamops"}, "af-pencil-n3": {"pencil"}, "af-pencil-n4": {"pencil"},
               "lauricella-eps-minus1-n3": {"rotation", "ode3d", "hamops"},
               **{name: {"rotation", "ode3d"}
                  for name in ("pencil-63", "q0-d-minus1", "q0-d0", "q0-d1")}}


def test_each_command_loads_the_modules_its_rows_read():
    # in a fresh process per command, the modules of the package whose code
    # ran: `verify` of each entry loads the walk's modules and those of its
    # rows (ROW_MODULES; none for case-i to case-v, nonss2d and nonss3d), a
    # transform `legendre` and `hamops` too, a run of one row only the
    # walk's, and `ode` only `ode3d`; no process imports `dataclasses` or
    # `numpy.random` (the sample points come from `manifold._PCG64`).
    # Each report is the bytes the same command prints in this process,
    # whose imports would hide a module that a walk forgot to load
    import concurrent.futures
    source = cat.entry("q0-d-minus1")
    walk = ["--seed", "3", "--points", "4"]
    assert [name for name in cat.names() if name not in ROW_MODULES] == [
        "case-i", "case-ii", "case-iii", "case-iv", "case-v", "nonss2d", "nonss3d"]
    runs = [(["verify", name, *walk],
             WALK_MODULES | {f"fmcheck.{m}" for m in ROW_MODULES.get(name, ())})
            for name in cat.names()]
    runs += [(["legendre", "q0-d-minus1", "--field", field, "--target", target, *walk],
              WALK_MODULES | {"fmcheck.legendre", "fmcheck.hamops"})
             for field, target in sorted(source.companion["legendre_targets"].items())]
    runs += [(["verify", "lobachevsky", "--check", "levi-civita-flat", *walk], WALK_MODULES),
             (["ode", "--init", "pencil63", "--from", "2", "--to", "3", "--steps", "2"],
              {"fmcheck", "fmcheck.cli", "fmcheck.ode3d"})]
    script = ("import contextlib, importlib.machinery, io, json, sys\n"
              "ran = []\n"
              "class Finder:  # records each module of the package once its code has run\n"
              "    def find_spec(self, name, path=None, target=None):\n"
              "        if name.split('.')[0] != 'fmcheck':\n"
              "            return None\n"
              "        spec = importlib.machinery.PathFinder.find_spec(name, path)\n"
              "        run = spec.loader.exec_module\n"
              "        spec.loader.exec_module = lambda module: (run(module), ran.append(name))\n"
              "        return spec\n"
              "sys.meta_path.insert(0, Finder())\n"
              "from fmcheck.cli import main\n"
              "out = io.StringIO()\n"
              "with contextlib.redirect_stdout(out):\n"
              "    code = main(sys.argv[1:])\n"
              "print(json.dumps([code, out.getvalue(), sorted(ran),\n"
              "                  'dataclasses' in sys.modules, 'numpy.random' in sys.modules]))\n")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}

    def run(argv):
        proc = subprocess.run([sys.executable, "-c", script, *argv], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.stderr == "", (argv, proc.stderr)
        return json.loads(proc.stdout)

    with concurrent.futures.ThreadPoolExecutor(max_workers=2) as pool:
        results = list(pool.map(run, [argv for argv, _ in runs]))
    for (argv, want), (code, out, ran, dataclasses, random) in zip(runs, results):
        assert (ran, dataclasses, random) == (sorted(want), False, False), argv
        assert code == (1 if "--check" in argv else 0), argv
        assert [code, out] == list(run_cli(argv))[:2], argv


def test_catalog_and_spec_errors_import_only_the_spec_layer(tmp_path):
    # `catalog`, a spec that cannot be loaded, a non-finite `--param` and a
    # `--field` of the wrong length load only the standard library's
    # modules, `spec` and `entries`, and no numpy; every export
    # has the bytes it has in a process that has loaded the walk
    malformed = tmp_path / "malformed.json"
    malformed.write_text("{not json")
    # q0-d0's spec file with D misspelt, which would drop its homogeneity row
    misspelt = tmp_path / "misspelt.json"
    doc = json.loads(entries.text("q0-d0"))
    doc["expected"]["Dd"] = doc["expected"].pop("D")
    misspelt.write_text(json.dumps(doc))
    exports = [["catalog", "export", name] for name in cat.names()]
    runs = [(["catalog", "list"], 0), *((argv, 0) for argv in exports),
            (["verify", "nope"], 2), (["verify", str(malformed)], 2),
            (["verify", str(misspelt)], 2),
            (["verify", "q0-d0", "--param", "a=nan"], 2),
            (["legendre", "q0-d-minus1", "--field", "1,0"], 2)]
    script = ("import contextlib, io, json, sys\n"
              "from fmcheck.cli import main\n"
              "results = []\n"
              "for argv in json.loads(sys.argv[1]):\n"
              "    out, err = io.StringIO(), io.StringIO()\n"
              "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
              "        results.append([main(argv), out.getvalue(), err.getvalue()])\n"
              "print(json.dumps([results, sorted(m for m in sys.modules\n"
              "                                  if m.startswith(('fmcheck', 'numpy')))]))\n")
    proc = run_bare("-c", script, json.dumps([argv for argv, _ in runs]))
    assert proc.returncode == 0, proc.stderr
    results, modules = json.loads(proc.stdout)
    assert modules == ["fmcheck", "fmcheck.cli", "fmcheck.entries", "fmcheck.spec"]
    assert results[runs.index((["verify", str(misspelt)], 2))][2].startswith(
        "spec error: expected.Dd: unknown key")
    for (argv, want_code), (code, out, err) in zip(runs, results):
        assert code == want_code, (argv, err)
        assert [code, out, err] == list(run_cli(argv)), argv
    assert results[0][1].split() == cat.names()


# `ode` trajectories as a build of the stepper on numpy arrays wrote them:
# changes to the scalar arithmetic must keep every cell within the margin
GOLDEN_ODE = (("q0_a07_b13_steps40_ode.csv",
               ["--init", "q0", "--a", "0.7", "--b", "1.3", "--from=0.5+1.0i", "--to=-1.5+1.5i",
                "--steps", "40"]),
              ("pencil63_ode.csv", ["--init", "pencil63", "--from", "2.4", "--to", "5.4-1i"]),
              ("state_ode.csv",
               ["--state", "0.3,-0.1,0.2,0.4,-0.5,0.1,0.25,0.05,-0.3,0.2,0.1,-0.4",
                "--from", "2+0.5i", "--to", "3.5"]))


@pytest.mark.parametrize("name, argv", GOLDEN_ODE, ids=[name for name, _ in GOLDEN_ODE])
def test_golden_ode_fixtures(name, argv):
    # the same header and rows, and every cell within the golden margin, in
    # this process and in one without site-packages
    golden = (ROOT / "tests" / "golden" / name).read_text().splitlines()
    code, out, _ = run_cli(["ode", *argv])
    proc = run_bare("-m", "fmcheck.cli", "ode", *argv)
    for got_code, got in ((code, out), (proc.returncode, proc.stdout)):
        assert got_code == 0
        lines = got.splitlines()
        assert lines[0] == golden[0] and len(lines) == len(golden)
        for row, want_row in zip(lines[1:], golden[1:]):
            assert row.count(",") == want_row.count(",")
            for cell, want in zip(row.split(","), map(float, want_row.split(","))):
                assert abs(float(cell) - want) <= 1e-12 + 1e-6 * abs(want), (name, row)


def test_verify_spec_file_with_second_metric(tmp_path):
    spec_path = tmp_path / "pencil.json"
    spec_path.write_text(cat.entry("af-pencil-n3").spec.to_json())
    code, out, _ = run_cli(["verify", str(spec_path), "--points", "5"])
    assert code == 0
    names = [r["name"] for r in json.loads(out)["reports"]]
    assert "pencil-exactness" in names and "flat-pencil" in names


def test_empty_point_set_is_bad_input():
    for argv in (["verify", "pencil-63", "--points", "0"],
                 ["verify", "lobachevsky", "--check", "killing-unit", "--points", "0"],
                 ["legendre", "q0-d-minus1", "--field", "e", "--points", "0"]):
        code, out, err = run_cli(argv)
        assert code == 2 and out == ""
        assert len(err.strip().splitlines()) == 1 and "sample point" in err


def test_unevaluable_spec_is_bad_input(tmp_path):
    doc = json.loads(cat.entry("lobachevsky").spec.to_json())
    paths = {}
    from fmcheck.manifold import SamplePlan, sample_points
    samples = sample_points(cat.entry("lobachevsky").spec, SamplePlan(seed=0, count=6))
    # a product given as a table, which the expression-level transform cannot take
    paths["table"] = tmp_path / "table.json"
    paths["table"].write_text(json.dumps(
        {**doc, "product": {"table": [[["1", "0"], ["0", "0"]], [["0", "0"], ["0", "1"]]]}}))
    for name, g in (("unbound", [["k*2/(x-y)^2", "0"], ["0", "k*2/(x-y)^2"]]),
                    ("divzero", [["1/(x-x)", "0"], ["0", "2/(x-y)^2"]]),
                    ("zero", [["0", "0"], ["0", "0"]]),
                    # singular at sample 3 only
                    ("third", [[f"2/(x-y)^2+1/(x-{float(samples[3][0])!r})", "0"],
                               ["0", "2/(x-y)^2"]]),
                    # evaluable everywhere, but a singular metric at sample 3
                    ("singular-third", [[f"x-{float(samples[3][0])!r}", "0"],
                                        ["0", "2/(x-y)^2"]]),
                    ("unparseable", [["1+", "0"], ["0", "2/(x-y)^2"]]),
                    # a superscript is no digit: not of a number, nor of a coordinate
                    ("superscript", [["2/(x-y)²", "0"], ["0", "2/(x-y)^2"]]),
                    ("u-superscript", [["u2²*2/(x-y)^2", "0"], ["0", "2/(x-y)^2"]])):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps({**doc, "g": g}))
    # two singular tables, e (ln(0)) and g (division by zero), at samples 5
    # and 3, 3 and 5, or both at 3: the lowest point is named, and there
    # the first table's error
    for name, ke, kg in (("e5-g3", 5, 3), ("e3-g5", 3, 5), ("e3-g3", 3, 3)):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(
            {**doc, "e": [f"1+ln(x-{float(samples[ke][0])!r})", "1"],
             "g": [[f"2/(x-y)^2+1/(x-{float(samples[kg][0])!r})", "0"], ["0", "2/(x-y)^2"]]}))
    # a region that admits no point: no two coordinates 50 apart in the box
    paths["empty"] = tmp_path / "empty.json"
    paths["empty"].write_text(json.dumps({**doc, "region": {**doc["region"], "min_sep": 50}}))
    # non-finite numbers, which Python's json reads and writes as NaN and
    # Infinity, integers beyond a float's range, and a reversed box pair
    nan, inf = float("nan"), float("inf")
    numbers = {"nan-param": {**doc, "params": {"a": nan}},
               "inf-pair-param": {**doc, "params": {"a": [1.0, inf]}},
               "huge-param": {**doc, "params": {"a": 10 ** 400}},
               **{key: {**doc, "region": {**doc["region"], **region}} for key, region in (
                   ("nan-box", {"box": [[nan, 2.0], [-1.5, 0.4]]}),
                   ("inf-box", {"box": [[0.6, inf], [-1.5, 0.4]]}),
                   ("reversed-box", {"box": [[0.6, 2.0], [1.0, -1.0]]}),
                   ("nan-min-sep", {"min_sep": nan}),
                   ("huge-min-sep", {"min_sep": 10 ** 400}),
                   ("inf-guard-min", {"guard_min": inf}))}}
    for key, value in numbers.items():
        paths[key] = tmp_path / f"{key}.json"
        paths[key].write_text(json.dumps(value))
    # a region guard with an unbound parameter, or a coordinate beyond n
    q0 = json.loads(cat.entry("q0-d0").spec.to_json())
    for key, guard in (("unbound-guard", "u1-kk"), ("coordinate-guard", "u4")):
        paths[key] = tmp_path / f"{key}.json"
        paths[key].write_text(json.dumps({**q0, "region": {**q0["region"], "guards": [guard]}}))
    # a spec file without its product, among other fields
    paths["missing"] = tmp_path / "missing.json"
    paths["missing"].write_text(json.dumps({"n": 2}))
    # and one that is not UTF-8
    paths["binary"] = tmp_path / "binary.json"
    paths["binary"].write_bytes(b"\x89PNG\r\n\x1a\n")
    undecodable = "'utf-8' codec can't decode byte 0x89 in position 0: invalid start byte"
    walk_options = [(["verify", "lobachevsky"] + option, f"input error: {named}")
                    for option, named in (
                        (["--seed", "-1"], "--seed -1: must be non-negative"),
                        (["--rtol", "nan"], "--rtol nan: must be finite and non-negative"),
                        (["--rtol", "-1"], "--rtol -1.0: must be finite and non-negative"),
                        (["--rtol", "inf"], "--rtol inf: must be finite and non-negative"))]
    walk_options += [(["legendre", "q0-d-minus1", "--field", "X2"] + argv[2:], want)
                     for argv, want in walk_options]

    def singular(k):
        return f"sample {k} at ({float(samples[k][0])}, {float(samples[k][1])}) is singular"
    for argv, want in ((["verify", "lobachevsky", "--check", "homogeneity"], "Euler field"),
                       (["verify", "case-i", "--check", "metric-invariance"], "metric"),
                       (["verify", str(paths["unbound"])], "unbound"),
                       (["verify", str(paths["divzero"])], singular(0)),
                       # the point is named before the missing Euler field
                       (["verify", str(paths["divzero"]), "--check", "homogeneity"], singular(0)),
                       (["verify", str(paths["zero"])], singular(0)),
                       (["verify", str(paths["third"])], singular(3) + ": DomainError"),
                       (["verify", str(paths["singular-third"])],
                        singular(3) + ": SingularMatrixError: matrix is numerically singular"),
                       (["verify", str(paths["e5-g3"])],
                        singular(3) + ": DomainError: division by zero"),
                       (["verify", str(paths["e3-g5"])], singular(3) + ": DomainError: ln(0)"),
                       (["verify", str(paths["e3-g3"])], singular(3) + ": DomainError: ln(0)"),
                       (["verify", str(paths["unparseable"])], "cannot parse '1+'"),
                       (["verify", str(paths["superscript"])],
                        "spec error: cannot parse '2/(x-y)²': unexpected character '²' "
                        "(line 1, column 8)"),
                       (["verify", str(paths["u-superscript"])],
                        "input error: unbound parameter 'u2²'"),
                       # before any point is drawn
                       (["verify", str(paths["unbound-guard"])],
                        "input error: unbound parameter 'kk'"),
                       (["verify", str(paths["coordinate-guard"])],
                        "input error: coordinate u4 out of range for dimension 3"),
                       # a missing field is named as a malformed one is
                       (["verify", str(paths["missing"])], "spec error: product: missing"),
                       # a spec path that cannot be read is named with the reason
                       (["verify", str(tmp_path)], f"spec error: {tmp_path}: "),
                       (["legendre", str(tmp_path), "--field", "1,1"], f"spec error: {tmp_path}: "),
                       (["verify", str(paths["binary"])],
                        f"spec error: {paths['binary']}: {undecodable}"),
                       (["legendre", str(paths["binary"]), "--field", "1,1"],
                        f"spec error: {paths['binary']}: {undecodable}"),
                       (["legendre", "q0-d-minus1", "--field", "1+,1,1"], "cannot parse '1+'"),
                       # a field of the wrong length, before the walk
                       (["legendre", "q0-d-minus1", "--field", "1,0"],
                        "input error: --field '1,0': 2 components, but q0-d-minus1 has n = 3"),
                       (["legendre", "q0-d-minus1", "--field", "1,0,0,0"],
                        "input error: --field '1,0,0,0': 4 components, but q0-d-minus1 has n = 3"),
                       # a named field the entry lacks, or an entry or a spec
                       # file with none
                       (["legendre", "q0-d-minus1", "--field", "X9"],
                        "input error: --field 'X9': not a field of q0-d-minus1"),
                       (["legendre", "lobachevsky", "--field", "X2"],
                        "input error: --field 'X2': not a field of lobachevsky"),
                       (["legendre", str(paths["zero"]), "--field", "X2"],
                        "input error: --field 'X2': not a field of lobachevsky"),
                       (["legendre", "case-i", "--field", "1,0"], "metric"),
                       (["legendre", "lobachevsky", "--field", "1,1", "--target", "case-i"],
                        "metric"),
                       (["legendre", str(paths["unbound"]), "--field", "1,1"], "unbound"),
                       (["legendre", str(paths["table"]), "--field", "1,1"],
                        "constant product table"),
                       (["legendre", str(paths["zero"]), "--field", "1,1"], singular(0)),
                       (["legendre", str(paths["divzero"]), "--field", "1,1"], singular(0)),
                       # a malformed --param is named with what it holds
                       (["verify", "lobachevsky", "--param", "a"], "--param 'a'"),
                       (["verify", "lobachevsky", "--param", "=3"], "--param '=3'"),
                       # a bad --seed or --rtol, and a region with too few points
                       *walk_options,
                       (["verify", str(paths["empty"])],
                        "input error: the sampling region of 'lobachevsky' gave 0 of 20"),
                       (["legendre", str(paths["empty"]), "--field", "1,1"],
                        "input error: the sampling region of 'lobachevsky' gave 0 of 20"),
                       (["verify", "lobachevsky", "--points", "100000000"],
                        "input error: the sampling region of 'lobachevsky'"),
                       (["verify", "lobachevsky", "--param", "b=zz"], "--param b: 'zz'"),
                       # so is a non-finite number, on the command line or in
                       # a spec file, and a reversed box pair, by its field
                       (["verify", "q0-d0", "--param", "a=nan"],
                        "spec error: --param a: 'nan' is not finite"),
                       (["verify", "q0-d0", "--param", "a=inf"],
                        "spec error: --param a: 'inf' is not finite"),
                       # only a trailing i is the imaginary unit
                       (["verify", "q0-d0", "--param", "a=-inf+1j"],
                        "spec error: --param a: '-inf+1j' is not finite"),
                       (["verify", "q0-d0", "--param", "a=-inf+1i"],
                        "spec error: --param a: '-inf+1i' is not finite"),
                       (["verify", "lauricella-eps-minus1-n3", "--param", "c1=nan"],
                        "spec error: --param c1: 'nan' is not finite"),
                       (["legendre", "q0-d-minus1", "--field", "X2", "--target", "q0-d0",
                         "--param", "a=-inf"], "spec error: --param a: '-inf' is not finite"),
                       (["verify", str(paths["nan-param"])],
                        "spec error: params.a: expected a finite value, got nan"),
                       (["verify", str(paths["inf-pair-param"])],
                        "spec error: params.a: expected a finite value, got [1.0, inf]"),
                       (["verify", str(paths["huge-param"])],
                        "spec error: params.a: expected a finite value, got 1000"),
                       *((["verify", str(paths[key])],
                         f"spec error: region.box: expected finite bounds with lo <= hi, got {b}")
                         for key, b in (("nan-box", "[nan, 2.0]"), ("inf-box", "[0.6, inf]"),
                                        ("reversed-box", "[1.0, -1.0]"))),
                       (["legendre", str(paths["reversed-box"]), "--field", "1,1"],
                        "spec error: region.box: expected finite bounds with lo <= hi"),
                       *((["verify", str(paths[key])],
                         "spec error: region.min_sep: expected a finite number")
                         for key in ("nan-min-sep", "huge-min-sep")),
                       (["verify", str(paths["inf-guard-min"])],
                        "spec error: region.guard_min: expected a finite number"),
                       # so is a name that is no parameter of the spec (or target)
                       (["verify", "q0-d0", "--param", "aa=2"], "--param aa: q0-d0"),
                       (["legendre", "q0-d-minus1", "--field", "X2", "--param", "zz=3"],
                        "--param zz: q0-d-minus1"),
                       (["legendre", "q0-d-minus1", "--field", "X2", "--target", "q0-d0",
                         "--param", "zz=3"], "--param zz: q0-d-minus1 or q0-d0"),
                       # an --output path that cannot be written is named with the reason
                       (["verify", "lobachevsky", "--output", str(tmp_path)],
                        f"output error: {tmp_path}: Is a directory"),
                       (["legendre", "q0-d-minus1", "--field", "X2", "--output",
                         str(tmp_path / "none" / "out.json")],
                        f"output error: {tmp_path / 'none' / 'out.json'}: No such file"),
                       (["ode", "--init", "q0", "--from", "2", "--to", "3", "--output",
                         str(tmp_path)], f"output error: {tmp_path}: Is a directory")):
        code, out, err = run_cli(argv)
        assert code == 2 and out == ""
        assert len(err.strip().splitlines()) == 1 and want in err, (argv, err)
    # sample 0's transform hypothesis fails before sample 3 is reached
    for name in ("third", "singular-third"):
        code, out, err = run_cli(["legendre", str(paths[name]), "--field", "1,1"])
        assert code == 1 and out == "" and err.startswith("transform rejected: "), (name, err)


def test_verify_has_no_atol_option():
    with pytest.raises(SystemExit) as exc:
        run_cli(["verify", "lobachevsky", "--atol", "1e-3"])
    assert exc.value.code == 2


_LOB = json.loads(entries.text("lobachevsky"))
_FIELD = {"legendre_fields": {"X": ["1", "1"]}}


@pytest.mark.parametrize("field, value, named", [
    ("e", ["1"], "e:"),
    ("e", ["1", "1", "1"], "e:"),
    ("coords", ["x", "y", "z"], "coords:"),
    ("coords", 5, "coords:"),
    ("product", "weird", "product:"),
    ("g", [["1", "0", "0"]] * 3, "g:"),
    ("g", 3, "g:"),
    ("region", {**_LOB["region"], "box": [[0.6, 2.0]]}, "region.box:"),
    ("region", {**_LOB["region"], "box": 5}, "region.box:"),
    ("params", {"k": [1]}, "params.k:"),
    # an expected value is a finite number, or V_eigenvalues' list of n of them
    ("expected", {"D": "abc"}, "expected.D:"),
    ("expected", {"D": [1, 2, 3]}, "expected.D:"),
    ("expected", {"D": {}}, "expected.D:"),
    ("expected", {"D": float("nan")}, "expected.D:"),
    ("expected", {"V_eigenvalues": 1.0}, "expected.V_eigenvalues:"),
    ("expected", {"V_eigenvalues": [1.0, "x"]}, "expected.V_eigenvalues:"),
    ("expected", {"V_eigenvalues": [1.0, 2.0, 3.0]}, "expected.V_eigenvalues:"),
    # a key that no row reads, in `expected`, a section or the file, is named
    ("expected", {"Dd": 2.0}, "expected.Dd:"),
    ("flgs", ["ed4"], "flgs:"),
    ("flags", ["ed4", "ed6"], "flags:"),
    ("flags", "ed4", "flags:"),
    ("expected_failures", [1], "expected_failures:"),
    ("companion", [], "companion:"),
    ("companion", {**_LOB["companion"], "gama": []}, "companion.gama:"),
    ("companion", {"flat_e": ["0"]}, "companion.flat_e:"),
    ("companion", {"gamma": [[["0"] * 2] * 2] * 3}, "companion.gamma:"),
    ("companion", {"normal_bundle": {"eps": [-1, 2], "fields": [["1", "1"]] * 2}},
     "companion.normal_bundle.eps:"),
    ("companion", {"normal_bundle": {"eps": [-1], "fields": [["1"]]}},
     "companion.normal_bundle.fields:"),
    ("companion", {"normal_bundle": {"eps": [-1], "fields": [["1", "1"]], "gradients": ["1"]}},
     "companion.normal_bundle:"),
    ("companion", {"normal_bundle": {"eps": [-1], "field": [["1", "1"]]}},
     "companion.normal_bundle.field:"),
    ("companion", {**_FIELD, "legendre_fields": {"X": ["1"]}}, "companion.legendre_fields.X:"),
    ("companion", {**_FIELD, "legendre_targets": {"Y": "q0-d0"}},
     "companion.legendre_targets.Y:"),
    ("companion", {"ode_family": "q1"}, "companion.ode_family:"),
], ids=["e-short", "e-long", "coords-long", "coords-number", "product-name", "g-3x3",
        "g-number", "box-one-pair", "box-number", "param-one-number", "expected-string",
        "expected-list", "expected-object", "expected-nan", "eigenvalues-number",
        "eigenvalues-string", "eigenvalues-long", "expected-unknown-key", "unknown-section",
        "flag-unknown", "flags-string", "expected-failure-number", "companion-list",
        "companion-unknown-key", "companion-short", "companion-gamma-shape", "eps-sign",
        "normal-fields-short", "normal-fields-and-gradients", "normal-unknown-key",
        "legendre-field-short", "legendre-target-no-field", "ode-family-unknown"])
def test_malformed_spec_file_is_bad_input(tmp_path, field, value, named):
    # lobachevsky's spec file with one field malformed: one `spec error`
    # line that names the field, for `verify` and `legendre` alike
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({**_LOB, field: value}))
    for argv in (["verify", str(path)], ["legendre", str(path), "--field", "1,1"]):
        code, out, err = run_cli(argv)
        assert code == 2 and out == "", (argv, err)
        assert len(err.strip().splitlines()) == 1 and err.startswith(f"spec error: {named}"), err


def test_one_component_field_on_a_line(tmp_path):
    # on n = 1 no comma marks a component, so a `--field` that names no
    # field is the field's one component; two components are still too many
    path = tmp_path / "line.json"
    path.write_text(json.dumps({"name": "line", "n": 1, "coords": ["u1"], "product": "canonical",
                                "e": ["1"], "E": ["u1"], "g": [["1"]],
                                "region": {"box": [[0.5, 2.0]]}}))
    code, out, err = run_cli(["legendre", str(path), "--field", "1", "--points", "4"])
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["field"] == "custom" and doc["ok"]
    assert [r["name"] for r in doc["reports"]] == ["legendre-field", "transform-exprs"]
    # a field that is not flat is rejected as a transform, not as a name
    code, out, err = run_cli(["legendre", str(path), "--field", "u1", "--points", "4"])
    assert code == 1 and err.startswith("transform rejected: field is not connection-flat")
    code, out, err = run_cli(["legendre", str(path), "--field", "1,1"])
    assert code == 2 and err == "input error: --field '1,1': 2 components, but line has n = 1\n"


def test_forced_values_are_no_parameters():
    # a value that its family forces is a table constant, not a parameter
    for name, key in (("case-ii", "a"), ("case-v", "a"), ("nonss2d", "b")):
        code, out, err = run_cli(["verify", name, "--param", f"{key}=1"])
        assert code == 2 and out == ""
        assert err == f"spec error: --param {key}: {name} has no such parameter\n"
    code, out, _ = run_cli(["verify", "case-i", "--param", "a=2", "--points", "8"])
    assert code == 0 and json.loads(out)["params"]["a"] == [2.0, 0.0]


def test_param_reaches_the_normal_bundle():
    # the bundle's fields are evaluated with the spec's parameters, so a
    # moved c1 moves the fields with the metric
    code, out, _ = run_cli(["verify", "lauricella-eps-minus1-n3", "--param", "c1=2"])
    assert code == 0
    doc = json.loads(out)
    assert doc["params"]["c1"] == [2.0, 0.0]
    passed = {r["name"]: r["passed"] for r in doc["reports"]}
    assert passed["quadratic-expansion"] and passed["gmc"]


def test_parser_is_built_once_and_keeps_no_state():
    from fmcheck.cli import build_parser
    assert build_parser() is build_parser()
    code, out, _ = run_cli(["verify", "q0-d0", "--points", "4", "--param", "a=2"])
    assert code == 0 and json.loads(out)["params"]["a"] == [2.0, 0.0]
    code, out, _ = run_cli(["verify", "q0-d0", "--points", "4"])
    assert code == 0 and json.loads(out)["params"]["a"] == [1.0, 0.0]
    assert build_parser().parse_args(["verify", "q0-d0"]).param == []
