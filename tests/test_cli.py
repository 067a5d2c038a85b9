import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest

from fmcheck.cli import main


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


def test_verify_unknown_check():
    code, _, err = run_cli(["verify", "lobachevsky", "--check", "nope"])
    assert code == 2


def test_verify_malformed_spec(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(["verify", str(bad)])
    assert code == 2


def test_verify_spec_file_roundtrip(tmp_path):
    import fmcheck.catalog as cat
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
    for i, comp in enumerate(("F12", "F21", "F13", "F31", "F23", "F32")):
        got = complex(last[f"{comp}_re"], last[f"{comp}_im"])
        assert abs(got - want.F[i]) < 1e-7


def test_ode_singular_crossing_exit2():
    code, _, err = run_cli(["ode", "--init", "q0", "--from", "0.5", "--to", "1.5"])
    assert code == 2


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


def test_verify_param_override():
    code, out, _ = run_cli(["verify", "q0-d0", "--points", "5", "--param", "a=2",
                            "--param", "b=0.5"])
    assert code == 0
    doc = json.loads(out)
    assert doc["params"]["a"] == [2.0, 0.0]


def test_golden_report_fixtures(tmp_path):
    # structural comparison against versioned golden reports: identical
    # check names, verdicts and tolerances; residuals equal to within an
    # environment-noise margin
    import pathlib
    import fmcheck.catalog as cat
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
                        ["verify", "q0-d0", "--check", "natural-flat", "--points", "6",
                         "--seed", "0"])):
        golden = json.loads((golden_dir / name).read_text())
        code, out, _ = run_cli(args)
        assert code == 0
        doc = json.loads(out)
        assert doc["ok"] == golden["ok"]
        assert [r["name"] for r in doc["reports"]] == [r["name"] for r in golden["reports"]]
        for got, want in zip(doc["reports"], golden["reports"]):
            assert got["passed"] == want["passed"] and got["tol"] == want["tol"]
            assert abs(got["residual"] - want["residual"]) <= 1e-12 + 1e-6 * abs(want["residual"])


def test_verify_spec_file_with_second_metric(tmp_path):
    import fmcheck.catalog as cat
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
    import fmcheck.catalog as cat
    doc = json.loads(cat.entry("lobachevsky").spec.to_json())
    paths = {}
    from fmcheck.manifold import SamplePlan, sample_points
    samples = sample_points(cat.entry("lobachevsky").spec, SamplePlan(seed=0, count=4))
    for name, g in (("unbound", [["k*2/(x-y)^2", "0"], ["0", "k*2/(x-y)^2"]]),
                    ("divzero", [["1/(x-x)", "0"], ["0", "2/(x-y)^2"]]),
                    ("zero", [["0", "0"], ["0", "0"]]),
                    # singular at sample 3 only
                    ("third", [[f"2/(x-y)^2+1/(x-{float(samples[3][0])!r})", "0"],
                               ["0", "2/(x-y)^2"]]),
                    # evaluable everywhere, but a singular metric at sample 3
                    ("singular-third", [[f"x-{float(samples[3][0])!r}", "0"],
                                        ["0", "2/(x-y)^2"]]),
                    ("unparseable", [["1+", "0"], ["0", "2/(x-y)^2"]])):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps({**doc, "g": g}))

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
                       (["verify", str(paths["unparseable"])], "cannot parse '1+'"),
                       (["legendre", "q0-d-minus1", "--field", "1+,1,1"], "cannot parse '1+'"),
                       (["legendre", "case-i", "--field", "1,0"], "metric"),
                       (["legendre", "lobachevsky", "--field", "1,1", "--target", "case-i"],
                        "metric"),
                       (["legendre", str(paths["unbound"]), "--field", "1,1"], "unbound")):
        code, out, err = run_cli(argv)
        assert code == 2 and out == ""
        assert len(err.strip().splitlines()) == 1 and want in err, (argv, err)


def test_verify_has_no_atol_option():
    with pytest.raises(SystemExit) as exc:
        run_cli(["verify", "lobachevsky", "--atol", "1e-3"])
    assert exc.value.code == 2
