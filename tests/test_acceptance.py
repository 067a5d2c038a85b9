"""End-to-end acceptance criteria.

Each test enforces one headline criterion at its stated tolerance and
always emits a single PASS/FAIL line on the real stdout (bypassing capture)
so a plain pytest run shows the scoreboard.

Criterion 4 note: the exact-pencil closed form has first integrals
(I1, I2) = (-3/4, 1/4).  The pair must satisfy I1 = I2 - 1 on the
non-symmetric branch (the constraint-matrix determinant factors through
I1 - I2 + 1), and the eigenvalue set {1, -1/2, -1/2} forces the same
values, so the suite pins I1 = -3/4.
"""

import io
import time
from contextlib import redirect_stderr, redirect_stdout

import numpy as np

import fmcheck.catalog as cat
import fmcheck.exprjet as ej
from fmcheck.connection import (check_compat_product, check_flatness,
                                check_nabla_e, check_nabla_from_g,
                                check_torsionless, connection_from_exprs, counit_jets,
                                dual_structure, levi_civita, metric_inverse, nabla_from_g_at,
                                natural_connection)
from fmcheck.entries import lauricella_normal_fields
from fmcheck.hamops import (check_gmc, check_quadratic_expansion,
                            check_sym_condition, emit_operator, field_rank,
                            fields_from_exprs, spanning_fields)
from fmcheck.legendre import transformed_structure
from fmcheck.manifold import (DEFAULT_TOL, SamplePlan, batch_report, check_hertling_manin,
                              check_homogeneity, check_killing_unit, check_metric_invariance,
                              check_product_axioms, fit_scalar, sample_points,
                              structure_at)
from fmcheck.ode3d import (OdeState3, closed_form_pencil, closed_form_q0, integrals,
                           integrate, rhs)
from fmcheck.pencil import (check_exactness, check_flat_pencil,
                            check_pencil_homogeneity, delta_tensor,
                            product_from_pencil, r_operator,
                            reconstructed_structure)
from fmcheck.rotation import rotation_data, v_matrix
from fmcheck.tensor import merge_close

from finite_diff import finite_diff_oracle


def announce(num, name, ok, started):
    from conftest import SCOREBOARD
    line = f"[acceptance {num:>2}] {name:<38} {'PASS' if ok else 'FAIL'} ({time.time()-started:.2f}s)"
    SCOREBOARD.append(line)
    print(line)
    assert ok, f"criterion {num} ({name}) failed"


def test_criterion_01_halfplane_golden_suite():
    t0 = time.time()
    ent = cat.entry("lobachevsky")
    spec = ent.spec
    pts = sample_points(spec, SamplePlan(seed=0, count=10))
    ok = True
    for p in pts:
        st = structure_at(spec, p)
        r = levi_civita(st, metric_inverse(st)).curvature
        r_up = np.einsum("s,s->", np.linalg.inv(st.g)[0], r[1, :, 0, 1])
        ok &= abs(r_up - 1.0) <= 1e-8
    ok &= check_flatness(spec, pts, 1e-8).passed
    ok &= cat.verify_flat_coordinates(ent, pts, tol=1e-8).passed
    ok &= cat.verify_vector_potential(ent, pts, tol=1e-10).passed
    nb = fields_from_exprs([("1", "1")], eps=(-1,))
    ok &= check_quadratic_expansion(spec, nb, pts, tol=1e-9).passed
    # emitted operator against the displayed matrix blocks
    p = pts[0]
    w = complex(p[0] - p[1])
    op = emit_operator(spec, nb, p)
    lead = np.array(op["metric_term"])[..., 0] + 1j * np.array(op["metric_term"])[..., 1]
    ok &= np.max(np.abs(lead - np.diag([w * w / 2, w * w / 2]))) <= 1e-10
    conv = np.array(op["christoffel_term"])[..., 0] + 1j * np.array(op["christoffel_term"])[..., 1]
    want = np.empty((2, 2, 2), dtype=complex)
    want[0, 0] = [w / 2, -w / 2]
    want[0, 1] = [w / 2, w / 2]
    want[1, 0] = [-w / 2, -w / 2]
    want[1, 1] = [w / 2, -w / 2]
    ok &= np.max(np.abs(conv - want)) <= 1e-10
    tail = op["tails"][0]
    ok &= tail["epsilon"] == -1
    ok &= np.max(np.abs(np.array(tail["W_matrix"])[..., 0] - np.eye(2))) <= 1e-10
    announce(1, "half-plane golden suite", ok, t0)


def test_criterion_02_flat_connection_property_suite():
    t0 = time.time()
    # the natural connection's rows hold on every Riemannian F-manifold:
    # every entry with a metric
    metric = [n for n in cat.names() if cat.entry(n).spec.g is not None]
    ok = len(metric) >= 10
    for name in metric:
        spec = cat.entry(name).spec
        points = sample_points(spec, SamplePlan(seed=1, count=50))
        ok &= check_product_axioms(spec, points, 1e-8).passed
        ok &= check_hertling_manin(spec, points, 1e-8).passed
        ok &= check_metric_invariance(spec, points, 1e-8).passed
        ok &= check_killing_unit(spec, points, 1e-8).passed
        if spec.E is not None:
            ok &= check_homogeneity(spec, points, 1e-8).passed
        ok &= check_torsionless(spec, points).residual <= 1e-8
        ok &= check_nabla_e(spec, points, 1e-8).passed
        ok &= check_compat_product(spec, points, 1e-8).passed
        ok &= check_flatness(spec, points, 1e-8).passed
        ok &= check_nabla_from_g(spec, points, 1e-8).passed
    announce(2, f"flat-connection suite ({len(metric)} entries)", ok, t0)


def test_criterion_03_rational_family():
    t0 = time.time()
    ok = True
    rng = np.random.default_rng(3)
    for _ in range(10):
        z = complex(rng.uniform(1.5, 3.5), rng.uniform(-0.5, 0.5))
        s = closed_form_q0(z, 1.0, 1.0)
        h = 1e-6
        fd = (np.asarray(closed_form_q0(z + h, 1, 1).F)
              - np.asarray(closed_form_q0(z - h, 1, 1).F)) / (2 * h)
        ok &= np.max(np.abs(rhs(s.z, s.F) - fd)) <= 1e-8
        vals = integrals(s)
        ok &= abs(vals["I1"] + 1.0) <= 1e-10 and abs(vals["I2"]) <= 1e-10
        ok &= max(abs(vals["I3"]), abs(vals["I4"]), abs(vals["I5"])) <= 1e-10
    ent = cat.entry("q0-d-minus1")
    pts = sample_points(ent.spec, SamplePlan(seed=2, count=8))
    for p in pts[:5]:
        rd = rotation_data(ent.spec, p, lame_exprs=ent.companion["lame"])
        _, eig, _ = v_matrix(rd)
        ok &= np.max(np.abs(eig - np.array([-1.0, 0.0, 1.0]))) <= 1e-8
    # the Lame system against the rotation coefficients of the closed form
    # at a = b = 1, each entry's ODE family, at its weight d
    for name, d in (("q0-d-minus1", -1.0), ("q0-d0", 0.0), ("q0-d1", 1.0)):
        e = cat.entry(name)
        ok &= e.companion["ode_family"] == "q0" and e.spec.params == {"a": 1.0, "b": 1.0}
        ok &= e.spec.expected["d"] == d
        ok &= cat.run_checks(e.spec, e.companion, ["lame-system"], pts, 1e-8)[0].passed
    announce(3, "rational family (weights -1,0,1)", ok, t0)


def test_criterion_04_exact_pencil_family():
    t0 = time.time()
    ok = True
    rng = np.random.default_rng(4)
    for _ in range(10):
        z = complex(rng.uniform(1.5, 3.5), rng.uniform(-0.4, 0.4))
        vals = integrals(closed_form_pencil(z))
        ok &= abs(vals["I1"] + 0.75) <= 1e-10 and abs(vals["I2"] - 0.25) <= 1e-10
        ok &= max(abs(vals[f"I{k}"]) for k in range(3, 9)) <= 1e-10
    ent = cat.entry("pencil-63")
    pts = sample_points(ent.spec, SamplePlan(seed=3, count=8))
    want = np.array([-0.5, -0.5, 1.0])
    for p in pts[:5]:
        rd = rotation_data(ent.spec, p, lame_exprs=ent.companion["lame"])
        _, eig, _ = v_matrix(rd)
        ok &= np.max(np.abs(merge_close(eig) - want)) <= 1e-8
    ok &= ent.companion["ode_family"] == "pencil63" and ent.spec.expected["d"] == 1.0
    ok &= cat.run_checks(ent.spec, ent.companion, ["lame-system"], pts, 1e-8)[0].passed
    for n in (3, 4):
        spec = cat.entry(f"af-pencil-n{n}").spec
        pp = sample_points(spec, SamplePlan(seed=4, count=20))
        rep = check_flat_pencil(spec, pp, tol=1e-8)
        ok &= rep.passed and list(rep.details) == ["mixed-torsion", "curvature-2",
                                                   "curvature-1", "mixed-curvature"]
        ok &= check_exactness(spec, pp, tol=1e-8).passed
        ok &= check_pencil_homogeneity(spec, pp, tol=1e-8).passed
    announce(4, "exact pencil family + diagonal pair", ok, t0)


def test_criterion_05_product_reconstruction():
    t0 = time.time()
    spec = cat.entry("af-pencil-n3").spec
    pts = sample_points(spec, SamplePlan(seed=5, count=10))
    ok = True
    canonical = np.zeros((3, 3, 3))
    for i in range(3):
        canonical[i, i, i] = 1.0
    for p in pts:
        _, rep_d = delta_tensor(spec, p, tol=1e-8)
        ok &= rep_d.passed
        r, rep_r = r_operator(spec, p, tol=1e-9)
        ok &= rep_r.passed
        ok &= np.max(np.abs(np.diag(r) - 0.5)) <= 1e-10
        c, _, rep_c = product_from_pencil(spec, p, tol=1e-9)
        ok &= rep_c.passed and np.max(np.abs(c - canonical)) <= 1e-9
        # manifold-level homogeneous structure axioms on the reconstruction
        st = reconstructed_structure(spec, p)
        ok &= np.max(np.abs(st.c - np.swapaxes(st.c, 1, 2))) <= 1e-8
        lg = np.einsum("k,ijk->ij", st.E, st.dg) + st.g @ st.dE + (st.g @ st.dE).T
        D = fit_scalar(lg, st.g, 2)
        ok &= np.max(np.abs(lg - D * st.g)) <= 1e-8 * (1 + np.max(np.abs(st.g)))
    # the natural connection of the rebuilt structure: the walk's rows on
    # it, and the defining property it has by construction, which no walk
    # reports, on the same rebuilt structure
    rows = ["reconstructed/" + row for row in ("flatness", "nabla-e", "product-compat")]
    reports = cat.run_checks(spec, {}, rows, pts, 1e-8)
    ok &= [r.name for r in reports] == rows and all(r.passed for r in reports)
    ok &= cat._Walk(spec, {}, pts).recon.report("nabla-from-g", 1e-8).passed
    announce(5, "pencil-to-product reconstruction", ok, t0)


def test_criterion_06_conservation_and_constraints():
    t0 = time.time()
    ok = True
    rng = np.random.default_rng(6)
    for _ in range(20):
        z0 = rng.uniform(1.8, 2.4)
        F = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        traj = integrate(OdeState3(z0, F), z0 + 3.0)
        ok &= traj.drift_I1 <= 1e-7 and traj.drift_I2 <= 1e-7
    # constraint variety with non-symmetric entries
    for k in range(6):
        a, b = 1.0, float(rng.uniform(0.5, 2.0))
        state = closed_form_q0(rng.uniform(1.8, 2.4), a, b)
        ok &= abs(state.F[0] - state.F[1]) > 1e-3
        traj = integrate(state, state.z + 3.0)
        ok &= traj.max_constraint_drift <= 1e-6
    state = closed_form_pencil(2.2)
    traj = integrate(state, 5.2)
    ok &= traj.max_constraint_drift <= 1e-6
    for _ in range(50):
        z = complex(rng.uniform(1.5, 4.0), rng.uniform(-1, 1))
        F = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        vals = integrals(OdeState3(z, F))
        ok &= abs(vals["detW"] - vals["detW_factored"]) <= 1e-9 * (1 + abs(vals["detW"]))
    announce(6, "conservation + constraint drift", ok, t0)


def test_criterion_07_transform_suite():
    t0 = time.time()
    ent = cat.entry("q0-d-minus1")
    spec = ent.spec
    fields = ent.companion["legendre_fields"]
    pts = sample_points(spec, SamplePlan(seed=7, count=8))
    ok = True
    for name in ("e", "X2", "X3"):
        for p in pts[:4]:
            st = structure_at(spec, p)
            conn = natural_connection(st)
            x, dx, _ = ej.eval_points(fields[name], [st.point], spec.env()).at(0)
            nab = dx + np.einsum("lks,s->lk", conn.gamma, x)
            ok &= np.max(np.abs(nab)) <= 1e-8 * (1 + np.max(np.abs(x)))
    m = np.array([ej.eval_points(fields[k], [pts[0]], spec.env()).at(0)[0]
                  for k in ("e", "X2", "X3")])
    sv = np.linalg.svd(m, compute_uv=False)
    ok &= int(np.sum(sv > 1e-8 * sv.max())) == 3
    for fname, target in (("X2", "q0-d0"), ("X3", "q0-d1")):
        tgt = cat.entry(target).spec
        for p in pts:
            stb = transformed_structure(spec, fields[fname], p)
            stt = structure_at(tgt, p)
            s = fit_scalar(stb.g, stt.g, 2)
            ok &= np.max(np.abs(stb.g - s * stt.g)) / (1 + np.max(np.abs(stt.g))) <= 1e-7
    lame = ent.companion["lame"]
    for fname in ("X2", "X3"):
        bar = tuple(ej.to_source(ej.parse(h) * ej.parse(x))
                    for h, x in zip(lame, fields[fname]))
        for p in pts[:4]:
            rd0 = rotation_data(spec, p, lame_exprs=lame)
            rd1 = rotation_data(spec, p, lame_exprs=bar)
            ok &= np.max(np.abs(rd0.beta - rd1.beta)) <= 1e-8
    for fname in ("e", "X2", "X3"):
        ok &= cat.run_checks(spec, {"legendre_field": fields[fname]}, ["homogeneous-legendre"],
                             pts, 1e-8)[0].passed
    announce(7, "transform suite (three flat fields)", ok, t0)


def test_criterion_08_lauricella_bundle():
    t0 = time.time()
    ent = cat.entry("lauricella-eps-minus1-n3")
    spec = ent.spec
    pts = sample_points(spec, SamplePlan(seed=8, count=10))
    env = spec.env()
    nb = lauricella_normal_fields(3)
    ok = check_quadratic_expansion(spec, nb, pts, tol=1e-8).passed
    ok &= check_sym_condition(spec, nb, pts, tol=1e-8).passed
    ok &= check_gmc(spec, nb, pts, tol=1e-8).passed
    for p in pts:
        st = structure_at(spec, p)
        conn = natural_connection(st)
        xs, dxs, _ = spanning_fields(nb, [st.point], spec.n, env).at(0)
        for a in range(3):
            nab = dxs[a] + np.einsum("lks,s->lk", conn.gamma, xs[a])
            ok &= np.max(np.abs(nab)) <= 1e-8
        ok &= field_rank(nb, p, env) == 2
        dual = dual_structure(st, conn)
        ok &= batch_report("dual-structure", dual.residuals, 1e-8).passed
        printed = connection_from_exprs(ent.companion["gamma_star"], p, env)
        ok &= np.max(np.abs(dual.gamma_star.gamma - printed.gamma)) <= \
            1e-8 * (1 + np.max(np.abs(printed.gamma)))
    announce(8, "lauricella normal bundle + dual", ok, t0)


def test_criterion_09_appendix_cases():
    t0 = time.time()
    ok = True
    for name in ("case-i", "case-ii", "case-iii", "case-iv", "case-v"):
        ent = cat.entry(name)
        pts = sample_points(ent.spec, SamplePlan(seed=9, count=20))
        ok &= cat.verify_vector_potential(ent, pts, tol=1e-8).passed
        ok &= cat.verify_flat_coordinates(ent, pts, tol=1e-8).passed
    announce(9, "two-dimensional flat charts i-v", ok, t0)


def test_criterion_10_infrastructure():
    t0 = time.time()
    ok = True
    # jets against the finite-difference oracle over every catalog expression
    for name in cat.names():
        ent = cat.entry(name)
        spec = ent.spec
        exprs = [src for table in (spec.g or ()) for src in table if src != "0"]
        exprs += [src for table in (spec.g2 or ()) for src in table if src != "0"]
        exprs += [s for s in spec.e] + list(spec.E or ())
        exprs += list(ent.companion.get("lame", ()))
        pts = sample_points(spec, SamplePlan(seed=10, count=100))
        env = spec.env()
        for src in exprs:
            ast = ej.parse(src)
            for p in pts:
                jet = ej.eval_jet(ast, p, env)
                gfd, _ = finite_diff_oracle(ast, p, env, step=1e-5)
                # second differences lose eps/h^2, so the Hessian stencil
                # needs the wider step to reach its 1e-4 bound
                _, hfd = finite_diff_oracle(ast, p, env, step=1e-4)
                ok &= bool(np.all(np.abs(jet.grad - gfd) <= 1e-6 * (1 + np.abs(jet.grad))))
                ok &= bool(np.all(np.abs(jet.hess - hfd) <= 1e-4 * (1 + np.abs(jet.hess))))
            if not ok:
                raise AssertionError(f"jet/oracle mismatch for {name}: {src}")
    # negative controls all fail their targeted checks
    from fmcheck.manifold import ManifoldSpec
    spec = cat.entry("lobachevsky").spec
    pts = sample_points(spec, SamplePlan(seed=11, count=5))
    bad_metric = ManifoldSpec(name="bad", n=2, coords=spec.coords, product="canonical",
                              e=spec.e, g=(("2/(x-y)^2+u1", "0"), ("0", "2/(x-y)^2")),
                              region=spec.region)
    ok &= not check_killing_unit(bad_metric, pts).passed
    nb_flip = fields_from_exprs([("1", "1")], eps=(+1,))
    ok &= not check_gmc(spec, nb_flip, pts).passed
    nb_rand = fields_from_exprs([("u1*u2", "u1")], eps=(-1,))
    ok &= not check_sym_condition(spec, nb_rand, pts).passed
    st = structure_at(spec, pts[0])
    nat = natural_connection(st)
    rng = np.random.default_rng(12)
    pert = rng.standard_normal((2, 2, 2)) * 1e-3
    bumped = type(nat)(nat.n, nat.point, nat.gamma + (pert + pert.transpose(0, 2, 1)) / 2,
                       nat.dgamma)
    ok &= batch_report("nabla-from-g", nabla_from_g_at(bumped, st, counit_jets(st)),
                       DEFAULT_TOL).residual >= 1e-4
    # byte-determinism of reports under a fixed seed
    from fmcheck.cli import main as cli_main

    def run(argv):
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = cli_main(argv)
        return code, out.getvalue()

    c1, o1 = run(["verify", "pencil-63", "--points", "6", "--seed", "5"])
    c2, o2 = run(["verify", "pencil-63", "--points", "6", "--seed", "5"])
    ok &= c1 == 0 and c2 == 0 and o1.encode() == o2.encode()
    announce(10, "infrastructure properties", ok, t0)
