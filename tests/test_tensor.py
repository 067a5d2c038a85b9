import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fmcheck.catalog as cat
from fmcheck.connection import inverse_hessian, inverse_jets
from fmcheck.exprjet import eval_jet, eval_points, parse
from fmcheck.manifold import SamplePlan, sample_points, structure_at, table_jets
from fmcheck.pencil import delta_jets, pencil_at
from fmcheck.tensor import (SingularMatrixError, charpoly_coefficients, eigenvalues,
                            lie_from_components, merge_close)


def test_contract_unit_axiom():
    # contracting the canonical product with the unit gives the identity
    st_ = structure_at(cat.entry("lobachevsky").spec, np.array([2.0, 0.0]))
    assert np.allclose(np.einsum("ijk,j->ik", st_.c, st_.e), np.eye(2))


def test_contract_metric_inverse():
    # inverse jets: g^-1 g = 1, and its derivative solves d(g^-1 g) = 0
    ent = cat.entry("lobachevsky")
    st_ = structure_at(ent.spec, np.array([2.0, 0.0]))
    ginv, dginv = inverse_jets(st_.g, st_.dg)
    assert np.allclose(ginv @ st_.g, np.eye(2), atol=1e-12)
    d_prod = np.einsum("ipk,pj->ijk", dginv, st_.g) + np.einsum("ip,pjk->ijk", ginv, st_.dg)
    assert np.max(np.abs(d_prod)) < 1e-12


def test_contract_variance_mismatch():
    # the Lie derivative depends on the variance of each slot: the same
    # components read as a vector and as a covector differ by the two
    # contractions with dX
    spec = cat.entry("lauricella-eps-minus1-n3").spec
    st_ = structure_at(spec, np.array([-1.5, -0.4, 1.2]))
    up = lie_from_components(st_.e, st_.de, ("u",), st_.E, st_.dE)
    down = lie_from_components(st_.e, st_.de, ("d",), st_.E, st_.dE)
    assert np.allclose(down - up, st_.dE @ st_.e + st_.dE.T @ st_.e)
    assert np.max(np.abs(down - up)) > 1e-3


def test_delta_commutation_on_pencil():
    spec = cat.entry("af-pencil-n3").spec
    p = np.array([-2.0, -0.5, 3.0])
    delta, _ = delta_jets(pencil_at(spec, p))
    prod = np.tensordot(delta, delta, axes=(2, 0))  # [j,k,l,m] = Delta^jk_s Delta^sl_m
    # swapping the two inner upper slots leaves the double contraction fixed
    assert np.max(np.abs(prod - prod.transpose(0, 2, 1, 3))) < 1e-9


def test_invert_examples():
    b, db = inverse_jets(np.eye(3), np.zeros((3, 3, 3)))
    ddb = inverse_hessian(b, np.zeros((3, 3, 3)), np.zeros((3, 3, 3, 3)))
    assert np.allclose(b, np.eye(3)) and not db.any() and not ddb.any()
    b, _ = inverse_jets(np.diag([2.0, -3.0]), np.zeros((2, 2, 2)))
    assert np.allclose(b, np.diag([0.5, -1 / 3]))


def test_invert_singular_r_operator():
    # the diagonal-pencil recursion operator is rank one, hence singular
    from fmcheck.pencil import r_operator
    spec = cat.entry("af-pencil-n3").spec
    r, _ = r_operator(spec, np.array([1.0, 2.0, 4.0]))
    assert np.allclose(np.diag(r), 0.5)
    with pytest.raises(SingularMatrixError):
        inverse_jets(r, np.zeros((3, 3, 3)))


def test_eigenvalues_1d_and_charpoly():
    assert eigenvalues(np.array([[5.0]]))[0] == 5.0
    m = np.array([[2.0, 1.0], [0.0, 3.0]])
    coeffs = charpoly_coefficients(m)
    assert np.allclose(coeffs, [1, -5, 6])
    vals = eigenvalues(m)
    assert np.allclose(vals, [2, 3])
    # each root kills the characteristic polynomial
    for v in vals:
        assert abs(np.polyval(coeffs, v)) <= 1e-8 * max(1.0, np.max(np.abs(m)))


def test_eigenvalues_of_state_matrices():
    from fmcheck.rotation import rotation_data, v_matrix

    ent = cat.entry("q0-d-minus1")
    rd = rotation_data(ent.spec, np.array([0.0, 1.0, 3.0]), lame_exprs=ent.companion["lame"])
    _, eig, _ = v_matrix(rd)
    assert np.max(np.abs(eig - np.array([-1.0, 0.0, 1.0]))) < 1e-8

    ent = cat.entry("pencil-63")
    rd = rotation_data(ent.spec, np.array([0.0, 1.0, 3.0]), lame_exprs=ent.companion["lame"])
    _, eig, _ = v_matrix(rd)
    assert np.max(np.abs(merge_close(eig) - np.array([-0.5, -0.5, 1.0]))) < 1e-8


def test_merge_close_means_runs_of_near_equal_roots():
    # per row of a batch: a split double root becomes its mean, roots apart
    # by more than tol stay, and a row that is not finite stays NaN
    roots = np.array([[-0.5 - 1e-8, -0.5 + 1e-8, 1.0],
                      [-1.0, 0.0, 1.0],
                      [2.0 - 1e-7j, 2.0 + 1e-7j, 2.0 + 3e-7j],
                      [np.nan] * 3])
    got = merge_close(roots)
    assert got.shape == roots.shape
    assert np.array_equal(got[:3], [[-0.5, -0.5, 1.0], [-1.0, 0.0, 1.0], [2.0 + 1e-7j] * 3])
    assert np.isnan(got[3]).all()
    assert np.array_equal(merge_close(roots[1], tol=2.0), [0.0] * 3)


def _merged_by_loop(values, tol=1e-6):
    """The one-root-at-a-time reference: each value joins the first group
    whose running mean is within tol, and every group's mean is repeated
    by its size, sorted by (real, imag)."""
    groups = []
    for v in values:
        for k, (rep, cnt) in enumerate(groups):
            if abs(v - rep) <= tol:
                groups[k] = ((rep * cnt + v) / (cnt + 1), cnt + 1)
                break
        else:
            groups.append((complex(v), 1))
    return sorted((rep for rep, cnt in groups for _ in range(cnt)), key=lambda v: (v.real, v.imag))


def test_merge_close_matches_the_loop_reference():
    # the eigenvalues of V over 50 points of each entry with rotation data,
    # and random roots with split double and triple roots
    from fmcheck.rotation import rotations
    batches = []
    for name in ("pencil-63", "q0-d-minus1", "q0-d0", "q0-d1"):
        ent = cat.entry(name)
        pts = np.asarray(sample_points(ent.spec, SamplePlan(seed=7, count=50)))
        lame = table_jets(ent.companion["lame"], pts, ent.spec.env())
        batches.append(eigenvalues(rotations(pts, lame).V))
    rng = np.random.default_rng(9)
    centers = rng.standard_normal((200, 3)) + 1j * rng.standard_normal((200, 3))
    centers[:100, 1] = centers[:100, 0]
    centers[100:150, 1:] = centers[100:150, :1]
    split = centers + 1e-8 * (rng.standard_normal((200, 3)) + 1j * rng.standard_normal((200, 3)))
    batches.append(np.take_along_axis(split, np.lexsort((split.imag, split.real), axis=-1), -1))
    for eig in batches:
        got = merge_close(eig)
        want = np.array([_merged_by_loop(row) for row in eig])
        assert np.all(np.abs(got - want) <= 4 * np.finfo(float).eps * np.abs(want))


def test_symmetrize_idempotent():
    # the table evaluator's Hessians are symmetric to rounding
    for name in cat.names():
        spec = cat.entry(name).spec
        p = sample_points(spec, SamplePlan(seed=1, count=1))[0]
        tables = [spec.e] + [t for t in (spec.E, spec.g, spec.g2) if t is not None]
        if not isinstance(spec.product, str):
            tables.append(spec.product)
        for table in tables:
            _, _, hess = eval_points(table, [p], spec.env()).at(0)
            gap = np.max(np.abs(hess - np.swapaxes(hess, -1, -2)), initial=0.0)
            assert gap <= 1e-14 * (1 + np.max(np.abs(hess)))


def test_lie_killing_on_half_plane():
    spec = cat.entry("lobachevsky").spec
    st_ = structure_at(spec, np.array([3.0, 1.0]))
    lg = lie_from_components(st_.g, st_.dg, ("d", "d"), st_.e, st_.de)
    assert np.max(np.abs(lg)) < 1e-10


def test_lie_euler_scales_product_and_unit():
    spec = cat.entry("lauricella-eps-minus1-n3").spec
    st_ = structure_at(spec, np.array([0.0, 1.0, 2.0]))
    lc = lie_from_components(st_.c, st_.dc, ("u", "d", "d"), st_.E, st_.dE)
    assert np.max(np.abs(lc - st_.c)) < 1e-9
    le = lie_from_components(st_.e, st_.de, ("u",), st_.E, st_.dE)
    assert np.max(np.abs(le + st_.e)) < 1e-9


@given(st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False))
@settings(max_examples=50, deadline=None)
def test_contract_bilinear(alpha):
    # the Lie derivative is linear in the tensor and in the field
    rng = np.random.default_rng(3)
    t = rng.random((3, 3)) + 1j * rng.random((3, 3))
    dt = rng.random((3, 3, 3))
    x, dx = rng.random(3), rng.random((3, 3))
    base = lie_from_components(t, dt, ("u", "d"), x, dx)
    for lhs in (lie_from_components(alpha * t, alpha * dt, ("u", "d"), x, dx),
                lie_from_components(t, dt, ("u", "d"), alpha * x, alpha * dx)):
        assert np.max(np.abs(lhs - alpha * base)) <= 1e-12 * (1 + np.max(np.abs(alpha * base)))


def test_metric_inverse_over_catalog_points():
    for name in cat.names():
        ent = cat.entry(name)
        if ent.spec.g is None:
            continue
        pts = sample_points(ent.spec, SamplePlan(seed=11, count=20))
        for p in pts:
            st_ = structure_at(ent.spec, p)
            resid = st_.g @ np.linalg.inv(st_.g) - np.eye(ent.spec.n)
            assert np.max(np.abs(resid)) <= 1e-10


def test_lie_leibniz_over_scalar():
    # L_X(f T) = X(f) T + f L_X T for a random scalar expression
    spec = cat.entry("lobachevsky").spec
    f = parse("u1^2*u2+sqrt(u1-u2)")
    p = np.array([1.4, 0.3])
    st_ = structure_at(spec, p)
    jet = eval_jet(f, p)
    ft = jet.val * st_.g
    dft = jet.val * st_.dg + np.einsum("ij,k->ijk", st_.g, jet.grad)
    lhs = lie_from_components(ft, dft, ("d", "d"), st_.e, st_.de)
    xf = np.dot(st_.e, jet.grad)
    rhs = xf * st_.g + jet.val * lie_from_components(st_.g, st_.dg, ("d", "d"), st_.e, st_.de)
    assert np.max(np.abs(lhs - rhs)) <= 1e-8 * (1 + np.max(np.abs(rhs)))


def test_lie_derivative_evaluator_form():
    # on vector fields the Lie derivative is the bracket: antisymmetric,
    # and zero for a field along itself
    p = np.array([0.7, -0.4])
    x, dx, _ = eval_points(("u1*u2", "sqrt(2+u1)"), [p]).at(0)
    y, dy, _ = eval_points(("exp(u2)", "u1^3"), [p]).at(0)
    lxy = lie_from_components(y, dy, ("u",), x, dx)
    lyx = lie_from_components(x, dx, ("u",), y, dy)
    assert np.max(np.abs(lxy + lyx)) <= 1e-12 * (1 + np.max(np.abs(lxy)))
    assert np.max(np.abs(lie_from_components(x, dx, ("u",), x, dx))) == 0.0


def _contract_subscripts():
    """Every subscript string that `src/` passes to `contract` or
    `contract_jets`, directly or through a module-level name or a helper
    that forwards its first argument (`connection._cyclic`)."""
    import ast
    import pathlib
    found = set()
    for path in (pathlib.Path(__file__).resolve().parents[1] / "src" / "fmcheck").glob("*.py"):
        tree = ast.parse(path.read_text())
        names = {}
        for node in tree.body:
            if isinstance(node, ast.Assign) and isinstance(node.value, (ast.Constant, ast.Tuple)):
                targets = node.targets[0].elts if isinstance(node.targets[0], ast.Tuple) else \
                    node.targets
                values = node.value.elts if isinstance(node.value, ast.Tuple) else [node.value]
                names.update((t.id, v.value) for t, v in zip(targets, values)
                             if isinstance(t, ast.Name) and isinstance(v, ast.Constant))
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in ("contract", "contract_jets", "_cyclic") and node.args):
                continue
            arg = node.args[0]
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                found.add(arg.value)
            elif isinstance(arg, ast.Name) and arg.id in names:
                found.add(names[arg.id])
    return sorted(found)


def _random_operands(subscripts, n, batch, rng):
    terms = subscripts.split("->")[0].replace("...", "").split(",")
    return [rng.standard_normal(batch + (n,) * len(t)) + 1j * rng.standard_normal(batch + (n,) * len(t))
            for t in terms]


def test_contract_matches_einsum(monkeypatch):
    import sys
    import fmcheck.tensor as tensor
    from fmcheck.tensor import contract
    subscripts = _contract_subscripts()
    # the scan sees the walk's contractions, not just a few of them
    assert len(subscripts) > 60 and "...si,...js->...ji" in subscripts
    assert "...ip,...pqk,...qj->...ijk" in subscripts
    # and the ones built at run time (`lie_from_components`, the Leibniz
    # terms of `contract_jets`), recorded over a walk of every entry
    seen = set()

    def recording(sub, *ops):
        seen.add(sub)
        return contract(sub, *ops)
    for name, module in list(sys.modules.items()):
        if name.startswith("fmcheck") and getattr(module, "contract", None) is contract:
            monkeypatch.setattr(module, "contract", recording)
    for name in cat.names():
        cat.run_suite(cat.entry(name), seed=0, count=3)
    assert tensor.contract is recording and seen - set(subscripts)
    subscripts = sorted(set(subscripts) | seen)
    rng = np.random.default_rng(11)
    cases = [(s, n, batch) for s in subscripts for n in (2, 3, 4) for batch in ((), (1,), (7,))]
    # a pair without a summed index and a pair sharing a free index take
    # the einsum route; broadcast and strided operands
    cases += [(s, n, batch) for s in ("...ij,...kl->...ijkl", "...ijs,...iks->...ijk",
                                      "...ij,...ik,...kl->...ijl") for n in (2, 4)
              for batch in ((), (7,))]
    for sub, n, batch in cases:
        ops = _random_operands(sub, n, batch, rng)
        want = np.einsum(sub, *ops)
        got = contract(sub, *ops)
        assert got.shape == want.shape, (sub, n, batch)
        assert np.max(np.abs(got - want)) <= 1e-13 * max(np.max(np.abs(want)), 1e-300), \
            (sub, n, batch)
    for n in (2, 3, 4):
        c = rng.standard_normal((7, n, n, n)) + 0j
        xs = rng.standard_normal((7, 2, n)) + 1j * rng.standard_normal((7, 2, n))
        mats = rng.standard_normal((7, n, n)) + 0j
        for sub, ops in (("...ijs,...s->...ij", (c, xs[..., 1, :])),
                         ("...ijs,...s->...ij", (c, xs[0, 0])),
                         ("...ijs,...sk->...ijk", (c[:1], np.swapaxes(mats, -2, -1))),
                         ("...ijs,...as->...aij", (c, xs))):
            want = np.einsum(sub, *ops)
            assert np.max(np.abs(contract(sub, *ops) - want)) <= 1e-13 * np.max(np.abs(want))


def test_contract_jets_leibniz_rule():
    # the jets of a contraction of jets, against the contraction of the
    # factors' second-order Taylor polynomials at a small step
    from fmcheck.tensor import contract_jets
    rng = np.random.default_rng(5)
    n = 3

    def jet(rank):
        val, d, dd = (rng.standard_normal((n,) * (rank + k)) for k in range(3))
        return val, d, dd + np.swapaxes(dd, -2, -1)

    factors = (jet(2), jet(2), jet(1))
    sub = "...ij,...jk,...k->...i"
    val, d, dd = contract_jets(sub, *factors)

    def at(h):
        return np.einsum(sub, *(v + d_ @ h + 0.5 * (dd_ @ h) @ h for v, d_, dd_ in factors))
    h = 1e-4 * rng.standard_normal(n)
    first, second = (at(h) - at(-h)) / 2, at(h) + at(-h) - 2 * at(0 * h)
    assert np.allclose(val, at(0 * h), rtol=1e-14)
    assert np.max(np.abs(first - d @ h)) <= 1e-6 * np.max(np.abs(first))
    assert np.max(np.abs(second - (dd @ h) @ h)) <= 1e-6 * np.max(np.abs(second))
    assert len(contract_jets(sub, *factors[:2], factors[2][:2])) == 2
    # a longer jet leaves the lower orders' bits alone: the first-order
    # jets give the value and first derivatives of the second-order ones
    low = contract_jets(sub, *(f[:2] for f in factors))
    assert len(low) == 2 and all(np.array_equal(a, b) for a, b in zip(low, (val, d)))


def test_contract_jets_sums_each_order_from_its_first_term(monkeypatch):
    # each derivative order is its Leibniz terms added left to right from
    # the first, with no integer 0 ahead of them: the bits are those of the
    # terms' explicit sum, for two and three factors, and terms that are
    # all -0.0 (from a stand-in for `contract`) sum to -0.0 at every order
    from fmcheck import tensor
    from fmcheck.tensor import contract, contract_jets
    rng = np.random.default_rng(11)
    a, da, dda = (rng.standard_normal((4, 3) + (3,) * k) for k in (1, 2, 3))
    x, dx, ddx = (rng.standard_normal((4,) + (3,) * k) for k in (1, 2, 3))
    val, d, dd = contract_jets("...ij,...j->...i", (a, da, dda), (x, dx, ddx))
    assert np.array_equal(val, contract("...ij,...j->...i", a, x))
    assert np.array_equal(d, contract("...ijp,...j->...ip", da, x)
                          + contract("...ij,...jp->...ip", a, dx))
    assert np.array_equal(dd, contract("...ijpq,...j->...ipq", dda, x)
                          + contract("...ijp,...jq->...ipq", da, dx)
                          + contract("...ijq,...jp->...ipq", da, dx)
                          + contract("...ij,...jpq->...ipq", a, ddx))
    # three factors, to first and to second order
    b, db, ddb = (rng.standard_normal((4,) + (3,) * k) for k in (2, 3, 4))
    sub = "...ip,...pq,...qj->...ij"
    low = contract_jets(sub, (a, da), (b, db), (a, da, dda))
    assert len(low) == 2 and np.array_equal(low[0], contract(sub, a, b, a))
    assert np.array_equal(low[1], contract("...ipr,...pq,...qj->...ijr", da, b, a)
                          + contract("...ip,...pqr,...qj->...ijr", a, db, a)
                          + contract("...ip,...pq,...qjr->...ijr", a, b, da))
    want = None
    for *ops, s in ((dda, b, a, "...iprs,...pq,...qj->...ijrs"),
                    (da, db, a, "...ipr,...pqs,...qj->...ijrs"),
                    (da, b, da, "...ipr,...pq,...qjs->...ijrs"),
                    (da, db, a, "...ips,...pqr,...qj->...ijrs"),
                    (a, ddb, a, "...ip,...pqrs,...qj->...ijrs"),
                    (a, db, da, "...ip,...pqr,...qjs->...ijrs"),
                    (da, b, da, "...ips,...pq,...qjr->...ijrs"),
                    (a, db, da, "...ip,...pqs,...qjr->...ijrs"),
                    (a, b, dda, "...ip,...pq,...qjrs->...ijrs")):
        want = contract(s, *ops) if want is None else want + contract(s, *ops)
    assert np.array_equal(contract_jets(sub, (a, da, dda), (b, db, ddb), (a, da, dda))[2], want)
    monkeypatch.setattr(tensor, "contract", lambda subscripts, *ops: np.full(4, -0.0))
    parts = contract_jets("...ij,...j->...i", (a, da, dda), (x, dx, ddx))
    assert len(parts) == 3 and all(np.signbit(part).all() for part in parts)


def test_contract_of_point_free_operands_equals_broadcast_views():
    # an operand with a point axis of length 1, or with none, gives bit
    # for bit what its `np.broadcast_to` view over the P points gives, on
    # the einsum and on the matmul route, for P = 1, 7, 50 and n = 2, 3, 4
    import itertools
    from fmcheck import tensor
    from fmcheck.tensor import contract
    rng = np.random.default_rng(29)
    subscripts = _contract_subscripts()
    routes = set()
    for sub, n, count in itertools.product(subscripts, (2, 3, 4), (1, 7, 50)):
        terms = sub.split("->")[0].replace("...", "").split(",")
        full = [rng.standard_normal((count,) + (n,) * len(t)) for t in terms]
        for modes in itertools.islice(itertools.product(("P", "1", "none"), repeat=len(terms)),
                                      1, None):
            ops = [a if m == "P" else a[:1] if m == "1" else a[0] for a, m in zip(full, modes)]
            views = [np.broadcast_to(op, (count,) + op.shape[op.ndim - len(t):])
                     for op, t in zip(ops, terms)]
            got, want = contract(sub, *ops), contract(sub, *views)
            assert np.array_equal(np.broadcast_to(got, want.shape), want), (sub, n, count, modes)
        ranks, plans = tensor._PLANS[sub]
        routes.update(bool(matmul) for steps, _ in plans.values() for *_, matmul in steps)
    assert routes == {False, True}
