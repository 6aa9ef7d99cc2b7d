import math

import numpy as np
import pytest

from theta2 import numerics
from theta2.chars import EVEN_CHARS, ODD_CHARS, Characteristic
from theta2.errors import EvaluationError
from theta2.numerics import (
    EvalConfig,
    PointValues,
    SiegelPoint,
    dtable_ratios,
    eval_stacked,
    point_values,
    relation_residual,
    sample_siegel,
    stack_values,
    stacked_residuals,
    theta,
    second_kind_checks,
)
from theta2.symbolic import GradedPoly, ModuleElement
from theta2.thetaring import all_relations, d_table, extr_h, rel_d, riemann_ideal

CFG = EvalConfig(radius=10, target_eps=1e-12)
I_POINT = SiegelPoint(1j, 0.0, 1j)


def test_theta_zero_char_against_one_dimensional_product():
    # theta[0](iI) splits as the square of a one-variable sum
    one_d = sum(math.exp(-math.pi * n * n) for n in range(-30, 31))
    val = theta(EVEN_CHARS[0], I_POINT, CFG)
    assert abs(val - one_d**2) < 1e-13
    assert abs(val - 1.1803405990160964) < 1e-12


def test_odd_theta_is_exact_zero():
    for n in ODD_CHARS:
        assert theta(n, I_POINT, CFG) == 0


def test_radius_self_consistency(points):
    hi = EvalConfig(radius=CFG.radius + 4, target_eps=CFG.target_eps)
    for Z in points[:3]:
        for m in EVEN_CHARS[:4]:
            assert abs(theta(m, Z, CFG) - theta(m, Z, hi)) < CFG.target_eps


def test_gradient_matches_finite_differences(points):
    h = 1e-5
    Z = points[0]
    grads = point_values(Z, CFG).grads
    for n, grad in zip(ODD_CHARS, grads):
        for c in range(2):
            zp = [0.0, 0.0]
            zm = [0.0, 0.0]
            zp[c] = h
            zm[c] = -h
            fd = (theta(n, Z, CFG, z=zp) - theta(n, Z, CFG, z=zm)) / (2 * h)
            assert abs(fd - grad[c]) < 1e-6


def test_second_kind_is_first_kind_at_doubled_point():
    assert numerics.SECOND_KIND_ORDER == ((0, 0), (0, 1), (1, 0), (1, 1))


def test_chi5_is_product_of_even_values(points):
    Z = points[0]
    vals = [theta(m, Z, CFG) for m in EVEN_CHARS]
    c5 = np.prod(point_values(Z, CFG).thetas)
    assert abs(c5 - np.prod(vals)) < 1e-12
    assert abs(c5) > 0


def test_chi5_small_near_diagonal_locus():
    # the weight-5 form vanishes on the split locus z1 = 0
    generic = SiegelPoint(0.3 + 1.2j, 0.25 + 0.4j, -0.1 + 1.5j)
    near_diag = SiegelPoint(0.3 + 1.2j, 1e-3 * 1j, -0.1 + 1.5j)
    c5 = [np.prod(point_values(Z, CFG).thetas) for Z in (generic, near_diag)]
    assert abs(c5[1]) < 1e-2 * abs(c5[0])


def test_sample_siegel_deterministic_and_positive_definite():
    a = sample_siegel(5, 6)
    b = sample_siegel(5, 6)
    assert [(p.z0, p.z1, p.z2) for p in a] == [(p.z0, p.z1, p.z2) for p in b]
    assert all(p.lambda_min() >= 1.0 - 1e-12 for p in a)
    c = sample_siegel(6, 1)
    assert (c[0].z0, c[0].z1, c[0].z2) != (a[0].z0, a[0].z1, a[0].z2)


def test_tail_bound_controls_radius():
    assert numerics.tail_bound(1.0, 10) < 1e-12
    with pytest.raises(EvaluationError):
        theta(EVEN_CHARS[0], I_POINT, EvalConfig(radius=2, target_eps=1e-14))


def test_riemann_quartics_vanish(points):
    tables = [point_values(Z, CFG) for Z in points[:4]]
    for q in riemann_ideal():
        for table in tables:
            assert relation_residual(q, table) < 1e-9


def test_rel_d_relations_vanish(points):
    tables = [point_values(Z, CFG) for Z in points[:4]]
    rels = rel_d()
    for r in rels[:5]:
        for table in tables:
            assert relation_residual(r.element, table) < 1e-9


def test_eval_element_denominator_identity(points):
    # (element/m) * value(m) equals the numerator evaluation exactly
    e = extr_h()
    numerator = ModuleElement(e.components, e.shifts)
    table = point_values(points[0], CFG)
    stack = stack_values([table])
    tagged, _ = eval_stacked(e, stack)
    plain, _ = eval_stacked(numerator, stack)
    dval = table.thetas[1] * table.thetas[4]
    assert np.allclose(tagged * dval, plain, rtol=1e-10)


def test_eval_element_rejects_binding_mismatch(points):
    p = GradedPoly.variable(4, 0)
    with pytest.raises(ValueError):
        eval_stacked(p, stack_values([point_values(points[0], CFG)]))


# -- per-point value tables ----------------------------------------------------


def test_point_values_match_per_characteristic_series(points):
    for Z in points[:2]:
        table = point_values(Z, CFG)
        assert table.point == Z
        assert list(table.thetas) == [theta(m, Z, CFG) for m in EVEN_CHARS]


def test_point_values_are_read_only(points):
    table = point_values(points[0], CFG)
    with pytest.raises(ValueError):
        table.thetas[0] = 0
    with pytest.raises(ValueError):
        table.grads[0, 0] = 0


def test_table_residuals_equal_per_element_evaluation(points):
    # the old path evaluated theta_values and grad_values afresh for every
    # element; the shared table must give the same floats, not close ones
    elements = riemann_ideal() + [r.element for r in all_relations()]
    assert len(elements) == 142
    for Z in points[:2]:
        table = point_values(Z, CFG)
        for e in elements:
            fresh = PointValues(Z, numerics.theta_values(Z, CFG), numerics.grad_values(Z, CFG))
            expected = relation_residual(e, fresh)
            assert relation_residual(e, table) == expected


def _loop_mono_value(values, exps):
    v = 1.0 + 0.0j
    for base, e in zip(values, exps):
        if e:
            v *= base**e
    return v


def _loop_residual(e, table):
    """The one-point evaluation the stacked evaluator replaced, term by
    term with scalar arithmetic: the reference for `stacked_residuals`."""
    values = table.thetas
    if isinstance(e, GradedPoly):
        total, scale = 0.0 + 0.0j, 0.0
        for exps, c in e.terms.items():
            term = complex(c) * _loop_mono_value(values, exps)
            total += term
            scale += abs(term)
        return abs(total) / scale if scale else 0.0
    total, scale = np.zeros(2, dtype=complex), 0.0
    for i, p in enumerate(e.components):
        gnorm = float(np.linalg.norm(table.grads[i]))
        for exps, c in p.terms.items():
            coeff = complex(c) * _loop_mono_value(values, exps)
            total = total + coeff * table.grads[i]
            scale += abs(coeff) * gnorm
    if e.denominator is not None:
        dval = _loop_mono_value(values, e.denominator)
        total, scale = total / dval, scale / abs(dval)
    return float(np.linalg.norm(total)) / scale if scale else 0.0


def test_stacked_residuals_equal_per_point_loop(points):
    # one pass over the terms for all points against the per-point loop;
    # powers and norms may round differently, within a bound fixed from the dtype
    tol = 16 * np.finfo(float).eps
    elements = riemann_ideal() + [r.element for r in all_relations()]
    assert len(elements) == 142
    tables = [point_values(Z, CFG) for Z in points]
    stack = stack_values(tables)
    for e in elements:
        got = stacked_residuals(e, stack)
        assert got.shape == (len(points),)
        for value, table in zip(got, tables):
            assert abs(value - _loop_residual(e, table)) <= tol


def test_tail_bound_checked_once_per_table(monkeypatch):
    calls = []
    original = numerics.tail_bound

    def counting(lambda_min, radius):
        calls.append(radius)
        return original(lambda_min, radius)

    monkeypatch.setattr(numerics, "tail_bound", counting)
    point_values(I_POINT, CFG)
    assert calls == [CFG.radius]
    # the public single-series function still checks on every call
    calls.clear()
    theta(EVEN_CHARS[0], I_POINT, CFG)
    assert calls == [CFG.radius]


def test_point_values_checks_before_any_sum(monkeypatch):
    sums = []
    original = numerics._series_terms
    monkeypatch.setattr(numerics, "_series_terms",
                        lambda *a, **k: sums.append(1) or original(*a, **k))
    with pytest.raises(EvaluationError):
        point_values(I_POINT, EvalConfig(radius=2, target_eps=1e-14))
    assert sums == []


def test_dtable_certification(points):
    ratios = dtable_ratios([point_values(Z, CFG) for Z in points])
    for entry in d_table():
        vals = np.array(ratios[entry.pair])
        assert np.abs(vals - entry.sign).max() < 1e-8
        # constant across points, magnitude one
        assert np.abs(np.abs(vals) - 1).max() < 1e-8


def test_dtable_orientation_note(points):
    # with the (i, j) column order the global sign flips; document by checking
    from theta2.numerics import grad_values, theta_values

    Z = points[0]
    thetas = theta_values(Z, CFG)
    grads = grad_values(Z, CFG)
    entry = d_table()[0]          # pair (1, 2), printed sign +1
    quad = np.prod([thetas[k - 1] for k in entry.quadruple])
    gi, gj = grads[0], grads[1]
    det_ij = gi[0] * gj[1] - gi[1] * gj[0]
    ratio = det_ij / (np.pi**2 * quad)
    assert abs(ratio + entry.sign) < 1e-8


def test_resampling_invariance():
    tables = [point_values(Z, CFG) for Z in sample_siegel(12345, 3)]
    for q in riemann_ideal()[:3]:
        for table in tables:
            assert relation_residual(q, table) < 1e-9


def test_second_kind_checks(points):
    rep = second_kind_checks([point_values(Z, CFG) for Z in points[:5]], CFG)
    assert rep["bracket_max_residual"] < 1e-7
    assert rep["triple_max_residual"] < 1e-7
    # the measured constant is pi^3/32 times the imaginary unit; exact
    # derivatives hold it to rounding level (differences read 1e-12)
    c = rep["jacobian_constant"]
    assert abs(c - 1j * np.pi**3 / 32) < 1e-14
    assert rep["jacobian_rel_spread"] < 1e-13


def _fd_gradient(func, w, h):
    """Central finite differences of func in the three matrix entries w."""
    out = []
    for c in range(3):
        dz = [0.0, 0.0, 0.0]
        dz[c] = h
        fp = func(tuple(x + d for x, d in zip(w, dz)))
        fm = func(tuple(x + -d for x, d in zip(w, dz)))
        out.append((fp - fm) / (2 * h))
    return np.array(out)


def _fd_gradient_richardson(func, w, h=1e-4):
    g1 = _fd_gradient(func, w, h)
    g2 = _fd_gradient(func, w, h / 2)
    return (4 * g2 - g1) / 3


def test_second_kind_derivatives_match_finite_differences(points):
    # reference: central differences with one Richardson step of each
    # constant, the first-kind series with characteristic (a, 0) at 2W
    for Z in points[:3]:
        doubled = Z.scaled(2.0)
        lattice = numerics._checked_lattice(doubled, CFG)
        f, df = numerics._second_kind_values(doubled.entries(), lattice)
        for r, a in enumerate(numerics.SECOND_KIND_ORDER):
            m = Characteristic(a, (0, 0))

            def value(w, m=m):
                return complex(numerics._series_terms(
                    m, tuple(x * 2.0 for x in w), lattice)[2].sum())

            assert f[r] == value(Z.entries())
            fd = _fd_gradient_richardson(value, Z.entries())
            assert np.abs(df[r] - fd).max() <= 1e-8 * np.abs(df[r]).max()


def test_second_kind_checks_on_stand_in_forms(points, monkeypatch):
    # random lattice coordinates and terms in place of the theta series,
    # drawn afresh for each characteristic at each point, and random theta
    # constants standing in for chi5: the Jacobian ratio (a) must fail,
    # while the bracket and triple identities (b) and (c) hold for any
    # values and gradients.  The tables are built first, so that no theta
    # constant runs through the stand-in
    rng = np.random.default_rng(5)
    forms = {}
    tables = [PointValues(Z, rng.normal(size=10) + 1j * rng.normal(size=10),
                          point_values(Z, CFG).grads) for Z in points[:5]]

    def stand_in(m, entries, lattice, z=None):
        forms[m] = forms.get(m, 0) + 1
        x, y = rng.normal(size=(2, 9))
        return x, y, rng.normal(size=9) + 1j * rng.normal(size=9)

    monkeypatch.setattr(numerics, "_series_terms", stand_in)
    rep = second_kind_checks(tables, CFG)
    assert len(forms) == 4
    assert rep["jacobian_rel_spread"] > 1e-2
    assert rep["bracket_max_residual"] < 1e-7
    assert rep["triple_max_residual"] < 1e-7
