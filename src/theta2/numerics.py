"""Floating-point theta evaluation on the Siegel upper half-space.

This is the numerical oracle for every symbolic identity in the package:
theta constants with characteristics, their z-gradients, second-kind
constants, and evaluation of arbitrary catalog elements at sampled points.
The weight-5 product form at a point is the product of its table's ten
even constants.  Truncated lattice sums with an explicit tail bound;
points are sampled with lambda_min(Im Z) >= 1 so radius 10 is far below
double precision already.

Catalog elements are evaluated from a per-point table, `PointValues`: the
ten even constants and the six odd gradients, computed once per point
after one tail-bound check and one lattice build.  Every residual and
determinant ratio at that point reads the same table, and `ValueStack`
stacks the tables of all sample points so one pass over an element's terms
evaluates it at every point.  The second-kind bracket checks likewise run
one tail-bound check and build one lattice per sample point; each
constant's derivatives are exact weighted sums of the lattice terms its
value sums.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import exp, inf, pi
from typing import Sequence

import numpy as np

from .chars import Characteristic, EVEN_CHARS, ODD_CHARS
from .errors import EvaluationError
from .symbolic import GradedPoly, ModuleElement


@dataclass(frozen=True)
class SiegelPoint:
    """A symmetric 2x2 complex matrix with positive definite imaginary part."""

    z0: complex
    z1: complex
    z2: complex

    def __post_init__(self):
        if self.lambda_min() <= 0:
            raise ValueError("imaginary part not positive definite")

    def entries(self) -> tuple[complex, complex, complex]:
        return (self.z0, self.z1, self.z2)

    def matrix(self) -> np.ndarray:
        return np.array([[self.z0, self.z1], [self.z1, self.z2]])

    def imag_matrix(self) -> np.ndarray:
        return self.matrix().imag

    def lambda_min(self) -> float:
        return float(np.linalg.eigvalsh(self.imag_matrix())[0])

    def scaled(self, factor: float) -> "SiegelPoint":
        return SiegelPoint(self.z0 * factor, self.z1 * factor, self.z2 * factor)


@dataclass(frozen=True)
class EvalConfig:
    radius: int = 10
    target_eps: float = 1e-12

    def __post_init__(self):
        if self.radius < 1 or not 0 < self.target_eps < inf:
            raise ValueError("need radius >= 1 and a finite target_eps > 0")


def tail_bound(lambda_min: float, radius: int) -> float:
    """Upper bound for the lattice sum outside max-norm radius."""
    total = 0.0
    s = radius + 1
    while True:
        shell = 8 * s * exp(-pi * lambda_min * (s - 0.5) ** 2)
        total += shell
        if shell < 1e-300 or s > radius + 400:
            break
        s += 1
    return total


def _require_converged(Z: SiegelPoint, cfg: EvalConfig) -> None:
    bound = tail_bound(Z.lambda_min(), cfg.radius)
    if bound > cfg.target_eps:
        raise EvaluationError(
            f"truncation tail {bound:.2e} exceeds target {cfg.target_eps:.2e} "
            f"at radius {cfg.radius}")


def _checked_lattice(Z: SiegelPoint, cfg: EvalConfig) -> tuple[np.ndarray, np.ndarray]:
    """The radius lattice, after the convergence check at Z."""
    _require_converged(Z, cfg)
    r = np.arange(-cfg.radius, cfg.radius + 1)
    g1, g2 = np.meshgrid(r, r, indexing="ij")
    return g1.ravel().astype(float), g2.ravel().astype(float)


def _series_terms(m: Characteristic, entries: tuple[complex, complex, complex],
                  lattice: tuple[np.ndarray, np.ndarray],
                  z: Sequence[complex] | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Shifted lattice coordinates x, y and the exponential terms e of the
    theta series with characteristic m, at the matrix with the given
    entries (z0, z1, z2); the caller has checked it with the lattice."""
    z0, z1, z2 = entries
    g1, g2 = lattice
    x = g1 + m.a[0] / 2.0
    y = g2 + m.a[1] / 2.0
    quad = z0 * x * x + 2 * z1 * x * y + z2 * y * y
    lin = x * m.b[0] + y * m.b[1]
    if z is not None:
        lin = lin + 2 * (x * z[0] + y * z[1])
    return x, y, np.exp(1j * pi * (quad + lin))


def _even_values(Z: SiegelPoint, lattice: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    entries = Z.entries()
    return np.array([complex(_series_terms(m, entries, lattice)[2].sum()) for m in EVEN_CHARS])


def _odd_gradients(Z: SiegelPoint, lattice: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """The six z-gradients at z = 0, shape (6, 2)."""
    entries, c = Z.entries(), 2j * pi
    out = []
    for n in ODD_CHARS:
        x, y, e = _series_terms(n, entries, lattice)
        out.append([complex((c * x * e).sum()), complex((c * y * e).sum())])
    return np.array(out)


def theta(m: Characteristic, Z: SiegelPoint, cfg: EvalConfig = EvalConfig(),
          z: Sequence[complex] | None = None) -> complex:
    """Theta series value; the default z = 0 gives the constant.

    At z = 0 the odd-characteristic value is returned as exact zero (the
    lattice terms cancel in pairs).
    """
    if z is None and not m.is_even():
        return 0.0 + 0.0j
    return complex(_series_terms(m, Z.entries(), _checked_lattice(Z, cfg), z)[2].sum())


SECOND_KIND_ORDER = ((0, 0), (0, 1), (1, 0), (1, 1))


def theta_values(Z: SiegelPoint, cfg: EvalConfig = EvalConfig()) -> np.ndarray:
    """The ten even first-kind constants in canonical order."""
    return _even_values(Z, _checked_lattice(Z, cfg))


def grad_values(Z: SiegelPoint, cfg: EvalConfig = EvalConfig()) -> np.ndarray:
    """The six gradients in canonical order, shape (6, 2)."""
    return _odd_gradients(Z, _checked_lattice(Z, cfg))


@dataclass(frozen=True)
class PointValues:
    """Everything a catalog element needs at one point: the ten even
    constants and the six gradients (shape (6, 2)), computed once here.
    `point_values` makes both arrays read-only, so one table can serve every
    element."""

    point: SiegelPoint
    thetas: np.ndarray
    grads: np.ndarray


def point_values(Z: SiegelPoint, cfg: EvalConfig = EvalConfig()) -> PointValues:
    """The value table of Z: one tail-bound check, one lattice, 16 sums."""
    lattice = _checked_lattice(Z, cfg)
    thetas = _even_values(Z, lattice)
    grads = _odd_gradients(Z, lattice)
    thetas.flags.writeable = False
    grads.flags.writeable = False
    return PointValues(Z, thetas, grads)


def sample_siegel(seed: int, count: int) -> list[SiegelPoint]:
    """Deterministic points X + iY with lambda_min(Y) >= 1."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        x = rng.uniform(-1.0, 1.0, size=3)
        low = rng.uniform(-1.0, 1.0, size=(2, 2))
        y = low @ low.T + np.eye(2)
        out.append(SiegelPoint(
            complex(x[0], y[0, 0]), complex(x[1], y[0, 1]), complex(x[2], y[1, 1])))
    return out


# ---------------------------------------------------------------------------
# Symbolic element evaluation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ValueStack:
    """The value tables of P points stacked with the point axis last: the
    even constants (10, P), the gradients (6, 2, P) and their norms (6, P)."""

    thetas: np.ndarray
    grads: np.ndarray
    grad_norms: np.ndarray


def stack_values(tables: Sequence[PointValues]) -> ValueStack:
    """One stack of the given tables, in their order."""
    grads = np.stack([t.grads for t in tables], axis=-1)
    return ValueStack(np.stack([t.thetas for t in tables], axis=-1), grads,
                      np.linalg.norm(grads, axis=1))


def _mono_value(values: np.ndarray, exps: Sequence[int]):
    v = 1.0 + 0.0j
    for base, e in zip(values, exps):
        if e:
            v *= base**e
    return v


def eval_stacked(e: ModuleElement | GradedPoly, stack: ValueStack):
    """Evaluate a catalog element at every point of a value stack.

    The ten even first-kind constants are substituted for the variables;
    rank-6 elements additionally pair component i with gradient i.  Returns
    (value, scale), value of shape (P,) or (2, P), where scale (P,) sums the
    magnitudes of the individual terms, so residuals can be reported
    relative to the cancellation mass.
    """
    if e.nvars != len(EVEN_CHARS):
        raise ValueError("variable count does not match the ten theta constants")
    if isinstance(e, ModuleElement) and e.rank != len(ODD_CHARS):
        raise ValueError("vector evaluation expects rank 6 over the gradients")
    values = stack.thetas
    if isinstance(e, GradedPoly):
        # one component paired with the constant 1, which multiplies exactly
        ones = np.ones((1, values.shape[1]))
        polys, grads, norms = [e], ones, ones
    else:
        polys, grads, norms = e.components, stack.grads, stack.grad_norms
    total = np.zeros(grads.shape[1:], dtype=complex)
    scale = np.zeros(values.shape[1])
    for p, grad, gnorm in zip(polys, grads, norms):
        for exps, c in p.terms.items():
            coeff = complex(c) * _mono_value(values, exps)
            total = total + coeff * grad
            scale = scale + np.abs(coeff) * gnorm
    if isinstance(e, ModuleElement) and e.denominator is not None:
        dval = _mono_value(values, e.denominator)
        if np.any(np.abs(dval) < 1e-6 * np.maximum(scale, 1.0)):
            raise EvaluationError("denominator too small at this point; resample")
        total = total / dval
        scale = scale / np.abs(dval)
    return total, scale


def stacked_residuals(e: ModuleElement | GradedPoly, stack: ValueStack) -> np.ndarray:
    """Relative residuals |value| / sum of term magnitudes, one per point;
    0 where that sum is 0."""
    value, scale = eval_stacked(e, stack)
    mag = np.abs(value) if value.ndim == 1 else np.linalg.norm(value, axis=0)
    return np.divide(mag, scale, out=np.zeros_like(scale), where=scale != 0.0)


def relation_residual(e: ModuleElement | GradedPoly, table: PointValues) -> float:
    """Relative residual |value| / sum of term magnitudes at one point."""
    return float(stacked_residuals(e, stack_values([table]))[0])


# ---------------------------------------------------------------------------
# Gradient determinant table certification
# ---------------------------------------------------------------------------

def dtable_ratios(tables: Sequence[PointValues]):
    """Ratios det(grad_j, grad_i) / (pi^2 * quadruple product) for i < j.

    The column order (grad_j, grad_i) is the orientation under which the
    printed sign table comes out exactly; with the series convention used
    here det(grad_i, grad_j) carries the opposite global sign.  Takes one
    value table per point; returns {(i, j): list of complex ratios over the
    points}.
    """
    from .chars import azygetic_quadruple

    quads = {(i, j): azygetic_quadruple(i, j)
             for i in range(1, 7) for j in range(i + 1, 7)}
    out: dict[tuple[int, int], list[complex]] = {}
    for table in tables:
        thetas, grads = table.thetas, table.grads
        for (i, j), quad in quads.items():
            prod = complex(np.prod([thetas[k - 1] for k in quad]))
            gi, gj = grads[i - 1], grads[j - 1]
            det = gj[0] * gi[1] - gj[1] * gi[0]
            out.setdefault((i, j), []).append(det / (pi**2 * prod))
    return out


# ---------------------------------------------------------------------------
# Second-kind bracket and Jacobian checks
# ---------------------------------------------------------------------------

def _second_kind_values(entries: tuple[complex, complex, complex],
                        lattice: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """The four second-kind constants f (first kind with characteristic
    (a, 0) at the doubled matrix, whose entries are given) and their exact
    derivatives df, shape (4, 3), in the undoubled entries (z0, z1, z2).

    Each lattice term e = exp(2 pi i (z0 x^2 + 2 z1 x y + z2 y^2)) has
    derivatives 2 pi i (x^2, 2 x y, y^2) e, so df weights the terms f sums.
    """
    f = np.empty(4, dtype=complex)
    df = np.empty((4, 3), dtype=complex)
    for r, a in enumerate(SECOND_KIND_ORDER):
        x, y, e = _series_terms(Characteristic(a, (0, 0)), entries, lattice)
        f[r] = e.sum()
        df[r] = (2j * pi * (x * x * e).sum(), 4j * pi * (x * y * e).sum(),
                 2j * pi * (y * y * e).sum())
    return f, df


def second_kind_checks(tables: Sequence[PointValues], cfg: EvalConfig = EvalConfig()) -> dict:
    """Numerical certification of the second-kind bracket identities.

    (a) the 3x3 Jacobian of (f1/f0, f2/f0, f3/f0), scaled by f0^4 and
        divided by the weight-5 product form, is the same constant at every
        point;
    (b) the Leibniz identity f_k{f_i,f_j} = f_j{f_i,f_k} + f_i{f_k,f_j} for
        the bracket {f,g} = g df - f dg, componentwise in the three matrix
        coordinates;
    (c) the four-term identity for the triple bracket built from the wedge
        of d(g/f) and d(h/f), scaled by f^3.

    Derivatives are exact: weighted sums of the lattice terms each
    constant sums.  The matrix coordinates (z0, z1, z2) are the variables,
    with no half factors on the off-diagonal, stated here because any
    consistent convention passes the ratio and identity tests.  chi5 at
    each point is the product of its table's ten theta constants, so no
    lattice sum is repeated.

    Only (a) depends on the theta constants.  (b) and (c) are algebraic
    identities that hold for any values f and gradients df: with random
    complex f and df in place of the series their residuals stay at
    rounding level, so they check the bracket arithmetic, not the forms.
    """
    constants = []
    bracket_resid = []
    triple_resid = []
    for table in tables:
        # one tail-bound check and one lattice at 2Z for all four constants
        doubled = table.point.scaled(2.0)
        f, df = _second_kind_values(doubled.entries(), _checked_lattice(doubled, cfg))

        # (a) jacobian of the three quotients
        jac = np.zeros((3, 3), dtype=complex)
        for r in range(1, 4):
            # d(f_r/f_0) = (f0 df_r - f_r df_0) / f0^2
            jac[r - 1] = (f[0] * df[r] - f[r] * df[0]) / f[0] ** 2
        c5 = complex(np.prod(table.thetas))
        constants.append(np.linalg.det(jac) * f[0] ** 4 / c5)

        # (b) bracket identity over all triples (i, j, k)
        def bracket(i, j):
            return f[j] * df[i] - f[i] * df[j]

        worst = 0.0
        for i, j, k in itertools.permutations(range(4), 3):
            lhs, rhs1, rhs2 = f[k] * bracket(i, j), f[j] * bracket(i, k), f[i] * bracket(k, j)
            scale = np.abs(lhs).sum() + np.abs(rhs1).sum() + np.abs(rhs2).sum()
            if scale > 0:
                worst = max(worst, float(np.abs(lhs - (rhs1 + rhs2)).sum() / scale))
        bracket_resid.append(worst)

        # (c) triple bracket: f^3 * d(g/f) ^ d(h/f) as a 3-vector of 2-form
        # coefficients; expands to f dg^dh - g df^dh + h df^dg
        def wedge(u, v):
            return np.array([u[1] * v[2] - u[2] * v[1], u[0] * v[2] - u[2] * v[0],
                             u[0] * v[1] - u[1] * v[0]])

        def triple(i, j, k):
            return (f[i] * wedge(df[j], df[k])
                    - f[j] * wedge(df[i], df[k])
                    + f[k] * wedge(df[i], df[j]))

        lhs, rhs1, rhs2, rhs3 = (f[3] * triple(0, 1, 2), f[0] * triple(1, 2, 3),
                                 f[1] * triple(0, 2, 3), f[2] * triple(0, 1, 3))
        scale = float(np.abs(lhs).sum() + np.abs(rhs1).sum() + np.abs(rhs2).sum()
                      + np.abs(rhs3).sum())
        triple_resid.append(float(np.abs(lhs - (rhs1 - rhs2 + rhs3)).sum() / scale))

    constants = np.array(constants)
    mean = complex(constants.mean())
    spread = float(np.abs(constants - mean).max())
    rel_spread = spread / abs(mean) if abs(mean) > 0 else float("inf")
    return {
        "jacobian_constant": mean,
        "jacobian_rel_spread": rel_spread,
        "bracket_max_residual": max(bracket_resid),
        "triple_max_residual": max(triple_resid),
        "points": len(tables),
        "derivative_convention": "exact derivatives in (z0, z1, z2), no half factors",
    }
