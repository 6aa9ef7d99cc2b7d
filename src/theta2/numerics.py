"""Floating-point theta evaluation on the Siegel upper half-space.

This is the numerical oracle for every symbolic identity in the package:
theta constants with characteristics, their z-gradients, second-kind
constants, the weight-5 product form, and evaluation of arbitrary catalog
elements at sampled points.  Truncated lattice sums with an explicit tail
bound; points are sampled with lambda_min(Im Z) >= 1 so radius 10 is far
below double precision already.

Catalog elements are evaluated from a per-point table, `PointValues`: the
ten even constants and the six odd gradients, computed once per point
after one tail-bound check and one lattice build.  Every residual and
determinant ratio at that point reads the same table.  The second-kind
bracket checks likewise run one tail-bound check and build one lattice
per sample point, shared by all of that point's finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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


def _grad_sum(n: Characteristic, Z: SiegelPoint,
              lattice: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    x, y, e = _series_terms(n, Z.entries(), lattice)
    c = 2j * pi
    return np.array([complex((c * x * e).sum()), complex((c * y * e).sum())])


def _even_values(Z: SiegelPoint, lattice: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    entries = Z.entries()
    return np.array([complex(_series_terms(m, entries, lattice)[2].sum()) for m in EVEN_CHARS])


def _odd_gradients(Z: SiegelPoint, lattice: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    return np.array([_grad_sum(n, Z, lattice) for n in ODD_CHARS])


def theta(m: Characteristic, Z: SiegelPoint, cfg: EvalConfig = EvalConfig(),
          z: Sequence[complex] | None = None) -> complex:
    """Theta series value; the default z = 0 gives the constant.

    At z = 0 the odd-characteristic value is returned as exact zero (the
    lattice terms cancel in pairs).
    """
    if z is None and not m.is_even():
        return 0.0 + 0.0j
    return complex(_series_terms(m, Z.entries(), _checked_lattice(Z, cfg), z)[2].sum())


def theta_grad(n: Characteristic, Z: SiegelPoint, cfg: EvalConfig = EvalConfig()) -> np.ndarray:
    """z-gradient of the theta series at z = 0; zero for even characteristics."""
    if n.is_even():
        return np.zeros(2, dtype=complex)
    return _grad_sum(n, Z, _checked_lattice(Z, cfg))


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
    constants, the six gradients (shape (6, 2)) and their six norms,
    computed once here.  `point_values` makes both arrays read-only, so one
    table can serve every element."""

    point: SiegelPoint
    thetas: np.ndarray
    grads: np.ndarray
    grad_norms: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "grad_norms",
                           tuple(float(np.linalg.norm(g)) for g in self.grads))


def point_values(Z: SiegelPoint, cfg: EvalConfig = EvalConfig()) -> PointValues:
    """The value table of Z: one tail-bound check, one lattice, 16 sums."""
    lattice = _checked_lattice(Z, cfg)
    thetas = _even_values(Z, lattice)
    grads = _odd_gradients(Z, lattice)
    thetas.flags.writeable = False
    grads.flags.writeable = False
    return PointValues(Z, thetas, grads)


def chi5(Z: SiegelPoint, cfg: EvalConfig = EvalConfig()) -> complex:
    return complex(np.prod(theta_values(Z, cfg)))


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

def _mono_value(values: np.ndarray, exps: Sequence[int]) -> complex:
    v = 1.0 + 0.0j
    for base, e in zip(values, exps):
        if e:
            v *= base**e
    return v


def eval_element(e: ModuleElement | GradedPoly, table: PointValues):
    """Evaluate a catalog element at a point, given the point's value table.

    The ten even first-kind constants are substituted for the variables;
    rank-6 elements additionally pair component i with gradient i.  Returns
    (value, scale) where scale sums the magnitudes of the individual terms,
    so residuals can be reported relative to the cancellation mass.
    """
    if e.nvars != len(EVEN_CHARS):
        raise ValueError("variable count does not match the ten theta constants")
    if isinstance(e, ModuleElement) and e.rank != len(ODD_CHARS):
        raise ValueError("vector evaluation expects rank 6 over the gradients")
    values = table.thetas
    if isinstance(e, GradedPoly):
        total = 0.0 + 0.0j
        scale = 0.0
        for exps, c in e.terms.items():
            term = complex(c) * _mono_value(values, exps)
            total += term
            scale += abs(term)
        return total, scale
    grads = table.grads
    total = np.zeros(2, dtype=complex)
    scale = 0.0
    for i, p in enumerate(e.components):
        gnorm = table.grad_norms[i]
        for exps, c in p.terms.items():
            coeff = complex(c) * _mono_value(values, exps)
            total = total + coeff * grads[i]
            scale += abs(coeff) * gnorm
    if e.denominator is not None:
        dval = _mono_value(values, e.denominator)
        if abs(dval) < 1e-6 * max(scale, 1.0):
            raise EvaluationError("denominator too small at this point; resample")
        total = total / dval
        scale = scale / abs(dval)
    return total, scale


def relation_residual(e: ModuleElement | GradedPoly, table: PointValues) -> float:
    """Relative residual |value| / sum of term magnitudes."""
    value, scale = eval_element(e, table)
    mag = float(np.linalg.norm(value)) if isinstance(value, np.ndarray) else abs(value)
    if scale == 0.0:
        return 0.0
    return mag / scale


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

def _fd_gradient(func, w: tuple[complex, complex, complex], h: float = 1e-5) -> np.ndarray:
    """Central finite differences of func in the three matrix entries w."""
    out = []
    for c in range(3):
        dz = [0.0, 0.0, 0.0]
        dz[c] = h
        fp = func(tuple(x + d for x, d in zip(w, dz)))
        fm = func(tuple(x + -d for x, d in zip(w, dz)))
        out.append((fp - fm) / (2 * h))
    return np.array(out)


def _fd_gradient_richardson(func, w: tuple[complex, complex, complex],
                            h: float = 1e-4) -> np.ndarray:
    g1 = _fd_gradient(func, w, h)
    g2 = _fd_gradient(func, w, h / 2)
    return (4 * g2 - g1) / 3


def second_kind_checks(points: Sequence[SiegelPoint], cfg: EvalConfig = EvalConfig()) -> dict:
    """Numerical certification of the second-kind bracket identities.

    (a) the 3x3 Jacobian of (f1/f0, f2/f0, f3/f0), scaled by f0^4 and
        divided by the weight-5 product form, is the same constant at every
        point;
    (b) the Leibniz identity f_k{f_i,f_j} = f_j{f_i,f_k} + f_i{f_k,f_j} for
        the bracket {f,g} = g df - f dg, componentwise in the three matrix
        coordinates;
    (c) the four-term identity for the triple bracket built from the wedge
        of d(g/f) and d(h/f), scaled by f^3.

    Derivatives are central differences with one Richardson step; the
    matrix coordinates (z0, z1, z2) are varied directly with no half factors
    on the off-diagonal, stated here because any consistent convention
    passes the ratio and identity tests.

    Only (a) depends on the theta constants.  (b) and (c) are algebraic
    identities that hold for any values f and gradients df: with random
    complex f and df in place of the series their residuals stay at
    rounding level, so they check the bracket arithmetic, not the forms.
    """
    chars = [Characteristic((a[0], a[1]), (0, 0)) for a in SECOND_KIND_ORDER]

    constants = []
    bracket_resid = []
    triple_resid = []
    for Z in points:
        # the second-kind constants (first kind with characteristic (a, 0) at
        # 2W) at every point W the differences visit, from one check and one
        # lattice: every finite-difference shift is real, so each
        # shifted W has Im(2W) == Im(2Z) bit for bit and the same tail bound,
        # so W is passed as bare entries and no point is built (or checked)
        # per difference
        lattice = _checked_lattice(Z.scaled(2.0), cfg)
        f_funcs = [lambda w, m=m: complex(
                       _series_terms(m, tuple(x * 2.0 for x in w), lattice)[2].sum())
                   for m in chars]
        f = np.array([fn(Z.entries()) for fn in f_funcs])
        df = np.array([_fd_gradient_richardson(fn, Z.entries()) for fn in f_funcs])

        # (a) jacobian of the three quotients
        jac = np.zeros((3, 3), dtype=complex)
        for r in range(1, 4):
            # d(f_r/f_0) = (f0 df_r - f_r df_0) / f0^2
            jac[r - 1] = (f[0] * df[r] - f[r] * df[0]) / f[0] ** 2
        c5 = chi5(Z, cfg)
        constants.append(np.linalg.det(jac) * f[0] ** 4 / c5)

        # (b) bracket identity over all triples (i, j, k)
        def bracket(i, j):
            return f[j] * df[i] - f[i] * df[j]

        worst = 0.0
        for i in range(4):
            for j in range(4):
                for k in range(4):
                    if len({i, j, k}) < 3:
                        continue
                    lhs = f[k] * bracket(i, j)
                    rhs = f[j] * bracket(i, k) + f[i] * bracket(k, j)
                    scale = (np.abs(f[k] * bracket(i, j)).sum()
                             + np.abs(f[j] * bracket(i, k)).sum()
                             + np.abs(f[i] * bracket(k, j)).sum())
                    if scale > 0:
                        worst = max(worst, float(np.abs(lhs - rhs).sum() / scale))
        bracket_resid.append(worst)

        # (c) triple bracket: f^3 * d(g/f) ^ d(h/f) as a 3-vector of 2-form
        # coefficients; expands to f dg^dh - g df^dh + h df^dg
        def wedge(u, v):
            return np.array([
                u[1] * v[2] - u[2] * v[1],
                u[0] * v[2] - u[2] * v[0],
                u[0] * v[1] - u[1] * v[0],
            ])

        def triple(i, j, k):
            return (f[i] * wedge(df[j], df[k])
                    - f[j] * wedge(df[i], df[k])
                    + f[k] * wedge(df[i], df[j]))

        lhs = f[3] * triple(0, 1, 2)
        rhs = (f[0] * triple(1, 2, 3) - f[1] * triple(0, 2, 3)
               + f[2] * triple(0, 1, 3))
        scale = float(np.abs(f[3] * triple(0, 1, 2)).sum()
                      + np.abs(f[0] * triple(1, 2, 3)).sum()
                      + np.abs(f[1] * triple(0, 2, 3)).sum()
                      + np.abs(f[2] * triple(0, 1, 3)).sum())
        triple_resid.append(float(np.abs(lhs - rhs).sum() / scale))

    constants = np.array(constants)
    mean = complex(constants.mean())
    spread = float(np.abs(constants - mean).max())
    rel_spread = spread / abs(mean) if abs(mean) > 0 else float("inf")
    return {
        "jacobian_constant": mean,
        "jacobian_rel_spread": rel_spread,
        "bracket_max_residual": max(bracket_resid),
        "triple_max_residual": max(triple_resid),
        "points": len(points),
        "derivative_convention": "central differences in (z0, z1, z2), no half factors",
    }
