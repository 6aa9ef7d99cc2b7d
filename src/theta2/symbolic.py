"""Exact graded multivariate polynomials, free-module elements and Hilbert series.

Polynomials are sparse maps from exponent vectors to nonzero rational
coefficients.  The grading is by total degree; every theta variable has
degree 1 and module generators carry integer degree shifts.  A module
element may carry a single monomial denominator tag, which is the only
Laurent-type object the package needs.

Coefficients are `fractions.Fraction` throughout this module.  Prime-field
arithmetic exists only inside the Groebner engine; anything stored here is
exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Mapping, Sequence

Expvec = tuple[int, ...]

_FRACTION_ONE = Fraction(1)


def _as_fraction(c) -> Fraction:
    return c if isinstance(c, Fraction) else Fraction(c)


class GradedPoly:
    """A multivariate polynomial with rational coefficients.

    Terms live in a dict keyed by exponent vectors of fixed length
    ``nvars``.  Zero coefficients are never stored; the zero polynomial has
    an empty term map.
    """

    __slots__ = ("nvars", "terms", "_hash")

    def __init__(self, nvars: int, terms: Mapping[Expvec, Fraction] | None = None):
        self.nvars = nvars
        clean: dict[Expvec, Fraction] = {}
        if terms:
            for exps, c in terms.items():
                if len(exps) != nvars:
                    raise ValueError(f"exponent vector {exps} does not have length {nvars}")
                c = _as_fraction(c)
                if c:
                    clean[tuple(exps)] = c
        self.terms = clean
        self._hash = None

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(nvars: int) -> "GradedPoly":
        return GradedPoly(nvars)

    @staticmethod
    def constant(nvars: int, c) -> "GradedPoly":
        return GradedPoly(nvars, {(0,) * nvars: _as_fraction(c)})

    @staticmethod
    def monomial(nvars: int, exps: Sequence[int], c=1) -> "GradedPoly":
        return GradedPoly(nvars, {tuple(exps): _as_fraction(c)})

    @staticmethod
    def variable(nvars: int, i: int) -> "GradedPoly":
        exps = [0] * nvars
        exps[i] = 1
        return GradedPoly(nvars, {tuple(exps): _FRACTION_ONE})

    # -- ring structure ----------------------------------------------------

    def _check_compatible(self, other: "GradedPoly") -> None:
        if self.nvars != other.nvars:
            raise ValueError(f"variable count mismatch: {self.nvars} vs {other.nvars}")

    def __add__(self, other: "GradedPoly") -> "GradedPoly":
        self._check_compatible(other)
        terms = dict(self.terms)
        for exps, c in other.terms.items():
            v = terms.get(exps, 0) + c
            if v:
                terms[exps] = v
            else:
                terms.pop(exps, None)
        out = GradedPoly(self.nvars)
        out.terms = terms
        return out

    def __neg__(self) -> "GradedPoly":
        out = GradedPoly(self.nvars)
        out.terms = {e: -c for e, c in self.terms.items()}
        return out

    def __sub__(self, other: "GradedPoly") -> "GradedPoly":
        return self + (-other)

    def __mul__(self, other: "GradedPoly") -> "GradedPoly":
        self._check_compatible(other)
        terms: dict[Expvec, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                v = terms.get(e, 0) + c1 * c2
                if v:
                    terms[e] = v
                else:
                    terms.pop(e, None)
        out = GradedPoly(self.nvars)
        out.terms = terms
        return out

    def scale(self, c) -> "GradedPoly":
        c = _as_fraction(c)
        out = GradedPoly(self.nvars)
        if c:
            out.terms = {e: c * v for e, v in self.terms.items()}
        return out

    def mul_monomial(self, exps: Sequence[int], c=1) -> "GradedPoly":
        c = _as_fraction(c)
        out = GradedPoly(self.nvars)
        if c:
            out.terms = {
                tuple(a + b for a, b in zip(e, exps)): c * v for e, v in self.terms.items()
            }
        return out

    # -- structure queries ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def degree(self) -> int:
        """Total degree (max over terms); -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GradedPoly)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.nvars, frozenset(self.terms.items())))
        return self._hash

    def __repr__(self):
        return f"GradedPoly({poly_to_text(self)})"

    def divide_by_monomial(self, exps: Sequence[int]) -> "GradedPoly | None":
        """Exact division by a monomial, or None if some term is not divisible."""
        out_terms = {}
        for e, c in self.terms.items():
            d = tuple(a - b for a, b in zip(e, exps))
            if any(x < 0 for x in d):
                return None
            out_terms[d] = c
        out = GradedPoly(self.nvars)
        out.terms = out_terms
        return out


def graded_dimension(k: int, d: int) -> int:
    """Number of degree-d monomials in k variables (stars and bars)."""
    if k < 1 or d < 0:
        raise ValueError("need k >= 1 and d >= 0")
    return comb(d + k - 1, k - 1)


@dataclass(frozen=True)
class ModuleElement:
    """A vector of polynomials over a free module with degree shifts.

    ``denominator`` is an optional monomial exponent vector; when present
    the element stands for components / monomial.  Homogeneous elements
    satisfy deg(component_i) + shift_i == constant over nonzero components.
    """

    components: tuple[GradedPoly, ...]
    shifts: tuple[int, ...]
    denominator: Expvec | None = None

    def __post_init__(self):
        if len(self.components) != len(self.shifts):
            raise ValueError("components and shifts must have the same length")
        nv = {p.nvars for p in self.components}
        if len(nv) > 1:
            raise ValueError("mixed variable counts in module element")

    @property
    def rank(self) -> int:
        return len(self.components)

    @property
    def nvars(self) -> int:
        return self.components[0].nvars

    @staticmethod
    def zero(nvars: int, rank: int, shifts: Sequence[int] | None = None) -> "ModuleElement":
        shifts = tuple(shifts) if shifts is not None else (1,) * rank
        return ModuleElement(tuple(GradedPoly.zero(nvars) for _ in range(rank)), shifts)

    @staticmethod
    def generator(nvars: int, rank: int, i: int, shifts: Sequence[int] | None = None,
                  coeff: GradedPoly | None = None) -> "ModuleElement":
        """coeff * T_i (coeff defaults to 1)."""
        comps = [GradedPoly.zero(nvars) for _ in range(rank)]
        comps[i] = coeff if coeff is not None else GradedPoly.constant(nvars, 1)
        shifts = tuple(shifts) if shifts is not None else (1,) * rank
        return ModuleElement(tuple(comps), shifts)

    def _compatible(self, other: "ModuleElement") -> None:
        if self.shifts != other.shifts:
            raise ValueError("shift profiles differ")
        if self.denominator != other.denominator:
            raise ValueError("denominator tags differ")

    def __add__(self, other: "ModuleElement") -> "ModuleElement":
        self._compatible(other)
        return ModuleElement(
            tuple(a + b for a, b in zip(self.components, other.components)),
            self.shifts, self.denominator)

    def __neg__(self) -> "ModuleElement":
        return ModuleElement(tuple(-a for a in self.components), self.shifts, self.denominator)

    def __sub__(self, other: "ModuleElement") -> "ModuleElement":
        return self + (-other)

    def scale(self, c) -> "ModuleElement":
        return ModuleElement(tuple(a.scale(c) for a in self.components),
                             self.shifts, self.denominator)

    def mul_poly(self, p: GradedPoly) -> "ModuleElement":
        return ModuleElement(tuple(a * p for a in self.components),
                             self.shifts, self.denominator)

    def is_zero(self) -> bool:
        return all(p.is_zero() for p in self.components)

    def degree(self) -> int:
        """Shifted degree of a homogeneous element; -1 when zero.

        The denominator tag, when present, lowers the degree by its total.
        """
        degs = {p.degree() + s for p, s in zip(self.components, self.shifts) if p}
        if not degs:
            return -1
        if len(degs) > 1:
            raise ValueError("element is not homogeneous")
        d = degs.pop()
        if self.denominator:
            d -= sum(self.denominator)
        return d

    def is_homogeneous(self) -> bool:
        degs = set()
        for p, s in zip(self.components, self.shifts):
            if not p.is_homogeneous():
                return False
            if p:
                degs.add(p.degree() + s)
        return len(degs) <= 1


def monomial_divide(e: ModuleElement, exps: Sequence[int]) -> ModuleElement:
    """Divide a module element by a monomial.

    Performs literal division when every component is divisible; otherwise
    attaches (or extends) the denominator tag.
    """
    exps = tuple(exps)
    divided = [p.divide_by_monomial(exps) for p in e.components]
    if all(q is not None for q in divided):
        return ModuleElement(tuple(divided), e.shifts, e.denominator)
    if e.denominator is None:
        denom = exps
    else:
        denom = tuple(a + b for a, b in zip(e.denominator, exps))
    return ModuleElement(e.components, e.shifts, denom)


def clear_denominator(e: ModuleElement, extra: Sequence[int]) -> ModuleElement:
    """Multiply by monomial ``extra`` and cancel against the denominator tag.

    ``extra`` must be divisible by the denominator; the result is a plain
    polynomial element.
    """
    if e.denominator is None:
        return ModuleElement(
            tuple(p.mul_monomial(extra) for p in e.components), e.shifts)
    left = tuple(a - b for a, b in zip(extra, e.denominator))
    if any(x < 0 for x in left):
        raise ValueError("multiplier does not clear the denominator tag")
    return ModuleElement(tuple(p.mul_monomial(left) for p in e.components), e.shifts)


# ---------------------------------------------------------------------------
# Hilbert series
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HilbertSeries:
    """numerator(t) * t^shift / (1-t)^denom_exp with integer numerator."""

    numerator: tuple[int, ...]          # coefficient of t^i at index i
    denom_exp: int
    shift: int = 0

    @staticmethod
    def from_coeffs(coeffs: Mapping[int, int], denom_exp: int, shift: int = 0) -> "HilbertSeries":
        if coeffs:
            top = max(coeffs)
            num = tuple(coeffs.get(i, 0) for i in range(top + 1))
        else:
            num = ()
        return HilbertSeries(_trim(num), denom_exp, shift)

    def expand(self, upto: int) -> list[int]:
        """Series coefficients for degrees 0..upto (inclusive)."""
        out = [0] * (upto + 1)
        for i, c in enumerate(self.numerator):
            if not c:
                continue
            for n in range(upto + 1):
                d = n - i - self.shift
                if d < 0:
                    continue
                if self.denom_exp == 0:
                    if d == 0:
                        out[n] += c
                else:
                    out[n] += c * comb(d + self.denom_exp - 1, self.denom_exp - 1)
        return out

    def __add__(self, other: "HilbertSeries") -> "HilbertSeries":
        return _combine(self, other, 1)

    def __sub__(self, other: "HilbertSeries") -> "HilbertSeries":
        return _combine(self, other, -1)

    def shifted(self, by: int) -> "HilbertSeries":
        return HilbertSeries(self.numerator, self.denom_exp, self.shift + by)

    def reduced(self) -> "HilbertSeries":
        """Cancel (1-t) factors from the numerator and fold the shift in.

        Positive shifts become leading zero coefficients; negative shifts
        cancel against a numerator divisible by t, so equal series compare
        equal structurally after reduction.
        """
        num = list(self.numerator)
        d = self.denom_exp
        while d > 0 and num and _divisible_by_one_minus_t(num):
            num = _divide_by_one_minus_t(num)
            d -= 1
        s = self.shift
        if s > 0:
            num = [0] * s + num
            s = 0
        while s < 0 and num and num[0] == 0:
            num.pop(0)
            s += 1
        return HilbertSeries(_trim(tuple(num)), d, s)

    def same_rational_function(self, other: "HilbertSeries") -> bool:
        """Exact equality as rational functions: the difference is zero."""
        return not (self - other).numerator

    def to_text(self, var: str = "t") -> str:
        parts = []
        for i, c in enumerate(self.numerator):
            if not c:
                continue
            deg = i + self.shift
            mono = "1" if deg == 0 else (var if deg == 1 else f"{var}^{deg}")
            if c == 1 and deg != 0:
                parts.append(f"+ {mono}")
            elif c == -1 and deg != 0:
                parts.append(f"- {mono}")
            elif c > 0:
                parts.append(f"+ {c}*{mono}" if deg else f"+ {c}")
            else:
                parts.append(f"- {-c}*{mono}" if deg else f"- {-c}")
        num = " ".join(parts).lstrip("+ ") or "0"
        if self.denom_exp == 0:
            return num
        return f"({num}) / (1-{var})^{self.denom_exp}"


def _trim(num: tuple[int, ...]) -> tuple[int, ...]:
    n = len(num)
    while n and num[n - 1] == 0:
        n -= 1
    return tuple(num[:n])


def _combine(a: HilbertSeries, b: HilbertSeries, sign: int) -> HilbertSeries:
    d = max(a.denom_exp, b.denom_exp)
    s = min(a.shift, b.shift)
    na = _mul_one_minus_t_power(a.numerator, d - a.denom_exp)
    nb = _mul_one_minus_t_power(b.numerator, d - b.denom_exp)
    na = (0,) * (a.shift - s) + na
    nb = (0,) * (b.shift - s) + nb
    top = max(len(na), len(nb))
    num = tuple(
        (na[i] if i < len(na) else 0) + sign * (nb[i] if i < len(nb) else 0)
        for i in range(top))
    return HilbertSeries(_trim(num), d, s)


def _mul_one_minus_t_power(num: tuple[int, ...], k: int) -> tuple[int, ...]:
    out = list(num)
    for _ in range(k):
        nxt = [0] * (len(out) + 1)
        for i, c in enumerate(out):
            nxt[i] += c
            nxt[i + 1] -= c
        out = nxt
    return _trim(tuple(out))


def _divisible_by_one_minus_t(num: list[int]) -> bool:
    return sum(num) == 0


def _divide_by_one_minus_t(num: list[int]) -> list[int]:
    # num = (1-t) * q  =>  q_i = num_0 + ... + num_i, dropping the final zero sum
    out = []
    acc = 0
    for c in num[:-1]:
        acc += c
        out.append(acc)
    while out and out[-1] == 0:
        out.pop()
    return out


# ---------------------------------------------------------------------------
# Textual format (golden files / cache)
# ---------------------------------------------------------------------------

def default_names(nvars: int) -> list[str]:
    if nvars == 4:
        return [f"f{i}" for i in range(4)]
    return [f"t{i + 1}" for i in range(nvars)]


def poly_to_text(p: GradedPoly, names: Sequence[str] | None = None) -> str:
    """Render ``c*t1^a1*...`` terms joined by +/-, in a canonical term order."""
    if not p.terms:
        return "0"
    names = names or default_names(p.nvars)
    parts = []
    for exps in sorted(p.terms, key=lambda e: (-sum(e), tuple(-x for x in e))):
        c = p.terms[exps]
        factors = []
        for name, e in zip(names, exps):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        mag = abs(c)
        body = str(mag) if not factors else f"{mag}*" + "*".join(factors)
        parts.append(("- " if c < 0 else "+ ") + body)
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


def poly_from_text(s: str, nvars: int, names: Sequence[str] | None = None) -> GradedPoly:
    names = names or default_names(nvars)
    index = {n: i for i, n in enumerate(names)}
    s = s.strip()
    if s == "0":
        return GradedPoly.zero(nvars)
    s = s.replace("- ", "-").replace("+ ", "+").replace(" ", "")
    if not s.startswith(("+", "-")):
        s = "+" + s
    terms: dict[Expvec, Fraction] = {}
    token = ""
    chunks = []
    for ch in s:
        if ch in "+-" and token and not token.endswith("/"):
            chunks.append(token)
            token = ch
        else:
            token += ch
    chunks.append(token)
    for chunk in chunks:
        sign = -1 if chunk[0] == "-" else 1
        body = chunk[1:]
        exps = [0] * nvars
        coeff = Fraction(1)
        saw_coeff = False
        for factor in body.split("*"):
            if not factor:
                continue
            if factor[0].isdigit():
                coeff *= Fraction(factor)
                saw_coeff = True
            else:
                name, _, pow_s = factor.partition("^")
                if name not in index:
                    raise ValueError(f"unknown variable {name!r}")
                exps[index[name]] += int(pow_s) if pow_s else 1
        if not saw_coeff and all(e == 0 for e in exps) and not body:
            raise ValueError(f"empty term in {s!r}")
        key = tuple(exps)
        v = terms.get(key, 0) + sign * coeff
        if v:
            terms[key] = v
        else:
            terms.pop(key, None)
    return GradedPoly(nvars, terms)


def element_to_text(e: ModuleElement, names: Sequence[str] | None = None) -> str:
    body = " | ".join(poly_to_text(p, names) for p in e.components)
    if e.denominator:
        names = names or default_names(e.nvars)
        mono = "*".join(
            (n if x == 1 else f"{n}^{x}") for n, x in zip(names, e.denominator) if x)
        return f"[{body}] / {mono}"
    return body


def element_from_text(s: str, nvars: int, rank: int,
                      shifts: Sequence[int] | None = None,
                      names: Sequence[str] | None = None) -> ModuleElement:
    names = names or default_names(nvars)
    s = s.strip()
    denom = None
    if s.startswith("["):
        body, _, tail = s[1:].rpartition("]")
        tail = tail.strip()
        if tail.startswith("/"):
            denom_poly = poly_from_text(tail[1:].strip(), nvars, names)
            (denom,) = denom_poly.terms
        s = body
    parts = [p.strip() for p in s.split("|")]
    if len(parts) != rank:
        raise ValueError(f"expected {rank} components, got {len(parts)}")
    comps = tuple(poly_from_text(p, nvars, names) for p in parts)
    shifts = tuple(shifts) if shifts is not None else (1,) * rank
    return ModuleElement(comps, shifts, denom)
