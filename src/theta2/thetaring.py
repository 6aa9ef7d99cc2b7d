"""Relation catalogs and the module-structure pipeline for the theta ring.

The ring is Q[t1..t10] modulo the twenty quartic relations; the module of
interest is presented on six generators T1..T6 (the gradient images, each
of degree 1).  This module derives the relation catalogs (20 three-term,
30 four-term, 72 five-term) and certifies them with the multiplication
oracle: there is one oracle per process, and each catalog is derived once
per process and returned as a tuple.  k0, the three-term relations plus
the ideal layer, is computed once per process over Q, and the oracle
works on it exactly, reducing each chi5 multiple it needs once.  In the
pipeline k0 is a stage like every other: a pipeline over Q reads that one
k0, a pipeline over a prime builds its own or, in a dual run, reads every
stage from one exact pass over Q, k0 included; a prime unlucky for a Q
run raises DerivationError.  The module then computes the full relation
kernel as a colon module, intersects the fifteen localized modules,
handles the extra generator with its 360-element orbit, and produces the
Hilbert series of the intersection, plus the two second-kind
presentations with their series.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Iterable, Sequence

from . import chars
from .errors import DerivationError
from .groebner import (
    QQ,
    GFP1,
    BasisCache,
    EngineBasis,
    GroebnerBasis,
    MonomialOrder,
    RationalField,
    buchberger_engine,
    hilbert_series_engine,
    intersect_engine,
    module_quotient_engine,
    to_engine,
)
from .symbolic import (
    GradedPoly,
    HilbertSeries,
    ModuleElement,
    clear_denominator,
    element_to_text,
    monomial_divide,
    poly_to_text,
)

NVARS = 10
RANK = 6
CHI5_EXPS = (1,) * 10
SHIFTS = (1,) * 6


def _mono(pairs: Iterable[tuple[int, int]], c: int = 1) -> GradedPoly:
    e = [0] * NVARS
    for label, p in pairs:
        e[label - 1] += p
    return GradedPoly.monomial(NVARS, e, c)


def _exps(labels: Iterable[int]) -> tuple[int, ...]:
    e = [0] * NVARS
    for k in labels:
        e[k - 1] += 1
    return tuple(e)


def _sq(label: int) -> tuple[int, ...]:
    e = [0] * NVARS
    e[label - 1] = 2
    return tuple(e)


def _addexp(*vecs: Sequence[int]) -> tuple[int, ...]:
    out = [0] * NVARS
    for v in vecs:
        for i, x in enumerate(v):
            out[i] += x
    return tuple(out)


# ---------------------------------------------------------------------------
# Quartic ideal and the determinant table
# ---------------------------------------------------------------------------

# (coefficient, [(label, power), ...]) per term, in the printed order
_QUARTIC_DATA = [
    [(1, [(6, 2), (8, 2)]), (-1, [(4, 2), (9, 2)]), (1, [(1, 2), (10, 2)])],
    [(1, [(5, 2), (8, 2)]), (-1, [(2, 2), (9, 2)]), (1, [(3, 2), (10, 2)])],
    [(1, [(7, 4)]), (-1, [(8, 4)]), (-1, [(9, 4)]), (1, [(10, 4)])],
    [(1, [(6, 2), (7, 2)]), (-1, [(3, 2), (9, 2)]), (1, [(2, 2), (10, 2)])],
    [(1, [(5, 2), (7, 2)]), (-1, [(1, 2), (9, 2)]), (1, [(4, 2), (10, 2)])],
    [(1, [(4, 2), (7, 2)]), (-1, [(3, 2), (8, 2)]), (-1, [(5, 2), (10, 2)])],
    [(1, [(3, 2), (7, 2)]), (-1, [(4, 2), (8, 2)]), (-1, [(6, 2), (9, 2)])],
    [(1, [(2, 2), (7, 2)]), (-1, [(1, 2), (8, 2)]), (-1, [(6, 2), (10, 2)])],
    [(1, [(1, 2), (7, 2)]), (-1, [(2, 2), (8, 2)]), (-1, [(5, 2), (9, 2)])],
    [(1, [(5, 4)]), (-1, [(6, 4)]), (-1, [(9, 4)]), (1, [(10, 4)])],
    [(1, [(4, 2), (5, 2)]), (-1, [(2, 2), (6, 2)]), (-1, [(7, 2), (10, 2)])],
    [(1, [(3, 2), (5, 2)]), (-1, [(1, 2), (6, 2)]), (-1, [(8, 2), (10, 2)])],
    [(1, [(2, 2), (5, 2)]), (-1, [(4, 2), (6, 2)]), (-1, [(8, 2), (9, 2)])],
    [(1, [(1, 2), (5, 2)]), (-1, [(3, 2), (6, 2)]), (-1, [(7, 2), (9, 2)])],
    [(1, [(3, 4)]), (-1, [(4, 4)]), (-1, [(6, 4)]), (1, [(10, 4)])],
    [(1, [(2, 2), (3, 2)]), (-1, [(1, 2), (4, 2)]), (1, [(9, 2), (10, 2)])],
    [(1, [(1, 2), (3, 2)]), (-1, [(2, 2), (4, 2)]), (-1, [(5, 2), (6, 2)])],
    [(1, [(2, 4)]), (-1, [(4, 4)]), (-1, [(8, 4)]), (1, [(10, 4)])],
    [(1, [(1, 2), (2, 2)]), (-1, [(3, 2), (4, 2)]), (-1, [(7, 2), (8, 2)])],
    [(1, [(1, 4)]), (-1, [(2, 4)]), (-1, [(6, 4)]), (-1, [(9, 4)])],
]

# printed sign of each determinant entry.  The quadruples come from
# chars.azygetic_quadruple, so the dtable catalog's cross_checked is true by
# construction; the determinant-table check of verify numeric certifies both
_DTABLE_SIGNS = {
    (1, 2): 1, (1, 3): 1, (1, 4): 1, (1, 5): -1, (1, 6): 1,
    (2, 3): 1, (2, 4): 1, (2, 5): -1, (2, 6): 1, (3, 4): -1,
    (3, 5): -1, (3, 6): 1, (4, 5): -1, (4, 6): 1, (5, 6): 1,
}


@dataclass(frozen=True)
class DTableEntry:
    pair: tuple[int, int]
    quadruple: tuple[int, int, int, int]
    sign: int

    def product(self) -> GradedPoly:
        return _mono([(k, 1) for k in self.quadruple], self.sign)


@dataclass(frozen=True)
class RelationRecord:
    kind: str                      # "RelD" | "ExtrA" | "ExtrB"
    indices: tuple
    element: ModuleElement


@dataclass(frozen=True)
class SForm:
    odd_index: int
    even_set: frozenset[int]
    sextet_id: int
    # (odd label, exponents) of each term of the certified five-term
    # relation of this sextet in which this form is cancelled, and the
    # signs the oracle solved for those terms
    cancel_terms: tuple[tuple[int, tuple[int, ...]], ...]
    cancel_signs: tuple[int, ...]


def riemann_ideal() -> list[GradedPoly]:
    """The twenty degree-4 defining relations of the theta ring."""
    out = []
    for rel in _QUARTIC_DATA:
        p = GradedPoly.zero(NVARS)
        for c, pairs in rel:
            p = p + _mono(pairs, c)
        out.append(p)
    return out


@lru_cache(maxsize=1)
def d_table() -> tuple[DTableEntry, ...]:
    """The fifteen gradient-determinant entries with their signs."""
    out = []
    for i, j in itertools.combinations(range(1, 7), 2):
        quad = chars.azygetic_quadruple(i, j)
        out.append(DTableEntry((i, j), quad, _DTABLE_SIGNS[(i, j)]))
    return tuple(out)


def d_entry(i: int, j: int) -> DTableEntry:
    for entry in d_table():
        if entry.pair == (i, j):
            return entry
    raise ValueError(f"no determinant entry ({i}, {j}); need 1 <= i < j <= 6")


@lru_cache(maxsize=1)
def rel_d() -> tuple[RelationRecord, ...]:
    """The twenty three-term relations, one per odd triple.

    For a triple i<j<k the combination D(i,j) T_k - D(i,k) T_j + D(j,k) T_i
    has a unique common theta factor, which is divided out; the result is
    homogeneous of degree 4.
    """
    out = []
    for i, j, k in itertools.combinations(range(1, 7), 3):
        dij, dik, djk = d_entry(i, j), d_entry(i, k), d_entry(j, k)
        common = set(dij.quadruple) & set(dik.quadruple) & set(djk.quadruple)
        if len(common) != 1:
            raise DerivationError(
                f"triple ({i},{j},{k}) has no unique common theta factor: {common}")
        cv = _exps([common.pop()])
        comps = {k: dij.product(), j: dik.product().scale(-1), i: djk.product()}
        parts = []
        for idx in range(1, 7):
            p = comps.get(idx, GradedPoly.zero(NVARS))
            if p.is_zero():
                parts.append(p)
                continue
            q = p.divide_by_monomial(cv)
            if q is None:
                raise DerivationError(
                    f"coefficient of T{idx} in triple ({i},{j},{k}) is not "
                    f"divisible by the common theta")
            parts.append(q)
        elem = ModuleElement(tuple(parts), SHIFTS)
        if not (elem.is_homogeneous() and elem.degree() == 4):
            raise DerivationError(f"three-term relation ({i},{j},{k}) has wrong degree")
        out.append(RelationRecord("RelD", (i, j, k), elem))
    return tuple(out)


def ideal_times_free() -> list[ModuleElement]:
    """Each quartic times each module generator: the ideal layer of every module."""
    out = []
    for q in riemann_ideal():
        for i in range(RANK):
            out.append(ModuleElement.generator(NVARS, RANK, i, shifts=SHIFTS, coeff=q))
    return out


def _scaled_gradients() -> list[ModuleElement]:
    """chi5 T_1, ..., chi5 T_6."""
    chi5 = GradedPoly.monomial(NVARS, CHI5_EXPS)
    return [ModuleElement.generator(NVARS, RANK, i, shifts=SHIFTS, coeff=chi5) for i in range(6)]


def kernel_seed_generators() -> list[ModuleElement]:
    """The three-term relations plus the ideal layer: generators of k0."""
    return [r.element for r in rel_d()] + ideal_times_free()


class UnitWitness(RationalField):
    """QQ noting the product of the numerators and denominators of the lead
    coefficients other than +-1 its runs invert, each a unit modulo m prime to it."""

    leads = 1

    def inv(self, c):
        if c != 1 and c != -1:
            self.leads *= c.numerator * c.denominator
        return super().inv(c)


@lru_cache(maxsize=None)
def _kernel_seed_over_q() -> tuple[EngineBasis, int]:
    """k0 over Q, and the product of the numerators and denominators of
    the leads other than +-1 that its run inverted."""
    order = MonomialOrder(NVARS, rank=RANK)
    witness = UnitWitness()
    elements = buchberger_engine([to_engine(g, order, QQ) for g in kernel_seed_generators()],
                                 order, witness)
    return EngineBasis(elements, order, QQ), witness.leads


# ---------------------------------------------------------------------------
# The multiplication oracle
# ---------------------------------------------------------------------------

def _nullspace(vecs: list[dict], field) -> list[list]:
    """Basis of {c : sum c_i vecs_i = 0} for sparse engine vectors."""
    keys = sorted(set().union(*[set(v) for v in vecs]) if vecs else set(), reverse=True)
    kidx = {k: r for r, k in enumerate(keys)}
    n = len(vecs)
    rows = [[field.convert(0)] * n for _ in keys]
    for ci, v in enumerate(vecs):
        for k, val in v.items():
            rows[kidx[k]][ci] = field.normalize(val)
    pivots = []
    r = 0
    for col in range(n):
        piv = next((rr for rr in range(r, len(rows)) if field.normalize(rows[rr][col])), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = field.inv(rows[r][col])
        rows[r] = [field.normalize(inv * x) for x in rows[r]]
        for rr in range(len(rows)):
            if rr != r and field.normalize(rows[rr][col]):
                f = rows[rr][col]
                rows[rr] = [field.normalize(x - f * y)
                            for x, y in zip(rows[rr], rows[r])]
        pivots.append(col)
        r += 1
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        vec = [field.convert(0)] * n
        vec[fc] = field.convert(1)
        for rr, pc in enumerate(pivots):
            vec[pc] = field.normalize(-rows[rr][fc])
        basis.append(vec)
    return basis


def _multiples_nullspace(basis: EngineBasis,
                         multiples: Sequence[tuple[int, tuple[int, ...]]]) -> list[list]:
    """Nullspace of the normal forms of the monomial multiples x^e * T_comp,
    given as (0-based component, exponents) pairs."""
    order, field = basis.order, basis.field
    one = field.convert(1)
    vecs = [basis.normal_form({order.term_key(order.encode_mono(exps), comp): one})
            for comp, exps in multiples]
    return _nullspace(vecs, field)


def _sign_vector(vec: list, field) -> list[int] | None:
    """Scale a nullspace vector so that its first entry is +1; its entries
    as signs in {-1, +1}, or None if some entry is not a unit sign."""
    if not field.normalize(vec[0]):
        return None
    inv = field.inv(vec[0])
    out = []
    one = field.normalize(field.convert(1))
    minus = field.normalize(field.convert(-1))
    for x in vec:
        v = field.normalize(inv * x)
        if v == one:
            out.append(1)
        elif v == minus:
            out.append(-1)
        else:
            return None
    return out


class RelationOracle:
    """Membership oracle: an element is a relation iff its chi5 multiple lies
    in the module spanned by the three-term relations plus the ideal layer.

    The oracle holds its own copy of k0 over Q and a table with the exact
    normal form of each multiple chi5 x^e T_c it has met, keyed by (c, e)
    with c 0-based: each is computed once, and the sign search and the
    certification read it.  Sign patterns are decided over Q, and an
    element is certified when the sum of its terms' entries is zero, that
    is when its chi5 multiple reduces to zero over Q.
    """

    def __init__(self):
        self.fields = (QQ,)     # the field label of perfbench/tracing.py's oracle span
        k0 = _kernel_seed_over_q()[0]
        # its own copy: the reducer index the normal forms build goes with the oracle
        self.basis = EngineBasis(k0.elements, k0.order, QQ)
        self.table: dict[tuple[int, tuple[int, ...]], dict] = {}

    def _entry(self, comp: int, exps: tuple[int, ...]) -> dict:
        """The normal form of chi5 x^exps T_comp over Q; computed on first
        use."""
        nf = self.table.get((comp, exps))
        if nf is None:
            order = self.basis.order
            key = order.term_key(order.encode_mono(_addexp(CHI5_EXPS, exps)), comp)
            nf = self.table[comp, exps] = self.basis.normal_form({key: 1})
        return nf

    def certify(self, element: ModuleElement) -> bool:
        """chi5 * element reduces to zero over Q: the sum of its terms'
        table entries vanishes."""
        if element.denominator is not None:
            raise ValueError("cannot certify an element carrying a denominator tag")
        total: dict = {}
        for comp, poly in enumerate(element.components):
            for exps, c in poly.terms.items():
                for k, v in self._entry(comp, exps).items():
                    total[k] = total.get(k, 0) + c * v
        return not any(total.values())

    def solve_signs(self, terms: Sequence[tuple[int, tuple[int, ...]]]) -> list[int] | None:
        """Signs s with sum s_i * mono_i * T_{comp_i} a relation, or None.

        Equivalent to enumerating the sign patterns up to a global flip:
        the candidates' normal forms are read off the table, and the
        unique vanishing combination over Q is found; exactly one pattern
        may pass.  The first entry is normalized to +1.
        """
        null = _nullspace([self._entry(comp - 1, exps) for comp, exps in terms], QQ)
        if len(null) != 1:
            return None
        return _sign_vector(null[0], QQ)

    def build_relation(self, kind: str, indices: tuple,
                       terms: Sequence[tuple[int, tuple[int, ...]]]) -> RelationRecord:
        signs = self.solve_signs(terms)
        if signs is None:
            raise DerivationError(
                f"{kind}{indices}: no unique sign pattern passes the oracle")
        return self.signed_relation(kind, indices, terms, signs)

    def signed_relation(self, kind: str, indices: tuple,
                        terms: Sequence[tuple[int, tuple[int, ...]]],
                        signs: Sequence[int]) -> RelationRecord:
        """The relation with the given term signs, certified over Q."""
        comps = {comp: GradedPoly.monomial(NVARS, exps, s)
                 for (comp, exps), s in zip(terms, signs)}
        elem = ModuleElement(
            tuple(comps.get(i, GradedPoly.zero(NVARS)) for i in range(1, 7)), SHIFTS)
        if not self.certify(elem):
            raise DerivationError(f"{kind}{indices}: certification failed")
        return RelationRecord(kind, indices, elem)


@lru_cache(maxsize=1)
def default_oracle() -> RelationOracle:
    """The one oracle of this process; every catalog is derived with it."""
    return RelationOracle()


# ---------------------------------------------------------------------------
# Four-term and five-term relation catalogs
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1)
def extr_a() -> tuple[RelationRecord, ...]:
    """One four-term relation per ordered pair of distinct odd labels.

    The term for T_i squares the unique theta dividing both D(i, alpha) and
    D(alpha, beta); signs come from the oracle, normalized so the first
    term is positive.
    """
    oracle = default_oracle()
    out = []
    for a, b in itertools.permutations(range(1, 7), 2):
        qab = set(d_entry(min(a, b), max(a, b)).quadruple)
        terms = []
        for i in (x for x in range(1, 7) if x not in (a, b)):
            qia = d_entry(min(i, a), max(i, a)).quadruple
            common = set(qia) & qab
            if len(common) != 1:
                raise DerivationError(
                    f"pair ({a},{b}), T{i}: no unique common theta {common}")
            terms.append((i, _addexp(_sq(common.pop()), _exps(qia))))
        rec = oracle.build_relation("ExtrA", (a, b), terms)
        if rec.element.degree() != 7:
            raise DerivationError(f"four-term relation ({a},{b}) has wrong degree")
        out.append(rec)
    return tuple(out)


def _balanced_blocks() -> list[tuple[frozenset[int], ...]]:
    """Blocks of one decomposition per odd label covering each even label
    exactly three times, any two of them sharing exactly two even labels,
    in the order of a depth-first walk over the odd labels 1..6 and their
    decompositions.

    The walk keeps one int with a 3-bit count per even label.  A count
    grows by at most one per step, so a count above three sets its field's
    top bit, which one AND finds; a leaf counts when every field reads 3.
    A partial block is pruned at the first two forms that do not share
    exactly two labels: the forms have five labels each, so the difference
    of the two has not three, and _extr_b_assignments rejects the block
    whenever one of them is cancelled.  No block that sextets keeps is
    lost.
    """
    fields = [1 << 3 * (k - 1) for k in range(1, 11)]
    over = 4 * sum(fields)
    full = 3 * sum(fields)
    decos = [[(d, sum(fields[k - 1] for k in d)) for d in chars.five_term_decompositions(i)]
             for i in range(1, 7)]
    found: list[tuple[frozenset[int], ...]] = []
    # children go on the stack in reverse, so they pop in walk order
    stack = [(0, (), 0)]
    while stack:
        idx, chosen, counts = stack.pop()
        if idx == 6:
            if counts == full:
                found.append(chosen)
            continue
        for d, add in reversed(decos[idx]):
            if not (nxt := counts + add) & over and all(len(d & c) == 2 for c in chosen):
                stack.append((idx + 1, chosen + (d,), nxt))
    return found


def _extr_b_assignments(block: Sequence[frozenset[int]], cancel: int) -> dict[int, int] | None:
    """For each surviving form the unique squared theta label, else None.

    Rule: take the three even labels in the form but not in the cancelled
    one; exactly one pair among them must appear together in none of the
    other four forms; the leftover label is the assignment.
    """
    others = [oi for oi in range(1, 7) if oi != cancel]
    out = {}
    for oi in others:
        diff = block[oi - 1] - block[cancel - 1]
        if len(diff) != 3:
            return None
        hits = []
        for pair in itertools.combinations(sorted(diff), 2):
            if all(not (set(pair) <= block[oj - 1]) for oj in others if oj != oi):
                hits.append(pair)
        if len(hits) != 1:
            return None
        out[oi] = next(iter(diff - set(hits[0])))
    return out


@lru_cache(maxsize=1)
def sextets() -> tuple[tuple[SForm, ...], ...]:
    """The unique partition of the 72 five-factor forms into 12 sextets.

    Candidates are the balanced blocks; a block survives only if all six
    cancellations admit an oracle-certified five-term relation, whose terms
    its forms keep.  All six squared-theta assignments are read before the
    first oracle solve, so a block that one of them rejects costs none.
    The search must produce exactly 12 blocks partitioning all 72 forms.
    """
    oracle = default_oracle()
    valid = []
    for block in _balanced_blocks():
        assignments = [_extr_b_assignments(block, cancel) for cancel in range(1, 7)]
        if any(ms is None for ms in assignments):
            continue
        certified = []
        for cancel, ms in enumerate(assignments, 1):
            terms = tuple((oi, _addexp(_sq(ms[oi]), _exps(block[oi - 1])))
                          for oi in range(1, 7) if oi != cancel)
            signs = oracle.solve_signs(terms)
            if signs is None:
                break
            certified.append((terms, tuple(signs)))
        else:
            valid.append((block, certified))
    if len(valid) != 12:
        raise DerivationError(f"sextet search found {len(valid)} blocks, not 12")
    used = {(oi, d) for b, _ in valid for oi, d in enumerate(b, 1)}
    if len(used) != 72:
        raise DerivationError("sextet blocks do not partition the 72 forms")
    valid.sort(key=lambda v: tuple(sorted(v[0][0])))
    return tuple(
        tuple(SForm(oi, block[oi - 1], sid, *certified[oi - 1]) for oi in range(1, 7))
        for sid, (block, certified) in enumerate(valid, 1))


@lru_cache(maxsize=1)
def extr_b() -> tuple[RelationRecord, ...]:
    """The 72 five-term relations: one per sextet and cancelled member,
    with the signs the sextet search solved."""
    oracle = default_oracle()
    out = []
    for block in sextets():
        for s in block:
            rec = oracle.signed_relation("ExtrB", (s.sextet_id, s.odd_index),
                                         s.cancel_terms, s.cancel_signs)
            if rec.element.degree() != 8:
                raise DerivationError(
                    f"five-term relation ({s.sextet_id},{s.odd_index}) has wrong degree")
            out.append(rec)
    return tuple(out)


@lru_cache(maxsize=1)
def all_relations() -> tuple[RelationRecord, ...]:
    """The three catalogs.  Once they exist the process oracle is dropped,
    and with it the normal-form table and the reducer index of its k0."""
    out = rel_d() + extr_a() + extr_b()
    default_oracle.cache_clear()
    return out


# ---------------------------------------------------------------------------
# The symplectic label action
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1)
def symplectic_label_permutations() -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """All 720 label permutations (even_map, odd_map), sorted; even_map[i-1]
    is the image label of even i.

    They are S6 on the odd labels, each with the even map it induces.  The
    six odd characteristics sum to zero, so each even one is the sum of
    exactly two odd triples, and those are complements.  An affine
    symplectic map m -> Mm + c preserves sums of three characteristics
    (3c = c mod 2), so it sends a triple's even label to its image's.  And
    Sp(4, F2) acts on the odd labels as all of S6.  The first step is
    checked: a DerivationError unless the twenty odd triples hit each even
    characteristic exactly twice, by complements.
    """
    label = {m: k for k, m in enumerate(chars.EVEN_CHARS, 1)}
    odds = frozenset(range(1, 7))
    even_of = {frozenset(t): label.get(chars.char_sum(chars.odd(k) for k in t))
               for t in itertools.combinations(odds, 3)}
    if (any(e != even_of[odds - t] for t, e in even_of.items())
            or set(even_of.values()) != set(range(1, 11))):
        raise DerivationError("the odd triples do not hit each even label twice, by complements")
    out = []
    for odd_map in itertools.permutations(range(1, 7)):
        image = {e: even_of[frozenset(odd_map[k - 1] for k in t)] for t, e in even_of.items()}
        out.append((tuple(image[k] for k in range(1, 11)), odd_map))
    return tuple(sorted(out))


# ---------------------------------------------------------------------------
# The extra generator
# ---------------------------------------------------------------------------

def extr_h() -> ModuleElement:
    """The degree-5 extra generator: a two-component element over (t2 t5)."""
    numer1 = _mono([(4, 1), (6, 4), (8, 1)]) + _mono([(4, 1), (8, 1), (9, 4)])
    numer3 = _mono([(1, 1), (6, 1), (9, 1), (10, 3)], -1)
    comps = [GradedPoly.zero(NVARS)] * 6
    comps[0] = numer1
    comps[2] = numer3
    elem = ModuleElement(tuple(comps), SHIFTS)
    return monomial_divide(elem, _exps([2, 5]))


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------

GRADIENT_MODULE_SERIES = HilbertSeries((0, 6, 36, 126, 316, 606, 252, -318, -60, 60), 4, 0)


class StructurePipeline:
    """Derives the full module structure over one coefficient field.

    The stages form one derivation graph: k0 -> total_kernel -> fifteen
    m_pair -> chi5_m; total_kernel -> gradient_span -> generated; k0 ->
    catalog_span.  A stage's disk-cache key comes from its tag, all its
    generators and its parents' keys, never from their bases; k0 has no
    disk entry.  Over a prime it may read an exact source, a lazy pipeline
    over a UnitWitness with no disk cache: a miss stores the source's basis
    read modulo the prime, and the orbit signs, containments, series and
    completeness run on those.  The source runs no orbit: it builds the
    generated module from its first reader's.
    """

    def __init__(self, field=GFP1, cache_dir: str | None = None, exact=None):
        self.field = field
        self.order = MonomialOrder(NVARS, rank=RANK)
        self.cache = BasisCache(cache_dir)
        self.exact = exact
        self._store: dict = {}
        self._keys: dict = {}

    # -- plumbing -----------------------------------------------------------

    def _key(self, tag: str, gens: Sequence[ModuleElement],
             parents: Sequence[str] = ()) -> str:
        if tag not in self._keys:
            self._keys[tag] = BasisCache.key(
                tag, [element_to_text(g) for g in gens], parents, self.order, self.field)
        return self._keys[tag]

    def _cached_basis(self, tag: str, key: str | None, build, *parents) -> GroebnerBasis:
        """The stage's basis: from the store, else the disk cache (none when
        key is None), else build(pipe, *parent bases) in this pipeline, or in
        its exact source and read modulo this prime, which may divide no lead
        that k0's run or a source run inverted.  Parents are read here too,
        for their entries."""
        if tag not in self._store:
            elements = self.cache.load(key, self.order, self.field) if key else None
            if elements is None:
                bases = [parent(self) for parent in parents]
                if self.exact is None:
                    elements = build(self, *bases)
                else:
                    basis = self.exact._cached_basis(tag, None, build, *parents).engine
                    if self.exact.field.leads * _kernel_seed_over_q()[1] % self.field.p == 0:
                        raise DerivationError(f"{tag}: a Q run inverts a lead divisible "
                                              f"by {self.field.p}")
                    elements = basis.modulo(self.field).elements
                if key:
                    self.cache.store(key, elements, self.field)
            self._store[tag] = GroebnerBasis(EngineBasis(elements, self.order, self.field), SHIFTS)
        return self._store[tag]

    def _kernel_key(self) -> str:
        return self._keys.get("total_kernel") or self._key("total_kernel", kernel_seed_generators())

    def _extension_key(self, tag: str, gens: list[ModuleElement]) -> str:
        return self._key(tag, gens, [self._kernel_key()])

    def _extend(self, tag: str, gens: Sequence[ModuleElement], parent=None,
                key: str | None = None) -> GroebnerBasis:
        """Basis of gens plus that of the stage parent (the kernel by default),
        which seeds it and which only a miss reads; key must determine parent."""
        return self._cached_basis(
            tag, key or self._extension_key(tag, gens),
            lambda pipe, seed: buchberger_engine(pipe._engine(gens), pipe.order, pipe.field,
                                                 seed=seed.engine.elements),
            parent or StructurePipeline.total_kernel)

    def _engine(self, elems: Sequence[ModuleElement]) -> list[dict]:
        return [to_engine(e, self.order, self.field) for e in elems]

    # -- stages --------------------------------------------------------------

    def kernel_seed(self) -> GroebnerBasis:
        """Basis of the three-term module plus the ideal layer, with no disk
        entry; over Q the process's one k0."""
        def build(pipe):
            if pipe.field.p is None:    # QQ, or the exact pass's UnitWitness
                return _kernel_seed_over_q()[0].elements
            return buchberger_engine(pipe._engine(kernel_seed_generators()), pipe.order,
                                     pipe.field)

        return self._cached_basis("kernel_seed", None, build)

    def total_kernel(self) -> GroebnerBasis:
        """The full relation module: colon of the seed by the theta product."""
        return self._cached_basis(
            "total_kernel", self._kernel_key(),
            lambda pipe, k0: module_quotient_engine(k0.engine.elements, CHI5_EXPS,
                                                    pipe.order, pipe.field),
            StructurePipeline.kernel_seed)

    def catalog_span(self) -> GroebnerBasis:
        """Span of the 122 catalog relations plus the ideal layer: k0 plus
        the 102 four- and five-term relations, keyed by all 242 generators."""
        gens = [r.element for r in all_relations()] + ideal_times_free()
        return self._extend("catalog_span", [r.element for r in extr_a() + extr_b()],
                            StructurePipeline.kernel_seed, self._key("catalog_span", gens))

    def completeness_check(self) -> bool:
        """The catalog span equals the colon kernel (reduced-basis equality)."""
        return self.total_kernel().same_module(self.catalog_span())

    def complement_product(self, i: int, j: int) -> tuple[int, ...]:
        quad = set(d_entry(i, j).quadruple)
        return _exps([k for k in range(1, 11) if k not in quad])

    def _pair_generators(self, i: int, j: int) -> list[ModuleElement]:
        P = GradedPoly.monomial(NVARS, self.complement_product(i, j))
        return [ModuleElement.generator(NVARS, RANK, idx - 1, shifts=SHIFTS, coeff=P)
                for idx in (i, j)]

    def m_pair(self, i: int, j: int) -> GroebnerBasis:
        """Lift of the localized two-generator module: P T_i, P T_j, kernel."""
        if not 1 <= i < j <= 6:
            raise ValueError("need odd labels i < j")
        return self._extend(f"m_pair_{i}_{j}", self._pair_generators(i, j))

    def chi5_m(self) -> GroebnerBasis:
        """Intersection of the fifteen localized modules."""
        pairs = list(itertools.combinations(range(1, 7), 2))
        parents = [self._extension_key(f"m_pair_{i}_{j}", self._pair_generators(i, j))
                   for i, j in pairs]
        return self._cached_basis(
            "chi5_m", self._key("chi5_m", [], parents),
            lambda pipe, *mods: intersect_engine([m.engine.elements for m in mods],
                                                 pipe.order, pipe.field),
            *[partial(StructurePipeline.m_pair, i=i, j=j) for i, j in pairs])

    def gradient_span(self) -> GroebnerBasis:
        """chi5-scaled gradients plus the kernel: the lift of the inner module."""
        return self._extend("gradient_span", _scaled_gradients())

    # -- the orbit -----------------------------------------------------------

    @staticmethod
    def _permute_exps(exps: Sequence[int], even_map: Sequence[int]) -> tuple[int, ...]:
        out = [0] * NVARS
        for k in range(1, 11):
            out[even_map[k - 1] - 1] = exps[k - 1]
        return tuple(out)

    def orbit_extr_h(self) -> list[ModuleElement]:
        """Projectively distinct images of the extra generator, certified.

        Each label permutation maps the three numerator monomials and the
        denominator; a candidate is kept when some coefficient combination
        of the permuted monomials has its chi5 multiple inside the
        intersection module.  The combination is recovered from the normal
        forms of the individual multiples, must be one-dimensional, and
        must have unit coefficients.  Returned elements carry their
        denominator tags; the member count is the orbit size.
        """
        if "orbit" in self._store:
            return self._store["orbit"]
        base = extr_h()
        terms = [(ci, exps) for ci, p in enumerate(base.components) for exps in p.terms]
        denom = base.denominator
        cm = self.chi5_m()
        seen: dict = {}
        for even_map, odd_map in symplectic_label_permutations():
            p_denom = self._permute_exps(denom, even_map)
            clear = tuple(a - b for a, b in zip(CHI5_EXPS, p_denom))
            if any(x < 0 for x in clear):
                raise DerivationError("permuted denominator does not divide the product")
            # cleared support: the chi5 multiples decide membership and identity
            p_terms = sorted(
                (odd_map[ci] - 1, _addexp(self._permute_exps(exps, even_map), clear))
                for ci, exps in terms)
            support = tuple(p_terms)
            if support in seen:
                continue
            null = _multiples_nullspace(cm.engine, p_terms)
            if not null:
                seen[support] = None
                continue
            if len(null) > 1:
                raise DerivationError("orbit candidate admits a relation space of dim > 1")
            signs = _sign_vector(null[0], self.field)
            if signs is None:
                raise DerivationError("orbit candidate has non-unit coefficients")
            comps = [GradedPoly.zero(NVARS)] * RANK
            for (comp, exps), s in zip(p_terms, signs):
                numer = tuple(a - b for a, b in zip(exps, clear))
                comps[comp] = comps[comp] + GradedPoly.monomial(NVARS, numer, s)
            seen[support] = ModuleElement(tuple(comps), SHIFTS, p_denom)
        orbit = [seen[k] for k in sorted(seen) if seen[k] is not None]
        self._store["orbit"] = orbit
        return orbit

    def generated_module(self) -> GroebnerBasis:
        """Span of the scaled gradients, the orbit multiples, and the kernel:
        the gradient span plus the 360 orbit multiples."""
        orbit = [clear_denominator(e, CHI5_EXPS) for e in self.orbit_extr_h()]
        key = self._extension_key("generated", _scaled_gradients() + orbit)

        def seed(pipe):     # the source builds from its first reader's orbit
            if pipe.exact and pipe.exact._store.setdefault("generated_orbit", orbit) != orbit:
                raise DerivationError(f"generated: the orbit over {pipe.field.name} is not "
                                      "the one the exact pass built from")
            return pipe.gradient_span()

        return self._extend("generated", orbit, seed, key)

    # -- series and the main check --------------------------------------------

    def module_series(self) -> HilbertSeries:
        """Series of the intersection module, shifted down by the product
        degree; computed once per pipeline."""
        if "series" not in self._store:
            hs_kernel = self.total_kernel().hilbert_series()
            hs_cm = self.chi5_m().hilbert_series()
            self._store["series"] = (hs_kernel - hs_cm).shifted(-10)
        return self._store["series"]

    def kernel_report(self) -> dict:
        """This field's check in `theta2 verify kernel`: every catalog
        relation lies in the colon kernel."""
        kernel = self.total_kernel()
        rels = all_relations()
        missing = [str(r.indices) for r in rels if not kernel.contains(r.element)]
        return {
            "name": f"catalog-in-kernel[{self.field.name}]",
            "relations": len(rels),
            "missing": missing,
            "status": "pass" if not missing else "fail",
        }

    def allrel_report(self) -> dict:
        """This field's check in `theta2 verify allrel`: the catalog span
        equals the colon kernel."""
        kernel = self.total_kernel()
        return {
            "name": f"kernel-equals-catalog-span[{self.field.name}]",
            "basis_size": len(kernel),
            "fingerprint": kernel.structure_fingerprint(),
            "status": "pass" if self.completeness_check() else "fail",
        }

    def structure_report(self) -> dict:
        """This field's run in the `theta2 structure` report.

        The status is "pass" only when the orbit has 360 elements and every
        boolean check holds, kernel completeness included.
        """
        cm = self.chi5_m()
        orbit_size = len(self.orbit_extr_h())
        gen = self.generated_module()
        chi5h = clear_denominator(extr_h(), CHI5_EXPS)
        series = self.module_series()
        reduced = series.reduced()
        checks = {
            "generated_in_intersection": all(
                cm.engine.contains(e) for e in gen.engine.elements),
            "intersection_in_generated": gen.same_module(cm),
            "series_matches": reduced.same_rational_function(GRADIENT_MODULE_SERIES),
            "extr_h_in_intersection": cm.contains(chi5h),
            "extr_h_outside_gradient_span": not self.gradient_span().contains(chi5h),
            "kernel_equals_catalog_span": self.completeness_check(),
        }
        return {
            "field": self.field.name,
            "orbit_size": orbit_size,
            **checks,
            "series_numerator": list(reduced.numerator),
            "series_denominator_exponent": reduced.denom_exp,
            "series_shift": reduced.shift,
            "series": reduced.to_text(),
            "coefficients_t1_t12": series.expand(12)[1:],
            "fingerprints": {
                "total_kernel": self.total_kernel().structure_fingerprint(),
                "chi5_m": cm.structure_fingerprint(),
                "generated": gen.structure_fingerprint(),
            },
            "status": "pass" if orbit_size == 360 and all(checks.values()) else "fail",
        }


# ---------------------------------------------------------------------------
# Second-kind module presentations
# ---------------------------------------------------------------------------

PAIR_INDEX = {p: i for i, p in enumerate(itertools.combinations(range(4), 2))}
TRIPLE_INDEX = {t: i for i, t in enumerate(itertools.combinations(range(4), 3))}


def _f_var(i: int) -> GradedPoly:
    return GradedPoly.variable(4, i)


def _pair_gen(i: int, j: int, coeff: GradedPoly) -> ModuleElement:
    """coeff * B_{ij} with antisymmetry folded onto i < j generators."""
    sign = 1
    if i > j:
        i, j, sign = j, i, -1
    return ModuleElement.generator(4, 6, PAIR_INDEX[(i, j)], shifts=(2,) * 6,
                                   coeff=coeff.scale(sign))


def bracket_modules() -> dict:
    """Presentations and series of the two second-kind bracket modules.

    The symmetric-square module has six degree-2 generators B_{ij} with the
    relation family f_k B_{ij} = f_j B_{ik} + f_i B_{kj}, alternating in
    (i, j, k), so one relation per triple i < j < k;
    the twisted module has four degree-5 generators with a single degree-6
    relation.
    """
    plus_rels = [_pair_gen(i, j, _f_var(k)) - _pair_gen(i, k, _f_var(j))
                 + _pair_gen(j, k, _f_var(i))
                 for i, j, k in itertools.combinations(range(4), 3)]

    plus_gb = buchberger_engine(
        [to_engine(r, MonomialOrder(4, rank=6), QQ) for r in plus_rels],
        MonomialOrder(4, rank=6), QQ)
    plus_series = hilbert_series_engine(plus_gb, MonomialOrder(4, rank=6), (2,) * 6)

    minus_rel = (
        ModuleElement.generator(4, 4, TRIPLE_INDEX[(0, 1, 2)], shifts=(5,) * 4,
                                coeff=_f_var(3))
        - ModuleElement.generator(4, 4, TRIPLE_INDEX[(0, 1, 3)], shifts=(5,) * 4,
                                  coeff=_f_var(2))
        + ModuleElement.generator(4, 4, TRIPLE_INDEX[(0, 2, 3)], shifts=(5,) * 4,
                                  coeff=_f_var(1))
        - ModuleElement.generator(4, 4, TRIPLE_INDEX[(1, 2, 3)], shifts=(5,) * 4,
                                  coeff=_f_var(0)))
    minus_gb = buchberger_engine(
        [to_engine(minus_rel, MonomialOrder(4, rank=4), QQ)],
        MonomialOrder(4, rank=4), QQ)
    minus_series = hilbert_series_engine(minus_gb, MonomialOrder(4, rank=4), (5,) * 4)

    return {
        "plus": {
            "generators": [f"B{i}{j}" for i, j in itertools.combinations(range(4), 2)],
            "relations": plus_rels,
            "series": plus_series,
            "dimensions": plus_series.expand(8),
        },
        "minus": {
            "generators": [f"C{i}{j}{k}" for i, j, k in itertools.combinations(range(4), 3)],
            "relations": [minus_rel],
            "series": minus_series,
            "dimensions": minus_series.expand(8),
        },
    }


# ---------------------------------------------------------------------------
# Catalog JSON
# ---------------------------------------------------------------------------

def catalog_json(which: str) -> dict:
    """Build the requested catalog with per-entry verification status."""
    if which == "chars":
        return chars.catalog()
    if which == "riemann":
        return {"quartics": [poly_to_text(q) for q in riemann_ideal()]}
    if which == "dtable":
        return {"entries": [
            {"pair": list(e.pair), "quadruple": list(e.quadruple), "sign": e.sign,
             "cross_checked": e.quadruple == chars.azygetic_quadruple(*e.pair)}
            for e in d_table()]}
    if which == "reld":
        return {"relations": [
            {"indices": list(r.indices), "element": element_to_text(r.element)}
            for r in rel_d()]}
    if which == "extra":
        return {"relations": [
            {"indices": list(r.indices), "element": element_to_text(r.element),
             "certified": True}
            for r in extr_a()]}
    if which == "sextets":
        return {"blocks": [
            [{"odd": s.odd_index, "evens": sorted(s.even_set)} for s in block]
            for block in sextets()]}
    if which == "extrb":
        return {"relations": [
            {"sextet": r.indices[0], "cancelled": r.indices[1],
             "element": element_to_text(r.element), "certified": True}
            for r in extr_b()]}
    raise ValueError(f"unknown catalog {which!r}")
