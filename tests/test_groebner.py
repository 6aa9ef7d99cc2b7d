import hashlib
import heapq
import json
import os
import random
import sys
from collections import defaultdict
from fractions import Fraction
from functools import partial
from itertools import combinations_with_replacement
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from theta2 import groebner as gb
from theta2.errors import DerivationError
from theta2.groebner import (
    GFP1,
    GFP2,
    PRIME1,
    QQ,
    BasisCache,
    EngineBasis,
    GroebnerBasis,
    MonomialOrder,
    buchberger_engine,
    hilbert_series_engine,
    intersect_engine,
    intersect_pair_engine,
    module_quotient_engine,
    to_engine,
)
from theta2.symbolic import GradedPoly, HilbertSeries, ModuleElement
from theta2.thetaring import NVARS, riemann_ideal

from syzygy_route import syzygy_engine

ORDER2 = MonomialOrder(2)
ORDER3 = MonomialOrder(3)


def V(n, i):
    return GradedPoly.variable(n, i)


def E(items, order, field=QQ):
    """Engine dicts of symbolic elements in the given order and field."""
    return [to_engine(e, order, field) for e in items]


def test_trivial_basis_two_variables():
    x, y = V(2, 0), V(2, 1)
    # leads ascend: y < x in graded reverse lex
    assert buchberger_engine(E([x, y], ORDER2), ORDER2, QQ) == E([y, x], ORDER2)


def test_textbook_membership():
    x, y = V(2, 0), V(2, 1)
    one = GradedPoly.constant(2, 1)
    basis = EngineBasis(buchberger_engine(E([x * x - one, x * y - one], ORDER2), ORDER2, QQ),
                        ORDER2, QQ)
    [diff, xe] = E([y - x, x], ORDER2)
    assert basis.contains(diff)
    assert not basis.contains(xe)
    assert basis.normal_form(diff) == {}


def test_buchberger_idempotent():
    x, y, z = (V(3, i) for i in range(3))
    gens = [x * y - z * z, y * y + x * z, x * x * z - y * z * z]
    first = buchberger_engine(E(gens, ORDER3), ORDER3, QQ)
    assert buchberger_engine(first, ORDER3, QQ) == first


def test_normal_form_of_irreducible_monomial():
    x, y = V(2, 0), V(2, 1)
    basis = EngineBasis(buchberger_engine(E([x * x, x * y], ORDER2), ORDER2, QQ), ORDER2, QQ)
    [p] = E([y * y * y], ORDER2)
    assert basis.normal_form(p) == p


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**9))
def test_membership_coherence_random_combinations(seed):
    rng = random.Random(seed)
    n = 3
    gens = []
    for _ in range(3):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            e = tuple(rng.randint(0, 2) for _ in range(n))
            terms[e] = Fraction(rng.choice([-2, -1, 1, 2, 3]))
        gens.append(GradedPoly(n, terms))
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return
    basis = EngineBasis(buchberger_engine(E(gens, ORDER3), ORDER3, QQ), ORDER3, QQ)
    combo = GradedPoly.zero(n)
    for g in gens:
        c = {tuple(rng.randint(0, 1) for _ in range(n)): Fraction(rng.randint(-2, 2))}
        combo = combo + g * GradedPoly(n, c)
    assert basis.contains(to_engine(combo, ORDER3, QQ))


def _sympy_basis(gens, n):
    """sympy's reduced grevlex basis as engine dicts, sorted by lead key."""
    import sympy as sp
    from sympy.polys.groebnertools import groebner as spg

    ring, *_ = sp.xring(",".join(f"x{i}" for i in range(n)), sp.QQ, "grevlex")
    converted = []
    for g in gens:
        q = ring.zero
        for exps, c in g.terms.items():
            mono = ring.one
            for xv, e in zip(ring.gens, exps):
                mono *= xv**e
            q += sp.Rational(c.numerator, c.denominator) * mono
        converted.append(q)
    out = spg([q for q in converted if q != ring.zero], ring)
    polys = [GradedPoly(n, {tuple(m): Fraction(int(c.numerator), int(c.denominator))
                            for m, c in p.terms()}) for p in out]
    return sorted(E(polys, MonomialOrder(n)), key=max)


@pytest.mark.parametrize("seed", [1, 2, 5, 9])
def test_reduced_basis_matches_sympy(seed):
    rng = random.Random(seed)
    n = rng.choice([2, 3])
    gens = []
    for _ in range(rng.choice([2, 3])):
        terms = {}
        for _ in range(rng.randint(2, 4)):
            e = tuple(rng.randint(0, 2) for _ in range(n))
            c = rng.randint(-3, 3) or 1
            terms[e] = terms.get(e, 0) + Fraction(c)
        terms = {k: v for k, v in terms.items() if v}
        if terms:
            gens.append(GradedPoly(n, terms))
    if not gens:
        pytest.skip("degenerate sample")
    order = MonomialOrder(n)
    assert buchberger_engine(E(gens, order), order, QQ) == _sympy_basis(gens, n)


def test_rational_field_keeps_integers_as_int():
    # 1 / c of an int is a float, so inv must never take that route
    half = QQ.inv(2)
    assert half == Fraction(1, 2) and type(half) is Fraction
    assert type(QQ.inv(-1)) is int and QQ.inv(-1) == -1
    assert type(QQ.inv(Fraction(-1, 3))) is int and QQ.inv(Fraction(-1, 3)) == -3
    assert type(QQ.convert(Fraction(6, 3))) is int and QQ.convert(Fraction(6, 3)) == 2
    assert type(QQ.normalize(Fraction(4, 2))) is int
    assert type(QQ.convert(Fraction(1, 2))) is Fraction


def test_prime_field_lift_is_the_symmetric_int():
    assert GFP1.lift(PRIME1 - 2) == -2 and type(GFP1.lift(PRIME1 - 2)) is int
    assert GFP1.lift(3) == 3 and GFP1.lift(PRIME1 // 2) == PRIME1 // 2


def test_rational_basis_reads_modulo_n_through_convert():
    # a Fraction maps to its numerator times the inverse of its
    # denominator, and a term whose numerator p divides drops out
    a, b = (ORDER2.term_key(ORDER2.encode_mono(e), 0) for e in ((1, 0), (0, 1)))
    basis = EngineBasis([{a: 1, b: Fraction(PRIME1, 3)}], ORDER2, QQ)
    for field in (GFP1, GFP2):
        (e,) = basis.modulo(field).elements
        assert e[a] == 1
        assert e.get(b, 0) == PRIME1 * pow(3, -1, field.p) % field.p
    assert b not in basis.modulo(GFP1).elements[0]
    # a rational run whose inverted leads, 2 and 7/2, are units modulo p1 and p2
    x, y = V(2, 0), V(2, 1)
    gens = [x + x + y, y * y + y * y + y * y - x * y]     # 2x + y, 3y^2 - xy
    rational = EngineBasis(buchberger_engine(E(gens, ORDER2), ORDER2, QQ), ORDER2, QQ)
    assert Fraction(1, 2) in [c for e in rational.elements for c in e.values()]
    for field in (GFP1, GFP2):
        direct = buchberger_engine(E(gens, ORDER2, field), ORDER2, field)
        assert rational.modulo(field).elements == direct


def test_rational_basis_of_integral_input_has_int_coefficients():
    # the quartics have unit leads: no Fraction is ever made for them
    order = MonomialOrder(NVARS)
    basis = buchberger_engine([to_engine(q, order, QQ) for q in riemann_ideal()], order, QQ)
    assert {type(c) for e in basis for c in e.values()} == {int}


def test_rational_basis_with_non_unit_lead_matches_sympy():
    x, y = V(2, 0), V(2, 1)
    gens = [x + x + y, y * y + y * y + y * y - x * y]     # 2x + y, 3y^2 - xy
    basis = buchberger_engine(E(gens, ORDER2), ORDER2, QQ)
    assert basis == _sympy_basis(gens, 2)
    assert Fraction(1, 2) in [c for e in basis for c in e.values()]


def test_rational_remainder_keeps_integral_coefficients_as_int():
    # 3 t1^2 t2 + 5 t1 t2^2 and 5 t1^2 t2 + 5 t2^3: a remainder coefficient
    # sums fractions to the integer 1
    x, y = V(2, 0), V(2, 1)
    gens = [(x * x * y).scale(3) + (x * y * y).scale(5),
            (x * x * y).scale(5) + (y * y * y).scale(5)]
    basis = buchberger_engine(E(gens, ORDER2), ORDER2, QQ)
    assert basis == _sympy_basis(gens, 2)
    coeffs = [c for e in basis for c in e.values()]
    assert Fraction(-3, 5) in coeffs
    assert all(type(c) is int for c in coeffs if c == int(c))


def test_koszul_syzygy():
    x, y = V(2, 0), V(2, 1)
    syz = syzygy_engine(E([x, y], ORDER2), [], ORDER2, QQ)
    # the one syzygy y*e0 - x*e1, monic at its lead x*e1
    assert syz == E([ModuleElement((-y, x), (1, 1))], MonomialOrder(2, rank=2))


def test_kernel_of_free_targets_is_zero():
    order = MonomialOrder(2, rank=2)
    targets = [ModuleElement.generator(2, 2, i, shifts=(1, 1)) for i in range(2)]
    assert syzygy_engine(E(targets, order), [], order, QQ) == []


def test_module_quotient_monomial_toy():
    x, y = V(2, 0), V(2, 1)
    base = buchberger_engine(E([x * y], ORDER2), ORDER2, QQ)
    assert module_quotient_engine(base, (1, 0), ORDER2, QQ) == E([y], ORDER2)


def test_module_quotient_by_one_is_identity():
    x, y = V(2, 0), V(2, 1)
    base = buchberger_engine(E([x * x + y * y, x * y], ORDER2), ORDER2, QQ)
    assert module_quotient_engine(base, (0, 0), ORDER2, QQ) == base


def test_module_quotient_general_matches_monomial_path():
    # the syzygy route and the intersection route agree on homogeneous
    # input, for monomials of one, two and three variables and a square
    rng = random.Random(4)
    n = 3
    order = MonomialOrder(n, rank=2)
    gens = []
    for _ in range(4):
        comps = [GradedPoly.zero(n), GradedPoly.zero(n)]
        d = rng.randint(1, 2)
        c = rng.randint(0, 1)
        terms = {}
        for _ in range(2):
            e = [0] * n
            for _ in range(d):
                e[rng.randrange(n)] += 1
            terms[tuple(e)] = Fraction(rng.choice([-1, 1, 2]))
        comps[c] = GradedPoly(n, terms)
        gens.append(ModuleElement(tuple(comps), (1, 1)))
    base = buchberger_engine(E(gens, order), order, QQ)
    prepared = EngineBasis(base, order, QQ)
    for mono in [(1, 0, 0), (1, 1, 0), (2, 0, 1), (1, 1, 1)]:
        fast = module_quotient_engine(base, mono, order, QQ)
        f_mono = GradedPoly.monomial(n, mono)
        targets = [ModuleElement.generator(n, 2, i, shifts=(1, 1), coeff=f_mono)
                   for i in range(2)]
        slow = buchberger_engine(syzygy_engine(E(targets, order), base, order, QQ),
                                 order, QQ)
        assert fast == slow and fast != base
        # every generator of the colon multiplies back into the module
        by_m = order.key_mul_delta(order.encode_mono(mono))
        for e in fast:
            assert prepared.contains({k + by_m: c for k, c in e.items()})


def test_intersect_single_and_pair():
    x, y = V(2, 0), V(2, 1)
    a = buchberger_engine(E([x], ORDER2), ORDER2, QQ)
    b = buchberger_engine(E([y], ORDER2), ORDER2, QQ)
    assert intersect_engine([a], ORDER2, QQ) == a
    assert intersect_engine([a, b], ORDER2, QQ) == E([x * y], ORDER2)


def test_intersect_symmetric_and_associative():
    x, y, z = (V(3, i) for i in range(3))
    a, b, c = (buchberger_engine(E([g], ORDER3), ORDER3, QQ)
               for g in (x * y - z * z, y, x + z))

    def meet(*mods):
        return intersect_engine(list(mods), ORDER3, QQ)

    assert meet(a, b) == meet(b, a)
    assert meet(meet(a, b), c) == meet(a, meet(b, c))


def test_intersection_members_reduce_in_both():
    x, y = V(2, 0), V(2, 1)
    a = buchberger_engine(E([x * x, y * y * x], ORDER2), ORDER2, QQ)
    b = buchberger_engine(E([x * y + y * y], ORDER2), ORDER2, QQ)
    meet = intersect_engine([a, b], ORDER2, QQ)
    assert meet
    for e in meet:
        assert EngineBasis(a, ORDER2, QQ).contains(e)
        assert EngineBasis(b, ORDER2, QQ).contains(e)


def _contained_pairs():
    """(a, b, order) with <a> a proper submodule of <b>: an ideal pair and a
    rank-2 module pair, both as reduced bases."""
    x, y, z = (V(3, i) for i in range(3))
    ideal = (buchberger_engine(E([x * y, x * z * z + y * y * y], ORDER3), ORDER3, QQ),
             buchberger_engine(E([x, y * y * y], ORDER3), ORDER3, QQ), ORDER3)
    u, v = V(2, 0), V(2, 1)
    zero = GradedPoly.zero(2)
    order = MonomialOrder(2, rank=2)
    g1, g2 = ModuleElement((u, v), (1, 1)), ModuleElement((zero, u), (1, 1))
    module = (buchberger_engine(E([g1.mul_poly(u) + g2.mul_poly(v), g1.mul_poly(v)],
                                  order), order, QQ),
              buchberger_engine(E([g1, g2], order), order, QQ), order)
    return [ideal, module]


@pytest.mark.parametrize("case", range(2), ids=["ideal", "rank-2 module"])
def test_intersect_pair_returns_contained_basis(case):
    a, b, order = _contained_pairs()[case]
    assert len(a) > 1 and not all(EngineBasis(a, order, QQ).contains(e) for e in b)
    # <a> lies in <b>: the containment check returns a itself, and the
    # swapped call, which cannot skip, eliminates to the same reduced basis
    assert intersect_pair_engine(a, b, order, QQ) is a
    assert intersect_pair_engine(b, a, order, QQ) == a


def test_intersect_pair_eliminates_when_not_contained():
    x, y, z = (V(3, i) for i in range(3))
    # z^2 lies in <z> and x*y does not, so the check fails on the second element
    a = buchberger_engine(E([x * y, z * z], ORDER3), ORDER3, QQ)
    b = buchberger_engine(E([z], ORDER3), ORDER3, QQ)
    assert EngineBasis(b, ORDER3, QQ).contains(a[0])
    meet = intersect_pair_engine(a, b, ORDER3, QQ)
    assert meet == buchberger_engine(E([z * z, x * y * z], ORDER3), ORDER3, QQ)
    assert intersect_pair_engine(b, a, ORDER3, QQ) == meet


def test_intersect_fold_with_skipped_step_matches_other_order():
    x, y, z = (V(3, i) for i in range(3))
    a, b, c = (buchberger_engine(E(gens, ORDER3), ORDER3, QQ)
               for gens in ([x + z], [y * y], [x * y + y * z, y * y * y]))
    first = intersect_pair_engine(a, b, ORDER3, QQ)
    # step 1 changes the basis, step 2 finds it inside c and skips
    assert first != a
    assert intersect_pair_engine(first, c, ORDER3, QQ) is first
    fold = intersect_engine([a, b, c], ORDER3, QQ)
    assert fold == first
    other = intersect_pair_engine(intersect_pair_engine(c, b, ORDER3, QQ), a, ORDER3, QQ)
    assert other == fold


def _is_intersection(meet, a, b, order, shifts):
    """meet lies in <a> and <b>, and HS(F/meet) + HS(F/(a+b)) = HS(F/a) +
    HS(F/b): for graded modules this proves meet is the intersection."""
    in_a, in_b = EngineBasis(a, order, QQ), EngineBasis(b, order, QQ)
    inside = all(in_a.contains(e) and in_b.contains(e) for e in meet)
    total = buchberger_engine(b, order, QQ, seed=a)
    hs = [hilbert_series_engine(g, order, shifts) for g in (meet, total, a, b)]
    return inside and (hs[0] + hs[1]).same_rational_function(hs[2] + hs[3])


def test_intersect_pair_shared_part_not_a_basis(monkeypatch):
    x, y, z = (V(3, i) for i in range(3))
    a = buchberger_engine(E([x * x - y * z, x * y, y * y], ORDER3), ORDER3, QQ)
    b = buchberger_engine(E([x * x - y * z, x * y, z * z * z], ORDER3), ORDER3, QQ)
    shared = [e for e in a if e in b]
    # x^2 - yz and xy are shared; their S-pair gives y^2 z, so the shared
    # part is not a Groebner basis and the one elimination must complete it
    assert len(shared) == 2 and buchberger_engine(shared, ORDER3, QQ) != shared
    calls = []
    real = gb._schreyer_completion

    def counted(gens, half, order, field):
        calls.append((list(gens), half, order))
        return real(gens, half, order, field)

    with monkeypatch.context() as m:
        m.setattr(gb, "_schreyer_completion", counted)
        meet = intersect_pair_engine(a, b, ORDER3, QQ)
    # one elimination, from (a, 0) and then (b, b); the shared elements go
    # in as (s, s) like the rest of b, and (s, 0) reduces them to (0, s)
    [(gens, half, ext)] = calls
    assert ext.descriptor == (3, 2)
    assert half == len(a)
    assert gens[:half] == [{k | ext.fbit: c for k, c in e.items()} for e in a]
    assert gens[half:] == [{k2: c for k, c in e.items() for k2 in (k | ext.fbit, k - 1)}
                           for e in b]
    assert meet != a and meet != b
    assert intersect_pair_engine(b, a, ORDER3, QQ) == meet
    assert _is_intersection(meet, a, b, ORDER3, (0,))


def _random_pair(rng):
    """Reduced bases a, b of random graded ideals in 3 variables or rank-2
    modules with shifts (0, 1), and their order and shifts.  Both contain a
    common basis K, and every extra generator has a degree above all of K,
    so K's elements stay in both reduced bases."""
    rank = rng.choice([1, 2])
    order = MonomialOrder(3, rank=rank)
    shifts = (0, 1)[:rank]

    def element(deg):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            comp = rng.randrange(rank)
            e = [0, 0, 0]
            for _ in range(deg - shifts[comp]):
                e[rng.randrange(3)] += 1
            terms[order.term_key(order.encode_mono(tuple(e)), comp)] = Fraction(
                rng.choice([-3, -2, -1, 1, 2, 3]))
        return terms

    k = buchberger_engine([element(rng.randint(1, 2)) for _ in range(rng.randint(1, 2))],
                          order, QQ)
    top = max(sum(order.decode_mono(order.split_key(t)[0])) + shifts[order.split_key(t)[1]]
              for e in k for t in e)
    a, b = (buchberger_engine(k + [element(top + rng.randint(1, 2))
                                   for _ in range(rng.randint(1, 2))], order, QQ)
            for _ in range(2))
    return a, b, order, shifts


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_intersect_pair_random_shared_pairs(seed):
    a, b, order, shifts = _random_pair(random.Random(seed))
    assert any(e in b for e in a)
    # the seed of the elimination: a lifted into the dominating summand is
    # still a reduced basis
    ext = MonomialOrder(3, 2 * order.rank)
    lifted = [{k | ext.fbit: c for k, c in e.items()} for e in a]
    assert buchberger_engine(lifted, ext, QQ) == lifted
    meet = intersect_pair_engine(a, b, order, QQ)
    assert _is_intersection(meet, a, b, order, shifts)
    assert buchberger_engine([], order, QQ, seed=meet) == meet
    assert intersect_pair_engine(b, a, order, QQ) == meet


def _random_element(rng, order, field):
    """An engine element of 1 to 3 terms of one degree, 1 to 3, in random
    components."""
    deg = rng.randint(1, 3)
    terms = {}
    for _ in range(rng.randint(1, 3)):
        e = [0] * order.nvars
        for _ in range(deg):
            e[rng.randrange(order.nvars)] += 1
        terms[order.term_key(order.encode_mono(tuple(e)), rng.randrange(order.rank))] = (
            field.convert(rng.choice([-3, -2, -1, 1, 2, 3])))
    return terms


def _random_module_pair(rng, field):
    """Reduced bases a, b of two random submodules in 2 to 5 variables and
    rank 1 to 3, each from 1 to 6 generators of degree 1 to 3, and their
    order."""
    nvars, rank = rng.randint(2, 5), rng.randint(1, 3)
    order = MonomialOrder(nvars, rank=rank)
    a, b = (buchberger_engine([_random_element(rng, order, field)
                               for _ in range(rng.randint(1, 6))], order, field)
            for _ in range(2))
    return a, b, order


def _buchberger_elimination(a, b, order, field):
    """<a> intersect <b> by the elimination that intersect_pair_engine
    replaced: the Buchberger loop in F + F, seeded with (a, 0), on (b, b)."""
    r = order.rank
    ext = MonomialOrder(order.nvars, 2 * r)
    seed = [{k | ext.fbit: c for k, c in e.items()} for e in a]
    gens = [{k2: c for k, c in e.items() for k2 in (k | ext.fbit, k - r)} for e in b]
    return [{k + r: c for k, c in e.items()}
            for e in buchberger_engine(gens, ext, field, seed=seed) if not max(e) & ext.fbit]


@pytest.mark.parametrize("field", [GFP1, QQ], ids=["p1", "q"])
def test_intersect_pair_matches_buchberger_elimination(field):
    # the signature completion against the Buchberger elimination, on
    # random module pairs; a rewrite rule that drops a candidate it must
    # keep loses a basis element here in a few percent of the pairs
    for seed in range(100):
        a, b, order = _random_module_pair(random.Random(seed), field)
        expected = _buchberger_elimination(a, b, order, field)
        assert intersect_pair_engine(a, b, order, field) == expected, seed
        assert intersect_pair_engine(b, a, order, field) == expected, seed


def _reference_basis(gens, order, field):
    """Reduced basis of <gens> with no pair criterion: rows are reduced by
    their first divisor, and the S-element of every two rows of one
    component is reduced, lowest lcm first, until all of them reduce to
    zero; the engine, given that Groebner basis as a seed, only
    interreduces it."""
    def lead(e):
        enc, comp = order.split_key(max(e))
        return comp, order.decode_mono(enc)

    def add_multiple(f, g, exps, c):
        """f + c * x^exps * g"""
        out = dict(f)
        for k, v in g.items():
            enc, comp = order.split_key(k)
            m = tuple(a + b for a, b in zip(order.decode_mono(enc), exps))
            key = order.term_key(order.encode_mono(m), comp)
            s = field.normalize(out.get(key, 0) + c * v)
            if s:
                out[key] = s
            else:
                out.pop(key, None)
        return out

    def reduce(f):
        out = {}
        while f:
            top = max(f)
            comp, m = lead(f)
            for g in rows:
                gc, gm = lead(g)
                if gc == comp and all(a <= b for a, b in zip(gm, m)):
                    f = add_multiple(f, g, [b - a for a, b in zip(gm, m)],
                                     -f[top] * field.inv(g[max(g)]))
                    break
            else:
                out[top] = f.pop(top)
        return out

    rows = []
    pairs = []              # (lcm key, i, j): the lowest lcm first
    todo = [dict(e) for e in gens]
    while todo or pairs:
        if todo:
            red = reduce(todo.pop())
        else:
            _, i, j = heapq.heappop(pairs)
            (_, mi), (_, mj) = lead(rows[i]), lead(rows[j])
            lcm = [max(a, b) for a, b in zip(mi, mj)]
            s = add_multiple({}, rows[i], [a - b for a, b in zip(lcm, mi)],
                             field.inv(rows[i][max(rows[i])]))
            red = reduce(add_multiple(s, rows[j], [a - b for a, b in zip(lcm, mj)],
                                      -field.inv(rows[j][max(rows[j])])))
        if red:
            comp, m = lead(red)
            for i, g in enumerate(rows):
                gc, gm = lead(g)
                if gc == comp:
                    lcm = tuple(max(a, b) for a, b in zip(gm, m))
                    heapq.heappush(pairs, (order.term_key(order.encode_mono(lcm), comp),
                                           i, len(rows)))
            rows.append(red)
    return buchberger_engine([], order, field, seed=rows)


@pytest.mark.parametrize("field", [GFP1, QQ], ids=["p1", "q"])
@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_pair_rules_match_criteria_free_reference(field, seed):
    # modules of rank 2 or 3 in 2 or 3 variables, some completed from a
    # seed that is the engine's reduced basis of their first generators:
    # the B, M and F rules must drop no S-pair that the basis needs
    rng = random.Random(seed)
    order = MonomialOrder(rng.randint(2, 3), rank=rng.randint(2, 3))
    gens = [_random_element(rng, order, field) for _ in range(rng.randint(2, 7))]
    split = rng.randint(0, len(gens) - 1)
    seed_basis = buchberger_engine(gens[:split], order, field) if split else None
    assert (buchberger_engine(gens[split:], order, field, seed=seed_basis)
            == _reference_basis(gens, order, field))


def test_intersect_pair_known_answers():
    x, y, z = (V(3, i) for i in range(3))

    def basis(*gens):
        return buchberger_engine(E(gens, ORDER3), ORDER3, QQ)

    # <x,z> and <y,z> share z; <x,z> and <y> share nothing
    cases = [(basis(x, z), basis(y, z), basis(x * y, z)),
             (basis(x, z), basis(y), basis(x * y, y * z))]
    assert [sum(e in b for e in a) for a, b, _ in cases] == [1, 0]
    for a, b, expected in cases:
        meet = intersect_pair_engine(a, b, ORDER3, QQ)
        assert meet == expected
        assert intersect_pair_engine(b, a, ORDER3, QQ) == meet
        assert _is_intersection(meet, a, b, ORDER3, (0,))


def test_hilbert_series_free_ring():
    hs = hilbert_series_engine([], MonomialOrder(4), (0,))
    assert hs.expand(5) == [1, 4, 10, 20, 35, 56]
    assert hs.denom_exp == 4


def test_hilbert_series_single_relation():
    x, y = V(2, 0), V(2, 1)
    basis = buchberger_engine(E([x * y], ORDER2), ORDER2, QQ)
    hs = hilbert_series_engine(basis, ORDER2, (0,))
    # k[x,y]/(xy): dimension 1, 2, 2, 2, ...
    assert hs.expand(4) == [1, 2, 2, 2, 2]


def test_hilbert_series_module_shifts():
    # free rank-2 module with generator degrees 1 and 2
    hs = hilbert_series_engine([], MonomialOrder(2, rank=2), (1, 2))
    assert hs.expand(4) == [0, 1, 3, 5, 7]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_hilbert_series_counts_standard_monomials(data):
    # monomial modules, with non-minimal and repeated generators and the
    # unit allowed: degree d of the series counts the (monomial, component)
    # pairs of degree d that no lead of that component divides
    n = data.draw(st.integers(2, 5))
    rank = data.draw(st.integers(1, 3))
    shifts = tuple(data.draw(st.integers(0, 2)) for _ in range(rank))
    leads = data.draw(st.lists(st.tuples(st.tuples(*[st.integers(0, 3)] * n),
                                         st.integers(0, rank - 1)), max_size=8))
    order = MonomialOrder(n, rank)
    basis = [{order.term_key(order.encode_mono(e), c): 1} for e, c in leads]
    dims = hilbert_series_engine(basis, order, shifts).expand(7)
    for d in range(8):
        count = 0
        for c in range(rank):
            if d < shifts[c]:
                continue
            for vs in combinations_with_replacement(range(n), d - shifts[c]):
                mono = [vs.count(v) for v in range(n)]
                count += not any(lc == c and all(map(int.__le__, e, mono))
                                 for e, lc in leads)
        assert dims[d] == count


def _slice_codimension(gens, degree, n):
    """Exact codimension of the degree slice of a homogeneous ideal."""
    from itertools import combinations_with_replacement

    from theta2.symbolic import graded_dimension

    cols = {}
    rows = []
    for g in gens:
        d = g.degree()
        if d > degree:
            continue
        for mono in combinations_with_replacement(range(n), degree - d):
            row = {}
            for exps, c in g.terms.items():
                e = list(exps)
                for v in mono:
                    e[v] += 1
                row[cols.setdefault(tuple(e), len(cols))] = c
            rows.append(row)
    rank = 0
    pivots = {}
    for row in rows:
        row = dict(row)
        while row:
            c = min(row)
            if c in pivots:
                prow, pval = pivots[c]
                f = row[c] / pval
                for cc, v in prow.items():
                    nv = row.get(cc, 0) - f * v
                    if nv:
                        row[cc] = nv
                    else:
                        row.pop(cc, None)
            else:
                pivots[c] = (row, row[c])
                rank += 1
                break
    return graded_dimension(n, degree) - rank


@pytest.mark.parametrize("seed", [3, 8, 21])
def test_hilbert_series_matches_exact_linear_algebra(seed):
    rng = random.Random(seed)
    n = 3
    gens = []
    for _ in range(rng.choice([2, 3])):
        d = rng.randint(1, 3)
        terms = {}
        for _ in range(rng.randint(1, 3)):
            e = [0] * n
            for _ in range(d):
                e[rng.randrange(n)] += 1
            terms[tuple(e)] = Fraction(rng.choice([-2, -1, 1, 2]))
        terms = {k: v for k, v in terms.items() if v}
        if terms:
            gens.append(GradedPoly(n, terms))
    if not gens:
        pytest.skip("degenerate sample")
    basis = buchberger_engine(E(gens, ORDER3), ORDER3, QQ)
    dims = hilbert_series_engine(basis, ORDER3, (0,)).expand(6)
    for d in range(7):
        assert dims[d] == _slice_codimension(gens, d, n)


def test_prime_field_structure_agreement_on_random_module():
    rng = random.Random(11)
    n = 3
    order1 = MonomialOrder(n, rank=2)
    gens = []
    for _ in range(4):
        comps = [GradedPoly.zero(n), GradedPoly.zero(n)]
        terms = {}
        for _ in range(3):
            e = [0] * n
            for _ in range(2):
                e[rng.randrange(n)] += 1
            terms[tuple(e)] = Fraction(rng.choice([-2, -1, 1, 3]))
        comps[rng.randint(0, 1)] = GradedPoly(n, terms)
        gens.append(ModuleElement(tuple(comps), (1, 1)))
    shapes = []
    for field in (QQ, GFP1, GFP2):
        basis = EngineBasis(buchberger_engine(E(gens, order1, field), order1, field),
                            order1, field)
        shapes.append(list(basis.structure()))
        # the fingerprint hashes the structure's JSON text element by element
        blob = json.dumps(shapes[-1], separators=(",", ":")).encode()
        assert GroebnerBasis(basis, (1, 1)).structure_fingerprint() == \
            hashlib.sha256(blob).hexdigest()
    assert shapes[0] == shapes[1] == shapes[2]


def test_zero_generators_dropped():
    x = V(2, 0)
    assert len(buchberger_engine(E([GradedPoly.zero(2), x], ORDER2), ORDER2, QQ)) == 1


def _toy_basis(field=QQ):
    """A reduced basis in ORDER2 with a tail term."""
    x, y = V(2, 0), V(2, 1)
    return buchberger_engine(E([x * x - y * y - y * y - y * y, x * y], ORDER2, field),
                             ORDER2, field)


def _write_entry(cache, key, payload, digest=None):
    """Write an entry by hand; digest None means the payload's true digest."""
    body = json.dumps(payload, separators=(",", ":")).encode()
    digest = digest or hashlib.sha256(body).hexdigest()
    with open(cache.path(key), "wb") as fh:
        fh.write(digest.encode() + b"\n" + body)


def _read_entry(cache, key):
    with open(cache.path(key), "rb") as fh:
        digest, _, body = fh.read().partition(b"\n")
    return digest.decode(), json.loads(body)


def test_cache_roundtrip(tmp_path):
    cache = BasisCache(str(tmp_path))
    x, y = V(2, 0), V(2, 1)
    # reduced basis y^3, xy, x^2 - 1/2 y^2
    gens = [x * x + x * x - y * y, x * y]
    for field in (QQ, GFP1):
        elements = buchberger_engine(E(gens, ORDER2, field), ORDER2, field)
        key = BasisCache.key("toy", ["a", "b"], [], ORDER2, field)
        cache.store(key, elements, field)
        loaded = cache.load(key, ORDER2, field)
        assert loaded == elements
        assert any(len(e) > 1 for e in loaded)
        coeffs = [c for e in loaded for c in e.values()]
        stored = sorted(c for e in _read_entry(cache, key)[1]["elements"] for _, c in e)
        if field is QQ:
            # an integral rational loads as int, and only -1/2 as a Fraction;
            # every rational is stored as [numerator, denominator]
            assert [type(c) for c in coeffs].count(int) == 3
            assert [c for c in coeffs if type(c) is not int] == [Fraction(-1, 2)]
            assert stored == [[-1, 2], [1, 1], [1, 1], [1, 1]]
        else:
            assert {type(c) for c in coeffs} == {int}
            assert stored == [1, 1, 1, (PRIME1 - 1) // 2]


def test_cache_truncated_entry_is_a_miss(tmp_path):
    basis = _toy_basis()
    cache = BasisCache(str(tmp_path))
    key = BasisCache.key("toy", ["a"], [], ORDER2, QQ)
    cache.store(key, basis, QQ)
    path = cache.path(key)
    with open(path, "r+") as fh:
        fh.truncate(len(fh.read()) // 2)
    assert cache.load(key, ORDER2, QQ) is None
    cache.store(key, basis, QQ)
    assert cache.load(key, ORDER2, QQ) == basis
    assert [p.name for p in tmp_path.iterdir()] == [f"{key}.json"]


@pytest.mark.parametrize("field_name", ["q", "p1"])
def test_cache_changed_coefficient_is_a_miss(tmp_path, field_name):
    # a payload that still decodes to a valid basis shape, under the old digest
    field = gb.FIELDS[field_name]
    basis = _toy_basis(field)
    cache = BasisCache(str(tmp_path))
    key = BasisCache.key("toy", ["a"], [], ORDER2, field)
    cache.store(key, basis, field)
    digest, payload = _read_entry(cache, key)
    _write_entry(cache, key, payload, digest)
    assert cache.load(key, ORDER2, field) == basis
    elem = next(e for e in payload["elements"] if len(e) > 1)
    term = min(elem)                      # a tail term; the lead stays monic
    term[1] = [-2, 1] if field is QQ else 2
    _write_entry(cache, key, payload, digest)
    assert cache.load(key, ORDER2, field) is None
    cache.store(key, basis, field)
    assert cache.load(key, ORDER2, field) == basis


@pytest.mark.parametrize("field_name,damage", [
    ("p1", "unsorted"), ("p1", "divisible"), ("p1", "component"), ("p1", "monic"),
    ("p1", "zero"), ("p1", "range"), ("p1", "degree"), ("q", "zero"), ("q", "lowest"),
    ("q", "denominator"), ("q", "degree"), ("p1", "block"), ("q", "block"),
])
def test_cache_entry_not_a_reduced_basis_is_a_miss(tmp_path, field_name, damage):
    # each payload is written with its true digest, so only the shape check
    # can see the damage
    field = gb.FIELDS[field_name]
    order, elements = ORDER2, _toy_basis(field)
    cache = BasisCache(str(tmp_path))
    key = BasisCache.key("toy", ["a"], [], order, field)
    cache.store(key, elements, field)
    _, payload = _read_entry(cache, key)
    raw = payload["elements"]
    lead = max(raw[-1])
    tail = min(next(e for e in raw if len(e) > 1))
    if damage == "unsorted":
        raw.reverse()
    elif damage == "divisible":
        # x times the first lead, above the last lead: still ascending
        x = order.key_mul_delta(order.encode_mono((1, 0)))
        raw.append([[max(raw[0])[0] + x, lead[1]]])
        assert raw[-1][0][0] > lead[0]
    elif damage == "component":
        tail[0] -= 1                      # component 0 -> 1, the rank
    elif damage == "monic":
        lead[1] = 2
    elif damage == "block":
        # split_key drops fbit, which no term key has: only the key range
        # can refuse it
        lead[0] |= order.fbit
    elif damage == "degree":
        # the degree field one above the sum of the lead's exponents; the
        # divisor index ignores the degree byte, so only its check sees it
        lead[0] += 1 << (order._deg_shift + gb._CB)
    else:
        tail[1] = {"zero": [0, 1] if field is QQ else 0, "range": field.p,
                   "lowest": [-6, 2], "denominator": [3, -1]}[damage]
    _write_entry(cache, key, payload)
    assert cache.load(key, order, field) is None
    cache.store(key, elements, field)
    assert cache.load(key, order, field) == elements


@pytest.mark.parametrize("block", [0, 1])
def test_cache_lead_out_of_packing_range_is_a_miss(tmp_path, block):
    # a ring byte outside 1..C is no packed monomial: the shape check
    # refuses the lead instead of indexing it.  0x7f lies beyond the tables
    # of _Bucket; 0 (exponent C = 64) lies inside them
    order, elements = ORDER2, _toy_basis(GFP1)
    cache = BasisCache(str(tmp_path))
    key = BasisCache.key("toy", ["a"], [], order, GFP1)
    cache.store(key, elements, GFP1)
    _, payload = _read_entry(cache, key)
    lead = max(payload["elements"][-1])
    lead[0] |= 0x7f << (8 * block + 8)
    _write_entry(cache, key, payload)
    assert cache.load(key, order, GFP1) is None
    # a one-element entry whose lead has exponent 64 and a degree field
    # that agrees with it: only the range check can refuse it
    enc = order.one - (64 << (8 * block)) + (64 << order._deg_shift)
    _write_entry(cache, key, {"elements": [[[order.term_key(enc, 0), 1]]]})
    assert cache.load(key, order, GFP1) is None


@pytest.mark.parametrize("payload", [
    {"elements": ["1*x"]},                 # element text of the old format
    {"elements": ["1*t1 | 1*t2"]},
    {"elements": 5},
    {"elements": [5]},
    [1, 2],
])
def test_cache_malformed_entry_is_a_miss(tmp_path, payload):
    basis = _toy_basis()
    cache = BasisCache(str(tmp_path))
    key = BasisCache.key("toy", ["a"], [], ORDER2, QQ)
    with open(cache.path(key), "w") as fh:
        json.dump(payload, fh)                # no digest line
    assert cache.load(key, ORDER2, QQ) is None
    _write_entry(cache, key, payload)         # its true digest
    assert cache.load(key, ORDER2, QQ) is None
    cache.store(key, basis, QQ)
    assert cache.load(key, ORDER2, QQ) == basis


def test_cache_failed_store_leaves_no_temp_file(tmp_path, monkeypatch):
    cache = BasisCache(str(tmp_path))
    key = BasisCache.key("toy", ["a"], [], ORDER2, QQ)

    def full_disk(src, dst):
        raise OSError("no space left on device")

    monkeypatch.setattr(os, "replace", full_disk)
    with pytest.raises(OSError):
        cache.store(key, _toy_basis(), QQ)
    monkeypatch.undo()
    assert list(tmp_path.iterdir()) == []
    assert cache.load(key, ORDER2, QQ) is None


def mono_divides(order, a, b):
    """The engine's one-subtraction test: monomial a divides monomial b."""
    return (order.divisor_word(a) - (b & order._xmask)) & order._gx == order._gx


def test_monomial_order_packing_roundtrip():
    order = MonomialOrder(5, rank=3)
    exps = (3, 0, 2, 1, 0)
    enc = order.encode_mono(exps)
    assert order.decode_mono(enc) == exps
    assert enc >> order._deg_shift == 6          # the degree field tops the monomial
    a = order.encode_mono((1, 0, 0, 0, 0))
    b = order.encode_mono((0, 2, 0, 0, 1))
    assert order.decode_mono(order.mono_mul(a, b)) == (1, 2, 0, 0, 1)
    assert mono_divides(order, a, order.mono_mul(a, b))
    assert not mono_divides(order, b, a)


def test_grevlex_tie_break_matches_definition():
    # same degree: the monomial with smaller exponent in the last variable wins
    order = MonomialOrder(3)
    xy = order.encode_mono((1, 1, 0))
    xz = order.encode_mono((1, 0, 1))
    zz = order.encode_mono((0, 0, 2))
    assert xy > xz > zz


def _power_pair(n):
    # x^n + y^n, x*y^n: the S-polynomial is y^(2n)
    return [GradedPoly(2, {(n, 0): Fraction(1), (0, n): Fraction(1)}),
            GradedPoly.monomial(2, (1, n))]


@pytest.mark.parametrize("field", [QQ, GFP1], ids=["q", "p1"])
@pytest.mark.parametrize("n", [32, 40])
def test_exponent_overflow_raises(n, field):
    # y^64 and y^80 do not fit a packed block; the engine must not wrap them
    with pytest.raises(DerivationError):
        buchberger_engine(E(_power_pair(n), ORDER2, field), ORDER2, field)


def test_largest_packable_power_pair_matches_sympy():
    gens = _power_pair(31)
    assert buchberger_engine(E(gens, ORDER2), ORDER2, QQ) == _sympy_basis(gens, 2)


def test_degree_80_ideal_matches_sympy():
    # products above degree 64 are fine while every exponent stays below 64
    gens = [GradedPoly.monomial(2, (40, 30)), GradedPoly.monomial(2, (30, 40))]
    assert buchberger_engine(E(gens, ORDER2), ORDER2, QQ) == _sympy_basis(gens, 2)


_EXPONENT = st.one_of(st.sampled_from([0, 63]), st.integers(0, 63))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_packed_lcm_is_exponentwise_max(data):
    order = MonomialOrder(4, rank=data.draw(st.sampled_from([1, 6])))
    a, b = (tuple(data.draw(_EXPONENT) for _ in range(4)) for _ in range(2))
    top = tuple(max(x, y) for x, y in zip(a, b))
    ea, eb = order.encode_mono(a), order.encode_mono(b)
    assert order.mono_lcm(ea, eb) == order.encode_mono(top)
    assert mono_divides(order, ea, eb) == all(x <= y for x, y in zip(a, b))
    # a lower degree encodes lower, so the pair heap, keyed by the lcm,
    # pops degree-first
    if sum(a) < sum(b):
        assert ea < eb


def _index_order(data):
    return MonomialOrder(4, rank=data.draw(st.sampled_from([1, 3])))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_bucket_finds_first_divisor_in_insertion_order(data):
    # rows go in out of key order; a lookup must return what a scan of the
    # component's rows in insertion order returns first, and None exactly
    # when no lead divides the target
    order = _index_order(data)
    width = order.nvars
    small = st.integers(0, 3)
    exps = st.tuples(*[st.one_of(small, _EXPONENT)] * width)
    leads = data.draw(st.lists(st.tuples(exps, st.integers(0, order.rank - 1)),
                               min_size=1, max_size=12, unique=True))
    buckets = defaultdict(partial(gb._Bucket, order))
    inserted = data.draw(st.permutations(range(len(leads))))
    for i in inserted:
        e, comp = leads[i]
        buckets[comp].add(order.encode_mono(e), i)
    targets = data.draw(st.lists(exps, max_size=6)) + [(63,) * width]
    # multiples of the leads, so that most targets have divisors
    targets += [tuple(min(63, x + data.draw(small)) for x in e) for e, _ in leads]
    for t in targets:
        for comp in range(order.rank):
            scan = next((i for i in inserted if leads[i][1] == comp
                         and all(x <= y for x, y in zip(leads[i][0], t))), None)
            assert buckets[comp].find(order.encode_mono(t)) == scan


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_bucket_extend_equals_sequential_adds(data):
    # one extend gives the tables, tops and rows that one add per row
    # gives, for leads in key order or not, on an empty bucket or after
    # earlier adds
    order = _index_order(data)
    exps = st.tuples(*[st.one_of(st.integers(0, 3), _EXPONENT)] * order.nvars)
    first, then = (data.draw(st.lists(exps, max_size=8)) for _ in range(2))
    if data.draw(st.booleans()):
        then.sort(key=lambda e: order.encode_mono(e))
    added, extended = gb._Bucket(order), gb._Bucket(order)
    for i, e in enumerate(first):
        added.add(order.encode_mono(e), i)
        extended.add(order.encode_mono(e), i)
    for i, e in enumerate(then, len(first)):
        added.add(order.encode_mono(e), i)
    extended.extend((order.encode_mono(e), i) for i, e in enumerate(then, len(first)))
    assert extended.rows == added.rows
    assert extended.tops == added.tops
    assert extended.tables == added.tables


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_decode_mono_reads_the_ring_blocks(data):
    # the bytes of the ring blocks against a shift and mask per variable
    order = MonomialOrder(data.draw(st.integers(1, 10)),
                          rank=data.draw(st.sampled_from([1, 6])))
    exps = tuple(data.draw(_EXPONENT) for _ in range(order.nvars))
    if sum(exps) > 255:
        exps = tuple(e // 4 for e in exps)
    enc = order.encode_mono(exps)
    old = tuple(gb._C - ((enc >> (gb._B * v)) & gb._BMASK) for v in range(order.nvars))
    assert order.decode_mono(enc) == old == exps
    key = order.term_key(enc, order.rank - 1) | order.fbit
    assert order.decode_mono(order.split_key(key)[0]) == exps


def _scan_normal_form(elem, rows, order, field, sig=None, ib=0):
    """Reference normal form: a heap of (key, coefficient) entries, summed
    when equal keys pop, and a scan of the rows in the order given.  With
    the signature word sig a row reduces a term only if its multiple's
    signature is below sig, and only the top is reduced: at the first term
    with no such reducer the rest is returned as it stands, in descending
    key order, or None if a row's multiple there has signature sig."""
    heap = [(-k, c) for k, c in elem.items()]
    heapq.heapify(heap)
    out = {}
    while heap:
        nk, c = heapq.heappop(heap)
        while heap and heap[0][0] == nk:
            c = c + heapq.heappop(heap)[1]
        c = field.normalize(c)
        if not c:
            continue
        key = -nk
        enc, comp = order.split_key(key)
        row, singular = None, False
        for r in rows:
            if r.comp != comp or not mono_divides(order, r.enc, enc):
                continue
            gb._check_room(r, enc, order)
            if sig is None or r.ratio + (key << ib) < sig:
                row = r
                break
            singular = singular or r.ratio + (key << ib) == sig
        if row is None:
            if singular:
                return None
            out[key] = c
            if sig is None:
                continue
            rest = defaultdict(int)
            for nk, v in heap:
                rest[-nk] += v
            for k in sorted(rest, reverse=True):
                v = field.normalize(rest[k])
                if v:
                    out[k] = v
            return out
        for tk, tc in zip(row.tkeys, row.tcoefs):
            heapq.heappush(heap, (-(tk + key - row.key), field.normalize(-c * tc)))
    return out


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_normal_form_matches_heap_and_scan(data):
    order = _index_order(data)
    field = data.draw(st.sampled_from([QQ, GFP1]))
    width = order.nvars
    # small exponents keep the reduction short and give terms several
    # divisors; in some examples 60 and 63 reach the packing range, where
    # both sides must refuse the same product
    small = st.integers(0, 2)
    exp = st.one_of(small, st.sampled_from([60, 63])) if data.draw(st.booleans()) else small
    exps = st.tuples(*[exp] * width)
    near_p = st.one_of(st.integers(1, 3), st.integers(PRIME1 - 3, PRIME1 - 1))
    coeff = near_p if field is GFP1 else st.builds(
        Fraction, st.one_of(near_p, near_p.map(lambda n: -n)), st.integers(1, 3))

    def element(extra=()):
        terms = data.draw(st.lists(st.tuples(exps, st.integers(0, order.rank - 1)),
                                   min_size=1, max_size=4, unique=True))
        return {order.term_key(order.encode_mono(e), comp): data.draw(coeff)
                for e, comp in terms + list(extra)}

    # in the signature mode the rows carry signatures, whose monomials their
    # room covers, and elem a signature word; index words are ib bits wide
    signed = data.draw(st.booleans())
    ib = data.draw(st.integers(1, 3)) if signed else 0

    def sig_term():
        """A signature term (key, index) of a regular reduction."""
        e, comp = data.draw(st.tuples(st.tuples(*[small] * width),
                                      st.integers(0, order.rank - 1)))
        return (order.term_key(order.encode_mono(e), comp),
                data.draw(st.integers(0, (1 << ib) - 1)))

    rows = {}
    for elem in (element() for _ in range(data.draw(st.integers(2, 6)))):
        rows.setdefault(max(elem), elem)        # one row per lead
    made = []
    for i, e in enumerate(rows.values()):
        if signed:
            t, k = sig_term()
            row = gb._make_row(e, order, field, i, order.split_key(t)[0])
            row.ratio = ((t - row.key) << ib) + k
        else:
            row = gb._make_row(e, order, field, i)
        made.append(row)
    rows = data.draw(st.permutations(made))
    buckets = defaultdict(partial(gb._Bucket, order))
    for row in rows:
        buckets[row.comp].add(row.enc, row)
    # multiples of the leads, which most rows divide
    multiples = [(tuple(x + data.draw(st.integers(0, 1)) for x in order.decode_mono(r.enc)),
                  r.comp) for r in rows]
    elem = element(t for t in multiples if max(t[0]) < 64)
    sig = None
    if signed:
        # a fresh signature, or that of a row's multiple at a term of elem
        # it divides, which makes that term singular if no earlier divisor
        # has a smaller multiple
        t, k = sig_term()
        sig = data.draw(st.sampled_from([(t << ib) + k] + [
            r.ratio + (m << ib) for m in elem for r in rows
            if order.split_key(m)[1] == r.comp
            and mono_divides(order, r.enc, order.split_key(m)[0])]))
    try:
        expected = _scan_normal_form(elem, rows, order, field, sig, ib)
    except DerivationError:
        with pytest.raises(DerivationError):
            gb._normal_form(elem, buckets, order, field, sig, ib)
        return
    red = gb._normal_form(elem, buckets, order, field, sig, ib)
    if expected is None:
        assert red is None
    else:
        # same terms in the same (descending) order: cache entries store dicts
        assert list(red.items()) == list(expected.items())


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_key_mul_delta_multiplies_terms(data):
    rank = data.draw(st.sampled_from([1, 6]))
    order = MonomialOrder(4, rank=rank)
    # a key of an elimination's dominating summand carries fbit
    block = data.draw(st.sampled_from([0, order.fbit]))
    # exponents of a and b sum below 64 per variable and to at most 255 in all
    a = tuple(data.draw(st.integers(0, 31)) for _ in range(4))
    b = tuple(data.draw(st.integers(0, 63 - e)) for e in a)
    comp = data.draw(st.integers(0, rank - 1))
    ea, eb = order.encode_mono(a), order.encode_mono(b)
    key = order.term_key(ea, comp) | block
    moved = key + order.key_mul_delta(eb)
    assert moved == order.term_key(order.mono_mul(ea, eb), comp) | block
    assert order.split_key(moved) == (order.mono_mul(ea, eb), comp)
    assert moved - order.key_mul_delta(eb) == key


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_block_keys_move_by_arithmetic(data):
    # the intersection moves keys between F and the summands of F + F with
    # no re-encoding: component c of the first summand is k | fbit, r + c
    # of the second is k - r, and + r moves a second-summand key back
    rank = data.draw(st.sampled_from([1, 6]))
    order = MonomialOrder(4, rank=rank)
    ext = MonomialOrder(4, rank=2 * rank)
    terms = data.draw(st.lists(st.tuples(st.tuples(*[_EXPONENT] * 4),
                                         st.integers(0, rank - 1)),
                               min_size=2, max_size=8, unique=True))
    keys = [order.term_key(order.encode_mono(e), c) for e, c in terms]
    first = [ext.term_key(ext.encode_mono(e), c) | ext.fbit for e, c in terms]
    second = [ext.term_key(ext.encode_mono(e), rank + c) for e, c in terms]
    assert first == [k | ext.fbit for k in keys]
    assert [ext.split_key(k) for k in first] == [(ext.encode_mono(e), c) for e, c in terms]
    assert second == [k - rank for k in keys]
    assert [k + rank for k in second] == keys
    assert [ext.split_key(k) for k in second] == [
        (ext.encode_mono(e), rank + c) for e, c in terms]
    # each summand keeps order's order, and the first dominates the second
    ranked = sorted(range(len(keys)), key=keys.__getitem__)
    assert sorted(range(len(keys)), key=first.__getitem__) == ranked
    assert sorted(range(len(keys)), key=second.__getitem__) == ranked
    assert min(first) > max(second) and not any(k & ext.fbit for k in second)


# a rank-2 order whose first component dominates, its keys carrying fbit:
# a lead there can sit above tail terms of any degree in the second
_BLOCK2 = MonomialOrder(6, rank=2)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_overflow_guard_is_exact(data):
    # a row times target / lead is refused exactly when some product term
    # has an exponent of 64 or more or a degree above 255
    n = 6
    order = _BLOCK2
    exps = st.tuples(*[st.one_of(st.sampled_from([0, 40, 63]), st.integers(0, 63))]
                     * n).filter(lambda e: sum(e) <= 255)
    terms = data.draw(st.lists(st.tuples(exps, st.integers(0, 1)),
                               min_size=1, max_size=4, unique=True))
    row = gb._make_row({order.term_key(order.encode_mono(t), c) | (0 if c else order.fbit):
                        Fraction(1) for t, c in terms}, order, QQ, 0)
    lead = order.decode_mono(row.enc)
    mult = [data.draw(st.one_of(st.sampled_from([0, 63 - e]), st.integers(0, 63 - e)))
            for e in lead]
    for v in range(n):      # the target itself must stay packable
        mult[v] -= min(mult[v], max(0, sum(lead) + sum(mult) - 255))
    target = order.encode_mono(tuple(e + m for e, m in zip(lead, mult)))
    overflow = any(
        any(e + m >= 64 for e, m in zip(t, mult)) or sum(t) + sum(mult) > 255
        for t, _ in terms)
    if overflow:
        with pytest.raises(DerivationError):
            gb._check_room(row, target, order)
    else:
        gb._check_room(row, target, order)


def test_overflow_guard_degree_bound():
    # the block puts a degree-60 lead above a degree-240 tail term; every
    # product exponent stays below 64, and only the degree leaves the range
    order = _BLOCK2
    row = gb._make_row({order.term_key(order.encode_mono((10,) * 6), 0) | order.fbit:
                        Fraction(1),
                        order.term_key(order.encode_mono((40,) * 6), 1): Fraction(1)},
                       order, QQ, 0)
    assert order.decode_mono(row.enc) == (10,) * 6
    gb._check_room(row, order.encode_mono((13,) * 3 + (12,) * 3), order)
    with pytest.raises(DerivationError):
        gb._check_room(row, order.encode_mono((13,) * 4 + (12,) * 2), order)


def test_signature_out_of_range_raises():
    # a row x of signature x^60 e_k: its multiple by x^3 has signature
    # x^63, in range; by x^4 the product x^5 stays in range, but the
    # signature x^64 does not
    order = MonomialOrder(5)
    x = {order.term_key(order.encode_mono((1, 0, 0, 0, 0)), 0): 1}
    row = gb._make_row(x, order, GFP1, 0, sig_enc=order.encode_mono((60, 0, 0, 0, 0)))
    gb._check_room(row, order.encode_mono((4, 0, 0, 0, 0)), order)
    with pytest.raises(DerivationError, match="packing range"):
        gb._check_room(row, order.encode_mono((5, 0, 0, 0, 0)), order)
    # the signature's degree counts too: degree 253 times x^2 is 255, in
    # range, and times x^3 is 256, out of it
    row = gb._make_row(x, order, GFP1, 0, sig_enc=order.encode_mono((1, 63, 63, 63, 63)))
    gb._check_room(row, order.encode_mono((3, 0, 0, 0, 0)), order)
    with pytest.raises(DerivationError, match="packing range"):
        gb._check_room(row, order.encode_mono((4, 0, 0, 0, 0)), order)
    # a row with no signature has the room of its terms alone
    gb._check_room(gb._make_row(x, order, GFP1, 0), order.encode_mono((60, 0, 0, 0, 0)),
                   order)


# five variables, so that a product's degree can pass 255 while every
# exponent stays below 64; rank 2 with fbit, so that a lead can sit above
# tail terms of higher degree
_ROOM = MonomialOrder(5, rank=2)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_room_test_matches_decoded_products(data):
    # _check_room raises iff some term of row * t, t = target / lead, or
    # the signature monomial times t, decoded, has an exponent of 64 or
    # more or a degree above 255.  Exponents 60-63 give top degrees above
    # 63, where the exact blockwise test runs; a target past degree 255
    # keeps the spilled degree above its degree field, as mono_mul leaves it
    order = _ROOM
    exp = st.one_of(st.integers(0, 3), st.integers(60, 63))
    exps = st.tuples(*[exp] * order.nvars).filter(lambda e: sum(e) <= 255)
    terms = data.draw(st.lists(st.tuples(exps, st.integers(0, 1), st.booleans()),
                               min_size=1, max_size=4, unique=True))
    elem = {order.term_key(order.encode_mono(e), c) | (order.fbit if f else 0): 1
            for e, c, f in terms}
    sig = data.draw(st.none() | exps)
    row = gb._make_row(elem, order, GFP1, 0, None if sig is None else order.encode_mono(sig))
    lead = order.decode_mono(row.enc)
    mult = tuple(data.draw(st.one_of(st.integers(0, min(3, 63 - e)), st.integers(0, 63 - e)))
                 for e in lead)
    target = order.mono_mul(row.enc, order.encode_mono(mult))
    products = [order.decode_mono(order.split_key(k)[0]) for k in elem]
    products += [] if sig is None else [sig]
    overflow = any(any(e + m >= 64 for e, m in zip(t, mult)) or sum(t) + sum(mult) > 255
                   for t in products)
    if overflow:
        with pytest.raises(DerivationError, match="packing range"):
            gb._check_room(row, target, order)
    else:
        gb._check_room(row, target, order)


def test_room_test_boundary_is_exact():
    # a lead x_0 of the dominating summand above a tail term x_0^60: top
    # degree 60.  x_0^3 * row has top degree 63, the last the degree test
    # passes; x_0^4 * row has 64, where the exact test decides, and x_0^64
    # is out of range, while x_1^4 * row stays in it
    order = _ROOM
    lead = order.term_key(order.encode_mono((1, 0, 0, 0, 0)), 0) | order.fbit
    tail = order.term_key(order.encode_mono((60, 0, 0, 0, 0)), 1)
    row = gb._make_row({lead: 1, tail: 1}, order, GFP1, 0)
    assert row.top == 60
    gb._check_room(row, order.encode_mono((4, 0, 0, 0, 0)), order)
    gb._check_room(row, order.encode_mono((1, 4, 0, 0, 0)), order)
    with pytest.raises(DerivationError, match="packing range"):
        gb._check_room(row, order.encode_mono((5, 0, 0, 0, 0)), order)


def test_room_test_refuses_a_spilled_degree():
    # the linear colon step x_0 from a lead of degree 255 has degree 256,
    # one past the degree field; the row's exponents all stay below 64
    order = MonomialOrder(5)
    lead = order.encode_mono((51,) * 5)
    bucket = gb._Bucket(order)
    other = order.encode_mono((52, 50, 51, 51, 51))
    bucket.add(other, SimpleNamespace(enc=other))
    [(step, pos)], rest = gb._linear_colon(order, bucket, lead, 1)
    assert (pos, rest) == (0, 0) and step >> order._deg_shift == 256
    row = gb._make_row({order.term_key(lead, 0): 1}, order, GFP1, 0)
    with pytest.raises(DerivationError, match="packing range"):
        gb._check_room(row, step, order)
    with pytest.raises(DerivationError, match="packing range"):
        gb._minimal_lcms(order, bucket, lead, 1)


@pytest.mark.parametrize("field", [GFP1, QQ], ids=["p1", "q"])
@pytest.mark.parametrize("pair", [((52, 50, 51, 51, 51), (51,) * 5),
                                  ((53, 50, 50, 51, 51), (51, 52, 51, 51, 50))],
                         ids=["linear", "two variables"])
def test_pair_lcm_past_degree_255_raises(pair, field):
    # two leads of degree 255 whose lcm has degree 256 or 258: the
    # elimination and the Buchberger loop refuse the pair, whether its
    # colon monomial is one variable or more
    order = MonomialOrder(5)
    a, b = ([{order.term_key(order.encode_mono(e), 0): 1}] for e in pair)
    with pytest.raises(DerivationError, match="packing range"):
        intersect_pair_engine(a, b, order, field)
    with pytest.raises(DerivationError, match="packing range"):
        buchberger_engine(a + b, order, field)


def _colon_reference(order, leads, enc, allowed):
    """The colon monomials q = lcm(lead, enc) / enc over the allowed
    positions, decoded, each with its first position."""
    t = order.decode_mono(enc)
    qs = {}
    for pos, e in enumerate(leads):
        if allowed >> pos & 1:
            qs.setdefault(tuple(max(a - b, 0) for a, b in zip(e, t)), pos)
    return qs


def _lcm_key(order, enc, q):
    return order.encode_mono(tuple(a + b for a, b in zip(order.decode_mono(enc), q)))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_colon_helpers_match_brute_force(data):
    # _linear_colon: the q of degree at most 1 (q = 1 alone when some lead
    # divides enc) and the mask of the rows whose q none of them divides;
    # _minimal_lcms: the q that no other q properly divides; both as
    # (lcm, first position) ascending, for leads in any order, repeated
    # or not
    order = MonomialOrder(4)
    exps = st.tuples(*[st.integers(0, 3)] * order.nvars)
    leads = data.draw(st.lists(exps, min_size=1, max_size=12))
    bucket = gb._Bucket(order)
    for e in leads:
        bucket.add(order.encode_mono(e), SimpleNamespace(enc=order.encode_mono(e)))
    enc = order.encode_mono(data.draw(exps))
    allowed = data.draw(st.integers(0, (1 << len(leads)) - 1))
    qs = _colon_reference(order, leads, enc, allowed)
    linear = {q: pos for q, pos in qs.items() if sum(q) <= 1}
    if (0,) * order.nvars in linear:
        expected = [(enc, linear[(0,) * order.nvars])], 0
    else:
        rest = sum(1 << pos for pos, e in enumerate(leads) if allowed >> pos & 1
                   and not any(max(a - b, 0) >= 1 and q[j]
                               for q in linear
                               for j, (a, b) in enumerate(zip(e, order.decode_mono(enc)))))
        expected = sorted((_lcm_key(order, enc, q), pos) for q, pos in linear.items()), rest
    assert gb._linear_colon(order, bucket, enc, allowed) == expected
    minimal = [(_lcm_key(order, enc, q), pos) for q, pos in qs.items()
               if not any(r != q and all(x <= y for x, y in zip(r, q)) for r in qs)]
    assert gb._minimal_lcms(order, bucket, enc, allowed) == sorted(minimal)


def test_hilbert_numerator_needs_no_deep_recursion():
    # one monomial of degree 240 in 20 variables: the pivot split chain is
    # 229 levels deep, far past the limit held here
    order = MonomialOrder(20)
    basis = [{order.term_key(order.encode_mono((12,) * 20), 0): 1}]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(150)
    try:
        hs = hilbert_series_engine(basis, order, (0,))
        num = gb._hilbert_numerator((order.encode_mono((12,) * 20),), order, {})
    finally:
        sys.setrecursionlimit(limit)
    assert hs == HilbertSeries.from_coeffs({0: 1, 240: -1}, denom_exp=20)
    assert num == {0: 1, 240: -1}
