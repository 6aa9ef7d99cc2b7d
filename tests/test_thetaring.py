import hashlib
import json
from fractions import Fraction
from itertools import combinations

import pytest

from theta2 import chars, groebner, thetaring
from theta2.errors import DerivationError
from theta2.groebner import (
    GFP1,
    GFP2,
    QQ,
    BasisCache,
    EngineBasis,
    ModularField,
    MonomialOrder,
    buchberger_engine,
    hilbert_series_engine,
    intersect_pair_engine,
    module_quotient_engine,
    to_engine,
)
from theta2.numerics import EvalConfig, point_values, relation_residual, sample_siegel
from theta2.symbolic import (
    GradedPoly,
    ModuleElement,
    clear_denominator,
    poly_from_text,
)
from theta2.thetaring import (
    CHI5_EXPS,
    GRADIENT_MODULE_SERIES,
    NVARS,
    SHIFTS,
    DTableEntry,
    RelationOracle,
    StructurePipeline,
    _balanced_blocks,
    all_relations,
    catalog_json,
    d_entry,
    d_table,
    default_oracle,
    extr_a,
    extr_b,
    extr_h,
    kernel_seed_generators,
    rel_d,
    riemann_ideal,
    sextets,
    symplectic_label_permutations,
    bracket_modules,
)

from blocks_reference import balanced_blocks_reference
from syzygy_route import syzygy_engine

CFG = EvalConfig(radius=10, target_eps=1e-12)


def P(text):
    return poly_from_text(text, NVARS)


def elem(parts: dict[int, str], denominator=None) -> ModuleElement:
    comps = tuple(P(parts.get(i, "0")) for i in range(1, 7))
    return ModuleElement(comps, SHIFTS, denominator)


# -- quartic list ------------------------------------------------------------

def test_riemann_first_and_last_entries():
    quartics = riemann_ideal()
    assert len(quartics) == 20
    assert quartics[0] == P("1*t6^2*t8^2 - 1*t4^2*t9^2 + 1*t1^2*t10^2")
    assert quartics[-1] == P("1*t1^4 - 1*t2^4 - 1*t6^4 - 1*t9^4")
    assert all(q.is_homogeneous() and q.degree() == 4 for q in quartics)


# -- determinant table --------------------------------------------------------

def test_d_table_entries_and_signs():
    assert d_entry(1, 5) == DTableEntry((1, 5), (3, 4, 6, 10), -1)
    assert d_entry(5, 6) == DTableEntry((5, 6), (5, 6, 7, 8), 1)
    assert d_entry(1, 2).quadruple == (7, 8, 9, 10)


def test_d_table_quadruples_match_combinatorics():
    for entry in d_table():
        assert entry.quadruple == chars.azygetic_quadruple(*entry.pair)


def test_riemann_basis_contains_fourth_power_difference():
    order = MonomialOrder(NVARS)
    basis = EngineBasis(buchberger_engine([to_engine(q, order, QQ) for q in riemann_ideal()],
                                          order, QQ), order, QQ)
    quartic = to_engine(P("1*t7^4 - 1*t8^4 - 1*t9^4 + 1*t10^4"), order, QQ)
    assert basis.contains(quartic)
    assert basis.normal_form(quartic) == {}


def test_extr_b_assignment_rule_on_worked_block():
    from theta2.thetaring import _extr_b_assignments

    block = [frozenset(WORKED_BLOCK[oi]) for oi in range(1, 7)]
    assert _extr_b_assignments(block, 5) == {1: 8, 2: 9, 3: 10, 4: 5, 6: 4}


# -- three-term relations ------------------------------------------------------

def test_rel_d_count_and_degrees():
    rels = rel_d()
    assert len(rels) == 20
    assert all(r.element.degree() == 4 for r in rels)
    assert [r.indices for r in rels] == list(combinations(range(1, 7), 3))


def test_rel_d_first_triple_coefficients():
    # the mechanical combination from the sign table; the T3 sign is certified
    # numerically (the prose rendering of this relation elsewhere misprints it)
    r = next(r for r in rel_d() if r.indices == (1, 2, 3))
    assert r.element == elem({1: "1*t1*t4*t6", 2: "-1*t2*t3*t5", 3: "1*t8*t9*t10"})
    table = point_values(sample_siegel(7, 1)[0], CFG)
    assert relation_residual(r.element, table) < 1e-9
    wrong = elem({1: "1*t1*t4*t6", 2: "-1*t2*t3*t5", 3: "-1*t8*t9*t10"})
    assert relation_residual(wrong, table) > 1e-3


# -- four-term relations --------------------------------------------------------

def test_extr_a_count_and_pair_5_6():
    rels = extr_a()
    assert len(rels) == 30
    assert all(r.element.degree() == 7 for r in rels)
    r56 = next(r for r in rels if r.indices == (5, 6))
    # theta6^2 D(1,5) T1 - theta5^2 D(2,5) T2 - theta8^2 D(3,5) T3 + theta7^2 D(4,5) T4
    printed = elem({
        1: "-1*t3*t4*t6^3*t10",
        2: "1*t1*t2*t5^3*t10",
        3: "1*t1*t3*t8^3*t9",
        4: "-1*t2*t4*t7^3*t9",
    })
    assert r56.element == printed or r56.element == -printed


def test_extr_a_squared_theta_rule():
    # the squared factor for each term divides both determinant products
    r = next(r for r in extr_a() if r.indices == (5, 6))
    squares = {}
    for i, p in enumerate(r.element.components, 1):
        if p.is_zero():
            continue
        (exps,) = p.terms
        squares[i] = [k + 1 for k, e in enumerate(exps) if e >= 2]
    assert squares == {1: [6], 2: [5], 3: [8], 4: [7]}


def test_extr_a_numeric(points):
    table = point_values(points[0], CFG)
    for r in extr_a()[:6]:
        assert relation_residual(r.element, table) < 1e-9


# -- sextets and five-term relations ---------------------------------------------

WORKED_BLOCK = {1: {3, 5, 6, 8, 9}, 2: {1, 2, 4, 8, 9}, 4: {2, 5, 7, 8, 10},
               6: {4, 6, 7, 9, 10}, 3: {1, 3, 4, 5, 10}, 5: {1, 2, 3, 6, 7}}


def test_sextets_partition():
    blocks = sextets()
    assert len(blocks) == 12
    seen = set()
    for block in blocks:
        assert sorted(s.odd_index for s in block) == [1, 2, 3, 4, 5, 6]
        for k in range(1, 11):
            assert sum(k in s.even_set for s in block) == 3
        # structural consequence: members overlap in exactly two even labels
        for a, b in combinations(block, 2):
            assert len(a.even_set & b.even_set) == 2
        for s in block:
            seen.add((s.odd_index, s.even_set))
    assert len(seen) == 72


def test_sextets_contain_worked_block():
    blocks = sextets()
    target = {(oi, frozenset(ev)) for oi, ev in WORKED_BLOCK.items()}
    assert any({(s.odd_index, s.even_set) for s in block} == target
               for block in blocks)


def test_extr_b_count_and_degrees():
    rels = extr_b()
    assert len(rels) == 72
    assert all(r.element.degree() == 8 for r in rels)
    assert len({r.indices for r in rels}) == 72


def test_extr_b_worked_example():
    # cancelling the (odd 5, {1,2,3,6,7}) member of the worked block gives
    # t8^2 S1 - t9^2 S2 + t5^2 S3 - t4^2 S4 + t10^2 S5
    blocks = sextets()
    target = {(oi, frozenset(ev)) for oi, ev in WORKED_BLOCK.items()}
    block = next(b for b in blocks
                 if {(s.odd_index, s.even_set) for s in b} == target)
    sid = block[0].sextet_id
    rec = next(r for r in extr_b() if r.indices == (sid, 5))
    printed = elem({
        1: "1*t3*t5*t6*t8^3*t9",        # t8^2 * S(odd1)
        2: "-1*t1*t2*t4*t8*t9^3",       # -t9^2 * S(odd2)
        4: "1*t2*t5^3*t7*t8*t10",       # +t5^2 * S(odd4)
        6: "-1*t4^3*t6*t7*t9*t10",      # -t4^2 * S(odd6)
        3: "1*t1*t3*t4*t5*t10^3",       # +t10^2 * S(odd3)
    })
    assert rec.element == printed or rec.element == -printed


def test_extr_b_reuses_sextet_signs(monkeypatch):
    # the sextet search solves every five-term sign pattern once; extr_b
    # only assembles and certifies, and its relations do not change
    blocks = sextets()
    warm = extr_b()
    calls = []
    original = RelationOracle.solve_signs

    def counting(self, terms):
        calls.append(terms)
        return original(self, terms)

    monkeypatch.setattr(RelationOracle, "solve_signs", counting)
    rebuilt = extr_b.__wrapped__()
    assert calls == []
    assert rebuilt == warm
    s = blocks[0][0]
    assert list(s.cancel_signs) == original(default_oracle(), s.cancel_terms)


def test_signed_relation_still_certifies():
    s = sextets()[0][0]
    flipped = (s.cancel_signs[0], -s.cancel_signs[1]) + s.cancel_signs[2:]
    with pytest.raises(DerivationError):
        default_oracle().signed_relation("ExtrB", (s.sextet_id, s.odd_index),
                                         s.cancel_terms, flipped)


def test_extr_b_numeric(points):
    table = point_values(points[0], CFG)
    for r in extr_b()[:6]:
        assert relation_residual(r.element, table) < 1e-9


def test_kernel_seed_over_q_projects_to_each_prime():
    # the reference check of the lucky-prime rule on the real k0: the
    # process's k0 over Q, read modulo p1 and p2, is the k0 that pipeline
    # over that prime builds itself, with one engine run
    k0 = thetaring._kernel_seed_over_q()[0]
    assert k0.field is QQ
    for field in (GFP1, GFP2):
        own = StructurePipeline(field).kernel_seed().engine
        assert own.field is field
        assert own.elements == k0.modulo(field).elements


def test_kernel_seed_over_another_lucky_prime_is_its_own_run():
    # any prime that divides no lead the exact pass or k0's run inverted
    # reads k0 from the pass, and that reading is the prime's own engine run
    field = ModularField(2147483587)
    exact = StructurePipeline(thetaring.UnitWitness())
    read = StructurePipeline(field, exact=exact).kernel_seed().engine
    assert thetaring._kernel_seed_over_q()[1] == 1 and exact.field.leads == 1
    assert read.elements == StructurePipeline(field).kernel_seed().engine.elements


def test_kernel_seed_is_one_stage_per_pipeline(tmp_path, monkeypatch):
    # k0 is a stage with no disk entry, kept by each pipeline once read:
    # two dual primes read the exact pass's one k0, which is the process's
    # k0 over Q, so neither runs an engine or touches the disk
    thetaring._kernel_seed_over_q()
    calls = []
    monkeypatch.setattr(thetaring, "buchberger_engine", lambda *a, **k: calls.append(a))
    monkeypatch.setattr(BasisCache, "load", lambda *a: calls.append(a))
    monkeypatch.setattr(BasisCache, "store", lambda *a: calls.append(a))
    exact = StructurePipeline(thetaring.UnitWitness())
    pipes = [StructurePipeline(f, str(tmp_path), exact)
             for f in (GFP1, ModularField(groebner.PRIME1))]
    k0s = [pipe.kernel_seed() for pipe in pipes]
    assert all(pipe.kernel_seed() is k0 for pipe, k0 in zip(pipes, k0s))
    assert calls == [] and list(exact._store) == ["kernel_seed"]
    assert k0s[0].engine.elements == k0s[1].engine.elements


def test_kernel_seed_over_an_unlucky_prime_raises(tmp_path, monkeypatch):
    # t1 T1 reduces t1 T1 + p1 t2 T1 to p1 t2 T1, so the Q run inverts the
    # lead p1: a dual prime other than p1 reads the Q basis, and a dual p1
    # raises, since the Q basis read modulo p1 holds t2 T1, which the
    # generators do not span over GF(p1); a p1 pipeline with no exact
    # source builds its own k0, which is t1 T1 alone.  The Q runs are
    # uncached so that they read these generators, and the Q basis stays exact
    t1, t2 = GradedPoly.variable(NVARS, 0), GradedPoly.variable(NVARS, 1)
    gens = [ModuleElement.generator(NVARS, 6, 0, shifts=SHIFTS, coeff=c)
            for c in (t1, t1 + t2.scale(groebner.PRIME1))]
    monkeypatch.setattr(thetaring, "kernel_seed_generators", lambda: gens)
    monkeypatch.setattr(thetaring, "_kernel_seed_over_q", thetaring._kernel_seed_over_q.__wrapped__)
    k0, leads = thetaring._kernel_seed_over_q()
    assert leads == groebner.PRIME1
    order = k0.order
    exact = sorted((to_engine(ModuleElement.generator(NVARS, 6, 0, shifts=SHIFTS, coeff=c),
                              order, QQ) for c in (t1, t2)), key=max)
    assert k0.field is QQ and k0.elements == exact
    assert StructurePipeline(QQ).kernel_seed().engine.elements == exact
    source = StructurePipeline(thetaring.UnitWitness())
    p2 = StructurePipeline(GFP2, str(tmp_path), source).kernel_seed().engine
    assert p2.field is GFP2 and p2.elements == k0.modulo(GFP2).elements == exact
    with pytest.raises(DerivationError, match="kernel_seed"):
        StructurePipeline(GFP1, str(tmp_path), source).kernel_seed()
    own = StructurePipeline(GFP1).kernel_seed().engine
    assert own.elements == [to_engine(gens[0], order, GFP1)]
    assert list(tmp_path.iterdir()) == []


def test_certify_agrees_with_direct_normal_forms(oracle):
    # the table-based certificate against a direct normal form of the chi5
    # multiple over Q and over each prime, for all 122 relations and a
    # one-sign flip
    order = MonomialOrder(NVARS, rank=6)
    direct = [EngineBasis(buchberger_engine(
        [to_engine(g, order, f) for g in kernel_seed_generators()], order, f), order, f)
        for f in (QQ, GFP1, GFP2)]
    chi5 = GradedPoly.monomial(NVARS, CHI5_EXPS)
    rels = all_relations()
    assert len(rels) == 122
    for r in rels:
        comp = next(i for i, c in enumerate(r.element.components) if not c.is_zero())
        parts = list(r.element.components)
        parts[comp] = parts[comp].scale(-1)
        flipped = ModuleElement(tuple(parts), SHIFTS)
        for e, expected in ((r.element, True), (flipped, False)):
            scaled = e.mul_poly(chi5)
            assert [b.contains(to_engine(scaled, order, b.field)) for b in direct] == \
                [expected] * 3
            assert oracle.certify(e) is expected


def test_certify_is_exact(oracle):
    # a certified relation plus p1 p2 x^e T1, where chi5 x^e T1 is not in
    # k0: its entries sum to zero modulo p1 p2 but not over Q
    r = rel_d()[0]
    assert oracle.certify(r.element)
    exps = (3,) + (0,) * (NVARS - 1)
    assert oracle._entry(0, exps)
    shift = ModuleElement.generator(NVARS, 6, 0, shifts=SHIFTS, coeff=GradedPoly.monomial(
        NVARS, exps, groebner.PRIME1 * groebner.PRIME2))
    assert not oracle.certify(r.element + shift)


def test_relation_table_holds_each_multiple_once(monkeypatch):
    # the catalogs read 480 distinct chi5 multiples (120 four-term terms,
    # 360 five-term ones, where the sextet search meets 1 800), and each
    # costs one normal form
    fresh = RelationOracle()
    monkeypatch.setattr(thetaring, "default_oracle", lambda: fresh)
    calls = []
    real = EngineBasis.normal_form

    def counting(self, elem):
        calls.append(self.field)
        return real(self, elem)

    monkeypatch.setattr(EngineBasis, "normal_form", counting)
    assert extr_a.__wrapped__() == extr_a()
    assert sextets.__wrapped__() == sextets()
    assert extr_b.__wrapped__() == extr_b()
    assert len(fresh.table) == 480
    assert calls == [QQ] * 480


def test_catalogs_keep_no_oracle():
    # once the three catalogs exist the process oracle, its table and its
    # reducer index are dropped; the cached k0 over Q never builds one
    default_oracle()
    assert all_relations.__wrapped__() == all_relations()
    assert default_oracle.cache_info().currsize == 0
    assert thetaring._kernel_seed_over_q()[0]._buckets is None


def test_relation_table_keeps_wide_coefficients():
    # an entry is the exact normal form as the engine returns it, a wide
    # int and a Fraction alike, stored once and read back as is
    oracle = RelationOracle()
    order = oracle.basis.order
    lead, *tail = (order.term_key(order.encode_mono(e), 0)
                   for e in (CHI5_EXPS, (0,) * 9 + (10,), (0,) * 8 + (1, 9)))
    assert lead > max(tail)
    wide = {tail[0]: 3 ** 80, tail[1]: Fraction(-5, 7)}
    oracle.basis = EngineBasis([{lead: 1, **{k: -c for k, c in wide.items()}}], order, QQ)
    entry = oracle._entry(0, (0,) * NVARS)
    assert entry == wide and type(entry[tail[1]]) is Fraction
    assert oracle._entry(0, (0,) * NVARS) is entry
    assert oracle.table == {(0, (0,) * NVARS): entry}


def test_balanced_blocks_match_the_set_walk():
    # the walk prunes blocks with two forms that do not share exactly two
    # even labels, which _extr_b_assignments rejects anyway
    reference = balanced_blocks_reference()
    assert len(reference) == 2040
    kept = [b for b in reference if all(len(x & y) == 2 for x, y in combinations(b, 2))]
    assert len(kept) == 192
    assert _balanced_blocks() == kept


def test_sextets_solve_only_blocks_with_six_assignments(monkeypatch):
    # all 192 blocks of the walk pass all six assignments, and a block's
    # solves stop at its first cancellation with no sign pattern
    warm = sextets()
    calls = []
    original = RelationOracle.solve_signs

    def counting(self, terms):
        calls.append(terms)
        return original(self, terms)

    monkeypatch.setattr(RelationOracle, "solve_signs", counting)
    assert sextets.__wrapped__() == warm
    assert len(calls) == 252


def test_relation_records_certified(oracle):
    for r in extr_a()[:3] + extr_b()[:3]:
        assert oracle.certify(r.element)
    assert all(oracle.certify(r.element) for r in rel_d())


# -- label permutations -----------------------------------------------------------

def test_symplectic_label_permutations():
    perms = symplectic_label_permutations()
    assert len(perms) == 720
    ids = tuple(range(1, 11)), tuple(range(1, 7))
    assert ids in perms
    odd_maps = {p[1] for p in perms}
    assert len(odd_maps) == 720          # faithful on the odd labels
    # the maps and their order, as the closure of the standard generators
    # of Sp(4, Z) acting affinely on the characteristics gives them
    assert hashlib.sha256(json.dumps(perms).encode()).hexdigest() == \
        "3e919c0d2a45a554b4e9654c83ee6583ebc8d19c1cdd42ddb7e68920aceea40e"


def test_label_permutations_need_odd_triples_summing_to_evens(monkeypatch):
    # with the zero characteristic in place of odd 1 the six no longer sum
    # to zero, so a triple and its complement have different sums
    monkeypatch.setattr(chars, "ODD_CHARS", chars.EVEN_CHARS[:1] + chars.ODD_CHARS[1:])
    with pytest.raises(DerivationError, match="odd triples"):
        symplectic_label_permutations.__wrapped__()


def test_permutations_preserve_azygetic_structure():
    quads = {(i, j): chars.azygetic_quadruple(i, j) for i, j in combinations(range(1, 7), 2)}
    for even_map, odd_map in symplectic_label_permutations():
        for (i, j), quad in quads.items():
            image = tuple(sorted(even_map[k - 1] for k in quad))
            assert image == quads[tuple(sorted((odd_map[i - 1], odd_map[j - 1])))]


# -- the extra generator -----------------------------------------------------------

def test_extr_h_shape_and_degrees():
    h = extr_h()
    assert h.denominator == (0, 1, 0, 0, 1, 0, 0, 0, 0, 0)
    assert h.components[0] == P("1*t4*t6^4*t8 + 1*t4*t8*t9^4")
    assert h.components[2] == P("-1*t1*t6*t9*t10^3")
    assert all(h.components[i].is_zero() for i in (1, 3, 4, 5))
    assert h.components[0].degree() == 6
    assert h.degree() == 5
    numerator = ModuleElement(h.components, h.shifts)
    assert numerator.degree() == 7


# -- pipeline ----------------------------------------------------------------------

def test_total_kernel_contains_all_catalog_relations(pipe_p1):
    kernel = pipe_p1.total_kernel()
    for r in rel_d() + extr_a()[:5] + extr_b()[:5]:
        assert kernel.contains(r.element)


def test_completeness(pipe_p1):
    assert pipe_p1.completeness_check()


def test_colon_routes_agree_on_kernel_seed(pipe_p1):
    # intersection colon versus the syzygy route, on the real seed module
    k0 = pipe_p1.kernel_seed()
    order, field = k0.order, k0.field
    fast = module_quotient_engine(k0.engine.elements, (1,) + (0,) * (NVARS - 1),
                                  order, field)
    x1 = GradedPoly.variable(NVARS, 0)
    targets = [to_engine(ModuleElement.generator(NVARS, 6, i, shifts=SHIFTS, coeff=x1),
                         order, field) for i in range(6)]
    syz = syzygy_engine(targets, k0.engine.elements, order, field)
    slow = buchberger_engine([], order, field, seed=syz)
    assert fast == slow


def _count_s_pairs(monkeypatch):
    """counts[-1] counts S-pairs formed, zeros[0] the remainders of the
    signature completion that are zero, and queued[0] the candidates the
    signature completion queues (the 4-tuple heap entries; the Buchberger
    loop queues 3-tuples, and the generators enter by heapify)."""
    counts, zeros, queued = [], [0], [0]
    spoly, normal_form, push = groebner._spoly, groebner._normal_form, groebner.heappush

    def counted_spoly(*args):
        counts[-1] += 1
        return spoly(*args)

    def counted_normal_form(elem, buckets, order, field, sig=None, ib=0):
        red = normal_form(elem, buckets, order, field, sig, ib)
        if sig is not None:
            zeros[0] += red == {}
        return red

    def counted_push(heap, entry):
        queued[0] += type(entry) is tuple and len(entry) == 4
        push(heap, entry)

    monkeypatch.setattr(groebner, "_spoly", counted_spoly)
    monkeypatch.setattr(groebner, "_normal_form", counted_normal_form)
    monkeypatch.setattr(groebner, "heappush", counted_push)
    return counts, zeros, queued


def test_pair_criteria_keep_s_pair_counts(monkeypatch):
    # S-pairs reduced over GF(p1), from scratch: the product criterion on
    # the quartics and the B, M and F rules at rank 6 on k0 (M and F act
    # when a row comes in, B and the product criterion when a pair pops),
    # and the signature criteria of the colon's elimination, where no
    # S-pair reduces to zero.  The bases do not depend on the criteria, so
    # only these counts show a rule that stopped pruning; the colon's
    # queued candidates show the minimal-multiplier rule and the pair
    # filters
    counts, zeros, queued = _count_s_pairs(monkeypatch)
    ideal = MonomialOrder(NVARS)
    counts.append(0)
    buchberger_engine([to_engine(q, ideal, GFP1) for q in riemann_ideal()], ideal, GFP1)
    order = MonomialOrder(NVARS, rank=6)
    counts.append(0)
    k0 = buchberger_engine([to_engine(g, order, GFP1) for g in kernel_seed_generators()],
                           order, GFP1)
    counts.append(0)
    module_quotient_engine(k0, CHI5_EXPS, order, GFP1)
    assert counts == [64, 4971, 1135]
    assert zeros == [0]
    assert queued == [5047]


def test_seeded_completions_keep_s_pair_counts(pipe_p1, monkeypatch):
    # the two seeded extensions over GF(p1), whose seed rows sit before
    # every new row of their bucket: the catalog span (k0 plus the 102
    # four- and five-term relations) and m_pair(1, 3) (the kernel plus
    # P T1 and P T3)
    k0, kernel = pipe_p1.kernel_seed().engine.elements, pipe_p1.total_kernel().engine.elements
    order, field = pipe_p1.order, pipe_p1.field
    counts, _, _ = _count_s_pairs(monkeypatch)
    counts.append(0)
    span = buchberger_engine(pipe_p1._engine([r.element for r in extr_a() + extr_b()]),
                             order, field, seed=k0)
    counts.append(0)
    m13 = buchberger_engine(pipe_p1._engine(pipe_p1._pair_generators(1, 3)),
                            order, field, seed=kernel)
    assert counts == [1020, 848]
    monkeypatch.undo()
    assert span == pipe_p1.catalog_span().engine.elements
    assert m13 == pipe_p1.m_pair(1, 3).engine.elements


def test_m_pair_membership(pipe_p1):
    chi5 = GradedPoly.monomial(NVARS, CHI5_EXPS)
    mp = pipe_p1.m_pair(1, 2)
    assert pipe_p1.complement_product(1, 2) == (1, 1, 1, 1, 1, 1, 0, 0, 0, 0)
    t1 = ModuleElement.generator(NVARS, 6, 0, shifts=SHIFTS, coeff=chi5)
    assert mp.contains(t1)
    p12t1 = ModuleElement.generator(
        NVARS, 6, 0, shifts=SHIFTS,
        coeff=GradedPoly.monomial(NVARS, pipe_p1.complement_product(1, 2)))
    assert mp.contains(p12t1)
    assert not pipe_p1.m_pair(3, 4).contains(p12t1)


def test_kernel_seed_shared_with_oracle():
    # a pipeline over Q, and the exact pass of a dual run, read the
    # oracle's k0 itself: one engine run over Q per process
    k0 = default_oracle().basis.elements
    for field in (QQ, thetaring.UnitWitness()):
        assert StructurePipeline(field).kernel_seed().engine.elements is k0


def test_exact_pass_projection_needs_a_prime_lucky_for_k0(tmp_path, monkeypatch):
    # k0's own run belongs to every stage's chain: with p1 dividing one of
    # its leads, k0 read from the exact pass raises for p1, before the
    # colon kernel is built or stored, and the colon kernel reads for p2
    k0, _ = thetaring._kernel_seed_over_q()
    monkeypatch.setattr(thetaring, "_kernel_seed_over_q", lambda: (k0, groebner.PRIME1))
    exact = StructurePipeline(thetaring.UnitWitness())
    with pytest.raises(DerivationError, match="kernel_seed"):
        StructurePipeline(GFP1, str(tmp_path), exact).total_kernel()
    assert list(tmp_path.iterdir()) == [] and "total_kernel" not in exact._store
    kernel = StructurePipeline(GFP2, str(tmp_path), exact).total_kernel()
    assert kernel.engine.elements == exact.total_kernel().engine.modulo(GFP2).elements
    assert len(list(tmp_path.iterdir())) == 1


def test_generated_needs_the_exact_pass_orbit(pipe_p2):
    # the exact pass runs no orbit: it builds the generated module from
    # the orbit of its first reader, so a later prime whose orbit is not
    # that one raises on a miss, before any engine run
    orbit = pipe_p2.orbit_extr_h()
    exact = StructurePipeline(thetaring.UnitWitness())
    exact._store["generated_orbit"] = [clear_denominator(e, CHI5_EXPS) for e in orbit[1:]]
    pipe = StructurePipeline(GFP2, exact=exact)
    pipe._store.update(orbit=orbit, gradient_span=pipe_p2.gradient_span())
    with pytest.raises(DerivationError, match="orbit over p2147483629"):
        pipe.generated_module()


def _counting_loads(monkeypatch, serve=None):
    """Record the key of every BasisCache.load; serve fixed elements if given."""
    keys = []
    real = BasisCache.load

    def load(self, key, *args):
        keys.append(key)
        return serve if serve is not None else real(self, key, *args)

    monkeypatch.setattr(BasisCache, "load", load)
    return keys


def test_m_pair_warm_is_one_load(pipe_p1, cache_dir, monkeypatch):
    # the key derives from the kernel's key, so the kernel is never loaded
    warm = pipe_p1.m_pair(1, 2)
    keys = _counting_loads(monkeypatch)
    fresh = StructurePipeline(GFP1, cache_dir)
    assert fresh.m_pair(1, 2).same_module(warm)
    assert len(keys) == 1


def test_m_pair_entry_loads_back_and_survives_corruption(pipe_p1, cache_dir):
    warm = pipe_p1.m_pair(1, 2)
    key = pipe_p1._keys["m_pair_1_2"]
    cache = BasisCache(cache_dir)
    assert cache.load(key, pipe_p1.order, GFP1) == warm.engine.elements
    # one tail coefficient changed, digest line kept: a miss, then rebuilt
    with open(cache.path(key), "rb") as fh:
        digest, _, body = fh.read().partition(b"\n")
    payload = json.loads(body)
    term = min(next(e for e in payload["elements"] if len(e) > 1))
    term[1] = term[1] % (GFP1.p - 1) + 1
    with open(cache.path(key), "wb") as fh:
        fh.write(digest + b"\n" + json.dumps(payload, separators=(",", ":")).encode())
    assert cache.load(key, pipe_p1.order, GFP1) is None
    assert StructurePipeline(GFP1, cache_dir).m_pair(1, 2).same_module(warm)
    assert cache.load(key, pipe_p1.order, GFP1) == warm.engine.elements


def test_cache_version_changes_m_pair_key(pipe_p1, monkeypatch):
    keys = _counting_loads(monkeypatch, serve=pipe_p1.m_pair(1, 2).engine.elements)
    StructurePipeline(GFP1).m_pair(1, 2)
    monkeypatch.setattr(groebner, "CACHE_VERSION", groebner.CACHE_VERSION + 1)
    StructurePipeline(GFP1).m_pair(1, 2)
    assert len(keys) == 2 and keys[0] != keys[1]


def test_chi5_m_membership_and_series(pipe_p1):
    cm = pipe_p1.chi5_m()
    chi5 = GradedPoly.monomial(NVARS, CHI5_EXPS)
    for i in range(6):
        assert cm.contains(ModuleElement.generator(NVARS, 6, i, shifts=SHIFTS,
                                                   coeff=chi5))
    assert cm.contains(clear_denominator(extr_h(), CHI5_EXPS))
    series = pipe_p1.module_series().reduced()
    assert series.same_rational_function(GRADIENT_MODULE_SERIES)


def test_module_series_is_computed_once(pipe_p1, monkeypatch):
    series = pipe_p1.module_series()

    def refuse(self):
        raise AssertionError("series recomputed")

    monkeypatch.setattr(groebner.GroebnerBasis, "hilbert_series", refuse)
    assert pipe_p1.module_series() is series


def test_fold_step_one_reduces_no_s_pair_to_zero(pipe_p1, fold_step_one, monkeypatch):
    a, b, meet = fold_step_one
    counts, zeros, queued = _count_s_pairs(monkeypatch)
    counts.append(0)
    assert intersect_pair_engine(a, b, pipe_p1.order, pipe_p1.field) == meet
    assert counts == [1163] and zeros == [0]
    assert queued == [2578]


@pytest.fixture(scope="module")
def fold_step_one(pipe_p1):
    a, b = (pipe_p1.m_pair(i, j).engine.elements for i, j in ((1, 3), (1, 6)))
    return a, b, intersect_pair_engine(a, b, pipe_p1.order, pipe_p1.field)


@pytest.mark.parametrize("step", [1, 2], ids=["step1", "step2"])
def test_fold_step_is_the_intersection(pipe_p1, fold_step_one, step, monkeypatch):
    # the two eliminating fold steps, M(1,3) meet M(1,6) and then that
    # result meet M(3,5), each checked without the elimination: the result
    # lies in both modules and HS(F/(A meet B)) + HS(F/(A+B)) = HS(F/A) +
    # HS(F/B), so it has the dimensions of the intersection in every degree
    # and is the intersection
    order, field = pipe_p1.order, pipe_p1.field
    a, b, meet = fold_step_one
    if step == 2:
        a, b = meet, pipe_p1.m_pair(3, 5).engine.elements
        # step 2's S-pairs, as test_fold_step_one_reduces_no_s_pair_to_zero
        # pins step 1's
        with monkeypatch.context() as m:
            counts, zeros, queued = _count_s_pairs(m)
            counts.append(0)
            meet = intersect_pair_engine(a, b, order, field)
        assert counts == [1132] and zeros == [0] and queued == [2237]
        # the later steps change nothing: step 2 already gives chi5_m
        assert meet == pipe_p1.chi5_m().engine.elements
    assert meet != a
    in_a, in_b = EngineBasis(a, order, field), EngineBasis(b, order, field)
    assert all(in_a.contains(e) and in_b.contains(e) for e in meet)
    total = buchberger_engine(b, order, field, seed=a)
    hs = [hilbert_series_engine(g, order, SHIFTS) for g in (meet, total, a, b)]
    assert (hs[0] + hs[1]).same_rational_function(hs[2] + hs[3])


def test_kernel_series_low_degrees(pipe_p1):
    # the inner module has dimensions 6 and 60 in degrees 1 and 2, matching
    # the full module through degree 4 (the extra generator enters at 5)
    hs = pipe_p1.total_kernel().hilbert_series()
    dims = hs.expand(5)
    full = GRADIENT_MODULE_SERIES.expand(5)
    assert dims[1] == 6 and dims[2] == 60
    assert dims[1:5] == full[1:5]
    assert dims[5] < full[5]


def test_structure_report_passes(pipe_p1):
    rep = pipe_p1.structure_report()
    assert rep["orbit_size"] == 360
    assert rep["generated_in_intersection"] and rep["intersection_in_generated"]
    assert rep["extr_h_in_intersection"] and rep["extr_h_outside_gradient_span"]
    assert rep["series_matches"]
    assert rep["kernel_equals_catalog_span"]
    assert rep["coefficients_t1_t12"][:8] == [6, 60, 330, 1300, 4060, 9952, 20000, 35168]
    assert rep["status"] == "pass"


def test_orbit_elements_certified(pipe_p1):
    orbit = pipe_p1.orbit_extr_h()
    assert len(orbit) == 360
    cm = pipe_p1.chi5_m()
    for e in orbit[::60]:
        assert e.denominator is not None
        assert cm.contains(clear_denominator(e, CHI5_EXPS))
    # identity permutation reproduces the generator itself
    h = extr_h()
    assert any(e.components == h.components and e.denominator == h.denominator
               for e in orbit)


def test_internal_series_consistency():
    # numerator versus printed expansion: 316 + 126*4 + 36*10 + 6*20 = 1300
    assert 316 + 126 * 4 + 36 * 10 + 6 * 20 == 1300
    assert GRADIENT_MODULE_SERIES.expand(8)[1:] == [6, 60, 330, 1300, 4060, 9952,
                                                 20000, 35168]


# -- second-kind presentations --------------------------------------------------------

def test_bracket_modules_dimensions():
    wm = bracket_modules()
    plus, minus = wm["plus"], wm["minus"]
    assert len(plus["generators"]) == 6
    assert plus["dimensions"][2] == 6
    assert len(plus["relations"]) == 4
    assert plus["dimensions"][3] == 6 * 4 - 4    # four independent degree-3 relations
    assert minus["dimensions"][5] == 4
    assert minus["dimensions"][6] == 4 * 4 - 1


def test_symmetric_square_relation_membership():
    # f3 B12 - f2 B13 + f1 B23 reduces to zero in the presentation
    wm = bracket_modules()
    order = MonomialOrder(4, rank=6)
    basis = buchberger_engine(
        [to_engine(r, order, QQ) for r in wm["plus"]["relations"]], order, QQ)
    eng = EngineBasis(basis, order, QQ)
    f = [GradedPoly.variable(4, i) for i in range(4)]
    pair_index = {(1, 2): 3, (1, 3): 4, (2, 3): 5}
    target = (ModuleElement.generator(4, 6, pair_index[(1, 2)], shifts=(2,) * 6, coeff=f[3])
              - ModuleElement.generator(4, 6, pair_index[(1, 3)], shifts=(2,) * 6, coeff=f[2])
              + ModuleElement.generator(4, 6, pair_index[(2, 3)], shifts=(2,) * 6, coeff=f[1]))
    assert eng.contains(to_engine(target, order, QQ))


# -- catalog json -----------------------------------------------------------------------

def test_catalog_json_shapes(oracle):
    assert len(catalog_json("riemann")["quartics"]) == 20
    dtab = catalog_json("dtable")["entries"]
    assert len(dtab) == 15 and all(e["cross_checked"] for e in dtab)
    assert len(catalog_json("reld")["relations"]) == 20
    with pytest.raises(ValueError):
        catalog_json("bogus")
