"""Acceptance suite: every top-level criterion with one pass/fail line each.

Run with -s to see the lines; each criterion is also a hard assertion at its
stated tolerance.  Exact checks use exact arithmetic; the heavy module
computations run over two distinct word-sized primes, with a rational run
of the kernel stage cross-checked coefficient by coefficient and a rational
run of the whole structure checked against the closed form.
"""

from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product

import numpy as np

from theta2 import chars
from theta2.groebner import (
    GFP1,
    GFP2,
    QQ,
    MonomialOrder,
    buchberger_engine,
    hilbert_series_engine,
    to_engine,
)
from theta2.numerics import (
    EvalConfig,
    dtable_ratios,
    point_values,
    relation_residual,
    second_kind_checks,
)
from theta2.symbolic import graded_dimension
from theta2.thetaring import (
    GRADIENT_MODULE_SERIES,
    NVARS,
    StructurePipeline,
    all_relations,
    d_table,
    riemann_ideal,
    sextets,
    bracket_modules,
)

CFG = EvalConfig(radius=10, target_eps=1e-12)


def report(criterion: int, description: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {criterion}: {description}{suffix}")
    assert ok, f"criterion {criterion} failed: {description}{suffix}"


# -- criterion 1: the Hilbert function ---------------------------------------------

def test_criterion_1_hilbert_function(pipe_p1, pipe_p2):
    expected_coeffs = [6, 60, 330, 1300, 4060, 9952, 20000, 35168]
    ok = True
    details = []
    for pipe in (pipe_p1, pipe_p2):
        series = pipe.module_series().reduced()
        same = series.same_rational_function(GRADIENT_MODULE_SERIES)
        coeffs = series.expand(8)[1:]
        ok = ok and same and coeffs == expected_coeffs
        details.append(f"{pipe.field.name}: {series.to_text()}")
    report(1, "Hilbert function equals the closed form with coefficients "
              "6, 60, 330, 1300, 4060, 9952, 20000, 35168", ok,
           "; ".join(details))


# -- criterion 2: kernel completeness ------------------------------------------------

def test_criterion_2_kernel_equals_catalog_span(pipe_p1, pipe_p2):
    ok = pipe_p1.completeness_check() and pipe_p2.completeness_check()
    report(2, "colon kernel equals the span of the 122 catalog relations "
              "(reduced-basis equality, two primes)", ok,
           f"basis size {len(pipe_p1.total_kernel())}")


# -- criterion 3: numeric soundness of every relation ---------------------------------

def test_criterion_3_relation_residuals(points):
    tables = [point_values(Z, CFG) for Z in points]
    worst = 0.0
    count = 0
    for q in riemann_ideal():
        for table in tables:
            worst = max(worst, relation_residual(q, table))
        count += 1
    for r in all_relations():
        for table in tables:
            worst = max(worst, relation_residual(r.element, table))
        count += 1
    ok = worst < 1e-9 and count == 142 and len(points) == 10
    report(3, "all 20 quartic, 20 three-term, 30 four-term, 72 five-term "
              "relations vanish numerically at 10 seeded points", ok,
           f"max relative residual {worst:.2e}")


# -- criterion 4: determinant table ----------------------------------------------------

def test_criterion_4_dtable_certification(points):
    ratios = dtable_ratios([point_values(Z, CFG) for Z in points])
    worst = 0.0
    ok = True
    for entry in d_table():
        vals = np.array(ratios[entry.pair])
        dev = float(np.abs(vals - entry.sign).max())
        worst = max(worst, dev)
        ok = ok and dev < 1e-8
    report(4, "gradient determinants match the sign table to 1e-8 at 10 points",
           ok,
           f"max deviation {worst:.2e}; normalization resolved: pi^2 with the "
           f"(grad_j, grad_i) column orientation, so the printed reciprocal "
           f"power on the first entry is a misprint")


# -- criterion 5: combinatorial counts ---------------------------------------------------

def test_criterion_5_combinatorics():
    evens = sum(1 for bits in product((0, 1), repeat=4)
                if chars.Characteristic.from_bits(bits).is_even())
    odds = 16 - evens
    quads_ok = all(len(chars.azygetic_quadruple(i, j)) == 4
                   for i, j in combinations(range(1, 7), 2))
    decomp_counts = [len(chars.five_term_decompositions(i)) for i in range(1, 7)]
    blocks = sextets()
    balanced = all(
        sum(k in s.even_set for s in block) == 3
        for block in blocks for k in range(1, 11))
    partition = {(s.odd_index, s.even_set) for block in blocks for s in block}
    worked_block = {(1, frozenset({3, 5, 6, 8, 9})), (2, frozenset({1, 2, 4, 8, 9})),
                   (4, frozenset({2, 5, 7, 8, 10})), (6, frozenset({4, 6, 7, 9, 10})),
                   (3, frozenset({1, 3, 4, 5, 10})), (5, frozenset({1, 2, 3, 6, 7}))}
    worked_found = any({(s.odd_index, s.even_set) for s in b} == worked_block
                      for b in blocks)
    ok = (evens == 10 and odds == 6 and quads_ok
          and decomp_counts == [12] * 6 and sum(decomp_counts) == 72
          and len(blocks) == 12 and balanced and len(partition) == 72
          and worked_found)
    report(5, "10 even / 6 odd; 15 azygetic quadruples of size 4; 12 "
              "decompositions per odd label (72 total) in 12 balanced sextets "
              "with the worked example block reproduced", ok)


# -- criterion 6: the extra generator and its orbit -----------------------------------------

def test_criterion_6_extra_generator(pipe_p1):
    rep = pipe_p1.structure_report()
    ok = (rep["extr_h_in_intersection"] and rep["extr_h_outside_gradient_span"]
          and rep["orbit_size"] == 360 and rep["generated_in_intersection"]
          and rep["intersection_in_generated"])
    report(6, "extra generator lies in the intersection module but not in the "
              "gradient span; verified orbit has 360 elements; generation "
              "check passes in both directions", ok,
           f"orbit size {rep['orbit_size']}")


# -- criterion 7: sanity dimensions -----------------------------------------------------------

def _sparse_rank(rows, p=None):
    pivots: dict = {}
    rank = 0
    for row in rows:
        row = dict(row)
        while row:
            c = min(row)
            if c in pivots:
                prow, pval = pivots[c]
                if p is None:
                    f = row[c] / pval
                else:
                    f = row[c] * pow(pval, p - 2, p) % p
                for cc, v in prow.items():
                    nv = row.get(cc, 0) - f * v
                    if p is not None:
                        nv %= p
                    if nv:
                        row[cc] = nv
                    else:
                        row.pop(cc, None)
            else:
                pivots[c] = (row, row[c])
                rank += 1
                break
    return rank


def _ideal_slice_rows(degree, p=None):
    monos = list(combinations_with_replacement(range(NVARS), degree - 4))
    col_index = {}
    rows = []
    for q in riemann_ideal():
        for mono in monos:
            row = {}
            for exps, c in q.terms.items():
                e = list(exps)
                for v in mono:
                    e[v] += 1
                key = tuple(e)
                col = col_index.setdefault(key, len(col_index))
                row[col] = int(c) if p is None else int(c) % p
            rows.append(row)
    return rows


def test_criterion_7_sanity_dimensions(pipe_p1):
    order = MonomialOrder(NVARS)
    basis = buchberger_engine([to_engine(q, order, QQ) for q in riemann_ideal()], order, QQ)
    series = hilbert_series_engine(basis, order, (0,))
    dims_series = series.expand(6)
    expected = [1, 10, 55, 220, 695]
    # exact linear algebra at degree 4 over the rationals
    rows4 = [{k: Fraction(v) for k, v in r.items()} for r in _ideal_slice_rows(4)]
    rank4 = _sparse_rank(rows4)
    dim4_linalg = graded_dimension(NVARS, 4) - rank4
    # degrees 5 and 6 cross-checked modulo both primes
    linalg_ok = True
    for d in (5, 6):
        dims_p = []
        for p in (GFP1.p, GFP2.p):
            rank = _sparse_rank(_ideal_slice_rows(d, p), p)
            dims_p.append(graded_dimension(NVARS, d) - rank)
        linalg_ok = linalg_ok and dims_p[0] == dims_p[1] == dims_series[d]
    ok = (dims_series[:5] == expected and dim4_linalg == 695 and linalg_ok)
    report(7, "quotient ring dimensions 1, 10, 55, 220, 695 in degrees 0..4 by "
              "the series route and by exact linear algebra (degrees 5, 6 "
              "cross-checked modulo two primes)", ok,
           f"series start {dims_series[:5]}, degree-4 rank {rank4}")


# -- criterion 8: second-kind suite --------------------------------------------------------------

def test_criterion_8_second_kind_suite(points):
    rep = second_kind_checks([point_values(Z, CFG) for Z in points], CFG)
    wm = bracket_modules()
    plus, minus = wm["plus"], wm["minus"]
    n_rel = len(plus["relations"])
    ok = (rep["bracket_max_residual"] < 1e-7
          and rep["triple_max_residual"] < 1e-7
          and rep["jacobian_rel_spread"] < 1e-6
          and plus["dimensions"][2] == 6
          and plus["dimensions"][3] == 6 * 4 - n_rel
          and minus["dimensions"][5] == 4
          and minus["dimensions"][6] == 15)
    report(8, "Jacobian ratio constant to 1e-6; bracket identities, which "
              "hold for any values and derivatives, evaluate to 1e-7; "
              "presented-module series computed", ok,
           f"symmetric-square series {plus['series'].reduced().to_text()} with "
           f"{n_rel} independent degree-3 relations; twisted series "
           f"{minus['series'].reduced().to_text()}; Jacobian constant "
           f"{rep['jacobian_constant']:.6f}")


# -- criterion 9: determinism and cross-arithmetic agreement --------------------------------------

def test_criterion_9_cross_arithmetic(pipe_p1, pipe_p2, cache_dir):
    fp1 = pipe_p1.structure_report()["fingerprints"]
    fp2 = pipe_p2.structure_report()["fingerprints"]
    # every named basis in the pipeline, the fifteen pair modules included
    stages = [lambda p: p.kernel_seed(), lambda p: p.total_kernel(),
              lambda p: p.catalog_span(), lambda p: p.gradient_span(),
              lambda p: p.chi5_m(), lambda p: p.generated_module()]
    stages += [lambda p, i=i, j=j: p.m_pair(i, j)
               for i, j in combinations(range(1, 7), 2)]
    all_bases_equal = all(
        stage(pipe_p1).structure_fingerprint() == stage(pipe_p2).structure_fingerprint()
        for stage in stages)
    series_equal = (pipe_p1.module_series().reduced()
                    == pipe_p2.module_series().reduced())
    kernel_series_equal = (pipe_p1.total_kernel().hilbert_series().reduced()
                           == pipe_p2.total_kernel().hilbert_series().reduced())

    # rational run of the kernel stage: identical structure and coefficients
    pipe_q = StructurePipeline(QQ, cache_dir)
    tk_q = pipe_q.total_kernel()
    tk_p = pipe_p1.total_kernel()
    structure_equal = (tk_q.structure_fingerprint() == tk_p.structure_fingerprint())
    # the symmetric lift of each GF(p1) coefficient, not a reduction mod p
    coeff_equal = (tk_q.engine.elements
                   == [{k: GFP1.lift(c) for k, c in e.items()} for e in tk_p.engine.elements])

    # the rest of the structure over Q, the exact proof: the chi5_m and
    # generated bases have the GF(p1) shapes, and the series, orbit, both
    # inclusions and kernel completeness check out with no prime involved
    rep_q = pipe_q.structure_report()
    rational_structure = rep_q["status"] == "pass" and rep_q["fingerprints"] == fp1

    # determinism: a fresh recomputation without the disk cache agrees exactly
    pipe_p1_fresh = StructurePipeline(GFP1)
    recompute_equal = pipe_p1_fresh.total_kernel().same_module(tk_p)

    ok = (fp1 == fp2 and all_bases_equal and series_equal and kernel_series_equal
          and structure_equal and coeff_equal and rational_structure and recompute_equal)
    report(9, "dual-prime runs agree on every reduced basis and series; the "
              "rational kernel run matches coefficient for coefficient; the "
              "rational structure run passes every check, kernel completeness "
              "included, and matches the GF(p1) basis shapes; recomputation is "
              "deterministic", ok)
