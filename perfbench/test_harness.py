"""Self-tests of the benchmark harness; none runs the pipeline.

    python3 -m pytest perfbench -q
"""

import copy
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import tracing  # noqa: E402
import run  # noqa: E402
from run import tail_percentile  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SERIES_TEXT = ("(6*t + 36*t^2 + 126*t^3 + 316*t^4 + 606*t^5 + 252*t^6 - 318*t^7 "
               "- 60*t^8 + 60*t^9) / (1-t)^4")


def structure_report():
    run = {
        "field": "p2147483647",
        "orbit_size": 360,
        "series": SERIES_TEXT,
        "coefficients_t1_t12": [6, 60, 330, 1300, 4060, 9952, 20000, 35168,
                                59430, 95980, 148926, 223176],
        "fingerprints": {"chi5_m": "a", "generated": "a", "total_kernel": "b"},
        "status": "pass",
    }
    other = dict(run, field="p2147483629")
    return {"status": "pass", "cross_field_agreement": True, "runs": [run, other]}


def verify_report():
    checks_ = [{"name": n, "count": c, "status": "pass"} for n, c in checks.PAPER_COUNTS.items()]
    checks_ += [
        {"name": "catalog-in-kernel[q]", "relations": 122, "missing": [], "status": "pass"},
        {"name": "kernel-equals-catalog-span[q]", "status": "pass"},
    ]
    return {"status": "pass", "checks": checks_}


def expand_series(num, den, upto):
    """Coefficients of t^0..t^upto of num / (1-t)^den."""
    inv = [1] * (upto + 1)  # 1/(1-t)
    for _ in range(den - 1):
        inv = [sum(inv[: k + 1]) for k in range(upto + 1)]
    return [sum(c * inv[k - e] for e, c in num.items() if e <= k) for k in range(upto + 1)]


def test_paper_constants_agree():
    coeffs = expand_series(checks.PAPER_NUMERATOR, checks.PAPER_DENOMINATOR_EXPONENT, 8)
    assert coeffs[1:] == checks.PAPER_COEFFICIENTS_T1_T8


def test_parse_series_reads_the_program_format():
    num, den = checks.parse_series(SERIES_TEXT)
    assert den == 4 and num == checks.PAPER_NUMERATOR
    assert checks.parse_series("(1 - t) / (1-t)^1") == ({0: 1, 1: -1}, 1)


def test_same_series_ignores_common_factors():
    # multiply numerator and denominator by (1-t)
    num = checks._poly_mul(checks.PAPER_NUMERATOR, {0: 1, 1: -1})
    assert checks.same_series(num, 5, checks.PAPER_NUMERATOR, 4)
    assert not checks.same_series({1: 6}, 4, checks.PAPER_NUMERATOR, 4)


def test_structure_checker_accepts_the_paper():
    assert checks.check_structure(structure_report()) == []


def test_structure_checker_rejects_a_wrong_series():
    report = structure_report()
    report["runs"][1]["series"] = SERIES_TEXT.replace("318*t^7", "317*t^7")
    problems = checks.check_structure(report)
    assert any("not the paper's" in p for p in problems)


def test_structure_checker_rejects_a_wrong_orbit_size():
    report = structure_report()
    report["runs"][0]["orbit_size"] = 720
    assert any("orbit size 720" in p for p in checks.check_structure(report))


def test_structure_checker_rejects_disagreeing_primes():
    report = structure_report()
    report["runs"][1]["fingerprints"] = dict(report["runs"][1]["fingerprints"], chi5_m="c")
    assert "fingerprints differ between the primes" in checks.check_structure(report)


def test_verify_checker():
    assert checks.check_verify(verify_report()) == []
    report = verify_report()
    report["checks"][2]["count"] = 29
    assert any("relations-extra" in p for p in checks.check_verify(report))
    report = verify_report()
    report["checks"][-1]["status"] = "fail"
    assert checks.check_verify(report)


def test_fold_checker():
    good = {"first_inside_inputs": True, "first_contains_full_intersection": True,
            "first_changed_running_basis": True, "third_left_running_basis_unchanged": True,
            "result_sizes": [932, 1006]}
    assert checks.check_fold(good) == []
    assert checks.check_fold(dict(good, first_contains_full_intersection=False))
    assert checks.check_fold(dict(good, third_left_running_basis_unchanged=False))
    assert checks.check_fold(dict(good, result_sizes=[0, 1006]))


def span(i, parent, name, start, end, nested=False, **extra):
    return {"id": i, "parent": parent, "name": name, "field": "p1",
            "start": start, "end": end, "nested": nested, **extra}


NESTED = [
    span(0, None, "thetaring.a", 0.0, 10.0),
    span(1, 0, "groebner.b", 1.0, 3.0),
    span(2, 1, "symbolic.c", 1.5, 2.0),
    span(3, 0, "groebner.b", 5.0, 6.0),
    span(4, 3, "groebner.b", 5.2, 5.8, nested=True),
]


def test_self_time_subtracts_direct_children():
    selfs = tracing.self_times(NESTED)
    assert selfs[0] == 10.0 - 2.0 - 1.0
    assert selfs[1] == 2.0 - 0.5
    assert selfs[2] == 0.5
    assert abs(selfs[3] - 0.4) < 1e-12


def test_self_time_counts_overlapping_children_once():
    spans = [span(0, None, "x", 0.0, 10.0), span(1, 0, "y", 1.0, 4.0),
             span(2, 0, "y", 3.0, 5.0)]
    assert tracing.self_times(spans)[0] == 6.0


def test_aggregate_counts_recursion_once():
    m = tracing.aggregate(copy.deepcopy(NESTED))
    assert m["groebner.b.calls"] == 3
    assert m["groebner.b.s"] == 2.0 + 1.0
    assert abs(m["groebner.b.self_s"] - (1.5 + 0.4 + 0.6)) < 1e-12
    assert abs(m["groebner.self_s"] - 2.5) < 1e-12
    assert m["thetaring.self_s"] == 7.0


def test_stage_time_removes_lazy_earlier_stages():
    spans = [
        span(0, None, "chi5_m", 0.0, 10.0),
        span(1, 0, "m_pair", 0.0, 4.0),
        span(2, 1, "total_kernel", 0.0, 3.0),
        span(3, 0, "m_pair", 4.0, 5.0),
    ]
    assert tracing.stage_time(spans, "chi5_m", ("m_pair", "total_kernel")) == 5.0
    assert tracing.stage_time(spans, "m_pair", ("total_kernel",)) == 2.0


def test_tail_percentile_needs_ten_samples_beyond():
    assert tail_percentile(list(range(10))) is None
    assert tail_percentile(list(range(11))) == (9, 0)
    assert tail_percentile(list(range(20))) == (50, 9)
    assert tail_percentile(list(range(100))) == (90, 89)
    assert tail_percentile(list(range(1000))) == (99, 989)
    # order of the input does not matter
    assert tail_percentile(list(reversed(range(100)))) == (90, 89)


def test_install_wraps_every_namespace():
    # wrappers patch modules process-wide, so this runs in its own process
    here = os.path.dirname(os.path.abspath(__file__))
    script = (
        "import json, tracing\n"
        "from theta2 import groebner, thetaring\n"
        "rec = tracing.Recorder()\n"
        "tracing.install(rec)\n"
        "assert thetaring.buchberger_engine is groebner.buchberger_engine\n"
        "order = groebner.MonomialOrder(2)\n"
        "x = groebner.to_engine(thetaring.GradedPoly.variable(2, 0), order, groebner.GFP1)\n"
        "groebner.intersect_engine([[x], [x]], order, groebner.GFP1)\n"
        "print(json.dumps(rec.spans))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(os.path.dirname(here), "src"), here]))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=120, check=True).stdout
    spans = json.loads(out)
    names = [s["name"] for s in spans]
    assert names[:2] == ["groebner.intersect_engine", "groebner.intersect_pair_engine"]
    assert names.count("groebner.buchberger_engine") == 2
    assert all(s["field"] == "p1" for s in spans)
    assert spans[1]["parent"] == spans[0]["id"]
    assert spans[1]["useful"] == 0


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(os.path.dirname(run.HERE), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == [
        (name, run.layer_unit(name)) for name in run.PER_LAYER]
    assert {m["name"] for m in bench["end_to_end"]} == {"run_s", "cpu_s", "peak_rss_mb",
                                                        "setup_s"}
    assert all(w["name"] in WORKLOADS for w in bench["workloads"])
