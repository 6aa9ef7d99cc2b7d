import concurrent.futures
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from theta2 import numerics
from theta2.cli import main
from theta2.groebner import BasisCache
from theta2.thetaring import StructurePipeline


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_catalog_chars(capsys):
    code, out = run(capsys, "catalog", "chars")
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == 1
    assert len(data["data"]["even"]) == 10


@pytest.mark.parametrize("which,count_key,count", [
    ("riemann", "quartics", 20),
    ("dtable", "entries", 15),
    ("reld", "relations", 20),
])
def test_catalog_fast_variants(capsys, which, count_key, count):
    code, out = run(capsys, "catalog", which)
    assert code == 0
    assert len(json.loads(out)["data"][count_key]) == count


def test_catalog_oracle_variants(capsys, oracle):
    code, out = run(capsys, "catalog", "sextets")
    assert code == 0
    blocks = json.loads(out)["data"]["blocks"]
    assert len(blocks) == 12
    code, out = run(capsys, "catalog", "extrb")
    assert code == 0
    assert len(json.loads(out)["data"]["relations"]) == 72


def test_importing_the_cli_leaves_numpy_out():
    # only the suites that evaluate theta series import numerics and numpy
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    code = "import sys, theta2.cli; sys.exit('numpy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_catalog_deterministic(capsys):
    _, first = run(capsys, "catalog", "dtable")
    _, second = run(capsys, "catalog", "dtable")
    assert first == second


def test_verify_numeric(capsys):
    code, out = run(capsys, "--seed", "7", "--points", "3", "verify", "numeric")
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "pass"
    names = {c["name"] for c in report["checks"]}
    assert {"riemann-quartics", "relations-reld", "relations-extra",
            "relations-extrb", "determinant-table"} <= names


def test_verify_numeric_deterministic(capsys):
    _, first = run(capsys, "--seed", "3", "--points", "2", "verify", "numeric")
    _, second = run(capsys, "--seed", "3", "--points", "2", "verify", "numeric")
    assert first == second


def test_verify_numeric_evaluates_each_point_once(capsys, monkeypatch):
    # three points at the configured radius plus the same three at the
    # stricter self-consistency radius: one tail-bound check per pair
    counts = {"theta_values": 0, "grad_values": 0, "tail_bound": 0}
    for name in counts:
        original = getattr(numerics, name)

        def counting(*a, _name=name, _original=original, **k):
            counts[_name] += 1
            return _original(*a, **k)

        monkeypatch.setattr(numerics, name, counting)
    code, _ = run(capsys, "--seed", "7", "--points", "3", "verify", "numeric")
    assert code == 0
    assert counts["theta_values"] <= 2 * 3
    assert counts["grad_values"] <= 2 * 3
    assert counts["tail_bound"] == 2 * 3


def test_truncation_failure_is_an_evaluation_error(capsys):
    code = main(["--radius", "1", "--points", "2", "verify", "numeric"])
    assert code == 2
    captured = capsys.readouterr()
    assert "evaluation error: truncation tail" in captured.err
    assert "internal error" not in captured.out + captured.err


def test_verify_brackets(capsys):
    code, out = run(capsys, "--points", "3", "verify", "brackets")
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "pass"
    # (b) and (c) hold for any values and derivatives, and say so
    labelled = [c["name"] for c in report["checks"]
                if c.get("kind") == "arithmetic-self-check"]
    assert labelled == ["bracket-identity", "triple-bracket-identity"]


def test_verify_brackets_checks_each_point_once(capsys, monkeypatch):
    # one tail-bound check for the doubled point's lattice, whose terms give
    # the constants and their exact derivatives, and one for the point's
    # value table, whose theta constants give chi5
    calls = []
    original = numerics.tail_bound

    def counting(*a, **k):
        calls.append(a)
        return original(*a, **k)

    monkeypatch.setattr(numerics, "tail_bound", counting)
    code, _ = run(capsys, "--points", "2", "verify", "brackets")
    assert code == 0
    assert len(calls) <= 2 * 2


def test_verify_brackets_alone_reports_as_in_verify_all(capsys):
    # verify brackets, alone or within verify all, reads chi5 from the
    # point tables, so both report the same checks
    names = ("jacobian-ratio-constant", "bracket-identity", "triple-bracket-identity",
             "bracket-module-series")
    checks = []
    for argv in (("verify", "brackets"), ("--coeff-mode", "q", "verify", "all")):
        code, out = run(capsys, "--seed", "3", "--points", "3", *argv)
        assert code == 0
        checks.append([c for c in json.loads(out)["checks"] if c["name"] in names])
    assert [c["name"] for c in checks[0]] == list(names)
    assert checks[0] == checks[1]


def test_failed_check_exits_1(capsys):
    # radius 10 and 14 agree to rounding, far above this eps
    code, out = run(capsys, "--eps", "1e-100", "--points", "1", "verify", "numeric")
    assert code == 1
    report = json.loads(out)
    assert report["status"] == "fail"
    assert report["first_failure"] == "radius-self-consistency"


def test_verify_allrel_and_cache_warm_equals_cold(capsys, tmp_path, monkeypatch):
    cache = str(tmp_path / "cache")
    args = ("--coeff-mode", "p1", "--cache-dir", cache, "verify", "allrel")
    code, cold = run(capsys, *args)
    assert code == 0
    hits = []
    real = BasisCache.load

    def counting(self, *a):
        elements = real(self, *a)
        hits.append(elements is not None)
        return elements

    monkeypatch.setattr(BasisCache, "load", counting)
    code, warm = run(capsys, *args)
    assert code == 0
    assert cold == warm
    # the warm run reads the colon kernel and the catalog span from disk
    assert hits == [True, True]


def test_verify_kernel_suite(capsys, cache_dir):
    code, out = run(capsys, "--coeff-mode", "p1", "--cache-dir", cache_dir,
                    "verify", "kernel")
    assert code == 0
    assert json.loads(out)["status"] == "pass"


def test_verify_kernel_two_jobs_matches_one(capsys, cache_dir):
    # --jobs 2 runs the two primes in a process pool sharing the cache
    reports = []
    for jobs in ("2", "1"):
        code, out = run(capsys, "--jobs", jobs, "--coeff-mode", "dual",
                        "--cache-dir", cache_dir, "verify", "kernel")
        assert code == 0
        reports.append(json.loads(out))
    parallel, serial = reports
    assert (serial["manifest"]["jobs"], parallel["manifest"]["jobs"]) == (1, 2)
    serial["manifest"]["jobs"] = 2
    assert parallel == serial
    assert serial["status"] == "pass"
    assert [c["name"] for c in serial["checks"]] == [
        "catalog-in-kernel[p2147483647]", "catalog-in-kernel[p2147483629]"]


def test_verify_all_two_jobs_starts_one_pool(capsys, monkeypatch, cache_dir):
    # the kernel and allrel suites share one process per field
    pools = []

    class CountingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *a, **k):
            pools.append(k)
            super().__init__(*a, **k)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
    reports = []
    for jobs in ("2", "1"):
        code, out = run(capsys, "--jobs", jobs, "--points", "2", "--cache-dir", cache_dir,
                        "verify", "all")
        assert code == 0
        reports.append(json.loads(out))
    assert len(pools) == 1
    parallel, serial = reports
    assert (serial["manifest"]["jobs"], parallel["manifest"]["jobs"]) == (1, 2)
    serial["manifest"]["jobs"] = 2
    assert parallel == serial


_K0_ONCE = """
from theta2 import cli, numerics, thetaring
from theta2.groebner import QQ, EngineBasis, MonomialOrder, to_engine

order = MonomialOrder(thetaring.NVARS, rank=thetaring.RANK)
supports = [sorted(to_engine(g, order, QQ)) for g in thetaring.kernel_seed_generators()]
k0_runs, table_calls, projections = [], [], []
engine, point_values, modulo = thetaring.buchberger_engine, numerics.point_values, EngineBasis.modulo


def counting_engine(gens, order, field, *a, **k):
    gens = list(gens)
    if [sorted(g) for g in gens] == supports:
        k0_runs.append(field)
    return engine(gens, order, field, *a, **k)


def counting_point_values(*a, **k):
    table_calls.append(a)
    return point_values(*a, **k)


def counting_modulo(self, field):
    projections.append(field)
    return modulo(self, field)


thetaring.buchberger_engine = counting_engine
numerics.point_values = counting_point_values
EngineBasis.modulo = counting_modulo
assert cli.main(["--seed", "1", "--points", "2", "--coeff-mode", "q", "verify", "all"]) == 0
assert len(k0_runs) == 1 and k0_runs[0].p is None, k0_runs
assert projections == [], projections
assert len(table_calls) == 2, table_calls
"""


def test_verify_all_over_q_builds_k0_once():
    # a fresh process, so that no catalog or k0 is cached: the oracle and
    # the kernel suite read one k0, from one engine run over Q, and neither
    # reads it modulo anything; the brackets suite reads chi5 from the
    # numeric suite's tables, one per point
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run([sys.executable, "-c", _K0_ONCE], env=env, capture_output=True,
                          text=True)
    assert done.returncode == 0, done.stderr


def test_structure_report_command(capsys, cache_dir, pipe_p1):
    # pipe_p1 warms the on-disk cache for the heavy stages
    code, out = run(capsys, "--coeff-mode", "p1", "--cache-dir", cache_dir,
                    "structure")
    assert code == 0
    report = json.loads(out)
    run0 = report["runs"][0]
    assert run0["orbit_size"] == 360
    assert run0["series_numerator"] == [0, 6, 36, 126, 316, 606, 252, -318, -60, 60]
    assert run0["series_denominator_exponent"] == 4
    assert run0["coefficients_t1_t12"][:8] == [6, 60, 330, 1300, 4060, 9952,
                                               20000, 35168]
    assert report["status"] == "pass"


def test_structure_fails_without_kernel_completeness(capsys, monkeypatch, cache_dir,
                                                     pipe_p1):
    # every other check passes on this cache, so completeness alone decides
    monkeypatch.setattr(StructurePipeline, "completeness_check", lambda self: False)
    code = main(["--coeff-mode", "p1", "--cache-dir", cache_dir, "structure"])
    captured = capsys.readouterr()
    assert code == 1
    report = json.loads(captured.out)
    run0 = report["runs"][0]
    assert run0["kernel_equals_catalog_span"] is False
    assert run0["orbit_size"] == 360 and run0["series_matches"]
    assert run0["status"] == "fail"
    assert report["status"] == "fail"
    assert f"mismatch in run: {run0['field']}" in captured.err


def test_structure_fails_when_the_fields_disagree(capsys, monkeypatch):
    def canned_report(self):
        name = self.field.name
        return {"field": name, "fingerprints": {"chi5_m": name}, "status": "pass"}

    monkeypatch.setattr(StructurePipeline, "structure_report", canned_report)
    code = main(["structure"])
    captured = capsys.readouterr()
    assert code == 1
    report = json.loads(captured.out)
    assert report["cross_field_agreement"] is False
    assert report["status"] == "fail"
    assert "mismatch in run: cross-field" in captured.err


def test_out_flag_writes_report(capsys, tmp_path):
    out_file = tmp_path / "report.json"
    code, printed = run(capsys, "--out", str(out_file), "catalog", "riemann")
    assert code == 0
    assert json.loads(out_file.read_text()) == json.loads(printed)


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["catalog", "nonsense"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["--points", "0", "verify", "numeric"],
    ["--points", "0", "verify", "brackets"],
    ["verify", "numeric", "--points", "-1"],
    ["--radius", "0", "verify", "numeric"],
    ["--eps", "0", "verify", "numeric"],
    ["--eps", "-0.5", "verify", "numeric"],
    ["--eps", "inf", "verify", "numeric"],
    ["--eps", "nan", "verify", "numeric"],
    ["--jobs", "0", "structure"],
    ["--seed", "-1", "verify", "numeric"],
])
def test_bad_numeric_flag_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "internal error" not in captured.out + captured.err
    assert "usage:" in captured.err
