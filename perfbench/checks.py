"""Output checks built from the paper's constants, not from the program.

Each checker takes the parsed JSON report of one command and returns a
list of problems; an empty list means the report passes.
"""

from __future__ import annotations

import re

# Hilbert series of the gradient module, as printed in the paper:
# (60 t^9 - 60 t^8 - 318 t^7 + 252 t^6 + 606 t^5 + 316 t^4 + 126 t^3
#  + 36 t^2 + 6 t) / (1-t)^4
PAPER_NUMERATOR = {9: 60, 8: -60, 7: -318, 6: 252, 5: 606, 4: 316, 3: 126, 2: 36, 1: 6}
PAPER_DENOMINATOR_EXPONENT = 4
PAPER_COEFFICIENTS_T1_T8 = [6, 60, 330, 1300, 4060, 9952, 20000, 35168]
PAPER_ORBIT_SIZE = 360
# 20 Riemann quartics; 20 three-term, 30 four-term and 72 five-term relations
PAPER_COUNTS = {
    "riemann-quartics": 20,
    "relations-reld": 20,
    "relations-extra": 30,
    "relations-extrb": 72,
}
PAPER_RELATIONS = 20 + 30 + 72

_TERM = re.compile(r"([+-]?)\s*(\d*)\s*\*?\s*(t(?:\^(\d+))?)?")


def parse_series(text: str) -> tuple[dict[int, int], int]:
    """'(6*t + 36*t^2 - ...) / (1-t)^4' -> ({1: 6, 2: 36, ...}, 4)."""
    m = re.fullmatch(r"\s*\((.*)\)\s*/\s*\(1-t\)\^(\d+)\s*", text)
    if m is None:
        raise ValueError(f"not a series over (1-t)^d: {text!r}")
    body, denom = m.group(1), int(m.group(2))
    num: dict[int, int] = {}
    pos = 0
    body = body.strip()
    while pos < len(body):
        tm = _TERM.match(body, pos)
        if tm is None or tm.end() == pos:
            raise ValueError(f"cannot parse series term at {body[pos:]!r}")
        sign, digits, var, power = tm.groups()
        if not digits and not var:
            raise ValueError(f"empty series term at {body[pos:]!r}")
        c = int(digits) if digits else 1
        e = (int(power) if power else 1) if var else 0
        num[e] = num.get(e, 0) + (-c if sign == "-" else c)
        pos = tm.end()
        while pos < len(body) and body[pos] == " ":
            pos += 1
    return {e: c for e, c in num.items() if c}, denom


def _poly_mul(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    out: dict[int, int] = {}
    for i, x in a.items():
        for j, y in b.items():
            out[i + j] = out.get(i + j, 0) + x * y
    return {e: c for e, c in out.items() if c}


def _one_minus_t_power(d: int) -> dict[int, int]:
    out = {0: 1}
    for _ in range(d):
        out = _poly_mul(out, {0: 1, 1: -1})
    return out


def same_series(num_a: dict[int, int], den_a: int,
                num_b: dict[int, int], den_b: int) -> bool:
    """Equality of num_a/(1-t)^den_a and num_b/(1-t)^den_b as rational functions."""
    return (_poly_mul(num_a, _one_minus_t_power(den_b))
            == _poly_mul(num_b, _one_minus_t_power(den_a)))


def check_structure(report: dict) -> list[str]:
    problems = []
    if report.get("status") != "pass":
        problems.append(f"status is {report.get('status')!r}")
    if report.get("cross_field_agreement") is not True:
        problems.append("no cross-field agreement")
    runs = report.get("runs") or []
    if not runs:
        problems.append("no runs in the report")
    for run in runs:
        tag = run.get("field", "?")
        try:
            num, den = parse_series(run.get("series", ""))
        except ValueError as exc:
            problems.append(f"{tag}: {exc}")
        else:
            if not same_series(num, den, PAPER_NUMERATOR, PAPER_DENOMINATOR_EXPONENT):
                problems.append(f"{tag}: series {run['series']!r} is not the paper's")
        if (run.get("coefficients_t1_t12") or [])[:8] != PAPER_COEFFICIENTS_T1_T8:
            problems.append(f"{tag}: coefficients t^1..t^8 are not the paper's")
        if run.get("orbit_size") != PAPER_ORBIT_SIZE:
            problems.append(f"{tag}: orbit size {run.get('orbit_size')} is not 360")
        if run.get("status") != "pass":
            problems.append(f"{tag}: status is {run.get('status')!r}")
    prints = [run.get("fingerprints") for run in runs]
    if len(runs) > 1 and any(p != prints[0] for p in prints):
        problems.append("fingerprints differ between the primes")
    return problems


def check_verify(report: dict) -> list[str]:
    problems = []
    if report.get("status") != "pass":
        problems.append(f"status is {report.get('status')!r}")
    checks = report.get("checks") or []
    by_name = {c.get("name"): c for c in checks}
    for c in checks:
        if c.get("status") != "pass":
            problems.append(f"check {c.get('name')} is {c.get('status')!r}")
    for name, count in PAPER_COUNTS.items():
        got = by_name.get(name, {}).get("count")
        if got != count:
            problems.append(f"{name}: count {got}, the paper has {count}")
    kernel = [c for c in checks if str(c.get("name")).startswith("catalog-in-kernel[")]
    if not kernel:
        problems.append("no catalog-in-kernel check")
    for c in kernel:
        if c.get("relations") != PAPER_RELATIONS or c.get("missing"):
            problems.append(f"{c['name']}: {c.get('relations')} relations, "
                            f"missing {c.get('missing')}")
    if not any(str(c.get("name")).startswith("kernel-equals-catalog-span[") for c in checks):
        problems.append("no kernel-equals-catalog-span check")
    return problems


def check_fold(report: dict) -> list[str]:
    """Fold step 1, A ∩ B, lies in A and in B, contains the full
    fifteen-fold intersection, and differs from A.  Fold step 3, the full
    intersection ∩ C, is the full intersection again."""
    problems = []
    for key in ("first_inside_inputs", "first_contains_full_intersection",
                "first_changed_running_basis", "third_left_running_basis_unchanged"):
        if report.get(key) is not True:
            problems.append(f"{key} is {report.get(key)!r}")
    if not all(report.get("result_sizes") or [0]):
        problems.append("empty intersection")
    return problems


def check_dtable(report: dict) -> list[str]:
    """The set-up probe: `theta2 catalog dtable` lists 15 cross-checked entries."""
    entries = (report.get("data") or {}).get("entries") or []
    if report.get("status") != "pass" or len(entries) != 15:
        return [f"dtable probe: status {report.get('status')!r}, {len(entries)} entries"]
    if not all(e.get("cross_checked") for e in entries):
        return ["dtable probe: an entry fails its cross-check"]
    return []
