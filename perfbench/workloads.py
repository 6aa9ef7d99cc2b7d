"""The benchmark's workloads: which commands one operation runs, with what
starting state, and which checker judges each report.

BENCHMARK.json lists two of them (README.md gives the reasons):

* fold-step: two steps of the `chi5_m` intersection fold over GF(p1),
  from bases the build cached: the first, M(1,3) ∩ M(1,6), which changes
  the running basis, and the third, chi5_m ∩ M(1,4), which does not.  The
  fold is about 80% of a cold `structure` run, which is too long for one
  run.
* verify-all: `theta2 --points 50 --coeff-mode q verify all`.  The colon
  kernel and catalog span over the rationals, the numerics at 50 points
  and the bracket modules; the only workload on RationalField.

structure-warm, `theta2 --jobs 1 structure` against a copy of the build's
filled cache, runs by hand.  It is left out of BENCHMARK.json: its 14 s
operation spreads the most from run to run, and a third workload would
not fit the time budget next to the build.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import checks

# fold steps at the commit that defined the benchmark, which folds the
# m_pair bases smallest first: step 1 intersects the two smallest and
# changes the running basis; from step 3 on (first with M(1,4)) the running
# basis is already the full intersection and no step changes it
FOLD_PAIRS = ((1, 3), (1, 6))
UNCHANGED_PAIR = (1, 4)
VERIFY_POINTS = 50


@dataclass(frozen=True)
class Workload:
    name: str
    uses_cache: bool        # starts from a copy of the build's filled cache
    checker: Callable[[dict], list[str]]
    # (seed, cache dir) -> `theta2` arguments of one operation; None means
    # the operation is `fold_step`, run by inprocess.py
    cli_args: Callable[[int, str], list[str]] | None


WORKLOADS = {w.name: w for w in (
    Workload("structure-warm", True, checks.check_structure,
             lambda seed, cache: ["--seed", str(seed), "--jobs", "1",
                                  "--cache-dir", cache, "structure"]),
    Workload("verify-all", False, checks.check_verify,
             lambda seed, cache: ["--seed", str(seed), "--points", str(VERIFY_POINTS),
                                  "--coeff-mode", "q", "verify", "all"]),
    Workload("fold-step", True, checks.check_fold, None),
)}


def fold_step(cache_dir: str) -> dict:
    """Run fold steps 1 and 3 over GF(p1) the way the pipeline's fold does,
    running basis first, and check both results."""
    from theta2.groebner import GFP1, EngineBasis, GroebnerBasis, intersect_pair_engine
    from theta2.thetaring import StructurePipeline

    pipe = StructurePipeline(GFP1, cache_dir)
    a, b = (pipe.m_pair(i, j) for i, j in FOLD_PAIRS)
    first = intersect_pair_engine(a.engine.elements, b.engine.elements, pipe.order, pipe.field)
    full = pipe.chi5_m()
    c = pipe.m_pair(*UNCHANGED_PAIR)
    third = intersect_pair_engine(full.engine.elements, c.engine.elements, pipe.order,
                                  pipe.field)
    first_gb = GroebnerBasis(EngineBasis(first, pipe.order, pipe.field), a.shifts)
    return {
        "field": "p1",
        "steps": [[list(p) for p in FOLD_PAIRS], ["chi5_m", list(UNCHANGED_PAIR)]],
        "input_sizes": [len(a), len(b), len(full), len(c)],
        "result_sizes": [len(first), len(third)],
        "first_fingerprint": first_gb.structure_fingerprint(),
        "first_inside_inputs": all(a.engine.contains(e) and b.engine.contains(e)
                                   for e in first),
        "first_contains_full_intersection": all(first_gb.engine.contains(e)
                                                for e in full.engine.elements),
        "first_changed_running_basis": first != a.engine.elements,
        "third_left_running_basis_unchanged": third == full.engine.elements,
    }
