"""Per-stage table of one traced cold `structure` run.

    PYTHONPATH=src python3 perfbench/stages.py [--out-dir DIR]

Runs `theta2 --coeff-mode p1 --jobs 1 structure` in this process against
an empty cache directory with the layer wrappers installed, checks the
report against the paper, and prints one markdown row per pipeline stage
(the rows of the ROADMAP baseline).  Spans go to OUT/spans.jsonl.  A cold
run over one prime takes about five minutes on two cores, which is longer
than one benchmark run may take, so this script stands apart from run.py.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import sys
import time

import checks
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--out-dir", default=os.path.join(HERE, "_work", "stages"))
    args = ap.parse_args(argv)

    from theta2 import cli

    cache = os.path.join(args.out_dir, "cache")
    shutil.rmtree(cache, ignore_errors=True)
    os.makedirs(cache)
    recorder = tracing.Recorder()
    tracing.install(recorder)
    buf = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["--coeff-mode", "p1", "--jobs", "1", "--cache-dir", cache,
                         "structure"])
    wall = time.perf_counter() - t0
    recorder.write(os.path.join(args.out_dir, "spans.jsonl"))
    problems = checks.check_structure(json.loads(buf.getvalue())) if code == 0 else [
        f"exit code {code}"]

    metrics = tracing.aggregate(recorder.spans)
    sizes = {
        "colon kernel": metrics.get("thetaring.StructurePipeline.total_kernel.size"),
        "chi5_m intersection fold": metrics.get("thetaring.StructurePipeline.chi5_m.size"),
        "orbit": metrics.get("thetaring.StructurePipeline.orbit_extr_h.size"),
    }
    print("cold `--coeff-mode p1 --jobs 1 structure`, traced: "
          f"{wall:.1f} s wall, report {'passes' if not problems else problems}")
    print("| Stage | Wall time | Size |")
    print("|---|---|---|")
    for label, seconds in tracing.stage_table(recorder.spans):
        size = sizes.get(label)
        print(f"| {label} | {seconds:.1f} s | {size if size is not None else ''} |")
    steps = [s for s in recorder.spans if s["name"] == "groebner.intersect_pair_engine"]
    print("fold steps (s, changed the running basis): " + ", ".join(
        f"{s['end'] - s['start']:.1f}{'*' if s['useful'] else ''}" for s in steps))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
