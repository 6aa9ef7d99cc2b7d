"""Run one operation of a workload inside this process.

    PYTHONPATH=src python3 perfbench/inprocess.py --workload NAME --seed N \
        --cache-dir DIR --out-dir DIR [--trace]

CLI workloads call `theta2.cli.main` with the same arguments the untraced
runs pass to `python -m theta2.cli`, so every span lands in this process;
fold-step calls `workloads.fold_step`.  The report is written, byte for
byte as the CLI prints it, to OUT/report.json.  With --trace the layer
wrappers are installed first, and the spans go to OUT/spans.jsonl.
Exit code: the CLI's, or 0 for fold-step.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys

import tracing
from workloads import WORKLOADS, fold_step


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--cache-dir", required=True)
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)

    from theta2 import cli

    recorder = None
    if args.trace:
        recorder = tracing.Recorder()
        tracing.install(recorder)
    workload = WORKLOADS[args.workload]
    if workload.cli_args is None:
        code = 0
        text = json.dumps(fold_step(args.cache_dir), indent=2, sort_keys=True) + "\n"
    else:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(workload.cli_args(args.seed, args.cache_dir))
        text = buf.getvalue()
    with open(os.path.join(args.out_dir, "report.json"), "w") as fh:
        fh.write(text)
    if recorder is not None:
        recorder.write(os.path.join(args.out_dir, "spans.jsonl"))
    return code


if __name__ == "__main__":
    sys.exit(main())
