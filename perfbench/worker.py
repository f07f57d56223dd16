"""One round of one workload in a fresh process; prints a JSON record.

    python3 perfbench/worker.py --workload W --seed N --trace 0|1 [--setup-only]

Set-up (imports of spectra_lab and its dependencies, then input generation)
is timed from the first line of this file.  The timed batch follows; the
gates and digests run after it, outside the timed region.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

import spectra_lab.bloch  # noqa: E402,F401
import spectra_lab.cli  # noqa: E402,F401
import spectra_lab.heat  # noqa: E402,F401

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from layers import instrument, layer_metrics  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, sha  # noqa: E402

# Gate failures the benchmark counts in `failed` but that do not make the
# run incorrect: known defects of the program, named so that they stay visible.
KNOWN_DEFECTS = {
    "symbols.is_symmetric.w.k3":
        "w at ktilde = 3 exceeds is_symmetric's absolute 1e-12 by round-off at large |xi|",
}


class Ledger:
    def __init__(self):
        self.attempted = 0
        self.failures = []
        self.counts = {}

    def check(self, name, passed, **detail):
        self.attempted += 1
        if not passed:
            self.failures.append({"op": name, "known_defect": name in KNOWN_DEFECTS,
                                  **{k: float(v) if isinstance(v, (float, np.floating)) else v
                                     for k, v in detail.items()}})


class Context:
    """What the timed batch may use: optional spans, nothing else."""

    def __init__(self, tracer):
        self.tracer = tracer

    @contextlib.contextmanager
    def span(self, name):
        if self.tracer is None:
            yield
            return
        span = self.tracer.begin(name)
        try:
            yield
        finally:
            self.tracer.end(span)


def input_digest(inp):
    return sha(json.dumps(inp, sort_keys=True, default=lambda v: (
        np.asarray(v).tolist() if isinstance(v, np.ndarray) else str(v))))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args()

    wl = WORKLOADS[args.workload]()
    inp = wl.inputs(np.random.default_rng(args.seed))
    if hasattr(wl, "prepare"):
        wl.prepare(inp, args.workdir)
    setup_s = time.perf_counter() - T0
    record = {"setup_s": setup_s,
              "input_digest": input_digest({k: v for k, v in inp.items()
                                            if k not in ("configs", "workdir")})}
    if args.setup_only:
        print(json.dumps(record))
        return 0
    other = wl.inputs(np.random.default_rng(args.seed + 1))
    record["input_digest_next_seed"] = input_digest(other)

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        instrument(tracer)
    ledger = Ledger()
    t, cpu = time.perf_counter(), time.process_time()
    try:
        res = wl.run(inp, Context(tracer))
    except Exception:
        traceback.print_exc()
        res = None
    record["wall_s"] = time.perf_counter() - t
    record["cpu_s"] = time.process_time() - cpu
    if tracer is not None:
        tracer.active = False  # the gates below are not part of the workload
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if res is None:
        ledger.check("batch", False)
    else:
        t = time.perf_counter()
        wl.check(inp, res, ledger)
        record["digests"] = wl.digests(res)
        record["check_s"] = time.perf_counter() - t
    record["attempted"] = ledger.attempted
    record["failures"] = ledger.failures
    if tracer is not None:
        tracer.counts.update(ledger.counts)
        record["layers"] = layer_metrics(tracer)
        path = os.path.join(args.workdir, "trace-%s-seed%d.jsonl" % (args.workload, args.seed))
        tracer.write_jsonl(path)
        record["trace_file"] = path
        record["spans"] = len(tracer.spans)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
