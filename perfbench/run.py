"""spectra-lab benchmark entry point.

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each round of a workload runs in a fresh
worker process (perfbench/worker.py) with one BLAS thread; rounds repeat
while at least half of the next one is expected to fit in --seconds.
With --trace 0 the last stdout line reports the end-to-end metrics (medians
over rounds); with --trace 1 one more round runs traced and the line reports
the per-layer metrics and trace_overhead_s.  Everything the run writes goes
under .perfbench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))

WORKLOADS = ("oracle_ladder", "gauge_d2", "contour", "cli_sweep")
MIN_SETUPS = 3          # set-up is measured this many times per run, at least
RUN_LIMIT_S = 170.0     # a single-workload run must end within 180 s
BLAS_THREADS = "1"
OUT = ".perfbench_out"


class BenchError(Exception):
    pass


def environment():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "blas_threads": int(BLAS_THREADS),
            "blas": "%s %s" % (blas.get("name"), blas.get("version")),
            "python": platform.python_version(),
            "numpy": np.__version__, "scipy": metadata.version("scipy"),
            "sympy": metadata.version("sympy")}


def code_digest():
    h = hashlib.sha256()
    for path in sorted(glob.glob("src/spectra_lab/*.py") + glob.glob(os.path.join(HERE, "*.py"))
                       + glob.glob("configs/*.json")):
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


class Runner:
    def __init__(self, workload, seed, workdir, deadline):
        self.workload, self.seed, self.workdir, self.deadline = workload, seed, workdir, deadline
        self.env = dict(os.environ, OPENBLAS_NUM_THREADS=BLAS_THREADS,
                        OMP_NUM_THREADS=BLAS_THREADS, MKL_NUM_THREADS=BLAS_THREADS,
                        PYTHONPATH=os.pathsep.join(
                            ["src"] + [p for p in [os.environ.get("PYTHONPATH")] if p]))

    def round(self, trace=0, setup_only=False):
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--trace", str(trace), "--workdir", self.workdir]
        if setup_only:
            cmd.append("--setup-only")
        timeout = self.deadline - time.perf_counter()
        if timeout <= 0:
            raise BenchError("run limit reached before a round could start")
        t = time.perf_counter()
        try:
            proc = subprocess.run(cmd, env=self.env, capture_output=True, text=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            raise BenchError("worker exceeded the run limit")
        if proc.returncode != 0 or not proc.stdout.strip():
            raise BenchError("worker failed (exit %d):\n%s" % (proc.returncode, proc.stderr[-3000:]))
        rec = json.loads(proc.stdout.strip().splitlines()[-1])
        rec["elapsed_s"] = time.perf_counter() - t
        if proc.stderr.strip():
            sys.stderr.write(proc.stderr)
        return rec


def consistency(workload, seed, records):
    """Determinism and input checks; returns a list of problems."""
    problems = []
    first = records[0]
    for rec in records[1:]:
        if rec.get("digests") != first.get("digests"):
            problems.append("outputs differ between rounds with the same seed")
        if rec["input_digest"] != first["input_digest"]:
            problems.append("inputs differ between rounds with the same seed")
    if first["input_digest"] == first["input_digest_next_seed"]:
        problems.append("seed %d and seed %d give the same inputs" % (seed, seed + 1))
    # the same seed and the same code must reproduce earlier runs exactly
    path = os.path.join(OUT, "digests", "%s-seed%d-%s.json" % (workload, seed, code_digest()))
    if os.path.exists(path):
        with open(path) as fh:
            if json.load(fh) != first.get("digests"):
                problems.append("outputs differ from an earlier run with the same seed")
    elif first.get("digests") is not None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump(first["digests"], fh, indent=1, sort_keys=True)
    return problems


def run_workload(workload, seed, seconds, trace, deadline):
    workdir = os.path.join(OUT, "%s-seed%d" % (workload, seed))
    os.makedirs(workdir, exist_ok=True)
    r = Runner(workload, seed, workdir, deadline)
    start = time.perf_counter()
    records = [r.round()]
    # another round only if at least half of it fits in the window
    while time.perf_counter() - start + 0.5 * records[-1]["elapsed_s"] <= seconds:
        records.append(r.round())
    setups = [rec["setup_s"] for rec in records]
    while len(setups) < MIN_SETUPS:
        setups.append(r.round(setup_only=True)["setup_s"])
    traced = r.round(trace=1) if trace else None

    timed = records + ([traced] if traced else [])
    problems = consistency(workload, seed, timed)
    failures = [f for rec in timed for f in rec["failures"]]
    problems += ["op %s failed" % f["op"] for f in failures if not f["known_defect"]]
    wall = statistics.median(rec["wall_s"] for rec in records)
    e2e = {"setup_s": {"value": statistics.median(setups), "unit": "s"},
           "wall_s": {"value": wall, "unit": "s"},
           "peak_rss_mb": {"value": statistics.median(rec["peak_rss_mb"] for rec in records),
                           "unit": "MB"}}
    result = {"workload": workload, "seed": seed, "rounds": len(records),
              "setups": len(setups), "correct": not problems, "problems": problems,
              "attempted": sum(rec["attempted"] for rec in timed),
              "failed": len(failures), "failures": failures, "end_to_end": e2e,
              "input_digest": records[0]["input_digest"], "digests": records[0].get("digests"),
              "round_records": [{k: v for k, v in rec.items() if k not in ("digests", "layers")}
                                for rec in timed]}
    if traced:
        layers = dict(traced["layers"])
        layers["trace_overhead_s"] = {"value": traced["wall_s"] - wall, "unit": "s"}
        result["per_layer"] = layers
        result["trace_file"] = traced["trace_file"]
    return result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    missing = [p for p in ("src/spectra_lab/__init__.py", "configs/mathieu.json",
                           "configs/axes2d.json") if not os.path.exists(p)]
    if missing:
        sys.stderr.write("not a spectra-lab checkout (missing %s); run from its root\n"
                         % ", ".join(missing))
        return 2
    env = environment()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    try:
        for name in names:
            deadline = time.perf_counter() + (RUN_LIMIT_S if len(names) == 1 else 3600.0)
            results.append(run_workload(name, args.seed, args.seconds, args.trace, deadline))
    except BenchError as e:
        sys.stderr.write("benchmark failed: %s\n" % e)
        return 1

    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    for res in results:
        res["env"] = env
        path = os.path.join(OUT, "results", "%s-seed%d-trace%d.json"
                            % (res["workload"], args.seed, args.trace))
        with open(path, "w") as fh:
            json.dump(res, fh, indent=1, sort_keys=True)
    print(json.dumps({"env": env}, sort_keys=True))
    for res in results:
        frac = res["failed"] / res["attempted"]
        cells = ["%s=%.4g %s" % (k, m["value"], m["unit"]) for k, m in res["end_to_end"].items()]
        print("%-14s %s fail_frac=%.4g ratio (%d/%d) rounds=%d correct=%s" % (
            res["workload"], " ".join(cells), frac, res["failed"], res["attempted"],
            res["rounds"], res["correct"]))
        for f in res["failures"]:
            print("  failed op %s%s" % (f["op"], " (known defect)" if f["known_defect"] else ""))
        for p in res["problems"]:
            print("  problem: %s" % p)
    if len(results) == 1:
        res = results[0]
        metrics = res["per_layer"] if args.trace else res["end_to_end"]
    else:
        res = {"correct": all(r["correct"] for r in results),
               "attempted": sum(r["attempted"] for r in results),
               "failed": sum(r["failed"] for r in results)}
        metrics = {"%s.%s" % (r["workload"], k): m for r in results
                   for k, m in (r["per_layer"] if args.trace else r["end_to_end"]).items()}
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
