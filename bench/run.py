"""Benchmark of the charcap chain: one seeded workload per run.

    python3 bench/run.py --workload chain|video|crowded --seed N \
        --seconds S --trace 0|1

Run from the repository root (the library is imported from ``src/``). The
run sets up its inputs ``SETUPS`` times, then runs whole rounds of the
workload's stage calls back to back (a closed loop: each call starts when
the previous one returns) until ``--seconds`` have passed, checks the
outputs of the first round and the digest of every round, and prints the
metrics. While a round runs, a timer interrupts it every 50 ms to run a
fixed reference loop (``reference.py``); each round's time, less the
loop's, is reported as a multiple of the loop's mean time in the same
round (``round_cost``), so that the drift of a shared machine's speed
cancels. Set-up time is scaled the same way to a machine on which the
loop takes ``REF_NOMINAL_MS`` (``setup_s``). Traced runs leave the loop
out.
The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
every public charcap function is wrapped and the per-layer metrics are
reported instead. BLAS runs on one thread.
"""

import os
import sys
import time

_T0 = time.perf_counter()
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402

import charcap  # noqa: E402  (fails here when the checkout has no src/)

if not os.path.abspath(charcap.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
    sys.exit(f"charcap must come from {ROOT}/src, not {charcap.__file__}")

from charcap import corpus, decoder, linker, multicut, numerics, shots, track_features  # noqa: E402

import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

IMPORT_S = time.perf_counter() - _T0
SETUPS = 5
# the reference loop's median time during rounds on the 2-core VM the
# benchmark was tuned on; setup_s is set-up time at that machine speed
REF_NOMINAL_MS = 1.7
END_TO_END = ("setup_s", "round_cost", "peak_rss_mb")
MODULES = (numerics, track_features, shots, corpus, multicut, linker, decoder)


def run(name, seed, seconds, trace, workdir, out=sys.stdout):
    """One benchmark run; returns the result object."""
    wl = workloads.WORKLOADS[name]()
    tracer = None
    if trace:
        tracer = tracing.Tracer()
        tracer.install(MODULES)
    try:
        ref = None if trace else reference.Reference()
        setup_times, setup_ref_ms = [], []
        for _ in range(SETUPS):
            t0 = time.perf_counter()
            if ref:
                ref.start()
            try:
                wl.setup(seed, workdir)
            finally:
                if ref:
                    ref.stop()
            elapsed = time.perf_counter() - t0
            if ref:
                ref_s, ref_mean = ref.take()
                elapsed -= ref_s
                setup_ref_ms.append(1000.0 * ref_mean)
            setup_times.append(elapsed)

        rounds, walls, costs, digests = [], [], [], set()
        tried, tried_costs, ref_ms, cpus = [], [], [], []
        first, quality, correct = None, {}, True
        attempted = failed = 0
        start = time.perf_counter()
        while True:
            ops = workloads.Ops()
            c0 = time.process_time()
            t0 = time.perf_counter()
            if ref:
                ref.start()
            try:
                result = wl.run_round(ops)
            except Exception:  # a failing stage call fails the rest of its round
                traceback.print_exc(file=sys.stderr)
                result = None
            finally:
                if ref:
                    ref.stop()
            wall = time.perf_counter() - t0
            cpus.append(time.process_time() - c0)
            if ref:
                ref_s, ref_mean = ref.take()
                wall -= ref_s  # the reference loop's own time is not the round's
                tried_costs.append(wall / ref_mean)
                ref_ms.append(1000.0 * ref_mean)
            tried.append(wall)
            attempted += wl.ops_per_round
            failed += wl.ops_per_round - ops.done
            if result is not None:
                if ops.done != wl.ops_per_round:
                    raise RuntimeError(f"round made {ops.done} calls, expected {wl.ops_per_round}")
                rounds.append(ops)
                walls.append(wall)
                if ref:
                    costs.append(tried_costs[-1])
                digests.add(wl.fingerprint(result))
                if first is None:
                    first = result
                    if tracer:
                        tracer.paused = True
                    try:
                        quality = wl.check(result)
                    except workloads.CheckFailed as exc:
                        print(f"check failed: {exc}", file=sys.stderr)
                        correct = False
                    finally:
                        if tracer:
                            tracer.paused = False
            if time.perf_counter() - start >= seconds:
                break
    finally:
        if tracer:
            tracer.uninstall()

    if len(digests) > 1:
        print(f"rounds disagree: {len(digests)} distinct output digests", file=sys.stderr)
        correct = False
    correct = correct and first is not None

    e2e = {
        "setup_raw_s": (IMPORT_S + statistics.median(setup_times), "s"),
        "wall_s": (statistics.median(walls or tried), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    if ref:
        e2e["setup_s"] = (e2e["setup_raw_s"][0] * REF_NOMINAL_MS
                          / statistics.median(setup_ref_ms), "s")
        e2e["round_cost"] = (statistics.median(costs or tried_costs), "ref")
    if first is not None:
        e2e.update(wl.stage_metrics(first, rounds))
        e2e.update({k: (v, "fraction") for k, v in quality.items()})
    print(f"workload {name}  seed {seed}  rounds {len(walls)}  ops/round {wl.ops_per_round}  "
          f"blas_threads {BLAS_THREADS}  trace {int(trace)}  import_s {IMPORT_S:.4f}", file=out)
    for k, (v, unit) in e2e.items():
        print(f"  {k:<20} {v:.6g} {unit}", file=out)
    print(f"  rounds_wall_s {' '.join(f'{w:.4f}' for w in tried)}", file=out)
    print(f"  rounds_cpu_s {' '.join(f'{w:.4f}' for w in cpus)}", file=out)
    if ref:
        print(f"  rounds_ref_ms {' '.join(f'{w:.4f}' for w in ref_ms)}", file=out)
        print(f"  rounds_cost {' '.join(f'{w:.1f}' for w in tried_costs)}", file=out)
    print(f"  digest {','.join(sorted(digests))}", file=out)

    if trace:
        metrics = {k: {"value": v, "unit": u}
                   for k, (v, u) in tracer.per_layer(max(1, len(walls)), SETUPS).items()}
    else:
        metrics = {k: {"value": e2e[k][0], "unit": e2e[k][1]} for k in END_TO_END}
    return {"correct": bool(correct), "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    workdir = tempfile.mkdtemp(prefix=".run-", dir=HERE)
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
