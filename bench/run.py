#!/usr/bin/env python3
"""mmpinhole benchmark: one closed-loop workload per run.

    python3 bench/run.py --workload cli_pipeline --seed 1 --seconds 30 --trace 0

Runs one workload (``cli_pipeline``, ``design_study`` or ``sync_frames``) for
``--seconds`` seconds from the root of a source checkout, checks every op
against the oracle and prints the metrics, one per line with its unit.  The
last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced ops and reports the per-layer metrics of the traced ones
(and the tracing overhead).  ``--smoke`` runs on the toy geometry of the C14
acceptance test.  BLAS and OpenMP run single-threaded.  See DESIGN.md.
"""

import os
import sys
import time

T0 = time.perf_counter()  # workload start: setup_s runs from here
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("cli_pipeline", "design_study", "sync_frames")
SETUP_PROBES = 4        # child processes that repeat imports + set-up
TAIL_MIN_OPS = 100
PROBLEMS_SHOWN = 5


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="toy geometry of the C14 acceptance test")
    p.add_argument("--setup-probe", action="store_true",
                   help="only import and set up, print the set-up time and exit")
    return p.parse_args(argv)


def import_package():
    """Put the checkout's src/ first on the path and import mmpinhole from it."""
    if not (SRC / "mmpinhole" / "__init__.py").is_file():
        raise SystemExit(f"bench: no mmpinhole sources under {SRC}; run from a "
                         "checkout of the repository")
    sys.path.insert(0, str(SRC))
    import mmpinhole
    if Path(mmpinhole.__file__).resolve().parent != SRC / "mmpinhole":
        raise SystemExit(f"bench: imported mmpinhole from {mmpinhole.__file__}, "
                         f"not from {SRC}")


def machine_info() -> dict:
    import numpy as np
    import scipy

    def read(path):
        try:
            return Path(path).read_text()
        except OSError:
            return ""

    cpu = next((line.split(":", 1)[1].strip() for line in read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), platform.processor())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "l3": read("/sys/devices/system/cpu/cpu0/cache/index3/size").strip(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def tail(times):
    """(level, value) of the highest percentile with at least 10 ops beyond it.

    None with fewer than TAIL_MIN_OPS ops, where that percentile would sit
    below p90.
    """
    n = len(times)
    if n < TAIL_MIN_OPS:
        return None
    return f"p{100.0 * (n - 10) / n:.2f} of {n}", sorted(times)[n - 11]


def probe_setup(args) -> list:
    """Set-up times of SETUP_PROBES fresh interpreters running the same set-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"] + (["--smoke"] if args.smoke else [])
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()[-500:]}")
        samples.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def main(argv=None) -> int:
    args = parse_args(argv)
    import_package()
    import numpy as np

    import oracle
    import workloads
    from tracing import Tracer

    scale = workloads.SMOKE if args.smoke else workloads.FULL
    rng = np.random.default_rng([args.seed, WORKLOAD_NAMES.index(args.workload)])
    workdir = BENCH / "out" / f"work-{os.getpid()}"
    wl = workloads.WORKLOADS[args.workload](scale, rng, workdir)
    wl.setup()
    setup_s = time.perf_counter() - T0
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    try:
        t = time.perf_counter()
        problems = list(wl.generate())
        problems += [f"negative case: {m}" for m in oracle.negative_cases(workloads.SMOKE)]
        gen_s = time.perf_counter() - t
        check_s = 0.0
        tracer = Tracer() if args.trace else None
        times = {False: [], True: []}   # op wall times, untraced and traced
        attempted = failed = 0
        min_ops = 2 if tracer else 1   # a traced run needs an untraced and a traced op
        deadline = time.perf_counter() + args.seconds
        while attempted < min_ops or time.perf_counter() < deadline:
            t = time.perf_counter()
            inp = wl.make_input()
            gen_s += time.perf_counter() - t
            traced = tracer is not None and attempted % 2 == 1
            if traced:
                tracer.start(attempted)
            start = time.perf_counter()
            try:
                out = wl.run(inp)
            except Exception as exc:  # a failing op is counted and the loop goes on
                out = exc
            end = time.perf_counter()
            if traced:
                tracer.stop(start, end)
            try:
                op_problems = ([f"op raised {type(out).__name__}: {out}"]
                               if isinstance(out, Exception) else wl.check(inp, out))
            except Exception as exc:  # an output the oracle cannot read is wrong
                op_problems = [f"check raised {type(exc).__name__}: {exc}"]
            attempted += 1
            check_s += time.perf_counter() - end
            if op_problems:
                failed += 1
                problems += op_problems
            else:
                times[traced].append(end - start)
            del inp
            out = None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    untraced = times[False]
    op_tail = tail(untraced)
    if args.trace:
        p50_traced = float(np.median(times[True])) if times[True] else float("nan")
        p50_untraced = float(np.median(untraced)) if untraced else float("nan")
        metrics = tracer.aggregate(p50_traced - p50_untraced)
        (BENCH / "out").mkdir(exist_ok=True)
        tracer.write(BENCH / "out" / f"spans-{args.workload}-seed{args.seed}.json")
    else:
        setup_samples = [setup_s] + probe_setup(args)
        metrics = {
            "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
            "op_s_p50": {"value": float(np.median(untraced)) if untraced else float("nan"),
                         "unit": "s"},
            "ops_per_s": {"value": len(untraced) / sum(untraced) if untraced else 0.0,
                          "unit": "1/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }

    info = {
        "workload": args.workload, "seed": args.seed, "scale": scale.name,
        "seconds": args.seconds, "trace": args.trace,
        "ops": attempted, "untraced_ops": len(untraced), "traced_ops": len(times[True]),
        "fail_ratio": failed / attempted,
        "gen_s": gen_s, "check_s": check_s,
        "machine": machine_info(),
    }
    if op_tail is not None:
        info["op_s_tail"] = {"value": op_tail[1], "unit": "s", "level": op_tail[0]}
    if tracer is None:
        info["setup_samples_s"] = setup_samples
    else:
        info["traced_wall_s"] = sum(times[True])
        info["traced_self_s"] = sum(tracer.self_times().values())
    print(f"bench {args.workload} seed={args.seed} scale={scale.name} ops={attempted} "
          f"failed={failed} fail_ratio={failed / attempted:g}")
    for name, m in metrics.items():
        print(f"  {name:<44} {m['value']:.6g} {m['unit']}")
    if not args.trace:
        print(f"  {'op_s_tail':<44} " + (f"{op_tail[1]:.6g} s ({op_tail[0]})" if op_tail else
                                         f"not reported: fewer than {TAIL_MIN_OPS} ops"))
    for problem in problems[:PROBLEMS_SHOWN]:
        print(f"  problem: {problem}", file=sys.stderr)
    print("info " + json.dumps(info))
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
