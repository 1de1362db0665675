"""gtvv benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

W is `sweep`, `infer_dense`, or `all` for both in turn; see
perfbench/README.md. Each workload runs in fresh child processes
(perfbench/workloads.py) with pinned BLAS/OpenMP threads: seven set-up
probes (untraced runs only), the input generation of
`infer_dense`, the closed-loop run, then (on `sweep`, and on every traced
run) the sweep on the process pool with workers=nproc and one BLAS thread
per worker, whose results.csv must equal the workers=1 one. With --trace 0
the run is untraced and reports the end-to-end metrics of BENCHMARK.json;
with --trace 1 it alternates untraced and traced passes and reports the
per-layer metrics.

The last stdout line per workload is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. Exit code 0 when every
output check passed, 1 when one failed (the JSON is still printed), 2 when
the benchmark could not run (nothing printed).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import INFER_CONFIG

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep", "infer_dense")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
SETUP_PROBES = 7
TIME_LIMIT_S = 170.0  # a workload must end within 180 s


class BenchError(Exception):
    """The benchmark could not produce a result."""


def run_child(role, spec, env, deadline) -> dict:
    work = Path(spec["workdir"])
    spec_path = work / f"{role}.spec.json"
    out_path = work / f"{role}.result.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    out_path.unlink(missing_ok=True)
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "workloads.py"), role, str(spec_path),
         str(out_path)],
        env=env, stdout=sys.stderr, start_new_session=True)
    try:
        rc = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        rc = None
    finally:
        # the session holds the workers of the pool run too
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if rc is None:
        raise BenchError(f"{role} child exceeded the time limit")
    if rc != 0:
        raise BenchError(f"{role} child exited with code {rc}")
    return json.loads(out_path.read_text(encoding="utf-8"))


def child_env(threads) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(HERE)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.update({v: str(threads) for v in THREAD_VARS})
    return env


def run_workload(name, args, declared) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    nproc = len(os.sched_getaffinity(0))
    env = child_env(nproc)
    work = ROOT / ".perfbench_work" / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    spec = {"workload": name, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "workers": 1, "nproc": nproc,
            "threads": list(THREAD_VARS), "workdir": str(work),
            "src": str(ROOT / "src")}
    if name == "infer_dense":
        spec["config"] = str(work / "infer_config.json")
        Path(spec["config"]).write_text(json.dumps(INFER_CONFIG),
                                        encoding="utf-8")

    extra = {}
    if not args.trace:  # setup_s is an end-to-end metric
        extra["setup_s"] = statistics.median(
            run_child("setup", spec, env, deadline)["setup_s"]
            for _ in range(SETUP_PROBES))
    if name == "infer_dense":
        inputs = run_child("inputs", spec, env, deadline)
        spec["files"] = inputs["files"]
        extra["bench.input_gen.s"] = inputs["gen_s"]
    res = run_child("run", spec, env, deadline)
    envs = [res["env"]]
    if name == "sweep" or args.trace:
        # total threads stay at nproc: one BLAS thread per pool worker
        pool = run_child("pool", dict(spec, workload="sweep", workers=nproc,
                                      seconds=args.seconds / 4 * args.trace),
                         child_env(1), deadline)
        envs.append(pool["env"])
        res["attempted"] += pool["attempted"]
        res["failed"] += pool["failed"]
        res["problems"] += pool["problems"]
        if pool["csv"] != res["csv"]:
            res["problems"].append(f"results.csv of the workers={nproc} "
                                   "pool differs from the workers=1 one")
        pool_s = statistics.median(pool["pass_s"])
        extra["experiment.run_experiment.s"] = pool_s
        if args.trace:
            extra["experiment.busy_frac"] = res["cell_s"] / (nproc * pool_s)

    metrics = dict(res["metrics"], **extra)
    for e in envs:
        print(f"perfbench {name} seed={args.seed} env: {json.dumps(e)}",
              file=sys.stderr)
    print(f"perfbench {name} pass times (s): "
          + " ".join(f"{t:.3f}" for t in res["pass_s"]), file=sys.stderr)
    for problem in res["problems"]:
        print(f"perfbench {name} CHECK FAILED: {problem}", file=sys.stderr)
    kind = "per_layer" if args.trace else "end_to_end"
    out = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
           for m in declared[kind] if m["name"] in metrics}
    missing = [m["name"] for m in declared[kind] if m["name"] not in out]
    if missing:
        raise BenchError(f"{name} did not measure {', '.join(missing)}")
    for key, m in out.items():
        print(f"  {name:14s} {key:40s} {m['value']:14.6g} {m['unit']}")
    return {"correct": not res["problems"], "attempted": res["attempted"],
            "failed": res["failed"], "metrics": out}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind through run_child so its process group is killed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (ROOT / "src" / "gtvv" / "__init__.py").is_file():
        print(f"perfbench: no gtvv source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    status = 0
    for name in names:
        try:
            result = run_workload(name, args, declared)
        except BenchError as exc:
            print(f"perfbench {name}: {exc}", file=sys.stderr)
            return 2
        print(json.dumps(result), flush=True)
        if not result["correct"]:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
