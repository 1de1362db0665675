"""Child process of the benchmark: one set-up probe, the input generation of
`infer_dense`, or one workload run.

    python3 perfbench/workloads.py ROLE SPEC.json RESULT.json

ROLE is `setup`, `inputs` or `run`. run.py sets PYTHONPATH and the
BLAS/OpenMP thread variables before it starts this process, so numpy reads
them on import. Nothing from gtvv or numpy is imported at module level,
because the set-up probe times those imports.
"""

from __future__ import annotations

import json
import math
import os
import resource
import statistics
import sys
import time
from pathlib import Path

# One pass of `sweep` (and of its pool run) is run_experiment on one scene:
# both rt60 x orders 1-4 = 8 cells, the mix of the 40-cell default sweep at
# a fifth of its ~50 s, so that a run repeats it.
SWEEP_SCENES = 1
# One pass of `infer_dense` is one `gtvv infer` call on each of
# INFER_SCENES x both rt60 order-6 WAVs, with a 5000-atom dictionary.
INFER_SCENES = 2
INFER_ORDER = 6
INFER_CONFIG = {"dict_size": 5000}
# Mean GTVV DoA error (over a pass) above which the output counts as broken.
DOA_SANITY_DEG = 30.0

SWEEP_LAYERS = (
    "room.image_source_scene", "room.make_burst_source", "room.encode_scene",
    "room.add_noise", "spectral.stft", "baselines.srp_map",
    "baselines.h_tdvv", "velocity.estimate_gtvv", "somp.somp",
    "somp.match_to_truth", "sh.build_dictionary", "experiment.run_single")
INFER_LAYERS = (
    "cli.infer", "room.read_wav", "sh.build_dictionary", "spectral.stft",
    "baselines.h_tdvv", "velocity.estimate_gtvv", "somp.somp")


def check_source(spec):
    """Refuse to measure a gtvv other than the checkout's own."""
    import gtvv
    if Path(gtvv.__file__).resolve().parent != Path(spec["src"]) / "gtvv":
        raise SystemExit(f"imported gtvv from {gtvv.__file__}, "
                         f"not from {spec['src']}")


def sweep_config(spec):
    from gtvv.experiment import ExperimentConfig
    return ExperimentConfig(seed=spec["seed"], num_scenes=SWEEP_SCENES,
                            workers=spec["workers"])


def role_setup(spec) -> dict:
    """Import, config load and validation: what a run pays before its
    first unit."""
    start = time.perf_counter()
    from gtvv import cli  # imports every layer
    if spec["workload"] == "infer_dense":
        cli.ExperimentConfig.from_json(spec["config"])
    else:
        sweep_config(spec).validate()
    return {"setup_s": time.perf_counter() - start}


def truth_scene(cfg, scene_idx, rt60):
    from gtvv import room
    from gtvv.experiment import scene_geometry
    src, mic = scene_geometry(cfg, scene_idx)
    return room.image_source_scene(cfg.room, src, mic, rt60,
                                   cfg.max_reflection_order, cfg.fs)


def role_inputs(spec) -> dict:
    """Write the order-6 WAVs of `infer_dense`, seeded as the sweep seeds
    its cells ([seed, scene, rt_idx, order, 13] for the noise)."""
    import numpy as np
    from gtvv import room
    from gtvv.experiment import ExperimentConfig
    start = time.perf_counter()
    cfg = ExperimentConfig(seed=spec["seed"])
    files = []
    for s in range(INFER_SCENES):
        source = room.make_burst_source(
            cfg.duration, cfg.fs, np.random.SeedSequence([cfg.seed, s, 7]))
        for rt_idx, rt in enumerate(cfg.rt60):
            sig = room.encode_scene(truth_scene(cfg, s, rt), source,
                                    INFER_ORDER)
            sig = room.add_noise(sig, cfg.snr_db, np.random.SeedSequence(
                [cfg.seed, s, rt_idx, INFER_ORDER, 13]))
            wav = os.path.join(spec["workdir"], f"scene{s}_rt{rt:g}.wav")
            room.write_wav(wav, sig)
            files.append({"wav": wav, "scene": s, "rt60": rt})
    return {"files": files, "gen_s": time.perf_counter() - start}


def timed_passes(seconds, one_pass):
    """Closed loop: run `one_pass` once, then again while another pass of
    median length would end less than half a pass after `seconds`, so the
    loop lasts `seconds` give or take half a pass. Returns the wall time and
    the result of each pass."""
    times, outs = [], []
    start = time.perf_counter()
    while not times or (time.perf_counter() - start
                        + statistics.median(times) / 2 < seconds):
        t = time.perf_counter()
        outs.append(one_pass())
        times.append(time.perf_counter() - t)
    return times, outs


def timed_pairs(seconds, one_pass):
    """`timed_passes` over pairs: `one_pass` untraced, then the same pass
    traced, so that a drift of the host hits both halves of a pair alike.
    Returns [(seconds, result)] of the untraced passes and
    [(seconds, Tracer, result)] of the traced ones."""
    from traced import Tracer, instrument

    def pair():
        t0 = time.perf_counter()
        plain = one_pass()
        t1 = time.perf_counter()
        with instrument(Tracer()) as tracer:
            traced = one_pass()
        return (t1 - t0, plain), (time.perf_counter() - t1, tracer, traced)

    _, pairs = timed_passes(seconds, pair)
    return [p for p, _ in pairs], [t for _, t in pairs]


def overhead_frac(plain, traced) -> float:
    """Median over the pairs of traced / untraced pass time, minus 1."""
    return statistics.median(t[0] / p[0] for p, t in zip(plain, traced)) - 1


def peak_rss_mb() -> float:
    """Peak resident set of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def quartiles_ms(times) -> tuple:
    ms = [1e3 * t for t in times]
    if len(ms) == 1:
        return ms[0], ms[0]
    q = statistics.quantiles(ms, n=4, method="inclusive")
    return q[1], q[2]


def end_to_end(times, unit_times, rss) -> dict:
    p50, p75 = quartiles_ms(unit_times)
    return {"wall_s": statistics.median(times), "unit_p50_ms": p50,
            "unit_p75_ms": p75, "peak_rss_mb": rss}


def accuracy(per_method) -> dict:
    """Accuracy metrics from {method: [MethodMetrics, ...]}."""
    import numpy as np
    out = {}
    for method, ms in per_method.items():
        out[f"doa_err_{method}_deg"] = math.degrees(
            statistics.fmean(m.doa_error for m in ms))
    gtvv = per_method["gtvv"]
    with np.errstate(all="ignore"):
        refl = np.nanmean([m.angular_error for m in gtvv])
        delay = np.nanmean([m.delay_error for m in gtvv])
    if not math.isnan(refl):
        out["refl_err_gtvv_deg"] = math.degrees(float(refl))
        out["delay_err_gtvv_us"] = 1e6 * float(delay)
    out["detections_gtvv"] = statistics.fmean(m.detections for m in gtvv)
    return out


def layer_metrics(tracers, names, orders=None) -> dict:
    """Median ms per call of each traced layer, per order if given."""
    d = {}
    for tracer in tracers:
        for name, times in tracer.durations().items():
            d.setdefault(name, []).extend(times)
    keys = [f"{n}.o{o}" for n in names for o in orders] if orders else names
    return {f"{k}.ms": 1e3 * statistics.median(d[k]) for k in keys if k in d}


def sanity(acc, problems):
    if acc["doa_err_gtvv_deg"] > DOA_SANITY_DEG:
        problems.append(f"mean GTVV DoA error {acc['doa_err_gtvv_deg']:.1f}"
                        f" deg exceeds {DOA_SANITY_DEG} deg")


def sweep_pass(cfg):
    from gtvv.experiment import run_experiment
    table, records = run_experiment(cfg)
    return table.to_csv(), records


def cell_seconds(tracer) -> float:
    """Time a traced pass spent inside `run_single`."""
    return sum(end - start for name, start, end in tracer.spans
               if name.startswith("experiment.run_single."))


def run_sweep(spec) -> dict:
    """`sweep`: run_experiment with workers=1. Traced, it alternates
    untraced and traced passes."""
    cfg = sweep_config(spec)
    traced = []
    if not spec["trace"]:
        times, outs = timed_passes(spec["seconds"], lambda: sweep_pass(cfg))
        rss = peak_rss_mb()
        labels = ["untraced"] * len(outs)
    else:
        plain, traced = timed_pairs(spec["seconds"], lambda: sweep_pass(cfg))
        times = [t for t, _ in plain]
        outs = [out for _, out in plain] + [out for _, _, out in traced]
        labels = ["untraced"] * len(plain) + ["traced"] * len(traced)

    csv, records = outs[0]
    problems = []
    failed = sum(1 for _, recs in outs for r in recs if r.error)
    attempted = sum(len(recs) for _, recs in outs)
    if failed:
        problems.append(f"{failed} of {attempted} cells failed: " + "; ".join(
            sorted({r.error for _, recs in outs for r in recs if r.error})))
    for label in sorted({lb for lb, (c, _) in zip(labels, outs) if c != csv}):
        problems.append(f"results.csv of a {label} pass differs from the "
                        "first pass")
    good = [r for r in records if not r.error]
    acc = accuracy({m: [r.metrics[m] for r in good]
                    for m in ("gtvv", "htdvv", "srp")}) if good else {}
    if acc:
        sanity(acc, problems)
    result = {"problems": problems, "attempted": attempted, "failed": failed,
              "pass_s": times + [t for t, _, _ in traced], "csv": csv}
    if not spec["trace"]:
        result["metrics"] = end_to_end(times, times, rss)
        return result

    tracers = [tracer for _, tracer, _ in traced]
    layers = layer_metrics(tracers, SWEEP_LAYERS, cfg.orders)
    layers.update(acc)
    counts = dict(tracers[0].counts)
    selected = counts.pop("somp.reflections_selected", 0)
    matched = counts.pop("somp.reflections_matched", 0)
    if selected:
        layers["somp.detect_ratio"] = matched / selected
    layers.update(counts)
    layers.update({
        "trace.overhead_frac": overhead_frac(plain, traced),
        "failed_frac": failed / attempted,
    })
    result["metrics"] = layers
    result["cell_s"] = statistics.median(map(cell_seconds, tracers))
    return result


def role_pool(spec) -> dict:
    """The sweep's config on the `experiment` process pool with
    workers=nproc, each worker with one BLAS thread: its passes for
    `seconds` (one pass when 0) and the results.csv of the first."""
    cfg = sweep_config(spec)
    times, outs = timed_passes(spec["seconds"], lambda: sweep_pass(cfg))
    csv = outs[0][0]
    attempted = sum(len(recs) for _, recs in outs)
    failed = sum(1 for _, recs in outs for r in recs if r.error)
    problems = [f"{failed} of {attempted} pool cells failed"] * bool(failed)
    if any(c != csv for c, _ in outs):
        problems.append("results.csv of a pool pass differs from the first")
    return {"csv": csv, "pass_s": times, "attempted": attempted,
            "failed": failed, "problems": problems, "env": env_record(spec)}


def estimate_from_json(text):
    """EstimateSet with the directions and delays of an estimate JSON."""
    import numpy as np
    from gtvv.sh import Direction
    from gtvv.somp import EstimateSet
    d = json.loads(text)
    dirs = tuple(Direction(math.radians(az), math.radians(el))
                 for az, el in d["directions_deg"])
    return EstimateSet(dirs, tuple(1e-3 * t for t in d["delays_ms"]),
                       np.zeros((len(dirs), 0)), tuple(d["residual_norms"]),
                       d["terminated_early"])


def run_infer(spec) -> dict:
    """`infer_dense`: `gtvv infer` in-process on each generated WAV.

    Traced, it alternates untraced and traced passes."""
    import tracemalloc

    from gtvv import cli
    from gtvv.experiment import ExperimentConfig, MethodMetrics
    from gtvv.sh import build_dictionary
    from gtvv.somp import match_to_truth
    from traced import infer_args
    files, config = spec["files"], spec["config"]
    outs = [os.path.join(spec["workdir"], f"estimate{k}.json")
            for k in range(len(files))]

    def one_pass(method=None):
        units = []
        for f, out in zip(files, outs):
            Path(out).unlink(missing_ok=True)
            argv = infer_args(config, f["wav"], out)
            t = time.perf_counter()
            rc = cli.main(argv + (["--method", method] if method else []))
            units.append((time.perf_counter() - t, rc,
                          Path(out).read_text() if rc == 0 else None))
        return units

    traced = []
    if not spec["trace"]:
        times, passes = timed_passes(spec["seconds"], one_pass)
        rss = peak_rss_mb()
    else:
        plain, traced = timed_pairs(spec["seconds"], one_pass)
        times, passes = [t for t, _ in plain], [units for _, units in plain]
    unit_times = [t for units in passes for t, _, _ in units]
    passes += [units for _, _, units in traced]
    attempted = sum(len(units) for units in passes)
    failed = sum(1 for units in passes for _, rc, _ in units if rc != 0)
    problems = []
    if failed:
        problems.append(f"{failed} of {attempted} infer calls failed")
    first = [text for _, _, text in passes[0]]
    if any([text for _, _, text in units] != first for units in passes):
        problems.append("an infer call gave another estimate than the same "
                        "call in the first pass")

    cfg = ExperimentConfig(seed=spec["seed"])
    gate = math.radians(cfg.gate_deg)
    truths = [truth_scene(cfg, f["scene"], f["rt60"]) for f in files]

    def method_metrics(texts):
        reps = [match_to_truth(estimate_from_json(text), truth, gate)
                for text, truth in zip(texts, truths) if text is not None]
        return [MethodMetrics(r.doa_error, r.angular_error_mean,
                              float(r.detections), r.delay_error_mean)
                for r in reps]

    gtvv = method_metrics(first)
    acc = accuracy({"gtvv": gtvv}) if gtvv else {}
    if acc:
        sanity(acc, problems)
    result = {"problems": problems, "attempted": attempted, "failed": failed,
              "pass_s": times + [t for t, _, _ in traced]}
    if not spec["trace"]:
        result["metrics"] = end_to_end(times, unit_times, rss)
        return result

    htdvv = method_metrics([text for _, _, text in one_pass("htdvv")])
    if gtvv and htdvv:
        acc.update(accuracy({"htdvv": htdvv, "gtvv": gtvv}))
    tracemalloc.start()
    build_dictionary(INFER_CONFIG["dict_size"], INFER_ORDER)
    alloc_peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()

    layers = layer_metrics([tracer for _, tracer, _ in traced], INFER_LAYERS)
    layers.update(acc)
    layers.update({
        "sh.build_dictionary.alloc_peak_mb": alloc_peak / 2.0 ** 20,
        "trace.overhead_frac": overhead_frac(plain, traced),
        "failed_frac": failed / attempted,
    })
    result["metrics"] = layers
    return result


def env_record(spec) -> dict:
    import platform

    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": spec["nproc"], "workers": spec["workers"],
            "threads": {v: os.environ.get(v) for v in spec["threads"]},
            "blas": blas, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def complete_layers(spec, result):
    """Give a traced run every per-layer metric: run one traced pair of the
    other family (one workers=1 sweep pass after `infer_dense`, one infer
    pass over freshly written WAVs after a sweep) and take from it only the
    metrics the workload itself did not produce. Its units and failed
    checks count in the run's result."""
    infer = spec["workload"] == "infer_dense"
    work = Path(spec["workdir"]) / "complement"
    work.mkdir(exist_ok=True)
    other = dict(spec, workload="sweep" if infer else "infer_dense",
                 seconds=0, workdir=str(work))
    if not infer:
        other["config"] = str(work / "infer_config.json")
        Path(other["config"]).write_text(json.dumps(INFER_CONFIG),
                                         encoding="utf-8")
        inputs = role_inputs(other)
        other["files"] = inputs["files"]
    res = (run_sweep if infer else run_infer)(other)
    if not infer:
        res["metrics"]["bench.input_gen.s"] = inputs["gen_s"]
    for key, value in res["metrics"].items():
        result["metrics"].setdefault(key, value)
    for key in ("csv", "cell_s"):
        if key in res:
            result[key] = res[key]
    result["attempted"] += res["attempted"]
    result["failed"] += res["failed"]
    result["problems"] += [f"{other['workload']} pass: {problem}"
                           for problem in res["problems"]]


def role_run(spec) -> dict:
    run = run_infer if spec["workload"] == "infer_dense" else run_sweep
    result = run(spec)
    if spec["trace"]:
        complete_layers(spec, result)
    result["env"] = env_record(spec)
    return result


ROLES = {"setup": role_setup, "inputs": role_inputs, "run": role_run,
         "pool": role_pool}


def main(argv) -> int:
    role, spec_path, out_path = argv
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    result = ROLES[role](spec)
    check_source(spec)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
