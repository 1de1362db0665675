"""Experiment orchestration: scene sweeps, metric aggregation and trace dumps.

A sweep runs, for every (scene, reverberation time, order) triple, the SRP
baseline, omni-referenced H-TDVV + S-OMP, and GTVV + S-OMP with the beam
steered at the H-TDVV DoA estimate, then matches everything against the
exact image-source ground truth.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass
from functools import cached_property
from typing import ClassVar

import numpy as np

from . import baselines, room
from .errors import ConfigError, GtvvError
from .sh import (MAX_ORDER, Dictionary, angular_distance, build_dictionary,
                 make_reference_beam, num_channels, read_direction_file)
from .somp import MatchReport, first_atom, match_to_truth, somp
from .spectral import GtvvMatrix, frame_count, gfvv_to_gtvv, stft
from .velocity import (EstimatorConfig, SharedOmni, estimate_gtvv,
                       interpolate_invalid_bins, lower_omni_gfvv,
                       segment_stats, use_one_thread)

METHODS = ("srp", "htdvv", "gtvv")

# S-OMP iterations per run: the paper's 7 atoms for HOA recordings; an
# order-1 recording has only 4 channels, so at most 4 atoms.
_MAX_ITERS = 7
# Least distance in metres from every wall to the source and microphone.
_WALL_MARGIN = 0.5

# Pinned to one thread while the sweep's worker processes start.
_BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                     "MKL_NUM_THREADS")


def _is_count(value, least: int) -> bool:
    """Whether `value` is an integer of at least `least`; a bool, which
    Python counts as an integer, is not."""
    return (isinstance(value, int) and not isinstance(value, bool)
            and value >= least)


@dataclass(frozen=True)
class ExperimentConfig:
    """The settings a sweep varies. The protocol's fixed values are class
    constants, read like the fields (`cfg.fs`) but not settable."""

    room: ClassVar[tuple] = (5.0, 4.0, 2.8)
    fs: ClassVar[float] = 16000.0
    win_len: ClassVar[int] = 1024
    snr_db: ClassVar[float] = 20.0
    duration: ClassVar[float] = 3.2
    gate_deg: ClassVar[float] = 20.0
    max_reflection_order: ClassVar[int] = 3

    rt60: tuple = (0.16, 0.44)
    num_scenes: int = 5
    orders: tuple = (1, 2, 3, 4)
    dict_size: int = 770
    dict_file: str = None   # direction file; None is the Fibonacci grid
    seed: int = 1
    source_wav: str = None
    workers: int = 1

    def __post_init__(self):
        self.validate()

    def validate(self):
        # counts, each with its least value
        for name, least in (("num_scenes", 1), ("dict_size", 1),
                            ("workers", 1)):
            if not _is_count(getattr(self, name), least):
                raise ConfigError(f"{name} must be an integer >= {least}")
        # `not x > 0` also rejects NaN, which every comparison fails; JSON
        # `true` is a bool, which Python also counts as a number
        if (not self.rt60 or len(set(self.rt60)) < len(self.rt60)
                or any(isinstance(v, bool) or not v > 0 for v in self.rt60)):
            raise ConfigError("rt60 list must hold distinct positive values")
        # the output files are named after each value as `:g` prints it
        names = [f"{v:g}" for v in self.rt60]
        if len(set(names)) < len(names):
            raise ConfigError(f"rt60 values {self.rt60} do not print as "
                              f"distinct names {names}: their output files "
                              "would overwrite each other")
        if (not self.orders or len(set(self.orders)) < len(self.orders)
                or any(not _is_count(o, 1) or o > MAX_ORDER
                       for o in self.orders)):
            raise ConfigError("orders must be distinct integers in "
                              f"[1, {MAX_ORDER}]")
        for order in self.orders:
            self.check_order(order)
        if not _is_count(self.seed, 0):
            raise ConfigError("seed must be a non-negative integer")
        # `open` takes an integer as a file descriptor, so only a path is
        # let through to the readers
        for name in ("dict_file", "source_wav"):
            if not isinstance(getattr(self, name), (str, type(None))):
                raise ConfigError(f"{name} must be a path string or null")
        if self.dict_file is not None:
            try:  # the order-0 dictionary checks the count and spacing
                build_dictionary(self.dict_size, 0, self.dict_directions)
            except (OSError, ValueError) as exc:
                raise ConfigError(f"bad dict_file: {exc}") from exc
        if self.source_wav is not None:
            self.source_recording  # read and checked here, once

    def check_order(self, order: int):
        """The dictionary must fit an order-`order` recording."""
        channels = num_channels(order)
        if self.dict_size < channels:
            raise ConfigError(f"dict_size {self.dict_size} is below the "
                              f"{channels} channels of order {order}")

    def read_recording(self, path) -> room.AmbisonicSignal:
        """The WAV at `path`, checked at the boundary: readable, finite, at
        `fs`, not silent in its first channel (the omni channel, or the dry
        source of `source_wav`) and long enough for the estimator."""
        try:
            sig = room.read_wav(path)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read {path}: {exc}") from exc
        if sig.fs != self.fs:
            raise ConfigError(f"{path} is sampled at {sig.fs:g} Hz, "
                              f"the config's fs is {self.fs:g} Hz")
        # first, so that the checks below see samples: np.max has no value
        # to give of none; below one window frame_count is negative
        est = EstimatorConfig()
        need = est.seg_count * est.frames_per_seg
        have = max(0, frame_count(sig.num_samples, self.win_len))
        if have < need:
            raise ConfigError(
                f"{path} yields {have} frames, estimator needs {need}")
        # np.max and np.min make no temporary; a NaN reaches both, an
        # infinity one of them
        if not (math.isfinite(np.max(sig.channels))
                and math.isfinite(np.min(sig.channels))):
            raise ConfigError(f"{path} holds non-finite samples")
        if not np.any(sig.channels[0]):
            raise ConfigError(f"{path} is silent")
        return sig

    @cached_property
    def source_recording(self) -> room.AmbisonicSignal:
        """The checked `source_wav`, read once per config object. Sweep
        workers receive it with the pickled config."""
        return self.read_recording(self.source_wav)

    @cached_property
    def dict_directions(self):
        """The parsed `dict_file` directions, read once per config object;
        None selects the Fibonacci grid."""
        if self.dict_file is None:
            return None
        return tuple(read_direction_file(self.dict_file))

    @staticmethod
    def iter_cap(order: int) -> int:
        """S-OMP iterations for an order-`order` run: 4 at order 1, 7
        above."""
        return min(_MAX_ITERS, num_channels(order))

    @staticmethod
    def from_json(path, **overrides) -> "ExperimentConfig":
        """The JSON config at `path`, `overrides` replacing its fields."""
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        try:
            for key in ("rt60", "orders"):
                if key in raw:
                    raw[key] = tuple(raw[key])
            return ExperimentConfig(**{**raw, **overrides})
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad config field: {exc}") from exc


@dataclass(frozen=True)
class MethodMetrics:
    doa_error: float
    angular_error: float
    detections: float
    delay_error: float


@dataclass(frozen=True)
class RunRecord:
    scene: int
    rt60: float
    order: int
    metrics: dict           # method -> MethodMetrics
    estimates: dict         # method -> EstimateSet json string
    error: str = None


@dataclass(frozen=True)
class ResultsTable:
    """Per (method, order, rt60) means over the valid runs of the sweep."""

    rows: tuple             # dicts with aggregate fields
    failures: tuple

    def to_csv(self) -> str:
        cols = ["method", "order", "rt60", "doa_error_deg",
                "refl_angular_error_deg", "detections", "delay_error_s",
                "runs"]
        lines = [",".join(cols)]
        for r in self.rows:
            lines.append(",".join(_fmt(r[c]) for c in cols))
        for f in self.failures:
            lines.append(f"# failed run: {f}")
        return "\n".join(lines) + "\n"


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, float):
        return f"{value:.10g}"
    return str(value)


def scene_geometry(cfg: ExperimentConfig, scene_idx: int):
    """Seeded source/microphone placement, at least `_WALL_MARGIN` from
    every wall.

    The source is drawn inside a band near one lateral wall so every scene
    carries a strong early reflection (the adverse regime the steered
    reference is meant to handle); the microphone is drawn uniformly, at
    least 1.5 m away from the source.
    """
    rng = np.random.default_rng([cfg.seed, scene_idx])
    room = np.asarray(cfg.room, dtype=float)
    lo = np.full(3, _WALL_MARGIN)
    hi = room - _WALL_MARGIN
    src = rng.uniform(lo, hi)
    axis = int(rng.integers(0, 2))
    side = int(rng.integers(0, 2))
    band = rng.uniform(_WALL_MARGIN, _WALL_MARGIN + 0.4)
    src[axis] = band if side == 0 else room[axis] - band
    mic = rng.uniform(lo, hi)
    while np.linalg.norm(src - mic) < 1.5:
        mic = rng.uniform(lo, hi)
    return src, mic


def _dry_source(cfg: ExperimentConfig, scene_idx: int) -> np.ndarray:
    if cfg.source_wav is not None:
        return cfg.source_recording.channels[0]
    return room.make_burst_source(
        cfg.duration, cfg.fs, np.random.SeedSequence([cfg.seed, scene_idx, 7]))


def simulate_cell(cfg: ExperimentConfig, scene_idx: int, rt60: float,
                  order: int) -> tuple:
    """The ground truth and the noisy order-`order` recording of one
    (scene, rt60, order) cell: returns (GroundTruthScene, AmbisonicSignal).

    The noise is seeded per (scene, rt60) group, `[seed, scene, rt_idx,
    13]`, not per order. The encode's rows are the channels' own, and the
    normal draw fills its rows in order, so an order's recording is the
    first (L+1)^2 channels of any higher order's, bit for bit.

    `rt60` must be one of `cfg.rt60`: its index seeds the noise, so an
    unknown value raises `ConfigError` instead of sharing another cell's
    seed.
    """
    if rt60 not in cfg.rt60:
        raise ConfigError(f"rt60 {rt60} is not in the config's {cfg.rt60}")
    rt_idx = list(cfg.rt60).index(rt60)
    src, mic = scene_geometry(cfg, scene_idx)
    scene = room.image_source_scene(cfg.room, src, mic, rt60,
                                    cfg.max_reflection_order, cfg.fs)
    source = _dry_source(cfg, scene_idx)
    sig = room.encode_scene(scene, source, order)
    sig = room.add_noise(sig, cfg.snr_db,
                         np.random.SeedSequence(
                             [cfg.seed, scene_idx, rt_idx, 13]))
    return scene, sig


def analyze(spec, dictionary: Dictionary, h_iters: int,
            shared: SharedOmni = None) -> tuple:
    """H-TDVV, its S-OMP and the GTVV steered at that S-OMP's first atom:
    returns (v_h, est_h, v_g).

    Both estimates share one omni pass (`segment_stats`); the steered one
    adds a pass for its own cross-spectra. `shared`, a group's (see
    `_execute_group`), shares both passes with the group's lower orders.
    Empty, it is the top cell's: this steered pass also forms the sums of
    the lower orders' beams, each formed as that order's cell forms it
    (`_lower_beams`), and fills `shared`. Filled, it gives the omni
    statistics as channel slices, and the kept steered sums if they were
    formed for this beam: then no pass is made.

    `est_h` runs `h_iters` iterations. S-OMP is greedy, so one iteration
    picks the atom that a full run picks first, and steers alike.
    """
    cfg = EstimatorConfig()
    top = shared is not None and shared.phi is None
    if shared is not None and not top:
        stats = shared.stats(spec, cfg)
    else:
        stats = segment_stats(spec, cfg)
    v_h = baselines.h_tdvv(spec, cfg, stats)
    est_h = somp(v_h, dictionary, h_iters)
    steered = make_reference_beam(est_h.directions[0], dictionary.order)
    sums = None
    if top:
        sums = shared.steer(stats, cfg, steered,
                            _lower_beams(stats, dictionary, shared.orders))
    elif shared is not None:
        sums = shared.sums(steered)
    v_g = estimate_gtvv(spec, EstimatorConfig(steered), stats, sums)
    return v_h, est_h, v_g


def _lower_beams(stats, dictionary: Dictionary, orders) -> list:
    """The steered beam of each of `orders`, as `analyze` forms it in that
    order's cell: H-TDVV from the first (L+1)^2 channels of the omni
    statistics `stats` of a higher order, which are that cell's, then the
    atom that S-OMP picks first over that order's dictionary, whose atoms
    are the first (L+1)^2 rows of `dictionary`'s, bit for bit. An order
    whose H-TDVV fails is left out, and its cell makes its own pass.

    The chain calls the steps of `baselines.h_tdvv` and `somp` rather
    than those functions, so that each is called once per cell, by its
    cell, as perfbench's per-order spans count them."""
    beams = []
    for order in orders:
        n = num_channels(order)
        try:
            v_h = gfvv_to_gtvv(interpolate_invalid_bins(
                lower_omni_gfvv(stats, n)), stats.spectrum.fs)
        except (GtvvError, np.linalg.LinAlgError):
            continue
        first = first_atom(v_h, dictionary.atoms[:n])
        beams.append(make_reference_beam(dictionary.directions[first], order))
    return beams


def run_single(cfg: ExperimentConfig, scene_idx: int, rt60: float,
               order: int, shared: SharedOmni = None) -> RunRecord:
    """One (scene, rt60, order) cell: simulate (see `simulate_cell`),
    estimate with all methods, match against ground truth. `shared`, the
    group's passes, goes to `analyze`; the record is the same without
    it."""
    scene, sig = simulate_cell(cfg, scene_idx, rt60, order)
    dictionary = build_dictionary(cfg.dict_size, order, cfg.dict_directions)
    spec = stft(sig, cfg.win_len)

    gate = math.radians(cfg.gate_deg)
    iters = cfg.iter_cap(order)

    metrics, estimates = {}, {}

    # SRP baseline: DoA only
    pmap = baselines.srp_map(spec, dictionary)
    doa_srp = baselines.srp_doa(pmap, dictionary)
    metrics["srp"] = MethodMetrics(
        angular_distance(doa_srp, scene.direct.direction),
        math.nan, math.nan, math.nan)

    # H-TDVV (omni reference), and GTVV steered at its DoA estimate
    _, est_h, v_g = analyze(spec, dictionary, iters, shared)
    rep_h = match_to_truth(est_h, scene, gate)
    metrics["htdvv"] = _to_metrics(rep_h)
    estimates["htdvv"] = est_h.to_json()

    est_g = somp(v_g, dictionary, iters)
    rep_g = match_to_truth(est_g, scene, gate)
    metrics["gtvv"] = _to_metrics(rep_g)
    estimates["gtvv"] = est_g.to_json()

    return RunRecord(scene_idx, rt60, order, metrics, estimates)


def _to_metrics(rep: MatchReport) -> MethodMetrics:
    return MethodMetrics(rep.doa_error, rep.angular_error_mean,
                         float(rep.detections), rep.delay_error_mean)


def _execute_run(cfg, scene_idx, rt60, order, shared):
    try:
        return run_single(cfg, scene_idx, rt60, order, shared)
    except (GtvvError, np.linalg.LinAlgError) as exc:
        return RunRecord(scene_idx, rt60, order, {}, {},
                         error=f"{type(exc).__name__}: {exc}")


def _execute_group(args) -> list:
    """The records of one (scene, rt60) group, in `cfg.orders` order. The
    top order runs first and keeps its omni pass for the lower orders,
    which read it as channel slices, and forms their steered sums in its
    own steered pass (see `analyze`); if it fails, each makes its own
    passes."""
    cfg, scene_idx, rt60 = args
    top = max(cfg.orders)
    lower = [o for o in cfg.orders if o != top]
    shared = SharedOmni(lower) if lower else None
    records = {top: _execute_run(cfg, scene_idx, rt60, top, shared)}
    if records[top].error:
        shared = None
    for order in lower:
        records[order] = _execute_run(cfg, scene_idx, rt60, order, shared)
    return [records[o] for o in cfg.orders]


def run_experiment(cfg: ExperimentConfig) -> tuple:
    """Run the full sweep; returns (ResultsTable, list of RunRecord).

    The cells run in (scene, rt60) groups that share one omni pass (see
    `_execute_group`); the records come in (scene, rt60, order) order.
    With `cfg.workers > 1` the groups run on worker processes that do not
    fork from the caller, so a calling script must guard its top-level
    code with `if __name__ == "__main__":`.
    """
    groups = [(cfg, s, rt) for s in range(cfg.num_scenes) for rt in cfg.rt60]
    if cfg.workers > 1:
        # Imported here: a serial sweep, and every other command, runs no
        # process pool.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # Workers forked from this process would inherit its BLAS, with one
        # thread per core each. The fork server instead imports numpy (and
        # this module, so that workers start at once) with the thread
        # variables pinned, and keeps them for later pools. Each worker
        # owns one CPU, so its estimator passes run on one thread too.
        ctx = multiprocessing.get_context("forkserver")
        ctx.set_forkserver_preload([__name__])
        saved = {var: os.environ.get(var) for var in _BLAS_THREAD_VARS}
        os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))
        try:
            with ProcessPoolExecutor(max_workers=cfg.workers, mp_context=ctx,
                                     initializer=use_one_thread) as pool:
                records = list(pool.map(_execute_group, groups))
        finally:
            for var, value in saved.items():
                if value is None:
                    os.environ.pop(var, None)
                else:
                    os.environ[var] = value
    else:
        records = [_execute_group(g) for g in groups]
    records = [r for group in records for r in group]
    return aggregate(cfg, records), records


def aggregate(cfg: ExperimentConfig, records) -> ResultsTable:
    rows = []
    failures = tuple(
        f"scene={r.scene} rt60={r.rt60} order={r.order}: {r.error}"
        for r in records if r.error)
    for method in METHODS:
        for order in cfg.orders:
            for rt in cfg.rt60:
                sel = [r for r in records
                       if r.order == order and r.rt60 == rt and not r.error]
                if not sel:
                    continue
                doa = [r.metrics[method].doa_error for r in sel]
                ang = [r.metrics[method].angular_error for r in sel]
                det = [r.metrics[method].detections for r in sel]
                dly = [r.metrics[method].delay_error for r in sel]
                rows.append({
                    "method": method,
                    "order": order,
                    "rt60": rt,
                    "doa_error_deg": math.degrees(float(np.mean(doa))),
                    "refl_angular_error_deg": math.degrees(_nanmean(ang)),
                    "detections": _nanmean(det),
                    "delay_error_s": _nanmean(dly),
                    "runs": len(sel),
                })
    return ResultsTable(tuple(rows), failures)


def _nanmean(values) -> float:
    arr = np.asarray(values, dtype=float)
    if np.all(np.isnan(arr)):
        return math.nan
    return float(np.nanmean(arr))


def dump_traces(v: GtvvMatrix, path):
    """Write |v(t)| per channel plus the per-lag 2-norm as plot-ready CSV."""
    channels = v.data.shape[0]
    header = ",".join(["time_s"] + [f"ch{c:03d}" for c in range(channels)]
                      + ["norm"])
    rows = np.column_stack([v.time_axis, np.abs(v.data).T,
                            np.linalg.norm(v.data, axis=0)])
    np.savetxt(path, rows, fmt="%.10g", delimiter=",", newline="\r\n",
               header=header, comments="")


def write_results(table: ResultsTable, records, cfg: ExperimentConfig,
                  out_dir):
    """Write results.csv, results.json (strict JSON, a NaN cell null) and
    per-run estimate JSONs."""
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "results.csv"), "w",
              encoding="utf-8") as fh:
        fh.write(table.to_csv())
    # a NaN cell (a mean over no value) is null: JSON has no NaN
    rows = [{key: None if isinstance(value, float) and math.isnan(value)
             else value for key, value in row.items()} for row in table.rows]
    payload = {"rows": rows, "failures": table.failures,
               "config": asdict(cfg),
               "sh_convention": "real SN3D, ACN ordering"}
    with open(os.path.join(out_dir, "results.json"), "w",
              encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
    for rec in records:
        for method, est_json in rec.estimates.items():
            name = (f"estimate_scene{rec.scene}_rt{rec.rt60:g}"
                    f"_order{rec.order}_{method}.json")
            with open(os.path.join(out_dir, name), "w",
                      encoding="utf-8") as fh:
                fh.write(est_json)
