"""Command-line entry point: gtvv simulate|estimate|infer|evaluate|traces.

Exit codes: 0 success, 2 config or output-path error, 3 run-time
numerical error (for `evaluate`: any failed run, after the results are
written).
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

from . import baselines, room
from .errors import ConfigError, GtvvError
from .experiment import (ExperimentConfig, analyze, dump_traces,
                         run_experiment, simulate_cell, write_results)
from .sh import MAX_ORDER, build_dictionary, order_from_channels
from .somp import somp
from .spectral import stft
from .velocity import EstimatorConfig, negative_lag_energy_fraction


def _load_config(args) -> ExperimentConfig:
    """The one config of a command: `--config` (or the defaults) with the
    `--seed` and `--workers` given on the command line."""
    overrides = {key: getattr(args, key) for key in ("seed", "workers")
                 if getattr(args, key, None) is not None}
    if args.config:
        return ExperimentConfig.from_json(args.config, **overrides)
    return ExperimentConfig(**overrides)


def cmd_simulate(args) -> int:
    cfg = _load_config(args)
    os.makedirs(args.out, exist_ok=True)
    order = max(cfg.orders) if args.order is None else args.order
    for scene_idx in range(cfg.num_scenes):
        for rt in cfg.rt60:
            scene, sig = simulate_cell(cfg, scene_idx, rt, order)
            stem = os.path.join(args.out, f"scene{scene_idx}_rt{rt:g}")
            with open(stem + "_truth.json", "w", encoding="utf-8") as fh:
                fh.write(scene.to_json())
            room.write_wav(stem + ".wav", sig)
            print(f"wrote {stem}.wav ({sig.channels.shape[0]} channels)")
    return 0


def _wav_order(path, channels: int) -> int:
    """Ambisonic order of a `channels`-channel WAV; a count that is not
    (L+1)² for an order L in [1, MAX_ORDER] is a ConfigError."""
    try:
        order = order_from_channels(channels)
        if 1 <= order <= MAX_ORDER:
            return order
    except ValueError:
        pass
    raise ConfigError(f"{path} has {channels} channel(s): an Ambisonic "
                      f"recording of order 1 to {MAX_ORDER} has "
                      "(order + 1)² channels")


def _gtvv_from_wav(args, cfg: ExperimentConfig):
    """The `--method` trace of the `--wav` recording: returns (trace, order,
    dictionary), the dictionary None where the method needs none
    (htdvv)."""
    sig = cfg.read_recording(args.wav)
    order = _wav_order(args.wav, sig.channels.shape[0])
    cfg.check_order(order)
    spec = stft(sig, cfg.win_len)
    if args.method == "htdvv":
        return baselines.h_tdvv(spec, EstimatorConfig()), order, None
    dictionary = build_dictionary(cfg.dict_size, order, cfg.dict_directions)
    _, _, v = analyze(spec, dictionary, 1)
    return v, order, dictionary


def cmd_estimate(args) -> int:
    cfg = _load_config(args)
    v, _, _ = _gtvv_from_wav(args, cfg)
    dump_traces(v, args.out)
    print(f"wrote {args.out}")
    return 0


def cmd_infer(args) -> int:
    cfg = _load_config(args)
    v, order, dictionary = _gtvv_from_wav(args, cfg)
    if dictionary is None:
        dictionary = build_dictionary(cfg.dict_size, order,
                                      cfg.dict_directions)
    est = somp(v, dictionary, cfg.iter_cap(order))
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(est.to_json())
    print(f"wrote {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    cfg = _load_config(args)
    os.makedirs(args.out, exist_ok=True)
    start = time.monotonic()
    table, records = run_experiment(cfg)
    elapsed = time.monotonic() - start
    write_results(table, records, cfg, args.out)
    print(table.to_csv(), end="")
    print(f"# sweep of {len(records)} runs with {cfg.workers} worker(s) "
          f"took {elapsed:.1f}s")
    print(f"results written to {args.out}")
    if table.failures:
        print(f"{len(table.failures)} of {len(records)} runs failed",
              file=sys.stderr)
        return 3
    return 0


def cmd_traces(args) -> int:
    cfg = _load_config(args)
    order = max(cfg.orders) if args.order is None else args.order
    cfg.check_order(order)
    os.makedirs(args.out, exist_ok=True)
    _, sig = simulate_cell(cfg, 0, cfg.rt60[-1], order)
    spec = stft(sig, cfg.win_len)
    dictionary = build_dictionary(cfg.dict_size, order, cfg.dict_directions)
    v_h, _, v_g = analyze(spec, dictionary, 1)
    for name, v in (("htdvv", v_h), ("gtvv", v_g)):
        path = os.path.join(args.out, f"trace_{name}.csv")
        dump_traces(v, path)
        print(f"{name}: negative-lag energy fraction "
              f"{negative_lag_energy_fraction(v):.6f} -> {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gtvv",
        description="Velocity-vector multipath analysis of Ambisonic scenes")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out_default=None, out_help="output path"):
        p.add_argument("--config", help="experiment config JSON")
        p.add_argument("--out", default=out_default, help=out_help)
        p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("simulate", help="generate scenes, truth JSON and WAVs")
    common(p, "sim_out", "output directory")
    p.add_argument("--order", type=int, default=None,
                   choices=range(1, MAX_ORDER + 1))
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("estimate", help="estimate a GTVV trace from a WAV")
    common(p, "trace.csv", "trace CSV path")
    p.add_argument("--wav", required=True, help="multichannel Ambisonic WAV")
    p.add_argument("--method", choices=("gtvv", "htdvv"), default="gtvv")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("infer", help="estimate wavefronts from a WAV")
    common(p, "estimate.json", "estimate JSON path")
    p.add_argument("--wav", required=True, help="multichannel Ambisonic WAV")
    p.add_argument("--method", choices=("gtvv", "htdvv"), default="gtvv")
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("evaluate", help="run the full sweep and write tables")
    common(p, "results", "output directory")
    p.add_argument("--workers", type=int, default=None,
                   help="sweep processes (default: the config's, 1)")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("traces", help="dump paired H-TDVV/GTVV trace CSVs "
                       "and print their negative-lag energy fractions")
    common(p, "traces", "output directory")
    p.add_argument("--order", type=int, default=None,
                   choices=range(1, MAX_ORDER + 1))
    p.set_defaults(func=cmd_traces)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # input reads raise ConfigError
        print(f"output error: {exc}", file=sys.stderr)
        return 2
    except (GtvvError, ValueError, FloatingPointError,
            np.linalg.LinAlgError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
