"""Span tracing of the real gtvv code from outside the package.

`instrument(tracer)` replaces the public functions named in LAYERS with
wrappers that time each call into an in-memory span, wherever the package
holds a reference to them (the defining module, `gtvv`, and the modules
that imported them by name), and puts the originals back on exit. Inside
the block the untouched `run_experiment`, `run_single` and `cli.main` run
as usual, so the spans describe the program that the untraced runs time.
The source under src/ is not modified.

Spans are named `<module>.<function>`, and `cli.cmd_<sub>` is `cli.<sub>`.
Every span opened inside a `run_single` call carries the suffix `.o<order>`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from contextlib import contextmanager
from time import perf_counter

LAYERS = {
    "sh": ("build_dictionary", "make_omni_beam", "make_reference_beam",
           "angular_distance"),
    "room": ("image_source_scene", "make_burst_source", "encode_scene",
             "add_noise", "read_wav"),
    "spectral": ("stft",),
    "velocity": ("estimate_gtvv",),
    "somp": ("somp", "match_to_truth"),
    "baselines": ("srp_map", "srp_doa", "h_tdvv"),
    "experiment": ("scene_geometry", "run_single", "run_experiment"),
    "cli": ("cmd_infer",),
}

# Work counts taken from the results of traced calls.
COUNTERS = {
    "somp.somp": lambda est: {
        "somp.iters": len(est.directions),
        "somp.early_stops": int(est.terminated_early),
        "somp.reflections_selected": len(est.directions) - 1},
    "somp.match_to_truth": lambda rep: {
        "somp.reflections_matched": rep.detections},
    "sh.build_dictionary": lambda _: {"sh.build_dictionary.calls": 1},
    "room.image_source_scene": lambda scene: {
        "room.wavefronts": len(scene.wavefronts)},
}


class Tracer:
    """In-memory spans (name, start, end) and work counts."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self.suffix = ""

    def durations(self) -> dict:
        """Span name -> list of durations in seconds."""
        out = {}
        for name, start, end in self.spans:
            out.setdefault(name, []).append(end - start)
        return out

    def wrap(self, name, fn):
        order_of = None
        if name == "experiment.run_single":
            sig = inspect.signature(fn)
            order_of = lambda a, k: sig.bind(*a, **k).arguments["order"]
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outer = self.suffix
            if order_of is not None:
                self.suffix = f".o{order_of(args, kwargs)}"
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans.append((name + self.suffix, start, perf_counter()))
                self.suffix = outer
            if count is not None:
                for key, n in count(result).items():
                    self.counts[key] = self.counts.get(key, 0) + n
            return result
        return traced


@contextmanager
def instrument(tracer: Tracer):
    """Trace every call of the LAYERS functions while the block runs."""
    import gtvv
    modules = [gtvv] + [importlib.import_module(f"gtvv.{m}") for m in LAYERS]
    saved = []
    try:
        for mod, names in LAYERS.items():
            for fn_name in names:
                fn = getattr(importlib.import_module(f"gtvv.{mod}"), fn_name)
                span = f"{mod}.{fn_name.removeprefix('cmd_')}"
                wrapper = tracer.wrap(span, fn)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is fn:
                            saved.append((module, attr, fn))
                            setattr(module, attr, wrapper)
        yield tracer
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)


def infer_args(config_path: str, wav: str, out: str) -> list:
    """argv of `gtvv infer` on one WAV."""
    return ["infer", "--config", config_path, "--wav", wav, "--out", out]
