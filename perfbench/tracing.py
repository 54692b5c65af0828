"""Spans and counts around lorentzlab's layer boundaries, installed from outside.

The program is not edited: `Patcher` swaps the functions each layer is
entered through for wrappers, in every lorentzlab module that binds
them (a `from x import y` binding is a separate name and is swapped
too), and puts the originals back when the traced run ends.

Spans stay in memory in flat arrays (name, parent, start, end) and are
written out once at the end.  A span's self time is its duration minus
the durations of its children; spans nest strictly, so the children of
a span cover disjoint parts of it.

The hottest boundary, a cell query answered from the cache, is counted
but not timed: a span there would cost more than the work it measures.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from collections import Counter

PACKAGE = "lorentzlab"
WRAPPED = "__perfbench_wrapper__"


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.counts: Counter = Counter()
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.starts)
        self.name_ids.append(nid)
        self.parents.append(self._open[-1] if self._open else -1)
        self.ends.append(0.0)
        self._open.append(idx)
        self.starts.append(self.clock())
        return idx

    def end(self, idx: int) -> None:
        self.ends[idx] = self.clock()
        self._open.pop()

    def __len__(self) -> int:
        return len(self.starts)

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """name -> (spans, summed duration, summed self time)."""
        dur = [e - s for s, e in zip(self.starts, self.ends)]
        covered = [0.0] * len(dur)
        for i, p in enumerate(self.parents):
            if p >= 0:
                covered[p] += dur[i]
        out: dict[str, list] = {}
        for i, nid in enumerate(self.name_ids):
            acc = out.setdefault(self.names[nid], [0, 0.0, 0.0])
            acc[0] += 1
            acc[1] += dur[i]
            acc[2] += dur[i] - covered[i]
        return {k: tuple(v) for k, v in out.items()}

    def write(self, path: str) -> None:
        """All spans as JSON lists: names, name ids, parents, starts, ends."""
        t0 = self.starts[0] if len(self) else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names,
                       "name": list(self.name_ids),
                       "parent": list(self.parents),
                       "start_s": [round(s - t0, 9) for s in self.starts],
                       "end_s": [round(e - t0, 9) for e in self.ends],
                       "counts": dict(self.counts)}, fh)


class Patcher:
    """Replaces attributes and restores them, last replaced first."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()

    def function(self, module, name: str, make) -> None:
        """Wrap module.name in every lorentzlab module bound to it."""
        orig = getattr(module, name)
        wrapper = make(orig)
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith(PACKAGE):
                continue
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    self._undo.append((mod, attr, orig))
                    setattr(mod, attr, wrapper)

    def method(self, cls, name: str, make) -> None:
        orig = cls.__dict__[name]
        self._undo.append((cls, name, orig))
        setattr(cls, name, make(orig))

    def restore(self) -> None:
        while self._undo:
            obj, attr, orig = self._undo.pop()
            setattr(obj, attr, orig)


def _mark(wrapper, orig):
    functools.update_wrapper(wrapper, orig)
    setattr(wrapper, WRAPPED, True)
    return wrapper


def spanned(tracer: Tracer, name: str, after=None):
    """Wrapper factory: one span per call; after(args, kwargs, result) may count."""
    begin, end = tracer.begin, tracer.end

    def make(orig):
        def wrapper(*args, **kwargs):
            i = begin(name)
            try:
                out = orig(*args, **kwargs)
            finally:
                end(i)
            if after is not None:
                after(args, kwargs, out)
            return out
        return _mark(wrapper, orig)
    return make


def counted(tracer: Tracer, key: str):
    counts = tracer.counts

    def make(orig):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return orig(*args, **kwargs)
        return _mark(wrapper, orig)
    return make


def install_layers(patcher: Patcher, tracer: Tracer) -> None:
    """Spans at every layer boundary the per-layer metrics are read from."""
    from lorentzlab import (cli, config, dynamics, experiments, kinetic,
                            macroscale, medium, parallel, rng, stats)

    c = tracer.counts

    def count(key, of):
        def after(args, kwargs, out):
            c[key] += of(args, kwargs, out)
        return after

    P = patcher
    P.method(medium.ScattererField, "scatterers_in_cell",
             counted(tracer, "medium.cell_queries"))
    P.method(medium.ScattererField, "_generate",
             spanned(tracer, "medium.generate"))

    P.method(dynamics._Engine, "run", spanned(tracer, "dynamics.run"))
    P.function(dynamics, "_first_hit", spanned(
        tracer, "dynamics.first_hit",
        count("dynamics.events", lambda a, k, out: out is not None)))
    P.function(dynamics, "advance", spanned(tracer, "dynamics.advance"))
    P.function(dynamics, "classify_pathologies",
               spanned(tracer, "dynamics.classify"))

    def segment(orig):
        # the slab's per-segment callback is macroscale work done from
        # inside the engine; other runs have no callback and get no span
        begin, end = tracer.begin, tracer.end

        def wrapper(self, *args):
            if self.on_segment is None:
                return orig(self, *args)
            i = begin("macroscale.on_segment")
            try:
                return orig(self, *args)
            finally:
                end(i)
        return _mark(wrapper, orig)
    P.method(dynamics._Engine, "_segment", segment)

    P.function(kinetic, "sample_boltzmann_path", spanned(
        tracer, "kinetic.boltzmann_path",
        count("kinetic.jumps", lambda a, k, out: out.n_jumps)))
    P.function(kinetic, "landau_B_quadrature",
               spanned(tracer, "kinetic.B_quadrature"))

    def landau_steps(args, kwargs, out):
        # _landau_vacf_msd(c, speed, n_paths, dt, t_max, seed)
        return args[2] * int(round(args[4] / args[3]))
    P.function(kinetic, "_landau_vacf_msd", spanned(
        tracer, "kinetic.landau_vacf_msd", count("kinetic.landau_path_steps",
                                                 landau_steps)))
    P.function(kinetic, "_jump_vacf_msd", spanned(tracer, "kinetic.jump_vacf_msd"))
    P.function(kinetic, "green_kubo_D", spanned(tracer, "kinetic.green_kubo_D"))

    P.function(rng, "rng_stream", spanned(tracer, "rng.stream"))

    P.function(macroscale, "simulate_slab_stationary",
               spanned(tracer, "macroscale.simulate_slab"))
    P.function(macroscale, "_run_injection", spanned(
        tracer, "macroscale.injection",
        count("macroscale.timeouts", lambda a, k, out: int(out[2]))))
    P.function(macroscale, "solve_heat", spanned(tracer, "macroscale.solve_heat"))
    P.function(macroscale, "_heat_step", spanned(tracer, "macroscale.heat_step"))

    P.function(parallel, "run_chunked", spanned(
        tracer, "parallel.run_chunked",
        count("parallel.chunks", lambda a, k, out: len(out))))

    for fn in ("angle_histogram", "chi_square_uniform", "tv_distance",
               "tv_self_noise", "linear_fit", "mean_with_ci", "msd_curve"):
        P.function(stats, fn, spanned(tracer, "stats." + fn))

    P.function(config, "build_config", spanned(tracer, "experiments.config"))
    P.function(experiments, "run_experiment",
               spanned(tracer, "experiments.run_experiment"))
    P.function(experiments, "write_outputs",
               spanned(tracer, "experiments.write_outputs"))
    P.function(cli, "main", spanned(tracer, "experiments.cli_main"))


class ChunkRecorder:
    """Times every run_chunked call and keeps what it was given, for replay."""

    def __init__(self):
        self.calls: list[tuple[object, list, float]] = []

    def install(self, patcher: Patcher) -> None:
        from lorentzlab import parallel

        def make(orig):
            def wrapper(fn, payloads, workers=1):
                t0 = time.perf_counter()
                out = orig(fn, payloads, workers)
                self.calls.append((fn, list(payloads),
                                   time.perf_counter() - t0))
                return out
            return _mark(wrapper, orig)
        patcher.function(parallel, "run_chunked", make)


def leftover_wrappers() -> list[str]:
    """Names in loaded lorentzlab modules and classes still bound to a wrapper."""
    found = []
    for mod in list(sys.modules.values()):
        if not getattr(mod, "__name__", "").startswith(PACKAGE):
            continue
        for attr, val in vars(mod).items():
            if getattr(val, WRAPPED, False):
                found.append(f"{mod.__name__}.{attr}")
            if isinstance(val, type) and val.__module__.startswith(PACKAGE):
                for m, v in vars(val).items():
                    if getattr(v, WRAPPED, False):
                        found.append(f"{mod.__name__}.{attr}.{m}")
    return found
