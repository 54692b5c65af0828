"""Span arithmetic, and that the layer wrappers come off completely."""

import sys

import pytest

from tracing import ChunkRecorder, Patcher, Tracer, install_layers, leftover_wrappers


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_is_duration_minus_children():
    tr = Tracer(clock=FakeClock([0, 1, 3, 4, 5, 6, 8, 10, 20, 25]))
    root = tr.begin("root")
    a = tr.begin("child")
    tr.end(a)                      # child 1..3
    b = tr.begin("child")
    g = tr.begin("leaf")
    tr.end(g)                      # leaf 5..6
    tr.end(b)                      # child 4..8
    tr.end(root)                   # root 0..10
    lone = tr.begin("root")
    tr.end(lone)                   # second root 20..25, no children
    tot = tr.totals()
    assert tot["leaf"] == (1, 1, 1)
    assert tot["child"] == (2, 6, 5)       # 2 + 4; self 2 + (4 - 1)
    assert tot["root"] == (2, 15, 9)       # self (10 - 6) + 5
    assert list(tr.parents) == [-1, 0, 0, 2, -1]


def _bindings():
    """Every attribute of every lorentzlab module and class, by identity."""
    out = {}
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("lorentzlab"):
            for k, v in vars(mod).items():
                out[(mod.__name__, k)] = v
                if isinstance(v, type) and v.__module__.startswith("lorentzlab"):
                    for m, f in vars(v).items():
                        out[(mod.__name__, k, m)] = f
    return out


def test_wrappers_cover_from_imports_and_come_off(tmp_path):
    import lorentzlab.cli  # noqa: F401
    from lorentzlab import dynamics, experiments, kinetic, macroscale, rng

    before = _bindings()
    tracer = Tracer()
    with Patcher() as patcher:
        install_layers(patcher, tracer)
        # names bound by `from x import y` are wrapped where they are used
        for mod in (experiments, macroscale):
            assert mod.rng_stream is rng.rng_stream is not before[("lorentzlab.rng", "rng_stream")]
        assert experiments.sample_boltzmann_path is kinetic.sample_boltzmann_path
        assert dynamics._first_hit is not before[("lorentzlab.dynamics", "_first_hit")]
        assert leftover_wrappers()
        code = lorentzlab.cli.main(["pathology-scan", "--eps-ladder", "5..5",
                                    "--time", "0.05", "--trajectories", "8",
                                    "--out-dir", str(tmp_path)])
        assert code == 0
    assert leftover_wrappers() == []
    assert _bindings() == before
    tot = tracer.totals()
    assert tot["dynamics.run"][0] == 8
    assert tot["medium.generate"][0] > 0
    assert tracer.counts["medium.cell_queries"] >= tot["medium.generate"][0]


def test_wrappers_come_off_after_an_error():
    import lorentzlab.cli  # noqa: F401

    before = _bindings()
    with pytest.raises(RuntimeError):
        with Patcher() as patcher:
            ChunkRecorder().install(patcher)
            install_layers(patcher, Tracer())
            raise RuntimeError
    assert leftover_wrappers() == []
    assert _bindings() == before
