"""Cross-scale experiment drivers: the trends behind the acceptance gate."""

import math
import sys
import warnings

import numpy as np
import pytest

from lorentzlab import dynamics, rng
from lorentzlab.config import build_config
from lorentzlab.dynamics import (ParticleState, StuckParticleError,
                                 _ArrayLog, _find_containing_disk, advance,
                                 classify_pathologies)
from lorentzlab.experiments import run_experiment
from lorentzlab.kinetic import (JumpProcessParams, landau_B_quadrature,
                                sample_boltzmann_path)
from lorentzlab.mechanical_runs import (_barrier_field, _jump_final_chunk,
                                        _mech_chunk, _pathology_chunk)
from lorentzlab.rng import mix_key, rng_stream
from lorentzlab.scattering import BarrierParams
from lorentzlab.stats import angle_histogram, mean_with_ci, tv_distance


def _mech_reference(payload):
    """_mech_chunk written through the logged path: advance per checkpoint
    on ParticleState arrays, events counted from the logs.  Also returns
    how many checkpoints before the last stopped inside a disk."""
    (eps, alpha, mu, speed, checks, seed, tag, initial, sigma0,
     i0, i1) = payload
    params = BarrierParams(epsilon=eps, alpha=alpha, speed=speed)
    ang, disp, pos, n_events, inside = [], [], [], [], 0
    for i in range(i0, i1):
        phi0, x0 = 0.0, np.zeros(2)
        if initial == "uniform":
            rng = rng_stream(seed, i)
            phi0 = rng.random() * 2.0 * math.pi
            if sigma0 > 0:
                x0 = rng.standard_normal(2) * sigma0
        fld = _barrier_field(eps, alpha, mu, seed, tag, i)
        st = ParticleState(x0, (speed * math.cos(phi0),
                                speed * math.sin(phi0)))
        prev, d, ev = 0.0, [], 0
        for tc in checks:
            st, log = advance(st, fld, params, tc - prev)
            prev = tc
            d.append(st.x - x0)
            ev += len(log.events)
            if tc != checks[-1]:
                inside += _find_containing_disk(fld, *st.x, eps) is not None
        ang.append(math.atan2(st.v[1], st.v[0]))
        disp.append(d)
        pos.append(st.x)
        n_events.append(ev)
    return (np.array(ang), np.array(disp), np.array(pos), np.array(n_events),
            inside)


def _jump_final_reference(payload):
    """_jump_final_chunk as a loop over sample_boltzmann_path, one path
    at a time."""
    (eps, alpha, mu, speed, T, seed, tag, i0, i1) = payload
    params = BarrierParams(epsilon=eps, alpha=alpha, speed=speed)
    jp = JumpProcessParams.from_barrier(params, mu)
    m = i1 - i0
    ang = np.empty(m)
    pos = np.empty((m, 2))
    n_jumps = np.empty(m, dtype=np.int64)
    for j, i in enumerate(range(i0, i1)):
        path = sample_boltzmann_path((0.0, 0.0), (speed, 0.0), T, jp,
                                     rng_stream(mix_key(seed, tag), i))
        ang[j] = path.final_angle
        pos[j] = path.final_position
        n_jumps[j] = path.n_jumps
    return ang, pos, n_jumps


@pytest.mark.parametrize("payload", [
    (2.0**-6, 0.25, 1.0, 1.0, 0.125, 20240901, 2006, 512, 1024),
    (2.0**-3, 0.25, 1.0, 1.0, 1.0, 777, 2003, 0, 300),
    (2.0**-8, 0.25, 2.0, 1.5, 0.5, 5, 2008, 40, 90),
    (2.0**-5, 0.25, 1.0, 1.0, 0.0, 5, 2005, 0, 20),
])
def test_jump_final_chunk_equals_path_loop(payload):
    got = _jump_final_chunk(payload)
    want = _jump_final_reference(payload)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w)


def calls(monkeypatch, module, name):
    """A list that grows at each call of ``module.name`` from any
    lorentzlab module that binds it."""
    orig, seen = getattr(module, name), []

    def counted(*args, **kwargs):
        seen.append(args)
        return orig(*args, **kwargs)

    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("lorentzlab"):
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    monkeypatch.setattr(mod, attr, counted)
    return seen


def test_chunks_make_no_per_trajectory_calls(monkeypatch):
    # the starts come from one re-keyed stream and the logs are
    # classified at once: no Generator and no classify_pathologies call
    # per trajectory
    streams = calls(monkeypatch, rng, "rng_stream")
    classified = calls(monkeypatch, dynamics, "classify_pathologies")
    head = (2.0**-6, 0.25, 1.0, 1.0, (0.1, 0.2), 61, 7, "uniform", 0.3)
    assert _mech_chunk(head + (0, 20))[3].sum() > 0
    assert _pathology_chunk(head + (0, 20))[0][:, 3].sum() > 0
    assert streams == [] and classified == []


class TestWorkersEqualLoggedPath:
    """The chunk workers drive the engine on floats; they must reproduce
    the logged library path bit for bit."""

    @pytest.mark.parametrize("k,checks,initial,sigma0", [
        (6, (0.5,), "delta", 0.0),
        (6, (0.1, 0.2, 0.3, 0.4, 0.5), "uniform", 0.3),
        (3, (0.1, 0.2, 0.3), "uniform", 0.0),  # always reflecting
        (3, (1.0,), "delta", 0.0),  # always reflecting
    ])
    def test_mech_chunk(self, k, checks, initial, sigma0):
        self.check_mech_chunk(k, 1.0, checks, initial, sigma0)

    # dense fields: 32 centers a cell (always reflecting), then 16 a cell
    @pytest.mark.parametrize("k,checks,initial,sigma0", [
        (4, (0.1, 0.25), "uniform", 0.0),
        (6, (0.05, 0.1), "uniform", 0.2),
    ])
    def test_mech_chunk_dense(self, k, checks, initial, sigma0):
        self.check_mech_chunk(k, 8.0, checks, initial, sigma0)

    @staticmethod
    def check_mech_chunk(k, mu, checks, initial, sigma0):
        payload = (2.0**-k, 0.25, mu, 1.0, checks, 61, 7, initial, sigma0,
                   0, 40)
        got = _mech_chunk(payload)
        *want, inside = _mech_reference(payload)
        for a, b in zip(got, want):  # angles, displacements, positions, events
            assert np.array_equal(a, b)
        assert got[3].sum() > 0
        if sigma0 > 0:
            # a checkpoint that stops mid-chord resumes through _escape
            assert inside > 0

    @pytest.mark.parametrize("k", [3, 6])
    def test_pathology_chunk(self, k):
        self.check_pathology_chunk(k, 1.0)

    def test_pathology_chunk_dense(self):
        self.check_pathology_chunk(4, 8.0)

    @staticmethod
    def check_pathology_chunk(k, mu):
        eps, T = 2.0**-k, 0.5
        params = BarrierParams(epsilon=eps, alpha=0.25, speed=1.0)
        payload = (eps, 0.25, mu, 1.0, (T,), 62, 5000 + k, "delta", 0.0, 0,
                   30)
        (got,) = _pathology_chunk(payload)
        # the walk's whole log, event by event and point by point, is the
        # one advance writes
        walk = _ArrayLog(30)
        _mech_chunk(payload, walk)
        want = []
        for i, log in enumerate(walk.logs):
            fld = _barrier_field(eps, 0.25, mu, 62, 5000 + k, i)
            _, want_log = advance(ParticleState((0.0, 0.0), (1.0, 0.0)), fld,
                                  params, T)
            assert log.events == want_log.events, i
            assert log.path == want_log.path, i
            rep = classify_pathologies(want_log, fld)
            want.append((rep.recollisions, rep.interferences, rep.overlaps,
                         rep.q_collisions))
        assert np.array_equal(got, np.array(want))
        assert got[:, 3].sum() > 0

    def test_stuck_particle_error(self, monkeypatch):
        # a trajectory past the event budget aborts the chunk, as it
        # aborts the logged path
        monkeypatch.setattr(dynamics, "MAX_EVENTS", 3)
        payload = (2.0**-6, 0.25, 1.0, 1.0, (0.5,), 61, 7, "delta", 0.0, 0, 8)
        with pytest.raises(StuckParticleError):
            _mech_reference(payload)
        with pytest.raises(StuckParticleError):
            _mech_chunk(payload)

    def test_stuck_particle_error_in_pathology_chunk(self, monkeypatch):
        monkeypatch.setattr(dynamics, "MAX_EVENTS", 3)
        payload = (2.0**-6, 0.25, 1.0, 1.0, (0.5,), 61, 7, "delta", 0.0, 0, 8)
        with pytest.raises(StuckParticleError):
            _pathology_chunk(payload)

    # trapped walks in a dense always-reflecting field (32 centers a
    # cell), and Gaussian starts whose checkpoints stop mid-chord and
    # resume through the escape
    @pytest.mark.parametrize("k,mu,checks,sigma0", [
        (4, 8.0, (0.05, 0.1, 0.25), 0.0),
        (6, 1.0, (0.1, 0.2, 0.3, 0.4, 0.5), 0.3),
    ])
    def test_range_does_not_change_results(self, monkeypatch, k, mu, checks,
                                           sigma0):
        # at most 7 walks live: over one range, trajectories enter as
        # others end, and each result is the one it gets in any sub-range
        # and on the logged path
        monkeypatch.setattr(dynamics, "_LIVE_WALKS", 7)
        head = (2.0**-k, 0.25, mu, 1.0, checks, 63, 9, "uniform", sigma0)
        whole = _mech_chunk(head + (0, 40))
        parts = [_mech_chunk(head + r) for r in ((0, 13), (13, 14), (14, 40))]
        *want, inside = _mech_reference(head + (0, 40))
        for a, b, c in zip(whole, zip(*parts), want):
            assert np.array_equal(a, np.concatenate(b))
            assert np.array_equal(a, c)
        (counts,) = _pathology_chunk(head + (0, 40))
        assert np.array_equal(counts, np.concatenate(
            [_pathology_chunk(head + r)[0] for r in ((0, 21), (21, 40))]))
        if sigma0 > 0:
            assert inside > 0
        else:
            # a walk trapped among overlapping disks outlives many others
            # (322 events against a median of 50 here)
            assert whole[3].max() > 5 * np.median(whole[3])


class TestKineticCompareShortTime:
    def test_genuine_trend_before_thermalization(self):
        # at T = 1/8 the refractive-ladder ensembles are only partially
        # relaxed and the mechanical/jump mismatch (dominated by barrier
        # transit time) decays visibly along eps = 2^-5..2^-8
        cfg = build_config(
            "kinetic-compare",
            "kmin = 5\nkmax = 8\ntime = 0.125\nsamples = 3000\nseed = 41\n",
        )
        rep = run_experiment(cfg)
        tvs = rep.summary["tv_angle"]
        assert all(b < a for a, b in zip(tvs, tvs[1:])), tvs
        # and the mismatch is resolved: clearly above the noise floor
        assert tvs[0] > 2.0 * rep.summary["tv_noise_floor"][0]


class TestPathologyIndicators:
    def test_per_trajectory_indicator_monotone_on_refractive_ladder(self):
        # P(recollision or interference > 0) decreases along 2^-5..2^-8
        # (the full 2^-3.. ladder crosses the total-reflection regime
        # boundary, where the indicator is not monotone)
        cfg = build_config(
            "pathology-scan",
            "kmin = 5\nkmax = 8\ntime = 0.5\ntrajectories = 1500\nseed = 42\n",
        )
        rep = run_experiment(cfg)
        p_any = [row[5] for row in rep.rows]
        assert all(b < a for a, b in zip(p_any, p_any[1:])), p_any


class TestDiffusiveScale:
    def test_msd_linear_and_ratio_band(self):
        cfg = build_config(
            "diffusive-scale",
            "k = 7\ntrajectories = 1200\nseed = 43\n",
        )
        rep = run_experiment(cfg)
        s = rep.summary
        assert s["msd_late_r_squared"] > 0.99
        assert 0.5 <= s["ratio_mech_over_kinetic"] <= 2.0
        # MSD columns carry shrinking relative CIs
        t, msd, ci = rep.rows[-1]
        assert ci < 0.2 * msd

    def test_heat_distance_decreases_with_eps(self):
        # k = 4 at alpha = 1/4 sits on the total-reflection boundary
        # (2 eps^alpha = 1), so the ladder starts at k = 5
        l2 = {}
        for k in (5, 7):
            cfg = build_config(
                "diffusive-scale",
                f"k = {k}\ntrajectories = 900\nseed = 44\n",
            )
            l2[k] = run_experiment(cfg).summary["l2_vs_heat"]
        assert l2[7] < l2[5]


class TestFickConsistency:
    def _run(self, L, injections, seed):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            cfg = build_config(
                "fick-slab",
                f"L = {L}\nrho1 = 2.0\nrho2 = 1.0\neta = 2.0\n"
                f"epsilon = {2.0 ** -5}\ninjections = {injections}\n"
                f"bins = 12\nt_max = 800\nseed = {seed}\n",
            )
            return run_experiment(cfg).summary

    def test_operational_D_stable_across_L(self):
        # J * L / (rho1 - rho2) is positive and geometry-independent up
        # to the boundary-slip correction, which shrinks with L
        d1 = self._run(1.0, 20_000, 45)["implied_D"]
        d2 = self._run(2.0, 16_000, 46)["implied_D"]
        assert d1 > 0 and d2 > 0
        assert abs(d2 / d1 - 1.0) < 0.3

    def test_y_period_doubling_stable(self):
        base = None
        for cells, seed in ((16, 47), (32, 47)):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                cfg = build_config(
                    "fick-slab",
                    f"epsilon = {2.0 ** -5}\ninjections = 12000\nbins = 8\n"
                    f"y_period_cells = {cells}\nseed = {seed}\n",
                )
                rep = run_experiment(cfg)
            rho = np.array([r[1] for r in rep.rows])
            ci = np.array([r[2] for r in rep.rows])
            if base is None:
                base = (rho, ci)
            else:
                assert np.all(np.abs(rho - base[0]) <= 1.5 * (ci + base[1]))


class TestBoltzmannLandauBridge:
    def test_tv_decreases_along_ladder(self):
        # jump-process angle law at time t/|log eps| vs the Gaussian
        # angular-diffusion law with the matching B_eps
        t, alpha, n = 1.0, 0.25, 10_000
        tvs = []
        for idx, k in enumerate((2, 3, 4)):
            eps = 10.0**-k
            params = BarrierParams(epsilon=eps, alpha=alpha, speed=1.0)
            jp = JumpProcessParams.from_barrier(params, 1.0)
            tau = t / abs(math.log(eps))
            ang = np.empty(n)
            for i in range(n):
                path = sample_boltzmann_path(
                    (0, 0), (1, 0), tau, jp, rng_stream(48 + idx, i)
                )
                ang[i] = path.final_angle
            b = landau_B_quadrature(eps, alpha)
            sigma = math.sqrt(2.0 * b * tau)
            gauss = rng_stream(148 + idx, 0).standard_normal(n) * sigma
            tvs.append(tv_distance(angle_histogram(ang, 48),
                                   angle_histogram(gauss, 48)))
        assert tvs[2] < tvs[0], tvs


class TestErrorBarSanity:
    def test_ci_shrinks_like_sqrt_n(self):
        rng = rng_stream(50, 0)
        big = rng.standard_normal(40_000)
        _, hw1 = mean_with_ci(big[:2500])
        _, hw2 = mean_with_ci(big[:40_000])
        # 16x the samples: half-width down by ~4
        assert hw2 == pytest.approx(hw1 / 4.0, rel=0.15)


class TestReportMetadata:
    def test_sidecar_embeds_version_and_config(self, tmp_path):
        import json

        from lorentzlab import __version__
        from lorentzlab.experiments import write_outputs

        cfg = build_config("scatter-table", "samples = 9\nseed = 3\n")
        rep = run_experiment(cfg)
        _, json_path = write_outputs(rep, str(tmp_path))
        meta = json.loads(open(json_path).read())
        assert meta["code_version"] == __version__
        assert meta["seed"] == 3
        assert meta["config_resolved"]["samples"] == 9
        assert meta["duration_s"] >= 0.0


@pytest.mark.parametrize("n", [1, 2, 5, 401, 7777])
def test_scatter_table_grid_is_numpys_linspace(n):
    # the rho grid is computed without numpy, with linspace's arithmetic
    rep = run_experiment(build_config("scatter-table", "", {"samples": n}))
    rho = np.array([row[0] for row in rep.rows])
    assert rho.tobytes() == np.linspace(-1.0, 1.0, n).tobytes()
