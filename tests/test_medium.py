"""Lazy Poisson scatterer field: determinism, statistics, exactness."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats as sps

from lorentzlab.dynamics import _first_hit
from lorentzlab.medium import (FieldSpec, PlantedField, ScattererField,
                               cell_centers)
from lorentzlab.rng import HashStream, mix_key


def barrier_spec(**kw):
    base = dict(mu=1.0, epsilon=0.05, seed=123, delta=1.0)
    base.update(kw)
    return FieldSpec(**base)


class TestFieldSpec:
    def test_mu_eff_barrier_and_slab(self):
        s = FieldSpec(mu=2.0, epsilon=0.25, seed=0, delta=1.5)
        assert s.mu_eff == pytest.approx(2.0 * 0.25**-1.5)
        s = FieldSpec(mu=2.0, epsilon=0.25, seed=0, eta=3.0)
        assert s.mu_eff == pytest.approx(2.0 * 3.0 / 0.25)

    def test_exactly_one_scaling(self):
        with pytest.raises(ValueError):
            FieldSpec(mu=1.0, epsilon=0.1, seed=0)
        with pytest.raises(ValueError):
            FieldSpec(mu=1.0, epsilon=0.1, seed=0, delta=1.0, eta=1.0)

    @pytest.mark.parametrize("change,message", [
        ({"mu": 0.0}, "mu must be positive, got 0.0"),
        ({"mu": -1.0}, "mu must be positive, got -1.0"),
        ({"epsilon": 0.0}, "epsilon must be positive, got 0.0"),
        ({"epsilon": -0.1}, "epsilon must be positive, got -0.1"),
    ])
    def test_nonpositive_mu_or_epsilon_rejected(self, change, message):
        with pytest.raises(ValueError, match=message):
            barrier_spec(**change)

    def test_default_cell_size(self):
        s = FieldSpec(mu=1.0, epsilon=0.1, seed=0, delta=1.0)
        assert s.cell_size == pytest.approx(0.4)


class TestCellSampling:
    def test_determinism(self):
        spec = barrier_spec()
        a = ScattererField(spec).scatterers_in_cell((3, -7))
        b = ScattererField(spec).scatterers_in_cell((3, -7))
        assert a == b

    def test_different_seeds_differ(self):
        cells = [(i, j) for i in range(5) for j in range(5)]
        a = [ScattererField(barrier_spec(seed=1)).scatterers_in_cell(c) for c in cells]
        b = [ScattererField(barrier_spec(seed=2)).scatterers_in_cell(c) for c in cells]
        assert a != b

    def test_points_inside_cell(self):
        fld = ScattererField(barrier_spec(seed=9))
        for cell in [(0, 0), (-3, 5), (17, -2)]:
            cs = fld.cell_size
            for (x, y) in fld.scatterers_in_cell(cell):
                assert cell[0] * cs <= x < (cell[0] + 1) * cs
                assert cell[1] * cs <= y < (cell[1] + 1) * cs

    def test_poisson_mean_and_gof(self):
        # counts over 1e5 cells: mean within 3 SE and chi-square GOF
        spec = barrier_spec(mu=2.0, seed=77)
        fld = ScattererField(spec)
        mean_target = spec.mu_eff * spec.cell_size**2
        counts = np.array(
            [len(fld.scatterers_in_cell((i, j)))
             for i in range(400) for j in range(250)]
        )
        n = counts.size
        assert abs(counts.mean() - mean_target) <= 3.0 * counts.std() / math.sqrt(n)
        kmax = int(counts.max())
        observed = np.bincount(counts, minlength=kmax + 1).astype(float)
        pmf = sps.poisson.pmf(np.arange(kmax + 1), mean_target)
        # pool the tail so every expected count is >= 5
        expected = pmf * n
        tail = expected < 5.0
        if tail.any():
            cut = np.argmax(tail)
            observed = np.concatenate([observed[:cut], [observed[cut:].sum()]])
            expected = np.concatenate([expected[:cut], [n - expected[:cut].sum()]])
        _, p = sps.chisquare(observed, expected)
        assert p > 0.01

    def test_disjoint_cells_uncorrelated(self):
        fld = ScattererField(barrier_spec(mu=3.0, seed=5))
        a = np.array([len(fld.scatterers_in_cell((i, 0))) for i in range(10_000)])
        b = np.array([len(fld.scatterers_in_cell((i, 50))) for i in range(10_000)])
        corr = np.corrcoef(a, b)[0, 1]
        assert abs(corr) < 3.0 / math.sqrt(10_000)

    def test_intensity_scaling(self):
        n = 20_000
        means = []
        for mu in (1.0, 2.0):
            fld = ScattererField(barrier_spec(mu=mu, seed=31))
            c = np.array([len(fld.scatterers_in_cell((i, j)))
                          for i in range(200) for j in range(100)])
            means.append((c.mean(), c.std() / math.sqrt(n)))
        ratio = means[1][0] / means[0][0]
        se = ratio * math.hypot(means[0][1] / means[0][0],
                                means[1][1] / means[1][0])
        assert abs(ratio - 2.0) < 3.0 * se

    def test_y_period_wraps_cells(self):
        spec = barrier_spec(seed=4, y_period=0.2 * 8)
        fld = ScattererField(spec)
        base = fld.scatterers_in_cell((2, 3))
        image = fld.scatterers_in_cell((2, 3 + 8))
        assert len(base) == len(image)
        for (x0, y0), (x1, y1) in zip(base, image):
            assert x1 == x0
            assert y1 == pytest.approx(y0 + spec.y_period, abs=1e-12)

    def test_bad_y_period(self):
        with pytest.raises(ValueError):
            barrier_spec(y_period=0.3)  # not a whole number of cells


class TestCellCenters:
    """``cell_centers`` gives, bit for bit, the centers ``_generate``
    gives one cell at a time, whatever the cells, seeds and mean."""

    @settings(max_examples=60)
    @given(seeds=st.lists(st.integers(-2**70, 2**70), min_size=1, max_size=3),
           log_lam=st.floats(math.log(0.01), math.log(200.0)),
           cells=st.lists(st.tuples(st.integers(0, 2), st.integers(-2**40, 40),
                                    st.integers(-40, 2**40)),
                          min_size=1, max_size=40))
    # counts past a block, the split of a mean above 64 (twice at 200)
    @example(seeds=[3], log_lam=math.log(8.0),
             cells=[(0, i, -i) for i in range(-20, 20)])
    @example(seeds=[1, -1], log_lam=math.log(64.5),
             cells=[(i % 2, i, 7) for i in range(-5, 5)])
    @example(seeds=[5], log_lam=math.log(200.0),
             cells=[(0, -1, -1), (0, 0, 0), (0, 3, -2)])
    def test_equals_scalar_cells(self, seeds, log_lam, cells):
        cs = 0.25
        spec = FieldSpec(mu=math.exp(log_lam) / cs**2, epsilon=cs / 4,
                         seed=0, delta=0.0)
        fields = [ScattererField(replace(spec, seed=s)) for s in seeds]
        f, ix, iy = (np.array(c, dtype=np.int64) for c in zip(*cells))
        f %= len(seeds)
        keys = np.array([mix_key(s) for s in seeds], dtype=np.uint64)[f]
        cx, cy, counts = cell_centers(keys, ix, iy, fields[0]._mean, cs)
        want = [fields[a].scatterers_in_cell((b, c))
                for a, b, c in zip(f.tolist(), ix.tolist(), iy.tolist())]
        assert counts.tolist() == [len(w) for w in want]
        assert list(zip(cx.tolist(), cy.tolist())) == [
            pt for w in want for pt in w]

    def test_limit_is_math_exp(self):
        # a cell whose first uniform is exactly exp(-lam) counts 0 there;
        # numpy's exp, one ulp lower at this lam, would count on
        for ix in range(2000):
            u = HashStream(0, ix, 0).uniform()
            near = -math.log(u)
            fits = [lam for lam in (near + k * math.ulp(near)
                                    for k in range(-3, 4))
                    if math.exp(-lam) == u and np.exp(-lam) < u]
            if fits:
                break
        assert fits
        lam = fits[0]
        assert HashStream(0, ix, 0).poisson(lam) == 0
        _, _, counts = cell_centers(np.array([mix_key(0)], dtype=np.uint64),
                                    np.array([ix]), np.array([0]), lam, 1.0)
        assert counts.tolist() == [0]


class TestStripCenters:
    """Bulk generation of a strip of a y-periodic field's cells, in any
    image of the period, gives bit for bit the centers that
    ``scatterers_in_cell`` gives cell by cell."""

    @settings(max_examples=60)
    @given(seeds=st.lists(st.integers(-2**70, 2**70), min_size=1, max_size=4),
           lam=st.floats(0.01, 200.0), ix0=st.integers(-40, 5),
           n_cols=st.integers(1, 4), ny=st.integers(1, 5),
           image=st.integers(-3, 3))
    # a mean over 64 is drawn as two halves; a mean of 8 often needs more
    # uniforms than a block of the bulk Knuth product
    @example(seeds=[1, -1], lam=64.5, ix0=-2, n_cols=2, ny=2, image=1)
    @example(seeds=[2**64 + 5], lam=8.0, ix0=-3, n_cols=3, ny=3, image=-2)
    @example(seeds=[9, 10, 11], lam=140.0, ix0=-1, n_cols=2, ny=4, image=2)
    def test_equals_scalar_cells(self, seeds, lam, ix0, n_cols, ny, image):
        cs = 0.25
        spec = FieldSpec(mu=lam / cs**2, epsilon=cs / 4, seed=0, delta=0.0,
                         y_period=ny * cs)
        fields = [ScattererField(replace(spec, seed=s)) for s in seeds]
        keys = np.array([mix_key(s) for s in seeds], dtype=np.uint64)
        ix1 = ix0 + n_cols - 1
        f, ix, iy = np.meshgrid(np.arange(len(seeds)), np.arange(ix0, ix1 + 1),
                                np.arange(ny) + image * ny, indexing="ij")
        cx, cy, counts = fields[0].cells(keys[f.ravel()], ix.ravel(),
                                         iy.ravel())
        want = [fields[a].scatterers_in_cell((b, c)) for a, b, c in zip(
            f.ravel().tolist(), ix.ravel().tolist(), iy.ravel().tolist())]
        assert counts.tolist() == [len(w) for w in want]
        assert list(zip(cx.tolist(), cy.tolist())) == [
            pt for w in want for pt in w]


def brute_first_hit(centers, x, y, ux, uy, r, s_max):
    """Smallest entry distance in (0, s_max] over every center, with the
    engine's rules: a disk containing the start is ignored and a graze
    (normalized discriminant < 1e-12) is a miss."""
    best = None
    r2 = r * r
    for (cx, cy) in centers:
        wx, wy = cx - x, cy - y
        w2 = wx * wx + wy * wy
        if w2 < r2:
            continue
        b = wx * ux + wy * uy
        disc = b * b - (w2 - r2)
        if disc < 1e-12 * r2:
            continue
        s_in = b - math.sqrt(disc)
        if 0.0 < s_in <= s_max and (best is None or s_in < best[0]):
            best = (s_in, (cx, cy))
    return best


def box_centers(fld, x, y, ux, uy, s_max):
    """Every center in the cells of the ray's bounding box, widened by a cell."""
    x1, y1 = x + s_max * ux, y + s_max * uy
    (i0, j0) = fld.cell_of(min(x, x1), min(y, y1))
    (i1, j1) = fld.cell_of(max(x, x1), max(y, y1))
    return [c for i in range(i0 - 1, i1 + 2) for j in range(j0 - 1, j1 + 2)
            for c in fld.scatterers_in_cell((i, j))]


class TestNearSegment:
    """The first-hit search along a segment against a full scan."""

    def test_empty_cell_gives_empty(self):
        fld = ScattererField(barrier_spec(mu=0.1, seed=8))
        # find a cell with no centers, query a segment well inside it
        for i in range(100):
            if not fld.scatterers_in_cell((i, 0)):
                cs = fld.cell_size
                eps = fld.epsilon
                x0 = i * cs + 1.2 * eps
                x1 = (i + 1) * cs - 1.2 * eps
                assert _first_hit(fld, x0, cs / 2, 1.0, 0.0, eps, x1 - x0) is None
                return
        pytest.fail("no empty cell found")

    def test_planted_center_within_eps(self):
        fld = PlantedField([(0.5, 0.025)], epsilon=0.05)
        s_in, center = _first_hit(fld, 0.0, 0.0, 1.0, 0.0, 0.05, 1.0)
        assert center == (0.5, 0.025)
        assert s_in == pytest.approx(0.5 - math.sqrt(0.05**2 - 0.025**2), abs=1e-15)
        # just beyond eps: a miss
        fld = PlantedField([(0.5, 0.0500001)], epsilon=0.05)
        assert _first_hit(fld, 0.0, 0.0, 1.0, 0.0, 0.05, 1.0) is None

    def test_brute_force_oracle_box(self):
        # exact agreement with a full scan of a 50x50-cell box
        spec = barrier_spec(mu=1.0, seed=9)
        fld = ScattererField(spec)
        everything = []
        for i in range(-25, 25):
            for j in range(-25, 25):
                everything += fld.scatterers_in_cell((i, j))
        r = spec.epsilon
        rng = np.random.default_rng(0)
        hits = 0
        for _ in range(100):
            p0 = rng.uniform(-3, 3, 2)
            p1 = rng.uniform(-3, 3, 2)
            length = float(np.hypot(*(p1 - p0)))
            ux, uy = (p1 - p0) / length
            got = _first_hit(fld, p0[0], p0[1], ux, uy, r, length)
            assert got == brute_first_hit(everything, p0[0], p0[1], ux, uy, r,
                                          length)
            hits += got is not None
        assert hits > 50

    def test_translation_consistency(self):
        # the first hit on a long segment is the first hit on every
        # prefix that reaches it, and no prefix that stops short has one
        spec = barrier_spec(mu=2.0, seed=21)
        fld = ScattererField(spec)
        x, y = -2.0, 0.3
        ux, uy = 4.0 / math.hypot(4.0, -0.2), -0.2 / math.hypot(4.0, -0.2)
        full = _first_hit(fld, x, y, ux, uy, spec.epsilon, 4.0)
        assert full is not None
        for frac in (0.25, 0.5, 0.9, 0.999, 1.001, 2.0):
            s_max = full[0] * frac
            sub = _first_hit(fld, x, y, ux, uy, spec.epsilon, s_max)
            assert sub == (full if frac >= 1.0 else None)


finite = dict(allow_nan=False, allow_infinity=False)
coord = st.floats(-2.0, 2.0, **finite)
angle = st.floats(0.0, 2.0 * math.pi, **finite)
FAN = 24  # rays per drawn start point, evenly spread in direction


class TestFirstHitBruteForce:
    """The march finds the hit a scan over every center finds, whatever
    the ray's direction and however many windows it spans."""

    @settings(max_examples=150)
    @given(centers=st.lists(st.tuples(coord, coord), max_size=60),
           r=st.floats(0.01, 0.3, **finite),
           x=coord, y=coord, phi=angle,
           s_max=st.floats(1e-3, 8.0, **finite))
    # diagonal ray: the first window's cells hold a disk entered just past
    # the window's end, but a disk in a cell outside them is entered first
    @example(centers=[(0.399, 0.399), (0.401, 0.331)], r=0.05, x=0.0, y=0.0,
             phi=math.pi / 4, s_max=8.0)
    def test_planted_cloud(self, centers, r, x, y, phi, s_max):
        fld = PlantedField(centers, r)
        for k in range(FAN):
            ux = math.cos(phi + 2.0 * math.pi * k / FAN)
            uy = math.sin(phi + 2.0 * math.pi * k / FAN)
            want = brute_first_hit(centers, x, y, ux, uy, r, s_max)
            got = _first_hit(fld, x, y, ux, uy, r, s_max)
            if got is None or want is None:
                assert got == want
            else:
                # an exact tie between two disks may name either center
                assert got[0] == want[0]
                assert got[1] in centers

    @settings(max_examples=40)
    @given(seed=st.integers(0, 2**32 - 1), mu=st.floats(0.2, 3.0, **finite),
           x=coord, y=coord, phi=angle,
           windows=st.floats(0.01, 6.0, **finite))
    @example(seed=5, mu=0.2, x=0.0, y=0.0, phi=math.pi / 4, windows=6.0)
    def test_poisson_field(self, seed, mu, x, y, phi, windows):
        fld = ScattererField(barrier_spec(mu=mu, seed=seed))
        s_max = windows * fld.march_window
        for k in range(FAN):
            ux = math.cos(phi + 2.0 * math.pi * k / FAN)
            uy = math.sin(phi + 2.0 * math.pi * k / FAN)
            want = brute_first_hit(box_centers(fld, x, y, ux, uy, s_max),
                                   x, y, ux, uy, fld.epsilon, s_max)
            assert _first_hit(fld, x, y, ux, uy, fld.epsilon, s_max) == want
