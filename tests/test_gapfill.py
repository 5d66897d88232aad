import math
import tracemalloc

import numpy as np
import pytest

from bridgefill import _kernels, gapfill
from bridgefill.errors import DomainError
from bridgefill.gapfill import estimate_gap_rog, fill_gap
from bridgefill.generators import AngularWalk, generate
from bridgefill.metrics import (
    observed_sums,
    radii_of_gyration,
    spliced_radii_of_gyration,
)
from bridgefill.seeding import make_rng
from bridgefill.trajectory import Trajectory, excise_gap

from .oracles import (
    bridge_paths_sequential,
    expected_rog_squared,
    gap_rogs_interleaved,
    loop_gap,
)


def _gapped(count, offset=(100.0, -50.0)):
    walk = np.cumsum(np.random.default_rng(4).standard_normal((60, 2)), axis=0)
    traj = Trajectory(np.arange(60.0), walk + offset)
    return excise_gap(traj, 10, count)


def _spliced_rogs(gapped, sigma, realisations, seed):
    # Redraw the estimator's noise from the same seed, build the fills with
    # the sequential oracle and splice each one in by hand.
    observed, split = gapped.observed, gapped.split
    shifted = gapped.missing_times - observed.times[split - 1]
    noise = np.random.default_rng(seed).standard_normal(
        (realisations, len(shifted), 2))
    fills = bridge_paths_sequential(observed.coords[split - 1],
                                    observed.coords[split], gapped.duration,
                                    sigma, shifted, noise)
    return [
        float(radii_of_gyration(np.concatenate(
            [observed.coords[:split], fill, observed.coords[split:]])))
        for fill in fills
    ]


class TestEstimateGapRog:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_single_realisation_is_spliced_rog(self, seed):
        gapped = _gapped(25)
        est = estimate_gap_rog(gapped, 1.3, 1, np.random.default_rng(seed))
        [rog] = _spliced_rogs(gapped, 1.3, 1, seed)
        assert est.mean == pytest.approx(rog, rel=1e-12)
        assert est.realisations == 1
        assert math.isnan(est.std_error)

    def test_needs_a_realisation(self):
        with pytest.raises(DomainError, match="realisations must be >= 1"):
            estimate_gap_rog(_gapped(25), 1.3, 0, 1)

    # Counts whose noise array numpy would refuse before allocating it.
    @pytest.mark.parametrize("realisations", [10**20, 2**62])
    def test_too_many_realisations_for_one_array(self, realisations):
        with pytest.raises(DomainError, match="too many for one float array"):
            estimate_gap_rog(_gapped(25), 1.3, realisations, 1)

    def test_realisations_match_spliced_rogs(self):
        gapped = _gapped(25)
        est = estimate_gap_rog(gapped, 1.3, 20, np.random.default_rng(9))
        rogs = np.array(_spliced_rogs(gapped, 1.3, 20, 9))
        assert est.mean == pytest.approx(rogs.mean(), rel=1e-12)
        assert est.std_error == pytest.approx(
            rogs.std(ddof=1) / math.sqrt(20), rel=1e-9)

    def test_empty_gap_is_observed_rog(self):
        gapped = _gapped(0)
        rng = np.random.default_rng(5)
        est = estimate_gap_rog(gapped, 1.3, 4, rng)
        assert est.mean == pytest.approx(
            radii_of_gyration(gapped.observed.coords), rel=1e-12)
        assert est.std_error == 0.0
        # nothing is drawn for an empty gap
        assert rng.random() == np.random.default_rng(5).random()

    def test_empty_gap_many_realisations_draws_nothing(self):
        gapped = _gapped(0)
        rng = np.random.default_rng(5)
        est = estimate_gap_rog(gapped, 1.3, 1000, rng)
        assert est.mean == pytest.approx(
            radii_of_gyration(gapped.observed.coords), rel=1e-12)
        assert est.std_error <= 1e-15 * est.mean
        assert est.realisations == 1000
        assert rng.random() == np.random.default_rng(5).random()

    @pytest.mark.parametrize("offset", [(100.0, -50.0), (1e6, 1e6)])
    def test_equals_interleaved_reference(self, offset):
        # Bit for bit the running sums of the (..., 2) layout over the same
        # fills, redrawn from the same seed.
        gapped = _gapped(25, offset)
        est = estimate_gap_rog(gapped, 1.3, 200, 7)
        observed, left = gapped.observed, gapped.split - 1
        noise = np.random.default_rng(7).standard_normal((200, 25, 2))
        fills = _kernels.bridge_paths(observed.coords[left], observed.coords[left + 1],
                                      gapped.duration, 1.3,
                                      gapped.missing_times - observed.times[left], noise)
        rogs = gap_rogs_interleaved(observed.coords, fills)
        mean = math.fsum(rogs) / 200
        assert est.mean == mean
        assert est.std_error == math.sqrt(math.fsum((rogs - mean) ** 2) / 199 / 200)

    # Blocks of b = 4 realisations of the 25-point gap: b - 1, b, b + 1 and
    # 2b + 1 realisations.
    @pytest.mark.parametrize("realisations, blocks",
                             [(3, [3]), (4, [4]), (5, [4, 1]), (9, [4, 4, 1])])
    def test_blocks_equal_one_array(self, monkeypatch, realisations, blocks):
        monkeypatch.setattr(gapfill, "_ROG_BLOCK_POINTS", 100)
        calls = []
        kernel = _kernels.bridge_paths
        monkeypatch.setattr(_kernels, "bridge_paths",
                            lambda *args: calls.append(len(args[-1])) or kernel(*args))
        gapped, rng = _gapped(25), np.random.default_rng(7)
        est = estimate_gap_rog(gapped, 1.3, realisations, rng)
        assert calls == blocks
        # the whole draw at once, scored in one call
        observed, left = gapped.observed, gapped.split - 1
        ref = np.random.default_rng(7)
        fills = kernel(observed.coords[left], observed.coords[left + 1], gapped.duration,
                       1.3, gapped.missing_times - observed.times[left],
                       ref.standard_normal((realisations, 25, 2)))
        rogs = spliced_radii_of_gyration(observed_sums(observed.coords), fills)
        mean = math.fsum(rogs) / realisations
        assert est.mean == mean
        assert est.std_error == math.sqrt(
            math.fsum((rogs - mean) ** 2) / (realisations - 1) / realisations)
        # and the blocks left the stream where one draw leaves it
        assert rng.random() == ref.random()

    def test_memory_does_not_grow_with_realisations(self):
        # 1000 bridges of a 1000-point gap, one (1000, 1000, 2) float array
        # of 16 MB if drawn at once. The 2 MB bound was fixed before the
        # first run.
        walk = np.cumsum(np.random.default_rng(4).standard_normal((3000, 2)), axis=0)
        gapped = excise_gap(Trajectory(np.arange(3000.0), walk), 1000, 1000)
        tracemalloc.start()
        try:
            estimate_gap_rog(gapped, 1.3, 1000, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6

    def test_translation_invariant(self):
        near = estimate_gap_rog(_gapped(25), 1.3, 200, 7)
        far = estimate_gap_rog(_gapped(25, (1e7, -1e7)), 1.3, 200, 7)
        assert far.mean == pytest.approx(near.mean, rel=1e-9)
        assert far.std_error == pytest.approx(near.std_error, rel=1e-9)


def _spliced(gapped, fills):
    """``gapped``'s observed points with each fill of ``fills`` (m, k, 2)
    spliced in; shape (m, n + k, 2)."""
    coords, split, k = gapped.observed.coords, gapped.split, fills.shape[1]
    out = np.empty((len(fills), len(coords) + k, 2))
    out[:, :split], out[:, split:split + k], out[:, split + k:] = (
        coords[:split], fills, coords[split:])
    return out


class TestExpectedRogSquared:
    @pytest.mark.parametrize("sigma", [0.3, 1.0, 3.0])
    def test_mean_over_spliced_bridges(self, sigma):
        # A 200-point gap in a 601-point angular walk. The threshold, 4
        # standard errors of 2000 realisations, was fixed before the first run.
        gapped = excise_gap(generate(AngularWalk(sigma=0.5), 600, 7), 200, 200)
        rng = np.random.default_rng(8)
        fills = np.stack([fill_gap(gapped, sigma, rng) for _ in range(2000)])
        squares = radii_of_gyration(_spliced(gapped, fills)) ** 2
        se = squares.std(ddof=1) / math.sqrt(len(squares))
        assert abs(squares.mean() - expected_rog_squared(gapped, sigma)) <= 4.0 * se

    @pytest.mark.parametrize("anchors", ["left", "loop"])
    def test_straight_line_is_exact(self, anchors):
        gapped = excise_gap(generate(AngularWalk(sigma=0.5), 600, 7), 200, 200)
        start = gapped.observed.coords[-1] if anchors == "loop" else None
        fill = fill_gap(loop_gap(gapped) if anchors == "loop" else gapped, 0.0, 0)
        rog = radii_of_gyration(_spliced(gapped, fill[None]))[0]
        assert rog ** 2 == pytest.approx(expected_rog_squared(gapped, 0.0, start),
                                         rel=1e-12)


def _on_line(start, end, gapped):
    left = gapped.observed.times[gapped.split - 1]
    frac = (gapped.missing_times - left) / gapped.duration
    return start + frac[:, None] * (end - start)


def _anchored(count, anchors):
    """``_gapped(count)``, or for ``anchors="loop"`` the gap the rog
    experiment fills in its place."""
    gapped = _gapped(count)
    return loop_gap(gapped) if anchors == "loop" else gapped


class TestFillGap:
    @pytest.mark.parametrize("sigma", [1.3, 0.0], ids=["bridge", "linear"])
    @pytest.mark.parametrize("anchors", ["gap", "loop"])
    @pytest.mark.parametrize("count", [0, 1, 25])
    def test_shape(self, sigma, anchors, count):
        fill = fill_gap(_anchored(count, anchors), sigma, 0)
        assert fill.shape == (count, 2)

    def test_linear_gap_lies_on_anchor_chord(self):
        # at sigma 0 the bridge is the straight line, whatever the seed
        gapped = _gapped(25)
        coords = gapped.observed.coords
        expected = _on_line(coords[9], coords[10], gapped)
        for seed in (0, 1):
            assert np.array_equal(fill_gap(gapped, 0.0, seed), expected)

    def test_linear_loop_runs_from_last_point_to_right_anchor(self):
        gapped = _gapped(25)
        fill = fill_gap(loop_gap(gapped), 0.0, 0)
        coords = gapped.observed.coords
        expected = _on_line(coords[-1], coords[10], gapped)
        assert np.array_equal(fill, expected)

    @pytest.mark.parametrize("anchors", ["gap", "loop"])
    def test_bridge_is_one_sample_between_the_same_anchors(self, anchors):
        gapped = _gapped(25)
        coords = gapped.observed.coords
        start = coords[-1] if anchors == "loop" else coords[9]
        shifted = gapped.missing_times - gapped.observed.times[9]
        noise = make_rng(8).standard_normal((1, 25, 2))
        [expected] = _kernels.bridge_paths(start, coords[10], gapped.duration, 1.3,
                                           shifted, noise)
        assert np.array_equal(
            fill_gap(_anchored(25, anchors), 1.3, 8), expected)
