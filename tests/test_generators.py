import math

import numpy as np
import pytest
from scipy import stats

from bridgefill.errors import InvalidSpecError
from bridgefill.generators import (
    AngularWalk,
    DiscreteBrownian,
    FixedVelocity,
    InternalStateWalk,
    RunTumble,
    _MOVING_PROBS,
    _STATIONARY_PROBS,
    generate,
    generate_many,
    spec_from_dict,
    spec_to_dict,
)
from bridgefill.metrics import path_lengths
from bridgefill import _kernels
from bridgefill.seeding import child_seed, make_rng

from .oracles import internal_state_loop

ALL_SPECS = [
    DiscreteBrownian(sigma=0.5),
    DiscreteBrownian(sigma=1.0, target_x=10.0, target_y=0.0),
    FixedVelocity(v=2.0),
    AngularWalk(sigma=0.3, v=1.0),
    InternalStateWalk(uniformity=0.4, step=0.5),
    RunTumble(l=1.0, v=1.0),
]


class TestGenerateBasics:
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: type(s).__name__)
    def test_shape_times_origin(self, spec):
        traj = generate(spec, 37, 123)
        assert len(traj) == 38
        assert np.array_equal(traj.times, np.arange(38.0))
        assert np.array_equal(traj.coords[0], [0.0, 0.0])

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: type(s).__name__)
    def test_deterministic(self, spec):
        a = generate(spec, 50, 99)
        b = generate(spec, 50, 99)
        c = generate(spec, 50, 100)
        assert np.array_equal(a.coords, b.coords)
        assert not np.array_equal(a.coords, c.coords)

    def test_steps_validation(self):
        with pytest.raises(InvalidSpecError):
            generate(FixedVelocity(), 0, 1)


class TestGenerateMany:
    @pytest.mark.parametrize("m", [1, 5])
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: type(s).__name__)
    def test_rows_equal_single_paths(self, spec, m):
        seeds = [child_seed(17, i) for i in range(m)]
        batch = generate_many([spec] * m, 60, seeds)
        assert batch.shape == (m, 61, 2)
        for row, seed in zip(batch, seeds):
            assert np.array_equal(row, generate(spec, 60, seed).coords)

    def test_mixed_models_equal_single_paths(self):
        # Every model in one call, interleaved, with pinned and free
        # discrete-brownian rows and two parameter values per model.
        others = [DiscreteBrownian(sigma=3.0, target_x=-2.0, target_y=5.0),
                  FixedVelocity(v=0.5), AngularWalk(sigma=2.0, v=0.5),
                  InternalStateWalk(uniformity=1.0, step=2.0), RunTumble(l=0.1, v=3.0)]
        specs = [*ALL_SPECS, *others, *ALL_SPECS[::-1]]
        seeds = [child_seed(23, i) for i in range(len(specs))]
        batch = generate_many(specs, 60, seeds)
        assert batch.shape == (len(specs), 61, 2)
        for row, spec, seed in zip(batch, specs, seeds):
            assert np.array_equal(row, generate(spec, 60, seed).coords), spec

    @pytest.mark.parametrize("n_specs", [1, 3])
    def test_one_spec_per_seed(self, n_specs):
        with pytest.raises(ValueError):
            generate_many([FixedVelocity()] * n_specs, 5, [1, 2])

    def test_unknown_spec_rejected(self):
        with pytest.raises(InvalidSpecError, match="unknown model spec"):
            generate_many([FixedVelocity(), "fixed-velocity"], 5, [1, 2])

    def test_steps_validation(self):
        with pytest.raises(InvalidSpecError):
            generate_many([FixedVelocity()], 2.5, [1])

    @pytest.mark.parametrize("steps", [2 ** 62, 10 ** 30], ids=["2**62", "10**30"])
    def test_steps_beyond_an_array_rejected(self, steps):
        # checked before anything is allocated
        with pytest.raises(InvalidSpecError, match="too many for one float array"):
            generate_many([FixedVelocity()], steps, [1])

    def test_needs_a_seed(self):
        with pytest.raises(InvalidSpecError, match="at least one seed"):
            generate_many([], 5, [])


class TestInternalStateWalker:
    @pytest.mark.parametrize("uniformity", [0.0, 0.33, 0.66, 1.0])
    def test_closed_form_matches_loop(self, uniformity):
        # 4 x 300 seeds, drawn as the generator draws them.
        stationary = (1.0 - uniformity) * _STATIONARY_PROBS + uniformity / 2
        c = np.cumsum((1.0 - uniformity) * _MOVING_PROBS + uniformity / 5)
        draws = []
        for seed in range(300):
            rng = make_rng(child_seed(5, seed))
            draws.append((int(rng.random() * 4.0), rng.random(199), rng.random(199)))
        heading0, action_u, dir_u = (np.array(d) for d in zip(*draws))
        got = _kernels.internal_state_positions(
            heading0, 0.7, *c[:4], stationary[0], action_u, dir_u)
        for i in range(len(draws)):
            expected = internal_state_loop(heading0[i], 0.7, *c[:4], stationary[0],
                                           action_u[i], dir_u[i])
            assert np.array_equal(got[i], expected), i


class TestFixedVelocity:
    def test_step_norms_are_exactly_v(self):
        traj = generate(FixedVelocity(v=1.5), 200, 5)
        norms = np.hypot(*np.diff(traj.coords, axis=0).T)
        assert norms == pytest.approx(np.full(200, 1.5), rel=1e-12)


class TestAngularWalk:
    def test_zero_noise_is_straight(self):
        traj = generate(AngularWalk(sigma=0.0, v=1.0), 10, 3)
        assert len(traj) == 11
        assert path_lengths(traj.coords) == pytest.approx(10.0, rel=1e-12)
        chord = np.hypot(*(traj.coords[-1] - traj.coords[0]))
        assert chord == pytest.approx(10.0, rel=1e-12)

    def test_large_noise_approaches_fixed_velocity(self):
        # net displacements over 1000 steps should be statistically
        # indistinguishable between a very noisy angular walk and the
        # fixed-velocity walk
        n_walks = 250
        wild = [
            np.hypot(*generate(AngularWalk(sigma=50.0), 1000,
                               child_seed(1, i)).coords[-1])
            for i in range(n_walks)
        ]
        fixed = [
            np.hypot(*generate(FixedVelocity(), 1000,
                               child_seed(2, i)).coords[-1])
            for i in range(n_walks)
        ]
        assert stats.ks_2samp(wild, fixed).pvalue > 1e-3


class TestRunTumble:
    @staticmethod
    def _change_frequency(traj):
        # reconstructing headings from positions picks up last-ulp noise, so
        # only angle jumps above a tolerance count as tumbles
        steps = np.diff(traj.coords, axis=0)
        angles = np.arctan2(steps[:, 1], steps[:, 0])
        return np.mean(np.abs(np.diff(angles)) > 1e-9)

    def test_direction_change_frequency(self):
        traj = generate(RunTumble(l=1.0), 100_000, 42)
        assert self._change_frequency(traj) == pytest.approx(
            1.0 - math.exp(-1.0), abs=0.01
        )

    def test_small_rate_rarely_turns(self):
        traj = generate(RunTumble(l=0.01), 10_000, 7)
        assert self._change_frequency(traj) == pytest.approx(
            1.0 - math.exp(-0.01), abs=0.005
        )

    def test_rate_must_be_positive(self):
        with pytest.raises(InvalidSpecError):
            RunTumble(l=0.0)


class TestDiscreteBrownian:
    def test_pinned_target_is_exact(self):
        spec = DiscreteBrownian(sigma=1.0, target_x=10.0, target_y=0.0)
        for seed in range(5):
            traj = generate(spec, 200, seed)
            assert np.array_equal(traj.coords[-1], [10.0, 0.0])

    def test_increments_around_trend(self):
        # per-step increments about the linear trend are Gaussian with the
        # requested scale (up to the 1/n bridge correction)
        sigma, steps = 0.7, 10_000
        traj = generate(DiscreteBrownian(sigma=sigma, target_x=10.0, target_y=0.0),
                        steps, 11)
        trend = np.array([10.0, 0.0]) / steps
        residuals = np.diff(traj.coords, axis=0) - trend
        pooled = residuals.ravel()
        assert pooled.std(ddof=1) == pytest.approx(sigma, rel=0.03)
        assert stats.kstest(pooled / sigma, "norm").pvalue > 1e-3

    def test_free_walk_increment_scale(self):
        traj = generate(DiscreteBrownian(sigma=2.0), 10_000, 3)
        incr = np.diff(traj.coords, axis=0).ravel()
        assert incr.std(ddof=1) == pytest.approx(2.0, rel=0.03)


class TestInternalState:
    def test_positions_stay_on_grid(self):
        for step in [1.0, 0.5, 0.3]:
            traj = generate(InternalStateWalk(uniformity=0.2, step=step), 500, 9)
            cells = traj.coords / step
            assert np.allclose(cells, np.round(cells), atol=1e-9)

    def test_includes_pauses_and_moves(self):
        traj = generate(InternalStateWalk(), 2000, 21)
        steps = np.hypot(*np.diff(traj.coords, axis=0).T)
        assert (steps == 0).any()
        assert (steps > 0).any()

    def test_default_table(self):
        keep, left, right, reverse, stop = _MOVING_PROBS
        assert list(_MOVING_PROBS) == [0.85, 0.06, 0.06, 0.01, 0.02]
        assert list(_STATIONARY_PROBS) == [0.95, 0.05]
        assert keep + left + right + reverse + stop == 1.0
        assert _STATIONARY_PROBS.sum() == 1.0
        assert reverse < left == right < keep

    def test_uniform_blend_extremes(self, monkeypatch):
        # The cumulative moving cuts and the stay-stopped probability the
        # generator hands to the kernel.
        seen = []
        kernel = _kernels.internal_state_positions

        def spy(heading0, step, c0, c1, c2, c3, stay, *rest):
            # one (1, 1) column per threshold for the one row
            seen.append(([c.item() for c in (c0, c1, c2, c3)], stay.item()))
            return kernel(heading0, step, c0, c1, c2, c3, stay, *rest)

        monkeypatch.setattr(_kernels, "internal_state_positions", spy)
        generate(InternalStateWalk(uniformity=1.0), 10, 1)
        generate(InternalStateWalk(uniformity=0.0), 10, 1)
        (cuts1, stay1), (cuts0, stay0) = seen
        assert cuts1 == pytest.approx([0.2, 0.4, 0.6, 0.8])
        assert stay1 == pytest.approx(0.5)
        assert cuts0 == pytest.approx(np.cumsum([0.85, 0.06, 0.06, 0.01]))
        assert stay0 == pytest.approx(0.95)

    def test_table_validation(self):
        with pytest.raises(InvalidSpecError):
            InternalStateWalk(uniformity=1.5)


class TestSerialisation:
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: type(s).__name__)
    def test_round_trip(self, spec):
        assert spec_from_dict(spec_to_dict(spec)) == spec

    def test_unknown_model(self):
        with pytest.raises(InvalidSpecError):
            spec_from_dict({"model": "levy-flight"})

    def test_unknown_parameter(self):
        with pytest.raises(InvalidSpecError):
            spec_from_dict({"model": "fixed-velocity", "speed": 1.0})

    def test_aliases(self):
        # One key per value: the former aliases ``rate`` and ``s`` are
        # unknown parameters.
        assert spec_from_dict({"model": "run-tumble", "l": 2.0}) == RunTumble(l=2.0)
        for data in ({"model": "run-tumble", "l": 1.0, "rate": 2.0},
                     {"model": "internal-state", "uniformity": 0.1, "s": 0.9}):
            with pytest.raises(InvalidSpecError, match="unknown parameter"):
                spec_from_dict(data)

    def test_integer_parameters_become_floats(self):
        spec = spec_from_dict({"model": "discrete-brownian", "sigma": 2,
                               "target_x": 3, "target_y": -1})
        params = spec_to_dict(spec)
        assert params.pop("model") == "discrete-brownian"
        assert params == {"sigma": 2.0, "target_x": 3.0, "target_y": -1.0}
        assert {type(v) for v in params.values()} == {float}

    def test_half_target_rejected(self):
        with pytest.raises(InvalidSpecError):
            spec_from_dict({"model": "discrete-brownian", "sigma": 1.0,
                            "target_x": 10.0})
        with pytest.raises(InvalidSpecError, match="together"):
            DiscreteBrownian(target_y=1.0)
        with pytest.raises(InvalidSpecError, match="finite"):
            DiscreteBrownian(target_x=math.inf, target_y=0.0)

    def test_run_tumble_requires_rate(self):
        with pytest.raises(InvalidSpecError, match="run-tumble requires parameter l"):
            spec_from_dict({"model": "run-tumble"})
