import numpy as np
import pytest

from ctbnlearn.markov import (
    CompleteTrajectory,
    IntensityMatrix,
    NegativeOffDiagonalError,
    NonSquareError,
    RowSumViolationError,
    expm,
    matrix_exponential,
    sample_trajectories,
    sample_trajectory,
    transient_distribution,
    validate_distribution,
    validate_intensity,
)
from ctbnlearn import PhaseSpec, amalgamate, expand_phases
from helpers import binary_chain_model, choice_sample_trajectory, random_proper, taylor_expm


class TestValidation:
    def test_proper_accepted(self):
        q = validate_intensity([[-1, 1], [2, -2]], "proper")
        assert q.n == 2
        assert q.kind == "proper"

    def test_restricted_row_leak_accepted(self):
        q = validate_intensity([[-1, 0], [0, 0]], "restricted")
        assert q.entries[0, 0] == -1.0

    def test_proper_row_sum_violation(self):
        with pytest.raises(RowSumViolationError) as err:
            validate_intensity([[-1, 2], [2, -2]], "proper")
        assert err.value.row == 0

    def test_restricted_rejects_positive_row_sum(self):
        with pytest.raises(RowSumViolationError):
            validate_intensity([[-1, 2], [0, 0]], "restricted")

    def test_negative_off_diagonal(self):
        with pytest.raises(NegativeOffDiagonalError) as err:
            validate_intensity([[1, -1], [1, -1]], "proper")
        assert (err.value.row, err.value.col) == (0, 1)

    def test_non_square(self):
        with pytest.raises(NonSquareError):
            validate_intensity([[1, 2, 3]], "proper")

    def test_entries_immutable(self):
        q = validate_intensity([[-1, 1], [2, -2]])
        with pytest.raises(ValueError):
            q.entries[0, 0] = 5.0

    def test_distribution_validation(self):
        p = validate_distribution([0.25, 0.75])
        assert p.sum() == 1.0
        with pytest.raises(ValueError):
            validate_distribution([0.5, 0.6])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_distribution_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            validate_distribution([bad, 0.5])


class TestMatrixExponential:
    def test_zero_matrix_is_identity(self):
        q = validate_intensity(np.zeros((2, 2)), "proper")
        assert np.array_equal(matrix_exponential(q, 7.3), np.eye(2))

    def test_scalar_decay(self):
        q = validate_intensity([[-1.0]], "restricted")
        assert matrix_exponential(q, 1.0)[0, 0] == pytest.approx(0.3678794412, abs=1e-10)

    def test_symmetric_two_state_closed_form(self):
        # exp(Q t) = [[(1 + e^{-2t})/2, (1 - e^{-2t})/2], ...] at t = ln 2.
        q = validate_intensity([[-1, 1], [1, -1]])
        e = matrix_exponential(q, np.log(2))
        assert np.allclose(e, [[0.625, 0.375], [0.375, 0.625]], atol=1e-12)
        assert np.allclose(e, taylor_expm(q.entries * np.log(2)), atol=1e-12)

    def test_rejects_negative_time(self):
        q = validate_intensity([[-1, 1], [1, -1]])
        with pytest.raises(ValueError):
            matrix_exponential(q, -0.1)

    def test_row_stochastic_and_nonnegative(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            q = random_proper(rng, n)
            e = expm(q * rng.uniform(0, 5))
            assert np.abs(e.sum(axis=1) - 1.0).max() < 1e-9
            assert e.min() > -1e-12

    def test_restricted_substochastic(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = int(rng.integers(2, 5))
            q = random_proper(rng, n)
            q = q.copy()
            q[0, 0] -= rng.uniform(0.1, 2.0)
            e = expm(q * rng.uniform(0, 3))
            assert e.min() > -1e-12
            assert e.max() < 1.0 + 1e-12
            assert (e.sum(axis=1) < 1.0 + 1e-9).all()

    def test_semigroup_property(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            n = int(rng.integers(2, 5))
            q = random_proper(rng, n)
            s, t = rng.uniform(0, 10, 2)
            left = expm(q * s) @ expm(q * t)
            assert np.abs(left - expm(q * (s + t))).max() < 1e-8

    def test_matches_taylor_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            q = random_proper(rng, 4)
            t = rng.uniform(0, 2)
            assert np.abs(expm(q * t) - taylor_expm(q * t)).max() < 1e-11

    def test_batched_matches_single(self):
        rng = np.random.default_rng(4)
        mats = np.stack([random_proper(rng, 3) * rng.uniform(0.1, 3) for _ in range(5)])
        batched = expm(mats)
        for i in range(5):
            assert np.abs(batched[i] - expm(mats[i])).max() < 1e-12

    def test_each_stacked_matrix_takes_its_own_squarings(self):
        # A stack mixing norms a hundredfold apart, zero matrices included:
        # every element equals its lone exponential bitwise.
        rng = np.random.default_rng(5)
        q = random_proper(rng, 8, 0.1, 2.0)
        mats = np.stack([q * 0.1, q * 10.0, np.zeros((8, 8)), q * 0.5, q * 40.0])
        batched = expm(mats.reshape(5, 1, 8, 8))
        assert batched.shape == (5, 1, 8, 8)
        for i in range(5):
            assert batched[i, 0].tobytes() == expm(mats[i]).tobytes()
        assert np.array_equal(batched[2, 0], np.eye(8))


class TestTransient:
    def test_zero_time_returns_p0(self):
        q = validate_intensity([[-1, 1], [1, -1]])
        p0 = [0.3, 0.7]
        assert np.allclose(transient_distribution(p0, q, 0.0), p0, atol=1e-14)

    def test_symmetric_stationary_limit(self):
        q = validate_intensity([[-1, 1], [1, -1]])
        p = transient_distribution([1, 0], q, 50.0)
        assert np.abs(p - 0.5).max() < 1e-9

    def test_closed_form_at_ln2(self):
        q = validate_intensity([[-1, 1], [1, -1]])
        p = transient_distribution([1, 0], q, np.log(2))
        assert np.allclose(p, [0.625, 0.375], atol=1e-12)

    def test_convergence_is_monotone(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            q = validate_intensity(random_proper(rng, 4))
            p0 = rng.dirichlet(np.ones(4))
            gaps = []
            for t in range(0, 12):
                a = transient_distribution(p0, q, float(t))
                b = transient_distribution(p0, q, float(t) + 1.0)
                gaps.append(np.abs(b - a).max())
            assert all(g2 <= g1 + 1e-12 for g1, g2 in zip(gaps, gaps[1:]))


class TestSampling:
    def test_absorbing_state_never_leaves(self):
        q = validate_intensity([[0.0, 0.0], [1.0, -1.0]])
        traj = sample_trajectory([1, 0], q, 4.0, seed=0)
        assert traj.segments == ((0, 0.0, 4.0),)

    def test_seed_reproducible(self):
        q = validate_intensity([[-2, 2], [1, -1]])
        a = sample_trajectory([0.5, 0.5], q, 10.0, seed=123)
        b = sample_trajectory([0.5, 0.5], q, 10.0, seed=123)
        assert a.segments == b.segments

    def test_mean_dwell_matches_rate(self):
        # Completed dwells in state 0 are Exp(2); check the sample mean.
        q = validate_intensity([[-2, 2], [1, -1]])
        dwells = []
        for traj in sample_trajectories([1, 0], q, 200.0, 800, seed=7):
            for s, a, b in traj.segments[:-1]:
                if s == 0:
                    dwells.append(b - a)
        dwells = np.array(dwells)
        assert len(dwells) > 1e5
        assert abs(dwells.mean() - 0.5) < 0.01

    def test_successor_frequencies_match_split(self):
        q = validate_intensity([[-4.0, 3.0, 1.0], [1.0, -1.0, 0.0], [1.0, 0.0, -1.0]])
        from_zero = np.zeros(3)
        for traj in sample_trajectories([1, 0, 0], q, 200.0, 700, seed=11):
            for (s, _, _), (s2, _, _) in zip(traj.segments, traj.segments[1:]):
                if s == 0:
                    from_zero[s2] += 1
        total = from_zero.sum()
        assert total > 1e5
        assert abs(from_zero[1] / total - 0.75) < 0.75 * 0.02
        assert abs(from_zero[2] / total - 0.25) < 0.25 * 0.02

    @pytest.mark.parametrize("phases", [None, PhaseSpec({"a": 3, "c": 2}, topology="chain")], ids=["chain", "phase"])
    def test_stream_equals_choice_reference(self, phases):
        # Successors drawn from cached CDFs must use the random stream as
        # Generator.choice does, so seeded data stays the same.
        model = binary_chain_model()
        if phases is not None:
            model, _ = expand_phases(model, phases)
        q, _, p0 = amalgamate(model)
        for seed in range(200):
            got = sample_trajectory(p0, q, 5.0, seed)
            assert got.segments == choice_sample_trajectory(p0, q.entries, 5.0, seed)

    def test_trajectory_invariants(self):
        q = validate_intensity([[-2, 2], [1, -1]])
        traj = sample_trajectory([0.5, 0.5], q, 5.0, seed=9)
        assert traj.segments[0][1] == 0.0
        assert traj.segments[-1][2] == 5.0
        for (s1, _, e1), (s2, b2, _) in zip(traj.segments, traj.segments[1:]):
            assert s1 != s2 and e1 == b2
        assert traj.dwell_times(2).sum() == pytest.approx(5.0, abs=1e-12)

    def test_trajectory_validation(self):
        with pytest.raises(ValueError):
            CompleteTrajectory(((0, 0.0, 1.0), (0, 1.0, 2.0)), 2.0)
        with pytest.raises(ValueError):
            CompleteTrajectory(((0, 0.5, 1.0),), 1.0)
