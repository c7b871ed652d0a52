import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctbnlearn import (
    CompleteTrajectory,
    Evidence,
    ObservedTrajectory,
    OcclusionPolicy,
    Subsystem,
    is_completion,
    occlude,
    occlude_observed,
    validate_intensity,
)
from ctbnlearn.evidence import EmptySubsystemError
from ctbnlearn.evidence import _merge_observations
from ctbnlearn.markov import _TIME_EPS
from ctbnlearn.statespace import StateSpace
from helpers import subsystem_segments
from helpers import merge_observations_loop


class TestSubsystem:
    def test_rejects_empty(self):
        with pytest.raises(EmptySubsystemError):
            Subsystem.of(3, ())

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Subsystem.of(2, (0, 2))

    def test_mask(self):
        s = Subsystem.of(4, (0, 2))
        assert s.mask.tolist() == [True, False, True, False]


class TestEvidence:
    def test_requires_coverage(self):
        s = Subsystem.full(2)
        with pytest.raises(ValueError):
            Evidence(((s, 0.0, 1.0), (s, 1.5, 2.0)), 2.0)
        with pytest.raises(ValueError):
            Evidence(((s, 0.0, 1.0),), 2.0)

    def test_point_segments_allowed(self):
        s = Subsystem.full(2)
        p = Subsystem.single(2, 0)
        ev = Evidence(((s, 0.0, 1.0), (p, 1.0, 1.0), (s, 1.0, 2.0)), 2.0)
        assert ev.durations.tolist() == [1.0, 0.0, 1.0]


def example_product_trajectories():
    """The running 4-state product example: sigma+ starts in <y1,z2>,
    moves to <y2,z2> at 0.5 and to <y2,z1> at 1.7, over [0, 2]."""
    sigma_plus = CompleteTrajectory(((1, 0.0, 0.5), (3, 0.5, 1.7), (2, 1.7, 2.0)), 2.0)
    z2 = Subsystem.of(4, (1, 3))
    z1 = Subsystem.of(4, (0, 2))
    full = Subsystem.full(4)
    sigma = Evidence(((z2, 0.0, 1.7), (z1, 1.7, 2.0)), 2.0)
    sigma_prime = Evidence(
        (
            (full, 0.0, 0.7),
            (z2, 0.7, 0.7),
            (full, 0.7, 1.8),
            (z1, 1.8, 1.8),
            (full, 1.8, 2.0),
        ),
        2.0,
    )
    return sigma_plus, sigma, sigma_prime


class TestCompletion:
    def test_observed_trajectory_completes_interval_evidence(self):
        sigma_plus, sigma, _ = example_product_trajectories()
        assert is_completion(sigma_plus, sigma)

    def test_observed_trajectory_completes_point_evidence(self):
        sigma_plus, _, sigma_prime = example_product_trajectories()
        assert is_completion(sigma_plus, sigma_prime)

    def test_alternate_completion(self):
        _, sigma, _ = example_product_trajectories()
        other = CompleteTrajectory(((3, 0.0, 1.0), (1, 1.0, 1.7), (0, 1.7, 2.0)), 2.0)
        assert is_completion(other, sigma)

    def test_wrong_subsystem_rejected(self):
        _, sigma, _ = example_product_trajectories()
        # Stays in <y1,z1> early on, but sigma requires z2 there.
        bad = CompleteTrajectory(((0, 0.0, 1.7), (1, 1.7, 2.0)), 2.0)
        assert not is_completion(bad, sigma)

    def test_point_violation_rejected(self):
        _, _, sigma_prime = example_product_trajectories()
        bad = CompleteTrajectory(((0, 0.0, 2.0),), 2.0)
        assert not is_completion(bad, sigma_prime)

    def test_horizon_mismatch(self):
        traj = CompleteTrajectory(((0, 0.0, 1.0),), 1.0)
        ev = Evidence(((Subsystem.full(2), 0.0, 2.0),), 2.0)
        with pytest.raises(ValueError):
            is_completion(traj, ev)

    def test_horizon_within_the_time_tolerance(self):
        # The evidence ends 5e-10 after the trajectory, within the time
        # tolerance at horizon 1000 (1e-9); its point evidence at its own
        # horizon reads the trajectory's last state there.
        traj = CompleteTrajectory(((0, 0.0, 400.0), (1, 400.0, 1000.0)), 1000.0)
        end = 1000.0 + 5e-10
        ev = Evidence(((Subsystem.full(2), 0.0, end), (Subsystem.single(2, 1), end, end)), end)
        assert is_completion(traj, ev)
        assert traj.state_at(end, side="left") == 1
        with pytest.raises(ValueError, match="outside"):
            traj.state_at(1000.0 + 2e-9)


def two_variable_space():
    return StateSpace(("y", "z"), (2, 2), ((1, 1), (1, 1)))


def sample_pair(seed, tau=5.0):
    rng = np.random.default_rng(seed)
    qy = validate_intensity([[-1.0, 1.0], [2.0, -2.0]])
    qz = validate_intensity([[-0.7, 0.7], [1.3, -1.3]])
    from ctbnlearn import sample_trajectory

    return [
        sample_trajectory([0.5, 0.5], qy, tau, rng),
        sample_trajectory([0.5, 0.5], qz, tau, rng),
    ]


class TestOcclusion:
    def test_policy_validation(self):
        with pytest.raises(ValueError):
            OcclusionPolicy(1.0, 0.25)
        with pytest.raises(ValueError):
            OcclusionPolicy(0.25, 0.0)

    def test_zero_fraction_is_full_observation(self):
        space = two_variable_space()
        trajs = sample_pair(0)
        ev = occlude(trajs, space, OcclusionPolicy(0.0, 0.25), seed=1)
        for sub, a, b in ev.segments:
            assert len(sub.members) == 1

    def test_hidden_measure_is_bounded(self):
        # fraction 0.25 at tau=5 with 0.25-long windows: each variable loses
        # at least 1.25 and overshoots by less than one window.
        trajs = sample_pair(3)
        for seed in range(8):
            obs = occlude_observed(trajs, OcclusionPolicy(0.25, 0.25), seed)
            for v in range(2):
                hidden = sum(b - a for a, b, vals in obs.segments if vals[v] is None)
                assert 1.25 - 1e-9 <= hidden < 1.5

    def test_same_seed_is_deterministic(self):
        space = two_variable_space()
        trajs = sample_pair(5)
        a = occlude(trajs, space, OcclusionPolicy(0.25, 0.25), seed=42)
        b = occlude(trajs, space, OcclusionPolicy(0.25, 0.25), seed=42)
        assert a.segments == b.segments

    def test_occluded_evidence_admits_truth(self):
        space = two_variable_space()
        trajs = sample_pair(7)
        ev = occlude(trajs, space, OcclusionPolicy(0.3, 0.25), seed=9)
        joint_segments = []
        cuts = sorted({a for t in trajs for _, a, _ in t.segments} | {5.0})
        for a, b in zip(cuts, cuts[1:]):
            mid = 0.5 * (a + b)
            j = 2 * trajs[0].state_at(mid) + trajs[1].state_at(mid)
            if joint_segments and joint_segments[-1][0] == j:
                joint_segments[-1] = (j, joint_segments[-1][1], b)
            else:
                joint_segments.append((j, a, b))
        truth = CompleteTrajectory(tuple(joint_segments), 5.0)
        assert is_completion(truth, ev)

    def test_adjacent_equal_subsystems_merge(self):
        space = two_variable_space()
        obs = ObservedTrajectory(
            ((0.0, 1.0, (0, 0)), (1.0, 2.0, (0, 0)), (2.0, 3.0, (0, None))),
            3.0,
        )
        ev = obs.to_evidence(space)
        assert ev.n_segments == 2
        assert ev.segments[0][2] == 2.0


@st.composite
def records_on_spaces(draw):
    """A state space of 1-3 binary, 3-state or phase-expanded binary
    variables and a record on it with hidden values, repeated neighbours
    (which merge), zero-length segments and starts up to 5e-13 past the
    previous end."""
    kind = draw(st.sampled_from(["binary", "ternary", "phase"]))
    k = draw(st.integers(1, 3))
    card = 3 if kind == "ternary" else 2
    phases = [tuple(draw(st.integers(1, 3)) if kind == "phase" else 1 for _ in range(card)) for _ in range(k)]
    space = StateSpace(tuple(f"v{i}" for i in range(k)), (card,) * k, tuple(phases))
    value = st.one_of(st.none(), st.integers(0, card - 1))
    rows = []
    for _ in range(draw(st.integers(1, 8))):
        repeat = rows and draw(st.booleans())
        rows.append(rows[-1] if repeat else tuple(draw(value) for _ in range(k)))
    lengths = [draw(st.sampled_from([0.0, 0.25, 0.5, 1.3])) for _ in rows]
    segments, t = [], 0.0
    for i, (vals, length) in enumerate(zip(rows, lengths)):
        a = t + (draw(st.sampled_from([0.0, 5e-13])) if i else 0.0)
        t = a + length
        segments.append((a, t, vals))
    return space, ObservedTrajectory(tuple(segments), t)


class TestArrayLowering:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(records_on_spaces())
    def test_equals_per_segment_subsystems(self, case):
        space, record = case
        ev = record.to_evidence(space)
        segs = subsystem_segments(record, space)
        want = {
            "states": np.concatenate([sorted(sub.members) for sub, _, _ in segs]),
            "sizes": np.array([len(sub.members) for sub, _, _ in segs]),
            "masks": np.stack([sub.mask for sub, _, _ in segs]),
            "durations": np.clip(np.array([b - a for _, a, b in segs]), 0.0, None),
            "boundaries": np.array([segs[0][1]] + [b for _, _, b in segs]),
        }
        for name, expect in want.items():
            got = getattr(ev, name)
            assert got.dtype == expect.dtype and got.shape == expect.shape, name
            assert got.tobytes() == expect.tobytes(), name
            assert not got.flags.writeable, name
        assert ev.n == space.n_joint and ev.n_segments == len(segs)
        assert ev.segments == segs
        oracle = Evidence(segs, record.horizon)
        assert ev == oracle and hash(ev) == hash(oracle)

    def test_rejects_bad_observations(self):
        space = two_variable_space()
        for vals in ((0, 2), (-1, 0), (0,), (0, 0, 0)):
            with pytest.raises(ValueError):
                ObservedTrajectory(((0.0, 1.0, vals),), 1.0).to_evidence(space)

    def test_is_immutable(self):
        ev = ObservedTrajectory(((0.0, 1.0, (0, None)),), 1.0).to_evidence(two_variable_space())
        with pytest.raises(AttributeError):
            ev.horizon = 2.0


@st.composite
def trajectories_and_windows(draw):
    """1-3 complete trajectories on one horizon and hidden windows for each.
    Every jump and window end lies near a shared pool of times, offset by
    0 to 1.6 time tolerances either way, so cuts coincide, touch, or fall
    within or just beyond the tolerance of each other. Windows overlap,
    touch, start before 0, run past the horizon or are empty; each meets
    (0, horizon)."""
    horizon = draw(st.sampled_from([0.5, 1.0, 5.0, 250.0]))
    tol = _TIME_EPS * max(1.0, horizon)
    pool = draw(st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=5))

    def near():
        offset = draw(st.sampled_from([0.0, 0.0, 0.0, 0.4, -0.4, 1.0, -1.0, 1.6, -1.6]))
        return draw(st.sampled_from(pool)) * horizon + offset * tol

    trajs, hidden = [], []
    for _ in range(draw(st.integers(1, 3))):
        jumps = sorted({t for t in (near() for _ in range(draw(st.integers(0, 5)))) if 0.0 < t < horizon})
        card = draw(st.integers(2, 3))
        state = draw(st.integers(0, card - 1))
        segments = []
        for a, b in zip([0.0, *jumps], [*jumps, horizon]):
            segments.append((state, a, b))
            state = (state + draw(st.integers(1, card - 1))) % card
        trajs.append(CompleteTrajectory(tuple(segments), horizon))
        windows = []
        for _ in range(draw(st.integers(0, 4))):
            a, b = sorted((near(), near() + draw(st.sampled_from([0.0, 0.0, 0.3, 1.0])) * horizon))
            if a < horizon and b > 0.0:
                windows.append((a, b))
        hidden.append(windows)
    return trajs, hidden


def merge_outcome(merge, trajs, hidden):
    """The merged segments, or the message of the ValueError raised."""
    try:
        return merge(trajs, hidden).segments
    except ValueError as exc:
        return f"ValueError: {exc}"


class TestMergeObservations:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(trajectories_and_windows())
    def test_equals_per_cut_loop(self, case):
        # Valid trajectories and windows always merge; the outcome is never
        # an error.
        trajs, hidden = case
        got = merge_outcome(_merge_observations, trajs, hidden)
        assert not isinstance(got, str), got
        assert got == merge_outcome(merge_observations_loop, trajs, hidden)
        visible = [[] for _ in trajs]
        got = merge_outcome(lambda t, _: ObservedTrajectory.fully_observed(t), trajs, visible)
        assert not isinstance(got, str), got
        assert got == merge_outcome(merge_observations_loop, trajs, visible)

    def test_dropped_pieces_leave_no_hole(self):
        # Jumps 0.8e-12 apart, each within the time tolerance of the next:
        # the two pieces between them are dropped and the segment before
        # them runs on to the one after.
        jumps = (0.5, 0.5 + 0.8e-12, 0.5 + 1.6e-12)
        trajs = [CompleteTrajectory(((0, 0.0, t), (1, t, 1.0)), 1.0) for t in jumps]
        want = ((0.0, jumps[2], (0, 0, 0)), (jumps[2], 1.0, (1, 1, 1)))
        assert ObservedTrajectory.fully_observed(trajs).segments == want
        assert merge_observations_loop(trajs, [[], [], []]).segments == want
