import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctbnlearn import (
    Cim,
    CtbnModel,
    EmConfig,
    Evidence,
    ForwardBackwardMismatchError,
    ObservedTrajectory,
    OcclusionPolicy,
    PhaseSpec,
    StepUnderflowError,
    Subsystem,
    Variable,
    ZeroProbabilityEvidenceError,
    amalgamate,
    convolution_integrals,
    e_step,
    expand_phases,
    expected_dwell,
    expected_statistics,
    expected_transitions,
    forward_backward,
    occlude_observed,
    sample_trajectory,
    smoothed_marginal,
    transient_distribution,
    score_dataset,
    validate_intensity,
)
from ctbnlearn import inference
from ctbnlearn.inference import _convolution_batch, _forward_backward_many, expected_statistics_many
from helpers import (
    binary_ring_model,
    chain_oracle,
    independent_binary_model,
    observed_evidence,
    random_distribution,
    random_evidence,
    random_proper,
    rel_err,
    taylor_expm,
    taylor_log_prob,
    trapezoid_convolution,
)


def symmetric_two_state():
    return validate_intensity([[-1.0, 1.0], [1.0, -1.0]])


class TestForwardBackward:
    def test_vacuous_evidence(self):
        q = validate_intensity([[-1, 1], [2, -2]])
        p0 = np.array([0.3, 0.7])
        ev = Evidence.vacuous(2, 3.0)
        cache = forward_backward(q, p0, ev)
        assert cache.log_prob == pytest.approx(0.0, abs=1e-12)
        alpha_end = cache.fwd[-1] * math.exp(cache.fwd_log[-1])
        assert np.allclose(alpha_end, transient_distribution(p0, q, 3.0), atol=1e-12)

    def test_survival_probability(self):
        # Stay in a state with exit rate 1 for two time units: p = e^{-2}.
        q = validate_intensity([[-1, 1], [2, -2]])
        ev = Evidence(((Subsystem.single(2, 0), 0.0, 2.0),), 2.0)
        cache = forward_backward(q, [1, 0], ev)
        assert cache.log_prob == pytest.approx(-2.0, abs=1e-10)

    def test_point_evidence_equals_marginal(self):
        rng = np.random.default_rng(0)
        q = validate_intensity(random_proper(rng, 3))
        p0 = random_distribution(rng, 3)
        t, tau, j = 0.4, 1.0, 2
        full = Subsystem.full(3)
        ev = Evidence(((full, 0.0, t), (Subsystem.single(3, j), t, t), (full, t, tau)), tau)
        cache = forward_backward(q, p0, ev)
        assert math.exp(cache.log_prob) == pytest.approx(
            transient_distribution(p0, q, t)[j], rel=1e-10
        )

    def test_forward_backward_log_probs_agree(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            n = int(rng.integers(2, 7))
            q = validate_intensity(random_proper(rng, n, 0.1, 6.0))
            p0 = random_distribution(rng, n)
            ev = random_evidence(rng, n, rng.uniform(0.5, 3.0))
            cache = forward_backward(q, p0, ev)
            if cache.impossible:
                continue
            assert cache.log_prob == pytest.approx(cache.log_prob_backward, abs=1e-8)

    def test_messages_consistent_at_every_boundary(self):
        # alpha_pre . beta = p(sigma) = alpha . beta_post at every boundary.
        rng = np.random.default_rng(2)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            q = validate_intensity(random_proper(rng, n, 0.1, 5.0))
            p0 = random_distribution(rng, n)
            ev = random_evidence(rng, n, 2.0)
            cache = forward_backward(q, p0, ev)
            if cache.impossible:
                continue
            for i in range(ev.n_segments + 1):
                lp1 = (
                    math.log(float(cache.fwd_pre[i] @ cache.bwd[i]))
                    + cache.fwd_pre_log[i]
                    + cache.bwd_log[i]
                )
                lp2 = (
                    math.log(float(cache.fwd[i] @ cache.bwd_post[i]))
                    + cache.fwd_log[i]
                    + cache.bwd_post_log[i]
                )
                assert lp1 == pytest.approx(cache.log_prob, abs=1e-8)
                assert lp2 == pytest.approx(cache.log_prob, abs=1e-8)

    def test_structural_zero_probability(self):
        # Asserting a simultaneous two-variable flip has probability zero.
        q, space, p0 = amalgamate(independent_binary_model())
        ev = Evidence(
            ((Subsystem.single(4, 0), 0.0, 0.5), (Subsystem.single(4, 3), 0.5, 1.0)), 1.0
        )
        cache = forward_backward(q, p0, ev)
        assert cache.impossible
        with pytest.raises(ZeroProbabilityEvidenceError):
            expected_statistics(cache)


def _arrays(obj, seen):
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        yield obj
        return
    if isinstance(obj, dict):
        items = obj.values()
    elif isinstance(obj, (list, tuple, set, frozenset)):
        items = obj
    elif hasattr(obj, "__dict__"):
        items = vars(obj).values()
    else:
        return
    for item in items:
        yield from _arrays(item, seen)


class TestMessageCacheSize:
    def test_cache_holds_no_per_segment_matrices(self):
        # Six independent binary variables: joint n = 64. The long hidden
        # stretch is split for stiffness, the observed flip of x0 at t = 3.5
        # is a rate boundary.
        names = tuple(f"x{i}" for i in range(6))
        model = independent_binary_model(names, ((1.0, 2.0),) * 6)
        q, space, p0 = amalgamate(model)
        hidden = (None,) * 6
        record = ObservedTrajectory(
            (
                (0.0, 3.0, hidden),
                (3.0, 3.5, (0, 0, 0, 0, 0, 0)),
                (3.5, 4.0, (1, 0, 0, 0, 0, 0)),
                (4.0, 5.0, (None, 0, 0, 0, 0, None)),
                (5.0, 5.5, (0, 0, 0, 0, 0, 1)),
                (5.5, 6.0, hidden),
            ),
            6.0,
        )
        ev = record.to_evidence(space)
        cache = forward_backward(q, p0, ev)
        assert not cache.impossible
        assert (cache.factor_kind == 1).any()
        assert len(cache.seg_dt) > ev.n_segments
        bound = (len(cache.times) + 1) * q.n
        sizes = [a.size for a in _arrays(cache, {id(cache.q)})]
        assert sizes and max(sizes) <= bound


def lockstep_batch():
    """TestLockstepSweep's model and first four records: joint n = 64, a
    rate boundary and a split segment in the first, the third dead at a
    simultaneous double flip."""
    names = tuple(f"x{i}" for i in range(6))
    model = independent_binary_model(names, ((1.0, 2.0),) * 6)
    q, space, p0 = amalgamate(model)
    hidden = (None,) * 6
    zeros = (0,) * 6
    records = [
        ((0.0, 3.0, hidden), (3.0, 3.5, zeros), (3.5, 4.0, (1, 0, 0, 0, 0, 0)), (4.0, 6.0, hidden)),
        ((0.0, 6.0, hidden),),
        ((0.0, 1.0, zeros), (1.0, 2.0, (1, 1, 0, 0, 0, 0)), (2.0, 6.0, hidden)),
        ((0.0, 2.0, (0, None, 0, None, 0, None)), (2.0, 2.0, zeros), (2.0, 6.0, hidden)),
    ]
    return q, p0, [ObservedTrajectory(segs, 6.0).to_evidence(space) for segs in records]


class TestLockstepSweep:
    def test_batched_caches_match_single_sweeps(self):
        # Joint n = 64, so the batch budget spans several batches. The
        # trajectories differ in segment count; one has a rate boundary and
        # a split segment, one dies at a simultaneous double flip.
        names = tuple(f"x{i}" for i in range(6))
        model = independent_binary_model(names, ((1.0, 2.0),) * 6)
        q, space, p0 = amalgamate(model)
        hidden = (None,) * 6
        zeros = (0,) * 6
        records = [
            ((0.0, 3.0, hidden), (3.0, 3.5, zeros), (3.5, 4.0, (1, 0, 0, 0, 0, 0)), (4.0, 6.0, hidden)),
            ((0.0, 6.0, hidden),),
            ((0.0, 1.0, zeros), (1.0, 2.0, (1, 1, 0, 0, 0, 0)), (2.0, 6.0, hidden)),
            ((0.0, 2.0, (0, None, 0, None, 0, None)), (2.0, 2.0, zeros), (2.0, 6.0, hidden)),
        ] * 3
        evs = [ObservedTrajectory(segs, 6.0).to_evidence(space) for segs in records]
        batched = _forward_backward_many(q, p0, evs)
        assert [c.impossible for c in batched] == [False, False, True, False] * 3
        # A trajectory's messages do not depend on its batch-mates: every
        # stacked exponential takes its own squaring count and every per-row
        # product sums in a fixed order, so they agree bitwise here; the
        # bound asserts less.
        for got, ev in zip(batched, evs):
            want = forward_backward(q, p0, ev)
            assert got.dead_boundary == want.dead_boundary
            for name in ("times", "seg_masks", "seg_dt", "factor_kind"):
                assert np.array_equal(getattr(got, name), getattr(want, name)), name
            for name in ("log_prob", "log_prob_backward", "fwd", "fwd_log", "fwd_pre", "fwd_pre_log",
                         "bwd", "bwd_log", "bwd_post", "bwd_post_log"):
                np.testing.assert_allclose(getattr(got, name), getattr(want, name), rtol=1e-12, atol=1e-14)

    def test_statistics_of_caches_cut_from_one_batch(self):
        # The kernel runs on the batch the caches were cut from and skips
        # the trajectories not asked for, the dead one among them.
        q, p0, evs = lockstep_batch()
        assert len(list(inference._batches(evs, q.n))) == 1
        live = [0, 1, 3]
        want = {t: expected_statistics(forward_backward(q, p0, evs[t])) for t in live}
        for asked in ([0, 1, 3], [3, 0], [0], [1], [3]):
            caches = _forward_backward_many(q, p0, evs)
            for t, got in zip(asked, expected_statistics_many([caches[t] for t in asked])):
                assert rel_err(got.dwell, want[t].dwell) <= 1e-12
                assert rel_err(got.transitions, want[t].transitions) <= 1e-12
        for asked, index in (([2], 0), ([0, 2], 1), ([3, 1, 0, 2], 3)):
            caches = _forward_backward_many(q, p0, evs)
            with pytest.raises(ZeroProbabilityEvidenceError) as err:
                expected_statistics_many([caches[t] for t in asked])
            assert err.value.trajectory_index == index

    def test_caches_of_one_batch_share_its_arrays(self):
        q, p0, evs = lockstep_batch()
        caches = _forward_backward_many(q, p0, evs)
        for name in ("fwd", "bwd_post"):
            first, second = getattr(caches[0], name), getattr(caches[1], name)
            assert first.base is not None and first.base is second.base, name
            assert not first.flags.writeable, name


def ring32_records():
    """Occluded records of the n = 32 ring: a hidden stretch stiff enough to
    be split, an observed flip of v0 (a rate boundary), a zero-length
    observation and partly hidden stretches."""
    hidden = (None,) * 5
    zeros = (0,) * 5
    segs = [
        ((0.0, 4.0, hidden), (4.0, 4.5, zeros), (4.5, 5.0, (1, 0, 0, 0, 0)), (5.0, 5.0, (1, None, 0, 0, 0)),
         (5.0, 8.0, (None, 0, None, None, None)), (8.0, 10.0, hidden)),
        ((0.0, 10.0, hidden),),
        ((0.0, 2.0, (None, 1, None, 0, None)), (2.0, 2.5, (1, 1, 0, 0, 1)), (2.5, 10.0, hidden)),
    ]
    return [ObservedTrajectory(s, 10.0) for s in segs]


class TestBatchSplit:
    def test_matches_per_segment_pieces_bitwise(self):
        # Pieces of a segment stiffer than the cap are equal; piece p of
        # segment i ends at t_i + dt_i (p + 1) / c_i, and the last piece at
        # the evidence boundary t_{i + 1} itself.
        model = binary_ring_model(5)
        q, space, p0 = amalgamate(model)
        evs = [rec.to_evidence(space) for rec in ring32_records()] * 2
        masks, dts, times, counts, rate_before = inference._split_batch(q.entries, evs)
        want_masks, want_dts, want_times, want_rate = [], [], [], []
        for ev in evs:
            want_times.append(ev.boundaries[0])
            for i, (mask, dt) in enumerate(zip(ev.masks, ev.durations)):
                mu = np.abs(np.diagonal(q.entries))[mask].max() * dt
                c = max(1, math.ceil(mu / inference._SEGMENT_STIFFNESS_CAP))
                for piece in range(c):
                    want_masks.append(mask)
                    want_dts.append(dt / c)
                    want_times.append(ev.boundaries[i] + dt * (piece + 1) / c)
                    want_rate.append(piece == 0 and i > 0 and not (ev.masks[i - 1] & mask).any())
                want_times[-1] = ev.boundaries[i + 1]
        assert counts.sum() > sum(ev.n_segments for ev in evs)
        assert np.array_equal(masks, want_masks)
        assert dts.tobytes() == np.array(want_dts).tobytes()
        assert times.tobytes() == np.array(want_times).tobytes()
        assert np.array_equal(rate_before, want_rate) and rate_before.any()


class TestSeriesForm:
    """Above _PADE_MAX_STATES states the sweeps apply the uniformization
    series to a segment's messages on its subsystem; up to it, batched Pade
    exponentials of the |S| x |S| blocks. The n = 32 data holds both."""

    def setup_method(self):
        self.model = binary_ring_model(5)
        self.q, self.space, self.p0 = amalgamate(self.model)
        self.evs = [rec.to_evidence(self.space) for rec in ring32_records()]
        sizes = np.concatenate([ev.masks.sum(axis=1) for ev in self.evs])
        assert (sizes > inference._PADE_MAX_STATES).any() and (sizes <= inference._PADE_MAX_STATES).any()

    def test_builds_no_exponential_and_matches_taylor_forward_pass(self, monkeypatch):
        def no_expm(*args, **kwargs):
            raise AssertionError("the series form builds no matrix exponential")

        monkeypatch.setattr(inference, "expm", no_expm)
        monkeypatch.setattr(inference, "_PADE_MAX_STATES", 0)
        for ev in self.evs:
            cache = forward_backward(self.q, self.p0, ev)
            want = taylor_log_prob(self.q.entries, self.p0, ev)
            assert abs(cache.log_prob - want) <= 1e-12 * max(1.0, abs(want))
        first = forward_backward(self.q, self.p0, self.evs[0])
        assert (first.factor_kind == 1).any()
        assert (first.seg_dt == 0.0).any()
        assert len(first.seg_dt) > self.evs[0].n_segments

    def test_caches_agree_with_dense_form(self, monkeypatch):
        monkeypatch.setattr(inference, "_PADE_MAX_STATES", 0)
        series = [forward_backward(self.q, self.p0, ev) for ev in self.evs]
        monkeypatch.setattr(inference, "_PADE_MAX_STATES", self.q.n)
        dense = [forward_backward(self.q, self.p0, ev) for ev in self.evs]
        for got, want in zip(series, dense):
            for name in ("times", "seg_masks", "seg_dt", "factor_kind"):
                assert np.array_equal(getattr(got, name), getattr(want, name)), name
            for name in ("log_prob", "log_prob_backward", "fwd", "fwd_log", "fwd_pre", "fwd_pre_log",
                         "bwd", "bwd_log", "bwd_post", "bwd_post_log"):
                np.testing.assert_allclose(getattr(got, name), getattr(want, name), rtol=1e-12, atol=1e-12,
                                           err_msg=name)

    def test_score_dataset_equals_lone_sweeps_bitwise(self):
        dataset = self.evs * 2
        assert len(list(inference._batches(dataset, self.q.n))) == 1
        assert score_dataset(self.model, dataset) == [forward_backward(self.q, self.p0, ev).log_prob
                                                      for ev in dataset]

    def test_forward_backward_mismatch_is_an_error(self, monkeypatch):
        # Both sweeps share each segment's truncated series, so cutting it
        # early moves both log-likelihoods alike; a backward sweep whose
        # series is cut at 1e-3 after an exact forward sweep does not.
        ev = self.evs[0]
        sweep = inference._forward(self.q, self.p0, [ev])
        assert inference._backward(self.q, [ev], sweep)[0].log_prob == sweep.log_prob(0)
        monkeypatch.setattr(inference, "_SWEEP_TAIL", 1e-3)
        loose = sweep._replace(prop=inference._Propagator(self.q, sweep.masks, sweep.dts))
        with pytest.raises(ForwardBackwardMismatchError) as err:
            inference._backward(self.q, [ev], loose, first=7)
        assert err.value.trajectory_index == 7
        assert err.value.log_prob == sweep.log_prob(0)
        gap = abs(err.value.log_prob - err.value.log_prob_backward)
        assert gap > inference.FORWARD_BACKWARD_TOL * abs(err.value.log_prob)


class TestSmoothedMarginal:
    def test_point_mass_at_observed_instant(self):
        rng = np.random.default_rng(3)
        q = validate_intensity(random_proper(rng, 3))
        p0 = random_distribution(rng, 3)
        full = Subsystem.full(3)
        ev = Evidence(((full, 0.0, 0.6), (Subsystem.single(3, 1), 0.6, 0.6), (full, 0.6, 1.0)), 1.0)
        cache = forward_backward(q, p0, ev)
        g = smoothed_marginal(cache, 0.6)
        assert np.allclose(g, [0.0, 1.0, 0.0], atol=1e-12)

    def test_vacuous_equals_transient(self):
        rng = np.random.default_rng(4)
        q = validate_intensity(random_proper(rng, 4))
        p0 = random_distribution(rng, 4)
        cache = forward_backward(q, p0, Evidence.vacuous(4, 2.0))
        for t in (0.0, 0.7, 1.4, 2.0):
            assert np.allclose(
                smoothed_marginal(cache, t), transient_distribution(p0, q, t), atol=1e-10
            )

    def test_rows_sum_to_one_and_respect_subsystem(self):
        rng = np.random.default_rng(5)
        q = validate_intensity(random_proper(rng, 4))
        p0 = random_distribution(rng, 4)
        sub = Subsystem.of(4, (1, 3))
        ev = Evidence(((Subsystem.full(4), 0.0, 1.0), (sub, 1.0, 2.0)), 2.0)
        cache = forward_backward(q, p0, ev)
        g = smoothed_marginal(cache, 1.5)
        assert g.sum() == pytest.approx(1.0, abs=1e-12)
        assert g[0] == 0.0 and g[2] == 0.0

    def test_matches_discretized_chain(self):
        # Symmetric two-state generator observed in state 0 at the horizon.
        q = symmetric_two_state()
        tau = 1.0
        ev = Evidence(
            ((Subsystem.full(2), 0.0, tau), (Subsystem.single(2, 0), tau, tau)), tau
        )
        cache = forward_backward(q, [0.5, 0.5], ev)
        g = smoothed_marginal(cache, 0.5)
        h = 1e-4
        _, _, _, gam = chain_oracle(q.entries, np.array([0.5, 0.5]), ev, h)
        assert np.abs(g - gam[int(round(0.5 / h))]).max() < 1e-3


    def test_series_form_matches_taylor_at_n64(self):
        # Queries inside a split hidden stretch, a partly observed one and
        # a fully hidden tail, against the segment exponentials by Taylor.
        model = binary_ring_model(6, seed=1)
        q, space, p0 = amalgamate(model)
        hidden = (None,) * 6
        record = ObservedTrajectory(
            ((0.0, 3.0, hidden), (3.0, 3.5, (0,) * 6), (3.5, 5.0, (1, None, 0, None, 0, None)), (5.0, 6.0, hidden)),
            6.0,
        )
        cache = forward_backward(q, p0, record.to_evidence(space))
        sizes = cache.seg_masks.sum(axis=1)
        assert (sizes > inference._PADE_MAX_STATES).any() and (sizes <= inference._PADE_MAX_STATES).any()
        assert len(cache.seg_dt) > 4
        for t in (0.3, 2.9, 4.2, 5.5):
            i = int(np.searchsorted(cache.times, t)) - 1
            m = cache.seg_masks[i]
            q_s = np.where(np.outer(m, m), q.entries, 0.0)
            a = cache.fwd[i] @ taylor_expm(q_s * (t - cache.times[i]))
            b = taylor_expm(q_s * (cache.times[i + 1] - t)) @ (cache.bwd[i + 1] * m)
            np.testing.assert_allclose(smoothed_marginal(cache, t), a * b / (a * b).sum(), rtol=0, atol=1e-12)


class TestExpectedStatistics:
    def test_fully_observed_statistics_are_exact(self):
        q = validate_intensity([[-1.2, 0.7, 0.5], [2.0, -2.5, 0.5], [0.3, 0.9, -1.2]])
        p0 = [1.0, 0.0, 0.0]
        traj = sample_trajectory(p0, q, 6.0, seed=13)
        ev = Evidence.fully_observed(traj, 3)
        cache = forward_backward(q, p0, ev)
        stats = expected_statistics(cache)
        assert np.abs(stats.dwell - traj.dwell_times(3)).max() < 1e-10
        assert np.abs(stats.transitions - traj.transition_counts(3)).max() < 1e-10

    def test_symmetric_vacuous_dwell_is_half(self):
        q = symmetric_two_state()
        cache = forward_backward(q, [0.5, 0.5], Evidence.vacuous(2, 4.0))
        assert np.allclose(expected_dwell(cache), [2.0, 2.0], atol=1e-8)

    def test_dwell_example_matches_oracle(self):
        q = validate_intensity([[-1.0, 1.0], [2.0, -2.0]])
        tau = 1.0
        ev = Evidence(
            ((Subsystem.full(2), 0.0, tau), (Subsystem.single(2, 1), tau, tau)), tau
        )
        cache = forward_backward(q, [1.0, 0.0], ev)
        _, dwell_o, trans_o, _ = chain_oracle(q.entries, np.array([1.0, 0.0]), ev, 1e-4)
        assert rel_err(expected_dwell(cache), dwell_o) < 1e-3
        assert rel_err(expected_transitions(cache), trans_o) < 2e-3

    def test_zero_rate_means_zero_transitions(self):
        q = validate_intensity([[-1.0, 1.0, 0.0], [0.5, -1.0, 0.5], [0.0, 2.0, -2.0]])
        rng = np.random.default_rng(6)
        ev = observed_evidence(rng, q.entries, np.array([1.0, 0, 0]), 2.0)
        cache = forward_backward(q, [1.0, 0, 0], ev)
        m = expected_transitions(cache)
        assert m[0, 2] == 0.0 and m[2, 0] == 0.0

    def test_dwell_sums_to_horizon(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            n = int(rng.integers(2, 7))
            q = validate_intensity(random_proper(rng, n, 0.1, 6.0))
            p0 = random_distribution(rng, n)
            tau = float(rng.uniform(0.5, 3.0))
            ev = random_evidence(rng, n, tau)
            cache = forward_backward(q, p0, ev)
            if cache.impossible:
                continue
            assert expected_dwell(cache).sum() == pytest.approx(tau, abs=1e-6)

    def test_statistics_match_chain_oracle(self):
        rng = np.random.default_rng(8)
        checked = 0
        for _ in range(10):
            n = int(rng.integers(2, 5))
            q = random_proper(rng, n, 0.2, 4.0)
            p0 = random_distribution(rng, n)
            ev = observed_evidence(rng, q, p0, 1.0, grid=1e-4)
            cache = forward_backward(validate_intensity(q), p0, ev)
            if cache.impossible:
                continue
            stats = expected_statistics(cache)
            _, dwell_o, trans_o, _ = chain_oracle(q, p0, ev, 1e-4)
            # The oracle itself carries O(q^2 h) bias; the sharp 1e-3 bound
            # is asserted by the acceptance suite on exit-capped rates.
            assert rel_err(stats.dwell, dwell_o) < 2e-3
            assert rel_err(stats.transitions, trans_o) < 2e-3
            checked += 1
        assert checked >= 8

    def test_oracle_error_shrinks_with_step(self):
        rng = np.random.default_rng(9)
        q = random_proper(rng, 3, 0.3, 3.0)
        p0 = random_distribution(rng, 3)
        ev = observed_evidence(rng, q, p0, 1.0, grid=1e-2)
        cache = forward_backward(validate_intensity(q), p0, ev)
        stats = expected_statistics(cache)
        errors = []
        for h in (1e-2, 1e-3, 1e-4):
            _, dwell_o, trans_o, _ = chain_oracle(q, p0, ev, h)
            errors.append(max(rel_err(stats.dwell, dwell_o), rel_err(stats.transitions, trans_o)))
        assert errors[0] > errors[1] > errors[2]

    def test_rescaling_leaves_transition_totals_invariant(self):
        # Doubling the rates and halving the horizon preserves expected counts.
        rng = np.random.default_rng(10)
        q = random_proper(rng, 3, 0.3, 3.0)
        p0 = random_distribution(rng, 3)
        ev1 = observed_evidence(rng, q, p0, 2.0)
        segs = tuple((s, a / 2.0, b / 2.0) for s, a, b in ev1.segments)
        ev2 = Evidence(segs, 1.0)
        c1 = forward_backward(validate_intensity(q), p0, ev1)
        c2 = forward_backward(validate_intensity(2.0 * q), p0, ev2)
        m1 = expected_transitions(c1)
        m2 = expected_transitions(c2)
        assert np.abs(m1 - m2).max() < 1e-6
        assert np.abs(2.0 * expected_dwell(c2) - expected_dwell(c1)).max() < 1e-6


class TestConvolutionIntegrals:
    def test_zero_length_is_zero(self):
        q = validate_intensity([[-1.0]], "restricted")
        assert np.array_equal(convolution_integrals([1.0], q, [1.0], 0.0), np.zeros((1, 1)))

    def test_scalar_closed_form(self):
        # f(s) b(s) = e^{-q dt} is constant, so J = dt e^{-q dt}.
        q = validate_intensity([[-1.0]], "restricted")
        j = convolution_integrals([1.0], q, [1.0], 2.0)
        assert j[0, 0] == pytest.approx(0.2706705665, abs=1e-8)

    def test_matches_trapezoid_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            n = 3
            q = np.exp(rng.uniform(np.log(0.2), np.log(3.0), (n, n)))
            np.fill_diagonal(q, 0.0)
            np.fill_diagonal(q, -(q.sum(axis=1) + rng.uniform(0.0, 1.0, n)))
            alpha = random_distribution(rng, n)
            beta = rng.uniform(0.1, 1.0, n)
            j = convolution_integrals(alpha, validate_intensity(q, "restricted"), beta, 1.0, 1e-8)
            oracle = trapezoid_convolution(q, alpha, beta, 1.0, m=100_000)
            assert np.abs(j - oracle).max() / np.abs(oracle).max() < 1e-8

    def test_rejects_bad_arguments(self):
        q = validate_intensity([[-1.0]], "restricted")
        with pytest.raises(ValueError):
            convolution_integrals([1.0], q, [1.0], -1.0)
        with pytest.raises(ValueError):
            convolution_integrals([1.0], q, [1.0], 1.0, tol=0.0)
        # Malformed vectors and durations are refused up front, not
        # broadcast or carried into the series.
        q2 = validate_intensity([[-1.0, 1.0], [1.0, -1.0]], "restricted")
        for alpha, beta, dt in (
            ([1.0, 0.0], [1.0], 1.0),
            ([1.0], [1.0, 1.0], 1.0),
            ([[1.0, 0.0]], [1.0, 1.0], 1.0),
            ([math.nan, 0.0], [1.0, 1.0], 1.0),
            ([1.0, 0.0], [1.0, math.inf], 1.0),
            ([1.0, 0.0], [1.0, 1.0], math.inf),
            ([1.0, 0.0], [1.0, 1.0], math.nan),
        ):
            with pytest.raises(ValueError, match="alpha|beta|dt"):
                convolution_integrals(alpha, q2, beta, dt)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 1.0, 100.0])
    def test_tolerances_that_bound_no_tail_are_refused(self, tol):
        # Each entry point refuses them up front with one message, also on
        # data that never reaches the integrals.
        model = independent_binary_model()
        q, space, p0 = amalgamate(model)
        ev = Evidence.vacuous(4, 1.0)
        calls = [
            lambda: EmConfig(quad_tol=tol),
            lambda: convolution_integrals([1.0, 0.0], validate_intensity([[-1.0, 1.0], [1.0, -1.0]]), [1.0, 1.0],
                                          1.0, tol),
            lambda: e_step(model, [ev], tol),
            lambda: e_step(model, [], tol),
            lambda: expected_statistics_many([forward_backward(q, p0, ev)], tol),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="finite and below 1"):
                call()

    def test_step_underflow(self):
        q = validate_intensity([[-5.0, 5.0], [5.0, -5.0]])
        with pytest.raises(StepUnderflowError):
            convolution_integrals([1.0, 0.0], q, [1.0, 1.0], 1.0, tol=1e-300)

    def test_stiff_segments_match_van_loan(self):
        # Van Loan: the upper-right block of exp([[Q^T, alpha^T beta^T], [0, Q^T]] dt)
        # is J. max|q_ii| dt runs from what the E-step's split allows to far past it.
        rng = np.random.default_rng(12)
        n = 3
        q = np.exp(rng.uniform(np.log(0.2), np.log(3.0), (n, n)))
        np.fill_diagonal(q, 0.0)
        np.fill_diagonal(q, -(q.sum(axis=1) + rng.uniform(0.0, 1.0, n)))
        alpha = random_distribution(rng, n)
        beta = rng.uniform(0.1, 1.0, n)
        for mu in (16.0, 100.0, 1000.0):
            q_s = q * (mu / np.abs(np.diagonal(q)).max())
            block = np.zeros((2 * n, 2 * n))
            block[:n, :n] = block[n:, n:] = q_s.T
            block[:n, n:] = np.outer(alpha, beta)
            oracle = taylor_expm(block)[:n, n:]
            j = convolution_integrals(alpha, validate_intensity(q_s, "restricted"), beta, 1.0, 1e-8)
            assert np.isfinite(j).all()
            assert np.abs(j - oracle).max() / np.abs(oracle).max() < 1e-8


    def test_long_stiff_segment_is_split(self):
        # mu = max|q_ii| dt = 1e5, far past the sweeps' stiffness cap.
        q = np.array([[-3.0, 2.0, 1.0], [0.5, -1.5, 1.0], [2.0, 2.0, -4.0]])
        alpha = np.array([0.2, 0.5, 0.3])
        beta = np.array([0.4, 1.0, 0.7])
        dt = 1e5 / 4.0
        start = time.perf_counter()
        j = convolution_integrals(alpha, validate_intensity(q), beta, dt)
        assert time.perf_counter() - start < 1.0
        assert (j >= 0.0).all()
        want = dt * (alpha @ taylor_expm(q * dt) @ beta)
        assert abs(np.trace(j) - want) <= 1e-8 * want


@st.composite
def kernel_batches(draw):
    """A proper generator with rates log-uniform on 1e-4..1e4 and a few rows,
    each a random mask with nonnegative end vectors and a duration of zero
    or of up to 2000 mean dwell times of the mask's fastest state."""
    n = draw(st.integers(2, 4))
    log_rate = st.floats(math.log(1e-4), math.log(1e4))
    q = np.exp(np.array(draw(st.lists(log_rate, min_size=n * n, max_size=n * n))).reshape(n, n))
    np.fill_diagonal(q, 0.0)
    np.fill_diagonal(q, -q.sum(axis=1))
    m = draw(st.integers(1, 4))
    masks = np.array([draw(st.lists(st.booleans(), min_size=n, max_size=n)) for _ in range(m)])
    masks[np.arange(m), draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))] = True
    # J is linear in f0 and beta, so only zeros and relative sizes matter.
    mass = st.one_of(st.just(0.0), st.floats(1e-3, 1.0))
    f0 = np.array(draw(st.lists(mass, min_size=m * n, max_size=m * n))).reshape(m, n)
    beta = np.array(draw(st.lists(mass, min_size=m * n, max_size=m * n))).reshape(m, n)
    spans = st.one_of(st.just(0.0), st.floats(math.log(1e-6), math.log(2e3)).map(math.exp))
    lam = np.where(masks, -np.diagonal(q), 0.0).max(axis=1)
    dts = np.array([draw(spans) for _ in range(m)]) / lam
    return q, masks, dts, f0, beta


class TestUniformizationKernel:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(kernel_batches())
    def test_invariants(self, batch):
        q, masks, dts, f0, beta = batch
        m, n = f0.shape
        tol = 1e-8
        js = np.zeros((m, n, n))
        u = inference._Uniformization(validate_intensity(q), masks, dts)
        _convolution_batch(u, np.arange(m), f0, beta, np.arange(m), tol, np.zeros((m, n)), js, False)
        for r in range(m):
            s = masks[r]
            q_s = np.where(np.outer(s, s), q, 0.0)
            a, b = f0[r] * s, beta[r] * s
            # f(s) . b(s) = alpha exp(Q_S dt) beta at every s.
            ref = dts[r] * (a @ taylor_expm(q_s * dts[r]) @ b)
            bound = tol * dts[r] * a.sum() * b.max()
            assert abs(np.trace(js[r]) - ref) <= 1e-9 * ref + 2.0 * bound
            assert (js[r] >= 0.0).all()
            assert not js[r][~s].any() and not js[r][:, ~s].any()

    def test_series_terms_match_the_full_pmf_tail(self):
        # The threshold lookup gives every row the cutoff of its own
        # full-width Poisson tail; random mu never lie within rounding of a
        # threshold, and above the stiffness cap the tail is computed.
        rng = np.random.default_rng(3)
        mu = np.concatenate([rng.uniform(0.0, 16.0, 2000), [0.0, 1e-300, 16.0], rng.uniform(16.0, 200.0, 20)])
        for tol in (np.finfo(float).eps, 1e-14, 1e-8, 1e-3):
            assert np.array_equal(inference._series_terms(mu, tol), inference._poisson_terms(mu, tol)[1])
        with pytest.raises(StepUnderflowError):
            inference._series_terms(mu, 1e-17)

    def test_groups_split_across_chunks(self, monkeypatch):
        # One row per chunk: a group's sum arrives in parts, one per row. Rows
        # run on their own are cut at their own Poisson tail, so they agree
        # with the batch to the tolerance rather than to rounding.
        rng = np.random.default_rng(13)
        n, m = 4, 7
        q = random_proper(rng, n)
        masks = rng.random((m, n)) < 0.7
        masks[:, 0] = True
        dts = rng.uniform(0.0, 2.0, m)
        f0, beta = rng.random((m, n)), rng.random((m, n))
        ends = np.array([2, 2, 5, 7])
        groups = np.repeat(np.arange(len(ends)), np.diff(ends, prepend=0))

        u = inference._Uniformization(validate_intensity(q), masks, dts)

        def sums(rows, groups):
            out = np.zeros((groups.max() + 1, n, n))
            _convolution_batch(u, rows, f0[rows], beta[rows], groups, 1e-10, np.zeros((len(out), n)), out, False)
            return out

        whole = sums(np.arange(m), groups)
        monkeypatch.setattr(inference, "_BATCH_ELEMENTS", 1)
        parts = sums(np.arange(m), groups)
        rows = [sums(np.array([r]), np.array([0]))[0] for r in range(m)]
        assert not whole[1].any()
        for g, (lo, hi) in enumerate(zip([0, 2, 2, 5], ends)):
            expect = sum(rows[lo:hi], np.zeros((n, n)))
            assert np.abs(whole[g] - expect).max() <= 1e-9 * np.abs(expect).max(initial=1.0)
            assert np.abs(parts[g] - whole[g]).max() <= 1e-12 * np.abs(whole[g]).max(initial=1.0)


def joint_space_oracle(q: np.ndarray, p0: np.ndarray, ev: Evidence):
    """Unscaled forward and backward passes over the unsplit segments on the
    joint space, each segment's exponential by ``taylor_expm`` and its
    convolution integrals by Van Loan's block exponential. Returns both
    sweeps' log-likelihoods, a smoothed-marginal function for times inside
    a segment, the expected dwell times and the expected transition counts."""
    n = len(p0)
    w = q - np.diag(np.diag(q))
    masks, dts, times = ev.masks, ev.durations, ev.boundaries
    blocks = [np.where(np.outer(m, m), q, 0.0) for m in masks]
    exps = [taylor_expm(b * dt) for b, dt in zip(blocks, dts)]
    rate = [not (masks[i] & masks[i + 1]).any() for i in range(len(masks) - 1)]
    factors = [w * np.outer(masks[i], masks[i + 1]) if rate[i] else np.diag(masks[i + 1] * 1.0)
               for i in range(len(masks) - 1)]
    start = [p0 * masks[0]]
    end = []
    for i, e in enumerate(exps):
        end.append(start[i] @ e)
        if i < len(factors):
            start.append(end[i] @ factors[i])
    beta_end = [None] * len(masks)
    beta_start = [None] * len(masks)
    beta_end[-1] = np.ones(n)
    for i in range(len(masks) - 1, -1, -1):
        beta_start[i] = exps[i] @ beta_end[i]
        if i:
            beta_end[i - 1] = factors[i - 1] @ beta_start[i]
    lik = end[-1].sum()
    lik_backward = (p0 * masks[0]) @ beta_start[0]

    def marginal(t):
        i = int(np.searchsorted(times, t)) - 1
        a = start[i] @ taylor_expm(blocks[i] * (t - times[i]))
        b = taylor_expm(blocks[i] * (times[i + 1] - t)) @ beta_end[i]
        return a * b / (a * b).sum()

    dwell = np.zeros(n)
    trans = np.zeros((n, n))
    for i, (b, dt) in enumerate(zip(blocks, dts)):
        if dt > 0.0:
            big = np.zeros((2 * n, 2 * n))
            big[:n, :n] = big[n:, n:] = b.T * dt
            big[:n, n:] = np.outer(start[i], beta_end[i]) * dt
            j = taylor_expm(big)[:n, n:]
            dwell += np.diagonal(j) / lik
            trans += w * np.outer(masks[i], masks[i]) * j / lik
        if i < len(factors) and rate[i]:
            trans += np.outer(end[i], beta_start[i + 1]) * factors[i] / lik
    return math.log(lik), math.log(lik_backward), marginal, dwell, trans


def random_mask_evidence(rng, n, sizes, horizon):
    """Evidence over random masks of the given sizes, one segment each, with
    a disjoint pair (a rate boundary) and a zero-length segment inserted."""
    masks = [np.isin(np.arange(n), rng.choice(n, s, replace=False)) for s in sizes]
    # A mask disjoint from its predecessor asserts a transition.
    masks.insert(2, np.isin(np.arange(n), rng.choice(np.flatnonzero(~masks[1]), 2, replace=False)))
    cuts = np.sort(rng.uniform(0.0, horizon, len(masks) - 1))
    times = np.concatenate(([0.0], cuts, [horizon]))
    segs = [(Subsystem.from_mask(m), float(a), float(b)) for m, a, b in zip(masks, times, times[1:])]
    # A zero-length segment holding its successor's mask and one more state.
    k = 4
    point = masks[k].copy()
    point[rng.choice(n)] = True
    segs.insert(k, (Subsystem.from_mask(point), segs[k][1], segs[k][1]))
    return Evidence(tuple(segs), horizon)


class TestSubsystemOracle:
    """The sweeps, the smoothed marginals and the expected statistics under
    random subsystem evidence, against plain passes on the joint space."""

    def check(self, q, p0, evs):
        caches = _forward_backward_many(validate_intensity(q), p0, evs)
        for ev, cache in zip(evs, caches):
            ll, ll_backward, marginal, dwell, trans = joint_space_oracle(q, p0, ev)
            assert abs(cache.log_prob - ll) <= 1e-11 * max(1.0, abs(ll))
            assert abs(cache.log_prob_backward - ll_backward) <= 1e-11 * max(1.0, abs(ll))
            inner = ev.boundaries[:-1] + 0.37 * ev.durations
            for t in inner[ev.durations > 0.0]:
                np.testing.assert_allclose(smoothed_marginal(cache, t), marginal(t), rtol=0, atol=1e-11)
            stats = expected_statistics(cache, 1e-13)
            assert rel_err(stats.dwell, dwell) <= 1e-10
            assert rel_err(stats.transitions, trans) <= 1e-10
        return caches

    @pytest.mark.parametrize("pade_max", [None, 0, 64], ids=["default", "all-series", "all-pade"])
    def test_random_masks(self, monkeypatch, pade_max):
        # A dense generator on n = 64 states, exit rates about 1.3: every
        # disjoint pair of masks has transitions between them. Subsystems
        # of one state, a few states, most of the space and all of it; at
        # the default crossover they take Pade blocks, the series on their
        # blocks and the series on the whole of W.
        if pade_max is not None:
            monkeypatch.setattr(inference, "_PADE_MAX_STATES", pade_max)
        rng = np.random.default_rng(21)
        n = 64
        q = random_proper(rng, n, 0.005, 0.05)
        p0 = random_distribution(rng, n)
        evs = [random_mask_evidence(rng, n, sizes, 2.0)
               for sizes in ((1, 3, n, 40, 2, 1), (n, 5, 1, 24, 3, 2), (2, 1, 7, 1, n, 33))]
        sizes = np.concatenate([ev.masks.sum(axis=1) for ev in evs])
        assert {1, 2, 3, n} <= set(sizes.tolist())
        caches = self.check(q, p0, evs)
        assert all((c.factor_kind == 1).any() and (c.seg_dt == 0.0).any() for c in caches)

    def test_phase_expanded_space(self):
        # w's three phases stay hidden while w itself is observed; x is
        # hidden or observed, and w's observed flips are rate boundaries.
        base = CtbnModel(
            (Variable("w", ("w1", "w2")), Variable("x", ("x0", "x1"))),
            {"w": Cim(("x",), (2,), np.array([[[-1.0, 1.0], [2.0, -2.0]], [[-3.0, 3.0], [0.5, -0.5]]])),
             "x": Cim(("w",), (2,), np.array([[[-0.7, 0.7], [1.2, -1.2]], [[-2.0, 2.0], [0.4, -0.4]]]))},
            {"w": [1.0, 0.0], "x": [0.5, 0.5]},
        )
        model, _ = expand_phases(base, PhaseSpec({"w": 3}, topology="unrestricted"))
        q, space, p0 = amalgamate(model)
        assert q.n == 12
        records = [
            ((0.0, 0.8, (0, None)), (0.8, 1.5, (1, None)), (1.5, 1.5, (1, 1)), (1.5, 2.5, (None, None))),
            ((0.0, 1.0, (None, 0)), (1.0, 1.7, (0, 0)), (1.7, 2.5, (1, 0))),
        ]
        evs = [ObservedTrajectory(r, 2.5).to_evidence(space) for r in records]
        assert {3, 6, 12} <= set(np.concatenate([ev.masks.sum(axis=1) for ev in evs]).tolist())
        caches = self.check(q.entries, p0, evs)
        assert all((c.factor_kind == 1).any() for c in caches)


class TestSubsystemWidth:
    def test_no_matrix_wider_than_the_largest_subsystem(self, monkeypatch):
        # Joint n = 1024 under window occlusion: every exponential and every
        # gathered block of Q or W is at most as wide as the widest
        # subsystem the evidence leaves, far below n.
        model = binary_ring_model(10, seed=3)
        q, space, p0 = amalgamate(model)
        rng = np.random.default_rng(5)
        dataset = []
        for _ in range(2):
            traj = sample_trajectory(p0, q, 2.0, rng)
            per_var = [space.project(traj, v) for v in range(space.k)]
            dataset.append(occlude_observed(per_var, OcclusionPolicy(0.25, 0.25), rng).to_evidence(space))
        largest = int(max(ev.masks.sum(axis=1).max() for ev in dataset))
        assert 2 * inference._PADE_MAX_STATES < largest < q.n // 4
        widths = []
        expm, block, powers = inference.expm, inference._block, inference._powers

        def recording_expm(a):
            widths.append(a.shape[-1])
            return expm(a)

        def recording_block(m, rows, cols):
            out = block(m, rows, cols)
            widths.extend(out.shape[1:])
            return out

        def recording_powers(v, w, *rest):
            widths.append(w.shape[-1])
            return powers(v, w, *rest)

        monkeypatch.setattr(inference, "expm", recording_expm)
        monkeypatch.setattr(inference, "_block", recording_block)
        monkeypatch.setattr(inference, "_powers", recording_powers)
        _, ll = e_step(model, dataset)
        assert widths and max(widths) <= largest
        widths.clear()
        assert math.fsum(score_dataset(model, dataset)) == pytest.approx(ll, rel=1e-12)
        assert widths and max(widths) <= largest
