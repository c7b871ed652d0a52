import math
import time
import tracemalloc

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
    expected_statistics,
    expected_statistics_many,
    forward_backward,
    forward_backward_many,
    occlude_observed,
    sample_trajectory,
    smoothed_marginal,
    transient_distribution,
    score_dataset,
    validate_intensity,
)
from ctbnlearn import inference, learning
from ctbnlearn.inference import _convolution_batch
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
        # a split segment, one dies at a simultaneous double flip. A record
        # held in one state throughout, swept beside a vacuous one, has its
        # rows padded to the whole joint space at every step.
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
        for records, dead in ((records, [False, False, True, False] * 3),
                              ([((0.0, 6.0, zeros),), ((0.0, 6.0, hidden),)], [False, False])):
            evs = [ObservedTrajectory(segs, 6.0).to_evidence(space) for segs in records]
            batched = forward_backward_many(q, p0, evs)
            assert [c.impossible for c in batched] == dead
            # A trajectory's messages do not depend on its batch-mates: every
            # power comes out of its doubling step alike and every per-row
            # product sums in a fixed order, so they agree bitwise.
            for got, ev in zip(batched, evs):
                want = forward_backward(q, p0, ev)
                assert got.dead_boundary == want.dead_boundary
                for name in ("times", "seg_masks", "seg_dt", "factor_kind", "fwd", "fwd_log", "fwd_pre",
                             "fwd_pre_log", "bwd", "bwd_log", "bwd_post", "bwd_post_log", "log_prob",
                             "log_prob_backward"):
                    assert np.asarray(getattr(got, name)).tobytes() == np.asarray(getattr(want, name)).tobytes(), name

    def test_statistics_of_caches_cut_from_one_batch(self):
        # The kernel runs on the batch the caches were cut from and skips
        # the trajectories not asked for, the dead one among them.
        q, p0, evs = lockstep_batch()
        assert len(list(inference._batches(q, evs))) == 1
        live = [0, 1, 3]
        want = {t: expected_statistics(forward_backward(q, p0, evs[t])) for t in live}
        for asked in ([0, 1, 3], [3, 0], [0], [1], [3]):
            caches = forward_backward_many(q, p0, evs)
            for t, got in zip(asked, expected_statistics_many([caches[t] for t in asked])):
                assert rel_err(got.dwell, want[t].dwell) <= 1e-12
                assert rel_err(got.transitions, want[t].transitions) <= 1e-12
        for asked, index in (([2], 0), ([0, 2], 1), ([3, 1, 0, 2], 3)):
            caches = forward_backward_many(q, p0, evs)
            with pytest.raises(ZeroProbabilityEvidenceError) as err:
                expected_statistics_many([caches[t] for t in asked])
            assert err.value.trajectory_index == index

    def test_caches_of_one_batch_share_its_rows(self):
        # The caches of one batch read its message rows, each on its
        # subsystem, fewer entries than four n-length rows per boundary;
        # their n-length fields are read-only arrays built on access.
        q, p0, evs = lockstep_batch()
        caches = forward_backward_many(q, p0, evs)
        assert all(c._sweep is caches[0]._sweep for c in caches)
        boundaries = sum(len(c.times) for c in caches)
        rows = caches[0]._sweep
        assert rows.ins.size + rows.outs.size < 4 * boundaries * q.n
        for name in ("fwd", "bwd_post"):
            first = getattr(caches[0], name)
            assert first.shape == (len(caches[0].times), q.n) and not first.flags.writeable, name


class TestFixedOrderProducts:
    def test_one_column_products_ignore_padding(self):
        # einsum sums a single output column in an order that depends on
        # the row length; _rows_dot must not, so zero padding of either
        # side leaves every product bitwise as it is.
        rng = np.random.default_rng(3)
        for _ in range(300):
            r, w, extra, wide = (int(v) for v in rng.integers(1, [6, 17, 9, 9]))
            x, blocks = rng.random((r, w)), rng.random((r, w, 1))
            padded_x = np.zeros((r, w + extra))
            padded_x[:, :w] = x
            padded = np.zeros((r, w + extra, wide))
            padded[:, :w, :1] = blocks
            want = inference._rows_dot(x, blocks)
            assert inference._rows_dot(padded_x, padded)[:, :1].tobytes() == want.tobytes()

    @pytest.mark.parametrize("seed", [256, 646, 907, 997, 1352])
    def test_random_batches_match_lone_sweeps(self, seed):
        # Random evidence whose rate boundaries enter one-state subsystems
        # from wider ones, in steps padded by the rows beside them: every
        # cache equals its lone sweep bitwise.
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 9))
        q = validate_intensity(random_proper(rng, n, 0.05, 20.0))
        p0 = random_distribution(rng, n)
        evs = [random_evidence(rng, n, float(rng.uniform(0.0, 5.0))) for _ in range(int(rng.integers(2, 6)))]
        for got, ev in zip(forward_backward_many(q, p0, evs), evs):
            want = forward_backward_many(q, p0, [ev])[0]
            for name in ("fwd", "fwd_log", "fwd_pre", "fwd_pre_log", "bwd", "bwd_log", "bwd_post", "bwd_post_log"):
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


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
        split = inference._split_batch(q, evs)
        origin, _, rate_before = inference._pieces(split)
        dts, times, counts = split.dts[origin], split.times, split.counts
        masks = np.zeros((len(origin), q.n), dtype=bool)
        for piece, o in enumerate(origin):
            lo = split.lists.sizes[:o].sum()
            masks[piece, split.lists.states[lo : lo + split.lists.sizes[o]]] = True
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
    """Above _TABLE_MAX_STATES states the sweeps apply the uniformization
    series to a segment's messages on its subsystem; up to it, exponential
    blocks from the shared power tables. The n = 32 data holds both."""

    def setup_method(self):
        self.model = binary_ring_model(5)
        self.q, self.space, self.p0 = amalgamate(self.model)
        self.evs = [rec.to_evidence(self.space) for rec in ring32_records()]
        sizes = np.concatenate([ev.masks.sum(axis=1) for ev in self.evs])
        assert (sizes > inference._TABLE_MAX_STATES).any() and (sizes <= inference._TABLE_MAX_STATES).any()

    def test_builds_no_exponential_and_matches_taylor_forward_pass(self, monkeypatch):
        # The module has no Pade exponential to call.
        assert not hasattr(inference, "expm")
        monkeypatch.setattr(inference, "_TABLE_MAX_STATES", 0)
        for ev in self.evs:
            cache = forward_backward(self.q, self.p0, ev)
            want = taylor_log_prob(self.q.entries, self.p0, ev)
            assert abs(cache.log_prob - want) <= 1e-12 * max(1.0, abs(want))
        first = forward_backward(self.q, self.p0, self.evs[0])
        assert (first.factor_kind == 1).any()
        assert (first.seg_dt == 0.0).any()
        assert len(first.seg_dt) > self.evs[0].n_segments

    def test_caches_agree_with_dense_form(self, monkeypatch):
        monkeypatch.setattr(inference, "_TABLE_MAX_STATES", 0)
        series = [forward_backward(self.q, self.p0, ev) for ev in self.evs]
        monkeypatch.setattr(inference, "_TABLE_MAX_STATES", self.q.n)
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
        assert len(list(inference._batches(self.q, dataset))) == 1
        assert score_dataset(self.model, dataset) == [forward_backward(self.q, self.p0, ev).log_prob
                                                      for ev in dataset]

    def test_forward_backward_mismatch_is_an_error(self, monkeypatch):
        # Both sweeps share each segment's truncated series, so cutting it
        # early moves both log-likelihoods alike; a backward sweep whose
        # series is cut at 1e-3 after an exact forward sweep does not.
        ev = self.evs[0]
        sweep = inference._sweep(self.q, self.p0, inference._split_batch(self.q, [ev]), backward=False)
        assert forward_backward(self.q, self.p0, ev).log_prob == sweep.log_prob(0)
        with monkeypatch.context() as patch:
            patch.setattr(inference, "_SWEEP_TAIL", 1e-3)
            loose = inference._Propagator(self.q, sweep.split.lists, sweep.split.dts)
        propagate = inference._Propagator.propagate

        def loose_backward(prop, v, step, out):
            # The batch's own exact propagator for the forward rows, the
            # loose one for the backward rows.
            propagate(prop, v, step, out)
            cut = np.zeros_like(out)
            propagate(loose, v, step, cut)
            out[step.dst[step.columns]] = cut[step.dst[step.columns]]

        monkeypatch.setattr(inference._Propagator, "propagate", loose_backward)
        with pytest.raises(ForwardBackwardMismatchError) as err:
            inference._sweep(self.q, self.p0, inference._split_batch(self.q, [ev]), first=7)
        assert err.value.trajectory_index == 7
        assert err.value.log_prob == sweep.log_prob(0)
        gap = abs(err.value.log_prob - err.value.log_prob_backward)
        assert gap > inference.FORWARD_BACKWARD_TOL * abs(err.value.log_prob)


def ring64_cache():
    """The n = 64 ring's generator and the cache of one record over a split
    hidden stretch, a full observation, a partly observed stretch whose
    subsystems exceed _TABLE_MAX_STATES and a hidden tail."""
    model = binary_ring_model(6, seed=1)
    q, space, p0 = amalgamate(model)
    hidden = (None,) * 6
    record = ObservedTrajectory(
        ((0.0, 3.0, hidden), (3.0, 3.5, (0,) * 6), (3.5, 5.0, (1, None, 0, None, 0, None)), (5.0, 6.0, hidden)),
        6.0,
    )
    return q, forward_backward(q, p0, record.to_evidence(space))


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
        q, cache = ring64_cache()
        sizes = cache.seg_masks.sum(axis=1)
        assert (sizes > inference._TABLE_MAX_STATES).any() and (sizes <= inference._TABLE_MAX_STATES).any()
        assert len(cache.seg_dt) > 4
        for t in (0.3, 2.9, 4.2, 5.5):
            i = int(np.searchsorted(cache.times, t)) - 1
            m = cache.seg_masks[i]
            q_s = np.where(np.outer(m, m), q.entries, 0.0)
            a = cache.fwd[i] @ taylor_expm(q_s * (t - cache.times[i]))
            b = taylor_expm(q_s * (cache.times[i + 1] - t)) @ (cache.bwd[i + 1] * m)
            np.testing.assert_allclose(smoothed_marginal(cache, t), a * b / (a * b).sum(), rtol=0, atol=1e-12)


class TestSmoothedMarginalTimes:
    """Many query times in one call: each row equals the scalar query of its
    time bitwise, and every interior time shares one propagator."""

    @staticmethod
    def assert_rows_match_scalar_calls(cache, times):
        got = smoothed_marginal(cache, np.array(times))
        assert got.shape == (len(times), cache.q.n)
        for row, t in zip(got, times):
            assert row.tobytes() == smoothed_marginal(cache, t).tobytes(), t

    def test_boundaries_and_subsystem_series(self):
        # t = 0, the horizon, the boundaries of the split stretch and of
        # the observations, and interior times, one of them twice, some in
        # segments whose subsystem is the joint space.
        q, cache = ring64_cache()
        sizes = cache.seg_masks.sum(axis=1)
        inside = cache.times[:-1] + 0.4 * cache.seg_dt
        series = inside[(sizes > inference._TABLE_MAX_STATES) & (cache.seg_dt > 0.0)]
        assert series.size
        times = [0.0, 6.0, *cache.times[1:4], 3.0, 3.5, 5.0, *series, 0.3, 2.9, 4.2, 5.5, 2.9]
        self.assert_rows_match_scalar_calls(cache, times)

    def test_series_on_subsystem_blocks(self):
        # One of six variables observed leaves 32 of the 64 joint states, so
        # the series runs on the |S| x |S| blocks of W; its flip at 2.0 is a
        # rate boundary.
        model = binary_ring_model(6, seed=1)
        q, space, p0 = amalgamate(model)
        hidden = (None,) * 6
        record = ObservedTrajectory(
            ((0.0, 2.0, (None, 0, *hidden[2:])), (2.0, 4.0, (None, 1, *hidden[2:])), (4.0, 4.5, hidden)), 4.5
        )
        cache = forward_backward(q, p0, record.to_evidence(space))
        sizes = cache.seg_masks.sum(axis=1)
        assert (sizes == 32).any() and (cache.factor_kind == 1).any()
        self.assert_rows_match_scalar_calls(cache, [0.0, 0.7, 1.9, 2.0, 2.6, 3.99, 4.0, 4.2, 4.5])

    def test_zero_length_segment(self):
        # An observed instant at 0.6 between two hidden stretches: the query
        # there hits the boundary after the zero-length segment.
        rng = np.random.default_rng(3)
        q = validate_intensity(random_proper(rng, 3))
        full = Subsystem.full(3)
        ev = Evidence(((full, 0.0, 0.6), (Subsystem.single(3, 1), 0.6, 0.6), (full, 0.6, 1.0)), 1.0)
        cache = forward_backward(q, random_distribution(rng, 3), ev)
        assert (cache.seg_dt == 0.0).any()
        times = [0.6, 0.0, 0.3, 1.0, 0.6, 0.9]
        self.assert_rows_match_scalar_calls(cache, times)
        assert np.allclose(smoothed_marginal(cache, np.array(times))[0], [0.0, 1.0, 0.0], atol=1e-12)

    def test_empty_times(self):
        q, cache = ring64_cache()
        assert smoothed_marginal(cache, np.array([])).shape == (0, q.n)
        assert smoothed_marginal(cache, []).shape == (0, q.n)

    def test_one_propagator_for_many_times(self, monkeypatch):
        q, cache = ring64_cache()
        built = []
        propagator = inference._Propagator

        def counted(*args):
            built.append(len(args[2]))
            return propagator(*args)

        monkeypatch.setattr(inference, "_Propagator", counted)
        times = np.linspace(0.01, 5.99, 50)
        assert not np.isin(times, cache.times).any()
        smoothed_marginal(cache, times)
        assert built == [100]

    def test_out_of_range_time_is_named(self):
        q, cache = ring64_cache()
        for bad in (6.5, -0.25, math.nan):
            with pytest.raises(ValueError, match=f"query time {bad!r} outside"):
                smoothed_marginal(cache, np.array([0.5, bad, 7.0]))
        with pytest.raises(ValueError):
            smoothed_marginal(cache, np.zeros((2, 2)))


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
        assert np.allclose(expected_statistics(cache).dwell, [2.0, 2.0], atol=1e-8)

    def test_dwell_example_matches_oracle(self):
        q = validate_intensity([[-1.0, 1.0], [2.0, -2.0]])
        tau = 1.0
        ev = Evidence(
            ((Subsystem.full(2), 0.0, tau), (Subsystem.single(2, 1), tau, tau)), tau
        )
        cache = forward_backward(q, [1.0, 0.0], ev)
        _, dwell_o, trans_o, _ = chain_oracle(q.entries, np.array([1.0, 0.0]), ev, 1e-4)
        assert rel_err(expected_statistics(cache).dwell, dwell_o) < 1e-3
        assert rel_err(expected_statistics(cache).transitions, trans_o) < 2e-3

    def test_zero_rate_means_zero_transitions(self):
        q = validate_intensity([[-1.0, 1.0, 0.0], [0.5, -1.0, 0.5], [0.0, 2.0, -2.0]])
        rng = np.random.default_rng(6)
        ev = observed_evidence(rng, q.entries, np.array([1.0, 0, 0]), 2.0)
        cache = forward_backward(q, [1.0, 0, 0], ev)
        m = expected_statistics(cache).transitions
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
            assert expected_statistics(cache).dwell.sum() == pytest.approx(tau, abs=1e-6)

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
        m1 = expected_statistics(c1).transitions
        m2 = expected_statistics(c2).transitions
        assert np.abs(m1 - m2).max() < 1e-6
        assert np.abs(2.0 * expected_statistics(c2).dwell - expected_statistics(c1).dwell).max() < 1e-6


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

    @pytest.mark.parametrize("mu", [4.0, 40.0], ids=["one-piece", "pieces"])
    def test_sparse_ring_generator(self, mu):
        # The joint generator of a five-variable ring, n = 32 with five
        # transitions per state: its joint space is above the table size,
        # so the integrals take the series on its transitions, and above
        # the stiffness cap the pieces are carried across by the series too.
        q = amalgamate(binary_ring_model(5))[0]
        n = q.n
        assert n > inference._TABLE_MAX_STATES and len(q.transitions[0]) == 5 * n
        rng = np.random.default_rng(17)
        alpha = random_distribution(rng, n)
        beta = rng.uniform(0.1, 1.0, n)
        dt = mu / np.abs(np.diagonal(q.entries)).max()
        assert (mu > inference._SEGMENT_STIFFNESS_CAP) == (mu == 40.0)
        j = convolution_integrals(alpha, q, beta, dt, 1e-10)
        block = np.zeros((2 * n, 2 * n))
        block[:n, :n] = block[n:, n:] = q.entries.T
        block[:n, n:] = np.outer(alpha, beta)
        van_loan = taylor_expm(block * dt)[:n, n:]
        assert np.abs(j - van_loan).max() <= 1e-8 * np.abs(van_loan).max()
        if mu < inference._SEGMENT_STIFFNESS_CAP:
            oracle = trapezoid_convolution(q.entries, alpha, beta, dt, m=50_000)
            assert np.abs(j - oracle).max() <= 1e-8 * np.abs(oracle).max()

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
        # The kernel reads the end vectors in each subsystem's coordinates.
        on_s = [np.r_[v[r][masks[r]], np.zeros(n - masks[r].sum())] for v in (f0, beta) for r in range(m)]
        _convolution_batch(u, np.arange(m), np.array(on_s[:m]), np.array(on_s[m:]), np.arange(m), tol,
                           np.zeros((m, n)), js, False)
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


@st.composite
def bucket_batches(draw):
    """A dense generator on 16 states and rows in buckets: 2 to 5 masks of
    2 to 16 states, 2 to 4 rows each, shuffled, each row in one of 1 to 3
    groups, with nonnegative end vectors and lambda * dt up to the
    stiffness cap (zero for some rows)."""
    n = 16
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q = random_proper(rng, n, 0.05, 2.0)
    n_groups = draw(st.integers(1, 3))
    masks = []
    for _ in range(draw(st.integers(2, 5))):
        mask = np.zeros(n, dtype=bool)
        mask[rng.choice(n, draw(st.integers(2, n)), replace=False)] = True
        masks.extend([mask] * draw(st.integers(2, 4)))
    masks = rng.permutation(np.array(masks))
    m = len(masks)
    groups = rng.integers(0, n_groups, m)
    lam = np.where(masks, -np.diagonal(q), 0.0).max(axis=1)
    dts = np.where(rng.random(m) < 0.1, 0.0, rng.uniform(0.0, 16.0, m)) / lam
    f0 = np.where(rng.random((m, n)) < 0.2, 0.0, rng.random((m, n)))
    return q, masks, dts, f0, rng.random((m, n)), groups


class TestBucketKernel:
    """Rows of 2 to _TABLE_MAX_STATES states are summed per bucket of one
    mask and one group before the double series runs once per bucket."""

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(bucket_batches())
    def test_group_sums_equal_lone_rows(self, batch):
        # Each row alone is a bucket of its own; summed per group, the
        # rows must give the buckets' sums to rounding, also where every
        # slice holds one row, so that each bucket is cut across slices.
        q, masks, dts, f0, beta, groups = batch
        m, n = f0.shape
        u = inference._Uniformization(validate_intensity(q), masks, dts)
        assert u.tabled.all()

        def sums(rows, g):
            out = np.zeros((3, n, n))
            _convolution_batch(u, rows, f0[rows], beta[rows], g, 1e-8, np.zeros((3, n)), out, False)
            return out

        want = np.zeros((3, n, n))
        for r in range(m):
            want[groups[r]] += sums(np.array([r]), np.zeros(1, dtype=np.intp))[0]
        whole = sums(np.arange(m), groups)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(inference, "_BATCH_ELEMENTS", 8)
            parts = sums(np.arange(m), groups)
        for got in (whole, parts):
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(initial=1e-300)

    def test_integrals_build_no_power_table(self, monkeypatch):
        rng = np.random.default_rng(4)
        n, m = 8, 12
        masks = rng.random((m, n)) < 0.6
        masks[:, :2] = True
        u = inference._Uniformization(validate_intensity(random_proper(rng, n)), masks, rng.uniform(0.0, 0.5, m))
        assert u.tabled.all()

        def refuse(*args):
            raise AssertionError("the integrals built a power table")

        monkeypatch.setattr(inference, "_power_tables", refuse)
        dwell, out = np.zeros((1, n)), np.zeros((1, n, n))
        _convolution_batch(u, np.arange(m), rng.random((m, n)), rng.random((m, n)), np.zeros(m, dtype=np.intp),
                           1e-8, dwell, out)
        assert (dwell > 0.0).all() and (out > 0.0).any()


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
        caches = forward_backward_many(validate_intensity(q), p0, evs)
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

    @pytest.mark.parametrize("table_max", [None, 0, 64], ids=["default", "all-series", "all-tables"])
    def test_random_masks(self, monkeypatch, table_max):
        # A dense generator on n = 64 states, exit rates about 1.3: every
        # disjoint pair of masks has transitions between them. Subsystems
        # of one state, a few states, most of the space and all of it; at
        # the default crossover they take table blocks and the series, the
        # joint space included.
        if table_max is not None:
            monkeypatch.setattr(inference, "_TABLE_MAX_STATES", table_max)
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


@st.composite
def phase_ctbns(draw):
    """A CTBN of four variables with random parents (cycles allowed) and
    rates, w with two or three hidden phases per state and x, y, z binary
    (32 or 48 joint states), and two to four window-occluded records of
    it: the generator, the initial distribution and the evidence."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    names = ("w", "x", "y", "z")
    cims = {}
    for name in names:
        parents = tuple(p for p in names if p != name and draw(st.booleans()))
        mats = np.exp(rng.uniform(np.log(0.3), np.log(3.0), (2 ** len(parents), 2)))
        cims[name] = Cim(parents, (2,) * len(parents), np.array([[[-a, a], [b, -b]] for a, b in mats]))
    base = CtbnModel(tuple(Variable(v, (v + "0", v + "1")) for v in names), cims, {v: [0.5, 0.5] for v in names})
    spec = PhaseSpec({"w": draw(st.integers(2, 3))}, topology=draw(st.sampled_from(["chain", "unrestricted"])))
    model, _ = expand_phases(base, spec)
    q, space, p0 = amalgamate(model)
    fraction, window = draw(st.sampled_from([0.3, 0.6])), draw(st.sampled_from([0.25, 0.5]))
    evs = []
    for _ in range(draw(st.integers(2, 4))):
        traj = sample_trajectory(p0, q, 2.0, rng)
        per_var = [space.project(traj, v) for v in range(space.k)]
        evs.append(occlude_observed(per_var, OcclusionPolicy(fraction, window), rng).to_evidence(space))
    return q.entries, p0, evs


class TestPhaseCtbnOracle:
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(phase_ctbns())
    def test_lockstep_loop_matches_joint_space(self, case):
        # The one lockstep loop over random four-variable CTBNs, one
        # variable's phases hidden, under window occlusion: both sweeps'
        # log-likelihoods, the smoothed marginals and the statistics
        # against the joint-space oracle, at its bounds.
        q, p0, evs = case
        TestSubsystemOracle().check(q, p0, evs)


def phase_space_generator():
    """The generator of a phase-expanded model on 24 joint states: w with
    three hidden phases per state, x and y binary, each variable driven by
    another. Its first state is made absorbing, so a one-state subsystem
    there has no exit."""
    base = CtbnModel(
        (Variable("w", ("w1", "w2")), Variable("x", ("x0", "x1")), Variable("y", ("y0", "y1"))),
        {"w": Cim(("x",), (2,), np.array([[[-1.0, 1.0], [2.0, -2.0]], [[-3.0, 3.0], [0.5, -0.5]]])),
         "x": Cim(("y",), (2,), np.array([[[-0.7, 0.7], [1.2, -1.2]], [[-2.0, 2.0], [0.4, -0.4]]])),
         "y": Cim(("w",), (2,), np.array([[[-1.5, 1.5], [0.8, -0.8]], [[-0.6, 0.6], [2.5, -2.5]]]))},
        {"w": [1.0, 0.0], "x": [0.5, 0.5], "y": [0.5, 0.5]},
    )
    model, _ = expand_phases(base, PhaseSpec({"w": 3}, topology="unrestricted"))
    q = amalgamate(model)[0].entries.copy()
    q[0] = 0.0
    return q


class TestSharedTables:
    """One batch that mixes masks met many times and masks met once,
    one-state subsystems with and without an exit, every size from 2 to 16
    and mu from 0 to the stiffness cap, on a phase-expanded space: the
    segments' exponentials against ``taylor_expm`` and the statistics
    against the joint-space oracle."""

    cap = inference._SEGMENT_STIFFNESS_CAP

    def pool(self, rng, n):
        """Three masks to be met many times (one holding the absorbing
        state), the two one-state masks and one mask of every size from 2
        to 16."""
        many = [np.isin(np.arange(n), np.r_[0, rng.choice(np.arange(1, n), 4, replace=False)]),
                np.isin(np.arange(n), rng.choice(n, 7, replace=False)),
                np.isin(np.arange(n), rng.choice(n, 16, replace=False))]
        one = [np.arange(n) == 0, np.arange(n) == 5]
        once = [np.isin(np.arange(n), rng.choice(n, s, replace=False)) for s in range(2, 17)]
        return many, one, once

    def test_blocks_match_taylor(self, monkeypatch):
        q = phase_space_generator()
        n = len(q)
        rng = np.random.default_rng(8)
        many, one, once = self.pool(rng, n)
        exit = -np.diagonal(q)
        masks, mus = [], []
        for mask in many + one:
            masks += [mask] * 22
            mus += [0.0, self.cap, *rng.uniform(0.0, self.cap, 20)]
        for mask in once:
            masks.append(mask)
            mus.append(rng.uniform(0.0, self.cap))
        masks, mus = np.array(masks), np.array(mus)
        # A subsystem without exits is uniformized at rate 1.
        lam = np.where(masks, exit, 0.0).max(axis=1)
        dts = mus / np.where(lam > 0.0, lam, 1.0)
        perm = rng.permutation(len(dts))
        masks, dts = masks[perm], dts[perm]
        assert set(masks.sum(axis=1).tolist()) == set(range(1, 17))
        assert (dts == 0.0).any() and (np.where(masks, exit, 0.0).max(axis=1) * dts == self.cap).any()

        # The blocks come from the power tables: the module has no Pade
        # exponential to call.
        assert not hasattr(inference, "expm")
        tables = []
        power_tables = inference._power_tables
        monkeypatch.setattr(inference, "_power_tables", lambda *args: tables.append(args) or power_tables(*args))
        prop = inference._Propagator(validate_intensity(q), masks, dts)
        # One stack of tables per subsystem size, not one table per mask.
        assert 0 < len(tables) <= 15 < len(np.unique(masks, axis=0))
        for r, (mask, dt) in enumerate(zip(masks, dts)):
            want = taylor_expm(q[np.ix_(mask, mask)] * dt)
            eye = np.eye(n)[mask]
            rows = prop.forward(eye, np.full(len(eye), r))
            cols = prop.backward(eye, np.full(len(eye), r))
            assert not rows[:, ~mask].any() and not cols[:, ~mask].any()
            for got in (rows[:, mask], cols[:, mask].T):
                assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_statistics_match_joint_space(self):
        q = phase_space_generator()
        n = len(q)
        rng = np.random.default_rng(9)
        many, one, once = self.pool(rng, n)
        pool = many * 4 + one + once
        p0 = random_distribution(rng, n)
        w = q - np.diag(np.diagonal(q))
        evs = []
        while len(evs) < 6:
            seq = [pool[rng.integers(len(pool))]]
            while len(seq) < 9:
                # Each boundary projects onto an overlapping mask or asserts
                # a transition that W allows.
                mask = pool[rng.integers(len(pool))]
                if (seq[-1] & mask).any() or w[np.ix_(seq[-1], mask)].any():
                    seq.append(mask)
            times = np.concatenate(([0.0], np.sort(rng.uniform(0.0, 3.0, len(seq) - 1)), [3.0]))
            ev = Evidence(tuple((Subsystem.from_mask(m), float(a), float(b))
                                for m, a, b in zip(seq, times, times[1:])), 3.0)
            # Keep the draws that the evidence leaves possible.
            with np.errstate(divide="ignore"):
                if taylor_log_prob(q, p0, ev) > -100.0:
                    evs.append(ev)
        masks = np.concatenate([ev.masks for ev in evs])
        assert set(masks.sum(axis=1).tolist()) >= {1, 5, 7, 16}
        caches = TestSubsystemOracle().check(q, p0, evs)
        assert any((c.factor_kind == 1).any() for c in caches)


def ring1024_records(count):
    """The n = 1024 ring and ``count`` of its records over a horizon of 2,
    window-occluded."""
    model = binary_ring_model(10, seed=3)
    q, space, p0 = amalgamate(model)
    rng = np.random.default_rng(5)
    dataset = []
    for _ in range(count):
        traj = sample_trajectory(p0, q, 2.0, rng)
        per_var = [space.project(traj, v) for v in range(space.k)]
        dataset.append(occlude_observed(per_var, OcclusionPolicy(0.25, 0.25), rng).to_evidence(space))
    return model, q, dataset


class TestSubsystemWidth:
    def test_no_matrix_wider_than_the_largest_subsystem(self, monkeypatch):
        # Joint n = 1024 under window occlusion: every restricted transition
        # list and every series product of the integrals is at most as wide
        # as the widest subsystem the evidence leaves, far below n. The
        # module builds no Pade exponential.
        model, q, dataset = ring1024_records(2)
        largest = int(max(ev.masks.sum(axis=1).max() for ev in dataset))
        assert 2 * inference._TABLE_MAX_STATES < largest < q.n // 4
        assert not hasattr(inference, "expm")
        widths = []
        restrict, powers = inference._restrict, inference._powers

        def recording_restrict(transitions, a, b):
            widths.extend((int(a[1].max(initial=0)), int(b[1].max(initial=0))))
            return restrict(transitions, a, b)

        def recording_powers(v, *rest):
            widths.append(v.shape[1])
            return powers(v, *rest)

        monkeypatch.setattr(inference, "_restrict", recording_restrict)
        monkeypatch.setattr(inference, "_powers", recording_powers)
        _, ll = e_step(model, dataset)
        assert widths and max(widths) <= largest
        widths.clear()
        assert math.fsum(score_dataset(model, dataset)) == pytest.approx(ll, rel=1e-12)
        assert widths and max(widths) <= largest
        # The evidence holds its subsystems as lists, no n-length row each.
        for ev in dataset:
            sizes = [a.size for a in _arrays(ev, set())]
            assert sizes and max(sizes) < ev.n_segments * q.n

    def test_memory_follows_the_batch_budget_not_n(self, monkeypatch):
        # Twelve records, 664 evidence segments: one n-length row per segment
        # would take 5.4 MB and an n x n matrix 8.4 MB. With the batches held
        # to 2^14 entries and the generator built beforehand, the E-step and
        # the scores peak below a quarter of either (1.1 and 0.8 MB), most of
        # it the largest record's own lists: every row and list the sweeps
        # and the statistics hold is on a subsystem.
        model, q, dataset = ring1024_records(12)
        segments = sum(ev.n_segments for ev in dataset)
        built = amalgamate(model)
        monkeypatch.setattr(learning, "amalgamate", lambda *args: built)
        monkeypatch.setattr(inference, "_BATCH_ELEMENTS", 1 << 14)
        for run in (lambda: e_step(model, dataset), lambda: score_dataset(model, dataset)):
            tracemalloc.start()
            try:
                run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak * 4 < min(segments * q.n, q.n * q.n) * 8
