import gc
import math
import weakref
from functools import cached_property

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctbnlearn import (
    Cim,
    CtbnModel,
    EmConfig,
    Evidence,
    FlatFamilyProvider,
    ForwardBackwardMismatchError,
    ObservedTrajectory,
    OcclusionPolicy,
    PhaseSpec,
    SemConfig,
    Subsystem,
    Variable,
    ZeroProbabilityEvidenceError,
    aggregate_statistics,
    amalgamate,
    bic_score,
    e_step,
    em,
    expand_phases,
    expected_statistics,
    family_log_likelihood,
    forward_backward,
    m_step,
    occlude_observed,
    random_parameters,
    sample_trajectories,
    sample_trajectory,
    score_dataset,
    sem,
    smoothed_marginal,
    structure_search,
)
from ctbnlearn import inference
from ctbnlearn.inference import DEFAULT_QUAD_TOL, FlatStatistics, expected_statistics_many, forward_backward_many
from ctbnlearn.learning import _flat_e_step
from ctbnlearn.markov import IntensityMatrix
from ctbnlearn.model import FamilyStatistics
from helpers import (
    binary_chain_model,
    binary_ring_model,
    chain_oracle,
    independent_binary_model,
    rel_err,
    taylor_expm,
    taylor_log_prob,
)


def fully_observed_dataset(model, count, horizon, seed):
    q, space, p0 = amalgamate(model)
    dataset = []
    trajs = []
    for s in np.random.SeedSequence(seed).spawn(count):
        traj = sample_trajectory(p0, q, horizon, np.random.default_rng(s))
        trajs.append(traj)
        dataset.append(Evidence.fully_observed(traj, space.n_joint))
    return dataset, trajs, space


def scattered(n, transitions):
    """The counts listed as (src, dst, count) on an n x n matrix."""
    src, dst, count = transitions
    out = np.zeros((n, n))
    out[src, dst] = count
    return out


def dense_provider(space, t, m):
    """A provider of the dense counts m, read at every pair of joint states
    that differ in one variable."""
    j, k = (np.concatenate(a) for a in zip(*(space.transitions(v)[:2] for v in range(space.k))))
    return FlatFamilyProvider(space, t, (j, k, m[j, k]))


def exact_family_stats(model, trajs, space):
    t = sum((tr.dwell_times(space.n_joint) for tr in trajs), np.zeros(space.n_joint))
    m = sum((tr.transition_counts(space.n_joint) for tr in trajs), np.zeros((space.n_joint,) * 2))
    return aggregate_statistics(FlatStatistics(t, m), space, model)


class TestScoreDataset:
    def test_forward_pass_scores_occluded_evidence(self):
        # The hidden stretch [0, 4) is split for stiffness; the observed
        # flip of a at t = 4.5 is a rate boundary; the third record asserts
        # a simultaneous flip of a and b, which has probability zero.
        model = binary_chain_model()
        q, space, p0 = amalgamate(model)
        hidden = (None, None, None)
        good = [
            ObservedTrajectory(
                ((0.0, 4.0, hidden), (4.0, 4.5, (0, 0, 0)), (4.5, 5.0, (1, 0, 0)), (5.0, 6.0, (None, 0, None))),
                6.0,
            ),
            ObservedTrajectory(((0.0, 1.0, (0, None, 1)), (1.0, 6.0, hidden)), 6.0),
        ]
        bad = ObservedTrajectory(((0.0, 1.0, (0, 0, 0)), (1.0, 2.0, (1, 1, 0))), 2.0)
        dataset = [rec.to_evidence(space) for rec in good]
        caches = [forward_backward(q, p0, ev) for ev in dataset]
        assert (caches[0].factor_kind == 1).any()
        assert len(caches[0].seg_dt) > dataset[0].n_segments
        assert score_dataset(model, dataset) == [c.log_prob for c in caches]
        with pytest.raises(ZeroProbabilityEvidenceError) as err:
            score_dataset(model, dataset + [bad.to_evidence(space)])
        assert err.value.trajectory_index == 2


class TestEStep:
    def test_empty_dataset(self):
        model = binary_chain_model()
        stats, ll = e_step(model, [])
        assert ll == 0.0
        for name in model.names:
            assert not stats.time[name].any()

    def test_fully_observed_statistics_are_exact(self):
        model = binary_chain_model()
        dataset, trajs, space = fully_observed_dataset(model, 12, 3.0, seed=0)
        stats, ll = e_step(model, dataset)
        exact = exact_family_stats(model, trajs, space)
        for name in model.names:
            assert np.abs(stats.time[name] - exact.time[name]).max() < 1e-10
            assert np.abs(stats.trans[name] - exact.trans[name]).max() < 1e-10

    def test_likelihood_matches_score_dataset(self):
        model = binary_chain_model()
        dataset, _, _ = fully_observed_dataset(model, 6, 2.0, seed=1)
        _, ll = e_step(model, dataset)
        assert ll == pytest.approx(math.fsum(score_dataset(model, dataset)), abs=1e-12)

    def test_order_independent(self):
        model = binary_chain_model()
        dataset, _, _ = fully_observed_dataset(model, 10, 2.0, seed=2)
        stats1, ll1 = e_step(model, dataset)
        stats2, ll2 = e_step(model, dataset[::-1])
        assert ll1 == pytest.approx(ll2, abs=1e-12)
        for name in model.names:
            assert np.abs(stats1.time[name] - stats2.time[name]).max() < 1e-12

    def test_occluded_statistics_match_oracle_sums(self):
        from ctbnlearn import OcclusionPolicy, occlude

        model = independent_binary_model()
        q, space, p0 = amalgamate(model)
        h = 1e-4
        dataset = []
        oracle_t = np.zeros(4)
        oracle_m = np.zeros((4, 4))
        for i, s in enumerate(np.random.SeedSequence(3).spawn(6)):
            rng = np.random.default_rng(s)
            traj = sample_trajectory(p0, q, 1.0, rng)
            pervar = [space.project(traj, v) for v in range(2)]
            ev = occlude(pervar, space, OcclusionPolicy(0.3, 0.25), rng)
            # Snap breakpoints onto the oracle grid.
            segs = tuple(
                (sub, round(a / h) * h, round(b / h) * h) for sub, a, b in ev.segments
            )
            segs = tuple((s_, a, b if j < len(segs) - 1 else 1.0) for j, (s_, a, b) in enumerate(segs))
            ev = Evidence(segs, 1.0)
            dataset.append(ev)
            _, d, m, _ = chain_oracle(q.entries, p0, ev, h)
            oracle_t += d
            oracle_m += m
        space2, tbar, listed, _, _ = _flat_e_step(model, dataset, 1e-8, 4096)
        mbar = scattered(4, listed)
        assert np.abs(tbar - oracle_t).max() / oracle_t.max() < 1e-3
        assert np.abs(mbar - oracle_m).max() / oracle_m.max() < 1e-3

    def test_zero_probability_names_the_trajectory(self):
        model = independent_binary_model()
        q, space, p0 = amalgamate(model)
        good = Evidence.vacuous(4, 1.0)
        bad = Evidence(
            ((Subsystem.single(4, 0), 0.0, 0.5), (Subsystem.single(4, 3), 0.5, 1.0)), 1.0
        )
        with pytest.raises(ZeroProbabilityEvidenceError) as err:
            e_step(model, [good, bad])
        assert err.value.trajectory_index == 1


def chain_records():
    """Occluded records of the n = 8 chain: a zero-length observation at
    t = 0, a hidden stretch stiff enough to be split, fully observed
    (singleton) segments with observed flips (rate boundaries) and partly
    hidden stretches."""
    hidden = (None, None, None)
    segs = [
        ((0.0, 0.0, (0, 0, 0)), (0.0, 7.0, hidden), (7.0, 7.5, (0, 0, 0)), (7.5, 8.0, (1, 0, 0)),
         (8.0, 9.0, (None, 0, None))),
        ((0.0, 1.0, (0, None, 1)), (1.0, 9.0, hidden)),
        ((0.0, 1.0, (0, 0, 0)), (1.0, 2.5, (0, 1, 0)), (2.5, 3.0, (0, 1, 1)), (3.0, 9.0, (None, 1, None))),
        ((0.0, 9.0, hidden),),
        ((0.0, 0.0, (1, 1, 0)), (0.0, 2.0, (1, None, None)), (2.0, 2.0, (1, 0, 0)), (2.0, 9.0, hidden)),
    ]
    return [ObservedTrajectory(s, 9.0) for s in segs]


def ring_records():
    """Occluded records of the n = 32 ring with the same features."""
    hidden = (None,) * 5
    zeros = (0,) * 5
    segs = [
        ((0.0, 0.0, zeros), (0.0, 4.0, hidden), (4.0, 4.5, zeros), (4.5, 5.0, (1, 0, 0, 0, 0)),
         (5.0, 5.0, (1, None, 0, 0, 0)), (5.0, 8.0, (None, 0, None, None, None)), (8.0, 10.0, hidden)),
        ((0.0, 10.0, hidden),),
        ((0.0, 2.0, (None, 1, None, 0, None)), (2.0, 2.5, (1, 1, 0, 0, 1)), (2.5, 10.0, hidden)),
    ]
    return [ObservedTrajectory(s, 10.0) for s in segs]


def public_e_step(model, dataset, tol):
    """The E-step's sums from public per-trajectory calls."""
    q, space, p0 = amalgamate(model)
    caches = [forward_backward(q, p0, ev) for ev in dataset]
    stats = [expected_statistics(c, tol) for c in caches]
    g0 = np.sum([smoothed_marginal(c, 0.0) for c in caches], axis=0)
    init = {v.name: space.variable_state_marginal(g0, vi) for vi, v in enumerate(model.variables)}
    tbar = np.sum([s.dwell for s in stats], axis=0)
    mbar = np.sum([s.transitions for s in stats], axis=0)
    return tbar, mbar, init, [c.log_prob for c in caches]


def three_batches(monkeypatch, dataset, q, elements):
    """Patch the batch budget; returns the batch sizes, at least three, some
    holding several trajectories."""
    monkeypatch.setattr(inference, "_BATCH_ELEMENTS", elements)
    sizes = [len(b.evs) for b in inference._batches(q, dataset)]
    assert len(sizes) >= 3 and max(sizes) > 1
    return sizes


class TestBatchedEStep:
    """The E-step sums its statistics over whole lockstep batches; they must
    equal the sums of the public per-trajectory calls."""

    @pytest.mark.parametrize(
        "model, records, elements",
        [(binary_chain_model(), chain_records(), 1000), (binary_ring_model(5), ring_records(), 5000)],
        ids=["pade-n8", "series-n32"],
    )
    def test_sums_equal_public_per_trajectory_calls(self, monkeypatch, model, records, elements):
        q, space, p0 = amalgamate(model)
        dataset = [rec.to_evidence(space) for rec in records] * 3
        sizes = np.concatenate([ev.masks.sum(axis=1) for ev in dataset])
        assert (sizes > inference._TABLE_MAX_STATES).any() == (q.n == 32)
        first = forward_backward(q, p0, dataset[0])
        assert (first.factor_kind == 1).any()
        assert len(first.seg_dt) > dataset[0].n_segments
        assert first.seg_dt[0] == 0.0 and first.times[1] == 0.0
        assert any((ev.masks.sum(axis=1) == 1).any() & (ev.durations > 0).any() for ev in dataset)
        three_batches(monkeypatch, dataset, q, elements)

        # The series of a batch's integrals runs to the cutoff of its
        # largest mu, so at a loose tolerance a lone trajectory is cut
        # earlier than inside a batch (both within the tolerance); at this
        # one the cut is below rounding and only the bookkeeping is judged.
        tol = 1e-14
        _, tbar, listed, init, lls = _flat_e_step(model, dataset, tol, 4096)
        mbar = scattered(q.n, listed)
        want_t, want_m, want_init, want_lls = public_e_step(model, dataset, tol)
        assert rel_err(tbar, want_t) <= 1e-12
        assert rel_err(mbar, want_m) <= 1e-12
        for name in model.names:
            assert rel_err(init[name], want_init[name]) <= 1e-12
        assert rel_err(lls, want_lls) <= 1e-12
        assert tbar.sum() == pytest.approx(sum(ev.horizon for ev in dataset), rel=1e-12)

    @pytest.mark.parametrize(
        "model, records",
        [(binary_chain_model(), chain_records()), (binary_ring_model(5), ring_records())],
        ids=["pade-n8", "series-n32"],
    )
    def test_sums_equal_lone_calls_at_default_tolerance(self, model, records):
        # Every row of the integrals' series stops at its own Poisson tail,
        # so a trajectory's statistics do not move with its batch-mates even
        # where the tail bound is far above rounding. At the default budget
        # all rows share one batch and kernel slices hold many rows.
        q, space, p0 = amalgamate(model)
        dataset = [rec.to_evidence(space) for rec in records] * 3
        assert len(list(inference._batches(q, dataset))) == 1
        _, tbar, listed, init, lls = _flat_e_step(model, dataset, DEFAULT_QUAD_TOL, 4096)
        mbar = scattered(q.n, listed)
        want_t, want_m, want_init, want_lls = public_e_step(model, dataset, DEFAULT_QUAD_TOL)
        assert rel_err(tbar, want_t) <= 1e-12
        assert rel_err(mbar, want_m) <= 1e-12
        for name in model.names:
            assert rel_err(init[name], want_init[name]) <= 1e-12
        assert rel_err(lls, want_lls) <= 1e-12

    @pytest.mark.parametrize(
        "model, records, elements",
        [(binary_chain_model(), chain_records(), 1000), (binary_ring_model(5), ring_records(), 5000)],
        ids=["pade-n8", "series-n32"],
    )
    def test_off_diagonal_built_once_per_pass(self, monkeypatch, model, records, elements):
        # The sweeps, the boundary factors and the integrals of every batch
        # share the joint generator's one transition list, built once per
        # pass.
        space = model.space()
        dataset = [rec.to_evidence(space) for rec in records] * 3
        three_batches(monkeypatch, dataset, amalgamate(model)[0], elements)
        builds = []
        build = IntensityMatrix._from_transitions.__func__
        joint = {}

        def counted(cls, n, *transitions):
            builds.append(n)
            q = build(cls, n, *transitions)
            joint["list"] = q.transitions
            return q

        monkeypatch.setattr(IntensityMatrix, "_from_transitions", classmethod(counted))
        # Every restricted transition list, which every product by W reads,
        # is cut from that one list.
        used = set()
        restrict = inference._restrict

        def cutting(transitions, *rest):
            used.add(id(transitions))
            return restrict(transitions, *rest)

        monkeypatch.setattr(inference, "_restrict", cutting)

        def caches_and_statistics(model, dataset):
            q, _, p0 = amalgamate(model)
            expected_statistics_many(forward_backward_many(q, p0, dataset))

        for run in (e_step, score_dataset, caches_and_statistics):
            builds.clear()
            used.clear()
            run(model, dataset)
            assert builds == [space.n_joint]
            assert used == {id(joint["list"])}

    @pytest.mark.parametrize(
        "model, records", [(binary_chain_model(), chain_records()), (binary_ring_model(5), ring_records())],
        ids=["pade-n8", "series-n32"],
    )
    def test_no_dense_generator(self, monkeypatch, model, records):
        # Every reader of an amalgamated Q takes its exit rates and its
        # transition list: the dense n x n view is built only on request.
        space = model.space()
        dataset = [rec.to_evidence(space) for rec in records]
        builds = []
        view = IntensityMatrix.entries.func

        def counted(self):
            builds.append(self.n)
            return view(self)

        spy = cached_property(counted)
        spy.__set_name__(IntensityMatrix, "entries")
        monkeypatch.setattr(IntensityMatrix, "entries", spy)
        e_step(model, dataset)
        score_dataset(model, dataset)
        q, _, p0 = amalgamate(model)
        caches = forward_backward_many(q, p0, dataset)
        expected_statistics_many(caches)
        smoothed_marginal(caches[0], np.linspace(0.0, dataset[0].horizon, 7))
        sample_trajectories(p0, q, 5.0, 20, seed=0)
        assert builds == []
        assert q.entries.shape == (q.n, q.n)
        assert builds == [q.n]

    def test_no_pass_reads_the_masks(self, monkeypatch):
        # The passes read the evidence's subsystems as the lists it holds;
        # its boolean masks are a view for callers, built on access.
        model = binary_ring_model(5)
        q, space, p0 = amalgamate(model)
        dataset = occluded_dataset(model, 12, 5.0, 7, OcclusionPolicy(0.5, 0.5))
        sizes = np.concatenate([ev.sizes for ev in dataset])
        assert (sizes == 1).any() and (sizes > inference._TABLE_MAX_STATES).any()
        three_batches(monkeypatch, dataset, q, 40000)

        def forbidden(self):
            raise AssertionError("evidence masks read by a pass")

        monkeypatch.setattr(Evidence, "masks", property(forbidden))
        e_step(model, dataset)
        score_dataset(model, dataset)
        caches = forward_backward_many(q, p0, dataset)
        expected_statistics_many(caches)
        smoothed_marginal(caches[0], np.linspace(0.0, dataset[0].horizon, 7))
        em(model, dataset, EmConfig(max_iter=1, init="given"))

    @pytest.mark.parametrize(
        "model, records, elements",
        [(binary_chain_model(), chain_records(), 1000), (binary_ring_model(5), ring_records(), 5000)],
        ids=["pade-n8", "series-n32"],
    )
    def test_batches_equal_their_own_split(self, monkeypatch, model, records, elements):
        # The evidence is split in runs that batches straddle; a batch cut
        # from runs joined equals the split of its trajectories alone, its
        # lists numbered as one, so the runs change no result.
        q, space, _ = amalgamate(model)
        dataset = [rec.to_evidence(space) for rec in records] * 4
        split = inference._split_batch
        runs = []

        def recording_split(q, evs):
            runs.append(len(evs))
            return split(q, evs)

        monkeypatch.setattr(inference, "_split_batch", recording_split)
        three_batches(monkeypatch, dataset, q, elements)
        runs.clear()
        batches = list(inference._batches(q, dataset))
        sizes = [len(b.evs) for b in batches]
        ends = np.cumsum(sizes)
        assert any(lo < cut < hi for cut in np.cumsum(runs) for lo, hi in zip(ends - sizes, ends))

        def same(a, b):
            if isinstance(a, np.ndarray):
                return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
            return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))

        for batch in batches:
            alone = split(q, batch.evs)
            assert all(x is y for x, y in zip(batch.evs, alone.evs))
            for name in inference._Split._fields[1:]:
                assert same(getattr(batch, name), getattr(alone, name)), name

    def test_builds_no_per_trajectory_objects(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("built on the E-step path")

        for name in ("MessageCache", "FlatStatistics", "smoothed_marginal"):
            monkeypatch.setattr(inference, name, forbidden)
        model = binary_chain_model()
        dataset = [rec.to_evidence(model.space()) for rec in chain_records()]
        em(model, dataset, EmConfig(max_iter=2, init="given"))
        sem(model, dataset, SemConfig(em=EmConfig(max_iter=1, init="given"), em_iters=1, max_rounds=1))
        score_dataset(model, dataset)

    def test_zero_probability_names_the_global_index(self, monkeypatch):
        model = binary_chain_model()
        q, space, p0 = amalgamate(model)
        dataset = [rec.to_evidence(space) for rec in chain_records()] * 3
        # A simultaneous flip of a and b has probability zero.
        bad = ObservedTrajectory(((0.0, 1.0, (0, 0, 0)), (1.0, 9.0, (1, 1, 0))), 9.0).to_evidence(space)
        sizes = three_batches(monkeypatch, dataset, q, 1000)
        at = sizes[0] + sizes[1] + 1
        dataset.insert(at, bad)
        assert at < sum(three_batches(monkeypatch, dataset, q, 1000)[:3])
        with pytest.raises(ZeroProbabilityEvidenceError) as err:
            e_step(model, dataset)
        assert err.value.trajectory_index == at

    def test_forward_backward_mismatch_names_the_global_index(self, monkeypatch):
        # Only the backward application of the one segment observing
        # (1, 1, 1) is off by 1e-6, so only its trajectory disagrees.
        model = binary_chain_model()
        q, space, p0 = amalgamate(model)
        dataset = [rec.to_evidence(space) for rec in chain_records()] * 3
        odd = ObservedTrajectory(((0.0, 1.0, (1, 1, 1)), (1.0, 9.0, (None, 1, None))), 9.0).to_evidence(space)
        sizes = three_batches(monkeypatch, dataset, q, 1000)
        at = sizes[0] + sizes[1] + 1
        dataset.insert(at, odd)
        assert at < sum(three_batches(monkeypatch, dataset, q, 1000)[:3])
        e_step(model, dataset)
        propagate = inference._Propagator.propagate
        target = np.flatnonzero(odd.masks[0])

        def perturbed(self, v, step, out):
            propagate(self, v, step, out)
            held = [self.states[self.lo[s] : self.lo[s] + self.sizes[s]] for s in step.seg]
            hit = step.columns & np.array([np.array_equal(states, target) for states in held], dtype=bool)
            out[step.dst[hit]] *= 1.0 + 1e-6

        monkeypatch.setattr(inference._Propagator, "propagate", perturbed)
        with pytest.raises(ForwardBackwardMismatchError) as err:
            e_step(model, dataset)
        assert err.value.trajectory_index == at

    def test_swept_batches_are_let_go(self, monkeypatch):
        # Every loop over lockstep batches drops a swept batch, and with it
        # its propagator, before it sweeps the next one.
        model = binary_ring_model(5)
        q, space, p0 = amalgamate(model)
        dataset = [rec.to_evidence(space) for rec in ring_records()] * 3
        three_batches(monkeypatch, dataset, q, 5000)
        sweep = inference._sweep
        swept = []

        def watched(*args, **kwargs):
            gc.collect()
            assert [ref() for ref in swept] == [None] * len(swept)
            f = sweep(*args, **kwargs)
            swept.append(weakref.ref(f.prop))
            return f

        monkeypatch.setattr(inference, "_sweep", watched)
        for run in (lambda: e_step(model, dataset), lambda: score_dataset(model, dataset),
                    lambda: forward_backward_many(q, p0, dataset)):
            swept.clear()
            run()
            assert len(swept) >= 3

    def test_vacuous_record_on_the_joint_space(self):
        # Joint n = 64: a record hidden throughout is held in the joint
        # space, above the table size and split for stiffness, so its
        # sweeps and integrals take the series on the generator's
        # transitions. The log-likelihoods against the Taylor forward pass;
        # the vacuous record's dwell times against Van Loan's integral of
        # the transient distribution, and its transition counts against
        # those dwell times times the rates.
        model = binary_ring_model(6)
        q, space, p0 = amalgamate(model)
        n, horizon = q.n, 3.0
        assert n > inference._TABLE_MAX_STATES
        assert np.abs(np.diagonal(q.entries)).max() * horizon > inference._SEGMENT_STIFFNESS_CAP
        vacuous = Evidence.vacuous(n, horizon)
        partly = ObservedTrajectory(((0.0, 2.5, (None,) * 6), (2.5, horizon, (0,) + (None,) * 5)),
                                    horizon).to_evidence(space)
        dataset = [vacuous, partly]
        _, ll = e_step(model, dataset)
        want = [taylor_log_prob(q.entries, p0, ev) for ev in dataset]
        assert abs(want[0]) <= 1e-12 and want[1] < -0.1
        assert ll == pytest.approx(math.fsum(want), rel=1e-10, abs=1e-12)

        _, tbar, listed, _, _ = _flat_e_step(model, [vacuous], DEFAULT_QUAD_TOL, 4096)
        mbar = scattered(n, listed)
        block = np.zeros((2 * n, 2 * n))
        block[:n, :n] = q.entries
        block[:n, n:] = np.eye(n)
        dwell = p0 @ taylor_expm(block * horizon)[:n, n:]
        assert rel_err(tbar, dwell) <= 1e-8
        assert rel_err(mbar, dwell[:, None] * (q.entries - np.diag(np.diagonal(q.entries)))) <= 1e-8


@st.composite
def small_ctbns(draw):
    """A CTBN of 2-3 variables with 2-3 states, random parents (cycles
    allowed), random supports and rates, and window-occluded data."""
    k = draw(st.integers(2, 3))
    dims = [draw(st.integers(2, 3)) for _ in range(k)]
    names = [f"x{i}" for i in range(k)]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cims = {}
    for i, name in enumerate(names):
        others = [j for j in range(k) if j != i]
        parents = tuple(j for j in others if draw(st.booleans()))
        d = dims[i]
        support = ~np.eye(d, dtype=bool)
        if d == 3:
            # Drop one of the two exits of a random state.
            x = rng.integers(d)
            support[x, rng.choice(np.flatnonzero(support[x]))] = False
        n_u = int(np.prod([dims[j] for j in parents])) if parents else 1
        mats = np.exp(rng.uniform(np.log(0.3), np.log(3.0), (n_u, d, d))) * support
        mats -= np.eye(d) * mats.sum(axis=2, keepdims=True)
        cims[name] = Cim(tuple(names[j] for j in parents), tuple(dims[j] for j in parents), mats, support)
    variables = tuple(Variable(n, tuple(f"{n}s{s}" for s in range(d))) for n, d in zip(names, dims))
    model = CtbnModel(variables, cims, {n: np.full(d, 1.0 / d) for n, d in zip(names, dims)})
    q, space, p0 = amalgamate(model)
    fraction = draw(st.sampled_from([0.0, 0.3, 0.6]))
    records = []
    for _ in range(draw(st.integers(1, 4))):
        traj = sample_trajectory(p0, q, 3.0, rng)
        per_var = [space.project(traj, v) for v in range(k)]
        records.append(occlude_observed(per_var, OcclusionPolicy(fraction, 0.5), rng))
    return model, [rec.to_evidence(space) for rec in records]


class TestEStepProperties:
    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(small_ctbns())
    def test_invariants_and_monotone_em(self, case):
        model, dataset = case
        q, _, _ = amalgamate(model)
        # A tolerance far below the checked bounds: the dwell gap is the
        # bookkeeping's, not the series cut's (at most tol per unit time).
        _, tbar, listed, _, lls = _flat_e_step(model, dataset, 1e-14, 4096)
        mbar = scattered(q.n, listed)
        horizon = sum(ev.horizon for ev in dataset)
        assert abs(tbar.sum() - horizon) <= 1e-9 * horizon
        off_support = (q.entries == 0.0) | np.eye(q.n, dtype=bool)
        assert not mbar[off_support].any()
        ll = math.fsum(lls)
        assert ll == pytest.approx(math.fsum(score_dataset(model, dataset)), rel=1e-12, abs=1e-12)
        trace = em(model, dataset, EmConfig(max_iter=3, tol=1e-12, init="given")).trace
        for prev, nxt in zip(trace, trace[1:]):
            assert nxt >= prev - 1e-9 * abs(prev)


class TestMStep:
    def test_rate_quotient(self):
        model = independent_binary_model(names=("x",), rates=((1.0, 1.0),))
        stats = FamilyStatistics(
            time={"x": np.array([[6.0, 1.0]])},
            trans={"x": np.array([[[0.0, 3.0], [1.0, 0.0]]])},
        )
        new = m_step(stats, model)
        assert new.cims["x"].matrices[0, 0, 0] == pytest.approx(-0.5, abs=1e-15)
        assert new.cims["x"].matrices[0, 0, 1] == pytest.approx(0.5, abs=1e-15)

    def test_split_proportions(self):
        v = Variable("x", ("a", "b", "c"))
        cim = Cim((), (), np.array([[[-1.0, 0.5, 0.5], [1.0, -1.0, 0.0], [1.0, 0.0, -1.0]]]))
        model = CtbnModel((v,), {"x": cim}, {"x": [1.0, 0.0, 0.0]})
        stats = FamilyStatistics(
            time={"x": np.array([[4.0, 1.0, 1.0]])},
            trans={"x": np.array([[[0.0, 2.0, 6.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]])},
        )
        new = m_step(stats, model)
        q = -new.cims["x"].matrices[0, 0, 0]
        theta = new.cims["x"].matrices[0, 0, 1:] / q
        assert q == pytest.approx(2.0, abs=1e-12)
        assert np.allclose(theta, [0.25, 0.75], atol=1e-12)

    def test_unvisited_rows_keep_previous_rates(self):
        model = binary_chain_model()
        stats = FamilyStatistics(
            time={n: np.zeros_like(model.cims[n].matrices[:, :, 0]) for n in model.names},
            trans={n: np.zeros_like(model.cims[n].matrices) for n in model.names},
        )
        new = m_step(stats, model)
        for name in model.names:
            assert np.array_equal(new.cims[name].matrices, model.cims[name].matrices)

    def test_dwell_without_exits_gives_uniform_split(self):
        v = Variable("x", ("a", "b", "c"))
        cim = Cim((), (), np.array([[[-1.0, 0.5, 0.5], [1.0, -1.0, 0.0], [1.0, 0.0, -1.0]]]))
        model = CtbnModel((v,), {"x": cim}, {"x": [1.0, 0.0, 0.0]})
        time = np.array([[5.0, 1.0, 1.0]])
        trans = np.zeros((1, 3, 3))
        trans[0, 1, 0] = trans[0, 2, 0] = 1.0
        new = m_step(FamilyStatistics(time={"x": time}, trans={"x": trans}), model)
        row = new.cims["x"].matrices[0, 0]
        assert row[1] == row[2]
        assert row[0] == pytest.approx(-(row[1] + row[2]), abs=1e-15)

    def test_monte_carlo_consistency(self):
        # Exact statistics of a long complete trajectory recover the rates
        # within three standard errors (se of a rate estimate is q/sqrt(M)).
        model = independent_binary_model(names=("x",), rates=((1.3, 0.6),))
        dataset, trajs, space = fully_observed_dataset(model, 1, 4000.0, seed=4)
        stats = exact_family_stats(model, trajs, space)
        new = m_step(stats, model)
        for x, true_q in enumerate((1.3, 0.6)):
            est = -new.cims["x"].matrices[0, x, x]
            se = true_q / math.sqrt(stats.exits("x")[0, x])
            assert abs(est - true_q) < 3 * se

    def test_mstep_is_the_maximizer(self):
        # Perturbing any rate or any exit split away from the M-step value
        # cannot increase the expected log-likelihood.
        model = binary_chain_model()
        dataset, trajs, space = fully_observed_dataset(model, 20, 3.0, seed=5)
        stats = exact_family_stats(model, trajs, space)
        best = m_step(stats, model)
        base = family_log_likelihood(best, stats)
        rng = np.random.default_rng(6)
        for _ in range(30):
            name = rng.choice(model.names)
            cim = best.cims[name]
            mats = cim.matrices.copy()
            u = rng.integers(cim.n_instantiations)
            x = rng.integers(cim.dim)
            row = mats[u, x].copy()
            q = -row[x]
            if q <= 0:
                continue
            theta = np.delete(row, x) / q
            if rng.uniform() < 0.5:
                q *= 1.0 + rng.choice((-1e-4, 1e-4))
            else:
                bump = rng.dirichlet(np.ones(theta.size))
                theta = (1 - 1e-4) * theta + 1e-4 * bump
                theta /= theta.sum()
            new_row = np.insert(q * theta, x, -q)
            mats[u, x] = new_row
            other = best.with_cims({name: Cim(cim.parents, cim.parent_cards, mats, cim.support)})
            assert family_log_likelihood(other, stats) <= base + 1e-12

    def test_matches_grid_search_on_one_parameter(self):
        stats = FamilyStatistics(
            time={"x": np.array([[6.0, 1.0]])},
            trans={"x": np.array([[[0.0, 3.0], [2.0, 0.0]]])},
        )
        grid = np.linspace(0.3, 0.7, 4001)
        values = [3.0 * math.log(q) - q * 6.0 for q in grid]
        best_grid = grid[int(np.argmax(values))]
        model = independent_binary_model(names=("x",), rates=((1.0, 2.0),))
        new = m_step(stats, model)
        assert abs(-new.cims["x"].matrices[0, 0, 0] - best_grid) < 1e-4


class TestEm:
    def test_config_rejects_quad_tol_below_epsilon(self):
        for bad in (0.0, -1.0, 1e-300, float("nan")):
            with pytest.raises(ValueError):
                EmConfig(quad_tol=bad)
        assert EmConfig(quad_tol=np.finfo(float).eps).quad_tol == np.finfo(float).eps

    @pytest.mark.parametrize("rate_range", [(0.1, math.inf), (math.nan, 1.0), (0.1, math.nan), (math.inf, math.inf)])
    def test_config_rejects_non_finite_rate_range(self, rate_range):
        with pytest.raises(ValueError, match="rate range"):
            EmConfig(rate_range=rate_range)

    def test_fully_observed_converges_in_one_step(self):
        model = binary_chain_model()
        dataset, trajs, space = fully_observed_dataset(model, 15, 3.0, seed=7)
        start = random_parameters(model, np.random.default_rng(0))
        fit = em(start, dataset, EmConfig(init="given", tol=1e-9, freeze_initial=True))
        stats = exact_family_stats(model, trajs, space)
        ml = m_step(stats, start)
        for name in model.names:
            assert np.abs(fit.model.cims[name].matrices - ml.cims[name].matrices).max() < 1e-12
        assert fit.converged and fit.n_iter <= 2

    def test_fixed_point_is_stable(self):
        model = binary_chain_model()
        dataset, trajs, space = fully_observed_dataset(model, 10, 3.0, seed=8)
        stats = exact_family_stats(model, trajs, space)
        ml = m_step(stats, model)
        stats2, _ = e_step(ml, dataset)
        again = m_step(stats2, ml, freeze_initial=True)
        for name in model.names:
            assert np.abs(again.cims[name].matrices - ml.cims[name].matrices).max() < 1e-12

    def test_trace_is_monotone_under_occlusion(self):
        from ctbnlearn import OcclusionPolicy, occlude

        model = binary_chain_model()
        q, space, p0 = amalgamate(model)
        dataset = []
        for s in np.random.SeedSequence(9).spawn(20):
            rng = np.random.default_rng(s)
            traj = sample_trajectory(p0, q, 3.0, rng)
            pervar = [space.project(traj, v) for v in range(space.k)]
            dataset.append(occlude(pervar, space, OcclusionPolicy(0.3, 0.25), rng))
        fit = em(model, dataset, EmConfig(max_iter=15, init="random", restarts=1, seed=10))
        diffs = np.diff(np.array(fit.trace))
        assert (diffs >= -1e-9).all()

    def test_seeded_runs_are_identical(self):
        model = binary_chain_model()
        dataset, _, _ = fully_observed_dataset(model, 8, 2.0, seed=11)
        cfg = EmConfig(max_iter=5, init="random", restarts=2, seed=123)
        a = em(model, dataset, cfg)
        b = em(model, dataset, cfg)
        assert a.trace == b.trace
        for name in model.names:
            assert np.array_equal(a.model.cims[name].matrices, b.model.cims[name].matrices)


class TestBic:
    def test_unit_sample_size_has_no_penalty(self):
        model = binary_chain_model()
        dataset, trajs, space = fully_observed_dataset(model, 4, 2.0, seed=12)
        stats = exact_family_stats(model, trajs, space)
        total, per_family = bic_score(stats, model, 1)
        ml = m_step(stats, model)
        assert total == pytest.approx(family_log_likelihood(ml, stats), abs=1e-9)
        assert total == pytest.approx(math.fsum(per_family.values()), abs=1e-12)

    def test_single_cell_with_penalty(self):
        # ln(0.5) - 1 - (ln e^2)/2 * 1 free parameter = -2.6931471806.
        v = Variable("x", ("a", "b"))
        support = np.array([[False, True], [False, False]])
        cim = Cim((), (), np.array([[[-0.5, 0.5], [0.0, 0.0]]]), support)
        model = CtbnModel((v,), {"x": cim}, {"x": [1.0, 0.0]})
        stats = FamilyStatistics(
            time={"x": np.array([[2.0, 0.0]])},
            trans={"x": np.array([[[0.0, 1.0], [0.0, 0.0]]])},
        )
        total, _ = bic_score(stats, model, int(round(math.e**2)))
        w = int(round(math.e**2))
        expected = math.log(0.5) - 1.0 - 0.5 * math.log(w) * 1
        assert total == pytest.approx(expected, abs=1e-12)

    def test_spurious_parent_rejected_at_large_w(self):
        model = independent_binary_model(names=("x", "y"), rates=((1.0, 2.0), (0.6, 1.4)))
        rejected = 0
        for seed in range(20):
            dataset, trajs, space = fully_observed_dataset(model, 1000, 2.0, seed=100 + seed)
            t = sum((tr.dwell_times(4) for tr in trajs), np.zeros(4))
            m = sum((tr.transition_counts(4) for tr in trajs), np.zeros((4, 4)))
            provider = dense_provider(space, t, m)
            graph = structure_search(provider, model, 1, 1000)
            if graph["x"] == ():
                rejected += 1
        assert rejected >= 18


class TestStructureSearch:
    def strong_dependency_model(self):
        # c's rates depend on b with a 10x ratio; a and b are independent.
        va, vb, vc = (Variable(n, (f"{n}0", f"{n}1")) for n in "abc")
        cims = {
            "a": Cim((), (), np.array([[[-1.0, 1.0], [1.2, -1.2]]])),
            "b": Cim((), (), np.array([[[-0.9, 0.9], [1.1, -1.1]]])),
            "c": Cim(
                ("b",),
                (2,),
                np.array([[[-0.3, 0.3], [0.3, -0.3]], [[-3.0, 3.0], [3.0, -3.0]]]),
            ),
        }
        initial = {n: [0.5, 0.5] for n in "abc"}
        return CtbnModel((va, vb, vc), cims, initial)

    def test_zero_max_parents_gives_empty_graph(self):
        model = self.strong_dependency_model()
        dataset, trajs, space = fully_observed_dataset(model, 50, 2.0, seed=13)
        t = sum((tr.dwell_times(8) for tr in trajs), np.zeros(8))
        m = sum((tr.transition_counts(8) for tr in trajs), np.zeros((8, 8)))
        graph = structure_search(dense_provider(space, t, m), model, 0, 50)
        assert graph == {"a": (), "b": (), "c": ()}

    def test_empty_sample_is_refused(self):
        model = self.strong_dependency_model()
        space = model.space()
        provider = dense_provider(space, np.zeros(8), np.zeros((8, 8)))
        with pytest.raises(ValueError, match="sample size"):
            structure_search(provider, model, 1, 0)
        with pytest.raises(ValueError, match="sample size"):
            sem(model, [])

    def test_single_variable_has_no_candidates(self):
        model = independent_binary_model(names=("x",), rates=((1.0, 2.0),))
        dataset, trajs, space = fully_observed_dataset(model, 5, 2.0, seed=14)
        t = trajs[0].dwell_times(2)
        m = trajs[0].transition_counts(2)
        graph = structure_search(dense_provider(space, t, m), model, 2, 5)
        assert graph == {"x": ()}

    def test_strong_dependency_recovered(self):
        model = self.strong_dependency_model()
        hits = 0
        for seed in range(20):
            dataset, trajs, space = fully_observed_dataset(model, 1000, 2.0, seed=200 + seed)
            t = sum((tr.dwell_times(8) for tr in trajs), np.zeros(8))
            m = sum((tr.transition_counts(8) for tr in trajs), np.zeros((8, 8)))
            graph = structure_search(dense_provider(space, t, m), model, 2, 1000)
            if graph["c"] == ("b",):
                hits += 1
        assert hits >= 18

    def test_per_variable_choices_are_independent(self):
        model = self.strong_dependency_model()
        dataset, trajs, space = fully_observed_dataset(model, 300, 2.0, seed=15)
        t = sum((tr.dwell_times(8) for tr in trajs), np.zeros(8))
        m = sum((tr.transition_counts(8) for tr in trajs), np.zeros((8, 8)))
        provider = dense_provider(space, t, m)
        full = structure_search(provider, model, 2, 300)
        narrowed = structure_search(
            provider, model, 2, 300, candidates={"a": (), "b": (), "c": ("a", "b")}
        )
        assert narrowed["c"] == full["c"]


class TestSem:
    def test_empty_graph_recovered(self):
        model = independent_binary_model(
            names=("x", "y", "z"), rates=((1.0, 2.0), (0.6, 1.4), (0.8, 0.9))
        )
        cfg = SemConfig(
            em=EmConfig(max_iter=3, tol=1e-4, init="given", restarts=1),
            max_parents=2,
            em_iters=1,
            max_rounds=3,
        )
        hits = 0
        for seed in range(20):
            dataset, _, _ = fully_observed_dataset(model, 1000, 1.0, seed=300 + seed)
            fit = sem(model, dataset, cfg)
            if all(fit.model.parents(n) == () for n in model.names):
                hits += 1
        assert hits >= 18

    def test_true_structure_start_matches_plain_em(self):
        model = binary_chain_model()
        dataset, _, _ = fully_observed_dataset(model, 100, 2.0, seed=16)
        em_cfg = EmConfig(max_iter=10, tol=1e-9, init="given", restarts=1)
        plain = em(model, dataset, em_cfg)
        fit = sem(model, dataset, SemConfig(em=em_cfg, max_parents=2, em_iters=2, max_rounds=4))
        assert fit.model.graph() == model.graph()
        assert fit.log_likelihood == pytest.approx(plain.log_likelihood, abs=1e-9)

    def test_bic_trace_never_decreases(self):
        model = self_model = TestStructureSearch().strong_dependency_model()
        dataset, _, _ = fully_observed_dataset(model, 200, 2.0, seed=17)
        fit = sem(
            model,
            dataset,
            SemConfig(em=EmConfig(max_iter=3, tol=1e-6, init="random", restarts=1, seed=5),
                      max_parents=2, em_iters=1, max_rounds=6),
        )
        trace = np.array(fit.bic_trace)
        assert (np.diff(trace) >= 0).all()

    def test_recorded_bic_is_bic_score_of_the_chosen_graph(self, monkeypatch):
        # Each round's BIC is the structure search's own sum; it must equal
        # bic_score of the graph chosen, on that round's statistics
        # re-aggregated under that graph.
        from ctbnlearn import learning

        model = binary_chain_model()
        q, space, p0 = amalgamate(model)
        rng = np.random.default_rng(23)
        dataset = []
        for _ in range(60):
            traj = sample_trajectory(p0, q, 3.0, rng)
            per_var = [space.project(traj, v) for v in range(space.k)]
            dataset.append(occlude_observed(per_var, OcclusionPolicy(0.25, 0.25), rng).to_evidence(space))
        rounds = []
        search = learning._search

        def recording_search(provider, model, *args):
            graph, score = search(provider, model, *args)
            rounds.append((provider, model, graph, score))
            return graph, score

        monkeypatch.setattr(learning, "_search", recording_search)
        unit = np.array([[[-1.0, 1.0], [1.0, -1.0]]])
        edgeless = CtbnModel(model.variables, {n: Cim((), (), unit) for n in model.names}, model.initial)
        cfg = SemConfig(em=EmConfig(max_iter=2, tol=1e-6, init="given", restarts=1),
                        max_parents=2, em_iters=1, max_rounds=4)
        fit = sem(edgeless, dataset, cfg)
        assert len(fit.bic_trace) >= 2 and fit.model.graph() == model.graph()
        assert fit.bic_trace == tuple(score for *_, score in rounds[: len(fit.bic_trace)])
        for provider, round_model, graph, score in rounds:
            chosen = learning._rebuild_for_graph(round_model, graph, provider)
            flat = FlatStatistics(provider.dwell, scattered(space.n_joint, provider.transitions))
            stats = aggregate_statistics(flat, space, chosen)
            total, _ = bic_score(stats, chosen, len(dataset))
            assert total == pytest.approx(score, rel=1e-12, abs=1e-12)


class TestBatchBudget:
    """600 window-occluded records of the n = 8 chain over a horizon of 5:
    the E-step sweeps them in a few large batches while every power table,
    every product by the tables and every stack of the integrals' buckets
    stays small."""

    def test_batches_and_slices_stay_within_the_budget(self, monkeypatch):
        model = binary_chain_model()
        q, space, p0 = amalgamate(model)
        rng = np.random.default_rng(42)
        dataset = []
        for _ in range(600):
            traj = sample_trajectory(p0, q, 5.0, rng)
            per_var = [space.project(traj, v) for v in range(space.k)]
            dataset.append(occlude_observed(per_var, OcclusionPolicy(0.25, 0.25), rng).to_evidence(space))

        budget = inference._BATCH_ELEMENTS
        sizes = {"table": [], "slice": [], "bucket": []}
        tables, runs_dot, bucket_sums = inference._power_tables, inference._runs_dot, inference._bucket_sums

        def recording_tables(*args):
            out = tables(*args)
            sizes["table"].append(out.size)
            return out

        def recording_runs_dot(*args, **kwargs):
            out = runs_dot(*args, **kwargs)
            sizes["slice"].append(out.size)
            return out

        def recording_bucket_sums(c, prod, *args):
            # Per slice of the integrals' buckets: the rows' weights C and
            # products U, and the buckets' stack E.
            out = bucket_sums(c, prod, *args)
            sizes["bucket"].extend((c.size, prod.size, out.size))
            return out

        monkeypatch.setattr(inference, "_power_tables", recording_tables)
        monkeypatch.setattr(inference, "_runs_dot", recording_runs_dot)
        monkeypatch.setattr(inference, "_bucket_sums", recording_bucket_sums)
        e_step(model, dataset)
        assert sizes["table"] and max(sizes["table"]) <= budget // 8
        assert sizes["slice"] and max(sizes["slice"]) <= budget // 8
        assert sizes["bucket"] and max(sizes["bucket"]) <= budget // 8

        width = inference._series_width()
        estimates = [int(inference._entries(batch, width).sum()) for batch in inference._batches(q, dataset)]
        assert len(estimates) > 1
        assert max(estimates) <= budget
        assert len(estimates) <= math.ceil(sum(estimates) / budget) + 1


def occluded_dataset(model, count, horizon, seed, policy=OcclusionPolicy(0.25, 0.25)):
    """``count`` window-occluded records of the model, as evidence."""
    q, space, p0 = amalgamate(model)
    rng = np.random.default_rng(seed)
    dataset = []
    for _ in range(count):
        traj = sample_trajectory(p0, q, horizon, rng)
        per_var = [space.project(traj, v) for v in range(space.k)]
        dataset.append(occlude_observed(per_var, policy, rng).to_evidence(space))
    return dataset


def phase_model():
    """w with three hidden phases per state, x and y binary, each driven by
    another: 24 joint states."""
    base = CtbnModel(
        (Variable("w", ("w1", "w2")), Variable("x", ("x0", "x1")), Variable("y", ("y0", "y1"))),
        {"w": Cim(("x",), (2,), np.array([[[-1.0, 1.0], [2.0, -2.0]], [[-3.0, 3.0], [0.5, -0.5]]])),
         "x": Cim(("y",), (2,), np.array([[[-0.7, 0.7], [1.2, -1.2]], [[-2.0, 2.0], [0.4, -0.4]]])),
         "y": Cim(("w",), (2,), np.array([[[-1.5, 1.5], [0.8, -0.8]], [[-0.6, 0.6], [2.5, -2.5]]]))},
        {"w": [1.0, 0.0], "x": [0.5, 0.5], "y": [0.5, 0.5]},
    )
    return expand_phases(base, PhaseSpec({"w": 3}, topology="unrestricted"))[0]


def _arrays(obj, seen):
    """Every array reachable from obj, each once, none of those in seen."""
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        yield obj
        return
    if isinstance(obj, (list, tuple)):
        items = obj
    elif hasattr(obj, "__dict__"):
        items = vars(obj).values()
    else:
        return
    for item in items:
        yield from _arrays(item, seen)


def recorded_plans(monkeypatch):
    """Patch ``inference._Plan`` to keep every plan it builds."""
    plans = []
    plan = inference._Plan

    def recording(*args):
        plans.append(plan(*args))
        return plans[-1]

    monkeypatch.setattr(inference, "_Plan", recording)
    return plans


class TestStepPlan:
    """Each lockstep batch is planned once for both sweeps, and the loop
    takes one step per segment position of the batch's longest trajectory."""

    @pytest.mark.parametrize("case", ["ring-n32", "chain-n8", "phase-n24"])
    def test_plan_stays_within_the_batch_estimate(self, monkeypatch, case):
        # A plan holds O(segments + sum |S1| |S2|) entries, never a padded
        # index or block for the whole batch: it stays within the entries
        # the batch budget counts for the batch.
        if case == "ring-n32":
            model = binary_ring_model(5)
            dataset = [rec.to_evidence(model.space()) for rec in ring_records()] * 3
        elif case == "chain-n8":
            model = binary_chain_model()
            dataset = occluded_dataset(model, 600, 5.0, 42)
        else:
            model = phase_model()
            dataset = occluded_dataset(model, 200, 5.0, 7)
        q = amalgamate(model)[0]
        plans = recorded_plans(monkeypatch)
        e_step(model, dataset)
        batches = list(inference._batches(q, dataset))
        assert len(plans) == len(batches) and (len(batches) > 1) == (case != "ring-n32")
        width = inference._series_width()
        for plan, batch in zip(plans, batches):
            held = sum(a.size for a in vars(plan).values() if isinstance(a, np.ndarray))
            estimate = inference._entries(batch, width).sum()
            assert 0 < held <= estimate

    def test_plan_of_wide_subsystems_stays_within_the_batch_estimate(self):
        # Joint n = 1024, 60% hidden in windows of 1.0: subsystems up to the
        # whole joint space meet at rate boundaries. Each step gathers its
        # own W blocks, so the plan stays within the batch estimate; the
        # blocks of all of a batch's rate boundaries would hold 11 to 26
        # times it. The plans are built alone: sweeping this data takes
        # far longer than planning it.
        model = binary_ring_model(10, seed=3)
        q, _, _ = amalgamate(model)
        dataset = occluded_dataset(model, 20, 5.0, 0, OcclusionPolicy(0.6, 1.0))
        width = inference._series_width()
        batches = list(inference._batches(q, dataset))
        assert len(batches) > 1
        for batch in batches:
            prop = inference._Propagator(q, batch.lists, batch.dts)
            plan = inference._Plan(prop, batch, True)
            assert (prop.sizes[plan.rate_leave] * prop.sizes[plan.rate_enter]).max() > 4 * q.n
            held = sum(a.size for a in vars(plan).values() if isinstance(a, np.ndarray))
            estimate = inference._entries(batch, width).sum()
            assert 0 < held <= estimate

    def test_batches_hold_what_they_count(self, monkeypatch):
        # Joint n = 1024, twenty records under window occlusion: the
        # records share batches, and each batch's split, propagator, plan
        # and sweep hold at most the entries ``_entries`` counts for it and
        # at least half of them. The joint generator's arrays and the
        # evidence are not the batch's.
        model = binary_ring_model(10, seed=3)
        dataset = occluded_dataset(model, 20, 5.0, 0)
        plans, sweeps = recorded_plans(monkeypatch), []
        sweep = inference._sweep
        monkeypatch.setattr(inference, "_sweep", lambda *args: sweeps.append(sweep(*args)) or sweeps[-1])
        e_step(model, dataset)
        assert 1 < len(sweeps) < len(dataset)
        width = inference._series_width()
        for plan, f in zip(plans, sweeps):
            seen = {id(a) for a in (f.split.evs, f.prop.exit, f.prop.joint, *f.prop.joint)}
            held = sum(a.size for part in (f.split, f.prop, plan, f) for a in _arrays(part, seen))
            counted = int(inference._entries(f.split, width).sum())
            assert held <= counted <= 2 * held

    def test_one_step_per_segment_position(self, monkeypatch):
        # Each step carries the forward and the backward rows together: one
        # kernel call and two normalizations per step, and one more
        # normalization for the prior. The steps only read the plan: none
        # sorts its rows by kind (np.unique) or builds an index from
        # np.arange. The split makes more steps than evidence segments.
        model = binary_ring_model(5)
        dataset = [rec.to_evidence(model.space()) for rec in ring_records()] * 3
        plans = recorded_plans(monkeypatch)
        log = []

        def spy(owner, name, label):
            original = getattr(owner, name)

            def called(*args, **kwargs):
                log.append(label)
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, called)

        spy(inference, "_normalize_rows", "normalize")
        spy(inference._Propagator, "propagate", "step")
        spy(np, "unique", "unique")
        spy(np, "arange", "arange")
        e_step(model, dataset)
        (plan,) = plans
        assert plan.steps > max(ev.n_segments for ev in dataset)
        assert log.count("step") == plan.steps
        assert log.count("normalize") == 2 * plan.steps + 1
        first, last = log.index("step"), len(log) - 1 - log[::-1].index("step")
        assert set(log[first:last]) == {"step", "normalize"}
        assert "unique" in log[:first] and "arange" in log[:first]
