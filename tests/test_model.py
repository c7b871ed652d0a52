import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctbnlearn import (
    Cim,
    CtbnModel,
    Evidence,
    FlatFamilyProvider,
    IncompatibleSupportError,
    IntensityMatrix,
    JointSpaceTooLargeError,
    Variable,
    aggregate_statistics,
    amalgamate,
    count_parameters,
    expected_statistics,
    family_log_likelihood,
    forward_backward,
    sample_trajectory,
)
from ctbnlearn.inference import FlatStatistics
from ctbnlearn.markov import IntensityError, _validated_entries
from ctbnlearn.model import FamilyStatistics
from helpers import binary_chain_model, binary_ring_model, independent_binary_model


class TestTypes:
    def test_variable_needs_two_states(self):
        with pytest.raises(ValueError):
            Variable("x", ("only",))

    def test_variable_default_phases(self):
        v = Variable("x", ("a", "b", "c"))
        assert v.phases == (1, 1, 1)
        assert v.dim == 3

    def test_cim_count_must_match_parent_cards(self):
        with pytest.raises(ValueError):
            Cim(("p",), (3,), np.array([[[-1.0, 1.0], [1.0, -1.0]]] * 2))

    def test_cim_support_violation(self):
        support = np.array([[False, True], [False, False]])
        with pytest.raises(ValueError):
            Cim((), (), np.array([[[-1.0, 1.0], [1.0, -1.0]]]), support)

    def test_model_checks_parent_references(self):
        v = Variable("x", ("a", "b"))
        cim = Cim(("ghost",), (2,), np.array([[[-1.0, 1.0], [1.0, -1.0]]] * 2))
        with pytest.raises(ValueError):
            CtbnModel((v,), {"x": cim}, {"x": [0.5, 0.5]})


class TestAmalgamate:
    def test_single_variable_unchanged(self):
        m = np.array([[-1.0, 0.6, 0.4], [2.0, -2.5, 0.5], [0.1, 0.2, -0.3]])
        v = Variable("x", ("a", "b", "c"))
        model = CtbnModel((v,), {"x": Cim((), (), m[None])}, {"x": [0.2, 0.3, 0.5]})
        q, space, p0 = amalgamate(model)
        off = ~np.eye(3, dtype=bool)
        assert np.array_equal(q.entries[off], m[off])
        assert np.allclose(q.entries, m, atol=1e-14)
        assert np.allclose(p0, [0.2, 0.3, 0.5])

    def test_independent_pair_rates(self):
        model = independent_binary_model(names=("x", "y"), rates=((1.0, 2.0), (0.5, 1.5)))
        q, space, p0 = amalgamate(model)
        # joint index = 2 * x + y
        assert q.entries[0, 2] == 1.0  # x flips, y fixed
        assert q.entries[0, 1] == 0.5  # y flips, x fixed
        assert q.entries[0, 3] == 0.0  # simultaneous flip
        assert np.allclose(p0, [0.25, 0.25, 0.25, 0.25])

    def test_no_simultaneous_transitions(self):
        model = binary_chain_model()
        q, space, _ = amalgamate(model)
        coords = space.coords
        for j in range(space.n_joint):
            for k in range(space.n_joint):
                if j != k and (coords[j] != coords[k]).sum() >= 2:
                    assert q.entries[j, k] == 0.0

    def test_parent_dependent_rates_read_from_source_state(self):
        model = binary_chain_model()
        q, space, _ = amalgamate(model)
        cim_b = model.cims["b"]
        for j in range(space.n_joint):
            a_state, b_state, _ = space.coords[j]
            k = j + (1 - 2 * b_state) * space.strides[1]
            assert q.entries[j, k] == cim_b.matrices[a_state, b_state, 1 - b_state]

    def test_joint_cap(self):
        model = binary_chain_model()
        with pytest.raises(JointSpaceTooLargeError):
            amalgamate(model, cap=4)

    def test_perturbation_locality(self):
        # Changing one (variable, parent instantiation) matrix touches only
        # joint rows matching that instantiation, in that variable's moves.
        model = binary_chain_model()
        q1, space, _ = amalgamate(model)
        mats = model.cims["b"].matrices.copy()
        mats[1] = [[-3.7, 3.7], [0.4, -0.4]]
        model2 = model.with_cims({"b": Cim(("a",), (2,), mats)})
        q2, _, _ = amalgamate(model2)
        diff = np.argwhere(~np.isclose(q1.entries, q2.entries))
        assert len(diff) > 0
        for j, k in diff:
            a_state = space.coords[j][0]
            assert a_state == 1
            if j != k:
                assert space.coords[j][1] != space.coords[k][1]
                assert space.coords[j][0] == space.coords[k][0]
                assert space.coords[j][2] == space.coords[k][2]


class TestAggregation:
    def test_single_variable_is_identity(self):
        m = np.array([[-1.0, 1.0], [2.0, -2.0]])
        v = Variable("x", ("a", "b"))
        model = CtbnModel((v,), {"x": Cim((), (), m[None])}, {"x": [1.0, 0.0]})
        q, space, p0 = amalgamate(model)
        flat = FlatStatistics(np.array([0.4, 0.6]), np.array([[0.0, 2.0], [1.0, 0.0]]))
        fam = aggregate_statistics(flat, space, model)
        assert np.array_equal(fam.time["x"][0], flat.dwell)
        assert np.array_equal(fam.trans["x"][0], flat.transitions)

    def test_zero_statistics_stay_zero(self):
        model = independent_binary_model()
        q, space, _ = amalgamate(model)
        flat = FlatStatistics(np.zeros(4), np.zeros((4, 4)))
        fam = aggregate_statistics(flat, space, model)
        for name in model.names:
            assert not fam.time[name].any()
            assert not fam.trans[name].any()

    def test_two_variable_hand_sums(self):
        model = independent_binary_model(names=("x", "y"))
        q, space, _ = amalgamate(model)
        dwell = np.array([0.1, 0.2, 0.3, 0.4])
        trans = np.zeros((4, 4))
        trans[0, 2] = 1.0  # x flips while y = y0
        trans[1, 3] = 2.0  # x flips while y = y1
        trans[0, 1] = 3.0  # y flips while x = x0
        fam = aggregate_statistics(FlatStatistics(dwell, trans), space, model)
        assert np.allclose(fam.time["x"][0], [0.3, 0.7])  # sum over y
        assert np.allclose(fam.time["y"][0], [0.4, 0.6])  # sum over x
        assert fam.trans["x"][0, 0, 1] == 3.0  # x0 -> x1, both y values
        assert fam.trans["y"][0, 0, 1] == 3.0  # y0 -> y1 only from (x0, y0)

    def test_roundtrip_family_time_totals(self):
        model = binary_chain_model()
        q, space, p0 = amalgamate(model)
        traj = sample_trajectory(p0, q, 7.0, seed=3)
        flat = FlatStatistics(traj.dwell_times(space.n_joint), traj.transition_counts(space.n_joint))
        fam = aggregate_statistics(flat, space, model)
        for name in model.names:
            assert fam.time[name].sum() == pytest.approx(7.0, abs=1e-9)
        assert np.allclose(fam.exits("b"), fam.trans["b"].sum(axis=2), atol=1e-12)


@st.composite
def phased_counts(draw):
    """A CTBN of 2 to 4 variables of 2 or 3 states, some with 2 or 3 phases
    per state, each with 0 to 2 parents, at most 400 joint states; random
    dwell times and random nonnegative counts, some zero, on every pair of
    joint states that differ in one variable."""
    k = draw(st.integers(2, 4))
    variables = []
    for i in range(k):
        states = draw(st.integers(2, 3))
        phases = tuple(draw(st.lists(st.integers(1, 3), min_size=states, max_size=states))) \
            if draw(st.booleans()) else None
        variables.append(Variable(f"x{i}", tuple(f"s{s}" for s in range(states)), phases))
    n = int(np.prod([v.dim for v in variables]))
    if n > 400:
        variables = [Variable(v.name, v.states) for v in variables]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cims = {}
    for i, var in enumerate(variables):
        others = [v for v in variables if v is not var]
        parents = draw(st.lists(st.sampled_from(others), max_size=2, unique_by=lambda v: v.name))
        cards = tuple(p.n_states for p in parents)
        mats = rng.uniform(0.1, 2.0, (int(np.prod(cards, dtype=int)), var.dim, var.dim))
        mats[:, np.arange(var.dim), np.arange(var.dim)] = 0.0
        mats[:, np.arange(var.dim), np.arange(var.dim)] = -mats.sum(axis=2)
        cims[var.name] = Cim(tuple(p.name for p in parents), cards, mats)
    model = CtbnModel(tuple(variables), cims, {v.name: np.full(v.n_states, 1.0 / v.n_states) for v in variables})
    space = model.space()
    n = space.n_joint
    dense = np.zeros((n, n))
    for v in range(space.k):
        j, k_, _, _ = space.transitions(v)
        dense[j, k_] = np.where(rng.random(len(j)) < 0.2, 0.0, rng.exponential(1.0, len(j)))
    return model, space, rng.exponential(1.0, n), dense


def dense_family_tables(space, dwell, dense, v, parent_ids):
    """The family tables read from dense counts at the pairs of joint states
    that differ only in variable v: the reference aggregation."""
    u_idx, n_u = space.family_index(parent_ids)
    dim = space.dims[v]
    t = np.zeros((n_u, dim))
    np.add.at(t, (u_idx, space.coords[:, v]), dwell)
    m = np.zeros((n_u, dim, dim))
    j, k, x, xp = space.transitions(v)
    np.add.at(m, (u_idx[j], x, xp), dense[j, k])
    return t, m


class TestAggregationFormula:
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(phased_counts())
    def test_count_list_and_dense_counts_equal_the_dense_formula(self, case):
        # The list holds every pair that differs in one variable, zero
        # counts included, sorted by source and then destination as the
        # joint generator's transitions are.
        model, space, dwell, dense = case
        src, dst = (np.concatenate(a) for a in zip(*(space.transitions(v)[:2] for v in range(space.k))))
        order = np.lexsort((dst, src))
        src, dst = src[order], dst[order]
        provider = FlatFamilyProvider(space, dwell, (src, dst, dense[src, dst]))
        fam = aggregate_statistics(FlatStatistics(dwell, dense), space, model)
        for v, name in enumerate(model.names):
            parent_ids = tuple(space.index_of[p] for p in model.parents(name))
            want_t, want_m = dense_family_tables(space, dwell, dense, v, parent_ids)
            for t, m in (provider.family(name, model.parents(name)), (fam.time[name], fam.trans[name])):
                assert np.array_equal(t, want_t) and np.array_equal(m, want_m)


def dense_amalgamate(model):
    """The joint generator as a dense n x n matrix, validated: the reference
    formula, with each diagonal entry the sum of its row."""
    space = model.space()
    n = space.n_joint
    q = np.zeros((n, n))
    for vi, var in enumerate(model.variables):
        cim = model.cims[var.name]
        u_idx, _ = space.family_index(tuple(space.index_of[p] for p in cim.parents))
        j, k, x, xp = space.transitions(vi)
        q[j, k] = cim.matrices[u_idx[j], x, xp]
    q[np.arange(n), np.arange(n)] = -q.sum(axis=1)
    return _validated_entries(q, "proper")


class TestTransitionList:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(phased_counts(), st.integers(0, 2**32 - 1))
    def test_list_and_view_equal_the_dense_formula(self, case, seed):
        # A fifth of the CIMs' rates are zero, which the list leaves out.
        model = case[0]
        rng = np.random.default_rng(seed)
        cims = {}
        for name, cim in model.cims.items():
            mats = cim.matrices.copy()
            eye = np.eye(cim.dim, dtype=bool)
            mats[(rng.random(mats.shape) < 0.2) & ~eye] = 0.0
            mats[:, eye] = 0.0
            mats[:, eye] = -mats.sum(axis=2)
            cims[name] = Cim(cim.parents, cim.parent_cards, mats)
        model = model.with_cims(cims)
        want = dense_amalgamate(model)
        q, _, _ = amalgamate(model)
        assert "entries" not in vars(q)
        src, dst = np.nonzero(want > 0.0)
        for got, ref in zip(q.transitions, (src, dst, want[src, dst])):
            assert np.array_equal(got, ref)
        view = q.entries
        off = ~np.eye(q.n, dtype=bool)
        assert np.array_equal(view[off], want[off])
        diagonal = np.diagonal(want)
        assert (np.abs(np.diagonal(view) - diagonal) <= 1e-15 * np.abs(diagonal)).all()
        assert np.array_equal(q.exit_rates, -np.diagonal(view))
        assert not view.flags.writeable and not q.exit_rates.flags.writeable
        # Built from a dense array, the matrix keeps that array's validated
        # form as its view, and derives the same list from it.
        dense = IntensityMatrix(want)
        assert np.array_equal(dense.entries, _validated_entries(want, "proper"))
        for got, ref in zip(dense.transitions, q.transitions):
            assert np.array_equal(got, ref)

    def test_dense_constructor_keeps_its_validated_array(self):
        # Rounding noise below the slack is clipped once, in the view.
        raw = np.array([[-1.0, 1.0, -1e-13], [0.5, -0.5, 0.0], [2.0, 1e-13, -2.0]])
        q = IntensityMatrix(raw)
        assert np.array_equal(q.entries, _validated_entries(raw, "proper"))
        assert q.entries[0, 2] == 0.0
        assert np.array_equal(q.exit_rates, [1.0, 0.5, 2.0])
        for got, want in zip(q.transitions, ([0, 1, 2, 2], [1, 0, 0, 1], [1.0, 0.5, 2.0, 1e-13])):
            assert np.array_equal(got, want)

    def test_list_constructor_checks(self):
        build = IntensityMatrix._from_transitions
        src, dst = np.array([0, 1]), np.array([1, 0])
        q = build(2, src, dst, np.array([1.5, 0.5]))
        assert q.kind == "proper" and np.array_equal(q.entries, [[-1.5, 1.5], [0.5, -0.5]])
        for args in ((2, src, dst, np.array([1.0, -0.5])), (2, src, dst, np.array([1.0, np.nan])),
                     (2, src, dst, np.array([1.0, np.inf])), (2, src, np.array([1, 2]), np.array([1.0, 1.0])),
                     (2, np.array([0, 1]), np.array([1, 1]), np.array([1.0, 1.0])),
                     (2, np.array([1, 0]), np.array([0, 1]), np.array([1.0, 1.0])),
                     (2, np.array([0, 0]), np.array([1, 1]), np.array([1.0, 1.0])),
                     (3, np.array([0, 0]), np.array([1, 2]), np.array([1e308, 1e308]))):
            with pytest.raises(IntensityError):
                build(*args)

    def test_amalgamate_of_the_twelve_ring_holds_no_dense_q(self):
        # n = 4096: a dense n x n float array is 134 MB; the list, 49 152
        # transitions, and the space's indices stay under an eighth of it.
        model = binary_ring_model(12)
        tracemalloc.start()
        try:
            q, _, _ = amalgamate(model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(q.transitions[0]) == 4096 * 12
        assert peak < 4096 * 4096 * 8 / 8


def exact_family_statistics(model, traj, space):
    flat = FlatStatistics(traj.dwell_times(space.n_joint), traj.transition_counts(space.n_joint))
    return aggregate_statistics(flat, space, model)


class TestFamilyLogLikelihood:
    def test_zero_statistics_give_zero(self):
        model = independent_binary_model()
        q, space, _ = amalgamate(model)
        fam = aggregate_statistics(FlatStatistics(np.zeros(4), np.zeros((4, 4))), space, model)
        assert family_log_likelihood(model, fam) == 0.0

    def test_single_cell_value(self):
        # One dwell of 2 with one exit at rate 0.5 and a forced target:
        # ln(0.5) - 1, about -1.6931471806.
        v = Variable("x", ("a", "b"))
        support = np.array([[False, True], [False, False]])
        cim = Cim((), (), np.array([[[-0.5, 0.5], [0.0, 0.0]]]), support)
        model = CtbnModel((v,), {"x": cim}, {"x": [1.0, 0.0]})
        stats = FamilyStatistics(
            time={"x": np.array([[2.0, 0.0]])},
            trans={"x": np.array([[[0.0, 1.0], [0.0, 0.0]]])},
        )
        assert family_log_likelihood(model, stats) == pytest.approx(-1.6931471806, abs=1e-9)

    def test_incompatible_support(self):
        v = Variable("x", ("a", "b"))
        support = np.array([[False, True], [False, False]])
        cim = Cim((), (), np.array([[[-0.5, 0.5], [0.0, 0.0]]]), support)
        model = CtbnModel((v,), {"x": cim}, {"x": [1.0, 0.0]})
        stats = FamilyStatistics(
            time={"x": np.array([[1.0, 1.0]])},
            trans={"x": np.array([[[0.0, 0.0], [1.0, 0.0]]])},
        )
        with pytest.raises(IncompatibleSupportError):
            family_log_likelihood(model, stats)

    def test_decomposes_the_flat_likelihood(self):
        # Summed family terms equal the flat-process log-likelihood of a
        # complete trajectory (up to the initial-state term, excluded here).
        rng = np.random.default_rng(12)
        for seed in range(5):
            model = binary_chain_model(
                rates={
                    "a": tuple(rng.uniform(0.3, 3.0, 2)),
                    "b": (tuple(rng.uniform(0.3, 3.0, 2)), tuple(rng.uniform(0.3, 3.0, 2))),
                    "c": (tuple(rng.uniform(0.3, 3.0, 2)), tuple(rng.uniform(0.3, 3.0, 2))),
                }
            )
            q, space, p0 = amalgamate(model)
            traj = sample_trajectory(p0, q, 5.0, seed=seed)
            fam = exact_family_statistics(model, traj, space)
            t_flat = traj.dwell_times(space.n_joint)
            m_flat = traj.transition_counts(space.n_joint)
            exit_rates = -np.diag(q.entries)
            flat_ll = -(exit_rates * t_flat).sum()
            for j, k in zip(*np.nonzero(m_flat)):
                flat_ll += m_flat[j, k] * np.log(q.entries[j, k])
            assert family_log_likelihood(model, fam) == pytest.approx(flat_ll, abs=1e-9)

    def test_strict_concavity_in_each_rate(self):
        # Second difference of M ln q - q T in any single rate is negative.
        v = Variable("x", ("a", "b"))
        stats = FamilyStatistics(
            time={"x": np.array([[2.0, 1.0]])},
            trans={"x": np.array([[[0.0, 3.0], [1.0, 0.0]]])},
        )
        delta = 1e-3

        def ll_at(q01):
            cim = Cim((), (), np.array([[[-q01, q01], [1.0, -1.0]]]))
            model = CtbnModel((v,), {"x": cim}, {"x": [1.0, 0.0]})
            return family_log_likelihood(model, stats)

        for q in (0.5, 1.5, 3.0):
            second = (ll_at(q + delta) - 2 * ll_at(q) + ll_at(q - delta)) / delta**2
            assert second < 0


class TestCountParameters:
    def test_binary_no_parent(self):
        model = independent_binary_model(names=("x",), rates=((1.0, 2.0),))
        assert count_parameters(model) == 2

    def test_binary_with_binary_parent(self):
        model = binary_chain_model()
        # a: 2, b: 2 instantiations x 2, c: 2 instantiations x 2.
        assert count_parameters(model) == 10
