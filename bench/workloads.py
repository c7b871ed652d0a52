"""The three benchmark workloads.

Each workload builds its inputs from a round seed (``ring256_em`` from a
fixed one, see its class), then runs three timed
steps: ``setup`` (build or expand the model, sample and occlude the
training and held-out data), ``fit`` (one EM or structural-EM fit with a
fixed budget) and ``score`` (log-likelihood of every held-out record).
``checks`` compares the outputs with computations made apart from the
program (see ``oracle.py``) and with properties the method must have.

Sizes are chosen so that one round takes 5 to 25 seconds on one core;
``smoke`` shrinks them so every workload runs end to end in seconds.
"""
from __future__ import annotations

import math

import numpy as np

import oracle

HORIZON = 5.0
OCCLUSION = (0.25, 0.25)  # hidden fraction per variable, window length
# A fit budget is a fixed number of E-steps. EM stops on its iteration
# cap because no real improvement falls below this relative tolerance.
NO_CONVERGENCE = 1e-12
RATE_RANGE = (0.5, 2.0)


def _occluded(model, count, horizon, rng):
    """``count`` trajectories of the model, each window-occluded, as
    variable-level records."""
    from ctbnlearn import OcclusionPolicy, amalgamate, occlude_observed, sample_trajectory

    q, space, p0 = amalgamate(model)
    out = []
    for _ in range(count):
        traj = sample_trajectory(p0, q, horizon, rng)
        per_var = [space.project(traj, v) for v in range(space.k)]
        out.append(occlude_observed(per_var, OcclusionPolicy(*OCCLUSION), rng))
    return out


def _lower(records, space):
    return [rec.to_evidence(space) for rec in records]


def _matches_forward_pass(model, records, scores):
    joint = oracle.joint_process(model)
    return oracle.scores_match(records, scores, 1e-8, lambda rec: oracle.forward_loglik(joint, rec))


def estep_checks(model, records, quad_tol=1e-8):
    """The E-step composed from public calls, checked for its invariants
    and against ``learning.e_step`` on the same model and data."""
    from ctbnlearn import FlatStatistics, aggregate_statistics, amalgamate, e_step, forward_backward
    from ctbnlearn.inference import expected_statistics_many

    q, space, p0 = amalgamate(model)
    evidence = [r.to_evidence(space) for r in records]
    caches = [forward_backward(q, p0, ev) for ev in evidence]
    flat = expected_statistics_many(caches, quad_tol)
    off_support = (q.entries == 0.0) | np.eye(q.n, dtype=bool)

    dwell_gap = max(abs(s.dwell.sum() - ev.horizon) / ev.horizon for s, ev in zip(flat, evidence))
    outside = max(float(s.transitions[off_support].max(initial=0.0)) for s in flat)
    fb_gap = max(
        abs(c.log_prob - c.log_prob_backward) / max(1.0, abs(c.log_prob)) for c in caches
    )
    total = FlatStatistics(
        np.sum([s.dwell for s in flat], axis=0), np.sum([s.transitions for s in flat], axis=0)
    )
    mine = aggregate_statistics(total, space, model)
    theirs, ll = e_step(model, evidence, quad_tol)
    table_gap = 0.0
    for name in model.names:
        for a, b in ((mine.time[name], theirs.time[name]), (mine.trans[name], theirs.trans[name])):
            table_gap = max(table_gap, float(np.abs(a - b).max() / max(1.0, np.abs(b).max())))
    ll_mine = math.fsum(c.log_prob for c in caches)
    # Batches of different make-up take different adaptive quadrature
    # steps, so the tables agree to the quadrature tolerance, not bitwise.
    return [
        ("estep-dwell", lambda: (dwell_gap <= 1e-9, f"worst dwell gap {dwell_gap:.2e} of the horizon")),
        ("estep-support", lambda: (outside == 0.0, f"largest count off supp(Q) {outside:g}")),
        ("estep-fwd-bwd", lambda: (fb_gap <= 1e-8, f"worst forward/backward gap {fb_gap:.2e}")),
        (
            "estep-equals-e_step",
            lambda: (
                table_gap <= 1e-6 and oracle.close(ll_mine, ll, 1e-12),
                f"family tables within {table_gap:.2e}, log-likelihood {ll_mine:.6f} vs {ll:.6f}",
            ),
        ),
    ]


ESTEP_CHECKS = 4


class Workload:
    """Shared bookkeeping: the operations one round attempts are the setup
    operations of every setup repetition, the fit, the score and the checks."""

    setup_ops = 1
    setup_repeats = 3
    checks_untraced = 0

    def planned_ops(self, trace: bool) -> int:
        checks = self.checks_untraced + (ESTEP_CHECKS if trace else 0)
        return self.setup_repeats * self.setup_ops + 2 + checks


class Chain8SemCli(Workload):
    """Three binary variables (joint n = 8), c driven 10x harder when b is
    on (the structure-recovery generator). Data goes through the CLI's
    ``generate`` and ``occlude``; ``sem`` learns from an edgeless template
    and ``score`` rates complete held-out records."""

    name = "chain8_sem_cli"
    setup_ops = 3
    # Its setup costs seconds of process start-up and JSON; one per round,
    # and the run's median over at least three rounds.
    setup_repeats = 1
    checks_untraced = 4
    # --tolerance 0.5 ends structural EM after its second structure step
    # and the final EM after one M-step: the budget is four E-steps.
    sem_flags = ["--max-parents", "2", "--em-iters", "1", "--max-iter", "1", "--tolerance", "0.5"]

    def __init__(self, smoke):
        self.n_train, self.n_held = (150, 50) if smoke else (600, 1000)

    @staticmethod
    def models():
        from ctbnlearn import Cim, CtbnModel, Variable

        va, vb, vc = (Variable(n, (n + "0", n + "1")) for n in "abc")
        truth = CtbnModel(
            (va, vb, vc),
            {
                "a": Cim((), (), np.array([[[-0.8, 0.8], [1.4, -1.4]]])),
                "b": Cim((), (), np.array([[[-0.9, 0.9], [1.1, -1.1]]])),
                "c": Cim(("b",), (2,), np.array([[[-0.3, 0.3], [0.3, -0.3]], [[-3.0, 3.0], [3.0, -3.0]]])),
            },
            {n: [0.5, 0.5] for n in "abc"},
        )
        flat = {n: Cim((), (), np.array([[[-1.0, 1.0], [1.0, -1.0]]])) for n in "abc"}
        return truth, truth.with_cims(flat)

    def setup(self, r):
        from ctbnlearn import fileio

        truth, template = self.models()
        fileio.save_model(truth, r.path("truth.json"))
        fileio.save_model(template, r.path("template.json"))
        s = r.ints
        r.cli("generate-train", ["generate", r.path("truth.json"), r.path("full.json"),
                                 "--count", str(self.n_train), "--horizon", str(HORIZON), "--seed", str(s[0])])
        r.cli("occlude-train", ["occlude", r.path("full.json"), r.path("train.json"),
                                "--fraction", str(OCCLUSION[0]), "--window", str(OCCLUSION[1]),
                                "--model", r.path("truth.json"), "--seed", str(s[1])])
        r.cli("generate-heldout", ["generate", r.path("truth.json"), r.path("heldout.json"),
                                   "--count", str(self.n_held), "--horizon", str(HORIZON), "--seed", str(s[2])])
        return truth

    def fit(self, r, truth):
        return r.cli("sem", ["sem", r.path("template.json"), r.path("train.json"), r.path("learned.json"),
                            *self.sem_flags, "--seed", str(r.ints[3])], ok_codes=(0, 2))

    def score(self, r, truth, fit_out):
        out = r.cli("score", ["score", r.path("learned.json"), r.path("heldout.json")])
        lines = [ln.split("\t") for ln in out.splitlines()]
        return [float(v) for k, v in lines if k != "total"]

    def run_checks(self, r, truth, fit_out, scores):
        from ctbnlearn import fileio

        learned = fileio.load_model(r.path("learned.json"))
        held = fileio.load_records(r.path("heldout.json"), truth)
        trace = [float(ln.split("\t")[1]) for ln in fit_out.splitlines() if not ln.startswith("parents")]
        r.check("sem-parents-of-c", lambda: (learned.parents("c") == ("b",), f"graph {learned.graph()}"))
        r.check("sem-trace-monotone", lambda: oracle.trace_monotone(trace))
        r.check("heldout-closed-form", lambda: oracle.scores_match(
            held, scores, 1e-8, lambda rec: oracle.complete_loglik(learned, rec)))

        def near_truth():
            got = math.fsum(oracle.complete_loglik(learned, rec) for rec in held)
            want = math.fsum(oracle.complete_loglik(truth, rec) for rec in held)
            return abs(got - want) <= 0.05 * abs(want), f"learned {got:.3f} vs true model {want:.3f}"

        r.check("heldout-near-truth", near_truth)
        if r.trace:
            for name, fn in estep_checks(learned, fileio.load_records(r.path("train.json"), truth)):
                r.check(name, fn)


class Ring256Em(Workload):
    """Eight binary variables in a ring, each driven by its predecessor
    (joint n = 256): a few occluded trajectories, EM from random parameters
    for one M-step (two E-steps), occluded held-out records.

    The model and the trajectories come from ``DATA_SEED``, not from the
    run's seed, which sets only the EM start. With so few trajectories the
    cost follows the stiffest quadrature segment of the draw, and fit time
    and peak memory moved by 15% from one draw to the next, more than a
    bound can allow; fixed data keeps the runs comparable.
    """

    name = "ring256_em"
    setup_repeats = 5
    checks_untraced = 3
    DATA_SEED = 1207
    # Starting rates near 1 keep the two E-steps' stiffness, and so their
    # cost, close from one EM start to the next.
    INIT_RANGE = (0.8, 1.25)

    def __init__(self, smoke):
        self.k = 4 if smoke else 8
        self.n_train, self.n_held = 2, 2

    def model(self, rng):
        from ctbnlearn import Cim, CtbnModel, Variable

        names = [f"v{i}" for i in range(self.k)]
        cims = {}
        for i, name in enumerate(names):
            rates = np.exp(rng.uniform(math.log(RATE_RANGE[0]), math.log(RATE_RANGE[1]), (2, 2)))
            mats = np.array([[[-a, a], [b, -b]] for a, b in rates])
            cims[name] = Cim((names[i - 1],), (2,), mats)
        return CtbnModel(tuple(Variable(n, ("0", "1")) for n in names), cims, {n: [0.5, 0.5] for n in names})

    def setup(self, r):
        def build():
            rng = np.random.default_rng(self.DATA_SEED)
            truth = self.model(rng)
            space = truth.space()
            train = _occluded(truth, self.n_train, HORIZON, rng)
            held = _occluded(truth, self.n_held, HORIZON, rng)
            return truth, train, _lower(train, space), held, _lower(held, space)

        return r.call("setup", build)

    def fit(self, r, inputs):
        from ctbnlearn import EmConfig, em

        truth, _, train_ev, _, _ = inputs
        # Two training records would pin the initial marginals to 0 or 1
        # and make most held-out records impossible; keep them uniform.
        config = EmConfig(max_iter=1, tol=NO_CONVERGENCE, restarts=1, init="random",
                          seed=r.ints[1], rate_range=self.INIT_RANGE, freeze_initial=True)
        return r.call("em", lambda: em(truth, train_ev, config))

    def score(self, r, inputs, fit):
        from ctbnlearn import score_dataset

        return r.call("score_dataset", lambda: score_dataset(fit.model, inputs[4]))

    def run_checks(self, r, inputs, fit, scores):
        _, train, _, held, _ = inputs
        r.check("em-trace-monotone", lambda: oracle.trace_monotone(fit.trace))
        r.check("estep-family-stats", lambda: oracle.family_stats_valid(fit.model, fit.stats, len(train) * HORIZON))
        r.check("heldout-forward-pass", lambda: _matches_forward_pass(fit.model, held[:1], scores[:1]))
        if r.trace:
            for name, fn in estep_checks(fit.model, train):
                r.check(name, fn)


class Erlang3PhaseEm(Workload):
    """One two-state variable whose dwell times are Erlang-3, observed only
    at the state level (the phase-learning generator): EM on the 3-phase
    unrestricted expansion from three random starts of five M-steps each
    (the library's default of three restarts), keeping the best.

    Which local optimum a single start reaches moves the fit time by 10%;
    the best of three starts averages that out and always beats the
    1-phase fit on held-out data."""

    name = "erlang3_phase_em"
    checks_untraced = 4
    horizon = 20.0

    def __init__(self, smoke):
        self.n_train, self.n_held = (40, 20) if smoke else (300, 150)
        self.max_iter = 5

    @staticmethod
    def base():
        from ctbnlearn import Cim, CtbnModel, Variable

        return CtbnModel(
            (Variable("w", ("w1", "w2")),),
            {"w": Cim((), (), np.array([[[-1.0, 1.0], [2.0, -2.0]]]))},
            {"w": [1.0, 0.0]},
        )

    def _records(self, model, count, rng):
        from ctbnlearn import ObservedTrajectory, amalgamate, sample_trajectory

        q, space, p0 = amalgamate(model)
        out = []
        for _ in range(count):
            st = space.project(sample_trajectory(p0, q, self.horizon, rng), 0)
            out.append(ObservedTrajectory(tuple((a, b, (x,)) for x, a, b in st.segments), self.horizon))
        return out

    def setup(self, r):
        from ctbnlearn import PhaseSpec, expand_phases

        def build():
            base = self.base()
            truth, _ = expand_phases(base, PhaseSpec({"w": 3}, topology="chain"))
            three, _ = expand_phases(base, PhaseSpec({"w": 3}, topology="unrestricted"))
            rng = np.random.default_rng(r.ints[0])
            train = self._records(truth, self.n_train, rng)
            held = self._records(truth, self.n_held, rng)
            space = three.space()
            return three, train, _lower(train, space), held, _lower(held, space)

        return r.call("setup", build)

    def _config(self, seed, max_iter, restarts):
        from ctbnlearn import EmConfig

        return EmConfig(max_iter=max_iter, tol=NO_CONVERGENCE, restarts=restarts, init="random",
                        seed=seed, rate_range=RATE_RANGE)

    def fit(self, r, inputs):
        from ctbnlearn import em

        return r.call("em", lambda: em(inputs[0], inputs[2], self._config(r.ints[1], self.max_iter, 3)))

    def score(self, r, inputs, fit):
        from ctbnlearn import score_dataset

        return r.call("score_dataset", lambda: score_dataset(fit.model, inputs[4]))

    def run_checks(self, r, inputs, fit, scores):
        from ctbnlearn import em, score_dataset

        _, train, _, held, _ = inputs
        r.check("em-trace-monotone", lambda: oracle.trace_monotone(fit.trace))
        r.check("estep-family-stats", lambda: oracle.family_stats_valid(
            fit.model, fit.stats, len(train) * self.horizon))
        r.check("heldout-forward-pass", lambda: _matches_forward_pass(fit.model, held[:10], scores[:10]))

        def beats_one_phase():
            base = self.base()
            sp1 = base.space()
            one = em(base, [rec.to_evidence(sp1) for rec in train], self._config(r.ints[1], 5, 1))
            ll1 = math.fsum(score_dataset(one.model, [rec.to_evidence(sp1) for rec in held]))
            ll3 = math.fsum(scores)
            return ll3 > ll1, f"held-out 3-phase {ll3:.3f} vs 1-phase {ll1:.3f}"

        r.check("three-phase-beats-one-phase", beats_one_phase)
        if r.trace:
            for name, fn in estep_checks(fit.model, train):
                r.check(name, fn)


WORKLOADS = {w.name: w for w in (Chain8SemCli, Ring256Em, Erlang3PhaseEm)}
