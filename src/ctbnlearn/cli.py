"""Command-line workflows: generate, occlude, em, sem, score, smooth.

Exit codes: 0 success/converged, 2 stopped at the iteration cap, 3 parse
error, 4 zero-probability evidence, 5 joint state space over the cap.
"""
from __future__ import annotations

import argparse
import sys

import numpy as np

from . import fileio
from .evidence import ObservedTrajectory, OcclusionPolicy, occlude_observed
from .inference import ZeroProbabilityEvidenceError, forward_backward, smoothed_marginal
from .learning import EmConfig, SemConfig, em, score_dataset, sem
from .markov import sample_trajectories
from .model import DEFAULT_JOINT_CAP, JointSpaceTooLargeError, amalgamate
from .phase import PhaseSpec, expand_phases

EXIT_OK = 0
EXIT_MAX_ITER = 2
EXIT_PARSE = 3
EXIT_ZERO_PROB = 4
EXIT_TOO_LARGE = 5


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--seed", type=int, default=0)


def _add_fit_flags(p: argparse.ArgumentParser):
    p.add_argument("--tolerance", type=float, default=EmConfig.tol)
    p.add_argument("--max-iter", type=int, default=EmConfig.max_iter)
    p.add_argument("--restarts", type=int, default=EmConfig.restarts)
    p.add_argument(
        "--init", choices=["given", "random"], default="given",
        help="start from the model file's parameters (default here) or from random ones "
        "(the default of the library's EmConfig)",
    )
    p.add_argument("--freeze-initial", action="store_true")
    p.add_argument(
        "--quad-tol", type=float, default=EmConfig.quad_tol,
        help="Poisson tail bound where the E-step's uniformization series is cut "
        "(below 1 and at least double-precision epsilon)",
    )
    p.add_argument("--joint-cap", type=int, default=DEFAULT_JOINT_CAP)
    p.add_argument("--phases", default=None, help="phase expansion, e.g. 'X=3,Y=2'")
    p.add_argument("--phase-topology", choices=["chain", "unrestricted"], default="unrestricted")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ctbnlearn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="sample complete trajectories from a model")
    p.add_argument("model")
    p.add_argument("out")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--horizon", type=float, required=True)
    p.add_argument("--joint-cap", type=int, default=DEFAULT_JOINT_CAP)
    _add_common(p)

    p = sub.add_parser("occlude", help="hide random windows of each variable")
    p.add_argument("trajectories")
    p.add_argument("out")
    p.add_argument("--fraction", type=float, required=True)
    p.add_argument("--window", type=float, default=0.25)
    p.add_argument("--model", required=True, help="model file naming the variables")
    _add_common(p)

    p = sub.add_parser("em", help="fit parameters by EM")
    p.add_argument("model")
    p.add_argument("trajectories")
    p.add_argument("out")
    _add_fit_flags(p)
    _add_common(p)

    p = sub.add_parser("sem", help="fit structure and parameters by structural EM")
    p.add_argument("model")
    p.add_argument("trajectories")
    p.add_argument("out")
    p.add_argument("--max-parents", type=int, default=SemConfig.max_parents)
    p.add_argument("--em-iters", type=int, default=SemConfig.em_iters)
    _add_fit_flags(p)
    _add_common(p)

    p = sub.add_parser("score", help="log-likelihood of each record")
    p.add_argument("model")
    p.add_argument("trajectories")
    p.add_argument("--joint-cap", type=int, default=DEFAULT_JOINT_CAP)

    p = sub.add_parser("smooth", help="posterior state marginals at query times")
    p.add_argument("model")
    p.add_argument("trajectories")
    p.add_argument("--record", type=int, default=0)
    p.add_argument("--times", required=True, help="comma-separated query times")
    p.add_argument("--joint-cap", type=int, default=DEFAULT_JOINT_CAP)

    return parser


def _parse_phases(spec: str | None, topology: str) -> PhaseSpec | None:
    if not spec:
        return None
    counts = {}
    for chunk in spec.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            raise fileio.ParseError(f"bad phase spec chunk {chunk!r}, expected NAME=COUNT")
        name, raw = (part.strip() for part in chunk.split("=", 1))
        if not raw.isdigit() or int(raw) < 1:
            raise fileio.ParseError(f"bad phase count {raw!r} for {name!r}, expected a positive integer")
        counts[name] = int(raw)
    return PhaseSpec(counts, topology=topology)


def _checked(make, *args, **kwargs):
    """make(*args, **kwargs), a ``ValueError`` from checking arguments reported as a parse error."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise fileio.ParseError(str(exc)) from None


def _em_config(args) -> EmConfig:
    return _checked(
        EmConfig,
        max_iter=args.max_iter,
        tol=args.tolerance,
        seed=args.seed,
        freeze_initial=args.freeze_initial,
        restarts=args.restarts,
        init=args.init,
        quad_tol=args.quad_tol,
        joint_cap=args.joint_cap,
    )


def _print_trace(trace):
    prev = None
    for k, ll in enumerate(trace):
        delta = 0.0 if prev is None else ll - prev
        print(f"{k}\t{ll:.10f}\t{delta:.10e}")
        prev = ll


def _cmd_generate(args) -> int:
    if args.count < 0 or not 0.0 < args.horizon < np.inf:
        raise fileio.ParseError("--count must be nonnegative and --horizon positive and finite")
    model = fileio.load_model(args.model)
    q, space, p0 = amalgamate(model, args.joint_cap)
    trajs = sample_trajectories(p0, q, args.horizon, args.count, args.seed)
    records = []
    for traj in trajs:
        per_var = [space.project(traj, v) for v in range(space.k)]
        records.append(ObservedTrajectory.fully_observed(per_var))
    fileio.save_records(records, model, args.out)
    return EXIT_OK


def _cmd_occlude(args) -> int:
    model = fileio.load_model(args.model)
    records = fileio.load_records(args.trajectories, model)
    policy = _checked(OcclusionPolicy, args.fraction, args.window)
    out = []
    seqs = np.random.SeedSequence(args.seed).spawn(max(1, len(records)))
    for rec, seq in zip(records, seqs):
        trajs = fileio.record_to_trajectories(rec)
        if args.fraction == 0.0:
            out.append(rec)
        else:
            out.append(occlude_observed(trajs, policy, np.random.default_rng(seq)))
    fileio.save_records(out, model, args.out)
    return EXIT_OK


def _load_dataset(args, model):
    records = fileio.load_records(args.trajectories, model)
    space = model.space()
    return [rec.to_evidence(space) for rec in records]


def _cmd_em(args) -> int:
    model = fileio.load_model(args.model)
    spec = _parse_phases(args.phases, args.phase_topology)
    if spec is not None:
        model, _ = expand_phases(model, spec)
    dataset = _load_dataset(args, model)
    fit = em(model, dataset, _em_config(args))
    _print_trace(fit.trace)
    fileio.save_model(fit.model, args.out)
    return EXIT_OK if fit.converged else EXIT_MAX_ITER


def _cmd_sem(args) -> int:
    model = fileio.load_model(args.model)
    spec = _parse_phases(args.phases, args.phase_topology)
    if spec is not None:
        model, _ = expand_phases(model, spec)
    dataset = _load_dataset(args, model)
    config = _checked(SemConfig, em=_em_config(args), max_parents=args.max_parents, em_iters=args.em_iters)
    fit = sem(model, dataset, config)
    _print_trace(fit.trace)
    for name, parents in fit.model.graph().items():
        print(f"parents\t{name}\t{','.join(parents) if parents else '-'}")
    fileio.save_model(fit.model, args.out)
    return EXIT_OK if fit.converged else EXIT_MAX_ITER


def _cmd_score(args) -> int:
    model = fileio.load_model(args.model)
    dataset = _load_dataset(args, model)
    lls = score_dataset(model, dataset, args.joint_cap)
    for i, ll in enumerate(lls):
        print(f"{i}\t{ll:.10f}")
    print(f"total\t{sum(lls):.10f}")
    return EXIT_OK


def _cmd_smooth(args) -> int:
    model = fileio.load_model(args.model)
    records = fileio.load_records(args.trajectories, model)
    if not 0 <= args.record < len(records):
        raise fileio.ParseError(f"record index {args.record} out of range")
    times = [_checked(float, t) for t in args.times.split(",") if t.strip()]
    q, space, p0 = amalgamate(model, args.joint_cap)
    ev = records[args.record].to_evidence(space)
    cache = forward_backward(q, p0, ev)
    gammas = _checked(smoothed_marginal, cache, np.array(times))
    for t, gamma in zip(times, gammas):
        for vi, var in enumerate(model.variables):
            probs = space.variable_state_marginal(gamma, vi)
            cells = " ".join(f"{lab}={p:.9f}" for lab, p in zip(var.states, probs))
            print(f"{t:g}\t{var.name}\t{cells}")
    return EXIT_OK


_COMMANDS = {
    "generate": _cmd_generate,
    "occlude": _cmd_occlude,
    "em": _cmd_em,
    "sem": _cmd_sem,
    "score": _cmd_score,
    "smooth": _cmd_smooth,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (fileio.ParseError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ZeroProbabilityEvidenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ZERO_PROB
    except JointSpaceTooLargeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TOO_LARGE


if __name__ == "__main__":
    sys.exit(main())
