"""Scikit-learn style estimators wrapping the EM and structural-EM learners.

Both estimators accept a dataset ``X`` that is a sequence of
:class:`~ctbnlearn.evidence.ObservedTrajectory` records (or pre-lowered
:class:`~ctbnlearn.evidence.Evidence`), expose ``get_params``/``set_params``
for composition with pipeline tooling, and publish the fitted model and
its diagnostics as trailing-underscore attributes.
"""
from __future__ import annotations

import inspect

import numpy as np

from .evidence import Evidence, ObservedTrajectory
from .learning import EmConfig, SemConfig, em, score_dataset, sem
from .model import CtbnModel

__all__ = ["CtbnEmEstimator", "CtbnSemEstimator"]


class _ParamsMixin:
    @classmethod
    def _param_names(cls):
        sig = inspect.signature(cls.__init__)
        return [p.name for p in sig.parameters.values() if p.name != "self"]

    def get_params(self, deep: bool = True) -> dict:
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params):
        valid = set(self._param_names())
        for key, value in params.items():
            if key not in valid:
                raise ValueError(f"invalid parameter {key!r} for {type(self).__name__}")
            setattr(self, key, value)
        return self

    def __repr__(self):
        args = ", ".join(f"{k}={v!r}" for k, v in self.get_params().items() if k != "template")
        return f"{type(self).__name__}({args})"


class CtbnEmEstimator(_ParamsMixin):
    """Maximum-likelihood parameter estimation by EM on a fixed structure.

    Parameters mirror :class:`~ctbnlearn.learning.EmConfig`; ``template`` is
    the model whose structure (and, with ``init='given'``, parameters) seed
    the fit.
    """

    def __init__(
        self,
        template: CtbnModel | None = None,
        max_iter: int = EmConfig.max_iter,
        tol: float = EmConfig.tol,
        restarts: int = EmConfig.restarts,
        init: str = EmConfig.init,
        rate_range: tuple = EmConfig.rate_range,
        freeze_initial: bool = EmConfig.freeze_initial,
        quad_tol: float = EmConfig.quad_tol,
        joint_cap: int = EmConfig.joint_cap,
        random_state: int = EmConfig.seed,
    ):
        self.template = template
        self.max_iter = max_iter
        self.tol = tol
        self.restarts = restarts
        self.init = init
        self.rate_range = rate_range
        self.freeze_initial = freeze_initial
        self.quad_tol = quad_tol
        self.joint_cap = joint_cap
        self.random_state = random_state

    def _em_config(self) -> EmConfig:
        return EmConfig(
            max_iter=self.max_iter,
            tol=self.tol,
            seed=self.random_state,
            rate_range=tuple(self.rate_range),
            freeze_initial=self.freeze_initial,
            restarts=self.restarts,
            init=self.init,
            quad_tol=self.quad_tol,
            joint_cap=self.joint_cap,
        )

    def _template(self) -> CtbnModel:
        if self.template is None:
            raise ValueError("a template model is required to fit")
        return self.template

    def _as_evidence(self, X) -> list[Evidence]:
        space = self._template().space()
        out = []
        for item in X:
            if isinstance(item, Evidence):
                out.append(item)
            elif isinstance(item, ObservedTrajectory):
                out.append(item.to_evidence(space))
            else:
                raise TypeError(f"cannot interpret {type(item).__name__} as evidence")
        return out

    def fit(self, X, y=None):
        dataset = self._as_evidence(X)
        return self._publish(em(self._template(), dataset, self._em_config()))

    def _publish(self, result):
        """Set the fitted attributes both estimators share."""
        self.model_ = result.model
        self.trace_ = np.asarray(result.trace)
        self.converged_ = result.converged
        self.n_iter_ = result.n_iter
        self.stats_ = result.stats
        self.log_likelihood_ = result.log_likelihood
        return self

    def _fitted_model(self) -> CtbnModel:
        model = getattr(self, "model_", None)
        if model is None:
            raise ValueError("estimator is not fitted yet; call fit first")
        return model

    def score_samples(self, X) -> np.ndarray:
        model = self._fitted_model()
        space = model.space()
        dataset = [x if isinstance(x, Evidence) else x.to_evidence(space) for x in X]
        return np.asarray(score_dataset(model, dataset, self.joint_cap))

    def score(self, X, y=None) -> float:
        """Total observed-data log-likelihood of X under the fitted model."""
        return float(self.score_samples(X).sum())


class CtbnSemEstimator(CtbnEmEstimator):
    """Joint structure and parameter estimation by structural EM with an
    exact per-variable parent search under the BIC score."""

    def __init__(
        self,
        template: CtbnModel | None = None,
        max_parents: int = SemConfig.max_parents,
        em_iters: int = SemConfig.em_iters,
        max_rounds: int = SemConfig.max_rounds,
        max_iter: int = EmConfig.max_iter,
        tol: float = EmConfig.tol,
        restarts: int = EmConfig.restarts,
        init: str = EmConfig.init,
        rate_range: tuple = EmConfig.rate_range,
        freeze_initial: bool = EmConfig.freeze_initial,
        quad_tol: float = EmConfig.quad_tol,
        joint_cap: int = EmConfig.joint_cap,
        random_state: int = EmConfig.seed,
    ):
        super().__init__(
            template=template,
            max_iter=max_iter,
            tol=tol,
            restarts=restarts,
            init=init,
            rate_range=rate_range,
            freeze_initial=freeze_initial,
            quad_tol=quad_tol,
            joint_cap=joint_cap,
            random_state=random_state,
        )
        self.max_parents = max_parents
        self.em_iters = em_iters
        self.max_rounds = max_rounds

    def fit(self, X, y=None):
        dataset = self._as_evidence(X)
        config = SemConfig(
            em=self._em_config(),
            max_parents=self.max_parents,
            em_iters=self.em_iters,
            max_rounds=self.max_rounds,
        )
        result = sem(self._template(), dataset, config)
        self._publish(result)
        self.bic_trace_ = np.asarray(result.bic_trace)
        self.graph_ = result.model.graph()
        return self
