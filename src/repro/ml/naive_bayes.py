"""Bernoulli naive Bayes classifier.

A simpler alternative to logistic regression used as the comparison point in
the classifier ablation benchmark.  Features are binarised at a threshold;
class-conditional probabilities use Laplace smoothing.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..errors import ModelError, NotFittedError


class BernoulliNaiveBayes:
    """Binary-label, binary-feature naive Bayes with Laplace smoothing."""

    def __init__(self, alpha: float = 1.0, binarize_threshold: float = 0.5):
        if alpha <= 0:
            raise ModelError("alpha must be positive")
        self.alpha = alpha
        self.binarize_threshold = binarize_threshold
        self._log_prior: Optional[np.ndarray] = None
        self._feature_log_prob: Optional[np.ndarray] = None
        self._feature_log_prob_neg: Optional[np.ndarray] = None

    def _binarize(self, X: np.ndarray) -> np.ndarray:
        return (X > self.binarize_threshold).astype(float)

    def fit(self, X: Sequence, y: Sequence[int]) -> "BernoulliNaiveBayes":
        """Train on feature matrix ``X`` and binary labels ``y``."""
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=int)
        if X.ndim != 2:
            raise ModelError("X must be a 2-D array")
        if y.shape[0] != X.shape[0]:
            raise ModelError("y must align with X rows")
        if not np.all((y == 0) | (y == 1)):
            raise ModelError("labels must be 0 or 1")
        Xb = self._binarize(X)
        n_samples, _ = Xb.shape
        log_prior = np.zeros(2)
        feature_log_prob = []
        feature_log_prob_neg = []
        for label in (0, 1):
            mask = y == label
            count = int(np.sum(mask))
            log_prior[label] = np.log(
                (count + self.alpha) / (n_samples + 2 * self.alpha)
            )
            on_counts = Xb[mask].sum(axis=0) if count else np.zeros(Xb.shape[1])
            prob_on = (on_counts + self.alpha) / (count + 2 * self.alpha)
            feature_log_prob.append(np.log(prob_on))
            feature_log_prob_neg.append(np.log(1.0 - prob_on))
        self._log_prior = log_prior
        self._feature_log_prob = np.vstack(feature_log_prob)
        self._feature_log_prob_neg = np.vstack(feature_log_prob_neg)
        return self

    def _joint_log_likelihood(self, X: np.ndarray) -> np.ndarray:
        """Per-class joint log-likelihood, one row per sample.

        Accumulated one feature column at a time in a fixed order (as
        :func:`repro.ml.linear.linear_scores` does): a matrix product is
        free to reduce in a shape-dependent order, which would let a row's
        probability depend on how many rows share its batch.  The streaming
        curator classifies only the rows a delta produced and must get the
        floats a full-matrix call gives them.
        """
        if self._log_prior is None:
            raise NotFittedError("BernoulliNaiveBayes")
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X.reshape(1, -1)
        if X.shape[1] != self._feature_log_prob.shape[1]:
            raise ModelError(
                f"feature dimension mismatch: model has "
                f"{self._feature_log_prob.shape[1]}, input has {X.shape[1]}"
            )
        on = X > self.binarize_threshold
        jll = np.empty((X.shape[0], 2))
        for label in (0, 1):
            log_on = self._feature_log_prob[label]
            log_off = self._feature_log_prob_neg[label]
            acc = np.full(X.shape[0], self._log_prior[label])
            for j in range(X.shape[1]):
                acc = acc + np.where(on[:, j], log_on[j], log_off[j])
            jll[:, label] = acc
        return jll

    def predict_proba(self, X: Sequence) -> np.ndarray:
        """Return P(label == 1) for each row of ``X``."""
        jll = self._joint_log_likelihood(X)
        shifted = jll - jll.max(axis=1, keepdims=True)
        probs = np.exp(shifted)
        probs /= probs.sum(axis=1, keepdims=True)
        return probs[:, 1]

    def predict(self, X: Sequence, threshold: float = 0.5) -> np.ndarray:
        """Return 0/1 predictions at the given probability threshold."""
        return (self.predict_proba(X) >= threshold).astype(int)
