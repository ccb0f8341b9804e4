"""Tests for repro.ml.naive_bayes."""

import numpy as np
import pytest

from repro.errors import ModelError, NotFittedError
from repro.ml.naive_bayes import BernoulliNaiveBayes


def _binary_data(n=200, seed=0):
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, size=n)
    X = np.zeros((n, 4))
    # feature 0/1 correlate with class 1, features 2/3 with class 0
    for i, label in enumerate(y):
        if label == 1:
            X[i, 0] = rng.random() < 0.9
            X[i, 1] = rng.random() < 0.8
            X[i, 2] = rng.random() < 0.1
        else:
            X[i, 2] = rng.random() < 0.9
            X[i, 3] = rng.random() < 0.8
            X[i, 0] = rng.random() < 0.1
    return X, y


class TestBernoulliNaiveBayes:
    def test_learns_correlated_features(self):
        X, y = _binary_data()
        model = BernoulliNaiveBayes().fit(X, y)
        accuracy = float(np.mean(model.predict(X) == y))
        assert accuracy > 0.85

    def test_probabilities_bounded(self):
        X, y = _binary_data()
        probs = BernoulliNaiveBayes().fit(X, y).predict_proba(X)
        assert np.all(probs >= 0) and np.all(probs <= 1)

    def test_predict_before_fit_raises(self):
        with pytest.raises(NotFittedError):
            BernoulliNaiveBayes().predict(np.zeros((1, 4)))

    def test_rejects_invalid_alpha(self):
        with pytest.raises(ModelError):
            BernoulliNaiveBayes(alpha=0)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ModelError):
            BernoulliNaiveBayes().fit(np.zeros(5), np.zeros(5))
        with pytest.raises(ModelError):
            BernoulliNaiveBayes().fit(np.zeros((4, 2)), np.zeros(5))

    def test_rejects_non_binary_labels(self):
        with pytest.raises(ModelError):
            BernoulliNaiveBayes().fit(np.zeros((3, 2)), np.array([0, 2, 1]))

    def test_dimension_mismatch_rejected(self):
        X, y = _binary_data()
        model = BernoulliNaiveBayes().fit(X, y)
        with pytest.raises(ModelError):
            model.predict(np.zeros((2, 9)))

    def test_binarize_threshold(self):
        X = np.array([[0.4], [0.6]] * 20)
        y = np.array([0, 1] * 20)
        model = BernoulliNaiveBayes(binarize_threshold=0.5).fit(X, y)
        assert model.predict(np.array([[0.7]]))[0] == 1
        assert model.predict(np.array([[0.2]]))[0] == 0

    def test_single_row_prediction(self):
        X, y = _binary_data()
        model = BernoulliNaiveBayes().fit(X, y)
        assert model.predict_proba(X[0]).shape == (1,)

    def test_handles_single_class_gracefully_with_smoothing(self):
        X = np.ones((10, 3))
        y = np.ones(10, dtype=int)
        model = BernoulliNaiveBayes().fit(X, y)
        assert model.predict(np.ones((1, 3)))[0] == 1

    @pytest.mark.parametrize("chunk", [1, 3, 7, 64])
    def test_chunked_probabilities_equal_full_matrix_bit_for_bit(self, chunk):
        # the streaming curator classifies only the rows a delta produced;
        # a row's probability must not depend on what shares its batch
        rng = np.random.default_rng(5)
        X_train = rng.random((300, 8))
        y_train = (X_train[:, 0] + X_train[:, 3] > 1.0).astype(int)
        model = BernoulliNaiveBayes().fit(X_train, y_train)
        X = rng.random((257, 8))
        full = model.predict_proba(X)
        chunked = np.concatenate(
            [
                model.predict_proba(X[start : start + chunk])
                for start in range(0, len(X), chunk)
            ]
        )
        assert np.array_equal(full, chunked)
        # strided and reordered inputs score the same floats too
        order = rng.permutation(len(X))
        assert np.array_equal(model.predict_proba(X[order]), full[order])
        assert np.array_equal(model.predict_proba(np.asfortranarray(X)[::2]), full[::2])
