"""Unit tests for the checking front end: CheckSession dispatch and checks."""

import numpy as np
import pytest

from repro.circuits import QuantumCircuit
from repro.core import CheckSession, approx_equivalent, jamiolkowski_fidelity
from repro.library import qft
from repro.noise import bit_flip, depolarizing, insert_random_noise


class TestValidation:
    def test_validation_errors_name_the_choices(self):
        """Satellite: every config validation error lists valid values."""
        from repro.backends.base import resolve_backend
        from repro.core import CheckConfig

        with pytest.raises(ValueError, match="alg1"):
            CheckConfig(algorithm="bogus")
        with pytest.raises(ValueError, match="tdd"):
            CheckConfig(backend="bogus")
        with pytest.raises(TypeError, match="tdd"):
            CheckConfig(backend=42)
        with pytest.raises(ValueError, match="tree_decomposition"):
            CheckConfig(order_method="bogus")
        with pytest.raises(ValueError, match="greedy"):
            CheckConfig(planner="bogus")
        with pytest.raises(ValueError, match="tdd"):
            resolve_backend("bogus")
        with pytest.raises(TypeError, match="tdd"):
            resolve_backend(42)


class TestDispatch:
    def test_auto_prefers_alg1_for_few_noises(self):
        session = CheckSession()
        noisy = insert_random_noise(qft(3), 1, seed=0)
        assert session.select_algorithm(noisy) == "alg1"

    def test_auto_prefers_alg2_for_many_noises(self):
        session = CheckSession()
        noisy = insert_random_noise(qft(3), 6, seed=0)
        assert session.select_algorithm(noisy) == "alg2"

    def test_explicit_algorithm_respected(self):
        session = CheckSession(algorithm="alg2")
        noisy = insert_random_noise(qft(3), 1, seed=0)
        assert session.select_algorithm(noisy) == "alg2"

    def test_invalid_algorithm(self):
        with pytest.raises(ValueError):
            CheckSession(algorithm="bogus")

    def test_invalid_epsilon(self):
        with pytest.raises(ValueError):
            CheckSession(epsilon=-0.1)


class TestCheck:
    def test_equivalent_small_noise(self):
        ideal = qft(3)
        noisy = insert_random_noise(ideal, 2, seed=1)  # p = 0.999
        out = CheckSession(epsilon=0.01).check(ideal, noisy)
        assert out.equivalent
        assert out.fidelity > 0.99

    def test_not_equivalent_heavy_noise(self):
        ideal = qft(2)
        noisy = insert_random_noise(
            ideal, 3, channel_factory=lambda: depolarizing(0.5), seed=1
        )
        out = CheckSession(epsilon=0.01, algorithm="alg2").check(
            ideal, noisy
        )
        assert not out.equivalent

    def test_all_algorithms_same_verdict(self):
        ideal = qft(2)
        noisy = insert_random_noise(
            ideal, 2, channel_factory=lambda: bit_flip(0.9), seed=4
        )
        verdicts = set()
        for algorithm in ("alg1", "alg2", "dense"):
            out = CheckSession(
                epsilon=0.3, algorithm=algorithm
            ).check(ideal, noisy)
            verdicts.add(out.equivalent)
        assert len(verdicts) == 1

    def test_width_mismatch(self):
        with pytest.raises(ValueError):
            CheckSession().check(QuantumCircuit(1), QuantumCircuit(2))

    def test_noisy_ideal_rejected(self):
        ideal = QuantumCircuit(1)
        ideal.append(bit_flip(0.9), [0])
        with pytest.raises(ValueError):
            CheckSession().check(ideal, ideal)

    def test_negative_with_truncation_carries_note(self):
        # A non-equivalent instance where alg1 truncates: the result notes
        # that the bound is inconclusive evidence for inequivalence.
        ideal = qft(2)
        noisy = insert_random_noise(
            ideal, 2, channel_factory=lambda: depolarizing(0.6), seed=2
        )
        session = CheckSession(epsilon=0.001, algorithm="alg1")
        out = session.check(ideal, noisy)
        assert not out.equivalent

    def test_result_fields_populated(self):
        ideal = qft(2)
        noisy = insert_random_noise(ideal, 1, seed=0)
        out = CheckSession(epsilon=0.05).check(ideal, noisy)
        assert out.algorithm in ("alg1", "alg2")
        assert out.epsilon == 0.05
        assert out.stats.time_seconds >= 0


class TestConvenienceWrappers:
    def test_approx_equivalent(self):
        ideal = qft(2)
        noisy = insert_random_noise(ideal, 1, seed=0)
        assert approx_equivalent(ideal, noisy, epsilon=0.05)

    def test_jamiolkowski_fidelity_dispatch(self):
        ideal = qft(2)
        noisy = insert_random_noise(ideal, 1, seed=0)
        values = {
            jamiolkowski_fidelity(noisy, ideal, algorithm=a)
            for a in ("alg1", "alg2", "dense")
        }
        assert max(values) - min(values) < 1e-8

    def test_jamiolkowski_fidelity_unknown(self):
        with pytest.raises(ValueError):
            jamiolkowski_fidelity(qft(2), qft(2), algorithm="nope")
