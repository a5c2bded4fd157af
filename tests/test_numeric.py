"""Tests for the dense numeric kernels: the model's matmul (numpy's),
activations, softmax, the finite-difference gradient auditor, the seeded RNG
streams, and the malloc thresholds the package fixes at import."""

import ctypes
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import noisylab

from noisylab import numeric
from noisylab.errors import ConfigError, NumericError
from noisylab.model import DualHeadNet, matmul
from noisylab.numeric import (activation, activation_derivative, rng_stream,
                              softmax_with_temperature)
from oracles import finite_difference_check


def naive_matmul(a, b):
    """Triple-loop reference product, deliberately independent of numpy's @."""
    n, k = a.shape
    k2, m = b.shape
    assert k == k2
    out = np.zeros((n, m))
    for i in range(n):
        for j in range(m):
            acc = 0.0
            for t in range(k):
                acc += a[i, t] * b[t, j]
            out[i, j] = acc
    return out


class TestMatmul:
    def test_model_products_are_numpys_matmul(self):
        """The model looks numpy's product up under its own name (the
        benchmark's hook patches ``noisylab.model.matmul``); numeric has no
        wrapper of its own."""
        assert matmul is np.matmul
        assert not hasattr(numeric, "matmul")

    def test_identity(self):
        m = np.array([[3.0, -1.0], [2.5, 7.0]])
        assert np.array_equal(matmul(np.eye(2), m), m)

    def test_hand_arithmetic(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.array([[1.0], [1.0]])
        assert np.array_equal(matmul(a, b), np.array([[3.0], [7.0]]))

    def test_against_naive_oracle(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(5, 7))
        b = rng.normal(size=(7, 3))
        got = matmul(a, b)
        want = naive_matmul(a, b)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_random_shapes_against_oracle(self):
        """100 random shape combinations, elementwise within 1e-12 relative."""
        rng = np.random.default_rng(42)
        for _ in range(100):
            n, k, m = rng.integers(1, 9, size=3)
            a = rng.normal(size=(n, k))
            b = rng.normal(size=(k, m))
            np.testing.assert_allclose(matmul(a, b), naive_matmul(a, b),
                                       rtol=1e-12, atol=1e-12)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            matmul(np.zeros((2, 3)), np.zeros((4, 5)))


class TestActivation:
    def test_relu_at_zero_convention(self):
        value = activation("relu", np.array([[0.0, -0.0, np.nan]]))
        assert value[0, 0] == 0.0
        deriv = activation_derivative("relu", value)
        assert deriv.tolist() == [[False, False, False]]

    def test_tanh_at_zero(self):
        value = activation("tanh", np.array([[0.0]]))
        assert value[0, 0] == 0.0
        assert activation_derivative("tanh", value)[0, 0] == 1.0

    @pytest.mark.parametrize("kind", ["relu", "tanh"])
    def test_in_place_form_is_bitwise_the_fresh_one(self, kind):
        x = 5.0 * np.random.default_rng(3).normal(size=(50, 7))
        x[0, :3] = (0.0, -0.0, np.nan)
        fresh = activation(kind, x)
        out = x.copy()
        assert activation(kind, out, out=out) is out
        assert out.tobytes() == fresh.tobytes()

    @pytest.mark.parametrize("kind", ["relu", "tanh"])
    def test_derivative_matches_finite_differences(self, kind):
        """Central differences of the value match the derivative read off
        the value within 1e-6 at 1000 random points (relu points pushed
        off 0)."""
        rng = np.random.default_rng(7)
        x = rng.uniform(-4.0, 4.0, size=1000)
        if kind == "relu":
            x = x[np.abs(x) > 1e-3]
        h = 1e-6
        deriv = activation_derivative(kind, activation(kind, x))
        fd = (activation(kind, x + h) - activation(kind, x - h)) / (2 * h)
        np.testing.assert_allclose(deriv, fd, atol=1e-6)


class TestSoftmax:
    def test_constant_logits_uniform(self):
        for temp in (0.5, 1.0, 2.0):
            p = softmax_with_temperature(np.array([[4.2, 4.2, 4.2]]), temp)
            np.testing.assert_allclose(p, [[1 / 3, 1 / 3, 1 / 3]], atol=1e-12)

    def test_analytic_two_class(self):
        p = softmax_with_temperature(np.array([[math.log(2.0), 0.0]]), 1.0)
        np.testing.assert_allclose(p, [[2 / 3, 1 / 3]], atol=1e-12)

    def test_analytic_with_temperature(self):
        p = softmax_with_temperature(np.array([[2.0, 0.0]]), 2.0)
        e = math.e
        np.testing.assert_allclose(p, [[e / (e + 1), 1 / (e + 1)]], atol=1e-9)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        logits = rng.normal(scale=20, size=(64, 10))
        p = softmax_with_temperature(logits, 2.0)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-9)

    def test_shift_invariance(self):
        rng = np.random.default_rng(4)
        logits = rng.normal(size=(16, 5))
        a = softmax_with_temperature(logits, 1.7)
        b = softmax_with_temperature(logits + 123.456, 1.7)
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_temperature_one_is_plain_softmax(self):
        rng = np.random.default_rng(5)
        logits = rng.normal(size=(8, 4))
        want = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        np.testing.assert_allclose(softmax_with_temperature(logits, 1.0), want,
                                   atol=1e-12)

    def test_argmax_invariant_under_temperature(self):
        rng = np.random.default_rng(6)
        logits = rng.normal(size=(200, 7))
        base = np.argmax(logits, axis=1)
        for temp in (0.1, 1.0, 2.0, 50.0):
            p = softmax_with_temperature(logits, temp)
            assert np.array_equal(np.argmax(p, axis=1), base)

    def test_nonpositive_temperature(self):
        """The softmax trusts a positive temperature; the network's
        constructor, where the temperature enters, refuses any other."""
        for temp in (0.0, -1.0, float("nan")):
            with pytest.raises(ConfigError, match="temperature"):
                DualHeadNet(5, 3, 4, 6, 2, temp)


class TestFiniteDifferenceCheck:
    def test_quadratic_loss(self):
        """0.5 * ||theta||^2 has gradient theta; the auditor should report
        essentially zero error."""
        rng = np.random.default_rng(9)
        theta = rng.normal(size=(4, 3))

        def loss_and_grad():
            return 0.5 * float((theta ** 2).sum()), [theta.copy()]

        err = finite_difference_check(loss_and_grad, [theta])
        assert err < 1e-8

    def test_detects_wrong_gradient(self):
        theta = np.array([[1.0, 2.0]])

        def loss_and_grad():
            return 0.5 * float((theta ** 2).sum()), [2.0 * theta]

        assert finite_difference_check(loss_and_grad, [theta]) > 0.1

    def test_epsilon_bounds(self):
        theta = np.zeros((1, 1))
        with pytest.raises(ConfigError):
            finite_difference_check(lambda: (0.0, [theta]), [theta], epsilon=1e-8)

    def test_nonfinite_loss_rejected(self):
        theta = np.zeros((1, 1))
        with pytest.raises(NumericError):
            finite_difference_check(lambda: (float("nan"), [theta]), [theta])


class TestRngStream:
    def test_equal_seeds_equal_draws(self):
        """Identical seeds reproduce the first million uniforms exactly."""
        a = rng_stream(123).uniform(size=1_000_000)
        b = rng_stream(123).uniform(size=1_000_000)
        assert np.array_equal(a, b)

    def test_child_streams_are_stable(self):
        """A child stream depends only on (seed, key), not on how many
        draws the seed's other streams have made."""
        parent = rng_stream(7)
        early = rng_stream(7, 2).uniform(size=10)
        parent.uniform(size=1000)
        late = rng_stream(7, 2).uniform(size=10)
        assert np.array_equal(early, late)

    def test_distinct_keys_distinct_streams(self):
        a = rng_stream(7, 0).uniform(size=100)
        b = rng_stream(7, 1).uniform(size=100)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("seed,keys", [(0, ()), (7, (2,)), (5, (5,)), (3, (1, 4))])
    def test_draws_are_numpys_keyed_seed_sequence(self, seed, keys):
        """A stream is numpy's PCG64 over ``SeedSequence(seed, spawn_key=keys)``:
        the recipe that keeps replays identical across releases."""
        want = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence(seed, spawn_key=keys)))
        got = rng_stream(seed, *keys)
        assert isinstance(got, np.random.Generator)
        assert np.array_equal(got.uniform(size=100), want.uniform(size=100))
        assert np.array_equal(got.integers(0, 10, size=100), want.integers(0, 10, size=100))

    def test_permutation_reproducible(self):
        assert np.array_equal(rng_stream(1).permutation(50),
                              rng_stream(1).permutation(50))

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="non-negative"):
            rng_stream(-1)


# Run in a fresh interpreter, so no earlier free has moved glibc's dynamic
# thresholds: prints how many blocks of 16 MiB and of 40 MiB were mmap'd.
MMAP_PROBE = """
import ctypes
import numpy as np
import noisylab

class MallInfo2(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks", "fsmblks",
        "uordblks", "fordblks", "keepcost")]

mallinfo2 = ctypes.CDLL(None).mallinfo2
mallinfo2.restype = MallInfo2

def mmapped(nbytes):
    before = mallinfo2().hblks
    block = np.ones(nbytes // 8)  # alive until counted
    return mallinfo2().hblks - before

print(mmapped(16 << 20), mmapped(40 << 20))
"""


def _glibc_with_mallinfo2() -> bool:
    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION") or ""
    except (AttributeError, ValueError, OSError):
        return False
    if not libc.startswith("glibc"):
        return False
    return hasattr(ctypes.CDLL(None), "mallinfo2")  # glibc >= 2.33


@pytest.mark.skipif(not _glibc_with_mallinfo2(), reason="needs glibc's mallinfo2")
def test_import_fixes_the_mmap_threshold_at_32_mib():
    """Importing the package serves every block under 32 MiB from the heap
    (glibc's default would mmap a first 16 MiB block) and still mmaps
    larger ones."""
    env = dict(os.environ, PYTHONPATH=str(Path(noisylab.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", MMAP_PROBE], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["0", "1"]


def test_importing_the_cli_leaves_numpy_random_unloaded():
    """``numpy.random`` loads at a run's first draw, not at import: no
    annotation looks ``np.random.Generator`` up."""
    env = dict(os.environ, PYTHONPATH=str(Path(noisylab.__file__).parents[1]))
    probe = "import sys, noisylab.cli; print('numpy' in sys.modules, 'numpy.random' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["True", "False"]
