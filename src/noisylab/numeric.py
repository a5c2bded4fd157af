"""Dense float64 kernels: activations, softmax, RNG.

Matrices throughout the package are plain 2-D C-contiguous numpy arrays of
64-bit floats (row-major).

Finiteness of the training arithmetic is checked per batch instead of per
product: the training loop scans each batch's forward outputs (logits and
detection outputs), ``sgd_step`` scans the flat gradient before the step
and the flat parameters after it, and ``DualHeadNet.classify`` scans its
logits.  NaN and Inf propagate into those arrays with one exception: a
trunk pre-activation that overflows to -Inf is clamped to 0 by relu, as a
large finite negative value would be, and is not detected.  Only when a
check fails does the code scan parameter by parameter to name the
offending layer.

Randomness comes from :func:`rng_stream`, a numpy PCG64 ``Generator`` per
(seed, key path).  PCG64 is a fixed, platform-independent algorithm, so
a given seed yields the same draw sequence on every machine; that is what
makes experiment replays bit-identical.
"""

import numpy as np

from .errors import ConfigError


def activation(kind: str, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Elementwise activation ``kind`` ("relu", else tanh) at ``x``, written
    into ``out`` when given (``out=x`` applies it in place).  Its derivative
    is read off this value by :func:`activation_derivative`, so a forward
    pass caches outputs only."""
    if kind == "relu":
        return np.maximum(x, 0.0, out=out)
    return np.tanh(x, out=out)


def activation_derivative(kind: str, value: np.ndarray) -> np.ndarray:
    """Derivative of activation ``kind``, read off its output ``value``.

    relu: ``value > 0``, a bool mask that multiplies like 0/1 floats and
    equals ``x > 0`` for every input x (0, -0.0 and NaN included), so the
    derivative at exactly 0 is 0 (convention).  tanh: ``1 - value * value``,
    formed in one temporary.
    """
    if kind == "relu":
        return value > 0.0
    square = np.multiply(value, value)
    return np.subtract(1.0, square, out=square)


def softmax_with_temperature(logits: np.ndarray, temperature: float) -> np.ndarray:
    """Temperature-scaled softmax over the last axis, with max-subtraction.

    ``temperature == 1`` reduces to the standard softmax; it is positive, as
    ``DualHeadNet`` guarantees.  The steps after the scaling run in place on
    the scaled copy; ``logits`` is not written.
    """
    e = logits / temperature  # its one full-size array
    e -= e.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def rng_stream(seed: int, *keys: int) -> "np.random.Generator":
    """The PCG64 generator of stream ``keys`` of ``seed``, seeded through
    ``SeedSequence(seed, spawn_key=keys)``.

    A stream depends only on its (seed, key path) pair, never on how many
    draws any other stream has made; experiment code uses fixed integer keys
    per purpose (data generation, noise injection, weight init, shuffling,
    ...).  A negative seed is a ConfigError.
    """
    if seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed}")
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=keys)))
