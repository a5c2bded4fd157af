"""Dual-head MLP with hand-derived backprop, SGD+momentum, cosine schedule.

Architecture: a shared relu trunk feeding two heads.  The classification
head is a single linear layer read out through a temperature-scaled
softmax; raising the temperature slows that head's convergence relative to
the detection head.  The detection head is a three-layer tanh MLP whose
final output is remapped from (-1, 1) to (0, 1) via (t+1)/2, giving one
bit-probability per codeword bit; the remap mirrors the {-1,1} -> {0,1}
remap of the codebook targets so binary cross-entropy is well typed.

Training minimizes CE + bce_weight * BCE through one masked loss whose
terms come from one kernel each: :func:`per_sample_cross_entropy` and
:func:`bce_log_likelihood`, which the selection identifiers also read.

The chain rule is written once per direction and serves the relu trunk
and the tanh detection chain alike: :func:`_chain_forward` caches each
layer's output, :func:`_chain_backward` walks a chain back through that
cache and reads each activation derivative off the cached output.  A masked
update gathers its k selected rows of the cache once and runs the loss and
the whole backward pass on them (the cross update alone keeps a full-batch
backward with the dropped rows zeroed); the forward pass stays full-batch,
since selection reads every row, but caches only the k rows when they are
known before it (a gated jump update), and those rows are then the selection.

The step writes into arrays it already owns: bias and activation on each
layer's fresh matmul result, the ``z`` remap, the softmax, the backward
chain's running gradient, the detection gradient (whose spent array then
takes the classifier's share of the trunk gradient), and one temporary per
block in :func:`sgd_step`.  Each in-place form applies the same IEEE
operations to the same operands as the allocating expression, so results
are bitwise unchanged.  Nothing writes into a :class:`ForwardResult` after
forward returns, so one can be reused.

During inference only the classification head is consulted
(:meth:`DualHeadNet.classify`).

Every product is numpy's ``matmul``, looked up as this module's ``matmul``;
it refuses operands whose inner dimensions differ.  The constructor, where a
layout enters from a config or a checkpoint sidecar, refuses a non-positive
temperature and a net over the element cap; the step checks only finiteness.

Checkpoint format (documented external interface): a flat binary file with
magic ``NLABCKP1``, a shape table (little-endian uint32: array count, then
ndim + dims per array), then each array's row-major float64 payload in
parameter order; a JSON sidecar ``<path>.json`` carries config, epoch, seed
and the layer layout needed to rebuild the network.

Parameter arena: a network holds all of its weights and biases as views
into one contiguous float64 vector (``DualHeadNet.flat``), in
:meth:`DualHeadNet.parameters` order, which is also the checkpoint payload
order.  ``DualHeadNet.grad`` is a gradient vector with the same layout that
:meth:`DualHeadNet.backward` fills in place, so an optimizer step is a few
array operations and one finiteness check over each vector.
"""

import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy import matmul

from .codebook import MAX_ELEMENTS
from .errors import CapacityError, ConfigError, DataIOError, NumericError, atomic_write
from .numeric import activation, activation_derivative, softmax_with_temperature

# Detection outputs are kept inside [Z_CLAMP, 1 - Z_CLAMP]; this doubles as
# the log clamp for the binary cross-entropy terms.
Z_CLAMP = 1e-12

CHECKPOINT_MAGIC = b"NLABCKP1"


@dataclass
class TrainConfig:
    """Optimization and architecture knobs for one training run.

    ``code_bits=None`` means "derive from the class count" (smallest power
    of two >= max(16, 2C)).  ``bce_weight`` scales the detection-head loss
    inside the combined objective (default 1: both heads weighted equally).
    """

    lr0: float = 0.1
    lr_min: float = 5e-4
    momentum: float = 0.9
    weight_decay: float = 3e-3
    batch_size: int = 128
    epochs: int = 60
    warmup_epochs: int = 9
    temperature: float = 2.0
    hidden_width: int = 64
    hidden_layers: int = 2
    code_bits: int | None = None
    bce_weight: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.lr_min <= self.lr0):
            raise ConfigError(f"require 0 < lr_min <= lr0, got lr_min={self.lr_min}, lr0={self.lr0}")
        if not (0.0 <= self.momentum < 1.0):
            raise ConfigError(f"momentum must lie in [0, 1), got {self.momentum}")
        if self.weight_decay < 0.0:
            raise ConfigError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if not (0 <= self.warmup_epochs < self.epochs):
            raise ConfigError(
                f"warmup_epochs must lie in [0, epochs), got {self.warmup_epochs} vs {self.epochs}")
        if self.temperature <= 0.0:
            raise ConfigError(f"temperature must be positive, got {self.temperature}")
        if self.hidden_width < 1 or self.hidden_layers < 1:
            raise ConfigError("hidden_width and hidden_layers must be >= 1")
        if self.code_bits is not None and self.code_bits < 2:
            raise ConfigError(f"code_bits must be >= 2, got {self.code_bits}")
        if self.bce_weight < 0.0:
            raise ConfigError(f"bce_weight must be >= 0, got {self.bce_weight}")


@dataclass
class Layer:
    w: np.ndarray  # (fan_in, fan_out)
    b: np.ndarray  # (fan_out,)
    gw: np.ndarray  # gradient of w, a view into the net's gradient arena
    gb: np.ndarray  # gradient of b, likewise


@dataclass
class ForwardResult:
    """Everything forward() computed, cached for one backward pass.

    ``acts`` holds every layer input once: the batch ``x``, each trunk
    output, then the detection hidden outputs, at the batch's ``rows``
    (None: all).  The last trunk output
    (``acts[len(net.trunk)]``) feeds the classifier and the detection head.
    No derivatives are cached: backward reads them off these outputs."""

    probs: np.ndarray          # (n, C)
    z: np.ndarray              # (n, K) detection outputs in (0, 1)
    logits: np.ndarray         # (n, C)
    acts: list
    rows: np.ndarray | None = None


def _chain_forward(layers, kind: str, a, cache=None, rows=None):
    """Run ``a`` through ``layers`` under activation ``kind``; with a
    ``cache`` list, append each layer's output (its ``rows``, if given) to it."""
    for lay in layers:
        a = matmul(a, lay.w)  # a fresh array: the bias and activation go in place
        a += lay.b
        activation(kind, a, out=a)
        if cache is not None:
            cache.append(a if rows is None else a.take(rows, axis=0))
    return a


def _chain_backward(layers, kind: str, acts, d):
    """Walk a chain back from the gradient ``d``, writing each layer's
    ``gw``/``gb``; returns the gradient at the first layer's pre-activation
    (that layer's input gradient is not formed).  ``acts[i]`` is layer i's
    input; when ``acts`` also holds the last layer's output, ``d`` is the
    gradient at that output, else at the last pre-activation.

    Each activation derivative is multiplied into ``d`` in place, so a
    ``d`` given at the last output is overwritten; the later ``d`` are this
    walk's own matmul results.  ``acts`` is only read."""
    for i in range(len(layers) - 1, -1, -1):
        lay = layers[i]
        if i + 1 < len(acts):
            d *= activation_derivative(kind, acts[i + 1])
        matmul(acts[i].T, d, out=lay.gw)
        d.sum(axis=0, out=lay.gb)
        if i:
            d = matmul(d, lay.w.T)
    return d


class DualHeadNet:
    """Shared relu trunk + linear classifier head + 3-layer tanh detection head.

    The constructor builds an all-zero network: one parameter arena
    (``flat``) and one gradient arena (``grad``), both zeroed, with every
    ``Layer`` of the net holding views into both.  :meth:`create` then
    draws the initial weights straight into those views.
    """

    def __init__(self, input_dim: int, num_classes: int, code_bits: int,
                 hidden_width: int, hidden_layers: int, temperature: float):
        if not temperature > 0.0:
            raise ConfigError(f"temperature must be positive, got {temperature}")
        w = hidden_width  # the arena's size, before any list or array exists
        size = (input_dim + hidden_layers + 2 + num_classes + code_bits
                + (hidden_layers + 1) * w) * w + num_classes + code_bits
        if size > MAX_ELEMENTS:
            raise CapacityError(f"a network of {size} parameters exceeds the "
                                f"{MAX_ELEMENTS}-element limit")
        widths = [input_dim] + [hidden_width] * hidden_layers
        shapes = [*zip(widths[:-1], widths[1:]), (hidden_width, num_classes),
                  (hidden_width, hidden_width), (hidden_width, hidden_width),
                  (hidden_width, code_bits)]
        self.flat = np.zeros(sum(fan_in * fan_out + fan_out for fan_in, fan_out in shapes))
        self.grad = np.zeros_like(self.flat)
        layers, off = [], 0
        for fan_in, fan_out in shapes:  # w, then b, carved from both arenas alike
            mid, end = off + fan_in * fan_out, off + (fan_in + 1) * fan_out
            w, gw = (arena[off:mid].reshape(fan_in, fan_out) for arena in (self.flat, self.grad))
            layers.append(Layer(w, self.flat[mid:end], gw, self.grad[mid:end]))
            off = end
        self.trunk = layers[:hidden_layers]
        self.classifier = layers[hidden_layers]
        self.detection = layers[hidden_layers + 1:]
        self.temperature = float(temperature)
        self._params = [a for lay in layers for a in (lay.w, lay.b)]
        self._grads = [a for lay in layers for a in (lay.gw, lay.gb)]
        names = ([f"trunk[{i}]" for i in range(hidden_layers)] + ["classifier"]
                 + [f"detection[{i}]" for i in range(len(self.detection))])
        self._names = [f"{name}.{part}" for name in names for part in "wb"]

    @classmethod
    def create(cls, input_dim: int, num_classes: int, code_bits: int,
               hidden_width: int, hidden_layers: int, temperature: float,
               rng: "np.random.Generator") -> "DualHeadNet":
        """Seeded initialization: He-scaled normals for relu layers,
        Xavier-scaled for tanh/linear layers, zero biases.  Weights are
        drawn layer by layer in :meth:`parameters` order."""
        net = cls(input_dim, num_classes, code_bits, hidden_width, hidden_layers,
                  temperature)
        for i, lay in enumerate([*net.trunk, net.classifier, *net.detection]):
            gain = 2.0 if i < hidden_layers else 1.0
            fan_in = lay.w.shape[0]
            lay.w[...] = rng.normal(0.0, math.sqrt(gain / fan_in), size=lay.w.shape)
        return net

    def parameters(self) -> list:
        """All parameter arrays in a fixed order (trunk, classifier, detection),
        as views into ``flat``."""
        return list(self._params)

    def gradients(self) -> list:
        """Views into ``grad`` aligned with :meth:`parameters`."""
        return list(self._grads)

    def first_nonfinite(self, arrays) -> str | None:
        """Name of the first of ``arrays`` (aligned with :meth:`parameters`)
        that holds a non-finite entry, else None.  It scans array by array,
        so it belongs on failure paths only."""
        for name, arr in zip(self._names, arrays):
            if not np.all(np.isfinite(arr)):
                return name
        return None

    def layout(self) -> dict:
        return {
            "input_dim": self.trunk[0].w.shape[0],
            "num_classes": self.classifier.w.shape[1],
            "code_bits": self.detection[-1].w.shape[1],
            "hidden_width": self.trunk[0].w.shape[1],
            "hidden_layers": len(self.trunk),
            "temperature": self.temperature,
        }

    def forward(self, x, rows=None) -> ForwardResult:
        """Full forward pass: class probabilities through the temperature
        softmax, and detection embeddings z inside [Z_CLAMP, 1 - Z_CLAMP];
        the cache keeps only the ``rows`` a loss will train on, when given.
        Unchecked: ``x`` is a float64 batch, as ``NoisyDataset`` holds it."""
        acts = [x if rows is None else x.take(rows, axis=0)]
        h = _chain_forward(self.trunk, "relu", x, acts, rows)
        logits = matmul(h, self.classifier.w)
        logits += self.classifier.b
        a = _chain_forward(self.detection[:-1], "tanh", h, acts, rows)
        last = self.detection[-1]
        z = matmul(a, last.w)  # z = clip((tanh(a w + b) + 1) / 2), step by step in place
        z += last.b
        np.tanh(z, out=z)
        z += 1.0
        z /= 2.0
        np.clip(z, Z_CLAMP, 1.0 - Z_CLAMP, out=z)
        return ForwardResult(softmax_with_temperature(logits, self.temperature), z, logits,
                             acts, rows)

    def classify(self, x):
        """Inference path: classification head only, detection head skipped.

        Raises NumericError when the logits are non-finite."""
        a = _chain_forward(self.trunk, "relu", x)
        logits = matmul(a, self.classifier.w)
        logits += self.classifier.b
        if not np.all(np.isfinite(logits)):
            bad = self.first_nonfinite(self._params)
            raise NumericError("non-finite logits in classify"
                               + (f"; parameter {bad} is non-finite" if bad else ""))
        probs = softmax_with_temperature(logits, self.temperature)
        return probs, np.argmax(probs, axis=1)

    def backward(self, acts: list, dlogits: np.ndarray,
                 d_det_pre: np.ndarray) -> None:
        """Backpropagate upstream gradients onto every parameter.

        ``acts`` is a forward cache (``ForwardResult.acts``), or some of
        its rows gathered; ``dlogits`` is the loss gradient w.r.t. the
        classifier logits and ``d_det_pre`` w.r.t. the pre-activation of the
        final detection layer, one row per cached row.  The gradients are written
        in place into ``grad``, which the next call overwrites;
        :meth:`gradients` views them per parameter.  The gradient with
        respect to the input batch is not formed.
        """
        cls, depth = self.classifier, len(self.trunk)
        matmul(acts[depth].T, dlogits, out=cls.gw)
        dlogits.sum(axis=0, out=cls.gb)
        d = _chain_backward(self.detection, "tanh", acts[depth:], d_det_pre)
        dtrunk = matmul(d, self.detection[0].w.T)
        dtrunk += matmul(dlogits, cls.w.T, out=d)  # d is spent: it takes the product
        del d  # so the trunk walk holds only its own two arrays of batch size
        _chain_backward(self.trunk, "relu", acts[:depth + 1], dtrunk)


def per_sample_cross_entropy(probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """-log p[i, y_i] per sample (the small-loss ranking signal).
    Unchecked: labels in [0, C), as ``NoisyDataset`` guarantees."""
    picked = probs[np.arange(probs.shape[0]), labels]
    return -np.log(np.maximum(picked, 1e-300))


def bce_log_likelihood(z: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Per-bit t log z + (1-t) log(1-z), the negated BCE terms, in one
    temporary.  Unchecked: z in [Z_CLAMP, 1 - Z_CLAMP], targets 0/1 bits.
    Bitwise ``log(where(t == 1, z, 1 - z))``, since ``|(1 - t) - z|`` is
    exactly ``z`` or ``1 - z`` for 0/1 bits; negation is exact, so means and
    squared deviations of these terms match those of the BCE terms bit for bit.
    """
    log_lik = np.subtract(1.0, targets, dtype=np.float64)
    np.subtract(log_lik, z, out=log_lik)
    np.abs(log_lik, out=log_lik)
    return np.log(log_lik, out=log_lik)


def losses_and_grads_from_forward(net: DualHeadNet, res: ForwardResult,
                                  labels, targets, bce_weight: float, mask=None, *,
                                  gather: bool = True):
    """Mean CE and BCE over the masked rows (``mask=None``: all rows); the
    gradients of CE + bce_weight * BCE are left in ``net.grad``.  Targets
    are trusted 0/1 bits (codebook rows) and labels lie in [0, C)
    (``NoisyDataset`` guarantees them).

    A mask that drops rows gathers the selected rows of ``res`` once, and
    the loss and the backward pass run on those rows only.  A cache that
    forward kept at some ``rows`` (``res.rows``) is the selection: those
    rows of the outputs are gathered to match it, and ``mask`` is not read.
    With ``gather=False`` they run on the full batch instead, the dropped rows'
    upstream gradients zeroed: the full-height backward of a loss taken
    over indexed rows under autograd, which the dual-network baseline
    keeps (see ``schedule._update``).  A mask keeping every row takes the
    ``mask=None`` path.  The detection gradient is zero at entries pinned
    at the clamp, as the loss is flat there.
    """
    probs, z, acts = res.probs, res.z, res.acts
    rows, k = z.shape
    n, keep = rows, None
    sel = np.flatnonzero(mask) if res.rows is None and mask is not None else res.rows
    if sel is not None:
        if sel.size < rows and gather:  # take: the fastest row gather at these sizes
            probs, z, labels, targets = (a.take(sel, axis=0) for a in (probs, z, labels, targets))
            if res.rows is None:  # else forward cached only these rows
                acts = [a.take(sel, axis=0) for a in acts]
            rows = n = sel.size
        elif sel.size < rows:
            n, keep = sel.size, sel
    ce = per_sample_cross_entropy(probs, labels)
    log_lik = bce_log_likelihood(z, targets)
    dlogits = probs.copy()
    dlogits[np.arange(rows), labels] -= 1.0
    dlogits /= n * net.temperature
    # d_det = bce_weight * (2 (z - t) * interior / (n k)), one step at a time
    # in one array, in that operand order.
    interior = z > Z_CLAMP
    interior &= z < 1.0 - Z_CLAMP
    d_det = np.subtract(z, targets)
    d_det *= 2.0
    d_det *= interior
    d_det /= n * k
    d_det *= bce_weight
    if keep is not None:  # zero-filled: means over the kept rows only
        ce, log_lik = ce[keep], log_lik[keep]
        dropped = np.ones(rows, dtype=bool)
        dropped[keep] = False
        dlogits[dropped] = d_det[dropped] = 0.0
    net.backward(acts, dlogits, d_det)
    return float(ce.mean()), -float(log_lik.mean())


# The update arithmetic runs over slices of at most this many entries, so
# its temporaries stay small however large a flat arena grows.
STEP_BLOCK = 32768


def sgd_step(p: np.ndarray, g: np.ndarray, v: np.ndarray, lr: float,
             momentum: float, weight_decay: float) -> None:
    """v <- momentum*v + g + weight_decay*p;  p <- p - lr*v, in place.

    ``p``, ``g`` and ``v`` are a network's flat parameter and gradient
    arenas and its velocity arena, one length.  Refuses the step (raising,
    nothing mutated) if a gradient is non-finite; verifies the parameters
    stay finite afterwards.  Each check is one scan of one arena.
    """
    if not np.all(np.isfinite(g)):
        raise NumericError("non-finite gradient; step refused")
    for lo in range(0, p.shape[0], STEP_BLOCK):
        hi = lo + STEP_BLOCK
        pb, vb = p[lo:hi], v[lo:hi]
        vb *= momentum
        t = weight_decay * pb  # the block's one temporary
        t += g[lo:hi]
        vb += t
        np.multiply(lr, vb, out=t)
        pb -= t
    if not np.all(np.isfinite(p)):
        raise NumericError("parameters became non-finite after the step")


def cosine_lr(epoch: int, total_epochs: int, lr0: float, lr_min: float) -> float:
    """lr_min + (lr0 - lr_min) * (1 + cos(pi * epoch / total)) / 2."""
    return lr_min + 0.5 * (lr0 - lr_min) * (1.0 + math.cos(math.pi * epoch / total_epochs))


def save_checkpoint(net: DualHeadNet, path, epoch: int = 0, seed=None,
                    config: dict | None = None) -> None:
    """Write the binary checkpoint and its JSON metadata sidecar."""
    arrays = net.parameters()
    with atomic_write(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", len(arrays)))
        for arr in arrays:
            fh.write(struct.pack(f"<I{arr.ndim}I", arr.ndim, *arr.shape))
        fh.write(net.flat.astype("<f8", copy=False).tobytes())  # the arena is the payload
    meta = {"format": 1, "epoch": int(epoch), "seed": seed,
            "config": config or {}, "layout": net.layout()}
    with atomic_write(str(path) + ".json") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)


def load_checkpoint(path):
    """Rebuild a network (and its metadata) from :func:`save_checkpoint` output.

    The sidecar's layout builds the net; the file's shape table must match
    that net's parameter shapes and its payload must be exactly the arena.
    A missing, cut, padded or inconsistent checkpoint raises DataIOError.
    """
    path = Path(path)
    try:
        with open(str(path) + ".json") as fh:
            meta = json.load(fh)
        with open(path, "rb") as fh:
            blob = fh.read()
        net = DualHeadNet(**meta["layout"])
    except (OSError, ValueError, KeyError, TypeError,  # JSONDecodeError is a ValueError
            ConfigError) as exc:
        raise DataIOError(f"cannot read checkpoint {path}: {type(exc).__name__}: {exc}") from None
    if blob[:8] != CHECKPOINT_MAGIC:
        raise DataIOError(f"{path}: bad checkpoint magic")
    shapes = [p.shape for p in net.parameters()]
    table, off = [], 12
    try:
        (count,) = struct.unpack_from("<I", blob, 8)
        if count != len(shapes):
            raise DataIOError(f"{path}: shape table has {count} arrays, layout needs {len(shapes)}")
        for _ in range(count):
            (ndim,) = struct.unpack_from("<I", blob, off)
            table.append(struct.unpack_from(f"<{ndim}I", blob, off + 4))
            off += 4 + 4 * ndim
    except struct.error as exc:
        raise DataIOError(f"{path}: checkpoint header cut short: {exc}") from None
    if table != shapes:
        raise DataIOError(f"{path}: checkpoint shapes {table} != layout shapes {shapes}")
    if len(blob) - off != 8 * net.flat.size:
        raise DataIOError(f"{path}: checkpoint payload is {len(blob) - off} bytes, "
                          f"layout needs {8 * net.flat.size}")
    net.flat[...] = np.frombuffer(blob, dtype="<f8", offset=off)
    return net, meta
