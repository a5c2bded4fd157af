"""Reference implementations that tests compare the package against.

Most are plain, allocation-per-result or per-parameter versions of
routines the package implements in place or in bulk; the package must
match them bit for bit.
``decompose_bce`` and the per-sample identifiers are the scalar
definitions ``batch_flags`` vectorizes, and ``finite_difference_check`` with
``combined_loss_and_grads`` audits the model's analytic gradients.
``gen_blobs_per_class`` is the blob dataset as one allocating
``center + spread * normal()`` expression per class, the form
``data.gen_blobs`` replaced with draws into one preallocated array.
``sylvester`` is the recursive K x K Hadamard construction whose blocks
``codebook.sylvester_rows`` forms entry by entry.
``clone``, ``encode_label``, ``parameter_names`` and ``targets_for`` are
conveniences only tests use; ``targets_for`` is also the per-row target
array a run's per-class table must reproduce.  ``pairwise_hamming`` measures
the codeword distances the codebook's construction guarantees.  Inputs a
helper refuses raise ``ValueError``.
"""

import csv

import numpy as np

from noisylab.data import class_centers
from noisylab.errors import ConfigError, NumericError
from noisylab.model import (Z_CLAMP, DualHeadNet, ForwardResult, bce_log_likelihood,
                            losses_and_grads_from_forward)
from noisylab.selection import SelectionConfig


def backward_per_layer(net, acts, dlogits, d_det_pre) -> list:
    """Layer-by-layer backward pass over a forward cache's activation list,
    returning a fresh array per gradient, aligned with ``net.parameters()``.
    Derivatives are formed from the cached outputs: relu ``h > 0``, tanh
    ``1 - a * a``."""
    depth = len(net.trunk)
    gw_c = acts[depth].T @ dlogits
    gb_c = dlogits.sum(axis=0)
    dtrunk = dlogits @ net.classifier.w.T

    det_grads = []
    d = d_det_pre
    for i in range(len(net.detection) - 1, -1, -1):
        inp = acts[depth + i]
        det_grads.append((inp.T @ d, d.sum(axis=0)))
        back = d @ net.detection[i].w.T
        if i > 0:
            d = back * (1.0 - inp * inp)
        else:
            dtrunk = dtrunk + back
    det_grads.reverse()

    trunk_grads = []
    d = dtrunk
    for i in range(len(net.trunk) - 1, -1, -1):
        dpre = d * (acts[i + 1] > 0.0)
        trunk_grads.append((acts[i].T @ dpre, dpre.sum(axis=0)))
        d = dpre @ net.trunk[i].w.T
    trunk_grads.reverse()

    grads = []
    for gw, gb in trunk_grads + [(gw_c, gb_c)] + det_grads:
        grads.extend((gw, gb))
    return grads


def select_rows(res, mask):
    """The rows of a forward result that ``mask`` keeps, by boolean indexing."""
    keep = np.asarray(mask, dtype=bool)
    return ForwardResult(res.probs[keep], res.z[keep], res.logits[keep],
                         [a[keep] for a in res.acts])


def gen_blobs_per_class(classes, dim, n_per_class, spread, rng, center_scale=1.0):
    """``data.gen_blobs`` with each class drawn as ``center + spread *
    normal()`` and concatenated, then the same stratified split; returns
    (train features, train labels, test features, test labels)."""
    centers = class_centers(classes, dim, center_scale)
    x = np.concatenate([centers[c] + spread * rng.normal(size=(n_per_class, dim))
                        for c in range(classes)])
    y = np.concatenate([np.full(n_per_class, c, dtype=np.int64) for c in range(classes)])
    n_test = int(round(0.2 * n_per_class))
    test = np.zeros(x.shape[0], dtype=bool)
    for c in range(classes):
        rows = np.flatnonzero(y == c)
        test[rows[rng.permutation(rows.size)[:n_test]]] = True
    return x[~test], y[~test], x[test], y[test]


def sylvester(k: int) -> np.ndarray:
    """Sylvester construction of order ``k`` (a power of two): H1 = [[1]],
    H2m = [[H, H], [H, -H]], as int64 +/-1."""
    h = np.array([[1]], dtype=np.int64)
    while h.shape[0] < k:
        h = np.block([[h, h], [h, -h]])
    return h


def clone(net: DualHeadNet) -> DualHeadNet:
    """An independent copy of ``net``: its own arenas, equal parameters."""
    twin = DualHeadNet(**net.layout())
    twin.flat[...] = net.flat
    return twin


def parameter_names(net: DualHeadNet) -> list:
    """Names aligned with ``net.parameters()``, e.g. ``detection[2].w``."""
    layers = ([f"trunk[{i}]" for i in range(len(net.trunk))] + ["classifier"]
              + [f"detection[{i}]" for i in range(len(net.detection))])
    return [f"{name}.{part}" for name in layers for part in "wb"]


def encode_label(cb, y: int):
    """Copies of (codeword, target) for class ``y`` of codebook ``cb``."""
    classes = cb.codewords.shape[0]
    if not 0 <= int(y) < classes:
        raise ValueError(f"label {y} out of range [0, {classes})")
    return cb.codewords[int(y)].copy(), cb.targets[int(y)].copy()


def targets_for(cb, labels) -> np.ndarray:
    """Validated target rows for an integer label array, one per label: the
    per-row target array a run kept before it kept one row per class."""
    labels, classes = np.asarray(labels), cb.codewords.shape[0]
    if labels.size and (labels.min() < 0 or labels.max() >= classes):
        bad = labels[(labels < 0) | (labels >= classes)][0]
        raise ValueError(f"label {bad} out of range [0, {classes})")
    return cb.targets[labels]


def pairwise_hamming(codewords: np.ndarray) -> np.ndarray:
    """All-pairs Hamming distances between +/-1 rows (exact integers)."""
    cw = np.asarray(codewords, dtype=np.int64)
    k = cw.shape[1]
    return (k - cw @ cw.T) // 2


def upstream_gradients(res, labels, targets, temperature, bce_weight=1.0, mask=None):
    """Loss gradients at the logits and at the last detection
    pre-activation, computed on the full batch and zeroed outside the mask:
    (softmax - onehot) / (k * temperature) and
    bce_weight * 2 (z - t) [z inside the clamp] / (k * K) over the k
    selected rows."""
    n, bits = res.z.shape
    keep = np.ones(n, dtype=bool) if mask is None else np.asarray(mask, dtype=bool)
    k = int(keep.sum())
    onehot = np.eye(res.probs.shape[1])[labels]
    dlogits = (res.probs - onehot) / (k * temperature)
    inside = (res.z > Z_CLAMP) & (res.z < 1.0 - Z_CLAMP)
    d_det = bce_weight * (2.0 * (res.z - targets) * inside / (k * bits))
    return (np.where(keep[:, None], dlogits, 0.0),
            np.where(keep[:, None], d_det, 0.0))


def batch_variance_and_bce(z, targets):
    """Per-row population variance and mean of the per-bit BCE terms, in
    the textbook order: the terms, their row mean, the squared deviations,
    their row mean."""
    per_bit = -np.log(np.where(targets == 1.0, z, 1.0 - z))
    mean = per_bit.mean(axis=1)
    return ((per_bit - mean[:, None]) ** 2).mean(axis=1), mean


def dump_decisions_rows(path, flags, clean_mask) -> None:
    """Selection dump written row by row through ``csv.writer``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["sample_index", "variance", "bce_loss", "det_flag",
                         "cls_flag", "combined_flag", "is_truly_clean"])
        for row in range(len(clean_mask)):
            writer.writerow([row, repr(float(flags.variance[row])),
                             repr(float(flags.bce[row])),
                             int(bool(flags.detection[row])),
                             int(bool(flags.classifier[row])),
                             int(bool(flags.combined[row])), int(bool(clean_mask[row]))])


def decompose_bce(z: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Per-bit binary cross-entropy terms -[t log z + (1-t) log(1-z)].

    Works on a single sample (1-D) or a batch (2-D, rows = samples).  The
    checked entry point to :func:`bce_log_likelihood`: shapes must match,
    targets must be 0/1, and ``z`` is clipped to [Z_CLAMP, 1 - Z_CLAMP].
    """
    z = np.asarray(z, dtype=np.float64)
    t = np.asarray(targets, dtype=np.float64)
    if z.shape != t.shape:
        raise ValueError(f"z shape {z.shape} != target shape {t.shape}")
    if not np.all((t == 0.0) | (t == 1.0)):
        raise ValueError("targets must be 0/1 bit vectors")
    return -bce_log_likelihood(np.clip(z, Z_CLAMP, 1.0 - Z_CLAMP), t)


def intra_loss_variance(per_bit: np.ndarray) -> float:
    """Population variance of one sample's per-bit loss terms."""
    d = np.asarray(per_bit, dtype=np.float64)
    if d.ndim != 1 or d.size == 0:
        raise ValueError(f"need a non-empty 1-D loss vector, got shape {d.shape}")
    m = d.mean()
    return float(((d - m) ** 2).mean())


def detection_identifier(variance: float, cfg: SelectionConfig) -> bool:
    """Clean iff the per-bit variance does not exceed tau (boundary included)."""
    return bool(variance <= cfg.tau)


def classifier_identifier(probs: np.ndarray, noisy_label: int) -> bool:
    """Clean iff the predicted class (lowest index on ties) matches the label."""
    p = np.asarray(probs, dtype=np.float64)
    if p.ndim != 1 or p.size == 0:
        raise ValueError(f"need a 1-D probability vector, got shape {p.shape}")
    if not 0 <= noisy_label < p.size:
        raise ValueError(f"label {noisy_label} out of range [0, {p.size})")
    return bool(int(np.argmax(p)) == int(noisy_label))


def combine_identifiers(det: bool, cls: bool) -> bool:
    return bool(det or cls)


def finite_difference_check(loss_and_grad, params, epsilon: float = 1e-5,
                            denom_floor: float = 1e-3) -> float:
    """Audit analytic gradients against central finite differences.

    ``loss_and_grad()`` evaluates the objective at the *current* parameter
    values and returns ``(loss, grads)`` with ``grads`` aligned to
    ``params``.  Each coordinate is perturbed in place by +/- ``epsilon``
    and the central difference is compared to the analytic entry.  Returns
    the worst relative error, with the denominator floored at
    ``denom_floor`` so coordinates whose true gradient is ~0 are measured
    on an absolute scale instead of blowing up.
    """
    if not (1e-7 <= epsilon <= 1e-3):
        raise ConfigError(f"epsilon must lie in [1e-7, 1e-3], got {epsilon}")
    base_loss, grads = loss_and_grad()
    # Copy: loss_and_grad may return views that its next call overwrites.
    grads = [np.array(g, dtype=np.float64) for g in grads]
    if not np.isfinite(base_loss):
        raise NumericError("loss is non-finite at the base point")
    worst = 0.0
    for pi, (theta, g) in enumerate(zip(params, grads)):
        flat_t = theta.reshape(-1)
        flat_g = g.reshape(-1)
        for j in range(flat_t.size):
            orig = flat_t[j]
            flat_t[j] = orig + epsilon
            lp, _ = loss_and_grad()
            flat_t[j] = orig - epsilon
            lm, _ = loss_and_grad()
            flat_t[j] = orig
            if not (np.isfinite(lp) and np.isfinite(lm)):
                raise NumericError(f"non-finite loss while perturbing param {pi}, coordinate {j}")
            fd = (lp - lm) / (2.0 * epsilon)
            denom = max(abs(fd), abs(flat_g[j]), denom_floor)
            err = abs(fd - flat_g[j]) / denom
            if err > worst:
                worst = err
    return worst


def combined_loss_and_grads(net: DualHeadNet, x, labels, targets,
                            bce_weight: float = 1.0, mask=None):
    """Forward + combined loss + gradients; the entry point gradient checks use.

    The gradients are copies, so a later call does not overwrite them."""
    res = net.forward(x)
    ce, bce = losses_and_grads_from_forward(net, res, labels, targets, bce_weight, mask)
    return ce + bce_weight * bce, ce, bce, [g.copy() for g in net.gradients()], res


def sgd_step_per_parameter(params, grads, velocities, lr, momentum, weight_decay) -> None:
    """SGD with momentum, one parameter array at a time, in place:
    v <- momentum*v + g + weight_decay*p;  p <- p - lr*v."""
    for p, g, v in zip(params, grads, velocities):
        v *= momentum
        v += g + weight_decay * p
        p -= lr * v
