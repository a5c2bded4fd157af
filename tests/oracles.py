"""Reference implementations that tests compare the package against.

Each one is a plain, allocation-per-result version of a routine the package
implements in place or in bulk; the package must match it bit for bit.
"""

import csv

import numpy as np


def backward_per_layer(net, res, dlogits, d_det_pre) -> list:
    """Layer-by-layer backward pass returning a fresh array per gradient,
    aligned with ``net.parameters()``."""
    gw_c = res.trunk_out.T @ dlogits
    gb_c = dlogits.sum(axis=0)
    dtrunk = dlogits @ net.classifier.w.T

    det_grads = []
    d = d_det_pre
    for i in range(len(net.detection) - 1, -1, -1):
        det_grads.append((res.det_inputs[i].T @ d, d.sum(axis=0)))
        back = d @ net.detection[i].w.T
        if i > 0:
            d = back * res.det_derivs[i - 1]
        else:
            dtrunk = dtrunk + back
    det_grads.reverse()

    trunk_grads = []
    d = dtrunk
    for i in range(len(net.trunk) - 1, -1, -1):
        dpre = d * res.trunk_derivs[i]
        trunk_grads.append((res.trunk_inputs[i].T @ dpre, dpre.sum(axis=0)))
        d = dpre @ net.trunk[i].w.T
    trunk_grads.reverse()

    grads = []
    for gw, gb in trunk_grads + [(gw_c, gb_c)] + det_grads:
        grads.extend((gw, gb))
    return grads


def batch_variance_and_bce(z, targets):
    """Per-row population variance and mean of the per-bit BCE terms, in
    the textbook order: the terms, their row mean, the squared deviations,
    their row mean."""
    per_bit = -np.log(np.where(targets == 1.0, z, 1.0 - z))
    mean = per_bit.mean(axis=1)
    return ((per_bit - mean[:, None]) ** 2).mean(axis=1), mean


def dump_decisions_rows(path, sample_indices, flags, clean_mask=None) -> None:
    """Selection dump written row by row through ``csv.writer``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["sample_index", "variance", "bce_loss", "det_flag",
                         "cls_flag", "combined_flag", "is_truly_clean"])
        for row, i in enumerate(sample_indices):
            truly = "" if clean_mask is None else int(bool(clean_mask[row]))
            writer.writerow([int(i), repr(float(flags.variance[row])),
                             repr(float(flags.bce[row])),
                             int(bool(flags.detection[row])),
                             int(bool(flags.classifier[row])),
                             int(bool(flags.combined[row])), truly])
