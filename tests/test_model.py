"""Dual-head network tests: forward against a layer-by-layer oracle, loss
values and gradients against analytic cases and finite differences, the
optimizer recurrence, the cosine schedule, and checkpoint round-trips."""

import math
import struct
import warnings

import numpy as np
import pytest

from noisylab.codebook import derive_codebook
from noisylab.data import gen_blobs
from noisylab.errors import CapacityError, ConfigError, DataIOError, NumericError
from noisylab import model
from noisylab.model import (CHECKPOINT_MAGIC, DualHeadNet, TrainConfig,
                            Z_CLAMP, cosine_lr, load_checkpoint,
                            losses_and_grads_from_forward,
                            per_sample_cross_entropy, save_checkpoint,
                            sgd_step)
from noisylab.numeric import rng_stream
from noisylab.selection import SelectionConfig, batch_flags
from oracles import (backward_per_layer, clone, combined_loss_and_grads,
                     decompose_bce, finite_difference_check, parameter_names,
                     select_rows, sgd_step_per_parameter, targets_for,
                     upstream_gradients)


def make_net(seed=0, input_dim=5, classes=3, bits=4, width=6, layers=2, temp=2.0):
    return DualHeadNet.create(input_dim, classes, bits, width, layers, temp,
                              rng_stream(seed))


def forwarded_batch(seed, layers):
    """A 10-class, 16-bit net of trunk depth ``layers`` and one forwarded
    24-row batch: (net, forward result, labels, targets)."""
    net = make_net(seed=seed, width=12, layers=layers, bits=16, classes=10, input_dim=32)
    rng = rng_stream(seed + 1)
    labels = rng.integers(0, 10, size=24)
    res = net.forward(rng.normal(size=(24, 32)))
    return net, res, labels, targets_for(derive_codebook(16, 10), labels)


class TestForward:
    def test_zero_weights_give_uniform_probs_and_half_z(self):
        net = make_net()
        for p in net.parameters():
            p[...] = 0.0
        res = net.forward(np.ones((3, 5)))
        np.testing.assert_allclose(res.probs, 1.0 / 3.0, atol=1e-12)
        np.testing.assert_allclose(res.z, 0.5, atol=1e-12)
        assert np.array_equal(np.argmax(res.probs, axis=1), [0, 0, 0])  # ties break low

    def test_matches_layer_by_layer_oracle(self):
        """One sample recomputed with raw numpy ops, no package code."""
        net = make_net(seed=4)
        x = rng_stream(10).normal(size=(1, 5))
        res = net.forward(x)

        a = x.copy()
        for lay in net.trunk:
            a = np.maximum(a @ lay.w + lay.b, 0.0)
        logits = a @ net.classifier.w + net.classifier.b
        scaled = logits / net.temperature
        e = np.exp(scaled - scaled.max())
        probs = e / e.sum()
        d = a
        for lay in net.detection:
            d = np.tanh(d @ lay.w + lay.b)
        z = np.clip((d + 1.0) / 2.0, Z_CLAMP, 1.0 - Z_CLAMP)

        np.testing.assert_allclose(res.logits, logits, atol=1e-12)
        np.testing.assert_allclose(res.probs, probs, atol=1e-12)
        np.testing.assert_allclose(res.z, z, atol=1e-12)

    def test_identical_rows_identical_outputs(self):
        net = make_net(seed=1)
        row = rng_stream(2).normal(size=(1, 5))
        res = net.forward(np.repeat(row, 6, axis=0))
        assert np.array_equal(res.probs, np.repeat(res.probs[:1], 6, axis=0))
        assert np.array_equal(res.z, np.repeat(res.z[:1], 6, axis=0))

    def test_rows_sum_to_one_and_z_interior(self):
        net = make_net(seed=2)
        res = net.forward(rng_stream(3).normal(size=(32, 5)))
        np.testing.assert_allclose(res.probs.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(res.z > 0.0) and np.all(res.z < 1.0)

    def test_width_mismatch(self):
        with pytest.raises(ValueError):  # numpy's matmul refuses the product
            make_net().forward(np.zeros((2, 7)))

    def test_classify_agrees_with_forward(self):
        net = make_net(seed=5)
        x = rng_stream(6).normal(size=(10, 5))
        res = net.forward(x)
        probs, preds = net.classify(x)
        assert np.array_equal(probs, res.probs)
        assert np.array_equal(preds, np.argmax(res.probs, axis=1))

    def test_clone_is_independent(self):
        net = make_net(seed=7)
        twin = clone(net)
        net.trunk[0].w += 1.0
        assert not np.array_equal(net.trunk[0].w, twin.trunk[0].w)


def byte_offset(view, base):
    return view.__array_interface__["data"][0] - base.__array_interface__["data"][0]


class TestParameterArena:
    @pytest.mark.parametrize("layers", [1, 2, 3])
    def test_parameters_and_gradients_tile_one_buffer_in_checkpoint_order(
            self, tmp_path, layers):
        net = make_net(seed=30, layers=layers)
        assert net.flat.flags.c_contiguous and net.grad.flags.c_contiguous
        assert net.grad.shape == net.flat.shape
        off = 0
        for p, g in zip(net.parameters(), net.gradients()):
            assert p.base is net.flat and g.base is net.grad
            assert p.shape == g.shape
            assert byte_offset(p, net.flat) == byte_offset(g, net.grad) == 8 * off
            off += p.size
        assert off == net.flat.size
        # The checkpoint payload is the arena itself.
        path = tmp_path / "model.ckpt"
        save_checkpoint(net, path)
        header = 12 + sum(4 + 4 * p.ndim for p in net.parameters())
        assert path.read_bytes()[header:] == net.flat.astype("<f8").tobytes()
        assert struct.unpack_from("<I", path.read_bytes(), 8)[0] == len(net.parameters())

    def test_layer_fields_are_the_arena_views(self):
        net = make_net(seed=31)
        layers = [*net.trunk, net.classifier, *net.detection]
        assert [a for lay in layers for a in (lay.w, lay.b)] == net.parameters()
        assert [a for lay in layers for a in (lay.gw, lay.gb)] == net.gradients()
        assert parameter_names(net)[:2] == ["trunk[0].w", "trunk[0].b"]
        assert parameter_names(net)[-1] == "detection[2].b"

    @pytest.mark.parametrize("layers", [1, 3])
    def test_arena_cap_counts_every_parameter(self, layers, monkeypatch):
        """The size refused before building is exactly the arena's size."""
        size = make_net(layers=layers).flat.size
        monkeypatch.setattr(model, "MAX_ELEMENTS", size)
        make_net(layers=layers)
        monkeypatch.setattr(model, "MAX_ELEMENTS", size - 1)
        with pytest.raises(CapacityError, match=f"a network of {size} parameters"):
            make_net(layers=layers)

    def test_clone_and_load_do_not_alias_the_source(self, tmp_path):
        net = make_net(seed=32)
        path = tmp_path / "model.ckpt"
        save_checkpoint(net, path)
        loaded, _ = load_checkpoint(path)
        for other in (clone(net), loaded):
            assert not np.shares_memory(other.flat, net.flat)
            assert not np.shares_memory(other.grad, net.grad)
            assert all(p.base is other.flat for p in other.parameters())
            assert np.array_equal(other.flat, net.flat)
        before = net.flat.copy()
        loaded.flat += 1.0
        clone(net).flat += 1.0
        assert np.array_equal(net.flat, before)

    @pytest.mark.parametrize("layers", [1, 3])
    def test_create_draws_each_weight_matrix_in_parameter_order(self, layers):
        """He-scaled trunk, Xavier-scaled heads, drawn one matrix after
        another from the stream; biases zero."""
        net = make_net(seed=37, layers=layers)
        rng = rng_stream(37)
        for name, p in zip(parameter_names(net), net.parameters()):
            if name.endswith(".b"):
                assert not p.any()
                continue
            gain = 2.0 if name.startswith("trunk") else 1.0
            want = rng.normal(0.0, math.sqrt(gain / p.shape[0]), size=p.shape)
            assert np.array_equal(p, want), name

    def test_combined_gradients_survive_a_later_call(self):
        net = make_net(seed=33)
        rng = rng_stream(34)
        labels = np.array([0, 2, 1, 1])
        targets = targets_for(derive_codebook(4, 3), labels)
        _, _, _, grads, _ = combined_loss_and_grads(
            net, rng.normal(size=(4, 5)), labels, targets)
        kept = [g.copy() for g in grads]
        combined_loss_and_grads(net, rng.normal(size=(4, 5)), labels, targets)
        assert all(np.array_equal(g, k) for g, k in zip(grads, kept))
        assert not any(np.shares_memory(g, net.grad) for g in grads)

    @pytest.mark.parametrize("layers,width,rows", [(1, 6, 1), (2, 6, 7), (3, 64, 128)])
    def test_backward_is_bitwise_the_per_layer_oracle(self, layers, width, rows):
        net = make_net(seed=35, width=width, layers=layers, bits=16, classes=10,
                       input_dim=32)
        rng = rng_stream(36)
        res = net.forward(rng.normal(size=(rows, 32)))
        keep = rng.uniform(size=(rows, 1)) < 0.5  # zero rows, as masked updates do
        dlogits = rng.normal(size=res.logits.shape) * keep
        d_det = rng.normal(size=res.z.shape) * keep
        want = backward_per_layer(net, res.acts, dlogits, d_det)
        net.backward(res.acts, dlogits, d_det)
        got = net.gradients()
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.shape == w.shape and np.array_equal(g, w)
        assert np.array_equal(net.grad, np.concatenate([w.ravel() for w in want]))

    @pytest.mark.parametrize("layers", [1, 2, 3])
    @pytest.mark.parametrize("masked", [False, True])
    def test_loss_gradients_are_bitwise_the_oracle_backward(self, layers, masked):
        """The one loss path leaves in ``grad`` exactly what the per-layer
        backward makes of the upstream gradients of the trained rows: the
        full batch, or the rows a mask selects."""
        net = make_net(seed=38, width=12, layers=layers, bits=16, classes=10,
                       input_dim=32)
        rng = rng_stream(39)
        labels = rng.integers(0, 10, size=24)
        targets = targets_for(derive_codebook(16, 10), labels)
        res = net.forward(rng.normal(size=(24, 32)))
        mask = rng.uniform(size=24) < 0.4 if masked else None
        losses_and_grads_from_forward(net, res, labels, targets, 0.5, mask)
        if masked:
            res, labels, targets = select_rows(res, mask), labels[mask], targets[mask]
        want = backward_per_layer(net, res.acts, *upstream_gradients(
            res, labels, targets, net.temperature, 0.5))
        for g, w in zip(net.gradients(), want):
            assert np.array_equal(g, w)

    @pytest.mark.parametrize("layers", [1, 2, 3])
    @pytest.mark.parametrize("keep", ["one", "first_half", "every_third", "all_but_one",
                                      "random"])
    def test_gathered_gradients_match_the_zero_filled_full_batch(self, layers, keep):
        """Backward on the k selected rows gives the gradients the full batch
        gives with the other rows' upstream gradients zeroed, to 1e-12: only
        the rounding of the row sums differs."""
        net, res, labels, targets = forwarded_batch(40, layers)
        rows = np.arange(24)
        mask = {"one": rows == 17, "first_half": rows < 12, "every_third": rows % 3 == 0,
                "all_but_one": rows != 5,
                "random": rng_stream(41).uniform(size=24) < 0.4}[keep]
        losses_and_grads_from_forward(net, res, labels, targets, 0.5, mask)
        want = backward_per_layer(net, res.acts, *upstream_gradients(
            res, labels, targets, net.temperature, 0.5, mask))
        np.testing.assert_allclose(net.grad, np.concatenate([w.ravel() for w in want]),
                                   rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("layers", [1, 2, 3])
    def test_zero_filled_loss_gradients_are_bitwise_the_oracle_backward(self, layers):
        """``gather=False`` leaves in ``grad`` exactly what the per-layer
        backward makes of the full-batch upstream gradients zeroed outside
        the mask, and returns the gathered path's means bit for bit."""
        net, res, labels, targets = forwarded_batch(46, layers)
        mask = rng_stream(47).uniform(size=24) < 0.4
        losses = losses_and_grads_from_forward(net, res, labels, targets, 0.5, mask,
                                               gather=False)
        want = backward_per_layer(net, res.acts, *upstream_gradients(
            res, labels, targets, net.temperature, 0.5, mask))
        for g, w in zip(net.gradients(), want):
            assert np.array_equal(g, w)
        assert losses == losses_and_grads_from_forward(net, res, labels, targets, 0.5, mask)

    @pytest.mark.parametrize("layers", [1, 2, 3])
    def test_masked_backward_runs_on_the_selected_rows(self, layers, monkeypatch):
        """With k of n rows selected, every backward product spans k rows on
        its batch dimension: 2 * depth + 7 products, none of n rows."""
        import noisylab.model as model
        net, res, labels, targets = forwarded_batch(42, layers)
        mask = np.arange(24) % 3 == 0
        shapes, real_matmul = [], model.matmul

        def recording_matmul(a, b, out=None):
            shapes.append((a.shape, b.shape))
            return real_matmul(a, b, out=out)

        monkeypatch.setattr(model, "matmul", recording_matmul)
        losses_and_grads_from_forward(net, res, labels, targets, 0.5, mask)
        assert len(shapes) == 2 * layers + 7
        for a, b in shapes:
            # d @ w.T has k rows; act.T @ d sums over k rows
            assert a[0] == 8 or a[1] == b[0] == 8, (a, b)
            assert 24 not in (*a, *b), (a, b)

    @pytest.mark.parametrize("layers", [1, 2, 3])
    def test_all_true_mask_is_the_full_batch_path(self, layers):
        net, res, labels, targets = forwarded_batch(44, layers)
        full = losses_and_grads_from_forward(net, res, labels, targets, 0.5)
        grad = net.grad.tobytes()
        assert losses_and_grads_from_forward(
            net, res, labels, targets, 0.5, np.ones(24, dtype=bool)) == full
        assert net.grad.tobytes() == grad


class TestClassificationLoss:
    def test_near_perfect_probs_near_zero_loss(self):
        probs = np.full((4, 3), 1e-9)
        labels = np.array([0, 1, 2, 1])
        probs[np.arange(4), labels] = 1.0 - 2e-9
        assert per_sample_cross_entropy(probs, labels).mean() < 1e-8

    def test_uniform_probs_log_c(self):
        probs = np.full((5, 10), 0.1)
        loss = per_sample_cross_entropy(probs, np.zeros(5, dtype=int)).mean()
        assert abs(loss - math.log(10)) < 1e-12

    def test_gradient_matches_finite_differences(self):
        """Classification path audited alone (detection weight set to 0)."""
        net = make_net(seed=11)
        x = rng_stream(12).normal(size=(4, 5))
        labels = np.array([0, 2, 1, 1])
        targets = targets_for(derive_codebook(4, 3), labels)

        def loss_and_grad():
            loss, _, _, grads, _ = combined_loss_and_grads(
                net, x, labels, targets, bce_weight=0.0)
            return loss, grads

        assert finite_difference_check(loss_and_grad, net.parameters()) < 1e-4


class TestDecomposeBce:
    def test_half_z_gives_ln2(self):
        d = decompose_bce(np.full(4, 0.5), np.array([1.0, 0.0, 1.0, 0.0]))
        np.testing.assert_allclose(d, math.log(2.0), atol=1e-12)

    def test_analytic_two_bit_cases(self):
        d = decompose_bce(np.array([0.9, 0.9]), np.array([1.0, 1.0]))
        np.testing.assert_allclose(d, [0.10536, 0.10536], atol=1e-5)
        d = decompose_bce(np.array([0.9, 0.1]), np.array([1.0, 1.0]))
        np.testing.assert_allclose(d, [0.10536, 2.30259], atol=1e-5)

    def test_matches_textbook_formula(self):
        rng = np.random.default_rng(13)
        z = rng.uniform(0.01, 0.99, size=(50, 16))
        t = (rng.uniform(size=(50, 16)) < 0.5).astype(float)
        want = -(t * np.log(z) + (1 - t) * np.log(1 - z))
        np.testing.assert_allclose(decompose_bce(z, t), want, atol=1e-12)

    def test_bitwise_the_selected_log_at_random_and_clamp_boundary_z(self):
        """-log(where(t == 1, z, 1 - z)) on the clipped z, bit for bit,
        including z at, beyond and one ulp inside either clamp."""
        rng = np.random.default_rng(24)
        z = rng.uniform(size=(40, 16))
        lo, hi = Z_CLAMP, 1.0 - Z_CLAMP
        z[0], z[1], z[2], z[3] = lo, hi, 0.0, 1.0
        z[4], z[5] = np.nextafter(lo, 1.0), np.nextafter(hi, 0.0)
        z[6, ::2], z[6, 1::2] = lo, hi
        t = (rng.uniform(size=z.shape) < 0.5).astype(float)
        t[:7, :2] = [1.0, 0.0]
        zc = np.clip(z, lo, hi)
        assert np.array_equal(decompose_bce(z, t),
                              -np.log(np.where(t == 1.0, zc, 1.0 - zc)))

    def test_rejects_non_bit_targets(self):
        with pytest.raises(ValueError):
            decompose_bce(np.array([0.5]), np.array([0.3]))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            decompose_bce(np.zeros(3), np.zeros(4))


class TestDetectionLoss:
    def test_half_z_ln2(self):
        z = np.full((3, 8), 0.5)
        t = (np.arange(24).reshape(3, 8) % 2).astype(float)
        assert abs(decompose_bce(z, t).mean() - math.log(2.0)) < 1e-12

    def test_perfect_match_near_zero(self):
        t = np.array([[1.0, 0.0, 1.0, 1.0]])
        z = np.clip(t, Z_CLAMP, 1.0 - Z_CLAMP)
        assert decompose_bce(z, t).mean() < 1e-11

    def test_loss_is_mean_of_decomposition(self):
        """The training loss's BCE is the mean of the checked decomposition
        over the selected rows, bit for bit, with and without a mask."""
        net = make_net(seed=14, bits=16)
        rng = rng_stream(14)
        labels = rng.integers(0, 3, size=9)
        t = targets_for(derive_codebook(16, 3), labels)
        res = net.forward(rng.normal(size=(9, 5)))
        _, bce = losses_and_grads_from_forward(net, res, labels, t, 1.0)
        assert bce == decompose_bce(res.z, t).mean()
        mask = np.arange(9) % 3 != 1
        _, bce = losses_and_grads_from_forward(net, res, labels, t, 1.0, mask)
        assert bce == decompose_bce(res.z[mask], t[mask]).mean()

    def test_gradient_matches_finite_differences(self):
        """Detection path audited alone: the combined objective at detection
        weight 1 minus the same at weight 0."""
        net = make_net(seed=15)
        x = rng_stream(16).normal(size=(4, 5))
        labels = np.array([0, 1, 2, 0])
        targets = targets_for(derive_codebook(4, 3), labels)

        def loss_and_grad():
            both, _, _, g_both, _ = combined_loss_and_grads(net, x, labels, targets, 1.0)
            ce, _, _, g_ce, _ = combined_loss_and_grads(net, x, labels, targets, 0.0)
            return both - ce, [a - b for a, b in zip(g_both, g_ce)]

        assert finite_difference_check(loss_and_grad, net.parameters()) < 1e-4


class TestMaskedLoss:
    def test_mask_restricts_to_selected_rows(self):
        net = make_net(seed=17)
        x = rng_stream(18).normal(size=(6, 5))
        labels = np.array([0, 1, 2, 0, 1, 2])
        targets = targets_for(derive_codebook(4, 3), labels)
        res = net.forward(x)
        mask = np.array([True, False, True, False, False, False])
        ce_m, bce_m = losses_and_grads_from_forward(net, res, labels, targets,
                                                    1.0, mask)
        sub = net.forward(x[mask])
        ce_s, bce_s = losses_and_grads_from_forward(net, sub, labels[mask],
                                                    targets[mask], 1.0)
        assert abs(ce_m - ce_s) < 1e-12 and abs(bce_m - bce_s) < 1e-12

    @pytest.mark.parametrize("mask, gather", [(None, True), ("half", True), ("half", False)])
    def test_forward_result_is_left_unchanged(self, mask, gather):
        """The loss and the in-place backward read the forward cache and
        write only their own arrays and the gradient arena."""
        net, res, labels, targets = forwarded_batch(48, 2)
        if mask == "half":
            mask = np.arange(24) % 2 == 0
        before = [a.tobytes() for a in (res.probs, res.z, res.logits, *res.acts)]
        losses_and_grads_from_forward(net, res, labels, targets, 0.5, mask, gather=gather)
        assert [a.tobytes() for a in (res.probs, res.z, res.logits, *res.acts)] == before


class TestRowCache:
    """A forward pass given the rows a loss will gather caches only those
    rows, and the loss on that cache is the post-forward gather's."""

    @pytest.mark.parametrize("layers", [1, 2, 3])
    def test_forward_caches_exactly_the_given_rows(self, layers):
        net, full, _, _ = forwarded_batch(50, layers)
        rows = np.flatnonzero(np.arange(24) % 3 != 1)
        res = net.forward(full.acts[0], rows)
        assert res.rows is rows and full.rows is None
        assert [a.tobytes() for a in res.acts] == [a[rows].tobytes() for a in full.acts]
        for name in ("probs", "z", "logits"):  # the outputs stay full-batch
            assert getattr(res, name).tobytes() == getattr(full, name).tobytes()

    @pytest.mark.parametrize("keep", ["some", "all", "none"])
    def test_loss_on_the_row_cache_is_the_gathered_loss(self, keep):
        net, full, labels, targets = forwarded_batch(51, 2)
        mask = {"some": np.arange(24) % 3 != 1, "all": np.ones(24, dtype=bool),
                "none": np.zeros(24, dtype=bool)}[keep]
        twin = clone(net)
        cached = twin.forward(full.acts[0], np.flatnonzero(mask))
        with warnings.catch_warnings(), np.errstate(all="ignore"):
            warnings.simplefilter("ignore", RuntimeWarning)  # no rows: NaN means
            want = losses_and_grads_from_forward(net, full, labels, targets, 0.5, mask)
            got = losses_and_grads_from_forward(twin, cached, labels, targets, 0.5, mask)
        assert np.array(got).tobytes() == np.array(want).tobytes()
        assert twin.grad.tobytes() == net.grad.tobytes()

    def test_the_cached_rows_are_the_selection_whatever_the_mask(self):
        net, full, labels, targets = forwarded_batch(52, 2)
        keep = np.arange(24) % 3 != 1
        twin = clone(net)
        cached = twin.forward(full.acts[0], np.flatnonzero(keep))
        want = losses_and_grads_from_forward(net, full, labels, targets, 0.5, keep)
        for mask in (np.roll(keep, 1), None):  # as many rows but other ones; no mask
            got = losses_and_grads_from_forward(twin, cached, labels, targets, 0.5, mask)
            assert np.array(got).tobytes() == np.array(want).tobytes()
            assert twin.grad.tobytes() == net.grad.tobytes()


class TestSgdStep:
    def test_zero_lr_is_identity(self):
        p = np.array([1.0, -2.0])
        sgd_step(p, np.array([5.0, 5.0]), np.zeros(2), lr=0.0, momentum=0.9,
                 weight_decay=0.1)
        assert np.array_equal(p, [1.0, -2.0])

    def test_plain_gradient_descent(self):
        p = np.array([1.0, 2.0])
        sgd_step(p, np.array([0.5, -0.5]), np.zeros(2), lr=0.1, momentum=0.0,
                 weight_decay=0.0)
        np.testing.assert_allclose(p, [0.95, 2.05], atol=1e-15)

    def test_momentum_matches_hand_unrolled_recurrence(self):
        """Two steps on 0.5*theta^2 with momentum 0.9, gradient = theta."""
        p = np.array([2.0])
        v = np.zeros(1)
        sgd_step(p, p.copy(), v, lr=0.1, momentum=0.9, weight_decay=0.0)
        assert abs(p[0] - 1.8) < 1e-12       # v1 = 2.0, theta = 2 - 0.2
        sgd_step(p, p.copy(), v, lr=0.1, momentum=0.9, weight_decay=0.0)
        assert abs(p[0] - 1.44) < 1e-12      # v2 = 0.9*2 + 1.8 = 3.6

    def test_weight_decay_term(self):
        p = np.array([10.0])
        sgd_step(p, np.zeros(1), np.zeros(1), lr=0.1, momentum=0.0,
                 weight_decay=0.01)
        assert abs(p[0] - 9.99) < 1e-12

    def test_flat_arena_step_matches_per_parameter_steps(self):
        """One step over the flat arenas, in blocks, is bitwise the
        per-parameter reference step."""
        net = make_net(seed=40, width=48)
        ref = [p.copy() for p in net.parameters()]
        net.grad[:] = rng_stream(41).normal(size=net.grad.size)
        ref_grads = [g.copy() for g in net.gradients()]
        v, ref_v = np.zeros_like(net.flat), [np.zeros_like(p) for p in ref]
        for _ in range(3):
            sgd_step(net.flat, net.grad, v, 0.05, 0.9, 3e-3)
            sgd_step_per_parameter(ref, ref_grads, ref_v, 0.05, 0.9, 3e-3)
        for p, r in zip(net.parameters(), ref):
            assert np.array_equal(p, r)

    def test_blocks_cover_arrays_longer_than_a_block(self, monkeypatch):
        import noisylab.model as model
        monkeypatch.setattr(model, "STEP_BLOCK", 3)
        p = np.arange(8.0)
        sgd_step(p, np.ones(8), np.zeros(8), 0.5, 0.0, 0.0)
        assert np.array_equal(p, np.arange(8.0) - 0.5)

    def test_nonfinite_gradient_refused_without_mutation(self):
        p = np.array([1.0, 2.0])
        v = np.array([0.5, 0.5])
        with pytest.raises(NumericError):
            sgd_step(p, np.array([1.0, float("nan")]), v, 0.1, 0.9, 0.0)
        assert np.array_equal(p, [1.0, 2.0]) and np.array_equal(v, [0.5, 0.5])


class TestCosineLr:
    def test_endpoints_and_midpoint(self):
        assert cosine_lr(0, 60, 0.1, 0.001) == pytest.approx(0.1)
        assert cosine_lr(60, 60, 0.1, 0.001) == pytest.approx(0.001)
        assert cosine_lr(30, 60, 0.1, 0.001) == pytest.approx(0.0505)

    def test_monotone_decreasing(self):
        vals = [cosine_lr(e, 40, 0.1, 0.0005) for e in range(41)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))


class TestTrainConfig:
    def test_defaults_valid(self):
        cfg = TrainConfig()
        assert cfg.warmup_epochs < cfg.epochs

    @pytest.mark.parametrize("kwargs", [
        {"lr0": 0.1, "lr_min": 0.2},
        {"momentum": 1.0},
        {"weight_decay": -0.1},
        {"batch_size": 0},
        {"warmup_epochs": 60, "epochs": 60},
        {"temperature": 0.0},
        {"hidden_width": 0},
        {"code_bits": 1},
        {"bce_weight": -1.0},
    ])
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ConfigError):
            TrainConfig(**kwargs)


class TestVarianceConvergesOnCleanData:
    def test_windowed_means_shrink_below_tau_scale(self):
        """Trained on noise-free blobs, the mean per-sample intra-loss
        variance falls in successive 10-epoch windows and ends well under
        1e-3: with nothing mislabeled, per-bit losses become uniform."""
        train, _ = gen_blobs(4, 8, 50, 0.6, rng_stream(3), 1.0)
        cb = derive_codebook(16, 4)
        targets = targets_for(cb, train.noisy_labels)
        net = DualHeadNet.create(8, 4, 16, 16, 2, 2.0, rng_stream(11))
        v = np.zeros_like(net.flat)
        sel = SelectionConfig()
        means = []
        for _ in range(30):
            res = net.forward(train.features)
            flags = batch_flags(res.z, targets, res.probs, train.noisy_labels, sel)
            means.append(float(flags.variance.mean()))
            losses_and_grads_from_forward(net, res, train.noisy_labels, targets, 1.0)
            sgd_step(net.flat, net.grad, v, 0.5, 0.9, 0.0)
        windows = [float(np.mean(means[i:i + 10])) for i in (0, 10, 20)]
        assert windows[0] > windows[1] > windows[2]
        assert windows[2] < 1e-3


class TestCheckpoint:
    def test_round_trip_exact(self, tmp_path):
        net = make_net(seed=21)
        path = tmp_path / "model.ckpt"
        save_checkpoint(net, path, epoch=7, seed=3, config={"note": "x"})
        loaded, meta = load_checkpoint(path)
        for a, b in zip(net.parameters(), loaded.parameters()):
            assert np.array_equal(a, b)
        assert meta["epoch"] == 7 and meta["seed"] == 3
        assert meta["layout"] == net.layout()
        # loaded net produces identical outputs
        x = rng_stream(22).normal(size=(4, 5))
        assert np.array_equal(net.forward(x).probs, loaded.forward(x).probs)

    def test_bad_magic_rejected(self, tmp_path):
        net = make_net()
        path = tmp_path / "model.ckpt"
        save_checkpoint(net, path)
        blob = path.read_bytes()
        assert blob[:8] == CHECKPOINT_MAGIC
        path.write_bytes(b"XXXXXXXX" + blob[8:])
        with pytest.raises(DataIOError):
            load_checkpoint(path)

    def test_missing_sidecar_rejected(self, tmp_path):
        net = make_net()
        path = tmp_path / "model.ckpt"
        save_checkpoint(net, path)
        (tmp_path / "model.ckpt.json").unlink()
        with pytest.raises(DataIOError):
            load_checkpoint(path)

    @staticmethod
    def saved(tmp_path):
        net = make_net(seed=23)
        path = tmp_path / "model.ckpt"
        save_checkpoint(net, path)
        return net, path

    def test_payload_is_the_arena(self, tmp_path):
        net, path = self.saved(tmp_path)
        n_arrays = len(net.parameters())
        header = 12 + sum(4 + 4 * p.ndim for p in net.parameters())
        blob = path.read_bytes()
        assert struct.unpack_from("<I", blob, 8) == (n_arrays,)
        assert blob[header:] == net.flat.astype("<f8").tobytes()

    def test_cut_payload_rejected(self, tmp_path):
        _, path = self.saved(tmp_path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(DataIOError, match="payload is"):
            load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        _, path = self.saved(tmp_path)
        path.write_bytes(path.read_bytes() + b"\0" * 8)
        with pytest.raises(DataIOError, match="payload is"):
            load_checkpoint(path)

    @pytest.mark.parametrize("cut", [10, 14, 22])
    def test_header_cut_inside_shape_table_rejected(self, tmp_path, cut):
        """Cut inside the array count, an ndim and a dims entry."""
        _, path = self.saved(tmp_path)
        path.write_bytes(path.read_bytes()[:cut])
        with pytest.raises(DataIOError, match="header cut short"):
            load_checkpoint(path)

    def test_shape_table_disagreeing_with_layout_rejected(self, tmp_path):
        _, path = self.saved(tmp_path)
        blob = bytearray(path.read_bytes())
        struct.pack_into("<I", blob, 16, 7)  # trunk[0].w is 5 x 6
        path.write_bytes(bytes(blob))
        with pytest.raises(DataIOError, match="shapes"):
            load_checkpoint(path)

    # The last two layouts are well formed, but one is over the element cap
    # and the other has a temperature the constructor refuses.
    @pytest.mark.parametrize("meta", ['{"format": 1}', '[]', '{"layout": {"depth": 3}}',
                                      '{"layout": {"input_dim": 5, "num_classes": 3, '
                                      '"code_bits": 4, "hidden_width": 100000000, '
                                      '"hidden_layers": 2, "temperature": 2.0}}',
                                      '{"layout": {"input_dim": 5, "num_classes": 3, '
                                      '"code_bits": 4, "hidden_width": 6, '
                                      '"hidden_layers": 2, "temperature": 0}}'])
    def test_sidecar_without_usable_layout_rejected(self, tmp_path, meta):
        _, path = self.saved(tmp_path)
        (tmp_path / "model.ckpt.json").write_text(meta)
        with pytest.raises(DataIOError, match="cannot read checkpoint"):
            load_checkpoint(path)
