import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charcap.numerics import (
    Adam, TrainingDiverged, glorot_uniform, lstm_init, lstm_step_backward, lstm_step_forward,
    masked_softmax, pack_params, pad_rows, rng_stream, sigmoid, softmax_cross_entropy,
    train_minibatches,
)
from references import cross_entropy, finite_diff_check, softmax


class TestSoftmax:
    def test_symmetry(self):
        np.testing.assert_allclose(softmax([0.0, 0.0]), [0.5, 0.5])

    def test_shift_invariance(self):
        x = np.array([0.3, -1.2, 4.0, 0.0])
        np.testing.assert_allclose(softmax(x + 123.0), softmax(x), atol=1e-12)

    def test_log_ratio(self):
        # e^{ln 1} / (1 + 3) = 0.25, e^{ln 3} / 4 = 0.75
        np.testing.assert_allclose(softmax(np.log([1.0, 3.0])), [0.25, 0.75])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            softmax([])

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            softmax([0.0, np.inf])

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=400))
    def test_sums_to_one(self, logits):
        p = softmax(logits)
        assert abs(p.sum() - 1.0) <= 1e-9
        assert (p >= 0).all()


class TestMaskedSoftmax:
    def test_each_row_is_the_softmax_of_its_valid_entries(self):
        z = np.array([[[1.0, 2.0, 0.5], [3.0, 4.0, -1.0]]])
        valid = np.array([[[True, False, True], [True, True, True]]])
        p = masked_softmax(z, valid)
        assert p.shape == z.shape and p[0, 0, 1] == 0.0
        np.testing.assert_allclose(p[0, 0, [0, 2]], softmax(z[0, 0, [0, 2]]), rtol=0, atol=1e-15)
        np.testing.assert_allclose(p[0, 1], softmax(z[0, 1]), rtol=0, atol=1e-15)

    def test_a_row_without_a_valid_entry_is_exactly_zero(self):
        z = np.array([[1.0, 2.0], [3.0, -np.inf], [0.0, 0.0]])
        valid = np.array([[False, False], [True, False], [False, False]])
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            p = masked_softmax(z, valid)
            none = masked_softmax(z[:, 0], np.zeros(3, dtype=bool))
        assert (p[0] == 0.0).all() and (p[2] == 0.0).all()
        assert p[1].tolist() == [1.0, 0.0]
        assert none.tolist() == [0.0, 0.0, 0.0]

    def test_bitwise_the_probabilities_of_softmax_cross_entropy(self):
        # the decoder's alpha comes from masked_softmax and its attention
        # loss from softmax_cross_entropy: the loss differentiates alpha
        rng = rng_stream(3, "masked")
        z = rng.normal(scale=30.0, size=(40, 9))
        valid = rng.random(size=z.shape) < 0.4
        valid[:3] = False
        p = masked_softmax(z, valid)
        rows = valid.any(axis=1)
        assert (p[~rows] == 0.0).all() and rows.sum() > 30
        probs, _ = softmax_cross_entropy(z[rows], valid[rows].argmax(axis=1), valid[rows])
        assert p[rows].tobytes() == probs.tobytes()


class TestPadRows:
    def test_ragged_rows_are_padded_with_zeros(self):
        a, b = np.arange(6.0).reshape(3, 2), np.array([[7.0, 8.0]])
        padded, mask = pad_rows([a, np.zeros((0, 2)), b])
        assert padded.shape == (3, 3, 2) and padded.dtype == a.dtype
        assert mask.tolist() == [[True] * 3, [False] * 3, [True, False, False]]
        assert padded[0].tobytes() == a.tobytes()
        assert (padded[1] == 0.0).all()
        assert padded[2].tolist() == [[7.0, 8.0], [0.0, 0.0], [0.0, 0.0]]

    def test_all_empty_arrays_give_zero_rows(self):
        padded, mask = pad_rows([np.zeros((0, 4)), np.zeros((0, 4))])
        assert padded.shape == (2, 0, 4) and mask.shape == (2, 0)

    def test_bool_rows_are_padded_with_false(self):
        padded, mask = pad_rows([np.array([True, True]), np.array([False])])
        assert padded.dtype == bool
        assert padded.tolist() == [[True, True], [False, False]]
        assert mask.tolist() == [[True, True], [True, False]]


class TestRng:
    def test_same_seed_bit_identical(self):
        a = rng_stream(1234, "init").normal(size=100)
        b = rng_stream(1234, "init").normal(size=100)
        assert (a == b).all()

    @pytest.mark.parametrize("seed", [1.5, "1", None, True], ids=repr)
    def test_non_integer_seed_rejected(self, seed):
        with pytest.raises(ValueError, match=rf"rng_stream: seed must be an integer, got {seed!r}"):
            rng_stream(seed, "init")

    def test_numpy_and_negative_integer_seeds(self):
        a = rng_stream(np.int64(-1), "init").random(4)
        b = rng_stream(2**64 - 1, "init").random(4)
        assert a.tobytes() == b.tobytes()

    def test_labels_are_independent_streams(self):
        a = rng_stream(1234, "a").normal(size=10)
        b = rng_stream(1234, "b").normal(size=10)
        assert not np.allclose(a, b)

    def test_glorot_range(self):
        rng = rng_stream(7, "w")
        W = glorot_uniform(rng, 30, 20)
        r = np.sqrt(6.0 / 50.0)
        assert W.shape == (30, 20)
        assert (np.abs(W) <= r).all()


class TestFiniteDiff:
    def test_quadratic_is_exact(self):
        rng = rng_stream(0, "fd")
        x = rng.normal(size=5)
        W0 = rng.normal(size=(4, 5))

        def loss(params):
            y = params["W"] @ x
            return 0.5 * float(y @ y), {"W": np.outer(y, x)}

        err = finite_diff_check(loss, {"W": W0}, epsilon=1e-5,
                                max_coords_per_array=20)
        assert err <= 1e-9

    def test_detects_zeroed_coordinate(self):
        rng = rng_stream(1, "fd")
        x = rng.normal(size=4) + 1.0
        W0 = rng.normal(size=(3, 4)) + 0.5

        def broken(params):
            y = params["W"] @ x
            g = np.outer(y, x)
            g[0, 0] = 0.0
            return 0.5 * float(y @ y), {"W": g}

        err = finite_diff_check(broken, {"W": W0}, max_coords_per_array=12)
        assert err > 1e-2

    def test_epsilon_must_be_positive(self):
        with pytest.raises(ValueError):
            finite_diff_check(lambda p: (0.0, {}), {}, epsilon=0.0)


class TestPrimitives:
    def test_lstm_step_gradients(self):
        rng = rng_stream(3, "lstm")
        H, D = 5, 4
        W, b = lstm_init(rng, D, H)
        x = rng.normal(size=D)
        h0 = rng.normal(size=H)
        c0 = rng.normal(size=H)
        t = rng.normal(size=H)

        def loss(p):
            h, c, cache = lstm_step_forward(p["W"], p["b"], x, h0, c0)
            d = h - t
            da, _, _, _ = lstm_step_backward(cache, d, np.zeros(H))
            dW = np.outer(da, cache[1])
            return 0.5 * float(d @ d), {"W": dW, "b": da}

        assert finite_diff_check(loss, {"W": W, "b": b},
                                 max_coords_per_array=12) <= 1e-7

    def test_lstm_input_gradient(self):
        rng = rng_stream(4, "lstm-x")
        H, D = 3, 4
        W, b = lstm_init(rng, D, H)
        h0 = rng.normal(size=H)
        c0 = rng.normal(size=H)
        t = rng.normal(size=H)

        def loss(p):
            h, c, cache = lstm_step_forward(W, b, p["x"], h0, c0)
            d = h - t
            _, dx, _, _ = lstm_step_backward(cache, d, np.zeros(H))
            return 0.5 * float(d @ d), {"x": dx}

        assert finite_diff_check(loss, {"x": rng.normal(size=D)}) <= 1e-8

    def test_lstm_forward_equals_per_gate_reference(self):
        rng = rng_stream(5, "lstm-fwd")
        H, D = 7, 5
        W = rng.normal(scale=3.0, size=(4 * H, D + H))
        b = rng.normal(size=4 * H)
        x, h0, c0 = rng.normal(size=D), rng.normal(size=H), rng.normal(size=H)
        h, c, _ = lstm_step_forward(W, b, x, h0, c0)
        a = W @ np.concatenate([x, h0]) + b
        i, f, o = sigmoid(a[:H]), sigmoid(a[H:2 * H]), sigmoid(a[2 * H:3 * H])
        c_ref = f * c0 + i * np.tanh(a[3 * H:])
        assert np.array_equal(c, c_ref)
        assert np.array_equal(h, o * np.tanh(c_ref))


class TestRowBatchedLstm:
    def test_rows_equal_separate_steps(self):
        rng = rng_stream(7, "lstm-rows")
        H, D, B = 6, 5, 4
        W, b = lstm_init(rng, D, H)
        x, h0, c0, dh, dc = (rng.normal(size=(B, n)) for n in (D, H, H, H, H))
        h, c, cache = lstm_step_forward(W, b, x, h0, c0)
        back = lstm_step_backward(cache, dh, dc)
        for r in range(B):
            h1, c1, cache1 = lstm_step_forward(W, b, x[r], h0[r], c0[r])
            back1 = lstm_step_backward(cache1, dh[r], dc[r])
            for got, want in zip((h, c, cache[1]) + back, (h1, c1, cache1[1]) + back1):
                np.testing.assert_allclose(got[r], want, rtol=0, atol=1e-15)


class TestCrossEntropy:
    def test_equals_log_softmax(self):
        z = np.array([0.3, -1.2, 4.0, 0.0])
        assert abs(cross_entropy(z, 1) + np.log(softmax(z)[1])) <= 1e-12

    def test_masked_cells_are_left_out(self):
        z = np.array([[1.0, 2.0], [3.0, 4.0]])
        valid = np.array([[True, False], [True, True]])
        p = masked_softmax(z.reshape(-1), valid.reshape(-1)).reshape(z.shape)
        assert abs(cross_entropy(z, (1, 0), valid) + np.log(p[1, 0])) <= 1e-12

    def test_finite_where_the_probability_underflows(self):
        # exp(-1000) underflows to 0; the loss is the logit gap exactly
        z = np.array([0.0, -1000.0])
        assert softmax(z)[1] == 0.0
        assert cross_entropy(z, 1) == 1000.0


class TestSoftmaxCrossEntropyRows:
    def test_rows_equal_the_one_row_functions(self):
        z = np.array([[0.3, -1.2, 2.0], [5.0, 0.0, -1000.0]])
        valid = np.array([[True, True, True], [True, False, True]])
        probs, losses = softmax_cross_entropy(z, [2, 2], valid)
        np.testing.assert_allclose(probs[0], softmax(z[0]), rtol=0, atol=1e-15)
        assert probs[1, 1] == 0.0 and probs[1, 2] == 0.0
        assert abs(losses[0] - cross_entropy(z[0], 2)) <= 1e-15
        assert losses[1] == cross_entropy(z[1, [0, 2]], 1) == 1005.0


class TestPackParams:
    def test_views_into_one_vector_in_dict_order(self):
        rng = rng_stream(5, "pack")
        params = {"W": rng.normal(size=(4, 3)), "b": rng.normal(size=4), "s": np.ones(())}
        flat, views = pack_params(params)
        assert flat.shape == (17,) and flat.dtype == np.float64 and flat.flags.c_contiguous
        assert flat.tobytes() == b"".join(v.tobytes() for v in params.values())
        assert list(views) == list(params)
        start = 0
        for k, v in views.items():
            assert v.shape == params[k].shape and v.base is flat
            assert v.ctypes.data == flat.ctypes.data + 8 * start
            assert not np.shares_memory(v, params[k])  # a copy of the input
            start += v.size


class TestAdam:
    def test_five_steps_bitwise_equal_to_reference(self):
        rng = rng_stream(6, "adam")
        shapes = {"W": (4, 3), "b": (4,)}
        flat, params = pack_params({k: rng.normal(size=s) for k, s in shapes.items()})
        gflat, grads = pack_params({k: np.zeros(s) for k, s in shapes.items()})
        ref = {k: v.copy() for k, v in params.items()}
        m = {k: np.zeros(s) for k, s in shapes.items()}
        v = {k: np.zeros(s) for k, s in shapes.items()}
        lr, b1, b2, eps = 0.003, 0.9, 0.999, 1e-8
        opt = Adam(lr=lr)
        for t in range(1, 6):
            for k, s in shapes.items():
                grads[k][...] = rng.normal(scale=10.0 ** -t, size=s)
            opt.step(flat, gflat)
            for k, g in grads.items():
                m[k] = b1 * m[k] + (1 - b1) * g
                v[k] = b2 * v[k] + (1 - b2) * g * g
                mhat = m[k] / (1 - b1 ** t)
                vhat = v[k] / (1 - b2 ** t)
                ref[k] -= lr * mhat / (np.sqrt(vhat) + eps)
            assert all(np.array_equal(params[k], ref[k]) for k in shapes)

    def test_later_steps_allocate_nothing_weight_sized(self):
        rng = rng_stream(8, "adam-alloc")
        shapes = {"W": (400, 200), "b": (300,)}  # two blocks; the second spans W and b
        flat, params = pack_params({k: rng.normal(size=s) for k, s in shapes.items()})
        assert Adam.BLOCK < 400 * 200 < flat.size
        ref = {k: v.copy() for k, v in params.items()}
        m = {k: np.zeros(s) for k, s in shapes.items()}
        v = {k: np.zeros(s) for k, s in shapes.items()}
        lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
        steps = [pack_params({k: rng.normal(size=s) for k, s in shapes.items()})
                 for _ in range(3)]
        opt = Adam(lr=lr)
        opt.step(flat, steps[0][0])
        tracemalloc.start()
        try:
            opt.step(flat, steps[1][0])
            opt.step(flat, steps[2][0])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < params["W"].nbytes
        for t, (_, grads) in enumerate(steps, start=1):
            for k, g in grads.items():
                m[k] = b1 * m[k] + (1 - b1) * g
                v[k] = b2 * v[k] + (1 - b2) * g * g
                ref[k] -= lr * (m[k] / (1 - b1 ** t)) / (np.sqrt(v[k] / (1 - b2 ** t)) + eps)
        assert all(np.array_equal(params[k], ref[k]) for k in shapes)


class TestTrainMinibatches:
    INIT = {"W": np.arange(6.0).reshape(2, 3), "b": np.array([0.5, -0.5])}

    def run(self, batch_loss, epochs, grad_clip=0.0):
        """Ten items in batches of 4; the loop packs a copy of ``INIT``."""
        return train_minibatches(self.INIT, 10, batch_loss, epochs, 4, 0.01, rng_stream(3, "loop"),
                                 grad_clip)

    def test_each_epoch_visits_its_permutation_once_in_batches(self):
        seen = []

        def batch_loss(params, idx, grads):
            seen.append(idx.copy())
            grads["W"] += 1.0
            return [(float(i), 1.0) for i in idx]

        params, history, clipped = self.run(batch_loss, 3)
        rng = rng_stream(3, "loop")
        assert [len(idx) for idx in seen] == [4, 4, 2] * 3  # the remainder last
        for epoch in range(3):
            order = np.concatenate(seen[3 * epoch:3 * epoch + 3])
            assert order.tolist() == rng.permutation(10).tolist()
        assert history == [(4.5, 1.0)] * 3 and clipped == 0  # rows summed over 10 items
        assert all(v.base is params["W"].base for v in params.values())

    def test_batches_above_the_norm_are_clipped_and_counted(self):
        def batch_loss(params, idx, grads):
            grads["b"] += 100.0 * len(idx) if 0 in idx else 0.01 * len(idx)
            return [(0.0,)] * len(idx)

        # one batch an epoch holds item 0: its norm is 100 * sqrt(2)
        assert self.run(batch_loss, 3, grad_clip=1.0)[2] == 3
        assert self.run(batch_loss, 3, grad_clip=1e-3)[2] == 9
        assert self.run(batch_loss, 3, grad_clip=1e3)[2] == 0
        assert self.run(batch_loss, 3)[2] == 0

    @pytest.mark.parametrize("bad_epoch", [0, 2])
    @pytest.mark.parametrize("where", ["loss", "weight"])
    def test_divergence_returns_the_weights_of_the_epoch_before(self, bad_epoch, where):
        calls = []

        def batch_loss(params, idx, grads):
            calls.append(len(idx))
            grads["W"] += 1.0
            bad = len(calls) == 3 * bad_epoch + 2  # the middle batch of that epoch
            if bad and where == "weight":
                grads["b"] += np.nan
            return [(np.inf if bad and where == "loss" else 1.0,)] * len(idx)

        with pytest.raises(TrainingDiverged) as exc:
            self.run(batch_loss, 4)
        calls.clear()
        want = self.run(batch_loss, bad_epoch)[0] if bad_epoch else self.INIT
        assert exc.value.epoch == bad_epoch
        assert list(exc.value.params) == list(want)
        assert all(exc.value.params[k].tobytes() == v.tobytes() for k, v in want.items())

    def test_no_epochs_return_the_initial_weights(self):
        def batch_loss(params, idx, grads):
            raise AssertionError("no batch runs")

        params, history, clipped = self.run(batch_loss, 0)
        assert history == [] and clipped == 0
        assert all(params[k].tobytes() == v.tobytes() for k, v in self.INIT.items())


def _two_branch_sigmoid(x):
    """The masked two-branch logistic formula ``sigmoid`` replaced."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class TestSigmoid:
    def test_within_four_ulp_of_the_two_branch_formula(self):
        rng = rng_stream(9, "sigmoid")
        x = np.concatenate([np.linspace(-700.0, 700.0, 140001),
                            rng.uniform(-40.0, 40.0, size=20000)])
        got, want = sigmoid(x), _two_branch_sigmoid(x)
        assert (np.abs(got - want) <= 4 * np.spacing(want)).all()

    def test_saturates_in_range_without_warnings(self):
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            y = sigmoid(np.array([-1000.0, -745.0, 745.0, 1000.0]))
        assert np.isfinite(y).all() and (y >= 0.0).all() and (y <= 1.0).all()
        assert y[0] == 0.0 and y[-1] == 1.0
