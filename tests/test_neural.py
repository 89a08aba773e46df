import copy
import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from cgrader.neural import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    Adam,
    CnnRegressor,
    CnnSpec,
    LstmRegressor,
    LstmSpec,
    PREDICT_BATCH,
    ShapeError,
    TokenSequences,
    TrainConfig,
    TrainingError,
    mse_loss,
    train,
)

from dense import dense_array

TOY_L, TOY_D = 6, 4


def toy_cnn(seed=0):
    return CnnRegressor(
        CnnSpec(conv_filters=3, kernel_size=3, pool_size=2, dense_units=8),
        TOY_L, TOY_D, seed=seed,
    )


def toy_lstm(seed=0, dropout=0.0):
    return LstmRegressor(
        LstmSpec(units=5, dropout=dropout, recurrent_dropout=dropout, dense_units=8),
        TOY_L, TOY_D, seed=seed,
    )


def loss_value(model, X, y, masks=None):
    pred, _ = model.forward(X, training=masks is not None, masks=masks)
    return mse_loss(pred, y)[0]


def analytic_grads(model, X, y, masks=None):
    pred, cache = model.forward(X, training=masks is not None, masks=masks)
    _, dpred = mse_loss(pred, y)
    return model.backward(cache, dpred)


def max_relative_gradient_error(model, X, y, masks=None, eps=1e-5):
    grads = analytic_grads(model, X, y, masks=masks)
    worst = 0.0
    for name, arr in model.params.items():
        flat = arr.ravel()
        grad_flat = grads[name].ravel()
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + eps
            loss_plus = loss_value(model, X, y, masks=masks)
            flat[i] = original - eps
            loss_minus = loss_value(model, X, y, masks=masks)
            flat[i] = original
            numeric = (loss_plus - loss_minus) / (2 * eps)
            analytic = grad_flat[i]
            scale = max(abs(numeric), abs(analytic), 1e-8)
            worst = max(worst, abs(numeric - analytic) / scale)
    return worst


class TestMseLoss:
    def test_perfect(self):
        loss, grad = mse_loss([1.0, 2.0], [1.0, 2.0])
        assert loss == 0.0
        assert np.all(grad == 0.0)

    def test_hand_example(self):
        loss, grad = mse_loss([0.0], [2.0])
        assert loss == 4.0
        assert grad[0] == -4.0

    def test_non_negative(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            assert mse_loss(rng.normal(size=5), rng.normal(size=5))[0] >= 0.0

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            mse_loss([1.0], [1.0, 2.0])


class TestCnnForward:
    def test_zero_weights_zero_input(self):
        model = toy_cnn()
        for key in model.params:
            model.params[key][:] = 0.0
        pred, _ = model.forward(np.zeros((2, TOY_L, TOY_D)))
        assert np.all(pred == 0.0)

    def test_hand_conv_and_pool(self):
        # Kernel 1, one filter equal to [1]: conv is identity, pool takes
        # window maxima: [1,3,2,0] -> [3,2].
        model = CnnRegressor(
            CnnSpec(conv_filters=1, kernel_size=1, pool_size=2, dense_units=2),
            seq_len=4, dim=1,
        )
        model.params["conv_w"][:] = 1.0
        model.params["conv_b"][:] = 0.0
        X = np.array([[[1.0], [3.0], [2.0], [0.0]]])
        assert np.array_equal(model.features(X)[0], [3.0, 2.0])

    def test_output_shape(self):
        model = toy_cnn()
        pred, _ = model.forward(np.random.default_rng(0).normal(size=(5, TOY_L, TOY_D)))
        assert pred.shape == (5,)

    def test_too_short_sequence(self):
        with pytest.raises(ShapeError):
            CnnRegressor(CnnSpec(kernel_size=3), seq_len=2, dim=4)

    def test_shape_algebra(self):
        spec = CnnSpec(conv_filters=3, kernel_size=3, pool_size=2, dense_units=4)
        for L in range(spec.kernel_size + 2, spec.kernel_size + 21):
            model = CnnRegressor(spec, L, 2)
            conv_len = (L - spec.kernel_size) + 1
            assert model.conv_len == conv_len
            assert model.pool_len == conv_len // spec.pool_size
            assert model.feature_len == model.pool_len * spec.conv_filters


class TestLstmForward:
    def test_zero_weights_keep_state_zero(self):
        model = toy_lstm()
        for key in model.params:
            model.params[key][:] = 0.0
        X = np.random.default_rng(0).normal(size=(3, TOY_L, TOY_D))
        pred, cache = model.forward(X)
        assert np.all(cache["features"] == 0.0)
        assert np.all(pred == 0.0)

    def test_inference_deterministic(self):
        model = toy_lstm(dropout=0.3)
        X = np.random.default_rng(1).normal(size=(4, TOY_L, TOY_D))
        a, _ = model.forward(X, training=False)
        b, _ = model.forward(X, training=False)
        assert np.array_equal(a, b)

    def test_zero_dropout_training_equals_inference(self):
        model = toy_lstm(dropout=0.0)
        X = np.random.default_rng(2).normal(size=(4, TOY_L, TOY_D))
        infer, _ = model.forward(X, training=False)
        trained, _ = model.forward(X, training=True, rng=np.random.default_rng(0))
        assert np.array_equal(infer, trained)

    def test_head_relu_non_negative(self):
        model = toy_lstm(seed=3)
        X = np.random.default_rng(3).normal(size=(8, TOY_L, TOY_D))
        pred, _ = model.forward(X)
        assert np.all(pred >= 0.0)


class TestGradients:
    @pytest.mark.parametrize("seed", range(10))
    def test_cnn_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        model = toy_cnn(seed=seed)
        X = rng.normal(size=(3, TOY_L, TOY_D))
        y = rng.uniform(0, 10, 3)
        assert max_relative_gradient_error(model, X, y) < 1e-4

    @pytest.mark.parametrize("seed", range(10))
    def test_lstm_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        model = toy_lstm(seed=seed)
        X = rng.normal(size=(3, TOY_L, TOY_D))
        y = rng.uniform(0, 10, 3)
        assert max_relative_gradient_error(model, X, y) < 1e-4

    @pytest.mark.parametrize("seed", range(5))
    def test_lstm_gradients_with_dropout_masks_replayed(self, seed):
        rng = np.random.default_rng(100 + seed)
        model = toy_lstm(seed=seed, dropout=0.2)
        X = rng.normal(size=(3, TOY_L, TOY_D))
        y = rng.uniform(0, 10, 3)
        masks = model.sample_masks(3, rng)
        assert max_relative_gradient_error(model, X, y, masks=masks) < 1e-4

    def test_zero_loss_gradient_gives_zero_grads(self):
        model = toy_cnn()
        X = np.random.default_rng(0).normal(size=(2, TOY_L, TOY_D))
        pred, cache = model.forward(X)
        grads = model.backward(cache, np.zeros_like(pred))
        assert all(np.all(g == 0.0) for g in grads.values())

    def test_dead_path_conv_gradient_zero(self):
        model = toy_cnn()
        model.params["conv_b"][:] = 1.0  # bias keeps ReLU active
        X = np.zeros((2, TOY_L, TOY_D))
        y = np.array([1.0, 2.0])
        grads = analytic_grads(model, X, y)
        assert np.all(grads["conv_w"] == 0.0)
        assert not np.all(grads["conv_b"] == 0.0)


def full_cache_backward(model, cache, dout):
    """The backward pass before checkpointing, kept as its oracle: every step's
    five arrays, recomputed over the whole sequence from zeros, are alive at
    once, and the steps run back from the last."""
    p = model.params
    h_units = model.spec.units
    X, mask_h = cache["X"], cache["mask_h"]
    zeros = np.zeros((X.shape[0], h_units))  # c, h and hd before the first step
    steps = [step for _, step in model._steps(X, mask_h, (zeros, zeros),
                                              range(model.seq_len))]
    pre2 = cache["pre2"][:, 0]
    grads = {name: np.zeros_like(p[name]) for name in ("wx", "wh", "b")}
    dh = model._head_backward(cache, dout * (pre2 > 0), grads)
    dc = np.zeros((pre2.shape[0], h_units))
    tanh_c = np.tanh(steps[-1][4])
    for t in reversed(range(model.seq_len)):
        gi, gf, gg, go, _ = steps[t]
        if t:
            go_prev, c_prev = steps[t - 1][3:]
            tanh_c_prev = np.tanh(c_prev)
            hd = (go_prev * tanh_c_prev) * mask_h
        else:
            c_prev = hd = tanh_c_prev = zeros
        dgo = dh * tanh_c
        dc = dc + dh * go * (1.0 - tanh_c * tanh_c)
        dgi = dc * gg
        dgf = dc * c_prev
        dgg = dc * gi
        da = np.concatenate([dgi * gi * (1.0 - gi), dgf * gf * (1.0 - gf),
                             dgg * (1.0 - gg * gg), dgo * go * (1.0 - go)], axis=1)
        X.add_tdot(grads["wx"], da, t)
        grads["wh"] += hd.T @ da
        grads["b"] += da.sum(axis=0)
        dh = (da @ p["wh"].T) * mask_h
        dc = dc * gf
        tanh_c = tanh_c_prev
    return grads


class TestCheckpointedBackward:
    """Every forward keeps (h, c) only where each segment of
    isqrt(seq_len) steps begins, and the backward pass recomputes one segment at
    a time; the gradients must be those of the full per-step cache, bit for bit."""

    @pytest.mark.parametrize("seq_len", [1, 2, 5, 9, 17])
    @pytest.mark.parametrize("inputs", ["tokens", "dense"])
    @pytest.mark.parametrize("forward", ["masks", "inference"])
    def test_bit_identical_to_the_full_cache(self, seq_len, inputs, forward):
        rng = np.random.default_rng(seq_len)
        model = LstmRegressor(LstmSpec(units=6, dropout=0.3, recurrent_dropout=0.3,
                                       dense_units=8), seq_len, TOY_D, seed=seq_len)
        model.params["b"][:] = rng.normal(0, 0.5, model.params["b"].shape)
        model.params["b2"][:] = 3.0  # keeps the output ReLU alive on every row
        tokens = token_rows(rng, 5, seq_len, TOY_D) if seq_len >= 3 else TokenSequences(
            rng.integers(0, TOY_D, (5, seq_len)), rng.uniform(1, 5, (5, seq_len)), TOY_D)
        X = tokens if inputs == "tokens" else dense_array(tokens)
        masks = model.sample_masks(5, rng) if forward == "masks" else None
        pred, cache = model.forward(X, training=masks is not None, masks=masks)
        assert len(cache["checkpoints"]) == -(-seq_len // math.isqrt(seq_len))
        _, dpred = mse_loss(pred, rng.uniform(0, 10, 5))
        got = model.backward(cache, dpred)
        expected = full_cache_backward(model, cache, dpred)
        assert np.any(expected["wx"] != 0)
        for name, grad in expected.items():
            assert np.array_equal(got[name], grad), name
        assert set(got) == set(model.params)


def loop_dpre(model, cache, dout):
    """The gradient at the conv layer's pre-activations, its max-pool and dense
    backward written out on their own."""
    p, spec = model.params, model.spec
    dh1 = (dout[:, None] @ p["w2"].T) * (cache["h1"] > 0)
    dpooled = (dh1 @ p["w1"].T).reshape(len(dout), model.pool_len, spec.conv_filters)
    dact = np.zeros_like(cache["pre"])
    for b, t, f in np.ndindex(*dpooled.shape):
        dact[b, t * spec.pool_size + cache["pool_arg"][b, t, f], f] = dpooled[b, t, f]
    return dact * (cache["pre"] > 0)


def einsum_conv_w_grad(model, X, cache, dout):
    """The conv_w gradient for the dense input `X`, summed with `einsum` over
    (row, position, channel)."""
    dpre = loop_dpre(model, cache, dout)
    return np.stack([np.einsum("btd,btf->df", X[:, j : j + model.conv_len], dpre)
                     for j in range(model.spec.kernel_size)])


def one_hot_rows(rng, batch, seq_len, dim):
    """TF-IDF-shaped sequences: one idf-scaled bucket per token, zero padding."""
    X = np.zeros((batch, seq_len, dim))
    for b in range(batch):
        length = rng.integers(seq_len // 2, seq_len + 1)
        X[b, np.arange(length), rng.integers(0, dim, length)] = rng.uniform(1, 5, length)
    return X


def token_rows(rng, batch, seq_len, dim):
    """TokenSequences as TF-IDF makes them, with ids repeated within a row and
    across rows: at position 1 every row holds the same id. Each row ends in
    padding (id 0, value 0) after at least 3 tokens."""
    ids = rng.integers(0, dim, (batch, seq_len))
    ids[:, 1] = ids[0, 1]
    ids[:, 2] = ids[:, 0]
    values = rng.uniform(1, 5, (batch, seq_len))
    for b in range(batch):
        length = rng.integers(3, seq_len + 1)
        ids[b, length:], values[b, length:] = 0, 0.0
    return TokenSequences(ids, values, dim)


class TestConvWeightGradient:
    @pytest.mark.parametrize("kernel_size", [1, 2, 3])
    @pytest.mark.parametrize("inputs", ["one_hot", "dense", "tokens"])
    def test_matches_einsum_reference(self, kernel_size, inputs):
        rng = np.random.default_rng(kernel_size)
        batch, seq_len, dim = 7, 12, 16
        model = CnnRegressor(CnnSpec(conv_filters=5, kernel_size=kernel_size,
                                     pool_size=2, dense_units=6), seq_len, dim, seed=3)
        X = {"one_hot": lambda: one_hot_rows(rng, batch, seq_len, dim),
             "dense": lambda: rng.normal(size=(batch, seq_len, dim)),
             "tokens": lambda: token_rows(rng, batch, seq_len, dim)}[inputs]()
        pred, cache = model.forward(X)
        _, dpred = mse_loss(pred, rng.uniform(0, 10, batch))
        expected = einsum_conv_w_grad(model, dense_array(X), cache, dpred)
        scale = np.abs(expected).max()
        assert scale > 0
        # The sums run in another order; an entry that cancels to near zero
        # is held to the gradient's scale instead of its own.
        grads = model.backward(cache, dpred)
        np.testing.assert_allclose(grads["conv_w"], expected,
                                   rtol=1e-12, atol=1e-12 * scale)
        # the same arithmetic as the loop, so bit for bit
        assert np.array_equal(grads["conv_b"],
                              loop_dpre(model, cache, dpred).sum(axis=(0, 1)))


    def test_backward_peak_is_at_most_five_conv_arrays_above_the_cache(self):
        """The window gradients go straight into dpre, formed in place, so besides
        the forward cache the backward pass of a default-spec 64-row token batch
        holds at most five (batch, conv_len, filters) float64 arrays at once."""
        rng = np.random.default_rng(0)
        batch, seq_len, dim = 64, 64, 256
        model = CnnRegressor(CnnSpec(), seq_len, dim, seed=0)
        X = TokenSequences(rng.integers(0, dim, (batch, seq_len)),
                           rng.uniform(0.5, 2.0, (batch, seq_len)), dim)
        _, cache = model.forward(X, training=True)
        dout = rng.normal(size=batch)
        tracemalloc.start()
        try:
            model.backward(cache, dout)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5 * batch * model.conv_len * model.spec.conv_filters * 8, peak


def token_nets():
    """(model, dropout masks or None): the cnn, the lstm, and the lstm with
    masks to replay, on TOY shapes and batches of 5."""
    dropout = toy_lstm(seed=2, dropout=0.3)
    return [(toy_cnn(seed=1), None), (toy_lstm(seed=2), None),
            (dropout, dropout.sample_masks(5, np.random.default_rng(11)))]


class TestTokenInput:
    """The nets read TokenSequences through a gather and a scatter-add; the
    results must be those of the dense array with one nonzero per position."""

    @pytest.mark.parametrize("case", range(3), ids=["cnn", "lstm", "lstm_dropout"])
    @pytest.mark.parametrize("seed", range(3))
    def test_forward_is_bit_identical_to_dense(self, case, seed):
        model, masks = token_nets()[case]
        tokens = token_rows(np.random.default_rng(seed), 5, TOY_L, TOY_D)
        dense = dense_array(tokens)
        for training in (False, masks is not None):
            a, _ = model.forward(tokens, training=training, masks=masks)
            b, _ = model.forward(dense, training=training, masks=masks)
            assert np.array_equal(a, b)
        assert np.array_equal(model.features(tokens), model.features(dense))

    @pytest.mark.parametrize("case", range(3), ids=["cnn", "lstm", "lstm_dropout"])
    @pytest.mark.parametrize("seed", range(3))
    def test_gradients_match_dense(self, case, seed):
        model, masks = token_nets()[case]
        rng = np.random.default_rng(seed)
        tokens = token_rows(rng, 5, TOY_L, TOY_D)
        y = rng.uniform(0, 10, 5)
        got = analytic_grads(model, tokens, y, masks=masks)
        expected = analytic_grads(model, dense_array(tokens), y, masks=masks)
        for name, grad in expected.items():
            scale = np.abs(grad).max()
            np.testing.assert_allclose(got[name], grad, rtol=1e-12, atol=1e-12 * scale,
                                       err_msg=name)

    def test_repeated_id_gradient_adds_up(self):
        # One id at every position of every row: each weight row's gradient is
        # the sum over all of them, which a scatter that drops repeats misses.
        model = toy_cnn(seed=4)
        tokens = TokenSequences(np.full((4, TOY_L), 2), np.ones((4, TOY_L)), TOY_D)
        y = np.arange(4.0)
        got = analytic_grads(model, tokens, y)["conv_w"]
        assert np.any(got[:, 2] != 0) and np.all(got[:, [0, 1, 3]] == 0)
        np.testing.assert_allclose(got, analytic_grads(model, dense_array(tokens), y)["conv_w"],
                                   rtol=1e-12, atol=1e-12 * np.abs(got).max())

    @pytest.mark.parametrize("case", range(3), ids=["cnn", "lstm", "lstm_dropout"])
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_finite_differences(self, case, seed):
        model, masks = token_nets()[case]
        rng = np.random.default_rng(20 + seed)
        # Padding and dropped-out inputs are exact zeros; under the zero initial
        # biases they put a ReLU exactly at its kink, where finite differences
        # do not hold.
        for name in ("conv_b", "b", "b1", "b2"):
            if name in model.params:
                model.params[name][:] = rng.normal(0, 0.5, model.params[name].shape)
        tokens = token_rows(rng, 5, TOY_L, TOY_D)
        y = rng.uniform(0, 10, 5)
        assert max_relative_gradient_error(model, tokens, y, masks=masks) < 1e-4

    def test_batches_and_shape(self):
        tokens = token_rows(np.random.default_rng(0), 5, TOY_L, TOY_D)
        assert tokens.shape == (5, TOY_L, TOY_D)
        assert tokens.nbytes == tokens.ids.nbytes + tokens.values.nbytes
        assert np.array_equal(dense_array(tokens[[3, 1]]), dense_array(tokens)[[3, 1]])
        assert np.array_equal(dense_array(tokens[2][None]), dense_array(tokens)[2:3])
        with pytest.raises(ShapeError):
            toy_cnn().forward(TokenSequences(tokens.ids, tokens.values, TOY_D + 1))


class TestTrain:
    @staticmethod
    def toy_data(n=12, seed=0):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, TOY_L, TOY_D))
        y = rng.uniform(0, 10, n)
        return X, y

    def test_zero_learning_rate_freezes_parameters(self):
        model = toy_cnn()
        before = copy.deepcopy(model.params)
        X, y = self.toy_data()
        cfg = TrainConfig(max_epochs=3, batch_size=4, learning_rate=0.0, patience=10)
        history = train(model, X, y, X, y, cfg)
        assert all(np.array_equal(before[k], model.params[k]) for k in before)
        assert len(set(history.train_loss)) == 1

    def test_constant_val_loss_stops_after_patience(self):
        # lr=0 means the validation loss never improves after epoch 1.
        model = toy_cnn()
        X, y = self.toy_data()
        cfg = TrainConfig(max_epochs=50, batch_size=4, learning_rate=0.0, patience=1)
        history = train(model, X, y, X, y, cfg)
        assert history.best_epoch == 1
        assert history.stopped_epoch == 2

    @pytest.mark.parametrize("net", ["cnn", "lstm"])
    def test_stopping_window_and_restoration(self, net):
        # a batch size other than PREDICT_BATCH, and more validation rows than it
        model = toy_cnn(seed=2) if net == "cnn" else toy_lstm(seed=2, dropout=0.2)
        X, y = self.toy_data(90, seed=2)
        Xv, yv = self.toy_data(70, seed=3)
        cfg = TrainConfig(max_epochs=30, batch_size=5, learning_rate=0.05, patience=3,
                          seed=5)
        history = train(model, X, y, Xv, yv, cfg)
        assert history.stopped_epoch - history.best_epoch <= cfg.patience
        assert history.val_loss[history.best_epoch - 1] == min(history.val_loss)
        # Restored weights reproduce the recorded best loss exactly.
        assert mse_loss(model.predict(Xv), yv)[0] == history.val_loss[history.best_epoch - 1]

    def test_same_seed_identical_history(self):
        X, y = self.toy_data(10, seed=3)
        cfg = TrainConfig(max_epochs=5, batch_size=4, learning_rate=0.01, seed=9)
        h1 = train(toy_cnn(seed=4), X, y, X, y, cfg)
        h2 = train(toy_cnn(seed=4), X, y, X, y, cfg)
        assert h1.train_loss == h2.train_loss
        assert h1.val_loss == h2.val_loss

    def test_cnn_overfits_tiny_dataset(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(8, TOY_L, TOY_D))
        y = rng.uniform(0, 10, 8)
        model = toy_cnn(seed=7)
        cfg = TrainConfig(max_epochs=500, batch_size=8, learning_rate=0.01,
                          patience=500, seed=7)
        history = train(model, X, y, X, y, cfg)
        assert min(history.train_loss) < 1e-2

    def test_empty_split_rejected(self):
        X, y = self.toy_data(4)
        with pytest.raises(TrainingError):
            train(toy_cnn(), X, y, X[:0], y[:0], TrainConfig(max_epochs=1))

    def test_lstm_training_memory_grows_by_one_batch_of_five_arrays_per_step(self):
        """Only one batch's step cache is alive at a time, and it holds five
        (batch, units) float64 arrays per step. The bound allows six: the sixth
        covers the step's input and the backward pass's temporaries."""
        batch, units = 16, 32

        def peak_bytes(seq_len):
            rng = np.random.default_rng(0)
            model = LstmRegressor(LstmSpec(units=units, dense_units=8), seq_len, 16)
            X = TokenSequences(rng.integers(0, 16, (3 * batch, seq_len)),
                               rng.uniform(0.5, 2.0, (3 * batch, seq_len)), 16)
            y = rng.uniform(0, 10, 3 * batch)
            cfg = TrainConfig(max_epochs=2, batch_size=batch, patience=2)
            tracemalloc.start()
            try:
                train(model, X, y, X, y, cfg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        per_step = (peak_bytes(64) - peak_bytes(8)) / (64 - 8)
        assert per_step <= 6 * batch * units * 8, per_step


    def test_lstm_training_memory_grows_by_under_one_array_per_step(self):
        """Training keeps two arrays per segment of isqrt(seq_len) steps and
        recomputes one segment's five per step at a time, so from seq_len 64 to
        256 its peak grows by well under one (batch, units) array per step."""
        batch, units = 16, 32

        def peak_bytes(seq_len):
            rng = np.random.default_rng(0)
            model = LstmRegressor(LstmSpec(units=units, dense_units=8), seq_len, 16)
            X = TokenSequences(rng.integers(0, 16, (3 * batch, seq_len)),
                               rng.uniform(0.5, 2.0, (3 * batch, seq_len)), 16)
            y = rng.uniform(0, 10, 3 * batch)
            cfg = TrainConfig(max_epochs=2, batch_size=batch, patience=2)
            tracemalloc.start()
            try:
                train(model, X, y, X, y, cfg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        per_step = (peak_bytes(256) - peak_bytes(64)) / (256 - 64)
        assert per_step <= batch * units * 8, per_step

def small_token_run(net, inputs="tokens"):
    """(model, train input, history) of a fixed small run on 16 train rows whose
    tokens read 6 of 32 buckets; the 8 validation rows also read bucket 22."""
    rng = np.random.default_rng(11)
    seq_len, dim = 8, 32
    ids = rng.choice([1, 4, 5, 9, 17, 30], size=(24, seq_len)).astype(np.int32)
    ids[16:, -2:] = 22
    X = TokenSequences(ids, rng.uniform(0.5, 2.0, (24, seq_len)), dim)
    y = rng.uniform(0, 10, 24)
    if net == "cnn":
        model = CnnRegressor(CnnSpec(conv_filters=4, kernel_size=3, pool_size=2,
                                     dense_units=8), seq_len, dim, seed=3)
    else:
        model = LstmRegressor(LstmSpec(units=6, dropout=0.2, recurrent_dropout=0.2,
                                       dense_units=8), seq_len, dim, seed=3)
    if inputs == "dense":
        X = dense_array(X)
    cfg = TrainConfig(max_epochs=8, batch_size=5, learning_rate=0.01, patience=3, seed=2)
    history = train(model, X[:16], y[:16], X[16:], y[16:], cfg)
    return model, X[:16], history


class TestInputLayerRows:
    """Training keeps the input layer's gradient, Adam moments and best copy on
    the rows its token input reads; the other rows keep their initial bits."""

    # sha256 of the parameters after `small_token_run`, computed with the input
    # layer's training state on all of its rows (x86-64, numpy 2.4, OpenBLAS)
    PINNED = {"cnn": "5095a1ca8c831d0166038a27e69b3448220a0e49ab770844eb5ad79dde3e406c",
              "lstm": "7809dc9ca6c65f2686fc1ff9be4fe092537ef46a5c4f5b09ca10cd88d555907c"}

    @pytest.mark.parametrize("net", ["cnn", "lstm"])
    def test_untouched_rows_keep_their_initial_bits(self, net):
        model, X, history = small_token_run(net)
        assert history.best_epoch > 1  # the best copy was taken after training moved
        fresh = type(model)(model.spec, model.seq_len, model.dim, seed=3)
        name, axis = model.INPUT_LAYER, model.INPUT_AXIS
        touched = np.isin(np.arange(model.dim), X.ids)
        assert touched.sum() == 6
        after, before = (np.moveaxis(net.params[name], axis, 0) for net in (model, fresh))
        assert np.array_equal(after[~touched], before[~touched])
        assert not np.array_equal(after[touched], before[touched])

    @pytest.mark.parametrize("net", ["cnn", "lstm"])
    @pytest.mark.parametrize("inputs", ["tokens", "dense"])
    def test_adam_state_and_gradient_have_one_row_per_touched_bucket(
            self, net, inputs, monkeypatch):
        seen = []
        step = Adam.step

        def spy(adam, params, grads):
            name = next(k for k in ("wx", "conv_w") if k in params)
            axis = 0 if name == "wx" else 1
            seen.append({adam.m[name].shape[axis], adam.v[name].shape[axis],
                         grads[name].shape[axis]})
            step(adam, params, grads)

        monkeypatch.setattr(Adam, "step", spy)
        small_token_run(net, inputs)
        rows = 6 if inputs == "tokens" else 32  # dense input reads every row
        assert seen and all(shapes == {rows} for shapes in seen)

    @pytest.mark.parametrize("net", ["cnn", "lstm"])
    def test_parameters_match_the_dense_state_digest(self, net):
        model, _, _ = small_token_run(net)
        digest = hashlib.sha256()
        for name in sorted(model.params):
            digest.update(name.encode())
            digest.update(model.params[name].tobytes())
        assert digest.hexdigest() == self.PINNED[net]

    @pytest.mark.parametrize("case", range(3), ids=["cnn", "lstm", "lstm_dropout"])
    def test_touched_gradient_is_the_full_one_on_its_rows(self, case):
        model, masks = token_nets()[case]
        rng = np.random.default_rng(case)
        tokens = token_rows(rng, 5, TOY_L, TOY_D)
        tokens.ids[tokens.ids == 1] = 3  # bucket 1 is read by no row
        y = rng.uniform(0, 10, 5)
        full = analytic_grads(model, tokens, y, masks=masks)
        touched = tokens.touched()
        assert touched.grad_rows.tolist() == sorted(set(tokens.ids.ravel()))
        part = analytic_grads(model, touched, y, masks=masks)
        parts = model.trained_parts(touched.grad_rows)
        for name, grad in full.items():
            assert np.array_equal(part[name], grad[parts[name]]), name
        assert not np.moveaxis(full[model.INPUT_LAYER], model.INPUT_AXIS, 0)[1].any()


class TestAdam:
    @staticmethod
    def textbook_step(params, grads, m, v, t, lr):
        """The out-of-place update Adam.step replaces, kept as its oracle."""
        for key in params:
            g = grads[key]
            m[key] = ADAM_BETA1 * m[key] + (1 - ADAM_BETA1) * g
            v[key] = ADAM_BETA2 * v[key] + (1 - ADAM_BETA2) * (g * g)
            m_hat = m[key] / (1 - ADAM_BETA1 ** t)
            v_hat = v[key] / (1 - ADAM_BETA2 ** t)
            params[key] -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)

    def test_in_place_step_is_bit_identical_to_the_textbook_expression(self):
        rng = np.random.default_rng(3)
        shapes = {"w": (7, 5), "b": (5,), "out": (1,)}
        params = {key: rng.normal(size=shape) for key, shape in shapes.items()}
        expected = copy.deepcopy(params)
        m = {key: np.zeros(shape) for key, shape in shapes.items()}
        v = copy.deepcopy(m)
        adam = Adam(params, learning_rate=3e-3)
        for t in range(1, 6):
            grads = {key: rng.normal(scale=10.0 ** rng.integers(-6, 3), size=shape)
                     for key, shape in shapes.items()}
            adam.step(params, grads)
            self.textbook_step(expected, grads, m, v, t, 3e-3)
            assert adam.t == t
            for key in shapes:
                assert np.array_equal(params[key], expected[key])
                assert np.array_equal(adam.m[key], m[key])
                assert np.array_equal(adam.v[key], v[key])


class TestFeatures:
    def test_cnn_feature_length(self):
        spec = CnnSpec(conv_filters=32, kernel_size=3, pool_size=2, dense_units=64)
        for L in (8, 16, 33):
            model = CnnRegressor(spec, L, 4)
            X = np.random.default_rng(0).normal(size=(2, L, 4))
            feats = model.features(X)
            assert feats.shape == (2, 32 * ((L - 2) // 2))

    def test_lstm_feature_length(self):
        model = LstmRegressor(LstmSpec(units=128), 6, 4)
        X = np.random.default_rng(0).normal(size=(3, 6, 4))
        assert model.features(X).shape == (3, 128)

    @pytest.mark.parametrize("net", ["cnn", "lstm"])
    @pytest.mark.parametrize("inputs", ["tokens", "dense"])
    def test_predict_is_the_head_of_features(self, net, inputs):
        """The hybrids fit their forests on `features`: it must be exactly what the
        dense head reads, and the output unit (linear for the CNN, ReLU for the
        LSTM) of relu(z @ w1 + b1) @ w2 + b2 must be `predict`, bit for bit."""
        model = toy_cnn(seed=1) if net == "cnn" else toy_lstm(seed=2, dropout=0.3)
        tokens = token_rows(np.random.default_rng(5), 8, TOY_L, TOY_D)
        X = tokens if inputs == "tokens" else dense_array(tokens)
        p = model.params
        head = np.maximum(model.features(X) @ p["w1"] + p["b1"], 0.0) @ p["w2"] + p["b2"]
        out = head[:, 0] if net == "cnn" else np.maximum(head[:, 0], 0.0)
        assert np.count_nonzero(out) > 0  # a live output unit, not all ReLU zeros
        assert np.array_equal(model.predict(X), out)

    def test_cnn_predict_memory_is_about_one_batch(self):
        """predict and features run PREDICT_BATCH rows at a time, so on over
        three batches at seq_len 256 they peak about where one batch does, plus
        their output and its pieces."""
        rng = np.random.default_rng(0)
        seq_len, dim, rows = 256, 256, 3 * PREDICT_BATCH + 8
        model = CnnRegressor(CnnSpec(), seq_len, dim)
        X = TokenSequences(rng.integers(0, dim, (rows, seq_len)).astype(np.int32),
                           rng.uniform(0.5, 2.0, (rows, seq_len)), dim)

        def peak_bytes(n, method):
            tracemalloc.start()
            try:
                out = method(X[:n])
                return tracemalloc.get_traced_memory()[1], out.nbytes
            finally:
                tracemalloc.stop()

        for method in (model.predict, model.features):
            peak, out_bytes = peak_bytes(rows, method)
            assert peak < 1.05 * peak_bytes(PREDICT_BATCH, method)[0] + 2 * out_bytes

    def test_features_deterministic(self):
        model = toy_lstm(dropout=0.4)
        X = np.random.default_rng(1).normal(size=(2, TOY_L, TOY_D))
        assert np.array_equal(model.features(X), model.features(X))

    def test_lstm_inference_memory_does_not_grow_with_length(self):
        def peak_bytes(seq_len):
            model = LstmRegressor(LstmSpec(units=32, dense_units=8), seq_len, 16)
            X = np.random.default_rng(0).normal(size=(100, seq_len, 16))
            tracemalloc.start()
            try:
                model.predict(X)
                model.features(X)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak_bytes(64) < 1.5 * peak_bytes(8)
