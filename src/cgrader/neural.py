"""Minimal CNN and LSTM regressors with hand-derived backpropagation.

Everything runs in float64 so analytic gradients can be checked against
central finite differences. Training uses Adam with early stopping on
validation loss and restores the best weights.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class ShapeError(ValueError):
    pass


class TrainingError(RuntimeError):
    pass


# A net reads its (N, L, d) input only through the two products below: X[:, at]
# @ w for its first layer, and X[:, at]ᵀ g for that layer's weight gradient,
# where `at` is one position or a slice of them.


@dataclass(frozen=True, eq=False)
class TokenSequences:
    """Sequences whose (..., L, d) array has one nonzero per position, held as
    the (..., L) columns of those nonzeros and their values (0 at padding).

    The nets never build the dense array; `np.asarray` does, for a caller that
    wants it."""

    ids: np.ndarray  # (..., L) ints in [0, d)
    values: np.ndarray  # (..., L) float64
    d: int

    @property
    def shape(self) -> tuple:
        return (*self.ids.shape, self.d)

    @property
    def nbytes(self) -> int:
        return self.ids.nbytes + self.values.nbytes

    def __getitem__(self, rows) -> "TokenSequences":
        return TokenSequences(self.ids[rows], self.values[rows], self.d)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        dense = np.zeros(self.shape)
        np.put_along_axis(dense, self.ids[..., None], self.values[..., None], axis=-1)
        return dense if dtype is None else dense.astype(dtype)

    def scaled(self, mask) -> "TokenSequences":
        """X * mask[:, None, :] for an (N, d) mask: each value times its column's mask."""
        return TokenSequences(self.ids, self.values * np.take_along_axis(mask, self.ids, 1),
                              self.d)

    def dot(self, w, at) -> np.ndarray:
        """X[:, at] @ w, as a gather of w's rows."""
        return w[self.ids[:, at]] * self.values[:, at, None]

    def add_tdot(self, out, g, at) -> None:
        """out += X[:, at]ᵀ g, summed over rows and positions: each row of g, times
        its value, is added to the row of the C-contiguous `out` that its id names.
        `np.add.at` sums rows that share an id, which `out[ids] += rows` would not."""
        assert out.flags.c_contiguous  # so that reshape(-1) is a view of it
        cols = out.shape[1]
        # in intp: an int32 id times cols can pass 2**31
        flat_index = self.ids[:, at, None].astype(np.intp) * cols + np.arange(cols)
        np.add.at(out.reshape(-1), flat_index.ravel(), (self.values[:, at, None] * g).ravel())


@dataclass(frozen=True, eq=False)
class DenseSequences:
    """Sequences held as their (N, L, d) float64 array, with TokenSequences' products."""

    array: np.ndarray

    @property
    def shape(self) -> tuple:
        return self.array.shape

    def scaled(self, mask) -> "DenseSequences":
        return DenseSequences(self.array * mask[:, None, :])

    def dot(self, w, at) -> np.ndarray:
        return self.array[:, at] @ w

    def add_tdot(self, out, g, at) -> None:
        rows = self.array[:, at]
        out += rows.reshape(-1, rows.shape[-1]).T @ g.reshape(-1, out.shape[1])


@dataclass(frozen=True)
class CnnSpec:
    conv_filters: int = 32
    kernel_size: int = 3
    pool_size: int = 2
    dense_units: int = 64


@dataclass(frozen=True)
class LstmSpec:
    units: int = 128
    dropout: float = 0.2
    recurrent_dropout: float = 0.2
    dense_units: int = 64

    def __post_init__(self):
        if not (0 <= self.dropout < 1 and 0 <= self.recurrent_dropout < 1):
            raise ValueError("dropout rates must be in [0, 1)")


@dataclass(frozen=True)
class TrainConfig:
    max_epochs: int = 50
    batch_size: int = 64
    learning_rate: float = 1e-3
    patience: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.batch_size < 1 or self.patience < 1 or self.max_epochs < 1:
            raise ValueError("batch_size, patience, max_epochs must be >= 1")
        if not 0 <= self.learning_rate < np.inf:
            raise ValueError(f"learning_rate must be finite and >= 0, got "
                             f"{self.learning_rate}")


@dataclass
class TrainingHistory:
    train_loss: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    best_epoch: int = 0  # 1-based
    stopped_epoch: int = 0


def mse_loss(pred, target):
    """Mean squared error and its gradient with respect to pred."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ShapeError(f"length mismatch: {pred.shape} vs {target.shape}")
    diff = pred - target
    loss = float(np.mean(diff * diff))
    grad = 2.0 * diff / diff.size
    return loss, grad


def _glorot(rng, shape, fan_in, fan_out):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def float_array(value, ndim: int) -> np.ndarray:
    """`value` if it is a float64 array of `ndim` dimensions, else ValueError."""
    if not (isinstance(value, np.ndarray) and value.dtype == np.float64
            and value.ndim == ndim):
        raise ValueError(f"expected a {ndim}-D float64 array, not {value!r:.60}")
    return value


def _init_params(layout: dict, seed: int, given: dict | None) -> dict:
    """A net's arrays, each name in `layout` -> (shape, Glorot fans or None for
    zeros): drawn from `seed`, or the `given` trained ones once checked."""
    if given is None:
        rng = np.random.default_rng(seed)
        return {name: np.zeros(shape) if fans is None else _glorot(rng, shape, *fans)
                for name, (shape, fans) in layout.items()}
    if set(given) != set(layout):
        raise ValueError(f"net state holds {sorted(given)}, not {sorted(layout)}")
    for name, arr in given.items():
        shape = layout[name][0]
        if float_array(arr, len(shape)).shape != shape:
            raise ValueError(f"net state {name!r} has shape {arr.shape}")
    return given


def _checked_input(net, X):
    """`X` as the net reads it, TokenSequences as they are and an array as
    DenseSequences; ShapeError unless it is (batch, L, d) of the net's L and d."""
    if not isinstance(X, (TokenSequences, DenseSequences)):
        X = DenseSequences(np.asarray(X, dtype=np.float64))
    if len(X.shape) != 3 or X.shape[1:] != (net.seq_len, net.dim):
        raise ShapeError(f"expected (batch, {net.seq_len}, {net.dim}), got {X.shape}")
    return X


def _relu(x):
    return np.maximum(x, 0.0)


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


class CnnRegressor:
    """Conv1d (valid, ReLU) -> max pool -> dense ReLU -> linear output."""

    def __init__(self, spec: CnnSpec, seq_len: int, dim: int, seed: int = 0,
                 params: dict | None = None):
        if seq_len < spec.kernel_size:
            raise ShapeError(
                f"sequence length {seq_len} shorter than kernel {spec.kernel_size}"
            )
        self.spec = spec
        self.seq_len = seq_len
        self.dim = dim
        self.conv_len = seq_len - spec.kernel_size + 1
        self.pool_len = self.conv_len // spec.pool_size
        if self.pool_len < 1:
            raise ShapeError("pooled length is zero; sequence too short")
        self.feature_len = self.pool_len * spec.conv_filters
        k, d, f, u = spec.kernel_size, dim, spec.conv_filters, spec.dense_units
        self.params = _init_params({  # each layer's weights, then its biases
            "conv_w": ((k, d, f), (k * d, f)), "conv_b": ((f,), None),
            "w1": ((self.feature_len, u), (self.feature_len, u)), "b1": ((u,), None),
            "w2": ((u, 1), (u, 1)), "b2": ((1,), None),
        }, seed, params)

    def forward(self, X, training: bool = False, rng=None, masks=None):
        X = _checked_input(self, X)
        p = self.params
        spec = self.spec
        pre = np.zeros((X.shape[0], self.conv_len, spec.conv_filters))
        for j in range(spec.kernel_size):
            pre += X.dot(p["conv_w"][j], slice(j, j + self.conv_len))
        pre += p["conv_b"]
        act = _relu(pre)
        trimmed = act[:, : self.pool_len * spec.pool_size, :]
        windows = trimmed.reshape(
            X.shape[0], self.pool_len, spec.pool_size, spec.conv_filters
        )
        pool_arg = windows.argmax(axis=2)
        pooled = windows.max(axis=2)
        flat = pooled.reshape(X.shape[0], self.feature_len)
        h1 = _relu(flat @ p["w1"] + p["b1"])
        out = (h1 @ p["w2"] + p["b2"])[:, 0]
        cache = {"X": X, "pre": pre, "pool_arg": pool_arg, "flat": flat, "h1": h1}
        return out, cache

    def backward(self, cache, dout):
        p = self.params
        spec = self.spec
        X, pre, pool_arg = cache["X"], cache["pre"], cache["pool_arg"]
        flat, h1 = cache["flat"], cache["h1"]
        batch = X.shape[0]
        dout = np.asarray(dout, dtype=np.float64).reshape(batch, 1)
        grads = {}
        grads["w2"] = h1.T @ dout
        grads["b2"] = dout.sum(axis=0)
        dh1 = (dout @ p["w2"].T) * (h1 > 0)
        grads["w1"] = flat.T @ dh1
        grads["b1"] = dh1.sum(axis=0)
        dflat = dh1 @ p["w1"].T
        dpooled = dflat.reshape(batch, self.pool_len, spec.conv_filters)
        dwindows = np.zeros(
            (batch, self.pool_len, spec.pool_size, spec.conv_filters)
        )
        np.put_along_axis(dwindows, pool_arg[:, :, None, :], dpooled[:, :, None, :], axis=2)
        dact = np.zeros_like(pre)
        dact[:, : self.pool_len * spec.pool_size, :] = dwindows.reshape(
            batch, self.pool_len * spec.pool_size, spec.conv_filters
        )
        dpre = dact * (pre > 0)
        grads["conv_b"] = dpre.sum(axis=(0, 1))
        # one product per kernel offset, over every (row, position) pair at once
        grads["conv_w"] = np.zeros_like(p["conv_w"])
        for j in range(spec.kernel_size):
            X.add_tdot(grads["conv_w"][j], dpre, slice(j, j + self.conv_len))
        return grads

    def features(self, X) -> np.ndarray:
        """Flatten-layer output feeding the first dense layer."""
        _, cache = self.forward(X, training=False)
        return cache["flat"]

    def predict(self, X) -> np.ndarray:
        out, _ = self.forward(X, training=False)
        return out


class LstmRegressor:
    """LSTM with per-sequence input/recurrent dropout, dense ReLU head.

    The output unit itself uses ReLU, so raw predictions are >= 0.
    """

    def __init__(self, spec: LstmSpec, seq_len: int, dim: int, seed: int = 0,
                 params: dict | None = None):
        if seq_len < 1:
            raise ShapeError("sequence length must be >= 1")
        self.spec = spec
        self.seq_len = seq_len
        self.dim = dim
        self.feature_len = spec.units
        h, d, u = spec.units, dim, spec.dense_units
        self.params = _init_params({  # each layer's weights, then its biases
            "wx": ((d, 4 * h), (d, h)), "wh": ((h, 4 * h), (h, h)), "b": ((4 * h,), None),
            "w1": ((h, u), (h, u)), "b1": ((u,), None),
            "w2": ((u, 1), (u, 1)), "b2": ((1,), None),
        }, seed, params)

    def sample_masks(self, batch: int, rng) -> tuple[np.ndarray, np.ndarray]:
        """One inverted-scaling dropout mask pair per sequence."""
        def mask(rate, width):
            if rate == 0:
                return np.ones((batch, width))
            keep = rng.random((batch, width)) >= rate
            return keep.astype(np.float64) / (1.0 - rate)

        return mask(self.spec.dropout, self.dim), mask(
            self.spec.recurrent_dropout, self.spec.units
        )

    def forward(self, X, training: bool = False, rng=None, masks=None):
        X = _checked_input(self, X)
        batch = X.shape[0]
        if training:
            if masks is None:
                if rng is None:
                    raise ValueError("training forward needs an rng or fixed masks")
                masks = self.sample_masks(batch, rng)
            mask_x, mask_h = masks
            X = X.scaled(mask_x)  # the input dropout, once for every step
        else:
            mask_h = np.ones((batch, self.spec.units))
        p = self.params
        # Inference keeps no step's arrays; a backward pass after it
        # recomputes them.
        steps = [] if training else None
        for h, step in self._steps(X, mask_h):
            if training:
                steps.append(step)
        h1 = _relu(h @ p["w1"] + p["b1"])
        pre2 = h1 @ p["w2"] + p["b2"]
        out = _relu(pre2)[:, 0]
        cache = {
            "X": X,  # after the input dropout
            "steps": steps,
            "h_final": h,
            "h1": h1,
            "pre2": pre2,
            "mask_h": mask_h,
        }
        return out, cache

    def _steps(self, X, mask_h):
        """Runs the recurrence, yielding each step's hidden state and the five
        arrays its backward pass keeps: the gates (gi, gf, gg, go) and the cell
        state c. `backward` recomputes the rest from them."""
        p = self.params
        h_units = self.spec.units
        h = np.zeros((X.shape[0], h_units))
        c = np.zeros((X.shape[0], h_units))
        for t in range(self.seq_len):
            a = X.dot(p["wx"], t) + (h * mask_h) @ p["wh"] + p["b"]
            gi = _sigmoid(a[:, :h_units])
            gf = _sigmoid(a[:, h_units : 2 * h_units])
            gg = np.tanh(a[:, 2 * h_units : 3 * h_units])
            go = _sigmoid(a[:, 3 * h_units :])
            c = gf * c + gi * gg
            h = go * np.tanh(c)
            yield h, (gi, gf, gg, go, c)

    def backward(self, cache, dout):
        """Gradients of every parameter. Each step's tanh(c), c_prev (the step
        before's c) and masked input state hd = (go₋₁·tanh(c₋₁))·mask_h are
        recomputed from the five cached arrays by the forward pass's own
        operations, so they are the same floats."""
        p = self.params
        h_units = self.spec.units
        X, mask_h, steps = cache["X"], cache["mask_h"], cache["steps"]
        if steps is None:
            steps = [step for _, step in self._steps(X, mask_h)]
        h1, pre2 = cache["h1"], cache["pre2"]
        batch = h1.shape[0]
        dout = np.asarray(dout, dtype=np.float64).reshape(batch, 1)
        grads = {name: np.zeros_like(arr) for name, arr in p.items()}
        dpre2 = dout * (pre2 > 0)
        grads["w2"] = h1.T @ dpre2
        grads["b2"] = dpre2.sum(axis=0)
        dh1 = (dpre2 @ p["w2"].T) * (h1 > 0)
        grads["w1"] = cache["h_final"].T @ dh1
        grads["b1"] = dh1.sum(axis=0)
        dh = dh1 @ p["w1"].T
        dc = np.zeros((batch, h_units))
        zeros = np.zeros((batch, h_units))  # c, h and hd before the first step
        tanh_c = np.tanh(steps[-1][4])
        for t in reversed(range(self.seq_len)):
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
            da = np.concatenate(
                [
                    dgi * gi * (1.0 - gi),
                    dgf * gf * (1.0 - gf),
                    dgg * (1.0 - gg * gg),
                    dgo * go * (1.0 - go),
                ],
                axis=1,
            )
            X.add_tdot(grads["wx"], da, t)
            grads["wh"] += hd.T @ da
            grads["b"] += da.sum(axis=0)
            dh = (da @ p["wh"].T) * mask_h
            dc = dc * gf
            tanh_c = tanh_c_prev
        return grads

    def features(self, X) -> np.ndarray:
        """Final hidden state (dropout off)."""
        _, cache = self.forward(X, training=False)
        return cache["h_final"]

    def predict(self, X) -> np.ndarray:
        out, _ = self.forward(X, training=False)
        return out


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class Adam:
    def __init__(self, params: dict, learning_rate: float):
        self.learning_rate = learning_rate
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self.t = 0

    def step(self, params: dict, grads: dict):
        """One Adam update of `params`, `m` and `v` in place, with two scratch
        arrays per parameter. The floats are those of the textbook expression
        params -= lr·m̂ / (√v̂ + ε): each product and sum is the same one."""
        self.t += 1
        m_scale = 1 - ADAM_BETA1 ** self.t
        v_scale = 1 - ADAM_BETA2 ** self.t
        for key, param in params.items():
            g, m, v = grads[key], self.m[key], self.v[key]
            m *= ADAM_BETA1
            m += (1 - ADAM_BETA1) * g
            scratch = np.multiply(g, g)
            scratch *= 1 - ADAM_BETA2
            v *= ADAM_BETA2
            v += scratch
            np.divide(v, v_scale, out=scratch)
            np.sqrt(scratch, out=scratch)
            scratch += ADAM_EPS  # √v̂ + ε
            update = np.divide(m, m_scale)
            update *= self.learning_rate
            update /= scratch
            param -= update


def _dataset_loss(model, X, y, batch_size: int) -> float:
    total = 0.0
    for start in range(0, X.shape[0], batch_size):
        chunk = slice(start, start + batch_size)
        pred, _ = model.forward(X[chunk], training=False)
        diff = pred - y[chunk]
        total += float(np.sum(diff * diff))
    return total / X.shape[0]


def _batch_grads(model, X, y, rng, epoch: int) -> dict:
    """The gradients of one batch's MSE. Its forward cache is freed on return,
    so only one batch's step arrays are alive at a time."""
    pred, cache = model.forward(X, training=True, rng=rng)
    loss, dpred = mse_loss(pred, y)
    if not np.isfinite(loss):
        raise TrainingError(f"non-finite training loss at epoch {epoch}")
    return model.backward(cache, dpred)


def train(model, X_train, y_train, X_val, y_val, cfg: TrainConfig) -> TrainingHistory:
    """Adam + early stopping on validation MSE; best weights restored. `X_train`
    and `X_val` are (N, L, d) arrays or TokenSequences."""
    y_train = np.asarray(y_train, dtype=np.float64)
    y_val = np.asarray(y_val, dtype=np.float64)
    if X_train.shape[0] == 0 or X_val.shape[0] == 0:
        raise TrainingError("train and validation splits must be non-empty")
    rng = np.random.default_rng(cfg.seed)
    adam = Adam(model.params, cfg.learning_rate)
    history = TrainingHistory()
    best_val = np.inf
    best_params = {name: arr.copy() for name, arr in model.params.items()}
    bad_epochs = 0
    for epoch in range(1, cfg.max_epochs + 1):
        perm = rng.permutation(X_train.shape[0])
        for start in range(0, perm.shape[0], cfg.batch_size):
            batch = perm[start : start + cfg.batch_size]
            # the gradients die with the step, before the next batch's forward pass
            adam.step(model.params,
                      _batch_grads(model, X_train[batch], y_train[batch], rng, epoch))
        train_loss = _dataset_loss(model, X_train, y_train, cfg.batch_size)
        val_loss = _dataset_loss(model, X_val, y_val, cfg.batch_size)
        if not (np.isfinite(train_loss) and np.isfinite(val_loss)):
            raise TrainingError(f"non-finite loss at epoch {epoch}")
        history.train_loss.append(train_loss)
        history.val_loss.append(val_loss)
        history.stopped_epoch = epoch
        if val_loss < best_val:
            best_val = val_loss
            history.best_epoch = epoch
            for name, arr in model.params.items():
                np.copyto(best_params[name], arr)
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= cfg.patience:
                break
    model.params = best_params
    return history
