"""Minimal CNN and LSTM regressors with hand-derived backpropagation.

Everything runs in float64 so analytic gradients can be checked against
central finite differences. Training uses Adam with early stopping on
validation loss and restores the best weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

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

    The nets never build the dense array.

    `grad_rows` are the rows of the net's input layer, a lookup table with one
    row per column, that `add_tdot` adds into: all d of them, or after
    `touched()` the ids present, renumbered in `grad_ids`."""

    ids: np.ndarray  # (..., L) ints in [0, d)
    values: np.ndarray  # (..., L) float64
    d: int
    grad_rows: np.ndarray | slice = field(default_factory=lambda: slice(None))
    grad_ids: np.ndarray | None = None  # (..., L): each id's place in grad_rows

    def __post_init__(self):
        if self.grad_ids is None:  # every row, each id its own
            object.__setattr__(self, "grad_ids", self.ids)

    @property
    def shape(self) -> tuple:
        return (*self.ids.shape, self.d)

    @property
    def nbytes(self) -> int:
        return self.ids.nbytes + self.values.nbytes

    def __getitem__(self, rows) -> "TokenSequences":
        return TokenSequences(self.ids[rows], self.values[rows], self.d, self.grad_rows,
                              self.grad_ids[rows])

    def touched(self) -> "TokenSequences":
        """These sequences with `grad_rows` the distinct ids, padding's too."""
        rows, at = np.unique(self.ids, return_inverse=True)
        return replace(self, grad_rows=rows,
                       grad_ids=at.reshape(self.ids.shape).astype(self.ids.dtype))

    def scaled(self, mask) -> "TokenSequences":
        """X * mask[:, None, :] for an (N, d) mask: each value times its column's mask."""
        return replace(self, values=self.values * np.take_along_axis(mask, self.ids, 1))

    def dot(self, w, at) -> np.ndarray:
        """X[:, at] @ w, as a gather of w's rows."""
        return w[self.ids[:, at]] * self.values[:, at, None]

    def add_tdot(self, out, g, at) -> None:
        """out += X[:, at]ᵀ g restricted to `grad_rows`, summed over rows and
        positions: each row of g, times its value, is added to the row of the
        C-contiguous `out` that its grad id names. `np.add.at` sums rows that
        share an id, which `out[ids] += rows` would not."""
        assert out.flags.c_contiguous  # so that reshape(-1) is a view of it
        cols = out.shape[1]
        # in intp: an int32 id times cols can pass 2**31
        flat_index = self.grad_ids[:, at, None].astype(np.intp) * cols + np.arange(cols)
        np.add.at(out.reshape(-1), flat_index.ravel(), (self.values[:, at, None] * g).ravel())


@dataclass(frozen=True, eq=False)
class DenseSequences:
    """Sequences held as their (N, L, d) float64 array, with TokenSequences' products.
    Every row of the input layer reads them, so `grad_rows` is all of them."""

    array: np.ndarray
    grad_rows = slice(None)

    @property
    def shape(self) -> tuple:
        return self.array.shape

    def __getitem__(self, rows) -> "DenseSequences":
        return DenseSequences(self.array[rows])

    def touched(self) -> "DenseSequences":
        return self

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


TRAIN_SETTINGS = ("max_epochs", "batch_size", "learning_rate", "patience")  # all but seed


@dataclass(frozen=True)
class TrainConfig:
    max_epochs: int = 50
    batch_size: int = 64
    learning_rate: float = 1e-3
    patience: int = 5
    seed: int = 0

    def __post_init__(self):
        for key in TRAIN_SETTINGS:
            check_train_setting(key, getattr(self, key), key)


def check_train_setting(key: str, value, where: str) -> None:
    """Raises a ValueError naming `where` unless `value` may be TrainConfig's `key`."""
    if key != "learning_rate":
        if value < 1:
            raise ValueError(f"{where} must be >= 1, got {value}")
    elif not 0 <= value < np.inf:
        raise ValueError(f"{where} must be finite and >= 0, got {value}")


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


def checked_array(value, dtype, ndim: int, name: str) -> np.ndarray:
    """`value` if it is an array of `dtype` and `ndim` dimensions, else a ValueError
    naming it `name`. Every array a model file holds is read through it."""
    dtype = np.dtype(dtype)
    if isinstance(value, np.ndarray):
        if value.dtype == dtype and value.ndim == ndim:
            return value
        value = f"a {value.ndim}-D {value.dtype} array"  # an array's repr spans lines
    else:
        value = f"{value!r:.60}"
    raise ValueError(f"{name} must be a {ndim}-D {dtype} array, not {value}")


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
        if checked_array(arr, np.float64, len(shape), f"net state {name!r}").shape != shape:
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


PREDICT_BATCH = 64  # rows per inference forward pass, which bounds its memory


class DenseHeadNet:
    """What the CNN and the LSTM share: a body, written by each subclass, maps
    (batch, L, d) input to (batch, feature_len) features z, and the dense head
    relu(z @ w1 + b1) @ w2 + b2 maps those to one output per row. Each subclass
    defines `forward`, whose cache holds "features" and "h1", and `backward`.

    The body's first layer, `INPUT_LAYER`, is a lookup table: its d rows along
    `INPUT_AXIS` are the input columns. `backward` gives its gradient on the
    input's `grad_rows` only, and training keeps state for those rows only."""

    INPUT_LAYER: str
    INPUT_AXIS: int

    def __init__(self, spec, seq_len: int, dim: int, feature_len: int, body: dict,
                 seed: int, params: dict | None):
        self.spec = spec
        self.seq_len = seq_len
        self.dim = dim
        self.feature_len = feature_len
        z, u = feature_len, spec.dense_units
        self.params = _init_params({  # the body's arrays, then the head's
            **body, "w1": ((z, u), (z, u)), "b1": ((u,), None),
            "w2": ((u, 1), (u, 1)), "b2": ((1,), None),
        }, seed, params)

    def _head(self, features):
        """(the head's (batch, 1) output, its hidden layer h1)."""
        p = self.params
        h1 = _relu(features @ p["w1"] + p["b1"])
        return h1 @ p["w2"] + p["b2"], h1

    def _head_backward(self, cache, dout, grads: dict) -> np.ndarray:
        """Puts the gradients of w1, b1, w2 and b2 for the gradient `dout` of the
        head's output, one per row, into `grads`; returns that of the features."""
        p, h1 = self.params, cache["h1"]
        dout = np.asarray(dout, dtype=np.float64).reshape(-1, 1)
        grads["w2"] = h1.T @ dout
        grads["b2"] = dout.sum(axis=0)
        dh1 = (dout @ p["w2"].T) * (h1 > 0)
        grads["w1"] = cache["features"].T @ dh1
        grads["b1"] = dh1.sum(axis=0)
        return dh1 @ p["w1"].T

    def trained_parts(self, rows) -> dict:
        """Each parameter's index of the part that training on input whose
        `grad_rows` are `rows` changes: those rows of the input layer, and the
        other parameters whole."""
        parts = dict.fromkeys(self.params, slice(None))
        parts[self.INPUT_LAYER] = (slice(None),) * self.INPUT_AXIS + (rows,)
        return parts

    def _input_grad(self, X) -> np.ndarray:
        """Zeros for the input layer's gradient on X's `grad_rows`, in C order
        as `add_tdot` needs (`zeros_like` of a fancy index may not be)."""
        name = self.INPUT_LAYER
        return np.zeros(self.params[name][self.trained_parts(X.grad_rows)[name]].shape)

    def _by_batch(self, X, pick, batch: int = PREDICT_BATCH) -> np.ndarray:
        """pick(out, cache) of forward(training=False) over X, concatenated. It
        runs `batch` rows at a time, so one batch's cache is alive at once; an
        empty X runs one empty batch, which gives the output's shape."""
        X = _checked_input(self, X)
        return np.concatenate([pick(*self.forward(X[start : start + batch], training=False))
                               for start in range(0, max(X.shape[0], 1), batch)])

    def features(self, X) -> np.ndarray:
        """The body's output, which the head reads (dropout off)."""
        return self._by_batch(X, lambda out, cache: cache["features"])

    def predict(self, X) -> np.ndarray:
        return self._by_batch(X, lambda out, cache: out)


class CnnRegressor(DenseHeadNet):
    """Conv1d (valid, ReLU) -> max pool -> dense ReLU -> linear output."""

    INPUT_LAYER, INPUT_AXIS = "conv_w", 1  # (kernel_size, d, conv_filters)

    def __init__(self, spec: CnnSpec, seq_len: int, dim: int, seed: int = 0,
                 params: dict | None = None):
        if seq_len < spec.kernel_size:
            raise ShapeError(
                f"sequence length {seq_len} shorter than kernel {spec.kernel_size}"
            )
        self.conv_len = seq_len - spec.kernel_size + 1
        self.pool_len = self.conv_len // spec.pool_size
        if self.pool_len < 1:
            raise ShapeError("pooled length is zero; sequence too short")
        k, d, f = spec.kernel_size, dim, spec.conv_filters
        super().__init__(spec, seq_len, dim, self.pool_len * f, {
            "conv_w": ((k, d, f), (k * d, f)), "conv_b": ((f,), None)}, seed, params)

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
        flat = windows.max(axis=2).reshape(X.shape[0], self.feature_len)
        out, h1 = self._head(flat)
        cache = {"X": X, "pre": pre, "pool_arg": pool_arg, "features": flat, "h1": h1}
        return out[:, 0], cache

    def backward(self, cache, dout):
        spec = self.spec
        X, pre, pool_arg = cache["X"], cache["pre"], cache["pool_arg"]
        batch = X.shape[0]
        grads = {}
        dflat = self._head_backward(cache, dout, grads)
        dpooled = dflat.reshape(batch, self.pool_len, spec.conv_filters)
        # dpre starts as dact: the windows' gradients are scattered through a view of
        # their slots (splitting an axis needs no copy), then masked by pre > 0 in place
        dpre = np.zeros_like(pre)
        dwindows = dpre[:, : self.pool_len * spec.pool_size].reshape(
            batch, self.pool_len, spec.pool_size, spec.conv_filters)
        np.put_along_axis(dwindows, pool_arg[:, :, None, :], dpooled[:, :, None, :], axis=2)
        np.multiply(dpre, pre > 0, out=dpre)
        grads["conv_b"] = dpre.sum(axis=(0, 1))
        # one product per kernel offset, over every (row, position) pair at once
        grads["conv_w"] = self._input_grad(X)
        for j in range(spec.kernel_size):
            X.add_tdot(grads["conv_w"][j], dpre, slice(j, j + self.conv_len))
        return grads


class LstmRegressor(DenseHeadNet):
    """LSTM with per-sequence input/recurrent dropout, dense ReLU head. Its
    features are the final hidden state.

    The output unit itself uses ReLU, so raw predictions are >= 0.
    """

    INPUT_LAYER, INPUT_AXIS = "wx", 0  # (d, 4 * units)

    def __init__(self, spec: LstmSpec, seq_len: int, dim: int, seed: int = 0,
                 params: dict | None = None):
        if seq_len < 1:
            raise ShapeError("sequence length must be >= 1")
        h, d = spec.units, dim
        super().__init__(spec, seq_len, dim, h, {
            "wx": ((d, 4 * h), (d, h)), "wh": ((h, 4 * h), (h, h)), "b": ((4 * h,), None),
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
        # Training keeps only the (h, c) entering each segment, from which the
        # backward pass recomputes the segment's steps; inference keeps nothing,
        # and a backward pass after it first recomputes those checkpoints.
        h, checkpoints = self._run(X, mask_h, keep=training)
        pre2, h1 = self._head(h)
        cache = {"X": X,  # after the input dropout
                 "checkpoints": checkpoints, "features": h, "h1": h1, "pre2": pre2,
                 "mask_h": mask_h}
        return _relu(pre2)[:, 0], cache

    def _segments(self) -> list[range]:
        """The steps cut into runs of isqrt(seq_len), the last one maybe shorter."""
        span = math.isqrt(self.seq_len)
        return [range(start, min(start + span, self.seq_len))
                for start in range(0, self.seq_len, span)]

    def _run(self, X, mask_h, keep: bool):
        """Runs the recurrence over every step. Returns the final hidden state
        and, if `keep`, the (h, c) entering each of `_segments` (else None)."""
        state = (np.zeros((X.shape[0], self.spec.units)),) * 2
        checkpoints = [] if keep else None
        for segment in self._segments():
            if keep:
                checkpoints.append(state)
            for h, (*_, c) in self._steps(X, mask_h, state, segment):
                pass
            state = (h, c)
        return state[0], checkpoints

    def _steps(self, X, mask_h, state, segment):
        """Runs the recurrence over the steps of `segment` from `state`, the
        (h, c) entering the first of them, yielding each step's hidden state
        and the five arrays its backward pass keeps: the gates (gi, gf, gg, go)
        and the cell state c. `backward` recomputes the rest from them."""
        p = self.params
        h_units = self.spec.units
        h, c = state
        for t in segment:
            a = X.dot(p["wx"], t) + (h * mask_h) @ p["wh"] + p["b"]
            gi = _sigmoid(a[:, :h_units])
            gf = _sigmoid(a[:, h_units : 2 * h_units])
            gg = np.tanh(a[:, 2 * h_units : 3 * h_units])
            go = _sigmoid(a[:, 3 * h_units :])
            c = gf * c + gi * gg
            h = go * np.tanh(c)
            yield h, (gi, gf, gg, go, c)

    def backward(self, cache, dout):
        """Gradients of every parameter. The segments run in reverse, and each
        one's step arrays are recomputed from its checkpoint by `_steps`, then
        freed before the next, so at most one segment's steps are alive. Each
        step's tanh(c), c_prev (the step before's c) and masked input state
        hd = (go₋₁·tanh(c₋₁))·mask_h are recomputed from the five kept arrays,
        or the checkpoint at a segment's first step, by the forward pass's own
        operations, so they are the same floats."""
        p = self.params
        h_units = self.spec.units
        X, mask_h, checkpoints = cache["X"], cache["mask_h"], cache["checkpoints"]
        if checkpoints is None:
            _, checkpoints = self._run(X, mask_h, keep=True)
        pre2 = cache["pre2"][:, 0]
        grads = {"wx": self._input_grad(X), "wh": np.zeros_like(p["wh"]),
                 "b": np.zeros_like(p["b"])}
        dh = self._head_backward(cache, dout * (pre2 > 0), grads)  # the output ReLU's mask
        dc = np.zeros((pre2.shape[0], h_units))
        tanh_c = None  # of the step after the segment's last, carried back
        for segment, (h0, c0) in zip(reversed(self._segments()), reversed(checkpoints)):
            steps = [step for _, step in self._steps(X, mask_h, (h0, c0), segment)]
            if tanh_c is None:
                tanh_c = np.tanh(steps[-1][4])
            for i in reversed(range(len(segment))):
                gi, gf, gg, go, _ = steps[i]
                if i:
                    go_prev, c_prev = steps[i - 1][3:]
                    tanh_c_prev = np.tanh(c_prev)
                    hd = (go_prev * tanh_c_prev) * mask_h
                else:  # h0 is go₋₁·tanh(c₋₁), or zeros before the first step
                    c_prev, tanh_c_prev, hd = c0, np.tanh(c0), h0 * mask_h
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
                X.add_tdot(grads["wx"], da, segment[i])
                grads["wh"] += hd.T @ da
                grads["b"] += da.sum(axis=0)
                dh = (da @ p["wh"].T) * mask_h
                dc = dc * gf
                tanh_c = tanh_c_prev
            del steps  # before the next segment's are recomputed
        return grads


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class Adam:
    def __init__(self, params: dict, learning_rate: float, parts: dict | None = None):
        """`parts` maps a parameter to the index of the part of it that the
        gradients cover and `step` updates (default: all of it); `m` and `v`
        hold that part only. Adam leaves the rest where it is, as it would a
        part whose gradient is zero at every step: m = v = 0, so its update is
        0 / (0 + ε)."""
        self.learning_rate = learning_rate
        self.parts = dict.fromkeys(params, slice(None)) | (parts or {})
        self.m = {k: np.zeros(v[self.parts[k]].shape) for k, v in params.items()}
        self.v = {k: np.zeros_like(m) for k, m in self.m.items()}
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
            param[self.parts[key]] -= update  # in place for a slice, written back for rows


def _dataset_loss(model, X, y, batch_size: int) -> float:
    # forward passes of batch_size rows, as in training: a row's output can
    # differ in its last bits with the number of rows beside it in a product
    pred = model._by_batch(X, lambda out, cache: out, batch_size)
    total = 0.0
    for start in range(0, y.shape[0], batch_size):
        diff = pred[start : start + batch_size] - y[start : start + batch_size]
        total += float(np.sum(diff * diff))
    return total / y.shape[0]


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
    and `X_val` are (N, L, d) arrays or TokenSequences.

    Only the input layer's rows that `X_train` reads get a gradient, Adam state
    and a best copy; the rest keep their initial values, as dense Adam would."""
    y_train = np.asarray(y_train, dtype=np.float64)
    y_val = np.asarray(y_val, dtype=np.float64)
    if X_train.shape[0] == 0 or X_val.shape[0] == 0:
        raise TrainingError("train and validation splits must be non-empty")
    X_train = _checked_input(model, X_train).touched()
    parts = model.trained_parts(X_train.grad_rows)
    rng = np.random.default_rng(cfg.seed)
    adam = Adam(model.params, cfg.learning_rate, parts)
    history = TrainingHistory()
    best_val = np.inf
    best_params = {name: arr[parts[name]].copy() for name, arr in model.params.items()}
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
                np.copyto(best_params[name], arr[parts[name]])
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= cfg.patience:
                break
    for name, arr in model.params.items():
        arr[parts[name]] = best_params[name]
    return history
