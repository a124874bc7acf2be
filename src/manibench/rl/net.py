"""Dense MLP with hand-written backprop, orthogonal init, and Adam.

Everything is float64 numpy: gradient checks against central finite
differences are crisp and training runs are bit-reproducible.
"""
from __future__ import annotations

import numpy as np

HIDDEN_WIDTHS = (1024, 1024, 512, 512)


def orthogonal(rng: np.random.Generator, shape, gain: float = 1.0) -> np.ndarray:
    a = rng.standard_normal(shape)
    rows, cols = shape
    flat = a if rows >= cols else a.T
    q, r = np.linalg.qr(flat)
    q *= np.sign(np.diag(r))  # deterministic sign convention
    if rows < cols:
        q = q.T
    return np.ascontiguousarray(gain * q[:rows, :cols])


def init_mlp(widths, rng: np.random.Generator, head_gain: float) -> Mlp:
    """Orthogonal init, layer by layer from the input: gain sqrt(2) on the
    tanh layers, `head_gain` on the linear head, zero biases."""
    if len(widths) < 2:
        raise ValueError("need at least input and output widths")
    n_layers = len(widths) - 1
    weights, biases = [], []
    for i in range(n_layers):
        gain = head_gain if i == n_layers - 1 else np.sqrt(2.0)
        weights.append(orthogonal(rng, (widths[i], widths[i + 1]), gain))
        biases.append(np.zeros(widths[i + 1]))
    return Mlp(weights, biases)


class Mlp:
    """widths[0] -> tanh hidden layers -> linear widths[-1].

    Holds the given (in, out) weight and (out,) bias arrays without copying
    them; `widths` follows from their shapes. `init_mlp` builds a fresh one.
    """

    def __init__(self, weights, biases):
        self.weights = list(weights)
        self.biases = list(biases)
        self.widths = (self.weights[0].shape[0],) + tuple(w.shape[1] for w in self.weights)

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    def parameters(self):
        out = []
        for w, b in zip(self.weights, self.biases):
            out.extend([w, b])
        return out

    def forward(self, x: np.ndarray) -> np.ndarray:
        y, _ = self.forward_cached(x, need_cache=False)
        return y

    def forward_cached(self, x: np.ndarray, need_cache: bool = True):
        x = np.asarray(x, dtype=np.float64)
        squeeze = x.ndim == 1
        h = x[None, :] if squeeze else x
        if h.shape[1] != self.widths[0]:
            raise ValueError(f"input width {h.shape[1]} != {self.widths[0]}")
        activations = [h] if need_cache else None
        for i in range(self.n_layers - 1):
            h = np.tanh(h @ self.weights[i] + self.biases[i])
            if need_cache:
                activations.append(h)
        y = h @ self.weights[-1] + self.biases[-1]
        if squeeze:
            y = y[0]
        return y, activations

    def backward(self, activations, dy: np.ndarray):
        """Gradients of sum(loss) given d loss / d output; returns
        ([dW0, db0, dW1, db1, ...], dx)."""
        dy = np.asarray(dy, dtype=np.float64)
        if dy.ndim == 1:
            dy = dy[None, :]
        grads = [None] * (2 * self.n_layers)
        dh = dy
        for i in range(self.n_layers - 1, -1, -1):
            h_in = activations[i]
            grads[2 * i] = h_in.T @ dh
            grads[2 * i + 1] = dh.sum(axis=0)
            dh = dh @ self.weights[i].T
            if i > 0:
                dh = dh * (1.0 - activations[i] * activations[i])  # tanh'
        return grads, dh


class Adam:
    """Adaptive moment estimation over a flat list of parameter arrays."""

    def __init__(self, params, lr: float, betas=(0.9, 0.999), eps: float = 1e-8):
        self.params = list(params)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.m = [np.zeros_like(p) for p in self.params]
        self.v = [np.zeros_like(p) for p in self.params]
        self.t = 0

    def step(self, grads):
        if len(grads) != len(self.params):
            raise ValueError("gradient list length mismatch")
        self.t += 1
        b1t = 1.0 - self.beta1 ** self.t
        b2t = 1.0 - self.beta2 ** self.t
        for p, g, m, v in zip(self.params, grads, self.m, self.v):
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            p -= self.lr * (m / b1t) / (np.sqrt(v / b2t) + self.eps)


def clip_gradients(grads, max_norm: float) -> float:
    """Scale the whole gradient list to a global norm cap; returns the norm."""
    total = np.sqrt(sum(float((g * g).sum()) for g in grads))
    if total > max_norm and total > 0.0:
        scale = max_norm / total
        for g in grads:
            g *= scale
    return total
