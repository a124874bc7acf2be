"""Dense MLP with hand-written backprop, orthogonal init, and Adam.

Everything is float64 numpy: gradient checks against central finite
differences are crisp and training runs are bit-reproducible.
"""
from __future__ import annotations

import numpy as np

HIDDEN_WIDTHS = (1024, 1024, 512, 512)
# elements per slice of an Adam step: bounds its temporaries at 256 KB each
_ADAM_BLOCK = 1 << 15


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
        ([dW0, db0, dW1, db1, ...], dx).

        Consumes `activations`, the cache of `forward_cached`: each entry is
        set to None once its layer is done, so an activation is freed as soon
        as it has been used. Run `forward_cached` again before another
        `backward`.
        """
        dy = np.asarray(dy, dtype=np.float64)
        if dy.ndim == 1:
            dy = dy[None, :]
        grads = [None] * (2 * self.n_layers)
        dh = dy
        for i in range(self.n_layers - 1, -1, -1):
            h_in = activations[i]
            activations[i] = None
            grads[2 * i] = h_in.T @ dh
            grads[2 * i + 1] = dh.sum(axis=0)
            dh = dh @ self.weights[i].T
            if i > 0:
                dh *= 1.0 - h_in * h_in  # tanh'
        return grads, dh


class Adam:
    """Adaptive moment estimation over a flat list of parameter arrays."""

    def __init__(self, params, lr: float, betas=(0.9, 0.999), eps: float = 1e-8):
        self.params = list(params)
        if not all(p.flags.c_contiguous for p in self.params):
            raise ValueError("Adam steps C-contiguous parameter arrays in place")
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.m = [np.zeros_like(p) for p in self.params]
        self.v = [np.zeros_like(p) for p in self.params]
        self.t = 0

    def step(self, grads):
        """One update of every parameter, in place.

        Each parameter is walked in slices of `_ADAM_BLOCK` elements of its
        flattened view, so the temporaries stay block-sized however large the
        array; every element sees the same float operations as a whole-array
        update, so the results are bit-identical to one.
        """
        if len(grads) != len(self.params):
            raise ValueError("gradient list length mismatch")
        self.t += 1
        b1t = 1.0 - self.beta1 ** self.t
        b2t = 1.0 - self.beta2 ** self.t
        for arrays in zip(self.params, grads, self.m, self.v):
            p, g, m, v = (a.reshape(-1) for a in arrays)
            for start in range(0, p.size, _ADAM_BLOCK):
                block = slice(start, start + _ADAM_BLOCK)
                pb, gb, mb, vb = p[block], g[block], m[block], v[block]
                mb *= self.beta1
                mb += (1.0 - self.beta1) * gb
                vb *= self.beta2
                vb += (1.0 - self.beta2) * (gb * gb)
                pb -= self.lr * (mb / b1t) / (np.sqrt(vb / b2t) + self.eps)


def clip_gradients(grads, max_norm: float) -> float:
    """Scale the whole gradient list to a global norm cap; returns the norm."""
    total = np.sqrt(sum(float((g * g).sum()) for g in grads))
    if total > max_norm and total > 0.0:
        scale = max_norm / total
        for g in grads:
            g *= scale
    return total
