"""Dense MLP with hand-written backprop, orthogonal init, and Adam.

Everything is float64 numpy: gradient checks against central finite
differences are crisp and training runs are bit-reproducible. A training
step writes its activations and gradients into a `Workspace` with `out=`
arguments, so repeated steps reuse the same memory; every float operation,
and so every bit, is the one the allocating expressions give.
"""
from __future__ import annotations

import math

import numpy as np

HIDDEN_WIDTHS = (1024, 1024, 512, 512)
# elements per slice of an Adam step: bounds its scratch arrays at 256 KB each
_ADAM_BLOCK = 1 << 15
_ADAM_BETA1, _ADAM_BETA2, _ADAM_EPS = 0.9, 0.999, 1e-8


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


def _views(flat: np.ndarray, shapes) -> list:
    """Consecutive C-contiguous views of `flat`, one per shape."""
    views, start = [], 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(flat[start:start + size].reshape(shape))
        start += size
    return views


class Workspace:
    """The arrays of one training step of any of `nets` at up to `batch` rows.

    Three float64 regions, shared by nets whose steps do not interleave (one
    net's backward ends before the next net's forward starts):
    - layer outputs: every layer's output of one `Mlp.forward_cached`, the
      activations `Mlp.backward` then consumes; once they are consumed,
      `clip_gradients` squares gradients there;
    - spare: batch x widest layer input, where the backward writes dh @ W.T;
    - gradients: one net's parameter gradients, shaped like its
      `parameters()`; they are overwritten by the next net's backward.
    The regions are three allocations: as one 33 MB buffer they raised the
    `ppo-train` benchmark's peak RSS by about 5 MB (179.3 against 173.4 MB).
    """

    def __init__(self, nets, batch: int):
        n_out = max(max(batch * sum(net.widths[1:]), max(p.size for p in net.parameters()))
                    for net in nets)
        n_spare = max(batch * max(net.widths[:-1]) for net in nets)
        n_grad = max(sum(p.size for p in net.parameters()) for net in nets)
        self.regions = (np.empty(n_out), np.empty(n_spare), np.empty(n_grad))

    def layer_outputs(self, net: Mlp, rows: int) -> list:
        return _views(self.regions[0], [(rows, w) for w in net.widths[1:]])

    def scratch(self, shape) -> np.ndarray:
        return _views(self.regions[0], [shape])[0]

    def spare(self, shape) -> np.ndarray:
        return _views(self.regions[1], [shape])[0]

    def gradients(self, net: Mlp) -> list:
        return _views(self.regions[2], [p.shape for p in net.parameters()])


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

    def _rows(self, x):
        """(x as a float64 batch of rows, whether x was a single row)."""
        x = np.asarray(x, dtype=np.float64)
        squeeze = x.ndim == 1
        h = x[None, :] if squeeze else x
        if h.shape[1] != self.widths[0]:
            raise ValueError(f"input width {h.shape[1]} != {self.widths[0]}")
        return h, squeeze

    def _layers(self, h: np.ndarray, outputs) -> np.ndarray:
        """Run every layer on the rows h, writing layer i's output into
        outputs[i]; returns the last."""
        for i, z in enumerate(outputs):
            np.matmul(h, self.weights[i], out=z)
            z += self.biases[i]
            if i < self.n_layers - 1:
                np.tanh(z, out=z)
            h = z
        return h

    def forward(self, x: np.ndarray) -> np.ndarray:
        h, squeeze = self._rows(x)
        y = self._layers(h, [np.empty((len(h), w)) for w in self.widths[1:]])
        return y[0] if squeeze else y

    def forward_cached(self, x: np.ndarray, *, workspace: Workspace | None = None):
        """(output, activations): `forward`'s output, bit for bit, and the
        input of every layer, the cache `backward` takes.

        Each layer's output is written into `workspace`'s layer-output
        region, or into a `Workspace` made for this call when none is given;
        the output and the cache are views of it, valid until the workspace's
        next forward.
        """
        h, squeeze = self._rows(x)
        if workspace is None:
            workspace = Workspace((self,), len(h))
        outputs = workspace.layer_outputs(self, len(h))
        activations = [h] + outputs[:-1]
        y = self._layers(h, outputs)
        return (y[0] if squeeze else y), activations

    def backward(self, activations, dy: np.ndarray, *, workspace: Workspace | None = None):
        """Gradients of sum(loss) given d loss / d output; returns
        ([dW0, db0, dW1, db1, ...], dx).

        Consumes `activations`, the cache of `forward_cached`: each entry is
        set to None once its layer is done, and each hidden activation is
        overwritten in place, first with tanh' = 1 - h * h and then with the
        next layer's dh. Run `forward_cached` again before another
        `backward`. The gradients go to `workspace`'s gradient region and
        dh @ W.T to its spare region (a `Workspace` made for this call when
        none is given); the float operations are those of the out-of-place
        loop, as (1 - h * h) * x and x * (1 - h * h) are the same IEEE
        product.
        """
        dy = np.asarray(dy, dtype=np.float64)
        if dy.ndim == 1:
            dy = dy[None, :]
        if workspace is None:
            workspace = Workspace((self,), len(dy))
        grads = workspace.gradients(self)
        dh = dy
        for i in range(self.n_layers - 1, -1, -1):
            h_in = activations[i]
            activations[i] = None
            np.matmul(h_in.T, dh, out=grads[2 * i])
            np.sum(dh, axis=0, out=grads[2 * i + 1])
            dh_in = np.matmul(dh, self.weights[i].T, out=workspace.spare(h_in.shape))
            if i > 0:  # tanh', in the consumed activation
                np.multiply(h_in, h_in, out=h_in)
                np.subtract(1.0, h_in, out=h_in)
                dh_in = np.multiply(h_in, dh_in, out=h_in)
            dh = dh_in
        return grads, dh


class Adam:
    """Adaptive moment estimation over a flat list of parameter arrays."""

    def __init__(self, params, lr: float):
        self.params = list(params)
        if not all(p.flags.c_contiguous for p in self.params):
            raise ValueError("Adam steps C-contiguous parameter arrays in place")
        self.lr = lr
        self.m = [np.zeros_like(p) for p in self.params]
        self.v = [np.zeros_like(p) for p in self.params]
        self.t = 0
        self._scratch = (np.empty(_ADAM_BLOCK), np.empty(_ADAM_BLOCK))

    def step(self, grads):
        """One update of every parameter, in place.

        Each parameter is walked in slices of `_ADAM_BLOCK` elements of its
        flattened view, with the optimizer's two block-sized scratch arrays
        as the only temporaries; every element sees the same float operations
        as a whole-array update, so the results are bit-identical to one.
        """
        if len(grads) != len(self.params):
            raise ValueError("gradient list length mismatch")
        self.t += 1
        b1t = 1.0 - _ADAM_BETA1 ** self.t
        b2t = 1.0 - _ADAM_BETA2 ** self.t
        for arrays in zip(self.params, grads, self.m, self.v):
            p, g, m, v = (a.reshape(-1) for a in arrays)
            for start in range(0, p.size, _ADAM_BLOCK):
                block = slice(start, start + _ADAM_BLOCK)
                pb, gb, mb, vb = p[block], g[block], m[block], v[block]
                s, u = (a[:pb.size] for a in self._scratch)
                mb *= _ADAM_BETA1
                mb += np.multiply(gb, 1.0 - _ADAM_BETA1, out=s)
                vb *= _ADAM_BETA2
                np.multiply(gb, gb, out=s)
                vb += np.multiply(s, 1.0 - _ADAM_BETA2, out=s)
                np.divide(mb, b1t, out=s)
                np.multiply(s, self.lr, out=s)
                np.divide(vb, b2t, out=u)
                np.sqrt(u, out=u)
                u += _ADAM_EPS
                pb -= np.divide(s, u, out=s)


def clip_gradients(grads, max_norm: float, *, workspace: Workspace | None = None) -> float:
    """Scale the whole gradient list to a global norm cap; returns the norm.

    Each g * g is formed whole, in `workspace`'s consumed layer outputs when
    one is given, so its pairwise sum has the same bits either way.
    """
    def square(g):
        return np.multiply(g, g, out=None if workspace is None else workspace.scratch(g.shape))

    total = np.sqrt(sum(float(square(g).sum()) for g in grads))
    if total > max_norm and total > 0.0:
        scale = max_norm / total
        for g in grads:
            g *= scale
    return total
