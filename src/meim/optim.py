"""Adam with bias correction."""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, ShapeError
from .tensor import Tensor

_CHUNK = 32768  # elements per chunk of the Adam update: 256 KiB per array
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # the moment decay rates and denominator guard


class Adam:
    """Adam over named parameters; moments live per parameter name.

    Updates are applied in place on the leaf tensors, which the training
    loop owns exclusively between forward passes.
    """

    def __init__(self):
        self.t = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}

    def step(self, named_params: list[tuple[str, Tensor]], grads: list[np.ndarray], lr: float):
        if not 0.0 < lr < np.inf:  # False for NaN
            raise ConfigError(f"learning rate must be finite and positive, got {lr}")
        if len(named_params) != len(grads):
            raise ShapeError(f"{len(named_params)} parameters but {len(grads)} gradients")
        self.t += 1
        for (name, p), g in zip(named_params, grads):
            if g.shape != p.data.shape:
                raise ShapeError(
                    f"gradient shape {g.shape} does not match parameter {name!r} shape {p.data.shape}"
                )
            for moments in (self.m, self.v):
                if name not in moments:  # not setdefault: its default is built on every call
                    moments[name] = np.zeros_like(p.data)
            self._update(g, self.m[name], self.v[name], p.data, lr)

    def _update(self, g, m, v, p, lr: float):
        """The textbook update in the same arithmetic order, so bitwise equal to it.

        It runs in place over cache-sized chunks of the flattened arrays, on
        two chunk-sized scratch buffers: no parameter-sized temporary is made,
        and each chunk stays in cache across the dozen passes over it. Chunks
        follow memory order, so a table stored in its gradient's order
        (`model.entity_minor`) and its moments, made in the table's, stream
        contiguously; an operand in another order goes through nditer's buffer.
        """
        a = np.empty(_CHUNK)
        b = np.empty(_CHUNK)
        with np.nditer([g, m, v, p], flags=["external_loop", "buffered", "zerosize_ok"],
                       op_flags=[["readonly"], ["readwrite"], ["readwrite"], ["readwrite"]],
                       buffersize=_CHUNK) as chunks:
            for gc, mc, vc, pc in chunks:
                ac, bc = a[:gc.size], b[:gc.size]
                np.subtract(gc, mc, out=ac)
                ac *= 1.0 - BETA1
                mc += ac  # m += (1 - beta1) * (g - m)
                np.multiply(gc, gc, out=ac)
                ac -= vc
                ac *= 1.0 - BETA2
                vc += ac  # v += (1 - beta2) * (g * g - v)
                np.divide(vc, 1.0 - BETA2**self.t, out=bc)
                np.sqrt(bc, out=bc)
                bc += EPS  # sqrt(v_hat) + eps
                np.divide(mc, 1.0 - BETA1**self.t, out=ac)
                ac *= lr
                ac /= bc
                pc -= ac  # p -= lr * m_hat / (sqrt(v_hat) + eps)

    def state_arrays(self) -> dict[str, np.ndarray]:
        out = {}
        for name, arr in self.m.items():
            out[f"adam.m.{name}"] = arr
        for name, arr in self.v.items():
            out[f"adam.v.{name}"] = arr
        return out

    @classmethod
    def from_state_arrays(cls, arrays: dict[str, np.ndarray], t: int) -> "Adam":
        """The optimizer after step t, with the moments of `state_arrays()`, taken as given."""
        adam = cls()
        adam.t = t
        adam.m = {k[len("adam.m."):]: np.asarray(v) for k, v in arrays.items() if k.startswith("adam.m.")}
        adam.v = {k[len("adam.v."):]: np.asarray(v) for k, v in arrays.items() if k.startswith("adam.v.")}
        return adam
