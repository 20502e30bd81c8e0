"""SGD with momentum and (coupled) L2 weight decay — the ResNet optimizer
(Table 6: momentum 0.9, l2 5e-4 / 1e-4)."""

from __future__ import annotations

import numpy as np

from repro.nn.module import Parameter
from repro.optim.optimizer import Optimizer


class SGD(Optimizer):
    """``v ← βv + (g + wd·w); w ← w − αv`` (PyTorch-style momentum)."""

    def __init__(self, params, lr: float, momentum: float = 0.0, weight_decay: float = 0.0):
        super().__init__(params, lr)
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        if weight_decay < 0:
            raise ValueError(f"weight_decay must be non-negative, got {weight_decay}")
        self.momentum = momentum
        self.weight_decay = weight_decay

    def _init_state(self, p: Parameter) -> dict[str, np.ndarray]:
        if self.momentum == 0.0:
            return {}
        return {"velocity": np.zeros_like(p.data)}

    def _update_param(self, p: Parameter, lr: float, state: dict[str, np.ndarray]) -> None:
        g = p.grad
        if self.weight_decay:
            g = g + self.weight_decay * p.data
        if self.momentum:
            v = state["velocity"]
            v *= self.momentum
            v += g
            g = v
        # w − α·g as one fresh array (the version store keeps a reference
        # per version) written twice, instead of a temporary plus a result.
        new = np.empty_like(p.data)
        np.multiply(g, lr, out=new)
        p.data = np.subtract(p.data, new, out=new)
