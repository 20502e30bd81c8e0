"""T2 — discrepancy correction (§3.2).

During backward, PipeMare no longer has the forward weights ``u_fwd`` in
memory.  T2 approximates them by extrapolating backwards along the recent
weight trajectory:

    ``u_bkwd,i = w_i − (τ_fwd,i − τ_bkwd,i) · δ_i``
    ``δ_{t+1,i} = γ_i δ_{t,i} + (1 − γ_i)(w_{t+1,i} − w_{t,i})``
    ``γ_i = D^{1/(τ_fwd,i − τ_bkwd,i)}``

with the global decay ``D`` defaulting near ``e^{−2} ≈ 0.135``, the value
for which the second-order Taylor expansion of the corrected system's
characteristic polynomial at ω=1 is independent of the discrepancy
sensitivity Δ (Appendix B.5).

Memory cost: one extra buffer the size of the weights — the footnote-2
"+33% for SGD / +25% for Adam" optimizer-state increase.

:func:`extrapolate` is the one place the expression ``w − Δτ·δ`` is
written; the pipeline's wave executors call it with ``out=`` into scratch
they keep (see :class:`repro.pipeline.plan.StepWeightCache`).
"""

from __future__ import annotations

import numpy as np

from repro.nn.module import Parameter

PAPER_DEFAULT_DECAY = float(np.exp(-2.0))  # ≈ 0.1353


def extrapolate(
    w: np.ndarray, v: np.ndarray, dtau: float, out: np.ndarray | None = None
) -> np.ndarray:
    """``w − Δτ·v``, written into ``out`` (a fresh array when ``None``).

    Bit-identical to the expression ``w - dtau * v`` — the same two ufuncs
    in the same order — but through one buffer instead of two temporaries,
    and through none when the caller keeps ``out`` across calls.  ``w`` and
    ``v`` share shape and dtype (δ is allocated ``zeros_like`` the weights);
    ``w`` may be a read-only mirror view, ``out`` must not alias it.
    """
    if out is None:
        out = np.empty_like(w)
    np.multiply(v, dtau, out=out)
    return np.subtract(w, out, out=out)


class DiscrepancyCorrector:
    """Maintains per-stage velocity EWMAs and produces corrected backward
    weights.

    Parameters
    ----------
    stage_params:
        One list of Parameters per pipeline stage.
    tau_fwd, tau_bkwd:
        Per-stage delays in optimizer steps (floats; PipeMare has
        ``τ_bkwd = 0``).  Stages with ``τ_fwd − τ_bkwd <= 0`` get no
        correction (γ undefined there).
    decay:
        The global hyperparameter D.
    """

    def __init__(
        self,
        stage_params: list[list[Parameter]],
        tau_fwd: list[float] | np.ndarray,
        tau_bkwd: list[float] | np.ndarray,
        decay: float = PAPER_DEFAULT_DECAY,
    ):
        if not 0.0 <= decay < 1.0:
            raise ValueError(f"decay D must be in [0, 1), got {decay}")
        tau_fwd = np.asarray(tau_fwd, dtype=float)
        tau_bkwd = np.asarray(tau_bkwd, dtype=float)
        if not (len(stage_params) == len(tau_fwd) == len(tau_bkwd)):
            raise ValueError("stage_params, tau_fwd, tau_bkwd must align")
        if np.any(tau_bkwd > tau_fwd):
            raise ValueError("tau_bkwd must not exceed tau_fwd")
        self.stage_params = stage_params
        self.dtau = tau_fwd - tau_bkwd
        self.decay = decay
        # γ_i = D^{1/Δτ_i}; Δτ→0 ⇒ no correction needed for that stage.
        with np.errstate(divide="ignore", over="ignore"):
            self.gamma = np.where(self.dtau > 0, decay ** (1.0 / np.maximum(self.dtau, 1e-12)), 0.0)
        self.velocity: list[list[np.ndarray]] = [
            [np.zeros_like(p.data) for p in params] for params in stage_params
        ]

    @property
    def num_stages(self) -> int:
        return len(self.stage_params)

    def corrected_weights(self, stage: int) -> list[np.ndarray]:
        """``w − Δτ·δ`` for every parameter of ``stage`` at the live
        ``Parameter.data`` — the reference form of the extrapolation.  The
        pipeline backends resolve the base weights from the version store
        instead (live parameters point at whatever version a worker loaded
        last) and extrapolate through their own step cache."""
        weights = [p.data for p in self.stage_params[stage]]
        dtau = self.dtau[stage]
        if dtau <= 0:
            return weights
        return [extrapolate(w, v, dtau) for w, v in zip(weights, self.velocity[stage])]

    def update(self, stage: int, old_weights: list[np.ndarray]) -> None:
        """Fold the step just taken (``w_new − w_old``) into the EWMA."""
        self.update_arrays(
            stage, old_weights, [p.data for p in self.stage_params[stage]]
        )

    def update_all(self, old_weights_per_stage: list[list[np.ndarray]]) -> None:
        for stage, old in enumerate(old_weights_per_stage):
            self.update(stage, old)

    def update_arrays(
        self, stage: int, old_weights: list[np.ndarray], new_weights: list[np.ndarray]
    ) -> None:
        """:meth:`update` with the post-step weights passed explicitly
        instead of read from ``Parameter.data`` — the overlapped optimizer
        boundary computes the step detached from the live parameters (which
        the next minibatch's workers are already re-pointing)."""
        g = self.gamma[stage]
        if self.dtau[stage] <= 0:
            return
        for v, old, new in zip(self.velocity[stage], old_weights, new_weights):
            v *= g
            # (1 − γ)(new − old) through one temporary, not two.
            step = np.empty_like(v)
            np.subtract(new, old, out=step)
            np.multiply(step, 1.0 - g, out=step)
            v += step

    def update_all_arrays(
        self,
        old_per_stage: list[list[np.ndarray]],
        new_per_stage: list[list[np.ndarray]],
    ) -> None:
        for stage, (old, new) in enumerate(zip(old_per_stage, new_per_stage)):
            self.update_arrays(stage, old, new)

    def memory_elements(self) -> int:
        """Extra scalar storage: exactly one weight-sized buffer."""
        return sum(v.size for stage in self.velocity for v in stage)

    def state_dict(self) -> dict:
        """Snapshot of the velocity buffers (per stage, per parameter)."""
        return {
            "velocity": [[v.copy() for v in stage] for stage in self.velocity],
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore velocity buffers; shapes must match the current stages."""
        velocity = state["velocity"]
        if len(velocity) != len(self.velocity):
            raise ValueError(
                f"checkpoint has {len(velocity)} stages, corrector has "
                f"{len(self.velocity)}"
            )
        for s, (ours, theirs) in enumerate(zip(self.velocity, velocity)):
            if len(ours) != len(theirs):
                raise ValueError(f"stage {s}: parameter count mismatch")
            for v, saved in zip(ours, theirs):
                saved = np.asarray(saved)
                if v.shape != saved.shape:
                    raise ValueError(
                        f"stage {s}: velocity shape {saved.shape} != {v.shape}"
                    )
                v[...] = saved
