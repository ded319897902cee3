"""Synthetic bivariate scenarios for benchmarking one-class classifiers.

Nine settings, all rooted in one base model: a bivariate Gaussian with unit
marginals and correlation 0.35.

  a-d  shifted non-targets: the base Gaussian (a), its componentwise square
       (b), the square root of its absolute value (c), and the log of its
       absolute value (d). Non-targets run through the same transform after
       shifting the base mean by lambda in both coordinates.
  e-h  the same four target shapes, but non-targets are uniform in a box
       centered at the target medians, reaching box_scale * IQR from the
       center in each dimension.
  i    banana-shaped arcs: noisy points (sd 0.8) on a radius-5 circle
       segment 0.9 pi wide; the non-target arc is 0.6 pi wide and its
       center sits one unit lower.

Generation is a pure function of the spec (including its stream): the same
spec reproduces the same samples bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .numcore import (NONTARGET_LABEL, TARGET_LABEL, DataMatrix, RngStream)

SCENARIOS = tuple("abcdefghi")

_BASE_COV = np.array([[1.0, 0.35], [0.35, 1.0]])
_LOG_GUARD = 1e-12


@dataclass(frozen=True)
class ScenarioSpec:
    """Parameters of one synthetic setting.

    n_nontarget defaults to half the target size. lam is the non-centrality
    shift for scenarios a-d; box_scale sizes the uniform box for e-h.
    """

    id: str
    n_target: int
    rng: RngStream
    n_nontarget: int | None = None
    lam: float = 1.0
    box_scale: float = 3.0

    def __post_init__(self):
        if self.id not in SCENARIOS:
            raise ValueError(f"unknown scenario '{self.id}' (expected one of {SCENARIOS})")
        if self.n_target < 1:
            raise ValueError("n_target must be positive")
        if self.n_nontarget is not None and self.n_nontarget < 1:
            raise ValueError("n_nontarget must be positive")
        if not (math.isfinite(self.box_scale) and self.box_scale > 0):
            raise ValueError(f"box_scale={self.box_scale!r} must be a finite "
                             f"number > 0")
        if not math.isfinite(self.lam):
            raise ValueError(f"lam={self.lam!r} must be a finite number")

    @property
    def nontarget_size(self) -> int:
        return self.n_nontarget if self.n_nontarget is not None else self.n_target // 2

    def with_stream(self, rng: RngStream) -> "ScenarioSpec":
        return replace(self, rng=rng)


@dataclass
class SamplePair:
    target: DataMatrix
    nontarget: DataMatrix


def _base_draw(gen, n, mean):
    return gen.multivariate_normal(mean, _BASE_COV, size=n, method="cholesky")


def _draw_transformed(gen, n, mean, transform):
    if transform == "identity":
        return _base_draw(gen, n, mean)
    if transform == "square":
        return _base_draw(gen, n, mean) ** 2
    if transform == "sqrt_abs":
        return np.sqrt(np.abs(_base_draw(gen, n, mean)))
    # log|.| blows up at zero, so the (measure-zero) near-zero draws are
    # redrawn rather than clipped.
    draws = _base_draw(gen, n, mean)
    for _ in range(100):
        bad = np.any(np.abs(draws) < _LOG_GUARD, axis=1)
        if not bad.any():
            break
        draws[bad] = _base_draw(gen, int(bad.sum()), mean)
    return np.log(np.abs(draws))


_TRANSFORMS = {"a": "identity", "b": "square", "c": "sqrt_abs", "d": "log_abs",
               "e": "identity", "f": "square", "g": "sqrt_abs", "h": "log_abs"}


def generate(spec: ScenarioSpec) -> SamplePair:
    """Draw one target/non-target sample pair for the scenario.

    For a-d the non-target mean shift lambda is applied to the base Gaussian
    before the nonlinear transform; for e-h non-targets are uniform in the
    IQR-scaled box around the target medians; for i both classes are noisy
    circle arcs of different widths.
    """
    gen = spec.rng.generator()
    n_t, n_nt = spec.n_target, spec.nontarget_size

    if spec.id == "i":
        target = _banana(gen, n_t, 0.9 * math.pi, (0.0, 0.0))
        nontarget = _banana(gen, n_nt, 0.6 * math.pi, (0.0, -1.0))
    else:
        transform = _TRANSFORMS[spec.id]
        target = _draw_transformed(gen, n_t, np.zeros(2), transform)
        if spec.id in "abcd":
            shifted_mean = np.full(2, spec.lam)
            nontarget = _draw_transformed(gen, n_nt, shifted_mean, transform)
        else:
            # The box reaches box_scale * IQR from the target medians in each
            # direction; a tighter reading (total side = box_scale * IQR)
            # drowns the box in the target mass and contradicts the reported
            # specificity levels these scenarios are meant to exhibit.
            med = np.median(target, axis=0)
            iqr = np.percentile(target, 75, axis=0) - np.percentile(target, 25, axis=0)
            half = spec.box_scale * iqr
            nontarget = gen.uniform(med - half, med + half, size=(n_nt, 2))

    names = ["x1", "x2"]
    return SamplePair(
        DataMatrix(target, names, [TARGET_LABEL] * n_t),
        DataMatrix(nontarget, names, [NONTARGET_LABEL] * n_nt))


def _banana(gen, n, width, center):
    angles = gen.uniform(-width / 2.0, width / 2.0, size=n)
    points = 5.0 * np.column_stack([np.sin(angles), np.cos(angles)])
    points += np.asarray(center, dtype=float)
    return points + gen.normal(0.0, 0.8, size=(n, 2))
