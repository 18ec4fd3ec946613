"""Composite integrands of the form base(y) + factor(t) * modulation(y)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .catalog import ShapeFunction, TimeFactor, time_factor
from .errors import SchemaError


@dataclass(frozen=True, eq=False)
class IntegrandFamily:
    """One integrand slice family: value(t, y) = base(y) + factor(t) * modulation(y)."""

    base: ShapeFunction
    modulation: ShapeFunction | None = None
    factor: TimeFactor | None = None

    def __post_init__(self):
        if self.modulation is not None and self.factor is None:
            object.__setattr__(self, "factor", time_factor("const", {"value": 1.0}))
        if self.modulation is None and self.factor is not None:
            raise SchemaError("time factor given without a modulation shape")

    @property
    def autonomous(self) -> bool:
        return self.modulation is None or self.factor.constant

    def value(self, t, y) -> np.ndarray:
        """base(y) + factor(t) * modulation(y), broadcast over t and y; an
        array of times gives each entry the bits of a call at its time alone."""
        out = self.base(y)
        if self.modulation is not None:
            out = out + self.factor(t) * self.modulation(y)
        return out

    def time_rate(self, t, y) -> np.ndarray:
        """The time derivative of ``value``, ``factor.rate(t) * modulation(y)``,
        broadcast over t and y; exactly 0.0 when the family is autonomous."""
        if self.autonomous:
            return np.zeros(np.broadcast_shapes(np.shape(t), np.shape(y)))
        return self.factor.rate(np.asarray(t, dtype=float)) * self.modulation(y)

    def envelope_rate(self, t, split) -> np.ndarray:
        """The time derivative of the envelope at each row of ``split``, a
        splitting at times ``t``: by the envelope theorem the weighted sum
        of ``time_rate`` at the row's support points."""
        rates = self.time_rate(np.asarray(t, dtype=float)[:, None], split.points)
        return np.sum(split.weights * rates, axis=1)

    def table(self, times: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``value(t, y)`` with one row per distinct time of ``times``, or a
        single row when the family is autonomous, and each time's row.  The
        rows keep ``value``'s bits: base and modulation are evaluated once,
        the factor per row."""
        times = np.atleast_1d(np.asarray(times, dtype=float))
        if self.autonomous:
            keys, rows = times[:1], np.zeros(times.size, dtype=np.intp)
        else:
            keys, rows = np.unique(times, return_inverse=True)
        out = self.base(y)
        if self.modulation is None:
            return np.tile(out, (keys.size, 1)), rows
        factors = np.array([float(self.factor(t)) for t in keys])
        return out + factors[:, None] * self.modulation(y), rows
