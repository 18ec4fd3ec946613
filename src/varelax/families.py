"""Composite integrands of the form base(y) + factor(t) * modulation(y)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .catalog import ShapeFunction, TimeFactor, time_factor
from .errors import DegenerateInputError, SchemaError


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
        return self._formula(t, y)

    def _formula(self, t, y) -> np.ndarray:
        """The one formula behind ``value`` and ``table``."""
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
        of ``time_rate`` at the row's support points.  A rate beyond float
        range gives inf or NaN without a warning; its caller checks it."""
        with np.errstate(all="ignore"):
            rates = self.time_rate(np.asarray(t, dtype=float)[:, None], split.points)
            return np.sum(split.weights * rates, axis=1)

    def table(self, times: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``value(t, y)`` with one row per distinct time of ``times``, or a
        single row when the family is autonomous, and each time's row."""
        times = np.atleast_1d(np.asarray(times, dtype=float))
        if self.autonomous:
            keys, rows = times[:1], np.zeros(times.size, dtype=np.intp)
        else:
            keys, rows = np.unique(times, return_inverse=True)
        return self._formula(keys[:, None], y).reshape(keys.size, -1), rows

    def finite_table(self, times, y, name: str, where: str) -> tuple[np.ndarray, np.ndarray]:
        """``table(times, y)``; a sample that is not finite, an overflow
        included, is an input error naming the integrand and where it was."""
        with np.errstate(all="ignore"):
            values, rows = self.table(times, y)
        return _finite(values, name, where), rows

    def finite_value(self, t, y, name: str, where: str) -> np.ndarray:
        """``value(t, y)``, checked as ``finite_table`` checks its samples."""
        with np.errstate(all="ignore"):
            return _finite(self.value(t, y), name, where)


def _finite(values: np.ndarray, name: str, where: str) -> np.ndarray:
    if not np.isfinite(values).all():
        raise DegenerateInputError(f"{name} must be finite on {where}")
    return values
