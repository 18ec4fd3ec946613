"""Named building blocks for problem definitions.

A problem file composes integrands from this fixed catalog instead of an
expression language: every entry is deterministic, vectorized, and safe
to evaluate on probe grids.  ``table`` entries cover arbitrary sampled
shapes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import OutOfDomainError, SchemaError


@dataclass(frozen=True, eq=False)
class ShapeFunction:
    """Time-independent profile in the velocity or state variable."""

    name: str
    fn: Callable[[np.ndarray], np.ndarray]
    domain: tuple[float, float] | None = None  # only table entries are domain-limited

    def __call__(self, y) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        if self.domain is not None:
            lo, hi = self.domain
            tol = 1e-12 * max(1.0, abs(lo), abs(hi))
            if np.any(y < lo - tol) or np.any(y > hi + tol):
                raise OutOfDomainError(
                    f"table entry '{self.name}' evaluated outside [{lo}, {hi}]"
                )
            y = np.clip(y, lo, hi)
        return self.fn(y)


@dataclass(frozen=True, eq=False)
class TimeFactor:
    """Scalar factor of time and its derivative ``rate``, both on float arrays."""

    name: str
    fn: Callable[[np.ndarray], np.ndarray]
    rate: Callable[[np.ndarray], np.ndarray]
    constant: bool = False

    def __call__(self, t) -> np.ndarray:
        return self.fn(np.asarray(t, dtype=float))


# Speeds 1 .. 32 at which every Nagumo entry is probed on construction.
NAGUMO_PROBE = 2.0 ** np.arange(0, 6)


@dataclass(frozen=True, eq=False)
class NagumoFunction:
    """Convex increasing superlinear penalty on speed.

    Construction runs a probe over ``NAGUMO_PROBE``: values must be
    increasing, midpoint-convex, and have strictly increasing ratio to the
    argument.  The probe is a certificate, not a proof.
    """

    name: str
    fn: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        r = NAGUMO_PROBE
        v = self.fn(r)
        mid = self.fn((r[:-1] + r[1:]) / 2.0)
        if not np.all(np.isfinite(v)):
            raise SchemaError(f"Nagumo entry '{self.name}' not finite on the probe schedule")
        if not np.all(np.diff(v) > 0):
            raise SchemaError(f"Nagumo entry '{self.name}' is not increasing")
        if np.any(mid > (v[:-1] + v[1:]) / 2.0 + 1e-9):
            raise SchemaError(f"Nagumo entry '{self.name}' fails the convexity probe")
        ratios = v / r
        if not np.all(np.diff(ratios) > 0):
            raise SchemaError(f"Nagumo entry '{self.name}' fails the superlinearity probe")

    def __call__(self, r) -> np.ndarray:
        return self.fn(np.abs(np.asarray(r, dtype=float)))


def _require_params(name: str, params: dict, required: tuple[str, ...]) -> dict:
    params = dict(params or {})
    unknown = set(params) - set(required)
    if unknown:
        raise SchemaError(f"catalog entry '{name}': unknown params {sorted(unknown)}")
    missing = [k for k in required if k not in params]
    if missing:
        raise SchemaError(f"catalog entry '{name}': missing params {missing}")
    return params


def _shared_shape(name: str, params: dict) -> ShapeFunction:
    """``affine`` or ``table``, the shapes that are both velocity and state functions."""
    if name == "affine":
        ps = _require_params(name, params, ("slope", "offset"))
        c, d = float(ps["slope"]), float(ps["offset"])
        return ShapeFunction("affine", lambda y: c * y + d)
    params = _require_params(name, params, ("grid", "values"))
    grid = np.asarray(params["grid"], dtype=float)
    values = np.asarray(params["values"], dtype=float)
    if grid.ndim != 1 or grid.size < 2 or values.shape != grid.shape:
        raise SchemaError(f"catalog entry '{name}': table needs matching grid/values")
    if not np.all(np.diff(grid) > 0):
        raise SchemaError(f"catalog entry '{name}': table grid must be increasing")
    if not (np.all(np.isfinite(grid)) and np.all(np.isfinite(values))):
        raise SchemaError(f"catalog entry '{name}': table must be finite")
    return ShapeFunction(
        name="table",
        fn=lambda y: np.interp(y, grid, values),
        domain=(float(grid[0]), float(grid[-1])),
    )


def velocity_function(name: str, params: dict | None = None) -> ShapeFunction:
    if name in ("affine", "table"):
        return _shared_shape(name, params)
    if name == "power_p":
        p = float(_require_params(name, params, ("p",))["p"])
        if p <= 1.0:
            raise SchemaError("power_p requires p > 1")
        return ShapeFunction("power_p", lambda y: np.abs(y) ** p)
    if name == "abs":
        _require_params(name, params, ())
        return ShapeFunction("abs", np.abs)
    if name == "double_well":
        _require_params(name, params, ())
        return ShapeFunction("double_well", lambda y: (y * y - 1.0) ** 2)
    if name == "linear_minus_sqrt":
        _require_params(name, params, ())
        return ShapeFunction(
            "linear_minus_sqrt",
            lambda y: np.abs(y) - np.sqrt(1.0 + np.abs(y)) + 1.0,
        )
    if name == "sqrt_one_plus":
        _require_params(name, params, ())
        return ShapeFunction("sqrt_one_plus", lambda y: np.sqrt(1.0 + y * y))
    raise SchemaError(f"unknown velocity function '{name}'")


def state_function(name: str, params: dict | None = None) -> ShapeFunction:
    if name in ("affine", "table"):
        return _shared_shape(name, params)
    if name == "zero":
        _require_params(name, params, ())
        return ShapeFunction("zero", np.zeros_like)
    if name == "concave_quadratic":
        ps = _require_params(name, params, ("kappa",))
        kappa = float(ps["kappa"])
        if kappa < 0.0:
            raise SchemaError("concave_quadratic requires kappa >= 0")
        return ShapeFunction("concave_quadratic", lambda y: -kappa * y * y)
    raise SchemaError(f"unknown state function '{name}'")


def time_factor(name: str, params: dict | None = None) -> TimeFactor:
    if name == "const":
        ps = _require_params(name, params, ("value",))
        v = float(ps["value"])
        return TimeFactor(
            "const", lambda t: np.full_like(t, v), lambda t: np.zeros_like(t), constant=True
        )
    if name == "affine_t":
        ps = _require_params(name, params, ("slope", "offset"))
        c, d = float(ps["slope"]), float(ps["offset"])
        return TimeFactor("affine_t", lambda t: c * t + d, lambda t: np.full_like(t, c))
    if name == "sine":
        ps = _require_params(name, params, ("amplitude", "frequency"))
        kappa, omega = float(ps["amplitude"]), float(ps["frequency"])
        return TimeFactor(
            "sine",
            lambda t: kappa * np.sin(omega * t),
            lambda t: kappa * omega * np.cos(omega * t),
        )
    raise SchemaError(f"unknown time factor '{name}'")


def nagumo_function(name: str, params: dict | None = None) -> NagumoFunction:
    if name == "power_p":
        p = float(_require_params(name, params, ("p",))["p"])
        if p <= 1.0:
            raise SchemaError("Nagumo power_p requires p > 1")
        return NagumoFunction("power_p", lambda r: r**p)
    if name == "exp_minus_linear":
        _require_params(name, params, ())
        return NagumoFunction("exp_minus_linear", lambda r: np.expm1(r) - r)
    raise SchemaError(f"unknown Nagumo function '{name}'")
