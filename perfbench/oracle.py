"""Reference computations for the benchmark's correctness checks.

Everything here is rebuilt from the problem-file JSON and the rules in
the repository README, with numpy only: nothing is imported from
``varelax``.  The oracles are deliberately brute force (pair minima for
the convex envelope, a dense min-plus product for the DP) and run
outside the timed sections.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# The catalog formulas of the README, written out again.
VELOCITY = {
    "power_p": lambda y, p: np.abs(y) ** p["p"],
    "abs": lambda y, p: np.abs(y),
    "double_well": lambda y, p: (y * y - 1.0) ** 2,
    "linear_minus_sqrt": lambda y, p: np.abs(y) - np.sqrt(1.0 + np.abs(y)) + 1.0,
    "sqrt_one_plus": lambda y, p: np.sqrt(1.0 + y * y),
    "affine": lambda y, p: p["slope"] * y + p["offset"],
}
STATE = {
    "zero": lambda y, p: np.zeros_like(y),
    "affine": lambda y, p: p["slope"] * y + p["offset"],
    "concave_quadratic": lambda y, p: -p["kappa"] * y * y,
}
TIME = {
    "const": lambda t, p: p["value"],
    "affine_t": lambda t, p: p["slope"] * t + p["offset"],
    "sine": lambda t, p: p["amplitude"] * math.sin(p["frequency"] * t),
}
THETA = {
    "power_p": lambda r, p: np.abs(r) ** p["p"],
    "exp_minus_linear": lambda r, p: np.expm1(np.abs(r)) - np.abs(r),
}

# Class of the Erdmann defect f** - p*xi as |xi| grows, derived by hand:
# superlinear and slowly-growing convex costs drive it to -inf
# ("diverges"); sqrt(1 + xi^2) has defect 1/sqrt(1 + xi^2) -> 0
# ("bounded").
CLASS_E = {
    "power_p": "diverges",
    "double_well": "diverges",
    "linear_minus_sqrt": "diverges",
    "sqrt_one_plus": "bounded",
}

MERGE_TOL = 1e-12
CAP_TOL = 1e-12


def _shape(table: dict, entry: dict):
    fn = table[entry["name"]]
    params = entry.get("params", {})
    return lambda y: fn(np.asarray(y, dtype=float), params)


@dataclass(frozen=True)
class Integrand:
    """base(y) + factor(t) * modulation(y), from one problem-file section."""

    doc: dict
    table: dict

    def __call__(self, t: float, y) -> np.ndarray:
        out = _shape(self.table, self.doc["base"])(y)
        if "modulation" in self.doc:
            tf = self.doc.get("time_factor", {"name": "const", "params": {"value": 1.0}})
            factor = TIME[tf["name"]](float(t), tf.get("params", {}))
            out = out + factor * _shape(self.table, self.doc["modulation"])(y)
        return np.asarray(out, dtype=float)

    @property
    def autonomous(self) -> bool:
        tf = self.doc.get("time_factor")
        return "modulation" not in self.doc or tf is None or tf["name"] == "const"


@dataclass(frozen=True)
class Spec:
    """A problem file at a chosen grid."""

    T: float
    a: float
    b: float
    f: Integrand
    g: Integrand
    box: tuple[float, float]
    cap: float
    n_t: int
    n_x: int
    theta: dict | None

    @property
    def autonomous_free(self) -> bool:
        """Autonomous f and g = 0: the relaxed value is T * f**((b - a)/T)."""
        return self.f.autonomous and self.g.doc["base"]["name"] == "zero" and "modulation" not in self.g.doc

    def theta_fn(self, r) -> np.ndarray:
        return THETA[self.theta["name"]](np.asarray(r, dtype=float), self.theta.get("params", {}))


def load_spec(path: str | Path, n_t: int | None = None, n_x: int | None = None) -> Spec:
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    num = doc["numerics"]
    return Spec(
        T=float(doc["horizon"]["T"]),
        a=float(doc["horizon"]["a"]),
        b=float(doc["horizon"]["b"]),
        f=Integrand(doc["f"], VELOCITY),
        g=Integrand(doc["g"], STATE),
        box=(float(num["state_box"][0]), float(num["state_box"][1])),
        cap=float(num["velocity_cap"]),
        n_t=int(n_t if n_t is not None else num.get("n_t", 128)),
        n_x=int(n_x if n_x is not None else num.get("n_x", 129)),
        theta=num.get("theta"),
    )


def state_nodes(spec: Spec) -> np.ndarray:
    """Uniform box grid; each endpoint replaces a node within 1e-9 of it,
    otherwise it is inserted as an extra node."""
    xs = np.linspace(spec.box[0], spec.box[1], spec.n_x)
    for v in (spec.a, spec.b):
        pitch = float(np.min(np.diff(xs)))
        tol = min(1e-9 * max(1.0, float(np.abs(xs).max())), 0.25 * pitch)
        near = int(np.argmin(np.abs(xs - v)))
        if abs(xs[near] - v) <= tol:
            xs = xs.copy()
            xs[near] = v
        else:
            xs = np.sort(np.append(xs, v))
    return xs


def merge_sorted(values: np.ndarray) -> np.ndarray:
    """Collapse relative-1e-12 clusters of sorted values to their first member."""
    out = [float(values[0])]
    for v in values[1:]:
        if v - out[-1] > MERGE_TOL * max(1.0, abs(v), abs(out[-1])):
            out.append(float(v))
    return np.array(out)


@dataclass(frozen=True)
class QuotientSet:
    nodes: np.ndarray  # state grid
    step: float
    reps: np.ndarray  # merged admissible quotients, sorted
    index: np.ndarray  # (n, n) rep index of each source/target pair, -1 if beyond the cap


def quotient_set(spec: Spec) -> QuotientSet:
    xs = state_nodes(spec)
    h = spec.T / spec.n_t
    q = (xs[None, :] - xs[:, None]) / h
    ok = np.abs(q) <= spec.cap * (1.0 + CAP_TOL)
    reps = merge_sorted(np.unique(q[ok]))
    pos = np.clip(np.searchsorted(reps, q), 1, reps.size - 1)
    left, right = reps[pos - 1], reps[pos]
    nearest = np.where(np.abs(left - q) <= np.abs(right - q), pos - 1, pos)
    return QuotientSet(xs, h, reps, np.where(ok, nearest, -1))


def pair_envelope(points: np.ndarray, values: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """f**(target) = min over sample pairs l <= target <= r of the chord value."""
    targets = np.atleast_1d(np.asarray(targets, dtype=float))
    out = np.empty(targets.size)
    for k, x in enumerate(targets):
        lo = points <= x
        hi = points >= x
        pl, vl = points[lo][:, None], values[lo][:, None]
        pr, vr = points[hi][None, :], values[hi][None, :]
        width = pr - pl
        with np.errstate(invalid="ignore", divide="ignore"):
            lam = np.where(width > 0, (pr - x) / width, 1.0)
        chord = lam * vl + (1.0 - lam) * vr
        out[k] = float(np.min(chord))
    return out


def envelope_on_reps(spec: Spec, qs: QuotientSet, t: float) -> np.ndarray:
    return pair_envelope(qs.reps, spec.f(t, qs.reps), qs.reps)


def dense_dp(spec: Spec, qs: QuotientSet | None = None) -> float:
    """Dense min-plus DP over every (source, target) node pair; costs at
    the left end of each interval, as the README's discretization states."""
    qs = qs or quotient_set(spec)
    xs, h = qs.nodes, qs.step
    times = np.linspace(0.0, spec.T, spec.n_t + 1)
    admissible = qs.index >= 0
    safe = np.where(admissible, qs.index, 0)
    start = int(np.flatnonzero(xs == spec.a)[0])
    end = int(np.flatnonzero(xs == spec.b)[0])
    value = np.full(xs.size, np.inf)
    value[start] = 0.0
    fq = envelope_on_reps(spec, qs, 0.0)
    for i in range(spec.n_t):
        t = float(times[i])
        if not spec.f.autonomous:
            fq = envelope_on_reps(spec, qs, t)
        move = np.where(admissible, fq[safe], np.inf)
        step_cost = h * (spec.g(t, xs)[:, None] + move)
        value = np.min(value[:, None] + step_cost, axis=0)
    return float(value[end])


def mean_velocity_value(spec: Spec, qs: QuotientSet | None = None) -> float:
    """T * f**((b - a)/T) on the quotient set (autonomous f)."""
    qs = qs or quotient_set(spec)
    mean = (spec.b - spec.a) / spec.T
    return spec.T * float(pair_envelope(qs.reps, spec.f(0.0, qs.reps), [mean])[0])


def close(a: float, b: float, rel: float) -> bool:
    """|a - b| <= rel * max(|a|, |b|); equal values always pass."""
    return a == b or abs(a - b) <= rel * max(abs(a), abs(b))
