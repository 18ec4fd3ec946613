"""The oracles on cases small enough to compute by hand.

Run by ``run.py`` before every run; also runnable alone:
``python3 perfbench/oracle_selftest.py``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracle  # noqa: E402


def _spec(f: dict, g: dict, a: float, b: float, box, n_t: int, n_x: int) -> oracle.Spec:
    return oracle.Spec(
        T=1.0, a=a, b=b,
        f=oracle.Integrand(f, oracle.VELOCITY), g=oracle.Integrand(g, oracle.STATE),
        box=box, cap=2.0, n_t=n_t, n_x=n_x, theta=None,
    )


def _expect(ok, detail) -> None:
    if not ok:
        raise AssertionError(f"oracle self-test failed: {detail}")


WELL = {"base": {"name": "double_well"}}
QUAD = {"base": {"name": "power_p", "params": {"p": 2.0}}}
ZERO = {"base": {"name": "zero"}}


def run() -> None:
    # (q^2 - 1)^2 on {-2, -1, 0, 1, 2} is 9, 0, 1, 0, 9; its envelope is
    # 0 on [-1, 1] and the chord 9*(|q| - 1) beyond.
    pts = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
    env = oracle.pair_envelope(pts, (pts**2 - 1.0) ** 2, [-2.0, 0.0, 0.5, 1.5])
    _expect(np.array_equal(env, [9.0, 0.0, 0.0, 4.5]), env)

    # Box [-0.5, 0.5] with 2 nodes: the endpoint 0 is inserted off the grid.
    nodes = oracle.state_nodes(_spec(WELL, ZERO, 0.0, 0.0, (-0.5, 0.5), 2, 2))
    _expect(np.array_equal(nodes, [-0.5, 0.0, 0.5]), nodes)

    # Nodes {0, 1/2, 1}, step 1/2: quotients {-2, -1, 0, 1, 2}.  For q^2
    # from 0 to 1 the best path moves 1/2 per step: 2 * 1/2 * 1 = 1.
    spec = _spec(QUAD, ZERO, 0.0, 1.0, (0.0, 1.0), 2, 3)
    qs = oracle.quotient_set(spec)
    _expect(np.array_equal(qs.reps, [-2.0, -1.0, 0.0, 1.0, 2.0]), qs.reps)
    _expect(oracle.dense_dp(spec, qs) == 1.0, "oracle.dense_dp")
    _expect(oracle.mean_velocity_value(spec, qs) == 1.0, "oracle.mean_velocity_value")

    # Nodes {-1, 0, 1}, step 1/2: the cap keeps quotients {-2, 0, 2}, where
    # the double well is 9, 1, 9.  f**(0) = 1, so staying at 0 costs 1.
    spec = _spec(WELL, ZERO, 0.0, 0.0, (-1.0, 1.0), 2, 3)
    qs = oracle.quotient_set(spec)
    _expect(np.array_equal(qs.reps, [-2.0, 0.0, 2.0]), qs.reps)
    _expect(oracle.dense_dp(spec, qs) == 1.0, "oracle.dense_dp")

    # A concave state cost -x^2 sampled at each interval's left node: going
    # 0 -> 1 -> 0 costs 1/2 * (0 + 9) + 1/2 * (-1 + 9) = 8.5 > 1, so the
    # optimum still stays at 0.
    g = {"base": {"name": "concave_quadratic", "params": {"kappa": 1.0}}}
    _expect(oracle.dense_dp(_spec(WELL, g, 0.0, 0.0, (-1.0, 1.0), 2, 3)) == 1.0, "oracle.dense_dp")


if __name__ == "__main__":
    run()
    print("oracle self-test passed")
