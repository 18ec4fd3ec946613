"""Pinned CLI outputs on the shipped problems at their own numerics.

The hashes were recorded at commit 708eece10eb12e2a045bbeaf7ce717400d5a4041
with Python 3.11.7 and numpy 2.4.6, before the relaxed DP moved from the
dense n_x x n_x transition table to the banded kernel.  They pin the
determinism contract across that change: ``relax`` writes the same
trajectory CSV and ``_dr.json`` report for every shipped problem, and
``solve`` the same report for ``doublewell`` and ``quadratic``.  Another
numpy build may round differently; re-record the hashes there only after
checking the outputs by other means.
"""

import hashlib
from pathlib import Path

import pytest

from varelax.cli import main

PROBLEMS = Path(__file__).resolve().parents[1] / "problems"

RELAX = {
    "doublewell": (
        "14f9232472ce0da0113297e307e941302684fb7f4977915176f7cca0521e7de3",
        "1e840c9c7b5709dccb8cd2f4e98da202a87c3e0d61a2bb61e41bc22276ad530d",
    ),
    "doublewell_concave": (
        "2e1b2e7cc76e4d755eab43790ec71dac545f6b4a8fa1fb4d3f71cced2c4dd959",
        "23c9864f0049a27f9224f2b3077857b263c5a03678aba0daf901db96bd26de29",
    ),
    "doublewell_timevarying": (
        "14f9232472ce0da0113297e307e941302684fb7f4977915176f7cca0521e7de3",
        "38ef83e82767091613db357f80f518bc58a7d3cb4c11ad388208f587043f4508",
    ),
    "linear_minus_sqrt": (
        "e8ff29750ca940528ce48b90ed0a625154cce6f72aab836ad21ee8a4a16e0a25",
        "278ab99ae1c0aa4fc60f1d34977ea32576680ce4ab56bfee707df8aac4b1fdb8",
    ),
    "quadratic": (
        "ef134c1a87193336fbaf399adcfea177edeeeb196d9486bd1631a8f0a32548d4",
        "0df8830ac2e939b993fe62a3dfe5881cb8c93870526fc99e78686cea6e193cc1",
    ),
    "sqrt_one_plus": (
        "ab028ef31c39b701c1cb14404d1260043c551614a50762320fe43a1ea1b50fd0",
        "2f2cb2792f6c62af5ef7749f5b7c9d75422435403af2e1c6e5ed1c388373ec4e",
    ),
}

SOLVE = {
    "doublewell": "48ef283c0a05041bff2a2cf36817991c6b1747776c70c9733082240cb9690ea5",
    "quadratic": "79a42dcd6ee4a9161ea40546b7065d5f1dc5d07f07905dc47d2e3296feff2ace",
}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(RELAX))
def test_relax_outputs_pinned(name, tmp_path):
    out = tmp_path / f"{name}_relaxed.csv"
    assert main(["relax", str(PROBLEMS / f"{name}.json"), "--out", str(out)]) == 0
    csv_hash, report_hash = RELAX[name]
    assert sha256(out) == csv_hash
    assert sha256(tmp_path / f"{name}_relaxed_dr.json") == report_hash


@pytest.mark.parametrize("name", sorted(SOLVE))
def test_solve_report_pinned(name, tmp_path):
    out = tmp_path / f"{name}_solution.json"
    assert main(["solve", str(PROBLEMS / f"{name}.json"), "--out", str(out)]) == 0
    assert sha256(out) == SOLVE[name]
