"""Pinned CLI outputs on the shipped problems at their own numerics.

The hashes were recorded at commit 708eece10eb12e2a045bbeaf7ce717400d5a4041
with Python 3.11.7 and numpy 2.4.6, before the relaxed DP moved from the
dense n_x x n_x transition table to the banded kernel.  They pin the
determinism contract across that change: ``relax`` writes the same
trajectory CSV and ``_dr.json`` report for every shipped problem, and
``solve`` the same report for ``doublewell`` and ``quadratic``.  Another
numpy build may round differently; re-record the hashes there only after
checking the outputs by other means.

``CERTIFICATES`` and ``SOLVE_WITH_EXIT`` were recorded the same way at
commit 726e45223d08a7114951d09698cc01b77207f92e, before scipy moved off the
import path and the certificates started reusing envelopes of autonomous
integrands.  They pin ``classify``'s ``_certificates.json`` on every shipped
problem and ``solve``'s report with its exit code on the other four, so the
drift constants, the class-E chi values and the per-time SCI probes keep
their bytes; ``sqrt_one_plus`` is the catalog's negative control and exits 4.

``VERIFY_DECOMPOSE`` was recorded the same way at commit
f1e31b21b7ba3f87264c7dab7b8b8ed912e5de95, before verification and
reconstruction started sharing one envelope per distinct time.  Each
shipped problem's ``relax`` CSV is fed back at the problem's own numerics;
the hashes pin ``verify``'s ``_verify.json`` and ``_verify_energy.csv`` and
``decompose``'s ``_decomposition.json``, so the costs that
``read_trajectory`` recomputes, the Du Bois-Reymond energies and the
splittings keep their bytes.

Five ``doublewell_timevarying`` hashes were re-recorded with the same
Python and numpy when the Du Bois-Reymond drift and the drift fit started
reading the time derivative of f** from the envelope's support points
instead of central differences at t +- delta: the ``relax`` report, the
``classify`` certificates, the ``solve`` report, and ``verify``'s report
and energy CSV.  Only the DR drift, residual, constant and maximum
residual and the drift constants moved, checked field by field against
the outputs before the change; the energies, the relaxed CSV and the
decomposition kept their bytes, and every other problem's hashes stand.

``doublewell_concave``'s ``solve`` report was re-recorded with the same
Python and numpy when ``rearrange`` started choosing only orders whose
turning point stays in the state box.  Its 128 split intervals sit on the
lower edge, where the cheaper order had left the box, down to
-0.251953125.  Only the reconstructed g cost and the total and g gaps
moved; the gaps turned from -6.13e-05 to +6.08e-05, inside the tolerance.

``PLOT_DATA`` and ``SWEEP`` were recorded the same way at commit
9e9b689deb57f064aa3e6402ce112fe531f6cb2f, before the integrand tables and
the admissible pairs each moved to one implementation.  With the pins
above they cover every file and exit code of ``classify``, ``relax`` and
``solve`` with ``--plot-data``, of ``verify`` and ``decompose`` on
``relax``'s CSV, and of ``sweep --n-t 32 --n-x 33 --l-schedule 0.5:4:4
--plot-data``, on each shipped problem, and the stderr of all but
``verify`` and ``decompose``.  ``solve``
writes ``relax``'s trajectory CSV and energies and ``classify``'s chi
values; on ``sqrt_one_plus`` it stops at the certificates and writes no
CSV.  Only ``quadratic`` has the theta entry that ``sweep`` needs.
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
        "11a9a26d8b345f59dc9c64cfc23cef4bd5533f8cb7bd87ae2daa387835736c74",
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

CERTIFICATES = {
    "doublewell": (0, "1b9b079f4c7cfc71653289d39d36467d7cbc455c05a03d725faca863116dbde2"),
    "doublewell_concave": (
        0,
        "a348389e1caea697bd012bb41b6ee4a160468af8b8fd9027c48142d353a275b7",
    ),
    "doublewell_timevarying": (
        0,
        "6e75602ae2d340862b4f197a7f29b1a2c457e4c59a3b4ac5408ac08aedf453f8",
    ),
    "linear_minus_sqrt": (
        0,
        "7ed1480966318e1603afb01d007593ef32dcc0b978b830aca49901c8795ee83e",
    ),
    "quadratic": (0, "116425cd0b4573ce7ec582b80fb24f552805bcc9344c43cac0f68c7d85fbefcd"),
    "sqrt_one_plus": (4, "67e87eebdf779f86d8b1c38bcd8578ab04e37da7808256c4da8ac67abea30da7"),
}

SOLVE_WITH_EXIT = {
    "doublewell_concave": (
        0,
        "4f155fc9c78f35b42cc1a9e2ea4e7b097b7f4f3e3258f53b46f22b3ab7d4ff45",
    ),
    "doublewell_timevarying": (
        0,
        "3bb1e3e52d23f196da960aa03684ee7c8c0ea1408f4d1147c7f23f2ba45b4556",
    ),
    "linear_minus_sqrt": (
        0,
        "fae1c2456c5b4b62423e3e98bdf18813e2e63a07cf2dcece2fa4b6c19c9e9d13",
    ),
    "sqrt_one_plus": (4, "415a2abaf50e99de3e7e876265fc67b49290cebaad3104b54f8d7defcfcecab3"),
}

VERIFY_DECOMPOSE = {
    "doublewell": (
        "ee7d1475adc1a3d9b8cd232472f4d2c3d2ddce6da375e0b57021493af2352a2a",
        "d2744513170cbf0abbfb647077f50e814a7ce1dcfc75470ad8b43b07c86edea0",
        "8048e13f8ee5f685bca630cc6654c31b756ee5b759c1093aac7258f38453e21e",
    ),
    "doublewell_concave": (
        "628fb539f674c7b022d796db97e7b8b2cadbfbc7adc8a1ca0b844edf9831ed31",
        "d23185c7d2defab9fc393b24497ea0cf1885b89918ee0a2db9bb11a7558cc1ce",
        "52eefff04f89e9e8c5eba9f62791867eeea79286078f10aa6779b50a3ffafa4c",
    ),
    "doublewell_timevarying": (
        "1f261a3ef0977d449962817ac3e15f9e2e10fd8ca58c599c1793cfb3e33d975c",
        "a85e49906a653005e14f25b272b1d95325dab8685c5e78e1897d41072157284c",
        "f53dce9da12fb7ed703ade8156961a38cdde956108cbbe9ffc97522d163618e5",
    ),
    "linear_minus_sqrt": (
        "97e7474b36f7960b6b9f025908d5843fb35fc698c0a38be880ddc56387050801",
        "8e444071cf760c60eccb740ce82d0bc6320af51371842cb1e9a69f2fdf4355f9",
        "ff9fc447ec615c9556194e72a4dac493b26fc411401c350cf79c68d2725960a8",
    ),
    "quadratic": (
        "4326dbfabbe0f2fb91141cb86570094002fa5c554f8ff6f954c6832de3b913bd",
        "96f420e07a46e943bf26097c924664cc221348a8d569532a6e284dc9454e2a90",
        "a515de54ec3a5a46d05864f6b470362af1c703dfb1e74592eaf6a069e303d703",
    ),
    "sqrt_one_plus": (
        "aac2d4ddcaeadcfc41c6c497bed11928d4a38279c485172f5141e722efdfd838",
        "d75fa5a08cd213cb317362470ae6c4e5c3626df6cf90894f6a1b611db2430079",
        "1639f9cb7bcb8620f24d52a3b5d989ea4b6ac12c7f247d2ed0c72e2d13c06aa0",
    ),
}

# name: (the chi CSV of classify and solve, the energy CSV of relax and
# solve, solve's reconstructed CSV or None where solve writes none)
PLOT_DATA = {
    "doublewell": (
        "47e09cd2080bd84581213d33961213e648620d6695ad57bf017cf3fd2fbf7f46",
        "d2744513170cbf0abbfb647077f50e814a7ce1dcfc75470ad8b43b07c86edea0",
        "a975613257b3ecab425e310753616c588432b8ee6a51b8d68664686ec6a51544",
    ),
    "doublewell_concave": (
        "47e09cd2080bd84581213d33961213e648620d6695ad57bf017cf3fd2fbf7f46",
        "d23185c7d2defab9fc393b24497ea0cf1885b89918ee0a2db9bb11a7558cc1ce",
        "a9f7c12f06d312f12498765f05a803b3a33fa3fc734a09ec30f8a5a6e39fc037",
    ),
    "doublewell_timevarying": (
        "7332170999d66927ba84dca9a82aa4294a13ba1585253f0c92f9011179327780",
        "a85e49906a653005e14f25b272b1d95325dab8685c5e78e1897d41072157284c",
        "a975613257b3ecab425e310753616c588432b8ee6a51b8d68664686ec6a51544",
    ),
    "linear_minus_sqrt": (
        "219cbf12f139b658de068179b2af92781ebc9c441128cc41b1b35aab9788fdc3",
        "8e444071cf760c60eccb740ce82d0bc6320af51371842cb1e9a69f2fdf4355f9",
        "89cdbc29fa1b94b057b9b71d099116c3104ba2b2e512bffd7907835517689ca0",
    ),
    "quadratic": (
        "5e6c68309dfa19cead4840e41a5682e175bdc2002405937bd92625ef4c8f15cb",
        "96f420e07a46e943bf26097c924664cc221348a8d569532a6e284dc9454e2a90",
        "921a23f9a5b9962b2253938777affdc44fa047dd86d7f0135e7211da6580ab7c",
    ),
    "sqrt_one_plus": (
        "26331d05ad49b29bc458c95fa5019188b9b2588051cb37263f73468f911cc145",
        "d75fa5a08cd213cb317362470ae6c4e5c3626df6cf90894f6a1b611db2430079",
        None,
    ),
}

NO_THETA = (2, "error: sweep requires a theta entry in the problem's numerics\n", None, None)
# name: (exit code, stderr, the report and the V(l) CSV or None where none
# is written)
SWEEP = {
    "doublewell": NO_THETA,
    "doublewell_concave": NO_THETA,
    "doublewell_timevarying": NO_THETA,
    "linear_minus_sqrt": NO_THETA,
    "quadratic": (
        0,
        "",
        "052c0d70c6dda89ac3452a3ad56ab50f444171ae1b77ed11e92044b85cc6295d",
        "003fb388b8a9c83c8653f0ff5e113beb493e90d53b93bee41e2e796d073ec431",
    ),
    "sqrt_one_plus": NO_THETA,
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


@pytest.mark.parametrize("name", sorted(CERTIFICATES))
def test_classify_certificates_pinned(name, tmp_path):
    out = tmp_path / f"{name}_certificates.json"
    code, digest = CERTIFICATES[name]
    assert main(["classify", str(PROBLEMS / f"{name}.json"), "--out", str(out)]) == code
    assert sha256(out) == digest


@pytest.mark.parametrize("name", sorted(SOLVE_WITH_EXIT))
def test_solve_report_and_exit_pinned(name, tmp_path):
    out = tmp_path / f"{name}_solution.json"
    code, digest = SOLVE_WITH_EXIT[name]
    assert main(["solve", str(PROBLEMS / f"{name}.json"), "--out", str(out)]) == code
    assert sha256(out) == digest


@pytest.mark.parametrize("name", sorted(VERIFY_DECOMPOSE))
def test_verify_and_decompose_outputs_pinned(name, tmp_path):
    problem = str(PROBLEMS / f"{name}.json")
    traj = tmp_path / f"{name}_relaxed.csv"
    assert main(["relax", problem, "--out", str(traj)]) == 0
    report = tmp_path / f"{name}_verify.json"
    assert main(["verify", problem, "--traj", str(traj), "--out", str(report)]) == 0
    track = tmp_path / f"{name}_decomposition.json"
    assert main(["decompose", problem, "--traj", str(traj), "--out", str(track)]) == 0
    report_hash, energy_hash, track_hash = VERIFY_DECOMPOSE[name]
    assert sha256(report) == report_hash
    assert sha256(tmp_path / f"{name}_verify_energy.csv") == energy_hash
    assert sha256(track) == track_hash


def sha256_or_none(path: Path) -> str | None:
    return sha256(path) if path.exists() else None


@pytest.mark.parametrize("name", sorted(PLOT_DATA))
def test_plot_data_and_solve_csvs_pinned(name, tmp_path, capsys):
    problem = str(PROBLEMS / f"{name}.json")
    chi, energy, reconstructed = PLOT_DATA[name]
    certificates = tmp_path / f"{name}_certificates.json"
    code = main(["classify", problem, "--out", str(certificates), "--plot-data"])
    assert code == CERTIFICATES[name][0]
    assert sha256(tmp_path / f"{name}_certificates_chi.csv") == chi
    traj = tmp_path / f"{name}_relaxed.csv"
    assert main(["relax", problem, "--out", str(traj), "--plot-data"]) == 0
    assert sha256(tmp_path / f"{name}_relaxed_energy.csv") == energy
    assert capsys.readouterr() == ("", "")
    solution = tmp_path / f"{name}_solution.json"
    code = main(["solve", problem, "--out", str(solution), "--plot-data"])
    written = [
        sha256_or_none(tmp_path / f"{name}_solution_{part}.csv")
        for part in ("relaxed", "reconstructed", "chi", "energy")
    ]
    if reconstructed is None:
        assert code == 4 and capsys.readouterr() == ("", "certificate failure; see report\n")
        assert written == [None] * 4
    else:
        assert code == 0 and capsys.readouterr() == ("", "")
        assert written == [RELAX[name][0], reconstructed, chi, energy]


@pytest.mark.parametrize("name", sorted(SWEEP))
def test_sweep_outputs_pinned(name, tmp_path, capsys):
    out = tmp_path / f"{name}_sweep.json"
    argv = ["sweep", str(PROBLEMS / f"{name}.json"), "--out", str(out)]
    argv += ["--n-t", "32", "--n-x", "33", "--l-schedule", "0.5:4:4", "--plot-data"]
    code = main(argv)
    assert (code, capsys.readouterr().err) == SWEEP[name][:2]
    assert sha256_or_none(out) == SWEEP[name][2]
    assert sha256_or_none(tmp_path / f"{name}_sweep_vl.csv") == SWEEP[name][3]
