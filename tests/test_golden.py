"""Golden outputs: every registered scenario emits byte-identical files at the
reference seed and trial count.

A change that alters any of these hashes changes the emitted logs; that is
only allowed as a deliberate correctness fix, with the new hashes recorded
here in the same change.
"""

import hashlib

import pytest

from spoofsim.harness.cli import main
from spoofsim.harness.scenarios import SCENARIOS

SEED = 20190118
TRIALS = 200

#: scenario -> {artefact: SHA-256}.  "trials" hashes every trial log, sorted
#: by name, as name + NUL + bytes; the others hash the file as written.
EXPECTED = {
    "GPWS": {
        "trials": "e38a2cfcacd91eaa1ee925f5ae032f3e38ea2a92be7d8f1106528fbfc636d092",
        "summary.csv": "fb74445351bfc90eadef33e24dc95a50279ee81511eb1549d5fc213418f6c7da",
    },
    "TCAS": {
        "trials": "46fd58ddd4d70fb9ae41787bbd9936cf2f670720abe8824900c8b97ce61cfb25",
        "summary.csv": "b23067dee6adbedc1e901b45620936847e17c70e32d358d625b06835de38a353",
        "verdicts.csv": "fdbdcf08057666ad0f3d3fdfca75e13735e48ce5018a47a631ab5408ace1fe3b",
    },
    "GS": {
        "trials": "821d47bab759caa39ad2bda38f5932cd11ab0a49fd6d3349bb5576a718443f3d",
        "summary.csv": "db2c301c7c9733584846c695b681adb00c55834b4d337a3c28152d2c99cf2a56",
    },
    "BASELINE": {
        "trials": "d8dd0852ee6f587327fd82cea6d393027d7988e3e57246e588a25e17fdbbcf59",
        "summary.csv": "35276c3c3422a4771ccd913e1ae5046f9b9bf468f6fb4b54953e3146d76cee3d",
    },
}


def trials_digest(out):
    digest = hashlib.sha256()
    for path in sorted((out / "trials").glob("trial_*.jsonl")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


@pytest.mark.parametrize("scenario", list(SCENARIOS))
def test_golden_outputs(scenario, tmp_path, capsys):
    assert scenario in EXPECTED, f"no golden hashes recorded for {scenario}"
    expected = EXPECTED[scenario]
    out = tmp_path / scenario
    common = ["--scenario", scenario, "--seed", str(SEED), "--out", str(out)]
    assert main(["run", "--trials", str(TRIALS)] + common) == 0
    actual = {
        "trials": trials_digest(out),
        "summary.csv": hashlib.sha256((out / "summary.csv").read_bytes()).hexdigest(),
    }
    if "verdicts.csv" in expected:
        assert main(["detect"] + common) == 0
        actual["verdicts.csv"] = hashlib.sha256((out / "verdicts.csv").read_bytes()).hexdigest()
    capsys.readouterr()
    assert actual == expected
