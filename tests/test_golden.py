"""Golden outputs: every registered scenario emits byte-identical files at the
reference seed and trial count, and at a trial count that spans several of
the runner's chunks.

A change that alters any of these hashes changes the emitted logs; that is
only allowed as a deliberate correctness fix, with the new hashes recorded
here in the same change.
"""

import hashlib

import pytest

from spoofsim.harness.cli import main
from spoofsim.harness.runner import CHUNK_TRIALS
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


#: A trial count past two chunk boundaries (2 * CHUNK_TRIALS + 1 at 256 trials
#: a chunk), with its hashes as the unchunked harness emitted them.
TRIALS_ACROSS_CHUNKS = 513
EXPECTED_ACROSS_CHUNKS = {
    "GPWS": {
        "trials": "cd1deea08cd8ef2b4023d459c65136acc04fe1403afd2b9a46150474a29058be",
        "summary.csv": "af2919f5dfd1ab8cdc85e10c8d9b449c036142a7832e281ad214668e76ca5586",
    },
    "TCAS": {
        "trials": "26ed31bd7bf420768ea49b08e48758b2b97fe2024370de537542c14fc96408f4",
        "summary.csv": "abee7066ef2f50073b7fb474957a42e8b6f353f6b195b927b5c9668779fd436f",
        "verdicts.csv": "9ec1cc2da4a2ebda232c23288c8e4934fceed5cc806482d4d138cee6b81d1754",
    },
    "GS": {
        "trials": "fa2e65f695ea3c3f2ee6fc92092ea554a5d995c0c5a5b041ba88295711ba0031",
        "summary.csv": "1393d5816af362679387c40445ed1aaa3f3f5cf2ceb042629f45ca533c84b206",
    },
    "BASELINE": {
        "trials": "613830f76677ba8791a1a69256ebaec41c3367ccaa796faf10565282eb7972dd",
        "summary.csv": "34aa2eb2ee50c1a06771ae4be144f44ee2b57036d7119b6aa06635f89c2d3752",
    },
}


def trials_digest(out):
    digest = hashlib.sha256()
    for path in sorted((out / "trials").glob("trial_*.jsonl")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def emitted_digests(scenario, trials, expected, out):
    """Run ``scenario`` at the reference seed into ``out`` (and detect, when
    ``expected`` has a verdicts hash); the hashes of what it wrote."""

    common = ["--scenario", scenario, "--seed", str(SEED), "--out", str(out)]
    assert main(["run", "--trials", str(trials)] + common) == 0
    actual = {
        "trials": trials_digest(out),
        "summary.csv": hashlib.sha256((out / "summary.csv").read_bytes()).hexdigest(),
    }
    if "verdicts.csv" in expected:
        assert main(["detect"] + common) == 0
        actual["verdicts.csv"] = hashlib.sha256((out / "verdicts.csv").read_bytes()).hexdigest()
    return actual


@pytest.mark.parametrize("scenario", list(SCENARIOS))
def test_golden_outputs(scenario, tmp_path, capsys):
    assert scenario in EXPECTED, f"no golden hashes recorded for {scenario}"
    expected = EXPECTED[scenario]
    actual = emitted_digests(scenario, TRIALS, expected, tmp_path / scenario)
    capsys.readouterr()
    assert actual == expected


@pytest.mark.parametrize("scenario", list(SCENARIOS))
def test_golden_outputs_across_chunks(scenario, tmp_path, capsys):
    """Streaming the trials in chunks changes no byte: each accumulator folds
    three chunks, the last of them a single trial at 256 trials a chunk."""

    assert TRIALS_ACROSS_CHUNKS > 2 * CHUNK_TRIALS
    assert scenario in EXPECTED_ACROSS_CHUNKS, f"no golden hashes recorded for {scenario}"
    expected = EXPECTED_ACROSS_CHUNKS[scenario]
    actual = emitted_digests(scenario, TRIALS_ACROSS_CHUNKS, expected, tmp_path / scenario)
    capsys.readouterr()
    assert actual == expected
