"""Golden digests: the reproducibility contract "same version + seed => same bytes".

A tiny n=16 scan is pushed through `gen-state | simulate | reconstruct`
once sampled and once `--exact`, and the sha256 of the counts CSV, the
`--p-delta-out` table and `rho_hat.json` is pinned. Any change to these
bytes (an RNG substream, the last bit of a probability, a number format)
fails here and has to be made on purpose, with the digests updated.
"""

import hashlib

import pytest

from spectomo.cli import main

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")

GOLDEN = {
    "sampled": {
        "counts.csv": "117de062193f67cbf539ef42624861d93ddae5db6efa3e9dab56d81524f216c9",
        "p_delta.csv": "fa401e85feab58a13b2f02d38802335dcb9c77e09da0c6b8499b246cb1b2aa4f",
        "rho_hat.json": "f74adfb5e19c5022e4b44e4c161a0dc6a8877f7c5166defa80c20ad4cb55075f",
    },
    "exact": {
        "counts.csv": "da47fd36bbfc63cc40de5ade4509576fef91446e4a9c666c11f7064b490a0d41",
        "p_delta.csv": "bf770b2d5cc892bf9880134478b372905f13e44632f9963297491f4b5f574740",
        "rho_hat.json": "d01e5a7a2021b82d58141c9c8be67745bc3657c3512fdd290e3212136101a5cc",
    },
}


def _digests(tmp_path, mode):
    state = tmp_path / "state.json"
    counts = tmp_path / "counts.csv"
    table = tmp_path / "p_delta.csv"
    rho = tmp_path / "rho_hat.json"
    sim_extra = ["--exact"] if mode == "exact" else ["--shots", "2000", "--seed", "7"]
    argvs = [
        ["gen-state", "time-jitter", "--n", "16", "--jitter", "1.0", "--out", str(state)],
        ["simulate", str(state), "--out", str(counts), "--gamma", "0.9",
         "--p-delta-out", str(table), *sim_extra],
        ["reconstruct", str(counts), "--truth", str(state), "--out", str(rho)],
    ]
    assert [main(argv) for argv in argvs] == [0, 0, 0]
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in (counts, table, rho)}


@pytest.mark.parametrize("mode", sorted(GOLDEN))
def test_golden_digests(tmp_path, mode):
    assert _digests(tmp_path, mode) == GOLDEN[mode]
