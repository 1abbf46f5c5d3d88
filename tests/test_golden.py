"""Golden digests: the reproducibility contract "same version + seed => same bytes".

A tiny n=16 scan is pushed through `gen-state | simulate | reconstruct`
once sampled and once `--exact`, and the sha256 of every file the README's
reproducibility contract covers is pinned: `state.json`, the counts CSV, the
`--p-delta-out` table, `rho_hat.json`, its report and the `--heatmap-out`
table. Any change to these bytes (an RNG stream, the last bit of a
probability, a number format) fails here and has to be made on purpose,
with the digests updated.
"""

import hashlib

import pytest

from spectomo.cli import main

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")

GOLDEN = {
    "sampled": {
        "counts.csv": "90585971941dba1be1781b20abb08343636af5c96525073ec2bf217ec48fdd23",
        "p_delta.csv": "f00555338d6e2cae39e029fb85a854baec35ed1eab4e79d1609770b37c8bd7a9",
        "rho_hat.json": "f5533ac2c6eea756b64fb043da443546dc9ad30a9c226c0a051d6c0ea18e86d9",
        "state.json": "8198a8e038d4039e8a4b10029791236d899eff5b00276b88a4fe5fd55d15db86",
        "rho_hat.report.json": "5bb721100482335b953e4d9bf978b6a80af56c7b4514adc0f35d412c1e1e7d61",
        "rho_abs.csv": "f9decff553eef23ec34f068502f2ff2af262f895bf085c55d5ede6c957d91158",
    },
    "exact": {
        "counts.csv": "da47fd36bbfc63cc40de5ade4509576fef91446e4a9c666c11f7064b490a0d41",
        "p_delta.csv": "bf770b2d5cc892bf9880134478b372905f13e44632f9963297491f4b5f574740",
        "rho_hat.json": "d01e5a7a2021b82d58141c9c8be67745bc3657c3512fdd290e3212136101a5cc",
        "state.json": "8198a8e038d4039e8a4b10029791236d899eff5b00276b88a4fe5fd55d15db86",
        "rho_hat.report.json": "53530af4880be615d0cfdca8832e92c5ce0b19009227abe35f882129f41eca43",
        "rho_abs.csv": "cbcad7b94c83ec042381359f6152c1e9cc72d827126c38e82a0a62aa5b5ba26f",
    },
}


def _digests(tmp_path, mode):
    state = tmp_path / "state.json"
    counts = tmp_path / "counts.csv"
    table = tmp_path / "p_delta.csv"
    rho = tmp_path / "rho_hat.json"
    report = tmp_path / "rho_hat.report.json"
    heatmap = tmp_path / "rho_abs.csv"
    sim_extra = ["--exact"] if mode == "exact" else ["--shots", "2000", "--seed", "7"]
    argvs = [
        ["gen-state", "time-jitter", "--n", "16", "--jitter", "1.0", "--out", str(state)],
        ["simulate", str(state), "--out", str(counts), "--gamma", "0.9",
         "--p-delta-out", str(table), *sim_extra],
        ["reconstruct", str(counts), "--truth", str(state), "--out", str(rho),
         "--heatmap-out", str(heatmap)],
    ]
    assert [main(argv) for argv in argvs] == [0, 0, 0]
    outputs = (state, counts, table, rho, report, heatmap)
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in outputs}


@pytest.mark.parametrize("mode", sorted(GOLDEN))
def test_golden_digests(tmp_path, mode):
    assert _digests(tmp_path, mode) == GOLDEN[mode]
