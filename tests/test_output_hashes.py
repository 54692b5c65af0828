"""The byte contract: every subcommand's CSV and sidecar summary, at
workers 1 and 2, and green_kubo_D's Monte Carlo values are those
recorded in output_hashes.json.  A change that moves one rewrites the
file with ``python tests/output_hashes.py --write`` and says which
value moved, why, and by how much at most.  The sidecar's ``load_s``
never reaches a CSV."""

import hashlib
import json

import pytest

import output_hashes
from lorentzlab.cli import main


def test_outputs_match_the_recorded_hashes(tmp_path):
    report = output_hashes.check(str(tmp_path))
    assert not report, report


@pytest.mark.parametrize("name", sorted(output_hashes.TINY))
def test_load_s_goes_to_the_sidecar_only(name, tmp_path):
    # the runner's module is loaded before the run's clock starts: the
    # sidecar records that time as load_s, and the CSV keeps its bytes
    assert main([name, *output_hashes.TINY[name], "--seed",
                 str(output_hashes.SEED), "--out-dir", str(tmp_path)]) == 0
    meta = json.loads((tmp_path / f"{name}.json").read_text())
    assert meta["load_s"] >= 0.0 and meta["duration_s"] >= 0.0
    with open(output_hashes.HASH_FILE, encoding="utf-8") as fh:
        recorded = json.load(fh)["values"][f"{name} workers=1 csv"]
    assert hashlib.sha256((tmp_path / f"{name}.csv").read_bytes()
                          ).hexdigest() == recorded
