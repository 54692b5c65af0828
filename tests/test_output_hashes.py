"""The byte contract: every subcommand's CSV and sidecar summary, at
workers 1 and 2, and green_kubo_D's Monte Carlo values are those
recorded in output_hashes.json.  A change that moves one rewrites the
file with ``python tests/output_hashes.py --write`` and says which
value moved, why, and by how much at most."""

import output_hashes


def test_outputs_match_the_recorded_hashes(tmp_path):
    report = output_hashes.check(str(tmp_path))
    assert not report, report
