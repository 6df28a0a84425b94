"""Results stay bit-for-bit identical across code versions: the small grid
of record_golden.py must reproduce the digests committed in golden.json."""
import json

from record_golden import GOLDEN, fingerprint


def test_golden_fingerprint():
    with open(GOLDEN) as fh:
        want = json.load(fh)
    got = fingerprint()
    assert sorted(got) == sorted(want), "the grid itself changed"
    changed = [f"{case} {part}" for case in sorted(want)
               for part in sorted(want[case])
               if got[case][part] != want[case][part]]
    assert not changed, (
        f"simulated results differ from golden.json in {len(changed)} "
        f"digest(s): {', '.join(changed)}.  If results are meant to change, "
        "regenerate the fixture with `PYTHONPATH=src python3 "
        "tests/record_golden.py` and say why in the commit; otherwise the "
        "change broke bit-for-bit reproducibility.")
