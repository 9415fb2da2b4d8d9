"""Batch outputs stay byte-identical to a stored golden copy.

The golden files were written by the engine before its integer core was
rewritten; any change to the core must leave every output byte in place.
"""

from pathlib import Path

import pytest

from wfalab import cli

GOLDEN = Path(__file__).parent / "golden"
CONFIGS = {
    "batch": Path(__file__).parent.parent / "fixtures" / "batch.json",
    "finite_general": GOLDEN / "finite_general.json",
    "weighted_line": GOLDEN / "weighted_line.json",
}


def _files(root: Path) -> list:
    return sorted(p.relative_to(root) for p in root.rglob("*") if p.is_file())


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_batch_outputs_match_golden(name, tmp_path):
    status = cli.main(["run", "--config", str(CONFIGS[name]),
                       "--out-dir", str(tmp_path)])
    assert status == 0
    expected = GOLDEN / name
    assert _files(tmp_path) == _files(expected)
    for rel in _files(expected):
        assert (tmp_path / rel).read_bytes() == (expected / rel).read_bytes(), rel
