"""Golden-file regression test for the checked-in scenarios.

``tests/golden`` holds the CSV each ``scenarios/*.cfg`` produced before the
trajectory evaluators replaced the per-time-point quadratures.  Every run
must reproduce the header and every numeric cell to GOLDEN_ABS_TOL.
"""

import csv
from pathlib import Path

import pytest

from declab.cli import main, parse_config

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
CONFIGS = sorted((ROOT / "scenarios").glob("*.cfg"))
# Pre-registered absolute tolerance; never widened to make a change pass.
GOLDEN_ABS_TOL = 1e-12


def read_csv(path):
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


def test_every_scenario_has_a_golden_file():
    assert CONFIGS
    assert {parse_config(c.read_bytes()).out_csv for c in CONFIGS} == {
        g.name for g in GOLDEN.glob("*.csv")
    }


@pytest.mark.parametrize("config", CONFIGS, ids=[c.stem for c in CONFIGS])
def test_scenario_matches_golden(tmp_path, capsys, config):
    assert main(["run", "--config", str(config), "--out", str(tmp_path)]) == 0
    name = parse_config(config.read_bytes()).out_csv
    header, rows = read_csv(tmp_path / name)
    golden_header, golden_rows = read_csv(GOLDEN / name)
    assert header == golden_header
    assert len(rows) == len(golden_rows)
    for row, golden_row in zip(rows, golden_rows):
        assert len(row) == len(golden_row)
        for cell, golden in zip(row, golden_row):
            try:
                expected = float(golden)
            except ValueError:
                assert cell == golden
                continue
            assert abs(float(cell) - expected) <= GOLDEN_ABS_TOL, (header, row, golden_row)
