"""Source style: every line of the package and its tests fits in 79
columns (PEP 8's limit)."""
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MAX_COLUMNS = 79


def test_lines_fit_in_79_columns():
    paths = sorted(ROOT.glob("src/**/*.py")) + sorted(ROOT.glob("tests/*.py"))
    assert len(paths) > 20
    long = [f"{path.relative_to(ROOT)}:{n}: {len(line)} columns"
            for path in paths
            for n, line in enumerate(
                path.read_text(encoding="utf-8").splitlines(), 1)
            if len(line) > MAX_COLUMNS]
    assert not long
