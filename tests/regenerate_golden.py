"""Regenerate the golden outputs that `test_golden.py` compares against.

Writes every preset's CSV and `.meta` at its defaults, and the stdout of
`solq validate` at the defaults as `validate.txt`, into `tests/golden/`:

    PYTHONPATH=src python tests/regenerate_golden.py

Regenerate only in a change that moves the outputs on purpose, after
copying the moved-digit list that `test_golden.py` prints into CHANGES.md.
"""

import contextlib
import io
from pathlib import Path

from solq import cli
from solq.scenarios import PRESETS, Scenario, run_scenario

GOLDEN = Path(__file__).parent / "golden"


def generate(out_dir: Path) -> None:
    """Every preset's files and `validate.txt`, written into out_dir."""
    for name in PRESETS:
        run_scenario(Scenario(name=name, out_dir=out_dir))
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        cli.main(["validate"])
    (out_dir / "validate.txt").write_text(stdout.getvalue())


if __name__ == "__main__":
    generate(GOLDEN)
    print(f"wrote {len(list(GOLDEN.iterdir()))} files to {GOLDEN}")
