"""Every preset's output at its defaults, and `solq validate`'s stdout, against
the files committed under `tests/golden/`.

Non-numeric fields (headers, keys, names, pass/fail) must match exactly.
Numbers must match to GOLDEN_TOL of the largest magnitude in their column
(a `.meta` key or a `validate` line is a column of one). On failure the
test prints, per file and column, the largest change and where it is: the
moved-digit list a change that moves outputs on purpose records before it
runs `tests/regenerate_golden.py`.
"""

import math
from pathlib import Path

from regenerate_golden import GOLDEN, generate

# Reruns are byte-identical, and with OPENBLAS_NUM_THREADS=1 against two
# BLAS threads every file is byte-identical too (measured on 2 cores). What
# is left is the 12 significant digits `format_value` prints: a last digit
# that flips between hosts moves a number by up to 1e-11 of itself, so
# 1e-10 of the column's scale holds that and still shows an 8th-digit move
GOLDEN_TOL = 1e-10


def columns(path: Path) -> dict[str, list[str]]:
    """A CSV as its columns (header name -> fields); a `.meta` or `validate`
    output as one single-field column per key."""
    lines = path.read_text().splitlines()
    if path.suffix == ".csv":
        header, rows = lines[0].split(","), [line.split(",") for line in lines[1:]]
        return {name: [row[i] for row in rows] for i, name in enumerate(header)}
    return {key: [value] for key, value in (line.split("=", 1) for line in lines)}


def number(field: str) -> float | None:
    try:
        value = float(field)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def changes(golden: Path, fresh: Path) -> tuple[list[str], list[str]]:
    """(every moved column with its largest change, the ones that fail)."""
    want, got = columns(golden), columns(fresh)
    if list(want) != list(got):
        return [], [f"{golden.name}: columns {list(got)}, want {list(want)}"]
    moved, failed = [], []
    first = next(iter(want))
    for name, fields in want.items():
        if len(got[name]) != len(fields):
            failed.append(f"{golden.name} {name}: {len(got[name])} rows, want {len(fields)}")
            continue
        values = [number(f) for f in fields]
        scale = max((abs(x) for x in values if x is not None), default=0.0)
        worst, where = 0.0, None
        for row, (a, b, x) in enumerate(zip(fields, got[name], values)):
            y = number(b)
            if x is None or y is None:
                if a != b:
                    failed.append(f"{golden.name} {name} row {row}: {b!r}, want {a!r}")
                continue
            if abs(x - y) > worst or (a != b and where is None):
                worst, where = abs(x - y), row
        if where is None:
            continue
        at = f"row {where} ({first}={want[first][where]})" if len(fields) > 1 else "value"
        share = worst / scale if scale else math.inf
        line = (f"{golden.name} {name}: max |change| {worst:.3g}, "
                f"{share:.3g} of the column scale {scale:.3g}, at {at}")
        moved.append(line)
        if worst > GOLDEN_TOL * scale:
            failed.append(line)
    return moved, failed


def test_presets_and_validate_match_the_goldens(tmp_path):
    generate(tmp_path)
    names = sorted(p.name for p in GOLDEN.iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == names
    moved, failed = [], []
    for name in names:
        m, f = changes(GOLDEN / name, tmp_path / name)
        moved += m
        failed += f
    identical = [n for n in names if (GOLDEN / n).read_bytes() == (tmp_path / n).read_bytes()]
    print(f"byte-identical: {len(identical)} of {len(names)} files", *moved, sep="\n")
    assert not failed, "\n".join(["outputs moved beyond GOLDEN_TOL:", *failed,
                                  "every moved column:", *moved])


def test_guard_sees_a_moved_digit(tmp_path):
    golden, fresh = tmp_path / "a.csv", tmp_path / "b.csv"
    golden.write_text("d,x,tag\n0,0.5,gg\n1,1,gg\n2,-2,gg\n")
    fresh.write_text("d,x,tag\n0,0.5,gg\n1,1.00000001,gg\n2,-2,ge\n")
    moved, failed = changes(golden, fresh)
    assert moved == ["a.csv x: max |change| 1e-08, 5e-09 of the column scale 2, at row 1 (d=1)"]
    assert failed == [*moved, "a.csv tag row 2: 'ge', want 'gg'"]
    fresh.write_text("d,x,tag\n0,0.5,gg\n1,1.0000000001,gg\n2,-2,gg\n")
    moved, failed = changes(golden, fresh)
    assert len(moved) == 1 and failed == []
