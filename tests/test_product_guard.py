"""One cleared-term product: only ``scalars`` multiplies integer terms into a dict.

``scalars.add_products`` is the one loop that adds products of the integer
terms of ``clear_denominators`` into an accumulator dict.  Every other module
calls it, so no line outside ``scalars.py`` accumulates with ``get(k, 0)``.
"""

import re
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "specialortho"
ACCUMULATES = re.compile(r"= get\(\w+, 0\) [+-]")


def accumulating_lines(path: Path) -> list[str]:
    return [
        f"{path.name}:{n}: {line.strip()}"
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if ACCUMULATES.search(line)
    ]


def test_only_scalars_accumulates_products():
    outside = [
        line
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "scalars.py"
        for line in accumulating_lines(path)
    ]
    assert outside == []
    # the pattern finds the loop it guards, in add_products
    assert any(
        "c * v" in line for line in accumulating_lines(PACKAGE / "scalars.py")
    )
