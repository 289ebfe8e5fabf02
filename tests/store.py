"""The stores of pinned numbers in tests/pins/, written by tests/regen.py:
``<name>.txt`` holds one ``repr((key, value))`` a line, so that a float
reads back bit for bit, and ``golden/`` the CLI's text, a file per command.
``oracle`` maps (alpha, rho, beta, g') to the 30-digit integral's (value,
error estimate)."""

import ast
import functools
from pathlib import Path

PINS = Path(__file__).resolve().parent / "pins"


def load(name: str) -> dict:
    if name == "golden":
        return {path.stem: path.read_text() for path in sorted((PINS / name).iterdir())}
    return dict(map(ast.literal_eval, (PINS / f"{name}.txt").read_text().splitlines()))


def dumps(table: dict) -> str:
    return "".join(f"{item!r}\n" for item in table.items())


_oracle = functools.cache(lambda: load("oracle"))


def oracle(*point) -> tuple[float, float]:
    """(value, error estimate) of the stored integral at (alpha, rho, beta, g')."""
    if (found := _oracle().get(point)) is None:
        raise LookupError(f"no oracle value at {point}: add it to its module's "
                          "ORACLE_POINTS and run python tests/regen.py oracle")
    return found
