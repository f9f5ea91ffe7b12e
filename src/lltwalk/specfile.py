"""Declarative walk-spec config files.

Grammar (line based; ``#`` starts a comment anywhere; blank lines ignored)::

    dim = <positive int>
    unperturbed = true | false        # optional, default false
    p <x1> ... <xnu> = <weight>       # one support point of the step law
    q <x1> ... <xnu> = <weight>       # one support point of the exit law

Weights are integers, decimals, or rationals like ``1/4``; they are read
exactly.  ``dim`` must appear before any support line.  Repeating a point
accumulates weight.  Parse errors carry the file name and line number.
"""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path

from .errors import SpecFileError
from .walk_model import LatticePMF, WalkSpec, validate_walk_spec


def _parse_weight(tok: str, where: str) -> Fraction:
    try:
        return Fraction(tok)
    except (ValueError, ZeroDivisionError):
        raise SpecFileError(f"{where}: bad weight {tok!r}") from None


def parse_spec_text(text: str, name: str = "<string>"):
    """Parse config text; returns (p, q, unperturbed, dim)."""
    dim = None
    unperturbed = False
    points: dict[str, dict[tuple, Fraction]] = {"p": {}, "q": {}}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        where = f"{name}:{lineno}"
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key = line.split(None, 1)[0].lower()
        if key == "dim":
            _, _, rhs = line.partition("=")
            try:
                dim = int(rhs.strip())
            except ValueError:
                raise SpecFileError(f"{where}: dim must be an integer, got {rhs.strip()!r}") from None
            if dim < 1:
                raise SpecFileError(f"{where}: dim must be positive")
        elif key == "unperturbed":
            _, _, rhs = line.partition("=")
            val = rhs.strip().lower()
            if val not in ("true", "false", "1", "0", "yes", "no"):
                raise SpecFileError(f"{where}: unperturbed must be true or false, got {rhs.strip()!r}")
            unperturbed = val in ("true", "1", "yes")
        elif key in ("p", "q"):
            if dim is None:
                raise SpecFileError(f"{where}: dim must be declared before support points")
            lhs, eq, rhs = line.partition("=")
            if not eq:
                raise SpecFileError(f"{where}: expected '{key} <coords> = <weight>'")
            coords = lhs.split()[1:]
            if len(coords) != dim:
                raise SpecFileError(
                    f"{where}: expected {dim} coordinate(s), got {len(coords)}"
                )
            try:
                pt = tuple(int(c) for c in coords)
            except ValueError:
                raise SpecFileError(f"{where}: coordinates must be integers: {coords}") from None
            w = _parse_weight(rhs.strip(), where)
            tbl = points[key]
            tbl[pt] = tbl.get(pt, Fraction(0)) + w
        else:
            raise SpecFileError(f"{where}: unknown directive {key!r}")

    if dim is None:
        raise SpecFileError(f"{name}: missing 'dim' line")
    for which in ("p", "q"):
        if not points[which]:
            raise SpecFileError(f"{name}: no support points given for {which}")

    p = LatticePMF.from_points(dim, points["p"])
    q = LatticePMF.from_points(dim, points["q"])
    return p, q, unperturbed, dim


def load_walk_spec(path, L: int = 4) -> WalkSpec:
    """Read a config file and return the validated WalkSpec."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise SpecFileError(f"{path}: not UTF-8 text (byte {exc.start})") from None
    p, q, unperturbed, _ = parse_spec_text(text, name=str(path))
    return validate_walk_spec(p, q, unperturbed=unperturbed, L=L)

