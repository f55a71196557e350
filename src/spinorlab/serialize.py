"""JSON helpers; exact rationals travel as "num/den" strings."""

from __future__ import annotations

import json
from fractions import Fraction

SCHEMA = "spinor-lab/1"


def scalar_to_json(x):
    if isinstance(x, int):
        return str(x)
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)
    raise TypeError(f"cannot serialize {type(x)}")


def scalar_from_json(s):
    if not isinstance(s, str):
        raise ValueError(f"exact scalars travel as strings, not {type(s).__name__}")
    if "/" in s:
        num, den = s.split("/")
        return Fraction(int(num), int(den))
    return int(s)


def columns_to_json(columns):
    """A basis of columns as the list of its matrix's rows."""
    return [[scalar_to_json(x) for x in row] for row in zip(*columns)]


def columns_from_json(rows, n_rows) -> tuple:
    """The columns of a matrix stored as rows by columns_to_json; a
    ValueError names a shape other than n_rows rows of one positive
    width."""
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise ValueError("the basis is not a list of rows")
    if len(rows) != n_rows:
        raise ValueError(f"the basis has {len(rows)} rows, not {n_rows}")
    widths = sorted({len(row) for row in rows})
    if len(widths) > 1:
        raise ValueError(f"the basis has ragged rows, of widths {widths}")
    if widths == [0]:
        raise ValueError("the basis has zero columns")
    return tuple(list(col) for col in zip(*([scalar_from_json(x) for x in row] for row in rows)))


def dump(payload: dict, path):
    payload = {"schema": SCHEMA, **payload}
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def load(path) -> dict:
    with open(path) as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict) or payload.get("schema") != SCHEMA:
        raise ValueError(f"unexpected schema in {path}")
    return payload
