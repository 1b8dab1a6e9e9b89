"""System interchange files and report serialization.

A system file is a JSON document with fields ts ("continuous" or
"discrete"), A, B, C, D as row-major arrays of arrays, and E either a
row-major array or null for the identity. Numbers are written with
Python's shortest round-trip representation, so writing and re-parsing
reproduces every matrix bit for bit.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .dss import CONTINUOUS, DISCRETE, DescriptorSystem, EigenvalueList, make_dss
from .exceptions import InputError, ParseError

SCHEMA_VERSION = 1

_REQUIRED_FIELDS = ("ts", "A", "B", "C", "D", "E")


def _matrix_to_rows(M) -> list:
    return [[float(x) for x in row] for row in np.atleast_2d(M)]


def system_to_dict(sys: DescriptorSystem) -> dict:
    """JSON-ready dictionary for a system file document."""
    return {
        "schema_version": SCHEMA_VERSION,
        "ts": sys.ts,
        "A": _matrix_to_rows(sys.A),
        "E": None if sys.E is None else _matrix_to_rows(sys.E),
        "B": _matrix_to_rows(sys.B),
        "C": _matrix_to_rows(sys.C),
        "D": _matrix_to_rows(sys.D),
    }


def write_system_file(sys: DescriptorSystem, path: str) -> str:
    doc = system_to_dict(sys)
    lines = ["{"]
    keys = ["schema_version", "ts", "A", "E", "B", "C", "D"]
    for i, key in enumerate(keys):
        comma = "," if i + 1 < len(keys) else ""
        value = doc[key]
        if isinstance(value, list):
            if not value:
                lines.append(f' "{key}": []{comma}')
                continue
            lines.append(f' "{key}": [')
            for j, row in enumerate(value):
                row_comma = "," if j + 1 < len(value) else ""
                lines.append("  " + json.dumps(row) + row_comma)
            lines.append(f" ]{comma}")
        else:
            lines.append(f' "{key}": {json.dumps(value)}{comma}')
    lines.append("}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def _rows_to_matrix(value, field: str):
    if not isinstance(value, list) or any(not isinstance(r, list) for r in value):
        raise ParseError(f"field {field!r} must be an array of arrays")
    if value and len({len(r) for r in value}) != 1:
        raise ParseError(f"field {field!r} has ragged rows")
    for i, row in enumerate(value):
        for j, x in enumerate(row):
            if isinstance(x, bool) or not isinstance(x, (int, float)):
                raise ParseError(f"field {field!r} entry ({i},{j}) is not a number")
            if not math.isfinite(x):
                raise ParseError(f"field {field!r} entry ({i},{j}) is not finite")
    ncols = len(value[0]) if value else 0
    return np.array(value, dtype=float).reshape(len(value), ncols)


def system_from_dict(doc: dict, source: str = "<memory>") -> DescriptorSystem:
    if not isinstance(doc, dict):
        raise ParseError(f"{source}: top level must be a JSON object")
    for field in _REQUIRED_FIELDS:
        if field not in doc:
            raise ParseError(f"{source}: missing field {field!r}")
    ts = doc["ts"]
    if ts not in (CONTINUOUS, DISCRETE):
        raise ParseError(f"{source}: field 'ts' must be 'continuous' or 'discrete', got {ts!r}")
    A = _rows_to_matrix(doc["A"], "A")
    B = _rows_to_matrix(doc["B"], "B")
    C = _rows_to_matrix(doc["C"], "C")
    D = _rows_to_matrix(doc["D"], "D")
    # JSON drops the column count of zero-row matrices; rebuild the
    # lost shapes from the neighbors
    if D.shape[0] == 0:
        D = D.reshape(0, B.shape[1])
    if B.shape[0] == 0:
        B = B.reshape(0, D.shape[1])
    if C.shape[0] == 0:
        C = C.reshape(0, A.shape[0])
    E = doc["E"]
    E_mat = None if E is None else _rows_to_matrix(E, "E")
    return make_dss(A, E_mat, B, C, D, ts)


def parse_system_file(path: str) -> DescriptorSystem:
    """Load and validate a system file. A path that cannot be read
    raises InputError, and malformed documents (text that is not UTF-8
    included) ParseError, naming the path or the offending location;
    dimension mismatches propagate as InputError from the constructor."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except FileNotFoundError:
        raise InputError(f"system file not found: {path}") from None
    except OSError as exc:
        raise InputError(f"cannot read system file {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text at byte {exc.start}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from None
    return system_from_dict(doc, source=path)


def eigenvalues_to_json(ev: EigenvalueList) -> dict:
    """Eigenvalue list as a JSON-ready dictionary. Finite values are
    [real, imag] pairs; each infinite block becomes one entry with the
    string "inf" and its integer multiplicity."""
    return {
        "finite": [[float(z.real), float(z.imag)] for z in ev.finite],
        "infinite": [
            {"value": "inf", "multiplicity": int(k)} for k in ev.infinite_multiplicities
        ],
        "total": int(ev.total),
    }


def report_to_json(report: dict) -> str:
    """Serialize a report dictionary; floats keep their shortest
    round-trip representation."""
    return json.dumps(report, indent=1, sort_keys=False)
