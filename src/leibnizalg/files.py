"""Algebra and subspace files: a sparse JSON format with exact "p/q"
scalars, plus the canonical digest used by reports and certificates.

Zero products are omitted from the table.  Scalars are read with
``exactlin.as_scalar`` and written with ``exactlin.scalar_to_str``; a
file's scalar strings must also be in lowest terms, so that
serialization round-trips byte for byte.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path

from .algebra import LeibnizAlgebra, StructureTable
from .exactlin import Subspace, as_scalar, scalar_to_str

FORMAT_VERSION = "1"

# Largest dim an algebra file may declare; the catalog's largest bundle,
# sl8's of dim 126, fits.  A parsed table holds only its nonzero products
# (an empty dim-128 file: 0.02 MB tracemalloc peak), and the identity
# check's work follows them, but the solves grow with dim.  The benchmark
# ladder tops out at dim 30 (the sl4 bundle), and CI splits the sl8
# bundle's file.
MAX_DIM = 128


class AlgebraFileError(ValueError):
    """Malformed algebra or subspace file."""


def str_to_scalar(s: str) -> Fraction:
    if not isinstance(s, str):
        raise AlgebraFileError(f"scalar must be a string, got {s!r}")
    try:
        value = as_scalar(s)
    except TypeError:
        raise AlgebraFileError(f"scalar {s!r} is not in canonical lowest terms") from None
    except (ValueError, ZeroDivisionError) as exc:
        raise AlgebraFileError(f"bad scalar {s!r}: {exc}") from None
    if str(value) != s:
        raise AlgebraFileError(f"scalar {s!r} is not in canonical lowest terms")
    return value


def _is_index(value: object) -> bool:
    """A JSON integer; true and false are not indices even though
    ``bool`` subclasses ``int``."""
    return isinstance(value, int) and not isinstance(value, bool)


def _header(data: object) -> int:
    """The checked dim of the object / format_version / dim envelope that
    algebra and subspace files share."""
    if not isinstance(data, dict):
        raise AlgebraFileError("top level must be a JSON object")
    if data.get("format_version") != FORMAT_VERSION:
        raise AlgebraFileError(f"unsupported format_version {data.get('format_version')!r}")
    dim = data.get("dim")
    if not _is_index(dim) or dim < 0:
        raise AlgebraFileError("dim must be a nonnegative integer")
    return dim


def serialize_algebra(alg: LeibnizAlgebra) -> dict:
    table = [
        [i, j, [[k, scalar_to_str(e)] for k, e in pairs]]
        for i, products in enumerate(alg.table.nonzero)
        for j, pairs in products.items()
    ]
    return {
        "format_version": FORMAT_VERSION,
        "dim": alg.dim,
        "basis": list(alg.labels),
        "table": table,
    }


def parse_algebra(data: object, validate: bool = True) -> LeibnizAlgebra:
    dim = _header(data)
    if dim > MAX_DIM:
        raise AlgebraFileError(f"dim {dim} exceeds the limit of {MAX_DIM}")
    basis = data.get("basis")
    if (not isinstance(basis, list) or len(basis) != dim
            or not all(isinstance(b, str) for b in basis)):
        raise AlgebraFileError("basis must list one label per dimension")
    raw_table = data.get("table", [])
    if not isinstance(raw_table, list):
        raise AlgebraFileError("table must be a list of [i, j, targets] entries")
    products: dict[tuple[int, int], dict[int, Fraction]] = {}
    for entry in raw_table:
        if (not isinstance(entry, list) or len(entry) != 3
                or not _is_index(entry[0]) or not _is_index(entry[1])
                or not isinstance(entry[2], list)):
            raise AlgebraFileError(f"bad table entry {entry!r}")
        i, j, targets = entry
        if not (0 <= i < dim and 0 <= j < dim):
            raise AlgebraFileError(f"table indices ({i},{j}) out of range")
        if (i, j) in products:
            raise AlgebraFileError(f"duplicate table entry for ({i},{j})")
        row: dict[int, Fraction] = {}
        for target in targets:
            if not isinstance(target, list) or len(target) != 2 or not _is_index(target[0]):
                raise AlgebraFileError(f"bad target {target!r} in entry ({i},{j})")
            k, coeff = target
            if not 0 <= k < dim:
                raise AlgebraFileError(f"target index {k} out of range in entry ({i},{j})")
            if k in row:
                raise AlgebraFileError(f"duplicate target {k} in entry ({i},{j})")
            row[k] = str_to_scalar(coeff)
        products[(i, j)] = row
    table = StructureTable.from_map(dim, products)
    return LeibnizAlgebra(table, labels=basis, validate=validate)


def canonical_bytes(alg: LeibnizAlgebra) -> bytes:
    """Compact, key-sorted serialization; the digest input."""
    return json.dumps(serialize_algebra(alg), sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def algebra_digest(alg: LeibnizAlgebra) -> str:
    return "sha256:" + hashlib.sha256(canonical_bytes(alg)).hexdigest()


def serialize_subspace(sub: Subspace) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "dim": sub.ambient_dim,
        "rows": [[scalar_to_str(e) for e in row] for row in sub.rows()],
    }


def parse_subspace(data: object) -> Subspace:
    dim = _header(data)
    rows = data.get("rows")
    if not isinstance(rows, list):
        raise AlgebraFileError("rows must be a list of scalar-string rows")
    parsed = []
    for row in rows:
        if not isinstance(row, list) or len(row) != dim:
            raise AlgebraFileError(f"row {row!r} has wrong length")
        parsed.append([str_to_scalar(e) for e in row])
    return Subspace(dim, parsed)


def load_algebra(path: str | Path, validate: bool = True) -> LeibnizAlgebra:
    return parse_algebra(_load_json(path), validate=validate)


def load_subspace(path: str | Path) -> Subspace:
    return parse_subspace(_load_json(path))


def dump_algebra(alg: LeibnizAlgebra, path: str | Path) -> None:
    _dump_json(serialize_algebra(alg), path)


def dump_subspace(sub: Subspace, path: str | Path) -> None:
    _dump_json(serialize_subspace(sub), path)


def _dump_json(data: dict, path: str | Path) -> None:
    try:
        Path(path).write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")
    except OSError as exc:
        raise AlgebraFileError(f"cannot write {path}: {exc}") from None


def _load_json(path: str | Path) -> object:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise AlgebraFileError(f"cannot read {path}: {exc}") from None
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise AlgebraFileError(f"{path} is not valid JSON: {exc}") from None
