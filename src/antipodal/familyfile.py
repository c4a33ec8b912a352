"""Reading and writing vector families.

Two formats are supported and detected automatically on read:

* text: an optional header line ``V n k l``, then one vector per line
  over the alphabet ``+ - 0``.  Blank lines and ``#`` comments are
  ignored.  Without a header the parameters are inferred from the first
  vector.
* JSON: an object ``{"n": ..., "k": ..., "l": ..., "vectors": [...]}``
  with vectors in the same text encoding.

Files are read as UTF-8, with or without a byte-order mark.  Both
readers parse all vector lines in one pass with vectors.parse_codes,
which raises parse_vector's error for the first bad line.  The family is
then checked once, as (n, code) pairs in line order
(VectorFamily.from_pairs), so the first line that does not conform
decides that error.

Both writers emit members in family order, one format_codes text per
line, so output is deterministic and diff-friendly.
"""

from __future__ import annotations

import json
from pathlib import Path

from .errors import BadCharacter, EmptyInput, InvalidParams
from .vectors import Params, VectorFamily, parse_codes

__all__ = [
    "load_family",
    "save_family",
    "family_to_text",
    "family_from_text",
    "family_to_json",
    "family_from_json",
]


def family_to_text(fam: VectorFamily) -> str:
    p = fam.params
    return "\n".join([f"V {p.n} {p.k} {p.l}", *fam.strings()]) + "\n"


def _header(line: str, lineno: int, params: Params | None) -> Params:
    fields = line.split()
    if params is not None:
        raise InvalidParams(f"line {lineno}: duplicate header")
    if len(fields) != 4:
        raise InvalidParams(f"line {lineno}: header must read 'V n k l'")
    try:
        n, k, l = (int(f) for f in fields[1:])
    except ValueError as exc:
        raise InvalidParams(f"line {lineno}: non-integer header field") from exc
    return Params(n, k, l)


def family_from_text(text: str) -> VectorFamily:
    params: Params | None = None
    lines: list[str] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("V ") or line == "V":
            try:
                params = _header(line, lineno, params)
            except InvalidParams:
                parse_codes(lines)  # a bad vector line above the header comes first
                raise
            continue
        lines.append(line)
    pairs = parse_codes(lines)
    if params is None:
        if not pairs:
            raise EmptyInput("no header and no vectors in family text")
        n, code = pairs[0]
        params = Params(n, (code & ((1 << n) - 1)).bit_count(), (code >> n).bit_count())
    return VectorFamily.from_pairs(params, pairs)


def family_to_json(fam: VectorFamily) -> str:
    p = fam.params
    payload = {"n": p.n, "k": p.k, "l": p.l, "vectors": list(fam.strings())}
    return json.dumps(payload, indent=2) + "\n"


def family_from_json(text: str) -> VectorFamily:
    try:
        payload = json.loads(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, int digit limit, deep nesting
        raise InvalidParams(f"invalid JSON family: {exc}") from exc
    if not isinstance(payload, dict) or not {"n", "k", "l", "vectors"} <= payload.keys():
        raise InvalidParams("JSON family must be an object with fields n, k, l, vectors")
    for name in ("n", "k", "l"):
        if type(payload[name]) is not int:  # bool and float are not counts
            raise InvalidParams(f"JSON field {name!r} must be an integer, got {payload[name]!r}")
    raw = payload["vectors"]
    if not isinstance(raw, list) or not all(isinstance(s, str) for s in raw):
        raise InvalidParams("JSON field 'vectors' must be a list of strings")
    params = Params(payload["n"], payload["k"], payload["l"])
    return VectorFamily.from_pairs(params, parse_codes(raw))


def load_family(path: str | Path) -> VectorFamily:
    """Read a family file, sniffing JSON vs text by the first character;
    a UTF-8 byte-order mark is dropped."""
    try:
        text = Path(path).read_bytes().decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise BadCharacter(f"family file {path} is not UTF-8 text: {exc}") from exc
    if not text.strip():
        raise EmptyInput(f"family file {path} is empty")
    if text.lstrip().startswith("{"):
        return family_from_json(text)
    return family_from_text(text)


def save_family(fam: VectorFamily, path: str | Path) -> None:
    """Write fam to path in the text format; family_to_json gives JSON."""
    Path(path).write_text(family_to_text(fam))
