"""Family file round trips: text and JSON, header handling, sniffing,
and the errors of malformed files."""

import itertools
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antipodal import (
    BadCharacter,
    DimensionMismatch,
    EmptyInput,
    InvalidParams,
    Params,
    enumerate_v,
    example1,
    family_from_json,
    family_from_text,
    family_to_json,
    family_to_text,
    load_family,
    save_family,
)
from antipodal.vectors import format_codes, parse_codes
from _brute import brute_parse_vector

VALID_PARAMS = [
    (n, k, l)
    for n in range(2, 7)
    for k in range(1, n)
    for l in range(1, k + 1)
    if k + l <= n
]


def test_text_round_trip_frozen():
    fam = example1(Params(4, 2, 1))
    text = family_to_text(fam)
    assert text.splitlines()[0] == "V 4 2 1"
    back = family_from_text(text)
    assert back.params == fam.params
    assert back.strings() == fam.strings()


def test_text_accepts_comments_and_blank_lines():
    fam = family_from_text("# a remark\nV 4 2 1\n\n++-0\n# another\n++0-\n")
    assert fam.strings() == ("++-0", "++0-")


def test_text_headerless_infers_params():
    fam = family_from_text("++-0\n0++-\n")
    assert fam.params == Params(4, 2, 1)
    assert len(fam) == 2


def test_text_rejects_garbage():
    with pytest.raises(BadCharacter):
        family_from_text("V 4 2 1\n+?-0\n")
    with pytest.raises(EmptyInput):
        family_from_text("# nothing here\n")


def test_text_rejects_vector_against_header():
    with pytest.raises(DimensionMismatch):
        family_from_text("V 4 2 1\n++-00\n")


def test_json_round_trip():
    fam = enumerate_v(Params(4, 2, 1))
    back = family_from_json(family_to_json(fam))
    assert back.params == fam.params
    assert back.strings() == fam.strings()


@pytest.mark.parametrize(
    "text",
    [
        '[{"n": 4, "k": 2, "l": 1, "vectors": []}]',  # top level is not an object
        '"family"',
        '{"n": 4, "k": 2, "l": 1}',
        '{"n": "x", "k": 2, "l": 1, "vectors": []}',
        '{"n": "4", "k": 2, "l": 1, "vectors": []}',
        '{"n": 6.5, "k": 2, "l": 1, "vectors": []}',  # not silently truncated to 6
        '{"n": 4.0, "k": 2, "l": 1, "vectors": []}',
        '{"n": 4, "k": true, "l": 1, "vectors": []}',
        '{"n": 4, "k": 2, "l": null, "vectors": []}',
        '{"n": 4, "k": 2, "l": 1, "vectors": [5]}',
        '{"n": 4, "k": 2, "l": 1, "vectors": "++-0"}',
        '{"n": 4, "k": 2, "l": 1, "vectors": {"++-0": 1}}',
        '{"n": ' + "9" * 5000 + ', "k": 2, "l": 1, "vectors": []}',  # int digit limit
    ],
)
def test_json_rejects_malformed_fields(text):
    with pytest.raises(InvalidParams):
        family_from_json(text)


def test_load_rejects_non_utf8(tmp_path):
    path = tmp_path / "fam.txt"
    path.write_bytes(b"V 4 2 1\n++-0\n\xff\xfe\n")
    with pytest.raises(BadCharacter):
        load_family(path)


def test_save_load_sniffs_format(tmp_path):
    fam = example1(Params(5, 2, 1))
    t = tmp_path / "fam.txt"
    j = tmp_path / "fam.json"
    save_family(fam, t)
    j.write_text(family_to_json(fam))
    for path in (t, j):
        back = load_family(path)
        assert back.params == fam.params
        assert back.strings() == fam.strings()


@given(st.sampled_from(VALID_PARAMS), st.data())
@settings(max_examples=30, deadline=None)
def test_round_trip_random_subfamily(p, data):
    fam = enumerate_v(Params(*p))
    keep = data.draw(st.sets(st.sampled_from(fam.strings()), min_size=1))
    sub = fam.restrict(lambda v: str(v) in keep)
    assert family_from_text(family_to_text(sub)).strings() == sub.strings()
    assert family_from_json(family_to_json(sub)).strings() == sub.strings()


# ---------------------------------------------------------------- one-pass parse


def test_vector_lines_parse_and_format_like_the_per_character_reader():
    # Every +-0 string of length 1..8, in one call, so each line's length
    # and place in the joined text vary; format_codes spells each back.
    strings = ["".join(t) for n in range(1, 9) for t in itertools.product("+-0", repeat=n)]
    pairs = parse_codes(strings)
    assert len(pairs) == len(strings) == 9840
    for s, (n, code) in zip(strings, pairs):
        ref = brute_parse_vector(s)
        assert (n, code) == (ref.n, ref.code)
        assert format_codes([code], n) == [s]
    for n in range(1, 9):
        assert format_codes([c for m, c in pairs if m == n], n) == [s for s in strings if len(s) == n]
        assert format_codes([], n) == []
    assert parse_codes([]) == []
    assert format_codes([0], 0) == [""]
    assert format_codes([0, 0], 0) == ["", ""]


def _malformed_example1(kind: str) -> str:
    """One corruption of each kind the benchmark writes, of example1(6, 2, 1)."""
    fam = example1(Params(6, 2, 1))
    if kind == "json_cut":
        return family_to_json(fam)[:57]
    if kind == "json_field":
        return family_to_json(fam).replace('"vectors"', '"vektors"')
    lines = family_to_text(fam).splitlines()
    v = lines[3]
    edits = {
        "badchar": lambda: lines.__setitem__(3, v[:2] + "x" + v[3:]),
        "short": lambda: lines.__setitem__(3, v[:-1]),
        "overlong": lambda: lines.__setitem__(3, v + "0"),
        "extra_plus": lambda: lines.__setitem__(3, v.replace("0", "+", 1)),
        "dup_header": lambda: lines.insert(3, lines[0]),
        "bad_header": lambda: lines.__setitem__(0, "V 6 2 5"),
    }
    edits[kind]()
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "kind,error,message",
    [
        ("badchar", BadCharacter, "character 'x' at position 3 (want '+', '-' or '0')"),
        ("short", DimensionMismatch, "vector has n=5, params have n=6"),
        ("overlong", DimensionMismatch, "vector has n=7, params have n=6"),
        ("extra_plus", InvalidParams, "vector has 3 plus / 1 minus entries, params require k=2, l=1"),
        ("dup_header", InvalidParams, "line 4: duplicate header"),
        ("bad_header", InvalidParams, "need 1 <= l <= k, got k=2, l=5"),
        ("json_cut", InvalidParams,
         "invalid JSON family: Unterminated string starting at: line 6 column 5 (char 51)"),
        ("json_field", InvalidParams, "JSON family must be an object with fields n, k, l, vectors"),
    ],
)
def test_malformed_example1_raises_its_error(tmp_path, kind, error, message):
    path = tmp_path / ("fam.json" if kind.startswith("json") else "fam.txt")
    path.write_text(_malformed_example1(kind))
    with pytest.raises(error, match=re.escape(message) + "$") as info:
        load_family(path)
    assert type(info.value) is error


def _json(vectors, n=4, k=2, l=1) -> str:
    return json.dumps({"n": n, "k": k, "l": l, "vectors": vectors})


@pytest.mark.parametrize(
    "text,error,message",
    [
        # The first offending line decides, whichever check it fails.
        ("V 4 2 1\n++-0\n+++0\n++0-\n+0-+\n++-\n", InvalidParams,
         "vector has 3 plus / 0 minus entries, params require k=2, l=1"),
        ("V 4 2 1\n++-0\n++-\n+++0\n", DimensionMismatch, "vector has n=3, params have n=4"),
        ("V 4 2 1\n++-x\nV 4 2 1\n", BadCharacter, "character 'x' at position 4 (want '+', '-' or '0')"),
        ("V 4 2 1\nV 4 2 1\n++-x\n", InvalidParams, "line 2: duplicate header"),
        ("++-x\nV 4 2 1\n", BadCharacter, "character 'x' at position 4 (want '+', '-' or '0')"),
        ("++-0\nV 4 2\n", InvalidParams, "line 2: header must read 'V n k l'"),
        ("+-x0\nV 4 2 1\nV 4 2 1\n", BadCharacter, "character 'x' at position 3 (want '+', '-' or '0')"),
        ("+0\n", InvalidParams, "need 1 <= l <= k, got k=1, l=0"),
        ("++-0\n+,-0\n", BadCharacter, "character ',' at position 2 (want '+', '-' or '0')"),
        ("++-0\n++ -0\n", BadCharacter, "character ' ' at position 3 (want '+', '-' or '0')"),
        ("++-0\n++-0é\n", BadCharacter, "character 'é' at position 5 (want '+', '-' or '0')"),
        (_json(["++-0", ""]), EmptyInput, "empty vector text"),
        (_json(["++-0", "+,-0"]), BadCharacter, "character ',' at position 2 (want '+', '-' or '0')"),
        (_json(["++-0,++0-"]), BadCharacter, "character ',' at position 5 (want '+', '-' or '0')"),
        (_json(["++-0", "\ud800"]), BadCharacter, "character '\\ud800' at position 1 (want '+', '-' or '0')"),
        (_json(["++-0", " ++-0"]), BadCharacter, "character ' ' at position 1 (want '+', '-' or '0')"),
        (_json(["++-0", "++-00", "+++0"]), DimensionMismatch, "vector has n=5, params have n=4"),
        (_json(["++-0", "+++0", "++-00"]), InvalidParams,
         "vector has 3 plus / 0 minus entries, params require k=2, l=1"),
        (_json(["+x-0", "++-00"], k=5), InvalidParams, "need k + l <= n, got k+l=6, n=4"),
    ],
)
def test_first_offending_line_decides_the_error(text, error, message):
    parse = family_from_json if text.startswith("{") else family_from_text
    with pytest.raises(error, match=re.escape(message) + "$") as info:
        parse(text)
    assert type(info.value) is error


def test_load_reads_a_utf8_byte_order_mark(tmp_path):
    fam = example1(Params(5, 2, 1))
    for name, text in (("fam.txt", family_to_text(fam)), ("fam.json", family_to_json(fam))):
        plain, marked = tmp_path / name, tmp_path / f"bom-{name}"
        plain.write_text(text)
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
        a, b = load_family(plain), load_family(marked)
        assert (a.params, a.strings()) == (b.params, b.strings()) == (fam.params, fam.strings())


def test_load_rejects_a_utf16_byte_order_mark(tmp_path):
    path = tmp_path / "fam.txt"
    path.write_bytes(b"\xff\xfeV 4 2 1\n++-0\n")
    with pytest.raises(BadCharacter):
        load_family(path)
