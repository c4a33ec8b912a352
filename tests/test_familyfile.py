"""Family file round trips: text and JSON, header handling, sniffing."""

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
