"""CLI contract: exit codes, determinism, file round trips."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antipodal import (
    AntipodalError,
    Params,
    TooLarge,
    enumerate_v,
    example1,
    example2,
    family_from_json,
    family_to_json,
    family_to_text,
    lemma2_check,
    load_family,
)
from antipodal import circle, cli, setfamilies, theorem1
from antipodal.cli import main
from antipodal.familyfile import save_family


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_quiet(*argv):
    """main() with stdout and stderr captured, for use under Hypothesis."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_bounds_exit_zero_and_deterministic(capsys):
    code1, out1, _ = run(capsys, "bounds", "4", "2", "1")
    code2, out2, _ = run(capsys, "bounds", "4", "2", "1")
    assert code1 == code2 == 0
    assert out1 == out2
    assert "thm1      16" in out1
    assert "ekr       n/a" in out1


def test_bounds_json(capsys):
    code, out, _ = run(capsys, "bounds", "5", "2", "1", "--json")
    assert code == 0
    assert json.loads(out)["entries"]["thm2"] == 12


def test_enumerate_stdout(capsys):
    code, out, _ = run(capsys, "enumerate", "2", "1", "1")
    assert code == 0
    assert out == "V 2 1 1\n+-\n-+\n"


def test_enumerate_json_round_trips(capsys):
    code, out, _ = run(capsys, "enumerate", "4", "2", "1", "--json")
    assert code == 0
    fam = family_from_json(out)
    assert fam.params == Params(4, 2, 1)
    assert len(fam) == 12


def test_construct_writes_file(tmp_path, capsys):
    target = tmp_path / "fam.txt"
    code, out, _ = run(capsys, "construct", "example1", "4", "2", "1", "-o", str(target))
    assert code == 0
    assert load_family(target).strings() == ("++-0", "++0-", "+0+-", "0++-")


def test_construct_circle_regime_error(capsys):
    code, _, err = run(capsys, "construct", "circle", "3", "2", "1")
    assert code == 2
    assert "error:" in err


def test_invalid_params_exit_two(capsys):
    code, _, err = run(capsys, "enumerate", "3", "2", "2")
    assert code == 2
    assert "error:" in err


def test_usage_error_exit_two(capsys):
    assert main(["no-such-command"]) == 2
    assert main([]) == 2


def test_help_exit_zero(capsys):
    assert main(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: antipodal")


def test_verify_prop1(capsys):
    code, out, _ = run(capsys, "verify", "prop1", "4", "2", "2")
    assert code == 0
    assert "counterexamples: 0" in out


def test_verify_prop1_counterexamples_print_their_witnesses(capsys, monkeypatch):
    # With both caps read as 0, every maximal pair is a counterexample:
    # the sweep's leaves report them, and the first four as witnesses.
    monkeypatch.setattr(setfamilies, "math", SimpleNamespace(comb=lambda *a: 0))
    code, out, _ = run(capsys, "verify", "prop1", "4", "1", "2")
    assert code == 1
    assert out == (
        "caps: |A| <= 0 or |B| <= 0\n"
        "maximal pairs examined: 15\n"
        "counterexamples: 10\n"
        "  witness: |A|=1 A=[(4,)] |comp(A)|=3\n"
        "  witness: |A|=1 A=[(3,)] |comp(A)|=3\n"
        "  witness: |A|=2 A=[(3,), (4,)] |comp(A)|=1\n"
        "  witness: |A|=1 A=[(2,)] |comp(A)|=3\n"
    )


def test_verify_double_count_mismatch_exit_one(capsys, monkeypatch):
    # 1! read as 0 makes the closed form 0, which the permutation sum of
    # a nonempty family cannot match.
    monkeypatch.setattr(circle, "math", SimpleNamespace(factorial=lambda x: 0 if x == 1 else math.factorial(x)))
    code, out, _ = run(capsys, "verify", "double-count", "4", "2", "1", "--exhaustive")
    assert code == 1
    assert out.endswith(
        "sum over sigma: 96\n"
        "closed form:    0\n"
        'violation [double-count]: permutation sum does not match the closed form {"lhs": 96, "rhs": 0}\n'
        "FAILED\n"
    )


@pytest.mark.parametrize(
    "patch, violation",
    [
        (
            # C(5,2) read as 0: the accounting lower bound becomes |F| = 10.
            ("choose", lambda n, r: 0 if (n, r) == (5, 2) else math.comb(n, r)),
            'violation [accounting]: survivor count fell below the accounting lower bound '
            '{"survivors": 9, "lower_bound": 10}',
        ),
        (
            # C(5,3) read as 0: the survivor cap C(n,k+l) C(k+l-1,l-1) becomes 0.
            ("choose", lambda n, r: 0 if (n, r) == (5, 3) else math.comb(n, r)),
            'violation [survivor-cap]: survivors exceed C(n,k+l) C(k+l-1,l-1) {"survivors": 9, "cap": 0}',
        ),
        (
            ("theorem1_bound", lambda p: 0),
            'violation [final-bound]: family exceeds the two-term bound {"size": 10, "bound": 0}',
        ),
    ],
    ids=["accounting", "survivor-cap", "final-bound"],
)
def test_certify_thm1_violations_exit_one(tmp_path, capsys, monkeypatch, patch, violation):
    path = tmp_path / "ex1.txt"
    save_family(example1(Params(5, 2, 1)), path)
    monkeypatch.setattr(theorem1, *patch)
    code, out, _ = run(capsys, "certify", "thm1", "--family", str(path))
    assert code == 1
    assert out.splitlines()[-2:] == [violation, "FAILED"]


def test_verify_lemma3_regime_exit_two(capsys):
    code, _, err = run(capsys, "verify", "lemma3", "9", "3", "1")
    assert code == 2
    assert "3k - l" in err


def test_verify_lemma3_default_family(capsys):
    code, out, _ = run(capsys, "verify", "lemma3", "4", "2", "1", "--exhaustive")
    assert code == 0
    assert "max |H(sigma) cap F|: 2 (cap 2)" in out


def test_verify_double_count(capsys):
    code, out, _ = run(capsys, "verify", "double-count", "4", "2", "1", "--exhaustive")
    assert code == 0
    assert "sum over sigma: 96" in out


@pytest.mark.parametrize("check", ["lemma3", "double-count"])
def test_verify_family_with_other_params_exit_two(tmp_path, capsys, check):
    path = tmp_path / "fam.txt"
    save_family(example2(Params(5, 2, 1)), path)
    code, out, err = run(capsys, "verify", check, "6", "3", "1", "--family", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: family file has params ")


def test_verify_lemma1_and_lemma2(tmp_path, capsys):
    path = tmp_path / "e1.txt"
    save_family(example2(Params(5, 2, 1)), path)
    for check in ("lemma1", "lemma2"):
        code, out, _ = run(capsys, "verify", check, "--family", str(path))
        assert code == 0, check
        assert out.rstrip().endswith("ok")


@pytest.mark.parametrize("triple", [(4, 2, 1), (5, 2, 1), (6, 2, 2), (7, 3, 1)])
def test_verify_lemma2_trace_is_lemma2_check(tmp_path, capsys, triple):
    for build in (example1, example2):
        fam = build(Params(*triple))
        path = tmp_path / f"{build.__name__}.txt"
        save_family(fam, path)
        code, out, _ = run(capsys, "verify", "lemma2", "--family", str(path), "--trace")
        assert code == 0
        assert json.loads(out[out.index("{") :]) == lemma2_check(fam).as_dict()


def test_verify_lemma1_counts_ordered_pairs(tmp_path, capsys):
    path = tmp_path / "e2.txt"
    save_family(example2(Params(4, 2, 1)), path)
    code, out, _ = run(capsys, "verify", "lemma1", "--family", str(path))
    assert code == 0
    assert "disjoint pairs checked: 12\n" in out  # 4 * 3 ordered disjoint 1-sets


def test_certify_thm1_pass_and_fail(tmp_path, capsys):
    good = tmp_path / "good.txt"
    bad = tmp_path / "bad.txt"
    save_family(example2(Params(5, 2, 1)), good)
    save_family(enumerate_v(Params(4, 2, 1)), bad)
    code, out, _ = run(capsys, "certify", "thm1", "--family", str(good))
    assert code == 0 and "certified" in out
    code, out, _ = run(capsys, "certify", "thm1", "--family", str(bad))
    assert code == 1 and "FAILED" in out
    assert "antipodal" in out


def test_certify_thm1_trace_is_json(tmp_path, capsys):
    path = tmp_path / "fam.txt"
    save_family(example2(Params(4, 2, 1)), path)
    code, out, _ = run(capsys, "certify", "thm1", "--family", str(path), "--trace")
    assert code == 0
    blob = json.loads(out[out.index("{") :])
    assert blob["ok"] is True


def test_certify_thm2(tmp_path, capsys):
    path = tmp_path / "fam.txt"
    save_family(example2(Params(5, 2, 1)), path)
    code, out, _ = run(capsys, "certify", "thm2", "--family", str(path))
    assert code == 0
    assert "circle bound: 12" in out


def test_certify_thm2_regime_exit_two(tmp_path, capsys):
    path = tmp_path / "fam.txt"
    save_family(example2(Params(6, 2, 2)), path)
    code, _, err = run(capsys, "certify", "thm2", "--family", str(path))
    assert code == 2


def test_search_text_and_witness(tmp_path, capsys):
    witness = tmp_path / "w.txt"
    code, out, _ = run(capsys, "search", "4", "2", "1", "--witness", str(witness))
    assert code == 0
    assert "alpha(4,2,1) = 6" in out
    assert out.splitlines()[-1] == f"witness written to {witness}"
    fam = load_family(witness)
    assert len(fam) == 6


@pytest.mark.parametrize("fmt", [(), ("--json",)], ids=["text", "json"])
def test_search_witness_write_failure_prints_no_result(tmp_path, capsys, fmt):
    code, out, err = run(capsys, "search", "5", "2", "1", *fmt, "--witness", str(tmp_path / "absent" / "w.txt"))
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_search_json(capsys):
    code, out, _ = run(capsys, "search", "4", "2", "1", "--json")
    assert code == 0
    blob = json.loads(out)
    assert blob["optimum"] == 6
    assert blob["exact"] is True


def test_search_kneser(capsys):
    code, out, _ = run(capsys, "search", "--kneser", "5", "2")
    assert code == 0
    assert "= 4" in out


def test_search_kneser_with_witness_exit_two(tmp_path, capsys):
    witness = tmp_path / "w.txt"
    code, out, err = run(capsys, "search", "--kneser", "5", "2", "--witness", str(witness))
    assert code == 2
    assert out == ""
    assert err == "error: --witness applies to vector search only\n"
    assert not witness.exists()


@pytest.mark.parametrize("k", ["0", "5"])
def test_search_kneser_k_out_of_range_exit_two(capsys, k):
    code, out, err = run(capsys, "search", "--kneser", "3", k)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_search_kneser_over_the_vertex_cap_exit_two(capsys):
    code, out, err = run(capsys, "search", "--kneser", "20", "5")  # C(20,5) = 15,504
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "vertex cap" in err


def test_search_kneser_over_the_vertex_cap_exit_two_without_counting(capsys):
    # C(20000,10000) has about 6,000 digits, more than Python formats.
    start = time.monotonic()
    code, out, err = run(capsys, "search", "--kneser", "20000", "10000")
    assert time.monotonic() - start < 0.5
    assert code == 2
    assert out == ""
    assert err == "error: C(20000,10000) exceeds the vertex cap 5000\n"


@pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["text", "json"])
def test_bounds_over_the_digit_limit_exit_two(capsys, json_flag):
    code, out, err = run(capsys, "bounds", "20000", "10000", "5000", *json_flag)
    assert code == 2
    assert out == ""
    assert err == "error: |V(20000,10000,5000)| has more than 4300 digits, the int-to-string limit\n"


def test_bounds_over_the_digit_limit_exit_two_without_counting_v(capsys):
    # |V(1000000,500000,250000)| has about 450,000 digits; the limit is
    # decided without computing it.
    start = time.monotonic()
    code, out, err = run(capsys, "bounds", "1000000", "500000", "250000")
    assert time.monotonic() - start < 0.5
    assert code == 2
    assert out == ""
    assert err.startswith("error: |V(1000000,500000,250000)| has more than")


def test_bounds_exit_two_when_only_a_bound_is_over_the_digit_limit(capsys):
    # |V(14270,7134,1)| has 4,298 digits, thm1 4,301.
    code, out, err = run(capsys, "bounds", "14270", "7134", "1")
    assert code == 2
    assert out == ""
    assert err == "error: thm1 at (14270,7134,1) has more than 4300 digits, the int-to-string limit\n"


def test_search_over_the_vertex_cap_exit_two_without_counting_v(capsys):
    # |V(200000,100000,50000)| has about 90,000 digits; the cap is
    # decided without computing it.
    start = time.monotonic()
    code, out, err = run(capsys, "search", "200000", "100000", "50000")
    assert time.monotonic() - start < 0.5
    assert code == 2
    assert out == ""
    assert err == "error: |V(200000,100000,50000)| exceeds the vertex cap 5000\n"


def test_verify_prop1_over_the_sweep_cap_exit_two_without_counting(capsys):
    # C(200000,100000) has about 60,000 digits; the cap is decided without computing it.
    start = time.monotonic()
    code, out, err = run(capsys, "verify", "prop1", "200000", "100000", "100000")
    assert time.monotonic() - start < 0.5
    assert code == 2
    assert out == ""
    assert err == "error: sweep needs C(200000,100000) and C(200000,100000) <= 12\n"


def test_construct_circle_over_the_size_cap_exit_two(capsys):
    # H at n = 100,000 would print 10^10 characters.
    start = time.monotonic()
    code, out, err = run(capsys, "construct", "circle", "100000", "2", "1")
    assert time.monotonic() - start < 0.5
    assert code == 2
    assert out == ""
    assert err == "error: circle family capped at n <= 1000, got n=100000\n"


def test_negative_samples_exit_two(capsys):
    code, out, err = run(capsys, "verify", "lemma3", "6", "3", "1", "--samples", "-3")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_nan_budget_exit_two(capsys):
    code, out, err = run(capsys, "search", "4", "2", "1", "--budget", "nan")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("argv", [("search", "5", "2", "1"), ("search", "--kneser", "5", "2"), ("table", "4", "2")])
def test_negative_budget_exit_two(capsys, argv):
    code, out, err = run(capsys, *argv, "--budget", "-1")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "budget" in err


def test_zero_and_infinite_budget_accepted(capsys):
    code, out, _ = run(capsys, "search", "5", "2", "1", "--budget", "0")
    assert code == 0 and "proved optimal: no" in out
    code, out, _ = run(capsys, "search", "5", "2", "1", "--budget", "inf")
    assert code == 0 and "proved optimal: yes" in out


def test_search_arity_errors(capsys):
    assert run(capsys, "search", "4", "2")[0] == 2
    assert run(capsys, "search", "--kneser", "4", "2", "1")[0] == 2


def test_threads_flag_validation(capsys):
    code, _, err = run(capsys, "--threads", "0", "verify", "prop1", "4", "2", "2")
    assert code == 2


@pytest.mark.parametrize("argv", [("search", "5", "2", "1"), ("bounds", "5", "2", "1")], ids=["search", "bounds"])
def test_threads_below_one_exit_two_for_every_command(capsys, argv):
    code, out, err = run(capsys, "--threads", "0", *argv)
    assert code == 2
    assert out == ""
    assert err == "error: thread count must be >= 1, got 0\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "double-count", "6", "2", "1", "--exhaustive"),
        ("verify", "lemma3", "6", "3", "1", "--exhaustive"),
    ],
    ids=["double-count", "lemma3"],
)
def test_threads_do_not_change_sweep_output(capsys, argv):
    one = run(capsys, "--threads", "1", *argv)
    two = run(capsys, "--threads", "2", *argv)
    assert one[0] == 0
    assert one == two


def test_missing_family_file_exit_two(tmp_path, capsys):
    code, out, err = run(capsys, "certify", "thm1", "--family", str(tmp_path / "absent.txt"))
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def _run_header_only(tmp_path, capsys, header, *argv):
    """Exit code and stderr of argv on a family file holding only a header,
    checked to finish within a second and print nothing on stdout."""
    path = tmp_path / "header.txt"
    path.write_text(header + "\n")
    start = time.monotonic()
    code, out, err = run(capsys, *argv, "--family", str(path))
    assert time.monotonic() - start < 1.0
    assert out == ""
    return code, err


@pytest.mark.parametrize("header", ["V 100000 2 2", "V 3000 2 1", "V 1000000 500000 250000"])
@pytest.mark.parametrize("argv", [("certify", "thm1"), ("verify", "lemma1"), ("verify", "lemma2")])
def test_pair_walk_over_the_cap_exit_two(tmp_path, capsys, header, argv):
    # The ordered l-pairs grow with the header's n, not with the file; the
    # last count has about 450,000 digits and is never computed.
    code, err = _run_header_only(tmp_path, capsys, header, *argv)
    assert code == 2
    assert err.startswith("error: ") and "exceed the pair cap" in err


@pytest.mark.parametrize(
    "vectors",
    [["++-" + "0" * 9997], ["++-" + "0" * 9997, "-0++" + "0" * 9996]],
    ids=["one vector", "antipodal pair"],
)
@pytest.mark.parametrize("argv", [("certify", "thm1"), ("verify", "lemma1"), ("verify", "lemma2")])
def test_pair_cap_comes_before_the_antipodal_free_precheck(tmp_path, capsys, vectors, argv):
    # The precheck's partner lists for one vector grow quadratically in n
    # (29 MB here); the pair cap is a count, so the file exits 2 first,
    # also when it holds an antipodal pair.
    path = tmp_path / "long.txt"
    path.write_text("\n".join(["V 10000 2 1", *vectors]) + "\n")
    tracemalloc.start()
    try:
        code, out, err = run(capsys, *argv, "--family", str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "exceed the pair cap" in err
    assert peak < 2 * 2**20


def test_pair_walk_at_the_largest_certify_triple(tmp_path, capsys):
    # (10,5,3) has C(10,3) C(7,3) = 4,200 ordered pairs, far below the cap.
    path = tmp_path / "header.txt"
    path.write_text("V 10 5 3\n")
    code, out, _ = run(capsys, "verify", "lemma1", "--family", str(path))
    assert code == 0
    assert "disjoint pairs checked: 4200\n" in out


def test_certify_thm2_over_the_sweep_cap_exit_two(tmp_path, capsys):
    # Building the circle family of a header's n costs n^2.
    code, err = _run_header_only(tmp_path, capsys, "V 100000 40000 20000", "certify", "thm2")
    assert code == 2
    assert err == "error: sample sweep capped at n <= 100, got n=100000\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("enumerate", "40", "10", "10"),
        ("construct", "example1", "40", "10", "10"),
        ("construct", "example2", "40", "10", "10"),
        ("verify", "double-count", "40", "10", "10"),
        ("verify", "lemma3", "60", "25", "10"),
        # |V| has about 450,000 digits here, and C(n, k+l) alone takes
        # seconds in the second case; the cap is decided without either.
        ("enumerate", "1000000", "500000", "250000"),
        ("enumerate", "1000000", "150000", "1"),
    ],
    ids=lambda argv: " ".join(argv[:2]),
)
def test_enumeration_over_the_cap_exit_two(capsys, argv):
    # V(n, k, l) is enumerated from the command line's n, k, l alone.
    n, k, l = argv[-3:]
    start = time.monotonic()
    code, out, err = run(capsys, *argv)
    assert time.monotonic() - start < 1.0
    assert code == 2
    assert out == ""
    assert err == f"error: |V({n},{k},{l})| exceeds the enumeration cap 200000\n"


# ---------------------------------------------------------------- exit-code contract

_SEED_FILES = [
    family_to_text(example2(Params(4, 2, 1))).encode(),
    family_to_json(example2(Params(4, 2, 1))).encode(),
    "\n".join(enumerate_v(Params(5, 2, 1)).strings()[:6]).encode(),  # headerless
]

_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12) | st.floats() | st.text("+-0 x", max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.sampled_from("nklv"), inner, max_size=3),
    max_leaves=6,
)


def _check_exit_contract(data: bytes) -> None:
    """Exit 2 with an error line exactly when the file does not load;
    otherwise the verifiers answer 0 or 1.  Never a traceback."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "family")
        with open(path, "wb") as fh:
            fh.write(data)
        try:
            load_family(path)
            loads = True
        except AntipodalError:
            loads = False
        for argv in (("certify", "thm1", "--family", path), ("verify", "lemma2", "--family", path)):
            code, out, err = run_quiet(*argv)
            if loads:
                assert code in (0, 1), (argv, err)
            else:
                assert code == 2, argv
                assert out == "" and err.startswith("error:")


@given(
    st.sampled_from(range(len(_SEED_FILES))),
    st.lists(
        st.tuples(st.sampled_from("rid"), st.integers(0, 200), st.integers(0, 255)),
        min_size=1,
        max_size=4,
    ),
)
@settings(max_examples=150, deadline=None)
def test_mutated_family_files_keep_exit_contract(which, edits):
    # byte-level replace / insert / delete, non-UTF-8 bytes included
    data = bytearray(_SEED_FILES[which])
    for op, pos, byte in edits:
        pos %= len(data) + 1
        if op == "i":
            data.insert(pos, byte)
        elif pos < len(data):
            if op == "r":
                data[pos] = byte
            else:
                del data[pos]
    _check_exit_contract(bytes(data))


@given(st.sampled_from(["n", "k", "l", "vectors", None]), _JSON_VALUES)
@settings(max_examples=150, deadline=None)
def test_mistyped_json_fields_keep_exit_contract(field, value):
    payload = {"n": 4, "k": 2, "l": 1, "vectors": ["++-0", "++0-"]}
    if field is None:
        payload = value  # a top level that is not the family object
    else:
        payload[field] = value
    _check_exit_contract(json.dumps(payload).encode())


def test_table_runs(capsys):
    code, out, _ = run(capsys, "table", "4", "2", "--budget", "5")
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.strip().startswith("4   2   1")]
    assert len(lines) == 1
    assert "=thm2" in lines[0]


@pytest.mark.parametrize("nmax,kmax", [("1", "2"), ("4", "0"), ("-3", "-1")])
def test_table_empty_range_exit_two(capsys, nmax, kmax):
    code, out, err = run(capsys, "table", nmax, kmax)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_table_json(capsys):
    code, out, _ = run(capsys, "table", "4", "2", "--budget", "5", "--json")
    assert code == 0
    rows = json.loads(out)
    row = next(r for r in rows if (r["n"], r["k"], r["l"]) == (4, 2, 1))
    assert row["alpha"] == 6 and row["exact"] is True


def test_table_zero_budget_rows_are_lower_bounds(capsys):
    code, out, _ = run(capsys, "table", "5", "2", "--budget", "0")
    assert code == 0
    rows = out.splitlines()[2:]
    assert len(rows) == 9
    assert all(row.split()[9].startswith(">=") for row in rows)
    code, out, _ = run(capsys, "table", "5", "2", "--budget", "0", "--json")
    assert code == 0
    assert all(r["exact"] is False and r["tight"] == [] for r in json.loads(out))


def test_table_skips_a_triple_over_the_cap(capsys, monkeypatch):
    solve = cli.max_antipodal_free

    def too_large_at_4_2_1(p, budget):
        if p == Params(4, 2, 1):
            raise TooLarge("|V|=12 exceeds the vertex cap 5000")
        return solve(p, budget=budget)

    monkeypatch.setattr(cli, "max_antipodal_free", too_large_at_4_2_1)
    code, out, _ = run(capsys, "table", "4", "2", "--budget", "5")
    assert code == 0
    row = next(ln for ln in out.splitlines() if ln.split()[:3] == ["4", "2", "1"])
    assert row.split()[9] == "skipped"
    code, out, _ = run(capsys, "table", "4", "2", "--budget", "5", "--json")
    rows = {(r["n"], r["k"], r["l"]): r for r in json.loads(out)}
    assert {key: rows[(4, 2, 1)][key] for key in ("alpha", "exact", "tight")} == {
        "alpha": None,
        "exact": False,
        "tight": [],
    }
    assert rows[(4, 2, 2)]["alpha"] == 3


def test_parser_is_built_once(capsys):
    # One parser serves every main call; an error exit leaves it reusable.
    assert cli._build_parser() is cli._build_parser()
    first = run(capsys, "bounds", "6", "2", "1")
    assert run(capsys, "bounds", "6", "2")[0] == 2
    assert run(capsys, "bounds", "6", "2", "1") == first


@pytest.mark.parametrize("argv,code", [(["search", "5", "2", "1"], 0), (["search", "5", "2"], 2)])
def test_python_dash_m_runs_the_cli(argv, code):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "antipodal", *argv], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == code, proc.stderr
    if code == 0:
        assert proc.stdout.splitlines()[0].startswith("alpha(5,2,1) = 12")


@pytest.mark.parametrize(
    "run,code",
    [
        (None, 0),
        ("antipodal", 1),
        ("malformed", 2),
        pytest.param("double-count 8 3 2", 0, id="double-count-8-3-2"),
        pytest.param("lemma3 8 3 1", 0, id="lemma3-8-3-1"),
    ],
)
def test_python_dash_capital_o_prints_the_same(tmp_path, run, code):
    # No check relies on assert: under python -O, search, certify thm1 and
    # the exhaustive sweeps print the same bytes and exit with the same code.
    save_family(enumerate_v(Params(4, 2, 1)), tmp_path / "antipodal.txt")
    (tmp_path / "malformed.txt").write_text("V 4 2 1\n++-x\n")
    if run is None:
        argv = ["search", "6", "2", "1"]
    elif run in ("antipodal", "malformed"):
        argv = ["certify", "thm1", "--family", str(tmp_path / f"{run}.txt")]
    else:
        argv = ["verify", *run.split(), "--exhaustive"]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    plain, optimized = (
        subprocess.run([sys.executable, *flags, "-m", "antipodal", *argv], capture_output=True, text=True, env=env, timeout=120)
        for flags in ([], ["-O"])
    )
    assert plain.returncode == optimized.returncode == code, plain.stderr
    assert plain.stdout == optimized.stdout
    assert plain.stderr == optimized.stderr
