"""CLI contract: exit codes, determinism, file round trips."""

import json

import pytest

from antipodal import Params, enumerate_v, example2, family_from_json, load_family
from antipodal.cli import main
from antipodal.familyfile import save_family


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


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


def test_verify_prop1(capsys):
    code, out, _ = run(capsys, "verify", "prop1", "4", "2", "2")
    assert code == 0
    assert "counterexamples: 0" in out


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


def test_verify_lemma1_and_lemma2(tmp_path, capsys):
    path = tmp_path / "e1.txt"
    save_family(example2(Params(5, 2, 1)), path)
    for check in ("lemma1", "lemma2"):
        code, out, _ = run(capsys, "verify", check, "--family", str(path))
        assert code == 0, check
        assert out.rstrip().endswith("ok")


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
    fam = load_family(witness)
    assert len(fam) == 6


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


def test_search_arity_errors(capsys):
    assert run(capsys, "search", "4", "2")[0] == 2
    assert run(capsys, "search", "--kneser", "4", "2", "1")[0] == 2


def test_threads_flag_validation(capsys):
    code, _, err = run(capsys, "--threads", "0", "verify", "prop1", "4", "2", "2")
    assert code == 2


def test_threads_env_fallback(capsys, monkeypatch):
    monkeypatch.setenv("ANTIPODAL_THREADS", "2")
    code, out, _ = run(capsys, "verify", "prop1", "4", "2", "2")
    assert code == 0
    assert "counterexamples: 0" in out
    monkeypatch.setenv("ANTIPODAL_THREADS", "junk")
    assert run(capsys, "verify", "prop1", "4", "2", "2")[0] == 2


def test_table_runs(capsys):
    code, out, _ = run(capsys, "table", "4", "2", "--budget", "5")
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.strip().startswith("4   2   1")]
    assert len(lines) == 1
    assert "=thm2" in lines[0]


def test_table_json(capsys):
    code, out, _ = run(capsys, "table", "4", "2", "--budget", "5", "--json")
    assert code == 0
    rows = json.loads(out)
    row = next(r for r in rows if (r["n"], r["k"], r["l"]) == (4, 2, 1))
    assert row["alpha"] == 6 and row["exact"] is True
