"""Byte-identity of the command line on a fixed corpus.

Each case runs `antipodal.cli.main` in-process, inside a temporary
directory that holds the corpus's family files, and hashes its exit
code, stdout and stderr.  Files are named by relative paths, so messages
that quote a path do not depend on where the suite runs.  The corpus
covers the certifiers and verifiers with --trace, the sampled and
exhaustive sweeps, enumerate/construct --json, and antipodal and
malformed family files, on example1, example2 and full V at twelve
triples with n <= 8.  No case depends on the wall-clock budget.

tests/data/cli_golden.json holds the expected hashes.  Regenerate it only
for an intended change of output, and say why in CHANGES.md:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from pathlib import Path

from antipodal import Params, VectorFamily, antipodal_neighbors, enumerate_v, example1, example2
from antipodal.cli import main
from antipodal.familyfile import family_to_json, save_family

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"

TRIPLES = [
    (4, 2, 1), (5, 2, 1), (5, 2, 2), (6, 2, 1), (6, 2, 2), (6, 3, 1),
    (6, 3, 2), (6, 3, 3), (7, 2, 1), (7, 3, 2), (8, 3, 2), (8, 4, 2),
]

MALFORMED = {
    "bad-char.txt": b"V 4 2 1\n++-x\n",
    "wrong-count.txt": b"V 4 2 1\n+++0\n",
    "wrong-length.json": b'{"n": 4, "k": 2, "l": 1, "vectors": ["++-"]}',
    "float-field.json": b'{"n": 4.0, "k": 2, "l": 1, "vectors": []}',
    "bad.json": b"{not json",
    "empty.txt": b"",
    "not-utf8.txt": b"V 4 2 1\n\xff\xfe\n",
    "dup-header.txt": b"V 4 2 1\nV 4 2 1\n++-0\n",
    "bad-params.txt": b"V 4 1 2\n",
}


def _planted(fam: VectorFamily) -> VectorFamily:
    """fam with the first antipodal partner of its middle member inserted
    a third of the way in."""
    members = list(fam)
    partner = antipodal_neighbors(members[len(members) // 2], fam.params)[0]
    members.insert(len(members) // 3, partner)
    return VectorFamily(fam.params, members)


def write_families(root: Path) -> None:
    for n, k, l in TRIPLES:
        p = Params(n, k, l)
        tag = f"{n}-{k}-{l}"
        save_family(example1(p), root / f"ex1-{tag}.txt")
        (root / f"ex2-{tag}.json").write_text(family_to_json(example2(p)))
        save_family(enumerate_v(p), root / f"V-{tag}.txt")
        if n >= 2 * k:
            save_family(_planted(example2(p)), root / f"anti-{tag}.txt")
    for name, data in MALFORMED.items():
        (root / name).write_bytes(data)


def cases() -> list[list[str]]:
    out: list[list[str]] = []
    for n, k, l in TRIPLES:
        tag = f"{n}-{k}-{l}"
        nkl = [str(n), str(k), str(l)]
        out.append(["enumerate", *nkl, "--json"])
        for which in ("example1", "example2", "circle"):
            out.append(["construct", which, *nkl, "--json"])
        files = [f"ex1-{tag}.txt", f"ex2-{tag}.json", f"V-{tag}.txt"]
        for fam in files:
            out += [
                ["certify", "thm1", "--trace", "--family", fam],
                ["certify", "thm2", "--trace", "--samples", "20", "--family", fam],
                ["verify", "lemma1", "--trace", "--family", fam],
                ["verify", "lemma2", "--trace", "--family", fam],
                ["verify", "double-count", *nkl, "--family", fam, "--samples", "20", "--seed", "3"],
                ["verify", "lemma3", *nkl, "--family", fam, "--samples", "20", "--seed", "3"],
            ]
            if n <= 7:
                out += [
                    ["verify", "double-count", *nkl, "--family", fam, "--exhaustive"],
                    ["verify", "lemma3", *nkl, "--family", fam, "--exhaustive"],
                ]
        if n >= 2 * k:
            anti = f"anti-{tag}.txt"
            out += [
                ["certify", "thm1", "--trace", "--family", anti],
                ["certify", "thm2", "--samples", "20", "--family", anti],
                ["verify", "lemma1", "--family", anti],
                ["verify", "lemma2", "--family", anti],
                ["verify", "lemma3", *nkl, "--family", anti, "--samples", "20"],
            ]
    for name in [*MALFORMED, "absent.txt"]:
        out += [
            ["certify", "thm1", "--family", name],
            ["certify", "thm2", "--family", name],
            ["verify", "lemma2", "--trace", "--family", name],
            ["verify", "double-count", "4", "2", "1", "--family", name, "--samples", "5"],
        ]
    out += [
        ["verify", "double-count", "4", "2", "1", "--samples", "-1"],
        ["verify", "lemma3", "7", "2", "1", "--samples", "5"],
        ["verify", "double-count", "9", "2", "1", "--exhaustive"],
        ["--threads", "0", "verify", "prop1", "4", "2", "2"],
        ["--threads", "2", "verify", "prop1", "5", "2", "2"],
        ["--threads", "2", "verify", "double-count", "6", "2", "1", "--exhaustive"],
        ["--threads", "1", "verify", "lemma3", "6", "3", "1", "--exhaustive"],
        ["certify", "thm1", "--family", "V-6-2-1.txt", "--family", "ex1-6-2-1.txt"],
    ]
    return out


def _digest(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    blob = json.dumps([code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(blob.encode()).hexdigest()


def run_corpus(root: Path) -> dict[str, str]:
    write_families(root)
    here = os.getcwd()
    os.chdir(root)
    try:
        return {" ".join(argv): _digest(argv) for argv in cases()}
    finally:
        os.chdir(here)


def test_cli_output_matches_golden_hashes(tmp_path):
    expected = json.loads(GOLDEN.read_text())
    got = run_corpus(tmp_path)
    assert list(got) == list(expected), "the corpus changed; regenerate the golden file"
    changed = [cmd for cmd in got if got[cmd] != expected[cmd]]
    assert not changed, f"{len(changed)} of {len(got)} runs changed output, e.g.\n" + "\n".join(changed[:10])


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        hashes = run_corpus(Path(tmp))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(hashes, indent=1) + "\n")
    print(f"wrote {len(hashes)} hashes to {GOLDEN}")
