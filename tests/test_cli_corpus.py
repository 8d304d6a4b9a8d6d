"""Golden CLI corpus: about 580 fixed command lines, pinned by one digest.

The digest is a sha256 over each run's argument list, exit code and
stdout, in order.  Any change to a byte of stdout or to an exit code
changes it.  A change meant to alter output records the new digest, and
why it moved, in CHANGES.md.
"""
from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

from tilegate.cli import main

CORPUS_DIGEST = "260e8644fab247a4715eea9b34be618c8d1e1996f1375678b1931954be577d0c"


def _corpus():
    # yields argument lists; the verify part writes its mutant files
    # between runs, from what gen-trivial wrote
    for extra in ([], ["--json"]):
        yield ["candidates", "--range", "5..200", *extra]
    for lemma in (["--which", "3", "--max-den", "60"],
                  ["--which", "4", "--max-den", "60"],
                  ["--which", "5", "--max-den", "30", "--n-range", "5..40"],
                  ["--which", "6", "--n-range", "5..200"]):
        for extra in ([], ["--json"]):
            yield ["lemmas", *lemma, *extra]
    for n in range(5, 13):
        for v in range(2, 21):
            for u in range(1, v // 2 + 1):
                if math.gcd(u, v) == 1:
                    yield ["audit", "--n", str(n), "--alpha", f"{u}/{v}", "--json"]
    for n in range(5, 13):
        name = f"t{n}.json"
        for extra in ([], ["--json"]):
            yield ["gen-trivial", "--n", str(n), "--out", name, *extra]
        doc = json.loads(Path(name).read_text())
        tris = doc["triangles"]
        for path, triangles in ((name, None),
                                (f"t{n}-deleted.json", tris[1:]),
                                (f"t{n}-duplicated.json", tris + tris[:1])):
            if triangles is not None:
                Path(path).write_text(json.dumps({**doc, "triangles": triangles}))
            for extra in ([], ["--json"]):
                yield ["verify", path, *extra]


def test_cli_corpus_digest(tmp_path, monkeypatch, capsys):
    # gen-trivial echoes its output path, so every path is relative
    monkeypatch.chdir(tmp_path)
    digest = hashlib.sha256()
    runs = 0
    for argv in _corpus():
        code = main(argv)
        out, err = capsys.readouterr()
        assert err == "", (argv, err)
        digest.update(json.dumps([argv, code, out]).encode())
        runs += 1
    assert runs == 586
    assert digest.hexdigest() == CORPUS_DIGEST
