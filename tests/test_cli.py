"""End-to-end CLI behavior: output shapes, determinism, exit codes."""
from __future__ import annotations

import copy
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from tilegate.cli import main
from tilegate.exact import CycloReal
from tilegate.tiling import Tiling, gen_trivial, load_tiling, save_tiling, verify

ROOT = Path(__file__).resolve().parent.parent


def test_candidates_single_json(run_cli):
    result = run_cli(["candidates", "--n", "8", "--json"])
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["n"] == 8
    assert payload["provenance"] == "Corollary_8gon"
    assert [c["a"] for c in payload["candidates"]] == ["1/4", "1/2"]
    assert payload["candidates"][0]["alpha"] == "pi/8"


def test_candidates_single_human(run_cli):
    result = run_cli(["candidates", "--n", "26"])
    assert result.returncode == 0
    assert result.stdout.startswith("n=26 Theorem1:")
    assert "pi/26" in result.stdout


def test_candidates_range_streams_one_object_per_line(run_cli):
    result = run_cli(["candidates", "--range", "5..10", "--json"])
    assert result.returncode == 0
    lines = result.stdout.splitlines()
    assert len(lines) == 6
    ns = [json.loads(line)["n"] for line in lines]
    assert ns == [5, 6, 7, 8, 9, 10]


def test_candidates_json_byte_stable_across_hash_seeds(run_cli):
    env1 = dict(os.environ, PYTHONHASHSEED="1")
    env2 = dict(os.environ, PYTHONHASHSEED="31337")
    a = run_cli(["candidates", "--range", "5..30", "--json"], env=env1)
    b = run_cli(["candidates", "--range", "5..30", "--json"], env=env2)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_candidates_usage_errors(run_cli):
    for args in (["candidates"],
                 ["candidates", "--n", "8", "--range", "5..9"],
                 ["candidates", "--range", "9..5"],
                 ["candidates", "--range", "\u0665..\u0666"],  # Arabic-Indic 5..6
                 ["candidates", "--range", "5..1" + "0" * 5000],
                 ["candidates", "--range", "5..100000000000000000000"],
                 ["lemmas", "--which", "6", "--n-range", "5..100000000000000000000"],
                 ["candidates", "--n", "4"],
                 ["candidates", "--n", "x" * 100_000],
                 ["candidates", "--n", "9" * 5000],
                 ["audit", "--n", "1" + "0" * 4999, "--alpha", "1/5"],
                 ["gen-trivial", "--n", "x" * 100_000, "--out", "unused.json"],
                 ["lemmas", "--which", "3", "--max-den", "x" * 100_000],
                 ["lemmas", "--which", "3", "--max-den", "9" * 5000],
                 ["verify", "a" * 100_000],
                 ["gen-trivial", "--n", "8", "--out", "d" * 5000 + "/t.json"]):
        result = run_cli(args)
        assert result.returncode == 2, args
        assert result.stdout == ""
        assert len(result.stderr.strip().splitlines()) == 1
        assert len(result.stderr) < 300
        assert "Traceback" not in result.stderr


def test_lemmas_max_den_is_capped(capsys):
    from tilegate.vertex import MAX_DEN_LIMIT

    for value in (str(MAX_DEN_LIMIT + 1), "9" * 4000):
        start = time.perf_counter()
        assert main(["lemmas", "--which", "4", "--max-den", value]) == 2
        assert time.perf_counter() - start < 1.0
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1 and len(err) < 300


def test_lemmas_l5_size_is_capped(capsys):
    # the L5 audit costs about |n range| * max_den**2; each cap alone
    # admits this pair, which would run for weeks
    args = ["lemmas", "--which", "5", "--max-den", "2000", "--n-range", "5..999999"]
    err = _exit_two_in_one_line(args, capsys)
    assert len(err) < 300
    # 196 n values at max_den 320 is just over the limit
    args = ["lemmas", "--which", "5", "--max-den", "320", "--n-range", "5..200"]
    assert "exceeds the limit" in _exit_two_in_one_line(args, capsys)


def test_successive_calls_share_one_parser(capsys):
    # the parser is built once per process: an option of one call does
    # not leak into the next, and a usage error still takes one line
    assert main(["candidates", "--n", "8"]) == 0
    assert main(["candidates", "--range", "5..6"]) == 0
    out, err = capsys.readouterr()
    assert [line.split()[0] for line in out.splitlines()] == ["n=8", "n=5", "n=6"]
    assert err == ""
    _exit_two_in_one_line(["candidates"], capsys)


def test_audit_impossible_exits_zero(run_cli):
    result = run_cli(["audit", "--n", "8", "--alpha", "1/5"])
    assert result.returncode == 0
    assert "Impossible" in result.stdout
    assert "[corner_unsolvable]" in result.stdout


def test_audit_not_excluded_exits_zero(run_cli):
    result = run_cli(["audit", "--n", "8", "--alpha", "1/4", "--json"])
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["outcome"] == "NotExcluded"
    assert payload["alpha"] == "pi/8"
    assert payload["trace"]


def test_audit_rejects_bad_alpha(run_cli):
    for alpha in ("0.3", "1/0", "1/00", "-1/5", "2/3", "1", "\u0661/\u0665",
                  "1/" + "9" * 5000):
        result = run_cli(["audit", "--n", "8", "--alpha", alpha])
        assert result.returncode == 2, alpha
        assert "Traceback" not in result.stderr


# Everything the one fraction grammar (-?D or -?D/D, D of 1..300 ASCII
# digits, nonzero denominator) must refuse.
BAD_FRACTIONS = ["", " 1", "1 ", "+1", "1.0", "0.0", "1e3", "1_0", "\u0661",
                 "1/0", "1/-2", "--1", "1" * 301, "1/" + "1" * 301]


def _exit_two_in_one_line(args, capsys, prefix="tilegate: "):
    # in-process, so an escaping exception fails the test as a traceback would
    start = time.perf_counter()
    assert main(args) == 2, args
    assert time.perf_counter() - start < 1.0, args
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(prefix) and err.count("\n") == 1, err
    return err


@pytest.mark.parametrize("text", BAD_FRACTIONS)
def test_fraction_grammar_rejected_in_every_position(text, tmp_path, capsys):
    doc = gen_trivial(5).to_obj()
    bad_coeff = copy.deepcopy(doc)
    bad_coeff["triangles"][0]["v"][1][0]["coeffs"][0] = text
    for what, bad in (("alpha", {**doc, "alpha": text}), ("coefficient", bad_coeff)):
        path = tmp_path / f"{what}.json"
        path.write_text(json.dumps(bad))
        _exit_two_in_one_line(["verify", str(path)], capsys, f"tilegate: {what} must be")
    _exit_two_in_one_line(["audit", "--n", "8", f"--alpha={text}"], capsys,
                          "tilegate: alpha must be")


def test_hostile_files_exit_two_quickly(tmp_path, capsys):
    doc = gen_trivial(5).to_obj()
    huge = 20 * (10**16 + 61)  # prime factor: factoring it would take seconds
    big_modulus = copy.deepcopy(doc)
    big_modulus["modulus"] = huge
    for tri in big_modulus["triangles"]:
        for point in tri["v"]:
            for coord in point:
                coord["modulus"] = huge
    overflow = copy.deepcopy(doc)
    overflow["triangles"][0]["v"][1][0]["coeffs"][0] = "1e100000"
    non_real = copy.deepcopy(doc)  # the coordinate zeta_20
    non_real["triangles"][0]["v"][1][0]["coeffs"] = ["0", "1"] + ["0"] * 6
    payloads = [
        b"[" * 100_000,
        b'{"format": "\xff"}',
        b'{"n": ' + b"9" * 5000 + b"}",
        json.dumps(big_modulus).encode(),
        json.dumps({**doc, "modulus": huge, "triangles": []}).encode(),
        json.dumps(overflow).encode(),
        json.dumps({**doc, "alpha": "1/" + "9" * 5000}).encode(),
        json.dumps(non_real).encode(),
    ]
    path = tmp_path / "hostile.json"
    for payload in payloads:
        path.write_bytes(payload)
        _exit_two_in_one_line(["verify", str(path)], capsys)
    # values echoed from the file are shortened
    deep_n = 5
    for _ in range(900):
        deep_n = [deep_n]
    long_modulus = copy.deepcopy(doc)  # refused by the field
    for tri in long_modulus["triangles"]:
        for point in tri["v"]:
            for coord in point:
                coord["modulus"] = 20 * 10**3998
    echoes = [
        {**doc, "format": "x" * 100_000},
        {**doc, "n": deep_n},
        {**doc, "modulus": 2 * 10**3999 + 2, "triangles": []},  # refused by Tiling
        long_modulus,
    ]
    for obj in echoes:
        path.write_text(json.dumps(obj))
        assert len(_exit_two_in_one_line(["verify", str(path)], capsys)) < 300


def test_field_rule_is_decided_at_load(tmp_path, capsys):
    # n = 5, alpha 1/2 and modulus 20, which cannot express the rotation
    # by pi/4: whatever the triangles, the file exits 2 at load
    def rational(x):
        return CycloReal.from_rational(x, 20).to_obj()

    header = {"format": "tilegate-tiling/1", "n": 5, "alpha": "1/2", "modulus": 20}
    non_right = [(0, 0), (2, 0), (1, 2)]
    right = [(0, 0), (1, 0), (0, 1)]
    path = tmp_path / "t.json"
    for corners in ([], [non_right], [right]):
        triangles = [{"v": [[rational(x), rational(y)] for x, y in tri]}
                     for tri in corners]
        path.write_text(json.dumps({**header, "triangles": triangles}))
        for args in (["verify", str(path)], ["verify", str(path), "--json"]):
            err = _exit_two_in_one_line(args, capsys)
            assert err == "tilegate: modulus 20 is not divisible by 40\n"


def test_lemmas_pass_and_json_stability(run_cli):
    human = run_cli(["lemmas", "--which", "3", "--max-den", "20"])
    assert human.returncode == 0
    assert "pass" in human.stdout
    assert "witness" in human.stdout and "1/4" in human.stdout
    a = run_cli(["lemmas", "--which", "4", "--max-den", "15", "--json"])
    b = run_cli(["lemmas", "--which", "4", "--max-den", "15", "--json"])
    assert a.returncode == 0
    assert a.stdout == b.stdout
    payload = json.loads(a.stdout)
    assert payload["passed"] is True
    assert len(payload["witnesses"]) == 5


def test_lemmas_counterexample_exits_one(run_cli):
    result = run_cli(["lemmas", "--which", "6", "--n-range", "27..29"])
    assert result.returncode == 1
    assert "counterexample" in result.stdout
    assert "3/7" in result.stdout


def test_lemmas_missing_parameters(run_cli):
    result = run_cli(["lemmas", "--which", "3"])
    assert result.returncode == 2
    result = run_cli(["lemmas", "--which", "7", "--max-den", "10"])
    assert result.returncode == 2


def test_gen_trivial_verify_round_trip(run_cli, tmp_path):
    out = str(tmp_path / "t5.json")
    gen = run_cli(["gen-trivial", "--n", "5", "--out", out, "--json"])
    assert gen.returncode == 0
    payload = json.loads(gen.stdout)
    assert payload == {"alpha": "2/5", "n": 5, "out": out, "triangles": 10}
    ver = run_cli(["verify", out])
    assert ver.returncode == 0
    assert "verdict: pass" in ver.stdout
    assert "certificate: N_alpha=10 N_beta=10 N_right=10" in ver.stdout
    ver_json = run_cli(["verify", out, "--json"])
    report = json.loads(ver_json.stdout)
    assert report["verdict"] == "pass"
    assert report["certificate"] == [10, 10, 10]
    # sort_keys reorders the emitted object; only membership is stable
    assert set(report["checks"]) == {
        "similarity", "containment", "non_overlap", "area_cover", "point_ledger",
    }
    assert all(c["status"] == "pass" for c in report["checks"].values())


def test_verify_failing_tiling_exits_one(run_cli, tmp_path):
    t = gen_trivial(5)
    mutant = Tiling(t.n, t.alpha, t.modulus, t.triangles[1:])
    path = str(tmp_path / "short.json")
    save_tiling(mutant, path)
    result = run_cli(["verify", path])
    assert result.returncode == 1
    assert "area_cover: fail" in result.stdout


def test_verify_io_and_format_errors(run_cli, tmp_path):
    missing = run_cli(["verify", str(tmp_path / "nope.json")])
    assert missing.returncode == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    result = run_cli(["verify", str(bad)])
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    doc = gen_trivial(5).to_obj()
    doc["alpha"] = "3/5"
    structural = tmp_path / "structural.json"
    structural.write_text(json.dumps(doc))
    result = run_cli(["verify", str(structural)])
    assert result.returncode == 2


def test_gen_trivial_rejects_small_n(run_cli, tmp_path):
    result = run_cli(["gen-trivial", "--n", "4", "--out", str(tmp_path / "x.json")])
    assert result.returncode == 2
    assert len(result.stderr.strip().splitlines()) == 1


CLASSIFY_ONLY = """
import contextlib, io, sys
import tilegate.cli
with contextlib.redirect_stdout(io.StringIO()):
    for argv in (["candidates", "--range", "5..30", "--json"],
                 ["audit", "--n", "8", "--alpha", "1/5"],
                 ["lemmas", "--which", "3", "--max-den", "30"],
                 ["lemmas", "--which", "4", "--max-den", "30"],
                 ["lemmas", "--which", "5", "--max-den", "30", "--n-range", "5..40"],
                 ["lemmas", "--which", "6", "--n-range", "5..27"]):
        assert tilegate.cli.main(argv) == 0, argv
loaded = {"numpy", "mpmath"} & set(sys.modules)
assert not loaded, loaded
for name in tilegate.__all__:
    getattr(tilegate, name)
loaded = {"numpy", "mpmath"} & set(sys.modules)
assert not loaded, loaded
"""


def test_classify_commands_load_neither_numpy_nor_mpmath():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, "-c", CLASSIFY_ONLY], capture_output=True,
                            text=True, check=False, timeout=120, env=env)
    assert result.returncode == 0, result.stderr


SPARSE_ONLY = """
import contextlib, io, json, sys
from tilegate.cli import main
path = sys.argv[1]
with contextlib.redirect_stdout(io.StringIO()) as out:
    assert main(["gen-trivial", "--n", "8", "--out", path]) == 0
    assert main(["verify", path, "--json"]) == 0
assert "numpy" not in sys.modules and "mpmath" not in sys.modules
import tilegate
report = tilegate.verify(tilegate.gen_trivial(47)).to_obj()
assert "numpy" in sys.modules and "mpmath" not in sys.modules
print(json.dumps([json.loads(out.getvalue().splitlines()[-1]), report]))
"""


def test_sparse_products_leave_numpy_unloaded(tmp_path):
    # the fields of an 8-gon run on Python ints alone; the rotation
    # vectors of the fan of n = 47 (phi = 92) are dense, so verifying it
    # loads numpy, and both reports are the ones this process computes
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    path = tmp_path / "t8.json"
    result = subprocess.run([sys.executable, "-c", SPARSE_ONLY, str(path)], capture_output=True,
                            text=True, check=False, timeout=120, env=env)
    assert result.returncode == 0, result.stderr
    t8, t47 = json.loads(result.stdout)
    assert t8 == verify(load_tiling(str(path))).to_obj()
    assert t47 == verify(gen_trivial(47)).to_obj()


TRANSLATED_MUTANT = """
import sys
from fractions import Fraction
import tilegate
from tilegate.exact import cos_pi, sin_pi
from tilegate.geometry import Point, Triangle
from tilegate.tiling import Tiling
base = tilegate.gen_trivial(8)
m = base.modulus
# (cos t - x, sin t - y), x and y the roundings of cos t and sin t to 100
# bits: no 64-bit enclosure separates it from zero
offset = []
for value in (cos_pi(1, m // 2, m), sin_pi(1, m // 2, m)):
    d = value - round(value.enclosure(256)[0] * 2**100) / Fraction(2**100)
    lo, hi = d.enclosure(64)
    assert lo < 0 < hi and d.sign() != 0
    offset.append(d)
moved = [Point(v.x + offset[0], v.y + offset[1]) for v in base.triangles[0].vertices]
mutant = Tiling(base.n, base.alpha, m, [Triangle(*moved), *base.triangles[1:]])
assert not tilegate.verify(mutant).verdict
loaded = {"numpy", "mpmath"} & set(sys.modules)
assert not loaded, loaded
"""


def test_refined_signs_leave_mpmath_unloaded():
    # a triangle of the 8-gon moved by an irrational offset shorter than
    # 2**-100 fails verify only after signs refined past 64 bits
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, "-c", TRANSLATED_MUTANT], capture_output=True,
                            text=True, check=False, timeout=120, env=env)
    assert result.returncode == 0, result.stderr


def test_tiling_side_names_are_looked_up_on_every_access(monkeypatch):
    # a wrapper patched into tilegate.tiling and taken out again is never
    # left behind in the package namespace
    import tilegate
    from tilegate import tiling

    assert tilegate.verify is tiling.verify
    original = tiling.verify
    monkeypatch.setattr(tiling, "verify", lambda t: None)
    assert tilegate.verify is tiling.verify
    monkeypatch.undo()
    assert tilegate.verify is original
    assert "verify" not in vars(tilegate)
    with pytest.raises(AttributeError):
        tilegate.no_such_name
