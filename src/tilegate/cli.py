"""Command-line front end.

Subcommands: candidates (per-n angle tables), audit (impossibility
argument for one (n, a)), lemmas (finite-range lemma audits),
gen-trivial (write the trivial tiling), verify (check a tiling file).

Exit codes: 0 completed, 1 a verification failed or a lemma audit found
counterexamples, 2 usage/IO/format errors.  JSON output (--json) is
byte-stable: sorted keys, no whitespace, one object per line.
"""
from __future__ import annotations

import argparse
import functools
import json
import re
import sys

from .classify import alpha_str, candidates, impossibility_audit
from .errors import TilegateError, echo
from .text import parse_fraction
from .vertex import audit_lemma


class _Parser(argparse.ArgumentParser):
    # one-line diagnostics, no usage dump
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(f"{self.prog}: {message}")


class _UsageError(Exception):
    pass


def _emit_json(obj: object) -> None:
    print(json.dumps(obj, sort_keys=True, separators=(",", ":")))


def _parse_count(text: str) -> int:
    # argparse type of --n and --max-den; as in _parse_range, a rejected
    # value is echoed shortened and an accepted one has six digits
    if not re.fullmatch(r"[0-9]{1,6}", text):
        raise argparse.ArgumentTypeError(
            f"expected 1 to 6 ASCII digits, got {echo(text)}")
    return int(text)


def _parse_range(text: str) -> range:
    # six digits a bound keep every range's list small enough to build
    m = re.fullmatch(r"([0-9]{1,6})\.\.([0-9]{1,6})", text)
    if not m:
        raise _UsageError(f"range must look like 'A..B' with A and B of at "
                          f"most 6 digits, got {echo(text)}")
    lo, hi = int(m.group(1)), int(m.group(2))
    if lo > hi:
        raise _UsageError(f"empty range {text!r}")
    return range(lo, hi + 1)


def _candidate_line(cs) -> str:
    parts = []
    for c in cs.candidates:
        note = "" if c.feasible else " (infeasible)"
        parts.append(f"a={c.a} [alpha = {alpha_str(c.a)}]{note}")
    return f"n={cs.n} {cs.provenance.value}: " + ", ".join(parts)


def _cmd_candidates(args) -> int:
    if (args.n is None) == (args.range is None):
        raise _UsageError("candidates: give exactly one of --n or --range")
    ns = [args.n] if args.n is not None else list(_parse_range(args.range))
    for n in ns:
        cs = candidates(n)
        if args.json:
            _emit_json(cs.to_obj())
        else:
            print(_candidate_line(cs))
    return 0


def _cmd_audit(args) -> int:
    verdict = impossibility_audit(args.n, parse_fraction(args.alpha, "alpha"))
    if args.json:
        _emit_json(verdict.to_obj())
        return 0
    print(f"n={verdict.n} a={verdict.a} [alpha = {alpha_str(verdict.a)}]: "
          f"{verdict.outcome.value}")
    for step in verdict.trace:
        lemma = f" ({step.lemma})" if step.lemma else ""
        where = f" at {step.point_class}" if step.point_class else ""
        print(f"  [{step.kind}]{lemma}{where} {step.claim}")
    return 0


def _case_line(case) -> str:
    where = f" n={case.n}" if case.n is not None else ""
    sol = f" (p,q,r)={tuple(case.solution)}" if case.solution is not None else ""
    return f"a={case.a}{where}{sol}: {case.detail}"


def _cmd_lemmas(args) -> int:
    ns = _parse_range(args.n_range) if args.n_range else None
    report = audit_lemma(args.which, max_den=args.max_den, ns=ns)
    if args.json:
        _emit_json(report.to_obj())
    else:
        status = "pass" if report.passed else "FAIL"
        scope = ", ".join(f"{k}={v}" for k, v in report.parameter_range.items())
        print(f"lemma {report.lemma_id} [{scope}]: {status}")
        for case in report.witnesses:
            print(f"  witness {_case_line(case)}")
        for case in report.counterexamples:
            print(f"  counterexample {_case_line(case)}")
    return 0 if report.passed else 1


def _cmd_gen_trivial(args) -> int:
    from .tiling import gen_trivial, save_tiling

    tiling = gen_trivial(args.n)
    save_tiling(tiling, args.out)
    if args.json:
        _emit_json({
            "n": tiling.n,
            "alpha": str(tiling.alpha),
            "triangles": len(tiling.triangles),
            "out": args.out,
        })
    else:
        print(f"wrote {args.out}: trivial tiling of the {tiling.n}-gon, "
              f"{len(tiling.triangles)} triangles, alpha = {alpha_str(tiling.alpha)}")
    return 0


def _cmd_verify(args) -> int:
    from .tiling import load_tiling, verify

    report = verify(load_tiling(args.file))
    if args.json:
        _emit_json(report.to_obj())
    else:
        for name in report.checks:
            res = report.checks[name]
            line = f"{name}: {res.status}"
            if res.detail:
                line += f" ({res.detail})"
            print(line)
        na, nb, nr = report.certificate
        print(f"certificate: N_alpha={na} N_beta={nb} N_right={nr}")
        print(f"verdict: {'pass' if report.verdict else 'fail'}")
    return 0 if report.verdict else 1


@functools.cache
def _build_parser() -> _Parser:
    # built once per process: parse_args leaves the parser unchanged and
    # returns a fresh Namespace each call
    parser = _Parser(prog="tilegate", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("candidates", help="candidate smaller angles per n")
    p.add_argument("--n", type=_parse_count)
    p.add_argument("--range", help="batch over n, e.g. 5..200")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_candidates)

    p = sub.add_parser("audit", help="impossibility argument for one (n, a)")
    p.add_argument("--n", type=_parse_count, required=True)
    p.add_argument("--alpha", required=True, help="a = 2*alpha/pi as 'u/v'")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("lemmas", help="finite-range lemma audit")
    p.add_argument("--which", required=True, choices=["3", "4", "5", "6"])
    p.add_argument("--max-den", type=_parse_count, dest="max_den")
    p.add_argument("--n-range", dest="n_range", help="e.g. 5..200")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_lemmas)

    p = sub.add_parser("gen-trivial", help="write the trivial tiling of an n-gon")
    p.add_argument("--n", type=_parse_count, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_gen_trivial)

    p = sub.add_parser("verify", help="verify a tiling file")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: "list[str] | None" = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        text = str(exc)
        if not text.startswith("tilegate"):
            text = f"tilegate: {text}"
        print(text, file=sys.stderr)
        return 2
    except TilegateError as exc:
        print(f"tilegate: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # the path is echoed shortened, as every other input is
        text = exc.strerror or type(exc).__name__
        if exc.filename is not None:
            text += f": {echo(exc.filename)}"
        print(f"tilegate: {text}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
