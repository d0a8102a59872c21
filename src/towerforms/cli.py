"""Command-line front end.

Subcommands: isotropy, witt, residue, square, pfister-expand,
pfister-normalize, link, certify, verify.  Exit codes: 0 for any computed
result (including negative answers such as "not linked"), 1 when a
verification run reports failures, 2 for malformed or unsupported input.

With ``--json`` every subcommand emits a single JSON object with sorted keys;
identical command lines produce byte-identical output (verification reports
print ``elapsed_ms`` as null in JSON mode to keep that guarantee).
"""

import argparse
import json
import sys

from . import dsl, linkage, pfister, qforms, valuation
from .errors import TowerFormsError
from .fields import SampleBudget, format_element, is_square


def _emit(args, payload, lines):
    if args.json:
        print(json.dumps(payload, sort_keys=True, separators=(", ", ": ")))
    else:
        for line in lines:
            print(line)


def _ctx(tower, args):
    rank = getattr(args, "m", None)
    if rank is None:
        rank = min(1, tower.laurent_rank())
    return valuation.ValuationCtx(tower, rank)


def _budget(args):
    deg = getattr(args, "budget_degree", None)
    return SampleBudget() if deg is None else SampleBudget(max_deg=deg, max_val=deg)


# ---------------------------------------------------------------------------
# subcommand handlers (each returns an exit code)


def _cmd_isotropy(args):
    tower = dsl.parse_field(args.field)
    q = dsl.parse_form(tower, args.form)
    iso = qforms.is_isotropic(q)
    verdict = "isotropic" if iso else "anisotropic"
    _emit(args, {"field": tower.describe(), "form": dsl.format_form(q),
                 "isotropic": iso},
          [verdict])
    return 0


def _cmd_witt(args):
    tower = dsl.parse_field(args.field)
    q = dsl.parse_form(tower, args.form)
    dec = qforms.witt_decompose(q)
    kernel = (None if dec.anisotropic_kernel is None
              else dsl.format_form(dec.anisotropic_kernel))
    _emit(args, {"field": tower.describe(), "form": dsl.format_form(q),
                 "witt_index": dec.witt_index, "anisotropic_kernel": kernel},
          [f"witt index: {dec.witt_index}",
           f"anisotropic kernel: {kernel if kernel else '(hyperbolic)'}"])
    return 0


def _cmd_residue(args):
    tower = dsl.parse_field(args.field)
    ctx = _ctx(tower, args)
    if args.form is not None:
        q = dsl.parse_form(tower, args.form)
        dec = valuation.springer_decompose(q, ctx)
        lines = []
        for eps, rep, part in dec.entries:
            shown = "-" if part is None else dsl.format_form(part)
            lines.append(f"pi = {format_element(rep)}: {shown}")
        _emit(args, {"field": tower.describe(), "form": dsl.format_form(q),
                     "parts": dec.to_json()}, lines)
        return 0
    symbol = dsl.parse_pfister(tower, args.pfister)
    report = pfister.pfister_residues(symbol, ctx)
    lines = [f"first residue: {report.first_residue.describe()}"]
    for entry in report.to_json()["entries"]:
        lines.append(f"pi = {entry['representative']}: "
                     f"multiplier {entry['multiplier']}")
    _emit(args, report.to_json(), lines)
    return 0


def _cmd_square(args):
    tower = dsl.parse_field(args.field)
    a = dsl.parse_element(tower, args.elem)
    if a.is_zero():
        print("error: zero has no square class", file=sys.stderr)
        return 2
    sq = is_square(tower, a)
    _emit(args, {"field": tower.describe(), "element": format_element(a),
                 "square": sq},
          ["square" if sq else "nonsquare"])
    return 0


def _parse_symbol(tower, text, want=None):
    symbol = dsl.parse_pfister(tower, text)
    if want is not None and not isinstance(symbol, want):
        kind = "bilinear" if want is pfister.BilinearPfisterSymbol else "quadratic"
        raise TowerFormsError(f"expected a {kind} Pfister symbol: {text}")
    return symbol


def _cmd_pfister_expand(args):
    tower = dsl.parse_field(args.field)
    symbol = _parse_symbol(tower, args.pfister)
    if isinstance(symbol, pfister.BilinearPfisterSymbol):
        q = pfister.expand_bilinear(symbol)
    else:
        q = pfister.expand(symbol)
    _emit(args, {"field": tower.describe(), "symbol": symbol.describe(),
                 "form": dsl.format_form(q)},
          [dsl.format_form(q)])
    return 0


def _cmd_pfister_normalize(args):
    tower = dsl.parse_field(args.field)
    symbol = _parse_symbol(tower, args.pfister,
                           want=pfister.BilinearPfisterSymbol)
    ctx = _ctx(tower, args)
    out, trace = pfister.normalize_last_slot(symbol, ctx)
    _emit(args, {"field": tower.describe(), "input": symbol.describe(),
                 "output": out.describe(), "trace": trace.to_json()},
          [out.describe()] +
          [f"  {s.rule}@{s.index}" for s in trace.steps])
    return 0


def _cmd_link(args):
    tower = dsl.parse_field(args.field)
    s1 = _parse_symbol(tower, args.p1, want=pfister.QuadraticPfisterSymbol)
    s2 = _parse_symbol(tower, args.p2, want=pfister.QuadraticPfisterSymbol)
    linked = linkage.is_linked_pair(s1, s2)
    _emit(args, {"field": tower.describe(), "p1": s1.describe(),
                 "p2": s2.describe(), "linked": linked},
          ["linked" if linked else "not linked"])
    return 0


def _cmd_certify(args):
    tower = dsl.parse_field(args.field)
    s1 = _parse_symbol(tower, args.p1, want=pfister.QuadraticPfisterSymbol)
    s2 = _parse_symbol(tower, args.p2, want=pfister.QuadraticPfisterSymbol)
    cert = linkage.find_certificate(s1, s2)
    if cert == linkage.NOT_FOUND:
        _emit(args, {"field": tower.describe(), "p1": s1.describe(),
                     "p2": s2.describe(), "certificate": None},
              ["no certificate found within budget"])
        return 0
    _emit(args, {"field": tower.describe(), "p1": s1.describe(),
                 "p2": s2.describe(), "certificate": cert.to_json()},
          [f"common presentation: {cert.symbol1().describe()} ~ "
           f"{cert.symbol2().describe()}"])
    return 0


_THEOREMS = ("residue-transfer", "lifting-equivalence", "higher-local-d1",
             "top-linked")


def _cmd_verify(args):
    kwargs = {}
    if args.samples is not None:
        kwargs["samples"] = args.samples
    if args.theorem == "higher-local-d1":
        if args.q is None:
            raise TowerFormsError("verify higher-local-d1 needs --q")
        report = linkage.verify_higher_local_d1(args.q, seed=args.seed,
                                                **kwargs)
    else:
        if args.field is None:
            raise TowerFormsError(f"verify {args.theorem} needs --field")
        tower = dsl.parse_field(args.field)
        kwargs["budget"] = _budget(args)
        if args.theorem == "top-linked":
            if args.d is None:
                raise TowerFormsError("verify top-linked needs --d")
            report = linkage.check_top_d_linked(tower, args.d, seed=args.seed,
                                               **kwargs)
        elif args.theorem == "residue-transfer":
            report = linkage.verify_residue_transfer(
                tower, args.n if args.n is not None else 1,
                args.m if args.m is not None else 1, seed=args.seed, **kwargs)
        else:  # lifting-equivalence
            if args.d is None:
                raise TowerFormsError("verify lifting-equivalence needs --d")
            report = linkage.verify_lifting_equivalence(
                tower, args.d, args.m if args.m is not None else 1,
                seed=args.seed, **kwargs)
    payload = report.to_json()
    payload["elapsed_ms"] = None  # keep --json byte-identical across runs
    _emit(args, payload,
          [f"theorem:  {report.theorem}",
           f"field:    {report.field}",
           f"samples:  {report.samples}  seed: {report.seed}",
           f"failures: {len(report.failures)}",
           f"elapsed:  {report.elapsed_ms} ms",
           "PASS" if report.passed else "FAIL"] +
          [f"  {json.dumps(f, sort_keys=True)}" for f in report.failures])
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(2, f"error: {message}\n")


def build_parser():
    top = _Parser(prog="towerforms",
                  description="Quadratic and Pfister forms over field towers")
    sub = top.add_subparsers(dest="subcommand", required=True)

    def add(name, handler, **kw):
        p = sub.add_parser(name, **kw)
        p.set_defaults(handler=handler)
        p.add_argument("--json", action="store_true",
                       help="emit a JSON report")
        return p

    p = add("isotropy", _cmd_isotropy, help="decide isotropy of a form")
    p.add_argument("--field", required=True)
    p.add_argument("--form", required=True)

    p = add("witt", _cmd_witt, help="Witt decomposition of a form")
    p.add_argument("--field", required=True)
    p.add_argument("--form", required=True)

    p = add("residue", _cmd_residue,
            help="residue forms of a diagonal form or Pfister symbol")
    p.add_argument("--field", required=True)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--form")
    g.add_argument("--pfister")
    p.add_argument("--m", type=int, help="valuation rank (default 1)")

    p = add("square", _cmd_square, help="decide the square class of an element")
    p.add_argument("--field", required=True)
    p.add_argument("--elem", required=True)

    p = add("pfister-expand", _cmd_pfister_expand,
            help="expand a Pfister symbol to a diagonal form")
    p.add_argument("--field", required=True)
    p.add_argument("--pfister", required=True)

    p = add("pfister-normalize", _cmd_pfister_normalize,
            help="rewrite a bilinear symbol so the last slot is a unit")
    p.add_argument("--field", required=True)
    p.add_argument("--pfister", required=True)
    p.add_argument("--m", type=int, help="valuation rank (default 1)")

    p = add("link", _cmd_link, help="decide whether two symbols are linked")
    p.add_argument("--field", required=True)
    p.add_argument("--p1", required=True)
    p.add_argument("--p2", required=True)

    p = add("certify", _cmd_certify,
            help="search for a common-slot linkage certificate")
    p.add_argument("--field", required=True)
    p.add_argument("--p1", required=True)
    p.add_argument("--p2", required=True)

    p = add("verify", _cmd_verify, help="run a sampled verification harness")
    p.add_argument("theorem", choices=_THEOREMS)
    p.add_argument("--field", help="field DSL string (tower-based theorems)")
    p.add_argument("--q", type=int, help="base prime (higher-local-d1)")
    p.add_argument("--d", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--samples", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget-degree", type=int,
                   help="sampling degree/valuation bound")

    return top


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if e.code is not None else 0
    try:
        return args.handler(args)
    except TowerFormsError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: input too deeply nested", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
