"""Command-line front end: run verification suites and evaluate the
polynomial families exactly.

    qasc verify --suite exact --order 12 --trials 5 --seed 42 --out report.json
    qasc verify --suite numeric --precision 256
    qasc verify --ids ID-9,ID-12 --order 8 --trials 1 --seed 7
    qasc verify --suite numeric --ids NUM-2 --precision 512
    qasc eval asc-new-phi --n 1 --q 1/2 --a 1/3 --b 0 --c 0 --d 0 --e 0
    qasc eval qbinom --n 3 --k 1 --q 1/2

`--ids` picks checks within the selected suite (default `all`). The
numeric module, and with it mpmath, is imported only when a numeric check
runs.

Exit codes: 0 all pass, 1 verification failure, 2 usage or configuration
error (an unwritable report path included), 3 numeric non-convergence, 4
an exact builder raised an unexpected error.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from fractions import Fraction

from .core import ParamSet, Poly
from .identities import CATALOG, CATALOG_ORDER, trial_paramset, verify
from .polys import _FAMILY_ARITY, PolyFamily
from .qkernel import PoleError, qbinom, qpoch

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_NOCONV = 3
EXIT_ERROR = 4

_SUITES = ("exact", "numeric", "all")
_DEFAULTS = {
    "suite": "all",
    "order": 12,
    "trials": 5,
    "seed": 42,
    "precision": 256,
    "tail_tol": "1e-40",
    "compare_tol": "1e-12",
    "out": "report.json",
    "ids": None,
}


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="qasc", description=__doc__.strip().splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run the identity verification suites")
    v.add_argument("--suite", choices=_SUITES)
    v.add_argument("--order", type=int, help="series truncation order (>= 4)")
    v.add_argument("--trials", type=int, help="random parameter draws per exact identity")
    v.add_argument("--seed", type=int, help="seed determining every parameter draw")
    v.add_argument("--ids", help="comma-separated filter within --suite, e.g. ID-9,NUM-2")
    v.add_argument("--precision", type=int, help="numeric working precision in bits")
    v.add_argument("--tail-tol", dest="tail_tol", help="numeric tail tolerance, e.g. 1e-40")
    v.add_argument("--compare-tol", dest="compare_tol", help="numeric pass tolerance")
    v.add_argument("--out", help="report file path (JSON)")
    v.add_argument("--config", help="JSON config file mirroring the flags; flags win")

    e = sub.add_parser("eval", help="evaluate one polynomial family exactly")
    families = [f.replace("_", "-") for f in _FAMILY_ARITY]
    e.add_argument("family", choices=families + ["qbinom", "qpoch"])
    e.add_argument("--n", type=int, default=0)
    e.add_argument("--k", type=int)
    for name in ("q", "a", "b", "c", "d", "e", "x", "y"):
        e.add_argument(f"--{name}")
    return ap


def _frac(text: str | None, name: str, default: Fraction | None = None) -> Fraction:
    if text is None:
        if default is None:
            raise SystemExit(f"error: --{name} is required")
        return default
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise SystemExit(f"error: --{name} expects an exact rational like 1/2, got {text!r}")


def _merge_config(args: argparse.Namespace) -> dict:
    cfg = dict(_DEFAULTS)
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                file_cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"error: cannot read config {args.config}: {exc}", file=sys.stderr)
            raise SystemExit(EXIT_USAGE)
        if not isinstance(file_cfg, dict):
            print(f"error: config {args.config} must hold a JSON object", file=sys.stderr)
            raise SystemExit(EXIT_USAGE)
        unknown = set(file_cfg) - set(cfg)
        if unknown:
            print(f"error: unknown config keys {sorted(unknown)}", file=sys.stderr)
            raise SystemExit(EXIT_USAGE)
        for key, v in file_cfg.items():
            # the type its flag parses to: int for the numbers, else a string
            want = int if isinstance(_DEFAULTS[key], int) else str
            if type(v) is not want and not (v is None and _DEFAULTS[key] is None):
                print(f"error: config key {key!r} must be {want.__name__}, got {v!r}",
                      file=sys.stderr)
                raise SystemExit(EXIT_USAGE)
        cfg.update(file_cfg)
    for key in cfg:
        v = getattr(args, key, None)
        if v is not None:
            cfg[key] = v
    if cfg["suite"] not in _SUITES:
        print(f"error: suite must be one of {', '.join(_SUITES)}, got {cfg['suite']!r}",
              file=sys.stderr)
        raise SystemExit(EXIT_USAGE)
    if cfg["order"] < 4:
        print("error: --order must be >= 4", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)
    if cfg["trials"] < 1:
        print("error: --trials must be >= 1", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)
    return cfg


def _select_ids(cfg: dict) -> tuple[list[str], list[str]]:
    """The exact and the numeric ids to run: the suite's, or those of them
    that --ids names.  The numeric catalog is read only when the suite has
    numeric checks and no --ids, or --ids names an id the exact suite lacks."""
    suite = cfg["suite"]
    wanted = None
    if cfg["ids"]:
        wanted = [t.strip() for t in str(cfg["ids"]).split(",") if t.strip()]
    exact = [i for i in CATALOG_ORDER if suite != "numeric" and (wanted is None or i in wanted)]
    rest = [w for w in wanted or () if w not in exact]
    numeric = []
    if suite != "exact" and (wanted is None or rest):
        from .numeric import NUMERIC_ORDER

        numeric = [i for i in NUMERIC_ORDER if wanted is None or i in rest]
    bad = [w for w in rest if w not in numeric]
    if bad:
        print(f"error: identity ids {bad} are not in suite {suite!r}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)
    return exact, numeric


def _unwritable(out: str, reason: str):
    print(f"error: cannot write report {out}: {reason}", file=sys.stderr)
    raise SystemExit(EXIT_USAGE)


def cmd_verify(args: argparse.Namespace) -> int:
    cfg = _merge_config(args)
    exact_ids, numeric_ids = _select_ids(cfg)
    out = cfg["out"]
    # before any check runs, refuse a directory or a path in a missing one
    if os.path.isdir(out):
        _unwritable(out, os.strerror(errno.EISDIR))
    if not os.path.isdir(os.path.dirname(out) or "."):
        _unwritable(out, os.strerror(errno.ENOENT))
    entries = []
    any_fail = False
    any_noconv = False
    any_error = False

    for cid in exact_ids:
        check = CATALOG[cid]
        for trial in range(cfg["trials"]):
            ps = trial_paramset(check, cfg["seed"], trial)
            rep = verify(check, ps, cfg["order"], trial)
            entries.append(rep.to_dict())
            any_fail |= rep.status != "pass"
            any_error |= rep.status == "error"
            print(f"{cid:7s} trial {trial}: {rep.status}")

    if numeric_ids:
        from .numeric import NUMERIC_CATALOG, NumericConfig

        try:
            ncfg = NumericConfig(
                precision_bits=cfg["precision"],
                tail_tol=str(cfg["tail_tol"]),
                compare_tol=str(cfg["compare_tol"]),
            )
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            raise SystemExit(EXIT_USAGE)
        for cid in numeric_ids:
            rep = NUMERIC_CATALOG[cid].execute(ncfg)
            entries.append(rep.to_dict())
            if rep.status == "no-convergence":
                any_noconv = True
            elif rep.status != "pass":
                any_fail = True
            print(f"{cid:7s} {rep.status}" + (f" rel_diff={rep.rel_diff}" if rep.rel_diff else ""))

    report = {
        "suite": cfg["suite"],
        "seed": cfg["seed"],
        "order": cfg["order"],
        "trials": cfg["trials"],
        "entries": entries,
    }
    try:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
    except OSError as exc:
        _unwritable(out, exc.strerror or str(exc))

    total = len(entries)
    passed = sum(1 for e in entries if e["status"] == "pass")
    print(f"{passed}/{total} checks passed; report written to {out}")
    if any_error:
        return EXIT_ERROR
    if any_noconv:
        return EXIT_NOCONV
    return EXIT_FAIL if any_fail else EXIT_PASS


def cmd_eval(args: argparse.Namespace) -> int:
    q = _frac(args.q, "q")
    n = args.n
    fam = args.family
    try:
        if fam == "qbinom":
            if args.k is None:
                raise SystemExit("error: --k is required for qbinom")
            print(qbinom(n, args.k, q))
            return EXIT_PASS
        if fam == "qpoch":
            print(qpoch(_frac(args.a, "a"), q, n))
            return EXIT_PASS
        ps = ParamSet(
            q=q,
            **{k: _frac(getattr(args, k), k, Fraction(0)) for k in ("a", "b", "c", "d", "e")},
        )
        family = PolyFamily(fam.replace("-", "_"), ps)
        # the two variable slots default to the symbols x, y
        x = _frac(args.x, "x") if args.x else Poly.x()
        y = _frac(args.y, "y") if args.y else Poly.y()
        print(family.evaluate(n, x, y))
        return EXIT_PASS
    except (PoleError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main(argv: list[str] | None = None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
        if args.command == "verify":
            return cmd_verify(args)
        return cmd_eval(args)
    except SystemExit as exc:
        if isinstance(exc.code, str):
            print(exc.code, file=sys.stderr)
            return EXIT_USAGE
        return exc.code if exc.code is not None else 0


if __name__ == "__main__":
    sys.exit(main())
