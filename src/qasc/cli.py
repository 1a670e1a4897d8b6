"""Command-line front end: run verification suites and evaluate the
polynomial families exactly.

    qasc verify --suite exact --order 12 --trials 5 --seed 42 --out report.json
    qasc verify --suite numeric --precision 256
    qasc verify --ids ID-9,ID-12 --order 8 --trials 1 --seed 7
    qasc eval asc-new-phi --n 1 --q 1/2 --a 1/3 --b 0 --c 0 --d 0 --e 0
    qasc eval qbinom --n 3 --k 1 --q 1/2

Exit codes: 0 all pass, 1 verification failure, 2 usage or configuration
error, 3 numeric non-convergence, 4 an exact builder raised an unexpected
error.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .core import ParamSet, Poly
from .identities import CATALOG, CATALOG_ORDER, trial_paramset, verify
from .numeric import NUMERIC_CATALOG, NUMERIC_ORDER, NumericConfig
from .polys import PolyFamily
from .qkernel import PoleError, qbinom, qpoch

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_NOCONV = 3
EXIT_ERROR = 4

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
    v.add_argument("--suite", choices=("exact", "numeric", "all"))
    v.add_argument("--order", type=int, help="series truncation order (>= 4)")
    v.add_argument("--trials", type=int, help="random parameter draws per exact identity")
    v.add_argument("--seed", type=int, help="seed determining every parameter draw")
    v.add_argument("--ids", help="comma-separated identity filter, e.g. ID-9,NUM-2")
    v.add_argument("--precision", type=int, help="numeric working precision in bits")
    v.add_argument("--tail-tol", dest="tail_tol", help="numeric tail tolerance, e.g. 1e-40")
    v.add_argument("--compare-tol", dest="compare_tol", help="numeric pass tolerance")
    v.add_argument("--out", help="report file path (JSON)")
    v.add_argument("--config", help="JSON config file mirroring the flags; flags win")

    e = sub.add_parser("eval", help="evaluate one polynomial family exactly")
    e.add_argument(
        "family",
        choices=(
            "asc-new-phi",
            "asc-new-psi",
            "asc-gen3-phi",
            "asc-gen3-psi",
            "asc-classical-phi",
            "asc-classical-psi",
            "cauchy",
            "rogers-szego",
            "qbinom",
            "qpoch",
        ),
    )
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
        unknown = set(file_cfg) - set(cfg)
        if unknown:
            print(f"error: unknown config keys {sorted(unknown)}", file=sys.stderr)
            raise SystemExit(EXIT_USAGE)
        cfg.update(file_cfg)
    for key in cfg:
        v = getattr(args, key, None)
        if v is not None:
            cfg[key] = v
    if cfg["order"] < 4:
        print("error: --order must be >= 4", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)
    if cfg["trials"] < 1:
        print("error: --trials must be >= 1", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)
    return cfg


def _select_ids(cfg: dict) -> tuple[list[str], list[str]]:
    exact = list(CATALOG_ORDER) if cfg["suite"] in ("exact", "all") else []
    numeric = list(NUMERIC_ORDER) if cfg["suite"] in ("numeric", "all") else []
    if cfg["ids"]:
        wanted = [t.strip() for t in str(cfg["ids"]).split(",") if t.strip()]
        bad = [w for w in wanted if w not in CATALOG and w not in NUMERIC_CATALOG]
        if bad:
            print(f"error: unknown identity ids {bad}", file=sys.stderr)
            raise SystemExit(EXIT_USAGE)
        exact = [i for i in CATALOG_ORDER if i in wanted]
        numeric = [i for i in NUMERIC_ORDER if i in wanted]
    return exact, numeric


def cmd_verify(args: argparse.Namespace) -> int:
    cfg = _merge_config(args)
    exact_ids, numeric_ids = _select_ids(cfg)
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
            d = rep.to_dict()
            d["trial"] = 0
            entries.append(d)
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
    out = cfg["out"]
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")

    total = len(entries)
    passed = sum(1 for e in entries if e["status"] == "pass")
    print(f"{passed}/{total} checks passed; report written to {out}")
    if any_error:
        return EXIT_ERROR
    if any_noconv:
        return EXIT_NOCONV
    return EXIT_FAIL if any_fail else EXIT_PASS


_FAMILY_NAMES = {
    "asc-new-phi": "asc_new_phi",
    "asc-new-psi": "asc_new_psi",
    "asc-gen3-phi": "asc_gen3_phi",
    "asc-gen3-psi": "asc_gen3_psi",
    "asc-classical-phi": "asc_classical_phi",
    "asc-classical-psi": "asc_classical_psi",
    "cauchy": "cauchy",
    "rogers-szego": "rogers_szego",
}


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
        family = PolyFamily(_FAMILY_NAMES[fam], ps)
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
