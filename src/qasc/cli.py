"""Command-line front end: run verification suites and evaluate the
polynomial families exactly.

    qasc verify --suite exact --order 12 --trials 5 --seed 42 --out report.json
    qasc verify --suite numeric --precision 256
    qasc verify --ids ID-9,ID-12 --order 8 --trials 1 --seed 7
    qasc verify --suite numeric --ids NUM-2 --precision 512
    qasc eval asc-new-phi --n 1 --q 1/2 --a 1/3 --b 0 --c 0 --d 0 --e 0
    qasc eval qbinom --n 3 --k 1 --q 1/2

`--ids` picks checks within the selected suite (default `all`). Every
setting, `--out` included, is checked before the first check runs; the
numeric ones are read only when a numeric check is selected, and mpmath
is loaded only when a numeric check makes its first value.

Exit codes, the largest over all entries winning: 0 all pass, 1
verification failure (`fail`, `pole`), 2 usage or configuration error, 3
numeric non-convergence, 4 a check raised an unexpected error (`error`).
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
from .numeric import NUMERIC_CATALOG, NUMERIC_ORDER, NumericConfig
from .polys import _FAMILY_ARITY, PolyFamily
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


def _exact_suite(cfg: dict):
    def run(cid):
        check = CATALOG[cid]
        for trial in range(cfg["trials"]):
            rep = verify(check, trial_paramset(check, cfg["seed"], trial), cfg["order"], trial)
            yield rep, f"{cid:7s} trial {trial}: {rep.status}"

    return CATALOG_ORDER, run


def _numeric_suite(cfg: dict):
    try:
        ncfg = NumericConfig(precision_bits=cfg["precision"], tail_tol=cfg["tail_tol"],
                             compare_tol=cfg["compare_tol"])
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")

    def run(cid):
        rep = NUMERIC_CATALOG[cid].execute(ncfg)
        yield rep, f"{cid:7s} {rep.status}" + (f" rel_diff={rep.rel_diff}" if rep.rel_diff else "")

    return NUMERIC_ORDER, run


# each suite's ids and runner, read in this order; a runner yields
# (report, progress line) per entry
_SUITES = {"exact": (_exact_suite,), "numeric": (_numeric_suite,),
           "all": (_exact_suite, _numeric_suite)}

# the exit code of each entry status; the largest in a run wins
_EXIT_OF = {"pass": EXIT_PASS, "fail": EXIT_FAIL, "pole": EXIT_FAIL,
            "no-convergence": EXIT_NOCONV, "error": EXIT_ERROR}


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
            raise SystemExit(f"error: cannot read config {args.config}: {exc}")
        if not isinstance(file_cfg, dict):
            raise SystemExit(f"error: config {args.config} must hold a JSON object")
        unknown = set(file_cfg) - set(cfg)
        if unknown:
            raise SystemExit(f"error: unknown config keys {sorted(unknown)}")
        for key, v in file_cfg.items():
            # the type its flag parses to: int for the numbers, else a string
            want = int if isinstance(_DEFAULTS[key], int) else str
            if type(v) is not want and not (v is None and _DEFAULTS[key] is None):
                raise SystemExit(f"error: config key {key!r} must be {want.__name__}, got {v!r}")
        cfg.update(file_cfg)
    for key in cfg:
        v = getattr(args, key, None)
        if v is not None:
            cfg[key] = v
    if cfg["suite"] not in _SUITES:
        raise SystemExit(f"error: suite must be one of {', '.join(_SUITES)}, got {cfg['suite']!r}")
    if cfg["order"] < 4:
        raise SystemExit("error: --order must be >= 4")
    if cfg["trials"] < 1:
        raise SystemExit("error: --trials must be >= 1")
    return cfg


def _select_ids(cfg: dict) -> list:
    """The (id, runner) pairs to run: the suite's checks, or those of them
    that --ids names.  A suite is read, and its settings checked, only
    while one of its checks may still be wanted."""
    wanted = None
    if cfg["ids"] is not None:
        wanted = [t.strip() for t in cfg["ids"].split(",") if t.strip()]
        if not wanted:
            raise SystemExit(f"error: --ids names no check: {cfg['ids']!r}")
    pairs, rest = [], wanted
    for suite in _SUITES[cfg["suite"]]:
        if rest == []:
            break
        ids, run = suite(cfg)
        pairs += [(i, run) for i in ids if rest is None or i in rest]
        rest = rest and [w for w in rest if w not in ids]
    if rest:
        raise SystemExit(f"error: identity ids {rest} are not in suite {cfg['suite']!r}")
    return pairs


def _unwritable(out: str, reason: str):
    raise SystemExit(f"error: cannot write report {out}: {reason}")


def cmd_verify(args: argparse.Namespace) -> int:
    cfg = _merge_config(args)
    pairs = _select_ids(cfg)
    out = cfg["out"]
    # before any check runs, refuse a directory, an empty path or a path in
    # a missing directory
    if os.path.isdir(out):
        _unwritable(out, os.strerror(errno.EISDIR))
    if not out or not os.path.isdir(os.path.dirname(out) or "."):
        _unwritable(out, os.strerror(errno.ENOENT))
    entries, code = [], EXIT_PASS
    for cid, run in pairs:
        for rep, line in run(cid):
            entries.append(rep.to_dict())
            code = max(code, _EXIT_OF[rep.status])
            print(line)

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

    passed = sum(1 for e in entries if e["status"] == "pass")
    print(f"{passed}/{len(entries)} checks passed; report written to {out}")
    return code


# the eval flags each target does not read; a family refuses those of a..e
# beyond its arity, and a classical one --y, itself
_UNREAD = {"qbinom": "abcdexy", "qpoch": "kbcdexy"}


def cmd_eval(args: argparse.Namespace) -> int:
    fam = args.family
    for name in _UNREAD.get(fam, "k"):
        if getattr(args, name) is not None:
            raise SystemExit(f"error: {fam} does not read --{name}")
    q = _frac(args.q, "q")
    n = args.n
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
        x = _frac(args.x, "x") if args.x is not None else Poly.x()
        y = _frac(args.y, "y") if args.y is not None else Poly.y()
        print(family.evaluate(n, x, y))
        return EXIT_PASS
    except (PoleError, ValueError) as exc:
        raise SystemExit(f"error: {exc}")


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
