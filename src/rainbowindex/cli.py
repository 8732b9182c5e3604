"""Command-line surface: every library operation, machine-readable output.

Exit codes: 0 = pass/success, 1 = verified failure, 2 = usage or domain
error, 3 = search budget exhausted without a find, 4 = internal error
(an unexpected exception; its traceback goes to stderr). Every run emits one
manifest (JSON, to --manifest or stderr) recording the arguments, seed,
version, and a digest of the primary stdout output; `replay` re-runs a
manifest and checks the digest, so primary outputs are byte-reproducible.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import sys
import time
import traceback
from dataclasses import asdict, dataclass
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from typing import Optional

from . import __version__, bounds, montecarlo, search
from .colorings import (
    BudgetExceededError,
    ColoringFormatError,
    CompleteGraphColoring,
    SeededStream,
    random_coloring,
    read_coloring,
    write_coloring,
)
from .trees import OracleMode, VertexSet, max_disjoint_rainbow_trees, verify_coloring

PASS = "[PASS]"
FAIL = "[FAIL]"


@dataclass(frozen=True)
class RunManifest:
    """One per run: enough to replay it and check the output digest."""

    subcommand: str
    argv: list[str]
    seed: Optional[int]
    version: str
    exit_code: int
    wall_time_s: float
    output_sha256: str

    def to_json(self) -> str:
        return json.dumps(asdict(self))


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}")


def _mode_from_args(args) -> OracleMode:
    if args.mode == "star":
        return OracleMode.star()
    return OracleMode.full(args.budget)


def _add_mode_flags(parser, default="star"):
    parser.add_argument("--mode", choices=["star", "full"], default=default,
                        help="oracle candidate universe (default %(default)s)")
    parser.add_argument("--budget", type=int, default=None,
                        help="external-vertex budget for the full oracle (default k-2)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rainbowindex",
        description="Thresholds, certificates, and experiments for rainbow "
                    "tree families in edge-colored complete graphs.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("--manifest", metavar="PATH", default=None,
                        help="write the run manifest JSON here (default: stderr)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bounds", help="compute every analytic threshold for (k, ell)")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("-l", "--ell", type=int, required=True)
    p.add_argument("--eps", type=_fraction, default=None,
                   help="rational in (0,1), e.g. 1/2, to add concentration thresholds")
    p.add_argument("--theta-tol", type=float, default=1e-9)

    p = sub.add_parser("verify", help="check a coloring file against a (k, ell) demand")
    p.add_argument("coloring", help="coloring file path")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("-l", "--ell", type=int, required=True)
    _add_mode_flags(p)
    p.add_argument("--per-s-counts", action="store_true",
                   help="report the exact count for every k-set")
    p.add_argument("--workers", type=int, default=1)

    p = sub.add_parser("search", help="find a coloring meeting a (k, ell) demand")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-k", type=int, required=True)
    p.add_argument("-l", "--ell", type=int, required=True)
    p.add_argument("-t", type=int, required=True)
    p.add_argument("--strategy", choices=search.STRATEGIES, default="random")
    p.add_argument("--search-budget", type=int, default=10000,
                   help="colorings drawn / scanned / objective evaluations")
    p.add_argument("--seed", type=int, default=0)
    _add_mode_flags(p)
    p.add_argument("-o", "--out", default=None, help="write the found coloring here")
    p.add_argument("--witness-out", default=None,
                   help="write per-set witness tree dumps here")

    p = sub.add_parser("oracle", help="exact maximum disjoint rainbow family for one k-set")
    p.add_argument("coloring", help="coloring file path")
    p.add_argument("-S", required=True, help="comma-separated terminal vertices, e.g. 1,2,3")
    _add_mode_flags(p, default="full")

    p = sub.add_parser("tail", help="exact binomial star tail vs its closed-form bounds")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-k", type=int, required=True)
    p.add_argument("-l", "--ell", type=int, required=True)

    mc = sub.add_parser("mc", help="Monte Carlo experiments")
    mcsub = mc.add_subparsers(dest="mc_command", required=True)

    p = mcsub.add_parser("bs", help="frequency of a star-starved terminal set")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-k", type=int, required=True)
    p.add_argument("-l", "--ell", type=int, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)

    p = mcsub.add_parser("as-all", help="frequency of colorings passing every k-set")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-k", type=int, required=True)
    p.add_argument("-l", "--ell", type=int, required=True)
    p.add_argument("-t", type=int, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    _add_mode_flags(p)
    p.add_argument("--save-witness", default=None,
                   help="write the first passing coloring here")
    p.add_argument("--workers", type=int, default=1)

    p = mcsub.add_parser("sweep", help="empirical threshold sweep over n (CSV)")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("-l", "--ell", type=int, required=True)
    p.add_argument("-t", type=int, required=True)
    p.add_argument("--n", dest="n_range", required=True,
                   help="range LO:HI:STEP (HI inclusive)")
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--target", type=float, default=0.99)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)

    p = sub.add_parser("repro", help="one-shot reproduction of the headline numbers")
    p.add_argument("target", choices=["theta", "thresholds", "averaging", "k6"])
    p.add_argument("-n", type=int, default=9, help="order for the averaging target")
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", default="k6_certificates",
                   help="where the k6 target writes certificates")

    p = sub.add_parser("replay", help="re-run a manifest and check the output digest")
    p.add_argument("manifest", help="manifest JSON path")

    return parser


# ---------------------------------------------------------------------------
# Command handlers: return (exit_code, primary_output_text)

def _cmd_bounds(args) -> tuple[int, str]:
    report = bounds.combined_N(args.k, args.ell, args.eps, theta_tol=args.theta_tol)
    doc = report.to_json_dict()
    rows = [("k", report.k), ("ell", report.ell),
            ("p", f"{report.p} = {float(report.p):.6f}"),
            ("f(k)=1/(1-p)", f"{report.f_k} = {float(report.f_k):.6f}"),
            ("N1", report.n1), ("N2", f"{report.n2} ({report.n2_kind.value})"),
            ("N", report.combined)]
    if report.eps is not None:
        rows += [("eps", str(report.eps)), ("theta", f"{report.theta:.3f}"),
                 ("ell_min", report.ell_minimum), ("n_threshold", report.n_thresh)]
    width = max(len(name) for name, _ in rows)
    for name, value in rows:
        print(f"  {name:<{width}}  {value}", file=sys.stderr)
    return 0, json.dumps(doc, indent=2) + "\n"


def _cmd_verify(args) -> tuple[int, str]:
    coloring = read_coloring(args.coloring)
    report = verify_coloring(
        coloring, args.k, args.ell, _mode_from_args(args),
        per_set_counts=args.per_s_counts, workers=args.workers)
    return (0 if report.passed else 1), json.dumps(report.to_json_dict(), indent=2) + "\n"


def _witness_dump(coloring: CompleteGraphColoring, k: int, mode: OracleMode) -> str:
    """Per-set witness families, one tree per line as 'T: (u,v) (u,v) ...'."""
    lines = []
    for members in combinations(range(1, coloring.n + 1), k):
        _, family = max_disjoint_rainbow_trees(VertexSet(members), coloring, mode)
        lines.append("# S = {" + ",".join(map(str, members)) + "}")
        for tree in family.trees:
            lines.append(_tree_line(tree))
    return "\n".join(lines) + "\n"


def _tree_line(tree) -> str:
    return "T: " + " ".join(f"({u},{v})" for u, v in tree.edges)


def _cmd_search(args) -> tuple[int, str]:
    mode = _mode_from_args(args)
    result = search.find_coloring(
        args.n, args.k, args.ell, args.t, args.strategy,
        args.search_budget, SeededStream(args.seed), mode)
    doc = result.to_json_dict()
    doc.update({"n": args.n, "k": args.k, "ell": args.ell, "t": args.t,
                "mode": mode.label(), "seed": args.seed})
    if result.found:
        if args.out:
            write_coloring(result.coloring, args.out)
            doc["coloring_file"] = args.out
        else:
            doc["coloring"] = list(result.coloring.colors)
        if args.witness_out:
            Path(args.witness_out).write_text(
                _witness_dump(result.coloring, args.k, mode))
            doc["witness_file"] = args.witness_out
        return 0, json.dumps(doc, indent=2) + "\n"
    print("none found within budget", file=sys.stderr)
    return 3, json.dumps(doc, indent=2) + "\n"


def _cmd_oracle(args) -> tuple[int, str]:
    coloring = read_coloring(args.coloring)
    members = tuple(sorted(int(tok) for tok in args.S.split(",")))
    terminals = VertexSet(members)
    mode = _mode_from_args(args)
    value, family = max_disjoint_rainbow_trees(terminals, coloring, mode)
    doc = {
        "S": list(members),
        "mode": mode.label(),
        "max": value,
        "witness": [_tree_line(t) for t in family.trees],
    }
    return 0, json.dumps(doc, indent=2) + "\n"


def _cmd_tail(args) -> tuple[int, str]:
    cmp = bounds.binomial_upper_vs_union(args.n, args.k, args.ell)
    doc = {
        "n": args.n, "k": args.k, "ell": args.ell,
        "exact_tail": {"rational": f"{cmp.exact.numerator}/{cmp.exact.denominator}",
                       "decimal": float(cmp.exact)},
        "subset_bound": float(cmp.subset_bound),
        "power_bound": float(cmp.power_bound),
        "anomaly": cmp.anomaly,
    }
    chernoff = montecarlo.tail_comparators(args.n, args.k, args.ell).get("chernoff_tail")
    if chernoff is not None:
        doc["chernoff_tail"] = chernoff
    return 0, json.dumps(doc, indent=2) + "\n"


def _cmd_mc(args) -> tuple[int, str]:
    if args.mc_command == "bs":
        config = montecarlo.TrialConfig(
            n=args.n, k=args.k, ell=args.ell, t=args.k,
            samples=args.samples, seed=SeededStream(args.seed))
        summary = montecarlo.estimate_BS(config)
        return 0, json.dumps(summary.to_json_dict(), indent=2) + "\n"
    if args.mc_command == "as-all":
        config = montecarlo.TrialConfig(
            n=args.n, k=args.k, ell=args.ell, t=args.t,
            samples=args.samples, seed=SeededStream(args.seed),
            mode=_mode_from_args(args))
        summary, witness = montecarlo.estimate_AS_all(config, workers=args.workers)
        doc = summary.to_json_dict()
        if witness is not None and args.save_witness:
            write_coloring(witness, args.save_witness)
            doc["witness_file"] = args.save_witness
        return 0, json.dumps(doc, indent=2) + "\n"
    # sweep
    try:
        lo, hi, step = (int(tok) for tok in args.n_range.split(":"))
    except ValueError:
        raise ValueError(f"bad range {args.n_range!r}, expected LO:HI:STEP") from None
    if step < 1 or hi < lo:
        raise ValueError(f"bad range {args.n_range!r}")
    n_values = list(range(lo, hi + 1, step))
    found, rows = montecarlo.empirical_threshold(
        args.k, args.ell, args.t, args.samples, args.target, n_values,
        SeededStream(args.seed), workers=args.workers)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=[
        "n", "samples", "successes", "estimate", "wilson_lo", "wilson_hi",
        "exact_tail", "chernoff", "union_bound"])
    writer.writeheader()
    for row in rows:
        writer.writerow({key: ("" if value is None else value) for key, value in row.items()})
    print(f"threshold (wilson_lo >= {args.target}): "
          f"{found if found is not None else 'not found in range'}", file=sys.stderr)
    return 0, buf.getvalue()


def _cmd_repro(args) -> tuple[int, str]:
    lines: list[str] = []
    ok = True

    def check(passed: bool, label: str):
        nonlocal ok
        ok = ok and passed
        lines.append(f"{PASS if passed else FAIL} {label}")

    if args.target == "theta":
        for eps, expected in ((Fraction(1, 2), 712.415), (Fraction(2, 3), 360.699)):
            theta = bounds.chernoff_theta(eps, 3)
            check(abs(theta - expected) <= 1e-2,
                  f"theta(eps={eps}, k=3) = {theta:.3f} (expected {expected} +- 0.01)")
    elif args.target == "thresholds":
        lmin = bounds.ell_min(Fraction(1, 2), 3)
        check(lmin == 80, f"ell_min(1/2, 3) = {lmin} (expected 80)")
        bad = [l for l in range(80, 121) if bounds.n_threshold(Fraction(1, 2), 3, l) != 9 * l - 6]
        check(not bad, "n_threshold(1/2, 3, ell) = 9*ell - 6 on ell = 80..120")
        lmin = bounds.ell_min(Fraction(2, 3), 3)
        check(lmin == 28, f"ell_min(2/3, 3) = {lmin} (expected 28)")
        bad = [l for l in range(28, 61)
               if bounds.n_threshold(Fraction(2, 3), 3, l) != -((-3 * (9 * l - 7)) // 2)]
        check(not bad, "n_threshold(2/3, 3, ell) = ceil(3(9*ell - 7)/2) on ell = 28..60")
    elif args.target == "averaging":
        stream = SeededStream(args.seed)
        bound = bounds.averaging_bound(args.n)
        identity_ok = True
        bounded_ok = True
        for i in range(args.samples):
            coloring = random_coloring(args.n, 3, stream.substream(i))
            degree_avg, star_avg = bounds.expected_X_upper(coloring)
            if degree_avg != star_avg + 3:
                identity_ok = False
            if degree_avg > bound:
                bounded_ok = False
        check(identity_ok,
              f"star-average + 3 equals degree-product average on {args.samples} "
              f"random 3-colorings of K_{args.n} (exact)")
        check(bounded_ok,
              f"degree-product average <= {bound} = averaging_bound({args.n}) on every sample")
    else:  # k6
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        stream = SeededStream(args.seed)
        for ell, strategy in ((1, "random"), (2, "local")):
            result = search.find_coloring(
                6, 3, ell, 3, strategy, 20000, stream.substream(ell),
                OracleMode.full(1))
            if not result.found:
                check(False, f"search found a K_6 coloring for ell={ell}")
                continue
            report = verify_coloring(result.coloring, 3, ell, OracleMode.full(1))
            path = out_dir / f"k6_ell{ell}.coloring"
            write_coloring(result.coloring, path)
            check(report.passed,
                  f"K_6 coloring for ell={ell} ({strategy}, {result.attempts} attempts) "
                  f"verifies in full mode; saved to {path}")
    return (0 if ok else 1), "\n".join(lines) + "\n"


_HANDLERS = {
    "bounds": _cmd_bounds,
    "verify": _cmd_verify,
    "search": _cmd_search,
    "oracle": _cmd_oracle,
    "tail": _cmd_tail,
    "mc": _cmd_mc,
    "repro": _cmd_repro,
}


def _dispatch(args) -> tuple[int, str]:
    try:
        return _HANDLERS[args.command](args)
    except (ColoringFormatError, BudgetExceededError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2, ""
    except Exception:
        traceback.print_exc()
        return 4, ""


def _manifest(args, argv: list[str], code: int, output: str, wall: float) -> RunManifest:
    return RunManifest(
        subcommand=args.command,
        argv=argv,
        seed=getattr(args, "seed", None),
        version=__version__,
        exit_code=code,
        wall_time_s=wall,
        output_sha256=hashlib.sha256(output.encode()).hexdigest(),
    )


def _cmd_replay(args) -> int:
    doc = json.loads(Path(args.manifest).read_text())
    argv = doc["argv"]
    parser = build_parser()
    replay_args = parser.parse_args(argv)
    start = time.perf_counter()
    code, output = _dispatch(replay_args)
    wall = time.perf_counter() - start
    digest = hashlib.sha256(output.encode()).hexdigest()
    same = digest == doc["output_sha256"] and code == doc["exit_code"]
    sys.stdout.write(output)
    print(f"replay of {' '.join(argv)}: "
          f"{'byte-identical' if same else 'OUTPUT DIFFERS'} "
          f"({wall:.3f}s, exit {code})", file=sys.stderr)
    return 0 if same else 1


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "replay":
        return _cmd_replay(args)
    start = time.perf_counter()
    code, output = _dispatch(args)
    wall = time.perf_counter() - start
    sys.stdout.write(output)
    text = _manifest(args, argv, code, output, wall).to_json()
    if args.manifest:
        Path(args.manifest).write_text(text + "\n")
    else:
        print(text, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
