"""Command-line surface: every library operation, machine-readable output.

Exit codes: 0 = pass/success, 1 = verified failure, 2 = usage or domain
error, 3 = search budget exhausted without a find, 4 = internal error
(an unexpected exception; its traceback goes to stderr). Every command runs
through one path: the parser is built once per process, and `_run`
dispatches, times and digests the run. `main` then writes the primary output
and one manifest (JSON, to --manifest or stderr) recording the arguments,
seed, version, and the digest; a manifest that cannot be written, to its
file or to stderr, exits 2, and so does a run whose output cannot be
written (stdout closed or full, or a broken pipe), with its manifest still
recording the run's own code. Every other stderr line (error lines, tables,
notes) is best effort and never changes the exit code.
`replay` re-runs a manifest through the same `_run` and checks the digest,
so primary outputs are byte-reproducible.
JSON reports are indented by 2; `verify` writes its report, with one entry
per k-set under --per-s-counts, through `VerificationReport.to_json_text`,
which gives the same bytes by gathering string pieces with the count array
as index, with no Python object built per entry.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import io
import json
import math
import sys
import time
import traceback
from decimal import Decimal
from fractions import Fraction
from itertools import combinations
from pathlib import Path

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


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}")


def _mode_from_args(args) -> OracleMode:
    return OracleMode(args.mode, args.budget)  # rejects a budget in star mode


def _add_mode_flags(parser, default="star"):
    parser.add_argument("--mode", choices=["star", "full"], default=default,
                        help="oracle candidate universe (default %(default)s)")
    parser.add_argument("--budget", type=int, default=None,
                        help="external-vertex budget for the full oracle (default max(1, k-2))")


# Integer flags that several subcommands share: option strings and default
# (None: required).
_SHARED_FLAGS = {
    "-n": (("-n",), None),
    "-k": (("-k",), None),
    "-l": (("-l", "--ell"), None),
    "-t": (("-t",), None),
    "--samples": (("--samples",), None),
    "--seed": (("--seed",), 0),
    "--workers": (("--workers",), 1),
}


def _add_shared_flags(parser, *names):
    for name in names:
        flags, default = _SHARED_FLAGS[name]
        parser.add_argument(*flags, type=int, required=default is None, default=default)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: it takes no arguments, so it is built once."""
    parser = argparse.ArgumentParser(
        prog="rainbowindex",
        description="Thresholds, certificates, and experiments for rainbow "
                    "tree families in edge-colored complete graphs.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("--manifest", metavar="PATH", default=None,
                        help="write the run manifest JSON here (default: stderr)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bounds", help="compute every analytic threshold for (k, ell)")
    _add_shared_flags(p, "-k", "-l")
    p.add_argument("--eps", type=_fraction, default=None,
                   help="rational in (0,1), e.g. 1/2, to add concentration thresholds")

    p = sub.add_parser("verify", help="check a coloring file against a (k, ell) demand")
    p.add_argument("coloring", help="coloring file path")
    _add_shared_flags(p, "-k", "-l")
    _add_mode_flags(p)
    p.add_argument("--per-s-counts", action="store_true",
                   help="report the exact count for every k-set")
    _add_shared_flags(p, "--workers")

    p = sub.add_parser("search", help="find a coloring meeting a (k, ell) demand")
    _add_shared_flags(p, "-n", "-k", "-l", "-t")
    p.add_argument("--strategy", choices=search.STRATEGIES, default="random")
    p.add_argument("--search-budget", type=int, default=10000,
                   help="colorings drawn / scanned / objective evaluations")
    _add_shared_flags(p, "--seed")
    _add_mode_flags(p)
    p.add_argument("-o", "--out", default=None, help="write the found coloring here")
    p.add_argument("--witness-out", default=None,
                   help="write per-set witness tree dumps here")

    p = sub.add_parser("oracle", help="exact maximum disjoint rainbow family for one k-set")
    p.add_argument("coloring", help="coloring file path")
    p.add_argument("-S", required=True, help="comma-separated terminal vertices, e.g. 1,2,3")
    _add_mode_flags(p, default="full")

    p = sub.add_parser("tail", help="exact binomial star tail vs its closed-form bounds")
    _add_shared_flags(p, "-n", "-k", "-l")

    mc = sub.add_parser("mc", help="Monte Carlo experiments")
    mcsub = mc.add_subparsers(dest="mc_command", required=True)

    p = mcsub.add_parser("bs", help="frequency of a star-starved terminal set")
    _add_shared_flags(p, "-n", "-k", "-l", "--samples", "--seed")

    p = mcsub.add_parser("as-all", help="frequency of colorings passing every k-set")
    _add_shared_flags(p, "-n", "-k", "-l", "-t", "--samples", "--seed")
    _add_mode_flags(p)
    p.add_argument("--save-witness", default=None,
                   help="write the first passing coloring here")
    _add_shared_flags(p, "--workers")

    p = mcsub.add_parser("sweep", help="empirical threshold sweep over n (CSV)")
    _add_shared_flags(p, "-k", "-l", "-t")
    p.add_argument("--n", dest="n_range", required=True,
                   help="range LO:HI:STEP (HI inclusive)")
    _add_shared_flags(p, "--samples")
    p.add_argument("--target", type=float, default=0.99)
    _add_shared_flags(p, "--seed", "--workers")

    p = sub.add_parser("repro", help="one-shot reproduction of the headline numbers")
    p.add_argument("target", choices=["theta", "thresholds", "averaging", "k6"])
    p.add_argument("-n", type=int, default=9, help="order for the averaging target")
    p.add_argument("--samples", type=int, default=1000)
    _add_shared_flags(p, "--seed")
    p.add_argument("--out-dir", default="k6_certificates",
                   help="where the k6 target writes certificates")

    p = sub.add_parser("replay", help="re-run a manifest and check the output digest")
    p.add_argument("replayed", metavar="manifest", help="manifest JSON path")

    return parser


# ---------------------------------------------------------------------------
# Command handlers: return (exit_code, primary_output_text)

def _cmd_bounds(args) -> tuple[int, str]:
    report = bounds.combined_N(args.k, args.ell, args.eps)
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
        _note(f"  {name:<{width}}  {value}")
    return 0, json.dumps(doc, indent=2) + "\n"


def _cmd_verify(args) -> tuple[int, str]:
    coloring = read_coloring(args.coloring)
    report = verify_coloring(
        coloring, args.k, args.ell, _mode_from_args(args),
        per_set_counts=args.per_s_counts, workers=args.workers)
    return (0 if report.passed else 1), report.to_json_text()


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
    _note("none found within budget")
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
    # str(int) refuses more than 4300 digits; Decimal(int) is exact and has no such limit
    numerator, denominator = (str(Decimal(x)) for x in (cmp.exact.numerator, cmp.exact.denominator))
    doc = {
        "n": args.n, "k": args.k, "ell": args.ell,
        "exact_tail": {"rational": f"{numerator}/{denominator}",
                       "decimal": float(cmp.exact)},
        "subset_bound": _float_or_inf(cmp.subset_bound),
        "power_bound": _float_or_inf(cmp.power_bound),
        "anomaly": cmp.anomaly,
    }
    if (args.n - args.k) * bounds.rainbow_star_prob(args.k) > args.ell - 1:
        doc["chernoff_tail"] = montecarlo.chernoff_tail_bound(args.n, args.k, args.ell)
    return 0, json.dumps(doc, indent=2) + "\n"


def _float_or_inf(x: Fraction) -> float:
    """A bound as a float; one past the float range is printed as Infinity,
    as ``mc bs`` prints ``union_bound_total``."""
    try:
        return float(x)
    except OverflowError:
        return math.inf


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
    _note(f"threshold (wilson_lo >= {args.target}): "
          f"{found if found is not None else 'not found in range'}")
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
        if args.samples < 1:
            raise ValueError(f"need samples >= 1, got {args.samples}")
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


def _run(args) -> tuple[int, str, float, str]:
    """Dispatch one parsed run: (exit code, primary output, wall time, output SHA-256)."""
    start = time.perf_counter()
    try:
        code, output = _HANDLERS[args.command](args)
    except (ColoringFormatError, BudgetExceededError, ValueError, OSError) as exc:
        _note(f"error: {exc}")
        code, output = 2, ""
    except Exception:
        _note(traceback.format_exc().rstrip("\n"))
        code, output = 4, ""
    wall = time.perf_counter() - start
    return code, output, wall, hashlib.sha256(output.encode()).hexdigest()


def _write(name: str, text: str) -> Exception | None:
    """Write ``text`` to ``sys.stdout`` or ``sys.stderr`` (``name``) and
    flush it: None, or the error when it cannot be written. The stream is
    then closed, which drops what stayed buffered, so no flush at exit fails
    again."""
    stream = getattr(sys, name)
    try:
        if stream is None:
            raise OSError(f"{name} is closed")
        stream.write(text)
        stream.flush()
    except (OSError, ValueError) as exc:  # a failed write, or a stream closed before
        try:
            stream.close()
        except (OSError, ValueError, AttributeError):  # the failed flush again, or no stream
            pass
        return exc
    return None


def _note(line: str) -> bool:
    """Write one line to stderr; False when it cannot be written."""
    return _write("stderr", line + "\n") is None


def _write_output(output: str) -> int:
    """Write a run's primary output to stdout: 0, or 2 after one error line
    when it cannot be written."""
    error = _write("stdout", output) if output else None
    if error is not None:
        _note(f"error: cannot write output: {error}")
        return 2
    return 0


def _cmd_replay(args) -> int:
    try:
        doc = json.loads(Path(args.replayed).read_text())
        argv, expected = doc["argv"], (doc["output_sha256"], doc["exit_code"])
        if not (isinstance(argv, list) and all(isinstance(arg, str) for arg in argv)):
            raise TypeError(f"argv is not a list of strings: {argv!r}")
    except KeyError as exc:
        _note(f"error: manifest {args.replayed} has no {exc} field")
        return 2
    except (OSError, ValueError, TypeError) as exc:
        _note(f"error: cannot read manifest {args.replayed}: {exc}")
        return 2
    replay_args = build_parser().parse_args(argv)
    if replay_args.command == "replay":
        _note(f"error: manifest {args.replayed} records a replay, not a run")
        return 2
    code, output, wall, digest = _run(replay_args)
    same = (digest, code) == expected
    unwritten = _write_output(output)
    _note(f"replay of {' '.join(argv)}: "
          f"{'byte-identical' if same else 'OUTPUT DIFFERS'} "
          f"({wall:.3f}s, exit {code})")
    return unwritten or (0 if same else 1)


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = build_parser().parse_args(argv)
    if args.command == "replay":
        if args.manifest:
            _note("error: --manifest does not apply to replay, which writes no manifest")
            return 2
        return _cmd_replay(args)
    code, output, wall, digest = _run(args)
    unwritten = _write_output(output)
    text = json.dumps({"subcommand": args.command, "argv": argv,
                       "seed": getattr(args, "seed", None), "version": __version__,
                       "exit_code": code, "wall_time_s": wall, "output_sha256": digest})
    if not args.manifest:
        return (unwritten or code) if _note(text) else 2
    try:
        Path(args.manifest).write_text(text + "\n")
    except OSError as exc:
        _note(f"error: cannot write manifest {args.manifest}: {exc}")
        return 2
    return unwritten or code


if __name__ == "__main__":
    sys.exit(main())
