"""Command-line front end.

Subcommands: ``spectrum``, ``invariants``, ``bounds``, ``search``, ``gen``.
Exit codes: 0 success, 1 a hypothesis-enforced bound came back violated,
2 usage or input error (an unreadable path, a malformed file, a graph
without vertices for ``bounds`` or ``invariants``), 3 an exact-computation
guard was exceeded, an exact walk count left the 64-bit integer range, or
``invariants --force`` met a switching-class sign table that cannot be
allocated, or the input ran the process out of memory.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path
from typing import Sequence

from .bounds import (
    DEFAULT_B10_RS,
    DEFAULT_B11_QRS,
    REGISTRY,
    VIOLATED,
    BoundEvaluation,
    _Ctx,
    evaluate_all,
    evaluations_to_json,
)
from .errors import InvalidConfigError, InvalidParamsError, SignedSpectraError, TooLargeError
from .graph import SignedGraph, generate, parse_signed_graph
from .invariants import balanced_clique_number, edge_bipartiteness, frustration_index_exact
from .search import SearchConfig, findings_to_json, search_counterexamples
from .spectral import spectrum_of


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="signed-spectra",
        description="Signed-graph spectra, exact invariants and bound checking.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_spec = sub.add_parser("spectrum", help="eigenvalues of a .sg file")
    p_spec.add_argument("file")

    p_inv = sub.add_parser("invariants", help="combinatorial invariants of a .sg file")
    p_inv.add_argument("file")
    p_inv.add_argument(
        "--force",
        action="store_true",
        help="run exact enumerations even past their guards",
    )

    p_bounds = sub.add_parser("bounds", help="evaluate every registered bound")
    p_bounds.add_argument("file")
    p_bounds.add_argument("--json", action="store_true", help="machine-readable report")
    p_bounds.add_argument("--r", type=int, default=None, help="walk order for B10/B11")
    p_bounds.add_argument("--q", type=int, default=None, help="walk order q for B11")

    p_search = sub.add_parser("search", help="random search for bound violations")
    p_search.add_argument("--target", required=True, help="bound id to probe")
    p_search.add_argument("--n", required=True, help="order range A:B")
    p_search.add_argument("--p", type=float, required=True, help="edge probability")
    p_search.add_argument("--qneg", type=float, required=True, help="negative-sign probability")
    p_search.add_argument("--samples", type=int, required=True)
    p_search.add_argument("--seed", type=int, default=0)
    p_search.add_argument("--triangle-free", action="store_true")
    p_search.add_argument("--r", type=int, default=None, help="walk order for B10/B11 targets")
    p_search.add_argument("--q", type=int, default=None, help="walk order q for B11 targets")
    p_search.add_argument("--json", action="store_true")

    p_gen = sub.add_parser("gen", help="write a named or random instance")
    p_gen.add_argument("kind")
    p_gen.add_argument("params", nargs="*")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("-o", "--output", default=None, help="output file (default stdout)")

    return parser


def _load_graph(path: str) -> SignedGraph:
    text = Path(path).read_text(encoding="utf-8")
    return parse_signed_graph(text)


def _cmd_spectrum(args) -> int:
    g = _load_graph(args.file)
    spec = spectrum_of(g)
    print(f"n={g.n} m={g.m} m+={g.m_plus} m-={g.m_minus}")
    for i, val in enumerate(spec.eigenvalues, start=1):
        print(f"lambda_{i} = {val:.12f}")
    n_pos, n_neg, n_zero = spec.inertia
    print(f"rho = {spec.rho:.12f}")
    print(f"inertia: n+={n_pos} n-={n_neg} n0={n_zero}")
    return 0


def _cmd_invariants(args) -> int:
    g = _load_graph(args.file)
    ctx = _Ctx(g, shared=not args.force)
    if args.force:  # exact past every guard, and kept out of the memo
        forced = (frustration_index_exact, edge_bipartiteness, balanced_clique_number)
        values = [(f(g, force=True), True) for f in forced]
    else:
        values = [ctx.exact_or_bound(name) for name in ("eps", "eps_b", "omega_b")]
    labels = ("frustration_index", "edge_bipartiteness", "balanced_clique_number")
    print(f"n={g.n} m={g.m} m+={g.m_plus} m-={g.m_minus}")
    for label, (value, exact) in zip(labels, values):
        print(f"{label}: {value} ({'exact' if exact else 'heuristic bound'})")
    tri = ctx.census
    print(f"triangles: t+={tri.t_plus} t-={tri.t_minus} t_s={tri.t_s}")
    return 0


def _violated_enforced(evals: Sequence[BoundEvaluation]) -> bool:
    """True when a hypothesis-enforced entry is violated (CLI exit 1)."""
    return any(
        ev.verdict == VIOLATED and REGISTRY[ev.bound_id].enforced for ev in evals
    )


def _cmd_bounds(args) -> int:
    g = _load_graph(args.file)
    rs = (args.r,) if args.r is not None else DEFAULT_B10_RS
    if args.q is not None or args.r is not None:
        qr_pairs = ((args.q if args.q is not None else 1, args.r if args.r is not None else 1),)
    else:
        qr_pairs = DEFAULT_B11_QRS
    evals = evaluate_all(g, rs=rs, qr_pairs=qr_pairs)
    if args.json:
        print(evaluations_to_json(evals))
    else:
        print(f"{'bound':{8}} {'verdict':{20}} {'lhs':>{14}} {'rhs':>{14}} {'slack':>{14}}  params")
        for ev in evals:
            params = " ".join(f"{k}={v}" for k, v in sorted(ev.params.items()))
            print(
                f"{ev.bound_id:{8}} {ev.verdict:{20}} {ev.lhs:14.6g} {ev.rhs:14.6g} "
                f"{ev.slack:14.6g}  {params}"
            )
    return 1 if _violated_enforced(evals) else 0


def _cmd_search(args) -> int:
    n_min, _, n_max = args.n.partition(":")
    try:
        lo, hi = int(n_min), int(n_max if n_max else n_min)
    except ValueError:
        raise InvalidConfigError(f"--n expects A:B with integers, got {args.n!r}") from None
    params = {}
    if args.r is not None:
        params["r"] = args.r
    if args.q is not None:
        params["q"] = args.q
    cfg = SearchConfig(
        target=args.target,
        n_min=lo,
        n_max=hi,
        edge_probability=args.p,
        negative_probability=args.qneg,
        samples=args.samples,
        seed=args.seed,
        triangle_free_filter=args.triangle_free,
        params=params,
    )
    findings = search_counterexamples(cfg)
    if args.json:
        print(findings_to_json(findings))
    else:
        print(f"findings: {len(findings)}")
        for f in findings:
            print(
                f"- sample {f.sample_index}: {f.bound_id} lhs={f.lhs:.6g} "
                f"rhs={f.rhs:.6g} slack={f.slack:.6g}"
            )
            for line in f.graph.rstrip("\n").split("\n"):
                print(f"    {line}")
    if findings and REGISTRY[cfg.target].enforced:
        return 1
    return 0


def _cmd_gen(args) -> int:
    kind = args.kind
    raw = list(args.params)
    params: dict = {}
    if kind == "paper_c5":
        pass
    elif kind == "all_negative_complete":
        if len(raw) != 1:
            raise InvalidParamsError("usage: gen all_negative_complete <n>")
        params["n"] = int(raw[0])
    elif kind == "signed_cycle":
        if not raw:
            raise InvalidParamsError("usage: gen signed_cycle <n> [negative edge indices...]")
        params["n"] = int(raw[0])
        params["negative_edges"] = tuple(int(x) for x in raw[1:])
    elif kind == "erdos_renyi_signed":
        if len(raw) != 3:
            raise InvalidParamsError("usage: gen erdos_renyi_signed <n> <p> <q_neg>")
        params["n"] = int(raw[0])
        params["p"] = float(raw[1])
        params["q_neg"] = float(raw[2])
    elif kind == "all_negative":
        if len(raw) != 1:
            raise InvalidParamsError("usage: gen all_negative <input.sg>")
        params["g"] = _load_graph(raw[0])
    else:
        raise InvalidParamsError(f"unknown generator {kind!r}")
    g = generate(kind, seed=args.seed, **params)
    text = g.to_sg()
    if args.output is None:
        sys.stdout.write(text)
    else:
        Path(args.output).write_text(text, encoding="utf-8")
    return 0


_HANDLERS = {
    "spectrum": _cmd_spectrum,
    "invariants": _cmd_invariants,
    "bounds": _cmd_bounds,
    "search": _cmd_search,
    "gen": _cmd_gen,
}


def run_cli(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return _HANDLERS[args.command](args)
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc.filename}", file=sys.stderr)
        return 2
    except TooLargeError as exc:
        print(f"error: guard exceeded: {exc}", file=sys.stderr)
        return 3
    except (OverflowError, MemoryError) as exc:  # MemoryError: O(n) passes on a huge n
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 3
    except (SignedSpectraError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
