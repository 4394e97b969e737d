"""Command-line front end.

Subcommands: ``spectrum``, ``invariants``, ``bounds``, ``search``, ``gen``.
Exit codes: 0 success, 1 a hypothesis-enforced bound came back violated,
2 usage or input error (an unreadable path, a malformed file, a graph
without vertices for ``bounds`` or ``invariants``), 3 an exact-computation
guard was exceeded, an exact walk count left the 64-bit integer range, or
``invariants --force`` met a switching-class sign table that cannot be
allocated, or the input ran the process out of memory.

The grammar of ``spectrum``, ``invariants``, ``bounds`` and ``search`` is
one table, ``_GRAMMAR``.  ``run_cli`` reads a well-formed call of those
four straight from it: exact long options as ``--opt value`` or
``--opt=value``, no value that starts with ``-``, every positional and
required option present.  Anything else (help, a usage error, an
abbreviation, ``--``, ``gen``) goes to the argparse parser that
``build_parser`` builds from the same table, so every help and usage byte
is argparse's; a well-formed call neither imports nor builds it.
"""

from __future__ import annotations

import functools
import sys
from pathlib import Path
from types import SimpleNamespace
from typing import TYPE_CHECKING, Sequence

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

if TYPE_CHECKING:
    import argparse

#: command -> (help, positionals, {long option: (converter, default,
#: required, help)}); a converter of None marks a ``store_true`` flag, and
#: an option's dest is its name without the dashes, ``-`` read as ``_``
_GRAMMAR = {
    "spectrum": ("eigenvalues of a .sg file", ("file",), {}),
    "invariants": ("combinatorial invariants of a .sg file", ("file",), {
        "--force": (None, False, False, "run exact enumerations even past their guards"),
    }),
    "bounds": ("evaluate every registered bound", ("file",), {
        "--json": (None, False, False, "machine-readable report"),
        "--r": (int, None, False, "walk order for B10/B11"),
        "--q": (int, None, False, "walk order q for B11"),
    }),
    "search": ("random search for bound violations", (), {
        "--target": (str, None, True, "bound id to probe"),
        "--n": (str, None, True, "order range A:B"),
        "--p": (float, None, True, "edge probability"),
        "--qneg": (float, None, True, "negative-sign probability"),
        "--samples": (int, None, True, None),
        "--seed": (int, 0, False, None),
        "--triangle-free": (None, False, False, None),
        "--r": (int, None, False, "walk order for B10/B11 targets"),
        "--q": (int, None, False, "walk order q for B11 targets"),
        "--json": (None, False, False, None),
    }),
}


def _dest(option: str) -> str:
    return option[2:].replace("-", "_")


def _read_argv(argv: list[str]) -> SimpleNamespace | None:
    """The namespace argparse gives a well-formed call of a ``_GRAMMAR``
    command, or None for any other argv."""
    if not argv or argv[0] not in _GRAMMAR:
        return None
    _, positionals, options = _GRAMMAR[argv[0]]
    values = {_dest(option): default for option, (_, default, _, _) in options.items()}
    given, seen, rest = [], set(), iter(argv[1:])
    for token in rest:
        if not token.startswith("-"):
            given.append(token)
            continue
        option, eq, value = token.partition("=")
        if option not in options:
            return None
        convert = options[option][0]
        if convert is None:  # a flag takes no value
            if eq:
                return None
            values[_dest(option)] = True
        else:
            if not eq:
                value = next(rest, "-")
            if value.startswith("-"):
                return None
            try:
                values[_dest(option)] = convert(value)
            except ValueError:
                return None
        seen.add(option)
    if len(given) != len(positionals) or any(
        required and option not in seen for option, (_, _, required, _) in options.items()
    ):
        return None
    return SimpleNamespace(command=argv[0], **values, **dict(zip(positionals, given)))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    import argparse

    parser = argparse.ArgumentParser(
        prog="signed-spectra",
        description="Signed-graph spectra, exact invariants and bound checking.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for command, (help_text, positionals, options) in _GRAMMAR.items():
        p_cmd = sub.add_parser(command, help=help_text)
        for name in positionals:
            p_cmd.add_argument(name)
        for option, (convert, default, required, option_help) in options.items():
            if convert is None:
                p_cmd.add_argument(option, action="store_true", help=option_help)
            else:
                p_cmd.add_argument(option, type=convert, default=default, required=required, help=option_help)

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


# kind -> (usage, a converter per fixed param by name, (name, converter) of
# any further params or None when the fixed ones are all)
_GEN_PARAMS = {
    "paper_c5": ("gen paper_c5", {}, None),
    "all_negative_complete": ("gen all_negative_complete <n>", {"n": int}, None),
    "signed_cycle": ("gen signed_cycle <n> [negative edge indices...]", {"n": int}, ("negative_edges", int)),
    "erdos_renyi_signed": ("gen erdos_renyi_signed <n> <p> <q_neg>", {"n": int, "p": float, "q_neg": float}, None),
    "all_negative": ("gen all_negative <input.sg>", {"g": _load_graph}, None),
}


def _cmd_gen(args) -> int:
    kind, raw = args.kind, list(args.params)
    if kind not in _GEN_PARAMS:
        raise InvalidParamsError(f"unknown generator {kind!r}")
    usage, fixed, rest = _GEN_PARAMS[kind]
    if len(raw) < len(fixed) or (rest is None and len(raw) > len(fixed)):
        raise InvalidParamsError(f"usage: {usage}")
    params = {name: convert(value) for (name, convert), value in zip(fixed.items(), raw)}
    if rest is not None:
        params[rest[0]] = tuple(rest[1](value) for value in raw[len(fixed):])
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
    if isinstance(argv, str):  # a str is a sequence of strings too, and would be read a character a time
        print(f"error: arguments must be a sequence of strings, got one string {argv!r}", file=sys.stderr)
        return 2
    argv = sys.argv[1:] if argv is None else list(argv)
    for item in argv:
        if not isinstance(item, str):
            print(f"error: arguments must be strings, got {item!r} ({type(item).__name__})", file=sys.stderr)
            return 2
    args = _read_argv(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
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
