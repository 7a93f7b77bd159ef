"""Command-line front end.

Verbs: params, pack, cover, construct, verify, probe. Machine-readable
JSON goes to stdout (one compact object per line); human summaries go to
stderr. Exit codes: 0 success/YES, 1 NO or probe violation, 2 input error,
3 precondition error, 4 no answer: a search exhausted its meter (the node
budget of a packing or cover search, the cap on completed colorings of
one component in a coloring search) or a certificate was rejected.

Input files are read by one reader (a path, or '-' for stdin) and decoded
by the module that writes their format: graph text by ``graphs``, the
instance JSON of ``verify`` by ``extremal.ExtremalInstance``. ``construct``
names no family itself: ``extremal.FAMILIES`` gives each family's builder
and the flags it takes, and one path requires, converts and passes them.

The argparse parser is built once per process, on the first call of
``main``, and later calls reuse it. A call takes one argparse pass: the
verb's own subparser reads the words after the verb, and the top-level
parser runs only to print a usage error or help (no verb first, or words
the verb does not take). Each parse fills a fresh namespace, the verb
functions look up what they call when they run, and help text is wrapped
to the terminal width at the time it is printed. A file is read by
``os.open`` and ``os.read`` to its end, without the buffered ``open``
stack, and stdin's bytes from ``sys.stdin.buffer``; both are decoded once
by the same codec (ASCII for graphs, UTF-8 for instances), so the same
bytes read alike from a path and from '-'. CR and CRLF line ends read as
LF, as in text mode. A read error names the path, as ``open`` does.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import extremal, probes
from .graphs import (
    BudgetExhausted,
    GraphFormatError,
    PreconditionError,
    parse_graph6,  # noqa: F401  unused here; perfbench/tracing.py wraps this name
    parse_graph_text,
    to_graph6,
)
from .packing import (
    DEFAULT_BUDGET,
    Verdict,
    copy_covering_vertex,
    has_perfect_packing,
    is_copy,
    verify_packing,
)
from .parameters import full_report

EXIT_OK = 0
EXIT_NO = 1
EXIT_INPUT = 2
EXIT_PRECONDITION = 3
EXIT_UNKNOWN = 4
EXIT_FOR_VERDICT = {Verdict.YES: EXIT_OK, Verdict.NO: EXIT_NO, Verdict.UNKNOWN: EXIT_UNKNOWN}

# no output nests a container in itself
_JSON = json.JSONEncoder(separators=(",", ":"), check_circular=False)
# bytes asked of each os.read: a graph of 128 vertices is about 1.4 KB of
# graph6 and at most about 65 KB of bare edge list, so most files take one
# read and one more that finds the end
_CHUNK = 1 << 16


def _emit(obj) -> None:
    print(_JSON.encode(obj))


def _note(msg: str) -> None:
    print(msg, file=sys.stderr)


def _read(path: str, encoding: str) -> str:
    """The text of the file at ``path``, or of stdin when it is '-', its
    bytes decoded by ``encoding``. Line ends become "\n" as text mode's
    universal newlines make them. A file is read by ``os.read`` to its
    end; an error there names the path, as ``open`` would."""
    if path == "-":
        data = sys.stdin.buffer.read()
    else:
        fd = os.open(path, os.O_RDONLY)
        try:
            chunks = []
            while chunk := os.read(fd, _CHUNK):
                chunks.append(chunk)
        except OSError as exc:  # a directory opens, but reads fail
            raise OSError(exc.errno, exc.strerror, path) from None
        finally:
            os.close(fd)
        data = b"".join(chunks)
    text = data.decode(encoding)
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def _load_graph(path: str):
    return parse_graph_text(_read(path, "ascii"))


def cmd_params(args) -> int:
    report = full_report(_load_graph(args.graph))
    _emit(report.to_json_dict())
    return EXIT_OK


def cmd_pack(args) -> int:
    g = _load_graph(args.graph)
    h = _load_graph(args.packing_graph)
    result = has_perfect_packing(g, h, args.budget)
    _note(f"packing search explored {result.nodes} nodes")
    if result.verdict is Verdict.YES and not verify_packing(g, h, result.certificate):
        _note("internal error: the packing certificate failed verification")
        print(Verdict.UNKNOWN.value.upper())
        return EXIT_UNKNOWN
    print(result.verdict.value.upper())
    if args.find and result.verdict is Verdict.YES:
        _emit(result.to_json_dict())
    return EXIT_FOR_VERDICT[result.verdict]


def cmd_cover(args) -> int:
    g = _load_graph(args.graph)
    h = _load_graph(args.packing_graph)
    if not 0 <= args.w < g.n:
        raise GraphFormatError(f"vertex {args.w} out of range for order {g.n}")
    result = copy_covering_vertex(g, h, args.w, args.budget)
    _note(f"anchored search explored {result.nodes} nodes")
    if result.verdict is Verdict.YES:
        if not (is_copy(g, h, result.embedding) and args.w in result.embedding.mapping):
            _note("internal error: the cover embedding failed verification")
            print("UNKNOWN")
            return EXIT_UNKNOWN
        _emit(result.embedding.to_json())
    else:
        print("NONE" if result.verdict is Verdict.NO else "UNKNOWN")
    return EXIT_FOR_VERDICT[result.verdict]


def cmd_construct(args) -> int:
    build, flags = extremal.FAMILIES[args.family]
    for flag in flags:  # all present before any file is read
        if getattr(args, flag) is None:
            raise PreconditionError(f"--{flag.replace('_', '-')} is required here")
    params = {flag: getattr(args, flag) for flag in flags}
    if "sizes" in params:
        try:
            params["sizes"] = [int(part) for part in args.sizes.split(",") if part.strip() != ""]
        except ValueError:
            raise PreconditionError(f"bad size list {args.sizes!r}") from None
    if "graph" in params:
        params["graph"] = _load_graph(args.graph)
    built = build(*params.values())
    if isinstance(built, extremal.ExtremalInstance):
        graph, meta = built.graph, built.to_json_dict()
    else:
        graph, classes = built if isinstance(built, tuple) else (built, None)
        params.pop("graph", None)
        meta = {"graph6": to_graph6(graph), "family": args.family, "params": params}
        if classes is not None:
            meta["classes"] = [list(c) for c in classes]
    print(to_graph6(graph))
    _emit(meta)
    _note(f"{args.family}: {graph.n} vertices, {graph.edge_count()} edges")
    return EXIT_OK


def cmd_verify(args) -> int:
    text = _read(args.instance, "utf-8")
    try:
        payload = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # a syntax error, an integer past Python's digit limit, or nesting
        # past the recursion limit
        raise GraphFormatError(f"bad instance JSON: {exc}") from None
    inst = extremal.ExtremalInstance.from_json_dict(payload)
    h = _load_graph(args.packing_graph)
    report = extremal.verify_lower_bound(inst, h, args.budget)
    _emit(report.to_json_dict())
    if report.no_cover is Verdict.UNKNOWN:
        return EXIT_UNKNOWN
    return EXIT_OK if report.all_ok else EXIT_NO


def cmd_probe(args) -> int:
    config = probes.ProbeConfig(
        family=args.family,
        n=args.n,
        samples=args.samples,
        seed=args.seed,
        r=args.r,
        budget=args.budget,
    )
    summary = probes.run_probe(config)
    _emit(summary.to_json_dict())
    _note(
        f"{args.family}: {summary.condition_hits} hypothesis hits in "
        f"{summary.samples} samples, {summary.violations} violations"
    )
    for g6 in summary.violation_graphs:
        _note(f"violation: {g6}")
    if summary.violations:
        return EXIT_NO
    if summary.unknowns:
        return EXIT_UNKNOWN
    return EXIT_OK


def _budget(text: str) -> int:
    """A node budget: an int of at least 0."""
    try:
        budget = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if budget < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {budget}")
    return budget


def build_parser() -> argparse.ArgumentParser:
    return _parsers()[0]


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and the subparser of each verb."""
    parser = argparse.ArgumentParser(
        prog="orepack",
        description="Exact toolkit for perfect-packing parameters under "
        "Ore-type degree conditions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("params", help="compute the parameter report of a graph")
    p.add_argument("graph", help="graph file (graph6 or edge list), '-' for stdin")
    p.set_defaults(func=cmd_params)

    p = sub.add_parser("pack", help="decide whether G has a perfect H-packing")
    p.add_argument("graph", help="host graph G")
    p.add_argument("packing_graph", help="packed graph H")
    p.add_argument("--find", action="store_true", help="print a verified certificate")
    p.add_argument("--budget", type=_budget, default=DEFAULT_BUDGET)
    p.set_defaults(func=cmd_pack)

    p = sub.add_parser("cover", help="find a copy of H covering vertex w of G")
    p.add_argument("graph")
    p.add_argument("packing_graph")
    p.add_argument("w", type=int)
    p.add_argument("--budget", type=_budget, default=DEFAULT_BUDGET)
    p.set_defaults(func=cmd_cover)

    p = sub.add_parser("construct", help="emit a named construction")
    p.add_argument("family", choices=list(extremal.FAMILIES))
    p.add_argument("--r", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--h-order", dest="h_order", type=int)
    p.add_argument("--t", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--sizes", help="comma-separated class sizes")
    p.add_argument("--graph", help="base graph for blowup")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="re-check a construction against an H")
    p.add_argument("instance", help="instance JSON file, '-' for stdin")
    p.add_argument("packing_graph")
    p.add_argument("--budget", type=_budget, default=DEFAULT_BUDGET)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("probe", help="randomized check of a packing theorem")
    p.add_argument("--family", required=True, choices=list(probes.PROBE_FAMILIES))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=_budget, default=DEFAULT_BUDGET)
    p.set_defaults(func=cmd_probe)

    return parser, sub.choices


def main(argv=None) -> int:
    parser, verbs = _parsers()
    argv = sys.argv[1:] if argv is None else argv
    verb = verbs.get(argv[0]) if argv else None
    args, extra = verb.parse_known_args(argv[1:]) if verb else (None, None)
    if verb is None or extra:
        # no verb first, or words the verb does not take: the top-level
        # parser reads argv whole and prints its usage error or help
        args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (GraphFormatError, OSError, UnicodeDecodeError) as exc:
        _note(f"input error: {exc}")
        return EXIT_INPUT
    except PreconditionError as exc:
        _note(f"precondition error: {exc}")
        return EXIT_PRECONDITION
    except BudgetExhausted as exc:
        _note(f"no answer: {exc}")
        return EXIT_UNKNOWN


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
