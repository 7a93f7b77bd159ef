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
and the flags it takes, which are also ``construct``'s options, and one
path requires, converts and passes them.

Each verb's words are described once, in ``VERBS``. ``main`` reads a
plain call against that table in one pass: every positional once, each
option at most once by its exact option string with a value that does not
start with '-' and converts, and every required option. Any other call
goes whole to argparse's top-level parser, imported and built from the
same table on the first such call and reused after. So help, usage
errors, abbreviations, '--opt=value', '--' and negative numbers read as
argparse reads them, and a plain call gets the namespace that argparse
would return, less the verb's name. Each call fills a fresh namespace,
the verb functions look up what they call when they run, and help text is
wrapped to the terminal width at the time it is printed. A file is read by
``os.open`` and ``os.read`` to its end, without the buffered ``open``
stack, and stdin's bytes from ``sys.stdin.buffer``; both are decoded once
by the same codec (ASCII for graphs, UTF-8 for instances), so the same
bytes read alike from a path and from '-'. CR and CRLF line ends read as
LF, as in text mode. A read error names the path, as ``open`` does.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import types

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
        message = f"invalid int value: {text!r}"
    else:
        if budget >= 0:
            return budget
        message = f"must be at least 0, got {budget}"
    import argparse  # for its error type alone

    raise argparse.ArgumentTypeError(message)


# the help line of each `construct` flag that takes text; every other
# family flag takes an int
_TEXT_FLAGS = {"sizes": "comma-separated class sizes", "graph": "base graph for blowup"}

# Each verb's help line, its function and its words, one (name,
# ``add_argument`` keywords) pair a word in argparse's listing order. A name
# starting with "--" is an option, any other a positional. `construct`'s
# options are the flags of ``extremal.FAMILIES``, in order of first use.
# ``build_parser`` builds argparse's parser from this table, and
# ``_read_plain`` reads the plain calls against it without argparse.
VERBS = {
    "params": ("compute the parameter report of a graph", cmd_params, (
        ("graph", {"help": "graph file (graph6 or edge list), '-' for stdin"}),
    )),
    "pack": ("decide whether G has a perfect H-packing", cmd_pack, (
        ("graph", {"help": "host graph G"}),
        ("packing_graph", {"help": "packed graph H"}),
        ("--find", {"action": "store_true", "help": "print a verified certificate"}),
        ("--budget", {"type": _budget, "default": DEFAULT_BUDGET}),
    )),
    "cover": ("find a copy of H covering vertex w of G", cmd_cover, (
        ("graph", {}),
        ("packing_graph", {}),
        ("w", {"type": int}),
        ("--budget", {"type": _budget, "default": DEFAULT_BUDGET}),
    )),
    "construct": ("emit a named construction", cmd_construct, (
        ("family", {"choices": list(extremal.FAMILIES)}),
        *((f"--{flag.replace('_', '-')}",
           {"dest": flag, "help": _TEXT_FLAGS[flag]} if flag in _TEXT_FLAGS else {"dest": flag, "type": int})
          for flag in dict.fromkeys(f for _, flags in extremal.FAMILIES.values() for f in flags)),
    )),
    "verify": ("re-check a construction against an H", cmd_verify, (
        ("instance", {"help": "instance JSON file, '-' for stdin"}),
        ("packing_graph", {}),
        ("--budget", {"type": _budget, "default": DEFAULT_BUDGET}),
    )),
    "probe": ("randomized check of a packing theorem", cmd_probe, (
        ("--family", {"required": True, "choices": list(probes.PROBE_FAMILIES)}),
        ("--n", {"type": int, "required": True}),
        ("--r", {"type": int}),
        ("--samples", {"type": int, "required": True}),
        ("--seed", {"type": int, "default": 0}),
        ("--budget", {"type": _budget, "default": DEFAULT_BUDGET}),
    )),
}


@functools.cache
def build_parser():
    """The top-level argparse parser of ``orepack``, built from ``VERBS``."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="orepack",
        description="Exact toolkit for perfect-packing parameters under "
        "Ore-type degree conditions",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for verb, (help_line, func, words) in VERBS.items():
        p = sub.add_parser(verb, help=help_line)
        for name, keywords in words:
            p.add_argument(name, **keywords)
        p.set_defaults(func=func)
    return parser


@functools.cache
def _layout(verb: str):
    """(positionals, flags, options, defaults, required options) of
    ``verb``, from ``VERBS``: each positional and option as (dest,
    converter or None, choices or None), each store_true flag as its dest,
    the options and flags by their option strings, and the namespace of a
    call that gives none of them."""
    _, func, words = VERBS[verb]
    positionals, flags, options, defaults, required = [], {}, {}, {"func": func}, set()
    for name, keywords in words:
        if not name.startswith("--"):
            positionals.append((name, keywords.get("type"), keywords.get("choices")))
            continue
        dest = keywords.get("dest", name[2:])
        if keywords.get("action") == "store_true":
            flags[name] = dest
            defaults[dest] = False
            continue
        options[name] = (dest, keywords.get("type"), keywords.get("choices"))
        defaults[dest] = keywords.get("default")
        if keywords.get("required"):
            required.add(name)
    return positionals, flags, options, defaults, required


def _read_plain(verb: str, words: list[str]):
    """The namespace that argparse returns for ``verb`` and ``words``, the
    words after the verb, less its ``command`` entry, when they are in a
    plain form; else None, and argparse reads them. A plain form gives each
    positional once, each option or flag at most once by its exact option
    string, a value that converts and is among the choices after each
    option, and every required option. Its only word that starts with '-'
    and is not an option string is '-' itself, as a positional; no
    option's value starts with '-'."""
    positionals, flags, options, defaults, required = _layout(verb)
    values = dict(defaults)
    seen = set()
    at = 0
    rest = iter(words)
    for word in rest:
        if word.startswith("-") and word != "-":
            if word in seen:
                return None
            seen.add(word)
            if word in flags:
                values[flags[word]] = True
                continue
            if word not in options:
                return None
            dest, convert, choices = options[word]
            word = next(rest, "-")
            if word.startswith("-"):
                return None
        elif at < len(positionals):
            dest, convert, choices = positionals[at]
            at += 1
        else:
            return None
        if convert is not None:
            try:
                word = convert(word)
            except Exception:  # argparse's to report, ArgumentTypeError too
                return None
        if choices is not None and word not in choices:
            return None
        values[dest] = word
    if at < len(positionals) or not required <= seen:
        return None
    return types.SimpleNamespace(**values)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _read_plain(argv[0], argv[1:]) if argv and argv[0] in VERBS else None
    if args is None:
        args = build_parser().parse_args(argv)
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
