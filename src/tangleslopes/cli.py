"""Command line front end.

Subcommands: slopes (any expression), kn (the distinguished family),
verify (family invariant checks), plot (SVG/TSV figures). Exit codes:
0 success, 1 verification failure, 2 usage or parse error, 3 empty
result, 4 output I/O error. Diagnostics go to stderr; LOG_LEVEL takes any
of logging's level names in any case (debug, info, warning, error,
critical, ...); an unknown name means warning. Without LOG_LEVEL, logging
is not imported: the package logs nothing at warning or above.

format_json writes a JSON report on every Python version as exactly the
text json.dumps(doc, indent=2) gives, plus a newline, for the report's
dict doc that the schema describes; tests/reference.py builds that dict
from the records. report_document(rep) reads it back from that text.
"""

import argparse
import json
import os
import re
import sys
from fractions import Fraction

from .errors import FamilyCheckFailed, TangleSlopesError
from .slopes import verify_system
from .solver import family_nodes, kn_system, solve, solve_sn
from .tangles import kn, parse, render

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_EMPTY = 3
EXIT_IO = 4

SCHEMA_VERSION = 2


# ---------------------------------------------------------------------------
# report serialization


def report_document(rep):
    """The JSON-ready dict for a SlopeReport; matches the shipped schema."""
    return json.loads(format_json(rep))


_escape = json.encoder.encode_basestring_ascii


def _template(keys, indent):
    # the `%` template of an object with these keys as json.dumps(indent=2)
    # writes it with its braces `indent` spaces in; values go in as JSON text
    pad = "\n" + " " * indent
    return "{" + ",".join('%s  "%s": %%s' % (pad, key) for key in keys) + pad + "}"


def _array(items, indent):
    # the list of JSON texts `items` as an array, brackets `indent` spaces
    # in; wraps the end items in place, not the joined text (megabytes, at times)
    if not items:
        return "[]"
    pad = "\n" + " " * indent
    items[0] = "[" + pad + "  " + items[0]
    items[-1] += pad + "]"
    return ("," + pad + "  ").join(items)


def _quoted(value):
    # a Fraction, an int or None as JSON: null or the quoted str, as
    # str(x) equals str(Fraction(x)) and needs no escaping
    return "null" if value is None else '"%s"' % value


_WEIGHTS = ("a", "b", "c", "n_inf", "has_zero")
_REPORT = _template(("schema_version", "expr", "c_bound", "crossings", "slopes", "certified",
                     "diameter", "ratio", "notes", "systems"), 0) + "\n"
_CROSSINGS = _template(("count", "source"), 2)
_SYSTEM = _template(("slope", "tau", "note", "closure", "paths", "nodes"), 4)
_CONST = _template(("kind", "tangle", "state"), 8)
_PATH = _template(("kind", "tangle", "vertices", "final_fraction", "sheets"), 8)
_NODE = _template(("label", "kind", "state", "tau", "scales", "case_id", "m", "tau_prime",
                   "transformed"), 8)
_CLOSURE, _STATE = _template(_WEIGHTS, 6), _template(_WEIGHTS, 10)


def format_json(rep):
    """The report as json.dumps(doc, indent=2) plus a newline, doc being its
    dict as the schema describes it.

    Written straight from the records, one template per record kind. The
    solve shares WeightStates, node traces, paths and vertex tuples across
    and within systems, so each is written once per call, keyed by id();
    `rep` keeps every record alive while the call runs.
    """
    states, closures, paths, vertices, nodes, scales = {}, {}, {}, {}, {}, {}

    def weights(state, written, template):
        if state is None:
            return "null"
        if id(state) not in written:
            written[id(state)] = template % (
                state.a, state.b, state.c, state.n_inf, "true" if state.has_zero else "false")
        return written[id(state)]

    def path_text(path):
        if id(path) not in paths:
            if path.is_constant:
                state = [str(x) for x in path.state.triple()]
                text = _CONST % ('"const"', _quoted(path.tangle), _array(state, 10))
            else:
                vs = path.vertices
                if id(vs) not in vertices:
                    vertices[id(vs)] = _array([_quoted(v) for v in vs], 10)
                text = _PATH % ('"path"', _quoted(path.tangle), vertices[id(vs)],
                                _quoted(path.final_fraction), path.sheets)
            paths[id(path)] = text
        return paths[id(path)]

    def node_text(node):
        if id(node) not in nodes:
            if node.scales not in scales:
                scales[node.scales] = _array([str(x) for x in node.scales], 10)
            nodes[id(node)] = _NODE % (
                _escape(node.label), _escape(node.kind), weights(node.state, states, _STATE),
                _quoted(node.tau), scales[node.scales], node.case_id, node.m,
                _quoted(node.tau_prime), weights(node.transformed, states, _STATE))
        return nodes[id(node)]

    systems = [_SYSTEM % (
        _quoted(s.slope), _quoted(s.tau), _escape(s.note), weights(s.closure, closures, _CLOSURE),
        _array([path_text(p) for p in s.assignment], 6),
        _array([node_text(n) for n in s.nodes], 6)) for s in rep.systems]
    return _REPORT % (
        SCHEMA_VERSION, _escape(render(rep.expr)), "null" if rep.c_bound is None else rep.c_bound,
        _CROSSINGS % (rep.crossings, _escape(rep.crossing_source)),
        _array([_quoted(s) for s in rep.slopes], 2),
        _array([_quoted(s) for s in rep.certified], 2), _quoted(rep.diameter),
        _quoted(rep.ratio), _array([_escape(n) for n in rep.notes], 2), _array(systems, 2))


def format_table(rep):
    rows = [
        ("expression", render(rep.expr)),
        ("crossings", "%d (%s)" % (rep.crossings, rep.crossing_source)),
        ("c_bound", str(rep.c_bound) if rep.c_bound is not None else "-"),
        ("slopes", " ".join(str(s) for s in rep.slopes) or "(none)"),
        ("certified", " ".join(str(s) for s in rep.certified) or "(none)"),
        ("diameter", str(rep.diameter) if rep.diameter is not None else "-"),
        ("ratio", str(rep.ratio) if rep.ratio is not None else "-"),
        ("systems", str(len(rep.systems))),
    ]
    rows.extend(("note", note) for note in rep.notes)
    width = max(len(name) for name, _ in rows)
    return "\n".join("%-*s  %s" % (width, name, value) for name, value in rows) + "\n"


def _triple_text(state):
    return "(%d,%d,%d)" % (state.a, state.b, state.c)


def format_trace(system, n):
    """The intermediate values of the distinguished family system."""
    root, lsum, (l1, l2), rsum = family_nodes(system)
    lines = [
        "family system n=%d" % n,
        "  leaf triples  %s %s" % (_triple_text(l1.state), _triple_text(l2.state)),
        "  glued         %s" % _triple_text(lsum.state),
        "  transformed   %s  tau'=%s" % (_triple_text(root.transformed), root.tau_prime),
        "  right tau     %s" % rsum.tau,
        "  system tau    %s" % root.tau,
        "  slope         %s" % system.slope,
    ]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# subcommands


def _write_out(text, out):
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _emit_report(rep, args, trace=""):
    text = format_json(rep) if args.format == "json" else format_table(rep)
    text += trace
    _write_out(text, args.out)
    if not rep.slopes:
        for note in rep.notes:
            print("diagnostic: %s" % note, file=sys.stderr)
        print("no candidate slopes found", file=sys.stderr)
        return EXIT_EMPTY
    return EXIT_OK


def cmd_slopes(args):
    expr = parse(args.expr)
    rep = solve(expr, args.c_bound)
    return _emit_report(rep, args)


def cmd_kn(args):
    system = kn_system(args.n)
    rep = solve_sn(kn(args.n), args.c_bound)
    trace = format_trace(system, args.n) if args.format == "table" else ""
    return _emit_report(rep, args, trace)


def _verify_one(n, c_bound):
    """Returns (passed, stdout line) for one family index."""
    high = Fraction(2 * (n + 1) ** 2 - 4)
    try:
        kn_system(n)
    except FamilyCheckFailed as exc:
        return False, "n=%d FAIL (trace: %s)" % (n, exc)
    rep = solve_sn(kn(n), c_bound)
    # the solve builds its traces from its own integer data; replay them
    for system in rep.systems:
        problems = verify_system(system)
        if problems:
            return False, "n=%d FAIL (system %s: %s)" % (
                n,
                system.slope,
                "; ".join(problems),
            )
    if not {high, -high} <= set(rep.slopes):
        return False, "n=%d FAIL (slopes: expected %s and %s in %s)" % (
            n,
            -high,
            high,
            " ".join(str(s) for s in rep.slopes) or "(none)",
        )
    floor = 4 * (n + 1) ** 2 - 8
    if rep.diameter is None or rep.diameter < floor:
        return False, "n=%d FAIL (diameter: %s below %d)" % (n, rep.diameter, floor)
    least = Fraction((n + 1) ** 2 - 2, n)
    if rep.ratio is None or rep.ratio < least:
        return False, "n=%d FAIL (ratio: %s below %s)" % (n, rep.ratio, least)
    return True, "n=%d pass (slopes ±%s, diameter %s, ratio %s)" % (
        n,
        high,
        rep.diameter,
        rep.ratio,
    )


def cmd_verify(args):
    if args.n_max < 2:
        print("error: --n-max must be at least 2", file=sys.stderr)
        return EXIT_USAGE
    failures = []
    for n in range(2, args.n_max + 1):
        passed, line = _verify_one(n, args.c_bound)
        print(line)
        if not passed:
            failures.append(line)
    if failures:
        print("FAIL: %d of %d checks" % (len(failures), args.n_max - 1))
        return EXIT_VERIFY
    print("all pass (n=2..%d)" % args.n_max)
    return EXIT_OK


def cmd_plot(args):
    if (args.expr is None) == (args.n is None):
        print("error: give exactly one of EXPR or --n", file=sys.stderr)
        return EXIT_USAGE
    expr = kn(args.n) if args.n is not None else parse(args.expr)
    rep = solve(expr, args.c_bound)
    if not rep.systems:
        for note in rep.notes:
            print("diagnostic: %s" % note, file=sys.stderr)
        print("nothing to plot", file=sys.stderr)
        return EXIT_EMPTY
    from .plotting import render_svg, render_tsv

    if args.format == "svg":
        text = render_svg(rep.systems, title=render(expr))
    else:
        text = render_tsv(rep.systems)
    _write_out(text, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# wiring


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tangleslopes",
        description="Candidate boundary slopes of algebraic tangle closures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def c_bound_flag(p):
        p.add_argument("--c-bound", type=int, default=None, dest="c_bound", help="bound of the"
                       " product search; a sum is solved exactly, but the value is still checked")

    p_slopes = sub.add_parser("slopes", help="solve one expression")
    p_slopes.add_argument("expr")
    c_bound_flag(p_slopes)
    p_slopes.add_argument("--format", choices=("json", "table"), default="json")
    p_slopes.add_argument("--out", default=None)
    p_slopes.set_defaults(func=cmd_slopes)

    p_kn = sub.add_parser("kn", help="solve the n-th family knot")
    p_kn.add_argument("--n", type=int, required=True)
    c_bound_flag(p_kn)
    p_kn.add_argument("--format", choices=("json", "table"), default="json")
    p_kn.add_argument("--out", default=None)
    p_kn.set_defaults(func=cmd_kn)

    p_verify = sub.add_parser("verify", help="check the family invariants")
    p_verify.add_argument("--n-max", type=int, default=4, dest="n_max")
    c_bound_flag(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_plot = sub.add_parser("plot", help="draw stored systems")
    p_plot.add_argument("expr", nargs="?", default=None)
    p_plot.add_argument("--n", type=int, default=None)
    c_bound_flag(p_plot)
    p_plot.add_argument("--format", choices=("svg", "tsv"), default="svg")
    p_plot.add_argument("--out", default=None)
    p_plot.set_defaults(func=cmd_plot)

    # argparse reads a leading minus as a value only in numbers like -1 or
    # -.5; an expression such as -1/3+1/5+1/7 starts the same way
    for p in (p_slopes, p_plot):
        p._negative_number_matcher = re.compile(r"-\.?\d")
    return parser


def main(argv=None):
    """Parse arguments and run; returns the exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except FamilyCheckFailed as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_VERIFY
    except (TangleSlopesError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_IO


def _configure_logging():
    # the package logs nothing at warning or above, so without LOG_LEVEL
    # logging is neither imported nor configured
    name = os.environ.get("LOG_LEVEL", "").strip()
    if not name:
        return
    import logging

    level = logging.getLevelName(name.upper())
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(
        stream=sys.stderr, level=level, format="%(levelname)s %(name)s: %(message)s"
    )


def entrypoint(argv=None):
    _configure_logging()
    return main(argv)


if __name__ == "__main__":
    sys.exit(entrypoint())
