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
from the records. It needs only json's C string escaper, so importing this
module does not load the json package; report_document(rep), which reads
the dict back from that text, imports it when called.
"""

import argparse
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
    import json  # only reading back needs the json package

    return json.loads(format_json(rep))


try:
    from _json import encode_basestring_ascii as _escape  # what json.encoder uses
except ImportError:  # an interpreter without the C accelerator
    from json.encoder import encode_basestring_ascii as _escape


def _template(keys, indent):
    # an object with these keys as json.dumps(indent=2) writes it, braces
    # `indent` spaces in, cut where its values go in as JSON text: part t[i]
    # precedes value i. An f-string copies the parts, where a `%` format
    # would scan the whole layout for each record
    pad = "\n" + " " * indent
    heads = ['%s  "%s": ' % (pad, key) for key in keys]
    return ("{" + heads[0],) + tuple("," + head for head in heads[1:]) + (pad + "}",)


def _array(items, indent, quote="", before="", after=""):
    # the list of texts `items` as an array, each between two `quote`s,
    # brackets `indent` spaces in, between `before` and `after`; wraps the
    # end items in place, not the joined text (megabytes, at times)
    pad = "\n" + " " * indent
    if not items:
        return before + "[]" + after
    items[0] = before + "[" + pad + "  " + quote + items[0]
    items[-1] += quote + pad + "]" + after
    return (quote + "," + pad + "  " + quote).join(items)


def _number(value):
    # a number as json.dumps writes it: str() for an int, as a solve builds;
    # json, loaded here, for what only a hand-built record holds (a bool)
    if type(value) is int:
        return str(value)
    import json

    return json.dumps(value)


def _quoted(value):
    # a Fraction, an int or None as JSON: null or the quoted str, as
    # str(x) equals str(Fraction(x)) and needs no escaping
    return "null" if value is None else '"%s"' % value


_WEIGHTS = ("a", "b", "c", "n_inf", "has_zero")
_REPORT = _template(("schema_version", "expr", "c_bound", "crossings", "slopes", "certified",
                     "diameter", "ratio", "notes", "systems"), 0)
_CROSSINGS = _template(("count", "source"), 2)
_SYSTEM = _template(("slope", "tau", "note", "closure", "paths", "nodes"), 4)
_CONST = _template(("kind", "tangle", "state"), 8)
_PATH = _template(("kind", "tangle", "vertices", "final_fraction", "sheets"), 8)
_NODE = _template(("label", "kind", "state", "tau", "scales", "case_id", "m", "tau_prime",
                   "transformed"), 8)
# a node holding NodeTrace's defaults in its last four fields, as leaves
# and sums do, with those written in
_PLAIN = _NODE[:5] + ("%s0%s0%snull%snull%s" % _NODE[5:],)
_CLOSURE, _STATE = _template(_WEIGHTS, 6), _template(_WEIGHTS, 10)


def format_json(rep):
    """The report as json.dumps(doc, indent=2) plus a newline, doc being its
    dict as the schema describes it.

    Written straight from the records, one template per record kind, plus
    one for a node that holds a leaf's or sum's defaults exactly. The solve
    shares WeightStates, node traces, paths and vertex tuples across and
    within systems, so each is written once per call, keyed by id(), and
    looked up inline after; `rep` keeps every record alive while the call
    runs.
    """
    # id(record) -> its text; a state's text depends on where it sits
    states, closures = {id(None): "null"}, {id(None): "null"}
    paths, vertices, nodes, scales = {}, {}, {}, {}

    def weights(state, written, t):
        a, b, c, n_inf, has_zero = state
        if type(a) is type(b) is type(c) is type(n_inf) is int and type(has_zero) is bool:
            has_zero = "true" if has_zero else "false"
        else:  # a hand-built state
            a, b, c, n_inf, has_zero = map(_number, state)
        text = f"{t[0]}{a}{t[1]}{b}{t[2]}{c}{t[3]}{n_inf}{t[4]}{has_zero}{t[5]}"
        written[id(state)] = text
        return text

    def path_text(path):
        tangle = _quoted(path.tangle)
        if path.is_constant:
            t, state = _CONST, _array(list(map(str, path.state.triple())), 10)
            text = f'{t[0]}"const"{t[1]}{tangle}{t[2]}{state}{t[3]}'
        else:
            t, vs = _PATH, path.vertices
            array = vertices.get(id(vs))
            if array is None:
                array = vertices[id(vs)] = _array(list(map(str, vs)), 10, '"')
            text = (f'{t[0]}"path"{t[1]}{tangle}{t[2]}{array}{t[3]}{_quoted(path.final_fraction)}'
                    f'{t[4]}{path.sheets}{t[5]}')
        paths[id(path)] = text
        return text

    def node_text(node):
        label, kind, state, tau, scale, case_id, m, tau_prime, transformed = node
        array = scales.get(scale)
        if array is None:
            array = scales[scale] = _array(list(map(str, scale)), 10)
        label, kind = _escape(label), _escape(kind)
        state = states.get(id(state)) or weights(state, states, _STATE)
        tau = "null" if tau is None else '"%s"' % tau
        if (tau_prime is None and transformed is None and type(case_id) is int
                and type(m) is int and case_id == m == 0):
            t = _PLAIN
            text = f"{t[0]}{label}{t[1]}{kind}{t[2]}{state}{t[3]}{tau}{t[4]}{array}{t[5]}"
        else:
            t = _NODE
            transformed = states.get(id(transformed)) or weights(transformed, states, _STATE)
            case_id, m = _number(case_id), _number(m)
            text = (f"{t[0]}{label}{t[1]}{kind}{t[2]}{state}{t[3]}{tau}{t[4]}{array}{t[5]}{case_id}"
                    f"{t[6]}{m}{t[7]}{_quoted(tau_prime)}{t[8]}{transformed}{t[9]}")
        nodes[id(node)] = text
        return text

    t, systems = _SYSTEM, []
    for _, assignment, trace, closure, tau, slope, note in rep.systems:
        slope = "null" if slope is None else '"%s"' % slope
        tau = "null" if tau is None else '"%s"' % tau
        closure = closures.get(id(closure)) or weights(closure, closures, _CLOSURE)
        assignment = _array([paths.get(id(p)) or path_text(p) for p in assignment], 6)
        trace = _array([nodes.get(id(n)) or node_text(n) for n in trace], 6)
        systems.append(f"{t[0]}{slope}{t[1]}{tau}{t[2]}{_escape(note)}{t[3]}{closure}{t[4]}"
                       f"{assignment}{t[5]}{trace}{t[6]}")
    t, c = _REPORT, _CROSSINGS
    crossings = f"{c[0]}{rep.crossings}{c[1]}{_escape(rep.crossing_source)}{c[2]}"
    c_bound = "null" if rep.c_bound is None else rep.c_bound
    slopes = _array(list(map(str, rep.slopes)), 2, '"')
    certified = _array(list(map(str, rep.certified)), 2, '"')
    notes = _array([_escape(n) for n in rep.notes], 2)
    head = (f"{t[0]}{SCHEMA_VERSION}{t[1]}{_escape(render(rep.expr))}{t[2]}{c_bound}{t[3]}"
            f"{crossings}{t[4]}{slopes}{t[5]}{certified}{t[6]}{_quoted(rep.diameter)}{t[7]}"
            f"{_quoted(rep.ratio)}{t[8]}{notes}{t[9]}")
    return _array(systems, 2, before=head, after=t[10] + "\n")


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
