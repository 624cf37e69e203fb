"""The reference the solver tests hold `solve` to, written from the edgepath
definitions with the package's public names alone.

`reference(expr, c_bound)` gives what a solve of expr at c_bound must list
besides the Seifert reference: for each (tau, note), the least descriptor,
tuple(path.describe() for path in assignment), among the closed candidates
of that group, and the sorted degenerate-family notes. It raises
UnsupportedShape where solve must: a sum of fewer than three leaves.

* A product closes at u = 0. Every leaf's constants are sampled on the
  whole weight lattice up to c_bound, its descents and their vertical runs
  walked one end at a time (u_zero_ends), and every node merges its
  children's (state, tau) tables eagerly, through rotate_reflect at a
  product and glue_scaled, taus in Fractions. The root keeps its states
  with c = 0.
* A sum of three or more leaves closes at u > 0 (type I) or at u = 0. Type
  I is the exhaustive product of each leaf's segments, its constant and one
  edge per descent prefix, as lines v(u) over [lo, hi) in Fractions: a
  combination whose intervals overlap closes where the lines sum to 0, or
  along the whole overlap (a degenerate family, its lower end kept when it
  is past u = 0; one note per interval and tau along it). At u = 0 every
  combination of descents whose ends sum to 0 closes; it counts when the
  penultimate denominators y satisfy sum 1/y <= 1, and is an inessential
  candidate otherwise. A sum reads no c_bound.

`report_dict(rep)` is the dict of a report as the shipped schema describes
it, built field by field from the records; `cli.format_json` must write
exactly its `json.dumps(indent=2)` text plus a newline.
"""

import random
from collections import namedtuple
from fractions import Fraction
from itertools import product as iterproduct
from math import gcd

from tangleslopes import ConstantPath, Leaf, Product, Sum, UnsupportedShape, VertexPath, WeightState
from tangleslopes import kn, parse, render
from tangleslopes.cli import SCHEMA_VERSION
from tangleslopes.diagram import is_edge, vertex_point
from tangleslopes.edgepaths import endpoint_point, endpoint_state, enumerate_paths, run_to, tau
from tangleslopes.errors import Infeasible, UndefinedCase
from tangleslopes.solver import default_c_bound
from tangleslopes.transforms import glue_scaled, rotate_reflect

ZERO, ONE = Fraction(0), Fraction(1)

Reference = namedtuple("Reference", "systems notes")


def constant_path(pq, u):
    """The constant edgepath for p/q at abscissa u on its horizontal edge,
    using the smallest integer state that realizes it exactly."""
    pq = Fraction(pq)
    p, q = pq.numerator, pq.denominator
    # a + b = total, b = u * total, c = p * total / q: pick the least total
    total = u.denominator * q // gcd(q, u.denominator)
    b = u.numerator * total // u.denominator
    return ConstantPath(pq, WeightState(total - b, b, p * total // q))


def u_zero_ends(descent, c_bound):
    """The endpoints, within +-c_bound, of the descent and its vertical
    runs, walked one at a time.

    A run walks along u = 0 away from the descent's endpoint m, one integer
    at a time. Its first step may not cut across a triangle, and a trivial
    path (integer tangle) does not run. Yields m, then the run ends toward
    -infinity, then those toward +infinity, each by length; every end
    occurs once.
    """
    vs = descent.vertices
    m = int(vs[-1])
    if abs(m) <= c_bound:
        yield m
    if len(vs) < 2:
        return
    if not is_edge(vs[-2], Fraction(m - 1)):
        yield from range(min(m - 1, c_bound), -c_bound - 1, -1)
    if not is_edge(vs[-2], Fraction(m + 1)):
        yield from range(max(m + 1, -c_bound), c_bound + 1)


def reference(expr, c_bound):
    """Reference({(tau, note): least descriptor}, sorted degenerate-family
    notes) of expr at c_bound; see the module docstring."""
    systems, notes = {}, set()
    if any(isinstance(node, Product) for node in expr.nodes()):
        closures = _product_closures(expr, c_bound)
    else:
        leaves = [leaf.fraction for leaf in expr.leaves()]
        if len(leaves) < 3:
            raise UnsupportedShape("a sum of %d leaves" % len(leaves))
        closures = [*_type_i_closures(leaves, notes), *_u_zero_closures(leaves)]
    for t, note, paths in closures:
        desc = tuple(path.describe() for path in paths)
        kept = systems.get((t, note))
        if kept is None or desc < kept:
            systems[t, note] = desc
    return Reference(systems, sorted(notes))


# a product: the eager merge over the sampled lattice


def _key_of(state):
    """The triple of a primitive state, after checking that it carries no
    slope-0 or slope-infinity boundary edges."""
    state = state.primitive()
    assert state.n_inf == 0 and state.has_zero is False, state
    return state.triple()


def lattice_leaf(pq, c_bound):
    """{key: {tau: least (descriptor, paths)}} of leaf p/q: its constants
    sampled on the whole weight lattice up to c_bound, reduced to
    primitive keys, plus every descent and vertical run; an integer leaf
    keeps its trivial path whatever the bound."""
    p, q = pq.numerator, pq.denominator
    table = {}

    def add(key, t, path):
        entries = table.setdefault(key, {})
        desc = (path.describe(),)
        if t not in entries or desc < entries[t][0]:
            entries[t] = (desc, (path,))

    for k in range(1, c_bound // abs(p) + 1):
        for a in range(1, k + 1):
            path = ConstantPath(pq, WeightState(a, q * k - a, p * k))
            add(_key_of(path.state), ZERO, path)
    for descent in enumerate_paths(pq):
        ends = (p,) if q == 1 else u_zero_ends(descent, c_bound)
        for path in (run_to(descent, end) for end in ends):
            add(_key_of(endpoint_state(path)), Fraction(tau(path)), path)
    return table


def eager_tables(node, c_bound, memo):
    """The table of node, as lattice_leaf's: every (state, tau) of its
    subtree with its least (descriptor, paths), children merged eagerly.
    memo maps id(node) to its table, so a shared subtree is merged once."""
    if id(node) in memo:
        return memo[id(node)]
    if isinstance(node, Leaf):
        table = lattice_leaf(node.fraction, c_bound)
    else:
        left = eager_tables(node.left, c_bound, memo)
        right = eager_tables(node.right, c_bound, memo)
        table = {}
        for lkey, lentries in left.items():
            lw, lents = WeightState(*lkey), list(lentries.items())
            if isinstance(node, Product):
                try:
                    outcome = rotate_reflect(lw)
                except (Infeasible, UndefinedCase):
                    continue
                # tau' - tau(left) + tau(right)
                lw = outcome.state
                lents = [(outcome.tau_prime - lt, trace) for lt, trace in lents]
            for rkey, rentries in right.items():
                glued = glue_scaled(lw, WeightState(*rkey))
                if glued is None:
                    continue
                entries = table.setdefault(_key_of(glued[0]), {})
                for lt, (ldesc, lpaths) in lents:
                    for rt, (rdesc, rpaths) in rentries.items():
                        kept = entries.get(lt + rt)
                        if kept is None or ldesc + rdesc < kept[0]:
                            entries[lt + rt] = (ldesc + rdesc, lpaths + rpaths)
    memo[id(node)] = table
    return table


def _product_closures(expr, c_bound):
    for key, entries in eager_tables(expr, c_bound, {}).items():
        if key[2] == 0:
            for t, (_, paths) in entries.items():
                yield t, "", paths


# a sum of three or more leaves: type I, then u = 0


def segments(pq):
    """(prefix, coeff, offset, lo, hi) per segment of leaf p/q, the line
    v = coeff * u + offset over lo <= u < hi: its constant (prefix None),
    then each distinct descent prefix's last edge, from its vertex
    points."""
    out = [(None, ZERO, pq, vertex_point(pq).u, ONE)]
    seen = set()
    for descent in enumerate_paths(pq):
        vs = descent.vertices
        for j in range(2, len(vs) + 1):
            if vs[:j] in seen:
                continue
            seen.add(vs[:j])
            a, b = vertex_point(vs[j - 2]), vertex_point(vs[j - 1])
            coeff = (b.v - a.v) / (b.u - a.u)
            out.append((vs[:j], coeff, a.v - coeff * a.u, b.u, a.u))
    return out


def _label(pq, prefix):
    return "const %s" % pq if prefix is None else "edge to %s" % prefix[-1]


def _path_at(pq, prefix, u):
    """The path of a segment at u: the least constant there, or the prefix
    with the share f of its last edge whose end lies at u."""
    if prefix is None:
        return constant_path(pq, u)
    qj, qk = prefix[-2].denominator, prefix[-1].denominator
    path = VertexPath(pq, prefix, final_fraction=(1 / (1 - u) - qj) / (qk - qj))
    assert endpoint_point(path).u == u, (path, u)
    return path


def _tau_at(leaves, combo, u):
    return sum(tau(_path_at(pq, s[0], u)) for pq, s in zip(leaves, combo))


def type_i_closures(leaves, notes):
    """(u0, the combination's segments, note) per type-I closure of the
    sum of leaves, over the full segment product; notes gets one note per
    degenerate family, its combinations grouped by interval and tau along
    it (tau is affine in 1/(1 - u), so its values at the lower end and the
    midpoint fix it): the least combination's labels, and how many more."""
    families = {}  # (lo, hi, tau at lo, tau at the midpoint) -> [labels, count]
    for combo in iterproduct(*map(segments, leaves)):
        lo, hi = max(s[3] for s in combo), min(s[4] for s in combo)
        if lo >= hi:
            continue
        coeff, offset = sum(s[1] for s in combo), sum(s[2] for s in combo)
        if coeff == 0:
            if offset == 0:
                family = (lo, hi, _tau_at(leaves, combo, lo), _tau_at(leaves, combo, (lo + hi) / 2))
                labels = "; ".join(_label(pq, s[0]) for pq, s in zip(leaves, combo))
                families.setdefault(family, [labels, 0])[1] += 1
                if lo > 0:
                    yield lo, combo, "degenerate-family-endpoint"
            continue
        u0 = -offset / coeff
        if 0 < u0 and lo <= u0 < hi:
            yield u0, combo, ""
    for (lo, hi, _, _), (labels, count) in families.items():
        more = " and %d more" % (count - 1) if count > 1 else ""
        notes.add("degenerate closure family on u in [%s, %s) for %s%s" % (lo, hi, labels, more))


def _type_i_closures(leaves, notes):
    for u0, combo, note in type_i_closures(leaves, notes):
        paths = [_path_at(pq, s[0], u0) for pq, s in zip(leaves, combo)]
        yield sum(map(tau, paths)), note, paths


def _u_zero_closures(leaves):
    for paths in iterproduct(*map(enumerate_paths, leaves)):
        if sum(d.vertices[-1] for d in paths) == 0:
            ys = [d.vertices[-2].denominator if len(d.vertices) > 1 else 1 for d in paths]
            note = "" if sum(Fraction(1, y) for y in ys) <= 1 else "inessential-candidate"
            yield sum(map(tau, paths)), note, paths


def type_i_size(expr):
    """The number of segment combinations type_i_closures walks for the
    leaves of expr."""
    size = 1
    for leaf in expr.leaves():
        size *= len(segments(leaf.fraction))
    return size


# report dict


def _frac(value):
    # every value here is a Fraction, an int or None, and str(x) equals
    # str(Fraction(x)) for all of them, so no Fraction is built
    return None if value is None else str(value)


def _weights(state):
    if state is None:
        return None
    return {
        "a": state.a,
        "b": state.b,
        "c": state.c,
        "n_inf": state.n_inf,
        "has_zero": state.has_zero,
    }


def _path_doc(path):
    if path.is_constant:
        return {
            "kind": "const",
            "tangle": _frac(path.tangle),
            "state": list(path.state.triple()),
        }
    return {
        "kind": "path",
        "tangle": _frac(path.tangle),
        "vertices": [_frac(v) for v in path.vertices],
        "final_fraction": _frac(path.final_fraction),
        "sheets": path.sheets,
    }


def _node_doc(node):
    return {
        "label": node.label,
        "kind": node.kind,
        "state": _weights(node.state),
        "tau": _frac(node.tau),
        "scales": list(node.scales),
        "case_id": node.case_id,
        "m": node.m,
        "tau_prime": _frac(node.tau_prime),
        "transformed": _weights(node.transformed),
    }


def _system_doc(system):
    return {
        "slope": _frac(system.slope),
        "tau": _frac(system.tau),
        "note": system.note,
        "closure": _weights(system.closure),
        "paths": [_path_doc(p) for p in system.assignment],
        "nodes": [_node_doc(n) for n in system.nodes],
    }


def report_dict(rep):
    """The JSON-ready dict for a SlopeReport; matches the shipped schema."""
    return {
        "schema_version": SCHEMA_VERSION,
        "expr": render(rep.expr),
        "c_bound": rep.c_bound,
        "crossings": {"count": rep.crossings, "source": rep.crossing_source},
        "slopes": [_frac(s) for s in rep.slopes],
        "certified": [_frac(s) for s in rep.certified],
        "diameter": _frac(rep.diameter),
        "ratio": _frac(rep.ratio),
        "notes": list(rep.notes),
        "systems": [_system_doc(s) for s in rep.systems],
    }


# fixed inputs


def _random_product(rng):
    def leaf():
        q = rng.randint(2, 5)
        p = rng.choice([p for p in range(1 - q, q) if p and gcd(p, q) == 1])
        return Leaf(Fraction(p, q))

    def factor():
        return leaf() if rng.random() < 0.4 else Sum(leaf(), leaf())

    expr = Product(factor(), factor())
    if rng.random() < 0.4:
        expr = Product(expr, factor())
    return expr


def pass_cases():
    """(expr, c_bound) pairs: the family, a shared-subtree product, root
    sums, integer leaves, c_bound 1 and 2, and random products."""
    rng = random.Random(5)
    f, g = parse("1/2 + -1/3"), parse("2/5")
    cases = [(kn(n), default_c_bound(kn(n))) for n in range(2, 6)]
    cases.append((Product(Product(f, g), Product(f, g)), 6))  # shared subtrees
    # shared subtrees whose parents demand different keys of them
    half = Leaf(Fraction(-1, 2))
    cases.append((Product(Sum(half, Leaf(Fraction(1, 3))), Sum(half, Leaf(Fraction(2, 5)))), 6))
    cases.append((Product(Product(f, g), Product(f, parse("1/3"))), 6))
    # a root sum; integer leaves, whose constant (1, 0, p) and trivial
    # path share a key; a root sum with a leaf on the left
    for text in ("(1/2 o 1/3) + 1/5", "(2 + 1/3) o 1/2", "3 o 1/2 o -2", "1/5 + (1/2 o 1/3)"):
        cases += [(parse(text), 32), (parse(text), 1)]
    # an integer leaf whose constant family is empty: it keeps its trivial run
    cases.append((parse("(3 + 1/2) o 1/3"), 2))
    cases.append((kn(2), 1))
    cases += [(_random_product(rng), rng.choice([2, 4, 8])) for _ in range(22)]
    return cases
