"""Algebraic tangle expressions.

A rational tangle is a reduced fraction p/q. Larger tangles are built with
the sum `+` (gluing side by side) and the product `o`, where T1 o T2 means:
reflect T1, rotate it a quarter turn, then sum with T2. Expressions are
immutable binary trees; `parse` and `render` convert to and from the text
grammar

    expr := sum ('o' sum)*
    sum  := atom ('+' atom)*
    atom := '(' expr ')' | fraction
    fraction := ['-'] int ['/' int]

with `+` binding tighter than `o` and both operators left-associative.
An int is ASCII digits 0-9; any other character is a ParseError, and so
is an int longer than `int()` converts (`sys.get_int_max_str_digits()`,
4,300 digits by default). `parse` does not recurse, but `mirror`,
`montesinos_factors` and `slopes.replay` do, so a tree deeper than
MAX_DEPTH levels is a ParseError and those walks stay within Python's
recursion limit.
"""

import re
from fractions import Fraction

from .errors import FamilyRange, ParseError, ZeroDenominator


class TangleExpr:
    """Base class for expression nodes, which are immutable."""

    __slots__ = ()

    def __setattr__(self, name, value=None):
        raise AttributeError("%s is immutable" % type(self).__name__)

    __delattr__ = __setattr__

    def is_montesinos(self):
        """True when the subtree is a sum of rational tangles (no product)."""
        return not any(isinstance(n, Product) for n in self.nodes())

    def nodes(self):
        """Yield every node of the subtree, depth first, left to right."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node._children()))

    def leaves(self):
        """Yield the Leaf nodes in left-to-right order."""
        for n in self.nodes():
            if isinstance(n, Leaf):
                yield n

    def _children(self):
        return ()

    def __str__(self):
        return render(self)

    # repr, copy and pickle go through the text form: a field-by-field repr
    # and the default copy and pickle protocols recurse once per tree level
    # (several frames each), past the recursion limit at MAX_DEPTH levels
    def __repr__(self):
        return "parse(%r)" % render(self)

    def __reduce__(self):
        return parse, (render(self),)

    def _key(self):
        # the preorder (node type, leaf fraction) sequence determines a
        # binary tree; built without recursion, unlike field-by-field equality
        return tuple((type(n), getattr(n, "fraction", None)) for n in self.nodes())

    def __eq__(self, other):
        if not isinstance(other, TangleExpr):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


class Leaf(TangleExpr):
    __slots__ = ("fraction",)

    def __init__(self, fraction):
        object.__setattr__(self, "fraction", fraction)


class _Binary(TangleExpr):
    __slots__ = ("left", "right")

    def __init__(self, left, right):
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    def _children(self):
        return (self.left, self.right)


class Sum(_Binary):
    __slots__ = ()


class Product(_Binary):
    __slots__ = ()


def montesinos_factors(expr, parity=0):
    """List the maximal product-free subtrees with their reflection parity.

    These are the Montesinos tangles an arborescent expression is built from.
    """
    if expr.is_montesinos():
        return [(expr, parity)]
    if isinstance(expr, Product):
        return montesinos_factors(expr.left, parity + 1) + montesinos_factors(
            expr.right, parity
        )
    return montesinos_factors(expr.left, parity) + montesinos_factors(
        expr.right, parity
    )


# ---------------------------------------------------------------------------
# parsing


_TOKEN = re.compile(r"[0-9]+|\S")
MAX_DEPTH = 500
_BINDING = {"o": 1, "+": 2}  # an open parenthesis binds 0: reductions stop there


def _int(tok, at):
    try:
        return int(tok)
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        raise ParseError("numeral of %d digits is too long" % len(tok), at) from None


def parse(text):
    """Parse expression text into a TangleExpr tree.

    Operator precedence without recursion: operands are (node, tree depth)
    pairs; pending holds operators and open parentheses. Each pass of the
    loop reads the open parentheses and fraction of one operand, then the
    closing parentheses and operator after it.
    """
    tokens = [(m.group(), m.start()) for m in _TOKEN.finditer(text)]
    for tok, at in tokens:
        if len(tok) == 1 and tok not in "0123456789+o()/-":
            raise ParseError("unexpected character %r" % tok, at)
    if not tokens:
        raise ParseError("empty input", 0)
    tokens.append((None, len(text)))
    operands, pending, opened, i = [], [], 0, 0
    while True:
        while tokens[i][0] == "(":
            pending.append(tokens[i])
            opened += 1
            i += 1
        sign = 1
        if tokens[i][0] == "-":
            sign, i = -1, i + 1
        tok, num_at = tokens[i]
        if tok is None or not tok.isdigit():
            raise ParseError("expected a fraction", num_at)
        num, den, i = _int(tok, num_at), 1, i + 1
        if tokens[i][0] == "/":
            tok, at = tokens[i + 1]
            if tok is None or not tok.isdigit():
                raise ParseError("expected a denominator", at)
            den, i = _int(tok, at), i + 2
            if den == 0:
                raise ZeroDenominator("zero denominator", at)
        if num == 0:
            raise ParseError("zero tangle is not allowed", num_at)
        operands.append((Leaf(Fraction(sign * num, den)), 1))
        while True:
            # apply the pending operators that bind at least as tightly as
            # the next token; a closing parenthesis or any other token
            # applies all of them down to the innermost open parenthesis
            tok, at = tokens[i]
            floor = _BINDING.get(tok, 1)
            while pending and _BINDING.get(pending[-1][0], 0) >= floor:
                op, position = pending.pop()
                (right, rdepth), (left, ldepth) = operands.pop(), operands.pop()
                depth = 1 + max(ldepth, rdepth)
                if depth > MAX_DEPTH:
                    raise ParseError("expression nests too deeply (over %d levels)" % MAX_DEPTH, position)
                operands.append(((Sum if op == "+" else Product)(left, right), depth))
            if tok != ")" or not opened:
                break
            pending.pop()
            opened -= 1
            i += 1
        if tok not in _BINDING:
            break
        pending.append((tok, at))
        i += 1
    if pending:
        raise ParseError("unbalanced parenthesis", pending[-1][1])
    if tok is not None:
        raise ParseError("unexpected token %r" % tok, at)
    return operands[0][0]


def render(expr):
    """Canonical text for an expression; reparses to an identical tree."""
    return node_labels(expr)[0]


def node_labels(expr):
    """render() of every node of expr, in nodes() order, in one pass: each
    label joins its children's, so the subtrees are not walked again."""
    order = list(expr.nodes())
    text = {}
    for node in reversed(order):  # every node after its subtree
        if isinstance(node, Leaf):
            text[id(node)] = str(node.fraction)
            continue
        # every operand that is a sum or product is parenthesized, except a
        # left operand of its own kind: both operators are left-associative
        left, right = text[id(node.left)], text[id(node.right)]
        if isinstance(node.left, _Binary) and type(node.left) is not type(node):
            left = "(%s)" % left
        if isinstance(node.right, _Binary):
            right = "(%s)" % right
        text[id(node)] = ("%s + %s" if isinstance(node, Sum) else "%s o %s") % (left, right)
    return [text[id(node)] for node in order]


def mirror(expr):
    """Mirror image: negate every leaf fraction, keep the tree shape."""
    if isinstance(expr, Leaf):
        return Leaf(-expr.fraction)
    if isinstance(expr, Sum):
        return Sum(mirror(expr.left), mirror(expr.right))
    return Product(mirror(expr.left), mirror(expr.right))


# ---------------------------------------------------------------------------
# the kn family


def kn(n):
    """The family member N((-1/n + 1/(n+1)) o (-1/n + 1/(n+1))), n >= 2."""
    if not isinstance(n, int) or n < 2:
        raise FamilyRange("the kn family needs an integer n >= 2, got %r" % (n,))
    factor = Sum(Leaf(Fraction(-1, n)), Leaf(Fraction(1, n + 1)))
    return Product(factor, factor)


def family_index(expr):
    """Return n when expr is kn(n) (or its mirror), else None: both factors
    are the sum s/n + -s/(n+1), with s = -1 for kn(n) and 1 for its mirror."""
    if not (isinstance(expr, Product) and isinstance(expr.left, Sum)):
        return None
    a, b = expr.left.left, expr.left.right
    if not (isinstance(a, Leaf) and isinstance(b, Leaf)):
        return None
    s, n = a.fraction.numerator, a.fraction.denominator
    if abs(s) == 1 and n >= 2 and b.fraction == Fraction(-s, n + 1) and expr.left == expr.right:
        return n
    return None


def _cf_entry_total(p, q):
    # sum of continued-fraction entries of |p|/q via the Euclidean algorithm
    a, b = abs(p), q
    total = 0
    while b:
        total += a // b
        a, b = b, a % b
    return total


def crossing_count(expr):
    """Diagram crossing count: total continued-fraction entries per leaf.

    This counts the crossings of the obvious twist-region diagram, an upper
    bound on the crossing number, not the crossing number itself.
    """
    return sum(
        _cf_entry_total(leaf.fraction.numerator, leaf.fraction.denominator)
        for leaf in expr.leaves()
    )


def family_crossing_count(n):
    """Exact crossing number 4n of the n-th family knot."""
    if not isinstance(n, int) or n < 2:
        raise FamilyRange("the kn family needs an integer n >= 2, got %r" % (n,))
    return 4 * n
