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
A tree deeper than MAX_DEPTH levels is a ParseError, so the recursive tree
walks stay within Python's recursion limit.
"""

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


class Sum(TangleExpr):
    __slots__ = ("left", "right")

    def __init__(self, left, right):
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    def _children(self):
        return (self.left, self.right)


class Product(TangleExpr):
    __slots__ = ("left", "right")

    def __init__(self, left, right):
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    def _children(self):
        return (self.left, self.right)


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


def _tokenize(text):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+o()/-":
            tokens.append((ch, i))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append((text[i:j], i))
            i = j
            continue
        raise ParseError("unexpected character %r" % ch, i)
    return tokens


MAX_DEPTH = 500
_BINDING = {"o": 1, "+": 2}  # an open parenthesis binds 0: reductions stop there


def _reduce(operands, pending, floor):
    """Apply the pending operators that bind at least as tightly as floor."""
    while pending and _BINDING.get(pending[-1][0], 0) >= floor:
        op, position = pending.pop()
        (right, rdepth), (left, ldepth) = operands.pop(), operands.pop()
        depth = 1 + max(ldepth, rdepth)
        if depth > MAX_DEPTH:
            raise ParseError("expression nests too deeply (over %d levels)" % MAX_DEPTH, position)
        operands.append(((Sum if op == "+" else Product)(left, right), depth))


class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        if self.pos < len(self.tokens):
            return self.tokens[self.pos][0]
        return None

    def here(self):
        if self.pos < len(self.tokens):
            return self.tokens[self.pos][1]
        return len(self.text)

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expr(self):
        """Operator precedence without recursion: operands are (node, tree
        depth) pairs; pending holds operators and open parentheses."""
        operands, pending, opened = [], [], 0
        while True:
            while self.peek() == "(":
                pending.append(self.take())
                opened += 1
            operands.append((self.fraction(), 1))
            while opened and self.peek() == ")":
                _reduce(operands, pending, 1)
                pending.pop()
                opened -= 1
                self.take()
            if self.peek() not in _BINDING:
                break
            _reduce(operands, pending, _BINDING[self.peek()])
            pending.append(self.take())
        _reduce(operands, pending, 1)
        if pending:
            raise ParseError("unbalanced parenthesis", pending[-1][1])
        return operands[0][0]

    def fraction(self):
        sign = 1
        if self.peek() == "-":
            self.take()
            sign = -1
        tok = self.peek()
        if tok is None or not tok.isdigit():
            raise ParseError("expected a fraction", self.here())
        num_pos = self.here()
        num = int(self.take()[0])
        den = 1
        if self.peek() == "/":
            self.take()
            tok = self.peek()
            if tok is None or not tok.isdigit():
                raise ParseError("expected a denominator", self.here())
            den_pos = self.here()
            den = int(self.take()[0])
            if den == 0:
                raise ZeroDenominator("zero denominator", den_pos)
        if num == 0:
            raise ParseError("zero tangle is not allowed", num_pos)
        return Leaf(Fraction(sign * num, den))


def parse(text):
    """Parse expression text into a TangleExpr tree."""
    parser = _Parser(text)
    if not parser.tokens:
        raise ParseError("empty input", 0)
    node = parser.expr()
    if parser.peek() is not None:
        raise ParseError("unexpected token %r" % parser.peek(), parser.here())
    return node


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
        left, right = text[id(node.left)], text[id(node.right)]
        if isinstance(node, Sum):
            if isinstance(node.right, Sum):
                right = "(%s)" % right
            text[id(node)] = "%s + %s" % (left, right)
            continue
        if isinstance(node.left, Sum):
            left = "(%s)" % left
        if isinstance(node.right, (Sum, Product)):
            right = "(%s)" % right
        text[id(node)] = "%s o %s" % (left, right)
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
    """Return n when expr is kn(n) (or its mirror), else None."""
    if not isinstance(expr, Product):
        return None
    for candidate in (expr, mirror(expr)):
        for side in (candidate.left, candidate.right):
            if not isinstance(side, Sum):
                break
            if not (isinstance(side.left, Leaf) and isinstance(side.right, Leaf)):
                break
        else:
            a = candidate.left.left.fraction
            b = candidate.left.right.fraction
            if a.numerator == -1 and b == Fraction(1, a.denominator + 1):
                n = a.denominator
                if n >= 2 and candidate.left == candidate.right:
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
