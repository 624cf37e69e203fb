"""Seeded inputs for the benchmark workloads.

Nothing here imports tangleslopes: the generators and the knot test are
independent of the code under test.

Per-input cost is heavy-tailed. A 4-tangle sum whose u=0 enumeration
lands just under its guard takes about 1.5 s, its neighbours 0.05 s, and a
product of three 2-leaf factors costs twenty times a product of two single
leaves. Batches of independent random draws would differ in total work by
20-40% between seeds, far more than any bound worth enforcing. So each
workload draws its *shapes* once, from SHAPE_SEED: the number of leaves
and, up to sign and order, the leaves themselves. The run seed then picks
the sign of every leaf and the order of the leaves within each sum. Every
seed gets different knots (sign patterns change the knot and its slope
set) and the same work.

The shapes are a stratified sample of POPULATION draws: each stratum gets
its share of the batch in proportion to the draws, so a batch of a few
dozen does not hinge on how many of a rare, costly stratum it happened to
catch. For sums the stratum is the number of leaves and how many of them
are a single twist region up to integer twists (|p| = 1 or q - 1): four
such leaves are what keep a 4-tangle sum's u=0 enumeration under its
guard. For products it is the number of factors and of two-leaf factors.
"""

import random
from collections import Counter
from math import gcd

SHAPE_SEED = 20011
POPULATION = 4000

# n = 9 and 10 take 2-4 s each with a large working set, and their times
# swing by 15-25% between runs on the 2-CPU box even after calibration
KN_RANGE = range(2, 9)


def is_knot(leaves):
    """True when the Montesinos sum of (p, q) leaves closes to a knot.

    Leaf-parity rule: two or more even denominators make a link, exactly
    one makes a knot, and with none the closure is a knot only when the
    numerators sum to an odd number.
    """
    evens = sum(1 for _, q in leaves if q % 2 == 0)
    if evens != 0:
        return evens == 1
    return sum(p for p, _ in leaves) % 2 == 1


def _leaf(rng, q_max):
    q = rng.randint(2, q_max)
    while True:
        p = rng.randint(1, q - 1)
        if gcd(p, q) == 1:
            return (p if rng.random() < 0.5 else -p, q)


def _sum_text(leaves):
    return " + ".join("%d/%d" % leaf for leaf in leaves)


def _is_family(factors):
    # kn(n) and its mirror: two identical factors (-1/n + 1/(n+1)) or
    # (1/n + -1/(n+1)); mirrors kn's own recognizer without importing it
    if len(factors) != 2 or factors[0] != factors[1] or len(factors[0]) != 2:
        return False
    (p1, q1), (p2, q2) = factors[0]
    return abs(p1) == 1 and abs(p2) == 1 and p1 == -p2 and q2 == q1 + 1


def _resign(rng, leaves):
    leaves = [(p if rng.random() < 0.5 else -p, q) for p, q in leaves]
    rng.shuffle(leaves)
    return leaves


def _stratified(draws, n, stratum):
    """n of the draws, in draw order, with strata in proportion to all draws."""
    sizes = Counter(stratum(d) for d in draws)
    quota = {s: n * c // len(draws) for s, c in sizes.items()}
    by_remainder = sorted(sizes, key=lambda s: (-(n * sizes[s] % len(draws)), s))
    for s in by_remainder[: n - sum(quota.values())]:
        quota[s] += 1
    shapes = []
    for d in draws:
        if quota[stratum(d)] > 0:
            quota[stratum(d)] -= 1
            shapes.append(d)
    return shapes


def _twist_stratum(leaves):
    return len(leaves), sum(abs(p) in (1, q - 1) for p, q in leaves)


def montesinos_shapes(counts, n):
    """n knot shapes: leaf lists with `counts` leaves, q <= 9."""
    rng = random.Random("%s-montesinos-%s" % (SHAPE_SEED, counts))
    draws = []
    while len(draws) < POPULATION:
        leaves = [_leaf(rng, 9) for _ in range(rng.choice(counts))]
        if is_knot(leaves):
            draws.append(leaves)
    return _stratified(draws, n, _twist_stratum)


def montesinos_inputs(counts, n, seed):
    """n Montesinos knots: the shapes with seeded signs and leaf order.

    A sign flip keeps p's parity and q, so every variant is still a knot.
    """
    rng = random.Random("montesinos-%s" % seed)
    out = []
    for shape in montesinos_shapes(counts, n):
        leaves = _resign(rng, shape)
        if not is_knot(leaves):
            raise AssertionError("sign flip made a link from %s" % _sum_text(shape))
        out.append(_sum_text(leaves))
    return out


def product_shapes(n):
    """n non-family products: 2-3 factors of 1-2 leaves, q <= 5."""
    rng = random.Random("%s-products" % SHAPE_SEED)
    draws = []
    while len(draws) < POPULATION:
        factors = [
            [_leaf(rng, 5) for _ in range(rng.randint(1, 2))]
            for _ in range(rng.randint(2, 3))
        ]
        if not _is_family(factors):
            draws.append(factors)
    return _stratified(draws, n, lambda f: (len(f), sum(len(x) == 2 for x in f)))


def product_inputs(n, seed):
    """n products: the shapes with seeded signs and in-factor leaf order."""
    rng = random.Random("products-%s" % seed)
    out = []
    for shape in product_shapes(n):
        while True:
            factors = [_resign(rng, factor) for factor in shape]
            if not _is_family(factors):
                break
        out.append(
            " o ".join(
                _sum_text(f) if len(f) == 1 else "(%s)" % _sum_text(f)
                for f in factors
            )
        )
    return out


def kn_inputs(seed):
    """The family indices n = 2..8 in a seeded order."""
    order = list(KN_RANGE)
    random.Random("kn-%s" % seed).shuffle(order)
    return order
