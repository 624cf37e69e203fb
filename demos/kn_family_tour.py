"""Walk the squared-pretzel family and watch its slope diameter grow.

The n-th member closes the product (-1/n + 1/(n+1)) o (-1/n + 1/(n+1)) into
a knot with 4n crossings. Its candidate boundary slopes spread out quadratically while the
crossing number only grows linearly, so diameter / crossings is unbounded.
"""

from fractions import Fraction

from tangleslopes import kn, kn_system, render, solve_sn


def tour(n_max=6):
    print("%3s  %-34s %9s %9s %8s" % ("n", "expression", "min", "max", "ratio"))
    for n in range(2, n_max + 1):
        rep = solve_sn(kn(n))
        lo, hi = rep.certified
        print("%3d  %-34s %9s %9s %8s" % (n, render(kn(n)), lo, hi, rep.ratio))
        assert rep.diameter == hi - lo
    print()


def show_witness(n):
    # the system that realizes the most negative slope, step by step
    system = kn_system(n)
    print("witness system for n=%d" % n)
    for node in system.nodes:
        extra = ""
        if node.kind == "product":
            extra = "  rotate: m=%d tau'=%s -> %s" % (
                node.m, node.tau_prime, node.transformed.triple())
        print("  %-28s %-8s %-14s tau=%-6s%s" % (
            node.label, node.kind, node.state.triple(), node.tau, extra))
    print("  closure %s, slope %s" % (system.closure.triple(), system.slope))
    print()


def growth_check(n_max=8):
    # the certified extremes against the quadratic lower bound
    for n in range(2, n_max + 1):
        rep = solve_sn(kn(n))
        floor = 4 * (n + 1) ** 2 - 8
        least = Fraction((n + 1) ** 2 - 2, n)
        print("n=%d diameter %d (>= %d), ratio %s (>= %s)" % (
            n, rep.diameter, floor, rep.ratio, least))
        assert rep.diameter >= floor and rep.ratio >= least


if __name__ == "__main__":
    tour()
    show_witness(2)
    show_witness(4)
    growth_check()
