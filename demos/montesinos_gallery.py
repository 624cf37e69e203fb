# A few classic pretzel closures and what the piecewise-linear closure
# condition finds for each. Systems either balance the v-coordinates at a
# common horizontal position u > 0, or meet the leftmost column and balance
# integer twists there.

from tangleslopes import parse, solve, uv_coords

GALLERY = (
    "-1/2 + 1/3 + 1/7",
    "-1/2 + 1/3 + 1/5",
    "-1/2 + 1/3 + 1/3",
    "-2/3 + 1/4 + 1/5",
    "1/2 + 1/3 + 1/3",
)

# reports known to be wrong, each a case of tests/test_known_defects.py
KNOWN_DEFECTS = {
    "1/2 + 1/3 + 1/3": "an alternating knot whose tangles share a sign has"
    " diameter 2c = 16 (Curtis-Taylor), but type III pieces are not"
    " modelled yet (ROADMAP item 7)",
}


def describe(path):
    if path.is_constant:
        pt = uv_coords(path.state)
        return "const %s at u=%s" % (path.tangle, pt.u)
    stops = " ".join(str(v) for v in path.vertices)
    if path.final_fraction != 1:
        stops += " (stop %s of last edge)" % path.final_fraction
    return "path %s" % stops


def show(text):
    rep = solve(parse(text))
    print("N(%s)" % text)
    print("  slopes: %s" % (" ".join(str(s) for s in rep.slopes) or "(none)"))
    if text in KNOWN_DEFECTS:
        print("  known defect: %s" % KNOWN_DEFECTS[text])
    for note in rep.notes:
        print("  note: %s" % note)
    skipped = 0
    for system in rep.systems:
        if system.note:
            skipped += 1
            continue
        print("  slope %s" % system.slope)
        for path in system.assignment:
            print("    %s" % describe(path))
    if skipped:
        print("  (+%d reference or flagged systems not shown)" % skipped)
    print()


if __name__ == "__main__":
    for text in GALLERY:
        show(text)
