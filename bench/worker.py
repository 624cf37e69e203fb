"""Run one workload in this interpreter and print one JSON line of results.

Started by run.py, with PYTHONPATH pointing at the checkout's src/:

    python3 bench/worker.py --workload montesinos-3 --seed 1 --seconds 16 --trace 0

Each input's latency is timed right after a run of the reference loop and
reported in reference seconds (calibrate.py). kn-family repeats its seven
inputs and counts each input's fastest pass; later passes must give the
same bytes. The first pass is checked, fingerprinted and, when tracing,
counted. Correctness checks run outside the timed span.
"""

import argparse
import gc
import hashlib
import json
import resource
import statistics
import sys
from contextlib import nullcontext
from fractions import Fraction
from pathlib import Path

import calibrate
import workloads
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent

KN_PASS_S = 4.0

# inputs per second of --seconds; used only to size the batch, so the batch
# never depends on measured time. On the 2-CPU box the benchmark was built
# on, a 16-second run of each workload took 20-30 s with its set-up and
# checks. montesinos-3 keeps 100 or more inputs, so that it reports p90.
WORKLOADS = {
    "kn-family": {"knots": True},
    "products": {"per_s": 2.0, "knots": False},
    "montesinos-3": {"per_s": 6.5, "knots": True},
    "montesinos-wide": {"per_s": 3.0, "knots": True},
}

# exact slope sets of the (-2, 3, q) pretzel knots
FIXTURES = {
    "-1/2 + 1/3 + 1/3": ("0", "12"),
    "-1/2 + 1/3 + 1/5": ("0", "15"),
    "-1/2 + 1/3 + 1/7": ("0", "16", "37/2", "20"),
}

COUNTED_NOTES = ("", "seifert-reference")


def plan(workload, seed, seconds):
    """(inputs, passes, inputs are knots) for a run of about `seconds`.

    The family has seven fixed inputs, so it repeats them. The other
    workloads make one pass over as many distinct inputs as fit: their cost
    moves with the seed's sign choices, and more inputs average that out
    better than repeating fewer would.
    """
    spec = WORKLOADS[workload]
    if workload == "kn-family":
        return workloads.kn_inputs(seed), max(1, int(seconds // KN_PASS_S)), spec["knots"]
    n = max(3, round(seconds * spec["per_s"]))
    if workload == "products":
        inputs = workloads.product_inputs(n, seed)
    elif workload == "montesinos-3":
        inputs = workloads.montesinos_inputs((3,), n, seed)
    else:
        inputs = workloads.montesinos_inputs((4, 5), n, seed)
    return inputs, 1, spec["knots"]


def _import_library():
    from tangleslopes import cli, slopes, solver, tangles

    location = Path(tangles.__file__).resolve()
    if ROOT / "src" not in location.parents:
        raise SystemExit("tangleslopes imported from %s, not from %s/src" % (location, ROOT))
    return cli, slopes, solver, tangles


def check_fixtures(solver, tangles):
    problems = []
    for text, expected in FIXTURES.items():
        got = tuple(str(s) for s in solver.solve(tangles.parse(text)).slopes)
        if got != expected:
            problems.append("fixture %s: slopes %s, expected %s" % (text, got, expected))
    return problems


def check_report(rep, item, is_kn, verify_system):
    """Problems with one report: failed verification or family checks."""
    problems = []
    slopes = set(rep.slopes)
    witnessed = set()
    for system in rep.systems:
        if system.slope not in slopes or system.note not in COUNTED_NOTES:
            continue
        found = verify_system(system)
        if found:
            problems.append("slope %s: %s" % (system.slope, "; ".join(found)))
        else:
            witnessed.add(system.slope)
    if slopes - witnessed:
        problems.append("no verified system for slopes %s" % sorted(slopes - witnessed))
    if is_kn:
        # the checks `tangleslopes verify` makes
        n = item
        high = Fraction(2 * (n + 1) ** 2 - 4)
        if not {high, -high} <= slopes:
            problems.append("certified slopes +-%s missing" % high)
        if rep.diameter is None or rep.diameter < 4 * (n + 1) ** 2 - 8:
            problems.append("diameter %s below %d" % (rep.diameter, 4 * (n + 1) ** 2 - 8))
        if rep.ratio is None or rep.ratio < Fraction((n + 1) ** 2 - 2, n):
            problems.append("ratio %s below %s" % (rep.ratio, Fraction((n + 1) ** 2 - 2, n)))
    return problems


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None, help="file for the recorded spans")
    args = parser.parse_args(argv)

    cli, slopes_mod, solver, tangles = _import_library()
    problems = check_fixtures(solver, tangles)
    fixtures_ok = not problems
    inputs, passes, knots = plan(args.workload, args.seed, args.seconds)
    is_kn = args.workload == "kn-family"
    n = len(inputs)

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()

    def run(item):
        if is_kn:
            solver.kn_system(item)  # raises when the witness trace is off
            rep = solver.solve_sn(tangles.kn(item))
        else:
            rep = solver.solve(tangles.parse(item))
        return rep, cli.format_json(rep)

    def measure(item):
        try:
            return run(item) + (None,)
        except Exception as exc:  # a failing solve is counted, not fatal
            return None, None, "%s: %s" % (type(exc).__name__, exc)

    latency = [[None] * n for _ in range(passes)]  # reference seconds
    raw = [[None] * n for _ in range(passes)]
    digests = [None] * n
    failed = [False] * n
    short = incomplete = 0
    skipped = set()
    fingerprint = hashlib.sha256()
    repeat_ok = True
    for p in range(passes):
        for i, item in enumerate(inputs):
            gc.collect()
            if tracer:
                tracer.solve_id = p * n + i
                tracer.counting = p == 0
            raw[p][i], latency[p][i], (rep, text, error) = calibrate.scaled(
                lambda: measure(item))
            if p > 0:
                digest = text and hashlib.sha256(text.encode()).digest()
                if not failed[i] and digest != digests[i]:
                    repeat_ok = False
                    problems.append("%s: report bytes differ between passes" % (item,))
                continue
            if error:
                failed[i] = True
                problems.append("%s: %s" % (item, error))
                continue
            with tracer.paused() if tracer else nullcontext():
                found = check_report(rep, item, is_kn, slopes_mod.verify_system)
            if found:
                failed[i] = True
                problems.extend("%s: %s" % (item, f) for f in found)
            digests[i] = hashlib.sha256(text.encode()).digest()
            fingerprint.update(text.encode())
            short += knots and len(rep.slopes) < 2
            if any("skipped" in note for note in rep.notes):
                incomplete += 1
            if any(note.startswith("u=0") and "skipped" in note for note in rep.notes):
                skipped.add(i)

    chosen = [min(range(passes), key=lambda p: latency[p][i]) for i in range(n)]
    best = [latency[p][i] for i, p in enumerate(chosen)]
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "inputs": n,
        "passes": passes,
        "wall_s": sum(best),
        "raw_wall_s": sum(raw[p][i] for i, p in enumerate(chosen)),
        "solve_s.p50": statistics.median(best),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "failed": sum(failed),
        "knots": n if knots else 0,
        "short": short,
        "incomplete": incomplete,
        "fingerprint": fingerprint.hexdigest(),
        "fixtures_ok": fixtures_ok,
        "repeat_ok": repeat_ok,
        "problems": problems[:10],
    }
    if n >= 100:
        result["solve_s.p90"] = statistics.quantiles(best, n=10)[-1]
    if tracer:
        weights = {p * n + i: latency[p][i] / raw[p][i] for i, p in enumerate(chosen)}
        result["layers"], result["missing"] = tracer.layer_metrics(
            weights, set(range(n)), skipped
        )
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
