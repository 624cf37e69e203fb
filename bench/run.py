"""Benchmark for tangleslopes: four seeded workloads, checked outputs, traces.

Run from the root of a checkout:

    python3 bench/run.py --workload montesinos-3 --seed 1 --seconds 16 --trace 0

Workloads (why each was chosen is recorded in BENCHMARK.json):

    kn-family        kn --n N for N = 2..8 (kn_system, solve_sn, JSON)
    products         non-family products of 2-3 factors, leaves q <= 5
    montesinos-3     3-tangle Montesinos knots, q <= 9
    montesinos-wide  4- and 5-tangle Montesinos knots, q <= 9

Each input runs the way the CLI runs it: parse, solve (or kn_system and
solve_sn), then cli.format_json. Every workload runs in its own child
interpreter (worker.py), one at a time, so at most two processes exist.

With --trace 0 the last line of stdout is a JSON object whose metrics are
the end-to-end figures:

    setup_s       median time of fresh interpreters that import
                  tangleslopes.cli (10 per run, half before and half after
                  the workload), which every CLI call pays; each is timed
                  against a bare interpreter started just before it
    wall_s        time for the batch, parse through JSON text, checks untimed
    solve_s.p50   median per-input latency over the same samples
    peak_rss_mib  peak resident set of the child that ran the workload

The lines before it also give solve_s.p90 (only with 100 or more samples),
failed_frac, short_frac, incomplete_frac and the output fingerprint: a
SHA-256 over the JSON reports in order. The three fractions are kept out of
the JSON metrics because they are 0 on some workloads.

Times are in reference seconds: each solve is scaled by how fast a fixed
stdlib-only loop ran just before it (calibrate.py), and each import by how
fast a bare interpreter started just before it, which takes out the box's
speed swings and nothing the library does. The summary lines also show the
unscaled seconds. Inputs come from workloads.py: shapes
drawn once, signs and order from --seed.

A solve fails when it raises, when a system carrying a counted slope fails
verify_system, when a counted slope has no verified system, or, on
kn-family, when the certified slopes, diameter floor or ratio floor of
`tangleslopes verify` are missed. A knot input with fewer than two slopes
is short (Culler-Shalen). A report is incomplete when a note says a search
class was skipped. `correct` is false when a fixture fails, a solve fails,
or a repeated pass changes a report's bytes.

With --trace 1 a second child runs the same batch with spans recorded
(tracer.py), and the metrics are the per-layer figures, taken from each
input's fastest pass, plus trace.overhead_frac, the traced wall_s over the
untraced one, minus 1. A layer's time is the self time of its spans; a
layer the workload never enters reads 0. The layers do not overlap, so
their times add up to at most the traced wall_s; the rest is the self time
of solve, solve_sn and kn_system and of the wrappers. solve_montesinos's
own time goes to solver.type_i.s up to its first _type_ii_options call and
to solver.u0.s after it. The correctness checks run with the tracer paused
and count nowhere. Spans are written to .bench_out/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import monotonic, perf_counter


HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("kn-family", "products", "montesinos-3", "montesinos-wide")
SETUP_RUNS = 5  # before and after the workload each
# about a bare interpreter's start on the idle 2-CPU box the benchmark was
# built on; timed against it, the import's median over ten pairs varied by
# 3% and 10% (quartile spread) in two sets of runs where its raw time
# varied by 16% and 9%
BARE_START_S = 0.04
DEADLINE_S = 170

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("solve_s.p50", "s"),
    ("peak_rss_mib", "MiB"),
)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def import_times(count, deadline):
    """(raw s, reference s) for `count` fresh interpreters importing tangleslopes.cli.

    Reference seconds are the import's time over that of a bare interpreter
    started just before it, times BARE_START_S. The bare start runs no
    library code, so only the import's own cost moves the ratio. The wait
    for each child blocks: subprocess's own timeout polls in steps of up to
    50 ms, which would round the times. A timer kills a child that outlives
    the deadline.
    """
    def start(code):
        began = perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", code], env=child_env())
        timer = threading.Timer(max(1, deadline - monotonic()), proc.kill)
        timer.start()
        try:
            returncode = proc.wait()
        finally:
            timer.cancel()
            timer.join()
        elapsed = perf_counter() - began
        if returncode != 0:
            raise SystemExit("python3 -c %r exited with code %d" % (code, returncode))
        return elapsed

    times = []
    for _ in range(count):
        bare = start("pass")
        raw = start("import tangleslopes.cli")
        times.append((raw, raw / bare * BARE_START_S))
    return times


def run_worker(args, trace, deadline):
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
    ]
    if trace:
        out = ROOT / ".bench_out"
        out.mkdir(exist_ok=True)
        command += ["--spans", str(out / ("spans-%s-%d.jsonl" % (args.workload, args.seed)))]
    proc = subprocess.run(
        command, env=child_env(), stdout=subprocess.PIPE, text=True,
        timeout=max(1, deadline - monotonic()),
    )
    if proc.returncode != 0:
        raise SystemExit("worker exited with code %d" % proc.returncode)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def frac(count, total):
    return "%d/%d = %.4f" % (count, total, count / total if total else 0.0)


def print_summary(args, setup, base, traced):
    print("workload %s  seed %d  %d inputs x %d passes"
          % (args.workload, args.seed, base["inputs"], base["passes"]))
    print("  %-16s %.4f s  (median of %d imports; %.4f s unscaled)" % (
        "setup_s", statistics.median(r for _, r in setup), len(setup),
        statistics.median(w for w, _ in setup)))
    print("  %-16s %.4f s  (%.4f s unscaled)" % ("wall_s", base["wall_s"], base["raw_wall_s"]))
    print("  %-16s %.4f s  (%d samples)" % ("solve_s.p50", base["solve_s.p50"], base["inputs"]))
    if "solve_s.p90" in base:
        print("  %-16s %.4f s  (%d samples)" % ("solve_s.p90", base["solve_s.p90"], base["inputs"]))
    else:
        print("  %-16s omitted: %d samples, fewer than 100" % ("solve_s.p90", base["inputs"]))
    print("  %-16s %.1f MiB" % ("peak_rss_mib", base["peak_rss_mib"]))
    print("  %-16s %s" % ("failed_frac", frac(base["failed"], base["inputs"])))
    if base["knots"]:
        print("  %-16s %s" % ("short_frac", frac(base["short"], base["knots"])))
    else:
        print("  %-16s not applicable: inputs are not known to be knots" % "short_frac")
    print("  %-16s %s" % ("incomplete_frac", frac(base["incomplete"], base["inputs"])))
    print("  %-16s sha256:%s" % ("fingerprint", base["fingerprint"]))
    for problem in base["problems"]:
        print("  problem: %s" % problem)
    if traced:
        wall = traced["wall_s"]
        print("  traced wall_s %.4f s, overhead %+.3f" % (wall, wall / base["wall_s"] - 1))
        for name, (value, unit) in sorted(traced["layers"].items()):
            share = "  %5.1f%%" % (100 * value / wall) if unit == "s" else ""
            print("  %-40s %14.6g %-6s%s" % (name, value, unit, share))
        for name in traced["missing"]:
            print("  %-40s missing: the function it reads is gone" % name)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "tangleslopes" / "cli.py").is_file():
        print("error: no tangleslopes sources under %s" % SRC, file=sys.stderr)
        return 2
    deadline = monotonic() + DEADLINE_S

    import_times(1, deadline)  # compiles the bytecode cache; users pay that once
    setup = import_times(SETUP_RUNS, deadline)
    base = run_worker(args, 0, deadline)
    traced = run_worker(args, 1, deadline) if args.trace else None
    setup += import_times(SETUP_RUNS, deadline)

    runs = [base] + ([traced] if traced else [])
    correct = all(r["fixtures_ok"] and r["repeat_ok"] and not r["failed"] for r in runs)
    print_summary(args, setup, base, traced)
    if traced:
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in traced["layers"].items()}
        metrics["trace.overhead_frac"] = {
            "value": traced["wall_s"] / base["wall_s"] - 1, "unit": "ratio"}
    else:
        values = dict(base, setup_s=statistics.median(r for _, r in setup))
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    print(json.dumps({
        "correct": correct,
        "attempted": base["inputs"],
        "failed": base["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
