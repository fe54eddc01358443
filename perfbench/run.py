"""Benchmark of record: time to an exact fidelity per check, end to end.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cold_plan --seed 1 --seconds 24 --trace 0

Each workload is a closed loop with one client, zero think time, one
process and ``jobs=1``: every request goes through ``Engine.respond``
and the next one is sent when it returns.  The timed phase runs a fixed
number of whole cycles over the workload's rows, sized so a run lasts
about ``--seconds`` on the reference machine (see ``workloads.py``).
After it, every answer is checked against an independent reference
engine; a mismatch over 1e-9 or an error response is a failure.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` runs the same
timed phase, then a separate traced pass over the first inputs, and
prints the per-layer metrics (``layers.py``).  ``--smoke`` is a
2-second run with one set-up.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it is the full report.  The exit code is 0 only when every check
passed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

SETUP_STARTED = time.perf_counter()

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: per-run scratch (cache directories, span dumps, percentile placements)
STATE = os.path.join(ROOT, ".perfbench")

THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)

#: set-ups per run: this process's own and, in fresh interpreters, the
#: rest; ``setup_s`` is their median
SETUP_REPEATS = 3

#: ``--smoke`` run length: one cycle, or a few rounds of a replay
#: workload so the row most rounds land on is still clear
SMOKE_SECONDS = 2.0

#: traced pass length: the first inputs of about this many seconds
TRACE_SECONDS = 10.0

END_TO_END_UNITS = {
    "checks_per_s": "1/s",
    "check_s_p50": "s",
    "check_s_tail": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

LAYER_UNITS = {
    "api.self_s": "s", "resolve.s": "s", "cache.fingerprint_s": "s",
    "cache.get_s": "s", "cache.put_s": "s", "cache.plan_get_s": "s",
    "cache.plan_put_s": "s", "cache.hit_ratio": "1",
    "network.build_s": "s", "network.tensors": "count",
    "plan.build_s": "s", "plan.cost": "madd", "plan.peak_size": "count",
    "execute.s": "s", "execute.gflops": "Gmadd/s",
    "execute.max_intermediate": "count", "tdd.max_nodes": "count",
    "tdd.unique_nodes": "count", "alg1.terms": "count",
    "alg1.term_s": "s", "trace.overhead": "1", "share.api": "1",
    "share.resolve": "1", "share.cache.fingerprint": "1",
    "share.cache.get": "1", "share.cache.put": "1",
    "share.cache.plan_get": "1", "share.cache.plan_put": "1",
    "share.network.build": "1", "share.plan.build": "1",
    "share.execute": "1", "share.alg1.terms": "1",
}

#: the ``--trace 1`` metrics of BENCHMARK.json.  ``alg1.term_s`` is
#: reported but left out: Algorithm II workloads run no term loop, so it
#: would read 0 s on every run of two workloads out of three.
PER_LAYER = tuple(name for name in LAYER_UNITS if name != "alg1.term_s")


def isolate(cache_dir: str) -> None:
    """Pin thread pools and the cache before numpy or repro load."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    for var in ("REPRO_CACHE_URL", "REPRO_WORKERS"):
        os.environ.pop(var, None)
    os.environ["REPRO_CACHE_DIR"] = cache_dir


def import_program():
    """Import repro from this checkout's ``src``, or exit non-zero."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.exit(f"error: no program source at {SRC}/repro")
    sys.path.insert(0, SRC)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: repro imported from {repro.__file__}, not {SRC}")


def set_up(workload, seed: int):
    """Engine and warm-up, the last of the set-up before the first timed
    check.  Returns the engine and the set-up answers (a replay
    workload's originals, by request)."""
    from repro import Engine

    engine = Engine(cache=workload.cache, **workload.engine)
    engine.respond(workload.warmup_request(seed))
    originals = {
        item.request: engine.respond(item.request)
        for item in workload.fill_items(seed)
    }
    return engine, originals


def setup_child(args) -> float:
    """One more set-up in a fresh interpreter; its own measured time."""
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload",
         args.workload, "--seed", str(args.seed), "--seconds",
         str(args.seconds), "--setup-only"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


def percentiles(latencies, rows):
    """p50 and tail by rank, each with the row it landed on.  The tail
    is the highest percentile with at least 10 samples beyond it."""
    n = len(latencies)
    order = sorted(range(n), key=latencies.__getitem__)
    tail_rank = n - 11 if n >= 11 else n - 1
    p50 = order[(n - 1) // 2]
    tail = order[tail_rank]
    return {
        "check_s_p50": (latencies[p50], rows[p50]),
        "check_s_tail": (latencies[tail], rows[tail]),
        "tail_percentile": 100.0 * (tail_rank + 1) / n,
        "samples_beyond_tail": n - 1 - tail_rank,
    }


def slow_decile(values, higher_is_slower=True):
    """The value a tenth of the way from the slow end of ``values``.

    A shared host runs a replay workload's checks at two speeds, about
    2x apart, in stretches of tens of checks to several seconds whose
    share of a run varies from run to run.  So over ten runs the median
    round spread 0.17-0.38 of its median; the slow decile, the host's
    steady speed, 0.04-0.06 (STEADINESS.md)."""
    if len(values) == 1:
        return values[0]
    deciles = statistics.quantiles(values, n=10, method="inclusive")
    return deciles[-1] if higher_is_slower else deciles[0]


def timing_metrics(workload, items, starts, ends, bad):
    """Throughput and p50 per round, the tail per window of
    ``tail_rounds`` rounds, each reported at the slow decile over them
    (``slow_decile``); the row of each percentile is the row most rounds
    or windows landed on.  A workload without rounds is one round and
    one window: its figures are those of the whole timed phase."""
    size = workload.round_cycles * len(workload.rows) or len(items)
    latencies = [end - start for start, end in zip(starts, ends)]
    bad = set(bad)

    def split(width):
        return [range(i, min(i + width, len(items)))
                for i in range(0, len(items), width)]

    def percentiles_of(span):
        return percentiles([latencies[i] for i in span],
                           [items[i].row for i in span])

    rounds = split(size)
    per_s = [
        sum(i not in bad for i in span) / (ends[span[-1]] - starts[span[0]])
        for span in rounds
    ]
    by_round = [percentiles_of(span) for span in rounds]
    by_window = [percentiles_of(span) for span in split(size * workload.tail_rounds)]
    metrics = {"checks_per_s": slow_decile(per_s, higher_is_slower=False)}
    placement = {
        "rounds": len(rounds),
        "samples_per_round": size,
        "samples_per_tail_window": size * workload.tail_rounds,
        "tail_percentile": by_window[0]["tail_percentile"],
        "samples_beyond_tail": by_window[0]["samples_beyond_tail"],
    }
    for name, spans in (("check_s_p50", by_round), ("check_s_tail", by_window)):
        values = [r[name][0] for r in spans]
        rows = [r[name][1] for r in spans]
        row = max(sorted(set(rows)), key=rows.count)
        metrics[name] = slow_decile(values)
        placement[name] = {
            "row": row,
            "spans_by_row": {r: rows.count(r) for r in sorted(set(rows))},
        }
    placement["row_p50_s"] = {
        row: statistics.median(
            lat for lat, it in zip(latencies, items) if it.row == row
        )
        for row in workload.rows
    }
    return metrics, placement


def check_placement(key: str, placement: dict) -> bool:
    """Same row at p50 and tail as every earlier run of this seed."""
    path = os.path.join(STATE, "placements.json")
    try:
        with open(path) as handle:
            seen = json.load(handle)
    except (OSError, ValueError):
        seen = {}
    rows = {name: placement[name]["row"]
            for name in ("check_s_p50", "check_s_tail")}
    earlier = seen.setdefault(key, rows)
    with open(path, "w") as handle:
        json.dump(seen, handle, indent=1, sort_keys=True)
    return earlier == rows


def check_answers(workload, items, responses, originals):
    """Compare every answer with an independent reference engine.

    A replay workload's set-up answers (its originals) must match the
    reference, and each replayed answer must equal its original.
    Returns the failed timed indices, the failed original count and the
    expected fidelity per request.
    """
    from repro import Engine
    from workloads import TOLERANCE

    reference = Engine(**workload.reference)

    def reference_fidelity(request) -> float:
        response = reference.respond(request)
        return response.fidelity if response.ok else float("nan")

    expected, exact = {}, set()
    bad_originals = 0
    for request, original in originals.items():
        want = reference_fidelity(request)
        if not (original.ok and abs(original.fidelity - want) <= TOLERANCE):
            bad_originals += 1
        expected[request] = original.fidelity if original.ok else float("nan")
        exact.add(request)
    bad = []
    for index, (item, response) in enumerate(zip(items, responses)):
        if item.request not in expected:
            expected[item.request] = reference_fidelity(item.request)
        want = expected[item.request]
        ok = response.ok and (
            response.fidelity == want if item.request in exact
            else abs(response.fidelity - want) <= TOLERANCE
        )
        if not ok:
            bad.append(index)
    reference.close()
    return bad, bad_originals, expected


def traced_pass(workload, seed, items, scratch):
    """Each input through an untraced twin Engine and, right before or
    after, through the traced path, so machine drift between the two
    cancels out.  Both
    start from fresh state, like the timed Engine.  Returns the path, its
    checks, the twin's responses and latencies, and the items sent."""
    from layers import TracedPath
    from repro import Engine

    twin = Engine(cache=workload.cache, cache_dir=os.path.join(scratch, "twin"),
                  **workload.engine)
    path = TracedPath(workload, os.path.join(scratch, "traced"))
    sent = [(-1 - i, item, True) for i, item in enumerate(workload.fill_items(seed))]
    sent += [(i, item, False) for i, item in enumerate(items)]
    checks, responses, latency = [], [], {}
    for turn, (request_id, item, fill) in enumerate(sent):
        # alternate which goes first: the second of a pair runs on the
        # first's garbage and warm caches
        if turn % 2:
            checks.append(path.check(request_id, item.request, fill))
        started = time.perf_counter()
        responses.append(twin.respond(item.request))
        latency[request_id] = time.perf_counter() - started
        if not turn % 2:
            checks.append(path.check(request_id, item.request, fill))
    twin.close()
    return path, checks, responses, latency, [item for _, item, _ in sent]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="a 2-second run with one set-up (the self-test)")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    os.makedirs(STATE, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=STATE)
    try:
        return run(args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def run(args, scratch: str) -> int:
    isolate(os.path.join(scratch, "cache"))
    import_program()
    import numpy

    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(WORKLOADS)}")
    items = workload.items(args.seed, SMOKE_SECONDS if args.smoke else args.seconds)
    engine, originals = set_up(workload, args.seed)
    setup_s = time.perf_counter() - SETUP_STARTED
    if args.setup_only:
        print(repr(setup_s))
        return 0

    starts, ends, responses = [], [], []
    for item in items:
        starts.append(time.perf_counter())
        responses.append(engine.respond(item.request))
        ends.append(time.perf_counter())
    wall = ends[-1] - starts[0]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # free warm state (a TDD unique table runs to hundreds of MB) so the
    # passes below neither pay for scanning it nor count it
    engine.close()
    engine.reset()
    gc.collect()

    setups = [setup_s] + [
        setup_child(args)
        for _ in range(0 if args.smoke else SETUP_REPEATS - 1)
    ]
    bad, bad_originals, expected = check_answers(
        workload, items, responses, originals
    )
    failed = len(bad) + bad_originals
    attempted = len(items) + len(originals)
    timing, placement = timing_metrics(workload, items, starts, ends, bad)
    end_to_end = {
        **timing,
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(setups),
    }
    placement_key = f"{workload.name}/{args.seed}/{len(items)}"
    placement_ok = check_placement(placement_key, placement)

    report = {
        "workload": workload.name,
        "seed": args.seed,
        "cycles": len(items) // len(workload.rows),
        "timed_wall_s": wall,
        "setup_samples_s": setups,
        "placement": placement,
        "placement_stable": placement_ok,
        "result_cache_hits": sum(
            r.stats.result_cache_hit for r in responses if r.ok
        ),
        "end_to_end": {
            name: {"value": value, "unit": END_TO_END_UNITS[name]}
            for name, value in end_to_end.items()
        },
        "environment": {
            "nproc": os.cpu_count(),
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "threads": {var: os.environ[var] for var in THREAD_VARS},
        },
    }
    metrics = {
        name: report["end_to_end"][name] for name in END_TO_END_UNITS
    }

    if args.trace:
        from layers import layer_metrics, spans_as_json
        from workloads import TOLERANCE

        path, checks, twin_responses, latency, sent = traced_pass(
            workload, args.seed,
            items[: workload.cycles(TRACE_SECONDS) * len(workload.rows)],
            os.path.join(scratch, "traced"),
        )
        for check, response, item in zip(checks, twin_responses, sent):
            want = expected[item.request]
            failed += not abs(check.fidelity - want) <= TOLERANCE
            failed += not (response.ok and abs(response.fidelity - want) <= TOLERANCE)
        attempted += 2 * len(checks)
        layers = layer_metrics(path, checks, latency)
        report["layers"] = {
            name: {"value": value, "unit": LAYER_UNITS[name]}
            for name, value in layers.items()
        }
        spans_file = os.path.join(
            STATE, f"spans-{workload.name}-{args.seed}.json"
        )
        with open(spans_file, "w") as handle:
            json.dump(spans_as_json(path), handle)
        report["spans_file"] = os.path.relpath(spans_file, ROOT)
        metrics = {name: report["layers"][name] for name in PER_LAYER}

    report["end_to_end"]["fail_ratio"] = {
        "value": failed / attempted, "unit": "1"
    }
    if failed:
        print(f"error: {failed} of {attempted} checks failed", file=sys.stderr)
    if not placement_ok:
        print("error: a percentile landed on another row than in an earlier "
              f"run of this seed ({placement_key})", file=sys.stderr)
    correct = failed == 0 and placement_ok
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
