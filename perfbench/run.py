#!/usr/bin/env python3
"""Benchmark of geoindex: one caller, closed loop, one workload per run.

    python3 perfbench/run.py --workload pipeline --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  Workloads (see ``workloads.py``):

  pipeline   ``geoindex anosov`` in-process on the five sample families
  jump-scan  build_problem, search over [1, 10^7] and scale by p in 2..5
  iterate    index tables and invariants of single random germs

``--trace 0`` runs operations untraced for ``--seconds`` of operation
time and reports the end-to-end metrics.  ``--trace 1`` runs a shorter
untraced pass, then the same inputs twice under the outside-in tracer
(``tracer.py``), and reports the per-layer metrics.  Every operation is
checked for correctness, untimed.  The last line of standard output is
one JSON object: correct, attempted, failed, metrics.

Times are reported at reference speed: the speed of a shared host drifts
by up to 40% for minutes at a time, so each operation and each set-up is
bracketed by a fixed reference loop, and its time is scaled by
REF_MS / (the faster of the two reference timings).
"""

from __future__ import annotations

import argparse
import importlib
import json
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from fractions import Fraction
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

LAYERS = ("cli", "anosov", "jump", "iteration", "normal_forms", "exact",
          "morse", "serialize")
DEFAULT_SEED = 0
WARMUP_SEED = 0x5EED           # one warm-up stream for every seed
WARMUP_OPS = 10
FIRST_BATCH = 16               # inputs generated during set-up
SETUP_PROBES = 2               # extra set-ups, each in a fresh interpreter
MIN_OPS = 100                  # ten samples beyond p90
MIN_TRACED_OPS = 20
WALL_LIMIT = 120.0             # seconds of passes; ends a run gone slow
TRACE_SHARE = 0.15             # share of --seconds for the untraced part
                               # of a traced run
CHECK_ID = 1 << 24             # operation ids of checks start here
REF_LOOPS = 100                # about 0.5 ms of Fraction and int arithmetic
REF_MS = 0.5                   # the reference loop's time at reference speed

# (N, m, chi, Delta) of the first DIGEST_OPS jump-scan certificates at the
# default seed; a different digest means the smallest N has changed.
DIGEST_OPS = 32
JUMP_DIGEST = "74498cef6ae8fab4f140a4ad67e75564ce296008a5e564b5ef094e693990c6c7"

# Counts that must repeat exactly between two traced passes.
EXACT_COUNTS = ("jump.n_covered", "jump.candidates", "iteration.index_evals",
                "iteration.nullity_evals", "exact.rounding_queries",
                "normal_forms.spectrum_rows_calls")


def _fail(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 2


def reference_ms() -> float:
    """Time of a fixed loop of the arithmetic the library does most; on
    this kind of host it slows down and speeds up with the library."""
    t0 = time.perf_counter()
    x, s = Fraction(1, 3), 0
    for i in range(1, REF_LOOPS):
        x = (x * 7 + Fraction(i, 11)) % 5
        s += (i * 2654435761) % 97
    return 1000 * (time.perf_counter() - t0)


def speed_scale(before_ms: float, after_ms: float) -> float:
    """Factor from measured to reference-speed time.  The faster of the
    two timings is used because an interrupt only ever slows one."""
    return REF_MS / min(before_ms, after_ms)


# -- set-up ------------------------------------------------------------------

class Setup:
    """Imports, the workload, its first inputs and a warm-up."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        ref = reference_ms()
        t0 = time.perf_counter()
        importlib.import_module("geoindex")
        importlib.import_module("geoindex.cli")
        self.wl = importlib.import_module("workloads")
        self.layers = {name: importlib.import_module(f"geoindex.{name}")
                       for name in LAYERS}
        self.workload = self.wl.make(workload, workdir)
        stream = self.workload.inputs(random.Random(seed), "m")
        self.batch = [next(stream) for _ in range(FIRST_BATCH)]
        self.stream = stream
        warm = self.workload.inputs(random.Random(WARMUP_SEED), "w")
        for _ in range(WARMUP_OPS):
            inp = next(warm)
            self.workload.check(inp, self.workload.run(inp))
        self.seconds = ((time.perf_counter() - t0)
                        * speed_scale(ref, reference_ms()))

    def inputs(self):
        yield from self.batch
        yield from self.stream

    def clear_caches(self) -> None:
        """Empty every function cache in the layers, so a pass over
        inputs seen before starts as cold as the first one."""
        for module in self.layers.values():
            for obj in vars(module).values():
                clear = getattr(obj, "cache_clear", None)
                if callable(clear):
                    clear()


def probe_setup(workload: str, seed: int) -> float:
    """Set-up time measured in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


# -- passes --------------------------------------------------------------------

class Pass:
    """Per operation: input, latency at reference speed, host speed
    (REF_MS over the reference time), check result; and failures."""

    def __init__(self):
        self.inputs: List[dict] = []
        self.latency: List[float] = []
        self.speed: List[float] = []
        self.results: List[object] = []
        self.failures: List[str] = []


def run_op(setup: Setup, inp: dict, k: int, rec: Pass, tracer=None
           ) -> float:
    """Time one operation between two reference timings, then check it;
    returns the operation's wall time.  Under a tracer both get a root
    span, the check's with id CHECK_ID + k."""
    def span(name: str, op_id: int):
        return nullcontext() if tracer is None else tracer.span(name, op_id)

    work = setup.workload
    out = err = None
    ref = reference_ms()
    t0 = time.perf_counter()
    try:
        with span("bench.op", k):
            out = work.run(inp)
    except Exception as exc:  # an operation that raises is a failed one
        err = f"op {k}: {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - t0
    scale = speed_scale(ref, reference_ms())
    rec.latency.append(elapsed * scale)
    rec.speed.append(scale)
    rec.inputs.append(inp)
    result = None
    if err is None:
        try:
            with span("bench.check", CHECK_ID + k):
                result = work.check(inp, out)
        except Exception as exc:  # CheckFailed, or a check that crashed
            err = f"check {k}: {type(exc).__name__}: {exc}"
    rec.results.append(result)
    if err is not None:
        rec.failures.append(err)
    return elapsed


def timed_pass(setup: Setup, seconds: float, min_ops: int,
               wall_limit: float) -> Pass:
    """New inputs until `seconds` of operation wall time and `min_ops`
    operations, or `wall_limit` seconds of wall time, are reached."""
    rec = Pass()
    busy, start = 0.0, time.perf_counter()
    for k, inp in enumerate(setup.inputs()):
        if busy >= seconds and k >= min_ops:
            break
        if time.perf_counter() - start > wall_limit:
            break
        busy += run_op(setup, inp, k, rec)
    return rec


def traced_pass(setup: Setup, inputs: List[dict], tracer) -> Pass:
    """Run the inputs again under the tracer, as cold as the first time:
    caches are emptied first."""
    setup.clear_caches()
    rec = Pass()
    with tracer.installed():
        for k, inp in enumerate(inputs):
            run_op(setup, inp, k, rec, tracer)
    return rec


def mismatches(first: Pass, again: Pass) -> List[str]:
    return [f"op {k}: traced output differs from untraced"
            for k, (a, b) in enumerate(zip(first.results, again.results))
            if a != b]


def jump_digest_failure(setup: Setup, rec: Pass) -> List[str]:
    """Compare the first certificates of the default seed with the
    stored digest (MIN_OPS guarantees the pass reached them)."""
    digest = setup.wl.certificates_digest(rec.results[:DIGEST_OPS])
    if len(rec.results) < DIGEST_OPS or digest != JUMP_DIGEST:
        return [f"certificate digest {digest} of {len(rec.results)} "
                f"operations differs from the stored {JUMP_DIGEST}"]
    return []


# -- metrics -------------------------------------------------------------------

def end_to_end(setup_times: List[float], rec: Pass) -> Dict[str, tuple]:
    lat = rec.latency
    n = len(lat)
    return {
        "setup_s": (statistics.median(setup_times), "s", len(setup_times)),
        "ops_per_s": (n / sum(lat), "1/s", n),
        "op_p50_ms": (1000 * statistics.median(lat), "ms", n),
        "op_p90_ms": (1000 * statistics.quantiles(lat, n=10)[-1], "ms", n),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB", 1),
        "host_speed": (statistics.median(rec.speed), "ratio", n),
        "ops_failed_ratio": (len(rec.failures) / n, "ratio", n),
    }


STAGES = ("admissibility", "screen_parities", "verify_index_window",
          "forced_top_indices", "sandwich", "mod4_contradiction")
ROUNDING = ("exact.floor_int", "exact.ceil_int", "exact.near_vertex")


def per_layer(tracer, n_ops: int, untraced: float) -> Dict[str, tuple]:
    """Span times are as measured; `untraced` is the untraced pass's
    operation time at reference speed."""
    ops = tracer.summary(0, n_ops)
    checks = tracer.summary(CHECK_ID, CHECK_ID + n_ops)

    def ratio(a, b):
        return a / b if b else 0.0

    m: Dict[str, tuple] = {}
    search_s = ops.time("jump.search")
    covered = sum(tracer.covered.get(i, 0) for i in ops.spans("jump.search"))
    candidates = ops.within("jump.verify_rounding", "jump.search")
    verify_s = ops.time("jump.verify_jump")
    iterates = sum(tracer.iterates.get(i, 0)
                   for i in ops.spans("jump.verify_jump"))
    m["jump.search_s"] = (search_s, "s")
    m["jump.n_covered"] = (covered, "count")
    m["jump.n_covered_per_s"] = (ratio(covered, search_s), "1/s")
    m["jump.candidates"] = (candidates, "count")
    m["jump.accept_ratio"] = (ratio(ops.count("jump.search"), candidates),
                              "ratio")
    m["jump.verify_jump_s"] = (verify_s, "s")
    m["jump.verify_us_per_iterate"] = (1e6 * ratio(verify_s, iterates), "us")
    m["jump.scale_s"] = (ops.time("jump.scale"), "s")
    m["jump.build_problem_s"] = (ops.time("jump.build_problem"), "s")

    n_index = ops.count("iteration.index_at")
    rows = sum(tracer.rows.get(i, 0)
               for i in ops.spans("iteration.IndexProfile.rows"))
    m["iteration.index_evals"] = (n_index, "count")
    m["iteration.index_eval_us"] = (
        1e6 * ratio(ops.time("iteration.index_at"), n_index), "us")
    m["iteration.nullity_evals"] = (ops.count("iteration.nullity_at"),
                                    "count")
    m["iteration.profile_entry_us"] = (
        1e6 * ratio(ops.time("iteration.IndexProfile.rows"), rows), "us")

    queries = [i for name in ROUNDING for i in ops.spans(name, "exact")]
    m["exact.rounding_queries"] = (len(queries), "count")
    m["exact.rounding_query_us"] = (
        1e6 * ratio(sum(ops.dur[i] for i in queries), len(queries)), "us")
    m["normal_forms.spectrum_rows_calls"] = (
        ops.count("normal_forms.spectrum_rows"), "count")

    for stage in STAGES:
        m[f"anosov.{stage}_s"] = (ops.time(f"anosov.{stage}"), "s")
    m["morse.parity_counts_s"] = (ops.time("morse.parity_counts"), "s")
    m["serialize.parse_s"] = (ops.time("serialize.system_from_dict"), "s")
    m["serialize.dumps_s"] = (ops.time("serialize.dumps"), "s")
    m["anosov.replay_s"] = (checks.time("anosov.replay"), "s")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (ops.self_time(layer), "s")
    return m


def notes(setup: Setup) -> List[str]:
    return getattr(setup.workload, "notes", list)()


# -- main ------------------------------------------------------------------------

def emit(metrics: Dict[str, tuple], attempted: int, failures: List[str],
         shown_only: tuple, notes: List[str]) -> None:
    """Print every metric by name and unit, failures and the workload's
    notes, then the result line; the `shown_only` metrics stay out of the
    result line."""
    for name, (value, unit, *samples) in metrics.items():
        extra = f"  (n={samples[0]})" if samples else ""
        print(f"{name:36s} {value:16.6f} {unit}{extra}")
    for line in failures[:20]:
        print(f"FAILED {line}")
    for line in notes:
        print(f"note: {line}")
    keep = {name: {"value": float(value), "unit": unit}
            for name, (value, unit, *_) in metrics.items()
            if name not in shown_only}
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": keep}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("pipeline", "jump-scan", "iterate"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "geoindex" / "__init__.py").is_file():
        return _fail(f"no geoindex sources under {SRC}")
    sys.path[:0] = [str(SRC), str(HERE)]
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        setup = Setup(args.workload, args.seed, workdir)
        if args.setup_probe:
            print(repr(setup.seconds))
            return 0
        if args.trace == 0:
            rec = timed_pass(setup, args.seconds, MIN_OPS, WALL_LIMIT)
            if args.workload == "jump-scan" and args.seed == DEFAULT_SEED:
                rec.failures += jump_digest_failure(setup, rec)
            setup_times = [setup.seconds] + [
                probe_setup(args.workload, args.seed)
                for _ in range(SETUP_PROBES)]
            emit(end_to_end(setup_times, rec), len(rec.latency),
                 rec.failures, ("host_speed", "ops_failed_ratio"),
                 notes(setup))
            return 0
        # the two traced passes take up to about 2.5 times as long
        base = timed_pass(setup, args.seconds * TRACE_SHARE, MIN_TRACED_OPS,
                          WALL_LIMIT / 6)
        tracer_mod = importlib.import_module("tracer")
        passes, counts = [], []
        for k in range(2):
            tracer = tracer_mod.Tracer(setup.layers)
            passes.append(traced_pass(setup, base.inputs, tracer))
            counts.append(per_layer(tracer, len(base.inputs),
                                    sum(base.latency)))
            if k == 0:
                tracer.dump(OUT / f"trace-{args.workload}-{args.seed}")
            del tracer                 # its spans can run to tens of MB
        metrics = counts[0]
        metrics["trace_overhead_ratio"] = (
            sum(passes[0].latency) / sum(base.latency), "ratio")
        failures = base.failures + passes[0].failures + passes[1].failures
        for name in EXACT_COUNTS:
            if counts[0][name][0] != counts[1][name][0]:
                failures.append(f"{name} differs between traced passes: "
                                f"{counts[0][name][0]} vs "
                                f"{counts[1][name][0]}")
        failures += mismatches(base, passes[0]) + mismatches(base, passes[1])
        emit({**metrics, "ops_traced": (len(base.inputs), "count")},
             3 * len(base.inputs), failures, ("ops_traced",), notes(setup))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
