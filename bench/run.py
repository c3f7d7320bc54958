"""pklt-lab benchmark: one seeded workload per run, closed loop, one client.

    python3 bench/run.py --workload {cubic,chain,fuzz,cli} --seed N \
        --seconds S --trace {0,1}

Each op is checked outside its timed interval.  Human-readable lines
come first; the last stdout line is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics (spans recorded around the program's
public functions) with --trace 1.  End-to-end times are scaled to a
nominal host speed (see REFERENCES); the raw ones are printed above.
The program is imported from src/ of the checkout this file sits in.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import io
import itertools
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import tracemalloc
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterator

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED = HERE / "expected.json"
SPANS_DIR = ROOT / ".bench_out"

WORKLOADS = ("cubic", "chain", "fuzz", "cli")
SETUP_PROBES = 7
INTERP_PROBES = 5
CHILD_TIMEOUT_S = 60
# op_ms.tail is this percentile; it is printed when at least ten ops lie
# beyond it, which at the seed holds for fuzz and cli only
TAIL_PERCENTILE = {"cubic": 90, "chain": 90, "fuzz": 99, "cli": 90}
# peak_rss_mib is read after this many ops (or at the end of a shorter
# run), so that a faster program does not show more cache growth
RSS_AFTER_OPS = {"cubic": 4, "chain": 8, "fuzz": 1000}
# untimed fuzz pairs of the input class the timed stream leaves out
DEFECT_PROBE_OPS = 100
# inputs generated during set-up; later ones are made between ops
PRELOAD = {"cubic": 2, "chain": 4, "fuzz": 256, "cli": 10}
# The speed of a shared host swings by up to 2x within seconds.  A fixed
# piece of work like the op's, timed between ops (at most every
# REF_EVERY_S of op time), tracks the swing; end-to-end times are reported
# at the speed where that work takes its nominal time, measured on a quiet
# 2-core x86-64 host.  In-process ops are exact-rational arithmetic; a
# CLI command, like set-up, is mostly interpreter start.
REF_EVERY_S = 0.25
REF_TERMS = 6000
CLI_ENTRY = "import sys; from pklt_lab.cli import main; sys.exit(main())"
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import pklt_lab.cli; "
    "print(time.perf_counter() - t)"
)


def load_program() -> None:
    """Import pklt_lab from this checkout's src/, or exit non-zero."""
    sys.path.insert(0, str(SRC))
    try:
        import pklt_lab.cli  # noqa: F401  (loads every module of the package)
    except ImportError as exc:
        sys.exit(f"bench: cannot import pklt_lab from {SRC}: {exc}")
    import pklt_lab

    if Path(pklt_lab.__file__).resolve().parent != SRC / "pklt_lab":
        sys.exit(f"bench: pklt_lab was imported from {pklt_lab.__file__}")


def program_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def rationals_s() -> float:
    """Seconds the host takes right now to combine and compare small exact
    rationals, as the program does."""
    start = perf_counter()
    for i in range(REF_TERMS):
        a = Fraction(i % 89 + 1, i % 97 + 1)
        b = Fraction(i % 13 + 1, i % 7 + 2)
        _ = a * b + a - b < 1
    return perf_counter() - start


def interpreter_s() -> float:
    """Seconds for a bare interpreter start, the floor under every CLI
    command."""
    return child_seconds([sys.executable, "-c", "pass"])[0]


# reference work -> its nominal seconds
REFERENCES = {rationals_s: 0.034, interpreter_s: 0.040}


# ---------------------------------------------------------------------------
# ops


def analyse(item):
    """parse_model -> make_pair -> full_report -> JSON, as a library user
    would.  Functions are looked up on their modules at call time, so the
    traced run sees these calls too."""
    from pklt_lab import modelio, potential, report, zariski

    loaded = modelio.parse_model(item[0])
    level, delta_name = loaded.pair
    delta = loaded.divisor_at(delta_name, level) if delta_name else None
    try:
        pair = potential.make_pair(loaded.model, level, delta)
        text = json.dumps(report.full_report(pair), indent=2)
    except (zariski.NotPseudoeffectiveError, potential.PairError) as exc:
        return ("reject", type(exc).__name__)
    return ("report", pair, text)


def cli_subprocess(item):
    """One CLI command in a fresh interpreter, as the console script runs
    it.  Returns ("exit", code, stdout, peak RSS of the child in KiB)."""
    proc = subprocess.Popen(
        [sys.executable, "-c", CLI_ENTRY, *item[0]],
        cwd=ROOT, env=program_env(),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        stdout = proc.stdout.read()
        proc.stderr.read()
    finally:
        killer.cancel()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        proc.stderr.close()
    return ("exit", proc.returncode, stdout, usage.ru_maxrss)


def cli_in_process(item):
    """The same command through cli.main in this process (traced run)."""
    from pklt_lab import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(item[0]))
    return ("exit", code, buf.getvalue().encode(), 0)


# ---------------------------------------------------------------------------
# workloads


@dataclass
class Workload:
    name: str
    inputs: Iterator
    op: Callable  # the timed op
    traced_op: Callable  # the op of the traced run
    check: Callable  # (index, item, outcome) -> problem or None
    rss_after: int | None = None
    size: int | None = None  # tower size n of cubic and chain
    reference: Callable = rationals_s  # host-speed reference for its ops


def load_expected() -> dict:
    with open(EXPECTED, encoding="utf-8") as fh:
        return json.load(fh)


def make_workload(name: str, seed: int, size: int | None = None,
                  expected: dict | None = None) -> Workload:
    """`size` is the tower size n for cubic and chain; the others have one."""
    import checks
    import workloads

    expected = load_expected() if expected is None else expected
    if name in ("cubic", "chain"):
        n = size or workloads.SIZES[name]
        build = workloads.cubic_doc if name == "cubic" else workloads.chain_doc
        stored = expected[name].get(str(n))
        return Workload(
            name, workloads.family_stream(build, n, seed), analyse, analyse,
            lambda i, item, out: checks.check_analysis(out, item[1], stored),
            RSS_AFTER_OPS[name], n,
        )
    if name == "fuzz":
        fuzz = expected["fuzz"]
        stored = fuzz["outcomes"] if seed == fuzz["seed"] else []

        def check(i, item, out):
            digest = stored[i] if i < len(stored) else None
            return checks.check_analysis(
                out, None, None if digest == "-" else digest
            )

        return Workload(name, workloads.fuzz_stream(seed), analyse, analyse,
                        check, RSS_AFTER_OPS[name])
    if name == "cli":
        stored = expected["cli"]
        return Workload(
            name, workloads.cli_stream(seed), cli_subprocess, cli_in_process,
            lambda i, item, out: checks.check_cli(out, stored[" ".join(item[0])]),
            reference=interpreter_s,
        )
    raise ValueError(f"unknown workload {name!r}")


def defect_probe() -> str:
    """Runs, untimed, the fuzz pairs the timed stream leaves out (see
    workloads.defect_stream), so that the program's known failures on them
    stay in view.  Returns a one-line summary."""
    import checks
    import workloads

    failures = collections.Counter()
    for item in itertools.islice(workloads.defect_stream(), DEFECT_PROBE_OPS):
        try:
            problem = checks.check_analysis(analyse(item), None, None)
        except Exception as exc:  # the program's known defect
            failures[type(exc).__name__] += 1
        else:
            if problem is not None:
                failures["wrong output"] += 1
    kinds = ", ".join(f"{n} {kind}" for kind, n in sorted(failures.items()))
    return (f"untimed probe: {sum(failures.values())} of {DEFECT_PROBE_OPS} "
            f"fuzz pairs with a coefficient-1 boundary curve over a free "
            f"center fail" + (f" ({kinds})" if kinds else ""))


def preload(wl: Workload) -> None:
    """Generate the first inputs now, as part of set-up."""
    first = list(itertools.islice(wl.inputs, PRELOAD[wl.name]))
    wl.inputs = itertools.chain(first, wl.inputs)


# ---------------------------------------------------------------------------
# measurement


@dataclass
class Run:
    latencies: list = field(default_factory=list)  # seconds, every op
    traced: list = field(default_factory=list)  # seconds, traced ops
    reference: Callable = rationals_s
    refs: list = field(default_factory=list)  # (ops done, reference())
    busy: float = 0.0
    failed: int = 0
    wrong: int = 0
    rss_kib: int = 0
    errors: dict = field(default_factory=dict)  # first problem per kind

    def scaled(self) -> list:
        """Op latencies at the nominal host speed: each op is scaled by the
        mean of the reference timings taken just before and after it."""
        out = []
        for (k0, r0), (k1, r1) in zip(self.refs, self.refs[1:]):
            factor = 2 * REFERENCES[self.reference] / (r0 + r1)
            out += [t * factor for t in self.latencies[k0:k1]]
        return out


def run_ops(wl: Workload, seconds: float, recorder=None) -> Run:
    """Closed loop: the next op starts when the previous one and its check
    are done, until the ops have taken `seconds`.  With a recorder every
    other op runs traced, so that the rest give the untraced reference."""
    import spans

    run = Run(reference=wl.reference, refs=[(0, wl.reference())])
    op = wl.op if recorder is None else wl.traced_op
    since_ref = 0.0
    for index, item in enumerate(wl.inputs):
        if run.busy >= seconds and (recorder is None or len(run.latencies) >= 2):
            break
        traced = recorder is not None and index % 2 == 0
        if traced:
            recorder.install()
        start = perf_counter()
        try:
            outcome = recorder.call(spans.OP, op, item) if traced else op(item)
        except Exception as exc:  # a failure; the run goes on and counts it
            outcome = exc
        elapsed = perf_counter() - start
        if traced:
            recorder.uninstall()
            run.traced.append(elapsed)
        run.busy += elapsed
        since_ref += elapsed
        run.latencies.append(elapsed)
        if isinstance(outcome, Exception):
            run.failed += 1
            run.errors.setdefault(type(outcome).__name__, repr(outcome))
        else:
            problem = wl.check(index, item, outcome)
            if problem is not None:
                run.failed += 1
                run.wrong += 1
                run.errors.setdefault("wrong output", problem)
            if outcome[0] == "exit":
                run.rss_kib = max(run.rss_kib, outcome[3])
        if wl.rss_after is not None and len(run.latencies) == wl.rss_after:
            run.rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if since_ref >= REF_EVERY_S:
            run.refs.append((len(run.latencies), wl.reference()))
            since_ref = 0.0
    if run.refs[-1][0] < len(run.latencies):
        run.refs.append((len(run.latencies), wl.reference()))
    if wl.rss_after is not None and len(run.latencies) < wl.rss_after:
        run.rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return run


def child_seconds(argv: list[str], env=None) -> tuple[float, bytes]:
    start = perf_counter()
    done = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True,
                          timeout=CHILD_TIMEOUT_S, check=True)
    return perf_counter() - start, done.stdout


def setup_seconds(workload: str, seed: int,
                  size: int | None) -> tuple[float, float]:
    """Median over fresh processes of the time from process start to the
    first op: interpreter, imports and input generation.  Returns it at the
    nominal host speed, and as measured."""
    times = []
    scaled = []
    ref = interpreter_s()
    for _ in range(SETUP_PROBES):
        start = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--probe",
             "--workload", workload, "--seed", str(seed)]
            + (["--size", str(size)] if size else []),
            cwd=ROOT, stdout=subprocess.PIPE,
        )
        try:
            line = proc.stdout.readline()
            times.append(perf_counter() - start)
        finally:
            proc.stdout.close()
            proc.wait(timeout=CHILD_TIMEOUT_S)
        if line.strip() != b"ready" or proc.returncode != 0:
            raise RuntimeError("set-up probe failed")
        after = interpreter_s()
        scaled.append(times[-1] * 2 * REFERENCES[interpreter_s] / (ref + after))
        ref = after
    return statistics.median(scaled), statistics.median(times)


def interp_ms() -> float:
    return 1000 * statistics.median(
        interpreter_s() for _ in range(INTERP_PROBES))


def import_ms() -> float:
    return 1000 * statistics.median(
        float(child_seconds([sys.executable, "-c", IMPORT_PROBE],
                            env=program_env())[1])
        for _ in range(INTERP_PROBES)
    )


def tower_peak_mib(wl: Workload) -> float:
    """tracemalloc peak while parse_model builds a tower (the largest of the
    first inputs)."""
    import workloads
    from pklt_lab import modelio

    if wl.name == "cli":
        docs = [json.loads((ROOT / workloads.CLI_MODEL).read_text())]
    else:
        docs = [doc for doc, _ in itertools.islice(wl.inputs, 32)]
    peak = 0
    tracemalloc.start()
    try:
        for doc in docs:
            tracemalloc.reset_peak()
            modelio.parse_model(doc)
            peak = max(peak, tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    return peak / 2**20


# ---------------------------------------------------------------------------
# metrics


def tail_ms(latencies: list, percentile: int) -> float | None:
    """The percentile, if at least ten ops lie beyond it."""
    if len(latencies) * (100 - percentile) / 100 < 10:
        return None
    return 1000 * statistics.quantiles(latencies, n=100)[percentile - 1]


def end_to_end(wl: Workload, run: Run, setup: tuple[float, float]) -> dict:
    """Times at the nominal host speed; the raw ones are printed too."""
    lat = run.scaled()
    metrics = {
        "setup_s": (setup[0], "s"),
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "op_ms.p50": (1000 * statistics.median(lat), "ms"),
        "peak_rss_mib": (run.rss_kib / 1024, "MiB"),
    }
    percentile = TAIL_PERCENTILE[wl.name]
    tail = tail_ms(lat, percentile)
    refs = [r for _, r in run.refs]
    print(f"{len(lat)} ops in {run.busy:.3f} s; {run.reference.__name__} "
          f"took {1000 * min(refs):.2f}-{1000 * max(refs):.2f} ms "
          f"(nominal {1000 * REFERENCES[run.reference]:g} ms)")
    print(f"as measured: setup_s {setup[1]:.4f} s, "
          f"ops_per_s {len(lat) / run.busy:.4f} 1/s, "
          f"op_ms.p50 {1000 * statistics.median(run.latencies):.3f} ms")
    print(f"op_ms.tail (p{percentile}) = "
          + (f"{tail:.3f} ms" if tail is not None else
             f"undefined: fewer than ten of {len(lat)} ops beyond it"))
    print(f"fail_ratio = {run.failed}/{len(lat)} = {run.failed / len(lat):.6f}")
    return metrics


def layer_metrics(recorder, ops: int, prefix: str = "") -> dict:
    import spans

    totals = recorder.totals()
    metrics = {}
    for name in spans.FUNCTIONS:
        calls, own = totals[name]
        metrics[f"{prefix}{name}.calls"] = (calls, "count")
        metrics[f"{prefix}{name}.self_s"] = (own, "s")
    metrics[f"{prefix}trace.ops"] = (ops, "count")
    return metrics


def per_layer(wl: Workload, seconds: float, seed: int) -> tuple[list, dict]:
    """The traced run: calls and self time of every public function, the
    derived ratios and the tracing overhead.  cubic and chain run again at
    half their tower size, so growth per layer shows."""
    import spans

    recorder = spans.Recorder()
    run = run_ops(wl, seconds, recorder)
    ops = len(run.traced)
    metrics = layer_metrics(recorder, ops)
    calls = {name: c for name, (c, _) in recorder.totals().items()}
    decompose = calls["zariski.zariski_decompose"]
    untraced = run.latencies[1::2]
    metrics.update({
        "zariski.decompose_per_op": (decompose / ops, "count"),
        "zariski.solves_per_decompose": (
            calls["lattice.solve_exact"] / decompose if decompose else 0.0,
            "count"),
        "lattice.intersect_per_op": (calls["lattice.intersect"] / ops, "count"),
        "potential.classify_per_op": (
            calls["potential.classify_pair"] / ops, "count"),
        "trace.overhead_ratio": (
            statistics.fmean(run.traced) / statistics.fmean(untraced), "ratio"),
    })
    SPANS_DIR.mkdir(exist_ok=True)
    recorder.write(SPANS_DIR / f"spans-{wl.name}-{seed}.txt.gz")
    for name in spans.FUNCTIONS:
        own = metrics[f"{name}.self_s"][0]
        if own:
            print(f"{name}: {calls[name]} calls, {own:.4f} s self "
                  f"over {ops} traced ops")

    runs = [run]
    half = spans.Recorder()
    if wl.size is not None:
        runs.append(run_ops(make_workload(wl.name, seed, wl.size // 2),
                            seconds / 4, half))
    metrics.update(layer_metrics(half, len(runs[-1].traced) if wl.size else 0,
                                 "half."))
    metrics["surface.tower_peak_mib"] = (
        tower_peak_mib(make_workload(wl.name, seed, wl.size)), "MiB")
    metrics["cli.import_ms"] = (import_ms(), "ms")
    return runs, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", type=int, default=None,
                        help="tower size n of cubic and chain")
    parser.add_argument("--probe", action="store_true",
                        help="set up, print 'ready' and exit (set-up timing)")
    args = parser.parse_args(argv)
    load_program()
    sys.path.insert(0, str(HERE))
    os.chdir(ROOT)

    wl = make_workload(args.workload, args.seed, args.size)
    preload(wl)
    if args.probe:
        print("ready", flush=True)
        return 0

    if args.trace:
        runs, metrics = per_layer(wl, args.seconds, args.seed)
    else:
        setup_s = setup_seconds(args.workload, args.seed, args.size)
        runs = [run_ops(wl, args.seconds)]
        metrics = end_to_end(wl, runs[0], setup_s)
    if args.workload == "fuzz":
        print(defect_probe())
    for kind, problem in sorted(
            {k: v for r in runs for k, v in r.errors.items()}.items()):
        print(f"first {kind}: {problem}", file=sys.stderr)
    # recorded with every result, to tell host drift from program changes
    interp = interp_ms()
    print("env: " + json.dumps({"nproc": len(os.sched_getaffinity(0)),
                                "python": sys.version.split()[0],
                                "cli.interp_ms": interp}))
    if args.trace:
        metrics["cli.interp_ms"] = (interp, "ms")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not any(r.wrong for r in runs),
        "attempted": sum(len(r.latencies) for r in runs),
        "failed": sum(r.failed for r in runs),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
