#!/usr/bin/env python3
"""One command for the end-to-end performance ledger.

``python benchmarks/e2e/run.py`` runs every workload (each in a fresh
interpreter), checks every output, and prints every end-to-end metric
by name with its unit; ``--trace`` adds the per-layer table and writes
one span file per workload under ``benchmarks/e2e/results/``.

``--workload NAME --seed N --seconds S --trace 0|1`` runs one workload
in this process and ends with one JSON line (the form the benchmark
driver calls).  See README.md beside this file for the glossary.
"""

from __future__ import annotations

import argparse
import atexit
import json
import signal
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
sys.path.insert(0, str(HERE))
if (REPO / "src" / "repro").is_dir():
    sys.path.insert(0, str(REPO / "src"))

import catalogue  # noqa: E402
import harness  # noqa: E402

EXPECTED_PATH = HERE / "expected.json"
#: Seeds whose outputs are committed in expected.json (default, hold-out).
EXPECTED_SEEDS = (0, 1)
#: A single workload may not outlive this (the driver allows 180 s).
WORKLOAD_TIMEOUT_S = 150


class WorkloadTimeout(Exception):
    pass


def _workload_class(name: str):
    # Imported here so `--write-spec` and `--help` work without `repro`.
    from workloads_analyze import AnalyzeRender
    from workloads_live import LiveRouter
    from workloads_serve import ServeCold, ServeWarm
    from workloads_sim import GridSmall, ScaleLarge

    classes = {c.name: c for c in (
        GridSmall, ScaleLarge, AnalyzeRender, ServeCold, ServeWarm, LiveRouter)}
    return classes[name]


def _load_expected(workload: str, seed: int, smoke: bool):
    if smoke or not EXPECTED_PATH.exists():
        return None
    return json.loads(EXPECTED_PATH.read_text()).get(workload, {}).get(str(seed))


# ----------------------------------------------------------------------
# one workload, in this process


_TIME_UNITS = ("s", "ms", "us")


def per_layer(m, tracer, workload) -> dict[str, float]:
    """Every per-layer metric; layers the workload never enters read 0.

    Like the end-to-end timings, what a pass measured (span totals and
    time-valued counters) is scaled by the pass's yardstick speed.
    """
    units = {metric.name: metric.unit for metric in catalogue.PER_LAYER}
    out = {name: 0.0 for name in units}

    def scaled(p, name, value):
        return value * m.scale(p) if units.get(name) in _TIME_UNITS else value

    # Seconds per span name, one dict per traced pass.
    totals = [
        {name: seconds * m.scale(p)
         for name, seconds in tracer.totals(k).items()}
        for k, p in enumerate(m.traced)
    ]
    for name in {name for t in totals for name in t}:
        if name + "_s" in out:
            out[name + "_s"] = statistics.median(
                t.get(name, 0.0) for t in totals)
    for source in (m.untraced, m.traced):
        for key in {key for p in source for key in p.counters}:
            if key in out:
                out[key] = statistics.median(
                    scaled(p, key, p.counters[key])
                    for p in source if key in p.counters)
    out.update(workload.layer_metrics(m.traced, m.untraced, totals))
    traced, untraced = (
        statistics.median(p.wall_s * m.scale(p) for p in passes)
        for passes in (m.traced, m.untraced))
    out["trace.overhead_ratio"] = traced / untraced
    out["trace.coverage"] = statistics.median(
        tracer.coverage(k) for k in range(len(m.traced)))
    return out


def run_workload(args) -> int:
    declared = {w.name: w for w in catalogue.WORKLOADS}[args.workload]
    workload_class = _workload_class(args.workload)  # needs `repro`
    sandbox = harness.Sandbox()
    atexit.register(sandbox.close)

    def on_alarm(signum, frame):
        raise WorkloadTimeout(
            f"{args.workload} exceeded {WORKLOAD_TIMEOUT_S}s")

    def on_term(signum, frame):
        raise SystemExit(143)

    signal.signal(signal.SIGALRM, on_alarm)
    signal.signal(signal.SIGTERM, on_term)
    signal.alarm(WORKLOAD_TIMEOUT_S)

    expected = None if args.write_expected else _load_expected(
        args.workload, args.seed, args.smoke)
    workload = workload_class(
        seed=args.seed, smoke=args.smoke, sandbox=sandbox, expected=expected)
    crash = None
    m, tracer = None, None
    try:
        m, tracer = harness.measure(
            workload, seconds=args.seconds, repeats=args.repeats,
            trace=bool(args.trace))
    except Exception:  # WorkloadTimeout too: a hang is a failure
        crash = traceback.format_exc()
    finally:
        signal.alarm(0)
        try:
            workload.teardown()
        except Exception:  # the sandbox kills whatever is left
            pass
        if args.write_expected and crash is None:
            _merge_expected(args.workload, args.seed, workload.observed())
        sandbox.close()

    if crash is not None:
        # A raise or a hang is a failed operation, not a stuck run.
        print(crash, file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1

    def walls(passes):
        return [p.wall_s * m.scale(p) for p in passes]

    e2e = harness.end_to_end(m)
    speed_index = statistics.median(p.speed for p in m.untraced)
    spreads = {"wall_s_iqr": harness.iqr(walls(m.untraced)),
               "wall_s_passes": [round(w, 4) for w in walls(m.untraced)]}
    if args.trace:
        values = per_layer(m, tracer, workload)
        units = {x.name: x.unit for x in catalogue.PER_LAYER}
        harness.RESULTS_DIR.mkdir(exist_ok=True)
        trace_path = harness.RESULTS_DIR / f"trace_{args.workload}.json"
        trace_path.write_text(json.dumps(tracer.dump(args.workload)))
        print(f"trace: {len(tracer.spans)} spans -> {trace_path}")
        spreads["traced_wall_s_passes"] = [round(w, 4) for w in walls(m.traced)]
    else:
        values = e2e
        units = {x.name: x.unit for x in catalogue.END_TO_END}

    failed = min(len(m.failures), m.attempted)
    print(f"workload {args.workload}: seed {args.seed}, "
          f"{len(m.untraced)} timed passes"
          + (f" + {len(m.traced)} traced" if args.trace else "")
          + f", operation = {declared.op}, unit = {declared.unit}")
    if expected is None and workload.has_expectation:
        print(f"  note: no committed expectation for seed {args.seed}"
              + (" at --smoke sizes" if args.smoke else "")
              + "; value comparison against expected.json skipped "
              "(differential and invariant checks still ran)")
    print(f"  yardstick: machine at {speed_index:.3f} x nominal speed; timings "
          + ("are scaled to nominal" if m.normalise else
             "are NOT scaled (the pass is not CPU work of this process)"))
    for failure in m.failures[:20]:
        print(f"  FAILED: {failure}")
    for name, value in values.items():
        if value or not args.trace:
            print(f"  {name:<28} {value:>14.6g} {units[name]}")
    print("detail: " + json.dumps({
        "passes": len(m.untraced), "spreads": spreads,
        "failed_share": failed / m.attempted,
        # Also in a traced run, from its untraced passes (the smoke test
        # reads both metric sets from one interpreter start).
        "end_to_end": e2e,
        # The same readings without the yardstick, and the yardstick's.
        "raw": harness.end_to_end(m, scale=lambda p: 1.0),
        "speed_index": speed_index,
    }))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": m.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0 if failed == 0 else 1


def _merge_expected(workload: str, seed: int, observed) -> None:
    payload = json.loads(EXPECTED_PATH.read_text()) if EXPECTED_PATH.exists() else {}
    if observed is not None:
        payload.setdefault(workload, {})[str(seed)] = observed
    EXPECTED_PATH.write_text(
        json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")


# ----------------------------------------------------------------------
# every workload, each in a fresh interpreter


def _spawn(workload: str, args, *, seed: int, trace: int) -> dict:
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(args.seconds),
        "--repeats", str(args.repeats), "--trace", str(trace),
    ]
    if args.smoke:
        command.append("--smoke")
    if args.write_expected:
        command.append("--write-expected")
    try:
        # stderr (tracebacks, daemon complaints) goes straight through.
        done = subprocess.run(
            command, stdout=subprocess.PIPE, text=True,
            timeout=WORKLOAD_TIMEOUT_S + 20)
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        detail = next(
            (json.loads(line[len("detail: "):]) for line in lines
             if line.startswith("detail: ")), {})
        log = [line for line in lines[:-1] if not line.startswith("detail: ")]
    except (subprocess.TimeoutExpired, IndexError, ValueError) as exc:
        # The child hung past its own alarm or died without a result.
        result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        detail, log = {}, [f"  FAILED: {workload}: {exc!r}"]
    if not result["correct"]:
        print("\n".join(log))
    return {"result": result, "detail": detail}


def _table(title: str, metrics, rows: dict[str, dict]) -> None:
    """``rows``: workload -> metric name -> value."""
    names = [w.name for w in catalogue.WORKLOADS if w.name in rows]
    print(f"\n{title}")
    print(f"  {'metric':<28} {'unit':<6}" + "".join(f"{n:>16}" for n in names))
    for metric in metrics:
        cells = [rows[n].get(metric.name) for n in names]
        if not any(cells):
            continue
        print(f"  {metric.name:<28} {metric.unit:<6}" + "".join(
            f"{'-':>16}" if c is None else f"{c:>16.6g}" for c in cells))


def run_all(args, *, seed: int, quiet: bool = False) -> tuple[dict, bool]:
    """One set: every selected workload once.  Returns the end-to-end
    values per workload and whether every operation succeeded."""
    e2e, layers, extra, ok = {}, {}, {}, True
    for w in catalogue.WORKLOADS:
        run = _spawn(w.name, args, seed=seed, trace=0)
        result = run["result"]
        ok &= result["correct"]
        e2e[w.name] = {k: v["value"] for k, v in result["metrics"].items()}
        spreads = run["detail"].get("spreads", {})
        extra[w.name] = (
            result["failed"] / max(result["attempted"], 1),
            spreads.get("wall_s_iqr", 0.0), run["detail"].get("speed_index", 0.0))
        if args.trace:
            traced = _spawn(w.name, args, seed=seed, trace=1)["result"]
            ok &= traced["correct"]
            layers[w.name] = {
                k: v["value"] for k, v in traced["metrics"].items()}
    if not quiet:
        _table(f"end-to-end metrics (seed {seed}; medians over the timed "
               "passes)", catalogue.END_TO_END, e2e)
        for k, (label, unit) in enumerate((
                ("failed_share", "share"), ("wall_s, IQR of passes", "s"),
                ("yardstick speed index", "ratio"))):
            print(f"  {label:<28} {unit:<6}"
                  + "".join(f"{extra[n][k]:>16.6g}" for n in e2e))
        if args.trace:
            _table("per-layer metrics (traced passes; 0 = the workload never enters that layer)",
                   catalogue.PER_LAYER, layers)
            print("\n  trace_overhead (traced wall / untraced wall): "
                  + ", ".join(
                      f"{n} {layers[n].get('trace.overhead_ratio', 0):.3f}"
                      for n in layers))
    return e2e, ok


def check_noise(args) -> int:
    """Two full sets back to back; per (metric, workload): the spread of
    each set's runs and whether the two medians agree within the bound."""
    seeds = range(args.seed, args.seed + args.runs)
    sets = []
    ok = True
    for label in ("first", "second"):
        runs = []
        for seed in seeds:
            e2e, fine = run_all(args, seed=seed, quiet=True)
            ok &= fine
            runs.append(e2e)
            print(f"{label} set: seed {seed} done", flush=True)
        sets.append(runs)
    print(f"\nnoise check: 2 sets x {args.runs} runs (seeds "
          f"{seeds[0]}..{seeds[-1]}), failed_share "
          f"{'0 in both' if ok else 'NONZERO'}")
    print(f"  {'workload':<15} {'metric':<16} {'bound':>6} {'median 1':>12} "
          f"{'median 2':>12} {'worse by':>9} {'spread 1':>9} {'spread 2':>9}  verdict")
    agree = ok
    for w in sets[0][0]:
        for metric in catalogue.END_TO_END:
            columns = [[run[w].get(metric.name) for run in runs] for runs in sets]
            if None in columns[0] + columns[1]:  # a run died without a result
                print(f"  {w:<15} {metric.name:<16} no result")
                continue
            medians = [statistics.median(c) for c in columns]
            spreads = [harness.iqr(c) / m for c, m in zip(columns, medians)]
            sign = 1.0 if metric.better == "lower" else -1.0
            worse = sign * (medians[1] - medians[0]) / medians[0]
            fine = worse <= metric.bound and (
                metric.name == "setup_s"
                or args.runs < 4 or max(spreads) <= metric.bound)
            agree &= fine
            print(f"  {w:<15} {metric.name:<16} {metric.bound:>6.2f} "
                  f"{medians[0]:>12.5g} {medians[1]:>12.5g} {worse:>+9.3f} "
                  f"{spreads[0]:>9.3f} {spreads[1]:>9.3f}  "
                  f"{'ok' if fine else 'DISAGREE'}")
    return 0 if agree else 1


# ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="benchmarks/e2e/run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[w.name for w in catalogue.WORKLOADS],
                        help="run this one workload in-process and end with "
                             "the JSON result line (default: run them all)")
    parser.add_argument("--seed", type=int, default=0,
                        help="inputs are a function of the seed; 0 and 1 "
                             "also have committed expected values")
    parser.add_argument("--seconds", type=float, default=catalogue.RUN_SECONDS,
                        help="measure timed passes for this long")
    parser.add_argument("--repeats", type=int, default=3,
                        help="at least this many timed passes")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        help="per-layer metrics from traced passes + span file")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, no expectation check (CI smoke)")
    parser.add_argument("--check-noise", action="store_true",
                        help="two sets of --runs runs; do medians agree?")
    parser.add_argument("--runs", type=int, default=3,
                        help="runs (consecutive seeds) per --check-noise set")
    parser.add_argument("--write-expected", action="store_true",
                        help="(maintenance) record this seed's outputs")
    parser.add_argument("--write-spec", action="store_true",
                        help="(maintenance) regenerate BENCHMARK.json")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.smoke:
        args.seconds, args.repeats = 0.0, 1
    if args.write_spec:
        (REPO / "BENCHMARK.json").write_text(
            json.dumps(catalogue.benchmark_spec(), indent=2) + "\n")
        return 0
    if not (REPO / "src" / "repro").is_dir():
        print("error: src/repro not found beside benchmarks/; the benchmark "
              "measures the repository it sits in", file=sys.stderr)
        return 2
    if args.workload:
        return run_workload(args)
    if args.check_noise:
        return check_noise(args)
    if args.write_expected:
        ok = all(run_all(args, seed=seed)[1] for seed in EXPECTED_SEEDS)
    else:
        _, ok = run_all(args, seed=args.seed)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
