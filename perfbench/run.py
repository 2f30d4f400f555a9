#!/usr/bin/env python3
"""Host-time benchmark of the FLASH simulator.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Builds `perfbench-sim` (the Rust package next to this file) in release
mode, then runs one workload iteration per child process until
`--seconds` have passed: one child at a time for `paper_matrix`, which
runs a worker per core itself, and one child pinned to each CPU at once
for the single-threaded workloads. Every iteration's simulated outcome
is checked against the pins in `pins.json`, against the workload's
invariants and against the run's first iteration; an iteration that
fails any check, or that crashes, wedges or times out, counts as failed.

With `--trace 0` the metrics are the end-to-end metrics of
BENCHMARK.json, each the run's best iteration. With `--trace 1` every
iteration arms the simulator's host profiler and runs the twin and
micro rungs, and the metrics are the per-layer metrics, each the median
over the run's iterations. The last line of stdout is one JSON object
with the keys `correct`, `attempted`, `failed` and `metrics`; the lines
above it give the host fingerprint and a readable summary.
See README.md in this directory for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper_matrix", "mp3d_flash", "stress_checked", "openloop_zipf")
GOLDEN = ROOT / "tests" / "golden" / "repro_all.txt"
# One child may not outlive the 180 s a run is allowed.
RUN_LIMIT_S = 170
BUILD_TIMEOUT_S = 880


class BenchError(Exception):
    """The benchmark cannot run here (no sources, build failure, bad spec)."""


def clean_env():
    """The environment without any FLASH_* variable: the simulator's
    crates read several (PP backend, shards, trace address), so a leftover
    one would silently change what is measured."""
    return {k: v for k, v in os.environ.items() if not k.startswith("FLASH_")}


def target_dir():
    t = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return t if t.is_absolute() else ROOT / t


def build():
    """Builds the benchmark binary and returns its path."""
    if not (ROOT / "crates").is_dir():
        raise BenchError(f"no simulator sources under {ROOT}")
    env = clean_env()
    env["CARGO_TARGET_DIR"] = str(target_dir())
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    try:
        p = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        raise BenchError(f"build failed: {e}") from e
    if p.returncode != 0:
        sys.stderr.write(p.stdout.decode(errors="replace"))
        raise BenchError("build failed")
    binary = target_dir() / "release" / "perfbench-sim"
    if not binary.is_file():
        raise BenchError(f"build produced no {binary}")
    return binary


def metric_specs():
    """`(end_to_end, per_layer)` maps of name -> (unit, better) from
    BENCHMARK.json."""
    path = ROOT / "BENCHMARK.json"
    try:
        spec = json.loads(path.read_text())
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read {path}: {e}") from e
    specs = lambda key: {m["name"]: (m["unit"], m["better"]) for m in spec[key]}
    return specs("end_to_end"), specs("per_layer")


def load_pins():
    return json.loads((HERE / "pins.json").read_text())


def split_last_line(text):
    """Everything but the last line, and the last line."""
    body, _, last = text.rstrip("\n").rpartition("\n")
    return (body + "\n" if body else ""), last


def run_child(binary, workload, seed, trace, timeout):
    """Runs one iteration. Returns `(sample, transcript, error)`."""
    cmd = [str(binary), workload, "--seed", str(seed)] + (["--trace"] if trace else [])
    try:
        p = subprocess.run(cmd, cwd=ROOT, env=clean_env(), stdout=subprocess.PIPE,
                           stderr=subprocess.PIPE, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, "", f"timed out after {timeout:.0f} s"
    except OSError as e:
        return None, "", f"cannot run: {e}"
    if p.returncode != 0:
        tail = p.stderr.decode(errors="replace").strip().splitlines()[-3:]
        return None, "", f"exit {p.returncode}: {' | '.join(tail)}"
    transcript, last = split_last_line(p.stdout.decode(errors="replace"))
    try:
        return json.loads(last), transcript, None
    except ValueError:
        return None, "", f"no result line: {last[:200]!r}"


def pin_for(pins, workload, seed):
    """The pinned outcome for this workload and seed, if one is recorded."""
    table = pins.get(workload, {})
    return table.get("any") or table.get(str(seed))


def check_sample(workload, seed, sample, transcript, pins, first_outcome):
    """Problems with one iteration's result (empty when it is correct)."""
    problems = []
    out = sample.get("outcome", {})
    if sample.get("workload") != workload or sample.get("seed") != seed:
        problems.append("result is for another workload or seed")
    if sample.get("refs", 0) < 1 or sample.get("run_s", 0) <= 0:
        problems.append("no simulated references or no run time")
    if workload == "paper_matrix":
        golden = GOLDEN.read_text() if GOLDEN.is_file() else None
        if transcript != golden:
            problems.append(f"stdout differs from {GOLDEN.relative_to(ROOT)}")
        out = dict(out, stdout_sha256=hashlib.sha256(transcript.encode()).hexdigest())
    if workload == "stress_checked":
        if out.get("violations") != 0:
            problems.append(f"{out.get('violations')} checker/oracle violations")
        if not out.get("oracle_checks"):
            problems.append("the oracle checked nothing")
    if workload == "openloop_zipf":
        if not out.get("arrivals") == out.get("admitted") == out.get("references"):
            problems.append("arrivals, admissions and references disagree")
    pin = pin_for(pins, workload, seed)
    for key, want in (pin or {}).items():
        if out.get(key) != want:
            problems.append(f"{key} = {out.get(key)!r}, pinned {want!r}")
    if first_outcome is not None and out != first_outcome:
        problems.append("outcome differs from the run's first iteration")
    return problems, out


def host_fingerprint():
    def cmd_out(cmd):
        try:
            p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                               stderr=subprocess.DEVNULL, timeout=30)
            return p.stdout.decode().strip() if p.returncode == 0 else "unknown"
        except (OSError, subprocess.TimeoutExpired):
            return "unknown"
    digest = hashlib.sha256()
    for path in sorted((ROOT / "crates").rglob("*")):
        if path.is_file() and path.suffix in (".rs", ".s", ".toml"):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return {
        "cores": os.cpu_count(),
        "commit": cmd_out(["git", "rev-parse", "HEAD"]),
        "source_sha256": digest.hexdigest()[:16],
        "profile": "release",
        "rustc": cmd_out(["rustc", "--version"]),
    }


def end_to_end(sample):
    return {
        "wall_s": sample["wall_s"],
        "refs_per_s": sample["refs"] / sample["run_s"],
        "setup_s": sample["setup_s"],
        "peak_rss_mb": sample["peak_rss_kib"] / 1024,
    }


def lanes(workload):
    """The CPUs to run iterations on at once, one child pinned to each, or
    `[None]`: one unpinned child at a time. `paper_matrix` runs a worker
    per core itself; the other workloads are single-threaded, and other
    tenants of a shared host slow one CPU at a time, so a child on each
    CPU measures twice as often and on both."""
    if workload == "paper_matrix":
        return [None]
    return sorted(os.sched_getaffinity(0))


def measure(binary, workload, seed, seconds, trace, pins, layer_specs, started):
    """Repeats the workload on every lane while another iteration of the
    lane's mean length still fits in `seconds` (at least once per lane).
    Returns `(attempted, failed, per-iteration metric dicts, problems)`.
    The metric dicts are those of the passing iterations, or of every
    iteration that produced a result when none passed."""
    results, lock = [], threading.Lock()
    t0 = time.monotonic()

    def lane(cpu):
        if cpu is not None:
            # Pins this thread; the children it starts inherit the mask.
            os.sched_setaffinity(0, {cpu})
        n = 0
        while True:
            left = RUN_LIMIT_S - (time.monotonic() - started)
            result = run_child(binary, workload, seed, trace, max(left, 1))
            with lock:
                results.append(result)
            n += 1
            now = time.monotonic()
            mean = (now - t0) / n
            if now - t0 + mean > seconds or now - started + mean > RUN_LIMIT_S:
                return

    threads = [threading.Thread(target=lane, args=(cpu,)) for cpu in lanes(workload)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    attempted, failed, passed, parsed, problems = 0, 0, [], [], []
    first_outcome = None
    for sample, transcript, err in results:
        attempted += 1
        if err is None:
            unknown = set(sample["layers"]) - set(layer_specs)
            if unknown:
                raise BenchError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
            bad, out = check_sample(workload, seed, sample, transcript, pins, first_outcome)
            first_outcome = first_outcome or out
            parsed.append(sample["layers"] if trace else end_to_end(sample))
        else:
            bad = [err]
        if bad:
            failed += 1
            problems.append(f"iteration {attempted}: " + "; ".join(bad))
        else:
            passed.append(parsed[-1])
    return attempted, failed, passed or parsed, problems


def best(values, better):
    """The run's best iteration on the metric's better side. Interference
    from other work on a shared host only ever slows an iteration, and it
    comes in phases of tens of seconds to minutes, so a run's median lands
    in whichever phase dominated the run; its best iteration tracks the
    undisturbed cost."""
    return min(values) if better == "lower" else max(values)


def summarize(workload, seed, trace, specs, attempted, failed, rows, problems):
    """Every metric over the run's iterations, plus readable lines on
    stdout: end-to-end metrics take the run's best iteration, per-layer
    metrics the median."""
    metrics = {}
    print(f"perfbench {workload} seed={seed} trace={int(trace)}: "
          f"fail_rate {failed}/{attempted} = {failed / attempted:.3f}")
    for p in problems:
        print(f"  FAILED {p}")
    for name, (unit, better) in specs.items():
        values = sorted(r.get(name, 0.0) for r in rows)
        median = statistics.median(values)
        value = median if trace else best(values, better)
        metrics[name] = {"value": value, "unit": unit}
        print(f"  {name:<28} {value:>14.6g} {unit:<6} (median {median:.6g} of "
              f"{len(values)}, range {values[0]:.6g} .. {values[-1]:.6g})")
    return metrics


def self_test():
    """Shows that the real pins pass, and that a wrong pin, a violation, a
    nondeterministic outcome and a wrong transcript each fail."""
    pins = load_pins()
    binary = build()
    seed = 1
    sample, transcript, err = run_child(binary, "stress_checked", seed, False, RUN_LIMIT_S)
    assert err is None, err
    ok, _ = check_sample("stress_checked", seed, sample, transcript, pins, None)
    assert ok == [], f"real pins must pass: {ok}"
    wrong = json.loads(json.dumps(pins))
    wrong["stress_checked"][str(seed)]["exec_cycles"] += 1
    bad, _ = check_sample("stress_checked", seed, sample, transcript, wrong, None)
    assert any("exec_cycles" in b for b in bad), "a wrong pin must be reported"
    violated = json.loads(json.dumps(sample))
    violated["outcome"]["violations"] = 1
    bad, _ = check_sample("stress_checked", seed, violated, transcript, pins, None)
    assert bad, "a violation must be reported"
    other = dict(sample["outcome"], exec_cycles=0)
    bad, _ = check_sample("stress_checked", seed, sample, transcript, pins, other)
    assert bad, "a nondeterministic outcome must be reported"
    matrix = {"workload": "paper_matrix", "seed": seed, "refs": 1, "run_s": 1.0,
              "outcome": pins["paper_matrix"]["any"]}
    bad, _ = check_sample("paper_matrix", seed, matrix, "not the transcript\n", pins, None)
    assert any("stdout" in b for b in bad), "a wrong transcript must be reported"
    print("perfbench self-test: ok")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    started = time.monotonic()
    try:
        if args.self_test:
            self_test()
            return 0
        if args.workload is None:
            ap.error("--workload is required")
        e2e_specs, layer_specs = metric_specs()
        pins = load_pins()
        binary = build()
        print("perfbench host " + json.dumps(host_fingerprint(), sort_keys=True))
        trace = bool(args.trace)
        attempted, failed, rows, problems = measure(
            binary, args.workload, args.seed, args.seconds, trace, pins, layer_specs, started)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    if not rows:
        for p in problems:
            print(f"perfbench: {p}", file=sys.stderr)
        print("perfbench: no iteration produced a result", file=sys.stderr)
        return 1
    specs = layer_specs if trace else e2e_specs
    metrics = summarize(args.workload, args.seed, trace, specs, attempted, failed, rows, problems)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
