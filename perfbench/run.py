#!/usr/bin/env python3
"""Repository benchmark: build the harness from source, run one workload,
print a human-readable report and, as the last line, the result JSON.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root (any directory works: paths resolve from this
file).  The harness and the library are built under .bench_build/perfbench
on first use and rebuilt whenever a source file changes.  Every run writes
its full record (host, SIMD path, compiler, commit, seed, and per metric the
sample count, median and quartiles) to .bench_build/perfbench/results/;
a traced run also writes Chrome trace-event JSON and a per-layer self-time
table to .bench_build/perfbench/traces/.  Exit code 0 when every correctness
gate passed, 1 when one failed or the run broke, 2 on a setup error.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
HARNESS = BUILD / "perfbench_harness"
DEADLINE_S = 175.0  # the whole run, build excluded


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def source_digest():
    """Digest of every file the harness is built from."""
    h = hashlib.sha256()
    for top in (ROOT / "src", HERE / "src", HERE / "CMakeLists.txt"):
        files = sorted(p for p in top.rglob("*") if p.is_file()) if top.is_dir() else [top]
        for p in files:
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def build(digest):
    stamp = BUILD / "source.digest"
    if HARNESS.exists() and stamp.exists() and stamp.read_text() == digest:
        return
    BUILD.mkdir(parents=True, exist_ok=True)
    log = BUILD / "build.log"
    jobs = str(len(os.sched_getaffinity(0)))
    with open(log, "w") as out:
        for cmd in (["cmake", "-S", str(HERE), "-B", str(BUILD)],
                    ["cmake", "--build", str(BUILD), "--target", "perfbench_harness",
                     "-j", jobs]):
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode:
                tail = log.read_text().splitlines()[-30:]
                fail("build failed:\n" + "\n".join(tail))
    stamp.write_text(digest)


def host_envelope():
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    try:
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        pass
    return {"cpu_model": model, "nproc": len(os.sched_getaffinity(0)),
            "machine": platform.machine(), "kernel": platform.release(),
            "commit": commit}


def fmt(v):
    if v is None:
        return "-"
    if isinstance(v, float) and (math.isnan(v) or math.isinf(v)):
        return "-"
    return f"{v:.6g}"


def report(rec, spec_names):
    print(f"perfbench {rec['workload']} seed={rec['seed']} trace={rec['trace']} "
          f"threads={rec['threads']} simd={rec['simd']} build={rec['build']}")
    print(f"{'metric':36} {'value':>12} {'unit':8} {'n':>6} {'q1':>12} {'median':>12} {'q3':>12}  stat")
    # Gated metrics first, then figures the harness measures but
    # BENCHMARK.json does not gate.
    extra = [n for n in rec["metrics"] if n not in spec_names]
    for name in spec_names + extra:
        m = rec["metrics"][name]
        stat = m["stat"] + ("" if name in spec_names else " (not gated)")
        print(f"{name:36} {fmt(m['value']):>12} {m['unit']:8} {m['n']:>6} {fmt(m['q1']):>12} "
              f"{fmt(m['median']):>12} {fmt(m['q3']):>12}  {stat}")
    if rec["report"]:
        print("reported figures:")
        for r in rec["report"]:
            print(f"  {r['name']:22} {fmt(r['value']):>12} {r['unit']:10} {r['stat']}")
    if rec["search"]:
        print("max_qps phases: " + ", ".join(
            f"{p['rate']:.0f}/s tail {fmt(p['tail_ms'])} ms" for p in rec["search"]))
    if rec["layer_detail"]:
        print("layer detail: " + ", ".join(f"{k}={fmt(v)}" for k, v in rec["layer_detail"].items()))
    if rec["layers"]:
        print(f"{'layer':10} {'spans':>8} {'total_ms':>12} {'self_ms':>12}")
        for layer, t in rec["layers"].items():
            print(f"{layer:10} {t['spans']:>8} {fmt(t['total_ms']):>12} {fmt(t['self_ms']):>12}")
    for c in rec["checks"]:
        print(f"check {c['name']}: {'ok' if c['ok'] else 'FAILED'} ({c['detail']})")
    print(f"attempted={rec['attempted']} failed={rec['failed']} correct={rec['correct']}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found under {ROOT / 'src'}", 2)
    try:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        settings = json.loads((HERE / "workloads.json").read_text())["serve"]
    except (OSError, ValueError, KeyError) as e:
        fail(f"cannot read benchmark settings: {e}", 2)
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        fail(f"unknown workload {args.workload!r}", 2)
    spec = bench["per_layer"] if args.trace else bench["end_to_end"]
    names = [m["name"] for m in spec]

    digest = source_digest()
    build(digest)
    traces = BUILD / "traces"
    results = BUILD / "results"
    traces.mkdir(parents=True, exist_ok=True)
    results.mkdir(parents=True, exist_ok=True)

    cmd = [str(HARNESS), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", str(traces),
           "--nominal-rps", str(settings["nominal_rps"]),
           "--high-rps", str(settings["high_rps"]),
           "--limit-ms", str(settings["latency_limit_ms"])]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=DEADLINE_S)
    except subprocess.TimeoutExpired:
        fail(f"harness exceeded {DEADLINE_S:.0f} s")
    if proc.returncode != 0 or not proc.stdout.strip():
        fail(f"harness exited with {proc.returncode}")
    rec = json.loads(proc.stdout.strip().splitlines()[-1])
    rec["wall_s"] = time.monotonic() - started
    rec["host"] = host_envelope()
    rec["source_digest"] = digest

    got = {n: m["unit"] for n, m in rec["metrics"].items()}
    want = {m["name"]: m["unit"] for m in spec}
    if not want.items() <= got.items():
        fail(f"metric set mismatch: harness {sorted(got.items())}, "
             f"BENCHMARK.json {sorted(want.items())}")
    for name in names:
        m = rec["metrics"][name]
        if not isinstance(m["value"], (int, float)) or isinstance(m["value"], bool):
            rec["checks"].append({"name": f"metric_{name}", "ok": False,
                                  "detail": "withheld or not a number"})
            rec["correct"] = False

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(rec, indent=1) + "\n")
    if args.trace:
        with open(traces / f"{args.workload}-seed{args.seed}.layers.tsv", "w") as out:
            out.write("layer\tspans\ttotal_ms\tself_ms\n")
            for layer, t in rec["layers"].items():
                out.write(f"{layer}\t{t['spans']}\t{t['total_ms']}\t{t['self_ms']}\n")

    report(rec, names)
    print(json.dumps({
        "correct": bool(rec["correct"]),
        "attempted": int(rec["attempted"]),
        "failed": int(rec["failed"]),
        "metrics": {n: {"value": rec["metrics"][n]["value"], "unit": rec["metrics"][n]["unit"]}
                    for n in names},
    }))
    sys.exit(0 if rec["correct"] else 1)


if __name__ == "__main__":
    main()
