#!/usr/bin/env python3
"""End-to-end K-FAC training benchmark.

    python3 kfacbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 kfacbench/run.py --workload all --seed <n> --seconds <s>
    python3 kfacbench/run.py --write-spec

Builds the `kfacbench` worker (kfacbench/src) against the repository's
crates, then runs repetitions of one workload, each in its own process under
a deadline, for about `--seconds` seconds. A repetition sets up a 2-rank
thread world and trains a fixed number of optimizer steps; a repetition that
panics, hangs past its deadline or fails a correctness check counts as
failed. The last stdout line is one JSON object:

    {"correct": ..., "attempted": <reps>, "failed": <reps>, "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones, from untraced
repetitions. With `--trace 1` they are the per-layer ones: repetitions
alternate untraced and traced, the traced ones give each layer's self time,
and the gap between the two kinds is the tracing overhead. Every repetition
row (knobs, factor dims, host steal, raw counters) is appended to
kfacbench/out/rows.jsonl; the last traced repetition's spans are written to
kfacbench/out/trace-<workload>.json (Chrome trace-event format).

`--workload all` interleaves repetitions of every workload (both kinds
alternating) for `--seconds` each and prints every metric of every workload.
`--write-spec` writes BENCHMARK.json from SPEC below.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

# Repetition lengths on a 2-core host, used to decide whether another
# repetition fits in the run; the measured median replaces them once known.
WORKLOADS = {
    "resnet-commopt": {
        "est_s": 9.0,
        "why": "ResNetMini w32, COMM-OPT, factors up to 576 wide, capture every step, "
        "inverse every 5: eigensolves, conv capture and eigenbasis broadcasts dominate",
    },
    "resnet-memopt": {
        "est_s": 9.0,
        "why": "resnet-commopt with grad_worker_frac 1/2 (MEM-OPT): eigenbases stay on "
        "their owner, preconditioned gradients are broadcast every step",
    },
    "bert-memopt": {
        "est_s": 8.0,
        "why": "BertMini d128, MEM-OPT, factors every 10, inverse every 100: transformer "
        "GEMMs, preconditioning and gradient broadcasts; bypasses eigensolve and capture",
    },
}
# Hard ceiling per repetition; a hung world is killed here.
REP_DEADLINE_S = 60.0
# A run stops retrying a workload after this many failed repetitions.
MAX_FAILED = 3
# Everything after the build must end within this many seconds.
RUN_BUDGET_S = 165.0

COMM_TAGS = ["factor_comm", "factor_reduce", "factor_gather", "eig_comm", "grad_comm", "ddp"]
MEM_CATS = ["factors", "eigens", "packed_staging", "precond_grads", "held_windows", "capture_scratch"]
STAGES = ["factor_compute", "factor_comm", "eig_compute", "eig_comm", "precondition", "grad_comm", "scale"]
SPAN_LAYERS = [
    ("data.batch_s", "data.batch"),
    ("nn.zero_grad_s", "nn.zero_grad"),
    ("nn.fwd_bwd_capture_s", "nn.fwd_bwd_capture"),
    ("nn.fwd_bwd_plain_s", "nn.fwd_bwd_plain"),
    ("trainer.ddp_s", "trainer.ddp"),
    ("core.prepare_s", "core.prepare"),
    ("core.step_inv_s", "core.step_inv"),
    ("core.step_factor_s", "core.step_factor"),
    ("core.step_plain_s", "core.step_plain"),
    ("optim.step_s", "optim.step"),
    ("bench.loop_self_s", "step"),
]


def _per_layer_spec():
    # Wall-clock throughput and step time: what a user waits for, but on a
    # shared host they move with hypervisor steal (a steal episode of ~35%
    # doubles them for minutes), so they are diagnostics here rather than
    # bounded end-to-end metrics; cpu_s_per_step and cpu_ms_p50 stand in.
    wall = [
        {"name": "samples_per_s", "unit": "samples/s", "better": "higher"},
        {"name": "step_ms_p50", "unit": "ms", "better": "lower"},
    ]
    m = [(name, "s/step") for name, _ in SPAN_LAYERS]
    m += [("core.stage.%s_s" % s, "s/step") for s in STAGES]
    m += [("linalg.eig_solves", "1/step"), ("linalg.eig_flops", "flop/step")]
    for tag in COMM_TAGS:
        m += [("comm.%s.bytes" % tag, "bytes/step"), ("comm.%s.calls" % tag, "calls/step")]
    m += [("comm.modeled_s", "s/step")]
    m += [("mem.%s_bytes" % c, "bytes") for c in MEM_CATS]
    m += [
        ("host.steal_frac", "fraction"),
        ("host.cpu_s", "s/step"),
        ("step.wall_s", "s/step"),
        ("trace.spans_per_step", "1/step"),
        ("trace.overhead_frac", "fraction"),
    ]
    return wall + [{"name": n, "unit": u, "better": "lower"} for n, u in m]


SPEC = {
    "command": ["python3", "kfacbench/run.py"],
    "paths": ["kfacbench"],
    "run_seconds": 40,
    "workloads": [{"name": n, "why": w["why"]} for n, w in WORKLOADS.items()],
    "end_to_end": [
        {"name": "cpu_s_per_step", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "cpu_ms_p50", "unit": "ms", "better": "lower", "bound": 0.25},
        {"name": "peak_mem_bytes", "unit": "bytes", "better": "lower", "bound": 0.05},
        {"name": "rss_peak_bytes", "unit": "bytes", "better": "lower", "bound": 0.1},
        {"name": "comm_bytes_per_step", "unit": "bytes", "better": "lower", "bound": 0.05},
        {"name": "comm_calls_per_step", "unit": "calls", "better": "lower", "bound": 0.05},
        {"name": "final_loss", "unit": "nats", "better": "lower", "bound": 0.2},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    ],
    "per_layer": _per_layer_spec(),
}


def build():
    """Build the worker; returns its path. Exits 2 (no result) on failure."""
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", os.path.join(HERE, "target")))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    try:
        proc = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=880)
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.exit("kfacbench: build failed: %s" % e)
    if proc.returncode != 0:
        sys.exit(proc.returncode or 2)
    return os.path.join(target, "release", "kfacbench")


def run_rep(exe, workload, seed, trace, deadline, inject=None):
    """One repetition in a child process. Returns (row, failure reason)."""
    cmd = [exe, "--workload", workload, "--seed", str(seed), "--trace", "1" if trace else "0"]
    if trace:
        cmd += ["--spans", os.path.join(OUT, "trace-%s.json" % workload)]
    if inject:
        cmd += ["--inject", inject]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=deadline)
    except subprocess.TimeoutExpired as e:
        # A panicking rank leaves its peers blocked in a collective, so a
        # panic usually surfaces as a timeout; name it when stderr has it.
        err = e.stderr.decode(errors="replace") if isinstance(e.stderr, bytes) else e.stderr or ""
        panic = [l for l in err.splitlines() if "panicked" in l]
        why = "timed out after %.0f s" % deadline + (" (%s)" % panic[0] if panic else "")
        return None, why, time.monotonic() - start
    elapsed = time.monotonic() - start
    if proc.returncode != 0:
        lines = proc.stderr.strip().splitlines()
        why = next((l for l in lines if "panicked" in l), lines[-1] if lines else "no stderr")
        return None, "exit %d: %s" % (proc.returncode, why), elapsed
    try:
        row = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return None, "no result line", elapsed
    if row["errors"]:
        return row, "; ".join(row["errors"]), elapsed
    return row, None, elapsed


class Runs:
    """Repetitions of one workload and their outcome counts."""

    def __init__(self, workload):
        self.workload = workload
        self.rows = []  # rows of repetitions that passed
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.durations = []

    def est_s(self):
        if self.durations:
            return statistics.median(self.durations)
        return WORKLOADS[self.workload]["est_s"]

    def add(self, row, failure, elapsed, trace):
        self.attempted += 1
        if failure is None:
            row["_traced"] = trace
            self.rows.append(row)
            self.durations.append(elapsed)
        else:
            self.failed += 1
            if row is not None:
                self.wrong += 1  # completed, but a correctness check failed
            print("kfacbench: %s repetition %d failed: %s"
                  % (self.workload, self.attempted, failure), file=sys.stderr)
        if row is not None:
            os.makedirs(OUT, exist_ok=True)
            with open(os.path.join(OUT, "rows.jsonl"), "a") as f:
                f.write(json.dumps(dict(row, failure=failure)) + "\n")

    def deterministic(self):
        """Same seed, same arithmetic: every repetition's loss and counters agree."""
        keys = ("final_loss", "first_loss", "peak_mem_bytes", "comm")
        return all(all(r[k] == self.rows[0][k] for k in keys) for r in self.rows)


def end_to_end(rows):
    """Step CPU times are best-of-repetitions (contention only ever adds to
    them); set-up CPU time is the median over every set-up pass of every
    repetition; counts, memory and loss repeat exactly across repetitions."""
    first = rows[0]
    steps = first["steps"]
    return {
        "cpu_s_per_step": min(r["cpu_s"] / r["steps"] for r in rows),
        "cpu_ms_p50": 1e3 * min(statistics.median(r["step_cpu_s"]) for r in rows),
        "peak_mem_bytes": first["peak_mem_bytes"],
        "rss_peak_bytes": statistics.median(r["rss_peak_bytes"] for r in rows),
        "comm_bytes_per_step": sum(c["bytes"] for c in first["comm"].values()) / steps,
        "comm_calls_per_step": sum(c["calls"] for c in first["comm"].values()) / steps,
        "final_loss": first["final_loss"],
        "setup_s": statistics.median(s for r in rows for s in r["setup_cpu_s"]),
    }


def per_layer(traced, plain):
    n = len(traced)
    mean = lambda f: sum(f(r) for r in traced) / n
    steps = traced[0]["steps"]
    m = {}
    if plain:
        # Wall-clock diagnostics from the untraced repetitions, best of them.
        m["samples_per_s"] = max(r["steps"] * r["global_batch"] / r["loop_s"] for r in plain)
        m["step_ms_p50"] = 1e3 * min(statistics.median(r["step_s"]) for r in plain)
    else:
        m["samples_per_s"] = m["step_ms_p50"] = float("nan")
    for name, span in SPAN_LAYERS:
        m[name] = mean(lambda r: r["self_s"][span])
    for s in STAGES:
        m["core.stage.%s_s" % s] = mean(lambda r: r["stage_s"][s])
    m["linalg.eig_solves"] = traced[0]["eig_solves"]
    m["linalg.eig_flops"] = traced[0]["eig_flops"]
    for tag in COMM_TAGS:
        m["comm.%s.bytes" % tag] = traced[0]["comm"][tag]["bytes"] / steps
        m["comm.%s.calls" % tag] = traced[0]["comm"][tag]["calls"] / steps
    m["comm.modeled_s"] = traced[0]["comm_modeled_s"] / steps
    for c in MEM_CATS:
        m["mem.%s_bytes" % c] = traced[0]["mem"][c]
    m["host.steal_frac"] = statistics.median(r["steal_frac"] for r in traced + plain)
    m["host.cpu_s"] = mean(lambda r: r["cpu_s"] / r["steps"])
    m["step.wall_s"] = mean(lambda r: r["loop_s"] / r["steps"])
    m["trace.spans_per_step"] = traced[0]["spans_per_step"]
    p50 = lambda rs: statistics.median(s for r in rs for s in r["step_s"])
    m["trace.overhead_frac"] = p50(traced) / p50(plain) - 1.0 if plain else float("nan")
    return m


def result(runs, trace):
    units = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    correct = runs.wrong == 0 and bool(runs.rows) and runs.deterministic()
    traced = [r for r in runs.rows if r["_traced"]]
    plain = [r for r in runs.rows if not r["_traced"]]
    metrics = {}
    if traced if trace else plain:
        values = per_layer(traced, plain) if trace else end_to_end(plain)
        if all(math.isfinite(values[k]) for k in units):
            metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    return {"correct": correct, "attempted": runs.attempted, "failed": runs.failed, "metrics": metrics}


def print_table(workload, res, rows):
    print("== %s: %d attempted, %d failed, correct=%s" % (workload, res["attempted"], res["failed"], res["correct"]))
    if rows:
        print("  knobs: %s" % json.dumps(rows[0]["knobs"]))
        print("  factor dims [a_dim, g_dim]: %s" % json.dumps(rows[0]["factor_dims"]))
    for name, m in res["metrics"].items():
        print("  %-28s %16.6g %s" % (name, m["value"], m["unit"]))


def parse_inject(text):
    if not text:
        return {}
    kind, _, rep = text.partition("@")
    if kind not in ("panic", "hang") or not rep.isdigit():
        sys.exit("kfacbench: --inject takes panic@<rep> or hang@<rep>")
    return {int(rep): kind}


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=list(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inject", help="make repetition <rep> (1-based) fail: panic@<rep> or hang@<rep>")
    ap.add_argument("--write-spec", action="store_true", help="write BENCHMARK.json and exit")
    args = ap.parse_args()

    if args.write_spec:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as f:
            json.dump(SPEC, f, indent=2)
            f.write("\n")
        return
    if not args.workload:
        ap.error("--workload is required")
    inject = parse_inject(args.inject)

    exe = build()
    os.makedirs(OUT, exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    runs = {n: Runs(n) for n in names}
    # In a traced run, repetitions alternate untraced and traced so the two
    # see the same host conditions; `all` always measures both kinds.
    alternate = args.trace == 1 or args.workload == "all"
    start = time.monotonic()
    budget = args.seconds * len(names)
    hard_stop = start + budget + RUN_BUDGET_S - args.seconds
    rep = 0
    launched = True
    while launched:
        # Interleave workloads rep by rep. Keep launching while the next
        # repetition fits the measuring time, or while a needed kind of
        # repetition has not succeeded yet (giving up after MAX_FAILED).
        launched = False
        for n in names:
            r = runs[n]
            now = time.monotonic()
            traced = sum(1 for row in r.rows if row["_traced"])
            plain = len(r.rows) - traced
            missing = plain == 0 or (alternate and traced == 0)
            fits = now - start + r.est_s() <= budget
            deadline = min(REP_DEADLINE_S, hard_stop - now)
            if not (fits or (missing and r.failed < MAX_FAILED)) or deadline <= 0:
                continue
            trace = alternate and traced < plain
            rep += 1
            r.add(*run_rep(exe, n, args.seed, trace, deadline, inject.get(rep)), trace)
            launched = True

    if args.workload == "all":
        report = {}
        for n in names:
            e2e = result(runs[n], trace=False)
            layers = result(runs[n], trace=True)
            print_table(n, e2e, runs[n].rows)
            print_table(n + " (per layer)", layers, [])
            report[n] = {"end_to_end": e2e, "per_layer": layers}
        with open(os.path.join(OUT, "report.json"), "w") as f:
            json.dump(report, f, indent=2)
        ok = all(v["end_to_end"]["metrics"] and v["per_layer"]["metrics"] for v in report.values())
        print(json.dumps(report))
        sys.exit(0 if ok else 1)

    res = result(runs[args.workload], trace=args.trace == 1)
    print_table(args.workload, res, runs[args.workload].rows)
    print(json.dumps(res))
    sys.exit(0 if res["metrics"] else 1)


if __name__ == "__main__":
    main()
