#!/usr/bin/env python3
"""hsbench: build, run one workload, gate its outputs, print metrics.

    python3 hsbench/run.py --workload paper_ladder --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout; the checkout root is this file's
parent directory. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics: with --trace 0 the end-to-end
metrics of BENCHMARK.json, with --trace 1 the per-layer ones. The full
record (host, samples, quartiles, gate failures) is printed on the line
before it and written to .bench_out/<workload>-seed<n>-trace<t>/result.json.

Other modes:
    --self-test          perturb every reference and show each gate trips
    --record-reference   re-record hsbench/reference.json from traced runs

See hsbench/README.md for what each workload and metric is for.
"""

import argparse
import glob
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDEN = os.path.join(ROOT, "tests", "golden")
REFERENCE = os.path.join(HERE, "reference.json")

WORKLOADS = ("paper_ladder", "large_p", "analyze_ladder")
# Golden CSVs each workload's artifacts must match byte for byte.
GOLDEN_CSVS = {
    "paper_ladder": ("table4_ge_scalability", "table5_mm_scalability"),
    "large_p": ("large_p_scalability",),
    "analyze_ladder": (),
}
# analyze_ladder reproduces the first four rows (2-16 nodes) of table3.
LADDER_ROWS = 4
SETUP_LAUNCHES = 21       # extra set-up-only launches per timed run
SAMPLE_TIMEOUT_S = 170.0  # one child process, timed or traced
RUN_BUDGET_S = 150.0      # stop starting timed samples past this


def fail(message, code=2):
    print(f"hsbench: {message}", file=sys.stderr)
    sys.exit(code)


# ---------------------------------------------------------------- gates ---
# Each gate appends one line per failed check to `failures`.

def gate_golden(failures, name, actual, golden):
    if actual != golden:
        failures.append(f"{name}: rendered CSV differs from tests/golden")


def gate_ladder(failures, ladder_csv, table3_csv):
    """N and E_s of the analyze ladder against table3's 2-16-node rows."""
    got = [line.rsplit(",", 2) for line in ladder_csv.splitlines()[1:]]
    want = [line.rsplit(",", 3) for line in table3_csv.splitlines()[1:]]
    if len(got) != LADDER_ROWS or len(want) < LADDER_ROWS:
        failures.append("ladder: wrong number of rungs")
        return
    for row, ref in zip(got, want[:LADDER_ROWS]):
        # table3: system,n,work_mflop,marked_speed_mflops,achieved_es
        ref_n = ref[0].rsplit(",", 1)[1]
        if row[1] != ref_n or row[2] != ref[3]:
            failures.append(f"ladder: {row[0]} gives N={row[1]} E_s={row[2]}, "
                            f"table3 has N={ref_n} E_s={ref[3]}")


def _reject_constant(token):
    raise ValueError(f"non-finite number {token}")


def gate_analysis(failures, text, label="analysis"):
    """The CI analyze invariants, on hetscale.obs.analysis/v1 JSON."""
    try:
        doc = json.loads(text, parse_constant=_reject_constant)
    except ValueError as error:
        failures.append(f"{label}: not finite JSON ({error})")
        return
    if doc.get("schema") != "hetscale.obs.analysis/v1" or doc.get("runs", 0) <= 0:
        failures.append(f"{label}: wrong schema or no runs")
        return
    path = doc["critical_path"]
    if min(path["compute_s"], path["comm_s"], path["wait_s"], path["fault_s"]) < 0:
        failures.append(f"{label}: negative critical-path segment")
    elapsed = doc["elapsed_virtual_s"]
    if abs(path["total_s"] - elapsed) >= 1e-6 * (1 + elapsed):
        failures.append(f"{label}: critical path does not telescope to elapsed")
    queue = doc["des_queue"]
    if queue["pushes"] != queue["pops"]:
        failures.append(f"{label}: queue pushes != pops")


def gate_cold_store(failures, first, sample):
    """A warm store would time lookups instead of simulations."""
    for key in ("store_misses", "store_hits"):
        if sample[key] != first[key]:
            failures.append(f"cold store: {key} {sample[key]} != first run's "
                            f"{first[key]}")


REPLAY_FIELDS = ("elapsed", "messages", "bytes", "wire", "contention")
# What must not depend on the sim-thread count. The on-wire totals are
# folded per partition, so they are compared only at equal thread counts.
THREAD_INVARIANT = ("elapsed", "messages", "bytes")


def replay_key(replay):
    return f"{replay['label']} {replay['n']} t{replay['sim_threads']}"


def gate_replays(failures, replays, reference, stored=True):
    """Bit-equal simulated statistics; returns how many had no reference."""
    unreferenced = 0
    for r in replays:
        key = replay_key(r)
        if stored and r["stored"] != r["elapsed"]:
            failures.append(f"replay {key}: elapsed {r['elapsed']} != stored "
                            f"{r['stored']}")
        ref = reference.get(key)
        if ref is None:
            unreferenced += 1
            continue
        for field in REPLAY_FIELDS:
            if ref[field] != r[field]:
                failures.append(f"replay {key}: {field} {r[field]} != "
                                f"reference {ref[field]}")
    return unreferenced


def gate_trace(failures, trace, reference):
    """Replay fidelity and pass agreement of one traced run."""
    if trace["unknown_keys"]:
        failures.append(f"store keys of no known config: {trace['unknown_keys']}")
    if trace["scenario_probes"] != trace["solve_probes"]:
        failures.append("the traced solve pass probed differently from the scenario")
    unreferenced = gate_replays(failures, trace["replays"], reference)
    unreferenced += gate_replays(failures, trace["engine"], reference, stored=False)
    one, many = trace["engine"]
    if any(one[f] != many[f] for f in THREAD_INVARIANT):
        failures.append("4096-rank GE differs between sim-thread counts")
    return unreferenced


def gate_observer(failures, plain, seen, reference):
    """The observer changes nothing simulated, and its own on-wire view (the
    net layer's wire and contention totals) is the machine's, bit for bit."""
    if plain["unknown_keys"] or seen["unknown_keys"]:
        failures.append("observer probe: store keys of no known config")
    unreferenced = 0
    for replays in (plain["replays"], seen["replays"]):
        unreferenced += gate_replays(failures, replays, reference, stored=False)
    if len(plain["replays"]) != len(seen["replays"]) or \
            len(seen["profiles"]) != len(seen["replays"]) or plain["profiles"]:
        failures.append("observer probe: runs and profiles do not pair up")
        return unreferenced
    for a, b, profile in zip(plain["replays"], seen["replays"], seen["profiles"]):
        if any(a[f] != b[f] or a[f] != profile[f] for f in REPLAY_FIELDS):
            failures.append(f"observer changed or misreports {replay_key(a)}")
    return unreferenced


def self_test():
    """Every gate passes on the references and trips on a perturbed copy."""
    problems = []

    def expect(trips, check, *args):
        failures = []
        check(failures, *args)
        if bool(failures) != trips:
            problems.append(f"{check.__name__} {'passed' if trips else 'failed'} "
                            f"on {'perturbed' if trips else 'intact'} input")

    golden = read(os.path.join(GOLDEN, "table4_ge_scalability.csv"))
    expect(False, gate_golden, "t4", golden, golden)
    expect(True, gate_golden, "t4", golden.replace("0.", "0,", 1), golden)

    table3 = read(os.path.join(GOLDEN, "table3_ge_required_rank.csv"))
    rows = ["system,n,achieved_es"]
    for line in table3.splitlines()[1:LADDER_ROWS + 1]:
        system, n, _, _, es = line.rsplit(",", 4)
        rows.append(f"{system},{n},{es}")
    ladder = "\n".join(rows) + "\n"
    expect(False, gate_ladder, ladder, table3)
    expect(True, gate_ladder, ladder.replace(",225,", ",226,"), table3)
    expect(True, gate_ladder, ladder, table3.replace("0.302", "0.303"))

    analysis = {"schema": "hetscale.obs.analysis/v1", "runs": 2,
                "elapsed_virtual_s": 3.0,
                "critical_path": {"compute_s": 1.0, "comm_s": 2.0, "wait_s": 0,
                                  "fault_s": 0, "total_s": 3.0},
                "des_queue": {"pushes": 7, "pops": 7}}
    expect(False, gate_analysis, json.dumps(analysis))
    expect(True, gate_analysis, json.dumps(analysis).replace("3.0,", "NaN,", 1))
    broken = json.loads(json.dumps(analysis))
    broken["critical_path"]["total_s"] = 3.1
    expect(True, gate_analysis, json.dumps(broken))
    broken = json.loads(json.dumps(analysis))
    broken["des_queue"]["pops"] = 6
    expect(True, gate_analysis, json.dumps(broken))

    first = {"store_misses": 150, "store_hits": 90}
    expect(False, gate_cold_store, first, dict(first))
    expect(True, gate_cold_store, first, dict(first, store_hits=240))

    reference = load_reference()
    if not reference:
        problems.append("hsbench/reference.json is missing or empty")
    else:
        key, ref = next(iter(sorted(reference.items())))
        label, n, threads = key.split(" ")
        replay = dict(ref, label=label, n=int(n), sim_threads=int(threads[1:]),
                      stored=ref["elapsed"])
        expect(False, gate_replays, [replay], reference)
        last = replay["elapsed"][-1]
        flipped = replay["elapsed"][:-1] + ("0" if last != "0" else "1")
        expect(True, gate_replays, [dict(replay, elapsed=flipped)], reference)
        expect(True, gate_replays, [dict(replay, stored=flipped)], reference)
        expect(True, gate_replays, [dict(replay, messages=replay["messages"] + 1)],
               reference)
    return problems


# ------------------------------------------------------------- plumbing ---

def read(path):
    with open(path, encoding="utf-8", newline="") as handle:
        return handle.read()


def load_reference():
    if not os.path.isfile(REFERENCE):
        return {}
    with open(REFERENCE, encoding="utf-8") as handle:
        return json.load(handle)["replays"]


def build():
    """Configure once and build incrementally; returns the binary's path."""
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "hsbench")
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    with open(log_path, "w", encoding="utf-8") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode:
                sys.stderr.write(read(log_path)[-4000:])
                fail(f"build failed (log: {log_path})", 1)
    return os.path.join(build_dir, "hsbench")


def spawn(argv, timeout=SAMPLE_TIMEOUT_S):
    """Run one child; returns (spawn time, exit status, stdout, rusage)."""
    started = time.monotonic()
    child = subprocess.Popen(argv, stdout=subprocess.PIPE, cwd=ROOT)
    deadline = started + timeout
    while True:
        pid, status, usage = os.wait4(child.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            child.kill()
            _, status, usage = os.wait4(child.pid, 0)
            break
        time.sleep(0.005)
    out = child.stdout.read().decode("utf-8", "replace")
    child.stdout.close()
    child.returncode = os.waitstatus_to_exitcode(status)
    return started, child.returncode, out, usage


def last_json(text):
    lines = [line for line in text.splitlines() if line.strip()]
    return json.loads(lines[-1]) if lines else None


def quartiles(values):
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0], ordered[0], ordered[0]
    q1, q2, q3 = statistics.quantiles(ordered, n=4, method="inclusive")
    return q1, q2, q3


def summary(values):
    """Median, quartiles, and the highest percentile with >= 10 samples
    beyond it (null when there are too few samples for one)."""
    q1, median, q3 = quartiles(values)
    ordered = sorted(values)
    tail = None
    if len(ordered) >= 11:
        index = len(ordered) - 11
        tail = {"percentile": 100.0 * (index + 1) / len(ordered),
                "value": ordered[index], "beyond": 10}
    return {"median": median, "p25": q1, "p75": q3, "samples": len(values),
            "tail": tail, "values": values}


def host_record(binary, settings, seed, samples):
    cpu_model = "unknown"
    try:
        for line in read("/proc/cpuinfo").splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    _, _, out, _ = spawn([binary, "host"])
    build_facts = last_json(out) or {}
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        probe = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                               capture_output=True, text=True)
        commit = probe.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "**", "*.[ch]pp"),
                                 recursive=True)):
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return {"nproc": os.cpu_count(), "cpu_model": cpu_model,
            "compiler": build_facts.get("compiler"),
            "build_type": build_facts.get("build_type"),
            "commit": commit, "src_sha256": digest.hexdigest(),
            "jobs": settings.get("jobs"), "sim_threads": settings.get("sim_threads"),
            "samples": samples, "seed": seed,
            "seed_note": "passed to RunContext; these healthy workloads ignore it"}


# ----------------------------------------------------------- the modes ---

def gate_artifacts(failures, workload, out_dir):
    try:
        for name in GOLDEN_CSVS[workload]:
            gate_golden(failures, name,
                        read(os.path.join(out_dir, name + ".csv")),
                        read(os.path.join(GOLDEN, name + ".csv")))
        if workload == "analyze_ladder":
            gate_ladder(failures, read(os.path.join(out_dir, "ladder.csv")),
                        read(os.path.join(GOLDEN, "table3_ge_required_rank.csv")))
            gate_analysis(failures, read(os.path.join(out_dir, "analysis.json")))
    except OSError as error:
        failures.append(f"missing artifact: {error}")


def timed(binary, workload, seed, seconds, out_dir):
    """Set-up launches, then whole-workload samples until `seconds` pass."""
    base = [binary, "run", workload, "--seed", str(seed), "--out", out_dir]
    setups = []
    for _ in range(SETUP_LAUNCHES):
        started, code, out, _ = spawn(base + ["--setup-only"])
        if code == 0:
            setups.append(last_json(out)["first_call_mono"] - started)
    samples, failures_by_sample, first = [], [], None
    run_start = time.monotonic()
    measured = 0.0
    while not samples or (measured < seconds and
                          time.monotonic() - run_start < RUN_BUDGET_S):
        failures = []
        started, code, out, usage = spawn(base)
        measured += time.monotonic() - started
        record = last_json(out) if code == 0 else None
        if record is None:
            failures.append(f"sample exited with {code}")
        else:
            first = first or record
            gate_cold_store(failures, first, record)
            gate_artifacts(failures, workload, out_dir)
            setups.append(record["first_call_mono"] - started)
            samples.append({"wall_s": record["wall_s"],
                            "cpu_s": usage.ru_utime + usage.ru_stime,
                            "peak_rss_mb": usage.ru_maxrss / 1024.0,
                            "store_misses": record["store_misses"],
                            "store_hits": record["store_hits"]})
        failures_by_sample.append(failures)
        if record is None:
            break
    attempted = len(failures_by_sample)
    failed = sum(1 for f in failures_by_sample if f)
    units = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
    stats, metrics = {}, {}
    if samples:
        stats = {key: summary([s[key] for s in samples])
                 for key in ("wall_s", "cpu_s", "peak_rss_mb")}
        stats["setup_s"] = summary(setups)
        metrics = {key: {"value": stats[key]["median"], "unit": unit}
                   for key, unit in units.items()}
    detail = {"fail_ratio": failed / attempted, "stats": stats,
              "failures": [f for f in failures_by_sample if f],
              "settings": first or {}}
    return attempted, failed, metrics, detail


def layer_metrics(trace, plain, seen, rss_growth):
    """Per-layer metrics of one traced run (names as in BENCHMARK.json)."""
    replays = trace["replays"]
    host = [r["host_s"] for r in replays]
    host_sum = sum(host)
    messages = sum(r["messages"] for r in replays)
    events = sum(r["events"] for r in replays)
    critical = max(trace["rungs"], key=lambda rung: rung["seconds"])
    lookups = trace["store_misses"] + trace["store_hits"]
    one, many = trace["engine"]
    partitioned = [r for r in replays + [many] if r["sim_threads"] > 1]
    run_s = summary(host)
    tail = run_s["tail"]["value"] if run_s["tail"] else max(host)
    values = {
        "scal.probes": (trace["store_misses"], "count"),
        "scal.store_hit_ratio": (trace["store_hits"] / lookups, "ratio"),
        "scal.critical_rung_s": (critical["seconds"], "s"),
        "scal.serial_batches": (critical["calls"], "count"),
        "run.utilization": (host_sum / (trace["scenario_wall_s"] * trace["jobs"]),
                            "ratio"),
        "vmpi.run_s.p50": (run_s["median"], "s"),
        "vmpi.run_s.tail": (tail, "s"),
        "vmpi.run_s.sum": (host_sum, "s"),
        "vmpi.messages": (messages, "count"),
        "vmpi.ns_per_message": (1e9 * host_sum / messages, "ns"),
        "des.events": (events, "count"),
        "des.events_per_s": (events / host_sum, "1/s"),
        "des.seq_events_per_s.p4096": (one["events"] / one["host_s"], "1/s"),
        "des.parallel_speedup": (one["host_s"] / many["host_s"], "ratio"),
        "des.cpu_per_wall": (sum(r["cpu_s"] for r in partitioned) /
                             sum(r["host_s"] for r in partitioned), "ratio"),
        "obs.overhead_ratio": (sum(r["host_s"] for r in seen["replays"]) /
                               sum(r["host_s"] for r in plain["replays"]),
                               "ratio"),
        "obs.analysis_s": (seen["analysis_s"], "s"),
        "obs.runs": (seen["runs"], "count"),
        "obs.rss_growth_mb": (rss_growth, "MB"),
        "trace.overhead_ratio": (trace["solve_wall_s"] / trace["scenario_wall_s"],
                                 "ratio"),
    }
    detail = {"critical_rung": critical["rung"], "replays": len(replays),
              "vmpi.run_s.tail": run_s["tail"] or
              {"note": f"{len(host)} samples: too few for a tail, max reported"},
              "trace.overhead_s": trace["solve_wall_s"] - trace["scenario_wall_s"],
              "partitioned_runs": len(partitioned),
              # A finding, not a gate: the partitioned engine folds on-wire
              # totals per partition, so their last bits follow the count.
              "p4096_wire_equal_across_sim_threads": one["wire"] == many["wire"]}
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}, detail


def observer_probe(binary, out_dir):
    """The GE ladder 2..16 replayed unobserved, then observed, one process
    each; returns both documents and the peak-RSS difference in MB."""
    docs, peaks = [], []
    for mode, name in (("0", "obs_unobserved.json"), ("1", "obs_observed.json")):
        _, code, _, usage = spawn([binary, "obs", mode, "--out", out_dir])
        if code != 0:
            raise RuntimeError(f"observer probe {mode} exited with {code}")
        docs.append(json.loads(read(os.path.join(out_dir, name))))
        peaks.append(usage.ru_maxrss / 1024.0)
    return docs[0], docs[1], peaks[1] - peaks[0]


def traced(binary, workload, seed, out_dir, reference):
    failures = []
    _, code, _, _ = spawn([binary, "trace", workload, "--seed", str(seed),
                           "--out", out_dir])
    try:
        if code != 0:
            raise RuntimeError(f"traced run exited with {code}")
        trace = json.loads(read(os.path.join(out_dir, "trace.json")))
        plain, seen, rss_growth = observer_probe(binary, out_dir)
    except (RuntimeError, OSError, ValueError) as error:
        return 1, 1, {}, {"failures": [str(error)]}
    gate_artifacts(failures, workload, out_dir)
    gate_analysis(failures, read(os.path.join(out_dir, "obs_analysis.json")),
                  "observer analysis")
    unreferenced = gate_trace(failures, trace, reference)
    unreferenced += gate_observer(failures, plain, seen, reference)
    metrics, detail = layer_metrics(trace, plain, seen, rss_growth)
    detail.update({"failures": failures, "unreferenced_replays": unreferenced,
                   "settings": {"jobs": trace["jobs"],
                                "sim_threads": trace["sim_threads"]},
                   "spans": os.path.relpath(os.path.join(out_dir, "spans.json"),
                                            ROOT)})
    return 1, 1 if failures else 0, metrics, detail


def record_reference(binary):
    """Re-record reference.json from one traced run of every workload."""
    replays = {}
    for workload in WORKLOADS:
        out_dir = os.path.join(ROOT, ".bench_out", f"reference-{workload}")
        shutil.rmtree(out_dir, ignore_errors=True)
        os.makedirs(out_dir)
        _, code, _, _ = spawn([binary, "trace", workload, "--seed", "0",
                               "--out", out_dir], timeout=600)
        if code != 0:
            fail(f"traced {workload} exited with {code}", 1)
        trace = json.loads(read(os.path.join(out_dir, "trace.json")))
        failures = []
        gate_trace(failures, trace, {})
        if failures:
            fail(f"{workload}: {failures[:3]}", 1)
        plain, seen, _ = observer_probe(binary, out_dir)
        gate_observer(failures, plain, seen, {})
        if failures:
            fail(f"observer probe: {failures[:3]}", 1)
        for batch in (trace["replays"], trace["engine"], plain["replays"],
                      seen["replays"]):
            for r in batch:
                entry = {f: r[f] for f in REPLAY_FIELDS}
                name = replay_key(r)
                if replays.setdefault(name, entry) != entry:
                    fail(f"{name} replays differently across workloads", 1)
    with open(REFERENCE, "w", encoding="utf-8") as handle:
        json.dump({"note": "simulated statistics of every probed (config, N); "
                           "hex floats, compared as text",
                   "replays": dict(sorted(replays.items()))},
                  handle, indent=1)
        handle.write("\n")
    print(f"recorded {len(replays)} replays to {os.path.relpath(REFERENCE, ROOT)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args()

    for needed in (os.path.join(ROOT, "src", "CMakeLists.txt"), GOLDEN):
        if not os.path.exists(needed):
            fail(f"missing {os.path.relpath(needed, ROOT)}: run from a full "
                 "hetscale checkout")
    if args.self_test:
        problems = self_test()
        print(json.dumps({"self_test": "fail" if problems else "pass",
                          "problems": problems}))
        sys.exit(1 if problems else 0)
    binary = build()
    if args.record_reference:
        record_reference(binary)
        return
    if args.workload is None:
        parser.error("--workload is required")

    out_dir = os.path.join(ROOT, ".bench_out",
                           f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    problems = self_test()
    if args.trace:
        attempted, failed, metrics, detail = traced(
            binary, args.workload, args.seed, out_dir, load_reference())
    else:
        attempted, failed, metrics, detail = timed(
            binary, args.workload, args.seed, args.seconds, out_dir)
    detail["self_test"] = problems or "pass"
    detail["host"] = host_record(binary, detail.get("settings", {}), args.seed,
                                 attempted)
    detail["workload"] = args.workload
    correct = failed == 0 and not problems and all(
        math.isfinite(m["value"]) for m in metrics.values())
    with open(os.path.join(out_dir, "result.json"), "w", encoding="utf-8") as handle:
        json.dump(dict(detail, metrics=metrics), handle, indent=1)
    print(json.dumps({"record": detail}))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
