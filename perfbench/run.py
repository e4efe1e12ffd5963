#!/usr/bin/env python3
"""Benchmark of xbcsim jobs: builds the job runner (xbbench) from the
sources beside this directory, runs one workload for a time budget and
prints a noise report followed by one JSON result line.

    python3 perfbench/run.py --workload hot-delivery --seed 0 --seconds 35 --trace 0
    python3 perfbench/run.py --workload xbt-replay --seed 3 --seconds 35 --trace 1
    python3 perfbench/run.py --workload hot-delivery --seed 1 --record-reference
    python3 perfbench/run.py --self-test

--trace 0 gives the end-to-end metrics, --trace 1 the per-layer ones.
Every host time is that of the fastest repetition of each timed part
of a job (a loop window, or a whole setup call) over the run's jobs.
Every op's paper metrics are checked: bit-exactly against
reference.json when it holds the seed, and always for job-to-job
identity and uop conservation. See README.md.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE = os.path.join(HERE, "reference.json")
DEADLINE_S = 170  # after the build; a run must exit within 180 s

PAPER_KEYS = ["bandwidth", "missRate", "cycles", "totalUops",
              "deliveryUops", "buildUops", "modeSwitches"]
ALL_FES = ["ic", "dc", "tc", "bbtc", "xbc"]
XBC_COUNTS = ["xbtb_lookups", "array_inserts", "array_evictions",
              "set_searches", "xbs_built"]

END_TO_END = {"wall_s": "s", "setup_s": "s", "sim_muops_per_s": "Muops/s",
              "peak_rss_mb": "MiB"}
PER_LAYER = {
    "workload.program_s": "s",
    "workload.exec_ns_per_inst": "ns/inst",
    "trace.load_ns_per_inst": "ns/inst",
    "trace.write_ns_per_inst": "ns/inst",
    "trace.file_mb": "MiB",
    "rss.after_setup_mb": "MiB",
    "rss.after_loop_mb": "MiB",
    "sim.construct_s": "s",
}
for _fe in ALL_FES:
    PER_LAYER.update({_fe + ".loop_s": "s", _fe + ".ns_per_uop": "ns/uop"})
PER_LAYER.update({"xbc." + c: "count" for c in XBC_COUNTS})
PER_LAYER.update({
    "xbc.xbtb_hit_ratio": "ratio",
    "xbc.delivery_uops": "count",
    "xbc.build_uops": "count",
    "xbc.mode_switches": "count",
    "common.emit_s": "s",
    "ledger.unattributed_s": "s",
    "ledger.trace_overhead_frac": "ratio",
})
for _fe in ALL_FES:
    PER_LAYER.update({_fe + ".bandwidth": "uops/cycle",
                      _fe + ".miss_rate": "ratio", _fe + ".cycles": "count"})
LEDGER_TOLERANCE = 0.05
# The host-speed probe's time (xbbench's probeHost) on the host the
# benchmark was calibrated on, a 4-vCPU KVM guest on an Intel Xeon, in
# a quiet period. Host times are scaled by this over the run's fastest
# probe, so they read as seconds on that host at that speed.
REFERENCE_PROBE_S = 0.00139
# Units of the host times that the probe scales.
HOST_TIME_UNITS = ("s", "ns/inst", "ns/uop")


def build():
    """Configures once and builds xbbench; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise SystemExit("run.py: simulator sources (src/) not found "
                         "beside " + HERE)
    out = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                            ".bench_build"), "perfbench")
    quiet = {"stdout": sys.stderr, "stderr": sys.stderr}
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"] + gen,
                       check=True, **quiet)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "-j", jobs], check=True,
                   **quiet)
    return os.path.join(out, "xbbench")


def workload_table(binary):
    """xbbench's workloads: name -> {"replay": bool, "frontends": [...]}."""
    out = subprocess.run([binary, "--list"], capture_output=True,
                         text=True, check=True).stdout
    return json.loads(out)


def call(cmd, deadline):
    """Runs @p cmd to completion or until @p deadline; returns its
    stdout and an error string (None on a clean exit)."""
    try:
        p = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=max(1.0, deadline - time.time()))
    except subprocess.TimeoutExpired as e:
        out = e.stdout or b""
        return out.decode() if isinstance(out, bytes) else out, \
            "xbbench timed out"
    if p.returncode != 0:
        return p.stdout, "xbbench exited with %d: %s" % (p.returncode,
                                                        p.stderr.strip())
    return p.stdout, None


def run_jobs(binary, workload, replay, seed, seconds, traced, insts,
             deadline):
    """Runs the workload's jobs in one fresh xbbench process; @p replay
    says that it replays a .xbt file, which is written first.

    Returns (jobs, spans, prepare, error): the per-job JSON lines, the
    traced jobs' spans, the replay trace's write record and an error
    string (None when every process exited cleanly)."""
    tmp = tempfile.mkdtemp(prefix=".bench_tmp-", dir=ROOT)
    try:
        base = [binary, "--workload=" + workload, "--seed=%d" % seed,
                "--insts=%d" % insts]
        prepare = None
        if replay:
            xbt = os.path.join(tmp, "replay.xbt")
            base.append("--xbt=" + xbt)
            out, err = call(base + ["--prepare"], deadline)
            if err is not None:
                return [], [], None, "writing the replay trace: " + err
            prepare = json.loads(out)
            prepare["file_bytes"] = os.path.getsize(xbt)
        cmd = base + ["--seconds=%r" % seconds]
        spans_path = os.path.join(tmp, "spans.json")
        if traced:
            cmd.append("--spans=" + spans_path)
        out, err = call(cmd, deadline)
        jobs = [json.loads(line) for line in out.splitlines()
                if line.startswith("{")]
        spans = []
        if traced and err is None:
            with open(spans_path) as f:
                spans = json.load(f)
        return jobs, spans, prepare, err
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def load_reference():
    if not os.path.isfile(REFERENCE):
        return {}
    with open(REFERENCE) as f:
        return json.load(f)


def check_ops(jobs, ref, insts):
    """Checks every op; returns (attempted, failed, problems).

    An op fails on an error status, a paper metric that differs from
    @p ref (bit-exact string compare of %.17g), a result that differs
    from the run's first job (traced or not), delivered plus built
    uops that differ from the trace's uop count, or (@p insts given) a
    trace whose length is not that of the written replay trace."""
    attempted = failed = 0
    problems = []
    first = {}
    for job in jobs:
        for op in job["ops"]:
            attempted += 1
            fe = op["fe"]
            bad = []
            if insts is not None and job["insts"] != insts:
                bad.append("trace has %d instructions, not %d"
                           % (job["insts"], insts))
            if op["status"] != "ok":
                bad.append("status: " + op["status"])
            else:
                paper = op["paper"]
                if ref is not None:
                    for k in PAPER_KEYS:
                        want = ref.get(fe, {}).get(k)
                        if paper[k] != want:
                            bad.append("%s.%s drifted: %s, reference %s"
                                       % (fe, k, paper[k], want))
                result = (paper, op.get("counts"), len(op["windows_s"]))
                if first.setdefault(fe, result) != result:
                    bad.append("%s differs from the run's first job" % fe)
                if (int(paper["deliveryUops"]) + int(paper["buildUops"])
                        != job["trace_uops"]):
                    bad.append("%s: delivered + built uops != the trace's %d"
                               % (fe, job["trace_uops"]))
            if bad:
                failed += 1
                problems.append("job %d: %s" % (job["job"], "; ".join(bad)))
    return attempted, failed, problems


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def job_uops(job):
    return sum(int(op["paper"]["totalUops"]) for op in job["ops"]
               if op["status"] == "ok")


def job_loop_s(job):
    return sum(op.get("loop_s", 0.0) for op in job["ops"])


def fastest_loop_s(jobs, fe):
    """The loop time of frontend @p fe put together from the fastest
    repetition of each of its windows over @p jobs. Every job
    simulates the same cycles (check_ops makes sure), so window k is
    the same work in every job."""
    runs = [op["windows_s"] for job in jobs for op in job["ops"]
            if op["fe"] == fe]
    return sum(min(reps) for reps in zip(*runs))


def host_scale(jobs):
    """Factor that turns the run's host times into times at the
    reference host speed: the reference probe time over the run's
    fastest probe."""
    return REFERENCE_PROBE_S / min(j["probe_s"] for j in jobs)


def fastest_wall_s(jobs, fes):
    """A job's wall time put together from the fastest repetition over
    @p jobs of each timed part: setup, each loop window, and the rest
    of the job (emit)."""
    rest = [j["wall_s"] - j["setup_s"] - job_loop_s(j) for j in jobs]
    return (min(j["setup_s"] for j in jobs) + min(rest)
            + sum(fastest_loop_s(jobs, fe) for fe in fes))


def end_to_end(jobs, fes):
    """(values, samples): each metric's value and its per-job samples.

    A value takes every timed part at its fastest repetition over the
    run (fastest_wall_s) and scales it to the reference host speed.
    Samples are raw."""
    scale = host_scale(jobs)
    setup = min(j["setup_s"] for j in jobs)
    loops = sum(fastest_loop_s(jobs, fe) for fe in fes)
    values = {
        "wall_s": fastest_wall_s(jobs, fes) * scale,
        "setup_s": setup * scale,
        "sim_muops_per_s": job_uops(jobs[0]) / (loops * scale) / 1e6,
        "peak_rss_mb": jobs[0]["hwm_mb"],
    }
    samples = {
        "wall_s": [j["wall_s"] for j in jobs],
        "setup_s": [j["setup_s"] for j in jobs],
        "sim_muops_per_s": [job_uops(j) / job_loop_s(j) / 1e6
                            for j in jobs],
        "peak_rss_mb": [jobs[0]["hwm_mb"]],
    }
    return values, samples


def span_totals(spans):
    """Per job id: its wall, the time its direct children cover, and
    the summed duration of its spans by name."""
    roots = {s["id"]: s["job"] for s in spans if s["parent"] == -1}
    out = {job: {"wall": 0.0, "covered": 0.0, "by_name": {}}
           for job in roots.values()}
    for s in spans:
        d = s["end"] - s["start"]
        t = out[s["job"]]
        t["by_name"][s["name"]] = t["by_name"].get(s["name"], 0.0) + d
        if s["parent"] == -1:
            t["wall"] = d
        elif s["parent"] in roots:
            t["covered"] += d
    return out


def ledger_problems(totals):
    """Jobs whose layer spans miss the job's wall by more than 5%."""
    return ["job %d: layer spans sum to %.4f s of %.4f s wall"
            % (job, t["covered"], t["wall"]) for job, t in totals.items()
            if abs(t["wall"] - t["covered"]) > LEDGER_TOLERANCE * t["wall"]]


# Per-layer host times of whole calls: their value is the fastest
# traced job's, as for the end-to-end metrics.
FASTEST_CALLS = ["workload.program_s", "workload.exec_ns_per_inst",
                 "trace.load_ns_per_inst", "sim.construct_s",
                 "common.emit_s"]


def per_layer(jobs, totals, prepare, fes):
    """(values, samples) from the traced jobs' spans and results.

    Host times are the fastest repetition over the traced jobs (loop
    times per window), scaled to the reference host speed as in
    end_to_end; every other value is the median over the traced jobs.
    Samples are raw. A layer the workload does not run reports 0."""
    traced = [j for j in jobs if j["traced"]]
    plain = [j for j in jobs if not j["traced"]]
    samples = {name: [] for name in PER_LAYER}

    def add(name, value):
        samples[name].append(value)

    for job in traced:
        t = totals[job["job"]]
        dur = t["by_name"]
        per_inst = 1e9 / max(job["insts"], 1)
        add("workload.program_s", dur.get("workload.program", 0.0))
        add("workload.exec_ns_per_inst",
            dur.get("workload.exec", 0.0) * per_inst)
        add("trace.load_ns_per_inst", dur.get("trace.load", 0.0) * per_inst)
        add("rss.after_setup_mb", job["rss_after_setup_mb"])
        add("rss.after_loop_mb", job["rss_after_loop_mb"])
        add("sim.construct_s", dur.get("sim.construct", 0.0))
        add("common.emit_s", dur.get("common.emit", 0.0))
        add("ledger.unattributed_s", t["wall"] - t["covered"])
        ops = {op["fe"]: op for op in job["ops"] if op["status"] == "ok"}
        for fe in ALL_FES:
            paper = ops[fe]["paper"] if fe in ops else {}
            loop = dur.get(fe + ".loop", 0.0)
            uops = int(paper.get("totalUops", 0))
            add(fe + ".loop_s", loop)
            add(fe + ".ns_per_uop", loop / uops * 1e9 if uops else 0.0)
            add(fe + ".bandwidth", float(paper.get("bandwidth", 0)))
            add(fe + ".miss_rate", float(paper.get("missRate", 0)))
            add(fe + ".cycles", int(paper.get("cycles", 0)))
        xbc = ops.get("xbc", {})
        counts, paper = xbc.get("counts", {}), xbc.get("paper", {})
        for k in XBC_COUNTS:
            add("xbc." + k, counts.get(k, 0))
        lookups = counts.get("xbtb_lookups", 0)
        add("xbc.xbtb_hit_ratio",
            counts["xbtb_hits"] / lookups if lookups else 0.0)
        add("xbc.delivery_uops", int(paper.get("deliveryUops", 0)))
        add("xbc.build_uops", int(paper.get("buildUops", 0)))
        add("xbc.mode_switches", int(paper.get("modeSwitches", 0)))

    add("trace.write_ns_per_inst",
        prepare["write_s"] / prepare["insts"] * 1e9 if prepare else 0.0)
    add("trace.file_mb", prepare["file_bytes"] / 2.0 ** 20 if prepare else 0.0)
    add("ledger.trace_overhead_frac",
        fastest_wall_s(traced, fes) / fastest_wall_s(plain, fes) - 1.0)

    values = {name: statistics.median(v) for name, v in samples.items()}
    for name in FASTEST_CALLS:
        values[name] = min(samples[name])
    for fe in fes:
        loop = fastest_loop_s(traced, fe)
        uops = int(traced[0]["ops"][fes.index(fe)]["paper"]["totalUops"])
        values[fe + ".loop_s"] = loop
        values[fe + ".ns_per_uop"] = loop / uops * 1e9
    scale = host_scale(traced)
    for name, unit in PER_LAYER.items():
        if unit in HOST_TIME_UNITS and name != "trace.write_ns_per_inst":
            values[name] *= scale
    if prepare:
        values["trace.write_ns_per_inst"] *= (REFERENCE_PROBE_S
                                              / prepare["probe_s"])
    return values, samples


def evaluate(workload, fes, run, traced, ref):
    """Checks and summarizes one run; returns (result dict, report)."""
    jobs, spans, prepare, err = run
    expected = prepare["insts"] if prepare else None
    attempted, failed, problems = check_ops(jobs, ref, expected)
    if err is not None:
        # The job in flight when xbbench died counts as failed ops.
        attempted += len(fes)
        failed += len(fes)
        problems.append(err)
    totals = span_totals(spans)
    if traced and err is None:
        problems += ledger_problems(totals)
    metrics, report = {}, []
    if jobs and failed == 0:
        values, samples = (per_layer(jobs, totals, prepare, fes) if traced
                           else end_to_end(jobs, fes))
        units = PER_LAYER if traced else END_TO_END
        for name, unit in units.items():
            q1, med, q3 = quartiles(samples[name])
            metrics[name] = {"value": values[name], "unit": unit}
            report.append("  %-28s value %-12.6g median %-12.6g q1 %-12.6g "
                          "q3 %-12.6g n=%-3d %s"
                          % (name, values[name], med, q1, q3,
                             len(samples[name]), unit))
    head = ("%s (%s): %d jobs, ops %d, ops_failed %d, reference %s"
            % (workload, "traced" if traced else "untraced", len(jobs),
               attempted, failed,
               "checked" if ref is not None else "none for this seed"))
    if jobs:
        probes = [j["probe_s"] for j in jobs]
        q1, med, q3 = quartiles(probes)
        head += ("\n  %-28s fastest %-10.6g median %-12.6g q1 %-12.6g "
                 "q3 %-12.6g n=%-3d s" % ("host probe", min(probes), med,
                                          q1, q3, len(probes)))
    report = [head] + report + ["  FAIL " + p for p in problems]
    result = {"correct": not problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return result, report


def paper_reference(jobs):
    return {op["fe"]: {k: op["paper"][k] for k in PAPER_KEYS}
            for op in jobs[0]["ops"]}


def record_reference(binary, table, workload, seed, deadline):
    spec = table[workload]
    run = run_jobs(binary, workload, spec["replay"], seed, 0, False, 0,
                   deadline)
    result, report = evaluate(workload, spec["frontends"], run, False, None)
    if not result["correct"]:
        raise SystemExit("run.py: cannot record:\n" + "\n".join(report))
    jobs = run[0]
    ref = load_reference()
    ref.setdefault(workload, {})[str(seed)] = paper_reference(jobs)
    with open(REFERENCE, "w") as f:
        json.dump(ref, f, indent=2, sort_keys=True)
        f.write("\n")
    print("recorded %s seed %d: %s" % (workload, seed,
                                       json.dumps(ref[workload][str(seed)])))


def self_test(binary, table):
    """Tiny-input checks: every metric is printed with its declared
    unit, and a reference perturbed in the last bit fails its ops."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    declared = {
        False: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        True: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    insts, errors = 20000, []
    for workload, spec in sorted(table.items()):
        fes = spec["frontends"]
        for traced in (False, True):
            deadline = time.time() + 120
            run = run_jobs(binary, workload, spec["replay"], 7, 0, traced,
                           insts, deadline)
            result, report = evaluate(workload, fes, run, traced, None)
            jobs = run[0]
            if not jobs:
                errors.append("\n".join(report))
                continue
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != declared[traced]:
                errors.append("%s trace=%d: metrics %s, declared %s"
                              % (workload, traced, sorted(got),
                                 sorted(declared[traced])))
            if not result["correct"]:
                errors.append("\n".join(report))
            ref = paper_reference(jobs)
            if check_ops(jobs, ref, None)[1] != 0:
                errors.append("%s: exact reference reported a failure"
                              % workload)
            fe = fes[-1]
            exact = float(ref[fe]["bandwidth"])
            ref[fe]["bandwidth"] = "%.17g" % math.nextafter(exact, math.inf)
            _, failed, problems = check_ops(jobs, ref, None)
            if failed != len(jobs) or not all(
                    fe + ".bandwidth drifted" in p for p in problems):
                errors.append("%s: last-bit perturbation not reported: "
                              "failed %d of %d jobs" % (workload, failed,
                                                        len(jobs)))
    for e in errors:
        print("self-test FAIL " + e)
    print("self-test %s" % ("failed" if errors else "passed"))
    return 1 if errors else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", help="a workload of BENCHMARK.json")
    ap.add_argument("--seed", type=int, default=0,
                    help="executor seed; 0 is the catalog's own seed")
    ap.add_argument("--seconds", type=float, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true",
                    help="store this seed's paper metrics as the reference")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and not args.workload:
        ap.error("--workload is required")
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    binary = build()
    deadline = time.time() + DEADLINE_S
    table = workload_table(binary)
    if args.self_test:
        return self_test(binary, table)
    if args.workload not in table:
        ap.error("unknown workload %r (have: %s)"
                 % (args.workload, ", ".join(sorted(table))))
    if args.record_reference:
        record_reference(binary, table, args.workload, args.seed, deadline)
        return 0
    spec = table[args.workload]
    ref = load_reference().get(args.workload, {}).get(str(args.seed))
    run = run_jobs(binary, args.workload, spec["replay"], args.seed,
                   args.seconds, args.trace == 1, 0, deadline)
    result, report = evaluate(args.workload, spec["frontends"], run,
                              args.trace == 1, ref)
    report[0] = "seed %d, %s" % (args.seed, report[0])
    print("\n".join(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
