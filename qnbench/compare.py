#!/usr/bin/env python3
"""Run the benchmark over several seeds, and compare two sets of runs.

    python3 qnbench/compare.py run  --workload W --seeds 1-10 --out DIR [--seconds S] [--trace 0|1]
    python3 qnbench/compare.py diff DIR_A DIR_B

`run` executes the command in BENCHMARK.json once per seed from the
repository root, keeps each run's stdout as DIR/<workload>-<seed>.txt, and
prints every metric's median, its quartile spread as a share of the median
(statistics.quantiles(values, n=4)) and the metric's bound.

`diff` pairs the records of two directories by workload, refuses to compare
records whose run headers differ (host CPUs, SIMD level, kernel profile,
threads, run length, trace flag), and reports each end-to-end metric's
median change against its bound. Every record must have zero failed
operations, and runs of one workload with the same seed must print the
same output digest.
"""

import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# header fields that must agree for two records to be comparable
HEADER_KEYS = ("host_cpus", "simd", "kernel_profile", "threads", "seconds", "trace")


def parse_record(text):
    header, result = None, None
    for line in text.splitlines():
        if line.startswith("header "):
            header = json.loads(line[len("header "):])
        elif line.startswith("{"):
            result = json.loads(line)
    if header is None or result is None:
        raise ValueError("not a benchmark record")
    digest = re.search(r"digest ([0-9a-f]{16})", text)
    header["digest"] = digest.group(1) if digest else None
    return header, result


def load_dir(path):
    runs = {}
    for f in sorted(Path(path).glob("*.txt")):
        header, result = parse_record(f.read_text())
        runs.setdefault(header["workload"], []).append((header, result))
    return runs


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / statistics.median(values)


def bounds():
    return {m["name"]: m.get("bound") for m in SPEC["end_to_end"] + SPEC["per_layer"]}


def summarize(records):
    failed = sum(r["failed"] for _, r in records)
    names = list(records[0][1]["metrics"])
    b = bounds()
    print(f"  {len(records)} runs, failed ops {failed}")
    for name in names:
        values = [r["metrics"][name]["value"] for _, r in records]
        med, sp = spread(values) if len(values) >= 2 and statistics.median(values) else (values[0], 0.0)
        bound = b.get(name)
        flag = "" if bound is None or sp <= bound / 3 else ("  WIDE" if sp > bound else "  >bound/3")
        print(f"  {name:<40} median {med:14.6g}  spread {sp:7.4f}  bound {bound}{flag}")


def cmd_run(args):
    opts = dict(zip(args[::2], args[1::2]))
    workload, out = opts["--workload"], Path(opts["--out"])
    lo, _, hi = opts.get("--seeds", "1-10").partition("-")
    seconds = opts.get("--seconds", str(SPEC["run_seconds"]))
    trace = opts.get("--trace", "0")
    # a traced run is one suite, recorded under one name whatever --workload says
    record = "traced-suite" if trace == "1" else workload
    out.mkdir(parents=True, exist_ok=True)
    for seed in range(int(lo), int(hi or lo) + 1):
        cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                                 "--seconds", seconds, "--trace", trace]
        p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        if p.returncode != 0:
            sys.exit(f"seed {seed}: exit {p.returncode}\n{p.stderr[-2000:]}")
        (out / f"{record}-{seed}.txt").write_text(p.stdout)
    print(record)
    summarize(load_dir(out)[record])


def cmd_diff(a, b):
    ra, rb = load_dir(a), load_dir(b)
    ok = True
    for workload in sorted(set(ra) & set(rb)):
        ha = {tuple((k, h[k]) for k in HEADER_KEYS) for h, _ in ra[workload]}
        hb = {tuple((k, h[k]) for k in HEADER_KEYS) for h, _ in rb[workload]}
        if len(ha | hb) != 1:
            sys.exit(f"{workload}: run headers differ, refusing to compare: {sorted(ha | hb)}")
        failed = sum(r["failed"] for _, r in ra[workload] + rb[workload])
        digests = {}
        for h, _ in ra[workload] + rb[workload]:
            digests.setdefault(h["seed"], set()).add(h["digest"])
        same = all(len(d) == 1 for d in digests.values())
        print(f"{workload}: failed ops {failed}; digests per seed identical: {same}")
        ok &= failed == 0 and same
        for m in SPEC["end_to_end"]:
            name = m["name"]
            va = statistics.median(r["metrics"][name]["value"] for _, r in ra[workload])
            vb = statistics.median(r["metrics"][name]["value"] for _, r in rb[workload])
            worse = (vb - va) / va if m["better"] == "lower" else (va - vb) / va
            within = worse <= m["bound"]
            ok &= within
            print(f"  {name:<14} {va:12.6g} -> {vb:12.6g}  worse by {worse:+.4f} (bound {m['bound']})"
                  f"{'' if within else '  REGRESSION'}")
    sys.exit(0 if ok else 1)


def main():
    if len(sys.argv) >= 2 and sys.argv[1] == "run":
        cmd_run(sys.argv[2:])
    elif len(sys.argv) == 4 and sys.argv[1] == "diff":
        cmd_diff(sys.argv[2], sys.argv[3])
    else:
        sys.exit(__doc__)


if __name__ == "__main__":
    main()
