#!/usr/bin/env python3
"""pclust time-to-families benchmark.

Usage (from the repository root):
    python3 perfbench/run.py --workload orf_serial --seed 1 --seconds 30 --trace 0

Builds the pclust library and the perfbench program from this checkout
(Release, under $CARGO_TARGET_DIR or .bench_build), generates the
workload's inputs from --seed with the synth generator, and solves them in
turn for --seconds (an untraced run solves each at least once). Workloads
with a serial reference first solve every input at threads=1, at most
nproc at a time, in separate processes that end before the measured run
starts. The last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics: the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1. Workload definitions,
quality floors, seeds and the layer -> end-to-end prediction table live in
perfbench/workloads.json.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configure once, then build the program (a no-op when up to date)."""
    if not (build_dir / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(HERE), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(os.cpu_count() or 1)
    compile_cmd = ["cmake", "--build", str(build_dir), "--target", "perfbench",
                   "-j", jobs]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return build_dir / "perfbench"


def make_references(binary, fastas, work):
    """threads=1 families of each input, nproc solver processes at a time."""
    refs = [str(work / f"reference{i}.txt") for i in range(len(fastas))]
    pending = [[str(binary), "reference", "--fasta", fasta, "--out", ref]
               for fasta, ref in zip(fastas, refs)]
    running, failed = [], False
    while pending or running:
        while pending and len(running) < (os.cpu_count() or 1):
            running.append(subprocess.Popen(pending.pop(0)))
        failed |= running.pop(0).wait() != 0
    if failed:
        fail("serial reference solve failed")
    return refs


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", type=int,
                        help="override the workload's input size")
    parser.add_argument("--corrupt-families", action="store_true",
                        help="inject a family-output defect (smoke test)")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 0:
        fail("--seed and --seconds must be non-negative")

    spec = json.loads((HERE / "workloads.json").read_text())
    workload = spec["workloads"].get(args.workload)
    if workload is None:
        fail(f"unknown workload {args.workload!r}; known: "
             + ", ".join(spec["workloads"]))
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no pclust sources next to {HERE.name}/")

    out_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    binary = build(out_dir / "perfbench")

    size = args.size or workload["sequences"]
    work = out_dir / "work" / f"{args.workload}-n{size}-s{args.seed}"
    work.mkdir(parents=True, exist_ok=True)
    # Several inputs per run, each from its own generator seed. The figures
    # average over them, so that the cost differences between single inputs
    # (up to 30% at these sizes) mostly cancel between one seed and another.
    count = spec["inputs_per_run"]
    fastas, truths = [], []
    for i in range(count):
        fasta, truth = work / f"input{i}.fa", work / f"truth{i}.tsv"
        generate = [str(binary), "generate", "--preset", workload["preset"],
                    "--n", str(size), "--seed", str(args.seed * count + i),
                    "--fasta", str(fasta), "--truth", str(truth)]
        if subprocess.run(generate).returncode != 0:
            fail("input generation failed")
        fastas.append(str(fasta))
        truths.append(str(truth))

    refs = (make_references(binary, fastas, work)
            if workload["serial_reference"] else [])
    threads = 0 if workload["threads"] == "nproc" else workload["threads"]
    run = [str(binary), "run",
           "--workload", args.workload,
           "--fasta", ",".join(fastas), "--truth", ",".join(truths),
           "--work-dir", str(work),
           "--threads", str(threads),
           "--artifacts", "1" if workload["artifacts"] else "0",
           "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--min-precision", str(spec["min_precision"]),
           "--min-sensitivity", str(workload["min_sensitivity"])]
    if refs:
        run += ["--reference", ",".join(refs)]
    if args.corrupt_families:
        run += ["--corrupt-families", "1"]
    sys.stdout.flush()
    return subprocess.run(run).returncode


if __name__ == "__main__":
    sys.exit(main())
