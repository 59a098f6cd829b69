#!/usr/bin/env python3
"""Builds the cISP benchmark program from the checkout and runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload timeline_weather --seed 1 \
        --seconds 25 --trace 0

The library and the benchmark are built (Release, CMake) under
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that is unset;
later runs only re-check the build. Build output goes to stderr, so the
program's result line stays the last line of stdout. Each run also writes
its per-step log to <build>/logs/<workload>-seed<seed>-trace<trace>.tsv.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def build(build_dir: Path) -> Path:
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        sys.exit(f"perfbench: no cISP source tree next to {BENCH_DIR.name}/")
    if not (build_dir / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(build_dir), "-j", "4",
                    "--target", "cisp_perfbench"],
                   check=True, stdout=sys.stderr)
    return build_dir / "cisp_perfbench"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    build_dir = target / "perfbench"
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 1

    log_dir = build_dir / "logs"
    log_dir.mkdir(parents=True, exist_ok=True)
    log = log_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.tsv"
    return subprocess.run([
        str(binary), "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--log", str(log)]).returncode


if __name__ == "__main__":
    sys.exit(main())
