#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <pair_stream|mesh_stream_t2|tenant_serving> \
        --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. The build goes to $CARGO_TARGET_DIR
(default: perfbench/target); the arguments pass to the benchmark binary
unchanged. The last line of standard output is the JSON result; the
report for people goes to standard error.
"""

import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent


def main() -> int:
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--bins",
         "--manifest-path", str(HERE / "Cargo.toml")],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or HERE / "target")
    exe = target / "release" / "perfbench"
    # The benchmark replaces this process, so nothing is left to wait for.
    os.execv(exe, [str(exe)] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
