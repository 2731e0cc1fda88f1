#!/usr/bin/env python3
"""Build the perfbench package from source and run one benchmark workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload plan_cold --seed 1 --seconds 10 --trace 0

The arguments go to the `perfbench` binary unchanged (see
`perfbench/src/main.rs`). The build goes to `$CARGO_TARGET_DIR`, or to
`.bench_build` at the repository root when that is unset. The binary's
standard output, whose last line is the JSON result, passes through;
build output goes to standard error. The exit code is the binary's, or
non-zero when the build fails.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "perfbench", "Cargo.toml")


def commit():
    """The checked-out commit, when the repository is a git checkout."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


def main():
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        print("perfbench: no Cypress workspace next to perfbench/", file=sys.stderr)
        return 2
    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 2
    env["PERFBENCH_COMMIT"] = commit()
    binary = os.path.join(target if os.path.isabs(target) else os.path.join(ROOT, target),
                          "release", "perfbench")
    return subprocess.run([binary] + sys.argv[1:], cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
