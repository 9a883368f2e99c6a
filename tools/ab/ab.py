#!/usr/bin/env python3
"""Same-binary A/B of the simulator on the `calls_hot` programs.

Links a committed revision ("base") and the working tree ("head") into
one binary and times every `calls_hot` program on I1-I4 on both,
alternating per item (see main.rs). Prints the paired base/head run-time
ratio per item and in total, with quartiles over the rounds, and stops
if the two sides' simulated counters ever differ.

    python3 tools/ab/ab.py                       # base = HEAD
    python3 tools/ab/ab.py --base main --rounds 50 --only fib/
    python3 tools/ab/ab.py --base-tree ../other-checkout

The base is exported with `git archive` into the build directory and
its workspace version is bumped, so Cargo accepts both copies of every
crate in one dependency graph under their own names. Building takes a
few minutes (two fat-LTO copies of the simulator).
"""

import argparse
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
CRATES = ["vm", "compiler", "verify", "workloads"]
BASE_VERSION = "1000.0.0"


def sh(*cmd, **kw):
    return subprocess.run(cmd, check=True, **kw)


def export_base(rev, tree, dest):
    """Extracts the crates and workspace manifest of git revision `rev`,
    or copies them from the checkout at `tree`, keeping only the
    workspace sections of the manifest, with the version bumped."""
    if os.path.exists(dest):
        shutil.rmtree(dest)
    os.makedirs(dest)
    if tree:
        shutil.copy(os.path.join(tree, "Cargo.toml"), dest)
        shutil.copytree(
            os.path.join(tree, "crates"),
            os.path.join(dest, "crates"),
            ignore=shutil.ignore_patterns("target"),
        )
    else:
        archive = subprocess.run(
            ["git", "-C", REPO, "archive", rev, "Cargo.toml", "crates"],
            check=True,
            capture_output=True,
        ).stdout
        sh("tar", "-x", "-C", dest, input=archive)
    manifest = os.path.join(dest, "Cargo.toml")
    text = open(manifest).read()
    sections = re.split(r"(?m)^(?=\[)", text)
    kept = [s for s in sections if s.startswith("[workspace")]
    text = "".join(kept)
    text = re.sub(r"(?m)^default-members\s*=.*\n", "", text)
    text = re.sub(
        r'(?ms)(^\[workspace\.package\].*?^version\s*=\s*)"[^"]*"',
        lambda m: m.group(1) + f'"{BASE_VERSION}"',
        text,
    )
    open(manifest, "w").write(text)


def write_harness(dest, base_root):
    os.makedirs(os.path.join(dest, "src"), exist_ok=True)
    deps = []
    for side, root in (("base", base_root), ("head", REPO)):
        for c in CRATES:
            path = os.path.join(root, "crates", c)
            deps.append(f'{side}_{c} = {{ package = "fpc-{c}", path = "{path}" }}')
    manifest = "\n".join(
        [
            "[package]",
            'name = "fpc-ab"',
            'version = "0.1.0"',
            'edition = "2021"',
            "publish = false",
            "",
            "[workspace]",
            "",
            "[dependencies]",
            *deps,
            "",
            "[profile.release]",
            "lto = true",
            "codegen-units = 1",
            "",
        ]
    )
    open(os.path.join(dest, "Cargo.toml"), "w").write(manifest)
    shutil.copy(os.path.join(HERE, "main.rs"), os.path.join(dest, "src", "main.rs"))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", default="HEAD", help="git revision of the base side")
    ap.add_argument("--base-tree", help="a checkout to use as the base side instead")
    ap.add_argument("--rounds", type=int, default=30, help="timed rounds")
    ap.add_argument("--only", default="", help="time only items whose name contains this, e.g. /i4")
    ap.add_argument(
        "--out",
        default=os.path.join(REPO, ".ab_build"),
        help="build directory (base copy, harness, target)",
    )
    args = ap.parse_args()
    out = os.path.abspath(args.out)
    base_root = os.path.join(out, "base")
    harness = os.path.join(out, "harness")
    export_base(args.base, args.base_tree, base_root)
    write_harness(harness, base_root)
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(out, "target"))
    sh("cargo", "build", "--release", "-q", "--manifest-path",
       os.path.join(harness, "Cargo.toml"), env=env)
    binary = os.path.join(out, "target", "release", "fpc-ab")
    sys.exit(subprocess.run([binary, str(args.rounds), args.only]).returncode)


if __name__ == "__main__":
    main()
