#!/usr/bin/env python3
"""Same-binary A/B of the simulator on a set of programs.

Links a committed revision ("base") and the working tree ("head") into
one binary and times every program of a set on both, alternating per
item (see main.rs). Prints the paired base/head run-time
ratio per item and in total, with quartiles over the rounds, and stops
if the two sides' simulated counters ever differ.

    python3 tools/ab/ab.py                       # base = HEAD
    python3 tools/ab/ab.py --base main --rounds 50 --only fib/
    python3 tools/ab/ab.py --base-tree ../other-checkout
    python3 tools/ab/ab.py --set contexts --rung unarmed

Options that choose what is timed:

    --set calls   the `calls_hot` programs (fib, ackermann, tak, hanoi,
                  leafcalls); the default
    --set loops   the `loops_hot` programs: `loop_programs` from
                  perfbench/src/programs.rs, copied into the harness
                  (perfbench itself is not built)
    --set contexts  `cluster_storm`'s fib guests: fib(6..=13) on I3 and
                  I4, Direct linkage, a 2 048-word memory; each item
                  times 200 loads and runs, compiles included
    --rung native predecode and the native tier, armed under the
                  verifier's license: the fastest licensed setting; the
                  default
    --rung unarmed  the native tier without a license: the path the
                  scheduler and cluster guests take (checked bursts; on
                  a base from before them, the fused rung)
    --profile P   the cargo profile both sides are built with, `release`
                  by default; CI builds with `ci` to check only that the
                  harness still builds and runs

The base is exported with `git archive` into the build directory and
its workspace version is bumped, so Cargo accepts both copies of every
crate in one dependency graph under their own names. Files are rewritten
only when their contents change, so a rerun rebuilds only what moved.
Building takes a few minutes under `release` (two fat-LTO copies of the
simulator).
"""

import argparse
import filecmp
import os
import re
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
CRATES = ["vm", "compiler", "verify", "workloads"]
BASE_VERSION = "1000.0.0"
PROGRAMS = os.path.join(REPO, "perfbench", "src", "programs.rs")


def sh(*cmd, **kw):
    return subprocess.run(cmd, check=True, **kw)


def write_if_changed(path, text):
    """Writes `text` to `path` unless it already holds exactly that."""
    if os.path.exists(path) and open(path).read() == text:
        return
    os.makedirs(os.path.dirname(path), exist_ok=True)
    open(path, "w").write(text)


def sync_tree(src, dest):
    """Makes `dest` a copy of `src`, touching only files that differ."""
    os.makedirs(dest, exist_ok=True)
    for name in set(os.listdir(dest)) - set(os.listdir(src)):
        path = os.path.join(dest, name)
        if os.path.isdir(path):
            shutil.rmtree(path)
        else:
            os.remove(path)
    for name in os.listdir(src):
        s, d = os.path.join(src, name), os.path.join(dest, name)
        if os.path.isdir(s):
            if os.path.exists(d) and not os.path.isdir(d):
                os.remove(d)
            sync_tree(s, d)
        elif not (os.path.isfile(d) and filecmp.cmp(s, d, shallow=False)):
            if os.path.isdir(d):
                shutil.rmtree(d)
            shutil.copy2(s, d)


def export_base(rev, tree, dest):
    """Extracts the crates and workspace manifest of git revision `rev`,
    or copies them from the checkout at `tree`, keeping only the
    workspace sections of the manifest, with the version bumped."""
    with tempfile.TemporaryDirectory() as stage:
        if tree:
            shutil.copy(os.path.join(tree, "Cargo.toml"), stage)
            shutil.copytree(
                os.path.join(tree, "crates"),
                os.path.join(stage, "crates"),
                ignore=shutil.ignore_patterns("target"),
            )
        else:
            archive = subprocess.run(
                ["git", "-C", REPO, "archive", rev, "Cargo.toml", "crates"],
                check=True,
                capture_output=True,
            ).stdout
            sh("tar", "-x", "-C", stage, input=archive)
        manifest = os.path.join(stage, "Cargo.toml")
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
        sync_tree(stage, dest)


def loop_programs_source():
    """The loop programs of perfbench/src/programs.rs: everything from
    `loop_programs`' doc comment up to the test module. They name only
    `Rng`, `Workload` and `Kind`, which the harness brings into scope."""
    text = open(PROGRAMS).read()
    start = text.index("pub fn loop_programs(")
    start = text.rindex("\n\n", 0, start) + 2
    end = text.index("#[cfg(test)]", start)
    return "// Copied from perfbench/src/programs.rs by ab.py.\n\n" + text[start:end]


def write_harness(dest, base_root):
    deps = []
    for side, root in (("base", base_root), ("head", REPO)):
        for c in CRATES:
            path = os.path.join(root, "crates", c)
            deps.append(f'{side}_{c} = {{ package = "fpc-{c}", path = "{path}" }}')
    rng = os.path.join(REPO, "crates", "rng")
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
            f'rng = {{ package = "fpc-rng", path = "{rng}" }}',
            "",
            "[profile.release]",
            "lto = true",
            "codegen-units = 1",
            "",
            "[profile.ci]",
            'inherits = "release"',
            "lto = false",
            "codegen-units = 16",
            "",
        ]
    )
    write_if_changed(os.path.join(dest, "Cargo.toml"), manifest)
    write_if_changed(os.path.join(dest, "src", "main.rs"), open(os.path.join(HERE, "main.rs")).read())
    write_if_changed(os.path.join(dest, "src", "loops.rs"), loop_programs_source())


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", default="HEAD", help="git revision of the base side")
    ap.add_argument("--base-tree", help="a checkout to use as the base side instead")
    ap.add_argument("--rounds", type=int, default=30, help="timed rounds")
    ap.add_argument("--only", default="", help="time only items whose name contains this, e.g. /i4")
    ap.add_argument(
        "--set", choices=["calls", "loops", "contexts"], default="calls", help="programs to time"
    )
    ap.add_argument("--rung", choices=["native", "unarmed"], default="native", help="dispatch setting")
    ap.add_argument("--profile", default="release", help="cargo profile to build with")
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
    sh("cargo", "build", "--profile", args.profile, "-q", "--manifest-path",
       os.path.join(harness, "Cargo.toml"), env=env)
    profile_dir = "debug" if args.profile == "dev" else args.profile
    binary = os.path.join(out, "target", profile_dir, "fpc-ab")
    run = [binary, str(args.rounds), args.set, args.rung, args.only]
    sys.exit(subprocess.run(run).returncode)


if __name__ == "__main__":
    main()
