#!/usr/bin/env python3
"""Sampling profile of the simulator on a set of programs.

Links the working tree's crates into one binary (see main.rs), runs
every program of a set repeatedly for its share of the time budget
while a SIGPROF interval timer samples the instruction pointer, and
attributes the samples with `/usr/bin/addr2line -a -f -i` to the innermost
and the outermost inlined frame. Prints each item's host ns per
simulated instruction, then the two attributions.

    python3 tools/prof/prof.py                        # calls, 30 s
    python3 tools/prof/prof.py --set loops --only /i4 --seconds 60
    python3 tools/prof/prof.py --set contexts --rung unarmed --top 40

Options that choose what is profiled:

    --set calls|loops|contexts  as in tools/ab: the `calls_hot`
                  programs, perfbench's loop programs, or
                  `cluster_storm`'s fib guests on I3/I4 (load included)
    --rung native|unarmed  the armed tier or the tier without a license
    --only S      profile only items whose name contains S, e.g. /i3
    --seconds S   the whole set's run time, split evenly over its items
    --top N       lines per attribution
    --profile P   cargo profile, `release` by default (fat LTO, as the
                  benchmark builds it, plus line tables)

The timer asks for a sample every millisecond of CPU time, but the
kernel's tick bounds the rate: on a host with a 250 Hz tick it delivers
about 250 samples per CPU second, so a set needs about 30 s for a few
thousand samples. The achieved rate is printed with the results.

Builds into `.prof_build` (gitignored); reruns rebuild only what moved.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, os.path.join(REPO, "tools", "ab"))
from ab import CRATES, loop_programs_source, sh, write_if_changed  # noqa: E402

ADDR2LINE = "/usr/bin/addr2line"


def write_harness(dest):
    deps = [
        f'{c} = {{ package = "fpc-{c}", path = "{os.path.join(REPO, "crates", c)}" }}'
        for c in CRATES
    ]
    rng = os.path.join(REPO, "crates", "rng")
    manifest = "\n".join(
        [
            "[package]",
            'name = "fpc-prof"',
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
            'debug = "line-tables-only"',
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


def symbolize(binary, base, counts):
    """Maps each sampled address to its innermost inlined frame's name,
    its outermost frame's name and the innermost source line. With `-a`
    addr2line starts each address's frames with the address itself."""
    addrs = sorted(counts)
    query = "".join(f"{a - base:#x}\n" for a in addrs)
    out = subprocess.run(
        [ADDR2LINE, "-a", "-f", "-i", "-C", "-e", binary],
        input=query,
        capture_output=True,
        text=True,
        check=True,
    ).stdout.splitlines()
    frames, i = {}, 0
    for a in addrs:
        i += 1  # the address line
        names, lines = [], []
        # Pairs of lines, innermost first: function, then file:line.
        while i + 1 < len(out) and not out[i].startswith("0x"):
            names.append(out[i])
            lines.append(out[i + 1])
            i += 2
        names, lines = names or ["??"], lines or ["??"]
        where = lines[0].split(" ")[0]
        if where.startswith("/"):
            where = os.path.relpath(where, REPO)
        frames[a] = (names[0], names[-1], where)
    return frames


def report(title, counts, total, top):
    print(f"\n{title}")
    for name, n in sorted(counts.items(), key=lambda kv: -kv[1])[:top]:
        print(f"{100.0 * n / total:6.1f}%  {n:6d}  {name[:110]}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--set", choices=["calls", "loops", "contexts"], default="calls")
    ap.add_argument("--rung", choices=["native", "unarmed"], default="native")
    ap.add_argument("--only", default="", help="profile only items whose name contains this")
    ap.add_argument("--seconds", type=float, default=30.0, help="run time of the whole set")
    ap.add_argument("--top", type=int, default=25, help="lines per attribution")
    ap.add_argument("--profile", default="release", help="cargo profile to build with")
    ap.add_argument(
        "--out",
        default=os.path.join(REPO, ".prof_build"),
        help="build directory (harness, target)",
    )
    args = ap.parse_args()
    out = os.path.abspath(args.out)
    harness = os.path.join(out, "harness")
    write_harness(harness)
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(out, "target"))
    sh("cargo", "build", "--profile", args.profile, "-q", "--manifest-path",
       os.path.join(harness, "Cargo.toml"), env=env)
    profile_dir = "debug" if args.profile == "dev" else args.profile
    binary = os.path.join(out, "target", profile_dir, "fpc-prof")
    run = [binary, str(args.seconds), args.set, args.rung, args.only]
    lines = subprocess.run(run, capture_output=True, text=True, check=True).stdout.splitlines()
    base, cpu_s, counts = 0, 0.0, {}
    for line in lines:
        kind, _, rest = line.partition(" ")
        if kind == "item":
            print(rest)
        elif kind == "base":
            base = int(rest, 16)
        elif kind == "cpu":
            cpu_s = float(rest)
        elif kind == "pc":
            a, n = rest.split()
            counts[int(a, 16)] = int(n)
    total = sum(counts.values())
    rate = total / cpu_s if cpu_s > 0 else 0.0
    print(f"\n{total} samples over {cpu_s:.1f} CPU s ({rate:.0f} Hz)")
    if total == 0:
        return
    frames = symbolize(binary, base, counts)
    inner, outer, lines = {}, {}, {}
    for a, n in counts.items():
        i, o, line = frames[a]
        inner[i] = inner.get(i, 0) + n
        outer[o] = outer.get(o, 0) + n
        lines[line] = lines.get(line, 0) + n
    report("innermost inlined frame", inner, total, args.top)
    report("outermost frame (the function the code was inlined into)", outer, total, args.top)
    report("innermost source line", lines, total, args.top)


if __name__ == "__main__":
    main()
