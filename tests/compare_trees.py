"""Run the CLI outputs a refactor must keep in two source trees and diff them byte for byte.

    python tests/compare_trees.py OLD NEW

OLD and NEW are each a checkout (holding src/frozen_spectra) or a source
directory (holding frozen_spectra), relative to the working directory or
absolute.  Each tree runs the same commands, every subcommand of the CLI,
in a fresh temporary directory: verify at the defaults and at the
benchmark's exact ranges; matrix, classify, forward-w, invert
--kernel-out, isospectral (zero q0, the model profile) on the configs
below; cheb; delta on the demo potential on both sides of the series
threshold; eigs --spectrum-out and reconstruct --kernel-out of that
spectrum on a degenerate and a regular small config; and example.  Per
command the exit code, stdout and stderr must match, and so must every
file it writes, byte for byte; a run manifest is compared without its
wall_time_s.  An exit code outside the CLI's 0, 2, 3 and 4 fails the
command even where both trees give it.  Prints one line per command and
exits 1 on any difference or failure.  With OLD and NEW the same tree it
checks that a rerun in a fresh directory writes the same bytes.

The float files depend on numpy's build, so this is a tool for two trees
on one machine, not a committed golden; pytest does not collect it.
"""

from __future__ import annotations

import filecmp
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

# (alpha, beta, j, k, m): the dense, degenerate and even-k configs at m = 4096, and the k = 3999 one at m = 2
CONFIGS = [(0, 1, 3, 7, 4096), (0, 0, 3, 7, 4096), (1, 1, 3, 8, 4096), (0, 1, 1000, 3999, 2)]
# (alpha, beta, j, k): the degenerate and the regular config of eigs and reconstruct, at m = 64
SPECTRUM_CONFIGS = [(0, 0, 2, 5), (0, 1, 1, 3)]
EXAMPLES = ["I7", "I8", "II", "III", "IV"]
LAMBDAS = "0;1e-7;0.99;1.01;-0.98+0.1j;-2500;1e4+3000j"  # |lambda| below and above the series threshold 1
CLI_EXITS = {0, 2, 3, 4}  # ok, usage, malformed input, numerical failure


def _flags(alpha: int, beta: int, j: int, k: int) -> list[str]:
    return ["--alpha", str(alpha), "--beta", str(beta), "--j", str(j), "--k", str(k)]


def commands() -> list[tuple[str, list[str]]]:
    """(name, argv) of every command, in run order; an invert or a reconstruct reads the file of its config before."""
    exact = ["--kmax", "20", "--kmax-theorem1", "20", "--kmax-forward", "8"]
    runs = [("verify", ["verify"]), ("verify 20/20/8", ["verify", *exact])]
    for alpha, beta, j, k, m in CONFIGS:
        tag = f"{alpha}{beta}_{j}_{k}"
        flags = _flags(alpha, beta, j, k)
        runs += [
            (f"matrix {tag}", ["matrix", *flags, "--out", f"matrix_{tag}.txt"]),
            (f"classify {tag}", ["classify", *flags]),
            (f"forward-w {tag}", ["forward-w", *flags, "--q", "demo", "--m", str(m), "--out", f"w_{tag}.csv"]),
            (f"invert {tag}", ["invert", *flags, "--w", f"w_{tag}.csv", "--out", f"q_{tag}.csv",
                               "--kernel-out", f"kernel_{tag}.csv"]),
            (f"isospectral {tag}", ["isospectral", *flags, "--q0", "zero", "--m", str(m), "--out", f"iso_{tag}.csv"]),
        ]
    for kind in ("T", "U"):
        cheb = ["cheb", "--kind", kind, "--n", "12"]
        runs += [(f"cheb {kind}", cheb), (f"cheb {kind} --scaled", [*cheb, "--scaled"])]
    for alpha in (0, 1):
        for beta in (0, 1):
            flags = _flags(alpha, beta, 2, 7)
            runs.append((f"delta {alpha}{beta}_2_7", ["delta", *flags, "--q", "demo", "--m", "64", "--lambdas", LAMBDAS,
                                                      "--out", f"delta_{alpha}{beta}.csv"]))
    for alpha, beta, j, k in SPECTRUM_CONFIGS:
        tag, flags = f"{alpha}{beta}_{j}_{k}", _flags(alpha, beta, j, k)
        runs += [
            (f"eigs {tag}", ["eigs", *flags, "--q", "demo", "--m", "64", "--count", "60", "--out", f"eigs_{tag}.csv",
                             "--spectrum-out", f"spectrum_{tag}.json"]),
            (f"reconstruct {tag}", ["reconstruct", *flags, "--spectrum", f"spectrum_{tag}.json", "--m", "64",
                                    "--n-used", "60", "--modes", "15", "--out", f"reconstructed_{tag}.csv",
                                    "--kernel-out", f"reconstructed_kernel_{tag}.csv"]),
        ]
    for case in EXAMPLES:
        runs.append((f"example {case}", ["example", "--id", case, "--out", f"example_{case}.txt",
                                         "--samples-out", f"example_{case}.csv", "--svg", f"example_{case}.svg"]))
    return runs


def _source(tree: str) -> str:
    """The absolute source directory of tree: each command runs with a temporary directory as its cwd."""
    src = Path(tree).resolve() / "src"
    return str(src if (src / "frozen_spectra").is_dir() else src.parent)


def _run(source: str, cwd: str, argv: list[str]) -> tuple[int, bytes, bytes]:
    env = {**os.environ, "PYTHONPATH": source}
    p = subprocess.run([sys.executable, "-m", "frozen_spectra.cli", *argv], cwd=cwd, env=env, capture_output=True)
    return p.returncode, p.stdout, p.stderr


def _manifest(path: Path) -> dict:
    return {key: value for key, value in json.loads(path.read_text()).items() if key != "wall_time_s"}


def _same_file(a: Path, b: Path) -> bool:
    if a.name.endswith(".manifest.json"):
        return _manifest(a) == _manifest(b)
    return filecmp.cmp(a, b, shallow=False)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    sources = [_source(tree) for tree in argv]
    runs = commands()
    failed = 0
    with tempfile.TemporaryDirectory() as old_dir, tempfile.TemporaryDirectory() as new_dir:
        for name, cmd in runs:
            before = {d: set(os.listdir(d)) for d in (old_dir, new_dir)}
            old, new = (_run(source, d, cmd) for source, d in zip(sources, (old_dir, new_dir)))
            written = [set(os.listdir(d)) - before[d] for d in (old_dir, new_dir)]
            diffs = [what for what, a, b in zip(("exit code", "stdout", "stderr"), old, new) if a != b]
            if written[0] != written[1]:
                diffs.append(f"written files {sorted(written[0] ^ written[1])}")
            diffs += [f for f in sorted(written[0] & written[1]) if not _same_file(Path(old_dir, f), Path(new_dir, f))]
            bad = sorted({old[0], new[0]} - CLI_EXITS)
            failed += bool(diffs or bad)
            verdict = f"DIFFER: {', '.join(diffs)}" if diffs else "same"
            print(f"{name}: exit {old[0]}, {len(written[0])} files, {verdict}" + "".join(f"; FAIL: exit {c}" for c in bad))
    print(f"{failed} of {len(runs)} commands differ or exit outside 0, 2, 3 and 4")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
