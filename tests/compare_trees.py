"""Run the CLI outputs a refactor must keep in two source trees and diff them byte for byte.

    python tests/compare_trees.py OLD NEW

OLD and NEW are each a checkout (holding src/frozen_spectra) or a source
directory (holding frozen_spectra).  Each tree runs the same commands in a
fresh temporary directory: verify at the defaults and at the benchmark's
exact ranges, and matrix, forward-w, invert --kernel-out, isospectral
(zero q0, the model profile) and example on the configs below.  Per
command the exit code, stdout and stderr must match, and so must every
file it writes, byte for byte; a run manifest is compared without its
wall_time_s.  Prints one line per command and exits 1 on any difference.

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
EXAMPLES = ["I7", "I8", "II", "III", "IV"]


def commands() -> list[tuple[str, list[str]]]:
    """(name, argv) of every command, in run order; an invert reads the forward-w file of its config."""
    exact = ["--kmax", "20", "--kmax-theorem1", "20", "--kmax-forward", "8"]
    runs = [("verify", ["verify"]), ("verify 20/20/8", ["verify", *exact])]
    for alpha, beta, j, k, m in CONFIGS:
        tag = f"{alpha}{beta}_{j}_{k}"
        flags = ["--alpha", str(alpha), "--beta", str(beta), "--j", str(j), "--k", str(k)]
        runs += [
            (f"matrix {tag}", ["matrix", *flags, "--out", f"matrix_{tag}.txt"]),
            (f"forward-w {tag}", ["forward-w", *flags, "--q", "demo", "--m", str(m), "--out", f"w_{tag}.csv"]),
            (f"invert {tag}", ["invert", *flags, "--w", f"w_{tag}.csv", "--out", f"q_{tag}.csv",
                               "--kernel-out", f"kernel_{tag}.csv"]),
            (f"isospectral {tag}", ["isospectral", *flags, "--q0", "zero", "--m", str(m), "--out", f"iso_{tag}.csv"]),
        ]
    for case in EXAMPLES:
        runs.append((f"example {case}", ["example", "--id", case, "--out", f"example_{case}.txt",
                                         "--samples-out", f"example_{case}.csv", "--svg", f"example_{case}.svg"]))
    return runs


def _source(tree: str) -> str:
    src = Path(tree) / "src"
    return str(src if (src / "frozen_spectra").is_dir() else Path(tree))


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
    differ = 0
    with tempfile.TemporaryDirectory() as old_dir, tempfile.TemporaryDirectory() as new_dir:
        for name, cmd in runs:
            before = {d: set(os.listdir(d)) for d in (old_dir, new_dir)}
            old, new = (_run(source, d, cmd) for source, d in zip(sources, (old_dir, new_dir)))
            written = [set(os.listdir(d)) - before[d] for d in (old_dir, new_dir)]
            diffs = [what for what, a, b in zip(("exit code", "stdout", "stderr"), old, new) if a != b]
            if written[0] != written[1]:
                diffs.append(f"written files {sorted(written[0] ^ written[1])}")
            diffs += [f for f in sorted(written[0] & written[1]) if not _same_file(Path(old_dir, f), Path(new_dir, f))]
            differ += bool(diffs)
            verdict = f"DIFFER: {', '.join(diffs)}" if diffs else "same"
            print(f"{name}: exit {old[0]}, {len(written[0])} files, {verdict}")
    print(f"{differ} of {len(runs)} commands differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
