"""The four benchmark workloads: seeded inputs, op cycles and output checks.

Every op is one CLI command.  A workload builds its inputs once from the
seed, then the benchmark repeats a fixed cycle of ops.  Each op comes with
a checker that reads what the command wrote and returns a Check: pass or
fail, the accuracy figure of the op, and the work units it completed.

Potentials are cubic polynomials with complex coefficients.  Each op slot
has a fixed shape, and the seed perturbs its coefficients by EPS (relative
size), so every seed gives new inputs while the work per op and the
accuracy figures stay comparable from seed to seed.
"""

from __future__ import annotations

import functools
import json
import math
import os
import re
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from frozen_spectra.characteristic import delta_direct, eigenvalues
from frozen_spectra.core_params import ProblemConfig, make_config
from frozen_spectra.frozen_matrix import kernel, numeric_spectrum_j1
from frozen_spectra.interval_ops import GridFunction
from frozen_spectra.main_equation import forward_w_direct, forward_w_matrix

EPS = 0.05


@dataclass(frozen=True)
class Check:
    ok: bool
    error: float | None = None  # accuracy figure of the op; None if it has none
    units: int = 0  # work units completed (counted only when ok)
    reason: str = ""


@dataclass(eq=False)
class Op:
    argv: list[str]
    check: Callable[[str], Check]  # captured stdout -> Check, run after exit code 0
    outputs: list[str] = field(default_factory=list)  # removed before the op runs
    depends: list[str] = field(default_factory=list)  # other files the check reads


@dataclass
class Setup:
    groups: list[list[Op]]  # one cycle; group order is shuffled per cycle
    warmup: list[list[str]]  # untimed commands run once before timing
    inputs: list[str]  # generated input files, hashed into the run record


@dataclass(frozen=True)
class Workload:
    build: Callable[[int, str], Setup]  # (seed, directory) -> Setup
    # Nominal cycle duration: a run makes round(seconds / cycle_s) cycles.  It
    # is about the measured cycle time on the reference machine, except that
    # forward counts its cycles at about 0.6 of their time, because its median
    # op is one slot and needs more samples, and inverse at about twice their
    # time, because its ops are so short that the tail of a longer run picks
    # up interference spikes of the shared machine.
    cycle_s: float


# -- inputs ----------------------------------------------------------------


def slot_coeffs(slot: int, rng: np.random.Generator) -> np.ndarray:
    """Cubic coefficients (ascending): a fixed shape per slot, seeded perturbation."""
    base = np.random.default_rng(1000 + slot)
    shape = base.normal(size=4) + 1j * base.normal(size=4)
    return shape + EPS * (rng.normal(size=4) + 1j * rng.normal(size=4))


def midpoints(k: int, m: int) -> np.ndarray:
    return (np.arange(k * m) + 0.5) / (k * m)


def sample(coeffs: np.ndarray, k: int, m: int) -> np.ndarray:
    return np.polynomial.polynomial.polyval(midpoints(k, m), coeffs)


def write_grid_csv(path: str, k: int, m: int, values: np.ndarray) -> None:
    with open(path, "w") as fh:
        fh.write(f"# k={k} m={m}\n")
        table = np.column_stack([midpoints(k, m), values.real, values.imag])
        np.savetxt(fh, table, fmt="%.17g", delimiter=",")


def read_grid_csv(path: str) -> tuple[int, int, np.ndarray]:
    """(k, m, values) of a '# k=<k> m=<m>' CSV with x,re,im rows on the midpoints."""
    with open(path) as fh:
        header = fh.readline()
        if not header.startswith("#"):
            raise ValueError(f"{path}: no grid header")
        fields = dict(part.split("=") for part in header[1:].split())
        k, m = int(fields["k"]), int(fields["m"])
        table = np.loadtxt(fh, delimiter=",", ndmin=2)
    if table.shape != (k * m, 3):
        raise ValueError(f"{path}: {table.shape[0]} rows for a {k}x{m} grid")
    if np.abs(table[:, 0] - midpoints(k, m)).max() > 1e-15:
        raise ValueError(f"{path}: x column is not the midpoint grid")
    return k, m, table[:, 1] + 1j * table[:, 2]


def write_config(path: str, cfg: ProblemConfig) -> None:
    with open(path, "w") as fh:
        json.dump({"config": cfg.to_dict()}, fh)


def asymptote(alpha: int, beta: int, n: int) -> float:
    return (n - (alpha + beta) / 2) ** 2 * math.pi**2


def r_permutation(j: int, k: int, m: int) -> np.ndarray:
    """Grid indices of the chop R: row nu-1 samples R_nu f on (0, 1/k)."""
    i = np.arange(m)
    rows = [
        (k - nu) * m + i if (j + nu) % 2 == 0 else (k - nu + 1) * m - 1 - i
        for nu in range(1, k + 1)
    ]
    return np.vstack(rows)


# -- forward: eigs ------------------------------------------------------------

# (alpha, beta, j, k), samples per subinterval, eigenvalue count
FORWARD_SLOTS = (
    ((0, 0, 1, 3), 256, 100),
    ((0, 1, 2, 7), 1024, 100),
    ((1, 0, 3, 8), 256, 100),
    ((1, 1, 2, 5), 1024, 100),
    ((1, 1, 1, 4), 256, 400),
    ((0, 1, 1, 3), 256, 100),
    ((1, 0, 1, 3), 1024, 100),
    ((0, 0, 3, 8), 1024, 100),
    ((1, 0, 2, 5), 256, 400),
)
FORWARD_CHECKED = (1, 2, 5, 10, 25, 50, 100, 200)
FORWARD_REFINE = 4
# An eigenvalue passes when one Newton correction on the refined grid moves it
# by at most this share of the gap to the next zero-potential eigenvalue.
FORWARD_RTOL = 1e-6


def newton_reference(q: GridFunction, cfg: ProblemConfig, lam: complex) -> complex:
    """One central-difference Newton step of Delta on grid q, from lam."""
    h = 1e-6 * (1.0 + abs(lam))
    d0 = delta_direct(q, cfg, lam)
    slope = (delta_direct(q, cfg, lam + h) - delta_direct(q, cfg, lam - h)) / (2 * h)
    return lam - d0 / slope


def check_forward(
    cfg: ProblemConfig, coeffs, m: int, count: int, csv_path: str, json_path: str, _stdout: str = ""
) -> Check:
    rows = np.loadtxt(csv_path, delimiter=",", ndmin=2)
    if rows.shape != (count, 3) or not np.array_equal(rows[:, 0], np.arange(1, count + 1)):
        return Check(False, reason=f"expected rows 1..{count}, got shape {rows.shape}")
    lams = rows[:, 1] + 1j * rows[:, 2]
    with open(json_path) as fh:
        spec = json.load(fh)
    if (spec["alpha"], spec["beta"]) != (cfg.alpha, cfg.beta):
        return Check(False, reason="spectrum JSON carries the wrong flags")
    if not np.array_equal(np.array(spec["eigenvalues"], dtype=float).reshape(-1, 2), rows[:, 1:]):
        return Check(False, reason="spectrum JSON and CSV disagree")
    fine = GridFunction(cfg.k, FORWARD_REFINE * m, sample(coeffs, cfg.k, FORWARD_REFINE * m))
    worst = 0.0
    for n in sorted({i for i in FORWARD_CHECKED if i <= count} | {count}):
        lam = complex(lams[n - 1])
        lam0 = asymptote(cfg.alpha, cfg.beta, n)
        gap = asymptote(cfg.alpha, cfg.beta, n + 1) - lam0
        if abs(lam - lam0) > 0.5 * gap:
            return Check(False, reason=f"lambda_{n}={lam} is not on asymptote {lam0:.6g}")
        err = abs(lam - newton_reference(fine, cfg, lam))
        if not err <= FORWARD_RTOL * gap:
            return Check(False, reason=f"lambda_{n} is {err:.3e} off the refined root")
        worst = max(worst, err)
    return Check(True, worst, count)


def build_forward(seed: int, d: str) -> Setup:
    rng = np.random.default_rng(seed)
    groups, inputs = [], []
    for slot, (flags, m, count) in enumerate(FORWARD_SLOTS):
        cfg = make_config(*flags)
        coeffs = slot_coeffs(slot, rng)
        cfg_path, q_path = f"{d}/f{slot}.config.json", f"{d}/f{slot}.q.csv"
        write_config(cfg_path, cfg)
        write_grid_csv(q_path, cfg.k, m, sample(coeffs, cfg.k, m))
        inputs += [cfg_path, q_path]
        csv_path, json_path = f"{d}/f{slot}.eigs.csv", f"{d}/f{slot}.spectrum.json"
        argv = ["eigs", "--config", cfg_path, "--q", q_path, "--count", str(count),
                "--out", csv_path, "--spectrum-out", json_path]
        check = functools.partial(check_forward, cfg, coeffs, m, count, csv_path, json_path)
        groups.append([Op(argv, check, outputs=[csv_path, json_path])])
    warm = ["eigs", "--config", f"{d}/f0.config.json", "--q", f"{d}/f0.q.csv", "--count", "10",
            "--out", f"{d}/warm.csv"]
    return Setup(groups, [warm], inputs)


# -- inverse: reconstruct ---------------------------------------------------------

INVERSE_CONFIGS = ((0, 0, 2, 5), (1, 1, 1, 4), (0, 1, 1, 3), (1, 0, 1, 4))
INVERSE_SWEEP = ((100, 25), (200, 50), (400, 100))  # (n_used, modes)
INVERSE_M = 256
# A reconstruction passes when its RMS distance to the iso-spectral family of
# the true potential is at most INVERSE_C / sqrt(modes) times the true
# potential's RMS: the error is the Fourier floor of W's jumps, which decays
# like modes^-1/2 (about 1.1 / sqrt(modes) on these inputs).
INVERSE_C = 1.6


def family_distance(cfg: ProblemConfig, q: np.ndarray, q_true: np.ndarray, x: tuple[int, ...]) -> float:
    """RMS distance from q to {q_true + R^-1(X f)}; plain RMS when X is empty."""
    diff = (q - q_true)[r_permutation(cfg.j, cfg.k, len(q) // cfg.k)]
    if x:
        xv = np.array(x, dtype=float)[:, None]
        diff = diff - xv * (xv.T @ diff) / cfg.k
    return float(np.sqrt(np.mean(np.abs(diff) ** 2)))


def check_inverse(
    cfg: ProblemConfig, q_true: np.ndarray, modes: int, out_path: str, kernel_path: str, _stdout: str = ""
) -> Check:
    k, m, q = read_grid_csv(out_path)
    if (k, m) != (cfg.k, INVERSE_M):
        return Check(False, reason=f"reconstruction on a {k}x{m} grid")
    x = kernel(cfg).generator
    if x:
        _, _, g = read_grid_csv(kernel_path)
        want = np.broadcast_to(np.array(x, dtype=complex)[:, None], (k, m))
        if not np.array_equal(g[r_permutation(cfg.j, k, m)], want):
            return Check(False, reason="kernel direction is not R^-1(X)")
    elif os.path.exists(kernel_path):
        return Check(False, reason="non-degenerate config wrote a kernel direction")
    err = family_distance(cfg, q, q_true, x)
    if not err <= INVERSE_C / math.sqrt(modes) * float(np.sqrt(np.mean(np.abs(q_true) ** 2))):
        return Check(False, err, reason=f"RMS distance {err:.3e} to the true family")
    return Check(True, err, 1)


def build_inverse(seed: int, d: str) -> Setup:
    rng = np.random.default_rng(seed)
    groups, inputs = [], []
    count = max(n for n, _ in INVERSE_SWEEP)
    for slot, flags in enumerate(INVERSE_CONFIGS):
        cfg = make_config(*flags)
        q_true = sample(slot_coeffs(slot, rng), cfg.k, INVERSE_M)
        cfg_path, spec_path = f"{d}/i{slot}.config.json", f"{d}/i{slot}.spectrum.json"
        write_config(cfg_path, cfg)
        eigenvalues(GridFunction(cfg.k, INVERSE_M, q_true), cfg, count).dump(spec_path)
        inputs += [cfg_path, spec_path]
        for n_used, modes in INVERSE_SWEEP:
            out, ker = f"{d}/i{slot}.{n_used}.q.csv", f"{d}/i{slot}.{n_used}.kernel.csv"
            argv = ["reconstruct", "--config", cfg_path, "--spectrum", spec_path, "--m", str(INVERSE_M),
                    "--n-used", str(n_used), "--modes", str(modes), "--out", out, "--kernel-out", ker]
            check = functools.partial(check_inverse, cfg, q_true, modes, out, ker)
            groups.append([Op(argv, check, outputs=[out, ker])])
    return Setup(groups, [groups[0][0].argv], inputs)


# -- dense: forward-w then invert -----------------------------------------------

DENSE_SLOTS = (((0, 0, 3, 7), 4096), ((1, 1, 3, 8), 4096), ((1, 0, 30, 61), 512), ((0, 1, 37, 101), 256))
DENSE_ORACLE_RTOL = 1e-13  # forward-w against the matrix form of the forward map
DENSE_ROUNDTRIP_RTOL = 1e-10  # invert: ||F(q_out) - W_in||_inf / ||W_in||_inf


def check_forward_w(cfg: ProblemConfig, q: np.ndarray, w_path: str, _stdout: str = "") -> Check:
    k, m, w = read_grid_csv(w_path)
    oracle = forward_w_matrix(GridFunction(k, m, q), cfg).values
    rel = np.abs(w - oracle).max() / np.abs(oracle).max()
    if not rel <= DENSE_ORACLE_RTOL:
        return Check(False, reason=f"W differs from the matrix form by {rel:.3e}")
    return Check(True, None, 2 * k * m)


def check_invert(
    cfg: ProblemConfig, w_path: str, out_path: str, kernel_path: str, _stdout: str = ""
) -> Check:
    k, m, w = read_grid_csv(w_path)
    k2, m2, q = read_grid_csv(out_path)
    if (k2, m2) != (k, m):
        return Check(False, reason="inverted potential is on another grid")
    rel = float(np.abs(forward_w_direct(GridFunction(k, m, q), cfg).values - w).max() / np.abs(w).max())
    if not rel <= DENSE_ROUNDTRIP_RTOL:
        return Check(False, rel, reason=f"round-trip residual {rel:.3e}")
    units = 2 * k * m
    if kernel(cfg).dimension:
        _, _, g = read_grid_csv(kernel_path)
        if not (np.array_equal(np.abs(g), np.ones(k * m))
                and np.abs(forward_w_direct(GridFunction(k, m, g), cfg).values).max() <= 1e-12):
            return Check(False, rel, reason="kernel direction is not a unit null direction of the forward map")
        units += k * m
    elif os.path.exists(kernel_path):
        return Check(False, rel, reason="non-degenerate config wrote a kernel direction")
    return Check(True, rel, units)


def build_dense(seed: int, d: str) -> Setup:
    rng = np.random.default_rng(seed)
    groups, inputs = [], []
    for slot, (flags, m) in enumerate(DENSE_SLOTS):
        cfg = make_config(*flags)
        q = sample(slot_coeffs(slot, rng), cfg.k, m)
        cfg_path, q_path = f"{d}/d{slot}.config.json", f"{d}/d{slot}.q.csv"
        write_config(cfg_path, cfg)
        write_grid_csv(q_path, cfg.k, m, q)
        inputs += [cfg_path, q_path]
        w, out, ker = f"{d}/d{slot}.w.csv", f"{d}/d{slot}.q_out.csv", f"{d}/d{slot}.kernel.csv"
        fw = Op(["forward-w", "--config", cfg_path, "--q", q_path, "--out", w],
                functools.partial(check_forward_w, cfg, q, w), outputs=[w])
        inv = Op(["invert", "--config", cfg_path, "--w", w, "--out", out, "--kernel-out", ker],
                 functools.partial(check_invert, cfg, w, out, ker), outputs=[out, ker], depends=[w])
        groups.append([fw, inv])
    smallest = groups[-1]
    return Setup(groups, [smallest[0].argv, smallest[1].argv], inputs)


# -- exact: verify -------------------------------------------------------------

EXACT_KMAX, EXACT_KMAX_THEOREM1, EXACT_KMAX_FORWARD = 20, 20, 8
_BLOCK = re.compile(r"\[verify\] (.+): (\d+) checks passed$")


def coprime_config_count(kmax: int) -> int:
    pairs = sum(1 for k in range(2, kmax + 1) for j in range(1, k // 2 + 1) if math.gcd(j, k) == 1)
    return 4 * pairs


def expected_verify_blocks(kmax: int, kmax_t1: int, kmax_fwd: int) -> list[tuple[str, int]]:
    """(block name, check count) that a passing `verify` prints, counted independently."""
    cfgs = coprime_config_count(kmax)
    return [
        ("theorem-1 polynomial identity", 4 * (kmax_t1 - 1)),
        ("theorem-2 matrix reduction", cfgs),
        ("corollary-1/3 determinants", 4 * (kmax_t1 - 1) + cfgs),
        ("lemma-2/3 kernels, ranks, eigenvectors", cfgs + sum(3 * k for k in range(2, min(kmax, 16) + 1))),
        ("corollary-2 closed-form spectra", 4 * max(0, min(kmax, 20) - 1)),
        ("forward-map oracle", coprime_config_count(kmax_fwd)),
    ]


def closed_form_spectrum(k: int, alpha: int, beta: int) -> list[complex]:
    if (alpha, beta) == (0, 0):
        return [0j] + [2j * math.cos(v * math.pi / k) for v in range(1, k)]
    if (alpha, beta) == (1, 0):
        return [complex(2 * math.cos((2 * v + 1) * math.pi / (2 * k))) for v in range(k)]
    return [complex(2 * math.cos(v * math.pi / k)) for v in range(k)]


def corollary2_error(kmax: int) -> float:
    """Worst distance of the numeric j=1 spectra from their closed forms (k <= 20)."""
    worst = 0.0
    for k in range(2, min(kmax, 20) + 1):
        for alpha, beta in ((0, 0), (1, 0), (1, 1)):
            remaining = closed_form_spectrum(k, alpha, beta)
            for z in numeric_spectrum_j1(k, alpha, beta):
                i = min(range(len(remaining)), key=lambda t: abs(z - remaining[t]))
                worst = max(worst, abs(z - remaining.pop(i)))
    return worst


def check_verify(kmax: int, kmax_t1: int, kmax_fwd: int, stdout: str) -> Check:
    lines = stdout.strip().splitlines()
    blocks = [(mt.group(1), int(mt.group(2))) for mt in map(_BLOCK.match, lines) if mt]
    expected = expected_verify_blocks(kmax, kmax_t1, kmax_fwd)
    if blocks != expected:
        return Check(False, reason=f"verify blocks {blocks} != expected {expected}")
    if not lines or lines[-1] != f"[verify] all blocks passed (kmax={kmax})":
        return Check(False, reason="verify did not report that all blocks passed")
    return Check(True, corollary2_error(kmax), sum(n for _, n in blocks))


def build_exact(seed: int, d: str) -> Setup:
    flags = ["--kmax-theorem1", str(EXACT_KMAX_THEOREM1), "--kmax-forward", str(EXACT_KMAX_FORWARD)]
    op = Op(["verify", "--kmax", str(EXACT_KMAX)] + flags,
            functools.partial(check_verify, EXACT_KMAX, EXACT_KMAX_THEOREM1, EXACT_KMAX_FORWARD))
    return Setup([[op]], [["verify", "--kmax", "4"] + flags], [])


WORKLOADS = {
    "forward": Workload(build_forward, 1.5),
    "inverse": Workload(build_inverse, 0.48),
    "dense": Workload(build_dense, 1.0),
    "exact": Workload(build_exact, 0.45),
}
