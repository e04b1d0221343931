"""Command-line front end.

Subcommands: matrix, classify, cheb, eigs, delta, forward-w, invert,
reconstruct, isospectral, example, verify.  Structured JSON errors go to
stderr; exit codes are 0 (ok), 2 (usage), 3 (malformed input),
4 (numerical failure).  Every command that writes an output file also
writes <out>.manifest.json describing the run.  A rerun writes the data
files byte-identical; its manifests differ only in wall_time_s.  dispatch
runs the prologue every command shares: it rejects two output flags that
name one file, reads a command's --config or flags into args.config, and
sets the manifest's command, config and wall time.

A size is refused by one of two rules, each with one implementation.  A
range whose work grows faster than its memory, cheb --n and verify's
three ranges, is a count checked against MAX_RANGE before any work
starts.  A size whose work is linear in its memory, a grid, a dense
matrix or a count of eigenvalues, is an allocation probe
(core_params.allocate): the allocation runs first, and a size the
allocator refuses is a ValueError naming it.  A MemoryError that
neither rule catches exits 3 as well, with the error type MemoryError.
"""

from __future__ import annotations

import argparse
import cmath
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, field
from functools import lru_cache

import numpy as np

from . import chebyshev, frozen_matrix, identities
from .characteristic import (
    EigenvalueCollisionError,
    RootConvergenceError,
    Spectrum,
    delta_direct,
    eigenvalues,
)
from .core_params import ProblemConfig, classify, load_json, make_config, normalize_to_half, require_grid
from .interval_ops import GridFunction, read_csv, read_profile_csv, write_csv
from .inverse_pipeline import (
    EXAMPLE_CASES,
    SpectrumMismatchError,
    _profile_samples,
    build_isospectral_potential,
    invert_from_spectrum,
    quadratic_profile,
    reference_example,
)
from .main_equation import InconsistentSystemError, forward_w_direct, solve_inverse

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BAD_INPUT = 3
EXIT_NUMERICAL = 4
# the one upper bound of cheb --n and verify's ranges, checked before any work; per flag the cost grows as
#   --n: a stored Chebyshev run of n terms of up to n coefficients of up to n bits, memory n^3
#   --kmax: Theorem 2 steps 4k rows per j for every k, time K^3; its stack of 2K(K + 1) rows, memory K^2
#   --kmax-theorem1: a stored char-poly run per flag pair, memory K^3 (about 240 MB at the bound)
#   --kmax-forward: the forward oracle builds a (4, k, k) stack for each coprime (j, k), time K^4
MAX_RANGE = 1000


class VerifyFailure(Exception):
    """Identity checks of `verify` that failed; args[0] lists their labels."""


_NUMERICAL_ERRORS = (
    VerifyFailure,
    RootConvergenceError,
    EigenvalueCollisionError,
    InconsistentSystemError,
    SpectrumMismatchError,
    ArithmeticError,
    np.linalg.LinAlgError,
)


@dataclass
class RunManifest:
    command: str = ""  # dispatch sets it, wall_time_s and, unless the command did, config
    config: dict | None = None
    inputs: dict = field(default_factory=dict)
    grid: dict = field(default_factory=dict)
    tolerances: dict = field(default_factory=dict)
    outputs: list = field(default_factory=list)
    wall_time_s: float = 0.0

    def write(self) -> None:
        text = json.dumps(asdict(self), indent=1, sort_keys=True) + "\n"
        for out in self.outputs:
            _emit(text, f"{out}.manifest.json")


def _load_config(args) -> ProblemConfig:
    """The --config file's config, read by load_json so that every ValueError names the file, else the flags'."""
    if not args.config:
        return make_config(args.alpha, args.beta, args.j, args.k)
    return load_json(args.config, lambda d: ProblemConfig.from_dict(d.get("config", d) if isinstance(d, dict) else d))


def _check_range(flag: str, n: int) -> None:
    if n > MAX_RANGE:
        raise ValueError(f"{flag} must be <= {MAX_RANGE}, got {n}")


def _demo_potential(x: np.ndarray) -> np.ndarray:
    return (2.0 + 1.0j) * x**2 * (1 - x) + 0.5 * np.cos(3.0 * x)


def _read_grid(path: str, cfg: ProblemConfig) -> GridFunction:
    """read_csv, then the one grid-vs-config check; both errors name the file."""
    g = read_csv(path)
    try:
        require_grid(g, cfg)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return g


def _load_potential(spec_str: str, cfg: ProblemConfig, m: int) -> GridFunction:
    if spec_str == "zero":
        return GridFunction.zeros(cfg.k, m)
    if spec_str == "demo":
        return GridFunction.from_callable(_demo_potential, cfg.k, m)
    return _read_grid(spec_str, cfg)


def _emit(text: str, out: str | None) -> list[str]:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
        return [out]
    sys.stdout.write(text)
    return []


def _check_distinct_outputs(args) -> None:
    """Reject two output flags that name one file, a file's manifest included, before anything is written."""
    written: dict[str, str] = {}
    for flag in ("--out", "--spectrum-out", "--kernel-out", "--samples-out", "--svg"):
        path = getattr(args, flag[2:].replace("-", "_"), None)
        for name in (path, f"{path}.manifest.json") if path else ():
            first = written.setdefault(os.path.realpath(name), flag)
            if first != flag:
                raise ValueError(f"{first} and {flag} both write {name}")


def _write_solution(sol, out: str, kernel_out: str | None) -> list[str]:
    """The particular solution, then its kernel direction when there is one and kernel_out asks for it."""
    more = [(sol.kernel_generator, kernel_out)] if sol.kernel_generator is not None and kernel_out else []
    write_csv(sol.particular, out, *more)
    return [out] + [path for _, path in more]


def cmd_matrix(args) -> RunManifest:
    cfg, _ = normalize_to_half(args.config)
    entries = frozen_matrix.build_matrix(cfg).tolist()
    return RunManifest(config=cfg.to_dict(), outputs=_emit(json.dumps(entries) + "\n", args.out))


def cmd_classify(args) -> RunManifest:
    cls = classify(args.config)
    print(json.dumps({"kind": cls.kind.value, "case": cls.case_label.value}))
    return RunManifest()


def cmd_cheb(args) -> RunManifest:
    _check_range("--n", args.n)
    if args.scaled:
        poly = chebyshev.scaled_cheb_int(args.kind, args.n)
    else:
        poly = chebyshev.cheb_T(args.n) if args.kind == "T" else chebyshev.cheb_U(args.n)
    print(json.dumps(list(poly.coeffs)))
    return RunManifest()


def cmd_eigs(args) -> RunManifest:
    q = _load_potential(args.q, args.config, args.m)
    spec = eigenvalues(q, args.config, args.count)
    lines = [f"{n},{z.real!r},{z.imag!r}\n" for n, z in enumerate(spec.eigenvalues, start=1)]
    outputs = _emit("".join(lines), args.out)
    if args.spectrum_out:
        spec.dump(args.spectrum_out)
        outputs.append(args.spectrum_out)
    return RunManifest(
        inputs={"q": args.q, "count": args.count},
        grid={"k": q.k, "m": q.m},
        outputs=outputs,
    )


def cmd_delta(args) -> RunManifest:
    q = _load_potential(args.q, args.config, args.m)
    lams = []
    for entry in args.lambdas.split(";"):
        try:
            lams.append(complex(entry))
        except ValueError:
            raise ValueError(f"--lambdas {args.lambdas!r}: entry {entry!r} is not a complex number") from None
    if not all(cmath.isfinite(lam) for lam in lams):
        raise ValueError(f"--lambdas {args.lambdas!r}: every lambda must be finite")
    lines = []
    for lam in lams:
        with np.errstate(over="ignore", invalid="ignore"):
            d = delta_direct(q, args.config, lam)
        if not cmath.isfinite(d):
            raise ArithmeticError(f"Delta is not finite at lambda={lam}: it overflows double precision")
        lines.append(f"{lam.real!r},{lam.imag!r},{d.real!r},{d.imag!r}\n")
    return RunManifest(
        inputs={"q": args.q, "lambdas": args.lambdas},
        grid={"k": q.k, "m": q.m},
        outputs=_emit("".join(lines), args.out),
    )


def cmd_forward_w(args) -> RunManifest:
    q = _load_potential(args.q, args.config, args.m)
    w = forward_w_direct(q, args.config)
    write_csv(w, args.out)
    return RunManifest(inputs={"q": args.q}, grid={"k": w.k, "m": w.m}, outputs=[args.out])


def cmd_invert(args) -> RunManifest:
    w = _read_grid(args.w, args.config)
    sol = solve_inverse(w, args.config, residual_rtol=args.residual_rtol)
    return RunManifest(
        inputs={"w": args.w},
        grid={"k": w.k, "m": w.m},
        tolerances={"residual_rtol": args.residual_rtol},
        outputs=_write_solution(sol, args.out, args.kernel_out),
    )


def cmd_reconstruct(args) -> RunManifest:
    cfg = args.config
    spec = Spectrum.load(args.spectrum)
    if (spec.alpha, spec.beta) != (cfg.alpha, cfg.beta):
        raise ValueError(f"{args.spectrum}: flags {spec.alpha, spec.beta} differ from the config's {cfg.alpha, cfg.beta}")
    sol = invert_from_spectrum(
        spec, cfg, args.m, args.n_used, args.modes, residual_rtol=args.residual_rtol
    )
    return RunManifest(
        inputs={"spectrum": args.spectrum, "n_used": args.n_used, "modes": args.modes},
        grid={"k": cfg.k, "m": args.m},
        tolerances={"residual_rtol": args.residual_rtol},
        outputs=_write_solution(sol, args.out, args.kernel_out),
    )


def cmd_isospectral(args) -> RunManifest:
    cfg = args.config
    q0 = _load_potential(args.q0, cfg, args.m)
    if args.f == "model-profile":
        f = quadratic_profile(cfg.k)
    else:
        f, fk = read_profile_csv(args.f)
        if fk != cfg.k:
            raise ValueError(f"{args.f}: profile is for k={fk}, config has k={cfg.k}")
        try:
            f = _profile_samples(f, cfg.k, q0.m)
        except ValueError as exc:
            raise ValueError(f"{args.f}: {exc}") from None
    q = build_isospectral_potential(q0, cfg, f)
    write_csv(q, args.out)
    return RunManifest(inputs={"q0": args.q0, "f": args.f}, grid={"k": q.k, "m": q.m}, outputs=[args.out])


def _render_svg(supp: GridFunction) -> str:
    """Piecewise profile of the supplement as one polyline per subinterval."""
    xs, ys = supp.midpoints(), supp.values.real
    m = supp.m
    lo, hi = min(ys.min(), -1.05), max(ys.max(), 1.05)
    width, height, pad = 640, 360, 30.0

    def sx(x):
        return pad + x * (width - 2 * pad)

    def sy(y):
        return height - pad - (y - lo) / (hi - lo) * (height - 2 * pad)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="{pad}" y="{pad}" width="{width - 2 * pad}" height="{height - 2 * pad}" '
        'fill="none" stroke="#888" stroke-width="1"/>',
        f'<line x1="{sx(0):.2f}" y1="{sy(0):.2f}" x2="{sx(1):.2f}" y2="{sy(0):.2f}" '
        'stroke="#bbb" stroke-width="1"/>',
    ]
    for seg in range(supp.k):
        pts = " ".join(
            f"{sx(x):.2f},{sy(y):.2f}"
            for x, y in zip(xs[seg * m : (seg + 1) * m], ys[seg * m : (seg + 1) * m])
        )
        parts.append(f'<polyline points="{pts}" fill="none" stroke="#1f5fbf" stroke-width="1.5"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def cmd_example(args) -> RunManifest:
    report = reference_example(args.id)
    supp = report.supplement(args.m)  # validates --m before any file is written
    outputs = _emit(report.table + "\n", args.out)
    if args.samples_out:
        write_csv(supp, args.samples_out)
        outputs.append(args.samples_out)
    if args.svg:
        outputs += _emit(_render_svg(supp), args.svg)
    return RunManifest(config=report.config.to_dict(), inputs={"id": args.id}, outputs=outputs)


def cmd_verify(args) -> RunManifest:
    """Run the identity blocks, print per block how many checks passed and failed; raise VerifyFailure if any fails."""
    for flag in ("--kmax", "--kmax-theorem1", "--kmax-forward"):
        n = getattr(args, flag[2:].replace("-", "_"))
        if n < 2:  # below 2 a block would check nothing
            raise ValueError(f"{flag} must be >= 2, got {n}")
        _check_range(flag, n)
    failures: list[str] = []
    for block in identities.sweeps(args.kmax, args.kmax_theorem1, args.kmax_forward):
        failed = block.failures()
        failures += failed
        tally = f"{block.ok.size - len(failed)} checks passed" + (f", {len(failed)} failed" if failed else "")
        print(f"[verify] {block.name}: {tally}")
    if failures:
        raise VerifyFailure(failures)
    print(f"[verify] all blocks passed (kmax={args.kmax})")
    return RunManifest()


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parse_args keeps no state between calls."""
    ap = argparse.ArgumentParser(
        prog="frozen-spectra",
        description="Frozen-argument boundary value problems: matrices, spectra, inverse recovery",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name: str, fn, help: str, config: bool = False) -> argparse.ArgumentParser:
        """A subparser running fn; config=True adds the --config/--alpha/--beta/--j/--k flags dispatch reads."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(fn=fn)
        if config:
            p.add_argument("--config", help="JSON file with a {'config': {alpha,beta,j,k}} object")
            p.add_argument("--alpha", type=int, choices=(0, 1))
            p.add_argument("--beta", type=int, choices=(0, 1))
            p.add_argument("--j", type=int)
            p.add_argument("--k", type=int)
        return p

    p = command("matrix", cmd_matrix, "print the k x k main-equation matrix as JSON", config=True)
    p.add_argument("--out")

    p = command("classify", cmd_classify, "degenerate/non-degenerate case of a config", config=True)

    p = command("cheb", cmd_cheb, "Chebyshev coefficients as a JSON array")
    p.add_argument("--kind", choices=("T", "U"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--scaled", action="store_true", help="2*T_n(x/2) resp. U_n(x/2)")

    p = command("eigs", cmd_eigs, "first N eigenvalues of the boundary value problem", config=True)
    p.add_argument("--q", required=True, help="potential CSV, or 'zero'/'demo' with --m")
    p.add_argument("--m", type=int, default=512, help="samples per subinterval for builtin potentials")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--out", help="CSV rows n,re,im (stdout if omitted)")
    p.add_argument("--spectrum-out", help="also write the spectrum as JSON")

    p = command("delta", cmd_delta, "sample the characteristic function", config=True)
    p.add_argument("--q", required=True)
    p.add_argument("--m", type=int, default=512)
    p.add_argument("--lambdas", required=True, help="semicolon-separated complex values")
    p.add_argument("--out")

    p = command("forward-w", cmd_forward_w, "map a potential to W", config=True)
    p.add_argument("--q", required=True)
    p.add_argument("--m", type=int, default=64)
    p.add_argument("--out", required=True)

    p = command("invert", cmd_invert, "solve the main equation W -> q", config=True)
    p.add_argument("--w", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--kernel-out", help="write the kernel direction (degenerate case)")
    p.add_argument("--residual-rtol", type=float, default=1e-9)

    p = command("reconstruct", cmd_reconstruct, "recover the potential from a spectrum JSON", config=True)
    p.add_argument("--spectrum", required=True)
    p.add_argument("--m", type=int, default=512)
    p.add_argument("--n-used", type=int, default=200)
    p.add_argument("--modes", type=int, default=50)
    p.add_argument("--out", required=True)
    p.add_argument("--kernel-out")
    p.add_argument("--residual-rtol", type=float, default=1e-6)

    p = command("isospectral", cmd_isospectral, "build an iso-spectral potential (degenerate cases)", config=True)
    p.add_argument("--q0", required=True)
    p.add_argument("--m", type=int, default=64)
    p.add_argument("--f", default="model-profile", help="profile CSV on (0,b), or 'model-profile'")
    p.add_argument("--out", required=True)

    p = command("example", cmd_example, "render a catalogued degenerate case")
    p.add_argument("--id", required=True, choices=sorted(EXAMPLE_CASES))
    p.add_argument("--out", help="write the symbolic table to a file")
    p.add_argument("--samples-out", help="write the sampled supplement as a grid CSV")
    p.add_argument("--svg", help="write an SVG plot of the supplement")
    p.add_argument("--m", type=int, default=96, help="samples per subinterval for plots")

    p = command("verify", cmd_verify, "run the identity/property sweeps")
    p.add_argument("--kmax", type=int, default=24)
    p.add_argument("--kmax-theorem1", type=int, default=40)
    p.add_argument("--kmax-forward", type=int, default=8)
    return ap


def dispatch(argv) -> int:
    """Run one command after the shared prologue, write its manifests, map every error to an exit code.

    The manifest records args.config unless the command set a config (matrix
    its normalized one, example the catalogue's).
    """
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    t0 = time.monotonic()
    try:
        _check_distinct_outputs(args)
        if "config" in vars(args):
            args.config = _load_config(args)
        manifest = args.fn(args)
        manifest.command, manifest.wall_time_s = args.command, time.monotonic() - t0
        if manifest.config is None and "config" in vars(args):
            manifest.config = args.config.to_dict()
        manifest.write()
    except (*_NUMERICAL_ERRORS, ValueError, KeyError, OSError, MemoryError) as exc:
        detail = {"failures": exc.args[0]} if isinstance(exc, VerifyFailure) else {"message": str(exc)}
        kind = "MemoryError" if isinstance(exc, MemoryError) else type(exc).__name__  # not numpy's _ArrayMemoryError
        print(json.dumps({"error": {"type": kind, **detail}}), file=sys.stderr)
        return EXIT_NUMERICAL if isinstance(exc, _NUMERICAL_ERRORS) else EXIT_BAD_INPUT
    return EXIT_OK


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
