"""Command-line front end.

Subcommands: matrix, classify, cheb, eigs, delta, forward-w, invert,
reconstruct, isospectral, example, verify.  Structured JSON errors go to
stderr; exit codes are 0 (ok), 2 (usage), 3 (malformed input),
4 (numerical failure).  Every command that writes an output file also
writes <out>.manifest.json describing the run; data files themselves
carry no timestamps, so identical manifests give byte-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import chebyshev, frozen_matrix, intlinalg
from .characteristic import (
    EigenvalueCollisionError,
    RootConvergenceError,
    Spectrum,
    delta_direct,
    eigenvalues,
)
from .core_params import Kind, ProblemConfig, classify, make_config, normalize_to_half
from .interval_ops import GridFunction, read_csv, read_profile_csv, write_csv
from .inverse_pipeline import (
    SpectrumMismatchError,
    build_isospectral_potential,
    invert_from_spectrum,
    quadratic_profile,
    reference_example,
)
from .main_equation import InconsistentSystemError, forward_w_direct, forward_w_matrix, solve_inverse

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BAD_INPUT = 3
EXIT_NUMERICAL = 4

_NUMERICAL_ERRORS = (
    RootConvergenceError,
    EigenvalueCollisionError,
    InconsistentSystemError,
    SpectrumMismatchError,
    ArithmeticError,
    np.linalg.LinAlgError,
)


@dataclass
class RunManifest:
    command: str
    config: dict | None = None
    inputs: dict = field(default_factory=dict)
    grid: dict = field(default_factory=dict)
    tolerances: dict = field(default_factory=dict)
    outputs: list = field(default_factory=list)
    wall_time_s: float = 0.0

    def write(self) -> None:
        for out in self.outputs:
            with open(f"{out}.manifest.json", "w") as fh:
                json.dump(asdict(self), fh, indent=1, sort_keys=True)
                fh.write("\n")


def _load_config(args) -> ProblemConfig:
    if getattr(args, "config", None):
        with open(args.config) as fh:
            data = json.load(fh)
        data = data.get("config", data)
        return ProblemConfig.from_dict(data)
    return make_config(args.alpha, args.beta, args.j, args.k)


def _config_flags(p: argparse.ArgumentParser, with_file: bool = False) -> None:
    if with_file:
        p.add_argument("--config", help="JSON file with a {'config': {alpha,beta,j,k}} object")
    p.add_argument("--alpha", type=int, choices=(0, 1))
    p.add_argument("--beta", type=int, choices=(0, 1))
    p.add_argument("--j", type=int)
    p.add_argument("--k", type=int)


def _demo_potential(x: np.ndarray) -> np.ndarray:
    return (2.0 + 1.0j) * x**2 * (1 - x) + 0.5 * np.cos(3.0 * x)


def _load_potential(spec_str: str, k: int, m: int | None) -> GridFunction:
    if spec_str == "zero":
        if m is None:
            raise ValueError("builtin potentials need --m")
        return GridFunction.zeros(k, m)
    if spec_str == "demo":
        if m is None:
            raise ValueError("builtin potentials need --m")
        return GridFunction.from_callable(_demo_potential, k, m)
    g = read_csv(spec_str)
    if g.k != k:
        raise ValueError(f"{spec_str}: grid k={g.k} does not match config k={k}")
    return g


def _emit(text: str, out: str | None) -> list[str]:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
        return [out]
    sys.stdout.write(text)
    return []


def cmd_matrix(args) -> int:
    cfg, _ = normalize_to_half(_load_config(args))
    entries = frozen_matrix.build_matrix(cfg).as_lists()
    _emit(json.dumps(entries) + "\n", args.out)
    return EXIT_OK


def cmd_classify(args) -> int:
    cls = classify(_load_config(args))
    print(json.dumps({"kind": cls.kind.value, "case": cls.case_label.value}))
    return EXIT_OK


def cmd_cheb(args) -> int:
    if args.scaled:
        poly = chebyshev.scaled_cheb_int(args.kind, args.n)
    else:
        poly = chebyshev.cheb_T(args.n) if args.kind == "T" else chebyshev.cheb_U(args.n)
    print(json.dumps(list(poly.coeffs)))
    return EXIT_OK


def cmd_eigs(args) -> int:
    t0 = time.monotonic()
    cfg = _load_config(args)
    q = _load_potential(args.q, cfg.k, args.m)
    spec = eigenvalues(q, cfg, args.count)
    lines = [f"{n},{z.real!r},{z.imag!r}\n" for n, z in enumerate(spec.eigenvalues, start=1)]
    outputs = _emit("".join(lines), args.out)
    if args.spectrum_out:
        spec.dump(args.spectrum_out)
        outputs.append(args.spectrum_out)
    RunManifest(
        command="eigs",
        config=cfg.to_dict(),
        inputs={"q": args.q, "count": args.count},
        grid={"k": q.k, "m": q.m},
        outputs=outputs,
        wall_time_s=time.monotonic() - t0,
    ).write()
    return EXIT_OK


def cmd_delta(args) -> int:
    cfg = _load_config(args)
    q = _load_potential(args.q, cfg.k, args.m)
    lams = [complex(s) for s in args.lambdas.split(";")]
    lines = []
    for lam in lams:
        d = delta_direct(q, cfg, lam)
        lines.append(f"{lam.real!r},{lam.imag!r},{d.real!r},{d.imag!r}\n")
    _emit("".join(lines), args.out)
    return EXIT_OK


def cmd_forward_w(args) -> int:
    t0 = time.monotonic()
    cfg = _load_config(args)
    q = _load_potential(args.q, cfg.k, args.m)
    fwd = forward_w_direct if args.method == "direct" else forward_w_matrix
    w = fwd(q, cfg)
    write_csv(w, args.out)
    RunManifest(
        command="forward-w",
        config=cfg.to_dict(),
        inputs={"q": args.q, "method": args.method},
        grid={"k": w.k, "m": w.m},
        outputs=[args.out],
        wall_time_s=time.monotonic() - t0,
    ).write()
    return EXIT_OK


def cmd_invert(args) -> int:
    t0 = time.monotonic()
    cfg = _load_config(args)
    w = read_csv(args.w)
    sol = solve_inverse(w, cfg, residual_rtol=args.residual_rtol)
    write_csv(sol.particular, args.out)
    outputs = [args.out]
    if sol.kernel_generator is not None and args.kernel_out:
        write_csv(sol.kernel_generator, args.kernel_out)
        outputs.append(args.kernel_out)
    RunManifest(
        command="invert",
        config=cfg.to_dict(),
        inputs={"w": args.w},
        grid={"k": w.k, "m": w.m},
        tolerances={"residual_rtol": args.residual_rtol},
        outputs=outputs,
        wall_time_s=time.monotonic() - t0,
    ).write()
    return EXIT_OK


def cmd_reconstruct(args) -> int:
    t0 = time.monotonic()
    cfg = _load_config(args)
    spec = Spectrum.load(args.spectrum)
    sol = invert_from_spectrum(
        spec, cfg, args.m, args.n_used, args.modes, residual_rtol=args.residual_rtol
    )
    write_csv(sol.particular, args.out)
    outputs = [args.out]
    if sol.kernel_generator is not None and args.kernel_out:
        write_csv(sol.kernel_generator, args.kernel_out)
        outputs.append(args.kernel_out)
    RunManifest(
        command="reconstruct",
        config=cfg.to_dict(),
        inputs={"spectrum": args.spectrum, "n_used": args.n_used, "modes": args.modes},
        grid={"k": cfg.k, "m": args.m},
        tolerances={"residual_rtol": args.residual_rtol},
        outputs=outputs,
        wall_time_s=time.monotonic() - t0,
    ).write()
    return EXIT_OK


def cmd_isospectral(args) -> int:
    t0 = time.monotonic()
    cfg = _load_config(args)
    q0 = _load_potential(args.q0, cfg.k, args.m)
    if args.f == "model-profile":
        f = quadratic_profile(cfg.k)
    else:
        samples, fk = read_profile_csv(args.f)
        if fk != cfg.k:
            raise ValueError(f"{args.f}: profile is for k={fk}, config has k={cfg.k}")
        f = samples
    q = build_isospectral_potential(q0, cfg, f)
    write_csv(q, args.out)
    RunManifest(
        command="isospectral",
        config=cfg.to_dict(),
        inputs={"q0": args.q0, "f": args.f},
        grid={"k": q.k, "m": q.m},
        outputs=[args.out],
        wall_time_s=time.monotonic() - t0,
    ).write()
    return EXIT_OK


def _render_svg(report, m: int = 96, width: int = 640, height: int = 360) -> str:
    """Piecewise profile of the supplement as one polyline per subinterval."""
    xs, ys = report.samples(m)
    k = report.config.k
    lo, hi = min(ys.min(), -1.05), max(ys.max(), 1.05)
    pad = 30.0

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
    for seg in range(k):
        pts = " ".join(
            f"{sx(x):.2f},{sy(y):.2f}"
            for x, y in zip(xs[seg * m : (seg + 1) * m], ys[seg * m : (seg + 1) * m])
        )
        parts.append(f'<polyline points="{pts}" fill="none" stroke="#1f5fbf" stroke-width="1.5"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def cmd_example(args) -> int:
    t0 = time.monotonic()
    report = reference_example(args.id)
    outputs = _emit(report.table + "\n", args.out)
    if args.samples_out:
        base = GridFunction.zeros(report.config.k, args.m)
        supp = build_isospectral_potential(base, report.config, quadratic_profile(report.config.k))
        write_csv(supp, args.samples_out)
        outputs.append(args.samples_out)
    if args.svg:
        with open(args.svg, "w") as fh:
            fh.write(_render_svg(report, m=args.m))
        outputs.append(args.svg)
    if outputs:
        RunManifest(
            command="example",
            config=report.config.to_dict(),
            inputs={"id": args.id},
            outputs=outputs,
            wall_time_s=time.monotonic() - t0,
        ).write()
    return EXIT_OK


def _coprime_configs(kmax: int):
    for k in range(2, kmax + 1):
        for j in range(1, k // 2 + 1):
            if math.gcd(j, k) != 1:
                continue
            for alpha in (0, 1):
                for beta in (0, 1):
                    yield make_config(alpha, beta, j, k)


def cmd_verify(args) -> int:
    """Run the identity/property sweeps and report per-block pass counts."""
    failures: list[str] = []

    def block(name, count):
        print(f"[verify] {name}: {count} checks passed")

    # Theorem 1: recurrence char poly == Chebyshev closed form, exactly
    n = 0
    for k in range(2, args.kmax_theorem1 + 1):
        for alpha in (0, 1):
            for beta in (0, 1):
                if frozen_matrix.char_poly_j1(k, alpha, beta).coeffs != frozen_matrix.theorem1_poly(
                    k, alpha, beta
                ).coeffs:
                    failures.append(f"theorem1 k={k} ({alpha},{beta})")
                n += 1
    block("theorem-1 polynomial identity", n)

    # Theorem 2: Chebyshev reduction == direct construction, entrywise
    cfgs = list(_coprime_configs(args.kmax))
    for cfg in cfgs:
        if not intlinalg.mat_eq(
            frozen_matrix.reduce_to_j1(cfg), frozen_matrix.build_matrix(cfg).as_lists()
        ):
            failures.append(f"theorem2 {cfg}")
    block("theorem-2 matrix reduction", len(cfgs))

    # Corollaries 1 and 3: determinants and the degeneracy split
    n = 0
    for k in range(2, args.kmax_theorem1 + 1):
        for alpha in (0, 1):
            for beta in (0, 1):
                a = frozen_matrix.build_matrix(make_config(alpha, beta, 1, k))
                if frozen_matrix.det_closed_form(k, alpha, beta) != frozen_matrix.det_exact(a):
                    failures.append(f"corollary1 k={k} ({alpha},{beta})")
                n += 1
    for cfg in cfgs:
        deg = classify(cfg).kind is Kind.DEGENERATE
        if (frozen_matrix.det_exact(frozen_matrix.build_matrix(cfg)) == 0) != deg:
            failures.append(f"corollary3 {cfg}")
        n += 1
    block("corollary-1/3 determinants", n)

    # Lemmas 2-3: kernels, ranks, and the explicit eigenvector formula
    n = 0
    for cfg in cfgs:
        a = frozen_matrix.build_matrix(cfg)
        ker = frozen_matrix.kernel(cfg)
        deg = classify(cfg).kind is Kind.DEGENERATE
        r = frozen_matrix.rank(a)
        if deg and (ker.dimension != 1 or r != cfg.k - 1):
            failures.append(f"lemma3 {cfg}")
        if not deg and (ker.dimension != 0 or r != cfg.k):
            failures.append(f"lemma3 {cfg}")
        n += 1
    for k in range(2, min(args.kmax, 16) + 1):
        for alpha, beta in ((0, 0), (1, 0), (1, 1)):
            for z0 in frozen_matrix.spectrum_closed_form(k, alpha, beta):
                try:
                    frozen_matrix.eigvec_j1(z0, k, alpha, beta)  # residual-checked inside
                except ValueError:
                    failures.append(f"lemma2 k={k} ({alpha},{beta}) z0={z0}")
                n += 1
    block("lemma-2/3 kernels, ranks, eigenvectors", n)

    # Corollary 2: numeric roots against the trigonometric spectra
    n = 0
    for k in range(2, min(args.kmax, 20) + 1):
        for alpha, beta in ((0, 0), (1, 0), (1, 1)):
            closed = frozen_matrix.spectrum_closed_form(k, alpha, beta)
            numeric = frozen_matrix.numeric_spectrum_j1(k, alpha, beta)
            remaining = list(closed)
            worst = 0.0
            for z in numeric:
                i = min(range(len(remaining)), key=lambda t: abs(z - remaining[t]))
                worst = max(worst, abs(z - remaining.pop(i)))
            if worst > 1e-9:
                failures.append(f"corollary2 k={k} ({alpha},{beta}) dist={worst:.2e}")
            n += 1
        if abs(frozen_matrix.char_poly_j1(k, 0, 1).coeffs[0]) < 1:
            failures.append(f"corollary2 (0,1) k={k} zero in spectrum")
        n += 1
    block("corollary-2 closed-form spectra", n)

    # forward-map oracle: direct vs matrix form
    rng = np.random.default_rng(20240815)
    n = 0
    for cfg in _coprime_configs(args.kmax_forward):
        q = GridFunction(cfg.k, 16, rng.normal(size=16 * cfg.k) + 1j * rng.normal(size=16 * cfg.k))
        w1 = forward_w_direct(q, cfg)
        w2 = forward_w_matrix(q, cfg)
        if np.abs(w1.values - w2.values).max() > 1e-14 * max(1.0, np.abs(w1.values).max()):
            failures.append(f"forward oracle {cfg}")
        n += 1
    block("forward-map oracle", n)

    if failures:
        print(json.dumps({"error": {"type": "VerifyFailure", "failures": failures}}), file=sys.stderr)
        return EXIT_NUMERICAL
    print(f"[verify] all blocks passed (kmax={args.kmax})")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="frozen-spectra",
        description="Frozen-argument boundary value problems: matrices, spectra, inverse recovery",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("matrix", help="print the k x k main-equation matrix as JSON")
    _config_flags(p, with_file=True)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_matrix)

    p = sub.add_parser("classify", help="degenerate/non-degenerate case of a config")
    _config_flags(p, with_file=True)
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("cheb", help="Chebyshev coefficients as a JSON array")
    p.add_argument("--kind", choices=("T", "U"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--scaled", action="store_true", help="2*T_n(x/2) resp. U_n(x/2)")
    p.set_defaults(fn=cmd_cheb)

    p = sub.add_parser("eigs", help="first N eigenvalues of the boundary value problem")
    _config_flags(p, with_file=True)
    p.add_argument("--q", required=True, help="potential CSV, or 'zero'/'demo' with --m")
    p.add_argument("--m", type=int, default=512, help="samples per subinterval for builtin potentials")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--out", help="CSV rows n,re,im (stdout if omitted)")
    p.add_argument("--spectrum-out", help="also write the spectrum as JSON")
    p.set_defaults(fn=cmd_eigs)

    p = sub.add_parser("delta", help="sample the characteristic function")
    _config_flags(p, with_file=True)
    p.add_argument("--q", required=True)
    p.add_argument("--m", type=int, default=512)
    p.add_argument("--lambdas", required=True, help="semicolon-separated complex values")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_delta)

    p = sub.add_parser("forward-w", help="map a potential to W")
    _config_flags(p, with_file=True)
    p.add_argument("--q", required=True)
    p.add_argument("--m", type=int, default=64)
    p.add_argument("--method", choices=("direct", "matrix"), default="direct")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_forward_w)

    p = sub.add_parser("invert", help="solve the main equation W -> q")
    _config_flags(p, with_file=True)
    p.add_argument("--w", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--kernel-out", help="write the kernel direction (degenerate case)")
    p.add_argument("--residual-rtol", type=float, default=1e-9)
    p.set_defaults(fn=cmd_invert)

    p = sub.add_parser("reconstruct", help="recover the potential from a spectrum JSON")
    _config_flags(p, with_file=True)
    p.add_argument("--spectrum", required=True)
    p.add_argument("--m", type=int, default=512)
    p.add_argument("--n-used", type=int, default=200)
    p.add_argument("--modes", type=int, default=50)
    p.add_argument("--out", required=True)
    p.add_argument("--kernel-out")
    p.add_argument("--residual-rtol", type=float, default=1e-6)
    p.set_defaults(fn=cmd_reconstruct)

    p = sub.add_parser("isospectral", help="build an iso-spectral potential (degenerate cases)")
    _config_flags(p, with_file=True)
    p.add_argument("--q0", required=True)
    p.add_argument("--m", type=int, default=64)
    p.add_argument("--f", default="model-profile", help="profile CSV on (0,b), or 'model-profile'")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_isospectral)

    p = sub.add_parser("example", help="render a catalogued degenerate case")
    p.add_argument("--id", required=True, choices=("I7", "I8", "II", "III", "IV"))
    p.add_argument("--out", help="write the symbolic table to a file")
    p.add_argument("--samples-out", help="write the sampled supplement as a grid CSV")
    p.add_argument("--svg", help="write an SVG plot of the supplement")
    p.add_argument("--m", type=int, default=96, help="samples per subinterval for plots")
    p.set_defaults(fn=cmd_example)

    p = sub.add_parser("verify", help="run the identity/property sweeps")
    p.add_argument("--kmax", type=int, default=24)
    p.add_argument("--kmax-theorem1", type=int, default=40)
    p.add_argument("--kmax-forward", type=int, default=8)
    p.set_defaults(fn=cmd_verify)
    return ap


def dispatch(argv) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except _NUMERICAL_ERRORS as exc:
        print(
            json.dumps({"error": {"type": type(exc).__name__, "message": str(exc)}}),
            file=sys.stderr,
        )
        return EXIT_NUMERICAL
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(
            json.dumps({"error": {"type": type(exc).__name__, "message": str(exc)}}),
            file=sys.stderr,
        )
        return EXIT_BAD_INPUT


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
