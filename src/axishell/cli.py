"""Command-line front end: classification, asymptotic constants, sweeps, checks.

Subcommands
    classify     shell class, potential minimum, essential-spectrum range
    asymptotics  per-class constants and power laws as JSON
    sweep1d      dump the 1D optimization curve (gamma scan or k scan)
    sweep2d      2D wavenumber sweeps, CSV records plus a summary table
    trace        midline radial-mode trace at one (eps, k) as CSV
    torus-sweep  toroidal constants versus the arc-center offset
    symbols      dump the symbol matrices at one point (debug aid)
    verify       run the identity suite and print residuals

Exit codes: 0 success, 2 usage error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import re
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, asymptotics, lame2d, symbols, verify
from .errors import AxishellError
from .geometry import ShellClassTag, classify, essential_spectrum_range, frame_at
from .profiles import ShellProfile, preset


# a value such as -1,1 or -1e-3: no option of the CLI starts with '-' and a digit
_NEGATIVE_VALUE = re.compile(r"-\.?\d[\d.,eE+-]*")


class _Parser(argparse.ArgumentParser):
    """An argument parser that reads a negative number list as a value, not an option."""

    def _parse_optional(self, arg_string):
        if _NEGATIVE_VALUE.fullmatch(arg_string):
            return None
        return super()._parse_optional(arg_string)


def _load_profile(args) -> ShellProfile:
    if getattr(args, "model", None):
        return preset(args.model)
    if getattr(args, "profile", None):
        return ShellProfile.from_json(Path(args.profile).read_text())
    raise AxishellError("need --model or --profile")


def _parse_eps_list(text: str) -> list[float]:
    try:
        values = [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad eps list {text!r}") from None
    if not values:
        raise argparse.ArgumentTypeError("empty eps list")
    for v in values:
        if not 0.0 < v <= 0.25:
            raise argparse.ArgumentTypeError(f"eps = {v} outside (0, 0.25]")
    return values


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number") from None
    if not 0.0 < value < float("inf"):
        raise argparse.ArgumentTypeError(f"{value} is not a positive finite number")
    return value


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"{value} is less than 1")
    return value


def _parse_mesh(text: str) -> tuple[int, int]:
    try:
        nm, nt = text.lower().split("x")
        return int(nm), int(nt)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"mesh spec {text!r} is not of the form NxM"
        ) from None


def _parse_interval(text: str) -> tuple[float, float]:
    try:
        lo, hi = (float(v) for v in text.split(","))
        if lo < hi:
            return lo, hi
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"interval {text!r} is not of the form z-,z+ with z- < z+")


def _csv_lines(meta: dict, columns: list[str], rows: list[list]) -> str:
    stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
    meta_str = " ".join(f"{k}={v}" for k, v in meta.items())
    lines = [f"# axishell {__version__} {meta_str} generated={stamp}"]
    lines.append(",".join(columns))
    for row in rows:
        cells = []
        for v in row:
            if isinstance(v, float):
                cells.append(f"{v:.12g}")
            else:
                cells.append(str(v))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _emit(text: str, out_dir: str | None, filename: str) -> None:
    if out_dir:
        path = Path(out_dir)
        path.mkdir(parents=True, exist_ok=True)
        (path / filename).write_text(text)
        print(f"wrote {path / filename}")
    else:
        sys.stdout.write(text)


def cmd_classify(args) -> int:
    profile = _load_profile(args)
    cls = classify(profile, n_samples=args.samples)
    lo, hi = essential_spectrum_range(profile)
    f, fp, fpp = profile.jet(np.linspace(*profile.interval, 513), 2)
    adm = 1.0 + fp**2 + f * fpp
    doc = {
        "class": cls.tag.value,
        "z0": cls.z0,
        "boundary_minimum": cls.boundary_minimum,
        "admissible_min": float(adm.min()),
        "essential_spectrum": [lo, hi],
    }
    if cls.h0_minimum is not None:
        doc["H0_min"] = cls.h0_minimum.value
        doc["n_minima"] = len(cls.h0_minimum.branches)
    if cls.detail:
        doc["detail"] = cls.detail
    print(json.dumps(doc, indent=2))
    return 0


def cmd_asymptotics(args) -> int:
    profile = _load_profile(args)
    res = asymptotics.compute(profile, seed=args.seed)
    doc = res.to_dict()
    doc = {
        k: (float(f"{v:.6g}") if isinstance(v, float) else v) for k, v in doc.items()
    }
    if res.lambda2 is not None:
        doc["Lambda2"] = float(f"{res.lambda2:.6g}")
    print(json.dumps(doc, indent=2))
    return 0


def cmd_sweep1d(args) -> int:
    profile = _load_profile(args)
    cls = classify(profile)
    meta = {"model": args.model or "custom"}
    if cls.tag in (ShellClassTag.CYLINDER, ShellClassTag.CONE, ShellClassTag.TORUS_ELLIPTIC):
        scan_constants = (asymptotics.toroidal_constants if cls.tag is ShellClassTag.TORUS_ELLIPTIC
                          else asymptotics.optimize_gamma_parabolic)
        res = scan_constants(profile, cls, seed=args.seed)
        scan = res.diagnostics["scan"]
        grid = np.geomspace(args.gamma_min, args.gamma_max, args.n_points)
        meta.update(kind="gamma-scan", gamma_opt=f"{res.gamma:.8g}", a1=f"{res.a1:.8g}")
        columns = ["gamma", "mu1"]
    else:
        eps = args.eps_list[0] if args.eps_list else 1e-4
        res = asymptotics.compute(profile, cls, seed=args.seed)
        k_opt, lam_min, data = asymptotics.elliptic_k_minimization(profile, eps, seed=args.seed,
                                                                   asym=res)
        scan = data["scan"]
        k_center = asymptotics.predict(res, eps).k_real
        grid = np.geomspace(0.4 * k_center, 2.5 * k_center, args.n_points)
        meta.update(kind="k-scan", eps=f"{eps:g}", k_opt=f"{k_opt:.8g}",
                    lambda_min=f"{lam_min:.8g}")
        columns = ["k", "lambda1"]
    rows = [[float(x), float(scan.mu1(x))] for x in grid]
    _emit(_csv_lines(meta, columns, rows), args.out, "sweep1d.csv")
    return 0


def _map(worker, payloads: list, jobs: int) -> list:
    """``worker`` over ``payloads`` in order, in a pool of ``jobs`` processes if jobs > 1."""
    if jobs == 1:
        return [worker(p) for p in payloads]
    with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(worker, payloads))


def _sweep2d_worker(payload):
    profile, res, eps, mesh_spec, degree, seed = payload
    mesh = lame2d.build_meridian_mesh(profile, eps, *(mesh_spec or ()))
    sweep = lame2d.k_sweep(profile, eps, mesh=mesh, degree=degree, asym=res, seed=seed)
    # the sweep left its family in the mesh's cache
    thickness_degree = lame2d.get_family(mesh, degree).thickness_degree
    return f"{mesh.n_meridian}x{mesh.n_thickness}", thickness_degree, sweep


def cmd_sweep2d(args) -> int:
    profile = _load_profile(args)
    res = asymptotics.compute(profile, seed=args.seed)
    eps_list = args.eps_list or [0.1, 0.05, 0.02, 0.01]
    payloads = [(profile, res, eps, args.mesh, args.degree, args.seed) for eps in eps_list]
    summary_rows = []
    failures = 0
    for eps, (mesh_used, thickness_degree, sweep) in zip(
            eps_list, _map(_sweep2d_worker, payloads, args.jobs)):
        meta = {"model": args.model or "custom", "eps": f"{eps:g}", "mesh": mesh_used,
                "degree": args.degree, "thickness_degree": thickness_degree}
        records = [[r.eps, r.k, r.lambda1, r.dof_count, r.residual] for r in sweep.records]
        name = f"sweep2d_{args.model or 'profile'}_eps{eps:g}.csv"
        _emit(_csv_lines(meta, ["eps", "k", "lambda1", "dofs", "residual"], records),
              args.out, name)
        pred = asymptotics.predict(res, eps)
        summary_rows.append([eps, sweep.k_opt, pred.k_int, sweep.lambda1, pred.m1,
                             "flagged" if sweep.flagged else "ok"])
        failures += int(sweep.flagged)
    meta = {"model": args.model or "custom", "gamma": f"{res.gamma:.6g}",
            "beta": str(res.beta)}
    text = _csv_lines(meta, ["eps", "k_observed", "k_predicted", "lambda1", "m1", "status"],
                      summary_rows)
    _emit(text, args.out, f"sweep2d_{args.model or 'profile'}_summary.csv")
    return 3 if failures else 0


def cmd_trace(args) -> int:
    """Midline radial-mode trace at one (eps, k) as CSV (z, u_r)."""
    profile = _load_profile(args)
    eps = args.eps_list[0] if args.eps_list else 0.01
    mesh = lame2d.build_meridian_mesh(profile, eps, *(args.mesh or ()))
    k = args.k
    if k is None:
        k = asymptotics.predict(asymptotics.compute(profile, seed=args.seed), eps).k_int
    system = lame2d.assemble_fourier_lame(mesh, k, args.degree)
    rec, vec = lame2d.first_eigenpair_2d(system, seed=args.seed)
    trace = lame2d.midline_mode_trace(system, vec)
    meta = {"model": args.model or "custom", "eps": f"{eps:g}", "k": k,
            "mesh": f"{mesh.n_meridian}x{mesh.n_thickness}", "degree": args.degree,
            "thickness_degree": system.family.thickness_degree,
            "lambda1": f"{rec.lambda1:.10g}", "argmax_z": f"{trace.argmax_z:.6g}",
            "half_width": f"{trace.half_width:.6g}"}
    rows = [[float(z), float(u)] for z, u in zip(trace.z, trace.u_r)]
    _emit(_csv_lines(meta, ["z", "u_r"], rows), args.out,
          f"trace_{args.model or 'profile'}_eps{eps:g}_k{k}.csv")
    return 0


def _torus_worker(payload):
    radius, z_center, interval, r_c = payload
    return asymptotics.toroidal_sweep(radius, z_center, interval, [r_c])[0]


def cmd_torus_sweep(args) -> int:
    if args.r_min >= args.r_max or args.step <= 0:
        print("usage error: need r-min < r-max and a positive step", file=sys.stderr)
        return 2
    grid = np.arange(args.r_min, args.r_max + 0.5 * args.step, args.step)
    payloads = [(args.radius, args.z_center, args.interval, float(r)) for r in grid]
    rows = []
    for r in _map(_torus_worker, payloads, args.jobs):
        values = ["nan"] * 3 if r["error"] else [r["Lambda2"], r["gamma_min"], r["a1"]]
        rows.append([r["r_circ"], *values, r["error"] or "ok"])
    meta = {"radius": args.radius, "z_center": args.z_center,
            "interval": ",".join(f"{v:.12g}" for v in args.interval)}
    _emit(_csv_lines(meta, ["r_circ", "Lambda2", "gamma_min", "a1", "status"], rows),
          args.out, "torus_sweep.csv")
    return 0


def cmd_symbols(args) -> int:
    profile = _load_profile(args)
    fr = frame_at(profile, args.z)
    mats, red = symbols.symbols_at(fr, lam0=args.lam0, lam1=args.lam1)

    def sym_doc(s):
        return {"coeffs": list(s.coeffs), "imag": s.imag}

    doc = {
        "z": args.z,
        "M0": [[float(v) for v in row] for row in mats.M0],
        "M1": [[sym_doc(s) for s in row] for row in mats.M1],
        "M2": [[sym_doc(s) for s in row] for row in mats.M2],
        "H0": red.H0,
        "H2": sym_doc(red.H2),
        "H3": sym_doc(red.H3),
        "H4_principal": red.H4_principal,
        "H4_parabolic": sym_doc(red.H4_parabolic),
        "V1": [sym_doc(s) for s in red.V1],
        "V2": [sym_doc(s) for s in red.V2],
        "V3": [sym_doc(s) for s in red.V3],
    }
    print(json.dumps(doc, indent=2))
    return 0


def cmd_verify(args) -> int:
    profile = _load_profile(args) if (args.model or args.profile) else None
    failures = 0
    for name, residual, tol, passed in verify.identity_suite(profile, seed=args.seed):
        status = "PASS" if passed else "FAIL"
        print(f"{status}  {name}: residual {residual:.3e} (tol {tol:g})")
        failures += int(not passed)
    if failures:
        print(f"{failures} check(s) failed")
        return 3
    print("all checks passed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="axishell",
        description="Axisymmetric-shell classification, wavenumber asymptotics, "
        "and meridian eigenvalue sweeps",
    )
    parser.add_argument("--version", action="version", version=f"axishell {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, eps=False):
        p.add_argument("--model", choices=list("ABDHL"), help="built-in model")
        p.add_argument("--profile", help="profile JSON file")
        p.add_argument("--out", help="output directory (default: stdout)")
        if eps:
            p.add_argument("--eps", dest="eps_list", type=_parse_eps_list,
                           help="comma-separated half-thicknesses in (0, 0.25]")

    p = sub.add_parser("classify", help="classify a shell profile")
    common(p)
    p.add_argument("--samples", type=int, default=1024)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("asymptotics", help="per-class constants and laws")
    common(p)
    p.set_defaults(func=cmd_asymptotics)

    p = sub.add_parser("sweep1d", help="dump the 1D optimization curve")
    common(p, eps=True)
    p.add_argument("--gamma-min", type=_positive_float, default=0.3)
    p.add_argument("--gamma-max", type=_positive_float, default=30.0)
    p.add_argument("--n-points", type=_positive_int, default=64)
    p.set_defaults(func=cmd_sweep1d)

    p = sub.add_parser("sweep2d", help="2D wavenumber sweeps")
    common(p, eps=True)
    p.add_argument("--mesh", type=_parse_mesh,
                   help="meridian x thickness cells, e.g. 12x2")
    p.add_argument("--degree", type=_positive_int, default=lame2d.DEFAULT_DEGREE)
    p.add_argument("--jobs", type=_positive_int, default=1)
    p.set_defaults(func=cmd_sweep2d)

    p = sub.add_parser("trace", help="midline mode trace at one (eps, k)")
    common(p, eps=True)
    p.add_argument("--k", type=int, help="wavenumber (default: 1D prediction)")
    p.add_argument("--mesh", type=_parse_mesh,
                   help="meridian x thickness cells, e.g. 16x2")
    p.add_argument("--degree", type=_positive_int, default=lame2d.DEFAULT_DEGREE)
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("torus-sweep", help="toroidal constants vs arc offset")
    p.add_argument("--r-min", type=float, default=-3.0)
    p.add_argument("--r-max", type=float, default=-0.1)
    p.add_argument("--step", type=float, default=0.05)
    p.add_argument("--radius", type=float, default=2.0)
    p.add_argument("--z-center", type=float, default=0.0)
    p.add_argument("--interval", type=_parse_interval, default="-1,1",
                   help="meridian interval z-,z+ of every arc")
    p.add_argument("--jobs", type=_positive_int, default=1)
    p.add_argument("--out", help="output directory (default: stdout)")
    p.set_defaults(func=cmd_torus_sweep)

    p = sub.add_parser("symbols", help="dump symbol matrices at one z (debug)")
    common(p)
    p.add_argument("--z", type=float, required=True)
    p.add_argument("--lam0", type=float, default=0.0)
    p.add_argument("--lam1", type=float, default=0.0)
    p.set_defaults(func=cmd_symbols)

    p = sub.add_parser("verify", help="run the identity suite")
    common(p)
    p.set_defaults(func=cmd_verify)

    for name in ("asymptotics", "sweep1d", "sweep2d", "trace", "verify"):
        sub.choices[name].add_argument("--seed", type=int, default=0)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except AxishellError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
