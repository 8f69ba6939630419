"""Command-line front end: mesh generation, solves, convergence studies.

Commands
    mesh         generate a mesh file and print a validation summary
    solve        one assemble/solve/measure run, report CSV + stdout summary
    convergence  a refinement family with fitted rates, CSV per run
    compare      run several variants (or both BC modes) on the same family

Every run solves the condensed system with the one certified direct solve
of `solving.solve`; the solver has no settings.  Configuration can be given
as flags or as a flat key=value text file passed with --config (flags win);
an unknown key exits 2.  `--print-config` prints the effective configuration
and exits.  Exit codes: 0 success; 2 configuration error (a bad flag, key or
value, or a mesh file that cannot be read or does not conform to the
format); 3 numerical or mesh failure (a system the factorization does not
certify SPD, a residual over its bound, a mesh generator that fails, or a
generated mesh that does not validate).
"""

import argparse
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path


from .common import ConfigError, NumericalError, STAB_SCALINGS
from .manufactured import get_case
from .mesh import (MeshError, MeshFormatError, build_rect_mesh,
                   build_tri_mesh, build_voronoi_mesh, load_mesh, save_mesh,
                   validate)
from .solving import RateTable, convergence_study, solve_and_measure

__all__ = ["main", "RunConfig"]


@dataclass
class RunConfig:
    variant: str = "A"
    k: int = 1
    bc_mode: str = "strong"
    case: str = "1"
    scaling: str = "k2-all"
    mesh_kind: str = "rect"        # rect | tri | voronoi | file
    n: int = 8                     # rect/tri resolution
    cells: int = 64                # voronoi cell count
    seed: int = 0
    lloyd: int = 20
    mesh_file: str = ""
    levels: str = ""               # comma list of resolutions / cell counts
    out_dir: str = "out"

    def check(self):
        if self.variant not in ("A", "B", "C"):
            raise ConfigError(f"variant must be A, B, or C, got {self.variant!r}")
        if not 0 <= self.k <= 5:
            raise ConfigError(f"k must be in [0, 5], got {self.k}")
        if self.bc_mode not in ("strong", "nitsche"):
            raise ConfigError("bc_mode must be strong or nitsche, got "
                              f"{self.bc_mode!r}")
        if self.bc_mode == "nitsche" and self.variant == "C":
            raise ConfigError("the Nitsche mode supports variants A and B only")
        if self.scaling not in STAB_SCALINGS:
            raise ConfigError(f"scaling must be one of {STAB_SCALINGS}")
        if self.mesh_kind not in ("rect", "tri", "voronoi", "file"):
            raise ConfigError(f"unknown mesh kind {self.mesh_kind!r}")
        for name in ("n", "cells"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1, got "
                                  f"{getattr(self, name)}")
        try:
            get_case(self.case)
        except KeyError as err:
            raise ConfigError(err.args[0]) from None
        return self

    def build_mesh(self, resolution=None):
        if self.mesh_kind == "rect":
            n = resolution or self.n
            return build_rect_mesh(n, n)
        if self.mesh_kind == "tri":
            return build_tri_mesh(resolution or self.n)
        if self.mesh_kind == "voronoi":
            return build_voronoi_mesh(resolution or self.cells, self.seed,
                                      self.lloyd)
        if not self.mesh_file:
            raise ConfigError("mesh kind 'file' needs --mesh-file")
        try:
            return load_mesh(self.mesh_file)
        except OSError as err:
            raise ConfigError(f"cannot read mesh file: {err}") from None

    def level_list(self):
        if not self.levels:
            raise ConfigError("a convergence run needs --levels, e.g. 8,16,32")
        try:
            out = [int(tok) for tok in self.levels.split(",") if tok.strip()]
        except ValueError:
            raise ConfigError(f"bad --levels value {self.levels!r}") from None
        if len(out) < 2:
            raise ConfigError("--levels needs at least two resolutions")
        if min(out) < 1:
            raise ConfigError(f"--levels must be at least 1, got "
                              f"{self.levels!r}")
        return out


def _load_config_file(path):
    out = {}
    text = Path(path).read_text()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, val = (tok.strip() for tok in line.split("=", 1))
        out[key.replace("-", "_")] = val
    return out


def _merge_config(args) -> RunConfig:
    cfg = RunConfig()
    if getattr(args, "config", None):
        file_vals = _load_config_file(args.config)
        valid = {f.name: f.type for f in fields(RunConfig)}
        for key, val in file_vals.items():
            if key not in valid:
                raise ConfigError(f"unknown config key {key!r}")
            typ = type(getattr(cfg, key))
            try:
                setattr(cfg, key, typ(val))
            except ValueError:
                raise ConfigError(f"bad value for {key!r}: {val!r}") from None
    for f in fields(RunConfig):
        val = getattr(args, f.name, None)
        if val is not None:
            setattr(cfg, f.name, val)
    return cfg.check()


def _add_run_flags(p):
    p.add_argument("--config", help="flat key=value configuration file")
    p.add_argument("--print-config", action="store_true",
                   help="print the effective configuration and exit")
    p.add_argument("--variant", choices=("A", "B", "C"))
    p.add_argument("--k", type=int)
    p.add_argument("--bc-mode", dest="bc_mode", choices=("strong", "nitsche"))
    p.add_argument("--case", help="manufactured case id (1, 2, polyN)")
    p.add_argument("--scaling", choices=STAB_SCALINGS)
    p.add_argument("--mesh-kind", dest="mesh_kind",
                   choices=("rect", "tri", "voronoi", "file"))
    p.add_argument("--n", type=int, help="rect/tri resolution")
    p.add_argument("--cells", type=int, help="voronoi cell count")
    p.add_argument("--seed", type=int)
    p.add_argument("--lloyd", type=int, help="voronoi relaxation sweeps")
    p.add_argument("--mesh-file", dest="mesh_file")
    p.add_argument("--levels", help="comma list of resolutions, coarse to fine")
    p.add_argument("--out-dir", dest="out_dir")


def _report_csv_path(cfg, tag=None):
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    name = tag or f"{cfg.variant}_k{cfg.k}_{cfg.bc_mode}"
    return out / f"report_{name}.csv"


def cmd_mesh(cfg, args) -> int:
    mesh = cfg.build_mesh()
    out = args.out or "mesh.json"
    save_mesh(mesh, out)
    report = validate(mesh)
    print(f"wrote {out}: {mesh}")
    print(report)
    return 0 if report.ok else 3


def cmd_solve(cfg, args) -> int:
    mesh = cfg.build_mesh()
    case = get_case(cfg.case)
    report, _, _ = solve_and_measure(
        mesh, cfg.variant, cfg.k, cfg.bc_mode, case, scaling=cfg.scaling)
    path = _report_csv_path(cfg)
    RateTable([report]).to_csv(path)
    print(f"variant {cfg.variant}, k={cfg.k}, {cfg.bc_mode} bc, case {cfg.case}")
    print(f"  mesh: {mesh}  (h_max = {report.h_max:.4e})")
    print(f"  dofs: {report.dofs}")
    print(f"  err_h2_rel = {report.err_h2_rel:.6e}")
    print(f"  err_l2_rel = {report.err_l2_rel:.6e}")
    print(f"  report: {path}")
    return 0


def _run_family(cfg, variant, bc_mode, tag):
    meshes = (cfg.build_mesh(r) for r in cfg.level_list())
    case = get_case(cfg.case)
    path = _report_csv_path(cfg, tag)

    def progress(rep):
        print(f"  [{tag}] h={rep.h_max:.3e} dofs={rep.dofs} "
              f"errH2={rep.err_h2_rel:.4e} errL2={rep.err_l2_rel:.4e}")

    table = convergence_study(meshes, variant, cfg.k, bc_mode, case,
                              scaling=cfg.scaling, csv_path=path,
                              progress=progress)
    print(f"  [{tag}] fitted slopes: H2 {table.slope_h2:.3f}, "
          f"L2 {table.slope_l2:.3f}  -> {path}")
    return table


def cmd_convergence(cfg, args) -> int:
    _run_family(cfg, cfg.variant, cfg.bc_mode,
                f"{cfg.variant}_k{cfg.k}_{cfg.bc_mode}")
    return 0


def cmd_compare(cfg, args) -> int:
    if args.what == "variants":
        runs = {v: (v, cfg.bc_mode) for v in ("A", "B", "C")}
    else:
        runs = {mode: (cfg.variant, mode) for mode in ("strong", "nitsche")}
    # An unsupported pair (Nitsche with variant C) fails before any solve.
    for variant, mode in runs.values():
        replace(cfg, variant=variant, bc_mode=mode).check()
    tables = {key: _run_family(cfg, v, mode, f"{v}_k{cfg.k}_{mode}")
              for key, (v, mode) in runs.items()}
    if args.what == "variants":
        errs = {v: [r.err_h2_rel for r in t.reports] for v, t in tables.items()}
        for lvl in range(len(errs["A"])):
            vals = [errs[v][lvl] for v in ("A", "B", "C")]
            print(f"level {lvl}: H2 errors A/B/C = "
                  + " / ".join(f"{e:.4e}" for e in vals)
                  + f"  (max/min = {max(vals) / min(vals):.2f})")
    else:
        for lvl, (rs, rn) in enumerate(zip(tables["strong"].reports,
                                           tables["nitsche"].reports)):
            print(f"level {lvl}: strong/nitsche H2 ratio = "
                  f"{rs.err_h2_rel / rn.err_h2_rel:.3f}")
    return 0


def make_parser():
    parser = argparse.ArgumentParser(
        prog="hhobiharm",
        description="Hybrid high-order solvers for the biharmonic problem "
                    "on polygonal meshes")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mesh", help="generate and validate a mesh file")
    p.add_argument("--kind", dest="mesh_kind",
                   choices=("rect", "tri", "voronoi"))
    _add_run_flags(p)
    p.add_argument("--out", help="output mesh path (default mesh.json)")
    p.set_defaults(fn=cmd_mesh)

    p = sub.add_parser("solve", help="single manufactured-solution solve")
    _add_run_flags(p)
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("convergence", help="refinement family with fitted rates")
    _add_run_flags(p)
    p.set_defaults(fn=cmd_convergence)

    p = sub.add_parser("compare", help="compare variants or bc modes")
    p.add_argument("--what", choices=("variants", "bc"), default="variants")
    _add_run_flags(p)
    p.set_defaults(fn=cmd_compare)
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _merge_config(args)
        if args.print_config:
            for f in fields(RunConfig):
                print(f"{f.name} = {getattr(cfg, f.name)}")
            return 0
        return args.fn(cfg, args)
    except (ConfigError, MeshFormatError) as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 2
    except MeshError as err:
        print(f"mesh failure: {err}", file=sys.stderr)
        return 3
    except NumericalError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
