"""Command-line surface: sample runs, checks, pipelines, reproducible artifacts.

Every command writes a JSON manifest next to its outputs; `projsum replay`
re-runs a manifest and reproduces the output files byte for byte.  Exit
codes: 0 success, 1 numeric failure, 2 usage error, 3 check violation.
"""

from __future__ import annotations

import argparse
import csv
import errno
import functools
import io
import json
import math
import os
import sys
import time
from dataclasses import fields, is_dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .convergence import _solver_versions, convergence_run, corner_atom_masses
from .geometry import make_geometry
from .hermitization import InvalidGridError, PotentialGrid, _grid_steps, laplacian_recover, sample_potential_grid
from .model import CHECK_Z, ModelSpec, TwoAtomLaw, UsageError, _realize, assemble_model, substream_rng
from .spectra import ComputationError, _MARGIN_ACCURACY, esd, structure_report, verify_sv_bound

E_OK, E_NUMERIC, E_USAGE, E_CHECK = 0, 1, 2, 3

# tolerances of `check`; "scale" is the geometry's max(|A|, |B|, 1)
CHECK_TOLERANCES = {
    "support": _MARGIN_ACCURACY,  # times scale; the support deviation is certified within it, or dense
    "normality": 1e-10,
    "re_constant": 1e-9,  # times scale^2
    "im_bound": 1e-10,  # times scale^2, added to the |A*B|/2 bound
    "sv_bound": _MARGIN_ACCURACY,  # times scale, the allowed negative margin
    "corner_mass": 1e-12,  # |ESD mass - subspace mass| at each corner
}


def _commit(prefix: str, outputs: dict[str, str]) -> None:
    """Write each text of ``outputs`` to ``<prefix>.<suffix>``: every ``.tmp`` sibling first, then, if no target is
    a directory, each rename in order, so only a failing rename leaves the files renamed before it.  An unwritable
    path is a usage error, and leaves no ``.tmp`` that this call made."""
    targets = {Path(f"{prefix}.{suffix}"): text for suffix, text in outputs.items()}
    made = []
    try:
        for path, text in targets.items():
            tmp = path.with_name(path.name + ".tmp")
            with open(tmp, "w", encoding="utf-8", newline="") as fh:
                made.append(tmp)
                fh.write(text)
        for path in targets:
            if path.is_dir() and not path.is_symlink():  # os.replace would refuse it after the earlier renames
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        for path, tmp in zip(targets, made):
            os.replace(tmp, path)
    except OSError as exc:
        for tmp in made:
            tmp.unlink(missing_ok=True)
        raise UsageError(f"cannot write {path}: {exc.strerror}") from exc


def _csv_text(columns: dict[str, np.ndarray], footer: str | None = None) -> str:
    """Equal-length flat float columns under their names as header.

    Each value is written as its ``repr``, so it reads back bit for bit;
    the ``footer`` line, if any, follows the last row.
    """
    buf = io.StringIO()
    writer = csv.writer(buf)  # RFC 4180 line endings
    writer.writerow(columns)
    writer.writerows(np.column_stack(list(columns.values())).tolist())
    text = buf.getvalue()
    if footer is not None:
        text += footer + "\r\n"
    return text


def _encode(obj):
    if is_dataclass(obj):
        return {f.name: getattr(obj, f.name) for f in fields(obj)}
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _json_text(obj) -> str:
    """``obj`` as sorted, indented JSON.

    A dataclass is written as the dict of its fields and a complex number as
    ``[re, im]``, so a result type reaches the file with every field it has.
    """
    return json.dumps(obj, indent=2, sort_keys=True, default=_encode) + "\n"


def _realized_laws(p_law: TwoAtomLaw, q_law: TwoAtomLaw, n: int) -> dict:
    return {"p": _realize(p_law, n)[1], "q": _realize(q_law, n)[1]}


def _run(args) -> int:
    """Run the handler of ``args.command``, then commit its outputs and its manifest, last; no other code writes a file.

    The handler ``cmd_<command>`` is looked up by name when it runs.  It returns its exit
    code, its outputs as text by suffix (``"esd.csv"``, ...), and a record of what only it knows:
    its realized laws, its stage timings and any further manifest keys.  One that raises writes nothing.
    """
    t0 = time.perf_counter()
    code, outputs, record = globals()[f"cmd_{args.command}"](args)
    manifest = {
        "command": args.command,
        "params": {k: v for k, v in vars(args).items() if k != "command"},
        "realized_laws": None,
        "tool_version": __version__,
        **record,
        "timings": {**record.get("timings", {}), "total_s": time.perf_counter() - t0},
        # BLAS threading changes roundoff, hence output bytes; recorded, never replayed
        "blas_threads": {name: os.environ.get(name) for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }
    _commit(args.out_prefix, {**outputs, "manifest.json": _json_text(manifest)})
    return code


def _read_manifest(path: str) -> dict:
    try:
        manifest = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise UsageError(f"manifest {path} cannot be read: {exc.strerror}") from exc
    except ValueError as exc:  # not UTF-8, or not JSON
        raise UsageError(f"manifest {path} is not a JSON file: {exc}") from exc
    if not isinstance(manifest, dict):
        raise UsageError(f"manifest {path} holds a JSON {type(manifest).__name__}, not an object")
    return manifest


def _manifest_params(manifest: dict, command: str) -> dict:
    """A copy of ``manifest``'s params, refused unless they are the destinations
    of exactly ``command``'s flags, each of a type that flag gives."""
    params = manifest.get("params")
    if not isinstance(params, dict):
        raise UsageError("manifest has no params")
    expected = _command_params(command)
    if params.keys() != expected.keys():
        raise UsageError(
            f"manifest params do not match `{command}`: missing {sorted(expected.keys() - params.keys())},"
            f" unexpected {sorted(params.keys() - expected.keys())}"
        )
    mistyped = [f"{key}={value!r}" for key, value in params.items() if type(value) not in expected[key]]
    if mistyped:
        raise UsageError(f"manifest params of `{command}` have the wrong type: {', '.join(sorted(mistyped))}")
    return dict(params)


def _laws_from(args) -> tuple[TwoAtomLaw, TwoAtomLaw]:
    p_law = TwoAtomLaw(weight=args.a, loc=args.alpha, loc_alt=args.alpha_prime)
    q_law = TwoAtomLaw(weight=args.b, loc=args.beta, loc_alt=args.beta_prime)
    return p_law, q_law


def _spec_from(args) -> ModelSpec:
    p_law, q_law = _laws_from(args)
    return ModelSpec(p_law=p_law, q_law=q_law, n=args.n, seed=args.seed)


def cmd_sample(args) -> tuple[int, dict[str, str], dict]:
    t0 = time.perf_counter()
    realization = assemble_model(_spec_from(args))
    points = esd(realization).points
    sample_s = time.perf_counter() - t0
    laws = {"p": realization.realized_p_law, "q": realization.realized_q_law}
    outputs = {"esd.csv": _csv_text({"re": points.real, "im": points.imag})}
    return E_OK, outputs, {"realized_laws": laws, "timings": {"sample_s": sample_s}}


def cmd_check(args) -> tuple[int, dict[str, str], dict]:
    if args.z_grid < 0:
        raise UsageError(f"--z-grid must be >= 0, got {args.z_grid}")
    spec = _spec_from(args)
    gap = max(abs(spec.p_law.gap), abs(spec.q_law.gap))
    if math.isinf(gap * gap):
        # the structure identities square X_n - center, and their tolerances the gaps
        raise UsageError(f"check needs atom gaps whose square is finite, got a gap of {gap!r}")
    realization = assemble_model(spec)
    geom = make_geometry(realization.realized_p_law, realization.realized_q_law)
    scale = geom.scale
    report = structure_report(realization)

    tol = CHECK_TOLERANCES
    checks = []
    checks.append(("support", report.support_deviation <= tol["support"] * scale,
                   f"support_deviation={report.support_deviation:.3e}"))
    checks.append(("normality", report.normality_residual <= tol["normality"],
                   f"normality_residual={report.normality_residual:.3e}"))
    checks.append(("re_constant", report.re_deviation <= tol["re_constant"] * scale * scale,
                   f"re_deviation={report.re_deviation:.3e}"))
    checks.append(("im_bound", report.im_norm <= geom.im_halfwidth + tol["im_bound"] * scale * scale,
                   f"im_norm={report.im_norm:.12e} bound={geom.im_halfwidth:.12e}"))

    if args.z_grid > 0:
        rng = substream_rng(args.seed, CHECK_Z)
        xs = [c.real for c in geom.corners]
        ys = [c.imag for c in geom.corners]
        x0, x1, y0, y1 = min(xs) - scale, max(xs) + scale, min(ys) - scale, max(ys) + scale
        zs = x0 + (x1 - x0) * rng.random(args.z_grid) + 1j * (y0 + (y1 - y0) * rng.random(args.z_grid))
        margins = [
            {"re": float(z.real), "im": float(z.imag), "margin": float(margin)}
            for z, margin in zip(zs, verify_sv_bound(realization, zs))
        ]
        worst = min(m["margin"] for m in margins)
        checks.append(("sv_bound", worst >= -tol["sv_bound"] * scale, f"worst_margin={worst:.3e}"))
    else:
        margins = []

    masses = corner_atom_masses(realization)
    corner_ok = all(abs(e - i) <= tol["corner_mass"] for e, i in zip(masses.esd_mass, masses.intersection_mass))
    checks.append(("corner_mass", corner_ok,
                   f"esd={masses.esd_mass} subspace={masses.intersection_mass}"))

    first_failure = next((name for name, ok, _ in checks if not ok), None)
    outputs = {"check.json": _json_text({
        "structure": report,
        "sv_margins": margins,
        "corner_masses": masses,
        "checks": [{"name": name, "ok": ok, "detail": detail} for name, ok, detail in checks],
        "first_failure": first_failure,
    })}
    record = {"realized_laws": {"p": realization.realized_p_law, "q": realization.realized_q_law}}
    if first_failure is not None:
        print(f"check failed: {first_failure}", file=sys.stderr)
        return E_CHECK, outputs, record
    print("all checks passed")
    return E_OK, outputs, record


def cmd_potential(args) -> tuple[int, dict[str, str], dict]:
    t0 = time.perf_counter()
    spec = _spec_from(args)
    window = (args.xmin, args.xmax, args.ymin, args.ymax)
    grid = sample_potential_grid(spec, window, args.nx, args.ny, args.samples)
    grid_s = time.perf_counter() - t0
    nodes = grid.nodes().ravel()
    outputs = {"potential.csv": _csv_text({"re": nodes.real, "im": nodes.imag, "L": grid.values.ravel()})}
    return E_OK, outputs, {
        "realized_laws": _realized_laws(spec.p_law, spec.q_law, spec.n),
        "timings": {"grid_s": grid_s},
        "perturbed_nodes": grid.perturbations,
    }


def cmd_recover(args) -> tuple[int, dict[str, str], dict]:
    import hashlib

    source = args.in_prefix + ".manifest.json"
    if os.path.realpath(args.out_prefix + ".manifest.json") == os.path.realpath(source):
        raise UsageError(f"--out-prefix {args.out_prefix!r} would overwrite the manifest {source} it reads")
    src_manifest = _read_manifest(source)
    if src_manifest.get("command") != "potential":
        raise UsageError(f"--in-prefix must point at a `potential` run, found {src_manifest.get('command')!r}")
    params = _manifest_params(src_manifest, "potential")
    nx, ny = params["nx"], params["ny"]
    window = tuple(params[key] for key in ("xmin", "xmax", "ymin", "ymax"))
    steps = _grid_steps(window, nx, ny)
    path = args.in_prefix + ".potential.csv"
    try:
        raw = Path(path).read_bytes()
        reader = csv.DictReader(io.StringIO(raw.decode("utf-8"), newline=""))
        flat = [float(row["L"]) for row in reader] if "L" in (reader.fieldnames or ()) else None
    except OSError as exc:
        raise UsageError(f"potential file {path} cannot be read: {exc.strerror}") from exc
    except (TypeError, ValueError) as exc:  # bytes that are not UTF-8, or a cell that is no number (None if missing)
        raise UsageError(f"potential file has an unreadable L value: {exc}") from exc
    if flat is None:
        raise InvalidGridError("potential file has no L column")
    if len(flat) != nx * ny:
        raise InvalidGridError(f"potential file has {len(flat)} rows, expected {nx * ny}")
    rec = laplacian_recover(PotentialGrid(*steps, values=np.asarray(flat).reshape(nx, ny)))
    nodes = rec.grid.interior_nodes().ravel()
    footer = f"# raw_total={rec.raw_total!r} negative_mass={rec.negative_mass!r}"
    outputs = {"measure.csv": _csv_text({"re": nodes.real, "im": nodes.imag, "mass": rec.mass.ravel()}, footer)}
    # `replay` refuses to re-run on an input whose bytes have changed since
    return E_OK, outputs, {"input_sha256": {path: hashlib.sha256(raw).hexdigest()}}


def cmd_converge(args) -> tuple[int, dict[str, str], dict]:
    p_law, q_law = _laws_from(args)
    try:
        schedule = [int(tok) for tok in args.schedule.split(",") if tok.strip()]
    except ValueError as exc:
        raise UsageError(f"--schedule must list integers, got {args.schedule!r}") from exc
    report = convergence_run(p_law, q_law, schedule, samples=args.samples, seed=args.seed,
                             reference_n=args.reference_n, grid_resolution=args.resolution)
    record = {"realized_laws": _realized_laws(p_law, q_law, report.reference_n), "versions": _solver_versions()}
    return E_OK, {"converge.json": _json_text(report)}, record


def cmd_replay(args) -> int:
    import hashlib

    manifest = _read_manifest(args.manifest)
    if manifest.get("tool_version") != __version__:
        raise UsageError(f"manifest is from projsum {manifest.get('tool_version')}, not {__version__}")
    command = manifest.get("command")
    # replay writes no manifest of its own, so one naming it is not a record of any run
    if not isinstance(command, str) or command not in _subcommands() or command == "replay":
        raise UsageError(f"manifest names unknown command {command!r}")
    params = _manifest_params(manifest, command)
    digests = manifest.get("input_sha256", {})
    if not isinstance(digests, dict):
        raise UsageError(f"manifest input_sha256 is a JSON {type(digests).__name__}, not an object")
    for path, digest in digests.items():
        try:
            now = hashlib.sha256(Path(path).read_bytes()).hexdigest()
        except OSError as exc:
            raise UsageError(f"input {path} cannot be read: {exc.strerror}") from exc
        if now != digest:
            raise UsageError(f"input {path} has changed since the run: sha256 {now}, manifest {digest}")
    # never clobber the original artifacts by default
    params["out_prefix"] = args.out_prefix if args.out_prefix is not None else params["out_prefix"] + ".replay"
    return _run(argparse.Namespace(command=command, **params))


def _add_law_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--a", type=float, required=True, help="weight of the p atom at --alpha")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--alpha-prime", type=float, required=True)
    p.add_argument("--b", type=float, required=True, help="weight of the q atom at --beta")
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--beta-prime", type=float, required=True)


def _add_sample_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, required=True, help="matrix dimension")
    _add_law_flags(p)
    p.add_argument("--seed", type=int, default=0)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built once per process on first use."""
    parser = argparse.ArgumentParser(
        prog="projsum",
        description="Sample and verify the Haar-rotated two-atom matrix model.",
    )
    parser.add_argument("--version", action="version", version=f"projsum {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="draw one realization and write its ESD")
    _add_sample_flags(p)
    p.add_argument("--out-prefix", default="sample")

    p = sub.add_parser("check", help="run structural checks on one realization")
    _add_sample_flags(p)
    p.add_argument("--z-grid", type=int, default=20,
                   help="random z count for the bound check; 0 skips it")
    p.add_argument("--out-prefix", default="check")

    p = sub.add_parser("potential", help="averaged log-potential grid over samples")
    _add_sample_flags(p)
    p.add_argument("--xmin", type=float, required=True)
    p.add_argument("--xmax", type=float, required=True)
    p.add_argument("--ymin", type=float, required=True)
    p.add_argument("--ymax", type=float, required=True)
    p.add_argument("--nx", type=int, required=True)
    p.add_argument("--ny", type=int, required=True)
    p.add_argument("--samples", type=int, default=1)
    p.add_argument("--out-prefix", default="potential")

    p = sub.add_parser("recover", help="apply the Laplacian stencil to a potential grid")
    p.add_argument("--in-prefix", required=True,
                   help="prefix written by `projsum potential`")
    p.add_argument("--out-prefix", default="recover")

    p = sub.add_parser("converge", help="pooled-ESD convergence study across dimensions")
    _add_law_flags(p)
    p.add_argument("--schedule", required=True, help="comma-separated dimensions, e.g. 50,100,200")
    p.add_argument("--reference-n", type=int, default=None)
    p.add_argument("--samples", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--resolution", type=float, default=None, help="BL binning resolution")
    p.add_argument("--out-prefix", default="converge")

    p = sub.add_parser("replay", help="re-run a command from its manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out-prefix", default=None,
                   help="override the output prefix (default: original + '.replay')")

    return parser


def _subcommands() -> dict[str, argparse.ArgumentParser]:
    """Each subcommand's parser by name, from the one parser of the process."""
    return next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices


def _command_params(command: str) -> dict[str, tuple[type, ...]]:
    """Destinations of ``command``'s flags (the params its manifest records), each
    with the exact types its value may take: the flag's ``type`` (str when it
    has none), plus None where an optional flag defaults to it.  No flag is a switch.
    """
    types = {}
    for action in _subcommands()[command]._actions:
        if not isinstance(action, argparse._HelpAction):
            none = (type(None),) if action.default is None and not action.required else ()
            types[action.dest] = (action.type or str, *none)
    return types


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return cmd_replay(args) if args.command == "replay" else _run(args)
    except (ComputationError, np.linalg.LinAlgError, ArithmeticError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return E_NUMERIC
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return E_USAGE


if __name__ == "__main__":
    sys.exit(main())
