"""Command-line surface: one report per invocation, JSON on request.

Exit codes: 0 positive verdict or success, 1 inconclusive or negative verdict,
2 input/usage error, 3 internal inconsistency.  Reports are reproducible:
same file, seed and tolerances give identical bytes.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import certify, construct, fileformat, optimize, stress, svg
from .errors import InternalInconsistency, ParseError, PerigidError
from .framework import (
    Realization,
    fixed_rigidity_matrix,
    rigidity_matrix,
)
from .gain import GainGraph
from .linalg import numeric_rank
from .tolerances import ToleranceVault

ENV_SEED = "PERIGID_SEED"

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3

BATCH_COMMANDS = ("info", "rank", "stresses", "certify", "generic-test", "minimize")


class _Mode(NamedTuple):
    stress_space: Callable  # (graph, real, tol)
    certify: Callable  # (graph, real, weights, lam, tol)
    generic_test: Optional[Callable]  # (graph, real or None, tol)


# Entries look their functions up when called, so a wrapper installed on a
# module attribute (a profiler's, a test's) sees every call made through here.
_MODES = {
    "flexible": _Mode(
        lambda g, r, t: stress.stress_space(g, r, t),
        lambda g, r, w, lam, t: certify.certify_super_stable(g, r, w, t),
        lambda g, r, t: certify.generic_global_rigidity_test(g, t),
    ),
    "fixed": _Mode(
        lambda g, r, t: stress.fixed_stress_space(g, r, t),
        lambda g, r, w, lam, t: certify.certify_fixed_lattice(g, r, w, t),
        lambda g, r, t: certify.generic_fixed_global_rigidity_test(
            g, t, lattice=None if r is None else r.lattice
        ),
    ),
    "volume": _Mode(
        lambda g, r, t: stress.lambda_stress_space(g, r, t),
        lambda g, r, w, lam, t: certify.certify_volume_constrained(g, r, w, lam, t),
        None,
    ),
    "spiderweb": _Mode(
        lambda g, r, t: stress.fixed_stress_space(g, r, t),
        lambda g, r, w, lam, t: certify.certify_spiderweb(g, r, w, t),
        None,
    ),
}


@functools.cache  # parse_args leaves the parser as it was, so one serves every call
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="perigid",
        description="Decide and certify global rigidity of periodic frameworks.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p: argparse.ArgumentParser, with_file: bool = True) -> None:
        if with_file:
            p.add_argument("file", nargs="?", help="framework JSON file")
            p.add_argument("--batch", metavar="DIR", help="process every *.json in DIR")
        p.add_argument("--tol", type=float, help="override all tolerances with one value")
        p.add_argument("--seed", type=int, help="RNG seed (also PERIGID_SEED)")
        p.add_argument("--json", action="store_true", help="emit the full JSON report")
        p.add_argument(
            "--emit-matrices", action="store_true", help="include matrices in the report"
        )

    add_common(sub.add_parser("info", help="counts, connectivity, gain rank"))
    add_common(sub.add_parser("rank", help="ranks of every matrix at the given realization"))

    # spiderweb is a certificate on the fixed-lattice stress space, not a space
    p = sub.add_parser("stresses", help="basis of the requested stress space")
    p.add_argument("--mode", choices=("flexible", "fixed", "volume"), default="flexible")
    add_common(p)

    p = sub.add_parser("certify", help="stress-matrix certificates")
    p.add_argument("--mode", choices=tuple(_MODES), default="flexible")
    p.add_argument("--stress", choices=("from-file", "compute"), default="from-file")
    add_common(p)

    p = sub.add_parser("generic-test", help="randomized generic global rigidity test")
    p.add_argument(
        "--mode", choices=[m for m, e in _MODES.items() if e.generic_test], default="flexible"
    )
    p.add_argument(
        "--trials", type=int,
        help="at most this many independent trials: the first proved one decides",
    )
    add_common(p)

    p = sub.add_parser("minimize", help="volume-constrained standard realization")
    p.add_argument("--stress", choices=("from-file", "compute"), default="from-file")
    add_common(p)

    p = sub.add_parser("cover", help="render a covering window as SVG")
    p.add_argument("--window", type=int, default=1)
    p.add_argument("--svg", required=True, help="output SVG path")
    add_common(p)

    p = sub.add_parser("from-finite", help="roll a finite framework up into a gain graph")
    p.add_argument("--pairs", required=True, help="pairs u:v, comma separated, e.g. 0:4,2:6")
    p.add_argument("--emit", help="write the periodic framework JSON here")
    add_common(p)

    p = sub.add_parser("fixtures", help="built-in worked examples")
    p.add_argument("--name", help="fixture name; omit to list")
    p.add_argument("--emit", help="write the fixture framework JSON here")
    add_common(p, with_file=False)
    return parser


def _vault(args) -> ToleranceVault:
    kwargs = {}
    if args.tol is not None:
        kwargs.update(rank_rel_tol=args.tol, residual_tol=args.tol)
    seed = args.seed
    if seed is None and os.environ.get(ENV_SEED):
        try:
            seed = int(os.environ[ENV_SEED])
        except ValueError as exc:
            raise ParseError(f"{ENV_SEED} must be an integer") from exc
    if seed is not None:
        kwargs["rng_seed"] = seed
    trials = getattr(args, "trials", None)
    if trials is not None:
        kwargs["generic_trials"] = trials
    try:
        return ToleranceVault(**kwargs)
    except ValueError as exc:
        raise ParseError(f"invalid option value: {exc}") from exc


def _read(path: str) -> bytes:
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _write(path: str, data: bytes) -> None:
    # Overwrite in place, then cut the file to length.  Truncating an existing
    # file to zero first (what ``open(path, "wb")`` does) makes ext4 flush the
    # new contents to disk on close, which costs tens of milliseconds per call
    # and as much again as the disk is busy.
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.truncate()
    except OSError as exc:
        raise ParseError(f"cannot write {path}: {exc}") from exc


def _load(path: str) -> fileformat.ParsedFramework:
    return fileformat.loads(_read(path))


def _need_realization(parsed: fileformat.ParsedFramework) -> Realization:
    if parsed.realization is None:
        raise ParseError("this command needs vertex positions and a lattice")
    return parsed.realization


def _matrix_payload(graph: GainGraph, realization: Optional[Realization]) -> dict:
    payload = {
        "index_orders": {
            "vertices": [str(v) for v in graph.vertices],
            "edges": [
                {"tail": str(e.tail), "head": str(e.head), "gain": list(e.gain)}
                for e in graph.edges
            ],
            "lattice_columns": list(range(graph.dimension)),
        },
        "incidence": graph.incidence().tolist(),
        "incidence_zd": graph.incidence_zd().tolist(),
    }
    if realization is not None:
        payload["rigidity"] = rigidity_matrix(graph, realization).tolist()
        payload["fixed_rigidity"] = fixed_rigidity_matrix(graph, realization).tolist()
    return payload


def _pick_stress(
    parsed: fileformat.ParsedFramework,
    mode: str,
    source: str,
    vault: ToleranceVault,
) -> tuple[np.ndarray, Optional[float], dict]:
    """Stress (and multiplier for volume mode) from the file or the stress space."""
    graph = parsed.graph
    info: dict = {"stress_source": source}
    if source == "from-file":
        if parsed.stress is None:
            raise ParseError("no edge weights in file; use --stress compute")
        lam = parsed.lam
        if mode == "volume" and lam is None:
            raise ParseError("volume mode needs a lambda field in the file")
        return parsed.stress, lam, info
    real = _need_realization(parsed)
    basis = _MODES[mode].stress_space(graph, real, vault)
    info["stress_space_dim"] = int(basis.shape[1])
    if basis.shape[1] == 0:
        raise ParseError("computed stress space is trivial; nothing to certify")
    if basis.shape[1] > 1:
        # a seeded Gaussian projected onto the space (the basis is
        # orthonormal), so the draw does not depend on the basis's rotation
        draw = np.random.default_rng(vault.rng_seed).standard_normal(basis.shape[0])
        basis = basis @ (basis.T @ draw)
    vec = stress.normalized_stress(basis)
    if mode == "volume":
        return vec[:-1], float(vec[-1]), info
    return vec, None, info


def _run_info(parsed, vault, args) -> tuple[dict, int]:
    graph = parsed.graph
    holds, rank_izd = graph.full_rank_condition()
    payload = {
        "dimension": graph.dimension,
        "vertices": graph.num_vertices,
        "edges": graph.num_edges,
        "loops": int(np.count_nonzero(graph.loop_mask)),
        "markings": {kind: graph.markings().count(kind) for kind in ("bar", "cable", "strut")},
        "connected": graph.is_connected(),
        "gain_rank": graph.gain_rank(),
        "full_rank_condition": {"holds": holds, "rank_incidence_zd": rank_izd},
        "has_realization": parsed.realization is not None,
        "has_stress": parsed.stress is not None,
    }
    return payload, EXIT_OK


def _run_rank(parsed, vault, args) -> tuple[dict, int]:
    graph = parsed.graph
    real = _need_realization(parsed)
    n, edges = graph.num_vertices, graph.num_edges

    def entry(shape, rank, marginal=False) -> dict:
        return {"shape": list(shape), "rank": rank, "marginal": marginal}

    # the incidence ranks are exact integers, so neither matrix is built
    payload = {
        "incidence": entry((edges, n), n - len(graph.components())),
        "incidence_zd": entry((edges, n + graph.dimension), graph.full_rank_condition()[1]),
    }
    for name, matrix in (
        ("rigidity", rigidity_matrix(graph, real)),
        ("fixed_rigidity", fixed_rigidity_matrix(graph, real)),
    ):
        res = numeric_rank(matrix, vault)
        payload[name] = entry(matrix.shape, res.rank, res.marginal)
    if real.non_flat(vault):
        res = numeric_rank(stress._balanced_volume_rigidity(graph, real, vault)[0], vault)
        payload["volume_rigidity"] = {"rank": res.rank, "marginal": res.marginal}
    if parsed.stress is not None:
        # a strictly positive stress builds neither matrix, any other one each in turn
        for name, order in (("laplacian", n), ("zd_laplacian", n + graph.dimension)):
            res = stress._stress_spectrum(graph, parsed.stress, name, vault)
            payload[name] = entry((order, order), res.rank, res.marginal)
    return payload, EXIT_OK


def _run_stresses(parsed, vault, args) -> tuple[dict, int]:
    graph = parsed.graph
    basis = _MODES[args.mode].stress_space(graph, _need_realization(parsed), vault)
    payload = {
        "mode": args.mode,
        "dimension": int(basis.shape[1]),
        "basis": [basis[:, i].tolist() for i in range(basis.shape[1])],
    }
    if basis.shape[1] == 1:
        payload["normalized"] = stress.normalized_stress(basis).tolist()
    return payload, EXIT_OK


def _run_certify(parsed, vault, args) -> tuple[dict, int]:
    graph = parsed.graph
    real = _need_realization(parsed)
    weights, lam, info = _pick_stress(parsed, args.mode, args.stress, vault)
    cert = _MODES[args.mode].certify(graph, real, weights, lam, vault)
    payload = {"mode": args.mode, **info, "certificate": cert.to_dict()}
    return payload, EXIT_OK if cert.positive else EXIT_NEGATIVE


def _run_generic_test(parsed, vault, args) -> tuple[dict, int]:
    cert = _MODES[args.mode].generic_test(parsed.graph, parsed.realization, vault)
    payload = {"mode": args.mode, "certificate": cert.to_dict()}
    return payload, EXIT_OK if cert.positive else EXIT_NEGATIVE


def _run_minimize(parsed, vault, args) -> tuple[dict, int]:
    graph = parsed.graph
    if args.stress == "from-file" and parsed.stress is not None:
        weights = parsed.stress
        source = "from-file"
    else:
        real = _need_realization(parsed)
        basis = stress.fixed_stress_space(graph, real, vault)
        if basis.shape[1] != 1:
            raise ParseError(
                "cannot infer a stress: supply edge weights or a framework whose "
                "fixed stress space is one-dimensional"
            )
        weights = stress.normalized_stress(basis)
        source = "computed"
    real_star, report = optimize.standard_realization(graph, weights, vault)
    payload = {
        "stress_source": source,
        "kkt": report.to_dict(),
        "energy": optimize.energy(graph, weights, real_star, vault),
        "realization": {
            "positions": {str(v): real_star.points[v].tolist() for v in graph.vertices},
            "lattice_columns": [
                real_star.lattice[:, i].tolist() for i in range(graph.dimension)
            ],
        },
    }
    return payload, EXIT_OK if report.passed else EXIT_NEGATIVE


def _run_cover(parsed, vault, args) -> tuple[dict, int]:
    graph = parsed.graph
    real = _need_realization(parsed)
    cover, image = svg.render_covering(graph, real, args.window, vault)
    _write(args.svg, image)
    payload = {
        "window": args.window,
        "vertices": len(cover.vertices),
        "edges": len(cover.edges),
        "svg": args.svg,
        "bytes": len(image),
    }
    return payload, EXIT_OK


def _parse_pairs(text: str) -> list[tuple[str, str]]:
    pairs = []
    for chunk in text.split(","):
        parts = chunk.strip().split(":")
        if len(parts) != 2 or not parts[0] or not parts[1]:
            raise ParseError(f"--pairs entries look like u:v, got {chunk!r}")
        pairs.append((parts[0], parts[1]))
    return pairs


def _run_from_finite(args, vault) -> tuple[Optional[dict], int, Optional[bytes]]:
    if args.file is None:
        raise ParseError("from-finite needs a finite framework file")
    finite, finite_stress = fileformat.loads_finite(_read(args.file))
    quotient = construct.finite_to_periodic(finite, _parse_pairs(args.pairs))
    document = fileformat.dumps(quotient.graph, quotient.realization, finite_stress)
    if args.emit:
        _write(args.emit, document)
        payload = {
            "vertices": quotient.graph.num_vertices,
            "edges": quotient.graph.num_edges,
            "lattice_columns": [
                quotient.realization.lattice[:, i].tolist()
                for i in range(quotient.graph.dimension)
            ],
            "emitted": args.emit,
        }
        return payload, EXIT_OK, None
    return None, EXIT_OK, document


def _run_fixtures(args, vault) -> tuple[Optional[dict], int, Optional[bytes]]:
    catalog = construct.fixtures()
    if not args.name:
        payload = {
            "fixtures": {
                name: fix.description for name, fix in sorted(catalog.items())
            }
        }
        return payload, EXIT_OK, None
    if args.name not in catalog:
        raise ParseError(f"unknown fixture {args.name!r}; try one of {sorted(catalog)}")
    fix = catalog[args.name]
    document = fileformat.dumps(fix.graph, fix.realization, fix.stress)
    if args.emit:
        _write(args.emit, document)
        return {"fixture": args.name, "emitted": args.emit}, EXIT_OK, None
    return None, EXIT_OK, document


_HANDLERS = {
    "info": _run_info,
    "rank": _run_rank,
    "stresses": _run_stresses,
    "certify": _run_certify,
    "generic-test": _run_generic_test,
    "minimize": _run_minimize,
    "cover": _run_cover,
}


def _render_report(report: dict, as_json: bool) -> str:
    if as_json:
        return fileformat._indented_json(report, sort_keys=True) + "\n"
    lines = []

    def walk(prefix: str, value) -> None:
        if isinstance(value, dict):
            for key in value:
                walk(f"{prefix}.{key}" if prefix else str(key), value[key])
        elif isinstance(value, list) and len(value) > 8:
            lines.append(f"{prefix}: [{len(value)} entries]")
        else:
            lines.append(f"{prefix}: {value}")

    walk("", report)
    return "\n".join(lines) + "\n"


def _run_single(args, vault: ToleranceVault, path: Optional[str]) -> tuple[str, int]:
    """One file, one report string, one exit code."""
    if args.subcommand == "from-finite":
        payload, code, document = _run_from_finite(args, vault)
    elif args.subcommand == "fixtures":
        payload, code, document = _run_fixtures(args, vault)
    else:
        if path is None:
            raise ParseError("a framework file is required (or use --batch DIR)")
        parsed = _load(path)
        payload, code = _HANDLERS[args.subcommand](parsed, vault, args)
        if args.emit_matrices:
            payload["matrices"] = _matrix_payload(parsed.graph, parsed.realization)
        document = None
    if document is not None:
        return document.decode("utf-8"), code
    report = {
        "command": args.subcommand,
        "input": path,
        "tolerances": {
            "rank_rel_tol": vault.rank_rel_tol,
            "residual_tol": vault.residual_tol,
            "generic_trials": vault.generic_trials,
        },
        "seed": vault.rng_seed,
        "report": payload,
    }
    return _render_report(report, args.json), code


def cli(argv) -> int:
    """Run one CLI invocation; the report goes to stdout, diagnostics to stderr."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        vault = _vault(args)
        batch = getattr(args, "batch", None)
        if batch:
            if args.subcommand not in BATCH_COMMANDS:
                raise ParseError(f"--batch is not supported for {args.subcommand}")
            files = sorted(str(p) for p in Path(batch).glob("*.json"))
            if not files:
                raise ParseError(f"no *.json files in {batch!r}")
            # reports are written once all files have run, so an unexpected
            # exception leaves no partial batch on stdout
            reports, worst = [], EXIT_OK
            for path in files:
                try:
                    text, code = _run_single(args, vault, path)
                except PerigidError as exc:
                    text = f"error: {type(exc).__name__}: {exc}\n"
                    code = EXIT_INTERNAL if isinstance(exc, InternalInconsistency) else EXIT_INPUT
                reports.append(f"=== {path}\n{text}")
                worst = max(worst, code)
            sys.stdout.write("".join(reports))
            return worst
        text, code = _run_single(args, vault, getattr(args, "file", None))
        sys.stdout.write(text)
        return code
    except InternalInconsistency as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except PerigidError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INPUT


def main(argv=None) -> int:
    return cli(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
