"""Command line interface.

Subcommands operate on JSON group documents (see specfile):

* ``verify FILE --U NAME --V NAME``: Sunada verdict; exit 0 when the triple
  holds, 1 when it does not.
* ``report FILE --U NAME [--polygon FILE]``: covering report for one subgroup
  using the document's polygon (or a standalone polygon file).
* ``graph FILE --U NAME [--format dot|json]``: Schreier coset graph.
* ``spectrum FILE --U NAME [--tol T]``: symmetrized adjacency spectrum.
* ``search FILE --order K [--smooth] ...``: stream Sunada pairs as JSON lines.
* ``catalog NAME``: emit a bundled construction as a group document.

``FILE`` may be ``-`` for stdin.  Reports go to stdout (or ``--out FILE``);
errors go to stderr.  Exit codes: 0 success, 1 verification failed, 2 input
error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from .algebra import CycleParseError, ResourceError, UsageError
from .catalog import CatalogError, catalog_entry, catalog_names
from .covering import covering_report, covering_report_json
from .gassmann import is_sunada_triple
from .schreier import graph_json_dict, schreier_graph, to_dot
from .search import SearchConfig, find_sunada_pairs
from .spectra import (NumericError, adjacency_matrix, eigenvalues_symmetric,
                      spectrum_report_json)
from .specfile import (LoadedSpec, SpecError, document_from_catalog, load_text,
                       parse_polygon, render_element)

__all__ = ["run", "main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sunada",
        description="Verify, analyse, and search for Sunada triples of finite groups.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, with_subgroup: bool = True) -> None:
        p.add_argument("file", metavar="FILE", help="group spec document, or - for stdin")
        if with_subgroup:
            p.add_argument("--U", required=True, metavar="NAME", help="subgroup name")
        p.add_argument("--out", metavar="FILE", help="write output here instead of stdout")

    p = sub.add_parser("verify", help="check whether (G, U, V) is a Sunada triple")
    add_common(p)
    p.add_argument("--V", required=True, metavar="NAME", help="second subgroup name")

    p = sub.add_parser("report", help="covering report for one subgroup")
    add_common(p)
    p.add_argument("--polygon", metavar="FILE",
                   help="standalone polygon JSON overriding the document's polygon")

    p = sub.add_parser("graph", help="Schreier coset graph")
    add_common(p)
    p.add_argument("--format", choices=("dot", "json"), default="dot")

    p = sub.add_parser("spectrum", help="symmetrized adjacency spectrum")
    add_common(p)
    p.add_argument("--tol", type=float, default=1e-9)

    p = sub.add_parser("search", help="search Sunada pairs of a given subgroup order")
    add_common(p, with_subgroup=False)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--smooth", action="store_true",
                   help="keep only pairs whose quotients are smooth under the document polygon")
    p.add_argument("--max-subgroups", type=int, default=None)
    p.add_argument("--no-dedupe", action="store_true",
                   help="report all pairs instead of one per simultaneous conjugacy orbit")

    p = sub.add_parser("catalog", help="emit a bundled construction")
    p.add_argument("name", metavar="NAME", choices=catalog_names())
    p.add_argument("--out", metavar="FILE")

    return parser


def _read_file(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _load_spec(path: str) -> LoadedSpec:
    return load_text(_read_file(path))


def _subgroup(spec: LoadedSpec, name: str):
    try:
        return spec.subgroups[name]
    except KeyError:
        known = ", ".join(spec.subgroups) or "none"
        raise SpecError(f"unknown subgroup {name!r} (document defines: {known})") from None


def _generator_labels(spec: LoadedSpec) -> list[tuple[str, int]]:
    return [(name, spec.named_elements[name]) for name in spec.generator_names]


def _cmd_verify(args) -> int:
    spec = _load_spec(args.file)
    report = is_sunada_triple(spec.group, _subgroup(spec, args.U), _subgroup(spec, args.V))
    _emit(_json_text(report.to_json_dict()), args.out)
    return 0 if report.is_sunada_triple else 1


def _cmd_report(args) -> int:
    spec = _load_spec(args.file)
    sub = _subgroup(spec, args.U)
    if args.polygon is not None:
        try:
            body = json.loads(_read_file(args.polygon))
        except json.JSONDecodeError as exc:
            raise SpecError(f"invalid polygon JSON: {exc}") from exc
        polygon = parse_polygon(body, spec.group, spec.named_elements)
    elif spec.polygon is not None:
        polygon = spec.polygon
    else:
        raise SpecError("the document has no polygon; provide one with --polygon")
    report = covering_report(spec.group, sub, polygon)
    _emit(_json_text(covering_report_json(report)), args.out)
    return 0


def _cmd_graph(args) -> int:
    spec = _load_spec(args.file)
    graph = schreier_graph(spec.group, _subgroup(spec, args.U), _generator_labels(spec))
    if args.format == "dot":
        _emit(to_dot(graph), args.out)
    else:
        _emit(_json_text(graph_json_dict(graph)), args.out)
    return 0


def _cmd_spectrum(args) -> int:
    spec = _load_spec(args.file)
    graph = schreier_graph(spec.group, _subgroup(spec, args.U), _generator_labels(spec))
    report = eigenvalues_symmetric(adjacency_matrix(graph), tol=args.tol)
    _emit(_json_text(spectrum_report_json(report)), args.out)
    return 0


def _cmd_search(args) -> int:
    spec = _load_spec(args.file)
    polygon = None
    if args.smooth:
        if spec.polygon is None:
            raise SpecError("--smooth needs a polygon in the document")
        polygon = spec.polygon
    config = SearchConfig(
        order=args.order,
        require_smooth=polygon,
        **({} if args.max_subgroups is None else {"max_subgroups": args.max_subgroups}),
        dedupe=not args.no_dedupe,
    )
    lines = []
    for u, v, report in find_sunada_pairs(spec.group, config):
        lines.append(json.dumps({
            "u": [render_element(spec.kind, spec.group.element(i)) for i in u.members],
            "v": [render_element(spec.kind, spec.group.element(i)) for i in v.members],
            "report": report.to_json_dict(),
        }, separators=(",", ":")))
    _emit("".join(line + "\n" for line in lines), args.out)
    return 0


def _cmd_catalog(args) -> int:
    entry = catalog_entry(args.name)
    _emit(_json_text(document_from_catalog(entry)), args.out)
    return 0


_COMMANDS = {
    "verify": _cmd_verify,
    "report": _cmd_report,
    "graph": _cmd_graph,
    "spectrum": _cmd_spectrum,
    "search": _cmd_search,
    "catalog": _cmd_catalog,
}


def run(argv: list[str]) -> int:
    """Parse arguments, dispatch, and map errors to exit codes."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (SpecError, UsageError, CycleParseError, ResourceError, CatalogError) as exc:
        print(f"sunada: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"sunada: error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"sunada: numeric failure: {exc}", file=sys.stderr)
        return 3


def main(argv: list[str] | None = None) -> int:
    return run(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    raise SystemExit(main())
