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
import contextlib
import importlib.util
import json
import sys


def _lazy(name: str):
    """The submodule ``name`` of this package, put into ``sys.modules`` now
    and executed on the first read of one of its attributes
    (``importlib.util.LazyLoader``)."""
    qualified = f"{__package__}.{name}"
    module = sys.modules.get(qualified)
    if module is None:
        spec = importlib.util.find_spec(qualified)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[qualified] = module
        spec.loader.exec_module(module)
    return module


# A command executes only the modules whose functions it calls: the handlers
# read them from these handles at call time.  Every submodule is in
# sys.modules once this module is imported, as the traced bench expects, and
# the tracer's reads of its attributes execute it.  LazyLoader is not
# thread-safe before Python 3.12; the CLI runs on one thread.
algebra = _lazy("algebra")
catalog = _lazy("catalog")
covering = _lazy("covering")
gassmann = _lazy("gassmann")
schreier = _lazy("schreier")
search = _lazy("search")
spectra = _lazy("spectra")
specfile = _lazy("specfile")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sunada",
        description="Verify, analyse, and search for Sunada triples of finite groups.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, handler, help: str, with_subgroup: bool = True):
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        p.add_argument("file", metavar="FILE", help="group spec document, or - for stdin")
        if with_subgroup:
            p.add_argument("--U", required=True, metavar="NAME", help="subgroup name")
        p.add_argument("--out", metavar="FILE", help="write output here instead of stdout")
        return p

    p = command("verify", _cmd_verify, "check whether (G, U, V) is a Sunada triple")
    p.add_argument("--V", required=True, metavar="NAME", help="second subgroup name")

    p = command("report", _cmd_report, "covering report for one subgroup")
    p.add_argument("--polygon", metavar="FILE",
                   help="standalone polygon JSON overriding the document's polygon")

    p = command("graph", _cmd_graph, "Schreier coset graph")
    p.add_argument("--format", choices=("dot", "json"), default="dot")

    p = command("spectrum", _cmd_spectrum, "symmetrized adjacency spectrum")
    p.add_argument("--tol", type=float, default=1e-9)

    p = command("search", _cmd_search, "search Sunada pairs of a given subgroup order",
                with_subgroup=False)
    p.add_argument("--order", type=_positive_int, required=True)
    p.add_argument("--smooth", action="store_true",
                   help="keep only pairs whose quotients are smooth under the document polygon")
    p.add_argument("--max-subgroups", type=_positive_int)
    p.add_argument("--no-dedupe", action="store_true",
                   help="report all pairs instead of one per simultaneous conjugacy orbit")

    p = sub.add_parser("catalog", help="emit a bundled construction")
    p.set_defaults(handler=_cmd_catalog)
    p.add_argument("name", metavar="NAME",
                   help="name of a bundled construction; an unknown name lists them")
    p.add_argument("--out", metavar="FILE")

    return parser


def _read_file(path: str, what: str = "JSON") -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise specfile.SpecError(f"invalid {what}: {exc}") from None


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _load_spec(path: str) -> specfile.LoadedSpec:
    return specfile.load_text(_read_file(path))


def _subgroup(spec: specfile.LoadedSpec, name: str):
    try:
        return spec.subgroups[name]
    except KeyError:
        known = ", ".join(spec.subgroups) or "none"
        raise specfile.SpecError(f"unknown subgroup {name!r} (document defines: {known})") from None


def _cmd_verify(args) -> int:
    spec = _load_spec(args.file)
    report = gassmann.is_sunada_triple(spec.group, _subgroup(spec, args.U), _subgroup(spec, args.V))
    _emit(_json_text(report.to_json_dict()), args.out)
    return 0 if report.is_sunada_triple else 1


def _cmd_report(args) -> int:
    spec = _load_spec(args.file)
    sub = _subgroup(spec, args.U)
    if args.polygon is not None:
        body = specfile.decode_json(_read_file(args.polygon, "polygon JSON"), "polygon JSON")
        polygon = specfile.parse_polygon(body, spec.group, spec.named_elements)
    elif spec.polygon is not None:
        polygon = spec.polygon
    else:
        raise specfile.SpecError("the document has no polygon; provide one with --polygon")
    report = covering.covering_report(spec.group, sub, polygon)
    _emit(_json_text(report.to_json_dict()), args.out)
    return 0


def _graph(args):
    """The Schreier graph of ``--U``, its arcs labeled by the document's generators."""
    spec = _load_spec(args.file)
    return schreier.schreier_graph(spec.group, _subgroup(spec, args.U),
                                   list(spec.named_elements.items()))


def _cmd_graph(args) -> int:
    graph = _graph(args)
    if args.format == "dot":
        _emit(graph.to_dot(), args.out)
    else:
        _emit(_json_text(graph.to_json_dict()), args.out)
    return 0


def _cmd_spectrum(args) -> int:
    report = spectra._graph_spectrum(_graph(args), tol=args.tol)
    _emit(_json_text(report.to_json_dict()), args.out)
    return 0


def _cmd_search(args) -> int:
    spec = _load_spec(args.file)
    if args.smooth and spec.polygon is None:
        raise specfile.SpecError("--smooth needs a polygon in the document")
    config = search.SearchConfig(
        order=args.order,
        require_smooth=spec.polygon if args.smooth else None,
        max_subgroups=(search.DEFAULT_SUBGROUP_CAP if args.max_subgroups is None
                       else args.max_subgroups),
        dedupe=not args.no_dedupe,
    )
    # The walk sorts every pair before it yields one, so any error it raises
    # (a max_subgroups cap) comes from taking the first pair, done before
    # --out is opened: a failed search leaves that file as it was.  Lines are
    # flushed as each pair is verified, so a kill keeps those written.
    pairs = search._sunada_pairs(spec.group, config)
    pair = next(pairs, None)
    with (open(args.out, "w", encoding="utf-8") if args.out is not None
          else contextlib.nullcontext(sys.stdout)) as out:
        while pair is not None:
            u, v, report = pair
            out.write(json.dumps({
                "u": [specfile.render_element(spec.group.element(i)) for i in u.members],
                "v": [specfile.render_element(spec.group.element(i)) for i in v.members],
                "report": report.to_json_dict(),
            }, separators=(",", ":")) + "\n")
            out.flush()
            pair = next(pairs, None)
    return 0


def _cmd_catalog(args) -> int:
    entry = catalog.catalog_entry(args.name)
    _emit(_json_text(specfile.document_from_catalog(entry)), args.out)
    return 0


def run(argv: list[str]) -> int:
    """Parse arguments, dispatch, and map errors to exit codes."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    # An except clause that names a module's class executes that module, so
    # the clauses go from the modules every command runs to the rarest error.
    except (specfile.SpecError, algebra.UsageError, algebra.CycleParseError,
            algebra.ResourceError, OSError) as exc:
        print(f"sunada: error: {exc}", file=sys.stderr)
        return 2
    except catalog.CatalogError as exc:
        print(f"sunada: error: {exc}", file=sys.stderr)
        return 2
    except spectra.NumericError as exc:
        print(f"sunada: numeric failure: {exc}", file=sys.stderr)
        return 3


def main(argv: list[str] | None = None) -> int:
    return run(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    raise SystemExit(main())
