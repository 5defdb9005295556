"""Command-line front end.

Four subcommands cover the analysis loop: ``list`` shows the built-in
examples, ``describe`` prints (or serializes) their operators, ``spectrum``
samples an expression's spectrum over the dual torus and reports the spectral
radius (its CSV rows are written block by block as they are computed, its
JSON record by record from the result's arrays), and ``verify`` cross-checks
a loaded operator set against the dense reference implementation.

Operator files are JSON: ``dim``, a map of named operators (each with its
``lattice`` basis, ``domain_se``/``codomain_se`` points as exact fraction
strings, and a list of ``{offset, matrix}`` multipliers with entries written
as ``[re, im]`` pairs), plus an optional default ``expr`` and ``resolution``.
A file loads into the same ``GalleryEntry`` that a gallery example builds.
Exit codes: 0 success, 1 schema or usage error (an output that cannot be
written included), 2 incompatible or failing operators (a numpy overflow in
``spectrum``'s evaluation included), 3 expression error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import replace
from fractions import Fraction
from itertools import chain
from math import inf, isfinite
from pathlib import Path

import numpy as np

from .crystal import DualTorus, Lattice, StructureElement, TorusTooLargeError, k_frac_text, sample_dual_torus
from .expr import EvaluationError, parse
from .gallery import GalleryEntry, build, entry_names
from .intlat import det_exact
from .operator import MultiplicationOperator
from .oracle import (
    assemble_dense,
    dense_spectrum,
    spectrum_distance,
    translation_residual,
    wave_gram_residual,
)
from .symbol import BLOCK, SpectrumResult, compute_spectrum, eigenvalues, spectrum_blocks, symbols

EXIT_SCHEMA = 1
EXIT_INCOMPATIBLE = 2
EXIT_EXPRESSION = 3

INVARIANCE_TOL = 1e-10
SPECTRUM_TOL = 1e-8
GRAM_TOL = 1e-12


class CliError(Exception):
    exit_code = EXIT_SCHEMA


class SchemaError(CliError):
    exit_code = EXIT_SCHEMA


class IncompatibilityError(CliError):
    exit_code = EXIT_INCOMPATIBLE


class ExpressionError(CliError):
    exit_code = EXIT_EXPRESSION


# ---------------------------------------------------------------------------
# operator file schema


def _fraction(value, where: str) -> Fraction:
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise SchemaError(f"{where}: expected an integer or a 'p/q' string, got {value!r}")
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError):
        raise SchemaError(f"{where}: {value!r} is not a valid fraction") from None


def _structure_element(raw, dim: int, where: str) -> StructureElement:
    if not isinstance(raw, list) or not raw:
        raise SchemaError(f"{where}: expected a nonempty list of points")
    points = []
    for i, point in enumerate(raw):
        if not isinstance(point, list) or len(point) != dim:
            raise SchemaError(f"{where}[{i}]: expected a list of {dim} fractions")
        points.append(tuple(_fraction(c, f"{where}[{i}]") for c in point))
    return StructureElement(points)


def _number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{where}: expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = inf
    if not isfinite(number):
        raise SchemaError(f"{where}: expected a finite number, got {value!r}")
    return number


def _complex_entry(value, where: str) -> complex:
    if isinstance(value, list):
        if len(value) != 2:
            raise SchemaError(f"{where}: [re, im] pairs have exactly two entries")
        return complex(_number(value[0], where), _number(value[1], where))
    return complex(_number(value, where))


def _require_keys(raw: dict, allowed: set[str], required: set[str], where: str) -> None:
    unknown = set(raw) - allowed
    if unknown:
        raise SchemaError(f"{where}: unknown keys {sorted(unknown)}")
    missing = required - set(raw)
    if missing:
        raise SchemaError(f"{where}: missing keys {sorted(missing)}")


def _operator_from_json(raw, dim: int, where: str) -> MultiplicationOperator:
    if not isinstance(raw, dict):
        raise SchemaError(f"{where}: expected an object")
    keys = {"lattice", "domain_se", "codomain_se", "multipliers"}
    _require_keys(raw, keys, keys, where)
    rows = raw["lattice"]
    if (
        not isinstance(rows, list)
        or len(rows) != dim
        or any(not isinstance(r, list) or len(r) != dim for r in rows)
    ):
        raise SchemaError(f"{where}.lattice: expected a {dim}x{dim} matrix")
    basis = [[_number(x, f"{where}.lattice") for x in r] for r in rows]
    try:
        lattice = Lattice(np.array(basis))
    except ValueError as exc:
        raise SchemaError(f"{where}.lattice: {exc}") from None
    domain = _structure_element(raw["domain_se"], dim, f"{where}.domain_se")
    codomain = _structure_element(raw["codomain_se"], dim, f"{where}.codomain_se")
    if not isinstance(raw["multipliers"], list):
        raise SchemaError(f"{where}.multipliers: expected a list")
    multipliers: dict[tuple[int, ...], list[list[complex]]] = {}
    for i, item in enumerate(raw["multipliers"]):
        spot = f"{where}.multipliers[{i}]"
        if not isinstance(item, dict):
            raise SchemaError(f"{spot}: expected an object")
        _require_keys(item, {"offset", "matrix"}, {"offset", "matrix"}, spot)
        offset = item["offset"]
        if (
            not isinstance(offset, list)
            or len(offset) != dim
            or any(isinstance(x, bool) or not isinstance(x, int) for x in offset)
        ):
            raise SchemaError(f"{spot}.offset: expected {dim} integers")
        key = tuple(offset)
        if key in multipliers:
            raise SchemaError(f"{spot}: duplicate offset {key}")
        matrix = item["matrix"]
        if (
            not isinstance(matrix, list)
            or len(matrix) != len(codomain)
            or any(not isinstance(r, list) or len(r) != len(domain) for r in matrix)
        ):
            raise SchemaError(
                f"{spot}.matrix: expected {len(codomain)} rows of {len(domain)} entries"
            )
        multipliers[key] = [
            [_complex_entry(x, f"{spot}.matrix") for x in r] for r in matrix
        ]
    # every check the constructor makes was made above, naming the field
    return MultiplicationOperator(lattice, domain, codomain, multipliers)


def _diagonal(diag) -> list[list[int]]:
    return [[d if i == j else 0 for j in range(len(diag))] for i, d in enumerate(diag)]


def _resolution_matrix(value, dim: int, where: str) -> tuple[tuple[int, ...], ...]:
    if isinstance(value, bool):
        raise SchemaError(f"{where}: expected an integer or an integer matrix")
    if isinstance(value, int):
        if value == 0:
            raise SchemaError(f"{where}: resolution 0 is singular")
        value = _diagonal([value] * dim)
    if (
        isinstance(value, list)
        and len(value) == dim
        and all(
            isinstance(r, list)
            and len(r) == dim
            and all(not isinstance(x, bool) and isinstance(x, int) for x in r)
            for r in value
        )
    ):
        if det_exact(value) == 0:
            raise SchemaError(f"{where}: resolution matrix is singular")
        if any(not -(2**63) <= x < 2**63 for r in value for x in r):
            raise SchemaError(f"{where}: resolution entries must fit in 64-bit integers")
        return tuple(tuple(r) for r in value)
    raise SchemaError(f"{where}: expected an integer or a {dim}x{dim} integer matrix")


def _parse_resolution_flag(text: str, dim: int) -> tuple[tuple[int, ...], ...]:
    stripped = text.strip()
    if stripped.startswith("["):
        try:
            value = json.loads(stripped)
        except json.JSONDecodeError:
            raise SchemaError(f"--resolution: {text!r} is not a JSON matrix") from None
        return _resolution_matrix(value, dim, "--resolution")
    try:
        if "," in stripped:
            diag = [int(p) for p in stripped.split(",")]
            if len(diag) != dim:
                raise SchemaError(f"--resolution: expected {dim} diagonal entries")
            return _resolution_matrix(_diagonal(diag), dim, "--resolution")
        return _resolution_matrix(int(stripped), dim, "--resolution")
    except ValueError:
        raise SchemaError(
            f"--resolution: {text!r} is not an integer, 'a,b' diagonal, or JSON matrix"
        ) from None


def load_operator_file(path: str) -> GalleryEntry:
    """The file as a GalleryEntry named by its path, with no parameters and
    None for an absent ``expr`` or ``resolution``."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc.strerror or exc}") from None
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(raw, dict):
        raise SchemaError(f"{path}: top level must be an object")
    _require_keys(raw, {"dim", "operators", "expr", "resolution"}, {"dim", "operators"}, path)
    dim = raw["dim"]
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise SchemaError(f"{path}: dim must be a positive integer")
    if not isinstance(raw["operators"], dict) or not raw["operators"]:
        raise SchemaError(f"{path}: operators must be a nonempty object")
    operators = {}
    for name, spec in raw["operators"].items():
        if not name or not isinstance(name, str):
            raise SchemaError(f"{path}: operator names must be nonempty strings")
        operators[name] = _operator_from_json(spec, dim, f"operators.{name}")
    expr = raw.get("expr")
    if expr is not None and not isinstance(expr, str):
        raise SchemaError(f"{path}: expr must be a string")
    resolution = raw.get("resolution")
    if resolution is not None:
        resolution = _resolution_matrix(resolution, dim, f"{path}: resolution")
    return GalleryEntry(path, {}, operators, expr, resolution)


def _operator_to_json(op: MultiplicationOperator) -> dict:
    return {
        "lattice": [[float(x) for x in row] for row in op.lattice.basis],
        "domain_se": [[str(c) for c in p] for p in op.domain_se],
        "codomain_se": [[str(c) for c in p] for p in op.codomain_se],
        "multipliers": [
            {"offset": list(off), "matrix": [[[x.real, x.imag] for x in row] for row in mat]}
            for off, mat in op.multipliers.items()
        ],
    }


def entry_to_json(entry: GalleryEntry) -> dict:
    """The operator-file form of an entry; ``load_operator_file`` reads it back."""
    operators = entry.operators
    payload: dict = {
        "dim": entry.dim,
        "operators": {name: _operator_to_json(operators[name]) for name in sorted(operators)},
    }
    if entry.expression is not None:
        try:
            keep = parse(entry.expression).identifiers() <= set(operators)
        except ValueError:
            keep = True
        if keep:
            payload["expr"] = entry.expression
    if entry.resolution is not None:
        payload["resolution"] = [list(row) for row in entry.resolution]
    return payload


# ---------------------------------------------------------------------------
# shared flag handling


def _parse_params(items) -> dict[str, float]:
    params = {}
    for item in items or []:
        key, sep, value = item.partition("=")
        if not sep or not key:
            raise SchemaError(f"--param expects key=value, got {item!r}")
        try:
            params[key] = float(value)
        except ValueError:
            raise SchemaError(f"--param {key}: {value!r} is not a number") from None
        if not isfinite(params[key]):
            raise SchemaError(f"--param {key}: {value!r} is not a finite number")
    return params


def _load_entry(args) -> GalleryEntry:
    params = _parse_params(getattr(args, "param", None))
    if args.example is not None:
        try:
            return build(args.example, **params)
        except TypeError:
            raise SchemaError(
                f"'{args.example}' does not take parameters {sorted(params)}"
            ) from None
        except ValueError as exc:
            raise SchemaError(str(exc)) from None
    if params:
        raise SchemaError("--param only applies to gallery examples")
    return load_operator_file(args.input)


# ---------------------------------------------------------------------------
# spectrum output


def _csv_header(dim: int) -> str:
    header = (
        [f"k_frac_{i + 1}" for i in range(dim)]
        + [f"k_phys_{i + 1}" for i in range(dim)]
        + ["eig_index", "re", "im", "abs"]
    )
    return ",".join(header) + "\n"


def _rows(samples: DualTorus, eigs: np.ndarray) -> Iterator[tuple]:
    """(k_frac text, k_phys, eigenvalues) of every sample as Python values,
    the arrays read BLOCK rows at a time."""
    for start in range(0, len(samples), BLOCK):
        rows = slice(start, start + BLOCK)
        for num, k_phys, row in zip(
            samples.num[rows].tolist(), samples.k_phys[rows].tolist(), eigs[rows].tolist()
        ):
            yield k_frac_text(num, samples.den), k_phys, row


def _csv_rows(samples: DualTorus, eigs: np.ndarray) -> tuple[str, float]:
    """The CSV rows of a block of samples, one per eigenvalue, and the
    largest modulus among them."""
    lines = []
    rho = 0.0
    for k_frac, k_phys, row in _rows(samples, eigs):
        prefix = ",".join([*k_frac, *map(repr, k_phys)])
        for idx, e in enumerate(row):
            modulus = abs(e)
            rho = max(rho, modulus)
            lines.append(f"{prefix},{idx},{e.real!r},{e.imag!r},{modulus!r}\n")
    return "".join(lines), rho


def _json_text(result: SpectrumResult) -> Iterator[str]:
    """json.dumps(payload, indent=2) + "\n" for the result, one record at a time."""
    head = {
        "expression": result.expression,
        "lattice": [[float(x) for x in row] for row in result.lattice.basis],
        "resolution": [[int(x) for x in row] for row in result.resolution],
        "rho_max": result.rho,
    }
    # the header without its closing "\n}", then each record indented twice
    yield json.dumps(head, indent=2)[:-2] + ',\n  "records": ['
    sep = "\n    "
    for k_frac, k_phys, eigs in _rows(result.samples, result.eigenvalues):
        record = {"k_frac": k_frac, "k_phys": k_phys, "eigenvalues": [[e.real, e.imag] for e in eigs]}
        yield sep + json.dumps(record, indent=2).replace("\n", "\n    ")
        sep = ",\n    "
    yield "\n  ]\n}\n"


def _gnuplot_script(csv_path: str, dim: int, title: str) -> str:
    re_col = 2 * dim + 2
    im_col = 2 * dim + 3
    return (
        f"# eigenvalues of {title} in the complex plane\n"
        f"# run with: gnuplot -p <this file>\n"
        'set datafile separator ","\n'
        "set size ratio -1\n"
        "set key off\n"
        'set xlabel "Re"\n'
        'set ylabel "Im"\n'
        "set grid\n"
        "set parametric\n"
        "set trange [0:2*pi]\n"
        'plot cos(t),sin(t) with lines lc rgb "gray60", \\\n'
        f'     "{csv_path}" every ::1 using {re_col}:{im_col}'
        ' with points pt 7 ps 0.5 lc rgb "navy"\n'
    )


@contextmanager
def _spectrum_errors():
    """Map the library's errors to the CLI's exit codes."""
    try:
        yield
    except EvaluationError as exc:
        raise ExpressionError(str(exc)) from None
    except TorusTooLargeError as exc:
        raise SchemaError(str(exc)) from None
    except (ValueError, FloatingPointError) as exc:
        raise IncompatibilityError(str(exc)) from None


@contextmanager
def _output(path: str | None):
    """A text stream for an output file, stdout without a path.  A file is
    written under a sibling name and moved onto the path only when the block
    exits cleanly, so a failed command leaves no file behind and an existing
    file unchanged.  A path that exists but is no regular file (/dev/null, a
    pipe) is written in place.  An OSError is a SchemaError naming the path."""
    if not path:
        yield sys.stdout
        return
    target = Path(path)
    try:
        if target.exists() and not target.is_file():
            with target.open("w", encoding="utf-8") as fh:
                yield fh
            return
        part = target.with_name(f".{target.name}.{os.getpid()}.part")
        try:
            with part.open("x", encoding="utf-8") as fh:
                yield fh
        except BaseException:
            part.unlink(missing_ok=True)
            raise
        os.replace(part, target)
    except OSError as exc:
        raise SchemaError(f"cannot write {path}: {exc.strerror or exc}") from None


def cmd_spectrum(args) -> int:
    entry = _load_entry(args)
    expr_text = args.expr if args.expr is not None else entry.expression
    if not expr_text:
        raise SchemaError("no expression given: pass --expr or define one in the file")
    resolution = entry.resolution
    if args.resolution is not None:
        resolution = _parse_resolution_flag(args.resolution, entry.dim)
    if resolution is None:
        raise SchemaError("no resolution given: pass --resolution or define one in the file")
    if args.emit_plot and not args.output:
        raise SchemaError("--emit-plot needs --output, the script reads the written CSV")
    if args.emit_plot and args.format != "csv":
        raise SchemaError("--emit-plot only works with --format csv")

    try:
        ast = parse(expr_text)
    except ValueError as exc:
        raise ExpressionError(f"bad expression: {exc}") from None
    # a numpy overflow or invalid value is an error, not a warning on stderr
    with _spectrum_errors(), np.errstate(over="raise", invalid="raise"):
        if args.format == "json":
            # rho_max comes before the records, so the spectrum is computed
            # whole; the text is written record by record
            result = compute_spectrum(ast, entry.operators, resolution)
            rho = result.rho
            with _output(args.output) as out:
                out.writelines(_json_text(result))
        else:
            blocks = spectrum_blocks(ast, entry.operators, resolution)
            # the first block is computed before anything is written: the
            # binding, sampling, size and shape errors all surface there
            first = next(blocks)
            rho = 0.0
            with _output(args.output) as out:
                out.write(_csv_header(entry.dim))
                for block, eigs in chain([first], blocks):
                    text, top = _csv_rows(block, eigs)
                    out.write(text)
                    rho = max(rho, top)
    if args.emit_plot:
        with _output(args.emit_plot) as out:
            out.write(_gnuplot_script(args.output, entry.dim, entry.name))
    print(f"rho_max = {rho:.8f}")
    return 0


# ---------------------------------------------------------------------------
# list / describe


def cmd_list(args) -> int:
    for name in entry_names():
        entry = build(name)
        params = ", ".join(f"{k}={v:g}" for k, v in sorted(entry.parameters.items()))
        print(f"{name:14s} {params:16s} {entry.notes}")
    return 0


def _fmt_entry(z: complex) -> str:
    if z.imag == 0:
        return f"{z.real:g}"
    if z.real == 0:
        return f"{z.imag:g}i"
    return f"{z.real:g}{z.imag:+g}i"


def _matrix_block(matrix, indent: str) -> list[str]:
    cells = [[_fmt_entry(x) for x in row] for row in matrix]
    width = max(len(c) for row in cells for c in row)
    return [
        indent + "[ " + "  ".join(c.rjust(width) for c in row) + " ]" for row in cells
    ]


def _se_text(se: StructureElement) -> str:
    return ", ".join("(" + ", ".join(str(c) for c in p) + ")" for p in se)


def _describe_text(entry: GalleryEntry) -> str:
    lines = [entry.name]
    if entry.parameters:
        lines[0] += "  (" + ", ".join(
            f"{k}={v:g}" for k, v in sorted(entry.parameters.items())
        ) + ")"
    if entry.expression:
        lines.append(f"expression: {entry.expression}")
    if entry.resolution is not None:
        rows = [list(row) for row in entry.resolution]
        scalar = rows == _diagonal([rows[0][0]] * len(rows))
        lines.append(f"default resolution: {rows[0][0] if scalar else rows}")
    for name in sorted(entry.operators):
        op = entry.operators[name]
        lines.append("")
        lines.append(f"operator {name}  ({op.shape[0]}x{op.shape[1]} multipliers)")
        lines.append("  lattice basis (columns are primitive vectors):")
        lines.extend(_matrix_block(op.lattice.basis, "    "))
        lines.append(f"  domain structure element:   {_se_text(op.domain_se)}")
        lines.append(f"  codomain structure element: {_se_text(op.codomain_se)}")
        for off, mat in op.multipliers.items():
            lines.append(f"  multiplier at offset ({', '.join(str(x) for x in off)}):")
            lines.extend(_matrix_block(mat, "    "))
    return "\n".join(lines) + "\n"


def cmd_describe(args) -> int:
    entry = _load_entry(args)
    if args.operator is not None:
        if args.operator not in entry.operators:
            known = ", ".join(sorted(entry.operators))
            raise SchemaError(f"unknown operator '{args.operator}' (has: {known})")
        entry = replace(entry, operators={args.operator: entry.operators[args.operator]})
    if args.format == "json":
        text = json.dumps(entry_to_json(entry), indent=2) + "\n"
    else:
        text = _describe_text(entry)
    with _output(args.output) as out:
        out.write(text)
    return 0


# ---------------------------------------------------------------------------
# verify


def _verify_checks(operators, resolution) -> list[tuple[str, float, float]]:
    invariance: list[tuple[str, float, float]] = []
    spectra: list[tuple[str, float, float]] = []
    samples = None
    for name in sorted(operators):
        op = operators[name]
        matrix = assemble_dense(op, resolution)
        if samples is None:
            # listed once the first assembly has checked the torus size; its
            # numerators read only the resolution, so it serves every operator
            samples = sample_dual_torus(op.lattice, resolution)
        residual = translation_residual(matrix)
        invariance.append((f"translation invariance  {name}", residual, INVARIANCE_TOL))
        if op.domain_se != op.codomain_se:
            continue
        dense = dense_spectrum(matrix)
        stack = symbols(op, samples.num, samples.den)
        # one solve per distinct symbol (a central-only operator has one),
        # keyed by its bytes so that -0.0 and 0.0 stay apart
        first: dict[bytes, int] = {}
        slots = np.array([first.setdefault(s.tobytes(), len(first)) for s in stack])
        union = eigenvalues(stack[np.unique(slots, return_index=True)[1]])[slots].ravel()
        spectra.append(
            (f"symbol vs dense spectrum  {name}", spectrum_distance(union, dense), SPECTRUM_TOL)
        )
    checks = invariance + spectra
    # the Gram residual reads only the resolution: one value serves every line
    gram = wave_gram_residual(samples, matrix.quotient)
    seen: set = set()
    for name in sorted(operators):
        op = operators[name]
        for side, se in (("domain", op.domain_se), ("codomain", op.codomain_se)):
            key = (op.lattice.basis.tobytes(), se.points)
            if key in seen:
                continue
            seen.add(key)
            checks.append((f"wave basis Gram  {name}/{side}", gram, GRAM_TOL))
    return checks


def cmd_verify(args) -> int:
    entry = _load_entry(args)
    if args.resolution is not None:
        resolution = _parse_resolution_flag(args.resolution, entry.dim)
    else:
        resolution = _diagonal([3] * entry.dim)
    try:
        checks = _verify_checks(entry.operators, resolution)
    except TorusTooLargeError as exc:
        raise SchemaError(str(exc)) from None

    failed = False
    for label, residual, tol in checks:
        ok = residual < tol
        failed = failed or not ok
        print(f"{label:44s} {residual:10.3e}  (tol {tol:.0e})  {'pass' if ok else 'FAIL'}")
    if failed:
        print("verification failed", file=sys.stderr)
        return EXIT_INCOMPATIBLE
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _add_source_flags(sub) -> None:
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--example", help="name of a built-in example (see 'list')")
    group.add_argument("--input", help="path to an operator file (JSON)")
    sub.add_argument(
        "--param",
        action="append",
        metavar="KEY=VALUE",
        help="override an example parameter (repeatable)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stencilfa",
        description="Fourier analysis of translationally invariant stencil operators",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    spectrum = sub.add_parser(
        "spectrum", help="sample an expression's spectrum over the dual torus"
    )
    _add_source_flags(spectrum)
    spectrum.add_argument(
        "--resolution",
        help="N for N*identity, 'a,b' for a diagonal, or a JSON matrix like [[2,3],[2,-2]]",
    )
    spectrum.add_argument("--expr", help="expression to analyze (defaults to the bundled one)")
    spectrum.add_argument("--output", help="write the table to this file instead of stdout")
    spectrum.add_argument("--format", choices=("csv", "json"), default="csv")
    spectrum.add_argument(
        "--emit-plot",
        dest="emit_plot",
        metavar="PATH",
        help="also write a gnuplot script that plots the CSV",
    )
    spectrum.set_defaults(func=cmd_spectrum)

    listing = sub.add_parser("list", help="list the built-in examples")
    listing.set_defaults(func=cmd_list)

    describe = sub.add_parser(
        "describe", help="print operators, structure elements, and multiplier tables"
    )
    _add_source_flags(describe)
    describe.add_argument("--operator", help="describe only this named operator")
    describe.add_argument("--format", choices=("text", "json"), default="text")
    describe.add_argument("--output", help="write to this file instead of stdout")
    describe.set_defaults(func=cmd_describe)

    verify = sub.add_parser(
        "verify", help="cross-check operators against the dense reference implementation"
    )
    _add_source_flags(verify)
    verify.add_argument("--resolution", help="torus resolution for the checks (default 3)")
    verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except BrokenPipeError:
        # the reader closed stdout: point it at devnull for the flush at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: cannot write stdout: the reader closed it", file=sys.stderr)
        return EXIT_SCHEMA


if __name__ == "__main__":
    sys.exit(main())
