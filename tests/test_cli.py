"""End-to-end tests of the command-line interface."""

import json
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from oracles import fraction_symbol_at, pair_eigenvalues
from stencilfa import cli
from stencilfa.cli import load_operator_file, main
from stencilfa.crystal import k_frac_text, sample_dual_torus
from stencilfa.expr import parse
from stencilfa.gallery import build, entry_names
from stencilfa.oracle import assemble_dense, dense_spectrum
from stencilfa.symbol import compute_spectrum, eigenvalues, spectrum_blocks, symbols


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# list / describe


def test_list_contains_gallery_entries(capsys):
    code, out, _ = run(capsys, "list")
    assert code == 0
    assert "graphene" in out
    assert "laplacian-rb" in out
    assert "curlcurl" in out


def test_describe_shows_central_multiplier(capsys):
    code, out, _ = run(capsys, "describe", "--example", "laplacian-rb", "--operator", "L")
    assert code == 0
    assert "operator L" in out
    assert "multiplier at offset (0, 0):" in out
    assert "(1/2, 1/2)" in out
    central = out.split("multiplier at offset (0, 0):")[1].splitlines()[1:3]
    assert central[0].split() == ["[", "4", "-1", "]"]
    assert central[1].split() == ["[", "-1", "4", "]"]


def test_describe_unknown_example_fails(capsys):
    code, _, err = run(capsys, "describe", "--example", "nope")
    assert code == 1
    assert "unknown gallery entry" in err


def test_describe_unknown_operator_fails(capsys):
    code, _, err = run(capsys, "describe", "--example", "graphene", "--operator", "Z")
    assert code == 1
    assert "unknown operator 'Z'" in err


def test_describe_json_round_trip(tmp_path, capsys):
    path = tmp_path / "curlcurl.json"
    code, _, _ = run(
        capsys, "describe", "--example", "curlcurl", "--format", "json",
        "--output", str(path),
    )
    assert code == 0
    bundle = load_operator_file(str(path))
    entry = build("curlcurl")
    assert set(bundle.operators) == set(entry.operators)
    for name, op in entry.operators.items():
        loaded = bundle.operators[name]
        assert loaded.multipliers.keys() == op.multipliers.keys()
        for off in op.multipliers:
            assert np.array_equal(loaded.multiplier(off), op.multiplier(off))
        assert loaded.domain_se == op.domain_se
        assert loaded.codomain_se == op.codomain_se
    assert bundle.expression == entry.expression
    assert bundle.resolution == entry.resolution == ((32, 0), (0, 32))


@pytest.mark.parametrize("example", ["curlcurl", "graphene", "laplacian-rb"])
def test_operator_file_loads_the_built_entry(tmp_path, capsys, example):
    path = tmp_path / f"{example}.json"
    code, _, _ = run(
        capsys, "describe", "--example", example, "--format", "json", "--output", str(path)
    )
    assert code == 0
    built = build(example)
    loaded = load_operator_file(str(path))
    assert type(loaded) is type(built)
    assert loaded.operators == built.operators
    assert loaded.expression == built.expression
    assert loaded.resolution == built.resolution
    assert loaded.dim == built.dim == 2
    assert (loaded.name, loaded.parameters) == (str(path), {})
    # the library call is the same for both sources; graphene's default 41 is
    # lowered to keep the test fast
    res = ((5, 0), (0, 5)) if example == "graphene" else built.resolution
    spectra = [
        compute_spectrum(parse(e.expression), e.operators, res)
        for e in (built, loaded)
    ]
    assert list(spectra[0].records) == list(spectra[1].records)
    assert spectra[0].rho == spectra[1].rho


def test_describe_writes_complex_entries(tmp_path, capsys):
    path = _hopping_file(tmp_path / "hopping.json", {(0, 0): 1j, (1, 0): 1 - 2j})
    code, out, err = run(capsys, "describe", "--input", path)
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[lines.index("  multiplier at offset (0, 0):") + 1] == "    [ 1i ]"
    assert lines[lines.index("  multiplier at offset (1, 0):") + 1] == "    [ 1-2i ]"


# ---------------------------------------------------------------------------
# operator-file and flag errors


_DROP = object()


def _set(*path, value):
    """A mutation of a loaded operator file: the entry at path set to value,
    or deleted for _DROP."""
    def mutate(raw):
        *head, last = path
        node = raw
        for key in head:
            node = node[key]
        if value is _DROP:
            del node[last]
        else:
            node[last] = value
        return raw
    return mutate


_L = ("operators", "L")
_M0 = _L + ("multipliers", 0)

# (id, file mutation or None, extra spectrum flags, start of the error text;
# {path} stands for the file's path)
SCHEMA_ERRORS = [
    ("se-bool", _set(*_L, "domain_se", 0, 0, value=True), [],
     "operators.L.domain_se[0]: expected an integer or a 'p/q' string, got True"),
    ("se-float", _set(*_L, "domain_se", 1, 0, value=0.5), [],
     "operators.L.domain_se[1]: expected an integer or a 'p/q' string, got 0.5"),
    ("se-zero-denominator", _set(*_L, "domain_se", 1, 0, value="1/0"), [],
     "operators.L.domain_se[1]: '1/0' is not a valid fraction"),
    ("se-text", _set(*_L, "codomain_se", 1, 1, value="half"), [],
     "operators.L.codomain_se[1]: 'half' is not a valid fraction"),
    ("se-empty", _set(*_L, "codomain_se", value=[]), [],
     "operators.L.codomain_se: expected a nonempty list of points"),
    ("se-short-point", _set(*_L, "domain_se", 0, value=["0"]), [],
     "operators.L.domain_se[0]: expected a list of 2 fractions"),
    ("lattice-text", _set(*_L, "lattice", 0, 0, value="1"), [],
     "operators.L.lattice: expected a number, got '1'"),
    ("entry-bool", _set(*_M0, "matrix", 0, 0, value=True), [],
     "operators.L.multipliers[0].matrix: expected a number, got True"),
    ("entry-triple", _set(*_M0, "matrix", 0, 0, value=[1.0, 0.0, 0.0]), [],
     "operators.L.multipliers[0].matrix: [re, im] pairs have exactly two entries"),
    ("operator-unknown-key", _set(*_L, "colour", value="red"), [],
     "operators.L: unknown keys ['colour']"),
    ("operator-missing-key", _set(*_L, "lattice", value=_DROP), [],
     "operators.L: missing keys ['lattice']"),
    ("multiplier-unknown-key", _set(*_M0, "weight", value=1), [],
     "operators.L.multipliers[0]: unknown keys ['weight']"),
    ("multiplier-missing-key", _set(*_M0, "matrix", value=_DROP), [],
     "operators.L.multipliers[0]: missing keys ['matrix']"),
    ("operator-list", _set(*_L, value=[]), [], "operators.L: expected an object"),
    ("lattice-shape", _set(*_L, "lattice", value=[[1.0, 0.0]]), [],
     "operators.L.lattice: expected a 2x2 matrix"),
    ("lattice-singular", _set(*_L, "lattice", value=[[1.0, 1.0], [1.0, 1.0]]), [],
     "operators.L.lattice: lattice basis is singular"),
    ("multipliers-object", _set(*_L, "multipliers", value={}), [],
     "operators.L.multipliers: expected a list"),
    ("multiplier-list", _set(*_M0, value=[]), [], "operators.L.multipliers[0]: expected an object"),
    ("offset-fraction", _set(*_M0, "offset", value=[0.5, 0]), [],
     "operators.L.multipliers[0].offset: expected 2 integers"),
    ("offset-bool", _set(*_M0, "offset", value=[True, 0]), [],
     "operators.L.multipliers[0].offset: expected 2 integers"),
    ("matrix-shape", _set(*_M0, "matrix", value=[[[1.0, 0.0]]]), [],
     "operators.L.multipliers[0].matrix: expected 2 rows of 2 entries"),
    ("resolution-bool", _set("resolution", value=True), [],
     "{path}: resolution: expected an integer or an integer matrix"),
    ("resolution-zero", _set("resolution", value=0), [], "{path}: resolution: resolution 0 is singular"),
    ("resolution-singular", _set("resolution", value=[[1, 2], [2, 4]]), [],
     "{path}: resolution: resolution matrix is singular"),
    ("resolution-shape", _set("resolution", value=[[1, 0]]), [],
     "{path}: resolution: expected an integer or a 2x2 integer matrix"),
    ("flag-json", None, ["--resolution", "[[1,0]"], "--resolution: '[[1,0]' is not a JSON matrix"),
    ("flag-diagonal", None, ["--resolution", "1,2,3"], "--resolution: expected 2 diagonal entries"),
    ("flag-text", None, ["--resolution", "abc"],
     "--resolution: 'abc' is not an integer, 'a,b' diagonal, or JSON matrix"),
    ("flag-zero", None, ["--resolution", "0"], "--resolution: resolution 0 is singular"),
    ("not-json", lambda raw: "{", [], "{path}: not valid JSON"),
    ("top-level-list", lambda raw: [raw], [], "{path}: top level must be an object"),
    ("top-unknown-key", _set("version", value=1), [], "{path}: unknown keys ['version']"),
    ("top-missing-key", _set("dim", value=_DROP), [], "{path}: missing keys ['dim']"),
    ("dim-bool", _set("dim", value=True), [], "{path}: dim must be a positive integer"),
    ("dim-zero", _set("dim", value=0), [], "{path}: dim must be a positive integer"),
    ("operators-empty", _set("operators", value={}), [], "{path}: operators must be a nonempty object"),
    ("operator-name-empty", lambda raw: {**raw, "operators": {"": raw["operators"]["L"]}}, [],
     "{path}: operator names must be nonempty strings"),
    ("expr-number", _set("expr", value=5), [], "{path}: expr must be a string"),
    ("param-no-key", None, ["--param", "=1"], "--param expects key=value, got '=1'"),
    ("param-text", None, ["--param", "h=abc"], "--param h: 'abc' is not a number"),
    ("no-expression", _set("expr", value=_DROP), [],
     "no expression given: pass --expr or define one in the file"),
    ("no-resolution", _set("resolution", value=_DROP), [],
     "no resolution given: pass --resolution or define one in the file"),
    ("plot-without-output", None, ["--emit-plot", "{path}.gp"],
     "--emit-plot needs --output, the script reads the written CSV"),
    ("plot-with-json", None, ["--format", "json", "--output", "{path}.out", "--emit-plot", "{path}.gp"],
     "--emit-plot only works with --format csv"),
]


@pytest.mark.parametrize(
    "mutate, flags, message", [case[1:] for case in SCHEMA_ERRORS], ids=[case[0] for case in SCHEMA_ERRORS]
)
def test_operator_file_and_flag_errors_are_one_line(tmp_path, capsys, mutate, flags, message):
    path = tmp_path / "rb.json"
    run(capsys, "describe", "--example", "laplacian-rb", "--format", "json", "--output", str(path))
    if mutate is not None:
        raw = mutate(json.loads(path.read_text()))
        path.write_text(raw if isinstance(raw, str) else json.dumps(raw))
    flags = [flag.replace("{path}", str(path)) for flag in flags]
    code, out, err = run(capsys, "spectrum", "--input", str(path), *flags)
    assert (code, out) == (1, "")
    assert err.startswith("error: " + message.replace("{path}", str(path)))
    assert len(err.splitlines()) == 1
    assert [p.name for p in tmp_path.iterdir()] == ["rb.json"]


# ---------------------------------------------------------------------------
# spectrum


def test_spectrum_csv_rows_match_dense_oracle(capsys):
    code, out, _ = run(
        capsys, "spectrum", "--example", "laplacian-rb", "--resolution", "4",
        "--expr", "L",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k_frac_1,k_frac_2,k_phys_1,k_phys_2,eig_index,re,im,abs"
    assert lines[-1].startswith("rho_max = ")
    rows = [line.split(",") for line in lines[1:-1]]
    assert len(rows) == 32
    got = [complex(float(r[5]), float(r[6])) for r in rows]
    dense = dense_spectrum(
        assemble_dense(build("laplacian-rb").operators["L"], 4 * np.eye(2, dtype=int))
    )
    assert pair_eigenvalues(got, dense) < 1e-8
    # rows come out grouped by frequency with ascending eigenvalue index
    keys = [(r[0], r[1], int(r[4])) for r in rows]
    assert keys == sorted(keys, key=lambda t: (keys.index((t[0], t[1], 0)), t[2]))


@pytest.mark.parametrize(
    "example, resolution",
    [("curlcurl", "16"), ("graphene", "9"), ("laplacian-rb", "[[2,3],[2,-2]]")],
)
def test_spectrum_csv_matches_fraction_symbol_formula(tmp_path, capsys, monkeypatch, example, resolution):
    def spectrum_csv(path):
        code, out, _ = run(
            capsys, "spectrum", "--example", example, "--resolution", resolution,
            "--output", str(path),
        )
        assert code == 0
        return path.read_bytes(), out

    fast = spectrum_csv(tmp_path / "fast.csv")
    monkeypatch.setattr("stencilfa.symbol.symbol_at", fraction_symbol_at)
    reference = spectrum_csv(tmp_path / "reference.csv")
    assert fast == reference


def test_spectrum_reproduces_published_convergence_factor(capsys):
    code, out, _ = run(
        capsys, "spectrum", "--example", "graphene", "--param", "omega=0.5",
        "--resolution", "41", "--output", "/dev/null",
    )
    assert code == 0
    rho = float(out.strip().splitlines()[-1].split("=")[1])
    assert rho == pytest.approx(0.16685901, abs=1e-6)


def test_spectrum_default_resolution_and_expression(capsys):
    code, out, _ = run(capsys, "spectrum", "--example", "laplacian-rb", "--output", "/dev/null")
    assert code == 0
    assert out.strip().splitlines()[-1] == "rho_max = 1.00000000"


def test_spectrum_json_format(tmp_path, capsys):
    path = tmp_path / "rb.json"
    code, out, _ = run(
        capsys, "spectrum", "--example", "laplacian-rb", "--resolution", "2",
        "--expr", "L", "--format", "json", "--output", str(path),
    )
    assert code == 0
    payload = json.loads(path.read_text())
    assert payload["expression"] == "L"
    assert payload["resolution"] == [[2, 0], [0, 2]]
    assert len(payload["records"]) == 4
    assert all(len(rec["eigenvalues"]) == 2 for rec in payload["records"])
    rho_line = float(out.strip().splitlines()[-1].split("=")[1])
    assert payload["rho_max"] == pytest.approx(rho_line, abs=1e-8)


def test_graphene_weight_with_exponent_repr(capsys):
    # repr(1e-05) has an exponent; the sweep text must still parse
    code, out, err = run(
        capsys, "spectrum", "--example", "graphene", "--param", "omega=0.00001",
        "--resolution", "3", "--output", "/dev/null",
    )
    assert (code, err) == (0, "")
    rho = float(out.strip().splitlines()[-1].split("=")[1])
    assert np.isfinite(rho)
    assert "0.00001*pinv(S1)*L" in build("graphene", omega=0.00001).expression


def csv_in_memory(result) -> str:
    """The whole CSV of a library result, built as one text."""
    dim = result.lattice.dim
    header = (
        [f"k_frac_{i + 1}" for i in range(dim)]
        + [f"k_phys_{i + 1}" for i in range(dim)]
        + ["eig_index", "re", "im", "abs"]
    )
    lines = [",".join(header)]
    for rec in result.records:
        prefix = list(k_frac_text(rec.num, rec.den)) + [repr(x) for x in rec.k_phys]
        for idx, e in enumerate(rec.eigenvalues):
            lines.append(",".join(prefix + [str(idx), repr(e.real), repr(e.imag), repr(abs(e))]))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "example, resolution",
    [
        ("curlcurl", "9"),  # 81 samples: a full block and a ragged one
        ("graphene", "[[2,3],[2,-2]]"),
        ("laplacian-rb", "[[3,4611686018427387904],[0,5]]"),
    ],
)
def test_streamed_csv_equals_the_csv_built_in_memory(tmp_path, capsys, example, resolution):
    entry = build(example)
    expr = parse(entry.expression)
    result = compute_spectrum(expr, entry.operators, cli._parse_resolution_flag(resolution, entry.dim))
    want = csv_in_memory(result)
    rho_line = f"rho_max = {result.rho:.8f}\n"
    path = tmp_path / "out.csv"
    code, out, err = run(capsys, "spectrum", "--example", example, "--resolution", resolution,
                         "--output", str(path))
    assert (code, out, err) == (0, rho_line, "")
    assert path.read_text(encoding="utf-8") == want
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]
    code, out, err = run(capsys, "spectrum", "--example", example, "--resolution", resolution)
    assert (code, out, err) == (0, want + rho_line, "")


@pytest.mark.parametrize("name", entry_names())
def test_library_call_on_a_whole_entry_gives_the_cli_csv(capsys, name):
    # both bind the operators the expression names: curlcurl's unused R,
    # on a coarser lattice, must not move the library's torus
    entry = build(name)
    argv = ["spectrum", "--example", name]
    if name == "graphene":  # 9 instead of the default 41, for time
        entry = replace(entry, resolution=((9, 0), (0, 9)))
        argv += ["--resolution", "9"]
    result = compute_spectrum(parse(entry.expression), entry.operators, entry.resolution)
    assert run(capsys, *argv) == (0, csv_in_memory(result) + f"rho_max = {result.rho:.8f}\n", "")


TWO_LATTICES = str(Path(__file__).parent / "data" / "two_lattices.json")


def test_two_lattice_file_gives_the_library_csv_and_verifies(capsys):
    # one scalar operator on diag(2,1) and on diag(1,2): spectrum runs on
    # their lcm lattice, and verify checks each on its own
    entry = load_operator_file(TWO_LATTICES)
    result = compute_spectrum(parse(entry.expression), entry.operators, entry.resolution)
    assert run(capsys, "spectrum", "--input", TWO_LATTICES) == (
        0, csv_in_memory(result) + f"rho_max = {result.rho:.8f}\n", ""
    )
    code, out, err = run(capsys, "verify", "--input", TWO_LATTICES)
    assert (code, err) == (0, "")
    assert len(out.splitlines()) == 6
    assert all(line.endswith("pass") for line in out.splitlines())


def test_failed_spectrum_leaves_no_output_file(tmp_path, capsys, monkeypatch):
    path = tmp_path / "out.csv"
    # a shape mismatch fails in the first block, before anything is written
    argv = ["spectrum", "--example", "graphene", "--expr", "L + R", "--resolution", "3"]
    assert run(capsys, *argv, "--output", str(path))[:2] == (2, "")
    assert run(capsys, *argv)[:2] == (2, "")
    assert list(tmp_path.iterdir()) == []

    # a LAPACK failure in the second block of 81 samples, after rows were written
    right = cli.eigenvalues
    calls = []

    def fail_later(mtx):
        calls.append(len(mtx))
        if len(calls) == 2:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return right(mtx)

    monkeypatch.setattr("stencilfa.symbol.eigenvalues", fail_later)
    argv = ["spectrum", "--example", "curlcurl", "--resolution", "9", "--output", str(path)]
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", "error: Eigenvalues did not converge\n")
    assert calls == [64, 17]
    assert list(tmp_path.iterdir()) == []
    # a file that was there before stays as it was
    path.write_text("earlier table\n")
    calls.clear()
    assert run(capsys, *argv)[0] == 2
    assert path.read_text() == "earlier table\n"
    assert list(tmp_path.iterdir()) == [path]


def test_spectrum_above_the_sample_cap_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "out.csv"
    for extra in ([], ["--output", str(path)], ["--format", "json", "--output", str(path)]):
        code, out, err = run(
            capsys, "spectrum", "--example", "laplacian-rb", "--expr", "L",
            "--resolution", "[[9223372036854775807,0],[0,1]]", *extra,
        )
        assert (code, out) == (1, "")
        assert err == "error: torus too large to sample (|det M| = 9223372036854775807 > 1048576)\n"
    assert list(tmp_path.iterdir()) == []


def test_spectrum_memory_does_not_grow_with_the_sample_count(tmp_path, capsys):
    # 16,384 samples and 32,768 CSV rows: the sample arrays (0.5 MB) and one
    # block of rows are held, never a record or a line per sample
    path = tmp_path / "curlcurl.csv"
    main(["spectrum", "--example", "curlcurl", "--resolution", "2", "--output", str(path)])
    tracemalloc.start()
    try:
        code = main(["spectrum", "--example", "curlcurl", "--resolution", "128", "--output", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert capsys.readouterr().out.splitlines()[-1].startswith("rho_max = ")
    assert peak < 2e6


def test_json_memory_does_not_grow_with_the_sample_count(tmp_path, capsys):
    # 16,384 records: the eigenvalue and sample arrays are held whole, the
    # text one record at a time, never a dict or a string per sample
    path = tmp_path / "curlcurl.json"
    main(["spectrum", "--example", "curlcurl", "--resolution", "2", "--format", "json",
          "--output", str(path)])
    tracemalloc.start()
    try:
        code = main(["spectrum", "--example", "curlcurl", "--resolution", "128",
                     "--format", "json", "--output", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert capsys.readouterr().out.splitlines()[-1].startswith("rho_max = ")
    assert peak < 2e6


def json_in_memory(result) -> str:
    """The whole JSON document of a library result, dumped as one payload."""
    payload = {
        "expression": result.expression,
        "lattice": [[float(x) for x in row] for row in result.lattice.basis],
        "resolution": [[int(x) for x in row] for row in result.resolution],
        "rho_max": result.rho,
        "records": [
            {
                "k_frac": [str(f) for f in rec.k_frac],
                "k_phys": list(rec.k_phys),
                "eigenvalues": [[e.real, e.imag] for e in rec.eigenvalues],
            }
            for rec in result.records
        ],
    }
    return json.dumps(payload, indent=2) + "\n"


@pytest.mark.parametrize(
    "example, resolution",
    [
        ("graphene", "9"),  # 81 samples: two blocks
        ("curlcurl", "7"),
        ("laplacian-rb", "[[3,4611686018427387904],[0,5]]"),
    ],
)
def test_streamed_json_equals_json_dumps_of_the_payload(tmp_path, capsys, example, resolution):
    entry = build(example)
    expr = parse(entry.expression)
    result = compute_spectrum(expr, entry.operators, cli._parse_resolution_flag(resolution, entry.dim))
    want = json_in_memory(result)
    rho_line = f"rho_max = {result.rho:.8f}\n"
    path = tmp_path / "out.json"
    argv = ["spectrum", "--example", example, "--resolution", resolution, "--format", "json"]
    assert run(capsys, *argv, "--output", str(path)) == (0, rho_line, "")
    assert path.read_text(encoding="utf-8") == want
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]
    assert run(capsys, *argv) == (0, want + rho_line, "")


def test_no_spectrum_record_is_built_on_the_array_paths(tmp_path, capsys, monkeypatch):
    def no_record(*args):
        raise AssertionError("a SpectrumRecord was built")

    monkeypatch.setattr("stencilfa.symbol.SpectrumRecord", no_record)
    argv = ["spectrum", "--example", "curlcurl", "--resolution", "9"]
    assert run(capsys, *argv, "--output", str(tmp_path / "x.csv"))[0] == 0
    assert run(capsys, *argv)[0] == 0
    assert run(capsys, *argv, "--format", "json", "--output", str(tmp_path / "x.json"))[0] == 0
    assert run(capsys, "verify", "--example", "graphene", "--resolution", "4")[0] == 0
    entry = build("graphene")
    expr = parse(entry.expression)
    m = [[9, 0], [0, 9]]
    assert sum(len(block) for block, _ in spectrum_blocks(expr, entry.operators, m)) == 81
    result = compute_spectrum(expr, entry.operators, m)
    assert len(result.records) == 81
    with pytest.raises(AssertionError, match="SpectrumRecord"):
        result.records[0]


def test_unwritable_output_is_one_error_line(tmp_path, capsys):
    missing = tmp_path / "missing" / "x.csv"
    spectrum = ["spectrum", "--example", "laplacian-rb", "--resolution", "3"]
    for argv, path in [
        (spectrum + ["--output", str(missing)], missing),
        (spectrum + ["--format", "json", "--output", str(missing)], missing),
        (spectrum + ["--output", str(tmp_path)], tmp_path),
        (["describe", "--example", "graphene", "--output", str(missing)], missing),
        (["describe", "--example", "graphene", "--format", "json", "--output", str(tmp_path)], tmp_path),
    ]:
        code, out, err = run(capsys, *argv)
        reason = "No such file or directory" if path == missing else "Is a directory"
        assert (code, out, err) == (1, "", f"error: cannot write {path}: {reason}\n")
    assert list(tmp_path.iterdir()) == []


def test_unwritable_plot_script_is_one_error_line_after_the_csv(tmp_path, capsys):
    csv, plot = tmp_path / "x.csv", tmp_path / "missing" / "p.gp"
    code, out, err = run(
        capsys, "spectrum", "--example", "laplacian-rb", "--resolution", "3",
        "--output", str(csv), "--emit-plot", str(plot),
    )
    assert (code, out, err) == (1, "", f"error: cannot write {plot}: No such file or directory\n")
    assert csv.read_text(encoding="utf-8").startswith("k_frac_1,")
    assert [p.name for p in tmp_path.iterdir()] == ["x.csv"]


def test_closed_stdout_exits_1_without_a_traceback():
    # 8,192 CSV rows are more than a pipe holds, so writes go on after the
    # reader has closed its end
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "stencilfa.cli", "spectrum", "--example", "curlcurl",
         "--resolution", "64"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.readline().startswith(b"k_frac_1,")
    proc.stdout.close()
    assert proc.wait(timeout=120) == 1
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert err == "error: cannot write stdout: the reader closed it\n"
    assert "Traceback" not in err


@pytest.mark.parametrize("den", [1, 2, 3, 12, 41, 64, 360])
def test_k_frac_text_matches_fraction(den):
    nums = list(range(den))
    assert k_frac_text(nums, den) == tuple(str(Fraction(n, den)) for n in nums)


def test_spectrum_matrix_resolution(capsys):
    code, out, _ = run(
        capsys, "spectrum", "--example", "laplacian-rb",
        "--resolution", "[[2,3],[2,-2]]", "--expr", "L",
    )
    assert code == 0
    assert len(out.strip().splitlines()) == 1 + 20 + 1


def test_resolution_singularity_is_exact(capsys):
    # det = -1: a float determinant of these entries rounds to 0
    unimodular = "[[100000001,100000000],[100000000,99999999]]"
    code, out, _ = run(
        capsys, "spectrum", "--example", "laplacian-rb", "--resolution", unimodular,
        "--expr", "L",
    )
    assert code == 0
    assert len(out.strip().splitlines()) == 1 + 2 + 1  # header, one sample, rho line
    code, _, err = run(
        capsys, "spectrum", "--example", "laplacian-rb", "--resolution", "[[2,4],[1,2]]",
    )
    assert code == 1
    assert "singular" in err


BEYOND_INT64 = 10**19


@pytest.mark.parametrize(
    "flag",
    [f"[[{BEYOND_INT64},0],[0,1]]", str(BEYOND_INT64)],
    ids=["matrix", "scalar"],
)
def test_resolution_flag_beyond_int64_is_schema_error(capsys, flag):
    code, out, err = run(
        capsys, "spectrum", "--example", "laplacian-rb", "--resolution", flag, "--expr", "L",
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error: --resolution: ")
    assert "64-bit" in err


def test_file_resolution_beyond_int64_is_schema_error(tmp_path, capsys):
    path = tmp_path / "rb.json"
    run(capsys, "describe", "--example", "laplacian-rb", "--format", "json", "--output", str(path))
    raw = json.loads(path.read_text())
    raw["resolution"] = [[BEYOND_INT64, 0], [0, 1]]
    path.write_text(json.dumps(raw))
    code, out, err = run(capsys, "describe", "--input", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {path}: resolution: ")
    assert "64-bit" in err


def test_spectrum_output_byte_stable_across_runs(tmp_path, capsys):
    paths = []
    for attempt in ("1", "2"):
        path = tmp_path / f"run{attempt}.csv"
        code, _, _ = run(
            capsys, "spectrum", "--example", "graphene", "--resolution", "5",
            "--output", str(path),
        )
        assert code == 0
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


@pytest.mark.parametrize("example", ["graphene", "curlcurl", "laplacian-rb"])
def test_spectrum_from_described_file_matches_example(example, tmp_path, capsys):
    path = tmp_path / "ops.json"
    run(capsys, "describe", "--example", example, "--format", "json", "--output", str(path))
    direct, loaded = tmp_path / "direct.csv", tmp_path / "loaded.csv"
    for source, out in ((["--example", example], direct), (["--input", str(path)], loaded)):
        code, _, _ = run(capsys, "spectrum", *source, "--resolution", "6", "--output", str(out))
        assert code == 0
    assert loaded.read_bytes() == direct.read_bytes()


def test_spectrum_from_operator_file(tmp_path, capsys):
    path = tmp_path / "graphene.json"
    run(capsys, "describe", "--example", "graphene", "--format", "json", "--output", str(path))
    code, out, _ = run(capsys, "spectrum", "--input", str(path), "--resolution", "3")
    assert code == 0
    assert out.strip().splitlines()[-1].startswith("rho_max = ")


def test_spectrum_emit_plot(tmp_path, capsys):
    csv_path = tmp_path / "rb.csv"
    plot_path = tmp_path / "rb.gp"
    code, _, _ = run(
        capsys, "spectrum", "--example", "laplacian-rb", "--resolution", "4",
        "--output", str(csv_path), "--emit-plot", str(plot_path),
    )
    assert code == 0
    script = plot_path.read_text()
    assert str(csv_path) in script
    assert "using 6:7" in script
    # the script needs a data file, so plotting straight to stdout is refused
    code, _, err = run(
        capsys, "spectrum", "--example", "laplacian-rb", "--resolution", "4",
        "--emit-plot", str(plot_path),
    )
    assert code == 1
    assert "--output" in err


# ---------------------------------------------------------------------------
# exit codes


def test_missing_input_file_is_schema_error(capsys):
    code, _, err = run(capsys, "spectrum", "--input", "missing.json")
    assert code == 1
    assert "missing.json" in err


def test_bad_expression_syntax_is_expression_error(capsys):
    code, _, err = run(
        capsys, "spectrum", "--example", "graphene", "--expr", "L + *R",
    )
    assert code == 3
    assert "expression" in err


def test_unknown_identifier_is_expression_error(tmp_path, capsys):
    # one error naming every unknown operator, before anything is written
    argv = ["spectrum", "--example", "graphene", "--expr", "Z*L + Q", "--resolution", "3"]
    want = (3, "", "error: unbound identifiers 'Q', 'Z'\n")
    for fmt in ("csv", "json"):
        assert run(capsys, *argv, "--format", fmt) == want
        assert run(capsys, *argv, "--format", fmt, "--output", str(tmp_path / "out")) == want
    assert list(tmp_path.iterdir()) == []


def test_expression_without_identifier_is_expression_error(capsys):
    code, out, err = run(
        capsys, "spectrum", "--example", "graphene", "--resolution", "3",
        "--expr", "I + 2*I",
    )
    assert code == 3
    assert err.startswith("error: bad expression: ")
    assert "no operator identifier" in err
    assert out == ""


def test_bare_identity_on_rectangular_operator_is_expression_error(capsys):
    code, out, err = run(
        capsys, "spectrum", "--example", "graphene", "--resolution", "3",
        "--expr", "R + I",
    )
    assert (code, out) == (3, "")
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ")
    assert "bare" in err and "k_frac=(0, 0)" in err


def _file_with_expression(tmp_path, capsys, expr):
    path = tmp_path / "rb.json"
    run(capsys, "describe", "--example", "laplacian-rb", "--format", "json", "--output", str(path))
    raw = json.loads(path.read_text())
    raw["expr"] = expr
    path.write_text(json.dumps(raw))
    return path


def test_file_expression_without_identifier_is_expression_error(tmp_path, capsys):
    path = _file_with_expression(tmp_path, capsys, "2*I")
    code, out, err = run(capsys, "spectrum", "--input", str(path))
    assert code == 3
    assert err.startswith("error: bad expression: ")
    assert out == ""


def test_describe_keeps_expression_without_identifier(tmp_path, capsys):
    path = _file_with_expression(tmp_path, capsys, "2*I")
    code, out, _ = run(capsys, "describe", "--input", str(path), "--format", "json")
    assert code == 0
    assert json.loads(out)["expr"] == "2*I"


def test_shape_mismatch_is_incompatibility_error(capsys):
    code, _, err = run(
        capsys, "spectrum", "--example", "graphene", "--expr", "L + R",
        "--resolution", "3",
    )
    assert code == 2
    assert "shape mismatch" in err


def test_non_expression_error_mentioning_bare_is_incompatibility(capsys, monkeypatch):
    def fail(*args):
        raise ValueError("bare lattice vectors are not rationally related")

    monkeypatch.setattr(cli, "spectrum_blocks", fail)
    code, _, err = run(capsys, "spectrum", "--example", "graphene", "--resolution", "3")
    assert code == 2
    assert err == "error: bare lattice vectors are not rationally related\n"


def test_bad_parameter_usage(capsys):
    code, _, err = run(
        capsys, "spectrum", "--example", "laplacian-rb", "--param", "omega=1",
    )
    assert code == 1
    code, _, err = run(
        capsys, "spectrum", "--example", "laplacian-rb", "--param", "h",
    )
    assert code == 1
    assert "key=value" in err


def test_param_rejected_for_file_input(tmp_path, capsys):
    path = tmp_path / "rb.json"
    run(capsys, "describe", "--example", "laplacian-rb", "--format", "json", "--output", str(path))
    code, _, err = run(
        capsys, "spectrum", "--input", str(path), "--param", "h=2",
    )
    assert code == 1
    assert "gallery" in err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
def test_non_finite_parameter_is_schema_error(capsys, value):
    code, out, err = run(
        capsys, "spectrum", "--example", "curlcurl", "--resolution", "4",
        "--param", f"sigma_h={value}",
    )
    assert (code, out) == (1, "")
    assert err == f"error: --param sigma_h: {value!r} is not a finite number\n"


@pytest.mark.parametrize(
    "key, token",
    [("matrix", "NaN"), ("matrix", "-Infinity"), ("matrix", "1e999"), ("matrix", "1" + "0" * 400),
     ("lattice", "NaN")],
    ids=["nan", "-inf", "1e999", "int-1e400", "lattice-nan"],
)
def test_non_finite_file_number_is_schema_error(tmp_path, capsys, key, token):
    path = tmp_path / "rb.json"
    run(capsys, "describe", "--example", "laplacian-rb", "--format", "json", "--output", str(path))
    raw = json.loads(path.read_text())
    op = raw["operators"]["L"]
    if key == "matrix":
        op["multipliers"][0]["matrix"][0][0][0] = "@"
        where = "operators.L.multipliers[0].matrix"
    else:
        op["lattice"][0][0] = "@"
        where = "operators.L.lattice"
    path.write_text(json.dumps(raw).replace('"@"', token))
    code, out, err = run(capsys, "spectrum", "--input", str(path))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {where}: expected a finite number, got ")
    assert len(err.splitlines()) == 1


# ---------------------------------------------------------------------------
# verify


def test_verify_check_failure_is_not_a_schema_error(capsys, monkeypatch):
    def fail(matrix):
        raise ValueError("torus matrix does not split")

    monkeypatch.setattr(cli, "translation_residual", fail)
    with pytest.raises(ValueError, match="does not split"):
        main(["verify", "--example", "graphene", "--resolution", "3"])


def test_verify_gallery_entries_pass(capsys):
    code, out, _ = run(capsys, "verify", "--example", "laplacian-rb", "--resolution", "3,4")
    assert code == 0
    assert "FAIL" not in out
    assert "translation invariance" in out
    assert "symbol vs dense spectrum" in out
    assert "wave basis Gram" in out

    code, out, _ = run(capsys, "verify", "--example", "graphene", "--resolution", "3")
    assert code == 0
    assert "FAIL" not in out


def test_verify_default_resolution_is_3(capsys):
    default = run(capsys, "verify", "--example", "laplacian-rb")
    assert default[0] == 0
    assert default == run(capsys, "verify", "--example", "laplacian-rb", "--resolution", "3")


def test_verify_catches_a_wrong_symbol_route(capsys, monkeypatch):
    right = cli.symbols
    monkeypatch.setattr(cli, "symbols", lambda op, num, den: right(op, num, den) * (1 + 1e-6))
    code, out, _ = run(capsys, "verify", "--example", "graphene", "--resolution", "4")
    assert code != 0
    status = {line[:44].rstrip(): line.split()[-1] for line in out.splitlines()}
    # L couples every torus point; S1's dense matrix splits into small blocks
    assert status["symbol vs dense spectrum  L"] == "FAIL"
    assert status["symbol vs dense spectrum  S1"] == "FAIL"
    assert status["translation invariance  S1"] == "pass"


def test_verify_torus_above_dense_cap_is_an_error_line(capsys):
    # |det M| = 101^2 exceeds the dense oracle's cap of 10^4 block rows
    code, out, err = run(capsys, "verify", "--example", "laplacian-rb", "--resolution", "101")
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ") and "too large" in err


@pytest.mark.parametrize("example", ["graphene", "curlcurl"])
def test_verify_lists_the_dual_torus_once(example, monkeypatch):
    listed = []
    sample = cli.sample_dual_torus

    def spy(a, m):
        samples = sample(a, m)
        listed.append(len(samples))
        return samples

    monkeypatch.setattr(cli, "sample_dual_torus", spy)
    monkeypatch.setattr("stencilfa.oracle.sample_dual_torus", spy)
    cli._verify_checks(build(example).operators, 10 * np.eye(2, dtype=int))
    assert listed == [100]


def _square(operators):
    return [name for name in sorted(operators)
            if operators[name].domain_se == operators[name].codomain_se]


@pytest.mark.parametrize("example", ["graphene", "curlcurl", "laplacian-rb"])
def test_verify_takes_one_symbols_call_per_square_operator(example, monkeypatch):
    operators = build(example).operators
    called = []
    batched = cli.symbols

    def spy(op, num, den):
        called.append(op)
        return batched(op, num, den)

    def per_sample(*args):
        raise AssertionError("verify called symbol_at")

    monkeypatch.setattr(cli, "symbols", spy)
    monkeypatch.setattr("stencilfa.symbol.symbol_at", per_sample)
    cli._verify_checks(operators, 10 * np.eye(2, dtype=int))
    assert called == [operators[name] for name in _square(operators)]


@pytest.mark.parametrize("example", ["graphene", "curlcurl", "laplacian-rb"])
@pytest.mark.parametrize("resolution", [[[4, 0], [0, 4]], [[2, 3], [2, -2]]])
def test_verify_union_is_every_symbols_eigenvalues(example, resolution, monkeypatch):
    # solving each distinct symbol once and expanding back to listing order
    # gives the eigenvalues of the whole stack, bit for bit
    operators = build(example).operators
    unions = []
    distance = cli.spectrum_distance

    def spy(union, dense):
        unions.append(union)
        return distance(union, dense)

    monkeypatch.setattr(cli, "spectrum_distance", spy)
    cli._verify_checks(operators, np.array(resolution))
    names = _square(operators)
    assert len(unions) == len(names)
    for name, union in zip(names, unions):
        op = operators[name]
        samples = sample_dual_torus(op.lattice, np.array(resolution))
        want = eigenvalues(symbols(op, samples.num, samples.den)).ravel()
        assert union.dtype == want.dtype and union.tobytes() == want.tobytes(), name


def test_verify_keeps_symbols_apart_that_differ_in_the_sign_of_a_zero(monkeypatch):
    # symbols that are equal as numbers but not as bits are solved apart:
    # their eigenvalues differ in the sign of a zero
    signed = np.array([[[0.0, 0.0], [0.0, 1.0]], [[-0.0, 0.0], [0.0, 1.0]]], dtype=complex)
    assert np.array_equal(signed[0], signed[1])
    want = eigenvalues(signed)
    assert want[0].tobytes() != want[1].tobytes()
    unions = []
    distance = cli.spectrum_distance

    def spy(union, dense):
        unions.append(union)
        return distance(union, dense)

    monkeypatch.setattr(cli, "symbols", lambda op, num, den: signed[np.arange(len(num)) % 2])
    monkeypatch.setattr(cli, "spectrum_distance", spy)
    operators = {"L": build("laplacian-rb").operators["L"]}
    cli._verify_checks(operators, 2 * np.eye(2, dtype=int))
    assert unions[0].tobytes() == want[np.arange(4) % 2].ravel().tobytes()


def _with_central_copy_at(tmp_path, capsys, offset):
    """laplacian-rb's L, as describe writes it, plus a copy of its central
    multiplier at the given offset, as an operator file."""
    path = tmp_path / f"L-{offset[0]}.json"
    run(capsys, "describe", "--example", "laplacian-rb", "--format", "json", "--operator", "L",
        "--output", str(path))
    raw = json.loads(path.read_text())
    multipliers = raw["operators"]["L"]["multipliers"]
    central = next(m for m in multipliers if m["offset"] == [0, 0])
    multipliers.append({"offset": offset, "matrix": central["matrix"]})
    path.write_text(json.dumps(raw))
    return path


def test_verify_offset_near_2_61_is_reduced_before_the_int64_product(tmp_path, capsys):
    # 2**61 = 2 (mod 3): on the 3x3 torus the far offset is the offset (2, 0),
    # so both files verify alike; an int64 product of the unreduced offset
    # wraps, and its spectrum line reads about 6 and fails
    far = _with_central_copy_at(tmp_path, capsys, [2**61, 0])
    near = _with_central_copy_at(tmp_path, capsys, [2, 0])
    code, out, err = run(capsys, "verify", "--input", str(far), "--resolution", "3")
    assert (code, err) == (0, "")
    assert "FAIL" not in out and "symbol vs dense spectrum  L" in out
    assert run(capsys, "verify", "--input", str(near), "--resolution", "3") == (code, out, err)


def test_verify_rectangular_operators_only(tmp_path, capsys):
    path = tmp_path / "curlcurl.json"
    run(capsys, "describe", "--example", "curlcurl", "--format", "json", "--output", str(path))
    raw = json.loads(path.read_text())
    raw["operators"] = {name: raw["operators"][name] for name in ("R", "R_N")}
    del raw["expr"]
    path.write_text(json.dumps(raw))
    code, out, _ = run(capsys, "verify", "--input", str(path), "--resolution", "4")
    assert code == 0
    labels = [line[:44].rstrip() for line in out.splitlines()]
    assert labels == [
        "translation invariance  R",
        "translation invariance  R_N",
        "wave basis Gram  R/domain",
        "wave basis Gram  R/codomain",
        "wave basis Gram  R_N/domain",
        "wave basis Gram  R_N/codomain",
    ]
    assert "FAIL" not in out


def test_verify_checks_never_hold_a_whole_torus_matrix():
    # graphene at res 10: each of S1-S4 would be an 800x800 complex matrix,
    # 10.2 MB; the triples and the largest connected block (L, 200x200)
    # stay far below
    operators = build("graphene").operators
    resolution = 10 * np.eye(2, dtype=int)
    tracemalloc.start()
    try:
        cli._verify_checks(operators, resolution)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def test_verify_corrupted_file_fails(tmp_path, capsys):
    path = tmp_path / "rb.json"
    run(capsys, "describe", "--example", "laplacian-rb", "--format", "json", "--output", str(path))
    raw = json.loads(path.read_text())
    mults = raw["operators"]["L"]["multipliers"]
    # re-key one off-diagonal multiplier onto an offset that is already taken
    mults[0]["offset"] = mults[1]["offset"]
    bad = tmp_path / "rb_bad.json"
    bad.write_text(json.dumps(raw))
    code, _, err = run(capsys, "verify", "--input", str(bad))
    assert code != 0
    assert "duplicate offset" in err


def test_verify_rejects_malformed_schema(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"dim": 2, "operators": {"L": {"lattice": [[1, 0], [0, 1]]}}}')
    code, _, err = run(capsys, "verify", "--input", str(path))
    assert code == 1
    assert "missing keys" in err


def _hopping_file(path, multipliers):
    """A 1x1 operator on the square lattice, multipliers as {offset: complex}."""
    raw = {
        "dim": 2,
        "operators": {
            "H": {
                "lattice": [[1.0, 0.0], [0.0, 1.0]],
                "domain_se": [["0", "0"]],
                "codomain_se": [["0", "0"]],
                "multipliers": [
                    {"offset": list(off), "matrix": [[[z.real, z.imag]]]}
                    for off, z in multipliers.items()
                ],
            }
        },
    }
    path.write_text(json.dumps(raw))
    return str(path)


@pytest.mark.parametrize("hermitian", [True, False])
def test_verify_complex_operators(tmp_path, capsys, monkeypatch, hermitian):
    # no gallery operator has complex multipliers: a Hermitian hopping with a
    # phase e^{i theta} goes through the complex eigvalsh route, a
    # non-Hermitian one stays on complex eigvals
    phase = complex(np.cos(0.7), np.sin(0.7))
    back = phase.conjugate() if hermitian else 0.5j * phase
    hops = {(0, 0): 1.5, (1, 0): phase, (-1, 0): back, (0, 1): -1.0, (0, -1): -1.0}
    path = _hopping_file(tmp_path / "hopping.json", hops)
    routes = []
    eigvalsh = np.linalg.eigvalsh

    def spy(a):
        routes.append(np.asarray(a).dtype.kind)
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    code, out, _ = run(capsys, "verify", "--input", path, "--resolution", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert any(line.startswith("symbol vs dense spectrum  H") for line in lines)
    assert all(line.endswith("pass") for line in lines)
    assert routes == (["c"] if hermitian else [])
