"""scripts/bench_spectrum.py times the stencilfa of the checkout it sits in."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _bench(checkout: Path, out_dir: Path, pythonpath: str | None) -> subprocess.CompletedProcess:
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    if pythonpath is not None:
        env["PYTHONPATH"] = pythonpath
    script = checkout / "scripts" / "bench_spectrum.py"
    return subprocess.run(
        [sys.executable, str(script), "--tag", "t", "--size", "tiny", "--out-dir", str(out_dir)],
        cwd=out_dir, env=env, capture_output=True, text=True, timeout=120,
    )


def test_bench_script_runs_its_own_checkout(tmp_path):
    checkout = tmp_path / "checkout"
    for part in ("src", "scripts", "perfbench"):
        shutil.copytree(ROOT / part, checkout / part, ignore=shutil.ignore_patterns("__pycache__"))
    # another tree with a stencilfa package that has none of the names the script uses
    other = tmp_path / "other"
    (other / "stencilfa").mkdir(parents=True)
    (other / "stencilfa" / "__init__.py").write_text("OTHER_TREE = True\n")
    out_dir = tmp_path / "out"
    out_dir.mkdir()

    for pythonpath in (None, str(other)):
        proc = _bench(checkout, out_dir, pythonpath)
        assert proc.returncode == 0, proc.stderr
        record = json.loads((out_dir / "BENCH_t.json").read_text())
        assert [w["name"] for w in record["workloads"]] == ["graphene", "curlcurl", "laplacian-rb"]
        (out_dir / "BENCH_t.json").unlink()

    # a checkout without sources does not time the other tree's stencilfa
    shutil.rmtree(checkout / "src" / "stencilfa")
    proc = _bench(checkout, out_dir, str(other))
    assert proc.returncode == 1
    assert proc.stderr.startswith(f"error: imported stencilfa from {other / 'stencilfa'}")
    assert list(out_dir.iterdir()) == []
