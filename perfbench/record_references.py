"""Record the reference answers the benchmark checks against.

Run from the root of a checkout, on the code whose answers are the
reference, and commit the resulting perfbench/references.json:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 perfbench/record_references.py

rho comes from the same routes the workloads take: the library
compute_spectrum for graphene, and the ``abs`` column of the CSV written by
``stencilfa spectrum`` for curlcurl.  For ``verify`` the reference is the
list of check labels, which does not depend on the parameters.
"""

from __future__ import annotations

import json
import sys

import workload as wl


def main() -> int:
    sf = wl.import_stencilfa()
    refs = {"graphene": {}, "curlcurl": {}, "verify": {"graphene": {}, "curlcurl": {}}}
    for size in ("full", "tiny"):
        res = wl.RESOLUTION[size]
        n = res["graphene-sweep"]
        work = wl.Workload(sf, "graphene-sweep", {"omega": wl.GRAPHENE_OMEGAS}, n, refs, False)
        work.setup()
        refs["graphene"][str(n)] = {
            repr(omega): sf.compute_spectrum(*work.entries[omega], work.m).rho
            for omega in wl.GRAPHENE_OMEGAS
        }

        n = res["curlcurl-cli"]
        table = refs["curlcurl"][str(n)] = {}
        work = wl.Workload(sf, "curlcurl-cli", {}, n, refs, False)
        wl.OUT_DIR.mkdir(exist_ok=True)
        for sigma in wl.CURLCURL_SIGMAS:
            _, rc, _ = work.run_cli(["spectrum", "--example", "curlcurl", "--resolution", str(n),
                                     "--output", str(work.csv_path),
                                     "--param", f"sigma_h={sigma!r}"])
            if rc != 0:
                raise SystemExit(f"curlcurl sigma_h={sigma} exited {rc}")
            with open(work.csv_path, encoding="utf-8") as fh:
                col = fh.readline().rstrip("\n").split(",").index("abs")
                table[repr(sigma)] = max(float(line.split(",")[col]) for line in fh)
        work.csv_path.unlink()

        n = res["verify-dense"]
        for example, key, grid in (("graphene", "omega", wl.GRAPHENE_OMEGAS),
                                   ("curlcurl", "sigma_h", wl.CURLCURL_SIGMAS)):
            seen = set()
            for value in grid:
                work = wl.Workload(sf, "verify-dense", {key: value}, n, refs, False)
                out, rc, _ = work.run_cli(["verify", "--example", example,
                                           "--resolution", str(n), "--param", f"{key}={value!r}"])
                if rc != 0:
                    raise SystemExit(f"verify {example} {key}={value} exited {rc}")
                seen.add(tuple(line[:44].rstrip() for line in out.strip().splitlines()))
            if len(seen) != 1:
                raise SystemExit(f"verify {example}: check labels depend on {key}")
            refs["verify"][example][str(n)] = list(seen.pop())
        print(f"{size}: done", file=sys.stderr)

    path = wl.HERE / "references.json"
    path.write_text(json.dumps(refs, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
