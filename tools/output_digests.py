"""Digest every output of the benchmark's jobs, so that two checkouts can be compared.

    python tools/output_digests.py SRC OUT.json
    python tools/output_digests.py --compare A.json B.json

SRC is the `src` directory of the checkout under test; holo_lab is imported
from there.  The jobs are those of perfbench/jobs.py in this repository: every
job of the three workloads at seeds 0 and 7, each CLI job run with
--emit-plots, and every golden config under tests/golden, run with --seed 1
--emit-plots.  OUT.json maps each job to the exit code and the sha256 of every
file its CLI run wrote, or, for a library job, to the repr of its result (full
precision, no array summarised).  Run it on two checkouts and compare the two
files: equal entries mean byte-identical outputs.  --compare prints each job
id whose entries differ, with what differs: the names of the files whose
sha256 differs, exit, repr (or raised), or which file lacks the job; it exits
1 if any entry differs, 0 if every entry is equal.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (0, 7)
GOLDEN_SEED = 1


def _run_cli(job, work):
    """Exit code and {file name: sha256} of one CLI job, run with --emit-plots in the directory work."""
    from holo_lab import cli

    config, out = work / "config.json", work / "out"
    config.write_text(json.dumps(job["config"]))
    with contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["--config", str(config), "--out", str(out), "--seed", str(job["seed"]), "--emit-plots"])
    files = sorted(out.iterdir()) if out.exists() else []
    return {"exit": code, "files": {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in files}}


def _run_library(job):
    """repr of a library job's result, or of the exception it raised."""
    from holo_lab import disc, factorization, rigidity, shiftsim
    from jobs import _matrix

    try:
        if job["kind"] == "rigidity_verdict":
            mats = [_matrix(re) + 1j * _matrix(im) for re, im in job["coeffs"]]
            F = rigidity.OperatorFunction(
                mats[0].shape[0], lambda z: sum(C * z**k for k, C in enumerate(mats)), "poly")
            result = rigidity.rigidity_verdict(F, disc.default_grid())
        else:
            p = job["params"]
            params = factorization.FactorParams(A=_matrix(p["A"]), B=_matrix(p["B"]))
            result = shiftsim.truncated_factorization_check(params, job["t"], N=job["N"])
    except Exception as exc:
        return {"raised": f"{type(exc).__name__}: {exc}"}
    with np.printoptions(floatmode="unique", threshold=sys.maxsize):
        return {"repr": repr(result)}


def _differences(x, y):
    """What differs between two entries of one job: the names of the files whose sha256 differs, then the other keys."""
    files = [x.get("files", {}), y.get("files", {})]
    names = sorted(n for n in files[0].keys() | files[1].keys() if files[0].get(n) != files[1].get(n))
    return names + sorted(k for k in (x.keys() | y.keys()) - {"files"} if x.get(k) != y.get(k))


def compare(a, b):
    """Print each job id whose entries differ between the digest files a and b, with what differs; 1 if any do."""
    first, second = (json.loads(Path(path).read_text()) for path in (a, b))
    keys = first.keys() | second.keys()
    differ = sorted(k for k in keys if first.get(k) != second.get(k))
    for key in differ:
        if key in first and key in second:
            print(f"{key}: {', '.join(_differences(first[key], second[key]))}")
        else:
            print(f"{key}: missing from {b if key in first else a}")
    print(f"{len(differ)} of {len(keys)} entries differ")
    return 1 if differ else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", nargs="?", help="the src directory of the checkout to run")
    parser.add_argument("out", nargs="?", help="the JSON file to write")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"), help="compare two digest files instead")
    args = parser.parse_args(argv)
    if args.compare:
        if args.src or args.out:
            parser.error("--compare takes no SRC or OUT")
        sys.exit(compare(*args.compare))
    if not (args.src and args.out):
        parser.error("SRC and OUT are required")

    src = Path(args.src).resolve()
    sys.path[:0] = [str(src), str(ROOT / "perfbench")]
    import holo_lab
    import jobs

    if not Path(holo_lab.__file__).resolve().is_relative_to(src):
        sys.exit(f"holo_lab was imported from {holo_lab.__file__}, not from {src}")
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        for seed in SEEDS:
            for workload in sorted(jobs.WORKLOADS):
                for job in jobs.generate(workload, seed):
                    key = f"{job['id']} seed {seed}"
                    if job["kind"] == "cli":
                        work = Path(tmp, key.replace(" ", "-"))
                        work.mkdir()
                        digests[key] = _run_cli(job, work)
                    else:
                        digests[key] = _run_library(job)
        for config in sorted((ROOT / "tests" / "golden").glob("*/config.json")):
            work = Path(tmp, "golden-" + config.parent.name)
            work.mkdir()
            job = {"config": json.loads(config.read_text()), "seed": GOLDEN_SEED}
            digests[f"golden {config.parent.name}"] = _run_cli(job, work)
    Path(args.out).write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"{len(digests)} jobs -> {args.out}")


if __name__ == "__main__":
    main()
