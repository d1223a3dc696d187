"""Defaults probe: every CLI subcommand on every fixture at default flags,
plus the subset-lattice B3 rung at k = 2.  Run once, not gated.

    python3 perfbench/probe.py

Each row runs in its own child process under a wall-time cap of
TIME_CAP_S and an address-space cap of MEMORY_CAP_MB
(``resource.setrlimit`` in that child only).  A row
that does not finish is recorded as ``did-not-finish`` with its elapsed
time and the cap that stopped it.  Rows go to ``perfbench/out/probe.json``.
"""

import argparse
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

from workloads import cli_runner, mapspace_endpoints

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
TIME_CAP_S = 60
MEMORY_CAP_MB = 2048
SUBCOMMANDS = ("check", "nerve", "segal", "ho", "mapspace", "saturate", "yoneda", "export")
MEMORY_ERROR_EXIT = 3


def rows():
    from pmcat.fixtures import FIXTURES
    out = [("cli", sub, fx) for fx in FIXTURES for sub in SUBCOMMANDS]
    out.append(("api", "segal.build_retraction k=2", "B3"))
    return out


def subset_lattice_b3(pm):
    """The fully marked lattice of subsets of {1, 2, 3} with the trivial
    calculus data, as the fixtures build B2."""
    names = ["0", "1", "2", "3", "12", "13", "23", "123"]
    sets = {n: frozenset(n.strip("0")) for n in names}
    pairs = [(a, b) for a in names for b in names if sets[a] < sets[b]]
    cat = pm.fixtures._poset(names, pairs, lambda a, b: f"{a}<{b}")
    rc = pm.relcat.RelCategory(cat, cat.morphisms)
    return pm.pmc.trivial_partial_model_structure(rc, v_sub=rc.weq)


def run_row(index):
    """Child side: run one row and print one JSON line."""
    import pmcat.cli
    import pmcat.fixtures
    import pmcat.pmc
    import pmcat.relcat
    import pmcat.segal
    pm = pmcat
    kind, what, fixture = rows()[index]
    start = time.perf_counter()
    try:
        if kind == "cli":
            argv = [what, str(pm.fixtures.fixture_path(fixture)), "--format", "json"]
            if what == "mapspace":
                argv += mapspace_endpoints(pm, fixture)
            code, text = cli_runner(pm, argv)()
            detail = {"exit": code, "report_bytes": len(text)}
        else:
            pms = subset_lattice_b3(pm)
            _r, cert = pm.segal.build_retraction(pms, 2)
            detail = {"certificate_valid": cert.valid}
    except MemoryError:
        sys.stdout.write(json.dumps({"memory_error_after_s": time.perf_counter() - start}))
        sys.exit(MEMORY_ERROR_EXIT)
    detail["elapsed_s"] = time.perf_counter() - start
    print(json.dumps(detail))


def probe():
    def limit_memory():
        cap = MEMORY_CAP_MB * 1024 * 1024
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    results = []
    for index, (kind, what, fixture) in enumerate(rows()):
        start = time.perf_counter()
        row = {"row": f"{what} {fixture}", "kind": kind}
        try:
            proc = subprocess.run(
                [sys.executable, __file__, "--row", str(index)],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                timeout=TIME_CAP_S, preexec_fn=limit_memory, check=False)
        except subprocess.TimeoutExpired:
            row.update(status="did-not-finish", elapsed_s=time.perf_counter() - start,
                       stopped_by=f"time cap {TIME_CAP_S} s")
        else:
            elapsed = time.perf_counter() - start
            if proc.returncode == 0:
                row.update(status="finished", **json.loads(proc.stdout.strip().splitlines()[-1]))
            elif proc.returncode == MEMORY_ERROR_EXIT or "MemoryError" in proc.stderr:
                row.update(status="did-not-finish", elapsed_s=elapsed,
                           stopped_by=f"address-space cap {MEMORY_CAP_MB} MB")
            else:
                row.update(status="error", elapsed_s=elapsed, returncode=proc.returncode,
                           stderr=proc.stderr[-500:])
        results.append(row)
        shown = row.get("exit", row.get("certificate_valid", ""))
        print(f"{row['row']:<36} {row['status']:<15} {row['elapsed_s']:8.2f} s  "
              f"{row.get('stopped_by', shown)}", flush=True)
    OUT.mkdir(exist_ok=True)
    with open(OUT / "probe.json", "w", encoding="utf-8") as fh:
        json.dump({"time_cap_s": TIME_CAP_S, "memory_cap_mb": MEMORY_CAP_MB,
                   "rows": results}, fh, indent=1)
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--row", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "pmcat" / "__init__.py").is_file():
        sys.stderr.write("no pmcat sources; run from a pmcat checkout\n")
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.row is not None:
        run_row(args.row)
        return 0
    return probe()


if __name__ == "__main__":
    sys.exit(main())
