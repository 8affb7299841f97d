"""Record the benchmark's reference outputs and deterministic counts.

    python3 perfbench/record.py [WORKLOAD ...]

For each workload, input variant and size (full and smoke) this runs one
traced pass of the operations and stores the parsed CSV output and the
per-pass counts in reference/<workload>.json. Run it only on a commit whose
outputs are known to be right: the benchmark then checks every later commit
against these values. Schur weights and harmonic values are not stored;
the benchmark recomputes them densely (checks.py).
"""

from __future__ import annotations

import json
import sys

import run  # noqa: F401  (pins BLAS threads before numpy loads)
import workloads as wl

sys.path.insert(0, str(run.SRC))

import checks  # noqa: E402
from tracing import DETERMINISTIC, Tracer  # noqa: E402


def _compact_sparsify(table: dict) -> dict:
    rows = [r for r in table["rows"] if r[0] not in ("schur-weight", "harmonic")]
    bits = "".join(r[3] for r in rows if r[0] == "l1-assignment")
    out, placed = [], False
    for row in rows:
        if row[0] != "l1-assignment":
            out.append(row)
        elif not placed:
            out.append(["l1-assignment-bits", bits])
            placed = True
    return dict(table, rows=out)


def _verify_dense_rows(workdir, table: dict) -> None:
    """The rows the benchmark recomputes must match the program at recording."""
    run.run_child([str(run.HERE / "checks.py"), "sparsify", str(workdir)])
    with open(workdir / "dense_sparsify.json") as fh:
        dense = json.load(fh)
    got = [r for r in table["rows"] if r[0] in ("schur-weight", "harmonic")]
    errors = checks.compare({"comments": [], "header": None, "rows": got},
                            {"comments": [], "header": None, "rows": dense})
    if errors:
        raise SystemExit(f"dense sparsify rows disagree: {errors}")


def record_variant(workload: str, seed: int, smoke: bool):
    workdir = run.WORK / f"record-{workload}-{seed}{'-smoke' if smoke else ''}"
    wl.write_inputs(workload, seed, smoke, workdir)
    ops = wl.operations(workload, seed, smoke, workdir)
    tracer = Tracer()
    tracer.install()
    try:
        result = run.run_pass(ops, workdir, run.Calibration(), tracer)
    finally:
        tracer.uninstall()
    tables = {}
    for (name, _), outcome in zip(ops, result["outcomes"]):
        if outcome != 0:
            raise SystemExit(f"{workload} seed {seed} {name}: exit {outcome}")
        tables[name] = checks.parse_csv((workdir / f"{name}.csv").read_text())
    if "sparsify" in tables:
        _verify_dense_rows(workdir, tables["sparsify"])
        tables["sparsify"] = _compact_sparsify(tables["sparsify"])
    counts = {k: result["layers"][k] for k in DETERMINISTIC if k in result["layers"]}
    return tables, counts


def record(workload: str) -> dict:
    ref = {"counts": {}}
    for smoke in (False, True):
        mode = "smoke" if smoke else "full"
        ref["counts"][mode] = {}
        outputs = {}
        for v in range(wl.VARIANTS):
            seed = v + 1
            tables, counts = record_variant(workload, seed, smoke)
            ref["counts"][mode][str(v)] = counts
            outputs[str(v)] = tables
            print(f"{workload} {mode} variant {v}: {counts}", flush=True)
        if workload == "certify-grid":
            # rows depend only on (n, d, generator seed): store them once
            merged = {}
            for tables in outputs.values():
                for name, table in tables.items():
                    experiment = name.rsplit("-seed", 1)[0]
                    entry = merged.setdefault(experiment, {"header": table["header"],
                                                           "rows": {}})
                    for row in table["rows"]:
                        key = ",".join(row[:3])
                        if entry["rows"].setdefault(key, row) != row:
                            raise SystemExit(f"{experiment} {key}: rows differ between variants")
            ref[mode] = merged
        else:
            ref[mode] = outputs
    return ref


def main(argv) -> None:
    for workload in argv or wl.WORKLOADS:
        ref = record(workload)
        with open(run.REFERENCE / f"{workload}.json", "w") as fh:
            json.dump(ref, fh, separators=(",", ":"), sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
