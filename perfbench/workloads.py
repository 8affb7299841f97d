"""Workload inputs and operations for the ohmlab benchmark.

A workload is a fixed list of CLI operations over generated input files.
The inputs are a function of the benchmark seed only: the seed picks one of
VARIANTS input variants, and variant v uses generator seed v + 1, so seed 1
reproduces the generator-seed-1 inputs. Reference outputs are recorded per
variant (see record.py), which is why the variant space is finite.

Run as a script (`python3 workloads.py setup ...`) this module is the
set-up child: it times `import ohmlab.cli`, writes the workload's input
files and, on certify-grid, runs the generator probe, then runs the
calibration kernel to scale that time to reference speed. Nothing at module
level imports numpy or ohmlab, so the import timing in the child is clean.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

WORKLOADS = ("certify-grid", "ratio-sweep", "single-large")
VARIANTS = 16
GRID_SEEDS = 5  # certify-grid runs generator seeds g .. g + GRID_SEEDS - 1

# Full and smoke sizes. Smoke keeps every operation and layer of a workload
# but on inputs small enough that a whole run takes seconds.
SIZES = {
    False: {
        "grid_n": "10,12,16,20", "grid_d": "3,4", "grid_seeds": GRID_SEEDS,
        "report_small_n": 200, "report_large_n": 1000, "k_list": "1,2,3,4,5",
        "diagnose_n": 20000, "samples": 50, "sparsify_n": 3000,
    },
    True: {
        "grid_n": "10", "grid_d": "3", "grid_seeds": 2,
        "report_small_n": 20, "report_large_n": 40, "k_list": "1,2",
        "diagnose_n": 400, "samples": 20, "sparsify_n": 60,
    },
}

# ROADMAP item 4's known generator defect: the pairing model gives up on
# d = 8 at n = 200. Probed in certify-grid's set-up and never used as input.
PROBE = (200, 8)


def variant(seed: int) -> int:
    return (seed - 1) % VARIANTS


def generator_seed(seed: int) -> int:
    return variant(seed) + 1


def grid_seeds(seed: int, smoke: bool) -> list:
    g = generator_seed(seed)
    return list(range(g, g + SIZES[smoke]["grid_seeds"]))


def write_inputs(workload: str, seed: int, smoke: bool, workdir: Path) -> None:
    """Generate and write the workload's input files into workdir."""
    import numpy as np
    from ohmlab.graphs import random_regular, write_graph
    from ohmlab.sparsify import Partition, write_partition

    size = SIZES[smoke]
    g = generator_seed(seed)
    workdir.mkdir(parents=True, exist_ok=True)
    if workload == "ratio-sweep":
        write_graph(random_regular(size["report_small_n"], 3, g), workdir / "small.graph")
        write_graph(random_regular(size["report_large_n"], 3, g), workdir / "large.graph")
    elif workload == "single-large":
        write_graph(random_regular(size["diagnose_n"], 3, g), workdir / "diagnose.graph")
        n = size["sparsify_n"]
        write_graph(random_regular(n, 3, g), workdir / "sparsify.graph")
        rng = np.random.default_rng(g)
        part = Partition.from_eliminated(n, rng.choice(n, n // 2, replace=False))
        write_partition(part, workdir / "sparsify.part")
        bits = rng.integers(0, 2, part.terminals.size)
        (workdir / "sparsify.x").write_text(",".join(str(int(b)) for b in bits))


def probe_generator(seed: int) -> bool:
    """Attempt the d=8 generator case; True when it returns a graph."""
    from ohmlab.errors import ConvergenceError
    from ohmlab.graphs import random_regular

    try:
        random_regular(PROBE[0], PROBE[1], generator_seed(seed))
    except ConvergenceError:
        return False
    return True


def has_probe(workload: str) -> bool:
    return workload == "certify-grid"


def operations(workload: str, seed: int, smoke: bool, workdir: Path) -> list:
    """(name, argv) per CLI operation; argv follows the global options.

    Grid experiments run one call per generator seed and lowerbound one call
    per k: the same graphs and solves as a single call, but in operations of
    about a second, so that the calibration kernel run around each one
    (run.py) reflects the host speed it ran at. Calls that could share work
    inside one graph (report over a p grid) stay whole."""
    size = SIZES[smoke]
    g = generator_seed(seed)
    if workload == "certify-grid":
        grid = ["--n-list", size["grid_n"], "--d-list", size["grid_d"]]
        return [(f"{name}-seed{s}", ["experiment", name, *grid, "--seeds", str(s)])
                for name in ("upperbound", "localization")
                for s in grid_seeds(seed, smoke)]
    if workload == "ratio-sweep":
        return [
            ("report-small", ["report", str(workdir / "small.graph"), "--p", "1,2,inf"]),
            ("report-large", ["report", str(workdir / "large.graph"), "--p", "inf"]),
        ] + [(f"lowerbound-k{k}", ["--seed", str(g), "experiment", "lowerbound",
                                   "--k-list", k, "--p", "inf,2"])
             for k in size["k_list"].split(",")]
    if workload == "single-large":
        x = (workdir / "sparsify.x").read_text()
        return [
            ("diagnose", ["diagnose", str(workdir / "diagnose.graph"),
                          "--samples", str(size["samples"])]),
            ("sparsify", ["sparsify", str(workdir / "sparsify.graph"),
                          "--partition", str(workdir / "sparsify.part"), "--x", x]),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def _setup_child(argv: list) -> None:
    """Time one set-up in a fresh interpreter and print it as JSON."""
    workload, seed, smoke, workdir = argv[0], int(argv[1]), argv[2] == "1", Path(argv[3])
    t0 = time.perf_counter()
    import ohmlab.cli  # noqa: F401  (the import users pay on every command)
    t1 = time.perf_counter()
    write_inputs(workload, seed, smoke, workdir)
    probe_ok = probe_generator(seed) if has_probe(workload) else None
    t2 = time.perf_counter()
    from calibrate import REFERENCE_S, Calibration

    cal = Calibration()
    kernel_s = sorted(cal.measure()[0] for _ in range(3))[1]
    print(json.dumps({"import_s": t1 - t0, "inputs_s": t2 - t1, "setup_s": t2 - t0,
                      "setup_ref_s": (t2 - t0) * REFERENCE_S / kernel_s,
                      "probe_ok": probe_ok, "ohmlab_file": ohmlab.cli.__file__}))


if __name__ == "__main__":
    if len(sys.argv) != 6 or sys.argv[1] != "setup":
        sys.exit("usage: workloads.py setup WORKLOAD SEED SMOKE(0|1) WORKDIR")
    _setup_child(sys.argv[2:])
