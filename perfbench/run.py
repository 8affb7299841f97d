"""ohmlab benchmark: end-to-end and per-layer timings of the CLI workloads.

Usage, from the repository root:

    python3 perfbench/run.py --workload certify-grid --seed 1 --seconds 36 --trace 0

Workloads are certify-grid, ratio-sweep and single-large (see workloads.py
and README.md). One process runs the workload's CLI operations back to back
through `ohmlab.cli.main` (a closed loop with one client), after set-up and
one untimed warm-up pass, for about --seconds. Every output is
checked (checks.py). The last line of stdout is one JSON object with keys
correct, attempted, failed and metrics; --trace 0 reports the end-to-end
metrics, --trace 1 a separate traced run's per-layer metrics. --smoke runs
tiny inputs. The program is imported from src/ beside this directory;
without it the benchmark exits with code 2.
"""

from __future__ import annotations

import os

# BLAS threads are pinned before numpy loads: the solves are sequential, and
# a second BLAS thread made single-large slower and burnt more CPU.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS
os.environ.pop("OHMLAB_THREADS", None)  # the CLI's own thread knob stays at 1

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCE = HERE / "reference"
SETUP_REPEATS = 3
MIN_PASSES = 2  # timed passes, however long a pass takes
CHILD_TIMEOUT_S = 120

import workloads as wl  # noqa: E402  (sibling modules; HERE is on sys.path)
from calibrate import REFERENCE_S, Calibration  # noqa: E402


# -- set-up ------------------------------------------------------------------

def run_child(argv: list) -> subprocess.CompletedProcess:
    """Run a helper script of this directory in a fresh interpreter and wait."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, *argv], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{argv[0]} failed:\n{proc.stderr}")
    return proc


def run_setups(workload: str, seed: int, smoke: bool, workdir: Path) -> list:
    """Set up SETUP_REPEATS times, each in a fresh interpreter, one at a time."""
    argv = [str(HERE / "workloads.py"), "setup", workload, str(seed),
            "1" if smoke else "0", str(workdir)]
    results = []
    for _ in range(SETUP_REPEATS):
        result = json.loads(run_child(argv).stdout.strip().splitlines()[-1])
        if not Path(result["ohmlab_file"]).resolve().is_relative_to(SRC):
            raise RuntimeError(f"set-up imported ohmlab from {result['ohmlab_file']}")
        results.append(result)
    return results


# -- expected outputs ----------------------------------------------------------

def load_reference(workload: str) -> dict:
    with open(REFERENCE / f"{workload}.json") as fh:
        return json.load(fh)


def expected_outputs(workload: str, seed: int, smoke: bool, workdir: Path, ref: dict):
    """Expected parsed CSV per operation, and errors from the pinv checks."""
    import checks
    from ohmlab.graphs import gadget_subdivide, graph_union, random_regular

    mode = "smoke" if smoke else "full"
    size = wl.SIZES[smoke]
    g = wl.generator_seed(seed)
    errors = []
    if workload == "certify-grid":
        want = {}
        n_list = [int(t) for t in size["grid_n"].split(",")]
        d_list = [int(t) for t in size["grid_d"].split(",")]
        for name, _ in wl.operations(workload, seed, smoke, workdir):
            experiment, s = name.rsplit("-seed", 1)
            table = ref[mode][experiment]
            want[name] = {"comments": [], "header": table["header"],
                          "rows": [table["rows"][f"{n},{d},{s}"]
                                   for n in n_list for d in d_list]}
        # rho on the smallest graph against a dense pinv
        rho = checks.dense_rho(random_regular(n_list[0], d_list[0], g))
        up, loc = want[f"upperbound-seed{g}"], want[f"localization-seed{g}"]
        for table, column, value in ((up, "rho_inf", rho["inf"]),
                                     (loc, "rho_inf", rho["inf"]),
                                     (loc, "localization", rho["localization"])):
            recorded = float(table["rows"][0][table["header"].index(column)])
            if not checks.close(recorded, value):
                errors.append(f"pinv {column}: recorded {recorded}, dense {value}")
        return want, errors

    want = dict(ref[mode][str(wl.variant(seed))])
    if workload == "ratio-sweep":
        base = random_regular(10, 3, g)
        rho = checks.dense_rho(graph_union(base, gadget_subdivide(base, 1)))
        row = want["lowerbound-k1"]["rows"][0]
        header = want["lowerbound-k1"]["header"]
        for column, key in (("rho_inf", "inf"), ("rho_p_2", "2")):
            recorded = float(row[header.index(column)])
            if not checks.close(recorded, rho[key]):
                errors.append(f"pinv {column} (k=1): recorded {recorded}, dense {rho[key]}")
    else:
        from ohmlab.graphs import read_graph
        from ohmlab.sparsify import read_partition

        run_child([str(HERE / "checks.py"), "sparsify", str(workdir)])
        with open(workdir / "dense_sparsify.json") as fh:
            rows = json.load(fh)
        eliminated = read_partition(workdir / "sparsify.part",
                                    read_graph(workdir / "sparsify.graph").n).eliminated
        table = want["sparsify"]
        for row in table["rows"]:
            if row[0] == "l1-assignment-bits":
                rows += [["l1-assignment", str(int(v)), "", bit]
                         for v, bit in zip(eliminated, row[1])]
            else:
                rows.append(row)
        want["sparsify"] = dict(table, rows=rows)
    return want, errors


# -- passes ------------------------------------------------------------------

def run_operation(argv: list, out: Path):
    """One CLI invocation as a user makes it; returns the exit code or the
    exception text."""
    import ohmlab.cli

    try:
        ohmlab.cli.main(["--no-timestamp", "--out", str(out), *argv])
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # an operation that raises counts as failed
        return f"{type(exc).__name__}: {exc}"
    return 0


def run_pass(ops: list, workdir: Path, cal: Calibration, tracer=None) -> dict:
    """Run every operation once, with the calibration kernel between them.

    Timing covers the CLI calls only. Each operation's raw wall and CPU
    time is also scaled to reference speed by the kernel times measured
    just before and just after it (calibrate.py)."""
    result = {"op_wall_s": [], "op_cpu_s": [], "op_wall_ref_s": [], "op_cpu_ref_s": [],
              "cal_wall_s": [], "outcomes": []}
    if tracer is not None:
        tracer.reset()
    start = time.perf_counter()
    before = cal.measure()
    result["cal_wall_s"].append(before[0])
    for op_id, (name, argv) in enumerate(ops):
        out = workdir / f"{name}.csv"
        wall0, cpu0 = time.perf_counter(), time.process_time()
        if tracer is None:
            result["outcomes"].append(run_operation(argv, out))
        else:
            result["outcomes"].append(tracer.operation(op_id, run_operation, argv, out))
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        after = cal.measure()
        result["cal_wall_s"].append(after[0])
        result["op_wall_s"].append(wall)
        result["op_cpu_s"].append(cpu)
        result["op_wall_ref_s"].append(wall * 2 * REFERENCE_S / (before[0] + after[0]))
        result["op_cpu_ref_s"].append(cpu * 2 * REFERENCE_S / (before[1] + after[1]))
        before = after
    result["elapsed_s"] = time.perf_counter() - start
    if tracer is not None:
        result["layers"] = tracer.pass_metrics()
    return result


def per_op_median(passes: list, key: str) -> float:
    """Sum over operations of each operation's median over the passes.

    Every pass does the same work, so the per-operation median also drops
    an operation that a burst of host load slowed in one pass."""
    return sum(statistics.median(times) for times in zip(*(p[key] for p in passes)))


def check_pass(result: dict, ops: list, workdir: Path, want: dict) -> list:
    """Failure message per failed operation (None for a correct one)."""
    import checks

    failures = []
    for (name, _), outcome in zip(ops, result["outcomes"]):
        if outcome != 0:
            failures.append(f"{name}: exit {outcome}")
            continue
        got = checks.parse_csv((workdir / f"{name}.csv").read_text())
        errors = checks.compare(got, want[name])
        failures.append(f"{name}: {'; '.join(errors)}" if errors else None)
    return failures


# -- environment -------------------------------------------------------------

def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "ohmlab").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _caches() -> dict:
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            out[f"L{level}"] = size
    return out


def _blas_threads() -> dict:
    """Thread count reported by each loaded OpenBLAS library."""
    import ctypes

    libs = set()
    try:
        for line in Path("/proc/self/maps").read_text().splitlines():
            if "openblas" in line.lower():
                libs.add(line.split()[-1])
    except OSError:
        return {}
    out = {}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[Path(lib).name] = fn()
                break
    return out


def environment(seed: int) -> dict:
    from importlib.metadata import version

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_commit": _git_commit(),
        "source_sha256_16": _source_digest(),
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "click": version("click"),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": BLAS_THREADS,
        "blas_threads": _blas_threads(),
    }


# -- main --------------------------------------------------------------------

def measure(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """Set up, warm up, run passes for `seconds`; return the result record."""
    workdir = WORK / f"{workload}-{seed}{'-smoke' if smoke else ''}"
    setups = run_setups(workload, seed, smoke, workdir)

    sys.path.insert(0, str(SRC))
    import ohmlab.cli
    from tracing import DETERMINISTIC, Tracer, metric_names

    if not Path(ohmlab.cli.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"imported ohmlab from {ohmlab.cli.__file__}")
    ref = load_reference(workload)
    want, problems = expected_outputs(workload, seed, smoke, workdir, ref)
    ops = wl.operations(workload, seed, smoke, workdir)

    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    try:
        # the untimed warm-up pass counts toward the --seconds window
        start = time.perf_counter()
        cal = Calibration()
        warm = run_pass(ops, workdir, cal, tracer)
        warm_failures = check_pass(warm, ops, workdir, want)
        passes = []
        # no pass starts that would end after the window, once MIN_PASSES ran
        while (len(passes) < MIN_PASSES or time.perf_counter() - start
               + statistics.median(p["elapsed_s"] for p in [warm, *passes]) <= seconds):
            result = run_pass(ops, workdir, cal, tracer)
            result["failures"] = check_pass(result, ops, workdir, want)
            passes.append(result)
    finally:
        if tracer is not None:
            tracer.uninstall()

    probe_ok = setups[0]["probe_ok"]
    probes = 1 if wl.has_probe(workload) else 0
    probe_failed = 1 if probe_ok is False else 0
    failures = [f for p in [{"failures": warm_failures}, *passes] for f in p["failures"] if f]
    problems += failures

    info = {"workload": workload, "passes": len(passes),
            "pass_wall_s": [sum(p["op_wall_s"]) for p in passes],
            "pass_wall_ref_s": [sum(p["op_wall_ref_s"]) for p in passes],
            "raw_wall_s": per_op_median(passes, "op_wall_s"),
            "raw_cpu_s": per_op_median(passes, "op_cpu_s"),
            "setup_s": [s["setup_s"] for s in setups],
            "setup_ref_s": [s["setup_ref_s"] for s in setups],
            "import_s": [s["import_s"] for s in setups],
            "generator_probe": None if probe_ok is None else ("ok" if probe_ok else "failed")}

    if trace:
        layers = [p["layers"] for p in passes]
        metrics = {}
        for name in metric_names():
            if name == "traced.wall_s":
                metrics[name] = {"value": per_op_median(passes, "op_wall_ref_s"), "unit": "s"}
                continue
            if name not in layers[0]:
                continue
            values = [layer[name] for layer in layers]
            if isinstance(values[0], int):  # counts, equal in every pass
                metrics[name] = {"value": values[0], "unit": "count"}
            else:
                unit = "ratio" if name.endswith(("max_rel_residual", "solves_per_pair")) else "s"
                metrics[name] = {"value": statistics.median(values), "unit": unit}
        unstable = [name for name in DETERMINISTIC if name in layers[0]
                    and len({layer[name] for layer in layers + [warm["layers"]]}) > 1]
        if unstable:
            problems.append(f"counts differ between passes: {unstable}")
        recorded = ref.get("counts", {}).get("smoke" if smoke else "full", {}).get(
            str(wl.variant(seed)))
        if recorded is not None:
            info["counts_drift"] = {k: [v, layers[0].get(k)] for k, v in recorded.items()
                                    if layers[0].get(k) != v}
        info["missing_layers"] = tracer.missing
        spans = tracer.spans
    else:
        error_rates = [
            (probe_failed + sum(1 for f in p["failures"] if f) + 1) / (probes + len(ops) + 2)
            for p in passes
        ]
        metrics = {
            "wall_s": {"value": per_op_median(passes, "op_wall_ref_s"), "unit": "s"},
            "cpu_s": {"value": per_op_median(passes, "op_cpu_ref_s"), "unit": "s"},
            "setup_s": {"value": statistics.median(info["setup_ref_s"]), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
            "error_rate": {"value": statistics.median(error_rates), "unit": "ratio"},
        }
        spans = []

    attempted = len(ops) * (len(passes) + 1)
    record = {"correct": not problems, "attempted": attempted,
              "failed": len(failures), "metrics": metrics}
    info["problems"] = problems[:10]
    out = {"record": record, "info": info, "env": environment(seed)}
    timings = [{k: p[k] for k in ("op_wall_s", "op_cpu_s", "cal_wall_s")} for p in passes]
    with open(workdir / f"result-trace{int(trace)}.json", "w") as fh:
        json.dump(dict(out, passes=timings), fh, indent=1)
    if spans:
        with open(workdir / "spans.jsonl", "w") as fh:
            for span in spans:
                fh.write(json.dumps(span) + "\n")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs")
    args = parser.parse_args(argv)

    if not (SRC / "ohmlab" / "__init__.py").is_file():
        print(f"error: no ohmlab source under {SRC}", file=sys.stderr)
        return 2
    try:
        out = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for problem in out["info"]["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    print("env " + json.dumps(out["env"]))
    print("info " + json.dumps(out["info"]))
    print(json.dumps(out["record"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
