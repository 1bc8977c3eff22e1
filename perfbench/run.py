"""Benchmark of the dipolepair phase-diagram tools.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from `src/`.
Workloads (each a closed loop with one client, commands or calls back to
back, at most two processes at a time):

  phase_map      `scan --workers 2` then `dominant` on a 201x201 grid, each
                 a CLI subprocess writing --out FILE
  contours       `boundary` for chsh, negativity and fidelity on an 81x81
                 grid, each a CLI subprocess
  point_queries  20,000 `evaluate_point(CouplingParams(u, v))` calls in one
                 fresh process, each timed on its own

The seed jitters the grid bounds by up to +-0.5 around [-10, 10]^2 and draws
the query points: 95% in [-10, 10]^2, 5% anywhere in the +-2000 envelope.
Passes repeat until --seconds have gone.  Every output is checked against
the oracle in oracle.py; a failed check fails its operation.

--trace 0 prints the end-to-end metrics, medians over passes.  Times are in
`cal`, multiples of a reference loop (reference.py) timed next to each
operation, because this kind of shared machine drifts in speed by up to 2x
over minutes; the same figures in seconds go to the record.  --trace 1
repeats the workload in-process through `cli.run_cli` with serial scans,
wraps the package's functions (spans.py) and prints per-layer metrics.  The
last line of stdout is one JSON object; a fuller record, with machine info,
output SHA-256s and sample counts, goes to .bench_out/.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import oracle

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
ENV = {**os.environ, "PYTHONPATH": str(SRC)}

WORKLOADS = ("phase_map", "contours", "point_queries")
PHASE_N = 201
CONTOUR_N = 81
QUANTITIES = ("chsh", "negativity", "fidelity")
QUERIES = 20_000
FAR_QUERIES = 1_000
ENVELOPE = 2000.0
SETUP_REPEATS = 9
ORACLE_SAMPLE = 2_000
ROOT_TOL = 1e-9  # the CLI's default --tol, which the workload uses
VALUE_TOL = 1e-9  # program vs oracle, on values of order 1
COINCIDE_TOL = 2e-9
CHILD_TIMEOUT_S = 150

SCAN_HEADER = "u,v,chsh,negativity,fidelity,dominant_weight,dominant_label,region"
DOMINANT_HEADER = "u,v,dominant_label,dominant_weight"
BOUNDARY_HEADER = "contour_id,u,v"
MODULES = ("cli", "scan", "dipolar", "measures", "teleport", "linalg")

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import dipolepair.cli; "
    "print(time.perf_counter() - t)"
)


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


# -- inputs ---------------------------------------------------------------

def make_inputs(workload: str, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    n = PHASE_N if workload == "phase_map" else CONTOUR_N
    axes = [(-10.0 + rng.uniform(-0.5, 0.5), 10.0 + rng.uniform(-0.5, 0.5), n)
            for _ in "uv"]
    near = rng.uniform(-10.0, 10.0, size=(QUERIES - FAR_QUERIES, 2))
    far = rng.uniform(-ENVELOPE, ENVELOPE, size=(FAR_QUERIES, 2))
    points = np.concatenate([near, far])[rng.permutation(QUERIES)]
    return {"u": axes[0], "v": axes[1], "points": points,
            "sample_seed": int(rng.integers(2 ** 32))}


def axis_arg(axis) -> str:
    lo, hi, n = axis
    return f"{lo!r}:{hi!r}:{n}"


def coords(axis) -> list[float]:
    """Grid coordinates by the documented rule min + i * (max - min) / (n - 1)."""
    lo, hi, n = axis
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n)]


def commands(workload: str, inp: dict, out: Path, workers: int) -> list[tuple[str, list[str]]]:
    """(output name, CLI argv) for each command of one pass."""
    grid = ["--u", axis_arg(inp["u"]), "--v", axis_arg(inp["v"])]
    if workload == "phase_map":
        return [
            ("scan", ["scan", *grid, "--workers", str(workers), "--out", str(out / "scan.csv")]),
            ("dominant", ["dominant", *grid, "--out", str(out / "dominant.csv")]),
        ]
    if workload == "contours":
        return [(q, ["boundary", "--quantity", q, *grid, "--out", str(out / f"{q}.csv")])
                for q in QUANTITIES]
    return []


# -- processes ------------------------------------------------------------

def run_child(argv: list[str]) -> tuple[float, int]:
    """Run one child to completion: (wall s, exit code).  wait4 blocks until
    the exit, where Popen.wait with a timeout would poll."""
    with open(OUT / "children.stderr", "ab") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=err,
                                cwd=ROOT, env=ENV)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, _ = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode


def run_cli_child(args: list[str]) -> tuple[float, int, float, float]:
    """Run `dipolepair ARGS` as a subprocess through launch.py: (wall s of the
    process less its reference-loop timings, exit code, its peak RSS in MB,
    the reference loop's mean seconds in it); nan where it wrote no record."""
    cal_file = OUT / "cal.txt"
    cal_file.unlink(missing_ok=True)
    wall, code = run_child([sys.executable, str(HERE / "launch.py"), str(cal_file), *args])
    try:
        before, after, spent, rss = map(float, cal_file.read_text().split())
    except (OSError, ValueError):
        return wall, code, float("nan"), float("nan")
    return wall - spent, code, rss, (before + after) / 2.0


def probe(code: str) -> str:
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          cwd=ROOT, env=ENV, timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise BenchError(f"cannot import dipolepair from {SRC}: {done.stderr.strip()}")
    return done.stdout.strip()


def check_install() -> None:
    if not (SRC / "dipolepair" / "cli.py").is_file():
        raise BenchError(f"no dipolepair sources under {SRC}")
    where = Path(probe("import dipolepair; print(dipolepair.__file__)")).resolve()
    if SRC not in where.parents:
        raise BenchError(f"dipolepair imported from {where}, not from {SRC}")


def measure_setup() -> list[float]:
    """Wall seconds of fresh interpreters importing dipolepair.cli."""
    walls = []
    for _ in range(SETUP_REPEATS):
        wall, code = run_child([sys.executable, "-c", "import dipolepair.cli"])
        if code != 0:
            raise BenchError("importing dipolepair.cli failed")
        walls.append(wall)
    return walls


# -- output checks --------------------------------------------------------

def _rows(text: str, header: str) -> tuple[list[list[str]], list[str]]:
    lines = text.split("\n")
    if not text.endswith("\n") or not lines or lines[0] != header:
        return [], [f"expected header {header!r} and a final newline"]
    return [line.split(",") for line in lines[1:-1]], []


def _compare_oracle(u, v, got: dict, label, region) -> list[str]:
    """Program values against the oracle at the same couplings."""
    want = oracle.evaluate(u, v)
    problems = []
    for key, values in got.items():
        worst = float(np.max(np.abs(values - want[key]), initial=0.0))
        if not worst <= VALUE_TOL:
            problems.append(f"{key} differs from the oracle by {worst:.3e}")
    decided = want["label_margin"] > VALUE_TOL
    if np.any(label[decided] != want["dominant"][decided]):
        problems.append("dominant label differs from the oracle")
    clear = ((np.abs(want["dominant_weight"] - 0.5) > VALUE_TOL)
             & (np.abs(want["chsh"] - 2.0) > VALUE_TOL))
    if np.any(region[clear] != want["region"][clear]):
        problems.append("region differs from the oracle")
    return problems


def _consistency(chsh, neg, fid, weight, region) -> list[str]:
    """Relations every reported row must satisfy by the documented definitions."""
    problems = []
    derived = np.where(neg < oracle.SEPARABLE_NEGATIVITY_TOL, 0,
                       np.where(chsh > 2.0 + oracle.NONLOCAL_CHSH_TOL, 2, 1))
    if np.any(derived != region):
        problems.append(f"{int(np.sum(derived != region))} rows with a region "
                        "inconsistent with their chsh and negativity")
    if not np.all(np.abs(fid - (1.0 + 2.0 * weight) / 3.0) <= 1e-12):
        problems.append("fidelity is not (1 + 2 w_max) / 3")
    if not np.all(np.abs(neg - np.maximum(0.0, weight - 0.5)) <= 1e-12):
        problems.append("negativity is not max(0, w_max - 1/2)")
    return problems


def check_scan(text: str, inp: dict) -> list[str]:
    rows, problems = _rows(text, SCAN_HEADER)
    us, vs = coords(inp["u"]), coords(inp["v"])
    if problems or len(rows) != len(us) * len(vs):
        return problems + [f"scan has {len(rows)} rows, expected {len(us) * len(vs)}"]
    if any(len(r) != 8 for r in rows):
        return ["scan rows must have 8 fields"]
    expected = [(repr(u), repr(v)) for v in vs for u in us]
    if [(r[0], r[1]) for r in rows] != expected:
        return ["scan coordinates differ from the requested grid"]
    try:
        values = np.array([[float(x) for x in r[:6]] for r in rows])
        label = np.array([oracle.BELL_LABELS.index(r[6]) for r in rows])
        region = np.array([oracle.REGIONS.index(r[7]) for r in rows])
    except ValueError as exc:
        return [f"unparseable scan row: {exc}"]
    u, v, chsh, neg, fid, weight = values.T
    problems += _consistency(chsh, neg, fid, weight, region)
    pick = np.random.default_rng(inp["sample_seed"]).choice(len(rows), ORACLE_SAMPLE,
                                                            replace=False)
    got = {"chsh": chsh[pick], "negativity": neg[pick], "fidelity": fid[pick],
           "dominant_weight": weight[pick]}
    return problems + _compare_oracle(u[pick], v[pick], got, label[pick], region[pick])


def check_dominant(text: str, scan_text: str) -> list[str]:
    rows, problems = _rows(text, DOMINANT_HEADER)
    scan_rows, _ = _rows(scan_text, SCAN_HEADER)
    expected = [[r[0], r[1], r[6], r[5]] for r in scan_rows]
    if problems or rows != expected:
        return problems + ["dominant map differs from the scan's dominant columns"]
    return []


def parse_boundary(text: str) -> tuple[np.ndarray, list[str]]:
    rows, problems = _rows(text, BOUNDARY_HEADER)
    try:
        points = np.array([[float(r[1]), float(r[2])] for r in rows]).reshape(-1, 2)
        ids = [int(r[0]) for r in rows]
    except (ValueError, IndexError) as exc:
        return np.zeros((0, 2)), problems + [f"unparseable boundary row: {exc}"]
    if any(b - a not in (0, 1) for a, b in zip([0] + ids, ids)):
        problems.append("contour ids must count up from 0")
    return points, problems


def check_boundary(quantity: str, text: str, inp: dict) -> tuple[list[str], int]:
    points, problems = parse_boundary(text)
    if problems:
        return problems, len(points)
    if len(points) == 0:
        return [f"{quantity} contour is empty; the grid should show it"], 0
    u, v = points.T
    us, vs = np.array(coords(inp["u"])), np.array(coords(inp["v"]))
    on_u_line = np.isin(u, us) & (v >= vs[0]) & (v <= vs[-1])
    on_v_line = np.isin(v, vs) & (u >= us[0]) & (u <= us[-1])
    if not np.all(on_u_line | on_v_line):
        problems.append(f"{int(np.sum(~(on_u_line | on_v_line)))} {quantity} roots off the grid edges")
    residual = np.abs(oracle.boundary_field(quantity, u, v))
    if not np.all(residual < ROOT_TOL):
        problems.append(f"{quantity} root residual {float(residual.max()):.3e} "
                        f"is not below {ROOT_TOL:.0e}")
    return problems, len(points)


def check_coincide(neg_text: str, fid_text: str) -> list[str]:
    """The fidelity = 2/3 and negativity-onset contours are one curve."""
    a = np.array(sorted(map(tuple, parse_boundary(neg_text)[0])))
    b = np.array(sorted(map(tuple, parse_boundary(fid_text)[0])))
    if a.shape != b.shape or (len(a) and np.max(np.hypot(*(a - b).T)) >= COINCIDE_TOL):
        return ["negativity and fidelity contours do not coincide"]
    return []


def check_queries(points: np.ndarray, result: dict) -> np.ndarray:
    """Per-call failure flags for point_queries results."""
    values, label, region = result["values"], result["label"], result["region"]
    bad = (label < 0) | (region < 0) | ~np.all(np.isfinite(values), axis=1)
    chsh, neg, fid, weight = values.T
    ok = ~bad
    if _consistency(chsh[ok], neg[ok], fid[ok], weight[ok], region[ok]):
        bad |= ok  # a broken relation is charged to every call it may involve
    got = {"chsh": chsh, "negativity": neg, "fidelity": fid, "dominant_weight": weight}
    want = oracle.evaluate(points[:, 0], points[:, 1])
    for key, vals in got.items():
        bad |= ~(np.abs(vals - want[key]) <= VALUE_TOL)
    bad |= (want["label_margin"] > VALUE_TOL) & (label != want["dominant"])
    clear = ((np.abs(want["dominant_weight"] - 0.5) > VALUE_TOL)
             & (np.abs(want["chsh"] - 2.0) > VALUE_TOL))
    bad |= clear & (region != want["region"])
    return bad


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Checker:
    """Checks the outputs of a pass; a pass whose outputs are byte-identical
    to an earlier one reuses its verdicts."""

    def __init__(self, workload: str, inp: dict):
        self.workload, self.inp = workload, inp
        self.verdicts: dict[tuple, dict[str, list[str]]] = {}
        self.hashes: dict[str, set[str]] = {}
        self.items: dict[str, int] = {}

    def outputs(self, out: Path, codes: dict[str, int]) -> dict[str, list[str]]:
        """Problems per command of one pass, given its exit codes."""
        texts = {}
        for name in codes:
            path = out / f"{name}.csv"
            texts[name] = path.read_text(encoding="utf-8") if path.is_file() else ""
            path.unlink(missing_ok=True)
        digests = {name: sha256(text.encode()) for name, text in texts.items()}
        for name, digest in digests.items():
            self.hashes.setdefault(name, set()).add(digest)
        key = tuple(sorted(digests.items()))
        if key not in self.verdicts:
            self.verdicts[key] = {name: self._check(name, texts) for name in texts}
        return {name: ([f"exited with {code}"] if code else []) + self.verdicts[key][name]
                for name, code in codes.items()}

    def _check(self, name: str, texts: dict[str, str]) -> list[str]:
        if self.workload == "phase_map":
            self.items[name] = texts[name].count("\n") - 1
            if name == "scan":
                return check_scan(texts[name], self.inp)
            return check_dominant(texts[name], texts.get("scan", ""))
        problems, self.items[name] = check_boundary(name, texts[name], self.inp)
        if name == "fidelity" and "negativity" in texts:
            problems += check_coincide(texts["negativity"], texts[name])
        return problems


# -- end-to-end passes ----------------------------------------------------
#
# Every operation's time is also reported in `cal`, the duration of the
# reference loop (reference.py) timed right before and right after it in
# the same process: launch.py for CLI commands, queries.py for calls.

def cli_pass(workload: str, inp: dict, checker: Checker) -> tuple[dict, list[str]]:
    walls, codes, rss, cals = {}, {}, [], []
    for name, args in commands(workload, inp, OUT, workers=2):
        walls[name], codes[name], peak, cal = run_cli_child(args)
        rss.append(peak)
        cals.append(cal)
    problems = checker.outputs(OUT, codes)
    op_s = list(walls.values())
    op_cal = [w / c for w, c in zip(op_s, cals)]
    wall = sum(op_s) if np.all(np.isfinite(cals)) else float("nan")
    return ({"wall_s": wall, "wall_cal": sum(op_cal), "op_s": op_s, "op_cal": op_cal,
             "items": sum(checker.items.get(name, 0) for name in walls),
             "peak_rss_mb": max(rss), "ops": len(walls),
             "failed": sum(1 for ps in problems.values() if ps)},
            [f"{name}: {p}" for name, ps in problems.items() for p in ps])


def queries_pass(inp: dict, verdicts: dict) -> tuple[dict, list[str]]:
    points_file, result_file = OUT / "points.npy", OUT / "queries.npz"
    np.save(points_file, inp["points"])
    result_file.unlink(missing_ok=True)
    _, code = run_child([sys.executable, str(HERE / "queries.py"),
                         str(points_file), str(result_file)])
    if code != 0 or not result_file.is_file():
        return ({"wall_s": float("nan"), "ops": QUERIES, "failed": QUERIES},
                [f"queries worker exited with {code}"])
    with np.load(result_file) as data:
        result = {k: data[k] for k in data.files}
    result_file.unlink()
    digest = sha256(b"".join(result[k].tobytes() for k in ("values", "label", "region")))
    if digest not in verdicts:
        verdicts[digest] = int(np.sum(check_queries(inp["points"], result)))
    failed = verdicts[digest]
    block = np.arange(QUERIES) // int(result["block"])
    op_s = result["ns"] / 1e9
    return ({"wall_s": float(result["block_s"].sum()),
             "wall_cal": float(np.sum(result["block_s"] / result["cal_s"])),
             "op_s": op_s, "op_cal": op_s / result["cal_s"][block], "items": QUERIES,
             "peak_rss_mb": float(result["peak_rss_mb"]), "ops": QUERIES, "failed": failed,
             "sha256": digest},
            [f"{failed} point queries disagree with the oracle"] if failed else [])


def end_to_end(workload: str, inp: dict, seconds: int, record: dict) -> dict:
    checker = Checker(workload, inp)
    verdicts: dict[str, int] = {}
    passes, problems = [], []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() + passes[-1]["wall_s"] < deadline:
        if workload == "point_queries":
            p, failed = queries_pass(inp, verdicts)
        else:
            p, failed = cli_pass(workload, inp, checker)
        passes.append(p)
        problems += failed
        if not np.isfinite(p["wall_s"]):
            break
    good = [p for p in passes if np.isfinite(p["wall_s"])]
    if not good:
        raise BenchError("no pass completed: " + "; ".join(problems[:3]))

    wall_s, items_s, p50_s, p95_s, p99_s = summarise(good, "wall_s", "op_s")
    wall_c, items_c, p50_c, p95_c, _ = summarise(good, "wall_cal", "op_cal")
    record.update(
        passes=[{k: v for k, v in p.items() if k not in ("op_s", "op_cal")} for p in passes],
        op_samples_per_pass=[len(p["op_s"]) for p in good],
        output_sha256=({"records": sorted({p["sha256"] for p in good})}
                       if workload == "point_queries" else
                       {k: sorted(v) for k, v in checker.hashes.items()}),
        problems=problems[:20],
        seconds_metrics={"wall_s": wall_s, "items_per_s": items_s, "op_p50_ms": p50_s * 1e3,
                         "op_p95_ms": p95_s * 1e3, "op_p99_ms": p99_s * 1e3},
    )
    return {
        "attempted": sum(p["ops"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": {
            "wall_cal": (wall_c, "cal"),
            "items_per_cal": (items_c, "1/cal"),
            "op_p50_cal": (p50_c, "cal"),
            "op_p95_cal": (p95_c, "cal"),
            "peak_rss_mb": (float(statistics.median(p["peak_rss_mb"] for p in good)), "MB"),
        },
    }


def summarise(passes: list[dict], wall: str, ops: str) -> tuple[float, ...]:
    """Medians over passes of the pass time, of items per unit of it, and of
    each pass's p50, p95 and p99 operation times.  The tail metric is p95:
    over 20,000 calls p99 moved by 30% from pass to pass on a shared
    2-vCPU VM, p95 by 3%."""
    return (float(statistics.median(p[wall] for p in passes)),
            float(statistics.median(p["items"] / p[wall] for p in passes)),
            *(float(statistics.median(np.percentile(p[ops], q) for p in passes))
              for q in (50, 95, 99)))


# -- traced run -----------------------------------------------------------

def sloc(module: str) -> int:
    """Non-blank, non-comment source lines of src/dipolepair/<module>.py."""
    path = SRC / "dipolepair" / f"{module}.py"
    if not path.is_file():
        return 0
    return sum(1 for line in path.read_text().splitlines()
               if line.strip() and not line.lstrip().startswith("#"))


def timed_cli(cli, args: list[str]) -> tuple[float, int]:
    start = time.perf_counter()
    code = cli.run_cli(args)
    return time.perf_counter() - start, code


def traced_pass(workload: str, inp: dict, checker: Checker) -> tuple[dict, list[str], object]:
    import dipolepair.cli as cli
    import queries
    from spans import Tracer

    problems: list[str] = []
    ops = 0
    timing: dict[str, float] = {}
    if workload == "point_queries":
        points = inp["points"]
        plain = queries.run(points)
        with Tracer(full=True) as tracer:
            traced = queries.run(points)
        failed = sum(int(np.sum(check_queries(points, queries.to_arrays(r["records"]))))
                     for r in (plain, traced))
        ops = 2 * QUERIES
        problems += [f"{failed} point queries disagree with the oracle"] if failed else []
        timing["trace.overhead_s"] = traced["block_s"].sum() - plain["block_s"].sum()
        timing["cli.output_bytes"] = 0
        return {"timing": timing, "ops": ops, "failed": failed}, problems, tracer

    e2e = commands(workload, inp, OUT, workers=2)
    serial = commands(workload, inp, OUT, workers=1)
    failed_ops: set[str] = set()

    def finish(tag: str, codes: dict[str, int]) -> None:
        for name, ps in checker.outputs(OUT, codes).items():
            if ps:
                failed_ops.add(f"{tag}:{name}")
                problems.extend(f"{tag} {name}: {p}" for p in ps)

    # untraced in-process runs, of the pass's own argv and of any serial
    # argv that differs from it; the coarse tracer times only whole stages
    walls, stage = {}, {}
    for tag, argv_set in (("e2e", e2e), ("serial", [c for c in serial if c not in e2e])):
        codes = {}
        with Tracer(full=False) as coarse:
            for name, args in argv_set:
                walls[tag, name], codes[name] = timed_cli(cli, args)
        stage[tag] = coarse.summary()
        ops += len(codes)
        finish(f"untraced-{tag}", codes)
    inproc = {name: walls["e2e", name] for name, _ in e2e}
    untraced = {name: walls.get(("serial", name), inproc[name]) for name, _ in serial}
    codes = {}
    output_bytes = 0
    with Tracer(full=True) as tracer:
        traced = 0.0
        for name, args in serial:
            wall, codes[name] = timed_cli(cli, args)
            traced += wall
            output_bytes += (OUT / f"{name}.csv").stat().st_size if codes[name] == 0 else 0
    ops += len(codes)
    finish("traced", codes)
    codes, overhead = {}, 0.0
    for name, args in e2e:
        wall, codes[name], _, _ = run_cli_child(args)
        overhead += wall - inproc[name]
    ops += len(codes)
    finish("subprocess", codes)

    grid = stage["e2e"].get("scan.scan_grid", {}).get("s", 0.0)
    serial_grid = stage["serial"].get("scan.scan_grid", {}).get("s", 0.0)
    timing.update({
        "trace.overhead_s": traced - sum(untraced.values()),
        "cli.process_overhead_s": overhead,
        "cli.output_bytes": output_bytes,
        "scan.scan_grid.serial_s": serial_grid,
        "scan.scan_grid.pool_s": grid,
        "scan.pool_speedup": serial_grid / grid if grid else 0.0,
    })
    return {"timing": timing, "ops": ops, "failed": len(failed_ops)}, problems, tracer


def layer_metrics(summary: dict, counts, timing: dict, field_evals_bisect: int) -> dict:
    def get(name: str, key: str) -> float:
        return summary.get(name, {}).get(key, 0)

    spectrum_calls = get("dipolar.spectrum", "calls")
    roots = get("scan.bisect_root", "calls")
    return {
        "cli.process_overhead_s": (timing.get("cli.process_overhead_s", 0.0), "s"),
        "cli.run_cli.self_s": (get("cli.run_cli", "self_s"), "s"),
        "cli.output_bytes": (timing["cli.output_bytes"], "bytes"),
        "dipolar.spectrum.calls": (spectrum_calls, "count"),
        "dipolar.spectrum.self_s": (get("dipolar.spectrum", "self_s"), "s"),
        "dipolar.spectrum.us_per_call": (
            get("dipolar.spectrum", "s") / spectrum_calls * 1e6 if spectrum_calls else 0.0, "us"),
        "dipolar.correlations.self_s": (get("dipolar.correlations", "self_s"), "s"),
        "measures.chsh.calls": (get("measures.chsh", "calls"), "count"),
        "measures.chsh.self_s": (get("measures.chsh", "self_s"), "s"),
        "measures.negativity.self_s": (get("measures.negativity", "self_s"), "s"),
        "teleport.best_fidelity.calls": (get("teleport.best_fidelity", "calls"), "count"),
        "teleport.best_fidelity.self_s": (get("teleport.best_fidelity", "self_s"), "s"),
        "scan.evaluate_point.calls": (get("scan.evaluate_point", "calls"), "count"),
        "scan.evaluate_point.self_s": (get("scan.evaluate_point", "self_s"), "s"),
        "scan.scan_grid.serial_s": (timing.get("scan.scan_grid.serial_s", 0.0), "s"),
        "scan.scan_grid.pool_s": (timing.get("scan.scan_grid.pool_s", 0.0), "s"),
        "scan.pool_speedup": (timing.get("scan.pool_speedup", 0.0), "x"),
        "scan.dominant_map.s": (get("scan.dominant_map", "s"), "s"),
        "scan.trace_boundary.s": (get("scan.trace_boundary", "s"), "s"),
        "scan.trace_boundary.self_s": (get("scan.trace_boundary", "self_s"), "s"),
        "scan.bisect_root.calls": (roots, "count"),
        "scan.bisect_root.s": (get("scan.bisect_root", "s"), "s"),
        "scan.field_evals": (get("scan.field", "calls"), "count"),
        "scan.field_evals_per_root": (field_evals_bisect / roots if roots else 0.0, "ratio"),
        "scan.format.s": (get("scan.format", "s"), "s"),
        "scan.format.bytes": (counts["scan.format.bytes"], "bytes"),
        "linalg.production_calls": (counts["linalg.production_calls"], "count"),
        "trace.overhead_s": (timing["trace.overhead_s"], "s"),
    }


def self_time_groups(summary: dict) -> dict[str, float]:
    """Self time by stage: everything under bisect_root is bisection; the
    physics calls and scan.evaluate_point elsewhere are per-point evaluation."""
    groups = {"bisection": 0.0, "per_point_evaluation": 0.0, "cli": 0.0,
              "format": 0.0, "scan_other": 0.0}
    for name, s in summary.items():
        groups["bisection"] += s["under_bisect_s"]
        rest = s["self_s"] - s["under_bisect_s"]
        if name.split(".")[0] in ("dipolar", "measures", "teleport") or name in (
                "scan.evaluate_point", "scan.field"):
            groups["per_point_evaluation"] += rest
        elif name == "cli.run_cli":
            groups["cli"] += rest
        elif name == "scan.format":
            groups["format"] += rest
        else:
            groups["scan_other"] += rest
    return groups


def traced(workload: str, inp: dict, seconds: int, record: dict) -> dict:
    sys.path.insert(0, str(SRC))
    import_walls = [float(probe(IMPORT_PROBE)) for _ in range(5)]
    checker = Checker(workload, inp)
    runs, problems = [], []
    start = time.perf_counter()
    deadline = start + seconds
    while not runs or time.perf_counter() + (time.perf_counter() - start) / len(runs) < deadline:
        result, failed, tracer = traced_pass(workload, inp, checker)
        summary = tracer.summary()
        metrics = layer_metrics(summary, tracer.counts, result["timing"],
                                tracer.bisection_field_evals())
        runs.append((result, metrics, self_time_groups(summary)))
        problems += failed
    tracer.write(OUT / f"trace-{workload}.npz")
    metrics = {name: (statistics.median(m[name][0] for _, m, _ in runs), unit)
               for name, (_, unit) in runs[-1][1].items()}
    for name, (value, unit) in metrics.items():
        if unit in ("count", "bytes"):  # equal in every pass
            metrics[name] = (int(value), unit)
    metrics["cli.import_s"] = (statistics.median(import_walls), "s")
    for module in MODULES:
        metrics[f"{module}.sloc"] = (sloc(module), "lines")
    groups = {k: statistics.median(g[k] for _, _, g in runs) for k in runs[-1][2]}
    record.update(self_time_groups=groups, largest_self_time=max(groups, key=groups.get),
                  traced_passes=len(runs), problems=problems[:20],
                  output_sha256={k: sorted(v) for k, v in checker.hashes.items()},
                  trace_file=str((OUT / f"trace-{workload}.npz").relative_to(ROOT)))
    return {"attempted": sum(r["ops"] for r, _, _ in runs),
            "failed": sum(r["failed"] for r, _, _ in runs), "metrics": metrics}


# -- main -----------------------------------------------------------------

def machine_info() -> dict:
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "platform": platform.platform()}


def golden_drift(workload: str, seed: int, hashes: dict) -> list[str]:
    """Outputs whose bytes differ from the pinned SHA-256 for this seed."""
    path = HERE / "golden.json"
    pinned = json.loads(path.read_text()).get(f"{workload}/{seed}", {}) if path.is_file() else {}
    return sorted(name for name, digest in pinned.items()
                  if name in hashes and hashes[name] != [digest])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        check_install()
        OUT.mkdir(exist_ok=True)
        inp = make_inputs(args.workload, args.seed)
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "machine": machine_info(),
                  "grid": {"u": axis_arg(inp["u"]), "v": axis_arg(inp["v"])}}
        self_check = oracle.self_check()
        if args.trace:
            result = traced(args.workload, inp, args.seconds, record)
        else:
            setup = measure_setup()
            result = end_to_end(args.workload, inp, args.seconds, record)
            result["metrics"]["setup_s"] = (statistics.median(setup), "s")
            record["setup_walls_s"] = setup
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    attempted = result["attempted"] + 1  # the oracle self-check is one operation
    failed = result["failed"] + (1 if self_check else 0)
    drift = golden_drift(args.workload, args.seed, record["output_sha256"])
    record.update(oracle_self_check=self_check or "passed", byte_drift=drift,
                  attempted=attempted, failed=failed, failed_ratio=failed / attempted,
                  metrics={k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()})
    detail = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    detail.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    m = record["machine"]
    print(f"machine: {m['nproc']} x {m['cpu']}, Python {m['python']}, numpy {m['numpy']}")
    for name, digests in record["output_sha256"].items():
        print(f"sha256 {name}: {' '.join(digests)}")
    print(f"byte drift vs golden: {', '.join(drift) or 'none'}; "
          f"failed {failed}/{attempted}; oracle self-check {record['oracle_self_check']}")
    if "seconds_metrics" in record:
        print("in seconds: " + json.dumps(record["seconds_metrics"]))
    for problem in record["problems"][:5]:
        print(f"problem: {problem}")
    if args.trace:
        print(f"largest self time: {record['largest_self_time']} "
              + json.dumps({k: round(v, 4) for k, v in record["self_time_groups"].items()}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
