"""Time dipolepair.evaluate_point calls one by one in a fresh process.

    python3 perfbench/queries.py POINTS.npy RESULT.npz

Reads an (N, 2) array of couplings (u, v), calls
`evaluate_point(CouplingParams(u, v))` for each in turn, timing every call on
its own, and writes the per-call nanoseconds, the wall time and the
reference-loop time (reference.py) of each block of calls, the reported
values and the process's peak RSS.  `dipolepair` must be importable.
"""
from __future__ import annotations

import sys
import time

import numpy as np

import dipolepair
import reference
from oracle import BELL_LABELS, REGIONS

BLOCK = 1000


def run(points: np.ndarray, calibrate=None) -> dict:
    """Call evaluate_point at every point, in blocks of BLOCK calls.

    Returns the per-call nanoseconds, the block size, each block's wall
    seconds and the records, None where a call raised.  With `calibrate`, a callable that
    returns seconds, it is called before the first block and after every
    block, and each block also gets the mean of the two values beside it.
    The functions are looked up on the package here, so wrappers installed
    on it are used."""
    evaluate_point, coupling = dipolepair.evaluate_point, dipolepair.CouplingParams
    ns = np.zeros(len(points), dtype=np.int64)
    block_s, cal_s, records = [], [], []
    clock = time.perf_counter_ns
    edges = calibrate() if calibrate else 0.0
    coords = points.tolist()
    for first in range(0, len(coords), BLOCK):
        start = time.perf_counter()
        for i in range(first, min(first + BLOCK, len(coords))):
            u, v = coords[i]
            t0 = clock()
            try:
                record = evaluate_point(coupling(u, v))
            except Exception as exc:  # a failed call is counted, not fatal
                record = None
                print(f"evaluate_point({u!r}, {v!r}) raised {exc!r}", file=sys.stderr)
            ns[i] = clock() - t0
            records.append(record)
        block_s.append(time.perf_counter() - start)
        if calibrate:
            after = calibrate()
            cal_s.append((edges + after) / 2.0)
            edges = after
    return {"ns": ns, "block": BLOCK, "block_s": np.array(block_s),
            "cal_s": np.array(cal_s), "records": records}


def to_arrays(records) -> dict[str, np.ndarray]:
    """Reported values as arrays; label and region are indices into
    BELL_LABELS and REGIONS, -1 where the call failed."""
    n = len(records)
    values = np.full((n, 4), np.nan)
    label = np.full(n, -1, dtype=np.int8)
    region = np.full(n, -1, dtype=np.int8)
    for i, r in enumerate(records):
        if r is not None:
            values[i] = (r.chsh, r.negativity, r.fidelity, r.dominant_weight)
            label[i] = BELL_LABELS.index(r.dominant_label.name.lower())
            region[i] = REGIONS.index(r.region.value)
    return {"values": values, "label": label, "region": region}


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    result = run(np.load(argv[0]), lambda: reference.calibrate(reps=3))
    np.savez(argv[1], **to_arrays(result.pop("records")), **result,
             peak_rss_mb=reference.peak_rss_mb())
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
