"""Command-line interface for phase-plane work on the dipolar pair."""
from __future__ import annotations

import argparse
import os
import sys
from typing import Iterable

from . import core
from .scan import (
    BoundaryQuantity,
    DEFAULT_ROOT_TOL,
    GridSpec,
    GridTooLargeError,
    boundary_rows,
    dominant_rows,
    evaluate_grid,
    scan_rows,
    trace_boundary,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_RESOURCE = 3


def _range_spec(text: str) -> tuple[float, float, int]:
    """Parse a min:max:count axis specification."""
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected min:max:count, got {text!r}")
    try:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected min:max:count, got {text!r}")
    return lo, hi, count


def _worker_count(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage error writes nothing when stderr was
    closed at start: argparse would print the usage text to stdout."""

    def error(self, message):
        if sys.stderr is None:
            self.exit(EXIT_USAGE)
        super().error(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dipolepair",
        description=(
            "Entanglement, CHSH nonlocality and teleportation fidelity of a "
            "dipolar-coupled spin-1/2 pair at thermal equilibrium, over the "
            "dimensionless coupling plane (u, v) = (Delta/kT, eps/kT)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # the grid and output options of every grid command
    grid = argparse.ArgumentParser(add_help=False)
    grid.add_argument("--u", type=_range_spec, required=True, metavar="MIN:MAX:COUNT")
    grid.add_argument("--v", type=_range_spec, required=True, metavar="MIN:MAX:COUNT")
    grid.add_argument("--out", help="write CSV here instead of stdout")
    # the negativity scale of every command that reports it
    scale = argparse.ArgumentParser(add_help=False)
    scale.add_argument("--normalized-negativity", action="store_true",
                       help="report negativity doubled, so a Bell state reads 1")

    point = sub.add_parser("point", parents=[scale], help="evaluate a single coupling point")
    point.add_argument("--u", type=float, required=True, help="u = Delta/kT")
    point.add_argument("--v", type=float, required=True, help="v = eps/kT")

    scan = sub.add_parser("scan", parents=[grid, scale], help="evaluate a rectangular grid")
    scan.add_argument(
        "--workers", type=_worker_count, default=1, metavar="N",
        help="accepted for compatibility (N >= 1); output and speed do not depend on it",
    )

    boundary = sub.add_parser("boundary", parents=[grid], help="trace a critical contour")
    boundary.add_argument(
        "--quantity",
        required=True,
        choices=[q.value for q in BoundaryQuantity],
        help="which boundary to trace: chsh=2, negativity onset, fidelity=2/3",
    )
    boundary.add_argument("--tol", type=float, default=DEFAULT_ROOT_TOL,
                          help="root residual tolerance")

    sub.add_parser("dominant", parents=[grid], help="map the dominant Bell component")

    return parser


def _grid_from_args(args: argparse.Namespace) -> GridSpec:
    (u_min, u_max, nu) = args.u
    (v_min, v_max, nv) = args.v
    return GridSpec(u_min=u_min, u_max=u_max, v_min=v_min, v_max=v_max, nu=nu, nv=nv)


def _emit(text: Iterable[str], out_path: str | None) -> None:
    """Write CSV text, newline-terminated chunks as they are produced.  A
    file is written under a temporary name beside it and renamed into place
    only once complete, so a failure part-way leaves any earlier file
    untouched.  Links in `out_path` are resolved by the caller, so a link's
    target is replaced."""
    if out_path is None:
        sys.stdout.writelines(text)
        return
    head, tail = os.path.split(out_path)
    # the name's first 200 bytes, so the temporary name fits in NAME_MAX (255)
    short = os.fsdecode(os.fsencode(tail)[:200])
    tmp = os.path.join(head, f".{short}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(text)
        os.replace(tmp, out_path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _error(message: str) -> None:
    """Print one `error:` line to stderr, or drop it where stderr cannot be
    written: closed at start (None, where `print` would write to stdout),
    a closed pipe, or a read-only fd 2 that a launcher script left open."""
    if sys.stderr is not None:
        try:
            print(f"error: {message}", file=sys.stderr, flush=True)
        except OSError:
            pass


def _fuse_option_values(argv: list[str]) -> list[str]:
    """Join --u, --v and --tol with their value so tokens like -10:10:81,
    -1e-9 or -inf are not mistaken for option flags."""
    fused = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in ("--u", "--v", "--tol") and i + 1 < len(argv):
            fused.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            fused.append(tok)
            i += 1
    return fused


def run_cli(argv: list[str] | None = None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_fuse_option_values(list(argv)))
    except SystemExit as exc:  # argparse handles usage errors and --help
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE

    out_path = getattr(args, "out", None)
    target = None
    try:
        # write through a link; reject a stdout that was closed at start
        # (`sys.stdout` is None) and a path that cannot name a regular file
        # (a directory, a FIFO, a device, a link loop) before evaluating
        # anything
        if out_path is None and sys.stdout is None:
            raise OSError("not open")
        if out_path is not None:
            target = os.path.realpath(out_path)
            if not os.path.basename(out_path) or (os.path.lexists(target)
                                                  and not os.path.isfile(target)):
                raise OSError("not a file name")
        if args.command == "point":
            text = scan_rows([core.evaluate(args.u, args.v)], args.normalized_negativity)
        elif args.command == "scan":
            text = scan_rows(evaluate_grid(_grid_from_args(args)),
                             args.normalized_negativity)
        elif args.command == "boundary":
            polylines = trace_boundary(
                BoundaryQuantity(args.quantity), _grid_from_args(args), tol=args.tol
            )
            text = boundary_rows(polylines)
        elif args.command == "dominant":
            text = dominant_rows(evaluate_grid(_grid_from_args(args)))
        _emit(text, target)
    except GridTooLargeError as exc:
        _error(str(exc))
        return EXIT_RESOURCE
    except ValueError as exc:
        _error(str(exc))
        return EXIT_USAGE
    except OSError as exc:
        target = "stdout" if out_path is None else out_path
        _error(f"cannot write {target}: {exc.strerror or exc}")
        return EXIT_USAGE
    return EXIT_OK


class _Stopped(BaseException):
    """SIGINT or SIGTERM arrived; raised from the handler `main` installs."""


def main() -> None:
    """Run the CLI as a program.  SIGINT and SIGTERM raise `_Stopped`, so an
    `--out` temporary file is removed on the way out; then one `error:` line
    is printed and the signal is sent again under its default action, so the
    exit status is still the signal's (130 and 143 in a shell).  A signal
    the process started with ignored stays ignored, as Python leaves it, and
    the previous handlers are back in place when `main` returns."""
    import signal  # here, so that library imports do not load it

    def stop(signum, frame):
        raise _Stopped(signum)

    previous = {signum: signal.getsignal(signum) for signum in (signal.SIGINT, signal.SIGTERM)}
    for signum, handler in previous.items():
        if handler is not signal.SIG_IGN:
            signal.signal(signum, stop)
    try:
        status = run_cli()
    except _Stopped as exc:
        signum = exc.args[0]
        signal.signal(signum, signal.SIG_DFL)
        word = "interrupted" if signum == signal.SIGINT else "terminated"
        _error(word)
        os.kill(os.getpid(), signum)
        status = 128 + signum  # only if the signal did not end the process
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
    raise SystemExit(status)
