"""Tests for the command-line interface."""
import multiprocessing.process
import os
import runpy
import signal
import subprocess
import sys
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from dipolepair import core
from dipolepair.cli import run_cli


def run(capsys, *argv):
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPointCommand:
    def test_infinite_temperature_row(self, capsys):
        code, out, _ = run(capsys, "point", "--u", "0", "--v", "0")
        lines = out.splitlines()
        assert code == 0
        assert lines[0].startswith("u,v,chsh,")
        fields = lines[1].split(",")
        assert fields[:2] == ["0.0", "0.0"]
        assert float(fields[4]) == 0.5
        assert fields[7] == "separable"

    def test_normalized_negativity_flag(self, capsys):
        _, plain, _ = run(capsys, "point", "--u", "3", "--v", "1")
        _, doubled, _ = run(
            capsys, "point", "--u", "3", "--v", "1", "--normalized-negativity"
        )
        n_plain = float(plain.splitlines()[1].split(",")[3])
        n_doubled = float(doubled.splitlines()[1].split(",")[3])
        assert n_doubled == 2.0 * n_plain

    def test_coupling_out_of_envelope_is_usage_error(self, capsys):
        code, _, err = run(capsys, "point", "--u", "5000", "--v", "0")
        assert code == 2
        assert "stability limit" in err


class TestScanCommand:
    def test_row_count_and_header(self, capsys):
        code, out, _ = run(capsys, "scan", "--u", "0:1:3", "--v", "0:1:4")
        lines = out.splitlines()
        assert code == 0
        assert len(lines) == 1 + 12
        assert lines[0] == "u,v,chsh,negativity,fidelity,dominant_weight,dominant_label,region"

    def test_deterministic_bytes_across_runs_and_workers(self, tmp_path, capsys):
        args = ["scan", "--u", "-6:6:13", "--v", "-6:6:13"]
        paths = [tmp_path / name for name in ("a.csv", "b.csv", "c.csv")]
        assert run_cli(args + ["--out", str(paths[0])]) == 0
        assert run_cli(args + ["--out", str(paths[1])]) == 0
        assert run_cli(args + ["--out", str(paths[2]), "--workers", "2"]) == 0
        blobs = [p.read_bytes() for p in paths]
        assert blobs[0] == blobs[1] == blobs[2]
        assert b"\r" not in blobs[0]

    def test_resource_guard_exit_code(self, capsys):
        code, _, err = run(
            capsys, "scan", "--u", "0:1:100000", "--v", "0:1:10000"
        )
        assert code == 3
        assert "budget" in err

    def test_malformed_range_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "scan", "--u", "0:1", "--v", "0:1:5")
        assert code == 2

    def test_non_numeric_range_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "scan", "--u", "a:b:4", "--v", "0:1:5")
        assert code == 2

    def test_range_beyond_stability_limit_fails_before_output(self, tmp_path, capsys):
        out = tmp_path / "scan.csv"
        # -1e308:1e308 has finite bounds whose axis step overflows; it fails
        # on its bounds, with one error line and no numpy warning before it
        for command, u_range in ((["scan"], "-3000:0:3"), (["scan"], "-1e308:1e308:3"),
                                 (["boundary", "--quantity", "chsh"], "-1e308:1e308:3")):
            for extra in ([], ["--out", str(out)]):
                code, stdout, err = run(capsys, *command, "--u", u_range, "--v", "0:1:2",
                                        *extra)
                assert code == 2
                assert stdout == ""
                assert err.startswith("error: ") and err.count("\n") == 1
                assert "stability limit" in err
        assert list(tmp_path.iterdir()) == []

    def test_failed_scan_keeps_existing_out_file(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "scan.csv"
        out.write_bytes(b"old bytes\n")
        real, calls = core.evaluate, []

        def fail_after_first_block(u, v):
            calls.append(len(u))
            if len(calls) > 1:
                raise ValueError("injected failure")
            return real(u, v)

        monkeypatch.setattr(core, "evaluate", fail_after_first_block)
        code, _, err = run(capsys, "scan", "--u", "0:1:200", "--v", "0:1:200",
                           "--out", str(out))
        assert code == 2
        assert "injected failure" in err
        assert len(calls) == 2
        assert out.read_bytes() == b"old bytes\n"
        assert list(tmp_path.iterdir()) == [out]

    @pytest.mark.parametrize("workers", ["0", "-1", "two"])
    def test_invalid_worker_count_is_usage_error(self, workers, capsys):
        code, out, _ = run(capsys, "scan", "--u", "0:1:3", "--v", "0:1:3",
                           "--workers", workers)
        assert code == 2
        assert out == ""

    def test_worker_count_starts_no_processes(self, monkeypatch, capsys):
        def refuse(self):
            raise AssertionError("scan started a process")

        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)
        _, serial, _ = run(capsys, "scan", "--u", "-6:6:13", "--v", "-6:6:13")
        code, pooled, _ = run(capsys, "scan", "--u", "-6:6:13", "--v", "-6:6:13",
                              "--workers", "4")
        assert code == 0
        assert pooled == serial


class TestBoundaryCommand:
    def test_negativity_contour_points_lie_on_boundary(self, tmp_path):
        out = tmp_path / "onset.csv"
        code = run_cli([
            "boundary", "--quantity", "negativity",
            "--u", "-10:10:21", "--v", "-10:10:21", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "contour_id,u,v"
        assert len(lines) > 1
        for line in lines[1:]:
            _, u, v = line.split(",")
            w = core.weights(float(u), float(v))
            assert abs(float(w.max()) - 0.5) < 1e-9

    def test_unknown_quantity_is_usage_error(self, capsys):
        code, _, _ = run(
            capsys, "boundary", "--quantity", "purity",
            "--u", "0:1:3", "--v", "0:1:3",
        )
        assert code == 2

    def test_unattainable_tolerance_is_usage_error(self, tmp_path, capsys):
        # roots reach a residual of a few 1e-16, never below 1e-300
        out = tmp_path / "onset.csv"
        code, stdout, err = run(
            capsys, "boundary", "--quantity", "negativity",
            "--u", "-10:10:21", "--v", "-10:10:21", "--tol", "1e-300", "--out", str(out),
        )
        assert code == 2
        assert stdout == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "residual" in err and "1e-300" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("tol", ["-1e-9", "-inf", "0", "nan"])
    def test_non_positive_tolerance_is_usage_error(self, tol, capsys):
        # a value that starts with "-" but is not a plain negative number
        # must still reach the tolerance check, not argparse's flag parsing
        code, stdout, err = run(
            capsys, "boundary", "--quantity", "chsh",
            "--u", "-1:1:5", "--v", "-1:1:5", "--tol", tol,
        )
        assert code == 2
        assert stdout == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "tolerance must be positive" in err

    def test_empty_contour_writes_header_only(self, capsys):
        code, out, _ = run(
            capsys, "boundary", "--quantity", "chsh",
            "--u", "-1:1:5", "--v", "-1:1:5",
        )
        assert code == 0
        assert out == "contour_id,u,v\n"


class TestDominantCommand:
    def test_map_labels(self, capsys):
        code, out, _ = run(capsys, "dominant", "--u", "-10:10:3", "--v", "-10:10:3")
        lines = out.splitlines()
        assert code == 0
        assert lines[0] == "u,v,dominant_label,dominant_weight"
        rows = {tuple(l.split(",")[:2]): l.split(",")[2] for l in lines[1:]}
        assert rows[("10.0", "0.0")] == "psi_plus"
        assert rows[("-10.0", "10.0")] == "phi_minus"
        assert rows[("-10.0", "-10.0")] == "phi_plus"
        assert "psi_minus" not in rows.values()


def _no_evaluation(u, v):
    raise AssertionError("evaluated before the --out path was checked")


@pytest.mark.parametrize("command", [
    ["scan", "--u", "0:1:3", "--v", "0:1:3"],
    ["boundary", "--quantity", "negativity", "--u", "-10:10:21", "--v", "-10:10:21"],
])
def test_unwritable_out_is_usage_error(command, tmp_path, capsys, monkeypatch):
    # a missing directory fails to open the temp file; the empty name, a
    # name ending in a separator, an existing directory, a FIFO and a link
    # to itself cannot name a regular file and are rejected before anything
    # is evaluated
    monkeypatch.chdir(tmp_path)
    existing = tmp_path / "existing"
    existing.mkdir()
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    loop = tmp_path / "loop"
    loop.symlink_to(loop)
    for out, early in ((str(tmp_path / "missing" / "x.csv"), False), (str(existing), True),
                       ("", True), (f"{tmp_path / 'new'}{os.sep}", True), (str(fifo), True),
                       (str(loop), True)):
        with monkeypatch.context() as m:
            if early:
                m.setattr(core, "_points", _no_evaluation)  # the read of every array route
            code, stdout, err = run(capsys, *command, "--out", out)
        assert code == 2
        assert stdout == ""
        assert err.startswith(f"error: cannot write {out}: ") and err.count("\n") == 1
        assert sorted(tmp_path.iterdir()) == [existing, fifo, loop]
        assert fifo.is_fifo() and loop.is_symlink()
        assert list(existing.iterdir()) == []


@pytest.mark.parametrize("target_exists", [True, False])
def test_out_writes_through_a_symlink(target_exists, tmp_path, capsys):
    # the link stays a link and its target, new or old, gets the output
    target = tmp_path / "target.csv"
    if target_exists:
        target.write_text("old\n")
    link = tmp_path / "link.csv"
    link.symlink_to(target)
    argv = ["scan", "--u", "0:1:3", "--v", "0:1:3"]
    _, expected, _ = run(capsys, *argv)
    assert run(capsys, *argv, "--out", str(link)) == (0, "", "")
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_text() == expected
    assert sorted(tmp_path.iterdir()) == [link, target]


@pytest.mark.parametrize("name", ["a" * 250, "a" + "\u00e9" * 124 + "a"],
                         ids=["ascii", "cut-mid-char"])
def test_out_takes_a_name_near_the_length_limit(name, tmp_path, capsys):
    # a 250-byte name is within NAME_MAX (255), though .NAME.PID.tmp is not;
    # the second name's 200th byte is the first of a two-byte character
    out = tmp_path / name
    argv = ["scan", "--u", "0:1:2", "--v", "0:1:2"]
    _, expected, _ = run(capsys, *argv)
    assert run(capsys, *argv, "--out", str(out)) == (0, "", "")
    assert out.read_bytes() == expected.encode()
    assert list(tmp_path.iterdir()) == [out]


class TestUsage:
    def test_missing_subcommand(self, capsys):
        code, _, _ = run(capsys)
        assert code == 2

    def test_help_exits_zero(self, capsys):
        code, _, _ = run(capsys, "--help")
        assert code == 0

    def test_python_dash_m_runs_the_cli(self, monkeypatch, capsys):
        argv = ["point", "--u", "3", "--v", "1"]
        _, expected, _ = run(capsys, *argv)
        monkeypatch.setattr(sys, "argv", ["dipolepair", *argv])
        handlers = [signal.getsignal(s) for s in (signal.SIGINT, signal.SIGTERM)]
        with pytest.raises(SystemExit) as exc:
            runpy.run_module("dipolepair", run_name="__main__", alter_sys=True)
        assert exc.value.code == 0
        assert capsys.readouterr().out == expected
        # main's signal handlers do not outlive it
        assert [signal.getsignal(s) for s in (signal.SIGINT, signal.SIGTERM)] == handlers


def child_env() -> dict:
    """The environment of a CLI child, with this package on its path."""
    path = os.pathsep.join(filter(None, (os.path.dirname(os.path.dirname(core.__file__)),
                                         os.environ.get("PYTHONPATH"))))
    return {**os.environ, "PYTHONPATH": path}


def _read_only_stderr():
    os.dup2(os.open(os.devnull, os.O_RDONLY), 2)


@pytest.mark.parametrize("start, args, err", [
    # Python starts with sys.stdout None: one error line, exit 2
    (lambda: os.close(1), ["--u", "3", "--v", "1"], b"error: cannot write stdout: not open\n"),
    # sys.stderr None: the error line is dropped, not written into the CSV
    (lambda: os.close(2), ["--u", "nan", "--v", "1"], b""),
    # sys.stderr None: argparse's usage text is dropped, not written to stdout
    (lambda: os.close(2), ["--v", "1"], b""),
    # a stderr that cannot be written, as a launcher script can leave fd 2
    (_read_only_stderr, ["--u", "nan", "--v", "1"], b""),
], ids=["closed-stdout", "closed-stderr", "closed-stderr-usage", "read-only-stderr"])
def test_an_unusable_stream_at_start_gets_no_traceback_and_no_error_on_stdout(start, args, err):
    done = subprocess.run([sys.executable, "-m", "dipolepair", "point", *args],
                          capture_output=True, env=child_env(), timeout=60.0, preexec_fn=start)
    assert (done.returncode, done.stdout, done.stderr) == (2, b"", err)


def test_help_goes_to_stdout_with_stderr_closed_at_start():
    done = subprocess.run([sys.executable, "-m", "dipolepair", "point", "--help"],
                          capture_output=True, env=child_env(), timeout=60.0,
                          preexec_fn=lambda: os.close(2))
    assert (done.returncode, done.stderr) == (0, b"")
    assert done.stdout.startswith(b"usage: dipolepair point [-h]")


def _default_sigint():
    # a child started from a shell without job control inherits SIGINT
    # ignored, and the CLI leaves an ignored signal ignored
    signal.signal(signal.SIGINT, signal.SIG_DFL)


@pytest.mark.parametrize("signum, word", [(signal.SIGINT, "interrupted"),
                                          (signal.SIGTERM, "terminated")],
                         ids=["sigint", "sigterm"])
def test_a_signal_removes_the_temporary_file(signum, word, tmp_path):
    # a scan of 2001^2 points runs for seconds; the signal is sent once its
    # temporary file exists, so the run is stopped while writing
    out = tmp_path / "F"
    out.write_bytes(b"old bytes\n")
    child = subprocess.Popen(
        [sys.executable, "-m", "dipolepair", "scan", "--u", "-10:10:2001",
         "--v", "-10:10:2001", "--out", str(out)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env(),
        preexec_fn=_default_sigint)
    try:
        deadline = time.monotonic() + 30.0
        while not list(tmp_path.glob(".F.*.tmp")) and time.monotonic() < deadline:
            time.sleep(0.01)
        child.send_signal(signum)
        stdout, stderr = child.communicate(timeout=30.0)
    finally:
        child.kill()
    assert (child.returncode, stdout, stderr) == (-signum, b"", f"error: {word}\n".encode())
    assert list(tmp_path.iterdir()) == [out]
    assert out.read_bytes() == b"old bytes\n"


@pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM], ids=["sigint", "sigterm"])
def test_a_signal_ignored_at_start_stays_ignored(signum, tmp_path):
    # the signal arrives while the temporary file is written; ignored, it
    # neither stops the run nor changes what the run writes
    out = tmp_path / "F"
    child = subprocess.Popen(
        [sys.executable, "-m", "dipolepair", "scan", "--u", "-10:10:601",
         "--v", "-10:10:601", "--out", str(out)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env(),
        preexec_fn=lambda: signal.signal(signum, signal.SIG_IGN))
    try:
        deadline = time.monotonic() + 30.0
        while (not list(tmp_path.glob(".F.*.tmp")) and child.poll() is None
               and time.monotonic() < deadline):
            time.sleep(0.01)
        child.send_signal(signum)
        stdout, stderr = child.communicate(timeout=30.0)
    finally:
        child.kill()
    assert (child.returncode, stdout, stderr) == (0, b"", b"")
    assert out.read_bytes().count(b"\n") == 601 ** 2 + 1


# numbers at the edges of what the CLI parses: signed zeros, non-finite
# values, the float range, a subnormal, an integer beyond the float range
# (which parses as inf), and the stability envelope; all well formed, so
# every failure is the program's own and not argparse's usage text
EDGE_NUMBERS = ["0", "-0", "nan", "inf", "-inf", "1e308", "-1e308", "5e-324", "-5e-324",
                str(10 ** 400), "-2000", "2000", "2000.0000000001", "-3", "0.5", "3"]
numbers = st.one_of(st.sampled_from(EDGE_NUMBERS),
                    st.floats(-5.0, 5.0, allow_nan=False).map(repr))
# counts beyond 2^63 and beyond the float range, which the point budget rejects
HUGE_COUNTS = [2 ** 63, 2 ** 64, 10 ** 400]
counts = st.sampled_from([0, 1, 2, 3] + HUGE_COUNTS)
# half the axes are well formed, so that grids run as well as fail
axes = st.one_of(
    st.builds("{}:{}:{}".format, numbers, numbers, counts),
    st.builds(lambda lo, span, n: f"{lo!r}:{lo + span!r}:{n}", st.floats(-5.0, 4.0),
              st.floats(0.01, 1.0), st.sampled_from([2, 3] + HUGE_COUNTS)))
tolerances = st.one_of(st.just("1e-9"), st.sampled_from(
    ["0", "-0", "-1e-9", "5e-324", "1e-300", "1e308", "inf", "-inf", "nan"]))
HEADERS = {"point": "u,v,chsh,", "scan": "u,v,chsh,", "dominant": "u,v,dominant_label,",
           "boundary": "contour_id,u,v"}
out_paths = st.one_of(st.sampled_from([None, "out.csv"]), st.sampled_from(
    ["missing/out.csv", ".", "", "dir/", "dir", "ünï cödé.csv"]))


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from(sorted(HEADERS)))
    if command == "point":
        argv = ["point", "--u", draw(numbers), "--v", draw(numbers)]
    else:
        argv = [command, "--u", draw(axes), "--v", draw(axes)]
    if command == "boundary":
        argv[1:1] = ["--quantity", draw(st.sampled_from(["chsh", "negativity", "fidelity"]))]
        argv += ["--tol", draw(tolerances)]
    if command == "scan":
        argv += draw(st.sampled_from([[], ["--workers", "2"], ["--normalized-negativity"]]))
    if command == "point":
        argv += draw(st.sampled_from([[], ["--normalized-negativity"]]))
    return argv, None if command == "point" else draw(out_paths)


@settings(max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command_lines())
def test_cli_fuzz_exits_cleanly(tmp_path, capsys, case):
    argv, out = case
    (tmp_path / "dir").mkdir(exist_ok=True)
    if out is not None:
        argv = argv + ["--out", os.path.join(tmp_path, out)]
    capsys.readouterr()
    code = run_cli(argv)
    captured = capsys.readouterr()
    assert code in (0, 2, 3), argv
    if code != 0:
        assert captured.out == "", argv
        assert captured.err.count("\n") == 1 and captured.err.startswith("error: "), argv
        return
    assert captured.err == "", argv
    text = captured.out
    if out is not None:
        assert text == ""
        with open(os.path.join(tmp_path, out), encoding="utf-8") as fh:
            text = fh.read()
    assert text.startswith(HEADERS[argv[0]]) and text.endswith("\n"), argv
