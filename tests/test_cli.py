"""End-to-end tests of the command-line interface."""

import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

from peak_memory import PeakMemory

import qregsim
from qregsim import cli
from qregsim.algorithms import qam_store
from qregsim.cli import main

BELL_TEXT = "qubits 2\nh 1\ncnot 1 0\nmeasure all\n"


@pytest.fixture
def bell_file(tmp_path):
    path = tmp_path / "bell.qc"
    path.write_text(BELL_TEXT)
    return str(path)


@pytest.fixture
def patterns_file(tmp_path):
    path = tmp_path / "patterns.txt"
    path.write_text("# stored patterns\n00000\n10000\n11111\n")
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRun:
    def test_bell_histogram(self, capsys, bell_file):
        code, out, _ = run_cli(
            capsys, "run", bell_file, "--shots", "100000", "--seed", "7"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert "# shots 100000" in lines
        assert "# seed 7" in lines
        outcome_lines = [l for l in lines if not l.startswith("#")]
        assert {l.split()[0] for l in outcome_lines} == {"00", "11"}
        counts = [int(l.split()[1]) for l in outcome_lines]
        assert counts == sorted(counts, reverse=True)
        assert sum(counts) == 100_000

    def test_json_round_trips(self, capsys, bell_file):
        code, out, _ = run_cli(
            capsys, "run", bell_file, "--shots", "5000", "--seed", "3",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["shots"] == 5000
        assert payload["seed"] == 3
        assert sum(payload["counts"].values()) == 5000

    def test_report_regenerates_bit_identically(self, capsys, bell_file):
        _, first, _ = run_cli(capsys, "run", bell_file, "--seed", "21")
        _, second, _ = run_cli(capsys, "run", bell_file, "--seed", "21")
        assert first == second

    @pytest.mark.parametrize("angle", ["nan", "inf", "-inf"])
    def test_non_finite_angle_is_runtime_error(self, capsys, tmp_path, angle):
        path = tmp_path / "bad.qc"
        path.write_text(f"qubits 2\nh 0\ncphase 0 1 {angle}\n")
        code, out, err = run_cli(capsys, "run", str(path), "--seed", "1")
        assert code == 2
        assert out == ""
        assert "line 3" in err and "finite" in err

    def test_qubit_count_above_cap_is_runtime_error(self, capsys, tmp_path):
        path = tmp_path / "wide.qc"
        path.write_text("qubits 40\nh 0\nmeasure all\n")
        code, out, err = run_cli(capsys, "run", str(path), "--seed", "1")
        assert code == 2
        assert out == ""
        assert "line 1:" in err and "exceeds" in err

    def test_missing_file_is_runtime_error(self, capsys):
        code, _, err = run_cli(capsys, "run", "/nonexistent/x.qc")
        assert code == 2
        assert "x.qc" in err

    def test_parse_error_reports_line(self, capsys, tmp_path):
        path = tmp_path / "bad.qc"
        path.write_text("qubits 2\nh 5\n")
        code, _, err = run_cli(capsys, "run", str(path))
        assert code == 2
        assert "line 2" in err

    @pytest.mark.parametrize(
        "body, line",
        [
            (b"qubits 2\x0cfoo 1\n", 1),
            ("qubits 2\u2028h 0\n".encode(), 1),
            (b"qubits 2\r\nh 0\rfoo 1\n", 3),
        ],
    )
    def test_parse_error_line_matches_the_file(self, capsys, tmp_path, body, line):
        path = tmp_path / "bad.qc"
        path.write_bytes(body)
        code, out, err = run_cli(capsys, "run", str(path))
        assert code == 2
        assert out == ""
        assert f"line {line}:" in err


class TestAlgorithms:
    def test_qrng_reproducible(self, capsys):
        code, first, _ = run_cli(
            capsys, "qrng", "--bits", "8", "--chunk", "1", "--seed", "9"
        )
        assert code == 0
        value = int(first.strip().splitlines()[-1])
        assert 0 <= value < 256
        _, second, _ = run_cli(
            capsys, "qrng", "--bits", "8", "--chunk", "1", "--seed", "9"
        )
        assert first == second

    def test_qrng_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "qrng", "--bits", "8", "--seed", "9", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["bits"] == 8
        assert payload["seed"] == 9
        assert 0 <= payload["value"] < 256

    def test_grover(self, capsys):
        code, out, _ = run_cli(
            capsys, "grover", "--qubits", "3", "--target", "5",
            "--seed", "1", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["iterations"] == 2
        assert payload["bitstring"] == format(payload["outcome"], "03b")

    def test_qrng_bits_beyond_printable_width_fail_before_any_draw(self, capsys, monkeypatch):
        """14,284 bits is the widest value printable under the 4300-digit limit."""
        assert sys.get_int_max_str_digits() == 4300
        sources = []

        class CountingSource(qregsim.RandomSource):
            def __init__(self, seed):
                super().__init__(seed)
                sources.append(self)

        monkeypatch.setattr(cli, "RandomSource", CountingSource)
        code, out, err = run_cli(capsys, "qrng", "--bits", "14285", "--seed", "1")
        assert code == 2
        assert out == ""
        assert "14284" in err and "4300-digit" in err
        assert sum(source.draw_count for source in sources) == 0
        code, out, _ = run_cli(capsys, "qrng", "--bits", "14284", "--seed", "1",
                               "--format", "json")
        assert code == 0
        assert json.loads(out)["value"] < 1 << 14284
        assert sources[-1].draw_count == 14284

    def test_grover_never_enumerates_the_targets(self, capsys):
        """The oracle is built from the target set, so 26 qubits holds no 2**26 array."""
        with PeakMemory() as traced:
            code, out, _ = run_cli(capsys, "grover", "--qubits", "26", "--target", "5",
                                   "--seed", "1")
        assert code == 0
        assert "# targets 5" in out
        assert traced.peak < 1 << 20

    @pytest.mark.parametrize("qubits,message", [("40", "exceeds the configured cap"),
                                                ("-1", "positive integer")])
    def test_grover_register_width_is_runtime_error(self, capsys, qubits, message):
        code, out, err = run_cli(capsys, "grover", "--qubits", qubits, "--target", "1",
                                 "--seed", "1")
        assert code == 2
        assert out == ""
        assert message in err

    @pytest.mark.parametrize("qubits,message", [("62", "exceeds the configured cap"),
                                                ("0", "positive integer")])
    def test_qft_demo_register_width_checked_before_allocating(self, capsys, qubits, message):
        code, out, err = run_cli(capsys, "qft-demo", "--qubits", qubits, "--period", "1")
        assert code == 2
        assert out == ""
        assert message in err

    def test_qft_demo_period_two(self, capsys):
        code, out, _ = run_cli(capsys, "qft-demo", "--qubits", "3", "--period", "2")
        assert code == 0
        rows = [l.split() for l in out.strip().splitlines() if not l.startswith("#")]
        assert {r[0] for r in rows} == {"000", "100"}
        assert all(abs(float(r[1]) - 0.5) < 1e-6 for r in rows)

    def test_shor_fifteen(self, capsys):
        code, out, _ = run_cli(capsys, "shor", "15", "--seed", "1")
        assert code == 0
        assert "15 = 3 × 5" in out

    def test_shor_precondition_error(self, capsys):
        code, _, err = run_cli(capsys, "shor", "9", "--seed", "1")
        assert code == 2
        assert "prime power" in err

    @pytest.mark.parametrize("n", [str(3 * (10**400 + 1)), "998244359987710471"],
                             ids=["overflows-float", "slow-trial-division"])
    def test_shor_modulus_over_the_cap(self, capsys, n):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "shor", n, "--seed", "1")
        assert time.perf_counter() - start < 0.5
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: period finding for mod_n={n} needs ")
        assert err.endswith("qubits, exceeding the cap of 26\n")

    def test_walk_report(self, capsys):
        code, out, _ = run_cli(capsys, "walk", "--steps", "20")
        assert code == 0
        assert "# sigma_quantum" in out
        assert "# sigma_classical" in out
        rows = [l.split() for l in out.strip().splitlines() if not l.startswith("#")]
        total = sum(float(r[1]) for r in rows)
        assert abs(total - 1.0) < 1e-4

    def test_walk_json(self, capsys):
        code, out, _ = run_cli(capsys, "walk", "--steps", "10", "--format", "json")
        payload = json.loads(out)
        assert code == 0
        assert len(payload["positions"]) == 21
        assert abs(sum(payload["quantum"]) - 1.0) < 1e-9

    def test_walk_register_width_checked_before_allocating(self, capsys):
        with PeakMemory() as traced:
            code, out, err = run_cli(capsys, "walk", "--steps", "100000000000")
        assert code == 2
        assert out == ""
        assert err == "error: num_qubits=39 exceeds the configured cap of 26\n"
        assert traced.peak < 64 * 1024

    def test_qam_register_width_checked_before_allocating(self, capsys, tmp_path):
        path = tmp_path / "wide.txt"
        path.write_text("0" * 40 + "\n")
        code, out, err = run_cli(capsys, "qam", "--patterns-file", str(path),
                                 "--query", "0" * 40, "--radius", "0", "--seed", "1")
        assert code == 2
        assert out == ""
        assert err == "error: num_qubits=40 exceeds the configured cap of 26\n"

    def test_qam(self, capsys, patterns_file):
        code, out, _ = run_cli(
            capsys, "qam", "--patterns-file", patterns_file,
            "--query", "11110", "--radius", "1", "--seed", "5",
        )
        assert code == 0
        assert out.strip().splitlines()[-1] == "11111"

    def test_seed_randomized_but_printed(self, capsys):
        code, out, _ = run_cli(capsys, "qrng", "--bits", "4")
        assert code == 0
        seed_lines = [l for l in out.splitlines() if l.startswith("# seed ")]
        assert len(seed_lines) == 1
        assert int(seed_lines[0].split()[-1]) >= 0


class TestProcess:
    def test_parser_built_once_per_process(self):
        assert cli._build_parser() is cli._build_parser()

    def test_import_leaves_openssl_unloaded(self):
        """Fresh seeds come from the OS without hashlib's OpenSSL binding."""
        env = dict(os.environ, PYTHONPATH=str(pathlib.Path(qregsim.__file__).parents[1]))
        probe = "import sys, qregsim.cli; print('_hashlib' in sys.modules)"
        done = subprocess.run([sys.executable, "-c", probe], env=env,
                              capture_output=True, text=True, check=True)
        assert done.stdout == "False\n"


class TestInputFiles:
    PATTERNS = "# stored patterns\n00000\n10000  # one bit\n11111"

    @pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_patterns_line_endings_load_like_lf(self, capsys, monkeypatch, tmp_path, newline):
        loaded = []

        def recording_store(patterns):
            loaded.append(list(patterns))
            return qam_store(loaded[-1])

        monkeypatch.setattr(cli, "qam_store", recording_store)
        outputs = []
        for name, ending in (("lf", "\n"), ("other", newline)):
            path = tmp_path / f"{name}.txt"
            path.write_bytes(self.PATTERNS.replace("\n", ending).encode())
            outputs.append(run_cli(capsys, "qam", "--patterns-file", str(path),
                                   "--query", "11110", "--radius", "1", "--seed", "5"))
        assert loaded == [["00000", "10000", "11111"]] * 2
        assert outputs[0] == outputs[1]

    def test_form_feed_inside_a_pattern_is_a_bad_pattern(self, capsys, tmp_path):
        path = tmp_path / "patterns.txt"
        path.write_bytes(b"0101\x0c1010\n")
        code, out, err = run_cli(capsys, "qam", "--patterns-file", str(path),
                                 "--query", "0101", "--seed", "1")
        assert code == 2
        assert out == ""
        assert err.startswith("error: pattern must be")

    @pytest.mark.parametrize("command", ["run", "qam"])
    def test_non_utf8_file_names_its_path_and_offset(self, capsys, tmp_path, command):
        path = tmp_path / "latin1.txt"
        path.write_bytes(b"# caf\xe9\n")
        argv = [str(path)] if command == "run" else ["--patterns-file", str(path), "--query", "1"]
        code, out, err = run_cli(capsys, command, *argv, "--seed", "1")
        assert code == 2
        assert out == ""
        assert err == f"error: cannot read {path}: byte 0xe9 at offset 5 is not UTF-8\n"

    def test_unreadable_path_reported_alike_by_run_and_qam(self, capsys, tmp_path):
        run = run_cli(capsys, "run", str(tmp_path), "--seed", "1")
        qam = run_cli(capsys, "qam", "--patterns-file", str(tmp_path), "--query", "1",
                      "--seed", "1")
        assert run == qam
        code, out, err = run
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot read {tmp_path}: ")
        assert err.count("\n") == 1


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["bogus"])
        assert excinfo.value.code == 1

    def test_bad_flag_value(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "x.qc", "--shots", "ten"])
        assert excinfo.value.code == 1

    def test_negative_seed(self, capsys):
        code, _, err = run_cli(capsys, "qrng", "--seed", "-4")
        assert code == 1
        assert "seed" in err

    def test_seed_must_fit_64_bits(self, capsys):
        code, out, _ = run_cli(capsys, "qrng", "--seed", str(2**64 - 1), "--format", "json")
        assert code == 0
        assert json.loads(out)["seed"] == 2**64 - 1
        code, out, err = run_cli(capsys, "qrng", "--seed", str(2**64))
        assert code == 1
        assert out == ""
        assert "64-bit" in err


class TestEnvironmentCap:
    def test_cap_override(self, capsys, monkeypatch):
        import qregsim

        old = qregsim.get_max_qubits()
        monkeypatch.setenv("QREGSIM_MAX_QUBITS", "4")
        try:
            code, _, err = run_cli(capsys, "qrng", "--bits", "8", "--chunk", "6",
                                   "--seed", "1")
            assert code == 2
            assert "cap" in err
        finally:
            qregsim.set_max_qubits(old)

    def test_chunk_past_53_refused_under_a_wider_cap(self, capsys, monkeypatch):
        import qregsim

        old = qregsim.get_max_qubits()
        monkeypatch.setenv("QREGSIM_MAX_QUBITS", "64")
        try:
            code, out, err = run_cli(capsys, "qrng", "--bits", "60", "--chunk", "60",
                                     "--seed", "1")
            assert code == 2
            assert out == ""
            assert "exceeds 53" in err
        finally:
            qregsim.set_max_qubits(old)

    def test_indices_past_63_bits_refused_under_a_wider_cap(self, capsys, monkeypatch, tmp_path):
        patterns = tmp_path / "wide.txt"
        patterns.write_text("1" * 64 + "\n" + "0" * 64 + "\n")
        old = qregsim.get_max_qubits()
        monkeypatch.setenv("QREGSIM_MAX_QUBITS", "70")
        try:
            for argv in (
                ("qam", "--patterns-file", str(patterns), "--query", "1" * 64, "--seed", "1"),
                ("grover", "--qubits", "64", "--target", str(2**64 - 1), "--seed", "1"),
            ):
                code, out, err = run_cli(capsys, *argv)
                assert code == 2
                assert out == ""
                assert "at most 63 qubits" in err
        finally:
            qregsim.set_max_qubits(old)

    def test_invalid_cap_value(self, capsys, monkeypatch):
        import qregsim

        old = qregsim.get_max_qubits()
        monkeypatch.setenv("QREGSIM_MAX_QUBITS", "many")
        try:
            code, _, err = run_cli(capsys, "walk", "--steps", "1")
            assert code == 1
            assert "QREGSIM_MAX_QUBITS" in err
        finally:
            qregsim.set_max_qubits(old)
