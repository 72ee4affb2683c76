"""Every CLI report pinned byte for byte against recorded goldens.

Each case runs ``main`` in process with its input files written to a
temporary directory (``{tmp}`` in an argument or an output stands for that
directory) and compares the exit code, stdout and stderr with
``cli_reports.json``.  Text reports and error messages must match exactly;
a JSON report must match in key order and values, with floats equal to
1e-12 so the goldens do not pin libm's last bit.

After a deliberate change to a report, rewrite the goldens with
``PYTHONPATH=src python tests/test_cli_reports.py``.
"""

import argparse
import contextlib
import io
import json
import math
import pathlib

import pytest

from qregsim import cli

GOLDENS = pathlib.Path(__file__).with_name("cli_reports.json")

BELL = b"qubits 2\nh 1\ncnot 1 0\nmeasure all\n"
SUBSET = b"qubits 3\nh 0\nh 2\ncnot 0 1\nphase 2 0.25\nmeasure 2 0\n"
PATTERNS = b"# stored patterns\n00000\n10000\n11111\n"

#: (case id, argv, input files), each success case in both formats.
_CASES = [
    ("run-bell", ["run", "{tmp}/bell.qc", "--shots", "1000", "--seed", "7"], {"bell.qc": BELL}),
    ("run-subset", ["run", "{tmp}/subset.qc", "--shots", "500", "--seed", "3"],
     {"subset.qc": SUBSET}),
    ("qrng", ["qrng", "--bits", "16", "--chunk", "4", "--seed", "3"], {}),
    ("grover", ["grover", "--qubits", "4", "--target", "11", "3", "--seed", "2"], {}),
    ("qft-demo-3-2", ["qft-demo", "--qubits", "3", "--period", "2"], {}),
    ("qft-demo-4-3", ["qft-demo", "--qubits", "4", "--period", "3"], {}),
    ("shor-15", ["shor", "15", "--seed", "1"], {}),
    ("shor-21", ["shor", "21", "--seed", "2"], {}),
    ("shor-143", ["shor", "143", "--seed", "1"], {}),
    ("shor-1003", ["shor", "1003", "--seed", "1"], {}),
    ("shor-2047", ["shor", "2047", "--seed", "1"], {}),
    ("walk", ["walk", "--steps", "10"], {}),
    ("qam", ["qam", "--patterns-file", "{tmp}/patterns.txt", "--query", "11110",
             "--radius", "1", "--seed", "5"], {"patterns.txt": PATTERNS}),
    ("run-missing-file", ["run", "{tmp}/missing.qc", "--seed", "1"], {}),
    ("run-parse-error", ["run", "{tmp}/bad.qc", "--seed", "1"], {"bad.qc": b"qubits 2\nh 5\n"}),
    ("qam-missing-file", ["qam", "--patterns-file", "{tmp}/missing.txt", "--query", "1",
                          "--seed", "1"], {}),
    ("shor-prime-power", ["shor", "9", "--seed", "1"], {}),
    ("shor-prime", ["shor", "13", "--seed", "1"], {}),
    ("grover-target-out-of-range", ["grover", "--qubits", "3", "--target", "8",
                                    "--seed", "1"], {}),
    ("qft-demo-bad-period", ["qft-demo", "--qubits", "3", "--period", "9"], {}),
    ("negative-seed", ["qrng", "--seed", "-4"], {}),
]
CASES = {
    f"{name}-{fmt}": (argv + ["--format", fmt], files)
    for name, argv, files in _CASES
    for fmt in ("text", "json")
}


def _run(case_id, tmp):
    argv, files = CASES[case_id]
    for name, body in files.items():
        (tmp / name).write_bytes(body)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([arg.replace("{tmp}", str(tmp)) for arg in argv])
    return {
        "code": code,
        "stdout": out.getvalue().replace(str(tmp), "{tmp}"),
        "stderr": err.getvalue().replace(str(tmp), "{tmp}"),
    }


def _assert_same_document(got, want, where="$"):
    assert type(got) is type(want), f"{where}: {got!r} != {want!r}"
    if isinstance(want, dict):
        assert list(got) == list(want), f"{where}: keys {list(got)} != {list(want)}"
        for key in want:
            _assert_same_document(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), f"{where}: length {len(got)} != {len(want)}"
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_same_document(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-12), f"{where}: {got!r} != {want!r}"
    else:
        assert got == want, f"{where}: {got!r} != {want!r}"


@pytest.fixture(scope="module")
def goldens():
    return json.loads(GOLDENS.read_text(encoding="utf-8"))


def _assert_matches_golden(case_id, goldens, tmp):
    got, want = _run(case_id, tmp), goldens[case_id]
    assert (got["code"], got["stderr"]) == (want["code"], want["stderr"])
    if case_id.endswith("-json") and want["stdout"]:
        assert got["stdout"].endswith("\n") and got["stdout"].count("\n") == 1
        _assert_same_document(json.loads(got["stdout"]), json.loads(want["stdout"]))
    else:
        assert got["stdout"] == want["stdout"]


@pytest.mark.parametrize("case_id", sorted(CASES))
def test_report_matches_golden(case_id, goldens, tmp_path):
    _assert_matches_golden(case_id, goldens, tmp_path)


def test_cached_parser_after_a_usage_error(goldens, tmp_path, capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["qrng", "--bits", "ten"])
    assert excinfo.value.code == 1
    capsys.readouterr()
    _assert_matches_golden("qrng-text", goldens, tmp_path)


def test_cached_parser_across_alternating_commands(goldens, tmp_path):
    for case_id in ["grover-text", "qrng-text", "grover-json", "qrng-json"] * 2:
        _assert_matches_golden(case_id, goldens, tmp_path)


def test_goldens_cover_every_case(goldens):
    assert sorted(goldens) == sorted(CASES)


def test_every_subcommand_has_a_golden_report_in_both_formats(goldens):
    parser = cli._build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    covered = {
        (CASES[case_id][0][0], CASES[case_id][0][-1])
        for case_id, golden in goldens.items()
        if golden["code"] == 0
    }
    missing = {
        (command, fmt) for command in subparsers.choices for fmt in ("text", "json")
    } - covered
    assert not missing, f"subcommands without a golden report: {sorted(missing)}"


if __name__ == "__main__":
    import tempfile

    recorded = {}
    for case_id in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            recorded[case_id] = _run(case_id, pathlib.Path(tmp))
    GOLDENS.write_text(json.dumps(recorded, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
