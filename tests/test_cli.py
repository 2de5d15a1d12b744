"""The CLI checks.  This file and conftest.py import only the standard
library, pytest and eulergas, so that they run where only the runtime is
installed; the hypothesis property test is in test_cli_properties.py."""

import ast
import csv
import hashlib
import importlib
import io
import json
import math
import os
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from decimal import Decimal
from pathlib import Path

import pytest

import eulergas
from eulergas import modular
from eulergas.cli import _json_value, _sweep_columns, build_parser, main


def run_cli(capsys, *argv):
    # no call may hang: each answers or refuses within 5 s
    start = time.monotonic()
    code = main(list(argv))
    assert time.monotonic() - start < 5.0, argv
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_rows(text):
    lines = [line for line in text.splitlines() if line]
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


# ---------------------------------------------------------------------------
# per-command behavior
# ---------------------------------------------------------------------------

def test_partition_with_oracle_check(capsys):
    code, out, _ = run_cli(capsys, "partition", "--n", "100",
                           "--method", "rademacher", "--oracle-check",
                           "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    row = doc["rows"][0]
    assert row["value"] == 190569292
    assert row["match"] is True
    assert 0.0 <= row["residual"] < 0.25


@pytest.mark.parametrize("method", ["leading", "asymptotic"])
def test_partition_estimate_past_a_double_is_a_usage_error(capsys, method):
    # the estimate at n = 79 445 is above 1e308; from 79 446 on it is refused
    # naming that limit, with one line and exit 2 instead of an OverflowError
    code, out, _ = run_cli(capsys, "partition", "--n", "79445", "--method",
                           method, "--format", "json")
    assert code == 0
    assert json.loads(out)["rows"][0]["value"] > 1e308
    for n in ("79446", "1000000"):
        code, out, err = run_cli(capsys, "partition", "--n", n, "--method",
                                 method, "--format", "json")
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and "n <= 79445" in err


def test_thermo_json_keys(capsys):
    code, out, _ = run_cli(capsys, "thermo", "--x", "1", "--format", "json")
    assert code == 0
    row = json.loads(out)["rows"][0]
    for key in ("f_over_kT", "n_occ", "e_over_kT", "s_over_k", "tail_bound"):
        assert key in row
    assert row["s_over_k"] == pytest.approx(
        row["e_over_kT"] - row["f_over_kT"], rel=1e-15)


def test_farey_csv(capsys):
    code, out, _ = run_cli(capsys, "farey", "--order", "3", "--format", "csv")
    assert code == 0
    rows = csv_rows(out)
    assert [r["numerator"] + "/" + r["denominator"] for r in rows] == [
        "0/1", "1/3", "1/2", "2/3", "1/1"]


def test_ford_circle_and_triple(capsys):
    code, out, _ = run_cli(capsys, "ford", "--fraction", "1/2", "--format", "csv")
    assert code == 0
    assert csv_rows(out)[0]["radius"] == "1/8"
    code, out, _ = run_cli(capsys, "ford", "--triple", "0/1,1/2,1/1",
                           "--format", "csv")
    assert code == 0
    rows = csv_rows(out)
    assert rows[0]["re"] == "2/5" and rows[0]["im"] == "1/5"
    assert rows[1]["re"] == "3/5" and rows[1]["im"] == "1/5"


def test_dedekind_both_conventions(capsys):
    code, out, _ = run_cli(capsys, "dedekind", "--p", "1", "--q", "2",
                           "--format", "json")
    assert code == 0
    rows = json.loads(out)["rows"]
    values = {r["convention"]: r["value"] for r in rows}
    assert values == {"classical": "0/1", "paper": "1/4"}


def test_eta_check_small_residual(capsys):
    code, out, _ = run_cli(capsys, "eta", "--tau", "0.3,0.8",
                           "--check", "shift", "--format", "json")
    assert code == 0
    assert json.loads(out)["rows"][0]["check_residual"] < 1e-12


def test_blackbody_row(capsys):
    code, out, _ = run_cli(capsys, "blackbody", "--nu", "1e12",
                           "--temperature", "300", "--format", "json")
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert row["u_general"] >= row["u_conventional"] > 0.0
    ratio = row["frac_noise_general_lf"] / row["frac_noise_rj"]
    assert ratio == pytest.approx(12.0 * row["x"] / math.pi ** 2, rel=1e-12)


def test_phonon_low_temperature_banner(capsys):
    code, out, err = run_cli(capsys, "phonon", "--n-atoms", "6e23",
                             "--volume", "1e-5", "--temperature", "2",
                             "--c-ph", "3500", "--format", "json")
    assert code == 0
    assert "electronic" in err
    row = json.loads(out)["rows"][0]
    assert row["cv_general"] == pytest.approx(
        row["cv_conventional"] * 1.2020569031595943, rel=1e-12)


def test_quartz_preset_reference_columns(capsys):
    code, out, _ = run_cli(capsys, "quartz", "--preset", "p5-5mhz",
                           "--format", "json")
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert row["a_ph"] == pytest.approx(4.977e-4, rel=1e-3)
    assert row["h_minus_1"] == pytest.approx(7.777e-24, rel=1e-3)
    assert row["reference_h_minus_1"] == 6e-24
    assert 0.5 < row["h_minus_1_over_reference"] < 2.0


_PRESET = ("c_ph = 3500\nq_factor = 2e6\ncarrier = 5e6\n"
           "active_volume = 1e-6\ntemperature = 300\n")


@pytest.mark.parametrize("extra, key", [("q_factr = 3\n", "q_factr"),
                                        ("reference_foo = 1\n", "reference_foo")])
def test_preset_file_with_an_unknown_key_is_a_usage_error(capsys, tmp_path,
                                                          extra, key):
    # a typo beside the five spec keys is refused, as --constants refuses one
    preset = tmp_path / "typo.cfg"
    preset.write_text(_PRESET + extra)
    code, out, err = run_cli(capsys, "quartz", "--preset", str(preset))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert repr(key) in err


def test_preset_file_with_a_repeated_key_is_a_usage_error(capsys, tmp_path):
    # the last line does not silently win over the first
    preset = tmp_path / "twice.cfg"
    preset.write_text(_PRESET + "q_factor = 3\n")
    code, out, err = run_cli(capsys, "quartz", "--preset", str(preset))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert "'q_factor' given twice" in err


def test_constants_file_with_a_repeated_key_is_a_usage_error(capsys, tmp_path):
    constants = tmp_path / "twice.cfg"
    constants.write_text("h = 1e-33\nh = 6.62607015e-34\n")
    code, out, err = run_cli(capsys, "blackbody", "--nu", "1e12",
                             "--temperature", "300", "--constants",
                             str(constants))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert "'h' given twice" in err


def test_mellin_check_command(capsys):
    code, out, _ = run_cli(capsys, "mellin-check", "--s", "2",
                           "--kind", "occupation", "--format", "json")
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert row["rel_diff"] < 1e-6


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def test_energy_sweep_columns(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--quantity", "energy",
                           "--start", "1e-3", "--stop", "20", "--points", "9",
                           "--scale", "log", "--format", "csv")
    assert code == 0
    rows = csv_rows(out)
    assert list(rows[0]) == ["x", "exact", "lowfreq", "planck", "zeropoint"]
    assert len(rows) == 9
    # endpoints exact, all cells filled
    assert float(rows[0]["x"]) == 1e-3 and float(rows[-1]["x"]) == 20.0
    assert all(all(cell for cell in row.values()) for row in rows)


@pytest.mark.parametrize("start, stop", [(1, 40), (0, 5000)])
def test_partition_sweep_matches(capsys, start, stop):
    code, out, _ = run_cli(capsys, "sweep", "--quantity", "partition",
                           "--start", str(start), "--stop", str(stop),
                           "--format", "csv")
    assert code == 0
    rows = csv_rows(out)
    assert [int(r["n"]) for r in rows] == list(range(start, stop + 1))
    assert all(r["match"] == "true" for r in rows)


@pytest.mark.parametrize("start, stop, err", [
    ("0.5", "3.7", "error: partition sweep needs an integer --start, got 0.5\n"),
    ("5", "5.5", "error: partition sweep needs an integer --stop, got 5.5\n"),
])
def test_partition_sweep_refuses_non_integral_bounds(capsys, start, stop, err):
    # 0.5..3.7 used to sweep n = 0..3 while echoing 0.5 and 3.7
    assert run_cli(capsys, "sweep", "--quantity", "partition",
                   "--start", start, "--stop", stop) == (2, "", err)
    # an integral float is an integer
    code, out, _ = run_cli(capsys, "sweep", "--quantity", "partition",
                           "--start", "1e3", "--stop", "1002", "--format", "json")
    assert code == 0
    assert [row["n"] for row in json.loads(out)["rows"]] == [1000, 1001, 1002]


def test_noise_sweep_slopes(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--quantity", "frac-noise",
                           "--start", "1e4", "--stop", "1e6", "--points", "8",
                           "--scale", "log", "--temperature", "300",
                           "--volume", "1e-3", "--models", "rj,general-lf",
                           "--format", "csv")
    assert code == 0
    rows = csv_rows(out)

    def slope(model):
        # least-squares slope of ln S against ln nu
        return statistics.linear_regression(
            [math.log(float(r["nu"])) for r in rows],
            [math.log(float(r[model])) for r in rows]).slope

    assert abs(slope("rj") + 2.0) < 1e-6
    assert abs(slope("general-lf") + 1.0) < 1e-6


def test_sweep_fills_general_emissivity_at_small_x(capsys):
    # general emissivity has a value at every x > 0 (here x from 1.6e-7),
    # so every cell of every model is filled and no row carries an error note
    code, out, _ = run_cli(capsys, "sweep", "--quantity", "emissivity",
                           "--start", "1e6", "--stop", "1e13", "--points", "5",
                           "--scale", "log", "--temperature", "300",
                           "--format", "json")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == 5
    for row in rows:
        assert "errors" not in row
        assert 0.0 < row["general"] < row["general-lf"]
    assert rows[0]["general"] == pytest.approx(rows[0]["general-lf"], rel=1e-6)


def test_sweep_annotates_arithmetic_errors(capsys):
    # the conventional column divides by expm1(0) at x = 0; that cell goes
    # null with a note like the others and the rest of the sweep is filled
    code, out, _ = run_cli(capsys, "sweep", "--quantity", "occupation",
                           "--start", "0", "--stop", "1", "--points", "11",
                           "--format", "json")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == 11
    first = rows[0]
    assert [first[m] for m in ("exact", "lowfreq", "conventional")] == [None] * 3
    assert "conventional=" in first["errors"]
    for row in rows[1:]:
        assert "errors" not in row
        assert row["conventional"] == pytest.approx(1.0 / math.expm1(row["x"]),
                                                    rel=1e-15)


def test_conventional_occupation_vanishes_at_large_x(capsys):
    # e^{-x}/(1 - e^{-x}) underflows to 0 where 1/(e^x - 1) would overflow
    code, out, _ = run_cli(capsys, "sweep", "--quantity", "occupation",
                           "--start", "700", "--stop", "800", "--points", "3",
                           "--format", "json")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert all("errors" not in row for row in rows)
    assert rows[0]["conventional"] == pytest.approx(math.exp(-700.0),
                                                    rel=1e-15)
    assert [row["conventional"] for row in rows[1:]] == [0.0, 0.0]


@pytest.mark.parametrize("argv", [
    ("partition", "--n", "100001", "--method", "oracle"),
    # refused before the series for p(10^10) is summed
    ("partition", "--n", "10000000000", "--oracle-check"),
    ("sweep", "--quantity", "partition", "--start", "0", "--stop", "1e10",
     "--models", "oracle"),
    ("sweep", "--quantity", "partition", "--start", "1", "--stop", "100001"),
    ("sweep", "--quantity", "energy", "--start", "0.1", "--stop", "1",
     "--points", "100000000000"),
    ("sweep", "--quantity", "energy", "--start", "0.1", "--stop", "1",
     "--points", "100001"),
])
def test_oracle_and_sweep_caps_refuse_at_once(capsys, argv):
    start = time.monotonic()
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    assert time.monotonic() - start < 1.0
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1
    assert "at most 100000 points" in err or "n <= 100000" in err


def test_sweep_at_the_cap_is_taken():
    # the largest grid passes the cap; SweepGrid checks it when built
    from eulergas.cli import SweepGrid
    assert len(SweepGrid(0.1, 1.0, 100_000, "linear").values()) == 100_000


@pytest.mark.parametrize("argv", [
    # stop/start overflows
    ("--start", "1e-200", "--stop", "1e200", "--points", "5", "--scale", "log"),
    ("--start", "5e-324", "--stop", "1e308", "--points", "4", "--scale", "log"),
    # stop - start overflows
    ("--start=-1.5e308", "--stop", "1.5e308", "--points", "3"),
    ("--start=-1.5e308", "--stop", "1.5e308", "--points", "6"),
    # the last ratio power overflows, and the grid ends at stop instead
    ("--start", "1", "--stop", "1.7976931348623157e308", "--points", "5",
     "--scale", "log"),
])
def test_sweep_grids_that_overflow_stay_finite(capsys, argv):
    code, out, err = run_cli(capsys, "sweep", "--quantity", "energy", *argv,
                             "--format", "json")
    assert code == 0, err
    doc = json.loads(out)
    xs = [row["x"] for row in doc["rows"]]
    points = int(argv[argv.index("--points") + 1])
    assert len(xs) == points
    assert xs[0] == doc["params"]["start"] and xs[-1] == doc["params"]["stop"]
    assert all(math.isfinite(x) for x in xs)
    assert all(a < b for a, b in zip(xs, xs[1:]))


@pytest.mark.parametrize("argv, flag", [
    (("partition", "--start", "0", "--stop", "3", "--scale", "log"), "scale"),
    (("partition", "--start", "0", "--stop", "3", "--points", "4"), "points"),
    (("energy", "--start", "0.1", "--stop", "1", "--temperature", "300"),
     "temperature"),
    (("occupation", "--start", "0.1", "--stop", "1", "--volume", "2"),
     "volume"),
    (("free-energy", "--start", "0.1", "--stop", "1", "--volume", "1"),
     "volume"),
])
def test_sweeps_refuse_flags_they_do_not_use(capsys, argv, flag):
    # a flag the quantity has no use for is a usage error, not dropped,
    # also when it holds the value the used flag defaults to
    code, out, err = run_cli(capsys, "sweep", "--quantity", *argv,
                             "--format", "json")
    assert code == 2 and out == ""
    assert err == f"error: {argv[0]} sweep takes no --{flag}\n"


_QUARTZ_FLAGS = (("--q-factor", "3"), ("--carrier", "5e6"), ("--volume", "1e-6"),
                 ("--temperature", "300"), ("--c-ph", "3500"))


@pytest.mark.parametrize("argv, message", [
    *((("quartz", "--preset", "p5-5mhz", flag, value),
       f"quartz with --preset takes no {flag}") for flag, value in _QUARTZ_FLAGS),
    *((("phonon", "--n-atoms", "6e23", "--volume", "1e-5", "--temperature", "77",
        "--c-ph", "3500", flag, "4000"), f"phonon with --c-ph takes no {flag}")
      for flag in ("--c-transverse", "--c-longitudinal")),
    (("sweep", "--quantity", "energy", "--start", "0.1", "--stop", "1",
      "--points", "3", "--models", "exact,planck,exact"),
     "energy sweep names model 'exact' twice"),
    (("mellin-check", "--s", "172", "--kind", "energy"),
     "energy Mellin check needs s <= 171.62"),
    (("mellin-check", "--s", "1e308", "--kind", "occupation"),
     "occupation Mellin check needs s <= 171.62"),
])
def test_flags_that_would_be_ignored_are_refused(capsys, argv, message):
    # a value the command would drop, or a model column named twice, is a
    # usage error on one line rather than a silent choice
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: {message}")


def test_oracle_cells_past_the_cap_go_null(capsys, monkeypatch):
    # the cap lowered to 50, so that the table stays small
    monkeypatch.setattr(eulergas.arith, "_ORACLE_MAX_N", 50)
    code, out, _ = run_cli(capsys, "sweep", "--quantity", "partition",
                           "--start", "49", "--stop", "51", "--format", "json")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [row["n"] for row in rows] == [49, 50, 51]
    assert [row["oracle"] for row in rows] == [173525, 204226, None]
    assert "oracle=the partition oracle takes n <= 50" in rows[2]["errors"]
    assert rows[2]["rademacher"] == 239943 and rows[2]["match"] is None


# ---------------------------------------------------------------------------
# determinism and round-trips
# ---------------------------------------------------------------------------

def test_byte_identical_reruns(capsys):
    argv = ("sweep", "--quantity", "occupation", "--start", "0.01",
            "--stop", "5", "--points", "11", "--scale", "log",
            "--format", "json")
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    assert first == second


def test_csv_round_trip_bit_identical(capsys):
    from eulergas.thermo import thermo_per_mode
    code, out, _ = run_cli(capsys, "thermo", "--x", "0.7", "--format", "csv")
    assert code == 0
    row = csv_rows(out)[0]
    tm = thermo_per_mode(0.7)
    assert float(row["f_over_kT"]) == tm.f_over_kT
    assert float(row["n_occ"]) == tm.n_occ
    assert float(row["e_over_kT"]) == tm.e_over_kT
    assert float(row["s_over_k"]) == tm.s_over_k


def test_json_round_trip_bit_identical(capsys):
    from eulergas.modular import asymptotic_p
    code, out, _ = run_cli(capsys, "partition", "--n", "321",
                           "--method", "asymptotic", "--format", "json")
    assert code == 0
    assert json.loads(out)["rows"][0]["value"] == asymptotic_p(321)


def test_csv_cells_holding_a_comma_are_quoted(capsys):
    # the errors note at x = 0 holds commas; quoted, every row keeps the
    # header's width and the note comes back whole
    code, out, _ = run_cli(capsys, "sweep", "--quantity", "occupation",
                           "--start", "0", "--stop", "1", "--points", "3",
                           "--format", "csv")
    assert code == 0
    header, *rows = csv.reader(io.StringIO(out))
    assert header == ["x", "exact", "lowfreq", "conventional", "errors"]
    assert [len(row) for row in rows] == [5, 5, 5]
    assert rows[0][4] == ("exact=need finite x > 0, got 0.0; "
                          "lowfreq=need finite x > 0, got 0.0; "
                          "conventional=float division by zero")
    assert [row[4] for row in rows[1:]] == ["", ""]


@pytest.mark.parametrize("quantity,start,temperature", [
    ("emissivity", "1e6", "1e-300"), ("frac-noise", "1e-320", "300")])
def test_radiation_sweeps_name_the_inputs_they_refuse(capsys, quantity,
                                                      start, temperature):
    # a Rayleigh-Jeans or general-lf cell holds its value or an
    # OverflowError naming nu, T and V: no errno tuple from nu ** 2 and no
    # bare division by zero
    code, out, _ = run_cli(capsys, "sweep", "--quantity", quantity,
                           "--start", start, "--stop", "1e300", "--points",
                           "30", "--scale", "log", "--temperature",
                           temperature, "--format", "json")
    assert code == 0
    refused = 0
    for row in json.loads(out)["rows"]:
        notes = dict(note.split("=", 1)
                     for note in row.get("errors", "").split("; ") if note)
        for model in ("rayleigh-jeans", "rj", "general-lf"):
            if model in notes:
                refused += 1
                assert notes[model].startswith(f"{model} ")
                assert notes[model].endswith(" exceeds the largest double")
                assert ", V=1 " in notes[model]
            elif model in row:
                assert row[model] is not None
    assert refused == (0 if quantity == "emissivity" else 11)


@pytest.mark.parametrize("argv, text", [
    (("farey", "--order", "3", "--format", "csv"),
     "index,numerator,denominator,value\n0,0,1,0.0\n1,1,3,0.33333333333333331\n"
     "2,1,2,0.5\n3,2,3,0.66666666666666663\n4,1,1,1.0\n"),
    (("quartz", "--preset", "p5-5mhz", "--format", "json"),
     '{"schema": 1, "command": "quartz", "params": {"preset": "p5-5mhz"}, '
     '"rows": [{"q_factor": 2000000.0, "carrier": 5000000.0, '
     '"active_volume": 9.9999999999999995e-07, "temperature": 300.0, '
     '"c_ph": 3500.0, "a_ph": 0.00049772393399296819, '
     '"h_minus_1": 7.7769364686401281e-24, '
     '"reference_a_ph": 0.00050000000000000001, '
     '"a_ph_over_reference": 0.99544786798593632, '
     '"reference_h_minus_1": 5.9999999999999999e-24, '
     '"h_minus_1_over_reference": 1.2961560781066881}]}\n'),
    (("blackbody", "--nu", "1e12", "--temperature", "300", "--format", "json"),
     '{"schema": 1, "command": "blackbody", "params": {"nu": 1000000000000.0, '
     '"temperature": 300.0, "volume": 1.0}, "rows": [{"nu": 1000000000000.0, '
     '"x": 0.15997476911220737, "u_conventional": 3.5627160143866626e-21, '
     '"u_general": 3.7820403914503396e-20, '
     '"e_b_planck": 2.6701884777723518e-13, '
     '"e_b_rayleigh_jeans": 2.8956295495391357e-13, '
     '"e_b_general": 2.8345679630204486e-12, '
     '"e_b_general_lf": 2.9774193252114808e-12, '
     '"frac_noise_rj": 1.0720677928512621, '
     '"frac_noise_general_lf": 0.20852361330521171, '
     '"frac_noise_einstein": 1.2580514671953062}]}\n'),
    # at V != 1 the two operand orders of the Rayleigh-Jeans term round apart
    (("blackbody", "--nu", "1e12", "--temperature", "300", "--volume", "1e-3",
      "--format", "json"),
     '{"schema": 1, "command": "blackbody", "params": {"nu": 1000000000000.0, '
     '"temperature": 300.0, "volume": 0.001}, "rows": [{"nu": 1000000000000.0, '
     '"x": 0.15997476911220737, "u_conventional": 3.5627160143866617e-24, '
     '"u_general": 3.7820403914503396e-23, '
     '"e_b_planck": 2.6701884777723518e-13, '
     '"e_b_rayleigh_jeans": 2.8956295495391357e-13, '
     '"e_b_general": 2.8345679630204486e-12, '
     '"e_b_general_lf": 2.9774193252114808e-12, '
     '"frac_noise_rj": 1072.0677928512619, '
     '"frac_noise_general_lf": 208.52361330521168, '
     '"frac_noise_einstein": 1258.0514671953063}]}\n'),
    (("blackbody", "--nu", "1e11", "--temperature", "300", "--volume", "0.37",
      "--format", "json"),
     '{"schema": 1, "command": "blackbody", "params": {"nu": 100000000000.0, '
     '"temperature": 300.0, "volume": 0.37}, "rows": [{"nu": 100000000000.0, '
     '"x": 0.015997476911220738, "u_conventional": 1.4180958085660849e-23, '
     '"u_general": 1.4627391021133132e-21, '
     '"e_b_planck": 2.8725299197940814e-15, '
     '"e_b_rayleigh_jeans": 2.8956295495391362e-15, '
     '"e_b_general": 2.9629604786166431e-13, '
     '"e_b_general_lf": 2.9774193252114805e-13, '
     '"frac_noise_rj": 289.74805212196264, '
     '"frac_noise_general_lf": 5.6357733325732893, '
     '"frac_noise_einstein": 294.42056445150689}]}\n'),
])
def test_output_bytes_are_pinned(capsys, argv, text):
    # the SI constants and the p5-5mhz preset as literals, and CSV from the
    # csv module, print the bytes the packaged files and the joined cells did
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    assert out == text


@pytest.mark.parametrize("value, text", [
    (0.0, "0.0"), (-0.0, "-0.0"), (2e6, "2000000.0"), (1.0, "1.0"),
    (1e16, "10000000000000000.0"), (1e17, "1e+17"), (0.5, "0.5"),
    (-2.5e-300, "-2.5e-300"), (5e-324, "4.9406564584124654e-324"),
    (0.1, "0.10000000000000001"), (7, "7"), (True, "true"),
])
def test_json_floats_carry_a_point_or_an_exponent(value, text):
    # an integral float gains ".0" and keeps its type through json.loads;
    # every other float keeps its 17-digit text, ints stay ints
    assert _json_value(value) == text
    back = json.loads(text)
    assert type(back) is type(value) and back == value
    assert repr(back) == repr(value)  # -0.0 keeps its sign


@pytest.mark.parametrize("argv", [
    ["eta", "--tau", "0.301221,0.786085", "--check", "inversion"],
    ["farey", "--order", "2"],
    ["quartz", "--preset", "p5-5mhz"],
    ["mellin-check", "--s", "2", "--kind", "free-energy"],
])
def test_library_floats_parse_as_floats(capsys, argv):
    # each field the library hands over as a float parses back as a float,
    # integral ones (a Farey value 0, q_factor 2e6, a residual 0.0) too
    args = build_parser().parse_args(argv)
    doc = args.handler(args)
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    got = json.loads(out)
    for want, row in zip([doc["params"], *doc["rows"]],
                         [got["params"], *got["rows"]]):
        assert list(row) == list(want)
        for key, value in want.items():
            assert type(row[key]) is type(value) and row[key] == value, key
    if argv[0] == "eta":
        residual = got["rows"][0]["check_residual"]
        assert type(residual) is float and residual <= 1e-15


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

def test_usage_error_exit_code(capsys):
    assert run_cli(capsys, "thermo", "--no-such-flag", "1")[0] == 2
    assert run_cli(capsys, "partition", "--n", "-3")[0] == 2
    assert run_cli(capsys, "farey", "--order", "100000")[0] == 2


def test_unreduced_fraction_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "ford", "--fraction", "2/4")
    assert code == 2
    assert "not reduced" in err


def test_computation_error_serialized(capsys, monkeypatch):
    # every remainder bound 0.55 under a target of 0.6 stops the series at
    # 2 terms, one past the count the bound's floor rules out, and their
    # residual + error bound cannot fall below 1/2
    monkeypatch.setattr(modular, "_REM_TARGET", 0.6)
    monkeypatch.setattr(modular, "_remainder_bound", lambda n, terms: 0.55)
    code, out, err = run_cli(capsys, "partition", "--n", "100")
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1
    error = json.loads(err)["error"]
    assert list(error) == ["type", "message", "terms_used", "residual"]
    assert error["type"] == "ConvergenceError"
    assert "not certified" in error["message"]
    assert error["terms_used"] == 2 and 0.0 <= error["residual"] <= 0.5


@pytest.mark.parametrize("argv", [
    ("thermo", "--x", "1", "--rel-tol", "2"),
    ("farey", "--order", "2", "--rel-tol", "2"),
    ("eta", "--tau", "0.1,0.9", "--rel-tol", "1e-6"),
    ("partition", "--n", "100", "--max-terms", "10"),
    ("partition", "--n", "100", "--convention", "classical"),
    ("sweep", "--quantity", "partition", "--start", "1", "--stop", "5",
     "--convention", "paper"),
])
def test_removed_flags_are_usage_errors(capsys, argv):
    # the precision targets are fixed and p(n) has one convention, so
    # --rel-tol, --max-terms and partition's --convention are unknown flags
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "unrecognized arguments" in err


@pytest.mark.parametrize("n, digits, tail, max_terms", [
    (1000, 32, "24061467864032622473692149727991", 34),
    (10 ** 6, 1108, "15630003467104673818", 446),
])
def test_partition_row_carries_its_certificate(capsys, n, digits, tail,
                                               max_terms):
    code, out, _ = run_cli(capsys, "partition", "--n", str(n),
                           "--format", "json")
    assert code == 0
    row = json.loads(out)["rows"][0]
    value = str(row["value"])
    assert len(value) == digits and value.endswith(tail)
    assert list(row)[3:6] == ["terms_used", "residual", "error_bound"]
    assert 0.0 < row["error_bound"] < 0.25
    assert row["residual"] + row["error_bound"] < 0.5
    # no more terms than Rademacher's bound |A_q(n)| <= q takes
    assert row["terms_used"] <= max_terms


@pytest.mark.parametrize("argv", [
    ("thermo", "--x", "inf"),
    ("thermo", "--x", "nan"),
    ("mellin-check", "--s", "nan", "--kind", "free-energy"),
    ("mellin-check", "--s", "inf", "--kind", "energy"),
    ("blackbody", "--nu", "1e12", "--temperature", "inf"),
    ("blackbody", "--nu", "1e12", "--temperature", "300", "--volume", "inf"),
    ("phonon", "--n-atoms", "inf", "--volume", "1e-5", "--temperature", "77",
     "--c-ph", "3500"),
    ("quartz", "--q-factor", "inf", "--carrier", "5e6", "--volume", "1e-6",
     "--temperature", "300", "--c-ph", "3500"),
    ("sweep", "--quantity", "energy", "--start", "0.1", "--stop", "inf",
     "--points", "3"),
    ("sweep", "--quantity", "emissivity", "--start", "nan", "--stop", "1e9",
     "--points", "3", "--scale", "log", "--temperature", "300"),
])
def test_non_finite_input_is_refused(capsys, argv):
    # DomainError is the usage-error exit code, with the message on stderr
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "finite" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("phonon", "--n-atoms", "6e23", "--volume", "1e-5",
     "--temperature", "1e-300", "--c-ph", "3500"),
    ("blackbody", "--nu", "1e20", "--temperature", "300"),
    ("eta", "--tau", "0,1e300"),
    ("eta", "--tau", "0,1e-300"),
    ("eta", "--tau", "0,inf"),
    ("eta", "--tau", "nan,1"),
    ("eta", "--tau", "1e308,1", "--check", "shift"),
    ("sweep", "--quantity", "partition", "--start=nan", "--stop", "5"),
    ("sweep", "--quantity", "free-energy", "--start", "0", "--stop", "1",
     "--points", "3"),
])
def test_extreme_inputs_exit_cleanly(capsys, argv):
    # an escaping exception would fail the call itself
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 0:
        json.loads(out)


@pytest.mark.parametrize("tau, code", [
    ("0,inf", 2),       # non-finite tau is refused
    ("nan,1", 2),
    ("0,1e-300", 0),    # eta(i/t) underflows, so eta(i t) is 0
    ("0,1e300", 0),     # |y| underflows: the product is exactly 1
])
def test_eta_at_the_edges_of_the_half_plane(capsys, tau, code):
    got, out, err = run_cli(capsys, "eta", "--tau", tau, "--format", "json")
    assert got == code
    if code == 2:
        assert err.startswith("error: ") and "finite" in err
    else:
        assert json.loads(out)["rows"][0]["eta_abs"] == 0.0


_CONSTANTS_ARGVS = [
    ("blackbody", "--nu", "1e12", "--temperature", "300"),
    ("phonon", "--n-atoms", "6e23", "--volume", "1e-5", "--temperature", "77",
     "--c-ph", "3500"),
    ("quartz", "--preset", "p5-5mhz"),
    ("sweep", "--quantity", "emissivity", "--start", "1e12", "--stop", "2e12",
     "--points", "2", "--temperature", "300"),
]


@pytest.mark.parametrize("argv", _CONSTANTS_ARGVS)
def test_bad_constants_file_is_a_usage_error(capsys, tmp_path, argv):
    # a missing file, a directory and h = inf: one line on stderr, exit 2
    inf_h = tmp_path / "inf.cfg"
    inf_h.write_text("h = inf\n")
    for path in (tmp_path / "missing.cfg", tmp_path, inf_h):
        code, out, err = run_cli(capsys, *argv, "--constants", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_constants_read_only_where_used(capsys, tmp_path):
    # thermo quantities take no h, k or c, so a sweep of one refuses the file
    code, out, err = run_cli(capsys, "sweep", "--quantity", "energy",
                             "--start", "1", "--stop", "2", "--points", "2",
                             "--constants", str(tmp_path / "missing.cfg"))
    assert code == 2 and out == ""
    assert err == "error: energy sweep takes no --constants\n"


@pytest.mark.parametrize("argv", [
    ("partition", "--n", "50"),
    ("farey", "--order", "3"),
    ("ford", "--fraction", "1/2"),
    ("dedekind", "--p", "1", "--q", "3"),
    ("eta", "--tau", "0.1,0.9"),
    ("thermo", "--x", "1"),
    ("mellin-check", "--s", "3", "--kind", "energy"),
])
def test_constants_is_unknown_where_h_k_and_c_are_not_used(capsys, tmp_path,
                                                           argv):
    code, out, err = run_cli(capsys, *argv, "--constants",
                             str(tmp_path / "missing.cfg"))
    assert code == 2 and out == ""
    assert "unrecognized arguments: --constants" in err


_QUARTZ = ("quartz", "--carrier", "5e6", "--volume", "1e-6",
           "--temperature", "300", "--c-ph", "3500")


@pytest.mark.parametrize("argv", [
    ("blackbody", "--nu", "1e-300", "--temperature", "1e300"),
    ("blackbody", "--nu", "1e300", "--temperature", "300"),
    (*_QUARTZ, "--q-factor", "1e-300"),
    (*_QUARTZ, "--q-factor", "1e-100"),
    ("mellin-check", "--s", "200", "--kind", "free-energy"),
    ("thermo", "--x", "1e-306"),
])
def test_arithmetic_errors_are_computation_errors(capsys, argv):
    # overflow and division by zero end in one line on stderr, no traceback
    code, out, err = run_cli(capsys, *argv)
    assert code in (1, 2)
    assert out == ""
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ("blackbody", "--nu", "1e12", "--temperature", "1e-320"),
    ("blackbody", "--nu", "1e-320", "--temperature", "300"),
])
def test_mode_x_outside_the_doubles_is_a_usage_error(capsys, argv):
    # k T or h nu underflows: x = h nu/kT is refused, naming nu, T and x
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: x = h*nu/kT at nu=")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("kind", ["free-energy", "occupation", "energy"])
def test_mellin_check_at_large_s(capsys, kind):
    code, out, err = run_cli(capsys, "mellin-check", "--s", "107", "--kind",
                             kind, "--format", "json")
    assert code == 0 and err == ""
    assert json.loads(out)["rows"][0]["rel_diff"] < 1e-15


@pytest.mark.parametrize("s,kind", [("29.81", "free-energy"), ("30", "occupation"),
                                    ("29.81", "energy")])
def test_mellin_check_where_the_quadrature_divided_by_zero(capsys, s, kind):
    # the tanh-sinh rule's error estimate raised ZeroDivisionError at these s
    # on some hosts, and the call exited 1
    code, out, err = run_cli(capsys, "mellin-check", "--s", s, "--kind", kind,
                             "--format", "json")
    assert code == 0 and err == ""
    assert json.loads(out)["rows"][0]["rel_diff"] < 1e-15


def test_non_finite_result_is_a_computation_error(capsys):
    # x_m = theta_D/T overflows at T = 1e-310; JSON has no inf to print
    code, out, err = run_cli(capsys, "phonon", "--n-atoms", "6e23",
                             "--volume", "1e-5", "--temperature", "1e-310",
                             "--c-ph", "3500", "--format", "json")
    assert code == 1
    assert out == ""
    assert "x_m" in json.loads(err.splitlines()[-1])["error"]["message"]


def test_choice_lists_match_the_library_enums(capsys):
    # the parser spells its choices out, so that building it imports no
    # subsystem; they must stay the values of the enums the handlers build
    from eulergas.radiation import EmissivityModel, NoiseModel
    from eulergas.thermo import EtaTransform, MellinKind
    commands = next(a.choices for a in build_parser()._actions
                    if a.dest == "command")

    def choices(command, dest):
        return next(a.choices for a in commands[command]._actions
                    if a.dest == dest)

    assert choices("mellin-check", "kind") == tuple(k.value for k in MellinKind)
    assert choices("eta", "check") == ("none", *(t.value for t in EtaTransform))
    # the sweep columns come from the enums, whose order is the column order
    for quantity, enum, columns in (
            ("emissivity", EmissivityModel,
             ("planck", "rayleigh-jeans", "general", "general-lf")),
            ("frac-noise", NoiseModel, ("rj", "general-lf", "einstein"))):
        args = build_parser().parse_args(
            ["sweep", "--quantity", quantity, "--start", "1", "--stop", "2",
             "--temperature", "300"])
        assert tuple(_sweep_columns(quantity, args)[1]) == columns
        assert tuple(m.value for m in enum) == columns
    # the blackbody row has a column per model, in the enums' order
    code, out, _ = run_cli(capsys, "blackbody", "--nu", "1e12", "--temperature",
                           "300", "--format", "json")
    assert code == 0
    keys = ["nu", "x", "u_conventional", "u_general",
            *(f"e_b_{m.value}" for m in EmissivityModel),
            *(f"frac_noise_{m.value}" for m in NoiseModel)]
    assert list(json.loads(out)["rows"][0]) == [k.replace("-", "_") for k in keys]


def test_overflowed_planck_prefactor_is_a_computation_error(capsys):
    # 8 pi h V nu^3/c^3 overflows at V = 1e300, nu = 1e100, while e^{-x}
    # underflows: u is 0, not nan, and the Einstein shot term overflows
    code, out, err = run_cli(capsys, "blackbody", "--nu", "1e100",
                             "--temperature", "300", "--volume", "1e300",
                             "--format", "json")
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"]["type"] == "OverflowError"


def test_planck_density_past_the_doubles_names_its_inputs(capsys):
    # nu^3 overflows; so does the value, and the error says where
    code, out, err = run_cli(capsys, "blackbody", "--nu", "1e150",
                             "--temperature", "1e300")
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == {
        "type": "OverflowError",
        "message": "planck spectral density at nu=1e+150, T=1e+300, V=1 "
                   "exceeds the largest double"}


def test_underflowed_planck_density_is_a_computation_error(capsys):
    # at x ~ 1.6e7 the Planck density underflows to 0, so the shot term of
    # the Einstein noise overflows: a computation error, not a usage error
    code, out, err = run_cli(capsys, "blackbody", "--nu", "1e20",
                             "--temperature", "300", "--format", "json")
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"]["type"] == "OverflowError"


@pytest.mark.parametrize("argv, message", [
    (("blackbody", "--nu", "1e20", "--temperature", "300"),
     "einstein noise at nu=1e+20, T=300, V=1 exceeds the largest double"),
    (("phonon", "--n-atoms", "6e23", "--volume", "1e-5", "--temperature",
      "1e300", "--c-ph", "3500"),
     "energy variance at n_atoms=6e+23, volume=1e-05, temperature=1e+300, "
     "c_ph=3500 exceeds the largest double"),
    ((*_QUARTZ, "--q-factor", "1e-100"),
     "h_-1 at q_factor=1e-100, carrier=5e+06, active_volume=1e-06, "
     "temperature=300, c_ph=3500 exceeds the largest double"),
])
def test_overflow_names_the_quantity_and_its_inputs(capsys, argv, message):
    # one rule for every radiation and phonon value: no errno tuple, no bare
    # division by zero
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert json.loads(err)["error"] == {"type": "OverflowError",
                                        "message": message}


@pytest.mark.parametrize("argv, key, value", [
    # c_ph^3 overflows, nu_m = 2.4e119 does not; it read the errno tuple
    (("phonon", "--n-atoms", "6e23", "--volume", "1e-5", "--temperature",
      "77", "--c-ph", "1e110"), "nu_m", 2.4285900630052811e+119),
    # Q^4 overflows, and h_-1 underflows to 0.0; it read the errno tuple
    ((*_QUARTZ, "--q-factor", "1e100"), "h_minus_1", 0.0),
])
def test_values_that_fit_a_double_are_printed(capsys, argv, key, value):
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    assert json.loads(out)["rows"][0][key] == value


def test_lowfreq_cells_past_the_doubles_name_x(capsys):
    # ln(x/2pi) at x = 5e-324 read "math domain error"
    code, out, _ = run_cli(capsys, "sweep", "--quantity", "energy", "--start",
                           "5e-324", "--stop", "1e308", "--points", "4",
                           "--scale", "log", "--format", "json")
    assert code == 0
    first = json.loads(out)["rows"][0]
    assert first["lowfreq"] is None
    assert ("lowfreq=low-frequency E/kT at x=4.94066e-324 exceeds the largest "
            "double") in first["errors"]


def test_json_value_round_trips_a_5000_digit_int():
    value = 10 ** 4999 + 12345
    limit = sys.get_int_max_str_digits()
    text = _json_value(value)
    assert sys.get_int_max_str_digits() == limit
    assert json.loads(text, parse_int=Decimal) == value


_COMMANDS = next(a.choices for a in build_parser()._actions
                 if a.dest == "command")

_SUBCOMMAND_ARGVS = [
    ["partition", "--n", "50"],
    ["farey", "--order", "3"],
    ["ford", "--fraction", "1/2"],
    ["dedekind", "--p", "1", "--q", "3"],
    ["eta", "--tau", "0.1,0.9"],
    ["thermo", "--x", "1"],
    ["blackbody", "--nu", "1e12", "--temperature", "300"],
    ["phonon", "--n-atoms", "6e23", "--volume", "1e-5", "--temperature", "77",
     "--c-ph", "3500"],
    ["quartz", "--preset", "p5-5mhz"],
    ["mellin-check", "--s", "3", "--kind", "energy"],
    ["sweep", "--quantity", "energy", "--start", "0.1", "--stop", "1",
     "--points", "3"],
]


# What each call loads besides eulergas.cli and .errors: the other eulergas
# submodules, and whether mpmath is loaded.  A sweep loads what its quantity
# uses.  Only the exact-arithmetic calls load arith, and with it fractions.
_LOADS = {
    "farey": (("arith",), False),
    "ford": (("arith",), False),
    "dedekind": (("arith",), False),
    "thermo": (("thermo",), False),
    "sweep energy": (("thermo",), False),
    "blackbody": (("radiation", "thermo"), False),
    "sweep frac-noise": (("radiation", "thermo"), False),
    "sweep free-energy": (("thermo",), False),
    "phonon": (("phonon", "radiation", "thermo"), False),
    "quartz": (("phonon", "radiation", "thermo"), False),
    "mellin-check": (("thermo",), False),
    "eta": (("thermo",), False),
    "partition": (("arith", "modular", "thermo"), True),
    "sweep partition": (("arith", "modular", "thermo"), True),
}
_MORE_ARGVS = [
    ["sweep", "--quantity", "frac-noise", "--start", "1e4", "--stop", "1e6",
     "--points", "3", "--temperature", "300"],
    ["sweep", "--quantity", "partition", "--start", "1", "--stop", "5"],
    # eta's inversion and the Mellin checks up to the largest s, which must
    # answer without mpmath
    ["eta", "--tau", "0.3,0.8", "--check", "inversion"],
    *(["mellin-check", "--s", s, "--kind", kind] for s, kind in (
        ("2", "free-energy"), ("2", "occupation"), ("170", "energy"),
        ("171.5", "energy"), ("29.81", "free-energy"), ("30", "occupation"),
        ("171.6", "occupation"))),
    ["thermo", "--x", "1e-12"],  # per-mode values at small x
    # the pentagonal and Clausen sums from the switch to where e^{-x}
    # underflows, and the closed forms just below the switch, where the
    # parts they drop are largest
    ["thermo", "--x", "0.9"],
    ["thermo", "--x", "745"],
    ["thermo", "--x", "0.8999999999999999"],
    ["sweep", "--quantity", "free-energy", "--start", "0.9", "--stop", "800",
     "--points", "40", "--scale", "log"],
    ["dedekind", "--p", "1", "--q", "1000000000000"],
]


def test_cli_runs_without_scipy():
    # the runtime needs mpmath alone, and each call imports only what its
    # subcommand uses: a fresh interpreter, so modules imported by other
    # tests do not count, in which eulergas and mpmath are imported afresh
    # for every call.  Each call answers within 5 s, as a table and as
    # valid JSON
    assert {argv[0] for argv in _SUBCOMMAND_ARGVS} == set(_COMMANDS)
    cases = []
    for argv in _SUBCOMMAND_ARGVS + _MORE_ARGVS:
        key = f"sweep {argv[2]}" if argv[0] == "sweep" else argv[0]
        extra, mpmath = _LOADS[key]
        modules = sorted(f"eulergas.{m}" for m in ("cli", "errors", *extra))
        cases.append((argv, modules, mpmath))
    script = f"""
import io, json, sys, time
from contextlib import redirect_stdout

def reject(name):
    raise ValueError(f"{{name}} is not JSON")

def loaded():
    return (sorted(m for m in sys.modules if m.startswith("eulergas.")),
            "mpmath" in sys.modules)

def forget():
    # and the two stdlib modules a float subcommand must not load
    for name in [m for m in sys.modules if m.partition(".")[0] in
                 ("eulergas", "mpmath", "dataclasses", "fractions")]:
        del sys.modules[name]

import eulergas
assert loaded() == ([], False), ("import eulergas", loaded())
for argv, modules, mpmath in {cases!r}:
    forget()
    from eulergas.cli import main
    for fmt in ("table", "json"):
        out = io.StringIO()
        start = time.monotonic()
        with redirect_stdout(out):
            assert main([*argv, "--format", fmt]) == 0, (argv, fmt)
        assert time.monotonic() - start < 5.0, (argv, fmt)
    json.loads(out.getvalue(), parse_constant=reject)
    assert loaded() == (modules, mpmath), (argv, loaded())
    if "eulergas.arith" not in modules:
        # a float subcommand builds no dataclass and no Fraction
        for name in ("dataclasses", "fractions"):
            assert name not in sys.modules, (argv, name)
assert "scipy" not in sys.modules, "scipy was imported"
assert "numpy" not in sys.modules, "numpy was imported"

forget()
import eulergas
assert len(eulergas.__all__) == len(set(eulergas.__all__)) == 61
for name in eulergas.__all__:
    value = getattr(eulergas, name)
    home = sys.modules[value.__module__]
    assert home is not eulergas and getattr(home, name) is value, name
"""
    src = str(Path(eulergas.__file__).resolve().parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(
               filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_imports_stay_in_the_runtime():
    # a stray import of a test dependency here would fail only where the
    # runtime alone is installed
    allowed = {*sys.stdlib_module_names, "pytest", "eulergas"}
    for path in (Path(__file__), Path(__file__).with_name("conftest.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.partition(".")[0] in allowed, (path.name, name)


def test_each_module_exports_what_the_package_does():
    # one public surface: a submodule's __all__ is its list in _EXPORTS
    for module, names in eulergas._EXPORTS.items():
        home = importlib.import_module(f"eulergas.{module}")
        assert set(home.__all__) == set(names), module


def _without_mpmath(tmp_path, argv):
    """Run the CLI in a fresh interpreter with an mpmath package that cannot
    be imported first on the path."""
    (tmp_path / "mpmath").mkdir()
    (tmp_path / "mpmath" / "__init__.py").write_text(
        'raise ImportError("mpmath is kept out of this test")\n')
    src = str(Path(eulergas.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(tmp_path), src])}
    return subprocess.run([sys.executable, "-m", "eulergas.cli", *argv,
                           "--format", "json"], env=env,
                          capture_output=True, text=True, timeout=60)


@pytest.mark.parametrize("argv, values", [
    (["partition", "--n", "50", "--method", "oracle"], [204226]),
    (["sweep", "--quantity", "partition", "--start", "0", "--stop", "3",
      "--models", "oracle"], [1, 1, 2, 3]),
])
def test_the_oracle_runs_without_mpmath(tmp_path, argv, values):
    # the pentagonal oracle lives in arith: neither it nor its sweep column
    # loads modular, so they answer without mpmath
    proc = _without_mpmath(tmp_path, argv)
    assert (proc.returncode, proc.stderr) == (0, "")
    rows = json.loads(proc.stdout)["rows"]
    assert [row.get("value", row.get("oracle")) for row in rows] == values


@pytest.mark.parametrize("argv", [
    ["partition", "--n", "50"],
    ["sweep", "--quantity", "partition", "--start", "0", "--stop", "5"],
])
def test_exact_p_without_mpmath_is_a_computation_error(tmp_path, argv):
    # an mpmath package that cannot be imported, first on the path: one
    # JSON error line and exit 1, no traceback
    proc = _without_mpmath(tmp_path, argv)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert "Traceback" not in proc.stderr
    assert [json.loads(line) for line in proc.stderr.splitlines()] == [
        {"schema": 1, "error": {"type": "ImportError",
                                "message": "mpmath is kept out of this test"}}]


# ---------------------------------------------------------------------------
# the output corpus
# ---------------------------------------------------------------------------

CORPUS = Path(__file__).with_name("cli_corpus.jsonl")


def replay(argv):
    """argv, its exit code and the SHA-256 of its stdout and of its stderr,
    from an in-process run: one line of the corpus."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return {"argv": list(argv), "code": code,
            "stdout": hashlib.sha256(out.getvalue().encode()).hexdigest(),
            "stderr": hashlib.sha256(err.getvalue().encode()).hexdigest()}


def test_cli_bytes_match_the_corpus():
    # every argv of the corpus prints the bytes it printed when
    # tests/write_cli_corpus.py last wrote it
    lines = [json.loads(line) for line in CORPUS.read_text().splitlines()]
    changed = [line["argv"] for line in lines if replay(line["argv"]) != line]
    assert len(lines) > 100
    assert changed == []
