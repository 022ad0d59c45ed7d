"""Command-line interface: flags, formats, exit codes, reference values."""

import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from dualbch import cli, cyclotomic
from dualbch.bch import Family
from dualbch.cli import main
from dualbch.cyclotomic import MAX_N
from dualbch.mindist import MAX_SEARCH_ELEMS
from dualbch.propchecks import MANIFEST_SCHEMA


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as e:  # argparse usage errors exit directly
        code = e.code
    out = capsys.readouterr()
    return code, out.out, out.err


# SHA-256 of the json report of each command.  Update a hash only when a
# change alters the report bytes on purpose (a new bound column would), and
# list that change in CHANGES.md.
REPORT_HASHES = [
    (["dual-bound", "--q", "3", "--m", "6", "--s", "2", "--delta", "10"],
     "26d09d79ce2f70c391b80e6e9852c8d79960cd2033799ee62e244d0f0b8f91e1"),
    (["dual-bound", "--q", "5", "--m", "4", "--lambda", "2", "--delta", "247"],
     "1f21507258fcdc5815bcdeab0171563a615c230667d2c855bb1920697ff2b94c"),
    (["dually-bch", "--q", "3", "--m", "4", "--lambda", "1", "--delta-range", "2:80"],
     "7a7a76dfc6d4b08e3b2e15c9270e41d5d9c1b242d99c10a58365dd082f3a2cdd"),
    (["cosets", "--q", "2", "--m", "6", "--s", "2", "--members"],
     "7a3432d6db89ae35ef8ff3af6aef88f78960092b21e8071dc7f4127b7704600a"),
    (["verify", "--only", "bounds", "--only", "dually_bch"],
     "2c54777ee4392ff1fd9255433ceaf4cf7f075b61a9648470ae66daefe08b5b72"),
    # m/s = 2 < 3: the direct columns, and null closed columns
    (["dual-bound", "--q", "2", "--m", "4", "--s", "2", "--delta", "3"],
     "3ced56e220ea0a010bd37d662a26337d8b41833241db05a1ed00c281abec9a85"),
    # the GF(7) [342, 6] dual, certified by the exhaustive walk
    (["dual-bound", "--q", "7", "--m", "3", "--lambda", "1", "--delta", "3", "--certify"],
     "38f2d5a75ca3d022dad501c3c551e92f52ef649af0942f830f81d510df022483"),
]


@pytest.mark.parametrize("argv,digest", REPORT_HASHES, ids=[
    "dual-bound-power-form", "dual-bound-divisor-form", "dually-bch-range",
    "cosets-members", "verify-bounds-dually-bch", "dual-bound-outside-hypotheses",
    "dual-bound-certify-gf7"])
def test_report_bytes_pinned(capsys, argv, digest):
    code, out, err = run(capsys, *argv, "--format", "json")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def section(out_json, name):
    for sec in json.loads(out_json)["sections"]:
        if sec["name"] == name:
            return sec
    raise KeyError(name)


class TestCosets:
    def test_power_form_top_leader_no_closed_form(self, capsys):
        code, out, _ = run(capsys, "cosets", "--q", "3", "--m", "6", "--s", "2",
                           "--top", "1", "--format", "json")
        assert code == 0
        sec = section(out, "largest_leaders")
        assert sec["rows"] == [[1, 49, "n/a (s>1: no closed form)", None]]

    def test_full_modulus_top3_agrees_with_closed_form(self, capsys):
        code, out, _ = run(capsys, "cosets", "--q", "2", "--m", "6",
                           "--lambda", "1", "--top", "3", "--format", "json")
        assert code == 0
        sec = section(out, "largest_leaders")
        assert sec["rows"] == [[1, 31, 31, True], [2, 27, 27, True],
                               [3, 23, 23, True]]

    def test_modulus_40(self, capsys):
        code, out, _ = run(capsys, "cosets", "--q", "3", "--n", "40",
                           "--top", "2", "--format", "json")
        assert code == 0
        rep = json.loads(out)
        assert rep["inputs"] == {"q": 3, "n": 40, "m": 4, "lambda": 2}
        sec = section(out, "largest_leaders")
        assert [r[1] for r in sec["rows"]] == [25, 22]
        assert all(r[3] for r in sec["rows"])

    def test_modulus_order_found_once(self, capsys, monkeypatch):
        # cosets --n reads the order its table's build found, and the
        # members' orbit scatters read it too: n and phi(n) are factored once
        calls = []
        factorize = cyclotomic.factorize
        monkeypatch.setattr(cyclotomic, "factorize", lambda k: calls.append(k) or factorize(k))
        code, out, _ = run(capsys, "cosets", "--q", "2", "--n", "63", "--members",
                           "--format", "json")
        assert code == 0
        assert json.loads(out)["inputs"] == {"q": 2, "n": 63, "m": 6, "lambda": 1}
        assert calls == [63, 36]

    def test_members_section(self, capsys):
        code, out, _ = run(capsys, "cosets", "--q", "2", "--n", "7",
                           "--members", "--format", "json")
        assert code == 0
        sec = section(out, "cosets")
        assert sec["rows"] == [[0, 1, "0"], [1, 3, "1 2 4"], [3, 3, "3 5 6"]]

    def test_no_closed_form_flag(self, capsys):
        code, out, _ = run(capsys, "cosets", "--q", "2", "--m", "6",
                           "--lambda", "1", "--no-closed-form", "--format", "json")
        assert code == 0
        assert section(out, "largest_leaders")["columns"] == ["rank", "leader"]

    def test_small_m_has_no_closed_form(self, capsys):
        code, out, _ = run(capsys, "cosets", "--q", "2", "--m", "3",
                           "--lambda", "1", "--format", "json")
        assert code == 0
        rows = section(out, "largest_leaders")["rows"]
        assert all(r[2] == "n/a (m<4: no closed form)" for r in rows)

    def test_modulus_of_vast_order_leaves_lambda_out(self, capsys):
        # 2 has order 1000002 mod the prime 1000003, so q^m has 301,030
        # digits; lambda is not taken and no closed form is looked up
        code, out, err = run(capsys, "cosets", "--q", "2", "--n", "1000003",
                             "--top", "3", "--format", "json")
        assert (code, err) == (0, "")
        rep = json.loads(out)
        assert rep["inputs"] == {"q": 2, "n": 1000003, "m": 1000002, "lambda": None}
        assert section(out, "summary")["rows"] == [[1000003, 2, 1000002, None, 2]]
        rows = section(out, "largest_leaders")["rows"]
        assert [r[1] for r in rows] == [1, 0]
        assert all(r[2] == cli.NO_CLOSED_FORM_LAMBDA and r[3] is None for r in rows)

    def test_bad_modulus_exits_1(self, capsys):
        code, _, err = run(capsys, "cosets", "--q", "2", "--n", "6")
        assert code == 1
        assert "gcd" in err

    def test_n_and_m_conflict(self, capsys):
        code, _, err = run(capsys, "cosets", "--q", "2", "--n", "7", "--m", "3")
        assert code == 1

    @pytest.mark.parametrize("flags", [("--s", "2", "--lambda", "7"),
                                       ("--lambda", "7", "--s", "2")])
    def test_lambda_and_s_conflict(self, capsys, flags):
        # --s used to win silently: n = 21 instead of an error
        code, out, err = run(capsys, "cosets", "--q", "2", "--m", "6", *flags)
        assert (code, out) == (1, "")
        assert "not allowed with argument" in err

    def test_lambda_must_divide(self, capsys):
        code, _, err = run(capsys, "cosets", "--q", "2", "--m", "4", "--lambda", "7")
        assert code == 1
        assert "lambda" in err

    def test_top_0_exits_1(self, capsys):
        code, _, err = run(capsys, "cosets", "--q", "2", "--m", "6",
                           "--lambda", "1", "--top", "0")
        assert code == 1
        assert "dualbch cosets: error: argument --top" in err

    @pytest.mark.parametrize("q", [6, 10**4299 + 1, 6**5525],
                             ids=["6", "10^4299+1", "6^5525"])
    @pytest.mark.parametrize("argv", [["cosets", "--n", "35"],
                                      ["dual-bound", "--m", "2", "--lambda", "1", "--delta", "2"]],
                             ids=["cosets", "dual-bound"])
    def test_q_not_a_prime_power_exits_1(self, capsys, q, argv):
        # up to the 4300 digits that int() parses
        code, out, err = run(capsys, argv[0], "--q", str(q), *argv[1:])
        assert (code, out) == (1, "")
        assert err == f"dualbch {argv[0]}: error: q={q} is not a prime power\n"

    def test_large_composite_q_exits_1_at_once(self):
        # a 60-digit product of two primes: factorising it would take minutes,
        # but a prime power is a perfect power of a prime, which is quick to test
        q = "100000000000000000000000000324700000000000000000000000018183"
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        argv = [sys.executable, "-m", "dualbch", "cosets", "--q", q, "--n", "7"]
        proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=5)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == f"dualbch cosets: error: q={q} is not a prime power\n"

    @pytest.mark.parametrize("flag,value,rest", [
        ("--s", "0", ["--m", "4"]),
        ("--s", "-2", ["--m", "6"]),
        ("--m", "-3", ["--lambda", "1"]),
        ("--m", "0", ["--s", "1"]),
    ])
    def test_m_and_s_below_1_exit_1(self, capsys, flag, value, rest):
        code, out, err = run(capsys, "cosets", "--q", "2", flag, value, *rest)
        assert (code, out) == (1, "")
        assert f"dualbch cosets: error: argument {flag}: must be >= 1, got {value}" in err


OVERSIZED = [
    ["dual-bound", "--q", "2", "--m", "40", "--lambda", "1", "--delta", "3"],
    ["dually-bch", "--q", "2", "--m", "40", "--lambda", "1", "--delta", "3"],
    ["cosets", "--q", "2", "--m", "40", "--lambda", "1"],
    ["cosets", "--q", "2", "--n", str(MAX_N + 1)],
    ["cosets", "--q", "2", "--n", str(10**30 + 57)],
    # n = p q with two 60-bit primes: ord_n(2) needs n factored, which
    # takes Pollard-Brent about 10^9 steps, so the cap must come first
    ["cosets", "--q", "2", "--n", str(1000000000000000003 * 3000000000000000037)],
]
VAST = [
    ["dually-bch", "--q", "3", "--m", "10000", "--lambda", "1", "--delta", "3"],
    ["dual-bound", "--q", "3", "--m", "10000", "--lambda", "1", "--delta", "3"],
    ["cosets", "--q", "3", "--m", "10000", "--lambda", "1"],
    ["dually-bch", "--q", "3", "--m", "30000000", "--lambda", "1",
     "--delta", "3"],
    ["dual-bound", "--q", "2", "--m", "30000000", "--s", "2", "--delta", "3"],
    ["cosets", "--q", "3", "--m", "30000000", "--s", "1"],
]
VAST_IDS = ["dually-bch", "dual-bound", "cosets", "dually-bch-3e7",
            "dual-bound-3e7-s", "cosets-3e7-s"]
S_EQUAL_TO_M = [
    ["cosets", "--q", "3", "--m", "10000", "--s", "10000"],
    ["dually-bch", "--q", "3", "--m", "3000000", "--s", "3000000", "--delta", "2"],
    ["dual-bound", "--q", "3", "--m", "3000000", "--s", "3000000", "--delta", "2"],
    ["cosets", "--q", "2", "--m", "4", "--s", "4"],
]
S_EQUAL_TO_M_IDS = ["cosets-1e4", "dually-bch-3e6", "dual-bound-3e6", "cosets-small"]


class TestSizeGuard:
    @pytest.mark.parametrize("argv", OVERSIZED)
    def test_oversized_length_exits_1(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert f"dualbch {argv[0]}: error: n=" in err
        assert f"exceeds the size cap {MAX_N}" in err

    @pytest.mark.parametrize("argv", VAST, ids=VAST_IDS)
    def test_vast_m_refused_from_bit_lengths(self, capsys, argv):
        # q^m has thousands of digits, too many to print, or millions, which
        # take about a minute to compute; neither is needed to refuse
        t0 = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - t0 < 1.0
        assert (code, out) == (1, "")
        q, m = argv[2], argv[4]
        assert err == (f"dualbch {argv[0]}: error: n=(q^m-1)/lambda with q={q}, "
                       f"m={m} is 2^64 or more, too large to compute\n")

    @pytest.mark.parametrize("argv", S_EQUAL_TO_M, ids=S_EQUAL_TO_M_IDS)
    def test_s_equal_to_m_refused_before_q_pow_m(self, capsys, argv):
        # n = 1 passes the size cap, but lambda = q^m - 1 may be vast
        t0 = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - t0 < 1.0
        assert (code, out) == (1, "")
        m = argv[4]
        assert err == (f"dualbch {argv[0]}: error: s={m} equals m, so "
                       f"n = (q^m-1)/(q^s-1) = 1; need s < m\n")

    @pytest.mark.parametrize("argv", OVERSIZED + VAST + S_EQUAL_TO_M)
    def test_refused_before_allocation(self, capsys, argv):
        # numpy reports its buffers to tracemalloc, and a table modulo
        # MAX_N + 1 alone would take 64 MiB
        run(capsys, "cosets", "--q", "2", "--n", "7")  # warm lazy imports
        tracemalloc.start()
        t0 = time.perf_counter()
        try:
            code, out, err = run(capsys, *argv)
            seconds = time.perf_counter() - t0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (code, out) == (1, "")
        assert err.startswith(f"dualbch {argv[0]}: error: ")
        assert "Traceback" not in err
        assert seconds < 1.0
        assert peak < 4 << 20, peak


class TestDualBound:
    @pytest.mark.parametrize("extra", [[], ["--certify", "--trials", "2", "--seed", "0"]],
                             ids=["plain", "certify"])
    def test_one_defining_set_per_call(self, capsys, monkeypatch, extra):
        # the dimensions come from bound_report's set, and the certificate's
        # generator from the table's leaders, not from a second set
        import dualbch.bch as bch
        import dualbch.dualtools as dualtools

        calls = []
        original = bch.defining_set

        def counting(spec, table):
            calls.append(spec.delta)
            return original(spec, table)

        for module in (bch, dualtools, cli):
            monkeypatch.setattr(module, "defining_set", counting)
        code, out, _ = run(capsys, "dual-bound", "--q", "2", "--m", "6", "--lambda", "1",
                           "--delta", "15", "--format", "json", *extra)
        assert code == 0 and calls == [15]
        assert section(out, "parameters")["rows"] == [[63, 24, 39, 15]]

    def test_binary_delta3_certified(self, capsys):
        code, out, _ = run(capsys, "dual-bound", "--q", "2", "--m", "6",
                           "--lambda", "1", "--delta", "3", "--certify",
                           "--seed", "0", "--format", "json")
        assert code == 0
        bounds = section(out, "dual_distance_bounds")
        assert bounds["rows"] == [[31, 31, 32, 32]]
        cert = section(out, "distance_certificate")
        row = dict(zip(cert["columns"], cert["rows"][0]))
        assert row["status"] == "exact" and row["upper"] == 32

    def test_certificate_values(self, capsys):
        code, out, _ = run(capsys, "dual-bound", "--q", "5", "--m", "2",
                           "--lambda", "1", "--delta", "3", "--certify",
                           "--format", "json")
        assert code == 0
        sec = section(out, "distance_certificate")
        row = dict(zip(sec["columns"], sec["rows"][0]))
        assert row["lower"] == 16 and row["upper"] == 16
        assert row["status"] == "exact"
        assert row["witness_weight"] == 16
        bounds = section(out, "dual_distance_bounds")
        row = dict(zip(bounds["columns"], bounds["rows"][0]))
        assert row["lower_bound_closed"] == 15

    def test_tail_case(self, capsys):
        code, out, _ = run(capsys, "dual-bound", "--q", "3", "--m", "3",
                           "--lambda", "1", "--delta", "26", "--format", "json")
        assert code == 0
        row = dict(zip(section(out, "dual_distance_bounds")["columns"],
                       section(out, "dual_distance_bounds")["rows"][0]))
        assert row["i_delta_direct"] == 1 and row["i_delta_closed"] == 1
        assert row["lower_bound_direct"] == 2 and row["lower_bound_closed"] == 2

    def test_prior_bounds_section(self, capsys):
        code, out, _ = run(capsys, "dual-bound", "--q", "2", "--m", "6",
                           "--lambda", "1", "--delta", "15", "--format", "json")
        assert code == 0
        rows = section(out, "prior_bounds")["rows"]
        named = {r[0]: r for r in rows}
        assert named["carlitz_uchiyama"][2] is True  # vacuous at delta 15
        assert named["sidelnikov"][1] == 4
        assert named["primitive_length"][1] == 8
        assert named["projective_length"][1] == 8

    def test_outside_hypotheses_gives_null_closed_columns(self, capsys):
        # m/s = 2 < 3, outside the closed forms: the direct scan still runs
        code, out, err = run(capsys, "dual-bound", "--q", "2", "--m", "4",
                             "--s", "2", "--delta", "3", "--format", "json")
        assert (code, err) == (0, "")
        row = dict(zip(section(out, "dual_distance_bounds")["columns"],
                       section(out, "dual_distance_bounds")["rows"][0]))
        assert row == {"i_delta_direct": 1, "i_delta_closed": None,
                       "lower_bound_direct": 2, "lower_bound_closed": None}

    def test_trials_0_exits_1(self, capsys):
        code, out, err = run(capsys, "dual-bound", "--q", "2", "--m", "10",
                             "--lambda", "1", "--delta", "33", "--certify",
                             "--trials", "0")
        assert (code, out) == (1, "")
        assert "dualbch dual-bound: error: argument --trials" in err

    @pytest.mark.parametrize("budget", ["0", "-1"])
    def test_budget_below_1_exits_1(self, capsys, budget):
        # a budget below 1 used to switch silently to information-set search
        code, out, err = run(capsys, "dual-bound", "--q", "2", "--m", "6",
                             "--lambda", "1", "--delta", "3", "--certify",
                             "--budget", budget, "--trials", "1")
        assert (code, out) == (1, "")
        assert ("dualbch dual-bound: error: argument --budget: "
                f"must be >= 1, got {budget}") in err

    def test_negative_seed_exits_1(self, capsys):
        # the information-set search would hand the seed to numpy
        code, out, err = run(capsys, "dual-bound", "--q", "2", "--m", "10",
                             "--lambda", "1", "--delta", "65", "--certify",
                             "--budget", "1", "--trials", "1", "--seed", "-1")
        assert (code, out) == (1, "")
        assert "dualbch dual-bound: error: argument --seed: must be >= 0, got -1" in err

    def test_certify_refuses_oversized_base_field(self, capsys):
        # n = 16 and q k n = 2,096,672 are within their caps, but GF(65521)'s
        # q x q tables would take about 150 GB; they are refused before
        # anything is allocated
        t0 = time.perf_counter()
        code, out, err = run(capsys, "dual-bound", "--q", "65521", "--m", "1",
                             "--lambda", "4095", "--delta", "3", "--certify")
        assert time.perf_counter() - t0 < 2.0
        assert (code, out) == (1, "")
        assert err.startswith("dualbch dual-bound: error: cannot build GF(65521^1): "
                              "q=65521 is above 2048")

    @pytest.mark.parametrize("argv,qkn", [
        # q = 1024: the Gray walk's 1024-row block alone would take 4 GiB
        (["--q", "1024", "--m", "2", "--lambda", "1", "--delta", "2"], 2147481600),
        (["--q", "2048", "--m", "2", "--lambda", "1", "--delta", "2"], 17179865088),
        # GF(65521) is above MAX_SCALAR_Q too, but the search cap is met first
        (["--q", "65521", "--m", "2", "--lambda", "65520", "--delta", "3"],
         17172267848),
    ], ids=["q1024", "q2048", "q65521"])
    def test_certify_refuses_a_search_above_the_cap(self, capsys, monkeypatch, argv, qkn):
        def no_field(q, m):
            raise AssertionError("field built")

        monkeypatch.setattr(cli, "field_new", no_field)
        t0 = time.perf_counter()
        code, out, err = run(capsys, "dual-bound", *argv, "--certify")
        assert time.perf_counter() - t0 < 1.0
        assert (code, out) == (1, "")
        assert "Traceback" not in err
        assert err == (f"dualbch dual-bound: error: --certify: q*dual_dim*n = {qkn} "
                       f"exceeds the search cap {MAX_SEARCH_ELEMS}\n")

    def test_lambda_and_s_conflict(self, capsys):
        code, _, _ = run(capsys, "dual-bound", "--q", "2", "--m", "6",
                         "--lambda", "1", "--s", "1", "--delta", "3")
        assert code == 1

    def test_invalid_family_exits_1(self, capsys):
        code, _, err = run(capsys, "dual-bound", "--q", "5", "--m", "2",
                           "--lambda", "3", "--delta", "3")
        assert code == 1


class TestDuallyBch:
    def test_flip_at_389(self, capsys):
        code, out, _ = run(capsys, "dually-bch", "--q", "3", "--m", "9",
                           "--s", "3", "--delta-range", "380:400",
                           "--format", "json")
        assert code == 0
        rows = section(out, "verdicts")["rows"]
        verdicts = {r[0]: r[1] for r in rows}
        assert all(not verdicts[d] for d in range(380, 389))
        assert all(verdicts[d] for d in range(389, 401))
        closed = {r[0]: r[3] for r in rows}
        assert closed == verdicts  # closed forms agree everywhere here
        assert section(out, "true_intervals")["rows"] == [[389, 400]]
        # range stops short of n, so no threshold claim
        assert section(out, "summary")["rows"] == [[None]]

    def test_threshold_247(self, capsys):
        code, out, _ = run(capsys, "dually-bch", "--q", "5", "--m", "4",
                           "--lambda", "2", "--delta-range", "2:312",
                           "--format", "json")
        assert code == 0
        assert section(out, "summary")["rows"] == [[247]]

    def test_threshold_95(self, capsys):
        code, out, _ = run(capsys, "dually-bch", "--q", "7", "--m", "3",
                           "--lambda", "3", "--delta-range", "2:114",
                           "--format", "json")
        assert code == 0
        assert section(out, "summary")["rows"] == [[95]]

    def test_threads_match_serial(self, capsys):
        _, out1, _ = run(capsys, "dually-bch", "--q", "5", "--m", "4",
                         "--lambda", "2", "--delta-range", "240:260",
                         "--format", "json")
        _, out4, _ = run(capsys, "dually-bch", "--q", "5", "--m", "4",
                         "--lambda", "2", "--delta-range", "240:260",
                         "--threads", "4", "--format", "json")
        assert json.loads(out1)["sections"] == json.loads(out4)["sections"]

    def test_single_delta(self, capsys):
        code, out, _ = run(capsys, "dually-bch", "--q", "2", "--m", "6",
                           "--lambda", "1", "--delta", "15", "--format", "json")
        assert code == 0
        rows = section(out, "verdicts")["rows"]
        assert rows == [[15, False, 9, False]]

    def test_binary_exceptional_small_interval(self, capsys):
        code, out, _ = run(capsys, "dually-bch", "--q", "2", "--m", "6",
                           "--lambda", "1", "--delta-range", "2:63",
                           "--format", "json")
        assert code == 0
        assert section(out, "true_intervals")["rows"] == [[2, 3], [28, 63]]
        assert section(out, "summary")["rows"] == [[27]]

    def test_one_family_per_sweep(self, capsys, monkeypatch):
        # the closed column is decided once per family, not once per delta
        calls = []

        def counting(*args):
            calls.append(args)
            return Family(*args)

        monkeypatch.setattr(cli, "Family", counting)
        code, out, _ = run(capsys, "dually-bch", "--q", "2", "--m", "6",
                           "--lambda", "1", "--delta-range", "2:63",
                           "--format", "json")
        assert code == 0
        assert len(section(out, "verdicts")["rows"]) == 62
        assert calls == [(2, 6, 1, None)]

    @pytest.mark.parametrize("fmt", ["table", "csv", "json"])
    def test_outside_hypotheses_closed_column_is_empty(self, capsys, fmt):
        # q = 2 needs m >= 6 for the threshold theorem
        code, out, _ = run(capsys, "dually-bch", "--q", "2", "--m", "4",
                           "--lambda", "1", "--delta-range", "2:15",
                           "--format", fmt)
        assert code == 0
        if fmt == "json":
            rows = section(out, "verdicts")["rows"]
            closed = [r[3] for r in rows]
            assert closed == [None] * 14
        elif fmt == "csv":
            block = out.split("#section:verdicts\n", 1)[1].split("\n\n", 1)[0]
            rows = list(csv.reader(io.StringIO(block)))
            assert rows[0] == ["delta", "dually_bch", "witness", "closed_form"]
            assert [r[3] for r in rows[1:]] == [""] * 14
        else:
            block = out.split("== verdicts ==\n", 1)[1].split("\n\n", 1)[0]
            lines = block.splitlines()
            assert lines[0].split() == ["delta", "dually_bch", "witness", "closed_form"]
            # the empty last cell leaves three cells on every data row
            assert [len(line.split()) for line in lines[2:]] == [3] * 14

    def test_requires_exactly_one_delta_flag(self, capsys):
        code, _, _ = run(capsys, "dually-bch", "--q", "2", "--m", "6",
                         "--lambda", "1")
        assert code == 1
        code, _, _ = run(capsys, "dually-bch", "--q", "2", "--m", "6",
                         "--lambda", "1", "--delta", "3",
                         "--delta-range", "2:5")
        assert code == 1

    def test_bad_range_string(self, capsys):
        code, _, err = run(capsys, "dually-bch", "--q", "2", "--m", "6",
                           "--lambda", "1", "--delta-range", "5")
        assert code == 1
        code, _, _ = run(capsys, "dually-bch", "--q", "2", "--m", "6",
                         "--lambda", "1", "--delta-range", "9:5")
        assert code == 1

    def test_range_outside_n(self, capsys):
        code, _, _ = run(capsys, "dually-bch", "--q", "2", "--m", "6",
                         "--lambda", "1", "--delta-range", "2:64")
        assert code == 1


class TestVerify:
    def test_full_run_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--format", "json")
        assert code == 0
        rows = section(out, "checks")["rows"]
        assert all(r[-1] == "OK" for r in rows)
        sections_seen = {r[0] for r in rows}
        assert sections_seen == {"leaders", "closed_forms", "bounds",
                                 "certify", "dually_bch", "grids"}

    def test_only_leaders(self, capsys):
        code, out, _ = run(capsys, "verify", "--only", "leaders",
                           "--format", "json")
        assert code == 0
        rows = section(out, "checks")["rows"]
        assert {r[0] for r in rows} == {"leaders"}
        assert len(rows) == 4

    def test_unknown_section_exits_1(self, capsys):
        code, _, err = run(capsys, "verify", "--only", "nonsense")
        assert code == 1

    def test_threads_0_exits_1(self, capsys):
        code, out, err = run(capsys, "verify", "--only", "grids", "--threads", "0")
        assert (code, out) == (1, "")
        assert "dualbch verify: error: argument --threads: must be >= 1" in err

    def test_threads_flag_is_ignored(self, capsys):
        serial = run(capsys, "verify", "--only", "grids")
        assert serial[0] == 0
        assert run(capsys, "verify", "--only", "grids", "--threads", "4") == serial

    @pytest.mark.parametrize("text,message", [
        (None, "No such file or directory"),
        ("{", "Expecting property name"),
        ('{"schema": "nope", "grids": []}', "unrecognised manifest schema: 'nope'"),
        (("mystery", {"q": 2, "m": 3}), "unknown lemma_id in manifest: 'mystery'"),
        (("leader_floor_power_form", {"q": 2, "s": 1, "m": 2}), "m/s = 2/1 < 3"),
        (("leader_floor_power_form", {"q": 2.0, "s": 2, "m": 6}),
         "q must be an integer"),
        (("leader_floor_power_form", {"q": 2, "s": 0, "m": 6}),
         "s=0 must be a positive divisor of m=6"),
        # a 2^40-element coset table would not fit; refused before allocation
        (("leader_floor_power_form", {"q": 2, "s": 1, "m": 40}),
         f"n={2**40 - 1} exceeds the size cap {MAX_N}"),
        # a list is no dict key: this was a TypeError traceback
        ((["x"], {"q": 2, "s": 1, "m": 6}),
         "manifest needs a list of grids, each with a string lemma_id"),
    ], ids=["missing", "invalid-json", "schema", "lemma-id", "hypotheses",
            "float-q", "zero-s", "oversized", "list-lemma-id"])
    def test_bad_grids_exit_1(self, capsys, tmp_path, text, message):
        p = tmp_path / "grids.json"
        if isinstance(text, tuple):  # one grid with one case
            text = json.dumps({"schema": MANIFEST_SCHEMA, "grids": [
                {"lemma_id": text[0], "cases": [text[1]]}]})
        if text is not None:
            p.write_text(text)
        code, out, err = run(capsys, "verify", "--only", "grids", "--grids", str(p))
        assert (code, out) == (1, "")
        assert err.startswith(f"dualbch verify: error: grid manifest {p}: ")
        assert message in err

    def test_packaged_grid_error_is_not_a_usage_error(self, monkeypatch):
        # the default grid is tested, so an error on it is a library defect
        import dualbch.cli as cli

        monkeypatch.setattr(cli, "run_grid", lambda manifest: int("defect"))
        with pytest.raises(ValueError, match="defect"):
            main(["verify", "--only", "grids"])

    def test_custom_grids_path(self, capsys, tmp_path):
        manifest = {
            "schema": MANIFEST_SCHEMA,
            "grids": [{"lemma_id": "leader_floor_power_form",
                       "cases": [{"q": 2, "s": 1, "m": 6}]}],
        }
        p = tmp_path / "grids.json"
        p.write_text(json.dumps(manifest))
        code, out, _ = run(capsys, "verify", "--only", "grids",
                           "--grids", str(p), "--format", "json")
        assert code == 0
        rows = section(out, "checks")["rows"]
        assert len(rows) == 1
        assert rows[0][1] == "leader_floor_power_form q=2 s=1 m=6"

    def test_mismatch_exits_2(self, capsys, monkeypatch):
        import dualbch.cli as cli

        monkeypatch.setattr(
            cli, "LEADER_CASES", [(3, 91, 50)])  # wrong on purpose
        code, out, _ = run(capsys, "verify", "--only", "leaders",
                           "--format", "json")
        assert code == 2
        rows = section(out, "checks")["rows"]
        assert rows[0][-1] == "FAIL"


class TestFormats:
    def test_json_round_trips(self, capsys):
        _, out, _ = run(capsys, "dual-bound", "--q", "2", "--m", "6",
                        "--lambda", "1", "--delta", "15", "--format", "json")
        text = out.rstrip("\n")
        assert json.dumps(json.loads(text), indent=2, sort_keys=True) == text

    def test_csv_and_table_render_same_values(self, capsys):
        _, csv_out, _ = run(capsys, "cosets", "--q", "2", "--m", "6",
                            "--lambda", "1", "--format", "csv")
        _, json_out, _ = run(capsys, "cosets", "--q", "2", "--m", "6",
                             "--lambda", "1", "--format", "json")
        blocks = [b for b in csv_out.strip().split("#section:") if b]
        parsed = {}
        for block in blocks:
            lines = block.strip().splitlines()
            rows = list(csv.reader(io.StringIO("\n".join(lines[1:]))))
            parsed[lines[0]] = rows
        leaders_csv = parsed["largest_leaders"]
        sec = section(json_out, "largest_leaders")
        assert leaders_csv[0] == sec["columns"]
        for csv_row, json_row in zip(leaders_csv[1:], sec["rows"]):
            assert csv_row[0] == str(json_row[0])
            assert csv_row[1] == str(json_row[1])
            assert csv_row[3] == ("yes" if json_row[3] else "no")

    def test_table_is_default_and_aligned(self, capsys):
        code, out, _ = run(capsys, "cosets", "--q", "2", "--m", "6",
                           "--lambda", "1")
        assert code == 0
        assert "== largest_leaders ==" in out
        header = [l for l in out.splitlines() if l.startswith("rank")][0]
        assert header.split() == ["rank", "leader", "closed_form", "agree"]

    def test_broken_pipe_exits_1_without_traceback(self):
        # the reader takes 10 bytes of a ~200 kB report and closes the pipe
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        argv = [sys.executable, "-m", "dualbch", "dually-bch", "--q", "2", "--m", "12",
                "--lambda", "1", "--delta-range", "2:4095", "--format", "json"]
        with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              env=env) as proc:
            assert proc.stdout.read(10) == b'{\n  "comma'
            proc.stdout.close()
            err = proc.stderr.read().decode()
            assert proc.wait(timeout=60) == 1
        assert "Traceback" not in err and "BrokenPipeError" not in err, err
