import dataclasses
import json
import math
import types
import warnings

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from frozenplanet import cli, elliptic, frozen, helium, levi_civita, loops, serialize, solve


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture()
def time_map_calls(monkeypatch):
    """Call counts of the time-map entry points: levi_civita's forward and
    tau_of_t, and the zero finder loops.loop_zeros."""
    calls = {}
    for module, name in ((levi_civita, "forward"), (levi_civita, "tau_of_t"), (loops, "loop_zeros")):
        calls[name] = 0

        def counted(*args, _name=name, _fn=getattr(module, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


@pytest.fixture()
def frozen_calls(monkeypatch):
    """The loop size of every call of frozen.certify and hessian_analytic."""
    calls = {}
    for name in ("certify", "hessian_analytic"):
        calls[name] = []

        def counted(z, r, *args, _name=name, _fn=getattr(frozen, name), **kwargs):
            calls[_name].append(z.n)
            return _fn(z, r, *args, **kwargs)

        monkeypatch.setattr(frozen, name, counted)
    return calls


@pytest.fixture()
def eigen_solves(monkeypatch):
    """Call counts of numpy's dense eigensolvers."""
    calls = {}
    for name in ("eig", "eigh", "eigvals", "eigvalsh"):
        calls[name] = 0

        def counted(*args, _name=name, _fn=getattr(np.linalg, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def _strict_json(text):
    def reject(token):
        raise ValueError(f"non-finite JSON constant {token}")

    return json.loads(text, parse_constant=reject)


class TestSolveCommand:
    def test_free_fall_summary(self, capsys, tmp_path):
        out_file = tmp_path / "cert.json"
        code, out, _ = run(
            capsys, "solve", "--r", "0", "--modes", "16", "--out", str(out_file)
        )
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["v"] - 0.5) < 1e-10
        assert payload["ok"] is True
        assert out_file.exists()

    def test_small_parameter_identity_at_rounding(self, capsys):
        # I_1/I_0 at m = -r w^2 / 2 ~ -1e-6 comes from one AGM pass
        code, out, _ = run(capsys, "solve", "--r", "1e-6", "--modes", "32")
        assert code == 0
        assert json.loads(out)["identity_res"][1] < 1e-15

    def test_continues_below_the_requested_size(self, capsys, frozen_calls):
        # solve_frozen continues on a working grid and builds the full-size
        # Hessian only for its forced step and the Newton iterations after it
        code, out, _ = run(capsys, "solve", "--r", "5", "--modes", "128")
        assert code == 0
        assert json.loads(out)["ok"] is True
        assert frozen_calls["hessian_analytic"].count(128) <= 2

    def test_certifies_once_at_the_requested_size(self, capsys, frozen_calls):
        # the working-grid steps are read for their points only, and a step
        # is certified when its certificate is first read
        code, _, _ = run(capsys, "solve", "--r", "5", "--modes", "128")
        assert code == 0
        assert frozen_calls["certify"] == [128]

    def test_runs_no_eigensolver(self, capsys, eigen_solves):
        # every Newton Hessian of the path is decided by its Gershgorin discs
        code, _, _ = run(capsys, "solve", "--r", "5", "--modes", "128")
        assert code == 0
        assert eigen_solves == {"eig": 0, "eigh": 0, "eigvals": 0, "eigvalsh": 0}

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--r", "1e20"],
            ["solve", "--r", "1e300"],
            ["continue", "--from", "0", "--to", "1e20"],
        ],
        ids=["solve-1e20", "solve-1e300", "continue-1e20"],
    )
    def test_huge_parameter_is_tagged_error(self, capsys, argv):
        # the long first steps predict seeds whose norms overflow the
        # functional; each is a tagged DomainError that halves the step, and
        # the path ends stuck, reported as one JSON error without warnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, *argv, "--modes", "16")
        assert code == 2
        assert out == ""
        assert _strict_json(err)["invariant"] == "solve.continuation-stuck"

    def test_reaches_what_continue_reaches(self, capsys):
        # Newton at 32 modes fails from the padded 16-mode endpoint, so
        # solve continues again from the free fall at 32 modes
        code, out, _ = run(capsys, "solve", "--r", "3e6", "--modes", "128")
        assert code == 0
        assert _strict_json(out)["ok"] is True

    def test_large_parameter_misses_tolerance(self, capsys):
        code, out, _ = run(capsys, "solve", "--r", "1e8", "--modes", "16")
        assert code == 1
        payload = _strict_json(out)
        assert payload["ok"] is False
        assert not payload["grad_res"] < payload["config"]["tol"]

    @pytest.mark.parametrize("r", ["nan", "inf", "-1"])
    def test_bad_parameter_is_domain_error(self, capsys, r):
        code, out, err = run(capsys, "solve", f"--r={r}", "--modes", "16")
        assert code == 2
        assert out == ""
        assert json.loads(err)["invariant"] == "frozen.r"

    @pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf", "-inf"])
    def test_bad_tolerance_is_config_error(self, capsys, tol):
        code, out, err = run(capsys, "solve", "--r", "0", "--modes", "8", f"--tol={tol}")
        assert code == 2
        assert out == ""
        assert json.loads(err)["invariant"] == "cli.config"

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--r", "0", "--tol", "-inf"],
            ["solve"],
            ["solve", "--r", "x"],
            ["solve", "--r", "0", "--modes", "1.5"],
            ["bogus"],
            [],
        ],
        ids=["tol-as-option", "missing-argument", "bad-float", "bad-int", "unknown-command", "no-command"],
    )
    def test_usage_error_is_tagged_json(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert json.loads(err)["invariant"] == "cli.config"

    @pytest.mark.parametrize("argv", [["--help"], ["solve", "--help"]])
    def test_help_exits_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 0
        assert "usage: frozenplanet" in capsys.readouterr().out

    def test_reruns_byte_identical(self, capsys):
        code1, out1, _ = run(capsys, "solve", "--r", "0.1", "--modes", "16")
        code2, out2, _ = run(capsys, "solve", "--r", "0.1", "--modes", "16")
        assert code1 == code2 == 0
        assert out1 == out2


class TestEllipticCommand:
    def test_grid_csv(self, capsys, tmp_path):
        out_file = tmp_path / "ell.csv"
        code, out, _ = run(
            capsys, "elliptic", "--grid=-5:0.9:0.35", "--out", str(out_file)
        )
        assert code == 0
        lines = out_file.read_text().strip().splitlines()
        header = lines[0].split(",")
        rec_col = header.index("rec_res")
        for line in lines[1:]:
            assert float(line.split(",")[rec_col]) < 1e-9

    @pytest.mark.parametrize(
        "grid, calls", [("-5:0.9:0.35", 126), ("-1e-7:1e-7:1e-7", 15)]
    )
    def test_rows_reuse_the_reports_values(self, capsys, tmp_path, monkeypatch, grid, calls):
        # each row reads I_0..I_4 and (K, E) off the identity report; below
        # elliptic.M_ORIGIN the report forms I_2 alone and the row the rest.
        # 18 points at 7 calls each, not 12; 3 near-origin points at 5
        lo, hi, step = (float(tok) for tok in grid.split(":"))
        rows = []
        for m in np.arange(lo, hi + 0.5 * step, step):
            rep = elliptic.identities_report(m)
            if rep["rec_res"] is None:
                res = (np.nan, rep["i2_res"], np.nan, np.nan)
            else:
                res = (rep["rec_res"], rep["i2_res"], rep["der_res"], elliptic.riccati_residual(m))
            rows.append((m, *(elliptic.In(n, m) for n in range(5)), *elliptic.KE(m), *res))
        want = serialize.table("m,I0,I1,I2,I3,I4,K,E,rec_res,i2_res,der_res,riccati_res", rows)
        count = []
        integral = elliptic.In
        monkeypatch.setattr(elliptic, "In", lambda n, m: count.append(n) or integral(n, m))
        out_file = tmp_path / "ell.csv"
        code, _, _ = run(capsys, "elliptic", f"--grid={grid}", "--out", str(out_file))
        assert code == 0
        assert len(count) == calls
        assert out_file.read_text() == want

    @pytest.mark.parametrize("grid", ["-1e-8:1e-8:1e-8", "-1e-7:1e-7:1e-7"])
    def test_near_origin_grid(self, capsys, tmp_path, grid):
        # below |m| = 1e-6 the residuals that divide by m are not evaluated:
        # their cells are nan, and only i2_res, against the expansion at 0
        out_file = tmp_path / "ell.csv"
        code, out, _ = run(capsys, "elliptic", f"--grid={grid}", "--out", str(out_file))
        assert code == 0
        assert _strict_json(out)["worst_rec_res"] == 0.0
        header, *rows = out_file.read_text().splitlines()
        cols = dict(zip(header.split(","), np.array([[float(c) for c in row.split(",")] for row in rows]).T))
        assert len(rows) == 3
        for name in ("rec_res", "der_res", "riccati_res"):
            assert np.all(np.isnan(cols[name]))
        assert np.all(cols["i2_res"] < 1e-12)

    def test_control_character_in_echo_is_escaped(self, capsys, tmp_path):
        # the grid parses (float strips the tab), and the echoed config is strict JSON
        grid = "0:0.1:\t0.05"
        code, out, _ = run(capsys, "elliptic", "--grid", grid, "--out", str(tmp_path / "e.csv"))
        assert code == 0
        assert json.loads(out)["config"]["grid"] == grid

    def test_bad_grid_is_config_error(self, capsys):
        for grid in ("nonsense", "nan:1:0.1", "1:0:0.1"):
            code, _, err = run(capsys, "elliptic", "--grid", grid)
            assert code == 2
            assert json.loads(err)["invariant"] == "cli.grid"


class TestCertPipelines:
    @pytest.fixture()
    def cert_file(self, capsys, tmp_path):
        out_file = tmp_path / "cert.json"
        code, _, _ = run(
            capsys, "solve", "--r", "0", "--modes", "16", "--out", str(out_file)
        )
        assert code == 0
        return out_file

    def test_spectrum(self, capsys, cert_file):
        code, out, _ = run(capsys, "spectrum", "--input", str(cert_file))
        assert code == 0
        payload = json.loads(out)
        assert payload["morse_index"] == 0 and payload["nullity"] == 0
        assert payload["ok"] is True

    def test_spectrum_full_space(self, capsys, cert_file):
        code, out, _ = run(
            capsys, "spectrum", "--input", str(cert_file), "--space", "full"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["nullity"] == 1
        assert payload["kernel_alignment"] > 0.999

    def test_identity(self, capsys, cert_file):
        code, out, _ = run(
            capsys, "identity", "--input", str(cert_file), "--samples", "4096"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["ode_res"] < 1e-5

    def test_identity_inverts_no_time_map(self, capsys, cert_file, time_map_calls):
        code, _, _ = run(capsys, "identity", "--input", str(cert_file))
        assert code == 0
        assert time_map_calls == {"forward": 0, "tau_of_t": 0, "loop_zeros": 0}

    def test_tolerance_violation_exits_one(self, capsys, tmp_path):
        # a non-critical loop fails the identity gates -> exit code 1
        bogus = {
            "r": 1.0,
            "loop": {"class": "odd-sine", "coeffs": [1.0, 0.3]},
        }
        cert_file = tmp_path / "bogus.json"
        cert_file.write_text(json.dumps(bogus))
        code, out, _ = run(
            capsys, "identity", "--input", str(cert_file), "--samples", "4096"
        )
        assert code == 1
        assert json.loads(out)["ok"] is False

    def test_lc_roundtrip(self, capsys, cert_file, tmp_path):
        loop_file = tmp_path / "loop.json"
        cert = json.loads(cert_file.read_text())
        loop_file.write_text(json.dumps(cert["cert"]["loop"]))
        orbit_file = tmp_path / "orbit.csv"
        code, out, _ = run(
            capsys,
            "lc",
            "--input",
            str(loop_file),
            "--samples",
            "4096",
            "--out",
            str(orbit_file),
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["reciprocal_res"] < 1e-6
        header = orbit_file.read_text().splitlines()[0]
        assert header == "t,q,qdot,zero"


def test_lc_lists_a_zero_pair_inside_one_cell(capsys, tmp_path):
    # (1 - 1e-8) - cos(pi (tau - tau0)) has two zeros 9e-5 apart, one
    # collision of its orbit
    shift = np.pi * (1228.5 / 4096 - 1.0)
    z = loops.from_coeffs(loops.FULL, [1.0 - 1e-8, np.cos(shift), np.sin(shift)])
    loop_file = tmp_path / "loop.json"
    loop_file.write_text(json.dumps(loops.loop_to_json(z)))
    code, out, _ = run(capsys, "lc", "--input", str(loop_file), "--samples", "2048")
    assert code == 1
    assert len(json.loads(out)["zeros"]) == 1


def test_lc_builds_one_reciprocal_integral(capsys, tmp_path, monkeypatch):
    built = []
    init = levi_civita.ReciprocalIntegral.__init__

    def counting_init(self, orbit):
        built.append(orbit)
        init(self, orbit)

    monkeypatch.setattr(levi_civita.ReciprocalIntegral, "__init__", counting_init)
    loop_file = tmp_path / "loop.json"
    loop_file.write_text(json.dumps(loops.loop_to_json(loops.from_coeffs(loops.ODD_SINE, [1.0]))))
    code, _, _ = run(capsys, "lc", "--input", str(loop_file), "--samples", "2048")
    assert code == 0
    assert len(built) == 1


class TestMalformedInput:
    @pytest.mark.parametrize(
        "argv",
        [
            ("spectrum", "--input"),
            ("identity", "--input"),
            ("lc", "--input"),
            ("helium", "--mode", "av", "--input"),
            ("euler", "--path"),
        ],
    )
    def test_non_json_file_is_input_error(self, capsys, tmp_path, argv):
        bad = tmp_path / "bad.json"
        bad.write_text("this is { not json")
        code, out, err = run(capsys, *argv, str(bad))
        assert code == 2
        assert out == ""
        assert json.loads(err)["invariant"] == "cli.input"

    def test_loop_without_coeffs_is_input_error(self, capsys, tmp_path):
        loop_file = tmp_path / "loop.json"
        loop_file.write_text(json.dumps({"class": "odd-sine"}))
        code, out, err = run(capsys, "lc", "--input", str(loop_file))
        assert code == 2
        assert json.loads(err)["invariant"] == "cli.input"

    def test_euler_record_not_an_object(self, capsys, tmp_path):
        path_file = tmp_path / "path.jsonl"
        path_file.write_text("[1, 2]\n")
        code, _, err = run(capsys, "euler", "--path", str(path_file))
        assert code == 2
        assert json.loads(err)["invariant"] == "cli.euler-input"


class TestSizeCaps:
    """Count arguments are checked before anything is allocated."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("identity", "--input", "unused.json", "--samples", "0"),
            ("lc", "--input", "unused.json", "--samples", "-4"),
            ("detline", "--steps", "-3"),
            ("detline", "--steps", "0"),
            ("detline", "--modes", "100000"),
            ("solve", "--r", "1", "--modes", "0"),
            ("continue", "--from", "0", "--to", "1", "--modes", "5000"),
            ("helium", "--mode", "av", "--modes", "-1"),
            ("lc", "--input", "unused.json", "--samples", "1000000000"),
            ("elliptic", "--grid", "0:0.9:1e-12"),
            ("elliptic", "--grid", "0:0.9:5e-324"),
        ],
    )
    def test_out_of_range_count_is_size_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert json.loads(err)["invariant"] == "cli.size"

    def test_caps_admit_the_documented_values(self):
        assert cli.MAX_COUNTS["modes"] >= 128
        assert cli.MAX_DETLINE_MODES >= 16
        assert cli.MAX_COUNTS["samples"] >= 8192
        assert cli.MAX_COUNTS["steps"] >= 400


class TestParser:
    def test_one_parser_per_process(self, capsys, monkeypatch, tmp_path):
        # build_parser is cached, and each parse fills a new namespace, so an
        # option of one call does not leak into the next
        built = []

        class Counted(cli._Parser):
            def __init__(self, *args, **kwargs):
                built.append(kwargs.get("prog"))
                super().__init__(*args, **kwargs)

        cli.build_parser.cache_clear()
        monkeypatch.setattr(cli, "_Parser", Counted)
        try:
            code1, _, _ = run(capsys, "solve", "--r", "0", "--modes", "16", "--out", str(tmp_path / "c.json"))
            parsers = len(built)
            code2, out, _ = run(capsys, "solve", "--r", "0", "--modes", "16")
        finally:
            cli.build_parser.cache_clear()
        assert code1 == code2 == 0
        assert built.count("frozenplanet") == 1 and len(built) == parsers
        assert "out" not in json.loads(out)["config"]


def json_number_oracle(x):
    """The value the JSON number of x reads back as, with non-finite
    floats told by the np.isfinite ufunc: None for those, else x as a
    Python float, int or bool."""
    if isinstance(x, (float, np.floating)):
        return float(x) if np.isfinite(x) else None
    return x.item() if isinstance(x, np.generic) else x


def exact(v):
    """v's type and repr: equal for two floats exactly when they are the
    same double (-0.0 included), since repr is Python's shortest
    round-trip form."""
    return type(v), repr(v)


#: the numbers whose JSON and CSV forms the tests read back
NUMBERS = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, 1e308, -1e308,
    1.7976931348623157e308, 0.1, 1.0 / 3.0, math.nan, math.inf, -math.inf,
    np.float64(-0.0), np.float64(0.1), np.float64(np.nan), np.float64(-np.inf),
    np.float32(0.1), np.float32(np.inf), np.float16(1.5), np.float32(1e-45),
    0, 7, -12, 2**70, np.int64(-3), np.int32(9), np.uint8(255),
    True, False, np.bool_(True), np.bool_(False),
]


class TestDumps:
    @pytest.mark.parametrize("x", NUMBERS)
    def test_json_number_matches_the_ufunc_form(self, x):
        # a finite float reads back as the same double, a non-finite one as
        # null, and ints and bools exactly, alone and in a list
        want = exact(json_number_oracle(x))
        assert exact(_strict_json(serialize.dumps(x))) == want
        for indent in (2, None):
            first, (second,) = _strict_json(serialize.dumps([x, (x,)], indent))
            assert exact(first) == exact(second) == want

    def test_json_numbers_of_an_array_match_the_ufunc_form(self):
        a = np.random.default_rng(4).normal(size=64) * 10.0 ** np.arange(-32, 32)
        a[[3, 9, 17]] = np.nan, np.inf, -0.0
        want = [exact(json_number_oracle(v)) for v in a]
        assert [exact(v) for v in _strict_json(serialize.dumps(a))] == want
        rows = _strict_json(serialize.dumps({"m": a.reshape(8, 8), "f": a.astype(np.float32)}))
        assert [exact(v) for row in rows["m"] for v in row] == want
        assert [exact(v) for v in rows["f"]] == [exact(json_number_oracle(v)) for v in a.astype(np.float32)]

    def test_non_finite_floats_are_null(self):
        def reject(name):
            raise ValueError(f"non-JSON constant {name}")

        payload = {"x": math.nan, "y": [1.0, math.inf, np.float64(-np.inf)], "z": 0.5}
        parsed = json.loads(serialize.dumps(payload), parse_constant=reject)
        assert parsed == {"x": None, "y": [1.0, None, None], "z": 0.5}

    def test_record_is_one_line(self):
        record = {"parameter": 0.5, "diagnostics": {"vw_res": (1e-13, -0.0), "nested": {"s": "a\nb"}}}
        line = serialize.dumps(record, None)
        assert "\n" not in line
        assert _strict_json(line) == _strict_json(serialize.dumps(record))

    @settings(max_examples=200, deadline=None)
    @given(st.text())
    def test_text_round_trips(self, text):
        assert json.loads(serialize.dumps(text)) == text
        assert json.loads(serialize.dumps({text: [text]})) == {text: [text]}


class TestTable:
    @pytest.mark.parametrize("x", NUMBERS)
    def test_cell_reads_back_exactly(self, x):
        cell = serialize.fmt(x)
        if isinstance(x, (float, np.floating)):
            assert exact(float(cell)) == exact(float(x))
        else:
            assert cell == str(int(x))

    @settings(max_examples=500, deadline=None)
    @given(st.floats(allow_nan=False))
    def test_float_cells_round_trip(self, x):
        assert exact(float(serialize.fmt(x))) == exact(x)

    def test_rows(self):
        text = serialize.table("i,x,y", [(np.int64(2), 0.1, -0.0), (0, np.nan, np.float32(-np.inf))])
        assert text == "i,x,y\n2,0.1,-0.0\n0,nan,-inf\n"


@pytest.fixture()
def inputs(capsys, tmp_path):
    """Input files of the commands, by the placeholder names of their argv."""
    cert_file = tmp_path / "cert.json"
    assert run(capsys, "solve", "--r", "0", "--modes", "16", "--out", str(cert_file))[0] == 0
    bogus_file = tmp_path / "bogus.json"
    bogus_file.write_text(json.dumps({"r": 1.0, "loop": {"class": "odd-sine", "coeffs": [1.0, 0.3]}}))
    loop_file = tmp_path / "loop.json"
    loop_file.write_text(json.dumps(loops.loop_to_json(loops.from_coeffs(loops.ODD_SINE, [1.0]))))
    pair = helium.PairLoop(
        loops.from_coeffs(loops.EVEN_COSINE, [1.7, 0.05]),
        loops.from_coeffs(loops.ODD_SINE, [1.0, 0.1]),
    )
    pair_file = tmp_path / "pair.json"
    pair_file.write_text(serialize.dumps(serialize.pair_to_dict(pair)))
    files = {"CERT": cert_file, "BOGUS": bogus_file, "LOOP": loop_file, "PAIR": pair_file}
    for name, indices in (("PATH", (0, 0)), ("FLIP", (0, 1))):
        records = [{"parameter": float(i), "diagnostics": {"morse_index": k, "nullity": 0}}
                   for i, k in enumerate(indices)]
        files[name] = tmp_path / f"{name}.jsonl"
        files[name].write_text("".join(serialize.dumps(r, None) + "\n" for r in records))
    return {name: str(path) for name, path in files.items()}


class TestSummaryContract:
    """Every command prints one strict JSON object on stdout, with its
    config first and a bool ok last, and exits 0 exactly when ok is true."""

    @pytest.mark.parametrize(
        "argv,code",
        [
            (("solve", "--r", "0.5", "--modes", "16"), 0),
            (("continue", "--from", "0", "--to", "0.5", "--modes", "8"), 0),
            (("spectrum", "--input", "CERT"), 0),
            (("spectrum", "--input", "CERT", "--space", "full"), 0),
            (("identity", "--input", "CERT", "--samples", "2048"), 0),
            (("identity", "--input", "BOGUS", "--samples", "2048"), 1),
            (("elliptic", "--grid=-0.5:0.5:0.25"), 0),
            (("lc", "--input", "LOOP", "--samples", "2048"), 0),
            (("helium", "--mode", "av", "--input", "PAIR"), 0),
            (("euler", "--path", "PATH"), 0),
            (("euler", "--path", "FLIP"), 1),
            (("detline", "--modes", "4", "--steps", "100"), 0),
        ],
    )
    def test_config_first_and_ok_last(self, capsys, inputs, argv, code):
        argv = [inputs.get(arg, arg) for arg in argv]
        got, out, err = run(capsys, *argv)
        payload = _strict_json(out)
        assert err == ""
        assert list(payload)[0] == "config" and list(payload)[-1] == "ok"
        assert payload["config"]["command"] == argv[0]
        assert type(payload["ok"]) is bool
        assert got == code == (0 if payload["ok"] else 1)


class TestHeliumCommand:
    def test_bridge_from_pair_file(self, capsys, tmp_path):
        z = loops.from_coeffs(loops.ODD_SINE, [1.0, 0.1])
        gamma = 1.7
        pair = {
            "z1": {"class": "even-cosine", "coeffs": [gamma]},
            "z2": loops.loop_to_json(z),
        }
        pair_file = tmp_path / "pair.json"
        pair_file.write_text(json.dumps(pair))
        code, out, _ = run(
            capsys, "helium", "--mode", "av", "--input", str(pair_file)
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["bridge_res"] < 1e-11

    def test_pair_csv(self, capsys, tmp_path):
        pair = helium.PairLoop(
            loops.from_coeffs(loops.EVEN_COSINE, [1.7, 0.05]),
            loops.from_coeffs(loops.ODD_SINE, [1.0, 0.1]),
        )
        pair_file = tmp_path / "pair.json"
        pair_file.write_text(serialize.dumps(serialize.pair_to_dict(pair)))
        csv_file = tmp_path / "pair.csv"
        code, _, _ = run(
            capsys, "helium", "--mode", "in", "--input", str(pair_file), "--csv", str(csv_file)
        )
        assert code == 0
        header, *rows = csv_file.read_text().splitlines()
        assert header == "t,q1,q2,gap"
        t, q1, q2, gap = np.array([[float(c) for c in row.split(",")] for row in rows]).T
        assert np.array_equal(t, (np.arange(1024) + 0.5) / 1024)
        assert np.array_equal(gap, q1 - q2) and np.all(gap > 0.0)
        for z, q in ((pair.z1, q1), (pair.z2, q2)):
            assert np.max(np.abs(q - z(levi_civita.tau_of_t(z, t)) ** 2)) < 1e-12

    def test_gap_below_zero_between_nodes_is_domain_error(self, capsys, tmp_path):
        # z1 dips to 1e-6 near tau1 = 0.22, and the gap falls to -1.3e-2
        # between two nodes of the repulsion quadrature
        pair = helium.PairLoop(
            loops.from_coeffs(
                loops.EVEN_COSINE,
                [0.4442295716781513, -0.136, 0.318, 0.0426, -0.0336, -0.0789, 0.0280],
            ),
            loops.from_coeffs(loops.ODD_SINE, [0.104, -0.0211, 0.0573]),
        )
        pair_file = tmp_path / "pair.json"
        pair_file.write_text(serialize.dumps(serialize.pair_to_dict(pair)))
        code, out, err = run(capsys, "helium", "--mode", "in", "--input", str(pair_file))
        assert code == 2
        assert out == ""
        assert json.loads(err)["invariant"] == "helium.inadmissible-pair"

    def test_non_finite_coefficient_is_domain_error(self, capsys, tmp_path):
        pair_file = tmp_path / "pair.json"
        pair_file.write_text(
            '{"z1": {"class": "even-cosine", "coeffs": [1.7]},'
            ' "z2": {"class": "odd-sine", "coeffs": [Infinity]}}'
        )
        code, out, err = run(capsys, "helium", "--mode", "av", "--input", str(pair_file))
        assert code == 2
        assert out == ""
        assert json.loads(err)["invariant"] == "loops.coeffs"


class TestEulerCommand:
    def test_single_index_zero_path(self, capsys, tmp_path):
        records = [
            {"parameter": s, "diagnostics": {"morse_index": 0, "nullity": 0}}
            for s in (0.0, 0.5, 1.0)
        ]
        path_file = tmp_path / "path.jsonl"
        path_file.write_text(
            "\n".join(serialize.dumps(r, None) for r in records) + "\n"
        )
        code, out, _ = run(capsys, "euler", "--path", str(path_file))
        assert code == 0
        assert json.loads(out)["euler"] == 1

    def test_sign_change_is_a_violation(self, capsys, tmp_path):
        pairs = [(0, 0), (1, 0)]
        records = [
            {"parameter": s, "diagnostics": {"morse_index": i, "nullity": n}}
            for s, (i, n) in zip((0.0, 1.0), pairs)
        ]
        path_file = tmp_path / "path.jsonl"
        path_file.write_text(
            "\n".join(serialize.dumps(r, None) for r in records) + "\n"
        )
        code, out, _ = run(capsys, "euler", "--path", str(path_file))
        payload = json.loads(out)
        assert code == 1
        assert payload["euler"] == -1 == solve.euler_count(pairs[-1:])
        assert payload["indices"] == [0, 1]
        assert payload["ok"] is False
        # the first point counts +1, the last -1: the sign is not constant
        assert [solve.euler_count([p]) for p in pairs] == [1, -1]

    @pytest.mark.parametrize(
        "diagnostics",
        [
            {"morse_index": 0, "nullity": "x"},
            {"morse_index": None, "nullity": 0},
            {"morse_index": 1.5, "nullity": 0},
            {"morse_index": -1, "nullity": 0},
            {"morse_index": True, "nullity": 0},
            {"morse_index": 0, "nullity": 0.0},
            [0, 0],
        ],
    )
    def test_malformed_record_is_input_error(self, capsys, tmp_path, diagnostics):
        record = {"parameter": 0.0, "diagnostics": diagnostics}
        path_file = tmp_path / "path.jsonl"
        path_file.write_text(json.dumps(record) + "\n")
        code, out, err = run(capsys, "euler", "--path", str(path_file))
        assert code == 2
        assert out == ""
        assert json.loads(err)["invariant"] == "cli.euler-input"

    def test_degenerate_path_is_error(self, capsys, tmp_path):
        records = [{"parameter": 0.0, "diagnostics": {"morse_index": 0, "nullity": 2}}]
        path_file = tmp_path / "path.jsonl"
        path_file.write_text(serialize.dumps(records[0], None) + "\n")
        code, _, err = run(capsys, "euler", "--path", str(path_file))
        assert code == 2
        assert "degenerate" in err


class TestDetlineCommand:
    def test_counterexample_demo(self, capsys, tmp_path):
        trace = tmp_path / "trace.csv"
        code, out, _ = run(
            capsys,
            "detline",
            "--demo",
            "counterexample",
            "--modes",
            "8",
            "--steps",
            "200",
            "--out",
            str(trace),
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["sign"] == -1
        assert trace.read_text().startswith("tau,e_m2,e_m1,e_0,e_1,e_2,zeta")

    @pytest.mark.parametrize(
        "weights", [("--a=nan",), ("--b=inf",), ("--a=0", "--b=0"), ("--b=-inf",)]
    )
    def test_bad_stabilizer_is_domain_error(self, capsys, weights):
        code, out, err = run(capsys, "detline", "--modes", "4", "--steps", "10", *weights)
        assert code == 2
        assert out == ""
        assert json.loads(err)["invariant"] == "detline.stabilizer"

    def test_one_step_is_domain_error(self, capsys):
        code, out, err = run(capsys, "detline", "--modes", "4", "--steps", "1")
        assert code == 2
        assert out == ""
        assert json.loads(err)["invariant"] == "detline.steps"

    def test_unknown_demo_is_config_error(self, capsys):
        code, _, err = run(capsys, "detline", "--demo", "mystery")
        assert code == 2
        assert "invariant" in err


class TestContinueCommand:
    def test_short_continuation(self, capsys, tmp_path):
        out_file = tmp_path / "path.jsonl"
        summary = tmp_path / "summary.csv"
        code, out, _ = run(
            capsys,
            "continue",
            "--from",
            "0",
            "--to",
            "0.5",
            "--modes",
            "24",
            "--out",
            str(out_file),
            "--summary",
            str(summary),
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["indices"] == [0]
        lines = out_file.read_text().strip().splitlines()
        assert len(lines) == payload["steps"]
        assert summary.read_text().startswith("r,value,a,b,v,w,index")

    def test_frozen_path_inverts_no_time_map(self, capsys, time_map_calls):
        # the step diagnostics take the collision-ODE residual of each node
        # from its loop: no time map, no zero scan, no orbit
        code, out, _ = run(capsys, "continue", "--from", "0", "--to", "5", "--modes", "64")
        assert code == 0
        payload = json.loads(out)
        assert payload["steps"] == 7 and payload["indices"] == [0]
        assert payload["worst_ode_res"] < 1e-5
        assert time_map_calls == {"forward": 0, "tau_of_t": 0, "loop_zeros": 0}

    def test_one_certificate_per_step(self, capsys, frozen_calls):
        # the step diagnostics reuse the certificate continuation made, and
        # the free-fall seed is continued from without a certificate
        code, out, _ = run(capsys, "continue", "--from", "0", "--to", "5", "--modes", "64")
        assert code == 0
        assert len(frozen_calls["certify"]) == json.loads(out)["steps"]
        assert frozen_calls["certify"] == [64] * json.loads(out)["steps"]

    def test_eigensolves_only_the_step_spectra(self, capsys, eigen_solves):
        # one eigvalsh for each accepted step's Morse data; Newton's and the
        # tangent's condition checks are decided by Gershgorin discs
        code, out, _ = run(capsys, "continue", "--from", "0", "--to", "5", "--modes", "64")
        assert code == 0
        assert json.loads(out)["steps"] == 7
        assert eigen_solves == {"eig": 0, "eigh": 0, "eigvals": 0, "eigvalsh": 7}

    @pytest.mark.parametrize("bounds", [("0", "nan"), ("nan", "1"), ("0", "inf")])
    def test_non_finite_range_is_domain_error(self, capsys, bounds):
        code, out, err = run(
            capsys, "continue", "--from", bounds[0], "--to", bounds[1], "--modes", "16"
        )
        assert code == 2
        assert out == ""
        assert json.loads(err)["invariant"] == "frozen.r"


class TestOutputFiles:
    """Every file flag writes through one writer: an unwritable path is the
    tagged cli.output error, exit 2, with one JSON object on stderr and
    nothing on stdout."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("solve", "--r", "0", "--modes", "8", "--out"),
            ("continue", "--from", "0", "--to", "0.5", "--modes", "8", "--out"),
            ("continue", "--from", "0", "--to", "0.5", "--modes", "8", "--summary"),
            ("elliptic", "--grid=0:0.1:0.1", "--out"),
            ("lc", "--input", "LOOP", "--samples", "2048", "--out"),
            ("helium", "--mode", "av", "--input", "PAIR", "--csv"),
            ("detline", "--modes", "8", "--steps", "200", "--out"),
        ],
    )
    def test_directory_as_output_is_output_error(self, capsys, tmp_path, inputs, argv):
        argv = [inputs.get(arg, arg) for arg in argv]
        code, out, err = run(capsys, *argv, str(tmp_path))
        assert code == 2
        assert out == ""
        assert json.loads(err)["invariant"] == "cli.output"

    def test_missing_output_directory_is_output_error(self, capsys, tmp_path):
        out_file = tmp_path / "missing" / "cert.json"
        code, out, err = run(capsys, "solve", "--r", "0", "--modes", "8", "--out", str(out_file))
        assert code == 2
        assert out == ""
        assert json.loads(err)["invariant"] == "cli.output"


#: the values of one one-loop step that passes every gate
PASSING_STEP = {
    "vw_res": (0.0, 0.0),
    "energy_dev": 0.0,
    "ode_res": 0.0,
    "beta_mu_res": 0.0,
    "sup_upper_ok": True,
    "morse_index": 0,
    "nullity": 0,
}


class TestOneLoopVerdict:
    @pytest.mark.parametrize(
        "key,bad",
        [
            ("vw_res", (0.0, cli.IDENTITY_GATE)),
            ("energy_dev", cli.IDENTITY_GATE),
            ("energy_dev", math.nan),
            ("ode_res", cli.ODE_GATE),
            ("beta_mu_res", cli.ODE_GATE),
            ("sup_upper_ok", False),
            ("morse_index", 1),
            ("nullity", 1),
        ],
    )
    def test_each_check_fails_the_step(self, key, bad):
        def ok(**changes):
            step = dict(PASSING_STEP, **changes)
            cert = types.SimpleNamespace(identity_res=step["vw_res"], energy_dev=step["energy_dev"])
            return cli._one_loop_ok(cert, step["sup_upper_ok"], step)

        assert ok()
        assert not ok(**{key: bad})

    def test_degenerate_step_fails_continue(self, capsys, monkeypatch):
        # the second step's spectrum is stubbed to carry a null eigenvalue
        reports = []
        report = solve.spectrum_report

        def stub(h, *args, **kwargs):
            reports.append(report(h, *args, **kwargs))
            return dataclasses.replace(reports[-1], nullity=1) if len(reports) == 2 else reports[-1]

        monkeypatch.setattr(solve, "spectrum_report", stub)
        code, out, _ = run(capsys, "continue", "--from", "0", "--to", "0.5", "--modes", "8")
        payload = json.loads(out)
        assert code == 1
        assert payload["ok"] is False and payload["indices"] == [0]

    def test_large_parameter_is_nondegenerate(self, capsys, tmp_path):
        # max |lambda| is 2.0e7 and min |lambda| 0.894: far from singular
        cert_file = tmp_path / "cert.json"
        code, _, _ = run(capsys, "solve", "--r", "1e6", "--modes", "128", "--out", str(cert_file))
        assert code == 0
        code, out, _ = run(capsys, "spectrum", "--input", str(cert_file))
        assert code == 0
        assert json.loads(out)["nullity"] == 0
        code, out, _ = run(capsys, "spectrum", "--input", str(cert_file), "--space", "full")
        payload = json.loads(out)
        assert code == 0
        assert payload["nullity"] == 1 and payload["kernel_alignment"] > 0.999

    def test_continued_path_counts_for_euler(self, capsys, tmp_path):
        path_file = tmp_path / "path.jsonl"
        argv = ("continue", "--from", "0", "--to", "2e4", "--modes", "128", "--out", str(path_file))
        code, out, _ = run(capsys, *argv)
        assert code == 0 and json.loads(out)["ok"] is True
        records = [json.loads(line) for line in path_file.read_text().splitlines()]
        assert [rec["diagnostics"]["nullity"] for rec in records] == [0] * len(records)
        code, out, _ = run(capsys, "euler", "--path", str(path_file))
        assert code == 0
        assert json.loads(out)["euler"] == 1

    def test_backward_path_passes_through_rho(self, capsys, tmp_path):
        path_file = tmp_path / "path.jsonl"
        argv = ("continue", "--from", "5", "--to", "0", "--modes", "16", "--out", str(path_file))
        code, _, _ = run(capsys, *argv)
        assert code == 0
        parameters = [json.loads(line)["parameter"] for line in path_file.read_text().splitlines()]
        assert helium.RHO in parameters
        assert parameters == sorted(parameters, reverse=True)
