"""Batch interface: ingestion, exit codes, output formats, determinism."""

import json
from importlib import resources

import numpy as np
import pytest

from quantour import EmptyInput, HeaderMismatch, ParseError, PointCloud, intersect_halfplanes_2d
from quantour import cli as cli_module
from quantour.cli import ingest_csv, main, region_from_payload, region_payload

FIXTURES = resources.files("quantour") / "fixtures"
HEX = str(FIXTURES / "hexagon.csv")
TRI = str(FIXTURES / "tri.csv")
COLLINEAR = str(FIXTURES / "collinear5.csv")


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


# ---------------------------------------------------------------- ingestion


def test_ingest_plain_cloud(tmp_path):
    path = write(tmp_path, "c.csv", "x,y\n0,0\n1,0\n0,1\n")
    kind, data, warnings = ingest_csv(path)
    assert kind == "cloud"
    assert data.points.shape == (3, 2)
    assert warnings == []


def test_ingest_skips_blank_lines_keeps_numbering(tmp_path):
    path = write(tmp_path, "c.csv", "x,y\n0,0\n\n1,0\n\n0,1\n")
    kind, data, _ = ingest_csv(path)
    assert data.points.shape == (3, 2)


def test_ingest_ragged_row(tmp_path):
    path = write(tmp_path, "c.csv", "x,y\n0,0\n1\n")
    with pytest.raises(ParseError) as err:
        ingest_csv(path)
    assert err.value.line == 3


def test_ingest_non_numeric(tmp_path):
    path = write(tmp_path, "c.csv", "x,y\n0,0\nfoo,1\n")
    with pytest.raises(ParseError):
        ingest_csv(path)


def test_ingest_non_finite(tmp_path):
    path = write(tmp_path, "c.csv", "x,y\n0,0\n1,nan\n")
    with pytest.raises(ParseError) as err:
        ingest_csv(path)
    assert err.value.line == 3


def test_ingest_empty(tmp_path):
    path = write(tmp_path, "c.csv", "x,y\n")
    with pytest.raises(EmptyInput):
        ingest_csv(path)


def test_ingest_regression_layout(tmp_path):
    path = write(tmp_path, "r.csv", "x1,x2,y1,y2\n0,1,2,3\n4,5,6,7\n")
    kind, data, _ = ingest_csv(path)
    assert kind == "regression"
    X, Y = data
    assert X.shape == (2, 2) and Y.shape == (2, 2)
    assert X[1, 0] == 4.0 and Y[0, 1] == 3.0


def test_ingest_header_order_enforced(tmp_path):
    path = write(tmp_path, "r.csv", "x2,x1,y1\n0,1,2\n")
    with pytest.raises(HeaderMismatch):
        ingest_csv(path)


def test_ingest_duplicate_rows_warn(tmp_path):
    path = write(tmp_path, "c.csv", "x,y\n1,1\n2,0\n1,1\n0,3\n")
    kind, data, warnings = ingest_csv(path)
    assert kind == "cloud"
    assert len(warnings) == 1
    assert "identical observations" in warnings[0]


# ---------------------------------------------------------------- exit codes


def test_quantile_fixture_values(tmp_path, capsys):
    out = str(tmp_path / "q.json")
    code = main(
        ["quantile", "-i", TRI, "--tau", "0.2", "--u", "0,1", "--output", out]
    )
    assert code == 0
    payload = json.loads(open(out).read())
    h = payload["result"]
    assert abs(h["a"]) <= 1e-12
    assert np.allclose(h["b"], [0.0, 1.0])
    assert abs(h["multiplier"] - 0.2) <= 1e-12
    assert h["fitted"] == [0, 1]
    assert payload["meta"]["command"] == "quantile"


def test_degenerate_tau_exit_2(capsys):
    code = main(["quantile", "-i", TRI, "--tau", "0.3333333333333333", "--u", "0,1"])
    assert code == 2
    err = capsys.readouterr().err
    assert "Nearest admissible levels for n = 3" in err


def test_collinear_exit_3_when_jitter_off(capsys):
    code = main(["contour", "-i", COLLINEAR, "--tau", "0.305", "--jitter", "0"])
    assert code == 3
    err = capsys.readouterr().err
    assert "rerun with --jitter" in err


def test_collinear_heals_with_default_jitter(capsys):
    code = main(["contour", "-i", COLLINEAR, "--tau", "0.305"])
    assert code == 0
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert payload["result"]["region"]["status"] == "bounded"
    assert "jitter" in captured.err  # the healing is announced


def test_json_errors_flag(capsys):
    code = main(
        [
            "contour",
            "-i",
            COLLINEAR,
            "--tau",
            "0.305",
            "--jitter",
            "0",
            "--json-errors",
        ]
    )
    assert code == 3
    err = capsys.readouterr().err
    payload = json.loads(err)
    assert payload["error"] == "DegenerateData"
    assert payload["exit"] == 3
    assert payload["indices"] == [0, 1, 2, 3, 4]
    assert "--jitter" in payload["suggestion"]


def test_missing_file_exit_1(capsys):
    code = main(["quantile", "-i", "/nonexistent.csv", "--tau", "0.2", "--u", "0,1"])
    assert code == 1


def test_bad_tau_exit_1(capsys):
    code = main(["quantile", "-i", TRI, "--tau", "1.5", "--u", "0,1"])
    assert code == 1


@pytest.mark.parametrize("src", [HEX, COLLINEAR])
def test_negative_jitter_exit_1(capsys, src):
    # rejected whether or not the cloud needs healing
    code = main(["contour", "-i", src, "--tau", "0.305", "--jitter", "-1"])
    assert code == 1
    assert "jitter amplitude must be nonnegative" in capsys.readouterr().err


@pytest.mark.parametrize("bins", ["1", "-3"])
def test_regress_bad_bins_exit_1(capsys, tmp_path, bins):
    rng = np.random.default_rng(7)
    x = rng.uniform(0.0, 2.0, 40)
    path = tmp_path / "r.csv"
    path.write_text(
        "x1,y1,y2\n"
        + "\n".join(f"{a},{b},{c}" for a, b, c in zip(x, *rng.standard_normal((2, 40))))
        + "\n"
    )
    argv = ["regress", "-i", str(path), "--tau", "0.305", "--u", "1,0", "--bins", bins]
    assert main(argv) == 1
    assert "need at least 2 bins" in capsys.readouterr().err
    assert main(argv[:-2]) == 0


# ---------------------------------------------------------------- commands


def test_contour_hexagon(capsys):
    code = main(["contour", "-i", HEX, "--tau", "0.25"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    result = payload["result"]
    assert len(result["arcs"]) == 12
    assert len(result["region"]["halfplanes"]) == 6
    assert abs(result["region"]["area"] - np.sqrt(3.0) / 2.0) <= 1e-9
    assert result["probability"] == 0.0


def test_contour_region_roundtrip(capsys):
    code = main(["contour", "-i", HEX, "--tau", "0.25"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    region = region_from_payload(payload["result"]["region"])
    assert region.status == "bounded"
    assert abs(region.area() - payload["result"]["region"]["area"]) <= 1e-12


@pytest.mark.parametrize(
    "rows, status",
    [
        ([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [-1.0, 0.0, -1.0], [0.0, -1.0, -1.0]], "bounded"),
        ([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], "unbounded"),
        ([[1.0, 0.0, 1.0], [-1.0, 0.0, 1.0], [0.0, 1.0, 0.0]], "empty"),
    ],
)
def test_region_payload_roundtrip_keeps_status_and_rows(rows, status):
    region = intersect_halfplanes_2d(np.array(rows))
    assert region.status == status
    payload = json.loads(json.dumps(region_payload(region)))
    back = region_from_payload(payload)
    assert back.status == status
    assert np.array_equal(back.halfplanes, region.halfplanes)
    assert np.array_equal(back.vertices, region.vertices)
    assert len(back.halfplanes) == len(rows)
    assert json.dumps(region_payload(back)) == json.dumps(payload)


def test_depth_point_and_region(capsys):
    code = main(["depth", "-i", TRI, "--x", "0.25,0.25", "--tau", "0.3"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["result"]["depth"]["count"] == 1
    assert payload["result"]["region"]["status"] == "bounded"


def test_depth_needs_x_or_tau(capsys):
    code = main(["depth", "-i", TRI])
    assert code == 1


@pytest.mark.parametrize("x", ["nan,0", "inf,0", "0,-inf"])
def test_depth_non_finite_point_exit_1(capsys, x):
    assert main(["depth", "-i", HEX, f"--x={x}"]) == 1
    assert "finite point" in capsys.readouterr().err


def test_km_contains_exact(capsys):
    code = main(["km", "-i", HEX, "--tau", "0.25", "--K", "21"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    cmp = payload["result"]["comparison"]
    assert cmp["km_contains_exact"] is True
    assert abs(cmp["area_gap"] - 0.17404059379456926) <= 1e-12


def test_scan_flags_direction(capsys, tmp_path):
    rng = np.random.default_rng(5)
    pts = rng.uniform(-0.5, 0.5, size=(98, 2))
    pts = np.vstack([pts, [[0.0, 4.0]]])
    path = tmp_path / "scan.csv"
    path.write_text("x,y\n" + "\n".join(f"{a},{b}" for a, b in pts) + "\n")
    code = main(["scan", "-i", str(path), "--tau", str(2.5 / 99.0), "--K", "16"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["result"]["flagged"]
    entries = payload["result"]["entries"]
    top = max(entries, key=lambda e: e["multiplier"])
    assert abs(top["label"] - (-np.pi / 2.0)) <= 0.5


@pytest.mark.parametrize("K", ["0", "-3"])
def test_scan_without_directions_exit_1(capsys, K):
    assert main(["scan", "-i", HEX, "--tau", "0.25", f"--K={K}"]) == 1
    assert "at least one direction" in capsys.readouterr().err
    assert main(["scan", "-i", HEX, "--tau", "0.25", "--K", "1"]) == 0


@pytest.mark.parametrize(
    "argv, message",
    [
        (["depth"], "depth needs --x for a point or --tau for a region"),
        (["km", "--tau", "0.305", "--K", "2"], "need at least 3 directions, got K=2"),
        (["scan", "--tau", "0.305", "--K", "0"], "scan needs at least one direction, got --K 0"),
    ],
)
@pytest.mark.parametrize("jitter", ["0", "1e-5"])
def test_bad_flags_exit_1_before_the_input_is_checked(capsys, monkeypatch, argv, message, jitter):
    # collinear5 is degenerate: a bad flag must exit before the general-position
    # check, which would exit 3 without jitter and run the jitter with it
    def no_check(self):
        raise AssertionError("the general-position check ran")

    monkeypatch.setattr(PointCloud, "require_general_position", no_check)
    code = main([argv[0], "-i", COLLINEAR, "--jitter", jitter, *argv[1:]])
    err = capsys.readouterr().err
    assert code == 1
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["quantile", "--tau", "0.3", "--u", "1,2,3"], "expected 2 comma-separated floats, got '1,2,3'"),
        (["regress", "--tau", "0.3", "--u", "1,2,3"], "expected 2 comma-separated floats, got '1,2,3'"),
        (["contour", "--tau", "0.3", "--jitter", "inf"], "jitter amplitude must be nonnegative and finite"),
        (["contour", "--tau", "0.3", "--jitter", "nan"], "jitter amplitude must be nonnegative and finite"),
    ],
)
@pytest.mark.parametrize("jitter", ["0", "1e-5"])
def test_bad_values_exit_1_before_the_input_is_checked(capsys, monkeypatch, argv, message, jitter):
    # a --u that does not match the data's k and a non-finite numeric flag
    # exit 1 before the general-position check of the degenerate collinear5
    def no_check(self):
        raise AssertionError("the general-position check ran")

    monkeypatch.setattr(PointCloud, "require_general_position", no_check)
    code = main([argv[0], "-i", COLLINEAR, "--jitter", jitter, *argv[1:]])
    assert code == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["contour", "--tau", "abc"], "argument --tau: invalid float value: 'abc'"),
        (["contour", "--tau", "0.25", "--bogus"], "unrecognized arguments: --bogus"),
        (["contour", "--tau", "0.25", "--method", "enumerate"],
         "unrecognized arguments: --method enumerate"),
        (["km", "--tau", "0.25", "--phase", "0.2"], "unrecognized arguments: --phase 0.2"),
        (["scan", "--tau", "0.25", "--flag-c", "2"], "unrecognized arguments: --flag-c 2"),
    ],
)
def test_usage_errors_exit_1(capsys, argv, message):
    # exit 2 is kept for a degenerate tau
    assert main([argv[0], "-i", HEX, *argv[1:]]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: quantour")
    assert err.endswith(f"error: {message}\n")


@pytest.mark.parametrize("argv", [["--version"], ["contour", "--help"]])
def test_help_and_version_exit_0(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 0
    assert capsys.readouterr().out


def regression_csv(tmp_path, q, k, n=40):
    rng = np.random.default_rng(q + 10 * k)
    header = [f"x{i}" for i in range(1, q + 1)] + [f"y{j}" for j in range(1, k + 1)]
    rows = rng.standard_normal((n, q + k))
    path = tmp_path / f"r{q}{k}.csv"
    path.write_text(",".join(header) + "\n" + "\n".join(",".join(map(repr, r)) for r in rows.tolist()) + "\n")
    return str(path)


@pytest.mark.parametrize(
    "q, k, u, x0, message",
    [
        (1, 2, "1,0", "0.5,0.5", "--x0 has 2 coordinates, the design has 1 regressors"),
        (3, 2, "1,0", "0.5", "--x0 has 1 coordinates, the design has 3 regressors"),
        (1, 3, "1,0,0", "0.5", "cuts are defined for k=2 response spaces"),
    ],
)
def test_regress_rejects_x0_before_fitting(capsys, monkeypatch, tmp_path, q, k, u, x0, message):
    def no_fit(problem):
        raise AssertionError("regression_quantile ran")

    monkeypatch.setattr(cli_module, "regression_quantile", no_fit)
    path = regression_csv(tmp_path, q, k)
    code = main(["regress", "-i", path, "--tau", "0.305", "--u", u, "--x0", x0, "--grid", "9"])
    assert code == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_regress_rejects_small_grid_before_fitting(capsys, monkeypatch, tmp_path):
    def no_fit(problem):
        raise AssertionError("regression_quantile ran")

    monkeypatch.setattr(cli_module, "regression_quantile", no_fit)
    path = regression_csv(tmp_path, 1, 2)
    argv = ["regress", "-i", path, "--tau", "0.305", "--u", "1,0", "--bins", "3",
            "--x0", "0.5", "--grid", "2"]
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: need at least 3 directions, got K=2\n"


def test_regress_with_cut_and_coverage(capsys, tmp_path):
    rng = np.random.default_rng(6)
    n = 120
    x = rng.uniform(0.0, 2.0, n)
    y1 = 1.0 + x + 0.3 * rng.standard_normal(n)
    y2 = -x + 0.3 * rng.standard_normal(n)
    path = tmp_path / "r.csv"
    path.write_text(
        "x1,y1,y2\n" + "\n".join(f"{a},{b},{c}" for a, b, c in zip(x, y1, y2)) + "\n"
    )
    code = main(
        [
            "regress",
            "-i",
            str(path),
            "--tau",
            "0.305",
            "--u",
            "1,0",
            "--bins",
            "4",
            "--x0",
            "1.0",
            "--grid",
            "24",
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    result = payload["result"]
    assert abs(result["b"][0] - 1.0) <= 1e-9
    assert result["coverage"]["bin_counts"] == [30, 30, 30, 30]
    assert result["cut"]["status"] == "bounded"


def test_fig2_artifacts(tmp_path):
    code = main(["fig2", "--seed", "7", "--output-dir", str(tmp_path)])
    assert code == 0
    csv_path = tmp_path / "fig2_lambda.csv"
    assert csv_path.exists()
    assert (tmp_path / "fig2_points.svg").exists()
    assert (tmp_path / "fig2_multiplier.svg").exists()
    lines = csv_path.read_text().strip().splitlines()
    assert len(lines) == 16  # header + 15 steps
    lam = [float(line.split(",")[1]) for line in lines[1:]]
    assert all(b > a for a, b in zip(lam, lam[1:]))
    # affine past the first step with slope (1 - tau) / 4
    tau = 2.5 / 99.0
    diffs = np.diff(lam[1:])
    assert np.allclose(diffs, (1.0 - tau) / 4.0, atol=1e-9)


# ------------------------------------------------------------- determinism


def test_json_output_is_byte_stable(capsys):
    code = main(["contour", "-i", HEX, "--tau", "0.25"])
    assert code == 0
    first = capsys.readouterr().out
    code = main(["contour", "-i", HEX, "--tau", "0.25"])
    assert code == 0
    second = capsys.readouterr().out
    assert first == second


def test_svg_output_is_byte_stable(tmp_path):
    a = tmp_path / "a.svg"
    b = tmp_path / "b.svg"
    for out in (a, b):
        code = main(
            ["contour", "-i", HEX, "--tau", "0.25", "--format", "svg", "-o", str(out)]
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_text().startswith("<svg")


def test_csv_format(capsys):
    code = main(["contour", "-i", HEX, "--tau", "0.25", "--format", "csv"])
    assert code == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert len(lines) == 13  # header + 12 arcs
    assert lines[0].startswith("start,end")


# every subcommand with flags set, then with defaults, so a value that
# leaked from one call into the next would show
PARSE_SEQUENCE = [
    ["quantile", "-i", HEX, "--tau", "0.3", "--u", "0,1", "--format", "csv", "--seed", "4"],
    ["quantile", "-i", HEX, "--tau", "0.3", "--u", "1,0"],
    ["contour", "-i", HEX, "--tau", "0.25", "--format", "csv", "--json-errors"],
    ["contour", "-i", HEX, "--tau", "0.25"],
    ["depth", "-i", HEX, "--x", "0.1,0.2", "--jitter", "0"],
    ["depth", "-i", HEX],
    ["km", "-i", HEX, "--tau", "0.25", "--K", "7", "-o", "x.json"],
    ["km", "-i", HEX, "--tau", "0.25"],
    ["scan", "-i", HEX, "--tau", "0.25", "--K", "8"],
    ["scan", "-i", HEX, "--tau", "0.25"],
    ["regress", "-i", HEX, "--tau", "0.2", "--u", "0,1", "--bins", "3", "--x0", "1", "--grid", "9"],
    ["regress", "-i", HEX, "--tau", "0.2", "--u", "0,1"],
    ["fig2", "--seed", "3", "--output-dir", "d", "--format", "csv"],
    ["fig2"],
]


def test_reused_parser_matches_a_fresh_one(monkeypatch):
    seen = []

    def run(args):
        seen.append(args)
        args.warnings.append("from this call")
        return 0

    monkeypatch.setattr(cli_module, "run", run)
    for argv in PARSE_SEQUENCE * 2:
        assert main(argv) == 0
        fresh = vars(cli_module._build_parser.__wrapped__().parse_args(argv))
        assert vars(seen[-1]) == dict(fresh, warnings=["from this call"]), argv
    # one parser, and a new Namespace and warnings list per call
    assert cli_module._build_parser() is cli_module._build_parser()
    assert len({id(a) for a in seen}) == len({id(a.warnings) for a in seen}) == len(seen)
