"""Batch interface: ingestion, exit codes, output formats, determinism."""

import json
import math
import os
import subprocess
import sys
import threading
import time
from importlib import resources
from pathlib import Path
from xml.etree import ElementTree

import numpy as np
import pytest

from quantour import (
    EmptyInput,
    HeaderMismatch,
    NoConvergence,
    ParseError,
    PointCloud,
    intersect_halfplanes_2d,
)
from quantour import cli as cli_module
from quantour.cli import ingest_csv, main, region_from_payload, region_payload
from quantour.contour import _FORK_MIN_POINTS
from conftest import assert_reaped

FIXTURES = resources.files("quantour") / "fixtures"
HEX = str(FIXTURES / "hexagon.csv")
TRI = str(FIXTURES / "tri.csv")
COLLINEAR = str(FIXTURES / "collinear5.csv")
COLLINEAR_DESIGN = str(FIXTURES / "collinear_design.csv")
# jitter off and on; each id is the relative jitter amplitude in effect
JITTER_MODES = [pytest.param(["--no-jitter"], id="0"), pytest.param([], id="1e-5")]


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


# ---------------------------------------------------------------- ingestion


def test_ingest_plain_cloud(tmp_path):
    path = write(tmp_path, "c.csv", "x,y\n0,0\n1,0\n0,1\n")
    kind, data = ingest_csv(path)
    assert kind == "cloud"
    assert data.points.shape == (3, 2)


def test_ingest_skips_blank_lines_keeps_numbering(tmp_path):
    path = write(tmp_path, "c.csv", "x,y\n0,0\n\n1,0\n\n0,1\n")
    kind, data = ingest_csv(path)
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


def test_ingest_drops_a_byte_order_mark(tmp_path):
    rows = np.random.default_rng(5).standard_normal((40, 3)).tolist()
    text = "x1,y1,y2\n" + "".join(f"{a!r},{b!r},{c!r}\n" for a, b, c in rows)
    plain = tmp_path / "plain.csv"
    plain.write_text(text, encoding="utf-8")
    marked = tmp_path / "marked.csv"
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes() == b"\xef\xbb\xbf" + plain.read_bytes()
    (kind, (X, Y)), (marked_kind, (mX, mY)) = ingest_csv(plain), ingest_csv(marked)
    assert kind == marked_kind == "regression"
    assert X.shape == (40, 1) and Y.shape == (40, 2)
    assert np.array_equal(X, mX) and np.array_equal(Y, mY)


@pytest.mark.parametrize("first", ["1,2", "0.5,-3e2", " 4 , 5 "])
def test_ingest_rejects_a_missing_header(tmp_path, first):
    # five rows of numbers would otherwise give n = 4
    path = write(tmp_path, "c.csv", f"{first}\n0,0\n1,0\n0,1\n2,3\n")
    with pytest.raises(ParseError, match="missing header") as err:
        ingest_csv(path)
    assert err.value.line == 1


def test_ingest_empty(tmp_path):
    path = write(tmp_path, "c.csv", "x,y\n")
    with pytest.raises(EmptyInput):
        ingest_csv(path)


def test_ingest_regression_layout(tmp_path):
    path = write(tmp_path, "r.csv", "x1,x2,y1,y2\n0,1,2,3\n4,5,6,7\n")
    kind, data = ingest_csv(path)
    assert kind == "regression"
    X, Y = data
    assert X.shape == (2, 2) and Y.shape == (2, 2)
    assert X[1, 0] == 4.0 and Y[0, 1] == 3.0


def test_ingest_header_order_enforced(tmp_path):
    path = write(tmp_path, "r.csv", "x2,x1,y1\n0,1,2\n")
    with pytest.raises(HeaderMismatch):
        ingest_csv(path)


def test_ingest_duplicate_rows_warn(tmp_path, capsys):
    # ingest leaves duplicates to the general-position check, which names
    # the rows once: in the jitter warning, or in the exit-3 error
    path = write(tmp_path, "c.csv", "x,y\n1,1\n2,0\n1,1\n0,3\n")
    kind, data = ingest_csv(path)
    assert kind == "cloud" and data.n == 4
    quantile = ["quantile", "-i", path, "--tau", "0.3", "--u", "0,1"]
    assert main(quantile) == 0
    assert capsys.readouterr().err == (
        "warning: degenerate input (duplicate points (rows [0, 2])); "
        "applied jitter 3e-05 with seed 0\n"
    )
    assert main([*quantile, "--no-jitter"]) == 3
    assert capsys.readouterr().err.startswith("error: duplicate points (rows [0, 2])\n")


def halfspace_depth_count(z, x):
    """Tukey depth count of x in O(n^2): the fewest points in a closed halfplane through x.

    The count of {l : u'(z_l - x) >= 0} changes only where u is normal to
    some z_l - x, so its least value is taken on the open arcs between
    those angles; each arc is probed at its midpoint.  Rows equal to x lie
    in every halfplane.
    """
    d = [(a - x[0], b - x[1]) for a, b in z.tolist()]
    normals = [math.atan2(dy, dx) + half for dx, dy in d if (dx, dy) != (0.0, 0.0)
               for half in (0.5 * math.pi, -0.5 * math.pi)]
    cuts = sorted({t % (2 * math.pi) for t in normals})
    if not cuts:
        return len(d)
    mids = [0.5 * (lo + hi) for lo, hi in zip(cuts, cuts[1:] + [cuts[0] + 2 * math.pi])]
    return min(sum(math.cos(t) * dx + math.sin(t) * dy >= 0.0 for dx, dy in d) for t in mids)


@pytest.mark.parametrize("rows, x, count", [
    (None, "2,4", 3),
    (None, "1,2", 2),
    ("x,y\n1,1\n2,0\n1,1\n0,3\n", "1,0.5", 0),
    ("x,y\n1,1\n2,0\n1,1\n0,3\n", "1,1", 2),
    ("x,y\n0,0\n1,0\n2,0\n0,0\n1,1\n3,0\n", "1,0", 3),
])
def test_depth_reads_the_raw_cloud(tmp_path, capsys, rows, x, count):
    # depth counts ties itself, so a collinear or duplicated cloud is
    # neither checked nor jittered: the count is the exact depth of x
    path = COLLINEAR if rows is None else write(tmp_path, "c.csv", rows)
    assert main(["depth", "-i", path, "--x", x, "--no-jitter"]) == 0
    out = capsys.readouterr()
    assert out.err == ""
    got = json.loads(out.out)["result"]["depth"]["count"]
    _, cloud = ingest_csv(path)
    point = [float(v) for v in x.split(",")]
    assert got == halfspace_depth_count(cloud.points, point) == count


def test_depth_heals_the_cloud_for_its_region_only(capsys):
    # the brute-force region needs lines through point pairs, which five
    # collinear points do not give: --tau still heals, or exits 3 under
    # --no-jitter, while the point's count is the raw cloud's
    argv = ["depth", "-i", COLLINEAR, "--x", "2,4", "--tau", "0.305"]
    assert main(argv) == 0
    out = capsys.readouterr()
    assert out.err.startswith("warning: degenerate input (collinear triples (rows [0, 1, 2, 3, 4]))")
    payload = json.loads(out.out)
    assert payload["result"]["depth"]["count"] == 3
    assert payload["result"]["region"]["status"] == "bounded"
    assert main([*argv, "--no-jitter"]) == 3


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


@pytest.mark.parametrize("command", ["quantile", "regress"])
def test_a_huge_direction_gives_the_bytes_of_its_unit_vector(capsys, tmp_path, command):
    src = HEX if command == "quantile" else regression_csv(tmp_path, 1, 2)
    outs = []
    for u in ("1,0", "1e200,0"):
        assert main([command, "-i", src, "--tau", "0.3051", "--u", u]) == 0
        outs.append(capsys.readouterr())
    assert outs[0] == outs[1]


def test_degenerate_tau_exit_2(capsys):
    code = main(["quantile", "-i", TRI, "--tau", "0.3333333333333333", "--u", "0,1"])
    assert code == 2
    err = capsys.readouterr().err
    assert "Nearest admissible levels for n = 3" in err


def test_collinear_exit_3_when_jitter_off(capsys):
    code = main(["contour", "-i", COLLINEAR, "--tau", "0.305", "--no-jitter"])
    assert code == 3
    err = capsys.readouterr().err
    assert "rerun without --no-jitter" in err


def test_collinear_heals_with_default_jitter(capsys):
    code = main(["contour", "-i", COLLINEAR, "--tau", "0.305"])
    assert code == 0
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert payload["result"]["region"]["status"] == "bounded"
    assert "jitter" in captured.err  # the healing is announced


# a Gaussian cloud with row 5 on the line through rows 1 and 2
GAUSS30_COLLINEAR = np.random.default_rng(0).standard_normal((30, 2))
GAUSS30_COLLINEAR[5] = 0.5 * (GAUSS30_COLLINEAR[1] + GAUSS30_COLLINEAR[2])


def healed_contours(capsys, tmp_path, scales):
    """contour's result on GAUSS30_COLLINEAR times each scale, healed by jitter."""
    results = []
    for s in scales:
        z = (s * GAUSS30_COLLINEAR).tolist()
        path = write(tmp_path, "c.csv", "x,y\n" + "".join(f"{a!r},{b!r}\n" for a, b in z))
        assert main(["contour", "-i", path, "--tau", "0.2017"]) == 0
        captured = capsys.readouterr()
        assert "collinear triples (rows [1, 2, 5])); applied jitter" in captured.err
        results.append(json.loads(captured.out)["result"])
    return results


@pytest.mark.parametrize("s", [2.0**-20, 2.0**26, 1e-6, 1e8], ids=["2^-20", "2^26", "1e-6", "1e8"])
def test_jitter_heals_a_collinear_cloud_at_its_own_scale(capsys, tmp_path, s):
    # the jitter amplitude follows the cloud's extent, so every scale heals
    # to the same arcs, with bit-equal bounds when s is a power of two
    want, got = healed_contours(capsys, tmp_path, [1.0, s])

    def keys(result):
        return [(a["orientation"], a["hyperplane"]["fitted"]) for a in result["arcs"]]

    def bounds(result):
        return np.array([(a["start"], a["end"]) for a in result["arcs"]])

    assert len(want["arcs"]) == 55
    assert keys(got) == keys(want)
    if np.log2(s).is_integer():
        assert np.array_equal(bounds(got), bounds(want))
    else:
        assert np.abs(bounds(got) - bounds(want)).max() <= 1e-12


@pytest.mark.parametrize("e", [
    pytest.param(-20, marks=pytest.mark.xfail(
        strict=True, reason="intersect_halfplanes_2d's clipping box and ring tolerance are "
        "absolute, so at 2**-20 the region has 19 facets instead of 15 "
        "(ROADMAP items 6 and 12(b))")),
    26,
])
def test_a_healed_region_scales_with_the_cloud(capsys, tmp_path, e):
    want, got = healed_contours(capsys, tmp_path, [1.0, 2.0**e])
    expected = np.array(want["region"]["vertices"])
    vertices = np.array(got["region"]["vertices"]) / 2.0**e
    assert vertices.shape == expected.shape
    assert np.abs(vertices - expected).max() <= 1e-12 * np.abs(expected).max()


def test_json_errors_flag(capsys):
    code = main(
        [
            "contour",
            "-i",
            COLLINEAR,
            "--tau",
            "0.305",
            "--no-jitter",
            "--json-errors",
        ]
    )
    assert code == 3
    err = capsys.readouterr().err
    payload = json.loads(err)
    assert payload["error"] == "DegenerateData"
    assert payload["exit"] == 3
    assert payload["indices"] == [0, 1, 2, 3, 4]
    assert "--no-jitter" in payload["suggestion"]


@pytest.mark.parametrize("json_errors", [False, True])
def test_a_cloud_jitter_cannot_heal_exits_3_with_its_rows(capsys, tmp_path, json_errors):
    # four copies of one point have zero extent, so the jitter amplitude
    # is 0 and the rows stay repeated; no jitter suggestion, as jitter ran
    path = write(tmp_path, "c.csv", "x,y\n0,0\n0,0\n0,0\n0,0\n")
    argv = ["contour", "-i", path, "--tau", "0.3"] + ["--json-errors"] * json_errors
    assert main(argv) == 3
    err = capsys.readouterr().err
    message = "cloud remains degenerate after jitter of amplitude 0 (rows [0, 1, 2, 3])"
    if json_errors:
        assert json.loads(err) == {"error": "StillDegenerate", "exit": 3,
                                   "indices": [0, 1, 2, 3], "message": message}
    else:
        assert err == f"error: {message}\n"


def test_a_third_row_on_the_regression_line_exits_3_with_its_rows(capsys):
    # a tagged design is never jittered; the solver's certificate finds row 1
    # on the line through its basis, rows 0 and 2
    argv = ["regress", "-i", COLLINEAR_DESIGN, "--tau", "0.25", "--u", "0,1", "--json-errors"]
    assert main(argv) == 3
    payload = json.loads(capsys.readouterr().err)
    assert payload["error"] == "DegenerateData"
    assert payload["indices"] == [0, 2, 1]
    assert payload["message"].endswith("general position fails (rows [0, 2, 1])")


def test_a_fourth_row_on_a_spatial_quantile_plane_exits_3_with_its_rows(capsys, tmp_path):
    # no coplanarity check runs for k = 3, so the solver's certificate names
    # rows 0 to 3, which all lie on z = 0
    rows = [(0, 0, 0), (4, 0, 0), (0, 4, 0), (3, 3, 0), (1, 2, 2), (3, 1, 1),
            (2, 3, 3), (4, 4, 2), (1, 1, 4), (2, 1, -1), (1, 3, -2), (3, 2, -3)]
    path = write(tmp_path, "c.csv", "x,y,z\n" + "".join(f"{a},{b},{c}\n" for a, b, c in rows))
    argv = ["quantile", "-i", path, "--tau", "0.35", "--u", "0,0,1", "--json-errors"]
    assert main(argv) == 3
    payload = json.loads(capsys.readouterr().err)
    assert payload["error"] == "DegenerateData"
    assert payload["indices"] == [0, 1, 3, 2]


def test_missing_file_exit_1(capsys):
    code = main(["quantile", "-i", "/nonexistent.csv", "--tau", "0.2", "--u", "0,1"])
    assert code == 1


def test_bad_tau_exit_1(capsys):
    code = main(["quantile", "-i", TRI, "--tau", "1.5", "--u", "0,1"])
    assert code == 1


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


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_json_output_is_strict(capsys, monkeypatch, tmp_path, value):
    # a non-finite float has no JSON spelling: exit 1, and nothing is written
    monkeypatch.setattr(cli_module, "probability_contents", lambda region, cloud: value)
    out = tmp_path / "c.json"
    assert main(["contour", "-i", HEX, "--tau", "0.25", "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: Out of range float values are not JSON compliant")
    assert not out.exists()


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
@pytest.mark.parametrize("jitter", JITTER_MODES)
def test_bad_flags_exit_1_before_the_input_is_checked(capsys, monkeypatch, argv, message, jitter):
    # collinear5 is degenerate: a bad flag must exit before the general-position
    # check, which would exit 3 without jitter and run the jitter with it
    def no_check(self):
        raise AssertionError("the general-position check ran")

    monkeypatch.setattr(PointCloud, "require_general_position", no_check)
    code = main([argv[0], "-i", COLLINEAR, *jitter, *argv[1:]])
    err = capsys.readouterr().err
    assert code == 1
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["quantile", "--tau", "0.3", "--u", "1,2,3"], "expected 2 comma-separated floats, got '1,2,3'"),
        (["regress", "--tau", "0.3", "--u", "1,2,3"], "expected 2 comma-separated floats, got '1,2,3'"),
    ],
)
@pytest.mark.parametrize("jitter", JITTER_MODES)
def test_bad_values_exit_1_before_the_input_is_checked(capsys, monkeypatch, argv, message, jitter):
    # a --u that does not match the data's k exits 1 before the
    # general-position check of the degenerate collinear5
    def no_check(self):
        raise AssertionError("the general-position check ran")

    monkeypatch.setattr(PointCloud, "require_general_position", no_check)
    code = main([argv[0], "-i", COLLINEAR, *jitter, *argv[1:]])
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
        (["contour", "--tau", "0.25", "--jitter", "0"], "unrecognized arguments: --jitter 0"),
    ],
)
def test_usage_errors_exit_1(capsys, argv, message):
    # exit 2 is kept for a degenerate tau
    assert main([argv[0], "-i", HEX, *argv[1:]]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: quantour")
    assert err.endswith(f"error: {message}\n")


@pytest.mark.parametrize(
    "argv", [["contour", "-i", HEX, "--tau", "0.25"], ["fig2"]], ids=["contour", "fig2"]
)
def test_a_negative_seed_is_a_usage_error(capsys, monkeypatch, tmp_path, argv):
    monkeypatch.chdir(tmp_path)  # where fig2 would write its artifacts
    assert main([*argv, "--seed", "-1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"usage: quantour {argv[0]}")
    assert err.endswith("error: argument --seed: must be a non-negative integer, got -1\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv, flag, value",
    [
        (["quantile", "-i", HEX, "--tau", "0.3"], "--u", "-0.6,0.8"),
        (["depth", "-i", HEX, "--tau", "0.3"], "--x", "-0.1,0.2"),
        (["regress", "--tau", "0.305", "--u", "0,1", "--grid", "9"], "--x0", "-0.5,0.5"),
    ],
    ids=["u", "x", "x0"],
)
def test_a_vector_flag_takes_a_leading_minus(capsys, tmp_path, argv, flag, value):
    if argv[0] == "regress":
        argv = [*argv, "-i", regression_csv(tmp_path, 2, 2)]
    outs = []
    for tokens in ([flag, value], [f"{flag}={value}"]):
        assert main([*argv, *tokens]) == 0
        outs.append(capsys.readouterr())
    assert outs[0] == outs[1]


@pytest.mark.parametrize(
    "argv, flag, value, message",
    [
        (["contour", "--tau", "0.3"], "--tau", "-inf",
         "error: quantile level must lie strictly inside (0, 1), got -inf\n"),
        (["contour", "--tau", "0.3"], "--tau", "-1e-3",
         "error: quantile level must lie strictly inside (0, 1), got -0.001\n"),
        (["km", "--tau", "0.3"], "--K", "-1e1", "error: argument --K: invalid int value: '-1e1'\n"),
        (["scan", "--tau", "0.3"], "--K", "-inf", "error: argument --K: invalid int value: '-inf'\n"),
        (["regress", "--tau", "0.3", "--u", "0,1"], "--bins", "-1e1",
         "error: argument --bins: invalid int value: '-1e1'\n"),
        (["regress", "--tau", "0.3", "--u", "0,1"], "--grid", "-1e1",
         "error: argument --grid: invalid int value: '-1e1'\n"),
        (["contour", "--tau", "0.3"], "--seed", "-inf",
         "error: argument --seed: invalid seed value: '-inf'\n"),
    ],
    ids=["tau-inf", "tau-exponent", "km-K", "scan-K", "bins", "grid", "seed"],
)
def test_a_numeric_flag_takes_a_leading_minus(capsys, argv, flag, value, message):
    # the value reaches its flag's own check, as with "=", and is not read
    # as an option (or, for -inf, as -i nf)
    outs = []
    for tokens in ([flag, value], [f"{flag}={value}"]):
        assert main([argv[0], "-i", HEX, *argv[1:], *tokens]) == 1
        outs.append(capsys.readouterr())
    assert outs[0] == outs[1]
    assert outs[0].err.endswith(message)


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
        (1, 2, "1,0", "nan", "--x0 must be finite, got 'nan'"),
        (1, 2, "1,0", "inf", "--x0 must be finite, got 'inf'"),
        (2, 2, "1,0", "0.5,-inf", "--x0 must be finite, got '0.5,-inf'"),
        (1, 2, "1,0", "-inf", "--x0 must be finite, got '-inf'"),
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


def test_regress_on_a_plain_cloud_gives_the_bits_of_quantile(capsys, tmp_path):
    z = np.random.default_rng(99).standard_normal((100, 2)) * 1e3
    path = write(tmp_path, "c.csv", "x,y\n" + "".join(f"{a!r},{b!r}\n" for a, b in z.tolist()))
    for angle in np.linspace(0.1, 6.0, 24):
        u = f"{float(np.cos(angle))!r},{float(np.sin(angle))!r}"
        results = []
        for command in ("quantile", "regress"):
            assert main([command, "-i", path, "--tau", "0.30011", f"--u={u}"]) == 0
            results.append(json.loads(capsys.readouterr().out)["result"])
        quantile, regress = results
        for field in ("a", "b", "counts", "fitted", "multiplier"):
            assert regress[field] == quantile[field]


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


@pytest.mark.parametrize(
    "argv",
    [["scan", "-i", HEX, "--tau", "0.25"], ["regress", "-i", HEX, "--tau", "0.2", "--u", "0,1"]],
)
def test_svg_is_rejected_before_fitting(capsys, monkeypatch, argv):
    def no_call(*args, **kwargs):
        raise AssertionError("the command ran")

    for name in ("ingest_csv", "multiplier_scan", "regression_quantile"):
        monkeypatch.setattr(cli_module, name, no_call)
    assert main([*argv, "--format", "svg"]) == 1
    assert "argument --format: invalid choice: 'svg'" in capsys.readouterr().err


# ------------------------------------------------- the cut grid over the CPUs

CUT_GRID = 48  # three times _FORK_MIN_CHUNK: two chunks on two CPUs


def cut_argv(tmp_path):
    path = regression_csv(tmp_path, 1, 2, n=60)
    return ["regress", "-i", path, "--tau", "0.305", "--u", "1,0", "--x0", "0.5",
            "--grid", str(CUT_GRID)]


def fail_from(monkeypatch, first):
    """Make every cut direction from grid index ``first`` on raise, naming its index."""
    fit = cli_module.regression_quantile

    def failing_fit(problem):
        j = round(problem.u.angle / (2.0 * np.pi / CUT_GRID)) % CUT_GRID
        if j >= first:  # the main fit at --u 1,0 has index 0
            raise NoConvergence(f"injected failure at grid index {j}")
        return fit(problem)

    monkeypatch.setattr(cli_module, "regression_quantile", failing_fit)


def pinned_stdout(argv):
    """stdout of the CLI in a subprocess pinned to one CPU before it imports quantour."""
    pin = ("import os, sys; os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}); "
           "from quantour.cli import main; sys.exit(main(sys.argv[1:]))")
    src = str(Path(cli_module.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, "-c", pin, *argv], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120, check=True).stdout


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs sched_setaffinity")
def test_cut_bytes_match_a_run_pinned_to_one_cpu(capsys, tmp_path, forks):
    argv = cut_argv(tmp_path)
    assert main(argv) == 0
    fanned = capsys.readouterr().out
    assert len(forks) == 1
    assert pinned_stdout(argv) == fanned


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs sched_setaffinity")
def test_contour_bytes_match_a_run_pinned_to_one_cpu(capsys, tmp_path, forks):
    z = np.random.default_rng(98).standard_normal((_FORK_MIN_POINTS, 2))
    path = write(tmp_path, "cloud.csv", "x,y\n" + "".join(f"{a!r},{b!r}\n" for a, b in z.tolist()))
    argv = ["contour", "-i", path, "--tau", "0.1785"]
    assert main(argv) == 0
    forked = capsys.readouterr().out
    assert len(forks) == 1
    assert pinned_stdout(argv) == forked


@pytest.mark.parametrize("first", [1, CUT_GRID // 2, CUT_GRID - 5], ids=["parent", "child", "late"])
def test_failing_direction_gives_the_serial_error(capsys, monkeypatch, tmp_path, forks, first):
    argv = cut_argv(tmp_path)
    fail_from(monkeypatch, first)
    assert main(argv) == 1
    fanned = capsys.readouterr()
    assert len(forks) == 1
    monkeypatch.setattr(cli_module, "_FORK_MIN_CHUNK", CUT_GRID + 1)
    assert main(argv) == 1
    serial = capsys.readouterr()
    assert len(forks) == 1
    assert fanned.err == serial.err == f"error: injected failure at grid index {first}\n"
    assert fanned.out == serial.out == ""


def test_no_child_outlives_the_call(capsys, monkeypatch, tmp_path, forks):
    argv = cut_argv(tmp_path)
    assert main(argv) == 0
    fail_from(monkeypatch, CUT_GRID // 2)  # the child's chunk fails
    assert main(argv) == 1
    fail_from(monkeypatch, 1)  # the parent's chunk fails, and its child is killed
    assert main(argv) == 1
    assert len(forks) == 3
    assert_reaped(forks)


def test_parent_failure_kills_the_child(forks):
    def solve(x):
        if x == 0:
            raise NoConvergence("the parent's chunk failed")
        if x == 16:  # the first item of the child's chunk
            time.sleep(30)
        return x

    start = time.perf_counter()
    with pytest.raises(NoConvergence, match="the parent's chunk failed"):
        cli_module._fan_out(solve, range(32))
    assert time.perf_counter() - start < 10
    assert len(forks) == 1
    assert_reaped(forks)


def test_fan_out_stays_serial_while_another_thread_runs(capsys, tmp_path, forks):
    argv = cut_argv(tmp_path)
    stop = threading.Event()
    worker = threading.Thread(target=stop.wait)
    worker.start()
    try:
        assert main(argv) == 0
    finally:
        stop.set()
        worker.join()
    assert forks == []
    serial = capsys.readouterr().out
    assert main(argv) == 0
    assert len(forks) == 1
    assert capsys.readouterr().out == serial


@pytest.mark.parametrize("cpus, n, children", [(4, 100, 3), (3, 32, 1), (2, 31, 0), (1, 500, 0)])
def test_fan_out_joins_chunks_in_order(monkeypatch, forks, cpus, n, children):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    assert cli_module._fan_out(lambda x: (x, x * x), range(n)) == [(x, x * x) for x in range(n)]
    assert len(forks) == children
    assert_reaped(forks)


def test_fig2_csv_output_is_its_lambda_file(capsys, tmp_path):
    assert main(["fig2", "--output-dir", str(tmp_path), "--format", "csv"]) == 0
    assert capsys.readouterr().out.encode() == (tmp_path / "fig2_lambda.csv").read_bytes()


@pytest.mark.parametrize("k", [1, 3])
def test_svg_needs_a_planar_cloud(capsys, monkeypatch, tmp_path, k):
    # rejected after ingest and before the general-position check
    def no_check(self):
        raise AssertionError("the general-position check ran")

    monkeypatch.setattr(PointCloud, "require_general_position", no_check)
    rows = np.random.default_rng(k).standard_normal((12, k)).tolist()
    text = ",".join(f"c{i}" for i in range(k)) + "\n" + "".join(
        ",".join(map(repr, r)) + "\n" for r in rows)
    u = ",".join(["0"] * (k - 1) + ["1"])
    argv = ["quantile", "-i", write(tmp_path, "c.csv", text), "--tau", "0.3", "--u", u]
    assert main([*argv, "--format", "svg", "--json-errors"]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "DimensionMismatch"
    assert err["message"] == f"SVG output draws planar clouds only, got k={k}"


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


@pytest.mark.parametrize(
    "argv, shapes",
    [
        (["quantile", "--tau", "0.3", "--u", "0,1"], {"polyline": 1, "polygon": 0}),
        (["km", "--tau", "0.3"], {"polygon": 2}),
        (["depth", "--x", "0,0", "--tau", "0.3"], {"polygon": 1, "circle": 7}),
    ],
    ids=["quantile", "km", "depth"],
)
def test_svg_of_each_subcommand_is_stable_xml(tmp_path, argv, shapes):
    outs = [tmp_path / "a.svg", tmp_path / "b.svg"]
    for out in outs:
        assert main([argv[0], "-i", HEX, *argv[1:], "--format", "svg", "-o", str(out)]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
    root = ElementTree.fromstring(outs[0].read_text())
    ns = "{http://www.w3.org/2000/svg}"
    assert root.tag == ns + "svg"
    for shape, count in shapes.items():
        assert len(root.findall(f".//{ns}{shape}")) == count


@pytest.mark.parametrize(
    "argv, e",
    [(["quantile", "--tau", "0.3", "--u", "0,1"], -24), (["depth", "--x", "{x}"], -30)],
    ids=["quantile", "depth"],
)
def test_svg_drawings_do_not_depend_on_the_scale(tmp_path, argv, e):
    # the window, its span floor and the line clip's slacks scale with the
    # cloud, so a power-of-two scale gives the unit hexagon's bytes
    z = np.loadtxt(HEX, delimiter=",", skiprows=1)
    x = np.array([0.25, -0.125])
    outs = []
    for scale in (1.0, 2.0**e):
        path = write(tmp_path, f"h{scale!r}.csv",
                     "x,y\n" + "".join(f"{u!r},{v!r}\n" for u, v in (scale * z).tolist()))
        out = tmp_path / f"h{scale!r}.svg"
        flags = [arg.format(x=",".join(map(repr, (scale * x).tolist()))) for arg in argv]
        assert main([flags[0], "-i", path, *flags[1:], "--format", "svg", "-o", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


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
    ["depth", "-i", HEX, "--x", "0.1,0.2", "--no-jitter"],
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
