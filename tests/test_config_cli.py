import copy
import json
import os

import pytest

from spectra_lab.cli import main
from spectra_lab.config import (RunConfig, parse_config, serialize_config,
                                validate_config)
from spectra_lab.errors import (Malformed, NonHermitianPotential,
                                UnsupportedDimension)
from spectra_lab.frequency import GeneratorBasis, freq

MATHIEU_CFG = {
    "dimension": 1,
    "rho_n": 100.0,
    "frequencies": [
        {"theta": ["1"], "coeff": [0.2, 0.0]},
        {"theta": ["-1"], "coeff": [0.2, 0.0]},
    ],
    "ktilde": 1,
    "k_max": 3,
    "M_cut": 60,
    "N_k": 256,
    "ladder": {"min": 50.0, "max": 400.0, "count": 6},
    "x": [0.0],
    "samples": 50,
    "seed": 0,
}


def _write(tmp_path, data, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(data))
    return str(p)


def test_parse_valid_mathieu(tmp_path):
    cfg = parse_config(_write(tmp_path, MATHIEU_CFG))
    assert cfg.dimension == 1
    basis = GeneratorBasis(None)
    assert cfg.potential == {freq([1], basis): 0.2, freq([-1], basis): 0.2}


def test_duplicate_theta_summed(tmp_path):
    """theta = +-1 listed twice at 0.1 is the potential with +-1 at 0.2, in
    every subcommand that reads the potential; theta = +-1/2 listed at 0
    changes no output, neither the zone geometry of zones and gauge nor the
    lattice the oracles of bloch and compare need."""
    dup = dict(MATHIEU_CFG, frequencies=[
        {"theta": [t], "coeff": [0.1, 0.0]} for t in ("1", "-1", "1", "-1")])
    zero = dict(MATHIEU_CFG, frequencies=MATHIEU_CFG["frequencies"] + [
        {"theta": [t], "coeff": [0.0, 0.0]} for t in ("1/2", "-1/2")])
    paths = {"dup": _write(tmp_path, dup, "dup.json"),
             "zero": _write(tmp_path, zero, "zero.json"),
             "merged": _write(tmp_path, MATHIEU_CFG, "merged.json")}
    out = str(tmp_path / "out")
    for cmd in ("heat", "compare", "bloch", "gauge", "zones"):
        texts = {}
        for key, path in paths.items():
            code = main([cmd, "--config", path, "--out", out, "--seed", "3"])
            texts[key] = (code, open(out, "rb").read())
        assert texts["dup"] == texts["merged"], cmd
        assert texts["zero"] == texts["merged"], cmd


def test_roundtrip_identity(tmp_path):
    cfg = parse_config(_write(tmp_path, MATHIEU_CFG))
    assert validate_config(serialize_config(cfg)) == cfg


def test_non_hermitian_rejected(tmp_path):
    bad = dict(MATHIEU_CFG)
    bad["frequencies"] = [
        {"theta": ["1"], "coeff": [0.2, 0.1]},
        {"theta": ["-1"], "coeff": [0.2, 0.0]},
    ]
    with pytest.raises(NonHermitianPotential):
        parse_config(_write(tmp_path, bad))


def test_unsupported_dimension_for_oracle(tmp_path):
    bad = dict(MATHIEU_CFG)
    bad["dimension"] = 3
    bad["frequencies"] = []
    bad["x"] = [0.0, 0.0, 0.0]
    with pytest.raises(UnsupportedDimension):
        parse_config(_write(tmp_path, bad), command="bloch")
    # fine for non-oracle commands that take b = 0
    parse_config(_write(tmp_path, bad), command="heat")
    parse_config(_write(tmp_path, bad), command="validate")
    # zones has no zone geometry without frequencies spanning R^d
    with pytest.raises(Malformed):
        parse_config(_write(tmp_path, bad), command="zones")


def test_malformed_json(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    with pytest.raises(Malformed):
        parse_config(str(p))
    # a directory, and a file that is not UTF-8, are config errors too
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"dimension": 1, "note": "\xe9"}')
    for path, message in ((tmp_path, "cannot read config file"),
                          (latin1, "config file is not UTF-8")):
        with pytest.raises(Malformed) as exc:
            parse_config(str(path))
        assert exc.value.violations[0].startswith(message)


def test_all_violations_collected(tmp_path):
    bad = dict(MATHIEU_CFG)
    bad["ktilde"] = 0
    bad["N_k"] = -1
    bad["seed"] = -2
    with pytest.raises(Malformed) as exc:
        parse_config(_write(tmp_path, bad))
    assert len(exc.value.violations) == 3


def test_defaults_are_runconfig_fields():
    cfg = validate_config({"dimension": 1,
                           "frequencies": MATHIEU_CFG["frequencies"]})
    assert cfg == RunConfig(dimension=1, potential=cfg.potential)


BOOL_CASES = [
    (("dimension",), "dimension must be a positive integer"),
    (("ktilde",), "ktilde must be a positive integer"),
    (("k_max",), "k_max must be a positive integer"),
    (("M_cut",), "M_cut must be a positive integer"),
    (("N_k",), "N_k must be a positive integer"),
    (("samples",), "samples must be a positive integer"),
    (("seed",), "seed must be a non-negative integer"),
    (("ladder", "count"), "ladder count must be an integer >= 2"),
    (("ladder", "min"), "ladder needs finite 0 < min < max"),
    (("x", 0), "x must be a list of d finite coordinates"),
    (("frequencies", 0, "theta", 0), "frequencies[0]: expected rational"),
    (("frequencies", 0, "coeff"), "frequencies[0]: expected finite number"),
]


@pytest.mark.parametrize("path, message", [
    pytest.param(path, message, id=".".join(map(str, path)))
    for path, message in BOOL_CASES])
def test_json_bool_is_no_number(tmp_path, capsys, path, message):
    """JSON true is no integer, number, rational or coefficient: the run
    exits 2 on a config error, where it ran with 1 or crashed before."""
    raw = copy.deepcopy(MATHIEU_CFG)
    node = raw
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = True
    assert main(["bloch", "--config", _write(tmp_path, raw)]) == 2
    err = capsys.readouterr().err
    assert "config error: " + message in err
    assert "Traceback" not in err


def test_cli_exit_codes(tmp_path, capsys):
    cfgpath = _write(tmp_path, MATHIEU_CFG)
    out = str(tmp_path / "out.csv")
    assert main(["bloch", "--config", cfgpath, "--out", out]) == 0
    # file errors end in exit 2 and one config error line, before the run:
    # an --out in a missing directory or naming one, a --config naming a
    # directory or a file that is not UTF-8
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"dimension": 1, "note": "\xe9"}')
    capsys.readouterr()
    for args in (["--config", cfgpath, "--out", str(tmp_path / "no" / "out.csv")],
                 ["--config", cfgpath, "--out", str(tmp_path)],
                 ["--config", str(tmp_path)],
                 ["--config", str(latin1)]):
        assert main(["bloch"] + args) == 2, args
        captured = capsys.readouterr()
        assert captured.out == "", args
        assert captured.err.count("\n") == 1, args
        assert captured.err.startswith("config error: "), args
    bad = dict(MATHIEU_CFG)
    bad["dimension"] = 3
    bad["frequencies"] = []
    bad["x"] = [0.0, 0.0, 0.0]
    assert main(["bloch", "--config", _write(tmp_path, bad, "b.json")]) == 2
    # compare works on the diagonal only; validate and bloch take y
    offdiag = _write(tmp_path, dict(MATHIEU_CFG, y=[0.5]), "y.json")
    assert main(["compare", "--config", offdiag]) == 2
    assert "y must be null" in capsys.readouterr().err
    parse_config(offdiag, command="validate")
    parse_config(offdiag, command="bloch")
    # --seed obeys the config's seed rule
    assert main(["zones", "--config", cfgpath, "--seed", "-1"]) == 2
    assert "seed must be a non-negative integer" in capsys.readouterr().err
    # json reads NaN and Infinity; every configured number must be finite
    nan, inf = float("nan"), float("inf")
    for field, bad in [
            ("rho_n", dict(MATHIEU_CFG, rho_n=inf)),
            ("frequencies[0]", dict(MATHIEU_CFG, frequencies=[
                {"theta": ["1"], "coeff": [nan, 0.0]},
                {"theta": ["-1"], "coeff": [nan, 0.0]}])),
            ("x", dict(MATHIEU_CFG, x=[nan])),
            ("y", dict(MATHIEU_CFG, y=[inf])),
            ("alpha", dict(MATHIEU_CFG, alpha=[-inf])),
            ("ladder", dict(MATHIEU_CFG, ladder={"min": 50.0, "max": inf,
                                                 "count": 6})),
            # an integer past the float range has no float value
            ("rho_n", dict(MATHIEU_CFG, rho_n=10**400))]:
        path = _write(tmp_path, bad, "nonfinite.json")
        assert main(["heat", "--config", path]) == 2, field
        assert "config error: " + field in capsys.readouterr().err, field
    # the frequencies with a nonzero coefficient must span R^d for the zone
    # geometry: d = 2 with only +-e1, and b = 0; validate skips b = 0
    axis_only = dict(MATHIEU_CFG, dimension=2, x=[0.0, 0.0], frequencies=[
        {"theta": [t, "0"], "coeff": [0.2, 0.0]} for t in ("1", "-1")])
    zero_b = dict(MATHIEU_CFG, frequencies=[
        {"theta": [t], "coeff": [0.0, 0.0]} for t in ("1", "-1")])
    for name, raw, commands in [("axis_only", axis_only, ("zones", "gauge", "validate")),
                                ("zero_b", zero_b, ("zones", "gauge"))]:
        path = _write(tmp_path, raw, name + ".json")
        for cmd in commands:
            assert main([cmd, "--config", path]) == 2, (name, cmd)
            assert "to span R^" in capsys.readouterr().err, (name, cmd)
    # a nonzero off-lattice theta is a config error for the oracles only; at
    # coefficient 0 it is no frequency (test_duplicate_theta_summed)
    half = dict(MATHIEU_CFG, frequencies=MATHIEU_CFG["frequencies"] + [
        {"theta": [t], "coeff": [0.1, 0.0]} for t in ("1/2", "-1/2")])
    path = _write(tmp_path, half, "half.json")
    for cmd in ("bloch", "compare"):
        assert main([cmd, "--config", path]) == 2, cmd
        assert "needs integer frequencies, got theta=[1/2]" in capsys.readouterr().err, cmd
    assert main(["heat", "--config", path, "--out", str(tmp_path / "h.json")]) == 0
    out = str(tmp_path / "validate.json")
    assert main(["validate", "--config", _write(tmp_path, zero_b, "zero_b.json"),
                 "--out", out]) == 0
    assert "zone_partition" not in open(out).read()
    with pytest.raises(SystemExit) as exc:
        main(["bogus", "--config", cfgpath])
    assert exc.value.code == 2


def test_heat_rejects_y(capsys):
    """The a_j(x) are on-diagonal: heat refuses a y the way compare does."""
    path = os.path.join(os.path.dirname(__file__), "..", "configs",
                        "validate_default.json")
    assert main(["heat", "--config", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("config error: command 'heat' evaluates on the "
                            "diagonal only (y must be null; bloch takes y)\n")


@pytest.mark.parametrize("command", ["heat", "zones"])
def test_huge_surd_is_config_error(tmp_path, capsys, command):
    """A surd_D past the float range exits 2 with a config error, not an
    OverflowError traceback."""
    path = _write(tmp_path, dict(MATHIEU_CFG, surd_D=10**400 + 1))
    assert main([command, "--config", path]) == 2
    err = capsys.readouterr().err
    assert "surd_D must be a positive non-square integer" in err
    assert "Traceback" not in err


def test_bloch_csv_format(tmp_path):
    cfgpath = _write(tmp_path, MATHIEU_CFG)
    out = str(tmp_path / "bloch.csv")
    assert main(["bloch", "--config", cfgpath, "--out", out]) == 0
    lines = open(out).read().strip().split("\n")
    assert lines[0] == "lambda,x,y,e_lambda,N_k,M_cut"
    assert len(lines) == 1 + MATHIEU_CFG["ladder"]["count"]
    cell = lines[1].split(",")[0]
    mantissa = cell.split("e")[0].replace("-", "").replace(".", "")
    assert len(mantissa) == 17  # 17 significant digits


def test_compare_csv_format(tmp_path):
    cfg = dict(MATHIEU_CFG)
    cfg["M_cut"] = 60
    cfg["ladder"] = {"min": 100.0, "max": 800.0, "count": 5}
    cfgpath = _write(tmp_path, cfg)
    out = str(tmp_path / "cmp.csv")
    assert main(["compare", "--config", cfgpath, "--out", out]) == 0
    lines = open(out).read().strip().split("\n")
    assert lines[0] == "lambda,x,N_oracle,N_expansion_L0,N_expansion_L1,R_0,R_1"
    row = lines[1].split(",")
    assert len(row) == 7
    # R_0 = N_oracle - N_expansion_L0
    assert abs(float(row[5]) - (float(row[2]) - float(row[3]))) < 1e-12


def test_outputs_deterministic(tmp_path):
    cfgpath = _write(tmp_path, MATHIEU_CFG)
    a = str(tmp_path / "a.json")
    b = str(tmp_path / "b.json")
    assert main(["zones", "--config", cfgpath, "--out", a]) == 0
    assert main(["zones", "--config", cfgpath, "--out", b]) == 0
    assert open(a, "rb").read() == open(b, "rb").read()


def test_heat_subcommand(tmp_path):
    cfgpath = _write(tmp_path, MATHIEU_CFG)
    out = str(tmp_path / "heat.json")
    assert main(["heat", "--config", cfgpath, "--out", out]) == 0
    rep = json.loads(open(out).read())
    import math

    assert abs(rep["a1"]["float"] + 0.4 / (2 * math.pi)) < 1e-12
    assert rep["sigma_engine"]["expected_ratio"] == "2/3"


def test_gauge_subcommand(tmp_path):
    cfg = dict(MATHIEU_CFG)
    cfg["rho_n"] = 1000.0
    cfg["ktilde"] = 2
    cfg["samples"] = 200
    cfgpath = _write(tmp_path, cfg)
    out = str(tmp_path / "gauge.json")
    assert main(["gauge", "--config", cfgpath, "--out", out]) == 0
    rep = json.loads(open(out).read())
    assert rep["checks"]["b3"]["passed"]
    assert rep["checks"]["psi1_symmetric"] and rep["checks"]["w_symmetric"]
