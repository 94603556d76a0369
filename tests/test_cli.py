"""Command-line interface: exit codes, report shape, determinism."""

import contextlib
import csv
import io
import json
import math
import re
import tempfile
import warnings
from datetime import timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ncperiods.cli import IDENTITIES, main
from ncperiods.config import DEFAULT_PANEL, ConfigError, parse_alphabet
from ncperiods.ncpoly import parse_mono


def run(tmp_path, *argv, name="out.json"):
    out = tmp_path / name
    code = main([*argv, "--out", str(out)])
    text = out.read_text() if out.exists() else ""
    return code, text


def test_verify_mult_passes(tmp_path):
    code, text = run(tmp_path, "verify", "mult", "--alphabet", "10:trivial", "--degree", "2")
    assert code == 0
    rep = json.loads(text)
    assert rep["pass"] is True
    assert rep["identity"] == "multiplicativity"
    assert rep["max"] <= rep["threshold"]
    assert rep["config"]["alphabet"] == "10:trivial"
    assert rep["config"]["degree"] == 2


def test_verify_rel_identities(tmp_path):
    code, text = run(tmp_path, "verify", "rel2")
    assert code == 0
    assert json.loads(text)["identity"] == "path_split_2"
    code3, text3 = run(tmp_path, "verify", "rel3")
    assert code3 == 0
    assert json.loads(text3)["identity"] == "path_split_3"


def test_verify_basepoint_passes(tmp_path):
    code, text = run(tmp_path, "verify", "basepoint", "--alphabet", "10:trivial",
                     "--degree", "2")
    rep = json.loads(text)
    assert rep["identity"] == "base_point_independence"
    assert rep["gamma"] == [0, -1, 1, 0]
    assert code == 0 and rep["pass"] is True


def test_threshold_breach_exits_2(tmp_path):
    code, text = run(tmp_path, "verify", "rel2", "--threshold", "1e-30")
    assert code == 2
    rep = json.loads(text)
    assert rep["pass"] is False


def test_determinism_byte_identical(tmp_path):
    _, a = run(tmp_path, "verify", "rel2", "--seed", "7", name="a.json")
    _, b = run(tmp_path, "verify", "rel2", "--seed", "7", name="b.json")
    assert a == b and a


def test_help_exits_0(capsys):
    for argv in (["--help"], ["verify", "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
    assert "usage:" in capsys.readouterr().out


def test_documented_panel_example_runs(tmp_path, capsys):
    """The --panel help's example runs as written, although its first point
    starts with "-", which argparse would otherwise read as an option."""
    with pytest.raises(SystemExit):
        main(["verify", "--help"])
    example = re.search(r'--panel="([^"]+)"', capsys.readouterr().out).group(1)
    assert example.startswith("-")
    code, text = run(tmp_path, "verify", "rel2", f"--panel={example}")
    assert code == 0
    panel = [complex(p) for p in example.split(";")]
    assert json.loads(text)["panel"] == [[p.real, p.imag] for p in panel]


def test_config_errors_exit_1(tmp_path, capsys):
    assert main(["verify", "mult", "--alphabet", "7:trivial"]) == 1
    assert main(["verify", "eta-example", "--alphabet", "10:trivial"]) == 1
    assert main(["mlv", "S12.1", "--max-order", "2"]) == 1
    assert main(["roundtrip"]) == 1
    assert main(["mlv", "S12.9"]) == 1
    assert main(["verify", "cocycle", "--gamma", "XYZ", "--degree", "1"]) == 1
    assert main(["mlv", "S12.x"]) == 1
    assert main(["mlv", "eta4x"]) == 1
    assert main(["verify", "rel2", "--panel", "abc"]) == 1
    assert main(["verify", "rel2", "--panel", "1+2j;x"]) == 1
    cfgfile = tmp_path / "cfg.json"
    # a bool is not a number, inside an [re, im] pair either
    for bad in ({"degree": "3"}, {"panel": [[1]]}, {"rtol": "x"}, {"z0": [1]}, {"seed": -1},
                {"panel": [[True, -1], [0.5, -1.2]]}, {"z0": [False, 2]},
                {"panel": [[0, -10**400]]}):  # an int JSON reads exactly, too large for a float
        cfgfile.write_text(json.dumps(bad))
        assert main(["verify", "rel2", "--config", str(cfgfile)]) == 1
    # tolerances that would silently break the solvers: atol 0 puts the
    # cutoff at infinity (Psi identically 1), a negative rtol fails correct
    # results, a NaN threshold cannot be written to the report
    assert main(["verify", "cocycle", "--atol", "0", "--degree", "2"]) == 1
    assert main(["psi", "--atol", "0", "--gamma", "S"]) == 1
    assert main(["verify", "cocycle", "--rtol", "-1"]) == 1
    assert main(["verify", "rel2", "--threshold", "nan"]) == 1
    cfgfile.write_text(json.dumps({"quad_tol": -1}))
    assert main(["verify", "rel2", "--config", str(cfgfile)]) == 1
    # usage errors are config errors, not verification failures (exit 2)
    assert main(["verify", "nonsense"]) == 1
    assert main(["verify", "cocycle", "--degree", "x"]) == 1
    err = capsys.readouterr().err
    assert "error:" in err


def test_nonfinite_points_are_refused(tmp_path, capsys):
    """A NaN or infinite panel point or z0 is a config error named up front,
    not a quadrature or ODE failure further down."""
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"z0": "nan+1j"}))  # a JSON NaN is refused on reading
    for argv in (["verify", "rel2", "--degree", "1", "--panel=nan-1j"],
                 ["verify", "rel2", "--degree", "1", "--panel=-infj"],
                 ["verify", "cocycle", "--degree", "1", "--config", str(cfgfile)]):
        assert run(tmp_path, *argv) == (1, ""), argv
        err = capsys.readouterr().err
        assert err.startswith("error:") and "not a finite point" in err, (argv, err)


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e999", "-1e999"])
def test_json_files_refuse_nonfinite_numbers(tmp_path, capsys, literal):
    """Every JSON file the CLI reads refuses a number that is not finite,
    naming the file, before any field is looked at."""
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text('{"rtol": %s}' % literal)
    assert run(tmp_path, "verify", "rel2", "--degree", "1", "--config", str(cfgfile)) == (1, "")
    err = capsys.readouterr().err
    assert err == f"error: {cfgfile}: not a readable JSON file: non-finite number {literal}\n"


def test_huge_finite_points_are_refused_by_name(tmp_path, capsys):
    """A finite panel point or z0 whose degree-D kernel overflows float64 is a
    config error naming the value, not an overflow warning followed by a
    quadrature or tail-bound failure that names neither.  rel3 multiplies
    three kernels whatever D is, rel2 and shuffle two, so at D=1 a point
    inside the degree-1 range is refused at the identity's order."""
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"z0": [0, 1e300]}))
    for argv, named in (
        (["verify", "rel2", "--degree", "1", "--panel=1e300-1j"], "panel point (1e+300-1j)"),
        (["verify", "cocycle", "--degree", "1", "--config", str(cfgfile)], "z0 1e+300j"),
        (["verify", "rel3", "--degree", "1", "--panel=1e20-1j"],
         "panel point (1e+20-1j): its degree-3 kernel bound"),
        (["verify", "rel2", "--degree", "1", "--panel=1e20-1j"],
         "panel point (1e+20-1j): its degree-2 kernel bound"),
        (["verify", "shuffle", "--degree", "1", "--panel=1e20-1j"],
         "panel point (1e+20-1j): its degree-2 kernel bound"),
        # mlv's shuffle check multiplies kernels of the named forms' weights
        # (10 and 14), not of the alphabet's letters
        (["mlv", "S12.1", "S16.1", "--max-order", "2", "--degree", "1", "--panel=1e20-1j"],
         "panel point (1e+20-1j): its degree-2 kernel bound (1 + 1e+20)^32"),
    ):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(tmp_path, *argv) == (1, ""), argv
        err = capsys.readouterr().err
        assert err.startswith("error: " + named) and "overflows float64" in err, (argv, err)


def test_verify_cocycle_judges_against_its_factors(tmp_path, monkeypatch):
    """At gamma = S, delta = STTT the factors (Psi_S|delta) and Psi_delta
    reach 2.9e10 while no entry of either side exceeds 1.  The residual,
    9.7e-5, is ray error carried by those factors: about 1000 times the
    threshold, so an absolute gate would reject the report, but 4e-16 of the
    2.3e11 the right side's terms sum to, so the relative rule passes it.  A
    factor perturbed by 1e-4 of its entries still fails (against the product
    of the factors' maxima, 8.5e20, even a change of the factor by 100%
    would pass)."""
    import ncperiods.cocycle as cocycle
    from ncperiods.sl2z import parse_gamma_label

    argv = ("verify", "cocycle", "--gamma", "S", "--delta", "STTT", "--degree", "3")
    code, text = run(tmp_path, *argv)
    rep = json.loads(text)
    assert code == 0 and rep["pass"] is True
    assert rep["max"] > 100 * rep["threshold"]
    assert rep["sides_max"] < 1.0 + 1e-9 and rep["scale"] > 1e11

    real = cocycle.psi_evaluator
    delta = parse_gamma_label("STTT")

    def perturbed(*args):
        P = real(*args)

        def ev(gamma, t):
            rows = P(gamma, t)
            if gamma == delta:
                rows = rows.copy()
                rows[:, 1:] *= 1 + 1e-4
            return rows
        return ev

    monkeypatch.setattr(cocycle, "psi_evaluator", perturbed)
    code, text = run(tmp_path, *argv, name="perturbed.json")
    rep = json.loads(text)
    assert code == 2 and rep["pass"] is False
    assert rep["max"] / rep["scale"] > 10 * rep["threshold"]


def test_failed_ray_names_its_base_point(tmp_path, capsys):
    """At z0 = 30i the ray from S^-1 z0 = i/30 cannot certify its tail; the
    failure names z0, gamma and gamma^-1 z0, for the on-demand reads of
    verify cocycle and the planned grid of psi alike."""
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"z0": [0, 30]}))
    for argv, gamma, image in (
        (["verify", "cocycle"], "[[0,-1],[1,1]]", "-1+0.0333333j"),
        (["psi"], "[[0,-1],[1,0]]", "0+0.0333333j"),
    ):
        assert run(tmp_path, *argv, "--degree", "1", "--config", str(cfgfile)) == (1, ""), argv
        err = capsys.readouterr().err
        assert err.startswith(f"numerical failure: ray from {image} for Psi_gamma, "
                              f"gamma = {gamma}, z0 = 0+30j, gamma^-1 z0 = {image}: "), err
        assert "tail bound" in err


def test_alphabet_spec_spellings():
    """An eta letter may carry its weight; a bare weight is trivial."""
    assert parse_alphabet("4:eta12") == parse_alphabet("eta12")
    assert parse_alphabet("10") == parse_alphabet("10:trivial")
    with pytest.raises(ConfigError, match="eta12 letter has weight 4"):
        parse_alphabet("5:eta12")


def test_config_file_with_flag_override(tmp_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"degree": 2, "threshold": 1e-5, "alphabet": "10:trivial"}))
    code, text = run(tmp_path, "verify", "rel2", "--config", str(cfgfile),
                     "--threshold", "2e-6")
    assert code == 0
    rep = json.loads(text)
    assert rep["config"]["degree"] == 2          # from the file
    assert rep["config"]["threshold"] == 2e-6    # flag wins
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"no_such_knob": 1}))
    assert main(["verify", "rel2", "--config", str(bad)]) == 1
    bad.write_text(json.dumps({"y_max": 14.0}))  # removed field
    assert main(["verify", "rel2", "--config", str(bad)]) == 1
    assert main(["verify", "rel2", "--config", str(tmp_path / "missing.json")]) == 1


def test_removed_max_steps_field_is_refused(tmp_path):
    """A config file naming a removed field is refused as unknown."""
    bad = tmp_path / "bad.json"
    for removed in ({"max_steps": 1000}, {"precision": "extended"}):
        bad.write_text(json.dumps(removed))
        assert main(["verify", "rel2", "--config", str(bad)]) == 1


def test_csv_format_lists_of_objects(tmp_path):
    """A list of objects, here the roundtrip report's per-degree stages, gets
    one indexed row prefix per entry."""
    code, text = run(tmp_path, "roundtrip", "--random", "--degree", "1", "--format", "csv",
                     name="out.csv")
    assert code == 0
    keys = [r[0] for r in csv.reader(io.StringIO(text)) if r]
    assert "degrees[0].abelian.max" in keys
    assert not any(k.startswith("degrees[1]") for k in keys)


def test_csv_format(tmp_path):
    code, text = run(tmp_path, "verify", "rel2", "--format", "csv", name="out.csv")
    assert code == 0
    rows = {r[0]: r[1] for r in csv.reader(io.StringIO(text)) if r}
    assert "max" in rows
    assert "config.threshold" in rows
    json.loads(rows["max"])  # values are json scalars


@pytest.mark.parametrize("argv", [["eta4"], ["eta4", "S12.1", "--max-order", "2"]])
def test_mlv_refuses_nontrivial_multiplier(tmp_path, capsys, argv):
    """Moments need a trivial multiplier: the spec is named, no traceback."""
    code, text = run(tmp_path, "mlv", *argv)
    assert (code, text) == (1, "")
    err = capsys.readouterr().err
    assert err.startswith("error: 'eta4'") and "trivial-multiplier" in err


def test_mlv_refuses_no_form_spec(tmp_path, capsys):
    assert run(tmp_path, "mlv") == (1, "")
    assert capsys.readouterr().err == "error: mlv needs at least one form spec\n"


def test_mlv_table(tmp_path):
    """One table per form, each with its functional-equation residual; S18.1
    has sign -1, so its central value Lambda(9) is 0."""
    code, text = run(tmp_path, "mlv", "S12.1", "S18.1")
    assert code == 0
    rep = json.loads(text)
    for tab, w, sign in zip(rep["tables"], (10, 16), (1, -1)):
        assert tab["shifted_weight"] == w
        assert len(tab["rows"]) == w + 1
        for row in tab["rows"]:
            assert row["lambda_s"] == row["k"] + 1
            lam = complex(*row["lambda"])
            assert abs(lam.imag) < 1e-12 * max(1.0, abs(lam))
        assert tab["funceq"]["sign"] == sign
        assert tab["funceq"]["max_rel"] <= 1e-12
        assert tab["pass"] is True


def test_mlv_funceq_breach_exits_2(tmp_path):
    code, text = run(tmp_path, "mlv", "S12.1", "--threshold", "1e-30")
    tab = json.loads(text)["tables"][0]
    assert code == 2 and tab["pass"] is False
    assert tab["funceq"]["max_rel"] > 1e-30


def test_mlv_eta24_is_delta(tmp_path):
    """eta^24 = Delta, so both specs give the same moment rows."""
    _, eta = run(tmp_path, "mlv", "eta24", name="eta.json")
    _, delta = run(tmp_path, "mlv", "S12.1", name="delta.json")
    assert json.loads(eta)["tables"][0]["rows"] == json.loads(delta)["tables"][0]["rows"]


def test_mlv_order_two(tmp_path):
    code, text = run(tmp_path, "mlv", "S12.1", "S16.1", "--max-order", "2")
    assert code == 0
    tab = json.loads(text)["tables"][0]
    assert tab["pass"] is True
    assert len(tab["double_moments"]) == 11
    assert len(tab["double_moments"][0]) == 15
    assert tab["shuffle_residual"] < 1e-7


def test_shuffle_gate_is_relative(tmp_path):
    """The shuffle residual of S26.1, S22.1 is far above the threshold in
    absolute terms but at rounding level against its scale, so it passes."""
    code, text = run(tmp_path, "mlv", "S26.1", "S22.1", "--max-order", "2")
    tab = json.loads(text)["tables"][0]
    assert tab["shuffle_residual"] > 1.0
    assert code == 0 and tab["pass"] is True
    code, text = run(tmp_path, "verify", "shuffle", "--alphabet", "24:trivial,20:trivial",
                     name="verify.json")
    rep = json.loads(text)
    assert rep["max"] > 1.0
    assert code == 0 and rep["pass"] is True
    # one rule judges every identity report: at this alphabet the cocycle,
    # equivariance, mult and rel3 residuals are also far above the threshold
    # in absolute terms and at rounding level against their scale
    for identity in IDENTITIES:
        alphabet = "eta4" if identity == "eta-example" else "24:trivial,20:trivial"
        code, text = run(tmp_path, "verify", identity, "--alphabet", alphabet,
                         "--degree", "2", name=f"{identity}.json")
        rep = json.loads(text)
        assert rep["max"] / max(1.0, rep["scale"]) <= rep["threshold"], identity
        assert code == 0 and rep["pass"] is True, identity
        if identity in ("cocycle", "equivariance", "mult", "rel3"):
            assert rep["max"] > 1.0, identity


def test_roundtrip_zero_hidden(tmp_path):
    hidden = tmp_path / "h.json"
    hidden.write_text("{}")
    code, text = run(tmp_path, "roundtrip", str(hidden), "--alphabet",
                     "10:trivial,4:trivial", "--degree", "2")
    assert code == 0
    rep = json.loads(text)
    assert rep["pass"] is True
    assert rep["max_rel_err"] == 0.0


def test_roundtrip_unreachable_monomial(tmp_path, capsys):
    hidden = tmp_path / "h.json"
    hidden.write_text(json.dumps({"A2": [1.0]}))
    code = main(["roundtrip", str(hidden), "--alphabet", "10:trivial,4:trivial",
                 "--degree", "2"])
    assert code == 1
    assert "no cusp forms exist" in capsys.readouterr().err


def test_roundtrip_file_recovers(tmp_path):
    hidden = tmp_path / "h.json"
    hidden.write_text(json.dumps({"A1": [1.0], "A1*A2": [0.5]}))
    code, text = run(tmp_path, "roundtrip", str(hidden), "--alphabet",
                     "10:trivial,4:trivial", "--degree", "2")
    assert code == 0
    rep = json.loads(text)
    assert rep["pass"] is True
    assert rep["max_rel_err"] <= 1e-4
    assert rep["comparison"]["A1"]["recovered"][0] == pytest.approx(1.0, abs=1e-5)
    assert rep["comparison"]["A1*A2"]["recovered"][0] == pytest.approx(0.5, abs=1e-5)


def test_catalog_command(tmp_path):
    code, text = run(tmp_path, "catalog", "--alphabet", "10:trivial,4:trivial",
                     "--degree", "3")
    assert code == 0
    rep = json.loads(text)
    assert len(rep["entries"]) == 11
    byname = {e["monomial"]: e for e in rep["entries"]}
    assert byname["A1"]["forms"] == ["S12.1"]
    assert byname["A1*A1*A1"]["dim"] == 2
    assert "A2" not in byname


def test_psi_dump_feeds_evaluator(tmp_path):
    """psi --gamma output parses back into a file-backed evaluator that
    reproduces the in-process cocycle values."""
    from ncperiods.cocycle import CuspCollection
    from ncperiods.ncpoly import Alphabet, Letter
    from ncperiods.modforms import level_one_basis
    from ncperiods.reconstruct import cocycle_from_json, psi_evaluator
    from ncperiods.sl2z import S

    code, text = run(tmp_path, "psi", "--gamma", "S", "--alphabet", "10:trivial",
                     "--degree", "1")
    assert code == 0
    data = json.loads(text)
    ab = Alphabet((Letter.trivial(10),))
    ev = cocycle_from_json(data, ab, 1)
    panel = np.asarray(DEFAULT_PANEL, dtype=complex)
    got = ev(S, panel)
    h = CuspCollection.from_letters(ab, [level_one_basis(12)[0]])
    want = psi_evaluator(h, 1)(S, panel)
    assert np.max(np.abs(got - want)) < 1e-10


_AB2 = ("--alphabet", "10:trivial,4:trivial", "--degree", "2")


@pytest.fixture(scope="module")
def psi_values(tmp_path_factory):
    """The grid dump `psi` writes for the default collection at _AB2."""
    path = tmp_path_factory.mktemp("psi") / "psi.json"
    assert main(["psi", *_AB2, "--out", str(path)]) == 0
    return json.loads(path.read_text())


def test_psi_feeds_peel(tmp_path, psi_values):
    """peel on the file psi writes fits what roundtrip fits when it hides the
    default collection (A1 = S12.1 with coefficient 1), byte for byte."""
    values = tmp_path / "psi.json"
    values.write_text(json.dumps(psi_values))
    code, text = run(tmp_path, "peel", str(values), *_AB2)
    assert code == 0
    hidden = tmp_path / "h.json"
    hidden.write_text('{"A1": [1]}')
    code_rt, text_rt = run(tmp_path, "roundtrip", str(hidden), *_AB2, name="rt.json")
    assert code_rt == 0
    got, want = json.loads(text), json.loads(text_rt)
    for key in ("degrees", "final_residual"):
        assert json.dumps(got[key], sort_keys=True) == json.dumps(want[key], sort_keys=True)
    assert got["degrees"][0]["fits"]["A1"]["coefficients"] == pytest.approx([1.0], abs=1e-10)


def _perturb_x_s(data):
    for entry in data["entries"]:
        if entry["gamma"] == "S":
            entry["values"]["A1"][0][0] *= 1.0 + 1e-3
    return json.dumps(data)


def _numbers_as(convert, field):
    """The dump with every number of each entry's field ("values" or "panel")
    rewritten by convert."""
    def rewrite(data):
        for entry in data["entries"]:
            lists = entry["values"].values() if field == "values" else [entry["panel"]]
            for pairs in lists:
                pairs[:] = [[convert(v) for v in pair] for pair in pairs]
        return json.dumps(data)
    return rewrite


def _second_spelling(data):
    """X_S's A1 column given again under the key A+1, with other values."""
    entry = next(e for e in data["entries"] if e["gamma"] == "S")
    entry["values"]["A+1"] = [[9.0, 9.0] for _ in entry["values"]["A1"]]
    return json.dumps(data)


def _nan_x_s(data):
    entry = next(e for e in data["entries"] if e["gamma"] == "S")
    entry["values"]["A1"][0][0] = float("nan")
    return json.dumps(data)  # writes the literal NaN


@pytest.mark.parametrize("content,argv,code,message", [
    pytest.param(lambda data: "{not json", _AB2, 1, "error: {path}: not a readable JSON file",
                 id="not-json"),
    pytest.param(_nan_x_s, _AB2, 1,
                 "error: {path}: not a readable JSON file: non-finite number NaN",
                 id="nan-x-s"),
    pytest.param(lambda data: json.dumps({"degree": 2}), _AB2, 1,
                 "error: {path}: cocycle values need a field 'entries'", id="no-entries"),
    pytest.param(json.dumps, ("--alphabet", "10:trivial,4:trivial", "--degree", "1"), 1,
                 "error: {path}: cocycle values were dumped at degree 2, read at degree 1",
                 id="degree-mismatch"),
    pytest.param(json.dumps, (*_AB2, "--panel=-0.8j;-1.5j;-0.4-0.9j;0.6-1.1j"), 1,
                 "error: {path}: peel needs X_S on its panel [[0.0, -0.8], [0.0, -1.5], "
                 "[-0.4, -0.9], [0.6, -1.1]]\n",
                 id="off-panel"),
    pytest.param(_perturb_x_s, _AB2, 2, "recovery failure: ", id="perturbed-x-s"),
    # a number spelled as a string, or a bool, is not a number (the first
    # entries hold X_T = 1 and list no values)
    pytest.param(_numbers_as(str, "values"), _AB2, 1,
                 "error: {path}: S/A1: values must list [re,im] pairs of numbers; "
                 "point 0 is ['", id="string-values"),
    # (every number becomes True, not bool(x): Re X_S(A1) at -0.8i is zero by
    # symmetry, and whether it reads exactly 0 is rounding noise)
    pytest.param(_numbers_as(lambda v: True, "values"), _AB2, 1,
                 "error: {path}: S/A1: values must list [re,im] pairs of numbers; "
                 "point 0 is [True, True]\n", id="bool-values"),
    pytest.param(_numbers_as(bool, "panel"), _AB2, 1,
                 "error: {path}: entry 0: field 'panel' must list [re,im] pairs of numbers; "
                 "point 0 is [False, True]\n", id="bool-panel"),
    # two spellings of one monomial: neither column may win silently
    pytest.param(_second_spelling, _AB2, 1,
                 "error: {path}: entry 2: keys 'A1' and 'A+1' both spell monomial A1\n",
                 id="two-spellings"),
])
def test_peel_refuses_bad_values_file(tmp_path, capsys, psi_values, content, argv, code,
                                      message):
    """A values file peel cannot read is refused with one "error:" line that
    names the file; a readable one that is not a reachable cocycle is a
    recovery failure."""
    path = tmp_path / "values.json"
    path.write_text(content(json.loads(json.dumps(psi_values))))
    assert run(tmp_path, "peel", str(path), *argv) == (code, "")
    err = capsys.readouterr().err
    assert err.startswith(message.format(path=path)), err
    assert "Traceback" not in err and err.count("\n") == 1


def test_psi_grid_dump(tmp_path):
    code, text = run(tmp_path, "psi", "--alphabet", "10:trivial", "--degree", "1")
    assert code == 0
    data = json.loads(text)
    labels = [e["gamma"] for e in data["entries"]]
    assert "S" in labels and "T" in labels and "TS" in labels


@pytest.mark.parametrize("gamma", ["T^-1", "ST^-1S", "TTS", "m:2,1,1,1", "m:-1,0,0,-1"])
def test_psi_gamma_label_round_trip(tmp_path, gamma):
    from ncperiods.sl2z import parse_gamma_label

    code, text = run(tmp_path, "psi", "--gamma", gamma, "--alphabet", "10:trivial",
                     "--degree", "1", "--panel=-0.8j")
    assert code == 0
    (entry,) = json.loads(text)["entries"]
    assert parse_gamma_label(entry["gamma"]) == parse_gamma_label(gamma)


def test_matrix_label_needs_m_prefix(capsys):
    assert main(["psi", "--gamma", "x:0,-1,1,0", "--alphabet", "10:trivial",
                 "--degree", "1"]) == 1
    assert "error: bad group element" in capsys.readouterr().err


@pytest.mark.parametrize("content,message", [
    pytest.param(c, m, id=c) for c, m in [
        ('{"B1": [1.0]}', "error: "),
        ('{"A1": ["x"]}', "error: "),
        ('{"A1": [NaN]}', "error: "),
        ('{"A1": [1], "A+1": [2]}',
         r"error: .*h\.json: keys 'A1' and 'A\+1' both spell monomial A1$"),
        # longer than the catalog's degree, not a monomial without cusp forms
        ('{"A1*A1": [1.0]}', r"error: A1\*A1: degree 2 exceeds truncation 1$"),
        # overflows while the hidden form is combined
        ('{"A1": [1e300]}', "error: A1: combination overflows"),
        # finite, but too large for any stored expansion to certify
        ('{"A1": [1e200]}', r"numerical failure: .*\(largest stored coefficient 5\.44e\+212\)"),
    ]
] + [pytest.param('{"A1": [1%s]}' % ("0" * 400), "error: ", id="400-digit-int")])
def test_roundtrip_rejects_malformed_hidden_file(tmp_path, capsys, content, message):
    hidden = tmp_path / "h.json"
    hidden.write_text(content)
    assert main(["roundtrip", str(hidden), "--alphabet", "10:trivial", "--degree", "1"]) == 1
    assert re.match(message, capsys.readouterr().err)


def _one_finite_number(v) -> bool:
    """A hidden-file value the alphabet 10:trivial at D=1 takes for A1."""
    try:
        return (isinstance(v, list) and len(v) == 1 and type(v[0]) in (int, float)
                and math.isfinite(float(v[0])))
    except OverflowError:
        return False


def _parses_to_a1(key: str) -> bool:
    try:
        return parse_mono(key) == (1,)
    except ValueError:
        return False


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=4), kids, max_size=3),
    max_leaves=8)
_A1_SPELLINGS = st.sampled_from(["A1", " A1", "A01", "A+1", "A1 "])
_KEYS = st.sampled_from(["1", "A2", "A0", "A-1", "A1*A1", "B1", "A", "", "A1*", "a1"]) | st.text(max_size=6)
# each poison entry is one defect a well-formed file cannot have
_POISON = st.one_of(
    st.tuples(_KEYS.filter(lambda k: not _parses_to_a1(k)), _JSON),
    st.tuples(_A1_SPELLINGS, _JSON.filter(lambda v: not _one_finite_number(v))),
)
_CLEAN = st.tuples(_A1_SPELLINGS, st.lists(st.floats(-2, 2), min_size=1, max_size=1))


@st.composite
def _malformed_hidden_file(draw) -> bytes:
    kind = draw(st.sampled_from(["entries", "not-an-object", "bytes"]))
    if kind == "not-an-object":
        return json.dumps(draw(_JSON.filter(lambda v: not isinstance(v, dict)))).encode()
    if kind == "bytes":
        raw = draw(st.binary(max_size=24))
        try:
            assume(not isinstance(json.loads(raw.decode("utf-8")), dict))
        except (ValueError, RecursionError):
            pass
        return raw
    # clean entries, then the defect
    entries = draw(st.lists(_CLEAN, max_size=2)) + [draw(_POISON)]
    return ("{" + ", ".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in entries) + "}").encode()


@settings(max_examples=60, deadline=timedelta(seconds=5))
@given(_malformed_hidden_file())
@example(b"[" * 100_000)
@example(b'{"A1": [' + b"1" * 5000 + b"]}")
@example(b'{"A1": [1' + b"0" * 400 + b"]}")
@example(b"\xff\xfe")
@example(b'{"A1": [true]}')
@example(b'{"A1": ["0.5"]}')
@example(b'{"A1": [0.0], " A1": [0.0]}')
def test_roundtrip_hidden_file_fuzz(content):
    """Whatever a malformed hidden-h file holds, roundtrip refuses it with one
    "error:" line and exit 1: no traceback, no numerical failure and no
    coefficient silently read from a bool or a string."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "h.json"
        path.write_bytes(content)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["roundtrip", str(path), "--alphabet", "10:trivial", "--degree", "1",
                         "--out", str(Path(tmp) / "out.json")])
    assert code == 1 and err.getvalue().startswith("error:"), (content, err.getvalue())
