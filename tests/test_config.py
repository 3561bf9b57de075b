"""INI parsing with line-anchored errors, canonical emission, round-trips."""

import dataclasses
import math
import re
from pathlib import Path

import pytest

from chbreak import (ConfigError, Grid, InitialDatum, RunConfig, emit_config, load_config,
                     parse_config)
from chbreak.config import _SCHEMA
from chbreak.model import DATUM_FAMILIES, PROFILE_KINDS

FULL = """\
# full configuration exercising every section
[grid]
half_length = 30.0
n_points = 1024

[datum]
family = gaussian_derivative
amplitude = 0.8
width = 1.3
center = 0.7

[dissipation]
kind = sinusoidal
offset = 0.2
amplitude = 0.2
omega = 1.5
delta_sup = 0.4

[solver]
t_end = 1.5
cfl_factor = 0.25

[characteristics]
seeds = 0.0, 0.5 -1.25
"""

MINIMAL = """\
[grid]
half_length = 30.0
n_points = 256

[datum]
family = sech_squared
amplitude = 0.4
width = 1.0

[dissipation]
kind = constant
value = 0.0

[solver]
t_end = 0.5
"""

# one config per datum family x dissipation kind, on 16 points; a family or
# kind with no entry here fails at import
_DATUM_LINES = {"gaussian_derivative": "amplitude = 0.8\nwidth = 1.3\ncenter = 0.7",
                "sech_squared": "amplitude = 0.4\nwidth = 1.0",
                "antisym_peak": "amplitude = 0.4\nwidth = 2.0\ncenter = -1.5",
                "samples": "values = " + " ".join(f"{math.sin(i):.6f}" for i in range(16))}
_PROFILE_LINES = {"constant": "value = 0.1",
                  "linear_ramp": "start = 0.1\nramp_rate = -0.05\ndelta_sup = 0.1",
                  "sinusoidal": "offset = 0.2\namplitude = 0.2\nomega = 1.5",
                  "piecewise": "times = 0.0 1.0\nvalues = 0.2 0.3\ndelta_sup = 0.5"}
EVERY_FAMILY_AND_KIND = [pytest.param(
    MINIMAL.replace("n_points = 256", "n_points = 16").replace(
        "family = sech_squared\namplitude = 0.4\nwidth = 1.0",
        f"family = {family}\n{_DATUM_LINES[family]}").replace(
        "kind = constant\nvalue = 0.0", f"kind = {kind}\n{_PROFILE_LINES[kind]}"),
    id=f"{family}-{kind}") for family in DATUM_FAMILIES for kind in PROFILE_KINDS]


class TestParse:
    def test_full_config(self):
        cfg = parse_config(FULL)
        assert cfg.grid.half_length == 30.0
        assert cfg.grid.n_points == 1024
        assert cfg.datum.family == "gaussian_derivative"
        assert cfg.datum.center == 0.7
        assert cfg.profile.kind == "sinusoidal"
        assert cfg.profile.delta_sup == 0.4
        assert cfg.t_end == 1.5
        assert cfg.cfl_factor == 0.25
        assert cfg.seeds == (0.0, 0.5, -1.25)

    def test_minimal_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg.cfl_factor == 0.3
        assert cfg.seeds == ()
        assert cfg.profile.delta_sup == 0.0

    def test_zero_horizon_accepted(self):
        cfg = parse_config(MINIMAL.replace("t_end = 0.5", "t_end = 0.0"))
        assert cfg.t_end == 0.0

    def test_comments_and_blanks_ignored(self):
        text = MINIMAL.replace("[solver]", "; a remark\n\n# another\n[solver]")
        assert parse_config(text) == parse_config(MINIMAL)

    def test_piecewise_profile(self):
        text = MINIMAL.replace(
            "kind = constant\nvalue = 0.0",
            "kind = piecewise\ntimes = 0.0 0.5 2.0\nvalues = 0.1 0.4 0.2")
        cfg = parse_config(text)
        assert cfg.profile.knot_times == (0.0, 0.5, 2.0)
        assert cfg.profile.delta_sup == 0.4

    def test_samples_datum(self):
        vals = " ".join(["0.0"] * 16)
        text = MINIMAL.replace(
            "family = sech_squared\namplitude = 0.4\nwidth = 1.0",
            f"family = samples\nvalues = {vals}").replace("n_points = 256",
                                                          "n_points = 16")
        cfg = parse_config(text)
        assert cfg.datum.family == "samples"
        assert len(cfg.datum.values) == 16


class TestErrors:
    def _raises(self, text, fragment):
        with pytest.raises(ConfigError) as err:
            parse_config(text, path="test.ini")
        assert fragment in str(err.value)
        return str(err.value)

    def test_entry_outside_section(self):
        msg = self._raises("stray = 1\n" + MINIMAL, "outside any [section]")
        assert msg.startswith("test.ini:1:")

    def test_missing_equals(self):
        bad = MINIMAL.replace("t_end = 0.5", "t_end 0.5")
        self._raises(bad, "expected key = value")

    def test_line_number_reported(self):
        bad = "[grid]\nhalf_length = 30.0\nn_points = many\n"
        msg = self._raises(bad, "expects an integer")
        assert "test.ini:3:" in msg

    def test_duplicate_section(self):
        self._raises(MINIMAL + "\n[grid]\nhalf_length = 10.0\n",
                     "duplicate section [grid]")

    def test_duplicate_key(self):
        bad = MINIMAL.replace("t_end = 0.5", "t_end = 0.5\nt_end = 0.7")
        self._raises(bad, "duplicate key 't_end'")

    def test_unknown_section(self):
        self._raises(MINIMAL + "\n[turbulence]\nmodel = none\n",
                     "unknown section [turbulence]")

    def test_unknown_key(self):
        bad = MINIMAL.replace("half_length = 30.0", "half_length = 30.0\nskew = 2")
        self._raises(bad, "unknown key 'skew'")

    def test_bad_float(self):
        bad = MINIMAL.replace("amplitude = 0.4", "amplitude = tall")
        self._raises(bad, "expects a number")

    def test_bad_float_list(self):
        bad = FULL.replace("seeds = 0.0, 0.5 -1.25", "seeds = here, there")
        self._raises(bad, "expects a list of numbers")

    def test_empty_key(self):
        line = MINIMAL.splitlines().index("t_end = 0.5") + 2
        msg = self._raises(MINIMAL.replace("t_end = 0.5", "t_end = 0.5\n = 3"), "empty key")
        assert msg == f"test.ini:{line}: empty key"

    def test_empty_float_list(self):
        self._raises(MINIMAL + "\n[characteristics]\nseeds =\n",
                     "[characteristics] seeds expects a list of numbers, got ''")

    def test_datum_missing_parameter(self):
        msg = self._raises(MINIMAL.replace("width = 1.0\n", ""),
                           "[datum] family 'sech_squared' needs width")
        assert msg.startswith("test.ini: ")

    def test_datum_missing_parameters_are_all_named(self):
        self._raises(MINIMAL.replace("amplitude = 0.4\nwidth = 1.0\n", ""),
                     "[datum] family 'sech_squared' needs amplitude, width")

    def test_missing_required(self):
        self._raises(MINIMAL.replace("t_end = 0.5", "cfl_factor = 0.3"),
                     "missing required [solver] t_end")
        self._raises(MINIMAL.replace("n_points = 256", ""),
                     "missing required [grid] n_points")

    def test_missing_sections(self):
        no_datum = "\n".join(ln for ln in MINIMAL.splitlines()
                             if not ln.startswith(("family", "amplitude", "width",
                                                   "[datum]")))
        self._raises(no_datum, "missing section [datum]")

    def test_unknown_family_and_kind(self):
        self._raises(MINIMAL.replace("family = sech_squared", "family = plateau"),
                     "[datum] family must be one of")
        self._raises(MINIMAL.replace("kind = constant", "kind = stochastic"),
                     "[dissipation] kind must be one of")

    def test_profile_missing_parameter(self):
        bad = MINIMAL.replace("kind = constant\nvalue = 0.0",
                              "kind = sinusoidal\noffset = 0.1\namplitude = 0.2")
        self._raises(bad, "needs omega")

    def test_grid_constraint_wrapped(self):
        self._raises(MINIMAL.replace("n_points = 256", "n_points = 100"),
                     "[grid]")

    @pytest.mark.parametrize("t_end", ["-2.0", "inf"])
    def test_solver_constraint_checked_when_read(self, t_end):
        msg = self._raises(MINIMAL.replace("t_end = 0.5", f"t_end = {t_end}"), "t_end")
        assert msg.startswith("test.ini: ")


class TestEmit:
    @pytest.mark.parametrize("text", [FULL, MINIMAL, *EVERY_FAMILY_AND_KIND])
    def test_roundtrip_identity(self, text):
        cfg = parse_config(text)
        again = parse_config(emit_config(cfg))
        assert again == cfg

    def test_roundtrip_piecewise_and_samples(self):
        vals = " ".join(f"{math.sin(i):.6f}" for i in range(16))
        text = MINIMAL.replace(
            "family = sech_squared\namplitude = 0.4\nwidth = 1.0",
            f"family = samples\nvalues = {vals}").replace(
            "n_points = 256", "n_points = 16").replace(
            "kind = constant\nvalue = 0.0",
            "kind = piecewise\ntimes = 0.0 1.0\nvalues = 0.2 0.3")
        cfg = parse_config(text)
        assert parse_config(emit_config(cfg)) == cfg

    @pytest.mark.parametrize("extra", [{"center": 5.0, "amplitude": 2.0}, {"width": 0.5}])
    def test_samples_datum_takes_no_analytic_field(self, extra):
        # emit_config writes only values for node samples, so these would be
        # lost on the round trip
        with pytest.raises(ConfigError, match="does not apply to datum family 'samples'"):
            InitialDatum("samples", values=(0.0,) * 16, **extra)

    def test_analytic_datum_takes_no_values(self):
        with pytest.raises(ConfigError, match="values does not apply"):
            InitialDatum("sech_squared", amplitude=0.4, values=(1.0, 2.0))

    @pytest.mark.parametrize("datum", [
        InitialDatum("samples", values=tuple(math.sin(i) for i in range(16))),
        InitialDatum("antisym_peak", amplitude=0.4, width=2.0, center=-1.5),
    ], ids=["samples", "antisym_peak"])
    def test_library_built_datum_roundtrips(self, datum):
        base = parse_config(MINIMAL.replace("n_points = 256", "n_points = 16"))
        cfg = dataclasses.replace(base, datum=datum)
        assert parse_config(emit_config(cfg)) == cfg

    def test_emits_only_the_keys_of_the_family_and_kind(self):
        vals = " ".join(["0.5"] * 16)
        text = MINIMAL.replace(
            "family = sech_squared\namplitude = 0.4\nwidth = 1.0",
            f"family = samples\nvalues = {vals}").replace("n_points = 256", "n_points = 16")
        datum = emit_config(parse_config(text)).split("[datum]\n")[1].split("\n\n")[0]
        assert [ln.split(" = ")[0] for ln in datum.splitlines()] == ["family", "values"]
        dissipation = emit_config(parse_config(MINIMAL)).split("[dissipation]\n")[1]
        keys = [ln.split(" = ")[0] for ln in dissipation.split("\n\n")[0].splitlines()]
        assert keys == ["kind", "value", "delta_sup"]

    def test_emit_is_stable(self):
        cfg = parse_config(FULL)
        assert emit_config(cfg) == emit_config(parse_config(emit_config(cfg)))

    def test_seeds_section_only_when_present(self):
        assert "[characteristics]" not in emit_config(parse_config(MINIMAL))
        assert "[characteristics]" in emit_config(parse_config(FULL))


class TestRefinement:
    def test_doubles_grid_and_keeps_cfl(self):
        cfg = parse_config(FULL)
        fine = cfg.with_refinement()
        assert fine.grid.n_points == 2048
        assert fine.grid.half_length == 30.0
        assert fine.cfl_factor == cfg.cfl_factor == 0.25
        # every field other than the grid is kept as it is
        assert dataclasses.replace(fine, grid=cfg.grid) == cfg

    def test_factor_four(self):
        cfg = parse_config(MINIMAL)
        fine = cfg.with_refinement().with_refinement()
        assert fine.grid.n_points == 1024
        assert fine.grid.half_length == cfg.grid.half_length
        assert fine.cfl_factor == cfg.cfl_factor
        assert dataclasses.replace(fine, grid=cfg.grid) == cfg


def test_every_key_is_a_field_of_what_its_section_builds():
    # one name per knob: a key is the field it sets; [dissipation] keys are
    # constructor arguments instead
    builds = {"grid": Grid, "datum": InitialDatum, "solver": RunConfig,
              "characteristics": RunConfig}
    assert set(_SCHEMA) == {*builds, "dissipation"}
    for section, cls in builds.items():
        fields = {f.name for f in dataclasses.fields(cls)}
        assert set(_SCHEMA[section]) <= fields, section


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError) as err:
        load_config(str(tmp_path / "absent.ini"))
    assert "cannot read config" in str(err.value)


def test_load_config_roundtrip(tmp_path):
    p = tmp_path / "run.ini"
    p.write_text(FULL)
    assert load_config(str(p)) == parse_config(FULL)


def test_load_config_skips_a_byte_order_mark(tmp_path):
    p = tmp_path / "bom.ini"
    p.write_bytes(b"\xef\xbb\xbf" + FULL.encode("utf-8"))
    assert load_config(str(p)) == parse_config(FULL)
    # lines are still counted from the top of the file
    p.write_bytes(b"\xef\xbb\xbf[grid]\nhalf_length = 30\xff\n")
    with pytest.raises(ConfigError, match=r"bom\.ini:2: not UTF-8 text$"):
        load_config(str(p))


def test_readme_example_parses():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"```ini\n(.*?)```", readme.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    cfg = parse_config(blocks[0], "README")
    assert (cfg.grid.half_length, cfg.grid.n_points) == (30.0, 4096)
    assert cfg.profile.kind == "constant" and cfg.seeds == (0.0, 0.5, -1.25)
