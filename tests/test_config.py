"""Run specification building, config files, and validation reporting."""

import json

import pytest

from qmap import ConfigurationError, RunSpec, make_runspec
from qmap.config import COMMANDS, READ_BY_ALL, READS, SINGLE_N_COMMANDS
from qmap.sweep import MAX_GRID_STEPS


def test_minimal_spectrum_config_fills_defaults():
    spec = make_runspec({"command": "spectrum"})
    assert spec.command == "spectrum"
    assert spec.variant == "chaotic"
    assert spec.r == 0.0
    assert spec.N == 512
    assert spec.N_list == (64, 128, 256, 512)
    assert spec.observable == "cos2pi_q"
    assert spec.subtract_mean is True
    assert spec.sorted_pairing is False
    assert spec.out_dir == "out"


def test_family_block_sets_variant_and_r():
    spec = make_runspec({
        "command": "spectrum",
        "family": {"variant": "regular", "r": 1.5},
        "N": 64,
    })
    assert spec.variant == "regular"
    assert spec.r == 1.5
    assert spec.N == 64


def test_odd_dimension_is_rejected():
    with pytest.raises(ConfigurationError, match="odd"):
        make_runspec({
            "command": "sweep",
            "family": {"variant": "regular"},
            "N": 511,
        })


def test_scaling_config_with_full_ladder_is_valid():
    spec = make_runspec({
        "command": "scaling",
        "family": {"variant": "slow_ergodic"},
        "N_list": [64, 128, 256, 512],
    })
    assert spec.command == "scaling"
    assert spec.variant == "slow_ergodic"
    assert spec.N_list == (64, 128, 256, 512)


def test_all_problems_reported_in_one_error():
    # one aggregated failure, not first-error-wins
    try:
        make_runspec({
            "command": "sweep",
            "family": {"variant": "nope", "rr": 1.0},
            "N": 511,
            "bogus": 3,
        })
    except ConfigurationError as exc:
        text = str(exc)
    else:
        pytest.fail("expected ConfigurationError")
    assert "family.variant" in text
    assert "family.rr" in text
    assert "bogus" in text
    assert "511" in text
    assert text.count("\n") >= 4


def test_top_level_variant_points_at_family_block():
    with pytest.raises(ConfigurationError,
                       match='belongs inside the "family" object'):
        make_runspec({"command": "spectrum", "variant": "regular"})


def test_missing_command_is_an_error():
    with pytest.raises(ConfigurationError, match="command"):
        make_runspec({})


def test_unknown_command_and_observable():
    with pytest.raises(ConfigurationError, match="command"):
        make_runspec({"command": "explode"})
    with pytest.raises(ConfigurationError, match="observable"):
        make_runspec({"command": "spectrum", "observable": "cos3pi_q"})


def test_scaling_needs_at_least_four_sizes():
    with pytest.raises(ConfigurationError, match="at least 4"):
        make_runspec({"command": "scaling", "N_list": [64, 128, 256]})
    # a command that reads only N rejects the ladder it would ignore
    with pytest.raises(ConfigurationError, match="ignore N_list"):
        make_runspec({"command": "sweep", "N_list": [64, 128, 256]})


def test_empty_size_list_is_rejected():
    # reported beside every other problem, in the one aggregated error
    with pytest.raises(ConfigurationError) as info:
        make_runspec({"command": "ergodicity", "N_list": [],
                      "samples": 10_000, "seed": -1})
    text = str(info.value)
    assert "N_list: needs at least one value" in text
    assert "seed" in text
    with pytest.raises(ConfigurationError, match="at least 4"):
        make_runspec({"command": "scaling", "N_list": []})


def test_sizes_must_be_even_and_ascending():
    with pytest.raises(ConfigurationError, match="odd"):
        make_runspec({"command": "scaling", "N_list": [64, 127, 256, 512]})
    with pytest.raises(ConfigurationError, match="ascending"):
        make_runspec({"command": "scaling", "N_list": [64, 256, 128, 512]})


def test_r_window_must_open_for_sweeps():
    with pytest.raises(ConfigurationError, match="r1"):
        make_runspec({"command": "sweep", "r0": 2.0, "r1": 1.0})
    # classical never sweeps r, so it rejects any window at all
    with pytest.raises(ConfigurationError) as info:
        make_runspec({"command": "classical", "r0": 2.0, "r1": 1.0})
    text = str(info.value)
    assert "r0: only sweep, scaling read it" in text
    assert "r1: only sweep, scaling read it" in text
    assert "must exceed" not in text


def test_explicit_r_grid_replaces_the_window():
    spec = make_runspec({"command": "sweep", "r_grid": [0.0, 0.7, 1.1]})
    assert spec.r_grid == (0.0, 0.7, 1.1)
    # the window it replaces must keep its defaults, or the header would
    # echo a window the sweep never read; every such field is reported
    with pytest.raises(ConfigurationError) as info:
        make_runspec({"command": "sweep", "r_grid": [0.0, 0.7, 1.1],
                      "r0": 5.0, "r1": 1.0, "delta_r": 0.1})
    text = str(info.value)
    for name in ("r0", "r1", "delta_r"):
        assert f"  - {name}: r_grid replaces the r0/r1/delta_r window" in text
    assert "must exceed" not in text
    with pytest.raises(ConfigurationError, match="ascending"):
        make_runspec({"command": "sweep", "r_grid": [0.0, 1.1, 0.7]})
    with pytest.raises(ConfigurationError, match="r_grid"):
        make_runspec({"command": "sweep", "r_grid": []})


def test_grids_of_too_many_steps_are_rejected():
    # the window's (r1 - r0) / delta_r, also when r1 - r0 overflows, and
    # the steps of an explicit r_grid, each bounded by MAX_GRID_STEPS
    steps = MAX_GRID_STEPS
    for command in ("sweep", "scaling"):
        make_runspec({"command": command, "r1": steps * 0.5,
                      "delta_r": 0.5})
        for window in ({"r1": (steps + 1) * 0.5, "delta_r": 0.5},
                       {"r1": 1e9, "delta_r": 1e-9},
                       {"r0": -1e308, "r1": 1e308}):
            with pytest.raises(ConfigurationError,
                               match=f"delta_r: .* more than {steps}$"):
                make_runspec({"command": command, **window})
    make_runspec({"command": "sweep", "r_grid": list(range(steps + 1))})
    with pytest.raises(ConfigurationError,
                       match=f"r_grid: takes {steps + 1} steps"):
        make_runspec({"command": "sweep", "r_grid": list(range(steps + 2))})


@pytest.mark.parametrize("field,value,readers", [
    ("r_grid", [0.0, 0.5], ("sweep",)),
    ("T_grid", [0.0, 1.0], ("ergodicity",)),
])
def test_grids_are_rejected_where_they_would_be_ignored(field, value, readers):
    for command in COMMANDS:
        config = {"command": command, field: value}
        if command in readers:
            assert getattr(make_runspec(config), field) == tuple(value)
        else:
            with pytest.raises(ConfigurationError, match=f"{field}: only"):
                make_runspec(config)


# a valid value other than the default for every field some command reads;
# N = 16 also differs from the first entry of the default ladder
_NON_DEFAULT = {
    "r": 1.5, "observable": "cos2pi_p", "seed": 7, "N": 16,
    "N_list": (16, 32, 64, 128), "r0": 0.5, "r1": 1.0, "delta_r": 0.1,
    "r_grid": (0.0, 0.5), "T_grid": (0.0, 1.0), "t_max": 5,
    "samples": 20_000, "lyapunov_steps": 20_000, "lyapunov_seeds": 6,
    "subtract_mean": False, "sorted_pairing": True,
}


def _config_setting(command, field):
    value = _NON_DEFAULT[field]
    if field == "r":
        return {"command": command, "family": {"variant": "chaotic", "r": value}}
    return {"command": command,
            field: list(value) if isinstance(value, tuple) else value}


def test_every_field_is_read_by_some_command():
    read = set(READ_BY_ALL).union(*READS.values())
    assert read == set(RunSpec.__dataclass_fields__)
    assert set(_NON_DEFAULT) == read - set(READ_BY_ALL)


@pytest.mark.parametrize("command", COMMANDS)
def test_each_command_accepts_exactly_the_fields_it_reads(command):
    for field, value in _NON_DEFAULT.items():
        config = _config_setting(command, field)
        if field in READS[command]:
            assert getattr(make_runspec(config), field) == value
            continue
        with pytest.raises(ConfigurationError) as info:
            make_runspec(config)
        path = "family.r" if field == "r" else field
        # N and N_list keep their own message, since --N sets both
        assert (f"  - {path}: only " in str(info.value)
                and f"{command!r} would ignore it" in str(info.value)) \
            or f"  - {path}: {command} reads only" in str(info.value)


def test_T_grid_validation():
    spec = make_runspec({"command": "ergodicity", "T_grid": [0.0, 1.0, 4.0]})
    assert spec.T_grid == (0.0, 1.0, 4.0)
    with pytest.raises(ConfigurationError, match="T_grid"):
        make_runspec({"command": "ergodicity", "T_grid": [1.0, 1.0, 4.0]})
    with pytest.raises(ConfigurationError, match="T_grid"):
        make_runspec({"command": "ergodicity", "T_grid": [-1.0, 4.0]})


@pytest.mark.parametrize("field,value,needle", [
    ("samples", 5000, "samples"),
    ("t_max", 0, "t_max"),
    ("lyapunov_seeds", 3, "lyapunov_seeds"),
    ("lyapunov_steps", 500, "lyapunov_steps"),
    ("delta_r", 0.0, "delta_r"),
    ("seed", -1, "seed"),
])
def test_numeric_lower_bounds(field, value, needle):
    with pytest.raises(ConfigurationError, match=needle):
        make_runspec({"command": "classical", field: value})


def test_flag_fields_must_be_boolean():
    with pytest.raises(ConfigurationError, match="subtract_mean"):
        make_runspec({"command": "sweep", "subtract_mean": 1})
    with pytest.raises(ConfigurationError, match="out_dir"):
        make_runspec({"command": "sweep", "out_dir": ""})


def test_non_finite_r_is_rejected():
    with pytest.raises(ConfigurationError, match="finite"):
        make_runspec({"command": "spectrum",
                      "family": {"variant": "chaotic", "r": float("nan")}})


def test_sizes_are_rejected_where_they_would_be_ignored():
    for command in COMMANDS:
        # the command line sets N and N_list together; that always passes
        ladder = (64,) if command in SINGLE_N_COMMANDS else (64, 128, 256, 512)
        spec = make_runspec(command=command, N=ladder[0], N_list=ladder)
        assert make_runspec(spec.as_dict()) == spec
        if command in SINGLE_N_COMMANDS:
            config = {"command": command, "N": 64, "N_list": [32]}
            field, needle = "N_list", "ignore N_list=[32]"
        else:
            config = {"command": command, "N": 16}
            field, needle = "N", "ignore N=16"
        with pytest.raises(ConfigurationError) as info:
            make_runspec({**config, "seed": -1})
        text = str(info.value)
        assert f"{field}: {command} reads only" in text and needle in text
        assert "seed" in text


def test_as_dict_round_trips():
    spec = make_runspec({
        "command": "ergodicity",
        "family": {"variant": "slow_ergodic", "r": 2.0},
        "N_list": [64, 128],
        "T_grid": [0.0, 2.0],
    })
    blob = spec.as_dict()
    assert blob["family"] == {"variant": "slow_ergodic", "r": 2.0}
    assert blob["N_list"] == [64, 128]
    assert blob["T_grid"] == [0.0, 2.0]
    json.dumps(blob)  # must be JSON-serializable as-is
    again = make_runspec(blob)
    assert again == spec


def test_keyword_overrides_win_and_none_is_ignored():
    spec = make_runspec({"command": "sweep", "N": 64},
                        variant="regular", N=128, r1=None)
    assert spec.variant == "regular"
    assert spec.N == 128
    assert spec.r1 == 3.0


def test_overrides_alone_build_a_spec():
    spec = make_runspec(command="spectrum", N=64, r=1.5)
    assert isinstance(spec, RunSpec)
    assert (spec.N, spec.r) == (64, 1.5)


def test_command_list_is_stable():
    assert COMMANDS == ("classical", "spectrum", "sweep", "scaling",
                        "ergodicity")

