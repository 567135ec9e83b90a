"""Config grammar, validation errors, and seed resolution."""

import re

import pytest

from roundabout_sim import config as config_module
from roundabout_sim.config import (
    DEFAULT_RUNS,
    DEFAULT_SEED,
    DEFAULT_VEHICLE_COUNTS,
    CampaignRow,
    ConfigError,
    parse_config,
    resolve_base_seed,
    resolved_campaign,
)


class TestDefaults:
    def test_empty_file_is_all_defaults(self):
        cfg = parse_config("")
        assert cfg.cost.lam == 0.8
        assert cfg.cost.D == 30.0
        assert cfg.game.horizon == 4
        assert cfg.sim.delta == 0.25
        assert cfg.spec.r_in == 20.0
        assert cfg.campaign == ()
        assert cfg.seed is None

    def test_default_campaign_sweep(self):
        rows = resolved_campaign(parse_config(""), env={})
        assert [r.n_vehicles for r in rows] == list(DEFAULT_VEHICLE_COUNTS)
        assert all(r.n_runs == DEFAULT_RUNS for r in rows)
        assert all(r.base_seed == DEFAULT_SEED for r in rows)

    def test_default_sweep_clipped_to_the_spawn_slots(self):
        # a 3-way ring holds 6 vehicles, so the default sweep stops at n=6
        rows = resolved_campaign(parse_config("[geometry]\nways = 3\n"), env={})
        assert [r.n_vehicles for r in rows] == [4, 5, 6]
        assert all(r.n_runs == DEFAULT_RUNS for r in rows)

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config("""
        # a comment
        [cost]
        D = 25.0   # trailing comment

        """)
        assert cfg.cost.D == 25.0


class TestGrammar:
    def test_campaign_row_literal(self):
        cfg = parse_config("campaign = 6 x 1000 seed 42\n")
        assert cfg.campaign == (CampaignRow(6, 1000, 42),)

    def test_campaign_rows_accumulate(self):
        cfg = parse_config("campaign = 4 x 10\ncampaign = 8 x 20 seed 9\n")
        assert cfg.campaign == (CampaignRow(4, 10, None), CampaignRow(8, 20, 9))

    def test_sections_route_keys(self):
        cfg = parse_config("""
        [cost]
        lambda = 0.5
        [game]
        strategy_accels = -20, 0, 20
        [agent]
        w_grid = 0.25, 0.5, 0.75
        estimator_ego_uses_true_weight = true
        [sim]
        max_steps = 50
        """)
        assert cfg.cost.lam == 0.5
        assert cfg.game.strategy_accels == (-20.0, 0.0, 20.0)
        assert cfg.agent.w_grid == (0.25, 0.5, 0.75)
        assert cfg.agent.estimator_ego_uses_true_weight is True
        assert cfg.sim.max_steps == 50

    def test_output_section(self):
        cfg = parse_config("[output]\nout = runs/exp1\ntraces = yes\n")
        assert cfg.out == "runs/exp1"
        assert cfg.traces is True


class TestErrors:
    @pytest.mark.parametrize("text,fragment", [
        ("wat\n", "line 1"),
        ("[cost]\nnope = 3\n", "unknown key 'nope'"),
        ("[nope]\n", "unknown section"),
        ("[cost\n", "unterminated"),
        ("campaign = fast\n", "campaign must look like"),
        ("[cost]\nD = trees\n", "bad value"),
        ("[cost]\nD = 5\nD = 6\n", "duplicate"),
        ("seed = -1\n", "seed"),
    ])
    def test_syntax_errors_carry_line_numbers(self, text, fragment):
        with pytest.raises(ConfigError, match="line"):
            parse_config(text)
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert fragment in str(err.value)

    def test_semantic_error_names_the_invariant(self):
        with pytest.raises(ConfigError, match=r"lam must be in \(0, 1\)"):
            parse_config("[cost]\nlambda = 1.5\n")

    def test_overlapping_spawns_rejected(self):
        with pytest.raises(ConfigError, match="spawn_spacing 3.0 is below vehicle_diameter 4.5"):
            parse_config("[sim]\nspawn_spacing = 3.0\n")
        with pytest.raises(ConfigError, match="spawn overlapping"):
            parse_config("[sim]\nvehicle_diameter = 11.0\n")
        assert parse_config("[sim]\nspawn_spacing = 4.5\n").sim.spawn_spacing == 4.5

    def test_geometry_invariants_checked_at_parse_time(self):
        with pytest.raises(ConfigError, match="ways"):
            parse_config("[geometry]\nways = 2\n")

    def test_campaign_row_beyond_the_spawn_slots_is_named(self):
        # two spawn slots per arm: 8 on the default 4-way ring, 6 on a 3-way
        # one, whose ways may be set after the row; and at least one vehicle
        assert parse_config("campaign = 8 x 2\n").campaign == (CampaignRow(8, 2),)
        with pytest.raises(ConfigError, match="line 2: campaign row 9 x 2 needs 1 to 8 "
                                              "vehicles on a 4-way roundabout"):
            parse_config("campaign = 4 x 2\ncampaign = 9 x 2\n")
        with pytest.raises(ConfigError, match="line 1: campaign row 0 x 5 needs 1 to 8"):
            parse_config("campaign = 0 x 5\n")
        text = "campaign = 7 x 1 seed 3\n[geometry]\nways = 3\n"
        with pytest.raises(ConfigError, match="line 1: campaign row 7 x 1 needs 1 to 6 "
                                              "vehicles on a 3-way roundabout"):
            parse_config(text)
        assert parse_config(text.replace("7 x", "6 x")).campaign == (CampaignRow(6, 1, 3),)


class TestSeedResolution:
    def test_flag_beats_env_beats_config(self):
        cfg = parse_config("seed = 7\n")
        env = {"ROUNDABOUT_SIM_SEED": "9"}
        assert resolve_base_seed(cfg, flag_seed=3, env=env) == 3
        assert resolve_base_seed(cfg, env=env) == 9
        assert resolve_base_seed(cfg, env={}) == 7
        assert resolve_base_seed(parse_config(""), env={}) == DEFAULT_SEED

    def test_bad_env_seed_rejected(self):
        with pytest.raises(ConfigError, match="ROUNDABOUT_SIM_SEED"):
            resolve_base_seed(parse_config(""), env={"ROUNDABOUT_SIM_SEED": "x"})

    def test_pinned_row_seed_survives_env_but_not_flag(self):
        cfg = parse_config("campaign = 4 x 5 seed 100\n")
        env = {"ROUNDABOUT_SIM_SEED": "9"}
        assert resolved_campaign(cfg, env=env)[0].base_seed == 100
        assert resolved_campaign(cfg, flag_seed=3, env=env)[0].base_seed == 3

    def test_runs_override_rewrites_every_row(self):
        cfg = parse_config("campaign = 4 x 5\ncampaign = 6 x 7\n")
        rows = resolved_campaign(cfg, flag_runs=2, env={})
        assert [r.n_runs for r in rows] == [2, 2]


# [section] key -> (config text, parsed value), each valid and not the default
KEY_VALUES = {
    ("geometry", "ways"): ("5", 5),
    ("geometry", "r_in"): ("22.5", 22.5),
    ("geometry", "r_en"): ("9", 9.0),
    ("geometry", "approach_len"): ("45.0", 45.0),
    ("geometry", "theta1"): ("0.35", 0.35),
    ("geometry", "theta2"): ("1.5", 1.5),
    ("geometry", "theta3"): ("0.45", 0.45),
    ("geometry", "entrance_angles"): ("0.1, 1.6, 3.2, 4.7", (0.1, 1.6, 3.2, 4.7)),
    ("cost", "lambda"): ("0.7", 0.7),
    ("cost", "E_inf"): ("1e11", 1e11),
    ("cost", "C"): ("12", 12.0),
    ("cost", "C_ins"): ("2.0", 2.0),
    ("cost", "C_en"): ("2.5", 2.5),
    ("cost", "C_in"): ("11.0", 11.0),
    ("cost", "C_o"): ("2000", 2000.0),
    ("cost", "D"): ("31.0", 31.0),
    ("cost", "D_en"): ("11.0", 11.0),
    ("cost", "D_c"): ("5.0", 5.0),
    ("cost", "v_l"): ("12.5", 12.5),
    ("game", "horizon"): ("5", 5),
    ("game", "strategy_accels"): ("-40, 0, 20", (-40.0, 0.0, 20.0)),
    ("agent", "w_grid"): ("0.2, 0.4, 0.6", (0.2, 0.4, 0.6)),
    ("agent", "initial_estimate"): ("0.4", 0.4),
    ("agent", "eps_dev"): ("0.2", 0.2),
    ("agent", "eps_r"): ("0.6", 0.6),
    ("agent", "deadlock_prob"): ("0.25", 0.25),
    ("agent", "deadlock_accel"): ("8.0", 8.0),
    ("agent", "deadlock_speed_eps"): ("1e-5", 1e-5),
    ("agent", "estimator_ego_uses_true_weight"): ("on", True),
    ("agent", "player_cap"): ("3", 3),
    ("sim", "delta"): ("0.2", 0.2),
    ("sim", "max_steps"): ("100", 100),
    ("sim", "spawn_spacing"): ("12.0", 12.0),
    ("sim", "removal_margin"): ("4.0", 4.0),
    ("sim", "vehicle_diameter"): ("4.0", 4.0),
    ("output", "out"): ("runs/exp1", "runs/exp1"),
    ("output", "traces"): ("yes", True),
}

# where each section's values land on ExperimentConfig (None: the config itself)
SECTION_OWNER = {"geometry": "spec", "cost": "cost", "game": "game", "agent": "agent",
                 "sim": "sim", "output": None}


def documented_keys():
    """The ``[section] key`` pairs listed in the config module docstring."""
    block = config_module.__doc__.split("Sections and keys::", 1)[1]
    block = block.split("Campaign rows", 1)[0]
    keys, section = set(), None
    for line in block.splitlines():
        line = re.sub(r"\(.*?\)", "", line)
        m = re.match(r"\s*\[(\w+)\](.*)", line)
        if m:
            section, line = m.group(1), m.group(2)
        keys |= {(section, k) for k in re.findall(r"\w+", line)}
    return keys


class TestEveryKey:
    def test_key_table_matches_docstring(self):
        table = {(sec, key) for sec, keys in config_module._SECTIONS.items() for key in keys}
        assert len(table) == 37
        assert table == documented_keys() == set(KEY_VALUES)

    @pytest.mark.parametrize("section,key", sorted(KEY_VALUES))
    def test_key_round_trips(self, section, key):
        text, want = KEY_VALUES[section, key]
        owner = SECTION_OWNER[section]
        field = "lam" if key == "lambda" else key
        default = parse_config("")
        cfg = parse_config(f"[{section}]\n{key} = {text}\n")
        got_obj = cfg if owner is None else getattr(cfg, owner)
        was = getattr(default if owner is None else getattr(default, owner), field)
        got = getattr(got_obj, field)
        assert got == want and type(got) is type(want)
        assert got != was
