"""Engine tests: deployment, determinism, conservation, fixtures, sweep."""

import math
from dataclasses import asdict, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ulsched.engine import (
    ConfigError,
    ScenarioConfig,
    _Replay,
    deploy,
    run,
    sweep,
    validate,
)
from ulsched.channel import load_cqi_trace
from ulsched.metrics import summary_row
from ulsched.traffic import (
    CLASSES, DATA, NEVER, VIDEO, VOICE, OnOffSource, truncated_pareto_mean)

FAST = dict(tti_count=400, n_ues=8,
            loads_mbps={VOICE: 1.0, VIDEO: 0.5, DATA: 0.5})


def test_validate_rejects_bad_threshold():
    cfg = ScenarioConfig(buffer_capacity=1000, buffer_threshold=1000)
    with pytest.raises(ConfigError) as err:
        validate(cfg)
    assert "buffer_threshold" in str(err.value)


def test_validate_rejects_negative_threshold():
    # a negative threshold made the dafs data urgency m_d count more bytes
    # than the buffer holds
    cfg = ScenarioConfig(policy="dafs", buffer_threshold=-100)
    with pytest.raises(ConfigError) as err:
        validate(cfg)
    assert "buffer_threshold" in str(err.value)
    validate(replace(cfg, buffer_threshold=0))


def test_validate_rejects_source_params_with_other_keys():
    # an unknown key used to raise TypeError inside DataSource, a partial
    # video_params KeyError: 'packets_per_frame', both only inside run()
    cfg = ScenarioConfig(tti_count=5, n_ues=2)
    data = dict(cfg.data_params, bogus=1)
    video = {k: v for k, v in cfg.video_params.items() if k != "packets_per_frame"}
    voice = {k: v for k, v in cfg.voice_params.items() if k != "sid_bytes"}
    for key, params, name in (("data_params", data, "data_params.bogus"),
                              ("video_params", video, "video_params.packets_per_frame"),
                              ("voice_params", voice, "voice_params.sid_bytes")):
        bad = replace(cfg, **{key: params})
        for check in (validate, run):
            with pytest.raises(ConfigError) as err:
                check(bad)
            assert name in str(err.value)
    validate(replace(cfg, video_params=dict(cfg.video_params, size_max=200.0)))


def test_validate_rejects_source_params_out_of_range():
    # each was accepted silently or failed later with an error naming no key
    cfg = ScenarioConfig(tti_count=30, n_ues=4)
    for key, name, value, blamed in (
            ("voice_params", "sid_bytes", -3, None), ("voice_params", "talk_mean_ms", -5.0, None),
            ("voice_params", "silence_mean_ms", 0.5, None),
            ("voice_params", "packet_bytes", 0, None),
            ("data_params", "payload_min", 1600, "data_params.payload_max"),
            ("data_params", "n_sources", -2, None), ("data_params", "on_shape", 1.0, None),
            ("data_params", "cap_factor", 1.0, None),
            ("video_params", "packets_per_frame", 0, None),
            ("video_params", "size_max", 30.0, None), ("video_params", "ia_shape", 1.0, None)):
        bad = replace(cfg, **{key: dict(getattr(cfg, key), **{name: value})})
        with pytest.raises(ConfigError) as err:
            validate(bad)
        assert (blamed or f"{key}.{name}") in str(err.value)


def test_zero_sojourn_mean_is_a_state_never_left():
    # both means 0 raised ZeroDivisionError inside validate: now the source
    # talks throughout, calibrated to the configured load
    from ulsched.engine import _build_sources
    voice = dict(ScenarioConfig().voice_params, talk_mean_ms=0.0, silence_mean_ms=0.0)
    cfg = ScenarioConfig(tti_count=30, n_ues=4, loads_mbps={VOICE: 0.4}, voice_params=voice)
    validate(cfg)
    for (src,) in _build_sources(cfg, 4):
        assert src.talking and src.mean_rate_bps() == pytest.approx(100_000.0, rel=1e-9)
    assert run(cfg).tti_count == 30
    # silence never left: the voice load cannot be met and is named
    never_talks = replace(cfg, voice_params=dict(voice, talk_mean_ms=1000.0))
    with pytest.raises(ConfigError, match="loads_mbps.voice"):
        validate(never_talks)


def test_voice_sources_start_and_run_at_the_configured_load():
    # talk/silence means of 1000/3000 talk a quarter of the time: the start
    # state and the generation interval both used the silence share
    from ulsched.engine import _build_sources
    for talk, silence, share in ((1000.0, 3000.0, 0.25), (3000.0, 1000.0, 0.75)):
        voice = dict(ScenarioConfig().voice_params, talk_mean_ms=talk, silence_mean_ms=silence)
        cfg = ScenarioConfig(n_ues=400, loads_mbps={VOICE: 40.0}, voice_params=voice)
        sources = [src for (src,) in _build_sources(cfg, 400)]
        assert all(s.mean_rate_bps() == pytest.approx(100_000.0, rel=1e-9) for s in sources)
        talking = sum(s.talking for s in sources) / len(sources)
        assert abs(talking - share) < 0.08


def test_validate_rejects_bad_keys_and_values():
    from ulsched.channel import ChannelConfig
    with pytest.raises(ConfigError):
        validate(ScenarioConfig(policy="round_robin"))
    with pytest.raises(ConfigError):
        validate(ScenarioConfig(loads_mbps={VOICE: -1.0}))
    with pytest.raises(ConfigError):
        validate(ScenarioConfig(tti_count=0))
    with pytest.raises(ConfigError) as err:  # not blamed on the threshold below it
        validate(ScenarioConfig(buffer_capacity=0, buffer_threshold=0))
    assert str(err.value).startswith("buffer_capacity")
    with pytest.raises(ConfigError):
        validate(ScenarioConfig(channel=ChannelConfig(alpha_pc=0.0)))
    with pytest.raises(ConfigError):
        validate(ScenarioConfig(channel=ChannelConfig(n_prb_data=44)))
    with pytest.raises(ConfigError) as err:
        ScenarioConfig.from_dict({"not_a_key": 1})
    assert "not_a_key" in str(err.value)
    with pytest.raises(ConfigError) as err:
        ScenarioConfig.from_dict({"channel": {"carrier_hz": 2e9}})
    assert "unknown channel key: carrier_hz" in str(err.value)
    with pytest.raises(ConfigError, match="^config must be a mapping, got list$"):
        ScenarioConfig.from_dict([["seed", 3]])  # dict() took the pairs


def test_validate_rejects_deadlines_below_one_tti():
    for key, value in (("voice_deadline_ms", 0), ("video_deadline_ms", -5)):
        with pytest.raises(ConfigError) as err:
            validate(ScenarioConfig(**{key: value}))
        assert key in str(err.value)


def test_validate_rejects_voice_load_below_sid_floor():
    # 0.01 Mbps over 30 UEs is 333 bps each; the SIDs alone send 375 bps
    cfg = ScenarioConfig(n_ues=30, loads_mbps={VOICE: 0.01, VIDEO: 1.0, DATA: 1.0})
    with pytest.raises(ConfigError) as err:
        validate(cfg)
    assert "loads_mbps.voice" in str(err.value)
    validate(ScenarioConfig(n_ues=20, loads_mbps={VOICE: 0.01, VIDEO: 1.0, DATA: 1.0}))


def test_validate_bounds_the_voice_load_by_what_the_cell_carries():
    # one talking UE may offer at most rc_count * 756 B per TTI: its 40 B
    # packets at least 40 / (8 * 756) ms apart on 8 RCs, half that on 16
    from ulsched.channel import ChannelConfig
    pi_talk, sid_bps = 0.5, 0.5 * 15 * 8 * 1000 / 160.0
    for prb_per_rc, rc_count in ((6, 8), (3, 16)):
        least = 40 / (rc_count * 756)
        edge_mbps = (pi_talk * 40 * 8 * 1000 / least + sid_bps) / 1e6  # one UE at the bound
        cfg = ScenarioConfig(n_ues=1, channel=ChannelConfig(prb_per_rc=prb_per_rc))
        validate(replace(cfg, loads_mbps={VOICE: edge_mbps * (1 - 1e-9), VIDEO: 1.0, DATA: 1.0}))
        with pytest.raises(ConfigError, match="^loads_mbps.voice = .* over 1 UEs: a talking UE"):
            validate(replace(cfg, loads_mbps={VOICE: edge_mbps * (1 + 1e-6),
                                              VIDEO: 1.0, DATA: 1.0}))
    # 1e5 Mbps over 30 UEs used to pass and emit ~100,000 packets per talking TTI
    with pytest.raises(ConfigError, match="^loads_mbps.voice"):
        validate(ScenarioConfig(loads_mbps={VOICE: 1e5, VIDEO: 1.0, DATA: 1.0}))
    # with PPP the UE count is drawn, so run applies the bound to the count it drew
    ppp = ScenarioConfig(ue_mode="ppp", ppp_intensity_per_km2=20.0, tti_count=5,
                         loads_mbps={VOICE: 1e5, VIDEO: 1.0, DATA: 1.0})
    validate(ppp)
    with pytest.raises(ConfigError, match="^loads_mbps.voice"):
        run(ppp)


def test_validate_bounds_the_video_load_by_what_the_cell_carries():
    # one UE may offer at most rc_count * 756 B per TTI as a mean video rate:
    # 48.384 Mbps on 8 RCs, a quarter of that on 2
    from ulsched.channel import ChannelConfig
    for prb_per_rc, rc_count in ((6, 8), (24, 2)):
        edge_mbps = 2 * rc_count * 756 * 8e-3  # two UEs at the bound
        cfg = ScenarioConfig(n_ues=2, channel=ChannelConfig(prb_per_rc=prb_per_rc))
        validate(replace(cfg, loads_mbps={VOICE: 1.0, VIDEO: edge_mbps * (1 - 1e-9), DATA: 1.0}))
        with pytest.raises(ConfigError, match="^loads_mbps.video = .* over 2 UEs: each UE"):
            validate(replace(cfg, loads_mbps={VOICE: 1.0, VIDEO: edge_mbps * (1 + 1e-9),
                                              DATA: 1.0}))
    # 1e5 Mbps over 6 UEs used to pass: 1.39 M frames per second per UE
    with pytest.raises(ConfigError, match="^loads_mbps.video"):
        validate(ScenarioConfig(n_ues=6, loads_mbps={VOICE: 1.0, VIDEO: 1e5, DATA: 1.0}))
    # with PPP the UE count is drawn, so run applies the bound to the count it drew
    ppp = ScenarioConfig(ue_mode="ppp", ppp_intensity_per_km2=20.0, tti_count=5,
                         loads_mbps={VOICE: 1.0, VIDEO: 1e5, DATA: 1.0})
    validate(ppp)
    with pytest.raises(ConfigError, match="^loads_mbps.video"):
        run(ppp)


def test_validate_rejects_channel_without_a_chunk():
    from ulsched.channel import ChannelConfig
    with pytest.raises(ConfigError) as err:
        validate(ScenarioConfig(policy="darts", n_ues=4, channel=ChannelConfig(n_prb_data=0)))
    assert "channel.n_prb_data" in str(err.value)


def test_validate_rejects_negative_shadowing_sigma_and_seed():
    # both used to fail inside numpy during deployment, naming no key
    from ulsched.channel import ChannelConfig
    cfg = ScenarioConfig(policy="dafs", n_ues=4, tti_count=30)
    for bad, key in ((replace(cfg, channel=ChannelConfig(shadowing_sigma_db=-1.0)),
                      "channel.shadowing_sigma_db"),
                     (replace(cfg, seed=-1), "seed")):
        for check in (validate, run):
            with pytest.raises(ConfigError) as err:
                check(bad)
            assert key in str(err.value)
    validate(replace(cfg, seed=0, channel=ChannelConfig(shadowing_sigma_db=0.0)))


def test_validate_rejects_cell_radius_below_min_ue_distance():
    # ISD 50 m gives a 28.9 m cell radius, below the 35 m minimum UE distance:
    # deployment used to place UEs outside the cell disc without an error
    from ulsched.channel import ChannelConfig
    cfg = ScenarioConfig(policy="dafs", n_ues=4, tti_count=30,
                         channel=ChannelConfig(inter_site_distance_m=50.0))
    for check in (validate, run):
        with pytest.raises(ConfigError) as err:
            check(cfg)
        assert "channel.inter_site_distance_m" in str(err.value)
    validate(replace(cfg, channel=ChannelConfig(inter_site_distance_m=61.0)))


def test_validate_rejects_non_finite_channel_floats():
    # p_max_dbm = nan made every CQI 15 and noise_figure_db = inf every CQI 1,
    # and both runs finished without an error
    from ulsched.channel import ChannelConfig
    cfg = ScenarioConfig(policy="darts", n_ues=4, tti_count=30)
    for key, value in (("p_max_dbm", math.nan), ("noise_figure_db", math.inf),
                       ("thermal_noise_dbm_hz", -math.inf), ("penetration_loss_db", math.nan),
                       ("cqi_thresholds_db", (math.nan,) * 15)):
        bad = replace(cfg, channel=replace(ChannelConfig(), **{key: value}))
        for check in (validate, run):
            with pytest.raises(ConfigError) as err:
                check(bad)
            assert f"channel.{key}" in str(err.value)


def test_validate_bounds_the_db_keys():
    # each of these passed validate, and run() then overflowed 10**(x/10) in
    # _dbm_to_mw ("overflow encountered in power") after validating
    base = {"policy": "darts", "n_ues": 6, "tti_count": 20}
    for channel in ({"p_max_dbm": 1e308, "p_o_dbm": 1e308}, {"thermal_noise_dbm_hz": 1e308},
                    {"noise_figure_db": 1e308},
                    {"penetration_loss_db": -1e308, "alpha_pc": 0.5},
                    {"p_o_dbm": 300.5}, {"noise_figure_db": -301}):
        key = next(iter(channel))
        bad = ScenarioConfig.from_dict(dict(base, channel=channel))
        for check in (validate, run):
            with pytest.raises(ConfigError) as err:
                check(bad)
            assert str(err.value).startswith(
                f"channel.{key} must be a finite real number |x| <= 300"), err.value
    # the limits themselves, with either sign, run without a warning
    for sign in (1, -1):
        keys = ("p_max_dbm", "p_o_dbm", "noise_figure_db", "thermal_noise_dbm_hz")
        channel = {key: sign * 300 for key in keys}
        channel.update(penetration_loss_db=-sign * 300, alpha_pc=0.01)
        summary = run(ScenarioConfig.from_dict(dict(base, channel=channel)))
        assert summary.conservation_ok


def test_validate_bounds_shadowing_and_the_cell_geometry():
    # sigma 1e300 overflowed 10**(x/10) mid-run, ISD 1e-290 over a 1e-300 m
    # minimum ended in ChannelError("distance must be positive") mid-run, and
    # ISD 1e200 in a bare OverflowError from deploy's radius ** 2
    base = {"policy": "darts", "n_ues": 6, "tti_count": 20}
    for channel, key, what in (
            ({"shadowing_sigma_db": 1e300}, "shadowing_sigma_db", "a real number in [0, 100]"),
            ({"shadowing_sigma_db": 100.5}, "shadowing_sigma_db", "a real number in [0, 100]"),
            ({"inter_site_distance_m": 1e-290, "min_ue_distance_m": 1e-300},
             "min_ue_distance_m", "a finite real number >= 1"),
            ({"inter_site_distance_m": 2.0, "min_ue_distance_m": 0.99},
             "min_ue_distance_m", "a finite real number >= 1"),
            ({"inter_site_distance_m": 1e200}, "inter_site_distance_m", "a finite real number"),
            ({"inter_site_distance_m": 173_206.0}, "inter_site_distance_m",
             "a finite real number")):
        bad = ScenarioConfig.from_dict(dict(base, channel=channel))
        for check in (validate, run):
            with pytest.raises(ConfigError) as err:
                check(bad)
            assert str(err.value).startswith(f"channel.{key} must be {what}"), err.value
    # the limits themselves run without a warning, the dB keys at theirs too
    for channel in ({"shadowing_sigma_db": 100.0, "p_max_dbm": 300, "p_o_dbm": 300,
                     "penetration_loss_db": -300, "inter_site_distance_m": 2.0,
                     "min_ue_distance_m": 1.0},
                    {"inter_site_distance_m": 173_205.0}):
        assert run(ScenarioConfig.from_dict(dict(base, channel=channel))).conservation_ok


def test_validate_rejects_non_finite_numbers():
    # an infinite video load made the frame clock stand still, so run()
    # never returned; an infinite voice load failed inside run() naming no
    # key, and a NaN data load ran without data
    for key, value in (("loads_mbps.video", math.inf), ("loads_mbps.voice", math.inf),
                       ("loads_mbps.data", math.nan), ("ppp_intensity_per_km2", math.nan),
                       ("video_params.size_scale", math.nan)):
        head, _, name = key.partition(".")
        d = {"policy": "darts", "n_ues": 4, "tti_count": 30}
        d[head] = {**asdict(ScenarioConfig())[head], name: value} if name else value
        bad = ScenarioConfig.from_dict(d)
        for check in (validate, run):
            with pytest.raises(ConfigError) as err:
                check(bad)
            assert str(err.value).startswith(f"{key} must be a finite"), (key, err.value)


def test_validate_rejects_wrongly_typed_values():
    # JSON 40.0 for tti_count or 48.0 for channel.n_prb_data failed inside
    # run() with a TypeError naming no key; "false" for channel.fast_fading
    # ran with fading on; a fractional buffer_capacity was accepted; "24" for
    # channel.p_max_dbm failed inside run() with a numpy UFuncTypeError, "1"
    # for a load with a bare TypeError inside validate; voice packet_bytes
    # 40.5 ran about 1% under the offered voice load; a list for channel
    # raised AttributeError
    base = {"policy": "darts", "n_ues": 4, "tti_count": 30}
    default = asdict(ScenarioConfig())
    for key, value in (("tti_count", 40.0), ("history_window", 10.5),
                       ("buffer_capacity", 1000.5), ("seed", True), ("n_ues", "4"),
                       ("voice_deadline_ms", 50.0), ("keep_trace", "yes"),
                       ("channel.n_prb_data", 48.0), ("channel.prb_per_rc", 6.0),
                       ("channel.fast_fading", "false"),
                       ("channel.p_max_dbm", "24"), ("channel.alpha_pc", True),
                       ("channel.cqi_thresholds_db", ["-6"] * 15), ("channel", [1, 2]),
                       ("ppp_intensity_per_km2", "150"),
                       ("loads_mbps.voice", "1"), ("loads_mbps.data", True),
                       ("voice_params.packet_bytes", 40.5),
                       ("voice_params.sid_interval_ms", "160"),
                       ("video_params.packets_per_frame", 8.0),
                       ("video_params.size_scale", None),
                       ("data_params.n_sources", 2.5), ("data_params.on_mean_ms", False)):
        d = dict(base)
        head, _, name = key.partition(".")
        d[head] = {**default[head], name: value} if name else value
        bad = ScenarioConfig.from_dict(d)
        for check in (validate, run):
            with pytest.raises(ConfigError) as err:
                check(bad)
            assert str(err.value).startswith(f"{key} must be"), (key, err.value)
    validate(ScenarioConfig.from_dict(dict(base, seed=np.int64(3), keep_trace=True,
                                           channel={"fast_fading": False, "p_max_dbm": 23,
                                                    "cqi_thresholds_db": list(range(15))},
                                           loads_mbps={VOICE: 1, VIDEO: np.float32(0.5)},
                                           ppp_intensity_per_km2=150,
                                           voice_params=dict(default["voice_params"],
                                                             packet_bytes=np.int64(40),
                                                             talk_mean_ms=3000))))


def test_validate_bounds_the_mean_ppp_ue_count(tmp_path, capsys):
    # 1e300 per km2 ended `ulsched run` with numpy's "lam value too large",
    # naming no key, and 1e7 per km2 passed: about 2.6M UEs over the default
    # cell disc. The mean count may reach the 65,523 usable C-RNTIs; a fixed
    # deployment does not read the intensity.
    from ulsched.cli import main
    from ulsched.engine import _disc_km2
    limit = 0xFFF3 / _disc_km2(ScenarioConfig().channel)
    for intensity in (1e300, 1e7, limit * 1.001):
        bad = ScenarioConfig(ue_mode="ppp", ppp_intensity_per_km2=intensity, tti_count=5)
        for check in (validate, run):
            with pytest.raises(ConfigError, match="^ppp_intensity_per_km2 must be a finite real "
                                                  "number > 0 whose mean UE count"):
                check(bad)
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"ue_mode": "ppp", "ppp_intensity_per_km2": 1e300, "tti_count": 5}')
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith("error: ppp_intensity_per_km2 must be ")
    validate(ScenarioConfig(ue_mode="ppp", ppp_intensity_per_km2=limit * 0.999))
    validate(ScenarioConfig(ppp_intensity_per_km2=1e300))
    # a smaller cell takes a denser deployment
    small = replace(ScenarioConfig().channel, inter_site_distance_m=100.0)
    validate(ScenarioConfig(ue_mode="ppp", ppp_intensity_per_km2=limit * 2, channel=small))
    s = run(ScenarioConfig(policy="darts", ue_mode="ppp", ppp_intensity_per_km2=2000.0,
                           tti_count=5))
    assert s.n_ues > 400 and s.conservation_ok


def test_validate_bounds_a_fixed_ue_count(tmp_path, capsys):
    # n_ues = 2**40 with zero loads passed validate, and run then ended in
    # numpy's "Unable to allocate 8.00 TiB" from deploy's first per-UE draw,
    # naming no key. A fixed count may reach the 65,523 usable C-RNTIs, as
    # the mean Poisson count may; a Poisson deployment does not read n_ues.
    from ulsched.cli import main
    idle = {"voice": 0.0, "video": 0.0, "data": 0.0}
    for n in (2 ** 40, 0xFFF3 + 1):
        bad = ScenarioConfig(n_ues=n, tti_count=5, loads_mbps=idle)
        for check in (validate, run):
            with pytest.raises(ConfigError, match=f"^n_ues must be an integer >= 0, and <= 65523 "
                                                  f"with ue_mode fixed, got {n}$"):
                check(bad)
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"n_ues": 1099511627776, "tti_count": 5, '
                   '"loads_mbps": {"voice": 0.0, "video": 0.0, "data": 0.0}}')
    assert main(["validate", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err.startswith("error: n_ues must be ")
    validate(ScenarioConfig(n_ues=0xFFF3, loads_mbps=idle))
    validate(ScenarioConfig(n_ues=2 ** 40, ue_mode="ppp"))


def _data_params_scaled(on_shape, off_shape, cap_factor, factor):
    """data_params whose on_mean_ms is `factor` times the smallest that
    validate accepts for these shapes and cap_factor."""
    e = max(truncated_pareto_mean(1.0, s, cap_factor) for s in (on_shape, off_shape))
    return dict(ScenarioConfig().data_params, on_mean_ms=0.1 * e * factor, on_shape=on_shape,
                off_shape=off_shape, cap_factor=cap_factor)


def test_validate_bounds_the_on_off_periods():
    # on_mean_ms = 1e-12 passed validate and then split every TTI into
    # on/off periods of about 1e-12 ms: 60 TTIs over 6 UEs did not finish
    # in 25 s. Each period lasts at least its Pareto scale, the mean over
    # truncated_pareto_mean(1, shape, cap_factor), so both scales must be
    # >= 0.1 ms; a bound on on_mean_ms alone lets shapes near 1 with a large
    # cap_factor shrink them toward 0.
    cfg = ScenarioConfig(policy="dham", n_ues=6, tti_count=60)
    for data in (dict(cfg.data_params, on_mean_ms=1e-12),
                 _data_params_scaled(1.0001, 1.0001, 1e12, 1 - 1e-9),
                 _data_params_scaled(3.0, 1.001, 1e6, 0.999)):
        for check in (validate, run):
            with pytest.raises(ConfigError, match="^data_params.on_mean_ms must be a finite real "
                                                  "number >= 0.1 ms times the larger "):
                check(replace(cfg, data_params=data))
    validate(cfg)   # the default 6 ms mean is 16 times the bound


def test_on_off_work_per_tti_is_bounded_just_inside_the_bound():
    # periods of at least 0.1 ms end at most 10 times in a 1 ms step, plus
    # the period the step starts in
    cfg = ScenarioConfig(policy="dham", n_ues=6, tti_count=60, loads_mbps={DATA: 30.0},
                         data_params=_data_params_scaled(1.05, 1.01, 1e6, 1 + 1e-9))
    validate(cfg)
    draws, per_step = [0], []
    draw, step_ms = OnOffSource._draw_duration, OnOffSource.step_ms

    def counting_draw(self):
        draws[0] += 1
        return draw(self)

    def counting_step(self, tti):
        before = draws[0]
        step_ms(self, tti)
        per_step.append(draws[0] - before)

    with mock.patch.object(OnOffSource, "_draw_duration", counting_draw), \
            mock.patch.object(OnOffSource, "step_ms", counting_step):
        assert run(cfg).tti_count == 60
    assert len(per_step) >= 60   # 48 sources over 60 TTIs, most of them due each TTI
    assert max(per_step) <= 11, max(per_step)
    assert max(per_step) >= 4    # the periods really are short here (7 observed)


def test_validate_rejects_nonpositive_min_ue_distance():
    # ISD 0 with a 0 m minimum failed inside path_loss ("distance must be
    # positive", no key named); a 0 m minimum also lets an interferer land at
    # d = 0 in the middle of a run
    from ulsched.channel import ChannelConfig
    cfg = ScenarioConfig(policy="darts", n_ues=4, tti_count=30)
    for channel in (ChannelConfig(inter_site_distance_m=0.0, min_ue_distance_m=0.0),
                    ChannelConfig(min_ue_distance_m=-1.0)):
        for check in (validate, run):
            with pytest.raises(ConfigError) as err:
                check(replace(cfg, channel=channel))
            assert "channel.min_ue_distance_m" in str(err.value)
    validate(replace(cfg, channel=ChannelConfig(min_ue_distance_m=1.0)))


def _config_keys():
    """Every dotted key a scenario config can set."""
    default = asdict(ScenarioConfig())
    keys = list(default)
    for head in ("channel", "voice_params", "video_params", "data_params"):
        keys += [f"{head}.{name}" for name in default[head]]
    keys += [f"loads_mbps.{cls}" for cls in (VOICE, VIDEO, DATA)]
    keys += [f"sweep.{name}" for name in ("vary", "points_mbps", "seeds")]  # what sweep reads
    return keys


def test_every_config_key_has_one_rule():
    from ulsched.engine import _RULES
    assert sorted(key for key, _, _ in _RULES) == sorted(_config_keys())


@pytest.mark.parametrize("key", _config_keys())
def test_no_config_key_escapes_validation(key):
    # "cqi_trace": true passed validate, and run() then opened fd 1 (stdout)
    # and failed with OSError after closing it; arrival_trace the same
    base = ScenarioConfig(policy="darts", n_ues=2, tti_count=5)
    default = asdict(base)
    head, _, name = key.partition(".")
    current = default[head].get(name) if name else default[head]
    bad = "yes" if isinstance(current, bool) else True  # a string for flags, else a bool
    if head == "channel" and name:
        cfg = replace(base, channel=replace(base.channel, **{name: bad}))
    elif name:
        cfg = replace(base, **{head: {**getattr(base, head), name: bad}})
    else:
        cfg = replace(base, **{head: bad})
    for check in (validate, run):
        with pytest.raises(ConfigError) as err:
            check(cfg)
        assert str(err.value).startswith(f"{key} must be "), str(err.value)


def test_trace_keys_are_null_or_a_non_empty_path(tmp_path):
    # 0 and "" ran the channel model and generators instead of a replay;
    # 5 failed with a bare OSError and ["a"] with a TypeError naming no key
    cfg = ScenarioConfig(policy="darts", n_ues=2, tti_count=5)
    for key in ("cqi_trace", "arrival_trace"):
        for value in (0, "", 5, ["a"], b"x"):
            with pytest.raises(ConfigError) as err:
                run(replace(cfg, **{key: value}))
            assert str(err.value).startswith(f"{key} must be null or a non-empty path")
        validate(replace(cfg, **{key: tmp_path / "trace.txt"}))


def test_n_prb_total_is_not_a_channel_key():
    # it was read by nothing but validate: a darts run with n_prb_total 1000
    # gave the default's mac_mbps and jain
    with pytest.raises(ConfigError) as err:
        ScenarioConfig.from_dict({"channel": {"n_prb_total": 50}})
    assert "unknown channel key: n_prb_total" in str(err.value)


def test_readme_config_block_is_a_valid_config():
    import json
    from pathlib import Path
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text[text.index("## Scenario config"):]
    block = section[section.index("```json") + len("```json"):]
    d = json.loads(block[:block.index("```")])
    validate(ScenarioConfig.from_dict(d))
    default = asdict(ScenarioConfig())
    assert set(d) <= set(default)
    for head in ("loads_mbps", "channel", "voice_params", "video_params", "data_params"):
        assert set(d.get(head, {})) <= set(default[head]), head


def test_short_cqi_trace_is_rejected_before_tti_0(tmp_path):
    trace = tmp_path / "cqi.txt"
    n_rc = ScenarioConfig().channel.rc_count
    trace.write_text((" ".join(["7"] * (3 * n_rc)) + "\n") * 5)
    cfg = ScenarioConfig(policy="dham", tti_count=50, n_ues=3, cqi_trace=str(trace))
    with pytest.raises(ConfigError) as err:
        run(cfg)
    msg = str(err.value)
    assert str(trace) in msg and "5 lines" in msg and "tti_count = 50" in msg
    run(replace(cfg, tti_count=5))


def test_arrival_trace_rejects_bad_ue_and_size(tmp_path):
    from ulsched.traffic import TrafficError
    # a negative TTI used to be dropped silently: the engine starts at TTI 0
    for bad, why in (("3 7 voice 40", "UE 7"), ("3 1 voice -40", "size -40"),
                     ("3 -1 voice 40", "UE -1"), ("-5 0 voice 40", "TTI -5"),
                     ("x 0 voice 40", "'x'"), ("3 0 voice 4.5", "'4.5'")):
        arr = tmp_path / "arrivals.txt"
        arr.write_text(f"0 0 voice 40\n{bad}\n")
        cfg = ScenarioConfig(policy="darts", tti_count=10, n_ues=2, arrival_trace=str(arr))
        with pytest.raises(TrafficError) as err:
            run(cfg)
        assert f"{arr}:2" in str(err.value) and why in str(err.value)


def test_config_json_roundtrip(tmp_path):
    cfg = ScenarioConfig(policy="dafs", ue_policy="flip", seed=9)
    path = tmp_path / "cfg.json"
    import json
    path.write_text(json.dumps(asdict(cfg)))
    back = ScenarioConfig.from_json(path)
    assert back == cfg


def test_deploy_fixed_count_and_determinism():
    cfg = ScenarioConfig(n_ues=3)
    t1 = deploy(cfg, np.random.default_rng([7, 0]))
    t2 = deploy(cfg, np.random.default_rng([7, 0]))
    assert t1.n_ues == 3
    assert np.array_equal(t1.ue_xy, t2.ue_xy)
    assert np.array_equal(t1.ue_shadow_db, t2.ue_shadow_db)
    assert t1.neighbor_centers.shape == (6, 2)
    assert np.all(t1.ue_distance_m <= cfg.channel.cell_radius_m + 1e-9)
    assert np.all(t1.ue_distance_m >= cfg.channel.min_ue_distance_m - 1e-9)


def test_deploy_ppp_mean_count():
    cfg = ScenarioConfig(ue_mode="ppp", ppp_intensity_per_km2=200.0)
    radius = cfg.channel.cell_radius_m
    d0 = cfg.channel.min_ue_distance_m
    area_km2 = np.pi * (radius ** 2 - d0 ** 2) / 1e6
    lam = 200.0 * area_km2
    counts = [deploy(cfg, np.random.default_rng([s, 0])).n_ues for s in range(800)]
    mean = np.mean(counts)
    # sample mean of Poisson(lam) over 800 seeds: ~4 sigma window
    assert abs(mean - lam) < 4 * np.sqrt(lam / 800)


def test_run_determinism_and_seed_sensitivity():
    cfg = ScenarioConfig(policy="darts", seed=5, **FAST)
    a = run(cfg)
    b = run(cfg)
    assert a.total_transmitted == b.total_transmitted
    assert np.array_equal(a.per_ue_throughput_bytes, b.per_ue_throughput_bytes)
    c = run(ScenarioConfig(policy="darts", seed=6, **FAST))
    assert c.total_transmitted != a.total_transmitted


def test_zero_load_run_is_silent():
    cfg = ScenarioConfig(tti_count=300, n_ues=4,
                         loads_mbps={VOICE: 0.0, VIDEO: 0.0, DATA: 0.0})
    s = run(cfg)
    assert s.total_arrived == 0
    assert s.total_transmitted == 0
    assert sum(s.deadline_dropped.values()) == 0
    assert not s.jain_defined and s.jain == 1.0


@pytest.mark.parametrize("policy", ["dham", "darts", "dafs"])
@pytest.mark.parametrize("ue_policy", ["strict", "flip"])
def test_a_run_without_ues_takes_every_tti_step(policy, ue_policy):
    # a PPP draw of 0 UEs runs the same TTI loop as any other deployment
    cfg = ScenarioConfig(policy=policy, ue_policy=ue_policy, ue_mode="ppp",
                         ppp_intensity_per_km2=1e-9, tti_count=50, keep_trace=True)
    s = run(cfg)
    assert s.n_ues == 0 and s.tti_count == 50 and s.conservation_ok
    assert s.total_arrived == 0 and s.total_transmitted == 0
    assert s.trace_rows == [{"tti": tti, "dropped_bytes": 0, "scheduled": [],
                             "granted_bytes": 0, "transmitted_bytes": 0} for tti in range(50)]


def test_conservation_across_policies_and_loads():
    for policy, ue_policy in [("dham", "strict"), ("darts", "strict"),
                              ("dafs", "strict"), ("dafs", "flip")]:
        cfg = ScenarioConfig(policy=policy, ue_policy=ue_policy, seed=11,
                             tti_count=600, n_ues=10,
                             loads_mbps={VOICE: 6.0, VIDEO: 2.0, DATA: 2.0})
        s = run(cfg)
        assert s.conservation_ok, (policy, ue_policy)
        for cls in (VOICE, VIDEO, DATA):
            assert s.arrived[cls] == (s.transmitted[cls] + s.deadline_dropped[cls]
                                      + s.overflow_dropped[cls] + s.resident[cls])


def test_no_transmitted_packet_exceeds_deadline():
    cfg = ScenarioConfig(policy="dafs", ue_policy="flip", seed=2,
                         tti_count=1500, n_ues=10,
                         loads_mbps={VOICE: 8.0, VIDEO: 2.0, DATA: 2.0})
    s = run(cfg)
    assert s.delay_max_ms[VOICE] <= 50
    assert s.delay_max_ms[VIDEO] <= 150


@settings(max_examples=50, deadline=None)
@given(policy=st.sampled_from(["dham", "darts", "dafs"]),
       ue_policy=st.sampled_from(["strict", "flip"]),
       n_ues=st.integers(0, 12), seed=st.integers(0, 2 ** 16),
       capacity=st.sampled_from([300, 2000, 8000, 65536]), threshold_share=st.floats(0.0, 0.99),
       voice_deadline=st.integers(1, 60), video_deadline=st.integers(1, 160),
       history_window=st.integers(1, 20),
       loads=st.tuples(*[st.sampled_from([0.0, 1.0, 8.0, 32.0])] * 3))
@example(policy="dafs", ue_policy="flip", n_ues=12, seed=0, capacity=8000,
         threshold_share=0.5, voice_deadline=1, video_deadline=1, history_window=1,
         loads=(32.0, 32.0, 32.0))
@example(policy="darts", ue_policy="strict", n_ues=10, seed=1, capacity=65536,
         threshold_share=0.75, voice_deadline=2, video_deadline=3, history_window=3,
         loads=(32.0, 8.0, 0.0))
@example(policy="dham", ue_policy="flip", n_ues=5, seed=2, capacity=300,
         threshold_share=0.0, voice_deadline=1, video_deadline=1, history_window=1,
         loads=(8.0, 8.0, 32.0))
@example(policy="darts", ue_policy="strict", n_ues=1, seed=3, capacity=65536,
         threshold_share=0.75, voice_deadline=50, video_deadline=150, history_window=20,
         loads=(32.0, 0.0, 0.0))
def test_small_runs_conserve_bytes_drain_grants_and_meet_deadlines(
        policy, ue_policy, n_ues, seed, capacity, threshold_share, voice_deadline,
        video_deadline, history_window, loads):
    # 0-12 UEs on 8 RCs reach the surplus regime, and small buffers overflow
    # under the higher loads; the examples pin deadline drops (the first
    # two) and overflow in the surplus regime (the third)
    cfg = ScenarioConfig(policy=policy, ue_policy=ue_policy, seed=seed, tti_count=40,
                         n_ues=n_ues, buffer_capacity=capacity,
                         buffer_threshold=int(threshold_share * capacity),
                         voice_deadline_ms=voice_deadline, video_deadline_ms=video_deadline,
                         history_window=history_window, keep_trace=True,
                         loads_mbps=dict(zip((VOICE, VIDEO, DATA), loads)))
    if n_ues == 1 and loads[0] == 32.0:
        # one UE talking at 64 Mbps offers more than 8 RCs carry at CQI 15
        with pytest.raises(ConfigError, match="^loads_mbps.voice"):
            run(cfg)
        return
    s = run(cfg)
    assert s.conservation_ok
    assert len(s.trace_rows) == 40
    assert all(r["transmitted_bytes"] == r["granted_bytes"] for r in s.trace_rows)
    assert s.delay_max_ms[VOICE] <= voice_deadline
    assert s.delay_max_ms[VIDEO] <= video_deadline


def test_drops_logged_before_scheduling(tmp_path):
    # three users, one chunk, one burst of voice at tti 0: whatever is left
    # at tti 51 must drop (logged in that TTI's trace row, before the
    # scheduling decision), and nothing expired may ever be transmitted
    from ulsched.channel import ChannelConfig
    cqi = tmp_path / "cqi.txt"
    cqi.write_text("6 6 6\n" * 60)
    arr = tmp_path / "arr.txt"
    arr.write_text("\n".join(f"0 {ue} voice 400" for ue in range(3)
                             for _ in range(50)))
    cfg = ScenarioConfig(policy="dham", seed=4, tti_count=60, n_ues=3,
                         keep_trace=True, cqi_trace=str(cqi),
                         arrival_trace=str(arr),
                         channel=ChannelConfig(n_prb_data=6))
    s = run(cfg)
    assert len(s.trace_rows) == 60
    drops = {r["tti"]: r["dropped_bytes"] for r in s.trace_rows}
    assert drops[51] > 0
    assert all(v == 0 for t, v in drops.items() if t != 51)
    assert all(r["granted_bytes"] == 0 for r in s.trace_rows if r["tti"] > 51)
    assert s.delay_max_ms[VOICE] <= 50
    assert s.conservation_ok


def test_surplus_regime_runs_when_rcs_exceed_ues():
    cfg = ScenarioConfig(policy="darts", seed=3, tti_count=300, n_ues=2,
                         loads_mbps={VOICE: 0.0, VIDEO: 0.0, DATA: 4.0})
    s = run(cfg)
    assert s.conservation_ok
    assert s.total_transmitted > 0
    # two users cannot be throttled by the one-chunk-per-user cap here
    per_tti = s.total_transmitted / 300
    assert per_tti > 252  # multi-chunk grants actually happened


def test_cqi_trace_fixture_run(tmp_path):
    trace = tmp_path / "cqi.txt"
    cfg0 = ScenarioConfig()
    n_rc = cfg0.channel.rc_count
    line = " ".join(["7"] * n_rc) + " " + " ".join(["12"] * n_rc) + " " + \
        " ".join(["6"] * n_rc)
    trace.write_text((line + "\n") * 50)
    cfg = ScenarioConfig(policy="dham", seed=1, tti_count=50, n_ues=3,
                         loads_mbps={VOICE: 0.3, VIDEO: 0.0, DATA: 0.0},
                         cqi_trace=str(trace))
    s = run(cfg)
    assert s.conservation_ok


def test_cqi_trace_fixture_bypasses_model(tmp_path, monkeypatch):
    # a replayed run never builds the channel model, and each TTI's W is
    # built from that TTI's trace line verbatim
    import ulsched.engine as engine
    n_rc = ScenarioConfig().channel.rc_count
    rows = np.random.default_rng(5).integers(1, 16, size=(20, 3, n_rc))
    trace = tmp_path / "cqi.txt"
    trace.write_text("".join(" ".join(map(str, r.ravel().tolist())) + "\n" for r in rows))
    assert load_cqi_trace(trace, n_ue=3, n_rc=n_rc).shape == (20, 3, n_rc)

    def no_model(*args, **kwargs):
        raise AssertionError("CqiSource constructed for a replayed run")

    seen = []
    build = engine.build_traffic_matrix
    monkeypatch.setattr(engine, "CqiSource", no_model)
    monkeypatch.setattr(engine, "build_traffic_matrix",
                        lambda grid, b: seen.append(grid.copy()) or build(grid, b))
    s = run(ScenarioConfig(policy="dham", seed=1, tti_count=20, n_ues=3,
                           loads_mbps={VOICE: 0.3, VIDEO: 0.0, DATA: 0.0},
                           cqi_trace=str(trace)))
    assert s.conservation_ok and s.tti_count == 20
    assert len(seen) == 20
    assert all(np.array_equal(got, want) for got, want in zip(seen, rows))


def test_arrival_trace_fixture_run(tmp_path):
    arr = tmp_path / "arrivals.txt"
    lines = [f"{t} {ue} voice 50" for t in range(100) for ue in range(3)]
    arr.write_text("\n".join(lines))
    cfg = ScenarioConfig(policy="darts", seed=1, tti_count=100, n_ues=3,
                         arrival_trace=str(arr))
    s = run(cfg)
    assert s.total_arrived == 100 * 3 * 50
    assert s.conservation_ok


def _replay_row(cfg, arrivals, path):
    path.write_text("".join(f"{t} {ue} {cls} {size}\n" for t, ue, cls, size in arrivals))
    s = run(replace(cfg, arrival_trace=str(path)))
    return summary_row(s, cfg.policy, cfg.ue_policy, cfg.seed, cfg.loads_mbps)


@pytest.mark.parametrize("ue_policy", ["strict", "flip"])
@pytest.mark.parametrize("policy", ["dham", "darts", "dafs"])
def test_replay_does_not_depend_on_the_order_of_trace_lines(tmp_path, policy, ue_policy):
    # each UE has its own buffer, so only a UE's order within a TTI matters;
    # up to three packets per UE and TTI, on 10 UEs and 8 RCs with short
    # deadlines, so the drains and the deadline drops see the order
    rng = np.random.default_rng(9)
    arrivals = [(t, ue, CLASSES[int(rng.integers(3))], int(rng.integers(1, 900)))
                for t in range(150) for ue in range(10) for _ in range(int(rng.integers(0, 4)))]
    order = [arrivals[i] for i in rng.permutation(len(arrivals))]
    groups = {}
    for line in arrivals:
        groups.setdefault(line[:2], []).append(line)
    shuffled = [groups[line[:2]].pop(0) for line in order]
    assert shuffled != arrivals and sorted(shuffled, key=lambda x: x[:2]) == arrivals
    cqi = tmp_path / "cqi.txt"
    cqi.write_text("".join(" ".join(map(str, rng.integers(1, 16, size=80))) + "\n"
                           for _ in range(150)))
    cfg = ScenarioConfig(policy=policy, ue_policy=ue_policy, seed=5, tti_count=150, n_ues=10,
                         voice_deadline_ms=6, video_deadline_ms=9, cqi_trace=str(cqi))
    want = _replay_row(cfg, arrivals, tmp_path / "sorted.txt")
    assert want["voice_dropped_pkts"] + want["video_dropped_pkts"] > 0
    assert _replay_row(cfg, shuffled, tmp_path / "shuffled.txt") == want


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(st.tuples(st.integers(0, 30), st.sampled_from(CLASSES),
                               st.integers(1, 1500)), max_size=25).map(
                                   lambda rows: sorted(rows, key=lambda r: r[0])))
def test_replay_source_keeps_the_due_contract(rows):
    # stepping every TTI or only at `due` yields the trace's rows, stamped
    # with their own TTI, in order; after the last row the source is NEVER due
    for only_due in (False, True):
        src, got = _Replay(rows), []
        for t in range(32):
            if only_due and src.due > t:
                continue
            got += [(p.arrival_tti, p.cls, p.size) for p in src.step(t)]
        assert got == rows and src.due == NEVER


def test_sweep_cardinality_and_monotone_arrivals():
    cfg = ScenarioConfig(policy="dham", tti_count=300, n_ues=6,
                         loads_mbps={VOICE: 1.0, VIDEO: 1.0, DATA: 1.0},
                         sweep={"vary": VOICE, "points_mbps": [0.5, 2.0, 4.0],
                                "seeds": [1, 2, 3, 4, 5]})
    rows = sweep(cfg)
    assert len(rows) == 15
    # measured arrivals rise with the offered voice point (per-seed pairing)
    by_point = {}
    for row in rows:
        by_point.setdefault(row["voice_mbps"], []).append(row["offered_mbps"])
    means = [np.mean(by_point[p]) for p in sorted(by_point)]
    assert means == sorted(means)
    # companion loads stay fixed in the generator config
    assert all(row["video_mbps"] == 1.0 and row["data_mbps"] == 1.0 for row in rows)


def test_validate_names_each_sweep_key():
    ok = {"vary": VIDEO, "points_mbps": [0.0, 1, 2.5], "seeds": [0, 5]}
    validate(ScenarioConfig(sweep=ok))
    for sw, key in (({"points_mbps": [1.0], "seed": [5, 6]}, "sweep.seed"),  # typo
                    ({"vary": "audio"}, "sweep.vary"),
                    ({"points_mbps": ["x"]}, "sweep.points_mbps"),
                    ({"points_mbps": [float("nan")]}, "sweep.points_mbps"),
                    ({"points_mbps": [-1.0]}, "sweep.points_mbps"),
                    ({"points_mbps": 1.0}, "sweep.points_mbps"),
                    ({"seeds": [1.5]}, "sweep.seeds"),
                    ({"seeds": [-1]}, "sweep.seeds"),
                    ({"seeds": [True]}, "sweep.seeds"),
                    (5, "sweep")):
        checks = [validate, sweep]  # before any run
        if key in ("sweep.points_mbps", "sweep.seeds"):  # the same lists as overrides
            checks.append(lambda cfg: sweep(replace(cfg, sweep={}),
                                            points_mbps=cfg.sweep.get("points_mbps", [1.0]),
                                            seeds=cfg.sweep.get("seeds")))
        for check in checks:
            with pytest.raises(ConfigError) as err:
                check(ScenarioConfig(tti_count=10, n_ues=2, sweep=sw))
            assert str(err.value).startswith(key + " "), (sw, str(err.value))


def test_sweep_rejects_an_empty_seed_list():
    # an empty seed list used to run nothing and write a header-only CSV
    cfg = ScenarioConfig(tti_count=10, n_ues=2, sweep={"points_mbps": [1.0], "seeds": []})
    with pytest.raises(ConfigError, match="sweep.seeds"):
        sweep(cfg)
    with pytest.raises(ConfigError, match="sweep.seeds"):
        sweep(replace(cfg, sweep={"points_mbps": [1.0]}), seeds=[])


def test_sweep_parallel_matches_serial():
    cfg = ScenarioConfig(policy="dham", tti_count=120, n_ues=4,
                         loads_mbps={VOICE: 1.0, VIDEO: 0.0, DATA: 0.0},
                         sweep={"vary": VOICE, "points_mbps": [0.5, 1.0],
                                "seeds": [1, 2]})
    serial = sweep(cfg)
    parallel = sweep(cfg, jobs=2)
    assert serial == parallel


def test_engine_passes_critical_history_and_dafs_build_up(monkeypatch):
    # the urgency that reaches dispatch: k_current is each UE's critical
    # bytes, plus max(b - threshold, 0) for dafs only, and k adds the drop
    # history; dham passes none. The critical bytes are recounted from the
    # queues, so a UE whose aging the engine skipped must have none
    import ulsched.engine as engine
    from ulsched.traffic import UeBuffer
    buffers, calls = [], []
    init, age_and_drop = UeBuffer.__init__, UeBuffer.age_and_drop

    def spy_init(buf, *args, **kwargs):
        init(buf, *args, **kwargs)
        buffers.append(buf)

    def spy_age(buf, tti):
        calls.append(tti)
        return age_and_drop(buf, tti)

    monkeypatch.setattr(UeBuffer, "__init__", spy_init)
    monkeypatch.setattr(UeBuffer, "age_and_drop", spy_age)
    seen = []
    dispatch = engine.dispatch

    def spy_dispatch(policy, W, k, k_current):
        tti = len(seen)
        rows = []
        for buf in buffers:
            late = [tti - p.arrival_tti - d for cls, d in buf.deadlines.items()
                    for p in buf.queues[cls]]
            assert all(x <= 0 for x in late), "a packet past its deadline reached dispatch"
            at_deadline = [p.remaining for cls, d in buf.deadlines.items()
                           for p in buf.queues[cls] if tti - p.arrival_tti == d]
            rows.append((sum(at_deadline), buf.history_sum))
        seen.append((policy, W.b.copy(), k, k_current, rows))
        return dispatch(policy, W, k, k_current)

    monkeypatch.setattr(engine, "dispatch", spy_dispatch)
    threshold = 3000
    for policy in ("dham", "darts", "dafs"):
        seen.clear()
        buffers.clear()
        calls.clear()
        run(ScenarioConfig(policy=policy, seed=3, tti_count=120, n_ues=10,
                           buffer_capacity=8000, buffer_threshold=threshold,
                           voice_deadline_ms=5, video_deadline_ms=8, history_window=20,
                           loads_mbps={VOICE: 8.0, VIDEO: 8.0, DATA: 16.0}))
        assert len(seen) == 120 and len(buffers) == 10
        assert 0 < len(calls) < 120 * 10  # aging runs only where it is due
        for _policy, b, k, k_current, rows in seen:
            critical, history = (np.array(x, dtype=np.int64) for x in zip(*rows))
            if policy == "dham":
                assert k is None and k_current is None
                continue
            build_up = np.maximum(b - threshold, 0) if policy == "dafs" else 0
            assert np.array_equal(k_current, critical + build_up)
            assert np.array_equal(k, k_current + history)
            assert k.dtype == k_current.dtype == np.int64
        if policy != "dham":  # every term was nonzero somewhere in the run
            assert any(c > 0 for *_x, rows in seen for c, _h in rows)
            assert any(h > 0 for *_x, rows in seen for _c, h in rows)
            assert policy == "darts" or any(np.any(b > threshold) for _p, b, *_x in seen)
