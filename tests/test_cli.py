"""CLI tests: subcommands, exit codes, env overrides, CSV outputs."""

import csv
import json

import pytest

from ulsched.cli import main


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_example_table5(capsys):
    assert main(["example", "table5"]) == 0
    out = capsys.readouterr().out
    assert "Total Transmitted 1192" in out
    assert "Total Drop 238" in out
    assert "RESULT ok scenario=table5" in out


def test_example_table4(capsys):
    assert main(["example", "table4"]) == 0
    out = capsys.readouterr().out
    assert "Total Transmitted 1010" in out
    assert "Total Drop 420" in out


def test_example_table3(capsys):
    assert main(["example", "table3"]) == 0
    assert "RESULT ok scenario=table3" in capsys.readouterr().out


def test_example_objectives(capsys):
    assert main(["example", "sec2-objective"]) == 0
    out = capsys.readouterr().out
    assert "schedule UE1: objective 45" in out
    assert "schedule UE2: objective -5" in out
    assert "schedule UE3: objective 102" in out
    assert "selected UE3" in out


def test_example_unknown_name_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["example", "table9"])
    assert exc.value.code == 2


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_validate_default_config(capsys):
    assert main(["validate"]) == 0
    assert "RESULT ok" in capsys.readouterr().out


def test_validate_bad_config_names_key(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"buffer_capacity": 1000, "buffer_threshold": 2000}))
    assert main(["validate", "--config", str(bad)]) == 1
    assert "buffer_threshold" in capsys.readouterr().err


def test_validate_rejects_empty_sweep_lists(tmp_path, capsys):
    # `validate` passed an empty list that `sweep` then rejected
    from ulsched.engine import ConfigError, ScenarioConfig, validate
    for sweep, key in (({"points_mbps": [1.0], "seeds": []}, "sweep.seeds"),
                       ({"points_mbps": []}, "sweep.points_mbps")):
        d = {"tti_count": 20, "n_ues": 2, "sweep": sweep}
        with pytest.raises(ConfigError, match=f"^{key} must be a non-empty list"):
            validate(ScenarioConfig.from_dict(d))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(d))
        assert main(["validate", "--config", str(cfg)]) == 1
        assert f"error: {key} must be" in capsys.readouterr().err


def test_run_names_a_cqi_trace_that_is_not_a_path(tmp_path, capsys):
    # `true` passed validate, then run() opened and closed fd 1 (stdout)
    # and exited through an OSError traceback
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tti_count": 5, "n_ues": 2, "cqi_trace": True}))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert "error: cqi_trace must be null or a non-empty path" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()  # rejected before anything ran


@pytest.mark.parametrize("key", ["cqi_trace", "arrival_trace"])
def test_run_names_a_trace_that_cannot_be_read(tmp_path, capsys, key):
    # a directory passed validate, and open() then ended the run in an
    # IsADirectoryError traceback
    cfg = tmp_path / "cfg.json"
    for path in (tmp_path, tmp_path / "missing.txt"):
        cfg.write_text(json.dumps({"tti_count": 5, "n_ues": 2, key: str(path)}))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        assert f"error: {key} cannot be read: " in capsys.readouterr().err


@pytest.mark.parametrize("key", ["cqi_trace", "arrival_trace"])
def test_run_names_a_trace_that_cannot_be_decoded(tmp_path, capsys, key):
    # ended the run with only the codec's message, naming neither key nor path
    trace = tmp_path / "trace.txt"
    trace.write_bytes(b"\xff\xfe7 7\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tti_count": 5, "n_ues": 2, key: str(trace)}))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert f"error: {key} cannot be read: {trace}: 'utf-8' codec" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate", "run"])
def test_a_config_file_that_is_not_a_json_object_is_named(tmp_path, capsys, command):
    # a list or a number ended in a TypeError traceback, a directory in an
    # IsADirectoryError traceback, and bad JSON in an error without the path
    for name, content in (("list.json", b"[1, 2]"), ("number.json", b"5"),
                          ("bad.json", b"{x: 1}"), ("bytes.json", b"\xff{}"),
                          ("dir.json", None)):
        cfg = tmp_path / name
        if content is None:
            cfg.mkdir()
        else:
            cfg.write_bytes(content)
        extra = ["--out", str(tmp_path / "out")] if command == "run" else []
        assert main([command, "--config", str(cfg), *extra]) == 1
        assert capsys.readouterr().err.startswith(f"error: config {cfg} ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_an_out_path_that_cannot_be_a_directory_is_named(tmp_path, capsys, command):
    # an existing file, or a path under one, ended in a FileExistsError or
    # NotADirectoryError traceback from mkdir
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tti_count": 5, "n_ues": 2,
                               "sweep": {"points_mbps": [1.0], "seeds": [1]}}))
    taken = tmp_path / "taken"
    taken.write_text("")
    for out, why in ((taken, "File exists"), (taken / "sub", "Not a directory")):
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: --out {out} cannot be used as a directory: {why}\n", err
    assert taken.read_text() == ""


def test_run_writes_csv_and_is_repeatable(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "policy": "darts", "seed": 3, "tti_count": 120, "n_ues": 4,
        "loads_mbps": {"voice": 1.0, "video": 0.0, "data": 0.0}}))
    out1 = tmp_path / "o1"
    out2 = tmp_path / "o2"
    assert main(["run", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["run", "--config", str(cfg), "--out", str(out2)]) == 0
    rows1 = _rows(out1 / "run_darts_strict_seed3.csv")
    rows2 = _rows(out2 / "run_darts_strict_seed3.csv")
    assert rows1 == rows2
    assert rows1[0]["conservation_ok"] == "1"
    line = capsys.readouterr().out
    assert "RESULT ok" in line and "mac_mbps=" in line


def test_run_seed_override_changes_output(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "policy": "dham", "seed": 3, "tti_count": 120, "n_ues": 4,
        "loads_mbps": {"voice": 1.0, "video": 0.0, "data": 0.0}}))
    main(["run", "--config", str(cfg), "--out", str(tmp_path / "a")])
    main(["run", "--config", str(cfg), "--seed", "9", "--out", str(tmp_path / "b")])
    a = _rows(tmp_path / "a" / "run_dham_strict_seed3.csv")[0]
    b = _rows(tmp_path / "b" / "run_dham_strict_seed9.csv")[0]
    assert a["transmitted_bytes"] != b["transmitted_bytes"]


def test_run_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("ULSCHED_SEED", "77")
    monkeypatch.setenv("ULSCHED_TTIS", "90")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "policy": "dham", "tti_count": 5000, "n_ues": 3,
        "loads_mbps": {"voice": 0.5, "video": 0.0, "data": 0.0}}))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    rows = _rows(tmp_path / "run_dham_strict_seed77.csv")
    assert rows[0]["seed"] == "77"
    assert rows[0]["tti_count"] == "90"


def test_run_trace_flag(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "policy": "dham", "seed": 1, "tti_count": 50, "n_ues": 3,
        "loads_mbps": {"voice": 0.5, "video": 0.0, "data": 0.0}}))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path), "--trace"]) == 0
    path = tmp_path / "trace_dham_strict_seed1.csv"
    assert f"trace={path}" in capsys.readouterr().out
    trace = _rows(path)
    assert list(trace[0])[0] == "tti"
    assert len(trace) == 50


def test_run_trace_files_of_both_ue_policies_coexist(tmp_path):
    # both drains' traces land in one --out directory; neither overwrites
    # the other
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "policy": "dafs", "seed": 3, "tti_count": 50, "n_ues": 6,
        "loads_mbps": {"voice": 2.0, "video": 2.0, "data": 2.0}}))
    traces = {}
    for ue_policy in ("strict", "flip"):
        assert main(["run", "--config", str(cfg), "--ue-policy", ue_policy,
                     "--out", str(tmp_path), "--trace"]) == 0
        traces[ue_policy] = tmp_path / f"trace_dafs_{ue_policy}_seed3.csv"
        assert len(_rows(traces[ue_policy])) == 50
    for ue_policy in ("strict", "flip"):
        summary = _rows(tmp_path / f"run_dafs_{ue_policy}_seed3.csv")[0]
        sent = sum(int(r["transmitted_bytes"]) for r in _rows(traces[ue_policy]))
        assert sent == int(summary["transmitted_bytes"]), ue_policy


def test_sweep_row_per_point_and_seed(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "policy": "dham", "tti_count": 80, "n_ues": 3,
        "loads_mbps": {"voice": 0.5, "video": 0.0, "data": 0.0},
        "sweep": {"vary": "voice", "points_mbps": [0.5, 1.0], "seeds": [1, 2, 3]}}))
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    rows = _rows(tmp_path / "sweep_dham_strict.csv")
    assert len(rows) == 6
    assert {(r["voice_mbps"], r["seed"]) for r in rows} == {
        (str(p), str(s)) for p in (0.5, 1.0) for s in (1, 2, 3)}


def test_sweep_flags_override_the_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "policy": "dham", "tti_count": 40, "n_ues": 3,
        "loads_mbps": {"voice": 0.5, "video": 0.0, "data": 0.0},
        "sweep": {"vary": "voice", "points_mbps": [0.5], "seeds": [1]}}))
    assert main(["sweep", "--config", str(cfg), "--points", "0.25,2", "--seeds", "4,5",
                 "--out", str(tmp_path)]) == 0
    rows = _rows(tmp_path / "sweep_dham_strict.csv")
    assert [(r["voice_mbps"], r["seed"]) for r in rows] == [
        ("0.25", "4"), ("0.25", "5"), ("2.0", "4"), ("2.0", "5")]


@pytest.mark.parametrize("flag, value", [
    ("--points", "x"), ("--points", "1,"), ("--seeds", "1.5"), ("--seeds", ""),
    ("--jobs", "0"), ("--jobs", "two")])
def test_bad_sweep_flag_is_a_usage_error_naming_it(flag, value, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", flag, value, "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert f"argument {flag}: " in capsys.readouterr().err
    assert not any(tmp_path.iterdir())  # nothing ran


@pytest.mark.parametrize("name, command, flag", [
    ("SEED", "run", "--seed"), ("TTIS", "run", "--ttis"), ("JOBS", "sweep", "--jobs")])
def test_bad_env_value_is_a_usage_error_naming_its_flag(name, command, flag, monkeypatch,
                                                        tmp_path, capsys):
    monkeypatch.setenv(f"ULSCHED_{name}", "abc")
    with pytest.raises(SystemExit) as exc:
        main([command, "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert f"argument {flag}: " in capsys.readouterr().err


def test_validate_ignores_env_values_of_flags_it_lacks(monkeypatch, capsys):
    monkeypatch.setenv("ULSCHED_SEED", "abc")
    assert main(["validate"]) == 0
    assert "RESULT ok" in capsys.readouterr().out


def test_golden_mismatch_exit_code(monkeypatch, capsys):
    import ulsched.cli as cli
    from ulsched.golden import run_scenario
    trace = run_scenario("table5")
    monkeypatch.setitem(cli.__dict__, "verify_scenario",
                        lambda name: (trace, ["forced mismatch"]))
    assert main(["example", "table5"]) == 3
    assert "RESULT golden-mismatch" in capsys.readouterr().out
