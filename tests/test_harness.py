"""Config validation, trial logs, determinism, summaries, costs, CLI."""

import json
import math

import pytest

from spoofsim.harness import (
    ConfigError,
    default_config_dict,
    disruption_cost,
    load_config,
    run,
    summarize,
)
from spoofsim.harness import cost as cost_mod
from spoofsim.harness.cli import main
from spoofsim.harness.config import make_config
from spoofsim.harness.log import TrialLog
from spoofsim.harness.output import emit, load_logs


def small_config(scenario, trials=5, **extra):
    data = {"version": 1, "scenario": scenario, "trials": trials}
    data.update(extra)
    return make_config(data)


# ---------------------------------------------------------------------------
# config


def test_default_config_valid():
    for scenario in ("GPWS", "TCAS", "GS", "BASELINE"):
        cfg = make_config(default_config_dict(scenario))
        assert cfg.scenario == scenario


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError):
        make_config({"version": 1, "scenario": "GPWS", "bogus": 1})
    with pytest.raises(ConfigError):
        make_config({"version": 1, "scenario": "GPWS", "world": {"gravity": 9.8}})


def test_bad_values_rejected():
    with pytest.raises(ConfigError):
        make_config({"version": 2, "scenario": "GPWS"})
    with pytest.raises(ConfigError):
        make_config({"version": 1, "scenario": "NOPE"})
    with pytest.raises(ConfigError):
        make_config({"version": 1, "scenario": "GPWS", "trials": 0})


def test_config_error_names_field():
    with pytest.raises(ConfigError, match="trials"):
        make_config({"version": 1, "scenario": "GPWS", "trials": -3})


def test_partial_config_merges_over_defaults():
    cfg = make_config({"version": 1, "scenario": "GS", "trials": 7,
                       "attacker": {"gs": {"shift_m": 1000.0}}})
    assert cfg.trials == 7
    assert cfg.raw["attacker"]["gs"]["shift_m"] == 1000.0
    assert cfg.raw["attacker"]["gs"]["tx_power_w"] == 50.0  # default retained


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(bad)


# ---------------------------------------------------------------------------
# trial log


def test_trial_log_ordering_and_terminal():
    log = TrialLog(trial_id=0, seed=1, scenario="GS")
    log.add(0.0, "a")
    with pytest.raises(ValueError):
        log.add(-1.0, "b")
    log.finish(1.0, "LANDED")
    assert log.outcome == "LANDED"
    with pytest.raises(ValueError):
        log.add(2.0, "c")


def test_trial_log_jsonl_round_trip():
    log = TrialLog(trial_id=3, seed=42, scenario="GS")
    log.add(0.0, "a", {"x": 1})
    log.finish(1.0, "LANDED")
    blob = log.to_jsonl()
    for line in blob.strip().splitlines():
        record = json.loads(line)
        assert record["trial_id"] == 3
        assert record["seed"] == 42
        assert set(record) == {"t", "kind", "payload", "trial_id", "seed"}
    clone = TrialLog.from_jsonl(blob, scenario="GS")
    assert clone.events == log.events


# ---------------------------------------------------------------------------
# runner determinism


def test_runs_are_deterministic():
    cfg = small_config("GPWS", trials=10)
    logs1 = run(cfg)
    logs2 = run(cfg)
    assert [l.to_jsonl() for l in logs1] == [l.to_jsonl() for l in logs2]


def test_trial_seed_independent_of_count():
    few = run(small_config("GS", trials=3))
    many = run(small_config("GS", trials=6))
    for a, b in zip(few, many):
        assert a.to_jsonl() == b.to_jsonl()


def test_seed_changes_results():
    a = run(small_config("GPWS", trials=10))
    b = run(small_config("GPWS", trials=10, master_seed=999))
    assert [l.to_jsonl() for l in a] != [l.to_jsonl() for l in b]


def test_baseline_all_land_no_alerts():
    cfg = small_config("BASELINE", trials=20)
    logs = run(cfg)
    assert all(l.outcome == "LANDED" for l in logs)
    for log in logs:
        assert not list(log.iter_kind("gpws_alert"))
        assert not list(log.iter_kind("advisory"))


# ---------------------------------------------------------------------------
# summaries


def test_summarize_rejects_empty_and_mixed():
    with pytest.raises(ValueError):
        summarize([])
    mixed = run(small_config("GS", trials=2)) + run(small_config("GPWS", trials=2))
    with pytest.raises(ValueError):
        summarize(mixed)


def test_summarize_single_trial():
    logs = run(small_config("GS", trials=1))
    s = summarize(logs)
    assert s["trials"] == 1
    assert sum(s["outcomes"].values()) == 1


def test_gpws_summary_table_labels():
    s = summarize(run(small_config("GPWS", trials=40)))
    labels = {row[1] for row in s["tables"]["actions"]["rows"]}
    assert labels <= {"Land", "Go-around", "Turn off"}
    # Counts per approach sum to that approach's participants.
    by_approach = {}
    for approach, _label, count, _pct, participants in s["tables"]["actions"]["rows"]:
        by_approach.setdefault(approach, [0, participants])
        by_approach[approach][0] += count
    for total, participants in by_approach.values():
        assert total == participants


def test_tcas_summary_matrix_labels():
    s = summarize(run(small_config("TCAS", trials=30)))
    rows = {row[0] for row in s["tables"]["responses"]["rows"]}
    assert rows == {"Continue on route", "Avoidance manoeuvre", "Divert to origin"}
    headers = s["tables"]["responses"]["headers"]
    assert "TA/RA" in headers and "TA-Only" in headers and "Standby" in headers
    fractions = [
        s["stats"]["final_mode_ta_ra_fraction"],
        s["stats"]["final_mode_ta_only_fraction"],
        s["stats"]["final_mode_standby_fraction"],
    ]
    assert math.isclose(sum(fractions), 1.0, rel_tol=1e-9)


# ---------------------------------------------------------------------------
# cost model


def test_cost_reference_values():
    assert disruption_cost(cost_mod.MISSED_APPROACH, cost_mod.B737_800).usd == pytest.approx(77.14, abs=0.005)
    assert disruption_cost(cost_mod.SECOND_APPROACH, cost_mod.B737_800).usd == pytest.approx(139.69, abs=0.005)
    assert disruption_cost(cost_mod.MISSED_APPROACH, cost_mod.B777_200).usd == pytest.approx(205.90, abs=0.005)
    assert disruption_cost(cost_mod.SECOND_APPROACH, cost_mod.B777_200).usd == pytest.approx(516.25, abs=0.005)


def test_cost_linearity():
    base = disruption_cost(cost_mod.MISSED_APPROACH, cost_mod.B737_800)
    double = disruption_cost(
        cost_mod.MISSED_APPROACH, cost_mod.B737_800, fuel_price_cents_per_gal=2 * 184.58
    )
    assert double.usd == pytest.approx(2 * base.usd)


def test_cost_kg_from_gallons():
    report = disruption_cost(cost_mod.SECOND_APPROACH, cost_mod.B737_800)
    assert report.extra_fuel_kg == pytest.approx(75.68 * 3.039)
    assert report.note == ""
    flagged = disruption_cost(cost_mod.MISSED_APPROACH, cost_mod.B777_200)
    assert "399" in flagged.note  # published figure inconsistent with density


def test_cost_diversion_band():
    report = disruption_cost(cost_mod.DIVERSION, cost_mod.B737_800)
    assert report.diversion_band_gbp == (10_000.0, 80_000.0)


def test_cost_errors():
    with pytest.raises(ValueError):
        disruption_cost(cost_mod.MISSED_APPROACH, "A320")
    with pytest.raises(ValueError):
        disruption_cost("teleport", cost_mod.B737_800)


# ---------------------------------------------------------------------------
# emit + CLI


def test_emit_files(tmp_path):
    cfg = small_config("GS", trials=3)
    logs = run(cfg)
    written = emit(logs, summarize(logs), tmp_path / "out", config_dict=cfg.raw)
    names = {p.name for p in written}
    assert {"trial_00000.jsonl", "trial_00001.jsonl", "trial_00002.jsonl",
            "summary.csv", "report.txt", "config.json"} <= names
    reread = load_logs(tmp_path / "out", scenario="GS")
    assert [l.to_jsonl() for l in reread] == [l.to_jsonl() for l in logs]


def test_emit_deterministic(tmp_path):
    cfg = small_config("GS", trials=3)
    for d in ("a", "b"):
        logs = run(cfg)
        emit(logs, summarize(logs), tmp_path / d, config_dict=cfg.raw)
    for name in ("summary.csv", "report.txt", "trials/trial_00001.jsonl"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_altitude_trace_emitted(tmp_path):
    cfg = small_config("GPWS", trials=1, output={"altitude_trace": True})
    logs = run(cfg)
    written = emit(logs, summarize(logs), tmp_path / "out")
    traces = [p for p in written if p.parent.name == "traces"]
    assert len(traces) == 1
    header = traces[0].read_text().splitlines()[0]
    assert header == "time_s,altitude_ft,indicated_agl_ft"


def test_cli_run_and_summarize(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["run", "--scenario", "GS", "--trials", "4", "--seed", "5",
               "--out", str(out)])
    assert rc == 0
    assert (out / "summary.csv").is_file()
    rc = main(["summarize", "--out", str(out)])
    assert rc == 0
    assert "scenario,GS" in capsys.readouterr().out


def test_cli_detect(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", "--scenario", "TCAS", "--trials", "5", "--seed", "5",
                 "--out", str(out)]) == 0
    assert main(["detect", "--scenario", "TCAS", "--out", str(out)]) == 0
    assert "SUSPECT" in capsys.readouterr().out
    assert (out / "verdicts.csv").is_file()


def test_cli_cost(capsys):
    assert main(["cost"]) == 0
    out = capsys.readouterr().out
    assert "77.14" in out and "516.25" in out


def test_cli_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"version": 1, "scenario": "GPWS", "oops": True}))
    assert main(["validate-config", "--config", str(bad)]) == 2
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"version": 1, "scenario": "GPWS"}))
    assert main(["validate-config", "--config", str(good)]) == 0


def test_cli_runtime_error_exit_code(tmp_path):
    # Missing scenario is a config error; missing logs are a runtime error.
    assert main(["summarize", "--out", str(tmp_path / "nothing")]) == 2
    assert main(["summarize", "--scenario", "GS", "--out", str(tmp_path / "nothing")]) == 3


def _gs_run(out, trials=4):
    assert main(["run", "--scenario", "GS", "--trials", str(trials), "--seed", "5",
                 "--out", str(out)]) == 0
    return out / "trials"


def test_cli_truncated_log_exit_code(tmp_path, capsys):
    trials = _gs_run(tmp_path / "out")
    path = trials / "trial_00002.jsonl"
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))
    assert main(["summarize", "--out", str(tmp_path / "out")]) == 3
    assert "trial_00002.jsonl" in capsys.readouterr().err


def test_load_rejects_unordered_or_doubled_outcome(tmp_path):
    trials = _gs_run(tmp_path / "out")
    path = trials / "trial_00001.jsonl"
    lines = path.read_text().splitlines(keepends=True)
    first = json.loads(lines[0])
    first["t"] = 1e9
    path.write_text(json.dumps(first) + "\n" + "".join(lines[1:]))
    with pytest.raises(RuntimeError, match="trial_00001.jsonl.*time order"):
        load_logs(tmp_path / "out")
    path.write_text("".join(lines + lines[-1:]))
    with pytest.raises(RuntimeError, match="trial_00001.jsonl.*one outcome"):
        load_logs(tmp_path / "out")


def test_cli_missing_log_exit_code(tmp_path, capsys):
    out = tmp_path / "out"
    trials = _gs_run(out, trials=12)
    (trials / "trial_00009.jsonl").unlink()
    assert main(["summarize", "--out", str(out)]) == 3
    assert main(["detect", "--scenario", "GS", "--out", str(out)]) == 3
    assert "missing [9]" in capsys.readouterr().err
