import json
import logging
import math
import warnings

import pytest

from mgv.cli import main


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def flavell_doc(tmp_path, out="trace.jsonl"):
    return {"mode": "flavell", "seed": 7,
            "params": {"task_tags": ["t"], "success_threshold": 0.5,
                       "max_cycles": 6,
                       "strategies": [{"id": "good", "quality": 0.9}]},
            "out": str(tmp_path / out)}


# --- full-document configs --------------------------------------------------

def test_flavell_subcommand_prints_summary_line(tmp_path, capsys):
    config = write_json(tmp_path / "run.json", flavell_doc(tmp_path))
    code, out, err = run_cli(capsys, "flavell", "--config", config)
    assert code == 0 and err == ""
    (line,) = out.strip().splitlines()
    summary = json.loads(line)
    assert summary["mode"] == "flavell"
    assert summary["status"] == "terminated"
    assert (tmp_path / "trace.jsonl").exists()


def test_seed_and_out_flags_override_the_file(tmp_path, capsys):
    config = write_json(tmp_path / "run.json", flavell_doc(tmp_path))
    code, out, _ = run_cli(capsys, "flavell", "--config", config,
                           "--seed", "99", "--out", str(tmp_path / "other.jsonl"))
    assert code == 0
    assert json.loads(out)["seed"] == 99
    assert (tmp_path / "other.jsonl").exists()
    assert not (tmp_path / "trace.jsonl").exists()


def test_mode_mismatch_is_a_validation_error(tmp_path, capsys):
    config = write_json(tmp_path / "run.json", flavell_doc(tmp_path))
    code, out, err = run_cli(capsys, "acquire", "--config", config)
    assert code == 2 and out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "ValidationError"
    assert "acquire" in error["message"]


def test_repeat_prints_one_line_per_run(tmp_path, capsys):
    config = write_json(tmp_path / "run.json", flavell_doc(tmp_path))
    code, out, _ = run_cli(capsys, "flavell", "--config", config, "--repeat", "3")
    assert code == 0
    lines = [json.loads(l) for l in out.strip().splitlines()]
    assert [l["repeat_index"] for l in lines] == [0, 1, 2]
    assert (tmp_path / "trace.2.jsonl").exists()


# --- bare params blocks -----------------------------------------------------

def test_bandit_accepts_bare_arm_spec(tmp_path, capsys):
    arms = write_json(tmp_path / "arms.json",
                      {"utilities": [0.8, 0.2], "times": [1.0, 1.0],
                       "episodes": 10})
    code, out, _ = run_cli(capsys, "bandit", "--arms", arms, "--seed", "3",
                           "--episodes", "25")
    assert code == 0
    summary = json.loads(out)
    assert summary["episodes"] == 25  # flag overrides the file
    assert summary["mode"] == "bandit"


def test_bare_spec_without_seed_fails(tmp_path, capsys):
    arms = write_json(tmp_path / "arms.json",
                      {"utilities": [0.5], "times": [1.0], "episodes": 5})
    code, _, err = run_cli(capsys, "bandit", "--arms", arms)
    assert code == 2
    assert json.loads(err)["error"]["type"] == "ValidationError"


def test_plan_lambda_flag_overrides_cost(tmp_path, capsys):
    tree = write_json(tmp_path / "tree.json", {
        "parents": [None, 0],
        "priors": [{"support": [0.0], "probs": [1.0]},
                   {"support": [0.0, 1.0], "probs": [0.5, 0.5]}],
        "expansion_cost": 0.0})
    code, out, _ = run_cli(capsys, "plan", "--tree", tree, "--seed", "1",
                           "--lambda", "100.0")
    assert code == 0
    summary = json.loads(out)
    assert summary["expansions"] == 0
    assert summary["expansion_cost"] == 100.0


def test_solve_recall_emits_artifacts(tmp_path, capsys):
    config = write_json(tmp_path / "recall.json", {
        "drift_prior_mean": 0.2, "drift_prior_variance": 0.5,
        "evidence_variance": 1.0, "recall_threshold": 1.0,
        "recall_utility": 5.0, "search_cost": 0.02, "horizon": 6,
        "simulate": {"drifts": [0.3], "episodes": 20}})
    policy = tmp_path / "policy.json"
    csv = tmp_path / "cutoffs.csv"
    code, out, _ = run_cli(capsys, "solve-recall", "--config", config,
                           "--seed", "5", "--emit-policy", str(policy),
                           "--emit-threshold", str(csv))
    assert code == 0
    assert json.loads(policy.read_text())["horizon"] == 6
    assert csv.read_text().splitlines()[0] == "t,threshold"
    assert json.loads(out)["simulated"]["0.3"]["recall_rate"] >= 0.0


def test_retrieve_and_acquire_subcommands(tmp_path, capsys):
    retrieve = write_json(tmp_path / "ret.json",
                          {"query": ["cue"], "target": "x", "match_prob": 0.9,
                           "min_matches": 3})
    code, out, _ = run_cli(capsys, "retrieve", "--config", retrieve, "--seed", "2")
    assert code == 0 and json.loads(out)["mode"] == "retrieve"
    acquire = write_json(tmp_path / "acq.json", {
        "target_performance": 0.5, "retention_discount": 0.1,
        "total_resources_per_cycle": 2.0, "max_cycles": 30,
        "items": [{"id": 1, "latent_difficulty": 0.5}]})
    code, out, _ = run_cli(capsys, "acquire", "--config", acquire, "--seed", "2")
    assert code == 0 and json.loads(out)["status"] == "finished"


def test_unattainable_norm_is_logged_and_the_run_succeeds(tmp_path, capsys, caplog):
    """The norm-of-study note is a log record, not a Python warning, so a run
    under warnings-as-errors still prints its summary."""
    acquire = write_json(tmp_path / "acq.json",
                         {**ACQUIRE, "target_performance": 0.9, "retention_discount": 1.5})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, _ = run_cli(capsys, "acquire", "--config", acquire, "--seed", "2")
    assert code == 0 and json.loads(out)["status"] == "unfinished"
    assert [(r.name, r.levelno) for r in caplog.records] == [("mgv.acquisition",
                                                               logging.WARNING)]


# --- error handling ---------------------------------------------------------

def test_missing_config_file(tmp_path, capsys):
    code, _, err = run_cli(capsys, "flavell", "--config",
                           str(tmp_path / "absent.json"))
    assert code == 2
    assert json.loads(err)["error"]["type"] == "MissingFile"


def test_malformed_config_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    code, _, err = run_cli(capsys, "flavell", "--config", str(bad))
    assert code == 2
    assert json.loads(err)["error"]["type"] == "ParseError"


def test_invalid_params_name_the_field(tmp_path, capsys):
    doc = flavell_doc(tmp_path)
    doc["params"]["feel_prob"] = 7.0
    config = write_json(tmp_path / "run.json", doc)
    code, _, err = run_cli(capsys, "flavell", "--config", config)
    assert code == 2
    assert "feel_prob" in json.loads(err)["error"]["message"]


def test_unknown_subcommand_exits_with_usage(capsys):
    with pytest.raises(SystemExit):
        main(["frobnicate"])


# --- report -----------------------------------------------------------------

def test_report_prints_table_and_writes_json(tmp_path, capsys):
    config = write_json(tmp_path / "run.json", flavell_doc(tmp_path))
    run_cli(capsys, "flavell", "--config", config)
    report_path = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "report", str(tmp_path / "trace.jsonl"),
                           "--out", str(report_path))
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("run_id")
    assert set(lines[1]) <= {"-", " "}
    doc = json.loads(report_path.read_text())
    assert doc["runs"][0]["module"] == "flavell"


# --- logging ----------------------------------------------------------------

def test_log_level_env_var(tmp_path, capsys, caplog, monkeypatch):
    monkeypatch.setenv("MGV_LOG_LEVEL", "INFO")
    config = write_json(tmp_path / "run.json", flavell_doc(tmp_path))
    with caplog.at_level(logging.INFO, logger="mgv"):
        code = main(["flavell", "--config", config])
    capsys.readouterr()
    assert code == 0
    assert any("running flavell" in r.message for r in caplog.records)


# --- malformed input --------------------------------------------------------

TREE = {"parents": [None, 0, 0],
        "priors": [{"support": [0.0], "probs": [1.0]}] * 3,
        "expansion_cost": 0.1}
RECALL = {"drift_prior_mean": 0.2, "drift_prior_variance": 0.5,
          "evidence_variance": 1.0, "recall_threshold": 1.0,
          "recall_utility": 5.0, "search_cost": 0.02, "horizon": 6}
FLAVELL = {"task_tags": ["t"], "success_threshold": 0.5, "max_cycles": 6,
           "strategies": [{"id": "good", "quality": 0.9}]}
RETRIEVE = {"query": ["cue"], "match_prob": 0.9}
ACQUIRE = {"target_performance": 0.5, "retention_discount": 0.1,
           "total_resources_per_cycle": 2.0, "max_cycles": 30,
           "items": [{"id": 1, "latent_difficulty": 0.5}]}
STATIONARY = {"episodes": 5, "utilities": [0.5, 0.2], "times": [1.0, 1.0]}
FEATURE = {"env": "feature", "episodes": 5,
           "utility_weights": [[1.0]], "time_weights": [[1.0]]}

MALFORMED = [
    ("plan", "--tree", {**TREE, "parents": [None, 2, 1]}, [], "params.parents"),
    ("solve-recall", "--config", {**RECALL, "z_min": 2.0}, [], "params.z_min"),
    ("solve-recall", "--config", {**RECALL, "z_min": -1.0, "z_step": 0.3}, [],
     "params.z_step"),
    ("plan", "--tree", TREE, ["--seed", "-3"], "config.seed"),
    ("flavell", "--config",
     {**FLAVELL, "strategies": [{"id": "good", "quality": 0.9, "successes": -1}]}, [],
     "params.strategies[0].successes"),
    ("retrieve", "--config",
     {**RETRIEVE, "seed_items": [{"id": "x", "category": "bogus"}]}, [],
     "params.seed_items[0].category"),
    ("retrieve", "--config",
     {**RETRIEVE, "seed_items": [{"id": "x", "category": "task", "calibration_records": [
         {"fok_magnitude": 0.5, "was_correct": True}]}]}, [],
     "params.seed_items[0].calibration_records[0].confidence"),
    ("bandit", "--arms", {**FEATURE, "utility_weights": [["a"]]}, [],
     "params.utility_weights"),
    ("bandit", "--arms", {**STATIONARY, "utilities": [True, 1]}, [], "params.utilities"),
    ("bandit", "--arms", {**STATIONARY, "gamma_prior": [True, 1]}, [],
     "params.gamma_prior"),
    ("solve-recall", "--config",
     {**RECALL, "simulate": {"drifts": [0.2, 0.2], "episodes": 5}}, [],
     "params.simulate.drifts"),
    ("flavell", "--config", FLAVELL, ["--repeat", "0"], "repeat"),
    ("solve-recall", "--config", {**RECALL, "recall_threshold": math.inf}, [],
     "params.recall_threshold"),
    ("plan", "--tree",
     {**TREE, "priors": [*TREE["priors"][:2], {"support": [math.nan, 1.0],
                                               "probs": [0.5, 0.5]}]}, [],
     "params.priors[2].support"),
    ("bandit", "--arms", {**STATIONARY, "utilities": [math.inf, 1.0]}, [],
     "params.utilities[0]"),
    # probs may sum to 1 within 1e-9, so a finite support's mean can overflow.
    ("plan", "--tree",
     {**TREE, "priors": [TREE["priors"][0],
                         {"support": [1.7976931348623157e308], "probs": [1.0000000005]},
                         {"support": [-1.7976931348623157e308], "probs": [1.0000000005]}]},
     [], "params.priors[1].support"),
]


@pytest.mark.parametrize("command,flag,params,argv,field", MALFORMED,
                         ids=[f"{m[0]}:{m[4]}" for m in MALFORMED])
def test_malformed_input_exits_2_naming_the_field(tmp_path, capsys, command, flag,
                                                  params, argv, field):
    path = write_json(tmp_path / "params.json", params)
    if "--seed" not in argv:
        argv = [*argv, "--seed", "1"]
    code, out, err = run_cli(capsys, command, flag, path, *argv)
    assert code == 2 and out == ""
    (line,) = err.splitlines()
    error = json.loads(line)["error"]
    assert error["type"] == "ValidationError"
    named = error["message"].split(":")[0]
    assert named == field or named.startswith(field + "["), error["message"]


def test_oversized_recall_grid_exits_2_naming_z_step(tmp_path, capsys):
    # Kept out of MALFORMED: its id would repeat solve-recall:params.z_step.
    test_malformed_input_exits_2_naming_the_field(
        tmp_path, capsys, "solve-recall", "--config",
        {**RECALL, "z_min": -1.0, "z_step": 0.0001}, [], "params.z_step")


# --- file errors ------------------------------------------------------------

def _directory_config(tmp_path):
    return ["flavell", "--config", str(tmp_path)], "IsADirectoryError"


def _undecodable_config(tmp_path):
    bad = tmp_path / "latin1.json"
    bad.write_bytes('{"mode": "flavell", "seed": 1, "params": {"t\u00e9": 1}}'
                    .encode("latin-1"))
    return ["flavell", "--config", str(bad)], "ParseError"


def _directory_report(tmp_path):
    return ["report", str(tmp_path)], "IsADirectoryError"


def _non_record_report(tmp_path):
    trace = tmp_path / "trace.jsonl"
    trace.write_text("[1,2]\n")
    return ["report", str(trace)], "ParseError"


def _report_on(tmp_path, line, summary=None):
    trace = tmp_path / "trace.jsonl"
    trace.write_text(line + "\n")
    if summary is not None:
        (tmp_path / "trace.summary.json").write_bytes(summary)
    return ["report", str(trace)], "ParseError"


PLAN_RECORD = '{"run_id": "a", "module": "plan", "payload": {}}'


def _numeric_run_id_report(tmp_path):
    return _report_on(tmp_path, '{"run_id": 1, "module": "plan", "payload": {}}')


def _record_without_payload_report(tmp_path):
    return _report_on(tmp_path, '{"run_id": "a", "module": "recall_mdp"}')


def _list_payload_report(tmp_path):
    return _report_on(tmp_path, '{"run_id": "a", "module": "bandit", "payload": [1]}')


def _ragged_steps_report(tmp_path):
    lines = [json.dumps({"run_id": "a", "module": "recall_mdp",
                         "payload": {"drift": 1, "recalled": True, "steps": steps}})
             for steps in ([1], [1, 2])]
    return _report_on(tmp_path, "\n".join(lines))


def _empty_steps_report(tmp_path):
    return _report_on(tmp_path, json.dumps({"run_id": "a", "module": "recall_mdp",
                                            "payload": {"drift": 1, "recalled": True,
                                                        "steps": []}}))


def _non_finite_report(tmp_path):
    return _report_on(tmp_path, '{"run_id":"a","module":"bandit","payload":'
                                '{"true_voc_best":NaN,"true_voc_chosen":0,"gamma":Infinity}}')


def _overflowing_literal_report(tmp_path):
    return _report_on(tmp_path, '{"run_id":"a","module":"bandit","payload":'
                                '{"true_voc_best":1,"true_voc_chosen":0,"gamma":1e400}}')


def _huge_steps_report(tmp_path):
    record = json.dumps({"run_id": "a", "module": "recall_mdp",
                         "payload": {"drift": 1, "recalled": True, "steps": 1e308}})
    return _report_on(tmp_path, f"{record}\n{record}")


def _string_recalled_report(tmp_path):
    return _report_on(tmp_path, json.dumps({"run_id": "a", "module": "recall_mdp",
                                            "payload": {"drift": 1, "recalled": "false",
                                                        "steps": 3}}))


def _overflowing_integer_report(tmp_path):
    return _report_on(tmp_path, '{"run_id":"a","module":"acquire","payload":'
                                '{"cycle":0,"resources":1' + "0" * 400 + '}}')


def _non_finite_summary_report(tmp_path):
    return _report_on(tmp_path, PLAN_RECORD, b'{"status": "finished", "plan_value": Infinity}')


def _list_summary_report(tmp_path):
    return _report_on(tmp_path, PLAN_RECORD, b"[1]")


def _undecodable_summary_report(tmp_path):
    return _report_on(tmp_path, PLAN_RECORD, '{"status": "d\u00e9j\u00e0"}'.encode("latin-1"))


def _out_in_missing_directory(tmp_path):
    config = write_json(tmp_path / "run.json", flavell_doc(tmp_path))
    return (["flavell", "--config", config, "--out",
             str(tmp_path / "absent" / "x.jsonl")], "FileNotFoundError")


@pytest.mark.parametrize("case", [_directory_config, _undecodable_config,
                                  _directory_report, _non_record_report,
                                  _numeric_run_id_report, _record_without_payload_report,
                                  _list_payload_report, _ragged_steps_report,
                                  _empty_steps_report, _non_finite_report,
                                  _overflowing_literal_report, _huge_steps_report,
                                  _string_recalled_report, _overflowing_integer_report,
                                  _non_finite_summary_report, _list_summary_report,
                                  _undecodable_summary_report,
                                  _out_in_missing_directory],
                         ids=lambda case: case.__name__.lstrip("_"))
def test_file_errors_exit_2_with_one_json_line(tmp_path, capsys, case):
    argv, error_type = case(tmp_path)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    (line,) = err.splitlines()
    assert json.loads(line)["error"]["type"] == error_type


REPORT_ERRORS = [(_numeric_run_id_report, "trace.jsonl:1:"),
                 (_record_without_payload_report, "trace.jsonl:"),
                 (_list_payload_report, "trace.jsonl:"),
                 (_ragged_steps_report, "trace.jsonl:"),
                 (_empty_steps_report, "trace.jsonl:"),
                 (_non_finite_report, "trace.jsonl:1:"),
                 (_overflowing_literal_report, "trace.jsonl:1:"),
                 (_huge_steps_report, "trace.jsonl:"),
                 (_string_recalled_report, "trace.jsonl:"),
                 (_overflowing_integer_report, "trace.jsonl:1:"),
                 (_non_finite_summary_report, "trace.summary.json:"),
                 (_list_summary_report, "trace.summary.json:"),
                 (_undecodable_summary_report, "trace.summary.json:")]


@pytest.mark.parametrize("case,named", REPORT_ERRORS,
                         ids=[case.__name__.lstrip("_") for case, _ in REPORT_ERRORS])
def test_report_errors_name_the_file(tmp_path, capsys, case, named):
    argv, _ = case(tmp_path)
    _, _, err = run_cli(capsys, *argv)
    assert json.loads(err)["error"]["message"].startswith(str(tmp_path / named))


# --- numbers JSON cannot hold ------------------------------------------------

# Hand-written records of finite numbers whose report total overflows.
OVERFLOWING_TOTALS = [
    ("acquire", {"cycle": 0, "resources": 1e308}, "resources_spent"),
    ("bandit", {"true_voc_best": 1e308, "true_voc_chosen": -1e308, "gamma": 1.0},
     "cumulative_regret"),
]


@pytest.mark.parametrize("module,payload,total", OVERFLOWING_TOTALS,
                         ids=[case[0] for case in OVERFLOWING_TOTALS])
def test_report_of_an_overflowing_total_exits_2_and_writes_nothing(tmp_path, capsys,
                                                                   module, payload, total):
    record = json.dumps({"run_id": "a", "module": module, "payload": payload})
    argv, _ = _report_on(tmp_path, f"{record}\n{record}")
    report_path = tmp_path / "report.json"
    code, out, err = run_cli(capsys, *argv, "--out", str(report_path))
    assert code == 2 and out == ""
    (line,) = err.splitlines()
    error = json.loads(line)["error"]
    assert error["type"] == "ParseError"
    assert error["message"] == f"{tmp_path / 'trace.jsonl'}: {total} is inf, not a finite number"
    assert not report_path.exists()


# Valid documents whose runs overflow to infinity or NaN.
NON_FINITE_RUNS = [
    ("acquire", "--config",
     {**ACQUIRE, "total_resources_per_cycle": 1e308, "signal_floor": 1e-300}),
    ("plan", "--tree",
     {"parents": [None, 0, 1],
      "priors": [{"support": [0.0], "probs": [1.0]},
                 {"support": [1e308], "probs": [1.0]},
                 {"support": [1e308], "probs": [1.0]}],
      "expansion_cost": 0.0}),
    ("bandit", "--arms", {"episodes": 3, "utilities": [1e308, 1e308],
                          "times": [1e-300, 1e-300]}),
]


@pytest.mark.parametrize("with_out", [True, False], ids=["out", "no-out"])
@pytest.mark.parametrize("command,flag,params", NON_FINITE_RUNS,
                         ids=[c[0] for c in NON_FINITE_RUNS])
def test_non_finite_results_exit_2_and_write_nothing(tmp_path, capsys, command, flag,
                                                      params, with_out):
    path = write_json(tmp_path / "params.json", params)
    out = ["--out", str(tmp_path / "run.jsonl")] if with_out else []
    code, stdout, err = run_cli(capsys, command, flag, path, "--seed", "1", *out)
    assert code == 2 and stdout == ""
    (line,) = err.splitlines()
    error = json.loads(line)["error"]
    assert error["type"] == "NonFiniteOutput"
    assert error["message"].startswith(("summary.", "trace record "))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["params.json"]


# --- every run subcommand ---------------------------------------------------

RUN_SUBCOMMANDS = [("flavell", "--config", FLAVELL), ("acquire", "--config", ACQUIRE),
                   ("retrieve", "--config", RETRIEVE), ("bandit", "--arms", STATIONARY),
                   ("plan", "--tree", TREE), ("solve-recall", "--config", RECALL)]


@pytest.mark.parametrize("command,flag,params", RUN_SUBCOMMANDS,
                         ids=[c[0] for c in RUN_SUBCOMMANDS])
def test_run_subcommands_take_seed_repeat_and_out(tmp_path, capsys, command, flag,
                                                  params):
    path = write_json(tmp_path / "params.json", params)
    code, out, err = run_cli(capsys, command, flag, path, "--seed", "1",
                             "--repeat", "2", "--out", str(tmp_path / "run.jsonl"))
    assert code == 0 and err == ""
    lines = [json.loads(line) for line in out.splitlines()]
    assert [line["repeat_index"] for line in lines] == [0, 1]
    assert (tmp_path / "run.0.jsonl").exists() and (tmp_path / "run.1.jsonl").exists()


def test_emit_flags_belong_to_solve_recall_only(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["flavell", "--config", "x.json", "--emit-policy", "x"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: mgv") and "unrecognized arguments: --emit-policy" in err
