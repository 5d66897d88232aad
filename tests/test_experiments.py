from bridgefill.experiments import default_config, run_experiment, write_summary_json


def test_rog_summary_is_byte_identical_across_runs(tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        write_summary_json(run_experiment(default_config("rog", replicates=2)), path)
    assert paths[0].read_bytes() == paths[1].read_bytes()
