import numpy as np

from pixelcgp import cli, persist
from pixelcgp.genome import random_genome

from catch_tracker import build_tracker


def test_evolve_writes_outputs(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("env = catch\nc = 10\nn_eval = 4\nlambda = 2\nseed = 1\n")
    code = cli.main(["evolve", "--config", str(cfg),
                     "--out", str(tmp_path / "run")])
    assert code == cli.EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("best ")
    log = (tmp_path / "run" / "log.txt").read_text().splitlines()
    assert log[0].startswith("generation 0 evals 1 best ")
    assert len(log) == 3  # init + 2 generations
    best = persist.load_genome(tmp_path / "run" / "best.cgp")
    assert best.C == 10
    seed = int((tmp_path / "run" / "best.seed").read_text())
    assert seed >= 0


def test_evolve_then_replay_matches_logged_fitness(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("c = 20\nn_eval = 18\nseed = 3\n")
    assert cli.main(["evolve", "--config", str(cfg),
                     "--out", str(tmp_path / "run")]) == cli.EXIT_OK
    logged = float(capsys.readouterr().out.split()[1])
    seed = int((tmp_path / "run" / "best.seed").read_text())
    assert cli.main(["replay", str(tmp_path / "run" / "best.cgp"),
                     "--config", str(cfg), "--seed", str(seed)]) == cli.EXIT_OK
    total = float(capsys.readouterr().out.splitlines()[-1].split()[1])
    assert total == logged


def test_evolve_bad_config(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mystery = 1\n")
    assert cli.main(["evolve", "--config", str(cfg)]) == cli.EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_evolve_zero_lambda_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("lambda = 0\n")
    assert cli.main(["evolve", "--config", str(cfg),
                     "--out", str(tmp_path / "run")]) == cli.EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_evolve_bad_env(tmp_path, capsys):
    assert cli.main(["evolve", "--env", "nosuch",
                     "--out", str(tmp_path)]) == cli.EXIT_ENV
    assert "environment error" in capsys.readouterr().err


def test_replay_tracker(tmp_path, capsys):
    path = tmp_path / "tracker.cgp"
    persist.save_genome(build_tracker(), path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("p_fskip = 0\nseed = 0\n")
    assert cli.main(["replay", str(path), "--config", str(cfg)]) == cli.EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("frame 0 action ")
    assert lines[-1] == "total 10.0"


def test_replay_trace_lists_active_nodes(tmp_path, capsys):
    path = tmp_path / "tracker.cgp"
    persist.save_genome(build_tracker(), path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("p_fskip = 0\n")
    assert cli.main(["replay", str(path), "--config", str(cfg),
                     "--trace"]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "node " in out and " SUM " in out


def test_replay_missing_genome(tmp_path, capsys):
    assert cli.main(["replay", str(tmp_path / "no.cgp")]) == cli.EXIT_GENOME
    assert "genome error" in capsys.readouterr().err


def test_replay_gene_of_one_is_genome_error(tmp_path, capsys):
    path = tmp_path / "g.cgp"
    genome = random_genome(3, 3, 10, 0.1, np.random.default_rng(0))
    genome.genes[5] = 1.0
    persist.save_genome(genome, path)
    assert cli.main(["replay", str(path)]) == cli.EXIT_GENOME
    assert "outside [0, 1)" in capsys.readouterr().err


def test_replay_action_count_mismatch(tmp_path, capsys):
    path = tmp_path / "g.cgp"
    persist.save_genome(random_genome(3, 5, 10, 0.1,
                                      np.random.default_rng(0)), path)
    assert cli.main(["replay", str(path)]) == cli.EXIT_GENOME
    assert "outputs" in capsys.readouterr().err


def test_export_dot(tmp_path, capsys):
    path = tmp_path / "tracker.cgp"
    persist.save_genome(build_tracker(), path)
    assert cli.main(["export-dot", str(path)]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("digraph cgp {")


def test_export_dot_bad_file(tmp_path, capsys):
    bad = tmp_path / "bad.cgp"
    bad.write_text("nonsense\n")
    assert cli.main(["export-dot", str(bad)]) == cli.EXIT_GENOME
