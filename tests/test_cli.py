import os
import resource
import shlex
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

import pixelcgp
from pixelcgp import cli, functions, persist
from pixelcgp.envs import Catch, register_env
from pixelcgp.evolution import eval_seed_for
from pixelcgp.genome import random_genome

from catch_tracker import build_tracker
from stub_ale_server import STUB, command

_SMALL_RUN = "c = 10\nn_eval = 4\nlambda = 2\n"
_ERR_SERVER = command("err")


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
    # every line is `generation g evals 1+lambda*g best f`, f printed by
    # str (so it round-trips) and never falling; the last f is the best
    # evolve prints
    fits = []
    for g, line in enumerate(log):
        head, f = line.rsplit(" ", 1)
        assert head == f"generation {g} evals {1 + 2 * g} best"
        assert repr(float(f)) == f
        fits.append(float(f))
    assert fits == sorted(fits)
    assert out.split()[1] == f
    best = persist.load_genome(tmp_path / "run" / "best.cgp")
    assert best.C == 10
    seed = int((tmp_path / "run" / "best.seed").read_text())
    assert seed >= 0


@pytest.mark.parametrize("protocol", [
    # replay used to play episode 0 only, whatever the episode count
    pytest.param("episodes = 1\n", id="1"),
    pytest.param("episodes = 3\n", id="3"),
    # every protocol key away from its default
    pytest.param("episodes = 2\np_fskip = 0.5\nframe_cap = 30\n",
                 id="fskip-cap"),
])
def test_evolve_then_replay_matches_logged_fitness(tmp_path, capsys,
                                                   protocol):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"c = 20\nn_eval = 18\nseed = 3\n{protocol}")
    assert cli.main(["evolve", "--config", str(cfg),
                     "--out", str(tmp_path / "run")]) == cli.EXIT_OK
    logged = float(capsys.readouterr().out.split()[1])
    seed = int((tmp_path / "run" / "best.seed").read_text())
    assert cli.main(["replay", str(tmp_path / "run" / "best.cgp"),
                     "--config", str(cfg), "--seed", str(seed)]) == cli.EXIT_OK
    total = float(capsys.readouterr().out.splitlines()[-1].split()[1])
    assert total == logged


def test_evolve_ale_env(tmp_path, capsys):
    # ale_server used to stop at the CLI, so every ale:* evolve exited 3
    server = command("ok")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"env = ale:pong\nale_server = {server}\nc = 10\n"
                   "n_eval = 4\nlambda = 2\nseed = 4\n")
    assert cli.main(["evolve", "--config", str(cfg),
                     "--out", str(tmp_path / "run")]) == cli.EXIT_OK
    assert capsys.readouterr().out.startswith("best ")
    log = (tmp_path / "run" / "log.txt").read_text().splitlines()
    assert len(log) == 3
    assert persist.load_genome(tmp_path / "run" / "best.cgp").n_output == 3


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
                     "--out", str(tmp_path)]) == cli.EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_bad_env_leaves_existing_run_alone(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(_SMALL_RUN)
    run = tmp_path / "run"
    assert cli.main(["evolve", "--config", str(cfg),
                     "--out", str(run)]) == cli.EXIT_OK
    before = {p.name: p.read_bytes() for p in run.iterdir()}
    assert before["log.txt"]
    # an env typo used to truncate the previous run's log.txt, and so did
    # a server command shlex cannot split, as exit 3, and a server that is
    # missing or rejects the handshake; a server command with an empty
    # program name failed as exit 3
    for bad_keys, flags, code in (
            ("", ["--env", "ctach"], cli.EXIT_CONFIG),
            ('env = ale:pong\nale_server = "x\n', [], cli.EXIT_CONFIG),
            ('env = ale:pong\nale_server = ""\n', [], cli.EXIT_CONFIG),
            ("env = ale:pong\nale_server = ''\n", [], cli.EXIT_CONFIG),
            ('env = ale:pong\nale_server = "" --x\n', [], cli.EXIT_CONFIG),
            ("env = ale:pong\nale_server = /no/such/server\n", [],
             cli.EXIT_ENV),
            (f"env = ale:pong\nale_server = {_ERR_SERVER}\n", [],
             cli.EXIT_ENV)):
        cfg.write_text(_SMALL_RUN + bad_keys)
        assert cli.main(["evolve", "--config", str(cfg), "--out", str(run),
                         *flags]) == code
        assert {p.name: p.read_bytes() for p in run.iterdir()} == before
    # the same run again replaces its log.txt, not appends to it
    cfg.write_text(_SMALL_RUN)
    assert cli.main(["evolve", "--config", str(cfg),
                     "--out", str(run)]) == cli.EXIT_OK
    assert {p.name: p.read_bytes() for p in run.iterdir()} == before


@pytest.mark.parametrize("file_keys, flags", [
    pytest.param("seed = -1\n", ["--seed", "3"], id="seed"),
    pytest.param("seed = 3\nenv = ctach\n", ["--env", "catch"], id="env"),
])
def test_overrides_replace_bad_file_values(tmp_path, capsys, file_keys,
                                           flags):
    # the file's values used to be checked before the overrides replaced
    # them, so both of these exited 2
    runs = {}
    for name, keys, extra in (("file", "seed = 3\n", []),
                              ("override", file_keys, flags)):
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(_SMALL_RUN + keys)
        assert cli.main(["evolve", "--config", str(cfg), "--out",
                         str(tmp_path / name), *extra]) == cli.EXIT_OK
        runs[name] = [(tmp_path / name / f).read_bytes()
                      for f in ("log.txt", "best.cgp", "best.seed")]
    assert runs["override"] == runs["file"]


def _replayed_best(run, cfg, capsys) -> tuple[str, str]:
    """The total a replay of run's best.cgp from best.seed prints, and the
    last best in run's log.txt, as `total <best>`."""
    seed = (run / "best.seed").read_text().strip()
    capsys.readouterr()
    assert cli.main(["replay", str(run / "best.cgp"), "--config", str(cfg),
                     "--seed", seed]) == cli.EXIT_OK
    total = capsys.readouterr().out.splitlines()[-1]
    best = (run / "log.txt").read_text().splitlines()[-1].split()[-1]
    return total, f"total {best}"


def test_failed_rerun_keeps_the_elite_it_logged(tmp_path, capsys):
    # a rerun whose emulator failed after generation 0 used to leave the
    # previous run's best.cgp and best.seed beside its own log.txt
    cfg, run = tmp_path / "run.cfg", tmp_path / "run"
    cfg.write_text(_SMALL_RUN + "seed = 1\n")
    assert cli.main(["evolve", "--config", str(cfg),
                     "--out", str(run)]) == cli.EXIT_OK
    # every reorder server after the first offers another action list
    state = tmp_path / "state"
    server = command("reorder", state)
    cfg.write_text(f"{_SMALL_RUN}env = ale:pong\nale_server = {server}\n")
    assert cli.main(["evolve", "--config", str(cfg),
                     "--out", str(run)]) == cli.EXIT_ENV
    assert len((run / "log.txt").read_text().splitlines()) == 1
    # the elite is generation 0's genome, scored from its one eval seed;
    # on this small game another elite's pair can replay to the same total
    assert (run / "best.seed").read_text() == f"{eval_seed_for(0, 0, 0)}\n"
    state.unlink()   # so that replay's one server is a first one
    total, logged = _replayed_best(run, cfg, capsys)
    assert total == logged


def test_stop_between_the_pair_writes_waits_for_both(tmp_path, capsys,
                                                     monkeypatch):
    # a stop that landed after best.cgp was replaced, and before best.seed
    # was, would leave one elite's genome beside another's seed
    cfg, run = tmp_path / "run.cfg", tmp_path / "run"
    cfg.write_text(_SMALL_RUN + "seed = 1\n")
    assert cli.main(["evolve", "--config", str(cfg),
                     "--out", str(run)]) == cli.EXIT_OK
    replace, replaced = os.replace, []

    def replace_then_stop(src, dst):
        replace(src, dst)
        replaced.append(dst)
        if len(replaced) == 1:
            signal.raise_signal(signal.SIGTERM)

    monkeypatch.setattr(os, "replace", replace_then_stop)
    # long enough to be still running when the stop is sent again
    cfg.write_text("c = 10\nlambda = 2\nn_eval = 10000\n")
    assert cli.main(["evolve", "--config", str(cfg),
                     "--out", str(run)]) == 128 + signal.SIGTERM
    assert replaced[:2] == [str(run / "best.cgp"), str(run / "best.seed")]
    assert sorted(p.name for p in run.iterdir()) == [
        "best.cgp", "best.seed", "log.txt"]
    total, logged = _replayed_best(run, cfg, capsys)
    assert total == logged


@pytest.mark.parametrize("name", ["best.cgp", "best.seed"])
def test_unwritable_elite_leaves_no_temp_file(tmp_path, capsys, name):
    # the temp file is written, and its rename over a directory fails
    cfg, run = tmp_path / "run.cfg", tmp_path / "run"
    cfg.write_text(_SMALL_RUN)
    (run / name).mkdir(parents=True)
    (run / name / "x").write_text("")
    assert cli.main(["evolve", "--config", str(cfg),
                     "--out", str(run)]) == cli.EXIT_CONFIG
    assert {p.name for p in run.iterdir()} <= {
        "best.cgp", "best.seed", "log.txt"}


def _cli_cmd(*argv):
    """A CLI subprocess command, and an environment in which its stdout is
    block-buffered, as it is for users."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(pixelcgp.__file__))
    return [sys.executable, "-m", "pixelcgp.cli", *map(str, argv)], env


def _replay_cmd(tmp_path, *flags):
    path = tmp_path / "tracker.cgp"
    persist.save_genome(build_tracker(), path)
    return _cli_cmd("replay", path, *flags)


def test_replay_into_closed_pipe_is_quiet(tmp_path):
    # `replay ... | head -1` used to report an environment error, exit 3
    cmd, env = _replay_cmd(tmp_path, "--trace")
    with subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE) as proc:
        try:
            # the trace outgrows the pipe buffer, so replay is still writing
            assert proc.stdout.readline().startswith(b"frame 0 ")
            proc.stdout.close()
            assert proc.wait(timeout=60) == cli.EXIT_PIPE
            assert proc.stderr.read() == b""
        finally:
            proc.kill()


def test_replay_into_pipe_closed_before_start(tmp_path):
    # the buffered output left behind must not fail again at exit
    cmd, env = _replay_cmd(tmp_path)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(cmd, env=env, stdout=write_end,
                              stderr=subprocess.PIPE, timeout=60)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (cli.EXIT_PIPE, b"")


def test_replay_tracker(tmp_path, capsys):
    path = tmp_path / "tracker.cgp"
    persist.save_genome(build_tracker(), path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("p_fskip = 0\nseed = 0\n")
    assert cli.main(["replay", str(path), "--config", str(cfg)]) == cli.EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("frame 0 action ")
    assert lines[-1] == "total 10.0"


def test_replay_marks_each_episode(tmp_path, capsys):
    path = tmp_path / "tracker.cgp"
    persist.save_genome(build_tracker(), path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("p_fskip = 0\nepisodes = 3\nframe_cap = 5\n")
    assert cli.main(["replay", str(path), "--config", str(cfg)]) == cli.EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    marks = [k for k, line in enumerate(lines) if line.startswith("episode ")]
    assert [lines[k] for k in marks] == ["episode 0", "episode 1", "episode 2"]
    assert all(lines[k + 1].startswith("frame 0 ") for k in marks)
    assert marks == [0, 6, 12] and len(lines) == 19   # 3 x (1 + 5) + total


def test_replay_trace_lists_active_nodes(tmp_path, capsys):
    path = tmp_path / "tracker.cgp"
    persist.save_genome(build_tracker(), path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("p_fskip = 0\n")
    assert cli.main(["replay", str(path), "--config", str(cfg),
                     "--trace"]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "node " in out and " SUM " in out


class _ClosingCatch(Catch):
    closed = 0

    def close(self):
        type(self).closed += 1


def test_replay_closes_its_env(tmp_path, capsys):
    path = tmp_path / "tracker.cgp"
    persist.save_genome(build_tracker(), path)
    register_env("closing-catch", _ClosingCatch)
    assert cli.main(["replay", str(path), "--env", "closing-catch"]) \
        == cli.EXIT_OK
    assert _ClosingCatch.closed == 1


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


_SHORT_SERVER = command("short")
_NAN_SERVER = command("nanreward")
_HUGE_N_INPUT = "CGP1 10000000 1 0 0.5\n0.5\n"
_EVOLVE_SMALL = ["evolve", "--config", "{tmp}/run.cfg", "--out", "{tmp}/run"]
_ERROR_PREFIX = {cli.EXIT_PIPE: "output error: ",
                 cli.EXIT_CONFIG: "config error: ",
                 cli.EXIT_ENV: "environment error: ",
                 cli.EXIT_GENOME: "genome error: "}


@pytest.mark.parametrize("argv, files, code", [
    # a genome that does not read the three observation planes
    pytest.param(
        ["replay", "{tmp}/g.cgp"],
        {"g.cgp": "CGP1 2 3 1 0.1\n0.5 0.5 0.5 0.5 0.5 0.5 0.5\n"},
        cli.EXIT_GENOME, id="replay-two-inputs"),
    pytest.param(
        ["export-dot", "{tmp}/g.cgp"], {"g.cgp": "CGP1 0 5 -1 0.0\n0.0\n"},
        cli.EXIT_GENOME, id="export-dot-negative-C"),
    # the emulator sends a truncated first frame and exits
    pytest.param(
        ["replay", "{tmp}/g.cgp", "--config", "{tmp}/run.cfg"],
        {"g.cgp": "CGP1 3 3 0 0.1\n0.5 0.5 0.5\n",
         "run.cfg": f"env = ale:pong\nale_server = {_SHORT_SERVER}\n"},
        cli.EXIT_ENV, id="replay-short-frame"),
    # the emulator replies with a NaN reward, which used to total nan
    pytest.param(
        ["replay", "{tmp}/g.cgp", "--config", "{tmp}/run.cfg"],
        {"g.cgp": "CGP1 3 3 0 0.1\n0.5 0.5 0.5\n",
         "run.cfg": f"env = ale:pong\nale_server = {_NAN_SERVER}\n"},
        cli.EXIT_ENV, id="replay-nan-reward"),
    pytest.param(
        ["replay", "{tmp}/g.cgp", "--seed", "-1"],
        {"g.cgp": "CGP1 3 3 0 0.1\n0.5 0.5 0.5\n"},
        cli.EXIT_CONFIG, id="replay-negative-seed"),
    pytest.param(
        ["evolve", "--seed", "-1", "--out", "{tmp}/run"], {},
        cli.EXIT_CONFIG, id="evolve-negative-seed"),
    pytest.param(
        ["evolve", "--env", "ctach", "--out", "{tmp}/run"], {},
        cli.EXIT_CONFIG, id="evolve-unknown-env"),
    pytest.param(
        ["evolve", "--env", "ale:pong", "--out", "{tmp}/run"], {},
        cli.EXIT_CONFIG, id="evolve-ale-without-server"),
    pytest.param(
        ["evolve", "--config", "{tmp}/run.cfg", "--out", "{tmp}/run"],
        {"run.cfg": 'env = ale:pong\nale_server = "x\n'},
        cli.EXIT_CONFIG, id="evolve-unsplittable-ale-server"),
    # the ROM is the one token of the bridge's INIT line: a newline in it
    # sent a second request and shifted every reply, a space or an empty
    # name sent a line without one token, and a non-ASCII name failed as a
    # closed pipe
    pytest.param(
        [*_EVOLVE_SMALL, "--env", "ale:pong\nACT 3"],
        {"run.cfg": f"ale_server = {_ERR_SERVER}\n"},
        cli.EXIT_CONFIG, id="evolve-rom-newline"),
    pytest.param(
        [*_EVOLVE_SMALL, "--env", "ale:space invaders"],
        {"run.cfg": f"ale_server = {_ERR_SERVER}\n"},
        cli.EXIT_CONFIG, id="evolve-rom-space"),
    pytest.param(
        [*_EVOLVE_SMALL, "--env", "ale:"],
        {"run.cfg": f"ale_server = {_ERR_SERVER}\n"},
        cli.EXIT_CONFIG, id="evolve-rom-empty"),
    pytest.param(
        [*_EVOLVE_SMALL, "--env", "ale:pöng"],
        {"run.cfg": f"ale_server = {_ERR_SERVER}\n"},
        cli.EXIT_CONFIG, id="evolve-rom-not-ascii"),
    pytest.param(
        [*_EVOLVE_SMALL, "--env", "ale:po\x7fng"],
        {"run.cfg": f"ale_server = {_ERR_SERVER}\n"},
        cli.EXIT_CONFIG, id="evolve-rom-not-printable"),
    # a NUL byte in out_dir ended in a traceback, and one in ale_server
    # failed as an environment error
    pytest.param(
        ["evolve", "--config", "{tmp}/run.cfg"],
        {"run.cfg": "out_dir = a\0b\n"},
        cli.EXIT_CONFIG, id="evolve-out-dir-nul"),
    pytest.param(
        _EVOLVE_SMALL,
        {"run.cfg": f"env = ale:pong\nale_server = {_ERR_SERVER}\0\n"},
        cli.EXIT_CONFIG, id="evolve-ale-server-nul"),
    # an empty override is a value like any other, not a missing one
    pytest.param(
        ["evolve", "--env", "", "--out", "{tmp}/run"], {},
        cli.EXIT_CONFIG, id="evolve-empty-env"),
    pytest.param(
        ["evolve", "--out", ""], {}, cli.EXIT_CONFIG, id="evolve-empty-out"),
    pytest.param(
        ["evolve", "--config", "", "--out", "{tmp}/run"], {},
        cli.EXIT_CONFIG, id="evolve-empty-config"),
    pytest.param(
        ["replay", "{tmp}/g.cgp", "--config", ""],
        {"g.cgp": "CGP1 3 3 0 0.1\n0.5 0.5 0.5\n"},
        cli.EXIT_CONFIG, id="replay-empty-config"),
    pytest.param(
        ["evolve", "--config", "{tmp}/run.cfg", "--out", "{tmp}/run"],
        {"run.cfg": "seed = 1\nseed = 2\n"},
        cli.EXIT_CONFIG, id="evolve-repeated-key"),
    # an overridden file value must still parse
    pytest.param(
        ["evolve", "--config", "{tmp}/run.cfg", "--seed", "3", "--out",
         "{tmp}/run"], {"run.cfg": "seed = soon\n"},
        cli.EXIT_CONFIG, id="evolve-overridden-seed-unparsable"),
    # a generation too large to hold: c = 10**12 ended in numpy's
    # MemoryError traceback, exit 1, after log.txt was opened, and lambda =
    # 10**12 played generation 0 and then built offspring until memory ran
    # out
    pytest.param(
        _EVOLVE_SMALL, {"run.cfg": "c = 1000000000000\n"},
        cli.EXIT_CONFIG, id="evolve-huge-c"),
    pytest.param(
        _EVOLVE_SMALL, {"run.cfg": "lambda = 1000000000000\n"},
        cli.EXIT_CONFIG, id="evolve-huge-lambda"),
    # a 26-byte file whose header asks for ten million input nodes
    pytest.param(
        ["export-dot", "{tmp}/g.cgp"], {"g.cgp": _HUGE_N_INPUT},
        cli.EXIT_GENOME, id="export-dot-huge-n-input"),
    pytest.param(
        ["replay", "{tmp}/g.cgp"], {"g.cgp": _HUGE_N_INPUT},
        cli.EXIT_GENOME, id="replay-huge-n-input"),
    pytest.param(
        ["replay", "{tmp}/g.cgp"], {"g.cgp": b"CGP1 3 3 0 0.1\n\xff\xfe\n"},
        cli.EXIT_GENOME, id="replay-not-utf8"),
    pytest.param(
        ["export-dot", "{tmp}/g.cgp"], {"g.cgp": b"\x80CGP1\n"},
        cli.EXIT_GENOME, id="export-dot-not-utf8"),
    # out_dir names a file, or a path under one
    pytest.param(
        _EVOLVE_SMALL, {"run.cfg": _SMALL_RUN, "run": ""},
        cli.EXIT_CONFIG, id="evolve-out-is-file"),
    pytest.param(
        ["evolve", "--out", "{tmp}/f/run"], {"f": ""},
        cli.EXIT_CONFIG, id="evolve-out-under-file"),
    # an output file of the run cannot be opened for writing
    pytest.param(
        _EVOLVE_SMALL, {"run.cfg": _SMALL_RUN, "run/log.txt/x": ""},
        cli.EXIT_CONFIG, id="evolve-log-unwritable"),
    pytest.param(
        _EVOLVE_SMALL, {"run.cfg": _SMALL_RUN, "run/best.cgp/x": ""},
        cli.EXIT_CONFIG, id="evolve-best-cgp-unwritable"),
    pytest.param(
        _EVOLVE_SMALL, {"run.cfg": _SMALL_RUN, "run/best.seed/x": ""},
        cli.EXIT_CONFIG, id="evolve-best-seed-unwritable"),
])
def test_bad_input_exits_with_one_line(tmp_path, capsys, argv, files, code):
    # each of these used to end in a traceback or in the wrong exit code
    for name, content in files.items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(content if isinstance(content, bytes)
                         else content.encode())
    assert cli.main([a.format(tmp=tmp_path) for a in argv]) == code
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(_ERROR_PREFIX[code])


class _LogCountingCatch(Catch):
    """Catch that records, at each reset, the lines log.txt holds on disk."""
    log = None
    seen = None

    def reset(self, seed):
        with open(self.log, "rb") as fh:
            self.seen.append(fh.read().count(b"\n"))
        return super().reset(seed)


def test_log_reaches_disk_line_by_line(tmp_path, capsys):
    # log.txt used to be block-buffered: nothing reached the disk for the
    # first few hundred generations, and a killed run lost its tail
    register_env("log-counting-catch", _LogCountingCatch)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("env = log-counting-catch\nc = 5\nlambda = 2\n"
                   "n_eval = 8\n")
    run = tmp_path / "run"
    run.mkdir()
    (run / "log.txt").write_text("")
    _LogCountingCatch.log, _LogCountingCatch.seen = run / "log.txt", []
    assert cli.main(["evolve", "--config", str(cfg),
                     "--out", str(run)]) == cli.EXIT_OK
    assert _LogCountingCatch.seen == [0, 1, 1, 2, 2, 3, 3, 4, 4]


def _assert_one_line(stderr: bytes, code: int) -> None:
    err = stderr.decode().splitlines()
    assert len(err) == 1 and err[0].startswith(_ERROR_PREFIX[code])


_NO_DEV_FULL = pytest.mark.skipif(not os.path.exists("/dev/full"),
                                  reason="needs /dev/full")


@_NO_DEV_FULL
def test_log_on_full_device_is_config_error(tmp_path, capsys):
    # this used to report an environment error, exit 3
    cfg = tmp_path / "run.cfg"
    cfg.write_text(_SMALL_RUN)
    run = tmp_path / "run"
    run.mkdir()
    (run / "log.txt").symlink_to("/dev/full")
    assert cli.main(["evolve", "--config", str(cfg),
                     "--out", str(run)]) == cli.EXIT_CONFIG
    _assert_one_line(capsys.readouterr().err.encode(), cli.EXIT_CONFIG)


def test_log_over_file_size_limit_is_config_error(tmp_path):
    # a log.txt write that fails with EFBIG used to surface only when the
    # file was closed, as a traceback with exit 1 (Python ignores SIGXFSZ,
    # so the process is not killed)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(_SMALL_RUN)
    cmd, env = _cli_cmd("evolve", "--config", cfg, "--out", tmp_path / "run")
    done = subprocess.run(
        cmd, env=env, capture_output=True, timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_FSIZE, (0, 0)))
    assert done.returncode == cli.EXIT_CONFIG
    _assert_one_line(done.stderr, cli.EXIT_CONFIG)


@_NO_DEV_FULL
@pytest.mark.parametrize("command", ["evolve", "replay", "export-dot"])
def test_stdout_on_full_device_is_output_error(tmp_path, command):
    # replay used to report an environment error, exit 3, and evolve and
    # export-dot ended in a traceback
    path = tmp_path / "tracker.cgp"
    persist.save_genome(build_tracker(), path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(_SMALL_RUN)
    argv = {"evolve": ["evolve", "--config", cfg, "--out", tmp_path / "run"],
            "replay": ["replay", path, "--trace"],
            "export-dot": ["export-dot", path]}[command]
    cmd, env = _cli_cmd(*argv)
    with open("/dev/full", "w") as full:
        done = subprocess.run(cmd, env=env, stdout=full,
                              stderr=subprocess.PIPE, timeout=60)
    assert done.returncode == cli.EXIT_PIPE
    _assert_one_line(done.stderr, cli.EXIT_PIPE)
    if command == "evolve":   # the run's files are written before stdout
        assert sorted(p.name for p in (tmp_path / "run").iterdir()) == [
            "best.cgp", "best.seed", "log.txt"]


@_NO_DEV_FULL
def test_stderr_on_full_device_keeps_exit_code(tmp_path):
    # the failed print of the one line used to end in a traceback, exit 1
    cmd, env = _cli_cmd("evolve", "--env", "nosuch", "--out", tmp_path)
    with open("/dev/full", "w") as full:
        done = subprocess.run(cmd, env=env, stderr=full, timeout=60)
    assert done.returncode == cli.EXIT_CONFIG


@pytest.mark.parametrize("command", ["evolve", "replay"])
def test_defect_during_play_is_a_traceback(tmp_path, capsys, monkeypatch,
                                           command):
    # an interpreter bug used to read `environment error: ...`, exit 3
    def broken_apply(*args):
        raise IndexError("list index out of range")

    monkeypatch.setattr(functions, "apply", broken_apply)
    path = tmp_path / "tracker.cgp"
    persist.save_genome(build_tracker(), path)
    argv = {"evolve": ["evolve", "--out", str(tmp_path / "run")],
            "replay": ["replay", str(path)]}[command]
    with pytest.raises(IndexError):
        cli.main(argv)
    assert capsys.readouterr().err == ""


_LINGER_SERVER = command("linger")


def _servers_marked(marker: str) -> list[int]:
    """The stub servers running whose command line holds marker."""
    pids = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as fh:
                argv = fh.read().decode(errors="replace").split("\0")
        except OSError:   # the process has gone
            continue
        if STUB in argv and marker in argv:
            pids.append(int(pid))
    return pids


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
@pytest.mark.parametrize("env_keys", [
    pytest.param("", id="catch"),
    # linger keeps a server that is not closed alive for a minute
    pytest.param(f"env = ale:pong\nale_server = {_LINGER_SERVER} {{marker}}\n",
                 id="linger"),
])
@pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM],
                         ids=["SIGINT", "SIGTERM"])
def test_signal_stops_with_one_line(tmp_path, capsys, env_keys, signum):
    # SIGINT used to die by the signal with a traceback, SIGTERM with no
    # line at all; and a stopped run used to leave no best.cgp or best.seed
    cfg = tmp_path / "run.cfg"
    cfg.write_text(env_keys.format(marker=shlex.quote(str(tmp_path))))
    log = tmp_path / "run" / "log.txt"
    cmd, env = _cli_cmd("evolve", "--config", cfg, "--out", tmp_path / "run")
    with subprocess.Popen(cmd, env=env, stderr=subprocess.PIPE) as proc:
        try:
            deadline = time.monotonic() + 60
            while not (log.exists() and log.read_text().count("\n") >= 2):
                assert time.monotonic() < deadline and proc.poll() is None
                time.sleep(0.02)
            proc.send_signal(signum)
            _, err = proc.communicate(timeout=60)
        finally:
            proc.kill()
    assert proc.returncode == 128 + signum
    assert err.decode().splitlines() == [
        f"stopped by {signal.Signals(signum).name}"]
    assert _servers_marked(str(tmp_path)) == []
    total, logged = _replayed_best(tmp_path / "run", cfg, capsys)
    assert total == logged
    assert _servers_marked(str(tmp_path)) == []


def test_stop_inside_subprocess_is_sent_again(monkeypatch,
                                              previous_handlers):
    # raised there, a stop orphaned a server being started, or vanished in
    # the Popen finalizer that ran when a session was dropped; raised in
    # persist, it could leave the run's files from different elites
    sent = []
    monkeypatch.setattr(signal, "pthread_kill",
                        lambda ident, signum: sent.append(signum))
    monkeypatch.setattr(cli, "_resend", None)   # which main would wait for
    # long enough that the first re-send is still pending at the second stop
    monkeypatch.setattr(cli, "_STOP_RETRY_S", 0.2)
    timers = []
    for module, signum in ((subprocess, signal.SIGTERM),
                           (persist, signal.SIGINT)):
        frame = eval("__import__('sys')._getframe()", vars(module))
        assert cli._stop(signum, frame) is None
        timers.append(cli._resend)
    # one re-send is pending at a time: the last stop held replaces it
    first, last = timers
    assert first is not last and first.finished.is_set()
    for timer in timers:
        timer.join(timeout=10)
        assert not timer.is_alive()
    assert sent == [signal.SIGINT]
    with pytest.raises(cli.Failure) as stop:
        cli._stop(signal.SIGTERM, sys._getframe())
    assert stop.value.args == (143, "stopped by SIGTERM")
    # the command stops once: later stops are dropped while it unwinds
    assert {signal.getsignal(sig) for sig in (signal.SIGINT, signal.SIGTERM)
            } == {signal.SIG_IGN}


@pytest.fixture
def previous_handlers():
    """The signals that reach the SIGINT and SIGTERM handlers in place when
    the test calls main, which main must restore."""
    got = []
    old = {sig: signal.signal(sig, lambda signum, frame: got.append(signum))
           for sig in (signal.SIGINT, signal.SIGTERM)}
    yield got
    for sig, handler in old.items():
        signal.signal(sig, handler)


def _assert_held_stop_reported(code, capsys, previous, signum):
    time.sleep(0.2)   # far longer than a held stop takes to be sent again
    assert previous == []
    assert code == 128 + signum
    assert capsys.readouterr().err.splitlines() == [
        f"stopped by {signal.Signals(signum).name}"]


def test_stop_held_in_the_last_record_is_reported(tmp_path, capsys,
                                                  monkeypatch,
                                                  previous_handlers):
    # a stop held in the last generation's pair write was sent again after
    # main had returned 0 and restored the previous handlers
    cfg = tmp_path / "run.cfg"
    cfg.write_text("c = 10\nlambda = 2\nn_eval = 2\nseed = 1\n")
    replace, replaced = os.replace, []

    def replace_then_stop(src, dst):
        replace(src, dst)
        replaced.append(os.path.basename(dst))
        if len(replaced) == 3:   # generation 1's best.cgp
            signal.raise_signal(signal.SIGINT)

    monkeypatch.setattr(os, "replace", replace_then_stop)
    code = cli.main(["evolve", "--config", str(cfg),
                     "--out", str(tmp_path / "run")])
    assert replaced == ["best.cgp", "best.seed"] * 2
    _assert_held_stop_reported(code, capsys, previous_handlers,
                               signal.SIGINT)


def test_stop_held_in_the_last_server_close_is_reported(tmp_path, capsys,
                                                        monkeypatch,
                                                        previous_handlers):
    # a stop held while Popen.wait reaped the run's last server was sent
    # again after main had returned 0 and restored the previous handlers
    server = command("ok")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"env = ale:pong\nale_server = {server}\nc = 10\n"
                   "lambda = 2\nn_eval = 2\n")
    waitpid, reaped = os.waitpid, []

    def waitpid_then_stop(pid, options):
        done = waitpid(pid, options)
        if done[0] == pid:
            reaped.append(pid)
            if len(reaped) == 3:   # one server per evaluation
                signal.raise_signal(signal.SIGTERM)
        return done

    monkeypatch.setattr(os, "waitpid", waitpid_then_stop)
    code = cli.main(["evolve", "--config", str(cfg),
                     "--out", str(tmp_path / "run")])
    assert len(reaped) == 3
    _assert_held_stop_reported(code, capsys, previous_handlers,
                               signal.SIGTERM)


def test_two_stops_held_at_the_end_send_one(tmp_path, capsys, monkeypatch,
                                            previous_handlers):
    # each held stop started a re-send of its own: main joined the first,
    # which raised, and the second reached the previous handler after main
    cfg = tmp_path / "run.cfg"
    cfg.write_text("c = 10\nlambda = 2\nn_eval = 2\nseed = 1\n")
    replace, replaced = os.replace, []

    def replace_then_stop(src, dst):
        replace(src, dst)
        replaced.append(os.path.basename(dst))
        if len(replaced) == 4:   # generation 1's best.seed
            time.sleep(0.005)
        if len(replaced) >= 3:   # and its best.cgp
            signal.raise_signal(signal.SIGINT)

    monkeypatch.setattr(os, "replace", replace_then_stop)
    code = cli.main(["evolve", "--config", str(cfg),
                     "--out", str(tmp_path / "run")])
    assert replaced == ["best.cgp", "best.seed"] * 2
    _assert_held_stop_reported(code, capsys, previous_handlers,
                               signal.SIGINT)


def test_stop_while_a_stop_unwinds_is_ignored(tmp_path, capsys, monkeypatch,
                                              previous_handlers):
    # a second Ctrl-C while main printed the first one's line left main as
    # an uncaught Failure: a traceback and exit 1 from the installed command
    path = tmp_path / "g.cgp"
    persist.save_genome(build_tracker(), path)
    monkeypatch.setattr(cli, "export_dot",
                        lambda genome: signal.raise_signal(signal.SIGINT))
    err = sys.stderr

    class StopAgainOnWrite:
        def write(self, text):
            if text.startswith("stopped by"):
                signal.raise_signal(signal.SIGINT)
            return err.write(text)

        def __getattr__(self, name):
            return getattr(err, name)

    monkeypatch.setattr(sys, "stderr", StopAgainOnWrite())
    code = cli.main(["export-dot", str(path)])
    _assert_held_stop_reported(code, capsys, previous_handlers,
                               signal.SIGINT)
