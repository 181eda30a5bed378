import numpy as np
import pytest

from pixelcgp.evolution import RunConfig
from pixelcgp.genome import MAX_N_INPUT, Genome, random_genome
from pixelcgp.persist import (FormatError, load_config, load_genome,
                              parse_config, parse_genome, save_genome,
                              serialize_config, serialize_genome)


def test_genome_round_trip_bit_exact():
    rng = np.random.default_rng(0)
    for _ in range(20):
        g = random_genome(3, 3, 40, 0.1, rng)
        back = parse_genome(serialize_genome(g))
        assert np.array_equal(g.genes, back.genes)
        assert (back.n_input, back.n_output, back.C, back.r) == (3, 3, 40, 0.1)


def test_genome_file_round_trip(tmp_path):
    g = random_genome(3, 18, 40, 0.1, np.random.default_rng(1))
    path = tmp_path / "g.cgp"
    save_genome(g, path)
    back = load_genome(path)
    assert np.array_equal(g.genes, back.genes)


def test_genome_format_errors():
    with pytest.raises(FormatError):
        parse_genome("not a genome\n")
    with pytest.raises(FormatError):
        parse_genome("CGP1 3 3 40 0.1\n0.5 0.5\n")     # wrong gene count
    with pytest.raises(FormatError):
        parse_genome("CGP2 1 1 0 0\n\n")               # bad magic
    with pytest.raises(FormatError):
        parse_genome("CGP1 1 1 1 0.0\n0.1 0.2 0.3 0.x 0.5\n")


def test_genome_n_input_bounded():
    genes = " ".join(["0.5"] * 5)
    at_limit = f"CGP1 {MAX_N_INPUT} 1 1 0.0\n{genes}\n"
    assert parse_genome(at_limit).n_input == MAX_N_INPUT
    with pytest.raises(FormatError, match="n_input"):
        parse_genome(f"CGP1 {MAX_N_INPUT + 1} 1 1 0.0\n{genes}\n")
    with pytest.raises(FormatError, match="n_input"):
        parse_genome("CGP1 10000000 1 0 0.5\n0.5\n")


def test_config_round_trip():
    cfg = RunConfig(env="catch", lam=5, c=17, seed=99, p_fskip=0.125)
    back = parse_config(serialize_config(cfg))
    assert back == cfg


def test_config_lambda_key():
    cfg = parse_config("lambda = 7\n")
    assert cfg.lam == 7
    with pytest.raises(FormatError):
        parse_config("lam = 7\n")  # only the spelled-out key is accepted


def test_config_comments_and_blanks():
    cfg = parse_config("# a comment\n\nseed = 4  # trailing\nc = 12\n")
    assert cfg.seed == 4 and cfg.c == 12


def test_config_unknown_key():
    with pytest.raises(FormatError, match="unknown key"):
        parse_config("mystery = 1\n")
    with pytest.raises(FormatError, match="unknown key"):
        parse_config("__class__ = 1\n")
    # a ROM directory goes at the end of the ale_server command
    with pytest.raises(FormatError, match="unknown key"):
        parse_config("rom_dir = /roms\n")


def test_config_bad_values():
    with pytest.raises(FormatError):
        parse_config("seed = soon\n")
    with pytest.raises(FormatError):
        parse_config("just a line\n")


def test_config_defaults():
    cfg = parse_config("")
    assert cfg == RunConfig()
    assert cfg.lam == 9 and cfg.n_eval == 10000 and cfg.p_fskip == 0.25


def test_load_config(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("env = catch\nseed = 3\n")
    assert load_config(path).seed == 3


def _genome_rejected_both_ways(text, match):
    """A bad genome fails in a genome file and when built directly."""
    with pytest.raises(FormatError, match=match):
        parse_genome(text)
    head, genes = text.splitlines()
    _, n_input, n_output, C, r = head.split()
    with pytest.raises(ValueError, match=match):
        Genome(np.array([float(t) for t in genes.split()]),
               int(n_input), int(n_output), int(C), float(r))


@pytest.mark.parametrize("gene", ["1", "1.5", "-0.25", "nan", "inf"])
def test_genome_gene_outside_unit_interval(gene):
    # a gene of 1.0 used to parse and then raise IndexError in decode
    _genome_rejected_both_ways(f"CGP1 1 1 1 0.0\n0.5 0.5 0.5 {gene} 0.5\n",
                               "outside \\[0, 1\\)")


@pytest.mark.parametrize("r", ["1.5", "-0.1", "nan"])
def test_genome_recurrency_outside_unit_interval(r):
    _genome_rejected_both_ways(f"CGP1 1 1 1 {r}\n0.5 0.5 0.5 0.5 0.5\n",
                               "recurrency")


@pytest.mark.parametrize("text", [
    # C = -1 leaves one gene, so the gene count alone let it through and
    # DOT export then failed with IndexError
    pytest.param("CGP1 0 5 -1 0.0\n0.0\n", id="no-inputs-negative-C"),
    pytest.param("CGP1 1 5 -1 0.0\n0.0\n", id="negative-C"),
    pytest.param("CGP1 0 1 1 0.0\n0.5 0.5 0.5 0.5 0.5\n", id="no-inputs"),
    pytest.param("CGP1 1 0 1 0.0\n0.5 0.5 0.5 0.5\n", id="no-outputs"),
])
def test_genome_shape_out_of_range(text):
    _genome_rejected_both_ways(text, "must be at least")


def test_genome_accepts_interval_ends():
    g = parse_genome("CGP1 1 1 1 1.0\n0 0.5 0.5 0.5 0.99999999999999989\n")
    assert g.r == 1.0 and g.genes[0] == 0.0


def _rejected_both_ways(line):
    """A bad value fails in a config file and in a directly built config."""
    key, value = line.split(" = ")
    with pytest.raises(FormatError, match=key):
        parse_config(line + "\n")
    field = "lam" if key == "lambda" else key
    kind = type(getattr(RunConfig(), field))
    with pytest.raises(ValueError, match=key):
        RunConfig(**{field: kind(value)})


def test_config_zero_lambda_rejected():
    # used to reach run_evolution and divide by zero
    _rejected_both_ways("lambda = 0")


def test_config_zero_episodes_rejected():
    # used to divide by zero when averaging episode totals
    _rejected_both_ways("episodes = 0")


@pytest.mark.parametrize("line", [
    "c = 0", "n_eval = 0", "lambda = -3",
    "m_nodes = 1.5", "m_nodes = -0.1", "m_output = 2", "m_output = nan",
    "r = 1.01", "r = 1.5", "r = -1",
    "p_fskip = 1", "p_fskip = -0.5", "p_fskip = nan",
    "seed = -1", "frame_cap = 0", "frame_cap = -5",
    # an unknown env name, and an ale:* env without ale_server
    "env = ctach", "env = ale:pong",
])
def test_config_out_of_range_rejected(line):
    _rejected_both_ways(line)


def test_config_accepts_range_ends():
    cfg = parse_config("lambda = 1\nepisodes = 1\nc = 1\nn_eval = 1\n"
                       "m_nodes = 0\nm_output = 1\nr = 1\np_fskip = 0\n")
    assert (cfg.lam, cfg.r, cfg.p_fskip) == (1, 1.0, 0.0)
