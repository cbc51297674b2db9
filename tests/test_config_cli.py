import argparse
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from chirpkey import (
    ExperimentConfig,
    ParameterError,
    PreambleNotFoundError,
    channel,
    cli,
    load_config,
)
from chirpkey.channel import ChannelModel, exponential_profile
from chirpkey.cli import FLAG_KEYS, build_parser, main
from chirpkey.config import KEYS, MIN_SNR_DB, with_sweep_value
from chirpkey.pipeline import (
    export_probe_captures,
    observe,
    run_pipeline_once,
    run_trials,
    simulate_probe_frames,
)
from chirpkey.pipeline_seeds import derive_trial_seeds

ROOT = Path(__file__).resolve().parents[1]

# the sweep CSV header, byte for byte
CSV_HEADER = (
    "sweep_axis,sweep_value,shuffle,skdr_mean,skdr_std,skgr_mean,"
    "l0_mean,l1_mean,eve_skdr_mean,cascade_converged_frac,leak_mean,trials,seed"
)


def test_defaults_match_reference_deployment():
    cfg = ExperimentConfig()
    assert cfg.lora.sf == 7
    assert cfg.lora.bw == 250e3
    assert cfg.lora.fs == 1e6
    assert cfg.lora.preamble_len == 8
    assert cfg.quantizer.alpha == 0.5
    assert cfg.quantizer.block_size == 64
    assert cfg.quantizer.shuffle_enabled
    assert cfg.bin_policy == "all-bins"
    assert cfg.channel.num_taps == 4


def test_empty_config_file_runs_defaults(tmp_path):
    path = tmp_path / "empty.cfg"
    path.write_text("")
    cfg = load_config(path)
    base = ExperimentConfig()
    assert cfg.lora == base.lora
    assert cfg.quantizer == base.quantizer
    assert cfg.cascade == base.cascade
    assert cfg.channel.num_taps == base.channel.num_taps
    assert cfg.channel.snr_db == base.channel.snr_db
    assert cfg.channel.decay_db == base.channel.decay_db
    assert (cfg.trials, cfg.master_seed, cfg.mode) == (base.trials, base.master_seed, base.mode)


def test_configs_compare_and_hash(tmp_path):
    # every config field holds a plain value, so configs compare and hash
    assert ExperimentConfig() == ExperimentConfig()
    assert hash(ExperimentConfig()) == hash(ExperimentConfig())
    path = tmp_path / "decay.cfg"
    path.write_text("[channel]\ndecay_db = 3\n")
    assert load_config(path) == ExperimentConfig()


def test_config_file_sections(tmp_path):
    path = tmp_path / "custom.cfg"
    path.write_text(
        """
[lora]
sf = 8
bw = 125000
fs = 500000

[channel]
num_taps = 6
decay_db = 2.0
reciprocity_rho = 0.9
snr_db = 25

[quantizer]
alpha = 0.7
block_size = 32
shuffle = off

[cascade]
num_passes = 6
qber_estimate = 0.08

[experiment]
trials = 7
master_seed = 99
bin_policy = occupied-band
sweep_axis = alpha
sweep_values = 0.1, 0.5, 0.9
"""
    )
    cfg = load_config(path)
    assert cfg.lora.sf == 8 and cfg.lora.bw == 125000
    assert cfg.channel.num_taps == 6
    assert cfg.channel.reciprocity_rho == 0.9
    assert cfg.channel.decay_db == 2.0
    assert not cfg.quantizer.shuffle_enabled
    assert cfg.cascade.num_passes == 6
    assert cfg.cascade.qber_estimate == 0.08
    assert cfg.trials == 7 and cfg.master_seed == 99
    assert cfg.bin_policy == "occupied-band"
    assert cfg.sweep_axis == "alpha" and cfg.sweep_values == (0.1, 0.5, 0.9)


def test_cli_simulate_smoke(capsys):
    code = main(["simulate", "--trials", "3", "--master-seed", "5"])
    assert code == 0
    out = capsys.readouterr().out
    header, row = out.strip().split("\n")
    assert header == CSV_HEADER
    assert row.split(",")[0] == "none"


def test_cli_sweep_deterministic(tmp_path):
    args = [
        "sweep", "--trials", "2", "--master-seed", "3",
        "--sweep-axis", "alpha", "--sweep-values", "0.3,0.7",
    ]
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().strip().split("\n")
    assert lines[0] == CSV_HEADER and len(lines) == 5


def test_cli_num_taps_sweep_writes_a_row_per_value_and_arm(tmp_path):
    out = tmp_path / "taps.csv"
    assert main(["sweep", "--trials", "2", "--sweep-axis", "num_taps",
                 "--sweep-values", "1,2", "--out", str(out)]) == 0
    header, *rows = out.read_text().strip().split("\n")
    assert header == CSV_HEADER
    assert [tuple(row.split(",")[:3]) for row in rows] == [
        ("num_taps", "1", "on"), ("num_taps", "1", "off"),
        ("num_taps", "2", "on"), ("num_taps", "2", "off")]


def test_cli_captures_roundtrip(tmp_path, capsys):
    paths = export_probe_captures(ExperimentConfig(), 0, tmp_path)
    code = main([
        "captures", "--a2g", paths["a2g"], "--g2a", paths["g2a"],
        "--eve", paths["eve"],
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "confirmed=true" in out
    assert "eve_skdr=" in out
    digests = [ln for ln in out.splitlines() if ln.startswith("digest_")]
    assert len(digests) == 2 and all(len(d.split("=")[1]) == 64 for d in digests)


def test_cli_captures_prints_its_keys_in_order(tmp_path, capsys):
    paths = export_probe_captures(ExperimentConfig(), 0, tmp_path)
    assert main(["captures", "--a2g", paths["a2g"], "--g2a", paths["g2a"],
                 "--eve", paths["eve"]]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split("=", 1)[0] for line in lines] == [
        "key_bits", "skdr", "l0", "l1", "qber_estimate", "parity_bits_leaked",
        "confirmed", "digest_a", "digest_g", "eve_skdr",
    ]
    values = dict(line.split("=", 1) for line in lines)
    want = run_pipeline_once(ExperimentConfig(), 0)  # replay equals simulate
    assert values["key_bits"] == str(want.metrics.key_bits)
    assert values["parity_bits_leaked"] == str(want.reconciliation.parity_bits_leaked)
    assert values["digest_g"] == want.confirmation.digest_g.hex


def test_cli_export_writes_the_captures_that_replay(tmp_path, capsys):
    want = export_probe_captures(ExperimentConfig(), 0, tmp_path / "lib")
    assert main(["export", "--dir", str(tmp_path / "cli")]) == 0
    paths = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines())
    assert list(paths) == list(want) == ["a2g", "g2a", "eve"]
    for leg, path in paths.items():
        assert Path(path).read_bytes() == Path(want[leg]).read_bytes()
    assert main(["captures", "--a2g", paths["a2g"], "--g2a", paths["g2a"],
                 "--eve", paths["eve"]]) == 0
    assert "confirmed=true" in capsys.readouterr().out.splitlines()


def test_cli_captures_reads_its_paths_from_the_config_file(tmp_path, capsys):
    paths = export_probe_captures(ExperimentConfig(), 0, tmp_path)
    cfg = tmp_path / "caps.cfg"
    cfg.write_text(f"[experiment]\ncapture_a2g = {paths['a2g']}\ncapture_g2a = {paths['g2a']}\n")
    assert main(["captures", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "confirmed=true" in out
    assert main(["captures", "--a2g", paths["a2g"], "--g2a", paths["g2a"]]) == 0
    assert capsys.readouterr().out.splitlines() == out


def test_cli_captures_without_paths_is_single_line_error(capsys):
    assert main(["captures"]) == 1
    assert "capture_a2g and capture_g2a" in _single_error_line(capsys)


def test_cli_export_into_a_file_is_single_line_error(tmp_path, capsys):
    (tmp_path / "file").write_text("")
    assert main(["export", "--dir", str(tmp_path / "file" / "caps")]) == 1
    _single_error_line(capsys)


@pytest.mark.parametrize("argv", [
    ["export", "--alpha", "0.9"],
    ["export", "--trials", "7"],
    ["export", "--qber", "0.3"],
    ["export", "--no-shuffle"],
    ["captures", "--a2g", "a.cf32", "--g2a", "g.cf32", "--trials", "999"],
    ["captures", "--a2g", "a.cf32", "--g2a", "g.cf32", "--snr-db", "20"],
])
def test_cli_flag_the_verb_does_not_read_is_usage_error(argv, capsys):
    # export simulates receptions only and captures replays one recorded
    # round, so these flags could change nothing they print
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_cli_keys_prints_each_trial_key(capsys):
    assert main(["keys", "--trials", "3"]) == 0
    want = [str(r.reconciliation.corrected_key)
            for r in run_trials(ExperimentConfig(trials=3))]
    assert capsys.readouterr().out.splitlines() == want


def _trials_without_preamble(config, trials) -> list[int]:
    missed = []
    for t in range(trials):
        try:
            observe(config, t)
        except PreambleNotFoundError:
            missed.append(t)
    return missed


def test_cli_sweep_leaves_out_the_trials_without_a_preamble(capsys):
    # at -5 dB no round finds its preamble, at 0 dB a few miss it; such a
    # sweep once ended in one error line and printed no row
    assert main(["sweep", "--sweep-axis", "snr", "--sweep-values", "10,0,-5",
                 "--trials", "20"]) == 0
    out, err = capsys.readouterr()
    rows = [line.split(",") for line in out.splitlines()[1:]]
    snrs = (10.0, 0.0, -5.0)
    arms = {snr: with_sweep_value(ExperimentConfig(), "snr", snr) for snr in snrs}
    missed = {snr: _trials_without_preamble(arm, 20) for snr, arm in arms.items()}
    assert len(missed[10.0]) == 0 < len(missed[0.0]) < 20 == len(missed[-5.0])
    assert [(float(row[1]), row[2], int(row[-2])) for row in rows] == [
        (snr, shuffle, 20 - len(missed[snr])) for snr in snrs for shuffle in ("on", "off")]
    assert rows[-1][3:-2] == ["nan"] * 8  # a row with no trial
    # one line per left-out trial and channel, in trial then arm order
    assert [line.split(": ")[0] for line in err.splitlines()] == [
        f"trial {t} left out at {arms[snr].channel}"
        for t in range(20) for snr in snrs if t in missed[snr]]


def test_cli_keys_prints_no_line_for_a_trial_without_a_preamble(capsys):
    assert main(["keys", "--snr-db", "0", "--trials", "20"]) == 0
    out, err = capsys.readouterr()
    missed = _trials_without_preamble(ExperimentConfig(channel=ChannelModel(snr_db=0.0)), 20)
    assert len(out.splitlines()) == 20 - len(missed)
    assert [line.split(" left out")[0] for line in err.splitlines()] == [
        f"trial {t}" for t in missed]


def test_cli_captures_missing_file_is_single_line_error(capsys):
    code = main(["captures", "--a2g", "/nonexistent/x.cf32", "--g2a", "/nonexistent/y.cf32"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_cli_nist_verbs(tmp_path, capsys):
    bits_file = tmp_path / "bits.txt"
    rng = np.random.default_rng(0)
    bits_file.write_text("".join(map(str, rng.integers(0, 2, 120000))))
    assert main(["nist", "--bits", str(bits_file)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("test_name,p_value,applicable,pass")
    assert "overall,pass" in out

    ones = tmp_path / "ones.txt"
    ones.write_text("1" * 10000)
    main(["nist", "--bits", str(ones)])
    out = capsys.readouterr().out
    assert "overall,fail" in out


@pytest.mark.parametrize("content", [b"\xff\xfe0101", b"0110x1", None])
def test_cli_nist_bad_bit_file_is_single_line_error(tmp_path, capsys, content):
    # a binary file, a stray character, and a directory in place of a file
    path = tmp_path / "bits"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    assert main(["nist", "--bits", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def _write_config(path, keys: dict) -> str:
    sections: dict = {}
    for (section, key), value in keys.items():
        sections.setdefault(section, []).append(f"{key} = {value}")
    path.write_text("".join(f"[{name}]\n" + "\n".join(lines) + "\n"
                            for name, lines in sections.items()))
    return str(path)


def _simulate_csv(args, capsys) -> str:
    assert main(["simulate"] + args) == 0
    return capsys.readouterr().out


# the config-file key each simulate flag stands for, with a non-default value
FLAG_CASES = {
    "sf": ("lora", "sf", "8"),
    "bw": ("lora", "bw", "125000"),
    "fs": ("lora", "fs", "2000000"),
    "preamble_len": ("lora", "preamble_len", "6"),
    "num_taps": ("channel", "num_taps", "6"),
    "decay_db": ("channel", "decay_db", "6"),
    "rho": ("channel", "reciprocity_rho", "0.9"),
    "snr_db": ("channel", "snr_db", "20"),
    "alpha": ("quantizer", "alpha", "0.7"),
    "block_size": ("quantizer", "block_size", "32"),
    "shuffle": ("quantizer", "shuffle", "off"),
    "qber": ("cascade", "qber_estimate", "0.05"),
    "num_passes": ("cascade", "num_passes", "6"),
    "bin_policy": ("experiment", "bin_policy", "occupied-band"),
    "trials": ("experiment", "trials", "3"),
    "master_seed": ("experiment", "master_seed", "7"),
}
NON_SIMULATE_FLAGS = ("sweep_axis", "sweep_values", "a2g", "g2a", "eve")


def test_flag_cases_name_exactly_the_flags():
    # a stale row, or a flag without one, would otherwise pass unnoticed
    assert sorted([*FLAG_CASES, *NON_SIMULATE_FLAGS]) == sorted(FLAG_KEYS)


@pytest.mark.parametrize("dest", [d for d in FLAG_KEYS if d not in NON_SIMULATE_FLAGS])
def test_each_flag_equals_its_config_key(dest, tmp_path, capsys):
    section, key, value = FLAG_CASES[dest]
    flag = ["--no-shuffle"] if dest == "shuffle" else ["--" + dest.replace("_", "-"), value]
    base = {("experiment", "trials"): "2"}
    from_flag = _simulate_csv(
        ["--config", _write_config(tmp_path / "base.cfg", base)] + flag, capsys)
    from_file = _simulate_csv(
        ["--config", _write_config(tmp_path / "key.cfg", {**base, (section, key): value})],
        capsys)
    assert from_flag == from_file


def test_flag_keeps_config_keys_it_does_not_name(tmp_path, capsys):
    # a channel flag used to rebuild the channel with the default 3 dB decay
    flagged = _simulate_csv([
        "--config", _write_config(tmp_path / "decay.cfg", {("channel", "decay_db"): "9.0"}),
        "--snr-db", "20", "--trials", "2",
    ], capsys)
    both = _simulate_csv([
        "--config", _write_config(tmp_path / "both.cfg", {
            ("channel", "decay_db"): "9.0", ("channel", "snr_db"): "20",
        }),
        "--trials", "2",
    ], capsys)
    assert flagged == both


def _single_error_line(capsys) -> str:
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    return err


def test_cli_sweep_axis_without_values_is_single_line_error(capsys):
    assert main(["sweep", "--sweep-axis", "alpha", "--trials", "2"]) == 1
    assert "sweep_values" in _single_error_line(capsys)


def test_cli_bad_flag_value_is_single_line_error(capsys):
    assert main(["simulate", "--qber", "abc"]) == 1
    assert "[cascade] qber_estimate" in _single_error_line(capsys)
    assert main(["simulate", "--bin-policy", "sideband"]) == 1
    assert "bin_policy" in _single_error_line(capsys)


def test_cli_bad_config_value_is_single_line_error(tmp_path, capsys):
    path = _write_config(tmp_path / "bad.cfg", {("experiment", "trials"): "abc"})
    assert main(["simulate", "--config", path]) == 1
    assert "[experiment] trials" in _single_error_line(capsys)
    # a bad policy in a file used to surface only at the first trial
    path = _write_config(tmp_path / "policy.cfg", {("experiment", "bin_policy"): "sideband"})
    assert main(["simulate", "--config", path]) == 1
    assert "bin_policy" in _single_error_line(capsys)


# values each section dataclass rejects; the file-only key goes through a file
BAD_VALUES = [("alpha", "nan"), ("bw", "nan"), ("fs", "inf"), ("snr_db", "nan"),
              ("decay_db", "nan"), ("qber_sample_fraction", "0.9")]


@pytest.mark.parametrize("key, text", BAD_VALUES, ids=[k for k, _ in BAD_VALUES])
def test_cli_non_finite_or_out_of_range_value_is_single_line_error(key, text, tmp_path,
                                                                  capsys):
    if key in FLAG_KEYS:
        args = ["--" + key.replace("_", "-"), text]
    else:
        args = ["--config", _write_config(tmp_path / "bad.cfg", {("experiment", key): text})]
    assert main(["simulate", "--trials", "1"] + args) == 1
    assert key in _single_error_line(capsys)


# the --flag=value form, since argparse reads a bare -inf as a flag
@pytest.mark.parametrize("args", [
    ["simulate", "--snr-db=-inf"], ["simulate", "--snr-db=3100"], ["simulate", "--snr-db=-3300"],
    ["sweep", "--sweep-axis", "snr", "--sweep-values=-inf,10"],
    ["simulate", "--snr-db=-1000"], ["sweep", "--sweep-axis", "snr", "--sweep-values=10,-1000"],
], ids=["minus-inf", "overflow", "underflow", "sweep-minus-inf",
        "beyond-capture-depth", "sweep-beyond-capture-depth"])
def test_cli_snr_without_positive_finite_ratio_is_single_line_error(args, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's overflow-in-cast warning came first
        assert main(args + ["--trials", "1"]) == 1
    assert "snr_db" in _single_error_line(capsys)


def test_lowest_snr_fits_capture_depth():
    cfg = ExperimentConfig(channel=ChannelModel(snr_db=MIN_SNR_DB))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        frames = simulate_probe_frames(cfg, derive_trial_seeds(cfg.master_seed, 0))
    assert all(np.isfinite(f.samples).all() for f in frames)
    with pytest.raises(ParameterError, match="snr_db .* complex64 capture depth"):
        ExperimentConfig(channel=ChannelModel(snr_db=np.nextafter(MIN_SNR_DB, -np.inf)))


def test_negative_seeds_are_single_line_errors(tmp_path, capsys):
    with pytest.raises(ParameterError, match="master_seed"):
        ExperimentConfig(master_seed=-1)
    assert main(["simulate", "--trials", "1", "--master-seed", "-1"]) == 1
    assert "master_seed" in _single_error_line(capsys)
    assert main(["keys", "--trials", "1", "--master-seed", "-1"]) == 1
    assert "master_seed" in _single_error_line(capsys)
    # the trial index is checked before the capture files are read or written
    assert main(["captures", "--a2g", "a.cf32", "--g2a", "g.cf32", "--trial-seed", "-1"]) == 1
    assert "trial index" in _single_error_line(capsys)
    assert main(["export", "--dir", str(tmp_path / "caps"), "--trial-seed", "-1"]) == 1
    assert "trial index" in _single_error_line(capsys) and not (tmp_path / "caps").exists()


@pytest.mark.parametrize("text, named", [
    ("[quantizer]\nalhpa = 0.9\n", "[quantizer] alhpa"),
    ("[qauntizer]\nalpha = 0.9\n", "[qauntizer] alpha"),
    ("[quantizer]\nspread = variance\n", "[quantizer] spread"),
    ("[experiment]\nmode = captures\n", "[experiment] mode"),
    ("[quantizer]\nencoding = d-gray\n", "[quantizer] encoding"),
], ids=["misspelt-key", "misspelt-section", "removed-spread-key", "removed-mode-key",
        "removed-encoding-key"])
def test_cli_unknown_config_key_is_single_line_error(text, named, tmp_path, capsys):
    path = tmp_path / "typo.cfg"
    path.write_text(text)
    assert main(["simulate", "--config", str(path)]) == 1
    assert named in _single_error_line(capsys)


@pytest.mark.parametrize("text", [
    "sf = 8\n",
    "[lora]\nsf = 8\n[lora]\nbw = 125000\n",
    "[lora]\nsf 8\n",
], ids=["no-section-header", "repeated-section", "no-separator"])
def test_cli_config_syntax_error_is_single_line_error(text, tmp_path, capsys):
    path = tmp_path / "syntax.cfg"
    path.write_text(text)
    assert main(["simulate", "--config", str(path)]) == 1
    assert str(path) in _single_error_line(capsys)


def test_cli_fractional_block_size_sweep_is_single_line_error(capsys):
    # int() would run block size 16 under rows that say 16.5
    assert main(["sweep", "--sweep-axis", "block_size", "--sweep-values", "16.5",
                 "--trials", "1"]) == 1
    assert "block_size" in _single_error_line(capsys)


def test_cli_fractional_num_taps_sweep_is_single_line_error(capsys):
    assert main(["sweep", "--sweep-axis", "num_taps", "--sweep-values", "1.5",
                 "--trials", "1"]) == 1
    assert "[channel] num_taps" in _single_error_line(capsys)


@pytest.mark.parametrize("values", ["inf", "nan"])
def test_cli_non_finite_num_taps_sweep_is_single_line_error(values, capsys):
    assert main(["sweep", "--sweep-axis", "num_taps", "--sweep-values", values,
                 "--trials", "1"]) == 1
    assert "[channel] num_taps" in _single_error_line(capsys)


@pytest.mark.parametrize("args", [
    ["simulate", "--num-taps", "4097"],
    ["simulate", "--num-taps", "10000000000000"],
    ["sweep", "--sweep-axis", "num_taps", "--sweep-values", "1e13"],
    ["simulate", "--preamble-len", "1", "--num-taps", "513"],
    ["simulate", "--config", "taps.cfg"],
], ids=["one-past", "huge", "sweep-huge", "short-preamble", "config-file"])
def test_cli_num_taps_past_the_preamble_is_single_line_error(args, tmp_path, monkeypatch,
                                                             capsys):
    # the refusal comes before any array of num_taps entries is built
    def profile(num_taps, decay_db):
        assert num_taps <= 4096, "a profile was built for the refused tap count"
        return exponential_profile(num_taps, decay_db)

    monkeypatch.setattr(channel, "exponential_profile", profile)
    monkeypatch.chdir(tmp_path)
    _write_config(tmp_path / "taps.cfg", {("channel", "num_taps"): "4097"})
    assert main(args + ["--trials", "1"]) == 1
    assert "[channel] num_taps" in _single_error_line(capsys)


def test_as_many_taps_as_preamble_samples_build(tmp_path):
    path = _write_config(tmp_path / "taps.cfg", {("channel", "num_taps"): "4096"})
    assert load_config(path).channel.num_taps == 4096
    with pytest.raises(ParameterError, match=r"\[channel\] num_taps"):
        ExperimentConfig(channel=ChannelModel(num_taps=4097))


@pytest.mark.parametrize("exc", [
    MemoryError("Unable to allocate 74.5 TiB for an array with shape (10000000000000,)"),
    MemoryError(),
], ids=["numpy", "bare"])
def test_cli_memory_error_is_single_line_error(exc, monkeypatch, capsys):
    def out_of_memory(config):
        raise exc

    monkeypatch.setattr(cli, "run_trials", out_of_memory)
    assert main(["simulate", "--trials", "1"]) == 1
    assert "out of memory" in _single_error_line(capsys)


# (option strings, dest, required, help, const) of every option but -h
COMMON_OPTIONS = [
    (["--config"], "config", False, "INI-style config file", None),
    (["--sf"], "sf", False, None, None),
    (["--bw"], "bw", False, None, None),
    (["--fs"], "fs", False, None, None),
    (["--preamble-len"], "preamble_len", False, None, None),
    (["--num-taps"], "num_taps", False, None, None),
    (["--decay-db"], "decay_db", False, None, None),
    (["--rho"], "rho", False, "reciprocity correlation", None),
    (["--snr-db"], "snr_db", False, None, None),
    (["--alpha"], "alpha", False, None, None),
    (["--block-size"], "block_size", False, None, None),
    (["--shuffle"], "shuffle", False, None, "on"),
    (["--no-shuffle"], "shuffle", False, None, "off"),
    (["--bin-policy"], "bin_policy", False, None, None),
    (["--qber"], "qber", False, "cascade QBER estimate or 'auto'", None),
    (["--num-passes"], "num_passes", False, None, None),
    (["--trials"], "trials", False, None, None),
    (["--master-seed"], "master_seed", False, None, None),
    (["--out"], "out", False, "write the output here instead of stdout", None),
]
VERB_OPTIONS = {
    "simulate": COMMON_OPTIONS,
    "sweep": COMMON_OPTIONS + [
        (["--sweep-axis"], "sweep_axis", False, None, None),
        (["--sweep-values"], "sweep_values", False, "comma-separated values", None),
    ],
    # captures replays one round and export simulates its receptions, so
    # each takes only the flags of the keys its path reads
    "captures": [opt for opt in COMMON_OPTIONS if opt[1] not in (
        "num_taps", "decay_db", "rho", "snr_db", "trials")] + [
        (["--a2g"], "a2g", False, "capture of A's frame received at G", None),
        (["--g2a"], "g2a", False, "capture of G's frame received at A", None),
        (["--eve"], "eve", False, "optional capture of G's frame at the eavesdropper", None),
        (["--trial-seed"], "trial_seed", False, None, None),
    ],
    "export": [opt for opt in COMMON_OPTIONS if opt[1] in (
        "config", "sf", "bw", "fs", "preamble_len", "num_taps", "decay_db", "rho", "snr_db",
        "master_seed", "out")] + [
        (["--dir"], "dir", False, "output directory", None),
        (["--trial-seed"], "trial_seed", False, None, None),
    ],
    "keys": COMMON_OPTIONS,
    "nist": [
        (["--bits"], "bits", True, "file of 0/1 characters", None),
        (["--out"], "out", False, None, None),
    ],
}


def _verbs():
    return next(a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def test_each_verb_takes_exactly_its_options():
    verbs = _verbs()
    assert list(verbs) == list(VERB_OPTIONS)
    for verb, want in VERB_OPTIONS.items():
        got = [(a.option_strings, a.dest, a.required, a.help, a.const)
               for a in verbs[verb]._actions if a.dest != "help"]
        assert got == want, verb


def _readme_block(heading):
    """The first fenced block under README's ``## heading``."""
    text = (ROOT / "README.md").read_text()
    return text.split(f"\n## {heading}\n", 1)[1].split("```")[1]


def test_readme_names_every_verb_and_module():
    cli = re.findall(r"^chirpkey (\S+)", _readme_block("CLI"), re.M)
    assert sorted(cli) == sorted(_verbs())
    layout = _readme_block("Layout").split("\nsrc/chirpkey/\n", 1)[1]
    listed = re.findall(r"^  (\w+\.py) ", layout, re.M)
    modules = [p.name for p in (ROOT / "src" / "chirpkey").glob("*.py")
               if p.name != "__init__.py"]
    assert sorted(listed) == sorted(modules)


# every [section] key a config file may set, a non-default value for it, and
# where that value lands in the config
KEY_CASES = [
    ("lora", "sf", "8", lambda c: c.lora.sf, 8),
    ("lora", "bw", "125000", lambda c: c.lora.bw, 125000.0),
    ("lora", "fs", "2000000", lambda c: c.lora.fs, 2e6),
    ("lora", "preamble_len", "6", lambda c: c.lora.preamble_len, 6),
    ("channel", "num_taps", "6", lambda c: c.channel.num_taps, 6),
    ("channel", "decay_db", "6", lambda c: c.channel.decay_db, 6.0),
    ("channel", "reciprocity_rho", "0.9", lambda c: c.channel.reciprocity_rho, 0.9),
    ("channel", "snr_db", "20", lambda c: c.channel.snr_db, 20.0),
    ("channel", "eavesdropper_independent", "no",
     lambda c: c.channel.eavesdropper_independent, False),
    ("quantizer", "alpha", "0.7", lambda c: c.quantizer.alpha, 0.7),
    ("quantizer", "block_size", "32", lambda c: c.quantizer.block_size, 32),
    ("quantizer", "shuffle", "off", lambda c: c.quantizer.shuffle_enabled, False),
    ("cascade", "num_passes", "6", lambda c: c.cascade.num_passes, 6),
    ("cascade", "qber_estimate", "0.05", lambda c: c.cascade.qber_estimate, 0.05),
    ("experiment", "bin_policy", "occupied-band", lambda c: c.bin_policy, "occupied-band"),
    ("experiment", "qber_sample_fraction", "0.2", lambda c: c.qber_sample_fraction, 0.2),
    ("experiment", "trials", "7", lambda c: c.trials, 7),
    ("experiment", "master_seed", "99", lambda c: c.master_seed, 99),
    ("experiment", "sweep_axis", "snr", lambda c: c.sweep_axis, "snr"),
    ("experiment", "sweep_values", "1, 2.5", lambda c: c.sweep_values, (1.0, 2.5)),
    ("experiment", "capture_a2g", "a.cf32", lambda c: c.capture_a2g, "a.cf32"),
    ("experiment", "capture_g2a", "g.cf32", lambda c: c.capture_g2a, "g.cf32"),
    ("experiment", "capture_eve", "e.cf32", lambda c: c.capture_eve, "e.cf32"),
]


@pytest.mark.parametrize("section, key, text, get, want", KEY_CASES,
                         ids=[f"{case[0]}-{case[1]}" for case in KEY_CASES])
def test_each_config_key_reaches_the_config(section, key, text, get, want, tmp_path):
    keys = {(section, key): text}
    if key == "sweep_axis":
        keys["experiment", "sweep_values"] = "1"  # a sweep needs values
    assert get(ExperimentConfig()) != want
    assert get(load_config(_write_config(tmp_path / "key.cfg", keys))) == want


def test_key_cases_name_exactly_the_config_keys():
    assert sorted(case[:2] for case in KEY_CASES) == sorted(KEYS)
