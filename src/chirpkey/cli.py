"""Command-line interface.

Verbs: ``simulate`` (seeded trials, aggregate CSV), ``sweep`` (paired
shuffle-on/off parameter sweep), ``captures`` (replay recorded IQ files),
``export`` (write one simulated round's three IQ captures), ``keys`` (one
reconciled key per trial as a 0/1 line), ``nist`` (randomness suite over
an ASCII bit file).  Each flag overrides the config-file key
``FLAG_KEYS`` names for it.
"""
from __future__ import annotations

import argparse
import string
import sys

import numpy as np

from .config import KEYS, ExperimentConfig, config_from_parser, raw_config
from .errors import CaptureFormatError, ParameterError, PreambleNotFoundError
from .nist import run_suite
from .pipeline import (
    aggregate,
    export_probe_captures,
    rows_to_csv,
    run_captures,
    run_sweep,
    run_trials,
)
from .quantizer import as_bits


# config keys whose flag has another name; None marks a key no flag sets
FLAG_NAMES = {
    "reciprocity_rho": "rho",
    "qber_estimate": "qber",
    "capture_a2g": "a2g",
    "capture_g2a": "g2a",
    "capture_eve": "eve",
    **dict.fromkeys(("eavesdropper_independent", "qber_sample_fraction")),
}
# argparse dest -> the [section] key whose value that flag's text replaces
FLAG_KEYS = {FLAG_NAMES.get(key, key): (section, key)
             for section, key in KEYS if FLAG_NAMES.get(key, key)}
# flags that only the sweep and captures verbs take, declared there
VERB_FLAGS = ("sweep_axis", "sweep_values", "a2g", "g2a", "eve")
FLAG_HELP = {"rho": "reciprocity correlation", "qber": "cascade QBER estimate or 'auto'"}


def _add_common_flags(p: argparse.ArgumentParser, reads=lambda section, key: True) -> None:
    """--config, --out and the flag of each key the verb ``reads``; another flag exits 2."""
    p.add_argument("--config", help="INI-style config file")
    for dest, (section, key) in FLAG_KEYS.items():
        if dest in VERB_FLAGS or not reads(section, key):
            continue
        if dest == "shuffle":
            p.add_argument("--shuffle", dest="shuffle", action="store_const", const="on")
            p.add_argument("--no-shuffle", dest="shuffle", action="store_const", const="off")
        else:
            p.add_argument("--" + dest.replace("_", "-"), help=FLAG_HELP.get(dest))
    p.add_argument("--out", help="write the output here instead of stdout")


def _load(args) -> ExperimentConfig:
    """The --config file (or the defaults) with every given flag written over its key."""
    parser = raw_config(args.config)
    for dest, (section, key) in FLAG_KEYS.items():
        text = getattr(args, dest, None)
        if text is not None:
            if not parser.has_section(section):
                parser.add_section(section)
            parser.set(section, key, text)
    return config_from_parser(parser)


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_simulate(args) -> int:
    config = _load(args)
    results = run_trials(config)
    row = aggregate(results, "none", 0.0, config.quantizer.shuffle_enabled,
                    config.master_seed)
    _emit(rows_to_csv([row]), args.out)
    return 0


def _cmd_sweep(args) -> int:
    _emit(rows_to_csv(run_sweep(_load(args))), args.out)
    return 0


def _cmd_captures(args) -> int:
    result = run_captures(_load(args), trial_seed=args.trial_seed)
    lines = [
        f"key_bits={result.metrics.key_bits}",
        f"skdr={result.metrics.skdr:.6f}",
        f"l0={result.metrics.l0}",
        f"l1={result.metrics.l1}",
        f"qber_estimate={result.qber_estimate:.6f}",
        f"parity_bits_leaked={result.reconciliation.parity_bits_leaked}",
        f"confirmed={str(result.confirmation.matched).lower()}",
        f"digest_a={result.confirmation.digest_a.hex}",
        f"digest_g={result.confirmation.digest_g.hex}",
    ]
    if result.eve_skdr is not None:
        lines.append(f"eve_skdr={result.eve_skdr:.6f}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_export(args) -> int:
    paths = export_probe_captures(_load(args), args.trial_seed, args.dir)
    _emit("".join(f"{leg}: {path}\n" for leg, path in paths.items()), args.out)
    return 0


def _cmd_keys(args) -> int:
    results = run_trials(_load(args))
    _emit("".join(f"{r.reconciliation.corrected_key}\n" for r in results), args.out)
    return 0


def _cmd_nist(args) -> int:
    with open(args.bits, "rb") as fh:
        raw = np.frombuffer(fh.read(), dtype=np.uint8)
    # uint8 wraps every byte but b"0" and b"1" to a value above 1
    try:
        bits = as_bits(raw[~np.isin(raw, list(string.whitespace.encode()))] - ord("0"))
    except ParameterError as exc:
        raise ParameterError(f"{args.bits}: {exc}") from None
    report = run_suite(bits)
    verdict = "pass" if report.overall_pass else (
        "insufficient data" if report.insufficient_data else "fail")
    _emit(report.to_csv() + f"overall,{verdict}\n", args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chirpkey",
        description="Chirp-preamble physical-layer key generation testbench",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run seeded trials, print aggregate CSV")
    _add_common_flags(p_sim)
    p_sim.set_defaults(func=_cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="paired shuffle-on/off parameter sweep")
    _add_common_flags(p_sweep)
    p_sweep.add_argument("--sweep-axis")
    p_sweep.add_argument("--sweep-values", help="comma-separated values")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_cap = sub.add_parser("captures", help="replay recorded IQ captures")
    # one recorded round: no channel to simulate and no trial count
    _add_common_flags(p_cap, lambda section, key: section != "channel" and key != "trials")
    p_cap.add_argument("--a2g", help="capture of A's frame received at G")
    p_cap.add_argument("--g2a", help="capture of G's frame received at A")
    p_cap.add_argument("--eve", help="optional capture of G's frame at the eavesdropper")
    p_cap.add_argument("--trial-seed", type=int, default=0)
    p_cap.set_defaults(func=_cmd_captures)

    p_exp = sub.add_parser("export", help="write one simulated round's IQ captures")
    # the receptions alone: the waveform, the channel and the seed
    _add_common_flags(p_exp, lambda section, key: section in ("lora", "channel")
                      or key == "master_seed")
    p_exp.add_argument("--dir", default=".", help="output directory")
    p_exp.add_argument("--trial-seed", type=int, default=0)
    p_exp.set_defaults(func=_cmd_export)

    p_keys = sub.add_parser("keys", help="one reconciled key per trial, as 0/1 lines")
    _add_common_flags(p_keys)
    p_keys.set_defaults(func=_cmd_keys)

    p_nist = sub.add_parser("nist", help="randomness suite over an ASCII bit file")
    p_nist.add_argument("--bits", required=True, help="file of 0/1 characters")
    p_nist.add_argument("--out")
    p_nist.set_defaults(func=_cmd_nist)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParameterError, PreambleNotFoundError, CaptureFormatError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # a config value sized an array past this host's memory
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
