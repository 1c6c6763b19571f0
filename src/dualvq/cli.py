"""Command-line entry points: train, eval, ablate, export.

Exit codes: 0 success, 2 config error or bad checkpoint or output file, 3 runtime (non-finite) abort.
"""

from __future__ import annotations

import argparse
import json
import sys

from .autodiff import NonFiniteError
from .config import ConfigError, load_config
from .metrics import sanitize_for_json
from .run import export_codebook, run_ablation, run_eval, run_train


def _config_from_args(args):
    """The ``--config`` file with ``--seed`` and ``--out`` applied."""
    overrides = {"seed": args.seed, "out_dir": args.out}
    return load_config(args.config, {k: v for k, v in overrides.items() if v is not None})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dualvq",
                                     description="Dual-codebook VQ autoencoder runs")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model and write CSV logs + checkpoints")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--resume", default=None)
    p.add_argument("--force", action="store_true")

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", choices=("train", "val", "test"), default="val")
    p.add_argument("--out", default=None, help="write metrics JSON here")

    p = sub.add_parser("ablate", help="run the config's experiment grid")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)

    p = sub.add_parser("export", help="write a codebook's entries and counts as a tensor container")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--which", choices=("global", "local"), required=True)
    p.add_argument("--out", required=True, help="file to write: a JSON header line (codebook name, counts, "
                   "entries' shape), the entries as little-endian float64, a CRC-32; see dualvq.tensor_io")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "train":
            result = run_train(_config_from_args(args), resume=args.resume, force=args.force)
            print(f"run complete: {result.out_dir}")
            print(f"  steps csv : {result.steps_csv}")
            print(f"  final ckpt: {result.final_checkpoint}")
        elif args.command == "eval":
            ev = run_eval(args.checkpoint, split=args.split, out_path=args.out)
            print(json.dumps(sanitize_for_json(ev), indent=1, sort_keys=True))
        elif args.command == "ablate":
            path = run_ablation(_config_from_args(args))
            print(f"ablation table: {path}")
        elif args.command == "export":
            export_codebook(args.checkpoint, args.which, args.out)
            print(f"codebook written: {args.out}")
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except NonFiniteError as e:
        print(f"runtime abort: {e}", file=sys.stderr)
        return 3
    return 0
