"""Command-line surface.

Verbs: ``train``, ``show-config``, ``sample``, ``bench``, ``inspect``,
``gen-data``. Exit codes: 0 success, 1 domain failure (I/O, numerical
divergence, bad data), 2 a usage mistake (``tensor.UsageError``: a bad
config value, argument or op call). Every failure prints a single-line
diagnostic to stderr.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import analysis, pgm, tensor as T
from .blocks import build_block
from .checkpoint import load_checkpoint, restore_model
from .complexity import ANALYTIC_KINDS, analytic_cost, cost_table, measure, reference_rows
from .config import RunConfig, apply_overrides, parse_config, serialize_config
from .dataset import ToyDatasetConfig, encode_caption, write_dataset
from .diffusion import SamplerConfig, sample as draw_samples
from .train import run_training

DOMAIN_ERRORS = (OSError, T.NonFiniteError, ValueError)


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    for field in fields(RunConfig):
        parser.add_argument(f"--{field.name.replace('_', '-')}", dest=field.name,
                            default=None, metavar=field.type.upper()
                            if field.type != "str" else "VALUE")


def _collect_config(args) -> RunConfig:
    config = parse_config(Path(args.config).read_text()) if args.config else RunConfig()
    overrides = {f.name: getattr(args, f.name) for f in fields(RunConfig)
                 if getattr(args, f.name, None) is not None}
    return apply_overrides(config, overrides)


def cmd_train(args) -> int:
    config = _collect_config(args)
    result = run_training(config, resume=args.resume)
    print(f"trained {config.train_steps} steps; final checkpoint "
          f"{result.final_checkpoint}; loss log {result.log_path}")
    return 0


def cmd_show_config(args) -> int:
    print(serialize_config(_collect_config(args)), end="")
    return 0


# ---------------------------------------------------------------------------
# sample
# ---------------------------------------------------------------------------

def cmd_sample(args) -> int:
    snapshot = load_checkpoint(args.checkpoint)
    model = restore_model(snapshot)
    config = snapshot.config
    omega = config.guidance_scale if args.cfg_scale is None else args.cfg_scale
    steps = config.sample_steps if args.steps is None else args.steps
    sampler = SamplerConfig(num_steps=steps)
    sched = config.noise_schedule()
    captions = Path(args.captions).read_text().splitlines()
    captions = [line.strip() for line in captions if line.strip()]
    if not captions:
        raise T.UsageError("captions file contains no captions")
    ids = np.stack([encode_caption(line.split(), config.text_tokens)
                    for line in captions])
    images = draw_samples(model, ids, sched, sampler, omega, args.seed).data
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for index in range(len(captions)):
        plane = np.clip((images[index] + 1.0) / 2.0, 0.0, 1.0)
        stem = f"sample_{index:03d}_seed{args.seed}_w{omega:g}"
        # the image file may show channel 0 only; the CSV keeps every channel
        pgm.write_image(out_dir, stem, plane)
        np.savetxt(out_dir / f"{stem}.csv", images[index].reshape(config.in_channels, -1),
                   delimiter=",", fmt="%.8e")
    print(f"wrote {len(captions)} samples to {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

def _parse_spec(flag: str, spec: str, form: str, *types) -> tuple:
    """Split a colon-separated ``--flag`` value and convert each part."""
    parts = spec.split(":")
    if len(parts) != len(types):
        raise T.UsageError(f"{flag} spec must be {form}, got {spec!r}")
    try:
        return tuple(kind(part) for kind, part in zip(types, parts))
    except ValueError as exc:
        raise T.UsageError(f"bad {flag} spec {spec!r}: {exc}") from exc


def cmd_bench(args) -> int:
    rows = []
    if args.paper:
        rows.extend(reference_rows())
    for spec in args.row or ():
        rows.append(_parse_spec("--row", spec, "NAME:L:D:S:KIND",
                                str, int, int, float, str))
    if not rows and not args.measure:
        raise T.UsageError("nothing to do: pass --paper, --row or --measure")
    if rows:
        text, csv_text = cost_table(rows)
        print(text, end="")
        if args.csv:
            Path(args.csv).write_text(csv_text)
        else:
            print()
            print(csv_text, end="")
    if args.measure:
        preset, seq, dim, scale = _parse_spec("--measure", args.measure, "PRESET:L:D:S",
                                              str, int, int, float)
        # executed MACs and trainable-scalar counts do not depend on the weights
        block = build_block(preset, 0, seq_len=seq, embed_dim=dim, mlp_scale=scale)
        macs_measured, params_measured = measure(block, seq, dim)
        kind = block.cfg.kind
        macs = f"macs {macs_measured}"
        params = f"trainable scalars {params_measured}"
        if kind in ANALYTIC_KINDS:
            analytic = analytic_cost(kind, seq, dim, scale)
            exact = macs_measured == int(analytic.macs)
            macs += f" (analytic {analytic.macs:.0f}, exact={'yes' if exact else 'no'})"
            params += f" (leading-term {analytic.params:.0f})"
        else:
            params += f" (no analytic formula for kind {kind!r})"
        print(f"measured {preset} at L={seq} D={dim} s={scale:g}: {macs}, {params}")
    return 0


# ---------------------------------------------------------------------------
# inspect
# ---------------------------------------------------------------------------

def cmd_inspect(args) -> int:
    snapshot = load_checkpoint(args.checkpoint)
    model = restore_model(snapshot)
    if args.all_layers:
        layers = range(len(model.blocks))
    elif args.layer is None:
        raise T.UsageError("pass --layer N or --all-layers")
    else:
        layers = [args.layer]
    sides = ("left", "right") if args.side == "both" else (args.side,)
    # every map is extracted before anything is written, so a bad layer leaves no out-dir
    maps = [analysis.normalize_unit(analysis.extract_first_stage(model, layer, side))
            for layer in layers for side in sides]
    stats_rows = ["layer,side,region,mean,std"]
    for wmap in maps:
        if wmap.boundaries is not None:
            for region, (mean, std) in analysis.region_stats(wmap).items():
                stats_rows.append(
                    f"{wmap.layer_index},{wmap.side},{region},{mean!r},{std!r}")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for wmap in maps:
        path = out_dir / f"weights_layer{wmap.layer_index:02d}_{wmap.side}.{args.format}"
        analysis.export_map(wmap, path, args.format, mark_boundaries=args.mark_boundaries)
    (out_dir / "region_stats.csv").write_text("\n".join(stats_rows) + "\n")
    print(f"wrote {len(maps)} weight maps and region_stats.csv to {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# gen-data
# ---------------------------------------------------------------------------

def cmd_gen_data(args) -> int:
    config = ToyDatasetConfig(side=args.side, channels=args.channels,
                              text_tokens=args.text_tokens, seed=args.seed)
    if args.count < 0:
        raise T.UsageError("count must be non-negative")
    write_dataset(config, args.count, args.out_dir)
    print(f"wrote {args.count} samples to {args.out_dir}")
    return 0


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Reports a usage mistake as a ``UsageError``, so it prints one line."""

    def error(self, message: str):
        raise T.UsageError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lmlp", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    train = commands.add_parser("train", help="train a model per a run config")
    train.add_argument("--config", help="run config file (defaults are desk scale)")
    train.add_argument("--resume", help="checkpoint to resume from")
    _add_config_flags(train)
    train.set_defaults(handler=cmd_train)

    show = commands.add_parser("show-config", help="print the effective run config")
    show.add_argument("--config")
    _add_config_flags(show)
    show.set_defaults(handler=cmd_show_config)

    sample = commands.add_parser("sample", help="draw images from a checkpoint")
    sample.add_argument("--checkpoint", required=True)
    sample.add_argument("--captions", required=True,
                        help="text file, one caption per line")
    sample.add_argument("--cfg-scale", type=float, default=None,
                        help="guidance scale (default: from the checkpoint config)")
    sample.add_argument("--steps", type=int, default=None)
    sample.add_argument("--seed", type=int, default=0)
    sample.add_argument("--out-dir", default="samples")
    sample.set_defaults(handler=cmd_sample)

    bench = commands.add_parser("bench", help="block cost tables and measurement")
    bench.add_argument("--paper", action="store_true",
                       help="emit the reference rows at L=334, D=512")
    bench.add_argument("--row", action="append", metavar="NAME:L:D:S:KIND",
                       help="extra analytic row (kind: transformer|lmlp)")
    bench.add_argument("--measure", metavar="PRESET:L:D:S",
                       help="build a block and report its measured cost, and the "
                            "analytic one where its kind has a formula")
    bench.add_argument("--csv", help="also write the CSV table to this path")
    bench.set_defaults(handler=cmd_bench)

    inspect = commands.add_parser("inspect", help="export first-stage weight maps")
    inspect.add_argument("--checkpoint", required=True)
    inspect.add_argument("--layer", type=int, default=None)
    inspect.add_argument("--all-layers", action="store_true")
    inspect.add_argument("--side", choices=("left", "right", "both"), default="both")
    inspect.add_argument("--format", choices=("pgm", "csv"), default="pgm")
    inspect.add_argument("--mark-boundaries", action="store_true")
    inspect.add_argument("--out-dir", default="weight_maps")
    inspect.set_defaults(handler=cmd_inspect)

    gen = commands.add_parser("gen-data", help="write a toy dataset to disk")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--count", type=int, required=True)
    gen.add_argument("--side", type=int, default=8)
    gen.add_argument("--channels", type=int, default=1)
    gen.add_argument("--text-tokens", type=int, default=4)
    gen.add_argument("--out-dir", required=True)
    gen.set_defaults(handler=cmd_gen_data)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.handler(args)
    except SystemExit:  # --help; a usage mistake raises UsageError instead
        return 0
    except T.UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DOMAIN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:  # console-script shim
    raise SystemExit(main())


if __name__ == "__main__":  # python -m lmlp.cli
    entrypoint()


__all__ = ["build_parser", "entrypoint", "main"]
