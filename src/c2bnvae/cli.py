"""Command-line entry points.

Subcommands: preprocess, train-gen, run-all, count, report. Every command
accepts --config (a JSON ExperimentConfig) with individual flags overriding
the file. Exit codes: 0 success, 1 usage, 2 data error, 3 training failure.
"""

from __future__ import annotations

import logging
import sys
from pathlib import Path

import click

from .errors import DataError, LabelError, ShapeError, TrainingDiverged
from .experiment import (ExperimentConfig, count_report, load_encoded,
                         load_reports, manifest_line, manifest_for, preprocess,
                         run_all, train_generator)
from .metrics import results_table
from .model import CBN_PLACEMENTS
from .nslkdd import CATEGORY_NAMES, DATASET_FORMATS

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_TRAINING = 3


def _build_config(config_path: str | None, **overrides) -> ExperimentConfig:
    if config_path:
        config = ExperimentConfig.from_json_file(config_path)
    else:
        config = ExperimentConfig()
    provided = {k: v for k, v in overrides.items() if v is not None}
    return ExperimentConfig.from_dict({**config.to_dict(), **provided})


def _parse_widths(ctx, param, value: str | None) -> list[int] | None:
    """``--hidden 60,60`` as a list of ints; a usage error otherwise."""
    if value is None:
        return None
    try:
        return [int(w) for w in value.split(",")]
    except ValueError:
        raise click.BadParameter(f"expected comma-separated integers, got {value!r}") from None


CONFIG_OPTION = click.option("--config", "config_path", type=click.Path(),
                             default=None, help="JSON experiment config file.")


@click.group()
@click.option("-v", "--verbose", is_flag=True, help="Log stage progress.")
def cli(verbose: bool) -> None:
    logging.basicConfig(level=logging.INFO if verbose else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")


@cli.command("preprocess")
@CONFIG_OPTION
@click.option("--train", "train_path", type=click.Path(), default=None,
              help="KDDTrain+-format input file.")
@click.option("--test", "test_path", type=click.Path(), default=None,
              help="KDDTest+-format input file.")
@click.option("--taxonomy", "taxonomy_path", type=click.Path(), default=None,
              help="Two-column attack taxonomy CSV (default: bundled).")
@click.option("--out-dir", default=None, help="Experiment output root.")
@click.option("--seed", type=int, default=None, help="Master seed.")
@click.option("--subsample", type=float, default=None,
              help="Stratified fraction of both splits, in (0, 1].")
@click.option("--pad-to", type=int, default=None,
              help="Pad encoded width with zero columns (123 reproduces the "
                   "published shapes). Use 0 to disable padding.")
@click.option("--fmt", "dataset_format", type=click.Choice(DATASET_FORMATS),
              default=None, help="Encoded dataset file format.")
def cmd_preprocess(config_path, **overrides) -> None:
    """Parse NSL-KDD files, encode both splits and write them with the counts."""
    if overrides.get("pad_to") == 0:
        overrides["pad_to"] = None
        explicit_no_pad = True
    else:
        explicit_no_pad = False
    config = _build_config(config_path, **overrides)
    if explicit_no_pad:
        config.pad_to = None
    artifacts = preprocess(config)
    click.echo(f"encoded {artifacts['feature_dim']}-wide datasets under "
               f"{config.encoded_dir()}")
    for name, count in zip(CATEGORY_NAMES, artifacts["counts"]):
        click.echo(f"{name} {count}")
    click.echo(f"Total {artifacts['counts'].sum()}")


@cli.command("train-gen")
@CONFIG_OPTION
@click.option("--out-dir", default=None, help="Experiment output root.")
@click.option("--seed", type=int, default=None, help="Master seed.")
@click.option("--epochs", type=int, default=None)
@click.option("--batch-size", type=int, default=None)
@click.option("--lr", type=float, default=None)
@click.option("--latent-dim", type=int, default=None)
@click.option("--hidden", "hidden_widths", default=None, callback=_parse_widths,
              help="Comma-separated hidden widths, e.g. 60,60,60,60.")
@click.option("--kl-weight", type=float, default=None)
@click.option("--cbn-placement", type=click.Choice(CBN_PLACEMENTS), default=None)
@click.option("--no-cbn", is_flag=True,
              help="Train the plain-BN variant (the standard-CVAE baseline).")
def cmd_train_gen(config_path, no_cbn, **overrides) -> None:
    """Train the generative model on the encoded training split."""
    config = _build_config(config_path, **overrides)
    train_set, _ = load_encoded(config)
    ckpt, trace, path = train_generator(config, train_set, use_cbn=not no_cbn)
    if trace:
        click.echo(f"trained {len(trace)} epochs; final total loss "
                   f"{trace[-1].total:.6f}")
    else:
        click.echo("reused existing checkpoint (same config and schema)")
    click.echo(f"checkpoint: {path}")


@cli.command("run-all")
@CONFIG_OPTION
@click.option("--out-dir", default=None, help="Experiment output root.")
@click.option("--seed", type=int, default=None, help="Master seed.")
@click.option("--epochs", type=int, default=None)
@click.option("--batch-size", type=int, default=None)
@click.option("--lr", type=float, default=None)
@click.option("--smote-k", type=int, default=None)
@click.option("--borderline-m", type=int, default=None)
@click.option("--kmeans-clusters", type=int, default=None)
@click.option("--kmeans-threshold", type=float, default=None)
@click.option("--svm-penalty", type=float, default=None)
@click.option("--max-depth", type=int, default=None)
@click.option("--svg", "emit_svg", is_flag=True, default=None,
              help="Also render a static bar chart (chart.svg).")
def cmd_run_all(config_path, **overrides) -> None:
    """Balance with every method, train the tree, evaluate on the test split."""
    config = _build_config(config_path, **overrides)
    rows = run_all(config)
    click.echo(results_table(rows), nl=False)
    click.echo(f"artifacts under {config.results_dir()}")
    if all(isinstance(outcome, str) for _, outcome in rows):
        raise TrainingDiverged("every algorithm row failed")


@cli.command("count")
@CONFIG_OPTION
@click.option("--feature-dim", type=int, default=123,
              help="Input width (123 = padded, 122 = raw standard encoding).")
@click.option("--latent-dim", type=int, default=None)
@click.option("--hidden", "hidden_widths", default=None, callback=_parse_widths,
              help="Comma-separated hidden widths.")
def cmd_count(config_path, feature_dim, **overrides) -> None:
    """Print the parameter/FLOP table under both counting conventions."""
    config = _build_config(config_path, **overrides)
    click.echo(count_report(config, feature_dim=feature_dim), nl=False)


@cli.command("report")
@CONFIG_OPTION
@click.option("--results-dir", default=None,
              help="Directory holding the per-algorithm report JSONs.")
def cmd_report(config_path, results_dir) -> None:
    """Re-print the results table from stored report files."""
    config = _build_config(config_path)
    directory = Path(results_dir) if results_dir else config.results_dir()
    rows = load_reports(directory)
    click.echo(manifest_line(manifest_for(config, "report")))
    click.echo(results_table(rows), nl=False)


def main(argv=None) -> int:
    try:
        cli.main(args=argv, standalone_mode=False)
        return EXIT_OK
    except click.exceptions.Exit as exc:
        return int(exc.exit_code)
    except click.UsageError as exc:
        click.echo(f"usage error: {exc.format_message()}", err=True)
        return EXIT_USAGE
    # an OSError here is a path the run cannot read or write, such as out/models
    # being a file; its text names the path
    except (DataError, LabelError, ShapeError, OSError) as exc:
        click.echo(f"data error: {exc}", err=True)
        return EXIT_DATA
    except TrainingDiverged as exc:
        click.echo(f"training failure: {exc}", err=True)
        return EXIT_TRAINING


if __name__ == "__main__":
    sys.exit(main())
