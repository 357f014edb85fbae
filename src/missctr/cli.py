"""Command-line entry point.

One binary, subcommand style: synth, ingest, train, eval, sweep,
robustness, gradcheck.  Configuration comes from a flat key-value file
(--config), overridden by per-key flags; every artifact-producing run
writes the resolved configuration beside its outputs so a run can be
reproduced from the artifact directory alone.

Exit codes: 0 success, 1 configuration error or out of memory, 2 data
error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import asdict, fields, replace
from typing import get_type_hints

import numpy as np

from . import data as dt
from .errors import ConfigError, DataError, MetricError, NumericalError
from .gradcheck import tiny_instance_check
from .harness import (
    ROBUSTNESS_KINDS,
    SWEEP_AXES,
    robustness_study,
    run_experiment,
    sweep,
    sweep_runs,
    write_robustness_report,
    write_robustness_runs,
    write_rows,
    write_sweep_report,
)
from .metrics import evaluate_scores
from .serialize import MAGIC
from .trainer import (
    ExperimentConfig,
    MissModel,
    build_model,
    load_checkpoint,
    predict_scores,
    save_checkpoint,
)

OUT_DIR_ENV = "MISS_OUT_DIR"
# synth's integer flags and their defaults; its config.txt records each
SYNTH_DEFAULTS = {
    "n_users": 2000, "n_items": 500, "n_interests": 5,
    "seq_len_min": 8, "seq_len_max": 16, "seed": 0,
}

CONFIG_KEYS = [f.name for f in fields(ExperimentConfig)]
_FIELD_TYPES = get_type_hints(ExperimentConfig)


def _coerce(key: str, raw):
    """Parse one config value from its text form, by its field's type."""
    if key not in _FIELD_TYPES:
        raise ConfigError(f"unknown config key: {key}")
    if isinstance(raw, bool):
        return raw
    kind = _FIELD_TYPES[key]
    text = str(raw).strip()
    try:
        if kind == tuple[int, ...]:
            return tuple(int(p) for p in text.replace(",", " ").split())
        if kind == int | None:
            return None if text.lower() == "none" else int(text)
        if kind is bool:
            low = text.lower()
            if low in ("1", "true", "yes", "on"):
                return True
            if low in ("0", "false", "no", "off"):
                return False
            raise ValueError(f"not a boolean: {text}")
        return kind(text)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {exc}") from exc


def parse_config_file(path: str) -> dict:
    if not os.path.isfile(path):
        raise ConfigError(f"config file not found: {path}")
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ConfigError(
            f"config file is not UTF-8: {path} ({exc.reason} at byte {exc.start})"
        ) from exc
    out = {}
    for lineno, line in enumerate(text.split("\n"), 1):
        s = line.strip()
        if not s or s.startswith("#"):
            continue
        if "=" in s:
            key, _, val = s.partition("=")
        else:
            parts = s.split(None, 1)
            if len(parts) != 2:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, val = parts
        key = key.strip().replace("-", "_")
        out[key] = _coerce(key, val.strip())
    return out


def resolve_config(args, defaults: dict | None = None) -> ExperimentConfig:
    """Defaults (ExperimentConfig's, then `defaults`), then config file,
    then explicit flags."""
    values = dict(defaults or {})
    if getattr(args, "config", None):
        values.update(parse_config_file(args.config))
    for key in CONFIG_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = _coerce(key, flag)
    try:
        cfg = ExperimentConfig(**values)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc
    return cfg.validate()


def out_dir_arg(text: str) -> str:
    """--out-dir's parse type: the flag, else $MISS_OUT_DIR, else runs,
    refused before any work unless its nearest existing ancestor is a
    writable directory."""
    out = near = text or os.environ.get(OUT_DIR_ENV) or "runs"
    while not os.path.exists(near):
        near = os.path.dirname(os.path.abspath(near))
    if not (os.path.isdir(near) and os.access(near, os.W_OK)):
        raise ConfigError(f"--out-dir {out}: {near} is not a writable directory")
    return out


def _format_value(v) -> str:
    if v is None:
        return "none"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, (list, tuple)):
        return ",".join(str(x) for x in v)
    return str(v)


def write_resolved_config(out_dir: str, cfg: ExperimentConfig | None, meta: dict) -> str:
    """Reproducibility record beside the artifacts.  Config keys are
    plain lines (the file feeds straight back into --config); run
    provenance that is not a config key goes into comments."""
    path = os.path.join(out_dir, "config.txt")
    with open(path, "w", newline="\n") as fh:
        for k, v in meta.items():
            fh.write(f"# {k} = {_format_value(v)}\n")
        if cfg is not None:
            for k, v in asdict(cfg).items():
                fh.write(f"{k} = {_format_value(v)}\n")
    return path


def open_run(args, cfg: ExperimentConfig | None, **extra) -> str:
    """Make the run's out dir and write its config.txt: the verb, the dataset,
    a min_count above 1 and `extra` as provenance comments.  A verb calls it
    once its work is done, so a failed run leaves no out dir."""
    os.makedirs(args.out_dir, exist_ok=True)
    meta = {"verb": args.verb}
    if getattr(args, "dataset", None):
        meta["dataset"] = args.dataset
    if getattr(args, "min_count", 1) > 1:
        meta["min_count"] = args.min_count
    write_resolved_config(args.out_dir, cfg, {**meta, **extra})
    return args.out_dir


def dataset_path(args) -> str:
    path = getattr(args, "dataset", None)
    if not path:
        raise ConfigError("--dataset is required for this command")
    if not os.path.isfile(path):
        raise DataError(f"dataset not found: {path}")
    return path


def read_log(path: str, min_count: int) -> tuple[dt.InteractionLog, dt.FilterStats | None]:
    """The raw-TSV path of every dataset verb: ingest the log, then drop
    infrequent users and items when min_count is above 1 (the stats are
    None otherwise).  A min_count below 1 is a ConfigError, raised
    before the file is read."""
    if min_count < 1:
        raise ConfigError(f"--min-count must be >= 1, got {min_count}")
    log = dt.ingest_log(path)
    if min_count > 1:
        return dt.filter_infrequent(log, min_count)
    return log, None


def load_dataset(args, check=lambda cfg: None) -> tuple[ExperimentConfig, dt.Splits]:
    """Resolve the run's config, pass it to `check`, and read its
    dataset, either a raw interaction TSV or a split snapshot; the
    snapshot is recognized by the array container's magic.

    A snapshot fixes max_len, so it is read first and its max_len is the
    default the config is validated against; a max_len given in the
    config file or as a flag must agree with it.  Otherwise the config
    is validated and checked before the dataset is looked at, so a
    config error (exit 1) comes before a missing or unreadable file
    (exit 2)."""
    path = getattr(args, "dataset", None)
    if path and os.path.isfile(path):
        with open(path, "rb") as fh:
            is_snapshot = fh.read(len(MAGIC)) == MAGIC
        if is_snapshot:
            if args.min_count != 1:  # the snapshot was filtered when it was ingested
                raise ConfigError(f"--min-count {args.min_count} is for a raw log, not a snapshot")
            splits = dt.load_splits(path)
            cfg = resolve_config(args, {"max_len": splits.max_len})
            if cfg.max_len != splits.max_len:
                raise ConfigError(f"max_len {cfg.max_len} disagrees with the snapshot's max_len "
                                  f"{splits.max_len} ({path})")
            check(cfg)
            return cfg, splits
    cfg = resolve_config(args)
    check(cfg)
    log, _ = read_log(dataset_path(args), args.min_count)
    return cfg, dt.build_splits(log, cfg.max_len, cfg.seed)


def dataset_tag(args) -> str:
    return os.path.splitext(os.path.basename(args.dataset))[0]


# ---------------------------------------------------------------------------
# model summary


# (label, parameter-name prefix) per component, in print order
SUMMARY_GROUPS = (
    ("embedding tables", "emb:"),
    ("attention unit", "base:lau_"),
    ("prediction mlp", "base:mlp"),
    ("conv bank", "ssl:conv_"),
    ("interest encoder", "ssl:enc_int_"),
    ("feature encoder", "ssl:enc_feat_"),
)


def model_summary(model: MissModel) -> str:
    """Parameter counts per component, summed over the built model's
    parameters by name prefix."""
    sizes = {name: p.data.size for name, p in model.parameters().items()}
    lines = [
        f"{label:<18} {sum(n for k, n in sizes.items() if k.startswith(prefix)):>10d}"
        for label, prefix in SUMMARY_GROUPS
    ]
    lines.append(f"{'total':<18} {sum(sizes.values()):>10d}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# verbs


def cmd_synth(args) -> int:
    log = dt.synth_generate(
        args.n_users, args.n_items, args.n_interests,
        (args.seq_len_min, args.seq_len_max), args.seed,
    )
    out_dir = open_run(args, None, **{k: getattr(args, k) for k in SYNTH_DEFAULTS})
    path = os.path.join(out_dir, "synth.tsv")
    dt.write_log_tsv(log, path)
    print(f"wrote {log.n_records} interactions for {len(log.users)} users to {path}")
    return 0


def cmd_ingest(args) -> int:
    cfg = resolve_config(args)
    log, stats = read_log(dataset_path(args), args.min_count)
    n_raw = log.n_records
    if stats is not None:
        n_raw += stats.records_dropped  # every dropped record is counted once
        print(
            f"frequency filter (min_count={args.min_count}): "
            f"{stats.rounds} rounds, dropped {stats.users_dropped} users, "
            f"{stats.records_dropped} records"
        )
    splits = dt.build_splits(log, cfg.max_len, cfg.seed)
    path = os.path.join(open_run(args, cfg), "splits.txt")
    dt.save_splits(splits, path)
    sizes = " ".join(f"{f}={splits.vocab_sizes[f]}" for f in splits.fields)
    print(f"read {n_raw} interactions ({log.n_skipped} lines skipped)")
    print(f"splits: train={splits.train.n} valid={splits.valid.n} test={splits.test.n} "
          f"(excluded {splits.n_short_users} short-history users)")
    print(f"vocab sizes: {sizes}")
    print(f"wrote {path}")
    return 0


def cmd_train(args) -> int:
    cfg, splits = load_dataset(args)
    result, test_report = run_experiment(cfg, splits)
    out_dir = open_run(args, cfg)
    print(model_summary(result.model))
    write_rows(os.path.join(out_dir, "history.tsv"), result.history)
    write_rows(os.path.join(out_dir, "telemetry.tsv"), result.telemetry)
    save_checkpoint(os.path.join(out_dir, "checkpoint.bin"), result.model)
    print(f"best epoch {result.best_epoch}: val_auc={result.best_val_auc!r}")
    print(f"test: auc={test_report.auc!r} logloss={test_report.logloss!r}")
    print(f"artifacts in {out_dir}")
    return 0


def cmd_eval(args) -> int:
    if not args.checkpoint:
        raise ConfigError("--checkpoint is required for eval")
    if not os.path.isfile(args.checkpoint):
        raise ConfigError(f"checkpoint not found: {args.checkpoint}")
    cfg, splits = load_dataset(args)
    model = build_model(cfg, splits)
    load_checkpoint(args.checkpoint, model)
    part = getattr(splits, args.split)
    scores = predict_scores(model, part, cfg.batch_size)
    report = evaluate_scores(scores, part.label)
    out_dir = open_run(args, cfg, checkpoint=args.checkpoint, split=args.split)
    with open(os.path.join(out_dir, "metrics.txt"), "w", newline="\n") as fh:
        for k, v in {"split": args.split, **asdict(report)}.items():
            fh.write(f"{k} = {_format_value(v)}\n")
    print(f"{args.split}: auc={report.auc!r} logloss={report.logloss!r} "
          f"({report.n_pos} pos, {report.n_neg} neg)")
    return 0


def _parse_list(text: str, flag: str, cast: type) -> list:
    """A comma- or space-separated flag value, each item through cast."""
    try:
        vals = [cast(p) for p in text.replace(",", " ").split()]
    except ValueError as exc:
        raise ConfigError(f"bad {flag} list: {exc}") from exc
    if not vals:
        raise ConfigError(f"{flag} list is empty")
    if repeats := [v for i, v in enumerate(vals) if v in vals[:i]]:
        raise ConfigError(f"{flag} repeats {repeats[0]!r}")  # it would train the same runs again
    return vals


def cmd_sweep(args) -> int:
    grid = _parse_list(args.grid, "--grid", float)
    seeds = _parse_list(args.seeds, "--seeds", int)
    cfg, splits = load_dataset(args, lambda cfg: sweep_runs(args.axis, grid, cfg, seeds))
    report = sweep(args.axis, grid, cfg, splits, seeds)
    out_dir = open_run(args, cfg, axis=args.axis, grid=grid, seeds=seeds)
    path = write_sweep_report(report, out_dir, dataset_tag(args))
    for row in report.rows:
        print(f"{args.axis}={row.value!r}: auc={row.auc_mean!r} (+/- {row.auc_std!r})")
    print(f"wrote {path}")
    return 0


def cmd_robustness(args) -> int:
    rates = _parse_list(args.rates, "--rates", float)
    seeds = _parse_list(args.seeds, "--seeds", int)

    def check(cfg):  # the config is the full model, and the base model is din
        if cfg.model != "din-miss":
            raise ConfigError(f"robustness compares din with din-miss: got model = {cfg.model}")
        for model in (replace(cfg, model="din"), cfg):
            sweep_runs(args.kind, rates, model, seeds)

    cfg, splits = load_dataset(args, check)
    report = robustness_study(args.kind, rates, replace(cfg, model="din"), cfg, splits, seeds)
    out_dir = open_run(args, cfg, kind=args.kind, rates=rates, seeds=seeds)
    paths = [write(report, out_dir, dataset_tag(args))
             for write in (write_robustness_report, write_robustness_runs)]
    for row in report.rows:
        print(f"rate={row.rate!r}: base={row.auc_base!r} miss={row.auc_miss!r} "
              f"ri={row.ri!r}")
        n, wins = len(row.gaps), sum(g > 0 for g in row.gaps)
        print(f"  mean gap={sum(row.gaps) / n!r} wins {wins}/{n}")
    print("\n".join(f"wrote {path}" for path in paths))
    return 0


def cmd_gradcheck(args) -> int:
    report = tiny_instance_check()
    for line in report.lines():
        print(line)
    n_components = sum(c.n for c in report.checks)
    n_unchecked = sum(not c.checked for c in report.checks)
    status = "pass" if report.ok else "FAIL"
    print(f"gradcheck {status}: max-rel-error {report.worst_rel!r} "
          f"over {n_components} components in {len(report.checks)} parameters, "
          f"{n_unchecked} unchecked")
    if not report.ok:
        raise NumericalError("gradient check failed on the built-in instance")
    return 0


# ---------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    # usage problems are configuration errors (exit 1), not argparse's 2
    def error(self, message):
        raise ConfigError(message)


def _dataset_verb(sub, name: str, help_text: str, func):
    """A verb that reads a dataset: --config, --out-dir, one flag per
    config key, --dataset and --min-count."""
    sp = sub.add_parser(name, help=help_text)
    sp.add_argument("--config", help="flat key-value config file")
    sp.add_argument("--out-dir", type=out_dir_arg, default="",
                    help=f"artifact directory (default ${OUT_DIR_ENV} or ./runs)")
    for key in CONFIG_KEYS:
        if _FIELD_TYPES[key] is bool:
            sp.add_argument(f"--{key.replace('_', '-')}", dest=key,
                            action="store_true", default=None)
        else:
            sp.add_argument(f"--{key.replace('_', '-')}", dest=key, default=None)
    sp.add_argument("--dataset", help="interaction TSV or split snapshot")
    sp.add_argument("--min-count", type=int, default=1,
                    help="drop users/items seen fewer times (raw TSV input only)")
    sp.set_defaults(func=func)
    return sp


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="missctr", description="Multi-interest self-supervised CTR training")
    sub = p.add_subparsers(dest="verb", required=True)

    sp = sub.add_parser("synth", parents=[], help="generate a clustered synthetic corpus")
    for key, default in SYNTH_DEFAULTS.items():
        sp.add_argument(f"--{key.replace('_', '-')}", type=int, default=default)
    sp.add_argument("--out-dir", type=out_dir_arg, default="")
    sp.set_defaults(func=cmd_synth)

    _dataset_verb(sub, "ingest", "build leave-last-out splits from a TSV log", cmd_ingest)
    _dataset_verb(sub, "train", "train one model and write artifacts", cmd_train)

    sp = _dataset_verb(sub, "eval", "score a checkpoint on one split", cmd_eval)
    sp.add_argument("--checkpoint", help="parameter snapshot from train")
    sp.add_argument("--split", choices=("train", "valid", "test"), default="test")

    sp = _dataset_verb(sub, "sweep", "hyperparameter sweep over seeds", cmd_sweep)
    sp.add_argument("--axis", choices=SWEEP_AXES, required=True)
    sp.add_argument("--grid", required=True, help="comma-separated values")
    sp.add_argument("--seeds", default="0", help="comma-separated seeds")

    sp = _dataset_verb(sub, "robustness", "label sparsity/noise study, base vs full model",
                       cmd_robustness)
    sp.add_argument("--kind", choices=ROBUSTNESS_KINDS, required=True)
    sp.add_argument("--rates", required=True, help="comma-separated rates")
    sp.add_argument("--seeds", default="0", help="comma-separated seeds")

    sp = sub.add_parser("gradcheck", help="finite-difference check on a built-in instance")
    sp.set_defaults(func=cmd_gradcheck)

    return p


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        with np.errstate(all="ignore"):  # a failure prints its error line alone
            return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # a size key too large for this host
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1
    except (DataError, MetricError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
