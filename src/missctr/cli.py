"""Command-line entry point.

One binary, subcommand style: synth, ingest, train, eval, sweep,
robustness, gradcheck.  Configuration comes from a flat key-value file
(--config), overridden by per-key flags; every artifact-producing run
writes the resolved configuration beside its outputs so a run can be
reproduced from the artifact directory alone.

Exit codes: 0 success, 1 configuration error, 2 data error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from . import data as dt
from .errors import ConfigError, DataError, MetricError, NumericalError
from .gradcheck import tiny_instance_check
from .harness import (
    robustness_study,
    run_experiment,
    sweep,
    write_history,
    write_robustness_report,
    write_sweep_report,
    write_telemetry,
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

_TUPLE_KEYS = {"mlp", "enc_interest", "enc_feature"}
_FLOAT_KEYS = {"lr", "alpha_interest", "alpha_feature", "tau"}
_INT_KEYS = {
    "emb_dim", "batch_size", "n_branches", "n_depths", "max_offset",
    "max_len", "epochs", "patience", "seed",
}
_OPT_INT_KEYS = {"n_pairs_interest", "n_pairs_feature"}
_STR_KEYS = {"strategy", "model"}
_BOOL_KEYS = {"grid_mode"}
CONFIG_KEYS = sorted(
    _TUPLE_KEYS | _FLOAT_KEYS | _INT_KEYS | _OPT_INT_KEYS | _STR_KEYS | _BOOL_KEYS
)


def _coerce(key: str, raw):
    """Parse one config value from its text form."""
    if isinstance(raw, bool):
        return raw
    text = str(raw).strip()
    try:
        if key in _TUPLE_KEYS:
            parts = [p for p in text.replace(",", " ").split() if p]
            return tuple(int(p) for p in parts)
        if key in _FLOAT_KEYS:
            return float(text)
        if key in _INT_KEYS:
            return int(text)
        if key in _OPT_INT_KEYS:
            return None if text.lower() == "none" else int(text)
        if key in _BOOL_KEYS:
            low = text.lower()
            if low in ("1", "true", "yes", "on"):
                return True
            if low in ("0", "false", "no", "off"):
                return False
            raise ValueError(f"not a boolean: {text}")
        if key in _STR_KEYS:
            return text
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {exc}") from exc
    raise ConfigError(f"unknown config key: {key}")


def parse_config_file(path: str) -> dict:
    if not os.path.isfile(path):
        raise ConfigError(f"config file not found: {path}")
    out = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
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


def resolve_out_dir(args) -> str:
    out = getattr(args, "out_dir", None) or os.environ.get(OUT_DIR_ENV) or "runs"
    os.makedirs(out, exist_ok=True)
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
            for k, v in cfg.to_dict().items():
                fh.write(f"{k} = {_format_value(v)}\n")
    return path


def _run_meta(verb: str, args, **extra) -> dict:
    meta = {"verb": verb}
    if getattr(args, "dataset", None):
        meta["dataset"] = args.dataset
    if getattr(args, "min_count", 1) not in (None, 1):
        meta["min_count"] = args.min_count
    meta.update(extra)
    return meta


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


def load_dataset(args, cfg: ExperimentConfig) -> tuple[ExperimentConfig, dt.Splits]:
    """A dataset argument is either a raw interaction TSV or a split
    snapshot; the snapshot is recognized by the array container's magic.
    A snapshot fixes max_len: the run adopts it, re-validated, and a
    max_len given in the config file or as a flag must agree with it."""
    path = dataset_path(args)
    with open(path, "rb") as fh:
        if fh.read(len(MAGIC)) != MAGIC:
            log, _ = read_log(path, args.min_count)
            return cfg, dt.build_splits(log, cfg.max_len, cfg.seed)
    splits = dt.load_splits(path)
    cfg = resolve_config(args, {"max_len": splits.max_len})
    if cfg.max_len != splits.max_len:
        raise ConfigError(f"max_len {cfg.max_len} disagrees with the snapshot's max_len "
                          f"{splits.max_len} ({path})")
    return cfg, splits


def dataset_tag(args) -> str:
    path = getattr(args, "dataset", None)
    if not path:
        return "data"
    return os.path.splitext(os.path.basename(path))[0]


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
    out_dir = resolve_out_dir(args)
    log = dt.synth_generate(
        args.n_users, args.n_items, args.n_interests,
        (args.seq_len_min, args.seq_len_max), args.seed,
    )
    path = os.path.join(out_dir, "synth.tsv")
    dt.write_log_tsv(log, path)
    write_resolved_config(out_dir, None, {
        "verb": "synth",
        "n_users": args.n_users,
        "n_items": args.n_items,
        "n_interests": args.n_interests,
        "seq_len_min": args.seq_len_min,
        "seq_len_max": args.seq_len_max,
        "seed": args.seed,
    })
    print(f"wrote {log.n_records} interactions for {len(log.users)} users to {path}")
    return 0


def cmd_ingest(args) -> int:
    cfg = resolve_config(args)
    out_dir = resolve_out_dir(args)
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
    path = os.path.join(out_dir, "splits.txt")
    dt.save_splits(splits, path)
    write_resolved_config(out_dir, cfg, _run_meta("ingest", args))
    sizes = " ".join(f"{f}={splits.vocab_sizes[f]}" for f in splits.fields)
    print(f"read {n_raw} interactions ({log.n_skipped} lines skipped)")
    print(f"splits: train={splits.train.n} valid={splits.valid.n} test={splits.test.n} "
          f"(excluded {splits.n_short_users} short-history users)")
    print(f"vocab sizes: {sizes}")
    print(f"wrote {path}")
    return 0


def cmd_train(args) -> int:
    cfg = resolve_config(args)
    out_dir = resolve_out_dir(args)
    cfg, splits = load_dataset(args, cfg)
    result, test_report = run_experiment(cfg, splits)
    print(model_summary(result.model))
    write_history(os.path.join(out_dir, "history.tsv"), result)
    write_telemetry(os.path.join(out_dir, "telemetry.tsv"), result)
    save_checkpoint(os.path.join(out_dir, "checkpoint.bin"), result.model)
    write_resolved_config(out_dir, cfg, _run_meta("train", args))
    print(f"best epoch {result.best_epoch}: val_auc={result.best_val_auc!r}")
    print(f"test: auc={test_report.auc!r} logloss={test_report.logloss!r}")
    print(f"artifacts in {out_dir}")
    return 0


def cmd_eval(args) -> int:
    cfg = resolve_config(args)
    out_dir = resolve_out_dir(args)
    cfg, splits = load_dataset(args, cfg)
    if not args.checkpoint:
        raise ConfigError("--checkpoint is required for eval")
    if not os.path.isfile(args.checkpoint):
        raise ConfigError(f"checkpoint not found: {args.checkpoint}")
    model = build_model(cfg, splits)
    load_checkpoint(args.checkpoint, model)
    part = getattr(splits, args.split)
    scores = predict_scores(model, part, cfg.batch_size)
    report = evaluate_scores(scores, part.label)
    write_resolved_config(
        out_dir, cfg,
        _run_meta("eval", args, checkpoint=args.checkpoint, split=args.split),
    )
    with open(os.path.join(out_dir, "metrics.txt"), "w", newline="\n") as fh:
        fh.write(f"split = {args.split}\n")
        fh.write(f"auc = {report.auc!r}\n")
        fh.write(f"logloss = {report.logloss!r}\n")
        fh.write(f"n_pos = {report.n_pos}\n")
        fh.write(f"n_neg = {report.n_neg}\n")
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
    return vals


def cmd_sweep(args) -> int:
    cfg = resolve_config(args)
    out_dir = resolve_out_dir(args)
    cfg, splits = load_dataset(args, cfg)
    grid = _parse_list(args.grid, "--grid", float)
    seeds = _parse_list(args.seeds, "--seeds", int)
    report = sweep(args.axis, grid, cfg, splits, seeds)
    path = write_sweep_report(report, out_dir, dataset_tag(args))
    write_resolved_config(
        out_dir, cfg,
        _run_meta("sweep", args, axis=args.axis, grid=grid, seeds=seeds),
    )
    for row in report.rows:
        print(f"{args.axis}={row.value!r}: auc={row.auc_mean!r} (+/- {row.auc_std!r})")
    print(f"wrote {path}")
    return 0


def cmd_robustness(args) -> int:
    cfg = resolve_config(args)
    out_dir = resolve_out_dir(args)
    cfg, splits = load_dataset(args, cfg)
    rates = _parse_list(args.rates, "--rates", float)
    seeds = _parse_list(args.seeds, "--seeds", int)
    cfg_miss = replace(cfg, model="din-miss")
    cfg_base = replace(cfg, model="din")
    report = robustness_study(args.kind, rates, cfg_base, cfg_miss, splits, seeds)
    path = write_robustness_report(report, out_dir, dataset_tag(args))
    write_resolved_config(
        out_dir, cfg,
        _run_meta("robustness", args, kind=args.kind, rates=rates, seeds=seeds),
    )
    for row in report.rows:
        print(f"rate={row.rate!r}: base={row.auc_base!r} miss={row.auc_miss!r} "
              f"ri={row.ri!r}")
    print(f"wrote {path}")
    return 0


def cmd_gradcheck(args) -> int:
    report = tiny_instance_check()
    for line in report.lines():
        print(line)
    n_components = sum(c.n for c in report.checks)
    status = "pass" if report.ok else "FAIL"
    print(f"gradcheck {status}: max-rel-error {report.worst_rel!r} "
          f"over {n_components} components in {len(report.checks)} parameters")
    if not report.ok:
        raise NumericalError("gradient check failed on the built-in instance")
    return 0


# ---------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    # usage problems are configuration errors (exit 1), not argparse's 2
    def error(self, message):
        raise ConfigError(message)


def _add_config_flags(sp) -> None:
    sp.add_argument("--config", help="flat key-value config file")
    sp.add_argument("--out-dir", help=f"artifact directory (default ${OUT_DIR_ENV} or ./runs)")
    for key in CONFIG_KEYS:
        if key in _BOOL_KEYS:
            sp.add_argument(f"--{key.replace('_', '-')}", dest=key,
                            action="store_true", default=None)
        else:
            sp.add_argument(f"--{key.replace('_', '-')}", dest=key, default=None)


def _add_dataset_flags(sp) -> None:
    sp.add_argument("--dataset", help="interaction TSV or split snapshot")
    sp.add_argument("--min-count", type=int, default=1,
                    help="drop users/items seen fewer times (raw TSV input only)")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="missctr", description="Multi-interest self-supervised CTR training")
    sub = p.add_subparsers(dest="verb", required=True)

    sp = sub.add_parser("synth", parents=[], help="generate a clustered synthetic corpus")
    sp.add_argument("--n-users", type=int, default=2000)
    sp.add_argument("--n-items", type=int, default=500)
    sp.add_argument("--n-interests", type=int, default=5)
    sp.add_argument("--seq-len-min", type=int, default=8)
    sp.add_argument("--seq-len-max", type=int, default=16)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out-dir")
    sp.set_defaults(func=cmd_synth)

    sp = sub.add_parser("ingest", help="build leave-last-out splits from a TSV log")
    _add_config_flags(sp)
    _add_dataset_flags(sp)
    sp.set_defaults(func=cmd_ingest)

    sp = sub.add_parser("train", help="train one model and write artifacts")
    _add_config_flags(sp)
    _add_dataset_flags(sp)
    sp.set_defaults(func=cmd_train)

    sp = sub.add_parser("eval", help="score a checkpoint on one split")
    _add_config_flags(sp)
    _add_dataset_flags(sp)
    sp.add_argument("--checkpoint", help="parameter snapshot from train")
    sp.add_argument("--split", choices=("train", "valid", "test"), default="test")
    sp.set_defaults(func=cmd_eval)

    sp = sub.add_parser("sweep", help="hyperparameter sweep over seeds")
    _add_config_flags(sp)
    _add_dataset_flags(sp)
    sp.add_argument("--axis", choices=("loss_weight", "temperature"), required=True)
    sp.add_argument("--grid", required=True, help="comma-separated values")
    sp.add_argument("--seeds", default="0", help="comma-separated seeds")
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("robustness", help="label sparsity/noise study, base vs full model")
    _add_config_flags(sp)
    _add_dataset_flags(sp)
    sp.add_argument("--kind", choices=("sparsity", "noise"), required=True)
    sp.add_argument("--rates", required=True, help="comma-separated rates")
    sp.add_argument("--seeds", default="0", help="comma-separated seeds")
    sp.set_defaults(func=cmd_robustness)

    sp = sub.add_parser("gradcheck", help="finite-difference check on a built-in instance")
    sp.set_defaults(func=cmd_gradcheck)

    return p


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
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
