"""Command-line front end: train, convert, eval, analyze, verify-theorem,
plus a generator for the built-in synthetic digit set.

Configuration comes from an optional flat ``key=value`` file (``--config``)
with explicit command-line flags taking precedence.  Every key must name an
option of the command; its value is typed by that option, and defaults live
only in the option definitions.  Exit codes:

    0   success
    2   configuration problem (bad flags, bad config file, bad parameters)
    3   data problem (malformed dataset / checkpoint bytes, or a path that
        cannot be read or written)
    4   invariant violation (conversion failure, training divergence,
        theorem counterexample)
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict
from functools import partial
from pathlib import Path

import numpy as np

from .analysis import (
    error_type_I_distribution,
    error_type_II_distribution,
    random_theorem_sweep,
    srp_effect_report,
    verify_theorem1,
    write_report_csv,
    write_report_json,
)
from .checkpoint import load_checkpoint, save_checkpoint
from .datasets import (
    DatasetHandle,
    load_csv_dataset,
    load_idx_pair,
    materialize_idx,
    standardization_stats,
    standardize,
    synthetic_digits,
)
from .engine import TraceRecorder, convert, snn_forced_phi, snn_simulate, srp_inference
from .errors import (
    ConversionError,
    DataFormatError,
    DataValidationError,
    ParameterError,
    ShapeError,
    TrainingDivergenceError,
    whole,
)
from .network import ann_forward, cnn_preset, map_blocks, mlp_preset
from .output import check_output, open_output, write_json
from .training import TrainConfig, accuracy, init_network, prepare_inputs, train

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_INVARIANT = 4


# ---------------------------------------------------------------------------
# config file


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ParameterError(f"expected a boolean, got {text!r}")


def _parse_list(kind, what: str, text: str) -> tuple:
    try:
        return tuple(kind(part) for part in str(text).split(","))
    except ValueError:
        raise ParameterError(f"expected comma-separated {what}, got {text!r}") from None


_parse_int_list = partial(_parse_list, int, "integers")
_parse_float_list = partial(_parse_list, float, "numbers")


def parse_config_file(path) -> dict:
    """Flat ``key=value`` lines; ``#`` starts a comment; blank lines skipped."""
    p = Path(path)
    if not p.exists():
        raise ParameterError(f"config file not found: {path}")
    values = {}
    for line_no, line in enumerate(p.read_text().splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ParameterError(f"{path}:{line_no}: expected key=value, got {stripped!r}")
        key, _, value = stripped.partition("=")
        values[key.strip().replace("-", "_")] = value.strip()
    return values


class _ConfigFile(argparse.Action):
    """``--config PATH``: the file's values become the command's defaults,
    typed by the command's own options, so explicit flags still win once
    the arguments are parsed again (see :func:`main`)."""

    def __call__(self, parser, namespace, path, option_string=None):
        options = {a.dest: a for a in parser._actions
                   if a.option_strings and a.dest not in ("help", "config")}
        defaults = {}
        for key, raw in parse_config_file(path).items():
            option = options.get(key)
            if option is None:
                raise ParameterError(f"{path}: unknown key {key!r} for {parser.prog}")
            try:
                parse = _parse_bool if option.nargs == 0 else option.type or str
                defaults[key] = parse(raw)
            except (ValueError, ParameterError) as exc:
                raise ParameterError(f"{path}: bad value for {key!r}: {exc}") from None
        parser.set_defaults(**defaults)
        setattr(namespace, self.dest, path)


# ---------------------------------------------------------------------------
# dataset plumbing


def _load_dataset(path, split: str) -> DatasetHandle:
    p = Path(path)
    if p.is_dir():
        images = p / f"{split}-images-idx3-ubyte"
        labels = p / f"{split}-labels-idx1-ubyte"
        if not images.exists() or not labels.exists():
            raise FileNotFoundError(f"no IDX pair for split {split!r} under {p}")
        return load_idx_pair(images, labels, name=split)
    if not p.exists():
        raise FileNotFoundError(f"dataset not found: {path}")
    if p.suffix == ".csv":
        return load_csv_dataset(p, name=p.stem)
    raise DataFormatError(f"cannot tell dataset format from {path!r}; "
                          "pass a directory of IDX files or a .csv file")


def _model_inputs(net, handle: DatasetHandle) -> np.ndarray:
    images = handle.images
    if net.normalization:
        images = standardize(images, net.normalization)
    return prepare_inputs(images, net.input_shape)


def _scores_accuracy(scores: np.ndarray, labels: np.ndarray) -> float:
    return float(np.mean(np.argmax(scores, axis=1) == labels))


# ---------------------------------------------------------------------------
# commands


def _require(args, *names) -> None:
    for name in names:
        if getattr(args, name) is None:
            raise ParameterError(f"{args.command}: --{name} is required")


def _limited(handle: DatasetHandle, limit) -> DatasetHandle:
    return handle if limit is None else handle.subset(slice(0, whole(limit, "--limit")))


def _load_model_and_data(args):
    """``(net, snn, handle, x)`` for the commands that run a model on a split."""
    _require(args, "model", "data")
    net, _ = load_checkpoint(args.model)
    snn = convert(net)
    handle = _limited(_load_dataset(args.data, args.split), args.limit)
    return net, snn, handle, _model_inputs(net, handle)


def cmd_make_data(args) -> int:
    _require(args, "out")
    train_set = synthetic_digits(args.train_count, seed=args.seed, noise=args.noise)
    test_set = synthetic_digits(args.test_count, seed=args.seed + 1, noise=args.noise)
    for prefix, handle in (("train", train_set), ("test", test_set)):
        image_path, label_path = materialize_idx(handle, args.out, prefix)
        print(f"wrote {image_path}")
        print(f"wrote {label_path}")
    return EXIT_OK


def cmd_train(args) -> int:
    _require(args, "data")
    if args.arch not in ("mlp", "cnn"):
        raise ParameterError(f"unknown architecture {args.arch!r}")

    handle = _limited(_load_dataset(args.data, args.split), args.limit)
    preset = mlp_preset if args.arch == "mlp" else cnn_preset
    net = preset(args.quant_steps)
    net.normalization = standardization_stats(handle.images)
    init_network(net, args.seed)

    # Training needs only the standardized copy: let the raw images go.
    x, labels = _model_inputs(net, handle), handle.labels
    del handle
    train_cfg = TrainConfig(
        learning_rate=args.learning_rate,
        momentum=args.momentum,
        weight_decay=args.weight_decay,
        epochs=args.epochs,
        batch_size=args.batch_size,
    )
    history = train(net, x, labels, train_cfg, seed=args.seed)
    for epoch, (loss, acc) in enumerate(zip(history.loss, history.train_accuracy)):
        print(f"epoch {epoch + 1}/{train_cfg.epochs} loss {loss:.4f} acc {acc:.4f}")

    save_checkpoint(net, args.out, model_type="ann")
    final = accuracy(net, x, labels)
    print(f"train accuracy {final:.4f}")
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_convert(args) -> int:
    _require(args, "model")
    net, header = load_checkpoint(args.model)
    if header.get("model_type") != "ann":
        raise ParameterError(f"{args.model}: expected an ANN checkpoint, "
                             f"got model_type={header.get('model_type')!r}")
    snn = convert(net)
    save_checkpoint(net, args.out, model_type="snn")
    print(f"wrote {args.out}")
    if args.report:
        write_json(args.report, {"thetas": snn.thetas, "v_init": [0.5 * t for t in snn.thetas]})
        print(f"wrote {args.report}")
    return EXIT_OK


def _write_metrics(path, rows) -> None:
    # Not output.write_csv: eval.csv's lines end in "\n", and its bytes are pinned.
    with open_output(path, newline="") as fh:
        fh.write("T,acc_ann,acc_snn,acc_srp\n")
        for timesteps, acc_ann, acc_snn, acc_srp in rows:
            srp_field = "" if acc_srp is None else f"{acc_srp:.6f}"
            fh.write(f"{timesteps},{acc_ann:.6f},{acc_snn:.6f},{srp_field}\n")


def _block_scores(args, net, snn, n: int, block: np.ndarray) -> list:
    """ANN logits, then plain and (with ``--srp``) SRP scores per ``--timesteps`` value
    on axis 1, of a block's ``n`` real rows; the runs at the largest T give the rest."""
    x, t_max, index = block[:n], max(args.timesteps), [t - 1 for t in args.timesteps]
    srp = srp_inference(snn, x, args.tau, t_max) if args.srp else None
    if args.even_timing:
        plain = np.stack([snn_forced_phi(snn, x, t)[0] for t in args.timesteps], axis=1)
    else:
        run = snn_simulate(snn, x, t_max) if srp is None else srp.plain
        plain = run.prefix_scores[index].swapaxes(0, 1)
    scores = [ann_forward(net, block)[0], plain]
    return scores if srp is None else scores + [srp.prefix_scores[index].swapaxes(0, 1)]


def cmd_eval(args) -> int:
    net, snn, handle, x = _load_model_and_data(args)
    for timesteps in args.timesteps:
        whole(timesteps, "timesteps")
    if args.trace and not 0 <= args.trace_sample < len(handle):
        raise ParameterError(f"trace sample {args.trace_sample} outside dataset of {len(handle)}")
    for path in filter(None, (args.out, args.trace)):
        check_output(path)

    # Only scores are kept: each block's runs are freed before the process
    # that ran it (this one or a forked worker) starts another block.
    ann, plain, *srp = map_blocks(lambda n, block: _block_scores(args, net, snn, n, block), x,
                                  fork=True)
    acc_ann = _scores_accuracy(ann, handle.labels)
    rows = []
    for k, timesteps in enumerate(args.timesteps):
        acc_snn = _scores_accuracy(plain[:, k], handle.labels)
        acc_srp = _scores_accuracy(srp[0][:, k], handle.labels) if srp else None
        rows.append((timesteps, acc_ann, acc_snn, acc_srp))
        srp_text = "" if acc_srp is None else f" srp {acc_srp:.4f}"
        print(f"T={timesteps} ann {acc_ann:.4f} snn {acc_snn:.4f}{srp_text}")

    _write_metrics(args.out, rows)
    print(f"wrote {args.out}")

    if args.trace:
        recorder = TraceRecorder()
        snn_simulate(snn, x[[args.trace_sample]], args.timesteps[0], trace=recorder)
        recorder.write_csv(args.trace)
        print(f"wrote {args.trace}")
    return EXIT_OK


def cmd_analyze(args) -> int:
    _, snn, _, x = _load_model_and_data(args)
    out_dir = Path(args.out)
    check_output(out_dir / "type_I.csv")

    # As in eval, one block at a time; a block leaves only its runs' spike counts.
    def block_counts(n, block):
        run = (srp_inference(snn, block[:n], args.tau, args.timesteps) if args.srp
               else snn_simulate(snn, block[:n], args.timesteps))
        return (run.plain.counts if run.plain else []) + run.counts

    counts = map_blocks(block_counts, x, fork=True)
    plain, masked = counts[:len(snn.if_stages)], counts[len(snn.if_stages):]
    # The SRP effect's plain half is the Type II report: one ANN chain serves both.
    effect = srp_effect_report(snn, x, plain, masked, args.timesteps) if args.srp else None
    reports = {
        "type_I": error_type_I_distribution(snn, x, plain, args.timesteps),
        "type_II": (error_type_II_distribution(snn, x, plain, args.timesteps)
                    if effect is None else effect.before),
    }
    for name, report in reports.items():
        csv_path = out_dir / f"{name}.csv"
        json_path = out_dir / f"{name}.json"
        write_report_csv(report, csv_path)
        write_report_json(report, json_path)
        print(f"wrote {csv_path}")
        print(f"wrote {json_path}")

    if args.srp:
        for name, report in (("srp_before", effect.before), ("srp_after", effect.after)):
            write_report_csv(report, out_dir / f"{name}.csv")
            print(f"wrote {out_dir / name}.csv")
        write_json(out_dir / "srp_effect.json",
                   {"tau": args.tau, "timesteps": args.timesteps, **asdict(effect)})
        print(f"wrote {out_dir / 'srp_effect.json'}")
    return EXIT_OK


def cmd_verify_theorem(args) -> int:
    summary: dict
    if args.weights is not None:
        if args.counts is None:
            raise ParameterError("--counts is required when --weights is given")
        if len(args.timesteps) != 1:
            raise ParameterError(f"--weights takes one --timesteps, got {list(args.timesteps)}")
        timesteps = args.timesteps[0]
        result = verify_theorem1(args.weights, timesteps, args.counts, theta=args.theta)
        total, violations, witnesses = len(result), result.violations, result.witnesses
        print(f"instance: weights={list(args.weights)} counts={list(args.counts)} "
              f"T={timesteps} theta={args.theta}")
        print(f"checked {total} spike-timing placements, {violations} violations")
        summary = {"mode": "instance", "placements": total, "violations": violations,
                   "a": result.a}
    else:
        if args.theta != 1.0:
            raise ParameterError("--theta applies only with --weights; the sweep checks theta=1")
        if args.counts is not None:
            raise ParameterError("--counts applies only with --weights")
        total, violations, witnesses = random_theorem_sweep(args.draws, args.timesteps,
                                                            seed=args.seed)
        print(f"checked {total} placements over {args.draws} draws x T in "
              f"{list(args.timesteps)}, {violations} violations")
        summary = {"mode": "sweep", "draws": args.draws, "placements": total,
                   "violations": violations}

    for bad in witnesses[:5]:
        print(f"violation: timings={bad.timings} phi={bad.phi} "
              f"v_final={bad.v_final} a={bad.a} clause={bad.clause}",
              file=sys.stderr)
    if args.out:
        write_json(args.out, summary)
        print(f"wrote {args.out}")
    return EXIT_INVARIANT if violations else EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="snnconv",
        description="Train quantized-activation networks, convert them to "
                    "spiking networks, and analyze spike-timing errors.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, out=None):
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", action=_ConfigFile,
                       help="flat key=value config file; flags win over it")
        p.add_argument("--out", default=out)
        p.set_defaults(func=func)
        return p

    def data_options(p, split):
        p.add_argument("--data", default=None)
        p.add_argument("--split", default=split)

    p = command("make-data", cmd_make_data, "generate the synthetic digit set")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--train-count", type=int, default=2000, dest="train_count")
    p.add_argument("--test-count", type=int, default=500, dest="test_count")
    p.add_argument("--noise", type=float, default=0.15)

    p = command("train", cmd_train, "train a quantized-activation network", out="model.ckpt")
    data_options(p, "train")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--arch", default="mlp")
    p.add_argument("--quant-steps", type=int, default=4, dest="quant_steps")
    p.add_argument("--epochs", type=int, default=20)
    p.add_argument("--batch-size", type=int, default=64, dest="batch_size")
    p.add_argument("--learning-rate", type=float, default=0.1, dest="learning_rate")
    p.add_argument("--momentum", type=float, default=0.9)
    p.add_argument("--weight-decay", type=float, default=5e-4, dest="weight_decay")
    p.add_argument("--limit", type=int, default=None)

    p = command("convert", cmd_convert, "convert a trained network to spiking form",
                out="model-snn.ckpt")
    p.add_argument("--model", default=None)
    p.add_argument("--report", default=None, help="also write a conversion report JSON")

    p = command("eval", cmd_eval, "evaluate accuracy over timestep counts", out="metrics.csv")
    p.add_argument("--model", default=None)
    data_options(p, "test")
    p.add_argument("--timesteps", type=_parse_int_list, default=(1, 2, 4, 8))
    p.add_argument("--tau", type=int, default=4)
    p.add_argument("--srp", action="store_true")
    p.add_argument("--even-timing", action="store_true", dest="even_timing",
                   help="replace simulation by forced even timing")
    p.add_argument("--limit", type=int, default=None)
    p.add_argument("--trace", default=None, help="write a per-step trace CSV")
    p.add_argument("--trace-sample", type=int, default=0, dest="trace_sample")

    p = command("analyze", cmd_analyze, "emit spike-timing error reports", out="analysis")
    p.add_argument("--model", default=None)
    data_options(p, "test")
    p.add_argument("--timesteps", type=int, default=1)
    p.add_argument("--tau", type=int, default=4)
    p.add_argument("--srp", action="store_true", help="add before/after masking reports")
    p.add_argument("--limit", type=int, default=256)

    p = command("verify-theorem", cmd_verify_theorem,
                "exhaustively check the residual-potential theorem")
    p.add_argument("--timesteps", type=_parse_int_list, default=(2, 4, 6))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--draws", type=int, default=100)
    p.add_argument("--weights", type=_parse_float_list, default=None,
                   help="check one explicit instance instead of a random sweep")
    p.add_argument("--counts", type=_parse_int_list, default=None)
    p.add_argument("--theta", type=float, default=1.0)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        # The first pass loads any --config file into the command's
        # defaults; the second applies them under the explicit flags.
        parser.parse_args(argv)
        args = parser.parse_args(argv)
        return args.func(args)
    except (ParameterError, ShapeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataFormatError, DataValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (ConversionError, TrainingDivergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
