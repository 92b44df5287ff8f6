"""Command-line entry point.

Subcommands: ``prepare`` (ratings file -> dataset cache and folds),
``train`` (checkpoint + loss trace), ``evaluate`` (metric report),
``recommend`` (top-K list for one user), ``ablate`` (the eight-variant
matrix), ``case-study`` (margins for similar vs dissimilar negatives).

Exit codes: 0 success, 2 usage or input error, 3 numeric failure.
"""

import argparse
import functools
import os
import sys
from dataclasses import fields

import numpy as np

from . import bilevel, checkpoint, data, evaluator, synth
from .bilevel import NumericFailure
from .config import RunConfig, _coerce, echo_lines, load_config_file, make_config
from . import margin_net

# Ablation matrix: margin scheme x embedding kind x relations x feature mode.
# Every variant sets all six keys that define it (None leaves a per-relation
# margin override unset), so no flag or config value can reach some variants
# and not others.
VARIANT_KEYS = ("distance_kind", "margin_mode", "margin_mode_uu", "margin_mode_ii",
                "relations", "indicator_mode")
ABLATION_VARIANTS = {variant: dict(zip(VARIANT_KEYS, values)) for variant, values in {
    1: ("euclidean", "fixed:1.0", None, None, "ui", "squared-diff"),
    2: ("w2", "fixed:1.0", None, None, "ui", "squared-diff"),
    3: ("euclidean", "adaptive", None, None, "ui", "squared-diff"),
    4: ("euclidean", "adaptive", None, None, "ui", "concat"),
    5: ("euclidean", "adaptive", None, None, "ui", "sum"),
    6: ("w2", "adaptive", None, None, "ui", "squared-diff"),
    7: ("w2", "adaptive", "fixed:1.0", "fixed:1.0", "ui,uu,ii", "squared-diff"),
    8: ("w2", "adaptive", None, None, "ui,uu,ii", "squared-diff"),
}.items()}
ABLATE_SETS = (*VARIANT_KEYS, "seed")  # the seed comes from --seeds


def _add_config_args(p, leave_out=()):
    """``--config`` plus one flag per :class:`RunConfig` field not in ``leave_out``.

    A bool field is a switch. A command that leaves a field out sets it
    itself, and its config file may not set it either (:func:`_config_from_args`).
    """
    p.add_argument("--config", help="flat key = value config file")
    for f in fields(RunConfig):
        if f.name in leave_out:
            continue
        how = (dict(action="store_const", const="true") if isinstance(f.default, bool)
               else dict(metavar="V"))
        p.add_argument("--" + f.name.replace("_", "-"), dest=f.name, **how)


def _config_from_args(args, **overrides):
    """RunConfig from --config, then the flags, then ``overrides``.

    A config file may not set a field the command has no flag for: the
    command sets that field itself.
    """
    names = [f.name for f in fields(RunConfig)]
    values = dict(load_config_file(args.config)) if args.config else {}
    for key in values:
        if key in names and key not in vars(args):
            raise ValueError(f"{args.config}: {args.command} sets {key!r} itself; "
                             f"remove it from the file")
    values.update({name: getattr(args, name) for name in names
                   if getattr(args, name, None) is not None})
    return make_config(file_values={**values, **overrides})


def _at_least(flag, value, low):
    """Reject a command-line count ``value`` below ``low``, naming its ``flag``."""
    if value < low:
        raise ValueError(f"{flag} must be >= {low}, got {value}")


def cmd_prepare(args):
    _at_least("--seed", args.seed, 0)
    users, items = data.ingest(args.ratings, rating_threshold=args.rating_threshold)
    ds = data.filter_iterative(users, items, min_user=args.min_user, min_item=args.min_item)
    ds.check()
    folds = data.split_five_fold(ds, args.seed)
    data.save_dataset(args.out_dir, ds)
    data.save_folds(args.out_dir, folds)
    text = "".join(f"{name} = {getattr(args, name)}\n"
                   for name in ("rating_threshold", "min_user", "min_item", "seed"))
    data.atomic_write(os.path.join(args.out_dir, "prepare_config.txt"), lambda f: f.write(text))
    density = ds.n_interactions / (ds.n_users * ds.n_items)
    print(f"users {ds.n_users}  items {ds.n_items}  "
          f"interactions {ds.n_interactions}  density {100 * density:.3f}%")
    return 0


def _read_split(dataset_dir, fold_index):
    """The digests of the dataset's files, the dataset, and fold ``fold_index`` of it.

    The files are read once, and their bytes are dropped on return: training
    holds only what was parsed from them.
    """
    files = data.DataFiles(dataset_dir)
    ds = data.load_dataset(files)
    return files.digests(), ds, data.load_fold(files, ds, fold_index)


def cmd_train(args):
    cfg = _config_from_args(args)
    digests, ds, fold = _read_split(args.dataset_dir, args.fold)
    os.makedirs(args.out_dir, exist_ok=True)
    state = bilevel.train(ds, fold, cfg, log=print if not args.quiet else None)
    checkpoint.save(os.path.join(args.out_dir, "checkpoint.bin"), state, digests,
                    fold_index=args.fold)
    bilevel.write_trace(os.path.join(args.out_dir, "trace.csv"),
                        state.trace, header_lines=echo_lines(cfg))
    if state.evals:
        print(evaluator.format_table(state.evals[-1][1], title="final evaluation"))
    return 0


def _check_run(args, ck):
    """The :class:`~pmlam.data.DataFiles` a checkpoint was trained on.

    ``ck`` is the checkpoint's :class:`~pmlam.checkpoint.Tables`. Its tables
    must fit the header counts of ``dataset.txt``, the files must be the
    bytes it was trained on, and its fold must be one of the file's.
    Once these hold, ``train`` has parsed and checked these bytes in full.
    """
    files = data.DataFiles(args.dataset_dir)
    checkpoint.check_fits(ck, files.n_users, files.n_items, args.checkpoint)
    checkpoint.check_data(ck, files.digests(), args.dataset_dir, args.checkpoint)
    data.check_fold_index(files.path("folds.txt"), ck.fold_index, files.n_folds)
    return files


def _load_run(args, ck):
    """The dataset and fold of a checkpoint's :class:`~pmlam.checkpoint.Tables` ``ck``."""
    files = _check_run(args, ck)
    ds = data.load_dataset(files)
    return ds, data.load_folds(files, ds)[ck.fold_index]


def cmd_evaluate(args):
    ck = checkpoint.load_tables(args.checkpoint)
    _, fold = _load_run(args, ck)
    ks = ck.cfg.ks if args.ks is None else make_config(file_values={"ks": args.ks}).ks
    report = evaluator.evaluate(ck.users, ck.items, fold, ks, ck.cfg.kind())
    print(evaluator.format_table(report, title=f"fold {ck.fold_index}"))
    if args.out:
        evaluator.write_report_csv(args.out, [report],
                                   header_lines=echo_lines(ck.cfg))
    return 0


def cmd_recommend(args):
    """One user's top-K, from the checkpoint's tables and that user's lines of the data."""
    _at_least("-k", args.k, 1)
    ck = checkpoint.load_tables(args.checkpoint)
    files = _check_run(args, ck)
    u = files.user_index(args.user)
    if u is None:
        raise ValueError(f"unknown user id {args.user!r}")
    d2 = evaluator.pairwise_distances(ck.users, ck.items, ck.cfg.kind(),
                                      user_idx=np.array([u]))[0]
    topk = evaluator.rank_row(d2, files.train_row(u, ck.fold_index), k=args.k)
    for rank_pos, (item, item_id) in enumerate(zip(topk, files.item_ids(topk)), start=1):
        print(f"{rank_pos:>3}  {item_id}  {d2[item]:.6f}")
    return 0


def cmd_ablate(args):
    base = _config_from_args(args)
    seeds = _coerce("--seeds", (0,), args.seeds)  # as config lists are parsed
    variants = (_coerce("--variants", (0,), args.variants) if args.variants is not None
                else sorted(ABLATION_VARIANTS))
    for flag, values in (("--seeds", seeds), ("--variants", variants)):
        if not values:
            raise ValueError(f"{flag}: expected a comma list of integers")
    for seed in seeds:  # every seed, before the first variant trains
        _at_least("--seeds", seed, 0)
    unknown = sorted(set(variants) - set(ABLATION_VARIANTS))
    if unknown:
        raise ValueError(f"--variants: unknown variant {unknown[0]}; valid variants "
                         f"are {min(ABLATION_VARIANTS)}-{max(ABLATION_VARIANTS)}")
    _, ds, fold = _read_split(args.dataset_dir, args.fold)
    lines = ["variant,seed,recall10,ndcg10"]
    means = {}
    for variant in variants:
        r10s, n10s = [], []
        for seed in seeds:
            cfg = _config_from_args(args, **ABLATION_VARIANTS[variant], seed=seed)
            state = bilevel.train(ds, fold, cfg)
            report = evaluator.evaluate(state.users, state.items, fold,
                                        (10,), cfg.kind())
            r10s.append(report.recall[10])
            n10s.append(report.ndcg[10])
            lines.append(f"{variant},{seed},{report.recall[10]!r},{report.ndcg[10]!r}")
            print(f"variant {variant} seed {seed}: "
                  f"R@10={report.recall[10]:.4f} N@10={report.ndcg[10]:.4f}")
        means[variant] = (float(np.mean(r10s)), float(np.mean(n10s)))
    lines.append("variant,mean_recall10,mean_ndcg10,")
    for variant in variants:
        r, n = means[variant]
        lines.append(f"{variant},{r!r},{n!r},")
    # the header states only what every row shares
    shared = [f"# {line}" for line in echo_lines(base)
              if line.split(" = ")[0] not in ABLATE_SETS]
    data.atomic_write(args.out, lambda f: f.write("\n".join(shared + lines) + "\n"))
    print(f"wrote {args.out}")
    return 0


def cmd_case_study(args):
    _at_least("--n-users", args.n_users, 1)
    _at_least("--seed", args.seed, 0)
    ck, state = checkpoint.load(args.checkpoint)
    ds, fold = _load_run(args, ck)
    if "ui" not in state.phis:
        raise ValueError("checkpoint has no user-item margin net (fixed-margin run?)")
    labels = np.array(synth.load_item_labels(args.dataset_dir, ds))
    rng = np.random.default_rng(args.seed)
    users_pick = np.sort(rng.choice(ds.n_users, size=min(args.n_users, ds.n_users),
                                    replace=False))
    print(f"{'user':>8}  {'positive':>10}  {'negative':>10}  {'label':>9}  margin")
    rows = []
    for u in users_pick:
        train = fold.train_rows[u]
        if len(train) == 0:
            continue
        pos = int(rng.choice(train))
        unseen = np.setdiff1d(np.arange(ds.n_items), np.union1d(train, fold.test_rows[u]))
        same = labels[unseen] == labels[pos]
        if same.all() or not same.any():
            continue
        for tag, neg in (("similar", int(rng.choice(unseen[same]))),
                         ("dissimilar", int(rng.choice(unseen[~same])))):
            m = _margin_of(state, u, pos, neg)
            rows.append((ds.user_ids[u], ds.item_ids[pos], ds.item_ids[neg], tag, m))
    rows.sort(key=lambda r: (r[0], r[1], r[3]))
    for user, pos, neg, tag, m in rows:
        print(f"{user:>8}  {pos:>10}  {neg:>10}  {tag:>9}  {m:.4f}")
    if not rows:
        print(f"note: none of the {len(users_pick)} sampled users has both a similar and "
              f"a dissimilar unseen item, so the table is empty", file=sys.stderr)
    return 0


def _margin_of(state, u, pos, neg):
    # deterministic margin inputs: the means, no sampling
    net = state.phis["ui"]
    s = margin_net.margin_input(net.mode, state.users.mu[u], state.items.mu[pos],
                                state.items.mu[neg])
    m, _ = margin_net.forward(net, s)
    return float(m[0])


@functools.cache
def build_parser():
    parser = argparse.ArgumentParser(prog="pmlam")
    sub = parser.add_subparsers(
        dest="command", required=True,
        parser_class=functools.partial(argparse.ArgumentParser, allow_abbrev=False))

    p = sub.add_parser("prepare", help="ratings file -> dataset cache + folds")
    p.add_argument("ratings")
    p.add_argument("out_dir")
    p.add_argument("--rating-threshold", type=float, default=4.0)
    p.add_argument("--min-user", type=int, default=10)
    p.add_argument("--min-item", type=int, default=5)
    p.add_argument("--seed", type=int, default=0, help="seed of the five-fold split")
    p.set_defaults(fn=cmd_prepare)

    p = sub.add_parser("train", help="train on one fold")
    p.add_argument("dataset_dir")
    p.add_argument("--out-dir", default="run")
    p.add_argument("--fold", type=int, default=0)
    p.add_argument("--quiet", action="store_true")
    _add_config_args(p)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("evaluate", help="metrics of a checkpoint")
    p.add_argument("dataset_dir")
    p.add_argument("checkpoint")
    p.add_argument("--ks")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("recommend", help="top-K items for one user")
    p.add_argument("dataset_dir")
    p.add_argument("checkpoint")
    p.add_argument("user")
    p.add_argument("-k", type=int, default=10)
    p.set_defaults(fn=cmd_recommend)

    p = sub.add_parser("ablate", help="run the eight-variant matrix")
    p.add_argument("dataset_dir")
    p.add_argument("--fold", type=int, default=0)
    p.add_argument("--seeds", default="0,1,2")
    p.add_argument("--variants", help="comma list, default all eight")
    p.add_argument("--out", required=True, help="CSV file the matrix is written to")
    _add_config_args(p, leave_out=ABLATE_SETS)
    p.set_defaults(fn=cmd_ablate)

    p = sub.add_parser("case-study", help="margins for similar vs dissimilar negatives")
    p.add_argument("dataset_dir")
    p.add_argument("checkpoint")
    p.add_argument("--n-users", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_case_study)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except NumericFailure as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
