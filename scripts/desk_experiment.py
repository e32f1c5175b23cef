#!/usr/bin/env python3
"""End-to-end desk-scale experiment.

Synthesizes a corpus from a fixed random 3-gram source, trains the recurrent
language model two ways — centralized SGD and simulated federated averaging
over unbalanced client shards — fits unigram and trigram backoff baselines on
the same training split, and prints a side-by-side top-1/top-3 recall table
on the held-out evaluation split. The wiring lives in `fedlm.pipeline`; the
acceptance suite runs the same `run_desk` with the full profile.

Everything is deterministic in --seed; rerunning with the same arguments
reproduces the metrics files byte for byte.

    python scripts/desk_experiment.py --profile quick -o runs/demo
    python scripts/desk_experiment.py --profile full  -o runs/full
"""

import argparse
import os
import sys
import time

from fedlm.cifg import save_checkpoint
from fedlm.corpus import save_corpus, save_vocab
from fedlm.evaluate import write_metrics_csv
from fedlm.pipeline import DESK_CORPUS_SEED, DESK_PROFILES, run_desk


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--profile", choices=sorted(DESK_PROFILES), default="quick")
    p.add_argument("--seed", type=int, default=DESK_CORPUS_SEED)
    p.add_argument("--source-vocab", type=int, default=500)
    p.add_argument("--embed-dim", type=int, default=16)
    p.add_argument("--hidden", type=int, default=32)
    p.add_argument("-o", "--out", default="runs/desk", help="output directory")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    prof = DESK_PROFILES[args.profile]
    os.makedirs(args.out, exist_ok=True)
    t0 = time.perf_counter()

    print(f"{args.profile} profile: {prof['sentences']} sentences (3-gram source, "
          f"{args.source_vocab} words); centralized SGD {prof['steps']} steps; "
          f"federated averaging {prof['rounds']} rounds over {prof['clients']} clients; "
          f"n-gram baselines; held-out comparison")
    run = run_desk(args.profile, seed=args.seed, source_vocab=args.source_vocab,
                   embed_dim=args.embed_dim, hidden=args.hidden)

    save_corpus(os.path.join(args.out, "corpus.txt"), run.raw)
    save_vocab(os.path.join(args.out, "vocab.txt"), run.vocab)
    save_checkpoint(os.path.join(args.out, "central.ckpt"), run.central_model)
    write_metrics_csv(os.path.join(args.out, "central.csv"), run.central_rows)
    save_checkpoint(os.path.join(args.out, "federated.ckpt"), run.fed_model)
    write_metrics_csv(os.path.join(args.out, "federated.csv"), run.fed_rows)
    with open(os.path.join(args.out, "compare.csv"), "w", encoding="utf-8",
              newline="\n") as fh:
        fh.write(run.report.as_csv())

    data = run.data
    print(f"vocabulary {run.vocab.V}, split {len(data.train)}/{len(data.test)}/{len(data.eval)}")
    print()
    print(run.report.as_text(), end="")
    print(f"\ndone in {time.perf_counter() - t0:.0f}s; artifacts in {args.out}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
