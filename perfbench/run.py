#!/usr/bin/env python3
"""Benchmark of the fedlm pipeline: one workload per run.

    python3 perfbench/run.py --workload desk-quick --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. A run sets up the workload's inputs several
times (reporting the median set-up time), repeats the measured pass while
another pass is expected to end within --seconds (at least once), checks the
outputs, and prints the metrics by name, then one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 passes
alternate untraced and traced, and the metrics are the per-layer ones (per
set-up plus one pass) and the tracing overhead. --size small runs the same
pipeline and checks on inputs small enough for the benchmark's own test.
"""

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BLAS_THREADS = 1  # fixed, at or below nproc, so runs are comparable
WORKLOAD_NAMES = ("desk-quick", "phone-fedavg", "desk-serve")
RECALLS = {  # per-layer recall metric -> (model, k); 0 where the workload does not score the model
    "central_top1": ("central", 1), "central_top3": ("central", 3),
    "federated_top1": ("federated", 1), "federated_top3": ("federated", 3),
    "quantized_top1": ("quantized", 1), "trigram_top1": ("trigram", 1),
    "unigram_top1": ("unigram", 1),
}


def load_metrics():
    """End-to-end and per-layer metrics as BENCHMARK.json lists them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    return bench["end_to_end"], bench["per_layer"]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=20260819)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "small"), default="full")
    return p.parse_args(argv)


def blas_facts(np) -> dict:
    """BLAS name, version and the thread count the library reports."""
    import ctypes

    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "blas" in line.split()[-1].lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_"):
            if hasattr(lib, symbol):
                threads = int(getattr(lib, symbol)())
                break
    return {"blas": info.get("name"), "blas_version": info.get("version"), "blas_threads": threads}


def _median(values):
    return statistics.median(values) if values else float("nan")


def bench(args, workdir):
    import numpy as np

    import checks
    import spans
    import workloads

    end_to_end, per_layer = load_metrics()
    facts = {"nproc": os.cpu_count(), "python": platform.python_version(), "numpy": np.__version__,
             **blas_facts(np)}
    print("machine: " + " ".join(f"{k}={v}" for k, v in facts.items()))

    scale = workloads.WORKLOADS[args.workload][args.size]
    tracer = spans.Tracer() if args.trace else None

    def tracing(on):
        return tracer if tracer is not None and on else contextlib.nullcontext()

    attempted = 0
    setup_s, central_rates, fed_rates, trained = [], [], [], []
    for _ in range(scale.setups):
        with tracing(True):
            t0 = time.perf_counter()
            inp = workloads.set_up(scale, args.seed, workdir)
            setup_s.append(time.perf_counter() - t0)
        attempted += 1 + (scale.central_steps + scale.rounds if scale.train_in_setup else 0)
        if scale.train_in_setup:
            trained.append((inp.central, inp.fed))
    setup_layers = dict(tracer.acc) if tracer else {}
    if tracer:
        tracer.acc.clear()
    workloads.count_work(inp)

    def add_training_rates(central, fed):
        # Short windows (central steps, FedAvg rounds) dodge a slow moment.
        central_rates.extend(p / s for p, s in zip(inp.central_window_positions, central.window_seconds))
        fed_rates.extend(p / s for p, s in zip(inp.fed_round_positions, fed.window_seconds))

    for central, fed in trained:
        add_training_rates(central, fed)

    walls = {False: [], True: []}  # pass seconds, untraced and traced
    eval_rates, fingerprints = [], []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(fingerprints) % 2 == 1
        with tracing(traced):
            res = workloads.measured_pass(inp)
        attempted += res.operations
        walls[traced].append(res.seconds)
        fingerprints.append(workloads.fingerprint(res))
        if not traced:
            if not scale.train_in_setup:
                add_training_rates(res.central, res.fed)
            eval_rates += [inp.eval_positions / s for s in res.eval_s]
        # Start another pass only if one is expected to end within --seconds;
        # a traced run needs at least one pass of each kind.
        expected_end = time.perf_counter() - start + _median(walls[False] + walls[True])
        if expected_end > args.seconds and (tracer is None or walls[True]):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    results = checks.run_checks(inp, res, fingerprints, args.workload)
    attempted += len(results)
    failed = sum(1 for _, ok, _ in results if not ok)

    describe_inputs(inp, args, len(fingerprints))
    for name, ok, detail in results:
        print(f"check {'PASS' if ok else 'FAIL'} {name}: {detail}")
    print("recall: " + " ".join(f"{m}={r[1]:.4f}/{r[3]:.4f}" for m, r in res.recall.items())
          + "  (top-1/top-3)")

    e2e = {
        "setup_s": _median(setup_s),
        "wall_s": _median(walls[False]),
        "central_positions_per_s": _median(central_rates),
        "fed_positions_per_s": _median(fed_rates),
        "eval_positions_per_s": _median(eval_rates),
        "peak_rss_mb": peak_rss_mb,
        "central_train_loss": res.central.loss,
        "federated_train_loss": res.fed.loss,
    }
    units = {m["name"]: m["unit"] for m in end_to_end}
    for name, value in e2e.items():
        print(f"{name} {value:.6g} {units[name]}")
    if tracer is None:
        metrics = {m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]} for m in end_to_end}
    else:
        traced_passes = len(walls[True])
        # Passes alternate untraced, traced: the median ratio over adjacent
        # pairs. With one pair it carries the machine's drift between them.
        pairs = list(zip(walls[False], walls[True]))
        print(f"trace.overhead over {len(pairs)} pair(s) of passes")
        metrics = {}
        for m in per_layer:
            name = m["name"]
            if name in RECALLS:
                model, k = RECALLS[name]
                value = res.recall[model][k] if model in res.recall else 0.0
            elif name == "trace.overhead":
                value = _median([traced / untraced for untraced, traced in pairs])
            else:
                value = setup_layers.get(name, 0.0) / scale.setups + tracer.acc.get(name, 0.0) / traced_passes
            metrics[name] = {"value": value, "unit": m["unit"]}
            print(f"{name} {value:.6g} {m['unit']}")
    print(f"operations: attempted {attempted} failed {failed}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def describe_inputs(inp, args, passes):
    """Make-up of the inputs: sizes, model shape, cohorts, sentence lengths
    and the share of computed positions that are real."""
    import spans
    import workloads

    s = inp.scale
    lens = sorted(len(x) - 1 for x in inp.data.train + inp.data.eval)
    q = statistics.quantiles(lens, n=10)
    batches = list(workloads.central_batches(inp.data.train, s))
    train_real = sum(spans.real_positions(b) for b in batches)
    train_computed = sum(spans.computed_positions(b) for b in batches)
    chunk = spans.TOPK_CHUNK
    scored = workloads.eval_sentences(inp)
    groups = ([shard.sentences for shard in inp.eval_population] if inp.eval_population
              else [scored[i : i + chunk] for i in range(0, len(scored), chunk)])
    eval_real = sum(spans.real_positions(g) for g in groups)
    eval_computed = sum(spans.computed_positions(g) for g in groups)
    print(f"workload: {args.workload} size={args.size} seed={args.seed} passes={passes}")
    print(f"inputs: sentences {len(inp.data.train)}/{len(inp.data.test)}/{len(inp.data.eval)} "
          f"(train/test/eval) from a {s.source_vocab}-word 3-gram source; vocabulary {inp.vocab.V}; "
          f"model V={inp.mcfg.V} D={inp.mcfg.D} H={inp.mcfg.H}")
    print(f"training: central {s.central_steps} steps x batch {s.batch} (lr {s.central_lr}, "
          f"{workloads.CENTRAL_WINDOWS} timed windows); "
          f"FedAvg {s.rounds} rounds, {len(inp.population)} clients (mean shard {s.mean_shard}), "
          f"cohort {s.cohort[0]}-{s.cohort[1]}, client lr {s.client_lr}"
          + ("; both trained in set-up" if s.train_in_setup else ""))
    how = (f"per held-out device cache ({len(groups)} caches of {min(map(len, groups))}-"
           f"{max(map(len, groups))} sentences)" if inp.eval_population else f"pooled in chunks of {chunk}")
    print(f"scoring: CIFG ({', '.join(s.scored)}) on {len(scored)} of {len(inp.data.eval)} held-out "
          f"sentences, {inp.eval_positions} positions, {how}; n-grams on all of them")
    print(f"positions per sentence: p10 {q[0]:.0f} median {statistics.median(lens):.0f} p90 {q[8]:.0f} "
          f"max {lens[-1]}; real share of computed positions: central batches "
          f"{train_real / train_computed:.3f}, recall batches {eval_real / eval_computed:.3f}")


def main(argv=None):
    args = parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    if not os.path.isfile(os.path.join(SRC, "fedlm", "__init__.py")):
        print(f"perfbench: fedlm sources not found under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        result = bench(args, workdir)
    finally:
        for name in os.listdir(workdir):
            os.remove(os.path.join(workdir, name))
        os.rmdir(workdir)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # another run still uses it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
