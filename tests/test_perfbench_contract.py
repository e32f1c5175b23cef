"""The benchmark in perfbench/ traces fedlm functions by name. A change under
src/ that removes or renames one of them passes the unit tests but breaks
every traced benchmark run, so this test resolves the benchmark's list here.

perfbench/spans.py is read and executed in a fresh namespace, not imported,
so nothing is written under perfbench/.
"""

import os
import types

SPANS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "spans.py")


def load_spans():
    module = types.ModuleType("perfbench_spans")
    module.__file__ = SPANS
    with open(SPANS, encoding="utf-8") as fh:
        exec(compile(fh.read(), SPANS, "exec"), module.__dict__)
    return module


def test_every_traced_function_resolves():
    spans = load_spans()  # evaluating the module also reads topk_candidates' chunk default
    assert spans.TRACED
    # The tracer installs its wrappers by name on the owner that defines each function.
    missing = [f"{owner.__name__}.{attr}" for owner, attr in spans.TRACED
               if not callable(vars(owner).get(attr))]
    assert missing == []


def test_traced_training_counts_one_loss_and_one_step_per_batch():
    """The traced layer counts come from wrappers installed on the modules
    perfbench/spans.py lists; a training loop moved to an unlisted module
    would make cifg.loss_and_grads and nn_core.sgd_step read zero."""
    from fedlm import central, fedavg
    from fedlm.cifg import CifgConfig, init_model
    from fedlm.corpus import ClientShard, CorpusSplit

    spans = load_spans()
    sents = [[0, 3 + i % 5, 4 + i % 3, 1] for i in range(7)]
    model = init_model(CifgConfig(V=9, D=2, H=3), seed=0)
    cases = (  # (steps taken, run)
        (5, lambda: central.train_centralized(
            model, CorpusSplit(sents, [], [], 0), central.CentralConfig(lr=0.1, batch_size=3, max_steps=5))),
        (6, lambda: fedavg.client_round(
            model, ClientShard(0, sents), fedavg.FedConfig(client_lr=0.1, client_batch_size=3, client_epochs=2))),
    )
    for steps, train in cases:
        with spans.Tracer() as tracer:
            train()
        assert tracer.acc["cifg.loss_and_grads.calls"] == steps
        assert tracer.acc["nn_core.sgd_step.calls"] == steps
