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
