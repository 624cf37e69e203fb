"""bench/tracer.py wraps the solver's stage functions by name, looked up
on the module named in its TARGETS, and replaces the same object in every
loaded tangleslopes module. A stage renamed or moved out of reach is
reported missing, not failed, and a stage whose callers bypass the
wrapper records nothing: either leaves its benchmark layer unmeasured.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# install() wraps the modules it finds loaded, so the CLI comes first; it
# runs in its own process, whose modules the wrappers cannot outlive
SCRIPT = """
import json

from tangleslopes import cli
from tangleslopes.tangles import parse
from tracer import TARGETS, Tracer

tracer = Tracer()
tracer.install()
for text in ("(-1/2 + 1/3) o (-1/2 + 1/3)", "-1/2 + 1/3 + 1/7", "-1/3 + 2/5 + 1/2"):
    cli.format_json(cli.solve(parse(text)))
print(json.dumps({
    "missing": tracer.missing,
    "stages": [name for _, name, _ in TARGETS if name.startswith("_")],
    "recorded": sorted({tracer.names[span[0]] for span in tracer.spans}),
    "sizes": {
        name: sum(span[5] for span in tracer.spans if tracer.names[span[0]] == name)
        for name in ("_leaf_table", "_merge_sum", "_merge_product", "_materialize")
    },
}))
"""


def test_tracer_reaches_every_solver_stage():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")]))
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, check=True,
    )
    found = json.loads(done.stdout)
    assert found["missing"] == []
    assert len(found["stages"]) == 8
    assert set(found["stages"]) <= set(found["recorded"])
    # the sizes of the tables each stage returned, summed: the benchmark's
    # leaf_table.states, merge_sum.states_out, merge_product.states_out and
    # materialize.systems read them, so a change of table form that moves
    # a len() shows here
    assert found["sizes"] == {"_leaf_table": 68, "_merge_sum": 66, "_merge_product": 2, "_materialize": 26}
