"""The benchmark's hook targets still exist.

``perfbench/launch.py`` patches names in the package at call time to time
the epochs and trace the layers.  A hook whose target was renamed is only
reported by the benchmark (``trace.missing_hooks``, or a failed process
for ``run_epoch``), so this test resolves every target the way ``install``
does, without patching anything.
"""

import importlib.util
import inspect
from pathlib import Path

import pytest

LAUNCH = Path(__file__).resolve().parents[1] / "perfbench" / "launch.py"


def load_launch():
    spec = importlib.util.spec_from_file_location("perfbench_launch", LAUNCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


launch = load_launch()
TARGETS = list(dict.fromkeys((*launch.HOOKS, launch.EPOCH_HOOK)))


@pytest.mark.parametrize("hook", TARGETS, ids=[h[0] for h in TARGETS])
def test_hook_target_exists(hook):
    _, owner, attr = hook
    target = launch._resolve_owner(owner)
    assert target is not None, owner
    if isinstance(target, type):  # install reads methods off the class dict
        assert attr in target.__dict__, f"{owner}.{attr}"
    else:
        assert getattr(target, attr, None) is not None, f"{owner}.{attr}"


def test_measured_arguments_keep_their_positions():
    """The span measures read these arguments by position."""
    from noisylab.model import DualHeadNet
    from noisylab.schedule import losses_and_grads_from_forward
    loss = list(inspect.signature(losses_and_grads_from_forward).parameters)
    assert loss[1] == "res" and loss[5] == "mask"
    assert list(inspect.signature(DualHeadNet.backward).parameters)[2] == "dlogits"
