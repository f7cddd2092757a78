import sys
from functools import cached_property

import numpy as np
import pytest

import csymlab as cs


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def count_calls(monkeypatch, owner, name):
    """Count calls of owner.name.

    owner is a module, whose function is patched in every csymlab module
    that binds it, or a class, whose method is patched on the class.  For a
    cached_property the body is counted, i.e. once per instance it builds.
    """
    original = getattr(owner, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    if isinstance(owner, type):
        prop = vars(owner).get(name)
        if isinstance(prop, cached_property):
            original = prop.func
            counted = cached_property(counted)
            counted.__set_name__(owner, name)
        monkeypatch.setattr(owner, name, counted)
        return calls
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.partition(".")[0] == "csymlab" and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counted)
    return calls


def nonblock_parameter(dp):
    """i J0 for the conjugation J0 of the canonical extension.

    It passes the frakE gate, and its unitary is -i U0, so D U D U = -I and
    the block residual is exactly 2 in every choice of deficiency bases.
    """
    j0 = cs.parameter_as_conjugation(dp, cs.canonical_extension(dp).parameter).matrix
    return cs.ExtensionParameter("conjugation", 1j * j0)
