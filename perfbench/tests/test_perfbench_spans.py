import sys
import types

import pytest

from perfbench import spans


class _Thing:
    def __init__(self):
        self.n = 0

    def outer(self, x):
        return self.inner(x) + 1

    def inner(self, x):
        self.n += x
        return x

    @classmethod
    def make(cls):
        return cls()

    def boom(self):
        raise ValueError("boom")


@pytest.fixture
def fake_module():
    module = types.ModuleType("_perfbench_fake")
    module.Thing = _Thing
    module.free = lambda data: data[::-1]
    sys.modules[module.__name__] = module
    originals = dict(vars(_Thing))
    yield module
    for name in ("outer", "inner", "make", "boom"):
        setattr(_Thing, name, originals[name])
    del sys.modules[module.__name__]


def _probes():
    P = spans.Probe
    return (
        P("_perfbench_fake:Thing.outer", "outer", "outer_s", "outer_calls"),
        P("_perfbench_fake:Thing.inner", "inner", "inner_s",
          enter=lambda args: args[0].n,
          leave=lambda counts, state, args, result:
          counts.update({"grown": args[0].n - state})),
        P("_perfbench_fake:Thing.make", "make", "make_s"),
        P("_perfbench_fake:Thing.boom", "boom", "boom_s",
          error=lambda counts, exc: counts.update({"errors": 1})),
        P("_perfbench_fake:free", "free", "free_s", "free_calls"),
    )


def test_spans_nest_and_count(fake_module):
    rec = spans.Recorder()
    uninstall = spans.install(rec, _probes())
    thing = fake_module.Thing.make()          # outside an op: no span
    assert rec.spans == [] and not rec.counts
    op = rec.begin_op(7)
    assert thing.outer(3) == 4
    assert fake_module.free(b"ab") == b"ba"
    with pytest.raises(ValueError):
        thing.boom()
    rec.end_op(op)
    uninstall()
    names = [(s[0], s[3], s[4]) for s in rec.spans]
    assert names == [("op", -1, 7), ("outer", 0, 7), ("inner", 1, 7),
                     ("free", 0, 7), ("boom", 0, 7)]
    assert all(s[2] >= s[1] for s in rec.spans)
    assert rec.counts == {"outer_calls": 1, "grown": 3, "free_calls": 1,
                          "errors": 1}
    assert rec._stack == [] and rec.op is None


def test_uninstall_restores_originals(fake_module):
    before = (vars(_Thing)["outer"], vars(_Thing)["make"],
              fake_module.free)
    uninstall = spans.install(spans.Recorder(), _probes())
    assert vars(_Thing)["outer"] is not before[0]
    assert isinstance(vars(_Thing)["make"], classmethod)
    uninstall()
    assert (vars(_Thing)["outer"], vars(_Thing)["make"],
            fake_module.free) == before


def test_layer_metrics_from_synthetic_spans():
    probe = spans.Probe("m:f", "crypto.dh", "crypto.dh.s")
    rec = spans.Recorder()
    rec.ops = 2
    rec.spans = [["op", 0.0, 10.0, -1, 0], ["crypto.dh", 1.0, 9.0, 0, 0],
                 ["op", 10.0, 20.0, -1, 1],
                 ["crypto.dh", 10.0, 14.0, 2, 1]]
    rec.counts.update({"crypto.dh.calls": 4, "core.cache.lookups": 4,
                       "cache.hits": 3})
    out = spans.layer_metrics(rec, untraced_ops_per_s=0.125, probes=[probe])
    assert out["crypto.dh.s"] == 6.0
    assert out["crypto.dh.calls"] == 2.0
    assert out["core.cache.hit_ratio"] == 0.75
    assert out["trace.coverage"] == 12.0 / 20.0
    assert out["trace.overhead"] == (2 / 20.0) / 0.125
    assert out["vm.steps_per_s"] == 0.0


def test_every_probe_resolves_in_the_program():
    for probe in spans.PROBES:
        owner, attr = spans._resolve(probe.target)
        assert callable(getattr(owner, attr)), probe.target
