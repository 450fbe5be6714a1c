"""Device-tier config validation."""

from __future__ import annotations

import math

import pytest

from repro.workload.devices import DeviceClass, DeviceMixConfig


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["share", "selection_weight"])
def test_non_finite_values_rejected(field, value):
    with pytest.raises(ValueError, match=field):
        DeviceClass("a", **{"share": 1.0, field: value})


def test_finite_mix_still_builds():
    mix = DeviceMixConfig((DeviceClass("a", share=0.0),
                           DeviceClass("b", share=1.0, selection_weight=2.0)))
    assert mix.pick(0.3).name == "b"
    assert mix.rank_weights() == {"a": 0.0, "b": 2.0}
