import pytest


def _pair_layout(obj):
    """A copy of a JSON value with the data of every matrix and vector
    rewritten from [re0, im0, re1, im1, ...] to the older [[re, im], ...]."""
    if isinstance(obj, list):
        return [_pair_layout(v) for v in obj]
    if not isinstance(obj, dict):
        return obj
    out = {k: _pair_layout(v) for k, v in obj.items()}
    if "data" in obj and ("rows" in obj or "dim" in obj):
        data = obj["data"]
        out["data"] = [[re, im] for re, im in zip(data[::2], data[1::2])]
    return out


@pytest.fixture
def pair_layout():
    return _pair_layout
