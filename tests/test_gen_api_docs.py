"""``tools/gen_api_docs.py`` renders the same signatures on every run."""

import importlib.util
import os

TOOL = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                    "tools", "gen_api_docs.py")


def _load_tool():
    spec = importlib.util.spec_from_file_location("gen_api_docs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_signature_of_drops_default_addresses():
    tool = _load_tool()

    def sample(marker=object(), key=lambda value: value):
        return marker, key

    rendered = tool.signature_of(sample)
    assert "0x" not in rendered
    assert "<object object>" in rendered
    assert "<lambda>>" in rendered
