"""Test helper: an ensemble directory in the manifest layout of an older tck."""
import json

import numpy as np


def rewrite_as_offsets_layout(directory):
    """Turn a saved ensemble's manifest into the layout that carried
    posterior offsets, which no reader accepts any more."""
    path = directory / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["config"].update(t_max=None, v_min=None, v_max=None, n_min=None,
                              a0_range=[0.001, 1.0], b0_range=[0.05, 0.8],
                              n0_range=[0.001, 0.2], em_tol=1e-6)
    for m in manifest["models"]:
        m["seed"] = m["sub_seed"]
    manifest["posterior_offsets"] = np.cumsum(
        [0] + [m["q2"] for m in manifest["models"]]).tolist()
    path.write_text(json.dumps(manifest, indent=1))
