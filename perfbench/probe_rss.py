"""Peak-RSS growth of the first ``compute_scores`` call in a fresh process.

    python3 perfbench/probe_rss.py <train.npz> <provider> <params as JSON>

The train split comes from an ``.npz`` written by ``run.probe_rss``, which
loads with far less memory than parsing text, so the peak before the call
is the baseline the growth is measured from. The peak is this process's
VmHWM: ``ru_maxrss`` would also carry the parent's RSS at the time of the
fork. Prints one JSON object, ``{"rss_delta_mb": ...}``. Run with ``src`` on
PYTHONPATH.
"""

import json
import sys

import numpy as np
import scipy.sparse as sp

from coretune.data import Dataset
from coretune.sensitivity import compute_scores


def peak_rss_kib() -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(path: str, provider: str, params: str) -> None:
    with np.load(path) as arrays:
        if "dense" in arrays:
            features = arrays["dense"]
        else:
            features = sp.csr_matrix((arrays["data"], arrays["indices"],
                                      arrays["indptr"]), shape=tuple(arrays["shape"]))
        train = Dataset(features, arrays["labels"], arrays["weights"],
                        arrays["point_ids"])
    before = peak_rss_kib()
    compute_scores(provider, train, **json.loads(params))
    after = peak_rss_kib()
    print(json.dumps({"rss_delta_mb": (after - before) / 1024.0}))


if __name__ == "__main__":
    main(*sys.argv[1:4])
