"""Helper process for work that must not count toward the measuring
process's memory: building the merged-corpus snapshot, and computing
the warm-reads reference results on a fully decoded graph.

    python3 perfbench/child.py build-snapshot PATH
    python3 perfbench/child.py reference-reads PATH SEED
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import inputs  # noqa: E402
from harness import NullTracer  # noqa: E402
from workloads import do_read, read_digest  # noqa: E402

from repro.core.api import Tabby  # noqa: E402
from repro.core.cpg import CPGBuilder  # noqa: E402
from repro.graphdb.storage import save_graph  # noqa: E402
from repro.jvm.hierarchy import ClassHierarchy  # noqa: E402


def main(argv):
    task, path = argv[0], argv[1]
    if task == "build-snapshot":
        cpg = CPGBuilder(ClassHierarchy(inputs.merged_classes())).build()
        save_graph(cpg.graph, path, format="v3")
    elif task == "reference-reads":
        tabby = Tabby.load_cpg(path, mmap=False)
        null = NullTracer()
        digests = []
        for read in inputs.read_pool(int(argv[2])):
            digests.append(read_digest(read, do_read(tabby, read, null)[0]))
        json.dump(digests, sys.stdout)
    else:
        raise SystemExit(f"unknown task {task!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
