"""One fresh-process set-up of a problem file, timed from inside the process.

Usage: python3 bench/setup_child.py <problem.json>

Times `import hinfgcc` (with the cli module, which holds load_problem) and
then load_problem -> validate_plant -> enumerate_vertices -> build_extended
-> build_schur, and prints one JSON line with the times and the sizes.
Interpreter start-up is not counted; it is not hinfgcc's.
"""

import json
import os
import sys
import time


def main() -> int:
    t0 = time.perf_counter()
    import hinfgcc
    from hinfgcc.cli import load_problem

    t1 = time.perf_counter()
    plant, spec, _ = load_problem(sys.argv[1])
    hinfgcc.validate_plant(plant)
    vset = hinfgcc.enumerate_vertices(plant, spec)
    ext = hinfgcc.build_extended(plant, vset)
    schur = hinfgcc.build_schur(ext)
    t2 = time.perf_counter()
    print(json.dumps({
        "module": os.path.realpath(hinfgcc.__file__),
        "import_s": t1 - t0,
        "setup_s": t2 - t0,
        "N": vset.N,
        "p": schur.p,
        "r": schur.r,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
