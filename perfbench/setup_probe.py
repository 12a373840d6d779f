"""Set-up that precedes every timed pass: import projsum, NumPy and SciPy,
then make one warm-up call into LAPACK and one into HiGHS.

``python3 setup_probe.py <src dir>`` does this in a fresh interpreter and
prints the seconds it took, counted from the first line of this file.
"""

import time

_T0 = time.perf_counter()

import sys  # noqa: E402


def warm_up() -> None:
    """Import projsum with its dependencies and touch LAPACK and HiGHS once."""
    import numpy as np
    from scipy.optimize import linprog

    import projsum.cli  # noqa: F401

    np.linalg.eigvals(np.eye(8) + 0.5j * np.tri(8))
    res = linprog([1.0, 2.0], A_eq=[[1.0, 1.0]], b_eq=[1.0], bounds=(0.0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS warm-up failed: {res.message}")


if __name__ == "__main__":
    sys.path.insert(0, sys.argv[1])
    warm_up()
    print(repr(time.perf_counter() - _T0))
