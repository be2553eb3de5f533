"""Golden digests of every runner's output tree.

The four runners run on the criterion-8 config, serially and on a pool of
two workers, and each output tree is hashed (relative path and bytes of
every file, in sorted order). A change that moves a single output byte
fails here; such a change updates the digests below and says why in
CHANGES.md. The same digests, and the pinned channel bytes, must hold
whatever BLAS kernel and numpy SIMD level the host picks.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from rissim.experiments import (
    config_from_dict,
    run_codebook_experiment,
    run_grouping_experiment,
    run_oracle_check,
    run_sweep,
)

CRITERION_8_CONFIG = {
    "seed": 5,
    "sweep": {"points": [[70.0, 170.0], [110.0, 220.0]]},
    "codebook": {
        "reference_angles_deg": [70.0, 110.0],
        "reference_distance_cm": 170.0,
        "path": [[72.0, 165.0], [108.0, 175.0]],
    },
    "grouping": {"group_sizes": [1, 8], "angles_deg": [70.0], "distance_cm": 170.0},
    "oracle": {"nx": 2, "ny": 2, "num_states": 4, "instances": 3},
}

GOLDEN = {
    "sweep": "369d65cabd39e75a15f92d0dcffe1d404d9c172503d8710e38d4447c78950c3a",
    "codebook": "3f2dde0590a81795ff6dbd6396398d043c2ba522d43849fb3450115ca59061d5",
    "grouping": "b2b301a3ad0ecb1e50bd6f7e66fd7c99bce2f9ff5d2fe0d0b82a89e7e1f2441d",
    "oracle": "9a674b377c5026bd93f7672051788522196846f630e845a6a44da2f5b74c5713",
}


def _tree_digest(root) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode("utf-8") + b"\0")
        data = path.read_bytes()
        h.update(len(data).to_bytes(8, "little"))
        h.update(data)
    return h.hexdigest()


def test_runner_outputs_match_golden_digests(tmp_path):
    # --parallel must not move a byte, so both pool sizes share one digest
    cfg = config_from_dict(CRITERION_8_CONFIG)
    runners = {
        "sweep": run_sweep,
        "codebook": run_codebook_experiment,
        "grouping": run_grouping_experiment,
        "oracle": run_oracle_check,
    }
    for parallel in (1, 2):
        digests = {}
        for name, runner in runners.items():
            out = tmp_path / f"{name}-p{parallel}"
            runner(cfg, out, parallel=parallel)
            digests[name] = _tree_digest(out)
        if digests != GOLDEN:
            print(f"new digests at parallel={parallel}:")
            for name, digest in digests.items():
                print(f'    "{name}": "{digest}",')
        assert digests == GOLDEN


# the pinned-digest tests, run as they are under each host setting below
_DIGEST_TESTS = [
    "tests/test_golden.py::test_runner_outputs_match_golden_digests",
    "tests/test_channel.py::test_default_spot_channels_match_digest",
    "tests/test_channel.py::test_oracle_instance_channels_match_digest",
    "tests/test_channel.py::test_clear_direct_path_and_default_panel_channels_match_digest",
    "tests/test_channel.py::test_calibration_script_reproduces_the_frozen_defaults",
]


def _simd_targets(above_avx2: bool) -> list[str]:
    """The SIMD targets this numpy dispatches to on this CPU, the "found"
    list of np.show_runtime() read from the same table; only those past
    AVX2 (AVX-512) if above_avx2."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    found = [f for f in __cpu_dispatch__ if __cpu_features__.get(f)]
    return [f for f in found if "AVX512" in f or f == "X86_V4"] if above_avx2 else found


@pytest.mark.parametrize(
    "variable, value",
    [
        ("OPENBLAS_CORETYPE", "Haswell"),
        ("OPENBLAS_CORETYPE", "Prescott"),
        ("NPY_DISABLE_CPU_FEATURES", "above AVX2"),  # numpy limited to AVX2
        ("NPY_DISABLE_CPU_FEATURES", "every dispatched target"),  # numpy at its compiled baseline
    ],
)
def test_digests_hold_under_other_blas_kernels_and_numpy_simd_levels(variable, value):
    """Every golden and channel digest is the same whichever kernel OpenBLAS
    picks and whichever SIMD loops numpy dispatches to: the cascade is one
    fixed-order gather and pairwise sum, no BLAS call or numpy complex
    multiply, and the dB rule, powers and norms are libm or plain IEEE
    arithmetic per value.

    Not asserted: libm itself. Measured on an AVX-512 host with glibc's
    AVX2, FMA and AVX512F variants switched off
    (GLIBC_TUNABLES=glibc.cpu.hwcaps=-AVX2,-FMA,-AVX512F): the four runner
    digests, the frozen defaults, the oracle-instance channels and the
    76-element channels at 70 deg / 170 cm held, while the default-spot
    and clear-direct-path channel digests moved, through complex np.exp,
    which calls libm, on the element phases at 50 deg / 120 cm and
    130 deg / 120 cm.
    """
    if variable == "NPY_DISABLE_CPU_FEATURES":
        targets = _simd_targets(above_avx2=value == "above AVX2")
        if not targets:
            pytest.skip(f"numpy dispatches to no target {value} on this CPU")
        value = ",".join(targets)
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, **{variable: value})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *_DIGEST_TESTS],
        cwd=root,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, f"{variable}={value}:\n{done.stdout[-3000:]}"
