"""Golden digests of every runner's output tree.

The four runners run on the criterion-8 config, serially and on a pool of
two workers, and each output tree is hashed (relative path and bytes of
every file, in sorted order). A change that moves a single output byte
fails here; such a change updates the digests below and says why in
CHANGES.md.
"""

import hashlib

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
    "sweep": "056323f48165522d75bb47c4479af06fd3a7691504508eade3bb7eee607a81ac",
    "codebook": "f7469ad9fe711d26e2e25d8b673ab4fcf4fba1e81eeb472a93deffcbec51e79f",
    "grouping": "b161d876829da02d094ee68ddcae949bdb06c6a4f38e5971a0df2cb51d0f6cf7",
    "oracle": "0fd01fe6f01f3dd6d461fa7bc3588d82b07680b7d70dfd3c2a19b10d49317bc7",
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
