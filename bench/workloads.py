"""The three benchmark workloads and the probanet command lines of one
round of each.

A training workload's round is one paired `probanet train`; the audit's
round is one `probanet gradcheck --op <op>` per audited op.  The
workload seed is written into the config as `seed = <n>` for the
training workloads and passed as `--seed <n>` to the audit.
`paired-default` adds one operation to each round that fails every
time, on a fixed input (see KNOWN_FAULT_CONFIG).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

# 38x50 grid, 512 channels and nine anchor shapes at r = 16: the sizes of
# the paper's VGG16 stage, so the 1x1 convolutions, the sampler's key sort
# over ~15k candidates and the artifact writing dominate a step.
WIDE_CONFIG = """\
height = 38
width = 50
channels = 512
anchor_shapes = 3x3,3x5,5x3,5x5,2x4,4x2,6x6,4x4,2x2
r = 16
object_max_size = 8
scene_pool_size = 16
epochs = 1
steps_per_epoch = 200
"""


# At th = 0.5, the built-in default, training ends in EmptyPoolError on
# some seeds: the gate truncates every background anchor, at step 0 (seed
# 323, where no background weight starts above 0.5) or after it has learnt
# to push background weights down (seed 327, at step 24).  A workload
# must not fail on some seeds only, so paired-default
# trains with th = 0: the gate still scores, weights and truncates every
# map, but keeps every entry, so the sampler always has background.
DEFAULT_CONFIG = "th = 0\n"

# The fault above on a fixed input, kept in every paired-default round so
# that it shows in the run's `failed` count: `probanet train --probanet`
# at the defaults, seed 323, fails at step 0 on every run.  One step and a
# two-scene pool keep its cost small should the fault be mended.
KNOWN_FAULT_CONFIG = "epochs = 1\nsteps_per_epoch = 1\nscene_pool_size = 2\nseed = 323\n"

# Every check of `probanet gradcheck` but end_to_end, which fails on about
# one seed in 25 (a tolerance miss or an EmptyPoolError, see CHANGES.md);
# a workload must not fail on some seeds only.
AUDIT_OPS = ("conv1x1", "relu", "sigmoid", "hadamard", "variance", "gate", "head")


@dataclass(frozen=True)
class Workload:
    name: str
    config: str | None  # training config without its seed line; None: the audit
    n_seeds: int
    known_fault: bool = False  # ends each round with the KNOWN_FAULT_CONFIG run

    @property
    def trains(self) -> bool:
        return self.config is not None

    def commands(self, seed: int, work_dir: str, out_dir: str) -> list[list[str]]:
        """The probanet command lines of one round of the workload; writes
        the seeded config first for a training workload.  The known-fault
        run, if any, comes last and writes beside out_dir."""
        if not self.trains:
            return [
                ["gradcheck", "--op", op, "--seed", str(seed), "--seeds", str(self.n_seeds)]
                for op in AUDIT_OPS
            ]
        config_path = os.path.join(work_dir, "workload.cfg")
        with open(config_path, "w", encoding="ascii", newline="\n") as fh:
            fh.write(self.config_text(seed))
        argvs = [[
            "train", "--config", config_path, "--out", out_dir,
            "--seeds", str(self.n_seeds),
        ]]
        if self.known_fault:
            fault_path = os.path.join(work_dir, "known-fault.cfg")
            with open(fault_path, "w", encoding="ascii", newline="\n") as fh:
                fh.write(KNOWN_FAULT_CONFIG)
            argvs.append([
                "train", "--probanet", "--config", fault_path,
                "--out", out_dir + "-known-fault", "--seeds", "1",
            ])
        return argvs

    def config_text(self, seed: int) -> str:
        return self.config + f"seed = {seed}\n"


WORKLOADS = {
    w.name: w
    for w in (
        # The paper's experiment as users run it, at the built-in defaults
        # (16x16x128, one 3x3 anchor shape, 2,000 steps per variant) but
        # for the threshold, see DEFAULT_CONFIG.
        Workload("paired-default", DEFAULT_CONFIG, n_seeds=2, known_fault=True),
        Workload("paired-wide", WIDE_CONFIG, n_seeds=1),
        # Twice the default number of audit seeds.
        Workload("audit", None, n_seeds=10),
    )
}
