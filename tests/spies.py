"""Spies for tests of run_experiment, whose seeds may train in forked
workers.  A spy patched in before the fork is inherited by every worker;
what it records is appended to a file, since a worker's memory is its
own."""

import os
import sys


_AFFINITY = getattr(os, "sched_getaffinity", None)


def use_workers(monkeypatch, forked: bool) -> None:
    """Fork a worker per seed, given two or more cores, by showing training
    this process's real affinity set, or keep every seed in-process by
    showing it one core."""
    if not forked:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    elif _AFFINITY is not None:
        monkeypatch.setattr(os, "sched_getaffinity", _AFFINITY)
    else:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)


def record_calls(monkeypatch, path, original) -> None:
    """Replace original, in every probanet module that holds it, by a spy
    that appends its name and the calling process's pid to path."""

    def spy(*args, **kwargs):
        with open(path, "a", encoding="ascii") as fh:
            fh.write(f"{original.__name__} {os.getpid()}\n")
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("probanet") and getattr(
            module, original.__name__, None
        ) is original:
            monkeypatch.setattr(module, original.__name__, spy)


def read_calls(path) -> list[tuple[str, int]]:
    """The (name, pid) of every call recorded in path, in order; path is
    removed, so the next read sees only later calls."""
    lines = path.read_text(encoding="ascii").splitlines()
    path.unlink()
    return [(name, int(pid)) for name, pid in (line.split() for line in lines)]
