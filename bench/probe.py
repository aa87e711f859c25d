"""One set-up probe, run in a fresh interpreter by run.py.

Imports the program, parses the workload's command line and, for a
training workload, parses its config and builds the first seed's scene
pool; then prints `ready` and exits.  run.py times it from spawn to that
line.

    python3 bench/probe.py <probanet argument>...
"""

import sys

from probanet import cli
from probanet.config import parse_config
from probanet.training import build_scene_pool


def main(argv: list[str]) -> None:
    args = cli.build_parser().parse_args(argv)
    if args.command == "train":
        with open(args.config, "r", encoding="utf-8") as fh:
            train, sim = parse_config(fh.read())
        build_scene_pool(train, sim)
    print("ready", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
