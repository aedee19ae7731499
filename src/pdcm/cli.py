"""Command-line front end.

    pdcm generate    sample one graph and write it + its erasure report
    pdcm ingest      parse a directed edge list into a partially directed graph
    pdcm experiment  sweep a size grid, appending to a resumable metrics CSV
    pdcm components  strongly connected components of a stored graph
    pdcm oracle      exact vs simulated probability of an unmodified vertex

Exit codes: 0 success, 1 runtime failure (I/O, bad data, out of memory),
2 usage error.
Every run is fully determined by its flags and seed; see the README for
the seed-derivation rules.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

from .components import strongly_connected_components, write_component_csv
from .degrees import COUPLINGS, MODELS
from .experiment import (CONFIG_KEYS, config_from_mapping, parse_config_file,
                         run_experiment, sample_graph)
from .ingest import ingest_path, read_pdgraph, write_pdgraph
from .saveprob import (
    exact_save_probability,
    monte_carlo_save_frequency,
    parse_save_spec,
)


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", choices=MODELS,
                   help="degree model")
    p.add_argument("--lambda", dest="lambda", type=float, metavar="MEAN",
                   help="poisson mean")
    p.add_argument("--gamma", type=float, help="scale-free exponent (> 2)")
    p.add_argument("--degrees", metavar="FILE",
                   help="degree triple file for --model empirical")
    p.add_argument("--coupling", choices=COUPLINGS,
                   help="how in/out/undirected degrees are drawn together")


def _settings(args) -> dict:
    """The CONFIG_KEYS flags that were set, as argparse made them."""
    return {key: value for key in CONFIG_KEYS
            if (value := getattr(args, key, None)) is not None}


def cmd_generate(args) -> int:
    dist = config_from_mapping(_settings(args)).distribution()
    g, report = sample_graph(dist, args.n, args.seed)
    write_pdgraph(g, args.output)
    with open(args.report, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(asdict(report)) + "\n")
    print(f"wrote {args.output} (n={g.n}, directed={g.num_directed}, "
          f"undirected={g.num_undirected}) and {args.report}")
    return 0


def cmd_ingest(args) -> int:
    g, stats = ingest_path(args.input)
    if args.output:
        write_pdgraph(g, args.output)
    print(json.dumps(asdict(stats)))
    return 0


def cmd_experiment(args) -> int:
    mapping = parse_config_file(args.config) if args.config else {}
    config = config_from_mapping(mapping | _settings(args))
    ran, skipped = run_experiment(
        config, log=None if args.quiet else lambda line: print(line, flush=True)
    )
    print(f"{config.output}: {ran} cells computed, {skipped} already present")
    return 0


def cmd_components(args) -> int:
    summary = strongly_connected_components(read_pdgraph(args.input))
    if args.output:
        write_component_csv(summary, args.output)
    print(json.dumps({
        "n": summary.n,
        "num_components": summary.num_components,
        "largest_relative": summary.largest_relative,
    }))
    return 0


def cmd_oracle(args) -> int:
    config_from_mapping(_settings(args))  # checks the seed and replicates
    spec = parse_save_spec(args.spec)
    exact = exact_save_probability(spec)
    freq, stderr = monte_carlo_save_frequency(spec, args.replicates, args.seed)
    print(json.dumps({
        "exact": float(exact),
        "exact_fraction": f"{exact.numerator}/{exact.denominator}",
        "frequency": freq,
        "stderr": stderr,
        "replicates": args.replicates,
    }))
    return 0


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="pdcm",
        description="partially directed configuration-model graphs",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="sample one graph")
    _add_model_flags(p)
    p.add_argument("--n", type=int, required=True, help="number of vertices")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--output", required=True, metavar="PDGRAPH")
    p.add_argument("--report", required=True, metavar="JSON",
                   help="where to write the erasure report")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("ingest", help="parse a directed edge list")
    p.add_argument("--input", required=True, metavar="EDGELIST")
    p.add_argument("--output", metavar="PDGRAPH",
                   help="also store the classified graph")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("experiment", help="run a size/replicate grid")
    _add_model_flags(p)
    p.add_argument("--config", metavar="FILE",
                   help="flat key = value settings; flags override")
    p.add_argument("--sizes", metavar="N,N,...",
                   help="comma-separated graph sizes (default decades 1e2..1e6)")
    p.add_argument("--replicates", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--output", metavar="CSV")
    p.add_argument("--jobs", type=int, help="worker processes (default 1)")
    p.add_argument("--quiet", action="store_true",
                   help="suppress the per-cell progress lines")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("components", help="strongly connected components")
    p.add_argument("--input", required=True, metavar="PDGRAPH")
    p.add_argument("--output", metavar="CSV", help="size,count histogram")
    p.set_defaults(func=cmd_components)

    p = sub.add_parser("oracle", help="check one degree spec")
    p.add_argument("--spec", required=True, metavar="FILE",
                   help="degree triples, one per line, first line = target")
    p.add_argument("--replicates", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_oracle)
    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, MemoryError) as exc:
        # numpy's MemoryError names the array it could not allocate; a bare one is empty
        print(f"pdcm: error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
