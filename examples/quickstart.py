#!/usr/bin/env python3
"""Quickstart: build an MP-SoC platform, deploy a DSOC object, call it.

This walks the paper's whole stack in ~60 lines:

1. describe a StepNP-style platform (processors + NoC + memory + I/O);
2. instantiate it as a live simulation;
3. define a DSOC object (the paper's CORBA-lite programming model);
4. deploy it replicated across the processor array;
5. invoke it from a client and read the platform metrics.

Then it hands the same stack to the scenario engine: every experiment
and ablation in this repo is a registered scenario, runnable in batch
(``python -m repro run --tags smoke --workers 4``).

Run:  python examples/quickstart.py
"""

from repro.dsoc.idl import Interface, Method, Param
from repro.dsoc.objects import DsocObject
from repro.dsoc.runtime import DsocRuntime
from repro.platform.fppa import build_platform
from repro.platform.stepnp import stepnp_spec


class Crypto(DsocObject):
    """A toy work object: 'encrypt' costs compute plus one table read."""

    interface = Interface(
        "Crypto",
        (Method("encrypt", (Param("block", "u32"),)),),
    )

    def __init__(self, key_table_terminal):
        super().__init__()
        self.key_table_terminal = key_table_terminal

    def serve_encrypt(self, ctx, svc, block):
        yield from ctx.compute(30)                      # rounds of mixing
        key = yield from svc.read(self.key_table_terminal, block & 0xFF)
        yield from ctx.compute(10)                      # final whitening
        return (block * 2654435761 + (key or 0)) & 0xFFFFFFFF


def main():
    # 1-2. Describe and instantiate the platform (Figure 2 of the paper).
    spec = stepnp_spec(num_pes=8, threads=4, topology="fat_tree")
    platform = build_platform(spec)
    print("platform:", spec.summary())

    # 3-4. Deploy the DSOC object on every PE, 4 server threads each.
    runtime = DsocRuntime(platform)
    table_terminal = platform.memory_terminal("esram")
    runtime.deploy_replicated(
        "crypto", lambda: Crypto(table_terminal), server_threads=4
    )

    # 5. Drive it from the line-interface terminal.
    client_terminal = platform.line_interfaces[0].terminal
    proxy = runtime.proxy(client_terminal, "crypto")
    results = []

    def client():
        for block in range(64):
            ciphertext = yield proxy.call("encrypt", block)
            results.append(ciphertext)

    platform.sim.spawn(client())
    platform.run(until=200_000)

    print(f"encrypted {len(results)} blocks; first 4: {results[:4]}")
    print(f"requests served across replicas: {runtime.total_served('crypto')}")
    print(f"average PE utilization: {platform.average_pe_utilization():.3f}")
    assert len(results) == 64

    # 6. The scenario engine: the batch interface over every workload.
    engine_demo()


def engine_demo():
    """Run two registered scenarios through the engine, serially."""
    from repro.engine import registry
    from repro.engine.executor import execute

    print()
    print("scenario engine: "
          f"{len(registry.all_scenarios())} registered scenarios, tags "
          f"{', '.join(sorted(registry.all_tags()))}")
    specs = [entry.spec for entry in registry.select(names=["E1", "A7"])]
    report = execute(specs, workers=1)
    print(report.render())
    print()
    print("CLI equivalents:")
    print("  python -m repro list --tags smoke")
    print("  python -m repro run --tags ablation --workers 8 "
          "--cache .repro_cache")
    print("  python -m repro run --names E1 A7 --out report.json")


if __name__ == "__main__":
    main()
