"""Child process of the benchmark.

    python3 bench/child.py run <transversals CLI arguments...>
    python3 bench/child.py setup <input file>

`run` calls the CLI's `main` exactly as the `transversals` console script
does, flushes stdout, and then appends one line to stderr:
`bench-child: main_s=<seconds in main> vmhwm_kb=<peak RSS>`. The peak is
the child's own VmHWM; `ru_maxrss` from wait4 would be wrong, because on
Linux it keeps the parent's high-water mark across fork and exec.

`setup` does everything the CLI does before an engine starts (import the
package and parse the input) and exits.
"""

import sys
import time


def _vmhwm_kb() -> int:
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("VmHWM missing from /proc/self/status")


def main() -> int:
    mode, args = sys.argv[1], sys.argv[2:]
    if mode == "setup":
        import transversals.cli  # noqa: F401  (the CLI's import cost)
        from transversals import parse_hypergraph

        with open(args[0], encoding="utf-8") as handle:
            parse_hypergraph(handle.read())
        return 0
    if mode != "run":
        raise SystemExit(f"unknown mode {mode!r}")
    from transversals.cli import main as cli_main

    started = time.perf_counter()
    code = cli_main(args)
    sys.stdout.flush()
    main_s = time.perf_counter() - started
    sys.stderr.write(f"bench-child: main_s={main_s!r} vmhwm_kb={_vmhwm_kb()}\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
