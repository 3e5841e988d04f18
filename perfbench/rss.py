"""Peak memory of a process, read from Linux's /proc."""


def peak_rss_kib(pid) -> int:
    """Peak resident set of a live process since its last exec (VmHWM).

    ``ru_maxrss`` of a child would also count the benchmark's own pages,
    which the child shares between fork and exec."""
    with open(f"/proc/{pid}/status", encoding="ascii") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError(f"no VmHWM for process {pid}")
