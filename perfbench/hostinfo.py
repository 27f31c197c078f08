"""Host readers over ``/proc`` (psutil is not a dependency): CPU counts,
steal time, and peak resident memory of a process tree."""

from __future__ import annotations

import os
import signal
import time


def nproc(environ=os.environ) -> int:
    """What GNU ``nproc`` prints: the CPUs this process may run on, capped by
    ``OMP_NUM_THREADS`` / ``OMP_THREAD_LIMIT`` when those are set."""
    n = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OMP_THREAD_LIMIT"):
        first = environ.get(var, "").split(",")[0].strip()
        if first.isdigit() and int(first) > 0:
            n = min(n, int(first))
    return n


def parse_steal_ticks(stat_text: str) -> int:
    """Steal ticks (8th value) of the aggregate ``cpu`` line of /proc/stat."""
    for line in stat_text.splitlines():
        fields = line.split()
        if fields and fields[0] == "cpu":
            return int(fields[8]) if len(fields) > 8 else 0
    raise ValueError("no aggregate cpu line in /proc/stat")


def steal_s(proc: str = "/proc") -> float:
    """Host-wide steal time so far, in seconds."""
    with open(os.path.join(proc, "stat")) as fh:
        return parse_steal_ticks(fh.read()) / os.sysconf("SC_CLK_TCK")


def parse_status_kb(status_text: str, key: str) -> int:
    """A ``kB`` field (e.g. VmHWM) of /proc/<pid>/status; 0 when absent
    (kernel threads, zombies)."""
    for line in status_text.splitlines():
        if line.startswith(key + ":"):
            return int(line.split()[1])
    return 0


def parse_stat(stat_text: str) -> tuple[int, str, int]:
    """(ppid, state, starttime) from /proc/<pid>/stat; the command name may
    hold spaces and parentheses, so fields are read after the last ')'."""
    rest = stat_text[stat_text.rindex(")") + 2:].split()
    return int(rest[1]), rest[0], int(rest[19])


def _read(path: str) -> str | None:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:  # the process ended between listing and reading
        return None


def descendants(root: int, proc: str = "/proc") -> dict[int, int]:
    """{pid: starttime} of every live descendant of ``root``."""
    children: dict[int, list[tuple[int, int]]] = {}
    for name in os.listdir(proc):
        if not name.isdigit():
            continue
        text = _read(os.path.join(proc, name, "stat"))
        if text is None:
            continue
        ppid, state, start = parse_stat(text)
        if state not in ("Z", "X"):
            children.setdefault(ppid, []).append((int(name), start))
    out: dict[int, int] = {}
    stack = [root]
    while stack:
        for pid, start in children.get(stack.pop(), ()):
            if pid not in out:
                out[pid] = start
                stack.append(pid)
    return out


def tree_peak_rss_mb(root: int | None = None, proc: str = "/proc") -> float:
    """Summed VmHWM (peak RSS) of ``root`` and its live descendants, in MB."""
    root = os.getpid() if root is None else root
    total_kb = 0
    for pid in [root, *descendants(root, proc)]:
        text = _read(os.path.join(proc, str(pid), "status"))
        if text is not None:
            total_kb += parse_status_kb(text, "VmHWM")
    return total_kb / 1024.0


def reset_peak_rss() -> None:
    """Reset this process's VmHWM to its current RSS, so memory used by
    load generation is not counted against the run."""
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
    except OSError:
        pass


def alive(pid: int, start: int, proc: str = "/proc") -> bool:
    text = _read(os.path.join(proc, str(pid), "stat"))
    if text is None:
        return False
    _ppid, state, now_start = parse_stat(text)
    return now_start == start and state not in ("Z", "X")


def wait_gone(pids: dict[int, int], timeout_s: float = 20.0) -> list[int]:
    """Wait until every (pid, starttime) has ended; SIGKILL what is left at
    the timeout and wait again.  Returns the pids that had to be killed."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if not any(alive(p, s) for p, s in pids.items()):
            return []
        time.sleep(0.1)
    killed = [p for p, s in pids.items() if alive(p, s)]
    for pid in killed:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline and any(alive(p, pids[p]) for p in killed):
        time.sleep(0.1)
    return killed
