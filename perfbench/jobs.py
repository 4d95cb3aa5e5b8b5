"""Jobs: one in-process call to ``rauzyadic.cli.main(argv)``.

A job is a subcommand argument list plus, optionally, the text of one
input file.  The argument ``{in}`` stands for the path the input file is
written to, so a job's identity (its key) depends only on the arguments
and the file text, never on where the file lives.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import time
from dataclasses import dataclass
from pathlib import Path

INPUT = "{in}"


@dataclass(frozen=True)
class Job:
    args: tuple[str, ...]
    text: str | None = None     # content of the file named by "{in}"
    check: str | None = None    # brute-force check kind: "complexity" | "generate"

    @property
    def key(self) -> str:
        spec = json.dumps([list(self.args), self.text], separators=(",", ":"))
        return hashlib.sha256(spec.encode()).hexdigest()[:20]

    @property
    def label(self) -> str:
        return " ".join(self.args)

    def argv(self, path: Path | None) -> list[str]:
        return [str(path) if a == INPUT else a for a in self.args]


@dataclass(frozen=True)
class Outcome:
    code: int | None        # CLI exit code, None when an exception escaped
    error: str | None       # RauzyadicError subclass name (exit 3) or escaped exception type
    stdout: str
    seconds: float

    @property
    def kind(self) -> str:
        """ok (exit 0-2), refused (typed error, exit 3) or crashed (untyped exception)."""
        if self.code is None:
            return "crashed"
        return "refused" if self.code == 3 else "ok"

    @property
    def tag(self) -> str:
        if self.code is None:
            return f"crash:{self.error}"
        return f"exit{self.code}" + (f":{self.error}" if self.error else "")

    @property
    def digest(self) -> str:
        h = hashlib.sha256(self.stdout.encode())
        h.update(f"\n#{self.tag}".encode())
        return h.hexdigest()[:16]


def write_inputs(jobs, directory: Path) -> dict[str, Path]:
    """One file per distinct input text, named by content hash."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for job in jobs:
        if job.text is None or job.text in paths:
            continue
        name = hashlib.sha256(job.text.encode()).hexdigest()[:16] + ".dw"
        path = directory / name
        path.write_text(job.text)
        paths[job.text] = path
    return paths


def run_job(cli, job: Job, paths: dict[str, Path]) -> Outcome:
    """Call ``cli.main`` on the job, capturing stdout and stderr.

    ``cli.main`` is looked up on every call, so an installed tracing
    wrapper is used.  Untyped exceptions are caught here, at the
    benchmark's boundary, and recorded as the job's outcome."""
    argv = job.argv(paths.get(job.text))
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:           # argparse rejected the arguments
        error = f"SystemExit{exc.code}"
    except Exception as exc:            # noqa: BLE001 - recorded as a crash
        error = type(exc).__name__
    seconds = time.perf_counter() - t0
    if code == 3:
        line = err.getvalue().strip().splitlines()[-1:] or [""]
        # "error: <TypeName>: message"
        parts = line[0].split(":", 2)
        error = parts[1].strip() if len(parts) > 2 else "unknown"
    return Outcome(code, error, out.getvalue(), seconds)
