"""Brute-force references for the benchmark's output checks.

Independent of the library: words come from plain string substitution
and factor sets from enumerating every window of a long prefix.
"""

from __future__ import annotations

PREFIX = 20000      # letters of the word whose factors stand for the language
SMALL_N = 12        # complexity rows checked: n <= SMALL_N

SOURCES = {"fibonacci": ["01", "0"],
           "thue-morse": ["01", "10"],
           "tribonacci": ["01", "02", "0"]}


def factors(w: str, n: int) -> set[str]:
    return {w[i:i + n] for i in range(len(w) - n + 1)}


def substitute(images, w: str, cap: int | None = None) -> str:
    out = "".join(images[int(c)] for c in (w if cap is None else w[:cap]))
    return out if cap is None else out[:cap]


def fixed_point(images: list[str], length: int) -> str:
    w = "0"
    while len(w) < length:
        w = substitute(images, w)
    return w[:length]


def parse_directive(text: str) -> tuple[list[list[str]], int]:
    """Images of each morphism (preperiod, then one period) of a directive
    file, and the index where the period starts; only bracket and rule
    lines occur in the benchmark's inputs."""
    levels, period_start = [], None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line.lower() == "preperiod:":
            continue
        if line.lower() == "period:":
            period_start = len(levels)
        elif line.startswith("["):
            levels.append(line[1:-1].split(","))
        elif "->" in line:
            rules = dict(r.split("->") for r in line.split(";"))
            levels.append([rules[str(a)] for a in range(len(rules))])
        elif line:
            raise ValueError(f"unsupported directive line {line!r}")
    return levels, period_start


def limit_prefix(text: str, length: int) -> str:
    """Prefix of m0 m1 ... mn(0^omega), taken at the first level n whose
    image of 0 is at least ``length`` long and agrees with level n-1."""
    levels, p = parse_directive(text)
    period = levels[p:]

    def level(i):
        return levels[i] if i < p else period[(i - p) % len(period)]

    prev = None
    for n in range(200):
        w = "0"
        for i in range(n, -1, -1):
            w = substitute(level(i), w, cap=length)
        full = _image_length(level, n)
        cand = w if full >= length else (w * (length // len(w) + 1))[:length]
        if prev is not None and full >= length and cand == prev:
            return cand
        prev = cand
    raise ValueError("no stable prefix within 200 levels")


def _image_length(level, n: int) -> int:
    """|m0...mn(0)|, from the image lengths alone."""
    sizes = [1] * len(level(n))
    for i in range(n, -1, -1):
        sizes = [sum(sizes[int(c)] for c in img) for img in level(i)]
    return sizes[0]


def check_complexity(csv: str, word: str) -> str | None:
    """None when the n,p,s rows for n <= SMALL_N match the factor counts of
    ``word``; otherwise a description of the first disagreement."""
    counts = [len(factors(word, n)) for n in range(SMALL_N + 2)]
    rows = [line.split(",") for line in csv.strip().splitlines()[1:]]
    for n_text, p_text, s_text in rows:
        n = int(n_text)
        if n > SMALL_N:
            break
        if int(p_text) != counts[n]:
            return f"p({n}) = {p_text}, brute force {counts[n]}"
        if s_text and int(s_text) != counts[n + 1] - counts[n]:
            return f"s({n}) = {s_text}, brute force {counts[n + 1] - counts[n]}"
    return None if rows else "no complexity rows"


def check_generate(stdout: str, text: str, length: int) -> str | None:
    want = limit_prefix(text, length)
    got = stdout.strip()
    if got == want:
        return None
    i = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
    return f"prefix differs from brute force at letter {i} (lengths {len(got)}, {len(want)})"


def check(job, stdout: str) -> str | None:
    """Brute-force check of a job that exited 0: None when it agrees."""
    args = list(job.args)
    if job.check == "generate":
        return check_generate(stdout, job.text, int(args[args.index("--length") + 1]))
    if job.check == "complexity":
        if job.text is None:
            word = fixed_point(SOURCES[args[args.index("--source") + 1]], PREFIX)
        else:
            word = limit_prefix(job.text, PREFIX)
        return check_complexity(stdout, word)
    return None
