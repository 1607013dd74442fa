"""Numeric differences between two `tools/output_digest.py --work` trees.

Where two checkouts' digests differ, this says by how much. For every
output file under either tree it prints one line: the file's path
relative to the tree, the count of numeric tokens, and the largest
absolute and relative differences between corresponding numeric tokens
a (first tree) and b, max_abs = max |a - b| and max_rel =
max |a - b| / max(1, |a|). A line is flagged when the two files hold
different numbers of tokens, differ in any non-numeric text, or exist on
one side only:

    python3 tools/output_digest.py --work /tmp/digest --repo ../parent
    mv /tmp/digest /tmp/digest-parent
    python3 tools/output_digest.py --work /tmp/digest
    python3 tools/output_diff.py /tmp/digest-parent /tmp/digest

Both runs must use the same --work path, since a config digest names the
input path. A numeric token is a decimal or exponent literal, or nan,
inf, NaN or Infinity with an optional sign, that is not part of a longer
word (so the digits of `ze_0` or of a hex digest are text). Equal
non-finite tokens differ by 0. The last line sums up; the exit code is 1
if any line is flagged, else 0.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from pathlib import Path

NUMBER = re.compile(
    r"(?<![\w.])[-+]?(?:(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf|NaN|Infinity)(?![\w.])")


def split(text: str) -> tuple[list[str], list[float]]:
    """The text between numeric tokens, and the tokens' values."""
    values = [float(m) for m in NUMBER.findall(text)]
    return NUMBER.split(text), values


def difference(a: float, b: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    return abs(a - b) if math.isfinite(a - b) else math.inf


def relative(a: float, b: float) -> float:
    """|a - b| / max(1, |a|): the absolute difference below 1, relative above."""
    d = difference(a, b)
    return d / max(1.0, abs(a)) if math.isfinite(d) else d


def compare(a: Path | None, b: Path | None) -> tuple[int, float, float, list[str]]:
    """Token count, largest absolute and relative differences, and flags
    of one file pair."""
    if a is None or b is None:
        return 0, 0.0, 0.0, ["only in " + ("B" if a is None else "A")]
    if a.read_bytes() == b.read_bytes():
        return len(split(a.read_text(encoding="utf-8"))[1]), 0.0, 0.0, []
    text_a, values_a = split(a.read_text(encoding="utf-8"))
    text_b, values_b = split(b.read_text(encoding="utf-8"))
    flags = []
    if len(values_a) != len(values_b):
        flags.append(f"token count {len(values_a)} != {len(values_b)}")
    elif text_a != text_b:
        flags.append("text differs")
    pairs = list(zip(values_a, values_b))
    return (len(values_a), max((difference(x, y) for x, y in pairs), default=0.0),
            max((relative(x, y) for x, y in pairs), default=0.0), flags)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=Path, help="first --work tree (e.g. the parent's)")
    parser.add_argument("b", type=Path, help="second --work tree")
    args = parser.parse_args(argv)
    for root in (args.a, args.b):
        if not root.is_dir():
            parser.error(f"{root} is not a directory")
    files = sorted({p.relative_to(root) for root in (args.a, args.b)
                    for p in root.rglob("*") if p.is_file()})
    flagged, changed, overall, overall_rel = 0, 0, 0.0, 0.0
    for rel in files:
        a, b = args.a / rel, args.b / rel
        count, largest, largest_rel, flags = compare(a if a.is_file() else None,
                                                     b if b.is_file() else None)
        flagged += bool(flags)
        changed += largest > 0.0
        overall, overall_rel = max(overall, largest), max(overall_rel, largest_rel)
        print(f"{rel} tokens={count} max_abs={largest:.3g} max_rel={largest_rel:.3g}"
              + "".join(f" FLAG: {f}" for f in flags))
    print(f"files={len(files)} changed={changed} flagged={flagged} max_abs={overall:.3g} "
          f"max_rel={overall_rel:.3g}")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
