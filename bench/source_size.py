"""Lines and parser tokens of each ``src/shadowrds`` module.

Run from the repository root (or with ``--src`` pointing at any other
checkout's ``src/shadowrds``):

    python3 bench/source_size.py > source_size.json

A module's ``lines`` are its physical lines.  Its ``tokens`` are the tokens
``tokenize`` yields for its text, less COMMENT and NL: comments and blank or
continuation line ends do not count, every other token does (NEWLINE, INDENT
and DEDENT included).  The result is one JSON object on stdout: per module
file name, then ``total``.
"""

from __future__ import annotations

import argparse
import io
import json
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "shadowrds"


def module_size(text: str) -> dict:
    """{"lines": ..., "tokens": ...} of one module's source ``text``."""
    tokens = tokenize.generate_tokens(io.StringIO(text).readline)
    return {
        "lines": len(text.splitlines()),
        "tokens": sum(t.type not in (tokenize.COMMENT, tokenize.NL) for t in tokens),
    }


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=SRC, help="the package directory")
    args = parser.parse_args(argv)
    sizes = {p.name: module_size(p.read_text(encoding="utf-8"))
             for p in sorted(args.src.glob("*.py"))}
    sizes["total"] = {key: sum(size[key] for size in sizes.values())
                      for key in ("lines", "tokens")}
    print(json.dumps(sizes, indent=2))


if __name__ == "__main__":
    main()
