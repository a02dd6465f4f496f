"""Total and code lines per module: `python tests/line_ledger.py [dir ...]`
(default src/segsolve). A code line is one that is not blank, not
comment-only and not inside a docstring (a string that is a statement)."""
import pathlib
import sys
import tokenize

# tokens that put nothing on a line; NEWLINE, which ends a statement, is kept
SKIP = {tokenize.NL, tokenize.COMMENT, tokenize.INDENT, tokenize.DEDENT,
        tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(path) -> int:
    """The number of code lines in the Python file at path."""
    with open(path, "rb") as fh:
        tokens = [t for t in tokenize.tokenize(fh.readline) if t.type not in SKIP]
    lines = set()
    for i, tok in enumerate(tokens):
        statement = i == 0 or tokens[i - 1].type == tokenize.NEWLINE
        bare = tok.type == tokenize.STRING and tokens[i + 1].type == tokenize.NEWLINE
        if tok.type == tokenize.NEWLINE or (statement and bare):
            continue  # a docstring, or another string that is a statement
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(dirs) -> None:
    total = code = 0
    for path in sorted(p for d in dirs for p in pathlib.Path(d).rglob("*.py")):
        n, c = len(path.read_text().splitlines()), code_lines(path)
        total, code = total + n, code + c
        print(f"{str(path):<40} {n:>6} {c:>6}")
    print(f"{'total':<40} {total:>6} {code:>6}")


if __name__ == "__main__":
    main(sys.argv[1:] or ["src/segsolve"])
