"""The line ledger's rule: blank lines, comment-only lines and docstrings
are not code; every other line that carries a token is."""
import textwrap

from line_ledger import code_lines, main

SOURCE = textwrap.dedent('''\
    """Module docstring,
    on two lines."""
    import os  # a code line with a comment

    # a comment-only line
    class A:
        """Class docstring."""

        def f(self):
            """Function
            docstring."""
            text = """a string that is not
            a docstring"""
            return (text,
                    os.sep)
    ''')


def test_code_lines_leave_out_docstrings_comments_and_blanks(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(SOURCE)
    # import, class, def, the two lines of the assigned string, the return's two
    assert code_lines(path) == 7


def test_ledger_prints_total_and_code_lines(tmp_path, capsys):
    (tmp_path / "mod.py").write_text(SOURCE)
    (tmp_path / "empty.py").write_text("# nothing\n\n")
    main([tmp_path])
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert [row[1:] for row in rows] == [["2", "0"], ["15", "7"], ["17", "7"]]
    assert rows[-1][0] == "total"
