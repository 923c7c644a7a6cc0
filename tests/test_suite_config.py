import subprocess
import sys
import textwrap
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_a_failing_property_test_does_not_end_the_session(tmp_path):
    # On a failure, hypothesis' pytest plugin imports libcst, whose import
    # warns through mypy_extensions.TypedDict; under "error" alone that
    # warning ended the session with INTERNALERROR, and the test after the
    # failing one was never run or reported
    (tmp_path / "test_two.py").write_text(textwrap.dedent("""
        from hypothesis import given, strategies as st


        @given(st.integers())
        def test_fails(x):
            assert x != x


        def test_passes():
            pass
    """))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout


def test_every_other_warning_is_still_an_error(tmp_path):
    (tmp_path / "test_warns.py").write_text(textwrap.dedent("""
        import warnings


        def test_warns():
            warnings.warn("deprecated", DeprecationWarning)
    """))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "test_warns.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert "1 failed" in proc.stdout
